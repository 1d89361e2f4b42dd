//! The benchmark's contract as data: workload names, every metric with its
//! unit, direction and regression bound, and the `BENCHMARK.json` text they
//! produce. `tests/quick.rs` holds the committed `BENCHMARK.json` to
//! [`manifest_json`], so the names a run prints and the names the manifest
//! declares cannot drift apart.

/// How long one run measures, in seconds (`run_seconds` of the manifest).
pub const RUN_SECONDS: u32 = 28;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One workload of the suite and the reason it exists.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

/// A user-visible metric with the share of the parent's median by which it
/// may worsen before a change counts as a regression.
#[derive(Debug, Clone, Copy)]
pub struct EndToEndSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// A metric of one layer, reported by the traced pass only. `exact` marks
/// counts that must repeat bit-for-bit between two fresh processes on the
/// same seed (`--check-repeat` holds them to that).
#[derive(Debug, Clone, Copy)]
pub struct LayerSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub exact: bool,
}

pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "rmat14_lcc_cached",
        why: "paper headline: skewed R-MAT, DistLcc with degree-scored CLaMPI caches at csr/2; clampi serves ~80% of remote rows and still evicts, search-class kernels and the fused miss path run",
    },
    WorkloadSpec {
        name: "uniform14_lcc_noncached",
        why: "bypasses clampi: no-skew degree-64 graph, non-cached DistLcc; 1M real gets make the merge-class SIMD kernel and the rma copy the whole cost; a cache change must show no change here",
    },
    WorkloadSpec {
        name: "rmat14_jaccard_compressed",
        why: "same rma/clampi layers used differently: DistJaccard, pipelined depth-8 worker over the sharded cache, compressed rows on the wire and in an eviction-heavy csr/8 cache, fused decode kernels",
    },
    WorkloadSpec {
        name: "rmat12_service_hubmix",
        why: "resident QueryEngine, closed loop with one client: hub-heavy 40/20/20/20 point-query mix in 64-query windows against warm caches; service planning, dedup and admission run nowhere else",
    },
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEndSpec {
    EndToEndSpec {
        name,
        unit,
        better,
        bound,
    }
}

pub const END_TO_END: [EndToEndSpec; 7] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("wall_s", "s", Better::Lower, 0.25),
    e2e("cpu_s", "s", Better::Lower, 0.25),
    e2e("modeled_s", "s", Better::Lower, 0.25),
    e2e("items_per_s", "1/s", Better::Higher, 0.25),
    e2e("tail_ms", "ms", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.15),
];

/// A measured value: a timing, or a ratio of timings.
const fn measured(name: &'static str, unit: &'static str, better: Better) -> LayerSpec {
    LayerSpec {
        name,
        unit,
        better,
        exact: false,
    }
}

/// A count, or a ratio of counts: repeats exactly.
const fn exact(name: &'static str, unit: &'static str, better: Better) -> LayerSpec {
    LayerSpec {
        name,
        unit,
        better,
        exact: true,
    }
}

use Better::{Higher, Lower};

pub const PER_LAYER: [LayerSpec; 56] = [
    measured("graph.generate_s", "s", Lower),
    measured("graph.partition_s", "s", Lower),
    measured("graph.compress_s", "s", Lower),
    exact("graph.remote_edge_fraction", "ratio", Lower),
    exact("graph.edge_imbalance", "ratio", Lower),
    exact("graph.compression_ratio", "ratio", Higher),
    measured("local.seq_s", "s", Lower),
    exact("intersect.pairs", "count", Lower),
    exact("intersect.elems", "count", Lower),
    exact("intersect.share_merge", "ratio", Higher),
    exact("intersect.share_gallop", "ratio", Lower),
    exact("intersect.share_binary", "ratio", Lower),
    measured("intersect.busy_s", "s", Lower),
    measured("intersect.ns_per_elem", "ns", Lower),
    measured("intersect.compressed_ns_per_elem", "ns", Lower),
    measured("rma.get_ns", "ns", Lower),
    exact("rma.bytes_per_get", "B", Lower),
    exact("rma.gets", "count", Lower),
    exact("rma.bytes", "B", Lower),
    measured("rma.comm_s", "s", Lower),
    measured("rma.overlapped_s", "s", Higher),
    exact("rma.local_reads", "count", Higher),
    exact("rma.retries", "count", Lower),
    exact("clampi.lookups", "count", Lower),
    exact("clampi.hit_rate", "ratio", Higher),
    exact("clampi.capacity_evictions", "count", Lower),
    exact("clampi.conflict_evictions", "count", Lower),
    measured("clampi.busy_s", "s", Lower),
    measured("clampi.hit_ns", "ns", Lower),
    measured("clampi.miss_admit_ns", "ns", Lower),
    exact("clampi.adj_hit_rate", "ratio", Higher),
    exact("clampi.off_hit_rate", "ratio", Higher),
    exact("clampi.evictions", "count", Lower),
    exact("clampi.bytes_from_network", "B", Lower),
    measured("distributed.compute_s_max", "s", Lower),
    measured("distributed.comm_s_max", "s", Lower),
    measured("distributed.local_s_max", "s", Lower),
    measured("distributed.imbalance", "ratio", Lower),
    exact("distributed.edges", "count", Lower),
    exact("distributed.remote_edges", "count", Lower),
    measured("distributed.cpu_over_local", "ratio", Lower),
    measured("distributed.cache_gain_modeled", "ratio", Higher),
    measured("distributed.scaling_eff_r2_r8", "ratio", Higher),
    exact("jaccard.edges", "count", Lower),
    measured("jaccard.compute_s_max", "s", Lower),
    measured("service.submit_ns", "ns", Lower),
    measured("service.run_batch_ms", "ms", Lower),
    exact("service.dedup_ratio", "ratio", Higher),
    exact("service.rows_per_query", "ratio", Lower),
    exact("service.batches", "count", Lower),
    exact("service.shed", "count", Lower),
    exact("service.failed", "count", Lower),
    measured("service.virtual_p50_ms", "ms", Lower),
    measured("service.virtual_p99_ms", "ms", Lower),
    measured("trace.overhead_pct", "%", Lower),
    measured("trace.coverage_pct", "%", Higher),
];

/// The text of `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.label(),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.label()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
    }

    #[test]
    fn units_whys_and_bounds_are_within_the_contract() {
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit));
        for unit in units {
            assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
            assert!(
                unit.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(manifest_json().len() < 64 * 1024);
    }
}
