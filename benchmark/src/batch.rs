//! The three batch workloads: one timed repetition is one `run_partitioned`
//! call on a graph partitioned once, and every repetition's answer is checked
//! against a reference before it counts.

use crate::host;
use crate::inputs::{Built, Rng, Workload};
use crate::report::Metrics;
use rmatc::clampi::CacheStats;
use rmatc::core::jaccard::EdgeSimilarity;
use rmatc::prelude::*;
use rmatc::rma::RankStats;
use std::time::Instant;

/// Seeded edges of a Jaccard answer that are recomputed directly.
const SPOT_CHECKS: usize = 1_000;

/// What every repetition must reproduce: the plain single-thread
/// `LocalLcc` run of the same graph.
pub struct Reference {
    pub triangles: u64,
    pub lcc: Vec<f64>,
    /// Wall time of the sequential run — the baseline `cpu_over_local`
    /// divides by.
    pub seq_s: f64,
}

impl Reference {
    /// `wrong` is the test-only hook behind `--wrong-reference`: it shifts
    /// the expected triangle count so every comparison must fail.
    pub fn compute(g: &CsrGraph, wrong: bool) -> Self {
        let config = LocalConfig::sequential()
            .with_storage(GraphStorage::Plain)
            .with_cost_model(CostModel::Analytic);
        let start = Instant::now();
        let local = LocalLcc::new(config).run(g);
        let seq_s = start.elapsed().as_secs_f64();
        Self {
            triangles: local.triangle_count + u64::from(wrong),
            lcc: local.lcc,
            seq_s,
        }
    }
}

/// `|a ∩ b|` of two sorted, duplicate-free lists by plain two-pointer merge —
/// the benchmark's own kernel, independent of the library's.
pub fn merge_count(a: &[u32], b: &[u32]) -> u64 {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// Whether a similarity record equals the direct computation on the CSR.
pub fn similarity_is_right(g: &CsrGraph, e: &EdgeSimilarity) -> bool {
    let (adj_u, adj_v) = (g.neighbours(e.source), g.neighbours(e.destination));
    let common = merge_count(adj_u, adj_v);
    let union = (adj_u.len() + adj_v.len()) as u64 - common;
    let jaccard = if union == 0 {
        0.0
    } else {
        common as f64 / union as f64
    };
    e.common_neighbours == common && (e.jaccard - jaccard).abs() <= 1e-12
}

/// The answer of one repetition.
pub enum Output {
    Lcc(DistResult),
    Jaccard(JaccardResult),
}

/// Host and modeled cost of one repetition, and whether its answer was right.
pub struct Rep {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub modeled_s: f64,
    pub ok: bool,
    pub output: Output,
}

fn rank_totals_ns(output: &Output) -> Vec<f64> {
    match output {
        Output::Lcc(r) => r.ranks.iter().map(|rank| rank.timing.total_ns()).collect(),
        Output::Jaccard(r) => r
            .compute_ns
            .iter()
            .zip(&r.rank_stats)
            .map(|(&compute, s)| compute as f64 + s.comm_time_ns + s.local_time_ns)
            .collect(),
    }
}

/// One workload bound to its inputs.
pub struct Runner<'a> {
    pub workload: Workload,
    pub built: &'a Built,
    reference: &'a Reference,
    spot_edges: Vec<usize>,
}

impl<'a> Runner<'a> {
    pub fn new(workload: Workload, built: &'a Built, reference: &'a Reference, seed: u64) -> Self {
        let mut rng = Rng::new(seed ^ 0x5eed_ed9e);
        let m = built.g.edge_count();
        let spot_edges = (0..SPOT_CHECKS.min(m as usize))
            .map(|_| rng.below(m) as usize)
            .collect();
        Self {
            workload,
            built,
            reference,
            spot_edges,
        }
    }

    /// Directed edges one repetition processes.
    pub fn edges(&self) -> u64 {
        self.built.g.edge_count()
    }

    /// One repetition of the workload's own configuration.
    pub fn rep(&self) -> Rep {
        let cfg = crate::inputs::dist_config(self.workload, &self.built.g, self.workload.ranks());
        self.rep_with(cfg, &self.built.pg)
    }

    /// One timed, verified `run_partitioned` call under `cfg` on `pg`.
    pub fn rep_with(&self, cfg: DistConfig, pg: &PartitionedGraph) -> Rep {
        let cpu = host::process_cpu_s();
        let start = Instant::now();
        let output = match self.workload {
            Workload::JaccardCompressed => {
                Output::Jaccard(DistJaccard::new(cfg).run_partitioned(pg))
            }
            _ => Output::Lcc(DistLcc::new(cfg).run_partitioned(pg)),
        };
        let wall_s = start.elapsed().as_secs_f64();
        let cpu_s = host::process_cpu_s() - cpu;
        // The paper's "longest-running node": measured per-rank compute plus
        // modeled communication and local reads, max over ranks.
        let modeled_s = rank_totals_ns(&output).into_iter().fold(0.0, f64::max) * 1e-9;
        Rep {
            wall_s,
            cpu_s,
            modeled_s,
            ok: self.verify(&output),
            output,
        }
    }

    fn verify(&self, output: &Output) -> bool {
        let g = &self.built.g;
        match output {
            Output::Lcc(r) => {
                r.triangle_count == self.reference.triangles
                    && r.lcc.len() == self.reference.lcc.len()
                    && r.lcc
                        .iter()
                        .zip(&self.reference.lcc)
                        .all(|(a, b)| (a - b).abs() <= 1e-12)
            }
            Output::Jaccard(r) => {
                // One entry per directed edge, in CSR order; every triangle
                // is a common neighbour of its three edges in both directions.
                let common: u64 = r.edges.iter().map(|e| e.common_neighbours).sum();
                r.edges.len() as u64 == g.edge_count()
                    && common == 6 * self.reference.triangles
                    && r.edges
                        .iter()
                        .zip(g.edges())
                        .all(|(e, (u, v))| (e.source, e.destination) == (u, v))
                    && self
                        .spot_edges
                        .iter()
                        .all(|&i| similarity_is_right(g, &r.edges[i]))
            }
        }
    }
}

fn secs(ns: f64) -> f64 {
    ns * 1e-9
}

/// The per-layer counters one run's result exposes.
pub fn layer_counts(output: &Output, built: &Built, layer: &mut Metrics) {
    let totals = rank_totals_ns(output);
    let mean = totals.iter().sum::<f64>() / totals.len() as f64;
    let max = totals.iter().copied().fold(0.0, f64::max);
    layer.set(
        "distributed.imbalance",
        if mean == 0.0 { 1.0 } else { max / mean },
    );
    let max_of = |values: &mut dyn Iterator<Item = f64>| values.fold(0.0, f64::max);
    let mut rma = RankStats::new(totals.len());
    match output {
        Output::Lcc(r) => {
            for rank in &r.ranks {
                rma.merge(&rank.rma);
            }
            let timings = || r.ranks.iter().map(|rank| &rank.timing);
            layer.set(
                "distributed.compute_s_max",
                secs(max_of(&mut timings().map(|t| t.compute_ns))),
            );
            layer.set(
                "distributed.comm_s_max",
                secs(max_of(&mut timings().map(|t| t.comm_ns))),
            );
            layer.set(
                "distributed.local_s_max",
                secs(max_of(&mut timings().map(|t| t.local_ns))),
            );
            let edges: u64 = r.ranks.iter().map(|rank| rank.edges_processed).sum();
            let remote: u64 = r.ranks.iter().map(|rank| rank.remote_edges).sum();
            layer.set("distributed.edges", edges as f64);
            layer.set("distributed.remote_edges", remote as f64);
            cache_counts(
                r.adjacency_cache_totals().as_ref(),
                r.offsets_cache_totals().as_ref(),
                layer,
            );
        }
        Output::Jaccard(r) => {
            for stats in &r.rank_stats {
                rma.merge(stats);
            }
            let compute = max_of(&mut r.compute_ns.iter().map(|&ns| ns as f64));
            layer.set("distributed.compute_s_max", secs(compute));
            layer.set("jaccard.compute_s_max", secs(compute));
            layer.set(
                "distributed.comm_s_max",
                secs(max_of(&mut r.rank_stats.iter().map(|s| s.comm_time_ns))),
            );
            layer.set(
                "distributed.local_s_max",
                secs(max_of(&mut r.rank_stats.iter().map(|s| s.local_time_ns))),
            );
            let edges = r.edges.len() as f64;
            layer.set("distributed.edges", edges);
            layer.set("jaccard.edges", edges);
            // `JaccardResult` carries neither remote-edge nor cache counters;
            // the partition gives the former, the clampi probe the latter.
            layer.set(
                "distributed.remote_edges",
                (built.pg.remote_edge_fraction() * edges).round(),
            );
        }
    }
    rma_counts(&rma, layer);
}

/// `rma.*` run counters from merged rank statistics.
pub fn rma_counts(rma: &RankStats, layer: &mut Metrics) {
    layer.set("rma.gets", rma.gets as f64);
    layer.set("rma.bytes", rma.bytes as f64);
    layer.set("rma.comm_s", secs(rma.comm_time_ns));
    layer.set("rma.overlapped_s", secs(rma.overlapped_ns));
    layer.set("rma.local_reads", rma.local_reads as f64);
    layer.set("rma.retries", rma.retries as f64);
}

/// `clampi.*` run counters from the merged cache statistics of a run.
pub fn cache_counts(adj: Option<&CacheStats>, off: Option<&CacheStats>, layer: &mut Metrics) {
    let both = |f: fn(&CacheStats) -> u64| (adj.map_or(0, f) + off.map_or(0, f)) as f64;
    layer.set("clampi.adj_hit_rate", adj.map_or(0.0, CacheStats::hit_rate));
    layer.set("clampi.off_hit_rate", off.map_or(0.0, CacheStats::hit_rate));
    layer.set("clampi.evictions", both(CacheStats::evictions));
    layer.set("clampi.bytes_from_network", both(|c| c.bytes_from_network));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{build, Sizing};
    use crate::trace::Trace;

    #[test]
    fn merge_count_counts_common_elements() {
        assert_eq!(merge_count(&[1, 3, 5, 7], &[3, 4, 5, 8]), 2);
        assert_eq!(merge_count(&[], &[1]), 0);
        assert_eq!(merge_count(&[2, 4], &[2, 4]), 2);
    }

    #[test]
    fn every_batch_workload_verifies_and_a_wrong_reference_fails_it() {
        let sizing = Sizing {
            batch_scale: 9,
            ..Sizing::quick()
        };
        for w in [
            Workload::LccCached,
            Workload::LccNonCached,
            Workload::JaccardCompressed,
        ] {
            let built = build(w, 7, &sizing, &mut Trace::new(false), 0);
            let right = Reference::compute(&built.g, false);
            let rep = Runner::new(w, &built, &right, 7).rep();
            assert!(rep.ok, "{w:?}");
            assert!(rep.wall_s > 0.0 && rep.cpu_s > 0.0 && rep.modeled_s > 0.0);
            let wrong = Reference::compute(&built.g, true);
            assert!(!Runner::new(w, &built, &wrong, 7).rep().ok, "{w:?}");
        }
    }
}
