//! Load generator for the resident query service ([`rmatc_core::service`]):
//! a skewed, hub-heavy query mix driven at volume through one long-lived
//! [`QueryEngine`], the serving workload the eviction-policy and compression
//! work was built to win on.
//!
//! The mix draws pair queries degree-weighted with power-of-two-choices (a
//! uniformly random adjacency position names its row, the higher-degree of
//! two draws wins), so hub rows recur across and *within* batch windows —
//! exactly what the batch planner's sort/dedup and the warm CLaMPI cache
//! exploit.
//!
//! Deterministic metric rows land in `BENCH_service.json` /
//! `bench-history/service.ndjson`:
//!
//! * `dedup_ratio_x1000` — requested reads per unique fetch inside batch
//!   windows (×1000); gated at the tight default threshold, and hard-asserted
//!   `> 1.0` here: the hub-heavy mix must produce overlapping reads.
//! * `missrate_ppm` — adjacency-cache miss rate over the whole stream; tight
//!   default gate (the stream and the cache are deterministic).
//! * `p50_ns` / `p99_ns` — virtual-time latency percentiles. The virtual
//!   clock includes *measured* compute time, so these get wide `bench-diff`
//!   thresholds like the wall-time rows.

use criterion::{criterion_group, criterion_main, Criterion};
use rmatc_core::{DistConfig, Query, QueryEngine, ServiceConfig};
use rmatc_graph::gen::{GraphGenerator, RmatGenerator};
use rmatc_graph::CsrGraph;

/// Queries in the deterministic metric drive.
const METRIC_QUERIES: usize = 4_000;
/// Queries per timed drive iteration (smaller: it runs `sample_size` times).
const TIMED_QUERIES: usize = 1_000;
const RANKS: usize = 4;
const BATCH: usize = 64;

/// The hub-heavy mix: 40% Jaccard and 20% common-neighbour pair queries on
/// degree-weighted edges (power-of-two-choices on the source row), 20% top-k
/// around hub sources, 20% LCC of uniform vertices. Deterministic xorshift64*.
fn hub_mix(g: &CsrGraph, count: usize) -> Vec<Query> {
    let adj = g.adjacencies();
    let offsets = g.offsets();
    let n = g.vertex_count() as u64;
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_f491_4f6c_dd1d)
    };
    let hub_edge = move |next: &mut dyn FnMut() -> u64| {
        let pa = next() % adj.len() as u64;
        let pb = next() % adj.len() as u64;
        let src = |pos: u64| (offsets.partition_point(|&o| o <= pos) - 1) as u32;
        let (ua, ub) = (src(pa), src(pb));
        if g.degree(ua) >= g.degree(ub) {
            (ua, adj[pa as usize])
        } else {
            (ub, adj[pb as usize])
        }
    };
    (0..count)
        .map(|_| match next() % 10 {
            0..=3 => {
                let (u, v) = hub_edge(&mut next);
                Query::Jaccard { u, v }
            }
            4 | 5 => {
                let (u, v) = hub_edge(&mut next);
                Query::CommonNeighbors { u, v }
            }
            6 | 7 => {
                let (u, _) = hub_edge(&mut next);
                Query::TopK {
                    u,
                    k: (next() % 8) as usize,
                }
            }
            _ => Query::LccOf {
                v: (next() % n) as u32,
            },
        })
        .collect()
}

fn engine_config(g: &CsrGraph) -> ServiceConfig {
    // Half the CSR footprint: big enough to keep the hub set resident, small
    // enough that eviction actually runs.
    let dist = DistConfig::cached(RANKS, (g.csr_size_bytes() / 2) as usize).with_degree_scores();
    ServiceConfig::new(dist)
        .with_batch_size(BATCH)
        .with_queue_capacity(BATCH)
}

/// Drives `queries` through a fresh resident engine in full batch windows.
fn drive(g: &CsrGraph, queries: &[Query]) -> QueryEngine {
    let mut engine =
        QueryEngine::new(g, engine_config(g)).expect("RANKS partition the bench graph");
    for chunk in queries.chunks(BATCH) {
        for &q in chunk {
            engine.submit(q).expect("chunks stay within capacity");
        }
        let responses = engine.drain();
        assert!(responses.iter().all(|r| r.result.is_ok()));
    }
    engine
}

fn bench_service(c: &mut Criterion) {
    let g = RmatGenerator::paper(10, 12).generate_cleaned(42).into_csr();

    // Deterministic metric drive first (recorded even when the timing filter
    // skips the timed functions).
    let engine = drive(&g, &hub_mix(&g, METRIC_QUERIES));
    let stats = engine.stats();
    assert_eq!(stats.completed, METRIC_QUERIES as u64);
    assert!(stats.reconciles());
    let dedup = stats.dedup_ratio();
    assert!(
        dedup > 1.0,
        "hub-heavy batches must contain overlapping reads (got {dedup:.3})"
    );
    c.report_metric("service", "dedup_ratio_x1000", (dedup * 1000.0).round());
    c.report_metric(
        "service",
        "missrate_ppm",
        stats.adjacency_cache.as_ref().unwrap().miss_rate_ppm() as f64,
    );
    c.report_metric("service", "p50_ns", stats.virtual_latency.p50_ns.round());
    c.report_metric("service", "p99_ns", stats.virtual_latency.p99_ns.round());

    let mut group = c.benchmark_group("service");
    group.sample_size(10);
    let timed_mix = hub_mix(&g, TIMED_QUERIES);
    group.bench_function("drive/hub_mix", |b| b.iter(|| drive(&g, &timed_mix)));
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_service
}
criterion_main!(benches);
