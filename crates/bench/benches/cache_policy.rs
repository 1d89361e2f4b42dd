//! Figure 8's comparison as a trace replay: both of CLaMPI's score rules
//! replay the same skewed, hub-heavy adjacency-access trace through an
//! identically sized cache, so the recorded hit rates and byte churn differ
//! only by the score victim selection weighs. `paper_score` is CLaMPI's
//! default LRU + positional score; `paper_score_degree` adds the vertex
//! degree as the application-defined score, the paper's §III-B extension.
//!
//! The trace models the LCC access pattern that motivates the paper's cache
//! (§IV): remote row reads are degree-weighted (hubs are re-read once per
//! incident edge), interleaved with full sweeps over the vertex set (every
//! rank eventually walks all of its edge endpoints). Sweeps are exactly the
//! adversary of recency-only eviction — each one flushes the hot hub set out
//! of an LRU-like cache — while degree scores keep the hubs resident.
//!
//! Besides replay timings, the bench records deterministic *metric* rows via
//! `report_metric` — `missrate_ppm` (cache miss rate, parts per million) and
//! `net_bytes_per_lookup` (network bytes fetched per access) — which land in
//! `BENCH_cache_policy.json` / `bench-history/cache_policy.ndjson` and are
//! gated by `bench-diff` at the default tight threshold: the trace and the
//! cache are deterministic, so any drift is a behaviour change.
//!
//! The bench also hard-asserts Figure 8's shape: the degree-scored miss rate
//! is strictly below the positional one.

use criterion::{criterion_group, criterion_main, Criterion};
use rmatc_clampi::{Clampi, ClampiConfig, EntryKey};
use rmatc_graph::gen::{GraphGenerator, RmatGenerator};
use rmatc_graph::CsrGraph;
use rmatc_rma::WindowId;

/// Accesses between full vertex sweeps.
const HOT_DRAWS_PER_PHASE: usize = 3_000;
/// Number of (hot phase, sweep) rounds in the trace.
const ROUNDS: usize = 8;

/// One access: the vertex whose adjacency row is read.
type Trace = Vec<u32>;

/// Degree-weighted hot draws interleaved with full sequential sweeps,
/// deterministic via xorshift64*. A uniformly random adjacency-array
/// position names its target vertex, so hubs are drawn in proportion to
/// in-degree; taking the higher-degree of two such draws squares the skew
/// (power-of-two-choices), concentrating the hot set the way the LCC's
/// degree-ordered remote reads concentrate on hubs.
fn build_trace(g: &CsrGraph) -> Trace {
    let adj = g.adjacencies();
    let n = g.vertex_count() as u32;
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_f491_4f6c_dd1d)
    };
    let mut trace = Vec::with_capacity(ROUNDS * (HOT_DRAWS_PER_PHASE + n as usize));
    for _ in 0..ROUNDS {
        for _ in 0..HOT_DRAWS_PER_PHASE {
            let a = adj[(next() % adj.len() as u64) as usize];
            let b = adj[(next() % adj.len() as u64) as usize];
            trace.push(if g.degree(a) >= g.degree(b) { a } else { b });
        }
        trace.extend(0..n);
    }
    trace
}

/// Replays the trace through one cache: lookup, and on miss insert the row
/// with the vertex degree as its user score (only the application-score rule
/// reads it). Returns the cache for its final stats.
fn replay(g: &CsrGraph, trace: &Trace, config: ClampiConfig) -> Clampi<u32> {
    let mut cache: Clampi<u32> = Clampi::new(config);
    for &v in trace {
        let row = g.neighbours(v);
        let key = EntryKey::new(
            WindowId(0),
            1,
            g.offsets()[v as usize] as usize * 4,
            row.len(),
        );
        if cache.lookup(key).is_none() {
            cache.insert(key, row.to_vec(), g.degree(v) as f64);
        }
    }
    cache
}

/// The two score rules: a display name plus the cache configuration.
fn contenders(capacity: usize, slots: usize) -> [(&'static str, ClampiConfig); 2] {
    let positional = ClampiConfig::always_cache(capacity, slots);
    [
        ("paper_score", positional),
        ("paper_score_degree", positional.with_application_scores()),
    ]
}

fn bench_cache_policy(c: &mut Criterion) {
    let g = RmatGenerator::paper(10, 12).generate_cleaned(42).into_csr();
    let trace = build_trace(&g);
    // Half the adjacency bytes: the sweeps cannot fit (so recency-only
    // eviction cycles the whole cache every round), but the concentrated hub
    // set can stay resident for a score that chooses to keep it.
    let capacity = (g.edge_count() as usize * 4) / 2;
    let slots = 1 << 10;

    // Deterministic metric rows first, so they are recorded even when the
    // timing filter skips the replay functions.
    let mut miss_rates = std::collections::BTreeMap::new();
    for (name, config) in contenders(capacity, slots) {
        let cache = replay(&g, &trace, config);
        let stats = cache.stats();
        miss_rates.insert(name, stats.miss_rate());
        c.report_metric(
            "cache_policy",
            format!("missrate_ppm/{name}"),
            (stats.miss_rate() * 1e6).round(),
        );
        c.report_metric(
            "cache_policy",
            format!("net_bytes_per_lookup/{name}"),
            (stats.bytes_from_network as f64 / stats.lookups() as f64).round(),
        );
    }

    // Figure 8's shape: on a hub-heavy trace with sweeps, degree scores
    // keep the hot set resident, so they miss strictly less than the
    // positional score.
    let (degree, positional) = (miss_rates["paper_score_degree"], miss_rates["paper_score"]);
    assert!(
        degree < positional,
        "degree-scored miss rate ({degree:.4}) is not below the positional one ({positional:.4})"
    );

    let mut group = c.benchmark_group("cache_policy");
    group.sample_size(10);
    for (name, config) in contenders(capacity, slots) {
        group.bench_function(format!("replay/{name}"), |b| {
            b.iter_batched(
                || config,
                |config| replay(&g, &trace, config),
                criterion::BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_cache_policy
}
criterion_main!(benches);
