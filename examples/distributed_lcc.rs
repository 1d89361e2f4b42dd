//! The distributed pipeline end to end, with every knob spelled out: rank
//! setup and partitioning, the CLaMPI adjacency cache (`CacheSpec::paper`)
//! with offsets read by span, degree-centrality eviction scores, double
//! buffering, and the full per-rank statistics report (timing breakdown, RMA
//! counters, cache statistics).
//!
//! Run with: `cargo run --release --example distributed_lcc`

use rmatc::prelude::*;

fn main() {
    // -- Graph -------------------------------------------------------------
    // Scale 13 R-MAT with the paper's skew (a = 0.57, b = c = 0.19,
    // d = 0.05), edge factor 16; self-loops and duplicates removed.
    let graph = RmatGenerator::paper(13, 16).generate_cleaned(7).into_csr();
    println!(
        "Graph: 2^13 = {} vertices, {} undirected edges ({} bytes of CSR)\n",
        graph.vertex_count(),
        graph.logical_edge_count(),
        graph.csr_size_bytes()
    );

    // -- Rank setup --------------------------------------------------------
    // 8 simulated ranks, each owning a contiguous block of vertices and the
    // CSR rows of exactly those vertices (the paper's 1D block scheme —
    // `PartitionScheme::BalancedBlock1D` would draw degree-balanced
    // boundaries instead). Every rank runs as a thread over a shared
    // passive-target RMA window pair, with no synchronization whatsoever
    // between ranks during the computation.
    let ranks = 8;

    // -- Cache configuration -----------------------------------------------
    // `CacheSpec::paper` gives the budget to C_adj, the CLaMPI cache of the
    // adjacency window. The cached configuration reads each source's (start,
    // end) offsets pairs in spans — one get per run of remote neighbours on a
    // rank, split where a gap costs more bytes than a get — instead of caching
    // them. Degree-centrality scores protect high-degree (high-reuse) rows
    // from eviction — the paper's CLaMPI extension.
    let budget = graph.csr_size_bytes() as usize / 2;
    let config = DistConfig {
        ranks,
        scheme: PartitionScheme::Block1D,
        method: IntersectMethod::Hybrid,
        cost_model: CostModel::Analytic,
        network: NetworkModel::aries(),
        double_buffering: true,
        cache: Some(CacheSpec::paper(budget).with_degree_scores()),
        // The self-healing read path: up to 4 attempts per get with exponential
        // backoff. With `faults: None` no fault is ever injected and the policy
        // is never exercised — it exists so chaos tests can flip it on.
        retry: rmatc::prelude::RetryPolicy::default(),
        faults: None,
        pipeline_depth: 1,
        // Plain adjacency windows; `GraphStorage::Compressed` (or
        // `RMATC_STORAGE=compressed`) would transfer and cache delta/varint
        // rows instead, with bit-identical scores.
        storage: GraphStorage::from_env(),
        // Every other field at the non-cached defaults.
        ..DistConfig::non_cached(ranks)
    };

    // -- Run ---------------------------------------------------------------
    let result = DistLcc::new(config).run(&graph);
    println!(
        "{} triangles, average LCC {:.4}, {:.1}% of edges remote\n",
        result.triangle_count,
        result.average_lcc(),
        100.0 * result.remote_edge_fraction
    );

    // -- Per-rank reports --------------------------------------------------
    // The paper reports the median over the longest-running node; the same
    // per-rank numbers drive Figures 7-10.
    println!("rank  edges     remote    gets      comm(ms)  overlap(ms)  adj-hit%");
    for rank in &result.ranks {
        let adj_hit = rank
            .adjacency_cache
            .as_ref()
            .map(|c| 100.0 * c.hit_rate())
            .unwrap_or(0.0);
        println!(
            "{:>4}  {:>8}  {:>8}  {:>8}  {:>8.2}  {:>11.2}  {:>7.1}",
            rank.rank,
            rank.edges_processed,
            rank.remote_edges,
            rank.rma.gets,
            rank.timing.comm_ns / 1e6,
            rank.timing.overlapped_ns / 1e6,
            adj_hit
        );
    }

    // -- Aggregated cache statistics ----------------------------------------
    // Every get that is not a C_adj miss is an offsets span.
    let adj = result.adjacency_cache_totals().expect("C_adj enabled");
    let remote: u64 = result.ranks.iter().map(|r| r.remote_edges).sum();
    let spans = result.total_gets() - adj.misses;
    println!(
        "\nC_adj: {:.1}% hits, {:.1}% compulsory-miss floor, {} evictions",
        100.0 * adj.hit_rate(),
        100.0 * adj.compulsory_miss_rate(),
        adj.evictions()
    );
    println!(
        "Offsets: {spans} span gets for {remote} remote edges ({:.1} edges per get)",
        remote as f64 / spans.max(1) as f64
    );
    println!(
        "Longest rank: {:.1} ms modeled ({:.1}% communication), imbalance {:.2}x",
        result.max_rank_time_ns() / 1e6,
        100.0
            * result
                .ranks
                .iter()
                .map(|r| r.timing.comm_fraction())
                .fold(0.0, f64::max),
        result.time_imbalance()
    );
}
