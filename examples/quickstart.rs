//! Quickstart: build a graph, compute LCC locally, then distribute it over
//! simulated ranks with and without RMA caching, and compare.
//!
//! Run with: `cargo run --release --example quickstart`

use rmatc::prelude::*;

fn main() {
    // 1. Build a scale-free graph with the paper's R-MAT parameters
    //    (a = 0.57, b = c = 0.19, d = 0.05), cleaned and in CSR form.
    let graph = RmatGenerator::paper(12, 16).generate_cleaned(42).into_csr();
    println!(
        "Graph: {} vertices, {} undirected edges, CSR size {} bytes",
        graph.vertex_count(),
        graph.logical_edge_count(),
        graph.csr_size_bytes()
    );

    // 2. Shared-memory computation (the per-node kernel of the paper).
    let local = LocalLcc::new(LocalConfig::parallel(4)).run(&graph);
    println!(
        "Shared memory: {} triangles, average LCC {:.4}, {:.3} edges/µs",
        local.triangle_count,
        local.average_lcc(),
        local.edges_per_us()
    );

    // 3. Fully asynchronous distributed computation on 8 simulated ranks,
    //    without caching.
    let non_cached = DistLcc::new(DistConfig::non_cached(8)).run(&graph);
    println!(
        "Distributed (8 ranks, no cache): {} triangles, {} RMA gets, {:.1} MiB moved, \
         modeled running time {:.1} ms",
        non_cached.triangle_count,
        non_cached.total_gets(),
        non_cached.total_bytes() as f64 / (1024.0 * 1024.0),
        non_cached.max_rank_time_ns() / 1e6
    );

    // 4. The same computation with CLaMPI caching of the adjacency window,
    //    degree-centrality eviction scores and each owner's offsets copied once.
    let cache_budget = graph.csr_size_bytes() as usize / 2;
    let cached = DistLcc::new(DistConfig::cached(8, cache_budget).with_degree_scores()).run(&graph);
    let adj_stats = cached
        .adjacency_cache_totals()
        .expect("adjacency cache enabled");
    println!(
        "Distributed (8 ranks, cached):   {} triangles, {} RMA gets, hit rate {:.1}%, \
         modeled running time {:.1} ms",
        cached.triangle_count,
        cached.total_gets(),
        100.0 * adj_stats.hit_rate(),
        cached.max_rank_time_ns() / 1e6
    );

    // 5. The three implementations must agree exactly.
    assert_eq!(local.triangle_count, non_cached.triangle_count);
    assert_eq!(local.triangle_count, cached.triangle_count);
    println!(
        "Caching removed {:.1}% of the remote gets and {:.1}% of the modeled communication time.",
        100.0 * (1.0 - cached.total_gets() as f64 / non_cached.total_gets() as f64),
        100.0 * (1.0 - cached.max_comm_time_ns() / non_cached.max_comm_time_ns())
    );
}
