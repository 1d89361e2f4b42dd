//! Figure 7 — cache behaviour as a function of the cache size, for an R-MAT graph
//! with 2^20 vertices and 2^24 edges distributed over two compute nodes.
//!
//! The paper enables caching on one window at a time and sweeps the cache size:
//! the offsets cache shows a *linear* relationship between size and miss rate
//! (fixed-size entries, reuse independent of entry size), while the adjacency cache
//! shows a *power-law* relationship (a few huge, hot entries) — already a small
//! C_adj saves ~30% of the communication time, 51.6% at full size in the paper.
//!
//! Deliberate deviation: only the right-hand (adjacency) panels are reproduced.
//! This reproduction has no offsets cache — a rank reads each other owner's
//! whole offsets window with one get the first time it needs a row there and
//! keeps the copy — so the left-hand panels have nothing to sweep. Those
//! `p − 1` window reads are part of every row below.

use rmatc_bench::{experiment_scale, fmt_ms, seed, Table};
use rmatc_core::{CacheSpec, DistConfig, DistLcc};
use rmatc_graph::datasets::DatasetScale;
use rmatc_graph::gen::{GraphGenerator, RmatGenerator};

fn main() {
    let scale = experiment_scale();
    let seed = seed();
    let log_n = match scale {
        DatasetScale::Tiny => 12,
        DatasetScale::Small => 15,
        DatasetScale::Medium => 18,
    };
    // The paper's instance is scale 20 with edge factor 16 (2^24 edges).
    let g = RmatGenerator::paper(log_n, 16)
        .generate_cleaned(seed)
        .into_csr();
    let ranks = 2;
    let n = g.vertex_count();
    let adj_bytes = g.edge_count() as usize * 4;

    let baseline = DistLcc::new(DistConfig::non_cached(ranks)).run(&g);
    let baseline_comm = baseline.max_comm_time_ns();
    println!(
        "R-MAT S{log_n} EF16 stand-in: |V| = {n}, |E| = {}, two ranks; non-cached \
         communication time {} ms.\n",
        g.logical_edge_count(),
        fmt_ms(baseline_comm)
    );

    let fractions = [0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0];

    let mut adj_table = Table::new(
        "Figure 7 (right): adjacency cache — communication time and miss rate",
        &[
            "relative size",
            "capacity",
            "comm time (ms)",
            "vs non-cached",
            "miss rate",
            "compulsory",
        ],
    );
    for &f in &fractions {
        let capacity = ((adj_bytes as f64) * f) as usize;
        let mut cfg = DistConfig::non_cached(ranks);
        cfg.cache = Some(CacheSpec::paper(capacity));
        let result = DistLcc::new(cfg).run(&g);
        let stats = result
            .adjacency_cache_totals()
            .expect("adjacency cache enabled");
        adj_table.row(vec![
            format!("{f:.2}"),
            format!("{:.1} KiB", capacity as f64 / 1024.0),
            fmt_ms(result.max_comm_time_ns()),
            format!(
                "{:.1}%",
                100.0 * (1.0 - result.max_comm_time_ns() / baseline_comm)
            ),
            format!("{:.3}", stats.miss_rate()),
            format!("{:.3}", stats.compulsory_miss_rate()),
        ]);
    }
    adj_table.print();
    println!(
        "Expected shape from the paper: the adjacency-cache miss rate falls steeply at small \
         sizes (power-law reuse), and most of the communication-time reduction comes from \
         C_adj (51.6% at full size in the paper)."
    );
}
