//! Figure 8 — original (LRU + positional) vs application-defined (degree centrality)
//! eviction scores, on an R-MAT graph, with C_adj capped at 25% of each rank's
//! non-local partition so that evictions actually happen.
//!
//! Paper reference: degree-centrality scores improve caching performance by
//! 14.4%–35.6% for this dataset.

use rmatc_bench::{experiment_scale, fmt_ns, ranks_small_scale, seed, Table};
use rmatc_clampi::ScorePolicy;
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
    let g = RmatGenerator::paper(log_n, 16)
        .generate_cleaned(seed)
        .into_csr();
    let adj_bytes = g.edge_count() as f64 * 4.0;

    let mut table = Table::new(
        "Figure 8: LRU/positional vs degree-centrality eviction scores",
        &[
            "ranks",
            "avg remote read (LRU)",
            "avg remote read (degree)",
            "improvement",
            "miss rate (LRU)",
            "miss rate (degree)",
            "compulsory",
        ],
    );
    for ranks in ranks_small_scale() {
        // 25% of the non-local partition: each rank's remote data is (p-1)/p of the
        // adjacency array; the cache gets a quarter of that.
        let non_local = adj_bytes * (ranks as f64 - 1.0) / ranks as f64;
        let capacity = (0.25 * non_local) as usize;
        let run = |scoring| {
            let mut cfg = DistConfig::non_cached(ranks);
            cfg.cache = Some(CacheSpec {
                scoring,
                ..CacheSpec::paper(capacity)
            });
            DistLcc::new(cfg).run(&g)
        };
        let lru = run(ScorePolicy::LruPositional);
        let degree = run(ScorePolicy::ApplicationScore);
        let lru_read = lru
            .ranks
            .iter()
            .map(|r| r.avg_remote_read_ns())
            .sum::<f64>()
            / lru.ranks.len() as f64;
        let deg_read = degree
            .ranks
            .iter()
            .map(|r| r.avg_remote_read_ns())
            .sum::<f64>()
            / degree.ranks.len() as f64;
        let lru_stats = lru.adjacency_cache_totals().expect("cache enabled");
        let deg_stats = degree.adjacency_cache_totals().expect("cache enabled");
        table.row(vec![
            ranks.to_string(),
            fmt_ns(lru_read),
            fmt_ns(deg_read),
            format!("{:.1}%", 100.0 * (1.0 - deg_read / lru_read)),
            format!("{:.3}", lru_stats.miss_rate()),
            format!("{:.3}", deg_stats.miss_rate()),
            format!("{:.3}", deg_stats.compulsory_miss_rate()),
        ]);
    }
    table.print();
    println!(
        "Expected shape from the paper: degree-centrality scores reduce the adjacency-cache \
         miss rate and the average remote-read time (14.4%–35.6% in the paper) as long as the \
         cache is under pressure; the compulsory-miss floor (grey area in the figure) grows \
         with the rank count."
    );
}
