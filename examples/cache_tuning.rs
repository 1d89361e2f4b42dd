//! Tuning the CLaMPI caches for a distributed LCC run: sweep the cache budget and
//! the eviction-score mode, and report where the communication savings saturate —
//! the practical workflow behind Figures 7 and 8 of the paper.
//!
//! Run with: `cargo run --release --example cache_tuning`

use rmatc::prelude::*;

fn main() {
    let graph = Dataset::LiveJournal.generate(DatasetScale::Tiny, 3);
    let ranks = 8;
    println!(
        "Graph: LiveJournal stand-in, {} vertices, {} edges, CSR {} bytes, {} ranks\n",
        graph.vertex_count(),
        graph.logical_edge_count(),
        graph.csr_size_bytes(),
        ranks
    );

    let baseline = DistLcc::new(DistConfig::non_cached(ranks)).run(&graph);
    println!(
        "non-cached: {} gets, modeled communication {:.1} ms",
        baseline.total_gets(),
        baseline.max_comm_time_ns() / 1e6
    );

    println!(
        "\n{:<22} {:>10} {:>12} {:>12} {:>10}",
        "configuration", "hit rate", "comm (ms)", "saved", "evictions"
    );
    let csr = graph.csr_size_bytes() as f64;
    for fraction in [0.05, 0.1, 0.25, 0.5, 1.0] {
        for (label, scoring) in [
            ("LRU", ScorePolicy::LruPositional),
            ("degree", ScorePolicy::ApplicationScore),
        ] {
            let budget = (csr * fraction) as usize;
            let mut config = DistConfig::cached(ranks, budget);
            config.cache = Some(CacheSpec {
                scoring,
                ..CacheSpec::paper(budget)
            });
            let result = DistLcc::new(config).run(&graph);
            assert_eq!(result.triangle_count, baseline.triangle_count);
            let stats = result.adjacency_cache_totals().expect("cache enabled");
            let saved = 1.0 - result.max_comm_time_ns() / baseline.max_comm_time_ns();
            println!(
                "{:<22} {:>9.1}% {:>12.1} {:>11.1}% {:>10}",
                format!("{:.0}% budget, {label}", fraction * 100.0),
                100.0 * stats.hit_rate(),
                result.max_comm_time_ns() / 1e6,
                100.0 * saved,
                stats.evictions()
            );
        }
    }

    println!(
        "\nReading the sweep: savings grow steeply while the adjacency cache still misses hot \
         hub vertices, then saturate once the working set fits; degree-centrality scores only \
         matter while the cache is under pressure (evictions > 0), exactly as in Figure 8."
    );
}
