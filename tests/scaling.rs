//! Integration tests of the scaling behaviour the evaluation section reports:
//! remote-edge growth, communication dominance, strong-scaling speedup of the
//! asynchronous algorithm, the relative cost of the TriC baseline on
//! scale-free graphs, Figure 7's adjacency-miss curve over cache budgets and
//! §IV-D's compulsory-miss share over rank counts.

use rmatc::prelude::*;
use rmatc_core::reuse;

fn skewed_graph() -> CsrGraph {
    RmatGenerator::paper(11, 16).generate_cleaned(33).into_csr()
}

#[test]
fn remote_edge_fraction_grows_with_rank_count() {
    let g = skewed_graph();
    let mut previous = 0.0;
    for ranks in [2usize, 4, 8, 16] {
        let pg = PartitionedGraph::from_global(&g, PartitionScheme::Block1D, ranks).unwrap();
        let fraction = pg.remote_edge_fraction();
        assert!(
            fraction >= previous,
            "remote fraction must not shrink with more ranks"
        );
        previous = fraction;
    }
    assert!(
        previous > 0.5,
        "at 16 ranks most edges should cross partitions"
    );
}

#[test]
fn communication_dominates_the_modeled_running_time() {
    // Section IV-D: already at 4 nodes, communication is ~79% of the running time
    // for the R-MAT graph, growing to ~98% at 64 nodes.
    let g = skewed_graph();
    let result = DistLcc::new(DistConfig::non_cached(8)).run(&g);
    let avg_comm_fraction: f64 = result
        .ranks
        .iter()
        .map(|r| r.timing.comm_fraction())
        .sum::<f64>()
        / result.ranks.len() as f64;
    assert!(
        avg_comm_fraction > 0.5,
        "communication should dominate on a skewed distributed graph ({avg_comm_fraction})"
    );
}

#[test]
fn asynchronous_lcc_strong_scales_on_the_modeled_cluster() {
    // Since the SIMD/galloping kernel upgrade, per-rank compute at this test
    // scale is small enough that the (non-cached) modeled communication
    // dominates from 2 ranks on, so the curve flattens earlier than the
    // paper's Figure 10 — scaling remains monotone and the wider 4 -> 32 span
    // still shows the speedup the property is about.
    let g = skewed_graph();
    let time = |ranks| {
        DistLcc::new(DistConfig::non_cached(ranks))
            .run(&g)
            .max_rank_time_ns()
    };
    let at_4 = time(4);
    let at_16 = time(16);
    let at_32 = time(32);
    assert!(
        at_16 < at_4 && at_32 < at_16,
        "modeled time must shrink monotonically with ranks ({at_4:.3e} -> {at_16:.3e} -> {at_32:.3e})"
    );
    // Per-quadrupling signal so a regression inside 4 -> 16 cannot hide
    // behind the wider span (measured ~1.4x with the SIMD/galloping kernels).
    let speedup_16 = at_4 / at_16;
    assert!(
        speedup_16 > 1.15,
        "expected measurable scaling from 4 to 16 ranks, measured speedup {speedup_16:.2}"
    );
    let speedup = at_4 / at_32;
    assert!(
        speedup > 1.5,
        "expected strong scaling from 4 to 32 ranks, measured speedup {speedup:.2}"
    );
}

#[test]
fn per_rank_gets_shrink_with_more_ranks() {
    let g = skewed_graph();
    let gets_per_rank = |ranks: usize| {
        let r = DistLcc::new(DistConfig::non_cached(ranks)).run(&g);
        r.total_gets() as f64 / ranks as f64
    };
    assert!(gets_per_rank(16) < gets_per_rank(4));
}

#[test]
fn tric_is_slower_than_async_on_hub_heavy_scale_free_graphs() {
    // Figure 9's headline comparison. TriC enumerates neighbour *pairs*, so its work
    // and traffic grow quadratically with the hub degree, while the asynchronous
    // algorithm reads each remote adjacency list once (linear). In the paper's
    // full-scale graphs the hubs have degrees in the tens of thousands, which is what
    // produces the up-to-100x gap; at test scale the same effect is made visible by
    // a social graph with one celebrity vertex adjacent to every other vertex (the
    // structure real scale-free graphs have relative to a partition's size).
    let n = 4_000usize;
    let mut el = BarabasiAlbert::new(n, 4).generate_cleaned(13);
    let celebrity_edges: Vec<(u32, u32)> = (1..el.vertex_count() as u32)
        .flat_map(|v| [(0u32, v), (v, 0u32)])
        .collect();
    el.extend(celebrity_edges);
    el.deduplicate();
    let g = el.into_csr();
    assert!(g.max_degree() as usize >= g.vertex_count() - 1);

    let asynchronous = DistLcc::new(DistConfig::non_cached(8)).run(&g);
    let tric = Tric::new(TricConfig::plain(8)).run(&g);
    assert_eq!(asynchronous.triangle_count, tric.triangle_count);
    assert!(
        tric.max_rank_time_ns() > asynchronous.max_rank_time_ns(),
        "TriC ({:.1} ms) should be slower than the asynchronous algorithm ({:.1} ms)",
        tric.max_rank_time_ns() / 1e6,
        asynchronous.max_rank_time_ns() / 1e6
    );
    assert!(tric.total_bytes() > asynchronous.total_bytes());
    assert!(tric.total_queries() > asynchronous.total_gets());
}

#[test]
fn buffered_tric_bounds_memory_at_the_cost_of_more_rounds() {
    let g = skewed_graph();
    let plain = Tric::new(TricConfig::plain(4)).run(&g);
    let buffered = Tric::new(TricConfig::buffered_with(4, 256)).run(&g);
    assert_eq!(plain.triangle_count, buffered.triangle_count);
    assert!(buffered.rounds() > plain.rounds());
}

#[test]
fn data_reuse_analysis_matches_actual_remote_traffic() {
    // The static reuse analysis (Figures 1/4/5) predicts exactly the remote reads the
    // non-cached distributed run performs: every remote edge issues one adjacency
    // read, i.e. up to two gets.
    let g = skewed_graph();
    let ranks = 4;
    let pg = PartitionedGraph::from_global(&g, PartitionScheme::Block1D, ranks).unwrap();
    let predicted_reads: u64 = reuse::remote_read_counts(&pg).iter().sum();
    let result = DistLcc::new(DistConfig::non_cached(ranks)).run(&g);
    let remote_edges: u64 = result.ranks.iter().map(|r| r.remote_edges).sum();
    assert_eq!(predicted_reads, remote_edges);
    assert!(result.total_gets() <= 2 * remote_edges);
    assert!(result.total_gets() >= remote_edges);
}

#[test]
fn load_imbalance_is_reported_and_bounded() {
    let g = skewed_graph();
    let result = DistLcc::new(DistConfig::non_cached(8)).run(&g);
    let imbalance = result.time_imbalance();
    assert!(imbalance >= 1.0);
    assert!(
        imbalance < 8.0,
        "imbalance {imbalance} looks unreasonable for 1D blocks"
    );
}

#[test]
fn network_model_scales_the_modeled_times() {
    let g = skewed_graph();
    let mut slow = DistConfig::non_cached(4);
    slow.network = NetworkModel::commodity();
    let fast = DistLcc::new(DistConfig::non_cached(4)).run(&g);
    let slow = DistLcc::new(slow).run(&g);
    assert!(slow.max_comm_time_ns() > fast.max_comm_time_ns() * 2.0);
}

/// Figure 7 (right panels): `C_adj`'s misses over cache budgets of 5% to 100%
/// of the adjacency data, on R-MAT S12 EF16 over two ranks with plain rows.
/// The paper's power-law reuse shows as a steep fall at small budgets, and a
/// cache that holds every row misses only on first reads (the grey area of
/// the figure). Exact counts, no timing: the lookups and the compulsory
/// misses are the same at every budget, the misses are pinned per budget.
#[test]
fn fig7_adjacency_misses_fall_steeply_to_the_compulsory_floor() {
    let g = RmatGenerator::paper(12, 16).generate_cleaned(42).into_csr();
    let adj_bytes = g.edge_count() as f64 * 4.0;
    let (lookups, compulsory) = (41_432, 2_717);
    // (fraction of the adjacency data, misses): miss rates 0.979, 0.903,
    // 0.684, 0.326, 0.135, 0.067 and 0.066 against a compulsory rate of 0.066.
    let expected = [
        (0.05, 40_565),
        (0.1, 37_406),
        (0.2, 28_358),
        (0.4, 13_491),
        (0.6, 5_578),
        (0.8, 2_785),
        (1.0, 2_722),
    ];
    let mut previous = u64::MAX;
    for (fraction, misses) in expected {
        let cfg = DistConfig::cached(2, (adj_bytes * fraction) as usize)
            .with_storage(GraphStorage::Plain);
        let stats = DistLcc::new(cfg).run(&g).adjacency_cache_totals().unwrap();
        let what = format!("budget {fraction} of the adjacency data");
        assert_eq!(stats.lookups(), lookups, "{what}");
        assert_eq!(stats.compulsory_misses, compulsory, "{what}");
        assert_eq!(stats.misses, misses, "{what}");
        assert!(
            stats.misses <= previous,
            "{what}: misses rose with the budget"
        );
        previous = stats.misses;
    }
    let misses = |fraction| expected.iter().find(|e| e.0 == fraction).unwrap().1;
    // Steep at small budgets: 40% of the data already removes two thirds of
    // the misses a 5% cache takes.
    assert!(3 * misses(0.4) < misses(0.05));
    // On the floor at the full budget: within 0.1% of the lookups.
    assert!(misses(1.0) - compulsory <= lookups / 1_000);
}

/// Section IV-D: the compulsory-miss share of `C_adj` lookups grows with the
/// rank count (15.5% at 4 nodes to 64.9% at 64 in the paper), here on the
/// LiveJournal stand-in with degree scores and a cache of half its CSR:
/// 20.2%, 31.1% and 43.6% at 4, 8 and 16 ranks. Exact counts, plain rows.
#[test]
fn compulsory_miss_share_grows_with_ranks_on_livejournal() {
    let g = Dataset::LiveJournal.generate(DatasetScale::Tiny, 42);
    let budget = g.csr_size_bytes() as usize / 2;
    let mut previous = 0.0;
    // (ranks, lookups, misses, compulsory misses)
    for (ranks, lookups, misses, compulsory) in [
        (4, 27_436, 10_662, 5_542),
        (8, 34_684, 16_048, 10_774),
        (16, 39_116, 20_581, 17_072),
    ] {
        let cfg = DistConfig::cached(ranks, budget)
            .with_degree_scores()
            .with_storage(GraphStorage::Plain);
        let stats = DistLcc::new(cfg).run(&g).adjacency_cache_totals().unwrap();
        let counts = (stats.lookups(), stats.misses, stats.compulsory_misses);
        assert_eq!(counts, (lookups, misses, compulsory), "{ranks} ranks");
        let share = stats.compulsory_miss_rate();
        assert!(share > previous, "{ranks} ranks: {share} after {previous}");
        previous = share;
    }
}
