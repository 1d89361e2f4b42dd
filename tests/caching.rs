//! Integration tests of the caching behaviour the paper's evaluation depends on:
//! caching eliminates repeated remote reads, larger caches miss less, degree scores
//! help under pressure, and the compulsory-miss floor grows with the rank count.

use rmatc::core::distributed::GraphWindows;
use rmatc::prelude::*;

fn skewed_graph() -> CsrGraph {
    RmatGenerator::paper(11, 16).generate_cleaned(21).into_csr()
}

#[test]
fn caching_reduces_gets_and_communication_time() {
    let g = skewed_graph();
    let non_cached = DistLcc::new(DistConfig::non_cached(4)).run(&g);
    let cached =
        DistLcc::new(DistConfig::cached(4, g.csr_size_bytes() as usize).with_degree_scores())
            .run(&g);
    assert!(cached.total_gets() < non_cached.total_gets() / 2);
    assert!(cached.max_comm_time_ns() < non_cached.max_comm_time_ns());
    assert!(cached.cache_hits() > 0);
}

#[test]
fn miss_rate_decreases_monotonically_with_cache_size() {
    let g = skewed_graph();
    let adj_bytes = g.edge_count() as usize * 4;
    let stats: Vec<_> = [0.05, 0.25, 1.0]
        .iter()
        .map(|fraction| {
            let mut cfg = DistConfig::non_cached(2);
            cfg.cache = Some(CacheSpec::paper((adj_bytes as f64 * fraction) as usize));
            DistLcc::new(cfg).run(&g).adjacency_cache_totals().unwrap()
        })
        .collect();
    for pair in stats.windows(2) {
        let (smaller, larger) = (pair[0].miss_rate(), pair[1].miss_rate());
        assert!(
            larger <= smaller + 0.02,
            "miss rate should not grow with a larger cache ({larger} after {smaller})"
        );
    }
    // The budget binds: 5% of the adjacency data (plain ids; the compressed
    // rows are smaller, but not 10× smaller) misses most rows that are not
    // compulsory misses, and a 5× larger cache misses clearly less.
    let smallest = &stats[0];
    assert!(
        smallest.miss_rate() > smallest.compulsory_miss_rate() + 0.5,
        "a 5% cache must miss far above the compulsory floor: {smallest:?}"
    );
    assert!(stats[1].miss_rate() < smallest.miss_rate() - 0.1);
    // A cache as large as the adjacency data reaches (close to) the compulsory floor.
    let largest = &stats[2];
    assert!(largest.miss_rate() < largest.compulsory_miss_rate() + 0.05);
}

#[test]
fn jaccard_reports_the_same_cache_statistics_as_lcc() {
    // `DistJaccard` runs `DistLcc`'s edge loop with another per-edge
    // operation, so the two issue identical reads and each rank's cache
    // sees the same stream.
    let g = RmatGenerator::paper(10, 8).generate_cleaned(21).into_csr();
    let csr = g.csr_size_bytes() as usize;
    for storage in [GraphStorage::Plain, GraphStorage::Compressed] {
        for budget in [csr / 2, csr / 8] {
            for depth in [1, 8] {
                let what = format!("{storage:?}, budget {budget}, depth {depth}");
                let cfg = DistConfig::cached(4, budget)
                    .with_degree_scores()
                    .with_storage(storage)
                    .with_pipeline_depth(depth);
                let lcc = DistLcc::new(cfg).run(&g);
                let jaccard = DistJaccard::new(cfg).run(&g);
                assert_eq!(jaccard.adjacency_cache.len(), 4, "{what}");
                for (rank, report) in lcc.ranks.iter().enumerate() {
                    assert!(report.adjacency_cache.is_some(), "{what}");
                    assert_eq!(
                        jaccard.adjacency_cache[rank], report.adjacency_cache,
                        "{what}, rank {rank}"
                    );
                    let (a, b) = (&jaccard.rank_stats[rank], &report.rma);
                    assert_eq!(
                        (a.gets, a.bytes, a.local_reads),
                        (b.gets, b.bytes, b.local_reads),
                        "{what}, rank {rank}"
                    );
                }
                assert_eq!(
                    jaccard.adjacency_cache_totals(),
                    lcc.adjacency_cache_totals(),
                    "{what}"
                );
            }
        }
    }
    let non_cached = DistJaccard::new(DistConfig::non_cached(4)).run(&g);
    assert_eq!(non_cached.adjacency_cache, vec![None; 4]);
    assert_eq!(non_cached.adjacency_cache_totals(), None);
}

#[test]
fn degree_scores_do_not_hit_less_than_lru_under_pressure() {
    let g = skewed_graph();
    // 25% of the adjacency data as the windows store it (plain ids, or
    // compressed words in the storage leg), as in Figure 8: capacity
    // evictions are guaranteed.
    let base = DistConfig::non_cached(4);
    let pg = PartitionedGraph::from_global(&g, base.scheme, base.ranks).unwrap();
    let capacity = GraphWindows::build_with(&pg, base.storage).adjacency_bytes() / 4;
    let run = |spec| {
        let mut cfg = base;
        cfg.cache = Some(spec);
        DistLcc::new(cfg).run(&g)
    };
    let lru = run(CacheSpec::paper(capacity));
    let degree = run(CacheSpec::paper(capacity).with_degree_scores());
    let lru_stats = lru.adjacency_cache_totals().unwrap();
    let degree_stats = degree.adjacency_cache_totals().unwrap();
    assert!(
        lru_stats.capacity_evictions > 0,
        "the configuration must create cache pressure"
    );
    // The degrees must reach the cache: under pressure the score-aware cache
    // refuses low-degree rows that plain LRU admits, so the two runs cannot
    // be the same run decision for decision.
    assert_eq!(lru_stats.admission_rejections, 0);
    assert!(
        degree_stats.admission_rejections > 0,
        "degree scores never refused a row: they are not reaching the eviction rule"
    );
    assert_ne!(degree_stats, lru_stats);
    assert!(
        degree_stats.hit_rate() >= lru_stats.hit_rate() - 0.01,
        "degree scores should not lose to LRU on a skewed graph ({} vs {})",
        degree_stats.hit_rate(),
        lru_stats.hit_rate()
    );
}

#[test]
fn compulsory_miss_floor_grows_with_rank_count() {
    let g = skewed_graph();
    let budget = g.csr_size_bytes() as usize;
    let rate = |ranks| {
        let result = DistLcc::new(DistConfig::cached(ranks, budget)).run(&g);
        result
            .adjacency_cache_totals()
            .unwrap()
            .compulsory_miss_rate()
    };
    let at_2 = rate(2);
    let at_16 = rate(16);
    assert!(
        at_16 > at_2,
        "partitioning over more ranks must increase compulsory misses ({at_2} -> {at_16})"
    );
}

#[test]
fn offsets_spans_alone_already_save_communication() {
    // Both modes take every offsets pair from the rank's one copy of each
    // owner's offsets window, so a cached configuration whose budget leaves
    // `C_adj` nothing is the non-cached run: the same answers and the same
    // integer statistics. That run issues
    // fewer gets than Algorithm 3's per-edge loop — an offsets get per
    // remote edge and a row get per non-empty row — and models less
    // communication than those gets' α alone.
    let g = skewed_graph();
    let config = DistConfig::non_cached(2);
    let baseline = DistLcc::new(config).run(&g);
    let spans = DistLcc::new(DistConfig::cached(2, 0)).run(&g);
    assert!(spans.adjacency_cache_totals().is_none());
    assert_eq!(spans.per_vertex_triangles, baseline.per_vertex_triangles);
    assert_eq!(spans.lcc, baseline.lcc);
    let integers = |s: &rmatc::rma::RankStats| rmatc::rma::RankStats {
        comm_time_ns: 0.0,
        overlapped_ns: 0.0,
        local_time_ns: 0.0,
        backoff_ns: 0.0,
        ..s.clone()
    };
    for (a, b) in spans.ranks.iter().zip(&baseline.ranks) {
        assert_eq!(integers(&a.rma), integers(&b.rma), "rank {}", a.rank);
    }
    let pg = PartitionedGraph::from_global(&g, config.scheme, config.ranks).unwrap();
    let mut per_edge = 0u64;
    for (rank, part) in pg.partitions.iter().enumerate() {
        for local_idx in 0..part.local_vertex_count() {
            for &v in part.neighbours_of_local(local_idx) {
                let owner = pg.partitioner.owner(v);
                if owner != rank {
                    let idx = pg.partitioner.local_index(v);
                    let row = pg.partitions[owner].neighbours_of_local(idx);
                    per_edge += 1 + u64::from(!row.is_empty());
                }
            }
        }
    }
    assert!(
        baseline.total_gets() < per_edge,
        "{} gets against {per_edge} per edge",
        baseline.total_gets()
    );
    let comm: f64 = baseline
        .ranks
        .iter()
        .map(|r| r.rma.comm_time_ns + r.rma.overlapped_ns)
        .sum();
    assert!(comm < per_edge as f64 * config.network.alpha_ns);
}

#[test]
fn double_buffering_never_increases_charged_communication() {
    let g = skewed_graph();
    let run = |db| {
        let mut cfg = DistConfig::non_cached(4);
        cfg.double_buffering = db;
        DistLcc::new(cfg).run(&g)
    };
    let with = run(true);
    let without = run(false);
    let with_comm: f64 = with.ranks.iter().map(|r| r.timing.comm_ns).sum();
    let without_comm: f64 = without.ranks.iter().map(|r| r.timing.comm_ns).sum();
    assert!(with_comm <= without_comm + 1e-3);
    let overlapped: f64 = with.ranks.iter().map(|r| r.timing.overlapped_ns).sum();
    assert!(overlapped > 0.0, "double buffering must hide some latency");
}

#[test]
fn cache_statistics_are_internally_consistent() {
    let g = skewed_graph();
    let result = DistLcc::new(DistConfig::cached(4, g.csr_size_bytes() as usize / 4)).run(&g);
    for report in &result.ranks {
        let stats = report
            .adjacency_cache
            .as_ref()
            .expect("adjacency cache enabled");
        assert_eq!(stats.lookups(), stats.hits + stats.misses);
        assert!(stats.compulsory_misses <= stats.misses);
        assert!((stats.hit_rate() + stats.miss_rate() - 1.0).abs() < 1e-9 || stats.lookups() == 0);
    }
}

/// Figure 8's comparison as a trace replay over one CLaMPI cache, no ranks
/// involved: remote row reads are degree-weighted (hubs are re-read once per
/// incident edge) and interleaved with full sweeps over the vertex set. The
/// sweeps flush the hub set out of a recency-only cache every round, while
/// degree scores keep it resident.
///
/// The trace draws a uniformly random adjacency position (which names its
/// target vertex, so hubs come in proportion to in-degree) twice and keeps
/// the higher-degree vertex, which squares the skew. Deterministic
/// xorshift64*: `ROUNDS` rounds of `HOT_DRAWS` draws followed by one sweep.
fn fig8_trace(g: &CsrGraph) -> Vec<u32> {
    const HOT_DRAWS: usize = 3_000;
    const ROUNDS: usize = 8;
    let adj = g.adjacencies();
    let n = g.vertex_count() as u32;
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_f491_4f6c_dd1d)
    };
    let mut trace = Vec::with_capacity(ROUNDS * (HOT_DRAWS + n as usize));
    for _ in 0..ROUNDS {
        for _ in 0..HOT_DRAWS {
            let a = adj[(next() % adj.len() as u64) as usize];
            let b = adj[(next() % adj.len() as u64) as usize];
            trace.push(if g.degree(a) >= g.degree(b) { a } else { b });
        }
        trace.extend(0..n);
    }
    trace
}

#[test]
fn fig8_trace_replay_pins_both_score_rules() {
    use rmatc::clampi::{Clampi, EntryKey};
    use rmatc::rma::WindowId;

    let g = RmatGenerator::paper(10, 12).generate_cleaned(42).into_csr();
    let trace = fig8_trace(&g);
    // Half the adjacency bytes: the sweeps cannot fit, the hub set can.
    let capacity = g.edge_count() as usize * 4 / 2;
    // The score rule comes from the cache spec every run uses, so the
    // degree-scored replay is the cache `with_degree_scores` configures.
    let replay = |spec: CacheSpec| {
        let config = ClampiConfig {
            scoring: spec.scoring,
            ..ClampiConfig::always_cache(capacity, 1 << 10)
        };
        let mut cache: Clampi<u32> = Clampi::new(config);
        for &v in &trace {
            let row = g.neighbours(v);
            let offset = g.offsets()[v as usize] as usize * 4;
            let key = EntryKey::new(WindowId(0), 1, offset, row.len());
            if cache.lookup(key).is_none() {
                cache.insert(key, row.to_vec(), g.degree(v) as f64);
            }
        }
        let stats = cache.stats();
        let bytes_per_lookup = (stats.bytes_from_network as f64 / stats.lookups() as f64).round();
        (stats.miss_rate_ppm(), bytes_per_lookup as u64)
    };
    // Exact values: the trace and the cache are deterministic, so any drift
    // is a change of the eviction or admission decisions.
    let positional = replay(CacheSpec::paper(capacity));
    let degree = replay(CacheSpec::paper(capacity).with_degree_scores());
    assert_eq!(
        positional,
        (466_999, 93),
        "LRU + positional: (ppm, B/lookup)"
    );
    assert_eq!(degree, (410_949, 42), "degree scores: (ppm, B/lookup)");
    // Figure 8's shape: degree scores miss strictly less.
    assert!(degree.0 < positional.0);
}
