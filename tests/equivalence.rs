//! Cross-implementation equivalence: every triangle-counting / LCC implementation in
//! the workspace (sequential reference, shared-memory kernel, asynchronous
//! distributed with and without caching, TriC baseline) must produce identical
//! counts and scores on the same graph.

use rmatc::prelude::*;
use rmatc_graph::reference;

fn assert_scores_equal(a: &[f64], b: &[f64], context: &str) {
    assert_eq!(a.len(), b.len(), "{context}: length mismatch");
    for (v, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert!(
            (x - y).abs() < 1e-12,
            "{context}: vertex {v} differs ({x} vs {y})"
        );
    }
}

fn graphs_under_test() -> Vec<(String, CsrGraph)> {
    vec![
        (
            "rmat".to_string(),
            RmatGenerator::paper(9, 8).generate_cleaned(1).into_csr(),
        ),
        (
            "orkut-standin".to_string(),
            Dataset::Orkut.generate(DatasetScale::Tiny, 2),
        ),
        (
            "facebook-circles".to_string(),
            Dataset::FacebookCircles.generate(DatasetScale::Tiny, 3),
        ),
        (
            "directed-lj1".to_string(),
            Dataset::LiveJournal1.generate(DatasetScale::Tiny, 4),
        ),
        (
            "uniform".to_string(),
            Dataset::Uniform.generate(DatasetScale::Tiny, 5),
        ),
    ]
}

#[test]
fn local_kernel_matches_reference_on_all_graphs() {
    for (name, g) in graphs_under_test() {
        let expected = reference::lcc_scores(&g);
        for method in IntersectMethod::all() {
            let result = LocalLcc::new(LocalConfig::sequential().with_method(method)).run(&g);
            assert_eq!(
                result.triangle_count,
                reference::count_triangles(&g),
                "{name} with {method:?}"
            );
            assert_scores_equal(&result.lcc, &expected, &format!("{name} with {method:?}"));
        }
    }
}

#[test]
fn distributed_matches_reference_across_rank_counts_and_schemes() {
    for (name, g) in graphs_under_test() {
        let expected = reference::lcc_scores(&g);
        let expected_triangles = reference::count_triangles(&g);
        for ranks in [2usize, 3, 8] {
            for scheme in [PartitionScheme::Block1D, PartitionScheme::Cyclic] {
                let mut cfg = DistConfig::non_cached(ranks);
                cfg.scheme = scheme;
                let result = DistLcc::new(cfg).run(&g);
                let context = format!("{name}, {ranks} ranks, {scheme:?}");
                assert_eq!(result.triangle_count, expected_triangles, "{context}");
                assert_scores_equal(&result.lcc, &expected, &context);
            }
        }
    }
}

#[test]
fn cached_distributed_matches_reference_for_all_cache_sizes() {
    let g = Dataset::Orkut.generate(DatasetScale::Tiny, 7);
    let expected = reference::lcc_scores(&g);
    let expected_triangles = reference::count_triangles(&g);
    // From a cache too small to hold anything useful to one larger than the graph:
    // correctness must never depend on the cache configuration.
    for budget in [64usize, 4 << 10, 256 << 10, 64 << 20] {
        for scoring in [ScorePolicy::LruPositional, ScorePolicy::ApplicationScore] {
            let mut cfg = DistConfig::non_cached(4);
            cfg.cache = Some(CacheSpec {
                scoring,
                ..CacheSpec::paper(budget)
            });
            let result = DistLcc::new(cfg).run(&g);
            let context = format!("budget {budget}, {scoring:?}");
            assert_eq!(result.triangle_count, expected_triangles, "{context}");
            assert_scores_equal(&result.lcc, &expected, &context);
        }
    }
}

#[test]
fn tric_and_async_agree_on_every_graph() {
    for (name, g) in graphs_under_test() {
        let asynchronous = DistLcc::new(DistConfig::non_cached(4)).run(&g);
        let tric = Tric::new(TricConfig::plain(4)).run(&g);
        let buffered = Tric::new(TricConfig::buffered_with(4, 128)).run(&g);
        assert_eq!(asynchronous.triangle_count, tric.triangle_count, "{name}");
        assert_eq!(tric.triangle_count, buffered.triangle_count, "{name}");
        assert_scores_equal(
            &asynchronous.lcc,
            &tric.lcc,
            &format!("{name} async vs tric"),
        );
        assert_scores_equal(
            &tric.lcc,
            &buffered.lcc,
            &format!("{name} plain vs buffered"),
        );
    }
}

#[test]
fn double_buffering_and_intersection_method_do_not_change_results() {
    let g = RmatGenerator::paper(9, 16).generate_cleaned(11).into_csr();
    let baseline = DistLcc::new(DistConfig::non_cached(4)).run(&g);
    for method in IntersectMethod::all() {
        for db in [false, true] {
            let mut cfg = DistConfig::non_cached(4);
            cfg.method = method;
            cfg.double_buffering = db;
            let result = DistLcc::new(cfg).run(&g);
            assert_eq!(result.per_vertex_triangles, baseline.per_vertex_triangles);
        }
    }
}

// ---------------------------------------------------------------------------
// Differential layer: the one edge loop at pipeline depth D against itself
// at depth 1 (the classic issue-wait-compute loop), and both against the
// brute-force reference, over random R-MAT graphs × pipeline depths × cache
// score rules. (`tests/golden_counts.rs` additionally pins the loop to the
// counts of the sequential worker it replaced.)
//
// Equivalence tiers (see `crates/core/src/distributed/pipeline.rs`):
//
// * Public API: scores (triangles, LCC, Jaccard) are bit-identical, and
//   per-rank cache lookup totals (hits + misses), edge counts and — for
//   non-cached configurations — get/byte counters match exactly, because
//   each is per-edge deterministic however the gets in flight interleave.
// * Per rank: the *full* cache statistics and every integer RMA counter are
//   bit-identical — cache operations happen at issue time in exactly the
//   depth-1 order.
// ---------------------------------------------------------------------------

mod differential {
    use super::*;
    use proptest::prelude::*;
    use rmatc::clampi::CacheStats;
    use rmatc::core::distributed::windows::GraphWindows;
    use rmatc::core::distributed::worker::run_worker;

    /// `None` → non-cached; `Some` → the paper's cache under the given
    /// score rule.
    fn arb_cache() -> impl Strategy<Value = Option<ScorePolicy>> {
        (0usize..3).prop_map(|rule| match rule {
            0 => None,
            1 => Some(ScorePolicy::LruPositional),
            _ => Some(ScorePolicy::ApplicationScore),
        })
    }

    fn config_for(ranks: usize, cache: Option<ScorePolicy>, budget: usize) -> DistConfig {
        let mut cfg = DistConfig::non_cached(ranks);
        cfg.cache = cache.map(|scoring| CacheSpec {
            scoring,
            ..CacheSpec::paper(budget)
        });
        cfg
    }

    fn lookups(stats: &Option<CacheStats>) -> u64 {
        stats.as_ref().map(|s| s.lookups()).unwrap_or(0)
    }

    fn misses(stats: &Option<CacheStats>) -> u64 {
        stats.as_ref().map(|s| s.misses).unwrap_or(0)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        /// Public-API tier: any depth × cache score rule produces
        /// bit-identical scores and per-edge-deterministic counters.
        #[test]
        fn overlapped_lcc_matches_sequential_on_random_graphs(
            (seed, scale, edge_factor) in (any::<u64>(), 5u32..8, 4u32..10),
            ranks in 2usize..4,
            depth in 2usize..10,
            cache in arb_cache(),
        ) {
            let g = RmatGenerator::paper(scale, edge_factor)
                .generate_cleaned(seed)
                .into_csr();
            let cfg = config_for(ranks, cache, 64 << 10);
            let sequential = DistLcc::new(cfg).run(&g);
            let overlapped = DistLcc::new(cfg.with_pipeline_depth(depth)).run(&g);
            prop_assert_eq!(
                &sequential.per_vertex_triangles,
                &reference::per_vertex_triangles(&g)
            );
            prop_assert_eq!(overlapped.triangle_count, sequential.triangle_count);
            prop_assert_eq!(
                &overlapped.per_vertex_triangles,
                &sequential.per_vertex_triangles
            );
            // LCC divides identical integers — bit-identical f64.
            prop_assert_eq!(&overlapped.lcc, &sequential.lcc);
            for (a, b) in overlapped.ranks.iter().zip(sequential.ranks.iter()) {
                prop_assert_eq!(a.edges_processed, b.edges_processed);
                prop_assert_eq!(a.remote_edges, b.remote_edges);
                // Exactly one lookup per remote non-empty row read: the
                // hit + miss total is deterministic however gets overlap.
                prop_assert_eq!(
                    lookups(&a.adjacency_cache),
                    lookups(&b.adjacency_cache)
                );
                // The gets that are not `C_adj` misses — offsets windows,
                // uncached rows — are fixed per rank or per edge.
                prop_assert_eq!(
                    a.rma.gets - misses(&a.adjacency_cache),
                    b.rma.gets - misses(&b.adjacency_cache)
                );
                if cache.is_none() {
                    // Non-cached: every remote read goes to the wire, so the
                    // get/byte counters are per-edge deterministic too.
                    prop_assert_eq!(a.rma.gets, b.rma.gets);
                    prop_assert_eq!(a.rma.bytes, b.rma.bytes);
                    prop_assert_eq!(&a.rma.gets_per_target, &b.rma.gets_per_target);
                    prop_assert_eq!(&a.rma.bytes_per_target, &b.rma.bytes_per_target);
                }
            }
        }

        /// Strong tier: one rank's worker over shared windows — full cache
        /// statistics and every integer RMA counter are bit-identical at any
        /// depth.
        #[test]
        fn single_thread_pipelining_is_bit_identical_per_rank(
            seed in any::<u64>(),
            depth in 2usize..12,
            cache in arb_cache(),
        ) {
            let g = RmatGenerator::paper(6, 8).generate_cleaned(seed).into_csr();
            let cfg = config_for(2, cache, 32 << 10);
            let pg = PartitionedGraph::from_global(&g, cfg.scheme, cfg.ranks).unwrap();
            let windows = GraphWindows::build(&pg);
            let expected = reference::per_vertex_triangles(&g);
            for rank in 0..cfg.ranks {
                let seq = run_worker(rank, &pg, &windows, &cfg).unwrap();
                let pip = run_worker(rank, &pg, &windows, &cfg.with_pipeline_depth(depth)).unwrap();
                for (local_idx, &gv) in pg.partitions[rank].global_ids.iter().enumerate() {
                    prop_assert_eq!(seq.items[local_idx], expected[gv as usize]);
                }
                prop_assert_eq!(&pip.items, &seq.items);
                prop_assert_eq!(&pip.adjacency_cache, &seq.adjacency_cache);
                prop_assert_eq!(pip.edges_processed, seq.edges_processed);
                prop_assert_eq!(pip.remote_edges, seq.remote_edges);
                prop_assert_eq!(pip.rma.gets, seq.rma.gets);
                prop_assert_eq!(pip.rma.bytes, seq.rma.bytes);
                prop_assert_eq!(pip.rma.flushes, seq.rma.flushes);
                prop_assert_eq!(pip.rma.local_reads, seq.rma.local_reads);
                prop_assert_eq!(&pip.rma.gets_per_target, &seq.rma.gets_per_target);
                prop_assert_eq!(&pip.rma.bytes_per_target, &seq.rma.bytes_per_target);
            }
        }

        /// Jaccard runs the same edge loop: its per-edge similarities must be
        /// bit-identical under any overlap setting and agree with the
        /// brute-force common-neighbour counts.
        #[test]
        fn overlapped_jaccard_matches_sequential_on_random_graphs(
            seed in any::<u64>(),
            depth in 2usize..10,
        ) {
            let g = RmatGenerator::paper(6, 8).generate_cleaned(seed).into_csr();
            let cfg = DistConfig::non_cached(3);
            let sequential = DistJaccard::new(cfg).run(&g);
            let overlapped = DistJaccard::new(cfg.with_pipeline_depth(depth)).run(&g);
            prop_assert_eq!(&overlapped.edges, &sequential.edges);
            for e in &sequential.edges {
                prop_assert_eq!(
                    e.common_neighbours,
                    reference::common_neighbours(&g, e.source, e.destination)
                );
            }
            let gets = |r: &JaccardResult| r.rank_stats.iter().map(|s| s.gets).sum::<u64>();
            prop_assert_eq!(gets(&overlapped), gets(&sequential));
        }
    }
}

/// The cached edge loop reads each owner's offsets window once per rank and
/// takes every pair from that copy: each copied pair must be the owner's
/// window, and reading each remote edge's row as its own one-key batch must
/// drive `C_adj` through the same decisions — under every partition scheme
/// and storage, at depth 1 and 8. Beside its `C_adj` misses a rank issues
/// one get per other owner at most.
#[test]
fn offsets_spans_match_per_edge_pair_reads() {
    use rmatc::core::distributed::reader::{OwnerOffsets, RowReader};
    use rmatc::core::distributed::GraphWindows;
    use rmatc::rma::Endpoint;

    let g = RmatGenerator::paper(8, 8).generate_cleaned(3).into_csr();
    let expected = reference::per_vertex_triangles(&g);
    let ranks = 3;
    for scheme in [
        PartitionScheme::Block1D,
        PartitionScheme::Cyclic,
        PartitionScheme::WorkBalancedBlock1D,
    ] {
        let pg = PartitionedGraph::from_global(&g, scheme, ranks).unwrap();
        for storage in [GraphStorage::Plain, GraphStorage::Compressed] {
            let what = format!("{scheme:?}, {storage:?}");
            let mut cfg = DistConfig::cached(ranks, 24 << 10)
                .with_degree_scores()
                .with_storage(storage);
            cfg.scheme = scheme;
            let windows = GraphWindows::build_with(&pg, storage);
            // The per-edge reference, rank by rank: every copied pair equals
            // the owner's window, and the rows read from those pairs go
            // through a cache of the run's configuration.
            let mut per_edge = Vec::new();
            for (rank, part) in pg.partitions.iter().enumerate() {
                let (reader, mut cache) = RowReader::new(&windows, &cfg, g.vertex_count());
                let mut offsets = OwnerOffsets::new(ranks);
                let mut ep = Endpoint::new(rank, ranks, cfg.network);
                ep.lock_all();
                let (mut landing, mut rows) = (Vec::new(), Vec::new());
                for local_idx in 0..part.local_vertex_count() {
                    for &v in part.neighbours_of_local(local_idx) {
                        let (owner, idx) = (pg.partitioner.owner(v), pg.partitioner.local_index(v));
                        if owner == rank {
                            continue;
                        }
                        let words = windows.offsets.local_part(owner);
                        let want = (words[idx] as usize, words[idx + 1] as usize);
                        let pair = reader.pair(&mut ep, &mut offsets, owner, idx).unwrap();
                        assert_eq!(pair, want, "{what}: edge ({local_idx}, {v})");
                        let (cache, landing) = (&mut cache, &mut landing);
                        let key = [(owner, idx)];
                        reader.read_key_rows(
                            &mut ep,
                            cache,
                            &mut offsets,
                            &key,
                            landing,
                            &mut rows,
                        );
                        rows[0].as_ref().unwrap();
                    }
                }
                ep.unlock_all();
                per_edge.push(cache.unwrap().stats().clone());
            }
            let mut planned = None;
            for depth in [1usize, 8] {
                let result = DistLcc::new(cfg.with_pipeline_depth(depth)).run_partitioned(&pg);
                let what = format!("{what}, depth {depth}");
                assert_eq!(result.per_vertex_triangles, expected, "{what}");
                // Offsets gets: every get that is not a `C_adj` miss, the
                // same at any depth.
                let copies: Vec<u64> = result
                    .ranks
                    .iter()
                    .map(|r| r.rma.gets - r.adjacency_cache.as_ref().unwrap().misses)
                    .collect();
                assert_eq!(
                    *planned.get_or_insert_with(|| copies.clone()),
                    copies,
                    "{what}"
                );
                for (report, reference) in result.ranks.iter().zip(&per_edge) {
                    let adj = report.adjacency_cache.as_ref().unwrap();
                    assert_eq!(adj, reference, "{what}, rank {}", report.rank);
                    assert!(
                        report.rma.gets - adj.misses < ranks as u64,
                        "{what}: a rank reads each other owner's offsets once at most"
                    );
                }
            }
        }
    }
}

/// A fault-free read nobody keeps is read in place; under a fault plan it
/// lands in the rank's buffer and is checksummed first. A reliable plan
/// injects nothing, so both runs read the same bytes and must agree on
/// answers, integer `RankStats` and `CacheStats` — plain and compressed,
/// cached and non-cached, at depth 1 and 8.
#[test]
fn in_place_reads_match_landed_reads() {
    let integers = |s: &rmatc::rma::RankStats| rmatc::rma::RankStats {
        comm_time_ns: 0.0,
        overlapped_ns: 0.0,
        local_time_ns: 0.0,
        backoff_ns: 0.0,
        ..s.clone()
    };
    let g = RmatGenerator::paper(10, 16).generate_cleaned(5).into_csr();
    let ranks = 3;
    let pg = PartitionedGraph::from_global(&g, PartitionScheme::Block1D, ranks).unwrap();
    let budget = g.csr_size_bytes() as usize / 4;
    for storage in [GraphStorage::Plain, GraphStorage::Compressed] {
        for base in [
            DistConfig::non_cached(ranks),
            DistConfig::cached(ranks, budget).with_degree_scores(),
        ] {
            for depth in [1usize, 8] {
                let in_place = base.with_storage(storage).with_pipeline_depth(depth);
                let landed = DistConfig {
                    faults: Some(FaultPlan::reliable(17)),
                    ..in_place
                };
                let what = format!(
                    "{storage:?}, cached {}, depth {depth}",
                    base.cache.is_some()
                );
                let a = DistLcc::new(in_place).run_partitioned(&pg);
                let b = DistLcc::new(landed).run_partitioned(&pg);
                assert_eq!(a.per_vertex_triangles, b.per_vertex_triangles, "{what}");
                assert_eq!(a.lcc, b.lcc, "{what}");
                for (x, y) in a.ranks.iter().zip(&b.ranks) {
                    assert_eq!(
                        integers(&x.rma),
                        integers(&y.rma),
                        "{what}, rank {}",
                        x.rank
                    );
                    assert_eq!(
                        x.adjacency_cache, y.adjacency_cache,
                        "{what}, rank {}",
                        x.rank
                    );
                }
                assert!(a.total_gets() > 0, "{what}");
            }
        }
    }
}

/// The non-cached loop by hand: rank 0's one source has three remote
/// neighbours on rank 1, so their offsets pairs come from one copy of rank
/// 1's offsets window — one get of its five words — and each non-empty row
/// is one get more. The edge `0 → 6` reaches an empty row, which needs no
/// second get.
#[test]
fn a_source_whose_neighbours_share_a_span_pays_one_offsets_get() {
    use rmatc::core::distributed::worker::run_worker;
    use rmatc::core::distributed::GraphWindows;

    let g = CsrGraph::from_edges(
        8,
        &[(0, 4), (0, 5), (0, 6), (4, 5), (5, 6)],
        Direction::Directed,
    );
    let pg = PartitionedGraph::from_global(&g, PartitionScheme::Block1D, 2).unwrap();
    let windows = GraphWindows::build(&pg);
    let config = DistConfig::non_cached(2);
    let out = run_worker(0, &pg, &windows, &config).unwrap();
    let non_empty_remote_rows = 2; // rows of 4 and 5; 6 has none
    assert_eq!(out.rma.gets, 1 + non_empty_remote_rows);
    // The copy is rank 1's whole window: four rows, five words.
    let row_bytes: u64 = [4u32, 5]
        .iter()
        .map(|&v| 4 * g.neighbours(v).len() as u64)
        .sum();
    assert_eq!(out.rma.bytes, 5 * 8 + row_bytes);
}

#[test]
fn relabeling_preserves_triangle_count_through_the_whole_pipeline() {
    let gen = RmatGenerator::paper(9, 8);
    let plain = gen.generate_cleaned(5).into_csr();
    let mut edges = gen.generate_cleaned(5);
    edges.relabel(&rmatc_graph::relabel::random_permutation(
        edges.vertex_count(),
        123,
    ));
    let relabeled = edges.into_csr();
    assert_ne!(plain, relabeled, "relabeling must change the labels");
    let a = DistLcc::new(DistConfig::non_cached(4)).run(&plain);
    let b = DistLcc::new(DistConfig::non_cached(4)).run(&relabeled);
    assert_eq!(a.triangle_count, b.triangle_count);
    // The multiset of LCC scores is permutation-invariant.
    let mut sa = a.lcc.clone();
    let mut sb = b.lcc.clone();
    sa.sort_by(|x, y| x.partial_cmp(y).unwrap());
    sb.sort_by(|x, y| x.partial_cmp(y).unwrap());
    for (x, y) in sa.iter().zip(sb.iter()) {
        assert!((x - y).abs() < 1e-12);
    }
}
