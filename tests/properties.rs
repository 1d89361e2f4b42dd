//! Property-based tests (proptest) of the core invariants: CSR construction,
//! partitioning, intersection kernels, LCC bounds, and cache behaviour hold for
//! arbitrary random graphs and access patterns, not just the hand-picked fixtures.

use proptest::prelude::*;
use rmatc::prelude::*;
use rmatc_clampi::{Clampi, EntryKey};
use rmatc_core::intersect::{with_marked, SourceMarks};
use rmatc_core::local::{count_closing, count_closing_at};
use rmatc_core::Intersector;
use rmatc_graph::reference;
use rmatc_graph::types::Direction;
use rmatc_rma::WindowId;

/// Strategy: a random undirected graph as (vertex count, edge list).
fn arb_undirected_graph() -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (4usize..40).prop_flat_map(|n| {
        let edges = prop::collection::vec((0..n as u32, 0..n as u32), 0..200);
        (Just(n), edges)
    })
}

/// Strategy: a random graph of either direction with up to three planted
/// hubs, each adjacent to about two thirds of the vertices, so hub–leaf
/// edges (`|B|` far above or below `|A|`) sit next to balanced ones.
fn arb_hub_graph() -> impl Strategy<Value = CsrGraph> {
    (8usize..64, any::<bool>()).prop_flat_map(|(n, directed)| {
        let edges = prop::collection::vec((0..n as u32, 0..n as u32), 0..150);
        let hubs = prop::collection::vec(0..n as u32, 0..4);
        (edges, hubs).prop_map(move |(mut edges, hubs)| {
            for h in hubs {
                edges.extend(
                    (0..n as u32)
                        .filter(|&w| (w * 7 + h) % 3 != 0)
                        .map(|w| (h, w)),
                );
            }
            let direction = if directed {
                Direction::Directed
            } else {
                Direction::Undirected
            };
            let mut el = EdgeList::from_edges(n, edges, direction).unwrap();
            el.remove_self_loops();
            if !directed {
                el.symmetrize();
            }
            el.into_csr()
        })
    })
}

fn build_csr(n: usize, edges: &[(u32, u32)]) -> CsrGraph {
    let mut el = EdgeList::from_edges(n, edges.to_vec(), Direction::Undirected).unwrap();
    el.remove_self_loops();
    el.symmetrize();
    el.into_csr()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn csr_roundtrips_the_edge_set((n, edges) in arb_undirected_graph()) {
        let csr = build_csr(n, &edges);
        prop_assert!(csr.adjacency_lists_sorted());
        prop_assert!(csr.adjacency_in_range());
        prop_assert!(csr.is_symmetric());
        // Every original (non-loop) edge is present after symmetrization.
        for &(u, v) in &edges {
            if u != v {
                prop_assert!(csr.has_edge(u, v) && csr.has_edge(v, u));
            }
        }
    }

    #[test]
    fn lcc_scores_are_probabilities((n, edges) in arb_undirected_graph()) {
        let csr = build_csr(n, &edges);
        for (v, score) in reference::lcc_scores(&csr).iter().enumerate() {
            prop_assert!((0.0..=1.0).contains(score), "vertex {} has LCC {}", v, score);
        }
    }

    #[test]
    fn partitioning_preserves_edges_and_reassembles((n, edges) in arb_undirected_graph(),
                                                    ranks in 1usize..6) {
        let csr = build_csr(n, &edges);
        let ranks = ranks.min(csr.vertex_count().max(1));
        for scheme in [PartitionScheme::Block1D, PartitionScheme::Cyclic] {
            let pg = PartitionedGraph::from_global(&csr, scheme, ranks).unwrap();
            prop_assert_eq!(pg.reassemble(), csr.clone());
            prop_assert_eq!(pg.global_edge_count(), csr.edge_count());
            let frac = pg.remote_edge_fraction();
            prop_assert!((0.0..=1.0).contains(&frac));
            if ranks == 1 {
                prop_assert_eq!(frac, 0.0);
            }
        }
    }

    #[test]
    fn all_intersection_kernels_agree(mut a in prop::collection::vec(0u32..500, 0..80),
                                      mut b in prop::collection::vec(0u32..500, 0..80)) {
        a.sort_unstable();
        a.dedup();
        b.sort_unstable();
        b.dedup();
        let expected = reference::sorted_intersection_count(&a, &b);
        for method in IntersectMethod::all() {
            let ix = rmatc_core::Intersector::new(method);
            prop_assert_eq!(ix.count(&a, &b), expected);
            prop_assert_eq!(ix.count(&b, &a), expected);
        }
    }

    #[test]
    fn marked_closing_counts_equal_the_general_form(g in arb_hub_graph()) {
        // One set of marks walks every source in order, as the loops do, so
        // a mark left over from one source would surface in a later one.
        let direction = g.direction();
        for method in IntersectMethod::all() {
            let ix = Intersector::new(method);
            let mut marks = SourceMarks::default();
            for u in 0..g.vertex_count() as u32 {
                let adj_u = g.neighbours(u);
                with_marked(Some(&mut marks), adj_u, |marks| {
                    for (k, &v) in adj_u.iter().enumerate() {
                        let adj_v = g.neighbours(v);
                        prop_assert_eq!(
                            count_closing_at(direction, adj_u, adj_v, v, k, &ix, marks),
                            count_closing(direction, adj_u, adj_v, v, &ix),
                            "{:?} u={} v={}", method, u, v
                        );
                    }
                    Ok(())
                })?;
            }
            let local = LocalLcc::new(
                LocalConfig::sequential()
                    .with_method(method)
                    .with_storage(GraphStorage::Plain),
            )
            .run(&g);
            prop_assert_eq!(&local.per_vertex_triangles, &reference::per_vertex_triangles(&g));
        }
        let ranks = 3.min(g.vertex_count());
        let dist = DistLcc::new(DistConfig::non_cached(ranks).with_storage(GraphStorage::Plain))
            .run(&g);
        let expected = reference::lcc_scores(&g);
        for (a, b) in dist.lcc.iter().zip(expected.iter()) {
            prop_assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn distributed_equals_reference_on_random_graphs((n, edges) in arb_undirected_graph(),
                                                     ranks in 1usize..5) {
        let csr = build_csr(n, &edges);
        if csr.vertex_count() == 0 {
            return Ok(());
        }
        let ranks = ranks.min(csr.vertex_count());
        let result = DistLcc::new(DistConfig::non_cached(ranks)).run(&csr);
        prop_assert_eq!(result.triangle_count, reference::count_triangles(&csr));
        let expected = reference::lcc_scores(&csr);
        for (a, b) in result.lcc.iter().zip(expected.iter()) {
            prop_assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn compressed_storage_is_bit_identical_on_random_graphs((n, edges) in arb_undirected_graph(),
                                                            ranks in 1usize..5,
                                                            cached in proptest::prelude::any::<bool>(),
                                                            depth in 1usize..6) {
        // The differential claim of the compressed storage mode: for an
        // arbitrary graph, every pipeline — local, distributed
        // cached/non-cached, and the overlapped worker at an arbitrary
        // depth — produces bit-identical scores to its plain-CSR twin.
        let csr = build_csr(n, &edges);
        if csr.vertex_count() == 0 {
            return Ok(());
        }
        let local_plain = LocalLcc::new(LocalConfig::sequential()).run(&csr);
        let local_compressed =
            LocalLcc::new(LocalConfig::sequential().with_storage(GraphStorage::Compressed))
                .run(&csr);
        prop_assert_eq!(local_plain.lcc, local_compressed.lcc);

        let ranks = ranks.min(csr.vertex_count());
        let mut cfg = DistConfig::non_cached(ranks).with_storage(GraphStorage::Plain);
        if cached {
            cfg.cache = Some(CacheSpec::paper(1 << 18));
            cfg = cfg.with_degree_scores();
        }
        let plain = DistLcc::new(cfg).run(&csr);
        let compressed = DistLcc::new(cfg.with_storage(GraphStorage::Compressed)).run(&csr);
        prop_assert_eq!(&plain.lcc, &compressed.lcc);
        prop_assert_eq!(plain.triangle_count, compressed.triangle_count);

        let overlapped = DistLcc::new(
            cfg.with_storage(GraphStorage::Compressed).with_pipeline_depth(depth),
        )
        .run(&csr);
        prop_assert_eq!(&plain.lcc, &overlapped.lcc);
    }

    #[test]
    fn tric_equals_reference_on_random_graphs((n, edges) in arb_undirected_graph(),
                                              ranks in 1usize..4,
                                              buffer in 1usize..64) {
        let csr = build_csr(n, &edges);
        if csr.vertex_count() == 0 {
            return Ok(());
        }
        let ranks = ranks.min(csr.vertex_count());
        let result = Tric::new(TricConfig::buffered_with(ranks, buffer)).run(&csr);
        prop_assert_eq!(result.triangle_count, reference::count_triangles(&csr));
    }

    #[test]
    fn triangle_count_is_invariant_under_relabeling((n, edges) in arb_undirected_graph(),
                                                    seed in 0u64..1000) {
        let csr = build_csr(n, &edges);
        let mut el = EdgeList::from_edges(
            csr.vertex_count(),
            csr.edges().collect(),
            Direction::Undirected,
        ).unwrap();
        let perm = rmatc_graph::relabel::random_permutation(csr.vertex_count(), seed);
        el.relabel(&perm);
        let relabeled = el.into_csr();
        prop_assert_eq!(
            reference::count_triangles(&csr),
            reference::count_triangles(&relabeled)
        );
    }

    #[test]
    fn cache_never_returns_wrong_data(ops in prop::collection::vec((0usize..32, 1usize..8), 1..200),
                                      capacity in 16usize..512,
                                      slots in 1usize..64) {
        // A model-based test: the cache answers must always equal what the "window"
        // (here a deterministic function of the key) would return.
        let mut cache: Clampi<u32> = Clampi::new(ClampiConfig::always_cache(capacity, slots));
        for (offset, len) in ops {
            let key = EntryKey::new(WindowId(7), 1, offset, len);
            let expected: Vec<u32> = (0..len as u32).map(|i| (offset as u32) * 1000 + i).collect();
            match cache.lookup(key) {
                Some(hit) => prop_assert_eq!(hit.as_ref(), &expected),
                None => {
                    cache.insert(key, expected.clone(), len as f64);
                }
            }
        }
        let stats = cache.stats().clone();
        prop_assert_eq!(stats.lookups(), stats.hits + stats.misses);
        prop_assert!(stats.compulsory_misses <= stats.misses);
        prop_assert!(cache.occupied_bytes() <= cache.config().capacity_bytes);
    }
}

/// Two consecutive sources with overlapping neighbourhoods: `0` is adjacent
/// to `2..=7` and `1` to `2` and `8`. On the edge `(1, 2)`, `A = {8}` and
/// `B = adj(2) ∩ (2, ∞) = {3, 4, 5, 8}`, so `Hybrid` counts it by probing
/// `1`'s marks (`|B| ≤ 4·|A|`); marks of `0` still set would add `3, 4, 5`.
/// Every loop that marks sources — `LocalLcc`'s ranges, the distributed edge
/// loop and the service's `LccOf` fold — must count `1` one triangle.
#[test]
fn source_marks_are_cleared_before_the_next_source() {
    let edges = vec![
        (0, 2),
        (0, 3),
        (0, 4),
        (0, 5),
        (0, 6),
        (0, 7),
        (1, 2),
        (1, 8),
        (2, 3),
        (2, 4),
        (2, 5),
        (2, 8),
    ];
    let g = build_csr(9, &edges);
    let expected = reference::per_vertex_triangles(&g);
    assert_eq!(&expected[..2], &[3, 1]);
    let scores = reference::lcc_scores(&g);

    for threads in [1, 2] {
        let config = LocalConfig::parallel(threads).with_storage(GraphStorage::Plain);
        let local = LocalLcc::new(config).run(&g);
        assert_eq!(local.per_vertex_triangles, expected, "{threads} threads");
    }
    for (ranks, cached) in [(1, false), (2, false), (2, true)] {
        let mut config = DistConfig::non_cached(ranks).with_storage(GraphStorage::Plain);
        if cached {
            config.cache = Some(CacheSpec::paper(1 << 16));
        }
        let dist = DistLcc::new(config).run(&g);
        assert_eq!(dist.lcc, scores, "{ranks} ranks, cached={cached}");
    }
    let config = ServiceConfig::new(DistConfig::non_cached(1).with_storage(GraphStorage::Plain));
    let mut engine = QueryEngine::new(&g, config).unwrap();
    for v in [0, 1] {
        engine.submit(Query::LccOf { v }).unwrap();
    }
    let answers: Vec<QueryAnswer> = engine
        .run_batch()
        .into_iter()
        .map(|r| r.result.unwrap())
        .collect();
    assert_eq!(
        answers,
        vec![QueryAnswer::Lcc(scores[0]), QueryAnswer::Lcc(scores[1])]
    );
}
