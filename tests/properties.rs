//! Property-based tests (proptest) of the core invariants: CSR construction,
//! partitioning, intersection kernels, LCC bounds, and cache behaviour hold for
//! arbitrary random graphs and access patterns, not just the hand-picked fixtures.

use proptest::prelude::*;
use rmatc::prelude::*;
use rmatc_clampi::{Clampi, EntryKey};
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
