//! Differential tests of the intersection kernel suite and the shared-memory
//! range loop: every kernel must return identical counts on adversarial list
//! shapes, and the loop must reproduce the sequential result exactly at every
//! thread count, under both storages, on generated graphs.

use proptest::prelude::*;
use rmatc::prelude::*;
use rmatc_core::intersect::{binary_search_count, galloping_count, simd_count, ssi_count};
use rmatc_core::Intersector;
use rmatc_graph::reference;

/// Every sequential kernel, by label, for differential comparison.
fn kernel_counts(a: &[u32], b: &[u32]) -> Vec<(&'static str, u64)> {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    vec![
        ("ssi", ssi_count(a, b)),
        ("simd", simd_count(a, b)),
        ("binary", binary_search_count(short, long)),
        ("galloping", galloping_count(short, long)),
    ]
}

fn assert_all_kernels_agree(a: &[u32], b: &[u32]) {
    let expected = reference::sorted_intersection_count(a, b);
    for (name, got) in kernel_counts(a, b) {
        assert_eq!(got, expected, "{name} on |a|={} |b|={}", a.len(), b.len());
    }
    for method in IntersectMethod::all() {
        assert_eq!(Intersector::new(method).count(a, b), expected, "{method:?}");
        assert_eq!(
            Intersector::new(method).count(b, a),
            expected,
            "{method:?} swapped"
        );
    }
}

#[test]
fn kernels_agree_on_handpicked_adversarial_shapes() {
    let empty: Vec<u32> = vec![];
    let one = vec![7u32];
    let all_equal_a: Vec<u32> = (0..500).collect();
    let evens: Vec<u32> = (0..2_000).map(|x| x * 2).collect();
    let odds: Vec<u32> = (0..2_000).map(|x| x * 2 + 1).collect();
    // Hub-leaf skew >= 1000x.
    let leaf = vec![5u32, 40_000, 99_999, 163_841];
    let hub: Vec<u32> = (0..163_842).collect();
    let cases: Vec<(&[u32], &[u32])> = vec![
        (&empty, &empty),
        (&empty, &all_equal_a),
        (&one, &empty),
        (&one, &one),
        (&one, &all_equal_a),
        (&all_equal_a, &all_equal_a),
        (&evens, &odds),
        (&evens, &evens),
        (&leaf, &hub),
    ];
    for (a, b) in cases {
        assert_all_kernels_agree(a, b);
    }
}

fn sorted_dedup(mut v: Vec<u32>) -> Vec<u32> {
    v.sort_unstable();
    v.dedup();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn kernels_agree_on_random_lists(a in prop::collection::vec(0u32..2_000, 0..400),
                                     b in prop::collection::vec(0u32..2_000, 0..400)) {
        let a = sorted_dedup(a);
        let b = sorted_dedup(b);
        let expected = reference::sorted_intersection_count(&a, &b);
        for (name, got) in kernel_counts(&a, &b) {
            prop_assert_eq!(got, expected, "{} diverged", name);
        }
    }

    #[test]
    fn kernels_agree_on_hub_leaf_skew(keys in prop::collection::vec(0u32..4_000_000, 1..40),
                                      hub_len in 40_000usize..80_000,
                                      stride in 1u32..60) {
        // >= 1000x skew by construction: <= 40 keys vs >= 40k hub entries.
        let keys = sorted_dedup(keys);
        let hub: Vec<u32> = (0..hub_len as u32).map(|x| x * stride).collect();
        let expected = reference::sorted_intersection_count(&keys, &hub);
        for (name, got) in kernel_counts(&keys, &hub) {
            prop_assert_eq!(got, expected, "{} diverged at skew {}", name,
                            hub.len() / keys.len().max(1));
        }
    }

    #[test]
    fn methods_agree_through_the_full_local_run(seed in 0u64..8) {
        let g = RmatGenerator::paper(7, 8).generate_cleaned(seed).into_csr();
        let expected = reference::count_triangles(&g);
        for method in IntersectMethod::all() {
            let r = LocalLcc::new(LocalConfig::sequential().with_method(method)).run(&g);
            prop_assert_eq!(r.triangle_count, expected, "{:?}", method);
        }
    }

    #[test]
    fn parallel_strategies_match_sequential_on_rmat(seed in 0u64..12, threads in 1usize..=8) {
        // Hub-heavy R-MAT: the degree weighting moves range boundaries the
        // most here, and must still change no bit of the result.
        let g = RmatGenerator::paper(8, 8).generate_cleaned(seed).into_csr();
        assert_range_loop_matches_sequential(&g, threads)?;
    }

    #[test]
    fn parallel_strategies_match_sequential_on_watts_strogatz(seed in 0u64..12,
                                                              beta_pct in 0u32..100,
                                                              threads in 1usize..=8) {
        // Near-regular counterpoint: hardly any skew for the weighting to balance.
        let g = WattsStrogatz::new(300, 6, beta_pct as f64 / 100.0)
            .generate_cleaned(seed)
            .into_csr();
        assert_range_loop_matches_sequential(&g, threads)?;
    }

    #[test]
    fn range_loop_matches_sequential_on_directed_graphs(seed in 0u64..12,
                                                        threads in 1usize..=8) {
        assert_range_loop_matches_sequential(&directed_graph(seed), threads)?;
    }

    #[test]
    fn schedules_agree_on_rmat(seed in 0u64..12, scale in 2u32..9) {
        // The loop schedules one range at 1 thread and `threads · 8`
        // degree-weighted ranges above it. R-MAT graphs of 4 to 256 vertices
        // put the small scales below the range count at every thread count.
        let g = RmatGenerator::paper(scale, 8).generate_cleaned(seed).into_csr();
        assert_every_range_count_agrees(&g)?;
    }

    #[test]
    fn schedules_agree_on_watts_strogatz(seed in 0u64..12, vertices in 8usize..300,
                                         beta_pct in 0u32..100) {
        let g = WattsStrogatz::new(vertices, 6, beta_pct as f64 / 100.0)
            .generate_cleaned(seed)
            .into_csr();
        assert_every_range_count_agrees(&g)?;
    }
}

/// Runs the range loop at `threads` under both storages and checks it
/// bit-identical to the sequential plain run, which itself must match the
/// reference counts.
fn assert_range_loop_matches_sequential(g: &CsrGraph, threads: usize) -> TestCaseResult {
    let plain = LocalConfig::sequential().with_storage(GraphStorage::Plain);
    let seq = LocalLcc::new(plain).run(g);
    prop_assert_eq!(
        &seq.per_vertex_triangles,
        &reference::per_vertex_triangles(g)
    );
    for storage in [GraphStorage::Plain, GraphStorage::Compressed] {
        let par = LocalLcc::new(LocalConfig::parallel(threads).with_storage(storage)).run(g);
        prop_assert_eq!(
            &par.per_vertex_triangles,
            &seq.per_vertex_triangles,
            "{:?} threads={}",
            storage,
            threads
        );
        prop_assert_eq!(par.edges_processed, seq.edges_processed);
        for (a, b) in par.lcc.iter().zip(&seq.lcc) {
            prop_assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{:?} threads={}",
                storage,
                threads
            );
        }
    }
    Ok(())
}

/// Sweeps every thread count from 1 to 8, so the one-range schedule and every
/// degree-weighted cut from 16 to 64 ranges, and checks that each storage
/// gives the one-range result at all of them.
fn assert_every_range_count_agrees(g: &CsrGraph) -> TestCaseResult {
    for storage in [GraphStorage::Plain, GraphStorage::Compressed] {
        let one_range = LocalLcc::new(LocalConfig::sequential().with_storage(storage)).run(g);
        for threads in 2..=8 {
            let cut = LocalLcc::new(LocalConfig::parallel(threads).with_storage(storage)).run(g);
            prop_assert_eq!(
                &cut.per_vertex_triangles,
                &one_range.per_vertex_triangles,
                "{:?} threads={}",
                storage,
                threads
            );
            prop_assert_eq!(cut.edges_processed, one_range.edges_processed);
            for (a, b) in cut.lcc.iter().zip(&one_range.lcc) {
                prop_assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{:?} threads={}",
                    storage,
                    threads
                );
            }
        }
    }
    Ok(())
}

/// A dense 40-vertex directed graph whose missing arcs depend on `seed`.
fn directed_graph(seed: u64) -> CsrGraph {
    let mut edges = Vec::new();
    for u in 0..40u32 {
        for v in 0..40u32 {
            if u != v && (u as u64 * 7 + v as u64 + seed) % 3 != 0 {
                edges.push((u, v));
            }
        }
    }
    CsrGraph::from_edges(40, &edges, Direction::Directed)
}

#[test]
fn range_loop_handles_more_ranges_than_vertices() {
    // 8 threads cut 64 ranges: most of them are empty on a 5-vertex graph.
    let mut edges = Vec::new();
    for u in 0..5u32 {
        for v in 0..5u32 {
            if u != v && (u, v) != (0, 1) && (u, v) != (1, 0) {
                edges.push((u, v));
            }
        }
    }
    let g = CsrGraph::from_edges(5, &edges, Direction::Undirected);
    for storage in [GraphStorage::Plain, GraphStorage::Compressed] {
        let par = LocalLcc::new(LocalConfig::parallel(8).with_storage(storage)).run(&g);
        assert_eq!(
            par.per_vertex_triangles,
            reference::per_vertex_triangles(&g),
            "{storage:?}"
        );
        assert_eq!(par.edges_processed, g.edge_count());
    }
}
