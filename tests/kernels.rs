//! Differential tests of the intersection kernel suite and the shared-memory
//! range loop: every kernel must return identical counts on adversarial list
//! shapes, and the loop must reproduce the sequential result exactly at every
//! thread count, under both storages, on generated graphs.

use proptest::prelude::*;
use rmatc::prelude::*;
use rmatc_core::intersect::{
    binary_search_count, compressed_count_closing, galloping_count, simd_count, ssi_count,
    with_marked, SourceMarks, COMPRESSED_MERGE_FACTOR, MARKS_FACTOR, MERGE_FACTOR,
};
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

#[test]
fn every_kernel_agrees_on_both_sides_of_each_factor() {
    // `|B| ∈ {f·|A| − 1, f·|A|, f·|A| + 1}` for the three factors of the
    // hybrid rule: every method in both argument orders, the source marks and
    // the compressed dispatcher (either list as the compressed row, with and
    // without an upper-triangle bound) must count what the reference counts,
    // whichever kernel the boundary sends the pair to.
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(44);
    for factor in [MARKS_FACTOR, COMPRESSED_MERGE_FACTOR, MERGE_FACTOR] {
        for a_len in [1usize, 3, 17, 256] {
            for b_len in [factor * a_len - 1, factor * a_len, factor * a_len + 1] {
                let universe = 4 * b_len as u32 + 64;
                let b = distinct_sorted(&mut rng, b_len, universe);
                // Half of A drawn from B, so the pair has common elements.
                let mut a: Vec<u32> = (0..a_len)
                    .map(|i| match i % 2 {
                        0 => b[rng.gen_range(0..b.len())],
                        _ => rng.gen_range(0..universe),
                    })
                    .collect();
                // Top up past the universe to exactly `a_len` after dedup.
                a = sorted_dedup(a);
                a.extend(universe..universe + (a_len - a.len()) as u32);
                assert_eq!((a.len(), b.len()), (a_len, b_len));
                let expected = reference::sorted_intersection_count(&a, &b);
                assert_all_kernels_agree(&a, &b);
                let mut marks = SourceMarks::default();
                let marked = with_marked(Some(&mut marks), &a, |m| {
                    m.expect("marks were given").count(&b)
                });
                assert_eq!(marked, expected, "marks at |A|={a_len} |B|={b_len}");
                for (keys, row) in [(&a, &b), (&b, &a)] {
                    let mut words = Vec::new();
                    rmatc_graph::compressed::compress_row(row, &mut words);
                    for bound in [None, Some(universe / 2)] {
                        let upper: Vec<u32> = row
                            .iter()
                            .copied()
                            .filter(|&x| bound.is_none_or(|v| x > v))
                            .collect();
                        assert_eq!(
                            compressed_count_closing(keys, &words, bound, &CostModel::Analytic),
                            reference::sorted_intersection_count(keys, &upper),
                            "compressed at |keys|={} |row|={} bound {bound:?}",
                            keys.len(),
                            row.len()
                        );
                    }
                }
            }
        }
    }
}

/// `len` distinct sorted values below `universe` (`len < universe`).
fn distinct_sorted(rng: &mut impl rand::Rng, len: usize, universe: u32) -> Vec<u32> {
    let mut v = Vec::with_capacity(len);
    while v.len() < len {
        v.extend((0..len - v.len()).map(|_| rng.gen_range(0..universe)));
        v = sorted_dedup(v);
    }
    v
}

#[test]
fn compressed_kernel_shapes_keep_their_compression_ratios() {
    // The fused decode kernels' three list shapes, drawn as the kernel
    // timing table draws them (seed 7, in this order): the long list of each
    // pair is the compressed row. Ratio = plain bytes / compressed bytes,
    // ×1000; exact, so any change of the row encoding fails here.
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let mut sorted_random = |len: usize, universe: u32| {
        sorted_dedup((0..len).map(|_| rng.gen_range(0..universe)).collect())
    };
    let mut ratios = Vec::new();
    for (short, long, universe) in [
        (4_096, 4_096, 1 << 20),
        (64, 65_536, 1 << 20),
        (1_024, 65_536, 1 << 22),
    ] {
        let _keys = sorted_random(short, universe);
        let row = sorted_random(long, universe);
        let mut words = Vec::new();
        rmatc_graph::compressed::compress_row(&row, &mut words);
        ratios.push((row.len() as f64 / words.len() as f64 * 1e3).round() as u64);
    }
    // balanced 4k, hub-leaf 1024x, skewed 64x
    assert_eq!(ratios, [2_747, 4_146, 3_310]);
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
