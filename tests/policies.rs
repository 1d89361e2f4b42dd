//! Eviction policies are a performance knob, never a correctness knob: the
//! distributed LCC must produce identical scores under every
//! [`EvictionPolicyKind`] — only hit rates may differ — and the policy
//! selection must actually reach the cache.

use proptest::prelude::*;
use rmatc::prelude::*;

fn assert_scores_equal(a: &[f64], b: &[f64], context: &str) {
    assert_eq!(a.len(), b.len(), "{context}: length mismatch");
    for (v, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert!(
            (x - y).abs() < 1e-12,
            "{context}: vertex {v} differs ({x} vs {y})"
        );
    }
}

#[test]
fn lcc_scores_are_invariant_under_every_policy() {
    let g = RmatGenerator::paper(10, 12).generate_cleaned(33).into_csr();
    // A cache far smaller than the graph, so every policy actually evicts.
    let capacity = (g.csr_size_bytes() as usize) / 8;
    let baseline = DistLcc::new(DistConfig::non_cached(4)).run(&g);
    for kind in EvictionPolicyKind::ALL {
        let cfg = DistConfig::cached(4, capacity).with_eviction_policy(kind);
        let result = DistLcc::new(cfg).run(&g);
        assert_scores_equal(&baseline.lcc, &result.lcc, kind.name());
        assert!(
            result.cache_hits() > 0,
            "{}: the cache should still hit under pressure",
            kind.name()
        );
    }
}

#[test]
fn degree_scores_still_apply_under_paper_score_only() {
    // ScoreMode::DegreeCentrality feeds degrees as user scores; only the
    // PaperScore policy reads them, but no policy may corrupt the values.
    let g = RmatGenerator::paper(9, 10).generate_cleaned(7).into_csr();
    let capacity = (g.csr_size_bytes() as usize) / 8;
    let baseline = DistLcc::new(DistConfig::non_cached(2)).run(&g);
    for kind in EvictionPolicyKind::ALL {
        let cfg = DistConfig::cached(2, capacity)
            .with_degree_scores()
            .with_eviction_policy(kind);
        let result = DistLcc::new(cfg).run(&g);
        assert_scores_equal(&baseline.lcc, &result.lcc, kind.name());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random small graphs, random budgets: score vectors match the
    /// non-cached baseline under every policy, with and without degree
    /// scores.
    #[test]
    fn random_graphs_are_policy_invariant(
        seed in 0u64..1000,
        scale in 7u32..9,
        budget_shift in 2usize..6,
        degree_scores in any::<bool>(),
    ) {
        let g = RmatGenerator::paper(scale, 8).generate_cleaned(seed).into_csr();
        let capacity = ((g.csr_size_bytes() as usize) >> budget_shift).max(256);
        let baseline = DistLcc::new(DistConfig::non_cached(3)).run(&g);
        for kind in EvictionPolicyKind::ALL {
            let mut cfg = DistConfig::cached(3, capacity).with_eviction_policy(kind);
            if degree_scores {
                cfg = cfg.with_degree_scores();
            }
            let result = DistLcc::new(cfg).run(&g);
            prop_assert_eq!(baseline.lcc.len(), result.lcc.len());
            for (v, (x, y)) in baseline.lcc.iter().zip(result.lcc.iter()).enumerate() {
                prop_assert!(
                    (x - y).abs() < 1e-12,
                    "{}: vertex {} differs ({} vs {})", kind.name(), v, x, y
                );
            }
        }
    }
}
