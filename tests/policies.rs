//! The eviction score is a performance knob, never a correctness knob: the
//! distributed LCC must produce identical scores under both of CLaMPI's
//! score rules ([`ScorePolicy`]) — only hit rates may differ — and the rule
//! selected on the [`CacheSpec`] must actually reach the cache.

use proptest::prelude::*;
use rmatc::prelude::*;

/// Both score rules, positional first.
const RULES: [ScorePolicy; 2] = [ScorePolicy::LruPositional, ScorePolicy::ApplicationScore];

/// `capacity` bytes per rank on `ranks` ranks, scored by `scoring`.
fn cached(ranks: usize, capacity: usize, scoring: ScorePolicy) -> DistConfig {
    DistConfig {
        cache: Some(CacheSpec {
            scoring,
            ..CacheSpec::paper(capacity)
        }),
        ..DistConfig::cached(ranks, capacity)
    }
}

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
    // A cache far smaller than the graph, so every rule actually evicts.
    let capacity = (g.csr_size_bytes() as usize) / 8;
    let baseline = DistLcc::new(DistConfig::non_cached(4)).run(&g);
    for scoring in RULES {
        let result = DistLcc::new(cached(4, capacity, scoring)).run(&g);
        assert_scores_equal(&baseline.lcc, &result.lcc, &format!("{scoring:?}"));
        assert!(
            result.cache_hits() > 0,
            "{scoring:?}: the cache should still hit under pressure"
        );
    }
}

#[test]
fn degree_scores_still_apply_under_paper_score_only() {
    // The reader passes every row's degree as its score; only the
    // application-score rule reads it, but neither rule may corrupt the
    // values, and `with_degree_scores` selects the rule that reads it.
    let g = RmatGenerator::paper(9, 10).generate_cleaned(7).into_csr();
    let capacity = (g.csr_size_bytes() as usize) / 8;
    assert_eq!(
        DistConfig::cached(2, capacity).with_degree_scores(),
        cached(2, capacity, ScorePolicy::ApplicationScore)
    );
    let baseline = DistLcc::new(DistConfig::non_cached(2)).run(&g);
    for scoring in RULES {
        let result = DistLcc::new(cached(2, capacity, scoring)).run(&g);
        assert_scores_equal(&baseline.lcc, &result.lcc, &format!("{scoring:?}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random small graphs, random budgets: score vectors match the
    /// non-cached baseline under both score rules.
    #[test]
    fn random_graphs_are_policy_invariant(
        seed in 0u64..1000,
        scale in 7u32..9,
        budget_shift in 2usize..6,
    ) {
        let g = RmatGenerator::paper(scale, 8).generate_cleaned(seed).into_csr();
        let capacity = ((g.csr_size_bytes() as usize) >> budget_shift).max(256);
        let baseline = DistLcc::new(DistConfig::non_cached(3)).run(&g);
        for scoring in RULES {
            let result = DistLcc::new(cached(3, capacity, scoring)).run(&g);
            prop_assert_eq!(baseline.lcc.len(), result.lcc.len());
            for (v, (x, y)) in baseline.lcc.iter().zip(result.lcc.iter()).enumerate() {
                prop_assert!(
                    (x - y).abs() < 1e-12,
                    "{:?}: vertex {} differs ({} vs {})", scoring, v, x, y
                );
            }
        }
    }
}
