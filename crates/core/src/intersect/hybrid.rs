//! The hybrid method selection rule (Section III-C, Eq. 3), extended from the
//! paper's two kernels to a three-way cost model over four pairwise kernels,
//! plus a source-marks arm where the loop has marked the source's row.
//!
//! Comparing the asymptotic costs `O(|A| · log |B|)` (search-class kernels)
//! and `O(|A| + |B|)` (merge-class kernels) for `|A| ≤ |B|` gives the paper's
//! rule: merging is faster when `|B| / |A| ≤ log2(|B|) − 1`. The hybrid method
//! evaluates this per edge, so hub–leaf edges use a search kernel and balanced
//! edges use a merge kernel — which Table III shows beats either class used
//! exclusively.
//!
//! This reproduction keeps Eq. (3) as the class boundary but upgrades the
//! kernel chosen *within* each class:
//!
//! * merge class — [`simd_count`](super::simd::simd_count) (the SIMD block
//!   merge) instead of scalar SSI;
//! * search class — [`galloping_count`](super::galloping::galloping_count)
//!   (the block probe with a running cursor) instead of restart-from-zero
//!   binary search, which keeps the pairs with `|B| ≥ |A|²`.
//!
//! The Eq. (3) crossover is kept as the paper's approximation of the class
//! boundary, not re-derived per kernel; what each arm costs on the benchmark
//! graphs is recorded in `docs/TUNING.md`, and per list shape in the second
//! table of the `table3_intersection` bin.
//!
//! The pairwise rule is all [`IntersectMethod::resolve`] decides. The loops
//! that walk one source's edges in a row also hold the source's row as
//! [`SourceMarks`](super::marks::SourceMarks) under `Hybrid`, and there an
//! edge whose other row `B` is at most [`MARKS_FACTOR`] times the source's
//! remaining row `A` is counted by one bit probe per element of `B`
//! ([`marks_are_faster`]) before the pairwise rule is asked — a deviation
//! from the paper's pairwise Section III-C, costed in `docs/TUNING.md`
//! ("Source marks").
//!
//! Both pairwise rules are stated over `log2`, but the per-pair dispatch
//! decides them from integer brackets and evaluates the floating-point
//! expression only where the brackets cannot tell — with answers identical
//! to the floating-point definitions ([`ssi_is_faster`],
//! [`galloping_is_faster`]).

/// Which intersection kernel to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IntersectMethod {
    /// Always use scalar sorted set intersection (Algorithm 2).
    SortedSetIntersection,
    /// Always use binary search, shorter list as keys (Algorithm 1).
    BinarySearch,
    /// Always use the SIMD/branchless block-compare merge kernel.
    Simd,
    /// Always use galloping search, shorter list as keys.
    Galloping,
    /// Decide per pair with the three-way cost model: Eq. (3) picks the class
    /// ([`Simd`](IntersectMethod::Simd) merge for balanced pairs, search for
    /// skewed ones) and the probe model picks the search kernel
    /// ([`Galloping`](IntersectMethod::Galloping) when `|B| < |A|²`, else
    /// [`BinarySearch`](IntersectMethod::BinarySearch)).
    Hybrid,
}

impl IntersectMethod {
    /// All methods, in the order of Table III's columns (the paper's three
    /// first, then this reproduction's kernel upgrades).
    pub fn all() -> [IntersectMethod; 5] {
        [
            IntersectMethod::Hybrid,
            IntersectMethod::SortedSetIntersection,
            IntersectMethod::BinarySearch,
            IntersectMethod::Simd,
            IntersectMethod::Galloping,
        ]
    }

    /// Table III column label.
    pub fn label(&self) -> &'static str {
        match self {
            IntersectMethod::Hybrid => "Hybrid",
            IntersectMethod::SortedSetIntersection => "SSI",
            IntersectMethod::BinarySearch => "Binary search",
            IntersectMethod::Simd => "SIMD",
            IntersectMethod::Galloping => "Galloping",
        }
    }

    /// Resolves the per-pair decision: `Hybrid` applies the three-way cost
    /// model ([`select_kernel`]), every other method is already concrete.
    pub fn resolve(self, short_len: usize, long_len: usize) -> IntersectMethod {
        match self {
            IntersectMethod::Hybrid => select_kernel(short_len, long_len),
            concrete => concrete,
        }
    }
}

/// The rule [`IntersectMethod::Hybrid`] resolves kernels through: the
/// paper's Eq. (3) plus the `|B| < |A|²` probe rule, identical on every host.
/// It has one variant; the type survives so configurations that name it
/// keep compiling.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CostModel {
    /// Eq. (3) + `|B| < |A|²`, as written in the paper.
    #[default]
    Analytic,
}

impl CostModel {
    /// Class boundary of the fused decompress+intersect kernels: Eq. (3)
    /// unchanged ([`ssi_is_faster`]).
    pub fn compressed_merge_is_faster(&self, short_len: usize, long_len: usize) -> bool {
        ssi_is_faster(short_len, long_len)
    }
}

impl std::fmt::Display for IntersectMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Lengths from which the integer brackets below defer to the
/// floating-point definitions outright: beneath it both lengths convert to
/// `f64` exactly and `log2` of a length stays well clear of the next integer,
/// which is what makes the brackets exact. (Rows of `u32` vertex ids cannot
/// reach it.)
const BRACKET_LIMIT: usize = 1 << 40;

/// Eq. (3): for `short_len ≤ long_len`, returns true when a merge-class kernel
/// (SSI / SIMD) is expected to beat a search-class kernel (binary search /
/// galloping): `|B| / |A| ≤ log2(|B|) − 1`.
///
/// Decided without `log2` wherever `⌊log2 |B|⌋` already settles it — the
/// threshold lies in `[⌊log2 |B|⌋ − 1, ⌊log2 |B|⌋)`, so a ratio at or below
/// the lower end is merge class, one at or above the upper end is search
/// class, and only ratios strictly inside the band evaluate the expression.
pub fn ssi_is_faster(short_len: usize, long_len: usize) -> bool {
    debug_assert!(short_len <= long_len);
    if short_len == 0 || long_len == 0 {
        return true;
    }
    if long_len < BRACKET_LIMIT {
        let floor_log = long_len.ilog2() as usize;
        if long_len >= floor_log * short_len {
            return false;
        }
        if long_len <= (floor_log - 1) * short_len {
            return true;
        }
    }
    eq3_f64(short_len, long_len)
}

/// Eq. (3) as defined, for non-empty lists: the floating-point expression.
fn eq3_f64(short_len: usize, long_len: usize) -> bool {
    let ratio = long_len as f64 / short_len as f64;
    ratio <= (long_len as f64).log2() - 1.0
}

/// Within the search class: returns true when galloping is expected to beat
/// restart-from-zero binary search.
///
/// With `|A|` uniformly spread keys the cursor advances `|B| / |A|` positions
/// per key on average, so galloping pays `≈ 2·log2(|B| / |A|)` probes per key
/// (exponential probe + window binary search) against binary search's
/// `log2(|B|)` — galloping wins exactly when `|B| < |A|²`. Its probes are also
/// nearly sequential while binary search's are random, so past the cache the
/// inequality is conservative in galloping's favour.
///
/// The rule is defined as `2·log2(|B| / |A|) < log2(|B|)` in `f64`; the two
/// sides differ by `log2(|B| / |A|²)`, at least `2⁻⁴⁰` in magnitude unless
/// `|B| = |A|²` — far above the rounding error of the expression — so the
/// integer comparison decides every other pair.
pub fn galloping_is_faster(short_len: usize, long_len: usize) -> bool {
    debug_assert!(short_len <= long_len);
    if short_len == 0 || long_len == 0 {
        return true;
    }
    if long_len < BRACKET_LIMIT {
        // `short_len ≤ long_len < 2⁴⁰`, so the square fits a `u128`.
        let square = (short_len as u128) * (short_len as u128);
        if long_len as u128 != square {
            return (long_len as u128) < square;
        }
    }
    square_rule_f64(short_len, long_len)
}

/// The square rule as defined, for non-empty lists.
fn square_rule_f64(short_len: usize, long_len: usize) -> bool {
    let gap = (long_len as f64 / short_len as f64).max(1.0);
    2.0 * gap.log2() < (long_len as f64).log2()
}

/// The three-way cost model: Eq. (3) decides merge vs search, and the probe
/// model above decides which search kernel. Returns the concrete kernel for a
/// `(short, long)` pair.
pub fn select_kernel(short_len: usize, long_len: usize) -> IntersectMethod {
    if ssi_is_faster(short_len, long_len) {
        IntersectMethod::Simd
    } else if galloping_is_faster(short_len, long_len) {
        IntersectMethod::Galloping
    } else {
        IntersectMethod::BinarySearch
    }
}

/// How much longer than the source's remaining row `A` the other row `B` of
/// an edge may be for the bit probes of source marks to beat the pairwise
/// kernel: one probe per element of `B` against the block merge's
/// `|A| + |B|` elements or the search kernels' `|A|` searches. Fixed from
/// the replay of every closing pair of the seed-7 R-MAT-14 graph in
/// `docs/TUNING.md` ("Source marks"): 2 and 4 cost alike there, 1 and 8 more.
pub const MARKS_FACTOR: usize = 4;

/// The source-marks arm: with the source's row marked, returns true when
/// counting the `b_len` elements of `B` by bit probes is expected to beat
/// the pairwise kernel on `(A, B)` — `|B| ≤ MARKS_FACTOR · |A|`.
pub fn marks_are_faster(a_len: usize, b_len: usize) -> bool {
    b_len <= MARKS_FACTOR.saturating_mul(a_len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_lists_prefer_ssi() {
        // |B|/|A| = 1, log2(1024) - 1 = 9: SSI.
        assert!(ssi_is_faster(1024, 1024));
    }

    #[test]
    fn highly_skewed_lists_prefer_binary_search() {
        // |B|/|A| = 1000, log2(100000) - 1 ≈ 15.6: binary search.
        assert!(!ssi_is_faster(100, 100_000));
    }

    #[test]
    fn boundary_follows_equation_three() {
        // |B| = 4096 → log2 - 1 = 11; ratio 11 exactly satisfies "≤".
        let b = 4096usize;
        let a_at_boundary = ((b as f64) / 11.0).ceil() as usize;
        assert!(ssi_is_faster(a_at_boundary, b));
        // A slightly shorter key list pushes the ratio above the threshold.
        let a_below = (b as f64 / 12.5) as usize;
        assert!(!ssi_is_faster(a_below, b));
    }

    #[test]
    fn degenerate_lengths_default_to_ssi() {
        assert!(ssi_is_faster(0, 10));
        assert!(ssi_is_faster(0, 0));
    }

    #[test]
    fn tiny_lists_prefer_binary_search_by_the_formula() {
        // log2(4) - 1 = 1, ratio = 2 > 1 → binary search. (In practice both are
        // instantaneous; the rule is only about the asymptotic model.)
        assert!(!ssi_is_faster(2, 4));
    }

    #[test]
    fn labels_match_table3_columns() {
        let labels: Vec<&str> = IntersectMethod::all().iter().map(|m| m.label()).collect();
        assert_eq!(
            labels,
            vec!["Hybrid", "SSI", "Binary search", "SIMD", "Galloping"]
        );
    }

    #[test]
    fn hybrid_resolves_by_class() {
        // Balanced: merge class, SIMD kernel.
        assert_eq!(
            IntersectMethod::Hybrid.resolve(1024, 1024),
            IntersectMethod::Simd
        );
        // Extreme skew with few keys (|B| >= |A|^2): restart binary search.
        assert_eq!(
            IntersectMethod::Hybrid.resolve(64, 65_536),
            IntersectMethod::BinarySearch
        );
        // Large skew with enough keys (|B| < |A|^2): galloping amortizes.
        assert_eq!(
            IntersectMethod::Hybrid.resolve(4_096, 4_000_000),
            IntersectMethod::Galloping
        );
        // Concrete methods resolve to themselves regardless of shape.
        for m in IntersectMethod::all() {
            if m != IntersectMethod::Hybrid {
                assert_eq!(m.resolve(1, 1_000_000), m);
                assert_eq!(m.resolve(500, 500), m);
            }
        }
    }

    #[test]
    fn marks_take_the_rows_at_most_the_factor_longer() {
        assert!(marks_are_faster(10, 10 * MARKS_FACTOR));
        assert!(!marks_are_faster(10, 10 * MARKS_FACTOR + 1));
        assert!(marks_are_faster(1_000, 3));
        assert!(marks_are_faster(0, 0));
        assert!(!marks_are_faster(0, 1));
    }

    #[test]
    fn galloping_rule_is_the_square_boundary() {
        assert!(galloping_is_faster(1_000, 999_000 / 2));
        assert!(!galloping_is_faster(100, 100_000));
        // Degenerate inputs never panic and default to galloping.
        assert!(galloping_is_faster(0, 0));
        assert!(galloping_is_faster(0, 50));
    }

    fn assert_brackets_agree(short: usize, long: usize) {
        // Empty lists never reach the expressions: both rules answer true.
        let empty = short == 0 || long == 0;
        assert_eq!(
            ssi_is_faster(short, long),
            empty || eq3_f64(short, long),
            "Eq. (3) at ({short}, {long})"
        );
        assert_eq!(
            galloping_is_faster(short, long),
            empty || square_rule_f64(short, long),
            "square rule at ({short}, {long})"
        );
    }

    #[test]
    fn integer_brackets_answer_exactly_like_the_float_definitions() {
        for long in 0..=4096usize {
            for short in 0..=long {
                assert_brackets_agree(short, long);
            }
        }
        // Large lengths: random pairs, plus the places the brackets are
        // tightest — powers of two and their neighbours, ratios on the
        // integer ends of the Eq. (3) band, and `|B|` around `|A|²`.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(16);
        for _ in 0..200_000 {
            let (long_bits, short_bits) = (rng.gen_range(4..usize::BITS), rng.gen_range(1..40));
            let long = rng.gen_range(1..usize::MAX >> (usize::BITS - long_bits));
            let short = rng.gen_range(1..=long.min(1 << short_bits));
            assert_brackets_agree(short, long);
            let floor_log = long.ilog2() as usize;
            for ratio in [floor_log.saturating_sub(1), floor_log, floor_log + 1] {
                for short in [long / ratio.max(1), long / ratio.max(1) + 1] {
                    if (1..=long).contains(&short) {
                        assert_brackets_agree(short, long);
                    }
                }
            }
            if let Some(square) = short.checked_mul(short) {
                for long in [square.saturating_sub(1), square, square.saturating_add(1)] {
                    if long >= short {
                        assert_brackets_agree(short, long);
                    }
                }
            }
        }
        for exp in 1..usize::BITS {
            let pow = 1usize << exp;
            for long in [pow - 1, pow, pow.saturating_add(1)] {
                for short in [1, 2, 3, exp as usize, long / exp as usize, long / 2, long] {
                    if (1..=long).contains(&short) {
                        assert_brackets_agree(short, long);
                    }
                }
            }
        }
    }
}
