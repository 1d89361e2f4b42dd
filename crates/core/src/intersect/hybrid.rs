//! The hybrid method selection rule (Section III-C), with the boundaries
//! measured for this repository's kernels instead of Eq. (3).
//!
//! The paper compares the asymptotic costs `O(|A| · log |B|)` (binary
//! search) and `O(|A| + |B|)` (SSI) for `|A| ≤ |B|` and merges while the
//! ratio `|B| / |A|` is at most one less than the binary logarithm of `|B|`
//! (Eq. 3), so hub–leaf edges search and balanced edges merge — which
//! Table III shows beats either kernel used exclusively. Eq. (3) was derived
//! for scalar SSI. The block merge ([`simd_count`](super::simd::simd_count))
//! that replaces SSI here costs a fraction of it per element, which moves
//! the crossover.
//!
//! So every per-pair decision here is a length ratio, `long ≤ FACTOR ·
//! short`, the way Lemire, Boytsov and Kurz pick between a SIMD merge and a
//! search kernel ("SIMD compression and the intersection of sorted
//! integers", SP&E 2016). Each factor is a constant fixed from a recorded
//! replay (`docs/TUNING.md`, "Merge/search boundary" and "Source marks"):
//!
//! * [`MARKS_FACTOR`] — where a loop walking one source's edges in a row has
//!   marked the source's row as [`SourceMarks`](super::marks::SourceMarks),
//!   an edge whose other row `B` is within it of the source's remaining row
//!   `A` is counted by one bit probe per element of `B`
//!   ([`marks_are_faster`]);
//! * [`MERGE_FACTOR`] — otherwise, on plain rows, the block merge runs
//!   within it and the block probe
//!   ([`galloping_count`](super::galloping::galloping_count)) beyond it
//!   ([`select_kernel`]);
//! * [`COMPRESSED_MERGE_FACTOR`] — the same boundary between the fused
//!   kernels of compressed rows ([`compressed_merge_is_faster`]).
//!
//! The pairwise rule is all [`IntersectMethod::resolve`] decides, so
//! `Hybrid` resolves to exactly two kernels.

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
    /// Decide per pair ([`select_kernel`]): the
    /// [`Simd`](IntersectMethod::Simd) merge while `|B| ≤ MERGE_FACTOR ·
    /// |A|`, [`Galloping`](IntersectMethod::Galloping) beyond.
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

    /// Resolves the per-pair decision: `Hybrid` applies [`select_kernel`],
    /// every other method is already concrete.
    pub fn resolve(self, short_len: usize, long_len: usize) -> IntersectMethod {
        match self {
            IntersectMethod::Hybrid => select_kernel(short_len, long_len),
            concrete => concrete,
        }
    }
}

/// The rule [`IntersectMethod::Hybrid`] resolves kernels through: the fixed
/// factors of this module, identical on every host. It has one variant; the
/// type survives so configurations that name it keep compiling.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CostModel {
    /// The ratio rules of this module.
    #[default]
    Analytic,
}

impl std::fmt::Display for IntersectMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// `long ≤ factor · short`: the one shape of every per-pair decision.
fn within(factor: usize, short_len: usize, long_len: usize) -> bool {
    long_len <= factor.saturating_mul(short_len)
}

/// How much longer than the short list the long one may be for the block
/// merge ([`simd_count`](super::simd::simd_count)) to beat the block probe
/// on plain rows. Fixed from the replay of the closing pairs the source marks
/// leave on R-MAT-14 (seeds 7 and 11), R-MAT-17 and R-MAT-18, and of every
/// whole-row pair on R-MAT-14, in `docs/TUNING.md` ("Merge/search boundary").
pub const MERGE_FACTOR: usize = 32;

/// The same boundary between the fused kernels of compressed rows
/// ([`compressed_simd_count`](super::compressed::compressed_simd_count)
/// against [`compressed_skip_count`](super::compressed::compressed_skip_count)),
/// lower because decoding makes every merged element dearer. Fixed from the
/// replay of every whole-row and closing pair of R-MAT-14 over compressed
/// rows in `docs/TUNING.md` ("Merge/search boundary").
pub const COMPRESSED_MERGE_FACTOR: usize = 8;

/// How much longer than the source's remaining row `A` the other row `B` of
/// an edge may be for the bit probes of source marks to beat the pairwise
/// kernel: one probe per element of `B` against the block merge's
/// `|A| + |B|` elements or the block probe's `|A|` searches. Fixed from the
/// replay of every closing pair of the seed-7 R-MAT-14 graph in
/// `docs/TUNING.md` ("Source marks"): 2 and 4 cost alike there, 1 and 8 more.
pub const MARKS_FACTOR: usize = 4;

/// For `short_len ≤ long_len`: true when the fused block merge is expected
/// to beat the header-skipping search on a compressed row,
/// `|B| ≤ COMPRESSED_MERGE_FACTOR · |A|`.
pub fn compressed_merge_is_faster(short_len: usize, long_len: usize) -> bool {
    within(COMPRESSED_MERGE_FACTOR, short_len, long_len)
}

/// The kernel [`IntersectMethod::Hybrid`] runs on a `(short, long)` pair of
/// plain rows: the block merge while `|B| ≤ MERGE_FACTOR · |A|`, the block
/// probe beyond.
pub fn select_kernel(short_len: usize, long_len: usize) -> IntersectMethod {
    if within(MERGE_FACTOR, short_len, long_len) {
        IntersectMethod::Simd
    } else {
        IntersectMethod::Galloping
    }
}

/// The source-marks arm: with the source's row marked, returns true when
/// counting the `b_len` elements of `B` by bit probes is expected to beat
/// the pairwise kernel on `(A, B)` — `|B| ≤ MARKS_FACTOR · |A|`.
pub fn marks_are_faster(a_len: usize, b_len: usize) -> bool {
    within(MARKS_FACTOR, a_len, b_len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_table3_columns() {
        let labels: Vec<&str> = IntersectMethod::all().iter().map(|m| m.label()).collect();
        assert_eq!(
            labels,
            vec!["Hybrid", "SSI", "Binary search", "SIMD", "Galloping"]
        );
    }

    #[test]
    fn each_rule_switches_kernel_at_its_factor() {
        use IntersectMethod::{Galloping, Simd};
        for short in [1, 10, 4_096] {
            let at = MERGE_FACTOR * short;
            assert_eq!(IntersectMethod::Hybrid.resolve(short, at), Simd);
            assert_eq!(IntersectMethod::Hybrid.resolve(short, at + 1), Galloping);
            let at = COMPRESSED_MERGE_FACTOR * short;
            assert!(compressed_merge_is_faster(short, at));
            assert!(!compressed_merge_is_faster(short, at + 1));
            let at = MARKS_FACTOR * short;
            assert!(marks_are_faster(short, at));
            assert!(!marks_are_faster(short, at + 1));
        }
        // The kernel table's hub-leaf and 1000x shapes stay with the search
        // kernel; balanced pairs merge.
        assert_eq!(IntersectMethod::Hybrid.resolve(64, 65_536), Galloping);
        assert_eq!(IntersectMethod::Hybrid.resolve(4_200, 4_200_000), Galloping);
        assert_eq!(IntersectMethod::Hybrid.resolve(4_096, 4_096), Simd);
        // Empty key lists search (nothing); the marks take only empty rows.
        assert_eq!(IntersectMethod::Hybrid.resolve(0, 10), Galloping);
        assert_eq!(IntersectMethod::Hybrid.resolve(0, 0), Simd);
        assert!(marks_are_faster(1_000, 3));
        assert!(marks_are_faster(0, 0));
        assert!(!marks_are_faster(0, 1));
        // Concrete methods resolve to themselves regardless of shape.
        for m in IntersectMethod::all() {
            if m != IntersectMethod::Hybrid {
                assert_eq!(m.resolve(1, 1_000_000), m);
                assert_eq!(m.resolve(500, 500), m);
            }
        }
    }
}
