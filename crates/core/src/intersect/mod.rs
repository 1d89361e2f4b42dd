//! Frontier-intersection kernels.
//!
//! Triangle counting reduces to computing `|adj(v_i) ∩ adj(v_j)|` for every edge.
//! The paper uses two kernels — binary search and sorted set intersection (SSI) —
//! plus a hybrid rule (Eq. 3) that picks per edge. It also parallelizes each
//! intersection across threads (Section III-C); this reproduction runs every
//! intersection sequentially and parallelizes over vertex ranges instead
//! ([`crate::local`]).
//!
//! This reproduction extends the suite with two block kernels in the same two
//! cost classes, selected by the same Eq. (3) boundary, both written once
//! over a per-ISA block step (AVX2, SSE2, scalar):
//!
//! * [`simd`] — the block merge (`O(|A| + |B|)`), the merge-class upgrade of
//!   SSI: all-pairs compares of one block from each list, advancing the block
//!   with the smaller maximum;
//! * [`galloping`] — the block probe (`O(|A| · (1 + log(|B|/|A|)))`), the
//!   search-class upgrade of binary search: each key is compared against the
//!   one block that can hold it, found by a running cursor that gallops over
//!   block maxima. The block merge hands its sub-block remainders to it;
//! * [`fused`] — the block merge with landing switched on, used by the
//!   distributed path: a remote row that missed the CLaMPI cache is
//!   intersected against the local row in the same block pass that lands it
//!   in the cache buffer;
//! * [`compressed`] — fused decompress+intersect kernels over the
//!   delta/varint rows of [`rmatc_graph::compressed`]: a scalar reference, a
//!   block-decode (AVX2-unpacked) merge feeding [`simd_count`], a
//!   header-skipping search variant that gallops across block maxima without
//!   decoding, and the copy+decode+intersect miss path
//!   ([`copy_decode_intersect`]).
//!
//! Which kernel runs is fixed by the analytic rule of [`hybrid`] — Eq. (3)
//! for the class, `|B| < |A|²` for the search kernel — on every host.
//!
//! Every kernel is a plain-slice entry point (`&[VertexId]`), so callers can
//! run them directly over borrowed views — local CSR rows, cached CLaMPI
//! entries, or fetched transfer buffers — without materializing owned copies.

pub mod binary;
pub mod compressed;
pub mod fused;
pub mod galloping;
pub mod hybrid;
pub mod simd;
pub mod ssi;

pub use binary::binary_search_count;
pub use compressed::{
    compressed_count_closing, compressed_scalar_count, compressed_simd_count,
    compressed_skip_count, copy_decode_intersect, copy_decode_intersect_into,
};
pub use fused::{copy_intersect, copy_intersect_into};
pub use galloping::galloping_count;
pub use hybrid::{galloping_is_faster, select_kernel, ssi_is_faster, CostModel, IntersectMethod};
pub use simd::simd_count;
pub use ssi::ssi_count;

use rmatc_graph::types::VertexId;

/// A sequential intersector: picks the kernel according to the configured
/// method, resolving `Hybrid` per pair ([`IntersectMethod::resolve`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Intersector {
    method: IntersectMethod,
}

impl Intersector {
    /// Creates an intersector for the given method.
    pub fn new(method: IntersectMethod) -> Self {
        Self { method }
    }

    /// The same intersector: [`CostModel`] has one variant, which every
    /// intersector already applies.
    pub fn with_cost_model(self, _model: CostModel) -> Self {
        self
    }

    /// The configured method.
    pub fn method(&self) -> IntersectMethod {
        self.method
    }

    /// The concrete kernel the cost model resolves for a pair of list
    /// lengths, in either order — the same decision [`Intersector::count`]
    /// makes internally, exposed so callers that pre-route work (the
    /// distributed reader's fused miss path) can never diverge from it.
    pub fn resolved_method(&self, len_a: usize, len_b: usize) -> IntersectMethod {
        self.method.resolve(len_a.min(len_b), len_a.max(len_b))
    }

    /// Counts `|a ∩ b|` for two sorted, duplicate-free slices.
    pub fn count(&self, a: &[VertexId], b: &[VertexId]) -> u64 {
        let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
        run_kernel(self.method.resolve(short.len(), long.len()), short, long)
    }
}

/// Runs the sequential kernel a *resolved* method names on a `(short, long)`
/// pair — the kernel table behind [`Intersector::count`].
fn run_kernel(method: IntersectMethod, short: &[VertexId], long: &[VertexId]) -> u64 {
    match method {
        IntersectMethod::SortedSetIntersection => ssi_count(short, long),
        IntersectMethod::BinarySearch => binary_search_count(short, long),
        IntersectMethod::Simd => simd_count(short, long),
        IntersectMethod::Galloping => galloping_count(short, long),
        IntersectMethod::Hybrid => unreachable!("resolve() returns a concrete method"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_methods_agree_on_simple_inputs() {
        let a = &[1, 3, 5, 7, 9, 11];
        let b = &[2, 3, 4, 5, 6, 7, 20];
        for method in IntersectMethod::all() {
            assert_eq!(Intersector::new(method).count(a, b), 3, "{method:?}");
            assert_eq!(
                Intersector::new(method).count(b, a),
                3,
                "{method:?} swapped"
            );
        }
    }

    #[test]
    fn empty_inputs_yield_zero() {
        for method in IntersectMethod::all() {
            let ix = Intersector::new(method);
            assert_eq!(ix.count(&[], &[1, 2, 3]), 0);
            assert_eq!(ix.count(&[1, 2, 3], &[]), 0);
            assert_eq!(ix.count(&[], &[]), 0);
        }
    }

    #[test]
    fn identical_lists_intersect_fully() {
        let a: Vec<u32> = (0..1000).map(|x| x * 3).collect();
        for method in IntersectMethod::all() {
            assert_eq!(Intersector::new(method).count(&a, &a), 1000);
        }
    }

    #[test]
    fn methods_agree_on_hub_leaf_skew() {
        let small = vec![10u32, 500_000, 900_000];
        let big: Vec<u32> = (0..1_000_000).step_by(2).collect();
        for method in IntersectMethod::all() {
            assert_eq!(
                Intersector::new(method).count(&small, &big),
                3,
                "{method:?}"
            );
            assert_eq!(
                Intersector::new(method).count(&big, &small),
                3,
                "{method:?}"
            );
        }
    }
}
