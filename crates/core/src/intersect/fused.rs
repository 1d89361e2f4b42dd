//! Fused copy + intersect kernel for remote-adjacency misses.
//!
//! When a remote row misses the CLaMPI cache, the simulated RMA transfer has
//! to copy it off the exposed window into the buffer the cache will retain —
//! and the very next thing the LCC worker does with that row is intersect it
//! against the local row. Doing those as two passes reads the row twice;
//! [`copy_intersect`] does both in one: it runs the block merge of
//! [`simd_count`] with landing switched on, so the same block loads that feed
//! the all-pairs compare are stored straight into the destination buffer and
//! the row is intersected *in the same pass that lands it in the cache*.
//!
//! The kernel writes where it is told ([`copy_intersect_into`]): into the
//! caller's reusable landing buffer when nobody retains the row (the
//! non-cached protocol round — no allocation), or, through the
//! [`copy_intersect`] wrapper, into a fresh `Arc<[u32]>` the cache insert
//! takes by refcount — the transfer's single allocation, never copied again.
//! Like [`simd_count`], the kernel requires both inputs sorted and
//! duplicate-free, and is merge-class (`O(|A| + |B|)`): callers route skewed
//! pairs to the search-class kernels and fall back to a plain copy there (see
//! `distributed::reader`).
//!
//! [`simd_count`]: super::simd::simd_count

use super::simd::merge_best;
use rmatc_graph::types::VertexId;
use std::mem::MaybeUninit;
use std::sync::Arc;

/// Copies `src` into a freshly allocated shared buffer and counts
/// `|src[from..] ∩ local|` in the same pass. Returns the landed buffer (an
/// exact copy of `src`) and the count. For rows a cache will retain; a row
/// nobody keeps lands allocation-free through [`copy_intersect_into`].
pub fn copy_intersect(src: &[VertexId], from: usize, local: &[VertexId]) -> (Arc<[VertexId]>, u64) {
    let mut buf = Arc::new_uninit_slice(src.len());
    let dst = Arc::get_mut(&mut buf).expect("freshly allocated Arc is unique");
    let count = copy_intersect_into(src, from, local, dst);
    // SAFETY: `copy_intersect_into` initialises every element of `dst`.
    (unsafe { buf.assume_init() }, count)
}

/// Copies `src` into `dst` and counts `|src[from..] ∩ local|` in the same
/// pass. On return **every element of `dst` is initialised** to the
/// corresponding element of `src` — callers rely on that to `assume_init` /
/// `set_len` the destination.
///
/// `from` is the start of the intersecting suffix: the upper-triangle
/// offsetting of the LCC worker excludes the prefix of the remote row up to
/// the current edge's endpoint, but the *whole* row still has to land. The
/// prefix is copied wholesale, the suffix through the fused loop.
///
/// # Panics
///
/// If `dst.len() != src.len()` or `from > src.len()`.
pub fn copy_intersect_into(
    src: &[VertexId],
    from: usize,
    local: &[VertexId],
    dst: &mut [MaybeUninit<VertexId>],
) -> u64 {
    // Hard checks: the block kernels store through raw pointers.
    assert_eq!(dst.len(), src.len(), "destination must fit the row exactly");
    assert!(from <= src.len(), "suffix start {from} > row {}", src.len());
    let dst: *mut VertexId = dst.as_mut_ptr().cast();
    // SAFETY: `dst` is exactly `src.len()` elements (checked above) and, being
    // a `&mut`, cannot overlap `src`; `MaybeUninit<u32>` and `u32` share
    // layout. The prefix copy fills `dst[..from]`, the landing merge
    // `dst[from..]`.
    unsafe {
        std::ptr::copy_nonoverlapping(src.as_ptr(), dst, from);
        merge_best::<true>(&src[from..], local, dst.add(from))
    }
}

/// Runs a landing kernel over the reusable buffer `landing`: clears it,
/// reserves `len` elements (a no-op once it has grown to the longest row),
/// hands the kernel the uninitialised destination and sets the length.
///
/// # Safety
///
/// `kernel` must initialise every element of the slice it is given —
/// [`copy_intersect_into`] and
/// [`copy_decode_intersect_into`](super::compressed::copy_decode_intersect_into)
/// guarantee it.
pub(crate) unsafe fn land_in_vec<R>(
    landing: &mut Vec<u32>,
    len: usize,
    kernel: impl FnOnce(&mut [MaybeUninit<u32>]) -> R,
) -> R {
    landing.clear();
    landing.reserve(len);
    let result = kernel(&mut landing.spare_capacity_mut()[..len]);
    // SAFETY: capacity for `len` elements was reserved above and the caller
    // guarantees the kernel initialised all of them.
    unsafe { landing.set_len(len) };
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intersect::ssi::ssi_count;
    use rand::Rng;
    use rand::SeedableRng;

    fn random_sorted(rng: &mut impl Rng, len: usize, universe: u32) -> Vec<u32> {
        let mut v: Vec<u32> = (0..len).map(|_| rng.gen_range(0..universe)).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    #[test]
    fn copies_exactly_and_counts_like_ssi() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        for _ in 0..200 {
            let (la, lb) = (rng.gen_range(0..400), rng.gen_range(0..400));
            let src = random_sorted(&mut rng, la, 600);
            let local = random_sorted(&mut rng, lb, 600);
            let from = rng.gen_range(0..=src.len());
            let (landed, count) = copy_intersect(&src, from, &local);
            assert_eq!(&*landed, &src[..], "landed row must be an exact copy");
            assert_eq!(
                count,
                ssi_count(&src[from..], &local),
                "src={src:?} from={from} local={local:?}"
            );
        }
    }

    #[test]
    fn landing_in_a_reused_vec_matches_the_arc_wrapper() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(33);
        // Stale contents and a stale length must not survive a landing.
        let mut landing = vec![u32::MAX; 7];
        for _ in 0..200 {
            let (la, lb) = (rng.gen_range(0..400), rng.gen_range(0..400));
            let src = random_sorted(&mut rng, la, 600);
            let local = random_sorted(&mut rng, lb, 600);
            let from = rng.gen_range(0..=src.len());
            let (arc, expected) = copy_intersect(&src, from, &local);
            // SAFETY: `copy_intersect_into` initialises its whole destination.
            let count = unsafe {
                land_in_vec(&mut landing, src.len(), |dst| {
                    copy_intersect_into(&src, from, &local, dst)
                })
            };
            assert_eq!(count, expected);
            assert_eq!(landing[..], arc[..]);
        }
    }

    #[test]
    #[should_panic(expected = "destination must fit the row exactly")]
    fn a_short_destination_is_rejected() {
        let mut dst = [MaybeUninit::uninit(); 3];
        copy_intersect_into(&[1, 2, 3, 4], 0, &[2], &mut dst);
    }

    #[test]
    fn suffix_prefix_split_is_respected() {
        let src: Vec<u32> = (0..100).collect();
        let local: Vec<u32> = (0..100).collect();
        for from in [0usize, 1, 4, 50, 99, 100] {
            let (landed, count) = copy_intersect(&src, from, &local);
            assert_eq!(&*landed, &src[..]);
            assert_eq!(count, (100 - from) as u64, "from={from}");
        }
    }

    #[test]
    fn degenerate_inputs() {
        let (landed, count) = copy_intersect(&[], 0, &[1, 2, 3]);
        assert!(landed.is_empty());
        assert_eq!(count, 0);
        let (landed, count) = copy_intersect(&[1, 2, 3], 0, &[]);
        assert_eq!(&*landed, &[1, 2, 3]);
        assert_eq!(count, 0);
        let extremes = vec![0u32, 1, u32::MAX - 1, u32::MAX];
        let (landed, count) = copy_intersect(&extremes, 0, &[0u32, 2, u32::MAX]);
        assert_eq!(&*landed, &extremes[..]);
        assert_eq!(count, 2);
    }
}
