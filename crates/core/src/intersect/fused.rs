//! Fused copy + intersect kernel for remote-adjacency misses.
//!
//! When a remote row misses the CLaMPI cache, the simulated RMA transfer has
//! to copy it off the exposed window into the buffer the cache will retain —
//! and the very next thing the LCC worker does with that row is intersect it
//! against the local row. Doing those as two passes reads the row twice;
//! [`copy_intersect`] does both in one: the same SSE2/AVX2 block loads that
//! feed the all-pairs compare of [`simd_count`] are stored straight into the
//! destination buffer, so the row is intersected *in the same pass that lands
//! it in the cache*.
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

use super::simd::branchless_count;
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
    write_block(dst, 0, &src[..from]);
    fused_tail(&src[from..], local, dst, from)
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

/// Lands `src` into `dst[at..at + src.len()]`.
fn write_block(dst: &mut [MaybeUninit<VertexId>], at: usize, src: &[VertexId]) {
    debug_assert!(at + src.len() <= dst.len());
    // SAFETY: range checked above; `MaybeUninit<u32>` and `u32` share layout.
    unsafe {
        std::ptr::copy_nonoverlapping(src.as_ptr(), dst.as_mut_ptr().add(at).cast(), src.len());
    }
}

/// Dispatches the fused suffix loop to the fastest kernel available, landing
/// `tail` into `dst[base..]` and returning `|tail ∩ local|`.
fn fused_tail(
    tail: &[VertexId],
    local: &[VertexId],
    dst: &mut [MaybeUninit<VertexId>],
    base: usize,
) -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        if super::simd::avx2_available() {
            // SAFETY: AVX2 support verified at runtime.
            return unsafe { fused_avx2(tail, local, dst, base) };
        }
        // SSE2 is part of the x86_64 baseline.
        unsafe { fused_sse2(tail, local, dst, base) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        fused_scalar(tail, local, dst, base)
    }
}

/// Branch-free scalar fallback: stores the current `tail` element on every
/// step (idempotent until the cursor advances past it), then lands whatever
/// remains once either list is exhausted.
#[cfg_attr(target_arch = "x86_64", allow(dead_code))]
fn fused_scalar(
    tail: &[VertexId],
    local: &[VertexId],
    dst: &mut [MaybeUninit<VertexId>],
    base: usize,
) -> u64 {
    let (mut i, mut j, mut count) = (0usize, 0usize, 0u64);
    while i < tail.len() && j < local.len() {
        let x = tail[i];
        let y = local[j];
        dst[base + i].write(x);
        count += u64::from(x == y);
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    write_block(dst, base + i, &tail[i..]);
    count
}

/// 4-wide fused block loop: the block loaded for the all-pairs compare is
/// stored into the destination in the same iteration.
#[cfg(target_arch = "x86_64")]
unsafe fn fused_sse2(
    tail: &[VertexId],
    local: &[VertexId],
    dst: &mut [MaybeUninit<VertexId>],
    base: usize,
) -> u64 {
    use std::arch::x86_64::*;
    const W: usize = 4;
    let a_blocks = tail.len() & !(W - 1);
    let b_blocks = local.len() & !(W - 1);
    let mut i = 0usize;
    let mut j = 0usize;
    let mut count = 0u64;
    if a_blocks > 0 && b_blocks > 0 {
        loop {
            let va = _mm_loadu_si128(tail.as_ptr().add(i).cast());
            // Land the block; re-stored unchanged if the cursor does not advance.
            _mm_storeu_si128(dst.as_mut_ptr().add(base + i).cast(), va);
            let vb = _mm_loadu_si128(local.as_ptr().add(j).cast());
            let m0 = _mm_cmpeq_epi32(va, vb);
            let m1 = _mm_cmpeq_epi32(va, _mm_shuffle_epi32::<0b00_11_10_01>(vb));
            let m2 = _mm_cmpeq_epi32(va, _mm_shuffle_epi32::<0b01_00_11_10>(vb));
            let m3 = _mm_cmpeq_epi32(va, _mm_shuffle_epi32::<0b10_01_00_11>(vb));
            let m = _mm_or_si128(_mm_or_si128(m0, m1), _mm_or_si128(m2, m3));
            count += _mm_movemask_ps(_mm_castsi128_ps(m)).count_ones() as u64;
            let a_max = *tail.get_unchecked(i + W - 1);
            let b_max = *local.get_unchecked(j + W - 1);
            i += W * usize::from(a_max <= b_max);
            j += W * usize::from(b_max <= a_max);
            if i >= a_blocks || j >= b_blocks {
                break;
            }
        }
    }
    write_block(dst, base + i, &tail[i..]);
    count + branchless_count(&tail[i..], &local[j..])
}

/// 8-wide fused block loop (rotations via cross-lane permutes).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn fused_avx2(
    tail: &[VertexId],
    local: &[VertexId],
    dst: &mut [MaybeUninit<VertexId>],
    base: usize,
) -> u64 {
    use std::arch::x86_64::*;
    const W: usize = 8;
    let a_blocks = tail.len() & !(W - 1);
    let b_blocks = local.len() & !(W - 1);
    let mut i = 0usize;
    let mut j = 0usize;
    let mut count = 0u64;
    if a_blocks > 0 && b_blocks > 0 {
        let rot1 = _mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 0);
        loop {
            let va = _mm256_loadu_si256(tail.as_ptr().add(i).cast());
            _mm256_storeu_si256(dst.as_mut_ptr().add(base + i).cast(), va);
            let mut vb = _mm256_loadu_si256(local.as_ptr().add(j).cast());
            let mut m = _mm256_cmpeq_epi32(va, vb);
            for _ in 0..W - 1 {
                vb = _mm256_permutevar8x32_epi32(vb, rot1);
                m = _mm256_or_si256(m, _mm256_cmpeq_epi32(va, vb));
            }
            count += _mm256_movemask_ps(_mm256_castsi256_ps(m)).count_ones() as u64;
            let a_max = *tail.get_unchecked(i + W - 1);
            let b_max = *local.get_unchecked(j + W - 1);
            i += W * usize::from(a_max <= b_max);
            j += W * usize::from(b_max <= a_max);
            if i >= a_blocks || j >= b_blocks {
                break;
            }
        }
    }
    write_block(dst, base + i, &tail[i..]);
    count + branchless_count(&tail[i..], &local[j..])
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
    fn handles_blocks_and_tails() {
        for la in [0usize, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33] {
            for lb in [0usize, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33] {
                let src: Vec<u32> = (0..la as u32).map(|x| x * 2).collect();
                let local: Vec<u32> = (0..lb as u32).map(|x| x * 3).collect();
                let (landed, count) = copy_intersect(&src, 0, &local);
                assert_eq!(&*landed, &src[..], "la={la} lb={lb}");
                assert_eq!(count, ssi_count(&src, &local), "la={la} lb={lb}");
            }
        }
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

    /// The dispatcher only exercises one x86 path per machine; drive both
    /// fused kernels explicitly so the SSE2 loop is covered on AVX2 hosts.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn sse2_and_avx2_fused_paths_agree_with_scalar() {
        type FusedKernel<'k> = &'k dyn Fn(&[u32], &[u32], &mut [MaybeUninit<u32>], usize) -> u64;
        let mut rng = rand::rngs::StdRng::seed_from_u64(32);
        for _ in 0..100 {
            let (la, lb) = (rng.gen_range(0..300), rng.gen_range(0..300));
            let src = random_sorted(&mut rng, la, 500);
            let local = random_sorted(&mut rng, lb, 500);
            let expected = ssi_count(&src, &local);
            let run = |kernel: FusedKernel| {
                let mut buf = Arc::new_uninit_slice(src.len());
                let dst = Arc::get_mut(&mut buf).unwrap();
                let count = kernel(&src, &local, dst, 0);
                // SAFETY: every fused kernel lands the whole row.
                (unsafe { buf.assume_init() }, count)
            };
            let (landed, count) = run(&fused_scalar);
            assert_eq!((&*landed, count), (&src[..], expected), "scalar");
            // SAFETY: SSE2 is part of the x86_64 baseline.
            let (landed, count) = run(&|a, b, d, base| unsafe { fused_sse2(a, b, d, base) });
            assert_eq!((&*landed, count), (&src[..], expected), "sse2");
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: AVX2 support was just verified.
                let (landed, count) = run(&|a, b, d, base| unsafe { fused_avx2(a, b, d, base) });
                assert_eq!((&*landed, count), (&src[..], expected), "avx2");
            }
        }
    }
}
