//! SIMD block kernels for sorted-set intersection.
//!
//! The scalar SSI of Algorithm 2 compares one element per step behind an
//! unpredictable branch — on the ~6%-density adjacency intersections of R-MAT
//! graphs that branch mispredicts constantly and the kernel runs far below
//! one comparison per cycle. This module replaces it with block comparisons,
//! written once over a small per-ISA step (the crate-private `Isa` trait):
//!
//! * `merge` — the merge-class kernel: load one block from each list,
//!   compare every pair of lanes (the rotations of the right block are
//!   computed *independently* from the loaded block, so the compares do not
//!   wait on one another), popcount the match mask, and advance the block
//!   whose maximum is smaller. Every step retires a block of one list with
//!   two branches total; once either list has less than a block left, the
//!   remainder is handed to the block probe.
//! * `probe` — the search-class kernel, in
//!   [`galloping`](super::galloping).
//!
//! The steps: 8-wide AVX2 (runtime detected once), 4-wide SSE2 (the `x86_64`
//! baseline) and a one-lane scalar step, under which the merge loop *is* the
//! classic branch-free scalar merge ([`branchless_count`]) — the portable
//! fallback.
//!
//! Every path is an exact drop-in replacement for [`ssi_count`]: same inputs
//! (sorted, duplicate-free), same count, `O(|A| + |B|)` work.
//!
//! [`ssi_count`]: super::ssi::ssi_count

use super::galloping::probe;
use rmatc_graph::types::VertexId;

/// Counts `|a ∩ b|` for two sorted, duplicate-free slices using the fastest
/// block-compare kernel available on this CPU.
pub fn simd_count(a: &[VertexId], b: &[VertexId]) -> u64 {
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,popcnt")]
    unsafe fn avx2(a: &[u32], b: &[u32]) -> u64 {
        merge::<Avx2>(a, b)
    }
    // SAFETY: the AVX2 step runs only once `avx2_available` has confirmed
    // the CPU supports it; SSE2 is part of the x86_64 baseline and the
    // scalar step needs no CPU feature.
    unsafe {
        #[cfg(target_arch = "x86_64")]
        {
            if avx2_available() {
                return avx2(a, b);
            }
            merge::<Sse2>(a, b)
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            merge::<Scalar>(a, b)
        }
    }
}

/// Branch-free scalar merge: the cursor advances are data-dependent adds, not
/// taken branches, so the only branch left is the (perfectly predicted) loop
/// bound. The block merge at one lane per block — the portable fallback and
/// the scalar reference of the differential tests.
pub fn branchless_count(a: &[VertexId], b: &[VertexId]) -> u64 {
    // SAFETY: the scalar step needs no CPU feature.
    unsafe { merge::<Scalar>(a, b) }
}

/// True when the AVX2 step may run: it popcounts its match mask, so both
/// features are required (every AVX2 CPU has `popcnt`). The standard library
/// caches the detection, so this is two loads per call.
#[cfg(target_arch = "x86_64")]
pub(crate) fn avx2_available() -> bool {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("popcnt")
}

/// One instruction set's block step: how a block of `W` consecutive values is
/// loaded and compared. The cursor loops ([`merge`], [`probe`]) are
/// written once over this.
///
/// # Safety
///
/// Every method requires the CPU to support the implementing instruction set;
/// the pointer methods additionally require `W` (for `load_head`: `n`)
/// readable elements at `p`.
pub(super) trait Isa {
    /// Lanes per block.
    const W: usize;
    /// One block in a register.
    type Block: Copy;
    unsafe fn load(p: *const VertexId) -> Self::Block;
    /// Loads the `n < W` values at `p` into the low lanes. The other lanes are
    /// unspecified: callers mask them out of every result (vertex id 0 is
    /// valid, so a zeroed lane must not be allowed to match).
    unsafe fn load_head(p: *const VertexId, n: usize) -> Self::Block;
    /// Bit `l` is set iff lane `l` of `a` equals some lane of `b`.
    unsafe fn matches(a: Self::Block, b: Self::Block) -> u32;
    /// Bit `l` is set iff lane `l` of `b` equals `key`.
    unsafe fn find(b: Self::Block, key: VertexId) -> u32;
}

/// One value per block: the generic loops degenerate to the scalar kernels.
pub(super) struct Scalar;

impl Isa for Scalar {
    const W: usize = 1;
    type Block = VertexId;
    #[inline(always)]
    unsafe fn load(p: *const VertexId) -> VertexId {
        *p
    }
    #[inline(always)]
    unsafe fn load_head(_: *const VertexId, _: usize) -> VertexId {
        unreachable!("a one-lane block is never partial")
    }
    #[inline(always)]
    unsafe fn matches(a: VertexId, b: VertexId) -> u32 {
        u32::from(a == b)
    }
    #[inline(always)]
    unsafe fn find(b: VertexId, key: VertexId) -> u32 {
        u32::from(b == key)
    }
}

#[cfg(target_arch = "x86_64")]
pub(super) use x86::{Avx2, Sse2};

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::Isa;
    use rmatc_graph::types::VertexId;
    use std::arch::x86_64::*;

    // In-lane rotations by one, two and three 32-bit lanes.
    const ROT1: i32 = 0b00_11_10_01;
    const ROT2: i32 = 0b01_00_11_10;
    const ROT3: i32 = 0b10_01_00_11;

    /// 4-wide SSE2 step (part of the `x86_64` baseline).
    pub struct Sse2;

    impl Isa for Sse2 {
        const W: usize = 4;
        type Block = __m128i;
        #[inline(always)]
        unsafe fn load(p: *const VertexId) -> __m128i {
            _mm_loadu_si128(p.cast())
        }
        #[inline(always)]
        unsafe fn load_head(p: *const VertexId, n: usize) -> __m128i {
            let mut lanes = [0 as VertexId; 4];
            std::ptr::copy_nonoverlapping(p, lanes.as_mut_ptr(), n);
            _mm_loadu_si128(lanes.as_ptr().cast())
        }
        /// Compares `a` against every rotation of `b`: each a-lane can match
        /// at most one b value (lists are duplicate-free), so the OR of the
        /// four equality masks has one bit per matching lane.
        #[inline(always)]
        unsafe fn matches(a: __m128i, b: __m128i) -> u32 {
            let m0 = _mm_cmpeq_epi32(a, b);
            let m1 = _mm_cmpeq_epi32(a, _mm_shuffle_epi32::<ROT1>(b));
            let m2 = _mm_cmpeq_epi32(a, _mm_shuffle_epi32::<ROT2>(b));
            let m3 = _mm_cmpeq_epi32(a, _mm_shuffle_epi32::<ROT3>(b));
            let m = _mm_or_si128(_mm_or_si128(m0, m1), _mm_or_si128(m2, m3));
            _mm_movemask_ps(_mm_castsi128_ps(m)) as u32
        }
        #[inline(always)]
        unsafe fn find(b: __m128i, key: VertexId) -> u32 {
            let m = _mm_cmpeq_epi32(b, _mm_set1_epi32(key as i32));
            _mm_movemask_ps(_mm_castsi128_ps(m)) as u32
        }
    }

    /// 8-wide AVX2 step.
    pub struct Avx2;

    impl Isa for Avx2 {
        const W: usize = 8;
        type Block = __m256i;
        #[inline(always)]
        unsafe fn load(p: *const VertexId) -> __m256i {
            _mm256_loadu_si256(p.cast())
        }
        #[inline(always)]
        unsafe fn load_head(p: *const VertexId, n: usize) -> __m256i {
            let iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
            let head = _mm256_cmpgt_epi32(_mm256_set1_epi32(n as i32), iota);
            _mm256_maskload_epi32(p.cast(), head)
        }
        /// All 8×8 lane pairs from eight compares whose inputs are computed
        /// independently from `b`: three in-lane rotations, the 128-bit lane
        /// swap, and the swap's three in-lane rotations — no compare waits
        /// on another's shuffle.
        #[inline(always)]
        unsafe fn matches(a: __m256i, b: __m256i) -> u32 {
            let swap = _mm256_permute2x128_si256::<0x01>(b, b);
            let m0 = _mm256_cmpeq_epi32(a, b);
            let m1 = _mm256_cmpeq_epi32(a, _mm256_shuffle_epi32::<ROT1>(b));
            let m2 = _mm256_cmpeq_epi32(a, _mm256_shuffle_epi32::<ROT2>(b));
            let m3 = _mm256_cmpeq_epi32(a, _mm256_shuffle_epi32::<ROT3>(b));
            let m4 = _mm256_cmpeq_epi32(a, swap);
            let m5 = _mm256_cmpeq_epi32(a, _mm256_shuffle_epi32::<ROT1>(swap));
            let m6 = _mm256_cmpeq_epi32(a, _mm256_shuffle_epi32::<ROT2>(swap));
            let m7 = _mm256_cmpeq_epi32(a, _mm256_shuffle_epi32::<ROT3>(swap));
            let m = _mm256_or_si256(
                _mm256_or_si256(_mm256_or_si256(m0, m1), _mm256_or_si256(m2, m3)),
                _mm256_or_si256(_mm256_or_si256(m4, m5), _mm256_or_si256(m6, m7)),
            );
            _mm256_movemask_ps(_mm256_castsi256_ps(m)) as u32
        }
        #[inline(always)]
        unsafe fn find(b: __m256i, key: VertexId) -> u32 {
            let m = _mm256_cmpeq_epi32(b, _mm256_set1_epi32(key as i32));
            _mm256_movemask_ps(_mm256_castsi256_ps(m)) as u32
        }
    }
}

/// The block merge: counts `|a ∩ b|`.
///
/// # Safety
///
/// The CPU must support `I`.
#[inline(always)]
pub(super) unsafe fn merge<I: Isa>(a: &[VertexId], b: &[VertexId]) -> u64 {
    let w = I::W;
    let (pa, pb) = (a.as_ptr(), b.as_ptr());
    let (mut i, mut j, mut count) = (0usize, 0usize, 0u64);
    if a.len() >= w && b.len() >= w {
        // Last block starts: the loop runs while a whole block is left on
        // both sides, which bounds every load below.
        let (last_i, last_j) = (a.len() - w, b.len() - w);
        loop {
            count += u64::from(I::matches(I::load(pa.add(i)), I::load(pb.add(j))).count_ones());
            // Advance the block with the smaller maximum (both on a tie);
            // everything skipped has been compared against all candidates.
            let (a_max, b_max) = (*pa.add(i + w - 1), *pb.add(j + w - 1));
            i += w * usize::from(a_max <= b_max);
            j += w * usize::from(b_max <= a_max);
            if i > last_i || j > last_j {
                break;
            }
        }
    }
    // One side has less than a block left: its values probe the other's rest.
    let (rest_a, rest_b) = (&a[i..], &b[j..]);
    count
        + if rest_a.len() <= rest_b.len() {
            probe::<I>(rest_a, rest_b)
        } else {
            probe::<I>(rest_b, rest_a)
        }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intersect::galloping::galloping_count;
    use crate::intersect::ssi::ssi_count;
    use rand::Rng;
    use rand::SeedableRng;

    fn random_sorted(rng: &mut impl Rng, len: usize, universe: u32) -> Vec<u32> {
        let mut v: Vec<u32> = (0..len).map(|_| rng.gen_range(0..universe)).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// One explicit step through both generic loops: the merge and the probe
    /// in both key/haystack orders.
    ///
    /// # Safety
    ///
    /// The CPU must support `I`.
    unsafe fn check_step<I: Isa>(name: &str, a: &[u32], b: &[u32], expected: u64) {
        let what = format!("{name} a={a:?} b={b:?}");
        assert_eq!(merge::<I>(a, b), expected, "merge {what}");
        assert_eq!(probe::<I>(a, b), expected, "probe {what}");
        assert_eq!(probe::<I>(b, a), expected, "swapped probe {what}");
    }

    /// The dispatchers only exercise one x86 step per machine; this drives
    /// the scalar, SSE2 and AVX2 steps explicitly, then every public entry
    /// point, against scalar SSI.
    fn check_every_path(a: &[u32], b: &[u32]) {
        let expected = ssi_count(a, b);
        // SAFETY: the scalar step needs no CPU feature.
        unsafe { check_step::<Scalar>("scalar", a, b, expected) };
        #[cfg(target_arch = "x86_64")]
        {
            // SAFETY: SSE2 is part of the x86_64 baseline.
            unsafe { check_step::<Sse2>("sse2", a, b, expected) };
            if avx2_available() {
                #[target_feature(enable = "avx2,popcnt")]
                unsafe fn avx2(a: &[u32], b: &[u32], expected: u64) {
                    check_step::<Avx2>("avx2", a, b, expected)
                }
                // SAFETY: AVX2 and popcnt support was just verified.
                unsafe { avx2(a, b, expected) };
            }
        }
        assert_eq!(simd_count(a, b), expected, "simd_count a={a:?} b={b:?}");
        assert_eq!(
            branchless_count(a, b),
            expected,
            "branchless a={a:?} b={b:?}"
        );
        assert_eq!(galloping_count(a, b), expected, "galloping a={a:?} b={b:?}");
    }

    #[test]
    fn every_small_shape_agrees_with_ssi_on_every_path() {
        // Every length pair straddling the 4- and 8-lane block boundaries,
        // under three value patterns. `extremes` puts 0 in the first block
        // and u32::MAX in the last (for most lengths the masked partial)
        // block, and leaves 0 / u32::MAX *out* of every other list, so a
        // zero-filled or all-ones padding lane that leaked into a compare
        // would show up as a spurious match.
        let dense = |n: usize, _: u32| -> Vec<u32> { (1..=n as u32).collect() };
        let strided =
            |n: usize, stride: u32| -> Vec<u32> { (1..=n as u32).map(|x| x * stride).collect() };
        let extremes = |n: usize, stride: u32| -> Vec<u32> {
            let mut v: Vec<u32> = (0..n as u32).map(|x| x * stride).collect();
            if let Some(last) = v.last_mut() {
                *last = u32::MAX;
            }
            v
        };
        for la in 0..=40usize {
            for lb in 0..=40usize {
                check_every_path(&dense(la, 0), &dense(lb, 0));
                check_every_path(&strided(la, 2), &strided(lb, 3));
                check_every_path(&extremes(la, 2), &extremes(lb, 3));
                check_every_path(&extremes(la, 3), &strided(lb, 2));
                check_every_path(&dense(la, 0), &extremes(lb, 1));
            }
        }
    }

    #[test]
    fn matches_ssi_on_random_lists() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        for _ in 0..200 {
            let la = rng.gen_range(0..400);
            let lb = rng.gen_range(0..400);
            let a = random_sorted(&mut rng, la, 600);
            let b = random_sorted(&mut rng, lb, 600);
            check_every_path(&a, &b);
        }
    }

    #[test]
    fn identical_disjoint_and_all_equal() {
        let a: Vec<u32> = (0..1000).collect();
        assert_eq!(simd_count(&a, &a), 1000);
        let evens: Vec<u32> = (0..1000).map(|x| x * 2).collect();
        let odds: Vec<u32> = (0..1000).map(|x| x * 2 + 1).collect();
        assert_eq!(simd_count(&evens, &odds), 0);
        assert_eq!(simd_count(&[], &a), 0);
        assert_eq!(simd_count(&a, &[]), 0);
        assert_eq!(simd_count(&[], &[]), 0);
    }

    #[test]
    fn extreme_values_are_not_special() {
        let a = vec![0u32, 1, u32::MAX - 1, u32::MAX];
        let b = vec![0u32, 2, u32::MAX];
        assert_eq!(simd_count(&a, &b), 2);
    }
}
