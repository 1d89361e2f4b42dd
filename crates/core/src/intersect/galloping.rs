//! Galloping search intersection: the block-probe kernel.
//!
//! Algorithm 1 binary-searches every key from scratch: `O(|A| · log |B|)`
//! probes, each search walking the whole tree depth again even though the keys
//! are sorted and strictly increasing, and each probe waiting on the previous
//! one — a serial dependent-load chain. `probe` exploits the sortedness the
//! paper's kernel ignores, a block at a time:
//!
//! * a running cursor over the haystack's *blocks* (8 values on AVX2, 4 on
//!   SSE2) remembers where the previous key landed and skips forward by
//!   comparing the key against each block's last value — one block at a time
//!   for the first few, then with doubling strides over the block maxima and
//!   a binary narrowing of the bracket (`gallop`);
//! * the key is then broadcast against the one block that can hold it: one
//!   compare answers "is it among these 8", where a scalar search would spend
//!   three more dependent probes;
//! * the final partial block is compared under a lane mask.
//!
//! Total work is `O(|A| · (1 + log(|B| / |A|)))` — the information-theoretic
//! optimum for intersecting sorted lists of very different lengths. This is
//! the search kernel the hybrid rule runs past its merge boundary (see
//! [`super::hybrid`]): on R-MAT-17 and R-MAT-18 it beats restart binary
//! search there by more than the replay's spread (`docs/TUNING.md`,
//! "Merge/search boundary"). The block merge of [`simd`](super::simd) also
//! hands it its sub-block remainders.

use super::simd::Isa;
use rmatc_graph::types::VertexId;

/// Blocks the cursor skips one at a time before its stride starts doubling.
const LINEAR_SKIPS: usize = 4;

/// Counts `|keys ∩ haystack|`. Both slices must be sorted and duplicate-free;
/// callers should pass the shorter list as `keys` for the complexity bound to
/// hold, but the result is correct either way.
pub fn galloping_count(keys: &[VertexId], haystack: &[VertexId]) -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        #[target_feature(enable = "avx2,popcnt")]
        unsafe fn avx2(keys: &[VertexId], haystack: &[VertexId]) -> u64 {
            probe::<super::simd::Avx2>(keys, haystack)
        }
        if super::simd::avx2_available() {
            // SAFETY: `avx2_available` just confirmed the CPU supports the step.
            return unsafe { avx2(keys, haystack) };
        }
        // SAFETY: SSE2 is part of the x86_64 baseline.
        unsafe { probe::<super::simd::Sse2>(keys, haystack) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        // SAFETY: the scalar step needs no CPU feature.
        unsafe { probe::<super::simd::Scalar>(keys, haystack) }
    }
}

/// The block probe: counts `|keys ∩ hay|`, each key compared against the one
/// block of `hay` that can hold it.
///
/// # Safety
///
/// The CPU must support `I`.
#[inline(always)]
pub(super) unsafe fn probe<I: Isa>(keys: &[VertexId], hay: &[VertexId]) -> u64 {
    let w = I::W;
    let blocks = hay.len() / w;
    let p = hay.as_ptr();
    // Callers keep `b < blocks`, so the read is inside the whole blocks.
    let block_max = |b: usize| *p.add(b * w + w - 1);
    let mut count = 0u64;
    // Cursor invariant: every block before `b` ends below the current key
    // (and so below every later one).
    let mut b = 0usize;
    let mut k = 0usize;
    while k < keys.len() {
        let key = keys[k];
        let mut skipped = 0usize;
        while b < blocks && block_max(b) < key {
            b += 1;
            skipped += 1;
            if skipped == LINEAR_SKIPS {
                b = gallop(b, blocks, key, &block_max);
                break;
            }
        }
        if b == blocks {
            break;
        }
        count += u64::from(I::find(I::load(p.add(b * w)), key) != 0);
        k += 1;
    }
    // Keys past every whole block can only be in the partial one. Masked load
    // *and* masked result: vertex id 0 is valid and must not match a lane the
    // load did not fill.
    let rest = hay.len() - blocks * w;
    if rest > 0 && k < keys.len() {
        let tail = I::load_head(p.add(blocks * w), rest);
        let lanes = (1u32 << rest) - 1;
        for &key in &keys[k..] {
            count += u64::from(I::find(tail, key) & lanes != 0);
        }
    }
    count
}

/// First block at or after `b` whose maximum is `>= key`, or `blocks` if
/// there is none: doubling strides over the block maxima bracket it, a binary
/// search narrows the bracket.
#[inline(always)]
unsafe fn gallop(
    b: usize,
    blocks: usize,
    key: VertexId,
    block_max: &impl Fn(usize) -> VertexId,
) -> usize {
    let (mut lo, mut stride) = (b, 1usize);
    let hi = loop {
        let at = lo + stride;
        if at >= blocks {
            break blocks;
        }
        if block_max(at) >= key {
            break at;
        }
        lo = at + 1;
        stride *= 2;
    };
    // Every block before `lo` ends below the key; `hi` does not (or is the end).
    let mut n = hi - lo;
    while n > 0 {
        let half = n / 2;
        if block_max(lo + half) < key {
            lo += half + 1;
            n -= half + 1;
        } else {
            n = half;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intersect::binary::binary_search_count;
    use crate::intersect::simd::simd_count;
    use proptest::prelude::*;
    use rand::Rng;
    use rand::SeedableRng;

    fn random_sorted(rng: &mut impl Rng, len: usize, universe: u32) -> Vec<u32> {
        let mut v: Vec<u32> = (0..len).map(|_| rng.gen_range(0..universe)).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    #[test]
    fn matches_binary_search_on_random_lists() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        for _ in 0..300 {
            let lk = rng.gen_range(0..300);
            let lh = rng.gen_range(0..1_000);
            let keys = random_sorted(&mut rng, lk, 2_000);
            let hay = random_sorted(&mut rng, lh, 2_000);
            assert_eq!(
                galloping_count(&keys, &hay),
                binary_search_count(&keys, &hay),
                "keys={keys:?} hay={hay:?}"
            );
        }
    }

    #[test]
    fn key_counts_from_one_to_hundreds_against_a_long_haystack() {
        let hay: Vec<u32> = (0..50_000).map(|x| x * 3).collect();
        for nkeys in [1usize, 2, 7, 8, 9, 31, 63, 64, 65, 127, 128, 129, 500] {
            let keys: Vec<u32> = (0..nkeys as u32).map(|x| x * 11).collect();
            assert_eq!(
                galloping_count(&keys, &hay),
                binary_search_count(&keys, &hay),
                "nkeys={nkeys}"
            );
        }
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        assert_eq!(galloping_count(&[], &[]), 0);
        assert_eq!(galloping_count(&[1], &[]), 0);
        assert_eq!(galloping_count(&[], &[1, 2, 3]), 0);
        assert_eq!(galloping_count(&[5], &[5]), 1);
        assert_eq!(galloping_count(&[5], &[4]), 0);
        assert_eq!(galloping_count(&[5], &[6]), 0);
    }

    #[test]
    fn hub_leaf_skew_finds_every_match() {
        // 1000x skew with matches at the front, middle and back.
        let hay: Vec<u32> = (0..100_000).map(|x| x * 2).collect();
        let keys = vec![0u32, 99_998, 100_001, 150_000, 199_998];
        assert_eq!(galloping_count(&keys, &hay), 4);
    }

    #[test]
    fn dense_keys_degrade_gracefully() {
        // |keys| == |haystack|: the gallop never jumps far but stays correct.
        let a: Vec<u32> = (0..5_000).collect();
        let b: Vec<u32> = (0..5_000).map(|x| x + 2_500).collect();
        assert_eq!(galloping_count(&a, &b), 2_500);
        assert_eq!(galloping_count(&a, &a), 5_000);
    }

    #[test]
    fn keys_beyond_haystack_range_are_skipped() {
        let hay = vec![10u32, 20, 30];
        let keys = vec![1u32, 10, 15, 30, 40, 50];
        assert_eq!(galloping_count(&keys, &hay), 2);
    }

    #[test]
    fn all_equal_pairs_and_extremes() {
        let a: Vec<u32> = (0..2_000).collect();
        assert_eq!(galloping_count(&a, &a), 2_000);
        let edge = vec![0u32, u32::MAX];
        let hay = vec![0u32, 1, u32::MAX - 1, u32::MAX];
        assert_eq!(galloping_count(&edge, &hay), 2);
    }

    #[test]
    fn the_cursor_gallops_and_narrows_to_every_block() {
        // One key per target block, from a cold cursor: the stride doubles
        // past the linear skips and the bracket narrows onto blocks at every
        // distance, including the last whole block, the partial one and past
        // the end.
        let hay: Vec<u32> = (0..100_003).map(|x| x * 2 + 1).collect();
        for target in (0..hay.len()).step_by(997).chain(hay.len() - 20..hay.len()) {
            assert_eq!(galloping_count(&[hay[target]], &hay), 1, "hit at {target}");
            assert_eq!(
                galloping_count(&[hay[target] - 1], &hay),
                0,
                "miss before {target}"
            );
            assert_eq!(
                galloping_count(&[1, hay[target], u32::MAX], &hay),
                2,
                "first, {target}, past the end"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Skew up to 1 : 10⁵ with the keys clustered at both ends of the
        /// haystack (plus a few anywhere), so the exponential skip, its
        /// narrowing and the masked partial block all run.
        #[test]
        fn clustered_keys_agree_with_binary_search_at_any_skew(
            hay_len in 1usize..200_000,
            stride in 1u32..20,
            front in prop::collection::vec(0u32..400, 0..8),
            back in prop::collection::vec(0u32..400, 0..8),
            anywhere in prop::collection::vec(0u32..4_000_000, 0..4),
        ) {
            let hay: Vec<u32> = (0..hay_len as u32).map(|x| x * stride).collect();
            let top = *hay.last().expect("hay_len >= 1");
            let mut keys: Vec<u32> = front;
            keys.extend(back.iter().map(|&d| top.saturating_sub(d)));
            keys.extend(back.iter().map(|&d| top.saturating_add(d / 100)));
            keys.extend(anywhere);
            keys.sort_unstable();
            keys.dedup();
            let expected = binary_search_count(&keys, &hay);
            prop_assert_eq!(galloping_count(&keys, &hay), expected);
            prop_assert_eq!(simd_count(&keys, &hay), expected);
            prop_assert_eq!(simd_count(&hay, &keys), expected);
        }
    }
}
