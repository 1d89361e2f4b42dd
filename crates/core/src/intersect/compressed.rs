//! Fused decompress + intersect kernels over compressed adjacency rows.
//!
//! The compressed rows of [`rmatc_graph::compressed`] never materialize on
//! the hot path: these kernels decode one 64-value block at a time into a
//! stack buffer and intersect it in the same pass. Three kernels cover the
//! two cost classes plus a reference:
//!
//! * [`compressed_scalar_count`] — the always-correct reference: scalar block
//!   decode, branchless merge, no skipping. The differential tests pin every
//!   other kernel (and the plain-row kernels) against it.
//! * [`compressed_simd_count`] — the merge-class kernel: blocks are decoded
//!   by the fastest unpacker available (an AVX2 gather/variable-shift
//!   bitpack decoder when the CPU has it, the scalar reference otherwise)
//!   and fed to the block merge ([`simd_count`]). Blocks whose header maximum
//!   falls below the merge cursor are skipped without touching their
//!   payload.
//! * [`compressed_skip_count`] — the search-class kernel for skewed pairs:
//!   keys gallop across block *headers*, so a block that cannot contain any
//!   key costs two word reads and zero decode work; candidate blocks are
//!   decoded once and the keys within range are binary-searched in the
//!   64-entry stack buffer.
//!
//! [`compressed_count_closing`] picks between the two accelerated kernels
//! per pair by the compressed analogue of the hybrid rule: the merge while
//! the longer operand is at most
//! [`COMPRESSED_MERGE_FACTOR`](super::hybrid::COMPRESSED_MERGE_FACTOR)
//! times the shorter, the skip kernel beyond. The factor is lower than the
//! plain rows' because decoding makes every merged element dearer
//! (`docs/TUNING.md`, "Merge/search boundary").
//!
//! They run wherever a compressed row lives — a local window slice, a
//! cached entry, or a transfer buffer the RMA layer has landed (and, under
//! fault injection, verified) word for word.
//!
//! All kernels share one contract: they count
//! `|a ∩ {x ∈ decode(row) : x > bound}|` for a sorted duplicate-free `a`,
//! where `bound = Some(v)` expresses the upper-triangle filtering of the LCC
//! loops (`None` intersects against the whole row). Every kernel returns
//! identical counts; only the work shape differs.

use super::hybrid::{compressed_merge_is_faster, CostModel};
use super::simd::simd_count;
use rmatc_graph::compressed::{decode_block_scalar, BlockHeader, RowCursor, BLOCK_VALUES};
use rmatc_graph::types::VertexId;

/// Decodes one block with the fastest decoder available; bit-identical to
/// [`decode_block_scalar`]. Returns the value count.
#[inline]
pub fn decode_block_fast(
    header: &BlockHeader,
    payload: &[u32],
    base: u32,
    out: &mut [VertexId; BLOCK_VALUES],
) -> usize {
    #[cfg(target_arch = "x86_64")]
    {
        // The AVX2 unpacker handles bitpack widths whose fields fit a
        // 4-byte load at any bit phase (w ≤ 25 ⇒ 7-bit phase + 25 bits ≤ 32).
        // Wider blocks and varint escapes are rare (they need ≥ 33 M vertex
        // gaps) and fall back to the scalar reference.
        if (1..=25).contains(&header.code) && super::simd::avx2_available() {
            // SAFETY: AVX2 support verified at runtime; width bound checked.
            unsafe { decode_bitpack_avx2(header, payload, base, out) };
            return header.count;
        }
    }
    decode_block_scalar(header, payload, base, out);
    header.count
}

/// AVX2 bitpack unpacker: gathers the 32-bit window holding each lane's
/// field, variable-shifts and masks out the deltas, then reconstructs the
/// values with an in-register inclusive prefix sum (`v_i = base + Σd + i`).
/// Tail lanes (fewer than 8 left, or whose 4-byte window would read past the
/// payload) decode scalar.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn decode_bitpack_avx2(
    header: &BlockHeader,
    payload: &[u32],
    base: u32,
    out: &mut [VertexId; BLOCK_VALUES],
) {
    use std::arch::x86_64::*;
    let w = header.code as usize;
    let n = header.count;
    let bytes = payload.len() * 4;
    let mask = _mm256_set1_epi32(((1u32 << w) - 1) as i32);
    let iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    let wvec = _mm256_set1_epi32(w as i32);
    let seven = _mm256_set1_epi32(7);
    let mut carry = base;
    let mut k = 0usize;
    // Lane 7's 4-byte window is the furthest read: stay inside the payload.
    while k + 8 <= n && ((k + 7) * w) / 8 + 4 <= bytes {
        let bits = _mm256_add_epi32(
            _mm256_set1_epi32((k * w) as i32),
            _mm256_mullo_epi32(iota, wvec),
        );
        let byte_off = _mm256_srli_epi32::<3>(bits);
        let shifts = _mm256_and_si256(bits, seven);
        let gathered = _mm256_i32gather_epi32::<1>(payload.as_ptr().cast::<i32>(), byte_off);
        let d = _mm256_and_si256(_mm256_srlv_epi32(gathered, shifts), mask);
        // Inclusive prefix sum across the 8 lanes: two in-lane shifts, then
        // the low half's total broadcast into the high half.
        let mut x = d;
        x = _mm256_add_epi32(x, _mm256_slli_si256::<4>(x));
        x = _mm256_add_epi32(x, _mm256_slli_si256::<8>(x));
        let low = _mm256_permute2x128_si256::<0x08>(x, x);
        x = _mm256_add_epi32(x, _mm256_shuffle_epi32::<0xff>(low));
        let vals = _mm256_add_epi32(_mm256_add_epi32(x, iota), _mm256_set1_epi32(carry as i32));
        _mm256_storeu_si256(out.as_mut_ptr().add(k).cast(), vals);
        carry = out[k + 7].wrapping_add(1);
        k += 8;
    }
    // Scalar tail from bit position k·w, continuing the delta chain. Reads
    // clamp past the payload end (zeros) so a corrupted header claiming more
    // values than the payload carries decodes garbage instead of panicking.
    let mut bitpos = k * w;
    let mut value = carry as u64;
    let field_mask = (1u64 << w) - 1;
    for slot in out.iter_mut().take(n).skip(k) {
        let wi = bitpos / 32;
        let sh = bitpos % 32;
        let mut cur = (payload.get(wi).copied().unwrap_or(0) as u64) >> sh;
        if sh + w > 32 {
            cur |= (payload.get(wi + 1).copied().unwrap_or(0) as u64) << (32 - sh);
        }
        value += cur & field_mask;
        *slot = value as VertexId;
        value += 1;
        bitpos += w;
    }
}

/// Branchless merge of one decoded block against the remaining keys.
/// Returns the matches and how many keys were consumed (everything `≤` the
/// block maximum — those can never match a later block).
#[inline]
fn merge_block(block: &[VertexId], a: &[VertexId]) -> (u64, usize) {
    let (mut i, mut j, mut count) = (0usize, 0usize, 0u64);
    while i < block.len() && j < a.len() {
        let x = block[i];
        let y = a[j];
        count += u64::from(x == y);
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    (count, j)
}

/// First in-block index past `bound` (0 when unbounded). Only the first
/// decoded block of a row can hold values at or below the bound — later
/// blocks start past the previous block's maximum — but the partition is
/// O(log 64) and keeping it unconditional keeps the kernels obviously equal.
#[inline]
fn block_start(block: &[VertexId], bound: Option<VertexId>) -> usize {
    match bound {
        Some(b) => block.partition_point(|&x| x <= b),
        None => 0,
    }
}

/// Scalar reference: decodes every block and merges branchlessly. No
/// skipping, no SIMD — the fixed point the accelerated kernels and the
/// plain-row differential suites are tested against.
pub fn compressed_scalar_count(a: &[VertexId], row: &[u32], bound: Option<VertexId>) -> u64 {
    let mut cursor = RowCursor::new(row);
    let mut buf = [0u32; BLOCK_VALUES];
    let mut count = 0u64;
    let mut ai = 0usize;
    while !cursor.is_done() {
        let n = cursor.decode_block(&mut buf);
        let start = block_start(&buf[..n], bound);
        let (c, used) = merge_block(&buf[start..n], &a[ai..]);
        count += c;
        ai += used;
    }
    count
}

/// Merge-class kernel: decodes candidate blocks with [`decode_block_fast`]
/// and feeds them to the block merge; blocks wholly below
/// the bound or the merge cursor are skipped via their header maximum
/// without touching the payload.
pub fn compressed_simd_count(a: &[VertexId], row: &[u32], bound: Option<VertexId>) -> u64 {
    let mut cursor = RowCursor::new(row);
    let mut buf = [0u32; BLOCK_VALUES];
    let mut count = 0u64;
    let mut ai = 0usize;
    while ai < a.len() {
        let Some(h) = cursor.peek() else { break };
        if bound.is_some_and(|b| h.max <= b) || h.max < a[ai] {
            cursor.skip_block();
            continue;
        }
        let n = decode_block_fast(&h, cursor.payload(&h), cursor.base(), &mut buf);
        cursor.skip_block();
        let start = block_start(&buf[..n], bound);
        let hi = ai + a[ai..].partition_point(|&x| x <= h.max);
        count += simd_count(&buf[start..n], &a[ai..hi]);
        ai = hi;
    }
    count
}

/// Search-class kernel for skewed pairs (few keys against a long compressed
/// row): keys advance across block headers, skipping — without decoding —
/// every block whose maximum is below the next key; a candidate block is
/// decoded once and all keys within its range binary-search the 64-entry
/// stack buffer.
pub fn compressed_skip_count(a: &[VertexId], row: &[u32], bound: Option<VertexId>) -> u64 {
    let mut cursor = RowCursor::new(row);
    let mut buf = [0u32; BLOCK_VALUES];
    let mut count = 0u64;
    // Keys at or below the bound cannot match a row value above it.
    let mut ai = match bound {
        Some(b) => a.partition_point(|&x| x <= b),
        None => 0,
    };
    while ai < a.len() {
        let Some(h) = cursor.peek() else { break };
        if h.max < a[ai] {
            cursor.skip_block();
            continue;
        }
        let n = decode_block_fast(&h, cursor.payload(&h), cursor.base(), &mut buf);
        cursor.skip_block();
        let start = block_start(&buf[..n], bound);
        while ai < a.len() && a[ai] <= h.max {
            count += u64::from(buf[start..n].binary_search(&a[ai]).is_ok());
            ai += 1;
        }
    }
    count
}

/// The per-pair dispatcher: the compressed analogue of the hybrid rule.
/// Merge-class shapes (and every pair where the keys outnumber the row, for
/// which key-wise search degenerates) run [`compressed_simd_count`]; skewed
/// few-keys pairs run [`compressed_skip_count`]. The class boundary is
/// `|B| ≤ COMPRESSED_MERGE_FACTOR · |A|` ([`compressed_merge_is_faster`]),
/// the one rule [`CostModel`] names.
pub fn compressed_count_closing(
    a: &[VertexId],
    row: &[u32],
    bound: Option<VertexId>,
    _model: &CostModel,
) -> u64 {
    let n = rmatc_graph::compressed::decoded_len(row);
    if a.is_empty() || n == 0 {
        return 0;
    }
    let (short, long) = (a.len().min(n), a.len().max(n));
    if a.len() > n || compressed_merge_is_faster(short, long) {
        compressed_simd_count(a, row, bound)
    } else {
        compressed_skip_count(a, row, bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use rand::SeedableRng;
    use rmatc_graph::compressed::compress_row;

    fn random_sorted(rng: &mut impl Rng, len: usize, universe: u32) -> Vec<u32> {
        let mut v: Vec<u32> = (0..len).map(|_| rng.gen_range(0..universe)).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    fn reference(a: &[u32], row_values: &[u32], bound: Option<u32>) -> u64 {
        row_values
            .iter()
            .filter(|&&x| bound.is_none_or(|b| x > b))
            .filter(|x| a.binary_search(x).is_ok())
            .count() as u64
    }

    #[test]
    fn corrupted_rows_never_panic_any_kernel() {
        // The decoders trust nothing about a row: over arbitrary, truncated
        // or bit-flipped words every kernel must produce a garbage count
        // without reading out of bounds or looping forever.
        let mut rng = rand::rngs::StdRng::seed_from_u64(97);
        let model = CostModel::Analytic;
        let a = random_sorted(&mut rng, 200, 1 << 16);
        let mut valid = Vec::new();
        compress_row(&random_sorted(&mut rng, 500, 1 << 20), &mut valid);
        for case in 0..300 {
            let row: Vec<u32> = match case % 3 {
                0 => (0..rng.gen_range(0..50)).map(|_| rng.gen()).collect(),
                1 => valid[..rng.gen_range(0..=valid.len())].to_vec(),
                _ => {
                    let mut r = valid.clone();
                    let at = rng.gen_range(0..r.len());
                    r[at] ^= rng.gen::<u32>();
                    r
                }
            };
            let bound = if case % 2 == 0 { None } else { Some(1 << 15) };
            compressed_scalar_count(&a, &row, bound);
            compressed_simd_count(&a, &row, bound);
            compressed_skip_count(&a, &row, bound);
            compressed_count_closing(&a, &row, bound, &model);
        }
    }

    #[test]
    fn all_kernels_agree_with_reference_on_random_pairs() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        let model = CostModel::Analytic;
        for _ in 0..200 {
            let la = rng.gen_range(0..400);
            let lb = rng.gen_range(0..400);
            let a = random_sorted(&mut rng, la, 700);
            let b = random_sorted(&mut rng, lb, 700);
            let mut row = Vec::new();
            compress_row(&b, &mut row);
            for bound in [None, Some(0u32), Some(350), Some(699), Some(u32::MAX)] {
                let expected = reference(&a, &b, bound);
                assert_eq!(compressed_scalar_count(&a, &row, bound), expected, "scalar");
                assert_eq!(compressed_simd_count(&a, &row, bound), expected, "simd");
                assert_eq!(compressed_skip_count(&a, &row, bound), expected, "skip");
                assert_eq!(
                    compressed_count_closing(&a, &row, bound, &model),
                    expected,
                    "dispatch"
                );
            }
        }
    }

    #[test]
    fn wide_and_varint_blocks_agree() {
        // Huge gaps force w > 25 (AVX2 fallback) and varint escapes.
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for _ in 0..50 {
            let mut b: Vec<u32> = Vec::new();
            let mut v = 0u64;
            while b.len() < 200 && v < u32::MAX as u64 {
                v += if rng.gen_bool(0.1) {
                    rng.gen_range(1 << 26..1u64 << 31)
                } else {
                    rng.gen_range(1..100)
                };
                if v > u32::MAX as u64 {
                    break;
                }
                b.push(v as u32);
            }
            let a = random_sorted(&mut rng, 150, u32::MAX);
            let mut row = Vec::new();
            compress_row(&b, &mut row);
            for bound in [None, Some(1u32 << 30)] {
                let expected = reference(&a, &b, bound);
                assert_eq!(compressed_scalar_count(&a, &row, bound), expected);
                assert_eq!(compressed_simd_count(&a, &row, bound), expected);
                assert_eq!(compressed_skip_count(&a, &row, bound), expected);
            }
        }
    }

    #[test]
    fn fast_decoder_matches_scalar_on_every_width() {
        // One row per bitpack width: deltas just under 2^w.
        for w in 0..=31u32 {
            let mut values = Vec::new();
            let mut v = 0u64;
            let step = 1u64 << w;
            for i in 0..100 {
                v += 1 + (step - 1) * u64::from(i % 3 != 0);
                if v > u32::MAX as u64 {
                    break;
                }
                values.push(v as u32);
            }
            let mut row = Vec::new();
            compress_row(&values, &mut row);
            let mut cursor = RowCursor::new(&row);
            let mut scalar = [0u32; BLOCK_VALUES];
            let mut fast = [0u32; BLOCK_VALUES];
            while let Some(h) = cursor.peek() {
                decode_block_scalar(&h, cursor.payload(&h), cursor.base(), &mut scalar);
                let n = decode_block_fast(&h, cursor.payload(&h), cursor.base(), &mut fast);
                assert_eq!(n, h.count);
                assert_eq!(&scalar[..n], &fast[..n], "w={w} code={}", h.code);
                cursor.skip_block();
            }
        }
    }

    #[test]
    fn skip_kernel_never_decodes_unreachable_blocks() {
        // Structural check through counts only: a single key past the row's
        // end must return 0 whichever kernel runs (and not panic while
        // skipping every block).
        let b: Vec<u32> = (0..1000).map(|i| i * 3).collect();
        let mut row = Vec::new();
        compress_row(&b, &mut row);
        assert_eq!(compressed_skip_count(&[50_000], &row, None), 0);
        assert_eq!(compressed_simd_count(&[50_000], &row, None), 0);
        assert_eq!(compressed_skip_count(&[1500], &row, None), 1);
    }

    #[test]
    fn degenerate_inputs() {
        let model = CostModel::Analytic;
        let mut empty_row = Vec::new();
        compress_row(&[], &mut empty_row);
        assert_eq!(
            compressed_count_closing(&[1, 2], &empty_row, None, &model),
            0
        );
        assert_eq!(compressed_count_closing(&[], &empty_row, None, &model), 0);
        let mut row = Vec::new();
        compress_row(&[5, 10], &mut row);
        assert_eq!(compressed_count_closing(&[], &row, None, &model), 0);
    }
}
