//! Compressed adjacency storage: delta-encoded, bitpacked neighbor blocks
//! with a varint escape.
//!
//! The paper's distributed pipeline is bound by bytes — every remote
//! adjacency row crosses the network via RMA and occupies CLaMPI buffer
//! space verbatim, so row size caps both transfer cost and effective cache
//! capacity. Sorted adjacency lists compress well: consecutive neighbor ids
//! have small gaps, and delta coding turns a row of 32-bit ids into a row of
//! mostly-small deltas that bitpack 2–4× denser.
//!
//! # Row format
//!
//! A compressed row is a sequence of `u32` **words** — deliberately
//! word-shaped so the existing RMA windows (`Window<u32>`), CLaMPI entries
//! and checksums carry compressed rows without any new plumbing:
//!
//! ```text
//! row      := count block*
//! count    := u32                  // number of decoded neighbor ids
//! block    := header0 header1 payload*
//! header0  := code[0..6] | (count-1)[6..12] | payload_words[12..32]
//! header1  := block max             // last decoded value of the block
//! ```
//!
//! Each block holds up to [`BLOCK_VALUES`] (64) values, stored as
//! `delta − 1` against the previous decoded value (the first value of the
//! row is preceded by a virtual `−1`, so an id `v` stores as `v` itself).
//! Strictly increasing rows make every stored delta non-negative.
//!
//! `code ≤ 32` is the bitpack width `w`: stored deltas are packed LSB-first,
//! `w` bits each (`w = 0` encodes a consecutive run with an empty payload).
//! `code = 33` ([`VARINT_CODE`]) is the varint escape: LEB128 bytes packed
//! into words, chosen per block whenever it beats bitpacking — one huge gap
//! (e.g. a `u32::MAX` delta) then costs 5 bytes instead of inflating the
//! whole block to 32-bit lanes.
//!
//! `header1` carries the block maximum, so a search-class kernel can decide
//! whether a block can contain a key *without decoding it* — the
//! galloping-friendly skip bound the fused kernels in
//! `rmatc-core::intersect` use ([`RowCursor::skip_block`]). The per-row word
//! offset array of [`CompressedCsr`] gives O(1) row starts.
//!
//! **Corruption tolerance:** the distributed reader only decodes transfers
//! the self-healing layer's checksum has verified (see `rmatc-rma::fault`),
//! but a decoder is safety code and does not rely on that: it trusts no
//! header field. [`RowCursor`] treats a block that does not fit inside the
//! row as the end of the row, and the payload readers clamp every access,
//! so arbitrary input yields garbage counts but never an out-of-bounds
//! read, panic, or non-termination.
//!
//! # Paper map
//!
//! | Item | Paper location | What it reproduces |
//! |---|---|---|
//! | [`CompressedCsr`] | §II-B, Fig. 2 | The CSR arrays of Figure 2 with the adjacency array delta/varint-compressed; offsets index words instead of ids |
//! | [`RowCursor`] | §III-B | Streaming block access for the intersection kernels, with skip bounds replacing the random indexing plain rows allow |
//! | [`GraphStorage`] | — | The storage-mode knob the local and distributed configs thread through the whole stack |

use crate::csr::CsrGraph;
use crate::types::{Direction, VertexId};

/// Maximum number of values per compressed block.
pub const BLOCK_VALUES: usize = 64;

/// `code` value marking a varint-escaped (LEB128) block payload.
pub const VARINT_CODE: u32 = 33;

const CODE_BITS: u32 = 6;
const COUNT_BITS: u32 = 6;

/// Which adjacency representation a pipeline runs on. Defaults to
/// [`GraphStorage::Plain`]; every path accepts either and the differential
/// suite proves scores identical across the two.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum GraphStorage {
    /// Uncompressed CSR: rows are raw sorted `u32` ids.
    #[default]
    Plain,
    /// Delta/varint compressed rows (this module's format).
    Compressed,
}

impl GraphStorage {
    /// Storage selected by the `RMATC_STORAGE` environment variable
    /// (`compressed` → [`GraphStorage::Compressed`], anything else → plain).
    /// The CI compressed leg runs the equivalence suite through this knob.
    pub fn from_env() -> Self {
        match std::env::var("RMATC_STORAGE") {
            Ok(v) if v.eq_ignore_ascii_case("compressed") => GraphStorage::Compressed,
            _ => GraphStorage::Plain,
        }
    }

    /// Short display label (`"plain"` / `"compressed"`).
    pub fn label(&self) -> &'static str {
        match self {
            GraphStorage::Plain => "plain",
            GraphStorage::Compressed => "compressed",
        }
    }
}

/// Decoded fields of one block header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockHeader {
    /// Bitpack width (`0..=32`) or [`VARINT_CODE`].
    pub code: u32,
    /// Number of values in the block (`1..=BLOCK_VALUES`).
    pub count: usize,
    /// Number of payload words following the two header words.
    pub payload_words: usize,
    /// Largest (= last) decoded value of the block — the skip bound.
    pub max: VertexId,
}

#[inline]
fn pack_header0(code: u32, count: usize, payload_words: usize) -> u32 {
    debug_assert!(code <= VARINT_CODE);
    debug_assert!((1..=BLOCK_VALUES).contains(&count));
    debug_assert!(payload_words < (1 << (32 - CODE_BITS - COUNT_BITS)));
    code | (((count - 1) as u32) << CODE_BITS)
        | ((payload_words as u32) << (CODE_BITS + COUNT_BITS))
}

#[inline]
fn unpack_header0(word: u32) -> (u32, usize, usize) {
    let code = word & ((1 << CODE_BITS) - 1);
    let count = ((word >> CODE_BITS) & ((1 << COUNT_BITS) - 1)) as usize + 1;
    let payload_words = (word >> (CODE_BITS + COUNT_BITS)) as usize;
    (code, count, payload_words)
}

/// LEB128 length of one delta in bytes.
#[inline]
fn varint_len(d: u32) -> usize {
    match d {
        0..=0x7f => 1,
        0x80..=0x3fff => 2,
        0x4000..=0x1f_ffff => 3,
        0x20_0000..=0xfff_ffff => 4,
        _ => 5,
    }
}

/// Appends one encoded block for `values` (≤ [`BLOCK_VALUES`], strictly
/// increasing, all greater than `*prev_plus1 - 1`). `prev_plus1` carries the
/// delta chain across blocks: it holds `last decoded value + 1` and starts
/// at 0 for a fresh row.
fn encode_block(values: &[VertexId], prev_plus1: &mut u64, out: &mut Vec<u32>) {
    let n = values.len();
    debug_assert!((1..=BLOCK_VALUES).contains(&n));
    let mut deltas = [0u32; BLOCK_VALUES];
    let mut p = *prev_plus1;
    for (i, &v) in values.iter().enumerate() {
        debug_assert!((v as u64) >= p, "rows must be strictly increasing");
        deltas[i] = ((v as u64) - p) as u32;
        p = v as u64 + 1;
    }
    *prev_plus1 = p;

    let w = deltas[..n]
        .iter()
        .map(|d| 32 - d.leading_zeros())
        .max()
        .unwrap_or(0);
    let bitpack_words = (n * w as usize).div_ceil(32);
    let varint_bytes: usize = deltas[..n].iter().map(|&d| varint_len(d)).sum();
    let varint_words = varint_bytes.div_ceil(4);
    let max = *values.last().expect("non-empty block");

    if varint_words < bitpack_words {
        out.push(pack_header0(VARINT_CODE, n, varint_words));
        out.push(max);
        let mut cur = 0u32;
        let mut shift = 0u32;
        for &d in &deltas[..n] {
            let mut d = d;
            loop {
                let byte = if d >= 0x80 { (d & 0x7f) | 0x80 } else { d };
                cur |= byte << shift;
                shift += 8;
                if shift == 32 {
                    out.push(cur);
                    cur = 0;
                    shift = 0;
                }
                if d < 0x80 {
                    break;
                }
                d >>= 7;
            }
        }
        if shift > 0 {
            out.push(cur);
        }
    } else {
        out.push(pack_header0(w, n, bitpack_words));
        out.push(max);
        if w > 0 {
            let mut cur = 0u64;
            let mut bits = 0u32;
            for &d in &deltas[..n] {
                cur |= (d as u64) << bits;
                bits += w;
                while bits >= 32 {
                    out.push(cur as u32);
                    cur >>= 32;
                    bits -= 32;
                }
            }
            if bits > 0 {
                out.push(cur as u32);
            }
        }
    }
}

/// Compresses one sorted, duplicate-free adjacency row, appending the
/// encoded words (count word + blocks) to `out`.
pub fn compress_row(values: &[VertexId], out: &mut Vec<u32>) {
    debug_assert!(
        values.windows(2).all(|w| w[0] < w[1]),
        "rows must be sorted and duplicate-free"
    );
    out.push(values.len() as u32);
    let mut prev_plus1 = 0u64;
    for chunk in values.chunks(BLOCK_VALUES) {
        encode_block(chunk, &mut prev_plus1, out);
    }
}

/// Number of decoded values in a compressed row (its first word). Zero for
/// an empty slice, so truncated transfers degrade loudly in debug builds
/// rather than reading out of bounds.
#[inline]
pub fn decoded_len(row: &[u32]) -> usize {
    row.first().copied().unwrap_or(0) as usize
}

/// Decodes a full compressed row, appending the ids to `out`.
pub fn decode_row(row: &[u32], out: &mut Vec<VertexId>) {
    let mut cursor = RowCursor::new(row);
    let mut buf = [0u32; BLOCK_VALUES];
    while !cursor.is_done() {
        let n = cursor.decode_block(&mut buf);
        out.extend_from_slice(&buf[..n]);
    }
}

/// Streaming reader over one compressed row: peek a block's header (count,
/// max, payload shape), then either decode it into a stack buffer or skip it
/// wholesale using the header max as the new delta base. The fused
/// intersection kernels drive this cursor directly, so a skipped block costs
/// two word reads and no decode work.
#[derive(Debug, Clone)]
pub struct RowCursor<'a> {
    words: &'a [u32],
    /// Index of the next block's header0.
    pos: usize,
    /// Values not yet decoded or skipped.
    remaining: usize,
    /// `last decoded value + 1` (0 at the start of the row). Fits u64 so the
    /// virtual `−1` predecessor and a `u32::MAX` value are both exact.
    prev_plus1: u64,
}

impl<'a> RowCursor<'a> {
    /// Opens a cursor over a full compressed row (`row[0]` = value count).
    pub fn new(row: &'a [u32]) -> Self {
        Self {
            words: row,
            pos: 1,
            remaining: decoded_len(row),
            prev_plus1: 0,
        }
    }

    /// Total values left to decode or skip.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// True once every value has been decoded or skipped.
    #[inline]
    pub fn is_done(&self) -> bool {
        self.remaining == 0
    }

    /// The delta base of the next block: `previous decoded value + 1`
    /// (0 at the row start). Only meaningful while `!is_done()`, where a
    /// well-formed row always fits `u32` (values are strictly increasing
    /// below `2^32`); a corrupted block maximum saturates instead of
    /// wrapping.
    #[inline]
    pub fn base(&self) -> u32 {
        self.prev_plus1.min(u32::MAX as u64) as u32
    }

    /// Word index (within the row slice) of the next block's header, i.e.
    /// how many words of the row have been consumed so far. Lets fused
    /// copy+decode loops land the row incrementally block by block.
    #[inline]
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Header of the next block, without consuming it. Returns `None` at the
    /// end of the row — including the corrupted "ends": a header that does
    /// not fit in the remaining words, or one whose claimed payload extends
    /// past the row.
    #[inline]
    pub fn peek(&self) -> Option<BlockHeader> {
        if self.remaining == 0 || self.pos + 1 >= self.words.len() {
            return None;
        }
        let (code, count, payload_words) = unpack_header0(self.words[self.pos]);
        if self.pos + 2 + payload_words > self.words.len() {
            return None;
        }
        Some(BlockHeader {
            code,
            count,
            payload_words,
            max: self.words[self.pos + 1],
        })
    }

    /// Payload words of the next block (empty for `w = 0` runs). Pairs with
    /// [`RowCursor::peek`] for out-of-line (SIMD) decoders; afterwards call
    /// [`RowCursor::skip_block`] to consume the block.
    #[inline]
    pub fn payload(&self, header: &BlockHeader) -> &'a [u32] {
        &self.words[self.pos + 2..self.pos + 2 + header.payload_words]
    }

    /// Consumes the next block without decoding it: the header max becomes
    /// the new delta base. Two word reads, no payload access. On a corrupted
    /// row ([`RowCursor::peek`] → `None` while values remain) the cursor
    /// marks itself done so every driving loop terminates.
    pub fn skip_block(&mut self) {
        let Some(header) = self.peek() else {
            self.remaining = 0;
            return;
        };
        self.pos += 2 + header.payload_words;
        self.remaining = self.remaining.saturating_sub(header.count);
        self.prev_plus1 = header.max as u64 + 1;
    }

    /// Decodes the next block into `out`, returning the number of values
    /// written. Scalar reference decoder ([`decode_block_scalar`]) — the SIMD
    /// variants in `rmatc-core::intersect` must agree with it bit-exactly.
    /// Returns 0 (and marks the cursor done) on a corrupted row.
    pub fn decode_block(&mut self, out: &mut [VertexId; BLOCK_VALUES]) -> usize {
        let Some(header) = self.peek() else {
            self.remaining = 0;
            return 0;
        };
        decode_block_scalar(&header, self.payload(&header), self.base(), out);
        self.pos += 2 + header.payload_words;
        self.remaining = self.remaining.saturating_sub(header.count);
        self.prev_plus1 = header.max as u64 + 1;
        header.count
    }
}

/// Decodes one block's payload given its header and delta base (`previous
/// decoded value + 1`; 0 at a row start). The scalar reference every
/// accelerated decoder is differentially tested against.
///
/// Corruption-tolerant: a header claiming more values than its payload
/// carries reads zeros past the payload end (`payload.get` clamping), so
/// fault-injected garbage decodes to garbage values without panicking.
pub fn decode_block_scalar(
    header: &BlockHeader,
    payload: &[u32],
    base: u32,
    out: &mut [VertexId; BLOCK_VALUES],
) {
    let mut value = base as u64;
    if header.code == VARINT_CODE {
        let mut wi = 0usize;
        let mut shift = 0u32;
        for slot in out.iter_mut().take(header.count) {
            let mut d = 0u32;
            let mut dshift = 0u32;
            loop {
                let byte = (payload.get(wi).copied().unwrap_or(0) >> shift) & 0xff;
                shift += 8;
                if shift == 32 {
                    wi += 1;
                    shift = 0;
                }
                if dshift < 32 {
                    d |= (byte & 0x7f) << dshift;
                }
                dshift += 7;
                if byte < 0x80 {
                    break;
                }
            }
            value += d as u64;
            *slot = value as VertexId;
            value += 1;
        }
    } else {
        let w = header.code;
        let mask = if w == 32 {
            u32::MAX as u64
        } else {
            (1u64 << w) - 1
        };
        let mut cur = 0u64;
        let mut bits = 0u32;
        let mut wi = 0usize;
        for slot in out.iter_mut().take(header.count) {
            while bits < w {
                cur |= (payload.get(wi).copied().unwrap_or(0) as u64) << bits;
                wi += 1;
                bits += 32;
            }
            let d = cur & mask;
            cur >>= w;
            bits -= w;
            value += d;
            *slot = value as VertexId;
            value += 1;
        }
    }
}

/// A whole graph (or rank partition) with every adjacency row compressed.
/// `row_offsets[v] .. row_offsets[v + 1]` indexes the words of row `v` in
/// `words` — the compressed analogue of Figure 2's two CSR arrays.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompressedCsr {
    row_offsets: Vec<u64>,
    words: Vec<u32>,
    direction: Direction,
    /// Total decoded values across all rows (= the plain edge count).
    total_values: u64,
}

impl CompressedCsr {
    /// Compresses every row of a plain CSR graph.
    pub fn from_csr(g: &CsrGraph) -> Self {
        let n = g.vertex_count();
        let mut row_offsets = Vec::with_capacity(n + 1);
        let mut words = Vec::with_capacity(g.adjacencies().len() / 2 + n);
        row_offsets.push(0);
        for v in 0..n as VertexId {
            compress_row(g.neighbours(v), &mut words);
            row_offsets.push(words.len() as u64);
        }
        Self {
            row_offsets,
            words,
            direction: g.direction(),
            total_values: g.edge_count(),
        }
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.row_offsets.len() - 1
    }

    /// Number of stored (directed) edges, i.e. total decoded values.
    pub fn edge_count(&self) -> u64 {
        self.total_values
    }

    /// Direction of the graph.
    pub fn direction(&self) -> Direction {
        self.direction
    }

    /// Word-offset array (length `n + 1`) into [`CompressedCsr::words`].
    pub fn row_offsets(&self) -> &[u64] {
        &self.row_offsets
    }

    /// The concatenated compressed rows.
    pub fn words(&self) -> &[u32] {
        &self.words
    }

    /// The compressed words of row `v`.
    pub fn row(&self, v: VertexId) -> &[u32] {
        let lo = self.row_offsets[v as usize] as usize;
        let hi = self.row_offsets[v as usize + 1] as usize;
        &self.words[lo..hi]
    }

    /// Out-degree of `v` (O(1): the row's count word).
    pub fn degree(&self, v: VertexId) -> u32 {
        self.row(v).first().copied().unwrap_or(0)
    }

    /// Decompresses the whole graph back to a plain CSR (tests and
    /// differential suites).
    pub fn decode(&self) -> CsrGraph {
        let n = self.vertex_count();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut adjacencies = Vec::with_capacity(self.total_values as usize);
        offsets.push(0);
        for v in 0..n as VertexId {
            decode_row(self.row(v), &mut adjacencies);
            offsets.push(adjacencies.len() as u64);
        }
        CsrGraph::from_raw_parts(offsets, adjacencies, self.direction)
    }

    /// Bytes occupied by the compressed representation
    /// (`(n + 1) * 8` offsets + `words * 4`), comparable with
    /// [`CsrGraph::csr_size_bytes`].
    pub fn stored_bytes(&self) -> u64 {
        (self.row_offsets.len() as u64) * 8 + (self.words.len() as u64) * 4
    }

    /// Bytes the adjacency data would occupy uncompressed (`m * 4`).
    pub fn logical_adjacency_bytes(&self) -> u64 {
        self.total_values * 4
    }

    /// Bytes the adjacency data occupies compressed (`words * 4`).
    pub fn stored_adjacency_bytes(&self) -> u64 {
        (self.words.len() as u64) * 4
    }

    /// Adjacency compression ratio: logical (plain) bytes over stored
    /// (compressed) bytes. Above 1 means compression wins; an empty graph
    /// reports 1.
    pub fn compression_ratio(&self) -> f64 {
        if self.words.is_empty() {
            return 1.0;
        }
        self.logical_adjacency_bytes() as f64 / self.stored_adjacency_bytes() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{GraphGenerator, RmatGenerator};

    fn round_trip(values: &[VertexId]) {
        let mut words = Vec::new();
        compress_row(values, &mut words);
        assert_eq!(decoded_len(&words), values.len());
        let mut back = Vec::new();
        decode_row(&words, &mut back);
        assert_eq!(back, values, "row {values:?} failed to round-trip");
    }

    #[test]
    fn adversarial_rows_round_trip() {
        round_trip(&[]);
        round_trip(&[0]);
        round_trip(&[u32::MAX]);
        round_trip(&[0, u32::MAX]);
        round_trip(&(0..1000).collect::<Vec<_>>()); // dense run: w = 0 blocks
        round_trip(&(0..64).map(|i| i * 1_000_000).collect::<Vec<_>>());
        // One huge gap in an otherwise dense block: varint escape territory.
        let mut row: Vec<u32> = (0..63).collect();
        row.push(u32::MAX - 1);
        round_trip(&row);
        // Exactly one block, one more than a block, block-boundary sizes.
        for n in [63usize, 64, 65, 127, 128, 129] {
            round_trip(&(0..n as u32).map(|i| i * 3 + 1).collect::<Vec<_>>());
        }
    }

    #[test]
    fn corrupted_words_decode_to_garbage_without_panicking() {
        // A decoder trusts no header field: decoding arbitrary words must
        // be memory-safe and terminate, whatever garbage it yields.
        // Deterministic xorshift garbage plus targeted truncations of a
        // valid row.
        let mut state = 0x9E37_79B9_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as u32
        };
        let mut valid = Vec::new();
        compress_row(&(0..300).map(|i| i * 7).collect::<Vec<_>>(), &mut valid);
        let mut rows: Vec<Vec<u32>> = (0..200)
            .map(|i| (0..i % 40).map(|_| next()).collect())
            .collect();
        for cut in 0..valid.len() {
            rows.push(valid[..cut].to_vec());
        }
        // Valid structure, corrupted count word and corrupted headers.
        for _ in 0..50 {
            let mut r = valid.clone();
            let at = next() as usize % r.len();
            r[at] ^= next();
            rows.push(r);
        }
        for row in &rows {
            let mut out = Vec::new();
            decode_row(row, &mut out);
            let mut cursor = RowCursor::new(row);
            let mut buf = [0u32; BLOCK_VALUES];
            while !cursor.is_done() {
                if cursor.peek().is_some() {
                    cursor.decode_block(&mut buf);
                } else {
                    cursor.skip_block();
                }
            }
        }
    }

    #[test]
    fn dense_runs_cost_only_headers() {
        // A run starting at 0 has every delta-minus-one equal to zero,
        // including the first (which is relative to a virtual −1).
        let mut words = Vec::new();
        compress_row(&(0..64).collect::<Vec<_>>(), &mut words);
        // count + one w=0 block (2 header words, no payload).
        assert_eq!(words.len(), 3);
        // A shifted run still packs to the width of its first delta only.
        let mut shifted = Vec::new();
        compress_row(&(10..74).collect::<Vec<_>>(), &mut shifted);
        let (code, _, payload_words) = unpack_header0(shifted[1]);
        assert_eq!(code, 4, "width is set by the leading delta of 10");
        assert_eq!(payload_words, 8);
    }

    #[test]
    fn varint_escape_beats_bitpack_on_one_huge_gap() {
        let mut row: Vec<u32> = (0..63).collect();
        row.push(u32::MAX - 1);
        let mut words = Vec::new();
        compress_row(&row, &mut words);
        let (code, count, payload_words) = unpack_header0(words[1]);
        assert_eq!(code, VARINT_CODE);
        assert_eq!(count, 64);
        // 63 one-byte deltas + one five-byte delta = 68 bytes = 17 words,
        // versus 64 words bitpacked at w = 32.
        assert_eq!(payload_words, 17);
        let mut back = Vec::new();
        decode_row(&words, &mut back);
        assert_eq!(back, row);
    }

    #[test]
    fn cursor_skip_matches_decode() {
        let row: Vec<u32> = (0..300).map(|i| i * 7 + (i % 5)).collect();
        let mut words = Vec::new();
        compress_row(&row, &mut words);
        // Skip the first two blocks, decode the rest: must agree with the
        // tail of the full decode.
        let mut cursor = RowCursor::new(&words);
        cursor.skip_block();
        cursor.skip_block();
        assert_eq!(cursor.remaining(), 300 - 128);
        assert_eq!(cursor.base(), row[127] + 1);
        let mut buf = [0u32; BLOCK_VALUES];
        let mut tail = Vec::new();
        while !cursor.is_done() {
            let n = cursor.decode_block(&mut buf);
            tail.extend_from_slice(&buf[..n]);
        }
        assert_eq!(tail, row[128..]);
    }

    #[test]
    fn cursor_peek_exposes_skip_bounds() {
        let row: Vec<u32> = (0..128).map(|i| i * 2).collect();
        let mut words = Vec::new();
        compress_row(&row, &mut words);
        let cursor = RowCursor::new(&words);
        let h = cursor.peek().unwrap();
        assert_eq!(h.count, 64);
        assert_eq!(h.max, row[63]);
        assert_eq!(cursor.payload(&h).len(), h.payload_words);
    }

    #[test]
    fn compressed_csr_round_trips_and_compresses_rmat() {
        let g = RmatGenerator::paper(10, 8).generate_cleaned(7).into_csr();
        let c = CompressedCsr::from_csr(&g);
        assert_eq!(c.vertex_count(), g.vertex_count());
        assert_eq!(c.edge_count(), g.edge_count());
        assert_eq!(c.decode(), g);
        for v in 0..g.vertex_count() as VertexId {
            assert_eq!(c.degree(v), g.degree(v));
        }
        assert!(
            c.compression_ratio() >= 2.0,
            "R-MAT adjacency must compress at least 2x, got {}",
            c.compression_ratio()
        );
        assert!(c.stored_bytes() < g.csr_size_bytes());
    }

    #[test]
    fn empty_graph_compresses_cleanly() {
        let g = CsrGraph::from_edges(0, &[], Direction::Undirected);
        let c = CompressedCsr::from_csr(&g);
        assert_eq!(c.vertex_count(), 0);
        assert_eq!(c.edge_count(), 0);
        assert_eq!(c.compression_ratio(), 1.0);
        assert_eq!(c.decode(), g);
    }

    #[test]
    fn storage_labels_and_default() {
        assert_eq!(GraphStorage::default(), GraphStorage::Plain);
        assert_eq!(GraphStorage::Plain.label(), "plain");
        assert_eq!(GraphStorage::Compressed.label(), "compressed");
    }
}
