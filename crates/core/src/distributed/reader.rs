//! The two-get remote-adjacency protocol (steps 4–5 in Figure 3), with optional
//! CLaMPI caching of the adjacency window — the one remote-read path behind
//! [`crate::DistLcc`], [`crate::DistJaccard`] and the resident query service.
//!
//! The first get reads a row's `(start, end)` pair from the offsets window.
//! Both readers take many rows at once, grouped by owner with ascending local
//! indices, so each owner's pairs lie in one index range of its offsets
//! window. The range is split into spans where a gap would cost more bytes
//! than a get ([`spans_join`]), and each span is one get.
//! [`RowReader::read_spans`] reads the pairs of all of one source's remote
//! neighbours — what the edge loop does, cached or not (rows are sorted, so
//! the neighbours a rank owns ascend); [`RowReader::read_key_spans`] reads
//! the pairs of a sorted list of `(owner, local index)` keys — what the
//! service does for the unique rows of a batch. One key alone is the single
//! two-word get of Algorithm 3.
//!
//! This departs from the paper's non-cached baseline, which reads one pair
//! per remote edge. The first get is α-bound, and the α+β rule only joins
//! pairs whose gap costs less than the get it saves, so both modes read
//! spans: on the uniform degree-64 benchmark graph this halves the gets and
//! cuts the modeled time by 44%. A fault-free span is read in place, so the
//! wider reads cost the host nothing; the model charges β for their bytes.
//! The cache's measured gain is therefore `C_adj`'s alone, against a
//! baseline that already reads spans.
//!
//! [`RowReader`] offers the adjacency read in two shapes.
//! [`RowReader::read_key_rows`] reads the rows of a batch's sorted keys and
//! hands each back as a zero-copy [`RowRef`] (the service plans a batch of
//! rows first and answers from them afterwards). It probes every key in
//! `C_adj` first; the rows that must still cross the network — misses, and
//! every row nobody keeps — are read by span under the same join rule as
//! the offsets, a row's adjacency words taking the place of a pair's two
//! offsets words. One key alone is the single row get of Algorithm 3.
//! [`RowReader::start`] computes a per-edge operation ([`EdgeOp`]) over the
//! row *where it is* — in place on a local row, a cache hit or a fault-free
//! transfer nobody keeps, over the landed buffer otherwise — and hands back
//! the finished value with the transfer's cost still owed, so the edge loop
//! ([`super::pipeline`]) overlaps that latency with the next edges. A
//! faulted transfer is always landed first and computed on second, so no
//! kernel ever runs over a transfer its checksum has not verified. One rule
//! decides where a transfer is read — *who keeps the buffer*: a fault-free
//! read nobody keeps is read in place ([`Endpoint::get_in_place`]); a
//! faulted one lands in the caller's buffer; a row the cache keeps is
//! copied once, into the `Arc` the cache retains.
//!
//! | read | kept by | fault-free | faulted |
//! |---|---|---|---|
//! | edge-loop miss ([`RowReader::start`]) | the cache | the get's one `Arc` | the get's one `Arc` |
//! | batch row span ([`RowReader::read_key_rows`]) | the cache (misses) and the caller | in place; each miss copied into its own `Arc` | the caller's landing `Vec`; each row copied into its own `Arc` |
//! | non-cached or quarantine-bypass row in the edge loop | nobody | in place | the caller's landing `Vec` |
//! | offsets span | nobody | in place | the caller's span buffer ([`OffsetSpans`], or the service lane's words) |
//!
//! The edge loops keep one get per row. In the non-cached loop the row
//! spans' rule would cut `uniform14_lcc_noncached`'s modeled time by about
//! 15%, but on the quick-scale R-MAT runs it would also cut non-cached
//! communication by 58–74% (sized analytically), which puts the cache's
//! modeled gain (`distributed.cache_gain_modeled`) near or below 1: the
//! baseline would stop measuring what `C_adj` saves. In the cached loop the
//! overlap bank already hides about 99% of the modeled communication, so
//! spans there wait for the modeled clock to stop crediting unbounded
//! overlap (`ROADMAP.md` item 14).
//!
//! The simulator materializes a get's data at issue time, so a fault-free
//! read computes its value — and a miss admits its buffer — when it is
//! issued, in exactly the order a loop that waits for every get would; only
//! the cost ticket ([`rmatc_rma::PendingCharge`]) stays in flight. Under
//! fault injection unverified data is never trusted, and every remote read
//! is synchronous and self-healing: a read nobody keeps — offsets spans
//! and the service's row spans included — is verified and healed in the
//! caller's buffer ([`Endpoint::get_into_with_retry`]); an edge-loop miss is
//! verified and healed in its own buffer ([`Endpoint::get_with_retry`])
//! before it is computed on and admitted. Nothing is left in flight.
//!
//! The reader is the rank's windows, read through `&self`. Its cache,
//! [`AdjCache`], is a separate value the rank's one thread owns and lends to
//! every read as `&mut`, next to its endpoint: the rows
//! [`RowReader::read_key_rows`] returns borrow the windows alone, so a
//! caller may hold many of them while it keeps reading through the cache.

use super::config::DistConfig;
use super::windows::GraphWindows;
use rmatc_clampi::{CacheProbe, CachedWindow, RowRef};
use rmatc_graph::compressed::decoded_len;
use rmatc_graph::partition::{Partitioner, RankPartition};
use rmatc_graph::types::VertexId;
use rmatc_graph::GraphStorage;
use rmatc_rma::{Endpoint, NetworkModel, PendingCharge, RmaError, Window};
use std::convert::Infallible;
use std::sync::Arc;

/// One directed edge `(u, v)` of a locally owned vertex `u`, as the edge loop
/// hands it to an [`EdgeOp`].
#[derive(Debug, Clone, Copy)]
pub struct Edge<'a> {
    /// Index of `u` among the rank's local vertices.
    pub slot: usize,
    /// Global id of `u`.
    pub source: VertexId,
    /// The (plain) adjacency row of `u`.
    pub adj_u: &'a [VertexId],
    /// The neighbour whose row is being read.
    pub v: VertexId,
    /// Index of `v` within `adj_u`.
    pub k: usize,
}

/// The per-edge operation of a distributed edge loop: what to compute from
/// the row of `v` for the edge `(u, v)`, wherever that row turns up, and how
/// to fold the result into the rank's output. The edge loop calls
/// [`EdgeOp::local`] on a plain row of the rank's own partition; the reader
/// calls [`EdgeOp::stored`] on every row it reads — a window slice, a cache
/// hit, or a transfer once it has landed. Its second caller is the resident
/// service ([`crate::service`]), which folds the same operations over one
/// query's edges, one output per query, on the rows its batch landed.
pub trait EdgeOp: Sync {
    /// The result of one edge.
    type Value;
    /// One element of the rank's output.
    type Item: Send;

    /// The empty output of the rank that owns `part`, with room for every
    /// item the rank folds.
    fn output(&self, part: &RankPartition) -> Vec<Self::Item>;

    /// `v` is owned by the same rank: `adj_v` is its plain partition row.
    fn local(&self, edge: &Edge<'_>, adj_v: &[VertexId]) -> Self::Value;

    /// The remote row in place, in the window's storage representation (raw
    /// ids or compressed words): a window slice, a cache entry, or a landed
    /// (and, under fault injection, verified-clean) transfer buffer.
    fn stored(&self, edge: &Edge<'_>, row: &[VertexId]) -> Self::Value;

    /// Folds the value of `edge` into the rank's output.
    fn fold(&self, out: &mut Vec<Self::Item>, edge: &Edge<'_>, value: Self::Value);
}

/// Whether two needed runs of one owner's window share a span under
/// `network`'s `t(s) = α + β·s`, given the `gap_bytes` between them: one span
/// reads the gap and saves one get, so it pays iff `gap_bytes·β ≤ α`. The
/// cost is additive over gaps, so deciding each gap on its own — the greedy
/// split — is optimal. The one rule plans both gets: offsets spans over
/// 8-byte words and the service's row spans over 4-byte adjacency words.
pub fn spans_join(network: &NetworkModel, gap_bytes: usize) -> bool {
    gap_bytes as f64 * network.beta_ns_per_byte <= network.alpha_ns
}

/// The bytes between the offsets pairs of rows `p ≤ q` of one owner:
/// `8·(q − p − 2)`, none when they are adjacent (they share a word) or equal.
fn pairs_gap_bytes(p: usize, q: usize) -> usize {
    8 * q.saturating_sub(p + 2)
}

/// The `(start, end)` pairs of one source's remote neighbours, read by span
/// ([`RowReader::read_spans`]): a rank's reusable buffers, which stop
/// allocating once they have grown to the widest source.
#[derive(Debug, Default)]
pub struct OffsetSpans {
    /// `(owner, local index, position in the source's row)` of every remote
    /// neighbour, in `(owner, local index)` order.
    wanted: Vec<(usize, usize, usize)>,
    /// Where a faulted span lands (a fault-free one is read in place).
    words: Vec<u64>,
    /// The pair of the neighbour at each position of the source's row.
    pairs: Vec<(usize, usize)>,
}

impl OffsetSpans {
    /// The `(start, end)` pair of the remote neighbour at position `k` of the
    /// row last passed to [`RowReader::read_spans`].
    pub fn pair(&self, k: usize) -> (usize, usize) {
        self.pairs[k]
    }
}

/// A rank's adjacency cache `C_adj` when the run is cached: the one CLaMPI
/// front, owned by the rank's thread and lent to every read next to its
/// [`Endpoint`]. `None` reads every row over the plain path.
pub type AdjCache = Option<CachedWindow<VertexId>>;

/// Per-rank reader of remote adjacency lists: the rank's view of the two
/// windows.
///
/// Reading the adjacency of a remote vertex requires two RMA gets: the first reads
/// the `(start, end)` pair from the target's `offsets` array (in a span with the
/// other rows of that target read with it), the second reads
/// `end − start` vertex ids from the target's `adjacencies` array. When caching is
/// enabled the second get is first looked up in the CLaMPI cache `C_adj`; every
/// admitted row carries its length — the vertex degree — as its
/// application-defined eviction score, which the cache reads if
/// [`super::CacheSpec::scoring`] says so. Under compressed storage the length
/// counts codec words, a faithful proxy for degree: the decoded count is not
/// known until the row arrives.
#[derive(Debug)]
pub struct RowReader {
    offsets_plain: Window<u64>,
    adj_plain: Window<VertexId>,
    /// Encoding of the adjacency window's payload (taken from the windows):
    /// under [`GraphStorage::Compressed`] every admitted miss records logical
    /// vs stored bytes on the cache
    /// ([`rmatc_clampi::CacheStats::compression_ratio`]).
    storage: GraphStorage,
}

impl RowReader {
    /// Builds the reader of one rank over `windows` and the rank's cache:
    /// [`DistConfig::cache`] resolved for a graph of `n_global` vertices (no
    /// cache when it is `None`).
    ///
    /// # Panics
    ///
    /// When [`DistConfig::intra_threads`] is above 1: a rank runs one thread.
    pub fn new(windows: &GraphWindows, config: &DistConfig, n_global: usize) -> (Self, AdjCache) {
        assert!(
            config.intra_threads <= 1,
            "intra-rank threading was removed: every rank runs one thread \
             (intra_threads = {})",
            config.intra_threads
        );
        let cache = config
            .cache
            .and_then(|spec| {
                spec.resolve(n_global, windows.adjacency_bytes() as u64)
                    .adjacencies
            })
            .map(|cfg| CachedWindow::new(windows.adjacencies.id(), cfg));
        let reader = Self {
            offsets_plain: windows.offsets.clone(),
            adj_plain: windows.adjacencies.clone(),
            storage: windows.storage,
        };
        (reader, cache)
    }

    /// First get of the protocol for every remote neighbour of one source at
    /// once: reads the `(start, end)` pairs of the rows in `adj_u` that
    /// `partitioner` places on other ranks than `ep.rank()` into `spans`
    /// ([`OffsetSpans::pair`]). Per owner, the needed local indices ascend
    /// (rows are sorted and every scheme maps ids monotonically within a
    /// rank), so they split into spans as [`RowReader::read_key_spans`]
    /// splits its keys. The first span that exhausts its retries fails the
    /// whole read.
    pub fn read_spans(
        &self,
        ep: &mut Endpoint,
        partitioner: &Partitioner,
        adj_u: &[VertexId],
        spans: &mut OffsetSpans,
    ) -> Result<(), RmaError> {
        let OffsetSpans {
            wanted,
            words,
            pairs,
        } = spans;
        wanted.clear();
        for (k, &v) in adj_u.iter().enumerate() {
            let owner = partitioner.owner(v);
            if owner != ep.rank() {
                wanted.push((owner, partitioner.local_index(v), k));
            }
        }
        // `(owner, local index)` is unique per neighbour, so an unstable sort
        // gives the one order, without scratch.
        wanted.sort_unstable_by_key(|&(owner, idx, _)| (owner, idx));
        pairs.resize(pairs.len().max(adj_u.len()), (0, 0));
        let key = |&(owner, idx, _): &(usize, usize, usize)| (owner, idx);
        self.walk_spans(ep, wanted, key, words, |&(.., k), pair| {
            pairs[k] = pair.map_err(RmaError::clone)?;
            Ok(())
        })
    }

    /// First get of the protocol for a batch of rows: the `(start, end)` pair
    /// of each of `keys` — remote `(owner, local index)` rows, sorted and
    /// distinct, as the service's batch planner holds them — into `pairs`,
    /// cleared first, in key order. Consecutive keys of one owner share a
    /// span while [`spans_join`] says the gap is cheaper than a get under
    /// `ep`'s network model; each span is one synchronous get, read in place
    /// fault-free and otherwise landed, verified and healed in `words`. Both
    /// are the caller's reusable buffers, so a read allocates nothing once
    /// they have grown. A span that exhausts its retries fails only the keys
    /// inside it.
    pub fn read_key_spans(
        &self,
        ep: &mut Endpoint,
        keys: &[(usize, usize)],
        words: &mut Vec<u64>,
        pairs: &mut Vec<Result<(usize, usize), RmaError>>,
    ) {
        pairs.clear();
        let Ok(()) = self.walk_spans(
            ep,
            keys,
            |&key| key,
            words,
            |_, pair| {
                pairs.push(pair.map_err(RmaError::clone));
                Ok::<_, Infallible>(())
            },
        );
    }

    /// The span walk of [`RowReader::read_spans`] and
    /// [`RowReader::read_key_spans`]. `wanted` holds remote rows grouped by
    /// owner with ascending local indices, `key` gives each one's
    /// `(owner, local index)`. Consecutive rows of one owner join while
    /// [`spans_join`] allows; each span is one synchronous [`read_unkept`]
    /// (the pairs gate the adjacency gets), landed in `words` only under
    /// faults. `land` receives every row with its pair or its span's error,
    /// in order; an error `land` returns stops the walk.
    fn walk_spans<T, E>(
        &self,
        ep: &mut Endpoint,
        wanted: &[T],
        key: impl Fn(&T) -> (usize, usize),
        words: &mut Vec<u64>,
        mut land: impl FnMut(&T, Result<(usize, usize), &RmaError>) -> Result<(), E>,
    ) -> Result<(), E> {
        let network = *ep.network();
        let mut rest = wanted;
        while let Some(head) = rest.first() {
            let (owner, first) = key(head);
            let joined = rest.windows(2).take_while(|w| {
                let (p, q) = (key(&w[0]), key(&w[1]));
                q.0 == owner && spans_join(&network, pairs_gap_bytes(p.1, q.1))
            });
            let (span, tail) = rest.split_at(1 + joined.count());
            let len = key(&span[span.len() - 1]).1 + 2 - first;
            let read = read_unkept(ep, &self.offsets_plain, owner, first, len, words);
            let read = read.map(|(read, charge)| {
                if let Some(charge) = charge {
                    charge.wait(ep);
                }
                read
            });
            for row in span {
                let at = key(row).1 - first;
                let pair = read
                    .as_ref()
                    .map(|read| (read[at] as usize, read[at + 1] as usize));
                land(row, pair)?;
            }
            rest = tail;
        }
        Ok(())
    }

    /// Admits a cached miss's landed (and verified) buffer, scored by its
    /// length, after recording its compression — logical vs stored bytes —
    /// under compressed storage.
    fn admit(
        &self,
        ep: &mut Endpoint,
        cache: &mut AdjCache,
        target: usize,
        start: usize,
        row: Arc<[VertexId]>,
    ) {
        let cache = cache.as_mut().expect("only a cached miss is admitted");
        let len = row.len();
        if self.storage == GraphStorage::Compressed {
            cache.record_compression(decoded_len(&row) as u64 * 4, len as u64 * 4);
        }
        cache.admit(ep, target, start, len, row, len as f64);
    }

    /// Second get of the protocol for a batch of rows: the row of each of
    /// `keys` — the sorted, distinct `(owner, local index)` keys of
    /// [`RowReader::read_key_spans`] — from its pair in `pairs`, into `rows`,
    /// cleared first, in key order.
    ///
    /// Every key is probed in the cache first, and hits are served from it.
    /// Per owner, the rows that must still cross the network — misses, and
    /// every row nobody keeps (no cache, or a quarantined one) — then share a
    /// span while [`spans_join`] says the adjacency words between two of them
    /// cost less than a get; each span is one synchronous get. Fault-free, a
    /// span is read in place: each miss is copied into its own `Arc` and
    /// admitted in key order, and a row nobody keeps is borrowed from the
    /// window. Under faults a span lands in `landing`, is verified and
    /// healed there, and each of its rows is copied out into its own `Arc`.
    ///
    /// The rows are zero-copy views ([`RowRef`]): local rows and in-place
    /// reads borrow the window, hits share the cached buffer, and a miss
    /// allocates exactly once — the buffer the cache retains. They are
    /// returned exactly as stored: raw vertex ids under plain storage,
    /// compressed words (decode with [`rmatc_graph::compressed::decode_row`])
    /// under compressed storage. A key whose pair failed fails its row, and a
    /// span that exhausts its retries fails only the rows inside it.
    /// `landing` and `rows` are the caller's reusable buffers: once they have
    /// grown, a batch of hits and local rows allocates nothing. The span plan
    /// lives only for the call, so a lane keeps no buffer sized by its
    /// largest batch of misses.
    pub fn read_key_rows<'r>(
        &'r self,
        ep: &mut Endpoint,
        cache: &mut AdjCache,
        keys: &[(usize, usize)],
        pairs: &[Result<(usize, usize), RmaError>],
        landing: &mut Vec<VertexId>,
        rows: &mut Vec<Result<RowRef<'r, VertexId>, RmaError>>,
    ) {
        rows.clear();
        // `(key index, kept, (start, end))` of every row that crosses the
        // network, in key order: a cached miss is kept (admitted), a row read
        // without a cache or past a quarantined one is not.
        let mut wanted = Vec::new();
        let adj = &self.adj_plain;
        for (i, (&(target, _), pair)) in keys.iter().zip(pairs).enumerate() {
            rows.push(pair.clone().map(|(start, end)| {
                let len = end - start;
                if len == 0 {
                    return RowRef::Window(&[]);
                }
                if target == ep.rank() {
                    return RowRef::Window(ep.local_read(adj, start, len));
                }
                match probe(ep, cache, target, start, len) {
                    CacheProbe::Hit(row) => RowRef::Cached(row),
                    probe => {
                        // Filled in below, once the row's span is read.
                        let kept = matches!(probe, CacheProbe::Miss);
                        wanted.push((i, kept, (start, end)));
                        RowRef::Window(&[])
                    }
                }
            }));
        }
        let network = *ep.network();
        let mut rest = &wanted[..];
        while let Some(&(head, _, (first, _))) = rest.first() {
            let owner = keys[head].0;
            let joined = rest.windows(2).take_while(|w| {
                let ((_, _, (_, end)), (q, _, (start, _))) = (w[0], w[1]);
                keys[q].0 == owner && spans_join(&network, 4 * (start - end))
            });
            let (span, tail) = rest.split_at(1 + joined.count());
            let (.., (_, last)) = span[span.len() - 1];
            let len = last - first;
            if ep.faults_enabled() {
                let read = ep.get_into_with_retry(adj, owner, first, len, landing);
                for &(i, kept, (start, end)) in span {
                    rows[i] = match &read {
                        Ok(()) => {
                            let row = &landing[start - first..end - first];
                            Ok(self.copy_out(ep, cache, kept, owner, start, row))
                        }
                        Err(e) => Err(e.clone()),
                    };
                }
            } else {
                let (region, charge) = ep.get_in_place(adj, owner, first, len);
                charge.wait(ep);
                for &(i, kept, (start, end)) in span {
                    let row = &region[start - first..end - first];
                    rows[i] = Ok(if kept {
                        self.copy_out(ep, cache, kept, owner, start, row)
                    } else {
                        RowRef::Window(row)
                    });
                }
            }
            rest = tail;
        }
    }

    /// A batch row copied out of its span into its own buffer, admitted to
    /// the cache when it is `kept` (a miss).
    fn copy_out(
        &self,
        ep: &mut Endpoint,
        cache: &mut AdjCache,
        kept: bool,
        target: usize,
        start: usize,
        row: &[VertexId],
    ) -> RowRef<'static, VertexId> {
        let row: Arc<[VertexId]> = Arc::from(row);
        if kept {
            self.admit(ep, cache, target, start, Arc::clone(&row));
        }
        RowRef::Fetched(row)
    }

    /// Reads the row on `target` whose `(start, end)` offsets pair the first
    /// get returned ([`RowReader::read_spans`]) and computes `edge`'s value
    /// over it ([`EdgeOp::stored`]) — in place on an empty, local or cached
    /// row or a fault-free transfer nobody keeps, and otherwise over the
    /// buffer the transfer landed in, as the module table says. The value is
    /// always final; the charge is the completion a fault-free transfer still
    /// owes, which the caller waits for when it likes
    /// ([`PendingCharge::wait`]). Under fault injection every transfer is
    /// synchronous and self-healing, so nothing is owed. `landing` is the
    /// caller's reusable buffer for a faulted read nobody keeps; it is free
    /// again as soon as this returns.
    #[allow(clippy::too_many_arguments)]
    pub fn start<O: EdgeOp>(
        &self,
        ep: &mut Endpoint,
        cache: &mut AdjCache,
        target: usize,
        (start, end): (usize, usize),
        landing: &mut Vec<VertexId>,
        op: &O,
        edge: &Edge<'_>,
    ) -> Result<(O::Value, Option<PendingCharge>), RmaError> {
        let len = end - start;
        if len == 0 {
            return Ok((op.stored(edge, &[]), None));
        }
        if target == ep.rank() {
            let row = ep.local_read(&self.adj_plain, start, len);
            return Ok((op.stored(edge, row), None));
        }
        // Who keeps the buffer: the cache on a miss, nobody otherwise.
        let adj = &self.adj_plain;
        Ok(match probe(ep, cache, target, start, len) {
            CacheProbe::Hit(row) => (op.stored(edge, &row), None),
            CacheProbe::Miss => {
                let (row, charge) = if ep.faults_enabled() {
                    (ep.get_with_retry(adj, target, start, len)?, None)
                } else {
                    let (row, charge) = ep.get(adj, target, start, len)?.split();
                    (row, Some(charge))
                };
                let value = op.stored(edge, &row);
                self.admit(ep, cache, target, start, row);
                (value, charge)
            }
            CacheProbe::Bypass => {
                let (row, charge) = read_unkept(ep, adj, target, start, len, landing)?;
                (op.stored(edge, row), charge)
            }
        })
    }
}

/// A remote read nobody keeps, of `len` elements at `offset` on `target`:
/// fault-free, the target's region in place with the charge still owed;
/// under faults, landed in `landing`, verified and healed, synchronously.
fn read_unkept<'a, T: Copy + Send + Sync>(
    ep: &mut Endpoint,
    window: &'a Window<T>,
    target: usize,
    offset: usize,
    len: usize,
    landing: &'a mut Vec<T>,
) -> Result<(&'a [T], Option<PendingCharge>), RmaError> {
    if ep.faults_enabled() {
        ep.get_into_with_retry(window, target, offset, len, landing)?;
        Ok((landing, None))
    } else {
        let (row, charge) = ep.get_in_place(window, target, offset, len);
        Ok((row, Some(charge)))
    }
}

/// Looks the remote row of `len > 0` elements at `start` on `target` up in
/// `cache`: the one issue-time decision [`RowReader::read_key_rows`] and
/// [`RowReader::start`] share. Without a cache every row reads as an
/// (uncounted) [`CacheProbe::Bypass`]: fetched, and kept by nobody.
fn probe(
    ep: &mut Endpoint,
    cache: &mut AdjCache,
    target: usize,
    start: usize,
    len: usize,
) -> CacheProbe<VertexId> {
    match cache {
        Some(cache) => cache.probe(ep, target, start, len),
        None => CacheProbe::Bypass,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributed::config::CacheSpec;
    use crate::distributed::pipeline::{rank_endpoint, run_rank};
    use crate::distributed::worker::ClosingCount;
    use crate::intersect::Intersector;
    use crate::local::count_closing_at;
    use rmatc_graph::gen::{GraphGenerator, RmatGenerator};
    use rmatc_graph::partition::{PartitionScheme, PartitionedGraph};
    use rmatc_rma::{FaultPlan, RankStats, RetryPolicy};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// The offsets pair of one row alone: a one-key span, the single
    /// two-word get of Algorithm 3.
    fn read_pair(
        reader: &RowReader,
        ep: &mut Endpoint,
        target: usize,
        idx: usize,
    ) -> Result<(usize, usize), RmaError> {
        let mut pairs = Vec::new();
        reader.read_key_spans(ep, &[(target, idx)], &mut Vec::new(), &mut pairs);
        pairs.remove(0)
    }

    /// The row of one key whose pair the first get returned: a one-key
    /// batch, the single row get of Algorithm 3.
    fn read_pair_row<'r>(
        reader: &'r RowReader,
        ep: &mut Endpoint,
        cache: &mut AdjCache,
        key: (usize, usize),
        pair: Result<(usize, usize), RmaError>,
    ) -> Result<RowRef<'r, VertexId>, RmaError> {
        let mut rows = Vec::new();
        reader.read_key_rows(ep, cache, &[key], &[pair], &mut Vec::new(), &mut rows);
        rows.remove(0)
    }

    /// Both gets of one row, one pair per row: the offsets pair, then the row.
    fn read_row<'r>(
        reader: &'r RowReader,
        ep: &mut Endpoint,
        cache: &mut AdjCache,
        target: usize,
        idx: usize,
    ) -> Result<RowRef<'r, VertexId>, RmaError> {
        let pair = read_pair(reader, ep, target, idx);
        read_pair_row(reader, ep, cache, (target, idx), pair)
    }

    fn setup() -> (PartitionedGraph, DistConfig) {
        let g = RmatGenerator::paper(8, 8).generate_cleaned(3).into_csr();
        let pg = PartitionedGraph::from_global(&g, PartitionScheme::Block1D, 2).unwrap();
        let mut config = DistConfig::non_cached(2);
        config.storage = GraphStorage::Plain;
        (pg, config)
    }

    fn endpoint(config: &DistConfig) -> Endpoint {
        let mut ep = Endpoint::new(0, 2, config.network);
        ep.lock_all();
        ep
    }

    #[test]
    fn non_cached_reader_returns_exact_adjacency() {
        let (pg, config) = setup();
        let windows = GraphWindows::build(&pg);
        let (reader, mut cache) = RowReader::new(&windows, &config, pg.global_vertex_count());
        let mut ep = endpoint(&config);
        let remote = &pg.partitions[1];
        for (local_idx, _) in remote.global_ids.iter().enumerate().take(20) {
            let got = read_row(&reader, &mut ep, &mut cache, 1, local_idx).unwrap();
            assert_eq!(got.as_slice(), remote.neighbours_of_local(local_idx));
        }
        ep.unlock_all();
        // Two gets per non-empty row, one per empty row.
        assert!(ep.stats().gets >= 20);
    }

    #[test]
    fn the_rank_cache_is_the_configuration_its_spec_resolves() {
        // One source for a run's cache configuration: under either score
        // rule the rank's cache runs exactly what `CacheSpec::resolve`
        // returns — so an offline replay that resolves the same spec replays
        // the run's cache.
        let (pg, base) = setup();
        let windows = GraphWindows::build(&pg);
        let n = pg.global_vertex_count();
        let positional = DistConfig::cached(2, 1 << 20);
        for config in [positional, positional.with_degree_scores()] {
            let config = DistConfig {
                storage: base.storage,
                ..config
            };
            let resolved = config
                .cache
                .unwrap()
                .resolve(n, windows.adjacency_bytes() as u64)
                .adjacencies
                .unwrap();
            let (_, cache) = RowReader::new(&windows, &config, n);
            let cache = cache.expect("a cached reader");
            assert_eq!(*cache.config(), resolved, "{:?}", resolved.scoring);
        }
    }

    #[test]
    fn cached_reader_returns_exact_adjacency_and_hits_on_reuse() {
        let (pg, mut config) = setup();
        let windows = GraphWindows::build(&pg);
        config.cache = Some(CacheSpec::paper(1 << 20).with_degree_scores());
        let (reader, mut cache) = RowReader::new(&windows, &config, pg.global_vertex_count());
        let mut ep = endpoint(&config);
        let remote = &pg.partitions[1];
        for round in 0..2 {
            for (local_idx, _) in remote.global_ids.iter().enumerate().take(10) {
                let got = read_row(&reader, &mut ep, &mut cache, 1, local_idx).unwrap();
                assert_eq!(
                    got.as_slice(),
                    remote.neighbours_of_local(local_idx),
                    "round {round}"
                );
            }
        }
        ep.unlock_all();
        let adj_stats = cache.unwrap().stats().clone();
        assert!(
            adj_stats.hits > 0,
            "second round must hit the adjacency cache"
        );
    }

    #[test]
    fn a_one_key_batch_runs_the_protocol_of_start() {
        // The service reads rows with `read_key_rows`, the edge loop with
        // `start` and the charge it owes: one protocol, row by row. Two
        // readers over the same windows read the same remote rows twice
        // through an eviction-heavy cache, one reader per entry point (a
        // one-key batch per edge), under both storages and both score rules:
        // their caches and the integer counters of their endpoints agree.
        let integers = |s: &RankStats| RankStats {
            comm_time_ns: 0.0,
            overlapped_ns: 0.0,
            local_time_ns: 0.0,
            backoff_ns: 0.0,
            ..s.clone()
        };
        let (pg, base) = setup();
        let n = pg.global_vertex_count();
        let part = &pg.partitions[0];
        for storage in [GraphStorage::Plain, GraphStorage::Compressed] {
            let windows = GraphWindows::build_with(&pg, storage);
            let positional = CacheSpec::paper(1 << 10);
            for spec in [positional, positional.with_degree_scores()] {
                let config = DistConfig {
                    cache: Some(spec),
                    ..base
                };
                let (by_row, mut row_cache) = RowReader::new(&windows, &config, n);
                let (by_start, mut start_cache) = RowReader::new(&windows, &config, n);
                let op = ClosingCount::new(&config, pg.direction, storage);
                let (mut ep_row, mut ep_start) = (endpoint(&config), endpoint(&config));
                let mut landing = Vec::new();
                for _round in 0..2 {
                    for local_idx in 0..part.local_vertex_count() {
                        let adj_u = part.neighbours_of_local(local_idx);
                        for (k, &v) in adj_u.iter().enumerate() {
                            if pg.partitioner.owner(v) != 1 {
                                continue;
                            }
                            let idx = pg.partitioner.local_index(v);
                            let pair = read_pair(&by_row, &mut ep_row, 1, idx);
                            read_pair_row(&by_row, &mut ep_row, &mut row_cache, (1, idx), pair)
                                .unwrap();
                            let pair = read_pair(&by_start, &mut ep_start, 1, idx).unwrap();
                            let source = part.global_ids[local_idx];
                            let edge = Edge {
                                slot: 0,
                                source,
                                adj_u,
                                v,
                                k,
                            };
                            let cache = &mut start_cache;
                            let (_, charge) = by_start
                                .start(&mut ep_start, cache, 1, pair, &mut landing, &op, &edge)
                                .unwrap();
                            if let Some(charge) = charge {
                                charge.wait(&mut ep_start);
                            }
                        }
                    }
                }
                ep_row.unlock_all();
                ep_start.unlock_all();
                let what = format!("{storage:?} {:?}", spec.scoring);
                let stats = row_cache.unwrap().stats().clone();
                assert!(stats.hits > 0 && stats.evictions() > 0, "{what}: {stats:?}");
                assert_eq!(&stats, start_cache.unwrap().stats(), "{what}");
                assert_eq!(
                    integers(ep_row.stats()),
                    integers(ep_start.stats()),
                    "{what}"
                );
            }
        }
    }

    /// Reads the spans of every source of rank 0 of `pg` under `network`,
    /// checking each pair against the owner's partition. Returns the gets
    /// issued and, per source, its remote neighbours' `(owner, local index)`
    /// in plan order.
    fn span_gets(pg: &PartitionedGraph, network: NetworkModel) -> (u64, Vec<Vec<(usize, usize)>>) {
        let windows = GraphWindows::build(pg);
        let config = DistConfig::cached(pg.ranks(), 1 << 20);
        let (reader, _) = RowReader::new(&windows, &config, pg.global_vertex_count());
        let mut ep = Endpoint::new(0, pg.ranks(), network);
        ep.lock_all();
        let mut spans = OffsetSpans::default();
        let part = &pg.partitions[0];
        let mut needed = Vec::new();
        for local_idx in 0..part.local_vertex_count() {
            let adj_u = part.neighbours_of_local(local_idx);
            reader
                .read_spans(&mut ep, &pg.partitioner, adj_u, &mut spans)
                .unwrap();
            let mut rows = Vec::new();
            for (k, &v) in adj_u.iter().enumerate() {
                let (owner, idx) = (pg.partitioner.owner(v), pg.partitioner.local_index(v));
                if owner != 0 {
                    let offsets = pg.partitions[owner].csr.offsets();
                    let pair = (offsets[idx] as usize, offsets[idx + 1] as usize);
                    assert_eq!(spans.pair(k), pair, "edge ({local_idx}, {v})");
                    rows.push((owner, idx));
                }
            }
            rows.sort_unstable();
            needed.push(rows);
        }
        ep.unlock_all();
        (ep.stats().gets, needed)
    }

    /// Spans the plan opens for one source: one per owner, plus one per gap
    /// between consecutive rows of an owner that `split` says to cut.
    fn planned(rows: &[(usize, usize)], split: impl Fn(usize, usize) -> bool) -> u64 {
        let opened = |w: &[(usize, usize)]| w[0].0 != w[1].0 || split(w[0].1, w[1].1);
        u64::from(!rows.is_empty()) + rows.windows(2).filter(|w| opened(w)).count() as u64
    }

    #[test]
    fn span_gets_follow_the_network_model() {
        let g = RmatGenerator::paper(8, 8).generate_cleaned(3).into_csr();
        for scheme in [PartitionScheme::Block1D, PartitionScheme::Cyclic] {
            let pg = PartitionedGraph::from_global(&g, scheme, 3).unwrap();
            // Free bytes and free gets: one span per (source, owner).
            let (gets, needed) = span_gets(&pg, NetworkModel::zero());
            let per_owner: u64 = needed.iter().map(|rows| planned(rows, |_, _| false)).sum();
            assert_eq!(gets, per_owner, "{scheme:?}");
            // Free gets, priced bytes: a gap that leaves a word unread splits.
            let bytes_only = NetworkModel {
                alpha_ns: 0.0,
                ..NetworkModel::aries()
            };
            let (gets, needed) = span_gets(&pg, bytes_only);
            let split: u64 = needed
                .iter()
                .map(|rows| planned(rows, |p, q| q > p + 2))
                .sum();
            assert_eq!(gets, split, "{scheme:?}");
            assert!(split > per_owner, "{scheme:?}: some gap must split");
            // Aries: exactly the spans the rule plans, between the two.
            let aries = NetworkModel::aries();
            let (gets, needed) = span_gets(&pg, aries);
            let rule: u64 = needed
                .iter()
                .map(|rows| planned(rows, |p, q| !spans_join(&aries, pairs_gap_bytes(p, q))))
                .sum();
            assert_eq!(gets, rule, "{scheme:?}");
            assert!((per_owner..=split).contains(&rule), "{scheme:?}");
        }
    }

    #[test]
    fn the_split_rule_prices_gap_bytes_against_one_get() {
        let aries = NetworkModel::aries();
        // 0.1 ns/B against α = 2 500 ns: gaps of up to 25 000 unread bytes
        // pay for themselves — 3 125 offsets words, 6 250 adjacency words.
        assert!(spans_join(&aries, pairs_gap_bytes(10, 10 + 2 + 3_125)));
        assert!(!spans_join(&aries, pairs_gap_bytes(10, 10 + 2 + 3_126)));
        assert!(spans_join(&aries, 4 * 6_250));
        assert!(!spans_join(&aries, 4 * 6_251));
        // Adjacent pairs share a word; duplicates overlap entirely.
        assert_eq!(pairs_gap_bytes(4, 4), 0);
        assert_eq!(pairs_gap_bytes(4, 5), 0);
        assert_eq!(pairs_gap_bytes(4, 6), 0);
        assert_eq!(pairs_gap_bytes(4, 7), 8);
        // Free gets: only a gap of no bytes joins.
        let bytes_only = NetworkModel {
            alpha_ns: 0.0,
            ..aries
        };
        assert!(spans_join(&bytes_only, 0));
        assert!(!spans_join(&bytes_only, 4));
        // Free bytes: every gap joins.
        assert!(spans_join(&NetworkModel::zero(), usize::MAX));
    }

    /// Random sorted, distinct `(owner, local index)` keys on owners 1–3 of
    /// `pg`, about a third of each owner's rows.
    fn random_keys(pg: &PartitionedGraph, state: &mut u64) -> Vec<(usize, usize)> {
        let mut keys = Vec::new();
        for owner in 1..pg.ranks() {
            for idx in 0..pg.partitions[owner].local_vertex_count() {
                *state ^= *state << 13;
                *state ^= *state >> 7;
                *state ^= *state << 17;
                if *state % 3 == 0 {
                    keys.push((owner, idx));
                }
            }
        }
        keys
    }

    fn four_ranks() -> (PartitionedGraph, RowReader) {
        let g = RmatGenerator::paper(8, 8).generate_cleaned(3).into_csr();
        let pg = PartitionedGraph::from_global(&g, PartitionScheme::Block1D, 4).unwrap();
        let windows = GraphWindows::build(&pg);
        let config = DistConfig::non_cached(4);
        let (reader, _) = RowReader::new(&windows, &config, pg.global_vertex_count());
        (pg, reader)
    }

    #[test]
    fn key_spans_match_per_key_offsets_reads() {
        // The service's keyed span read returns, key for key, the pair each
        // key reads alone, in one get per span of the join rule:
        // under Aries, where each owner's keys join into one span, and under
        // a network whose α is below 8·β, where only rows at most two local
        // indices apart share a span.
        let (pg, reader) = four_ranks();
        let aries = NetworkModel::aries();
        let tight = NetworkModel {
            alpha_ns: 0.5,
            beta_ns_per_byte: 0.1,
            ..aries
        };
        let whole_owners = |_: usize, _: usize| false;
        let two_apart = |p: usize, q: usize| q > p + 2;
        let mut state = 0x9e37_79b9_7f4a_7c15;
        let (mut words, mut pairs) = (Vec::new(), Vec::new());
        for _ in 0..8 {
            let keys = random_keys(&pg, &mut state);
            for (network, split) in [
                (aries, &whole_owners as &dyn Fn(_, _) -> _),
                (tight, &two_apart),
            ] {
                let spans = planned(&keys, |p, q| !spans_join(&network, pairs_gap_bytes(p, q)));
                assert_eq!(spans, planned(&keys, split));
                let (mut ep, mut alone) =
                    (Endpoint::new(0, 4, network), Endpoint::new(0, 4, network));
                ep.lock_all();
                alone.lock_all();
                reader.read_key_spans(&mut ep, &keys, &mut words, &mut pairs);
                assert_eq!(pairs.len(), keys.len());
                for (&(owner, idx), pair) in keys.iter().zip(pairs.drain(..)) {
                    let want = read_pair(&reader, &mut alone, owner, idx).unwrap();
                    assert_eq!(pair.unwrap(), want, "row {idx} of rank {owner}");
                }
                ep.unlock_all();
                alone.unlock_all();
                assert_eq!(ep.stats().gets, spans);
                assert!(spans < keys.len() as u64);
            }
        }
    }

    #[test]
    fn a_failed_span_fails_only_its_keys() {
        // With no retries, each span is one attempt. Under an unrecoverable
        // plan every key returns its span's error; when half the attempts
        // fail, the keys of one span share its outcome and every success is
        // the right pair. Nothing panics either way.
        let (pg, reader) = four_ranks();
        let tight = NetworkModel {
            alpha_ns: 0.5,
            beta_ns_per_byte: 0.1,
            ..NetworkModel::aries()
        };
        let keys = random_keys(&pg, &mut 0x2545_f491_4f6c_dd1d);
        // Span number of each key, under the join rule.
        let span_of: Vec<usize> = std::iter::once(0)
            .chain(keys.windows(2).scan(0, |span, w| {
                let join = spans_join(&tight, pairs_gap_bytes(w[0].1, w[1].1));
                *span += usize::from(w[0].0 != w[1].0 || !join);
                Some(*span)
            }))
            .collect();
        let spans = span_of[span_of.len() - 1] as u64 + 1;
        let (mut words, mut pairs) = (Vec::new(), Vec::new());
        let mut alone = Endpoint::new(0, 4, tight);
        alone.lock_all();
        let coin = FaultPlan {
            get_failure_p: 0.5,
            ..FaultPlan::reliable(11)
        };
        for plan in [FaultPlan::unrecoverable(7), coin] {
            let mut ep = Endpoint::new(0, 4, tight)
                .with_retry(RetryPolicy::no_retries())
                .with_faults(plan.injector(0));
            ep.lock_all();
            reader.read_key_spans(&mut ep, &keys, &mut words, &mut pairs);
            ep.unlock_all();
            assert_eq!(pairs.len(), keys.len());
            // Whether each span failed, as its first key says.
            let mut outcome = vec![None; spans as usize];
            for ((&(owner, idx), pair), &span) in keys.iter().zip(&pairs).zip(&span_of) {
                let first = *outcome[span].get_or_insert(pair.is_err());
                assert_eq!(first, pair.is_err(), "span {span} split its outcome");
                if let Ok(pair) = pair {
                    assert_eq!(*pair, read_pair(&reader, &mut alone, owner, idx).unwrap());
                }
            }
            let failed = outcome.iter().filter(|f| **f == Some(true)).count() as u64;
            assert_eq!(ep.stats().transient_failures, failed, "{plan:?}");
            assert_eq!(ep.stats().gets, spans - failed, "{plan:?}");
            if plan.is_recoverable() {
                assert!(
                    0 < failed && failed < spans,
                    "{plan:?}: {failed} of {spans}"
                );
            } else {
                assert_eq!(failed, spans);
            }
        }
        alone.unlock_all();
    }

    /// Whether `row`, as stored under `storage`, is the plain row `want`.
    fn is_row(storage: GraphStorage, row: &[VertexId], want: &[VertexId]) -> bool {
        match storage {
            GraphStorage::Plain => row == want,
            GraphStorage::Compressed => {
                let mut decoded = Vec::new();
                rmatc_graph::compressed::decode_row(row, &mut decoded);
                decoded == want
            }
        }
    }

    /// Row spans the join rule plans under `network` over `(owner, start,
    /// end)` rows in key order.
    fn row_spans(network: &NetworkModel, rows: &[(usize, usize, usize)]) -> u64 {
        let opens = |p: &(usize, usize, usize), q: &(usize, usize, usize)| {
            p.0 != q.0 || !spans_join(network, 4 * (q.1 - p.2))
        };
        u64::from(!rows.is_empty()) + rows.windows(2).filter(|w| opens(&w[0], &w[1])).count() as u64
    }

    #[test]
    fn key_rows_are_the_owners_rows_in_one_get_per_planned_span() {
        // Random sorted keys on a 4-rank R-MAT-8, read with both gets of the
        // batch: every row is its owner's partition row, under both storages,
        // without a cache and through an eviction-heavy one, fault-free and
        // under a heavy plan with retries. Fault-free, the gets are the
        // offsets spans plus the row spans the join rule plans over the rows
        // that crossed the network — every non-empty row not served from the
        // cache — under Aries, a free network and free gets with priced bytes.
        let g = RmatGenerator::paper(8, 8).generate_cleaned(3).into_csr();
        let pg = PartitionedGraph::from_global(&g, PartitionScheme::Block1D, 4).unwrap();
        let aries = NetworkModel::aries();
        let bytes_only = NetworkModel {
            alpha_ns: 0.0,
            ..aries
        };
        let heavy = Some(FaultPlan::heavy(7));
        let eviction_heavy = Some(CacheSpec::paper(1 << 11).with_degree_scores());
        let mut state = 0x853c_49e6_748f_ea9b;
        for storage in [GraphStorage::Plain, GraphStorage::Compressed] {
            let windows = GraphWindows::build_with(&pg, storage);
            for cache in [None, eviction_heavy] {
                for (faults, network) in [
                    (None, aries),
                    (None, NetworkModel::zero()),
                    (None, bytes_only),
                    (heavy, aries),
                ] {
                    let config = DistConfig {
                        storage,
                        cache,
                        faults,
                        network,
                        retry: RetryPolicy {
                            max_attempts: 32,
                            ..RetryPolicy::default()
                        },
                        ..DistConfig::non_cached(4)
                    };
                    let what = format!("{storage:?} {cache:?} {faults:?} {network:?}");
                    let (reader, mut cache) =
                        RowReader::new(&windows, &config, pg.global_vertex_count());
                    let mut ep = rank_endpoint(0, &config);
                    ep.lock_all();
                    let (mut words, mut pairs) = (Vec::new(), Vec::new());
                    let (mut landing, mut rows) = (Vec::new(), Vec::new());
                    let (mut crossed, mut saved) = (0, 0);
                    for _round in 0..4 {
                        let keys = random_keys(&pg, &mut state);
                        let gets = ep.stats().gets;
                        reader.read_key_spans(&mut ep, &keys, &mut words, &mut pairs);
                        reader.read_key_rows(
                            &mut ep,
                            &mut cache,
                            &keys,
                            &pairs,
                            &mut landing,
                            &mut rows,
                        );
                        assert_eq!(rows.len(), keys.len(), "{what}");
                        let mut network_rows = Vec::new();
                        for ((&(owner, idx), pair), row) in keys.iter().zip(&pairs).zip(&rows) {
                            let row = row.as_ref().expect(&what);
                            let want = pg.partitions[owner].neighbours_of_local(idx);
                            assert!(is_row(storage, row, want), "{what}: row {idx} of {owner}");
                            let (start, end) = *pair.as_ref().unwrap();
                            if end > start && !matches!(row, RowRef::Cached(_)) {
                                network_rows.push((owner, start, end));
                            }
                        }
                        if faults.is_none() {
                            let offsets =
                                planned(&keys, |p, q| !spans_join(&network, pairs_gap_bytes(p, q)));
                            let spans = row_spans(&network, &network_rows);
                            assert_eq!(ep.stats().gets - gets, offsets + spans, "{what}");
                            crossed += network_rows.len() as u64;
                            saved += network_rows.len() as u64 - spans;
                        }
                    }
                    ep.unlock_all();
                    if faults.is_some() {
                        assert!(ep.stats().fault_events() > 0, "{what}: nothing injected");
                    } else {
                        assert!(crossed > 0, "{what}: no row crossed the network");
                        // Free bytes join every owner's rows into one span.
                        if network.beta_ns_per_byte == 0.0 {
                            assert!(saved > 0, "{what}");
                        }
                    }
                    // The heavy plan quarantines the cache before it fills.
                    if let Some(cache) = cache {
                        let stats = cache.stats();
                        let evicted = stats.evictions() > 0 || faults.is_some();
                        assert!(stats.hits > 0 && evicted, "{what}: {stats:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_failed_row_span_fails_only_its_keys() {
        // With no retries, each span of either get is one attempt, and half
        // the attempts fail. A key whose offsets span failed fails its row;
        // the keys of one row span share its outcome, and every success is
        // the owner's row. Every span is attempted exactly once.
        let (pg, reader) = four_ranks();
        let tight = NetworkModel {
            alpha_ns: 0.5,
            beta_ns_per_byte: 0.1,
            ..NetworkModel::aries()
        };
        let coin = FaultPlan {
            get_failure_p: 0.5,
            ..FaultPlan::reliable(11)
        };
        let mut ep = Endpoint::new(0, 4, tight)
            .with_retry(RetryPolicy::no_retries())
            .with_faults(coin.injector(0));
        ep.lock_all();
        let (mut words, mut pairs) = (Vec::new(), Vec::new());
        let (mut landing, mut rows) = (Vec::new(), Vec::new());
        let mut state = 0x2545_f491_4f6c_dd1d;
        let (mut failed, mut attempted) = (0, 0);
        for _round in 0..4 {
            let keys = random_keys(&pg, &mut state);
            reader.read_key_spans(&mut ep, &keys, &mut words, &mut pairs);
            reader.read_key_rows(&mut ep, &mut None, &keys, &pairs, &mut landing, &mut rows);
            // The rows that went to the network, with their outcomes.
            let mut network_rows = Vec::new();
            for ((&(owner, idx), pair), row) in keys.iter().zip(&pairs).zip(&rows) {
                let Ok((start, end)) = *pair else {
                    assert!(row.is_err(), "row {idx} of {owner} without its pair");
                    continue;
                };
                match row {
                    Ok(row) => {
                        let want = pg.partitions[owner].neighbours_of_local(idx);
                        assert_eq!(row.as_slice(), want, "row {idx} of {owner}");
                    }
                    Err(_) => assert!(end > start, "an empty row needs no get"),
                }
                if end > start {
                    network_rows.push(((owner, start, end), row.is_err()));
                }
            }
            // A row opens a span unless the rule joins it to the one before;
            // a joined row shares its span's outcome.
            for (k, &(row, err)) in network_rows.iter().enumerate() {
                if k > 0 && row_spans(&tight, &[network_rows[k - 1].0, row]) == 1 {
                    assert_eq!(err, network_rows[k - 1].1, "a row span split its outcome");
                } else {
                    attempted += 1;
                    failed += u64::from(err);
                }
            }
            attempted += planned(&keys, |p, q| !spans_join(&tight, pairs_gap_bytes(p, q)));
        }
        ep.unlock_all();
        assert!(0 < failed && failed < attempted, "{failed} of {attempted}");
        let stats = ep.stats();
        assert_eq!(stats.gets + stats.transient_failures, attempted);
    }

    #[test]
    fn empty_adjacency_rows_need_only_one_get() {
        // Construct a partition where some rows are empty by filtering edges.
        let (_, config) = setup();
        let g = rmatc_graph::CsrGraph::from_edges(
            8,
            &[(0, 1), (1, 0), (4, 5), (5, 4)],
            rmatc_graph::types::Direction::Undirected,
        );
        let pg = PartitionedGraph::from_global(&g, PartitionScheme::Block1D, 2).unwrap();
        let windows = GraphWindows::build(&pg);
        let (reader, mut cache) = RowReader::new(&windows, &config, pg.global_vertex_count());
        let mut ep = endpoint(&config);
        // Vertex 6 lives on rank 1 (block [4..8)) and has no neighbours.
        let local_idx = pg.partitioner.local_index(6);
        let got = read_row(&reader, &mut ep, &mut cache, 1, local_idx).unwrap();
        assert!(got.is_empty());
        assert_eq!(ep.stats().gets, 1);
        ep.unlock_all();
    }

    /// A test-only operation whose kernels check their input instead of
    /// computing: every row `local` or `stored` sees must be `v`'s row in
    /// its owner's partition, decoded first under compressed storage.
    /// Counts the rows it checked, local and read.
    struct RowCheck<'g> {
        pg: &'g PartitionedGraph,
        storage: GraphStorage,
        local: AtomicU64,
        read: AtomicU64,
    }

    impl RowCheck<'_> {
        fn check(&self, edge: &Edge<'_>, row: &[VertexId]) {
            let (owner, idx) = (
                self.pg.partitioner.owner(edge.v),
                self.pg.partitioner.local_index(edge.v),
            );
            let want = self.pg.partitions[owner].neighbours_of_local(idx);
            assert_eq!(
                row, want,
                "a kernel saw a row of {} unlike its owner's",
                edge.v
            );
        }
    }

    impl EdgeOp for RowCheck<'_> {
        type Value = ();
        type Item = ();

        fn output(&self, _part: &RankPartition) -> Vec<()> {
            Vec::new()
        }

        fn local(&self, edge: &Edge<'_>, adj_v: &[VertexId]) {
            self.local.fetch_add(1, Ordering::Relaxed);
            self.check(edge, adj_v);
        }

        fn stored(&self, edge: &Edge<'_>, row: &[VertexId]) {
            self.read.fetch_add(1, Ordering::Relaxed);
            match self.storage {
                GraphStorage::Plain => self.check(edge, row),
                GraphStorage::Compressed => {
                    let mut decoded = Vec::new();
                    rmatc_graph::compressed::decode_row(row, &mut decoded);
                    self.check(edge, &decoded);
                }
            }
        }

        fn fold(&self, _out: &mut Vec<()>, _edge: &Edge<'_>, _value: ()) {}
    }

    #[test]
    fn kernels_see_only_verified_rows() {
        // Under a plan that corrupts transfers and cached entries, no
        // per-edge kernel ever runs over a row that differs from the
        // owner's: a transfer is landed, verified and only then computed on.
        // Both storages, cached (misses verified before they are computed on
        // and admitted, bypasses once the cache quarantines) and non-cached (every read over the
        // borrowed lander), one and four gets in flight, every rank.
        let (pg, base) = setup();
        for storage in [GraphStorage::Plain, GraphStorage::Compressed] {
            let windows = GraphWindows::build_with(&pg, storage);
            for cached in [false, true] {
                for depth in [1, 4] {
                    let config = DistConfig {
                        storage,
                        cache: cached.then(|| CacheSpec::paper(1 << 14).with_degree_scores()),
                        faults: Some(FaultPlan::heavy(7)),
                        retry: RetryPolicy {
                            max_attempts: 32,
                            ..RetryPolicy::default()
                        },
                        pipeline_depth: depth,
                        ..base
                    };
                    let what = format!("{storage:?} cached={cached} depth={depth}");
                    let op = RowCheck {
                        pg: &pg,
                        storage,
                        local: AtomicU64::new(0),
                        read: AtomicU64::new(0),
                    };
                    let mut checksum_failures = 0;
                    for rank in 0..pg.ranks() {
                        let out = run_rank(rank, &pg, &windows, &config, &op).expect(&what);
                        checksum_failures += out.rma.checksum_failures;
                    }
                    assert!(checksum_failures > 0, "{what}: the plan corrupted nothing");
                    assert!(op.local.into_inner() > 0, "{what}");
                    assert!(op.read.into_inner() > 0, "{what}");
                }
            }
        }
    }

    #[test]
    fn split_read_values_match_read_row_then_intersect() {
        // Under both storage modes, cached and non-cached, with one and with
        // four gets in flight, the split read's values must equal reading the
        // plain row and running `count_closing_at` over it, for every remote
        // edge and both rounds (miss then hit) — and compressed misses must
        // record logical vs stored bytes on the cache while doing so. Under a
        // plan that corrupts transfers and cached entries the values are the
        // same, and no read leaves a charge in flight.
        let (pg, base) = setup();
        let plain_windows = GraphWindows::build(&pg);
        let (plain_reader, mut no_cache) =
            RowReader::new(&plain_windows, &base, pg.global_vertex_count());
        let intersector = Intersector::new(base.method);
        let part = &pg.partitions[0];
        let heavy = Some(FaultPlan::heavy(7));
        for storage in [GraphStorage::Plain, GraphStorage::Compressed] {
            let windows = GraphWindows::build_with(&pg, storage);
            for (cached, in_flight, faults) in [
                (false, 1, None),
                (false, 4, None),
                (true, 1, None),
                (true, 4, None),
                (false, 4, heavy),
                (true, 4, heavy),
            ] {
                let config = DistConfig {
                    cache: cached.then(|| CacheSpec::paper(1 << 20).with_degree_scores()),
                    faults,
                    retry: RetryPolicy {
                        max_attempts: 32,
                        ..RetryPolicy::default()
                    },
                    ..base
                };
                let what = format!("{storage:?} cached={cached} faulted={}", faults.is_some());
                let (reader, mut cache) =
                    RowReader::new(&windows, &config, pg.global_vertex_count());
                let op = ClosingCount::new(&config, pg.direction, storage);
                let mut ep_a = rank_endpoint(0, &config);
                ep_a.lock_all();
                let mut ep_b = endpoint(&config);
                let mut landing = Vec::new();
                let mut flying = std::collections::VecDeque::new();
                for _round in 0..2 {
                    for local_idx in 0..part.local_vertex_count() {
                        let adj_u = part.neighbours_of_local(local_idx);
                        for (k, &v) in adj_u.iter().enumerate() {
                            if pg.partitioner.owner(v) != 1 {
                                continue;
                            }
                            let v_local = pg.partitioner.local_index(v);
                            let row = read_row(&plain_reader, &mut ep_b, &mut no_cache, 1, v_local)
                                .unwrap();
                            let pair = read_pair(&reader, &mut ep_a, 1, v_local).unwrap();
                            let expected =
                                count_closing_at(pg.direction, adj_u, &row, v, k, &intersector);
                            let edge = Edge {
                                slot: 0,
                                source: part.global_ids[local_idx],
                                adj_u,
                                v,
                                k,
                            };
                            let (got, charge) = reader
                                .start(&mut ep_a, &mut cache, 1, pair, &mut landing, &op, &edge)
                                .unwrap();
                            assert_eq!(got, expected, "{what} v={v}");
                            if let Some(charge) = charge {
                                assert!(faults.is_none(), "{what}: a faulted read left a charge");
                                flying.push_back(charge);
                            }
                            while flying.len() >= in_flight {
                                flying.pop_front().unwrap().wait(&mut ep_a);
                            }
                        }
                    }
                }
                assert!(flying.is_empty() || in_flight > 1);
                for charge in flying.drain(..) {
                    charge.wait(&mut ep_a);
                }
                ep_a.unlock_all();
                ep_b.unlock_all();
                if faults.is_some() {
                    let failures = ep_a.stats().checksum_failures;
                    assert!(failures > 0, "{what}: the plan corrupted nothing");
                }
                if let Some(cache) = cache {
                    let stats = cache.stats();
                    assert!(stats.hits > 0, "{what}: second round must hit");
                    assert_eq!(
                        stats.stored_bytes > 0 && stats.logical_bytes > stats.stored_bytes,
                        storage == GraphStorage::Compressed,
                        "{what}: compressed misses (only) must record a compression win: {stats:?}"
                    );
                }
            }
        }
    }
}
