//! The two-get remote-adjacency protocol (steps 4–5 in Figure 3), with optional
//! CLaMPI caching of the adjacency window — the one remote-read path behind
//! [`crate::DistLcc`], [`crate::DistJaccard`] and the resident query service.
//!
//! The first get reads a row's `(start, end)` pair from the offsets window.
//! [`RowReader::read_offsets`] reads one pair — Algorithm 3 verbatim, what the
//! non-cached edge loop and [`RowReader::read_row`] do per row.
//! [`RowReader::read_spans`] reads the pairs of all of one source's remote
//! neighbours at once — what the cached edge loop does: rows are sorted, so
//! the neighbours a rank owns have ascending local indices and their pairs
//! lie in one index range of its offsets window. The range is split into
//! spans where a gap would cost more bytes than a get ([`spans_join`]), and
//! each span is one get.
//!
//! [`RowReader`] offers the adjacency read in two shapes.
//! [`RowReader::read_row`] hands the row back as a zero-copy [`RowRef`] (the
//! service plans a batch of rows first and answers from them afterwards).
//! [`RowReader::start`] / [`RowReader::complete`] compute a per-edge
//! operation ([`EdgeOp`]) over the row *where it is* — in place on a local row
//! or a cache hit, fused into the transfer on a miss — and leave the adjacency
//! get in flight in between, so the edge loop ([`super::pipeline`]) overlaps
//! its latency with the next edges. One rule decides where a transfer lands —
//! *who keeps the buffer*:
//!
//! | read | kept by | lands in |
//! |---|---|---|
//! | cached miss (either entry point) | the cache (+ the caller of `read_row`) | the get's one `Arc` |
//! | non-cached or quarantine-bypass adjacency row | nobody | the calling thread's landing `Vec` |
//! | offsets span | nobody | the calling thread's span buffer ([`OffsetSpans`]) |
//! | one offsets pair | nobody | a two-word stack array |
//!
//! The simulator materializes a get's data at issue time, so a fault-free
//! read computes its value — and a miss admits its buffer — when it is
//! issued, in exactly the order a loop that waits for every get would; only
//! the cost ticket ([`rmatc_rma::PendingCharge`]) stays in flight. Under
//! fault injection unverified data is never trusted: a row nobody keeps —
//! offsets pairs and spans included — is read synchronously, verified and
//! healed in place ([`Endpoint::get_into_with_retry`]); a cached miss defers
//! both its value and its admission to the checksum-verified completion
//! ([`Endpoint::wait_with_reissue`]).

use super::config::DistConfig;
use super::windows::GraphWindows;
use rmatc_clampi::{CacheProbe, CacheStats, RowRef, ShardedCachedWindow};
use rmatc_graph::compressed::decoded_len;
use rmatc_graph::partition::Partitioner;
use rmatc_graph::types::VertexId;
use rmatc_graph::GraphStorage;
use rmatc_rma::{Endpoint, NetworkModel, PendingCharge, PendingGet, RmaError, Window};
use std::sync::Arc;

/// One directed edge `(u, v)` of a locally owned vertex `u`, as the edge loop
/// hands it to an [`EdgeOp`].
#[derive(Debug, Clone, Copy)]
pub struct Edge<'a> {
    /// Index of `u` within the calling thread's vertex chunk.
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
/// to fold the result into the rank's output. [`EdgeOp::stored`] defines the
/// value; `retained` and `landed` are the same value fused into a transfer.
pub trait EdgeOp: Sync {
    /// The result of one edge.
    type Value: Send;
    /// One element of the rank's output.
    type Item: Send;

    /// The empty output of a thread that owns `vertices` vertices.
    fn output(&self, vertices: usize) -> Vec<Self::Item>;

    /// `v` is owned by the same rank: `adj_v` is its plain partition row.
    fn local(&self, edge: &Edge<'_>, adj_v: &[VertexId]) -> Self::Value;

    /// The remote row in place, in the window's storage representation (raw
    /// ids or compressed words): a window slice, a cache entry, or a
    /// verified-clean buffer.
    fn stored(&self, edge: &Edge<'_>, row: &[VertexId]) -> Self::Value;

    /// A transfer the cache will retain: lands `wire` in the get's single
    /// shared buffer and computes the value in the same pass.
    fn retained(&self, edge: &Edge<'_>, wire: &[VertexId]) -> (Arc<[VertexId]>, Self::Value);

    /// A transfer nobody retains: lands `wire` in the thread's reusable
    /// `landing` buffer (cleared and refilled, capacity kept) and computes
    /// the value in the same pass.
    fn landed(
        &self,
        edge: &Edge<'_>,
        wire: &[VertexId],
        landing: &mut Vec<VertexId>,
    ) -> Self::Value;

    /// Folds the value of `edge` into the thread's output.
    fn fold(&self, out: &mut Vec<Self::Item>, edge: &Edge<'_>, value: Self::Value);
}

/// Outcome of starting a remote adjacency read.
#[derive(Debug)]
pub enum Started<R> {
    /// Resolved at issue time (empty row, local row, cache hit, or a faulted
    /// read healed synchronously): the value is final.
    Immediate(R),
    /// A get is in flight; finish with [`RowReader::complete`].
    Deferred(Deferred<R>),
}

/// A remote adjacency get in flight.
#[derive(Debug)]
pub struct Deferred<R>(Flight<R>);

#[derive(Debug)]
enum Flight<R> {
    /// Fault-free: the transfer landed and the value was computed at issue
    /// time; only the completion is owed.
    Charged(PendingCharge, R),
    /// A cached miss under fault injection: the buffer is untrusted until its
    /// checksum verifies, so the value is computed — and the buffer admitted
    /// (inserting at issue time would stamp a checksum over possibly corrupt
    /// data, which the cache would then serve as a verified hit) — from the
    /// clean buffer at completion.
    Unverified {
        pending: PendingGet<VertexId>,
        /// Element offset of the row on the get's target.
        start: usize,
    },
}

/// Whether the offsets pairs of two needed rows `p < q` of one owner share a
/// span under `network`'s `t(s) = α + β·s`: one span reads the
/// `8·(q − p − 2)` bytes between the two pairs (offsets are `u64`; adjacent
/// rows share a word) and saves one get, so it pays iff
/// `8·(q − p − 2)·β ≤ α`. The cost is additive over gaps, so deciding each
/// gap on its own — the greedy split — is optimal.
pub fn spans_join(network: &NetworkModel, p: usize, q: usize) -> bool {
    8.0 * (q as f64 - p as f64 - 2.0) * network.beta_ns_per_byte <= network.alpha_ns
}

/// The `(start, end)` pairs of one source's remote neighbours, read by span
/// ([`RowReader::read_spans`]): a worker thread's reusable buffers, which stop
/// allocating once they have grown to the widest source.
#[derive(Debug, Default)]
pub struct OffsetSpans {
    /// `(owner, local index, position in the source's row)` of every remote
    /// neighbour, grouped by owner.
    wanted: Vec<(usize, usize, usize)>,
    /// Where a span lands.
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

/// Per-rank reader of remote adjacency lists, shared by reference across the
/// rank's worker threads (each thread brings its own [`Endpoint`]).
///
/// Reading the adjacency of a remote vertex requires two RMA gets: the first reads
/// the `(start, end)` pair from the target's `offsets` array (alone, or in a span
/// with its source's other neighbours on that target), the second reads
/// `end − start` vertex ids from the target's `adjacencies` array. When caching is
/// enabled the second get is first looked up in the CLaMPI cache `C_adj`; every
/// admitted row carries its length — the vertex degree — as its
/// application-defined eviction score, which the cache reads if
/// [`super::CacheSpec::scoring`] says so. Under compressed storage the length
/// counts codec words, a faithful proxy for degree: the decoded count is not
/// known until the row arrives.
/// The cache is lock-sharded; with one thread the single shard is a plain
/// cache decision for decision.
#[derive(Debug)]
pub struct RowReader {
    offsets_plain: Window<u64>,
    adj_plain: Window<VertexId>,
    adj_cache: Option<ShardedCachedWindow<VertexId>>,
    /// Encoding of the adjacency window's payload (taken from the windows):
    /// under [`GraphStorage::Compressed`] every admitted miss records logical
    /// vs stored bytes on the cache ([`CacheStats::compression_ratio`]).
    storage: GraphStorage,
}

impl RowReader {
    /// Builds the reader of one rank over `windows`: resolves
    /// [`DistConfig::cache`] for a graph of `n_global` vertices (no cache
    /// when it is `None`) and shards the resolved cache `shards` ways — one
    /// shard per worker thread of the rank.
    pub fn new(
        windows: &GraphWindows,
        config: &DistConfig,
        n_global: usize,
        shards: usize,
    ) -> Self {
        let adj_cache = config.cache.and_then(|spec| {
            spec.resolve(n_global, windows.adjacency_bytes() as u64)
                .adjacencies
        });
        Self {
            offsets_plain: windows.offsets.clone(),
            adj_plain: windows.adjacencies.clone(),
            adj_cache: adj_cache
                .map(|cfg| ShardedCachedWindow::new(windows.adjacencies.id(), cfg, shards)),
            storage: windows.storage,
        }
    }

    /// First get of the protocol for one row, always synchronous — its
    /// result gates the adjacency get: the `(start, end)` offsets pair of the
    /// row of `local_idx` on `target`. The pair is borrowed from the window
    /// when the row is the caller's own and otherwise landed in a two-word
    /// stack buffer — nobody retains it, so it allocates nothing.
    pub fn read_offsets(
        &self,
        ep: &mut Endpoint,
        target: usize,
        local_idx: usize,
    ) -> Result<(usize, usize), RmaError> {
        let mut pair = [0u64; 2];
        if target == ep.rank() {
            pair.copy_from_slice(ep.local_read(&self.offsets_plain, local_idx, 2));
        } else {
            ep.get_into_with_retry(
                &self.offsets_plain,
                target,
                local_idx,
                2,
                &mut pair,
                |wire, pair| pair.copy_from_slice(wire),
            )?;
        }
        Ok((pair[0] as usize, pair[1] as usize))
    }

    /// First get of the protocol for every remote neighbour of one source at
    /// once: reads the `(start, end)` pairs of the rows in `adj_u` that
    /// `partitioner` places on other ranks than `ep.rank()` into `spans`
    /// ([`OffsetSpans::pair`]). Per owner, the needed local indices ascend
    /// (rows are sorted and every scheme maps ids monotonically within a
    /// rank); consecutive ones share a span while [`spans_join`] says the gap
    /// is cheaper than a get under `ep`'s network model. Each span is one
    /// synchronous, self-healing get landed in the thread's span buffer.
    pub fn read_spans(
        &self,
        ep: &mut Endpoint,
        partitioner: &Partitioner,
        adj_u: &[VertexId],
        spans: &mut OffsetSpans,
    ) -> Result<(), RmaError> {
        spans.wanted.clear();
        for (k, &v) in adj_u.iter().enumerate() {
            let owner = partitioner.owner(v);
            if owner != ep.rank() {
                spans.wanted.push((owner, partitioner.local_index(v), k));
            }
        }
        // Stable, so each owner's rows keep their ascending order.
        spans.wanted.sort_by_key(|&(owner, ..)| owner);
        spans
            .pairs
            .resize(spans.pairs.len().max(adj_u.len()), (0, 0));
        let network = *ep.network();
        let mut rest = &spans.wanted[..];
        while let Some(&(owner, first, _)) = rest.first() {
            let joined = rest
                .windows(2)
                .take_while(|w| w[1].0 == owner && spans_join(&network, w[0].1, w[1].1));
            let (span, tail) = rest.split_at(1 + joined.count());
            let len = span[span.len() - 1].1 + 2 - first;
            let words = &mut spans.words;
            ep.get_into_with_retry(
                &self.offsets_plain,
                owner,
                first,
                len,
                words,
                |wire, words| {
                    words.clear();
                    words.extend_from_slice(wire);
                },
            )?;
            for &(_, idx, k) in span {
                spans.pairs[k] = (words[idx - first] as usize, words[idx - first + 1] as usize);
            }
            rest = tail;
        }
        Ok(())
    }

    /// Looks the remote row of `len > 0` elements at `start` on `target` up
    /// in the cache: the one issue-time decision [`RowReader::read_row`] and
    /// [`RowReader::start`] share. Without a cache every row reads as an
    /// (uncounted) [`CacheProbe::Bypass`]: fetched, and kept by nobody.
    fn probe(
        &self,
        ep: &mut Endpoint,
        target: usize,
        start: usize,
        len: usize,
    ) -> CacheProbe<VertexId> {
        match &self.adj_cache {
            Some(cache) => cache.probe(ep, target, start, len),
            None => CacheProbe::Bypass,
        }
    }

    /// Admits a cached miss's landed (and verified) buffer, scored by its
    /// length, after recording its compression — logical vs stored bytes —
    /// under compressed storage.
    fn admit(&self, ep: &mut Endpoint, target: usize, start: usize, row: Arc<[VertexId]>) {
        let cache = self
            .adj_cache
            .as_ref()
            .expect("only a cached miss is admitted");
        let len = row.len();
        if self.storage == GraphStorage::Compressed {
            let (logical, stored) = (decoded_len(&row) as u64 * 4, len as u64 * 4);
            cache.record_compression(target, start, len, logical, stored);
        }
        cache.admit(ep, target, start, len, row, len as f64);
    }

    /// Reads the adjacency list on rank `target` whose `(start, end)` offsets
    /// pair the first get returned ([`RowReader::read_offsets`] or
    /// [`RowReader::read_spans`]), cache-intercepted where enabled, and waits
    /// for it: the probe → get → admit of [`RowReader::start`], with the get
    /// waited for in between.
    ///
    /// The returned [`RowRef`] is a zero-copy view: local-rank reads borrow the
    /// window, cache hits share the cached buffer, and a miss allocates exactly
    /// once — the transfer buffer, which the cache retains by refcount.
    ///
    /// The row is returned exactly as stored: raw vertex ids under plain
    /// storage, compressed words (decode with
    /// [`rmatc_graph::compressed::decode_row`]) under compressed storage.
    /// Every path is self-healing: transient failures and corrupted transfers
    /// retry per the endpoint's [`rmatc_rma::RetryPolicy`].
    pub fn read_row(
        &self,
        ep: &mut Endpoint,
        target: usize,
        (start, end): (usize, usize),
    ) -> Result<RowRef<'_, VertexId>, RmaError> {
        let len = end - start;
        if len == 0 {
            return Ok(RowRef::Window(&[]));
        }
        if target == ep.rank() {
            return Ok(RowRef::Window(ep.local_read(&self.adj_plain, start, len)));
        }
        let probe = self.probe(ep, target, start, len);
        if let CacheProbe::Hit(row) = probe {
            return Ok(RowRef::Cached(row));
        }
        let row = ep.get_with_retry(&self.adj_plain, target, start, len)?;
        if let CacheProbe::Miss = probe {
            self.admit(ep, target, start, Arc::clone(&row));
        }
        Ok(RowRef::Fetched(row))
    }

    /// Starts the read for `edge` of the row on `target` whose `(start, end)`
    /// offsets pair the first get returned ([`RowReader::read_offsets`] or
    /// [`RowReader::read_spans`]): either resolves in place
    /// ([`EdgeOp::stored`] over an empty, local or cached row) or issues the
    /// adjacency get and returns it in flight — landed where the module
    /// table says, the value already computed unless the transfer is
    /// untrusted. `landing` is the calling thread's reusable buffer; it is
    /// free again as soon as this returns.
    pub fn start<O: EdgeOp>(
        &self,
        ep: &mut Endpoint,
        target: usize,
        (start, end): (usize, usize),
        landing: &mut Vec<VertexId>,
        op: &O,
        edge: &Edge<'_>,
    ) -> Result<Started<O::Value>, RmaError> {
        let len = end - start;
        if len == 0 {
            return Ok(Started::Immediate(op.stored(edge, &[])));
        }
        if target == ep.rank() {
            let row = ep.local_read(&self.adj_plain, start, len);
            return Ok(Started::Immediate(op.stored(edge, row)));
        }
        // Who keeps the buffer: the cache on a miss, nobody otherwise.
        let adj = &self.adj_plain;
        let flight = match self.probe(ep, target, start, len) {
            CacheProbe::Hit(row) => return Ok(Started::Immediate(op.stored(edge, &row))),
            CacheProbe::Miss if ep.faults_enabled() => Flight::Unverified {
                pending: ep.issue_with_retry(adj, target, start, len)?,
                start,
            },
            CacheProbe::Miss => {
                let (pending, value) =
                    ep.get_map(adj, target, start, len, |wire| op.retained(edge, wire))?;
                let (arc, charge) = pending.split();
                self.admit(ep, target, start, arc);
                Flight::Charged(charge, value)
            }
            CacheProbe::Bypass if ep.faults_enabled() => {
                let value =
                    ep.get_into_with_retry(adj, target, start, len, landing, |wire, landing| {
                        op.landed(edge, wire, landing)
                    })?;
                return Ok(Started::Immediate(value));
            }
            CacheProbe::Bypass => {
                let (charge, value) =
                    ep.get_into(adj, target, start, len, landing, |wire, landing| {
                        op.landed(edge, wire, landing)
                    });
                Flight::Charged(charge, value)
            }
        };
        Ok(Started::Deferred(Deferred(flight)))
    }

    /// Completes a read [`RowReader::start`] left in flight: waits for the
    /// get and — when it was untrusted — heals it by reissue, computes the
    /// value from the verified-clean buffer and admits that buffer.
    pub fn complete<O: EdgeOp>(
        &self,
        ep: &mut Endpoint,
        deferred: Deferred<O::Value>,
        op: &O,
        edge: &Edge<'_>,
    ) -> Result<O::Value, RmaError> {
        match deferred.0 {
            Flight::Charged(charge, value) => {
                charge.wait(ep);
                Ok(value)
            }
            Flight::Unverified { pending, start } => {
                let (target, len) = (pending.target(), pending.len());
                let clean = ep.wait_with_reissue(pending, &self.adj_plain, target, start, len)?;
                let value = op.stored(edge, &clean);
                self.admit(ep, target, start, clean);
                Ok(value)
            }
        }
    }

    /// Statistics of the adjacency cache, if caching is enabled (merged
    /// across shards).
    pub fn adjacency_cache_stats(&self) -> Option<CacheStats> {
        self.adj_cache.as_ref().map(|c| c.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributed::config::CacheSpec;
    use crate::distributed::worker::ClosingCount;
    use crate::intersect::Intersector;
    use crate::local::count_closing_at;
    use rmatc_graph::gen::{GraphGenerator, RmatGenerator};
    use rmatc_graph::partition::{PartitionScheme, PartitionedGraph};
    use rmatc_rma::RankStats;

    /// Both gets of one row, as the service reads it: the offsets pair, then the
    /// row.
    fn read_row<'r>(
        reader: &'r RowReader,
        ep: &mut Endpoint,
        target: usize,
        idx: usize,
    ) -> Result<RowRef<'r, VertexId>, RmaError> {
        let pair = reader.read_offsets(ep, target, idx)?;
        reader.read_row(ep, target, pair)
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
        let reader = RowReader::new(&windows, &config, pg.global_vertex_count(), 1);
        let mut ep = endpoint(&config);
        let remote = &pg.partitions[1];
        for (local_idx, _) in remote.global_ids.iter().enumerate().take(20) {
            let got = read_row(&reader, &mut ep, 1, local_idx).unwrap();
            assert_eq!(got.as_slice(), remote.neighbours_of_local(local_idx));
        }
        ep.unlock_all();
        // Two gets per non-empty row, one per empty row.
        assert!(ep.stats().gets >= 20);
    }

    #[test]
    fn the_rank_cache_is_the_configuration_its_spec_resolves() {
        // One source for a run's cache configuration: under either score
        // rule, and however many shards split it, the rank's cache runs
        // exactly what `CacheSpec::resolve` returns — so an offline replay
        // that resolves the same spec replays the run's cache.
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
            for shards in [1, 4] {
                let reader = RowReader::new(&windows, &config, n, shards);
                let cache = reader.adj_cache.as_ref().expect("a cached reader");
                assert_eq!(*cache.config(), resolved, "{shards} shards");
            }
        }
    }

    #[test]
    fn cached_reader_returns_exact_adjacency_and_hits_on_reuse() {
        let (pg, mut config) = setup();
        let windows = GraphWindows::build(&pg);
        config.cache = Some(CacheSpec::paper(1 << 20).with_degree_scores());
        let reader = RowReader::new(&windows, &config, pg.global_vertex_count(), 1);
        let mut ep = endpoint(&config);
        let remote = &pg.partitions[1];
        for round in 0..2 {
            for (local_idx, _) in remote.global_ids.iter().enumerate().take(10) {
                let got = read_row(&reader, &mut ep, 1, local_idx).unwrap();
                assert_eq!(
                    got.as_slice(),
                    remote.neighbours_of_local(local_idx),
                    "round {round}"
                );
            }
        }
        ep.unlock_all();
        let adj_stats = reader.adjacency_cache_stats().unwrap();
        assert!(
            adj_stats.hits > 0,
            "second round must hit the adjacency cache"
        );
    }

    #[test]
    fn read_row_runs_the_protocol_of_start_and_complete() {
        // The service reads rows with `read_row`, the edge loop with `start`
        // / `complete`: one protocol. Two readers over the same windows read
        // the same remote rows twice through an eviction-heavy cache, one
        // reader per entry point, under both storages and both score rules:
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
                let by_row = RowReader::new(&windows, &config, n, 1);
                let by_start = RowReader::new(&windows, &config, n, 1);
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
                            let pair = by_row.read_offsets(&mut ep_row, 1, idx).unwrap();
                            by_row.read_row(&mut ep_row, 1, pair).unwrap();
                            let pair = by_start.read_offsets(&mut ep_start, 1, idx).unwrap();
                            let source = part.global_ids[local_idx];
                            let edge = Edge {
                                slot: 0,
                                source,
                                adj_u,
                                v,
                                k,
                            };
                            let started = by_start
                                .start(&mut ep_start, 1, pair, &mut landing, &op, &edge)
                                .unwrap();
                            if let Started::Deferred(d) = started {
                                by_start.complete(&mut ep_start, d, &op, &edge).unwrap();
                            }
                        }
                    }
                }
                ep_row.unlock_all();
                ep_start.unlock_all();
                let what = format!("{storage:?} {:?}", spec.scoring);
                let stats = by_row.adjacency_cache_stats().unwrap();
                assert!(stats.hits > 0 && stats.evictions() > 0, "{what}: {stats:?}");
                assert_eq!(Some(stats), by_start.adjacency_cache_stats(), "{what}");
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
        let reader = RowReader::new(&windows, &config, pg.global_vertex_count(), 1);
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
                .map(|rows| planned(rows, |p, q| !spans_join(&aries, p, q)))
                .sum();
            assert_eq!(gets, rule, "{scheme:?}");
            assert!((per_owner..=split).contains(&rule), "{scheme:?}");
        }
    }

    #[test]
    fn the_split_rule_prices_gap_bytes_against_one_get() {
        let aries = NetworkModel::aries();
        // 8 B/word · 0.1 ns/B against α = 2 500 ns: gaps of up to 3 125
        // unread words pay for themselves.
        assert!(spans_join(&aries, 10, 10 + 2 + 3_125));
        assert!(!spans_join(&aries, 10, 10 + 2 + 3_126));
        // Adjacent rows share a word; duplicates overlap entirely.
        let bytes_only = NetworkModel {
            alpha_ns: 0.0,
            ..aries
        };
        assert!(spans_join(&bytes_only, 4, 4));
        assert!(spans_join(&bytes_only, 4, 5));
        assert!(spans_join(&bytes_only, 4, 6));
        assert!(!spans_join(&bytes_only, 4, 7));
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
        let reader = RowReader::new(&windows, &config, pg.global_vertex_count(), 1);
        let mut ep = endpoint(&config);
        // Vertex 6 lives on rank 1 (block [4..8)) and has no neighbours.
        let local_idx = pg.partitioner.local_index(6);
        let got = read_row(&reader, &mut ep, 1, local_idx).unwrap();
        assert!(got.is_empty());
        assert_eq!(ep.stats().gets, 1);
        ep.unlock_all();
    }

    #[test]
    fn fused_values_match_separate_read_and_intersect() {
        // Under both storage modes, cached and non-cached, with one and with
        // four gets in flight, the split read's values must equal reading the
        // plain row and running `count_closing_at` over it, for every remote
        // edge and both rounds (miss then hit) — and compressed misses must
        // record logical vs stored bytes on the cache while doing so.
        let (pg, base) = setup();
        let plain_windows = GraphWindows::build(&pg);
        let plain_reader = RowReader::new(&plain_windows, &base, pg.global_vertex_count(), 1);
        let intersector = Intersector::new(base.method);
        let part = &pg.partitions[0];
        for storage in [GraphStorage::Plain, GraphStorage::Compressed] {
            let windows = GraphWindows::build_with(&pg, storage);
            for (cached, in_flight) in [(false, 1), (false, 4), (true, 1), (true, 4)] {
                let mut config = base;
                config.cache = cached.then(|| CacheSpec::paper(1 << 20).with_degree_scores());
                let reader = RowReader::new(&windows, &config, pg.global_vertex_count(), 1);
                let op = ClosingCount::new(&config, pg.direction, storage);
                let (mut ep_a, mut ep_b) = (endpoint(&config), endpoint(&config));
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
                            let row = read_row(&plain_reader, &mut ep_b, 1, v_local).unwrap();
                            let pair = reader.read_offsets(&mut ep_a, 1, v_local).unwrap();
                            let expected =
                                count_closing_at(pg.direction, adj_u, &row, v, k, &intersector);
                            let edge = Edge {
                                slot: 0,
                                source: part.global_ids[local_idx],
                                adj_u,
                                v,
                                k,
                            };
                            match reader
                                .start(&mut ep_a, 1, pair, &mut landing, &op, &edge)
                                .unwrap()
                            {
                                Started::Immediate(got) => assert_eq!(got, expected),
                                Started::Deferred(d) => flying.push_back((d, edge, expected)),
                            }
                            while flying.len() >= in_flight {
                                let (d, edge, expected) = flying.pop_front().unwrap();
                                let got = reader.complete(&mut ep_a, d, &op, &edge).unwrap();
                                assert_eq!(
                                    got, expected,
                                    "{storage:?} cached={cached} v={}",
                                    edge.v
                                );
                            }
                        }
                    }
                }
                assert!(flying.is_empty() || in_flight > 1);
                for (d, edge, expected) in flying.drain(..) {
                    assert_eq!(reader.complete(&mut ep_a, d, &op, &edge).unwrap(), expected);
                }
                ep_a.unlock_all();
                ep_b.unlock_all();
                if cached {
                    let stats = reader.adjacency_cache_stats().unwrap();
                    assert!(stats.hits > 0, "second round must hit");
                    assert_eq!(
                        stats.stored_bytes > 0 && stats.logical_bytes > stats.stored_bytes,
                        storage == GraphStorage::Compressed,
                        "compressed misses (only) must record a compression win: {stats:?}"
                    );
                }
            }
        }
    }
}
