//! The two-get remote-adjacency protocol (steps 4–5 in Figure 3), with optional
//! CLaMPI caching of one or both windows — the one remote-read path behind
//! [`crate::DistLcc`], [`crate::DistJaccard`] and the resident query service.
//!
//! [`RowReader`] offers the read in two shapes. [`RowReader::read_row`] hands
//! the row back as a zero-copy [`RowRef`] (the service plans a batch of rows
//! first and answers from them afterwards). [`RowReader::start`] /
//! [`RowReader::complete`] compute a per-edge operation ([`EdgeOp`]) over the
//! row *where it is* — in place on a local row or a cache hit, fused into the
//! transfer on a miss — and leave the adjacency get in flight in between, so
//! the edge loop ([`super::pipeline`]) overlaps its latency with the next
//! edges. One rule decides where a transfer lands — *who keeps the buffer*:
//!
//! | read | kept by | lands in |
//! |---|---|---|
//! | cached miss (either entry point) | the cache (+ the caller of `read_row`) | the get's one `Arc` |
//! | non-cached or quarantine-bypass adjacency row | nobody | the calling thread's landing `Vec` |
//! | uncached offsets pair | nobody | a two-word stack array |
//!
//! The simulator materializes a get's data at issue time, so a fault-free
//! read computes its value — and a miss admits its buffer — when it is
//! issued, in exactly the order a loop that waits for every get would; only
//! the cost ticket ([`rmatc_rma::PendingCharge`]) stays in flight. Under
//! fault injection unverified data is never trusted: a row nobody keeps is
//! read synchronously, verified and healed in place
//! ([`Endpoint::get_into_with_retry`]); a cached miss defers both its value
//! and its admission to the checksum-verified completion
//! ([`Endpoint::wait_with_reissue`]).

use super::config::{DistConfig, ScoreMode};
use super::windows::GraphWindows;
use rmatc_clampi::{CacheProbe, CacheStats, RowRef, ShardedCachedWindow};
use rmatc_graph::compressed::decoded_len;
use rmatc_graph::types::VertexId;
use rmatc_graph::GraphStorage;
use rmatc_rma::{Endpoint, PendingCharge, PendingGet, RmaError, Window};
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
        score: f64,
    },
}

/// Per-rank reader of remote adjacency lists, shared by reference across the
/// rank's worker threads (each thread brings its own [`Endpoint`]).
///
/// Reading the adjacency of a remote vertex requires two RMA gets: the first reads
/// the `(start, end)` pair from the target's `offsets` array, the second reads
/// `end − start` vertex ids from the target's `adjacencies` array. When caching is
/// enabled each get is first looked up in the corresponding CLaMPI cache
/// (`C_offsets`, `C_adj`); the adjacency entry can carry the vertex degree as its
/// application-defined eviction score. Caches are lock-sharded; with one
/// thread the single shard is a plain cache decision for decision.
#[derive(Debug)]
pub struct RowReader {
    offsets_plain: Window<u64>,
    adj_plain: Window<VertexId>,
    offsets_cache: Option<ShardedCachedWindow<u64>>,
    adj_cache: Option<ShardedCachedWindow<VertexId>>,
    score_mode: ScoreMode,
    /// Encoding of the adjacency window's payload (taken from the windows):
    /// under [`GraphStorage::Compressed`] every admitted miss records logical
    /// vs stored bytes on the cache ([`CacheStats::compression_ratio`]).
    storage: GraphStorage,
}

impl RowReader {
    /// Builds the reader of one rank over `windows`: resolves
    /// [`DistConfig::cache`] for a graph of `n_global` vertices (no caches
    /// when it is `None`) and shards each enabled cache `shards` ways — one
    /// shard per worker thread of the rank.
    pub fn new(
        windows: &GraphWindows,
        config: &DistConfig,
        n_global: usize,
        shards: usize,
    ) -> Self {
        let caches = config
            .cache
            .map(|spec| spec.resolve(n_global, windows.adjacency_bytes() as u64));
        Self {
            offsets_plain: windows.offsets.clone(),
            adj_plain: windows.adjacencies.clone(),
            offsets_cache: caches
                .and_then(|c| c.offsets)
                .map(|cfg| ShardedCachedWindow::new(windows.offsets.clone(), cfg, shards)),
            adj_cache: caches.and_then(|c| c.adjacencies).map(|cfg| {
                // The degree passed with each row only steers eviction and
                // admission if the cache scores by it; `C_offsets` entries
                // carry no score and stay positional.
                let cfg = match config.score_mode {
                    ScoreMode::Lru => cfg,
                    ScoreMode::DegreeCentrality => cfg.with_application_scores(),
                };
                ShardedCachedWindow::new(windows.adjacencies.clone(), cfg, shards)
            }),
            score_mode: config.score_mode,
            storage: windows.storage,
        }
    }

    /// First get of the protocol, always synchronous — its result gates the
    /// adjacency get: the `(start, end)` offsets pair of the row of
    /// `local_idx` on `target` (cache-intercepted when `C_offsets` is
    /// enabled). Uncached, the pair is borrowed from the window when the row
    /// is the caller's own and otherwise landed in a two-word stack buffer —
    /// nobody retains it, so it allocates nothing.
    fn read_offsets(
        &self,
        ep: &mut Endpoint,
        target: usize,
        local_idx: usize,
    ) -> Result<(usize, usize), RmaError> {
        let mut pair = [0u64; 2];
        match &self.offsets_cache {
            Some(cache) => {
                pair.copy_from_slice(&cache.get_scored(ep, target, local_idx, 2, 0.0)?);
            }
            None if target == ep.rank() => {
                pair.copy_from_slice(ep.local_read(&self.offsets_plain, local_idx, 2));
            }
            None => ep.get_into_with_retry(
                &self.offsets_plain,
                target,
                local_idx,
                2,
                &mut pair,
                |wire, pair| pair.copy_from_slice(wire),
            )?,
        }
        Ok((pair[0] as usize, pair[1] as usize))
    }

    /// The application-defined eviction score of an adjacency row of `len`
    /// entries (known after the first get: the degree of the fetched vertex).
    /// Under compressed storage `len` counts codec words, a faithful proxy
    /// for degree — the decoded count is not known until the row arrives.
    fn score_for(&self, len: usize) -> f64 {
        match self.score_mode {
            ScoreMode::Lru => 0.0,
            ScoreMode::DegreeCentrality => len as f64,
        }
    }

    /// The per-miss compression record: logical vs stored bytes of `row`,
    /// attributed to its region's shard. A no-op under plain storage.
    fn record_compression(
        &self,
        cache: &ShardedCachedWindow<VertexId>,
        target: usize,
        start: usize,
        row: &[VertexId],
    ) {
        if self.storage == GraphStorage::Compressed {
            let (logical, stored) = (decoded_len(row) as u64 * 4, row.len() as u64 * 4);
            cache.record_compression(target, start, row.len(), logical, stored);
        }
    }

    /// Reads the adjacency list of the vertex with local index `local_idx` on rank
    /// `target`, issuing the two gets (cache-intercepted where enabled) and
    /// waiting for both.
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
        local_idx: usize,
    ) -> Result<RowRef<'_, VertexId>, RmaError> {
        let (start, end) = self.read_offsets(ep, target, local_idx)?;
        let len = end - start;
        if len == 0 {
            return Ok(RowRef::Window(&[]));
        }
        match &self.adj_cache {
            Some(cache) => {
                let row = cache.get_scored(ep, target, start, len, self.score_for(len))?;
                if let RowRef::Fetched(arc) = &row {
                    self.record_compression(cache, target, start, arc);
                }
                Ok(row)
            }
            None if target == ep.rank() => {
                Ok(RowRef::Window(ep.local_read(&self.adj_plain, start, len)))
            }
            None => Ok(RowRef::Fetched(ep.get_with_retry(
                &self.adj_plain,
                target,
                start,
                len,
            )?)),
        }
    }

    /// Starts the read of the row of `local_idx` on `target` for `edge`:
    /// reads the offsets synchronously, then either resolves in place
    /// ([`EdgeOp::stored`] over an empty, local or cached row) or issues the
    /// adjacency get and returns it in flight — landed where the module
    /// table says, the value already computed unless the transfer is
    /// untrusted. `landing` is the calling thread's reusable buffer; it is
    /// free again as soon as this returns.
    pub fn start<O: EdgeOp>(
        &self,
        ep: &mut Endpoint,
        target: usize,
        local_idx: usize,
        landing: &mut Vec<VertexId>,
        op: &O,
        edge: &Edge<'_>,
    ) -> Result<Started<O::Value>, RmaError> {
        let (start, end) = self.read_offsets(ep, target, local_idx)?;
        let len = end - start;
        if len == 0 {
            return Ok(Started::Immediate(op.stored(edge, &[])));
        }
        if target == ep.rank() {
            let row = ep.local_read(&self.adj_plain, start, len);
            return Ok(Started::Immediate(op.stored(edge, row)));
        }
        // Who keeps the buffer: the cache on a miss, nobody otherwise.
        let keeper = match &self.adj_cache {
            Some(cache) => match cache.probe(ep, target, start, len) {
                CacheProbe::Hit(row) => return Ok(Started::Immediate(op.stored(edge, &row))),
                CacheProbe::Miss => Some(cache),
                CacheProbe::Bypass => None,
            },
            None => None,
        };
        let adj = &self.adj_plain;
        let flight = match keeper {
            Some(_) if ep.faults_enabled() => Flight::Unverified {
                pending: ep.issue_with_retry(adj, target, start, len)?,
                start,
                score: self.score_for(len),
            },
            Some(cache) => {
                let (pending, value) =
                    ep.get_map(adj, target, start, len, |wire| op.retained(edge, wire))?;
                let (arc, charge) = pending.split();
                self.record_compression(cache, target, start, &arc);
                cache.admit(ep, target, start, len, arc, self.score_for(len));
                Flight::Charged(charge, value)
            }
            None if ep.faults_enabled() => {
                let value =
                    ep.get_into_with_retry(adj, target, start, len, landing, |wire, landing| {
                        op.landed(edge, wire, landing)
                    })?;
                return Ok(Started::Immediate(value));
            }
            None => {
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
            Flight::Unverified {
                pending,
                start,
                score,
            } => {
                let (target, len) = (pending.target(), pending.len());
                let clean = ep.wait_with_reissue(pending, &self.adj_plain, target, start, len)?;
                let value = op.stored(edge, &clean);
                let cache = self
                    .adj_cache
                    .as_ref()
                    .expect("only a cached miss waits unverified");
                self.record_compression(cache, target, start, &clean);
                cache.admit(ep, target, start, len, clean, score);
                Ok(value)
            }
        }
    }

    /// Statistics of the offsets cache, if caching is enabled on that window
    /// (merged across shards).
    pub fn offsets_cache_stats(&self) -> Option<CacheStats> {
        self.offsets_cache.as_ref().map(|c| c.stats())
    }

    /// Statistics of the adjacency cache, if caching is enabled on that window
    /// (merged across shards).
    pub fn adjacency_cache_stats(&self) -> Option<CacheStats> {
        self.adj_cache.as_ref().map(|c| c.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributed::config::CacheSpec;
    use crate::distributed::worker::ClosingCount;
    use crate::intersect::ParallelIntersector;
    use crate::local::count_closing_at;
    use rmatc_graph::gen::{GraphGenerator, RmatGenerator};
    use rmatc_graph::partition::{PartitionScheme, PartitionedGraph};

    fn setup() -> (PartitionedGraph, DistConfig) {
        let g = RmatGenerator::paper(8, 8).generate_cleaned(3).into_csr();
        let pg = PartitionedGraph::from_global(&g, PartitionScheme::Block1D, 2).unwrap();
        let mut config = DistConfig::non_cached(2).with_degree_scores();
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
            let got = reader.read_row(&mut ep, 1, local_idx).unwrap();
            assert_eq!(got.as_slice(), remote.neighbours_of_local(local_idx));
        }
        ep.unlock_all();
        // Two gets per non-empty row, one per empty row.
        assert!(ep.stats().gets >= 20);
    }

    #[test]
    fn cached_reader_returns_exact_adjacency_and_hits_on_reuse() {
        let (pg, mut config) = setup();
        let windows = GraphWindows::build(&pg);
        // The paper's `0.8 · |V|`-byte offsets cache cannot hold this test's
        // whole 10-row working set on so small a graph, so second-round hits
        // would depend on the eviction pattern. Size it explicitly instead —
        // the test is about reuse being served from cache, not about capacity.
        let mut spec = CacheSpec::paper(1 << 20);
        spec.offsets_bytes = Some(1 << 10);
        config.cache = Some(spec);
        let reader = RowReader::new(&windows, &config, pg.global_vertex_count(), 1);
        let mut ep = endpoint(&config);
        let remote = &pg.partitions[1];
        for round in 0..2 {
            for (local_idx, _) in remote.global_ids.iter().enumerate().take(10) {
                let got = reader.read_row(&mut ep, 1, local_idx).unwrap();
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
        let off_stats = reader.offsets_cache_stats().unwrap();
        assert!(
            off_stats.hits > 0,
            "second round must hit the offsets cache"
        );
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
        let got = reader.read_row(&mut ep, 1, local_idx).unwrap();
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
        let intersector = ParallelIntersector::new(base.method, 1, usize::MAX);
        let part = &pg.partitions[0];
        for storage in [GraphStorage::Plain, GraphStorage::Compressed] {
            let windows = GraphWindows::build_with(&pg, storage);
            for (cached, in_flight) in [(false, 1), (false, 4), (true, 1), (true, 4)] {
                let mut config = base;
                config.cache = cached.then(|| CacheSpec::paper(1 << 20));
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
                            let row = plain_reader.read_row(&mut ep_b, 1, v_local).unwrap();
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
                                .start(&mut ep_a, 1, v_local, &mut landing, &op, &edge)
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
