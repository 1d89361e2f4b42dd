//! The two-get remote-adjacency protocol (steps 4–5 in Figure 3), with optional
//! CLaMPI caching of the adjacency window — the one remote-read path behind
//! [`crate::DistLcc`], [`crate::DistJaccard`] and the resident query service.
//!
//! The first get reads a row's `(start, end)` pair from the offsets window.
//! A rank reads it once per owner, not once per row: the first time it needs
//! a row of another owner, it reads that owner's whole offsets window with
//! one self-healing get and keeps the copy ([`OwnerOffsets`]), and every
//! later pair of that owner is answered from the copy
//! ([`RowReader::pair`]). A read that exhausts its retries keeps nothing, so
//! the next need reads the window again. The rank's own pairs come from its
//! own window, with no get.
//!
//! This departs from Algorithm 3, which reads one pair per remote edge, and
//! from the paper's `C_offsets`, which caches pairs inside a budget of
//! `0.8·|V|` bytes ([`super::CacheSpec::resolve`] gives `C_adj` the whole
//! budget instead). The copies have no budget and no knob: one owner's window
//! is `8·(n/p + 1)` bytes, so a rank holds at most about `8·n` bytes of
//! copies — 64 KB per owner at scale 14 on 2 ranks, but 512 MB at scale 26.
//! Cached or not, every loop reads offsets this way, so the cache's measured
//! gain is `C_adj`'s alone, against a baseline that reads rows by single get
//! with offsets copied once.
//!
//! [`RowReader`] offers the adjacency read in two shapes.
//! [`RowReader::read_key_rows`] reads the rows of a batch's sorted keys and
//! hands each back as a zero-copy [`RowRef`] (the service plans a batch of
//! rows first and answers from them afterwards). It probes every key in
//! `C_adj` first; the rows that must still cross the network — misses, and
//! every row nobody keeps — are read by span: consecutive rows of one owner
//! share a get while the adjacency words between them cost less than a get
//! ([`spans_join`]). One key alone is the single row get of Algorithm 3.
//! [`RowReader::start`] computes a per-edge operation ([`EdgeOp`]) over the
//! row *where it is* — a local row, a cache hit, or wherever its transfer
//! was read — and hands back the finished value with the transfer's cost
//! still owed, so the edge loop ([`super::pipeline`]) overlaps that latency
//! with the next edges.
//!
//! Every read that crosses the network — an owner's offsets window, an
//! edge-loop row, a batch's row span — goes through one lander, by one
//! rule. Fault-free, it is read in place ([`Endpoint::get_in_place`]) and
//! its charge may stay in flight. Under faults, it lands in the caller's
//! landing buffer ([`Endpoint::get_into_with_retry`]), synchronously, and is
//! verified and healed there, so no kernel ever runs over a transfer its
//! checksum has not verified and nothing is left in flight. A row someone
//! keeps — a `C_adj` miss, an owner's offsets window, a batch row the
//! caller holds past its landing buffer's next use — is then copied once,
//! from where it was read, into the `Arc` that keeps it; a batch row read
//! in place and kept by nobody borrows the window.
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
//! read computes its value — and a miss admits its copy — when it is
//! issued, in exactly the order a loop that waits for every get would; only
//! the cost ticket ([`rmatc_rma::PendingCharge`]) stays in flight. An
//! owner's offsets window and a batch's row span are waited at once: the
//! window's pairs gate the row gets, and a batch hands its rows back.
//!
//! The reader is the rank's windows, read through `&self`. Its cache,
//! [`AdjCache`], and its offsets copies, [`OwnerOffsets`], are separate
//! values the rank's one thread owns and lends to every read as `&mut`, next
//! to its endpoint: the rows [`RowReader::read_key_rows`] returns borrow the
//! windows alone, so a caller may hold many of them while it keeps reading
//! through the cache.

use super::config::DistConfig;
use super::windows::GraphWindows;
use crate::intersect::SourceMarks;
use rmatc_clampi::{CacheProbe, CachedWindow, RowRef};
use rmatc_graph::compressed::decoded_len;
use rmatc_graph::partition::RankPartition;
use rmatc_graph::types::VertexId;
use rmatc_graph::GraphStorage;
use rmatc_rma::{Endpoint, NetworkModel, PendingCharge, RmaError, Window};
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
    /// `adj_u` marked, when the operation asked for marks
    /// ([`EdgeOp::marks`]).
    pub marks: Option<&'a SourceMarks>,
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

    /// The cleared [`SourceMarks`] this operation probes, if any: a loop
    /// that gets them marks each source's row for the duration of its
    /// edges ([`Edge::marks`]). None by default.
    fn marks(&self) -> Option<SourceMarks> {
        None
    }
}

/// Whether two needed rows of one owner's adjacency window share a span
/// under `network`'s `t(s) = α + β·s`, given the `gap_bytes` between them:
/// one span reads the gap and saves one get, so it pays iff
/// `gap_bytes·β ≤ α`. The cost is additive over gaps, so deciding each gap on
/// its own — the greedy split — is optimal. It plans the service's row spans
/// ([`RowReader::read_key_rows`]).
pub fn spans_join(network: &NetworkModel, gap_bytes: usize) -> bool {
    gap_bytes as f64 * network.beta_ns_per_byte <= network.alpha_ns
}

/// A rank's copies of other owners' offsets windows, one slot per owner,
/// each filled by [`RowReader::pair`] the first time the rank needs a row of
/// that owner and kept from then on. Like [`AdjCache`], it belongs to the
/// rank's thread and is lent to every read as `&mut`, next to the cache.
#[derive(Debug)]
pub struct OwnerOffsets(Vec<Option<Arc<[u64]>>>);

impl OwnerOffsets {
    /// No copy yet, for a run of `ranks` owners.
    pub fn new(ranks: usize) -> Self {
        Self(vec![None; ranks])
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
/// the `(start, end)` pair from the target's `offsets` array (once per target: the
/// rank keeps a copy of the whole array, [`OwnerOffsets`]), the second reads
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

    /// First get of the protocol: the `(start, end)` pair of row `idx` of
    /// `owner`. The rank's own pairs are read from its own window, with no
    /// get. Another owner's come from the rank's copy of that owner's window
    /// in `offsets`, which the first call for that owner reads through the
    /// one lander — one get fault-free, a verified and healed one under
    /// faults — and copies into the `Arc` it keeps. Every later call for
    /// that owner issues no get.
    ///
    /// # Errors
    ///
    /// The window's read exhausted its retries. Nothing is kept, so the next
    /// call for that owner reads the window again.
    pub fn pair(
        &self,
        ep: &mut Endpoint,
        offsets: &mut OwnerOffsets,
        owner: usize,
        idx: usize,
    ) -> Result<(usize, usize), RmaError> {
        let window = &self.offsets_plain;
        let words = if owner == ep.rank() {
            window.local_part(owner)
        } else {
            match &mut offsets.0[owner] {
                Some(copy) => &copy[..],
                slot => {
                    let mut landing = Vec::new();
                    let len = window.len_of(owner);
                    let (words, charge) = land(ep, window, owner, 0, len, &mut landing)?;
                    if let Some(charge) = charge {
                        charge.wait(ep);
                    }
                    &slot.insert(Arc::from(words))[..]
                }
            }
        };
        Ok((words[idx] as usize, words[idx + 1] as usize))
    }

    /// Admits a cached miss's copy of its verified row, scored by its
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

    /// Both gets of the protocol for a batch of rows: the row of each of
    /// `keys` — remote `(owner, local index)` rows, sorted and distinct, as
    /// the service's batch planner holds them — into `rows`, cleared first,
    /// in key order. Each key's pair comes from [`RowReader::pair`] over
    /// `offsets`; an owner whose window read fails fails every key of that
    /// owner in the call, and is not read again before the next call.
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
    /// under compressed storage. A span that exhausts its retries fails only
    /// the rows inside it.
    /// `landing` and `rows` are the caller's reusable buffers: once they have
    /// grown, a batch of hits and local rows allocates nothing. The span plan
    /// lives only for the call, so a lane keeps no buffer sized by its
    /// largest batch of misses.
    pub fn read_key_rows<'r>(
        &'r self,
        ep: &mut Endpoint,
        cache: &mut AdjCache,
        offsets: &mut OwnerOffsets,
        keys: &[(usize, usize)],
        landing: &mut Vec<VertexId>,
        rows: &mut Vec<Result<RowRef<'r, VertexId>, RmaError>>,
    ) {
        rows.clear();
        // `(key index, kept, (start, end))` of every row that crosses the
        // network, in key order: a cached miss is kept (admitted), a row read
        // without a cache or past a quarantined one is not.
        let mut wanted = Vec::new();
        // The owner whose window read failed in this call, with its error;
        // keys are grouped by owner, so its later keys fail unread.
        let mut failed: Option<(usize, RmaError)> = None;
        let adj = &self.adj_plain;
        for (i, &(target, idx)) in keys.iter().enumerate() {
            let pair = match &failed {
                Some((owner, e)) if *owner == target => Err(e.clone()),
                _ => self
                    .pair(ep, offsets, target, idx)
                    .inspect_err(|e| failed = Some((target, e.clone()))),
            };
            rows.push(pair.map(|(start, end)| {
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
            let read = land(ep, adj, owner, first, last - first, landing);
            let in_place = matches!(read, Ok((_, Some(_))));
            let read = read.map(|(region, charge)| {
                if let Some(charge) = charge {
                    charge.wait(ep);
                }
                region
            });
            for &(i, kept, (start, end)) in span {
                rows[i] = match &read {
                    Err(e) => Err(e.clone()),
                    // Read in place and kept by nobody: the window's own row.
                    Ok(_) if in_place && !kept => {
                        Ok(RowRef::Window(&adj.local_part(owner)[start..end]))
                    }
                    Ok(region) => {
                        let row: Arc<[VertexId]> = Arc::from(&region[start - first..end - first]);
                        if kept {
                            self.admit(ep, cache, owner, start, Arc::clone(&row));
                        }
                        Ok(RowRef::Fetched(row))
                    }
                };
            }
            rest = tail;
        }
    }

    /// Reads the row on `target` whose `(start, end)` offsets pair the first
    /// get returned ([`RowReader::pair`]) and computes `edge`'s value
    /// over it ([`EdgeOp::stored`]) — in place on an empty, local or cached
    /// row, and otherwise wherever the one lander read the transfer; a miss
    /// is then copied into the `Arc` the cache keeps. The value is always
    /// final; the charge is the completion a fault-free transfer still owes,
    /// which the caller waits for when it likes ([`PendingCharge::wait`]).
    /// Under fault injection every transfer is synchronous and self-healing,
    /// so nothing is owed. `landing` is the caller's reusable buffer for a
    /// faulted read; it is free again as soon as this returns.
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
        Ok(match probe(ep, cache, target, start, len) {
            CacheProbe::Hit(row) => (op.stored(edge, &row), None),
            probe => {
                let (row, charge) = land(ep, &self.adj_plain, target, start, len, landing)?;
                let value = op.stored(edge, row);
                // Who keeps the row: the cache on a miss, nobody otherwise.
                if matches!(probe, CacheProbe::Miss) {
                    self.admit(ep, cache, target, start, Arc::from(row));
                }
                (value, charge)
            }
        })
    }
}

/// The one lander of every remote read, of `len` elements at `offset` on
/// `target`: fault-free, the target's region in place with the charge still
/// owed; under faults, landed in `landing`, verified and healed,
/// synchronously. A caller that keeps the data copies it from here.
fn land<'a, T: Copy + Send + Sync>(
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

    /// Both gets of one row as a one-key batch: the pair from the rank's
    /// copy of the owner's offsets window, then the row — the single row get
    /// of Algorithm 3.
    fn read_row<'r>(
        reader: &'r RowReader,
        ep: &mut Endpoint,
        cache: &mut AdjCache,
        offsets: &mut OwnerOffsets,
        target: usize,
        idx: usize,
    ) -> Result<RowRef<'r, VertexId>, RmaError> {
        let mut rows = Vec::new();
        let key = [(target, idx)];
        reader.read_key_rows(ep, cache, offsets, &key, &mut Vec::new(), &mut rows);
        rows.remove(0)
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
        let mut offsets = OwnerOffsets::new(2);
        let remote = &pg.partitions[1];
        let mut non_empty = 0;
        for local_idx in 0..remote.local_vertex_count().min(20) {
            let got = read_row(&reader, &mut ep, &mut cache, &mut offsets, 1, local_idx);
            let got = got.unwrap();
            assert_eq!(got.as_slice(), remote.neighbours_of_local(local_idx));
            non_empty += u64::from(!got.is_empty());
        }
        ep.unlock_all();
        // One get for rank 1's offsets window, one per non-empty row.
        assert!(non_empty > 0);
        assert_eq!(ep.stats().gets, 1 + non_empty);
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
        let mut offsets = OwnerOffsets::new(2);
        let remote = &pg.partitions[1];
        for round in 0..2 {
            for local_idx in 0..remote.local_vertex_count().min(10) {
                let got = read_row(&reader, &mut ep, &mut cache, &mut offsets, 1, local_idx);
                let got = got.unwrap();
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
                let (mut row_offsets, mut start_offsets) =
                    (OwnerOffsets::new(2), OwnerOffsets::new(2));
                let mut landing = Vec::new();
                for _round in 0..2 {
                    for local_idx in 0..part.local_vertex_count() {
                        let adj_u = part.neighbours_of_local(local_idx);
                        for (k, &v) in adj_u.iter().enumerate() {
                            if pg.partitioner.owner(v) != 1 {
                                continue;
                            }
                            let idx = pg.partitioner.local_index(v);
                            let (ep, cache) = (&mut ep_row, &mut row_cache);
                            read_row(&by_row, ep, cache, &mut row_offsets, 1, idx).unwrap();
                            let offsets = &mut start_offsets;
                            let pair = by_start.pair(&mut ep_start, offsets, 1, idx).unwrap();
                            let source = part.global_ids[local_idx];
                            let edge = Edge {
                                slot: 0,
                                source,
                                adj_u,
                                v,
                                k,
                                marks: None,
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

    #[test]
    fn the_split_rule_prices_gap_bytes_against_one_get() {
        let aries = NetworkModel::aries();
        // 0.1 ns/B against α = 2 500 ns: gaps of up to 25 000 unread bytes
        // pay for themselves — 6 250 adjacency words.
        assert!(spans_join(&aries, 4 * 6_250));
        assert!(!spans_join(&aries, 4 * 6_251));
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

    /// The owners of the sorted `keys` whose offsets window `offsets` does not
    /// hold yet: the window reads a batch of `keys` attempts.
    fn unheld_owners(offsets: &OwnerOffsets, keys: &[(usize, usize)]) -> u64 {
        let mut owners: Vec<usize> = keys.iter().map(|&(owner, _)| owner).collect();
        owners.dedup();
        owners
            .iter()
            .filter(|&&owner| offsets.0[owner].is_none())
            .count() as u64
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
        // under a heavy plan with retries. Fault-free, the gets are one per
        // owner whose offsets window the rank does not hold yet, plus the row
        // spans the join rule plans over the rows that crossed the network —
        // every non-empty row not served from the cache — under Aries, a free
        // network and free gets with priced bytes.
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
                    let mut offsets = OwnerOffsets::new(4);
                    let (mut landing, mut rows) = (Vec::new(), Vec::new());
                    let (mut crossed, mut saved) = (0, 0);
                    for _round in 0..4 {
                        let keys = random_keys(&pg, &mut state);
                        let (gets, copies) = (ep.stats().gets, unheld_owners(&offsets, &keys));
                        let (ep, cache, offsets) = (&mut ep, &mut cache, &mut offsets);
                        reader.read_key_rows(ep, cache, offsets, &keys, &mut landing, &mut rows);
                        assert_eq!(rows.len(), keys.len(), "{what}");
                        let mut network_rows = Vec::new();
                        for (&(owner, idx), row) in keys.iter().zip(&rows) {
                            let row = row.as_ref().expect(&what);
                            let want = pg.partitions[owner].neighbours_of_local(idx);
                            assert!(is_row(storage, row, want), "{what}: row {idx} of {owner}");
                            let words = windows.offsets.local_part(owner);
                            let (start, end) = (words[idx] as usize, words[idx + 1] as usize);
                            if end > start && !matches!(row, RowRef::Cached(_)) {
                                network_rows.push((owner, start, end));
                            }
                        }
                        if faults.is_none() {
                            let spans = row_spans(&network, &network_rows);
                            assert_eq!(ep.stats().gets - gets, copies + spans, "{what}");
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
        // With no retries, each offsets window read and each row span is one
        // attempt, and half the attempts fail. A failed window read fails
        // every key of its owner in the batch, and the next batch reads it
        // again; the keys of one row span share its outcome, and every
        // success is the owner's row. Every read is attempted exactly once.
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
        let mut offsets = OwnerOffsets::new(4);
        let (mut landing, mut rows) = (Vec::new(), Vec::new());
        let mut state = 0x2545_f491_4f6c_dd1d;
        let (mut failed, mut attempted, mut failed_copies) = (0, 0, 0);
        for _round in 0..4 {
            let keys = random_keys(&pg, &mut state);
            let copies = unheld_owners(&offsets, &keys);
            let (ep, offsets) = (&mut ep, &mut offsets);
            reader.read_key_rows(ep, &mut None, offsets, &keys, &mut landing, &mut rows);
            let still = unheld_owners(offsets, &keys);
            attempted += copies;
            failed += still;
            failed_copies += still;
            // The rows that went to the network, with their outcomes.
            let mut network_rows = Vec::new();
            for (&(owner, idx), row) in keys.iter().zip(&rows) {
                if offsets.0[owner].is_none() {
                    assert!(row.is_err(), "row {idx} of {owner} without its pair");
                    continue;
                }
                let words = pg.partitions[owner].csr.offsets();
                let (start, end) = (words[idx] as usize, words[idx + 1] as usize);
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
        }
        ep.unlock_all();
        assert!(0 < failed && failed < attempted, "{failed} of {attempted}");
        assert!(failed_copies > 0, "no offsets window read failed");
        let stats = ep.stats();
        assert_eq!(stats.gets + stats.transient_failures, attempted);
    }

    #[test]
    fn a_failed_copy_is_not_kept() {
        // With no retries, each offsets window read is one attempt, and half
        // the attempts fail. A failed `pair` leaves its owner's slot empty,
        // so the next call reads the window again; once the copy is held,
        // every pair of that owner is the owner's and issues no get. The
        // rank's own pairs never issue one.
        let (pg, reader) = four_ranks();
        let coin = FaultPlan {
            get_failure_p: 0.5,
            ..FaultPlan::reliable(11)
        };
        let mut ep = Endpoint::new(0, 4, NetworkModel::aries())
            .with_retry(RetryPolicy::no_retries())
            .with_faults(coin.injector(0));
        ep.lock_all();
        let mut offsets = OwnerOffsets::new(4);
        let attempts = |ep: &Endpoint| ep.stats().gets + ep.stats().transient_failures;
        let mut failures = 0;
        for owner in 0..4 {
            let words = pg.partitions[owner].csr.offsets();
            let want = |idx: usize| (words[idx] as usize, words[idx + 1] as usize);
            if owner != 0 {
                loop {
                    let before = attempts(&ep);
                    let pair = reader.pair(&mut ep, &mut offsets, owner, 0);
                    assert_eq!(attempts(&ep), before + 1, "owner {owner}");
                    match pair {
                        Ok(pair) => break assert_eq!(pair, want(0)),
                        Err(_) => failures += 1,
                    }
                    assert!(offsets.0[owner].is_none(), "a failed copy was kept");
                }
            }
            let before = attempts(&ep);
            for idx in 0..pg.partitions[owner].local_vertex_count() {
                let pair = reader.pair(&mut ep, &mut offsets, owner, idx).unwrap();
                assert_eq!(pair, want(idx), "row {idx} of {owner}");
            }
            assert_eq!(
                attempts(&ep),
                before,
                "owner {owner}: a held copy issued a get"
            );
        }
        ep.unlock_all();
        assert!(failures > 0, "no window read failed");
        assert!(offsets.0[0].is_none(), "the rank copied its own window");
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
        // Vertex 6 lives on rank 1 (block [4..8)) and has no neighbours: the
        // one get reads rank 1's offsets window.
        let local_idx = pg.partitioner.local_index(6);
        let mut offsets = OwnerOffsets::new(2);
        let got = read_row(&reader, &mut ep, &mut cache, &mut offsets, 1, local_idx).unwrap();
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
                let (mut offsets_a, mut offsets_b) = (OwnerOffsets::new(2), OwnerOffsets::new(2));
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
                            let (ep_b, offsets_b) = (&mut ep_b, &mut offsets_b);
                            let row =
                                read_row(&plain_reader, ep_b, &mut no_cache, offsets_b, 1, v_local)
                                    .unwrap();
                            let pair = reader.pair(&mut ep_a, &mut offsets_a, 1, v_local).unwrap();
                            let expected = count_closing_at(
                                pg.direction,
                                adj_u,
                                &row,
                                v,
                                k,
                                &intersector,
                                None,
                            );
                            let edge = Edge {
                                slot: 0,
                                source: part.global_ids[local_idx],
                                adj_u,
                                v,
                                k,
                                marks: None,
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
