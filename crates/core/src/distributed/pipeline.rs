//! The overlapped worker: intra-rank threads and a software pipeline over the
//! two-get protocol (the paper's shared-memory axis, Figure 6, composed with
//! the communication/compute overlap its double-buffering models).
//!
//! `run_worker_overlapped` is the drop-in counterpart of
//! [`super::worker::run_worker`], selected by [`DistConfig::overlapped`]. It
//! differs along two orthogonal axes:
//!
//! * **Pipeline depth** — instead of completing every remote adjacency get
//!   before touching the next edge, each worker thread keeps up to
//!   [`DistConfig::effective_pipeline_depth`] gets in flight in a FIFO:
//!   the get of edge *i+D* is issued while edge *i* completes, so the modeled
//!   (and, with [`rmatc_rma::NetworkModel::with_injection`], real) transfer
//!   latency hides behind the issue-side compute. Offsets reads stay
//!   synchronous — they are two-element reads whose result gates the
//!   adjacency get, exactly the dependency the two-get protocol imposes.
//! * **Intra-rank threads** — the rank's vertex block is split into
//!   [`DistConfig::effective_intra_threads`] contiguous chunks, each run by a
//!   task on the process-wide work-stealing pool with its *own*
//!   [`Endpoint`] (own statistics, own deterministic fault stream), all
//!   sharing one `SharedReader` whose caches are the lock-sharded
//!   [`rmatc_clampi::ShardedCachedWindow`] — concurrent misses on different
//!   shards proceed in parallel, same-key misses coalesce.
//!
//! # Equivalence to the sequential worker
//!
//! The differential layer in `tests/equivalence.rs` holds this path to the
//! sequential worker's results. The key design decisions that make the strong
//! tier (one thread, any depth, fault-free: bit-identical scores, cache
//! statistics *and* rank statistics) possible:
//!
//! * The simulator materializes a get's data at issue time
//!   ([`Endpoint::get_map`] runs the transfer closure immediately); only the
//!   cost charge is deferred to the wait. A fault-free miss therefore
//!   computes its fused intersection and admits the landed buffer *at issue
//!   time* — the cache performs the same operations in the same order as the
//!   sequential worker — while the deferred FIFO waits charge completion
//!   costs in issue order, preserving the exact f64 accumulation sequence.
//! * Under fault injection the issue-time buffer may be corrupted, so the
//!   pipelined miss path never admits (or trusts a count from) unverified
//!   data: the wait verifies the checksum, heals failures by reissuing
//!   ([`Endpoint::wait_with_reissue`]), recomputes the count from the clean
//!   buffer, and only then admits it. Faulted runs are compared on scores
//!   against the fault-free baseline, not on statistics.
//! * On an unrecoverable error the thread abandons its in-flight gets
//!   ([`Endpoint::abandon_outstanding`]), closes its epoch and surfaces the
//!   error; the lowest thread index wins, keeping the surfaced error
//!   deterministic (the same rule `run_ranks` applies across ranks).

use super::config::{DistConfig, ResolvedCaches, ScoreMode};
use super::reader::{
    compressed_transfer_count_closing, read_offsets_plain, transfer_count_closing,
};
use super::windows::GraphWindows;
use super::worker::WorkerOutput;
use crate::intersect::{CostModel, ParallelIntersector};
use crate::local::{compressed_count_closing_at, count_closing_at};
use rayon::prelude::*;
use rmatc_clampi::{CacheProbe, CacheStats, ShardedCachedWindow};
use rmatc_graph::compressed::decoded_len;
use rmatc_graph::partition::PartitionedGraph;
use rmatc_graph::types::{Direction, VertexId};
use rmatc_graph::GraphStorage;
use rmatc_rma::{ComputeMeter, Endpoint, PendingGet, RankStats, RmaError, ThreadTimer};
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::Arc;

/// The concurrent counterpart of [`super::reader::RemoteReader`]: one
/// instance per rank, shared by reference across that rank's worker threads
/// (each thread brings its own [`Endpoint`]). Caches are lock-sharded; with
/// one thread the single shard makes every decision identical to the
/// sequential reader's.
pub(crate) struct SharedReader {
    offsets_plain: rmatc_rma::Window<u64>,
    adj_plain: rmatc_rma::Window<VertexId>,
    offsets_cache: Option<ShardedCachedWindow<u64>>,
    adj_cache: Option<ShardedCachedWindow<VertexId>>,
    score_mode: ScoreMode,
    /// How the adjacency window's payload is encoded (taken from the windows,
    /// which the reader must match). Under [`GraphStorage::Compressed`] every
    /// admitted miss records logical vs stored bytes on the cache.
    storage: GraphStorage,
    /// Cost model driving the fused decompress+intersect kernel choice —
    /// the same model the plain path's intersector carries.
    model: CostModel,
}

/// A remote adjacency get in flight: everything needed to finish the read at
/// completion time — heal, recompute when the issue-time value is untrusted,
/// and admit into the cache when admission was deferred.
pub(crate) struct Deferred<R> {
    pending: PendingGet<VertexId>,
    target: usize,
    start: usize,
    len: usize,
    score: f64,
    /// Admit the clean buffer at completion (faulted cached miss: inserting
    /// at issue time would stamp a checksum over possibly-corrupt data and
    /// the cache would then serve it as a verified hit).
    admit: bool,
    /// The fused issue-time result, present exactly when the transfer is
    /// trusted (fault-free). `None` means recompute from the clean buffer.
    value: Option<R>,
}

/// Outcome of starting a remote adjacency read.
pub(crate) enum Started<R> {
    /// Resolved at issue time (empty row, local row, or cache hit): the
    /// result computed in place over the stored row.
    Immediate(R),
    /// A get is in flight; finish with [`SharedReader::complete`].
    Deferred(Deferred<R>),
}

impl SharedReader {
    /// Builds the shared reader for one rank, sharding each enabled cache
    /// `shards` ways (one shard per expected worker thread).
    pub(crate) fn new(
        windows: &GraphWindows,
        caches: &ResolvedCaches,
        config: &DistConfig,
        shards: usize,
    ) -> Self {
        Self {
            offsets_plain: windows.offsets.clone(),
            adj_plain: windows.adjacencies.clone(),
            offsets_cache: caches
                .offsets
                .map(|cfg| ShardedCachedWindow::new(windows.offsets.clone(), cfg, shards)),
            adj_cache: caches
                .adjacencies
                .map(|cfg| ShardedCachedWindow::new(windows.adjacencies.clone(), cfg, shards)),
            score_mode: config.score_mode,
            storage: windows.storage,
            model: config.cost_model,
        }
    }

    /// First get of the protocol, synchronous as in the sequential reader:
    /// the `(start, end)` offsets pair of the row of `local_idx` on `target`.
    fn read_offsets(
        &self,
        ep: &mut Endpoint,
        target: usize,
        local_idx: usize,
    ) -> Result<(usize, usize), RmaError> {
        match &self.offsets_cache {
            Some(cache) => {
                let row = cache.get_scored(ep, target, local_idx, 2, 0.0)?;
                Ok((row[0] as usize, row[1] as usize))
            }
            None => read_offsets_plain(ep, &self.offsets_plain, target, local_idx),
        }
    }

    /// The application-defined eviction score of an adjacency row (the degree
    /// of the fetched vertex), as in the sequential reader.
    fn score_for(&self, len: usize) -> f64 {
        match self.score_mode {
            ScoreMode::Lru => 0.0,
            ScoreMode::DegreeCentrality => len as f64,
        }
    }

    /// Starts a remote adjacency read for the row of `local_idx` on `target`:
    /// reads the offsets synchronously, then either resolves in place
    /// (`on_row` over an empty, local or cached row) or issues the adjacency
    /// get nonblockingly and returns it as [`Started::Deferred`].
    ///
    /// On a fault-free miss the transfer is fused: `fused` lands the source
    /// region in a shared buffer and computes the caller's result in the same
    /// pass, and the buffer is admitted immediately — keeping cache state in
    /// the exact sequential order. Under fault injection both the value and
    /// the admission are deferred to the verified completion.
    pub(crate) fn start_remote<R>(
        &self,
        ep: &mut Endpoint,
        target: usize,
        local_idx: usize,
        on_row: impl FnOnce(&[VertexId]) -> R,
        fused: impl FnOnce(&[VertexId]) -> (Arc<[VertexId]>, R),
    ) -> Result<Started<R>, RmaError> {
        let (start, end) = self.read_offsets(ep, target, local_idx)?;
        let len = end - start;
        if len == 0 {
            return Ok(Started::Immediate(on_row(&[])));
        }
        if target == ep.rank() {
            let row = ep.local_read(&self.adj_plain, start, len);
            return Ok(Started::Immediate(on_row(row)));
        }
        let score = self.score_for(len);
        let deferred = match &self.adj_cache {
            Some(cache) => match cache.probe(ep, target, start, len) {
                CacheProbe::Hit(row) => {
                    return Ok(Started::Immediate(on_row(&row)));
                }
                CacheProbe::Bypass => Deferred {
                    pending: ep.issue_with_retry(&self.adj_plain, target, start, len)?,
                    target,
                    start,
                    len,
                    score,
                    admit: false,
                    value: None,
                },
                CacheProbe::Miss if ep.faults_enabled() => Deferred {
                    pending: ep.issue_with_retry(&self.adj_plain, target, start, len)?,
                    target,
                    start,
                    len,
                    score,
                    admit: true,
                    value: None,
                },
                CacheProbe::Miss => {
                    // Fault-free miss: fused transfer at issue time, admitted
                    // immediately — the single sequential-order cache insert.
                    let mut landed: Option<Arc<[VertexId]>> = None;
                    let (pending, value) =
                        ep.get_map(&self.adj_plain, target, start, len, |src| {
                            let (arc, value) = fused(src);
                            landed = Some(Arc::clone(&arc));
                            (arc, value)
                        })?;
                    let arc = landed.expect("transfer closure runs at issue time");
                    let sizes = (self.storage == GraphStorage::Compressed)
                        .then(|| (decoded_len(&arc) as u64 * 4, arc.len() as u64 * 4));
                    cache.admit(ep, target, start, len, arc, score);
                    if let Some((logical, stored)) = sizes {
                        // Same per-miss record the sequential reader makes,
                        // at the same point in cache-operation order.
                        cache.record_compression(target, start, len, logical, stored);
                    }
                    Deferred {
                        pending,
                        target,
                        start,
                        len,
                        score,
                        admit: false,
                        value: Some(value),
                    }
                }
            },
            None if ep.faults_enabled() => Deferred {
                pending: ep.issue_with_retry(&self.adj_plain, target, start, len)?,
                target,
                start,
                len,
                score,
                admit: false,
                value: None,
            },
            None => {
                let (pending, value) = ep.get_map(&self.adj_plain, target, start, len, fused)?;
                Deferred {
                    pending,
                    target,
                    start,
                    len,
                    score,
                    admit: false,
                    value: Some(value),
                }
            }
        };
        Ok(Started::Deferred(deferred))
    }

    /// Completes a deferred read: waits (healing by reissue), recomputes the
    /// result from the verified-clean buffer when the issue-time value was
    /// untrusted, and performs the deferred cache admission.
    pub(crate) fn complete<R>(
        &self,
        ep: &mut Endpoint,
        deferred: Deferred<R>,
        recompute: impl FnOnce(&[VertexId]) -> R,
    ) -> Result<R, RmaError> {
        let Deferred {
            pending,
            target,
            start,
            len,
            score,
            admit,
            value,
        } = deferred;
        let clean = ep.wait_with_reissue(pending, &self.adj_plain, target, start, len)?;
        let value = match value {
            Some(v) => v,
            None => recompute(&clean),
        };
        if admit {
            if let Some(cache) = &self.adj_cache {
                if self.storage == GraphStorage::Compressed {
                    cache.record_compression(
                        target,
                        start,
                        len,
                        decoded_len(&clean) as u64 * 4,
                        clean.len() as u64 * 4,
                    );
                }
                cache.admit(ep, target, start, len, clean, score);
            }
        }
        Ok(value)
    }

    /// The storage mode of the windows this reader serves.
    pub(crate) fn storage(&self) -> GraphStorage {
        self.storage
    }

    /// The cost model driving the compressed kernels.
    pub(crate) fn model(&self) -> &CostModel {
        &self.model
    }

    /// Statistics of the offsets cache, if enabled (merged across shards).
    pub(crate) fn offsets_cache_stats(&self) -> Option<CacheStats> {
        self.offsets_cache.as_ref().map(|c| c.stats())
    }

    /// Statistics of the adjacency cache, if enabled (merged across shards).
    pub(crate) fn adjacency_cache_stats(&self) -> Option<CacheStats> {
        self.adj_cache.as_ref().map(|c| c.stats())
    }
}

/// Splits `n` items into `workers` contiguous chunks; returns the chunk size.
pub(crate) fn chunk_size(n: usize, workers: usize) -> usize {
    n.div_ceil(workers.max(1)).max(1)
}

/// Clamps the configured thread count to the rank's vertex count (an idle
/// thread would only skew fault streams), with a floor of one.
pub(crate) fn worker_count(config: &DistConfig, n_local: usize) -> usize {
    config.effective_intra_threads().min(n_local).max(1)
}

/// One LCC adjacency get in flight: the [`Deferred`] read plus the edge
/// context needed to recompute and accumulate at completion.
struct Slot<'a> {
    deferred: Deferred<u64>,
    adj_u: &'a [VertexId],
    v: VertexId,
    neighbour_idx: usize,
    /// Index into the thread's local triangle accumulator.
    out: usize,
}

/// What one worker thread produced.
struct ThreadOut {
    range: Range<usize>,
    triangles: Vec<u64>,
    rma: RankStats,
    compute_ns: u64,
    edges_processed: u64,
    remote_edges: u64,
}

/// Runs one rank of the distributed LCC computation with the overlapped
/// worker (pipelined gets, optional intra-rank threads). Selected by
/// [`super::worker::run_worker`] when [`DistConfig::overlapped`] holds;
/// output and error semantics are identical to the sequential worker.
pub(crate) fn run_worker_overlapped(
    rank: usize,
    pg: &PartitionedGraph,
    windows: &GraphWindows,
    config: &DistConfig,
) -> Result<WorkerOutput, RmaError> {
    let part = &pg.partitions[rank];
    let caches = match &config.cache {
        Some(spec) => spec.resolve(pg.global_vertex_count(), windows.adjacency_bytes() as u64),
        None => ResolvedCaches {
            offsets: None,
            adjacencies: None,
        },
    };
    let n_local = part.local_vertex_count();
    let workers = worker_count(config, n_local);
    let reader = SharedReader::new(windows, &caches, config, workers);
    let intersector =
        ParallelIntersector::new(config.method, 1, usize::MAX).with_cost_model(config.cost_model);
    let chunk = chunk_size(n_local, workers);

    let outs: Vec<Result<ThreadOut, RmaError>> = (0..workers)
        .into_par_iter()
        .map(|t| {
            let lo = (t * chunk).min(n_local);
            let hi = ((t + 1) * chunk).min(n_local);
            run_thread(rank, lo..hi, pg, &reader, config, &intersector)
        })
        .collect();
    // Lowest failing thread wins: index order, not completion order, keeps
    // the surfaced error deterministic (the rule `run_ranks` applies too).
    let outs = outs.into_iter().collect::<Result<Vec<_>, _>>()?;

    let mut local_triangles = vec![0u64; n_local];
    let mut rma: Option<RankStats> = None;
    let mut compute_ns = 0u64;
    let mut edges_processed = 0u64;
    let mut remote_edges = 0u64;
    for out in outs {
        local_triangles[out.range.clone()].copy_from_slice(&out.triangles);
        match &mut rma {
            Some(merged) => merged.merge(&out.rma),
            None => rma = Some(out.rma),
        }
        // The rank's threads run concurrently: its compute time is the
        // slowest thread, not the sum.
        compute_ns = compute_ns.max(out.compute_ns);
        edges_processed += out.edges_processed;
        remote_edges += out.remote_edges;
    }
    Ok(WorkerOutput {
        rank,
        local_triangles,
        offsets_cache: reader.offsets_cache_stats(),
        adjacency_cache: reader.adjacency_cache_stats(),
        rma: rma.unwrap_or_else(|| RankStats::new(config.ranks)),
        compute_ns,
        edges_processed,
        remote_edges,
    })
}

/// One worker thread: walks its contiguous vertex chunk with a depth-bounded
/// FIFO of in-flight adjacency gets.
fn run_thread(
    rank: usize,
    range: Range<usize>,
    pg: &PartitionedGraph,
    reader: &SharedReader,
    config: &DistConfig,
    intersector: &ParallelIntersector,
) -> Result<ThreadOut, RmaError> {
    let mut ep = Endpoint::new(rank, config.ranks, config.network).with_retry(config.retry);
    if let Some(plan) = config.faults {
        // Same per-rank seed on every thread: each thread owns a
        // deterministic event stream independent of the thread count's
        // interleaving (streams advance per event, per endpoint).
        ep = ep.with_faults(plan.injector(rank));
    }
    let mut triangles = vec![0u64; range.len()];
    let mut edges_processed = 0u64;
    let mut remote_edges = 0u64;
    let mut fifo: VecDeque<Slot<'_>> = VecDeque::with_capacity(config.effective_pipeline_depth());
    ep.lock_all();
    let timer = ThreadTimer::start();
    let meter = config.double_buffering.then(|| ComputeMeter::new(timer));
    let outcome = thread_loop(
        rank,
        range.clone(),
        pg,
        reader,
        config,
        intersector,
        &mut ep,
        &mut fifo,
        &mut triangles,
        &mut edges_processed,
        &mut remote_edges,
        meter,
    );
    match outcome {
        Ok(()) => {
            let compute_ns = timer.elapsed_ns();
            ep.unlock_all();
            Ok(ThreadOut {
                range,
                triangles,
                rma: ep.into_stats(),
                compute_ns,
                edges_processed,
                remote_edges,
            })
        }
        Err(e) => {
            // Drop the in-flight slots and charge their cost as a final
            // flush, so the epoch closes cleanly instead of hanging on (or
            // asserting about) abandoned gets.
            fifo.clear();
            ep.abandon_outstanding();
            ep.unlock_all();
            Err(e)
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn thread_loop<'a>(
    rank: usize,
    range: Range<usize>,
    pg: &'a PartitionedGraph,
    reader: &SharedReader,
    config: &DistConfig,
    intersector: &ParallelIntersector,
    ep: &mut Endpoint,
    fifo: &mut VecDeque<Slot<'a>>,
    triangles: &mut [u64],
    edges_processed: &mut u64,
    remote_edges: &mut u64,
    mut meter: Option<ComputeMeter>,
) -> Result<(), RmaError> {
    let part = &pg.partitions[rank];
    let direction = pg.direction;
    let depth = config.effective_pipeline_depth();
    let model = &config.cost_model;
    let compressed = reader.storage == GraphStorage::Compressed;
    for local_idx in range.clone() {
        let out = local_idx - range.start;
        let adj_u = part.neighbours_of_local(local_idx);
        for (k, &v) in adj_u.iter().enumerate() {
            *edges_processed += 1;
            if let Some(meter) = meter.as_mut() {
                // Double buffering, as in the sequential worker: bank the
                // thread's compute as overlap credit, one clock read per
                // stride of edges.
                meter.tick(ep);
            }
            let owner = pg.partitioner.owner(v);
            if owner == rank {
                let v_local = pg.partitioner.local_index(v);
                let adj_v = part.neighbours_of_local(v_local);
                triangles[out] += count_closing_at(direction, adj_u, adj_v, v, k, intersector);
                continue;
            }
            *remote_edges += 1;
            let v_local = pg.partitioner.local_index(v);
            // The remote row arrives as stored: raw ids under plain storage,
            // compressed words under compressed storage — pick the matching
            // pair of in-place / fused-transfer kernels.
            let started = if compressed {
                reader.start_remote(
                    ep,
                    owner,
                    v_local,
                    |row| compressed_count_closing_at(direction, adj_u, row, v, k, model),
                    |src| compressed_transfer_count_closing(direction, adj_u, v, k, model, src),
                )?
            } else {
                reader.start_remote(
                    ep,
                    owner,
                    v_local,
                    |row| count_closing_at(direction, adj_u, row, v, k, intersector),
                    |src| transfer_count_closing(direction, adj_u, v, k, intersector, src),
                )?
            };
            match started {
                Started::Immediate(value) => triangles[out] += value,
                Started::Deferred(deferred) => {
                    if fifo.len() >= depth {
                        let slot = fifo.pop_front().expect("fifo is non-empty at depth");
                        complete_slot(ep, reader, slot, triangles, intersector, direction)?;
                    }
                    fifo.push_back(Slot {
                        deferred,
                        adj_u,
                        v,
                        neighbour_idx: k,
                        out,
                    });
                }
            }
        }
    }
    if let Some(meter) = meter.as_mut() {
        // The tail since the last stride hides the drain's completions.
        meter.bank(ep);
    }
    // Drain the tail in issue order.
    while let Some(slot) = fifo.pop_front() {
        complete_slot(ep, reader, slot, triangles, intersector, direction)?;
    }
    Ok(())
}

fn complete_slot(
    ep: &mut Endpoint,
    reader: &SharedReader,
    slot: Slot<'_>,
    triangles: &mut [u64],
    intersector: &ParallelIntersector,
    direction: Direction,
) -> Result<(), RmaError> {
    let Slot {
        deferred,
        adj_u,
        v,
        neighbour_idx,
        out,
    } = slot;
    let count = if reader.storage == GraphStorage::Compressed {
        let model = &reader.model;
        reader.complete(ep, deferred, |row| {
            compressed_count_closing_at(direction, adj_u, row, v, neighbour_idx, model)
        })?
    } else {
        reader.complete(ep, deferred, |row| {
            count_closing_at(direction, adj_u, row, v, neighbour_idx, intersector)
        })?
    };
    triangles[out] += count;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributed::config::CacheSpec;
    use crate::distributed::worker::run_worker;
    use crate::intersect::{CostModel, IntersectMethod};
    use rmatc_graph::gen::{GraphGenerator, RmatGenerator};
    use rmatc_graph::partition::PartitionScheme;
    use rmatc_rma::NetworkModel;

    /// Integer counters must match the sequential worker exactly; the f64
    /// time accumulators see the same charges but in a different interleaving
    /// (offsets-read charges land between deferred adjacency completions), so
    /// non-associative addition leaves ulp-level drift — compared with a tight
    /// relative tolerance instead.
    fn assert_stats_equivalent(a: &RankStats, b: &RankStats) {
        let mut ai = a.clone();
        let mut bi = b.clone();
        for s in [&mut ai, &mut bi] {
            s.comm_time_ns = 0.0;
            s.local_time_ns = 0.0;
            s.overlapped_ns = 0.0;
            s.backoff_ns = 0.0;
        }
        assert_eq!(ai, bi, "integer statistics must match exactly");
        for (x, y, what) in [
            (a.comm_time_ns, b.comm_time_ns, "comm_time_ns"),
            (a.local_time_ns, b.local_time_ns, "local_time_ns"),
            (a.overlapped_ns, b.overlapped_ns, "overlapped_ns"),
            (a.backoff_ns, b.backoff_ns, "backoff_ns"),
        ] {
            assert!(
                (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0),
                "{what}: {x} vs {y}"
            );
        }
    }

    fn setup(ranks: usize) -> (PartitionedGraph, GraphWindows, DistConfig) {
        let g = RmatGenerator::paper(8, 8).generate_cleaned(5).into_csr();
        let pg = PartitionedGraph::from_global(&g, PartitionScheme::Block1D, ranks).unwrap();
        let windows = GraphWindows::build(&pg);
        let config = DistConfig {
            ranks,
            scheme: PartitionScheme::Block1D,
            method: IntersectMethod::Hybrid,
            cost_model: CostModel::Analytic,
            network: NetworkModel::aries(),
            double_buffering: false,
            cache: None,
            score_mode: crate::distributed::config::ScoreMode::Lru,
            retry: rmatc_rma::RetryPolicy::default(),
            faults: None,
            pipeline_depth: 1,
            intra_threads: 1,
            storage: GraphStorage::Plain,
        };
        (pg, windows, config)
    }

    #[test]
    fn pipelined_single_thread_is_bit_identical_to_sequential() {
        let (pg, windows, mut config) = setup(2);
        let baseline = run_worker(0, &pg, &windows, &config).unwrap();
        for depth in [2usize, 4, 16] {
            config.pipeline_depth = depth;
            assert!(config.overlapped());
            let piped = run_worker(0, &pg, &windows, &config).unwrap();
            assert_eq!(piped.local_triangles, baseline.local_triangles, "d={depth}");
            assert_stats_equivalent(&piped.rma, &baseline.rma);
            assert_eq!(piped.edges_processed, baseline.edges_processed);
            assert_eq!(piped.remote_edges, baseline.remote_edges);
        }
    }

    #[test]
    fn pipelined_cached_single_thread_matches_cache_stats_exactly() {
        let (pg, windows, mut config) = setup(2);
        config.cache = Some(CacheSpec::paper(1 << 20));
        config.score_mode = crate::distributed::config::ScoreMode::DegreeCentrality;
        let baseline = run_worker(0, &pg, &windows, &config).unwrap();
        config.pipeline_depth = 8;
        let piped = run_worker(0, &pg, &windows, &config).unwrap();
        assert_eq!(piped.local_triangles, baseline.local_triangles);
        assert_eq!(piped.adjacency_cache, baseline.adjacency_cache);
        assert_eq!(piped.offsets_cache, baseline.offsets_cache);
        assert_stats_equivalent(&piped.rma, &baseline.rma);
    }

    #[test]
    fn compressed_pipelined_cached_matches_sequential_exactly() {
        // The strong equivalence tier must survive compressed storage: one
        // thread, any depth, fault-free — bit-identical triangles, cache
        // statistics (including the logical/stored byte counters) and rank
        // statistics against the sequential compressed worker.
        let (pg, _plain, mut config) = setup(2);
        config.storage = GraphStorage::Compressed;
        config.cache = Some(CacheSpec::paper(1 << 20));
        config.score_mode = crate::distributed::config::ScoreMode::DegreeCentrality;
        let windows = GraphWindows::build_with(&pg, GraphStorage::Compressed);
        let baseline = run_worker(0, &pg, &windows, &config).unwrap();
        for depth in [2usize, 8] {
            config.pipeline_depth = depth;
            let piped = run_worker(0, &pg, &windows, &config).unwrap();
            assert_eq!(piped.local_triangles, baseline.local_triangles, "d={depth}");
            assert_eq!(piped.adjacency_cache, baseline.adjacency_cache, "d={depth}");
            assert_eq!(piped.offsets_cache, baseline.offsets_cache, "d={depth}");
            assert_stats_equivalent(&piped.rma, &baseline.rma);
        }
        let adj = baseline.adjacency_cache.expect("adjacency cache enabled");
        assert!(
            adj.logical_bytes > adj.stored_bytes && adj.stored_bytes > 0,
            "compressed misses must record a compression win"
        );
    }

    #[test]
    fn threaded_workers_match_scores_and_get_totals() {
        let (pg, windows, mut config) = setup(2);
        let baseline = run_worker(0, &pg, &windows, &config).unwrap();
        for threads in [2usize, 4] {
            config.intra_threads = threads;
            config.pipeline_depth = 4;
            let out = run_worker(0, &pg, &windows, &config).unwrap();
            assert_eq!(out.local_triangles, baseline.local_triangles, "t={threads}");
            // Non-cached: gets and bytes are per-edge deterministic however
            // the threads interleave.
            assert_eq!(out.rma.gets, baseline.rma.gets, "t={threads}");
            assert_eq!(out.rma.bytes, baseline.rma.bytes, "t={threads}");
            assert_eq!(out.edges_processed, baseline.edges_processed);
        }
    }

    #[test]
    fn chunking_covers_every_vertex_exactly_once() {
        for (n, workers) in [(0usize, 4usize), (1, 4), (7, 2), (8, 2), (9, 2), (5, 8)] {
            let w = worker_count(
                &{
                    let (_, _, mut c) = setup(2);
                    c.intra_threads = workers;
                    c
                },
                n,
            );
            let chunk = chunk_size(n, w);
            let mut covered = vec![false; n];
            for t in 0..w {
                let lo = (t * chunk).min(n);
                let hi = ((t + 1) * chunk).min(n);
                for slot in covered[lo..hi].iter_mut() {
                    assert!(!*slot, "n={n} workers={workers}: double cover");
                    *slot = true;
                }
            }
            assert!(covered.iter().all(|&c| c), "n={n} workers={workers}");
        }
    }
}
