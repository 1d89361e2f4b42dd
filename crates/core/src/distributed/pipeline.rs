//! The edge loop of Algorithm 3 — the one driver behind [`crate::DistLcc`] and
//! [`crate::DistJaccard`]: iterate over a rank's locally owned vertices and
//! their edges, read remote adjacency rows with the two-get protocol
//! ([`super::reader::RowReader`]), apply a per-edge operation
//! ([`EdgeOp`]) and fold the results — with no synchronization with other
//! ranks. It owns everything that is the same for every operation: cache
//! resolution, endpoints and their fault injectors, the access epoch, the
//! strided [`ComputeMeter`], the in-flight FIFO, the abandon-and-close error
//! path, chunking, and the merge of per-thread statistics.
//!
//! Two orthogonal knobs shape the loop, and their defaults are the paper's
//! classic loop rather than a different code path:
//!
//! * **Pipeline depth** — each worker thread keeps up to
//!   [`DistConfig::effective_pipeline_depth`] adjacency gets in flight in a
//!   FIFO: *push the new get, then complete the oldest while `len ≥ depth`*.
//!   At depth 1 that is issue-wait-compute by construction; at depth `D` the
//!   get of edge *i+D−1* is issued before edge *i* completes, so the modeled
//!   (and, with [`rmatc_rma::NetworkModel::with_injection`], real) transfer
//!   latency hides behind the issue-side compute. Offsets reads stay
//!   synchronous — their result gates the adjacency get, exactly the
//!   dependency the two-get protocol imposes. Non-cached, each remote edge
//!   reads its own two-word pair (Algorithm 3 verbatim, the paper's
//!   baseline); cached ([`DistConfig::cache`] is `Some`), each source first
//!   reads the pairs of all its remote neighbours in α+β-planned spans
//!   ([`RowReader::read_spans`]), so its edges start from known pairs.
//! * **Intra-rank threads** — the rank's vertex block is split into
//!   [`DistConfig::effective_intra_threads`] contiguous chunks, each run by a
//!   task on the process-wide work-stealing pool with its *own*
//!   [`Endpoint`] (own statistics, own deterministic fault stream), all
//!   sharing one reader whose cache is lock-sharded, one shard per thread.
//!   A shard is held only for a probe or an admit, never across a get, so
//!   reads on different shards proceed in parallel; two threads that miss
//!   the same row at once both fetch it. One thread runs inline on the
//!   rank's own thread.
//!
//! # Equivalence across depths and threads
//!
//! With one thread, any depth and no faults, scores, cache statistics and
//! integer rank statistics are bit-identical to depth 1 (and depth 1 is
//! bit-identical, `f64` charges included, to a loop that materializes every
//! row — `tests/zero_copy.rs`): the reader computes values and admits misses
//! at issue time, so the cache performs the same operations in the same
//! order, while the FIFO charges completion costs in issue order. Under fault
//! injection the reader never admits (or trusts a value from) unverified
//! data; faulted runs are compared on scores against the fault-free
//! baseline, not on statistics. On an unrecoverable error the thread
//! abandons its in-flight gets ([`Endpoint::abandon_outstanding`]), closes
//! its epoch and surfaces the error; the lowest thread index wins, keeping
//! the surfaced error deterministic (the same rule `run_ranks` applies across
//! ranks).

use super::config::DistConfig;
use super::reader::{Deferred, Edge, EdgeOp, OffsetSpans, RowReader, Started};
use super::windows::GraphWindows;
use rayon::prelude::*;
use rmatc_clampi::CacheStats;
use rmatc_graph::partition::PartitionedGraph;
use rmatc_rma::{ComputeMeter, Endpoint, RankStats, RmaError, ThreadTimer};
use std::collections::VecDeque;
use std::ops::Range;

/// Everything the edge loop produces for one rank (or, internally, for one
/// worker thread's chunk of it).
#[derive(Debug)]
pub(crate) struct RankOutput<T> {
    /// The folded per-edge results, in vertex-chunk order.
    pub items: Vec<T>,
    /// RMA statistics, merged across the rank's threads.
    pub rma: RankStats,
    /// `C_adj` statistics, when that cache is enabled.
    pub adjacency_cache: Option<CacheStats>,
    /// Thread-CPU time of the loop: the slowest thread, not the sum — the
    /// rank's threads run concurrently.
    pub compute_ns: u64,
    /// Directed edges processed.
    pub edges_processed: u64,
    /// Edges whose destination lived on another rank.
    pub remote_edges: u64,
}

/// The endpoint of `rank` under `config`: network model, retry policy and —
/// when a fault plan is set — the rank's injector. Every thread of a rank
/// gets the same per-rank seed, so each owns a deterministic event stream
/// independent of how the threads interleave (streams advance per event, per
/// endpoint).
pub(crate) fn rank_endpoint(rank: usize, config: &DistConfig) -> Endpoint {
    let ep = Endpoint::new(rank, config.ranks, config.network).with_retry(config.retry);
    match config.faults {
        Some(plan) => ep.with_faults(plan.injector(rank)),
        None => ep,
    }
}

/// Runs the edge loop of `rank` with the per-edge operation `op`.
///
/// Remote reads go through the self-healing path: transient failures,
/// corrupted transfers and stragglers past the timeout retry up to
/// [`DistConfig::retry`]'s budget. `Err` means the budget was exhausted —
/// only reachable under an unrecoverable fault plan.
pub(crate) fn run_rank<O: EdgeOp>(
    rank: usize,
    pg: &PartitionedGraph,
    windows: &GraphWindows,
    config: &DistConfig,
    op: &O,
) -> Result<RankOutput<O::Item>, RmaError> {
    let n_local = pg.partitions[rank].local_vertex_count();
    // An idle thread would only skew fault streams: clamp to the vertex count.
    let workers = config.effective_intra_threads().min(n_local).max(1);
    let chunk = n_local.div_ceil(workers).max(1);
    let reader = RowReader::new(windows, config, pg.global_vertex_count(), workers);

    let threads: Vec<Result<RankOutput<O::Item>, RmaError>> = (0..workers)
        .into_par_iter()
        .map(|t| {
            let range = (t * chunk).min(n_local)..((t + 1) * chunk).min(n_local);
            run_thread(rank, range, pg, &reader, config, op)
        })
        .collect();
    // Lowest failing thread wins: index order, not completion order, keeps
    // the surfaced error deterministic (the rule `run_ranks` applies too).
    let mut threads = threads
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?
        .into_iter();
    let mut out = threads.next().expect("a rank runs at least one thread");
    for thread in threads {
        out.items.extend(thread.items);
        out.rma.merge(&thread.rma);
        out.compute_ns = out.compute_ns.max(thread.compute_ns);
        out.edges_processed += thread.edges_processed;
        out.remote_edges += thread.remote_edges;
    }
    out.adjacency_cache = reader.adjacency_cache_stats();
    Ok(out)
}

/// An adjacency get in flight with the edge it belongs to.
type InFlight<'a, V> = VecDeque<(Deferred<V>, Edge<'a>)>;

/// One worker thread: walks its contiguous vertex chunk inside one
/// passive-target access epoch — opened once, closed after the full
/// computation, no synchronization with any other rank in between.
fn run_thread<O: EdgeOp>(
    rank: usize,
    range: Range<usize>,
    pg: &PartitionedGraph,
    reader: &RowReader,
    config: &DistConfig,
    op: &O,
) -> Result<RankOutput<O::Item>, RmaError> {
    let mut ep = rank_endpoint(rank, config);
    let mut out = RankOutput {
        items: op.output(range.len()),
        rma: RankStats::default(),
        adjacency_cache: None,
        compute_ns: 0,
        edges_processed: 0,
        remote_edges: 0,
    };
    ep.lock_all();
    let timer = ThreadTimer::start();
    match edge_loop(
        rank, range, pg, reader, config, op, &mut ep, &mut out, timer,
    ) {
        Ok(()) => {
            out.compute_ns = timer.elapsed_ns();
            ep.unlock_all();
            out.rma = ep.into_stats();
            Ok(out)
        }
        Err(e) => {
            // The loop dropped its in-flight gets: charge their cost as a
            // final flush, so the epoch closes cleanly instead of asserting
            // about abandoned gets.
            ep.abandon_outstanding();
            ep.unlock_all();
            Err(e)
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn edge_loop<'a, O: EdgeOp>(
    rank: usize,
    range: Range<usize>,
    pg: &'a PartitionedGraph,
    reader: &RowReader,
    config: &DistConfig,
    op: &O,
    ep: &mut Endpoint,
    out: &mut RankOutput<O::Item>,
    timer: ThreadTimer,
) -> Result<(), RmaError> {
    let part = &pg.partitions[rank];
    let depth = config.effective_pipeline_depth();
    let mut fifo: InFlight<'a, O::Value> = VecDeque::with_capacity(depth);
    // Double buffering: the computation of one edge overlaps the communication
    // of the next, so the thread's compute is banked as overlap credit for the
    // endpoint's later get completions. The credit covers everything the
    // thread does — local intersections, cache probes, landing copies — since
    // all of it is CPU work a prefetching double buffer hides behind in-flight
    // gets; the modeled communication cost is virtual time and never part of
    // it. The meter reads the thread clock once per stride of edges: the read
    // is a syscall that costs more than one protocol round.
    let mut meter = config.double_buffering.then(|| ComputeMeter::new(timer));
    // Where the adjacency reads nobody retains land — non-cached protocol
    // rounds and quarantine-bypass reads: the paper's double buffer. It grows
    // to the longest row read and is then reused allocation-free.
    let mut landing = Vec::new();
    // The cached configuration's offsets pairs, read per source by span.
    let mut spans = config.cache.map(|_| OffsetSpans::default());
    for local_idx in range.clone() {
        let adj_u = part.neighbours_of_local(local_idx);
        let source = part.global_ids[local_idx];
        if let Some(spans) = spans.as_mut() {
            reader.read_spans(ep, &pg.partitioner, adj_u, spans)?;
        }
        // `v` walks `adj_u` in sorted order, so `k` locates it for the
        // operation in O(1) (the upper-triangle suffix is `adj_u[k + 1..]`).
        for (k, &v) in adj_u.iter().enumerate() {
            out.edges_processed += 1;
            if let Some(meter) = meter.as_mut() {
                meter.tick(ep);
            }
            let edge = Edge {
                slot: local_idx - range.start,
                source,
                adj_u,
                v,
                k,
            };
            let owner = pg.partitioner.owner(v);
            let v_local = pg.partitioner.local_index(v);
            if owner == rank {
                // Neighbour owned locally: its row is in this rank's partition.
                let value = op.local(&edge, part.neighbours_of_local(v_local));
                op.fold(&mut out.items, &edge, value);
                continue;
            }
            out.remote_edges += 1;
            let row = match spans.as_ref() {
                Some(spans) => spans.pair(k),
                None => reader.read_offsets(ep, owner, v_local)?,
            };
            match reader.start(ep, owner, row, &mut landing, op, &edge)? {
                Started::Immediate(value) => op.fold(&mut out.items, &edge, value),
                Started::Deferred(deferred) => {
                    fifo.push_back((deferred, edge));
                    drain(&mut fifo, depth - 1, reader, ep, op, &mut out.items)?;
                }
            }
        }
    }
    if let Some(meter) = meter.as_mut() {
        // The tail since the last stride hides the drain's completions.
        meter.bank(ep);
    }
    drain(&mut fifo, 0, reader, ep, op, &mut out.items)
}

/// Completes the oldest in-flight gets, in issue order, until at most `keep`
/// remain.
fn drain<O: EdgeOp>(
    fifo: &mut InFlight<'_, O::Value>,
    keep: usize,
    reader: &RowReader,
    ep: &mut Endpoint,
    op: &O,
    items: &mut Vec<O::Item>,
) -> Result<(), RmaError> {
    while fifo.len() > keep {
        let (deferred, edge) = fifo.pop_front().expect("the FIFO is non-empty");
        let value = reader.complete(ep, deferred, op, &edge)?;
        op.fold(items, &edge, value);
    }
    Ok(())
}
