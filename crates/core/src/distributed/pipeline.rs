//! The edge loop of Algorithm 3 — the one driver behind [`crate::DistLcc`] and
//! [`crate::DistJaccard`]: iterate over a rank's locally owned vertices and
//! their edges, read remote adjacency rows with the two-get protocol
//! ([`super::reader::RowReader`]), apply a per-edge operation
//! ([`EdgeOp`]) and fold the results — with no synchronization with other
//! ranks. It owns everything that is the same for every operation: the
//! rank's cache, its endpoint and fault injector, the access epoch, the
//! strided [`ComputeMeter`], the FIFO of charges in flight and the
//! close-and-surface error path. A rank runs on one thread, which owns its
//! endpoint and its cache; ranks are the only parallelism (the paper runs
//! one MPI process per 1D block).
//!
//! One knob shapes the loop, and its default is the paper's classic loop
//! rather than a different code path: the **pipeline depth**. The reader
//! hands every edge's value back finished ([`RowReader::start`]), and the
//! loop folds it at once; what a fault-free transfer still owes is its cost
//! ([`PendingCharge`]). The rank keeps up to
//! [`DistConfig::effective_pipeline_depth`] of those charges in flight in a
//! FIFO: *push the new charge, then wait the oldest while `len ≥ depth`*.
//! At depth 1 that is issue-wait-compute by construction; at depth `D` the
//! get of edge *i+D−1* is issued before edge *i* completes, so the modeled
//! (and, with [`rmatc_rma::NetworkModel::with_injection`], real) transfer
//! latency hides behind the issue-side compute. Offsets reads stay
//! synchronous — their result gates the adjacency get, exactly the
//! dependency the two-get protocol imposes. Each source first reads the
//! pairs of all its remote neighbours in α+β-planned spans
//! ([`RowReader::read_spans`]), so its edges start from known pairs. The
//! paper's non-cached baseline reads one pair per remote edge instead; here
//! the cached and non-cached loops differ only in `C_adj` (the reasons are
//! in [`super::reader`]).
//!
//! # Equivalence across depths
//!
//! At any depth and without faults, scores, cache statistics and integer
//! rank statistics are bit-identical to depth 1 (and depth 1 is
//! bit-identical, `f64` charges included, to a loop that materializes every
//! row — `tests/zero_copy.rs`): the reader computes values and admits misses
//! at issue time, so the cache performs the same operations in the same
//! order, while the FIFO charges completion costs in issue order. Under fault
//! injection every remote read is synchronous and self-healing, so the
//! reader never admits (or trusts a value from) unverified data and nothing
//! is in flight; faulted runs are compared on scores against the fault-free
//! baseline, not on statistics. Only a faulted read can fail, so on an
//! unrecoverable error the FIFO is empty: the rank closes its epoch and
//! surfaces the error.

use super::config::DistConfig;
use super::reader::{AdjCache, Edge, EdgeOp, OffsetSpans, RowReader};
use super::windows::GraphWindows;
use rmatc_clampi::CacheStats;
use rmatc_graph::partition::PartitionedGraph;
use rmatc_rma::{ComputeMeter, Endpoint, PendingCharge, RankStats, RmaError, ThreadTimer};
use std::collections::VecDeque;

/// Everything the edge loop produces for one rank.
#[derive(Debug)]
pub(crate) struct RankOutput<T> {
    /// The folded per-edge results ([`EdgeOp::output`]).
    pub items: Vec<T>,
    /// RMA statistics.
    pub rma: RankStats,
    /// `C_adj` statistics, when that cache is enabled.
    pub adjacency_cache: Option<CacheStats>,
    /// Thread-CPU time of the loop.
    pub compute_ns: u64,
    /// Directed edges processed.
    pub edges_processed: u64,
    /// Edges whose destination lived on another rank.
    pub remote_edges: u64,
}

/// The endpoint of `rank` under `config`: network model, retry policy and —
/// when a fault plan is set — the rank's injector, seeded per rank, so each
/// rank owns a deterministic event stream.
pub(crate) fn rank_endpoint(rank: usize, config: &DistConfig) -> Endpoint {
    let ep = Endpoint::new(rank, config.ranks, config.network).with_retry(config.retry);
    match config.faults {
        Some(plan) => ep.with_faults(plan.injector(rank)),
        None => ep,
    }
}

/// Runs the edge loop of `rank` with the per-edge operation `op`: walks the
/// rank's local vertices inside one passive-target access epoch — opened
/// once, closed after the full computation, no synchronization with any
/// other rank in between.
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
    let (reader, mut cache) = RowReader::new(windows, config, pg.global_vertex_count());
    let mut ep = rank_endpoint(rank, config);
    let mut out = RankOutput {
        items: op.output(&pg.partitions[rank]),
        rma: RankStats::default(),
        adjacency_cache: None,
        compute_ns: 0,
        edges_processed: 0,
        remote_edges: 0,
    };
    ep.lock_all();
    let timer = ThreadTimer::start();
    match edge_loop(
        rank, pg, &reader, &mut cache, config, op, &mut ep, &mut out, timer,
    ) {
        Ok(()) => {
            out.compute_ns = timer.elapsed_ns();
            ep.unlock_all();
            out.rma = ep.into_stats();
            out.adjacency_cache = cache.map(|c| c.stats().clone());
            Ok(out)
        }
        Err(e) => {
            // Only a faulted read fails, and a faulted read is never left in
            // flight: the epoch's un-flushed-gets assert checks exactly that.
            ep.unlock_all();
            Err(e)
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn edge_loop<O: EdgeOp>(
    rank: usize,
    pg: &PartitionedGraph,
    reader: &RowReader,
    cache: &mut AdjCache,
    config: &DistConfig,
    op: &O,
    ep: &mut Endpoint,
    out: &mut RankOutput<O::Item>,
    timer: ThreadTimer,
) -> Result<(), RmaError> {
    let part = &pg.partitions[rank];
    let depth = config.effective_pipeline_depth();
    let mut fifo = VecDeque::with_capacity(depth);
    // Double buffering: the computation of one edge overlaps the communication
    // of the next, so the rank's compute is banked as overlap credit for the
    // endpoint's later get completions. The credit covers everything the
    // rank does — local intersections, cache probes, landing copies — since
    // all of it is CPU work a prefetching double buffer hides behind in-flight
    // gets; the modeled communication cost is virtual time and never part of
    // it. The meter reads the thread clock once per stride of edges: the read
    // is a syscall that costs more than one protocol round.
    let mut meter = config.double_buffering.then(|| ComputeMeter::new(timer));
    // Where the faulted adjacency reads nobody retains land — non-cached
    // protocol rounds and quarantine-bypass reads: the paper's double
    // buffer. It grows to the longest row read and is then reused
    // allocation-free. Fault-free, those reads are read in place.
    let mut landing = Vec::new();
    // The offsets pairs of the source's remote neighbours, read by span.
    let mut spans = OffsetSpans::default();
    for local_idx in 0..part.local_vertex_count() {
        let adj_u = part.neighbours_of_local(local_idx);
        let source = part.global_ids[local_idx];
        reader.read_spans(ep, &pg.partitioner, adj_u, &mut spans)?;
        // `v` walks `adj_u` in sorted order, so `k` locates it for the
        // operation in O(1) (the upper-triangle suffix is `adj_u[k + 1..]`).
        for (k, &v) in adj_u.iter().enumerate() {
            out.edges_processed += 1;
            if let Some(meter) = meter.as_mut() {
                meter.tick(ep);
            }
            let edge = Edge {
                slot: local_idx,
                source,
                adj_u,
                v,
                k,
            };
            let owner = pg.partitioner.owner(v);
            if owner == rank {
                // Neighbour owned locally: its row is in this rank's partition.
                let adj_v = part.neighbours_of_local(pg.partitioner.local_index(v));
                let value = op.local(&edge, adj_v);
                op.fold(&mut out.items, &edge, value);
                continue;
            }
            out.remote_edges += 1;
            let row = spans.pair(k);
            let (value, charge) = reader.start(ep, cache, owner, row, &mut landing, op, &edge)?;
            op.fold(&mut out.items, &edge, value);
            if let Some(charge) = charge {
                fifo.push_back(charge);
                drain(&mut fifo, depth - 1, ep);
            }
        }
    }
    if let Some(meter) = meter.as_mut() {
        // The tail since the last stride hides the drain's completions.
        meter.bank(ep);
    }
    drain(&mut fifo, 0, ep);
    Ok(())
}

/// Waits the oldest charges in flight, in issue order, until at most `keep`
/// remain.
fn drain(fifo: &mut VecDeque<PendingCharge>, keep: usize, ep: &mut Endpoint) {
    while fifo.len() > keep {
        fifo.pop_front().expect("the FIFO is non-empty").wait(ep);
    }
}
