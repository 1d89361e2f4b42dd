//! The resident [`QueryEngine`]: warm windows, per-rank endpoints and caches,
//! bounded admission, and the batch planner that sorts/dedups adjacency reads.

use super::stats::{LatencyPercentiles, ServiceStats};
use super::{Query, QueryAnswer, QueryId, ServiceConfig, ServiceError};
use crate::distributed::pipeline::rank_endpoint;
use crate::distributed::reader::{AdjCache, RowReader};
use crate::distributed::windows::GraphWindows;
use crate::intersect::{compressed_count_closing, CostModel, Intersector};
use crate::jaccard::{edge_similarity, top_k_edges, EdgeSimilarity};
use crate::lcc::lcc_from_triangles;
use crate::local::{compressed_count_closing_at, count_closing_at};
use rmatc_clampi::{CacheStats, RowRef};
use rmatc_graph::compressed::decoded_len;
use rmatc_graph::partition::PartitionedGraph;
use rmatc_graph::types::{Direction, VertexId};
use rmatc_graph::{CsrGraph, GraphError, GraphStorage};
use rmatc_rma::{Endpoint, RankStats, RmaError, ThreadTimer};
use std::collections::VecDeque;
use std::time::Instant;

/// One rank's resident serving state: a long-lived endpoint (its passive-target
/// epoch stays open for the engine's lifetime), the reader over the shared
/// windows, and the rank's CLaMPI cache, which stays warm across batches.
struct RankLane {
    ep: Endpoint,
    reader: RowReader,
    cache: AdjCache,
    /// Where the batch's faulted offsets spans land
    /// ([`RowReader::read_key_spans`]).
    words: Vec<u64>,
    /// Where the batch's faulted row spans land
    /// ([`RowReader::read_key_rows`]).
    landing: Vec<VertexId>,
}

/// The kernel/selection knobs every query runs with, mirroring the batch
/// pipelines: `intersector` is both the Jaccard pair kernel and the LCC
/// closing-count kernel.
struct Kernels {
    intersector: Intersector,
    storage: GraphStorage,
    direction: Direction,
}

/// An admitted query waiting in the bounded queue.
struct Pending {
    id: QueryId,
    query: Query,
    deadline_ns: Option<f64>,
    enqueued_vns: f64,
    enqueued_wall: Instant,
}

/// The engine's answer to one admitted query, with its end-to-end latency in
/// both timebases (measured at batch completion — queries in one batch window
/// complete together).
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// The ticket returned by [`QueryEngine::submit`].
    pub id: QueryId,
    /// The query this answers.
    pub query: Query,
    /// The answer, or the typed per-query failure.
    pub result: Result<QueryAnswer, ServiceError>,
    /// Wall-clock nanoseconds from submission to batch completion.
    pub wall_ns: u64,
    /// Virtual (modeled) nanoseconds from submission to batch completion —
    /// the same clock the network cost model and retry timeouts run on.
    pub virtual_ns: f64,
}

/// Per-batch read-plan accounting of one rank group.
#[derive(Default)]
struct GroupMetrics {
    row_refs: u64,
    unique_rows: u64,
}

/// A resident query service over a partitioned graph (see the
/// [module docs](crate::service)).
///
/// The engine owns the graph, its RMA windows, one endpoint per rank with the
/// access epoch held open, and warm CLaMPI caches that persist across batches
/// — the paper's cache hit rate compounds across the query stream instead of
/// resetting per run.
pub struct QueryEngine {
    pg: PartitionedGraph,
    lanes: Vec<RankLane>,
    kernels: Kernels,
    config: ServiceConfig,
    queue: VecDeque<Pending>,
    next_id: u64,
    // Admission/outcome counters; `ServiceStats::reconciles` ties them together.
    submitted: u64,
    accepted: u64,
    shed_overload: u64,
    rejected_invalid: u64,
    completed: u64,
    failed: u64,
    // Batch planner accounting.
    batches: u64,
    row_refs: u64,
    unique_rows: u64,
    // Measured compute time of all batch windows (thread CPU ns); together
    // with the endpoints' modeled communication time this is the engine's
    // virtual clock.
    compute_ns_total: u64,
    wall_latencies_ns: Vec<f64>,
    virtual_latencies_ns: Vec<f64>,
}

impl QueryEngine {
    /// Partitions `g` per the service's [`crate::DistConfig`] and builds the
    /// resident engine.
    ///
    /// # Errors
    ///
    /// [`GraphError::InvalidPartitionCount`] when the configured rank count
    /// is zero or exceeds the vertex count.
    pub fn new(g: &CsrGraph, config: ServiceConfig) -> Result<Self, GraphError> {
        let pg = PartitionedGraph::from_global(g, config.dist.scheme, config.dist.ranks)?;
        Ok(Self::from_partitioned(pg, config))
    }

    /// Builds the engine over an already partitioned graph (which it owns for
    /// its lifetime — the windows borrow into it logically, the service keeps
    /// them warm).
    pub fn from_partitioned(pg: PartitionedGraph, config: ServiceConfig) -> Self {
        let dist = &config.dist;
        let windows = GraphWindows::build_with(&pg, dist.storage);
        let lanes = (0..dist.ranks)
            .map(|rank| {
                let mut ep = rank_endpoint(rank, dist);
                // The resident epoch: opened once here, closed in Drop.
                ep.lock_all();
                let (reader, cache) = RowReader::new(&windows, dist, pg.global_vertex_count());
                RankLane {
                    ep,
                    reader,
                    cache,
                    words: Vec::new(),
                    landing: Vec::new(),
                }
            })
            .collect();
        let kernels = Kernels {
            intersector: Intersector::new(dist.method),
            storage: dist.storage,
            direction: pg.direction,
        };
        Self {
            pg,
            lanes,
            kernels,
            config,
            queue: VecDeque::new(),
            next_id: 0,
            submitted: 0,
            accepted: 0,
            shed_overload: 0,
            rejected_invalid: 0,
            completed: 0,
            failed: 0,
            batches: 0,
            row_refs: 0,
            unique_rows: 0,
            compute_ns_total: 0,
            wall_latencies_ns: Vec::new(),
            virtual_latencies_ns: Vec::new(),
        }
    }

    /// The resident partitioned graph.
    pub fn partitioned_graph(&self) -> &PartitionedGraph {
        &self.pg
    }

    /// The service configuration the engine was built with.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Current admission-queue depth.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// The engine's virtual clock, in nanoseconds: modeled communication and
    /// local-read time across all rank endpoints plus the measured compute
    /// time of every batch window so far. Deadlines and the reported virtual
    /// latencies run on this clock.
    pub fn virtual_now_ns(&self) -> f64 {
        let comm: f64 = self
            .lanes
            .iter()
            .map(|l| l.ep.stats().comm_time_ns + l.ep.stats().local_time_ns)
            .sum();
        comm + self.compute_ns_total as f64
    }

    /// Admits `query` with the configured default deadline.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Overloaded`] when the queue is full (the query is shed,
    /// never silently dropped), [`ServiceError::UnknownVertex`] when an
    /// endpoint is out of range.
    pub fn submit(&mut self, query: Query) -> Result<QueryId, ServiceError> {
        self.submit_with_deadline(query, self.config.default_deadline_ns)
    }

    /// Admits `query` with an explicit per-query deadline in virtual
    /// nanoseconds (`None` waits indefinitely). See [`QueryEngine::submit`]
    /// for the error contract.
    pub fn submit_with_deadline(
        &mut self,
        query: Query,
        deadline_ns: Option<f64>,
    ) -> Result<QueryId, ServiceError> {
        self.submitted += 1;
        let admitted = self.admit(query, deadline_ns);
        self.debug_assert_counters_reconcile();
        admitted
    }

    /// Validates `query` and queues it, or counts why not.
    fn admit(&mut self, query: Query, deadline_ns: Option<f64>) -> Result<QueryId, ServiceError> {
        if let Err(e) = self.validate(&query) {
            self.rejected_invalid += 1;
            return Err(e);
        }
        if self.queue.len() >= self.config.queue_capacity {
            self.shed_overload += 1;
            return Err(ServiceError::Overloaded {
                queue_depth: self.queue.len(),
                capacity: self.config.queue_capacity,
            });
        }
        let id = QueryId(self.next_id);
        self.next_id += 1;
        self.accepted += 1;
        self.queue.push_back(Pending {
            id,
            query,
            deadline_ns,
            enqueued_vns: self.virtual_now_ns(),
            enqueued_wall: Instant::now(),
        });
        Ok(id)
    }

    /// The two identities of [`ServiceStats::reconciles`], checked on the
    /// engine's own counters: `submitted = accepted + shed + rejected` and
    /// `accepted = completed + failed + queued`.
    fn debug_assert_counters_reconcile(&self) {
        debug_assert_eq!(
            self.submitted,
            self.accepted + self.shed_overload + self.rejected_invalid,
            "submitted = accepted + shed + rejected"
        );
        debug_assert_eq!(
            self.accepted,
            self.completed + self.failed + self.queue.len() as u64,
            "accepted = completed + failed + queued"
        );
    }

    /// Rejects queries naming vertices outside the resident graph.
    fn validate(&self, query: &Query) -> Result<(), ServiceError> {
        let n = self.pg.global_vertex_count();
        let check = |vertex: VertexId| {
            if (vertex as usize) < n {
                Ok(())
            } else {
                Err(ServiceError::UnknownVertex {
                    vertex,
                    vertex_count: n,
                })
            }
        };
        match *query {
            Query::CommonNeighbors { u, v } | Query::Jaccard { u, v } => {
                check(u)?;
                check(v)
            }
            Query::TopK { u, .. } => check(u),
            Query::LccOf { v } => check(v),
        }
    }

    /// Executes one batch window: drains up to [`ServiceConfig::batch_size`]
    /// queries, expires the ones whose deadline elapsed in the queue, plans
    /// and dedups the remote adjacency reads of the rest, fetches each unique
    /// row once (through the warm caches where enabled) and answers every
    /// query. Returns one [`QueryResponse`] per drained query, in admission
    /// order; an empty queue returns an empty vector.
    pub fn run_batch(&mut self) -> Vec<QueryResponse> {
        let take = self.queue.len().min(self.config.batch_size.max(1));
        if take == 0 {
            return Vec::new();
        }
        self.batches += 1;
        let batch: Vec<Pending> = self.queue.drain(..take).collect();
        let now_v = self.virtual_now_ns();
        let timer = ThreadTimer::start();

        let mut results: Vec<Option<Result<QueryAnswer, ServiceError>>> = vec![None; batch.len()];
        // Deadline pass: queries that already waited past their deadline are
        // expired with a typed error, not silently dropped.
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); self.pg.ranks()];
        for (i, p) in batch.iter().enumerate() {
            let waited = now_v - p.enqueued_vns;
            match p.deadline_ns {
                Some(deadline) if waited > deadline => {
                    results[i] = Some(Err(ServiceError::DeadlineExceeded {
                        waited_ns: waited,
                        deadline_ns: deadline,
                    }));
                }
                _ => {
                    let home = self.pg.partitioner.owner(p.query.home_vertex());
                    groups[home].push(i);
                }
            }
        }

        // Rank groups execute in rank order; within a group the read plan is
        // sorted and deduplicated before any fetch.
        for (rank, members) in groups.iter().enumerate() {
            if members.is_empty() {
                continue;
            }
            let (answers, metrics) = exec_rank_group(
                &self.pg,
                &mut self.lanes[rank],
                &self.kernels,
                &batch,
                members,
            );
            self.row_refs += metrics.row_refs;
            self.unique_rows += metrics.unique_rows;
            for (i, result) in answers {
                results[i] = Some(result);
            }
        }

        self.compute_ns_total += timer.elapsed_ns();
        let done_v = self.virtual_now_ns();
        let done_w = Instant::now();
        let responses = batch
            .into_iter()
            .zip(results)
            .map(|(p, result)| {
                let result = result.expect("every batch member got a result");
                match result {
                    Ok(_) => self.completed += 1,
                    Err(_) => self.failed += 1,
                }
                let wall_ns = done_w.duration_since(p.enqueued_wall).as_nanos() as u64;
                let virtual_ns = (done_v - p.enqueued_vns).max(0.0);
                self.wall_latencies_ns.push(wall_ns as f64);
                self.virtual_latencies_ns.push(virtual_ns);
                QueryResponse {
                    id: p.id,
                    query: p.query,
                    result,
                    wall_ns,
                    virtual_ns,
                }
            })
            .collect();
        self.debug_assert_counters_reconcile();
        responses
    }

    /// Runs batch windows until the queue is empty, returning every response.
    pub fn drain(&mut self) -> Vec<QueryResponse> {
        let mut out = Vec::new();
        while !self.queue.is_empty() {
            out.extend(self.run_batch());
        }
        out
    }

    /// Convenience for interactive use: admits `query` (no deadline) and runs
    /// batch windows until its response surfaces. Queued queries ahead of it
    /// are answered along the way (their responses are dropped here — use
    /// [`QueryEngine::run_batch`] to observe every response).
    ///
    /// # Errors
    ///
    /// Admission errors ([`ServiceError::Overloaded`],
    /// [`ServiceError::UnknownVertex`]) and the query's own execution failure
    /// ([`ServiceError::Read`]).
    pub fn oneshot(&mut self, query: Query) -> Result<QueryAnswer, ServiceError> {
        let id = self.submit_with_deadline(query, None)?;
        loop {
            let responses = self.run_batch();
            debug_assert!(!responses.is_empty(), "the queue holds our query");
            if let Some(r) = responses.into_iter().find(|r| r.id == id) {
                return r.result;
            }
        }
    }

    /// A point-in-time statistics snapshot (see [`ServiceStats`]).
    pub fn stats(&self) -> ServiceStats {
        let mut rma = RankStats::new(self.pg.ranks());
        let mut adjacency_cache: Option<CacheStats> = None;
        for lane in &self.lanes {
            rma.merge(lane.ep.stats());
            if let Some(cache) = &lane.cache {
                merge_into(&mut adjacency_cache, cache.stats());
            }
        }
        ServiceStats {
            submitted: self.submitted,
            accepted: self.accepted,
            shed_overload: self.shed_overload,
            rejected_invalid: self.rejected_invalid,
            completed: self.completed,
            failed: self.failed,
            queue_depth: self.queue.len(),
            batches: self.batches,
            row_reads: self.row_refs,
            unique_row_reads: self.unique_rows,
            virtual_now_ns: self.virtual_now_ns(),
            rma,
            offsets_cache: None,
            adjacency_cache,
            wall_latency: LatencyPercentiles::from_samples(&self.wall_latencies_ns),
            virtual_latency: LatencyPercentiles::from_samples(&self.virtual_latencies_ns),
        }
    }
}

impl Drop for QueryEngine {
    fn drop(&mut self) {
        // Close the resident access epochs (opened in the constructor).
        for lane in &mut self.lanes {
            lane.ep.unlock_all();
        }
    }
}

fn merge_into(acc: &mut Option<CacheStats>, stats: &CacheStats) {
    match acc {
        Some(merged) => merged.merge(stats),
        None => *acc = Some(stats.clone()),
    }
}

/// A query operand row: the home partition's plain CSR row, or a fetched /
/// cached remote row in the window's storage representation (plain vertex ids
/// or compressed words).
enum Side<'a> {
    Local(&'a [VertexId]),
    Stored(&'a [VertexId]),
}

/// Per-member outcomes of one rank group, keyed by batch index.
type GroupAnswers = Vec<(usize, Result<QueryAnswer, ServiceError>)>;

/// Executes the members of one batch assigned to `lane`'s rank: plans the
/// remote reads (sort + dedup), reads the offsets pairs of all of them by
/// span ([`RowReader::read_key_spans`]), fetches each unique row once, the
/// cache's misses by span ([`RowReader::read_key_rows`]), then answers each
/// query from the landed rows — the same operands and kernels the batch
/// pipelines use, so answers cannot diverge from them.
fn exec_rank_group(
    pg: &PartitionedGraph,
    lane: &mut RankLane,
    kernels: &Kernels,
    batch: &[Pending],
    members: &[usize],
) -> (GroupAnswers, GroupMetrics) {
    let rank = lane.ep.rank();
    let part = &pg.partitions[rank];

    // 1. Plan: every remote row the group needs, as (owner, local index).
    let mut keys: Vec<(usize, usize)> = Vec::new();
    let mut row_refs = 0u64;
    {
        let mut note = |v: VertexId| {
            let owner = pg.partitioner.owner(v);
            if owner != rank {
                row_refs += 1;
                keys.push((owner, pg.partitioner.local_index(v)));
            }
        };
        for &i in members {
            match batch[i].query {
                Query::CommonNeighbors { v, .. } | Query::Jaccard { v, .. } => note(v),
                Query::TopK { u, .. } => {
                    for &v in part.neighbours_of_local(pg.partitioner.local_index(u)) {
                        note(v);
                    }
                }
                Query::LccOf { v } => {
                    for &w in part.neighbours_of_local(pg.partitioner.local_index(v)) {
                        note(w);
                    }
                }
            }
        }
    }
    keys.sort_unstable();
    keys.dedup();
    let metrics = GroupMetrics {
        row_refs,
        unique_rows: keys.len() as u64,
    };

    // 2. Fetch each unique row exactly once, with the two-get protocol of
    // the batch pipelines, each get planned over the sorted keys: their
    // offsets pairs cost one get per span, then every key is probed in the
    // cache and the rows left to fetch cost one get per span of the same
    // join rule (compressed misses record logical vs stored bytes, keeping
    // the compression win measurable in [`ServiceStats`]). A fetch failure
    // (retry budget exhausted under an unrecoverable fault plan) is held per
    // key: a failed span of either get fails the keys inside it, and only
    // the queries referencing those rows fail.
    let RankLane {
        ep,
        reader,
        cache,
        words,
        landing,
    } = lane;
    let (mut pairs, mut rows) = (
        Vec::with_capacity(keys.len()),
        Vec::with_capacity(keys.len()),
    );
    reader.read_key_spans(ep, &keys, words, &mut pairs);
    reader.read_key_rows(ep, cache, &keys, &pairs, landing, &mut rows);

    // 3. Answer each query from the landed rows.
    let out = members
        .iter()
        .map(|&i| {
            let result = run_query(pg, part, rank, kernels, &keys, &rows, batch[i].query);
            (i, result)
        })
        .collect();
    (out, metrics)
}

/// Resolves the operand row of vertex `v` for a query executing on `rank`:
/// locally owned rows come straight from the partition (plain ids, exactly as
/// the batch workers read them), remote rows from the batch's landed set.
fn side_of<'a>(
    pg: &PartitionedGraph,
    part: &'a rmatc_graph::partition::RankPartition,
    rank: usize,
    keys: &[(usize, usize)],
    rows: &'a [Result<RowRef<'a, VertexId>, RmaError>],
    v: VertexId,
) -> Result<Side<'a>, ServiceError> {
    let owner = pg.partitioner.owner(v);
    let v_local = pg.partitioner.local_index(v);
    if owner == rank {
        return Ok(Side::Local(part.neighbours_of_local(v_local)));
    }
    let idx = keys
        .binary_search(&(owner, v_local))
        .expect("every referenced remote row was planned");
    match &rows[idx] {
        Ok(row) => Ok(Side::Stored(row.as_slice())),
        Err(e) => Err(ServiceError::Read(e.clone())),
    }
}

/// Common-neighbour count and degree of the `v` side of a pair query — the
/// exact kernel dispatch of the Jaccard pipeline's rank loop (plain rows run
/// `Intersector::count`, compressed remote rows the fused in-place kernel with
/// the degree taken from the decoded count word).
fn pair_common(kernels: &Kernels, adj_u: &[VertexId], side: &Side<'_>) -> (u64, usize) {
    match *side {
        Side::Local(adj_v) => (kernels.intersector.count(adj_u, adj_v), adj_v.len()),
        Side::Stored(row) => match kernels.storage {
            GraphStorage::Plain => (kernels.intersector.count(adj_u, row), row.len()),
            GraphStorage::Compressed => (
                compressed_count_closing(adj_u, row, None, &CostModel::Analytic),
                decoded_len(row),
            ),
        },
    }
}

/// Closing-count contribution of the edge `(v, w)` for an LCC query — the
/// exact kernel dispatch of the LCC worker (`count_closing_at` over plain
/// rows, the fused compressed variant over compressed remote rows).
fn lcc_closing(
    kernels: &Kernels,
    adj_v: &[VertexId],
    side: &Side<'_>,
    w: VertexId,
    neighbour_idx: usize,
) -> u64 {
    match *side {
        Side::Local(adj_w) => count_closing_at(
            kernels.direction,
            adj_v,
            adj_w,
            w,
            neighbour_idx,
            &kernels.intersector,
        ),
        Side::Stored(row) => match kernels.storage {
            GraphStorage::Plain => count_closing_at(
                kernels.direction,
                adj_v,
                row,
                w,
                neighbour_idx,
                &kernels.intersector,
            ),
            GraphStorage::Compressed => {
                compressed_count_closing_at(kernels.direction, adj_v, row, w, neighbour_idx)
            }
        },
    }
}

/// Answers one query from the batch's landed rows.
fn run_query(
    pg: &PartitionedGraph,
    part: &rmatc_graph::partition::RankPartition,
    rank: usize,
    kernels: &Kernels,
    keys: &[(usize, usize)],
    rows: &[Result<RowRef<'_, VertexId>, RmaError>],
    query: Query,
) -> Result<QueryAnswer, ServiceError> {
    match query {
        Query::CommonNeighbors { u, v } => {
            let adj_u = part.neighbours_of_local(pg.partitioner.local_index(u));
            let side = side_of(pg, part, rank, keys, rows, v)?;
            let (common, _) = pair_common(kernels, adj_u, &side);
            Ok(QueryAnswer::CommonNeighbors(common))
        }
        Query::Jaccard { u, v } => {
            let adj_u = part.neighbours_of_local(pg.partitioner.local_index(u));
            let side = side_of(pg, part, rank, keys, rows, v)?;
            let (common, degree_v) = pair_common(kernels, adj_u, &side);
            Ok(QueryAnswer::Jaccard(edge_similarity(
                u,
                v,
                adj_u.len(),
                degree_v,
                common,
            )))
        }
        Query::TopK { u, k } => {
            let adj_u = part.neighbours_of_local(pg.partitioner.local_index(u));
            let mut edges: Vec<EdgeSimilarity> = Vec::with_capacity(adj_u.len());
            for &v in adj_u {
                let side = side_of(pg, part, rank, keys, rows, v)?;
                let (common, degree_v) = pair_common(kernels, adj_u, &side);
                edges.push(edge_similarity(u, v, adj_u.len(), degree_v, common));
            }
            Ok(QueryAnswer::TopK(top_k_edges(&edges, k)))
        }
        Query::LccOf { v } => {
            let adj_v = part.neighbours_of_local(pg.partitioner.local_index(v));
            let mut triangles = 0u64;
            for (neighbour_idx, &w) in adj_v.iter().enumerate() {
                let side = side_of(pg, part, rank, keys, rows, w)?;
                triangles += lcc_closing(kernels, adj_v, &side, w, neighbour_idx);
            }
            Ok(QueryAnswer::Lcc(lcc_from_triangles(
                kernels.direction,
                adj_v.len() as u32,
                triangles,
            )))
        }
    }
}
