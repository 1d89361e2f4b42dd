//! The resident [`QueryEngine`]: warm windows, per-rank endpoints and caches,
//! bounded admission, and the batch planner that sorts/dedups adjacency reads.

use super::stats::{LatencyPercentiles, ServiceStats};
use super::{Query, QueryAnswer, QueryId, ServiceConfig, ServiceError};
use crate::distributed::pipeline::rank_endpoint;
use crate::distributed::reader::{AdjCache, Edge, EdgeOp, OwnerOffsets, RowReader};
use crate::distributed::windows::GraphWindows;
use crate::distributed::worker::ClosingCount;
use crate::intersect::{with_marked, SourceMarks};
use crate::jaccard::{top_k_edges, JaccardPair};
use crate::lcc::lcc_from_triangles;
use rmatc_clampi::{CacheStats, RowRef};
use rmatc_graph::partition::PartitionedGraph;
use rmatc_graph::types::VertexId;
use rmatc_graph::{CsrGraph, GraphError};
use rmatc_rma::{Endpoint, RankStats, RmaError, ThreadTimer};
use std::collections::VecDeque;
use std::time::Instant;

/// One rank's resident serving state: a long-lived endpoint (its passive-target
/// epoch stays open for the engine's lifetime), the reader over the shared
/// windows, and the rank's CLaMPI cache and offsets copies, which stay warm
/// across batches.
struct RankLane {
    ep: Endpoint,
    reader: RowReader,
    cache: AdjCache,
    /// The other owners' offsets windows, each read once for the engine's
    /// life ([`RowReader::pair`]).
    offsets: OwnerOffsets,
    /// Where the batch's faulted row spans land
    /// ([`RowReader::read_key_rows`]).
    landing: Vec<VertexId>,
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
    /// The batch pipelines' per-edge operations: `LccOf` folds
    /// [`crate::DistLcc`]'s, every other query [`crate::DistJaccard`]'s.
    closing: ClosingCount,
    pair: JaccardPair,
    /// The home vertex's row as a bitset while an `LccOf` query folds
    /// `closing`, when it probes one ([`EdgeOp::marks`]); the engine runs
    /// on one thread, so one serves every lane.
    marks: Option<SourceMarks>,
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
                    offsets: OwnerOffsets::new(dist.ranks),
                    landing: Vec::new(),
                }
            })
            .collect();
        let closing = ClosingCount::new(dist, pg.direction, dist.storage);
        Self {
            marks: closing.marks(),
            closing,
            pair: JaccardPair::new(dist, dist.storage),
            pg,
            lanes,
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

    /// Admits `query` without a deadline: it waits in the queue until a batch
    /// drains it.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Overloaded`] when the queue is full (the query is shed,
    /// never silently dropped), [`ServiceError::UnknownVertex`] when an
    /// endpoint is out of range.
    pub fn submit(&mut self, query: Query) -> Result<QueryId, ServiceError> {
        self.submit_with_deadline(query, None)
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
                &self.closing,
                &self.pair,
                &mut self.marks,
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
        let id = self.submit(query)?;
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
        for lane in &self.lanes {
            rma.merge(lane.ep.stats());
        }
        let caches = self.lanes.iter().filter_map(|lane| lane.cache.as_ref());
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
            adjacency_cache: CacheStats::merged(caches.map(|cache| cache.stats())),
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

/// Per-member outcomes of one rank group, keyed by batch index.
type GroupAnswers = Vec<(usize, Result<QueryAnswer, ServiceError>)>;

/// The edges one query intersects: its home vertex, the home's plain
/// partition row, and the vertices whose rows it reads, in edge order.
type QueryEdges<'a> = (VertexId, &'a [VertexId], &'a [VertexId]);

/// The edges of `query` ([`QueryEdges`]): a pair query reads its other
/// endpoint's row, `TopK` and `LccOf` every neighbour's.
fn query_edges<'a>(pg: &'a PartitionedGraph, query: &'a Query) -> QueryEdges<'a> {
    let home = query.home_vertex();
    let part = &pg.partitions[pg.partitioner.owner(home)];
    let adj = part.neighbours_of_local(pg.partitioner.local_index(home));
    let targets = match query {
        Query::CommonNeighbors { v, .. } | Query::Jaccard { v, .. } => std::slice::from_ref(v),
        Query::TopK { .. } | Query::LccOf { .. } => adj,
    };
    (home, adj, targets)
}

/// Executes the members of one batch assigned to `lane`'s rank: plans the
/// remote reads (sort + dedup), fetches each unique row once, its pair from
/// the lane's offsets copies and the cache's misses by span
/// ([`RowReader::read_key_rows`]), then answers each
/// query by folding the batch pipelines' own per-edge operations over the
/// landed rows, so answers cannot diverge from theirs.
fn exec_rank_group(
    pg: &PartitionedGraph,
    lane: &mut RankLane,
    closing: &ClosingCount,
    pair: &JaccardPair,
    marks: &mut Option<SourceMarks>,
    batch: &[Pending],
    members: &[usize],
) -> (GroupAnswers, GroupMetrics) {
    let rank = lane.ep.rank();

    // 1. Plan: every remote row the group needs, as (owner, local index).
    let mut keys: Vec<(usize, usize)> = Vec::new();
    for &i in members {
        let (_, _, targets) = query_edges(pg, &batch[i].query);
        for &v in targets {
            let owner = pg.partitioner.owner(v);
            if owner != rank {
                keys.push((owner, pg.partitioner.local_index(v)));
            }
        }
    }
    let row_refs = keys.len() as u64;
    keys.sort_unstable();
    keys.dedup();
    let metrics = GroupMetrics {
        row_refs,
        unique_rows: keys.len() as u64,
    };

    // 2. Fetch each unique row exactly once, with the two-get protocol of
    // the batch pipelines: each key's pair comes from the lane's copy of its
    // owner's offsets window (read with one get the first time the lane
    // needs that owner), then every key is probed in the cache and the rows
    // left to fetch cost one get per α+β-planned span (compressed misses
    // record logical vs stored bytes, keeping the compression win measurable
    // in [`ServiceStats`]). A fetch failure (retry budget exhausted under an
    // unrecoverable fault plan) is held per key: a failed window read fails
    // the keys of its owner, a failed row span the keys inside it, and only
    // the queries referencing those rows fail.
    let RankLane {
        ep,
        reader,
        cache,
        offsets,
        landing,
    } = lane;
    let mut rows = Vec::with_capacity(keys.len());
    reader.read_key_rows(ep, cache, offsets, &keys, landing, &mut rows);

    // 3. Answer each query from the landed rows.
    let landed = Landed {
        pg,
        rank,
        keys: &keys,
        rows: &rows,
    };
    let out = members
        .iter()
        .map(|&i| {
            let query = &batch[i].query;
            let edges = query_edges(pg, query);
            let (_, adj_u, targets) = edges;
            let similarities = || landed.fold(pair, None, Vec::with_capacity(targets.len()), edges);
            let answer = match *query {
                Query::CommonNeighbors { .. } => {
                    similarities().map(|s| QueryAnswer::CommonNeighbors(s[0].common_neighbours))
                }
                Query::Jaccard { .. } => similarities().map(|s| QueryAnswer::Jaccard(s[0])),
                Query::TopK { k, .. } => {
                    similarities().map(|s| QueryAnswer::TopK(top_k_edges(&s, k)))
                }
                Query::LccOf { .. } => {
                    let t = landed.fold(closing, marks.as_mut(), vec![0], edges);
                    let degree = adj_u.len() as u32;
                    t.map(|t| QueryAnswer::Lcc(lcc_from_triangles(pg.direction, degree, t[0])))
                }
            };
            (i, answer)
        })
        .collect();
    (out, metrics)
}

/// Where a rank group's rows are: the rank's own partition, and the rows the
/// batch landed for its sorted keys.
struct Landed<'a, 'r> {
    pg: &'a PartitionedGraph,
    rank: usize,
    keys: &'a [(usize, usize)],
    rows: &'a [Result<RowRef<'r, VertexId>, RmaError>],
}

impl Landed<'_, '_> {
    /// Folds `op` over the edges `(source, targets[k])` into `out`, computing
    /// each edge where its row is, as the edge loop does: [`EdgeOp::local`]
    /// on the rank's own plain row, [`EdgeOp::stored`] on a landed one, with
    /// `adj_u` marked in `marks` while they run. A failed read fails the
    /// query.
    fn fold<O: EdgeOp>(
        &self,
        op: &O,
        marks: Option<&mut SourceMarks>,
        mut out: Vec<O::Item>,
        (source, adj_u, targets): QueryEdges<'_>,
    ) -> Result<Vec<O::Item>, ServiceError> {
        with_marked(marks, adj_u, |marks| {
            for (k, &v) in targets.iter().enumerate() {
                let edge = Edge {
                    slot: 0,
                    source,
                    adj_u,
                    v,
                    k,
                    marks,
                };
                let (owner, v_local) = (
                    self.pg.partitioner.owner(v),
                    self.pg.partitioner.local_index(v),
                );
                let value = if owner == self.rank {
                    op.local(
                        &edge,
                        self.pg.partitions[owner].neighbours_of_local(v_local),
                    )
                } else {
                    let idx = self
                        .keys
                        .binary_search(&(owner, v_local))
                        .expect("every referenced remote row was planned");
                    let row = self.rows[idx]
                        .as_ref()
                        .map_err(|e| ServiceError::Read(e.clone()))?;
                    op.stored(&edge, row.as_slice())
                };
                op.fold(&mut out, &edge, value);
            }
            Ok(out)
        })
    }
}
