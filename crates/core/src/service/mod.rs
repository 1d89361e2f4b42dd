//! Resident similarity / LCC query service over the distributed substrate.
//!
//! The batch pipelines ([`crate::DistJaccard`], [`crate::DistLcc`]) answer one
//! whole-graph question per run and tear their caches down afterwards. This
//! module keeps the machinery *resident*: a [`QueryEngine`] owns a partitioned
//! graph, its RMA windows and warm per-rank CLaMPI caches across calls, and
//! answers point queries ([`Query`]) against them — the "long-lived similarity
//! service under heavy traffic" the roadmap's north star describes, where the
//! paper's cache hit rate becomes the service's capacity multiplier.
//!
//! # Batching and read deduplication
//!
//! Queries are admitted into a bounded queue and executed in batches
//! ([`QueryEngine::run_batch`]). Before any network traffic, the batch is
//! *planned*: every remote adjacency row the batch needs is collected as a
//! `(owner, local index)` key, sorted and deduplicated, and fetched exactly
//! once — a hub row referenced by twenty queries in the batch crosses the
//! (modeled) network at most once, and later batches are served straight from
//! the warm cache. The requested-reads / unique-fetches quotient is reported
//! as [`ServiceStats::dedup_ratio`].
//!
//! # Answer equivalence
//!
//! Every answer is a fold of the batch pipelines' own per-edge operations
//! ([`crate::distributed::reader::EdgeOp`]: `DistLcc`'s closing count for
//! `LccOf`, `DistJaccard`'s pair similarity for the rest) over the same
//! operands — the home vertex's partition row and each other row where the
//! batch landed it. There is no second kernel dispatch, so service answers
//! are bit-identical to `DistJaccard` / `DistLcc` results by construction;
//! `tests/service.rs` still holds the engine to that across storage modes,
//! eviction scores and batch sizes, and for pairs that are not edges.
//!
//! # Overload and deadlines
//!
//! Admission control is explicit: a full queue sheds the query with
//! [`ServiceError::Overloaded`] instead of blocking, and a per-query deadline
//! (in the same virtual-time nanoseconds the [`rmatc_rma::RetryPolicy`]
//! timeout uses) expires queries that waited too long with
//! [`ServiceError::DeadlineExceeded`]. No query is ever silently dropped:
//! `accepted == completed + failed + queued` holds at every point
//! ([`ServiceStats::reconciles`]).
//!
//! See `docs/SERVICE.md` for the operational guide and `examples/service.rs`
//! for a runnable tour.

mod engine;
mod stats;

pub use engine::{QueryEngine, QueryResponse};
pub use stats::{LatencyPercentiles, ServiceStats};

use crate::distributed::config::DistConfig;
use crate::jaccard::EdgeSimilarity;
use rmatc_graph::types::VertexId;
use rmatc_rma::RmaError;

/// A point query against the resident engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Query {
    /// Number of common neighbours of `u` and `v`.
    CommonNeighbors {
        /// First endpoint (the query is routed to its owner rank).
        u: VertexId,
        /// Second endpoint.
        v: VertexId,
    },
    /// Full similarity record of the pair `(u, v)` — common neighbours and
    /// Jaccard score, exactly as [`crate::DistJaccard`] computes it for edges.
    Jaccard {
        /// First endpoint (the query is routed to its owner rank).
        u: VertexId,
        /// Second endpoint.
        v: VertexId,
    },
    /// The `k` most similar neighbours of `u`, ordered by
    /// [`crate::jaccard::similarity_order`] (descending score, deterministic
    /// tie-break).
    TopK {
        /// The vertex whose neighbourhood is ranked.
        u: VertexId,
        /// Number of entries to return.
        k: usize,
    },
    /// Local clustering coefficient of `v`, exactly as [`crate::DistLcc`]
    /// computes it.
    LccOf {
        /// The vertex whose LCC is computed.
        v: VertexId,
    },
}

impl Query {
    /// The vertex whose owner rank executes this query (its adjacency row is
    /// the local operand of every kernel the query runs).
    pub fn home_vertex(&self) -> VertexId {
        match *self {
            Query::CommonNeighbors { u, .. } | Query::Jaccard { u, .. } | Query::TopK { u, .. } => {
                u
            }
            Query::LccOf { v } => v,
        }
    }
}

/// The answer to one [`Query`].
#[derive(Debug, Clone, PartialEq)]
pub enum QueryAnswer {
    /// Answer to [`Query::CommonNeighbors`].
    CommonNeighbors(u64),
    /// Answer to [`Query::Jaccard`].
    Jaccard(EdgeSimilarity),
    /// Answer to [`Query::TopK`].
    TopK(Vec<EdgeSimilarity>),
    /// Answer to [`Query::LccOf`].
    Lcc(f64),
}

/// Ticket identifying an admitted query; returned by [`QueryEngine::submit`]
/// and echoed on the matching [`QueryResponse`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(pub u64);

/// Typed failure of one query (or of its admission).
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The admission queue was full: the query was shed, not enqueued.
    /// Submit again after draining a batch (`run_batch`).
    Overloaded {
        /// Queue depth at rejection time (== capacity).
        queue_depth: usize,
        /// The configured capacity.
        capacity: usize,
    },
    /// The query's deadline elapsed (in virtual-time nanoseconds, the same
    /// clock [`rmatc_rma::RetryPolicy::timeout_ns`] runs on) before the
    /// engine got to it.
    DeadlineExceeded {
        /// Virtual nanoseconds the query waited in the queue.
        waited_ns: f64,
        /// The deadline it carried.
        deadline_ns: f64,
    },
    /// A query endpoint is outside the graph's vertex range; rejected at
    /// submission.
    UnknownVertex {
        /// The offending vertex id.
        vertex: VertexId,
        /// Number of vertices in the resident graph.
        vertex_count: usize,
    },
    /// A remote read the query depended on exhausted its retry budget (only
    /// reachable under an unrecoverable [`rmatc_rma::FaultPlan`]). The engine
    /// itself stays healthy: subsequent queries are unaffected.
    Read(RmaError),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Overloaded {
                queue_depth,
                capacity,
            } => write!(f, "queue full ({queue_depth}/{capacity}): query shed"),
            ServiceError::DeadlineExceeded {
                waited_ns,
                deadline_ns,
            } => write!(
                f,
                "deadline exceeded: waited {waited_ns:.0} ns of {deadline_ns:.0} ns"
            ),
            ServiceError::UnknownVertex {
                vertex,
                vertex_count,
            } => write!(
                f,
                "vertex {vertex} outside graph of {vertex_count} vertices"
            ),
            ServiceError::Read(e) => write!(f, "remote read failed: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Read(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RmaError> for ServiceError {
    fn from(e: RmaError) -> Self {
        ServiceError::Read(e)
    }
}

/// Configuration of a [`QueryEngine`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceConfig {
    /// The distributed substrate: rank count, partitioning, caching, storage,
    /// network model, retry policy and fault plan — interpreted exactly as
    /// for the batch pipelines.
    pub dist: DistConfig,
    /// Admission-queue capacity; a submit against a full queue is shed with
    /// [`ServiceError::Overloaded`].
    pub queue_capacity: usize,
    /// Maximum queries drained into one batch window by
    /// [`QueryEngine::run_batch`] (values below 1 behave as 1).
    pub batch_size: usize,
}

impl ServiceConfig {
    /// Service defaults (1024-deep queue, 64-query batches) over the given
    /// distributed configuration.
    pub fn new(dist: DistConfig) -> Self {
        Self {
            dist,
            queue_capacity: 1024,
            batch_size: 64,
        }
    }

    /// Same configuration with a different admission-queue capacity.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Same configuration with a different batch window size.
    pub fn with_batch_size(mut self, batch: usize) -> Self {
        self.batch_size = batch;
        self
    }
}
