//! The paper's primary contribution: fully asynchronous distributed-memory triangle
//! counting and local clustering coefficient (LCC) computation with RMA caching.
//!
//! The crate is organised to follow Section III of the paper:
//!
//! * [`intersect`] — the frontier-intersection kernels of Section II-C:
//!   binary search, sorted set intersection (SSI) and the hybrid decision rule
//!   of Eq. (3), each run sequentially. This reproduction adds two faster
//!   kernels in the same cost classes — a SIMD/branchless block-compare merge
//!   ([`intersect::simd`]) and a galloping search with a running cursor
//!   ([`intersect::galloping`]) — and extends the hybrid rule to pick the best
//!   kernel of the winning class per edge. The class boundaries are the
//!   paper's analytic ones on every host.
//! * [`local`] — shared-memory edge-centric TC/LCC over one CSR graph: the code path
//!   measured in Table III and Figure 6. One loop over degree-weighted vertex
//!   ranges on the work-stealing pool replaces the paper's Section III-C
//!   intersection-parallel scheme, and the upper-triangle offset is maintained
//!   incrementally in O(1) instead of two binary searches per edge.
//! * [`distributed`] — the fully asynchronous distributed algorithm (Algorithm 3):
//!   1D partitioning, CSR windows exposed via RMA, the two-get remote-adjacency
//!   protocol, optional CLaMPI caching of both windows with LRU or degree-centrality
//!   scores, and double buffering of communication with computation. This is the
//!   code path measured in Figures 7–10.
//! * [`reuse`] — the remote-access data-reuse analyses behind Figures 1, 4 and 5.
//! * [`lcc`] — the LCC formulas (Eqs. 1 and 2), re-exported from the graph substrate
//!   so that every implementation shares one definition.
//! * [`jaccard`] — distributed Jaccard / common-neighbour similarity built on the
//!   same two-get protocol and caches, the first extension the paper's conclusion
//!   proposes as future work.
//! * [`service`] — the resident query service over the same substrate: a
//!   long-lived [`QueryEngine`] with warm caches, batched cache-deduplicated
//!   reads, admission control, and answers bit-identical to the batch
//!   pipelines.

pub mod distributed;
pub mod intersect;
pub mod jaccard;
pub mod lcc;
pub mod local;
pub mod reuse;
pub mod service;

pub use distributed::{
    CacheSpec, DistConfig, DistLcc, DistResult, RankReport, ScoreMode, TimingBreakdown,
};
pub use intersect::{CostModel, IntersectMethod, Intersector};
pub use jaccard::{DistJaccard, JaccardResult};
pub use local::{LocalConfig, LocalLcc, LocalResult};
pub use rmatc_rma::{FaultPlan, RetryPolicy, RmaError};
pub use service::{
    Query, QueryAnswer, QueryEngine, QueryId, QueryResponse, ServiceConfig, ServiceError,
    ServiceStats,
};
