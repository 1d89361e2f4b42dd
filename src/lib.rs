//! `rmatc` — asynchronous distributed-memory triangle counting and LCC with RMA
//! caching (reproduction of Strausz et al., IPDPS 2022).
//!
//! This umbrella crate re-exports the workspace's public API so applications can
//! depend on a single crate:
//!
//! * [`graph`] — graph loading, generation, cleaning, CSR and partitioning.
//! * [`rma`] — the simulated MPI-3 RMA substrate (windows, one-sided gets, network
//!   cost model).
//! * [`clampi`] — the CLaMPI RMA caching layer with application-defined scores.
//! * [`core`] — intersection kernels (scalar, SIMD/branchless, binary-search and
//!   galloping, with the per-edge hybrid rule), shared-memory LCC over
//!   degree-weighted vertex ranges, and the fully
//!   asynchronous distributed LCC/TC algorithm, plus the resident similarity
//!   query service built on it.
//! * [`tric`] — the TriC bulk-synchronous baseline.
//!
//! # Quickstart
//!
//! ```
//! use rmatc::core::{DistConfig, DistLcc};
//! use rmatc::graph::gen::{GraphGenerator, RmatGenerator};
//!
//! // Build a small R-MAT graph with the paper's skew parameters.
//! let graph = RmatGenerator::paper(10, 8).generate_cleaned(42).into_csr();
//! // Run the asynchronous distributed LCC on 4 simulated ranks with caching.
//! let config = DistConfig::cached(4, 1 << 20).with_degree_scores();
//! let result = DistLcc::new(config).run(&graph);
//! assert_eq!(result.lcc.len(), graph.vertex_count());
//! assert!(result.triangle_count > 0);
//! ```

pub use rmatc_clampi as clampi;
pub use rmatc_core as core;
pub use rmatc_graph as graph;
pub use rmatc_rma as rma;
pub use rmatc_tric as tric;

/// Convenience prelude with the types most applications need.
pub mod prelude {
    pub use rmatc_clampi::{ClampiConfig, ScorePolicy};
    pub use rmatc_core::{
        CacheSpec, CostModel, DistConfig, DistJaccard, DistLcc, DistResult, IntersectMethod,
        JaccardResult, LocalConfig, LocalLcc, Query, QueryAnswer, QueryEngine, QueryId,
        QueryResponse, ServiceConfig, ServiceError, ServiceStats,
    };
    pub use rmatc_graph::datasets::{Dataset, DatasetScale};
    pub use rmatc_graph::gen::{
        BarabasiAlbert, EgoCircles, GraphGenerator, RmatGenerator, UniformRandom, WattsStrogatz,
    };
    pub use rmatc_graph::partition::{PartitionScheme, PartitionedGraph};
    pub use rmatc_graph::types::Direction;
    pub use rmatc_graph::{CompressedCsr, CsrGraph, EdgeList, GraphStorage};
    pub use rmatc_rma::{FaultPlan, NetworkModel, RetryPolicy, RmaError};
    pub use rmatc_tric::{Tric, TricConfig};
}
