//! Graph substrate for the asynchronous distributed TC/LCC reproduction.
//!
//! This crate provides everything the paper assumes exists below its algorithm:
//!
//! * [`EdgeList`] — mutable staging representation with cleaning passes
//!   (multi-edge removal, self-loop removal, symmetrization, iterative removal of
//!   vertices that cannot be part of a triangle, random relabeling).
//! * [`CsrGraph`] — the immutable Compressed Sparse Row representation used for
//!   computation (Figure 2 of the paper), with sorted adjacency lists.
//! * [`gen`] — synthetic graph generators: R-MAT with the paper's parameters,
//!   uniform (Erdős–Rényi), Barabási–Albert, Watts–Strogatz, and ego-circle graphs.
//! * [`datasets`] — a registry of named stand-ins for the real-world datasets the
//!   paper evaluates on (Orkut, LiveJournal, Skitter, uk-2005, wiki-en, Facebook
//!   circles), generated synthetically at laptop scale with matching degree shapes.
//! * [`partition`] — 1D block (equal-count and work-balanced) and cyclic vertex
//!   partitioning plus the per-rank CSR construction used by the distributed
//!   algorithm.
//! * [`split`] — degree-weighted (equal-work) range splitting over CSR offsets,
//!   shared by the shared-memory range loop and the work-balanced partitioner.
//! * [`mod@reference`] — simple sequential triangle counting and LCC used as ground truth.
//! * [`stats`] — degree skew and the top-degree contribution curves of Figure 4.
//!
//! # Paper map
//!
//! | Module | Paper location | What it reproduces |
//! |---|---|---|
//! | [`csr`] | §II-B, Fig. 2 | The CSR representation (`offsets` + sorted `adjacencies`) every kernel reads |
//! | [`compressed`] | §II-B, Fig. 2 | The same CSR arrays with delta/varint-compressed adjacency rows (`GraphStorage::Compressed`), shrinking the bytes every remote get and cache slot pays for |
//! | [`edge_list`] | §IV-A | The cleaning pipeline of the evaluation inputs: dedup, self-loop removal, symmetrization, triangle-free vertex pruning |
//! | [`partition`] | §III-A / §IV | The distribution scheme: 1D block ownership of contiguous vertex ranges (plus this reproduction's work-balanced and cyclic variants), and the per-rank CSR each computing node exposes through its windows |
//! | [`split`] | §IV (load balance) | Weighted range boundaries — equal edge mass (`LocalLcc`'s vertex ranges) and equal intersection work `Σ (deg(u)+deg(v))` (`PartitionScheme::WorkBalancedBlock1D`) |
//! | [`gen`] | §IV-A, Table II | R-MAT with the paper's `(A,B,C)` skew, plus the synthetic counterpoints (uniform, Barabási–Albert, Watts–Strogatz, ego circles) |
//! | [`datasets`] | §IV-A, Table II | Named laptop-scale stand-ins for Orkut, LiveJournal, Skitter, uk-2005, wiki-en, Facebook circles |
//! | [`relabel`] | §IV-A | The random vertex relabeling the paper applies so block partitions do not inherit crawl-order locality |
//! | [`mod@reference`] | Eq. (1)–(2) | Ground-truth triangle counts and LCC the differential suites compare every path against |
//! | [`stats`] | Fig. 4 | Degree skew and the share of remote reads that target the top-degree vertices |

pub mod compressed;
pub mod csr;
pub mod datasets;
pub mod edge_list;
pub mod gen;
pub mod partition;
pub mod reference;
pub mod relabel;
pub mod split;
pub mod stats;
pub mod types;

pub use compressed::{CompressedCsr, GraphStorage};
pub use csr::CsrGraph;
pub use edge_list::EdgeList;
pub use partition::{PartitionScheme, PartitionedGraph, Partitioner, RankPartition};
pub use types::{EdgeId, VertexId};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, GraphError>;

/// Errors produced while building or manipulating graphs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge references a vertex id that is outside the declared vertex range.
    VertexOutOfRange {
        /// The offending vertex id.
        vertex: u64,
        /// The number of vertices in the graph.
        n: u64,
    },
    /// The requested partition count is invalid (zero, or larger than the vertex count).
    InvalidPartitionCount {
        /// Requested number of parts.
        parts: usize,
        /// Number of vertices available.
        n: usize,
    },
    /// A generator was asked for parameters it cannot satisfy.
    InvalidGeneratorParams(String),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::VertexOutOfRange { vertex, n } => {
                write!(
                    f,
                    "vertex {vertex} out of range for graph with {n} vertices"
                )
            }
            GraphError::InvalidPartitionCount { parts, n } => {
                write!(f, "cannot split {n} vertices into {parts} partitions")
            }
            GraphError::InvalidGeneratorParams(msg) => {
                write!(f, "invalid generator parameters: {msg}")
            }
        }
    }
}

impl std::error::Error for GraphError {}
