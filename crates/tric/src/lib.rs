//! Reproduction of **TriC** (Ghosh & Halappanavar, HPEC'20) — the 2020 Graph
//! Challenge champion the paper compares against — plus the *TriC Buffered* variant
//! the authors had to use when TriC ran out of memory on scale-free graphs.
//!
//! TriC counts triangles per vertex with a *query–response* scheme: for every owned
//! vertex `i` and every pair of its neighbours `(j, k)`, the edge `(j, k)` either can
//! be checked locally (if `j` is owned) or must be asked of `j`'s owner. Queries are
//! exchanged with blocking all-to-all collectives, which synchronizes all ranks every
//! round — the synchronization overhead the paper identifies as TriC's main
//! scalability limit. The buffered variant caps the per-destination buffer (the paper
//! uses 16 MiB) and loops over multiple exchange rounds, trading memory for even more
//! synchronization.
//!
//! The reproduction runs the ranks in lockstep on the calling thread — each
//! bulk-synchronous superstep for every rank in turn, each all-to-all a transpose
//! of the ranks' outgoing buffers — over the same [`rmatc_rma::NetworkModel`] used
//! by the asynchronous algorithm, so the comparison in Figures 9 and 10 charges
//! both systems identically: per-destination message costs `α + β·s`, a
//! logarithmic barrier cost per exchange, and a modeled barrier wait for the load
//! imbalance, taken from the ranks' measured compute times.

//! # Paper map
//!
//! | Module | Paper location | What it reproduces |
//! |---|---|---|
//! | [`runner`] | §II-D, Figs. 9–10 | The query–response rounds of TriC and TriC Buffered, and their blocking all-to-all exchanges with modeled message + barrier costs |
//! | [`config`] | §IV-B | Rank count, buffered-mode cap (the paper's 16 MiB), network model |
//! | [`report`] | Figs. 9–10 | Per-rank timing/communication totals compared against the async runner |

pub mod config;
pub mod report;
pub mod runner;

pub use config::TricConfig;
pub use report::{TricRankReport, TricResult};
pub use runner::Tric;
