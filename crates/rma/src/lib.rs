//! Simulated MPI-3 RMA (Remote Memory Access) substrate.
//!
//! The paper's implementation runs on a Cray XC50 with cray-mpich and uses MPI-3
//! passive-target one-sided operations: every process exposes its CSR arrays in two
//! windows (`w_offsets`, `w_adj`), opens an access epoch with `MPI_Win_lock_all`,
//! issues `MPI_Get`s at will, and completes them with `MPI_Win_flush` — no
//! synchronization with the target is ever required. That hardware and MPI stack is
//! not available here, so this crate reproduces the *programming model* and the
//! *cost model* in-process:
//!
//! * Each MPI rank becomes a worker thread (spawned by [`runner::run_ranks`]).
//! * [`Window`] is a logically distributed, read-only memory region: one exposed
//!   slice per rank, accessible from any rank without involving the target —
//!   exactly the passive-target exposure epoch of MPI-3.
//! * [`Endpoint`] is the per-rank access object. [`Endpoint::get`] copies the
//!   requested region (the data transfer of `MPI_Get`) and records its modeled
//!   network cost; the data may only be used after [`PendingGet::wait`] or
//!   [`Endpoint::flush_all`], mirroring `MPI_Win_flush` semantics. Issuing a get
//!   outside an access epoch is a programming error and panics, like an MPI
//!   `MPI_ERR_RMA_SYNC` abort would.
//! * [`NetworkModel`] is the linear cost model `t(s) = α + β·s` the paper uses to
//!   reason about remote reads (Section IV-D1), with defaults calibrated to the
//!   Cray Aries numbers quoted in the paper (≈2–3 µs per get).
//! * Communication time is accumulated per rank in *virtual time* ([`RankStats`]),
//!   while computation is measured in real time by the caller; the two are combined
//!   by the algorithm crates when reporting per-rank running times.
//!
//! What is deliberately preserved from the paper: the two-window exposure, the
//! get/flush discipline, per-get setup cost (which makes caching worthwhile even for
//! small entries), per-byte cost (which makes caching adjacency lists of high-degree
//! vertices especially worthwhile), and the complete absence of target-side
//! synchronization during computation.
//!
//! One rule decides where a transfer is read. Fault-free it is not copied at
//! all: [`Endpoint::get_in_place`] borrows the target's exposed region and
//! leaves only a [`PendingCharge`] in flight. Under fault injection it lands
//! in a `Vec` the caller reuses across gets
//! ([`Endpoint::get_into_with_retry`]), where it is verified and healed
//! without allocating, and the caller computes only once its checksum has
//! verified. A caller that keeps the data — a cache admitting a row —
//! copies it once from there into the buffer that keeps it.
//!
//! # Paper map
//!
//! | Module | Paper location | What it reproduces |
//! |---|---|---|
//! | [`window`] | Fig. 3 (`w_offsets`, `w_adj`); §III-A | `MPI_Win_create` exposure: one read-only slice per rank |
//! | [`endpoint`] | Fig. 3 steps 4–5; §II-E | `MPI_Win_lock_all` epochs, `MPI_Get`, `MPI_Win_flush`, overlap credit |
//! | [`network`] | §IV-D1 | The linear cost model `t(s) = α + β·s`, calibrated to Cray Aries |
//! | [`runner`] | §IV-A | One thread per MPI rank, plus the barrier used only by the TriC baseline |
//! | [`stats`] | §IV-D | Per-rank gets/bytes/virtual-time counters the figures aggregate |
//! | [`cputime`] | §IV-C | Per-thread CPU time so oversubscribed hosts do not inflate compute |
//! | [`fault`] | — (robustness layer) | Seeded fault injection, retries with backoff, checksummed transfers; a sick cache degrades to the paper's non-cached baseline |

pub mod cputime;
pub mod endpoint;
pub mod fault;
pub mod network;
pub mod runner;
pub mod stats;
pub mod window;

pub use cputime::{ComputeMeter, ThreadTimer};
pub use endpoint::{Endpoint, PendingCharge, PendingGet};
pub use fault::{FaultInjector, FaultPlan, RetryPolicy, RmaError};
pub use network::NetworkModel;
pub use runner::{run_ranks, SimBarrier};
pub use stats::RankStats;
pub use window::{Window, WindowId};
