//! Reproduction of CLaMPI — a software caching layer for MPI RMA — extended with
//! application-defined scores, as used by the paper.
//!
//! CLaMPI (Di Girolamo, Vella, Hoefler, IPDPS'17) transparently caches data
//! retrieved through `MPI_Get`. The original is a C library layered over MPI
//! profiling hooks; it is reimplemented here from the description in Section II-F
//! and III-B of the paper on top of the [`rmatc_rma`] substrate:
//!
//! * **Variable-size entries.** Applications issue arbitrary-size gets, so the cache
//!   manages a byte buffer of fixed capacity with a free-region manager
//!   ([`freelist::FreeList`]) and an index ([`cache::Clampi`]) keyed by
//!   `(window, target rank, offset, length)`.
//! * **Hash-table index with conflicts.** The index has a fixed number of slots;
//!   two different regions hashing to the same slot is a *conflict* and triggers the
//!   eviction procedure, exactly like running out of buffer space does.
//! * **Eviction by weighted scores.** The default victim selection is LRU weighted
//!   by a positional score that prefers evicting entries whose removal merges free
//!   regions (reducing external fragmentation). The paper's extension adds an
//!   *application-defined score* — for LCC, the degree of the cached vertex — which
//!   protects entries that are likely to be reused ([`config::ScorePolicy`]).
//!   This one rule is the cache's only eviction path (see [`cache`]).
//! * **Always-cache.** The graph is read-only during the LCC computation, so
//!   the cache runs CLaMPI's always-cache mode: nothing is flushed at epoch
//!   closures (CLaMPI's transparent and user-defined modes are not
//!   reproduced; [`Clampi::flush`] remains for the quarantine path).
//! * **Sized once.** Buffer capacity and table size are fixed when the cache is
//!   built, from the Section III-B1 rule
//!   ([`ClampiConfig::adjacency_table_slots`]). CLaMPI's run-time resizing
//!   heuristic (Section II-F) is not reproduced: growing the table flushes the
//!   cache, which is why the paper sizes it up front.
//!
//! The integration point is [`CachedWindow`], the one CLaMPI front. It
//! intercepts gets where CLaMPI's PMPI layer would, but leaves the transfer to
//! its caller: [`CachedWindow::probe`] looks the get up before the network (a
//! hit charges only the local access cost) and [`CachedWindow::admit`] inserts
//! the buffer the caller fetched on a miss. A rank runs one thread, which owns
//! its front: one [`Clampi`], driven through `&mut self`, decision for
//! decision a plain [`Clampi`].
//!
//! Reads are zero-copy end to end: entries store the transfer buffer itself
//! (`Arc<[T]>` — an insert is a refcount bump, never a payload clone) and
//! reads resolve to a borrowed [`RowRef`] view of wherever the row already
//! lives. Because the caller owns the transfer, it can compute over the data
//! in place on a hit — or, on a miss, *during* the transfer (the
//! copy+intersect kernel of `rmatc-core`) — and keep the get in flight
//! meanwhile. Cache hits and local-rank reads perform no heap
//! allocations; a miss performs exactly one.
//!
//! # Paper map
//!
//! | Module | Paper location | What it reproduces |
//! |---|---|---|
//! | [`cache`] | §III-B | The cache proper: slot index (with an occupancy bitmap and a dense per-slot array of the fields victim selection reads), the paper's weighted-score victim selection (sampled), admission control |
//! | [`cached_window`] | Fig. 3 steps 5–6; §II-F | Get interception as probe (lookup before the network) and admit (insert after the miss), over the one cache a rank's thread owns |
//! | [`entry`] | §III-B1 | `(window, target, offset, len)` keys and the slot hash |
//! | [`freelist`] | §II-F / §III-B | Variable-size entry storage with first-fit allocation and coalescing, over one address-sorted vector of free regions |
//! | [`config`] | §III-B, §III-B1 | The score rule (positional or application-defined) and the hash-table sizing rule |
//! | [`row`] | this reproduction | The zero-copy read views ([`RowRef`]) |
//! | [`stats`] | Figs. 7–8 | Hit/miss/compulsory counters the evaluation plots |

pub mod cache;
pub mod cached_window;
pub mod config;
pub mod entry;
pub mod freelist;
pub mod row;
pub mod stats;

pub use cache::{CacheInsertOutcome, Clampi};
pub use cached_window::{CacheProbe, CachedWindow};
pub use config::{ClampiConfig, ScorePolicy};
pub use entry::EntryKey;
pub use row::RowRef;
pub use stats::CacheStats;
