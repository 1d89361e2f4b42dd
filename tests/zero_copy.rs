//! Acceptance tests of the zero-copy remote-adjacency path: the edge loop at
//! depth 1 is observationally identical to a materializing read
//! loop (same LCC values, same cache statistics, same endpoint counters,
//! `f64` charges included), cache hits and local-rank reads perform no heap
//! allocations, the single miss allocation is handed to the cache without a
//! second copy (under faults too, however many attempts it takes), and reads
//! nobody retains (non-cached rounds, quarantine bypasses) are read in place,
//! or land in a reused buffer under faults, corrupted attempts included,
//! without allocating at all — however many of them are in flight.

use proptest::prelude::*;
use rmatc::clampi::{CacheStats, RowRef};
use rmatc::core::distributed::reader::{AdjCache, Edge, OwnerOffsets, RowReader};
use rmatc::core::distributed::worker::{run_worker, ClosingCount};
use rmatc::core::distributed::{CacheSpec, DistConfig, GraphWindows};
use rmatc::core::intersect::{CostModel, IntersectMethod, Intersector};
use rmatc::core::local::count_closing_at;
use rmatc::graph::gen::{GraphGenerator, RmatGenerator};
use rmatc::graph::partition::{PartitionScheme, PartitionedGraph};
use rmatc::graph::reference;
use rmatc::rma::{
    Endpoint, FaultPlan, NetworkModel, PendingCharge, RankStats, RetryPolicy, RmaError,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Heap-allocation accounting: a counting wrapper around the system allocator
// with per-thread counters, so concurrently running tests cannot disturb the
// measurement. The counter cells are const-initialized and `Drop`-free, which
// keeps the allocator itself allocation-free.
// ---------------------------------------------------------------------------

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Address and size of this thread's latest allocation.
    static LATEST: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

struct CountingAllocator;

/// Counts one allocation of `size` bytes at `ptr` and returns `ptr`.
fn counted(ptr: *mut u8, size: usize) -> *mut u8 {
    ALLOCATIONS.with(|c| c.set(c.get() + 1));
    LATEST.with(|c| c.set((ptr as usize, size)));
    ptr
}

// SAFETY: delegates every operation to `System`; the counter update performs
// no allocation (const-initialized, Drop-free thread-locals).
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        counted(unsafe { System.alloc(layout) }, layout.size())
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        counted(unsafe { System.realloc(ptr, layout, new_size) }, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        counted(unsafe { System.alloc_zeroed(layout) }, layout.size())
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn allocations_on_this_thread() -> u64 {
    ALLOCATIONS.with(|c| c.get())
}

/// Address and size of this thread's latest allocation.
fn latest() -> (usize, usize) {
    LATEST.with(|c| c.get())
}

/// Whether `data` lies inside the allocation at `(start, size)`.
fn within<T>(data: &[T], (start, size): (usize, usize)) -> bool {
    let range = data.as_ptr_range();
    start <= range.start as usize && range.end as usize <= start + size
}

// ---------------------------------------------------------------------------
// Shared fixtures.
// ---------------------------------------------------------------------------

fn base_config(ranks: usize) -> DistConfig {
    DistConfig {
        ranks,
        scheme: PartitionScheme::Block1D,
        method: IntersectMethod::Hybrid,
        cost_model: CostModel::Analytic,
        network: NetworkModel::aries(),
        // Off: overlap credit depends on wall-clock timing and would make the
        // modeled communication times non-deterministic across the two loops.
        double_buffering: false,
        cache: None,
        retry: RetryPolicy::default(),
        faults: None,
        pipeline_depth: 1,
        storage: rmatc::graph::GraphStorage::Plain,
        ..DistConfig::non_cached(ranks)
    }
}

/// Both gets of one row as a one-key batch: the offsets pair from the rank's
/// copy of the owner's window (read with one get the first time), then the
/// row — the single row get of Algorithm 3.
fn read_row<'r>(
    reader: &'r RowReader,
    ep: &mut Endpoint,
    cache: &mut AdjCache,
    offsets: &mut OwnerOffsets,
    target: usize,
    idx: usize,
) -> Result<RowRef<'r, u32>, RmaError> {
    let mut rows = Vec::new();
    let key = [(target, idx)];
    reader.read_key_rows(ep, cache, offsets, &key, &mut Vec::new(), &mut rows);
    rows.remove(0)
}

fn build_reader(
    pg: &PartitionedGraph,
    windows: &GraphWindows,
    config: &DistConfig,
) -> (RowReader, AdjCache) {
    RowReader::new(windows, config, pg.global_vertex_count())
}

/// The cache's statistics, when the reader has one.
fn cache_stats(cache: &AdjCache) -> Option<CacheStats> {
    cache.as_ref().map(|c| c.stats().clone())
}

/// The pre-zero-copy worker, reconstructed — the test-side reference of the
/// edge loop: reads every remote row into an owned buffer first (a one-key
/// `RowReader::read_key_rows` batch per edge, waiting for every get), then
/// intersects; each pair comes from the rank's copy of the owner's offsets
/// window, as in the edge loop. Protocol order, cache interception and endpoint charging
/// are identical, so every observable statistic must match the edge loop at
/// depth 1.
fn materializing_worker(
    rank: usize,
    pg: &PartitionedGraph,
    windows: &GraphWindows,
    config: &DistConfig,
) -> (Vec<u64>, Option<CacheStats>, RankStats) {
    let part = &pg.partitions[rank];
    let (reader, mut cache) = build_reader(pg, windows, config);
    let mut ep = Endpoint::new(rank, config.ranks, config.network);
    let intersector = Intersector::new(config.method);
    let direction = pg.direction;
    let mut triangles = vec![0u64; part.local_vertex_count()];
    let mut offsets = OwnerOffsets::new(pg.ranks());
    let (mut landing, mut rows) = (Vec::new(), Vec::new());
    ep.lock_all();
    for (local_idx, slot) in triangles.iter_mut().enumerate() {
        let adj_u = part.neighbours_of_local(local_idx);
        for (k, &v) in adj_u.iter().enumerate() {
            let owner = pg.partitioner.owner(v);
            let v_local = pg.partitioner.local_index(v);
            *slot += if owner == rank {
                let adj_v = part.neighbours_of_local(v_local);
                count_closing_at(direction, adj_u, adj_v, v, k, &intersector, None)
            } else {
                reader.read_key_rows(
                    &mut ep,
                    &mut cache,
                    &mut offsets,
                    &[(owner, v_local)],
                    &mut landing,
                    &mut rows,
                );
                let adj_v = rows[0].as_ref().expect("no faults injected").to_vec();
                count_closing_at(direction, adj_u, &adj_v, v, k, &intersector, None)
            };
        }
    }
    ep.unlock_all();
    (triangles, cache_stats(&cache), ep.into_stats())
}

// ---------------------------------------------------------------------------
// Observational equivalence: edge-loop worker == materializing loop == reference.
// ---------------------------------------------------------------------------

#[test]
fn fused_worker_is_observationally_identical_to_materializing_reads() {
    let g = RmatGenerator::paper(9, 8).generate_cleaned(13).into_csr();
    let expected = reference::per_vertex_triangles(&g);
    let ranks = 4;
    let pg = PartitionedGraph::from_global(&g, PartitionScheme::Block1D, ranks).unwrap();
    let windows = GraphWindows::build(&pg);
    // No cache, a generous (hit-heavy) cache, and a tight cache that forces
    // evictions and uncacheable entries.
    for cache in [
        None,
        Some(CacheSpec::paper(1 << 20).with_degree_scores()),
        Some(CacheSpec::paper(1 << 14).with_degree_scores()),
    ] {
        let mut config = base_config(ranks);
        config.cache = cache;
        for rank in 0..ranks {
            let fused = run_worker(rank, &pg, &windows, &config).expect("no faults injected");
            let (triangles, adj_stats, rma) = materializing_worker(rank, &pg, &windows, &config);
            assert_eq!(
                fused.items, triangles,
                "triangle counts differ (rank {rank}, cache {cache:?})"
            );
            assert_eq!(
                fused.adjacency_cache, adj_stats,
                "adjacency CacheStats differ (rank {rank}, cache {cache:?})"
            );
            assert_eq!(
                fused.rma, rma,
                "endpoint statistics differ (rank {rank}, cache {cache:?})"
            );
            for (local_idx, &gv) in pg.partitions[rank].global_ids.iter().enumerate() {
                assert_eq!(
                    fused.items[local_idx], expected[gv as usize],
                    "vertex {gv} disagrees with the reference"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Allocation behaviour.
// ---------------------------------------------------------------------------

#[test]
fn cache_hits_and_local_reads_allocate_nothing() {
    let g = RmatGenerator::paper(8, 8).generate_cleaned(9).into_csr();
    let pg = PartitionedGraph::from_global(&g, PartitionScheme::Block1D, 2).unwrap();
    let windows = GraphWindows::build(&pg);
    let mut config = base_config(2);
    config.cache = Some(hit_heavy_spec());
    let (reader, mut cache) = build_reader(&pg, &windows, &config);
    let mut ep = Endpoint::new(0, 2, config.network);
    ep.lock_all();
    let reads = pg.partitions[1].local_vertex_count().min(40);
    let mut offsets = OwnerOffsets::new(2);
    let (mut landing, mut rows) = (Vec::new(), Vec::new());
    // A one-key batch over the caller's reusable buffers.
    let mut read = |ep: &mut Endpoint, cache: &mut AdjCache, target: usize, idx: usize| {
        let key = [(target, idx)];
        reader.read_key_rows(ep, cache, &mut offsets, &key, &mut landing, &mut rows);
        rows.pop().unwrap().unwrap()
    };
    // Warm: copy rank 1's offsets window, fetch and cache every row and grow
    // the row buffer (allocations expected here).
    for idx in 0..reads {
        let _ = read(&mut ep, &mut cache, 1, idx);
    }
    // Measure: remote reads served from the cache.
    let before = allocations_on_this_thread();
    let mut checksum = 0u64;
    for idx in 0..reads {
        let row = read(&mut ep, &mut cache, 1, idx);
        checksum += row.iter().map(|&v| v as u64).sum::<u64>();
    }
    assert_eq!(
        allocations_on_this_thread(),
        before,
        "cache-hit reads must perform zero heap allocations"
    );
    // Measure: local-rank reads borrow the window.
    let local_reads = pg.partitions[0].local_vertex_count().min(40);
    let before = allocations_on_this_thread();
    for idx in 0..local_reads {
        let row = read(&mut ep, &mut cache, 0, idx);
        assert!(row.is_borrowed(), "local reads must borrow the window");
        checksum += row.len() as u64;
    }
    assert_eq!(
        allocations_on_this_thread(),
        before,
        "local-rank reads must perform zero heap allocations"
    );
    ep.unlock_all();
    assert!(checksum > 0, "the reads must have touched real data");
}

/// Rank 0's side of the split read: one reader with its endpoint and cache,
/// the landing buffer, its offsets copies, and a FIFO that keeps up to
/// `in_flight` adjacency charges owed before waiting the oldest — everything
/// preallocated, so a measured pass allocates only what the read path itself
/// allocates. It takes each pair from its copy of rank 1's offsets window,
/// as the edge loop does, and counts the gets the window reads issue.
struct Rounds<'a> {
    pg: &'a PartitionedGraph,
    reader: RowReader,
    cache: AdjCache,
    op: ClosingCount,
    ep: Endpoint,
    landing: Vec<u32>,
    offsets: OwnerOffsets,
    copy_gets: u64,
    flying: VecDeque<PendingCharge>,
    in_flight: usize,
}

impl<'a> Rounds<'a> {
    fn new(
        pg: &'a PartitionedGraph,
        windows: &GraphWindows,
        config: &DistConfig,
        mut ep: Endpoint,
        in_flight: usize,
    ) -> Self {
        ep.lock_all();
        let (reader, cache) = build_reader(pg, windows, config);
        Self {
            pg,
            reader,
            cache,
            op: ClosingCount::new(config, pg.direction, windows.storage),
            ep,
            landing: Vec::new(),
            offsets: OwnerOffsets::new(pg.ranks()),
            copy_gets: 0,
            flying: VecDeque::with_capacity(in_flight),
            in_flight,
        }
    }

    /// One protocol round (offsets read + adjacency read + intersection of
    /// the row where it landed) per remote edge of rank 0's first vertices,
    /// up to 64, summed.
    fn run(&mut self) -> u64 {
        self.run_up_to(64)
    }

    /// [`Rounds::run`] over up to `limit` remote edges.
    fn run_up_to(&mut self, limit: usize) -> u64 {
        let part = &self.pg.partitions[0];
        let (mut total, mut rounds) = (0, 0);
        for local_idx in 0..part.local_vertex_count() {
            if rounds >= limit {
                break;
            }
            let adj_u = part.neighbours_of_local(local_idx);
            for (k, &v) in adj_u.iter().enumerate() {
                if self.pg.partitioner.owner(v) != 1 || rounds >= limit {
                    continue;
                }
                rounds += 1;
                let edge = Edge {
                    slot: 0,
                    source: part.global_ids[local_idx],
                    adj_u,
                    v,
                    k,
                    marks: None,
                };
                let gets = self.ep.stats().gets;
                let v_local = self.pg.partitioner.local_index(v);
                let pair = self
                    .reader
                    .pair(&mut self.ep, &mut self.offsets, 1, v_local)
                    .unwrap();
                self.copy_gets += self.ep.stats().gets - gets;
                let (count, charge) = self
                    .reader
                    .start(
                        &mut self.ep,
                        &mut self.cache,
                        1,
                        pair,
                        &mut self.landing,
                        &self.op,
                        &edge,
                    )
                    .unwrap();
                total += count;
                if let Some(charge) = charge {
                    self.flying.push_back(charge);
                    self.complete_down_to(self.in_flight - 1);
                }
            }
        }
        assert!(rounds > 0, "the partition must have remote edges");
        self.complete_down_to(0);
        total
    }

    fn complete_down_to(&mut self, keep: usize) {
        while self.flying.len() > keep {
            self.flying.pop_front().unwrap().wait(&mut self.ep);
        }
    }
}

fn hit_heavy_spec() -> CacheSpec {
    // A cache far larger than the data it might hold, so the second round is
    // all hits.
    CacheSpec::paper(1 << 22).with_degree_scores()
}

#[test]
fn fused_hit_path_allocates_nothing() {
    let g = RmatGenerator::paper(8, 8).generate_cleaned(9).into_csr();
    let pg = PartitionedGraph::from_global(&g, PartitionScheme::Block1D, 2).unwrap();
    let windows = GraphWindows::build(&pg);
    let mut config = base_config(2);
    config.cache = Some(hit_heavy_spec());
    let ep = Endpoint::new(0, 2, config.network);
    // Offsets from the copy of rank 1's window, as the cached edge loop
    // reads them: the warm pass reads the window once.
    let mut rounds = Rounds::new(&pg, &windows, &config, ep, 1);
    let warm = rounds.run();
    let before = allocations_on_this_thread();
    let hot = rounds.run();
    assert_eq!(
        allocations_on_this_thread(),
        before,
        "the read+intersect hit path must perform zero heap allocations"
    );
    assert_eq!(warm, hot, "hit-path counts must match the miss-path counts");
}

#[test]
fn compressed_fused_hit_path_allocates_nothing() {
    // Same guarantee under compressed storage: once a compressed row is
    // cached, the fused decompress+intersect kernel runs in place over the
    // stored words — block decode uses a stack buffer, so a hit performs
    // zero heap allocations.
    let g = RmatGenerator::paper(8, 8).generate_cleaned(9).into_csr();
    let pg = PartitionedGraph::from_global(&g, PartitionScheme::Block1D, 2).unwrap();
    let windows = GraphWindows::build_with(&pg, rmatc::graph::GraphStorage::Compressed);
    let mut config = base_config(2);
    config.storage = rmatc::graph::GraphStorage::Compressed;
    config.cache = Some(hit_heavy_spec());
    let ep = Endpoint::new(0, 2, config.network);
    let mut rounds = Rounds::new(&pg, &windows, &config, ep, 1);
    let warm = rounds.run();
    let before = allocations_on_this_thread();
    let hot = rounds.run();
    assert_eq!(
        allocations_on_this_thread(),
        before,
        "the compressed fused hit path must perform zero heap allocations"
    );
    assert_eq!(warm, hot, "hit-path counts must match the miss-path counts");
    // The counts themselves must be the plain-storage counts.
    let plain_windows = GraphWindows::build(&pg);
    let mut plain_config = base_config(2);
    plain_config.cache = config.cache;
    let plain_ep = Endpoint::new(0, 2, plain_config.network);
    let expected = Rounds::new(&pg, &plain_windows, &plain_config, plain_ep, 1).run();
    assert_eq!(hot, expected, "compressed counts must match plain counts");
    let stats = cache_stats(&rounds.cache).unwrap();
    assert!(
        stats.logical_bytes > stats.stored_bytes && stats.stored_bytes > 0,
        "compressed misses must record logical vs stored bytes"
    );
}

#[test]
fn compressed_reader_pins_its_stored_footprint() {
    // One pass over rank 0's first 2 048 remote edges of a two-rank
    // R-MAT(10, 16), through a degree-scored cache twice the size of the
    // compressed window. Exact: how much smaller the stored rows are than
    // the rows they decode to (×1000), and the stored bytes per lookup.
    let g = RmatGenerator::paper(10, 16).generate_cleaned(11).into_csr();
    let pg = PartitionedGraph::from_global(&g, PartitionScheme::Block1D, 2).unwrap();
    let windows = GraphWindows::build_with(&pg, rmatc::graph::GraphStorage::Compressed);
    let mut config = base_config(2);
    config.storage = rmatc::graph::GraphStorage::Compressed;
    config.cache = Some(CacheSpec::paper(2 * windows.adjacency_bytes()).with_degree_scores());
    let ep = Endpoint::new(0, 2, config.network);
    let mut rounds = Rounds::new(&pg, &windows, &config, ep, 1);
    rounds.run_up_to(2_048);
    let stats = cache_stats(&rounds.cache).unwrap();
    assert_eq!((stats.compression_ratio() * 1e3).round(), 2_349.0);
    let stored_per_lookup = stats.stored_bytes as f64 / stats.lookups() as f64;
    assert_eq!(stored_per_lookup.round(), 5.0);
}

#[test]
fn non_cached_rounds_allocate_nothing_once_the_landing_buffer_has_grown() {
    // Nobody retains a non-cached row read, so a fault-free one is read in
    // place: after the first pass has copied rank 1's offsets window, a full
    // protocol round performs zero heap allocations — under both storage
    // modes, and with four reads in flight as with one (only cost tickets
    // wait).
    let g = RmatGenerator::paper(8, 8).generate_cleaned(9).into_csr();
    let pg = PartitionedGraph::from_global(&g, PartitionScheme::Block1D, 2).unwrap();
    let mut counts = Vec::new();
    for storage in [
        rmatc::graph::GraphStorage::Plain,
        rmatc::graph::GraphStorage::Compressed,
    ] {
        for in_flight in [1usize, 4] {
            let windows = GraphWindows::build_with(&pg, storage);
            let mut config = base_config(2);
            config.storage = storage;
            let ep = Endpoint::new(0, 2, config.network);
            let mut rounds = Rounds::new(&pg, &windows, &config, ep, in_flight);
            let warm = rounds.run();
            let gets = rounds.ep.stats().gets;
            let before = allocations_on_this_thread();
            let hot = rounds.run();
            assert_eq!(
                allocations_on_this_thread(),
                before,
                "non-cached rounds must perform zero heap allocations \
                 ({storage:?}, {in_flight} in flight)"
            );
            assert_eq!(warm, hot);
            // Every row read still goes to the network; the window does not.
            assert_eq!(
                rounds.ep.stats().gets,
                2 * gets - 1,
                "every round still goes to the network"
            );
            rounds.ep.unlock_all();
            counts.push(hot);
        }
    }
    assert!(
        counts.iter().all(|&c| c == counts[0]),
        "compressed counts must match plain counts at any depth: {counts:?}"
    );
}

#[test]
fn quarantine_bypass_reads_allocate_nothing() {
    // A quarantined cache retains nothing, so its bypass reads land in the
    // rank's reusable buffer — with the injector that sickened the cache
    // still attached (so they land, verify and heal there), and with four
    // reads requested in flight as with one. Every lookup rots the resident
    // entry, so the second pass trips the (default, three-strike)
    // quarantine. A third of the transfers are corrupted too: a corrupted
    // attempt flips a byte of the landing buffer itself, so healing it
    // allocates nothing either. Beside the offsets window's read, every
    // bypassed row is one get.
    let g = RmatGenerator::paper(8, 8).generate_cleaned(9).into_csr();
    let pg = PartitionedGraph::from_global(&g, PartitionScheme::Block1D, 2).unwrap();
    let plan = FaultPlan {
        cache_corrupt_p: 1.0,
        corrupt_p: 0.3,
        ..FaultPlan::reliable(5)
    };
    let retry = RetryPolicy {
        max_attempts: 32,
        ..RetryPolicy::default()
    };
    for storage in [
        rmatc::graph::GraphStorage::Plain,
        rmatc::graph::GraphStorage::Compressed,
    ] {
        for in_flight in [1usize, 4] {
            let windows = GraphWindows::build_with(&pg, storage);
            let mut config = base_config(2);
            config.storage = storage;
            config.cache = Some(CacheSpec::paper(1 << 22).with_degree_scores());
            let ep = Endpoint::new(0, 2, config.network)
                .with_retry(retry)
                .with_faults(plan.injector(0));
            let mut rounds = Rounds::new(&pg, &windows, &config, ep, in_flight);
            let clean = rounds.run();
            let sick = rounds.run();
            assert!(
                rounds.ep.stats().cache_bypass_reads > 0,
                "the second pass must quarantine the cache ({storage:?})"
            );
            let (bypasses, gets, copy_gets, corrupted) = (
                rounds.ep.stats().cache_bypass_reads,
                rounds.ep.stats().gets,
                rounds.copy_gets,
                rounds.ep.stats().checksum_failures,
            );
            let before = allocations_on_this_thread();
            let bypassed = rounds.run();
            assert_eq!(
                allocations_on_this_thread(),
                before,
                "quarantine-bypass reads must perform zero heap allocations \
                 ({storage:?}, {in_flight} in flight)"
            );
            let adjacency_reads = rounds.ep.stats().cache_bypass_reads - bypasses;
            assert!(adjacency_reads > 0, "the measured pass must bypass");
            let retries = rounds.ep.stats().checksum_failures - corrupted;
            assert!(
                retries > 0,
                "the measured pass must heal corrupted transfers"
            );
            assert_eq!(
                rounds.ep.stats().gets - gets - (rounds.copy_gets - copy_gets),
                adjacency_reads + retries,
                "a bypassed row is one get, and one more per corrupted attempt"
            );
            assert_eq!((clean, sick), (bypassed, bypassed), "{storage:?}");
            rounds.ep.unlock_all();
        }
    }
}

#[test]
fn miss_buffer_is_shared_with_the_cache_not_copied() {
    let g = RmatGenerator::paper(8, 8).generate_cleaned(9).into_csr();
    let pg = PartitionedGraph::from_global(&g, PartitionScheme::Block1D, 2).unwrap();
    let windows = GraphWindows::build(&pg);
    let mut config = base_config(2);
    config.cache = Some(CacheSpec::paper(1 << 22).with_degree_scores());
    let (reader, mut cache) = build_reader(&pg, &windows, &config);
    let mut ep = Endpoint::new(0, 2, config.network);
    ep.lock_all();
    let mut offsets = OwnerOffsets::new(2);
    // Find a non-empty remote row.
    let idx = (0..pg.partitions[1].local_vertex_count())
        .find(|&i| !pg.partitions[1].neighbours_of_local(i).is_empty())
        .expect("some remote row is non-empty");
    let fetched: Arc<[u32]> =
        match read_row(&reader, &mut ep, &mut cache, &mut offsets, 1, idx).unwrap() {
            RowRef::Fetched(arc) => arc,
            other => panic!("first read must miss, got {other:?}"),
        };
    let cached: Arc<[u32]> =
        match read_row(&reader, &mut ep, &mut cache, &mut offsets, 1, idx).unwrap() {
            RowRef::Cached(arc) => arc,
            other => panic!("second read must hit, got {other:?}"),
        };
    assert!(
        Arc::ptr_eq(&fetched, &cached),
        "the cache must retain the transfer buffer itself — no second copy"
    );
    ep.unlock_all();

    // Faulted: half the transfers corrupted and a third of the completions
    // straggling past the retry timeout, so a miss often takes several
    // attempts. They all land in the landing buffer: once it has grown, an
    // admitted miss allocates exactly the one `Arc` the cache then holds.
    // The warm pass grows the buffer and the cache's record of seen keys;
    // the flush empties the cache, so the measured pass misses again.
    let plan = FaultPlan {
        corrupt_p: 0.5,
        delay_p: 0.3,
        delay_factor: 100.0,
        ..FaultPlan::reliable(9)
    };
    let retry = RetryPolicy {
        max_attempts: 64,
        timeout_ns: Some(
            config
                .network
                .remote_cost_ns(4 * windows.adjacencies.len_of(1))
                * 10.0,
        ),
        ..RetryPolicy::default()
    };
    let ep = Endpoint::new(0, 2, config.network)
        .with_retry(retry)
        .with_faults(plan.injector(0));
    let mut rounds = Rounds::new(&pg, &windows, &config, ep, 1);
    let part = &pg.partitions[0];
    let mut misses = 0;
    for pass in ["warm", "measured"] {
        let faults = rounds.ep.stats().fault_events();
        for local_idx in 0..part.local_vertex_count().min(64) {
            let adj_u = part.neighbours_of_local(local_idx);
            for (k, &v) in adj_u.iter().enumerate() {
                if pg.partitioner.owner(v) != 1 {
                    continue;
                }
                let v_local = pg.partitioner.local_index(v);
                let Rounds {
                    reader,
                    cache,
                    op,
                    ep,
                    landing,
                    offsets,
                    ..
                } = &mut rounds;
                let pair = reader.pair(ep, offsets, 1, v_local).unwrap();
                let edge = Edge {
                    slot: 0,
                    source: part.global_ids[local_idx],
                    adj_u,
                    v,
                    k,
                    marks: None,
                };
                let missed = cache_stats(cache).unwrap().misses;
                let before = allocations_on_this_thread();
                let (_, charge) = reader
                    .start(ep, cache, 1, pair, landing, op, &edge)
                    .unwrap();
                let (allocated, latest) = (allocations_on_this_thread() - before, latest());
                assert!(charge.is_none(), "a faulted read leaves nothing in flight");
                if pass == "warm" {
                    continue;
                }
                if cache_stats(cache).unwrap().misses == missed {
                    assert_eq!(allocated, 0, "a hit allocates nothing");
                    continue;
                }
                misses += 1;
                assert_eq!(allocated, 1, "a faulted miss allocates its one Arc");
                match read_row(reader, ep, cache, offsets, 1, v_local).unwrap() {
                    RowRef::Cached(row) => assert!(
                        within(&row, latest),
                        "the cache must hold the miss's one Arc"
                    ),
                    other => panic!("the admitted miss must hit, got {other:?}"),
                }
            }
        }
        assert!(
            rounds.ep.stats().fault_events() > faults,
            "the {pass} pass injected nothing"
        );
        if pass == "warm" {
            rounds.cache.as_mut().unwrap().flush();
        }
    }
    assert!(misses > 0, "the measured pass must miss");
    let stats = rounds.ep.stats();
    assert!(
        stats.checksum_failures > 0 && stats.timeouts > 0,
        "{stats:?}"
    );
    rounds.ep.unlock_all();
}

// ---------------------------------------------------------------------------
// Randomized interleavings of cached / non-cached / local-rank reads.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn reader_interleavings_are_exact_and_consistent(
        accesses in prop::collection::vec((0usize..4, 0usize..64), 1..150),
        cache_bytes in 512usize..(1usize << 16),
        cached in any::<bool>(),
    ) {
        let g = RmatGenerator::paper(8, 8).generate_cleaned(17).into_csr();
        let pg = PartitionedGraph::from_global(&g, PartitionScheme::Block1D, 4).unwrap();
        let windows = GraphWindows::build(&pg);
        let mut config = base_config(4);
        if cached {
            config.cache = Some(CacheSpec::paper(cache_bytes).with_degree_scores());
        }
        let (reader, mut cache) = build_reader(&pg, &windows, &config);
        let mut ep = Endpoint::new(0, 4, config.network);
        ep.lock_all();
        let mut offsets = OwnerOffsets::new(4);
        let mut non_empty_remote_reads = 0u64;
        let mut owners_read = [false; 4];
        for (target, idx) in accesses {
            let part = &pg.partitions[target];
            let idx = idx % part.local_vertex_count();
            let row = read_row(&reader, &mut ep, &mut cache, &mut offsets, target, idx)
                .expect("no faults injected");
            prop_assert_eq!(row.as_slice(), part.neighbours_of_local(idx),
                "target {} idx {}", target, idx);
            if target == 0 {
                prop_assert!(row.is_borrowed(), "own-rank reads must borrow the window");
            } else {
                non_empty_remote_reads += u64::from(!row.is_empty());
                owners_read[target] = true;
            }
        }
        ep.unlock_all();
        let stats = ep.into_stats();
        // Each remote owner's offsets window is one get, the first time one
        // of its rows is read; a row goes to the network on a miss (cached)
        // or whenever it is non-empty.
        let copies = owners_read.iter().filter(|&&read| read).count() as u64;
        match cache_stats(&cache) {
            Some(adj) => {
                prop_assert_eq!(adj.lookups(), adj.hits + adj.misses);
                prop_assert_eq!(adj.lookups(), non_empty_remote_reads);
                prop_assert!(adj.compulsory_misses <= adj.misses);
                // Every uncacheable insert was preceded by a lookup miss.
                prop_assert!(adj.uncacheable <= adj.misses);
                prop_assert_eq!(stats.gets, copies + adj.misses);
            }
            None => prop_assert_eq!(stats.gets, copies + non_empty_remote_reads),
        }
    }
}
