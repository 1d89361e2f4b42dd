//! Acceptance tests of the zero-copy remote-adjacency path: the edge loop at
//! depth 1 is observationally identical to a materializing read
//! loop (same LCC values, same cache statistics, same endpoint counters,
//! `f64` charges included), cache hits and local-rank reads perform no heap
//! allocations, the single miss allocation is handed to the cache without a
//! second copy, and reads nobody retains (non-cached rounds, quarantine
//! bypasses) are read in place, or land in a reused buffer under faults,
//! without allocating at all — however many of them are in flight.

use proptest::prelude::*;
use rmatc::clampi::{CacheStats, RowRef};
use rmatc::core::distributed::reader::{AdjCache, Edge, OffsetSpans, RowReader};
use rmatc::core::distributed::worker::{run_worker, ClosingCount};
use rmatc::core::distributed::{CacheSpec, DistConfig, GraphWindows};
use rmatc::core::intersect::{CostModel, IntersectMethod, Intersector};
use rmatc::core::local::count_closing_at;
use rmatc::graph::gen::{GraphGenerator, RmatGenerator};
use rmatc::graph::partition::{PartitionScheme, PartitionedGraph};
use rmatc::graph::reference;
use rmatc::rma::{Endpoint, NetworkModel, PendingCharge, RankStats, RmaError};
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
}

struct CountingAllocator;

// SAFETY: delegates every operation to `System`; the counter update performs
// no allocation (const-initialized, Drop-free thread-local).
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn allocations_on_this_thread() -> u64 {
    ALLOCATIONS.with(|c| c.get())
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
        retry: rmatc::rma::RetryPolicy::default(),
        faults: None,
        pipeline_depth: 1,
        storage: rmatc::graph::GraphStorage::Plain,
        ..DistConfig::non_cached(ranks)
    }
}

/// Both gets of one row, one pair per row: the offsets pair (a one-key span,
/// the single two-word get of Algorithm 3), then the row.
fn read_row<'r>(
    reader: &'r RowReader,
    ep: &mut Endpoint,
    cache: &mut AdjCache,
    target: usize,
    idx: usize,
) -> Result<RowRef<'r, u32>, RmaError> {
    let mut pairs = Vec::new();
    reader.read_key_spans(ep, &[(target, idx)], &mut Vec::new(), &mut pairs);
    reader.read_row(ep, cache, target, pairs.remove(0)?)
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
/// edge loop: reads every remote row into an owned buffer first
/// (`RowReader::read_row`, waiting for every get), then intersects; each
/// source's offsets pairs are read by span first, as the edge loop does. Protocol order, cache interception and endpoint charging are
/// identical, so every observable statistic must match the edge loop at
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
    let mut spans = OffsetSpans::default();
    ep.lock_all();
    for (local_idx, slot) in triangles.iter_mut().enumerate() {
        let adj_u = part.neighbours_of_local(local_idx);
        reader
            .read_spans(&mut ep, &pg.partitioner, adj_u, &mut spans)
            .expect("no faults injected");
        for (k, &v) in adj_u.iter().enumerate() {
            let owner = pg.partitioner.owner(v);
            let v_local = pg.partitioner.local_index(v);
            *slot += if owner == rank {
                let adj_v = part.neighbours_of_local(v_local);
                count_closing_at(direction, adj_u, adj_v, v, k, &intersector)
            } else {
                let adj_v = reader
                    .read_row(&mut ep, &mut cache, owner, spans.pair(k))
                    .expect("no faults injected")
                    .to_vec();
                count_closing_at(direction, adj_u, &adj_v, v, k, &intersector)
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
                fused.local_triangles, triangles,
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
                    fused.local_triangles[local_idx], expected[gv as usize],
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
    let (mut words, mut pairs) = (Vec::new(), Vec::new());
    let mut read = |ep: &mut Endpoint, cache: &mut AdjCache, target: usize, idx: usize| {
        reader.read_key_spans(ep, &[(target, idx)], &mut words, &mut pairs);
        let pair = pairs[0].clone().unwrap();
        reader.read_row(ep, cache, target, pair).unwrap()
    };
    // Warm: fetch and cache every row and grow the span buffers
    // (allocations expected here).
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
/// the landing buffer, its offsets spans, and a FIFO that keeps up to
/// `in_flight` adjacency charges owed before waiting the oldest — everything
/// preallocated, so a measured pass allocates only what the read path itself
/// allocates. It reads each source's offsets pairs by span, as the edge loop
/// does, and counts the gets those span reads issue.
struct Rounds<'a> {
    pg: &'a PartitionedGraph,
    reader: RowReader,
    cache: AdjCache,
    op: ClosingCount,
    ep: Endpoint,
    landing: Vec<u32>,
    spans: OffsetSpans,
    span_gets: u64,
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
            spans: OffsetSpans::default(),
            span_gets: 0,
            flying: VecDeque::with_capacity(in_flight),
            in_flight,
        }
    }

    /// One protocol round (offsets read + adjacency read + intersection of
    /// the row where it landed) per remote edge of rank 0's first vertices,
    /// up to 64, summed.
    fn run(&mut self) -> u64 {
        let part = &self.pg.partitions[0];
        let (mut total, mut rounds) = (0, 0);
        for local_idx in 0..part.local_vertex_count() {
            if rounds >= 64 {
                break;
            }
            let adj_u = part.neighbours_of_local(local_idx);
            let gets = self.ep.stats().gets;
            self.reader
                .read_spans(&mut self.ep, &self.pg.partitioner, adj_u, &mut self.spans)
                .unwrap();
            self.span_gets += self.ep.stats().gets - gets;
            for (k, &v) in adj_u.iter().enumerate() {
                if self.pg.partitioner.owner(v) != 1 || rounds >= 64 {
                    continue;
                }
                rounds += 1;
                let edge = Edge {
                    slot: 0,
                    source: part.global_ids[local_idx],
                    adj_u,
                    v,
                    k,
                };
                let pair = self.spans.pair(k);
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
    // Offsets by span, as the cached edge loop reads them: the span buffers
    // are reused like the landing buffer.
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
fn non_cached_rounds_allocate_nothing_once_the_landing_buffer_has_grown() {
    // Nobody retains a non-cached read, so a fault-free one — adjacency row
    // or offsets span — is read in place: after the first pass has grown the
    // span buffers to the widest source, a full protocol round performs zero
    // heap allocations — under both storage modes, and with four reads in
    // flight as with one (only cost tickets wait).
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
            assert_eq!(
                rounds.ep.stats().gets,
                2 * gets,
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
    // quarantine. Beside its span reads, every bypassed row is one get.
    let g = RmatGenerator::paper(8, 8).generate_cleaned(9).into_csr();
    let pg = PartitionedGraph::from_global(&g, PartitionScheme::Block1D, 2).unwrap();
    let plan = rmatc::rma::FaultPlan {
        cache_corrupt_p: 1.0,
        ..rmatc::rma::FaultPlan::reliable(5)
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
            let ep = Endpoint::new(0, 2, config.network).with_faults(plan.injector(0));
            let mut rounds = Rounds::new(&pg, &windows, &config, ep, in_flight);
            let clean = rounds.run();
            let sick = rounds.run();
            assert!(
                rounds.ep.stats().cache_bypass_reads > 0,
                "the second pass must quarantine the cache ({storage:?})"
            );
            let (bypasses, gets, span_gets) = (
                rounds.ep.stats().cache_bypass_reads,
                rounds.ep.stats().gets,
                rounds.span_gets,
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
            assert_eq!(
                rounds.ep.stats().gets - gets - (rounds.span_gets - span_gets),
                adjacency_reads,
                "a bypassed row is one get"
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
    // Find a non-empty remote row.
    let idx = (0..pg.partitions[1].local_vertex_count())
        .find(|&i| !pg.partitions[1].neighbours_of_local(i).is_empty())
        .expect("some remote row is non-empty");
    let fetched: Arc<[u32]> = match read_row(&reader, &mut ep, &mut cache, 1, idx).unwrap() {
        RowRef::Fetched(arc) => arc,
        other => panic!("first read must miss, got {other:?}"),
    };
    let cached: Arc<[u32]> = match read_row(&reader, &mut ep, &mut cache, 1, idx).unwrap() {
        RowRef::Cached(arc) => arc,
        other => panic!("second read must hit, got {other:?}"),
    };
    assert!(
        Arc::ptr_eq(&fetched, &cached),
        "the cache must retain the transfer buffer itself — no second copy"
    );
    ep.unlock_all();
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
        let (mut remote_reads, mut non_empty_remote_reads) = (0u64, 0u64);
        for (target, idx) in accesses {
            let part = &pg.partitions[target];
            let idx = idx % part.local_vertex_count();
            let row = read_row(&reader, &mut ep, &mut cache, target, idx)
                .expect("no faults injected");
            prop_assert_eq!(row.as_slice(), part.neighbours_of_local(idx),
                "target {} idx {}", target, idx);
            if target == 0 {
                prop_assert!(row.is_borrowed(), "own-rank reads must borrow the window");
            } else {
                remote_reads += 1;
                non_empty_remote_reads += u64::from(!row.is_empty());
            }
        }
        ep.unlock_all();
        let stats = ep.into_stats();
        // Every remote read gets its offsets pair; its row goes to the
        // network on a miss (cached) or whenever it is non-empty.
        match cache_stats(&cache) {
            Some(adj) => {
                prop_assert_eq!(adj.lookups(), adj.hits + adj.misses);
                prop_assert_eq!(adj.lookups(), non_empty_remote_reads);
                prop_assert!(adj.compulsory_misses <= adj.misses);
                // Every uncacheable insert was preceded by a lookup miss.
                prop_assert!(adj.uncacheable <= adj.misses);
                prop_assert_eq!(stats.gets, remote_reads + adj.misses);
            }
            None => prop_assert_eq!(stats.gets, remote_reads + non_empty_remote_reads),
        }
    }
}
