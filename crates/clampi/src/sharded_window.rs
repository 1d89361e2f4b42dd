//! The CLaMPI front of one rank: the equivalent of linking CLaMPI into an MPI
//! application so that `MPI_Get`s on an enabled window are looked up in the
//! cache before touching the network (steps 5–6 in Figure 3 of the paper).
//!
//! A read is one protocol, split around the transfer so that the caller keeps
//! the get (and may keep it in flight while it computes):
//! [`ShardedCachedWindow::probe`] looks the get up and reports a hit, a miss
//! or a bypass; on a miss the caller issues the get and
//! [`ShardedCachedWindow::admit`]s the landed buffer with the vertex degree as
//! its score. The front never issues a get itself and holds no shard while one
//! is in flight.
//!
//! The front is `&self`, so the worker threads of a multi-threaded rank share
//! *one* cache instead of thrashing private ones. Its budget is split over
//! independently locked [`Clampi`] shards — one per worker thread — each with
//! its own freelist, hash table, clock and statistics, so concurrent reads of
//! different shards proceed in parallel. Keys are routed to shards by a hash
//! that is independent of the in-shard slot hash (so sharding does not skew
//! slot occupancy), and the routing is deterministic: replayed runs hit the
//! same shards. With one shard the split is the identity: every decision and
//! statistic is that of a plain [`Clampi`] driven directly (proved by the unit
//! tests below). With `N` shards each gets `capacity / N` bytes and
//! `⌈slots / N⌉` slots, so total table capacity never shrinks below the
//! configured value. Two threads that miss the same key at once both fetch it;
//! the second admit refreshes the entry the first one inserted.
//!
//! Under fault injection, hits are verified against the checksum stamped at
//! admission, and a cache that keeps serving corrupted entries is
//! **quarantined** — after [`crate::ClampiConfig::quarantine_threshold`]
//! verification failures (counted cache-wide, atomically) every probe reports
//! a bypass, and the caller reads over the plain RMA path, degrading to the
//! paper's non-cached baseline instead of wrong answers. On fault-free runs no
//! checksum is ever computed.

use crate::cache::Clampi;
use crate::config::ClampiConfig;
use crate::entry::EntryKey;
use crate::stats::CacheStats;
use rmatc_rma::fault;
use rmatc_rma::{Endpoint, WindowId};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Outcome of a cache probe (the issue-time half of a read).
#[derive(Debug)]
pub enum CacheProbe<T> {
    /// Served from the cache (verified when faults are enabled); the hit has
    /// been recorded on the endpoint.
    Hit(Arc<[T]>),
    /// Not resident: the caller should issue the get and
    /// [`ShardedCachedWindow::admit`] the landed buffer.
    Miss,
    /// The cache is quarantined: the caller should issue the get over the
    /// plain path and must *not* admit the result. The bypass has been
    /// counted.
    Bypass,
}

/// The cache of one window, shared by every worker thread of one rank
/// (`&self` methods; each thread brings its own [`Endpoint`]).
///
/// Every rank builds its own front over the shared window (the cache is
/// process-local state, exactly as in CLaMPI). Reads targeting the owner's own
/// rank never reach it — they are local memory accesses, not RMA.
#[derive(Debug)]
pub struct ShardedCachedWindow<T> {
    /// The cached window: the first field of every key.
    window: WindowId,
    /// One independently locked cache per worker thread of the rank.
    shards: Vec<Mutex<Clampi<T>>>,
    /// The *unsplit* configuration the front was built from.
    config: ClampiConfig,
    /// Checksum-verification failures observed on hits so far (cache-global).
    corruptions: AtomicU32,
    /// Degraded mode: the cache is no longer consulted or filled.
    quarantined: AtomicBool,
}

/// Locks a shard, recovering from poisoning: a panicking thread may leave a
/// shard mid-operation only between `Clampi` method calls (the shard's own
/// invariants are re-established before each call returns), so the inner
/// cache is still usable.
fn lock<T>(shard: &Mutex<Clampi<T>>) -> MutexGuard<'_, Clampi<T>> {
    shard.lock().unwrap_or_else(PoisonError::into_inner)
}

impl<T: Copy + Send + Sync> ShardedCachedWindow<T> {
    /// Builds the cache of `window` configured by `config`, split over
    /// `shards` shards (clamped to ≥ 1): each shard gets
    /// `capacity_bytes / shards` buffer bytes and `⌈table_slots / shards⌉`
    /// index slots. With exactly 1 the shard is configured identically to
    /// `Clampi::new(config)`.
    pub fn new(window: WindowId, config: ClampiConfig, shards: usize) -> Self {
        let n = shards.max(1);
        let shard_config = ClampiConfig {
            capacity_bytes: config.capacity_bytes / n,
            table_slots: config.table_slots.max(1).div_ceil(n),
            ..config
        };
        Self {
            window,
            shards: (0..n)
                .map(|_| Mutex::new(Clampi::new(shard_config)))
                .collect(),
            config,
            corruptions: AtomicU32::new(0),
            quarantined: AtomicBool::new(false),
        }
    }

    /// The configuration the front was built from (before the shard split).
    pub fn config(&self) -> &ClampiConfig {
        &self.config
    }

    /// Statistics merged across all shards.
    pub fn stats(&self) -> CacheStats {
        let mut merged = CacheStats::default();
        for shard in &self.shards {
            merged.merge(lock(shard).stats());
        }
        merged
    }

    /// Whether the cache has been quarantined after repeated corruption
    /// (every probe now reports [`CacheProbe::Bypass`]).
    pub fn quarantined(&self) -> bool {
        self.quarantined.load(Ordering::Acquire)
    }

    /// The cache key of a `(target, offset, len)` region on this window.
    fn key_for(&self, target: usize, offset: usize, len: usize) -> EntryKey {
        EntryKey::new(self.window, target, offset, len)
    }

    /// Locks the shard that owns `key`. The routing is a splitmix64-style mix
    /// over the key fields — deliberately *not* [`EntryKey::slot`]'s FNV
    /// hash, so the shard index and the in-shard slot index stay
    /// uncorrelated. Like the slot hash it leaves the process-global window
    /// id out.
    fn shard(&self, key: &EntryKey) -> MutexGuard<'_, Clampi<T>> {
        if self.shards.len() == 1 {
            // The single-threaded rank: every read pays this routing, so the
            // identity split skips the hash and the division.
            return lock(&self.shards[0]);
        }
        let mut h: u64 = 0x243f_6a88_85a3_08d3;
        for v in [key.target as u64, key.offset as u64, key.len as u64] {
            h = h.wrapping_add(v).wrapping_add(0x9e37_79b9_7f4a_7c15);
            h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            h ^= h >> 31;
        }
        lock(&self.shards[(h % self.shards.len() as u64) as usize])
    }

    /// Issue-time half of a read of `len` elements at `offset` on `target`:
    /// rolls resident-entry corruption, looks the key up, verifies hits, and
    /// reports what the caller should do — compute from the returned buffer
    /// now, or issue the get and [`ShardedCachedWindow::admit`] the buffer it
    /// lands in. A hit charges only the local access cost to the endpoint; a
    /// corrupted entry is invalidated (never served) and counted towards the
    /// quarantine threshold. Holds the key's shard only for the lookup.
    pub fn probe(
        &self,
        ep: &mut Endpoint,
        target: usize,
        offset: usize,
        len: usize,
    ) -> CacheProbe<T> {
        debug_assert_ne!(target, ep.rank(), "local reads never reach the cache");
        if !self.quarantined() {
            let key = self.key_for(target, offset, len);
            let mut shard = self.shard(&key);
            if let Some(salt) = ep.fault_roll_cache_corrupt() {
                shard.corrupt_entry(key, salt);
            }
            match shard.lookup_entry(key) {
                Some((data, stored)) if self.verify_hit(ep, &mut shard, key, &data, stored) => {
                    ep.record_cache_hit(len * std::mem::size_of::<T>());
                    return CacheProbe::Hit(data);
                }
                None => return CacheProbe::Miss,
                // Verification failed and the entry is gone: refetch it —
                // over the bypass path if this failure quarantined the cache.
                Some(_) if !self.quarantined() => return CacheProbe::Miss,
                Some(_) => {
                    // Flushing every shard from under this one's lock would
                    // self-deadlock.
                    drop(shard);
                    self.flush();
                }
            }
        }
        ep.record_cache_bypass_read();
        CacheProbe::Bypass
    }

    /// Second half of a read: inserts a buffer whose transfer has landed
    /// (and, under fault injection, verified clean) with the
    /// application-defined `score` (for LCC, the degree of the vertex whose
    /// adjacency list was fetched), honouring injected insert rejections and
    /// stamping a checksum when faults are enabled. The buffer itself is
    /// retained — an insert is a refcount bump, never a payload copy. A no-op
    /// if the cache was quarantined while the get was in flight.
    pub fn admit(
        &self,
        ep: &mut Endpoint,
        target: usize,
        offset: usize,
        len: usize,
        arc: Arc<[T]>,
        score: f64,
    ) {
        if self.quarantined() {
            return;
        }
        let key = self.key_for(target, offset, len);
        let mut shard = self.shard(&key);
        if ep.fault_roll_cache_reject() {
            ep.record_cache_rejection();
            return;
        }
        let checksum = ep.faults_enabled().then(|| fault::checksum(&arc));
        shard.insert_with_checksum(key, arc, score, checksum);
    }

    /// Verifies a hit against its admission-time stamp, with the entry's
    /// shard already locked. Returns `true` when the data may be served; on a
    /// mismatch the entry is invalidated in place, the failure is counted,
    /// and reaching the configured threshold sets the quarantine flag.
    fn verify_hit(
        &self,
        ep: &mut Endpoint,
        shard: &mut Clampi<T>,
        key: EntryKey,
        data: &[T],
        stored: Option<u64>,
    ) -> bool {
        if !ep.faults_enabled() {
            return true;
        }
        let Some(stamp) = stored else {
            // Admitted before faults were enabled: nothing to verify against.
            return true;
        };
        if fault::checksum(data) == stamp {
            return true;
        }
        shard.invalidate(key);
        ep.record_cache_invalidation();
        let seen = self.corruptions.fetch_add(1, Ordering::AcqRel) + 1;
        if seen >= self.config.quarantine_threshold {
            self.quarantined.store(true, Ordering::Release);
        }
        false
    }

    /// Records one compressed row moving through the cache (`logical`
    /// decoded bytes stored as `stored` compressed bytes), attributed to the
    /// shard that owns the `(target, offset, len)` region's key; the caller
    /// that knows the row encoding reports the sizes after a miss transfer.
    pub fn record_compression(
        &self,
        target: usize,
        offset: usize,
        len: usize,
        logical: u64,
        stored: u64,
    ) {
        let key = self.key_for(target, offset, len);
        self.shard(&key).record_compression(logical, stored);
    }

    /// Flushes every shard.
    pub fn flush(&self) {
        for shard in &self.shards {
            lock(shard).flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rmatc_rma::fault::{FaultPlan, RetryPolicy};
    use rmatc_rma::{NetworkModel, Window};

    fn setup() -> (Window<u32>, Endpoint) {
        let window = Window::from_parts(vec![(0..100u32).collect(), (1000..1100u32).collect()]);
        let mut ep = Endpoint::new(0, 2, NetworkModel::aries());
        ep.lock_all();
        (window, ep)
    }

    fn faulted_endpoint(plan: FaultPlan) -> Endpoint {
        let mut ep = Endpoint::new(0, 2, NetworkModel::aries())
            .with_retry(RetryPolicy {
                max_attempts: 32,
                ..RetryPolicy::default()
            })
            .with_faults(plan.injector(0));
        ep.lock_all();
        ep
    }

    fn front(
        window: &Window<u32>,
        config: ClampiConfig,
        shards: usize,
    ) -> ShardedCachedWindow<u32> {
        ShardedCachedWindow::new(window.id(), config, shards)
    }

    /// One read through the protocol: probe, fetch on a miss or a bypass,
    /// admit a miss's buffer.
    fn read(
        scw: &ShardedCachedWindow<u32>,
        ep: &mut Endpoint,
        window: &Window<u32>,
        (offset, len): (usize, usize),
        score: f64,
    ) -> Arc<[u32]> {
        match scw.probe(ep, 1, offset, len) {
            CacheProbe::Hit(row) => row,
            CacheProbe::Miss => {
                let row = ep.get_with_retry(window, 1, offset, len).unwrap();
                scw.admit(ep, 1, offset, len, Arc::clone(&row), score);
                row
            }
            CacheProbe::Bypass => ep.get_with_retry(window, 1, offset, len).unwrap(),
        }
    }

    /// Entries resident across all shards.
    fn resident(scw: &ShardedCachedWindow<u32>) -> usize {
        scw.shards.iter().map(|s| lock(s).len()).sum()
    }

    #[test]
    fn budget_splits_across_shards_without_losing_slots() {
        let config = ClampiConfig::always_cache(1024, 70);
        let scw: ShardedCachedWindow<u32> = ShardedCachedWindow::new(WindowId(0), config, 4);
        assert_eq!(scw.shards.len(), 4);
        let total_slots: usize = scw
            .shards
            .iter()
            .map(|s| lock(s).config().table_slots)
            .sum();
        assert!(
            total_slots >= 70,
            "div_ceil split must not shrink the table"
        );
        assert_eq!(lock(&scw.shards[0]).config().capacity_bytes, 256);
        assert_eq!(
            *scw.config(),
            config,
            "the front reports the unsplit budget"
        );
        // One shard is configured like the plain cache; zero clamps to one.
        for shards in [1, 0] {
            let scw: ShardedCachedWindow<u32> =
                ShardedCachedWindow::new(WindowId(0), config, shards);
            assert_eq!(scw.shards.len(), 1);
            assert_eq!(*lock(&scw.shards[0]).config(), config);
        }
    }

    #[test]
    fn shard_routing_is_deterministic_spread_and_ignores_the_window() {
        // The same reads under two window ids leave identical per-shard
        // statistics, and 1000 keys touch every shard.
        let config = ClampiConfig::always_cache(1 << 16, 1024);
        let mut ep = Endpoint::new(0, 2, NetworkModel::zero());
        let per_shard = |window: WindowId, ep: &mut Endpoint| {
            let scw: ShardedCachedWindow<u32> = ShardedCachedWindow::new(window, config, 8);
            for off in 0..1000 {
                if let CacheProbe::Miss = scw.probe(ep, 1, off, 4) {
                    scw.admit(ep, 1, off, 4, Arc::from(vec![0u32; 4]), 0.0);
                }
            }
            scw.shards
                .iter()
                .map(|s| lock(s).stats().clone())
                .collect::<Vec<_>>()
        };
        let a = per_shard(WindowId(0), &mut ep);
        assert_eq!(a, per_shard(WindowId(12_345), &mut ep));
        assert!(a.iter().all(|s| s.misses > 0), "every shard is used: {a:?}");
        assert_eq!(a.iter().map(|s| s.misses).sum::<u64>(), 1000);
    }

    #[test]
    fn one_shard_matches_a_plain_cache_driven_directly() {
        // The reference is the interception protocol spelled out over a plain
        // `Clampi`: lookup, hit accounting, fetch on a miss, insert. One shard
        // must reproduce its cache statistics and its endpoint statistics —
        // through an eviction-heavy budget, so placement decisions count.
        let (window, mut ep) = setup();
        let config = ClampiConfig::always_cache(256, 8).with_application_scores();
        let scw = front(&window, config, 1);
        let mut cache: Clampi<u32> = Clampi::new(config);
        let mut ep2 = Endpoint::new(0, 2, NetworkModel::aries());
        ep2.lock_all();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for i in 0..300usize {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let region = (state >> 33) as usize % 24;
            let (offset, len) = (region * 3, 1 + region % 12);
            let score = len as f64;
            let a = read(&scw, &mut ep, &window, (offset, len), score);
            let key = EntryKey::new(window.id(), 1, offset, len);
            let b = match cache.lookup_entry(key) {
                Some((data, _)) => {
                    ep2.record_cache_hit(len * 4);
                    data
                }
                None => {
                    let arc = ep2.get_with_retry(&window, 1, offset, len).unwrap();
                    cache.insert_with_checksum(key, Arc::clone(&arc), score, None);
                    arc
                }
            };
            assert_eq!(a, b, "read {i}");
        }
        let stats = scw.stats();
        assert!(stats.hits > 0 && stats.evictions() > 0, "{stats:?}");
        assert_eq!(stats, *cache.stats(), "1 shard ≡ plain cache");
        assert_eq!(ep.stats(), ep2.stats());
    }

    #[derive(Debug, Clone)]
    enum Op {
        /// Probe `(offset, len)`; on a miss, admit `len` words with `score`.
        Access {
            offset: usize,
            len: usize,
            score: f64,
        },
        /// Explicit flush.
        Flush,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        // 90% accesses, 10% flushes (the vendored proptest stub has no
        // `prop_oneof!`, so the selector is mapped by hand).
        (0u32..10, 0usize..48, 1usize..12, 0u32..1000).prop_map(|(sel, offset, len, score)| {
            match sel {
                9 => Op::Flush,
                _ => Op::Access {
                    offset,
                    len,
                    score: score as f64,
                },
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The front with one shard is the identity split: probing and
        /// admitting through it must match a plain `Clampi` on every
        /// observable, under both score rules.
        #[test]
        fn single_shard_matches_plain_cache(
            ops in prop::collection::vec(op_strategy(), 1..300),
            capacity in 32usize..2048,
            slots in 1usize..96,
            use_scores in any::<bool>(),
        ) {
            let mut cfg = ClampiConfig::always_cache(capacity, slots);
            if use_scores {
                cfg = cfg.with_application_scores();
            }
            let mut plain: Clampi<u32> = Clampi::new(cfg);
            let scw: ShardedCachedWindow<u32> = ShardedCachedWindow::new(WindowId(0), cfg, 1);
            let mut ep = Endpoint::new(0, 2, NetworkModel::zero());
            for (i, op) in ops.into_iter().enumerate() {
                match op {
                    Op::Access { offset, len, score } => {
                        let plain_hit = plain.lookup(EntryKey::new(WindowId(0), 1, offset, len));
                        let probe = scw.probe(&mut ep, 1, offset, len);
                        prop_assert_eq!(
                            plain_hit.is_some(),
                            matches!(probe, CacheProbe::Hit(_)),
                            "lookup {} diverged",
                            i
                        );
                        if plain_hit.is_none() {
                            let data: Arc<[u32]> = (0..len as u32).collect();
                            plain.insert(EntryKey::new(WindowId(0), 1, offset, len), Arc::clone(&data), score);
                            scw.admit(&mut ep, 1, offset, len, data, score);
                        }
                    }
                    Op::Flush => {
                        plain.flush();
                        scw.flush();
                    }
                }
                let shard = lock(&scw.shards[0]);
                prop_assert_eq!(plain.len(), shard.len());
                prop_assert_eq!(plain.occupied_bytes(), shard.occupied_bytes());
                prop_assert_eq!(plain.stats(), shard.stats(), "op {}", i);
            }
        }
    }

    #[test]
    fn concurrent_probes_and_admits_over_overlapping_keys() {
        // The threaded edge loop's protocol: four threads with their own
        // endpoints share one eight-shard front and read overlapping keys
        // (each thread's range overlaps the next thread's by half), so
        // lookups, admissions, evictions and same-key misses race.
        const READS: usize = 400;
        let (window, _) = setup();
        let scw = front(&window, ClampiConfig::always_cache(1024, 64), 8);
        let gets: u64 = std::thread::scope(|scope| {
            let threads: Vec<_> = (0..4usize)
                .map(|t| {
                    let (scw, window) = (&scw, &window);
                    scope.spawn(move || {
                        let mut ep = Endpoint::new(0, 2, NetworkModel::zero());
                        ep.lock_all();
                        for i in 0..READS {
                            let offset = t * 10 + i * 7 % 20;
                            let len = 1 + (i + t) % 8;
                            let row = read(scw, &mut ep, window, (offset, len), len as f64);
                            let expected: Vec<u32> = (1000 + offset as u32..).take(len).collect();
                            assert_eq!(*row, expected[..], "thread {t}, read {i}");
                        }
                        ep.unlock_all();
                        ep.stats().gets
                    })
                })
                .collect();
            threads.into_iter().map(|h| h.join().unwrap()).sum()
        });
        let stats = scw.stats();
        assert_eq!(stats.hits + stats.misses, stats.lookups());
        assert_eq!(stats.lookups(), 4 * READS as u64, "one lookup per read");
        assert_eq!(gets, stats.misses, "every miss is one get, every hit none");
        assert!(stats.hits > 0 && stats.evictions() > 0, "{stats:?}");
    }

    #[test]
    fn miss_buffer_is_handed_to_the_cache_without_a_copy() {
        let (window, mut ep) = setup();
        let scw = front(&window, ClampiConfig::always_cache(4096, 64), 4);
        assert!(matches!(scw.probe(&mut ep, 1, 10, 5), CacheProbe::Miss));
        // The pipelined flight: issue, wait, admit at completion.
        let pending = ep.get(&window, 1, 10, 5).unwrap();
        let fetched = pending.wait(&mut ep).unwrap();
        scw.admit(&mut ep, 1, 10, 5, Arc::clone(&fetched), 0.0);
        let miss_time = ep.stats().comm_time_ns;
        let cached = match scw.probe(&mut ep, 1, 10, 5) {
            CacheProbe::Hit(arc) => arc,
            other => panic!("second read must be a hit, got {other:?}"),
        };
        assert!(
            Arc::ptr_eq(&fetched, &cached),
            "the cache must retain the transfer buffer itself, not a copy"
        );
        assert_eq!(&*cached, &[1010, 1011, 1012, 1013, 1014]);
        assert_eq!(ep.stats().gets, 1, "the hit stays off the network");
        assert_eq!(
            ep.stats().comm_time_ns,
            miss_time,
            "hits charge no network time"
        );
        assert!(ep.stats().local_time_ns > 0.0);
        let stats = scw.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        ep.unlock_all();
    }

    #[test]
    fn data_is_correct_even_when_not_cacheable() {
        let (window, mut ep) = setup();
        // 8-byte capacity: a 50-element read can never be cached.
        let scw = front(&window, ClampiConfig::always_cache(8, 4), 1);
        let a = read(&scw, &mut ep, &window, (0, 50), 0.0);
        assert_eq!(a.len(), 50);
        assert_eq!(a[0], 1000);
        let b = read(&scw, &mut ep, &window, (0, 50), 0.0);
        assert_eq!(a, b);
        assert_eq!(scw.stats().uncacheable, 2);
        assert_eq!(ep.stats().gets, 2, "both reads go to the network");
    }

    #[test]
    fn flush_forces_refetch() {
        let (window, mut ep) = setup();
        let scw = front(&window, ClampiConfig::always_cache(4096, 64), 1);
        read(&scw, &mut ep, &window, (0, 4), 0.0);
        read(&scw, &mut ep, &window, (0, 4), 0.0);
        assert_eq!(scw.stats().hits, 1, "the second read hits");
        scw.flush();
        read(&scw, &mut ep, &window, (0, 4), 0.0);
        assert_eq!(ep.stats().gets, 2, "a flush forces a refetch");
    }

    #[test]
    fn corrupted_hits_are_invalidated_and_refetched() {
        let (window, _) = setup();
        // Every lookup rots the resident entry; a high threshold keeps the
        // cache out of quarantine for this test.
        let plan = FaultPlan {
            cache_corrupt_p: 1.0,
            ..FaultPlan::reliable(11)
        };
        let mut ep = faulted_endpoint(plan);
        let cfg = ClampiConfig::always_cache(4096, 64).with_quarantine_threshold(1_000);
        let scw = front(&window, cfg, 1);
        let clean = read(&scw, &mut ep, &window, (10, 5), 0.0);
        assert_eq!(*clean, [1010, 1011, 1012, 1013, 1014]);
        for _ in 0..5 {
            // The hit is corrupted every time: never served, always refetched.
            let again = read(&scw, &mut ep, &window, (10, 5), 0.0);
            assert_eq!(again, clean, "corrupted data must never be served");
        }
        assert_eq!(ep.stats().cache_invalidations, 5);
        assert_eq!(scw.stats().invalidations, 5);
        assert_eq!(ep.stats().gets as usize, 6, "each invalidation refetches");
        assert!(!scw.quarantined());
    }

    #[test]
    fn injected_insert_rejections_keep_data_correct() {
        let (window, _) = setup();
        let plan = FaultPlan {
            cache_reject_p: 1.0,
            ..FaultPlan::reliable(13)
        };
        let mut ep = faulted_endpoint(plan);
        let scw = front(&window, ClampiConfig::always_cache(4096, 64), 1);
        for _ in 0..3 {
            let data = read(&scw, &mut ep, &window, (20, 4), 0.0);
            assert_eq!(*data, [1020, 1021, 1022, 1023]);
        }
        assert_eq!(resident(&scw), 0, "every insert was rejected");
        assert_eq!(ep.stats().cache_rejections, 3);
        assert_eq!(ep.stats().gets, 3, "every read went to the network");
    }

    #[test]
    fn corrupted_hits_quarantine_and_degrade_to_bypass() {
        let (window, _) = setup();
        let plan = FaultPlan {
            cache_corrupt_p: 1.0,
            ..FaultPlan::reliable(21)
        };
        let mut ep = faulted_endpoint(plan);
        let cfg = ClampiConfig::always_cache(4096, 64).with_quarantine_threshold(3);
        let scw = front(&window, cfg, 4);
        let clean = read(&scw, &mut ep, &window, (0, 8), 0.0);
        let mut reads = 0;
        while !scw.quarantined() {
            let again = read(&scw, &mut ep, &window, (0, 8), 0.0);
            assert_eq!(again, clean, "corrupted data must never be served");
            reads += 1;
            assert!(reads < 100, "three corruptions must quarantine");
        }
        assert_eq!(ep.stats().cache_invalidations, 3);
        assert_eq!(resident(&scw), 0, "quarantine flushes every shard");
        // Degraded mode: the paper's non-cached baseline — every read is a
        // plain RMA get, still correct, with bypasses counted and the cache
        // no longer consulted. (The read that tripped the threshold already
        // completed through the bypass path.)
        let (bypasses, gets) = (ep.stats().cache_bypass_reads, ep.stats().gets);
        let lookups_frozen = scw.stats().lookups();
        for _ in 0..4 {
            assert_eq!(read(&scw, &mut ep, &window, (0, 8), 0.0), clean);
        }
        assert_eq!(ep.stats().cache_bypass_reads, bypasses + 4);
        assert_eq!(ep.stats().gets, gets + 4, "a bypass read is one plain get");
        assert_eq!(scw.stats().lookups(), lookups_frozen, "cache not consulted");
        // Admit is a no-op too.
        scw.admit(&mut ep, 1, 0, 8, Arc::from(vec![0u32; 8]), 0.0);
        assert_eq!(resident(&scw), 0);
        ep.unlock_all();
    }
}
