//! Get interception: the equivalent of linking CLaMPI into an MPI application
//! so that `MPI_Get`s on an enabled window are looked up in the cache before
//! touching the network (steps 5–6 in Figure 3 of the paper). The window is
//! `&self` over a lock-sharded [`ShardedClampi`], so the worker threads of a
//! multi-threaded rank intercept gets through *one* shared cache instead of
//! thrashing private ones; a single-threaded rank builds it with one shard,
//! where every decision and statistic is that of a plain [`Clampi`] driven
//! directly (the shard split is the identity — proved by the unit tests below
//! and `tests/proptests.rs`).
//!
//! Two read styles are offered:
//!
//! * **Synchronous** ([`ShardedCachedWindow::get_scored`]) — the full
//!   lookup → fetch → insert round with the key's shard held across all three
//!   steps, so concurrent misses on the *same* key coalesce: the second thread
//!   blocks on the shard mutex and then finds a hit instead of fetching twice.
//!   Keys on other shards proceed in parallel throughout.
//! * **Split** ([`ShardedCachedWindow::probe`] +
//!   [`ShardedCachedWindow::admit`]) — the edge loop's path: probe at issue
//!   time, keep the get in flight while computing, insert the landed buffer.
//!   No shard is held while a get is in flight.
//!
//! The read methods are fallible: misses go through the endpoint's
//! self-healing retry path, hits are verified against the checksum stamped at
//! insert time (when fault injection is enabled), and a cache that keeps
//! serving corrupted entries is **quarantined** — after
//! [`crate::ClampiConfig::quarantine_threshold`] verification failures
//! (counted cache-wide, atomically) every read bypasses the cache over the
//! plain RMA path, degrading to the paper's non-cached baseline instead of
//! wrong answers. On fault-free runs no checksum is ever computed.

use crate::cache::Clampi;
use crate::config::ClampiConfig;
use crate::entry::EntryKey;
use crate::row::RowRef;
use crate::sharded::ShardedClampi;
use crate::stats::CacheStats;
use rmatc_rma::fault;
use rmatc_rma::{Endpoint, RmaError, Window};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;

/// Outcome of a cache probe (the issue-time half of a split read).
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

/// A caching wrapper around an RMA [`Window`], shared by every worker thread
/// of one rank (`&self` methods; each thread brings its own [`Endpoint`]).
///
/// Every rank constructs its own wrapper over the shared window (the cache is
/// process-local state, exactly as in CLaMPI). Reads targeting the owner's own
/// rank bypass the cache — they are local memory accesses, not RMA.
#[derive(Debug)]
pub struct ShardedCachedWindow<T> {
    window: Window<T>,
    cache: ShardedClampi<T>,
    /// Checksum-verification failures observed on hits so far (cache-global).
    corruptions: AtomicU32,
    /// Degraded mode: the cache is no longer consulted or filled.
    quarantined: AtomicBool,
}

impl<T: Copy + Send + Sync> ShardedCachedWindow<T> {
    /// Wraps `window` with a cache configured by `config`, split over
    /// `shards` independently locked shards (clamped to ≥ 1; see
    /// [`ShardedClampi::new`] for the budget split).
    pub fn new(window: Window<T>, config: ClampiConfig, shards: usize) -> Self {
        Self {
            window,
            cache: ShardedClampi::new(config, shards),
            corruptions: AtomicU32::new(0),
            quarantined: AtomicBool::new(false),
        }
    }

    /// The underlying window.
    pub fn window(&self) -> &Window<T> {
        &self.window
    }

    /// The sharded cache itself (for inspection in tests and reports).
    pub fn cache(&self) -> &ShardedClampi<T> {
        &self.cache
    }

    /// Statistics merged across all shards.
    pub fn stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Whether the cache has been quarantined after repeated corruption
    /// (every read now takes the plain, non-cached RMA path).
    pub fn quarantined(&self) -> bool {
        self.quarantined.load(Ordering::Acquire)
    }

    /// The cache key of a `(target, offset, len)` region on this window.
    fn key_for(&self, target: usize, offset: usize, len: usize) -> EntryKey {
        EntryKey::new(self.window.id(), target, offset, len)
    }

    /// Reads `len` elements at `offset` from `target`, passing an
    /// application-defined score for the entry (the paper's extension: for
    /// LCC, the degree of the vertex whose adjacency list is being fetched).
    /// On a hit only the local access cost is charged to the endpoint; on a
    /// miss the real RMA get is issued, waited for, and the fetched buffer
    /// itself is inserted into the cache with the given score — with the
    /// key's shard held across lookup → fetch → insert, so concurrent
    /// same-key misses coalesce into one fetch.
    ///
    /// The read is zero-copy end to end: local-rank reads borrow the window
    /// ([`RowRef::Window`]), hits share the cached buffer
    /// ([`RowRef::Cached`]), and a miss performs exactly one allocation — the
    /// transfer buffer, which is handed to the cache by refcount and returned
    /// as [`RowRef::Fetched`] (so it stays valid even if the entry is evicted
    /// immediately, e.g. when it does not fit).
    ///
    /// Under fault injection, hits are checksum-verified: a corrupted entry
    /// is invalidated (never served), refetched over the network, and counted
    /// towards the quarantine threshold.
    ///
    /// # Errors
    ///
    /// [`RmaError::RetriesExhausted`] when a miss's network read failed every
    /// attempt allowed by the endpoint's retry policy.
    pub fn get_scored(
        &self,
        ep: &mut Endpoint,
        target: usize,
        offset: usize,
        len: usize,
        score: f64,
    ) -> Result<RowRef<'_, T>, RmaError> {
        if target == ep.rank() {
            // Local partition: served from local memory, never cached (caching
            // it would only duplicate memory the rank already holds).
            return Ok(RowRef::Window(ep.local_read(&self.window, offset, len)));
        }
        let key = self.key_for(target, offset, len);
        if !self.quarantined() {
            let resolved = self.cache.with_shard(&key, |shard| {
                match self.lookup_locked(ep, shard, key) {
                    CacheProbe::Hit(data) => Some(Ok(RowRef::Cached(data))),
                    // Miss: fetch with the shard held, so a concurrent
                    // same-key miss waits on the mutex and then finds a hit.
                    CacheProbe::Miss => Some(
                        ep.get_with_retry(&self.window, target, offset, len)
                            .map(|arc| {
                                self.admit_locked(ep, shard, key, Arc::clone(&arc), score);
                                RowRef::Fetched(arc)
                            }),
                    ),
                    CacheProbe::Bypass => None,
                }
            });
            match resolved {
                Some(done) => return done,
                // Newly quarantined: flush outside the shard lock.
                None => self.cache.flush(),
            }
        }
        ep.record_cache_bypass_read();
        let arc = ep.get_with_retry(&self.window, target, offset, len)?;
        Ok(RowRef::Fetched(arc))
    }

    /// Issue-time half of a split read: rolls resident-entry corruption,
    /// looks the key up, verifies hits, and reports what the caller should do
    /// — compute from the returned buffer now, or issue the get and
    /// [`ShardedCachedWindow::admit`] the buffer it lands in. Holds the shard
    /// only for the lookup; the flight window runs lock-free.
    pub fn probe(
        &self,
        ep: &mut Endpoint,
        target: usize,
        offset: usize,
        len: usize,
    ) -> CacheProbe<T> {
        debug_assert_ne!(target, ep.rank(), "local reads never reach the cache");
        if self.quarantined() {
            ep.record_cache_bypass_read();
            return CacheProbe::Bypass;
        }
        let key = self.key_for(target, offset, len);
        let probe = self
            .cache
            .with_shard(&key, |shard| self.lookup_locked(ep, shard, key));
        if matches!(probe, CacheProbe::Bypass) {
            // Newly quarantined: flush outside the shard lock.
            self.cache.flush();
            ep.record_cache_bypass_read();
        }
        probe
    }

    /// The lookup every read shares, with the key's shard already locked:
    /// injected-rot roll, index lookup, hit verification, hit accounting.
    /// [`CacheProbe::Bypass`] here means verification just tripped the
    /// quarantine threshold — the *caller* flushes after releasing the shard
    /// (flushing all shards from under one shard's lock would self-deadlock).
    fn lookup_locked(
        &self,
        ep: &mut Endpoint,
        shard: &mut Clampi<T>,
        key: EntryKey,
    ) -> CacheProbe<T> {
        if let Some(salt) = ep.fault_roll_cache_corrupt() {
            shard.corrupt_entry(key, salt);
        }
        match shard.lookup_entry(key) {
            Some((data, stored)) if self.verify_hit_locked(ep, shard, key, &data, stored) => {
                ep.record_cache_hit(key.len * std::mem::size_of::<T>());
                CacheProbe::Hit(data)
            }
            // Verification failed: the entry is gone. Refetch — over the
            // bypass path if this failure quarantined the cache.
            Some(_) if self.quarantined() => CacheProbe::Bypass,
            _ => CacheProbe::Miss,
        }
    }

    /// Second half of a split read: inserts a buffer whose transfer has
    /// landed (and, under fault injection, verified clean), honouring
    /// injected insert rejections and stamping a checksum exactly like the
    /// synchronous miss path. A no-op if the cache was quarantined while the
    /// get was in flight.
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
        self.cache
            .with_shard(&key, |shard| self.admit_locked(ep, shard, key, arc, score));
    }

    /// The shared insert tail: injected-rejection roll, checksum stamp,
    /// insert into the already locked shard.
    fn admit_locked(
        &self,
        ep: &mut Endpoint,
        shard: &mut Clampi<T>,
        key: EntryKey,
        arc: Arc<[T]>,
        score: f64,
    ) {
        if ep.fault_roll_cache_reject() {
            ep.record_cache_rejection();
            return;
        }
        let checksum = ep.faults_enabled().then(|| fault::checksum(&arc));
        shard.insert_with_checksum(key, arc, score, checksum);
    }

    /// Verifies a hit against its insert-time stamp, with the entry's shard
    /// already locked. Returns `true` when the data may be served; on a
    /// mismatch the entry is invalidated in place, the failure is counted,
    /// and reaching the configured threshold sets the quarantine flag.
    fn verify_hit_locked(
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
            // Inserted before faults were enabled (or by a caller that did
            // not stamp): nothing to verify against.
            return true;
        };
        if fault::checksum(data) == stamp {
            return true;
        }
        shard.invalidate(key);
        ep.record_cache_invalidation();
        let seen = self.corruptions.fetch_add(1, Ordering::AcqRel) + 1;
        if seen >= shard.config().quarantine_threshold {
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
        self.cache.record_compression(&key, logical, stored);
    }

    /// Flushes every shard.
    pub fn flush(&self) {
        self.cache.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmatc_rma::fault::{FaultPlan, RetryPolicy};
    use rmatc_rma::NetworkModel;

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

    fn one_shard(window: Window<u32>, config: ClampiConfig) -> ShardedCachedWindow<u32> {
        ShardedCachedWindow::new(window, config, 1)
    }

    #[test]
    fn one_shard_matches_a_plain_cache_driven_directly() {
        // The reference is the interception protocol spelled out over a plain
        // `Clampi`: lookup, hit accounting, fetch on a miss, insert. One shard
        // must reproduce its cache statistics and its endpoint statistics —
        // through an eviction-heavy budget, so placement decisions count.
        let (window, mut ep) = setup();
        let config = ClampiConfig::always_cache(256, 8).with_application_scores();
        let scw = one_shard(window.clone(), config);
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
            let a = scw.get_scored(&mut ep, 1, offset, len, score).unwrap();
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
            assert_eq!(a.as_slice(), &*b, "read {i}");
            // Local reads bypass both caches identically.
            let la = scw.get_scored(&mut ep, 0, 3, 4, 0.0).unwrap();
            assert!(la.is_borrowed(), "local reads must borrow the window");
            assert_eq!(la.as_slice(), ep2.local_read(&window, 3, 4));
        }
        let stats = scw.stats();
        assert!(stats.hits > 0 && stats.evictions() > 0, "{stats:?}");
        assert_eq!(stats, *cache.stats(), "1 shard ≡ plain cache");
        assert_eq!(ep.stats(), ep2.stats());
    }

    #[test]
    fn miss_buffer_is_handed_to_the_cache_without_a_copy() {
        let (window, mut ep) = setup();
        let cw = one_shard(window, ClampiConfig::always_cache(4096, 64));
        let fetched = match cw.get_scored(&mut ep, 1, 10, 5, 0.0).unwrap() {
            RowRef::Fetched(arc) => arc,
            other => panic!("first read must be a miss, got {other:?}"),
        };
        let miss_time = ep.stats().comm_time_ns;
        let cached = match cw.get_scored(&mut ep, 1, 10, 5, 0.0).unwrap() {
            RowRef::Cached(arc) => arc,
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
    }

    #[test]
    fn data_is_correct_even_when_not_cacheable() {
        let (window, mut ep) = setup();
        // 8-byte capacity: a 50-element read can never be cached.
        let cw = one_shard(window, ClampiConfig::always_cache(8, 4));
        let a = cw.get_scored(&mut ep, 1, 0, 50, 0.0).unwrap().to_vec();
        assert_eq!(a.len(), 50);
        assert_eq!(a[0], 1000);
        let b = cw.get_scored(&mut ep, 1, 0, 50, 0.0).unwrap().to_vec();
        assert_eq!(a, b);
        assert_eq!(cw.stats().uncacheable, 2);
        assert_eq!(ep.stats().gets, 2, "both reads go to the network");
    }

    #[test]
    fn flush_forces_refetch() {
        let (window, mut ep) = setup();
        let cw = one_shard(window, ClampiConfig::always_cache(4096, 64));
        let _ = cw.get_scored(&mut ep, 1, 0, 4, 0.0).unwrap();
        let _ = cw.get_scored(&mut ep, 1, 0, 4, 0.0).unwrap();
        assert_eq!(cw.stats().hits, 1, "the second read hits");
        cw.flush();
        let _ = cw.get_scored(&mut ep, 1, 0, 4, 0.0).unwrap();
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
        let cw = one_shard(window, cfg);
        let clean = cw.get_scored(&mut ep, 1, 10, 5, 0.0).unwrap().to_vec();
        assert_eq!(clean, vec![1010, 1011, 1012, 1013, 1014]);
        for _ in 0..5 {
            // The hit is corrupted every time: never served, always refetched.
            let again = cw.get_scored(&mut ep, 1, 10, 5, 0.0).unwrap().to_vec();
            assert_eq!(again, clean, "corrupted data must never be served");
        }
        assert_eq!(ep.stats().cache_invalidations, 5);
        assert_eq!(cw.stats().invalidations, 5);
        assert_eq!(ep.stats().gets as usize, 6, "each invalidation refetches");
        assert!(!cw.quarantined());
    }

    #[test]
    fn injected_insert_rejections_keep_data_correct() {
        let (window, _) = setup();
        let plan = FaultPlan {
            cache_reject_p: 1.0,
            ..FaultPlan::reliable(13)
        };
        let mut ep = faulted_endpoint(plan);
        let cw = one_shard(window, ClampiConfig::always_cache(4096, 64));
        for _ in 0..3 {
            let data = cw.get_scored(&mut ep, 1, 20, 4, 0.0).unwrap().to_vec();
            assert_eq!(data, vec![1020, 1021, 1022, 1023]);
        }
        assert!(cw.cache().is_empty(), "every insert was rejected");
        assert_eq!(ep.stats().cache_rejections, 3);
        assert_eq!(ep.stats().gets, 3, "every read went to the network");
    }

    #[test]
    fn probe_admit_split_reads_serve_hits_after_admission() {
        let (window, mut ep) = setup();
        let scw = ShardedCachedWindow::new(window.clone(), ClampiConfig::always_cache(4096, 64), 4);
        assert!(matches!(scw.probe(&mut ep, 1, 10, 5), CacheProbe::Miss));
        // Simulate the pipelined flight: issue, wait, admit at completion.
        let pending = ep.get(&window, 1, 10, 5).unwrap();
        let arc = pending.wait(&mut ep).unwrap();
        scw.admit(&mut ep, 1, 10, 5, Arc::clone(&arc), 0.0);
        match scw.probe(&mut ep, 1, 10, 5) {
            CacheProbe::Hit(data) => assert!(Arc::ptr_eq(&data, &arc), "zero-copy handover"),
            other => panic!("expected a hit after admit, got {other:?}"),
        }
        let stats = scw.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        ep.unlock_all();
    }

    #[test]
    fn concurrent_same_key_misses_coalesce_into_one_fetch() {
        let (window, _) = setup();
        let scw = Arc::new(ShardedCachedWindow::new(
            window,
            ClampiConfig::always_cache(1 << 16, 256),
            8,
        ));
        let total_gets = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let scw = Arc::clone(&scw);
                let total_gets = &total_gets;
                scope.spawn(move || {
                    let mut ep = Endpoint::new(0, 2, NetworkModel::aries());
                    ep.lock_all();
                    for _ in 0..50 {
                        // All threads hammer the same key: the shard-held
                        // fetch means exactly one get can ever be issued.
                        let row = scw.get_scored(&mut ep, 1, 0, 8, 0.0).unwrap();
                        assert_eq!(row[0], 1000);
                    }
                    ep.unlock_all();
                    total_gets.fetch_add(ep.stats().gets, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(
            total_gets.load(Ordering::Relaxed),
            1,
            "same-key concurrent misses must coalesce into a single fetch"
        );
        let stats = scw.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 4 * 50 - 1);
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
        let scw = ShardedCachedWindow::new(window, cfg, 4);
        let clean = scw.get_scored(&mut ep, 1, 0, 8, 0.0).unwrap().to_vec();
        let mut reads = 0;
        while !scw.quarantined() {
            let again = scw.get_scored(&mut ep, 1, 0, 8, 0.0).unwrap().to_vec();
            assert_eq!(again, clean, "corrupted data must never be served");
            reads += 1;
            assert!(reads < 100, "three corruptions must quarantine");
        }
        assert_eq!(ep.stats().cache_invalidations, 3);
        assert!(scw.cache().is_empty(), "quarantine flushes every shard");
        // Degraded mode: the paper's non-cached baseline — every read is a
        // plain RMA get, still correct, with bypasses counted and the cache
        // no longer consulted. (The read that tripped the threshold already
        // completed through the bypass path.)
        let (bypasses, gets) = (ep.stats().cache_bypass_reads, ep.stats().gets);
        let lookups_frozen = scw.stats().lookups();
        for _ in 0..4 {
            assert_eq!(
                scw.get_scored(&mut ep, 1, 0, 8, 0.0).unwrap().to_vec(),
                clean
            );
        }
        assert_eq!(ep.stats().cache_bypass_reads, bypasses + 4);
        assert_eq!(ep.stats().gets, gets + 4, "a bypass read is one plain get");
        assert_eq!(scw.stats().lookups(), lookups_frozen, "cache not consulted");
        // Probes report bypass too, and admit becomes a no-op.
        assert!(matches!(scw.probe(&mut ep, 1, 0, 8), CacheProbe::Bypass));
        assert_eq!(ep.stats().cache_bypass_reads, bypasses + 5);
        scw.admit(&mut ep, 1, 0, 8, Arc::from(vec![0u32; 8]), 0.0);
        assert!(scw.cache().is_empty());
        ep.unlock_all();
    }
}
