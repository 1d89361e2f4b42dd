//! Concurrent get interception: the [`crate::CachedWindow`] logic behind
//! `&self` methods over a lock-sharded [`ShardedClampi`], so the worker
//! threads of a multi-threaded rank intercept gets through *one* shared cache
//! instead of thrashing private ones.
//!
//! Two read styles are offered:
//!
//! * **Synchronous** ([`ShardedCachedWindow::get_scored`] /
//!   [`ShardedCachedWindow::get_fused`]) — the full lookup → fetch → insert
//!   round with the key's shard held across all three steps, so concurrent
//!   misses on the *same* key coalesce: the second thread blocks on the shard
//!   mutex and then finds a hit instead of fetching twice. Keys on other
//!   shards proceed in parallel throughout.
//! * **Split** ([`ShardedCachedWindow::probe`] +
//!   [`ShardedCachedWindow::admit`]) — the software-pipelined worker's path:
//!   probe at issue time, keep the get in flight while computing, insert at
//!   completion. No shard is held while a get is in flight.
//!
//! Quarantine state (corruption counter + degraded flag) is atomic and
//! cache-global, mirroring the single-threaded wrapper's semantics: after
//! [`crate::ClampiConfig::quarantine_threshold`] hit-verification failures
//! every read bypasses the cache over the plain RMA path. With one shard and
//! one thread, every decision and statistic matches [`crate::CachedWindow`]
//! bit for bit (the shard split is the identity, proved by the equivalence
//! proptests).

use crate::cache::Clampi;
use crate::cached_window::land_plain;
use crate::config::ClampiConfig;
use crate::entry::EntryKey;
use crate::row::RowRef;
use crate::sharded::ShardedClampi;
use crate::stats::CacheStats;
use rmatc_rma::fault;
use rmatc_rma::{Endpoint, RmaError, Window};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;

/// Outcome of a pipelined cache probe (the issue-time half of a split read).
#[derive(Debug)]
pub enum CacheProbe<T> {
    /// Served from the cache (verified when faults are enabled); the hit has
    /// been recorded on the endpoint.
    Hit(Arc<[T]>),
    /// Not resident: the caller should issue the get and
    /// [`ShardedCachedWindow::admit`] the landed buffer at completion.
    Miss,
    /// The cache is quarantined: the caller should issue the get over the
    /// plain path and must *not* admit the result. The bypass has been
    /// counted.
    Bypass,
}

/// A concurrent caching wrapper around an RMA [`Window`], shared by every
/// worker thread of one rank (`&self` methods; each thread brings its own
/// [`Endpoint`]).
#[derive(Debug)]
pub struct ShardedCachedWindow<T> {
    window: Window<T>,
    cache: ShardedClampi<T>,
    /// Checksum-verification failures observed on hits so far (cache-global,
    /// like the single-threaded wrapper's counter).
    corruptions: AtomicU32,
    /// Degraded mode: the cache is no longer consulted or filled.
    quarantined: AtomicBool,
}

/// What a shard-held lookup decided; drives the post-lock steps.
enum Looked<R> {
    Done(Result<R, RmaError>),
    /// Verification tripped the quarantine threshold: flush (outside the
    /// lock — flushing all shards from under one shard's lock would
    /// self-deadlock) and take the bypass path.
    NewlyQuarantined,
    /// Probe-only: not resident (or invalidated without quarantining).
    ProbeMiss,
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

    /// Concurrent equivalent of [`crate::CachedWindow::get_scored`]: resolves
    /// a read through the cache with the key's shard held across
    /// lookup → fetch → insert, so concurrent same-key misses coalesce into
    /// one fetch.
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
            return Ok(RowRef::Window(ep.local_read(&self.window, offset, len)));
        }
        let key = self.key_for(target, offset, len);
        if !self.quarantined() {
            let looked = self.cache.with_shard(&key, |shard| {
                if let Some(salt) = ep.fault_roll_cache_corrupt() {
                    shard.corrupt_entry(key, salt);
                }
                if let Some((data, stored)) = shard.lookup_entry(key) {
                    if self.verify_hit_locked(ep, shard, key, &data, stored) {
                        ep.record_cache_hit(len * std::mem::size_of::<T>());
                        return Looked::Done(Ok(RowRef::Cached(data)));
                    }
                    if self.quarantined() {
                        return Looked::NewlyQuarantined;
                    }
                    // Invalidated without quarantining: refetch below, still
                    // holding the shard.
                }
                // Miss: fetch with the shard held, so a concurrent same-key
                // miss waits on the mutex and then finds a hit.
                match ep.get_with_retry(&self.window, target, offset, len) {
                    Ok(arc) => {
                        self.admit_locked(ep, shard, key, Arc::clone(&arc), score);
                        Looked::Done(Ok(RowRef::Fetched(arc)))
                    }
                    Err(e) => Looked::Done(Err(e)),
                }
            });
            match looked {
                Looked::Done(done) => return done,
                Looked::NewlyQuarantined => self.cache.flush(),
                Looked::ProbeMiss => unreachable!("synchronous reads resolve under the lock"),
            }
        }
        ep.record_cache_bypass_read();
        let arc = ep.get_with_retry(&self.window, target, offset, len)?;
        Ok(RowRef::Fetched(arc))
    }

    /// Concurrent equivalent of [`crate::CachedWindow::get_fused`]: hits and
    /// local reads run `on_row` on the in-place slice, misses hand the
    /// exposed source region to `on_transfer` (landing buffer + result in one
    /// pass) and insert the landed buffer — with the key's shard held across
    /// the whole miss round, so concurrent same-key misses coalesce. A
    /// quarantined cache lands the row in the calling thread's `landing`
    /// buffer and runs `on_row` there, allocating nothing.
    ///
    /// # Errors
    ///
    /// As for [`ShardedCachedWindow::get_scored`].
    #[allow(clippy::too_many_arguments)]
    pub fn get_fused<R>(
        &self,
        ep: &mut Endpoint,
        target: usize,
        offset: usize,
        len: usize,
        score: f64,
        landing: &mut Vec<T>,
        on_row: impl FnOnce(&[T]) -> R,
        mut on_transfer: impl FnMut(&[T]) -> (Arc<[T]>, R),
    ) -> Result<R, RmaError> {
        if target == ep.rank() {
            return Ok(on_row(ep.local_read(&self.window, offset, len)));
        }
        let key = self.key_for(target, offset, len);
        // Consumed by exactly one of the hit (under the shard lock) and the
        // bypass (after it).
        let mut on_row = Some(on_row);
        if !self.quarantined() {
            let looked = self.cache.with_shard(&key, |shard| {
                if let Some(salt) = ep.fault_roll_cache_corrupt() {
                    shard.corrupt_entry(key, salt);
                }
                if let Some((data, stored)) = shard.lookup_entry(key) {
                    if self.verify_hit_locked(ep, shard, key, &data, stored) {
                        ep.record_cache_hit(len * std::mem::size_of::<T>());
                        let on_row = on_row.take().expect("a read resolves once");
                        return Looked::Done(Ok(on_row(&data)));
                    }
                    if self.quarantined() {
                        return Looked::NewlyQuarantined;
                    }
                }
                match ep.get_map_with_retry(&self.window, target, offset, len, &mut on_transfer) {
                    Ok((arc, result)) => {
                        self.admit_locked(ep, shard, key, arc, score);
                        Looked::Done(Ok(result))
                    }
                    Err(e) => Looked::Done(Err(e)),
                }
            });
            match looked {
                Looked::Done(done) => return done,
                Looked::NewlyQuarantined => self.cache.flush(),
                Looked::ProbeMiss => unreachable!("synchronous reads resolve under the lock"),
            }
        }
        ep.record_cache_bypass_read();
        land_plain(ep, &self.window, target, offset, len, landing)?;
        let on_row = on_row.take().expect("a read resolves once");
        Ok(on_row(landing))
    }

    /// Issue-time half of a split (pipelined) read: rolls resident-entry
    /// corruption, looks the key up, verifies hits, and reports what the
    /// caller should do — compute from the returned buffer now, or issue the
    /// get and [`ShardedCachedWindow::admit`] the buffer at completion. Holds
    /// the shard only for the lookup; the flight window runs lock-free.
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
        let looked = self.cache.with_shard(&key, |shard| {
            if let Some(salt) = ep.fault_roll_cache_corrupt() {
                shard.corrupt_entry(key, salt);
            }
            match shard.lookup_entry(key) {
                Some((data, stored)) => {
                    if self.verify_hit_locked(ep, shard, key, &data, stored) {
                        ep.record_cache_hit(len * std::mem::size_of::<T>());
                        Looked::Done(Ok(data))
                    } else if self.quarantined() {
                        Looked::NewlyQuarantined
                    } else {
                        Looked::ProbeMiss
                    }
                }
                None => Looked::ProbeMiss,
            }
        });
        match looked {
            Looked::Done(Ok(data)) => CacheProbe::Hit(data),
            Looked::Done(Err(_)) => unreachable!("probes never issue gets"),
            Looked::NewlyQuarantined => {
                self.cache.flush();
                ep.record_cache_bypass_read();
                CacheProbe::Bypass
            }
            Looked::ProbeMiss => CacheProbe::Miss,
        }
    }

    /// Completion-time half of a split read: inserts a buffer whose transfer
    /// has completed (and, under fault injection, verified clean), honouring
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
    /// mismatch the entry is invalidated in place and reaching the threshold
    /// sets the quarantine flag — the *caller* flushes after releasing the
    /// shard (flushing all shards from under one shard's lock would
    /// self-deadlock).
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
    /// shard that owns the `(target, offset, len)` region's key.
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

    /// Signals the closure of an access epoch to every shard (flushes in
    /// transparent mode only).
    pub fn end_epoch(&self) {
        self.cache.end_epoch();
    }

    /// Flushes every shard (user-defined consistency mode).
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

    #[test]
    fn one_shard_matches_the_single_threaded_wrapper_exactly() {
        let (window, mut ep) = setup();
        let scw = ShardedCachedWindow::new(window.clone(), ClampiConfig::always_cache(4096, 64), 1);
        let mut cw = crate::CachedWindow::new(window, ClampiConfig::always_cache(4096, 64));
        let mut ep2 = Endpoint::new(0, 2, NetworkModel::aries());
        ep2.lock_all();
        for round in 0..2 {
            let a = scw.get_scored(&mut ep, 1, 10, 5, 0.0).unwrap().to_vec();
            let b = cw.get(&mut ep2, 1, 10, 5).unwrap().to_vec();
            assert_eq!(a, b, "round {round}");
            // Local reads bypass both caches identically.
            let la = scw.get_scored(&mut ep, 0, 3, 4, 0.0).unwrap().to_vec();
            let lb = cw.get(&mut ep2, 0, 3, 4).unwrap().to_vec();
            assert_eq!(la, lb);
        }
        assert_eq!(scw.stats(), *cw.stats(), "1 shard ≡ plain wrapper");
        assert_eq!(ep.stats(), ep2.stats());
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
        assert!(scw.cache().is_empty(), "quarantine flushes every shard");
        let bypasses = ep.stats().cache_bypass_reads;
        assert_eq!(
            scw.get_scored(&mut ep, 1, 0, 8, 0.0).unwrap().to_vec(),
            clean
        );
        assert_eq!(ep.stats().cache_bypass_reads, bypasses + 1);
        // A fused bypass read lands in the caller's buffer and computes there.
        let mut landing = Vec::new();
        let sum = scw
            .get_fused(
                &mut ep,
                1,
                0,
                8,
                0.0,
                &mut landing,
                |row| row.iter().copied().sum::<u32>(),
                |_| unreachable!("a quarantined cache admits nothing"),
            )
            .unwrap();
        assert_eq!(sum, clean.iter().sum::<u32>());
        assert_eq!(landing, clean);
        assert_eq!(ep.stats().cache_bypass_reads, bypasses + 2);
        // Probes report bypass too, and admit becomes a no-op.
        assert!(matches!(scw.probe(&mut ep, 1, 0, 8), CacheProbe::Bypass));
        scw.admit(&mut ep, 1, 0, 8, Arc::from(vec![0u32; 8]), 0.0);
        assert!(scw.cache().is_empty());
        ep.unlock_all();
    }

    #[test]
    fn fused_reads_intersect_in_place_on_hits() {
        let (window, mut ep) = setup();
        let scw = ShardedCachedWindow::new(window, ClampiConfig::always_cache(4096, 64), 2);
        let expected: u32 = (1000..1004).sum();
        let mut landing = Vec::new();
        let sum = scw
            .get_fused(
                &mut ep,
                1,
                0,
                4,
                0.0,
                &mut landing,
                |row| row.iter().copied().sum::<u32>(),
                |src| (Arc::from(src), src.iter().copied().sum::<u32>()),
            )
            .unwrap();
        assert_eq!(sum, expected);
        let gets = ep.stats().gets;
        let sum2 = scw
            .get_fused(
                &mut ep,
                1,
                0,
                4,
                0.0,
                &mut landing,
                |row| row.iter().copied().sum::<u32>(),
                |_| unreachable!("second read must hit"),
            )
            .unwrap();
        assert_eq!(sum2, sum);
        assert_eq!(ep.stats().gets, gets, "hits stay off the network");
        ep.unlock_all();
    }
}
