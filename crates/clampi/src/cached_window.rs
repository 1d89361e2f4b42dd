//! The CLaMPI front of one rank: the equivalent of linking CLaMPI into an MPI
//! application so that `MPI_Get`s on an enabled window are looked up in the
//! cache before touching the network (steps 5–6 in Figure 3 of the paper).
//!
//! A read is one protocol, split around the transfer so that the caller keeps
//! the get (and may keep it in flight while it computes):
//! [`CachedWindow::probe`] looks the get up and reports a hit, a miss or a
//! bypass; on a miss the caller issues the get and [`CachedWindow::admit`]s
//! the landed buffer with the vertex degree as its score. The front never
//! issues a get itself.
//!
//! A rank runs one thread, and that thread owns its front: one [`Clampi`]
//! held by value, driven through `&mut self`. Every decision and statistic is
//! that of a plain [`Clampi`] driven directly (proved by the unit tests
//! below).
//!
//! Under fault injection, hits are verified against the checksum stamped at
//! admission, and a cache that keeps serving corrupted entries is
//! **quarantined** — after [`crate::ClampiConfig::quarantine_threshold`]
//! verification failures every probe reports a bypass, and the caller reads
//! over the plain RMA path, degrading to the paper's non-cached baseline
//! instead of wrong answers. On fault-free runs no checksum is ever computed.

use crate::cache::Clampi;
use crate::config::ClampiConfig;
use crate::entry::EntryKey;
use crate::stats::CacheStats;
use rmatc_rma::fault;
use rmatc_rma::{Endpoint, WindowId};
use std::sync::Arc;

/// Outcome of a cache probe (the issue-time half of a read).
#[derive(Debug)]
pub enum CacheProbe<T> {
    /// Served from the cache (verified when faults are enabled); the hit has
    /// been recorded on the endpoint.
    Hit(Arc<[T]>),
    /// Not resident: the caller should issue the get and
    /// [`CachedWindow::admit`] the landed buffer.
    Miss,
    /// The cache is quarantined: the caller should issue the get over the
    /// plain path and must *not* admit the result. The bypass has been
    /// counted.
    Bypass,
}

/// The cache of one window, owned by the one thread of one rank.
///
/// Every rank builds its own front over the shared window (the cache is
/// process-local state, exactly as in CLaMPI). Reads targeting the owner's own
/// rank never reach it — they are local memory accesses, not RMA.
#[derive(Debug)]
pub struct CachedWindow<T> {
    /// The cached window: the first field of every key.
    window: WindowId,
    cache: Clampi<T>,
    /// Checksum-verification failures observed on hits so far.
    corruptions: u32,
    /// Degraded mode: the cache is no longer consulted or filled.
    quarantined: bool,
}

impl<T: Copy> CachedWindow<T> {
    /// Builds the cache of `window` configured by `config`.
    pub fn new(window: WindowId, config: ClampiConfig) -> Self {
        Self {
            window,
            cache: Clampi::new(config),
            corruptions: 0,
            quarantined: false,
        }
    }

    /// The configuration the front was built from.
    pub fn config(&self) -> &ClampiConfig {
        self.cache.config()
    }

    /// The cache's statistics.
    pub fn stats(&self) -> &CacheStats {
        self.cache.stats()
    }

    /// Whether the cache has been quarantined after repeated corruption
    /// (every probe now reports [`CacheProbe::Bypass`]).
    pub fn quarantined(&self) -> bool {
        self.quarantined
    }

    /// The cache key of a `(target, offset, len)` region on this window.
    fn key_for(&self, target: usize, offset: usize, len: usize) -> EntryKey {
        EntryKey::new(self.window, target, offset, len)
    }

    /// Issue-time half of a read of `len` elements at `offset` on `target`:
    /// rolls resident-entry corruption, looks the key up, verifies hits, and
    /// reports what the caller should do — compute from the returned buffer
    /// now, or issue the get and [`CachedWindow::admit`] the buffer it lands
    /// in. A hit charges only the local access cost to the endpoint; a
    /// corrupted entry is invalidated (never served) and counted towards the
    /// quarantine threshold.
    pub fn probe(
        &mut self,
        ep: &mut Endpoint,
        target: usize,
        offset: usize,
        len: usize,
    ) -> CacheProbe<T> {
        debug_assert_ne!(target, ep.rank(), "local reads never reach the cache");
        if !self.quarantined {
            let key = self.key_for(target, offset, len);
            if let Some(salt) = ep.fault_roll_cache_corrupt() {
                self.cache.corrupt_entry(key, salt);
            }
            match self.cache.lookup_entry(key) {
                Some((data, stored)) if self.verify_hit(ep, key, &data, stored) => {
                    ep.record_cache_hit(len * std::mem::size_of::<T>());
                    return CacheProbe::Hit(data);
                }
                None => return CacheProbe::Miss,
                // Verification failed and the entry is gone: refetch it —
                // over the bypass path if this failure quarantined the cache.
                Some(_) if !self.quarantined => return CacheProbe::Miss,
                Some(_) => self.flush(),
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
        &mut self,
        ep: &mut Endpoint,
        target: usize,
        offset: usize,
        len: usize,
        arc: Arc<[T]>,
        score: f64,
    ) {
        if self.quarantined {
            return;
        }
        if ep.fault_roll_cache_reject() {
            ep.record_cache_rejection();
            return;
        }
        let key = self.key_for(target, offset, len);
        let checksum = ep.faults_enabled().then(|| fault::checksum(&arc));
        self.cache.insert_with_checksum(key, arc, score, checksum);
    }

    /// Verifies a hit against its admission-time stamp. Returns `true` when
    /// the data may be served; on a mismatch the entry is invalidated in
    /// place, the failure is counted, and reaching the configured threshold
    /// sets the quarantine flag.
    fn verify_hit(
        &mut self,
        ep: &mut Endpoint,
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
        self.cache.invalidate(key);
        ep.record_cache_invalidation();
        self.corruptions += 1;
        if self.corruptions >= self.cache.config().quarantine_threshold {
            self.quarantined = true;
        }
        false
    }

    /// Records one compressed row moving through the cache (`logical`
    /// decoded bytes stored as `stored` compressed bytes); the caller that
    /// knows the row encoding reports the sizes after a miss transfer.
    pub fn record_compression(&mut self, logical: u64, stored: u64) {
        self.cache.record_compression(logical, stored);
    }

    /// Flushes the cache.
    pub fn flush(&mut self) {
        self.cache.flush();
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

    fn front(window: &Window<u32>, config: ClampiConfig) -> CachedWindow<u32> {
        CachedWindow::new(window.id(), config)
    }

    /// One self-healing get of `len` words at `offset` on rank 1, copied
    /// out of its landing buffer into a buffer of its own.
    fn fetch(ep: &mut Endpoint, window: &Window<u32>, offset: usize, len: usize) -> Arc<[u32]> {
        let mut landing = Vec::new();
        ep.get_into_with_retry(window, 1, offset, len, &mut landing)
            .unwrap();
        landing.into()
    }

    /// One read through the protocol: probe, fetch on a miss or a bypass,
    /// admit a miss's buffer.
    fn read(
        cw: &mut CachedWindow<u32>,
        ep: &mut Endpoint,
        window: &Window<u32>,
        (offset, len): (usize, usize),
        score: f64,
    ) -> Arc<[u32]> {
        match cw.probe(ep, 1, offset, len) {
            CacheProbe::Hit(row) => row,
            CacheProbe::Miss => {
                let row = fetch(ep, window, offset, len);
                cw.admit(ep, 1, offset, len, Arc::clone(&row), score);
                row
            }
            CacheProbe::Bypass => fetch(ep, window, offset, len),
        }
    }

    /// Entries resident in the cache.
    fn resident(cw: &CachedWindow<u32>) -> usize {
        cw.cache.len()
    }

    #[test]
    fn one_shard_matches_a_plain_cache_driven_directly() {
        // The reference is the interception protocol spelled out over a plain
        // `Clampi`: lookup, hit accounting, fetch on a miss, insert. The front
        // must reproduce its cache statistics and its endpoint statistics —
        // through an eviction-heavy budget, so placement decisions count.
        let (window, mut ep) = setup();
        let config = ClampiConfig::always_cache(256, 8).with_application_scores();
        let mut cw = front(&window, config);
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
            let a = read(&mut cw, &mut ep, &window, (offset, len), score);
            let key = EntryKey::new(window.id(), 1, offset, len);
            let b = match cache.lookup_entry(key) {
                Some((data, _)) => {
                    ep2.record_cache_hit(len * 4);
                    data
                }
                None => {
                    let arc = fetch(&mut ep2, &window, offset, len);
                    cache.insert_with_checksum(key, Arc::clone(&arc), score, None);
                    arc
                }
            };
            assert_eq!(a, b, "read {i}");
        }
        let stats = cw.stats();
        assert!(stats.hits > 0 && stats.evictions() > 0, "{stats:?}");
        assert_eq!(stats, cache.stats(), "front ≡ plain cache");
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

        /// The front adds only the read protocol: probing and admitting
        /// through it must match a plain `Clampi` on every observable, under
        /// both score rules.
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
            let mut cw: CachedWindow<u32> = CachedWindow::new(WindowId(0), cfg);
            let mut ep = Endpoint::new(0, 2, NetworkModel::zero());
            for (i, op) in ops.into_iter().enumerate() {
                match op {
                    Op::Access { offset, len, score } => {
                        let plain_hit = plain.lookup(EntryKey::new(WindowId(0), 1, offset, len));
                        let probe = cw.probe(&mut ep, 1, offset, len);
                        prop_assert_eq!(
                            plain_hit.is_some(),
                            matches!(probe, CacheProbe::Hit(_)),
                            "lookup {} diverged",
                            i
                        );
                        if plain_hit.is_none() {
                            let data: Arc<[u32]> = (0..len as u32).collect();
                            plain.insert(EntryKey::new(WindowId(0), 1, offset, len), Arc::clone(&data), score);
                            cw.admit(&mut ep, 1, offset, len, data, score);
                        }
                    }
                    Op::Flush => {
                        plain.flush();
                        cw.flush();
                    }
                }
                prop_assert_eq!(plain.len(), cw.cache.len());
                prop_assert_eq!(plain.occupied_bytes(), cw.cache.occupied_bytes());
                prop_assert_eq!(plain.stats(), cw.stats(), "op {}", i);
            }
        }
    }

    #[test]
    fn miss_buffer_is_handed_to_the_cache_without_a_copy() {
        let (window, mut ep) = setup();
        let mut cw = front(&window, ClampiConfig::always_cache(4096, 64));
        assert!(matches!(cw.probe(&mut ep, 1, 10, 5), CacheProbe::Miss));
        let fetched = fetch(&mut ep, &window, 10, 5);
        cw.admit(&mut ep, 1, 10, 5, Arc::clone(&fetched), 0.0);
        let miss_time = ep.stats().comm_time_ns;
        let cached = match cw.probe(&mut ep, 1, 10, 5) {
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
        let stats = cw.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        ep.unlock_all();
    }

    #[test]
    fn data_is_correct_even_when_not_cacheable() {
        let (window, mut ep) = setup();
        // 8-byte capacity: a 50-element read can never be cached.
        let mut cw = front(&window, ClampiConfig::always_cache(8, 4));
        let a = read(&mut cw, &mut ep, &window, (0, 50), 0.0);
        assert_eq!(a.len(), 50);
        assert_eq!(a[0], 1000);
        let b = read(&mut cw, &mut ep, &window, (0, 50), 0.0);
        assert_eq!(a, b);
        assert_eq!(cw.stats().uncacheable, 2);
        assert_eq!(ep.stats().gets, 2, "both reads go to the network");
    }

    #[test]
    fn flush_forces_refetch() {
        let (window, mut ep) = setup();
        let mut cw = front(&window, ClampiConfig::always_cache(4096, 64));
        read(&mut cw, &mut ep, &window, (0, 4), 0.0);
        read(&mut cw, &mut ep, &window, (0, 4), 0.0);
        assert_eq!(cw.stats().hits, 1, "the second read hits");
        cw.flush();
        read(&mut cw, &mut ep, &window, (0, 4), 0.0);
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
        let mut cw = front(&window, cfg);
        let clean = read(&mut cw, &mut ep, &window, (10, 5), 0.0);
        assert_eq!(*clean, [1010, 1011, 1012, 1013, 1014]);
        for _ in 0..5 {
            // The hit is corrupted every time: never served, always refetched.
            let again = read(&mut cw, &mut ep, &window, (10, 5), 0.0);
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
        let mut cw = front(&window, ClampiConfig::always_cache(4096, 64));
        for _ in 0..3 {
            let data = read(&mut cw, &mut ep, &window, (20, 4), 0.0);
            assert_eq!(*data, [1020, 1021, 1022, 1023]);
        }
        assert_eq!(resident(&cw), 0, "every insert was rejected");
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
        let mut cw = front(&window, cfg);
        let clean = read(&mut cw, &mut ep, &window, (0, 8), 0.0);
        let mut reads = 0;
        while !cw.quarantined() {
            let again = read(&mut cw, &mut ep, &window, (0, 8), 0.0);
            assert_eq!(again, clean, "corrupted data must never be served");
            reads += 1;
            assert!(reads < 100, "three corruptions must quarantine");
        }
        assert_eq!(ep.stats().cache_invalidations, 3);
        assert_eq!(resident(&cw), 0, "quarantine flushes the cache");
        // Degraded mode: the paper's non-cached baseline — every read is a
        // plain RMA get, still correct, with bypasses counted and the cache
        // no longer consulted. (The read that tripped the threshold already
        // completed through the bypass path.)
        let (bypasses, gets) = (ep.stats().cache_bypass_reads, ep.stats().gets);
        let lookups_frozen = cw.stats().lookups();
        for _ in 0..4 {
            assert_eq!(read(&mut cw, &mut ep, &window, (0, 8), 0.0), clean);
        }
        assert_eq!(ep.stats().cache_bypass_reads, bypasses + 4);
        assert_eq!(ep.stats().gets, gets + 4, "a bypass read is one plain get");
        assert_eq!(cw.stats().lookups(), lookups_frozen, "cache not consulted");
        // Admit is a no-op too.
        cw.admit(&mut ep, 1, 0, 8, Arc::from(vec![0u32; 8]), 0.0);
        assert_eq!(resident(&cw), 0);
        ep.unlock_all();
    }
}
