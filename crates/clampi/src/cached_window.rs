//! Interception of RMA gets: the equivalent of linking CLaMPI into an MPI
//! application so that `MPI_Get`s on an enabled window are looked up in the cache
//! before touching the network (steps 5–6 in Figure 3 of the paper).
//!
//! The read methods are fallible since the robustness layer landed: misses go
//! through the endpoint's self-healing retry path, hits are verified against
//! the checksum stamped at insert time (when fault injection is enabled), and
//! a cache that keeps serving corrupted entries is **quarantined** — after
//! [`crate::ClampiConfig::quarantine_threshold`] verification failures every
//! read bypasses the cache over the plain RMA path, degrading to the paper's
//! non-cached baseline instead of wrong answers. On fault-free runs no
//! checksum is ever computed and the hot path is unchanged.

use crate::cache::Clampi;
use crate::config::ClampiConfig;
use crate::entry::EntryKey;
use crate::row::RowRef;
use crate::stats::CacheStats;
use rmatc_rma::fault;
use rmatc_rma::{Endpoint, RmaError, Window};
use std::sync::Arc;

/// A caching wrapper around an RMA [`Window`], owned by one rank.
///
/// Every rank constructs its own `CachedWindow` over the shared window (the cache is
/// process-local state, exactly as in CLaMPI). Reads targeting the owner's own rank
/// bypass the cache — they are local memory accesses, not RMA.
#[derive(Debug)]
pub struct CachedWindow<T> {
    window: Window<T>,
    cache: Clampi<T>,
    /// Checksum-verification failures observed on hits so far.
    corruptions: u32,
    /// Degraded mode: the cache is no longer consulted or filled.
    quarantined: bool,
}

impl<T: Copy + Send + Sync> CachedWindow<T> {
    /// Wraps `window` with a cache configured by `config`.
    pub fn new(window: Window<T>, config: ClampiConfig) -> Self {
        Self {
            window,
            cache: Clampi::new(config),
            corruptions: 0,
            quarantined: false,
        }
    }

    /// The underlying window.
    pub fn window(&self) -> &Window<T> {
        &self.window
    }

    /// Cache statistics.
    pub fn stats(&self) -> &CacheStats {
        self.cache.stats()
    }

    /// The cache itself (for inspection in tests and reports).
    pub fn cache(&self) -> &Clampi<T> {
        &self.cache
    }

    /// Whether the cache has been quarantined after repeated corruption (every
    /// read now takes the plain, non-cached RMA path).
    pub fn quarantined(&self) -> bool {
        self.quarantined
    }

    /// Reads `len` elements at `offset` from `target`'s exposed region, using the
    /// cache. Equivalent to [`CachedWindow::get_scored`] with a zero score.
    ///
    /// # Errors
    ///
    /// [`RmaError::RetriesExhausted`] when a miss's network read failed every
    /// attempt allowed by the endpoint's retry policy.
    pub fn get(
        &mut self,
        ep: &mut Endpoint,
        target: usize,
        offset: usize,
        len: usize,
    ) -> Result<RowRef<'_, T>, RmaError> {
        self.get_scored(ep, target, offset, len, 0.0)
    }

    /// Reads `len` elements at `offset` from `target`, passing an application-defined
    /// score for the entry (the paper's extension: for LCC, the degree of the vertex
    /// whose adjacency list is being fetched). On a hit only the local access cost is
    /// charged to the endpoint; on a miss the real RMA get is issued, waited for, and
    /// the fetched buffer itself is inserted into the cache with the given score.
    ///
    /// The read is zero-copy end to end: local-rank reads borrow the window
    /// ([`RowRef::Window`]), hits share the cached buffer ([`RowRef::Cached`]),
    /// and a miss performs exactly one allocation — the transfer buffer, which
    /// is handed to the cache by refcount and returned as [`RowRef::Fetched`]
    /// (so it stays valid even if the entry is evicted immediately, e.g. when
    /// it does not fit).
    ///
    /// Under fault injection, hits are checksum-verified: a corrupted entry is
    /// invalidated (never served), refetched over the network, and counted
    /// towards the quarantine threshold.
    ///
    /// # Errors
    ///
    /// As for [`CachedWindow::get`].
    pub fn get_scored(
        &mut self,
        ep: &mut Endpoint,
        target: usize,
        offset: usize,
        len: usize,
        score: f64,
    ) -> Result<RowRef<'_, T>, RmaError> {
        if target == ep.rank() {
            // Local partition: served from local memory, never cached (caching it
            // would only duplicate memory the rank already holds).
            return Ok(RowRef::Window(ep.local_read(&self.window, offset, len)));
        }
        let key = EntryKey::new(self.window.id(), target, offset, len);
        if !self.quarantined {
            if let Some(salt) = ep.fault_roll_cache_corrupt() {
                self.cache.corrupt_entry(key, salt);
            }
            if let Some((data, stored)) = self.cache.lookup_entry(key) {
                if self.verify_hit(ep, key, &data, stored) {
                    ep.record_cache_hit(len * std::mem::size_of::<T>());
                    return Ok(RowRef::Cached(data));
                }
                // Verification failed: the entry is gone; fall through to a
                // refetch (possibly now quarantined).
            }
        }
        if self.quarantined {
            ep.record_cache_bypass_read();
            let arc = ep.get_with_retry(&self.window, target, offset, len)?;
            return Ok(RowRef::Fetched(arc));
        }
        let arc = ep.get_with_retry(&self.window, target, offset, len)?;
        self.admit(ep, key, Arc::clone(&arc), score);
        Ok(RowRef::Fetched(arc))
    }

    /// The fused read: resolves the row like [`CachedWindow::get_scored`], but
    /// lets the caller compute over the data *where it already is* instead of
    /// receiving a buffer.
    ///
    /// * Local-rank reads and cache hits call `on_row` on the in-place slice.
    /// * A miss hands the exposed source region to `on_transfer`, which must
    ///   land it in a shared buffer and may compute its result in the same
    ///   pass (the copy+intersect kernel of `rmatc-core`); the landed buffer
    ///   is then inserted into the cache with `score`.
    ///
    /// * A quarantined cache retains nothing, so the bypass read allocates
    ///   nothing either: the row lands in `landing` — the caller's reusable
    ///   buffer, whose capacity survives across reads — and `on_row` runs
    ///   over it there.
    ///
    /// This is how the LCC hot path intersects a remote row against the local
    /// row in the same pass that lands it in the cache, with identical hit /
    /// miss / uncacheable accounting to the plain read.
    ///
    /// `on_transfer` is `FnMut` because a faulted attempt discards its result
    /// and re-runs the transfer on retry; the returned value always comes from
    /// a verified-clean pass.
    ///
    /// # Errors
    ///
    /// As for [`CachedWindow::get`].
    #[allow(clippy::too_many_arguments)]
    pub fn get_fused<R>(
        &mut self,
        ep: &mut Endpoint,
        target: usize,
        offset: usize,
        len: usize,
        score: f64,
        landing: &mut Vec<T>,
        on_row: impl FnOnce(&[T]) -> R,
        on_transfer: impl FnMut(&[T]) -> (Arc<[T]>, R),
    ) -> Result<R, RmaError> {
        if target == ep.rank() {
            return Ok(on_row(ep.local_read(&self.window, offset, len)));
        }
        let key = EntryKey::new(self.window.id(), target, offset, len);
        if !self.quarantined {
            if let Some(salt) = ep.fault_roll_cache_corrupt() {
                self.cache.corrupt_entry(key, salt);
            }
            if let Some((data, stored)) = self.cache.lookup_entry(key) {
                if self.verify_hit(ep, key, &data, stored) {
                    ep.record_cache_hit(len * std::mem::size_of::<T>());
                    return Ok(on_row(&data));
                }
            }
        }
        if self.quarantined {
            ep.record_cache_bypass_read();
            land_plain(ep, &self.window, target, offset, len, landing)?;
            return Ok(on_row(landing));
        }
        let (arc, result) =
            ep.get_map_with_retry(&self.window, target, offset, len, on_transfer)?;
        self.admit(ep, key, arc, score);
        Ok(result)
    }

    /// Verifies a hit against its insert-time stamp. Returns `true` when the
    /// data may be served. On a mismatch the entry is invalidated, the failure
    /// is counted, and reaching the configured threshold quarantines the cache.
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
            // Inserted before faults were enabled (or by a caller that did not
            // stamp): nothing to verify against.
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
            self.cache.flush();
        }
        false
    }

    /// Inserts a freshly fetched buffer, honouring injected insert rejections
    /// and stamping a checksum when fault injection is enabled.
    fn admit(&mut self, ep: &mut Endpoint, key: EntryKey, arc: Arc<[T]>, score: f64) {
        if ep.fault_roll_cache_reject() {
            ep.record_cache_rejection();
            return;
        }
        let checksum = ep.faults_enabled().then(|| fault::checksum(&arc));
        self.cache.insert_with_checksum(key, arc, score, checksum);
    }

    /// Records one compressed row moving through the cache (`logical`
    /// decoded bytes stored as `stored` compressed bytes); the caller that
    /// knows the row encoding reports the sizes after a miss transfer.
    pub fn record_compression(&mut self, logical: u64, stored: u64) {
        self.cache.record_compression(logical, stored);
    }

    /// Signals the closure of an access epoch to the cache (flushes in transparent
    /// mode only).
    pub fn end_epoch(&mut self) {
        self.cache.end_epoch();
    }

    /// Flushes the cache (user-defined consistency mode).
    pub fn flush(&mut self) {
        self.cache.flush();
    }
}

/// The plain borrowed-landing read of the quarantine-bypass paths (shared
/// with [`crate::ShardedCachedWindow`]): `landing` ends up holding exactly the
/// verified-clean region, reusing its capacity.
pub(crate) fn land_plain<T: Copy + Send + Sync>(
    ep: &mut Endpoint,
    window: &Window<T>,
    target: usize,
    offset: usize,
    len: usize,
    landing: &mut Vec<T>,
) -> Result<(), RmaError> {
    ep.get_into_with_retry(window, target, offset, len, landing, |wire, landing| {
        landing.clear();
        landing.extend_from_slice(wire);
    })
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
    fn first_get_misses_second_hits() {
        let (window, mut ep) = setup();
        let mut cw = CachedWindow::new(window, ClampiConfig::always_cache(4096, 64));
        let a = cw.get(&mut ep, 1, 10, 5).unwrap().to_vec();
        assert_eq!(a, vec![1010, 1011, 1012, 1013, 1014]);
        let gets_after_first = ep.stats().gets;
        let b = cw.get(&mut ep, 1, 10, 5).unwrap().to_vec();
        assert_eq!(a, b);
        assert_eq!(
            ep.stats().gets,
            gets_after_first,
            "second read must not hit the network"
        );
        assert_eq!(cw.stats().hits, 1);
        assert_eq!(cw.stats().misses, 1);
    }

    #[test]
    fn miss_buffer_is_handed_to_the_cache_without_a_copy() {
        let (window, mut ep) = setup();
        let mut cw = CachedWindow::new(window, ClampiConfig::always_cache(4096, 64));
        let fetched = match cw.get(&mut ep, 1, 10, 5).unwrap() {
            RowRef::Fetched(arc) => arc,
            other => panic!("first read must be a miss, got {other:?}"),
        };
        let cached = match cw.get(&mut ep, 1, 10, 5).unwrap() {
            RowRef::Cached(arc) => arc,
            other => panic!("second read must be a hit, got {other:?}"),
        };
        assert!(
            Arc::ptr_eq(&fetched, &cached),
            "the cache must retain the transfer buffer itself, not a copy"
        );
    }

    #[test]
    fn fused_reads_match_plain_reads_and_stats() {
        let (window, mut ep) = setup();
        let mut cw = CachedWindow::new(window, ClampiConfig::always_cache(4096, 64));
        let mut landing = Vec::new();
        // Miss: the transfer closure computes during the copy.
        let sum = cw
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
        assert_eq!(sum, 1000 + 1001 + 1002 + 1003);
        // Hit: served in place, no network get.
        let gets = ep.stats().gets;
        let sum2 = cw
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
        assert_eq!(ep.stats().gets, gets);
        // Local-rank read: served from the window, cache untouched.
        let local = cw
            .get_fused(
                &mut ep,
                0,
                5,
                3,
                0.0,
                &mut landing,
                |row| row.to_vec(),
                |_| unreachable!("local reads never transfer"),
            )
            .unwrap();
        assert_eq!(local, vec![5, 6, 7]);
        assert_eq!(cw.stats().hits, 1);
        assert_eq!(cw.stats().misses, 1);
    }

    #[test]
    fn cache_hits_are_cheaper_than_misses() {
        let (window, mut ep) = setup();
        let mut cw = CachedWindow::new(window, ClampiConfig::always_cache(4096, 64));
        let _ = cw.get(&mut ep, 1, 0, 50).unwrap();
        let miss_time = ep.stats().comm_time_ns;
        let _ = cw.get(&mut ep, 1, 0, 50).unwrap();
        assert_eq!(
            ep.stats().comm_time_ns,
            miss_time,
            "hits charge no network time"
        );
        assert!(ep.stats().local_time_ns > 0.0);
    }

    #[test]
    fn local_rank_reads_bypass_the_cache() {
        let (window, mut ep) = setup();
        let mut cw = CachedWindow::new(window, ClampiConfig::always_cache(4096, 64));
        {
            let data = cw.get(&mut ep, 0, 5, 3).unwrap();
            assert_eq!(&*data, &[5, 6, 7]);
            assert!(data.is_borrowed(), "local reads must borrow the window");
        }
        assert_eq!(cw.stats().lookups(), 0);
        assert_eq!(ep.stats().gets, 0);
    }

    #[test]
    fn data_is_correct_even_when_not_cacheable() {
        let (window, mut ep) = setup();
        // 8-byte capacity: a 50-element read can never be cached.
        let mut cw = CachedWindow::new(window, ClampiConfig::always_cache(8, 4));
        let a = cw.get(&mut ep, 1, 0, 50).unwrap().to_vec();
        assert_eq!(a.len(), 50);
        assert_eq!(a[0], 1000);
        let b = cw.get(&mut ep, 1, 0, 50).unwrap().to_vec();
        assert_eq!(a, b);
        assert_eq!(cw.stats().uncacheable, 2);
        assert_eq!(ep.stats().gets, 2, "both reads go to the network");
    }

    #[test]
    fn scored_gets_record_scores() {
        let (window, mut ep) = setup();
        let cfg = ClampiConfig::always_cache(4096, 64).with_application_scores();
        let mut cw = CachedWindow::new(window, cfg);
        let _ = cw.get_scored(&mut ep, 1, 0, 10, 42.0).unwrap();
        assert_eq!(cw.cache().len(), 1);
    }

    #[test]
    fn epoch_end_respects_mode() {
        let (window, mut ep) = setup();
        let mut cw = CachedWindow::new(window.clone(), ClampiConfig::always_cache(4096, 64));
        let _ = cw.get(&mut ep, 1, 0, 4).unwrap();
        cw.end_epoch();
        let _ = cw.get(&mut ep, 1, 0, 4).unwrap();
        assert_eq!(cw.stats().hits, 1, "always-cache persists across epochs");

        let transparent = ClampiConfig {
            mode: crate::config::ConsistencyMode::Transparent,
            ..ClampiConfig::always_cache(4096, 64)
        };
        let mut cw2 = CachedWindow::new(window, transparent);
        let _ = cw2.get(&mut ep, 1, 0, 4).unwrap();
        cw2.end_epoch();
        let _ = cw2.get(&mut ep, 1, 0, 4).unwrap();
        assert_eq!(cw2.stats().hits, 0, "transparent mode flushes at epoch end");
    }

    #[test]
    fn flush_forces_refetch() {
        let (window, mut ep) = setup();
        let mut cw = CachedWindow::new(window, ClampiConfig::always_cache(4096, 64));
        let _ = cw.get(&mut ep, 1, 0, 4).unwrap();
        cw.flush();
        let _ = cw.get(&mut ep, 1, 0, 4).unwrap();
        assert_eq!(ep.stats().gets, 2);
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
        let mut cw = CachedWindow::new(window, cfg);
        let clean = cw.get(&mut ep, 1, 10, 5).unwrap().to_vec();
        assert_eq!(clean, vec![1010, 1011, 1012, 1013, 1014]);
        for _ in 0..5 {
            // The hit is corrupted every time: never served, always refetched.
            let again = cw.get(&mut ep, 1, 10, 5).unwrap().to_vec();
            assert_eq!(again, clean, "corrupted data must never be served");
        }
        assert_eq!(ep.stats().cache_invalidations, 5);
        assert_eq!(cw.stats().invalidations, 5);
        assert_eq!(ep.stats().gets as usize, 6, "each invalidation refetches");
        assert!(!cw.quarantined());
    }

    #[test]
    fn repeated_corruption_quarantines_the_cache() {
        let (window, _) = setup();
        let plan = FaultPlan {
            cache_corrupt_p: 1.0,
            ..FaultPlan::reliable(12)
        };
        let mut ep = faulted_endpoint(plan);
        let cfg = ClampiConfig::always_cache(4096, 64).with_quarantine_threshold(3);
        let mut cw = CachedWindow::new(window, cfg);
        let clean = cw.get(&mut ep, 1, 0, 8).unwrap().to_vec();
        let mut reads = 0u64;
        while !cw.quarantined() {
            assert_eq!(cw.get(&mut ep, 1, 0, 8).unwrap().to_vec(), clean);
            reads += 1;
            assert!(reads < 100, "three corruptions must quarantine");
        }
        assert_eq!(ep.stats().cache_invalidations, 3);
        assert!(cw.cache().is_empty(), "quarantine flushes the sick cache");
        // Degraded mode: the paper's non-cached baseline — every read is a
        // plain RMA get, still correct, with bypasses counted. (The read that
        // tripped the threshold already completed through the bypass path.)
        let bypasses_at_quarantine = ep.stats().cache_bypass_reads;
        let lookups_frozen = cw.stats().lookups();
        for _ in 0..4 {
            assert_eq!(cw.get(&mut ep, 1, 0, 8).unwrap().to_vec(), clean);
        }
        assert_eq!(ep.stats().cache_bypass_reads, bypasses_at_quarantine + 4);
        assert_eq!(cw.stats().lookups(), lookups_frozen, "cache not consulted");
    }

    #[test]
    fn quarantined_fused_reads_land_in_the_callers_buffer() {
        let (window, _) = setup();
        let plan = FaultPlan {
            cache_corrupt_p: 1.0,
            ..FaultPlan::reliable(12)
        };
        let mut ep = faulted_endpoint(plan);
        let cfg = ClampiConfig::always_cache(4096, 64).with_quarantine_threshold(1);
        let mut cw = CachedWindow::new(window, cfg);
        let mut landing = Vec::new();
        let expected: u32 = (1000..1008).sum();
        let read = |cw: &mut CachedWindow<u32>, ep: &mut Endpoint, landing: &mut Vec<u32>| {
            cw.get_fused(
                ep,
                1,
                0,
                8,
                0.0,
                landing,
                |row| row.iter().copied().sum::<u32>(),
                |src| (Arc::from(src), src.iter().copied().sum::<u32>()),
            )
            .unwrap()
        };
        // Miss, then a corrupted hit that trips the threshold of one.
        assert_eq!(read(&mut cw, &mut ep, &mut landing), expected);
        assert_eq!(read(&mut cw, &mut ep, &mut landing), expected);
        assert!(cw.quarantined());
        let (gets, bypasses) = (ep.stats().gets, ep.stats().cache_bypass_reads);
        assert_eq!(read(&mut cw, &mut ep, &mut landing), expected);
        assert_eq!(landing, (1000..1008).collect::<Vec<u32>>());
        assert_eq!(ep.stats().gets, gets + 1, "a bypass read is one plain get");
        assert_eq!(ep.stats().cache_bypass_reads, bypasses + 1);
    }

    #[test]
    fn injected_insert_rejections_keep_data_correct() {
        let (window, _) = setup();
        let plan = FaultPlan {
            cache_reject_p: 1.0,
            ..FaultPlan::reliable(13)
        };
        let mut ep = faulted_endpoint(plan);
        let mut cw = CachedWindow::new(window, ClampiConfig::always_cache(4096, 64));
        for _ in 0..3 {
            let data = cw.get(&mut ep, 1, 20, 4).unwrap().to_vec();
            assert_eq!(data, vec![1020, 1021, 1022, 1023]);
        }
        assert!(cw.cache().is_empty(), "every insert was rejected");
        assert_eq!(ep.stats().cache_rejections, 3);
        assert_eq!(ep.stats().gets, 3, "every read went to the network");
    }

    #[test]
    fn fused_reads_heal_corrupted_hits_too() {
        let (window, _) = setup();
        let plan = FaultPlan {
            cache_corrupt_p: 1.0,
            ..FaultPlan::reliable(14)
        };
        let mut ep = faulted_endpoint(plan);
        let cfg = ClampiConfig::always_cache(4096, 64).with_quarantine_threshold(1_000);
        let mut cw = CachedWindow::new(window, cfg);
        let mut landing = Vec::new();
        let expected: u32 = (1000..1008).sum();
        for _ in 0..4 {
            let sum = cw
                .get_fused(
                    &mut ep,
                    1,
                    0,
                    8,
                    0.0,
                    &mut landing,
                    |row| row.iter().copied().sum::<u32>(),
                    |src| (Arc::from(src), src.iter().copied().sum::<u32>()),
                )
                .unwrap();
            assert_eq!(sum, expected, "fused result must come from clean data");
        }
        assert!(ep.stats().cache_invalidations >= 3);
    }
}
