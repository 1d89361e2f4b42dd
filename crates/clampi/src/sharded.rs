//! Lock-sharded concurrent CLaMPI.
//!
//! The paper runs one single-threaded cache per rank; a future multi-threaded
//! rank would serialize every lookup and miss on one lock. [`ShardedClampi`]
//! splits the configured budget across `N` independently locked [`Clampi`]
//! shards, each with its own freelist, hash table, clock and statistics, so
//! concurrent misses on different shards proceed in parallel. Keys are routed
//! to shards by a hash that is independent of the in-shard slot hash (so
//! sharding does not skew slot occupancy), and the routing is deterministic:
//! replayed runs hit the same shards.
//!
//! With one shard the split is the identity — capacity, slot count and every
//! decision match a plain [`Clampi`] exactly (proved by a differential
//! proptest in `tests/proptests.rs`). With `N` shards each gets
//! `capacity / N` bytes and `⌈slots / N⌉` slots, so total table capacity
//! never shrinks below the configured value.
//!
//! Shard sizing guidance lives in `docs/CACHE_POLICIES.md`: more shards mean
//! less lock contention but smaller per-shard buffers, which raises the
//! per-shard miss rate on skewed traces — a handful of shards per expected
//! concurrent thread is plenty.

use crate::cache::{CacheInsertOutcome, Clampi};
use crate::config::ClampiConfig;
use crate::entry::EntryKey;
use crate::stats::CacheStats;
use std::sync::{Arc, Mutex, MutexGuard};

/// A concurrent cache: `N` independently locked [`Clampi`] shards behind
/// `&self` methods. All shards run the same configuration (scaled to their
/// share of the budget), each with its own statistics.
#[derive(Debug)]
pub struct ShardedClampi<T> {
    shards: Vec<Mutex<Clampi<T>>>,
    /// The *unsplit* configuration the cache was built from.
    config: ClampiConfig,
}

impl<T: Clone> ShardedClampi<T> {
    /// Creates a cache with `shards` shards splitting `config`'s budget:
    /// each shard gets `capacity_bytes / shards` buffer bytes and
    /// `⌈table_slots / shards⌉` index slots. `shards` is clamped to at
    /// least 1; with exactly 1 the shard is configured identically to
    /// `Clampi::new(config)`.
    pub fn new(config: ClampiConfig, shards: usize) -> Self {
        let n = shards.max(1);
        let shard_config = ClampiConfig {
            capacity_bytes: config.capacity_bytes / n,
            table_slots: config.table_slots.max(1).div_ceil(n),
            ..config
        };
        let shards = (0..n)
            .map(|_| Mutex::new(Clampi::new(shard_config)))
            .collect();
        Self { shards, config }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The configuration the cache was built from (pre-split; per-shard
    /// capacities are this divided across [`ShardedClampi::shard_count`]).
    pub fn config(&self) -> &ClampiConfig {
        &self.config
    }

    /// Deterministic shard of a key. Uses a splitmix64-style mix over the key
    /// fields — deliberately *not* [`EntryKey::slot`]'s FNV hash, so the
    /// shard index and the in-shard slot index stay uncorrelated. Like the
    /// slot hash it leaves the process-global window id out.
    pub fn shard_for(&self, key: &EntryKey) -> usize {
        if self.shards.len() == 1 {
            // The single-threaded rank: every read pays this routing, so the
            // identity split skips the hash and the division.
            return 0;
        }
        let mut h: u64 = 0x243f_6a88_85a3_08d3;
        for v in [key.target as u64, key.offset as u64, key.len as u64] {
            h = h.wrapping_add(v).wrapping_add(0x9e37_79b9_7f4a_7c15);
            h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            h ^= h >> 31;
        }
        (h % self.shards.len() as u64) as usize
    }

    /// Locks a shard, recovering from poisoning: a panicking thread may leave
    /// a shard mid-operation only between `Clampi` method calls (the shard's
    /// own invariants are re-established before each call returns), so the
    /// inner cache is still usable.
    fn lock(&self, shard: usize) -> MutexGuard<'_, Clampi<T>> {
        self.shards[shard]
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Runs `f` with the shard owning `key` locked for the whole call. This
    /// is the coalescing primitive for concurrent misses on the *same* key:
    /// holding the shard across lookup → fetch → insert makes the second
    /// thread block on the shard mutex and then find a hit, instead of both
    /// fetching. Keys on other shards proceed in parallel throughout. Do not
    /// call [`ShardedClampi`] methods for the same shard from inside `f`.
    pub fn with_shard<R>(&self, key: &EntryKey, f: impl FnOnce(&mut Clampi<T>) -> R) -> R {
        f(&mut self.lock(self.shard_for(key)))
    }

    /// Looks up a region in its shard. See [`Clampi::lookup`].
    pub fn lookup(&self, key: EntryKey) -> Option<Arc<[T]>> {
        self.lock(self.shard_for(&key)).lookup(key)
    }

    /// Like [`ShardedClampi::lookup`], also returning the integrity stamp.
    /// See [`Clampi::lookup_entry`].
    pub fn lookup_entry(&self, key: EntryKey) -> Option<(Arc<[T]>, Option<u64>)> {
        self.lock(self.shard_for(&key)).lookup_entry(key)
    }

    /// Inserts data fetched after a miss into the key's shard.
    /// See [`Clampi::insert`].
    pub fn insert(
        &self,
        key: EntryKey,
        data: impl Into<Arc<[T]>>,
        user_score: f64,
    ) -> CacheInsertOutcome {
        self.lock(self.shard_for(&key))
            .insert(key, data, user_score)
    }

    /// Inserts with an integrity stamp. See [`Clampi::insert_with_checksum`].
    pub fn insert_with_checksum(
        &self,
        key: EntryKey,
        data: impl Into<Arc<[T]>>,
        user_score: f64,
        checksum: Option<u64>,
    ) -> CacheInsertOutcome {
        self.lock(self.shard_for(&key))
            .insert_with_checksum(key, data, user_score, checksum)
    }

    /// Removes the entry for `key`, if resident. See [`Clampi::invalidate`].
    pub fn invalidate(&self, key: EntryKey) -> bool {
        self.lock(self.shard_for(&key)).invalidate(key)
    }

    /// Flushes every shard.
    pub fn flush(&self) {
        for shard in 0..self.shards.len() {
            self.lock(shard).flush();
        }
    }

    /// Records one compressed row moving through the cache on the shard that
    /// owns `key` (`logical` decoded bytes stored as `stored` compressed
    /// bytes). See [`Clampi::record_compression`].
    pub fn record_compression(&self, key: &EntryKey, logical: u64, stored: u64) {
        self.lock(self.shard_for(key))
            .record_compression(logical, stored);
    }

    /// Statistics merged across all shards.
    pub fn stats(&self) -> CacheStats {
        let mut merged = CacheStats::default();
        for shard in 0..self.shards.len() {
            merged.merge(self.lock(shard).stats());
        }
        merged
    }

    /// Per-shard statistics snapshots, in shard order (for spotting routing
    /// skew: a hot shard shows up as an outlier hit/eviction count).
    pub fn per_shard_stats(&self) -> Vec<CacheStats> {
        (0..self.shards.len())
            .map(|shard| self.lock(shard).stats().clone())
            .collect()
    }

    /// Total number of cached entries across shards.
    pub fn len(&self) -> usize {
        (0..self.shards.len()).map(|s| self.lock(s).len()).sum()
    }

    /// Whether no shard holds any entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total bytes occupied across shard buffers.
    pub fn occupied_bytes(&self) -> usize {
        (0..self.shards.len())
            .map(|s| self.lock(s).occupied_bytes())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmatc_rma::WindowId;

    fn key(offset: usize, len: usize) -> EntryKey {
        EntryKey::new(WindowId(0), 1, offset, len)
    }

    fn sharded(capacity: usize, slots: usize, shards: usize) -> ShardedClampi<u32> {
        ShardedClampi::new(ClampiConfig::always_cache(capacity, slots), shards)
    }

    #[test]
    fn single_shard_matches_plain_clampi_config() {
        let cfg = ClampiConfig::always_cache(1024, 64);
        let s: ShardedClampi<u32> = ShardedClampi::new(cfg, 1);
        assert_eq!(s.shard_count(), 1);
        let inner = s.lock(0);
        assert_eq!(inner.config().capacity_bytes, 1024);
        assert_eq!(inner.config().table_slots, 64);
    }

    #[test]
    fn budget_splits_across_shards_without_losing_slots() {
        let s = sharded(1024, 70, 4);
        assert_eq!(s.shard_count(), 4);
        let total_slots: usize = (0..4).map(|i| s.lock(i).config().table_slots).sum();
        assert!(
            total_slots >= 70,
            "div_ceil split must not shrink the table"
        );
        assert_eq!(s.lock(0).config().capacity_bytes, 256);
        // Zero shards clamps to one.
        let s = sharded(1024, 64, 0);
        assert_eq!(s.shard_count(), 1);
    }

    #[test]
    fn shard_routing_is_deterministic_and_spread() {
        let s = sharded(4096, 256, 8);
        let mut used = std::collections::HashSet::new();
        for off in 0..1000 {
            let k = key(off, 4);
            let shard = s.shard_for(&k);
            assert!(shard < 8);
            assert_eq!(shard, s.shard_for(&k));
            used.insert(shard);
        }
        assert_eq!(used.len(), 8, "1000 keys should touch every shard");
    }

    #[test]
    fn miss_then_hit_through_shards() {
        let s = sharded(4096, 256, 4);
        assert!(s.lookup(key(0, 4)).is_none());
        assert_eq!(
            s.insert(key(0, 4), vec![1, 2, 3, 4], 0.0),
            CacheInsertOutcome::Inserted
        );
        assert_eq!(*s.lookup(key(0, 4)).unwrap(), vec![1, 2, 3, 4]);
        let stats = s.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
        assert_eq!(s.occupied_bytes(), 16);
    }

    #[test]
    fn stats_merge_across_shards() {
        let s = sharded(4096, 256, 4);
        for off in 0..32 {
            let k = key(off * 4, 4);
            assert!(s.lookup(k).is_none());
            s.insert(k, vec![0u32; 4], 0.0);
            assert!(s.lookup(k).is_some());
        }
        let merged = s.stats();
        assert_eq!(merged.hits, 32);
        assert_eq!(merged.misses, 32);
        let per_shard = s.per_shard_stats();
        assert_eq!(per_shard.len(), 4);
        assert_eq!(per_shard.iter().map(|st| st.hits).sum::<u64>(), 32);
        assert!(
            per_shard.iter().filter(|st| st.lookups() > 0).count() > 1,
            "32 keys should not all route to one shard"
        );
    }

    #[test]
    fn flush_and_invalidate_reach_the_right_shards() {
        let s = sharded(4096, 256, 4);
        for off in 0..16 {
            s.insert(key(off * 4, 4), vec![0u32; 4], 0.0);
        }
        assert!(s.invalidate(key(0, 4)));
        assert!(!s.invalidate(key(0, 4)));
        assert_eq!(s.len(), 15);
        s.flush();
        assert!(s.is_empty());
        assert_eq!(s.occupied_bytes(), 0);
        assert_eq!(s.stats().flushes, 4, "every shard flushed once");
    }

    #[test]
    fn checksums_roundtrip_through_shards() {
        let s = sharded(4096, 256, 2);
        s.insert_with_checksum(key(0, 2), vec![1, 2], 0.0, Some(0xfeed));
        assert_eq!(
            s.lookup_entry(key(0, 2)),
            Some((Arc::from(vec![1u32, 2]), Some(0xfeed)))
        );
    }

    #[test]
    fn concurrent_readers_and_writers_smoke() {
        let s = std::sync::Arc::new(sharded(1 << 16, 1024, 8));
        std::thread::scope(|scope| {
            for t in 0..4usize {
                let s = std::sync::Arc::clone(&s);
                scope.spawn(move || {
                    for i in 0..200usize {
                        let k = key((t * 1000 + i) * 4, 4);
                        if s.lookup(k).is_none() {
                            s.insert(k, vec![t as u32; 4], 0.0);
                        }
                        assert!(s.lookup(k).is_some() || s.stats().evictions() > 0);
                    }
                });
            }
        });
        let stats = s.stats();
        assert_eq!(stats.lookups(), 4 * 200 * 2);
        assert!(!s.is_empty());
    }
}
