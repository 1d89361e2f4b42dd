//! The CLaMPI cache proper: slot-indexed variable-size entries over a managed memory
//! buffer, with the paper's weighted-score victim selection. Buffer and table
//! are sized once, at construction.
//!
//! # The eviction rule
//!
//! The paper evaluates one victim-selection rule: CLaMPI's weighted LRU,
//! optionally biased by an application-defined score (for LCC, the
//! out-degree of the cached vertex — Figure 8). A resident entry's victim
//! score (larger evicts first) is
//!
//! * under [`ScorePolicy::LruPositional`]:
//!   `LRU_WEIGHT · age + POSITIONAL_WEIGHT · positional`, where `positional`
//!   is the fraction of the entry's two buffer neighbours that are free, so
//!   evicting it reduces external fragmentation;
//! * under [`ScorePolicy::ApplicationScore`]:
//!   `LRU_WEIGHT · age − USER_WEIGHT · score / max_score`, plus admission
//!   control — a new entry scoring below the prospective capacity victim is
//!   not cached at all, to "avoid storing a high number of low-degree
//!   vertices" instead of churning the cache.
//!
//! `age` is the entry's idle time over the cache's logical clock, in
//! `[0, 1]`. The rule is deterministic: replayed runs (chaos schedules,
//! differential tests) compare caches decision for decision.

use crate::config::{ClampiConfig, ScorePolicy};
use crate::entry::{Entry, EntryKey, KeyHasher};
use crate::freelist::FreeList;
use crate::stats::CacheStats;
use std::collections::HashSet;
use std::hash::BuildHasherDefault;
use std::sync::Arc;

/// Result of trying to insert a missed region into the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheInsertOutcome {
    /// The entry was stored without evicting anything.
    Inserted,
    /// The entry was stored after evicting this many victims.
    InsertedAfterEvicting(usize),
    /// The entry could not be stored (larger than the whole buffer, or eviction
    /// could not make room).
    NotCached,
}

/// Number of hash-table slots probed per key (set associativity). A purely
/// direct-mapped index evicts on every collision even when the table is sized to
/// the expected entry count; a small probe sequence removes those artificial
/// conflict evictions, matching the behaviour the paper relies on when it sizes
/// the hash tables (Section III-B1).
const WAYS: usize = 4;

/// Occupied candidates a capacity eviction scores before evicting the best.
const SAMPLES: usize = 16;

/// Weight of the recency term of a victim score.
const LRU_WEIGHT: f64 = 1.0;
/// Weight of the positional (fragmentation) term under
/// [`ScorePolicy::LruPositional`].
const POSITIONAL_WEIGHT: f64 = 0.5;
/// Weight of the normalised application score under
/// [`ScorePolicy::ApplicationScore`].
const USER_WEIGHT: f64 = 2.0;

/// The entry fields victim selection reads — and the only per-entry state it
/// reads: the cache keeps one per slot in a dense array of its own, apart
/// from the keys and payload handles.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct EntryView {
    /// Bytes the entry occupies in the memory buffer.
    bytes: usize,
    /// Start address in the memory buffer (for positional scoring).
    addr: usize,
    /// Logical timestamp of the last access.
    last_access: u64,
    /// Application-defined score passed at insert time (vertex degree in the
    /// paper's LCC runs).
    user_score: f64,
}

/// Exact `x % d` for a 32-bit `x` without a division (Lemire's fastmod): the
/// victim sampler reduces every draw of its 32-bit stream by the slot count.
#[derive(Debug, Clone, Copy)]
struct FastMod {
    d: u64,
    /// `⌈2^64 / d⌉`, wrapping to 0 for `d = 1`.
    m: u64,
}

impl FastMod {
    fn new(d: usize) -> Self {
        let d = d as u64;
        Self {
            d,
            m: (u64::MAX / d).wrapping_add(1),
        }
    }

    #[inline]
    fn rem(&self, x: u32) -> usize {
        let r = if self.d > u32::MAX as u64 {
            x as u64
        } else {
            ((self.m.wrapping_mul(x as u64) as u128 * self.d as u128) >> 64) as u64
        };
        debug_assert_eq!(r, x as u64 % self.d);
        r as usize
    }
}

/// xorshift64* — deterministic, cheap, good enough for victim sampling.
fn next_random(state: &mut u64) -> u32 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 32) as u32
}

/// One CLaMPI cache instance: in the paper there are two per rank, `C_offsets` over
/// the offsets window and `C_adj` over the adjacencies window; this reproduction
/// keeps `C_adj` and copies each owner's offsets window once per rank instead
/// (see `rmatc-core`'s reader).
#[derive(Debug)]
pub struct Clampi<T> {
    config: ClampiConfig,
    /// Hash-table slots; each occupied slot owns its entry, as in CLaMPI where the
    /// hash table indexes the cached regions directly.
    slots: Vec<Option<Entry<T>>>,
    /// One bit per slot, set while the slot is occupied. The tables are sized
    /// for the expected entry count and run mostly empty, so victim sampling
    /// asks this before it touches a slot.
    occupancy: Vec<u64>,
    /// The scored fields of each slot's entry (stale where the slot is
    /// empty): what victim selection reads, packed apart from keys and payloads.
    meta: Vec<EntryView>,
    /// `% slots.len()` for the victim sampler.
    slot_mod: FastMod,
    freelist: FreeList,
    clock: u64,
    stats: CacheStats,
    /// Keys ever requested, for compulsory-miss accounting.
    seen: HashSet<EntryKey, BuildHasherDefault<KeyHasher>>,
    occupied: usize,
    occupied_bytes: usize,
    max_user_score: f64,
    /// Deterministic internal RNG state for sampled victim selection.
    rng_state: u64,
}

impl<T: Clone> Clampi<T> {
    /// Creates a cache with the given configuration, which stays fixed for
    /// the cache's lifetime.
    pub fn new(config: ClampiConfig) -> Self {
        let nslots = config.table_slots.max(1);
        Self {
            freelist: FreeList::new(config.capacity_bytes),
            slots: std::iter::repeat_with(|| None).take(nslots).collect(),
            occupancy: vec![0; nslots.div_ceil(64)],
            meta: vec![EntryView::default(); nslots],
            slot_mod: FastMod::new(nslots),
            clock: 0,
            stats: CacheStats::default(),
            seen: HashSet::default(),
            occupied: 0,
            occupied_bytes: 0,
            max_user_score: 0.0,
            rng_state: 0x9e37_79b9_7f4a_7c15,
            config,
        }
    }

    /// The configuration the cache was built with.
    pub fn config(&self) -> &ClampiConfig {
        &self.config
    }

    /// Statistics collected so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Records one compressed row moving through this cache (`logical`
    /// decoded bytes stored as `stored` compressed bytes). The cache is
    /// format-agnostic, so the reader that knows the row encoding reports the
    /// sizes (see [`CacheStats::logical_bytes`]).
    pub fn record_compression(&mut self, logical: u64, stored: u64) {
        self.stats.record_compression(logical, stored);
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.occupied
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.occupied == 0
    }

    /// Bytes currently occupied in the memory buffer.
    pub fn occupied_bytes(&self) -> usize {
        self.occupied_bytes
    }

    /// External fragmentation of the memory buffer, in `[0, 1]`.
    pub fn fragmentation(&self) -> f64 {
        self.freelist.fragmentation()
    }

    #[inline]
    fn is_occupied(&self, slot: usize) -> bool {
        self.occupancy[slot / 64] >> (slot % 64) & 1 == 1
    }

    /// Victim score of a resident entry (see the module docs): **larger
    /// means more evictable**. Never NaN. The age stays a division:
    /// multiplying by a hoisted `1 / clock` differs in the last ulp and flips
    /// ties.
    #[inline]
    fn victim_score(&self, entry: &EntryView) -> f64 {
        let age =
            (self.clock.saturating_sub(entry.last_access)) as f64 / (self.clock.max(1)) as f64;
        match self.config.scoring {
            ScorePolicy::LruPositional => {
                let (before, after) = self.freelist.adjacency_to_free(entry.addr, entry.bytes);
                let positional = (before as u8 + after as u8) as f64 / 2.0;
                LRU_WEIGHT * age + POSITIONAL_WEIGHT * positional
            }
            ScorePolicy::ApplicationScore => {
                let norm = if self.max_user_score > 0.0 {
                    entry.user_score / self.max_user_score
                } else {
                    0.0
                };
                LRU_WEIGHT * age - USER_WEIGHT * norm
            }
        }
    }

    /// The probe sequence of a key: up to [`WAYS`] consecutive slots starting at its
    /// hash, returned in a fixed-size array (the lookup hot path must not allocate).
    fn probe_slots(&self, key: &EntryKey) -> ([usize; WAYS], usize) {
        let n = self.slots.len();
        let count = WAYS.min(n);
        let mut probes = [0usize; WAYS];
        let mut slot = key.slot(n);
        for probe in probes.iter_mut().take(count) {
            *probe = slot;
            slot += 1;
            if slot == n {
                slot = 0;
            }
        }
        (probes, count)
    }

    /// The slot holding `key`, if it is resident.
    fn find(&self, key: &EntryKey) -> Option<usize> {
        let (probes, ways) = self.probe_slots(key);
        probes[..ways]
            .iter()
            .copied()
            .find(|&slot| self.slots[slot].as_ref().is_some_and(|e| e.key == *key))
    }

    /// Looks up a region. On a hit the entry's recency is refreshed and its data is
    /// returned (a refcount bump — the hit path performs no heap allocation); on a
    /// miss the caller is expected to perform the real RMA get and then call
    /// [`Clampi::insert`].
    pub fn lookup(&mut self, key: EntryKey) -> Option<Arc<[T]>> {
        self.lookup_entry(key).map(|(data, _checksum)| data)
    }

    /// Like [`Clampi::lookup`], but also returns the integrity stamp recorded
    /// at insert time (if any) so the caller can verify the data before
    /// serving it — the hook of the self-healing cached read path.
    pub fn lookup_entry(&mut self, key: EntryKey) -> Option<(Arc<[T]>, Option<u64>)> {
        self.clock += 1;
        let hit = self.find(&key).map(|slot| {
            self.meta[slot].last_access = self.clock;
            let entry = self.slots[slot]
                .as_ref()
                .expect("find returns occupied slots");
            (Arc::clone(&entry.data), entry.checksum)
        });
        if let Some((data, _)) = &hit {
            self.stats.hits += 1;
            self.stats.bytes_from_cache += (data.len() * std::mem::size_of::<T>()) as u64;
        } else {
            self.stats.misses += 1;
            if self.seen.insert(key) {
                self.stats.compulsory_misses += 1;
            }
        }
        debug_assert_eq!(self.stats.lookups(), self.clock, "one outcome per lookup");
        hit
    }

    /// Inserts data fetched after a miss. The shared buffer is retained as-is — an
    /// `Arc` refcount bump, never a payload copy — so callers hand the cache the
    /// very allocation the RMA transfer landed in (a `Vec` is also accepted for
    /// convenience and converted once). `user_score` is the application-defined
    /// score (the paper passes the out-degree of the vertex whose adjacency list was
    /// fetched); pass `0.0` when not using application scores.
    pub fn insert(
        &mut self,
        key: EntryKey,
        data: impl Into<Arc<[T]>>,
        user_score: f64,
    ) -> CacheInsertOutcome {
        self.insert_with_checksum(key, data, user_score, None)
    }

    /// Like [`Clampi::insert`], additionally recording an integrity stamp the
    /// caller computed over the clean transfer; later hits hand it back via
    /// [`Clampi::lookup_entry`] for verification. `None` (the fault-free path)
    /// disables verification for this entry.
    pub fn insert_with_checksum(
        &mut self,
        key: EntryKey,
        data: impl Into<Arc<[T]>>,
        user_score: f64,
        checksum: Option<u64>,
    ) -> CacheInsertOutcome {
        let data: Arc<[T]> = data.into();
        let bytes = data.len() * std::mem::size_of::<T>();
        self.stats.bytes_from_network += bytes as u64;
        if bytes > self.freelist.capacity() {
            self.stats.uncacheable += 1;
            return CacheInsertOutcome::NotCached;
        }
        self.max_user_score = self.max_user_score.max(user_score);
        let mut evicted = 0usize;
        // Index handling: within the key's probe sequence, reuse the slot holding the
        // same key, else take an empty slot, else this is a hash conflict and CLaMPI's
        // eviction procedure picks a victim among the residents of the set.
        let (probes, ways) = self.probe_slots(&key);
        let probes = &probes[..ways];
        let mut slot = None;
        for &s in probes {
            match &mut self.slots[s] {
                Some(resident) if resident.key == key => {
                    // Re-inserting an already-cached key (e.g. after a racing fetch):
                    // refresh the data in place; the refresh counts as an access.
                    resident.data = data;
                    resident.checksum = checksum;
                    let meta = &mut self.meta[s];
                    meta.user_score = user_score;
                    meta.last_access = self.clock;
                    return CacheInsertOutcome::Inserted;
                }
                None if slot.is_none() => slot = Some(s),
                _ => {}
            }
        }
        let slot = match slot {
            Some(s) => s,
            None => {
                // Every slot of the set is occupied by a different key: conflict.
                // The best-scoring resident goes, the later one on a tie.
                let mut victim = (probes[0], f64::NEG_INFINITY);
                for &s in probes {
                    let score = self.victim_score(&self.meta[s]);
                    if score >= victim.1 {
                        victim = (s, score);
                    }
                }
                self.evict_chosen_victim(victim.0);
                self.stats.conflict_evictions += 1;
                evicted += 1;
                victim.0
            }
        };
        // Space handling: evict until a contiguous region of `bytes` is available.
        let addr = loop {
            if let Some(addr) = self.freelist.allocate(bytes) {
                break addr;
            }
            let Some(victim) = self.pick_victim_slot(slot) else {
                self.stats.uncacheable += 1;
                return CacheInsertOutcome::NotCached;
            };
            // Admission control under application-defined scores: an entry
            // scoring below the prospective victim is not cached at all.
            if self.config.scoring == ScorePolicy::ApplicationScore
                && user_score < self.meta[victim].user_score
            {
                self.stats.uncacheable += 1;
                self.stats.admission_rejections += 1;
                return CacheInsertOutcome::NotCached;
            }
            self.evict_chosen_victim(victim);
            self.stats.capacity_evictions += 1;
            evicted += 1;
        };
        self.meta[slot] = EntryView {
            bytes,
            addr,
            last_access: self.clock,
            user_score,
        };
        self.slots[slot] = Some(Entry {
            key,
            data,
            checksum,
        });
        self.occupancy[slot / 64] |= 1 << (slot % 64);
        self.occupied += 1;
        self.occupied_bytes += bytes;
        self.debug_check_slot(slot);
        if evicted == 0 {
            CacheInsertOutcome::Inserted
        } else {
            CacheInsertOutcome::InsertedAfterEvicting(evicted)
        }
    }

    /// Removes the entry for `key`, if resident, counting an invalidation.
    /// Used by the self-healing read path when a hit fails checksum
    /// verification: the rotten entry is dropped so the next read refetches.
    /// Returns whether an entry was removed.
    pub fn invalidate(&mut self, key: EntryKey) -> bool {
        let Some(slot) = self.find(&key) else {
            return false;
        };
        self.evict_slot(slot);
        self.stats.invalidations += 1;
        true
    }

    /// Removes every entry (CLaMPI's user-requested flush; the cached read
    /// path flushes when it quarantines the cache).
    pub fn flush(&mut self) {
        for slot in 0..self.slots.len() {
            if self.is_occupied(slot) {
                self.evict_slot(slot);
            }
        }
        self.stats.flushes += 1;
        debug_assert!(self.occupancy.iter().all(|&word| word == 0));
        debug_assert!(self.slots.iter().all(Option::is_none));
        debug_assert_eq!((self.occupied, self.occupied_bytes), (0, 0));
    }

    /// Chooses a victim among occupied slots, excluding `protect` (the slot about to
    /// receive the new entry). CLaMPI scans its index for the best victim; at the
    /// scale of the LCC experiments an exhaustive scan per eviction is too slow, so
    /// we sample a bounded number of occupied slots and evict the best-scoring one —
    /// the standard approximation of weighted-LRU victim selection.
    fn pick_victim_slot(&mut self, protect: usize) -> Option<usize> {
        if self.occupied == 0 || (self.occupied == 1 && self.is_occupied(protect)) {
            return None;
        }
        let nslots = self.slots.len();
        let mut rng = self.rng_state;
        let mut best: Option<(usize, f64)> = None;
        let mut consider = |idx: usize| {
            let score = self.victim_score(&self.meta[idx]);
            if best.map(|(_, s)| score > s).unwrap_or(true) {
                best = Some((idx, score));
            }
        };
        let mut inspected = 0usize;
        let mut attempts = 0usize;
        // Bounded sampling: at most 16 occupied candidates or 8·slots probes.
        while inspected < SAMPLES && attempts < nslots.saturating_mul(8).max(64) {
            attempts += 1;
            let idx = self.slot_mod.rem(next_random(&mut rng));
            if idx != protect && self.is_occupied(idx) {
                inspected += 1;
                consider(idx);
            }
        }
        if inspected == 0 {
            // Sampling failed (extremely sparse occupancy); fall back to a scan.
            (0..nslots)
                .filter(|&idx| idx != protect && self.is_occupied(idx))
                .for_each(consider);
        }
        self.rng_state = rng;
        best.map(|(idx, _)| idx)
    }

    /// Evicts a slot victim selection *chose* (conflict or capacity victim),
    /// counting its freed bytes. Flushes and invalidations are not victim
    /// selections and go through [`Clampi::evict_slot`] directly.
    fn evict_chosen_victim(&mut self, slot: usize) {
        debug_assert!(self.is_occupied(slot), "victims are residents");
        self.stats.evicted_bytes += self.meta[slot].bytes as u64;
        self.evict_slot(slot);
    }

    fn evict_slot(&mut self, slot: usize) {
        if self.slots[slot].take().is_some() {
            let EntryView { addr, bytes, .. } = self.meta[slot];
            self.occupancy[slot / 64] &= !(1 << (slot % 64));
            self.freelist.free(addr, bytes);
            self.occupied -= 1;
            self.occupied_bytes -= bytes;
        }
        self.debug_check_slot(slot);
    }

    /// Debug builds, after every mutation of `slot`: the bitmap, the dense
    /// array and the slot agree, and the buffer's bytes are conserved.
    fn debug_check_slot(&self, slot: usize) {
        debug_assert_eq!(self.slots[slot].is_some(), self.is_occupied(slot));
        debug_assert!(self.slots[slot].as_ref().is_none_or(|entry| {
            self.meta[slot].bytes == entry.data.len() * std::mem::size_of::<T>()
        }));
        debug_assert_eq!(
            self.freelist.total_free() + self.occupied_bytes,
            self.freelist.capacity()
        );
    }

    /// Fault injection: replaces the resident entry's data for `key` with a
    /// byte-flipped copy (the stamp recorded at insert time is left alone, so
    /// verification will catch the rot). The shared buffer handed out to
    /// earlier readers is never mutated — corruption builds a fresh `Arc`.
    /// Returns whether a non-empty entry was corrupted.
    pub fn corrupt_entry(&mut self, key: EntryKey, salt: u64) -> bool
    where
        T: Copy,
    {
        let Some(slot) = self.find(&key) else {
            return false;
        };
        let entry = self.slots[slot]
            .as_mut()
            .expect("find returns occupied slots");
        if entry.data.is_empty() {
            return false;
        }
        let mut rotten: Arc<[T]> = Arc::from(&entry.data[..]);
        rmatc_rma::fault::corrupt(Arc::get_mut(&mut rotten).expect("a fresh buffer"), salt);
        entry.data = rotten;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmatc_rma::WindowId;

    fn key(offset: usize, len: usize) -> EntryKey {
        EntryKey::new(WindowId(0), 1, offset, len)
    }

    fn cache(capacity: usize, slots: usize) -> Clampi<u32> {
        Clampi::new(ClampiConfig::always_cache(capacity, slots))
    }

    #[test]
    fn fast_mod_is_the_remainder_for_every_table_size() {
        let mut state = 0x9e37_79b9_7f4a_7c15;
        let stream: Vec<u32> = (0..10_000).map(|_| next_random(&mut state)).collect();
        for nslots in (1..=4096).chain([u32::MAX as usize]) {
            let fast = FastMod::new(nslots);
            for &x in [0, 1, u32::MAX].iter().chain(&stream) {
                assert_eq!(fast.rem(x), x as usize % nslots, "{x} % {nslots}");
            }
        }
        // A table no 32-bit draw can wrap around.
        #[cfg(target_pointer_width = "64")]
        assert_eq!(FastMod::new(1 << 40).rem(u32::MAX), u32::MAX as usize);
    }

    #[test]
    fn miss_then_hit() {
        let mut c = cache(1024, 64);
        assert!(c.lookup(key(0, 4)).is_none());
        assert_eq!(
            c.insert(key(0, 4), vec![1, 2, 3, 4], 0.0),
            CacheInsertOutcome::Inserted
        );
        let hit = c.lookup(key(0, 4)).expect("must hit after insert");
        assert_eq!(*hit, vec![1, 2, 3, 4]);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().compulsory_misses, 1);
    }

    #[test]
    fn different_regions_do_not_alias() {
        let mut c = cache(1024, 64);
        c.insert(key(0, 2), vec![1, 2], 0.0);
        c.insert(key(2, 2), vec![3, 4], 0.0);
        assert_eq!(*c.lookup(key(0, 2)).unwrap(), vec![1, 2]);
        assert_eq!(*c.lookup(key(2, 2)).unwrap(), vec![3, 4]);
        assert!(
            c.lookup(key(0, 4)).is_none(),
            "a different length is a different region"
        );
    }

    #[test]
    fn compulsory_misses_counted_once_per_key() {
        let mut c = cache(16, 4);
        for _ in 0..3 {
            let _ = c.lookup(key(0, 2));
        }
        assert_eq!(c.stats().misses, 3);
        assert_eq!(c.stats().compulsory_misses, 1);
    }

    #[test]
    fn entry_larger_than_buffer_is_uncacheable() {
        let mut c = cache(8, 4);
        assert_eq!(
            c.insert(key(0, 100), vec![0u32; 100], 0.0),
            CacheInsertOutcome::NotCached
        );
        assert_eq!(c.stats().uncacheable, 1);
        assert!(c.is_empty());
    }

    #[test]
    fn capacity_pressure_evicts_old_entries() {
        // Buffer fits exactly two 4-element (16-byte) entries.
        let mut c = cache(32, 64);
        c.insert(key(0, 4), vec![0; 4], 0.0);
        c.insert(key(4, 4), vec![1; 4], 0.0);
        assert_eq!(c.len(), 2);
        let outcome = c.insert(key(8, 4), vec![2; 4], 0.0);
        assert!(matches!(
            outcome,
            CacheInsertOutcome::InsertedAfterEvicting(_)
        ));
        assert_eq!(c.len(), 2);
        assert!(c.stats().capacity_evictions >= 1);
        assert_eq!(c.occupied_bytes(), 32);
    }

    #[test]
    fn lru_prefers_evicting_stale_entries() {
        let mut c = cache(32, 64);
        c.insert(key(0, 4), vec![0; 4], 0.0);
        c.insert(key(4, 4), vec![1; 4], 0.0);
        // Touch the first entry many times so the second is the LRU victim.
        for _ in 0..50 {
            assert!(c.lookup(key(0, 4)).is_some());
        }
        c.insert(key(8, 4), vec![2; 4], 0.0);
        assert!(c.lookup(key(0, 4)).is_some(), "hot entry should survive");
    }

    #[test]
    fn application_scores_protect_high_degree_entries() {
        let cfg = ClampiConfig::always_cache(32, 64).with_application_scores();
        let mut c: Clampi<u32> = Clampi::new(cfg);
        // Entry with a high application score (a high-degree vertex)...
        c.insert(key(0, 4), vec![0; 4], 1_000.0);
        // ...and one with a low score, accessed more recently.
        c.insert(key(4, 4), vec![1; 4], 1.0);
        let _ = c.lookup(key(4, 4));
        // Under plain LRU the high-score entry would be the victim; with application
        // scores the low-score entry goes instead.
        c.insert(key(8, 4), vec![2; 4], 1.0);
        assert!(
            c.lookup(key(0, 4)).is_some(),
            "high-score entry must be protected"
        );
    }

    #[test]
    fn application_scores_reject_low_value_entries_when_full() {
        let cfg = ClampiConfig::always_cache(32, 64).with_application_scores();
        let mut c: Clampi<u32> = Clampi::new(cfg);
        // Fill the buffer with two high-score (high-degree) entries.
        c.insert(key(0, 4), vec![0; 4], 500.0);
        c.insert(key(4, 4), vec![1; 4], 400.0);
        // A low-degree entry should not displace them (admission control)...
        assert_eq!(
            c.insert(key(8, 4), vec![2; 4], 3.0),
            CacheInsertOutcome::NotCached
        );
        assert!(c.lookup(key(0, 4)).is_some());
        assert!(c.lookup(key(4, 4)).is_some());
        // ...but a higher-degree entry still evicts its way in.
        let outcome = c.insert(key(12, 4), vec![3; 4], 900.0);
        assert!(matches!(
            outcome,
            CacheInsertOutcome::InsertedAfterEvicting(_)
        ));
        assert!(c.lookup(key(12, 4)).is_some());
        // The positional rule never reads scores: the same low-degree entry
        // evicts its way in.
        let mut positional = cache(32, 64);
        positional.insert(key(0, 4), vec![0; 4], 500.0);
        positional.insert(key(4, 4), vec![1; 4], 400.0);
        assert!(matches!(
            positional.insert(key(8, 4), vec![2; 4], 3.0),
            CacheInsertOutcome::InsertedAfterEvicting(_)
        ));
    }

    #[test]
    fn admission_rejections_are_counted_separately() {
        let cfg = ClampiConfig::always_cache(32, 64).with_application_scores();
        let mut c: Clampi<u32> = Clampi::new(cfg);
        c.insert(key(0, 4), vec![0; 4], 500.0);
        c.insert(key(4, 4), vec![1; 4], 400.0);
        assert_eq!(
            c.insert(key(8, 4), vec![2; 4], 3.0),
            CacheInsertOutcome::NotCached
        );
        assert_eq!(c.stats().admission_rejections, 1);
        assert_eq!(c.stats().uncacheable, 1);
        // An entry larger than the whole buffer is uncacheable but not an
        // admission rejection — no victim was ever consulted.
        let _ = c.insert(key(50, 100), vec![0u32; 100], 900.0);
        assert_eq!(c.stats().admission_rejections, 1);
        assert_eq!(c.stats().uncacheable, 2);
    }

    #[test]
    fn evicted_bytes_attributed_to_chosen_victims_only() {
        let mut c = cache(32, 64);
        c.insert(key(0, 4), vec![0; 4], 0.0); // 16 B
        c.insert(key(4, 4), vec![1; 4], 0.0); // 16 B
        c.insert(key(8, 4), vec![2; 4], 0.0); // evicts one 16 B victim
        assert_eq!(c.stats().evicted_bytes, 16);
        // Flush frees everything but chose no victims: counter unchanged.
        c.flush();
        assert_eq!(c.stats().evicted_bytes, 16);
        // Invalidation likewise.
        c.insert(key(12, 4), vec![3; 4], 0.0);
        assert!(c.invalidate(key(12, 4)));
        assert_eq!(c.stats().evicted_bytes, 16);
    }

    #[test]
    fn conflict_on_same_slot_evicts_resident() {
        // A single-slot table forces every distinct key to conflict.
        let mut c = cache(1024, 1);
        c.insert(key(0, 2), vec![1, 2], 0.0);
        c.insert(key(100, 2), vec![3, 4], 0.0);
        assert_eq!(c.stats().conflict_evictions, 1);
        assert_eq!(c.len(), 1);
        assert!(c.lookup(key(0, 2)).is_none());
        assert_eq!(*c.lookup(key(100, 2)).unwrap(), vec![3, 4]);
    }

    #[test]
    fn reinserting_same_key_refreshes_data() {
        let mut c = cache(1024, 16);
        c.insert(key(0, 2), vec![1, 2], 0.0);
        assert_eq!(
            c.insert(key(0, 2), vec![9, 9], 5.0),
            CacheInsertOutcome::Inserted
        );
        assert_eq!(c.len(), 1);
        assert_eq!(*c.lookup(key(0, 2)).unwrap(), vec![9, 9]);
    }

    #[test]
    fn flush_empties_the_cache_and_counts() {
        let mut c = cache(1024, 16);
        c.insert(key(0, 2), vec![1, 2], 0.0);
        c.insert(key(2, 2), vec![3, 4], 0.0);
        c.flush();
        assert!(c.is_empty());
        assert_eq!(c.occupied_bytes(), 0);
        assert_eq!(c.stats().flushes, 1);
        assert!(c.lookup(key(0, 2)).is_none());
    }

    #[test]
    fn hit_and_network_bytes_are_tracked() {
        let mut c = cache(1024, 16);
        let _ = c.lookup(key(0, 4));
        c.insert(key(0, 4), vec![1, 2, 3, 4], 0.0);
        let _ = c.lookup(key(0, 4));
        assert_eq!(c.stats().bytes_from_network, 16);
        assert_eq!(c.stats().bytes_from_cache, 16);
    }

    #[test]
    fn checksummed_inserts_roundtrip_their_stamp() {
        let mut c = cache(1024, 16);
        c.insert_with_checksum(key(0, 2), vec![1, 2], 0.0, Some(0xfeed));
        c.insert(key(2, 2), vec![3, 4], 0.0);
        assert_eq!(
            c.lookup_entry(key(0, 2)),
            Some((Arc::from(vec![1u32, 2]), Some(0xfeed)))
        );
        assert_eq!(
            c.lookup_entry(key(2, 2)),
            Some((Arc::from(vec![3u32, 4]), None))
        );
        assert!(c.lookup_entry(key(4, 2)).is_none());
    }

    #[test]
    fn invalidate_removes_the_entry_and_counts() {
        let mut c = cache(1024, 16);
        c.insert(key(0, 2), vec![1, 2], 0.0);
        assert!(c.invalidate(key(0, 2)));
        assert!(!c.invalidate(key(0, 2)), "already gone");
        assert!(c.is_empty());
        assert_eq!(c.occupied_bytes(), 0);
        assert_eq!(c.stats().invalidations, 1);
        assert!(c.lookup(key(0, 2)).is_none());
    }

    #[test]
    fn corrupt_entry_replaces_data_without_mutating_shared_buffers() {
        let mut c = cache(1024, 16);
        let stamp = rmatc_rma::fault::checksum(&[1u32, 2]);
        c.insert_with_checksum(key(0, 2), vec![1, 2], 0.0, Some(stamp));
        let before = c.lookup(key(0, 2)).expect("resident");
        assert!(c.corrupt_entry(key(0, 2), 99));
        let (after, checksum) = c.lookup_entry(key(0, 2)).expect("still resident");
        assert!(!Arc::ptr_eq(&before, &after), "corruption must not alias");
        assert_eq!(&*before, &[1, 2], "handed-out buffers stay clean");
        assert_ne!(&*after, &[1, 2]);
        assert_eq!(checksum, Some(stamp), "the stamp stays, exposing the rot");
        assert_ne!(rmatc_rma::fault::checksum(&after), stamp);
        assert!(!c.corrupt_entry(key(50, 2), 1), "absent keys are a no-op");
    }

    #[test]
    fn eviction_loop_handles_fragmentation() {
        // Buffer of 40 bytes; insert 8-byte and 12-byte entries to fragment it, then
        // require a 24-byte entry which only fits after multiple evictions.
        let mut c = cache(40, 64);
        c.insert(key(0, 2), vec![0; 2], 0.0); // 8 B
        c.insert(key(10, 3), vec![0; 3], 0.0); // 12 B
        c.insert(key(20, 2), vec![0; 2], 0.0); // 8 B
        c.insert(key(30, 1), vec![0; 1], 0.0); // 4 B
        let outcome = c.insert(key(40, 6), vec![0; 6], 0.0); // 24 B
        assert!(matches!(
            outcome,
            CacheInsertOutcome::InsertedAfterEvicting(_)
        ));
        assert!(c.lookup(key(40, 6)).is_some());
        assert!(c.occupied_bytes() <= 40);
    }
}
