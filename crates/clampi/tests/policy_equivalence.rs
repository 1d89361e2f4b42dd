//! Differential proof that the live cache makes the decisions of the original
//! one: `reference::ReferenceCache` below is a faithful copy of the cache as
//! it was *before* victim selection moved behind a policy layer (same
//! arithmetic, same RNG, same stats ordering). The proptests replay arbitrary
//! insert/get/flush interleavings against both and assert decision-for-decision
//! equality: every lookup result, every insert outcome, every counter, under
//! both score policies.
//!
//! The reference keeps its own fat `Vec<Option<RefEntry>>` table, reduces
//! victim draws with `%` and hashes `seen` with the default hasher, so it is
//! also the oracle for the live cache's occupancy bitmap, dense score array,
//! division-free draw reduction and key hasher. (The two share `FreeList`;
//! `proptests.rs` holds that one to the tree it replaced.)

use proptest::prelude::*;
use rmatc_clampi::cache::CacheInsertOutcome;
use rmatc_clampi::{Clampi, ClampiConfig, EntryKey};
use rmatc_rma::WindowId;

/// The cache exactly as it stood before the policy trait: victim scores,
/// admission control and sampled victim selection inlined, operating on the
/// same (unchanged) `FreeList` building block.
mod reference {
    use rmatc_clampi::freelist::FreeList;
    use rmatc_clampi::{ClampiConfig, EntryKey, ScorePolicy};
    use std::collections::HashSet;
    use std::sync::Arc;

    const WAYS: usize = 4;
    const LRU_WEIGHT: f64 = 1.0;
    const POSITIONAL_WEIGHT: f64 = 0.5;
    const USER_WEIGHT: f64 = 2.0;

    pub struct RefEntry {
        pub key: EntryKey,
        pub data: Arc<[u32]>,
        pub addr: usize,
        pub bytes: usize,
        pub last_access: u64,
        pub user_score: f64,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RefOutcome {
        Inserted,
        InsertedAfterEvicting(usize),
        NotCached,
    }

    /// Counters mirroring the pre-refactor `CacheStats` (without the
    /// policy-attributed fields this PR added).
    #[derive(Debug, Default, PartialEq)]
    pub struct RefStats {
        pub hits: u64,
        pub misses: u64,
        pub compulsory_misses: u64,
        pub capacity_evictions: u64,
        pub conflict_evictions: u64,
        pub uncacheable: u64,
        pub bytes_from_cache: u64,
        pub bytes_from_network: u64,
        pub flushes: u64,
    }

    pub struct ReferenceCache {
        config: ClampiConfig,
        slots: Vec<Option<RefEntry>>,
        freelist: FreeList,
        clock: u64,
        pub stats: RefStats,
        seen: HashSet<EntryKey>,
        occupied: usize,
        occupied_bytes: usize,
        max_user_score: f64,
        rng_state: u64,
    }

    impl ReferenceCache {
        pub fn new(config: ClampiConfig) -> Self {
            let mut slots = Vec::new();
            slots.resize_with(config.table_slots.max(1), || None);
            Self {
                freelist: FreeList::new(config.capacity_bytes),
                slots,
                clock: 0,
                stats: RefStats::default(),
                seen: HashSet::new(),
                occupied: 0,
                occupied_bytes: 0,
                max_user_score: 0.0,
                rng_state: 0x9e37_79b9_7f4a_7c15,
                config,
            }
        }

        pub fn len(&self) -> usize {
            self.occupied
        }

        pub fn occupied_bytes(&self) -> usize {
            self.occupied_bytes
        }

        fn probe_slots(&self, key: &EntryKey) -> ([usize; WAYS], usize) {
            let n = self.slots.len();
            let base = key.slot(n);
            let count = WAYS.min(n);
            let mut probes = [0usize; WAYS];
            for (i, probe) in probes.iter_mut().take(count).enumerate() {
                *probe = (base + i) % n;
            }
            (probes, count)
        }

        pub fn lookup(&mut self, key: EntryKey) -> Option<Arc<[u32]>> {
            self.clock += 1;
            let clock = self.clock;
            let mut hit = None;
            let (probes, ways) = self.probe_slots(&key);
            for &slot in &probes[..ways] {
                if let Some(entry) = &mut self.slots[slot] {
                    if entry.key == key {
                        entry.last_access = clock;
                        hit = Some(Arc::clone(&entry.data));
                        break;
                    }
                }
            }
            if let Some(data) = &hit {
                self.stats.hits += 1;
                self.stats.bytes_from_cache += (data.len() * std::mem::size_of::<u32>()) as u64;
            } else {
                self.stats.misses += 1;
                if self.seen.insert(key) {
                    self.stats.compulsory_misses += 1;
                }
            }
            hit
        }

        pub fn insert(&mut self, key: EntryKey, data: Vec<u32>, user_score: f64) -> RefOutcome {
            let data: Arc<[u32]> = data.into();
            let bytes = data.len() * std::mem::size_of::<u32>();
            self.stats.bytes_from_network += bytes as u64;
            if bytes > self.freelist.capacity() {
                self.stats.uncacheable += 1;
                return RefOutcome::NotCached;
            }
            self.max_user_score = self.max_user_score.max(user_score);
            let mut evicted = 0usize;
            let (probes, ways) = self.probe_slots(&key);
            let probes = &probes[..ways];
            let mut slot = None;
            for &s in probes {
                match &self.slots[s] {
                    Some(resident) if resident.key == key => {
                        let resident = self.slots[s].as_mut().expect("checked above");
                        resident.data = data;
                        resident.last_access = self.clock;
                        resident.user_score = user_score;
                        return RefOutcome::Inserted;
                    }
                    None if slot.is_none() => slot = Some(s),
                    _ => {}
                }
            }
            let slot = match slot {
                Some(s) => s,
                None => {
                    let victim = probes
                        .iter()
                        .copied()
                        .max_by(|&a, &b| {
                            let sa = self.victim_score(self.slots[a].as_ref().expect("occupied"));
                            let sb = self.victim_score(self.slots[b].as_ref().expect("occupied"));
                            sa.partial_cmp(&sb).expect("scores are not NaN")
                        })
                        .expect("probe sequence is never empty");
                    self.evict_slot(victim);
                    self.stats.conflict_evictions += 1;
                    evicted += 1;
                    victim
                }
            };
            let addr = loop {
                if let Some(addr) = self.freelist.allocate(bytes) {
                    break addr;
                }
                match self.pick_victim_slot(slot) {
                    Some(victim_slot) => {
                        if self.config.scoring == ScorePolicy::ApplicationScore {
                            let victim_score = self.slots[victim_slot]
                                .as_ref()
                                .map(|e| e.user_score)
                                .unwrap_or(0.0);
                            if user_score < victim_score {
                                self.stats.uncacheable += 1;
                                return RefOutcome::NotCached;
                            }
                        }
                        self.evict_slot(victim_slot);
                        self.stats.capacity_evictions += 1;
                        evicted += 1;
                    }
                    None => {
                        self.stats.uncacheable += 1;
                        return RefOutcome::NotCached;
                    }
                }
            };
            self.slots[slot] = Some(RefEntry {
                key,
                data,
                addr,
                bytes,
                last_access: self.clock,
                user_score,
            });
            self.occupied += 1;
            self.occupied_bytes += bytes;
            if evicted == 0 {
                RefOutcome::Inserted
            } else {
                RefOutcome::InsertedAfterEvicting(evicted)
            }
        }

        pub fn flush(&mut self) {
            for slot in 0..self.slots.len() {
                if self.slots[slot].is_some() {
                    self.evict_slot(slot);
                }
            }
            self.stats.flushes += 1;
        }

        fn victim_score(&self, entry: &RefEntry) -> f64 {
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

        fn pick_victim_slot(&mut self, protect: usize) -> Option<usize> {
            if self.occupied == 0 || (self.occupied == 1 && self.slots[protect].is_some()) {
                return None;
            }
            const SAMPLES: usize = 16;
            let nslots = self.slots.len();
            let mut best: Option<(usize, f64)> = None;
            let mut inspected = 0usize;
            let mut attempts = 0usize;
            while inspected < SAMPLES && attempts < nslots.saturating_mul(8).max(64) {
                attempts += 1;
                let idx = self.next_random() % nslots;
                if idx == protect {
                    continue;
                }
                if let Some(entry) = &self.slots[idx] {
                    inspected += 1;
                    let score = self.victim_score(entry);
                    if best.map(|(_, s)| score > s).unwrap_or(true) {
                        best = Some((idx, score));
                    }
                }
            }
            if best.is_none() {
                for idx in 0..nslots {
                    if idx == protect {
                        continue;
                    }
                    if let Some(entry) = &self.slots[idx] {
                        let score = self.victim_score(entry);
                        if best.map(|(_, s)| score > s).unwrap_or(true) {
                            best = Some((idx, score));
                        }
                    }
                }
            }
            best.map(|(idx, _)| idx)
        }

        fn evict_slot(&mut self, slot: usize) {
            if let Some(entry) = self.slots[slot].take() {
                self.freelist.free(entry.addr, entry.bytes);
                self.occupied -= 1;
                self.occupied_bytes -= entry.bytes;
            }
        }

        fn next_random(&mut self) -> usize {
            let mut x = self.rng_state;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.rng_state = x;
            (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 32) as usize
        }
    }
}

/// One step of a replayed trace.
#[derive(Debug, Clone)]
enum Op {
    /// Lookup `key(offset, len)`; on a miss, insert `len` words with `score`.
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
    (0u32..10, 0usize..48, 1usize..12, 0u32..1000).prop_map(|(sel, offset, len, score)| match sel {
        9 => Op::Flush,
        _ => Op::Access {
            offset,
            len,
            score: score as f64,
        },
    })
}

fn key(offset: usize, len: usize) -> EntryKey {
    EntryKey::new(WindowId(0), 1, offset, len)
}

fn assert_stats_match(
    live: &rmatc_clampi::CacheStats,
    reference: &reference::RefStats,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(live.hits, reference.hits);
    prop_assert_eq!(live.misses, reference.misses);
    prop_assert_eq!(live.compulsory_misses, reference.compulsory_misses);
    prop_assert_eq!(live.capacity_evictions, reference.capacity_evictions);
    prop_assert_eq!(live.conflict_evictions, reference.conflict_evictions);
    prop_assert_eq!(live.uncacheable, reference.uncacheable);
    prop_assert_eq!(live.bytes_from_cache, reference.bytes_from_cache);
    prop_assert_eq!(live.bytes_from_network, reference.bytes_from_network);
    prop_assert_eq!(live.flushes, reference.flushes);
    Ok(())
}

/// Replays `ops` through the live cache and the reference side by side:
/// every lookup result, insert outcome, entry count and counter must agree.
fn replay_against_reference(ops: Vec<Op>, cfg: ClampiConfig) -> Result<(), TestCaseError> {
    let mut live: Clampi<u32> = Clampi::new(cfg);
    let mut reference = reference::ReferenceCache::new(cfg);
    for (i, op) in ops.into_iter().enumerate() {
        match op {
            Op::Access { offset, len, score } => {
                let k = key(offset, len);
                let live_hit = live.lookup(k);
                let ref_hit = reference.lookup(k);
                prop_assert_eq!(
                    live_hit.is_some(),
                    ref_hit.is_some(),
                    "lookup {} diverged",
                    i
                );
                if let (Some(a), Some(b)) = (&live_hit, &ref_hit) {
                    prop_assert_eq!(&**a, &**b);
                }
                if live_hit.is_none() {
                    let data: Vec<u32> = (0..len as u32).map(|x| x + offset as u32).collect();
                    let live_out = live.insert(k, data.clone(), score);
                    let ref_out = reference.insert(k, data, score);
                    let matches = matches!(
                        (live_out, ref_out),
                        (
                            CacheInsertOutcome::Inserted,
                            reference::RefOutcome::Inserted
                        ) | (
                            CacheInsertOutcome::NotCached,
                            reference::RefOutcome::NotCached
                        )
                    ) || matches!(
                        (live_out, ref_out),
                        (
                            CacheInsertOutcome::InsertedAfterEvicting(a),
                            reference::RefOutcome::InsertedAfterEvicting(b)
                        ) if a == b
                    );
                    prop_assert!(
                        matches,
                        "insert {} diverged: {:?} vs {:?}",
                        i,
                        live_out,
                        ref_out
                    );
                }
            }
            Op::Flush => {
                live.flush();
                reference.flush();
            }
        }
        prop_assert_eq!(
            live.len(),
            reference.len(),
            "entry count diverged at op {}",
            i
        );
        prop_assert_eq!(live.occupied_bytes(), reference.occupied_bytes());
    }
    assert_stats_match(live.stats(), &reference.stats)?;
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The paper's score rule is decision-for-decision identical to the
    /// pre-refactor cache, under both score policies.
    #[test]
    fn paper_score_is_bit_identical_to_pre_refactor_cache(
        ops in prop::collection::vec(op_strategy(), 1..400),
        capacity in 32usize..2048,
        slots in 1usize..96,
        use_scores in any::<bool>(),
    ) {
        let mut cfg = ClampiConfig::always_cache(capacity, slots);
        if use_scores {
            cfg = cfg.with_application_scores();
        }
        replay_against_reference(ops, cfg)?;
    }

    /// The same, on a table that stays at least three-quarters empty (the
    /// buffer fills long before the index does, as in the adjacency cache):
    /// the victim sampler rejects most of its draws, so the draw-to-slot
    /// reduction and the occupancy test are compared, not only the scoring.
    #[test]
    fn sparse_tables_sample_the_same_victims(
        ops in prop::collection::vec(op_strategy(), 100..400),
        capacity in 32usize..256,
        slots in 256usize..4096,
        use_scores in any::<bool>(),
    ) {
        // Entries are at least 4 bytes: at most `capacity / 4 <= slots / 4` fit.
        let mut cfg = ClampiConfig::always_cache(capacity, slots);
        if use_scores {
            cfg = cfg.with_application_scores();
        }
        replay_against_reference(ops, cfg)?;
    }
}
