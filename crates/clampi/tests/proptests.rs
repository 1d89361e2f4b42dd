//! Property-based tests of the CLaMPI reproduction: the free-region manager never
//! loses or double-books space and allocates exactly like the balanced-tree
//! manager it replaced, and the cache behaves like a correct (if bounded)
//! memoisation of the window under arbitrary access patterns and configurations.

mod common;

use proptest::prelude::*;
use rmatc_clampi::freelist::FreeList;
use rmatc_clampi::{CacheProbe, ClampiConfig, ShardedCachedWindow};
use rmatc_rma::{Endpoint, NetworkModel, Window};
use std::collections::BTreeMap;

/// The free-region manager as it was before it became a flat vector: a
/// `BTreeMap` keyed by start address. Victim scores read entry addresses, so
/// the two must hand out the same address for every request;
/// `policy_equivalence.rs`'s reference cache shares the live `FreeList` and
/// cannot see an allocator drift on its own.
struct TreeFreeList {
    capacity: usize,
    free: BTreeMap<usize, usize>,
}

impl TreeFreeList {
    fn new(capacity: usize) -> Self {
        let free = (capacity > 0)
            .then_some((0, capacity))
            .into_iter()
            .collect();
        Self { capacity, free }
    }

    fn allocate(&mut self, size: usize) -> Option<usize> {
        if size == 0 {
            return Some(0);
        }
        let addr = *self.free.iter().find(|(_, &len)| len >= size)?.0;
        let len = self.free.remove(&addr).expect("just found");
        if len > size {
            self.free.insert(addr + size, len - size);
        }
        Some(addr)
    }

    fn free(&mut self, addr: usize, size: usize) {
        if size == 0 {
            return;
        }
        let (mut start, mut len) = (addr, size);
        if let Some((&prev_addr, &prev_len)) = self.free.range(..addr).next_back() {
            if prev_addr + prev_len == addr {
                self.free.remove(&prev_addr);
                start = prev_addr;
                len += prev_len;
            }
        }
        if let Some(next_len) = self.free.remove(&(addr + size)) {
            len += next_len;
        }
        self.free.insert(start, len);
    }

    fn adjacency_to_free(&self, addr: usize, size: usize) -> (bool, bool) {
        let before = self
            .free
            .range(..addr)
            .next_back()
            .is_some_and(|(&a, &l)| a + l == addr);
        (before, self.free.contains_key(&(addr + size)))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn flat_freelist_matches_the_tree_it_replaced(
        capacity in 0usize..2048,
        ops in prop::collection::vec((0u32..8, 0usize..96, any::<prop::sample::Index>()), 1..300),
    ) {
        let mut flat = FreeList::new(capacity);
        let mut tree = TreeFreeList::new(capacity);
        let mut allocated: Vec<(usize, usize)> = Vec::new();
        for (step, (sel, size, pick)) in ops.into_iter().enumerate() {
            match sel {
                // Free a live allocation (3 in 8)...
                0..=2 if !allocated.is_empty() => {
                    let (addr, size) = allocated.swap_remove(pick.index(allocated.len()));
                    flat.free(addr, size);
                    tree.free(addr, size);
                }
                // ...else allocate (sizes include 0 and ones that cannot fit).
                _ => {
                    let addr = flat.allocate(size);
                    prop_assert_eq!(addr, tree.allocate(size), "step {}: allocate({})", step, size);
                    if let Some(addr) = addr {
                        allocated.push((addr, size));
                    }
                }
            }
            prop_assert_eq!(flat.capacity(), tree.capacity);
            prop_assert_eq!(flat.fragments(), tree.free.len(), "step {}", step);
            prop_assert_eq!(flat.total_free(), tree.free.values().sum::<usize>());
            prop_assert_eq!(flat.largest_free(), tree.free.values().copied().max().unwrap_or(0));
            for &(addr, size) in &allocated {
                prop_assert_eq!(
                    flat.adjacency_to_free(addr, size),
                    tree.adjacency_to_free(addr, size),
                    "step {}: neighbours of [{}, {})", step, addr, addr + size
                );
            }
        }
    }

    #[test]
    fn freelist_conserves_bytes(capacity in 1usize..4096,
                                sizes in prop::collection::vec(1usize..128, 1..64)) {
        let mut fl = FreeList::new(capacity);
        let mut allocated: Vec<(usize, usize)> = Vec::new();
        for size in sizes {
            if let Some(addr) = fl.allocate(size) {
                // No overlap with existing allocations.
                for &(a, s) in &allocated {
                    prop_assert!(addr + size <= a || a + s <= addr,
                        "allocation [{addr},{}) overlaps [{a},{})", addr + size, a + s);
                }
                allocated.push((addr, size));
            }
            let used: usize = allocated.iter().map(|&(_, s)| s).sum();
            prop_assert_eq!(fl.total_free() + used, capacity);
            prop_assert!(fl.largest_free() <= fl.total_free());
        }
        // Free everything (in insertion order) and verify full coalescing.
        for (addr, size) in allocated.drain(..) {
            fl.free(addr, size);
        }
        prop_assert_eq!(fl.total_free(), capacity);
        prop_assert!(fl.fragments() <= 1);
    }

    #[test]
    fn cached_window_is_a_transparent_memoisation(
        accesses in prop::collection::vec((0usize..64, 1usize..16), 1..300),
        capacity in 32usize..4096,
        slots in 1usize..128,
        use_scores in any::<bool>(),
        flushing in any::<bool>(),
    ) {
        // Exposed data: rank 1 exposes 128 known values.
        let window = Window::from_parts(vec![Vec::new(), (0..128u32).map(|x| x * 7).collect()]);
        let mut cfg = ClampiConfig::always_cache(capacity, slots);
        if use_scores {
            cfg = cfg.with_application_scores();
        }
        let cached = ShardedCachedWindow::new(window.id(), cfg, 1);
        let mut ep = Endpoint::new(0, 2, NetworkModel::aries());
        ep.lock_all();
        for (i, (offset, len)) in accesses.into_iter().enumerate() {
            let offset = offset.min(128 - len.min(128));
            let got = common::read(&cached, &mut ep, &window, (1, offset, len), len as f64);
            let expected: Vec<u32> = (offset..offset + len).map(|x| x as u32 * 7).collect();
            prop_assert_eq!(&got[..], &expected[..], "access {}", i);
            if flushing && i % 17 == 0 {
                cached.flush();
            }
        }
        ep.unlock_all();
        let stats = cached.stats();
        prop_assert_eq!(stats.lookups(), stats.hits + stats.misses);
        prop_assert!(stats.compulsory_misses <= stats.misses);
        if flushing {
            // A flushed cache can only hit between flushes, never across one.
            prop_assert!(stats.flushes > 0 || stats.lookups() < 17);
        }
    }

    #[test]
    fn table_size_one_still_works(accesses in prop::collection::vec(0usize..32, 1..100)) {
        // The degenerate single-slot table turns every distinct key into a conflict;
        // data correctness must be unaffected.
        let window = Window::from_parts(vec![Vec::new(), (0..64u32).collect()]);
        let cached = ShardedCachedWindow::new(window.id(), ClampiConfig::always_cache(1024, 1), 1);
        let mut ep = Endpoint::new(0, 2, NetworkModel::zero());
        ep.lock_all();
        for &offset in &accesses {
            let got = common::read(&cached, &mut ep, &window, (1, offset, 1), 0.0);
            prop_assert_eq!(got[0], offset as u32);
        }
        // At most one key is resident: at most one of them probes as a hit.
        let resident = (0..32)
            .filter(|&offset| matches!(cached.probe(&mut ep, 1, offset, 1), CacheProbe::Hit(_)))
            .count();
        prop_assert!(resident <= 1, "{} keys resident in a one-slot table", resident);
        ep.unlock_all();
    }
}
