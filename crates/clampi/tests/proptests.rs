//! Property-based tests of the CLaMPI reproduction: the free-region manager never
//! loses or double-books space, and the cache behaves like a correct (if bounded)
//! memoisation of the window under arbitrary access patterns and configurations.

use proptest::prelude::*;
use rmatc_clampi::freelist::FreeList;
use rmatc_clampi::{ClampiConfig, ConsistencyMode, ScorePolicy, ShardedCachedWindow};
use rmatc_rma::{Endpoint, NetworkModel, Window};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

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
        mode_transparent in any::<bool>(),
    ) {
        // Exposed data: rank 1 exposes 128 known values.
        let window = Window::from_parts(vec![Vec::new(), (0..128u32).map(|x| x * 7).collect()]);
        let mut cfg = ClampiConfig::always_cache(capacity, slots);
        if use_scores {
            cfg = cfg.with_application_scores();
        }
        if mode_transparent {
            cfg.mode = ConsistencyMode::Transparent;
        }
        let cached = ShardedCachedWindow::new(window, cfg, 1);
        let mut ep = Endpoint::new(0, 2, NetworkModel::aries());
        ep.lock_all();
        for (i, (offset, len)) in accesses.into_iter().enumerate() {
            let offset = offset.min(128 - len.min(128));
            let got = cached
                .get_scored(&mut ep, 1, offset, len, len as f64)
                .expect("no faults injected")
                .to_vec();
            let expected: Vec<u32> = (offset..offset + len).map(|x| x as u32 * 7).collect();
            prop_assert_eq!(got, expected, "access {}", i);
            if i % 17 == 0 {
                cached.end_epoch();
            }
        }
        ep.unlock_all();
        let stats = cached.stats();
        prop_assert_eq!(stats.lookups(), stats.hits + stats.misses);
        prop_assert!(stats.compulsory_misses <= stats.misses);
        if mode_transparent {
            // Transparent mode can only hit within an epoch, never across flushes.
            prop_assert!(stats.flushes > 0 || stats.lookups() < 17);
        }
        let _ = ScorePolicy::LruPositional;
    }

    #[test]
    fn table_size_one_still_works(accesses in prop::collection::vec(0usize..32, 1..100)) {
        // The degenerate single-slot table turns every distinct key into a conflict;
        // data correctness must be unaffected.
        let window = Window::from_parts(vec![Vec::new(), (0..64u32).collect()]);
        let cached = ShardedCachedWindow::new(window, ClampiConfig::always_cache(1024, 1), 1);
        let mut ep = Endpoint::new(0, 2, NetworkModel::zero());
        ep.lock_all();
        for offset in accesses {
            let got = cached
                .get_scored(&mut ep, 1, offset, 1, 0.0)
                .expect("no faults injected");
            prop_assert_eq!(got[0], offset as u32);
        }
        ep.unlock_all();
        prop_assert!(cached.cache().len() <= 1);
    }
}
