//! Cache placement must not depend on the process-global window-id counter:
//! the same reads against the same data produce byte-identical `CacheStats`
//! however many windows anything else in the process created first. (Window
//! ids stay part of key equality; they are only kept out of the slot and
//! shard hashes. The per-shard statistics are compared by a unit test of
//! `sharded_window.rs`.)

mod common;

use rmatc_clampi::{CacheStats, Clampi, ClampiConfig, EntryKey, ShardedCachedWindow};
use rmatc_rma::{Endpoint, NetworkModel, Window};

fn fresh_window() -> Window<u32> {
    Window::from_parts(vec![(0..64u32).collect(), (0..40_000u32).collect()])
}

/// A conflict- and eviction-heavy read sequence: 600 reads over 300 distinct
/// regions through a 64-slot table that holds a fraction of them.
fn reads() -> impl Iterator<Item = (usize, usize)> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    (0..600).map(move |_| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let region = (state >> 33) as usize % 300;
        (region * 128, 8 + region % 96)
    })
}

fn config() -> ClampiConfig {
    ClampiConfig::always_cache(16 << 10, 64)
}

fn endpoint() -> Endpoint {
    let mut ep = Endpoint::new(0, 2, NetworkModel::aries());
    ep.lock_all();
    ep
}

/// The reads through a plain `Clampi` driven directly (lookup, insert on a
/// miss) under a fresh window's id.
fn plain_stats() -> CacheStats {
    let window = fresh_window();
    let mut cache: Clampi<u32> = Clampi::new(config());
    for (offset, len) in reads() {
        let key = EntryKey::new(window.id(), 1, offset, len);
        if cache.lookup(key).is_none() {
            cache.insert(key, &window.local_part(1)[offset..offset + len], 0.0);
        }
    }
    cache.stats().clone()
}

/// The same reads through the cache front over `shards` shards.
fn sharded_stats(shards: usize) -> CacheStats {
    let mut ep = endpoint();
    let window = fresh_window();
    let cw = ShardedCachedWindow::new(window.id(), config(), shards);
    for (offset, len) in reads() {
        common::read(&cw, &mut ep, &window, (1, offset, len), 0.0);
    }
    cw.stats()
}

#[test]
fn cache_stats_do_not_depend_on_how_many_windows_came_first() {
    let (plain, sharded) = (plain_stats(), sharded_stats(4));
    assert_eq!(sharded_stats(1), plain, "one shard is the plain cache");
    assert!(
        plain.conflict_evictions > 0 && plain.capacity_evictions > 0,
        "the sequence must exercise placement: {plain:?}"
    );
    for throwaway in [1usize, 7, 64] {
        for _ in 0..throwaway {
            drop(Window::from_parts(vec![vec![0u32; 1]]));
        }
        assert_eq!(
            plain_stats(),
            plain,
            "plain, after {throwaway} more windows"
        );
        assert_eq!(
            sharded_stats(4),
            sharded,
            "sharded, after {throwaway} more windows"
        );
    }
}
