//! Cache entries and their keys.

use rmatc_rma::WindowId;
use std::sync::Arc;

/// Key identifying one cached remote region: which window, which target rank, and
/// which `[offset, offset + len)` element range. This mirrors CLaMPI's indexing of
/// gets by their `(window, target, displacement, size)` tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EntryKey {
    /// Window the get targeted.
    pub window: WindowId,
    /// Target rank of the get.
    pub target: usize,
    /// Element offset within the target's exposed region.
    pub offset: usize,
    /// Number of elements.
    pub len: usize,
}

impl EntryKey {
    /// Creates a key.
    pub fn new(window: WindowId, target: usize, offset: usize, len: usize) -> Self {
        Self {
            window,
            target,
            offset,
            len,
        }
    }

    /// Hash-table slot for this key given `slots` total slots. A simple multiplicative
    /// hash is sufficient and deterministic across runs.
    ///
    /// The window id is part of key *equality* but deliberately not of the
    /// placement: ids come from a process-global counter, so hashing one would
    /// make the conflicts a cache sees depend on how many windows anything
    /// else in the process created first. A cache wraps one window, so the
    /// id separates no keys it holds.
    pub fn slot(&self, slots: usize) -> usize {
        debug_assert!(slots > 0);
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for v in [self.target as u64, self.offset as u64, self.len as u64] {
            h ^= v;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        (h % slots as u64) as usize
    }
}

/// Hasher for sets of [`EntryKey`]s inside the cache: folds the key's words
/// with a rotate-xor-multiply step. Keys are produced by the rank's own edge
/// loop, never by an adversary, so the miss path does not pay for SipHash's
/// collision resistance.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct KeyHasher(u64);

impl std::hash::Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    fn finish(&self) -> u64 {
        // The table takes its bucket from the low bits and its tag from the
        // high ones; the multiply leaves the low bits weakest.
        self.0 ^ (self.0 >> 32)
    }
}

/// One cached entry: the key it answers and the transferred data. The fields
/// victim selection reads (placement, recency, scores) live apart from it in
/// the cache's dense per-slot array, so sampling candidates never touches the
/// payload handle.
#[derive(Debug, Clone)]
pub struct Entry<T> {
    /// The key this entry answers.
    pub key: EntryKey,
    /// Cached data. The shared slice is the *same allocation* the RMA transfer
    /// landed in — inserting is a refcount bump, and hits hand out further
    /// bumps — so the payload is copied exactly once, off the wire.
    pub data: Arc<[T]>,
    /// Integrity stamp of the transfer this entry retains, computed at the
    /// source window when fault injection is enabled; `None` on fault-free
    /// runs (verification is skipped entirely).
    pub checksum: Option<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(offset: usize) -> EntryKey {
        EntryKey::new(WindowId(3), 1, offset, 10)
    }

    #[test]
    fn keys_compare_by_all_fields() {
        assert_eq!(key(5), key(5));
        assert_ne!(key(5), key(6));
        assert_ne!(key(5), EntryKey::new(WindowId(4), 1, 5, 10));
        assert_ne!(key(5), EntryKey::new(WindowId(3), 2, 5, 10));
    }

    #[test]
    fn slot_is_stable_and_in_range() {
        for slots in [1usize, 7, 64, 1023] {
            for off in 0..100 {
                let s = key(off).slot(slots);
                assert!(s < slots);
                assert_eq!(s, key(off).slot(slots));
            }
        }
    }

    #[test]
    fn slot_distributes_keys() {
        // With a reasonable table size, 1000 distinct keys should not all collide.
        let slots = 256;
        let mut used = std::collections::HashSet::new();
        for off in 0..1000 {
            used.insert(key(off).slot(slots));
        }
        assert!(
            used.len() > slots / 2,
            "hash too degenerate: {} slots used",
            used.len()
        );
    }
}
