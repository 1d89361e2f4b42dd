//! Free-region manager for the cache's memory buffer.
//!
//! CLaMPI stores variable-size entries in a contiguous memory buffer and tracks free
//! regions in an AVL tree; allocating and freeing entries can leave the free space
//! externally fragmented (many small non-contiguous holes), which is what the
//! positional eviction score tries to counteract. We keep the free regions in one
//! address-sorted vector: the observable behaviour is the tree's — first-fit
//! (lowest address) allocation, coalescing on free, and queries for the largest
//! hole and the total free space used to distinguish capacity misses from
//! fragmentation misses — but the first-fit scan runs over contiguous memory and
//! the positional score of a victim candidate costs one binary search, because an
//! entry's two possible free neighbours are adjacent elements of the vector.

/// Allocator over a simulated buffer of `capacity` bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FreeList {
    capacity: usize,
    /// Free regions as `(start address, length)`, sorted by address; never
    /// empty-length, never overlapping, never touching (touching regions are
    /// coalesced on free).
    free: Vec<(usize, usize)>,
}

impl FreeList {
    /// Creates a free list covering an empty buffer of `capacity` bytes.
    pub fn new(capacity: usize) -> Self {
        let mut list = Self {
            capacity: 0,
            free: Vec::new(),
        };
        list.reset(capacity);
        list
    }

    /// Buffer capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total free bytes (possibly fragmented).
    pub fn total_free(&self) -> usize {
        self.free.iter().map(|&(_, len)| len).sum()
    }

    /// Size of the largest contiguous free region.
    pub fn largest_free(&self) -> usize {
        self.free.iter().map(|&(_, len)| len).max().unwrap_or(0)
    }

    /// Number of disjoint free regions; more regions at the same total free space
    /// means more external fragmentation.
    pub fn fragments(&self) -> usize {
        self.free.len()
    }

    /// External fragmentation metric in `[0, 1]`: `1 - largest_free / total_free`.
    pub fn fragmentation(&self) -> f64 {
        let total = self.total_free();
        if total == 0 {
            return 0.0;
        }
        1.0 - self.largest_free() as f64 / total as f64
    }

    /// Index of the first free region starting at or after `addr`.
    fn first_at_or_after(&self, addr: usize) -> usize {
        self.free.partition_point(|&(start, _)| start < addr)
    }

    /// Allocates `size` bytes with first-fit. Returns the start address, or `None`
    /// if no single free region is large enough (even if the total free space is).
    pub fn allocate(&mut self, size: usize) -> Option<usize> {
        if size == 0 {
            return Some(0);
        }
        let i = self.free.iter().position(|&(_, len)| len >= size)?;
        let (addr, len) = self.free[i];
        if len > size {
            self.free[i] = (addr + size, len - size);
        } else {
            self.free.remove(i);
        }
        Some(addr)
    }

    /// Frees the region `[addr, addr + size)`, coalescing with adjacent free regions.
    pub fn free(&mut self, addr: usize, size: usize) {
        if size == 0 {
            return;
        }
        assert!(addr + size <= self.capacity, "free out of buffer bounds");
        let next = self.first_at_or_after(addr);
        // Coalesce with the predecessor if it ends exactly at `addr`.
        let merges_prev = next > 0 && {
            let (prev_addr, prev_len) = self.free[next - 1];
            assert!(
                prev_addr + prev_len <= addr,
                "double free / overlap detected"
            );
            prev_addr + prev_len == addr
        };
        // Coalesce with the successor if it starts exactly at the end.
        let merges_next = next < self.free.len() && {
            assert!(
                addr + size <= self.free[next].0,
                "double free / overlap detected"
            );
            addr + size == self.free[next].0
        };
        match (merges_prev, merges_next) {
            (true, true) => {
                self.free[next - 1].1 += size + self.free[next].1;
                self.free.remove(next);
            }
            (true, false) => self.free[next - 1].1 += size,
            (false, true) => self.free[next] = (addr, size + self.free[next].1),
            (false, false) => self.free.insert(next, (addr, size)),
        }
    }

    /// Whether the bytes adjacent to the *allocated* region `[addr, addr + size)`
    /// (on either side) are free. Used by the positional eviction score: evicting
    /// an entry that touches free space merges regions and reduces fragmentation.
    pub fn adjacency_to_free(&self, addr: usize, size: usize) -> (bool, bool) {
        // No free region starts inside an allocated one, so the region ending at
        // `addr` and the region starting at `addr + size` sit on either side of
        // one position in the vector.
        let next = self.first_at_or_after(addr);
        let before = next > 0 && {
            let (prev_addr, prev_len) = self.free[next - 1];
            prev_addr + prev_len == addr
        };
        let after = self.free.get(next).is_some_and(|&(start, _)| {
            debug_assert!(start >= addr + size, "region is not allocated");
            start == addr + size
        });
        (before, after)
    }

    /// Resets the free list to a (possibly larger) empty buffer.
    pub fn reset(&mut self, capacity: usize) {
        self.capacity = capacity;
        self.free.clear();
        if capacity > 0 {
            self.free.push((0, capacity));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_buffer_is_one_big_region() {
        let fl = FreeList::new(1024);
        assert_eq!(fl.total_free(), 1024);
        assert_eq!(fl.largest_free(), 1024);
        assert_eq!(fl.fragments(), 1);
        assert_eq!(fl.fragmentation(), 0.0);
    }

    #[test]
    fn allocate_first_fit_and_split() {
        let mut fl = FreeList::new(100);
        assert_eq!(fl.allocate(30), Some(0));
        assert_eq!(fl.allocate(30), Some(30));
        assert_eq!(fl.total_free(), 40);
        assert_eq!(fl.allocate(50), None);
        assert_eq!(fl.allocate(40), Some(60));
        assert_eq!(fl.total_free(), 0);
        assert_eq!(fl.allocate(1), None);
    }

    #[test]
    fn zero_sized_allocations_always_succeed() {
        let mut fl = FreeList::new(0);
        assert_eq!(fl.allocate(0), Some(0));
        assert_eq!(fl.allocate(1), None);
    }

    #[test]
    fn free_coalesces_with_neighbours() {
        let mut fl = FreeList::new(100);
        let a = fl.allocate(20).unwrap();
        let b = fl.allocate(20).unwrap();
        let c = fl.allocate(20).unwrap();
        assert_eq!((a, b, c), (0, 20, 40));
        fl.free(a, 20);
        fl.free(c, 20);
        // Free regions: [0,20), [40,100) → fragmented.
        assert_eq!(fl.fragments(), 2);
        assert!(fl.fragmentation() > 0.0);
        fl.free(b, 20);
        // Everything coalesces back into one region.
        assert_eq!(fl.fragments(), 1);
        assert_eq!(fl.total_free(), 100);
        assert_eq!(fl.largest_free(), 100);
    }

    #[test]
    fn fragmentation_prevents_large_allocation_despite_total_space() {
        let mut fl = FreeList::new(90);
        let a = fl.allocate(30).unwrap();
        let _b = fl.allocate(30).unwrap();
        let c = fl.allocate(30).unwrap();
        fl.free(a, 30);
        fl.free(c, 30);
        assert_eq!(fl.total_free(), 60);
        // 60 bytes are free but not contiguous.
        assert_eq!(fl.allocate(60), None);
        assert_eq!(fl.largest_free(), 30);
    }

    #[test]
    fn adjacency_to_free_detects_mergeable_entries() {
        let mut fl = FreeList::new(100);
        let a = fl.allocate(20).unwrap(); // [0,20)
        let b = fl.allocate(20).unwrap(); // [20,40)
        let _c = fl.allocate(20).unwrap(); // [40,60)
        fl.free(a, 20);
        // Entry b has free space before it (region [0,20)) and none after.
        assert_eq!(fl.adjacency_to_free(b, 20), (true, false));
        // Entry c has free space after it (tail region [60,100)) and none before.
        assert_eq!(fl.adjacency_to_free(40, 20), (false, true));
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn overlapping_free_is_detected() {
        let mut fl = FreeList::new(100);
        let a = fl.allocate(40).unwrap();
        fl.free(a, 40);
        fl.free(a + 10, 10);
    }

    #[test]
    fn reset_restores_an_empty_buffer() {
        let mut fl = FreeList::new(50);
        fl.allocate(20).unwrap();
        fl.reset(200);
        assert_eq!(fl.capacity(), 200);
        assert_eq!(fl.total_free(), 200);
        assert_eq!(fl.fragments(), 1);
    }

    #[test]
    fn allocation_after_free_reuses_space() {
        let mut fl = FreeList::new(64);
        let a = fl.allocate(64).unwrap();
        assert_eq!(fl.allocate(1), None);
        fl.free(a, 64);
        assert_eq!(fl.allocate(64), Some(0));
    }
}
