//! RMA windows: logically distributed, network-exposed memory regions.
//!
//! A [`Window`] corresponds to an `MPI_Win` created over one array per rank — in the
//! paper, `w_offsets` exposes every rank's `offsets` array and `w_adj` exposes every
//! rank's `adjacencies` array (Figure 3). Once created (the exposure epoch), the
//! window contents are immutable, which is exactly the property that lets CLaMPI run
//! in *always-cache* mode.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Globally unique identifier of a window; CLaMPI keys cache entries by window id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WindowId(pub u64);

static NEXT_WINDOW_ID: AtomicU64 = AtomicU64::new(0);

/// A read-only distributed memory region: one exposed slice per rank.
///
/// Cloning a `Window` is cheap (it clones `Arc`s); all clones refer to the same
/// exposed memory, so it can be handed to every rank thread.
#[derive(Debug, Clone)]
pub struct Window<T> {
    id: WindowId,
    parts: Arc<Vec<Arc<Vec<T>>>>,
}

impl<T: Copy + Send + Sync> Window<T> {
    /// Creates a window exposing one slice per rank. This corresponds to the
    /// collective `MPI_Win_create` performed during the (untimed) setup phase.
    pub fn from_parts(parts: Vec<Vec<T>>) -> Self {
        let id = WindowId(NEXT_WINDOW_ID.fetch_add(1, Ordering::Relaxed));
        Self {
            id,
            parts: Arc::new(parts.into_iter().map(Arc::new).collect()),
        }
    }

    /// The window's unique id.
    pub fn id(&self) -> WindowId {
        self.id
    }

    /// Number of ranks exposing memory in this window.
    pub fn ranks(&self) -> usize {
        self.parts.len()
    }

    /// Length (in elements) of the region exposed by `rank`.
    pub fn len_of(&self, rank: usize) -> usize {
        self.parts[rank].len()
    }

    /// Direct reference to the memory exposed by `rank`.
    ///
    /// This is what the *owner* of the region uses for local reads; remote ranks must
    /// go through [`crate::Endpoint::get`] so that the access is counted and charged.
    pub fn local_part(&self, rank: usize) -> &[T] {
        &self.parts[rank]
    }

    /// Size in bytes of one element.
    pub fn element_size(&self) -> usize {
        std::mem::size_of::<T>()
    }

    /// Total exposed bytes across all ranks.
    pub fn total_bytes(&self) -> usize {
        self.parts
            .iter()
            .map(|p| p.len() * std::mem::size_of::<T>())
            .sum()
    }

    /// The source slice of a get: `len` elements starting at `offset` in the
    /// region exposed by `target`, bounds-checked. Internal: this is the
    /// simulator's stand-in for the wire — [`crate::Endpoint`] reads it to
    /// perform the data transfer of `MPI_Get`.
    pub(crate) fn exposed(&self, target: usize, offset: usize, len: usize) -> &[T] {
        let part = &self.parts[target];
        assert!(
            offset + len <= part.len(),
            "RMA get out of bounds: offset {offset} + len {len} > exposed {} (window {:?}, target {target})",
            part.len(),
            self.id
        );
        &part[offset..offset + len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_ids_are_unique() {
        let a = Window::from_parts(vec![vec![1u32]]);
        let b = Window::from_parts(vec![vec![1u32]]);
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn exposes_one_part_per_rank() {
        let w = Window::from_parts(vec![vec![1u64, 2], vec![3u64], vec![]]);
        assert_eq!(w.ranks(), 3);
        assert_eq!(w.len_of(0), 2);
        assert_eq!(w.len_of(2), 0);
        assert_eq!(w.local_part(1), &[3]);
    }

    #[test]
    fn exposed_reads_the_right_slice() {
        let w = Window::from_parts(vec![vec![10u32, 20, 30, 40], vec![50u32, 60]]);
        assert_eq!(w.exposed(0, 1, 2), &[20, 30]);
        assert_eq!(w.exposed(1, 0, 2), &[50, 60]);
        assert_eq!(w.exposed(0, 4, 0), &[] as &[u32]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn exposed_out_of_bounds_panics() {
        let w = Window::from_parts(vec![vec![1u32, 2]]);
        w.exposed(0, 1, 5);
    }

    #[test]
    fn total_bytes_accounts_for_element_size() {
        let w = Window::from_parts(vec![vec![0u64; 10], vec![0u64; 6]]);
        assert_eq!(w.total_bytes(), 16 * 8);
        assert_eq!(w.element_size(), 8);
    }

    #[test]
    fn clones_share_the_same_memory_and_id() {
        let w = Window::from_parts(vec![vec![7u32; 4]]);
        let c = w.clone();
        assert_eq!(w.id(), c.id());
        assert_eq!(c.local_part(0), &[7, 7, 7, 7]);
    }
}
