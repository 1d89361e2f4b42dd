//! Zero-copy views of window regions returned by cached reads.
//!
//! The original read API materialized an owned `Vec` for every read — local
//! reads copied the window slice, hits cloned out of the cache, and misses
//! cloned the fetched buffer a second time on insert. [`RowRef`] removes all
//! of those copies: a read now resolves to a *view* of wherever the row
//! already lives — the local window part, the cache entry, or the single
//! transfer buffer of a miss — and intersection kernels run directly over it.

use std::ops::Deref;
use std::sync::Arc;

/// A zero-copy view of one read region (e.g. an adjacency row).
///
/// Dereferences to `[T]`, so it drops straight into slice-based kernels such
/// as `rmatc-core`'s intersection suite. The variant records where the data
/// came from, which the allocation tests and statistics assertions rely on:
///
/// * [`Window`](RowRef::Window) — borrowed from a window: a local-rank
///   read, or a fault-free remote read nobody keeps, read in place. No
///   allocation, no copy.
/// * [`Cached`](RowRef::Cached) — a cache hit: shares the cached entry's
///   buffer via a refcount bump.
/// * [`Fetched`](RowRef::Fetched) — a miss (or a faulted read nobody
///   keeps, copied out of the buffer it was verified in): the row's one
///   buffer. When the entry was cacheable the *same* allocation was handed
///   to the cache, so no second copy exists.
#[derive(Debug, Clone)]
pub enum RowRef<'a, T> {
    /// Borrowed straight from a window region (local, or read in place).
    Window(&'a [T]),
    /// Cache hit sharing the cached entry's buffer.
    Cached(Arc<[T]>),
    /// The freshly fetched buffer of a miss or of a faulted uncached read.
    Fetched(Arc<[T]>),
}

impl<T> RowRef<'_, T> {
    /// The row as a plain slice.
    pub fn as_slice(&self) -> &[T] {
        match self {
            RowRef::Window(slice) => slice,
            RowRef::Cached(arc) | RowRef::Fetched(arc) => arc,
        }
    }

    /// The shared buffer behind a [`Cached`](RowRef::Cached) or
    /// [`Fetched`](RowRef::Fetched) row; `None` for borrowed window slices.
    pub fn arc(&self) -> Option<&Arc<[T]>> {
        match self {
            RowRef::Window(_) => None,
            RowRef::Cached(arc) | RowRef::Fetched(arc) => Some(arc),
        }
    }

    /// Whether this row borrows a window (no shared buffer involved).
    pub fn is_borrowed(&self) -> bool {
        matches!(self, RowRef::Window(_))
    }
}

impl<T> Deref for RowRef<'_, T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T> AsRef<[T]> for RowRef<'_, T> {
    fn as_ref(&self) -> &[T] {
        self.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_variants_deref_to_their_data() {
        let data = [1u32, 2, 3];
        let arc: Arc<[u32]> = Arc::from(&data[..]);
        let window: RowRef<'_, u32> = RowRef::Window(&data);
        let cached: RowRef<'_, u32> = RowRef::Cached(Arc::clone(&arc));
        let fetched: RowRef<'_, u32> = RowRef::Fetched(arc);
        for row in [&window, &cached, &fetched] {
            assert_eq!(row.as_slice(), &[1, 2, 3]);
            assert_eq!(row.len(), 3);
            assert_eq!(row[1], 2);
        }
        assert!(window.is_borrowed());
        assert!(window.arc().is_none());
        assert!(!cached.is_borrowed());
        assert!(cached.arc().is_some());
    }

    #[test]
    fn cached_and_fetched_share_the_buffer() {
        let arc: Arc<[u32]> = Arc::from(&[7u32, 8][..]);
        let fetched: RowRef<'static, u32> = RowRef::Fetched(Arc::clone(&arc));
        let cached: RowRef<'static, u32> = RowRef::Cached(arc);
        assert!(Arc::ptr_eq(fetched.arc().unwrap(), cached.arc().unwrap()));
    }
}
