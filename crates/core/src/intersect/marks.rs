//! Source-row marks: the per-vertex bitmap of Bisson and Fatica ("High
//! Performance Exact Triangle Counting on GPUs", IEEE TPDS 2017) on the host.
//!
//! Every loop that counts closing vertices walks all edges `(u, v)` of one
//! source `u` in a row. Setting the bits of `adj(u)` in a bitset over the
//! vertex ids once per source turns each edge's intersection into one bit
//! probe per element of the other row: `|A ∩ B| = |{w ∈ B : w marked}|`,
//! `O(|B|)` instead of the pairwise kernels' `O(|A| + |B|)` or
//! `O(|B| · log |A|)`. Setting and clearing cost `O(|adj(u)|)` per source,
//! which the source's `|adj(u)|` edges share. When the probe wins is decided
//! per edge by [`marks_are_faster`](super::hybrid::marks_are_faster).
//!
//! The bitset grows to the largest id it has marked, so it costs at most
//! `n / 8` bytes for `n` vertices, one per thread (8 MB at R-MAT scale 26).
//! Only [`IntersectMethod::Hybrid`] probes marks: the fixed methods are
//! Table III's columns and run the kernel they name.

use super::IntersectMethod;
use rmatc_graph::types::VertexId;

/// A bitset over vertex ids that holds the sorted adjacency row of the
/// source vertex a loop is walking, and nothing else between sources.
#[derive(Debug, Clone, Default)]
pub struct SourceMarks {
    words: Vec<u64>,
}

impl SourceMarks {
    /// Cleared marks when `method` probes them ([`IntersectMethod::Hybrid`]),
    /// `None` for the fixed methods.
    pub fn for_method(method: IntersectMethod) -> Option<Self> {
        (method == IntersectMethod::Hybrid).then(Self::default)
    }

    /// `|{w ∈ b : w marked}|`: one bit probe per element of `b` (ids past
    /// the bitset are unmarked).
    pub fn count(&self, b: &[VertexId]) -> u64 {
        let probe = |&w: &VertexId| {
            let word = self.words.get(w as usize / 64).copied().unwrap_or(0);
            (word >> (w % 64)) & 1
        };
        b.iter().map(probe).sum()
    }

    fn set(&mut self, row: &[VertexId]) {
        if let Some(&last) = row.last() {
            let len = last as usize / 64 + 1;
            if self.words.len() < len {
                self.words.resize(len, 0);
            }
        }
        for &w in row {
            self.words[w as usize / 64] |= 1 << (w % 64);
        }
    }

    /// Clears what [`set`](Self::set) marked: every non-zero word holds bits
    /// of `row` only, so zeroing the words `row` touches clears them all.
    fn clear(&mut self, row: &[VertexId]) {
        for &w in row {
            self.words[w as usize / 64] = 0;
        }
    }
}

/// Runs `f` over the edges of one source whose sorted adjacency row is
/// `row`: with `marks`, the bits of `row` are set before `f` runs and
/// cleared after it, so the next source starts from clear marks; without,
/// `f` gets `None`.
pub fn with_marked<R>(
    marks: Option<&mut SourceMarks>,
    row: &[VertexId],
    f: impl FnOnce(Option<&SourceMarks>) -> R,
) -> R {
    match marks {
        Some(marks) => {
            marks.set(row);
            let out = f(Some(marks));
            marks.clear(row);
            out
        }
        None => f(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmatc_graph::reference::sorted_intersection_count;

    #[test]
    fn counts_the_intersection_and_clears_after() {
        let mut marks = SourceMarks::default();
        let row = [0u32, 5, 63, 64, 65, 127, 200, 299];
        let other = [1u32, 5, 63, 66, 127, 128, 299, 300, 4_000];
        let got = with_marked(Some(&mut marks), &row, |m| {
            m.expect("marks were given").count(&other)
        });
        assert_eq!(got, sorted_intersection_count(&row, &other));
        assert_eq!(marks.count(&row), 0, "cleared after the source");
    }

    #[test]
    fn only_hybrid_builds_marks() {
        for method in IntersectMethod::all() {
            let marks = SourceMarks::for_method(method);
            assert_eq!(marks.is_some(), method == IntersectMethod::Hybrid);
        }
        assert!(with_marked(None, &[1, 2], |m| m.is_none()));
    }
}
