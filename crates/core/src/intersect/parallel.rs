//! Shared-memory parallel intersection (Section III-C).
//!
//! The paper parallelizes the *intersection itself* rather than distributing edges
//! across threads, to keep thread imbalance low: for search-class kernels (binary
//! search, galloping) the key (shorter) array is split into equal chunks, for
//! merge-class kernels (SSI, SIMD) the longer array is split and every thread
//! intersects its chunk with the relevant window of the shorter list. A cut-off
//! avoids paying the fork/join overhead on small intersections, and the paper
//! further reduces the cost of entering parallel regions with
//! `OMP_WAIT_POLICY=active`; the persistent work-stealing pool behind the
//! vendored `rayon` facade plays that role here — entering a parallel region
//! costs an injector push onto already-running workers, not a thread spawn.

use super::hybrid::IntersectMethod;
use rayon::prelude::*;
use rmatc_graph::types::VertexId;

/// Default cut-off below which the intersection is computed sequentially.
pub const DEFAULT_PARALLEL_CUTOFF: usize = 8_192;

/// A parallel intersector with a sequential cut-off.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParallelIntersector {
    method: IntersectMethod,
    /// Intersections where the longer list is below this length run sequentially.
    cutoff: usize,
    /// Number of chunks the parallel region is split into (typically the thread count).
    chunks: usize,
}

impl ParallelIntersector {
    /// Creates a parallel intersector. `chunks` is typically the number of threads
    /// (the paper uses up to 16); values below 1 are clamped to 1.
    pub fn new(method: IntersectMethod, chunks: usize, cutoff: usize) -> Self {
        Self {
            method,
            chunks: chunks.max(1),
            cutoff,
        }
    }

    /// Creates an intersector with the default cut-off.
    pub fn with_default_cutoff(method: IntersectMethod, chunks: usize) -> Self {
        Self::new(method, chunks, DEFAULT_PARALLEL_CUTOFF)
    }

    /// The configured method.
    pub fn method(&self) -> IntersectMethod {
        self.method
    }

    /// The concrete kernel the cost model resolves for a pair of list
    /// lengths, in either order — the same decision [`ParallelIntersector::count`]
    /// makes internally, exposed so callers that pre-route work (the
    /// distributed reader's fused miss path) can never diverge from it.
    pub fn resolved_method(&self, len_a: usize, len_b: usize) -> IntersectMethod {
        let (short, long) = if len_a <= len_b {
            (len_a, len_b)
        } else {
            (len_b, len_a)
        };
        self.method.resolve(short, long)
    }

    /// Counts `|a ∩ b|`, using the parallel kernels above the cut-off.
    pub fn count(&self, a: &[VertexId], b: &[VertexId]) -> u64 {
        let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
        let method = self.resolved_method(short.len(), long.len());
        if self.chunks == 1 || long.len() < self.cutoff {
            return super::run_kernel(method, short, long);
        }
        rayon::ensure_pool(self.chunks);
        // Merge-class kernels split the longer array, search-class kernels
        // the key (shorter) array; every chunk runs the sequential kernel.
        let merge_class = matches!(
            method,
            IntersectMethod::SortedSetIntersection | IntersectMethod::Simd
        );
        let split = if merge_class { long } else { short };
        let chunk = split.len().div_ceil(self.chunks).max(1);
        (0..self.chunks)
            .into_par_iter()
            .map(|c| {
                let start = (c * chunk).min(split.len());
                let part = &split[start..(start + chunk).min(split.len())];
                let (Some(&first), Some(&last)) = (part.first(), part.last()) else {
                    return 0;
                };
                if merge_class {
                    // The chunk spans a known value range: only the window of
                    // the shorter list inside it can match, so chunks never
                    // double count.
                    let lo = short.partition_point(|&x| x < first);
                    let hi = short.partition_point(|&x| x <= last);
                    super::run_kernel(method, &short[lo..hi], part)
                } else {
                    super::run_kernel(method, part, long)
                }
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use rand::SeedableRng;

    fn random_sorted(rng: &mut impl Rng, len: usize, universe: u32) -> Vec<u32> {
        let mut v: Vec<u32> = (0..len).map(|_| rng.gen_range(0..universe)).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    #[test]
    fn parallel_matches_sequential_for_all_methods() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let a = random_sorted(&mut rng, 20_000, 100_000);
        let b = random_sorted(&mut rng, 60_000, 100_000);
        let expected = rmatc_graph::reference::sorted_intersection_count(&a, &b);
        for method in IntersectMethod::all() {
            for chunks in [1, 2, 4, 8] {
                let ix = ParallelIntersector::new(method, chunks, 1024);
                assert_eq!(ix.count(&a, &b), expected, "{method:?} chunks={chunks}");
                assert_eq!(ix.count(&b, &a), expected, "{method:?} swapped");
            }
        }
    }

    #[test]
    fn cutoff_is_respected_without_changing_results() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let a = random_sorted(&mut rng, 100, 1_000);
        let b = random_sorted(&mut rng, 500, 1_000);
        let expected = rmatc_graph::reference::sorted_intersection_count(&a, &b);
        let below_cutoff = ParallelIntersector::new(IntersectMethod::Hybrid, 8, 1 << 20);
        let above_cutoff = ParallelIntersector::new(IntersectMethod::Hybrid, 8, 1);
        assert_eq!(below_cutoff.count(&a, &b), expected);
        assert_eq!(above_cutoff.count(&a, &b), expected);
    }

    #[test]
    fn empty_inputs() {
        for method in IntersectMethod::all() {
            let ix = ParallelIntersector::with_default_cutoff(method, 4);
            assert_eq!(ix.count(&[], &[1, 2, 3]), 0, "{method:?}");
            assert_eq!(ix.count(&[], &[]), 0, "{method:?}");
        }
    }

    #[test]
    fn more_chunks_than_elements_leaves_empty_chunks_harmless() {
        let short: Vec<u32> = (0..5).map(|x| x * 3).collect();
        let long: Vec<u32> = (0..13).collect();
        for method in IntersectMethod::all() {
            let ix = ParallelIntersector::new(method, 64, 0);
            assert_eq!(ix.count(&short, &long), 5, "{method:?}");
            assert_eq!(ix.count(&[], &long), 0, "{method:?}");
        }
    }

    #[test]
    fn zero_chunks_clamps_to_one() {
        let ix = ParallelIntersector::new(IntersectMethod::SortedSetIntersection, 0, 0);
        assert_eq!(ix.count(&[1, 2, 3], &[2, 3, 4]), 2);
    }

    #[test]
    fn hub_leaf_intersections_are_correct() {
        // Extremely skewed pair, the case the hybrid rule routes to galloping.
        let small = vec![10u32, 500_000, 900_000];
        let big: Vec<u32> = (0..1_000_000).step_by(2).collect();
        for method in IntersectMethod::all() {
            let ix = ParallelIntersector::new(method, 8, 1024);
            assert_eq!(ix.count(&small, &big), 3, "{method:?}");
        }
    }
}
