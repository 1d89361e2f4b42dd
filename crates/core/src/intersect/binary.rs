//! Binary-search intersection (Algorithm 1 of the paper).
//!
//! The shorter list plays the role of the key array and the longer list is the
//! search tree: `|A|` lookups of cost `O(log |B|)` each. This is the kernel of
//! choice when the two adjacency lists have very different lengths, which is the
//! common case for edges incident to hub vertices in skewed graphs.

use rmatc_graph::types::VertexId;

/// Counts `|keys ∩ tree|` by binary-searching every element of `keys` in `tree`.
/// Both slices must be sorted and duplicate-free. For best performance callers
/// should pass the shorter list as `keys`, as the paper prescribes; the result is
/// correct either way.
pub fn binary_search_count(keys: &[VertexId], tree: &[VertexId]) -> u64 {
    if keys.is_empty() || tree.is_empty() {
        return 0;
    }
    let mut count = 0u64;
    for &x in keys {
        // Elements outside the tree's range cannot match; this cheap guard saves
        // log-factor work on the skewed adjacency lists of scale-free graphs.
        if x < tree[0] || x > *tree.last().expect("tree not empty") {
            continue;
        }
        if tree.binary_search(&x).is_ok() {
            count += 1;
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_common_elements() {
        assert_eq!(binary_search_count(&[1, 5, 9], &[0, 1, 2, 5, 8, 10]), 2);
    }

    #[test]
    fn disjoint_lists_count_zero() {
        assert_eq!(binary_search_count(&[1, 2, 3], &[4, 5, 6]), 0);
        assert_eq!(binary_search_count(&[7, 8], &[1, 2, 3]), 0);
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(binary_search_count(&[], &[1, 2]), 0);
        assert_eq!(binary_search_count(&[1, 2], &[]), 0);
    }

    #[test]
    fn single_element_lists() {
        assert_eq!(binary_search_count(&[5], &[5]), 1);
        assert_eq!(binary_search_count(&[5], &[4]), 0);
    }

    #[test]
    fn matches_reference_on_random_lists() {
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for _ in 0..50 {
            let mut a: Vec<u32> = (0..rng.gen_range(0..200))
                .map(|_| rng.gen_range(0..500))
                .collect();
            let mut b: Vec<u32> = (0..rng.gen_range(0..200))
                .map(|_| rng.gen_range(0..500))
                .collect();
            a.sort_unstable();
            a.dedup();
            b.sort_unstable();
            b.dedup();
            let expected = rmatc_graph::reference::sorted_intersection_count(&a, &b);
            assert_eq!(binary_search_count(&a, &b), expected);
            assert_eq!(binary_search_count(&b, &a), expected);
        }
    }
}
