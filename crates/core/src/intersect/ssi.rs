//! Sorted set intersection (Algorithm 2 of the paper).
//!
//! Both lists are traversed simultaneously, always advancing the one whose current
//! element is smaller: `O(|A| + |B|)` with perfectly sequential memory accesses,
//! which is why it wins on CPUs whenever the two lists have comparable lengths.

use rmatc_graph::types::VertexId;

/// Counts `|a ∩ b|` by merging two sorted, duplicate-free slices.
pub fn ssi_count(a: &[VertexId], b: &[VertexId]) -> u64 {
    let (mut i, mut j, mut count) = (0usize, 0usize, 0u64);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        match x.cmp(&y) {
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_common_elements() {
        assert_eq!(ssi_count(&[1, 2, 3, 8], &[2, 3, 4, 8, 9]), 3);
    }

    #[test]
    fn empty_and_disjoint() {
        assert_eq!(ssi_count(&[], &[]), 0);
        assert_eq!(ssi_count(&[1], &[]), 0);
        assert_eq!(ssi_count(&[1, 3, 5], &[2, 4, 6]), 0);
    }

    #[test]
    fn symmetric_in_arguments() {
        let a = &[1, 4, 6, 9, 15];
        let b = &[4, 9, 10, 15, 20, 22];
        assert_eq!(ssi_count(a, b), ssi_count(b, a));
    }

    #[test]
    fn matches_reference_on_random_lists() {
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let mut a: Vec<u32> = (0..rng.gen_range(0..300))
                .map(|_| rng.gen_range(0..400))
                .collect();
            let mut b: Vec<u32> = (0..rng.gen_range(0..300))
                .map(|_| rng.gen_range(0..400))
                .collect();
            a.sort_unstable();
            a.dedup();
            b.sort_unstable();
            b.dedup();
            assert_eq!(
                ssi_count(&a, &b),
                rmatc_graph::reference::sorted_intersection_count(&a, &b)
            );
        }
    }
}
