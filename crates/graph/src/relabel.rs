//! Vertex relabeling utilities.
//!
//! The paper applies a *random relabeling* when the input graph is stored in a
//! degree-ordered format, so that 1D block partitioning does not assign all the
//! highest-degree vertices to the same process (Section II-B).

use crate::types::VertexId;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Generates a uniformly random permutation of `0..n` with a fixed seed, so that
/// experiments are reproducible run to run.
pub fn random_permutation(n: usize, seed: u64) -> Vec<VertexId> {
    let mut perm: Vec<VertexId> = (0..n as VertexId).collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    perm.shuffle(&mut rng);
    perm
}

/// Inverts a permutation: if `perm[i] = j` then `inverse[j] = i`.
pub fn invert_permutation(perm: &[VertexId]) -> Vec<VertexId> {
    let mut inv = vec![0 as VertexId; perm.len()];
    for (i, &j) in perm.iter().enumerate() {
        inv[j as usize] = i as VertexId;
    }
    inv
}

/// Checks whether `perm` is a permutation of `0..perm.len()`.
pub fn is_permutation(perm: &[VertexId]) -> bool {
    let n = perm.len();
    let mut seen = vec![false; n];
    for &p in perm {
        let idx = p as usize;
        if idx >= n || seen[idx] {
            return false;
        }
        seen[idx] = true;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_permutation_is_a_permutation() {
        let perm = random_permutation(1000, 42);
        assert!(is_permutation(&perm));
    }

    #[test]
    fn random_permutation_is_deterministic_per_seed() {
        assert_eq!(random_permutation(100, 7), random_permutation(100, 7));
        assert_ne!(random_permutation(100, 7), random_permutation(100, 8));
    }

    #[test]
    fn invert_permutation_round_trips() {
        let perm = random_permutation(64, 3);
        let inv = invert_permutation(&perm);
        let back = invert_permutation(&inv);
        assert_eq!(perm, back);
    }

    #[test]
    fn is_permutation_rejects_duplicates_and_out_of_range() {
        assert!(!is_permutation(&[0, 0, 1]));
        assert!(!is_permutation(&[0, 3]));
        assert!(is_permutation(&[] as &[VertexId]));
    }
}
