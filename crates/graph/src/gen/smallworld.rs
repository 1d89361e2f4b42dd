//! Watts–Strogatz small-world generator.
//!
//! The local clustering coefficient metric the paper computes was introduced in the
//! Watts–Strogatz paper ("Collective dynamics of 'small-world' networks"), and the
//! ring-lattice-with-rewiring model is the canonical graph family with tunable,
//! known clustering: at rewiring probability 0 the LCC of every vertex is
//! `3(k-2) / (4(k-1))` for even neighbourhood size `k`, which gives tests an exact
//! analytic target.

use super::GraphGenerator;
use crate::types::{Direction, VertexId};
use crate::EdgeList;
use rand::Rng;
use rand::SeedableRng;

/// Watts–Strogatz ring lattice with `k` nearest neighbours per vertex (k must be even)
/// and rewiring probability `beta`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WattsStrogatz {
    /// Number of vertices in the ring.
    pub vertices: usize,
    /// Each vertex connects to its `k` nearest ring neighbours (`k/2` on each side).
    pub k: usize,
    /// Probability of rewiring each lattice edge to a random endpoint.
    pub beta: f64,
}

impl WattsStrogatz {
    /// Creates a Watts–Strogatz generator. `k` is rounded down to an even number.
    pub fn new(vertices: usize, k: usize, beta: f64) -> Self {
        Self {
            vertices,
            k: k & !1,
            beta,
        }
    }

    /// Analytic LCC of every vertex in the unrewired (`beta = 0`) lattice.
    pub fn lattice_lcc(k: usize) -> f64 {
        if k < 2 {
            return 0.0;
        }
        let k = k as f64;
        3.0 * (k - 2.0) / (4.0 * (k - 1.0))
    }
}

impl GraphGenerator for WattsStrogatz {
    fn name(&self) -> String {
        format!("WS n={} k={} beta={}", self.vertices, self.k, self.beta)
    }

    fn generate(&self, seed: u64) -> EdgeList {
        let n = self.vertices;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut el = EdgeList::new(n, Direction::Undirected);
        if n == 0 || self.k == 0 {
            return el;
        }
        for u in 0..n {
            for j in 1..=(self.k / 2) {
                let v = (u + j) % n;
                if u == v {
                    continue;
                }
                // Rewire the edge's far endpoint with probability beta.
                let dst = if rng.gen::<f64>() < self.beta {
                    let mut w = rng.gen_range(0..n);
                    let mut guard = 0;
                    while w == u && guard < 16 {
                        w = rng.gen_range(0..n);
                        guard += 1;
                    }
                    w
                } else {
                    v
                };
                el.push(u as VertexId, dst as VertexId);
            }
        }
        el
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;

    #[test]
    fn unrewired_lattice_matches_analytic_lcc() {
        let g = WattsStrogatz::new(200, 6, 0.0);
        let csr = g.generate_cleaned(1).into_csr();
        let expected = WattsStrogatz::lattice_lcc(6);
        let scores = reference::lcc_scores(&csr);
        for (v, &score) in scores.iter().enumerate() {
            assert!(
                (score - expected).abs() < 1e-9,
                "vertex {v} has LCC {score}, expected {expected}"
            );
        }
    }

    #[test]
    fn rewiring_lowers_clustering() {
        let ordered = WattsStrogatz::new(500, 8, 0.0)
            .generate_cleaned(2)
            .into_csr();
        let rewired = WattsStrogatz::new(500, 8, 0.8)
            .generate_cleaned(2)
            .into_csr();
        assert!(reference::average_lcc(&rewired) < reference::average_lcc(&ordered));
    }

    #[test]
    fn odd_k_is_rounded_down() {
        let g = WattsStrogatz::new(10, 5, 0.0);
        assert_eq!(g.k, 4);
    }

    #[test]
    fn empty_and_tiny_graphs_do_not_panic() {
        assert_eq!(WattsStrogatz::new(0, 4, 0.1).generate(1).edge_count(), 0);
        let el = WattsStrogatz::new(2, 2, 0.0).generate(1);
        assert!(el.edge_count() <= 2);
    }

    #[test]
    fn lattice_lcc_known_values() {
        assert!((WattsStrogatz::lattice_lcc(4) - 0.5).abs() < 1e-12);
        assert!((WattsStrogatz::lattice_lcc(6) - 0.6).abs() < 1e-12);
        assert_eq!(WattsStrogatz::lattice_lcc(1), 0.0);
    }
}
