//! Uniform (Erdős–Rényi style) random graph generator.
//!
//! Used by Figure 4 of the paper as the flat-degree-distribution contrast to the
//! power-law graphs: with a uniform degree distribution only ~11.7% of remote reads
//! target the top-10% highest-degree vertices, so caching has little to exploit.

use super::GraphGenerator;
use crate::types::{Direction, VertexId};
use crate::EdgeList;
use rand::Rng;
use rand::SeedableRng;

/// Uniform random multigraph with a fixed number of edges (G(n, m) model).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UniformRandom {
    /// Number of vertices.
    pub vertices: usize,
    /// Number of edges sampled (before cleaning).
    pub edges: usize,
    /// Whether to emit an undirected (symmetrized) graph.
    pub direction: Direction,
}

impl UniformRandom {
    /// Convenience constructor for an undirected uniform graph.
    pub fn undirected(vertices: usize, edges: usize) -> Self {
        Self {
            vertices,
            edges,
            direction: Direction::Undirected,
        }
    }

    /// Convenience constructor for a directed uniform graph.
    pub fn directed(vertices: usize, edges: usize) -> Self {
        Self {
            vertices,
            edges,
            direction: Direction::Directed,
        }
    }
}

impl GraphGenerator for UniformRandom {
    fn name(&self) -> String {
        format!("Uniform n={} m={}", self.vertices, self.edges)
    }

    fn generate(&self, seed: u64) -> EdgeList {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut el = EdgeList::new(self.vertices, self.direction);
        let n = self.vertices as VertexId;
        for _ in 0..self.edges {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            el.push(u, v);
        }
        el
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;

    #[test]
    fn generates_requested_edge_count() {
        let g = UniformRandom::undirected(1000, 8000);
        let el = g.generate(1);
        assert_eq!(el.vertex_count(), 1000);
        assert_eq!(el.edge_count(), 8000);
    }

    #[test]
    fn deterministic_per_seed() {
        let g = UniformRandom::directed(500, 2000);
        assert_eq!(g.generate(9).edges(), g.generate(9).edges());
    }

    #[test]
    fn degree_distribution_is_flat_compared_to_rmat() {
        let uni = UniformRandom::undirected(4096, 4096 * 16)
            .generate_cleaned(2)
            .into_csr();
        let rmat = super::super::RmatGenerator::paper(12, 16)
            .generate_cleaned(2)
            .into_csr();
        let uni_skew = stats::degree_skewness(&uni.degrees());
        let rmat_skew = stats::degree_skewness(&rmat.degrees());
        assert!(
            uni_skew < rmat_skew,
            "uniform graphs must be less skewed than R-MAT ({uni_skew} vs {rmat_skew})"
        );
    }

    #[test]
    fn vertices_in_range_after_cleaning() {
        let el = UniformRandom::undirected(256, 2048).generate_cleaned(3);
        let n = el.vertex_count() as VertexId;
        assert!(el.edges().iter().all(|&(u, v)| u < n && v < n));
    }
}
