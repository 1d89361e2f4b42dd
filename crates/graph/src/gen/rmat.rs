//! R-MAT recursive matrix graph generator (Chakrabarti, Zhan, Faloutsos, SDM 2004).
//!
//! An R-MAT graph with scale `x` and edge factor `y` has `2^x` vertices and `2^(x+y)`
//! edges... almost: the paper writes `2^x` vertices and `2^x · y`... it actually states
//! "an R-MAT graph with scale x and edge factor y includes 2^x vertices and 2^x+y
//! edges" which, matching the sizes in Table II (S21 EF16 → 2.1 M vertices, 33.6 M
//! edges), means `2^x` vertices and `y · 2^x` edges. Each edge is placed by
//! recursively descending into one of the four quadrants of the adjacency matrix with
//! probabilities `a`, `b`, `c`, `d`. The paper's parameters are
//! `a = 0.57, b = c = 0.19, d = 0.05`, producing a skewed, scale-free-like
//! degree distribution.

use super::GraphGenerator;
use crate::types::{Direction, VertexId};
use crate::EdgeList;
use rand::Rng;
use rand::SeedableRng;

/// R-MAT generator configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RmatGenerator {
    /// log2 of the number of vertices.
    pub scale: u32,
    /// Average number of edges per vertex.
    pub edge_factor: u32,
    /// Probability of the top-left quadrant.
    pub a: f64,
    /// Probability of the top-right quadrant.
    pub b: f64,
    /// Probability of the bottom-left quadrant.
    pub c: f64,
    /// Probability of the bottom-right quadrant.
    pub d: f64,
    /// Whether to emit an undirected (symmetrized) graph.
    pub direction: Direction,
    /// Per-level noise applied to the quadrant probabilities, as in the reference
    /// Graph500 implementation, to avoid exactly repeating structure at every level.
    pub noise: f64,
}

impl RmatGenerator {
    /// The paper's R-MAT parameters: `a = 0.57, b = c = 0.19, d = 0.05`.
    pub fn paper(scale: u32, edge_factor: u32) -> Self {
        Self {
            scale,
            edge_factor,
            a: 0.57,
            b: 0.19,
            c: 0.19,
            d: 0.05,
            direction: Direction::Undirected,
            noise: 0.1,
        }
    }

    /// A directed variant with the paper's parameters.
    pub fn paper_directed(scale: u32, edge_factor: u32) -> Self {
        Self {
            direction: Direction::Directed,
            ..Self::paper(scale, edge_factor)
        }
    }

    /// Number of vertices this configuration generates.
    pub fn vertex_count(&self) -> usize {
        1usize << self.scale
    }

    /// Number of edges this configuration generates (before cleaning).
    pub fn edge_count(&self) -> usize {
        self.vertex_count() * self.edge_factor as usize
    }

    fn sample_edge<R: Rng>(&self, rng: &mut R) -> (VertexId, VertexId) {
        let mut u: u64 = 0;
        let mut v: u64 = 0;
        let (mut a, mut b, mut c, mut d) = (self.a, self.b, self.c, self.d);
        for level in 0..self.scale {
            let bit = 1u64 << (self.scale - 1 - level);
            let r: f64 = rng.gen();
            if r < a {
                // top-left: no bits set
            } else if r < a + b {
                v |= bit;
            } else if r < a + b + c {
                u |= bit;
            } else {
                u |= bit;
                v |= bit;
            }
            if self.noise > 0.0 {
                // Jitter the probabilities multiplicatively and renormalize, as done
                // in the Graph500 reference generator, so lower levels are not exact
                // copies of the top-level split.
                let jitter = |p: f64, r: f64| p * (1.0 - self.noise / 2.0 + self.noise * r);
                a = jitter(a, rng.gen());
                b = jitter(b, rng.gen());
                c = jitter(c, rng.gen());
                d = jitter(d, rng.gen());
                let sum = a + b + c + d;
                a /= sum;
                b /= sum;
                c /= sum;
                d /= sum;
            }
        }
        (u as VertexId, v as VertexId)
    }
}

impl GraphGenerator for RmatGenerator {
    fn name(&self) -> String {
        format!("R-MAT S{} EF{}", self.scale, self.edge_factor)
    }

    fn generate(&self, seed: u64) -> EdgeList {
        let n = self.vertex_count();
        let m = self.edge_count();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut el = EdgeList::new(n, self.direction);
        for _ in 0..m {
            let (u, v) = self.sample_edge(&mut rng);
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
    fn paper_parameters_sum_to_one() {
        let g = RmatGenerator::paper(10, 8);
        assert!((g.a + g.b + g.c + g.d - 1.0).abs() < 1e-12);
    }

    #[test]
    fn generates_declared_counts_before_cleaning() {
        let g = RmatGenerator::paper(8, 4);
        let el = g.generate(1);
        assert_eq!(el.vertex_count(), 256);
        assert_eq!(el.edge_count(), 1024);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let g = RmatGenerator::paper(8, 4);
        assert_eq!(g.generate(5).edges(), g.generate(5).edges());
        assert_ne!(g.generate(5).edges(), g.generate(6).edges());
    }

    #[test]
    fn vertices_stay_in_range() {
        let g = RmatGenerator::paper(9, 8);
        let el = g.generate(2);
        let n = el.vertex_count() as VertexId;
        assert!(el.edges().iter().all(|&(u, v)| u < n && v < n));
    }

    #[test]
    fn degree_distribution_is_skewed() {
        // With a = 0.57 the first vertices receive a disproportionate share of edges.
        let g = RmatGenerator::paper(12, 16);
        let el = g.generate_cleaned(3);
        let csr = el.into_csr();
        let degrees = csr.degrees();
        let skew = stats::degree_skewness(&degrees);
        assert!(
            skew > 2.0,
            "R-MAT with the paper's parameters should have a heavy-tailed degree \
             distribution (skewness {skew})"
        );
    }

    #[test]
    fn cleaned_graph_is_symmetric_when_undirected() {
        let g = RmatGenerator::paper(8, 8);
        let csr = g.generate_cleaned(4).into_csr();
        assert!(csr.is_symmetric());
        assert!(csr.adjacency_lists_sorted());
    }

    #[test]
    fn name_matches_paper_notation() {
        assert_eq!(RmatGenerator::paper(21, 16).name(), "R-MAT S21 EF16");
    }
}
