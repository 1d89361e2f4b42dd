//! Ego-circle generator: a synthetic stand-in for the SNAP "Facebook circles" dataset
//! used in Figures 1 and 5 of the paper (4,039 vertices, 88,234 edges).
//!
//! The dataset consists of overlapping friendship circles around ego vertices: dense
//! communities with a few very-high-degree hubs. We reproduce that structure by
//! sampling communities with power-law sizes, connecting members within a community
//! with high probability, and adding hub vertices that join many communities. The
//! resulting degree distribution and clustering are what the data-reuse figures
//! depend on.
//!
//! Users: `datasets`' Facebook-circles stand-in and two examples (`community_detection`, `similarity_search`).

use super::GraphGenerator;
use crate::types::{Direction, VertexId};
use crate::EdgeList;
use rand::Rng;
use rand::SeedableRng;
use rand_distr::{Distribution, Zipf};

/// Ego-circle community graph generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EgoCircles {
    /// Number of vertices.
    pub vertices: usize,
    /// Number of communities (circles).
    pub communities: usize,
    /// Maximum community size; sizes follow a Zipf distribution up to this value.
    pub max_community_size: usize,
    /// Probability that two members of the same community are connected.
    pub intra_probability: f64,
    /// Number of hub (ego) vertices that are connected to every member of several circles.
    pub hubs: usize,
}

impl EgoCircles {
    /// A configuration approximating the Facebook circles dataset at full scale:
    /// ~4k vertices and ~88k undirected edges.
    pub fn facebook_like() -> Self {
        Self {
            vertices: 4_039,
            communities: 260,
            max_community_size: 220,
            intra_probability: 0.35,
            hubs: 10,
        }
    }
}

impl GraphGenerator for EgoCircles {
    fn name(&self) -> String {
        format!("EgoCircles n={} c={}", self.vertices, self.communities)
    }

    fn generate(&self, seed: u64) -> EdgeList {
        let n = self.vertices;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut el = EdgeList::new(n, Direction::Undirected);
        if n < 2 {
            return el;
        }
        let size_dist = Zipf::new(self.max_community_size.max(2) as u64, 1.2)
            .expect("max_community_size must be >= 2");
        for _ in 0..self.communities {
            let size = (size_dist.sample(&mut rng) as usize).clamp(3, n);
            let mut members = Vec::with_capacity(size);
            for _ in 0..size {
                members.push(rng.gen_range(0..n) as VertexId);
            }
            members.sort_unstable();
            members.dedup();
            for i in 0..members.len() {
                for j in (i + 1)..members.len() {
                    if rng.gen::<f64>() < self.intra_probability {
                        el.push(members[i], members[j]);
                    }
                }
            }
        }
        // Ego hubs: a handful of vertices connected to a large random subset, giving
        // the extreme high-degree tail visible in Figure 5.
        for h in 0..self.hubs.min(n) {
            let hub = h as VertexId;
            let span = n / 4 + rng.gen_range(0..n / 4 + 1);
            for _ in 0..span {
                let v = rng.gen_range(0..n) as VertexId;
                if v != hub {
                    el.push(hub, v);
                }
            }
        }
        el
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{reference, stats};

    #[test]
    fn facebook_like_scale_is_close_to_the_real_dataset() {
        let g = EgoCircles::facebook_like();
        let csr = g.generate_cleaned(1).into_csr();
        // The real dataset has 4,039 vertices and 88,234 undirected edges; the
        // stand-in should be the same order of magnitude.
        assert!(csr.vertex_count() > 2_500 && csr.vertex_count() <= 4_039);
        let undirected_edges = csr.logical_edge_count();
        assert!(
            undirected_edges > 30_000 && undirected_edges < 300_000,
            "edge count {undirected_edges} out of expected band"
        );
    }

    #[test]
    fn has_social_network_clustering() {
        let csr = EgoCircles::facebook_like().generate_cleaned(2).into_csr();
        let avg = reference::average_lcc(&csr);
        assert!(
            avg > 0.2,
            "ego-circle graphs must be clustered (average LCC {avg})"
        );
    }

    #[test]
    fn degree_distribution_has_hubs() {
        let csr = EgoCircles::facebook_like().generate_cleaned(3).into_csr();
        let degrees = csr.degrees();
        let skew = stats::degree_skewness(&degrees);
        assert!(
            skew > 1.0,
            "hub vertices should create a heavy tail (skewness {skew})"
        );
        let max = *degrees.iter().max().unwrap();
        let mean = degrees.iter().map(|&d| d as f64).sum::<f64>() / degrees.len() as f64;
        assert!(max as f64 > 5.0 * mean);
    }

    #[test]
    fn deterministic_per_seed() {
        let g = EgoCircles {
            vertices: 500,
            communities: 30,
            max_community_size: 50,
            intra_probability: 0.4,
            hubs: 2,
        };
        assert_eq!(g.generate(7).edges(), g.generate(7).edges());
    }

    #[test]
    fn degenerate_sizes_do_not_panic() {
        let g = EgoCircles {
            vertices: 1,
            communities: 3,
            max_community_size: 5,
            intra_probability: 0.5,
            hubs: 1,
        };
        assert_eq!(g.generate(1).edge_count(), 0);
    }
}
