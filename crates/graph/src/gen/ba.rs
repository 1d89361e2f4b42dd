//! Barabási–Albert preferential-attachment generator.
//!
//! Produces power-law degree distributions with high clustering around hub vertices.
//! This is the stand-in family for the paper's social-network datasets (Orkut,
//! LiveJournal, Skitter): what the evaluation depends on is the degree skew — a small
//! set of very-high-degree vertices receives most of the remote reads (Figure 4),
//! which is exactly what preferential attachment produces.

use super::GraphGenerator;
use crate::types::{Direction, VertexId};
use crate::EdgeList;
use rand::Rng;
use rand::SeedableRng;

/// Barabási–Albert generator: starts from a small clique and attaches every new
/// vertex to `attach` existing vertices chosen proportionally to their degree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BarabasiAlbert {
    /// Final number of vertices.
    pub vertices: usize,
    /// Number of edges each new vertex attaches with.
    pub attach: usize,
    /// Extra random "closure" edges added per vertex among its neighbours'
    /// neighbours, which raises the clustering coefficient to social-network levels.
    pub closure_edges: usize,
}

impl BarabasiAlbert {
    /// A plain preferential-attachment graph.
    pub fn new(vertices: usize, attach: usize) -> Self {
        Self {
            vertices,
            attach,
            closure_edges: 0,
        }
    }

    /// A preferential-attachment graph with extra triangle-closing edges, giving both
    /// a power-law degree distribution and a high clustering coefficient.
    pub fn with_closure(vertices: usize, attach: usize, closure_edges: usize) -> Self {
        Self {
            vertices,
            attach,
            closure_edges,
        }
    }
}

impl GraphGenerator for BarabasiAlbert {
    fn name(&self) -> String {
        format!("BA n={} m={}", self.vertices, self.attach)
    }

    fn generate(&self, seed: u64) -> EdgeList {
        let n = self.vertices;
        let m0 = (self.attach + 1).min(n);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut el = EdgeList::new(n, Direction::Undirected);
        // `targets` holds one entry per edge endpoint, so sampling uniformly from it
        // is sampling proportionally to degree (the classic BA implementation trick).
        let mut targets: Vec<VertexId> = Vec::with_capacity(2 * n * self.attach);
        // Seed clique.
        for u in 0..m0 {
            for v in (u + 1)..m0 {
                el.push(u as VertexId, v as VertexId);
                targets.push(u as VertexId);
                targets.push(v as VertexId);
            }
        }
        for v in m0..n {
            let v = v as VertexId;
            let mut chosen = Vec::with_capacity(self.attach);
            let mut guard = 0;
            while chosen.len() < self.attach && guard < self.attach * 20 {
                guard += 1;
                let t = targets[rng.gen_range(0..targets.len())];
                if t != v && !chosen.contains(&t) {
                    chosen.push(t);
                }
            }
            for &t in &chosen {
                el.push(v, t);
                targets.push(v);
                targets.push(t);
            }
            // Triangle-closing edges: connect two random neighbours of v.
            for _ in 0..self.closure_edges {
                if chosen.len() >= 2 {
                    let a = chosen[rng.gen_range(0..chosen.len())];
                    let b = chosen[rng.gen_range(0..chosen.len())];
                    if a != b {
                        el.push(a, b);
                    }
                }
            }
        }
        el
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;

    #[test]
    fn produces_power_law_like_skew() {
        let g = BarabasiAlbert::new(4000, 8);
        let csr = g.generate_cleaned(1).into_csr();
        let skew = stats::degree_skewness(&csr.degrees());
        assert!(
            skew > 1.5,
            "BA graphs should be heavy tailed (skewness {skew})"
        );
    }

    #[test]
    fn closure_edges_increase_clustering() {
        let plain = BarabasiAlbert::new(2000, 5).generate_cleaned(2).into_csr();
        let closed = BarabasiAlbert::with_closure(2000, 5, 3)
            .generate_cleaned(2)
            .into_csr();
        let cc_plain = crate::reference::average_lcc(&plain);
        let cc_closed = crate::reference::average_lcc(&closed);
        assert!(
            cc_closed > cc_plain,
            "closure edges must raise average LCC ({cc_closed} vs {cc_plain})"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let g = BarabasiAlbert::new(500, 4);
        assert_eq!(g.generate(11).edges(), g.generate(11).edges());
    }

    #[test]
    fn small_graph_edge_cases() {
        // Fewer vertices than attach + 1 degenerates to a clique.
        let g = BarabasiAlbert::new(3, 8);
        let el = g.generate_cleaned(1);
        let csr = el.into_csr();
        assert_eq!(csr.vertex_count(), 3);
        assert_eq!(crate::reference::count_triangles(&csr), 1);
    }
}
