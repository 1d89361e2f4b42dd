//! High-level pipeline that turns a raw edge source into a partition-ready CSR graph,
//! chaining the steps of Section II-B / III-A: clean → (optionally) relabel → CSR →
//! partition.

use crate::gen::GraphGenerator;
use crate::partition::{PartitionScheme, PartitionedGraph};
use crate::relabel;
use crate::types::Direction;
use crate::{CsrGraph, EdgeList, Result};

/// How vertices are relabeled before partitioning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelabelStrategy {
    /// Keep the input labels (the default when the input is not degree-ordered).
    None,
    /// Random relabeling with the given seed — the paper applies this to
    /// degree-ordered inputs so that high-degree vertices spread across partitions.
    Random {
        /// RNG seed for the permutation, kept explicit for reproducibility.
        seed: u64,
    },
    /// Relabel by descending degree — the pathological case for 1D partitioning,
    /// useful in experiments that show *why* random relabeling matters.
    DegreeOrdered,
}

/// Builder for the full ingest pipeline.
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    edge_list: EdgeList,
    relabel: RelabelStrategy,
    clean: bool,
}

impl GraphBuilder {
    /// Starts from an existing edge list.
    pub fn from_edge_list(edge_list: EdgeList) -> Self {
        Self {
            edge_list,
            relabel: RelabelStrategy::None,
            clean: true,
        }
    }

    /// Starts from a generator.
    pub fn from_generator<G: GraphGenerator>(generator: &G, seed: u64) -> Self {
        Self::from_edge_list(generator.generate(seed))
    }

    /// Starts from raw edges.
    pub fn from_edges(n: usize, edges: Vec<(u32, u32)>, direction: Direction) -> Result<Self> {
        Ok(Self::from_edge_list(EdgeList::from_edges(
            n, edges, direction,
        )?))
    }

    /// Chooses the relabeling strategy (default: none).
    pub fn relabel(mut self, strategy: RelabelStrategy) -> Self {
        self.relabel = strategy;
        self
    }

    /// Enables or disables the cleaning pipeline (default: enabled).
    pub fn clean(mut self, clean: bool) -> Self {
        self.clean = clean;
        self
    }

    /// Runs the pipeline and produces the global CSR graph.
    pub fn build_csr(mut self) -> CsrGraph {
        if self.clean {
            self.edge_list.clean();
        }
        match self.relabel {
            RelabelStrategy::None => {}
            RelabelStrategy::Random { seed } => {
                let perm = relabel::random_permutation(self.edge_list.vertex_count(), seed);
                self.edge_list.relabel(&perm);
            }
            RelabelStrategy::DegreeOrdered => {
                let deg = self.edge_list.total_degrees();
                let perm = relabel::degree_ordered_permutation(&deg);
                self.edge_list.relabel(&perm);
            }
        }
        self.edge_list.into_csr()
    }

    /// Runs the pipeline and partitions the result over `ranks` ranks.
    pub fn build_partitioned(
        self,
        scheme: PartitionScheme,
        ranks: usize,
    ) -> Result<PartitionedGraph> {
        let csr = self.build_csr();
        PartitionedGraph::from_global(&csr, scheme, ranks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::RmatGenerator;

    #[test]
    fn builder_produces_same_graph_as_manual_pipeline() {
        let gen = RmatGenerator::paper(9, 8);
        let manual = gen.generate_cleaned(1).into_csr();
        let built = GraphBuilder::from_generator(&gen, 1).build_csr();
        assert_eq!(manual, built);
    }

    #[test]
    fn random_relabeling_preserves_triangles() {
        let gen = RmatGenerator::paper(9, 8);
        let plain = GraphBuilder::from_generator(&gen, 2).build_csr();
        let relabeled = GraphBuilder::from_generator(&gen, 2)
            .relabel(RelabelStrategy::Random { seed: 99 })
            .build_csr();
        assert_eq!(
            crate::reference::count_triangles(&plain),
            crate::reference::count_triangles(&relabeled)
        );
        assert_eq!(plain.edge_count(), relabeled.edge_count());
        assert_ne!(plain, relabeled, "relabeling should actually change labels");
    }

    #[test]
    fn degree_ordered_relabeling_concentrates_high_degrees_at_low_ids() {
        let gen = RmatGenerator::paper(10, 16);
        let g = GraphBuilder::from_generator(&gen, 3)
            .relabel(RelabelStrategy::DegreeOrdered)
            .build_csr();
        let degrees = g.degrees();
        let n = degrees.len();
        let first_half: u64 = degrees[..n / 2].iter().map(|&d| d as u64).sum();
        let second_half: u64 = degrees[n / 2..].iter().map(|&d| d as u64).sum();
        assert!(first_half > second_half);
    }

    #[test]
    fn skipping_clean_keeps_raw_vertices() {
        let edges = vec![(0u32, 1u32), (1, 2), (5, 5)];
        let built = GraphBuilder::from_edges(6, edges, Direction::Directed)
            .unwrap()
            .clean(false)
            .build_csr();
        assert_eq!(built.vertex_count(), 6);
        assert!(built.has_edge(5, 5));
    }

    #[test]
    fn build_partitioned_round_trips() {
        let gen = RmatGenerator::paper(9, 8);
        let pg = GraphBuilder::from_generator(&gen, 4)
            .build_partitioned(PartitionScheme::Block1D, 4)
            .unwrap();
        assert_eq!(pg.ranks(), 4);
        let csr = GraphBuilder::from_generator(&gen, 4).build_csr();
        assert_eq!(pg.reassemble(), csr);
    }
}
