//! Compressed Sparse Row graph representation (Figure 2 of the paper).
//!
//! Each graph (or graph partition) is stored with two arrays:
//! `offsets[i]` holds the index at which the adjacency list of vertex `i` starts in
//! `adjacencies`, and `offsets[n]` equals the total number of stored edges. Adjacency
//! lists are kept sorted, which both intersection kernels require.

use crate::types::{Direction, Edge, VertexId};

/// Immutable CSR graph. Offsets use `u64` because edge counts can exceed `u32::MAX`
/// for the paper's largest graphs; adjacency entries are `u32` vertex ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
    offsets: Vec<u64>,
    adjacencies: Vec<VertexId>,
    direction: Direction,
}

impl CsrGraph {
    /// Builds a CSR graph from a *sorted, deduplicated* list of directed edges.
    /// Edges must be sorted lexicographically by `(source, destination)`.
    pub fn from_sorted_edges(n: usize, edges: &[Edge], direction: Direction) -> Self {
        debug_assert!(
            edges.windows(2).all(|w| w[0] <= w[1]),
            "edges must be sorted"
        );
        let mut offsets = vec![0u64; n + 1];
        for &(u, _) in edges {
            offsets[u as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let adjacencies = edges.iter().map(|&(_, v)| v).collect();
        Self {
            offsets,
            adjacencies,
            direction,
        }
    }

    /// Builds a CSR graph from an unsorted edge list (sorts and deduplicates a copy).
    pub fn from_edges(n: usize, edges: &[Edge], direction: Direction) -> Self {
        let mut sorted = edges.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        Self::from_sorted_edges(n, &sorted, direction)
    }

    /// Reconstructs a CSR graph directly from its raw arrays. `offsets` must be
    /// monotonically non-decreasing, have length `n + 1`, start at 0 and end at
    /// `adjacencies.len()`; each adjacency list must be sorted.
    pub fn from_raw_parts(
        offsets: Vec<u64>,
        adjacencies: Vec<VertexId>,
        direction: Direction,
    ) -> Self {
        assert!(!offsets.is_empty(), "offsets must have length n + 1 >= 1");
        assert_eq!(offsets[0], 0, "offsets must start at 0");
        assert_eq!(
            *offsets.last().unwrap(),
            adjacencies.len() as u64,
            "offsets must end at the adjacency length"
        );
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        let g = Self {
            offsets,
            adjacencies,
            direction,
        };
        debug_assert!(g.adjacency_lists_sorted());
        g
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of stored (directed) edges.
    pub fn edge_count(&self) -> u64 {
        *self.offsets.last().unwrap()
    }

    /// Number of undirected edges if the graph is symmetric, otherwise the directed count.
    pub fn logical_edge_count(&self) -> u64 {
        match self.direction {
            Direction::Undirected => self.edge_count() / 2,
            Direction::Directed => self.edge_count(),
        }
    }

    /// Direction of the graph.
    pub fn direction(&self) -> Direction {
        self.direction
    }

    /// The offsets array (length `n + 1`).
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// The adjacencies array.
    pub fn adjacencies(&self) -> &[VertexId] {
        &self.adjacencies
    }

    /// Sorted adjacency list (out-neighbours) of vertex `v`.
    pub fn neighbours(&self, v: VertexId) -> &[VertexId] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.adjacencies[lo..hi]
    }

    /// Out-degree of vertex `v`. In CSR the degree is implicit in the offsets array,
    /// which the paper exploits to compute LCC immediately after counting triangles.
    pub fn degree(&self, v: VertexId) -> u32 {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as u32
    }

    /// Out-degrees of all vertices.
    pub fn degrees(&self) -> Vec<u32> {
        (0..self.vertex_count() as VertexId)
            .map(|v| self.degree(v))
            .collect()
    }

    /// In-degrees of all vertices (one pass over the adjacency array).
    pub fn in_degrees(&self) -> Vec<u32> {
        let mut deg = vec![0u32; self.vertex_count()];
        for &v in &self.adjacencies {
            deg[v as usize] += 1;
        }
        deg
    }

    /// Maximum out-degree.
    pub fn max_degree(&self) -> u32 {
        (0..self.vertex_count() as VertexId)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Whether the edge `(u, v)` exists (binary search on the sorted adjacency list).
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.neighbours(u).binary_search(&v).is_ok()
    }

    /// Iterates over all directed edges in CSR order.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        (0..self.vertex_count() as VertexId)
            .flat_map(move |u| self.neighbours(u).iter().map(move |&v| (u, v)))
    }

    /// Size in bytes of the CSR representation, as reported in Table II of the paper:
    /// `(n + 1) * 8` bytes of offsets plus `m * 4` bytes of adjacencies.
    pub fn csr_size_bytes(&self) -> u64 {
        (self.offsets.len() as u64) * 8 + (self.adjacencies.len() as u64) * 4
    }

    /// Checks that every adjacency list is sorted and free of duplicates.
    pub fn adjacency_lists_sorted(&self) -> bool {
        (0..self.vertex_count() as VertexId)
            .all(|v| self.neighbours(v).windows(2).all(|w| w[0] < w[1]))
    }

    /// Checks that all adjacency entries reference valid vertices.
    pub fn adjacency_in_range(&self) -> bool {
        let n = self.vertex_count() as VertexId;
        self.adjacencies.iter().all(|&v| v < n)
    }

    /// Whether the graph is symmetric (for every edge (u, v), (v, u) also exists).
    pub fn is_symmetric(&self) -> bool {
        self.edges().all(|(u, v)| self.has_edge(v, u))
    }

    /// Returns the subgraph induced on keeping only edges whose endpoints satisfy the
    /// predicate, with vertex ids preserved. Used by tests and by partition filtering.
    pub fn filter_edges<F: Fn(VertexId, VertexId) -> bool>(&self, keep: F) -> CsrGraph {
        let edges: Vec<Edge> = self.edges().filter(|&(u, v)| keep(u, v)).collect();
        CsrGraph::from_edges(self.vertex_count(), &edges, self.direction)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The subgraph stored on node A in Figure 2 of the paper.
    fn figure2_graph() -> CsrGraph {
        // offsets: [0, 2, 6, 9]; adjacencies: 1 2 | 0 2 3 4 | 0 1 4
        CsrGraph::from_raw_parts(
            vec![0, 2, 6, 9],
            vec![1, 2, 0, 2, 3, 4, 0, 1, 4],
            Direction::Directed,
        )
    }

    #[test]
    fn figure2_offsets_and_adjacencies() {
        let g = figure2_graph();
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.edge_count(), 9);
        assert_eq!(g.neighbours(0), &[1, 2]);
        assert_eq!(g.neighbours(1), &[0, 2, 3, 4]);
        assert_eq!(g.neighbours(2), &[0, 1, 4]);
        assert_eq!(g.degree(1), 4);
    }

    #[test]
    fn from_edges_builds_sorted_lists() {
        let g = CsrGraph::from_edges(
            4,
            &[(2, 1), (0, 3), (0, 1), (2, 0), (0, 2)],
            Direction::Directed,
        );
        assert_eq!(g.neighbours(0), &[1, 2, 3]);
        assert_eq!(g.neighbours(2), &[0, 1]);
        assert!(g.adjacency_lists_sorted());
    }

    #[test]
    fn from_edges_deduplicates() {
        let g = CsrGraph::from_edges(2, &[(0, 1), (0, 1), (0, 1)], Direction::Directed);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn degrees_match_offsets() {
        let g = figure2_graph();
        assert_eq!(g.degrees(), vec![2, 4, 3]);
        assert_eq!(g.max_degree(), 4);
    }

    #[test]
    fn in_degrees_counted_from_adjacency() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2), (0, 2)], Direction::Directed);
        assert_eq!(g.in_degrees(), vec![0, 1, 2]);
    }

    #[test]
    fn has_edge_uses_binary_search() {
        let g = figure2_graph();
        assert!(g.has_edge(1, 3));
        assert!(!g.has_edge(0, 4));
    }

    #[test]
    fn csr_size_matches_formula() {
        let g = figure2_graph();
        assert_eq!(g.csr_size_bytes(), 4 * 8 + 9 * 4);
    }

    #[test]
    fn edges_iterator_yields_all_edges_in_order() {
        let g = CsrGraph::from_edges(3, &[(1, 0), (0, 2), (0, 1)], Direction::Directed);
        let edges: Vec<Edge> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 0)]);
    }

    #[test]
    fn symmetric_detection() {
        let sym = CsrGraph::from_edges(3, &[(0, 1), (1, 0), (1, 2), (2, 1)], Direction::Undirected);
        assert!(sym.is_symmetric());
        assert_eq!(sym.logical_edge_count(), 2);
        let asym = CsrGraph::from_edges(3, &[(0, 1), (1, 2)], Direction::Directed);
        assert!(!asym.is_symmetric());
        assert_eq!(asym.logical_edge_count(), 2);
    }

    #[test]
    fn filter_edges_keeps_matching_edges_only() {
        let g = figure2_graph();
        let filtered = g.filter_edges(|u, v| u < v);
        assert_eq!(filtered.neighbours(0), &[1, 2]);
        assert_eq!(filtered.neighbours(1), &[2, 3, 4]);
        assert_eq!(filtered.neighbours(2), &[4]);
    }

    #[test]
    #[should_panic(expected = "offsets must end")]
    fn from_raw_parts_validates_lengths() {
        CsrGraph::from_raw_parts(vec![0, 2], vec![1, 2, 3], Direction::Directed);
    }

    #[test]
    fn empty_graph_is_valid() {
        let g = CsrGraph::from_edges(0, &[], Direction::Undirected);
        assert_eq!(g.vertex_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.csr_size_bytes(), 8);
    }
}
