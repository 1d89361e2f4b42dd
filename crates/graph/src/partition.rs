//! Vertex partitioning for distributed computation.
//!
//! The paper uses a 1D block partitioning scheme (Section III-A): with `p` ranks,
//! rank `k` owns the contiguous vertex range `((k-1)·n/p, k·n/p]` (0-based here:
//! `[k·n/p, (k+1)·n/p)`), and stores the CSR rows of exactly those vertices. The
//! cyclic distribution of Lumsdaine et al. is provided as the alternative the paper
//! discusses for balancing skewed degrees (TriC runs it), and
//! [`PartitionScheme::WorkBalancedBlock1D`] keeps the contiguous-block shape but
//! draws the rank boundaries over the prefix sum of per-vertex intersection work
//! ([`crate::split`]), so every rank walks roughly the same list mass even on
//! hub-heavy graphs.

use crate::csr::CsrGraph;
use crate::split::{balanced_prefix_bounds, intersection_work_prefix};
use crate::types::{Edge, VertexId};
use crate::{GraphError, Result};

/// How vertices are assigned to ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PartitionScheme {
    /// Contiguous blocks of `n / p` vertices per rank (the paper's scheme).
    Block1D,
    /// Vertex `v` is owned by rank `v mod p` (Lumsdaine et al. cyclic distribution).
    Cyclic,
    /// Contiguous blocks with *intersection-work*-weighted boundaries: each
    /// rank owns an equal share of `Σ_edges (deg(u) + deg(v))` — the length
    /// mass the per-edge intersections actually walk, a better proxy for
    /// worker compute time than stored-edge count on hub-heavy graphs
    /// ([`crate::split::intersection_work_prefix`]). Needs the full CSR
    /// ([`Partitioner::with_graph`]); without it, boundaries degrade to the
    /// equal-count blocks of [`PartitionScheme::Block1D`].
    WorkBalancedBlock1D,
}

/// Maps vertices to owning ranks under a chosen scheme.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partitioner {
    scheme: PartitionScheme,
    n: usize,
    ranks: usize,
    /// Ceiling of n / ranks; used by the block scheme.
    block: usize,
    /// Explicit vertex boundaries (`ranks + 1` entries), used by the
    /// work-balanced block scheme; `None` for the closed-form schemes.
    bounds: Option<Vec<usize>>,
}

impl Partitioner {
    /// Creates a partitioner for `n` vertices over `ranks` ranks. For
    /// [`PartitionScheme::WorkBalancedBlock1D`] this falls back to equal-count
    /// boundaries; use [`Partitioner::with_graph`] to balance by work.
    pub fn new(scheme: PartitionScheme, n: usize, ranks: usize) -> Result<Self> {
        if ranks == 0 || (n > 0 && ranks > n) {
            return Err(GraphError::InvalidPartitionCount { parts: ranks, n });
        }
        let block = n.div_ceil(ranks.max(1)).max(1);
        Ok(Self {
            scheme,
            n,
            ranks,
            block,
            bounds: None,
        })
    }

    /// Creates a partitioner with access to the full CSR graph, enabling the
    /// intersection-work-weighted boundaries of
    /// [`PartitionScheme::WorkBalancedBlock1D`]. Other schemes ignore the graph.
    pub fn with_graph(scheme: PartitionScheme, g: &CsrGraph, ranks: usize) -> Result<Self> {
        let mut partitioner = Self::new(scheme, g.vertex_count(), ranks)?;
        if scheme == PartitionScheme::WorkBalancedBlock1D {
            let prefix = intersection_work_prefix(g.offsets(), g.adjacencies());
            partitioner.bounds = Some(balanced_prefix_bounds(&prefix, ranks));
        }
        Ok(partitioner)
    }

    /// The partitioning scheme in use.
    pub fn scheme(&self) -> PartitionScheme {
        self.scheme
    }

    /// Number of ranks.
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// Number of vertices in the global graph.
    pub fn vertex_count(&self) -> usize {
        self.n
    }

    /// The contiguous vertex range owned by `rank` under the block schemes.
    fn block_range(&self, rank: usize) -> std::ops::Range<usize> {
        match &self.bounds {
            Some(bounds) => bounds[rank]..bounds[rank + 1],
            None => (rank * self.block).min(self.n)..((rank + 1) * self.block).min(self.n),
        }
    }

    /// The rank that owns global vertex `v`.
    pub fn owner(&self, v: VertexId) -> usize {
        debug_assert!((v as usize) < self.n);
        match (self.scheme, &self.bounds) {
            (PartitionScheme::Cyclic, _) => v as usize % self.ranks,
            // `bounds` has ranks + 1 entries starting at 0, so the partition
            // point over the interior boundaries is in `[1, ranks]`.
            (_, Some(bounds)) => bounds.partition_point(|&b| b <= v as usize) - 1,
            (_, None) => (v as usize / self.block).min(self.ranks - 1),
        }
    }

    /// The global vertex ids owned by `rank`, in increasing order.
    pub fn owned_vertices(&self, rank: usize) -> Vec<VertexId> {
        assert!(rank < self.ranks);
        match self.scheme {
            PartitionScheme::Cyclic => (0..self.n as VertexId)
                .filter(|&v| self.owner(v) == rank)
                .collect(),
            _ => {
                let range = self.block_range(rank);
                (range.start as VertexId..range.end as VertexId).collect()
            }
        }
    }

    /// Number of vertices owned by `rank`.
    pub fn owned_count(&self, rank: usize) -> usize {
        match self.scheme {
            PartitionScheme::Cyclic => {
                if rank < self.n % self.ranks || self.n % self.ranks == 0 {
                    self.n.div_ceil(self.ranks)
                } else {
                    self.n / self.ranks
                }
            }
            _ => self.block_range(rank).len(),
        }
    }

    /// Converts a global vertex id to the local index within its owner's partition.
    pub fn local_index(&self, v: VertexId) -> usize {
        match self.scheme {
            PartitionScheme::Cyclic => v as usize / self.ranks,
            _ => v as usize - self.block_range(self.owner(v)).start,
        }
    }

    /// Converts a (rank, local index) pair back to the global vertex id.
    pub fn global_index(&self, rank: usize, local: usize) -> VertexId {
        match self.scheme {
            PartitionScheme::Cyclic => (local * self.ranks + rank) as VertexId,
            _ => (self.block_range(rank).start + local) as VertexId,
        }
    }
}

/// The partition owned by one rank: the CSR rows of its vertices, indexed locally,
/// plus the mapping information needed to resolve global ids.
#[derive(Debug, Clone, PartialEq)]
pub struct RankPartition {
    /// Owning rank.
    pub rank: usize,
    /// Local CSR: row `i` is the adjacency list (global vertex ids!) of the vertex
    /// with local index `i`.
    pub csr: CsrGraph,
    /// Global ids of the owned vertices, `global_ids[i]` corresponds to local row `i`.
    pub global_ids: Vec<VertexId>,
}

impl RankPartition {
    /// Number of locally owned vertices.
    pub fn local_vertex_count(&self) -> usize {
        self.global_ids.len()
    }

    /// Number of locally stored directed edges.
    pub fn local_edge_count(&self) -> u64 {
        self.csr.edge_count()
    }

    /// Adjacency list (global ids) of the vertex with local index `i`.
    pub fn neighbours_of_local(&self, i: usize) -> &[VertexId] {
        self.csr.neighbours(i as VertexId)
    }
}

/// A complete 1D-partitioned graph: one [`RankPartition`] per rank plus the shared
/// [`Partitioner`]. This is the input handed to the distributed runners.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionedGraph {
    /// Vertex→rank mapping.
    pub partitioner: Partitioner,
    /// Per-rank partitions, indexed by rank.
    pub partitions: Vec<RankPartition>,
    /// Direction of the underlying graph.
    pub direction: crate::types::Direction,
}

impl PartitionedGraph {
    /// Splits a global CSR graph into per-rank partitions.
    pub fn from_global(g: &CsrGraph, scheme: PartitionScheme, ranks: usize) -> Result<Self> {
        let partitioner = Partitioner::with_graph(scheme, g, ranks)?;
        let partitions = (0..ranks)
            .map(|rank| {
                let global_ids = partitioner.owned_vertices(rank);
                // Local row `i` is global row `global_ids[i]` (global ids),
                // copied as it is: CSR rows are already sorted and unique.
                let mut offsets = Vec::with_capacity(global_ids.len() + 1);
                offsets.push(0);
                let edges = global_ids.iter().map(|&gv| g.degree(gv) as usize).sum();
                let mut adjacencies = Vec::with_capacity(edges);
                for &gv in &global_ids {
                    adjacencies.extend_from_slice(g.neighbours(gv));
                    offsets.push(adjacencies.len() as u64);
                }
                RankPartition {
                    rank,
                    csr: CsrGraph::from_raw_parts(offsets, adjacencies, g.direction()),
                    global_ids,
                }
            })
            .collect();
        Ok(Self {
            partitioner,
            partitions,
            direction: g.direction(),
        })
    }

    /// Number of ranks.
    pub fn ranks(&self) -> usize {
        self.partitions.len()
    }

    /// Number of global vertices.
    pub fn global_vertex_count(&self) -> usize {
        self.partitioner.vertex_count()
    }

    /// Total number of directed edges across all partitions.
    pub fn global_edge_count(&self) -> u64 {
        self.partitions.iter().map(|p| p.local_edge_count()).sum()
    }

    /// Fraction of directed edges whose destination vertex lives on a different rank
    /// than the source (the "remote edge" fraction of Section IV-D).
    pub fn remote_edge_fraction(&self) -> f64 {
        let mut total = 0u64;
        let mut remote = 0u64;
        for part in &self.partitions {
            for (local, _) in part.global_ids.iter().enumerate() {
                for &w in part.neighbours_of_local(local) {
                    total += 1;
                    if self.partitioner.owner(w) != part.rank {
                        remote += 1;
                    }
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            remote as f64 / total as f64
        }
    }

    /// Load imbalance: max over ranks of stored edges divided by the mean.
    pub fn edge_imbalance(&self) -> f64 {
        let counts: Vec<u64> = self
            .partitions
            .iter()
            .map(|p| p.local_edge_count())
            .collect();
        let max = *counts.iter().max().unwrap_or(&0) as f64;
        let mean = counts.iter().sum::<u64>() as f64 / counts.len().max(1) as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }

    /// Reassembles the global CSR graph from the partitions (used by tests to verify
    /// that partitioning loses no information).
    pub fn reassemble(&self) -> CsrGraph {
        let n = self.global_vertex_count();
        let mut edges: Vec<Edge> = Vec::new();
        for part in &self.partitions {
            for (local, &gv) in part.global_ids.iter().enumerate() {
                for &w in part.neighbours_of_local(local) {
                    edges.push((gv, w));
                }
            }
        }
        CsrGraph::from_edges(n, &edges, self.direction)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{GraphGenerator, RmatGenerator};
    use crate::types::Direction;

    fn sample_graph() -> CsrGraph {
        RmatGenerator::paper(9, 8).generate_cleaned(1).into_csr()
    }

    #[test]
    fn block_partitioner_covers_all_vertices_exactly_once() {
        let p = Partitioner::new(PartitionScheme::Block1D, 103, 8).unwrap();
        let mut seen = [false; 103];
        for rank in 0..8 {
            for v in p.owned_vertices(rank) {
                assert_eq!(p.owner(v), rank);
                assert!(!seen[v as usize]);
                seen[v as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn cyclic_partitioner_covers_all_vertices_exactly_once() {
        let p = Partitioner::new(PartitionScheme::Cyclic, 103, 8).unwrap();
        let mut seen = [false; 103];
        for rank in 0..8 {
            for v in p.owned_vertices(rank) {
                assert_eq!(p.owner(v), rank);
                assert!(!seen[v as usize]);
                seen[v as usize] = true;
            }
            assert_eq!(p.owned_vertices(rank).len(), p.owned_count(rank));
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn local_global_round_trip() {
        for scheme in [PartitionScheme::Block1D, PartitionScheme::Cyclic] {
            let p = Partitioner::new(scheme, 64, 4).unwrap();
            for v in 0..64u32 {
                let rank = p.owner(v);
                let local = p.local_index(v);
                assert_eq!(
                    p.global_index(rank, local),
                    v,
                    "scheme {scheme:?} vertex {v}"
                );
            }
        }
    }

    #[test]
    fn invalid_rank_counts_are_rejected() {
        assert!(Partitioner::new(PartitionScheme::Block1D, 10, 0).is_err());
        assert!(Partitioner::new(PartitionScheme::Block1D, 4, 8).is_err());
    }

    #[test]
    fn block_scheme_matches_paper_formula() {
        // n = 16, p = 4: rank k owns [4k, 4(k+1)).
        let p = Partitioner::new(PartitionScheme::Block1D, 16, 4).unwrap();
        assert_eq!(p.owned_vertices(0), vec![0, 1, 2, 3]);
        assert_eq!(p.owned_vertices(3), vec![12, 13, 14, 15]);
    }

    #[test]
    fn partitioned_graph_preserves_all_edges() {
        let g = sample_graph();
        for ranks in [1, 2, 4, 8] {
            let pg = PartitionedGraph::from_global(&g, PartitionScheme::Block1D, ranks).unwrap();
            assert_eq!(pg.global_edge_count(), g.edge_count());
            assert_eq!(pg.reassemble(), g, "ranks = {ranks}");
        }
    }

    #[test]
    fn partitioned_graph_cyclic_preserves_all_edges() {
        let g = sample_graph();
        let pg = PartitionedGraph::from_global(&g, PartitionScheme::Cyclic, 4).unwrap();
        assert_eq!(pg.reassemble(), g);
    }

    #[test]
    fn remote_fraction_grows_with_rank_count() {
        let g = sample_graph();
        let f2 = PartitionedGraph::from_global(&g, PartitionScheme::Block1D, 2)
            .unwrap()
            .remote_edge_fraction();
        let f8 = PartitionedGraph::from_global(&g, PartitionScheme::Block1D, 8)
            .unwrap()
            .remote_edge_fraction();
        assert!(
            f2 < f8,
            "remote fraction must grow with more ranks ({f2} vs {f8})"
        );
        assert!(f8 <= 1.0 && f2 >= 0.0);
    }

    #[test]
    fn single_rank_has_no_remote_edges() {
        let g = sample_graph();
        let pg = PartitionedGraph::from_global(&g, PartitionScheme::Block1D, 1).unwrap();
        assert_eq!(pg.remote_edge_fraction(), 0.0);
        assert!((pg.edge_imbalance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rmat_on_8_ranks_is_mostly_remote() {
        // The paper observes ~95% remote edges for an R-MAT graph on 8 ranks; our
        // smaller instance should still be above 80%.
        let g = RmatGenerator::paper(12, 16).generate_cleaned(5).into_csr();
        let pg = PartitionedGraph::from_global(&g, PartitionScheme::Block1D, 8).unwrap();
        assert!(pg.remote_edge_fraction() > 0.8);
    }

    #[test]
    fn work_balanced_partitioner_covers_all_vertices_exactly_once() {
        let g = RmatGenerator::paper(10, 8).generate_cleaned(2).into_csr();
        let p = Partitioner::with_graph(PartitionScheme::WorkBalancedBlock1D, &g, 8).unwrap();
        let mut seen = vec![false; g.vertex_count()];
        for rank in 0..8 {
            for v in p.owned_vertices(rank) {
                assert_eq!(p.owner(v), rank);
                assert_eq!(p.global_index(rank, p.local_index(v)), v);
                assert!(!seen[v as usize]);
                seen[v as usize] = true;
            }
            assert_eq!(p.owned_vertices(rank).len(), p.owned_count(rank));
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn work_balanced_blocks_spread_intersection_work_better_than_block1d() {
        // Equal-count blocks concentrate both edge mass *and* intersection
        // work in the low-id hub ranks of an R-MAT graph. The work-balanced
        // scheme should cut the spread of per-rank intersection work (max
        // over mean) relative to Block1D, while still being an exact
        // partition of the same graph.
        let g = RmatGenerator::paper(11, 16).generate_cleaned(5).into_csr();
        let prefix = intersection_work_prefix(g.offsets(), g.adjacencies());
        let ranks = 8;
        let rank_work = |pg: &PartitionedGraph| -> Vec<u64> {
            (0..ranks)
                .map(|rank| {
                    pg.partitioner
                        .owned_vertices(rank)
                        .into_iter()
                        .map(|v| prefix[v as usize + 1] - prefix[v as usize])
                        .sum()
                })
                .collect()
        };
        let spread = |work: &[u64]| {
            let max = *work.iter().max().unwrap() as f64;
            let mean = work.iter().sum::<u64>() as f64 / work.len() as f64;
            max / mean
        };
        let block = PartitionedGraph::from_global(&g, PartitionScheme::Block1D, ranks).unwrap();
        let balanced =
            PartitionedGraph::from_global(&g, PartitionScheme::WorkBalancedBlock1D, ranks).unwrap();
        let (block_spread, balanced_spread) =
            (spread(&rank_work(&block)), spread(&rank_work(&balanced)));
        assert!(
            balanced_spread < block_spread,
            "work-balanced {balanced_spread} vs block {block_spread}"
        );
        // Every rank is close to an equal work share: within one vertex's
        // worth of work of the ideal, the same bound the splitter guarantees.
        let total = *prefix.last().unwrap();
        let max_vertex_work = prefix.windows(2).map(|w| w[1] - w[0]).max().unwrap();
        for &w in &rank_work(&balanced) {
            assert!(w <= total / ranks as u64 + max_vertex_work);
        }
        assert_eq!(balanced.reassemble(), g);
    }

    #[test]
    fn work_balanced_scheme_without_graph_degrades_to_equal_count_blocks() {
        let with = Partitioner::new(PartitionScheme::WorkBalancedBlock1D, 64, 4).unwrap();
        let block = Partitioner::new(PartitionScheme::Block1D, 64, 4).unwrap();
        for v in 0..64u32 {
            assert_eq!(with.owner(v), block.owner(v));
            assert_eq!(with.local_index(v), block.local_index(v));
        }
    }

    #[test]
    fn local_rows_match_global_rows() {
        let g = sample_graph();
        let pg = PartitionedGraph::from_global(&g, PartitionScheme::Block1D, 4).unwrap();
        for part in &pg.partitions {
            for (local, &gv) in part.global_ids.iter().enumerate() {
                assert_eq!(part.neighbours_of_local(local), g.neighbours(gv));
            }
        }
    }

    #[test]
    fn row_copies_equal_the_edge_list_construction() {
        // The construction row copying replaced: collect a `(local, w)` pair
        // per owned edge, then sort and deduplicate them into a local CSR.
        let from_pairs = |g: &CsrGraph, scheme, ranks| {
            let partitioner = Partitioner::with_graph(scheme, g, ranks).unwrap();
            let partitions = (0..ranks)
                .map(|rank| {
                    let global_ids = partitioner.owned_vertices(rank);
                    let pairs: Vec<Edge> = global_ids
                        .iter()
                        .enumerate()
                        .flat_map(|(local, &gv)| {
                            g.neighbours(gv)
                                .iter()
                                .map(move |&w| (local as VertexId, w))
                        })
                        .collect();
                    RankPartition {
                        rank,
                        csr: CsrGraph::from_edges(global_ids.len(), &pairs, g.direction()),
                        global_ids,
                    }
                })
                .collect();
            PartitionedGraph {
                partitioner,
                partitions,
                direction: g.direction(),
            }
        };
        let rmat = RmatGenerator::paper(10, 16).generate_cleaned(3).into_csr();
        let directed = RmatGenerator::paper_directed(9, 8)
            .generate_cleaned(4)
            .into_csr();
        assert_eq!(directed.direction(), Direction::Directed);
        for g in [&rmat, &directed] {
            for scheme in [
                PartitionScheme::Block1D,
                PartitionScheme::Cyclic,
                PartitionScheme::WorkBalancedBlock1D,
            ] {
                for ranks in [1, 3, 8] {
                    let pg = PartitionedGraph::from_global(g, scheme, ranks).unwrap();
                    assert_eq!(pg, from_pairs(g, scheme, ranks), "{scheme:?} on {ranks}");
                }
            }
        }
    }

    #[test]
    fn empty_graph_partitions_cleanly() {
        let g = CsrGraph::from_edges(0, &[], Direction::Undirected);
        let pg = PartitionedGraph::from_global(&g, PartitionScheme::Block1D, 1).unwrap();
        assert_eq!(pg.global_edge_count(), 0);
        assert_eq!(pg.remote_edge_fraction(), 0.0);
    }
}
