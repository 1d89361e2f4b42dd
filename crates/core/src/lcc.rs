//! Local clustering coefficient formulas (Watts & Strogatz; Eqs. 1 and 2 of the
//! paper), shared by the local and distributed implementations, and the one
//! place that turns per-vertex closed-triplet counts into results.

use rmatc_graph::partition::PartitionedGraph;
pub use rmatc_graph::reference::lcc_from_triangles;
use rmatc_graph::types::Direction;

/// Per-vertex closed-triplet counts with the LCC scores and the global count
/// they give.
#[derive(Debug, Clone, PartialEq)]
pub struct VertexCounts {
    /// Closed-triplet count per global vertex.
    pub per_vertex_triangles: Vec<u64>,
    /// LCC score per global vertex.
    pub lcc: Vec<f64>,
    /// Global triangle count (undirected: every triangle is counted at its
    /// three corners) or closed-triplet total (directed).
    pub triangle_count: u64,
}

impl VertexCounts {
    /// The scores and global count of per-vertex counts, given the vertices'
    /// degrees.
    pub fn new(direction: Direction, degrees: &[u32], per_vertex_triangles: Vec<u64>) -> Self {
        assert_eq!(degrees.len(), per_vertex_triangles.len());
        let lcc = degrees
            .iter()
            .zip(&per_vertex_triangles)
            .map(|(&d, &t)| lcc_from_triangles(direction, d, t))
            .collect();
        let total: u64 = per_vertex_triangles.iter().sum();
        let triangle_count = match direction {
            Direction::Undirected => total / 3,
            Direction::Directed => total,
        };
        Self {
            per_vertex_triangles,
            lcc,
            triangle_count,
        }
    }

    /// Scatters each rank's counts, indexed by local vertex and given in rank
    /// order, into global arrays beside the vertices' degrees, then scores
    /// them as [`VertexCounts::new`].
    pub fn gather<'a>(
        pg: &PartitionedGraph,
        per_rank: impl IntoIterator<Item = &'a [u64]>,
    ) -> Self {
        let n = pg.global_vertex_count();
        let mut per_vertex_triangles = vec![0u64; n];
        let mut degrees = vec![0u32; n];
        for (part, counts) in pg.partitions.iter().zip(per_rank) {
            for (local_idx, &gv) in part.global_ids.iter().enumerate() {
                per_vertex_triangles[gv as usize] = counts[local_idx];
                degrees[gv as usize] = part.csr.degree(local_idx as u32);
            }
        }
        Self::new(pg.direction, &degrees, per_vertex_triangles)
    }
}

/// Average LCC over a score vector; empty input gives 0.
pub fn average(scores: &[f64]) -> f64 {
    if scores.is_empty() {
        0.0
    } else {
        scores.iter().sum::<f64>() / scores.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scores_match_formula() {
        let c = VertexCounts::new(Direction::Undirected, &[3, 2, 0], vec![2, 1, 0]);
        assert!((c.lcc[0] - 2.0 * 2.0 / 6.0).abs() < 1e-12);
        assert!((c.lcc[1] - 1.0).abs() < 1e-12);
        assert_eq!(c.lcc[2], 0.0);
        assert_eq!(c.triangle_count, 1, "three corners per triangle");
    }

    #[test]
    fn directed_scores_have_no_factor_two() {
        let c = VertexCounts::new(Direction::Directed, &[3], vec![3]);
        assert!((c.lcc[0] - 0.5).abs() < 1e-12);
        assert_eq!(c.triangle_count, 3, "closed triplets, not triangles");
    }

    #[test]
    fn average_handles_empty() {
        assert_eq!(average(&[]), 0.0);
        assert!((average(&[0.5, 1.0]) - 0.75).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_panic() {
        VertexCounts::new(Direction::Undirected, &[1, 2], vec![0]);
    }
}
