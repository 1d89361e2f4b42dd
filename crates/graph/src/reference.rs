//! Simple sequential reference implementations of triangle counting and LCC.
//!
//! These are intentionally written in the most obvious way possible (node-iterator
//! with hash-free sorted merge) and are used as the ground truth that every other
//! implementation in the workspace — the shared-memory kernels, the asynchronous
//! distributed algorithm, cached or not, and the TriC baseline — must agree with.

use crate::csr::CsrGraph;
use crate::types::{Direction, VertexId};

/// Number of common neighbours of `u` and `v` (no offsetting).
pub fn common_neighbours(g: &CsrGraph, u: VertexId, v: VertexId) -> u64 {
    sorted_intersection_count(g.neighbours(u), g.neighbours(v))
}

/// Size of the intersection of two sorted, duplicate-free slices.
pub fn sorted_intersection_count(a: &[VertexId], b: &[VertexId]) -> u64 {
    let (mut i, mut j, mut count) = (0usize, 0usize, 0u64);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
        }
    }
    count
}

/// Number of closed triplets centred at each vertex — the numerator of the LCC
/// formula.
///
/// * Undirected graphs: the number of *unordered* neighbour pairs `{v, w}` of `u`
///   that are themselves connected, obtained with the paper's upper-triangle
///   offsetting (only `w > v` is counted), to be combined with the factor 2 of
///   Eq. (2).
/// * Directed graphs: the number of *ordered* neighbour pairs `(v, w)` of `u` with
///   `e_vw ∈ E`, i.e. the full edge-centric intersection without offsetting, which
///   is exactly the numerator of Eq. (1).
pub fn per_vertex_triangles(g: &CsrGraph) -> Vec<u64> {
    let n = g.vertex_count();
    let mut t = vec![0u64; n];
    for u in 0..n as VertexId {
        let a = g.neighbours(u);
        for &v in a {
            let b = g.neighbours(v);
            t[u as usize] += match g.direction() {
                Direction::Undirected => {
                    let start_a = a.partition_point(|&x| x <= v);
                    let start_b = b.partition_point(|&x| x <= v);
                    sorted_intersection_count(&a[start_a..], &b[start_b..])
                }
                Direction::Directed => sorted_intersection_count(a, b),
            };
        }
    }
    t
}

/// Total number of distinct triangles in an undirected graph; for directed graphs it
/// returns the total number of closed triplets (the paper's △ijk patterns), which is
/// not divided by three because each oriented pattern lies on a distinct corner.
pub fn count_triangles(g: &CsrGraph) -> u64 {
    let total: u64 = per_vertex_triangles(g).iter().sum();
    match g.direction() {
        // Each triangle {a, b, c} is counted once from each of its three corners.
        Direction::Undirected => total / 3,
        Direction::Directed => total,
    }
}

/// LCC score of a single vertex given its triangle participation count, following
/// Eq. (1) (directed) / Eq. (2) (undirected) of the paper.
pub fn lcc_from_triangles(direction: Direction, degree: u32, triangles: u64) -> f64 {
    if degree < 2 {
        return 0.0;
    }
    let d = degree as f64;
    let possible = d * (d - 1.0);
    match direction {
        Direction::Directed => triangles as f64 / possible,
        Direction::Undirected => 2.0 * triangles as f64 / possible,
    }
}

/// LCC scores of every vertex.
pub fn lcc_scores(g: &CsrGraph) -> Vec<f64> {
    per_vertex_triangles(g)
        .iter()
        .enumerate()
        .map(|(v, &t)| lcc_from_triangles(g.direction(), g.degree(v as VertexId), t))
        .collect()
}

/// Average LCC over all vertices (vertices with degree < 2 contribute 0).
pub fn average_lcc(g: &CsrGraph) -> f64 {
    let scores = lcc_scores(g);
    if scores.is_empty() {
        return 0.0;
    }
    scores.iter().sum::<f64>() / scores.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{GraphGenerator, WattsStrogatz};

    /// A 4-clique: every vertex has LCC 1 and there are 4 triangles.
    fn clique4() -> CsrGraph {
        let mut edges = Vec::new();
        for u in 0..4u32 {
            for v in 0..4u32 {
                if u != v {
                    edges.push((u, v));
                }
            }
        }
        CsrGraph::from_edges(4, &edges, Direction::Undirected)
    }

    /// The toy graph of Figure 1 (left) of the paper, symmetrized:
    /// vertices 0..6, edges 0-1, 0-2, 1-2, 1-3, 1-4, 2-4, 3-4, 4-5.
    pub fn figure1_graph() -> CsrGraph {
        let base = [
            (0, 1),
            (0, 2),
            (1, 2),
            (1, 3),
            (1, 4),
            (2, 4),
            (3, 4),
            (4, 5),
        ];
        let mut edges = Vec::new();
        for &(u, v) in &base {
            edges.push((u, v));
            edges.push((v, u));
        }
        CsrGraph::from_edges(6, &edges, Direction::Undirected)
    }

    #[test]
    fn clique_has_binomial_triangles() {
        let g = clique4();
        assert_eq!(count_triangles(&g), 4);
        assert!(lcc_scores(&g).iter().all(|&c| (c - 1.0).abs() < 1e-12));
    }

    #[test]
    fn figure1_triangle_count() {
        let g = figure1_graph();
        // Triangles: {0,1,2}, {1,2,4}, {1,3,4}.
        assert_eq!(count_triangles(&g), 3);
    }

    #[test]
    fn figure1_lcc_scores() {
        let g = figure1_graph();
        let c = lcc_scores(&g);
        // Vertex 0: neighbours {1,2}, 1 connected pair, degree 2 -> 2*1/(2*1) = 1.
        assert!((c[0] - 1.0).abs() < 1e-12);
        // Vertex 5: degree 1 -> 0.
        assert_eq!(c[5], 0.0);
        // Vertex 4: neighbours {1,2,3,5}, connected pairs {1,2},{1,3} -> 2*2/(4*3)=1/3.
        assert!((c[4] - 1.0 / 3.0).abs() < 1e-12);
        // Vertex 1: neighbours {0,2,3,4}, pairs {0,2},{2,4},{3,4} -> 2*3/(4*3) = 0.5.
        assert!((c[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn triangle_free_graph_has_zero_lcc() {
        // A 6-cycle has no triangles.
        let mut edges = Vec::new();
        for i in 0..6u32 {
            let j = (i + 1) % 6;
            edges.push((i, j));
            edges.push((j, i));
        }
        let g = CsrGraph::from_edges(6, &edges, Direction::Undirected);
        assert_eq!(count_triangles(&g), 0);
        assert!(lcc_scores(&g).iter().all(|&c| c == 0.0));
    }

    #[test]
    fn lcc_from_triangles_handles_low_degree() {
        assert_eq!(lcc_from_triangles(Direction::Undirected, 0, 0), 0.0);
        assert_eq!(lcc_from_triangles(Direction::Undirected, 1, 0), 0.0);
        assert!((lcc_from_triangles(Direction::Undirected, 3, 2) - 2.0 / 3.0).abs() < 1e-12);
        assert!((lcc_from_triangles(Direction::Directed, 3, 2) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn sorted_intersection_count_basic() {
        assert_eq!(sorted_intersection_count(&[1, 3, 5], &[2, 3, 5, 7]), 2);
        assert_eq!(sorted_intersection_count(&[], &[1, 2]), 0);
        assert_eq!(sorted_intersection_count(&[1, 2, 3], &[1, 2, 3]), 3);
    }

    #[test]
    fn watts_strogatz_average_matches_analytic() {
        let csr = WattsStrogatz::new(100, 4, 0.0)
            .generate_cleaned(1)
            .into_csr();
        let expected = WattsStrogatz::lattice_lcc(4);
        assert!((average_lcc(&csr) - expected).abs() < 1e-9);
    }

    #[test]
    fn directed_clique_lcc_is_one() {
        // Complete digraph on 3 vertices: every ordered neighbour pair is connected,
        // so Eq. (1) gives LCC 1 for every vertex.
        let mut edges = Vec::new();
        for u in 0..3u32 {
            for v in 0..3u32 {
                if u != v {
                    edges.push((u, v));
                }
            }
        }
        let g = CsrGraph::from_edges(3, &edges, Direction::Directed);
        let scores = lcc_scores(&g);
        assert!(
            scores.iter().all(|&c| (c - 1.0).abs() < 1e-12),
            "{scores:?}"
        );
        assert_eq!(count_triangles(&g), 6);
    }

    #[test]
    fn directed_one_way_triangle_counts_ordered_pairs() {
        // Cycle 0→1→2→0: adj(0) = {1}, so no pair of neighbours exists and LCC is 0.
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)], Direction::Directed);
        assert!(lcc_scores(&g).iter().all(|&c| c == 0.0));
        assert_eq!(count_triangles(&g), 0);
    }

    #[test]
    fn per_vertex_triangles_sum_is_three_times_total() {
        let g = figure1_graph();
        let per = per_vertex_triangles(&g);
        assert_eq!(per.iter().sum::<u64>(), 3 * count_triangles(&g));
    }
}
