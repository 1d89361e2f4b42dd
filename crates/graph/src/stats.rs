//! Graph statistics used by the evaluation: degree distributions, skew metrics,
//! CSR sizes (Table II), remote-edge/cut fractions (Section IV-D), and the
//! top-degree contribution curves behind Figure 4.
//!
//! Users: `rmatc-core`'s `reuse` (the Figure 4 curves) and the `table2_graphs` bin.

use crate::csr::CsrGraph;
use crate::types::VertexId;

/// Summary of a graph, matching the columns of Table II plus a few derived metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphSummary {
    /// Dataset or generator name.
    pub name: String,
    /// "U" or "D" per Table II.
    pub direction: String,
    /// Number of vertices after cleaning.
    pub vertices: usize,
    /// Number of stored (directed) edges after cleaning.
    pub directed_edges: u64,
    /// Number of logical edges (undirected edges counted once).
    pub logical_edges: u64,
    /// CSR size in bytes (offsets + adjacencies).
    pub csr_size_bytes: u64,
    /// Maximum out-degree.
    pub max_degree: u32,
    /// Mean out-degree.
    pub mean_degree: f64,
    /// Degree skewness (third standardized moment); > ~2 indicates a heavy tail.
    pub degree_skewness: f64,
}

/// Builds a [`GraphSummary`] for a named graph.
pub fn summarize(name: &str, g: &CsrGraph) -> GraphSummary {
    let degrees = g.degrees();
    let mean = if degrees.is_empty() {
        0.0
    } else {
        degrees.iter().map(|&d| d as f64).sum::<f64>() / degrees.len() as f64
    };
    GraphSummary {
        name: name.to_string(),
        direction: g.direction().label().to_string(),
        vertices: g.vertex_count(),
        directed_edges: g.edge_count(),
        logical_edges: g.logical_edge_count(),
        csr_size_bytes: g.csr_size_bytes(),
        max_degree: g.max_degree(),
        mean_degree: mean,
        degree_skewness: degree_skewness(&degrees),
    }
}

/// Sample skewness of a degree sequence. Used in tests and reports to distinguish
/// power-law-like graphs (large positive skew) from uniform ones (skew near zero).
pub fn degree_skewness(degrees: &[u32]) -> f64 {
    let n = degrees.len();
    if n < 2 {
        return 0.0;
    }
    let nf = n as f64;
    let mean = degrees.iter().map(|&d| d as f64).sum::<f64>() / nf;
    let m2 = degrees
        .iter()
        .map(|&d| (d as f64 - mean).powi(2))
        .sum::<f64>()
        / nf;
    let m3 = degrees
        .iter()
        .map(|&d| (d as f64 - mean).powi(3))
        .sum::<f64>()
        / nf;
    if m2 <= f64::EPSILON {
        return 0.0;
    }
    m3 / m2.powf(1.5)
}

/// Degree histogram: `hist[d]` is the number of vertices with out-degree `d`.
pub fn degree_histogram(g: &CsrGraph) -> Vec<u64> {
    let mut hist = vec![0u64; g.max_degree() as usize + 1];
    for v in 0..g.vertex_count() as VertexId {
        hist[g.degree(v) as usize] += 1;
    }
    hist
}

/// Fraction of directed edges whose endpoints fall in different partitions under the
/// given vertex→rank assignment. The paper reports, e.g., 95% cross-partition edges
/// for an R-MAT 2^20-vertex graph on 8 processes and the growth from 66% to 98% for
/// R-MAT S21 EF16 between 4 and 64 nodes.
pub fn cut_fraction(g: &CsrGraph, owner: &dyn Fn(VertexId) -> usize) -> f64 {
    let mut total = 0u64;
    let mut cut = 0u64;
    for (u, v) in g.edges() {
        total += 1;
        if owner(u) != owner(v) {
            cut += 1;
        }
    }
    if total == 0 {
        0.0
    } else {
        cut as f64 / total as f64
    }
}

/// A point on the Figure 4 curve: after sorting vertices by descending in-degree,
/// `vertex_fraction` of the vertices receive `read_fraction` of all remote reads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SkewPoint {
    /// Fraction of vertices considered (sorted by descending remote-read count).
    pub vertex_fraction: f64,
    /// Fraction of remote reads that target those vertices.
    pub read_fraction: f64,
}

/// Computes the cumulative contribution curve of Figure 4 from a per-vertex count of
/// remote reads. Returns points for logarithmically spaced vertex fractions.
pub fn top_degree_contribution(read_counts: &[u64]) -> Vec<SkewPoint> {
    let mut sorted: Vec<u64> = read_counts.iter().copied().filter(|&c| c > 0).collect();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    let total: u64 = sorted.iter().sum();
    if total == 0 || sorted.is_empty() {
        return Vec::new();
    }
    let n = read_counts.len() as f64;
    let mut points = Vec::new();
    let mut cumulative = 0u64;
    for (i, &c) in sorted.iter().enumerate() {
        cumulative += c;
        points.push(SkewPoint {
            vertex_fraction: (i + 1) as f64 / n,
            read_fraction: cumulative as f64 / total as f64,
        });
    }
    points
}

/// Convenience: the fraction of reads that target the `top` fraction (e.g. 0.1 for
/// the "top 10%" highlighted in Figure 4) of most-read vertices.
pub fn fraction_of_reads_to_top(read_counts: &[u64], top: f64) -> f64 {
    let curve = top_degree_contribution(read_counts);
    let mut best = 0.0;
    for p in &curve {
        if p.vertex_fraction <= top {
            best = p.read_fraction;
        } else {
            break;
        }
    }
    best
}

/// Formats a byte count the way Table II does (MiB / GiB with one decimal).
pub fn format_bytes(bytes: u64) -> String {
    const KIB: f64 = 1024.0;
    const MIB: f64 = 1024.0 * 1024.0;
    const GIB: f64 = 1024.0 * 1024.0 * 1024.0;
    let b = bytes as f64;
    if b >= GIB {
        format!("{:.1} GiB", b / GIB)
    } else if b >= MIB {
        format!("{:.1} MiB", b / MIB)
    } else if b >= KIB {
        format!("{:.1} KiB", b / KIB)
    } else {
        format!("{bytes} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Direction;

    fn path_graph(n: usize) -> CsrGraph {
        let mut edges = Vec::new();
        for i in 0..(n - 1) as u32 {
            edges.push((i, i + 1));
            edges.push((i + 1, i));
        }
        CsrGraph::from_edges(n, &edges, Direction::Undirected)
    }

    #[test]
    fn summary_fields_are_consistent() {
        let g = path_graph(5);
        let s = summarize("path", &g);
        assert_eq!(s.vertices, 5);
        assert_eq!(s.directed_edges, 8);
        assert_eq!(s.logical_edges, 4);
        assert_eq!(s.csr_size_bytes, g.csr_size_bytes());
        assert_eq!(s.max_degree, 2);
        assert_eq!(s.direction, "U");
    }

    #[test]
    fn skewness_of_constant_degrees_is_zero() {
        assert_eq!(degree_skewness(&[4, 4, 4, 4]), 0.0);
        assert_eq!(degree_skewness(&[]), 0.0);
        assert_eq!(degree_skewness(&[7]), 0.0);
    }

    #[test]
    fn skewness_detects_heavy_tail() {
        let mut degrees = vec![2u32; 1000];
        degrees.extend([500, 800, 1000]);
        assert!(degree_skewness(&degrees) > 5.0);
    }

    #[test]
    fn degree_histogram_counts_vertices() {
        let g = path_graph(4);
        let hist = degree_histogram(&g);
        assert_eq!(hist, vec![0, 2, 2]);
    }

    #[test]
    fn cut_fraction_extremes() {
        let g = path_graph(8);
        // Everybody on one rank: no cut edges.
        assert_eq!(cut_fraction(&g, &|_v| 0), 0.0);
        // Each vertex on its own rank: every edge is cut.
        assert_eq!(cut_fraction(&g, &|v| v as usize), 1.0);
    }

    #[test]
    fn top_degree_contribution_is_monotone_and_ends_at_one() {
        let counts = vec![100, 1, 1, 1, 1, 0, 0, 0, 0, 0];
        let curve = top_degree_contribution(&counts);
        assert!(curve
            .windows(2)
            .all(|w| w[0].read_fraction <= w[1].read_fraction));
        assert!((curve.last().unwrap().read_fraction - 1.0).abs() < 1e-12);
        // The single hot vertex (10% of vertices) accounts for ~96% of reads.
        let top10 = fraction_of_reads_to_top(&counts, 0.1);
        assert!(top10 > 0.9);
    }

    #[test]
    fn top_degree_contribution_empty_input() {
        assert!(top_degree_contribution(&[]).is_empty());
        assert!(top_degree_contribution(&[0, 0, 0]).is_empty());
        assert_eq!(fraction_of_reads_to_top(&[0, 0], 0.1), 0.0);
    }

    #[test]
    fn format_bytes_matches_table2_style() {
        assert_eq!(format_bytes(512), "512 B");
        assert_eq!(format_bytes(2 * 1024), "2.0 KiB");
        assert_eq!(format_bytes(949_900_000), "905.9 MiB");
        assert_eq!(format_bytes(4 * 1024 * 1024 * 1024), "4.0 GiB");
    }
}
