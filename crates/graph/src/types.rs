//! Fundamental identifier types shared across the workspace.

/// Vertex identifier. The paper's largest graph (R-MAT S30) has 2^30 vertices, which
/// fits comfortably in 32 bits; using `u32` halves the memory traffic of adjacency
/// reads, which is exactly the quantity the evaluation studies.
pub type VertexId = u32;

/// Edge identifier / edge count. Edge counts can exceed 2^32 (R-MAT S30 EF16 has
/// ~17.2 G edges), so edges are indexed with 64 bits.
pub type EdgeId = u64;

/// A directed edge `(source, destination)`.
pub type Edge = (VertexId, VertexId);

/// Direction of a graph. The paper handles both: LCC uses Eq. (1) for directed and
/// Eq. (2) for undirected graphs, and Table II mixes both kinds of datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Every edge (u, v) is also present as (v, u).
    Undirected,
    /// Edges are stored exactly as given.
    Directed,
}

impl Direction {
    /// Short label used in reports ("U"/"D"), matching Table II of the paper.
    pub fn label(&self) -> &'static str {
        match self {
            Direction::Undirected => "U",
            Direction::Directed => "D",
        }
    }
}

impl std::fmt::Display for Direction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Direction::Undirected => write!(f, "undirected"),
            Direction::Directed => write!(f, "directed"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_labels_match_table2() {
        assert_eq!(Direction::Undirected.label(), "U");
        assert_eq!(Direction::Directed.label(), "D");
    }

    #[test]
    fn direction_display_is_lowercase() {
        assert_eq!(Direction::Undirected.to_string(), "undirected");
        assert_eq!(Direction::Directed.to_string(), "directed");
    }
}
