//! Degree-weighted (equal-work) range splitting over CSR offsets.
//!
//! Splitting a vertex range into equal-*count* chunks assigns wildly uneven
//! work on skewed graphs: one R-MAT hub row can carry as many edges as
//! another chunk's whole vertex range. Because `CsrGraph::offsets` is already
//! the prefix sum of the degree sequence, equal-*work* boundaries come from a
//! handful of binary searches: chunk `j` starts at the first vertex whose row
//! begins at or after `j/parts` of the total edge mass.
//!
//! Used by the shared-memory vertex-range loop (`rmatc-core`'s `LocalLcc`)
//! and by the distributed
//! [`PartitionScheme::BalancedBlock1D`](crate::partition::PartitionScheme)
//! partitioner, which applies the same splitting to rank boundaries.

/// Splits the vertex range `0..offsets.len()-1` into `parts` contiguous
/// chunks of approximately equal edge count. Returns `parts + 1` boundaries:
/// chunk `j` is `bounds[j]..bounds[j + 1]`, `bounds[0] == 0`, and the last
/// boundary is the vertex count. Boundaries are non-decreasing; chunks may be
/// empty when a single row outweighs an equal share.
///
/// `offsets` must be a CSR offsets array: non-decreasing, with `offsets[v]`
/// the index of vertex `v`'s first edge and `offsets[n]` the edge count.
pub fn balanced_vertex_bounds(offsets: &[u64], parts: usize) -> Vec<usize> {
    assert!(!offsets.is_empty(), "offsets must have at least one entry");
    let n = offsets.len() - 1;
    let parts = parts.max(1);
    let total = offsets[n];
    let mut bounds = Vec::with_capacity(parts + 1);
    bounds.push(0);
    for j in 1..parts {
        let target = weighted_target(total, j, parts);
        // First vertex whose row starts at or past the target edge index.
        let boundary = offsets.partition_point(|&o| o < target).min(n);
        bounds.push(boundary.max(*bounds.last().expect("non-empty")));
    }
    bounds.push(n);
    bounds
}

/// Splits an arbitrary non-decreasing cumulative-weight array into `parts`
/// chunks of approximately equal weight. `prefix` has one entry per item plus
/// a leading zero (`prefix[i]` = total weight of items `0..i`); the returned
/// `parts + 1` boundaries are item indices.
pub fn balanced_prefix_bounds(prefix: &[u64], parts: usize) -> Vec<usize> {
    assert!(!prefix.is_empty(), "prefix must have at least one entry");
    let n = prefix.len() - 1;
    let parts = parts.max(1);
    let total = prefix[n];
    let mut bounds = Vec::with_capacity(parts + 1);
    bounds.push(0);
    for j in 1..parts {
        let target = weighted_target(total, j, parts);
        let boundary = prefix.partition_point(|&w| w < target).min(n);
        bounds.push(boundary.max(*bounds.last().expect("non-empty")));
    }
    bounds.push(n);
    bounds
}

/// `total * j / parts` without overflow for edge counts near `u64::MAX / parts`.
fn weighted_target(total: u64, j: usize, parts: usize) -> u64 {
    ((total as u128 * j as u128) / parts as u128) as u64
}

/// Prefix sum of per-vertex *intersection work*: vertex `u` contributes
/// `Σ_{v ∈ adj(u)} (deg(u) + deg(v))` — the length sum a merge-class
/// intersection of the two rows walks, summed over `u`'s edges. Returns
/// `n + 1` entries with a leading zero, ready for
/// [`balanced_prefix_bounds`].
///
/// Edge *count* per rank (what [`balanced_vertex_bounds`] equalizes) is a
/// proxy for storage; this is a proxy for the distributed workers' compute
/// time, which is dominated by the per-edge intersections. The two differ on
/// hub-heavy graphs: a hub's edges are cheap to store but each one drags the
/// hub's full row through the intersection.
///
/// `adjacencies` holds global vertex ids into the same CSR (`offsets` has one
/// entry per vertex plus the trailing edge count).
pub fn intersection_work_prefix(offsets: &[u64], adjacencies: &[u32]) -> Vec<u64> {
    assert!(!offsets.is_empty(), "offsets must have at least one entry");
    let n = offsets.len() - 1;
    let mut prefix = Vec::with_capacity(n + 1);
    prefix.push(0u64);
    for u in 0..n {
        let (start, end) = (offsets[u] as usize, offsets[u + 1] as usize);
        let deg_u = (end - start) as u64;
        let mut work = 0u64;
        for &v in &adjacencies[start..end] {
            let deg_v = offsets[v as usize + 1] - offsets[v as usize];
            work += deg_u + deg_v;
        }
        prefix.push(prefix[u] + work);
    }
    prefix
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{GraphGenerator, RmatGenerator};

    fn chunk_weights(offsets: &[u64], bounds: &[usize]) -> Vec<u64> {
        bounds
            .windows(2)
            .map(|w| offsets[w[1]] - offsets[w[0]])
            .collect()
    }

    #[test]
    fn bounds_cover_the_range_exactly() {
        let g = RmatGenerator::paper(9, 8).generate_cleaned(3).into_csr();
        for parts in [1, 2, 3, 7, 16] {
            let bounds = balanced_vertex_bounds(g.offsets(), parts);
            assert_eq!(bounds.len(), parts + 1);
            assert_eq!(bounds[0], 0);
            assert_eq!(*bounds.last().unwrap(), g.vertex_count());
            assert!(bounds.windows(2).all(|w| w[0] <= w[1]), "{bounds:?}");
        }
    }

    #[test]
    fn chunks_carry_nearly_equal_edge_mass() {
        let g = RmatGenerator::paper(10, 8).generate_cleaned(1).into_csr();
        let parts = 8;
        let bounds = balanced_vertex_bounds(g.offsets(), parts);
        let weights = chunk_weights(g.offsets(), &bounds);
        let ideal = g.edge_count() / parts as u64;
        let max_row = g.max_degree() as u64;
        // Each chunk is within one row of the ideal share (a chunk can only
        // overshoot by the row that crosses its boundary).
        for &w in &weights {
            assert!(w <= ideal + max_row, "chunk weight {w} vs ideal {ideal}");
        }
        assert_eq!(weights.iter().sum::<u64>(), g.edge_count());
    }

    #[test]
    fn equal_count_splitting_is_worse_on_skewed_offsets() {
        // One hub with 1000 edges, 99 leaves with 1 edge each.
        let mut offsets = vec![0u64; 101];
        offsets[1] = 1_000;
        for v in 2..=100 {
            offsets[v] = offsets[v - 1] + 1;
        }
        let bounds = balanced_vertex_bounds(&offsets, 4);
        let weights = chunk_weights(&offsets, &bounds);
        // The hub gets a chunk of its own; equal-count splitting would have
        // put it together with 24 leaves.
        assert_eq!(weights[0], 1_000);
        assert_eq!(weights.iter().sum::<u64>(), 1_099);
    }

    #[test]
    fn degree_weighted_chunks_balance_edge_mass_on_skewed_graphs() {
        let g = RmatGenerator::paper(11, 16).generate_cleaned(3).into_csr();
        let parts = 16;
        let n = g.vertex_count();
        let chunk = n.div_ceil(parts);
        let equal_count: Vec<usize> = (0..=parts).map(|j| (j * chunk).min(n)).collect();
        let max_weight =
            |bounds: &[usize]| *chunk_weights(g.offsets(), bounds).iter().max().unwrap();
        let weighted = max_weight(&balanced_vertex_bounds(g.offsets(), parts));
        let statics = max_weight(&equal_count);
        assert!(
            weighted < statics,
            "degree-weighted max chunk {weighted} must beat equal-count {statics} on R-MAT skew"
        );
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(balanced_vertex_bounds(&[0], 4), vec![0, 0, 0, 0, 0]);
        assert_eq!(balanced_vertex_bounds(&[0, 0, 0], 2), vec![0, 0, 2]);
        assert_eq!(balanced_vertex_bounds(&[0, 5], 1), vec![0, 1]);
        assert_eq!(balanced_vertex_bounds(&[0, 5], 0), vec![0, 1]);
    }

    #[test]
    fn intersection_work_prefix_counts_both_row_lengths() {
        // Path 0-1-2: adj(0) = {1}, adj(1) = {0, 2}, adj(2) = {1}.
        // work(0) = deg(0) + deg(1) = 3; work(1) = (2+1) + (2+1) = 6;
        // work(2) = deg(2) + deg(1) = 3.
        let g = crate::CsrGraph::from_edges(
            3,
            &[(0, 1), (1, 0), (1, 2), (2, 1)],
            crate::types::Direction::Undirected,
        );
        let prefix = intersection_work_prefix(g.offsets(), g.adjacencies());
        assert_eq!(prefix, vec![0, 3, 9, 12]);
    }

    #[test]
    fn work_prefix_bounds_equalize_intersection_work() {
        let g = RmatGenerator::paper(10, 8).generate_cleaned(1).into_csr();
        let prefix = intersection_work_prefix(g.offsets(), g.adjacencies());
        let parts = 8;
        let bounds = balanced_prefix_bounds(&prefix, parts);
        let weights: Vec<u64> = bounds
            .windows(2)
            .map(|w| prefix[w[1]] - prefix[w[0]])
            .collect();
        let total = *prefix.last().unwrap();
        assert_eq!(weights.iter().sum::<u64>(), total);
        // No chunk overshoots the ideal share by more than one vertex's work.
        let ideal = total / parts as u64;
        let max_vertex_work = prefix.windows(2).map(|w| w[1] - w[0]).max().unwrap();
        for &w in &weights {
            assert!(w <= ideal + max_vertex_work, "chunk {w} vs ideal {ideal}");
        }
    }

    #[test]
    fn prefix_bounds_match_vertex_bounds_on_the_same_array() {
        let g = RmatGenerator::paper(8, 8).generate_cleaned(2).into_csr();
        assert_eq!(
            balanced_prefix_bounds(g.offsets(), 6),
            balanced_vertex_bounds(g.offsets(), 6)
        );
    }
}
