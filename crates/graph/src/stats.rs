//! Graph statistics used by the evaluation: the degree-skew metric the
//! generators' tests check, and the top-degree contribution curves behind
//! Figure 4.
//!
//! Users: `rmatc-core`'s `reuse` (the Figure 4 curves) and the generators' tests.

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

#[cfg(test)]
mod tests {
    use super::*;

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
}
