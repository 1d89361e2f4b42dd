//! Remote-access data-reuse analysis.
//!
//! Figures 1 (right), 4 and 5 of the paper characterise *why* caching RMA gets pays
//! off for LCC: under 1D partitioning the number of times a vertex's adjacency list
//! is read remotely equals its remote in-degree, so in power-law graphs a small set
//! of hub vertices receives most of the remote reads. This module computes those
//! quantities directly from a partitioned graph, without running the full algorithm.

use rmatc_graph::partition::PartitionedGraph;
use rmatc_graph::stats::{self, SkewPoint};
use rmatc_graph::types::VertexId;

/// Number of remote reads that target each global vertex across all ranks: for every
/// directed edge `(u, v)` whose endpoints live on different ranks, the owner of `u`
/// performs one remote adjacency read of `v`.
pub fn remote_read_counts(pg: &PartitionedGraph) -> Vec<u64> {
    let mut counts = vec![0u64; pg.global_vertex_count()];
    for part in &pg.partitions {
        for (local_idx, _) in part.global_ids.iter().enumerate() {
            for &v in part.neighbours_of_local(local_idx) {
                if pg.partitioner.owner(v) != part.rank {
                    counts[v as usize] += 1;
                }
            }
        }
    }
    counts
}

/// Remote reads issued by a single rank, per target vertex — the Figure 1 (right)
/// view ("remote reads issued by rank 0, two nodes").
pub fn remote_read_counts_from_rank(pg: &PartitionedGraph, rank: usize) -> Vec<u64> {
    let mut counts = vec![0u64; pg.global_vertex_count()];
    let part = &pg.partitions[rank];
    for (local_idx, _) in part.global_ids.iter().enumerate() {
        for &v in part.neighbours_of_local(local_idx) {
            if pg.partitioner.owner(v) != rank {
                counts[v as usize] += 1;
            }
        }
    }
    counts
}

/// One bar of the Figure 1 (right) histogram: `reads` distinct remote regions were
/// each read `repetitions` times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepetitionBucket {
    /// Number of times a region was read.
    pub repetitions: u64,
    /// How many distinct regions were read exactly that many times.
    pub reads: u64,
}

/// Histogram of read repetitions: for each repetition count, the number of distinct
/// vertices whose adjacency list was remotely read exactly that many times.
pub fn repetition_histogram(counts: &[u64]) -> Vec<RepetitionBucket> {
    let mut map = std::collections::BTreeMap::new();
    for &c in counts {
        if c > 0 {
            *map.entry(c).or_insert(0u64) += 1;
        }
    }
    map.into_iter()
        .map(|(repetitions, reads)| RepetitionBucket { repetitions, reads })
        .collect()
}

/// Fraction of remote reads that are *repeated* (would hit an infinite cache):
/// `1 − distinct regions / total reads`.
pub fn reuse_fraction(counts: &[u64]) -> f64 {
    let total: u64 = counts.iter().sum();
    let distinct = counts.iter().filter(|&&c| c > 0).count() as u64;
    if total == 0 {
        0.0
    } else {
        1.0 - distinct as f64 / total as f64
    }
}

/// The Figure 4 curve for a partitioned graph: cumulative fraction of remote reads
/// against the fraction of (most-read) vertices.
pub fn contribution_curve(pg: &PartitionedGraph) -> Vec<SkewPoint> {
    stats::top_degree_contribution(&remote_read_counts(pg))
}

/// The headline number highlighted in Figure 4: fraction of remote reads that target
/// the top `top` fraction (0.1 in the paper) of the most-read vertices.
pub fn top_fraction_share(pg: &PartitionedGraph, top: f64) -> f64 {
    stats::fraction_of_reads_to_top(&remote_read_counts(pg), top)
}

/// One point of Figure 5: a remotely accessed vertex's degree, how many times it is
/// read, and the size its adjacency list occupies as a `C_adj` entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VertexReuse {
    /// Global vertex id.
    pub vertex: VertexId,
    /// Out-degree of the vertex (also the length of the cached entry).
    pub degree: u32,
    /// Number of remote reads targeting it.
    pub remote_reads: u64,
    /// Size of its adjacency list in bytes (the `C_adj` entry size).
    pub entry_bytes: u64,
}

/// Per-vertex reuse records for all vertices that are remotely read at least once,
/// sorted by descending read count (Figure 5's scatter data).
pub fn vertex_reuse(pg: &PartitionedGraph) -> Vec<VertexReuse> {
    let counts = remote_read_counts(pg);
    let mut out = Vec::new();
    for (v, &reads) in counts.iter().enumerate() {
        if reads == 0 {
            continue;
        }
        let owner = pg.partitioner.owner(v as VertexId);
        let local = pg.partitioner.local_index(v as VertexId);
        let degree = pg.partitions[owner].csr.degree(local as u32);
        out.push(VertexReuse {
            vertex: v as VertexId,
            degree,
            remote_reads: reads,
            entry_bytes: degree as u64 * std::mem::size_of::<VertexId>() as u64,
        });
    }
    out.sort_by_key(|r| std::cmp::Reverse(r.remote_reads));
    out
}

/// Pearson correlation between vertex degree and remote-read count — Observation 3.1
/// of the paper ("the number of accesses to a vertex correlates with its degree").
pub fn degree_read_correlation(records: &[VertexReuse]) -> f64 {
    if records.len() < 2 {
        return 0.0;
    }
    let n = records.len() as f64;
    let mean_d = records.iter().map(|r| r.degree as f64).sum::<f64>() / n;
    let mean_r = records.iter().map(|r| r.remote_reads as f64).sum::<f64>() / n;
    let mut cov = 0.0;
    let mut var_d = 0.0;
    let mut var_r = 0.0;
    for r in records {
        let dd = r.degree as f64 - mean_d;
        let dr = r.remote_reads as f64 - mean_r;
        cov += dd * dr;
        var_d += dd * dd;
        var_r += dr * dr;
    }
    if var_d == 0.0 || var_r == 0.0 {
        return 0.0;
    }
    cov / (var_d.sqrt() * var_r.sqrt())
}

/// Expected remote reads of a vertex with remote in-degree `deg_in` under `p` ranks
/// with random vertex placement, per the paper's estimate `(deg⁻(v) − p) / p`
/// (clamped at zero).
pub fn expected_remote_reads(deg_in: u32, p: usize) -> f64 {
    ((deg_in as f64 - p as f64) / p as f64).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmatc_graph::datasets::{Dataset, DatasetScale};
    use rmatc_graph::gen::{GraphGenerator, RmatGenerator, UniformRandom};
    use rmatc_graph::partition::{PartitionScheme, PartitionedGraph};

    fn partitioned(ds: Dataset, ranks: usize) -> PartitionedGraph {
        let g = ds.generate(DatasetScale::Tiny, 1);
        PartitionedGraph::from_global(&g, PartitionScheme::Block1D, ranks).unwrap()
    }

    #[test]
    fn counts_equal_remote_in_degree() {
        let g = RmatGenerator::paper(8, 8).generate_cleaned(2).into_csr();
        let pg = PartitionedGraph::from_global(&g, PartitionScheme::Block1D, 4).unwrap();
        let counts = remote_read_counts(&pg);
        // Cross-check one vertex by brute force.
        let v = counts
            .iter()
            .enumerate()
            .max_by_key(|(_, &c)| c)
            .map(|(i, _)| i)
            .unwrap() as u32;
        let mut expected = 0u64;
        for (u, w) in g.edges() {
            if w == v && pg.partitioner.owner(u) != pg.partitioner.owner(v) {
                expected += 1;
            }
        }
        assert_eq!(counts[v as usize], expected);
        // Totals match the sum of per-rank views.
        let per_rank_total: u64 = (0..4)
            .map(|r| remote_read_counts_from_rank(&pg, r).iter().sum::<u64>())
            .sum();
        assert_eq!(counts.iter().sum::<u64>(), per_rank_total);
    }

    #[test]
    fn single_rank_has_no_remote_reads() {
        let g = RmatGenerator::paper(8, 8).generate_cleaned(3).into_csr();
        let pg = PartitionedGraph::from_global(&g, PartitionScheme::Block1D, 1).unwrap();
        assert!(remote_read_counts(&pg).iter().all(|&c| c == 0));
        assert_eq!(reuse_fraction(&remote_read_counts(&pg)), 0.0);
    }

    #[test]
    fn histogram_counts_match_totals() {
        let counts = vec![0, 1, 1, 3, 3, 3, 7];
        let hist = repetition_histogram(&counts);
        assert_eq!(
            hist,
            vec![
                RepetitionBucket {
                    repetitions: 1,
                    reads: 2
                },
                RepetitionBucket {
                    repetitions: 3,
                    reads: 3
                },
                RepetitionBucket {
                    repetitions: 7,
                    reads: 1
                },
            ]
        );
        let total_reads: u64 = hist.iter().map(|b| b.repetitions * b.reads).sum();
        assert_eq!(total_reads, counts.iter().sum::<u64>());
    }

    #[test]
    fn facebook_like_graph_shows_reuse_on_two_nodes() {
        // Figure 1 (right): the Facebook-circles graph on two nodes shows substantial
        // repeated remote reads.
        let pg = partitioned(Dataset::FacebookCircles, 2);
        let counts = remote_read_counts_from_rank(&pg, 0);
        let frac = reuse_fraction(&counts);
        assert!(frac > 0.3, "expected significant data reuse, got {frac}");
        assert!(repetition_histogram(&counts)
            .iter()
            .any(|b| b.repetitions >= 4));
    }

    #[test]
    fn skewed_graphs_concentrate_reads_on_top_vertices() {
        // Figure 4: power-law graphs send most remote reads to the top 10% of
        // vertices, uniform graphs do not.
        let skewed = partitioned(Dataset::Orkut, 8);
        let uniform_graph = UniformRandom::undirected(2_000, 2_000 * 16)
            .generate_cleaned(1)
            .into_csr();
        let uniform =
            PartitionedGraph::from_global(&uniform_graph, PartitionScheme::Block1D, 8).unwrap();
        let share_skewed = top_fraction_share(&skewed, 0.1);
        let share_uniform = top_fraction_share(&uniform, 0.1);
        assert!(
            share_skewed > share_uniform + 0.1,
            "skewed {share_skewed} must exceed uniform {share_uniform}"
        );
        assert!(
            share_uniform < 0.4,
            "uniform graphs have little concentration"
        );
    }

    #[test]
    fn contribution_curve_is_monotone() {
        let pg = partitioned(Dataset::LiveJournal, 4);
        let curve = contribution_curve(&pg);
        assert!(!curve.is_empty());
        assert!(curve
            .windows(2)
            .all(|w| w[0].read_fraction <= w[1].read_fraction + 1e-12));
        assert!((curve.last().unwrap().read_fraction - 1.0).abs() < 1e-9);
    }

    #[test]
    fn reuse_records_correlate_degree_and_reads() {
        // Observation 3.1 / Figure 5: entry reuse correlates with entry size (degree).
        let pg = partitioned(Dataset::FacebookCircles, 2);
        let records = vertex_reuse(&pg);
        assert!(!records.is_empty());
        for r in &records {
            assert_eq!(r.entry_bytes, r.degree as u64 * 4);
        }
        let corr = degree_read_correlation(&records);
        assert!(
            corr > 0.5,
            "degree and remote reads must correlate strongly, got {corr}"
        );
    }

    #[test]
    fn expected_remote_reads_formula() {
        assert_eq!(expected_remote_reads(100, 4), 24.0);
        assert_eq!(expected_remote_reads(2, 4), 0.0);
    }

    #[test]
    fn degenerate_correlation_inputs() {
        assert_eq!(degree_read_correlation(&[]), 0.0);
        let one = vec![VertexReuse {
            vertex: 0,
            degree: 5,
            remote_reads: 2,
            entry_bytes: 20,
        }];
        assert_eq!(degree_read_correlation(&one), 0.0);
    }
}
