//! Assembly of per-rank worker outputs into the global result, and the per-rank
//! reports (timing breakdown, communication and cache statistics) that the
//! evaluation figures are built from.

use super::pipeline::RankOutput;
use crate::lcc;
use rmatc_clampi::CacheStats;
use rmatc_graph::partition::PartitionedGraph;
use rmatc_rma::RankStats;

/// Timing breakdown of one rank, combining measured computation with modeled
/// communication (see the crate documentation of [`rmatc_rma`] for the model).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TimingBreakdown {
    /// CPU time of the rank's edge loop, in nanoseconds.
    pub compute_ns: f64,
    /// Modeled (charged, non-overlapped) communication time, in nanoseconds.
    pub comm_ns: f64,
    /// Modeled time of local reads and cache hits, in nanoseconds.
    pub local_ns: f64,
    /// Modeled communication time hidden behind computation by double buffering.
    pub overlapped_ns: f64,
}

impl TimingBreakdown {
    /// Total modeled running time of the rank.
    pub fn total_ns(&self) -> f64 {
        self.compute_ns + self.comm_ns + self.local_ns
    }

    /// Fraction of the total spent in (non-overlapped) communication.
    pub fn comm_fraction(&self) -> f64 {
        let total = self.total_ns();
        if total == 0.0 {
            0.0
        } else {
            self.comm_ns / total
        }
    }
}

/// Report of one rank's run.
#[derive(Debug, Clone, PartialEq)]
pub struct RankReport {
    /// Rank id.
    pub rank: usize,
    /// Number of locally owned vertices.
    pub local_vertices: usize,
    /// Directed edges processed.
    pub edges_processed: u64,
    /// Edges that required a remote read.
    pub remote_edges: u64,
    /// Timing breakdown.
    pub timing: TimingBreakdown,
    /// RMA statistics.
    pub rma: RankStats,
    /// Adjacency-cache statistics, when enabled.
    pub adjacency_cache: Option<CacheStats>,
}

impl RankReport {
    /// Average modeled time per remote read issued by this rank, in nanoseconds —
    /// the y-axis of Figure 8 (left).
    pub fn avg_remote_read_ns(&self) -> f64 {
        let reads = self.remote_edges.max(1);
        (self.timing.comm_ns + self.timing.overlapped_ns + self.timing.local_ns) / reads as f64
    }
}

/// Result of a distributed run.
#[derive(Debug, Clone, PartialEq)]
pub struct DistResult {
    /// LCC score of every global vertex.
    pub lcc: Vec<f64>,
    /// Closed-triplet count of every global vertex.
    pub per_vertex_triangles: Vec<u64>,
    /// Global triangle count (undirected) or closed-triplet total (directed).
    pub triangle_count: u64,
    /// Per-rank reports.
    pub ranks: Vec<RankReport>,
    /// Fraction of directed edges with endpoints on different ranks.
    pub remote_edge_fraction: f64,
    /// Number of ranks used.
    pub rank_count: usize,
}

impl DistResult {
    /// The paper reports "the median of the longest-running node": the running time
    /// of a configuration is the maximum total time over its ranks.
    pub fn max_rank_time_ns(&self) -> f64 {
        self.ranks
            .iter()
            .map(|r| r.timing.total_ns())
            .fold(0.0, f64::max)
    }

    /// Maximum modeled communication time over ranks.
    pub fn max_comm_time_ns(&self) -> f64 {
        self.ranks
            .iter()
            .map(|r| r.timing.comm_ns)
            .fold(0.0, f64::max)
    }

    /// Total RMA gets across ranks.
    pub fn total_gets(&self) -> u64 {
        self.ranks.iter().map(|r| r.rma.gets).sum()
    }

    /// Total bytes moved across ranks.
    pub fn total_bytes(&self) -> u64 {
        self.ranks.iter().map(|r| r.rma.bytes).sum()
    }

    /// Total injected-fault events observed across ranks (retries, transient
    /// failures, timeouts, checksum failures, delays, cache invalidations/
    /// rejections/bypasses). Zero on fault-free runs — the chaos suite uses
    /// this to prove counters fire exactly when faults are injected.
    pub fn total_fault_events(&self) -> u64 {
        self.ranks.iter().map(|r| r.rma.fault_events()).sum()
    }

    /// Total cache hits (all ranks).
    pub fn cache_hits(&self) -> u64 {
        self.ranks
            .iter()
            .filter_map(|r| r.adjacency_cache.as_ref())
            .map(|c| c.hits)
            .sum()
    }

    /// Aggregated adjacency-cache statistics across ranks (Figure 7/8 report the
    /// adjacency cache's miss rate).
    pub fn adjacency_cache_totals(&self) -> Option<CacheStats> {
        CacheStats::merged(self.ranks.iter().filter_map(|r| r.adjacency_cache.as_ref()))
    }

    /// Always `None`: there is no offsets cache — a rank copies each owner's
    /// offsets window once. Kept for callers written against `C_offsets`.
    pub fn offsets_cache_totals(&self) -> Option<CacheStats> {
        None
    }

    /// Aggregate logical-to-stored byte ratio of the adjacency rows that
    /// crossed the network on cache misses — the measured win of
    /// [`rmatc_graph::GraphStorage::Compressed`]. `1.0` under plain storage,
    /// without a cache, or before any miss.
    pub fn transfer_compression_ratio(&self) -> f64 {
        self.adjacency_cache_totals()
            .map(|c| c.compression_ratio())
            .unwrap_or(1.0)
    }

    /// Load imbalance: maximum rank time divided by the mean rank time.
    pub fn time_imbalance(&self) -> f64 {
        let times: Vec<f64> = self.ranks.iter().map(|r| r.timing.total_ns()).collect();
        let mean = times.iter().sum::<f64>() / times.len().max(1) as f64;
        if mean == 0.0 {
            1.0
        } else {
            self.max_rank_time_ns() / mean
        }
    }

    /// Average LCC across all vertices.
    pub fn average_lcc(&self) -> f64 {
        lcc::average(&self.lcc)
    }
}

/// Combines the worker outputs of every rank, in rank order
/// ([`super::worker::run_worker`]), into the global [`DistResult`].
pub fn assemble(pg: &PartitionedGraph, outputs: Vec<RankOutput<u64>>) -> DistResult {
    let lcc::VertexCounts {
        per_vertex_triangles,
        lcc,
        triangle_count,
    } = lcc::VertexCounts::gather(pg, outputs.iter().map(|out| out.items.as_slice()));
    let mut ranks = Vec::with_capacity(outputs.len());
    for (rank, out) in outputs.into_iter().enumerate() {
        let part = &pg.partitions[rank];
        ranks.push(RankReport {
            rank,
            local_vertices: part.local_vertex_count(),
            edges_processed: out.edges_processed,
            remote_edges: out.remote_edges,
            timing: TimingBreakdown {
                compute_ns: out.compute_ns as f64,
                comm_ns: out.rma.comm_time_ns,
                local_ns: out.rma.local_time_ns,
                overlapped_ns: out.rma.overlapped_ns,
            },
            rma: out.rma,
            adjacency_cache: out.adjacency_cache,
        });
    }
    // Every rank walked each of its stored edges once and counted the remote
    // ones: the same two sums `PartitionedGraph::remote_edge_fraction` walks
    // the partitions again for.
    let edges: u64 = ranks.iter().map(|r| r.edges_processed).sum();
    let remote: u64 = ranks.iter().map(|r| r.remote_edges).sum();
    DistResult {
        lcc,
        per_vertex_triangles,
        triangle_count,
        remote_edge_fraction: if edges == 0 {
            0.0
        } else {
            remote as f64 / edges as f64
        },
        rank_count: pg.ranks(),
        ranks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(rank: usize, compute: f64, comm: f64) -> RankReport {
        RankReport {
            rank,
            local_vertices: 10,
            edges_processed: 100,
            remote_edges: 50,
            timing: TimingBreakdown {
                compute_ns: compute,
                comm_ns: comm,
                local_ns: 0.0,
                overlapped_ns: 0.0,
            },
            rma: RankStats::new(2),
            adjacency_cache: None,
        }
    }

    fn result(ranks: Vec<RankReport>) -> DistResult {
        DistResult {
            lcc: vec![0.5; 4],
            per_vertex_triangles: vec![1; 4],
            triangle_count: 1,
            rank_count: ranks.len(),
            remote_edge_fraction: 0.5,
            ranks,
        }
    }

    #[test]
    fn timing_breakdown_totals_and_fractions() {
        let t = TimingBreakdown {
            compute_ns: 100.0,
            comm_ns: 300.0,
            local_ns: 0.0,
            overlapped_ns: 50.0,
        };
        assert_eq!(t.total_ns(), 400.0);
        assert!((t.comm_fraction() - 0.75).abs() < 1e-12);
        assert_eq!(TimingBreakdown::default().comm_fraction(), 0.0);
    }

    #[test]
    fn max_rank_time_is_the_longest_running_node() {
        let r = result(vec![report(0, 100.0, 200.0), report(1, 100.0, 900.0)]);
        assert_eq!(r.max_rank_time_ns(), 1_000.0);
        assert_eq!(r.max_comm_time_ns(), 900.0);
        assert!((r.time_imbalance() - 1_000.0 / 650.0).abs() < 1e-9);
    }

    #[test]
    fn average_remote_read_time_handles_zero_reads() {
        let mut rep = report(0, 1.0, 10.0);
        rep.remote_edges = 0;
        assert_eq!(rep.avg_remote_read_ns(), 10.0);
    }

    #[test]
    fn cache_totals_absent_when_no_cache() {
        let r = result(vec![report(0, 1.0, 1.0)]);
        assert!(r.adjacency_cache_totals().is_none());
        assert!(r.offsets_cache_totals().is_none());
        assert_eq!(r.cache_hits(), 0);
    }

    #[test]
    fn cache_totals_merge_across_ranks() {
        let mut a = report(0, 1.0, 1.0);
        a.adjacency_cache = Some(CacheStats {
            hits: 5,
            misses: 5,
            ..Default::default()
        });
        let mut b = report(1, 1.0, 1.0);
        b.adjacency_cache = Some(CacheStats {
            hits: 15,
            misses: 5,
            ..Default::default()
        });
        let r = result(vec![a, b]);
        let totals = r.adjacency_cache_totals().unwrap();
        assert_eq!(totals.hits, 20);
        assert!((totals.hit_rate() - 20.0 / 30.0).abs() < 1e-12);
        assert_eq!(r.cache_hits(), 20);
    }

    #[test]
    fn average_lcc_is_mean_of_scores() {
        let r = result(vec![report(0, 1.0, 1.0)]);
        assert!((r.average_lcc() - 0.5).abs() < 1e-12);
    }
}
