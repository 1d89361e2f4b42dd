//! Per-rank and aggregate results of a TriC run, mirroring the shape of
//! [`rmatc_core::DistResult`] so Figure 9/10 harnesses can treat both uniformly.

/// Report of one TriC rank.
#[derive(Debug, Clone, PartialEq)]
pub struct TricRankReport {
    /// Rank id.
    pub rank: usize,
    /// Number of locally owned vertices.
    pub local_vertices: usize,
    /// Neighbour-pair queries this rank sent to other ranks.
    pub queries_sent: u64,
    /// Queries this rank answered for other ranks.
    pub queries_answered: u64,
    /// Positive responses received (each contributes one closed triplet).
    pub responses_received: u64,
    /// Bytes sent (queries + responses).
    pub bytes_sent: u64,
    /// Number of bulk-synchronous exchange rounds this rank participated in.
    pub rounds: u64,
    /// Largest number of queries buffered at once (the memory footprint TriC
    /// Buffered caps).
    pub peak_buffered_queries: u64,
    /// CPU time of query generation, local checks and answering, ns.
    pub compute_ns: f64,
    /// Modeled communication time of the all-to-all exchanges, ns.
    pub comm_ns: f64,
    /// Exchanges whose completion was slowed by an injected straggler delay
    /// (zero on fault-free runs).
    pub delayed_exchanges: u64,
    /// Time spent waiting at the blocking collectives (bulk-synchronous load
    /// imbalance), ns: summed over the supersteps, the gap between the
    /// slowest rank's compute in that superstep and this rank's.
    pub sync_ns: f64,
}

impl TricRankReport {
    /// Total modeled running time of the rank.
    pub fn total_ns(&self) -> f64 {
        self.compute_ns + self.comm_ns + self.sync_ns
    }

    /// Fraction of the total spent in communication plus synchronization.
    pub fn comm_sync_fraction(&self) -> f64 {
        let total = self.total_ns();
        if total == 0.0 {
            0.0
        } else {
            (self.comm_ns + self.sync_ns) / total
        }
    }
}

/// Result of a TriC run.
#[derive(Debug, Clone, PartialEq)]
pub struct TricResult {
    /// LCC score per global vertex.
    pub lcc: Vec<f64>,
    /// Closed-triplet count per global vertex.
    pub per_vertex_triangles: Vec<u64>,
    /// Global triangle count (undirected) or closed-triplet total (directed).
    pub triangle_count: u64,
    /// Per-rank reports.
    pub ranks: Vec<TricRankReport>,
    /// Number of ranks used.
    pub rank_count: usize,
}

impl TricResult {
    /// Running time of the longest-running rank, in nanoseconds.
    pub fn max_rank_time_ns(&self) -> f64 {
        self.ranks.iter().map(|r| r.total_ns()).fold(0.0, f64::max)
    }

    /// Total queries exchanged across ranks.
    pub fn total_queries(&self) -> u64 {
        self.ranks.iter().map(|r| r.queries_sent).sum()
    }

    /// Total bytes sent across ranks.
    pub fn total_bytes(&self) -> u64 {
        self.ranks.iter().map(|r| r.bytes_sent).sum()
    }

    /// Largest per-rank buffered-query peak — the memory pressure the buffered
    /// variant exists to bound.
    pub fn max_peak_buffered_queries(&self) -> u64 {
        self.ranks
            .iter()
            .map(|r| r.peak_buffered_queries)
            .max()
            .unwrap_or(0)
    }

    /// Maximum number of exchange rounds over ranks.
    pub fn rounds(&self) -> u64 {
        self.ranks.iter().map(|r| r.rounds).max().unwrap_or(0)
    }

    /// Total straggler-delayed exchanges across ranks — zero exactly when no
    /// faults were injected.
    pub fn total_delayed_exchanges(&self) -> u64 {
        self.ranks.iter().map(|r| r.delayed_exchanges).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(compute: f64, comm: f64, sync: f64) -> TricRankReport {
        TricRankReport {
            rank: 0,
            local_vertices: 1,
            queries_sent: 10,
            queries_answered: 5,
            responses_received: 3,
            bytes_sent: 120,
            rounds: 2,
            peak_buffered_queries: 10,
            compute_ns: compute,
            comm_ns: comm,
            delayed_exchanges: 0,
            sync_ns: sync,
        }
    }

    #[test]
    fn totals_and_fractions() {
        let r = report(100.0, 200.0, 100.0);
        assert_eq!(r.total_ns(), 400.0);
        assert!((r.comm_sync_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn aggregate_helpers() {
        let result = TricResult {
            lcc: vec![0.0],
            per_vertex_triangles: vec![0],
            triangle_count: 0,
            ranks: vec![report(1.0, 1.0, 1.0), report(5.0, 5.0, 5.0)],
            rank_count: 2,
        };
        assert_eq!(result.max_rank_time_ns(), 15.0);
        assert_eq!(result.total_queries(), 20);
        assert_eq!(result.total_bytes(), 240);
        assert_eq!(result.rounds(), 2);
        assert_eq!(result.max_peak_buffered_queries(), 10);
    }
}
