//! Service-level statistics: admission/outcome counters, the batch planner's
//! dedup accounting, merged RMA and cache counters, and latency percentiles
//! over both timebases.

use rmatc_clampi::CacheStats;
use rmatc_rma::RankStats;

/// Nearest-rank latency percentiles over one timebase, in nanoseconds.
/// All zero when no query has completed yet.
#[derive(Debug, Clone, Copy, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct LatencyPercentiles {
    /// Median latency.
    pub p50_ns: f64,
    /// 90th percentile latency.
    pub p90_ns: f64,
    /// 99th percentile latency.
    pub p99_ns: f64,
    /// Worst observed latency.
    pub max_ns: f64,
}

impl LatencyPercentiles {
    /// Nearest-rank percentiles over `samples` (order-insensitive; the slice
    /// is copied and sorted). Empty input yields all-zero percentiles.
    pub fn from_samples(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return Self::default();
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are not NaN"));
        let at = |p: f64| {
            // Nearest-rank: the smallest sample with at least p of the mass
            // at or below it.
            let rank = (p * sorted.len() as f64).ceil() as usize;
            sorted[rank.clamp(1, sorted.len()) - 1]
        };
        Self {
            p50_ns: at(0.50),
            p90_ns: at(0.90),
            p99_ns: at(0.99),
            max_ns: *sorted.last().expect("non-empty"),
        }
    }
}

/// Point-in-time statistics snapshot of a [`crate::service::QueryEngine`].
///
/// Admission accounting is conservation-based: every submission is counted
/// exactly once as accepted, shed, or rejected, and every accepted query is
/// exactly one of completed, failed, or still queued —
/// [`ServiceStats::reconciles`] checks both identities.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ServiceStats {
    /// Total `submit` calls, including shed and rejected ones.
    pub submitted: u64,
    /// Queries admitted into the queue.
    pub accepted: u64,
    /// Queries shed at admission because the queue was full.
    pub shed_overload: u64,
    /// Queries rejected at admission for naming unknown vertices.
    pub rejected_invalid: u64,
    /// Accepted queries answered successfully.
    pub completed: u64,
    /// Accepted queries that failed (deadline expiry or read failure).
    pub failed: u64,
    /// Accepted queries still waiting in the queue.
    pub queue_depth: usize,
    /// Batch windows executed so far.
    pub batches: u64,
    /// Remote adjacency rows referenced by batch members, before dedup.
    pub row_reads: u64,
    /// Remote adjacency rows actually fetched after sort + dedup.
    pub unique_row_reads: u64,
    /// The engine's virtual clock (modeled communication + measured compute),
    /// in nanoseconds.
    pub virtual_now_ns: f64,
    /// RMA-layer counters merged across all rank endpoints.
    pub rma: RankStats,
    /// Always `None`: there is no offsets cache (a batch reads its rows'
    /// offsets pairs by span, uncached). Kept for callers written against
    /// `C_offsets`.
    pub offsets_cache: Option<CacheStats>,
    /// Adjacency-cache counters merged across ranks (when caching is enabled).
    pub adjacency_cache: Option<CacheStats>,
    /// Latency percentiles in wall-clock time.
    pub wall_latency: LatencyPercentiles,
    /// Latency percentiles in virtual time (the clock deadlines run on).
    pub virtual_latency: LatencyPercentiles,
}

impl ServiceStats {
    /// Requested-reads / unique-fetches quotient of the batch planner: how
    /// many times each fetched row was used within its batch window, on
    /// average. 1.0 means no overlap (or no remote reads at all); hub-heavy
    /// batches push this well above 1.
    pub fn dedup_ratio(&self) -> f64 {
        if self.unique_row_reads == 0 {
            1.0
        } else {
            self.row_reads as f64 / self.unique_row_reads as f64
        }
    }

    /// Adjacency-cache hit rate across ranks, when caching is enabled.
    pub fn cache_hit_rate(&self) -> Option<f64> {
        self.adjacency_cache.as_ref().map(|c| c.hit_rate())
    }

    /// The conservation identities: `submitted = accepted + shed + rejected`
    /// and `accepted = completed + failed + queued`. Holds at every point in
    /// the engine's lifetime — no query is ever silently dropped.
    pub fn reconciles(&self) -> bool {
        self.submitted == self.accepted + self.shed_overload + self.rejected_invalid
            && self.accepted == self.completed + self.failed + self.queue_depth as u64
    }
}
