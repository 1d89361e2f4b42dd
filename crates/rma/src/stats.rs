//! Per-rank communication statistics.
//!
//! The evaluation reasons almost entirely in these terms: number of remote reads,
//! bytes moved, modeled communication time, and how those change with caching and
//! with the number of ranks.

/// Statistics accumulated by one rank's [`crate::Endpoint`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankStats {
    /// Number of RMA get operations issued.
    pub gets: u64,
    /// Total bytes transferred by gets.
    pub bytes: u64,
    /// Modeled communication time in nanoseconds (after overlap credit).
    pub comm_time_ns: f64,
    /// Modeled communication time that was hidden behind computation
    /// (the double-buffering benefit).
    pub overlapped_ns: f64,
    /// Number of flush operations.
    pub flushes: u64,
    /// Number of local (cache or owner-side) reads served without a network get.
    pub local_reads: u64,
    /// Modeled time spent on those local reads, in nanoseconds.
    pub local_time_ns: f64,
    /// Gets per target rank.
    pub gets_per_target: Vec<u64>,
    /// Bytes per target rank.
    pub bytes_per_target: Vec<u64>,
    /// Get attempts that were retried after a fault.
    pub retries: u64,
    /// Get attempts that failed at issue time (dropped/NACKed messages).
    pub transient_failures: u64,
    /// Get completions that exceeded the retry policy's timeout (stragglers
    /// that were reissued).
    pub timeouts: u64,
    /// Transfers (or cache hits) whose checksum did not match the source stamp.
    pub checksum_failures: u64,
    /// Get completions that were slowed by an injected straggler delay but
    /// finished within the timeout.
    pub delayed_gets: u64,
    /// Modeled nanoseconds spent in retry backoff (charged to `comm_time_ns`
    /// as well; tracked separately so reports can attribute it).
    pub backoff_ns: f64,
    /// Cache entries invalidated after failing checksum verification.
    pub cache_invalidations: u64,
    /// Cache inserts refused by an injected rejection.
    pub cache_rejections: u64,
    /// Reads served by the plain two-get path because the cache was
    /// quarantined (degraded, non-cached mode).
    pub cache_bypass_reads: u64,
}

impl RankStats {
    /// Creates empty statistics sized for `ranks` targets.
    pub fn new(ranks: usize) -> Self {
        Self {
            gets_per_target: vec![0; ranks],
            bytes_per_target: vec![0; ranks],
            ..Default::default()
        }
    }

    /// Records an issued get of `bytes` bytes towards `target`.
    pub fn record_get(&mut self, target: usize, bytes: usize) {
        self.gets += 1;
        self.bytes += bytes as u64;
        if target < self.gets_per_target.len() {
            self.gets_per_target[target] += 1;
            self.bytes_per_target[target] += bytes as u64;
        }
    }

    /// Records the charged (non-overlapped) and overlapped portions of a completed get.
    pub fn record_completion(&mut self, charged_ns: f64, overlapped_ns: f64) {
        self.comm_time_ns += charged_ns;
        self.overlapped_ns += overlapped_ns;
    }

    /// Records a read served locally (cache hit or owner-local access).
    pub fn record_local(&mut self, cost_ns: f64) {
        self.local_reads += 1;
        self.local_time_ns += cost_ns;
    }

    /// Total fault events this rank observed (zero on a fault-free run).
    pub fn fault_events(&self) -> u64 {
        self.retries
            + self.transient_failures
            + self.timeouts
            + self.checksum_failures
            + self.delayed_gets
            + self.cache_invalidations
            + self.cache_rejections
            + self.cache_bypass_reads
    }

    /// Merges another rank's statistics into this one (used for aggregation).
    pub fn merge(&mut self, other: &RankStats) {
        self.gets += other.gets;
        self.bytes += other.bytes;
        self.comm_time_ns += other.comm_time_ns;
        self.overlapped_ns += other.overlapped_ns;
        self.flushes += other.flushes;
        self.local_reads += other.local_reads;
        self.local_time_ns += other.local_time_ns;
        self.retries += other.retries;
        self.transient_failures += other.transient_failures;
        self.timeouts += other.timeouts;
        self.checksum_failures += other.checksum_failures;
        self.delayed_gets += other.delayed_gets;
        self.backoff_ns += other.backoff_ns;
        self.cache_invalidations += other.cache_invalidations;
        self.cache_rejections += other.cache_rejections;
        self.cache_bypass_reads += other.cache_bypass_reads;
        if self.gets_per_target.len() < other.gets_per_target.len() {
            self.gets_per_target.resize(other.gets_per_target.len(), 0);
            self.bytes_per_target
                .resize(other.bytes_per_target.len(), 0);
        }
        for (i, &g) in other.gets_per_target.iter().enumerate() {
            self.gets_per_target[i] += g;
        }
        for (i, &b) in other.bytes_per_target.iter().enumerate() {
            self.bytes_per_target[i] += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_get_tracks_per_target_counts() {
        let mut s = RankStats::new(4);
        s.record_get(1, 100);
        s.record_get(1, 50);
        s.record_get(3, 8);
        assert_eq!(s.gets, 3);
        assert_eq!(s.bytes, 158);
        assert_eq!(s.gets_per_target, vec![0, 2, 0, 1]);
        assert_eq!(s.bytes_per_target, vec![0, 150, 0, 8]);
    }

    #[test]
    fn completion_splits_charged_and_overlapped() {
        let mut s = RankStats::new(1);
        s.record_completion(1_000.0, 500.0);
        assert_eq!(s.comm_time_ns, 1_000.0);
        assert_eq!(s.overlapped_ns, 500.0);
    }

    #[test]
    fn merge_combines_all_fields() {
        let mut a = RankStats::new(2);
        a.record_get(0, 10);
        a.record_local(5.0);
        let mut b = RankStats::new(2);
        b.record_get(1, 20);
        b.record_completion(100.0, 0.0);
        a.merge(&b);
        assert_eq!(a.gets, 2);
        assert_eq!(a.bytes, 30);
        assert_eq!(a.local_reads, 1);
        assert_eq!(a.gets_per_target, vec![1, 1]);
        assert_eq!(a.comm_time_ns, 100.0);
    }

    #[test]
    fn merge_handles_different_target_widths() {
        let mut a = RankStats::new(1);
        let mut b = RankStats::new(3);
        b.record_get(2, 8);
        a.merge(&b);
        assert_eq!(a.gets_per_target, vec![0, 0, 1]);
    }

    #[test]
    fn fault_counters_merge_and_aggregate() {
        let mut a = RankStats::new(2);
        a.retries = 2;
        a.transient_failures = 1;
        a.backoff_ns = 3_000.0;
        let mut b = RankStats::new(2);
        b.timeouts = 1;
        b.checksum_failures = 4;
        b.delayed_gets = 2;
        b.cache_invalidations = 1;
        b.cache_rejections = 3;
        b.cache_bypass_reads = 5;
        assert_eq!(a.fault_events(), 3);
        assert_eq!(b.fault_events(), 16);
        a.merge(&b);
        assert_eq!(a.fault_events(), 19);
        assert_eq!(a.backoff_ns, 3_000.0);
        assert_eq!(RankStats::new(2).fault_events(), 0);
    }
}
