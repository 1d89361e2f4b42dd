//! Cache statistics: the quantities plotted in Figures 7 and 8 of the paper
//! (miss rates, compulsory misses) plus evictions by cause, byte traffic and
//! the self-healing path's counters.

/// Counters kept by one CLaMPI cache instance.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CacheStats {
    /// Lookups that found the requested region in the cache.
    pub hits: u64,
    /// Lookups that did not (for any reason).
    pub misses: u64,
    /// Misses on keys never requested before — unavoidable ("compulsory") misses,
    /// shown as the grey area in Figures 7 and 8.
    pub compulsory_misses: u64,
    /// Evictions performed because the memory buffer had no suitable free region.
    pub capacity_evictions: u64,
    /// Evictions performed because the hash-table slot was already occupied.
    pub conflict_evictions: u64,
    /// Misses whose data could not be inserted (e.g. entry larger than the buffer).
    pub uncacheable: u64,
    /// Bytes served from the cache.
    pub bytes_from_cache: u64,
    /// Bytes fetched over the network (misses).
    pub bytes_from_network: u64,
    /// Number of times the cache was flushed (explicit flushes, including the
    /// one that quarantines a cache).
    pub flushes: u64,
    /// Entries removed because their data failed checksum verification.
    pub invalidations: u64,
    /// Bytes freed by chosen evictions (capacity and conflict victims;
    /// flushes and invalidations are not victim selections and do not count).
    /// Together with `bytes_from_network` this attributes byte churn to the
    /// score rule in the score-rule bench.
    pub evicted_bytes: u64,
    /// Inserts the application-score admission rule refused (counted within
    /// `uncacheable`, which keeps its meaning of "miss whose data was not
    /// stored").
    pub admission_rejections: u64,
    /// Decoded (logical) bytes represented by the compressed rows transferred
    /// on adjacency misses — what a plain-storage run would have moved for the
    /// same reads. Zero unless the window stores compressed rows
    /// (`GraphStorage::Compressed` in `rmatc-core`).
    pub logical_bytes: u64,
    /// Stored (compressed) bytes actually transferred and cached for those
    /// same rows. Together with `logical_bytes` this measures the compression
    /// win end to end: entries occupy `stored_bytes` of cache capacity while
    /// standing in for `logical_bytes` of adjacency data.
    pub stored_bytes: u64,
}

impl CacheStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in `[0, 1]`; `0` when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }

    /// Miss rate in `[0, 1]`.
    pub fn miss_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.misses as f64 / self.lookups() as f64
        }
    }

    /// Miss rate in parts per million, rounded — an integer form stable enough
    /// for deterministic benchmark metric rows and threshold gates.
    pub fn miss_rate_ppm(&self) -> u64 {
        (self.miss_rate() * 1e6).round() as u64
    }

    /// Fraction of lookups that are compulsory misses — the floor below which no
    /// cache configuration can push the miss rate.
    pub fn compulsory_miss_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.compulsory_misses as f64 / self.lookups() as f64
        }
    }

    /// Total evictions.
    pub fn evictions(&self) -> u64 {
        self.capacity_evictions + self.conflict_evictions
    }

    /// Logical-to-stored ratio of the compressed rows that moved through the
    /// cache (`1.0` when nothing compressed was recorded — a plain-storage
    /// run neither wins nor loses).
    pub fn compression_ratio(&self) -> f64 {
        if self.stored_bytes == 0 {
            1.0
        } else {
            self.logical_bytes as f64 / self.stored_bytes as f64
        }
    }

    /// Records one compressed row moving through the cache: `logical` decoded
    /// bytes stored as `stored` compressed bytes.
    pub fn record_compression(&mut self, logical: u64, stored: u64) {
        self.logical_bytes += logical;
        self.stored_bytes += stored;
    }

    /// Merges another set of counters into this one.
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.compulsory_misses += other.compulsory_misses;
        self.capacity_evictions += other.capacity_evictions;
        self.conflict_evictions += other.conflict_evictions;
        self.uncacheable += other.uncacheable;
        self.bytes_from_cache += other.bytes_from_cache;
        self.bytes_from_network += other.bytes_from_network;
        self.flushes += other.flushes;
        self.invalidations += other.invalidations;
        self.evicted_bytes += other.evicted_bytes;
        self.admission_rejections += other.admission_rejections;
        self.logical_bytes += other.logical_bytes;
        self.stored_bytes += other.stored_bytes;
    }

    /// The sum of `all`, or `None` when it is empty. Every counter is
    /// additive, so the sum of one is its clone.
    pub fn merged<'a>(all: impl IntoIterator<Item = &'a CacheStats>) -> Option<CacheStats> {
        let mut all = all.into_iter();
        let mut sum = all.next()?.clone();
        all.for_each(|stats| sum.merge(stats));
        Some(sum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_handle_zero_lookups() {
        let s = CacheStats::default();
        assert_eq!(s.hit_rate(), 0.0);
        assert_eq!(s.miss_rate(), 0.0);
        assert_eq!(s.compulsory_miss_rate(), 0.0);
    }

    #[test]
    fn rates_sum_to_one() {
        let s = CacheStats {
            hits: 30,
            misses: 70,
            compulsory_misses: 20,
            ..Default::default()
        };
        assert!((s.hit_rate() + s.miss_rate() - 1.0).abs() < 1e-12);
        assert!((s.compulsory_miss_rate() - 0.2).abs() < 1e-12);
        assert_eq!(s.lookups(), 100);
    }

    #[test]
    fn evictions_sum_both_kinds() {
        let s = CacheStats {
            capacity_evictions: 3,
            conflict_evictions: 4,
            ..Default::default()
        };
        assert_eq!(s.evictions(), 7);
    }

    #[test]
    fn merge_adds_all_counters() {
        let mut a = CacheStats {
            hits: 1,
            misses: 2,
            bytes_from_cache: 10,
            ..Default::default()
        };
        let b = CacheStats {
            hits: 5,
            misses: 1,
            bytes_from_network: 3,
            flushes: 1,
            evicted_bytes: 7,
            admission_rejections: 2,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.hits, 6);
        assert_eq!(a.misses, 3);
        assert_eq!(a.bytes_from_cache, 10);
        assert_eq!(a.bytes_from_network, 3);
        assert_eq!(a.flushes, 1);
        assert_eq!(a.evicted_bytes, 7);
        assert_eq!(a.admission_rejections, 2);
    }

    #[test]
    fn merged_is_none_for_no_stats_and_sums_the_rest() {
        assert_eq!(CacheStats::merged([]), None);
        let a = CacheStats {
            hits: 4,
            misses: 2,
            evicted_bytes: 64,
            stored_bytes: 8,
            ..Default::default()
        };
        assert_eq!(CacheStats::merged([&a]), Some(a.clone()));
        let b = CacheStats {
            hits: 1,
            compulsory_misses: 3,
            evicted_bytes: 16,
            logical_bytes: 5,
            ..Default::default()
        };
        let sum = CacheStats::merged([&a, &b]).unwrap();
        assert_eq!(
            sum,
            CacheStats {
                hits: 5,
                misses: 2,
                compulsory_misses: 3,
                evicted_bytes: 80,
                logical_bytes: 5,
                stored_bytes: 8,
                ..Default::default()
            }
        );
    }

    #[test]
    fn compression_ratio_defaults_to_one_and_accumulates() {
        let mut s = CacheStats::default();
        assert_eq!(s.compression_ratio(), 1.0, "plain runs record nothing");
        s.record_compression(1024, 256);
        s.record_compression(1024, 256);
        assert_eq!(s.logical_bytes, 2048);
        assert_eq!(s.stored_bytes, 512);
        assert!((s.compression_ratio() - 4.0).abs() < 1e-12);
        let mut merged = CacheStats::default();
        merged.merge(&s);
        assert_eq!(merged.logical_bytes, 2048);
        assert_eq!(merged.stored_bytes, 512);
    }
}
