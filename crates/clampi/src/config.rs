//! CLaMPI configuration: buffer capacity, hash-table size, score rule and
//! quarantine threshold — all fixed when the cache is built.
//!
//! Every cache is always-cache (CLaMPI's mode for read-only data: the graph
//! is not modified during the computation, so nothing is ever flushed at an
//! epoch closure).

/// The score the eviction rule weighs against recency (see
/// [`Clampi`](crate::Clampi)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScorePolicy {
    /// CLaMPI's default: least-recently-used weighted by a positional score that
    /// prefers evicting entries whose removal merges adjacent free regions.
    LruPositional,
    /// The paper's extension: the application passes a score with each entry (for
    /// LCC, the out-degree of the cached vertex). Higher scores are protected; the
    /// positional component is dropped, as the paper notes ("we lose the spatial
    /// effect of the score").
    ApplicationScore,
}

/// Full CLaMPI configuration for one cached window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClampiConfig {
    /// Capacity of the memory buffer reserved for cached data, in bytes.
    pub capacity_bytes: usize,
    /// Number of slots in the hash-table index. The paper sizes it for the
    /// adjacency cache with a power-law-aware estimate (`n · 0.5^α` entries
    /// with α≈2 when the cache holds half the graph).
    pub table_slots: usize,
    /// Which score victim selection weighs against recency.
    pub scoring: ScorePolicy,
    /// Number of checksum-failed (corrupted) entries after which the cache is
    /// quarantined: it stops serving and storing entries, and every read falls
    /// back to the plain RMA path — the paper's non-cached baseline — instead
    /// of risking wrong answers. Only reachable under fault injection.
    pub quarantine_threshold: u32,
}

impl ClampiConfig {
    /// A reasonable always-cache configuration for read-only graph data.
    pub fn always_cache(capacity_bytes: usize, table_slots: usize) -> Self {
        Self {
            capacity_bytes,
            table_slots: table_slots.max(1),
            scoring: ScorePolicy::LruPositional,
            quarantine_threshold: 3,
        }
    }

    /// Sets the corruption count at which the cache quarantines itself.
    pub fn with_quarantine_threshold(mut self, threshold: u32) -> Self {
        self.quarantine_threshold = threshold.max(1);
        self
    }

    /// Switches victim selection to application-defined scores (degree centrality in
    /// the paper's LCC use case).
    pub fn with_application_scores(mut self) -> Self {
        self.scoring = ScorePolicy::ApplicationScore;
        self
    }

    /// Sizes the hash table for an adjacencies cache per the paper's guidance: with a
    /// power-law degree distribution and a cache of `capacity_fraction` of the graph,
    /// expect about `n · capacity_fraction^α` entries, with `α = 2` found to be a
    /// good approximation. The slot count is doubled because this reproduction
    /// indexes entries directly in the table (set-associative probing): at a
    /// load factor near 1 it would suffer conflict evictions that the original
    /// CLaMPI's chained hash table does not.
    pub fn adjacency_table_slots(n: usize, capacity_fraction: f64) -> usize {
        let alpha = 2.0;
        (2.0 * (n as f64) * capacity_fraction.clamp(0.0, 1.0).powf(alpha))
            .ceil()
            .max(16.0) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn always_cache_defaults_are_sane() {
        let c = ClampiConfig::always_cache(1 << 20, 1024);
        assert_eq!(c.scoring, ScorePolicy::LruPositional);
        assert_eq!(c.capacity_bytes, 1 << 20);
    }

    #[test]
    fn builder_style_modifiers() {
        let c = ClampiConfig::always_cache(1024, 64).with_application_scores();
        assert_eq!(c.scoring, ScorePolicy::ApplicationScore);
    }

    #[test]
    fn table_slots_never_zero() {
        let c = ClampiConfig::always_cache(1024, 0);
        assert_eq!(c.table_slots, 1);
    }

    #[test]
    fn adjacency_table_follows_power_law_estimate() {
        // Cache half the graph, α = 2 → expect n · 0.25 entries (× 2 slots).
        let slots = ClampiConfig::adjacency_table_slots(1_000_000, 0.5);
        assert_eq!(slots, 500_000);
        // Degenerate fractions clamp cleanly.
        assert!(ClampiConfig::adjacency_table_slots(100, 0.0) >= 16);
        assert_eq!(
            ClampiConfig::adjacency_table_slots(1_000_000, 1.0),
            2_000_000
        );
    }
}
