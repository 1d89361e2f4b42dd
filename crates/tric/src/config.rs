//! TriC configuration.

use rmatc_graph::partition::PartitionScheme;
use rmatc_rma::{FaultPlan, NetworkModel};

/// Configuration of a TriC run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TricConfig {
    /// Number of ranks.
    pub ranks: usize,
    /// Vertex partitioning scheme. The paper runs TriC with its `-b` balancing flag;
    /// the cyclic scheme is the closest equivalent in this workspace and is used for
    /// the Figure 9/10 comparisons.
    pub scheme: PartitionScheme,
    /// Network cost model (shared with the asynchronous implementation).
    pub network: NetworkModel,
    /// Maximum number of queries buffered per destination per exchange round;
    /// `None` reproduces plain TriC (unbounded buffers, single exchange round),
    /// `Some(b)` reproduces TriC Buffered.
    pub buffer_entries: Option<usize>,
    /// Deterministic fault injection. TriC's collectives are reliable-completion
    /// (a blocking all-to-all either finishes or the job aborts), so only
    /// straggler delays apply: a delayed exchange multiplies that rank's modeled
    /// collective cost. `None` (the default) runs fault-free.
    pub faults: Option<FaultPlan>,
}

impl TricConfig {
    /// Plain TriC over `ranks` ranks.
    pub fn plain(ranks: usize) -> Self {
        Self {
            ranks,
            scheme: PartitionScheme::Cyclic,
            network: NetworkModel::aries(),
            buffer_entries: None,
            faults: None,
        }
    }

    /// TriC Buffered with the paper's 16 MiB per-destination cap. A query is a
    /// `(j, k, origin)` triple of 12 bytes, so 16 MiB holds ~1.4 M queries.
    pub fn buffered(ranks: usize) -> Self {
        Self {
            buffer_entries: Some((16 << 20) / 12),
            ..Self::plain(ranks)
        }
    }

    /// Buffered with an explicit per-destination entry cap (used by tests).
    pub fn buffered_with(ranks: usize, buffer_entries: usize) -> Self {
        Self {
            buffer_entries: Some(buffer_entries.max(1)),
            ..Self::plain(ranks)
        }
    }

    /// Enables deterministic straggler injection per `plan` (chaos testing).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_has_unbounded_buffers() {
        assert_eq!(TricConfig::plain(8).buffer_entries, None);
    }

    #[test]
    fn buffered_uses_the_16_mib_cap() {
        let c = TricConfig::buffered(4);
        assert_eq!(c.buffer_entries, Some((16 << 20) / 12));
    }

    #[test]
    fn explicit_buffer_is_clamped_to_at_least_one() {
        assert_eq!(TricConfig::buffered_with(2, 0).buffer_entries, Some(1));
    }

    #[test]
    fn faults_are_opt_in() {
        assert_eq!(TricConfig::plain(4).faults, None);
        let c = TricConfig::plain(4).with_faults(FaultPlan::light(3));
        assert_eq!(c.faults, Some(FaultPlan::light(3)));
    }
}
