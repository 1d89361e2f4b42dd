//! Linear network cost model for remote reads.
//!
//! Section IV-D1 of the paper models the time of a remote read of `s` bytes as
//! `t(s) = α + s·β`: a fixed per-operation setup overhead plus a per-byte transfer
//! cost. The analysis of both CLaMPI caches rests on this model — saving a get on
//! the small `offsets` entries saves mostly `α`, while saving a get on a long
//! adjacency list saves `α` plus a large `s·β` term.

/// Parameters of the `t(s) = α + β·s` remote-read model, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkModel {
    /// Per-operation setup overhead α, in nanoseconds.
    pub alpha_ns: f64,
    /// Per-byte transfer cost β, in nanoseconds per byte.
    pub beta_ns_per_byte: f64,
    /// Cost charged for a *local* read of one cache line, in nanoseconds. The paper
    /// contrasts the microseconds of a remote get with the hundreds of nanoseconds
    /// of a DRAM access; cache hits are charged this cost.
    pub local_read_ns: f64,
}

impl NetworkModel {
    /// Cray Aries defaults: the paper quotes 2–3 µs per RMA get on Aries and the
    /// link bandwidth is on the order of 10 GB/s, i.e. ≈0.1 ns/byte.
    pub fn aries() -> Self {
        Self {
            alpha_ns: 2_500.0,
            beta_ns_per_byte: 0.1,
            local_read_ns: 100.0,
        }
    }

    /// A slower commodity-cluster model (useful for sensitivity studies):
    /// ~10 µs setup, ~1 ns/byte (≈1 GB/s effective).
    pub fn commodity() -> Self {
        Self {
            alpha_ns: 10_000.0,
            beta_ns_per_byte: 1.0,
            local_read_ns: 100.0,
        }
    }

    /// A zero-cost model; useful in unit tests that only check data movement.
    pub fn zero() -> Self {
        Self {
            alpha_ns: 0.0,
            beta_ns_per_byte: 0.0,
            local_read_ns: 0.0,
        }
    }

    /// Modeled cost of a remote read of `bytes` bytes, in nanoseconds.
    pub fn remote_cost_ns(&self, bytes: usize) -> f64 {
        self.alpha_ns + self.beta_ns_per_byte * bytes as f64
    }

    /// Modeled cost of serving the same `bytes` from the local CLaMPI cache.
    pub fn local_cost_ns(&self, bytes: usize) -> f64 {
        // One access latency plus streaming the bytes at DRAM bandwidth
        // (~0.01 ns/byte); the dominant term is the fixed access cost.
        self.local_read_ns + 0.01 * bytes as f64
    }

    /// Modeled cost of a barrier / collective synchronization over `ranks` ranks,
    /// used by the bulk-synchronous TriC baseline: a logarithmic-depth dissemination
    /// barrier costs `⌈log2(p)⌉` message latencies.
    pub fn barrier_cost_ns(&self, ranks: usize) -> f64 {
        if ranks <= 1 {
            return 0.0;
        }
        let rounds = (ranks as f64).log2().ceil();
        rounds * self.alpha_ns
    }
}

impl Default for NetworkModel {
    fn default() -> Self {
        Self::aries()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aries_cost_is_microseconds_per_get() {
        let m = NetworkModel::aries();
        // An 8-byte offsets read costs roughly the setup latency.
        let small = m.remote_cost_ns(8);
        assert!((2_500.0..3_000.0).contains(&small));
        // A 4 KiB adjacency read costs noticeably more than the setup alone.
        assert!(m.remote_cost_ns(4096) > small);
    }

    #[test]
    fn local_reads_are_orders_of_magnitude_cheaper() {
        let m = NetworkModel::aries();
        assert!(m.remote_cost_ns(64) / m.local_cost_ns(64) > 10.0);
    }

    #[test]
    fn cost_is_linear_in_size() {
        let m = NetworkModel::aries();
        let c1 = m.remote_cost_ns(1_000);
        let c2 = m.remote_cost_ns(2_000);
        let c3 = m.remote_cost_ns(3_000);
        assert!((c3 - c2 - (c2 - c1)).abs() < 1e-9);
    }

    #[test]
    fn barrier_cost_grows_logarithmically() {
        let m = NetworkModel::aries();
        assert_eq!(m.barrier_cost_ns(1), 0.0);
        assert!((m.barrier_cost_ns(2) - m.alpha_ns).abs() < 1e-9);
        assert!((m.barrier_cost_ns(64) - 6.0 * m.alpha_ns).abs() < 1e-9);
        assert!(m.barrier_cost_ns(64) < m.barrier_cost_ns(128) + 1e-9);
    }

    #[test]
    fn zero_model_charges_nothing() {
        let m = NetworkModel::zero();
        assert_eq!(m.remote_cost_ns(1 << 20), 0.0);
        assert_eq!(m.local_cost_ns(0), 0.0);
        assert_eq!(m.barrier_cost_ns(128), 0.0);
    }
}
