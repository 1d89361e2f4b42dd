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
    /// When non-zero, every charged cost is also spun for in real time, scaled by
    /// this factor (1.0 = realistic, 0.001 = fast simulation). Zero disables
    /// injection and keeps accounting purely virtual.
    pub injection_scale: f64,
}

impl NetworkModel {
    /// Cray Aries defaults: the paper quotes 2–3 µs per RMA get on Aries and the
    /// link bandwidth is on the order of 10 GB/s, i.e. ≈0.1 ns/byte.
    pub fn aries() -> Self {
        Self {
            alpha_ns: 2_500.0,
            beta_ns_per_byte: 0.1,
            local_read_ns: 100.0,
            injection_scale: 0.0,
        }
    }

    /// A slower commodity-cluster model (useful for sensitivity studies):
    /// ~10 µs setup, ~1 ns/byte (≈1 GB/s effective).
    pub fn commodity() -> Self {
        Self {
            alpha_ns: 10_000.0,
            beta_ns_per_byte: 1.0,
            local_read_ns: 100.0,
            injection_scale: 0.0,
        }
    }

    /// A zero-cost model; useful in unit tests that only check data movement.
    pub fn zero() -> Self {
        Self {
            alpha_ns: 0.0,
            beta_ns_per_byte: 0.0,
            local_read_ns: 0.0,
            injection_scale: 0.0,
        }
    }

    /// Enables latency injection (real spinning) scaled by `scale`.
    pub fn with_injection(mut self, scale: f64) -> Self {
        self.injection_scale = scale;
        self
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

    /// Spins until `cost_ns * injection_scale` of wall time has passed since
    /// `issued` (since now, when `None`). A get whose modeled latency already
    /// elapsed while the caller computed — the NIC moved the bytes in the
    /// background, as real one-sided hardware does — costs no spin at all.
    /// This is what makes the pipelined worker's communication/compute
    /// overlap a *wall-clock* win under injection, not only a virtual-time
    /// accounting win.
    pub(crate) fn maybe_inject_since(&self, cost_ns: f64, issued: Option<std::time::Instant>) {
        if self.injection_scale <= 0.0 {
            return;
        }
        let target = std::time::Duration::from_nanos((cost_ns * self.injection_scale) as u64);
        let start = issued.unwrap_or_else(std::time::Instant::now);
        while start.elapsed() < target {
            std::hint::spin_loop();
        }
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

    #[test]
    fn injection_spins_for_roughly_the_requested_time() {
        let m = NetworkModel::aries().with_injection(1.0);
        let start = std::time::Instant::now();
        m.maybe_inject_since(2_000_000.0, None); // 2 ms
        assert!(start.elapsed() >= std::time::Duration::from_millis(1));
    }

    #[test]
    fn injection_disabled_returns_immediately() {
        let m = NetworkModel::aries();
        let start = std::time::Instant::now();
        m.maybe_inject_since(1e12, None);
        assert!(start.elapsed() < std::time::Duration::from_millis(100));
    }
}
