//! Deterministic fault injection and the error/retry vocabulary of the
//! self-healing remote-read path.
//!
//! The simulated network of [`crate::network`] is perfectly reliable; real RMA
//! fabrics are not. This module adds a *seedable* fault model so every layer
//! above the endpoint can be exercised against transient get failures,
//! stragglers, corrupted transfer buffers and cache misbehaviour — without a
//! single nondeterministic bit: every fault decision is a pure hash of
//! `(seed, rank, per-rank event index)`, so a failing schedule is reproduced
//! exactly by re-running with the same [`FaultPlan`], regardless of OS thread
//! interleaving.
//!
//! The pieces:
//!
//! * [`FaultPlan`] — the serializable description of a fault schedule: a seed
//!   plus one probability per fault class. CI's randomized chaos job uploads
//!   the failing plan's JSON so the schedule can be replayed locally.
//! * [`FaultInjector`] — the per-rank decision stream derived from a plan.
//! * [`RmaError`] — what a remote read can report instead of panicking.
//! * [`RetryPolicy`] — attempts, exponential backoff and completion timeout;
//!   carried by the endpoint so backoff is charged through the α+βs cost
//!   accounting like any other communication time.
//! * [`checksum`] / [`corrupt`] — the transfer-integrity primitives: a
//!   cheap FNV-1a stamp computed over the source window region, and the
//!   byte flip the injector applies to a landed buffer or a cache entry's
//!   fresh copy. Corruption is *real* — the landed bytes are wrong, so a
//!   read path that skipped verification would produce wrong counts, and the
//!   chaos suite genuinely proves detection and healing.
//!
//! # Paper map
//!
//! The paper assumes a reliable Cray Aries fabric; this module is the
//! robustness layer the ROADMAP's long-lived-service direction needs on top of
//! it. The one paper-anchored behaviour is the degraded mode: a cache that
//! keeps corrupting entries is quarantined and every read falls back to the
//! plain two-get protocol — i.e. a sick cache degrades to the paper's
//! *non-cached* baseline (Figure 9's comparison point) instead of wrong
//! answers.

/// Runtime failure of a remote read. Programming errors (epoch misuse, out of
/// bounds offsets) remain panics, exactly like an `MPI_ERR_RMA_SYNC` abort;
/// `RmaError` covers the failures a production run must survive.
#[derive(Debug, Clone, PartialEq)]
pub enum RmaError {
    /// The get failed at issue time (a dropped or NACKed message). The failed
    /// attempt still pays the per-message setup latency α.
    Transient {
        /// Target rank of the failed get.
        target: usize,
    },
    /// The get's completion exceeded [`RetryPolicy::timeout_ns`] (a straggler
    /// target). The caller is charged the full timeout it waited.
    Timeout {
        /// Target rank of the timed-out get.
        target: usize,
        /// Modeled nanoseconds the completion would have taken.
        waited_ns: f64,
        /// The timeout that cut it off.
        timeout_ns: f64,
    },
    /// The landed buffer does not match the checksum stamped at the source
    /// window (a corrupted transfer). The transfer cost was already charged.
    ChecksumMismatch {
        /// Target rank of the corrupted transfer.
        target: usize,
    },
    /// Every attempt allowed by the [`RetryPolicy`] failed; `last` is the
    /// final attempt's error.
    RetriesExhausted {
        /// Target rank of the abandoned read.
        target: usize,
        /// Number of attempts made.
        attempts: u32,
        /// The error of the last attempt.
        last: Box<RmaError>,
    },
}

impl std::fmt::Display for RmaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RmaError::Transient { target } => {
                write!(f, "transient RMA get failure towards rank {target}")
            }
            RmaError::Timeout {
                target,
                waited_ns,
                timeout_ns,
            } => write!(
                f,
                "RMA get towards rank {target} timed out ({waited_ns:.0} ns > {timeout_ns:.0} ns)"
            ),
            RmaError::ChecksumMismatch { target } => {
                write!(f, "checksum mismatch on transfer from rank {target}")
            }
            RmaError::RetriesExhausted {
                target,
                attempts,
                last,
            } => write!(
                f,
                "remote read towards rank {target} failed after {attempts} attempts: {last}"
            ),
        }
    }
}

impl std::error::Error for RmaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RmaError::RetriesExhausted { last, .. } => Some(last),
            _ => None,
        }
    }
}

/// Retry behaviour of the self-healing read path, carried by the
/// [`crate::Endpoint`] and configured per run.
///
/// A failed attempt is retried after an exponential backoff of
/// `base_backoff_ns · backoff_multiplier^(retry − 1)` nanoseconds; the backoff
/// and the retried message's α+βs cost are both charged to the rank's
/// communication time, so fault recovery shows up honestly in the simulated
/// timings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per read (first try included). Clamped to at least 1.
    pub max_attempts: u32,
    /// Backoff before the first retry, in nanoseconds.
    pub base_backoff_ns: f64,
    /// Multiplier applied to the backoff after each further failure.
    pub backoff_multiplier: f64,
    /// Completion timeout in nanoseconds; a get whose modeled completion
    /// (including straggler delay) exceeds it fails with [`RmaError::Timeout`]
    /// and is reissued. `None` waits forever (stragglers stretch the timing
    /// but never fail the read).
    pub timeout_ns: Option<f64>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 4,
            base_backoff_ns: 1_000.0,
            backoff_multiplier: 2.0,
            timeout_ns: None,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (the pre-fault-injection behaviour: the
    /// first error surfaces immediately).
    pub fn no_retries() -> Self {
        Self {
            max_attempts: 1,
            ..Self::default()
        }
    }

    /// Backoff charged before retry number `retry` (1-based), in nanoseconds.
    pub fn backoff_ns(&self, retry: u32) -> f64 {
        self.base_backoff_ns * self.backoff_multiplier.powi(retry.saturating_sub(1) as i32)
    }
}

/// A complete, serializable description of a fault schedule: a seed plus one
/// probability per fault class. Two runs with the same plan, rank count and
/// input observe the *identical* fault sequence.
///
/// Probabilities are per decision point: per get attempt for
/// `get_failure_p` / `corrupt_p`, per completion for `delay_p`, per cache
/// insert for `cache_reject_p`, and per cache lookup for `cache_corrupt_p`.
/// A probability of `1.0` makes the class unrecoverable (every retry fails
/// too), which is how the chaos suite proves clean [`RmaError`] surfacing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed of the deterministic decision stream.
    pub seed: u64,
    /// P(transient failure) per get attempt.
    pub get_failure_p: f64,
    /// P(straggler delay) per get completion.
    pub delay_p: f64,
    /// Completion-cost multiplier of a delayed get (≥ 1).
    pub delay_factor: f64,
    /// P(corrupted transfer buffer) per get attempt.
    pub corrupt_p: f64,
    /// P(the cache refuses an insert) per insert.
    pub cache_reject_p: f64,
    /// P(an existing cache entry has rotted) per cached-window lookup.
    pub cache_corrupt_p: f64,
}

impl FaultPlan {
    /// A plan that injects nothing (useful to exercise the checksummed read
    /// path itself without faults).
    pub fn reliable(seed: u64) -> Self {
        Self {
            seed,
            get_failure_p: 0.0,
            delay_p: 0.0,
            delay_factor: 1.0,
            corrupt_p: 0.0,
            cache_reject_p: 0.0,
            cache_corrupt_p: 0.0,
        }
    }

    /// Occasional faults of every class — the "weather" a long-lived service
    /// sees.
    pub fn light(seed: u64) -> Self {
        Self {
            get_failure_p: 0.02,
            delay_p: 0.02,
            delay_factor: 8.0,
            corrupt_p: 0.01,
            cache_reject_p: 0.05,
            cache_corrupt_p: 0.01,
            ..Self::reliable(seed)
        }
    }

    /// Frequent faults of every class — the chaos suite's stress plan.
    pub fn heavy(seed: u64) -> Self {
        Self {
            get_failure_p: 0.25,
            delay_p: 0.15,
            delay_factor: 50.0,
            corrupt_p: 0.15,
            cache_reject_p: 0.30,
            cache_corrupt_p: 0.20,
            ..Self::reliable(seed)
        }
    }

    /// Every get attempt fails: no retry budget can recover, so reads surface
    /// [`RmaError::RetriesExhausted`].
    pub fn unrecoverable(seed: u64) -> Self {
        Self {
            get_failure_p: 1.0,
            ..Self::reliable(seed)
        }
    }

    /// Whether this plan can inject anything at all.
    pub fn is_reliable(&self) -> bool {
        self.get_failure_p == 0.0
            && self.delay_p == 0.0
            && self.corrupt_p == 0.0
            && self.cache_reject_p == 0.0
            && self.cache_corrupt_p == 0.0
    }

    /// Whether some class fails deterministically on every attempt, i.e. no
    /// retry budget can recover a read that hits it.
    pub fn is_recoverable(&self) -> bool {
        self.get_failure_p < 1.0 && self.corrupt_p < 1.0
    }

    /// Validates probabilities and the delay factor.
    pub fn validate(&self) -> Result<(), String> {
        for (name, p) in [
            ("get_failure_p", self.get_failure_p),
            ("delay_p", self.delay_p),
            ("corrupt_p", self.corrupt_p),
            ("cache_reject_p", self.cache_reject_p),
            ("cache_corrupt_p", self.cache_corrupt_p),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} = {p} is not a probability"));
            }
        }
        if !self.delay_factor.is_finite() || self.delay_factor < 1.0 {
            return Err(format!(
                "delay_factor = {} must be a finite multiplier ≥ 1",
                self.delay_factor
            ));
        }
        Ok(())
    }

    /// The decision stream of `rank` under this plan.
    pub fn injector(&self, rank: usize) -> FaultInjector {
        FaultInjector {
            plan: *self,
            rank: rank as u64,
            events: 0,
        }
    }
}

/// Per-rank deterministic fault decision stream.
///
/// Each decision consumes one event index and hashes
/// `(seed, rank, event index)` through splitmix64, so the sequence depends
/// only on the plan and the order of this rank's own operations — never on
/// thread scheduling. Retries consume fresh events, so a transient fault
/// clears on a later attempt unless its probability is 1.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    rank: u64,
    events: u64,
}

impl FaultInjector {
    /// The plan this injector draws from.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Next raw hash of the decision stream.
    fn next_hash(&mut self) -> u64 {
        self.events += 1;
        splitmix64(
            self.plan
                .seed
                .wrapping_add(splitmix64(self.rank))
                .wrapping_add(splitmix64(self.events.wrapping_mul(0xA24B_AED4_963E_E407))),
        )
    }

    /// Next uniform draw in `[0, 1)`.
    fn next_unit(&mut self) -> f64 {
        (self.next_hash() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Whether the next get attempt fails at issue time.
    pub fn get_failed(&mut self) -> bool {
        self.next_unit() < self.plan.get_failure_p
    }

    /// Corruption decision for the next transfer: `Some(salt)` flips a byte of
    /// the in-flight buffer.
    pub fn transfer_corruption(&mut self) -> Option<u64> {
        if self.next_unit() < self.plan.corrupt_p {
            Some(self.next_hash())
        } else {
            None
        }
    }

    /// Straggler decision for the next completion: `Some(factor)` multiplies
    /// the modeled completion cost.
    pub fn completion_delay(&mut self) -> Option<f64> {
        if self.next_unit() < self.plan.delay_p {
            Some(self.plan.delay_factor)
        } else {
            None
        }
    }

    /// Whether the cache refuses the next insert.
    pub fn cache_reject(&mut self) -> bool {
        self.next_unit() < self.plan.cache_reject_p
    }

    /// Rot decision for the next cache lookup: `Some(salt)` corrupts the
    /// resident entry (if any) before it is served.
    pub fn cache_corruption(&mut self) -> Option<u64> {
        if self.next_unit() < self.plan.cache_corrupt_p {
            Some(self.next_hash())
        } else {
            None
        }
    }
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The raw bytes of a slice of plain scalars.
///
/// # Invariant
///
/// `T` must be a padding-free primitive (the RMA windows of this workspace
/// only ever hold `u32` vertex ids and `u64` offsets); reading padding bytes
/// would be undefined behaviour.
fn as_bytes<T: Copy>(data: &[T]) -> &[u8] {
    // SAFETY: `T: Copy` scalars per the invariant above; the length in bytes
    // is exactly the slice's size, and the lifetime is tied to the borrow.
    unsafe { std::slice::from_raw_parts(data.as_ptr().cast::<u8>(), std::mem::size_of_val(data)) }
}

/// FNV-1a checksum of a transfer buffer, stamped at the source window and
/// verified on completion and on cache hits. Cheap (one pass, no allocation)
/// and only computed when fault injection is enabled, so the fault-off hot
/// path is unchanged.
pub fn checksum<T: Copy>(data: &[T]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in as_bytes(data) {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Corrupts `data` in place: one byte (chosen by `salt`) is XOR-flipped, so
/// the buffer is guaranteed to differ from what it held. An empty buffer is
/// left unchanged (there is nothing to corrupt).
pub fn corrupt<T: Copy>(data: &mut [T], salt: u64) {
    let nbytes = std::mem::size_of_val(data);
    if nbytes > 0 {
        let idx = (salt % nbytes as u64) as usize;
        // SAFETY: same padding-free-scalar invariant as `as_bytes`; `idx` is
        // in bounds and `data` is borrowed exclusively.
        unsafe {
            *data.as_mut_ptr().cast::<u8>().add(idx) ^= 0xA5;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injector_is_deterministic_per_rank() {
        let plan = FaultPlan::heavy(42);
        let mut a = plan.injector(3);
        let mut b = plan.injector(3);
        for _ in 0..200 {
            assert_eq!(a.get_failed(), b.get_failed());
            assert_eq!(a.transfer_corruption(), b.transfer_corruption());
            assert_eq!(a.completion_delay(), b.completion_delay());
            assert_eq!(a.cache_reject(), b.cache_reject());
            assert_eq!(a.cache_corruption(), b.cache_corruption());
        }
    }

    #[test]
    fn ranks_and_seeds_draw_different_streams() {
        let plan = FaultPlan::heavy(42);
        let seq =
            |mut inj: FaultInjector| -> Vec<bool> { (0..64).map(|_| inj.get_failed()).collect() };
        assert_ne!(seq(plan.injector(0)), seq(plan.injector(1)));
        assert_ne!(
            seq(FaultPlan::heavy(1).injector(0)),
            seq(FaultPlan::heavy(2).injector(0))
        );
    }

    #[test]
    fn reliable_plan_injects_nothing() {
        let mut inj = FaultPlan::reliable(7).injector(0);
        for _ in 0..100 {
            assert!(!inj.get_failed());
            assert!(inj.transfer_corruption().is_none());
            assert!(inj.completion_delay().is_none());
            assert!(!inj.cache_reject());
            assert!(inj.cache_corruption().is_none());
        }
        assert!(FaultPlan::reliable(7).is_reliable());
        assert!(!FaultPlan::light(7).is_reliable());
    }

    #[test]
    fn unrecoverable_plan_fails_every_attempt() {
        let mut inj = FaultPlan::unrecoverable(9).injector(2);
        assert!((0..100).all(|_| inj.get_failed()));
        assert!(!FaultPlan::unrecoverable(9).is_recoverable());
        assert!(FaultPlan::heavy(9).is_recoverable());
    }

    #[test]
    fn checksum_detects_byte_flips() {
        let data: Vec<u32> = (0..100).collect();
        let stamp = checksum(&data);
        for salt in [0u64, 1, 17, 399, u64::MAX] {
            let mut bad = data.clone();
            corrupt(&mut bad, salt);
            assert_ne!(bad, data, "salt {salt} must change the data");
            assert_ne!(checksum(&bad), stamp, "salt {salt} must change the sum");
        }
    }

    #[test]
    fn empty_buffers_are_uncorruptible() {
        let mut data: Vec<u64> = Vec::new();
        let stamp = checksum(&data);
        corrupt(&mut data, 5);
        assert!(data.is_empty());
        assert_eq!(checksum(&data), stamp);
    }

    #[test]
    fn plan_repro_text_names_every_field_exactly() {
        // The chaos suite's repro file is this `{:?}` text: a `FaultPlan`
        // expression whose seed stays exact above 2^53 and whose
        // probabilities are shortest round-trip `f64`s.
        let plan = FaultPlan::heavy(u64::MAX - 12345);
        assert_eq!(
            format!("{plan:?}"),
            "FaultPlan { seed: 18446744073709539270, get_failure_p: 0.25, delay_p: 0.15, \
             delay_factor: 50.0, corrupt_p: 0.15, cache_reject_p: 0.3, cache_corrupt_p: 0.2 }"
        );
    }

    #[test]
    fn plan_validation_rejects_bad_fields() {
        let mut plan = FaultPlan::light(1);
        plan.get_failure_p = 1.5;
        assert!(plan.validate().is_err());
        let mut plan = FaultPlan::light(1);
        plan.delay_factor = 0.5;
        assert!(plan.validate().is_err());
        assert!(FaultPlan::heavy(1).validate().is_ok());
    }

    #[test]
    fn backoff_grows_exponentially() {
        let policy = RetryPolicy {
            max_attempts: 5,
            base_backoff_ns: 100.0,
            backoff_multiplier: 2.0,
            timeout_ns: None,
        };
        assert_eq!(policy.backoff_ns(1), 100.0);
        assert_eq!(policy.backoff_ns(2), 200.0);
        assert_eq!(policy.backoff_ns(3), 400.0);
        assert_eq!(RetryPolicy::no_retries().max_attempts, 1);
    }

    #[test]
    fn errors_display_and_chain() {
        let last = RmaError::ChecksumMismatch { target: 1 };
        let err = RmaError::RetriesExhausted {
            target: 1,
            attempts: 4,
            last: Box::new(last.clone()),
        };
        assert!(err.to_string().contains("after 4 attempts"));
        assert!(err.to_string().contains("checksum mismatch"));
        let source = std::error::Error::source(&err).expect("chained");
        assert_eq!(source.to_string(), last.to_string());
    }
}
