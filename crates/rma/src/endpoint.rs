//! Per-rank RMA access endpoint: epochs, one-sided gets, flush semantics and the
//! overlap (double-buffering) credit used by the asynchronous algorithm.
//!
//! Since the robustness layer landed, remote reads are *fallible*: under an
//! attached [`FaultInjector`] a get can fail at issue time, land a corrupted
//! buffer (detected by the [`crate::fault::checksum`] stamped at the source
//! window), or straggle past the [`RetryPolicy`] timeout. [`Endpoint::get`]
//! therefore returns `Result`, and [`Endpoint::get_into_with_retry`]
//! implements the self-healing path: exponential backoff between attempts,
//! every retry and backoff nanosecond charged through the same α+βs cost
//! accounting as ordinary traffic. Epoch misuse remains a panic — that is a
//! programming error, the moral equivalent of an `MPI_ERR_RMA_SYNC` abort.
//! Without an injector the fault machinery is entirely skipped (no checksum
//! is computed), so the fault-off hot path is unchanged.
//!
//! Every get is issued and completed by the same private pair
//! (`Endpoint::issue` / `Endpoint::complete`), and one rule decides where the
//! caller reads the transfer. Fault-free, it is not copied at all:
//! [`Endpoint::get_in_place`] borrows the target's exposed region, as a NIC
//! would have put the bytes where the caller reads them, and hands back only
//! the completion still owed ([`PendingCharge`]), so a pipelined caller keeps
//! the latency in flight without a buffer to hold. Under faults it lands in
//! a buffer the caller owns and reuses ([`Endpoint::get_into_with_retry`]),
//! synchronously, and is verified and healed there: a corrupted attempt
//! flips a byte of that buffer, so once it has grown no attempt allocates,
//! and an unverified transfer never outlives the call that issued it. A
//! caller that keeps the data copies it once, from wherever it was read,
//! into the buffer that keeps it. [`Endpoint::get`] lands each transfer in a
//! fresh `Arc<[T]>` for [`PendingGet::wait`] to verify: the plain
//! `MPI_Get` + `MPI_Win_flush` pair, which no read path of the workspace
//! needs.

use crate::fault::{self, FaultInjector, RetryPolicy, RmaError};
use crate::network::NetworkModel;
use crate::stats::RankStats;
use crate::window::Window;
use std::sync::Arc;

/// A one-sided get that has been issued but not yet completed by a flush.
///
/// As in MPI-3 RMA, the target buffer must not be read before the operation is
/// completed; [`PendingGet::wait`] performs the per-operation flush and hands the
/// data out, and [`Endpoint::flush_all`] completes every outstanding operation.
///
/// The transferred data lives in the get's own `Arc<[T]>`, which
/// [`PendingGet::wait`] hands out once it has verified.
#[derive(Debug)]
pub struct PendingGet<T> {
    data: Arc<[T]>,
    ticket: Ticket,
}

/// The issue-side record of one get — everything its completion needs except
/// the landed data, which the lander owns.
#[derive(Debug)]
struct Ticket {
    cost_ns: f64,
    epoch: u64,
    target: usize,
    /// Checksum of the clean source region, stamped at issue time when fault
    /// injection is enabled; verified against the landed buffer on completion.
    expected_checksum: Option<u64>,
    /// Injected straggler multiplier on the completion cost (≥ 1), if any.
    delay_factor: Option<f64>,
}

impl<T: Copy> PendingGet<T> {
    /// Completes this get (an `MPI_Win_flush` scoped to the operation), charging its
    /// modeled cost to the endpoint, and returns the transferred data.
    ///
    /// # Errors
    ///
    /// [`RmaError::Timeout`] if an injected straggler delay pushes the modeled
    /// completion past the endpoint's [`RetryPolicy::timeout_ns`] (the full
    /// timeout is charged as waited time), and [`RmaError::ChecksumMismatch`]
    /// if the landed buffer fails verification against the source stamp (the
    /// transfer cost is still charged — the bytes did cross the wire).
    #[inline]
    pub fn wait(self, ep: &mut Endpoint) -> Result<Arc<[T]>, RmaError> {
        ep.complete(&self.ticket, &self.data)?;
        Ok(self.data)
    }
}

/// The cost ticket of a fault-free get read in place
/// ([`Endpoint::get_in_place`]): its data needs nothing more from the
/// endpoint, only the modeled completion is still owed, and a pipeline slot
/// holds this instead of a buffer.
#[derive(Debug)]
pub struct PendingCharge {
    ticket: Ticket,
}

impl PendingCharge {
    /// Completes the get: the flush accounting and overlap charging of
    /// [`PendingGet::wait`]. Infallible — without an injector
    /// there is no straggler to time out and no checksum to fail.
    #[inline]
    pub fn wait(self, ep: &mut Endpoint) {
        ep.complete::<u8>(&self.ticket, &[])
            .expect("a fault-free completion cannot fail");
    }
}

/// Per-rank access object for issuing one-sided operations.
///
/// The endpoint owns the rank's communication statistics and the overlap credit used
/// to model the paper's double-buffering optimization: computation time reported via
/// [`Endpoint::note_compute_ns`] can hide the latency of gets completed afterwards.
#[derive(Debug)]
pub struct Endpoint {
    rank: usize,
    ranks: usize,
    network: NetworkModel,
    stats: RankStats,
    epoch_open: bool,
    epoch_counter: u64,
    overlap_credit_ns: f64,
    outstanding_ns: f64,
    retry: RetryPolicy,
    faults: Option<FaultInjector>,
}

impl Endpoint {
    /// Creates the endpoint of `rank` out of `ranks` total, using the given network
    /// model. No faults are injected and the default [`RetryPolicy`] applies.
    pub fn new(rank: usize, ranks: usize, network: NetworkModel) -> Self {
        Self {
            rank,
            ranks,
            network,
            stats: RankStats::new(ranks),
            epoch_open: false,
            epoch_counter: 0,
            overlap_credit_ns: 0.0,
            outstanding_ns: 0.0,
            retry: RetryPolicy::default(),
            faults: None,
        }
    }

    /// Sets the retry policy governing backoff and completion timeouts.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Attaches a fault injector: remote gets become fallible and transfers are
    /// checksummed. The injector should come from
    /// [`crate::fault::FaultPlan::injector`] for this endpoint's rank.
    pub fn with_faults(mut self, faults: FaultInjector) -> Self {
        self.faults = Some(faults);
        self
    }

    /// This endpoint's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total number of ranks.
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// The network model in use.
    pub fn network(&self) -> &NetworkModel {
        &self.network
    }

    /// Whether a fault injector is attached (and transfers are checksummed).
    pub fn faults_enabled(&self) -> bool {
        self.faults.is_some()
    }

    /// Starts a passive-target access epoch (`MPI_Win_lock_all`). Not a lock and not
    /// a synchronization — it only marks the begin of the epoch, exactly as the
    /// paper points out.
    pub fn lock_all(&mut self) {
        assert!(!self.epoch_open, "access epoch already open");
        self.epoch_open = true;
        self.epoch_counter += 1;
    }

    /// Ends the access epoch (`MPI_Win_unlock_all`); a local operation.
    pub fn unlock_all(&mut self) {
        assert!(self.epoch_open, "no access epoch open");
        // Completing gets out of issue order (the pipelined worker keeps
        // several in flight) leaves a sub-nanosecond floating-point residue in
        // the outstanding pool; a genuinely un-flushed get costs at least the
        // per-message latency α, orders of magnitude above this threshold.
        assert!(
            self.outstanding_ns < 1e-3,
            "access epoch closed with un-flushed gets outstanding ({} ns)",
            self.outstanding_ns
        );
        self.outstanding_ns = 0.0;
        self.epoch_open = false;
    }

    /// Issues a one-sided get of `len` elements at `offset` in the region exposed by
    /// `target` in `window`. Must be called inside an access epoch. The returned
    /// handle must be completed with [`PendingGet::wait`] before the data is used.
    ///
    /// A get targeting the caller's own rank is still legal in MPI; it is counted as
    /// a local read and charged the local access cost, not the network cost. Local
    /// gets never fault — only the network is unreliable.
    ///
    /// # Errors
    ///
    /// [`RmaError::Transient`] if the attached fault injector drops the message
    /// at issue time; the failed attempt still pays the per-message setup
    /// latency α. Infallible without an injector.
    #[inline]
    pub fn get<T: Copy + Send + Sync>(
        &mut self,
        window: &Window<T>,
        target: usize,
        offset: usize,
        len: usize,
    ) -> Result<PendingGet<T>, RmaError> {
        let (ticket, src, corruption) = self.issue(window, target, offset, len)?;
        let mut data = Arc::from(src);
        if let Some(salt) = corruption {
            fault::corrupt(Arc::get_mut(&mut data).expect("a fresh buffer"), salt);
        }
        Ok(PendingGet { data, ticket })
    }

    /// The issue half every get shares: epoch assertion, fault rolls, the
    /// source checksum stamp, statistics and the outstanding-cost pool.
    /// Returns the ticket, the source region the transfer reads, and the
    /// salt of the byte flip its lander must apply once it has copied that
    /// region, when the injector corrupts the transfer.
    #[inline]
    fn issue<'w, T: Copy + Send + Sync>(
        &mut self,
        window: &'w Window<T>,
        target: usize,
        offset: usize,
        len: usize,
    ) -> Result<(Ticket, &'w [T], Option<u64>), RmaError> {
        assert!(self.epoch_open, "RMA get issued outside an access epoch");
        let src = window.exposed(target, offset, len);
        let remote = target != self.rank;
        let mut expected_checksum = None;
        let mut delay_factor = None;
        let mut corruption = None;
        if remote {
            if let Some(inj) = self.faults.as_mut() {
                if inj.get_failed() {
                    // The message was dropped: the setup latency α was spent,
                    // no bytes moved.
                    self.stats.transient_failures += 1;
                    self.stats.record_completion(self.network.alpha_ns, 0.0);
                    return Err(RmaError::Transient { target });
                }
                expected_checksum = Some(fault::checksum(src));
                corruption = inj.transfer_corruption();
                delay_factor = inj.completion_delay();
            }
        }
        let bytes = len * window.element_size();
        let cost_ns = if remote {
            self.stats.record_get(target, bytes);
            self.network.remote_cost_ns(bytes)
        } else {
            self.stats.record_local(self.network.local_cost_ns(bytes));
            0.0
        };
        self.outstanding_ns += cost_ns;
        let ticket = Ticket {
            cost_ns,
            epoch: self.epoch_counter,
            target,
            expected_checksum,
            delay_factor,
        };
        Ok((ticket, src, corruption))
    }

    /// The completion half every get shares (see [`PendingGet::wait`] for the
    /// contract): flush accounting, straggler timeout, overlap charging and
    /// checksum verification over `landed`.
    #[inline]
    fn complete<T: Copy>(&mut self, ticket: &Ticket, landed: &[T]) -> Result<(), RmaError> {
        assert_eq!(
            ticket.epoch, self.epoch_counter,
            "PendingGet completed in a different access epoch than it was issued in"
        );
        // The base cost was added to `outstanding_ns` at issue time; completing
        // the get individually removes it from the outstanding pool.
        self.outstanding_ns = (self.outstanding_ns - ticket.cost_ns).max(0.0);
        self.stats.flushes += 1;
        let factor = ticket.delay_factor.unwrap_or(1.0);
        let total_ns = ticket.cost_ns * factor;
        if ticket.cost_ns > 0.0 && factor > 1.0 {
            if let Some(timeout_ns) = self.retry.timeout_ns {
                if total_ns > timeout_ns {
                    // The caller waited out the whole timeout before giving up.
                    self.charge_raw(timeout_ns);
                    self.stats.timeouts += 1;
                    return Err(RmaError::Timeout {
                        target: ticket.target,
                        waited_ns: total_ns,
                        timeout_ns,
                    });
                }
            }
            self.stats.delayed_gets += 1;
        }
        self.charge_raw(total_ns);
        if let Some(expected) = ticket.expected_checksum {
            if fault::checksum(landed) != expected {
                self.stats.checksum_failures += 1;
                return Err(RmaError::ChecksumMismatch {
                    target: ticket.target,
                });
            }
        }
        Ok(())
    }

    /// The self-healing read: a synchronous get whose transfer is copied
    /// into `landing`, a buffer the caller owns and reuses — the paper's
    /// double buffer, cleared and refilled without giving up its capacity —
    /// and retried on transient failures, timeouts and checksum mismatches
    /// with exponential backoff per the endpoint's [`RetryPolicy`], every
    /// attempt and every backoff charged through the cost accounting. A
    /// corrupted attempt flips a byte of `landing` itself and is overwritten
    /// by its retry before anyone can read it, so once `landing` has grown
    /// no attempt allocates. Once this returns `Ok`, `landing` holds the
    /// verified-clean region; a caller that keeps it copies it from there.
    /// A backoff is an idle stall, charged as communication time without
    /// consuming overlap credit.
    ///
    /// Use this for every read under an attached injector, and
    /// [`Endpoint::get_in_place`] for every read without one.
    ///
    /// # Errors
    ///
    /// [`RmaError::RetriesExhausted`] when every allowed attempt failed.
    #[inline]
    pub fn get_into_with_retry<T: Copy + Send + Sync>(
        &mut self,
        window: &Window<T>,
        target: usize,
        offset: usize,
        len: usize,
        landing: &mut Vec<T>,
    ) -> Result<(), RmaError> {
        let mut attempt = |ep: &mut Self| {
            let (ticket, src, corruption) = ep.issue(window, target, offset, len)?;
            landing.clear();
            landing.extend_from_slice(src);
            if let Some(salt) = corruption {
                fault::corrupt(landing, salt);
            }
            ep.complete(&ticket, landing)
        };
        let attempts = self.retry.max_attempts.max(1);
        let mut last = None;
        for n in 1..=attempts {
            if n > 1 {
                let backoff = self.retry.backoff_ns(n - 1);
                self.stats.retries += 1;
                self.stats.backoff_ns += backoff;
                self.stats.record_completion(backoff, 0.0);
            }
            match attempt(self) {
                Ok(()) => return Ok(()),
                Err(e) => last = Some(e),
            }
        }
        Err(RmaError::RetriesExhausted {
            target,
            attempts,
            last: Box::new(last.expect("at least one attempt always runs")),
        })
    }

    /// The fault-free read in place: issues a get of `len` elements at
    /// `offset` in `target`'s region of `window` and hands back that region
    /// itself, borrowed from the window, with the completion still owed for
    /// it. Nothing is copied: a fault-free transfer has nothing to verify,
    /// and the model already charges β for the bytes a NIC would move. The
    /// issue accounting — epoch assert, statistics, outstanding cost, the
    /// cost ticket — is that of every get, so waiting the charge at once
    /// leaves the endpoint exactly where [`Endpoint::get_into_with_retry`]
    /// leaves it; a pipelined caller keeps the charge in flight instead.
    ///
    /// Fault-free endpoints only: a faulted transfer must land and verify
    /// before anyone reads it, so with an injector attached use the
    /// synchronous, self-healing [`Endpoint::get_into_with_retry`].
    ///
    /// # Panics
    ///
    /// If a fault injector is attached.
    #[inline]
    pub fn get_in_place<'w, T: Copy + Send + Sync>(
        &mut self,
        window: &'w Window<T>,
        target: usize,
        offset: usize,
        len: usize,
    ) -> (&'w [T], PendingCharge) {
        assert!(
            !self.faults_enabled(),
            "an in-place read cannot be verified; use get_into_with_retry"
        );
        let (ticket, region, _) = self
            .issue(window, target, offset, len)
            .expect("a fault-free issue cannot fail");
        (region, PendingCharge { ticket })
    }

    /// Reads the caller's own exposed region directly (no get, no charge beyond the
    /// local access cost). This is the "locally owned partition" fast path.
    pub fn local_read<'w, T: Copy + Send + Sync>(
        &mut self,
        window: &'w Window<T>,
        offset: usize,
        len: usize,
    ) -> &'w [T] {
        let bytes = len * window.element_size();
        self.stats.record_local(self.network.local_cost_ns(bytes));
        &window.local_part(self.rank)[offset..offset + len]
    }

    /// Records `ns` nanoseconds of computation that future get completions may be
    /// overlapped with (the double-buffering credit). Calling this is the worker's
    /// way of saying "while that get was in flight, I was busy computing".
    pub fn note_compute_ns(&mut self, ns: f64) {
        self.overlap_credit_ns += ns;
    }

    /// Completes all outstanding operations (`MPI_Win_flush_all`) and charges their
    /// cost. Returns the charged (non-overlapped) nanoseconds.
    pub fn flush_all(&mut self) -> f64 {
        assert!(self.epoch_open, "flush outside an access epoch");
        let cost = std::mem::replace(&mut self.outstanding_ns, 0.0);
        self.stats.flushes += 1;
        self.charge_raw(cost)
    }

    /// Records a read that was served from a local cache instead of the network
    /// (used by the CLaMPI layer for hits).
    pub fn record_cache_hit(&mut self, bytes: usize) {
        self.stats.record_local(self.network.local_cost_ns(bytes));
    }

    /// Injector decision: does the cache refuse the next insert? Always `false`
    /// without an attached injector.
    pub fn fault_roll_cache_reject(&mut self) -> bool {
        self.faults
            .as_mut()
            .is_some_and(FaultInjector::cache_reject)
    }

    /// Injector decision: does the entry served by the next cache lookup rot?
    /// Returns the corruption salt if so; always `None` without an injector.
    pub fn fault_roll_cache_corrupt(&mut self) -> Option<u64> {
        self.faults
            .as_mut()
            .and_then(FaultInjector::cache_corruption)
    }

    /// Records a cache entry invalidated after failing checksum verification.
    pub fn record_cache_invalidation(&mut self) {
        self.stats.cache_invalidations += 1;
    }

    /// Records a cache insert refused by an injected rejection.
    pub fn record_cache_rejection(&mut self) {
        self.stats.cache_rejections += 1;
    }

    /// Records a read served by the plain two-get path because the cache was
    /// quarantined.
    pub fn record_cache_bypass_read(&mut self) {
        self.stats.cache_bypass_reads += 1;
    }

    fn charge_raw(&mut self, cost_ns: f64) -> f64 {
        let overlapped = cost_ns.min(self.overlap_credit_ns);
        let charged = cost_ns - overlapped;
        self.overlap_credit_ns -= overlapped;
        self.stats.record_completion(charged, overlapped);
        charged
    }

    /// The statistics accumulated so far.
    pub fn stats(&self) -> &RankStats {
        &self.stats
    }

    /// Consumes the endpoint and returns its statistics (typically at the end of the
    /// rank's computation).
    pub fn into_stats(self) -> RankStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;

    fn window2() -> Window<u32> {
        Window::from_parts(vec![vec![1, 2, 3, 4], vec![10, 20, 30, 40, 50]])
    }

    #[test]
    fn get_and_wait_transfers_data_and_charges_cost() {
        let w = window2();
        let mut ep = Endpoint::new(0, 2, NetworkModel::aries());
        ep.lock_all();
        let data = ep.get(&w, 1, 1, 3).unwrap().wait(&mut ep).unwrap();
        assert_eq!(&*data, &[20, 30, 40]);
        assert_eq!(ep.stats().gets, 1);
        assert_eq!(ep.stats().bytes, 12);
        assert!(ep.stats().comm_time_ns > 0.0);
        ep.unlock_all();
    }

    #[test]
    #[should_panic(expected = "outside an access epoch")]
    fn get_outside_epoch_panics() {
        let w = window2();
        let mut ep = Endpoint::new(0, 2, NetworkModel::aries());
        let _ = ep.get(&w, 1, 0, 1);
    }

    #[test]
    #[should_panic(expected = "un-flushed gets outstanding")]
    fn closing_epoch_with_outstanding_gets_panics() {
        let w = window2();
        let mut ep = Endpoint::new(0, 2, NetworkModel::aries());
        ep.lock_all();
        let _pending = ep.get(&w, 1, 0, 1).unwrap();
        ep.unlock_all();
    }

    #[test]
    fn self_targeted_get_is_a_local_read() {
        let w = window2();
        let mut ep = Endpoint::new(1, 2, NetworkModel::aries());
        ep.lock_all();
        let data = ep.get(&w, 1, 0, 2).unwrap().wait(&mut ep).unwrap();
        assert_eq!(&*data, &[10, 20]);
        assert_eq!(ep.stats().gets, 0);
        assert_eq!(ep.stats().local_reads, 1);
        assert_eq!(ep.stats().comm_time_ns, 0.0);
        ep.unlock_all();
    }

    #[test]
    fn local_read_returns_borrowed_slice() {
        let w = window2();
        let mut ep = Endpoint::new(0, 2, NetworkModel::aries());
        assert_eq!(ep.local_read(&w, 1, 2), &[2, 3]);
        assert_eq!(ep.stats().local_reads, 1);
    }

    #[test]
    fn overlap_credit_hides_communication() {
        let w = window2();
        let net = NetworkModel::aries();
        let cost = net.remote_cost_ns(4 * 4);
        let mut ep = Endpoint::new(0, 2, net);
        ep.lock_all();
        let pending = ep.get(&w, 1, 0, 4).unwrap();
        // Pretend we computed longer than the get takes.
        ep.note_compute_ns(cost * 2.0);
        let _ = pending.wait(&mut ep).unwrap();
        assert_eq!(ep.stats().comm_time_ns, 0.0);
        assert!((ep.stats().overlapped_ns - cost).abs() < 1e-9);
        ep.unlock_all();

        // Without credit the same get is charged in full.
        let mut ep2 = Endpoint::new(0, 2, NetworkModel::aries());
        ep2.lock_all();
        let _ = ep2.get(&w, 1, 0, 4).unwrap().wait(&mut ep2).unwrap();
        assert!((ep2.stats().comm_time_ns - cost).abs() < 1e-9);
        ep2.unlock_all();
    }

    #[test]
    fn partial_overlap_charges_the_remainder() {
        let w = window2();
        let net = NetworkModel::aries();
        let cost = net.remote_cost_ns(4 * 4);
        let mut ep = Endpoint::new(0, 2, net);
        ep.lock_all();
        let pending = ep.get(&w, 1, 0, 4).unwrap();
        ep.note_compute_ns(cost / 2.0);
        let _ = pending.wait(&mut ep).unwrap();
        assert!((ep.stats().comm_time_ns - cost / 2.0).abs() < 1e-6);
        ep.unlock_all();
    }

    #[test]
    fn flush_all_completes_everything() {
        let w = window2();
        let mut ep = Endpoint::new(0, 2, NetworkModel::aries());
        ep.lock_all();
        let a = ep.get(&w, 1, 0, 1).unwrap();
        let b = ep.get(&w, 1, 1, 1).unwrap();
        let charged = ep.flush_all();
        assert!(charged > 0.0);
        // The handles were issued in this epoch; waiting after flush_all charges
        // nothing extra because their cost was already drained from outstanding.
        let before = ep.stats().comm_time_ns;
        let _ = a.wait(&mut ep).unwrap();
        let _ = b.wait(&mut ep).unwrap();
        // Each wait re-charges its own cost — callers should use one style or the
        // other; here we only assert monotonicity.
        assert!(ep.stats().comm_time_ns >= before);
        ep.unlock_all();
    }

    #[test]
    #[should_panic(expected = "different access epoch")]
    fn waiting_across_epochs_panics() {
        let w = window2();
        let mut ep = Endpoint::new(0, 2, NetworkModel::zero());
        ep.lock_all();
        let pending = ep.get(&w, 1, 0, 1).unwrap();
        ep.flush_all();
        ep.unlock_all();
        ep.lock_all();
        let _ = pending.wait(&mut ep);
    }

    #[test]
    fn stats_per_target_are_tracked() {
        let w = Window::from_parts(vec![vec![0u32; 8], vec![0u32; 8], vec![0u32; 8]]);
        let mut ep = Endpoint::new(0, 3, NetworkModel::zero());
        ep.lock_all();
        let _ = ep.get(&w, 1, 0, 4).unwrap().wait(&mut ep).unwrap();
        let _ = ep.get(&w, 2, 0, 2).unwrap().wait(&mut ep).unwrap();
        let _ = ep.get(&w, 2, 2, 2).unwrap().wait(&mut ep).unwrap();
        ep.unlock_all();
        assert_eq!(ep.stats().gets_per_target, vec![0, 1, 2]);
        assert_eq!(ep.stats().bytes_per_target, vec![0, 16, 16]);
    }

    #[test]
    fn without_faults_no_checksum_is_stamped() {
        let w = window2();
        let mut ep = Endpoint::new(0, 2, NetworkModel::aries());
        ep.lock_all();
        let pending = ep.get(&w, 1, 0, 2).unwrap();
        assert!(pending.ticket.expected_checksum.is_none());
        let _ = pending.wait(&mut ep).unwrap();
        ep.unlock_all();
        assert_eq!(ep.stats().fault_events(), 0);
    }

    #[test]
    fn transient_failure_charges_alpha_and_errors() {
        let w = window2();
        let net = NetworkModel::aries();
        let mut ep = Endpoint::new(0, 2, net).with_faults(FaultPlan::unrecoverable(1).injector(0));
        ep.lock_all();
        let err = ep.get(&w, 1, 0, 2).unwrap_err();
        assert_eq!(err, RmaError::Transient { target: 1 });
        assert_eq!(ep.stats().transient_failures, 1);
        assert_eq!(ep.stats().gets, 0, "a dropped message moves no bytes");
        assert!((ep.stats().comm_time_ns - net.alpha_ns).abs() < 1e-9);
        ep.unlock_all();
    }

    #[test]
    fn local_gets_never_fault() {
        let w = window2();
        let mut ep = Endpoint::new(1, 2, NetworkModel::aries())
            .with_faults(FaultPlan::unrecoverable(1).injector(1));
        ep.lock_all();
        for _ in 0..50 {
            let data = ep.get(&w, 1, 0, 2).unwrap().wait(&mut ep).unwrap();
            assert_eq!(&*data, &[10, 20]);
        }
        ep.unlock_all();
        assert_eq!(ep.stats().fault_events(), 0);
    }

    #[test]
    fn corrupted_transfer_is_detected_and_charged() {
        let w = window2();
        let plan = FaultPlan {
            corrupt_p: 1.0,
            ..FaultPlan::reliable(3)
        };
        let net = NetworkModel::aries();
        let cost = net.remote_cost_ns(2 * 4);
        let mut ep = Endpoint::new(0, 2, net).with_faults(plan.injector(0));
        ep.lock_all();
        let err = ep.get(&w, 1, 0, 2).unwrap().wait(&mut ep).unwrap_err();
        assert_eq!(err, RmaError::ChecksumMismatch { target: 1 });
        assert_eq!(ep.stats().checksum_failures, 1);
        // The corrupted bytes did cross the wire: full cost charged.
        assert!((ep.stats().comm_time_ns - cost).abs() < 1e-9);
        ep.unlock_all();
    }

    #[test]
    fn a_corrupted_get_lands_the_corrupted_wire_until_verified() {
        let w = window2();
        let plan = FaultPlan {
            corrupt_p: 1.0,
            ..FaultPlan::reliable(3)
        };
        let mut ep = Endpoint::new(0, 2, NetworkModel::zero()).with_faults(plan.injector(0));
        ep.lock_all();
        let pending = ep.get(&w, 1, 1, 3).unwrap();
        // The landed buffer holds the corrupted wire, not the clean source,
        // and the completion refuses to hand it out.
        assert_ne!(&*pending.data, &[20, 30, 40]);
        assert!(pending.wait(&mut ep).is_err());
        ep.unlock_all();
    }

    #[test]
    fn straggler_delay_multiplies_the_charge() {
        let w = window2();
        let plan = FaultPlan {
            delay_p: 1.0,
            delay_factor: 10.0,
            ..FaultPlan::reliable(4)
        };
        let net = NetworkModel::aries();
        let cost = net.remote_cost_ns(2 * 4);
        let mut ep = Endpoint::new(0, 2, net).with_faults(plan.injector(0));
        ep.lock_all();
        let data = ep.get(&w, 1, 0, 2).unwrap().wait(&mut ep).unwrap();
        assert_eq!(&*data, &[10, 20]);
        assert_eq!(ep.stats().delayed_gets, 1);
        assert!((ep.stats().comm_time_ns - cost * 10.0).abs() < 1e-6);
        ep.unlock_all();
    }

    #[test]
    fn straggler_past_the_timeout_errors_and_charges_the_wait() {
        let w = window2();
        let plan = FaultPlan {
            delay_p: 1.0,
            delay_factor: 100.0,
            ..FaultPlan::reliable(4)
        };
        let net = NetworkModel::aries();
        let cost = net.remote_cost_ns(2 * 4);
        let retry = RetryPolicy {
            timeout_ns: Some(cost * 2.0),
            ..RetryPolicy::default()
        };
        let mut ep = Endpoint::new(0, 2, net)
            .with_retry(retry)
            .with_faults(plan.injector(0));
        ep.lock_all();
        let err = ep.get(&w, 1, 0, 2).unwrap().wait(&mut ep).unwrap_err();
        assert!(matches!(err, RmaError::Timeout { target: 1, .. }));
        assert_eq!(ep.stats().timeouts, 1);
        // The caller waited out the full timeout, no more.
        assert!((ep.stats().comm_time_ns - cost * 2.0).abs() < 1e-6);
        ep.unlock_all();
    }

    #[test]
    fn retry_heals_transient_failures_and_charges_backoff() {
        let w = window2();
        // Fails often but recoverably; a generous attempt budget always heals.
        let plan = FaultPlan {
            get_failure_p: 0.5,
            ..FaultPlan::reliable(5)
        };
        let retry = RetryPolicy {
            max_attempts: 64,
            base_backoff_ns: 100.0,
            backoff_multiplier: 2.0,
            timeout_ns: None,
        };
        let mut ep = Endpoint::new(0, 2, NetworkModel::aries())
            .with_retry(retry)
            .with_faults(plan.injector(0));
        ep.lock_all();
        let mut saw_retry = false;
        let mut landing = Vec::new();
        for _ in 0..50 {
            ep.get_into_with_retry(&w, 1, 0, 3, &mut landing).unwrap();
            assert_eq!(landing, [10, 20, 30]);
            saw_retry |= ep.stats().retries > 0;
        }
        ep.unlock_all();
        assert!(saw_retry, "p=0.5 over 50 reads must retry at least once");
        assert_eq!(ep.stats().retries, ep.stats().transient_failures);
        assert!(ep.stats().backoff_ns > 0.0);
    }

    /// The self-healing read spelled out over the owned lander, as the
    /// reference of the borrowed one: [`Endpoint::get`] + [`PendingGet::wait`]
    /// per attempt, with the policy's backoff before each retry.
    fn owned_read(
        ep: &mut Endpoint,
        w: &Window<u32>,
        offset: usize,
        len: usize,
    ) -> Result<Arc<[u32]>, RmaError> {
        let attempts = ep.retry.max_attempts.max(1);
        let mut last = None;
        for n in 1..=attempts {
            if n > 1 {
                let backoff = ep.retry.backoff_ns(n - 1);
                ep.stats.retries += 1;
                ep.stats.backoff_ns += backoff;
                ep.stats.record_completion(backoff, 0.0);
            }
            match ep.get(w, 1, offset, len).and_then(|get| get.wait(ep)) {
                Ok(data) => return Ok(data),
                Err(e) => last = Some(e),
            }
        }
        Err(RmaError::RetriesExhausted {
            target: 1,
            attempts,
            last: Box::new(last.unwrap()),
        })
    }

    #[test]
    fn borrowed_lander_is_the_owned_lander_operation_for_operation() {
        // Same plan, same seed, same reads: the two landers must agree on the
        // outcome, the landed bytes, and every statistic — integer
        // counters and f64 charges alike — including runs that exhaust the
        // retry budget. A straggler timeout and banked overlap credit are in
        // play so every branch of the completion half is compared.
        let w = Window::from_parts(vec![vec![1u32, 2, 3, 4], (10..74u32).collect()]);
        let net = NetworkModel::aries();
        let retry = RetryPolicy {
            max_attempts: 3,
            timeout_ns: Some(net.remote_cost_ns(64 * 4) * 20.0),
            ..RetryPolicy::default()
        };
        for seed in [1u64, 7, 42] {
            for plan in [
                FaultPlan::reliable(seed),
                FaultPlan::light(seed),
                FaultPlan::heavy(seed),
            ] {
                let endpoint = || {
                    let mut ep = Endpoint::new(0, 2, net)
                        .with_retry(retry)
                        .with_faults(plan.injector(0));
                    ep.lock_all();
                    ep
                };
                let (mut owned, mut borrowed) = (endpoint(), endpoint());
                let mut landing = Vec::new();
                let mut failures = 0;
                for i in 0..200usize {
                    let (offset, len) = (i % 7, 1 + (i * 5) % 57);
                    owned.note_compute_ns(150.0);
                    borrowed.note_compute_ns(150.0);
                    let a = owned_read(&mut owned, &w, offset, len);
                    let b = borrowed.get_into_with_retry(&w, 1, offset, len, &mut landing);
                    match (a, b) {
                        (Ok(data), Ok(())) => {
                            assert_eq!(&*data, &landing[..], "{plan:?} read {i}");
                            assert_eq!(&landing[..], &w.local_part(1)[offset..offset + len]);
                        }
                        (Err(a), Err(b)) => {
                            assert_eq!(a, b, "{plan:?} read {i}");
                            failures += 1;
                        }
                        (a, b) => panic!("landers diverged at read {i}: {a:?} vs {b:?}"),
                    }
                    assert_eq!(owned.stats(), borrowed.stats(), "{plan:?} read {i}");
                }
                owned.unlock_all();
                borrowed.unlock_all();
                if plan.is_reliable() {
                    assert_eq!(owned.stats().fault_events(), 0);
                } else {
                    assert!(owned.stats().retries > 0, "{plan:?} must retry");
                }
                if plan == FaultPlan::heavy(seed) {
                    assert!(failures > 0, "three attempts cannot outlast a heavy plan");
                    assert!(owned.stats().timeouts > 0, "heavy stragglers must time out");
                }
            }
        }
    }

    #[test]
    fn borrowed_lander_never_leaks_a_corrupted_pass() {
        let w = window2();
        let plan = FaultPlan {
            corrupt_p: 0.5,
            ..FaultPlan::reliable(6)
        };
        let retry = RetryPolicy {
            max_attempts: 64,
            ..RetryPolicy::default()
        };
        let mut ep = Endpoint::new(0, 2, NetworkModel::zero())
            .with_retry(retry)
            .with_faults(plan.injector(0));
        ep.lock_all();
        let mut landing = Vec::new();
        for _ in 0..30 {
            ep.get_into_with_retry(&w, 1, 1, 3, &mut landing).unwrap();
            // However many corrupted landings preceded it, the bytes left in
            // the landing buffer come from the verified-clean one.
            assert_eq!(landing, [20, 30, 40]);
        }
        ep.unlock_all();
        assert!(ep.stats().checksum_failures > 0, "p=0.5 must corrupt some");
        assert_eq!(ep.stats().retries, ep.stats().checksum_failures);
    }

    #[test]
    fn deferred_charges_complete_like_synchronous_borrowed_gets() {
        // Issue-then-wait through `get_in_place` must leave the endpoint
        // exactly where the synchronous borrowed lander and the owned
        // `get` + `wait` leave it — every counter and every f64 charge — with
        // overlap credit in play; the in-place read borrows the very region
        // the landers copy.
        let w = Window::from_parts(vec![vec![1u32, 2, 3, 4], (10..74u32).collect()]);
        let endpoint = || {
            let mut ep = Endpoint::new(0, 2, NetworkModel::aries());
            ep.lock_all();
            ep
        };
        let (mut sync, mut deferred, mut owned) = (endpoint(), endpoint(), endpoint());
        let mut landing = Vec::new();
        for i in 0..50usize {
            let (offset, len) = (i % 7, 1 + (i * 5) % 57);
            for ep in [&mut sync, &mut deferred, &mut owned] {
                ep.note_compute_ns(150.0);
            }
            sync.get_into_with_retry(&w, 1, offset, len, &mut landing)
                .unwrap();
            let (in_place, charge) = deferred.get_in_place(&w, 1, offset, len);
            charge.wait(&mut deferred);
            let data = owned.get(&w, 1, offset, len).unwrap().wait(&mut owned);
            let data = data.unwrap();
            assert_eq!(&*data, &landing[..], "read {i}");
            assert_eq!(in_place, &landing[..], "read {i}");
            assert!(std::ptr::eq(
                in_place,
                &w.local_part(1)[offset..offset + len]
            ));
            assert_eq!(sync.stats(), deferred.stats(), "read {i}");
            assert_eq!(sync.stats(), owned.stats(), "read {i}");
        }
        // Several charges in flight, dropped unwaited: the epoch still closes
        // once the outstanding pool is flushed.
        let _a = deferred.get_in_place(&w, 1, 0, 4);
        let _b = deferred.get_in_place(&w, 1, 4, 4);
        assert!(deferred.flush_all() > 0.0);
        deferred.unlock_all();
    }

    #[test]
    #[should_panic(expected = "cannot be verified")]
    fn in_place_reads_refuse_a_fault_injector() {
        let w = window2();
        let mut ep = Endpoint::new(0, 2, NetworkModel::zero())
            .with_faults(FaultPlan::reliable(1).injector(0));
        ep.lock_all();
        let _ = ep.get_in_place(&w, 1, 0, 2);
    }

    #[test]
    fn exhausted_retries_surface_a_chained_error() {
        let w = window2();
        let retry = RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        };
        let mut ep = Endpoint::new(0, 2, NetworkModel::aries())
            .with_retry(retry)
            .with_faults(FaultPlan::unrecoverable(7).injector(0));
        ep.lock_all();
        let err = ep
            .get_into_with_retry(&w, 1, 0, 2, &mut Vec::new())
            .unwrap_err();
        match err {
            RmaError::RetriesExhausted {
                target: 1,
                attempts: 3,
                last,
            } => assert_eq!(*last, RmaError::Transient { target: 1 }),
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
        assert_eq!(ep.stats().transient_failures, 3);
        assert_eq!(ep.stats().retries, 2);
        // Epoch hygiene: failed attempts leave nothing outstanding.
        ep.unlock_all();
    }

    #[test]
    fn retries_exhaust_cleanly_on_unrecoverable_corruption() {
        let w = window2();
        let plan = FaultPlan {
            corrupt_p: 1.0,
            ..FaultPlan::reliable(12)
        };
        let retry = RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        };
        let mut ep = Endpoint::new(0, 2, NetworkModel::aries())
            .with_retry(retry)
            .with_faults(plan.injector(0));
        ep.lock_all();
        let err = ep
            .get_into_with_retry(&w, 1, 0, 2, &mut Vec::new())
            .unwrap_err();
        match err {
            RmaError::RetriesExhausted {
                target: 1,
                attempts: 3,
                last,
            } => assert_eq!(*last, RmaError::ChecksumMismatch { target: 1 }),
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
        // Every failed attempt completed its get: nothing outstanding.
        ep.unlock_all();
    }

    #[test]
    fn reliable_injector_changes_nothing_but_stamps_checksums() {
        let w = window2();
        let mut plain = Endpoint::new(0, 2, NetworkModel::aries());
        let mut faulted = Endpoint::new(0, 2, NetworkModel::aries())
            .with_faults(FaultPlan::reliable(8).injector(0));
        plain.lock_all();
        faulted.lock_all();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for _ in 0..10 {
            plain.get_into_with_retry(&w, 1, 0, 4, &mut a).unwrap();
            faulted.get_into_with_retry(&w, 1, 0, 4, &mut b).unwrap();
            assert_eq!(a, b);
        }
        plain.unlock_all();
        faulted.unlock_all();
        assert_eq!(plain.stats(), faulted.stats());
        assert_eq!(faulted.stats().fault_events(), 0);
    }
}
