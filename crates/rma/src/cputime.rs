//! Per-thread CPU time measurement.
//!
//! The simulator runs every MPI rank as a thread of one process. When the host has
//! fewer cores than ranks, the threads are time-sliced and *wall-clock* time no
//! longer measures the work a rank performs — it mostly measures waiting for the
//! scheduler. Per-rank computation is therefore measured with the thread's CPU time
//! (`CLOCK_THREAD_CPUTIME_ID`), which is what the rank would have spent on a
//! dedicated node, and combined with the modeled communication time by the
//! algorithm crates.

use crate::endpoint::Endpoint;

/// A monotone per-thread CPU-time stopwatch.
#[derive(Debug, Clone, Copy)]
pub struct ThreadTimer {
    start_ns: u64,
    /// Wall-clock fallback used if the OS clock is unavailable.
    wall_start: std::time::Instant,
    cpu_clock_ok: bool,
}

impl ThreadTimer {
    /// Starts a stopwatch on the calling thread.
    pub fn start() -> Self {
        let (start_ns, cpu_clock_ok) = match thread_cpu_time_ns() {
            Some(ns) => (ns, true),
            None => (0, false),
        };
        Self {
            start_ns,
            wall_start: std::time::Instant::now(),
            cpu_clock_ok,
        }
    }

    /// Nanoseconds of CPU time the calling thread has consumed since
    /// [`ThreadTimer::start`] (falls back to wall-clock time if the per-thread CPU
    /// clock is unavailable on this platform).
    pub fn elapsed_ns(&self) -> u64 {
        if self.cpu_clock_ok {
            if let Some(now) = thread_cpu_time_ns() {
                return now.saturating_sub(self.start_ns);
            }
        }
        self.wall_start.elapsed().as_nanos() as u64
    }
}

/// Edges between two clock reads of a [`ComputeMeter`]. The thread CPU clock
/// is a real syscall (not vDSO) costing about as much as intersecting a
/// degree-64 row pair, so reading it around every remote edge would double a
/// rank's CPU time; once per 64 edges it is below 2 %.
pub const COMPUTE_STRIDE: u32 = 64;

/// Strided double-buffering accounting for the distributed edge loops.
///
/// The loop calls [`ComputeMeter::tick`] once per edge; every
/// [`COMPUTE_STRIDE`] ticks (and once more at loop end, through
/// [`ComputeMeter::bank`]) the meter reads the thread CPU clock and banks
/// everything the thread computed since the previous banking as overlap
/// credit ([`Endpoint::note_compute_ns`]). It reads the rank's own
/// [`ThreadTimer`], so the credit banked over a run can never exceed the
/// `compute_ns` that timer reports afterwards.
#[derive(Debug)]
pub struct ComputeMeter {
    timer: ThreadTimer,
    /// The timer reading up to which compute has been banked.
    banked_ns: u64,
    /// Ticks left until the next clock read.
    until_read: u32,
    /// Clock reads performed so far.
    clock_reads: u64,
}

impl ComputeMeter {
    /// A meter over `timer`, which should have been started just before the
    /// loop: everything since its start counts as not yet banked.
    pub fn new(timer: ThreadTimer) -> Self {
        Self {
            timer,
            banked_ns: 0,
            until_read: COMPUTE_STRIDE,
            clock_reads: 0,
        }
    }

    /// Counts one edge; banks on every [`COMPUTE_STRIDE`]-th call.
    #[inline]
    pub fn tick(&mut self, ep: &mut Endpoint) {
        self.until_read -= 1;
        if self.until_read == 0 {
            self.bank(ep);
        }
    }

    /// Reads the clock and banks the compute since the last banking on `ep`.
    /// Call once after the loop so the tail of the run is credited too.
    pub fn bank(&mut self, ep: &mut Endpoint) {
        let now = self.timer.elapsed_ns();
        self.clock_reads += 1;
        ep.note_compute_ns((now - self.banked_ns) as f64);
        self.banked_ns = now;
        self.until_read = COMPUTE_STRIDE;
    }

    /// Total compute banked so far, in nanoseconds.
    pub fn banked_ns(&self) -> u64 {
        self.banked_ns
    }

    /// How many times the meter has read the clock.
    pub fn clock_reads(&self) -> u64 {
        self.clock_reads
    }
}

/// Reads the calling thread's cumulative CPU time in nanoseconds, if the platform
/// exposes it.
#[cfg(unix)]
pub fn thread_cpu_time_ns() -> Option<u64> {
    let mut ts = libc::timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec and the clock id is a constant the
    // platform defines; the call writes the timestamp and returns 0 on success.
    let rc = unsafe { libc::clock_gettime(libc::CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if rc == 0 {
        Some(ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
    } else {
        None
    }
}

/// Non-Unix fallback: the per-thread CPU clock is not available.
#[cfg(not(unix))]
pub fn thread_cpu_time_ns() -> Option<u64> {
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_is_available_on_linux() {
        assert!(thread_cpu_time_ns().is_some());
    }

    #[test]
    fn timer_advances_with_work() {
        let timer = ThreadTimer::start();
        // Burn a little CPU.
        let mut acc = 0u64;
        for i in 0..2_000_000u64 {
            acc = acc.wrapping_add(i * i);
        }
        std::hint::black_box(acc);
        assert!(timer.elapsed_ns() > 0);
    }

    #[test]
    fn meter_reads_the_clock_once_per_stride_and_banks_at_most_compute_ns() {
        use crate::network::NetworkModel;
        for ticks in [0u64, 1, 63, 64, 65, 1000, 64 * 40] {
            let mut ep = Endpoint::new(0, 2, NetworkModel::aries());
            let timer = ThreadTimer::start();
            let mut meter = ComputeMeter::new(timer);
            let mut acc = 0u64;
            for i in 0..ticks {
                meter.tick(&mut ep);
                acc = acc.wrapping_add(std::hint::black_box(i) * i);
            }
            std::hint::black_box(acc);
            meter.bank(&mut ep);
            let compute_ns = timer.elapsed_ns();
            // One read per full stride plus the final one: ⌊N/S⌋ + 1, within
            // the ⌈N/S⌉ + 1 the loops are allowed.
            assert_eq!(
                meter.clock_reads(),
                ticks / u64::from(COMPUTE_STRIDE) + 1,
                "{ticks} ticks"
            );
            assert!(
                meter.banked_ns() <= compute_ns,
                "banked {} ns of {compute_ns} ns computed",
                meter.banked_ns()
            );
        }
    }

    #[test]
    fn sleeping_does_not_count_as_cpu_time() {
        let timer = ThreadTimer::start();
        std::thread::sleep(std::time::Duration::from_millis(50));
        // CPU time during sleep must be far below the 50 ms wall time.
        assert!(
            timer.elapsed_ns() < 40_000_000,
            "got {} ns",
            timer.elapsed_ns()
        );
    }

    #[test]
    fn other_threads_do_not_contribute() {
        let timer = ThreadTimer::start();
        let handle = std::thread::spawn(|| {
            let mut acc = 0u64;
            for i in 0..5_000_000u64 {
                acc = acc.wrapping_add(i);
            }
            acc
        });
        let busy = handle.join().expect("busy-loop helper thread panicked");
        std::hint::black_box(busy);
        // The spawned thread's work must not appear in this thread's CPU time; allow
        // a generous margin for the join bookkeeping itself.
        assert!(
            timer.elapsed_ns() < 20_000_000,
            "got {} ns",
            timer.elapsed_ns()
        );
    }
}
