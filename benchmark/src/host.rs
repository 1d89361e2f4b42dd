//! Host hygiene and host facts: environment scrubbing, process CPU time, peak
//! resident set, and the description of the machine a result came from.

use std::process::Command;

/// Variables that change what the library computes or how many threads it
/// uses. Every workload sets its options explicitly; these are removed so no
/// caller's environment can change the input.
pub const SCRUBBED_ENV: [&str; 4] = [
    "RMATC_STORAGE",
    "RMATC_PROFILE",
    "RMATC_THREADS",
    "RAYON_NUM_THREADS",
];

/// Removes [`SCRUBBED_ENV`] from this process. Call before any thread starts.
pub fn scrub_env() {
    for var in SCRUBBED_ENV {
        std::env::remove_var(var);
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux, the only platform the benchmark runs on.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU time this process has consumed on all its threads, in
/// seconds, at nanosecond resolution (`/proc/self/stat` only has 10 ms ticks).
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit fields
    // on 64-bit Linux) and the clock id is a constant the platform defines;
    // the call only writes the timestamp.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is unavailable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// The machine and toolchain a result was recorded on.
#[derive(Debug, Clone)]
pub struct HostInfo {
    pub nproc: usize,
    pub arch: &'static str,
    pub rustc: String,
    pub commit: String,
}

impl HostInfo {
    pub fn detect() -> Self {
        Self {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            arch: std::env::consts::ARCH,
            rustc: first_line_of("rustc", &["--version"]),
            commit: first_line_of("git", &["rev-parse", "HEAD"]),
        }
    }

    /// The batch workloads run one thread per rank on two ranks: with fewer
    /// than two cores the timings measure the scheduler (counts stay valid).
    pub fn oversubscribed(&self) -> bool {
        self.nproc < 2
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"arch\": \"{}\", \"rustc\": \"{}\", \"commit\": \"{}\", \"oversubscribed\": {}}}",
            self.nproc,
            self.arch,
            self.rustc,
            self.commit,
            self.oversubscribed()
        )
    }
}

/// First line a command prints, or `unknown` (the driver's checkout is not a
/// git repository, and a host may lack either tool).
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|s| s.lines().next().map(|l| l.replace(['"', '\\'], "")))
        .filter(|l| !l.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let before = process_cpu_s();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        assert!(process_cpu_s() > before, "{x}");
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 1.0);
    }

    #[test]
    fn missing_tools_read_as_unknown() {
        assert_eq!(first_line_of("rmatc-no-such-tool", &[]), "unknown");
    }
}
