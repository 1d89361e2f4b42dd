//! Bench-history regression gate.
//!
//! Usage: `bench-diff [--threshold <pct>] <history.ndjson>...`
//!
//! For every history file (written by `cargo bench ... -- --history <path>`),
//! compares the newest run's medians against the previous run's and prints a
//! per-benchmark delta table. Exits non-zero when any benchmark's median
//! regressed by more than its threshold between two runs on the same host;
//! runs recorded on different hosts are reported but never gated, because
//! their timings are not comparable.
//!
//! Thresholds are per benchmark: the default is 15% (overridable with
//! `--threshold`), but benchmarks listed in [`PER_BENCH_THRESHOLD_PCT`] carry
//! their own wider band — microbenches whose whole body is a cache probe or a
//! handful of loads (e.g. `remote_read/cached_hit`) jitter well past 15% on
//! shared CI runners without any code change, and a gate that cries wolf gets
//! ignored. Keys match by prefix, so one entry can cover a parameterized
//! family like `service/drive/...`.

use rmatc_bench::history::{compare_latest, parse_history};
use std::process::ExitCode;

const DEFAULT_THRESHOLD_PCT: f64 = 15.0;

/// Benchmarks allowed a wider regression band than the default, as
/// `(key prefix, threshold pct)`. First matching prefix wins.
///
/// Rationale per entry — keep this comment honest when editing:
/// * `remote_read/cached_hit` — ~100 ns of pure cache-probe; a scheduler
///   hiccup during its short sample window shifts the median by tens of
///   percent (an A/B of identical code on the single-core container
///   measured a ±31% run-to-run spread, so the band must clear that).
/// * `remote_read/cached_cold` — eviction-heavy loop, sensitive to physical
///   page layout run-to-run.
/// * `remote_read/non_cached` / `remote_read/faulty_path_off` — per-edge
///   transfer loop on the same read path; measured same-code run-to-run
///   swing on the single-core container is 20-30% (an A/B against the
///   pre-robustness tree under matched load showed the code itself neutral).
/// * `cache_policy/replay/` — trace-replay timings of the two score rules
///   (`paper_score`, `paper_score_degree`) over a whole synthetic access
///   trace; dominated by hash/alloc churn whose run-to-run swing on a shared
///   runner exceeds the default band. The `missrate_ppm` /
///   `net_bytes_per_lookup` *metric* records from the same bench are fully
///   deterministic and deliberately NOT listed: any drift there is a real
///   change in the cache's decisions and should trip the default gate.
/// * `remote_read/non_overlapped_injected` / `remote_read/pipelined` — spin
///   for injected Aries latencies in wall time, so absolute medians track
///   the host's timer/scheduler as much as the code; the overlap *ratio*
///   between them is the guarded property (see `docs/OVERLAP.md`), and a
///   real loss of overlap moves `pipelined` far beyond this band anyway.
/// * `remote_read/compressed_hit` / `remote_read/compressed_cold` — same
///   short read loops as their plain counterparts (`cached_hit` /
///   `cached_cold`) with the block decode inside the intersection on top,
///   so they inherit the same run-to-run jitter bands. The paired
///   `compressed/...` *metric* rows (compression ratio, stored bytes per
///   lookup) are deterministic and deliberately NOT listed — drift there is
///   a real codec or admission change and should trip the default gate.
/// * `service/drive/` — a whole resident-engine drive (partitioning, window
///   build, thousands of queries) per iteration; alloc and scheduler churn
///   dominate the small-sample median on a shared runner.
/// * `service/p50_ns` / `service/p99_ns` — virtual-latency percentiles whose
///   clock includes *measured* batch compute time, so they inherit wall-time
///   jitter. The `service/dedup_ratio_x1000` and `service/missrate_ppm`
///   metric rows from the same bench are fully deterministic (modeled
///   network, deterministic stream) and deliberately NOT listed: drift there
///   is a real batching or caching behaviour change and should trip the
///   default gate.
const PER_BENCH_THRESHOLD_PCT: &[(&str, f64)] = &[
    ("remote_read/cached_hit", 50.0),
    ("remote_read/cached_cold", 25.0),
    ("remote_read/compressed_hit", 50.0),
    ("remote_read/compressed_cold", 25.0),
    ("remote_read/non_cached", 25.0),
    ("remote_read/faulty_path_off", 25.0),
    ("remote_read/non_overlapped_injected", 30.0),
    ("remote_read/pipelined", 30.0),
    ("cache_policy/replay/", 30.0),
    ("service/drive/", 30.0),
    ("service/p50_ns", 40.0),
    ("service/p99_ns", 40.0),
];

/// The gate threshold (fraction, not percent) for one benchmark key.
fn threshold_for(key: &str, default_pct: f64) -> f64 {
    PER_BENCH_THRESHOLD_PCT
        .iter()
        .find(|(prefix, _)| key.starts_with(prefix))
        .map(|&(_, pct)| pct)
        .unwrap_or(default_pct)
        / 100.0
}

fn main() -> ExitCode {
    let mut default_pct = DEFAULT_THRESHOLD_PCT;
    let mut paths = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threshold" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(pct) if pct > 0.0 => default_pct = pct,
                _ => {
                    eprintln!("--threshold requires a positive percentage");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("usage: bench-diff [--threshold <pct>] <history.ndjson>...");
                return ExitCode::SUCCESS;
            }
            _ => paths.push(arg),
        }
    }
    if paths.is_empty() {
        eprintln!("usage: bench-diff [--threshold <pct>] <history.ndjson>...");
        return ExitCode::from(2);
    }

    let mut failed = false;
    for path in &paths {
        let content = match std::fs::read_to_string(path) {
            Ok(content) => content,
            Err(e) => {
                eprintln!("{path}: cannot read: {e}");
                failed = true;
                continue;
            }
        };
        let runs = parse_history(&content);
        println!("== {path} ({} runs recorded)", runs.len());
        let Some(comparison) = compare_latest(&runs) else {
            println!("   no previous run to compare against — gate skipped");
            continue;
        };
        println!(
            "   {} -> {}{}",
            short(&comparison.old_commit),
            short(&comparison.new_commit),
            if comparison.host_mismatch {
                "  [different hosts: reporting only, gate disarmed]"
            } else {
                ""
            }
        );
        let mut regressions = 0usize;
        for delta in &comparison.deltas {
            let threshold = threshold_for(&delta.key, default_pct);
            let change = delta.relative_change() * 100.0;
            let regressed = !comparison.host_mismatch && delta.relative_change() > threshold;
            let marker = if regressed {
                regressions += 1;
                "  << REGRESSION"
            } else {
                ""
            };
            // Spread context from --repeat runs: a delta inside the new
            // run's own spread is indistinguishable from noise.
            let spread = if delta.new_spread_pct > 0.0 {
                format!(" [spread ±{:.1}%]", delta.new_spread_pct)
            } else {
                String::new()
            };
            println!(
                "   {:<56} {:>12.0} ns -> {:>12.0} ns  {:>+7.1}% (gate {:.0}%){spread}{marker}",
                delta.key,
                delta.old_median_ns,
                delta.new_median_ns,
                change,
                threshold * 100.0
            );
        }
        if regressions > 0 {
            eprintln!("{path}: {regressions} benchmark(s) regressed past their threshold");
            failed = true;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn short(commit: &str) -> &str {
    commit.get(..12).unwrap_or(commit)
}
