//! Stress tests of the persistent work-stealing pool behind the `rayon`
//! facade: many repeated small parallel invocations must reuse the same
//! worker threads (no spawn per call), return deterministic counts, and
//! survive concurrent submitters.

use rayon::prelude::*;
use rmatc::prelude::*;
use rmatc_graph::gen::{GraphGenerator, RmatGenerator, WattsStrogatz};

/// Current OS-thread count of this process, from /proc (Linux-only; the
/// portable `rayon::threads_spawned` counter is the primary assertion).
#[cfg(target_os = "linux")]
fn os_thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

#[test]
fn repeated_small_parallel_runs_reuse_the_pool_and_stay_deterministic() {
    let graphs: Vec<CsrGraph> = vec![
        RmatGenerator::paper(8, 8).generate_cleaned(1).into_csr(),
        WattsStrogatz::new(256, 6, 0.1)
            .generate_cleaned(2)
            .into_csr(),
    ];
    let configs = [LocalConfig::parallel(4), LocalConfig::parallel(2)];

    // Warm the pool, then snapshot both thread counters.
    let baseline: Vec<u64> = graphs
        .iter()
        .map(|g| LocalLcc::new(configs[0]).run(g).triangle_count)
        .collect();
    let spawned_before = rayon::threads_spawned();
    assert!(
        spawned_before > 0 && spawned_before <= rayon::current_num_threads(),
        "pool must exist after the first parallel run"
    );
    #[cfg(target_os = "linux")]
    let os_threads_before = os_thread_count();

    // Hammer the pool with many small invocations at both thread counts.
    for round in 0..50 {
        let config = configs[round % configs.len()];
        for (g, &expected) in graphs.iter().zip(&baseline) {
            let result = LocalLcc::new(config).run(g);
            assert_eq!(
                result.triangle_count, expected,
                "round {round} at {} threads diverged",
                config.threads
            );
        }
    }

    assert_eq!(
        rayon::threads_spawned(),
        spawned_before,
        "parallel calls must not spawn OS threads once the pool exists"
    );
    #[cfg(target_os = "linux")]
    if let (Some(before), Some(after)) = (os_threads_before, os_thread_count()) {
        // Slack of 4: the sibling test in this binary may be running its
        // scoped rank threads concurrently. The hard no-spawn guarantee is
        // the `threads_spawned` assertion above.
        assert!(
            after <= before + 4,
            "process thread count grew from {before} to {after} — the pool leaked threads"
        );
    }
}

/// The nested-parallelism stress body, run in a child process so the pool
/// size (fixed per process) can be varied: a parallel map whose workers open
/// `scope`s that spawn tasks that themselves open parallel regions — nesting
/// depth 3 — repeated enough to exercise stealing, with thread counters
/// asserted flat throughout.
fn nested_stress_body() {
    use std::sync::atomic::{AtomicUsize, Ordering};

    let size = rayon::ensure_pool(0);
    let spawned = rayon::threads_spawned();
    assert_eq!(spawned, size, "pool spawns exactly its size");
    for round in 0..20 {
        let hits = AtomicUsize::new(0);
        let total: u64 = (0..32usize)
            .into_par_iter()
            .map(|i| {
                rayon::scope(|s| {
                    for _ in 0..4 {
                        s.spawn(|inner| {
                            hits.fetch_add(1, Ordering::Relaxed);
                            inner.spawn(|_| {
                                hits.fetch_add(1, Ordering::Relaxed);
                                // Depth 3: a parallel sum from inside a task
                                // spawned by a task spawned inside a worker.
                                let s: u64 = (0..16usize).into_par_iter().map(|x| x as u64).sum();
                                assert_eq!(s, 120);
                            });
                        });
                    }
                });
                i as u64
            })
            .sum();
        assert_eq!(total, (0..32).sum::<usize>() as u64, "round {round}");
        assert_eq!(hits.load(Ordering::Relaxed), 32 * 8, "round {round}");
    }
    assert_eq!(
        rayon::threads_spawned(),
        spawned,
        "nested parallelism must not spawn threads beyond the pool"
    );
}

/// Runs one test of this binary in a child process with a forced pool size,
/// killing it if it exceeds `timeout` (a deadlocked nested pool must fail the
/// suite, not hang it).
fn run_child(test_name: &str, child_var: &str, threads: &str, timeout: std::time::Duration) {
    let exe = std::env::current_exe().expect("test binary path");
    let mut child = std::process::Command::new(&exe)
        .args(["--exact", test_name, "--nocapture", "--test-threads=1"])
        .env(child_var, "1")
        .env("RMATC_THREADS", threads)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn child test process");
    let deadline = std::time::Instant::now() + timeout;
    let status = loop {
        match child.try_wait().expect("poll child") {
            Some(status) => break status,
            None if std::time::Instant::now() > deadline => {
                let _ = child.kill();
                panic!("RMATC_THREADS={threads}: child deadlocked (killed after {timeout:?})");
            }
            None => std::thread::sleep(std::time::Duration::from_millis(20)),
        }
    };
    let out = child.wait_with_output().expect("collect child output");
    assert!(
        status.success(),
        "RMATC_THREADS={threads}: child failed\nstdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
}

#[test]
fn nested_scope_inside_worker_survives_all_pool_sizes() {
    if std::env::var("RMATC_POOL_NESTED_CHILD").is_ok() {
        nested_stress_body();
        return;
    }
    // Pool size 1 (the deadlock-critical case: nothing to split to), 2 (one
    // thief), and N (whatever this host gives, stealing under contention).
    for threads in ["1", "2", "8"] {
        run_child(
            "nested_scope_inside_worker_survives_all_pool_sizes",
            "RMATC_POOL_NESTED_CHILD",
            threads,
            std::time::Duration::from_secs(120),
        );
    }
}

#[test]
fn nested_panics_propagate_and_pool_survives() {
    rayon::ensure_pool(4);
    let result = std::panic::catch_unwind(|| {
        let _: Vec<u64> = (0..8usize)
            .into_par_iter()
            .map(|i| {
                rayon::scope(|s| {
                    s.spawn(move |_| {
                        if i == 3 {
                            panic!("nested boom");
                        }
                    });
                });
                i as u64
            })
            .collect();
    });
    assert!(
        result.is_err(),
        "a panic inside a task spawned from a worker must reach the submitter"
    );
    // The pool must absorb the unwound job and stay usable.
    let total: u64 = (0..100usize).into_par_iter().map(|x| x as u64).sum();
    assert_eq!(total, 4_950);
}

#[test]
fn concurrent_submitters_get_independent_correct_results() {
    let g = RmatGenerator::paper(8, 8).generate_cleaned(3).into_csr();
    let expected = LocalLcc::new(LocalConfig::sequential())
        .run(&g)
        .triangle_count;
    std::thread::scope(|scope| {
        for worker in 0..4 {
            let g = &g;
            scope.spawn(move || {
                for _ in 0..10 {
                    let config = LocalConfig::parallel(if worker % 2 == 0 { 4 } else { 2 });
                    assert_eq!(LocalLcc::new(config).run(g).triangle_count, expected);
                }
            });
        }
    });
}
