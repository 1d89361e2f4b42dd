//! Stress tests of `LocalLcc`'s range driver, which runs the degree-weighted
//! vertex ranges on scoped threads spawned per call: repeated small parallel
//! runs must return the sequential counts and leave no thread behind, runs
//! nested inside other threads and concurrent callers must stay correct, and
//! a panic inside a range must reach the caller without breaking later runs.

use rmatc::prelude::*;
use rmatc_graph::gen::{GraphGenerator, RmatGenerator, WattsStrogatz};

/// Current OS-thread count of this process, from /proc (Linux-only).
#[cfg(target_os = "linux")]
fn os_thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

fn sequential_counts(g: &CsrGraph) -> Vec<u64> {
    LocalLcc::new(LocalConfig::sequential())
        .run(g)
        .per_vertex_triangles
}

#[test]
fn repeated_small_parallel_runs_reuse_the_pool_and_stay_deterministic() {
    let graphs: Vec<CsrGraph> = vec![
        RmatGenerator::paper(8, 8).generate_cleaned(1).into_csr(),
        WattsStrogatz::new(256, 6, 0.1)
            .generate_cleaned(2)
            .into_csr(),
    ];
    let expected: Vec<Vec<u64>> = graphs.iter().map(sequential_counts).collect();
    let configs = [LocalConfig::parallel(4), LocalConfig::parallel(2)];
    #[cfg(target_os = "linux")]
    let os_threads_before = os_thread_count();

    for round in 0..50 {
        let config = configs[round % configs.len()];
        for (g, expected) in graphs.iter().zip(&expected) {
            let result = LocalLcc::new(config).run(g);
            assert_eq!(
                &result.per_vertex_triangles, expected,
                "round {round} at {} threads diverged",
                config.threads
            );
        }
    }

    // Every run joins its threads before returning, so the count must come
    // back to the baseline. The sibling tests of this binary start and end
    // threads of their own meanwhile: wait for them to finish, not for a
    // leaked thread, which would never go.
    #[cfg(target_os = "linux")]
    if let Some(before) = os_threads_before {
        use std::time::{Duration, Instant};
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut after = os_thread_count().expect("readable once");
        while after > before && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
            after = os_thread_count().expect("readable once");
        }
        assert!(
            after <= before,
            "process thread count grew from {before} to {after}: a run leaked threads"
        );
    }
}

#[test]
fn nested_scope_inside_worker_survives_all_pool_sizes() {
    let g = RmatGenerator::paper(8, 8).generate_cleaned(4).into_csr();
    let expected = sequential_counts(&g);
    // One thread (the range loop runs on the caller), two and eight, each
    // started from inside the workers of an outer scope.
    std::thread::scope(|outer| {
        for worker in 0..3 {
            let (g, expected) = (&g, &expected);
            outer.spawn(move || {
                for round in 0..4 {
                    for threads in [1, 2, 8] {
                        let result = LocalLcc::new(LocalConfig::parallel(threads)).run(g);
                        assert_eq!(
                            &result.per_vertex_triangles, expected,
                            "outer worker {worker}, round {round}, {threads} threads"
                        );
                    }
                }
            });
        }
    });
}

#[test]
fn nested_panics_propagate_and_pool_survives() {
    // A valid graph plus one extra vertex whose only neighbour is out of
    // range: counting that row panics inside whichever thread runs the last
    // range.
    let g = RmatGenerator::paper(8, 8).generate_cleaned(5).into_csr();
    let n = g.vertex_count() as u32;
    let mut offsets = g.offsets().to_vec();
    let mut adjacencies: Vec<u32> = (0..n).flat_map(|u| g.neighbours(u).to_vec()).collect();
    adjacencies.push(n + 1_000);
    offsets.push(adjacencies.len() as u64);
    let broken = CsrGraph::from_raw_parts(offsets, adjacencies, g.direction());
    let config = LocalConfig::parallel(4).with_storage(GraphStorage::Plain);

    let payload = std::panic::catch_unwind(|| LocalLcc::new(config).run(&broken))
        .expect_err("a panic inside a range must reach the caller");
    // The caller sees the range's own panic, not a later one caused by a
    // missing partial.
    let message = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or_default();
    assert!(
        message.contains("index out of bounds") && message.contains(&(n + 1_000).to_string()),
        "unexpected panic: {message:?}"
    );
    // The next run starts fresh threads and must succeed.
    assert_eq!(
        LocalLcc::new(config).run(&g).per_vertex_triangles,
        sequential_counts(&g)
    );
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
