//! Chaos test suite of the self-healing remote-read path: under seeded,
//! deterministic fault injection, every recoverable run must produce output
//! bit-identical to the fault-free run (the faults cost virtual time, never
//! correctness), fault counters must be non-zero exactly when faults were
//! injected, and unrecoverable plans must surface a clean [`RmaError`] —
//! never a panic and never a wrong count.
//!
//! Seeds are pinned for CI; set `RMATC_CHAOS_SEED=<u64>` to add one more to
//! the matrix (the scheduled randomized CI job does this). When a pinned-seed
//! check fails, the failing [`FaultPlan`] is written to `target/chaos/` as
//! its `{:?}` text, a `FaultPlan { .. }` expression with the exact seed, so
//! the schedule can be replayed exactly.

use proptest::prelude::*;
use rmatc::graph::gen::{GraphGenerator, RmatGenerator};
use rmatc::prelude::*;

// ---------------------------------------------------------------------------
// Harness: pinned seed matrix + failing-plan artifacts.
// ---------------------------------------------------------------------------

/// The pinned seed matrix, plus an optional `RMATC_CHAOS_SEED` override from
/// the environment (used by the scheduled randomized CI job).
fn chaos_seeds() -> Vec<u64> {
    let mut seeds = vec![1, 7, 42, 0xDEAD_BEEF, u64::MAX - 3];
    if let Ok(raw) = std::env::var("RMATC_CHAOS_SEED") {
        match raw.trim().parse::<u64>() {
            Ok(seed) => seeds.push(seed),
            Err(_) => eprintln!("RMATC_CHAOS_SEED={raw:?} is not a u64; ignoring"),
        }
    }
    seeds
}

/// Runs `f` under `plan`; if it panics (a failed assertion), the plan's
/// `{:?}` text is written to `target/chaos/<label>-seed-<seed>.txt` before
/// the panic is re-raised, so the exact fault schedule can be replayed with
/// `RMATC_CHAOS_SEED`.
fn with_plan_artifact<R>(plan: &FaultPlan, label: &str, f: impl FnOnce() -> R) -> R {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => {
            let dir = std::path::Path::new("target").join("chaos");
            let path = dir.join(format!("{label}-seed-{}.txt", plan.seed));
            let dumped = std::fs::create_dir_all(&dir)
                .and_then(|()| std::fs::write(&path, format!("{plan:?}\n")));
            match dumped {
                Ok(()) => eprintln!("chaos: failing fault plan written to {}", path.display()),
                Err(e) => eprintln!("chaos: could not write failing fault plan: {e}"),
            }
            std::panic::resume_unwind(payload)
        }
    }
}

fn graph() -> CsrGraph {
    RmatGenerator::paper(7, 8).generate_cleaned(77).into_csr()
}

/// A retry budget generous enough to outlast any recoverable plan in the
/// matrix (per-attempt fault decisions are independent draws, so p < 1 plans
/// clear well within this).
fn patient_retries() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 32,
        ..Default::default()
    }
}

// ---------------------------------------------------------------------------
// Pinned seed matrix: LCC and Jaccard under light and heavy plans.
// ---------------------------------------------------------------------------

#[test]
fn lcc_is_bit_identical_under_recoverable_fault_plans() {
    let g = graph();
    for ranks in [2usize, 4] {
        let clean = DistLcc::new(DistConfig::non_cached(ranks)).run(&g);
        assert_eq!(
            clean.total_fault_events(),
            0,
            "fault-free runs count nothing"
        );
        for seed in chaos_seeds() {
            for plan in [FaultPlan::light(seed), FaultPlan::heavy(seed)] {
                with_plan_artifact(&plan, "lcc", || {
                    let cfg = DistConfig::non_cached(ranks)
                        .with_faults(plan)
                        .with_retry(patient_retries());
                    let faulted = DistLcc::new(cfg)
                        .try_run(&g)
                        .expect("recoverable plans must heal");
                    assert_eq!(faulted.triangle_count, clean.triangle_count, "seed {seed}");
                    assert_eq!(
                        faulted.per_vertex_triangles, clean.per_vertex_triangles,
                        "seed {seed}"
                    );
                    assert_eq!(faulted.lcc, clean.lcc, "seed {seed}");
                    assert!(
                        faulted.total_fault_events() > 0,
                        "plan {plan:?} must actually inject faults"
                    );
                });
            }
        }
    }
}

#[test]
fn non_cached_lcc_heals_corrupted_landings_in_the_reused_buffer() {
    // The sequential non-cached worker lands every remote read in a buffer it
    // reuses (adjacency rows) or on the stack (offsets pairs). A corrupted
    // landing must be caught by the checksum over that buffer and overwritten
    // by the retry — never intersected into the answer — under both storage
    // modes.
    let g = graph();
    for storage in [GraphStorage::Plain, GraphStorage::Compressed] {
        let base = DistConfig::non_cached(2).with_storage(storage);
        let clean = DistLcc::new(base).run(&g);
        for seed in chaos_seeds() {
            let plan = FaultPlan::heavy(seed);
            with_plan_artifact(&plan, "lcc-landing", || {
                let cfg = base.with_faults(plan).with_retry(patient_retries());
                let faulted = DistLcc::new(cfg)
                    .try_run(&g)
                    .expect("recoverable plans must heal");
                assert_eq!(faulted.per_vertex_triangles, clean.per_vertex_triangles);
                assert_eq!(faulted.lcc, clean.lcc);
                let checksum_failures: u64 =
                    faulted.ranks.iter().map(|r| r.rma.checksum_failures).sum();
                let retries: u64 = faulted.ranks.iter().map(|r| r.rma.retries).sum();
                assert!(
                    checksum_failures > 0,
                    "the heavy plan must corrupt some landing (seed {seed}, {storage:?})"
                );
                assert!(
                    retries >= checksum_failures,
                    "every corrupted landing retries"
                );
            });
        }
    }
}

#[test]
fn cached_lcc_heals_corrupted_cache_entries() {
    let g = graph();
    let cache = 1usize << 20;
    let clean = DistLcc::new(DistConfig::cached(2, cache).with_degree_scores()).run(&g);
    for seed in chaos_seeds() {
        let plan = FaultPlan::heavy(seed);
        with_plan_artifact(&plan, "lcc-cached", || {
            let cfg = DistConfig::cached(2, cache)
                .with_degree_scores()
                .with_faults(plan)
                .with_retry(patient_retries());
            let faulted = DistLcc::new(cfg)
                .try_run(&g)
                .expect("recoverable plans must heal");
            assert_eq!(faulted.per_vertex_triangles, clean.per_vertex_triangles);
            assert_eq!(faulted.lcc, clean.lcc);
            // The heavy plan corrupts cached entries and rejects inserts; the
            // healed run must have seen (and counted) those events.
            let invalidations: u64 = faulted
                .ranks
                .iter()
                .map(|r| r.rma.cache_invalidations + r.rma.cache_rejections)
                .sum();
            assert!(
                invalidations > 0,
                "the heavy plan must hit the cache (seed {seed})"
            );
        });
    }
}

#[test]
fn offsets_spans_heal_light_plans_to_the_reference_answers() {
    // The cached configuration reads each owner's offsets window once,
    // through the same verified, self-healing get as a row: dropped,
    // corrupted and delayed window reads heal to the reference answers —
    // with `C_adj` and without it (a budget of 0 leaves only the offsets
    // copies), at depth 1 and 8.
    let g = graph();
    let expected = rmatc::graph::reference::per_vertex_triangles(&g);
    for seed in chaos_seeds() {
        let plan = FaultPlan::light(seed);
        for (budget, depth) in [(0usize, 1usize), (0, 8), (1 << 20, 1), (1 << 20, 8)] {
            with_plan_artifact(&plan, "lcc-spans", || {
                let cfg = DistConfig::cached(2, budget)
                    .with_degree_scores()
                    .with_pipeline_depth(depth)
                    .with_faults(plan)
                    .with_retry(patient_retries());
                let faulted = DistLcc::new(cfg)
                    .try_run(&g)
                    .expect("recoverable plans must heal");
                let what = format!("seed {seed}, budget {budget}, depth {depth}");
                assert_eq!(faulted.per_vertex_triangles, expected, "{what}");
                assert!(
                    faulted.total_fault_events() > 0,
                    "{what}: no fault injected"
                );
            });
        }
    }
}

#[test]
fn jaccard_is_bit_identical_under_recoverable_fault_plans() {
    let g = graph();
    let clean = DistJaccard::new(DistConfig::non_cached(3)).run(&g);
    for seed in chaos_seeds() {
        for plan in [FaultPlan::light(seed), FaultPlan::heavy(seed)] {
            with_plan_artifact(&plan, "jaccard", || {
                let cfg = DistConfig::non_cached(3)
                    .with_faults(plan)
                    .with_retry(patient_retries());
                let faulted = DistJaccard::new(cfg)
                    .try_run(&g)
                    .expect("recoverable plans must heal");
                assert_eq!(faulted.edges, clean.edges, "seed {seed}");
                let events: u64 = faulted.rank_stats.iter().map(|s| s.fault_events()).sum();
                assert!(events > 0, "plan {plan:?} must actually inject faults");
            });
        }
    }
}

#[test]
fn tric_stragglers_never_change_counts() {
    let g = graph();
    let clean = Tric::new(TricConfig::plain(4)).run(&g);
    // Plain TriC only runs a handful of exchanges per rank, so a single seed
    // can legitimately roll zero delays; the counter check is over the matrix.
    let mut delayed_across_matrix = 0u64;
    for seed in chaos_seeds() {
        let plan = FaultPlan::heavy(seed);
        delayed_across_matrix += with_plan_artifact(&plan, "tric", || {
            let faulted = Tric::new(TricConfig::plain(4).with_faults(plan)).run(&g);
            assert_eq!(faulted.triangle_count, clean.triangle_count, "seed {seed}");
            assert_eq!(faulted.lcc, clean.lcc, "seed {seed}");
            faulted.total_delayed_exchanges()
        });
    }
    assert!(
        delayed_across_matrix > 0,
        "the heavy plan must delay some exchange across the seed matrix"
    );
    assert_eq!(clean.total_delayed_exchanges(), 0);
}

// ---------------------------------------------------------------------------
// Unrecoverable plans: clean errors, never panics or wrong counts.
// ---------------------------------------------------------------------------

#[test]
fn unrecoverable_plans_error_cleanly() {
    let g = graph();
    for seed in chaos_seeds() {
        let plan = FaultPlan::unrecoverable(seed);
        assert!(!plan.is_recoverable());
        with_plan_artifact(&plan, "unrecoverable", || {
            let cfg = DistConfig::non_cached(2)
                .with_faults(plan)
                .with_retry(RetryPolicy::no_retries());
            let err = DistLcc::new(cfg).try_run(&g).expect_err("every get fails");
            assert!(
                matches!(err, RmaError::RetriesExhausted { .. }),
                "seed {seed}: got {err}"
            );
            // Same through the Jaccard path.
            let cfg = DistConfig::non_cached(2)
                .with_faults(plan)
                .with_retry(RetryPolicy::no_retries());
            let err = DistJaccard::new(cfg)
                .try_run(&g)
                .expect_err("every get fails");
            assert!(matches!(err, RmaError::RetriesExhausted { .. }));
        });
    }
}

#[test]
fn quarantine_degrades_to_the_non_cached_baseline_without_wrong_answers() {
    // A cache so sick that every hit is corrupted: after the quarantine
    // threshold the cache stops serving and every read bypasses to the plain
    // RMA path — the paper's non-cached baseline — with results intact.
    let g = graph();
    let clean = DistLcc::new(DistConfig::non_cached(2)).run(&g);
    for seed in chaos_seeds() {
        let plan = FaultPlan {
            cache_corrupt_p: 0.9,
            ..FaultPlan::reliable(seed)
        };
        with_plan_artifact(&plan, "quarantine", || {
            let cfg = DistConfig::cached(2, 1 << 20)
                .with_faults(plan)
                .with_retry(patient_retries());
            let faulted = DistLcc::new(cfg)
                .try_run(&g)
                .expect("cache corruption alone is always recoverable");
            assert_eq!(faulted.per_vertex_triangles, clean.per_vertex_triangles);
            let bypasses: u64 = faulted.ranks.iter().map(|r| r.rma.cache_bypass_reads).sum();
            assert!(
                bypasses > 0,
                "a cache this sick must quarantine and bypass (seed {seed})"
            );
        });
    }
}

// ---------------------------------------------------------------------------
// The overlapped worker under fire: pipelined gets must not change what a
// fault plan can do — recoverable plans heal to the
// fault-free answer, unrecoverable plans surface a clean error with every
// epoch closed even while gets are still in flight in the pipeline.
// ---------------------------------------------------------------------------

/// Pipeline depths exercised by the chaos matrix.
const OVERLAP_SETTINGS: [usize; 2] = [4, 8];

#[test]
fn overlapped_lcc_heals_recoverable_plans_to_the_fault_free_answer() {
    let g = graph();
    let clean = DistLcc::new(DistConfig::non_cached(2)).run(&g);
    for depth in OVERLAP_SETTINGS {
        for seed in chaos_seeds() {
            for plan in [FaultPlan::light(seed), FaultPlan::heavy(seed)] {
                with_plan_artifact(&plan, "lcc-overlapped", || {
                    let cfg = DistConfig::non_cached(2)
                        .with_pipeline_depth(depth)
                        .with_faults(plan)
                        .with_retry(patient_retries());
                    let faulted = DistLcc::new(cfg)
                        .try_run(&g)
                        .expect("recoverable plans must heal under overlap");
                    assert_eq!(
                        faulted.per_vertex_triangles, clean.per_vertex_triangles,
                        "depth {depth} seed {seed}"
                    );
                    assert_eq!(faulted.lcc, clean.lcc, "seed {seed}");
                    assert!(
                        faulted.total_fault_events() > 0,
                        "plan {plan:?} must actually inject faults"
                    );
                });
            }
        }
    }
}

#[test]
fn overlapped_cached_lcc_heals_corrupted_cache_entries() {
    // The overlapped cached path never admits unverified data: under faults
    // every miss is read synchronously and verified before the row can enter
    // the cache, so corruption costs retries, never answers.
    let g = graph();
    let clean = DistLcc::new(DistConfig::cached(2, 1 << 20).with_degree_scores()).run(&g);
    for seed in chaos_seeds() {
        let plan = FaultPlan::heavy(seed);
        with_plan_artifact(&plan, "lcc-cached-overlapped", || {
            let cfg = DistConfig::cached(2, 1 << 20)
                .with_degree_scores()
                .with_pipeline_depth(6)
                .with_faults(plan)
                .with_retry(patient_retries());
            let faulted = DistLcc::new(cfg)
                .try_run(&g)
                .expect("recoverable plans must heal under overlap");
            assert_eq!(faulted.per_vertex_triangles, clean.per_vertex_triangles);
            assert_eq!(faulted.lcc, clean.lcc, "seed {seed}");
        });
    }
}

#[test]
fn overlapped_jaccard_heals_recoverable_plans_to_the_fault_free_answer() {
    let g = graph();
    let clean = DistJaccard::new(DistConfig::non_cached(3)).run(&g);
    for depth in OVERLAP_SETTINGS {
        for seed in chaos_seeds() {
            let plan = FaultPlan::heavy(seed);
            with_plan_artifact(&plan, "jaccard-overlapped", || {
                let cfg = DistConfig::non_cached(3)
                    .with_pipeline_depth(depth)
                    .with_faults(plan)
                    .with_retry(patient_retries());
                let faulted = DistJaccard::new(cfg)
                    .try_run(&g)
                    .expect("recoverable plans must heal under overlap");
                assert_eq!(faulted.edges, clean.edges, "depth {depth} seed {seed}");
            });
        }
    }
}

#[test]
fn overlapped_unrecoverable_plans_error_cleanly_with_epochs_closed() {
    // A get fails terminally at a depth that keeps gets in flight when the
    // run is fault-free. Faulted reads are synchronous, so nothing is in
    // flight: the worker must close every access epoch (the endpoint panics
    // on un-flushed gets otherwise) and surface the error — no hang, no
    // panic, no partial answer.
    let g = graph();
    for depth in OVERLAP_SETTINGS {
        for seed in chaos_seeds() {
            let plan = FaultPlan::unrecoverable(seed);
            with_plan_artifact(&plan, "unrecoverable-overlapped", || {
                let cfg = DistConfig::non_cached(2)
                    .with_pipeline_depth(depth)
                    .with_faults(plan)
                    .with_retry(RetryPolicy::no_retries());
                let err = DistLcc::new(cfg).try_run(&g).expect_err("every get fails");
                assert!(
                    matches!(err, RmaError::RetriesExhausted { .. }),
                    "depth {depth} seed {seed}: got {err}"
                );
                let cfg = DistConfig::non_cached(2)
                    .with_pipeline_depth(depth)
                    .with_faults(plan)
                    .with_retry(RetryPolicy::no_retries());
                let err = DistJaccard::new(cfg)
                    .try_run(&g)
                    .expect_err("every get fails");
                assert!(matches!(err, RmaError::RetriesExhausted { .. }));
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Deterministic replay: same plan, same outcome.
// ---------------------------------------------------------------------------

#[test]
fn fault_schedules_are_deterministic_across_runs() {
    let g = graph();
    let plan = FaultPlan::heavy(123);
    let run = || {
        let mut cfg = DistConfig::non_cached(4)
            .with_faults(plan)
            .with_retry(patient_retries());
        // Double buffering's overlap credit depends on measured wall-clock
        // compute; off, the modeled communication time is exactly replayable.
        cfg.double_buffering = false;
        DistLcc::new(cfg).try_run(&g).expect("recoverable")
    };
    let a = run();
    let b = run();
    assert_eq!(a.per_vertex_triangles, b.per_vertex_triangles);
    // Not just the outputs: the entire fault schedule replays identically,
    // because decisions hash (seed, rank, event counter), not thread timing.
    for (ra, rb) in a.ranks.iter().zip(b.ranks.iter()) {
        assert_eq!(ra.rma.retries, rb.rma.retries);
        assert_eq!(ra.rma.transient_failures, rb.rma.transient_failures);
        assert_eq!(ra.rma.checksum_failures, rb.rma.checksum_failures);
        assert_eq!(ra.rma.delayed_gets, rb.rma.delayed_gets);
        assert_eq!(ra.rma.comm_time_ns, rb.rma.comm_time_ns);
    }
}

// ---------------------------------------------------------------------------
// Property: arbitrary recoverable schedules over plans drawn by proptest.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn arbitrary_recoverable_plans_heal_to_identical_results(
        (seed, ranks) in (any::<u64>(), 2usize..=4),
        (get_failure_p, delay_p, corrupt_p) in (0.0f64..0.3, 0.0f64..0.3, 0.0f64..0.3),
        (cache_reject_p, cache_corrupt_p) in (0.0f64..0.3, 0.0f64..0.3),
        (max_attempts, with_timeout) in (16u32..=20, any::<bool>()),
        cached in any::<bool>(),
    ) {
        let g = graph();
        let plan = FaultPlan {
            seed,
            get_failure_p,
            delay_p,
            delay_factor: 8.0,
            corrupt_p,
            cache_reject_p,
            cache_corrupt_p,
        };
        prop_assert!(plan.validate().is_ok());
        prop_assert!(plan.is_recoverable());
        let retry = RetryPolicy {
            max_attempts,
            // A timeout below the delayed cost turns stragglers into retried
            // timeouts — the retry path; without it they only cost time.
            timeout_ns: with_timeout.then_some(100_000.0),
            ..Default::default()
        };
        let base = if cached {
            DistConfig::cached(ranks, 1 << 20)
        } else {
            DistConfig::non_cached(ranks)
        };
        let clean = DistLcc::new(base).run(&g);
        let faulted = DistLcc::new(base.with_faults(plan).with_retry(retry))
            .try_run(&g)
            .expect("recoverable plans with a patient budget must heal");
        prop_assert_eq!(&faulted.per_vertex_triangles, &clean.per_vertex_triangles);
        prop_assert_eq!(&faulted.lcc, &clean.lcc);
        // Counters fire exactly when the plan can inject at all.
        if plan.is_reliable() {
            prop_assert_eq!(faulted.total_fault_events(), 0);
        }
        prop_assert_eq!(clean.total_fault_events(), 0);
    }
}

// ---------------------------------------------------------------------------
// The resident query service under fire: a long-lived engine must heal
// recoverable plans per query (answers bit-identical to a clean engine's, with
// non-zero fault counters), and unrecoverable plans must fail the affected
// queries with a clean typed error without poisoning the engine for anything
// that comes after.
// ---------------------------------------------------------------------------

/// A deterministic degree-weighted query mix over the chaos graph, exercising
/// all four query kinds.
fn service_query_mix(g: &CsrGraph, count: usize) -> Vec<Query> {
    let adj = g.adjacencies();
    let n = g.vertex_count() as u64;
    let mut state = 0xfeed_face_cafe_0001u64;
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_f491_4f6c_dd1d)
    };
    (0..count)
        .map(|_| {
            let pos = next() % adj.len() as u64;
            let u = (g.offsets().partition_point(|&o| o <= pos) - 1) as u32;
            let v = adj[pos as usize];
            match next() % 4 {
                0 => Query::CommonNeighbors { u, v },
                1 => Query::Jaccard { u, v },
                2 => Query::TopK {
                    u,
                    k: (next() % 6) as usize,
                },
                _ => Query::LccOf {
                    v: (next() % n) as u32,
                },
            }
        })
        .collect()
}

fn service_config(ranks: usize) -> DistConfig {
    DistConfig::cached(ranks, 1 << 20).with_degree_scores()
}

#[test]
fn resident_service_heals_recoverable_plans_per_query() {
    let g = graph();
    let ranks = 2;
    let queries = service_query_mix(&g, 80);
    // The clean resident engine produces the reference answers.
    let mut clean_engine = QueryEngine::new(
        &g,
        ServiceConfig::new(service_config(ranks)).with_batch_size(16),
    )
    .unwrap();
    for &q in &queries {
        clean_engine.submit(q).unwrap();
    }
    let clean: Vec<QueryAnswer> = clean_engine
        .drain()
        .into_iter()
        .map(|r| r.result.expect("fault-free queries succeed"))
        .collect();
    assert_eq!(clean_engine.stats().rma.fault_events(), 0);
    for seed in chaos_seeds() {
        for plan in [FaultPlan::light(seed), FaultPlan::heavy(seed)] {
            with_plan_artifact(&plan, "service", || {
                let dist = service_config(ranks)
                    .with_faults(plan)
                    .with_retry(patient_retries());
                let mut engine =
                    QueryEngine::new(&g, ServiceConfig::new(dist).with_batch_size(16)).unwrap();
                for &q in &queries {
                    engine.submit(q).unwrap();
                }
                let responses = engine.drain();
                assert_eq!(responses.len(), clean.len());
                for (resp, want) in responses.iter().zip(&clean) {
                    let got = resp
                        .result
                        .as_ref()
                        .expect("recoverable plans heal per query");
                    assert_eq!(got, want, "seed {seed}");
                }
                let stats = engine.stats();
                assert!(
                    stats.rma.fault_events() > 0,
                    "plan {plan:?} must actually inject faults"
                );
                assert!(stats.reconciles(), "seed {seed}: {stats:?}");
            });
        }
    }
}

#[test]
fn resident_service_survives_unrecoverable_plans_without_poisoning() {
    let g = graph();
    let ranks = 2;
    // A pair query whose operands are co-located (no remote reads, immune to
    // get faults) and one whose home row has a remote neighbour (must fail
    // under an unrecoverable plan).
    let mut probe = QueryEngine::new(&g, ServiceConfig::new(service_config(ranks))).unwrap();
    let pg = probe.partitioned_graph();
    let mut local_pair = None;
    let mut remote_query = None;
    for v in 0..pg.global_vertex_count() as u32 {
        let owner = pg.partitioner.owner(v);
        for &w in pg.partitions[owner].neighbours_of_local(pg.partitioner.local_index(v)) {
            if pg.partitioner.owner(w) == owner {
                local_pair.get_or_insert(Query::Jaccard { u: v, v: w });
            } else {
                remote_query.get_or_insert(Query::Jaccard { u: v, v: w });
            }
        }
    }
    let local_pair = local_pair.expect("block partitions keep intra-rank edges");
    let remote_query = remote_query.expect("2-rank partitions of this graph have remote edges");
    let local_answer = probe.oneshot(local_pair).expect("clean run succeeds");
    drop(probe);

    for seed in chaos_seeds() {
        let plan = FaultPlan::unrecoverable(seed);
        with_plan_artifact(&plan, "service-unrecoverable", || {
            let dist = service_config(ranks)
                .with_faults(plan)
                .with_retry(RetryPolicy::no_retries());
            let mut engine = QueryEngine::new(&g, ServiceConfig::new(dist)).unwrap();
            // The remote-dependent query fails with a clean typed error.
            let err = engine.oneshot(remote_query).expect_err("every get fails");
            assert!(
                matches!(err, ServiceError::Read(RmaError::RetriesExhausted { .. })),
                "seed {seed}: got {err}"
            );
            // The engine is not poisoned: a co-located query still succeeds
            // with the clean answer, errors stay per-query under interleaving.
            for _ in 0..3 {
                let got = engine
                    .oneshot(local_pair)
                    .expect("local queries are immune to get faults");
                assert_eq!(got, local_answer, "seed {seed}");
                let err = engine.oneshot(remote_query).expect_err("still failing");
                assert!(matches!(err, ServiceError::Read(_)));
            }
            let stats = engine.stats();
            assert!(stats.reconciles(), "seed {seed}: {stats:?}");
            assert_eq!(stats.completed, 3);
            assert_eq!(stats.failed, 4);
            assert_eq!(stats.queue_depth, 0);
        });
    }
}
