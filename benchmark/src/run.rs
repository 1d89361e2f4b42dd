//! One run of one workload: set-up, then either the untraced pass that
//! produces the end-to-end metrics or the traced pass that produces the
//! per-layer metrics and the span file.

use crate::batch::{self, Output, Reference, Rep, Runner};
use crate::host;
use crate::inputs::{self, Built, Sizing, Visit, Workload};
use crate::probes::{self, Exposed};
use crate::report::{Metrics, RunReport};
use crate::service::{self, Driver};
use crate::stats::{median, percentile};
use crate::trace::{SpanId, Trace};
use rmatc::clampi::CacheStats;
use rmatc::prelude::*;
use rmatc::rma::RankStats;
use std::time::Instant;

/// What the command line asked for.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// How long the timed part measures.
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    /// Test-only hook: check against a deliberately wrong reference.
    pub wrong_reference: bool,
}

impl Options {
    fn sizing(&self) -> Sizing {
        if self.quick {
            Sizing::quick()
        } else {
            Sizing::full()
        }
    }
}

struct Setup {
    built: Built,
    engine: Option<QueryEngine>,
    /// Wall time of every set-up made, in seconds.
    totals: Vec<f64>,
    generate_s: f64,
    partition_s: f64,
}

/// Sets the workload up again and again (generate, clean, CSR, partition; the
/// service also builds its resident engine) — at least `setup_builds` times
/// and for `seconds`, because a set-up takes only tens of milliseconds and
/// its median needs the samples — and keeps the last. The RMA windows of the
/// batch workloads are built by the library inside every `run_partitioned`,
/// so that cost is in `wall_s` / `cpu_s`, not here.
fn set_up(opts: &Options, sizing: &Sizing, seconds: f64, trace: &mut Trace, root: SpanId) -> Setup {
    let span = trace.open("setup", Some(root));
    let (mut totals, mut generates, mut partitions) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    let started = Instant::now();
    while keep_going(totals.len(), sizing.setup_builds, started, seconds) {
        // Drop the previous build first: the peak resident set holds one.
        drop(last.take());
        let start = Instant::now();
        let built = inputs::build(opts.workload, opts.seed, sizing, trace, span);
        let engine = (opts.workload == Workload::ServiceHubmix)
            .then(|| trace.span("service.build", span, || service::engine(&built)));
        totals.push(start.elapsed().as_secs_f64());
        generates.push(built.generate_s);
        partitions.push(built.partition_s);
        last = Some((built, engine));
    }
    trace.close(span);
    let (built, engine) = last.expect("at least one set-up");
    Setup {
        built,
        engine,
        totals,
        generate_s: median(&generates),
        partition_s: median(&partitions),
    }
}

/// Whether the timed loop goes on: at least `min_reps`, then until the clock
/// passes `seconds`.
fn keep_going(done: usize, min_reps: usize, started: Instant, seconds: f64) -> bool {
    done < min_reps || started.elapsed().as_secs_f64() < seconds
}

/// The three costs of every timed repetition, and the peak resident set
/// once `rss_after` of them are done.
struct Samples {
    walls: Vec<f64>,
    cpus: Vec<f64>,
    modeled: Vec<f64>,
    rss_after: usize,
    peak_rss_mb: f64,
}

impl Samples {
    /// The resident set is read after the `min_reps` repetitions every run
    /// makes — a fixed amount of work — and not at the end: how many more
    /// fit into `--seconds` depends on the host, and the engine's latency
    /// log (a vector that doubles) would turn that into megabytes.
    fn new(sizing: &Sizing) -> Self {
        Self {
            walls: Vec::new(),
            cpus: Vec::new(),
            modeled: Vec::new(),
            rss_after: sizing.min_reps,
            peak_rss_mb: 0.0,
        }
    }

    fn push(&mut self, wall_s: f64, cpu_s: f64, modeled_s: f64) {
        self.walls.push(wall_s);
        self.cpus.push(cpu_s);
        self.modeled.push(modeled_s);
        if self.walls.len() == self.rss_after {
            self.peak_rss_mb = host::peak_rss_mb();
        }
    }
}

/// Every end-to-end metric but `setup_s`, which [`run`] adds.
fn end_to_end(samples: &Samples, items_per_rep: u64, tail_s: f64) -> Metrics {
    let mut m = Metrics::end_to_end();
    m.set("wall_s", median(&samples.walls));
    m.set("cpu_s", median(&samples.cpus));
    m.set("modeled_s", median(&samples.modeled));
    m.set("items_per_s", items_per_rep as f64 / median(&samples.walls));
    m.set("tail_ms", tail_s * 1e3);
    m.set("peak_rss_mb", samples.peak_rss_mb);
    m
}

fn graph_metrics(setup: &Setup, exposed: &Exposed, reference: &Reference, layer: &mut Metrics) {
    layer.set("graph.generate_s", setup.generate_s);
    layer.set("graph.partition_s", setup.partition_s);
    layer.set("graph.compress_s", exposed.compress_s);
    layer.set(
        "graph.remote_edge_fraction",
        setup.built.pg.remote_edge_fraction(),
    );
    layer.set("graph.edge_imbalance", setup.built.pg.edge_imbalance());
    layer.set("graph.compression_ratio", exposed.compression_ratio);
    layer.set("local.seq_s", reference.seq_s);
}

/// `local.seq` and `graph.compress`, the two pieces both traced passes share.
fn reference_and_exposed(
    opts: &Options,
    built: &Built,
    trace: &mut Trace,
    root: SpanId,
) -> (Reference, Exposed) {
    let reference = trace.span("local.seq", root, || {
        Reference::compute(&built.g, opts.wrong_reference)
    });
    let exposed = trace.span("graph.compress", root, || {
        Exposed::build(&built.pg, opts.workload.storage())
    });
    (reference, exposed)
}

/// Repetitions made and, of those, repetitions answered wrongly.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn check(&mut self, rep: Rep) -> Rep {
        self.attempted += 1;
        self.failed += u64::from(!rep.ok);
        rep
    }

    fn report(self, metrics: Metrics) -> RunReport {
        RunReport {
            metrics,
            attempted: self.attempted,
            failed: self.failed,
        }
    }
}

fn overhead_pct(untraced: &[f64], traced: &[f64]) -> f64 {
    (median(traced) / median(untraced) - 1.0) * 100.0
}

/// The untraced pass of a batch workload: the end-to-end metrics.
fn batch_untraced(opts: &Options, sizing: &Sizing, setup: &Setup) -> RunReport {
    let built = &setup.built;
    let reference = Reference::compute(&built.g, opts.wrong_reference);
    let runner = Runner::new(opts.workload, built, &reference, opts.seed);
    let mut tally = Tally::default();
    // One untimed repetition first: page faults and the rank threads' first
    // spawn are not what a repetition costs.
    tally.check(runner.rep());
    let mut samples = Samples::new(sizing);
    let started = Instant::now();
    while keep_going(samples.walls.len(), sizing.min_reps, started, opts.seconds) {
        let rep = tally.check(runner.rep());
        samples.push(rep.wall_s, rep.cpu_s, rep.modeled_s);
    }
    // Repetitions have no queue to wait in, so their tail is host noise:
    // report the upper quartile, which a few dozen samples can hold.
    let tail_s = percentile(&samples.walls, 0.75);
    tally.report(end_to_end(&samples, runner.edges(), tail_s))
}

/// The traced pass of a batch workload: the per-layer metrics and the spans.
fn batch_traced(
    opts: &Options,
    sizing: &Sizing,
    setup: &Setup,
    trace: &mut Trace,
    root: SpanId,
) -> RunReport {
    let built = &setup.built;
    let mut layer = Metrics::per_layer();
    let (reference, exposed) = reference_and_exposed(opts, built, trace, root);
    graph_metrics(setup, &exposed, &reference, &mut layer);
    let runner = Runner::new(opts.workload, built, &reference, opts.seed);
    let mut tally = Tally::default();
    tally.check(runner.rep());

    // The run whose counters are reported: always the second of the process,
    // so the window ids its caches hash — and with them every count — repeat.
    let span = trace.open("run", Some(root));
    let run = tally.check(runner.rep());
    trace.close(span);
    batch::layer_counts(&run.output, built, &mut layer);
    trace.count(span, "gets", layer.get("rma.gets"));
    trace.count(span, "bytes", layer.get("rma.bytes"));
    trace.count(span, "edges", layer.get("distributed.edges"));

    if opts.workload == Workload::LccCached {
        // The paper's two headline views, modeled clock only: 8 rank threads
        // on this host's cores would make any wall-clock scaling meaningless.
        let span = trace.open("run.noncached", Some(root));
        let non_cached = inputs::dist_config(Workload::LccNonCached, &built.g, 2);
        let plain = tally.check(runner.rep_with(non_cached, &built.pg));
        trace.close(span);
        let pg8 = PartitionedGraph::from_global(&built.g, PartitionScheme::Block1D, 8)
            .expect("eight ranks fit the graph");
        let span = trace.open("run.r8", Some(root));
        let wide =
            tally.check(runner.rep_with(inputs::dist_config(opts.workload, &built.g, 8), &pg8));
        trace.close(span);
        layer.set(
            "distributed.cache_gain_modeled",
            plain.modeled_s / run.modeled_s,
        );
        layer.set(
            "distributed.scaling_eff_r2_r8",
            run.modeled_s / (4.0 * wide.modeled_s),
        );
    }

    let visits = inputs::batch_visits(opts.workload, built);
    let windows = [visits];
    let compute0_s = rank0_compute_s(&run.output);
    let busy_s = probe_layers(
        opts, built, &exposed, &windows, false, &mut layer, trace, root,
    );
    layer.set("trace.coverage_pct", busy_s / compute0_s * 100.0);

    // What tracing costs: the same repetition with and without its span,
    // alternating, for half the run time.
    let (mut plain_walls, mut traced_walls, mut cpus) = (Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    while keep_going(
        plain_walls.len(),
        sizing.min_reps,
        started,
        opts.seconds / 2.0,
    ) {
        let plain = tally.check(runner.rep());
        let span = trace.open("run", Some(root));
        let traced = tally.check(runner.rep());
        trace.close(span);
        plain_walls.push(plain.wall_s);
        traced_walls.push(traced.wall_s);
        cpus.push(plain.cpu_s);
    }
    layer.set(
        "trace.overhead_pct",
        overhead_pct(&plain_walls, &traced_walls),
    );
    layer.set(
        "distributed.cpu_over_local",
        median(&cpus) / reference.seq_s,
    );
    tally.report(layer)
}

fn rank0_compute_s(output: &Output) -> f64 {
    match output {
        Output::Lcc(r) => r.ranks[0].timing.compute_ns * 1e-9,
        Output::Jaccard(r) => r.compute_ns[0] as f64 * 1e-9,
    }
}

/// Runs the three probes over rank 0's replay lists and returns the busy time
/// they account for: the intersection kernel, the cache replay, and one
/// measured get per row the cache replay missed (every row without a cache).
#[allow(clippy::too_many_arguments)]
fn probe_layers(
    opts: &Options,
    built: &Built,
    exposed: &Exposed,
    windows: &[Vec<Visit>],
    dedup: bool,
    layer: &mut Metrics,
    trace: &mut Trace,
    root: SpanId,
) -> f64 {
    let ranks = opts.workload.ranks();
    let keys = probes::key_trace(built, exposed, windows, dedup);
    let visits: Vec<Visit> = windows.concat();
    let kernel_s = probes::intersect(opts.workload, built, exposed, &visits, layer, trace, root);
    let get_s = probes::rma(ranks, exposed, &keys, layer, trace, root);
    match inputs::dist_config(opts.workload, &built.g, ranks).cache {
        Some(spec) => {
            let replay = probes::clampi(&spec, built, exposed, &keys, layer, trace, root);
            kernel_s + replay.busy_s + get_s * replay.misses as f64
        }
        None => kernel_s + get_s * keys.len() as f64,
    }
}

/// Spans the service's traced pass records before it stops timing traced
/// repetitions (66 per window): keeps the span file to a few megabytes.
const SPAN_BUDGET: usize = 40_000;

fn service_report(driver: &Driver, metrics: Metrics) -> RunReport {
    RunReport {
        metrics,
        attempted: driver.attempted,
        failed: driver.failed + u64::from(!driver.engine_is_consistent()),
    }
}

/// The untraced pass of the service workload: the end-to-end metrics.
fn service_untraced(sizing: &Sizing, driver: &mut Driver, seconds: f64) -> RunReport {
    let per_rep = sizing.windows_per_rep;
    let mut off = Trace::new(false);
    driver.warm_up(sizing.warm_windows);
    let mut samples = Samples::new(sizing);
    let mut windows_s = Vec::new();
    let started = Instant::now();
    while keep_going(samples.walls.len(), sizing.min_reps, started, seconds) {
        let rep = driver.rep(per_rep, &mut off, 0);
        samples.push(rep.wall_s, rep.cpu_s, rep.modeled_s);
        windows_s.extend(rep.windows_s);
    }
    // A full run times thousands of windows, so p99 has dozens beyond it.
    let tail_s = percentile(&windows_s, 0.99);
    let metrics = end_to_end(&samples, service::queries_in(per_rep), tail_s);
    service_report(driver, metrics)
}

/// The traced pass of the service workload: the per-layer metrics and the
/// spans, per-call ones included.
fn service_traced(
    opts: &Options,
    sizing: &Sizing,
    setup: &Setup,
    driver: &mut Driver,
    trace: &mut Trace,
    root: SpanId,
) -> RunReport {
    let built = &setup.built;
    let per_rep = sizing.windows_per_rep;
    let mut layer = Metrics::per_layer();
    let (reference, exposed) = reference_and_exposed(opts, built, trace, root);
    graph_metrics(setup, &exposed, &reference, &mut layer);
    driver.warm_up(sizing.warm_windows);

    // The repetition whose counters are reported: a fixed stretch of the
    // query stream after a fixed warm-up, so every count repeats.
    let batches: Vec<Vec<Query>> = (0..per_rep).map(|_| driver.next_window()).collect();
    let before = driver.engine.stats();
    let span = trace.open("run", Some(root));
    driver.rep_of(&batches, trace, span);
    trace.close(span);
    let after = driver.engine.stats();
    service_counts(&before, &after, service::queries_in(per_rep), &mut layer);
    trace.count(span, "queries", service::queries_in(per_rep) as f64);
    trace.count(span, "gets", layer.get("rma.gets"));

    let windows = inputs::service_visits(built, &batches);
    probe_layers(
        opts, built, &exposed, &windows, true, &mut layer, trace, root,
    );

    // What tracing costs: untraced and traced repetitions alternating for
    // half the run time, compared window by window.
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut reps = 0;
    let started = Instant::now();
    while keep_going(reps, sizing.min_reps, started, opts.seconds / 2.0)
        && (reps < sizing.min_reps || trace.spans().len() < SPAN_BUDGET)
    {
        trace.set_enabled(false);
        plain_s.extend(driver.rep(per_rep, trace, root).windows_s);
        trace.set_enabled(true);
        let span = trace.open("run", Some(root));
        traced_s.extend(driver.rep(per_rep, trace, span).windows_s);
        trace.close(span);
        reps += 1;
    }
    layer.set("trace.overhead_pct", overhead_pct(&plain_s, &traced_s));
    span_metrics(trace, &mut layer);
    service_report(driver, layer)
}

/// `service.*`, `rma.*` and `clampi.*` run counters: what the engine's
/// statistics moved by between two snapshots `queries` queries apart.
fn service_counts(before: &ServiceStats, after: &ServiceStats, queries: u64, layer: &mut Metrics) {
    let rows = after.row_reads - before.row_reads;
    let unique = after.unique_row_reads - before.unique_row_reads;
    layer.set(
        "service.dedup_ratio",
        if unique == 0 {
            1.0
        } else {
            rows as f64 / unique as f64
        },
    );
    layer.set("service.rows_per_query", rows as f64 / queries as f64);
    layer.set("service.batches", (after.batches - before.batches) as f64);
    layer.set(
        "service.shed",
        (after.shed_overload - before.shed_overload) as f64,
    );
    layer.set("service.failed", (after.failed - before.failed) as f64);
    layer.set(
        "service.virtual_p50_ms",
        after.virtual_latency.p50_ns * 1e-6,
    );
    layer.set(
        "service.virtual_p99_ms",
        after.virtual_latency.p99_ns * 1e-6,
    );

    let mut rma = RankStats::new(0);
    rma.gets = after.rma.gets - before.rma.gets;
    rma.bytes = after.rma.bytes - before.rma.bytes;
    rma.comm_time_ns = after.rma.comm_time_ns - before.rma.comm_time_ns;
    rma.overlapped_ns = after.rma.overlapped_ns - before.rma.overlapped_ns;
    rma.local_reads = after.rma.local_reads - before.rma.local_reads;
    rma.retries = after.rma.retries - before.rma.retries;
    batch::rma_counts(&rma, layer);

    let moved = |after: &Option<CacheStats>, before: &Option<CacheStats>| {
        let (a, b) = (after.as_ref()?, before.as_ref()?);
        Some(CacheStats {
            hits: a.hits - b.hits,
            misses: a.misses - b.misses,
            capacity_evictions: a.capacity_evictions - b.capacity_evictions,
            conflict_evictions: a.conflict_evictions - b.conflict_evictions,
            bytes_from_network: a.bytes_from_network - b.bytes_from_network,
            ..CacheStats::default()
        })
    };
    batch::cache_counts(
        moved(&after.adjacency_cache, &before.adjacency_cache).as_ref(),
        moved(&after.offsets_cache, &before.offsets_cache).as_ref(),
        layer,
    );
}

/// `service.submit_ns`, `service.run_batch_ms` and the share of the window
/// time the two per-call spans explain.
fn span_metrics(trace: &Trace, layer: &mut Metrics) {
    let (mut submit, mut run, mut batch) = ((0u64, 0u64), (0u64, 0u64), 0u64);
    for span in trace.spans() {
        let ns = span.end_ns - span.start_ns;
        match span.name {
            "service.submit" => submit = (submit.0 + ns, submit.1 + 1),
            "service.run_batch" => run = (run.0 + ns, run.1 + 1),
            "batch" => batch += ns,
            _ => {}
        }
    }
    layer.set(
        "service.submit_ns",
        submit.0 as f64 / submit.1.max(1) as f64,
    );
    layer.set(
        "service.run_batch_ms",
        run.0 as f64 * 1e-6 / run.1.max(1) as f64,
    );
    layer.set(
        "trace.coverage_pct",
        (submit.0 + run.0) as f64 / batch.max(1) as f64 * 100.0,
    );
}

/// Runs the workload and returns its report with the spans it recorded
/// (none unless `opts.trace`).
pub fn run(opts: &Options) -> (RunReport, Trace) {
    let sizing = opts.sizing();
    let mut trace = Trace::new(opts.trace);
    let root = trace.open("workload", None);
    // The traced pass sets up a fixed number of times: every engine built
    // draws window ids, and the counts it reports must not depend on how
    // many set-ups fit into a time budget. The untraced pass spends half its
    // set-up budget now and half after the timed loop, so that a slow patch
    // of the host covers at most half of the samples `setup_s` is the median of.
    let budget = if opts.trace {
        0.0
    } else {
        sizing.setup_seconds / 2.0
    };
    let mut setup = set_up(opts, &sizing, budget, &mut trace, root);
    let mut report = match setup.engine.take() {
        Some(engine) => {
            let driver = &mut Driver::new(engine, &setup.built, opts.seed, opts.wrong_reference);
            if opts.trace {
                service_traced(opts, &sizing, &setup, driver, &mut trace, root)
            } else {
                service_untraced(&sizing, driver, opts.seconds)
            }
        }
        None if opts.trace => batch_traced(opts, &sizing, &setup, &mut trace, root),
        None => batch_untraced(opts, &sizing, &setup),
    };
    if !opts.trace {
        let again = set_up(opts, &sizing, budget, &mut trace, root);
        setup.totals.extend(again.totals);
        report.metrics.set("setup_s", median(&setup.totals));
    }
    trace.close(root);
    (report, trace)
}
