//! Microbenchmark of the distributed remote-adjacency read + intersect path
//! (the two-get protocol of Figure 3 behind `RowReader`, one get in flight),
//! isolating what the zero-copy refactor changed: hit-heavy reads served in
//! place from the CLaMPI cache, cold reads that land each row in the buffer
//! the cache retains and intersect it there, and the non-cached
//! transfer-per-edge baseline. The
//! cached rows read each source's offsets pairs by span, as the edge loop
//! does; the non-cached rows read one pair per edge (a one-key span), the
//! two gets per edge of Algorithm 3.
//!
//! Wired into `just bench-smoke` / CI with `--json BENCH_remote_read.json
//! --history bench-history/remote_read.ndjson`, so the `bench-diff` gate
//! watches this path for regressions like it does the kernels.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rmatc_core::distributed::reader::{AdjCache, Edge, OffsetSpans, RowReader};
use rmatc_core::distributed::worker::{run_worker, ClosingCount};
use rmatc_core::distributed::{CacheSpec, DistConfig, GraphWindows};
use rmatc_graph::gen::{GraphGenerator, RmatGenerator};
use rmatc_graph::partition::{PartitionScheme, PartitionedGraph};
use rmatc_graph::types::VertexId;
use rmatc_graph::GraphStorage;
use rmatc_rma::Endpoint;

/// One remote edge from rank 0's perspective: the owning vertex's local
/// index, the neighbour's index within its row, the neighbour, and the
/// neighbour's local index on rank 1.
struct RemoteEdge {
    u_local: usize,
    k: usize,
    v: VertexId,
    v_local: usize,
}

fn remote_edges(pg: &PartitionedGraph, limit: usize) -> Vec<RemoteEdge> {
    let part = &pg.partitions[0];
    let mut edges = Vec::new();
    'outer: for u_local in 0..part.local_vertex_count() {
        for (k, &v) in part.neighbours_of_local(u_local).iter().enumerate() {
            if pg.partitioner.owner(v) == 1 {
                edges.push(RemoteEdge {
                    u_local,
                    k,
                    v,
                    v_local: pg.partitioner.local_index(v),
                });
                if edges.len() >= limit {
                    break 'outer;
                }
            }
        }
    }
    edges
}

fn bench_remote_read(c: &mut Criterion) {
    let g = RmatGenerator::paper(10, 16).generate_cleaned(11).into_csr();
    let pg = PartitionedGraph::from_global(&g, PartitionScheme::Block1D, 2)
        .expect("two ranks divide the vertex count");
    let windows = GraphWindows::build(&pg);
    let part = &pg.partitions[0];
    let config = DistConfig::non_cached(2);
    // Hit-heavy sizing: room for the whole adjacency window, so the measured
    // steady state is all hits.
    let cached_spec = CacheSpec::paper(2 * windows.adjacency_bytes()).with_degree_scores();
    let edges = remote_edges(&pg, 2_048);
    assert!(!edges.is_empty(), "the partition must have remote edges");
    let elements: u64 = edges
        .iter()
        .map(|e| 2 + pg.partitions[1].neighbours_of_local(e.v_local).len() as u64)
        .sum();

    // One protocol round per edge, each get completed before the next is
    // issued (pipeline depth 1); `by_span` reads each source's offsets pairs
    // in spans first, as the cached edge loop does.
    let mut landing = Vec::new();
    let (mut spans, mut words, mut pairs) = (OffsetSpans::default(), Vec::new(), Vec::new());
    let mut run = |(reader, cache): &mut (RowReader, AdjCache),
                   op: &ClosingCount,
                   ep: &mut Endpoint,
                   by_span: bool| {
        let (mut total, mut source) = (0, None);
        for e in &edges {
            let adj_u = part.neighbours_of_local(e.u_local);
            if by_span && source != Some(e.u_local) {
                source = Some(e.u_local);
                reader
                    .read_spans(ep, &pg.partitioner, adj_u, &mut spans)
                    .expect("no faults injected");
            }
            let pair = if by_span {
                spans.pair(e.k)
            } else {
                reader.read_key_spans(ep, &[(1, e.v_local)], &mut words, &mut pairs);
                pairs[0].clone().expect("no faults injected")
            };
            let edge = Edge {
                slot: 0,
                source: part.global_ids[e.u_local],
                adj_u,
                v: e.v,
                k: e.k,
            };
            let (count, charge) = reader
                .start(ep, cache, 1, pair, &mut landing, op, &edge)
                .expect("no faults injected");
            if let Some(charge) = charge {
                charge.wait(ep);
            }
            total += count;
        }
        total
    };
    let op = ClosingCount::new(&config, pg.direction, GraphStorage::Plain);
    let make_reader = |spec: Option<CacheSpec>| -> (RowReader, AdjCache) {
        let config = DistConfig {
            cache: spec,
            ..config
        };
        RowReader::new(&windows, &config, pg.global_vertex_count())
    };

    // Compressed storage over the same protocol: the adjacency window
    // carries delta/varint rows, hits decode-intersect in place and cold
    // misses land compressed rows, then decode-intersect the landed words.
    let cwindows = GraphWindows::build_with(&pg, GraphStorage::Compressed);
    let cconfig = DistConfig::non_cached(2).with_storage(GraphStorage::Compressed);
    let compressed_spec = CacheSpec::paper(2 * cwindows.adjacency_bytes()).with_degree_scores();
    let cop = ClosingCount::new(&cconfig, pg.direction, GraphStorage::Compressed);
    let make_compressed_reader = || -> (RowReader, AdjCache) {
        let config = DistConfig {
            cache: Some(compressed_spec),
            ..cconfig
        };
        RowReader::new(&cwindows, &config, pg.global_vertex_count())
    };

    // Deterministic metric rows first (recorded even when a `--filter` skips
    // the timing functions): how much smaller the wire/stored footprint is,
    // and stored bytes per adjacency read, from one warmed pass.
    {
        let mut reader = make_compressed_reader();
        let mut ep = Endpoint::new(0, 2, cconfig.network);
        ep.lock_all();
        let _warm = run(&mut reader, &cop, &mut ep, true);
        let stats = reader.1.as_ref().expect("adjacency cache on").stats();
        c.report_metric(
            "remote_read",
            "compressed/compression_ratio_x1000",
            (stats.compression_ratio() * 1e3).round(),
        );
        c.report_metric(
            "remote_read",
            "compressed/stored_bytes_per_lookup",
            (stats.stored_bytes as f64 / stats.lookups().max(1) as f64).round(),
        );
    }

    let mut group = c.benchmark_group("remote_read");
    group.throughput(Throughput::Elements(elements));
    group.sample_size(20);

    // Hit-heavy compressed reads: the gate watches this against `cached_hit`
    // — decoding inside the intersection must not regress the zero-copy hit
    // path.
    group.bench_function("compressed_hit", |b| {
        let mut reader = make_compressed_reader();
        let mut ep = Endpoint::new(0, 2, cconfig.network);
        ep.lock_all();
        let _warm = run(&mut reader, &cop, &mut ep, true);
        b.iter(|| run(&mut reader, &cop, &mut ep, true))
    });

    // Cold compressed misses: every read transfers and admits a compressed
    // row, then decode-intersects the landed words.
    group.bench_function("compressed_cold", |b| {
        let mut ep = Endpoint::new(0, 2, cconfig.network);
        ep.lock_all();
        b.iter_batched(
            make_compressed_reader,
            |mut reader| run(&mut reader, &cop, &mut ep, true),
            criterion::BatchSize::LargeInput,
        )
    });

    // Hit-heavy: the cache holds the whole remote partition, so after one
    // warm pass every read is served in place — the zero-copy win.
    group.bench_function("cached_hit", |b| {
        let mut reader = make_reader(Some(cached_spec));
        let mut ep = Endpoint::new(0, 2, config.network);
        ep.lock_all();
        let _warm = run(&mut reader, &op, &mut ep, true);
        b.iter(|| run(&mut reader, &op, &mut ep, true))
    });

    // Cold: every read misses, lands its row in the buffer the cache
    // retains, and intersects it there.
    group.bench_function("cached_cold", |b| {
        let mut ep = Endpoint::new(0, 2, config.network);
        ep.lock_all();
        b.iter_batched(
            || make_reader(Some(cached_spec)),
            |mut reader| run(&mut reader, &op, &mut ep, true),
            criterion::BatchSize::LargeInput,
        )
    });

    // Baseline: no cache, two gets per edge — the offsets pair, then the
    // row, intersected in place.
    group.bench_function("non_cached", |b| {
        let mut reader = make_reader(None);
        let mut ep = Endpoint::new(0, 2, config.network);
        ep.lock_all();
        b.iter(|| run(&mut reader, &op, &mut ep, false))
    });

    // The self-healing path with injection disabled: an explicit retry policy
    // but no `FaultInjector`, so no checksums are computed and no fault is
    // ever rolled. Guards the robustness layer's promise that the fault-off
    // read path costs nothing over `non_cached`.
    group.bench_function("faulty_path_off", |b| {
        let mut reader = make_reader(None);
        let mut ep =
            Endpoint::new(0, 2, config.network).with_retry(rmatc_rma::RetryPolicy::default());
        ep.lock_all();
        b.iter(|| run(&mut reader, &op, &mut ep, false))
    });

    group.finish();
}

/// The overlap benches: a full rank-0 LCC worker pass under latency
/// *injection* (`NetworkModel::with_injection`), so the modeled Aries α/β
/// really is spun for in wall time. At depth 1 the loop pays every spin
/// back-to-back; at depth 8 it issues gets early enough that their modeled
/// latency elapses while it computes. A rank runs one thread, so neither
/// row touches the work-stealing pool.
fn bench_overlap(c: &mut Criterion) {
    let g = RmatGenerator::paper(8, 16).generate_cleaned(11).into_csr();
    let mut config = DistConfig::non_cached(2);
    config.network = rmatc_rma::NetworkModel::aries().with_injection(0.2);
    let pg = PartitionedGraph::from_global(&g, config.scheme, config.ranks)
        .expect("two ranks divide the vertex count");
    let windows = GraphWindows::build(&pg);

    let mut group = c.benchmark_group("remote_read");
    group.sample_size(20);

    // Baseline: depth 1 waits out every injected latency.
    group.bench_function("non_overlapped_injected", |b| {
        b.iter(|| run_worker(0, &pg, &windows, &config).expect("no faults injected"))
    });

    // Pipeline depth 8: the depth the Jaccard workload runs.
    group.bench_function("pipelined_depth8", |b| {
        let cfg = config.with_pipeline_depth(8);
        b.iter(|| run_worker(0, &pg, &windows, &cfg).expect("no faults injected"))
    });

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_remote_read, bench_overlap
}
criterion_main!(benches);
