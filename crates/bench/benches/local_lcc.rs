//! Criterion benchmarks of the shared-memory LCC/TC kernel (the Table III / Figure 6
//! code path): edge-centric counting with each intersection method, and the
//! range loop's Figure 6-style scaling against one thread.
//!
//! Pass `--json <path>` after `--` to emit machine-readable results
//! (`cargo bench --bench local_lcc -- --json BENCH_local_lcc.json`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rmatc_core::{IntersectMethod, LocalConfig, LocalLcc};
use rmatc_graph::datasets::{Dataset, DatasetScale};
use rmatc_graph::gen::{GraphGenerator, RmatGenerator};

fn bench_local(c: &mut Criterion) {
    let rmat = RmatGenerator::paper(11, 16).generate_cleaned(1).into_csr();
    let social = Dataset::Orkut.generate(DatasetScale::Tiny, 1);

    let mut group = c.benchmark_group("local_lcc");
    group.throughput(Throughput::Elements(rmat.edge_count()));
    for method in IntersectMethod::all() {
        group.bench_with_input(
            BenchmarkId::new("rmat_s11_ef16", method.label()),
            &method,
            |b, &m| {
                let runner = LocalLcc::new(LocalConfig::sequential().with_method(m));
                b.iter(|| runner.run(&rmat))
            },
        );
    }
    group.throughput(Throughput::Elements(social.edge_count()));
    for method in IntersectMethod::all() {
        group.bench_with_input(
            BenchmarkId::new("orkut_standin", method.label()),
            &method,
            |b, &m| {
                let runner = LocalLcc::new(LocalConfig::sequential().with_method(m));
                b.iter(|| runner.run(&social))
            },
        );
    }
    group.finish();
}

/// The degree-weighted vertex-range loop at 2 and 4 threads against one. The
/// rows keep the `vertex` name: they continue the history of the
/// vertex-parallel loop this one grew from.
fn bench_parallelism(c: &mut Criterion) {
    let rmat = RmatGenerator::paper(11, 16).generate_cleaned(1).into_csr();
    let mut group = c.benchmark_group("local_lcc/parallelism");
    group.throughput(Throughput::Elements(rmat.edge_count()));
    group.bench_function("sequential", |b| {
        let runner = LocalLcc::new(LocalConfig::sequential());
        b.iter(|| runner.run(&rmat))
    });
    for threads in [2usize, 4] {
        group.bench_with_input(BenchmarkId::new("vertex", threads), &threads, |b, &t| {
            let runner = LocalLcc::new(LocalConfig::parallel(t));
            b.iter(|| runner.run(&rmat))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_local, bench_parallelism
}
criterion_main!(benches);
