//! Criterion micro-benchmarks of the intersection kernels (Section II-C):
//! SSI vs binary search vs SIMD vs galloping vs hybrid on balanced and skewed
//! list pairs.
//!
//! Pass `--json <path>` after `--` to emit machine-readable results
//! (`cargo bench --bench intersect -- --json BENCH_intersect.json`); the
//! committed `BENCH_intersect.json` is this suite's perf trajectory record.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rand::Rng;
use rand::SeedableRng;
use rmatc_core::intersect::{
    binary_search_count, compressed_count_closing, compressed_scalar_count, compressed_simd_count,
    compressed_skip_count, galloping_count, simd_count, ssi_count, CostModel, IntersectMethod,
};
use rmatc_core::Intersector;
use rmatc_graph::compressed::compress_row;

fn sorted_random(rng: &mut impl Rng, len: usize, universe: u32) -> Vec<u32> {
    let mut v: Vec<u32> = (0..len).map(|_| rng.gen_range(0..universe)).collect();
    v.sort_unstable();
    v.dedup();
    v
}

/// All five sequential kernels on one list pair. `short` must be the shorter
/// list (the search-class kernels take it as the key array).
fn bench_pair(c: &mut Criterion, group_name: &str, short: &[u32], long: &[u32], samples: usize) {
    let mut group = c.benchmark_group(group_name);
    group.sample_size(samples);
    group.throughput(Throughput::Elements((short.len() + long.len()) as u64));
    group.bench_function("ssi", |b| b.iter(|| ssi_count(short, long)));
    group.bench_function("simd", |b| b.iter(|| simd_count(short, long)));
    group.bench_function("binary", |b| b.iter(|| binary_search_count(short, long)));
    group.bench_function("galloping", |b| b.iter(|| galloping_count(short, long)));
    group.bench_function("hybrid", |b| {
        let ix = Intersector::new(IntersectMethod::Hybrid);
        b.iter(|| ix.count(short, long))
    });
    group.finish();
}

fn bench_kernels(c: &mut Criterion) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    // The paper's Table III shapes (4k balanced, 1024x skew) plus the
    // acceptance shapes of this reproduction's kernel upgrades: 64k balanced
    // for the SIMD merge, 1000x skew for galloping.
    let balanced_a = sorted_random(&mut rng, 4_096, 1 << 20);
    let balanced_b = sorted_random(&mut rng, 4_096, 1 << 20);
    let big_a = sorted_random(&mut rng, 65_536, 1 << 22);
    let big_b = sorted_random(&mut rng, 65_536, 1 << 22);
    // Hub-leaf: few keys against a huge row — the |B| >= |A|^2 regime the
    // hybrid routes to restart binary search.
    let hub_keys = sorted_random(&mut rng, 64, 1 << 20);
    let hub_hay = sorted_random(&mut rng, 65_536, 1 << 20);
    // 1000x skew with enough keys (|B| < |A|^2) — galloping's regime.
    let skew_keys = sorted_random(&mut rng, 4_200, 1 << 25);
    let skew_hay = sorted_random(&mut rng, 4_200_000, 1 << 25);

    bench_pair(c, "intersect/balanced", &balanced_a, &balanced_b, 20);
    bench_pair(c, "intersect/balanced64k", &big_a, &big_b, 20);
    bench_pair(c, "intersect/hubleaf1024x", &hub_keys, &hub_hay, 20);
    bench_pair(c, "intersect/skewed1000x", &skew_keys, &skew_hay, 20);

    // The Hybrid method over one mixed sweep of all four shape regimes: the
    // end-to-end cost of the per-pair kernel choice, tracked by `bench-diff`.
    let pairs: Vec<(&[u32], &[u32])> = vec![
        (&balanced_a, &balanced_b),
        (&big_a, &big_b),
        (&hub_keys, &hub_hay),
        (&skew_keys, &skew_hay),
    ];
    let mut group = c.benchmark_group("intersect/costmodel");
    group.throughput(Throughput::Elements(
        pairs.iter().map(|(a, b)| (a.len() + b.len()) as u64).sum(),
    ));
    let ix = Intersector::new(IntersectMethod::Hybrid);
    group.bench_function("hybrid_analytic", |b| {
        b.iter(|| {
            pairs
                .iter()
                .map(|(list_a, list_b)| ix.count(list_a, list_b))
                .sum::<u64>()
        })
    });
    group.finish();
}

/// The fused decompress+intersect kernels against the plain-array hybrid on
/// the same shapes: block-at-a-time scalar merge, the SIMD block decoder, and
/// the skip-aware variant that prunes whole blocks via their header maxima.
/// `plain_hybrid` is the reference the gate compares against — fusing the
/// decode must stay within a small constant factor of intersecting the
/// already-decoded rows.
fn bench_compressed(c: &mut Criterion) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let shapes: Vec<(&str, Vec<u32>, Vec<u32>)> = vec![
        (
            "intersect/compressed/balanced",
            sorted_random(&mut rng, 4_096, 1 << 20),
            sorted_random(&mut rng, 4_096, 1 << 20),
        ),
        (
            "intersect/compressed/hubleaf1024x",
            sorted_random(&mut rng, 64, 1 << 20),
            sorted_random(&mut rng, 65_536, 1 << 20),
        ),
        (
            "intersect/compressed/skewed64x",
            sorted_random(&mut rng, 1_024, 1 << 22),
            sorted_random(&mut rng, 65_536, 1 << 22),
        ),
    ];
    let model = CostModel::Analytic;
    for (name, a, long) in &shapes {
        let mut row = Vec::new();
        compress_row(long, &mut row);
        c.report_metric(
            name.strip_prefix("intersect/").unwrap_or(name),
            "compression_ratio_x1000",
            (long.len() as f64 * 4.0 / (row.len() as f64 * 4.0) * 1e3).round(),
        );
        let mut group = c.benchmark_group(*name);
        group.sample_size(20);
        group.throughput(Throughput::Elements((a.len() + long.len()) as u64));
        group.bench_function("scalar", |b| {
            b.iter(|| compressed_scalar_count(a, &row, None))
        });
        group.bench_function("simd", |b| b.iter(|| compressed_simd_count(a, &row, None)));
        group.bench_function("skip", |b| b.iter(|| compressed_skip_count(a, &row, None)));
        group.bench_function("auto", |b| {
            b.iter(|| compressed_count_closing(a, &row, None, &model))
        });
        group.bench_function("plain_hybrid", |b| {
            let ix = Intersector::new(IntersectMethod::Hybrid);
            b.iter(|| ix.count(a, long))
        });
        group.finish();
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_kernels, bench_compressed
}
criterion_main!(benches);
