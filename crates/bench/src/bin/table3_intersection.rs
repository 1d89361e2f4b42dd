//! Table III — performance comparison of the intersection methods (hybrid, SSI,
//! binary search), reported as edges processed per microsecond by
//! `LocalLcc`'s degree-weighted vertex-range loop on the paper's 16 threads,
//! or on as many as the host has cores if that is fewer (the paper
//! parallelizes each intersection instead; see `docs/TUNING.md`,
//! "Shared-memory parallelism"). The table's title and rows name the thread
//! count and R-MAT scales actually run (`RMATC_SCALE`: 11, 15 or 17).
//! Besides the pairwise kernels, the `Hybrid` column counts by source marks
//! where those win (`docs/TUNING.md`, "Source marks").
//!
//! Paper reference (edges/µs): R-MAT S20 EF8 0.540/0.508/0.449, EF16
//! 0.425/0.403/0.340, EF32 0.325/0.311/0.250, LiveJournal 1.084/1.018/0.984,
//! Orkut 0.596/0.552/0.503 — the expected shape is hybrid ≥ both SSI and
//! binary search.
//!
//! A second table times every kernel on one list pair per shape: Table III's
//! balanced and 1024× hub–leaf shapes, a 64k balanced pair for the SIMD merge,
//! a 1000× skew for the search kernels and 16×/32×/64× skews either side of
//! the hybrid rule's merge boundary, plus the fused decode kernels of
//! compressed rows against the plain hybrid on the same lists. Its caption
//! names the rule's three factors, so they can be re-measured with this bin.
//! The lists are seeded draws of fixed sizes, independent of `RMATC_SCALE`
//! and `RMATC_SEED`; their compression ratios are pinned in
//! `tests/kernels.rs`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rmatc_bench::{experiment_scale, measure_until, seed, Table};
use rmatc_core::intersect::{
    binary_search_count, compressed_count_closing, compressed_scalar_count, compressed_simd_count,
    compressed_skip_count, galloping_count, simd_count, ssi_count, CostModel,
    COMPRESSED_MERGE_FACTOR, MARKS_FACTOR, MERGE_FACTOR,
};
use rmatc_core::{IntersectMethod, Intersector, LocalConfig, LocalLcc};
use rmatc_graph::compressed::compress_row;
use rmatc_graph::datasets::{Dataset, DatasetScale};
use rmatc_graph::gen::{GraphGenerator, RmatGenerator};
use std::hint::black_box;
use std::num::NonZeroUsize;
use std::thread;
use std::time::Instant;

/// The paper's thread count for Table III.
const PAPER_THREADS: usize = 16;

fn main() {
    let scale = experiment_scale();
    let seed = seed();
    let cores = thread::available_parallelism().map_or(1, NonZeroUsize::get);
    let threads = cores.min(PAPER_THREADS);
    let log_n = match scale {
        DatasetScale::Tiny => 11,
        DatasetScale::Small => 15,
        DatasetScale::Medium => 17,
    };
    let rmat = |ef| {
        RmatGenerator::paper(log_n, ef)
            .generate_cleaned(seed)
            .into_csr()
    };
    let graphs = [
        (format!("R-MAT S{log_n} EF8"), rmat(8)),
        (format!("R-MAT S{log_n} EF16"), rmat(16)),
        (format!("R-MAT S{log_n} EF32"), rmat(32)),
        (
            "LiveJournal".to_string(),
            Dataset::LiveJournal.generate(scale, seed),
        ),
        ("Orkut".to_string(), Dataset::Orkut.generate(scale, seed)),
    ];
    // Header follows IntersectMethod::all(): the paper's three columns plus
    // this reproduction's SIMD and galloping kernel upgrades.
    let mut header = vec!["Name".to_string()];
    header.extend(IntersectMethod::all().iter().map(|m| m.label().to_string()));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let title = format!("Table III: edges processed per microsecond ({threads} threads)");
    let mut table = Table::new(&title, &header_refs);
    for (name, g) in &graphs {
        let mut cells = vec![name.clone()];
        for method in IntersectMethod::all() {
            let cfg = LocalConfig::parallel(threads).with_method(method);
            let runner = LocalLcc::new(cfg);
            let m = measure_until(|| runner.run(g).edges_per_us(), 3, 10, 0.05);
            cells.push(format!("{:.3}", m.median));
        }
        table.row(cells);
    }
    table.print();
    println!(
        "Expected shape from the paper: the hybrid rule is never slower than using \
         SSI or binary search exclusively. Here the Hybrid column also counts an edge by \
         probing its source's marked row where that beats the pairwise kernel \
         (docs/TUNING.md, \"Source marks\"); every other column runs the one kernel it \
         names. Paper: R-MAT S20 on 16 threads; here R-MAT S{log_n} on {threads} \
         thread(s) of a host with {cores} core(s)."
    );
    kernel_shapes().print();
    println!(
        "Hybrid runs the SIMD block merge while |B| <= {MERGE_FACTOR}·|A| (MERGE_FACTOR) and \
         the galloping block probe beyond; \"auto\" runs the SIMD decode while |B| <= \
         {COMPRESSED_MERGE_FACTOR}·|A| (COMPRESSED_MERGE_FACTOR) and the skip decode beyond. \
         The LCC loops count an edge by source marks while |B| <= {MARKS_FACTOR}·|A| \
         (MARKS_FACTOR), which no row of this table runs. All three live in \
         crates/core/src/intersect/hybrid.rs (docs/TUNING.md, \"Merge/search boundary\")."
    );
}

fn sorted_random(rng: &mut impl Rng, len: usize, universe: u32) -> Vec<u32> {
    let mut v: Vec<u32> = (0..len).map(|_| rng.gen_range(0..universe)).collect();
    v.sort_unstable();
    v.dedup();
    v
}

/// Median nanoseconds per call of `kernel`, LibLSB-style: each sample times
/// a batch of calls long enough (≥ 2 ms) to swamp the clock's resolution.
fn ns_per_call(kernel: &dyn Fn() -> u64) -> f64 {
    let per_call = |batch: u32| {
        let start = Instant::now();
        for _ in 0..batch {
            black_box(black_box(kernel)());
        }
        start.elapsed().as_nanos() as f64 / batch as f64
    };
    let mut batch = 1;
    while batch < 1 << 20 && per_call(batch) * (batch as f64) < 2e6 {
        batch *= 2;
    }
    measure_until(|| per_call(batch), 5, 20, 0.05).median
}

/// A labelled kernel call on one list pair.
type Kernel<'a> = (&'a str, &'a dyn Fn() -> u64);

/// One table row per kernel on the pair `(a, b)`: µs per call and ns per
/// input element (`|A| + |B|`).
fn time_kernels(table: &mut Table, shape: &str, a: &[u32], b: &[u32], kernels: &[Kernel]) {
    for (name, kernel) in kernels {
        let ns = ns_per_call(*kernel);
        table.row(vec![
            shape.to_string(),
            a.len().to_string(),
            b.len().to_string(),
            name.to_string(),
            format!("{:.2}", ns / 1e3),
            format!("{:.3}", ns / (a.len() + b.len()) as f64),
        ]);
    }
}

/// Every kernel on one seeded list pair per shape. `A` is the shorter list:
/// the search kernels take it as their keys, and the compressed kernels
/// intersect it with `B`'s compressed row.
fn kernel_shapes() -> Table {
    let mut table = Table::new(
        "Intersection kernels by list shape (one thread)",
        &["Shape", "|A|", "|B|", "Kernel", "µs/call", "ns/element"],
    );
    let hybrid = Intersector::new(IntersectMethod::Hybrid);
    let mut rng = StdRng::seed_from_u64(1);
    for (shape, short, long, universe) in [
        ("balanced", 4_096, 4_096, 1 << 20),
        ("balanced64k", 65_536, 65_536, 1 << 22),
        ("hubleaf1024x", 64, 65_536, 1 << 20),
        ("skewed1000x", 4_200, 4_200_000, 1 << 25),
        ("skewed16x", 1_024, 16_384, 1 << 22),
        ("skewed32x", 1_024, 32_768, 1 << 22),
        ("skewed64x", 1_024, 65_536, 1 << 22),
    ] {
        let a = &sorted_random(&mut rng, short, universe)[..];
        let b = &sorted_random(&mut rng, long, universe)[..];
        let kernels: [Kernel; 5] = [
            ("SSI", &|| ssi_count(a, b)),
            ("SIMD", &|| simd_count(a, b)),
            ("Binary search", &|| binary_search_count(a, b)),
            ("Galloping", &|| galloping_count(a, b)),
            ("Hybrid", &|| hybrid.count(a, b)),
        ];
        time_kernels(&mut table, shape, a, b, &kernels);
    }
    let (mut rng, model) = (StdRng::seed_from_u64(7), CostModel::Analytic);
    for (shape, short, long, universe) in [
        ("compressed balanced", 4_096, 4_096, 1 << 20),
        ("compressed hubleaf1024x", 64, 65_536, 1 << 20),
        ("compressed skewed64x", 1_024, 65_536, 1 << 22),
    ] {
        let a = &sorted_random(&mut rng, short, universe)[..];
        let b = &sorted_random(&mut rng, long, universe)[..];
        let mut words = Vec::new();
        compress_row(b, &mut words);
        let w = &words[..];
        let kernels: [Kernel; 5] = [
            ("scalar decode", &|| compressed_scalar_count(a, w, None)),
            ("SIMD decode", &|| compressed_simd_count(a, w, None)),
            ("skip decode", &|| compressed_skip_count(a, w, None)),
            ("auto", &|| compressed_count_closing(a, w, None, &model)),
            ("plain Hybrid", &|| hybrid.count(a, b)),
        ];
        time_kernels(&mut table, shape, a, b, &kernels);
    }
    table
}
