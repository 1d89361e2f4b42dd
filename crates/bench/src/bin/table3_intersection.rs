//! Table III — performance comparison of the intersection methods (hybrid, SSI,
//! binary search), reported as edges processed per microsecond with 16 threads
//! of `LocalLcc`'s degree-weighted vertex-range loop (the paper parallelizes each
//! intersection instead; see `docs/TUNING.md`, "Shared-memory parallelism").
//!
//! Paper reference (edges/µs): R-MAT S20 EF8 0.540/0.508/0.449, EF16
//! 0.425/0.403/0.340, EF32 0.325/0.311/0.250, LiveJournal 1.084/1.018/0.984,
//! Orkut 0.596/0.552/0.503 — the expected *ordering* is hybrid ≥ SSI ≥ binary.

use rmatc_bench::{experiment_scale, measure_until, seed, Table};
use rmatc_core::{IntersectMethod, LocalConfig, LocalLcc};
use rmatc_graph::datasets::{Dataset, DatasetScale};
use rmatc_graph::gen::{GraphGenerator, RmatGenerator};
use rmatc_graph::CsrGraph;

fn rmat(scale: DatasetScale, edge_factor: u32, seed: u64) -> CsrGraph {
    let log_n = match scale {
        DatasetScale::Tiny => 11,
        DatasetScale::Small => 15,
        DatasetScale::Medium => 17,
    };
    RmatGenerator::paper(log_n, edge_factor)
        .generate_cleaned(seed)
        .into_csr()
}

fn main() {
    let scale = experiment_scale();
    let seed = seed();
    let threads = 16;
    let graphs: Vec<(String, CsrGraph)> = vec![
        ("R-MAT S20 EF8".to_string(), rmat(scale, 8, seed)),
        ("R-MAT S20 EF16".to_string(), rmat(scale, 16, seed)),
        ("R-MAT S20 EF32".to_string(), rmat(scale, 32, seed)),
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
    let mut table = Table::new(
        "Table III: edges processed per microsecond (16 threads)",
        &header_refs,
    );
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
        "Expected shape from the paper: the hybrid rule (Eq. 3) is never slower than using \
         SSI or binary search exclusively."
    );
}
