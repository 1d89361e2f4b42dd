//! Figure 6 — strong scaling on shared memory with the hybrid method: edges
//! processed per microsecond for 1..16 threads of `LocalLcc`'s degree-weighted
//! vertex-range loop.
//!
//! Paper reference: 2.0× (R-MAT S20 EF16), 2.7× (R-MAT S20 EF32) and 1.2× (Orkut)
//! speedup from 1 to 16 threads, measured with the paper's intersection-parallel
//! scheme (Section III-C), which this reproduction replaces with vertex ranges
//! (`docs/TUNING.md`, "Shared-memory parallelism"). Note: if the machine running
//! this binary has fewer physical cores than threads, the upper end of the sweep
//! cannot show real speedup; the binary prints the detected core count alongside
//! the results.

use rmatc_bench::{experiment_scale, measure_until, seed, Table};
use rmatc_core::{LocalConfig, LocalLcc};
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
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    let graphs: Vec<(String, CsrGraph)> = vec![
        ("R-MAT S20 EF16".to_string(), rmat(scale, 16, seed)),
        ("R-MAT S20 EF32".to_string(), rmat(scale, 32, seed)),
        ("Orkut".to_string(), Dataset::Orkut.generate(scale, seed)),
    ];
    let thread_counts = [1usize, 2, 4, 8, 16];
    let mut header: Vec<String> = vec!["Graph".to_string()];
    header.extend(thread_counts.iter().map(|t| format!("{t} thr")));
    header.push("speedup 1→16".to_string());
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(
        "Figure 6: shared-memory strong scaling (edges/µs, hybrid method)",
        &header_refs,
    );
    for (name, g) in &graphs {
        let mut cells = vec![name.clone()];
        let mut first = 0.0;
        let mut last = 0.0;
        for &threads in &thread_counts {
            let runner = LocalLcc::new(LocalConfig::parallel(threads));
            let m = measure_until(|| runner.run(g).edges_per_us(), 3, 8, 0.05);
            if threads == 1 {
                first = m.median;
            }
            last = m.median;
            cells.push(format!("{:.3}", m.median));
        }
        cells.push(format!(
            "{:.2}x",
            if first > 0.0 { last / first } else { 0.0 }
        ));
        table.row(cells);
    }
    table.print();
    println!(
        "Detected {cores} hardware thread(s). The paper measures up to 2.7x on a 16-core Xeon \
         with per-intersection parallel regions; the vertex-range loop enters one region per \
         run, so its curve tracks the core count until the ranges run out of cores."
    );
}
