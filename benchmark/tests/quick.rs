//! `cargo test` for the benchmark package: the `--quick` sizing (scale 12,
//! three repetitions, a few hundred queries) through the real binary, on every
//! workload and both passes — every metric name, the result line's shape, the
//! correctness checks and their failure path, and the committed manifest.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::{Command, Output};

const WORKLOADS: [&str; 4] = [
    "rmat14_lcc_cached",
    "uniform14_lcc_noncached",
    "rmat14_jaccard_compressed",
    "rmat12_service_hubmix",
];

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rmatc-benchmark"))
        .args(args)
        // A hostile environment: the benchmark must scrub it.
        .env("RMATC_STORAGE", "compressed")
        .env("RMATC_THREADS", "7")
        .output()
        .expect("the benchmark binary runs")
}

fn quick(workload: &str, trace: &str, extra: &[&str]) -> Output {
    let mut args = vec![
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        "1",
        "--trace",
        trace,
        "--quick",
    ];
    args.extend_from_slice(extra);
    bench(&args)
}

fn stdout(output: &Output) -> String {
    String::from_utf8(output.stdout.clone()).expect("utf-8 output")
}

/// `(name, value)` of every `metric` line.
fn metrics(text: &str) -> Vec<(String, f64)> {
    text.lines()
        .filter_map(|line| {
            let fields: Vec<&str> = line.split('\t').collect();
            match fields[..] {
                ["metric", name, value, _unit] => Some((name.to_string(), value.parse().unwrap())),
                _ => None,
            }
        })
        .collect()
}

fn value(metrics: &[(String, f64)], name: &str) -> f64 {
    metrics
        .iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("metric {name} is missing"))
        .1
}

/// The metric names the manifest declares under `section`, in order.
fn declared(manifest: &str, section: &str) -> Vec<String> {
    let start = manifest.find(&format!("\"{section}\": [")).expect(section);
    let body = &manifest[start..];
    let body = &body[..body.find("\n  ]").expect("section end")];
    body.lines()
        .filter_map(|line| line.trim().strip_prefix("{\"name\": \""))
        .map(|rest| rest[..rest.find('"').unwrap()].to_string())
        .collect()
}

fn manifest() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

#[test]
fn the_committed_manifest_is_the_one_the_binary_declares() {
    let printed = bench(&["--print-manifest"]);
    assert!(printed.status.success());
    assert_eq!(stdout(&printed), manifest());
    assert_eq!(declared(&manifest(), "workloads"), WORKLOADS);
}

#[test]
fn every_workload_reports_every_end_to_end_metric_and_is_correct() {
    let names = declared(&manifest(), "end_to_end");
    for workload in WORKLOADS {
        let output = quick(workload, "0", &[]);
        let text = stdout(&output);
        assert!(output.status.success(), "{workload}: {text}");
        let reported = metrics(&text);
        let reported_names: Vec<&str> = reported.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(reported_names, names, "{workload}");
        for (name, v) in &reported {
            assert!(
                *v > 0.0,
                "{workload}: {name} = {v} (end-to-end metrics are never 0)"
            );
        }
        let last = text.lines().last().unwrap();
        assert!(
            last.starts_with("{\"correct\": true, \"attempted\": ")
                && last.contains("\"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": "),
            "{workload}: {last}"
        );
        for name in &names {
            assert!(
                last.contains(&format!("\"{name}\": {{\"value\": ")),
                "{name}"
            );
        }
    }
}

/// Counts that must repeat bit-for-bit between two fresh processes.
const EXACT: [&str; 11] = [
    "intersect.pairs",
    "intersect.elems",
    "rma.gets",
    "rma.bytes",
    "rma.local_reads",
    "clampi.lookups",
    "clampi.hit_rate",
    "clampi.conflict_evictions",
    "clampi.adj_hit_rate",
    "clampi.evictions",
    "service.dedup_ratio",
];

// One test owns every traced run: they all write `out/trace-<workload>.json`.
#[test]
fn every_workload_reports_every_per_layer_metric_and_writes_its_trace() {
    let names = declared(&manifest(), "per_layer");
    for workload in WORKLOADS {
        let output = quick(workload, "1", &[]);
        let text = stdout(&output);
        assert!(output.status.success(), "{workload}: {text}");
        let reported = metrics(&text);
        let reported_names: Vec<&str> = reported.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(reported_names, names, "{workload}");
        assert!(text
            .lines()
            .last()
            .unwrap()
            .starts_with("{\"correct\": true"));

        // Layers every workload exercises.
        for name in [
            "graph.generate_s",
            "local.seq_s",
            "intersect.pairs",
            "rma.gets",
        ] {
            assert!(value(&reported, name) > 0.0, "{workload}: {name}");
        }
        assert_eq!(value(&reported, "rma.retries"), 0.0);
        assert!(
            value(&reported, "graph.compression_ratio") > 2.0,
            "{workload}"
        );

        let trace_path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{workload}.json"));
        let trace = std::fs::read_to_string(&trace_path).expect("the traced pass writes its spans");
        let span_names: BTreeSet<&str> = trace
            .lines()
            .filter_map(|line| line.split("\"name\": \"").nth(1))
            .map(|rest| &rest[..rest.find('"').unwrap()])
            .collect();
        for span in [
            "workload",
            "setup",
            "graph.generate",
            "graph.partition",
            "run",
        ] {
            assert!(span_names.contains(span), "{workload}: span {span}");
        }
        assert!(trace.contains(&format!("\"workload\": \"{workload}\"")));

        let again = metrics(&stdout(&quick(workload, "1", &[])));
        for name in EXACT {
            assert_eq!(
                value(&reported, name),
                value(&again, name),
                "{workload}: {name}"
            );
        }

        // What each workload is there for.
        match workload {
            "rmat14_lcc_cached" => {
                assert!(value(&reported, "clampi.adj_hit_rate") > 0.5);
                assert!(value(&reported, "clampi.lookups") > 0.0);
                assert!(value(&reported, "distributed.cache_gain_modeled") > 1.0);
                assert!(value(&reported, "distributed.scaling_eff_r2_r8") > 0.0);
                assert!(span_names.contains("run.noncached") && span_names.contains("run.r8"));
            }
            "uniform14_lcc_noncached" => {
                // The bypass workload really bypasses the cache.
                for (name, v) in &reported {
                    if name.starts_with("clampi.") {
                        assert_eq!(*v, 0.0, "{name}");
                    }
                }
                assert!(!span_names.contains("probe.clampi"));
                assert!(value(&reported, "intersect.share_merge") > 0.8);
            }
            "rmat14_jaccard_compressed" => {
                assert!(value(&reported, "intersect.compressed_ns_per_elem") > 0.0);
                assert!(value(&reported, "jaccard.edges") > 0.0);
                assert!(value(&reported, "clampi.hit_rate") > 0.0);
            }
            _ => {
                assert!(value(&reported, "service.dedup_ratio") > 1.0);
                assert!(value(&reported, "service.batches") > 0.0);
                assert_eq!(value(&reported, "service.shed"), 0.0);
                assert_eq!(value(&reported, "service.failed"), 0.0);
                assert!(value(&reported, "service.submit_ns") > 0.0);
                for span in [
                    "batch",
                    "service.submit",
                    "service.run_batch",
                    "service.build",
                ] {
                    assert!(span_names.contains(span), "span {span}");
                }
            }
        }
    }

    // The suite: all of the above as one command, one fresh process per pass.
    let suite = bench(&["--quick"]);
    let text = stdout(&suite);
    assert!(suite.status.success(), "{text}");
    assert!(text.lines().any(|l| l.starts_with("host\t{\"nproc\": ")));
    for workload in WORKLOADS {
        assert!(
            text.contains(&format!("{workload}\tcorrect\ttrue")),
            "{text}"
        );
        assert!(text.contains(&format!("{workload}\twall_s\t")));
        assert!(text.contains(&format!("{workload}\ttrace.overhead_pct\t")));
    }
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/results.json");
    let results = std::fs::read_to_string(results).expect("the suite writes results.json");
    assert!(results.contains("\"host\": {\"nproc\": ") && results.contains("\"commit\": "));
}

#[test]
fn a_wrong_reference_fails_every_workload() {
    for workload in WORKLOADS {
        let output = quick(workload, "0", &["--wrong-reference"]);
        let text = stdout(&output);
        assert!(!output.status.success(), "{workload} must exit non-zero");
        let last = text.lines().last().unwrap();
        assert!(
            last.starts_with("{\"correct\": false"),
            "{workload}: {last}"
        );
        assert!(!last.contains("\"failed\": 0,"), "{workload}: {last}");
    }
}

#[test]
fn bad_arguments_are_refused_without_a_result() {
    for args in [
        &["--workload", "tric"][..],
        &["--trace", "2"],
        &["--seconds", "900"],
        &["--bogus"],
    ] {
        let output = bench(args);
        assert!(!output.status.success(), "{args:?}");
        assert!(stdout(&output).is_empty(), "{args:?}");
    }
}
