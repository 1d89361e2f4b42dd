//! The repo benchmark. See `README.md` in this directory and
//! `BENCHMARK.json` at the repository root.
//!
//! ```text
//! rmatc-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! rmatc-benchmark [--seed <n>] [--seconds <s>] [--quick]     # all workloads
//! rmatc-benchmark --check-repeat [--quick]                   # the suite twice
//! rmatc-benchmark --print-manifest                           # BENCHMARK.json
//! ```

mod batch;
mod host;
mod inputs;
mod probes;
mod report;
mod run;
mod service;
mod spec;
mod stats;
mod suite;
mod trace;

use inputs::Workload;
use std::path::PathBuf;
use std::process::ExitCode;

/// Where the span files and the suite's results go: `out/` beside this
/// package's manifest, wherever the command was started from.
fn out_dir() -> PathBuf {
    let manifest_dir = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    PathBuf::from(manifest_dir).join("out")
}

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    wrong_reference: bool,
    check_repeat: bool,
    print_manifest: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 7,
        seconds: f64::from(spec::RUN_SECONDS),
        trace: false,
        quick: false,
        wrong_reference: false,
        check_repeat: false,
        print_manifest: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{arg} needs a value"))
                .map(String::as_str)
        };
        match arg.as_str() {
            "--workload" => cli.workload = Some(value()?.to_string()),
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=60.0).contains(&cli.seconds) {
                    return Err("--seconds must be between 0 and 60".to_string());
                }
            }
            "--trace" => {
                cli.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => cli.quick = true,
            "--wrong-reference" => cli.wrong_reference = true,
            "--check-repeat" => cli.check_repeat = true,
            "--print-manifest" => cli.print_manifest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if cli.quick {
        // The quick sizing is bounded by repetition counts, not by the clock.
        cli.seconds = 0.0;
    }
    Ok(cli)
}

fn run_one(cli: &Cli, name: &str) -> Result<bool, String> {
    let workload = Workload::from_name(name).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!(
            "unknown workload {name}; the workloads are {}",
            names.join(", ")
        )
    })?;
    let opts = run::Options {
        workload,
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        quick: cli.quick,
        wrong_reference: cli.wrong_reference,
    };
    let host = host::HostInfo::detect();
    println!(
        "workload\t{name}\tseed {}\tseconds {}\ttrace {}",
        cli.seed,
        cli.seconds,
        u8::from(cli.trace)
    );
    println!("host\t{}", host.to_json());
    if host.oversubscribed() {
        println!("warning\toversubscribed: fewer than 2 cores, timings measure the scheduler");
    }
    let (report, trace) = run::run(&opts);
    if cli.trace {
        let dir = out_dir();
        let path = dir.join(format!("trace-{name}.json"));
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, trace.to_json(name)))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("trace\t{}\t{} spans", path.display(), trace.spans().len());
        for (span, (total_ns, self_ns)) in trace.totals_by_name() {
            println!(
                "span\t{span}\ttotal_ms {:.3}\tself_ms {:.3}",
                total_ns as f64 * 1e-6,
                self_ns as f64 * 1e-6
            );
        }
    }
    report.print();
    Ok(report.correct())
}

fn main() -> ExitCode {
    // Before any library call: the thread pool and the storage default read
    // these once.
    host::scrub_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse(&args).and_then(|cli| {
        if cli.print_manifest {
            print!("{}", spec::manifest_json());
            Ok(true)
        } else if let Some(name) = &cli.workload {
            run_one(&cli, name)
        } else {
            let opts = suite::SuiteOptions {
                seed: cli.seed,
                seconds: cli.seconds,
                quick: cli.quick,
                wrong_reference: cli.wrong_reference,
                out_dir: out_dir(),
            };
            if cli.check_repeat {
                suite::check_repeat(&opts)
            } else {
                suite::run(&opts).map(|results| results.correct())
            }
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("rmatc-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
