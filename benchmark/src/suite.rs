//! The whole suite: every workload in a fresh process of its own, an untraced
//! pass for the end-to-end metrics and a traced pass for the per-layer ones,
//! collected with the host they were measured on — and `--check-repeat`,
//! which runs the suite twice and holds the two to the benchmark's own bounds.

use crate::host::{HostInfo, SCRUBBED_ENV};
use crate::inputs::Workload;
use crate::report::number;
use crate::spec::{Better, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

pub struct SuiteOptions {
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    pub wrong_reference: bool,
    pub out_dir: PathBuf,
}

/// What one child process reported.
struct Pass {
    metrics: BTreeMap<String, f64>,
    exit_ok: bool,
}

/// Both passes of one workload.
pub struct WorkloadResults {
    end_to_end: BTreeMap<String, f64>,
    per_layer: BTreeMap<String, f64>,
    correct: bool,
}

pub struct SuiteResults {
    workloads: Vec<(Workload, WorkloadResults)>,
}

impl SuiteResults {
    pub fn correct(&self) -> bool {
        self.workloads.iter().all(|(_, r)| r.correct)
    }

    fn to_json(&self, host: &HostInfo, opts: &SuiteOptions) -> String {
        let object = |values: &BTreeMap<String, f64>| {
            let fields: Vec<String> = values
                .iter()
                .map(|(name, value)| format!("\"{name}\": {}", number(*value)))
                .collect();
            format!("{{{}}}", fields.join(", "))
        };
        let workloads: Vec<String> = self
            .workloads
            .iter()
            .map(|(w, r)| {
                format!(
                    "    \"{}\": {{\"correct\": {}, \"end_to_end\": {}, \"per_layer\": {}}}",
                    w.name(),
                    r.correct,
                    object(&r.end_to_end),
                    object(&r.per_layer)
                )
            })
            .collect();
        format!(
            "{{\n  \"host\": {},\n  \"seed\": {},\n  \"seconds\": {},\n  \"quick\": {},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
            host.to_json(),
            opts.seed,
            number(opts.seconds),
            opts.quick,
            workloads.join(",\n")
        )
    }
}

/// Runs one pass of one workload in a child process with a scrubbed
/// environment and reads back its `metric` lines.
fn pass(opts: &SuiteOptions, workload: Workload, trace: bool) -> Result<Pass, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload.name()])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if opts.quick {
        command.arg("--quick");
    }
    if opts.wrong_reference {
        command.arg("--wrong-reference");
    }
    for var in SCRUBBED_ENV {
        command.env_remove(var);
    }
    // `output` waits for the child: no process outlives the suite.
    let output = command
        .output()
        .map_err(|e| format!("{}: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut metrics = BTreeMap::new();
    for line in stdout.lines() {
        let fields: Vec<&str> = line.split('\t').collect();
        if let ["metric", name, value, _unit] = fields[..] {
            let value: f64 = value
                .parse()
                .map_err(|e| format!("{}: metric {name}: {e}", workload.name()))?;
            metrics.insert(name.to_string(), value);
        }
    }
    if metrics.is_empty() {
        return Err(format!(
            "{} printed no metrics (exit {:?}): {}",
            workload.name(),
            output.status.code(),
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    Ok(Pass {
        metrics,
        exit_ok: output.status.success(),
    })
}

/// Runs every workload, prints every metric by name with its unit, and
/// writes `results.json` into the output directory.
pub fn run(opts: &SuiteOptions) -> Result<SuiteResults, String> {
    let host = HostInfo::detect();
    println!("host\t{}", host.to_json());
    if host.oversubscribed() {
        println!("warning\toversubscribed: fewer than 2 cores, timings measure the scheduler");
    }
    let mut workloads = Vec::new();
    for workload in Workload::ALL {
        let untraced = pass(opts, workload, false)?;
        let traced = pass(opts, workload, true)?;
        for spec in &END_TO_END {
            let value = untraced.metrics.get(spec.name).copied().unwrap_or(0.0);
            println!(
                "{}\t{}\t{}\t{}",
                workload.name(),
                spec.name,
                number(value),
                spec.unit
            );
        }
        for spec in &PER_LAYER {
            let value = traced.metrics.get(spec.name).copied().unwrap_or(0.0);
            println!(
                "{}\t{}\t{}\t{}",
                workload.name(),
                spec.name,
                number(value),
                spec.unit
            );
        }
        let correct = untraced.exit_ok && traced.exit_ok;
        println!("{}\tcorrect\t{correct}", workload.name());
        workloads.push((
            workload,
            WorkloadResults {
                end_to_end: untraced.metrics,
                per_layer: traced.metrics,
                correct,
            },
        ));
    }
    let results = SuiteResults { workloads };
    let path = opts.out_dir.join("results.json");
    std::fs::create_dir_all(&opts.out_dir)
        .and_then(|()| std::fs::write(&path, results.to_json(&host, opts)))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("results\t{}", path.display());
    Ok(results)
}

/// By what share of `first` the second value is worse (negative: better).
fn worsening(first: f64, second: f64, better: Better) -> f64 {
    if first == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (second - first) / first,
        Better::Higher => (first - second) / first,
    }
}

/// Runs the suite twice on the same seed. Passes when both are correct, every
/// exact count is identical and no end-to-end metric differs by more than its
/// bound in either direction; prints the observed difference per metric.
pub fn check_repeat(opts: &SuiteOptions) -> Result<bool, String> {
    let first = run(opts)?;
    let second = run(opts)?;
    let mut ok = first.correct() && second.correct();
    for ((workload, a), (_, b)) in first.workloads.iter().zip(&second.workloads) {
        for spec in &END_TO_END {
            let (x, y) = (a.end_to_end[spec.name], b.end_to_end[spec.name]);
            let apart = worsening(x, y, spec.better)
                .abs()
                .max(worsening(y, x, spec.better).abs());
            let within = apart <= spec.bound;
            ok &= within;
            println!(
                "repeat\t{}\t{}\t{} vs {}\t{:.2}% apart (bound {:.0}%)\t{}",
                workload.name(),
                spec.name,
                number(x),
                number(y),
                apart * 100.0,
                spec.bound * 100.0,
                if within { "ok" } else { "OUTSIDE" }
            );
        }
        for spec in PER_LAYER.iter().filter(|s| s.exact) {
            let (x, y) = (a.per_layer[spec.name], b.per_layer[spec.name]);
            if x != y {
                ok = false;
                println!(
                    "repeat\t{}\t{}\t{} vs {}\tNOT IDENTICAL",
                    workload.name(),
                    spec.name,
                    number(x),
                    number(y)
                );
            }
        }
    }
    println!("repeat\t{}", if ok { "PASS" } else { "FAIL" });
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(10.0, 11.0, Better::Lower) - 0.1).abs() < 1e-12);
        assert!((worsening(10.0, 9.0, Better::Lower) + 0.1).abs() < 1e-12);
        assert!((worsening(10.0, 9.0, Better::Higher) - 0.1).abs() < 1e-12);
        assert_eq!(worsening(0.0, 5.0, Better::Lower), 0.0);
    }
}
