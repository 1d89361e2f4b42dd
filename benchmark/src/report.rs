//! What one run reports: metric values by name, the attempted / failed
//! operation counts, and the output format — one `metric` line per value for
//! people and the suite runner, then the single JSON object the driver reads
//! as the last line of standard output.

use std::collections::BTreeMap;

/// A JSON number with all the digits measured (non-finite values become 0).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Metric values of one run, restricted to the names one table of
/// [`crate::spec`] declares. Unset metrics read 0: a layer the workload does
/// not touch reports zero work.
#[derive(Debug, Clone)]
pub struct Metrics {
    declared: Vec<(&'static str, &'static str)>,
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// An empty set over `(name, unit)` declarations.
    pub fn new(declared: impl IntoIterator<Item = (&'static str, &'static str)>) -> Self {
        Self {
            declared: declared.into_iter().collect(),
            values: BTreeMap::new(),
        }
    }

    pub fn end_to_end() -> Self {
        Self::new(crate::spec::END_TO_END.iter().map(|m| (m.name, m.unit)))
    }

    pub fn per_layer() -> Self {
        Self::new(crate::spec::PER_LAYER.iter().map(|m| (m.name, m.unit)))
    }

    /// Sets a declared metric; an undeclared name is a bug in the benchmark.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.declared.iter().any(|(n, _)| *n == name),
            "metric {name} is not declared in spec.rs"
        );
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// `(name, value, unit)` in declaration order.
    pub fn rows(&self) -> impl Iterator<Item = (&'static str, f64, &'static str)> + '_ {
        self.declared
            .iter()
            .map(|&(name, unit)| (name, self.get(name), unit))
    }
}

/// The outcome of one run of one workload.
#[derive(Debug, Clone)]
pub struct RunReport {
    pub metrics: Metrics,
    /// Repetitions (batch workloads) or queries (service) attempted.
    pub attempted: u64,
    /// Of those, how many failed or were answered wrongly.
    pub failed: u64,
}

impl RunReport {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The driver's result object.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .rows()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    number(value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// Prints every metric by name with its unit, then the result object.
    pub fn print(&self) {
        for (name, value, unit) in self.metrics.rows() {
            println!("metric\t{name}\t{}\t{unit}", number(value));
        }
        println!("{}", self.result_line());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_keys_in_declaration_order() {
        let mut metrics = Metrics::new([("b_ms", "ms"), ("a_s", "s")]);
        metrics.set("a_s", 0.25);
        let report = RunReport {
            metrics,
            attempted: 3,
            failed: 0,
        };
        assert_eq!(
            report.result_line(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"b_ms\": {\"value\": 0, \"unit\": \"ms\"}, \"a_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn failures_make_the_run_incorrect() {
        let report = RunReport {
            metrics: Metrics::new([]),
            attempted: 0,
            failed: 2,
        };
        assert!(report
            .result_line()
            .starts_with("{\"correct\": false, \"attempted\": 1, \"failed\": 2"));
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metric_names_are_rejected() {
        Metrics::new([("a", "s")]).set("b", 1.0);
    }

    #[test]
    fn non_finite_values_print_as_zero() {
        assert_eq!(number(f64::NAN), "0");
        assert_eq!(number(1.5e-7), "0.00000015");
    }
}
