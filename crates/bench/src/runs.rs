//! Shared helpers for the experiment binaries: scale selection, seeds, rank lists
//! and time formatting.

use rmatc_graph::datasets::DatasetScale;

/// Reads the experiment scale from the `RMATC_SCALE` environment variable
/// (`tiny` / `small` / `medium`, default `tiny`).
pub fn experiment_scale() -> DatasetScale {
    match std::env::var("RMATC_SCALE")
        .unwrap_or_default()
        .to_lowercase()
        .as_str()
    {
        "medium" => DatasetScale::Medium,
        "small" => DatasetScale::Small,
        _ => DatasetScale::Tiny,
    }
}

/// Deterministic seed shared by all experiments; override with `RMATC_SEED`.
pub fn seed() -> u64 {
    env_or("RMATC_SEED", 42)
}

/// The node counts of the paper's small-scale experiments (Figure 9).
/// Override with `RMATC_MAX_RANKS` to cap the sweep.
pub fn ranks_small_scale() -> Vec<usize> {
    let cap = env_or("RMATC_MAX_RANKS", 64);
    [4, 8, 16, 32, 64]
        .into_iter()
        .filter(|&r| r <= cap)
        .collect()
}

/// The node counts of the paper's large-scale experiments (Figure 10).
pub fn ranks_large_scale() -> Vec<usize> {
    let cap = env_or("RMATC_MAX_RANKS", 512);
    [128, 256, 512].into_iter().filter(|&r| r <= cap).collect()
}

/// The environment variable `name` parsed as a `T`, or `default` when it is
/// unset or does not parse.
fn env_or<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Formats nanoseconds as milliseconds with three significant decimals.
pub fn fmt_ms(ns: f64) -> String {
    format!("{:.3}", ns / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scale_is_tiny() {
        // The variable may be set by the caller's environment; only check the
        // fallback parse behaviour through explicit strings.
        assert!(matches!(
            match "weird" {
                "medium" => DatasetScale::Medium,
                "small" => DatasetScale::Small,
                _ => DatasetScale::Tiny,
            },
            DatasetScale::Tiny
        ));
        let _ = experiment_scale();
    }

    #[test]
    fn rank_lists_match_the_paper() {
        // Without a cap the sweeps are exactly the paper's x-axes.
        std::env::remove_var("RMATC_MAX_RANKS");
        assert_eq!(ranks_small_scale(), vec![4, 8, 16, 32, 64]);
        assert_eq!(ranks_large_scale(), vec![128, 256, 512]);
    }

    #[test]
    fn time_formatting() {
        assert_eq!(fmt_ms(2_500_000.0), "2.500");
    }
}
