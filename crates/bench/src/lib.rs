//! The paper-experiment binaries that still print tables, and their helpers.
//!
//! Three binaries in `src/bin/` remain: `table3_intersection` (Table III,
//! plus every intersection kernel timed per list shape), `fig9_small_scale`
//! (Figure 9) and `fig10_large_scale` (Figure 10). Every other figure of the
//! paper is checked by a test, not printed by a binary; the README's "Paper
//! figures and tables" section maps each figure to the test that checks it or
//! the binary that prints it.
//!
//! Measurement methodology follows the paper (which uses LibLSB): experiments are
//! repeated until the 95% confidence interval of the median is within 5% of the
//! median (with a configurable repetition cap), and the median is reported.
//!
//! The experiment scale is controlled with the `RMATC_SCALE` environment variable
//! (`tiny`, `small`, `medium`; default `tiny`).

pub mod measure;
pub mod runs;
pub mod table;

pub use measure::{measure_until, Measurement};
pub use runs::{experiment_scale, fmt_ms, ranks_small_scale, seed};
pub use table::Table;
