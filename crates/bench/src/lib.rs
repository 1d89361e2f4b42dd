//! Benchmark harness reproducing the paper's evaluation.
//!
//! Every table and figure of Section IV has a dedicated binary in `src/bin/`
//! (`table2_graphs`, `table3_intersection`, `fig1_reuse`, …, `fig10_large_scale`);
//! each prints the rows/series of the corresponding artefact from this
//! reproduction's simulator, next to the paper's reference numbers where those are
//! scale-independent. `table3_intersection` also times the individual kernels
//! per list shape, plain and compressed.
//!
//! Measurement methodology follows the paper (which uses LibLSB): experiments are
//! repeated until the 95% confidence interval of the median is within 5% of the
//! median (with a configurable repetition cap), and the median is reported.
//!
//! The experiment scale is controlled with the `RMATC_SCALE` environment variable
//! (`tiny`, `small`, `medium`; default `tiny`) so the full suite runs in minutes on
//! a laptop while still exposing every code path the paper exercises.
//!
//! # Paper map
//!
//! | Binary (`src/bin/`) | Paper artefact | What it reproduces |
//! |---|---|---|
//! | `table2_graphs` | Table II | The evaluation graphs and their size/skew columns |
//! | `table3_intersection` | Table III | Shared-memory kernel comparison (SSI, binary search, hybrid, plus this reproduction's SIMD/galloping upgrades) |
//! | `fig1_reuse` | Figure 1 | Remote-access data-reuse distribution motivating caching |
//! | `fig4_reuse_skew` | Figure 4 | Reuse vs degree skew |
//! | `fig5_entry_sizes` | Figure 5 | Cached-entry size distribution |
//! | `fig6_shared_scaling` | Figure 6 | Shared-memory strong scaling of the intersection strategies |
//! | `fig7_cache_sweep` | Figure 7 | LCC runtime vs cache budget, adjacency panels only (there is no offsets cache) |
//! | `fig8_scores` | Figure 8 | LRU vs degree-centrality eviction scores |
//! | `fig9_small_scale` | Figure 9 | Small-scale distributed comparison (non-cached, cached, TriC) |
//! | `fig10_large_scale` | Figure 10 | Large-scale distributed runs |
//! | `text_comm_fractions` | §IV-C prose | Communication-time fractions quoted in the text |

pub mod measure;
pub mod runs;
pub mod table;

pub use measure::{measure_until, Measurement};
pub use runs::{experiment_scale, fmt_ms, fmt_ns, ranks_small_scale, seed};
pub use table::Table;
