//! Configuration of the distributed runner: rank count, partitioning, intersection
//! method, network model, double buffering, and the CLaMPI cache's budget and
//! score rule.

use crate::intersect::{CostModel, IntersectMethod};
use rmatc_clampi::{ClampiConfig, ScorePolicy};
use rmatc_graph::partition::PartitionScheme;
use rmatc_graph::GraphStorage;
use rmatc_rma::{FaultPlan, NetworkModel, RetryPolicy};

/// CLaMPI cache of one rank: its budget and the score its eviction rule
/// weighs against recency — the one place a run's cache configuration is
/// decided ([`CacheSpec::resolve`]). Only the adjacency window is cached
/// (`C_adj`); the cached configuration reads the offsets of each source's
/// remote neighbours by span instead of through a second cache (see
/// [`super::reader`]).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CacheSpec {
    /// Total bytes reserved per rank for CLaMPI.
    pub total_bytes: usize,
    /// The eviction score (Figure 8's comparison):
    /// [`ScorePolicy::LruPositional`], CLaMPI's original LRU + positional
    /// score, or [`ScorePolicy::ApplicationScore`], the paper's extension,
    /// where the out-degree of the fetched vertex protects high-degree
    /// (high-reuse) entries. The reader passes every row's length as its
    /// score either way; only the second rule reads it.
    pub scoring: ScorePolicy,
}

impl CacheSpec {
    /// `total_bytes` per rank under CLaMPI's positional score.
    pub fn paper(total_bytes: usize) -> Self {
        Self {
            total_bytes,
            scoring: ScorePolicy::LruPositional,
        }
    }

    /// Same budget, scored by degree centrality
    /// ([`ScorePolicy::ApplicationScore`]).
    pub fn with_degree_scores(mut self) -> Self {
        self.scoring = ScorePolicy::ApplicationScore;
        self
    }

    /// Resolves the CLaMPI configuration for a graph with `n_global` vertices
    /// whose full adjacency array occupies `graph_adj_bytes`.
    ///
    /// `C_adj` gets the whole budget: the paper's `0.8 · |V|`-byte share for
    /// `C_offsets` has no cache left to fund. Its hash table follows Section
    /// III-B1's power-law estimate `n · f^α` with `α = 2`, where `f` is the
    /// fraction of the adjacency data the cache can hold. The sizes are final:
    /// a CLaMPI cache never resizes its table, which would flush it. The
    /// cache scores by [`CacheSpec::scoring`].
    pub fn resolve(&self, n_global: usize, graph_adj_bytes: u64) -> ResolvedCaches {
        let adj_bytes = self.total_bytes;
        let adjacencies = (adj_bytes > 0).then(|| {
            let fraction = if graph_adj_bytes == 0 {
                1.0
            } else {
                (adj_bytes as f64 / graph_adj_bytes as f64).min(1.0)
            };
            let slots = ClampiConfig::adjacency_table_slots(n_global, fraction);
            ClampiConfig {
                scoring: self.scoring,
                ..ClampiConfig::always_cache(adj_bytes, slots)
            }
        });
        ResolvedCaches { adjacencies }
    }
}

/// The concrete cache configuration produced by [`CacheSpec::resolve`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResolvedCaches {
    /// Configuration for `C_adj`, unless the budget is zero bytes.
    pub adjacencies: Option<ClampiConfig>,
}

/// Full configuration of a distributed run.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DistConfig {
    /// Number of ranks (the paper's "computing nodes").
    pub ranks: usize,
    /// Vertex partitioning scheme.
    pub scheme: PartitionScheme,
    /// Intersection kernel.
    pub method: IntersectMethod,
    /// Cost model [`IntersectMethod::Hybrid`] resolves kernels through on
    /// every rank; [`CostModel`] has one variant, the paper's analytic rule.
    pub cost_model: CostModel,
    /// Network cost model for remote reads.
    pub network: NetworkModel,
    /// Overlap the communication of the next edge with the computation of the
    /// current one (Section III-A's double buffering). Modeled as a credit:
    /// every [`rmatc_rma::cputime::COMPUTE_STRIDE`] edges the worker banks all
    /// the thread-CPU time it spent since the last banking — local and remote
    /// edges alike — and later get completions are charged only for what the
    /// bank does not cover ([`rmatc_rma::RankStats::overlapped_ns`]). The bank
    /// is unbounded, so this is an upper bound on what a finite prefetch
    /// depth hides; see `docs/OVERLAP.md`, "Measuring the overlap". Answers
    /// and every integer counter are identical either way.
    pub double_buffering: bool,
    /// CLaMPI caching — budget and eviction score; `None` runs the
    /// non-cached variant. `Some` also switches the edge loop to offsets
    /// spans: one get per run of a source's remote neighbours instead of one
    /// `(start, end)` get per edge.
    pub cache: Option<CacheSpec>,
    /// Retry policy of the self-healing remote-read path: attempt budget,
    /// exponential backoff and completion timeout, all charged through the
    /// cost accounting.
    pub retry: RetryPolicy,
    /// Deterministic fault injection; `None` (the default) runs the reliable
    /// network with zero overhead (no checksums computed).
    pub faults: Option<FaultPlan>,
    /// Software-pipelining depth of the edge loop: how many remote adjacency
    /// gets are kept in flight ahead of the computation. `0` or `1` is the
    /// classic issue-wait-compute loop; `D ≥ 2` keeps up to `D` gets issued
    /// before completing the oldest, overlapping their modeled latency with
    /// the issue-side work of the following edges (see `docs/OVERLAP.md`).
    pub pipeline_depth: usize,
    /// Pinned at `1`: a rank runs one thread, which owns its CLaMPI cache
    /// (the paper runs one MPI process per 1D block). The field stays only
    /// because the repository benchmark (`benchmark/`) still sets and checks
    /// it; it goes when that use does. `0` and `1` run; any value above 1
    /// panics when the run builds its rank reader
    /// ([`super::reader::RowReader::new`]).
    pub intra_threads: usize,
    /// Adjacency storage exposed in the RMA windows:
    /// [`GraphStorage::Plain`] (the default) exposes raw CSR rows;
    /// [`GraphStorage::Compressed`] exposes delta/varint-compressed rows
    /// ([`rmatc_graph::compressed`]), transfers and caches them compressed,
    /// and intersects through the fused decompress kernels
    /// ([`crate::intersect::compressed`]). Scores are bit-identical either
    /// way. The constructors honour `RMATC_STORAGE=compressed`.
    pub storage: GraphStorage,
}

impl DistConfig {
    /// Non-cached baseline configuration on `ranks` ranks.
    pub fn non_cached(ranks: usize) -> Self {
        Self {
            ranks,
            scheme: PartitionScheme::Block1D,
            method: IntersectMethod::Hybrid,
            cost_model: CostModel::Analytic,
            network: NetworkModel::aries(),
            double_buffering: true,
            cache: None,
            retry: RetryPolicy::default(),
            faults: None,
            pipeline_depth: 1,
            intra_threads: 1,
            storage: GraphStorage::from_env(),
        }
    }

    /// Cached configuration: `cache_bytes` per rank for `C_adj`, offsets
    /// read by span.
    pub fn cached(ranks: usize, cache_bytes: usize) -> Self {
        Self {
            cache: Some(CacheSpec::paper(cache_bytes)),
            ..Self::non_cached(ranks)
        }
    }

    /// Switches the adjacency cache's eviction score to degree centrality
    /// ([`CacheSpec::with_degree_scores`]). A no-op on the non-cached
    /// configuration: the score lives on the cache, so a cache set later
    /// brings its own.
    pub fn with_degree_scores(mut self) -> Self {
        self.cache = self.cache.map(CacheSpec::with_degree_scores);
        self
    }

    /// Same configuration with a different cost model for `Hybrid`
    /// resolution on every rank.
    pub fn with_cost_model(mut self, cost_model: CostModel) -> Self {
        self.cost_model = cost_model;
        self
    }

    /// Same configuration with a different retry policy for the self-healing
    /// read path.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Enables deterministic fault injection per `plan` (chaos testing). Use
    /// [`crate::DistLcc::try_run`] to observe unrecoverable plans as errors
    /// instead of panics.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Sets the software-pipelining depth of the edge loop (`0` and `1` both
    /// mean "no pipelining").
    pub fn with_pipeline_depth(mut self, depth: usize) -> Self {
        self.pipeline_depth = depth;
        self
    }

    /// Sets [`DistConfig::intra_threads`], the pinned field: kept only for the
    /// repository benchmark, which sets `1`. A run with any value above 1
    /// panics.
    pub fn with_intra_threads(mut self, threads: usize) -> Self {
        self.intra_threads = threads;
        self
    }

    /// Selects the adjacency storage mode exposed in the RMA windows (see
    /// [`DistConfig::storage`]).
    pub fn with_storage(mut self, storage: GraphStorage) -> Self {
        self.storage = storage;
        self
    }

    /// The effective pipeline depth (`max(depth, 1)`).
    pub fn effective_pipeline_depth(&self) -> usize {
        self.pipeline_depth.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_budget_goes_to_the_adjacency_cache() {
        let resolved = CacheSpec::paper(1 << 20).resolve(100_000, 10 << 20);
        let adj = resolved.adjacencies.expect("adjacency cache enabled");
        assert_eq!(adj.capacity_bytes, 1 << 20);
    }

    #[test]
    fn adjacency_slots_shrink_with_smaller_caches() {
        let big = CacheSpec::paper(1 << 20).resolve(100_000, 1 << 20);
        let small = CacheSpec::paper(1 << 17).resolve(100_000, 1 << 20);
        assert!(big.adjacencies.unwrap().table_slots > small.adjacencies.unwrap().table_slots);
    }

    #[test]
    fn zero_budget_leaves_no_adjacency_cache() {
        assert!(CacheSpec::paper(0)
            .resolve(10_000, 1 << 20)
            .adjacencies
            .is_none());
    }

    #[test]
    fn the_score_rule_threads_through_resolve() {
        let spec = CacheSpec::paper(1 << 20);
        assert_eq!(spec.scoring, ScorePolicy::LruPositional);
        let positional = spec.resolve(100_000, 10 << 20).adjacencies.unwrap();
        assert_eq!(positional.scoring, ScorePolicy::LruPositional);
        let degree = spec
            .with_degree_scores()
            .resolve(100_000, 10 << 20)
            .adjacencies
            .unwrap();
        assert_eq!(
            degree,
            ClampiConfig {
                scoring: ScorePolicy::ApplicationScore,
                ..positional
            },
            "the score is all the rule changes"
        );
        // And via the DistConfig builder.
        let c = DistConfig::cached(4, 1 << 20).with_degree_scores();
        assert_eq!(c.cache.unwrap().scoring, ScorePolicy::ApplicationScore);
        // No cache, no-op.
        assert!(DistConfig::non_cached(4)
            .with_degree_scores()
            .cache
            .is_none());
    }

    #[test]
    fn config_builders() {
        let c = DistConfig::cached(8, 1 << 20).with_degree_scores();
        assert_eq!(c.ranks, 8);
        assert!(c.cache.is_some());
        let nc = DistConfig::non_cached(4);
        assert!(nc.cache.is_none());
        assert!(nc.faults.is_none(), "faults are opt-in");
        let faulted = nc
            .with_faults(FaultPlan::light(9))
            .with_retry(RetryPolicy::no_retries());
        assert_eq!(faulted.faults, Some(FaultPlan::light(9)));
        assert_eq!(faulted.retry.max_attempts, 1);
    }

    #[test]
    fn overlap_knobs_default_off_and_normalize() {
        let c = DistConfig::non_cached(2);
        assert_eq!(c.pipeline_depth, 1);
        // 0 and 1 both mean "off".
        assert_eq!(c.with_pipeline_depth(0).effective_pipeline_depth(), 1);
        assert_eq!(c.with_pipeline_depth(4).effective_pipeline_depth(), 4);
    }
}
