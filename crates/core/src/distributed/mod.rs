//! Fully asynchronous distributed-memory TC/LCC (Algorithm 3 of the paper).
//!
//! The pipeline is:
//!
//! 1. The input CSR graph is 1D-partitioned: each rank owns a contiguous block of
//!    vertices and the CSR rows of exactly those vertices ([`rmatc_graph::partition`]).
//! 2. Every rank exposes its `offsets` and `adjacencies` arrays in two RMA windows
//!    (`w_offsets`, `w_adj`) — see [`windows::GraphWindows`].
//! 3. Ranks compute independently, with no synchronization whatsoever: for every
//!    locally owned vertex and every neighbour, the neighbour's adjacency list is
//!    read either locally (same rank) or with the two-get RMA protocol
//!    ([`reader::RowReader`]): one get into `w_offsets` for the (start, end)
//!    pair, one get into `w_adj` for the list itself.
//! 4. Optionally, the adjacency window is wrapped in a CLaMPI cache that can use
//!    the degree of the fetched vertex as an application-defined eviction score;
//!    the paper's second cache, over the offsets window, is replaced by reading
//!    each source's offsets pairs in α+β-planned spans
//!    ([`reader::RowReader::read_spans`]) — with or without the cache, so the
//!    non-cached baseline reads spans too, where the paper's reads one pair
//!    per edge.
//! 5. Per-edge intersections use the same kernels as the shared-memory path; double
//!    buffering overlaps the communication of the next edge with the computation of
//!    the current one.
//!
//! There is one remote-read path. [`reader::RowReader`] is the only
//! implementation of the two-get protocol and issues every get; the one
//! CLaMPI front of `rmatc_clampi` only decides hits (probe) and admissions
//! (admit). [`pipeline`] is the only edge loop, generic over
//! a small per-edge operation ([`reader::EdgeOp`]) that [`DistLcc`]
//! ([`worker::ClosingCount`]) and [`crate::DistJaccard`] instantiate; the
//! resident query service reads its rows through the same reader.
//! [`DistConfig::pipeline_depth`] shapes that loop — at depth 1 it *is* the
//! classic issue-wait-compute loop, not a different one. Each rank runs on
//! one thread, which owns its endpoint and its cache; ranks are the only
//! parallelism, as in the paper's one MPI process per 1D block.
//!
//! The entry point is [`DistLcc::run`], which returns per-vertex LCC scores, the
//! triangle count, and a per-rank [`RankReport`] with the timing breakdown and the
//! communication/cache statistics the paper's figures are built from.
//!
//! # Paper map (Figure 3 / Algorithm 3)
//!
//! | Step | Paper description | Module |
//! |---|---|---|
//! | 1 | 1D-partition the CSR graph across ranks | [`rmatc_graph::partition`] |
//! | 2 | Expose `offsets` / `adjacencies` in two RMA windows | [`windows`] |
//! | 3 | Open the passive-target access epoch, no synchronization | [`pipeline`] (`lock_all`) |
//! | 4 | Get the `(start, end)` pair from `w_offsets` (the edge loop, cached or not: every pair of a source, by span; the service: every pair of a batch, by span; the paper's non-cached loop reads one pair per edge) | [`reader`] (`read_spans`, `read_key_spans`) |
//! | 5 | Get the adjacency list from `w_adj`, cache-intercepted | [`reader`] + `rmatc_clampi` |
//! | 6 | Intersect, accumulate per-vertex closed triplets | [`worker`] (`ClosingCount`) + [`crate::intersect`] |
//! | — | The edge loop: gets kept in flight (§III-A's double buffer) | [`pipeline`] |
//! | — | Assemble LCC scores and per-rank reports | [`report`] |
//!
//! # Zero-copy reads
//!
//! The remote-adjacency hot path never materializes a per-edge buffer:
//! [`reader::RowReader::read_row`] returns a borrowed
//! `rmatc_clampi::RowRef` view (local window slice, cached entry, or the
//! miss's single transfer buffer), and the edge loop's
//! [`reader::RowReader::start`] computes over the row where it is —
//! cache hits in place, misses over the landed buffer the cache then
//! retains (under fault injection, only once its checksum has verified).
//! Hits and local-rank reads perform zero heap
//! allocations; a miss performs exactly one; a read nobody retains
//! (non-cached, quarantine bypass, offsets spans) is read in place, or under
//! fault injection lands in the rank's reused buffer and, once that has
//! grown, performs none.
//!
//! # Compressed adjacency
//!
//! With [`DistConfig::storage`] set to
//! [`rmatc_graph::GraphStorage::Compressed`] the same two windows carry
//! delta/varint-compressed rows ([`rmatc_graph::compressed`]): every
//! transferred and cached byte stays compressed end to end, and the fused
//! kernels ([`crate::intersect::compressed`]) decode block-wise *during* the
//! intersection — hits and local reads still allocate nothing. Scores are
//! bit-identical to plain storage; [`DistResult::transfer_compression_ratio`]
//! reports the measured logical-to-stored win. See `docs/COMPRESSION.md`.

pub mod config;
pub mod pipeline;
pub mod reader;
pub mod report;
pub mod windows;
pub mod worker;

pub use config::{CacheSpec, DistConfig};
pub use report::{DistResult, RankReport, TimingBreakdown};
pub use windows::GraphWindows;

use rmatc_graph::partition::PartitionedGraph;
use rmatc_graph::CsrGraph;
use rmatc_rma::{run_ranks, RmaError};

/// Distributed LCC/TC runner.
#[derive(Debug, Clone)]
pub struct DistLcc {
    config: DistConfig,
}

impl DistLcc {
    /// Creates a runner with the given configuration.
    pub fn new(config: DistConfig) -> Self {
        Self { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &DistConfig {
        &self.config
    }

    /// Partitions `g`, runs the asynchronous distributed computation and assembles
    /// the global result.
    ///
    /// Panics if a rank exhausts its retry budget — only reachable under an
    /// unrecoverable [`rmatc_rma::FaultPlan`]; use [`DistLcc::try_run`] to
    /// observe that as an error instead.
    pub fn run(&self, g: &CsrGraph) -> DistResult {
        self.try_run(g)
            .expect("a rank exhausted its remote-read retry budget")
    }

    /// Runs on an already partitioned graph (setup/distribution time is excluded
    /// from all measurements, as in the paper). Panics like [`DistLcc::run`]
    /// when a rank exhausts its retry budget.
    pub fn run_partitioned(&self, pg: &PartitionedGraph) -> DistResult {
        self.try_run_partitioned(pg)
            .expect("a rank exhausted its remote-read retry budget")
    }

    /// Fallible variant of [`DistLcc::run`]: under fault injection, a rank
    /// that exhausts its retry budget surfaces the first failure as
    /// [`RmaError`] (typically [`RmaError::RetriesExhausted`]) instead of
    /// panicking. Fault-free runs never error.
    pub fn try_run(&self, g: &CsrGraph) -> Result<DistResult, RmaError> {
        let pg = PartitionedGraph::from_global(g, self.config.scheme, self.config.ranks)
            .expect("invalid rank count for this graph");
        self.try_run_partitioned(&pg)
    }

    /// Fallible variant of [`DistLcc::run_partitioned`] (see
    /// [`DistLcc::try_run`]).
    pub fn try_run_partitioned(&self, pg: &PartitionedGraph) -> Result<DistResult, RmaError> {
        let windows = GraphWindows::build_with(pg, self.config.storage);
        let cfg = &self.config;
        let outputs = run_ranks(cfg.ranks, |rank| {
            worker::run_worker(rank, pg, &windows, cfg)
        })
        .into_iter()
        // Lowest failing rank wins: rank order, not completion order, keeps
        // the surfaced error deterministic.
        .collect::<Result<Vec<_>, _>>()?;
        Ok(report::assemble(pg, cfg, outputs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intersect::{CostModel, IntersectMethod};
    use rmatc_graph::datasets::{Dataset, DatasetScale};
    use rmatc_graph::gen::{GraphGenerator, RmatGenerator};
    use rmatc_graph::partition::PartitionScheme;
    use rmatc_graph::reference;
    use rmatc_rma::NetworkModel;

    fn small_graph() -> CsrGraph {
        RmatGenerator::paper(9, 8).generate_cleaned(7).into_csr()
    }

    fn base_config(ranks: usize) -> DistConfig {
        DistConfig {
            ranks,
            scheme: PartitionScheme::Block1D,
            method: IntersectMethod::Hybrid,
            cost_model: CostModel::Analytic,
            network: NetworkModel::aries(),
            double_buffering: true,
            cache: None,
            retry: rmatc_rma::RetryPolicy::default(),
            faults: None,
            pipeline_depth: 1,
            storage: rmatc_graph::GraphStorage::Plain,
            ..DistConfig::non_cached(ranks)
        }
    }

    #[test]
    fn distributed_matches_reference_without_cache() {
        let g = small_graph();
        let expected = reference::lcc_scores(&g);
        for ranks in [1, 2, 4, 8] {
            let result = DistLcc::new(base_config(ranks)).run(&g);
            assert_eq!(
                result.triangle_count,
                reference::count_triangles(&g),
                "p = {ranks}"
            );
            assert_eq!(result.lcc.len(), expected.len());
            for (v, (a, b)) in result.lcc.iter().zip(expected.iter()).enumerate() {
                assert!(
                    (a - b).abs() < 1e-12,
                    "vertex {v}: {a} vs {b} at p = {ranks}"
                );
            }
        }
    }

    #[test]
    fn distributed_matches_reference_with_cache() {
        let g = small_graph();
        let expected = reference::count_triangles(&g);
        let mut cfg = base_config(4);
        cfg.cache = Some(CacheSpec::paper(1 << 20).with_degree_scores());
        let result = DistLcc::new(cfg).run(&g);
        assert_eq!(result.triangle_count, expected);
        let lcc = reference::lcc_scores(&g);
        for (a, b) in result.lcc.iter().zip(lcc.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
        // With a skewed graph and a generous cache, hits must occur.
        assert!(result.cache_hits() > 0);
    }

    #[test]
    fn compressed_storage_matches_reference_and_compresses_transfers() {
        // End-to-end compressed mode: identical scores with and without the
        // cache, and — the point of the exercise — the adjacency bytes that
        // cross the network shrink by at least 2x on the paper's R-MAT graph
        // (delta/varint rows of a skewed degree distribution compress well).
        let g = RmatGenerator::paper(10, 16).generate_cleaned(11).into_csr();
        let expected = reference::lcc_scores(&g);
        let mut cfg = base_config(4);
        cfg.storage = rmatc_graph::GraphStorage::Compressed;
        let plain_lcc = DistLcc::new(base_config(4)).run(&g);
        let uncached = DistLcc::new(cfg).run(&g);
        assert_eq!(uncached.triangle_count, plain_lcc.triangle_count);
        for (v, (a, b)) in uncached.lcc.iter().zip(expected.iter()).enumerate() {
            assert!((a - b).abs() < 1e-12, "vertex {v}: {a} vs {b}");
        }
        // Fewer bytes on the wire than the plain run, same get count.
        assert_eq!(uncached.total_gets(), plain_lcc.total_gets());
        assert!(
            uncached.total_bytes() < plain_lcc.total_bytes(),
            "compressed transfers must shrink wire bytes ({} vs {})",
            uncached.total_bytes(),
            plain_lcc.total_bytes()
        );
        cfg.cache = Some(CacheSpec::paper(1 << 20).with_degree_scores());
        let cached = DistLcc::new(cfg).run(&g);
        assert_eq!(cached.triangle_count, plain_lcc.triangle_count);
        assert!(cached.cache_hits() > 0);
        let ratio = cached.transfer_compression_ratio();
        assert!(
            ratio >= 2.0,
            "adjacency misses must compress at least 2x on R-MAT (got {ratio:.2}x)"
        );
    }

    #[test]
    fn cyclic_partitioning_is_also_correct() {
        let g = small_graph();
        let mut cfg = base_config(4);
        cfg.scheme = PartitionScheme::Cyclic;
        let result = DistLcc::new(cfg).run(&g);
        assert_eq!(result.triangle_count, reference::count_triangles(&g));
    }

    #[test]
    fn balanced_block_partitioning_is_correct_and_balances_compute() {
        // The degree-weighted boundaries of `BalancedBlock1D` must preserve
        // results and distribute per-rank edge work more evenly than the
        // equal-count blocks on a hub-heavy graph.
        let g = small_graph();
        let mut cfg = base_config(4);
        cfg.scheme = PartitionScheme::BalancedBlock1D;
        let balanced = DistLcc::new(cfg).run(&g);
        assert_eq!(balanced.triangle_count, reference::count_triangles(&g));
        let block = DistLcc::new(base_config(4)).run(&g);
        let spread = |r: &DistResult| {
            let edges: Vec<u64> = r.ranks.iter().map(|rank| rank.edges_processed).collect();
            *edges.iter().max().unwrap() as f64 / *edges.iter().min().unwrap().max(&1) as f64
        };
        assert!(
            spread(&balanced) <= spread(&block),
            "balanced per-rank edge spread {} must not exceed block {}",
            spread(&balanced),
            spread(&block)
        );
    }

    #[test]
    fn work_balanced_partitioning_is_correct_and_balances_compute() {
        // `WorkBalancedBlock1D` equalizes intersection work (deg(u)+deg(v)
        // summed over owned edges) instead of edge count. It must preserve
        // results exactly and its per-rank edge spread must not blow up
        // relative to the equal-count blocks.
        let g = small_graph();
        let mut cfg = base_config(4);
        cfg.scheme = PartitionScheme::WorkBalancedBlock1D;
        let balanced = DistLcc::new(cfg).run(&g);
        assert_eq!(balanced.triangle_count, reference::count_triangles(&g));
        assert_eq!(
            balanced.lcc,
            DistLcc::new(base_config(4)).run(&g).lcc,
            "partitioning must not change scores"
        );
    }

    #[test]
    fn directed_graphs_are_supported() {
        let g = Dataset::LiveJournal1.generate(DatasetScale::Tiny, 3);
        let expected = reference::lcc_scores(&g);
        let result = DistLcc::new(base_config(4)).run(&g);
        for (a, b) in result.lcc.iter().zip(expected.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn caching_reduces_remote_gets() {
        let g = small_graph();
        let uncached = DistLcc::new(base_config(4)).run(&g);
        let mut cfg = base_config(4);
        cfg.cache = Some(CacheSpec::paper(4 << 20));
        let cached = DistLcc::new(cfg).run(&g);
        assert!(
            cached.total_gets() < uncached.total_gets(),
            "caching must eliminate repeated remote reads ({} vs {})",
            cached.total_gets(),
            uncached.total_gets()
        );
        assert!(cached.max_comm_time_ns() < uncached.max_comm_time_ns());
    }

    #[test]
    fn reports_are_complete() {
        let g = small_graph();
        let result = DistLcc::new(base_config(2)).run(&g);
        assert_eq!(result.ranks.len(), 2);
        for report in &result.ranks {
            assert!(report.timing.total_ns() > 0.0);
            assert!(report.edges_processed > 0);
        }
        assert!(result.max_rank_time_ns() >= result.ranks[0].timing.total_ns() - 1e-9);
        assert!(result.remote_edge_fraction > 0.0);
    }

    #[test]
    fn recoverable_faults_leave_results_bit_identical() {
        let g = small_graph();
        let clean = DistLcc::new(base_config(4)).run(&g);
        let mut cfg = base_config(4);
        cfg.faults = Some(rmatc_rma::FaultPlan::light(42));
        cfg.retry = rmatc_rma::RetryPolicy {
            max_attempts: 16,
            ..Default::default()
        };
        let faulted = DistLcc::new(cfg)
            .try_run(&g)
            .expect("light faults are recoverable");
        assert_eq!(faulted.triangle_count, clean.triangle_count);
        assert_eq!(faulted.per_vertex_triangles, clean.per_vertex_triangles);
        assert!(
            faulted.total_fault_events() > 0,
            "the light plan must actually inject faults"
        );
        assert_eq!(clean.total_fault_events(), 0);
    }

    #[test]
    fn unrecoverable_plans_surface_a_clean_error() {
        let g = small_graph();
        let mut cfg = base_config(2);
        cfg.faults = Some(rmatc_rma::FaultPlan::unrecoverable(7));
        cfg.retry = rmatc_rma::RetryPolicy::no_retries();
        let err = DistLcc::new(cfg).try_run(&g).unwrap_err();
        assert!(matches!(err, rmatc_rma::RmaError::RetriesExhausted { .. }));
    }

    #[test]
    #[should_panic(expected = "intra-rank threading was removed")]
    fn intra_threads_above_one_fail_loudly() {
        // The pinned field: a rank runs one thread, and a request for more
        // stops the run instead of silently running one.
        DistLcc::new(base_config(2).with_intra_threads(4)).run(&small_graph());
    }

    #[test]
    fn single_rank_issues_no_remote_gets() {
        let g = small_graph();
        let result = DistLcc::new(base_config(1)).run(&g);
        assert_eq!(result.total_gets(), 0);
        assert_eq!(result.triangle_count, reference::count_triangles(&g));
    }
}
