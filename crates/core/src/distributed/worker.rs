//! The LCC instantiation of the distributed edge loop
//! ([`super::pipeline`]): the per-edge operation is the closing-vertex count
//! of Algorithm 3 — intersect the two adjacency rows of an edge and accumulate
//! closed-triplet counts per locally owned vertex.

use super::config::DistConfig;
use super::pipeline::run_rank;
use super::reader::{Edge, EdgeOp};
use super::windows::GraphWindows;
use crate::intersect::Intersector;
use crate::local::{compressed_count_closing_at, count_closing_at};
use rmatc_clampi::CacheStats;
use rmatc_graph::partition::{PartitionedGraph, RankPartition};
use rmatc_graph::types::{Direction, VertexId};
use rmatc_graph::GraphStorage;
use rmatc_rma::{RankStats, RmaError};

/// Everything a rank produces: its local triangle counts plus the statistics the
/// evaluation aggregates.
#[derive(Debug, Clone)]
pub struct WorkerOutput {
    /// The rank that produced this output.
    pub rank: usize,
    /// Closed-triplet count per locally owned vertex (local indexing).
    pub local_triangles: Vec<u64>,
    /// RMA statistics (gets, bytes, modeled communication time).
    pub rma: RankStats,
    /// `C_adj` statistics, when that cache is enabled.
    pub adjacency_cache: Option<CacheStats>,
    /// CPU time of the rank's compute loop, in nanoseconds (thread CPU time, so
    /// that oversubscribing the simulator's host does not inflate the measurement).
    pub compute_ns: u64,
    /// Directed edges processed by this rank.
    pub edges_processed: u64,
    /// Edges whose destination lived on another rank (each required a remote read).
    pub remote_edges: u64,
}

/// Runs one rank of the asynchronous distributed LCC computation.
///
/// Remote reads go through the self-healing path: transient failures,
/// corrupted transfers and stragglers past the timeout retry up to
/// [`DistConfig::retry`]'s budget. `Err` means the budget was exhausted —
/// only reachable under an unrecoverable fault plan.
pub fn run_worker(
    rank: usize,
    pg: &PartitionedGraph,
    windows: &GraphWindows,
    config: &DistConfig,
) -> Result<WorkerOutput, RmaError> {
    let op = ClosingCount::new(config, pg.direction, windows.storage);
    let out = run_rank(rank, pg, windows, config, &op)?;
    Ok(WorkerOutput {
        rank,
        local_triangles: out.items,
        rma: out.rma,
        adjacency_cache: out.adjacency_cache,
        compute_ns: out.compute_ns,
        edges_processed: out.edges_processed,
        remote_edges: out.remote_edges,
    })
}

/// The LCC per-edge operation: the number of vertices closing a triangle over
/// the edge `(u, v)` ([`count_closing_at`]), accumulated per owned vertex.
///
/// Every row is intersected where it lives — the rank's own partition, a
/// window slice, a cache entry, or the buffer a transfer landed in — with
/// zero heap allocations, by the configured kernel ([`count_closing_at`]).
/// Under compressed storage a remote row stays compressed wherever it lands
/// and the fused decompress+intersect kernels count it
/// ([`compressed_count_closing_at`]). Both slice their operands the same
/// way, so the count cannot depend on where the row was found.
#[derive(Debug)]
pub struct ClosingCount {
    direction: Direction,
    /// The sequential per-pair kernel: the distributed experiments map one
    /// MPI task per core, and a rank runs one thread.
    intersector: Intersector,
    /// Representation remote rows arrive in (local rows are always plain).
    storage: GraphStorage,
}

impl ClosingCount {
    /// The operation for a graph of the given `direction` whose remote rows
    /// arrive encoded as `storage` (that of the windows being read), with
    /// `config`'s intersection method.
    pub fn new(config: &DistConfig, direction: Direction, storage: GraphStorage) -> Self {
        Self {
            direction,
            intersector: Intersector::new(config.method),
            storage,
        }
    }
}

impl EdgeOp for ClosingCount {
    type Value = u64;
    type Item = u64;

    fn output(&self, part: &RankPartition) -> Vec<u64> {
        vec![0; part.local_vertex_count()]
    }

    fn local(&self, edge: &Edge<'_>, adj_v: &[VertexId]) -> u64 {
        let Edge { adj_u, v, k, .. } = *edge;
        count_closing_at(self.direction, adj_u, adj_v, v, k, &self.intersector)
    }

    fn stored(&self, edge: &Edge<'_>, row: &[VertexId]) -> u64 {
        let Edge { adj_u, v, k, .. } = *edge;
        match self.storage {
            GraphStorage::Plain => self.local(edge, row),
            GraphStorage::Compressed => {
                compressed_count_closing_at(self.direction, adj_u, row, v, k)
            }
        }
    }

    fn fold(&self, out: &mut Vec<u64>, edge: &Edge<'_>, value: u64) {
        out[edge.slot] += value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributed::config::CacheSpec;
    use crate::intersect::{CostModel, IntersectMethod};
    use rmatc_graph::gen::{GraphGenerator, RmatGenerator};
    use rmatc_graph::partition::PartitionScheme;
    use rmatc_graph::reference;
    use rmatc_rma::NetworkModel;

    fn setup(ranks: usize) -> (PartitionedGraph, GraphWindows, DistConfig) {
        let g = RmatGenerator::paper(8, 8).generate_cleaned(5).into_csr();
        let pg = PartitionedGraph::from_global(&g, PartitionScheme::Block1D, ranks).unwrap();
        let windows = GraphWindows::build(&pg);
        let config = DistConfig {
            ranks,
            scheme: PartitionScheme::Block1D,
            method: IntersectMethod::Hybrid,
            cost_model: CostModel::Analytic,
            network: NetworkModel::aries(),
            double_buffering: false,
            cache: None,
            retry: rmatc_rma::RetryPolicy::default(),
            faults: None,
            pipeline_depth: 1,
            storage: GraphStorage::Plain,
            ..DistConfig::non_cached(ranks)
        };
        (pg, windows, config)
    }

    #[test]
    fn single_worker_matches_reference_counts() {
        let (pg, windows, config) = setup(2);
        let g = pg.reassemble();
        let expected = reference::per_vertex_triangles(&g);
        for rank in 0..2 {
            let out = run_worker(rank, &pg, &windows, &config).unwrap();
            for (local_idx, &gv) in pg.partitions[rank].global_ids.iter().enumerate() {
                assert_eq!(
                    out.local_triangles[local_idx], expected[gv as usize],
                    "vertex {gv} on rank {rank}"
                );
            }
        }
    }

    #[test]
    fn compressed_worker_matches_reference_counts() {
        // Same per-vertex counts when every remote row travels compressed —
        // with and without the cache. The worker's own rows stay plain (the
        // partition keeps its CSR); only the windows change representation.
        let (pg, _plain, mut config) = setup(2);
        config.storage = GraphStorage::Compressed;
        let windows = GraphWindows::build_with(&pg, GraphStorage::Compressed);
        let g = pg.reassemble();
        let expected = reference::per_vertex_triangles(&g);
        for cached in [false, true] {
            config.cache = cached.then(|| CacheSpec::paper(1 << 20));
            for rank in 0..2 {
                let out = run_worker(rank, &pg, &windows, &config).unwrap();
                for (local_idx, &gv) in pg.partitions[rank].global_ids.iter().enumerate() {
                    assert_eq!(
                        out.local_triangles[local_idx], expected[gv as usize],
                        "vertex {gv} on rank {rank} cached={cached}"
                    );
                }
            }
        }
    }

    #[test]
    fn remote_edges_are_counted() {
        let (pg, windows, config) = setup(4);
        let out = run_worker(0, &pg, &windows, &config).unwrap();
        assert!(out.remote_edges > 0);
        assert!(out.remote_edges <= out.edges_processed);
        // Non-cached: every remote edge issues exactly two gets (offsets + list),
        // except edges towards empty rows which issue one.
        assert!(out.rma.gets >= out.remote_edges);
        assert!(out.rma.gets <= 2 * out.remote_edges);
    }

    #[test]
    fn cached_worker_reports_cache_stats() {
        let (pg, windows, mut config) = setup(2);
        config.cache = Some(CacheSpec::paper(1 << 20).with_degree_scores());
        let out = run_worker(0, &pg, &windows, &config).unwrap();
        let adj = out.adjacency_cache.expect("adjacency cache enabled");
        assert!(adj.lookups() > 0);
    }

    #[test]
    fn double_buffering_reduces_charged_comm_time() {
        let (pg, windows, mut config) = setup(2);
        config.network = NetworkModel {
            // Make the modeled network slow enough that compute can hide some of it.
            alpha_ns: 200.0,
            beta_ns_per_byte: 0.05,
            local_read_ns: 10.0,
            injection_scale: 0.0,
        };
        let without = run_worker(0, &pg, &windows, &config).unwrap();
        config.double_buffering = true;
        let with = run_worker(0, &pg, &windows, &config).unwrap();
        assert!(
            with.rma.comm_time_ns <= without.rma.comm_time_ns,
            "overlap credit must never increase charged communication time"
        );
        assert!(with.rma.overlapped_ns > 0.0);
    }

    #[test]
    fn overlap_credit_never_exceeds_the_ranks_compute_time() {
        // With a network far slower than the CPU every banked nanosecond is
        // consumed, so the overlapped total *is* the banked credit — which the
        // meter takes from the same timer `compute_ns` is read from.
        let (pg, windows, mut config) = setup(2);
        config.double_buffering = true;
        config.network = NetworkModel {
            alpha_ns: 1e6,
            beta_ns_per_byte: 1.0,
            local_read_ns: 10.0,
            injection_scale: 0.0,
        };
        for depth in [1usize, 4] {
            config.pipeline_depth = depth;
            let out = run_worker(0, &pg, &windows, &config).unwrap();
            assert!(out.rma.overlapped_ns > 0.0, "depth {depth}");
            assert!(
                out.rma.overlapped_ns <= out.compute_ns as f64,
                "depth {depth}: {} ns hidden by {} ns of compute",
                out.rma.overlapped_ns,
                out.compute_ns
            );
        }
    }

    /// Integer counters must match exactly across depths; the f64 time
    /// accumulators see the same charges but in a different interleaving
    /// (offsets-read charges land between deferred adjacency completions), so
    /// non-associative addition leaves ulp-level drift — compared with a tight
    /// relative tolerance instead.
    fn assert_stats_equivalent(a: &RankStats, b: &RankStats) {
        let mut ai = a.clone();
        let mut bi = b.clone();
        for s in [&mut ai, &mut bi] {
            s.comm_time_ns = 0.0;
            s.local_time_ns = 0.0;
            s.overlapped_ns = 0.0;
            s.backoff_ns = 0.0;
        }
        assert_eq!(ai, bi, "integer statistics must match exactly");
        for (x, y, what) in [
            (a.comm_time_ns, b.comm_time_ns, "comm_time_ns"),
            (a.local_time_ns, b.local_time_ns, "local_time_ns"),
            (a.overlapped_ns, b.overlapped_ns, "overlapped_ns"),
            (a.backoff_ns, b.backoff_ns, "backoff_ns"),
        ] {
            assert!(
                (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0),
                "{what}: {x} vs {y}"
            );
        }
    }

    #[test]
    fn any_depth_on_one_thread_is_bit_identical_to_depth_one() {
        // The strong equivalence tier: one thread, any depth, fault-free —
        // identical triangles, cache statistics (including the
        // logical/stored byte counters) and rank statistics, non-cached and
        // cached, plain and compressed.
        for storage in [GraphStorage::Plain, GraphStorage::Compressed] {
            for cached in [false, true] {
                let (pg, _, mut config) = setup(2);
                config.storage = storage;
                if cached {
                    config.cache = Some(CacheSpec::paper(1 << 20).with_degree_scores());
                }
                let windows = GraphWindows::build_with(&pg, storage);
                let baseline = run_worker(0, &pg, &windows, &config).unwrap();
                for depth in [2usize, 4, 16] {
                    config.pipeline_depth = depth;
                    let piped = run_worker(0, &pg, &windows, &config).unwrap();
                    let what = format!("{storage:?} cached={cached} d={depth}");
                    assert_eq!(piped.local_triangles, baseline.local_triangles, "{what}");
                    assert_eq!(piped.adjacency_cache, baseline.adjacency_cache, "{what}");
                    assert_stats_equivalent(&piped.rma, &baseline.rma);
                    assert_eq!(piped.edges_processed, baseline.edges_processed);
                    assert_eq!(piped.remote_edges, baseline.remote_edges);
                }
                if let (true, GraphStorage::Compressed) = (cached, storage) {
                    let adj = baseline.adjacency_cache.expect("adjacency cache enabled");
                    assert!(
                        adj.logical_bytes > adj.stored_bytes && adj.stored_bytes > 0,
                        "compressed misses must record a compression win"
                    );
                }
            }
        }
    }

    #[test]
    fn threaded_workers_match_scores_and_get_totals() {
        // Pipelined at depth 4 against depth 1: non-cached, gets and bytes
        // are per-edge deterministic. Cached, there is one lookup per remote
        // non-empty row and the offsets spans are planned per source, so the
        // gets that are not `C_adj` misses are fixed too.
        let adj = |out: &WorkerOutput| out.adjacency_cache.clone().unwrap_or_default();
        let lookups = |out: &WorkerOutput| adj(out).lookups();
        let misses = |out: &WorkerOutput| adj(out).misses;
        for cached in [false, true] {
            let (pg, windows, mut config) = setup(2);
            if cached {
                config.cache = Some(CacheSpec::paper(16 << 10).with_degree_scores());
            }
            let baseline = run_worker(0, &pg, &windows, &config).unwrap();
            let planned = baseline.rma.gets - misses(&baseline);
            if cached {
                assert!(planned < baseline.remote_edges, "spans must save gets");
            }
            config.pipeline_depth = 4;
            let out = run_worker(0, &pg, &windows, &config).unwrap();
            let what = format!("cached={cached}");
            assert_eq!(out.local_triangles, baseline.local_triangles, "{what}");
            assert_eq!(out.edges_processed, baseline.edges_processed, "{what}");
            assert_eq!(lookups(&out), lookups(&baseline), "{what}");
            assert_eq!(out.rma.gets - misses(&out), planned, "{what}");
            if !cached {
                assert_eq!(out.rma.bytes, baseline.rma.bytes, "{what}");
            }
        }
    }
}
