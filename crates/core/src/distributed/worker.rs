//! The per-rank computation of Algorithm 3: iterate over locally owned vertices and
//! their edges, fetch remote adjacency lists with the two-get protocol, intersect,
//! and accumulate closed-triplet counts — with no synchronization with other ranks.

use super::config::{DistConfig, ResolvedCaches};
use super::reader::RemoteReader;
use super::windows::GraphWindows;
use crate::intersect::ParallelIntersector;
use crate::local::count_closing_at;
use rmatc_clampi::CacheStats;
use rmatc_graph::partition::PartitionedGraph;
use rmatc_rma::{ComputeMeter, Endpoint, RankStats, RmaError, ThreadTimer};

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
    /// `C_offsets` statistics, when that cache is enabled.
    pub offsets_cache: Option<CacheStats>,
    /// `C_adj` statistics, when that cache is enabled.
    pub adjacency_cache: Option<CacheStats>,
    /// CPU time of the rank's compute loop, in nanoseconds (per-thread CPU time, so
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
    if config.overlapped() {
        // Pipeline depth or intra-rank threads requested: run the overlapped
        // worker (same output, same error semantics — `tests/equivalence.rs`
        // holds it to this loop's results).
        return super::pipeline::run_worker_overlapped(rank, pg, windows, config);
    }
    let part = &pg.partitions[rank];
    let n_global = pg.global_vertex_count();
    let caches = match &config.cache {
        Some(spec) => spec.resolve(n_global, windows.adjacency_bytes() as u64),
        None => ResolvedCaches {
            offsets: None,
            adjacencies: None,
        },
    };
    let mut reader = RemoteReader::new(windows, &caches, config);
    let mut ep = Endpoint::new(rank, config.ranks, config.network).with_retry(config.retry);
    if let Some(plan) = config.faults {
        ep = ep.with_faults(plan.injector(rank));
    }
    // The intersection inside one rank is sequential: the paper's shared-memory
    // parallelism is a separate axis (Figure 6) from the distributed one, and the
    // distributed experiments map one MPI task per core.
    let intersector =
        ParallelIntersector::new(config.method, 1, usize::MAX).with_cost_model(config.cost_model);
    let direction = pg.direction;

    let mut local_triangles = vec![0u64; part.local_vertex_count()];
    let mut edges_processed = 0u64;
    let mut remote_edges = 0u64;

    // Passive-target access epoch: opened once, closed after the full computation —
    // no synchronization with any other rank in between.
    ep.lock_all();
    let timer = ThreadTimer::start();
    // Double buffering: the computation of one edge overlaps the communication
    // of the next, so the rank's compute is banked as overlap credit for the
    // endpoint's later get completions. The credit covers everything the
    // thread does — local intersections, cache probes, landing copies — since
    // all of it is CPU work a prefetching double buffer hides behind in-flight
    // gets; the modeled communication cost is virtual time and never part of
    // it. The meter reads the thread clock once per stride of edges: the read
    // is a syscall that costs more than one protocol round.
    let mut meter = config.double_buffering.then(|| ComputeMeter::new(timer));
    for (local_idx, triangles_slot) in local_triangles.iter_mut().enumerate() {
        let adj_u = part.neighbours_of_local(local_idx);
        let mut triangles = 0u64;
        // `v` walks `adj_u` in sorted order, so the upper-triangle suffix of
        // `adj_u` is just `adj_u[k + 1..]` — the same O(1) incremental offset
        // the shared-memory path uses (`count_closing_at`).
        for (k, &v) in adj_u.iter().enumerate() {
            edges_processed += 1;
            if let Some(meter) = meter.as_mut() {
                meter.tick(&mut ep);
            }
            let owner = pg.partitioner.owner(v);
            let count = if owner == rank {
                // Neighbour owned locally: its row is in this rank's partition.
                let v_local = pg.partitioner.local_index(v);
                let adj_v = part.neighbours_of_local(v_local);
                triangles_for_edge(direction, adj_u, adj_v, v, k, &intersector)
            } else {
                remote_edges += 1;
                let v_local = pg.partitioner.local_index(v);
                // One fused protocol round: the remote row is intersected where
                // it lives (cache entry on a hit) or in the same pass that
                // lands it in the cache (miss) — no per-edge buffer is built.
                match reader.count_closing_remote(
                    &mut ep,
                    owner,
                    v_local,
                    direction,
                    adj_u,
                    v,
                    k,
                    &intersector,
                ) {
                    Ok(c) => c,
                    Err(e) => {
                        // Close the epoch before surfacing the error so the
                        // endpoint is left in a consistent state.
                        ep.unlock_all();
                        return Err(e);
                    }
                }
            };
            triangles += count;
        }
        *triangles_slot = triangles;
    }
    if let Some(meter) = meter.as_mut() {
        meter.bank(&mut ep);
    }
    let compute_ns = timer.elapsed_ns();
    ep.unlock_all();

    Ok(WorkerOutput {
        rank,
        local_triangles,
        offsets_cache: reader.offsets_cache_stats(),
        adjacency_cache: reader.adjacency_cache_stats(),
        rma: ep.into_stats(),
        compute_ns,
        edges_processed,
        remote_edges,
    })
}

fn triangles_for_edge(
    direction: rmatc_graph::types::Direction,
    adj_u: &[rmatc_graph::types::VertexId],
    adj_v: &[rmatc_graph::types::VertexId],
    v: rmatc_graph::types::VertexId,
    neighbour_idx: usize,
    intersector: &ParallelIntersector,
) -> u64 {
    count_closing_at(direction, adj_u, adj_v, v, neighbour_idx, intersector)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributed::config::{CacheSpec, ScoreMode};
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
            score_mode: ScoreMode::Lru,
            retry: rmatc_rma::RetryPolicy::default(),
            faults: None,
            pipeline_depth: 1,
            intra_threads: 1,
            storage: rmatc_graph::GraphStorage::Plain,
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
        config.storage = rmatc_graph::GraphStorage::Compressed;
        let windows = GraphWindows::build_with(&pg, rmatc_graph::GraphStorage::Compressed);
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
        config.cache = Some(CacheSpec::paper(1 << 20));
        config.score_mode = ScoreMode::DegreeCentrality;
        let out = run_worker(0, &pg, &windows, &config).unwrap();
        let adj = out.adjacency_cache.expect("adjacency cache enabled");
        assert!(adj.lookups() > 0);
        assert!(out.offsets_cache.is_some());
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
}
