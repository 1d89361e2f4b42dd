//! Distributed Jaccard / common-neighbour similarity — the first "other graph
//! problem that may benefit from the proposed approach" the paper's conclusion lists
//! as future work (and cites as reference \[12\], communication-efficient Jaccard
//! similarity for distributed genome comparisons).
//!
//! The Jaccard similarity of an edge `(u, v)` is
//! `|adj(u) ∩ adj(v)| / |adj(u) ∪ adj(v)|`. Its distributed computation has exactly
//! the access pattern of LCC: every rank walks its locally owned vertices, fetches
//! the adjacency list of each (possibly remote) neighbour, and intersects — so the
//! same two-get RMA protocol, the same CLaMPI caches and the same degree-centrality
//! scores apply unchanged. This module reuses the LCC machinery end to end and only
//! swaps the per-edge kernel, demonstrating that the paper's approach generalizes
//! beyond triangle counting.

use crate::distributed::config::DistConfig;
use crate::distributed::pipeline::run_rank;
use crate::distributed::reader::{Edge, EdgeOp};
use crate::distributed::windows::GraphWindows;
use crate::intersect::{compressed_count_closing, CostModel, Intersector};
use rmatc_clampi::CacheStats;
use rmatc_graph::compressed::decoded_len;
use rmatc_graph::partition::{PartitionedGraph, RankPartition};
use rmatc_graph::types::VertexId;
use rmatc_graph::CsrGraph;
use rmatc_graph::GraphStorage;
use rmatc_rma::{run_ranks, RankStats, RmaError};

/// Similarity score of one directed edge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeSimilarity {
    /// Source vertex (the locally owned endpoint).
    pub source: VertexId,
    /// Destination vertex.
    pub destination: VertexId,
    /// Number of common neighbours of the two endpoints.
    pub common_neighbours: u64,
    /// Jaccard similarity `|∩| / |∪|` (0 when both adjacency lists are empty).
    pub jaccard: f64,
}

/// Result of a distributed Jaccard computation.
#[derive(Debug, Clone, PartialEq)]
pub struct JaccardResult {
    /// Per-edge similarities, in CSR order of the global graph.
    pub edges: Vec<EdgeSimilarity>,
    /// Per-rank RMA statistics (gets, bytes, modeled communication time).
    pub rank_stats: Vec<RankStats>,
    /// Per-rank compute time (thread CPU time), in nanoseconds.
    pub compute_ns: Vec<u64>,
    /// Per-rank adjacency-cache statistics, `None` where the rank ran without
    /// a cache.
    pub adjacency_cache: Vec<Option<CacheStats>>,
}

impl JaccardResult {
    /// Mean Jaccard similarity over all edges (0 for an empty graph).
    pub fn mean_jaccard(&self) -> f64 {
        if self.edges.is_empty() {
            return 0.0;
        }
        self.edges.iter().map(|e| e.jaccard).sum::<f64>() / self.edges.len() as f64
    }

    /// The `k` most similar edges in [`similarity_order`]: descending Jaccard
    /// score, equal scores broken by ascending `(source, destination)` — the
    /// result is deterministic regardless of rank count or storage mode.
    pub fn top_k(&self, k: usize) -> Vec<EdgeSimilarity> {
        top_k_edges(&self.edges, k)
    }

    /// Total RMA gets issued across ranks.
    pub fn total_gets(&self) -> u64 {
        self.rank_stats.iter().map(|s| s.gets).sum()
    }

    /// Maximum modeled communication time over ranks, in nanoseconds.
    pub fn max_comm_time_ns(&self) -> f64 {
        self.rank_stats
            .iter()
            .map(|s| s.comm_time_ns)
            .fold(0.0, f64::max)
    }

    /// Aggregated adjacency-cache statistics across ranks, as
    /// [`crate::DistResult::adjacency_cache_totals`].
    pub fn adjacency_cache_totals(&self) -> Option<CacheStats> {
        CacheStats::merged(self.adjacency_cache.iter().flatten())
    }
}

/// Distributed Jaccard-similarity runner sharing the LCC configuration type.
#[derive(Debug, Clone)]
pub struct DistJaccard {
    config: DistConfig,
}

impl DistJaccard {
    /// Creates a runner with the given configuration (ranks, partitioning, caching,
    /// score mode, network model, double buffering and pipeline depth are
    /// interpreted exactly as for [`crate::DistLcc`] — the two run the same
    /// edge loop).
    pub fn new(config: DistConfig) -> Self {
        Self { config }
    }

    /// Partitions `g` and computes the similarity of every directed edge.
    ///
    /// Panics if a rank exhausts its remote-read retry budget — only reachable
    /// under an unrecoverable [`rmatc_rma::FaultPlan`]; use
    /// [`DistJaccard::try_run`] to observe that as an error instead.
    pub fn run(&self, g: &CsrGraph) -> JaccardResult {
        self.try_run(g)
            .expect("a rank exhausted its remote-read retry budget")
    }

    /// Runs on an already partitioned graph. Panics like [`DistJaccard::run`]
    /// when a rank exhausts its retry budget.
    pub fn run_partitioned(&self, pg: &PartitionedGraph) -> JaccardResult {
        self.try_run_partitioned(pg)
            .expect("a rank exhausted its remote-read retry budget")
    }

    /// Fallible variant of [`DistJaccard::run`]: under fault injection, an
    /// exhausted retry budget surfaces as [`RmaError`] instead of panicking.
    /// Fault-free runs never error.
    pub fn try_run(&self, g: &CsrGraph) -> Result<JaccardResult, RmaError> {
        let pg = PartitionedGraph::from_global(g, self.config.scheme, self.config.ranks)
            .expect("invalid rank count for this graph");
        self.try_run_partitioned(&pg)
    }

    /// Fallible variant of [`DistJaccard::run_partitioned`] (see
    /// [`DistJaccard::try_run`]).
    pub fn try_run_partitioned(&self, pg: &PartitionedGraph) -> Result<JaccardResult, RmaError> {
        let cfg = &self.config;
        let windows = GraphWindows::build_with(pg, cfg.storage);
        let op = JaccardPair::new(cfg, windows.storage);
        let outputs = run_ranks(cfg.ranks, |rank| run_rank(rank, pg, &windows, cfg, &op))
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?;
        let mut edges = Vec::with_capacity(outputs.iter().map(|out| out.items.len()).sum());
        let mut rank_stats = Vec::with_capacity(cfg.ranks);
        let mut compute_ns = Vec::with_capacity(cfg.ranks);
        let mut adjacency_cache = Vec::with_capacity(cfg.ranks);
        for out in outputs {
            edges.extend(out.items);
            rank_stats.push(out.rma);
            compute_ns.push(out.compute_ns);
            adjacency_cache.push(out.adjacency_cache);
        }
        // Each rank folds its edges in source order, but a cyclic partition
        // interleaves sources across ranks. `(source, destination)` is unique
        // per directed edge, so the unstable sort gives the one order without
        // a scratch buffer.
        edges.sort_unstable_by_key(|e| (e.source, e.destination));
        Ok(JaccardResult {
            edges,
            rank_stats,
            compute_ns,
            adjacency_cache,
        })
    }
}

/// The canonical ranking order of similarity records: descending Jaccard
/// score, ties broken by ascending `(source, destination)`. Scores must not
/// be NaN (ours never are — a zero union yields score 0).
pub fn similarity_order(a: &EdgeSimilarity, b: &EdgeSimilarity) -> std::cmp::Ordering {
    b.jaccard
        .partial_cmp(&a.jaccard)
        .expect("scores are not NaN")
        .then_with(|| (a.source, a.destination).cmp(&(b.source, b.destination)))
}

/// The `k` best records of `edges` under [`similarity_order`]. Input order is
/// irrelevant: equal-score prefixes resolve by vertex ids, so the result is
/// identical across rank counts, storage modes, and batch shapes.
pub fn top_k_edges(edges: &[EdgeSimilarity], k: usize) -> Vec<EdgeSimilarity> {
    let mut sorted = edges.to_vec();
    sorted.sort_by(similarity_order);
    sorted.truncate(k);
    sorted
}

/// Builds one edge's similarity record from the endpoint degrees and the
/// common-neighbour count.
fn edge_similarity(
    source: VertexId,
    destination: VertexId,
    degree_u: usize,
    degree_v: usize,
    common: u64,
) -> EdgeSimilarity {
    let union = degree_u as u64 + degree_v as u64 - common;
    let jaccard = if union == 0 {
        0.0
    } else {
        common as f64 / union as f64
    };
    EdgeSimilarity {
        source,
        destination,
        common_neighbours: common,
        jaccard,
    }
}

/// The Jaccard per-edge operation of the distributed edge loop
/// ([`crate::distributed::pipeline`]) and of the resident service's pair and
/// top-k queries: the common-neighbour count of the two endpoints and the
/// degree of `v`, folded into one [`EdgeSimilarity`] per edge. The whole
/// intersection counts — no upper-triangle bound.
pub(crate) struct JaccardPair {
    intersector: Intersector,
    /// Representation remote rows arrive in (local rows are always plain).
    storage: GraphStorage,
}

impl JaccardPair {
    /// The operation over remote rows encoded as `storage` (that of the
    /// windows being read), with `config`'s intersection method.
    pub(crate) fn new(config: &DistConfig, storage: GraphStorage) -> Self {
        Self {
            intersector: Intersector::new(config.method),
            storage,
        }
    }
}

impl EdgeOp for JaccardPair {
    /// `(common, degree_v)`: the wire length of a compressed row is its word
    /// count, not the degree, so the degree always comes from the row itself.
    type Value = (u64, usize);
    type Item = EdgeSimilarity;

    fn output(&self, part: &RankPartition) -> Vec<EdgeSimilarity> {
        Vec::with_capacity(part.local_edge_count() as usize)
    }

    fn local(&self, edge: &Edge<'_>, adj_v: &[VertexId]) -> (u64, usize) {
        (self.intersector.count(edge.adj_u, adj_v), adj_v.len())
    }

    fn stored(&self, edge: &Edge<'_>, row: &[VertexId]) -> (u64, usize) {
        match self.storage {
            GraphStorage::Plain => self.local(edge, row),
            // Count in place over the stored words and take the degree from
            // the count word.
            GraphStorage::Compressed => (
                compressed_count_closing(edge.adj_u, row, None, &CostModel::Analytic),
                decoded_len(row),
            ),
        }
    }

    fn fold(
        &self,
        out: &mut Vec<EdgeSimilarity>,
        edge: &Edge<'_>,
        (common, degree_v): (u64, usize),
    ) {
        out.push(edge_similarity(
            edge.source,
            edge.v,
            edge.adj_u.len(),
            degree_v,
            common,
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributed::config::CacheSpec;
    use rmatc_graph::gen::{GraphGenerator, RmatGenerator};
    use rmatc_graph::reference;
    use rmatc_graph::types::Direction;

    fn reference_jaccard(g: &CsrGraph, u: VertexId, v: VertexId) -> f64 {
        let common = reference::common_neighbours(g, u, v);
        let union = g.degree(u) as u64 + g.degree(v) as u64 - common;
        if union == 0 {
            0.0
        } else {
            common as f64 / union as f64
        }
    }

    #[test]
    fn clique_edges_have_maximal_similarity() {
        // In a 4-clique, every edge's endpoints share the other two vertices:
        // |∩| = 2, |∪| = 4 (each endpoint also neighbours the other) → 0.5.
        let mut edges = Vec::new();
        for u in 0..4u32 {
            for v in 0..4u32 {
                if u != v {
                    edges.push((u, v));
                }
            }
        }
        let g = CsrGraph::from_edges(4, &edges, Direction::Undirected);
        let result = DistJaccard::new(DistConfig::non_cached(2)).run(&g);
        assert_eq!(result.edges.len(), 12);
        for e in &result.edges {
            assert_eq!(e.common_neighbours, 2);
            assert!((e.jaccard - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn matches_reference_on_every_edge_across_rank_counts() {
        let g = RmatGenerator::paper(8, 8).generate_cleaned(17).into_csr();
        for ranks in [1usize, 2, 4] {
            let result = DistJaccard::new(DistConfig::non_cached(ranks)).run(&g);
            assert_eq!(result.edges.len() as u64, g.edge_count());
            for e in &result.edges {
                let expected = reference_jaccard(&g, e.source, e.destination);
                assert!(
                    (e.jaccard - expected).abs() < 1e-12,
                    "edge ({}, {}) at {ranks} ranks",
                    e.source,
                    e.destination
                );
            }
        }
    }

    #[test]
    fn caching_does_not_change_scores_but_cuts_gets() {
        let g = RmatGenerator::paper(9, 16).generate_cleaned(19).into_csr();
        let plain = DistJaccard::new(DistConfig::non_cached(4)).run(&g);
        let mut cfg = DistConfig::non_cached(4);
        cfg.cache = Some(CacheSpec::paper(g.csr_size_bytes() as usize));
        let cached = DistJaccard::new(cfg.with_degree_scores()).run(&g);
        assert_eq!(plain.edges, cached.edges);
        assert!(cached.total_gets() < plain.total_gets());
        assert!(cached.max_comm_time_ns() < plain.max_comm_time_ns());
    }

    #[test]
    fn top_k_and_mean_are_consistent() {
        let g = RmatGenerator::paper(8, 8).generate_cleaned(23).into_csr();
        let result = DistJaccard::new(DistConfig::non_cached(2)).run(&g);
        let mean = result.mean_jaccard();
        assert!((0.0..=1.0).contains(&mean));
        let top = result.top_k(10);
        assert!(top.len() <= 10);
        assert!(top.windows(2).all(|w| w[0].jaccard >= w[1].jaccard));
        if let Some(best) = top.first() {
            assert!(best.jaccard >= mean);
        }
    }

    #[test]
    fn faulted_runs_with_retries_match_fault_free_scores() {
        let g = RmatGenerator::paper(8, 8).generate_cleaned(29).into_csr();
        let clean = DistJaccard::new(DistConfig::non_cached(3)).run(&g);
        let cfg = DistConfig::non_cached(3)
            .with_faults(rmatc_rma::FaultPlan::light(11))
            .with_retry(rmatc_rma::RetryPolicy {
                max_attempts: 16,
                ..Default::default()
            });
        let faulted = DistJaccard::new(cfg)
            .try_run(&g)
            .expect("light faults are recoverable");
        assert_eq!(clean.edges, faulted.edges);
        assert!(
            faulted
                .rank_stats
                .iter()
                .map(|s| s.fault_events())
                .sum::<u64>()
                > 0,
            "the light plan must actually inject faults"
        );
    }

    #[test]
    fn overlapped_runs_match_depth_one_scores_exactly() {
        let g = RmatGenerator::paper(8, 8).generate_cleaned(31).into_csr();
        let baseline = DistJaccard::new(DistConfig::non_cached(2)).run(&g);
        for depth in [4usize, 8] {
            let mut cfg = DistConfig::non_cached(2);
            cfg.pipeline_depth = depth;
            let out = DistJaccard::new(cfg).run(&g);
            assert_eq!(out.edges, baseline.edges, "depth {depth}");
            // Non-cached: gets are per-edge deterministic however the
            // overlapped loop interleaves them.
            assert_eq!(out.total_gets(), baseline.total_gets());
        }
    }

    #[test]
    fn overlapped_cached_runs_match_depth_one_scores_exactly() {
        let g = RmatGenerator::paper(9, 16).generate_cleaned(19).into_csr();
        let mut cfg = DistConfig::non_cached(4);
        cfg.cache = Some(CacheSpec::paper(g.csr_size_bytes() as usize));
        let cfg = cfg.with_degree_scores();
        let baseline = DistJaccard::new(cfg).run(&g);
        let mut piped = cfg;
        piped.pipeline_depth = 6;
        let out = DistJaccard::new(piped).run(&g);
        assert_eq!(out.edges, baseline.edges);
        // A rank performs cache operations in issue order at any depth —
        // the same sequence, so the same hit pattern and the same traffic.
        for (rank, (pip, seq)) in out.rank_stats.iter().zip(&baseline.rank_stats).enumerate() {
            assert_eq!(pip.gets, seq.gets, "rank {rank}");
            assert_eq!(pip.bytes, seq.bytes, "rank {rank}");
            assert_eq!(pip.local_reads, seq.local_reads, "rank {rank}");
        }
    }

    /// A network slow enough that compute can hide some of it.
    fn slow_network(alpha_ns: f64, beta_ns_per_byte: f64) -> rmatc_rma::NetworkModel {
        rmatc_rma::NetworkModel {
            alpha_ns,
            beta_ns_per_byte,
            local_read_ns: 10.0,
        }
    }

    #[test]
    fn double_buffering_reduces_charged_comm_time() {
        // `double_buffering` means for Jaccard what it means for LCC: the
        // edge loop banks its compute as overlap credit.
        let g = RmatGenerator::paper(8, 8).generate_cleaned(5).into_csr();
        let mut cfg = DistConfig::non_cached(2);
        cfg.network = slow_network(200.0, 0.05);
        cfg.double_buffering = false;
        let without = DistJaccard::new(cfg).run(&g);
        cfg.double_buffering = true;
        let with = DistJaccard::new(cfg).run(&g);
        assert_eq!(with.edges, without.edges);
        for (with, without) in with.rank_stats.iter().zip(&without.rank_stats) {
            assert!(
                with.comm_time_ns <= without.comm_time_ns,
                "overlap credit must never increase charged communication time"
            );
            assert!(with.overlapped_ns > 0.0);
            assert_eq!(without.overlapped_ns, 0.0);
        }
    }

    #[test]
    fn overlap_credit_never_exceeds_the_ranks_compute_time() {
        // With a network far slower than the CPU every banked nanosecond is
        // consumed, so the overlapped total *is* the banked credit — which the
        // meter takes from the same timer `compute_ns` is read from.
        let g = RmatGenerator::paper(8, 8).generate_cleaned(5).into_csr();
        let mut cfg = DistConfig::non_cached(2);
        cfg.double_buffering = true;
        cfg.network = slow_network(1e6, 1.0);
        for depth in [1usize, 4] {
            cfg.pipeline_depth = depth;
            let out = DistJaccard::new(cfg).run(&g);
            for (stats, &compute_ns) in out.rank_stats.iter().zip(&out.compute_ns) {
                assert!(stats.overlapped_ns > 0.0, "depth {depth}");
                assert!(
                    stats.overlapped_ns <= compute_ns as f64,
                    "depth {depth}: {} ns hidden by {compute_ns} ns of compute",
                    stats.overlapped_ns
                );
            }
        }
    }

    #[test]
    fn compressed_storage_matches_plain_scores_everywhere() {
        // Jaccard over compressed windows — non-cached, cached and
        // overlapped — must reproduce the plain-storage edges bit for bit.
        let g = RmatGenerator::paper(8, 8).generate_cleaned(17).into_csr();
        let plain = DistJaccard::new(DistConfig::non_cached(4)).run(&g);
        let base = DistConfig::non_cached(4).with_storage(GraphStorage::Compressed);
        assert_eq!(DistJaccard::new(base).run(&g).edges, plain.edges);
        let mut cached = base;
        cached.cache = Some(CacheSpec::paper(g.csr_size_bytes() as usize));
        let cached = cached.with_degree_scores();
        assert_eq!(DistJaccard::new(cached).run(&g).edges, plain.edges);
        let mut piped = cached;
        piped.pipeline_depth = 6;
        assert_eq!(DistJaccard::new(piped).run(&g).edges, plain.edges);
    }

    #[test]
    fn empty_graph_yields_empty_result() {
        let g = CsrGraph::from_edges(2, &[(0, 1), (1, 0)], Direction::Undirected);
        let result = DistJaccard::new(DistConfig::non_cached(1)).run(&g);
        assert_eq!(result.edges.len(), 2);
        assert_eq!(result.edges[0].common_neighbours, 0);
        assert_eq!(result.edges[0].jaccard, 0.0);
        assert_eq!(result.total_gets(), 0);
    }
}
