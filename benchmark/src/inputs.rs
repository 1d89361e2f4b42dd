//! Workload inputs, all derived from `--seed`: graphs, the explicit library
//! configurations, the service's query mix, and the replay lists the
//! per-layer probes run on. The library receives only these generated inputs.

use crate::trace::{SpanId, Trace};
use rmatc::prelude::*;
use std::time::Instant;

/// The service's resident graph is its deployment, not its traffic: it is
/// generated from this fixed seed, and `--seed` draws the query stream. The
/// cost of the hub-heavy mix follows the few top hub degrees, which differ
/// by ±15 % between R-MAT seeds at any scale; seeding the graph too would
/// make ten seeds measure ten different services.
pub const SERVICE_GRAPH_SEED: u64 = 7;

/// Queries per closed-loop window of the service workload (also the engine's
/// batch size and queue capacity, so a window is exactly one batch).
pub const WINDOW: usize = 64;

/// The four workloads, in the order of [`crate::spec::WORKLOADS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    LccCached,
    LccNonCached,
    JaccardCompressed,
    ServiceHubmix,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::LccCached,
        Workload::LccNonCached,
        Workload::JaccardCompressed,
        Workload::ServiceHubmix,
    ];

    pub fn name(self) -> &'static str {
        crate::spec::WORKLOADS[self as usize].name
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Simulated ranks: one rank thread per core for the batch runs (fixed,
    /// not derived from the host); the engine executes its four rank lanes on
    /// the caller thread.
    pub fn ranks(self) -> usize {
        match self {
            Workload::ServiceHubmix => 4,
            _ => 2,
        }
    }

    pub fn storage(self) -> GraphStorage {
        match self {
            Workload::JaccardCompressed => GraphStorage::Compressed,
            _ => GraphStorage::Plain,
        }
    }
}

/// How much work one run does. `full` is what the manifest's numbers are
/// measured with; `quick` exercises every code path in seconds for
/// `cargo test` (its timings mean nothing).
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    /// R-MAT scale of the batch workloads, and log2 of the uniform graph's
    /// vertex count.
    pub batch_scale: u32,
    /// R-MAT scale of the service workload.
    pub service_scale: u32,
    /// Fewest set-ups timed per run (`setup_s` is their median).
    pub setup_builds: usize,
    /// Set-ups repeat until this many seconds have passed.
    pub setup_seconds: f64,
    /// Fewest timed repetitions, however short `--seconds` is.
    pub min_reps: usize,
    /// Untimed service windows that warm the caches.
    pub warm_windows: usize,
    /// Service windows per repetition.
    pub windows_per_rep: usize,
}

impl Sizing {
    pub fn full() -> Self {
        Self {
            batch_scale: 14,
            service_scale: 12,
            setup_builds: 5,
            setup_seconds: 1.5,
            min_reps: 5,
            warm_windows: 100,
            windows_per_rep: 100,
        }
    }

    pub fn quick() -> Self {
        Self {
            batch_scale: 12,
            service_scale: 12,
            setup_builds: 2,
            setup_seconds: 0.0,
            min_reps: 3,
            warm_windows: 4,
            windows_per_rep: 9,
        }
    }
}

/// A generated, cleaned and partitioned graph with the time each phase took.
pub struct Built {
    pub g: CsrGraph,
    pub pg: PartitionedGraph,
    pub generate_s: f64,
    pub partition_s: f64,
}

/// Generates the workload's graph from `seed` and partitions it, one span
/// per phase under `parent`.
pub fn build(
    workload: Workload,
    seed: u64,
    sizing: &Sizing,
    trace: &mut Trace,
    parent: SpanId,
) -> Built {
    let span = trace.open("graph.generate", Some(parent));
    let start = Instant::now();
    let g = match workload {
        Workload::LccNonCached => {
            // Degree ≈ 64, no skew.
            let n = 1usize << sizing.batch_scale;
            UniformRandom::undirected(n, n << 5).generate_cleaned(seed)
        }
        Workload::ServiceHubmix => {
            RmatGenerator::paper(sizing.service_scale, 16).generate_cleaned(SERVICE_GRAPH_SEED)
        }
        _ => RmatGenerator::paper(sizing.batch_scale, 16).generate_cleaned(seed),
    }
    .into_csr();
    let generate_s = start.elapsed().as_secs_f64();
    trace.close(span);
    let span = trace.open("graph.partition", Some(parent));
    let start = Instant::now();
    let pg = PartitionedGraph::from_global(&g, PartitionScheme::Block1D, workload.ranks())
        .expect("two or four ranks fit every generated graph");
    let partition_s = start.elapsed().as_secs_f64();
    trace.close(span);
    Built {
        g,
        pg,
        generate_s,
        partition_s,
    }
}

/// Every option set explicitly, on top of the library's constructors (which
/// a later field addition does not break).
fn explicit(base: DistConfig, workload: Workload, pipeline_depth: usize) -> DistConfig {
    base.with_storage(workload.storage())
        .with_cost_model(CostModel::Analytic)
        .with_pipeline_depth(pipeline_depth)
        .with_intra_threads(1)
}

/// The library configuration of `workload` over `g` on `ranks` ranks.
pub fn dist_config(workload: Workload, g: &CsrGraph, ranks: usize) -> DistConfig {
    let csr = g.csr_size_bytes() as usize;
    match workload {
        Workload::LccCached => explicit(
            DistConfig::cached(ranks, csr / 2).with_degree_scores(),
            workload,
            1,
        ),
        Workload::LccNonCached => explicit(DistConfig::non_cached(ranks), workload, 1),
        Workload::JaccardCompressed => explicit(
            DistConfig::cached(ranks, csr / 8).with_degree_scores(),
            workload,
            8,
        ),
        Workload::ServiceHubmix => explicit(
            DistConfig::cached(ranks, csr / 2).with_degree_scores(),
            workload,
            1,
        ),
    }
}

pub fn service_config(g: &CsrGraph) -> ServiceConfig {
    ServiceConfig::new(dist_config(
        Workload::ServiceHubmix,
        g,
        Workload::ServiceHubmix.ranks(),
    ))
    .with_batch_size(WINDOW)
    .with_queue_capacity(WINDOW)
}

/// Deterministic xorshift64* stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        // SplitMix64 finalizer: nearby seeds give unrelated, non-zero states.
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        Self((z ^ (z >> 31)) | 1)
    }

    pub fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The hub-heavy query mix of `benches/service.rs`, re-seeded: 40 % Jaccard
/// and 20 % common-neighbour pair queries on degree-weighted edges
/// (power-of-two-choices on the source row, so hub rows recur across and
/// within windows), 20 % top-k around hub sources, 20 % LCC of uniform
/// vertices.
pub struct QueryMix<'g> {
    g: &'g CsrGraph,
    rng: Rng,
}

impl<'g> QueryMix<'g> {
    pub fn new(g: &'g CsrGraph, seed: u64) -> Self {
        Self {
            g,
            rng: Rng::new(seed),
        }
    }

    fn hub_edge(&mut self) -> (u32, u32) {
        let (adj, offsets) = (self.g.adjacencies(), self.g.offsets());
        let source = |pos: u64| (offsets.partition_point(|&o| o <= pos) - 1) as u32;
        let pa = self.rng.below(adj.len() as u64);
        let pb = self.rng.below(adj.len() as u64);
        let (ua, ub) = (source(pa), source(pb));
        if self.g.degree(ua) >= self.g.degree(ub) {
            (ua, adj[pa as usize])
        } else {
            (ub, adj[pb as usize])
        }
    }

    pub fn next_query(&mut self) -> Query {
        match self.rng.below(10) {
            0..=3 => {
                let (u, v) = self.hub_edge();
                Query::Jaccard { u, v }
            }
            4 | 5 => {
                let (u, v) = self.hub_edge();
                Query::CommonNeighbors { u, v }
            }
            6 | 7 => {
                let (u, _) = self.hub_edge();
                Query::TopK {
                    u,
                    k: self.rng.below(8) as usize,
                }
            }
            _ => Query::LccOf {
                v: self.rng.below(self.g.vertex_count() as u64) as u32,
            },
        }
    }

    pub fn window(&mut self) -> Vec<Query> {
        (0..WINDOW).map(|_| self.next_query()).collect()
    }
}

/// One row pair a rank hands its intersection kernel: `v` is (for `closing`
/// pairs) the `k`-th neighbour of `u`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Visit {
    pub u: u32,
    pub v: u32,
    pub k: usize,
    /// LCC's upper-triangle operands (`adj_u[k+1..]` against the part of
    /// `adj_v` past `v`) instead of Jaccard's whole rows.
    pub closing: bool,
}

impl Visit {
    /// The two sorted operand slices this pair intersects.
    pub fn operands<'g>(&self, g: &'g CsrGraph) -> (&'g [u32], &'g [u32]) {
        let (adj_u, adj_v) = (g.neighbours(self.u), g.neighbours(self.v));
        if self.closing {
            let past_v = adj_v.partition_point(|&x| x <= self.v);
            (&adj_u[self.k + 1..], &adj_v[past_v..])
        } else {
            (adj_u, adj_v)
        }
    }
}

fn visits_around(g: &CsrGraph, u: u32, closing: bool, out: &mut Vec<Visit>) {
    out.extend(
        g.neighbours(u)
            .iter()
            .enumerate()
            .map(|(k, &v)| Visit { u, v, k, closing }),
    );
}

/// Rank 0's row pairs of a batch run, in the order its edge loop visits them.
pub fn batch_visits(workload: Workload, built: &Built) -> Vec<Visit> {
    let closing = workload != Workload::JaccardCompressed;
    let mut out = Vec::new();
    for &u in &built.pg.partitions[0].global_ids {
        visits_around(&built.g, u, closing, &mut out);
    }
    out
}

/// The row pairs of the queries in `windows` that execute on rank 0, window
/// by window (the engine answers a window's queries rank by rank).
pub fn service_visits(built: &Built, windows: &[Vec<Query>]) -> Vec<Vec<Visit>> {
    windows
        .iter()
        .map(|window| {
            let mut out = Vec::new();
            for query in window {
                if built.pg.partitioner.owner(query.home_vertex()) != 0 {
                    continue;
                }
                match *query {
                    Query::CommonNeighbors { u, v } | Query::Jaccard { u, v } => out.push(Visit {
                        u,
                        v,
                        k: 0,
                        closing: false,
                    }),
                    Query::TopK { u, .. } => visits_around(&built.g, u, false, &mut out),
                    Query::LccOf { v } => visits_around(&built.g, v, true, &mut out),
                }
            }
            out
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build_untraced(workload: Workload, seed: u64, sizing: &Sizing) -> Built {
        build(workload, seed, sizing, &mut Trace::new(false), 0)
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("tric"), None);
    }

    #[test]
    fn the_same_seed_gives_the_same_inputs_and_another_seed_different_ones() {
        let sizing = Sizing {
            batch_scale: 8,
            service_scale: 8,
            ..Sizing::quick()
        };
        for w in Workload::ALL {
            let a = build_untraced(w, 3, &sizing);
            let b = build_untraced(w, 3, &sizing);
            let c = build_untraced(w, 4, &sizing);
            assert_eq!(a.g, b.g, "{w:?}");
            // The service's graph is fixed; its seed draws the queries.
            assert_eq!(a.g != c.g, w != Workload::ServiceHubmix, "{w:?}");
            assert_eq!(a.pg.ranks(), w.ranks());
        }
        let built = build_untraced(Workload::ServiceHubmix, 3, &sizing);
        let first = QueryMix::new(&built.g, 3).window();
        assert_eq!(first, QueryMix::new(&built.g, 3).window());
        assert_ne!(first, QueryMix::new(&built.g, 4).window());
        assert_eq!(first.len(), WINDOW);
    }

    #[test]
    fn configurations_set_every_option_explicitly() {
        let built = build_untraced(Workload::LccCached, 1, &Sizing::quick());
        for w in Workload::ALL {
            let cfg = dist_config(w, &built.g, w.ranks());
            assert_eq!(cfg.storage, w.storage());
            assert_eq!(cfg.cost_model, CostModel::Analytic);
            assert_eq!(cfg.intra_threads, 1);
            assert_eq!(cfg.cache.is_some(), w != Workload::LccNonCached);
        }
    }

    #[test]
    fn closing_operands_are_the_upper_triangle_suffixes() {
        let built = build_untraced(Workload::LccCached, 1, &Sizing::quick());
        let visits = batch_visits(Workload::LccCached, &built);
        let rank0_edges = built.pg.partitions[0].local_edge_count() as usize;
        assert_eq!(visits.len(), rank0_edges);
        for visit in visits.iter().take(500) {
            let (a, b) = visit.operands(&built.g);
            assert!(a.iter().chain(b).all(|&w| w > visit.v));
        }
    }
}
