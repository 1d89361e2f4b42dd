//! Shared-memory edge-centric triangle counting and LCC over one CSR graph.
//!
//! This is the per-node computation kernel of the paper: for every vertex and every
//! incident edge, intersect the two adjacency lists (Section II-C), offsetting the
//! intersection on undirected graphs so each triangle is counted once per corner.
//!
//! Three parallelization strategies are available (see [`LocalParallelism`]):
//!
//! * [`IntersectionParallel`](LocalParallelism::IntersectionParallel) — the
//!   paper's Section III-C scheme: the *intersection* is what runs in parallel,
//!   not the edge loop, which keeps thread imbalance low at the price of frequent
//!   parallel-region entry — the effect measured in Figure 6 and Table III.
//! * [`VertexParallel`](LocalParallelism::VertexParallel) — a vertex-parallel
//!   outer loop: contiguous vertex ranges are mapped across threads, each range
//!   accumulating into its own partial `per_vertex_triangles` buffer, so the
//!   fork/join cost is paid once per run instead of once per edge.
//! * [`EdgeParallel`](LocalParallelism::EdgeParallel) — an edge-parallel outer
//!   loop: the directed-edge array is split into equal ranges regardless of row
//!   boundaries, the load-balance counterpart for skewed graphs where one hub
//!   row can be as large as another thread's whole range.
//!
//! The outer-loop strategies additionally take a [`RangeSchedule`]: with
//! [`DegreeWeighted`](RangeSchedule::DegreeWeighted) (the default), chunk
//! boundaries come from a prefix sum over `CsrGraph::offsets` so every chunk
//! carries the same *work* instead of the same *count* — the fix for hub-heavy
//! R-MAT degree skew, where one equal-count range can hold most of the edges.
//! All parallel loops run on the persistent work-stealing pool behind the
//! `rayon` facade; the pool is built once (sized by `RMATC_THREADS` or the
//! first configuration's thread count) and reused across calls, so repeated
//! small invocations pay a queue push instead of a `thread::spawn` per call.

use crate::intersect::compressed::compressed_count_closing;
use crate::intersect::{CostModel, IntersectMethod, ParallelIntersector};
use crate::lcc;
use rayon::prelude::*;
use rmatc_graph::compressed::{decode_row, CompressedCsr};
use rmatc_graph::split::balanced_vertex_bounds;
use rmatc_graph::types::{Direction, VertexId};
use rmatc_graph::{CsrGraph, GraphStorage};
use std::time::Instant;

/// How the shared-memory computation is spread across threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum LocalParallelism {
    /// Parallelize each intersection (the paper's Section III-C approach); the
    /// outer vertex/edge loop stays sequential.
    IntersectionParallel,
    /// Parallelize the outer loop over contiguous vertex ranges; every
    /// intersection runs sequentially on its owning thread.
    VertexParallel,
    /// Parallelize the outer loop over equal ranges of the directed-edge
    /// array; rows spanning a range boundary are split between threads.
    EdgeParallel,
}

/// How the outer-loop strategies cut their iteration space into chunks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum RangeSchedule {
    /// Equal-count chunks: `n / chunks` vertices (or edges) each, degree skew
    /// ignored. Kept as the baseline the differential tests compare against.
    Static,
    /// Equal-work chunks via prefix sums: vertex chunks carry equal edge
    /// counts (a binary search per boundary over `CsrGraph::offsets`), edge
    /// chunks carry equal intersection mass (`deg(u) + deg(v)` per edge).
    DegreeWeighted,
}

/// Configuration for the shared-memory computation.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LocalConfig {
    /// Intersection kernel selection.
    pub method: IntersectMethod,
    /// Number of threads (1 = fully sequential regardless of `parallelism`).
    pub threads: usize,
    /// With [`LocalParallelism::IntersectionParallel`], intersections whose
    /// longer list is below this length run sequentially.
    pub parallel_cutoff: usize,
    /// Which loop is parallelized.
    pub parallelism: LocalParallelism,
    /// How the parallelized loop's range is cut into chunks.
    pub schedule: RangeSchedule,
    /// Adjacency representation the computation runs on. With
    /// [`GraphStorage::Compressed`] every row is delta/varint compressed and
    /// the fused decompress+intersect kernels replace the plain ones; scores
    /// are bit-identical either way. Constructors honour the `RMATC_STORAGE`
    /// environment variable (the CI compressed leg), defaulting to plain.
    pub storage: GraphStorage,
}

impl LocalConfig {
    /// Sequential hybrid configuration.
    pub fn sequential() -> Self {
        Self {
            method: IntersectMethod::Hybrid,
            threads: 1,
            parallel_cutoff: usize::MAX,
            parallelism: LocalParallelism::IntersectionParallel,
            schedule: RangeSchedule::DegreeWeighted,
            storage: GraphStorage::from_env(),
        }
    }

    /// Intersection-parallel hybrid configuration with the default cut-off
    /// (the paper's scheme).
    pub fn parallel(threads: usize) -> Self {
        Self {
            threads,
            parallel_cutoff: crate::intersect::parallel::DEFAULT_PARALLEL_CUTOFF,
            ..Self::sequential()
        }
    }

    /// Vertex-parallel hybrid configuration.
    pub fn vertex_parallel(threads: usize) -> Self {
        Self {
            parallelism: LocalParallelism::VertexParallel,
            parallel_cutoff: usize::MAX,
            ..Self::parallel(threads)
        }
    }

    /// Edge-parallel hybrid configuration.
    pub fn edge_parallel(threads: usize) -> Self {
        Self {
            parallelism: LocalParallelism::EdgeParallel,
            parallel_cutoff: usize::MAX,
            ..Self::parallel(threads)
        }
    }

    /// Same configuration with a different intersection method.
    pub fn with_method(mut self, method: IntersectMethod) -> Self {
        self.method = method;
        self
    }

    /// Same configuration with a different parallelism strategy.
    pub fn with_parallelism(mut self, parallelism: LocalParallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Same configuration with a different range schedule.
    pub fn with_schedule(mut self, schedule: RangeSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// The same configuration: [`CostModel`] has one variant, which every
    /// run already applies.
    pub fn with_cost_model(self, _model: CostModel) -> Self {
        self
    }

    /// Same configuration on a different adjacency representation.
    pub fn with_storage(mut self, storage: GraphStorage) -> Self {
        self.storage = storage;
        self
    }
}

impl Default for LocalConfig {
    fn default() -> Self {
        Self::sequential()
    }
}

/// Result of a shared-memory run.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LocalResult {
    /// Closed-triplet count per vertex (LCC numerators before the formula's factor).
    pub per_vertex_triangles: Vec<u64>,
    /// LCC score per vertex.
    pub lcc: Vec<f64>,
    /// Global triangle count (undirected) or closed-triplet count (directed).
    pub triangle_count: u64,
    /// Number of directed edges processed.
    pub edges_processed: u64,
    /// Wall-clock time of the computation, in nanoseconds.
    pub elapsed_ns: u64,
}

impl LocalResult {
    /// Edges processed per microsecond — the throughput metric of Table III and
    /// Figure 6.
    pub fn edges_per_us(&self) -> f64 {
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        self.edges_processed as f64 / (self.elapsed_ns as f64 / 1_000.0)
    }

    /// Average LCC over all vertices.
    pub fn average_lcc(&self) -> f64 {
        lcc::average(&self.lcc)
    }
}

/// Shared-memory LCC/TC runner.
#[derive(Debug, Clone, Copy)]
pub struct LocalLcc {
    config: LocalConfig,
}

impl LocalLcc {
    /// Creates a runner with the given configuration.
    pub fn new(config: LocalConfig) -> Self {
        Self { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &LocalConfig {
        &self.config
    }

    /// Runs triangle counting and LCC over `g`.
    pub fn run(&self, g: &CsrGraph) -> LocalResult {
        let n = g.vertex_count();
        if self.config.threads > 1 {
            // Build the persistent pool before the timed section so the first
            // measured run does not pay one-time worker spawn cost. The first
            // call sizes it (environment overrides win); later calls no-op.
            rayon::ensure_pool(self.config.threads);
        }
        if self.config.storage == GraphStorage::Compressed {
            // Compression happens outside the timed section, like CSR
            // construction does for the plain path: the timed computation is
            // the fused decompress+intersect traversal itself.
            let ccsr = CompressedCsr::from_csr(g);
            let start = Instant::now();
            let (per_vertex, edges) = match self.config.parallelism {
                _ if self.config.threads <= 1 || n == 0 => compressed_range(&ccsr, 0, n),
                LocalParallelism::IntersectionParallel => compressed_range(&ccsr, 0, n),
                LocalParallelism::VertexParallel => self.run_compressed_vertex_parallel(g, &ccsr),
                LocalParallelism::EdgeParallel => self.run_compressed_edge_parallel(g, &ccsr),
            };
            let elapsed_ns = start.elapsed().as_nanos() as u64;
            return finish(g, per_vertex, edges, elapsed_ns);
        }
        let start = Instant::now();
        let (per_vertex, edges) = match self.config.parallelism {
            _ if self.config.threads <= 1 || n == 0 => self.run_intersection_parallel(g),
            LocalParallelism::IntersectionParallel => self.run_intersection_parallel(g),
            LocalParallelism::VertexParallel => self.run_vertex_parallel(g),
            LocalParallelism::EdgeParallel => self.run_edge_parallel(g),
        };
        let elapsed_ns = start.elapsed().as_nanos() as u64;
        finish(g, per_vertex, edges, elapsed_ns)
    }

    /// Sequential outer loop; each intersection may itself run in parallel.
    fn run_intersection_parallel(&self, g: &CsrGraph) -> (Vec<u64>, u64) {
        let intersector = ParallelIntersector::new(
            self.config.method,
            self.config.threads,
            self.config.parallel_cutoff,
        );
        let n = g.vertex_count();
        let mut per_vertex = vec![0u64; n];
        let mut edges = 0u64;
        for u in 0..n as VertexId {
            let (t, e) = count_vertex(g, u, &intersector);
            per_vertex[u as usize] = t;
            edges += e;
        }
        (per_vertex, edges)
    }

    /// Vertex-parallel outer loop: contiguous vertex ranges mapped across
    /// threads, each with a private partial buffer stitched together at the
    /// end. Ranges are oversplit 8x relative to the thread count so the pool's
    /// stealing can balance residual unevenness, and the range boundaries
    /// follow the configured [`RangeSchedule`].
    fn run_vertex_parallel(&self, g: &CsrGraph) -> (Vec<u64>, u64) {
        let intersector = self.sequential_intersector();
        let n = g.vertex_count();
        let ranges = (self.config.threads * 8).clamp(1, n);
        let bounds = match self.effective_schedule() {
            RangeSchedule::Static => static_bounds(n, ranges),
            RangeSchedule::DegreeWeighted => balanced_vertex_bounds(g.offsets(), ranges),
        };
        let partials: Vec<(usize, Vec<u64>, u64)> = (0..ranges)
            .into_par_iter()
            .map(|r| {
                let (lo, hi) = (bounds[r], bounds[r + 1]);
                let mut counts = vec![0u64; hi - lo];
                let mut edges = 0u64;
                for u in lo..hi {
                    let (t, e) = count_vertex(g, u as VertexId, &intersector);
                    counts[u - lo] = t;
                    edges += e;
                }
                (lo, counts, edges)
            })
            .collect();
        let mut per_vertex = vec![0u64; n];
        let mut edges = 0u64;
        for (lo, counts, e) in partials {
            per_vertex[lo..lo + counts.len()].copy_from_slice(&counts);
            edges += e;
        }
        (per_vertex, edges)
    }

    /// Edge-parallel outer loop: the directed-edge array is cut into ranges —
    /// equal edge counts under [`RangeSchedule::Static`], equal intersection
    /// mass (per-edge `deg(u) + deg(v)` prefix sum) under
    /// [`RangeSchedule::DegreeWeighted`]. A range's partial buffer spans only
    /// the vertices whose rows it touches, and boundary rows (split between
    /// two ranges) sum correctly because addition is associative.
    fn run_edge_parallel(&self, g: &CsrGraph) -> (Vec<u64>, u64) {
        let intersector = self.sequential_intersector();
        let n = g.vertex_count();
        let m = g.edge_count() as usize;
        if m == 0 {
            return (vec![0u64; n], 0);
        }
        let offsets = g.offsets();
        let adjacencies = g.adjacencies();
        let direction = g.direction();
        let ranges = (self.config.threads * 8).clamp(1, m);
        let bounds = match self.effective_schedule() {
            RangeSchedule::Static => static_bounds(m, ranges),
            RangeSchedule::DegreeWeighted => balanced_edge_bounds(g, ranges),
        };
        let partials: Vec<(usize, Vec<u64>)> = (0..ranges)
            .into_par_iter()
            .map(|r| {
                let e_lo = bounds[r] as u64;
                let e_hi = bounds[r + 1] as u64;
                if e_lo >= e_hi {
                    return (0, Vec::new());
                }
                // Owner of edge e is the vertex u with offsets[u] <= e < offsets[u+1].
                let u_first = offsets.partition_point(|&o| o <= e_lo) - 1;
                let mut counts: Vec<u64> = Vec::new();
                let mut u = u_first;
                while u < n && offsets[u] < e_hi {
                    let adj_u = g.neighbours(u as VertexId);
                    let row_lo = offsets[u].max(e_lo);
                    let row_hi = offsets[u + 1].min(e_hi);
                    let mut t = 0u64;
                    for e in row_lo..row_hi {
                        let v = adjacencies[e as usize];
                        let k = (e - offsets[u]) as usize;
                        let adj_v = g.neighbours(v);
                        t += count_closing_at(direction, adj_u, adj_v, v, k, &intersector);
                    }
                    counts.push(t);
                    u += 1;
                }
                (u_first, counts)
            })
            .collect();
        let mut per_vertex = vec![0u64; n];
        for (u_first, counts) in partials {
            for (i, t) in counts.into_iter().enumerate() {
                per_vertex[u_first + i] += t;
            }
        }
        (per_vertex, m as u64)
    }

    /// Vertex-parallel outer loop over compressed rows: the same range
    /// structure as [`run_vertex_parallel`](Self::run_vertex_parallel)
    /// (degree-weighted bounds still come from the plain offsets — chunk
    /// boundaries are a scheduling choice, not a data path), with each range
    /// running the fused decompress+intersect kernels.
    fn run_compressed_vertex_parallel(
        &self,
        g: &CsrGraph,
        ccsr: &CompressedCsr,
    ) -> (Vec<u64>, u64) {
        let n = g.vertex_count();
        let ranges = (self.config.threads * 8).clamp(1, n);
        let bounds = match self.effective_schedule() {
            RangeSchedule::Static => static_bounds(n, ranges),
            RangeSchedule::DegreeWeighted => balanced_vertex_bounds(g.offsets(), ranges),
        };
        let partials: Vec<(usize, Vec<u64>, u64)> = (0..ranges)
            .into_par_iter()
            .map(|r| {
                let (lo, hi) = (bounds[r], bounds[r + 1]);
                let (counts, edges) = compressed_range(ccsr, lo, hi);
                (lo, counts, edges)
            })
            .collect();
        let mut per_vertex = vec![0u64; n];
        let mut edges = 0u64;
        for (lo, counts, e) in partials {
            per_vertex[lo..lo + counts.len()].copy_from_slice(&counts);
            edges += e;
        }
        (per_vertex, edges)
    }

    /// Edge-parallel outer loop over compressed rows: identical range
    /// arithmetic to [`run_edge_parallel`](Self::run_edge_parallel), but the
    /// `a`-side row is decoded once per row segment and the `v` rows are
    /// intersected in compressed form.
    fn run_compressed_edge_parallel(&self, g: &CsrGraph, ccsr: &CompressedCsr) -> (Vec<u64>, u64) {
        let n = g.vertex_count();
        let m = g.edge_count() as usize;
        if m == 0 {
            return (vec![0u64; n], 0);
        }
        let offsets = g.offsets();
        let direction = g.direction();
        let ranges = (self.config.threads * 8).clamp(1, m);
        let bounds = match self.effective_schedule() {
            RangeSchedule::Static => static_bounds(m, ranges),
            RangeSchedule::DegreeWeighted => balanced_edge_bounds(g, ranges),
        };
        let partials: Vec<(usize, Vec<u64>)> = (0..ranges)
            .into_par_iter()
            .map(|r| {
                let e_lo = bounds[r] as u64;
                let e_hi = bounds[r + 1] as u64;
                if e_lo >= e_hi {
                    return (0, Vec::new());
                }
                let u_first = offsets.partition_point(|&o| o <= e_lo) - 1;
                let mut counts: Vec<u64> = Vec::new();
                let mut adj_u: Vec<VertexId> = Vec::new();
                let mut u = u_first;
                while u < n && offsets[u] < e_hi {
                    adj_u.clear();
                    decode_row(ccsr.row(u as VertexId), &mut adj_u);
                    let row_lo = offsets[u].max(e_lo);
                    let row_hi = offsets[u + 1].min(e_hi);
                    let mut t = 0u64;
                    for e in row_lo..row_hi {
                        let k = (e - offsets[u]) as usize;
                        let v = adj_u[k];
                        t += compressed_count_closing_at(direction, &adj_u, ccsr.row(v), v, k);
                    }
                    counts.push(t);
                    u += 1;
                }
                (u_first, counts)
            })
            .collect();
        let mut per_vertex = vec![0u64; n];
        for (u_first, counts) in partials {
            for (i, t) in counts.into_iter().enumerate() {
                per_vertex[u_first + i] += t;
            }
        }
        (per_vertex, m as u64)
    }

    fn sequential_intersector(&self) -> ParallelIntersector {
        ParallelIntersector::new(self.config.method, 1, usize::MAX)
    }

    /// Equal-work boundaries only pay off when chunks actually run
    /// concurrently; when the facade will run the loop inline (single-core
    /// host without an env override), skip the prefix-sum cost — the results
    /// are identical either way.
    fn effective_schedule(&self) -> RangeSchedule {
        if rayon::effective_parallelism() <= 1 {
            RangeSchedule::Static
        } else {
            self.config.schedule
        }
    }
}

/// Equal-count chunk boundaries: `parts + 1` entries cutting `0..len` into
/// ceil-sized chunks (the pre-[`RangeSchedule`] behaviour, kept as baseline).
fn static_bounds(len: usize, parts: usize) -> Vec<usize> {
    let chunk = len.div_ceil(parts.max(1));
    (0..=parts).map(|j| (j * chunk).min(len)).collect()
}

/// Equal-work chunk boundaries over the directed-edge array: edge `(u, v)` is
/// weighted `deg(u) + deg(v)`, the size of the two rows its intersection
/// reads, so a hub's huge rows no longer land in one chunk just because equal
/// edge *counts* said so.
///
/// Streams the weight prefix in two passes instead of materializing an
/// `O(m)` array — only the `parts + 1` boundaries are kept, so the scheduler
/// adds no transient memory proportional to the graph. Produces exactly the
/// bounds [`balanced_prefix_bounds`] would on the materialized prefix (each
/// boundary is the first edge whose prefix weight reaches its target).
fn balanced_edge_bounds(g: &CsrGraph, parts: usize) -> Vec<usize> {
    let offsets = g.offsets();
    let adjacencies = g.adjacencies();
    let m = adjacencies.len();
    let parts = parts.max(1);
    let row_weights = |u: usize| {
        let deg_u = offsets[u + 1] - offsets[u];
        (offsets[u]..offsets[u + 1]).map(move |e| {
            let v = adjacencies[e as usize] as usize;
            deg_u + (offsets[v + 1] - offsets[v])
        })
    };
    let total: u64 = (0..g.vertex_count()).flat_map(row_weights).sum();
    let mut bounds = Vec::with_capacity(parts + 1);
    bounds.push(0);
    let mut next = 1usize;
    let mut acc = 0u64; // weight of all edges before the current one
    for (e, weight) in (0..g.vertex_count()).flat_map(row_weights).enumerate() {
        while next < parts && acc >= ((total as u128 * next as u128) / parts as u128) as u64 {
            bounds.push(e);
            next += 1;
        }
        acc += weight;
    }
    while next < parts {
        bounds.push(m);
        next += 1;
    }
    bounds.push(m);
    bounds
}

/// Runs the fused decompress+intersect traversal over the vertex range
/// `lo..hi`: row `u` is decoded once (amortized over its whole row — the
/// scratch buffer is reused across vertices), each `v` row stays compressed
/// and goes through [`compressed_count_closing`]. Returns the per-vertex
/// closed-triplet counts for the range and the directed edges processed.
fn compressed_range(ccsr: &CompressedCsr, lo: usize, hi: usize) -> (Vec<u64>, u64) {
    let mut counts = vec![0u64; hi - lo];
    let mut edges = 0u64;
    let mut adj_u: Vec<VertexId> = Vec::new();
    for u in lo..hi {
        let (t, e) = compressed_count_vertex(ccsr, u as VertexId, &mut adj_u);
        counts[u - lo] = t;
        edges += e;
    }
    (counts, edges)
}

/// Compressed counterpart of `count_vertex`: decodes `adj(u)` into the
/// caller's scratch buffer and counts the closed triplets anchored at `u`
/// without decompressing any `v` row.
pub fn compressed_count_vertex(
    ccsr: &CompressedCsr,
    u: VertexId,
    adj_u: &mut Vec<VertexId>,
) -> (u64, u64) {
    adj_u.clear();
    decode_row(ccsr.row(u), adj_u);
    let direction = ccsr.direction();
    let mut t = 0u64;
    for (k, &v) in adj_u.iter().enumerate() {
        t += compressed_count_closing_at(direction, adj_u, ccsr.row(v), v, k);
    }
    (t, adj_u.len() as u64)
}

/// Compressed counterpart of [`count_closing_at`]: the decoded `adj_u` side
/// is sliced exactly like the plain path (`closing_a_side`), and the
/// upper-triangle filter on the compressed `v` row becomes the kernels'
/// `bound` parameter instead of a `partition_point` on decoded data.
pub fn compressed_count_closing_at(
    direction: Direction,
    adj_u: &[VertexId],
    row_v: &[u32],
    v: VertexId,
    neighbour_idx: usize,
) -> u64 {
    debug_assert!(
        direction == Direction::Directed || adj_u[neighbour_idx] == v,
        "neighbour_idx must locate v in adj_u"
    );
    let (a, bound) = compressed_closing_operands(direction, adj_u, v, neighbour_idx);
    compressed_count_closing(a, row_v, bound, &CostModel::Analytic)
}

/// Operands of a compressed closing count: the `adj_u`-side slice
/// ([`closing_a_side`]) and the upper-triangle filter on the compressed `v`
/// row as the kernels' `bound`. Shared between
/// [`compressed_count_closing_at`] and the distributed reader's landing
/// transfers so hit and miss counts can never diverge.
pub(crate) fn compressed_closing_operands(
    direction: Direction,
    adj_u: &[VertexId],
    v: VertexId,
    neighbour_idx: usize,
) -> (&[VertexId], Option<VertexId>) {
    let bound = match direction {
        Direction::Undirected => Some(v),
        Direction::Directed => None,
    };
    (closing_a_side(direction, adj_u, neighbour_idx), bound)
}

/// Counts the closed triplets anchored at `u`, using the O(1) incremental
/// upper-triangle offset: because `v` iterates `adj_u` in sorted order, the
/// suffix of `adj_u` past `v` starts right after the running neighbour index —
/// no `partition_point` over `adj_u` needed.
fn count_vertex(g: &CsrGraph, u: VertexId, intersector: &ParallelIntersector) -> (u64, u64) {
    let adj_u = g.neighbours(u);
    let direction = g.direction();
    let mut t = 0u64;
    for (k, &v) in adj_u.iter().enumerate() {
        let adj_v = g.neighbours(v);
        t += count_closing_at(direction, adj_u, adj_v, v, k, intersector);
    }
    (t, adj_u.len() as u64)
}

/// The `adj_u`-side operand of the closing count for the edge `(u, v)`:
/// undirected graphs intersect only the upper-triangle suffix past `v`
/// (located at `neighbour_idx` within `adj_u`), directed graphs the whole
/// row. Shared between [`count_closing_at`] and the distributed reader's
/// fused miss path so the two can never diverge.
pub(crate) fn closing_a_side(
    direction: Direction,
    adj_u: &[VertexId],
    neighbour_idx: usize,
) -> &[VertexId] {
    match direction {
        Direction::Undirected => &adj_u[neighbour_idx + 1..],
        Direction::Directed => adj_u,
    }
}

/// Start of the `adj_v`-side operand: the first index past `v` (undirected
/// upper-triangle offsetting) or `0` (directed). Counterpart of
/// [`closing_a_side`], shared for the same reason.
pub(crate) fn closing_b_start(direction: Direction, adj_v: &[VertexId], v: VertexId) -> usize {
    match direction {
        Direction::Undirected => adj_v.partition_point(|&x| x <= v),
        Direction::Directed => 0,
    }
}

/// Counts the closing vertices for the edge `(u, v)` given both adjacency lists:
/// undirected graphs count only `w > v` (upper-triangle offsetting), directed graphs
/// count the full intersection (ordered pairs, Eq. 1).
///
/// This is the general entry point for callers that cannot supply `v`'s index
/// within `adj_u` (out-of-order or index-free iteration); every in-tree
/// caller — the local loops and the distributed worker — iterates in order
/// and uses [`count_closing_at`], which replaces one of the two
/// `partition_point` calls with the already-known neighbour index. The
/// general form is kept public as the reference implementation and is tested
/// for equivalence against the fast path.
pub fn count_closing(
    direction: Direction,
    adj_u: &[VertexId],
    adj_v: &[VertexId],
    v: VertexId,
    intersector: &ParallelIntersector,
) -> u64 {
    match direction {
        Direction::Undirected => {
            let a = &adj_u[adj_u.partition_point(|&x| x <= v)..];
            let b = &adj_v[adj_v.partition_point(|&x| x <= v)..];
            intersector.count(a, b)
        }
        Direction::Directed => intersector.count(adj_u, adj_v),
    }
}

/// Fast path of [`count_closing`] for callers iterating `adj_u` in order:
/// `neighbour_idx` is the index of `v` within `adj_u`, so the upper-triangle
/// suffix of `adj_u` is `adj_u[neighbour_idx + 1..]` — O(1) instead of a
/// binary search. Only the `adj_v` side still needs its `partition_point`.
pub fn count_closing_at(
    direction: Direction,
    adj_u: &[VertexId],
    adj_v: &[VertexId],
    v: VertexId,
    neighbour_idx: usize,
    intersector: &ParallelIntersector,
) -> u64 {
    debug_assert!(
        direction == Direction::Directed || adj_u[neighbour_idx] == v,
        "neighbour_idx must locate v in adj_u"
    );
    let a = closing_a_side(direction, adj_u, neighbour_idx);
    let b = &adj_v[closing_b_start(direction, adj_v, v)..];
    intersector.count(a, b)
}

/// Assembles a [`LocalResult`] from per-vertex closed-triplet counts.
pub fn finish(
    g: &CsrGraph,
    per_vertex_triangles: Vec<u64>,
    edges_processed: u64,
    elapsed_ns: u64,
) -> LocalResult {
    let degrees = g.degrees();
    let lcc = lcc::scores_from_counts(g.direction(), &degrees, &per_vertex_triangles);
    let total: u64 = per_vertex_triangles.iter().sum();
    let triangle_count = match g.direction() {
        Direction::Undirected => total / 3,
        Direction::Directed => total,
    };
    LocalResult {
        per_vertex_triangles,
        lcc,
        triangle_count,
        edges_processed,
        elapsed_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmatc_graph::gen::{GraphGenerator, RmatGenerator, WattsStrogatz};
    use rmatc_graph::reference;

    fn rmat() -> CsrGraph {
        RmatGenerator::paper(10, 8).generate_cleaned(1).into_csr()
    }

    #[test]
    fn matches_reference_on_rmat() {
        let g = rmat();
        let result = LocalLcc::new(LocalConfig::sequential()).run(&g);
        assert_eq!(
            result.per_vertex_triangles,
            reference::per_vertex_triangles(&g)
        );
        assert_eq!(result.triangle_count, reference::count_triangles(&g));
        let expected_lcc = reference::lcc_scores(&g);
        for (a, b) in result.lcc.iter().zip(expected_lcc.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn all_methods_give_identical_counts() {
        let g = rmat();
        let baseline = LocalLcc::new(LocalConfig::sequential())
            .run(&g)
            .triangle_count;
        for method in IntersectMethod::all() {
            let cfg = LocalConfig::sequential().with_method(method);
            assert_eq!(
                LocalLcc::new(cfg).run(&g).triangle_count,
                baseline,
                "{method:?}"
            );
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let g = rmat();
        let seq = LocalLcc::new(LocalConfig::sequential()).run(&g);
        let mut par_cfg = LocalConfig::parallel(8);
        par_cfg.parallel_cutoff = 16; // force the parallel path even on small lists
        let par = LocalLcc::new(par_cfg).run(&g);
        assert_eq!(seq.per_vertex_triangles, par.per_vertex_triangles);
    }

    #[test]
    fn vertex_and_edge_parallel_match_sequential() {
        for g in [
            rmat(),
            WattsStrogatz::new(400, 8, 0.1)
                .generate_cleaned(7)
                .into_csr(),
        ] {
            let seq = LocalLcc::new(LocalConfig::sequential()).run(&g);
            for threads in [2, 4, 8] {
                let vp = LocalLcc::new(LocalConfig::vertex_parallel(threads)).run(&g);
                assert_eq!(
                    seq.per_vertex_triangles, vp.per_vertex_triangles,
                    "vertex {threads}"
                );
                assert_eq!(seq.edges_processed, vp.edges_processed);
                let ep = LocalLcc::new(LocalConfig::edge_parallel(threads)).run(&g);
                assert_eq!(
                    seq.per_vertex_triangles, ep.per_vertex_triangles,
                    "edge {threads}"
                );
                assert_eq!(seq.edges_processed, ep.edges_processed);
            }
        }
    }

    #[test]
    fn schedules_give_identical_results() {
        // Degree-weighted and static chunking must be observationally
        // identical; only the chunk boundaries differ.
        for g in [
            rmat(),
            WattsStrogatz::new(400, 8, 0.1)
                .generate_cleaned(7)
                .into_csr(),
        ] {
            let seq = LocalLcc::new(LocalConfig::sequential()).run(&g);
            for mode in [
                LocalParallelism::VertexParallel,
                LocalParallelism::EdgeParallel,
            ] {
                for schedule in [RangeSchedule::Static, RangeSchedule::DegreeWeighted] {
                    let cfg = LocalConfig::vertex_parallel(4)
                        .with_parallelism(mode)
                        .with_schedule(schedule);
                    let result = LocalLcc::new(cfg).run(&g);
                    assert_eq!(
                        seq.per_vertex_triangles, result.per_vertex_triangles,
                        "{mode:?} {schedule:?}"
                    );
                    assert_eq!(seq.edges_processed, result.edges_processed);
                }
            }
        }
    }

    #[test]
    fn streaming_edge_bounds_match_the_materialized_prefix() {
        // The O(parts)-memory two-pass walk must reproduce exactly what
        // `balanced_prefix_bounds` computes on the materialized weight prefix.
        // (Direct unit test: on single-core hosts `effective_schedule`
        // bypasses this code in the end-to-end paths.)
        let mut directed_edges = Vec::new();
        for u in 0..40u32 {
            for v in 0..40u32 {
                if u != v && (u * 7 + v) % 3 != 0 {
                    directed_edges.push((u, v));
                }
            }
        }
        for g in [
            rmat(),
            CsrGraph::from_edges(40, &directed_edges, Direction::Directed),
        ] {
            let offsets = g.offsets();
            let adjacencies = g.adjacencies();
            let mut prefix = vec![0u64];
            let mut acc = 0u64;
            for u in 0..g.vertex_count() {
                let deg_u = offsets[u + 1] - offsets[u];
                for e in offsets[u]..offsets[u + 1] {
                    let v = adjacencies[e as usize] as usize;
                    acc += deg_u + (offsets[v + 1] - offsets[v]);
                    prefix.push(acc);
                }
            }
            for parts in [1, 2, 3, 8, 32] {
                assert_eq!(
                    balanced_edge_bounds(&g, parts),
                    rmatc_graph::split::balanced_prefix_bounds(&prefix, parts),
                    "parts={parts}"
                );
            }
        }
    }

    #[test]
    fn degree_weighted_chunks_balance_edge_mass_on_skewed_graphs() {
        let g = RmatGenerator::paper(11, 16).generate_cleaned(3).into_csr();
        let parts = 16;
        let offsets = g.offsets();
        let max_weight = |bounds: &[usize]| {
            bounds
                .windows(2)
                .map(|w| offsets[w[1]] - offsets[w[0]])
                .max()
                .unwrap()
        };
        let weighted = max_weight(&balanced_vertex_bounds(offsets, parts));
        let statics = max_weight(&static_bounds(g.vertex_count(), parts));
        assert!(
            weighted < statics,
            "degree-weighted max chunk {weighted} must beat static {statics} on R-MAT skew"
        );
    }

    #[test]
    fn parallel_modes_match_on_directed_graphs() {
        let mut edges = Vec::new();
        for u in 0..40u32 {
            for v in 0..40u32 {
                if u != v && (u + v) % 3 != 0 {
                    edges.push((u, v));
                }
            }
        }
        let g = CsrGraph::from_edges(40, &edges, Direction::Directed);
        let seq = LocalLcc::new(LocalConfig::sequential()).run(&g);
        let vp = LocalLcc::new(LocalConfig::vertex_parallel(4)).run(&g);
        let ep = LocalLcc::new(LocalConfig::edge_parallel(4)).run(&g);
        assert_eq!(seq.per_vertex_triangles, vp.per_vertex_triangles);
        assert_eq!(seq.per_vertex_triangles, ep.per_vertex_triangles);
    }

    #[test]
    fn directed_graph_uses_ordered_pairs() {
        let mut edges = Vec::new();
        for u in 0..3u32 {
            for v in 0..3u32 {
                if u != v {
                    edges.push((u, v));
                }
            }
        }
        let g = CsrGraph::from_edges(3, &edges, Direction::Directed);
        let result = LocalLcc::new(LocalConfig::sequential()).run(&g);
        assert!(result.lcc.iter().all(|&c| (c - 1.0).abs() < 1e-12));
    }

    #[test]
    fn edges_processed_counts_directed_edges() {
        let g = rmat();
        let result = LocalLcc::new(LocalConfig::sequential()).run(&g);
        assert_eq!(result.edges_processed, g.edge_count());
        assert!(result.edges_per_us() > 0.0);
    }

    #[test]
    fn watts_strogatz_average_is_analytic() {
        let g = WattsStrogatz::new(300, 6, 0.0)
            .generate_cleaned(2)
            .into_csr();
        let result = LocalLcc::new(LocalConfig::parallel(4)).run(&g);
        assert!((result.average_lcc() - WattsStrogatz::lattice_lcc(6)).abs() < 1e-9);
    }

    #[test]
    fn empty_graph_is_handled() {
        let g = CsrGraph::from_edges(0, &[], Direction::Undirected);
        for cfg in [
            LocalConfig::sequential(),
            LocalConfig::vertex_parallel(4),
            LocalConfig::edge_parallel(4),
        ] {
            let result = LocalLcc::new(cfg).run(&g);
            assert_eq!(result.triangle_count, 0);
            assert!(result.lcc.is_empty());
            assert_eq!(result.edges_processed, 0);
        }
    }

    #[test]
    fn compressed_storage_matches_plain_across_parallelism_modes() {
        for g in [
            rmat(),
            WattsStrogatz::new(400, 8, 0.1)
                .generate_cleaned(7)
                .into_csr(),
        ] {
            let plain = LocalLcc::new(LocalConfig::sequential()).run(&g);
            for cfg in [
                LocalConfig::sequential(),
                LocalConfig::parallel(4),
                LocalConfig::vertex_parallel(4),
                LocalConfig::edge_parallel(4),
            ] {
                let compressed = LocalLcc::new(cfg.with_storage(GraphStorage::Compressed)).run(&g);
                assert_eq!(
                    plain.per_vertex_triangles, compressed.per_vertex_triangles,
                    "{:?}",
                    cfg.parallelism
                );
                assert_eq!(plain.edges_processed, compressed.edges_processed);
                for (a, b) in plain.lcc.iter().zip(compressed.lcc.iter()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "LCC must be bit-identical");
                }
            }
        }
    }

    #[test]
    fn compressed_storage_matches_plain_on_directed_graphs() {
        let mut edges = Vec::new();
        for u in 0..40u32 {
            for v in 0..40u32 {
                if u != v && (u + v) % 3 != 0 {
                    edges.push((u, v));
                }
            }
        }
        let g = CsrGraph::from_edges(40, &edges, Direction::Directed);
        let plain = LocalLcc::new(LocalConfig::sequential()).run(&g);
        let compressed =
            LocalLcc::new(LocalConfig::sequential().with_storage(GraphStorage::Compressed)).run(&g);
        assert_eq!(plain.per_vertex_triangles, compressed.per_vertex_triangles);
    }

    #[test]
    fn count_closing_general_and_fast_path_agree() {
        let g = rmat();
        let ix = ParallelIntersector::new(IntersectMethod::Hybrid, 1, usize::MAX);
        for u in 0..g.vertex_count() as VertexId {
            let adj_u = g.neighbours(u);
            for (k, &v) in adj_u.iter().enumerate() {
                let adj_v = g.neighbours(v);
                assert_eq!(
                    count_closing(g.direction(), adj_u, adj_v, v, &ix),
                    count_closing_at(g.direction(), adj_u, adj_v, v, k, &ix),
                    "u={u} v={v}"
                );
            }
        }
    }
}
