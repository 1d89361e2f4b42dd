//! Shared-memory edge-centric triangle counting and LCC over one CSR graph.
//!
//! This is the per-node computation kernel of the paper: for every vertex and every
//! incident edge, intersect the two adjacency lists (Section II-C), offsetting the
//! intersection on undirected graphs so each triangle is counted once per corner.
//!
//! There is one loop. With more than one thread, `0..n` is cut into
//! `threads · 8` contiguous vertex ranges that carry equal *edge mass*
//! ([`balanced_vertex_bounds`]: a binary search per boundary over
//! `CsrGraph::offsets`, so one R-MAT hub cannot make its range the straggler).
//! Each range counts into its own partial buffer; the buffers are stitched in
//! range order. Every intersection runs sequentially on the thread that owns its
//! range. With one thread, or no vertices, the whole graph is one range. Plain
//! and compressed storage share the loop and differ only in the per-vertex
//! counter.
//!
//! The paper's Section III-C parallelizes each *intersection* instead. This
//! repository measured that scheme slower than one thread and keeps the vertex
//! ranges only (`docs/TUNING.md`, "Shared-memory parallelism").
//!
//! The ranges run on `threads` scoped threads (`std::thread::scope`) spawned
//! per call: each pulls the next range index from one shared atomic cursor
//! until none are left, so a range that takes longer than its edge mass
//! predicts delays only the thread running it. Under `Hybrid` on plain rows
//! each thread owns one [`SourceMarks`] bitset (at most `n` bits), which
//! holds the row of the vertex it is counting ([`count_closing_at`]).

use crate::intersect::compressed::compressed_count_closing;
use crate::intersect::{
    marks_are_faster, with_marked, CostModel, IntersectMethod, Intersector, SourceMarks,
};
use crate::lcc;
use rmatc_graph::compressed::{decode_row, CompressedCsr};
use rmatc_graph::split::balanced_vertex_bounds;
use rmatc_graph::types::{Direction, VertexId};
use rmatc_graph::{CsrGraph, GraphStorage};
use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::Instant;

/// Ranges per thread: oversplitting lets the threads' shared cursor absorb
/// what the degree weighting leaves uneven.
const RANGES_PER_THREAD: usize = 8;

/// Configuration for the shared-memory computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalConfig {
    /// Intersection kernel selection.
    pub method: IntersectMethod,
    /// Number of threads that run the ranges (0 or 1 = one range on the
    /// calling thread).
    pub threads: usize,
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
            storage: GraphStorage::from_env(),
        }
    }

    /// Hybrid configuration over `threads` degree-weighted vertex ranges.
    pub fn parallel(threads: usize) -> Self {
        Self {
            threads,
            ..Self::sequential()
        }
    }

    /// Same configuration with a different intersection method.
    pub fn with_method(mut self, method: IntersectMethod) -> Self {
        self.method = method;
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
#[derive(Debug, Clone, PartialEq)]
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
        let threads = self.config.threads;
        // Compression happens outside the timed section, like CSR
        // construction does for the plain path: the timed computation is the
        // fused decompress+intersect traversal itself.
        let ccsr =
            (self.config.storage == GraphStorage::Compressed).then(|| CompressedCsr::from_csr(g));
        let intersector = Intersector::new(self.config.method);
        let start = Instant::now();
        let (per_vertex, edges) = match &ccsr {
            None => count_ranges(
                g,
                threads,
                || SourceMarks::for_method(self.config.method),
                |u, marks| count_vertex(g, u, &intersector, marks.as_mut()),
            ),
            Some(ccsr) => count_ranges(g, threads, Vec::new, |u, adj_u| {
                compressed_count_vertex(ccsr, u, adj_u)
            }),
        };
        finish(g, per_vertex, edges, start.elapsed().as_nanos() as u64)
    }
}

/// The range driver: cuts `0..n` into `threads · 8` degree-weighted vertex
/// ranges (one range when `threads <= 1` or `n == 0`), runs them on
/// `threads` scoped threads that share one range cursor, and stitches the
/// per-vertex counts in range order; a thread's panic is re-raised on the
/// caller. `count(u, scratch)` returns `u`'s closed triplets and directed
/// edges; `scratch` is state each thread makes once (`make_scratch`) and
/// reuses across the vertices of all its ranges. Returns the per-vertex
/// counts and the directed edges processed.
fn count_ranges<S, F>(
    g: &CsrGraph,
    threads: usize,
    make_scratch: impl Fn() -> S + Sync,
    count: F,
) -> (Vec<u64>, u64)
where
    F: Fn(VertexId, &mut S) -> (u64, u64) + Sync,
{
    let count_range = |lo: usize, hi: usize, scratch: &mut S| {
        let mut counts = vec![0u64; hi - lo];
        let mut edges = 0u64;
        for (u, slot) in (lo..hi).zip(counts.iter_mut()) {
            let (t, e) = count(u as VertexId, scratch);
            *slot = t;
            edges += e;
        }
        (counts, edges)
    };
    let n = g.vertex_count();
    if threads <= 1 || n == 0 {
        return count_range(0, n, &mut make_scratch());
    }
    let bounds = balanced_vertex_bounds(g.offsets(), threads * RANGES_PER_THREAD);
    let ranges = bounds.len() - 1;
    // `Relaxed`: the cursor only hands out indices; the partials reach the
    // caller through `join`.
    let cursor = AtomicUsize::new(0);
    let worker = || {
        let mut scratch = make_scratch();
        let mut done = Vec::new();
        loop {
            let r = cursor.fetch_add(1, Ordering::Relaxed);
            if r >= ranges {
                return done;
            }
            done.push((r, count_range(bounds[r], bounds[r + 1], &mut scratch)));
        }
    };
    let mut partials: Vec<(usize, (Vec<u64>, u64))> = thread::scope(|s| {
        let workers: Vec<_> = (0..threads.min(ranges)).map(|_| s.spawn(worker)).collect();
        workers
            .into_iter()
            .flat_map(|w| {
                w.join()
                    .unwrap_or_else(|payload| panic::resume_unwind(payload))
            })
            .collect()
    });
    partials.sort_unstable_by_key(|&(r, _)| r);
    let mut per_vertex = Vec::with_capacity(n);
    let mut edges = 0u64;
    for (_, (counts, e)) in partials {
        per_vertex.extend_from_slice(&counts);
        edges += e;
    }
    (per_vertex, edges)
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
/// is sliced exactly like the plain path, and the upper-triangle filter on
/// the compressed `v` row becomes the kernels' `bound` parameter instead of
/// a `partition_point` on decoded data.
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
    let (a, bound) = match direction {
        Direction::Undirected => (&adj_u[neighbour_idx + 1..], Some(v)),
        Direction::Directed => (adj_u, None),
    };
    compressed_count_closing(a, row_v, bound, &CostModel::Analytic)
}

/// Counts the closed triplets anchored at `u`, using the O(1) incremental
/// upper-triangle offset: because `v` iterates `adj_u` in sorted order, the
/// suffix of `adj_u` past `v` starts right after the running neighbour index —
/// no `partition_point` over `adj_u` needed. With `marks`, `adj_u` is marked
/// for the duration of `u`'s edges.
fn count_vertex(
    g: &CsrGraph,
    u: VertexId,
    intersector: &Intersector,
    marks: Option<&mut SourceMarks>,
) -> (u64, u64) {
    let adj_u = g.neighbours(u);
    let direction = g.direction();
    let t = with_marked(marks, adj_u, |marks| {
        let closing = |(k, &v): (usize, &VertexId)| {
            count_closing_at(direction, adj_u, g.neighbours(v), v, k, intersector, marks)
        };
        adj_u.iter().enumerate().map(closing).sum()
    });
    (t, adj_u.len() as u64)
}

/// Counts the closing vertices for the edge `(u, v)` given both adjacency lists:
/// undirected graphs count only `w > v` (upper-triangle offsetting), directed graphs
/// count the full intersection (ordered pairs, Eq. 1).
///
/// This is the general entry point for callers that cannot supply `v`'s index
/// within `adj_u` (out-of-order or index-free iteration); every in-tree
/// caller — the local loop, the distributed worker and the service — iterates in order
/// and uses [`count_closing_at`], which replaces one of the two
/// `partition_point` calls with the already-known neighbour index. The
/// general form is kept public as the reference implementation and is tested
/// for equivalence against the fast path.
pub fn count_closing(
    direction: Direction,
    adj_u: &[VertexId],
    adj_v: &[VertexId],
    v: VertexId,
    intersector: &Intersector,
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
///
/// `marks`, when given, must hold exactly `adj_u` (callers build them for
/// `Hybrid` only, [`SourceMarks::for_method`]): with `A = adj_u ∩ (v, ∞)`
/// and `B = adj_v ∩ (v, ∞)` (whole rows on directed graphs), an edge with
/// `|B| ≤ MARKS_FACTOR · |A|` ([`marks_are_faster`]) is counted as the
/// marked elements of `B` — every marked `w > v` is in `A` — and every
/// other edge by the pairwise kernel.
pub fn count_closing_at(
    direction: Direction,
    adj_u: &[VertexId],
    adj_v: &[VertexId],
    v: VertexId,
    neighbour_idx: usize,
    intersector: &Intersector,
    marks: Option<&SourceMarks>,
) -> u64 {
    debug_assert!(
        direction == Direction::Directed || adj_u[neighbour_idx] == v,
        "neighbour_idx must locate v in adj_u"
    );
    let (a, b) = match direction {
        Direction::Undirected => (
            &adj_u[neighbour_idx + 1..],
            &adj_v[adj_v.partition_point(|&x| x <= v)..],
        ),
        Direction::Directed => (adj_u, adj_v),
    };
    match marks {
        Some(marks) if marks_are_faster(a.len(), b.len()) => marks.count(b),
        _ => intersector.count(a, b),
    }
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
        for storage in [GraphStorage::Plain, GraphStorage::Compressed] {
            for cfg in [LocalConfig::sequential(), LocalConfig::parallel(4)] {
                let result = LocalLcc::new(cfg.with_storage(storage)).run(&g);
                assert_eq!(result.triangle_count, 0, "{storage:?}");
                assert!(result.lcc.is_empty());
                assert_eq!(result.edges_processed, 0);
            }
        }
    }

    #[test]
    fn compressed_storage_matches_plain_at_every_thread_count() {
        for g in [
            rmat(),
            WattsStrogatz::new(400, 8, 0.1)
                .generate_cleaned(7)
                .into_csr(),
        ] {
            let plain = LocalLcc::new(LocalConfig::sequential()).run(&g);
            for threads in [1, 4] {
                let cfg = LocalConfig::parallel(threads).with_storage(GraphStorage::Compressed);
                let compressed = LocalLcc::new(cfg).run(&g);
                assert_eq!(
                    plain.per_vertex_triangles, compressed.per_vertex_triangles,
                    "{threads} threads"
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
        let ix = Intersector::new(IntersectMethod::Hybrid);
        for u in 0..g.vertex_count() as VertexId {
            let adj_u = g.neighbours(u);
            for (k, &v) in adj_u.iter().enumerate() {
                let adj_v = g.neighbours(v);
                assert_eq!(
                    count_closing(g.direction(), adj_u, adj_v, v, &ix),
                    count_closing_at(g.direction(), adj_u, adj_v, v, k, &ix, None),
                    "u={u} v={v}"
                );
            }
        }
    }
}
