//! The two-get remote-adjacency protocol (steps 4–5 in Figure 3), with optional
//! CLaMPI caching of one or both windows.

use super::config::{DistConfig, ResolvedCaches, ScoreMode};
use super::windows::GraphWindows;
use crate::intersect::{
    copy_decode_intersect, copy_decode_intersect_into, fused, CostModel, IntersectMethod,
    ParallelIntersector,
};
use crate::local::{compressed_closing_operands, compressed_count_closing_at, count_closing_at};
use rmatc_clampi::{CacheStats, CachedWindow, RowRef};
use rmatc_graph::compressed::decoded_len;
use rmatc_graph::types::{Direction, VertexId};
use rmatc_graph::GraphStorage;
use rmatc_rma::{Endpoint, RmaError, Window};
use std::sync::Arc;

/// Per-rank reader of remote adjacency lists.
///
/// Reading the adjacency of a remote vertex requires two RMA gets: the first reads
/// the `(start, end)` pair from the target's `offsets` array, the second reads
/// `end − start` vertex ids from the target's `adjacencies` array. When caching is
/// enabled each get is first looked up in the corresponding CLaMPI cache
/// (`C_offsets`, `C_adj`); the adjacency entry can carry the vertex degree as its
/// application-defined eviction score.
#[derive(Debug)]
pub struct RemoteReader {
    offsets_plain: rmatc_rma::Window<u64>,
    adj_plain: rmatc_rma::Window<VertexId>,
    offsets_cache: Option<CachedWindow<u64>>,
    adj_cache: Option<CachedWindow<VertexId>>,
    score_mode: ScoreMode,
    /// Encoding of the adjacency window's payload (must match the windows the
    /// reader was built over): plain vertex ids or compressed row words.
    storage: GraphStorage,
    /// Cost model the compressed kernels dispatch through (merge vs skip).
    model: CostModel,
    /// Where the adjacency reads nobody retains land — non-cached protocol
    /// rounds and quarantine-bypass reads: the paper's double buffer. It
    /// grows to the longest row read and is then reused allocation-free.
    landing: Vec<VertexId>,
}

impl RemoteReader {
    /// Builds the reader for one rank. `caches` carries the resolved per-window
    /// CLaMPI configurations (or `None` entries for non-cached windows).
    pub fn new(windows: &GraphWindows, caches: &ResolvedCaches, config: &DistConfig) -> Self {
        Self {
            offsets_plain: windows.offsets.clone(),
            adj_plain: windows.adjacencies.clone(),
            offsets_cache: caches
                .offsets
                .map(|cfg| CachedWindow::new(windows.offsets.clone(), cfg)),
            adj_cache: caches
                .adjacencies
                .map(|cfg| CachedWindow::new(windows.adjacencies.clone(), cfg)),
            score_mode: config.score_mode,
            storage: windows.storage,
            model: config.cost_model,
            landing: Vec::new(),
        }
    }

    /// Builds a reader with no caching at all.
    pub fn non_cached(windows: &GraphWindows, config: &DistConfig) -> Self {
        Self::new(
            windows,
            &ResolvedCaches {
                offsets: None,
                adjacencies: None,
            },
            config,
        )
    }

    /// First get of the protocol: the `(start, end)` offsets pair of the row of
    /// `local_idx` on `target` (cache-intercepted when `C_offsets` is enabled).
    /// Every path is self-healing: transient failures and corrupted transfers
    /// retry per the endpoint's [`rmatc_rma::RetryPolicy`].
    fn read_offsets(
        &mut self,
        ep: &mut Endpoint,
        target: usize,
        local_idx: usize,
    ) -> Result<(usize, usize), RmaError> {
        match &mut self.offsets_cache {
            Some(cache) => {
                let row = cache.get(ep, target, local_idx, 2)?;
                Ok((row[0] as usize, row[1] as usize))
            }
            None => read_offsets_plain(ep, &self.offsets_plain, target, local_idx),
        }
    }

    /// The application-defined eviction score of an adjacency row of `len`
    /// entries (known after the first get: the degree of the fetched vertex).
    /// Under compressed storage `len` counts codec words, a faithful proxy
    /// for degree — the decoded count is not known until the row arrives.
    fn score_for(&self, len: usize) -> f64 {
        match self.score_mode {
            ScoreMode::Lru => 0.0,
            ScoreMode::DegreeCentrality => len as f64,
        }
    }

    /// Reads the adjacency list of the vertex with local index `local_idx` on rank
    /// `target`, issuing the two gets (cache-intercepted where enabled).
    ///
    /// The returned [`RowRef`] is a zero-copy view: local-rank reads borrow the
    /// window, cache hits share the cached buffer, and a miss allocates exactly
    /// once — the transfer buffer, which the cache retains by refcount.
    ///
    /// The row is returned exactly as stored: raw vertex ids under plain
    /// storage, compressed words (decode with
    /// [`rmatc_graph::compressed::decode_row`]) under compressed storage.
    pub fn read_adjacency(
        &mut self,
        ep: &mut Endpoint,
        target: usize,
        local_idx: usize,
    ) -> Result<RowRef<'_, VertexId>, RmaError> {
        let (start, end) = self.read_offsets(ep, target, local_idx)?;
        let len = end - start;
        if len == 0 {
            return Ok(RowRef::Window(&[]));
        }
        let score = self.score_for(len);
        match &mut self.adj_cache {
            Some(cache) => cache.get_scored(ep, target, start, len, score),
            None if target == ep.rank() => {
                Ok(RowRef::Window(ep.local_read(&self.adj_plain, start, len)))
            }
            None => Ok(RowRef::Fetched(ep.get_with_retry(
                &self.adj_plain,
                target,
                start,
                len,
            )?)),
        }
    }

    /// Reads the adjacency of `(target, local_idx)` and counts the closing
    /// vertices of the edge `(u, v)` in one protocol round — the distributed
    /// worker's hot path. `adj_u` is the local row, `neighbour_idx` the index
    /// of `v` within it (see [`count_closing_at`]).
    ///
    /// Cache hits and local-window rows are intersected in place — zero heap
    /// allocations. On a miss the fused copy+intersect kernel
    /// ([`fused::copy_intersect`]) counts the intersection in the same block
    /// pass that lands the row in the transfer buffer handed to the cache;
    /// pairs the hybrid cost model routes to a search-class kernel fall back
    /// to a plain transfer followed by the configured kernel over the landed
    /// buffer. Without a cache the same pass lands in the reader's reusable
    /// landing buffer instead ([`Endpoint::get_into_with_retry`]), so a
    /// non-cached round allocates nothing once that buffer has grown. The
    /// intersection runs on the caller's thread either way, so
    /// `intersector` should be a sequential one (the distributed experiments
    /// map one rank per core, as in the paper).
    #[allow(clippy::too_many_arguments)]
    pub fn count_closing_remote(
        &mut self,
        ep: &mut Endpoint,
        target: usize,
        local_idx: usize,
        direction: Direction,
        adj_u: &[VertexId],
        v: VertexId,
        neighbour_idx: usize,
        intersector: &ParallelIntersector,
    ) -> Result<u64, RmaError> {
        let (start, end) = self.read_offsets(ep, target, local_idx)?;
        let len = end - start;
        if len == 0 {
            return Ok(0);
        }
        let score = self.score_for(len);
        if self.storage == GraphStorage::Compressed {
            return self.count_closing_remote_compressed(
                ep,
                target,
                start,
                len,
                score,
                direction,
                adj_u,
                v,
                neighbour_idx,
            );
        }
        match &mut self.adj_cache {
            Some(cache) => cache.get_fused(
                ep,
                target,
                start,
                len,
                score,
                &mut self.landing,
                |row| count_closing_at(direction, adj_u, row, v, neighbour_idx, intersector),
                |src| transfer_count_closing(direction, adj_u, v, neighbour_idx, intersector, src),
            ),
            None if target == ep.rank() => {
                let row = ep.local_read(&self.adj_plain, start, len);
                Ok(count_closing_at(
                    direction,
                    adj_u,
                    row,
                    v,
                    neighbour_idx,
                    intersector,
                ))
            }
            None => ep.get_into_with_retry(
                &self.adj_plain,
                target,
                start,
                len,
                &mut self.landing,
                |src, landing| {
                    land_count_closing(
                        direction,
                        adj_u,
                        v,
                        neighbour_idx,
                        intersector,
                        src,
                        landing,
                    )
                },
            ),
        }
    }

    /// The compressed-storage leg of [`RemoteReader::count_closing_remote`]:
    /// the fetched region is a compressed row, so hits and local reads run
    /// the fused decompress+intersect kernels *in place* over the stored
    /// words (zero heap allocations), and a miss lands the compressed words
    /// in the single transfer buffer while intersecting block by block
    /// ([`copy_decode_intersect`]) — the cache keeps the row compressed.
    /// Misses also record logical vs stored bytes on the cache, making the
    /// compression win measurable ([`CacheStats::compression_ratio`]).
    #[allow(clippy::too_many_arguments)]
    fn count_closing_remote_compressed(
        &mut self,
        ep: &mut Endpoint,
        target: usize,
        start: usize,
        len: usize,
        score: f64,
        direction: Direction,
        adj_u: &[VertexId],
        v: VertexId,
        neighbour_idx: usize,
    ) -> Result<u64, RmaError> {
        let model = &self.model;
        match &mut self.adj_cache {
            Some(cache) => {
                let mut sizes: Option<(u64, u64)> = None;
                let count = cache.get_fused(
                    ep,
                    target,
                    start,
                    len,
                    score,
                    &mut self.landing,
                    |row| {
                        compressed_count_closing_at(direction, adj_u, row, v, neighbour_idx, model)
                    },
                    |src| {
                        sizes = Some((decoded_len(src) as u64 * 4, src.len() as u64 * 4));
                        compressed_transfer_count_closing(
                            direction,
                            adj_u,
                            v,
                            neighbour_idx,
                            model,
                            src,
                        )
                    },
                )?;
                if let Some((logical, stored)) = sizes {
                    cache.record_compression(logical, stored);
                }
                Ok(count)
            }
            None if target == ep.rank() => {
                let row = ep.local_read(&self.adj_plain, start, len);
                Ok(compressed_count_closing_at(
                    direction,
                    adj_u,
                    row,
                    v,
                    neighbour_idx,
                    model,
                ))
            }
            None => ep.get_into_with_retry(
                &self.adj_plain,
                target,
                start,
                len,
                &mut self.landing,
                |src, landing| {
                    let (a, bound) =
                        compressed_closing_operands(direction, adj_u, v, neighbour_idx);
                    // SAFETY: `copy_decode_intersect_into` initialises every
                    // element of its destination.
                    unsafe {
                        fused::land_in_vec(landing, src.len(), |dst| {
                            copy_decode_intersect_into(src, a, bound, model, dst)
                        })
                    }
                },
            ),
        }
    }

    /// Statistics of the offsets cache, if caching is enabled on that window.
    pub fn offsets_cache_stats(&self) -> Option<CacheStats> {
        self.offsets_cache.as_ref().map(|c| c.stats().clone())
    }

    /// Statistics of the adjacency cache, if caching is enabled on that window.
    pub fn adjacency_cache_stats(&self) -> Option<CacheStats> {
        self.adj_cache.as_ref().map(|c| c.stats().clone())
    }
}

/// The non-cached first get of the protocol, shared by every reader
/// (`RemoteReader`, the pipelined `SharedReader`, the service's `fetch_row`):
/// the `(start, end)` offsets pair of row `local_idx` on `target`, borrowed
/// from the window when the row is the caller's own, otherwise landed in a
/// two-word stack buffer — nobody retains it, so it allocates nothing.
pub(crate) fn read_offsets_plain(
    ep: &mut Endpoint,
    offsets: &Window<u64>,
    target: usize,
    local_idx: usize,
) -> Result<(usize, usize), RmaError> {
    let mut pair = [0u64; 2];
    if target == ep.rank() {
        pair.copy_from_slice(ep.local_read(offsets, local_idx, 2));
    } else {
        ep.get_into_with_retry(offsets, target, local_idx, 2, &mut pair, |wire, pair| {
            pair.copy_from_slice(wire)
        })?;
    }
    Ok((pair[0] as usize, pair[1] as usize))
}

/// What a landing transfer of the plain row `src` intersects, and how: the
/// local operand, the start of the remote operand within `src`, and whether
/// the resolved kernel is the merge-class SIMD block kernel the fused
/// copy+intersect pass *is*. Operands come from the same helpers
/// `count_closing_at` uses and the kernel choice from the same resolver
/// `ParallelIntersector::count` applies — the landing paths cannot diverge
/// from the hit path, nor from each other.
fn closing_transfer_plan<'a>(
    direction: Direction,
    adj_u: &'a [VertexId],
    v: VertexId,
    neighbour_idx: usize,
    intersector: &ParallelIntersector,
    src: &[VertexId],
) -> (&'a [VertexId], usize, bool) {
    let a = crate::local::closing_a_side(direction, adj_u, neighbour_idx);
    let from = crate::local::closing_b_start(direction, src, v);
    let fused = intersector.resolved_method(a.len(), src.len() - from) == IntersectMethod::Simd;
    (a, from, fused)
}

/// The miss-path transfer closure of [`RemoteReader::count_closing_remote`]:
/// lands the exposed source row `src` in a shared buffer the cache (or a
/// pipeline slot) will hold, and computes the closing count of the edge
/// `(u, v)` against it, fusing the two passes for merge-class pairs.
/// Search-class pairs copy plainly and run the configured kernel — exactly
/// what [`count_closing_at`] would have done on the landed buffer, so the
/// count is identical either way.
pub(crate) fn transfer_count_closing(
    direction: Direction,
    adj_u: &[VertexId],
    v: VertexId,
    neighbour_idx: usize,
    intersector: &ParallelIntersector,
    src: &[VertexId],
) -> (Arc<[VertexId]>, u64) {
    let (a, from, fused) =
        closing_transfer_plan(direction, adj_u, v, neighbour_idx, intersector, src);
    if fused {
        fused::copy_intersect(src, from, a)
    } else {
        let arc: Arc<[VertexId]> = Arc::from(src);
        let count = intersector.count(a, &arc[from..]);
        (arc, count)
    }
}

/// [`transfer_count_closing`] for a row nobody retains: the same plan, landed
/// in the reader's reusable buffer instead of a fresh allocation.
fn land_count_closing(
    direction: Direction,
    adj_u: &[VertexId],
    v: VertexId,
    neighbour_idx: usize,
    intersector: &ParallelIntersector,
    src: &[VertexId],
    landing: &mut Vec<VertexId>,
) -> u64 {
    let (a, from, fused) =
        closing_transfer_plan(direction, adj_u, v, neighbour_idx, intersector, src);
    if fused {
        // SAFETY: `copy_intersect_into` initialises every element of its
        // destination.
        unsafe {
            fused::land_in_vec(landing, src.len(), |dst| {
                fused::copy_intersect_into(src, from, a, dst)
            })
        }
    } else {
        landing.clear();
        landing.extend_from_slice(src);
        intersector.count(a, &landing[from..])
    }
}

/// Compressed counterpart of [`transfer_count_closing`]: `src` is a
/// compressed row, landed word-for-word in the single transfer buffer while
/// each block is decoded into a stack buffer and intersected
/// ([`copy_decode_intersect`]). The operands are those of the hit path's
/// [`compressed_count_closing_at`], so miss and hit counts cannot diverge.
pub(crate) fn compressed_transfer_count_closing(
    direction: Direction,
    adj_u: &[VertexId],
    v: VertexId,
    neighbour_idx: usize,
    model: &CostModel,
    src: &[u32],
) -> (Arc<[u32]>, u64) {
    let (a, bound) = compressed_closing_operands(direction, adj_u, v, neighbour_idx);
    copy_decode_intersect(src, a, bound, model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributed::config::CacheSpec;
    use crate::intersect::CostModel;
    use rmatc_graph::gen::{GraphGenerator, RmatGenerator};
    use rmatc_graph::partition::{PartitionScheme, PartitionedGraph};
    use rmatc_rma::NetworkModel;

    fn setup() -> (PartitionedGraph, GraphWindows, DistConfig) {
        let g = RmatGenerator::paper(8, 8).generate_cleaned(3).into_csr();
        let pg = PartitionedGraph::from_global(&g, PartitionScheme::Block1D, 2).unwrap();
        let windows = GraphWindows::build(&pg);
        let config = DistConfig {
            ranks: 2,
            scheme: PartitionScheme::Block1D,
            method: IntersectMethod::Hybrid,
            cost_model: CostModel::Analytic,
            network: NetworkModel::aries(),
            double_buffering: false,
            cache: None,
            score_mode: ScoreMode::DegreeCentrality,
            retry: rmatc_rma::RetryPolicy::default(),
            faults: None,
            pipeline_depth: 1,
            intra_threads: 1,
            storage: GraphStorage::Plain,
        };
        (pg, windows, config)
    }

    #[test]
    fn non_cached_reader_returns_exact_adjacency() {
        let (pg, windows, config) = setup();
        let mut reader = RemoteReader::non_cached(&windows, &config);
        let mut ep = Endpoint::new(0, 2, config.network);
        ep.lock_all();
        let remote = &pg.partitions[1];
        for (local_idx, _) in remote.global_ids.iter().enumerate().take(20) {
            let got = reader.read_adjacency(&mut ep, 1, local_idx).unwrap();
            assert_eq!(got.as_slice(), remote.neighbours_of_local(local_idx));
        }
        ep.unlock_all();
        // Two gets per non-empty row, one per empty row.
        assert!(ep.stats().gets >= 20);
    }

    #[test]
    fn cached_reader_returns_exact_adjacency_and_hits_on_reuse() {
        let (pg, windows, config) = setup();
        // The paper's `0.8 · |V|`-byte offsets cache cannot hold this test's
        // whole 10-row working set on so small a graph, so second-round hits
        // would depend on the eviction pattern (and through the slot hash on
        // the process-global window-id draw). Size it explicitly instead —
        // the test is about reuse being served from cache, not about capacity.
        let mut spec = CacheSpec::paper(1 << 20);
        spec.offsets_bytes = Some(1 << 10);
        let caches = spec.resolve(pg.global_vertex_count(), windows.adjacency_bytes() as u64);
        let mut reader = RemoteReader::new(&windows, &caches, &config);
        let mut ep = Endpoint::new(0, 2, config.network);
        ep.lock_all();
        let remote = &pg.partitions[1];
        for round in 0..2 {
            for (local_idx, _) in remote.global_ids.iter().enumerate().take(10) {
                let got = reader.read_adjacency(&mut ep, 1, local_idx).unwrap();
                assert_eq!(
                    got.as_slice(),
                    remote.neighbours_of_local(local_idx),
                    "round {round}"
                );
            }
        }
        ep.unlock_all();
        let adj_stats = reader.adjacency_cache_stats().unwrap();
        assert!(
            adj_stats.hits > 0,
            "second round must hit the adjacency cache"
        );
        let off_stats = reader.offsets_cache_stats().unwrap();
        assert!(
            off_stats.hits > 0,
            "second round must hit the offsets cache"
        );
    }

    #[test]
    fn empty_adjacency_rows_need_only_one_get() {
        // Construct a partition where some rows are empty by filtering edges.
        let (_pg, _windows, config) = setup();
        let g = rmatc_graph::CsrGraph::from_edges(
            8,
            &[(0, 1), (1, 0), (4, 5), (5, 4)],
            rmatc_graph::types::Direction::Undirected,
        );
        let pg = PartitionedGraph::from_global(&g, PartitionScheme::Block1D, 2).unwrap();
        let windows = GraphWindows::build(&pg);
        let mut reader = RemoteReader::non_cached(&windows, &config);
        let mut ep = Endpoint::new(0, 2, config.network);
        ep.lock_all();
        // Vertex 6 lives on rank 1 (block [4..8)) and has no neighbours.
        let local_idx = pg.partitioner.local_index(6);
        let got = reader.read_adjacency(&mut ep, 1, local_idx).unwrap();
        assert!(got.is_empty());
        assert_eq!(ep.stats().gets, 1);
        ep.unlock_all();
    }

    #[test]
    fn fused_count_matches_separate_read_and_intersect() {
        // Cached and non-cached fused counts must equal reading the row and
        // running `count_closing_at` over it, for every edge and both rounds
        // (miss then hit).
        let (pg, windows, config) = setup();
        let caches = CacheSpec::paper(1 << 20)
            .resolve(pg.global_vertex_count(), windows.adjacency_bytes() as u64);
        let intersector = ParallelIntersector::new(config.method, 1, usize::MAX);
        let part = &pg.partitions[0];
        for cached in [false, true] {
            let mut fused_reader = if cached {
                RemoteReader::new(&windows, &caches, &config)
            } else {
                RemoteReader::non_cached(&windows, &config)
            };
            let mut plain_reader = RemoteReader::non_cached(&windows, &config);
            let mut ep_a = Endpoint::new(0, 2, config.network);
            let mut ep_b = Endpoint::new(0, 2, config.network);
            ep_a.lock_all();
            ep_b.lock_all();
            for _round in 0..2 {
                for local_idx in 0..part.local_vertex_count() {
                    let adj_u = part.neighbours_of_local(local_idx);
                    for (k, &v) in adj_u.iter().enumerate() {
                        if pg.partitioner.owner(v) != 1 {
                            continue;
                        }
                        let v_local = pg.partitioner.local_index(v);
                        let got = fused_reader
                            .count_closing_remote(
                                &mut ep_a,
                                1,
                                v_local,
                                pg.direction,
                                adj_u,
                                v,
                                k,
                                &intersector,
                            )
                            .unwrap();
                        let row = plain_reader
                            .read_adjacency(&mut ep_b, 1, v_local)
                            .unwrap()
                            .to_vec();
                        let expected =
                            count_closing_at(pg.direction, adj_u, &row, v, k, &intersector);
                        assert_eq!(got, expected, "cached={cached} u_local={local_idx} v={v}");
                    }
                }
            }
            ep_a.unlock_all();
            ep_b.unlock_all();
        }
    }

    #[test]
    fn compressed_fused_counts_match_plain_for_every_edge_and_round() {
        // The compressed reader (hit, miss and local paths) must produce the
        // exact counts the plain reader produces, and record logical vs
        // stored bytes on the cache while doing so.
        let (pg, plain_windows, mut config) = setup();
        config.storage = GraphStorage::Compressed;
        let windows = GraphWindows::build_with(&pg, GraphStorage::Compressed);
        let caches = CacheSpec::paper(1 << 20)
            .resolve(pg.global_vertex_count(), windows.adjacency_bytes() as u64);
        let intersector = ParallelIntersector::new(config.method, 1, usize::MAX);
        let part = &pg.partitions[0];
        for cached in [false, true] {
            let mut reader = if cached {
                RemoteReader::new(&windows, &caches, &config)
            } else {
                RemoteReader::non_cached(&windows, &config)
            };
            let mut plain_config = config;
            plain_config.storage = GraphStorage::Plain;
            let mut plain_reader = RemoteReader::non_cached(&plain_windows, &plain_config);
            let mut ep_a = Endpoint::new(0, 2, config.network);
            let mut ep_b = Endpoint::new(0, 2, config.network);
            ep_a.lock_all();
            ep_b.lock_all();
            for _round in 0..2 {
                for local_idx in 0..part.local_vertex_count() {
                    let adj_u = part.neighbours_of_local(local_idx);
                    for (k, &v) in adj_u.iter().enumerate() {
                        if pg.partitioner.owner(v) != 1 {
                            continue;
                        }
                        let v_local = pg.partitioner.local_index(v);
                        let got = reader
                            .count_closing_remote(
                                &mut ep_a,
                                1,
                                v_local,
                                pg.direction,
                                adj_u,
                                v,
                                k,
                                &intersector,
                            )
                            .unwrap();
                        let row = plain_reader
                            .read_adjacency(&mut ep_b, 1, v_local)
                            .unwrap()
                            .to_vec();
                        let expected =
                            count_closing_at(pg.direction, adj_u, &row, v, k, &intersector);
                        assert_eq!(got, expected, "cached={cached} u_local={local_idx} v={v}");
                    }
                }
            }
            ep_a.unlock_all();
            ep_b.unlock_all();
            if cached {
                let stats = reader.adjacency_cache_stats().unwrap();
                assert!(stats.hits > 0, "second round must hit");
                assert!(
                    stats.stored_bytes > 0 && stats.logical_bytes > stats.stored_bytes,
                    "misses must record a compression win ({} logical vs {} stored)",
                    stats.logical_bytes,
                    stats.stored_bytes
                );
            }
        }
    }
}
