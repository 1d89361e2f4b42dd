//! Per-layer probes of the traced pass: rank 0's own inputs — the row pairs
//! its edge loop intersects and the remote adjacency rows it reads, in the
//! order it reads them — replayed through each layer's public API and timed
//! in bulk (no per-call clock reads). The replays are single-threaded and run
//! in a fresh process, so every count they produce repeats exactly.

use crate::inputs::{Built, Visit, Workload};
use crate::report::Metrics;
use crate::trace::{SpanId, Trace};
use rmatc::clampi::{Clampi, EntryKey};
use rmatc::core::intersect::compressed_count_closing;
use rmatc::core::Intersector;
use rmatc::prelude::*;
use rmatc::rma::{Endpoint, Window};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// One remote adjacency read: where the row lives in the adjacency window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowKey {
    pub target: usize,
    pub offset: usize,
    pub len: usize,
    /// Index of this row among the distinct rows of the trace.
    pub row: usize,
}

/// Every rank's adjacency array as the library's windows expose it: raw
/// vertex ids, or the concatenated compressed rows.
pub struct Exposed {
    window: Window<u32>,
    /// Per rank, `offsets[i]..offsets[i + 1]` is the window range of local row `i`.
    offsets: Vec<Vec<u64>>,
    pub compress_s: f64,
    pub compression_ratio: f64,
}

impl Exposed {
    /// Compresses every partition (timed — this is what the library repeats
    /// inside each compressed run) and exposes the representation `storage`
    /// names in a window built with `Window::from_parts`.
    pub fn build(pg: &PartitionedGraph, storage: GraphStorage) -> Self {
        let start = Instant::now();
        let compressed: Vec<CompressedCsr> = pg
            .partitions
            .iter()
            .map(|p| CompressedCsr::from_csr(&p.csr))
            .collect();
        let compress_s = start.elapsed().as_secs_f64();
        let logical: u64 = compressed.iter().map(|c| c.logical_adjacency_bytes()).sum();
        let stored: u64 = compressed.iter().map(|c| c.stored_adjacency_bytes()).sum();
        let (parts, offsets) = match storage {
            GraphStorage::Plain => pg
                .partitions
                .iter()
                .map(|p| (p.csr.adjacencies().to_vec(), p.csr.offsets().to_vec()))
                .unzip(),
            GraphStorage::Compressed => compressed
                .iter()
                .map(|c| (c.words().to_vec(), c.row_offsets().to_vec()))
                .unzip(),
        };
        Self {
            window: Window::from_parts(parts),
            offsets,
            compress_s,
            compression_ratio: if stored == 0 {
                1.0
            } else {
                logical as f64 / stored as f64
            },
        }
    }

    fn range(&self, pg: &PartitionedGraph, v: u32) -> (usize, usize, usize) {
        let (target, local) = (pg.partitioner.owner(v), pg.partitioner.local_index(v));
        let (lo, hi) = (self.offsets[target][local], self.offsets[target][local + 1]);
        (target, lo as usize, (hi - lo) as usize)
    }

    /// The stored form of `v`'s row.
    fn row(&self, pg: &PartitionedGraph, v: u32) -> &[u32] {
        let (target, offset, len) = self.range(pg, v);
        &self.window.local_part(target)[offset..offset + len]
    }
}

/// The remote rows rank 0 reads for `windows` of visits. A batch run is one
/// window and reads a row per remote edge; the service plans each window's
/// reads sorted and deduplicated (`dedup`), exactly as the engine does.
/// Empty rows are never fetched (the two-get protocol stops at the offsets).
pub fn key_trace(
    built: &Built,
    exposed: &Exposed,
    windows: &[Vec<Visit>],
    dedup: bool,
) -> Vec<RowKey> {
    let pg = &built.pg;
    let mut rows: BTreeMap<(usize, usize), usize> = BTreeMap::new();
    let mut out = Vec::new();
    for window in windows {
        let mut keys: Vec<(usize, usize, usize)> = window
            .iter()
            .map(|visit| exposed.range(pg, visit.v))
            .filter(|&(target, _, len)| target != 0 && len > 0)
            .collect();
        if dedup {
            keys.sort_unstable();
            keys.dedup();
        }
        for (target, offset, len) in keys {
            let next = rows.len();
            let row = *rows.entry((target, offset)).or_insert(next);
            out.push(RowKey {
                target,
                offset,
                len,
                row,
            });
        }
    }
    out
}

fn ns_per(elapsed_s: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        elapsed_s * 1e9 / n as f64
    }
}

/// `intersect.*`: the pairs through `Intersector::count` (and, on the
/// compressed workload, `compressed_count_closing` over the stored rows).
/// Returns the busy time of the kernel the workload really runs.
pub fn intersect(
    workload: Workload,
    built: &Built,
    exposed: &Exposed,
    visits: &[Visit],
    layer: &mut Metrics,
    trace: &mut Trace,
    parent: SpanId,
) -> f64 {
    let span = trace.open("probe.intersect", Some(parent));
    let pairs: Vec<(&[u32], &[u32])> = visits.iter().map(|v| v.operands(&built.g)).collect();
    let (mut elems, mut merge, mut gallop, mut binary) = (0u64, 0u64, 0u64, 0u64);
    for (a, b) in &pairs {
        elems += (a.len() + b.len()) as u64;
        let (short, long) = (a.len().min(b.len()), a.len().max(b.len()));
        match IntersectMethod::Hybrid.resolve(short, long) {
            IntersectMethod::Galloping => gallop += 1,
            IntersectMethod::BinarySearch => binary += 1,
            _ => merge += 1,
        }
    }
    let n = pairs.len().max(1) as f64;
    layer.set("intersect.pairs", pairs.len() as f64);
    layer.set("intersect.elems", elems as f64);
    layer.set("intersect.share_merge", merge as f64 / n);
    layer.set("intersect.share_gallop", gallop as f64 / n);
    layer.set("intersect.share_binary", binary as f64 / n);

    let kernel = Intersector::new(IntersectMethod::Hybrid).with_cost_model(CostModel::Analytic);
    let start = Instant::now();
    let mut common = 0u64;
    for (a, b) in &pairs {
        common += kernel.count(black_box(a), black_box(b));
    }
    black_box(common);
    let mut busy_s = start.elapsed().as_secs_f64();
    layer.set("intersect.busy_s", busy_s);
    layer.set("intersect.ns_per_elem", ns_per(busy_s, elems));

    if workload.storage() == GraphStorage::Compressed {
        let rows: Vec<(&[u32], &[u32], Option<u32>)> = visits
            .iter()
            .map(|v| {
                let (a, _) = v.operands(&built.g);
                (a, exposed.row(&built.pg, v.v), v.closing.then_some(v.v))
            })
            .collect();
        let start = Instant::now();
        let mut fused = 0u64;
        for (a, row, bound) in &rows {
            fused += compressed_count_closing(black_box(a), row, *bound, &CostModel::Analytic);
        }
        assert_eq!(fused, common, "compressed and plain kernels disagree");
        busy_s = start.elapsed().as_secs_f64();
        layer.set("intersect.compressed_ns_per_elem", ns_per(busy_s, elems));
    }
    trace.count(span, "pairs", pairs.len() as f64);
    trace.count(span, "elems", elems as f64);
    trace.close(span);
    busy_s
}

/// `rma.get_ns`, `rma.bytes_per_get`: every key through `Endpoint::get` +
/// `PendingGet::wait`. Returns the measured cost of one get in seconds.
pub fn rma(
    ranks: usize,
    exposed: &Exposed,
    keys: &[RowKey],
    layer: &mut Metrics,
    trace: &mut Trace,
    parent: SpanId,
) -> f64 {
    let span = trace.open("probe.rma", Some(parent));
    let mut ep = Endpoint::new(0, ranks, NetworkModel::aries());
    ep.lock_all();
    let start = Instant::now();
    for key in keys {
        let landed = ep
            .get(&exposed.window, key.target, key.offset, key.len)
            .and_then(|pending| pending.wait(&mut ep))
            .expect("no faults are injected");
        black_box(landed);
    }
    let busy_s = start.elapsed().as_secs_f64();
    ep.unlock_all();
    let stats = ep.into_stats();
    let get_ns = ns_per(busy_s, stats.gets);
    layer.set("rma.get_ns", get_ns);
    layer.set(
        "rma.bytes_per_get",
        stats.bytes as f64 / stats.gets.max(1) as f64,
    );
    trace.count(span, "gets", stats.gets as f64);
    trace.count(span, "bytes", stats.bytes as f64);
    trace.close(span);
    get_ns * 1e-9
}

/// What the cache replay measured, for the coverage estimate.
pub struct CacheReplay {
    pub busy_s: f64,
    pub misses: u64,
}

/// `clampi.*` replay metrics: the key trace through one `Clampi<u32>`
/// configured as the run configures its adjacency cache (`lookup`, and
/// `insert` with the row length as the degree score on a miss), then an
/// all-resident pass that prices a hit.
pub fn clampi(
    spec: &CacheSpec,
    built: &Built,
    exposed: &Exposed,
    keys: &[RowKey],
    layer: &mut Metrics,
    trace: &mut Trace,
    parent: SpanId,
) -> CacheReplay {
    let span = trace.open("probe.clampi", Some(parent));
    let n = built.pg.global_vertex_count();
    let window_bytes = exposed.window.total_bytes();
    let config = spec
        .resolve(n, window_bytes as u64)
        .adjacencies
        .expect("a cached workload caches adjacencies");
    // The payload a miss admits: the row as a transfer would land it, shared
    // by refcount exactly as the cached window hands it over.
    let distinct = keys.iter().map(|k| k.row + 1).max().unwrap_or(0);
    let mut payloads: Vec<Arc<[u32]>> = vec![Arc::from([]); distinct];
    for key in keys {
        if payloads[key.row].is_empty() {
            let part = exposed.window.local_part(key.target);
            payloads[key.row] = Arc::from(&part[key.offset..key.offset + key.len]);
        }
    }
    let id = exposed.window.id();
    let entry = |key: &RowKey| EntryKey::new(id, key.target, key.offset, key.len);

    let mut cache: Clampi<u32> = Clampi::new(config);
    let start = Instant::now();
    for key in keys {
        if cache.lookup(entry(key)).is_none() {
            cache.insert(entry(key), payloads[key.row].clone(), key.len as f64);
        }
    }
    let busy_s = start.elapsed().as_secs_f64();
    let stats = cache.stats().clone();
    layer.set("clampi.lookups", stats.lookups() as f64);
    layer.set("clampi.hit_rate", stats.hit_rate());
    layer.set("clampi.capacity_evictions", stats.capacity_evictions as f64);
    layer.set("clampi.conflict_evictions", stats.conflict_evictions as f64);
    layer.set("clampi.busy_s", busy_s);

    // Price of a hit: a cache big enough to keep every row, filled once, then
    // the same trace again.
    let roomy = CacheSpec::paper(4 * window_bytes + n)
        .resolve(n, window_bytes as u64)
        .adjacencies
        .expect("a cached workload caches adjacencies");
    let mut resident: Clampi<u32> = Clampi::new(roomy);
    for key in keys {
        if resident.lookup(entry(key)).is_none() {
            resident.insert(entry(key), payloads[key.row].clone(), key.len as f64);
        }
    }
    let start = Instant::now();
    for key in keys {
        black_box(resident.lookup(entry(key)));
    }
    let hit_ns = ns_per(start.elapsed().as_secs_f64(), keys.len() as u64);
    layer.set("clampi.hit_ns", hit_ns);
    let hits_s = stats.hits as f64 * hit_ns * 1e-9;
    layer.set(
        "clampi.miss_admit_ns",
        ns_per((busy_s - hits_s).max(0.0), stats.misses),
    );
    trace.count(span, "lookups", stats.lookups() as f64);
    trace.count(span, "hits", stats.hits as f64);
    trace.count(span, "evictions", stats.evictions() as f64);
    trace.close(span);
    CacheReplay {
        busy_s,
        misses: stats.misses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{batch_visits, build, dist_config, Sizing};

    fn probe(workload: Workload) -> (Metrics, usize, usize) {
        let sizing = Sizing {
            batch_scale: 9,
            ..Sizing::quick()
        };
        let mut trace = Trace::new(true);
        let root = trace.open("workload", None);
        let built = build(workload, 5, &sizing, &mut trace, root);
        let exposed = Exposed::build(&built.pg, workload.storage());
        let visits = batch_visits(workload, &built);
        let keys = key_trace(&built, &exposed, std::slice::from_ref(&visits), false);
        let mut layer = Metrics::per_layer();
        intersect(
            workload, &built, &exposed, &visits, &mut layer, &mut trace, root,
        );
        rma(2, &exposed, &keys, &mut layer, &mut trace, root);
        if let Some(spec) = dist_config(workload, &built.g, 2).cache {
            clampi(&spec, &built, &exposed, &keys, &mut layer, &mut trace, root);
        }
        (layer, visits.len(), keys.len())
    }

    #[test]
    fn probes_replay_rank_zero_and_count_what_they_saw() {
        let (layer, visits, keys) = probe(Workload::LccCached);
        assert_eq!(layer.get("intersect.pairs"), visits as f64);
        let shares = layer.get("intersect.share_merge")
            + layer.get("intersect.share_gallop")
            + layer.get("intersect.share_binary");
        assert!((shares - 1.0).abs() < 1e-12);
        assert_eq!(layer.get("clampi.lookups"), keys as f64);
        assert!(layer.get("clampi.hit_rate") > 0.0);
        assert!(layer.get("rma.bytes_per_get") >= 4.0);
        assert_eq!(layer.get("intersect.compressed_ns_per_elem"), 0.0);
    }

    #[test]
    fn the_compressed_probe_reads_stored_rows_and_agrees_with_the_plain_kernel() {
        // `intersect` asserts the fused count equals the plain one.
        let (layer, _, keys) = probe(Workload::JaccardCompressed);
        assert!(layer.get("intersect.compressed_ns_per_elem") > 0.0);
        assert_eq!(layer.get("clampi.lookups"), keys as f64);
    }

    #[test]
    fn dedup_plans_each_window_like_the_engine() {
        let sizing = Sizing {
            batch_scale: 9,
            ..Sizing::quick()
        };
        let built = build(Workload::LccCached, 5, &sizing, &mut Trace::new(false), 0);
        let exposed = Exposed::build(&built.pg, GraphStorage::Plain);
        let visits = batch_visits(Workload::LccCached, &built);
        let windows = vec![visits.clone(), visits];
        let raw = key_trace(&built, &exposed, &windows, false);
        let planned = key_trace(&built, &exposed, &windows, true);
        assert!(planned.len() < raw.len());
        let half = planned.len() / 2;
        assert_eq!(planned[..half], planned[half..], "one plan per window");
        assert!(planned[..half]
            .windows(2)
            .all(|w| { (w[0].target, w[0].offset) < (w[1].target, w[1].offset) }));
    }
}
