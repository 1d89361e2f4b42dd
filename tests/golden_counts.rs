//! The deleted implementations keep judging the survivor: full `CacheStats`
//! (of `C_adj`) and integer `RankStats` of fixed small runs, recorded from
//! the *sequential* worker and the sequential Jaccard rank loop of the commit
//! before the one edge loop replaced them (`RemoteReader` over `CachedWindow`).
//! The edge loop must reproduce every number at depth 1 and at depth 8 — not
//! only agree with the brute-force reference on the answers.
//!
//! The runs: R-MAT(8, 8) seed 5 on 2 ranks, `CacheSpec::paper` with degree
//! scores (the two larger budgets hold the whole remote partition; 4 KiB
//! forces capacity and conflict evictions under plain storage, 2 KiB under
//! compressed, and 4 KiB compressed one conflict eviction), plain and
//! compressed windows, LCC and Jaccard. Do not re-record these literals to
//! make a change pass: a moved count is a changed protocol.
//!
//! The two pressured configurations (4 KiB plain, 2 KiB compressed) were
//! re-pinned once, on purpose: the recorded worker passed each row's degree
//! to the cache but never switched `C_adj` to
//! [`ScorePolicy::ApplicationScore`](rmatc::clampi::ScorePolicy), so the
//! scores it recorded under were positional LRU's. The cache now makes that
//! switch under `with_degree_scores()`, which changes which residents a
//! full cache evicts and lets it refuse low-degree rows (the non-zero
//! `admission_rejections` below; rank 1 at 4 KiB fetches 28 800 bytes where it
//! fetched 46 396). Offsets caches, answers and the two unpressured
//! configurations did not move.
//!
//! The `rma` columns were re-pinned once more, on purpose, when `C_offsets`
//! was deleted: the cached edge loop now reads each source's offsets pairs in
//! α+β-planned spans instead of one cached 16-byte get per remote edge, and
//! the offsets arrays went with the cache. Gets fell (rank 0 at 1 MiB plain:
//! 603 → 170 = 90 `C_adj` misses + 80 spans), bytes rose (11 316 → 33 324:
//! the spans read the words between the pairs they need) and `local_reads`
//! lost the offsets hits (539 → 481 = the `C_adj` hits). Every `C_adj` counter
//! and every answer stayed as recorded.
//!
//! Then `C_adj` was given the whole budget (it had kept `total − 0.8 · |V|`,
//! the paper's offsets share, 204 bytes here), which moved the three
//! pressured configurations and nothing else. Plain 4 KiB: rank 0 hits
//! 418 → 410, rank 1 316 → 319, capacity evictions 126 → 133. Compressed
//! 4 KiB left the unpressured group: one conflict eviction on rank 0.
//! Compressed 2 KiB lost hits (rank 0 437 → 309): the table's slot count
//! follows the budget (`n · f²`), and in a table of a few dozen slots the
//! new modulus lands hot rows on colliding slots (225 conflict evictions
//! where there were 71). Answers did not move.
//!
//! The `rma` columns were re-pinned a third time, on purpose, when the
//! offsets spans were deleted: a rank now reads each other owner's whole
//! offsets window with one get the first time it needs a row there, and
//! takes every later pair from that copy. Each rank's gets became its
//! `C_adj` misses plus one (rank 0 at 1 MiB plain: 170 → 91 = 90 misses + 1
//! window), and its bytes the cache's network bytes plus the other rank's
//! window (33 324 → 3 836 = 3 108 + 91 words of 8 bytes). Every `C_adj`
//! counter, `local_reads` and every answer stayed as recorded; the test
//! checks both identities beside the literals.

use rmatc::clampi::CacheStats;
use rmatc::core::distributed::worker::run_worker;
use rmatc::core::distributed::{CacheSpec, DistConfig, GraphWindows};
use rmatc::core::DistJaccard;
use rmatc::graph::gen::{GraphGenerator, RmatGenerator};
use rmatc::graph::partition::{PartitionScheme, PartitionedGraph};
use rmatc::graph::{reference, GraphStorage};
use rmatc::rma::RankStats;

/// Every `CacheStats` counter, in declaration order.
fn cache_counts(s: &CacheStats) -> [u64; 14] {
    [
        s.hits,
        s.misses,
        s.compulsory_misses,
        s.capacity_evictions,
        s.conflict_evictions,
        s.uncacheable,
        s.bytes_from_cache,
        s.bytes_from_network,
        s.flushes,
        s.invalidations,
        s.evicted_bytes,
        s.admission_rejections,
        s.logical_bytes,
        s.stored_bytes,
    ]
}

/// Every integer `RankStats` field of a two-rank run (the fault counters,
/// all zero on these fault-free runs, as their sum).
fn rank_counts(s: &RankStats) -> [u64; 9] {
    [
        s.gets,
        s.bytes,
        s.flushes,
        s.local_reads,
        s.gets_per_target[0],
        s.gets_per_target[1],
        s.bytes_per_target[0],
        s.bytes_per_target[1],
        s.fault_events(),
    ]
}

struct LccRank {
    adjacency: [u64; 14],
    rma: [u64; 9],
    triangles: u64,
}

struct Golden {
    /// Cache budgets that all produced these numbers.
    budgets: &'static [usize],
    storage: GraphStorage,
    /// Per rank, from the parent's sequential `run_worker`.
    lcc: [LccRank; 2],
    /// Per rank, from the parent's sequential `DistJaccard` (integer
    /// `RankStats` was all its rank loop returned).
    jaccard: [[u64; 9]; 2],
}

#[rustfmt::skip]
const GOLDEN: &[Golden] = &[
    Golden {
        budgets: &[1 << 20, 1 << 14],
        storage: GraphStorage::Plain,
        lcc: [
            LccRank {
                adjacency: [481, 90, 90, 0, 0, 0, 41148, 3108, 0, 0, 0, 0, 0, 0],
                rma: [91, 3836, 91, 481, 0, 91, 0, 3836, 0],
                triangles: 9494,
            },
            LccRank {
                adjacency: [489, 82, 80, 0, 2, 0, 99616, 7024, 0, 0, 116, 0, 0, 0],
                rma: [83, 7760, 83, 489, 83, 0, 7760, 0, 0],
                triangles: 2806,
            },
        ],
        jaccard: [
            [91, 3836, 91, 481, 0, 91, 0, 3836, 0],
            [83, 7760, 83, 489, 83, 0, 7760, 0, 0],
        ],
    },
    Golden {
        budgets: &[1 << 20, 1 << 14],
        storage: GraphStorage::Compressed,
        lcc: [
            LccRank {
                adjacency: [481, 90, 90, 0, 0, 0, 13316, 1788, 0, 0, 0, 0, 3108, 1788],
                rma: [91, 2516, 91, 481, 0, 91, 0, 2516, 0],
                triangles: 9494,
            },
            LccRank {
                adjacency: [491, 80, 80, 0, 0, 0, 20480, 2220, 0, 0, 0, 0, 6908, 2220],
                rma: [81, 2956, 81, 491, 81, 0, 2956, 0, 0],
                triangles: 2806,
            },
        ],
        jaccard: [
            [91, 2516, 91, 481, 0, 91, 0, 2516, 0],
            [81, 2956, 81, 491, 81, 0, 2956, 0, 0],
        ],
    },
    Golden {
        budgets: &[1 << 12],
        storage: GraphStorage::Compressed,
        lcc: [
            LccRank {
                adjacency: [480, 91, 90, 0, 1, 0, 13300, 1804, 0, 0, 16, 0, 3132, 1804],
                rma: [92, 2532, 92, 480, 0, 92, 0, 2532, 0],
                triangles: 9494,
            },
            LccRank {
                adjacency: [491, 80, 80, 0, 0, 0, 20480, 2220, 0, 0, 0, 0, 6908, 2220],
                rma: [81, 2956, 81, 491, 81, 0, 2956, 0, 0],
                triangles: 2806,
            },
        ],
        jaccard: [
            [92, 2532, 92, 480, 0, 92, 0, 2532, 0],
            [81, 2956, 81, 491, 81, 0, 2956, 0, 0],
        ],
    },
    Golden {
        budgets: &[1 << 12],
        storage: GraphStorage::Plain,
        lcc: [
            LccRank {
                adjacency: [410, 161, 90, 0, 105, 0, 39360, 4896, 0, 0, 2280, 0, 0, 0],
                rma: [162, 5624, 162, 410, 0, 162, 0, 5624, 0],
                triangles: 9494,
            },
            LccRank {
                adjacency: [319, 252, 80, 133, 3, 95, 86132, 20508, 0, 0, 7480, 95, 0, 0],
                rma: [253, 21244, 253, 319, 253, 0, 21244, 0, 0],
                triangles: 2806,
            },
        ],
        jaccard: [
            [162, 5624, 162, 410, 0, 162, 0, 5624, 0],
            [253, 21244, 253, 319, 253, 0, 21244, 0, 0],
        ],
    },
    Golden {
        budgets: &[1 << 11],
        storage: GraphStorage::Compressed,
        lcc: [
            LccRank {
                adjacency: [309, 262, 90, 0, 225, 0, 9552, 5552, 0, 0, 4676, 0, 11396, 5552],
                rma: [263, 6280, 263, 309, 0, 263, 0, 6280, 0],
                triangles: 9494,
            },
            LccRank {
                adjacency: [425, 146, 80, 0, 86, 0, 18716, 3984, 0, 0, 2212, 0, 12188, 3984],
                rma: [147, 4720, 147, 425, 147, 0, 4720, 0, 0],
                triangles: 2806,
            },
        ],
        jaccard: [
            [263, 6280, 263, 309, 0, 263, 0, 6280, 0],
            [147, 4720, 147, 425, 147, 0, 4720, 0, 0],
        ],
    },
];

#[test]
fn the_edge_loop_reproduces_the_sequential_workers_counts() {
    let g = RmatGenerator::paper(8, 8).generate_cleaned(5).into_csr();
    let pg = PartitionedGraph::from_global(&g, PartitionScheme::Block1D, 2).unwrap();
    let triangles = reference::per_vertex_triangles(&g);
    for golden in GOLDEN {
        let windows = GraphWindows::build_with(&pg, golden.storage);
        for (&budget, depth) in golden.budgets.iter().flat_map(|b| [(b, 1usize), (b, 8)]) {
            let what = format!("budget {budget}, {:?}, depth {depth}", golden.storage);
            let mut cfg = DistConfig::non_cached(2)
                .with_storage(golden.storage)
                .with_pipeline_depth(depth);
            cfg.cache = Some(CacheSpec::paper(budget).with_degree_scores());
            for (rank, expected) in golden.lcc.iter().enumerate() {
                let out = run_worker(rank, &pg, &windows, &cfg).unwrap();
                let adjacency = out
                    .adjacency_cache
                    .as_ref()
                    .expect("adjacency cache enabled");
                assert_eq!(
                    cache_counts(adjacency),
                    expected.adjacency,
                    "{what}, rank {rank}"
                );
                assert_eq!(rank_counts(&out.rma), expected.rma, "{what}, rank {rank}");
                // Beside its `C_adj` misses, a rank reads each other owner
                // it needs a row of once: that owner's whole offsets window.
                let owners_read: Vec<usize> = (0..pg.ranks())
                    .filter(|&owner| owner != rank)
                    .filter(|&owner| {
                        let part = &pg.partitions[rank];
                        (0..part.local_vertex_count()).any(|idx| {
                            let row = part.neighbours_of_local(idx);
                            row.iter().any(|&v| pg.partitioner.owner(v) == owner)
                        })
                    })
                    .collect();
                let window_bytes: u64 = owners_read
                    .iter()
                    .map(|&owner| 8 * (pg.partitions[owner].local_vertex_count() as u64 + 1))
                    .sum();
                assert_eq!(
                    out.rma.gets,
                    adjacency.misses + owners_read.len() as u64,
                    "{what}, rank {rank}"
                );
                assert_eq!(
                    out.rma.bytes,
                    adjacency.bytes_from_network + window_bytes,
                    "{what}, rank {rank}"
                );
                assert_eq!(out.items.iter().sum::<u64>(), expected.triangles);
                for (local_idx, &gv) in pg.partitions[rank].global_ids.iter().enumerate() {
                    assert_eq!(out.items[local_idx], triangles[gv as usize], "{what}");
                }
            }
            let jaccard = DistJaccard::new(cfg).try_run_partitioned(&pg).unwrap();
            for (rank, expected) in golden.jaccard.iter().enumerate() {
                let stats = &jaccard.rank_stats[rank];
                assert_eq!(
                    rank_counts(stats),
                    *expected,
                    "jaccard, {what}, rank {rank}"
                );
            }
        }
    }
}
