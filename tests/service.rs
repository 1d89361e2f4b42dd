//! Differential + admission test layer of the resident query service
//! ([`rmatc_core::service`]).
//!
//! The contract under test: every service answer is **bit-identical** to the
//! batch pipelines ([`DistJaccard`] / [`DistLcc`]) that the equivalence and
//! chaos suites already hold to the reference — across storage modes,
//! eviction score rules and batch sizes — and the admission counters obey the
//! conservation identities (`submitted = accepted + shed + rejected`,
//! `accepted = completed + failed + queued`): no query is ever silently
//! dropped, and a full queue rejects immediately instead of blocking.

use proptest::prelude::*;
use rmatc::prelude::*;
use rmatc_core::jaccard::{similarity_order, top_k_edges, EdgeSimilarity};
use rmatc_graph::gen::{GraphGenerator, RmatGenerator};
use rmatc_graph::types::{Direction, VertexId};
use rmatc_graph::GraphError;
use std::collections::HashMap;

// ---------------------------------------------------------------------------
// Baselines: the batch pipelines the service must agree with bit-for-bit.
// ---------------------------------------------------------------------------

type EdgeMap = HashMap<(VertexId, VertexId), EdgeSimilarity>;

/// Per-edge similarity records and per-vertex LCC scores from the (plain,
/// uncached) batch pipelines. Storage mode and caching provably do not change
/// batch answers, so one baseline serves every matrix cell.
fn baselines(g: &CsrGraph, ranks: usize) -> (EdgeMap, Vec<f64>) {
    let jr = DistJaccard::new(DistConfig::non_cached(ranks)).run(g);
    let map = jr
        .edges
        .iter()
        .map(|e| ((e.source, e.destination), *e))
        .collect();
    let lcc = DistLcc::new(DistConfig::non_cached(ranks)).run(g).lcc;
    (map, lcc)
}

/// Both eviction score rules, positional first.
const SCORE_RULES: [ScorePolicy; 2] = [ScorePolicy::LruPositional, ScorePolicy::ApplicationScore];

/// `dist` with its cache scored by `scoring`.
fn cached_with(mut dist: DistConfig, scoring: ScorePolicy) -> DistConfig {
    dist.cache = dist.cache.map(|spec| CacheSpec { scoring, ..spec });
    dist
}

/// The batch-pipeline answer to one service query.
fn expected_answer(query: Query, map: &EdgeMap, lcc: &[f64]) -> QueryAnswer {
    match query {
        Query::CommonNeighbors { u, v } => {
            QueryAnswer::CommonNeighbors(map[&(u, v)].common_neighbours)
        }
        Query::Jaccard { u, v } => QueryAnswer::Jaccard(map[&(u, v)]),
        Query::TopK { u, k } => {
            let mut edges: Vec<EdgeSimilarity> =
                map.values().filter(|e| e.source == u).copied().collect();
            edges.sort_by(similarity_order);
            QueryAnswer::TopK(top_k_edges(&edges, k))
        }
        Query::LccOf { v } => QueryAnswer::Lcc(lcc[v as usize]),
    }
}

/// Deterministic xorshift64* stream, the workspace's bench idiom.
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state >> 12;
    *state ^= *state << 25;
    *state ^= *state >> 27;
    state.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

/// A deterministic mixed query stream over the graph's edges and vertices.
fn fixed_query_mix(g: &CsrGraph, count: usize) -> Vec<Query> {
    let n = g.vertex_count() as u64;
    let adj = g.adjacencies();
    let mut state = 0x1234_5678_9abc_def1u64;
    let mut queries = Vec::with_capacity(count);
    while queries.len() < count {
        // An adjacency position names a (source row, destination) edge, so
        // hubs are drawn in proportion to degree — the hot-row pattern the
        // batch planner's dedup exists for.
        let pos = xorshift(&mut state) % adj.len() as u64;
        let u = (g.offsets().partition_point(|&o| o <= pos) - 1) as VertexId;
        let v = adj[pos as usize];
        let q = match xorshift(&mut state) % 4 {
            0 => Query::CommonNeighbors { u, v },
            1 => Query::Jaccard { u, v },
            2 => Query::TopK {
                u,
                k: (xorshift(&mut state) % 8) as usize,
            },
            _ => Query::LccOf {
                v: (xorshift(&mut state) % n) as VertexId,
            },
        };
        queries.push(q);
    }
    queries
}

/// Runs one matrix cell: a resident engine answers `queries`, and every
/// answer must equal the batch baseline exactly. Also checks the counter
/// conservation identities and the cache-stats lookup identity.
fn run_matrix_cell(
    g: &CsrGraph,
    dist: DistConfig,
    batch_size: usize,
    queries: &[Query],
    map: &EdgeMap,
    lcc: &[f64],
    label: &str,
) {
    let cfg = ServiceConfig::new(dist)
        .with_batch_size(batch_size)
        .with_queue_capacity(queries.len().max(1));
    let mut engine = QueryEngine::new(g, cfg).unwrap();
    let mut ids = Vec::with_capacity(queries.len());
    for &q in queries {
        ids.push(engine.submit(q).expect("capacity covers the stream"));
    }
    let responses = engine.drain();
    assert_eq!(responses.len(), queries.len(), "{label}");
    for ((resp, &q), id) in responses.iter().zip(queries).zip(ids) {
        assert_eq!(
            resp.id, id,
            "{label}: responses come back in admission order"
        );
        assert_eq!(resp.query, q, "{label}");
        let got = resp.result.as_ref().expect("fault-free queries succeed");
        assert_eq!(got, &expected_answer(q, map, lcc), "{label}: query {q:?}");
    }
    let stats = engine.stats();
    assert!(stats.reconciles(), "{label}: {stats:?}");
    assert_eq!(stats.completed, queries.len() as u64, "{label}");
    assert!(stats.dedup_ratio() >= 1.0, "{label}");
    assert!(stats.unique_row_reads <= stats.row_reads, "{label}");
    assert!(
        stats.offsets_cache.is_none(),
        "{label}: offsets are never cached"
    );
    if let Some(cache) = &stats.adjacency_cache {
        assert_eq!(cache.hits + cache.misses, cache.lookups(), "{label}");
    }
}

// ---------------------------------------------------------------------------
// Pinned differential matrix: storage × eviction score rule × batch size.
// ---------------------------------------------------------------------------

#[test]
fn service_answers_match_batch_pipelines_across_matrix() {
    let g = RmatGenerator::paper(7, 8).generate_cleaned(77).into_csr();
    let ranks = 3;
    let (map, lcc) = baselines(&g, ranks);
    let queries = fixed_query_mix(&g, 160);
    // Half the CSR footprint, so both score rules actually evict.
    let cache_bytes = (g.csr_size_bytes() as usize / 2).max(1024);
    for storage in [GraphStorage::Plain, GraphStorage::Compressed] {
        for scoring in SCORE_RULES {
            for batch_size in [1usize, 3, 16] {
                let dist = cached_with(DistConfig::cached(ranks, cache_bytes), scoring)
                    .with_storage(storage);
                let label = format!("{storage:?}/{scoring:?}/batch{batch_size}");
                run_matrix_cell(&g, dist, batch_size, &queries, &map, &lcc, &label);
            }
        }
        // The uncached cell: dedup still holds within a batch window.
        let dist = DistConfig::non_cached(ranks).with_storage(storage);
        let label = format!("{storage:?}/uncached/batch8");
        run_matrix_cell(&g, dist, 8, &queries, &map, &lcc, &label);
    }
}

#[test]
fn warm_cache_serves_repeated_batches_from_hits() {
    // Seed 75: under both storages the cold pass keeps every row it fetches
    // (on seed 77 the compressed rows' keys collide in the slot table).
    let g = RmatGenerator::paper(7, 8).generate_cleaned(75).into_csr();
    let dist = DistConfig::cached(4, g.csr_size_bytes() as usize).with_degree_scores();
    let mut engine = QueryEngine::new(&g, ServiceConfig::new(dist).with_batch_size(32)).unwrap();
    let queries = fixed_query_mix(&g, 64);
    for &q in &queries {
        engine.submit(q).unwrap();
    }
    engine.drain();
    let cold = engine.stats();
    let cold_cache = cold.adjacency_cache.as_ref().unwrap();
    // The premise of the replay below: the cold pass neither evicted nor
    // refused a row, so every remote row it read is still resident.
    assert_eq!(cold_cache.capacity_evictions, 0, "{cold_cache:?}");
    assert_eq!(cold_cache.conflict_evictions, 0, "{cold_cache:?}");
    assert_eq!(cold_cache.admission_rejections, 0, "{cold_cache:?}");
    // Replay the same stream through the *same* resident engine: every remote
    // row is already cached, so no new network bytes move.
    for &q in &queries {
        engine.submit(q).unwrap();
    }
    engine.drain();
    let warm = engine.stats();
    let warm_cache = warm.adjacency_cache.as_ref().unwrap();
    assert!(warm_cache.hits > cold_cache.hits, "warm replay must hit");
    assert_eq!(
        warm_cache.bytes_from_network, cold_cache.bytes_from_network,
        "a fully warm replay fetches nothing"
    );
    assert!(warm.reconciles());
}

// ---------------------------------------------------------------------------
// Random differential mixes (proptest): arbitrary graphs, arbitrary streams.
// ---------------------------------------------------------------------------

/// Strategy: a random undirected graph as (vertex count, edge list) — the
/// same shape `tests/properties.rs` uses.
fn arb_undirected_graph() -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (4usize..28).prop_flat_map(|n| {
        let edges = prop::collection::vec((0..n as u32, 0..n as u32), 0..140);
        (Just(n), edges)
    })
}

fn build_csr(n: usize, edges: &[(u32, u32)]) -> CsrGraph {
    let mut el = EdgeList::from_edges(n, edges.to_vec(), Direction::Undirected).unwrap();
    el.remove_self_loops();
    el.symmetrize();
    el.into_csr()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn service_matches_batch_on_random_mixes(
        (n, edges) in arb_undirected_graph(),
        ranks in 1usize..5,
        compressed in any::<bool>(),
        cached in any::<bool>(),
        rule_idx in 0usize..2,
        batch_size in 1usize..=9,
        picks in prop::collection::vec((any::<prop::sample::Index>(), 0u8..4, 0usize..8), 1..40),
    ) {
        let g = build_csr(n, &edges);
        if g.vertex_count() == 0 {
            return Ok(());
        }
        let ranks = ranks.min(g.vertex_count());
        let (map, lcc) = baselines(&g, ranks);
        let mut directed_edges: Vec<(VertexId, VertexId)> = map.keys().copied().collect();
        directed_edges.sort_unstable();
        let queries: Vec<Query> = picks
            .iter()
            .map(|&(idx, kind, k)| match kind {
                0 | 1 if !directed_edges.is_empty() => {
                    let (u, v) = directed_edges[idx.index(directed_edges.len())];
                    if kind == 0 {
                        Query::CommonNeighbors { u, v }
                    } else {
                        Query::Jaccard { u, v }
                    }
                }
                2 => Query::TopK {
                    u: idx.index(g.vertex_count()) as VertexId,
                    k,
                },
                _ => Query::LccOf {
                    v: idx.index(g.vertex_count()) as VertexId,
                },
            })
            .collect();
        let storage = if compressed { GraphStorage::Compressed } else { GraphStorage::Plain };
        let dist = if cached {
            let dist = DistConfig::cached(ranks, (g.csr_size_bytes() as usize / 2).max(512));
            cached_with(dist, SCORE_RULES[rule_idx]).with_storage(storage)
        } else {
            DistConfig::non_cached(ranks).with_storage(storage)
        };
        let cfg = ServiceConfig::new(dist)
            .with_batch_size(batch_size)
            .with_queue_capacity(queries.len());
        let mut engine = QueryEngine::new(&g, cfg).unwrap();
        for &q in &queries {
            engine.submit(q).unwrap();
        }
        for (resp, &q) in engine.drain().iter().zip(&queries) {
            let got = resp.result.as_ref().expect("fault-free queries succeed");
            prop_assert_eq!(got, &expected_answer(q, &map, &lcc), "query {:?}", q);
        }
        let stats = engine.stats();
        prop_assert!(stats.reconciles(), "{:?}", stats);
        prop_assert_eq!(stats.completed, queries.len() as u64);
        prop_assert!(stats.offsets_cache.is_none());
        if let Some(cache) = &stats.adjacency_cache {
            prop_assert_eq!(cache.hits + cache.misses, cache.lookups());
        }
    }
}

// ---------------------------------------------------------------------------
// Top-k tie-breaking: deterministic across storage modes.
// ---------------------------------------------------------------------------

#[test]
fn top_k_orders_equal_scores_by_vertex_ids() {
    let mk = |source, destination| EdgeSimilarity {
        source,
        destination,
        common_neighbours: 1,
        jaccard: 0.5,
    };
    // Shuffled input, all scores equal: the order must come from the ids.
    let edges = vec![mk(3, 1), mk(1, 2), mk(2, 0), mk(1, 0), mk(2, 5)];
    assert_eq!(top_k_edges(&edges, 3), vec![mk(1, 0), mk(1, 2), mk(2, 0)]);
    // A higher score still wins over any id.
    let mut with_winner = edges.clone();
    with_winner.push(EdgeSimilarity {
        source: 9,
        destination: 9,
        common_neighbours: 3,
        jaccard: 0.75,
    });
    assert_eq!(top_k_edges(&with_winner, 1)[0].source, 9);
    // k beyond the input returns everything, fully ordered.
    let all = top_k_edges(&edges, 10);
    assert_eq!(all.len(), edges.len());
    assert!(all
        .windows(2)
        .all(|w| similarity_order(&w[0], &w[1]) != std::cmp::Ordering::Greater));
}

#[test]
fn top_k_is_identical_across_thread_counts_and_storage() {
    // A clique: every edge has the same score, so top-k is pure tie-break.
    let n = 12u32;
    let edges: Vec<(u32, u32)> = (0..n)
        .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
        .collect();
    let g = build_csr(n as usize, &edges);
    let mut reference: Option<Vec<EdgeSimilarity>> = None;
    for storage in [GraphStorage::Plain, GraphStorage::Compressed] {
        let cfg = DistConfig::non_cached(3).with_storage(storage);
        let top = DistJaccard::new(cfg).run(&g).top_k(10);
        assert_eq!(top.len(), 10);
        // With all scores equal, the order is exactly ascending ids.
        let ids: Vec<(u32, u32)> = top.iter().map(|e| (e.source, e.destination)).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted, "storage={storage:?}");
        match &reference {
            None => reference = Some(top),
            Some(r) => assert_eq!(r, &top, "storage={storage:?}"),
        }
    }
    // The service's TopK answer obeys the same order.
    let mut engine = QueryEngine::new(&g, ServiceConfig::new(DistConfig::non_cached(3))).unwrap();
    let answer = engine.oneshot(Query::TopK { u: 0, k: 5 }).unwrap();
    let QueryAnswer::TopK(top) = answer else {
        panic!("TopK query answers TopK");
    };
    let ids: Vec<(u32, u32)> = top.iter().map(|e| (e.source, e.destination)).collect();
    assert_eq!(ids, vec![(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]);
}

// ---------------------------------------------------------------------------
// Backpressure and admission control.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random interleavings of submits (some naming unknown vertices) and
    /// batch executions: the conservation identities hold after every step,
    /// shed queries see the exact queue state, and draining leaves nothing
    /// unaccounted for.
    #[test]
    fn admission_counters_always_reconcile(
        ops in prop::collection::vec((any::<bool>(), any::<prop::sample::Index>()), 1..120),
        capacity in 1usize..8,
        batch_size in 1usize..4,
    ) {
        let g = RmatGenerator::paper(5, 8).generate_cleaned(9).into_csr();
        let cfg = ServiceConfig::new(DistConfig::non_cached(2))
            .with_queue_capacity(capacity)
            .with_batch_size(batch_size);
        let mut engine = QueryEngine::new(&g, cfg).unwrap();
        let n = engine.partitioned_graph().global_vertex_count();
        for (do_submit, idx) in ops {
            if do_submit {
                // Over-range draws exercise the UnknownVertex rejection.
                let v = idx.index(n + n / 2 + 1) as VertexId;
                let depth_before = engine.queue_depth();
                match engine.submit(Query::LccOf { v }) {
                    Ok(_) => {
                        prop_assert!((v as usize) < n);
                        prop_assert_eq!(engine.queue_depth(), depth_before + 1);
                    }
                    Err(ServiceError::UnknownVertex { vertex, vertex_count }) => {
                        prop_assert_eq!(vertex, v);
                        prop_assert_eq!(vertex_count, n);
                        prop_assert_eq!(engine.queue_depth(), depth_before);
                    }
                    Err(ServiceError::Overloaded { queue_depth, capacity: cap }) => {
                        prop_assert_eq!(queue_depth, capacity);
                        prop_assert_eq!(cap, capacity);
                        prop_assert_eq!(engine.queue_depth(), capacity);
                    }
                    Err(e) => prop_assert!(false, "unexpected admission error {}", e),
                }
            } else {
                engine.run_batch();
            }
            let stats = engine.stats();
            prop_assert!(stats.reconciles(), "{:?}", stats);
        }
        engine.drain();
        let stats = engine.stats();
        prop_assert!(stats.reconciles(), "{:?}", stats);
        prop_assert_eq!(stats.queue_depth, 0);
        prop_assert_eq!(stats.accepted, stats.completed + stats.failed);
    }
}

#[test]
fn full_queue_rejects_immediately_and_deadlines_expire() {
    let g = RmatGenerator::paper(7, 8).generate_cleaned(77).into_csr();
    let cfg = ServiceConfig::new(DistConfig::non_cached(4))
        .with_queue_capacity(2)
        .with_batch_size(1);
    let mut engine = QueryEngine::new(&g, cfg).unwrap();
    // A query whose home row has at least one remote neighbour, so executing
    // it must spend virtual communication time.
    let pg = engine.partitioned_graph();
    let remote_query = (0..pg.global_vertex_count() as VertexId)
        .find(|&v| {
            let owner = pg.partitioner.owner(v);
            pg.partitions[owner]
                .neighbours_of_local(pg.partitioner.local_index(v))
                .iter()
                .any(|&w| pg.partitioner.owner(w) != owner)
        })
        .map(|v| Query::LccOf { v })
        .expect("a 4-rank partition of this graph has remote edges");

    // Load shedding: the third submit against a 2-deep queue is rejected
    // synchronously with the exact queue state — it never blocks.
    engine.submit(remote_query).unwrap();
    engine.submit(remote_query).unwrap();
    let err = engine.submit(remote_query).unwrap_err();
    assert_eq!(
        err,
        ServiceError::Overloaded {
            queue_depth: 2,
            capacity: 2,
        }
    );
    engine.drain();
    assert!(
        engine.virtual_now_ns() > 0.0,
        "remote reads advance the virtual clock"
    );

    // Deadline expiry: a query with a zero deadline sitting behind another
    // query expires once the head's execution advances the virtual clock.
    engine.submit(remote_query).unwrap();
    let late = engine
        .submit_with_deadline(remote_query, Some(0.0))
        .unwrap();
    let first = engine.run_batch();
    assert_eq!(first.len(), 1);
    assert!(first[0].result.is_ok());
    let second = engine.run_batch();
    assert_eq!(second.len(), 1);
    assert_eq!(second[0].id, late);
    match &second[0].result {
        Err(ServiceError::DeadlineExceeded {
            waited_ns,
            deadline_ns,
        }) => {
            assert!(*waited_ns > 0.0);
            assert_eq!(*deadline_ns, 0.0);
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    let stats = engine.stats();
    assert!(stats.reconciles(), "{stats:?}");
    assert_eq!(stats.failed, 1);
    assert_eq!(stats.shed_overload, 1);
}

/// The first pair query homed on `rank` whose `v` side is co-located with
/// its home (`local`) or owned by another rank (`!local`).
fn pair_on(pg: &PartitionedGraph, rank: usize, local: bool) -> Query {
    let part = &pg.partitions[rank];
    part.global_ids
        .iter()
        .enumerate()
        .find_map(|(idx, &u)| {
            let mut nbrs = part.neighbours_of_local(idx).iter();
            nbrs.find(|&&v| (pg.partitioner.owner(v) == rank) == local)
                .map(|&v| Query::Jaccard { u, v })
        })
        .expect("every rank of the partition has such an edge")
}

#[test]
fn one_batch_answers_every_drained_query_in_admission_order() {
    // One window mixing every outcome under an unrecoverable plan: an expired
    // deadline, co-located queries on both ranks (immune to get faults) and
    // remote ones (failing), admitted across ranks so the rank groups run in
    // a different order than admission. Each drained query gets exactly one
    // response, in admission order.
    let g = RmatGenerator::paper(7, 8).generate_cleaned(77).into_csr();
    let dist = DistConfig::non_cached(2)
        .with_faults(FaultPlan::unrecoverable(7))
        .with_retry(RetryPolicy::no_retries());
    let cfg = ServiceConfig::new(dist).with_batch_size(5);
    let mut engine = QueryEngine::new(&g, cfg).unwrap();
    let pg = engine.partitioned_graph();
    let (local0, local1) = (pair_on(pg, 0, true), pair_on(pg, 1, true));
    let (remote0, remote1) = (pair_on(pg, 0, false), pair_on(pg, 1, false));
    // A first window of failing reads advances the virtual clock while the
    // second one waits.
    for _ in 0..5 {
        engine.submit(remote0).unwrap();
    }
    let mut ids = vec![engine.submit(local1).unwrap()];
    ids.push(engine.submit_with_deadline(remote1, Some(0.0)).unwrap());
    ids.extend([remote0, local0, remote1].map(|q| engine.submit(q).unwrap()));
    assert!(engine.run_batch().iter().all(|r| r.result.is_err()));
    let batch = engine.run_batch();
    assert_eq!(batch.iter().map(|r| r.id).collect::<Vec<_>>(), ids);
    let outcome = |r: &QueryResponse| match &r.result {
        Ok(_) => "ok",
        Err(ServiceError::DeadlineExceeded { .. }) => "expired",
        Err(ServiceError::Read(_)) => "read",
        Err(e) => panic!("unexpected {e}"),
    };
    assert_eq!(
        batch.iter().map(outcome).collect::<Vec<_>>(),
        ["ok", "expired", "read", "ok", "read"]
    );
    let stats = engine.stats();
    assert!(stats.reconciles(), "{stats:?}");
    assert_eq!((stats.completed, stats.failed), (2, 8));
    assert_eq!(stats.queue_depth, 0);
}

#[test]
fn a_batch_reads_one_owners_close_offsets_pairs_in_one_get() {
    // Five remote rows on rank 1, all within the join distance of Aries
    // (gaps of up to 3 125 unread words pay for themselves): their offsets
    // pairs are one span, so the batch costs one offsets get plus one
    // adjacency get per non-empty row — not one offsets get per row.
    let g = RmatGenerator::paper(7, 8).generate_cleaned(77).into_csr();
    let mut engine = QueryEngine::new(&g, ServiceConfig::new(DistConfig::non_cached(2))).unwrap();
    let pg = engine.partitioned_graph();
    let part = &pg.partitions[0];
    let (u, adj_u) = (0..part.local_vertex_count())
        .map(|idx| (part.global_ids[idx], part.neighbours_of_local(idx)))
        .find(|(_, adj)| {
            adj.iter()
                .filter(|&&v| pg.partitioner.owner(v) == 1)
                .count()
                >= 5
        })
        .expect("a rank-0 vertex with five neighbours on rank 1");
    let remote: Vec<VertexId> = adj_u
        .iter()
        .copied()
        .filter(|&v| pg.partitioner.owner(v) == 1)
        .take(5)
        .collect();
    assert!(pg.partitions[1].local_vertex_count() <= 3_125);
    let non_empty = remote
        .iter()
        .filter(|&&v| {
            !pg.partitions[1]
                .neighbours_of_local(pg.partitioner.local_index(v))
                .is_empty()
        })
        .count() as u64;
    for &v in &remote {
        engine.submit(Query::CommonNeighbors { u, v }).unwrap();
    }
    let responses = engine.run_batch();
    assert_eq!(responses.len(), 5);
    assert!(responses.iter().all(|r| r.result.is_ok()));
    let stats = engine.stats();
    assert_eq!(stats.unique_row_reads, 5);
    assert_eq!(stats.rma.gets, 1 + non_empty, "{stats:?}");
}

#[test]
fn an_invalid_rank_count_is_a_typed_error() {
    let g = RmatGenerator::paper(5, 4).generate_cleaned(1).into_csr();
    let n = g.vertex_count();
    for ranks in [0, n + 1] {
        let cfg = ServiceConfig::new(DistConfig::non_cached(ranks));
        match QueryEngine::new(&g, cfg) {
            Err(GraphError::InvalidPartitionCount { parts, n: got }) => {
                assert_eq!((parts, got), (ranks, n));
            }
            Err(e) => panic!("{ranks} ranks: unexpected {e}"),
            Ok(_) => panic!("{ranks} ranks over {n} vertices must not build"),
        }
    }
}

// ---------------------------------------------------------------------------
// Soak: one resident engine under a long deterministic stream (the CI leg).
// ---------------------------------------------------------------------------

#[test]
fn resident_engine_soak() {
    let total: usize = std::env::var("RMATC_SOAK_QUERIES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1200);
    let g = RmatGenerator::paper(8, 8).generate_cleaned(5).into_csr();
    let ranks = 4;
    let (map, lcc) = baselines(&g, ranks);
    let dist =
        DistConfig::cached(ranks, (g.csr_size_bytes() as usize / 2).max(1024)).with_degree_scores();
    let cfg = ServiceConfig::new(dist)
        .with_batch_size(32)
        .with_queue_capacity(64);
    let mut engine = QueryEngine::new(&g, cfg).unwrap();
    let queries = fixed_query_mix(&g, total);
    let mut answered = 0usize;
    let mut mid_hits = 0u64;
    for chunk in queries.chunks(32) {
        for &q in chunk {
            engine.submit(q).expect("chunks stay within capacity");
        }
        for resp in engine.drain() {
            let got = resp.result.as_ref().expect("fault-free queries succeed");
            assert_eq!(got, &expected_answer(resp.query, &map, &lcc));
            answered += 1;
        }
        if answered >= total / 2 && mid_hits == 0 {
            mid_hits = engine.stats().adjacency_cache.as_ref().unwrap().hits;
        }
    }
    assert_eq!(answered, total);
    let stats = engine.stats();
    assert!(stats.reconciles(), "{stats:?}");
    assert_eq!(stats.completed, total as u64);
    assert_eq!(stats.queue_depth, 0);
    assert!(stats.dedup_ratio() >= 1.0);
    let cache = stats.adjacency_cache.as_ref().unwrap();
    assert_eq!(cache.hits + cache.misses, cache.lookups());
    assert!(
        cache.hits > mid_hits,
        "the resident cache keeps accruing hits through the stream"
    );
    // Percentile sanity in both timebases.
    for lat in [&stats.wall_latency, &stats.virtual_latency] {
        assert!(lat.p50_ns <= lat.p90_ns);
        assert!(lat.p90_ns <= lat.p99_ns);
        assert!(lat.p99_ns <= lat.max_ns);
    }
    assert!(stats.virtual_latency.max_ns > 0.0);
}
