//! The resident query service: a long-lived [`QueryEngine`] serving
//! similarity point queries with warm CLaMPI caches, batched cache-deduped
//! reads, and explicit backpressure.
//!
//! The scenario: an online recommender keeps the co-occurrence graph
//! partitioned and its RMA windows open, answering "how similar are these two
//! items?" / "what are the best matches for this item?" queries as they
//! arrive. Batching lets the engine fetch each hub row once per window even
//! when many queries in the window need it, and the cache keeps hot rows
//! resident *across* windows — the serving workload the paper's eviction
//! scores were designed for.
//!
//! Run with: `cargo run --release --example service`

use rmatc::prelude::*;

fn main() {
    let graph = RmatGenerator::paper(10, 8).generate_cleaned(42).into_csr();
    println!(
        "Catalogue graph: {} items, {} edges",
        graph.vertex_count(),
        graph.logical_edge_count()
    );

    // A resident engine on 4 ranks with adjacency caches at half the CSR
    // footprint and the paper's degree eviction scores. Windows of up to 32
    // queries share fetched rows; at most 256 queries may wait.
    let ranks = 4;
    let dist = DistConfig::cached(ranks, graph.csr_size_bytes() as usize / 2).with_degree_scores();
    let config = ServiceConfig::new(dist)
        .with_batch_size(32)
        .with_queue_capacity(256);
    let mut engine = QueryEngine::new(&graph, config).expect("4 ranks partition the catalogue");

    // --- One batch window with overlapping reads -------------------------
    // Every query involves vertex 0 (an R-MAT hub), so the window's planner
    // fetches its row once and reuses it.
    let hub = 0u32;
    for v in 1..=8u32 {
        engine
            .submit(Query::Jaccard { u: hub, v })
            .expect("queue has room");
    }
    engine
        .submit(Query::TopK { u: hub, k: 3 })
        .expect("queue has room");
    engine
        .submit(Query::LccOf { v: hub })
        .expect("queue has room");

    println!(
        "\nFirst window ({} queries around hub {hub}):",
        engine.queue_depth()
    );
    for resp in engine.drain() {
        match resp.result {
            Ok(QueryAnswer::Jaccard(e)) => println!(
                "  Jaccard({},{})          = {:.3}  ({} shared neighbours)",
                e.source, e.destination, e.jaccard, e.common_neighbours
            ),
            Ok(QueryAnswer::TopK(best)) => {
                println!("  TopK({hub}, 3):");
                for e in best {
                    println!(
                        "    ({:>4}, {:>4})  Jaccard {:.3}",
                        e.source, e.destination, e.jaccard
                    );
                }
            }
            Ok(QueryAnswer::Lcc(lcc)) => println!("  Lcc({hub})                = {lcc:.4}"),
            Ok(QueryAnswer::CommonNeighbors(c)) => println!("  CommonNeighbors = {c}"),
            Err(e) => println!("  query {:?} failed: {e}", resp.query),
        }
    }
    let after_first = engine.stats();
    println!(
        "  planner: {} row reads collapsed into {} fetches (dedup ratio {:.2})",
        after_first.row_reads,
        after_first.unique_row_reads,
        after_first.dedup_ratio()
    );

    // --- A sustained stream: the cache compounds across windows ----------
    let n = graph.vertex_count() as u32;
    let mut submitted = 0u64;
    for round in 0..40u32 {
        for i in 0..32u32 {
            let u = (round * 7 + i) % 64; // hot set: the low-id R-MAT hubs
            let q = match i % 3 {
                0 => Query::Jaccard { u, v: (u + 1) % n },
                1 => Query::CommonNeighbors { u, v: (u + 3) % n },
                _ => Query::LccOf { v: u },
            };
            if engine.submit(q).is_ok() {
                submitted += 1;
            }
            engine.run_batch();
        }
    }
    engine.drain();

    let stats = engine.stats();
    assert!(stats.reconciles(), "admission accounting must balance");
    println!("\nAfter {submitted} streamed queries:");
    println!(
        "  dedup ratio {:.2}, adjacency cache hit rate {:.1}%",
        stats.dedup_ratio(),
        stats.cache_hit_rate().unwrap_or(0.0) * 100.0
    );
    println!(
        "  virtual latency p50 {:.0} ns, p99 {:.0} ns (modeled network + measured compute)",
        stats.virtual_latency.p50_ns, stats.virtual_latency.p99_ns
    );
    println!(
        "  completed {} / failed {} / shed {}",
        stats.completed, stats.failed, stats.shed_overload
    );

    // --- Backpressure is explicit, never blocking ------------------------
    let tiny = ServiceConfig::new(
        DistConfig::cached(ranks, graph.csr_size_bytes() as usize / 2).with_degree_scores(),
    )
    .with_queue_capacity(2)
    .with_batch_size(1);
    let mut small = QueryEngine::new(&graph, tiny).expect("4 ranks partition the catalogue");
    small.submit(Query::LccOf { v: 1 }).unwrap();
    small.submit(Query::LccOf { v: 2 }).unwrap();
    match small.submit(Query::LccOf { v: 3 }) {
        Err(ServiceError::Overloaded {
            queue_depth,
            capacity,
        }) => println!(
            "\nOverload demo: third submit shed synchronously at depth {queue_depth}/{capacity} \
             — callers always learn their fate immediately."
        ),
        other => unreachable!("expected Overloaded, got {other:?}"),
    }
    // A deadline of 0 virtual ns queued behind other work expires instead of
    // running late: the query ahead of it advances the engine's virtual
    // clock, so by the time its window starts it has already waited too long.
    small.run_batch(); // frees a slot and advances the clock
    let id = small
        .submit_with_deadline(Query::LccOf { v: 3 }, Some(0.0))
        .expect("room after the first batch");
    let late = small
        .drain()
        .into_iter()
        .find(|r| r.id == id)
        .expect("expired queries still respond");
    match late.result {
        Err(ServiceError::DeadlineExceeded { .. }) => {
            println!("Deadline demo: the 0 ns-deadline query expired cleanly in its response.")
        }
        other => unreachable!("expected DeadlineExceeded, got {other:?}"),
    }
}
