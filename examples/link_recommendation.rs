//! Link recommendation ("people you may know") — the second application family the
//! paper's introduction cites for triangle counting and clustering coefficients.
//!
//! The idea: a missing edge `(u, w)` is a good recommendation when `u` and `w`
//! already share many common neighbours (each shared neighbour would close a new
//! triangle) and when the neighbourhood is cohesive (high LCC). This example uses
//! the library's intersection kernels — the same ones the LCC computation uses — to
//! score candidate links on a synthetic social graph and prints the top
//! recommendations for a few users.
//!
//! Run with: `cargo run --release --example link_recommendation`

use rmatc::prelude::*;
use rmatc_core::Intersector;

fn main() {
    let graph = BarabasiAlbert::with_closure(3_000, 8, 4)
        .generate_cleaned(11)
        .into_csr();
    println!(
        "Friendship graph: {} vertices, {} edges",
        graph.vertex_count(),
        graph.logical_edge_count()
    );

    // Per-vertex LCC gives the cohesion weight of each user's neighbourhood.
    let lcc = LocalLcc::new(LocalConfig::parallel(4)).run(&graph);
    let intersector = Intersector::new(IntersectMethod::Hybrid);

    // Pick the three highest-degree users as the ones asking for recommendations.
    let mut by_degree: Vec<u32> = (0..graph.vertex_count() as u32).collect();
    by_degree.sort_by_key(|&v| std::cmp::Reverse(graph.degree(v)));
    for &user in by_degree.iter().take(3) {
        let friends = graph.neighbours(user);
        // Candidates: friends-of-friends that are not already friends.
        let mut scores: std::collections::HashMap<u32, f64> = std::collections::HashMap::new();
        for &f in friends {
            for &fof in graph.neighbours(f) {
                if fof == user || graph.has_edge(user, fof) {
                    continue;
                }
                // Score: number of common neighbours (triangles the new edge would
                // close), weighted by the cohesion of the candidate's neighbourhood.
                let common = intersector.count(friends, graph.neighbours(fof)) as f64;
                let cohesion = 1.0 + lcc.lcc[fof as usize];
                scores.insert(fof, common * cohesion);
            }
        }
        let mut ranked: Vec<(u32, f64)> = scores.into_iter().collect();
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        println!(
            "\nUser {user} (degree {}, LCC {:.3}) — top recommendations:",
            graph.degree(user),
            lcc.lcc[user as usize]
        );
        for (candidate, score) in ranked.iter().take(5) {
            let common = intersector.count(friends, graph.neighbours(*candidate));
            println!(
                "  recommend vertex {candidate:>5}: {common} mutual friends, score {score:.1}"
            );
        }
        if let Some((best, _)) = ranked.first() {
            let common = intersector.count(friends, graph.neighbours(*best));
            assert!(
                common > 0,
                "a recommended link must close at least one triangle"
            );
        }
    }
    println!(
        "\nEvery recommended edge closes at least one triangle; the scores reuse the same \
         hybrid intersection rule (block merge or galloping per pair) as the \
         triangle-counting core."
    );
}
