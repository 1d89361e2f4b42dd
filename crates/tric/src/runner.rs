//! The TriC algorithm: per-vertex neighbour-pair queries answered through
//! bulk-synchronous all-to-all rounds.
//!
//! The ranks run in lockstep on the calling thread. In Valiant's BSP model a
//! superstep's effects exist only at its closing barrier, so each phase
//! (generate, fill the round's buffers, answer, accumulate) runs for every
//! rank in rank order, and each blocking all-to-all is a transpose of the
//! ranks' outgoing buffers. No rank waits on another: the waiting a real
//! run pays at the collectives is modeled from the phases' measured compute
//! times.

use crate::config::TricConfig;
use crate::report::{TricRankReport, TricResult};
use rmatc_core::lcc;
use rmatc_graph::partition::{PartitionedGraph, RankPartition};
use rmatc_graph::types::{Direction, VertexId};
use rmatc_graph::CsrGraph;
use rmatc_rma::{FaultInjector, NetworkModel, ThreadTimer};

/// An edge-existence query: "does the edge `(j, k)` exist?", tagged with the local
/// index of the origin vertex whose LCC numerator the answer contributes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Query {
    j: VertexId,
    k: VertexId,
    origin_local: u32,
}

/// TriC runner.
#[derive(Debug, Clone)]
pub struct Tric {
    config: TricConfig,
}

impl Tric {
    /// Creates a runner with the given configuration.
    pub fn new(config: TricConfig) -> Self {
        Self { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &TricConfig {
        &self.config
    }

    /// Partitions `g` and runs TriC.
    pub fn run(&self, g: &CsrGraph) -> TricResult {
        let pg = PartitionedGraph::from_global(g, self.config.scheme, self.config.ranks)
            .expect("invalid rank count for this graph");
        self.run_partitioned(&pg)
    }

    /// Runs TriC on an already partitioned graph, every rank in lockstep on
    /// the calling thread.
    pub fn run_partitioned(&self, pg: &PartitionedGraph) -> TricResult {
        let cfg = &self.config;
        let mut ranks: Vec<RankState<'_>> = (0..cfg.ranks)
            .map(|rank| RankState::new(rank, pg, cfg))
            .collect();

        // --- Superstep 0: local counting and query generation ----------------
        for state in &mut ranks {
            state.timed(|s| s.generate(pg));
        }
        // Every rank must take part in the same number of collective rounds:
        // the round count is agreed on in an (empty) alignment exchange, which
        // every rank pays for like any other — exactly the extra
        // synchronization a bulk-synchronous design pays.
        let agreed_rounds = ranks
            .iter()
            .map(|s| s.rounds_needed(cfg.buffer_entries))
            .max()
            .unwrap_or(0);
        let empty: Vec<Vec<Vec<[u32; 3]>>> = vec![vec![Vec::new(); cfg.ranks]; cfg.ranks];
        exchange(&mut ranks, empty, &cfg.network);

        // --- Bulk-synchronous query/response rounds ---------------------------
        for _ in 0..agreed_rounds {
            let queries = ranks
                .iter_mut()
                .map(|s| s.timed(|s| s.fill_round(cfg.buffer_entries)))
                .collect();
            let incoming = exchange(&mut ranks, queries, &cfg.network);
            let responses = ranks
                .iter_mut()
                .zip(incoming)
                .map(|(s, queries)| s.timed(|s| s.answer(pg, queries)))
                .collect();
            let incoming = exchange(&mut ranks, responses, &cfg.network);
            for (state, responses) in ranks.iter_mut().zip(incoming) {
                state.timed(|s| s.accumulate(responses));
            }
        }
        assemble(pg, ranks)
    }
}

/// One rank of a lockstep run: its partition, its per-vertex counts, its
/// outgoing query queues and the counters of its report.
struct RankState<'g> {
    part: &'g RankPartition,
    local_triangles: Vec<u64>,
    /// Queries per destination rank, generated once, sent in rounds.
    pending: Vec<Vec<Query>>,
    /// Per destination, how many of its queries earlier rounds sent.
    cursors: Vec<usize>,
    /// TriC's blocking collectives are reliable-completion, so of the fault
    /// classes only straggler delays apply: a delayed exchange multiplies
    /// this rank's modeled collective cost. Decisions are drawn per rank from
    /// the plan's seed, one per exchange.
    injector: Option<FaultInjector>,
    /// Compute of each closed superstep: the phases between two consecutive
    /// collectives, one entry per exchange.
    supersteps: Vec<f64>,
    /// Compute of the superstep still open.
    open_superstep_ns: f64,
    report: TricRankReport,
}

impl<'g> RankState<'g> {
    fn new(rank: usize, pg: &'g PartitionedGraph, cfg: &TricConfig) -> Self {
        let part = &pg.partitions[rank];
        Self {
            part,
            local_triangles: vec![0; part.local_vertex_count()],
            pending: vec![Vec::new(); cfg.ranks],
            cursors: vec![0; cfg.ranks],
            injector: cfg.faults.map(|plan| plan.injector(rank)),
            supersteps: Vec::new(),
            open_superstep_ns: 0.0,
            report: TricRankReport {
                rank,
                local_vertices: part.local_vertex_count(),
                queries_sent: 0,
                queries_answered: 0,
                responses_received: 0,
                bytes_sent: 0,
                rounds: 0,
                peak_buffered_queries: 0,
                compute_ns: 0.0,
                comm_ns: 0.0,
                delayed_exchanges: 0,
                // Filled in by `assemble`.
                sync_ns: 0.0,
            },
        }
    }

    /// Runs one phase of this rank and adds its thread CPU time to the
    /// rank's compute: time the host gives to other processes is not the
    /// rank's work.
    fn timed<R>(&mut self, phase: impl FnOnce(&mut Self) -> R) -> R {
        let timer = ThreadTimer::start();
        let out = phase(self);
        let ns = timer.elapsed_ns() as f64;
        self.report.compute_ns += ns;
        self.open_superstep_ns += ns;
        out
    }

    /// Counts the closed triplets this rank can check itself and queues a
    /// query to `j`'s owner for every other neighbour pair `(j, k)`.
    fn generate(&mut self, pg: &PartitionedGraph) {
        let rank = self.report.rank;
        let part = self.part;
        for (local_idx, triangles_slot) in self.local_triangles.iter_mut().enumerate() {
            let adj = part.neighbours_of_local(local_idx);
            for (a_pos, &j) in adj.iter().enumerate() {
                let partners: &[VertexId] = match pg.direction {
                    // Undirected: each unordered neighbour pair {j, k} once (k > j).
                    Direction::Undirected => &adj[a_pos + 1..],
                    // Directed: ordered pairs (j, k), j ≠ k (Eq. 1 numerator).
                    Direction::Directed => adj,
                };
                let owner_j = pg.partitioner.owner(j);
                for &k in partners {
                    if pg.direction == Direction::Directed && k == j {
                        continue;
                    }
                    if owner_j == rank {
                        // The edge (j, k) can be checked locally.
                        let j_local = pg.partitioner.local_index(j);
                        if part.neighbours_of_local(j_local).binary_search(&k).is_ok() {
                            *triangles_slot += 1;
                        }
                    } else {
                        self.pending[owner_j].push(Query {
                            j,
                            k,
                            origin_local: local_idx as u32,
                        });
                    }
                }
            }
        }
        let total_pending: u64 = self.pending.iter().map(|q| q.len() as u64).sum();
        self.report.queries_sent = total_pending;
        self.report.peak_buffered_queries = total_pending;
    }

    /// Rounds this rank's own queues need under the per-destination cap.
    fn rounds_needed(&self, buffer_entries: Option<usize>) -> u64 {
        match buffer_entries {
            None => u64::from(self.report.queries_sent > 0),
            Some(cap) => self
                .pending
                .iter()
                .map(|q| q.len().div_ceil(cap) as u64)
                .max()
                .unwrap_or(0),
        }
    }

    /// This round's (possibly capped) per-destination query buffers.
    fn fill_round(&mut self, buffer_entries: Option<usize>) -> Vec<Vec<[u32; 3]>> {
        self.report.rounds += 1;
        let mut outgoing = Vec::with_capacity(self.pending.len());
        for (queue, cursor) in self.pending.iter().zip(&mut self.cursors) {
            let start = *cursor;
            let end = match buffer_entries {
                Some(cap) => (start + cap).min(queue.len()),
                None => queue.len(),
            };
            *cursor = end;
            let msgs: Vec<[u32; 3]> = queue[start..end]
                .iter()
                .map(|q| [q.j, q.k, q.origin_local])
                .collect();
            self.report.bytes_sent += (msgs.len() * 12) as u64;
            outgoing.push(msgs);
        }
        outgoing
    }

    /// Answers the queries addressed to this rank: one origin index back to
    /// each sender per edge that exists.
    fn answer(&mut self, pg: &PartitionedGraph, incoming: Vec<Vec<[u32; 3]>>) -> Vec<Vec<u32>> {
        let mut responses: Vec<Vec<u32>> = vec![Vec::new(); incoming.len()];
        for (queries, response) in incoming.iter().zip(&mut responses) {
            for &[j, k, origin_local] in queries {
                self.report.queries_answered += 1;
                debug_assert_eq!(pg.partitioner.owner(j), self.report.rank);
                let j_local = pg.partitioner.local_index(j);
                if self
                    .part
                    .neighbours_of_local(j_local)
                    .binary_search(&k)
                    .is_ok()
                {
                    response.push(origin_local);
                }
            }
        }
        for resp in &responses {
            self.report.bytes_sent += (resp.len() * 4) as u64;
        }
        responses
    }

    /// Adds the positive answers to the per-vertex counts.
    fn accumulate(&mut self, incoming: Vec<Vec<u32>>) {
        for origin_local in incoming.into_iter().flatten() {
            self.report.responses_received += 1;
            self.local_triangles[origin_local as usize] += 1;
        }
    }

    /// Closes this rank's superstep at an exchange and charges the
    /// exchange's modeled cost, stretched when the injector draws a
    /// straggler delay for it.
    fn charge(&mut self, cost: f64) {
        self.supersteps
            .push(std::mem::take(&mut self.open_superstep_ns));
        match self
            .injector
            .as_mut()
            .and_then(|inj| inj.completion_delay())
        {
            Some(factor) if cost > 0.0 => {
                self.report.comm_ns += cost * factor;
                self.report.delayed_exchanges += 1;
            }
            _ => self.report.comm_ns += cost,
        }
    }
}

/// One blocking all-to-all over every rank: `outgoing[src][dest]` becomes
/// `incoming[dest][src]`, and each sender's cost is returned beside it, as
/// an `MPI_Alltoallv` would charge it: `α + β·s` per non-empty message to
/// another rank (self-messages are free), then the barrier cost twice — once
/// for the collective's implicit synchronization and once for the
/// synchronization that keeps the next round's posting behind this round's
/// draining.
fn alltoall<T>(outgoing: Vec<Vec<Vec<T>>>, network: &NetworkModel) -> (Vec<Vec<Vec<T>>>, Vec<f64>) {
    let ranks = outgoing.len();
    let barrier = network.barrier_cost_ns(ranks);
    let mut incoming: Vec<Vec<Vec<T>>> = (0..ranks).map(|_| Vec::with_capacity(ranks)).collect();
    let mut costs = Vec::with_capacity(ranks);
    for (src, row) in outgoing.into_iter().enumerate() {
        assert_eq!(row.len(), ranks, "one outgoing vector per destination");
        let mut cost = 0.0;
        for (dest, payload) in row.into_iter().enumerate() {
            if dest != src && !payload.is_empty() {
                cost += network.remote_cost_ns(payload.len() * std::mem::size_of::<T>());
            }
            incoming[dest].push(payload);
        }
        cost += barrier;
        cost += barrier;
        costs.push(cost);
    }
    (incoming, costs)
}

/// [`alltoall`] with each rank charged for its part.
fn exchange<T>(
    ranks: &mut [RankState<'_>],
    outgoing: Vec<Vec<Vec<T>>>,
    network: &NetworkModel,
) -> Vec<Vec<Vec<T>>> {
    let (incoming, costs) = alltoall(outgoing, network);
    for (state, cost) in ranks.iter_mut().zip(costs) {
        state.charge(cost);
    }
    incoming
}

/// The time each rank waits at the blocking collectives, ns. Every rank
/// leaves a collective only when the slowest rank arrives, so in each
/// superstep a rank waits for the gap between the slowest rank's compute and
/// its own; the waits add up over the supersteps. `supersteps[rank][s]` is
/// the rank's compute in superstep `s`; compute after the last collective
/// meets no barrier and is not listed.
fn barrier_waits(supersteps: &[&[f64]]) -> Vec<f64> {
    let steps = supersteps.first().map_or(0, |own| own.len());
    let slowest: Vec<f64> = (0..steps)
        .map(|s| supersteps.iter().map(|own| own[s]).fold(0.0, f64::max))
        .collect();
    supersteps
        .iter()
        .map(|own| own.iter().zip(&slowest).map(|(c, max)| max - c).sum())
        .collect()
}

fn assemble(pg: &PartitionedGraph, states: Vec<RankState<'_>>) -> TricResult {
    let lcc::VertexCounts {
        per_vertex_triangles,
        lcc,
        triangle_count,
    } = lcc::VertexCounts::gather(pg, states.iter().map(|s| s.local_triangles.as_slice()));
    let supersteps: Vec<&[f64]> = states.iter().map(|s| s.supersteps.as_slice()).collect();
    let waits = barrier_waits(&supersteps);
    let ranks = states
        .into_iter()
        .zip(waits)
        .map(|(s, sync_ns)| TricRankReport {
            sync_ns,
            ..s.report
        })
        .collect();
    TricResult {
        lcc,
        per_vertex_triangles,
        triangle_count,
        rank_count: pg.ranks(),
        ranks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmatc_graph::datasets::{Dataset, DatasetScale};
    use rmatc_graph::gen::{GraphGenerator, RmatGenerator};
    use rmatc_graph::partition::PartitionScheme;
    use rmatc_graph::reference;

    fn small_graph() -> CsrGraph {
        RmatGenerator::paper(8, 8).generate_cleaned(9).into_csr()
    }

    #[test]
    fn tric_matches_reference_counts() {
        let g = small_graph();
        let expected = reference::lcc_scores(&g);
        for ranks in [1, 2, 4] {
            let result = Tric::new(TricConfig::plain(ranks)).run(&g);
            assert_eq!(
                result.triangle_count,
                reference::count_triangles(&g),
                "p = {ranks}"
            );
            for (v, (a, b)) in result.lcc.iter().zip(expected.iter()).enumerate() {
                assert!((a - b).abs() < 1e-12, "vertex {v} at p = {ranks}");
            }
        }
    }

    #[test]
    fn buffered_variant_matches_plain_and_uses_more_rounds() {
        let g = small_graph();
        let plain = Tric::new(TricConfig::plain(4)).run(&g);
        let buffered = Tric::new(TricConfig::buffered_with(4, 64)).run(&g);
        assert_eq!(plain.triangle_count, buffered.triangle_count);
        assert_eq!(plain.lcc, buffered.lcc);
        assert!(
            buffered.rounds() > plain.rounds(),
            "a small buffer must force multiple exchange rounds ({} vs {})",
            buffered.rounds(),
            plain.rounds()
        );
    }

    #[test]
    fn block_partitioning_also_works() {
        let g = small_graph();
        let mut cfg = TricConfig::plain(4);
        cfg.scheme = PartitionScheme::Block1D;
        let result = Tric::new(cfg).run(&g);
        assert_eq!(result.triangle_count, reference::count_triangles(&g));
    }

    #[test]
    fn directed_graphs_match_reference() {
        let g = Dataset::LiveJournal1.generate(DatasetScale::Tiny, 5);
        let expected = reference::lcc_scores(&g);
        let result = Tric::new(TricConfig::plain(2)).run(&g);
        for (a, b) in result.lcc.iter().zip(expected.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn reports_reflect_query_traffic() {
        let g = small_graph();
        let result = Tric::new(TricConfig::plain(4)).run(&g);
        assert!(result.total_queries() > 0);
        assert!(result.total_bytes() > 0);
        assert!(result.max_rank_time_ns() > 0.0);
        let answered: u64 = result.ranks.iter().map(|r| r.queries_answered).sum();
        assert_eq!(
            answered,
            result.total_queries(),
            "every query must be answered"
        );
    }

    #[test]
    fn single_rank_sends_no_queries() {
        let g = small_graph();
        let result = Tric::new(TricConfig::plain(1)).run(&g);
        assert_eq!(result.total_queries(), 0);
        assert_eq!(result.triangle_count, reference::count_triangles(&g));
    }

    #[test]
    fn straggler_faults_stretch_time_but_never_change_counts() {
        let g = small_graph();
        let clean = Tric::new(TricConfig::plain(4)).run(&g);
        let plan = rmatc_rma::FaultPlan::heavy(31);
        let faulted = Tric::new(TricConfig::plain(4).with_faults(plan)).run(&g);
        assert_eq!(clean.triangle_count, faulted.triangle_count);
        assert_eq!(clean.lcc, faulted.lcc);
        assert!(
            faulted.total_delayed_exchanges() > 0,
            "the heavy plan must delay some exchanges"
        );
        assert_eq!(clean.total_delayed_exchanges(), 0);
        let comm = |r: &TricResult| r.ranks.iter().map(|x| x.comm_ns).sum::<f64>();
        assert!(
            comm(&faulted) > comm(&clean),
            "delays must show up in the modeled communication time"
        );
    }

    #[test]
    fn query_volume_exceeds_async_get_volume_on_skewed_graphs() {
        // The reason TriC struggles on scale-free graphs: it enumerates neighbour
        // pairs (quadratic in hub degree), while the asynchronous algorithm reads
        // each remote adjacency list linearly.
        let g = Dataset::Orkut.generate(DatasetScale::Tiny, 2);
        let tric = Tric::new(TricConfig::plain(4)).run(&g);
        let asynchronous = rmatc_core::DistLcc::new(rmatc_core::DistConfig::non_cached(4)).run(&g);
        assert!(
            tric.total_queries() > asynchronous.total_gets(),
            "TriC queries ({}) should exceed async gets ({})",
            tric.total_queries(),
            asynchronous.total_gets()
        );
    }

    #[test]
    fn each_superstep_waits_for_its_own_slowest_rank() {
        // Rank 0 is slow in the second superstep, rank 1 in the first: each
        // waits 2 ns, although both compute 4 ns in total.
        let waits = barrier_waits(&[&[1.0, 3.0], &[3.0, 1.0]]);
        assert_eq!(waits, vec![2.0, 2.0]);
        assert_eq!(barrier_waits(&[&[], &[]]), vec![0.0, 0.0]);
        assert_eq!(barrier_waits(&[&[5.0, 1.0]]), vec![0.0]);
    }

    #[test]
    fn alltoall_delivers_every_message_to_its_destination() {
        let ranks = 4;
        // Rank r sends the value 100*r + dest to every destination.
        let outgoing: Vec<Vec<Vec<u64>>> = (0..ranks)
            .map(|r| (0..ranks).map(|d| vec![(100 * r + d) as u64]).collect())
            .collect();
        let (incoming, _) = alltoall(outgoing, &NetworkModel::zero());
        for (dest, inbox) in incoming.iter().enumerate() {
            for (src, msgs) in inbox.iter().enumerate() {
                assert_eq!(
                    msgs,
                    &vec![(100 * src + dest) as u64],
                    "src {src} -> dest {dest}"
                );
            }
        }
    }

    #[test]
    fn empty_messages_cost_nothing_but_barrier() {
        let ranks = 2;
        let net = NetworkModel::aries();
        let outgoing: Vec<Vec<Vec<u8>>> = vec![vec![Vec::new(); ranks]; ranks];
        let (_, costs) = alltoall(outgoing, &net);
        let barrier_only = 2.0 * net.barrier_cost_ns(ranks);
        assert_eq!(costs.len(), ranks);
        for c in costs {
            assert!((c - barrier_only).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "one outgoing vector per destination")]
    fn wrong_destination_count_panics() {
        let outgoing: Vec<Vec<Vec<u8>>> = vec![vec![Vec::new()], vec![Vec::new(); 2]];
        alltoall(outgoing, &NetworkModel::zero());
    }

    #[test]
    fn message_costs_follow_the_network_model() {
        let ranks = 2;
        let net = NetworkModel::aries();
        // Each rank sends 100 words to the other rank and 100 to itself,
        // which is free.
        let outgoing: Vec<Vec<Vec<u64>>> = vec![vec![vec![0u64; 100]; ranks]; ranks];
        let (_, costs) = alltoall(outgoing, &net);
        let expected = net.remote_cost_ns(800) + 2.0 * net.barrier_cost_ns(ranks);
        for c in costs {
            assert!((c - expected).abs() < 1e-6);
        }
    }
}
