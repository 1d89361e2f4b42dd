//! The service workload: one resident `QueryEngine`, one client, closed loop —
//! submit a window of 64 queries, run the batch, check every answer, repeat.
//! The engine is synchronous, so there is no arrival schedule and no queueing
//! claim: the window time is the latency every query of the window sees.

use crate::batch::{merge_count, similarity_is_right};
use crate::host;
use crate::inputs::{Built, QueryMix, WINDOW};
use crate::trace::{SpanId, Trace};
use rmatc::prelude::*;
use std::time::Instant;

/// Every this-many-th pair answer is recomputed directly on the CSR.
const RECHECK_EVERY: u64 = 100;

/// Host and modeled cost of one repetition (a fixed number of windows).
pub struct Rep {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub modeled_s: f64,
    /// Wall time of each window, in seconds.
    pub windows_s: Vec<f64>,
}

/// The resident engine with its query stream and its running verdict.
pub struct Driver<'g> {
    pub engine: QueryEngine,
    g: &'g CsrGraph,
    mix: QueryMix<'g>,
    wrong_reference: bool,
    pair_answers: u64,
    pub attempted: u64,
    pub failed: u64,
}

impl<'g> Driver<'g> {
    pub fn new(engine: QueryEngine, built: &'g Built, seed: u64, wrong_reference: bool) -> Self {
        Self {
            engine,
            g: &built.g,
            mix: QueryMix::new(&built.g, seed),
            wrong_reference,
            pair_answers: 0,
            attempted: 0,
            failed: 0,
        }
    }

    /// The next window of the query stream.
    pub fn next_window(&mut self) -> Vec<Query> {
        self.mix.window()
    }

    /// Submits one window and runs the engine until it is answered; returns
    /// the window's wall and CPU time in seconds. Query generation happens
    /// before the clocks start and answer checking after they stop.
    pub fn window(&mut self, queries: &[Query], trace: &mut Trace, parent: SpanId) -> (f64, f64) {
        let span = trace.open("batch", Some(parent));
        let cpu = host::process_cpu_s();
        let start = Instant::now();
        let mut admitted = 0u64;
        for &query in queries {
            let submit = trace.open("service.submit", Some(span));
            admitted += u64::from(self.engine.submit(query).is_ok());
            trace.close(submit);
        }
        let mut responses = Vec::with_capacity(queries.len());
        while self.engine.queue_depth() > 0 {
            let run = trace.open("service.run_batch", Some(span));
            responses.extend(self.engine.run_batch());
            trace.close(run);
        }
        let wall_s = start.elapsed().as_secs_f64();
        let cpu_s = host::process_cpu_s() - cpu;
        trace.close(span);

        self.attempted += queries.len() as u64;
        // A shed or rejected query has no response; each one is a failure.
        self.failed += queries.len() as u64 - admitted;
        for response in &responses {
            if !self.answer_is_right(response) {
                self.failed += 1;
            }
        }
        (wall_s, cpu_s)
    }

    fn answer_is_right(&mut self, response: &QueryResponse) -> bool {
        let Ok(answer) = &response.result else {
            return false;
        };
        let recheck = |pairs: &mut u64| {
            *pairs += 1;
            (*pairs).is_multiple_of(RECHECK_EVERY)
        };
        match (response.query, answer) {
            (Query::CommonNeighbors { u, v }, QueryAnswer::CommonNeighbors(common)) => {
                !recheck(&mut self.pair_answers)
                    || *common
                        == merge_count(self.g.neighbours(u), self.g.neighbours(v))
                            + u64::from(self.wrong_reference)
            }
            (Query::Jaccard { u, v }, QueryAnswer::Jaccard(e)) => {
                (e.source, e.destination) == (u, v)
                    && (!recheck(&mut self.pair_answers)
                        || (similarity_is_right(self.g, e) && !self.wrong_reference))
            }
            (Query::TopK { k, .. }, QueryAnswer::TopK(top)) => top.len() <= k,
            (Query::LccOf { .. }, QueryAnswer::Lcc(score)) => (0.0..=1.0).contains(score),
            _ => false,
        }
    }

    /// `windows` windows, untimed and untraced, to warm the caches.
    pub fn warm_up(&mut self, windows: usize) {
        let mut off = Trace::new(false);
        for _ in 0..windows {
            let queries = self.next_window();
            self.window(&queries, &mut off, 0);
        }
    }

    /// One repetition: the next `windows` windows of the query stream.
    pub fn rep(&mut self, windows: usize, trace: &mut Trace, parent: SpanId) -> Rep {
        let batches: Vec<Vec<Query>> = (0..windows).map(|_| self.next_window()).collect();
        self.rep_of(&batches, trace, parent)
    }

    /// One repetition over the given windows.
    pub fn rep_of(&mut self, batches: &[Vec<Query>], trace: &mut Trace, parent: SpanId) -> Rep {
        let virtual_ns = self.engine.virtual_now_ns();
        let (windows_s, cpus_s): (Vec<f64>, Vec<f64>) = batches
            .iter()
            .map(|queries| self.window(queries, trace, parent))
            .unzip();
        Rep {
            wall_s: windows_s.iter().sum(),
            cpu_s: cpus_s.iter().sum(),
            modeled_s: (self.engine.virtual_now_ns() - virtual_ns) * 1e-9,
            windows_s,
        }
    }

    /// Whether the engine's admission accounting still balances and nothing
    /// was shed or failed inside it.
    pub fn engine_is_consistent(&self) -> bool {
        let stats = self.engine.stats();
        stats.reconciles()
            && stats.shed_overload == 0
            && stats.rejected_invalid == 0
            && stats.failed == 0
            && stats.queue_depth == 0
    }
}

/// Builds the resident engine over `built`'s partitioned graph.
pub fn engine(built: &Built) -> QueryEngine {
    QueryEngine::from_partitioned(built.pg.clone(), crate::inputs::service_config(&built.g))
}

/// Queries in one repetition of `windows` windows.
pub fn queries_in(windows: usize) -> u64 {
    (windows * WINDOW) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{build, Sizing, Workload};

    fn built() -> Built {
        let sizing = Sizing {
            service_scale: 9,
            ..Sizing::quick()
        };
        build(
            Workload::ServiceHubmix,
            11,
            &sizing,
            &mut Trace::new(false),
            0,
        )
    }

    #[test]
    fn a_repetition_answers_every_query_correctly_and_advances_both_clocks() {
        let built = built();
        let mut driver = Driver::new(engine(&built), &built, 11, false);
        driver.warm_up(2);
        let mut trace = Trace::new(true);
        let root = trace.open("workload", None);
        let rep = driver.rep(5, &mut trace, root);
        trace.close(root);
        assert_eq!(driver.attempted, queries_in(7));
        assert_eq!(driver.failed, 0);
        assert!(driver.engine_is_consistent());
        assert_eq!(rep.windows_s.len(), 5);
        assert!(rep.wall_s > 0.0 && rep.cpu_s > 0.0 && rep.modeled_s > 0.0);
        // workload + 5 × (batch + 64 submits + 1 run_batch).
        assert_eq!(trace.spans().len(), 1 + 5 * (1 + WINDOW + 1));
    }

    #[test]
    fn a_wrong_reference_fails_the_rechecked_answers() {
        let built = built();
        let mut driver = Driver::new(engine(&built), &built, 11, true);
        driver.warm_up(8);
        assert!(driver.failed > 0 && driver.failed < driver.attempted);
    }
}
