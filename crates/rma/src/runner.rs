//! Rank spawning.
//!
//! [`run_ranks`] plays the role of `mpirun`: it launches one worker thread per
//! rank and collects their results. It offers no synchronization between the
//! ranks: the asynchronous algorithm of the paper never synchronizes during
//! computation, and the bulk-synchronous TriC baseline runs its ranks in
//! lockstep on one thread instead.
//!
//! It is panic-safe: every rank thread is joined, and a panic is re-raised
//! with its rank id only then — the *lowest* panicking rank's, so the report
//! does not depend on which thread panicked first.

/// Spawns `ranks` worker threads, runs `body(rank)` on each, and returns the results
/// indexed by rank.
///
/// If any rank panics, every thread is still joined, and then the panic of the
/// lowest panicking rank is re-raised as `"rank {rank} panicked: {message}"` —
/// in rank order, as the fallible runners surface the lowest failing rank's
/// error.
pub fn run_ranks<R, F>(ranks: usize, body: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    assert!(ranks > 0, "need at least one rank");
    if ranks == 1 {
        return vec![body(0)];
    }
    let outcomes: Vec<std::thread::Result<R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..ranks)
            .map(|rank| {
                let body = &body;
                scope.spawn(move || body(rank))
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    outcomes
        .into_iter()
        .enumerate()
        .map(|(rank, outcome)| {
            outcome.unwrap_or_else(|payload| {
                panic!(
                    "rank {rank} panicked: {}",
                    payload_message(payload.as_ref())
                )
            })
        })
        .collect()
}

fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Barrier;

    #[test]
    fn run_ranks_returns_results_in_rank_order() {
        let results = run_ranks(8, |rank| rank * 10);
        assert_eq!(results, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn run_ranks_single_rank_runs_inline() {
        assert_eq!(run_ranks(1, |r| r + 100), vec![100]);
    }

    #[test]
    fn run_ranks_actually_runs_concurrently() {
        // All ranks must be alive at the same time for a barrier to pass.
        let barrier = Barrier::new(4);
        let counter = AtomicUsize::new(0);
        run_ranks(4, |_| {
            counter.fetch_add(1, Ordering::SeqCst);
            barrier.wait();
            assert_eq!(counter.load(Ordering::SeqCst), 4);
        });
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_is_an_error() {
        run_ranks(0, |_| ());
    }

    #[test]
    #[should_panic(expected = "rank 1 panicked: boom")]
    fn panics_are_propagated_with_the_rank_id() {
        run_ranks(2, |rank| {
            if rank == 1 {
                panic!("boom");
            }
        });
    }

    #[test]
    fn the_lowest_panicking_rank_is_reported() {
        // Rank 3 panics first in time; rank 1 only once rank 3 is about to.
        // The report names rank 1 whatever the order.
        let rank3_failing = AtomicBool::new(false);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_ranks(4, |rank| match rank {
                3 => {
                    rank3_failing.store(true, Ordering::SeqCst);
                    panic!("rank 3's failure");
                }
                1 => {
                    while !rank3_failing.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                    std::thread::sleep(std::time::Duration::from_millis(10));
                    panic!("rank 1's failure");
                }
                _ => {}
            });
        }))
        .expect_err("the run must panic");
        let message = payload_message(caught.as_ref());
        assert!(
            message.contains("rank 1 panicked: rank 1's failure"),
            "unexpected panic report: {message}"
        );
    }
}
