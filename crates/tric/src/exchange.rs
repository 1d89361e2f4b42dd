//! Bulk-synchronous all-to-all exchange substrate used by TriC.
//!
//! Each rank posts per-destination vectors into a shared mailbox matrix and then
//! waits at a barrier, which is exactly the synchronization pattern of a blocking
//! `MPI_Alltoallv`. The modeled cost charged to a rank for one exchange is
//! `Σ_dest (α + β·bytes_sent_to_dest)` plus the barrier cost; the real time spent
//! waiting at the barrier (load imbalance) is measured separately by the caller.

use rmatc_rma::{NetworkModel, SimBarrier};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// A mailbox matrix: `boxes[dest][src]` holds what `src` sent to `dest` in the
/// current exchange round.
#[derive(Debug)]
pub struct Mailboxes<T> {
    boxes: Vec<Vec<Mutex<Vec<T>>>>,
    barrier: SimBarrier,
    network: NetworkModel,
}

impl<T: Send> Mailboxes<T> {
    /// Creates mailboxes for `ranks` ranks.
    pub fn new(ranks: usize, network: NetworkModel) -> Self {
        let boxes = (0..ranks)
            .map(|_| (0..ranks).map(|_| Mutex::new(Vec::new())).collect())
            .collect();
        Self {
            boxes,
            barrier: SimBarrier::new(ranks, network),
            network,
        }
    }

    /// Number of ranks.
    pub fn ranks(&self) -> usize {
        self.boxes.len()
    }

    /// One all-to-all exchange round from the perspective of rank `src`:
    /// `outgoing[dest]` is delivered to `dest`'s mailbox, the call blocks until every
    /// rank has posted (the collective's implicit synchronization), and the messages
    /// addressed to `src` are returned together with the modeled communication cost
    /// in nanoseconds (message costs + barrier cost).
    pub fn alltoall(&self, src: usize, outgoing: Vec<Vec<T>>) -> (Vec<Vec<T>>, f64) {
        assert_eq!(
            outgoing.len(),
            self.ranks(),
            "one outgoing vector per destination"
        );
        let mut cost = 0.0;
        for (dest, payload) in outgoing.into_iter().enumerate() {
            if payload.is_empty() {
                continue;
            }
            if dest != src {
                // Self-messages are free in alltoallv; remote ones pay α + β·s.
                let bytes = payload.len() * std::mem::size_of::<T>();
                cost += self.network.remote_cost_ns(bytes);
            }
            *lock(&self.boxes[dest][src]) = payload;
        }
        // The blocking collective: no rank proceeds before every rank has posted.
        cost += self.barrier.wait();
        // Drain this rank's inbox.
        let mut incoming = Vec::with_capacity(self.ranks());
        for s in 0..self.ranks() {
            incoming.push(std::mem::take(&mut *lock(&self.boxes[src][s])));
        }
        // A second barrier guarantees that nobody starts the next round's posting
        // while a slower rank is still draining this round's inbox.
        cost += self.barrier.wait();
        (incoming, cost)
    }
}

/// Locks one mailbox. Each critical section is a single assignment or take,
/// so a rank that panicked while holding the lock left a whole vector behind:
/// a poisoned lock is taken as it stands.
fn lock<T>(mailbox: &Mutex<T>) -> MutexGuard<'_, T> {
    mailbox.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmatc_rma::run_ranks;

    #[test]
    fn alltoall_delivers_every_message_to_its_destination() {
        let ranks = 4;
        let mail: Mailboxes<u64> = Mailboxes::new(ranks, NetworkModel::zero());
        let results = run_ranks(ranks, |r| {
            // Rank r sends the value 100*r + dest to every destination.
            let outgoing: Vec<Vec<u64>> = (0..ranks).map(|d| vec![(100 * r + d) as u64]).collect();
            let (incoming, _) = mail.alltoall(r, outgoing);
            incoming
        });
        for (dest, inbox) in results.iter().enumerate() {
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
        let mail: Mailboxes<u8> = Mailboxes::new(ranks, net);
        let costs = run_ranks(ranks, |r| {
            let outgoing = vec![Vec::new(), Vec::new()];
            let (_, cost) = mail.alltoall(r, outgoing);
            cost
        });
        let barrier_only = 2.0 * net.barrier_cost_ns(ranks);
        for c in costs {
            assert!((c - barrier_only).abs() < 1e-9);
        }
    }

    #[test]
    fn repeated_rounds_do_not_leak_messages_between_rounds() {
        let ranks = 2;
        let mail: Mailboxes<u32> = Mailboxes::new(ranks, NetworkModel::zero());
        let results = run_ranks(ranks, |r| {
            let mut seen = Vec::new();
            for round in 0..3u32 {
                let outgoing: Vec<Vec<u32>> = (0..ranks)
                    .map(|d| {
                        if d != r {
                            vec![round * 10 + r as u32]
                        } else {
                            Vec::new()
                        }
                    })
                    .collect();
                let (incoming, _) = mail.alltoall(r, outgoing);
                seen.push(incoming.into_iter().flatten().collect::<Vec<_>>());
            }
            seen
        });
        for (r, rounds) in results.iter().enumerate() {
            let other = 1 - r;
            for (round, msgs) in rounds.iter().enumerate() {
                assert_eq!(msgs, &vec![round as u32 * 10 + other as u32]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "one outgoing vector per destination")]
    fn wrong_destination_count_panics() {
        let mail: Mailboxes<u8> = Mailboxes::new(2, NetworkModel::zero());
        mail.alltoall(0, vec![Vec::new()]);
    }

    #[test]
    fn message_costs_follow_the_network_model() {
        let ranks = 2;
        let net = NetworkModel::aries();
        let mail: Mailboxes<u64> = Mailboxes::new(ranks, net);
        let costs = run_ranks(ranks, |r| {
            let outgoing: Vec<Vec<u64>> = (0..ranks)
                .map(|d| if d != r { vec![0u64; 100] } else { Vec::new() })
                .collect();
            let (_, cost) = mail.alltoall(r, outgoing);
            cost
        });
        let expected = net.remote_cost_ns(800) + 2.0 * net.barrier_cost_ns(ranks);
        for c in costs {
            assert!((c - expected).abs() < 1e-6);
        }
    }
}
