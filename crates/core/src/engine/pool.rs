use fg_types::sync::{AtomicU64, AtomicUsize, Ordering};
use std::collections::VecDeque;

use super::sem_io::ReadyVertex;

/// The pipelined scheduler's cross-worker delivery pool and its
/// completion counters.
///
/// Resolved [`ReadyVertex`] deliveries land in the resolving worker's
/// deque, where the owner pops them LIFO (the spans are cache-warm)
/// and other workers steal them FIFO when their own device queue is
/// ahead of their CPU. The shared injector takes hand-offs: a stolen
/// delivery whose requester is busy on another worker goes there
/// instead of blocking the thief.
///
/// Two counters replace the compute-phase barrier. `obligations`
/// counts edge requests accepted into the I/O layer whose delivery —
/// including absorbing the follow-on requests the callback queues —
/// has not finished; it is incremented *before* a request is
/// enqueued and decremented *after* its delivery returns, so it can
/// only read zero when no work is hidden in flight. `claims_done`
/// counts workers that have exhausted claiming for the current
/// iteration (cursor exhaustion is permanent within an iteration, so
/// the count is monotonic). The iteration's compute is over exactly
/// when `claims_done == workers && obligations == 0`.
pub(super) struct ReadyPool {
    pub(super) injector: parking_lot::Mutex<VecDeque<ReadyVertex>>,
    pub(super) deques: Vec<parking_lot::Mutex<VecDeque<ReadyVertex>>>,
    pub(super) obligations: AtomicU64,
    pub(super) claims_done: AtomicUsize,
}

impl ReadyPool {
    pub(super) fn new(workers: usize) -> Self {
        ReadyPool {
            injector: parking_lot::Mutex::new(VecDeque::new()),
            deques: (0..workers)
                .map(|_| parking_lot::Mutex::new(VecDeque::new()))
                .collect(),
            obligations: AtomicU64::new(0),
            claims_done: AtomicUsize::new(0),
        }
    }

    /// Moves freshly resolved deliveries into worker `w`'s deque.
    pub(super) fn push_local(&self, w: usize, items: &mut Vec<ReadyVertex>) {
        self.deques[w].lock().extend(items.drain(..));
    }

    /// Hands a delivery whose requester is busy elsewhere to the
    /// injector, where any worker (including the busy one) picks it
    /// up once the conflict clears.
    pub(super) fn push_injector(&self, r: ReadyVertex) {
        self.injector.lock().push_back(r);
    }

    /// Next delivery for worker `w`: own deque (LIFO), then the
    /// injector, then stealing from the other workers (FIFO).
    pub(super) fn pop(&self, w: usize) -> Option<ReadyVertex> {
        if let Some(r) = self.deques[w].lock().pop_back() {
            return Some(r);
        }
        if let Some(r) = self.injector.lock().pop_front() {
            return Some(r);
        }
        let n = self.deques.len();
        for k in 1..n {
            if let Some(r) = self.deques[(w + k) % n].lock().pop_front() {
                return Some(r);
            }
        }
        None
    }

    /// Worker 0 rewinds the claim count between iterations (phase D,
    /// where every other worker is parked at the barrier).
    pub(super) fn begin_iteration(&self) {
        // ordering: Relaxed — worker 0 runs this in phase D while
        // every other worker is parked at the barrier, which is the
        // happens-before edge; there is no concurrent accessor.
        debug_assert_eq!(self.obligations.load(Ordering::Relaxed), 0);
        debug_assert!(self.injector.lock().is_empty());
        // ordering: Relaxed — same phase-D argument; the barrier
        // publishes the reset to the next iteration's claimants.
        self.claims_done.store(0, Ordering::Relaxed);
    }
}
