//! The ready pool: where a resolved delivery waits for a CPU, and the
//! one owner of the quiesce protocol that ends an iteration's compute
//! without a barrier (see [`ReadyPool`]). The two counters are
//! private; `accept` / `release` / `announce_claims_done` /
//! `quiesced` / `begin_iteration` are the whole protocol, each
//! ordering stated beside its access. The referee reads this file, not
//! a copy of it: `fg_check` compiles it against its instrumented
//! `sync` (which is why every primitive below is `super::sync::…` and
//! nothing else) and its `quiesce` and `ready_pool` harnesses explore
//! these functions as shipped. Priced, with `claim.rs`, by the
//! ledger's `engine.noop_ns_per_vertex`.

use super::sync::{AtomicU64, AtomicUsize, Mutex, Ordering};
use std::collections::VecDeque;

/// The pipelined scheduler's cross-worker delivery pool and its
/// completion counters.
///
/// Resolved deliveries (the engine's `T` is `ReadyVertex`) land in the
/// resolving worker's deque, where the owner pops them LIFO (the spans are cache-warm)
/// and other workers steal them FIFO when their own device queue is
/// ahead of their CPU. The shared injector takes hand-offs: a stolen
/// delivery whose requester is busy on another worker goes there
/// instead of blocking the thief.
///
/// Two counters replace the compute-phase barrier: `obligations`,
/// the edge requests accepted into the I/O layer and not yet released,
/// and `claims_done`, the workers that have exhausted claiming for the
/// current iteration. The iteration's compute is over exactly when
/// `claims_done == workers && obligations == 0`.
pub(super) struct ReadyPool<T> {
    injector: Mutex<VecDeque<T>>,
    deques: Vec<Mutex<VecDeque<T>>>,
    obligations: AtomicU64,
    claims_done: AtomicUsize,
}

impl<T> ReadyPool<T> {
    pub(super) fn new(workers: usize) -> Self {
        ReadyPool {
            injector: Mutex::new(VecDeque::new()),
            deques: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            obligations: AtomicU64::new(0),
            claims_done: AtomicUsize::new(0),
        }
    }

    /// Moves freshly resolved deliveries into worker `w`'s deque.
    pub(super) fn push_local(&self, w: usize, items: &mut Vec<T>) {
        self.deques[w].lock().extend(items.drain(..));
    }

    /// Hands a delivery whose requester is busy elsewhere to the
    /// injector, where any worker (including the busy one) picks it
    /// up once the conflict clears.
    pub(super) fn push_injector(&self, r: T) {
        self.injector.lock().push_back(r);
    }

    /// Next delivery for worker `w`: own deque (LIFO), then the
    /// injector, then stealing from the other workers (FIFO).
    pub(super) fn pop(&self, w: usize) -> Option<T> {
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

    /// Opens an obligation, *before* its request enters the I/O layer:
    /// the request stays counted until [`ReadyPool::release`].
    pub(super) fn accept(&self) {
        // ordering: Relaxed — publication of this increment to the
        // quiesce check rides on the `claims_done` release chain
        // (claim phase) or on the enclosing obligation's AcqRel
        // decrement (cascades), never on the increment itself.
        // fg_check's `quiesce` harness is the referee; its
        // NoOuterObligation switch shows what breaks when a cascade
        // runs without cover.
        self.obligations.fetch_add(1, Ordering::Relaxed);
    }

    /// Closes an obligation, *after* its delivery has run and the
    /// follow-on requests it queued have been absorbed (accepted in
    /// their turn, under this obligation's cover).
    pub(super) fn release(&self) {
        // ordering: AcqRel — release publishes the delivery's state
        // writes to the worker whose quiesce load sees the count reach
        // zero; acquire folds earlier decrements into this RMW's
        // release sequence. The RelaxedPublish fault of fg_check's
        // `quiesce` harness downgrades this very RMW and demonstrates
        // the lost publication.
        let open = self.obligations.fetch_sub(1, Ordering::AcqRel);
        debug_assert!(open > 0, "release without a matching accept");
    }

    /// A worker's claims are exhausted for this iteration (cursors
    /// only move forward, so this is permanent until
    /// [`ReadyPool::begin_iteration`]). Called after the worker's
    /// final flush.
    pub(super) fn announce_claims_done(&self) {
        // ordering: AcqRel — the release half publishes this worker's
        // final flush to whoever's `quiesced` load sees the full
        // count; the acquire half joins earlier announcements' release
        // sequence through the RMW chain. Referee: fg_check's
        // `quiesce` harness.
        self.claims_done.fetch_add(1, Ordering::AcqRel);
    }

    /// The pipelined iteration's end condition: all `workers` have
    /// exhausted claiming and every accepted request's delivery has
    /// finished. `claims_done` is monotonic within an iteration and
    /// cascades keep an outer obligation alive while they spawn inner
    /// ones, so a true result cannot hide in-flight work.
    pub(super) fn quiesced(&self, workers: usize) -> bool {
        // ordering: Acquire on both loads pairs with the AcqRel
        // announcement/decrement RMWs, so a worker that observes the
        // full claim count and a zero obligation count also observes
        // every delivered vertex's state writes. These were SeqCst
        // from PR 6 "to be safe"; fg_check's `quiesce` harness passes
        // exhaustively at Acquire/AcqRel and catches the seeded
        // downgrade below it.
        self.claims_done.load(Ordering::Acquire) == workers
            && self.obligations.load(Ordering::Acquire) == 0
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

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(pool: &ReadyPool<u32>, w: usize) -> Vec<u32> {
        std::iter::from_fn(|| pool.pop(w)).collect()
    }

    #[test]
    fn an_open_obligation_holds_quiesce_off() {
        let pool = ReadyPool::<u32>::new(2);
        pool.accept();
        pool.announce_claims_done();
        pool.announce_claims_done();
        assert!(!pool.quiesced(2), "every claim announced, one delivery out");
        pool.accept();
        pool.release();
        assert!(
            !pool.quiesced(2),
            "a cascade's inner release is not the outer's"
        );
        pool.release();
        assert!(pool.quiesced(2));
    }

    #[test]
    fn the_last_announcement_completes_quiesce() {
        let pool = ReadyPool::<u32>::new(3);
        assert!(!pool.quiesced(3));
        pool.announce_claims_done();
        pool.announce_claims_done();
        assert!(!pool.quiesced(3), "no obligation open, one worker claiming");
        pool.announce_claims_done();
        assert!(pool.quiesced(3));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "release without a matching accept")]
    fn release_without_accept_is_caught() {
        ReadyPool::<u32>::new(1).release();
    }

    #[test]
    fn pop_is_own_lifo_then_injector_fifo_then_victim_fifo() {
        let pool = ReadyPool::new(3);
        pool.push_local(0, &mut vec![1, 2]);
        pool.push_local(1, &mut vec![11, 12]);
        pool.push_local(2, &mut vec![21, 22]);
        pool.push_injector(31);
        pool.push_injector(32);
        // Worker 0: its own newest first, the injector oldest first,
        // then its neighbours' oldest, nearest victim first.
        assert_eq!(drain(&pool, 0), [2, 1, 31, 32, 11, 12, 21, 22]);
        assert!(pool.pop(1).is_none());
    }

    #[test]
    fn begin_iteration_rewinds_claims_only() {
        let pool = ReadyPool::new(2);
        pool.announce_claims_done();
        pool.announce_claims_done();
        assert!(pool.quiesced(2));
        pool.push_local(1, &mut vec![7]);
        pool.begin_iteration();
        assert!(!pool.quiesced(2), "claims start over");
        assert_eq!(drain(&pool, 0), [7], "deques are left as they were");
        pool.announce_claims_done();
        pool.announce_claims_done();
        assert!(pool.quiesced(2), "obligations were not touched");
    }
}
