//! The ready pool: where a resolved entry — a run of one cover's
//! deliveries, the engine's `sem_io::Entry` — waits for a CPU, and the
//! one owner of the quiesce protocol that ends an iteration's compute
//! without a barrier (see [`ReadyPool`]). Every read cover comes here,
//! whether an I/O thread read it or the claiming worker swept it, so
//! [`ReadyPool::deliver_round`] is the one road from a semi-external
//! request to its callback. The two counters are private; `accept` /
//! `release` / `announce_claims_done` / `quiesced` / `begin_iteration`
//! are the whole protocol, each ordering stated beside its access, and
//! `deliver_round` is a worker's side of it. The referee reads this
//! file, not a copy: `fg_check` compiles it against its instrumented
//! `sync` (so every primitive is `super::sync::…`, and the busy bit and
//! the delivery are the caller's closures) and its `busy_bit`,
//! `quiesce` (with its swept-run cell) and `ready_pool` harnesses
//! explore it as shipped. Priced, with `claim.rs`, by the ledger's
//! `engine.noop_ns_per_vertex`.
//!
//! Everything here moves batches of entries, so a delivery pays a
//! share of a share of a lock or an RMW, not one of its own. The
//! deques and the injector hold entries; the obligation counter counts
//! *deliveries*, however many an entry carries. [`ReadyPool::take`]
//! fills the caller's buffer from the *first* non-empty of: its own
//! deque, newest first, up to the budget; the injector, oldest first,
//! up to the budget; one victim's deque, oldest first, at most half of
//! it — one lock each, and it never mixes sources. `accept(n)` opens the
//! obligations of one absorb in one RMW, before any of the `n`
//! requests can be flushed; `release(n)` closes a round's in one RMW,
//! after the *last* of its deliveries has run and had its follow-ons
//! absorbed. Releasing late is always safe (quiesce is only delayed);
//! a delivery run after its round's release is the `EarlyBatchRelease`
//! mutation of the `quiesce` harness.

use super::sync::{AtomicU64, AtomicUsize, Mutex, Ordering};
use std::collections::VecDeque;
use std::ops::Range;

/// The pipelined scheduler's cross-worker delivery pool and its
/// completion counters.
///
/// Resolved entries (the engine's `T` is `sem_io::Entry`) land in the
/// resolving worker's deque — a harvest's, or a swept run's — where the
/// owner takes them LIFO (the spans are cache-warm) and other workers
/// steal them FIFO when their own device queue is ahead of their CPU.
/// The shared injector takes hand-offs: a taken delivery whose
/// requester is busy on another worker goes there, as an entry of one,
/// instead of blocking the taker.
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

/// What the pool moves: a run of deliveries its taker walks in place.
pub(super) trait Run: Sized {
    /// The run's deliveries, by index.
    fn parts(&self) -> Range<u32>;
    /// Delivery `i` alone, as a run of one.
    fn only(&self, i: u32) -> Self;
}

/// A worker's round buffers, kept for their capacity: what `take`
/// handed it, and the deliveries it set aside, one to a run.
pub(super) type Round<T> = (Vec<T>, Vec<T>);

impl<T> ReadyPool<T> {
    /// A pool for `workers`, each deque with room for `depth` entries.
    pub(super) fn new(workers: usize, depth: usize) -> Self {
        let deque = || Mutex::new(VecDeque::with_capacity(depth));
        ReadyPool {
            injector: Mutex::new(VecDeque::new()),
            deques: (0..workers).map(|_| deque()).collect(),
            obligations: AtomicU64::new(0),
            claims_done: AtomicUsize::new(0),
        }
    }

    /// Moves freshly resolved entries into worker `w`'s deque.
    pub(super) fn push_local(&self, w: usize, items: &mut Vec<T>) {
        self.deques[w].lock().extend(items.drain(..));
    }

    /// Hands entries whose requesters are busy elsewhere to the
    /// injector, where any worker (including the busy one) picks them
    /// up once the conflict clears.
    pub(super) fn push_injector(&self, items: &mut Vec<T>) {
        self.injector.lock().extend(items.drain(..));
    }

    /// Appends worker `w`'s next batch of at most `budget` entries
    /// to `out`: its own deque (LIFO), else the injector (FIFO), else
    /// the older half of the first non-empty victim's deque (FIFO; all
    /// of a deque of one) — the shape of crossbeam's
    /// `steal_batch_and_pop`. Nothing is appended when all are empty.
    pub(super) fn take(&self, w: usize, budget: usize, out: &mut Vec<T>) {
        let before = out.len();
        {
            let mut own = self.deques[w].lock();
            let keep = own.len().saturating_sub(budget);
            out.extend(own.drain(keep..).rev());
        }
        if out.len() > before {
            return;
        }
        {
            let mut injector = self.injector.lock();
            let n = injector.len().min(budget);
            out.extend(injector.drain(..n));
        }
        let n = self.deques.len();
        for k in 1..n {
            if out.len() > before {
                return;
            }
            let mut victim = self.deques[(w + k) % n].lock();
            let half = victim.len().div_ceil(2).min(budget);
            out.extend(victim.drain(..half));
        }
    }

    /// One delivery round of worker `w`: up to `budget` runs, walked in
    /// place. A delivery runs once `set_sync` wins its requester's busy
    /// bit, and `clear_sync` gives it back; one whose requester is busy
    /// in a callback elsewhere goes to the injector as a run of one,
    /// its obligation open, and the rest of its run goes on. One
    /// `release` closes the round after its last delivery and the
    /// follow-ons `deliver` absorbed, counting the deliveries run, as
    /// the accepts did. Returns that count.
    pub(super) fn deliver_round<R>(
        &self,
        w: usize,
        budget: usize,
        round: &mut Round<T>,
        set_sync: impl Fn(&T, u32) -> bool,
        clear_sync: impl Fn(&T, u32) -> R,
        mut deliver: impl FnMut(&T, u32),
    ) -> u64
    where
        T: Run,
    {
        let (taken, conflicted) = round;
        self.take(w, budget, taken);
        let mut run = 0;
        for e in taken.drain(..) {
            for i in e.parts() {
                if set_sync(&e, i) {
                    conflicted.push(e.only(i));
                    continue;
                }
                deliver(&e, i);
                clear_sync(&e, i);
                run += 1;
            }
        }
        if !conflicted.is_empty() {
            self.push_injector(conflicted);
        }
        if run > 0 {
            self.release(run);
        }
        run
    }

    /// Opens `n` obligations, *before* any of their requests can be
    /// flushed to the I/O layer: each request stays counted until the
    /// [`ReadyPool::release`] of the batch its delivery runs in.
    pub(super) fn accept(&self, n: u64) {
        // ordering: Relaxed — publication of this increment to the
        // quiesce check rides on the `claims_done` release chain
        // (claim phase) or on the enclosing obligation's AcqRel
        // decrement (cascades), never on the increment itself.
        // fg_check's `quiesce` harness is the referee; its
        // NoOuterObligation switch shows what breaks when a cascade
        // runs without cover.
        self.obligations.fetch_add(n, Ordering::Relaxed);
    }

    /// Closes the `n` obligations of a batch, *after* the last of its
    /// deliveries has run and the follow-on requests they queued have
    /// been absorbed (accepted in their turn, under these obligations'
    /// cover).
    pub(super) fn release(&self, n: u64) {
        // ordering: AcqRel — release publishes the deliveries' state
        // writes to the worker whose quiesce load sees the count reach
        // zero; acquire folds earlier decrements into this RMW's
        // release sequence. The RelaxedPublish fault of fg_check's
        // `quiesce` harness downgrades this very RMW and demonstrates
        // the lost publication.
        let open = self.obligations.fetch_sub(n, Ordering::AcqRel);
        debug_assert!(open >= n, "release without a matching accept");
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
    use std::cell::Cell;

    fn take(pool: &ReadyPool<u32>, w: usize, budget: usize) -> Vec<u32> {
        let mut out = Vec::new();
        pool.take(w, budget, &mut out);
        out
    }

    #[test]
    fn an_open_obligation_holds_quiesce_off() {
        let pool = ReadyPool::<u32>::new(2, 0);
        pool.accept(3);
        pool.announce_claims_done();
        pool.announce_claims_done();
        assert!(!pool.quiesced(2), "every claim announced, a batch out");
        pool.accept(1);
        pool.release(1);
        assert!(
            !pool.quiesced(2),
            "a cascade's inner release is not the outer's"
        );
        pool.release(2);
        assert!(!pool.quiesced(2), "one of the batch still out");
        pool.release(1);
        assert!(pool.quiesced(2));
    }

    #[test]
    fn the_last_announcement_completes_quiesce() {
        let pool = ReadyPool::<u32>::new(3, 0);
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
        ReadyPool::<u32>::new(1, 0).release(1);
    }

    #[test]
    fn pop_is_own_lifo_then_injector_fifo_then_victim_fifo() {
        let pool = ReadyPool::new(3, 0);
        pool.push_local(0, &mut vec![1, 2, 3]);
        pool.push_local(1, &mut vec![11, 12, 13]);
        pool.push_local(2, &mut vec![21]);
        pool.push_injector(&mut vec![31, 32, 33]);
        // Worker 0: its own newest first, within the budget, and
        // nothing else while it has any ...
        assert_eq!(take(&pool, 0, 2), [3, 2]);
        assert_eq!(take(&pool, 0, 2), [1]);
        // ... then the injector oldest first ...
        assert_eq!(take(&pool, 0, 2), [31, 32]);
        assert_eq!(take(&pool, 0, 2), [33]);
        // ... then the older half of the nearest non-empty victim.
        assert_eq!(take(&pool, 0, 64), [11, 12]);
        assert_eq!(take(&pool, 0, 64), [13], "half of one rounds up");
        assert_eq!(take(&pool, 0, 64), [21]);
        assert!(take(&pool, 1, 64).is_empty());
        // A steal respects the budget too, and `take` appends.
        pool.push_local(1, &mut (0..10).collect());
        let mut out = vec![99];
        pool.take(2, 3, &mut out);
        assert_eq!(out, [99, 0, 1, 2]);
    }

    #[test]
    fn begin_iteration_rewinds_claims_only() {
        let pool = ReadyPool::new(2, 0);
        pool.announce_claims_done();
        pool.announce_claims_done();
        assert!(pool.quiesced(2));
        pool.push_local(1, &mut vec![7]);
        pool.begin_iteration();
        assert!(!pool.quiesced(2), "claims start over");
        assert_eq!(take(&pool, 0, 64), [7], "deques are left as they were");
        pool.announce_claims_done();
        pool.announce_claims_done();
        assert!(pool.quiesced(2), "obligations were not touched");
    }

    /// A run of deliveries by index.
    impl Run for Range<u32> {
        fn parts(&self) -> Range<u32> {
            self.clone()
        }

        fn only(&self, i: u32) -> Self {
            i..i + 1
        }
    }

    #[test]
    #[allow(clippy::single_range_in_vec_init)] // a run of three deliveries
    fn a_round_requeues_a_busy_delivery_alone_and_releases_once() {
        let pool = ReadyPool::<Range<u32>>::new(1, 0);
        pool.accept(3);
        pool.push_local(0, &mut vec![0..3]);
        pool.announce_claims_done();
        let (mut round, mut ran, cleared) = (Round::default(), vec![], Cell::new(0));
        let busy = |_: &Range<u32>, i| i == 1;
        let clear = |_: &Range<u32>, _| cleared.set(cleared.get() + 1);
        let n = pool.deliver_round(0, 8, &mut round, busy, clear, |_, i| ran.push(i));
        assert_eq!((n, ran, cleared.get()), (2, vec![0, 2], 2));
        assert!(!pool.quiesced(1), "the busy delivery's obligation is open");
        let mut requeued = Vec::new();
        pool.take(0, 8, &mut requeued);
        assert_eq!(requeued, [1..2], "alone, through the injector");
        pool.push_injector(&mut requeued);
        let n = pool.deliver_round(0, 8, &mut round, |_, _| false, clear, |_, _| {});
        assert_eq!(n, 1);
        assert!(pool.quiesced(1));
    }
}
