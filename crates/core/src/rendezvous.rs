//! The engine's one barrier, [`Rendezvous`], and what a dead party
//! does to it ([`PoisonGuard`], [`PeerPanicked`]). Every primitive is
//! `super::sync::…` and nothing else: `fg_check` compiles this file
//! against its instrumented `sync` and explores `vote` / `check` /
//! `poison` as shipped (its `rendezvous` harness), so an edit here is
//! checked by the next `cargo test --test check_models`.

use super::sync::{AtomicBool, Condvar, Mutex, Ordering};

/// The engine's one barrier: the workers of a shard meet here at every
/// phase boundary of an iteration, and worker 0 of every shard of a
/// k > 1 run meets its peers here at the two cross-shard sync points.
/// Vote rounds AND-reduce a per-party flag (the termination check);
/// plain rendezvous rounds are votes whose result nobody reads.
///
/// A party that unwinds poisons the barrier (via its [`PoisonGuard`]),
/// and every waiter — parked here, or polling [`Rendezvous::check`]
/// where it waits on a sibling without being at the barrier — unwinds
/// with [`PeerPanicked`] instead of waiting on a peer that will never
/// arrive.
///
/// Explored as shipped by `fg_check`'s `rendezvous` harness: two vote
/// rounds with different results (a waiter waits on the *generation*,
/// not the `arrived` counter the next round reuses), a peer that dies,
/// and a party polling [`Rendezvous::check`] while one does. Both
/// broadcasts are load-bearing — its `ReleaseNoNotify` and
/// `PoisonNoNotify` faults drop one each and deadlock. See
/// `crates/check` and `tests/check_models.rs`.
pub(crate) struct Rendezvous {
    parties: usize,
    /// Never lock-poisoned (`sync::Mutex` is not): a peer that
    /// panicked mid-round is exactly the "peer panicked" case the flag
    /// below carries, and `poison` must still work during unwind.
    state: Mutex<RoundState>,
    cv: Condvar,
    /// Set once, by [`Rendezvous::poison`], with `state` locked — so a
    /// waiter that read it false under the lock is parked (and gets
    /// the broadcast) before it can change.
    poisoned: AtomicBool,
}

struct RoundState {
    arrived: usize,
    generation: u64,
    /// AND-accumulator of the in-progress round.
    acc: bool,
    /// Result of the last completed round.
    result: bool,
}

/// What a waiter on a poisoned [`Rendezvous`] unwinds with: a marker,
/// so the join can tell the panic that started it from the ones it
/// caused. Raised with `resume_unwind` — no panic hook, no message.
pub(crate) struct PeerPanicked;

impl Rendezvous {
    pub(crate) fn new(parties: usize) -> Self {
        assert!(parties > 0);
        Rendezvous {
            parties,
            state: Mutex::new(RoundState {
                arrived: 0,
                generation: 0,
                acc: true,
                result: true,
            }),
            cv: Condvar::new(),
            poisoned: AtomicBool::new(false),
        }
    }

    fn is_poisoned(&self) -> bool {
        // ordering: Relaxed — the flag publishes no data, only "stop
        // waiting"; waiters at the barrier read it under `state`'s
        // lock, which `poison` holds while setting it, and the
        // pollers of `check` only need to see it eventually.
        self.poisoned.load(Ordering::Relaxed)
    }

    /// Unwinds with [`PeerPanicked`] if a party has panicked. For the
    /// places a worker waits on a sibling away from the barrier (an
    /// idle compute loop, a busy-bit spin): read only where the
    /// worker already found nothing to do.
    pub(crate) fn check(&self) {
        if self.is_poisoned() {
            std::panic::resume_unwind(Box::new(PeerPanicked));
        }
    }

    /// Blocks until every party arrives. Rounds are totally ordered:
    /// all parties execute the same sequence of sync points, so one
    /// generation counter serves rendezvous and vote rounds alike.
    pub(crate) fn rendezvous(&self) {
        self.vote(true);
    }

    /// Contributes `flag` to this round's AND-reduction and blocks
    /// until every party has; returns the reduction.
    pub(crate) fn vote(&self, flag: bool) -> bool {
        let mut g = self.state.lock();
        if !self.is_poisoned() {
            g.acc &= flag;
            g.arrived += 1;
            if g.arrived == self.parties {
                g.arrived = 0;
                g.result = g.acc;
                g.acc = true;
                g.generation = g.generation.wrapping_add(1);
                self.cv.notify_all();
                return g.result;
            }
            let gen = g.generation;
            while g.generation == gen && !self.is_poisoned() {
                g = self.cv.wait(g);
            }
        }
        let result = g.result;
        drop(g);
        self.check();
        result
    }

    /// Marks the barrier dead and wakes every waiter (who then unwind).
    pub(super) fn poison(&self) {
        let g = self.state.lock();
        // ordering: Relaxed — see `is_poisoned`; stored under the lock.
        self.poisoned.store(true, Ordering::Relaxed);
        drop(g);
        self.cv.notify_all();
    }
}

/// Poisons the barrier if its thread unwinds, so peers blocked in a
/// rendezvous fail fast instead of waiting forever.
pub(crate) struct PoisonGuard<'a>(pub(crate) &'a Rendezvous);

impl Drop for PoisonGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn group_rendezvous_releases_all() {
        let g = Arc::new(Rendezvous::new(3));
        let mut handles = Vec::new();
        for _ in 0..3 {
            let g = Arc::clone(&g);
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    g.rendezvous();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn vote_is_an_and_reduction() {
        let g = Arc::new(Rendezvous::new(2));
        let g2 = Arc::clone(&g);
        let t = std::thread::spawn(move || {
            let r1 = g2.vote(true);
            let r2 = g2.vote(true);
            let r3 = g2.vote(false);
            (r1, r2, r3)
        });
        let r1 = g.vote(false);
        let r2 = g.vote(true);
        let r3 = g.vote(true);
        let (o1, o2, o3) = t.join().unwrap();
        assert_eq!((r1, r2, r3), (false, true, false));
        assert_eq!((o1, o2, o3), (false, true, false));
    }

    #[test]
    fn poisoned_group_panics_waiters() {
        let g = Arc::new(Rendezvous::new(2));
        let g2 = Arc::clone(&g);
        let waiter = std::thread::spawn(move || g2.rendezvous());
        // Give the waiter time to block, then poison.
        std::thread::sleep(std::time::Duration::from_millis(20));
        g.poison();
        assert!(waiter.join().is_err(), "waiter must panic, not hang");
    }
}
