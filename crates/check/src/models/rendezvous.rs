//! Generation rendezvous — a harness around the shipped `Rendezvous`
//! (`crates/core/src/rendezvous.rs`: `vote` / `rendezvous` / `check` /
//! `poison`), the engine's one barrier.
//!
//! Scenarios and the invariants they check:
//! * votes — two parties, two rounds with different results: every
//!   voter of round *r* returns the AND of round *r*'s ballots (no
//!   cross-round bleed, no sleeping through one's own release);
//! * poison — a party meets one round, then dies: its peer's next wait
//!   unwinds with `PeerPanicked` rather than hanging (a lost wakeup
//!   surfaces as a deadlock);
//! * check — a party polling `Rendezvous::check` *away from the
//!   barrier* (the engine's idle compute loop and `acquire_busy`)
//!   while its peer poisons must unwind too, not spin into the step
//!   bound. No transcription ever had this `Relaxed` reader.
//!
//! Both mutations are faults: an *edit* to `vote`'s shape (what the
//! retired `ArrivedPredicate` mutation of the transcription stood for)
//! now runs under these scenarios as it is made.

use super::shipped_rendezvous::{PeerPanicked, Rendezvous};
use crate::sync::{cspawn, cspawn_each, cyield};
use crate::{check_assert, explore_with, Config, Fault, Report};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Seeded protocol edits the checker must catch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// The last arrival's broadcast in `vote` wakes nobody: the votes
    /// scenario's earlier arrival sleeps through its own round's
    /// release (deadlock).
    ReleaseNoNotify,
    /// `poison` sets the flag but its broadcast wakes nobody: an
    /// already-parked waiter never rechecks (deadlock).
    PoisonNoNotify,
}

pub const MUTATIONS: [Mutation; 2] = [Mutation::ReleaseNoNotify, Mutation::PoisonNoNotify];

/// `rendezvous.rs` calls `notify_all` twice: in `vote`, then in
/// `poison`.
const RELEASE_NO_NOTIFY: Fault = Fault("rendezvous.rs", "notify_all", 0);
const POISON_NO_NOTIFY: Fault = Fault("rendezvous.rs", "notify_all", 1);

const PARTIES: usize = 2;

/// Runs `f`; `Err(())` if it unwound with the `PeerPanicked` of a
/// poisoned wait. Every other payload is re-raised: the scheduler
/// aborts a failed execution by unwinding its parked threads with a
/// sentinel of its own.
fn poisoned<R>(f: impl FnOnce() -> R) -> Result<R, ()> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        if !payload.is::<PeerPanicked>() {
            resume_unwind(payload);
        }
    })
}

/// Two rounds of honest voting. Ballots are chosen so the rounds have
/// different results (round 1: false, round 2: true); cross-round
/// bleed or a sleep-through shows up as a wrong result or a deadlock.
fn scenario_votes(faults: &[Fault], cfg: &Config) -> Report {
    explore_with(cfg, faults, || {
        let group = Rendezvous::new(PARTIES);
        let ballots: [[bool; 2]; PARTIES] = [[true, true], [false, true]];
        let expected = [false, true];
        cspawn_each(PARTIES, move |party| {
            for (ballot, expected) in ballots[party].into_iter().zip(expected) {
                check_assert(
                    group.vote(ballot) == expected,
                    "each round returns the AND of that round's ballots",
                );
            }
        });
    })
}

/// The crasher meets round 1, then dies and poisons the group while
/// the survivor is (possibly already) waiting on round 2. The
/// survivor's second wait must unwind, never hang.
fn scenario_poison(faults: &[Fault], cfg: &Config) -> Report {
    explore_with(cfg, faults, || {
        let group = Arc::new(Rendezvous::new(PARTIES));
        let g = group.clone();
        let survivor = cspawn(move || {
            // A wait whose round completed concurrently with the
            // poison may still report the poison — a dead peer
            // invalidates the group wholesale. Both outcomes are
            // legal; hanging is not.
            if poisoned(|| g.rendezvous()).is_ok() {
                check_assert(
                    poisoned(|| g.vote(true)).is_err(),
                    "waiting on a poisoned group unwinds",
                );
            }
        });
        let crasher = cspawn(move || {
            group.rendezvous();
            group.poison();
        });
        survivor.join();
        crasher.join();
    })
}

/// A party waiting on its sibling away from the barrier polls `check`
/// between looks at its (here: empty) work; the sibling dies.
pub fn check_reader(cfg: &Config) -> Report {
    explore_with(cfg, &[], || {
        let group = Arc::new(Rendezvous::new(PARTIES));
        let g = group.clone();
        let idler = cspawn(move || {
            let polled = poisoned(|| loop {
                g.check();
                cyield();
            });
            check_assert(polled.is_err(), "the poll unwinds once a peer has died");
        });
        group.poison();
        idler.join();
    })
}

/// Explores the protocol; `mutation: None` runs every scenario and
/// merges the reports (first failure wins). Each fault is reached by
/// one scenario only.
pub fn check(mutation: Option<Mutation>, cfg: &Config) -> Report {
    match mutation {
        Some(Mutation::ReleaseNoNotify) => scenario_votes(&[RELEASE_NO_NOTIFY], cfg),
        Some(Mutation::PoisonNoNotify) => scenario_poison(&[POISON_NO_NOTIFY], cfg),
        None => scenario_votes(&[], cfg)
            .and(scenario_poison(&[], cfg))
            .and(check_reader(cfg)),
    }
}
