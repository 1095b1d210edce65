//! Generation rendezvous — the model of `Rendezvous`, the engine's
//! one barrier (`crates/core/src/shard.rs`, `vote` / `poison`; the
//! workers of a shard meet at one, worker 0 of every shard at
//! another): parties vote a boolean per round, the last arrival
//! combines the votes and releases the generation, and a party that
//! panics poisons the barrier so the others fail instead of hanging.
//!
//! Protocol: each voter ANDs its ballot into the accumulator and
//! increments `arrived`. The last arrival snapshots the combined
//! result, advances `generation`, resets `arrived`/accumulator for
//! the next round, and notifies. Earlier arrivals wait on *the
//! generation they arrived in* changing — not on the `arrived`
//! counter, which the release path resets and the next round reuses.
//! `poison` sets the flag and notifies so every waiter unblocks.
//!
//! Invariants checked:
//! * agreement — every voter of round *r* returns the AND of round
//!   *r*'s ballots, across rounds (no cross-round bleed);
//! * liveness — waiting on a poisoned group returns an error rather
//!   than hanging (a lost wakeup surfaces as a deadlock).
//!
//! Seeded mutations:
//! * [`Mutation::ArrivedPredicate`]: wait on `arrived != 0` instead of
//!   the generation — a fast peer re-entering the next round pushes
//!   `arrived` back above zero and the waiter sleeps through its own
//!   round's release (deadlock).
//! * [`Mutation::PoisonNoNotify`]: `poison` sets the flag but skips
//!   `notify_all` — an already-parked waiter never rechecks
//!   (deadlock).

use crate::sync::{cspawn, CCondvar, CMutex};
use crate::{check_assert, explore, Config, Report};
use std::sync::Arc;

/// Seeded protocol edits the checker must catch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// Wait on the `arrived` counter instead of the generation.
    ArrivedPredicate,
    /// `poison` without the wakeup broadcast.
    PoisonNoNotify,
}

impl Mutation {
    pub const ALL: [Mutation; 2] = [Mutation::ArrivedPredicate, Mutation::PoisonNoNotify];
}

const SHARDS: usize = 2;

struct GroupState {
    arrived: usize,
    generation: u64,
    acc: bool,
    result: bool,
    poisoned: bool,
}

/// The model's `Rendezvous` double.
struct Group {
    state: CMutex<GroupState>,
    cv: CCondvar,
    mutation: Option<Mutation>,
}

impl Group {
    fn new(mutation: Option<Mutation>) -> Self {
        Group {
            state: CMutex::new(
                "group.state",
                GroupState {
                    arrived: 0,
                    generation: 0,
                    acc: true,
                    result: true,
                    poisoned: false,
                },
            ),
            cv: CCondvar::new("group.cv"),
            mutation,
        }
    }

    /// Votes `ballot` and waits for the round's combined result.
    /// `Err(())` means the group was poisoned.
    fn vote_and_wait(&self, ballot: bool) -> Result<bool, ()> {
        let mut g = self.state.lock();
        if g.poisoned {
            return Err(());
        }
        g.acc &= ballot;
        g.arrived += 1;
        if g.arrived == SHARDS {
            // Last arrival: release the generation and reset for the
            // next round.
            g.result = g.acc;
            g.generation += 1;
            g.arrived = 0;
            g.acc = true;
            let result = g.result;
            drop(g);
            self.cv.notify_all();
            return Ok(result);
        }
        if self.mutation == Some(Mutation::ArrivedPredicate) {
            // Mutated: `arrived` is reset by the release path and then
            // reused by the *next* round — a fast peer re-arming it
            // puts this waiter to sleep through its own release.
            while g.arrived != 0 && !g.poisoned {
                g = self.cv.wait(g);
            }
        } else {
            // Faithful: wait for the generation I arrived in to close.
            let gen = g.generation;
            while g.generation == gen && !g.poisoned {
                g = self.cv.wait(g);
            }
        }
        if g.poisoned {
            return Err(());
        }
        Ok(g.result)
    }

    /// Marks the group failed and wakes every waiter.
    fn poison(&self) {
        let mut g = self.state.lock();
        g.poisoned = true;
        drop(g);
        if self.mutation != Some(Mutation::PoisonNoNotify) {
            self.cv.notify_all();
        }
        // Mutated: flag set, waiters never woken.
    }
}

/// Scenario A — two rounds of honest voting. Ballots are chosen so the
/// rounds have different results (round 1: false, round 2: true);
/// cross-round bleed or a sleep-through shows up as a wrong result or
/// a deadlock.
fn scenario_votes(mutation: Option<Mutation>, cfg: &Config) -> Report {
    let cfg = cfg.clone();
    explore(&cfg, move || {
        let group = Arc::new(Group::new(mutation));
        let ballots: [[bool; 2]; SHARDS] = [[true, true], [false, true]];
        let expected = [false, true];

        let mut handles = Vec::new();
        for my_ballots in ballots {
            let group = group.clone();
            handles.push(cspawn(move || {
                for (round, ballot) in my_ballots.into_iter().enumerate() {
                    let got = group.vote_and_wait(ballot);
                    check_assert(
                        got == Ok(expected[round]),
                        "each round returns the AND of that round's ballots",
                    );
                }
            }));
        }
        for h in handles {
            h.join();
        }
    })
}

/// Scenario B — shard 1 votes round 1, then dies and poisons the
/// group while shard 0 is (possibly already) waiting on round 2.
/// Shard 0's second vote must return `Err`, never hang.
fn scenario_poison(mutation: Option<Mutation>, cfg: &Config) -> Report {
    let cfg = cfg.clone();
    explore(&cfg, move || {
        let group = Arc::new(Group::new(mutation));

        let survivor = {
            let group = group.clone();
            cspawn(move || {
                // Like the real `Rendezvous`, a vote whose round
                // completed concurrently with the poison may still
                // report the poison — a dead peer invalidates the
                // group wholesale. Both outcomes are legal; hanging
                // is not.
                let r1 = group.vote_and_wait(true);
                check_assert(
                    r1 == Ok(true) || r1 == Err(()),
                    "round 1 yields its result or the poison, never junk",
                );
                if r1.is_ok() {
                    check_assert(
                        group.vote_and_wait(true) == Err(()),
                        "voting on a poisoned group errors out",
                    );
                }
            })
        };
        let crasher = {
            let group = group.clone();
            cspawn(move || {
                check_assert(
                    group.vote_and_wait(true) == Ok(true),
                    "round 1 completes before the crash",
                );
                group.poison();
            })
        };
        survivor.join();
        crasher.join();
    })
}

/// Explores the protocol; `mutation: None` runs both scenarios and
/// merges the reports (first failure wins).
pub fn check(mutation: Option<Mutation>, cfg: &Config) -> Report {
    match mutation {
        // Each mutation is detected by the scenario that exercises it;
        // running only that one keeps the mutated runs cheap.
        Some(Mutation::ArrivedPredicate) => scenario_votes(mutation, cfg),
        Some(Mutation::PoisonNoNotify) => scenario_poison(mutation, cfg),
        None => {
            let a = scenario_votes(None, cfg);
            if a.failure.is_some() {
                return a;
            }
            let b = scenario_poison(None, cfg);
            Report {
                executions: a.executions + b.executions,
                complete: a.complete && b.complete,
                failure: b.failure,
            }
        }
    }
}
