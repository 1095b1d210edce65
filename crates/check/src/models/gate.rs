//! Admission — a harness around the shipped `Gate`
//! (`crates/core/src/serve/gate.rs`: `admit` and the `Permit`'s drop),
//! the serving layer's one queue. A gate of one slot throughout; the
//! root thread takes it first, so everyone else has to wait.
//!
//! Scenarios and the invariants they check:
//! * priority — a low-class and a high-class waiter, both queued before
//!   the slot frees: the higher class never waits behind the lower one
//!   admitted later, and successive holders of the slot are ordered by
//!   the gate alone (each writes a `CCell` while it holds its permit);
//! * cancel after grant — the first in line has a token that fires
//!   just before the slot frees: the grant that wakes it must not take
//!   the slot (no permit leaks to a dead query), and the waiter behind
//!   it, who has no token and so waits untimed, gets in;
//! * deadline — a token fires while the slot stays taken and nothing
//!   touches the gate: the waiter leaves with the token's verdict on
//!   its own poll (a `wait_timeout`, which the scheduler lets expire
//!   only once nothing else can run).
//!
//! Each ends with the books balanced: nothing running, nobody queued,
//! every grant dropped once, the cap never overrun, no stride pass left
//! behind by a tenant nobody declared. Both mutations are faults, one
//! per broadcast in `gate.rs`; each strands the untimed waiter.

use super::shipped_gate::{Gate, Ticket};
use crate::sync::{cspawn, cyield, CCell};
use crate::{check_assert, explore, Config, Fault, Report};
use fg_types::{CancelCause, CancelToken};
use std::sync::Arc;

/// Seeded protocol edits the checker must catch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// A dropped `Permit` frees its slot but wakes nobody: the waiters
    /// of the priority scenario sleep beside a free slot (deadlock).
    PermitDropNoNotify,
    /// A waiter leaving `admit` — here the one whose token fired —
    /// wakes nobody: the waiter it stood in front of never learns it is
    /// the pick now (deadlock).
    AbandonNoNotify,
}

pub const MUTATIONS: [Mutation; 2] = [Mutation::PermitDropNoNotify, Mutation::AbandonNoNotify];

/// `gate.rs` calls `notify_all` twice: in `Permit`'s drop, then at the
/// end of `admit`.
const PERMIT_DROP_NO_NOTIFY: Fault = Fault("gate.rs", "notify_all", 0);
const ABANDON_NO_NOTIFY: Fault = Fault("gate.rs", "notify_all", 1);

const HIGH: u8 = 0;
const NORMAL: u8 = 1;
const LOW: u8 = 2;

/// An undeclared weight-1 tenant asking at `class`.
fn ticket(class: u8, tenant: &str) -> Ticket<'_> {
    Ticket {
        class,
        tenant,
        weight: 1,
        declared: false,
    }
}

/// What every scenario ends on, `admitted` grants later.
fn assert_drained(gate: &Gate, admitted: u64) {
    let end = gate.snapshot();
    check_assert(
        (end.running, end.queued) == (0, 0),
        "no permit and no waiter is left behind",
    );
    check_assert(
        (end.admitted, end.completed) == (admitted, admitted),
        "every grant went to a live query and was dropped once",
    );
    check_assert(end.peak == 1, "the cap was never overrun");
    check_assert(
        end.tenant_passes == 0,
        "undeclared tenants leave no stride pass behind",
    );
}

/// Low and high both wait for the root's slot; high goes first.
fn scenario_priority(faults: &[Fault], cfg: &Config) -> Report {
    explore(cfg, faults, || {
        let gate = Arc::new(Gate::new(1));
        let order = Arc::new(CCell::new("admission order", Vec::new()));
        let held = gate.admit(ticket(NORMAL, "root"), None).ok();
        let waiters = [(LOW, "low"), (HIGH, "high")].map(|(class, tenant)| {
            let (gate, order) = (gate.clone(), order.clone());
            cspawn(move || {
                let permit = gate.admit(ticket(class, tenant), None).ok();
                // Inside the slot: unordered with the previous holder,
                // this write is a data race.
                order.write(|o| o.push(class));
                drop(permit);
            })
        });
        while gate.snapshot().queued < waiters.len() {
            cyield();
        }
        drop(held);
        waiters.into_iter().for_each(|w| w.join());
        check_assert(
            order.read(|o| o[..] == [HIGH, LOW]),
            "a higher class never waits behind a lower one admitted later",
        );
        assert_drained(&gate, 3);
    })
}

/// The first in line dies just before its grant; the next gets in.
fn scenario_cancel_after_grant(faults: &[Fault], cfg: &Config) -> Report {
    explore(cfg, faults, || {
        let gate = Arc::new(Gate::new(1));
        let token = CancelToken::new();
        let held = gate.admit(ticket(NORMAL, "root"), None).ok();
        let doomed = cspawn({
            let (gate, token) = (gate.clone(), token.clone());
            move || {
                let out = gate.admit(ticket(HIGH, "doomed"), Some(&token));
                check_assert(
                    matches!(out, Err(CancelCause::Cancelled)),
                    "a token that fired before the slot freed never takes it",
                );
            }
        });
        let patient = cspawn({
            let gate = gate.clone();
            move || {
                let permit = gate.admit(ticket(LOW, "patient"), None);
                check_assert(permit.is_ok(), "no token, no verdict: admitted");
            }
        });
        token.cancel();
        drop(held);
        doomed.join();
        patient.join();
        assert_drained(&gate, 2);
    })
}

/// A token fires while the slot stays taken: no gate event, only the
/// waiter's own poll can notice.
fn scenario_deadline(cfg: &Config) -> Report {
    explore(cfg, &[], || {
        let gate = Arc::new(Gate::new(1));
        let token = CancelToken::new();
        let held = gate.admit(ticket(NORMAL, "root"), None).ok();
        let waiter = cspawn({
            let (gate, token) = (gate.clone(), token.clone());
            move || {
                let out = gate.admit(ticket(NORMAL, "late"), Some(&token));
                check_assert(
                    matches!(out, Err(CancelCause::Cancelled)),
                    "a waiter that is never granted leaves with its token's verdict",
                );
            }
        });
        token.cancel();
        waiter.join();
        drop(held);
        assert_drained(&gate, 1);
    })
}

/// Explores the protocol; `mutation: None` runs every scenario and
/// merges the reports (first failure wins). Each fault is reached by
/// every scenario, and strands a waiter in the one named here.
pub fn check(mutation: Option<Mutation>, cfg: &Config) -> Report {
    match mutation {
        Some(Mutation::PermitDropNoNotify) => scenario_priority(&[PERMIT_DROP_NO_NOTIFY], cfg),
        Some(Mutation::AbandonNoNotify) => scenario_cancel_after_grant(&[ABANDON_NO_NOTIFY], cfg),
        None => scenario_priority(&[], cfg)
            .and(scenario_cancel_after_grant(&[], cfg))
            .and(scenario_deadline(cfg)),
    }
}
