//! Work-stealing delivery pool — a harness around the shipped
//! `ReadyPool::{push_local, take, deliver_round}`
//! (`crates/core/src/engine/pool.rs`: per-worker LIFO deques, a shared
//! injector, FIFO stealing of half a deque, a batch per lock, and the
//! round's busy-conflict requeue), over the shipped `AtomicBitmap`
//! busy bit and ending on the shipped `quiesced`.
//!
//! `pool.rs` states the take order and the requeue rule (a delivery
//! whose requester is busy goes to the injector alone, its obligation
//! open). The harness is the caller: the entries — whose `only` is the
//! requeue's other half — and the round's closures. Invariants
//! checked: exactly-once (every enqueued delivery runs exactly once,
//! and the pool quiesces only after it has) and deque discipline (a
//! thief and the owner never touch a deque unordered).

use super::shipped_bitmap::AtomicBitmap;
use super::{busy_rounds, resolved, Entry, Shape};
use crate::sync::{cspawn_each, CCell};
use crate::{check_assert, explore, Config, Fault, Report};
use std::ops::Range;
use std::sync::Arc;

/// Seeded protocol edits the checker must catch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// Caller: the entries' `only` makes a conflicted delivery a run of
    /// none, so the round's requeue loses it — its obligation is never
    /// released and the workers spin into the step bound (livelock).
    DropOnConflict,
    /// Fault: `take`'s steal is granted the victim's lock without
    /// acquiring it — a data race against the owner's own takes.
    StealWithoutLock,
}

pub const MUTATIONS: [Mutation; 2] = [Mutation::DropOnConflict, Mutation::StealWithoutLock];

/// The steal in `take`: the fifth `lock` of `pool.rs`, after
/// `push_local`'s, `push_injector`'s, and `take`'s own-deque and
/// injector ones.
const STEAL_WITHOUT_LOCK: Fault = Fault("pool.rs", "lock", 4);

const WORKERS: usize = 2;
/// Worker 0's deque starts with an entry of two deliveries, worker
/// 1's with an entry of one. All three target vertex 0, so one
/// worker's callback can hold the busy bit while the other is part-way
/// through its entry — the conflict path under test.
const RESOLVED: [Range<u32>; WORKERS] = [0..2, 2..3];
const ITEMS: usize = 3;
const BUDGET: usize = 2;

/// Explores the protocol; `mutation: None` is the shipped behaviour.
pub fn check(mutation: Option<Mutation>, cfg: &Config) -> Report {
    let faults: &[Fault] = match mutation {
        Some(Mutation::StealWithoutLock) => &[STEAL_WITHOUT_LOCK],
        _ => &[],
    };
    let shape = match mutation {
        Some(Mutation::DropOnConflict) => Shape::Lossy,
        _ => Shape::Shipped,
    };
    explore(cfg, faults, move || {
        // The claim phase is over before the scenario starts (`quiesce`
        // explores the announcements).
        let entries = RESOLVED.iter().map(|items| Entry(items.clone(), shape));
        let pool = resolved(entries.collect());
        let count = |i| CCell::new(&format!("count{}", i), 0);
        let counts: Vec<CCell<u64>> = (0..ITEMS).map(count).collect();
        let h = Arc::new((pool, AtomicBitmap::new(1), counts));
        let hw = h.clone();
        cspawn_each(WORKERS, move |w| {
            let (pool, busy, counts) = &*hw;
            let deliver = |i: u32| counts[i as usize].write(|c| *c += 1);
            busy_rounds((pool, busy), (w, WORKERS, BUDGET), |_| true, deliver);
        });
        // Joins give the root the happens-before edge for these reads.
        for c in &h.2 {
            c.read(|v| check_assert(*v == 1, "every delivery runs exactly once"));
        }
    })
}
