//! Busy-bit delivery exclusivity — a harness around the shipped
//! `AtomicBitmap::set_sync` / `clear_sync`, used the way the engine
//! uses them: as the `set_sync` / `clear_sync` closures `worker.rs`
//! hands the shipped delivery round (`ReadyPool::deliver_round`), here
//! with every delivery for one vertex.
//!
//! The two functions' docs state the protocol (a per-bit try-lock
//! whose release publishes). Invariants checked: mutual exclusion
//! (concurrent claimants never both win), publication (the next owner
//! observes the previous owner's writes — a data race otherwise),
//! liveness (every delivery eventually runs).

use super::shipped_bitmap::AtomicBitmap;
use super::{busy_rounds, resolved, Entry, Shape};
use crate::sync::{cspawn_each, CCell};
use crate::{check_assert, explore, Config, Fault, Report};
use std::sync::Arc;

/// Seeded protocol edits the checker must catch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// Fault: both RMWs at `Relaxed` instead of `AcqRel`. Mutual
    /// exclusion *survives* (RMW atomicity is ordering-independent)
    /// but publication is lost — a data race on the protected state.
    RelaxedSync,
    /// Caller: the `clear_sync` closure forgets delivery 0's bit; the
    /// other delivery is requeued round after round (livelock).
    DroppedClear,
}

pub const MUTATIONS: [Mutation; 2] = [Mutation::RelaxedSync, Mutation::DroppedClear];

/// `set_sync`'s and `clear_sync`'s RMWs: the second `fetch_or` and the
/// second `fetch_and` of `bitmap.rs` (the first of each are the
/// already-`Relaxed` `set` / `clear`).
const RELAXED_SYNC: [Fault; 2] = [
    Fault("bitmap.rs", "fetch_or", 1),
    Fault("bitmap.rs", "fetch_and", 1),
];

/// One delivery in each worker's deque, both for vertex 0.
const WORKERS: usize = 2;

/// Explores the protocol; `mutation: None` is the shipped behaviour.
pub fn check(mutation: Option<Mutation>, cfg: &Config) -> Report {
    let faults: &[Fault] = match mutation {
        Some(Mutation::RelaxedSync) => &RELAXED_SYNC,
        _ => &[],
    };
    let dropped_clear = mutation == Some(Mutation::DroppedClear);
    explore(cfg, faults, move || {
        let items = (0..WORKERS as u32).map(|w| Entry(w..w + 1, Shape::Shipped));
        let pool = resolved(items.collect());
        let shared = Arc::new((pool, AtomicBitmap::new(1), CCell::new("vertex_state", 0u64)));
        let s = shared.clone();
        cspawn_each(WORKERS, move |w| {
            let (pool, busy, state) = &*s;
            let clear = |i| !(dropped_clear && i == 0);
            // Deliver: mutate the protected vertex state.
            let deliver = |_| state.write(|s| *s += 1);
            busy_rounds((pool, busy), (w, WORKERS, 1), clear, deliver);
        });
        // Joins give the root the happens-before edge for this read.
        shared
            .2
            .read(|s| check_assert(*s == WORKERS as u64, "every delivery applied exactly once"));
    })
}
