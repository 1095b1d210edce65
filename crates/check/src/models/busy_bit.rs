//! Busy-bit delivery exclusivity — a harness around the shipped
//! `AtomicBitmap::set_sync` / `clear_sync`, used the way the engine
//! uses them (`crates/core/src/engine/worker.rs`, `acquire_busy` /
//! `execute_deliveries`: that caller is not mountable, so its side of
//! the protocol is transcribed here).
//!
//! The two functions' docs state the protocol (a per-bit try-lock
//! whose release publishes). Invariants checked: mutual exclusion (concurrent claimants never
//! both win), publication (the next owner observes the previous
//! owner's writes — a data race otherwise), liveness (every delivery
//! eventually runs).

use super::shipped_bitmap::AtomicBitmap;
use crate::sync::{cspawn_each, cyield, CCell};
use crate::{check_assert, explore, Config, Fault, Report};
use fg_types::VertexId;

/// Seeded protocol edits the checker must catch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// Fault: both RMWs at `Relaxed` instead of `AcqRel`. Mutual
    /// exclusion *survives* (RMW atomicity is ordering-independent)
    /// but publication is lost — a data race on the protected state.
    RelaxedSync,
    /// Caller: the second delivery of worker 0 forgets `clear_sync`;
    /// the other claimant spins into the step bound (livelock).
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

const WORKERS: usize = 2;
const DELIVERIES_PER_WORKER: u64 = 2;
const V: VertexId = VertexId(0);

/// Explores the protocol; `mutation: None` is the shipped behaviour.
pub fn check(mutation: Option<Mutation>, cfg: &Config) -> Report {
    let faults: &[Fault] = match mutation {
        Some(Mutation::RelaxedSync) => &RELAXED_SYNC,
        _ => &[],
    };
    explore(cfg, faults, move || {
        let shared = std::sync::Arc::new((AtomicBitmap::new(1), CCell::new("vertex_state", 0u64)));
        let s = shared.clone();
        cspawn_each(WORKERS, move |w| {
            let (busy, state) = &*s;
            for d in 0..DELIVERIES_PER_WORKER {
                // Claim the vertex (spin on the per-bit try-lock).
                while busy.set_sync(V) {
                    cyield();
                }
                // Deliver: mutate the protected vertex state.
                state.write(|s| *s += 1);
                let skip_clear = mutation == Some(Mutation::DroppedClear) && w == 0 && d == 1;
                if !skip_clear {
                    busy.clear_sync(V);
                }
            }
        });
        // Joins give the root the happens-before edge for this read.
        shared.1.read(|s| {
            check_assert(
                *s == WORKERS as u64 * DELIVERIES_PER_WORKER,
                "every delivery applied exactly once",
            )
        });
    })
}
