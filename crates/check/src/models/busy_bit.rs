//! Busy-bit delivery exclusivity — the model of
//! `fg_types::AtomicBitmap::set_sync` / `clear_sync` as used by
//! `flashgraph`'s engine (`crates/core/src/engine/worker.rs`,
//! `acquire_busy` / `execute_deliveries`).
//!
//! Protocol: a vertex's busy bit is a per-bit try-lock. `set_sync`
//! (`fetch_or`, AcqRel) claims it — a set previous bit means someone
//! else holds it; `clear_sync` (`fetch_and`, AcqRel) releases it and
//! *publishes* the protected vertex-state writes to the next claimant.
//!
//! Invariants checked:
//! * mutual exclusion — concurrent claimants never both win;
//! * publication — the next owner observes the previous owner's
//!   writes (a data race otherwise);
//! * liveness — every delivery eventually runs.
//!
//! Seeded mutations:
//! * [`Mutation::RelaxedSync`]: the documented `AcqRel → Relaxed`
//!   downgrade. Mutual exclusion *survives* (RMW atomicity is
//!   ordering-independent) but publication is lost — the checker
//!   reports a data race on the protected state.
//! * [`Mutation::DroppedClear`]: an owner that never clears the bit;
//!   the other claimant spins forever (livelock via the step bound).

use crate::sync::{cspawn, cyield, CBitmap, CCell, Ordering};
use crate::{check_assert, explore, Config, Report};
use std::sync::Arc;

/// Seeded protocol edits the checker must catch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// `set_sync`/`clear_sync` at `Relaxed` instead of `AcqRel`.
    RelaxedSync,
    /// The second delivery of worker 0 forgets `clear_sync`.
    DroppedClear,
}

impl Mutation {
    pub const ALL: [Mutation; 2] = [Mutation::RelaxedSync, Mutation::DroppedClear];
}

const WORKERS: usize = 2;
const DELIVERIES_PER_WORKER: u64 = 2;

/// Explores the protocol; `mutation: None` is the faithful model.
pub fn check(mutation: Option<Mutation>, cfg: &Config) -> Report {
    let cfg = cfg.clone();
    explore(&cfg, move || {
        let ord = if mutation == Some(Mutation::RelaxedSync) {
            // ordering: the seeded downgrade under test.
            Ordering::Relaxed
        } else {
            // ordering: the engine's real choice; publication is the
            // point of this model.
            Ordering::AcqRel
        };
        let busy = Arc::new(CBitmap::new("busy", 1, ord));
        let state = Arc::new(CCell::new("vertex_state", 0u64));

        let mut handles = Vec::new();
        for w in 0..WORKERS {
            let busy = busy.clone();
            let state = state.clone();
            handles.push(cspawn(move || {
                for d in 0..DELIVERIES_PER_WORKER {
                    // Claim the vertex (spin on the per-bit try-lock).
                    while busy.set_sync(0) {
                        cyield();
                    }
                    // Deliver: mutate the protected vertex state.
                    state.write(|s| *s += 1);
                    let skip_clear = mutation == Some(Mutation::DroppedClear) && w == 0 && d == 1;
                    if !skip_clear {
                        busy.clear_sync(0);
                    }
                }
            }));
        }
        for h in handles {
            h.join();
        }
        // Joins give the root the happens-before edge for this read.
        state.read(|s| {
            check_assert(
                *s == WORKERS as u64 * DELIVERIES_PER_WORKER,
                "every delivery applied exactly once",
            )
        });
    })
}
