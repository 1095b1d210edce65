//! Completion-counted quiesce — a harness around the shipped
//! `ReadyPool::{accept, release, announce_claims_done, quiesced}`
//! (`crates/core/src/engine/pool.rs`), the pipelined engine's
//! end-of-iteration condition, driven the way `engine/worker.rs`
//! drives it (`absorb_requests` / `complete`: not mountable, so the
//! caller's side is transcribed here).
//!
//! `pool.rs` states the protocol; the caller's half is that a
//! delivery's follow-on requests are accepted while its own (*outer*)
//! obligation is still held. Invariants checked: counting (the pool is
//! never transiently quiesced while work is outstanding) and
//! publication (the observer also *sees* all delivered state: the
//! Acquire loads pair with the AcqRel decrements, whose RMW chain
//! accumulates every deliverer's clock). This is the referee for the
//! PR 8 `SeqCst → AcqRel/Relaxed` downgrade of the pool's counters,
//! and the two mutations show each choice is load-bearing.

use super::shipped_pool::ReadyPool;
use crate::sync::{cspawn_each, cyield, CCell};
use crate::{check_assert, explore_with, Config, Fault, Report};
use std::sync::Arc;

/// Seeded protocol edits the checker must catch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// Caller: a cascade releases its outer obligation *before*
    /// accepting the follow-on — the transient zero lets another
    /// worker observe quiesce with work outstanding (assertion).
    NoOuterObligation,
    /// Fault: `release`'s decrement at `Relaxed` — the counter still
    /// counts (RMW atomicity), but the observer reads delivered state
    /// without a happens-before edge (data race).
    RelaxedPublish,
}

pub const MUTATIONS: [Mutation; 2] = [Mutation::NoOuterObligation, Mutation::RelaxedPublish];

/// `release`'s `fetch_sub`, the only one in `pool.rs`.
const RELAXED_PUBLISH: Fault = Fault("pool.rs", "fetch_sub", 0);

const WORKERS: usize = 2;
/// Vertices 0 and 1 are claimed by workers 0 and 1; delivering vertex
/// 1 cascades a follow-on request for vertex 2.
const VERTICES: usize = 3;
const CASCADE_SOURCE: usize = 1;
const CASCADE_TARGET: usize = 2;

struct Harness {
    pool: ReadyPool<usize>,
    cells: Vec<CCell<usize>>,
    mutation: Option<Mutation>,
}

impl Harness {
    fn deliver(&self, v: usize) {
        self.cells[v].write(|c| *c = v + 1);
        let cascade = v == CASCADE_SOURCE;
        let early = cascade && self.mutation == Some(Mutation::NoOuterObligation);
        if early {
            // Mutated: the outer obligation goes before the follow-on
            // exists — the count is transiently zero.
            self.pool.release();
        }
        if cascade {
            // Absorb the follow-on, under the outer obligation's cover.
            self.pool.accept();
            self.pool.push_injector(CASCADE_TARGET);
        }
        if !early {
            self.pool.release();
        }
    }

    /// The quiesce contract: an observer of `quiesced() == true` must
    /// find every delivery, cascades included, done *and visible*.
    fn assert_quiesced_world(&self) {
        let sum: usize = self.cells.iter().map(|c| c.read(|v| *v)).sum();
        check_assert(
            sum == 1 + 2 + 3,
            "quiesced() implies every delivery ran and is visible",
        );
    }
}

/// Explores the protocol; `mutation: None` is the shipped behaviour.
pub fn check(mutation: Option<Mutation>, cfg: &Config) -> Report {
    let faults: &[Fault] = match mutation {
        Some(Mutation::RelaxedPublish) => &[RELAXED_PUBLISH],
        _ => &[],
    };
    explore_with(cfg, faults, move || {
        let cell = |v| CCell::new(&format!("cell{}", v), 0);
        let h = Arc::new(Harness {
            pool: ReadyPool::new(WORKERS),
            cells: (0..VERTICES).map(cell).collect(),
            mutation,
        });
        let hw = h.clone();
        cspawn_each(WORKERS, move |w| {
            // Claim phase: accept this worker's request, then announce
            // that it has no more.
            hw.pool.accept();
            hw.pool.push_injector(w);
            hw.pool.announce_claims_done();
            // Drain phase: deliver until quiesced.
            while !hw.pool.quiesced(WORKERS) {
                match hw.pool.pop(w) {
                    Some(v) => hw.deliver(v),
                    None => cyield(),
                }
            }
            hw.assert_quiesced_world();
        });
        h.assert_quiesced_world();
        // Phase D's own checks: no obligation open, injector empty.
        h.pool.begin_iteration();
    })
}
