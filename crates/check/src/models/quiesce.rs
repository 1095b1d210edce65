//! Completion-counted quiesce — a harness around the shipped
//! `ReadyPool::{accept, release, announce_claims_done, quiesced}`
//! (`crates/core/src/engine/pool.rs`), the pipelined engine's
//! end-of-iteration condition, driven the way `engine/worker.rs`
//! drives it (`absorb_requests` / `execute_deliveries`: not mountable,
//! so the caller's side is transcribed here), rounds and all: what the
//! pool moves is an *entry* — a run of k ≥ 1 deliveries, accepted as k
//! obligations — and a worker takes a round of entries in one `take`,
//! walks each delivery by delivery, and closes the whole round with
//! one `release(deliveries run)`.
//!
//! `pool.rs` states the protocol; the caller's half is that a
//! delivery's follow-on requests are accepted while its round's
//! (*outer*) obligations are still held, that those are released only
//! after the round's last delivery, and that they are counted in
//! deliveries, like the accepts. Invariants checked: counting
//! (the pool is never transiently quiesced while work is outstanding)
//! and publication (the observer also *sees* all delivered state: the
//! Acquire loads pair with the AcqRel decrements, whose RMW chain
//! accumulates every deliverer's clock). This is the referee for the
//! PR 8 `SeqCst → AcqRel/Relaxed` downgrade of the pool's counters,
//! and the mutations show each choice is load-bearing.

use super::shipped_pool::ReadyPool;
use crate::sync::{cspawn_each, cyield, CCell};
use crate::{check_assert, explore_with, Config, Fault, Report};
use fg_types::sync::Counter;
use std::ops::Range;
use std::sync::Arc;

/// A run of deliveries, named by the vertices they are for.
type Entry = Range<usize>;

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
    /// Caller: a round's `release(n)` is issued after its *first*
    /// delivery, not its last — with two in the round the count
    /// reaches zero with one still to run. An observer finds that
    /// one's state missing, or — the schedule the search reaches
    /// first — there, but written after the release that should have
    /// published it (data race).
    EarlyBatchRelease,
    /// Caller: the round's release counts *entries* where the accepts
    /// counted deliveries — an entry of two leaves an obligation open
    /// for good, and the quiesce never comes (livelock).
    ReleasePerEntry,
}

pub const MUTATIONS: [Mutation; 4] = [
    Mutation::NoOuterObligation,
    Mutation::RelaxedPublish,
    Mutation::EarlyBatchRelease,
    Mutation::ReleasePerEntry,
];

/// `release`'s `fetch_sub`, the only one in `pool.rs`.
const RELAXED_PUBLISH: Fault = Fault("pool.rs", "fetch_sub", 0);

const WORKERS: usize = 2;
/// Worker 0's claims come back as one entry of two deliveries,
/// vertices 0 and 1; worker 1's as an entry of one, vertex 2, whose
/// delivery cascades a follow-on request for vertex 3. The cascade's
/// source is an entry of its own so that it can be the last obligation
/// open — the case `NoOuterObligation` needs.
const VERTICES: usize = 4;
const CLAIMED: [Entry; WORKERS] = [0..2, 2..3];
const CASCADE_SOURCE: usize = 2;
const CASCADE_TARGET: usize = 3;
/// Both claimed entries fit one round, so a round of two entries and
/// three deliveries — one cascading — is among the explored cases.
const BUDGET: usize = 2;

struct Harness {
    pool: ReadyPool<Entry>,
    cells: Vec<CCell<usize>>,
    /// Deliveries that are through, follow-ons absorbed. The harness's
    /// own bookkeeping, not a schedule point: the scheduler runs one
    /// model thread at a time.
    finished: Counter,
    mutation: Option<Mutation>,
}

impl Harness {
    /// Runs one delivery; returns how many of the round's obligations
    /// it leaves for the round's release (one, unmutated).
    fn deliver(&self, v: usize) -> u64 {
        self.cells[v].write(|c| *c = v + 1);
        if v != CASCADE_SOURCE {
            self.finished.inc();
            return 1;
        }
        let early = self.mutation == Some(Mutation::NoOuterObligation);
        if early {
            // Mutated: the outer obligation goes before the follow-on
            // exists — the count is transiently zero.
            self.pool.release(1);
        }
        // Absorb the follow-on, under the outer obligation's cover.
        self.pool.accept(1);
        let follow_on: Entry = CASCADE_TARGET..CASCADE_TARGET + 1;
        self.pool.push_injector(&mut vec![follow_on]);
        self.finished.inc();
        u64::from(!early)
    }

    /// `execute_deliveries`: the round's entries, each walked in
    /// place, then the round's one release.
    fn run_round(&self, round: &mut Vec<Entry>) {
        let early = self.mutation == Some(Mutation::EarlyBatchRelease);
        let entries = round.len() as u64;
        let deliveries = round.iter().map(|e| e.len() as u64).sum();
        let mut open = 0;
        for (i, v) in round.drain(..).flatten().enumerate() {
            open += self.deliver(v);
            if early && i == 0 {
                // Mutated: the release does not wait for the rest of
                // the round.
                self.pool.release(deliveries);
            }
        }
        if self.mutation == Some(Mutation::ReleasePerEntry) {
            // Mutated: one obligation closed per entry, however many
            // deliveries it carried.
            self.pool.release(entries);
        } else if !early && open > 0 {
            self.pool.release(open);
        }
    }

    /// The quiesce contract: an observer of `quiesced() == true` must
    /// find every delivery, cascades included, done *and visible*.
    fn assert_quiesced_world(&self) {
        check_assert(
            self.finished.get() == VERTICES as u64,
            "quiesced() implies every delivery is through",
        );
        let sum: usize = self.cells.iter().map(|c| c.read(|v| *v)).sum();
        check_assert(sum == 1 + 2 + 3 + 4, "... and its state is visible");
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
            finished: Counter::new(0),
            mutation,
        });
        let hw = h.clone();
        cspawn_each(WORKERS, move |w| {
            // Claim phase: accept this worker's requests — one
            // obligation a delivery — then announce that it has no
            // more.
            let claimed = CLAIMED[w].clone();
            hw.pool.accept(claimed.len() as u64);
            hw.pool.push_injector(&mut vec![claimed]);
            hw.pool.announce_claims_done();
            // Drain phase: deliver until quiesced.
            let mut round = Vec::new();
            while !hw.pool.quiesced(WORKERS) {
                hw.pool.take(w, BUDGET, &mut round);
                if round.is_empty() {
                    cyield();
                } else {
                    hw.run_round(&mut round);
                }
            }
            hw.assert_quiesced_world();
        });
        h.assert_quiesced_world();
        // Phase D's own checks: no obligation open, injector empty.
        h.pool.begin_iteration();
    })
}
