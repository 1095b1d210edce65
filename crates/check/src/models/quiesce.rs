//! Completion-counted quiesce — a harness around the shipped
//! `ReadyPool::{accept, release, announce_claims_done, quiesced}`
//! (`crates/core/src/engine/pool.rs`), the pipelined engine's
//! end-of-iteration condition, driven the way `engine/worker.rs`
//! drives it (`absorb_requests` / `execute_deliveries`: not mountable,
//! so the caller's side is transcribed here), batches and all: a
//! worker takes what the pool hands it in one `take`, runs it, and
//! closes the whole batch with one `release(n)`.
//!
//! `pool.rs` states the protocol; the caller's half is that a
//! delivery's follow-on requests are accepted while its batch's
//! (*outer*) obligations are still held, and that those are released
//! only after the batch's last delivery. Invariants checked: counting
//! (the pool is never transiently quiesced while work is outstanding)
//! and publication (the observer also *sees* all delivered state: the
//! Acquire loads pair with the AcqRel decrements, whose RMW chain
//! accumulates every deliverer's clock). This is the referee for the
//! PR 8 `SeqCst → AcqRel/Relaxed` downgrade of the pool's counters,
//! and the three mutations show each choice is load-bearing.

use super::shipped_pool::ReadyPool;
use crate::sync::{cspawn_each, cyield, CCell};
use crate::{check_assert, explore_with, Config, Fault, Report};
use fg_types::sync::Counter;
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
    /// Caller: a batch's `release(n)` is issued after its *first*
    /// delivery, not its last — with two in the batch the count
    /// reaches zero with one still to run, and an observer finds its
    /// state missing (assertion).
    EarlyBatchRelease,
}

pub const MUTATIONS: [Mutation; 3] = [
    Mutation::NoOuterObligation,
    Mutation::RelaxedPublish,
    Mutation::EarlyBatchRelease,
];

/// `release`'s `fetch_sub`, the only one in `pool.rs`.
const RELAXED_PUBLISH: Fault = Fault("pool.rs", "fetch_sub", 0);

const WORKERS: usize = 2;
/// Vertices 0 and 1 are claimed by workers 0 and 1; delivering vertex
/// 1 cascades a follow-on request for vertex 2.
const VERTICES: usize = 3;
const CASCADE_SOURCE: usize = 1;
const CASCADE_TARGET: usize = 2;
/// Both claimed vertices fit one batch, so a batch of two — one
/// delivery cascading — is among the explored cases.
const BUDGET: usize = 2;

struct Harness {
    pool: ReadyPool<usize>,
    cells: Vec<CCell<usize>>,
    /// Deliveries that are through, follow-ons absorbed. The harness's
    /// own bookkeeping, not a schedule point: the scheduler runs one
    /// model thread at a time.
    finished: Counter,
    mutation: Option<Mutation>,
}

impl Harness {
    /// Runs one delivery; returns how many of the batch's obligations
    /// it leaves for the batch's release (one, unmutated).
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
        self.pool.push_injector(&mut vec![CASCADE_TARGET]);
        self.finished.inc();
        u64::from(!early)
    }

    /// `execute_deliveries`: the batch, then its one release.
    fn run_batch(&self, batch: &mut Vec<usize>) {
        let early = self.mutation == Some(Mutation::EarlyBatchRelease);
        let n = batch.len() as u64;
        let mut open = 0;
        for (i, v) in batch.drain(..).enumerate() {
            open += self.deliver(v);
            if early && i == 0 {
                // Mutated: the release does not wait for the rest of
                // the batch.
                self.pool.release(n);
            }
        }
        if !early && open > 0 {
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
        check_assert(sum == 1 + 2 + 3, "... and its state is visible");
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
            // Claim phase: accept this worker's request, then announce
            // that it has no more.
            hw.pool.accept(1);
            hw.pool.push_injector(&mut vec![w]);
            hw.pool.announce_claims_done();
            // Drain phase: deliver until quiesced.
            let mut batch = Vec::new();
            while !hw.pool.quiesced(WORKERS) {
                hw.pool.take(w, BUDGET, &mut batch);
                if batch.is_empty() {
                    cyield();
                } else {
                    hw.run_batch(&mut batch);
                }
            }
            hw.assert_quiesced_world();
        });
        h.assert_quiesced_world();
        // Phase D's own checks: no obligation open, injector empty.
        h.pool.begin_iteration();
    })
}
