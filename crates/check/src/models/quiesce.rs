//! Completion-counted quiesce — the model of the pipelined engine's
//! end-of-iteration condition (`crates/core/src/engine/pool.rs`,
//! `ReadyPool::{accept, release, announce_claims_done, quiesced}` over
//! its private `obligations` / `claims_done` counters).
//!
//! Protocol: every accepted request increments `obligations` before it
//! is queued and decrements it only after its delivery — including the
//! absorption of any follow-on requests, which are incremented while
//! the *outer* obligation is still held. Each worker bumps
//! `claims_done` (AcqRel) once its claim phase ends. A worker that
//! observes `claims_done == workers && obligations == 0` (Acquire
//! loads) may conclude the iteration is over.
//!
//! Invariants checked:
//! * counting — the counter is never transiently zero while work is
//!   outstanding: observing quiesce implies every delivery ran;
//! * publication — the observer also *sees* all delivered state (the
//!   Acquire loads pair with the AcqRel decrements, whose RMW chain
//!   accumulates every deliverer's clock).
//!
//! This model is the referee for the PR 8 `SeqCst → AcqRel/Relaxed`
//! downgrade of the engine's quiesce counters: increments are
//! `Relaxed` (their publication rides on `claims_done` or the
//! enclosing obligation), decrements `AcqRel`, loads `Acquire` — and
//! the two mutations show each choice is load-bearing.
//!
//! Seeded mutations:
//! * [`Mutation::NoOuterObligation`]: a cascade decrements its outer
//!   obligation *before* registering the follow-on — the transient
//!   zero lets another worker observe quiesce with work outstanding
//!   (assertion failure).
//! * [`Mutation::RelaxedPublish`]: decrements downgraded to `Relaxed`
//!   — the counter still counts (RMW atomicity), but the observer
//!   reads delivered state without a happens-before edge (data race).

use crate::sync::{cspawn, cyield, CAtomicU64, CAtomicUsize, CCell, CMutex, Ordering};
use crate::{check_assert, explore, Config, Report};
use std::sync::Arc;

/// Seeded protocol edits the checker must catch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// Decrement the outer obligation before queueing the follow-on.
    NoOuterObligation,
    /// Obligation decrements at `Relaxed` instead of `AcqRel`.
    RelaxedPublish,
}

impl Mutation {
    pub const ALL: [Mutation; 2] = [Mutation::NoOuterObligation, Mutation::RelaxedPublish];
}

const WORKERS: usize = 2;
/// Vertices 0 and 1 are claimed by workers 0 and 1; delivering vertex
/// 1 cascades a follow-on request for vertex 2.
const VERTICES: usize = 3;
const CASCADE_SOURCE: u64 = 1;
const CASCADE_TARGET: u64 = 2;

struct Model {
    obligations: CAtomicU64,
    claims_done: CAtomicUsize,
    injector: CMutex<Vec<u64>>,
    cells: Vec<CCell<u64>>,
    delivered: CAtomicU64,
    dec_ord: Ordering,
    mutation: Option<Mutation>,
}

impl Model {
    fn quiesced(&self) -> bool {
        // ordering: Acquire pairs with the AcqRel announce/decrement
        // RMWs — the property under test.
        self.claims_done.load(Ordering::Acquire) == WORKERS
            && self.obligations.load(Ordering::Acquire) == 0
    }

    fn deliver(&self, v: u64) {
        self.cells[v as usize].write(|c| *c = v + 1);
        // ordering: statistic; asserted only at protocol-synchronized
        // points.
        self.delivered.fetch_add(1, Ordering::Relaxed);
        if v == CASCADE_SOURCE && self.mutation == Some(Mutation::NoOuterObligation) {
            // Mutated: the outer obligation is released before the
            // follow-on exists — the counter is transiently zero.
            self.obligations.fetch_sub(1, self.dec_ord);
            // ordering: increments ride on the enclosing obligation —
            // which this mutation just gave up.
            self.obligations.fetch_add(1, Ordering::Relaxed);
            self.injector.lock().push(CASCADE_TARGET);
        } else if v == CASCADE_SOURCE {
            // Faithful: register the follow-on while the outer
            // obligation still covers it.
            // ordering: Relaxed — publication rides on the outer
            // obligation's AcqRel decrement below.
            self.obligations.fetch_add(1, Ordering::Relaxed);
            self.injector.lock().push(CASCADE_TARGET);
            self.obligations.fetch_sub(1, self.dec_ord);
        } else {
            self.obligations.fetch_sub(1, self.dec_ord);
        }
    }

    /// The quiesce contract: an observer of `quiesced() == true` must
    /// find every delivery done *and visible*.
    fn assert_quiesced_world(&self) {
        check_assert(
            // ordering: statistic; the quiesce observation is the
            // synchronization point under test.
            self.delivered.load(Ordering::Relaxed) == VERTICES as u64,
            "quiesced() implies every delivery (including cascades) ran",
        );
        let mut sum = 0;
        for c in &self.cells {
            sum += c.read(|v| *v);
        }
        check_assert(
            sum == 1 + 2 + 3,
            "quiesced() implies delivered state is visible",
        );
    }
}

/// Explores the protocol; `mutation: None` is the faithful model.
pub fn check(mutation: Option<Mutation>, cfg: &Config) -> Report {
    let cfg = cfg.clone();
    explore(&cfg, move || {
        let dec_ord = if mutation == Some(Mutation::RelaxedPublish) {
            // ordering: the seeded downgrade under test.
            Ordering::Relaxed
        } else {
            // ordering: the engine's real choice — release publishes
            // the delivery, acquire chains earlier decrements.
            Ordering::AcqRel
        };
        let m = Arc::new(Model {
            obligations: CAtomicU64::new("obligations", 0),
            claims_done: CAtomicUsize::new("claims_done", 0),
            injector: CMutex::new("injector", Vec::new()),
            cells: (0..VERTICES)
                .map(|v| CCell::new(&format!("cell{}", v), 0u64))
                .collect(),
            delivered: CAtomicU64::new("delivered", 0),
            dec_ord,
            mutation,
        });

        let mut handles = Vec::new();
        for w in 0..WORKERS {
            let m = m.clone();
            handles.push(cspawn(move || {
                // Claim phase: accept this worker's request.
                // ordering: Relaxed — covered by the claims_done
                // AcqRel announce below (program order).
                m.obligations.fetch_add(1, Ordering::Relaxed);
                m.injector.lock().push(w as u64);
                // ordering: AcqRel — releases this worker's accepts to
                // quiesce observers, joins earlier announces.
                m.claims_done.fetch_add(1, Ordering::AcqRel);
                // Drain phase: deliver until quiesced.
                loop {
                    if m.quiesced() {
                        m.assert_quiesced_world();
                        break;
                    }
                    let item = m.injector.lock().pop();
                    match item {
                        Some(v) => m.deliver(v),
                        None => cyield(),
                    }
                }
            }));
        }
        for h in handles {
            h.join();
        }
        m.assert_quiesced_world();
    })
}
