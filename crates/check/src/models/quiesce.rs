//! Completion-counted quiesce — a harness around the shipped
//! `ReadyPool::{accept, deliver_round, announce_claims_done, quiesced}`
//! (`crates/core/src/engine/pool.rs`), the pipelined engine's
//! end-of-iteration condition: entries of k ≥ 1 deliveries accepted as
//! k obligations, rounds that walk them and release once. The harness
//! is the caller — its claims, its entries, and a `deliver` closure
//! whose cascade absorbs a follow-on under the round's cover.
//!
//! Invariants checked: counting (the pool is never transiently
//! quiesced while work is outstanding) and publication (the observer
//! also *sees* all delivered state: the Acquire loads pair with the
//! AcqRel decrements, whose RMW chain accumulates every deliverer's
//! clock) — the referee for the PR 8 `SeqCst → AcqRel/Relaxed`
//! downgrade of the pool's counters.
//!
//! The swept-run cell ([`check_sweep`]): worker A's claimed run was
//! read on A and resolved into one entry of two deliveries. A accepts
//! the run's two obligations with one `accept(2)`, pushes the entry to
//! its own deque, and waits at the claim gate until the run is
//! delivered — by its own rounds, or by worker B, which has announced
//! its claims done and steals — before it finds no claim left and
//! announces. (The engine's gate is the run batch's reference count;
//! the harness counts the run's deliveries.) Checked as above, and that
//! every delivery runs under an obligation already open: a release
//! that comes before its accept is counted against other work.

use super::shipped_pool::{ReadyPool, Round};
use super::{Entry, Shape};
use crate::sync::{cspawn_each, cyield, CCell};
use crate::{check_assert, explore, Config, Fault, Report};
use fg_types::sync::Counter;
use std::ops::Range;
use std::sync::Arc;

/// Seeded protocol edits the checker must catch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// Caller: a cascade absorbs its follow-on only after its round's
    /// release — the transient zero lets another worker observe
    /// quiesce with work outstanding (assertion).
    NoOuterObligation,
    /// Fault: `release`'s decrement at `Relaxed` — the counter still
    /// counts (RMW atomicity), but the observer reads delivered state
    /// without a happens-before edge (data race).
    RelaxedPublish,
    /// Caller: `deliver` runs a round's first delivery and sets the
    /// rest aside for after the round, behind the release that counts
    /// them. An observer finds one's state missing, or — the schedule
    /// the search reaches first — there, but written after the release
    /// that should have published it (data race).
    EarlyBatchRelease,
    /// Caller: the entries yield one delivery each, so the round walks
    /// and releases *entries* where the accepts counted deliveries —
    /// an entry of two leaves an obligation open for good, and the
    /// quiesce never comes (livelock).
    ReleasePerEntry,
    /// Caller, in the swept-run cell: A accepts its run's obligations
    /// only after pushing the entry, so B can steal it and deliver — and
    /// release — before they are open (assertion).
    LateSweepAccept,
}

pub const MUTATIONS: [Mutation; 4] = [
    Mutation::NoOuterObligation,
    Mutation::RelaxedPublish,
    Mutation::EarlyBatchRelease,
    Mutation::ReleasePerEntry,
];

/// The mutations the swept-run cell must catch.
pub const SWEEP_MUTATIONS: [Mutation; 1] = [Mutation::LateSweepAccept];

/// `release`'s `fetch_sub`, the only one in `pool.rs`.
const RELAXED_PUBLISH: Fault = Fault("pool.rs", "fetch_sub", 0);

const WORKERS: usize = 2;
/// Worker 0's claims come back as one entry of two deliveries,
/// vertices 0 and 1; worker 1's as an entry of one, vertex 2, whose
/// delivery cascades a follow-on request for vertex 3. The cascade's
/// source is an entry of its own so that it can be the last obligation
/// open — the case `NoOuterObligation` needs.
const VERTICES: usize = 4;
const CLAIMED: [Range<u32>; WORKERS] = [0..2, 2..3];
const CASCADE_SOURCE: u32 = 2;
const CASCADE_TARGET: u32 = 3;
/// Both claimed entries fit one round, so a round of two entries and
/// three deliveries — one cascading — is among the explored cases.
const BUDGET: usize = 2;

struct Harness {
    pool: ReadyPool<Entry>,
    cells: Vec<CCell<u32>>,
    /// Deliveries that are through, follow-ons absorbed. The harness's
    /// own bookkeeping, not a schedule point: the scheduler runs one
    /// model thread at a time.
    finished: Counter,
    mutation: Option<Mutation>,
}

impl Harness {
    /// Delivery `v`'s state write.
    fn write(&self, v: u32) {
        self.cells[v as usize].write(|c| *c = v + 1);
    }

    /// The rest of delivery `v`: a cascade's follow-on accepted and
    /// queued — under the round's cover when called from `deliver`.
    fn absorb(&self, v: u32) {
        if v == CASCADE_SOURCE {
            self.pool.accept(1);
            let follow_on = CASCADE_TARGET..CASCADE_TARGET + 1;
            self.pool
                .push_injector(&mut vec![Entry(follow_on, Shape::Shipped)]);
        }
        self.finished.inc();
    }

    /// A worker: its claims accepted, then rounds until quiesced.
    fn run_worker(&self, w: usize) {
        // Claim phase: accept this worker's requests — one obligation
        // a delivery — then announce that it has no more.
        let shape = match self.mutation {
            Some(Mutation::ReleasePerEntry) => Shape::FirstOnly,
            _ => Shape::Shipped,
        };
        let claimed = CLAIMED[w].clone();
        self.pool.accept(claimed.len() as u64);
        self.pool.push_injector(&mut vec![Entry(claimed, shape)]);
        self.pool.announce_claims_done();
        // Drain phase: deliver until quiesced.
        let (mut round, mut late) = (Round::default(), Vec::new());
        while !self.pool.quiesced(WORKERS) {
            let mut walked = 0;
            let deliver = |_: &Entry, v| {
                walked += 1;
                match self.mutation {
                    Some(Mutation::EarlyBatchRelease) if walked > 1 => late.push(v),
                    Some(Mutation::NoOuterObligation) if v == CASCADE_SOURCE => {
                        self.write(v);
                        late.push(v);
                    }
                    _ => {
                        self.write(v);
                        self.absorb(v);
                    }
                }
            };
            let run =
                self.pool
                    .deliver_round(w, BUDGET, &mut round, |_, _| false, |_, _| {}, deliver);
            // What a mutated `deliver` left for after the round.
            for v in late.drain(..) {
                if self.mutation == Some(Mutation::EarlyBatchRelease) {
                    self.write(v);
                }
                self.absorb(v);
            }
            if run == 0 {
                cyield();
            }
        }
        self.assert_quiesced_world();
    }

    /// The quiesce contract: an observer of `quiesced() == true` must
    /// find every delivery, cascades included, done *and visible*.
    fn assert_quiesced_world(&self) {
        check_assert(
            self.finished.get() == VERTICES as u64,
            "quiesced() implies every delivery is through",
        );
        let sum: u32 = self.cells.iter().map(|c| c.read(|v| *v)).sum();
        check_assert(sum == 1 + 2 + 3 + 4, "... and its state is visible");
    }
}

/// Explores the protocol; `mutation: None` is the shipped behaviour.
pub fn check(mutation: Option<Mutation>, cfg: &Config) -> Report {
    let faults: &[Fault] = match mutation {
        Some(Mutation::RelaxedPublish) => &[RELAXED_PUBLISH],
        _ => &[],
    };
    explore(cfg, faults, move || {
        let cell = |v| CCell::new(&format!("cell{}", v), 0);
        let h = Arc::new(Harness {
            pool: ReadyPool::new(WORKERS, 0),
            cells: (0..VERTICES).map(cell).collect(),
            finished: Counter::new(0),
            mutation,
        });
        let hw = h.clone();
        cspawn_each(WORKERS, move |w| hw.run_worker(w));
        h.assert_quiesced_world();
        // Phase D's own checks: no obligation open, injector empty.
        h.pool.begin_iteration();
    })
}

/// The swept-run cell's worker A, and its run: vertices 0 and 1.
const A: usize = 0;
const SWEPT: Range<u32> = 0..2;

struct SweptRun {
    pool: ReadyPool<Entry>,
    cells: Vec<CCell<u32>>,
    /// Obligations opened and deliveries that are through: the
    /// harness's own bookkeeping, as [`Harness::finished`] is.
    opened: Counter,
    finished: Counter,
    late_accept: bool,
}

impl SweptRun {
    fn accept(&self) {
        self.pool.accept(SWEPT.len() as u64);
        self.opened.set(SWEPT.len() as u64);
    }

    /// One delivery round of worker `w`; returns the deliveries run.
    fn round(&self, w: usize, round: &mut Round<Entry>) -> u64 {
        let deliver = |_: &Entry, v: u32| {
            check_assert(
                self.finished.get() < self.opened.get(),
                "a delivery runs under an open obligation",
            );
            self.cells[v as usize].write(|c| *c = v + 1);
            self.finished.inc();
        };
        self.pool
            .deliver_round(w, BUDGET, round, |_, _| false, |_, _| {}, deliver)
    }

    /// Worker `w`: A sweeps its run first and holds its next claim
    /// until the run is delivered; then both announce and deliver until
    /// quiesced.
    fn run_worker(&self, w: usize) {
        let mut round = Round::default();
        if w == A {
            if !self.late_accept {
                self.accept();
            }
            let entry = Entry(SWEPT, Shape::Shipped);
            self.pool.push_local(A, &mut vec![entry]);
            if self.late_accept {
                self.accept();
            }
            while self.finished.get() < SWEPT.len() as u64 {
                if self.round(A, &mut round) == 0 {
                    cyield();
                }
            }
        }
        // The next claim finds nothing.
        self.pool.announce_claims_done();
        while !self.pool.quiesced(WORKERS) {
            if self.round(w, &mut round) == 0 {
                cyield();
            }
        }
        self.assert_quiesced_world();
    }

    fn assert_quiesced_world(&self) {
        check_assert(
            self.finished.get() == SWEPT.len() as u64,
            "quiesced() implies the swept run is delivered",
        );
        let sum: u32 = self.cells.iter().map(|c| c.read(|v| *v)).sum();
        check_assert(sum == 1 + 2, "... and its state is visible");
    }
}

/// Explores the swept-run cell (see the module docs); `mutation: None`
/// is the shipped behaviour.
pub fn check_sweep(mutation: Option<Mutation>, cfg: &Config) -> Report {
    explore(cfg, &[], move || {
        let cell = |v| CCell::new(&format!("cell{}", v), 0);
        let h = Arc::new(SweptRun {
            pool: ReadyPool::new(WORKERS, 0),
            cells: SWEPT.map(cell).collect(),
            opened: Counter::new(0),
            finished: Counter::new(0),
            late_accept: mutation == Some(Mutation::LateSweepAccept),
        });
        let hw = h.clone();
        cspawn_each(WORKERS, move |w| hw.run_worker(w));
        h.assert_quiesced_world();
        h.pool.begin_iteration();
    })
}
