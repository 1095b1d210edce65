//! `SemIo` flush gate — the model of the engine's buffering I/O
//! front end (`SemIo` in `crates/core/src/engine/sem_io.rs`:
//! `outstanding` / `buffered`, `flush_if_full`, and the stall-point
//! flush a waiting `harvest` makes), and of the PR 6 livelock it once
//! had.
//!
//! Still a *model*, kept in step by review: `SemIo`'s gate is driven
//! by replies arriving over an `IoSession`'s channel from an I/O
//! thread, and the checker has no channel double yet (a later issue).
//!
//! Protocol: requests accumulate in a buffered queue and are issued to
//! the device in batches of `ISSUE_BATCH`, at most `MAX_PENDING` in
//! flight. A waiter that needs completions must *also* flush a partial
//! batch whenever nothing is in flight — otherwise a tail of fewer
//! than `ISSUE_BATCH` requests never reaches the device and the waiter
//! spins forever.
//!
//! Invariants checked:
//! * progress — `wait_for_completions` terminates with every buffered
//!   request completed (the step bound converts a spin into a
//!   [`crate::FailureKind::Livelock`]);
//! * accounting — completions equal issues (no request lost between
//!   the queues).
//!
//! Seeded mutation:
//! * [`Mutation::SizeTriggerOnly`]: the pre-PR 6 bug — flushing only
//!   on the batch-size trigger. With a tail smaller than
//!   `ISSUE_BATCH`, the waiter and the device both spin: the checker
//!   reports a livelock, reproducing the PR 6 hang as a
//!   counterexample trace.

use crate::sync::{cspawn, cyield, AtomicBool, AtomicU64, Mutex, Ordering};
use crate::{check_assert, explore, Config, Report};
use std::sync::Arc;

/// Seeded protocol edits the checker must catch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// Flush on the batch-size trigger only — the PR 6 livelock.
    SizeTriggerOnly,
}

pub const MUTATIONS: [Mutation; 1] = [Mutation::SizeTriggerOnly];

/// Requests submitted — deliberately smaller than [`ISSUE_BATCH`] so
/// the size trigger alone never fires.
const REQUESTS: u64 = 3;
const ISSUE_BATCH: usize = 4;
const MAX_PENDING: u64 = 2;

struct Model {
    buffered: Mutex<Vec<u64>>,
    issued: Mutex<Vec<u64>>,
    in_flight: AtomicU64,
    completed: AtomicU64,
    done: AtomicBool,
    mutation: Option<Mutation>,
}

impl Model {
    /// Moves up to `MAX_PENDING - in_flight` buffered requests to the
    /// device queue.
    fn flush_partial(&self) {
        // ordering: Acquire pairs with the device's AcqRel decrement;
        // the pending budget must reflect retired requests.
        let budget = MAX_PENDING - self.in_flight.load(Ordering::Acquire);
        let mut buf = self.buffered.lock();
        let n = buf.len().min(budget as usize);
        if n == 0 {
            return;
        }
        let batch: Vec<u64> = buf.drain(..n).collect();
        drop(buf);
        // ordering: AcqRel — release publishes the drained queue state
        // with the in-flight count; acquire chains the device's
        // concurrent retires into this RMW.
        self.in_flight.fetch_add(n as u64, Ordering::AcqRel);
        self.issued.lock().extend(batch);
    }

    fn submitter(&self) {
        for r in 0..REQUESTS {
            let mut buf = self.buffered.lock();
            buf.push(r);
            let full = buf.len() >= ISSUE_BATCH;
            drop(buf);
            if full {
                // The size trigger — never reached with REQUESTS <
                // ISSUE_BATCH; kept for fidelity to the real code.
                self.flush_partial();
            }
        }
        // wait_for_completions: spin until everything retired.
        // ordering: Acquire pairs with the device's AcqRel completion
        // counting — the exit condition reads retired state.
        while self.completed.load(Ordering::Acquire) < REQUESTS {
            if self.mutation != Some(Mutation::SizeTriggerOnly) {
                // The PR 6 fix: a waiter with nothing in flight must
                // flush the sub-batch tail itself.
                // ordering: Acquire — same pairing as the loop
                // condition above.
                if self.in_flight.load(Ordering::Acquire) == 0 {
                    self.flush_partial();
                }
            }
            cyield();
        }
        check_assert(
            self.buffered.lock().is_empty(),
            "wait_for_completions leaves no buffered tail",
        );
        // ordering: Release publishes the final accounting to the
        // device thread's exit check.
        self.done.store(true, Ordering::Release);
    }

    fn device(&self) {
        // ordering: Acquire pairs with the submitter's Release store
        // of `done`.
        while !self.done.load(Ordering::Acquire) {
            let req = self.issued.lock().pop();
            match req {
                Some(_r) => {
                    // ordering: AcqRel — release publishes the retire
                    // to the waiter's Acquire loads; acquire chains
                    // earlier retires into the RMW.
                    self.completed.fetch_add(1, Ordering::AcqRel);
                    self.in_flight.fetch_sub(1, Ordering::AcqRel);
                }
                None => cyield(),
            }
        }
    }
}

/// Explores the protocol; `mutation: None` is the faithful model.
pub fn check(mutation: Option<Mutation>, cfg: &Config) -> Report {
    let cfg = cfg.clone();
    explore(&cfg, move || {
        let m = Arc::new(Model {
            buffered: Mutex::new(Vec::new()),
            issued: Mutex::new(Vec::new()),
            in_flight: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            done: AtomicBool::new(false),
            mutation,
        });

        let dev = {
            let m = m.clone();
            cspawn(move || m.device())
        };
        let sub = {
            let m = m.clone();
            cspawn(move || m.submitter())
        };
        sub.join();
        dev.join();
        check_assert(
            // ordering: Relaxed — the joins above are the
            // happens-before edge for this read.
            m.completed.load(Ordering::Relaxed) == REQUESTS,
            "every submitted request completed",
        );
        check_assert(
            // ordering: Relaxed — same join edge as above.
            m.in_flight.load(Ordering::Relaxed) == 0,
            "completions and issues balance",
        );
    })
}
