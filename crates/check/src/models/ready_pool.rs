//! Work-stealing delivery pool — the model of the pipelined engine's
//! `ReadyPool` (`crates/core/src/engine/pool.rs`: `push_local` /
//! `push_injector` / `pop`): per-worker LIFO deques, a shared injector,
//! FIFO stealing, and the busy-conflict requeue rule in
//! `execute_deliveries` (`engine/worker.rs`).
//!
//! Protocol: a worker pops its own deque first (LIFO), then the
//! injector, then steals the front of a victim's deque. A popped
//! delivery whose requester vertex is busy (another worker is inside
//! one of its callbacks) must be *requeued to the injector* and the
//! worker must stop popping for a while (the engine breaks out of its
//! delivery loop) — dropping the entry would lose the delivery, and
//! retrying in place would spin behind a long callback.
//!
//! Invariants checked:
//! * exactly-once — every enqueued delivery runs exactly once;
//! * deque discipline — all deque access happens under the deque
//!   lock (the engine's equivalent: `Mutex<VecDeque>` per worker).
//!
//! Seeded mutations:
//! * [`Mutation::DropOnConflict`]: a busy-conflicted entry is dropped
//!   instead of requeued — the lost delivery keeps `remaining` above
//!   zero forever and the workers spin into the step bound (livelock).
//! * [`Mutation::StealWithoutLock`]: the thief reads the victim's
//!   deque without taking its lock — a data race against the owner's
//!   own pops.

use crate::sync::{cspawn, cyield, CAtomicU64, CBitmap, CCell, CMutex, Ordering};
use crate::{check_assert, explore, Config, Report};
use std::sync::Arc;

/// Seeded protocol edits the checker must catch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// Drop a busy-conflicted delivery instead of requeueing it.
    DropOnConflict,
    /// Steal from a victim's deque without holding its lock.
    StealWithoutLock,
}

impl Mutation {
    pub const ALL: [Mutation; 2] = [Mutation::DropOnConflict, Mutation::StealWithoutLock];
}

const WORKERS: usize = 2;
/// Both deliveries target vertex 0, so one worker's callback can hold
/// the busy bit while the other pops the second delivery — the
/// conflict path under test.
const ITEMS: usize = 2;

struct Deque {
    lock: CMutex<()>,
    slots: CCell<Vec<u64>>,
}

struct Model {
    deques: Vec<Deque>,
    injector: CMutex<Vec<u64>>,
    busy: CBitmap,
    counts: Vec<CCell<u64>>,
    remaining: CAtomicU64,
    mutation: Option<Mutation>,
}

impl Model {
    /// Pop order: own LIFO → injector → steal victim FIFO.
    fn pop(&self, me: usize) -> Option<u64> {
        let own = {
            let _g = self.deques[me].lock.lock();
            self.deques[me].slots.write(|v| v.pop())
        };
        if own.is_some() {
            return own;
        }
        let inj = self.injector.lock().pop();
        if inj.is_some() {
            return inj;
        }
        let victim = (me + 1) % WORKERS;
        if self.mutation == Some(Mutation::StealWithoutLock) {
            // Mutated: racy read-modify-write of the victim's deque.
            self.deques[victim].slots.write(|v| {
                if v.is_empty() {
                    None
                } else {
                    Some(v.remove(0))
                }
            })
        } else {
            let _g = self.deques[victim].lock.lock();
            self.deques[victim].slots.write(|v| {
                if v.is_empty() {
                    None
                } else {
                    Some(v.remove(0))
                }
            })
        }
    }

    fn run_worker(&self, me: usize) {
        // ordering: Acquire pairs with the AcqRel decrement after each
        // delivery, publishing the delivered state to the exiting
        // worker.
        while self.remaining.load(Ordering::Acquire) > 0 {
            let Some(item) = self.pop(me) else {
                cyield();
                continue;
            };
            // Every delivery in this model targets vertex 0.
            if self.busy.set_sync(0) {
                // Conflict: the requester is inside another worker's
                // callback.
                if self.mutation == Some(Mutation::DropOnConflict) {
                    // Mutated: the delivery is silently lost.
                    continue;
                }
                // Faithful: requeue to the injector and stop popping
                // for now (the engine breaks out of its delivery loop
                // here — the next pop could return the same entry).
                self.injector.lock().push(item);
                cyield();
                continue;
            }
            self.counts[item as usize].write(|c| *c += 1);
            self.busy.clear_sync(0);
            // ordering: AcqRel — release publishes the delivery,
            // acquire chains earlier decrements for the final
            // exactly-once read.
            self.remaining.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

/// Explores the protocol; `mutation: None` is the faithful model.
pub fn check(mutation: Option<Mutation>, cfg: &Config) -> Report {
    let cfg = cfg.clone();
    explore(&cfg, move || {
        let m = Arc::new(Model {
            deques: (0..WORKERS)
                .map(|w| Deque {
                    lock: CMutex::new(&format!("deque{}.lock", w), ()),
                    slots: CCell::new(&format!("deque{}.slots", w), vec![w as u64]),
                })
                .collect(),
            injector: CMutex::new("injector", Vec::new()),
            // ordering: the busy bit's real AcqRel contract — this
            // model checks the pool, not the bit downgrade.
            busy: CBitmap::new("busy", 1, Ordering::AcqRel),
            counts: (0..ITEMS)
                .map(|i| CCell::new(&format!("count{}", i), 0u64))
                .collect(),
            remaining: CAtomicU64::new("remaining", ITEMS as u64),
            mutation,
        });

        let mut handles = Vec::new();
        for w in 0..WORKERS {
            let m = m.clone();
            handles.push(cspawn(move || m.run_worker(w)));
        }
        for h in handles {
            h.join();
        }
        // Joins give the root the happens-before edge for these reads.
        for c in &m.counts {
            c.read(|v| {
                check_assert(*v == 1, "every delivery runs exactly once");
            });
        }
    })
}
