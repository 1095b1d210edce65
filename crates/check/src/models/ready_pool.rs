//! Work-stealing delivery pool — a harness around the shipped
//! `ReadyPool::{push_local, push_injector, take}`
//! (`crates/core/src/engine/pool.rs`: per-worker LIFO deques, a shared
//! injector, FIFO stealing of half a deque, a batch per lock) and the
//! busy-conflict requeue rule of `execute_deliveries`
//! (`engine/worker.rs`: not mountable, so the caller's side is
//! transcribed here), over the shipped `AtomicBitmap` busy bit and
//! ending on the shipped `quiesced`.
//!
//! `pool.rs` states the take order; what it moves is an *entry*, a
//! run of k ≥ 1 deliveries the taker walks in place. The caller's half
//! is that a delivery whose requester vertex is busy (another worker
//! is inside one of its callbacks) must be *requeued to the injector,
//! alone* — an entry of one — while the rest of its entry and of the
//! round goes on, its obligation left open: dropping it would lose the
//! delivery, retrying in place would spin behind a callback.
//! Invariants checked: exactly-once (every enqueued delivery runs
//! exactly once, and the pool quiesces only after it has) and deque
//! discipline (a thief and the owner never touch a deque unordered).

use super::shipped_bitmap::AtomicBitmap;
use super::shipped_pool::ReadyPool;
use crate::sync::{cspawn_each, cyield, CCell};
use crate::{check_assert, explore, Config, Fault, Report};
use fg_types::VertexId;
use std::ops::Range;
use std::sync::Arc;

/// A run of deliveries, by their index into `Harness::counts`.
type Entry = Range<usize>;

/// Seeded protocol edits the checker must catch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// Caller: a busy-conflicted delivery is dropped instead of
    /// requeued — its obligation is never released and the workers
    /// spin into the step bound (livelock).
    DropOnConflict,
    /// Fault: `take`'s steal is granted the victim's lock without
    /// acquiring it — a data race against the owner's own takes.
    StealWithoutLock,
}

pub const MUTATIONS: [Mutation; 2] = [Mutation::DropOnConflict, Mutation::StealWithoutLock];

/// The steal in `take`: the fifth `lock` of `pool.rs`, after
/// `push_local`'s, `push_injector`'s, and `take`'s own-deque and
/// injector ones.
const STEAL_WITHOUT_LOCK: Fault = Fault("pool.rs", "lock", 4);

const WORKERS: usize = 2;
/// Worker 0's deque starts with an entry of two deliveries, worker
/// 1's with an entry of one. All three target vertex 0, so one
/// worker's callback can hold the busy bit while the other is part-way
/// through its entry — the conflict path under test.
const RESOLVED: [Entry; WORKERS] = [0..2, 2..3];
const ITEMS: usize = 3;
const V: VertexId = VertexId(0);
const BUDGET: usize = 2;

struct Harness {
    pool: ReadyPool<Entry>,
    busy: AtomicBitmap,
    counts: Vec<CCell<u64>>,
    mutation: Option<Mutation>,
}

impl Harness {
    fn run_worker(&self, me: usize) {
        let (mut round, mut conflicted) = (Vec::<Entry>::new(), Vec::new());
        while !self.pool.quiesced(WORKERS) {
            self.pool.take(me, BUDGET, &mut round);
            let mut executed = 0;
            for item in round.drain(..).flatten() {
                if self.busy.set_sync(V) {
                    // Conflict: the requester is inside another
                    // worker's callback. Set this one delivery aside
                    // for the injector, as an entry of its own, and
                    // carry on with the rest of its entry.
                    // Mutated: the delivery is silently lost instead.
                    if self.mutation != Some(Mutation::DropOnConflict) {
                        conflicted.push(item..item + 1);
                    }
                    continue;
                }
                self.counts[item].write(|c| *c += 1);
                self.busy.clear_sync(V);
                executed += 1;
            }
            if !conflicted.is_empty() {
                self.pool.push_injector(&mut conflicted);
            }
            if executed > 0 {
                self.pool.release(executed);
            } else {
                // Nothing ran (an empty pool, or every delivery
                // conflicted): the engine waits or yields here.
                cyield();
            }
        }
    }
}

/// Explores the protocol; `mutation: None` is the shipped behaviour.
pub fn check(mutation: Option<Mutation>, cfg: &Config) -> Report {
    let faults: &[Fault] = match mutation {
        Some(Mutation::StealWithoutLock) => &[STEAL_WITHOUT_LOCK],
        _ => &[],
    };
    explore(cfg, faults, move || {
        let count = |i| CCell::new(&format!("count{}", i), 0);
        let h = Arc::new(Harness {
            pool: ReadyPool::new(WORKERS),
            busy: AtomicBitmap::new(1),
            counts: (0..ITEMS).map(count).collect(),
            mutation,
        });
        // The claim phase is over before the scenario starts: one
        // resolved entry in each worker's deque, an obligation open
        // for each of its deliveries, every claim announced (`quiesce`
        // explores the announcements).
        for (w, entry) in RESOLVED.iter().enumerate() {
            h.pool.accept(entry.len() as u64);
            h.pool.push_local(w, &mut vec![entry.clone()]);
            h.pool.announce_claims_done();
        }
        let hw = h.clone();
        cspawn_each(WORKERS, move |w| hw.run_worker(w));
        // Joins give the root the happens-before edge for these reads.
        for c in &h.counts {
            c.read(|v| check_assert(*v == 1, "every delivery runs exactly once"));
        }
    })
}
