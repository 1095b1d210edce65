//! The six synchronization protocols under the checker, each explored
//! as shipped with the seeded mutations it must catch. The `path`
//! attributes below *mount* shipped source files (the ones `fg_types`,
//! `fg_safs` and `flashgraph` build, not copies) as children of this
//! module, where the `super::sync::…` they name every primitive by is
//! [`crate::sync`], the instrumented doubles: every access in the
//! shipped statements is a schedule point. (`fg_check --lint`'s
//! `checked-imports` rule reads the mount list from these attributes.)
//!
//! The other modules are *harnesses*: threads, `CCell` payloads,
//! invariants, and what a caller hands the mounted code (a delivery
//! round's closures, a session's mount, an I/O thread's device). Each
//! has a `Mutation` enum and `check(mutation, cfg)`: what a *caller*
//! gets wrong is a switch in what the harness hands over, what the
//! *protocol* gets wrong a [`crate::Fault`] the doubles inject, so no
//! shipped file carries fault code. Unmutated, each must pass
//! exhaustive bounded exploration; mutated, each must produce a
//! counterexample (`tests/check_models.rs` pins both directions).
//!
//! To put another protocol under the checker: write it against
//! `super::sync` only, the rest behind a closure or a trait, mount its
//! file here, write a harness, name its faults.

use std::ops::Range;

use crate::sync::{self, cyield};
use fg_safs::{CacheStats, Page, PageSpan};
use fg_types::VertexId;
use shipped_bitmap::AtomicBitmap;
use shipped_pool::{ReadyPool, Round};

#[path = "../../../types/src/bitmap.rs"]
pub mod shipped_bitmap;
#[path = "../../../core/src/serve/gate.rs"]
mod shipped_gate;
#[path = "../../../safs/src/inflight.rs"]
mod shipped_inflight;
#[path = "../../../safs/src/io_thread.rs"]
mod shipped_io_thread;
#[path = "../../../core/src/engine/pool.rs"]
mod shipped_pool;
// `PoisonGuard` is the one item no harness can use: its `Drop` acts only
// while its thread unwinds, when a double is a plain value and nothing
// is a schedule point (see `crate::sync`), so harnesses call `poison`
// themselves.
#[allow(dead_code)]
#[path = "../../../core/src/rendezvous.rs"]
mod shipped_rendezvous;
// `kick`, `poll` and `wait_timeout` run only inside `wait` here.
#[allow(dead_code)]
#[path = "../../../safs/src/session.rs"]
mod shipped_session;
// The SAFS files name each other as `fg_safs` mounts them.
use {shipped_inflight as inflight, shipped_io_thread as io_thread};

pub mod busy_bit;
pub mod gate;
pub mod inflight_waiter;
pub mod quiesce;
pub mod ready_pool;
pub mod rendezvous;

/// A harness's pool entry: deliveries by item index, and the `Shape`
/// of its side of `pool.rs`'s `Run`. `Shipped` walks every delivery
/// and requeues a conflicted one alone, as the engine's entries do;
/// `FirstOnly` walks only the first; `Lossy` requeues a conflicted
/// delivery as a run of none.
#[derive(Clone, Debug)]
struct Entry(Range<u32>, Shape);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Shape {
    Shipped,
    FirstOnly,
    Lossy,
}

impl shipped_pool::Run for Entry {
    fn parts(&self) -> Range<u32> {
        let Entry(items, shape) = self;
        let end = if *shape == Shape::FirstOnly {
            items.start + 1
        } else {
            items.end
        };
        items.start..end
    }

    fn only(&self, i: u32) -> Self {
        Entry(i..i + u32::from(self.1 != Shape::Lossy), self.1)
    }
}

/// A pool past its claim phase: worker `w`'s deque holds `entries[w]`,
/// an obligation is open for each of its deliveries, and every worker
/// has announced.
fn resolved(entries: Vec<Entry>) -> ReadyPool<Entry> {
    let pool = ReadyPool::new(entries.len(), 0);
    for (w, e) in entries.into_iter().enumerate() {
        pool.accept(e.0.len() as u64);
        pool.push_local(w, &mut vec![e]);
        pool.announce_claims_done();
    }
    pool
}

/// Worker `w` of `workers`: delivery rounds of `budget` until the pool
/// quiesces, every delivery for vertex 0 under its busy bit. Delivery
/// `i` runs `deliver(i)` and gives the bit back if `clear(i)`.
fn busy_rounds(
    (pool, busy): (&ReadyPool<Entry>, &AtomicBitmap),
    (w, workers, budget): (usize, usize, usize),
    clear: impl Fn(u32) -> bool,
    deliver: impl Fn(u32),
) {
    let mut round = Round::default();
    while !pool.quiesced(workers) {
        let set_sync = |_: &Entry, _| busy.set_sync(VertexId(0));
        let clear_sync = |_: &Entry, i| clear(i) && busy.clear_sync(VertexId(0));
        let run = pool.deliver_round(w, budget, &mut round, set_sync, clear_sync, |_, i| {
            deliver(i)
        });
        if run == 0 {
            // Nothing ran (an empty pool, or every delivery conflicted):
            // the engine waits or yields here.
            cyield();
        }
    }
}
