//! The claim layer (§3.7, §3.8.1): the build step collects and orders
//! a partition's active vertices, the compute step claims them a *run*
//! at a time — over a mount up to `2^r` consecutive entries of one
//! partition's list, `r` the partition function's range shift; in
//! memory, where nothing sweeps, one — own partition first, then
//! stolen.
//!
//! Invariant owned here: an active list is written by its owner before
//! the phase barrier and only read after it, and a cursor only moves
//! forward, by the run length, so every active vertex is claimed
//! exactly once, in a run whose bounds are fixed offsets of its list
//! whoever claims it, and exhaustion is permanent within an iteration.
//! A run is the unit whose requests are read one of two ways — swept
//! on the claiming worker or selected through the I/O threads — and
//! then delivered the one way, through the ready pool (`worker.rs`);
//! since runs cut at fixed offsets, which requests sweep does not
//! depend on the schedule. Priced, with `pool.rs`, by the ledger's
//! `engine.noop_ns_per_vertex`.

use fg_types::sync::{AtomicUsize, Ordering};
use std::cell::UnsafeCell;

use fg_types::{AtomicBitmap, VertexId};

use super::worker::WorkerEnv;
use crate::config::SchedulerKind;
use crate::program::VertexProgram;

/// Double-buffered frontier bitmaps, flipped at each barrier.
pub(super) struct Frontiers {
    maps: [AtomicBitmap; 2],
    flip: AtomicUsize,
}

impl Frontiers {
    pub(super) fn new(n: usize) -> Self {
        Frontiers {
            maps: [AtomicBitmap::new(n), AtomicBitmap::new(n)],
            flip: AtomicUsize::new(0),
        }
    }

    pub(super) fn cur(&self) -> &AtomicBitmap {
        &self.maps[self.flip.load(Ordering::Acquire) & 1]
    }

    pub(super) fn next(&self) -> &AtomicBitmap {
        &self.maps[(self.flip.load(Ordering::Acquire) + 1) & 1]
    }

    /// Makes `next` current and clears the old frontier. Called by
    /// one thread between barriers.
    pub(super) fn swap(&self) {
        let old = self.flip.fetch_add(1, Ordering::AcqRel) & 1;
        self.maps[old].clear_all();
    }
}

/// Per-partition active lists plus one steal cursor each.
///
/// Lists are written by their owner during the build phase and read
/// by every worker during the compute phase; the two phases are
/// separated by a barrier (same discipline as `SharedStates`).
pub(super) struct ActiveSet {
    lists: Vec<UnsafeCell<Vec<VertexId>>>,
    cursors: Vec<AtomicUsize>,
}

// SAFETY: see the struct docs — phase discipline plus barriers.
unsafe impl Sync for ActiveSet {}

impl ActiveSet {
    pub(super) fn new(parts: usize) -> Self {
        ActiveSet {
            lists: (0..parts).map(|_| UnsafeCell::new(Vec::new())).collect(),
            cursors: (0..parts).map(|_| AtomicUsize::new(0)).collect(),
        }
    }

    /// Owner installs its list and rewinds its cursor (build phase).
    pub(super) fn install(&self, part: usize, list: Vec<VertexId>) {
        // SAFETY: only the owner writes, before the phase barrier.
        unsafe {
            *self.lists[part].get() = list;
        }
        // ordering: the phase barrier publishes the reset.
        self.cursors[part].store(0, Ordering::Relaxed);
    }

    /// Claims the next run of up to `len` entries of `part`'s list, if
    /// any: entries `[k·len, (k+1)·len)` for the next `k`.
    pub(super) fn claim(&self, part: usize, len: usize) -> Option<&[VertexId]> {
        // SAFETY: compute phase — lists are read-only.
        let list = unsafe { &*self.lists[part].get() };
        // ordering: racy fast-path check; the RMW below is authoritative.
        if self.cursors[part].load(Ordering::Relaxed) >= list.len() {
            return None;
        }
        // ordering: a claim needs only RMW atomicity — the list being
        // claimed from was published by the phase barrier, not by the
        // cursor.
        let c = self.cursors[part].fetch_add(len, Ordering::Relaxed);
        list.get(c..c + len.min(list.len().saturating_sub(c)))
            .filter(|run| !run.is_empty())
    }
}

impl<'r, P: VertexProgram> WorkerEnv<'r, '_, P> {
    /// Collects the active vertices of this partition in id order.
    pub(super) fn collect_active(&self) -> Vec<VertexId> {
        self.partition_ones(self.frontiers.cur())
    }

    /// The set bits of `map` in this worker's partition, ascending, in
    /// a list allocated once at its length: counting first costs a
    /// walk of the set bits, growing by doubling a dozen allocations
    /// of an all-active partition.
    pub(super) fn partition_ones(&self, map: &AtomicBitmap) -> Vec<VertexId> {
        let ranges = || self.shared.pmap.ranges_of(self.w);
        let len = ranges().map(|r| map.iter_ones_in_range(r).count()).sum();
        let mut list = Vec::with_capacity(len);
        for range in ranges() {
            list.extend(map.iter_ones_in_range(range));
        }
        list
    }

    /// Orders an active list by the configured scheduler (§3.7).
    pub(super) fn apply_scheduler(&self, iter: u32, list: &mut [VertexId]) {
        match self.engine.cfg.scheduler {
            SchedulerKind::ById => {}
            SchedulerKind::Alternating => {
                if iter % 2 == 1 {
                    list.reverse();
                }
            }
            SchedulerKind::Random(seed) => {
                let mut s = seed ^ (iter as u64).wrapping_mul(0x9E3779B97F4A7C15);
                let mut next = move || {
                    s ^= s << 13;
                    s ^= s >> 7;
                    s ^= s << 17;
                    s
                };
                // Fisher–Yates with the xorshift stream.
                for i in (1..list.len()).rev() {
                    let j = (next() % (i as u64 + 1)) as usize;
                    list.swap(i, j);
                }
            }
            SchedulerKind::DegreeDescending(dir) => {
                list.sort_by_key(|&v| std::cmp::Reverse(self.shared.degrees.degree(v, dir)));
            }
        }
    }

    /// The next run of up to `len` active vertices: from this worker's
    /// own partition while it lasts, then stolen from the others in
    /// turn (§3.8.1).
    pub(super) fn claim(&self, nparts: usize, len: usize) -> Option<&'r [VertexId]> {
        (0..nparts).find_map(|k| self.active.claim((self.w + k) % nparts, len))
    }
}
