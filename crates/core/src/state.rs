//! Shared vertex-state storage.
//!
//! FlashGraph keeps one small user-defined state per vertex in a flat
//! array. Workers mutate states without locks under the engine's
//! exclusivity discipline (§3.4.1, §3.8.1):
//!
//! 1. during the compute phase every callback for a vertex runs
//!    under that vertex's *busy bit* (`AtomicBitmap::set_sync` /
//!    `clear_sync`, an AcqRel fetch-or/fetch-and pair). A vertex is
//!    claimed by exactly one worker via an atomic cursor, but a
//!    delivery may execute on *any* worker (pulled from the shared
//!    ready pool), so the bit is load-bearing twice over: it makes
//!    callbacks for one vertex mutually exclusive, and its
//!    release/acquire pair publishes each callback's state writes to
//!    whichever worker runs the next one;
//! 2. during the barrier phases (message delivery, iteration-end
//!    callbacks) only the owning partition's worker touches it;
//! 3. phases are separated by barriers (the pipelined scheduler
//!    keeps exactly the iteration-boundary ones).
//!
//! `SharedStates` encodes that contract in one `unsafe` spot instead
//! of sprinkling `unsafe` through the engine.
//!
//! The busy-bit half of the contract is model-checked: `fg_check`'s
//! `busy_bit` harness explores the shipped set_sync/clear_sync over
//! all bounded interleavings, and its `RelaxedSync` fault shows the
//! AcqRel pair is load-bearing — downgrading it keeps mutual
//! exclusion but loses publication (a data race on the protected
//! state). See `crates/check` and `tests/check_models.rs`.
//!
//! The contract is strictly *per run*: every run — including each of
//! the many concurrent queries a [`crate::GraphService`] multiplexes
//! over one shared mount — owns its own `SharedStates` and its own
//! worker pool. Nothing here is ever shared across runs; the state
//! vector is the per-query half of the serving layer's
//! shared-backend/private-state split.

use std::cell::UnsafeCell;

/// A fixed-size array of per-vertex states, mutably shareable across
/// the engine's workers under the exclusivity discipline above.
pub(crate) struct SharedStates<S> {
    cells: UnsafeCell<Vec<S>>,
}

// SAFETY: access discipline documented on the type; the engine's
// barrier structure makes all cross-thread access to a given element
// happen-before ordered, and no two threads access one element
// concurrently.
unsafe impl<S: Send> Sync for SharedStates<S> {}

impl<S> SharedStates<S> {
    /// Wraps a pre-initialized state vector.
    pub(crate) fn new(states: Vec<S>) -> Self {
        SharedStates {
            cells: UnsafeCell::new(states),
        }
    }

    /// Mutable access to vertex `idx`'s state.
    ///
    /// # Safety
    ///
    /// The caller must hold the engine's exclusivity for `idx`: no
    /// other thread may access element `idx` until the borrow ends.
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn get_mut(&self, idx: usize) -> &mut S {
        let vec: &mut Vec<S> = &mut *self.cells.get();
        &mut vec[idx]
    }

    /// Recovers the state vector once all workers are joined.
    pub(crate) fn into_inner(self) -> Vec<S> {
        self.cells.into_inner()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disjoint_parallel_mutation() {
        let n = 10_000usize;
        let states = SharedStates::new(vec![0u64; n]);
        std::thread::scope(|scope| {
            for t in 0..4usize {
                let states = &states;
                scope.spawn(move || {
                    for i in (t..n).step_by(4) {
                        // SAFETY: each index is touched by exactly one
                        // thread (i % 4 == t partitioning).
                        unsafe {
                            *states.get_mut(i) = i as u64;
                        }
                    }
                });
            }
        });
        let v = states.into_inner();
        assert!(v.iter().enumerate().all(|(i, &x)| x == i as u64));
    }

    #[test]
    fn len_and_into_inner() {
        let s = SharedStates::new(vec![1i32, 2, 3]);
        assert_eq!(s.into_inner(), vec![1, 2, 3]);
    }
}
