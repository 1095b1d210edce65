//! Generation handoff: the atomic flip that retargets new work at a
//! rewritten mount (or any other per-generation resource) while work
//! already pinned to the old generation keeps its `Arc` alive.
//!
//! The serving layer's compactor rewrites the on-SSD image into a new
//! generation and must switch queries over without a stop-the-world:
//! a query *pins* the current generation at admission (cheap `Arc`
//! clone under a read lock) and uses that value for its whole run; the
//! compactor *flips* to the next generation under the write lock. Old
//! generations die when their last pin drops — classic RCU shape, with
//! the `RwLock` standing in for the grace period (readers hold it only
//! for the clone, never across I/O). A flip that must be atomic with
//! some other state change is called from inside that state's critical
//! section: the serving layer flips inside `DeltaLog::fold`'s closure,
//! under the log lock its pins are taken under, so no pin observes the
//! new image *and* the deltas it already absorbed.

use std::sync::Arc;

use fg_types::sync::RwLock;

/// An atomically swappable, generation-numbered `Arc<T>`.
///
/// ```
/// use fg_safs::Handoff;
///
/// let h = Handoff::new("gen0");
/// let (g, pinned) = h.pin();
/// assert_eq!((g, *pinned), (0, "gen0"));
/// h.flip("gen1");
/// assert_eq!(h.generation(), 1);
/// // The earlier pin still sees its snapshot.
/// assert_eq!(*pinned, "gen0");
/// ```
#[derive(Debug)]
pub struct Handoff<T> {
    slot: RwLock<(u64, Arc<T>)>,
}

impl<T> Handoff<T> {
    /// A handoff starting at generation 0 with `value`.
    pub fn new(value: T) -> Self {
        Handoff {
            slot: RwLock::new((0, Arc::new(value))),
        }
    }

    /// The current generation number.
    pub fn generation(&self) -> u64 {
        self.slot.read().0
    }

    /// Pins the current `(generation, value)` — the caller's clone
    /// stays valid across any number of flips.
    pub fn pin(&self) -> (u64, Arc<T>) {
        let g = self.slot.read();
        (g.0, Arc::clone(&g.1))
    }

    /// Atomically installs `value` as the next generation, returning
    /// the new generation number. Pins taken before the flip keep the
    /// old value; pins taken after see only the new one — there is no
    /// in-between state.
    pub fn flip(&self, value: T) -> u64 {
        let mut g = self.slot.write();
        g.0 += 1;
        g.1 = Arc::new(value);
        g.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pins_survive_flips() {
        let h = Handoff::new(vec![1, 2, 3]);
        let (g0, v0) = h.pin();
        assert_eq!(g0, 0);
        assert_eq!(h.flip(vec![4]), 1);
        let (g1, v1) = h.pin();
        assert_eq!((g1, v1.as_slice()), (1, &[4][..]));
        assert_eq!(v0.as_slice(), &[1, 2, 3]);
        assert_eq!(h.generation(), 1);
    }

    #[test]
    fn concurrent_pins_see_a_coherent_pair() {
        let h = Arc::new(Handoff::new(0u64));
        std::thread::scope(|s| {
            let flipper = Arc::clone(&h);
            s.spawn(move || {
                for i in 1..=100 {
                    flipper.flip(i);
                }
            });
            for _ in 0..4 {
                let h = Arc::clone(&h);
                s.spawn(move || {
                    for _ in 0..200 {
                        let (g, v) = h.pin();
                        // Generation g always carries value g.
                        assert_eq!(g, *v);
                    }
                });
            }
        });
    }
}
