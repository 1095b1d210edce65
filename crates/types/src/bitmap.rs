//! The fixed-size concurrent bitmap behind the engine's per-vertex
//! sets.
//!
//! FlashGraph activates vertices with multicast messages whose payload
//! is empty (§3.4.1) — the natural dense representation of "the set of
//! vertices active next iteration" is one bit per vertex, and workers
//! activate neighbours in parallel, so every bit operation is atomic.
//! The engine keeps three such sets per run: the frontiers, the
//! vertices registered for `run_on_iteration_end`, and the busy bits
//! that make a vertex's callbacks exclusive.

use super::sync::{AtomicU64, Ordering};
use super::VertexId;

const BITS: usize = 64;

#[inline]
fn word_count(len: usize) -> usize {
    len.div_ceil(BITS)
}

/// A thread-safe bitmap: concurrent `set` from many worker threads.
///
/// This is the activation structure behind FlashGraph's multicast
/// vertex activation: every worker ORs bits in without locks, and the
/// engine swaps bitmaps at the iteration barrier.
///
/// # Example
///
/// ```
/// use fg_types::{AtomicBitmap, VertexId};
///
/// let b = AtomicBitmap::new(128);
/// assert!(!b.set(VertexId(100)));
/// assert!(b.set(VertexId(100)), "set reports the bit it found");
/// let ones: Vec<_> = b.iter_ones_in_range(64..128).collect();
/// assert_eq!(ones, vec![VertexId(100)]);
/// ```
#[derive(Debug)]
pub struct AtomicBitmap {
    words: Vec<AtomicU64>,
    len: usize,
}

impl AtomicBitmap {
    /// Creates a bitmap of `len` bits, all clear.
    pub fn new(len: usize) -> Self {
        let mut words = Vec::with_capacity(word_count(len));
        words.resize_with(word_count(len), || AtomicU64::new(0));
        AtomicBitmap { words, len }
    }

    /// Atomically sets the bit for `v`, returning the previous value.
    ///
    /// Uses relaxed ordering: activation bits carry no data
    /// dependencies; the iteration barrier provides the necessary
    /// synchronization.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn set(&self, v: VertexId) -> bool {
        let i = self.check(v);
        let mask = 1u64 << (i % BITS);
        // ordering: activation bits carry no payload; the iteration
        // barrier publishes them (doc contract above).
        self.words[i / BITS].fetch_or(mask, Ordering::Relaxed) & mask != 0
    }

    /// Atomically clears the bit for `v`, returning the previous value.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn clear(&self, v: VertexId) -> bool {
        let i = self.check(v);
        let mask = 1u64 << (i % BITS);
        // ordering: same contract as [`AtomicBitmap::set`].
        self.words[i / BITS].fetch_and(!mask, Ordering::Relaxed) & mask != 0
    }

    /// [`AtomicBitmap::set`] with acquire-release ordering: usable as
    /// a per-bit try-lock. A `false` return means the bit was clear
    /// and this thread now owns it, with a happens-before edge from
    /// the previous owner's [`AtomicBitmap::clear_sync`] — the
    /// pipelined engine guards per-vertex state with exactly this
    /// (relaxed `set`/`clear` only order the bit, not the data the
    /// bit protects).
    ///
    /// The exclusivity-plus-publication contract is model-checked, as
    /// shipped: `fg_check` compiles this file against its instrumented
    /// atomics, its `busy_bit` harness explores these two functions
    /// under exhaustive small-bound interleaving, and its `RelaxedSync`
    /// fault (AcqRel→Relaxed on both) shows the downgrade losing the
    /// publication (`cargo test --test check_models`).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn set_sync(&self, v: VertexId) -> bool {
        let i = self.check(v);
        let mask = 1u64 << (i % BITS);
        self.words[i / BITS].fetch_or(mask, Ordering::AcqRel) & mask != 0
    }

    /// [`AtomicBitmap::clear`] with acquire-release ordering: the
    /// unlock half of [`AtomicBitmap::set_sync`], publishing every
    /// write made while the bit was held to its next owner.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn clear_sync(&self, v: VertexId) -> bool {
        let i = self.check(v);
        let mask = 1u64 << (i % BITS);
        self.words[i / BITS].fetch_and(!mask, Ordering::AcqRel) & mask != 0
    }

    /// Clears every bit. Not atomic as a whole; callers run it at
    /// barriers when no other thread touches the map.
    pub fn clear_all(&self) {
        for w in &self.words {
            // ordering: barrier-only operation (doc contract above).
            w.store(0, Ordering::Relaxed);
        }
    }

    /// Number of set bits (consistent only at barriers).
    pub fn count_ones(&self) -> usize {
        self.words
            .iter()
            // ordering: barrier-only operation (doc contract above).
            .map(|w| w.load(Ordering::Relaxed).count_ones() as usize)
            .sum()
    }

    /// Iterates over set bits whose index lies in `range`
    /// (half-open, clamped to the map), ascending; consistent only at
    /// barriers. Loads only the words the range touches, so walking a
    /// partition's ranges costs time proportional to the ranges, not
    /// the whole bitmap.
    pub fn iter_ones_in_range(
        &self,
        range: std::ops::Range<usize>,
    ) -> impl Iterator<Item = VertexId> + '_ {
        let end = range.end.min(self.len);
        let lo = range.start.min(end);
        let word_idx = lo / BITS;
        let current = if lo < end {
            // Mask off bits below `lo` in the first word.
            // ordering: barrier-only operation (doc contract above).
            self.words[word_idx].load(Ordering::Relaxed) & (u64::MAX << (lo % BITS))
        } else {
            0
        };
        AtomicIterOnes {
            map: self,
            word_idx,
            end,
            current,
        }
    }

    #[inline]
    fn check(&self, v: VertexId) -> usize {
        let i = v.index();
        assert!(i < self.len, "bit {i} out of range ({} bits)", self.len);
        i
    }
}

struct AtomicIterOnes<'a> {
    map: &'a AtomicBitmap,
    word_idx: usize,
    /// One past the last bit the walk may yield.
    end: usize,
    current: u64,
}

impl Iterator for AtomicIterOnes<'_> {
    type Item = VertexId;

    fn next(&mut self) -> Option<VertexId> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                let idx = self.word_idx * BITS + bit;
                return (idx < self.end).then(|| VertexId::from_index(idx));
            }
            self.word_idx += 1;
            if self.word_idx * BITS >= self.end {
                return None;
            }
            // ordering: barrier-only operation (doc contract above).
            self.current = self.map.words[self.word_idx].load(Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear_round_trip() {
        let b = AtomicBitmap::new(130);
        let ones = |b: &AtomicBitmap| b.iter_ones_in_range(0..130).count();
        assert!(!b.set(VertexId(129)));
        assert_eq!(ones(&b), 1);
        assert!(b.clear(VertexId(129)));
        assert_eq!(ones(&b), 0);
    }

    #[test]
    fn iter_ones_crosses_word_boundaries() {
        let b = AtomicBitmap::new(200);
        for i in [0usize, 63, 64, 65, 127, 128, 199] {
            b.set(VertexId::from_index(i));
        }
        let got: Vec<usize> = b.iter_ones_in_range(0..200).map(|v| v.index()).collect();
        assert_eq!(got, vec![0, 63, 64, 65, 127, 128, 199]);
    }

    #[test]
    fn count_ones_matches_iter() {
        let b = AtomicBitmap::new(77);
        for i in (0..77).step_by(3) {
            b.set(VertexId::from_index(i));
        }
        assert_eq!(b.count_ones(), b.iter_ones_in_range(0..77).count());
    }

    #[test]
    fn clear_all_resets() {
        let b = AtomicBitmap::new(10);
        b.set(VertexId(1));
        b.set(VertexId(9));
        b.clear_all();
        assert_eq!(b.count_ones(), 0);
    }

    #[test]
    fn empty_bitmap_iterates_nothing() {
        let b = AtomicBitmap::new(0);
        assert_eq!(b.count_ones(), 0);
        assert_eq!(b.iter_ones_in_range(0..10).count(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_set_panics() {
        let b = AtomicBitmap::new(8);
        b.set(VertexId(8));
    }

    #[test]
    fn atomic_set_reports_previous() {
        let b = AtomicBitmap::new(66);
        assert!(!b.set(VertexId(65)));
        assert!(b.set(VertexId(65)));
        assert!(b.clear(VertexId(65)));
        assert!(!b.clear(VertexId(65)));
    }

    #[test]
    fn set_sync_is_a_per_bit_mutex() {
        // 8 threads contend on one bit-guarded counter; the total must
        // be exact if set_sync/clear_sync give mutual exclusion and
        // publish the protected writes.
        struct Shared(std::cell::UnsafeCell<u64>);
        // SAFETY: every access happens under the bit in the test body.
        unsafe impl Send for Shared {}
        // SAFETY: same discipline as Send above.
        unsafe impl Sync for Shared {}
        let b = std::sync::Arc::new(AtomicBitmap::new(1));
        let counter = std::sync::Arc::new(Shared(std::cell::UnsafeCell::new(0u64)));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let b = b.clone();
            let c = counter.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    while b.set_sync(VertexId(0)) {
                        std::hint::spin_loop();
                    }
                    // SAFETY: the bit is held; we are the only writer.
                    unsafe { *c.0.get() += 1 };
                    b.clear_sync(VertexId(0));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // SAFETY: all writer threads are joined; no aliasing remains.
        assert_eq!(unsafe { *counter.0.get() }, 80_000);
    }

    #[test]
    fn atomic_iter_range() {
        let b = AtomicBitmap::new(300);
        for i in (0..300).step_by(10) {
            b.set(VertexId::from_index(i));
        }
        let got: Vec<usize> = b.iter_ones_in_range(95..201).map(|v| v.index()).collect();
        assert_eq!(
            got,
            vec![100, 110, 120, 130, 140, 150, 160, 170, 180, 190, 200]
        );
    }

    #[test]
    fn atomic_parallel_set_is_exact() {
        let b = std::sync::Arc::new(AtomicBitmap::new(10_000));
        let mut handles = Vec::new();
        for t in 0..8 {
            let b = b.clone();
            handles.push(std::thread::spawn(move || {
                for i in (t..10_000).step_by(8) {
                    b.set(VertexId::from_index(i));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(b.count_ones(), 10_000);
    }

    #[test]
    fn last_partial_word_bits_beyond_len_ignored() {
        // 70 bits: the second word has 6 valid bits only.
        let b = AtomicBitmap::new(70);
        b.set(VertexId(69));
        let got: Vec<usize> = b
            .iter_ones_in_range(0..usize::MAX)
            .map(|v| v.index())
            .collect();
        assert_eq!(got, vec![69]);
    }
}
