//! The set-associative page cache (§3.1; Zheng et al., HotStorage'12).
//!
//! Pages hash to one of many small *sets*; each set holds a handful of
//! pages (the associativity), its own lock, and a gclock hand. The
//! scheme trades a little hit-rate (a hot page can only live in its
//! home set) for near-perfect lock scalability — the property the
//! paper leans on: "this page cache reduces locking overhead and
//! incurs little overhead when the cache hit rate is low".

use std::sync::Arc;

use fg_types::sync::Counter;
use parking_lot::Mutex;

use crate::page::Page;

/// Live cache counters.
///
/// One instance lives inside every [`PageCache`]; additional
/// free-standing instances act as per-session *scopes*
/// ([`crate::Safs::session_scoped`]) that accumulate only the lookups
/// one tenant performed against a shared cache.
#[derive(Debug, Default)]
pub struct CacheStats {
    lookups: Counter,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    insertions: Counter,
}

impl CacheStats {
    /// Takes a snapshot of the counters.
    pub fn snapshot(&self) -> CacheStatsSnapshot {
        CacheStatsSnapshot {
            lookups: self.lookups.get(),
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
            insertions: self.insertions.get(),
        }
    }

    /// Records one lookup outcome (used by scoped per-session stats;
    /// the cache's own counters are maintained by [`PageCache::get`]).
    pub fn record_lookup(&self, hit: bool) {
        self.lookups.inc();
        if hit {
            self.hits.inc();
        } else {
            self.misses.inc();
        }
    }

    /// Resets the counters.
    pub fn reset(&self) {
        self.lookups.set(0);
        self.hits.set(0);
        self.misses.set(0);
        self.evictions.set(0);
        self.insertions.set(0);
    }
}

/// A point-in-time copy of [`CacheStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStatsSnapshot {
    /// Counted lookups (always `hits + misses`).
    pub lookups: u64,
    /// Lookups that found their page.
    pub hits: u64,
    /// Lookups that did not.
    pub misses: u64,
    /// Pages pushed out by gclock.
    pub evictions: u64,
    /// Pages inserted.
    pub insertions: u64,
}

impl CacheStatsSnapshot {
    /// Folds `other` into `self` — the aggregate view over several
    /// independent caches (one per shard mount).
    pub fn absorb(&mut self, other: &CacheStatsSnapshot) {
        self.lookups += other.lookups;
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.insertions += other.insertions;
    }

    /// Hit fraction in `[0, 1]`; 0 when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Counter-wise difference `self - earlier`, isolating one
    /// experiment phase.
    ///
    /// Saturating: if [`CacheStats::reset`] ran between the two
    /// snapshots, `earlier` can exceed `self`; each counter clamps at
    /// zero instead of panicking (debug) or wrapping (release).
    pub fn delta_since(&self, earlier: &CacheStatsSnapshot) -> CacheStatsSnapshot {
        CacheStatsSnapshot {
            lookups: self.lookups.saturating_sub(earlier.lookups),
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            insertions: self.insertions.saturating_sub(earlier.insertions),
        }
    }
}

struct Slot {
    pageno: u64,
    page: Arc<Page>,
    /// gclock reference counter; hits increment, the hand decrements.
    hits: u8,
}

struct CacheSet {
    slots: Vec<Slot>,
    hand: usize,
}

impl CacheSet {
    fn lookup(&mut self, pageno: u64) -> Option<Arc<Page>> {
        for s in &mut self.slots {
            if s.pageno == pageno {
                s.hits = s.hits.saturating_add(1);
                return Some(Arc::clone(&s.page));
            }
        }
        None
    }

    /// Inserts `page`, evicting via gclock when the set is full.
    /// Returns whether an eviction happened.
    fn insert(&mut self, pageno: u64, page: Arc<Page>, ways: usize) -> bool {
        if let Some(s) = self.slots.iter_mut().find(|s| s.pageno == pageno) {
            // Another thread raced the same page in; refresh it.
            s.page = page;
            return false;
        }
        if self.slots.len() < ways {
            self.slots.push(Slot {
                pageno,
                page,
                hits: 1,
            });
            return false;
        }
        // gclock: sweep the hand, decrementing, until a cold slot.
        loop {
            let s = &mut self.slots[self.hand];
            if s.hits == 0 {
                *s = Slot {
                    pageno,
                    page,
                    hits: 1,
                };
                self.hand = (self.hand + 1) % self.slots.len();
                return true;
            }
            s.hits -= 1;
            self.hand = (self.hand + 1) % self.slots.len();
        }
    }
}

/// The set-associative page cache.
///
/// Capacity zero is legal and turns every lookup into a miss and every
/// insert into a no-op, which is how "no cache" experiment
/// configurations run.
pub struct PageCache {
    sets: Vec<Mutex<CacheSet>>,
    ways: usize,
    stats: CacheStats,
}

impl std::fmt::Debug for PageCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageCache")
            .field("sets", &self.sets.len())
            .field("ways", &self.ways)
            .finish_non_exhaustive()
    }
}

impl PageCache {
    /// A cache of at least `capacity_pages` pages with `ways`
    /// associativity.
    ///
    /// Capacity 0 is the documented no-cache mode (zero sets). For any
    /// other capacity the set count rounds *up* and `ways` is clamped
    /// to the capacity, so small caches (`0 < capacity_pages < ways`)
    /// still hold pages instead of silently degenerating into a
    /// zero-set cache whose lookups can never hit (and whose
    /// `pageno % nsets` indexing would divide by zero).
    pub fn new(capacity_pages: usize, ways: usize) -> Self {
        assert!(ways > 0, "associativity must be positive");
        let ways = if capacity_pages == 0 {
            ways
        } else {
            ways.min(capacity_pages)
        };
        let nsets = capacity_pages.div_ceil(ways);
        let mut sets = Vec::with_capacity(nsets);
        sets.resize_with(nsets, || {
            Mutex::new(CacheSet {
                slots: Vec::with_capacity(ways),
                hand: 0,
            })
        });
        PageCache {
            sets,
            ways,
            stats: CacheStats::default(),
        }
    }

    /// Capacity in pages.
    pub fn capacity_pages(&self) -> usize {
        self.sets.len() * self.ways
    }

    /// Live statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    #[inline]
    fn set_of(&self, pageno: u64) -> usize {
        // Fibonacci multiplicative hash spreads sequential page
        // numbers across sets.
        ((pageno.wrapping_mul(0x9E3779B97F4A7C15)) >> 32) as usize % self.sets.len()
    }

    /// Looks `pageno` up, bumping its gclock counter on a hit.
    pub fn get(&self, pageno: u64) -> Option<Arc<Page>> {
        if self.sets.is_empty() {
            self.stats.record_lookup(false);
            return None;
        }
        let got = self.sets[self.set_of(pageno)].lock().lookup(pageno);
        self.stats.record_lookup(got.is_some());
        got
    }

    /// Like [`PageCache::get`] but without touching the hit/miss
    /// counters — used by I/O threads re-checking for pages that
    /// raced into the cache after the application-side lookup missed
    /// (the "pending page" dedup of real SAFS). Counting these would
    /// double-book the application's miss.
    pub fn get_quiet(&self, pageno: u64) -> Option<Arc<Page>> {
        if self.sets.is_empty() {
            return None;
        }
        self.sets[self.set_of(pageno)].lock().lookup(pageno)
    }

    /// Inserts a freshly read page.
    pub fn insert(&self, page: Arc<Page>) {
        if self.sets.is_empty() {
            return;
        }
        let pageno = page.pageno();
        let evicted = self.sets[self.set_of(pageno)]
            .lock()
            .insert(pageno, page, self.ways);
        self.stats.insertions.inc();
        if evicted {
            self.stats.evictions.inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk_page(no: u64) -> Arc<Page> {
        Arc::new(Page::new(no, vec![no as u8; 16].into_boxed_slice()))
    }

    #[test]
    fn hit_after_insert() {
        let c = PageCache::new(64, 8);
        assert!(c.get(5).is_none());
        c.insert(mk_page(5));
        let p = c.get(5).expect("hit");
        assert_eq!(p.pageno(), 5);
        let s = c.stats().snapshot();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn zero_capacity_never_hits() {
        let c = PageCache::new(0, 8);
        c.insert(mk_page(1));
        assert!(c.get(1).is_none());
        assert_eq!(c.stats().snapshot().insertions, 0);
    }

    #[test]
    fn tiny_capacities_round_up_instead_of_degenerating() {
        // Regression: capacities in 1..2*ways used to truncate to zero
        // or one set — `0 < capacity < ways` built a cache that could
        // never hold a page while still counting misses.
        let ways = 8;
        for capacity in 1..=2 * ways {
            let c = PageCache::new(capacity, ways);
            assert!(
                c.capacity_pages() >= capacity,
                "capacity {capacity}: rounded capacity {} lost pages",
                c.capacity_pages()
            );
            c.insert(mk_page(42));
            assert!(
                c.get(42).is_some(),
                "capacity {capacity}: inserted page not resident"
            );
            // Exercise the set-index path across many page numbers:
            // must never divide by zero and must stay within bounds.
            for no in 0..64 {
                let _ = c.get(no);
                c.insert(mk_page(no));
            }
            let s = c.stats().snapshot();
            assert_eq!(s.lookups, s.hits + s.misses);
        }
    }

    #[test]
    fn ways_clamped_to_capacity() {
        // One page, eight ways: a single one-way set, fully usable.
        let c = PageCache::new(1, 8);
        c.insert(mk_page(7));
        assert!(c.get(7).is_some());
        c.insert(mk_page(8));
        // The second insert must evict (capacity is 1), not grow.
        let s = c.stats().snapshot();
        assert_eq!(s.evictions, 1);
    }

    #[test]
    fn delta_since_saturates_across_reset() {
        // Regression: reset() between snapshots made the earlier
        // snapshot exceed the later one, underflowing delta_since.
        let c = PageCache::new(16, 8);
        c.insert(mk_page(1));
        c.get(1);
        c.get(2);
        let before = c.stats().snapshot();
        c.stats().reset();
        c.get(3);
        let after = c.stats().snapshot();
        let delta = after.delta_since(&before);
        // Post-reset totals are below the pre-reset snapshot: clamp to
        // zero rather than panic/wrap.
        assert_eq!(delta.hits, 0);
        assert_eq!(delta.insertions, 0);
        assert_eq!(delta.misses, 0);
        assert_eq!(delta.lookups, 0);
        // And a well-ordered pair still subtracts exactly.
        let later = {
            c.get(3);
            c.stats().snapshot()
        };
        let d2 = later.delta_since(&after);
        assert_eq!(d2.lookups, 1);
    }

    #[test]
    fn eviction_kicks_in_when_full() {
        // One set of 4 ways: inserting 5 distinct pages must evict.
        let c = PageCache::new(4, 4);
        for no in 0..5 {
            c.insert(mk_page(no));
        }
        let s = c.stats().snapshot();
        assert_eq!(s.insertions, 5);
        assert!(s.evictions >= 1);
        // Exactly 4 of the 5 remain.
        let resident = (0..5).filter(|&no| c.get(no).is_some()).count();
        assert_eq!(resident, 4);
    }

    #[test]
    fn gclock_protects_hot_pages() {
        let c = PageCache::new(4, 4);
        for no in 0..4 {
            c.insert(mk_page(no));
        }
        // Heat page 0 well above the others.
        for _ in 0..10 {
            c.get(0);
        }
        // Stream a burst of cold pages through: the hand must evict
        // the cold originals before it wears the hot page down.
        for no in 100..106 {
            c.insert(mk_page(no));
        }
        assert!(
            c.get(0).is_some(),
            "hot page evicted before colder residents"
        );
        let cold_survivors = (1..4).filter(|&no| c.get(no).is_some()).count();
        assert_eq!(cold_survivors, 0, "cold pages outlived the streaming burst");
    }

    #[test]
    fn duplicate_insert_is_refresh_not_eviction() {
        let c = PageCache::new(4, 4);
        c.insert(mk_page(9));
        c.insert(mk_page(9));
        let s = c.stats().snapshot();
        assert_eq!(s.evictions, 0);
        assert!(c.get(9).is_some());
    }

    #[test]
    fn hit_rate_math() {
        let c = PageCache::new(16, 8);
        c.insert(mk_page(1));
        c.get(1); // hit
        c.get(2); // miss
        c.get(1); // hit
        let s = c.stats().snapshot();
        assert!((s.hit_rate() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn reset_clears_counters() {
        let c = PageCache::new(16, 8);
        c.get(1);
        c.stats().reset();
        let s = c.stats().snapshot();
        assert_eq!((s.hits, s.misses, s.evictions, s.insertions), (0, 0, 0, 0));
    }

    #[test]
    fn concurrent_access_is_safe_and_counted() {
        let c = std::sync::Arc::new(PageCache::new(256, 8));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let c = std::sync::Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for i in 0..1000u64 {
                    let no = (t * 1000 + i) % 512;
                    if c.get(no).is_none() {
                        c.insert(mk_page(no));
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = c.stats().snapshot();
        assert_eq!(s.hits + s.misses, 4000);
    }

    #[test]
    fn sets_spread_sequential_pages() {
        // Sequential page numbers should not all land in one set.
        let c = PageCache::new(64, 8); // 8 sets
        let mut seen = std::collections::HashSet::new();
        for no in 0..32 {
            seen.insert(c.set_of(no));
        }
        assert!(seen.len() >= 4, "only {} sets used", seen.len());
    }
}
