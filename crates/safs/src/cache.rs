//! The set-associative page cache (§3.1; Zheng et al., HotStorage'12).
//!
//! Pages hash to one of many small *sets*; each set holds a handful of
//! pages (the associativity), its own lock, and a GClock hand. The
//! scheme trades a little hit-rate (a hot page can only live in its
//! home set) for near-perfect lock scalability — the property the
//! paper leans on: "this page cache reduces locking overhead and
//! incurs little overhead when the cache hit rate is low".
//!
//! # Insertion
//!
//! Each slot carries a reference count: a counted lookup that finds
//! the page adds one, and the hand, sweeping for a victim, takes one
//! off each slot it passes and evicts the first slot at zero. How a
//! page *enters* decides what a working set larger than the cache
//! keeps:
//!
//! * **A page read on a miss enters on probation.** In a full set it
//!   takes the evicted slot with count 0 and the hand stays on it, so
//!   the set's next miss replaces it — unless a lookup hit it first,
//!   which makes it count 1, and from then on the hand ages it like
//!   any resident. A page read once and never again therefore costs a
//!   set one slot, not its residents, and a loop over more pages than
//!   the cache holds keeps a resident share. Entering warm (count 1,
//!   hand moved past) would make a set whose pages are not hit again
//!   replace its slots in FIFO order, evicting every page of such a
//!   loop before the loop comes back to it. This is LIP (Qureshi et
//!   al., "Adaptive Insertion Policies for High Performance Caching",
//!   ISCA 2007) on a GClock set.
//! * **One evicting miss in [`WARM_EVERY`] enters warm**, per set (the
//!   BIP half of the same paper). Without it, residents nobody hits
//!   would never age out: the hand would never leave the probation
//!   slot. Each warm entry moves the hand on by one, so a set that
//!   sees only new pages is fully replaced after `WARM_EVERY × ways`
//!   evicting misses, and a working set that moved is adopted.
//! * **Pages [`crate::Safs::write`] installs enter warm**
//!   ([`PageCache::install`]): a compaction writes the next generation
//!   through its cache so that the generation's first queries find it
//!   resident, and those pages must not be the first to go.
//! * A page entering a set that still has a free slot takes it with
//!   count 1; nothing is evicted.
//!
//! A streaming sweep's lookup ([`PageCache::peek`]) uses a resident
//! page without counting it as a reference, so a once-only read-back
//! does not promote the probationary pages it passes.
//!
//! # Held pages stay hits
//!
//! The user-task interface runs a vertex's computation on the pages
//! *in* the cache (§3.1), so a page a task still references is a page
//! the cache must still find. The hand may push such a page out of its
//! slot — the capacity is a budget for what the cache itself keeps
//! alive — but the set then remembers it by a [`Weak`] handle, keyed
//! by page number, and a later lookup upgrades that handle and books a
//! hit (a `pinned_hit`) instead of sending the request to the device
//! for bytes that are already in memory. The rule has two halves:
//!
//! * **a held page stays findable** — slotted, or evicted and still
//!   referenced by a span, an in-flight completion or a waiter;
//! * **the cache never extends a page's life** — a victim entry is
//!   weak, so the last span dropped frees the buffer exactly as before,
//!   the capacity (sets × ways) still bounds what the cache alone pins,
//!   and an entry whose page died is dropped on the lookup that finds
//!   it dead or at the set's next eviction, whichever comes first.
//!
//! Only pages evicted *while held* are recorded (an exact test under
//! the set lock: a slotted page gains references only through a lookup
//! under that same lock), so a workload that holds nothing pays one
//! emptiness check per miss and per eviction. Stream-policy pages are
//! never slotted and therefore never recorded.
//!
//! # Where lookups are counted
//!
//! A lookup already holds its set's lock, so that is where it is
//! booked: each set carries its own hit / miss / pinned-hit /
//! insertion / eviction tally, plain integers under the lock, and
//! [`PageCache::stats`] sums the sets. No counter is shared between
//! threads that touch different sets — the cache's lock scalability
//! would otherwise end at one cache line every lookup writes. A
//! snapshot locks one set at a time (it costs a walk over the sets, and
//! is taken per run, not per request), so it is exact whenever no
//! lookup is in flight — every place the workspace reads one exactly —
//! and never off by more than the lookups that overlap it.

use std::collections::HashMap;
use std::sync::{Arc, Weak};

use fg_types::sync::{Counter, Mutex};

use crate::page::Page;

/// A per-session *scope* ([`crate::Safs::session_scoped`]): the
/// lookups one tenant's sessions performed against a shared cache,
/// while the cache's own tally ([`PageCache::stats`]) keeps the
/// aggregate. Shared by the sessions of one query, which each fold
/// their plain per-session counts in once per dispatch
/// ([`CacheStats::record_lookups`]), not per lookup.
#[derive(Debug, Default)]
pub struct CacheStats {
    hits: Counter,
    misses: Counter,
}

impl CacheStats {
    /// Takes a snapshot of the counters. A scope sees application-side
    /// lookups only: pinned hits, insertions and evictions are the
    /// cache's own business and read zero here.
    pub fn snapshot(&self) -> CacheStatsSnapshot {
        let (hits, misses) = (self.hits.get(), self.misses.get());
        CacheStatsSnapshot {
            lookups: hits + misses,
            hits,
            misses,
            ..CacheStatsSnapshot::default()
        }
    }

    /// Folds in a batch of lookup outcomes.
    pub fn record_lookups(&self, hits: u64, misses: u64) {
        self.hits.add(hits);
        self.misses.add(misses);
    }
}

/// A point-in-time copy of a cache's ([`PageCache::stats`]) or a
/// scope's ([`CacheStats::snapshot`]) counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStatsSnapshot {
    /// Counted lookups (always `hits + misses`).
    pub lookups: u64,
    /// Lookups that found their page.
    pub hits: u64,
    /// The part of `hits` served by a page its set had already
    /// evicted but a span, completion or waiter still held (see the
    /// module docs). Booked by the cache itself, not by session
    /// scopes.
    pub pinned_hits: u64,
    /// Lookups that did not.
    pub misses: u64,
    /// Pages pushed out of their slots to make room for another.
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
        self.pinned_hits += other.pinned_hits;
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
    /// Saturating: if [`PageCache::reset_stats`] ran between the two
    /// snapshots, `earlier` can exceed `self`; each counter clamps at
    /// zero instead of panicking (debug) or wrapping (release).
    pub fn delta_since(&self, earlier: &CacheStatsSnapshot) -> CacheStatsSnapshot {
        CacheStatsSnapshot {
            lookups: self.lookups.saturating_sub(earlier.lookups),
            hits: self.hits.saturating_sub(earlier.hits),
            pinned_hits: self.pinned_hits.saturating_sub(earlier.pinned_hits),
            misses: self.misses.saturating_sub(earlier.misses),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            insertions: self.insertions.saturating_sub(earlier.insertions),
        }
    }
}

/// One evicting miss insertion in this many, per set, enters warm
/// instead of on probation (see the module docs): rare enough that a
/// loop larger than the cache keeps its resident share, frequent
/// enough that residents nobody hits any more are replaced within
/// `WARM_EVERY × ways` misses of their set.
const WARM_EVERY: u8 = 128;

struct Slot {
    pageno: u64,
    page: Arc<Page>,
    /// Reference count: counted hits increment it, the hand decrements
    /// it, and a page entering on probation starts at 0.
    hits: u8,
}

struct CacheSet {
    slots: Vec<Slot>,
    hand: usize,
    /// Evicting miss insertions since this set's last warm one.
    since_warm: u8,
    /// Pages evicted from `slots` while someone outside the cache
    /// still held them, by page number. Weak, so the table keeps no
    /// page alive; dead entries go at the next eviction.
    victims: HashMap<u64, Weak<Page>>,
    /// This set's share of the cache's statistics.
    tally: CacheStatsSnapshot,
}

impl CacheSet {
    /// The page, and whether it was found among the victims (`true`)
    /// rather than in a slot. A slotted page's reference count goes up
    /// by one if `touch`.
    fn find(&mut self, pageno: u64, touch: bool) -> Option<(Arc<Page>, bool)> {
        for s in &mut self.slots {
            if s.pageno == pageno {
                s.hits = s.hits.saturating_add(touch as u8);
                return Some((Arc::clone(&s.page), false));
            }
        }
        if self.victims.is_empty() {
            return None;
        }
        let alive = self.victims.get(&pageno)?.upgrade();
        if alive.is_none() {
            self.victims.remove(&pageno);
        }
        Some((alive?, true))
    }

    /// [`CacheSet::find`], booked in the set's tally.
    fn lookup(&mut self, pageno: u64) -> Option<Arc<Page>> {
        let found = self.find(pageno, true);
        self.tally.lookups += 1;
        match &found {
            Some((_, pinned)) => {
                self.tally.hits += 1;
                self.tally.pinned_hits += *pinned as u64;
            }
            None => self.tally.misses += 1,
        }
        Some(found?.0)
    }

    /// Inserts `page`, evicting when the set is full, and books the
    /// insertion (and the eviction, if one happened). An `install`
    /// enters warm; a miss enters on probation unless it is the set's
    /// [`WARM_EVERY`]th evicting one (see the module docs).
    fn insert(&mut self, pageno: u64, page: Arc<Page>, ways: usize, install: bool) {
        self.tally.insertions += 1;
        if let Some(s) = self.slots.iter_mut().find(|s| s.pageno == pageno) {
            // Another thread raced the same page in; refresh it.
            s.page = page;
            return;
        }
        if self.slots.len() < ways {
            self.slots.push(Slot {
                pageno,
                page,
                hits: 1,
            });
            return;
        }
        let warm = install || {
            self.since_warm += 1;
            let due = self.since_warm == WARM_EVERY;
            if due {
                self.since_warm = 0;
            }
            due
        };
        // Sweep the hand, decrementing, until a slot at zero. A full
        // set has `ways` slots; wrapping by comparison keeps a division
        // off every step of the sweep.
        let next = |hand: usize| if hand + 1 == ways { 0 } else { hand + 1 };
        loop {
            let s = &mut self.slots[self.hand];
            if s.hits > 0 {
                s.hits -= 1;
                self.hand = next(self.hand);
                continue;
            }
            // Exact under the set lock: the slot holds one reference
            // and nobody can have cloned it out of the slot since we
            // took the lock, so anything above one is a holder outside
            // the cache.
            let held = Arc::strong_count(&s.page) > 1;
            if held || !self.victims.is_empty() {
                note_eviction(&mut self.victims, s, held);
            }
            *s = Slot {
                pageno,
                page,
                hits: warm as u8,
            };
            // On probation the hand stays on the newcomer, the set's
            // next victim unless a hit comes first.
            if warm {
                self.hand = next(self.hand);
            }
            self.tally.evictions += 1;
            return;
        }
    }
}

/// The victim table's share of an eviction, kept out of line: the
/// common eviction (nothing held, nothing recorded) never gets here.
/// Drops the entries whose pages have died and records `evicted` when
/// it is `held` outside the cache.
#[cold]
fn note_eviction(victims: &mut HashMap<u64, Weak<Page>>, evicted: &Slot, held: bool) {
    victims.retain(|_, page| page.strong_count() > 0);
    if held {
        victims.insert(evicted.pageno, Arc::downgrade(&evicted.page));
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
    /// Capacity 0 is the documented no-cache mode: one set of zero
    /// ways, there to book the misses. For any other capacity the set
    /// count rounds *up* and `ways` is clamped to the capacity, so
    /// small caches (`0 < capacity_pages < ways`) still hold pages
    /// instead of silently degenerating into a cache whose lookups can
    /// never hit.
    pub fn new(capacity_pages: usize, ways: usize) -> Self {
        assert!(ways > 0, "associativity must be positive");
        let ways = ways.min(capacity_pages);
        let nsets = capacity_pages.div_ceil(ways.max(1)).max(1);
        let mut sets = Vec::with_capacity(nsets);
        sets.resize_with(nsets, || {
            Mutex::new(CacheSet {
                slots: Vec::with_capacity(ways),
                hand: 0,
                since_warm: 0,
                victims: HashMap::new(),
                tally: CacheStatsSnapshot::default(),
            })
        });
        PageCache { sets, ways }
    }

    /// The cache's statistics: the sum of the sets' tallies (see the
    /// module docs for when that sum is exact).
    pub fn stats(&self) -> CacheStatsSnapshot {
        let mut total = CacheStatsSnapshot::default();
        for set in &self.sets {
            total.absorb(&set.lock().tally);
        }
        total
    }

    /// Zeroes every set's tally (between experiment phases).
    pub fn reset_stats(&self) {
        for set in &self.sets {
            set.lock().tally = CacheStatsSnapshot::default();
        }
    }

    #[inline]
    fn set_of(&self, pageno: u64) -> usize {
        // Fibonacci multiplicative hash spreads sequential page
        // numbers across sets.
        ((pageno.wrapping_mul(0x9E3779B97F4A7C15)) >> 32) as usize % self.sets.len()
    }

    /// Looks `pageno` up, adding a reference to its slot on a hit. A
    /// page evicted from its set while still held elsewhere is a hit
    /// too (and a `pinned_hit`); it is returned as it is, not
    /// re-slotted.
    pub fn get(&self, pageno: u64) -> Option<Arc<Page>> {
        self.sets[self.set_of(pageno)].lock().lookup(pageno)
    }

    /// Like [`PageCache::get`] but without touching the hit/miss
    /// counters — used by I/O threads re-checking for pages that
    /// raced into the cache after the application-side lookup missed
    /// (the "pending page" dedup of real SAFS). Counting these would
    /// double-book the application's miss. The slot's reference is
    /// still added: the re-check serves a session's real request.
    pub fn get_quiet(&self, pageno: u64) -> Option<Arc<Page>> {
        Some(self.sets[self.set_of(pageno)].lock().find(pageno, true)?.0)
    }

    /// Like [`PageCache::get_quiet`] but the slot's reference count is
    /// left as it is: a streaming sweep uses a resident page without
    /// promoting it, so a once-only read-back does not reshape the
    /// working set.
    pub(crate) fn peek(&self, pageno: u64) -> Option<Arc<Page>> {
        Some(self.sets[self.set_of(pageno)].lock().find(pageno, false)?.0)
    }

    /// Evicted-and-recorded pages over all sets, dead entries
    /// included until their set's next eviction.
    #[cfg(test)]
    pub(crate) fn victim_entries(&self) -> usize {
        self.sets.iter().map(|s| s.lock().victims.len()).sum()
    }

    /// Inserts a page read on a miss, on probation (see the module
    /// docs; a no-op in the no-cache mode).
    pub fn insert(&self, page: Arc<Page>) {
        self.enter(page, false);
    }

    /// Inserts a page written through the cache, warm (see the module
    /// docs; a no-op in the no-cache mode).
    pub(crate) fn install(&self, page: Arc<Page>) {
        self.enter(page, true);
    }

    fn enter(&self, page: Arc<Page>, install: bool) {
        if self.ways == 0 {
            return;
        }
        let pageno = page.pageno();
        self.sets[self.set_of(pageno)]
            .lock()
            .insert(pageno, page, self.ways, install);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Capacity in pages: every slot of every set.
    fn slots(c: &PageCache) -> usize {
        c.sets.len() * c.ways
    }

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
        let s = c.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn zero_capacity_never_hits() {
        let c = PageCache::new(0, 8);
        c.insert(mk_page(1));
        assert!(c.get(1).is_none());
        assert_eq!(c.stats().insertions, 0);
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
                slots(&c) >= capacity,
                "capacity {capacity}: rounded capacity {} lost pages",
                slots(&c)
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
            let s = c.stats();
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
        let s = c.stats();
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
        let before = c.stats();
        c.reset_stats();
        c.get(3);
        let after = c.stats();
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
            c.stats()
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
        let s = c.stats();
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
        // A once-read burst enters on probation: its pages replace one
        // another in the slot the first of them took, so the cold
        // originals outlive it, all but the one that slot held.
        for no in 100..106 {
            c.insert(mk_page(no));
        }
        assert!(c.get(0).is_some(), "hot page evicted by a once-read burst");
        let cold_survivors = (1..4).filter(|&no| c.peek(no).is_some()).count();
        assert_eq!(cold_survivors, 2, "cold pages did not outlive the burst");
        // A burst whose pages are hit ages every slot: the hand must
        // evict the cold originals before it wears the hot page down.
        for no in 200..206 {
            c.insert(mk_page(no));
            c.get(no);
        }
        assert!(
            c.get(0).is_some(),
            "hot page evicted before colder residents"
        );
        let cold_survivors = (1..4).filter(|&no| c.peek(no).is_some()).count();
        assert_eq!(cold_survivors, 0, "cold pages outlived the hit burst");
    }

    #[test]
    fn duplicate_insert_is_refresh_not_eviction() {
        let c = PageCache::new(4, 4);
        c.insert(mk_page(9));
        c.insert(mk_page(9));
        let s = c.stats();
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
        let s = c.stats();
        assert!((s.hit_rate() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn reset_clears_counters() {
        let c = PageCache::new(16, 8);
        c.get(1);
        c.reset_stats();
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.evictions, s.insertions), (0, 0, 0, 0));
    }

    #[test]
    fn concurrent_access_is_safe_and_counted() {
        // 512 page numbers through 64 slots, each thread holding on to
        // its last few pages so evicted-while-held lookups happen too.
        let c = std::sync::Arc::new(PageCache::new(64, 8));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let c = std::sync::Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                let mut held = std::collections::VecDeque::new();
                let mut inserted = 0u64;
                for i in 0..1000u64 {
                    let no = (t * 131 + i * 7) % 512;
                    let page = c.get(no).unwrap_or_else(|| {
                        inserted += 1;
                        let page = mk_page(no);
                        c.insert(Arc::clone(&page));
                        page
                    });
                    held.push_back(page);
                    if held.len() > 16 {
                        held.pop_front();
                    }
                }
                inserted
            }));
        }
        let inserted: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        // Booked per set, summed by the snapshot: still exact.
        let s = c.stats();
        assert_eq!(s.lookups, 4000);
        assert_eq!(s.hits + s.misses, s.lookups);
        assert_eq!((s.misses, s.insertions), (inserted, inserted));
        assert!(s.pinned_hits <= s.hits);
        assert!(s.evictions > 0 && s.evictions <= s.insertions);
        c.reset_stats();
        assert_eq!(c.stats(), CacheStatsSnapshot::default());
        c.get(1);
        assert_eq!(c.stats().lookups, 1, "every set starts over");
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

    // ------------------------------------------- held pages stay hits

    #[test]
    fn page_evicted_while_held_stays_a_hit() {
        // One slot: the second insert must push the first page out.
        let c = PageCache::new(1, 1);
        c.insert(mk_page(7));
        let held = c.get(7).expect("resident");
        c.insert(mk_page(8));
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.victim_entries(), 1);
        let before = c.stats();
        let again = c.get(7).expect("a held page is still found");
        assert!(Arc::ptr_eq(&held, &again), "the same page, not a copy");
        assert_eq!(again.bytes(), held.bytes());
        let d = c.stats().delta_since(&before);
        assert_eq!((d.lookups, d.hits, d.pinned_hits, d.misses), (1, 1, 1, 0));
        // The quiet lookup finds it too and books nothing.
        let quiet = c.get_quiet(7).expect("quiet lookup sees victims");
        assert!(Arc::ptr_eq(&held, &quiet));
        assert_eq!(c.stats().delta_since(&before), d);
        // The cache is not what keeps it alive: with the last outside
        // reference gone the page is gone, and the lookup misses.
        let weak = Arc::downgrade(&held);
        drop((held, again, quiet));
        assert!(weak.upgrade().is_none());
        assert!(c.get(7).is_none());
        assert!(c.get_quiet(7).is_none());
        assert_eq!(c.victim_entries(), 0, "a dead entry goes when found");
        let s = c.stats();
        assert_eq!(s.lookups, s.hits + s.misses);
        assert_eq!(s.pinned_hits, 1);
        // The slotted page was never disturbed.
        assert!(c.get(8).is_some());
    }

    #[test]
    fn eviction_without_a_holder_leaves_no_victim() {
        let c = PageCache::new(1, 1);
        c.insert(mk_page(1));
        // A lookup whose result is dropped holds nothing.
        drop(c.get(1));
        c.insert(mk_page(2));
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.victim_entries(), 0);
        assert!(c.get(1).is_none());
    }

    #[test]
    fn victim_tables_drain() {
        let c = PageCache::new(16, 4);
        // Nothing held: ten capacities of churn record nothing.
        for no in 0..10 * slots(&c) as u64 {
            c.insert(mk_page(no));
        }
        assert_eq!(c.victim_entries(), 0);
        // Hold a capacity's worth, push all of it out, let go: every
        // dead entry is gone by its set's next eviction.
        let held: Vec<Arc<Page>> = (1000..1016)
            .map(|no| {
                c.insert(mk_page(no));
                c.get(no).expect("just inserted")
            })
            .collect();
        // The burst's pages are hit, so the hand ages every slot
        // instead of replacing probationary newcomers in one.
        for no in 2000..2200 {
            c.insert(mk_page(no));
            c.get(no);
        }
        assert_eq!(c.victim_entries(), held.len());
        assert!(held.iter().all(|p| c.get_quiet(p.pageno()).is_some()));
        drop(held);
        for no in 3000..3200 {
            c.insert(mk_page(no));
        }
        assert_eq!(c.victim_entries(), 0);
    }

    // ------------------------------------------------------ insertion

    /// Fills every set of `c` with pages nobody looks up again and
    /// returns them by set, in insertion order.
    fn fill(c: &PageCache) -> Vec<Vec<u64>> {
        let mut by_set = vec![Vec::new(); c.sets.len()];
        for no in 0.. {
            let set = &mut by_set[c.set_of(no)];
            if set.len() < c.ways {
                set.push(no);
                c.insert(mk_page(no));
            }
            if by_set.iter().all(|s| s.len() == c.ways) {
                return by_set;
            }
        }
        unreachable!()
    }

    /// A read miss: the counted lookup, then the insertion.
    fn miss(c: &PageCache, no: u64) {
        assert!(c.get(no).is_none(), "page {no} was resident");
        c.insert(mk_page(no));
    }

    #[test]
    fn a_once_read_scan_costs_each_set_one_slot() {
        let c = PageCache::new(64, 8);
        let originals = fill(&c);
        // Ten capacities read once each, from a range no original is in.
        let scan = (1u64 << 20)..(1 << 20) + 10 * slots(&c) as u64;
        let mut per_set = vec![0usize; c.sets.len()];
        for no in scan {
            per_set[c.set_of(no)] += 1;
            miss(&c, no);
        }
        // Fewer evicting misses per set than the warm entry's period,
        // so every newcomer entered on probation.
        assert!(per_set.iter().all(|&n| n < WARM_EVERY as usize));
        // The first miss in each set aged every resident to zero and
        // took the hand's slot; every later one replaced its
        // predecessor there.
        for set in &originals {
            assert!(c.peek(set[0]).is_none(), "the first sweep's victim stayed");
            for &no in &set[1..] {
                assert!(
                    c.peek(no).is_some(),
                    "original {no} lost to a once-read scan"
                );
            }
        }
        let s = c.stats();
        assert_eq!(s.evictions, 10 * slots(&c) as u64);
    }

    #[test]
    fn a_newcomer_hit_before_the_next_miss_survives_it() {
        // One set of four ways.
        let c = PageCache::new(4, 4);
        for no in 0..4 {
            c.insert(mk_page(no));
        }
        miss(&c, 10); // takes page 0's slot on probation
        assert!(c.peek(0).is_none());
        assert!(c.get(10).is_some(), "the hit that promotes it");
        miss(&c, 11);
        assert!(c.peek(10).is_some(), "a hit newcomer lost its slot");
        assert!(c.peek(11).is_some());
        // A resident went in its place: page 1, the next at zero.
        assert!(c.peek(1).is_none());
        assert!(c.peek(2).is_some() && c.peek(3).is_some());
        assert_eq!(c.stats().evictions, 2);
    }

    #[test]
    fn warm_entries_age_out_residents_nobody_hits() {
        let c = PageCache::new(16, 4);
        let originals = fill(&c);
        // Misses only, until every set has seen WARM_EVERY × ways
        // evicting ones: each warm entry moves the hand past one
        // resident, and the next probation entry replaces that one.
        let want = WARM_EVERY as usize * c.ways;
        let mut per_set = vec![0usize; c.sets.len()];
        let mut no = 1u64 << 20;
        while per_set.iter().any(|&n| n < want) {
            per_set[c.set_of(no)] += 1;
            miss(&c, no);
            no += 1;
        }
        let left: Vec<u64> = originals
            .iter()
            .flatten()
            .copied()
            .filter(|&no| c.peek(no).is_some())
            .collect();
        assert!(left.is_empty(), "originals {left:?} froze in the cache");
    }

    mod model {
        use super::*;
        use proptest::prelude::*;

        #[derive(Debug, Clone)]
        enum Op {
            /// Counted lookup, result dropped.
            Get(u64),
            /// Quiet lookup, result dropped.
            GetQuiet(u64),
            /// Counted lookup whose page is kept (a span taken).
            Hold(u64),
            /// The read path: look up, insert a fresh page on a miss.
            Fill(u64),
            /// Drop the n-th holder, if there is one.
            Release(usize),
        }

        fn op_strategy() -> impl Strategy<Value = Op> {
            prop_oneof![
                (0u64..24).prop_map(Op::Get),
                (0u64..24).prop_map(Op::GetQuiet),
                (0u64..24).prop_map(Op::Hold),
                (0u64..24).prop_map(Op::Fill),
                (0u64..24).prop_map(Op::Fill),
                (0usize..16).prop_map(Op::Release),
            ]
        }

        /// What the test knows without modelling gclock: every page it
        /// ever inserted (weakly) and every reference it holds.
        struct World {
            inserted: Vec<Weak<Page>>,
            held: Vec<Arc<Page>>,
            /// The counters the cache must show (`evictions` follows
            /// from the others, see the property).
            want: CacheStatsSnapshot,
        }

        impl World {
            fn holders(&self, page: &Weak<Page>) -> usize {
                self.held
                    .iter()
                    .filter(|h| std::ptr::eq(Arc::as_ptr(h), page.as_ptr()))
                    .count()
            }

            /// The live page numbered `no`, and whether the cache
            /// itself still holds a reference to it (it is slotted).
            fn alive(&self, no: u64) -> Option<bool> {
                let mut found = None;
                for w in &self.inserted {
                    let strong = w.strong_count();
                    if strong > 0 && w.upgrade().is_some_and(|p| p.pageno() == no) {
                        assert!(found.is_none(), "two live pages numbered {no}");
                        found = Some(strong > self.holders(w));
                    }
                }
                found
            }

            /// Books a counted lookup of `no` and returns whether it
            /// must hit.
            fn expect_lookup(&mut self, no: u64) -> bool {
                let alive = self.alive(no);
                self.want.lookups += 1;
                match alive {
                    Some(slotted) => {
                        self.want.hits += 1;
                        self.want.pinned_hits += !slotted as u64;
                    }
                    None => self.want.misses += 1,
                }
                alive.is_some()
            }
        }

        proptest! {
            #[test]
            fn found_iff_slotted_or_evicted_and_alive(
                capacity in 1usize..9,
                ways in 1usize..5,
                ops in prop::collection::vec(op_strategy(), 1..200),
            ) {
                let c = PageCache::new(capacity, ways);
                let mut w = World {
                    inserted: Vec::new(),
                    held: Vec::new(),
                    want: c.stats(),
                };
                for op in ops {
                    match op {
                        Op::Get(no) => {
                            let hit = w.expect_lookup(no);
                            prop_assert_eq!(c.get(no).is_some(), hit);
                        }
                        Op::GetQuiet(no) => {
                            prop_assert_eq!(c.get_quiet(no).is_some(), w.alive(no).is_some());
                        }
                        Op::Hold(no) => {
                            let hit = w.expect_lookup(no);
                            let got = c.get(no);
                            prop_assert_eq!(got.is_some(), hit);
                            w.held.extend(got);
                        }
                        Op::Fill(no) => {
                            if !w.expect_lookup(no) {
                                prop_assert!(c.get(no).is_none());
                                let page = mk_page(no);
                                w.inserted.push(Arc::downgrade(&page));
                                w.want.insertions += 1;
                                c.insert(page);
                            } else {
                                prop_assert!(c.get(no).is_some());
                            }
                        }
                        Op::Release(n) => {
                            if n < w.held.len() {
                                w.held.swap_remove(n);
                            }
                        }
                    }
                    // The cache alone never keeps more than its
                    // capacity alive, every insert that found no free
                    // slot evicted, and the counters are exact.
                    let slotted = w
                        .inserted
                        .iter()
                        .filter(|p| p.strong_count() > w.holders(p))
                        .count();
                    prop_assert!(slotted <= slots(&c));
                    w.want.evictions = w.want.insertions - slotted as u64;
                    prop_assert_eq!(c.stats(), w.want);
                    let pinned = w
                        .inserted
                        .iter()
                        .filter(|p| p.strong_count() > 0 && p.strong_count() == w.holders(p))
                        .count();
                    prop_assert!(c.victim_entries() >= pinned);
                }
                // With every holder gone no evicted page is reachable:
                // what is alive is what is slotted, once each.
                w.held.clear();
                let alive: Vec<_> = w.inserted.iter().filter_map(Weak::upgrade).collect();
                prop_assert!(alive.len() <= slots(&c));
                for p in &alive {
                    // This upgrade and the slot.
                    prop_assert_eq!(Arc::strong_count(p), 2);
                }
                for no in 0..24 {
                    let slotted = alive.iter().any(|p| p.pageno() == no);
                    prop_assert_eq!(c.get_quiet(no).is_some(), slotted);
                }
            }
        }
    }
}
