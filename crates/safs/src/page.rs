//! Cached pages and zero-copy spans over them.
//!
//! A span is how a user task *holds* pages: the bytes stay put for as
//! long as the span lives, and — the other half of the rule in
//! [`crate::cache`] — the cache keeps finding those pages for as long
//! as the span lives, evicted from their slots or not. The cache never
//! extends a page's life.
//!
//! A span is a window (`head`, `len`) over the page vector of the
//! *cover* it was cut from — the read [`PageSpan::new`] assembled —
//! and that vector is held once, behind one `Arc`, by the cover and
//! every [`PageSpan::slice`] of it. Cutting a sub-span is therefore
//! one reference-count bump: no allocation and no per-page traffic,
//! however many pages the part covers. The price is the unit of
//! release: a cover's pages are freed together, when its *last*
//! sub-span is dropped, not page by page as parts go. The bound:
//! pages pinned ≤ the pages of covers with an undelivered part. The
//! engine cuts a cover into parts that are delivered within one
//! scheduling round of each other, and its merging only joins
//! page-adjacent requests, so a cover holds no page that none of its
//! parts asked for.
//!
//! Reading a span means walking its pages, and there is one loop for
//! that: [`SpanWindow::chunk_at`] hands out the contiguous bytes of
//! one page at a time, and the copy ([`SpanWindow::read_bytes`],
//! [`SpanWindow::to_vec`]), the `u32` walk ([`SpanWindow::u32_iter`])
//! and the engine's varint decoder are all written over it. A
//! [`SpanWindow`] is a span's borrowed form: the same window over the
//! same pages, without the reference that keeps them alive. A reader
//! that lives no longer than some span of the cover — the engine's
//! per-request deliveries — holds a window cut from it, and pays no
//! reference count to cut or drop one.

use std::sync::Arc;

/// One immutable cached page.
///
/// Pages are filled once — by an I/O thread, or by the thread writing
/// through a mount (`Safs::write`) — and shared read-only via `Arc`:
/// by the cache, by in-flight completions, and by user tasks.
/// Eviction drops the cache's *strong* reference only: spans keep
/// pages alive, so user tasks never observe reuse, and while they do
/// the cache still serves the page to anyone else who asks.
#[derive(Debug)]
pub struct Page {
    pageno: u64,
    data: Box<[u8]>,
}

impl Page {
    /// Wraps freshly read bytes as page `pageno`.
    pub fn new(pageno: u64, data: Box<[u8]>) -> Self {
        Page { pageno, data }
    }

    /// The page number (byte offset / page size).
    #[inline]
    pub fn pageno(&self) -> u64 {
        self.pageno
    }

    /// The page's bytes.
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }

    /// Page size in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the page holds no bytes (never the case for pages
    /// produced by SAFS, but required for API completeness).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// A zero-copy view of a byte range assembled from consecutive cached
/// pages.
///
/// This is what the asynchronous user-task interface hands to a
/// completion: the user task reads edge lists straight out of the
/// page cache without SAFS allocating or copying into per-request
/// buffers (§3.1: avoiding "substantial memory consumption" from
/// empty buffers awaiting fill).
#[derive(Debug, Clone)]
pub struct PageSpan {
    /// The cover's pages, shared with every other span cut from it;
    /// `None` only for the empty span, which holds nothing.
    pages: Option<Arc<[Arc<Page>]>>,
    /// log2 of the page size: the page of absolute position `abs` is
    /// `abs >> page_shift`, its offset inside it `abs & page_mask`
    /// (page sizes are powers of two, see `SafsConfig::validate`).
    page_shift: u32,
    /// Page size minus one.
    page_mask: usize,
    /// Offset of the span's first byte from the start of the cover's
    /// first page (beyond one page for a slice further in).
    head: usize,
    len: usize,
}

impl PageSpan {
    /// Builds a span of `len` bytes starting `head` bytes into the
    /// first of `pages` — a *cover*, whose page vector every slice of
    /// it shares. An iterator of known length (a `Vec`, a drain, a map
    /// over either) is collected straight into that shared vector: one
    /// allocation per cover.
    ///
    /// # Panics
    ///
    /// Panics when the pages do not cover `head + len` bytes, when
    /// pages differ in size or their size is not a power of two, or
    /// when their page numbers are not consecutive.
    pub fn new(pages: impl IntoIterator<Item = Arc<Page>>, head: usize, len: usize) -> Self {
        let pages: Arc<[Arc<Page>]> = pages.into_iter().collect();
        let Some(first) = pages.first() else {
            assert!(len == 0, "empty span needs no pages");
            return PageSpan::empty();
        };
        let page_bytes = first.len();
        assert!(
            page_bytes.is_power_of_two(),
            "page size {page_bytes} must be a power of two"
        );
        for w in pages.windows(2) {
            assert_eq!(w[0].len(), w[1].len(), "span pages must share a size");
            assert_eq!(
                w[0].pageno() + 1,
                w[1].pageno(),
                "span pages must be consecutive"
            );
        }
        if len > 0 {
            assert!(
                head + len <= page_bytes * pages.len(),
                "span [{head}, {}) exceeds {} pages of {page_bytes} bytes",
                head + len,
                pages.len()
            );
        }
        PageSpan {
            page_shift: page_bytes.trailing_zeros(),
            page_mask: page_bytes - 1,
            pages: Some(pages),
            head,
            len,
        }
    }

    /// An empty span. Allocates nothing and holds no page.
    pub fn empty() -> Self {
        PageSpan {
            pages: None,
            page_shift: 0,
            page_mask: 0,
            head: 0,
            len: 0,
        }
    }

    /// The span as a borrowed [`SpanWindow`], which every read of it
    /// goes through.
    #[inline]
    pub fn window(&self) -> SpanWindow<'_> {
        SpanWindow {
            pages: self.pages.as_deref().unwrap_or_default(),
            page_shift: self.page_shift,
            page_mask: self.page_mask,
            head: self.head,
            len: self.len,
        }
    }

    /// Length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the span covers zero bytes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// A zero-copy sub-span of `len` bytes starting at span position
    /// `at`: one reference-count bump on the cover's shared page
    /// vector, whatever the sub-range's size (see the module docs for
    /// what that pins).
    ///
    /// This is how the engine splits one *merged* I/O request back
    /// into per-vertex edge-list views (§3.6).
    ///
    /// # Panics
    ///
    /// Panics if `at + len` exceeds the span.
    pub fn slice(&self, at: usize, len: usize) -> PageSpan {
        assert!(
            at + len <= self.len,
            "slice [{at}, {}) exceeds span of {} bytes",
            at + len,
            self.len
        );
        if len == 0 {
            return PageSpan::empty();
        }
        PageSpan {
            pages: self.pages.clone(),
            page_shift: self.page_shift,
            page_mask: self.page_mask,
            head: self.head + at,
            len,
        }
    }
}

/// A borrowed window over a cover's pages: what a [`PageSpan`] reads
/// through, and what a reader that does not outlive the span holds
/// instead of a slice of it — cutting and dropping one touches no
/// reference count, so deliveries of one cover that many workers read
/// at once share no written cache line.
#[derive(Debug, Clone, Copy)]
pub struct SpanWindow<'a> {
    pages: &'a [Arc<Page>],
    page_shift: u32,
    page_mask: usize,
    head: usize,
    len: usize,
}

impl<'a> SpanWindow<'a> {
    /// A window of no bytes over no pages.
    pub const EMPTY: SpanWindow<'static> = SpanWindow {
        pages: &[],
        page_shift: 0,
        page_mask: 0,
        head: 0,
        len: 0,
    };

    /// The page holding absolute position `abs` (counted from the
    /// start of the cover's first page). Callers have checked `abs`
    /// against the window's bounds; the empty window has no page.
    #[inline]
    fn page_at(&self, abs: usize) -> &'a Page {
        &self.pages[abs >> self.page_shift]
    }

    /// Length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the window covers zero bytes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Byte at position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn byte(&self, i: usize) -> u8 {
        assert!(i < self.len, "span index {i} out of {} bytes", self.len);
        let abs = self.head + i;
        self.page_at(abs).bytes()[abs & self.page_mask]
    }

    /// The contiguous bytes from window position `pos` to the end of
    /// the page holding it, or to the end of the window if that comes
    /// first — the unit every reader of a span walks by. Empty exactly
    /// when `pos == len()`.
    ///
    /// # Panics
    ///
    /// Panics if `pos > len()`.
    #[inline]
    pub fn chunk_at(&self, pos: usize) -> &'a [u8] {
        if pos >= self.len {
            assert!(
                pos == self.len,
                "span index {pos} out of {} bytes",
                self.len
            );
            return &[];
        }
        let abs = self.head + pos;
        let off = abs & self.page_mask;
        let take = (self.page_mask + 1 - off).min(self.len - pos);
        &self.page_at(abs).bytes()[off..off + take]
    }

    /// The bytes from window position `pos` to the end of the page
    /// holding it — *past the window's end* when the window ends inside
    /// that page. For a reader that loads a few bytes beyond the ones
    /// it uses (the group-varint decoder's masked loads) and checks
    /// what it consumes against [`SpanWindow::len`] itself. Empty
    /// exactly when `pos == len()`.
    ///
    /// # Panics
    ///
    /// Panics if `pos > len()`.
    #[inline]
    pub fn page_tail_at(&self, pos: usize) -> &'a [u8] {
        if pos >= self.len {
            assert!(
                pos == self.len,
                "span index {pos} out of {} bytes",
                self.len
            );
            return &[];
        }
        let abs = self.head + pos;
        &self.page_at(abs).bytes()[abs & self.page_mask..]
    }

    /// Copies `out.len()` bytes starting at window position `at`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the window.
    pub fn read_bytes(&self, at: usize, out: &mut [u8]) {
        assert!(
            at + out.len() <= self.len,
            "range [{at}, {}) exceeds span of {} bytes",
            at + out.len(),
            self.len
        );
        let mut done = 0;
        while done < out.len() {
            let chunk = self.chunk_at(at + done);
            let take = chunk.len().min(out.len() - done);
            out[done..done + take].copy_from_slice(&chunk[..take]);
            done += take;
        }
    }

    /// Little-endian `u32` at byte position `at` (may straddle pages).
    ///
    /// # Panics
    ///
    /// Panics if the 4-byte range exceeds the window.
    #[inline]
    pub fn read_u32_le(&self, at: usize) -> u32 {
        let abs = self.head + at;
        let off = abs & self.page_mask;
        if off + 4 <= self.page_mask + 1 {
            assert!(at + 4 <= self.len, "u32 at {at} exceeds span");
            let b = &self.page_at(abs).bytes()[off..off + 4];
            u32::from_le_bytes(b.try_into().unwrap())
        } else {
            let mut b = [0u8; 4];
            self.read_bytes(at, &mut b);
            u32::from_le_bytes(b)
        }
    }

    /// Iterates the window as little-endian `u32`s — the engine's raw
    /// edge-list decode — one page chunk at a time. The length must be
    /// a multiple of 4.
    pub fn u32_iter(&self) -> U32Iter<'_> {
        debug_assert_eq!(
            self.len % 4,
            0,
            "u32 stream length {} not aligned",
            self.len
        );
        U32Iter {
            span: self,
            words: [].chunks_exact(4),
            pos: 0,
            end: self.len - self.len % 4,
        }
    }

    /// Copies the whole window into a fresh vector.
    pub fn to_vec(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(self.len);
        while v.len() < self.len {
            v.extend_from_slice(self.chunk_at(v.len()));
        }
        v
    }

    /// Number of pages the window's bytes lie on.
    pub fn page_count(&self) -> usize {
        if self.len == 0 {
            return 0;
        }
        let last = (self.head + self.len - 1) >> self.page_shift;
        last - (self.head >> self.page_shift) + 1
    }

    /// The sub-window of `len` bytes at window position `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at + len` exceeds the window.
    #[inline]
    pub fn slice(&self, at: usize, len: usize) -> SpanWindow<'a> {
        assert!(
            at + len <= self.len,
            "slice [{at}, {}) exceeds span of {} bytes",
            at + len,
            self.len
        );
        SpanWindow {
            head: self.head + at,
            len,
            ..*self
        }
    }
}

/// The `u32`s of a [`SpanWindow`], in order ([`SpanWindow::u32_iter`]).
///
/// Words are taken from one page's contiguous bytes at a time; only a
/// word that straddles two pages goes through
/// [`SpanWindow::read_u32_le`]'s assembling path.
#[derive(Debug, Clone)]
pub struct U32Iter<'a> {
    span: &'a SpanWindow<'a>,
    /// The whole words left in the current page chunk.
    words: std::slice::ChunksExact<'a, u8>,
    /// Byte position of the first word not yet handed to `words`.
    pos: usize,
    /// Byte position one past the last whole word of the span.
    end: usize,
}

impl U32Iter<'_> {
    /// Moves to the next page chunk and yields its first word; `None`
    /// once the span is exhausted.
    fn refill(&mut self) -> Option<u32> {
        if self.pos >= self.end {
            return None;
        }
        let chunk = self.span.chunk_at(self.pos);
        if chunk.len() < 4 {
            // The word straddles a page boundary.
            let word = self.span.read_u32_le(self.pos);
            self.pos += 4;
            return Some(word);
        }
        let whole = chunk.len() - chunk.len() % 4;
        self.words = chunk[..whole].chunks_exact(4);
        self.pos += whole;
        self.next()
    }
}

impl Iterator for U32Iter<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        match self.words.next() {
            Some(w) => Some(u32::from_le_bytes(w.try_into().expect("4-byte chunk"))),
            None => self.refill(),
        }
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.words.len() + (self.end - self.pos) / 4;
        (left, Some(left))
    }
}

impl ExactSizeIterator for U32Iter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(no: u64, fill: impl Fn(usize) -> u8, size: usize) -> Arc<Page> {
        Arc::new(Page::new(no, (0..size).map(fill).collect()))
    }

    #[test]
    fn single_page_span() {
        let p = page(0, |i| i as u8, 64);
        let s = PageSpan::new(vec![p], 10, 20);
        assert_eq!(s.len(), 20);
        assert_eq!(s.window().byte(0), 10);
        assert_eq!(s.window().byte(19), 29);
    }

    #[test]
    fn cross_page_reads() {
        let p0 = page(0, |_| 0xAA, 16);
        let p1 = page(1, |_| 0xBB, 16);
        let s = PageSpan::new(vec![p0, p1], 12, 8);
        let mut buf = [0u8; 8];
        s.window().read_bytes(0, &mut buf);
        assert_eq!(buf, [0xAA, 0xAA, 0xAA, 0xAA, 0xBB, 0xBB, 0xBB, 0xBB]);
    }

    #[test]
    fn u32_across_boundary() {
        // Bytes 0..16 on page 0 hold 0..15; page 1 holds 16..31.
        let p0 = page(0, |i| i as u8, 16);
        let p1 = page(1, |i| (16 + i) as u8, 16);
        let s = PageSpan::new(vec![p0, p1], 14, 8);
        // First u32 = bytes 14,15,16,17.
        assert_eq!(
            s.window().read_u32_le(0),
            u32::from_le_bytes([14, 15, 16, 17])
        );
        let all: Vec<u32> = s.window().u32_iter().collect();
        assert_eq!(all.len(), 2);
        assert_eq!(all[1], u32::from_le_bytes([18, 19, 20, 21]));
    }

    #[test]
    fn to_vec_matches_bytes() {
        let p0 = page(5, |i| i as u8, 8);
        let p1 = page(6, |i| (8 + i) as u8, 8);
        let s = PageSpan::new(vec![p0, p1], 3, 10);
        assert_eq!(s.window().to_vec(), (3u8..13).collect::<Vec<_>>());
    }

    #[test]
    fn empty_span() {
        let s = PageSpan::empty();
        assert!(s.is_empty());
        assert_eq!(s.window().page_count(), 0);
        assert_eq!(s.window().to_vec(), Vec::<u8>::new());
        assert_eq!(s.window().u32_iter().count(), 0);
    }

    #[test]
    #[should_panic(expected = "consecutive")]
    fn non_consecutive_pages_rejected() {
        let p0 = page(0, |_| 0, 8);
        let p2 = page(2, |_| 0, 8);
        PageSpan::new(vec![p0, p2], 0, 16);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn odd_page_size_rejected() {
        // The index math is shift-and-mask.
        PageSpan::new(vec![page(0, |_| 0, 12)], 0, 4);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_span_rejected() {
        let p0 = page(0, |_| 0, 8);
        PageSpan::new(vec![p0], 4, 8);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn byte_out_of_range_panics() {
        let p0 = page(0, |_| 0, 8);
        let s = PageSpan::new(vec![p0], 0, 4);
        s.window().byte(4);
    }

    #[test]
    fn slice_reads_the_right_bytes() {
        let p0 = page(0, |i| i as u8, 16);
        let p1 = page(1, |i| (16 + i) as u8, 16);
        let p2 = page(2, |i| (32 + i) as u8, 16);
        let s = PageSpan::new(vec![p0, p1, p2], 4, 40); // bytes 4..44
        let sub = s.slice(10, 8); // absolute bytes 14..22
        assert_eq!(sub.window().to_vec(), (14u8..22).collect::<Vec<_>>());
        // A sub-span counts the pages its own bytes lie on.
        let tail = s.slice(30, 8); // absolute 34..42: page 2 only
        assert_eq!(tail.window().page_count(), 1);
        assert_eq!(s.window().page_count(), 3);
        assert_eq!(tail.window().to_vec(), (34u8..42).collect::<Vec<_>>());
    }

    #[test]
    fn slice_zero_len_is_empty() {
        let p0 = page(0, |i| i as u8, 16);
        let s = PageSpan::new(vec![p0], 0, 16);
        assert!(s.slice(8, 0).is_empty());
    }

    #[test]
    #[should_panic(expected = "exceeds span")]
    fn slice_out_of_range_panics() {
        let p0 = page(0, |i| i as u8, 16);
        let s = PageSpan::new(vec![p0], 0, 16);
        s.slice(10, 7);
    }

    #[test]
    fn span_keeps_pages_alive() {
        let p = page(0, |_| 7, 8);
        let weak = Arc::downgrade(&p);
        let s = PageSpan::new(vec![p], 0, 8);
        assert!(weak.upgrade().is_some());
        drop(s);
        assert!(weak.upgrade().is_none());
    }

    #[test]
    fn span_not_cache_keeps_evicted_pages_alive() {
        use crate::PageCache;
        // The span is what keeps an evicted page alive — and findable;
        // the cache must not be.
        let cache = PageCache::new(1, 1);
        cache.insert(page(0, |_| 7, 8));
        let s = PageSpan::new(vec![cache.get(0).expect("resident")], 0, 8);
        let weak = Arc::downgrade(&s.pages.as_ref().expect("one page")[0]);
        cache.insert(page(1, |_| 9, 8));
        assert_eq!(cache.stats().evictions, 1);
        let hit = cache.get(0).expect("held by the span, so still a hit");
        assert_eq!(hit.bytes(), &s.window().to_vec()[..]);
        drop(hit);
        assert!(weak.upgrade().is_some());
        drop(s);
        assert!(weak.upgrade().is_none(), "the cache extended its life");
        assert!(cache.get(0).is_none());
    }

    #[test]
    fn chunks_tile_the_span_page_by_page() {
        let pages: Vec<_> = (0..3)
            .map(|n| page(n, move |i| (n as usize * 16 + i) as u8, 16))
            .collect();
        let s = PageSpan::new(pages, 5, 30); // absolute bytes 5..35
        assert_eq!(s.window().chunk_at(0), (5u8..16).collect::<Vec<_>>());
        assert_eq!(s.window().chunk_at(3), (8u8..16).collect::<Vec<_>>());
        assert_eq!(s.window().chunk_at(11), (16u8..32).collect::<Vec<_>>());
        assert_eq!(
            s.window().chunk_at(27),
            (32u8..35).collect::<Vec<_>>(),
            "clamped to the span"
        );
        assert!(s.window().chunk_at(30).is_empty());
        assert!(PageSpan::empty().window().chunk_at(0).is_empty());
        let mut pos = 0;
        let mut all = Vec::new();
        while pos < s.len() {
            let c = s.window().chunk_at(pos);
            all.extend_from_slice(c);
            pos += c.len();
        }
        assert_eq!(all, s.window().to_vec());
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn chunk_past_the_end_panics() {
        let s = PageSpan::new(vec![page(0, |_| 0, 8)], 0, 4);
        s.window().chunk_at(5);
    }

    #[test]
    fn u32_iter_is_exact_at_every_alignment_and_page_size() {
        for page_bytes in [1usize, 2, 4, 8, 16, 64] {
            for head in 0..2 * page_bytes.max(4) {
                for words in [0usize, 1, 2, 5, 33] {
                    let total = head + words * 4;
                    let npages = total.div_ceil(page_bytes).max(1);
                    let pages: Vec<_> = (0..npages as u64)
                        .map(|n| {
                            page(
                                n,
                                move |i| (n as usize * page_bytes + i) as u8 ^ 0x3C,
                                page_bytes,
                            )
                        })
                        .collect();
                    let s = PageSpan::new(pages, head, words * 4);
                    let want: Vec<u32> =
                        (0..words).map(|i| s.window().read_u32_le(i * 4)).collect();
                    let w = s.window();
                    let mut it = w.u32_iter();
                    for (i, &w) in want.iter().enumerate() {
                        assert_eq!(it.len(), words - i);
                        assert_eq!(it.next(), Some(w), "page {page_bytes} head {head} word {i}");
                    }
                    assert_eq!(it.len(), 0);
                    assert_eq!(it.next(), None);
                }
            }
        }
    }
    mod windows {
        use super::*;
        use crate::PageCache;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn a_slice_of_a_slice_reads_its_cover_and_pins_it_to_the_last(
                shift in 2u32..7,
                npages in 2usize..6,
                cuts in (0usize..1000, 0usize..1000, 0usize..1000, 0usize..1000, 0usize..1000),
            ) {
                let pb = 1usize << shift;
                // A one-page cache the cover's pages pass through, so
                // every page but the last is evicted while held: the
                // cover is all that keeps those alive, and findable.
                let cache = PageCache::new(1, 1);
                let pages: Vec<Arc<Page>> = (0..npages as u64)
                    .map(|n| {
                        cache.insert(page(n, move |i| (n as usize * pb + i) as u8 ^ 0xA5, pb));
                        cache.get(n).expect("just inserted")
                    })
                    .collect();
                let weak = Arc::downgrade(&pages[0]);
                let total = npages * pb;
                let head = cuts.0 % pb;
                let len = 1 + cuts.1 % (total - head);
                let cover = PageSpan::new(pages, head, len);
                let whole = cover.window().to_vec();
                let a = cuts.2 % len;
                let outer = cover.slice(a, 1 + cuts.3 % (len - a));
                let b = cuts.4 % outer.len();
                let inner = outer.slice(b, outer.len() - b);

                for (s, lo) in [(&outer, a), (&inner, a + b)] {
                    let want = &whole[lo..lo + s.len()];
                    prop_assert_eq!(s.window().to_vec(), want);
                    let mut pos = 0;
                    while pos < s.len() {
                        let c = s.window().chunk_at(pos);
                        prop_assert!(!c.is_empty());
                        prop_assert_eq!(c, &want[pos..pos + c.len()]);
                        pos += c.len();
                    }
                    for at in 0..s.len().saturating_sub(3) {
                        let w = u32::from_le_bytes(want[at..at + 4].try_into().unwrap());
                        prop_assert_eq!(s.window().read_u32_le(at), w);
                    }
                    let words = s.slice(0, s.len() - s.len() % 4);
                    let want_words: Vec<u32> = want
                        .chunks_exact(4)
                        .map(|w| u32::from_le_bytes(w.try_into().unwrap()))
                        .collect();
                    prop_assert_eq!(words.window().u32_iter().collect::<Vec<_>>(), want_words);
                    let abs = head + lo;
                    prop_assert_eq!(s.window().page_count(), (abs + s.len() - 1) / pb - abs / pb + 1);
                    // The borrowed window cut at the same place reads
                    // the same bytes, and holds nothing.
                    let strong = Arc::strong_count(&cover.pages.clone().unwrap()) - 1;
                    let w = cover.window().slice(lo, s.len());
                    prop_assert_eq!(w.to_vec(), want);
                    prop_assert_eq!(w.page_count(), s.window().page_count());
                    prop_assert_eq!(Arc::strong_count(cover.pages.as_ref().unwrap()), strong);
                }

                // Page 0 was evicted from the cache's one slot; it
                // lives, and is a cache hit, for as long as any
                // sub-span of its cover does — whether that sub-span's
                // bytes touch it or not — and dies with the last one.
                prop_assert_eq!(cache.stats().evictions, npages as u64 - 1);
                drop(cover);
                prop_assert!(weak.upgrade().is_some());
                drop(outer);
                prop_assert!(weak.upgrade().is_some(), "not the last sub-span");
                prop_assert!(cache.get(0).is_some());
                drop(inner);
                prop_assert!(weak.upgrade().is_none(), "the last sub-span");
                prop_assert!(cache.get(0).is_none());
            }
        }
    }
}
