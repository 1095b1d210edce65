//! The SAFS facade: a mount's page cache, in-flight table and array,
//! the I/O threads that serve it, and the device read behind them.
//! Sessions (`session.rs`) and the I/O threads' pass (`io_thread.rs`)
//! reach the mount only through the closures and the [`Host`] hooks
//! wired up here.

use std::sync::Arc;
use std::thread::JoinHandle;

use fg_ssdsim::{check_range, ByteSource, IoStats, SsdArray};
use fg_types::sync::channel::{unbounded, Sender};
use fg_types::sync::Counter;
use fg_types::{FgError, Result};

use crate::cache::{CacheStats, CacheStatsSnapshot, PageCache};
use crate::config::SafsConfig;
use crate::inflight::InflightTable;
use crate::io_thread::{io_thread_loop, serve, IoMsg, RunRequest};
use crate::page::{Page, PageSpan};
use crate::session::{Host, IoSession};

/// The state one mount's sessions and I/O threads share.
struct Mount {
    cfg: SafsConfig,
    array: SsdArray,
    cache: PageCache,
    inflight: InflightTable,
    /// Device capacity in bytes (fixed at mount time).
    capacity: u64,
}

/// The user-space filesystem: page cache + I/O threads over an
/// [`SsdArray`].
///
/// Dropping a `Safs` shuts its I/O threads down.
pub struct Safs {
    mount: Arc<Mount>,
    senders: Vec<Sender<IoMsg>>,
    handles: Vec<JoinHandle<()>>,
    /// Source of session ids (the I/O threads group replies by them).
    sessions: Counter,
}

impl std::fmt::Debug for Safs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Safs")
            .field("cfg", &self.mount.cfg)
            .field("threads", &self.senders.len())
            .finish_non_exhaustive()
    }
}

impl Safs {
    /// Mounts SAFS over `array` and spawns its I/O threads.
    ///
    /// # Errors
    ///
    /// Returns [`FgError::InvalidConfig`] when `cfg` is invalid.
    pub fn new(cfg: SafsConfig, array: SsdArray) -> Result<Self> {
        cfg.validate()?;
        // One I/O thread per drive, but no more than can run at once:
        // the device is a virtual-time ledger that does not care which
        // thread books a read, and threads beyond the cores only add
        // wake-ups.
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let nthreads = array.config().num_ssds.min(cores);
        let mount = Arc::new(Mount {
            cfg,
            cache: PageCache::new(cfg.cache_pages(), cfg.cache_ways),
            inflight: InflightTable::new(),
            capacity: array.capacity(),
            array,
        });
        let mut senders = Vec::with_capacity(nthreads);
        let mut handles = Vec::with_capacity(nthreads);
        for _ in 0..nthreads {
            let (tx, rx) = unbounded();
            let m = Arc::clone(&mount);
            handles.push(std::thread::spawn(move || {
                let read = |first, n| read_pages(&m, first, n, CacheUse::Recheck);
                io_thread_loop(rx, &m.inflight, m.cfg.safs_merge, read)
            }));
            senders.push(tx);
        }
        Ok(Safs {
            mount,
            senders,
            handles,
            sessions: Counter::new(0),
        })
    }

    /// The mounted configuration.
    pub fn config(&self) -> &SafsConfig {
        &self.mount.cfg
    }

    /// The underlying array (for its I/O statistics).
    pub fn array(&self) -> &SsdArray {
        &self.mount.array
    }

    /// Page-cache statistics snapshot.
    pub fn cache_stats(&self) -> CacheStatsSnapshot {
        self.mount.cache.stats()
    }

    /// Resets cache and device statistics (between experiment phases).
    pub fn reset_stats(&self) {
        self.mount.cache.reset_stats();
        self.mount.array.stats().reset();
    }

    /// SAFS page size in bytes.
    #[inline]
    pub fn page_bytes(&self) -> u64 {
        self.mount.cfg.page_bytes
    }

    /// Opens an asynchronous session. Each worker thread gets its own;
    /// sessions are not `Sync`.
    pub fn session(&self) -> IoSession<'_> {
        self.session_scoped(None)
    }

    /// Like [`Safs::session`] but every cache lookup the session makes
    /// is also recorded into `scope` — the per-tenant accounting that
    /// lets concurrent queries sharing one mount each report their own
    /// hit/miss deltas while the mount-wide [`Safs::cache_stats`]
    /// keeps the aggregate. A scope only sees application-side lookups
    /// (hits, misses, lookups); insertions and evictions happen on the
    /// shared I/O threads and stay mount-wide. The session counts its
    /// lookups privately and folds them into `scope` whenever it
    /// dispatches — every kick, poll and wait, and its drop — so a
    /// scope read after its sessions are gone, or after their last
    /// harvest, is exact.
    pub fn session_scoped(&self, scope: Option<Arc<CacheStats>>) -> IoSession<'_> {
        let (inflight, id) = (&self.mount.inflight, self.sessions.inc());
        IoSession::new(self, inflight, &self.senders, id, scope)
    }

    /// Synchronous read: blocks the calling thread, still goes through
    /// the page cache (lookups booked, fresh pages inserted) with one
    /// device read per contiguous run of misses. Used where the
    /// caller has nothing to overlap the read with: the engine's
    /// reads of a peer shard's lists (`SemIo::read_now`) and the
    /// serving layer's image headers and ingest canonicalisation (the
    /// mount as a [`ByteSource`]); a worker's own shard goes through
    /// sessions.
    ///
    /// # Errors
    ///
    /// Returns [`FgError::InvalidRequest`] when the range exceeds the
    /// device.
    pub fn read_sync(&self, offset: u64, len: u64) -> Result<PageSpan> {
        self.read_through(offset, len, CacheUse::Booked)
    }

    /// This mount as a [`ByteSource`] under the *streaming* cache
    /// policy, for a caller that sweeps a large range once (a
    /// compaction reading the old image back): resident pages are
    /// used, without booking hits or misses or counting as a reference
    /// to their slots, and freshly read pages are not inserted, so the
    /// sweep can neither evict the hot working set however small the
    /// cache is next to it, nor promote pages that entered on
    /// probation. Each contiguous run of absent pages is one device
    /// request. The mount itself is the source under
    /// [`Safs::read_sync`]'s policy.
    pub fn streaming(&self) -> Streaming<'_> {
        Streaming(self)
    }

    /// Writes `data` at `offset` through to the device, booked exactly
    /// as [`SsdArray::write`] books it, and leaves what it wrote
    /// resident: every page the write covers completely is installed
    /// (bytes past the end of the device count as covered: a read
    /// zero-fills them), and a resident page it covers only in part
    /// is replaced by a patched copy. Any other page is left for its
    /// first read. Installed pages enter the cache warm, not on the
    /// probation a read miss gets, so the generation's first queries
    /// find them resident.
    ///
    /// Write-through fills a mount *before it is published* — a
    /// compaction writing the next generation — and is not a
    /// coherence protocol for a live mount. Once a session has been
    /// opened, an I/O thread may still be finishing a dropped
    /// session's run and would insert a page's pre-write bytes after
    /// the write, so the write is refused; `&mut self` keeps the
    /// synchronous readers out.
    ///
    /// # Errors
    ///
    /// [`FgError::InvalidRequest`] once the mount has opened a session,
    /// and for an empty or out-of-range write, which installs nothing.
    pub fn write(&mut self, offset: u64, data: &[u8]) -> Result<()> {
        if self.sessions.get() > 0 {
            return Err(FgError::InvalidRequest(
                "write-through to a mount that has opened a session".into(),
            ));
        }
        self.mount.array.write(offset, data)?;
        let (pb, capacity) = (self.page_bytes(), self.mount.capacity);
        let end = offset + data.len() as u64;
        for pageno in offset / pb..=(end - 1) / pb {
            let start = pageno * pb;
            let (lo, hi) = (offset.max(start), end.min(start + pb));
            let mut bytes: Box<[u8]> = if lo == start && hi >= capacity.min(start + pb) {
                vec![0u8; pb as usize].into()
            } else if let Some(old) = self.mount.cache.get_quiet(pageno) {
                old.bytes().into()
            } else {
                continue;
            };
            bytes[(lo - start) as usize..(hi - start) as usize]
                .copy_from_slice(&data[(lo - offset) as usize..(hi - offset) as usize]);
            self.mount.cache.install(Arc::new(Page::new(pageno, bytes)));
        }
        Ok(())
    }

    /// The synchronous reads' common body: the pages of the range,
    /// fetched on the calling thread under `cache`'s policy.
    fn read_through(&self, offset: u64, len: u64, cache: CacheUse) -> Result<PageSpan> {
        if len == 0 {
            return Ok(PageSpan::empty());
        }
        let end = check_range(self.mount.capacity, offset, len)?;
        let pb = self.page_bytes();
        let first = offset / pb;
        let last = (end - 1) / pb;
        let pages = read_pages(&self.mount, first, last - first + 1, cache);
        Ok(PageSpan::new(
            pages,
            (offset - first * pb) as usize,
            len as usize,
        ))
    }
}

/// A mount read under the streaming policy: resident pages are used,
/// and nothing is booked or inserted. Made by [`Safs::streaming`].
#[derive(Debug, Clone, Copy)]
pub struct Streaming<'a>(&'a Safs);

/// A mount as a byte source: point reads through [`Safs::read_sync`],
/// so lookups are booked and misses inserted.
impl ByteSource for Safs {
    fn capacity(&self) -> u64 {
        self.mount.capacity
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.read_sync(offset, buf.len() as u64)?
            .window()
            .read_bytes(0, buf);
        Ok(())
    }
}

impl ByteSource for Streaming<'_> {
    fn capacity(&self) -> u64 {
        self.0.mount.capacity
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.0
            .read_through(offset, buf.len() as u64, CacheUse::Stream)?
            .window()
            .read_bytes(0, buf);
        Ok(())
    }
}

impl Drop for Safs {
    fn drop(&mut self) {
        for tx in &self.senders {
            let _ = tx.send(IoMsg::Shutdown);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Host for Safs {
    fn books(&self) -> &IoStats {
        self.mount.array.stats()
    }

    fn geometry(&self) -> (u64, u64) {
        (self.page_bytes(), self.mount.capacity)
    }

    fn lookup(&self, pageno: u64) -> Option<Arc<Page>> {
        self.mount.cache.get(pageno)
    }

    /// By owning drive, so one thread's queue serves one drive's
    /// neighbourhood (the per-SSD I/O thread design).
    fn route(&self, first_page: u64) -> usize {
        let array = self.mount.array.config();
        let stripe = first_page * self.page_bytes() / array.stripe_bytes();
        let ssd = (stripe as usize) % array.num_ssds;
        ssd % self.senders.len()
    }

    fn serve(&self, runs: &[RunRequest]) {
        let m = &self.mount;
        let mut read = |first, n| read_pages(m, first, n, CacheUse::Recheck);
        serve(runs, &m.inflight, m.cfg.safs_merge, &mut read);
    }
}

/// What a caller of [`read_pages`] does to the page cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CacheUse {
    /// An I/O thread's re-check behind a session's booked miss (or a
    /// session's own, serving its inline read):
    /// lookups are not counted again, fresh pages are inserted.
    /// Sessions claim a page in the mount's in-flight table before they
    /// dispatch it, so two *sessions* never fetch one page at once; the
    /// re-check is for the reader that inserts without claiming:
    /// `Safs::read_sync` may have filled a page between a session's
    /// submit-time miss and the pass, which then costs no device read.
    Recheck,
    /// The caller's first look (`Safs::read_sync`): lookups are booked
    /// as hits and misses, fresh pages are inserted.
    Booked,
    /// A once-only sweep (`Safs::streaming`): cached pages are
    /// still *used* when present — the hot set helps the sweep — but
    /// nothing is booked, a resident page's slot is not referenced,
    /// and fresh pages are handed straight to the caller without
    /// touching the cache, so the sweep neither evicts the working set
    /// nor promotes pages on probation.
    Stream,
}

/// Returns `num_pages` pages starting at `first_page`, reading each
/// contiguous run of pages the cache does not hold in one device
/// request, under `cache`'s policy: the one statement of which pages of
/// a range still go to the device.
fn read_pages(ctx: &Mount, first_page: u64, num_pages: u64, cache: CacheUse) -> Vec<Arc<Page>> {
    let pb = ctx.cfg.page_bytes;
    let mut pages: Vec<Option<Arc<Page>>> = (first_page..first_page + num_pages)
        .map(|p| match cache {
            CacheUse::Booked => ctx.cache.get(p),
            CacheUse::Recheck => ctx.cache.get_quiet(p),
            CacheUse::Stream => ctx.cache.peek(p),
        })
        .collect();
    let mut i = 0usize;
    while i < pages.len() {
        if pages[i].is_some() {
            i += 1;
            continue;
        }
        let mut j = i;
        while j < pages.len() && pages[j].is_none() {
            j += 1;
        }
        let run_first = first_page + i as u64;
        // The device fills the run's page buffers directly. Clamp the
        // tail: the image may end mid-page, the rest stays zero.
        let mut bufs: Vec<Box<[u8]>> = (i..j)
            .map(|_| vec![0u8; pb as usize].into_boxed_slice())
            .collect();
        let offset = run_first * pb;
        let avail = ctx.capacity.saturating_sub(offset);
        let len = ((j - i) as u64 * pb).min(avail);
        ctx.array
            .read_scatter(offset, len, bufs.iter_mut().map(|b| &mut b[..]))
            .expect("io thread read within device bounds");
        for (k, buf) in bufs.into_iter().enumerate() {
            let page = Arc::new(Page::new(run_first + k as u64, buf));
            if cache != CacheUse::Stream {
                ctx.cache.insert(Arc::clone(&page));
            }
            pages[i + k] = Some(page);
        }
        i = j;
    }
    pages
        .into_iter()
        .map(|p| p.expect("every gap was filled above"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Completion;
    use fg_ssdsim::ArrayConfig;
    use proptest::prelude::*;

    /// An array whose byte at offset o is (o / 4 % 251) in each u32.
    fn patterned_safs(cfg: SafsConfig, capacity: u64) -> Safs {
        let array = SsdArray::new_mem(ArrayConfig::small_test(), capacity).unwrap();
        let words: Vec<u8> = (0..capacity / 4)
            .flat_map(|w| ((w % 251) as u32).to_le_bytes())
            .collect();
        array.write(0, &words).unwrap();
        array.stats().reset();
        Safs::new(cfg, array).unwrap()
    }

    #[test]
    fn read_sync_round_trip() {
        let safs = patterned_safs(SafsConfig::default(), 1 << 16);
        let span = safs.read_sync(4096, 8).unwrap();
        let words: Vec<u32> = span.window().u32_iter().collect();
        assert_eq!(words, vec![(4096 / 4) % 251, (4096 / 4 + 1) % 251]);
    }

    #[test]
    fn read_sync_hits_cache_second_time() {
        let safs = patterned_safs(SafsConfig::default(), 1 << 16);
        safs.read_sync(0, 4096).unwrap();
        let before = safs.array().stats().snapshot().read_requests;
        safs.read_sync(0, 4096).unwrap();
        assert_eq!(safs.array().stats().snapshot().read_requests, before);
        assert!(safs.cache_stats().hits >= 1);
    }

    #[test]
    fn zero_cache_always_misses() {
        let safs = patterned_safs(SafsConfig::default().with_cache_bytes(0), 1 << 16);
        safs.read_sync(0, 4096).unwrap();
        safs.read_sync(0, 4096).unwrap();
        assert_eq!(safs.array().stats().snapshot().read_requests, 2);
        assert_eq!(safs.cache_stats().hits, 0);
    }

    #[test]
    fn async_completion_delivers_bytes() {
        let safs = patterned_safs(SafsConfig::default(), 1 << 16);
        let mut s = safs.session();
        s.submit(8192, 16, 42).unwrap();
        let mut out = Vec::new();
        while s.pending() > 0 && out.is_empty() {
            s.wait(&mut out);
        }
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].tag, 42);
        let words: Vec<u32> = out[0].span.window().u32_iter().collect();
        let w0 = (8192 / 4) % 251;
        assert_eq!(words, vec![w0, w0 + 1, w0 + 2, w0 + 3]);
    }

    #[test]
    fn cached_submit_completes_without_io() {
        let safs = patterned_safs(SafsConfig::default(), 1 << 16);
        safs.read_sync(0, 4096).unwrap();
        let io_before = safs.array().stats().snapshot().read_requests;
        let mut s = safs.session();
        s.submit(100, 32, 1).unwrap();
        let mut out = Vec::new();
        assert_eq!(s.poll(&mut out), 1, "cache-hit request completes inline");
        assert_eq!(safs.array().stats().snapshot().read_requests, io_before);
    }

    #[test]
    fn many_outstanding_requests_all_complete() {
        let safs = patterned_safs(SafsConfig::default().with_cache_bytes(1 << 16), 1 << 20);
        let mut s = safs.session();
        let n = 200u64;
        for i in 0..n {
            // Scatter across the device.
            let off = (i * 37) % 250 * 4096;
            s.submit(off, 64, i).unwrap();
        }
        let mut out = Vec::new();
        while s.pending() > 0 {
            s.wait(&mut out);
        }
        assert_eq!(out.len(), n as usize);
        let mut tags: Vec<u64> = out.iter().map(|c| c.tag).collect();
        tags.sort_unstable();
        assert_eq!(tags, (0..n).collect::<Vec<_>>());
        for c in &out {
            assert_eq!(c.span.len(), 64);
        }
    }

    #[test]
    fn request_spanning_many_pages() {
        let safs = patterned_safs(SafsConfig::default(), 1 << 20);
        let mut s = safs.session();
        // 5 pages + offsets on both ends.
        s.submit(4000, 18000, 9).unwrap();
        let mut out = Vec::new();
        while out.is_empty() {
            s.wait(&mut out);
        }
        let span = &out[0].span;
        assert_eq!(span.len(), 18000);
        assert_eq!(span.window().read_u32_le(0), (4000 / 4) % 251);
        assert_eq!(span.window().read_u32_le(17996), ((4000 + 17996) / 4) % 251);
    }

    #[test]
    fn wait_timeout_expires_and_delivers() {
        let safs = patterned_safs(SafsConfig::default(), 1 << 16);
        let mut s = safs.session();
        let mut out = Vec::new();
        // Nothing pending: returns immediately, no completions.
        assert_eq!(
            s.wait_timeout(&mut out, std::time::Duration::from_millis(1)),
            0
        );
        s.submit(0, 64, 3).unwrap();
        while out.is_empty() {
            s.wait_timeout(&mut out, std::time::Duration::from_millis(5));
        }
        assert_eq!(out[0].tag, 3);
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn sessions_sample_device_queue_depth() {
        let safs = patterned_safs(SafsConfig::default(), 1 << 16);
        let mut s = safs.session();
        s.submit(0, 4096, 1).unwrap();
        let mut out = Vec::new();
        while out.is_empty() {
            s.wait(&mut out);
        }
        let snap = safs.array().stats().snapshot();
        assert!(snap.depth_samples >= 2, "enter + exit sampled");
        assert!(snap.depth_max >= 1);
        assert!(snap.depth_zero_dips >= 1, "queue drained after the run");
    }

    #[test]
    fn a_dropped_session_leaves_the_queue_gauge_where_it_found_it() {
        // A session that goes away with its kicked runs and an
        // attachment unharvested — a worker unwinding from a panicking
        // callback — while the mount serves on.
        let safs = patterned_safs(SafsConfig::default(), 1 << 20);
        let mut fetcher = safs.session();
        let mut dying = safs.session();
        fetcher.submit(0, 4096, 0).unwrap();
        for i in 0..4 {
            dying.submit((i * 3 + 1) * 4096, 4096, i).unwrap();
        }
        dying.submit(0, 4096, 9).unwrap(); // rides the fetcher's claim
        dying.kick();
        drop(dying);
        let mut out = Vec::new();
        while fetcher.pending() > 0 {
            fetcher.wait(&mut out);
        }
        // A fresh session's one cold page is then the whole queue.
        safs.array().stats().reset();
        let mut s = safs.session();
        s.submit(40 * 4096, 4096, 1).unwrap();
        while s.pending() > 0 {
            s.wait(&mut out);
        }
        let snap = safs.array().stats().snapshot();
        assert_eq!(snap.depth_max, 1);
        assert_eq!(snap.depth_zero_dips, 1);
    }

    #[test]
    fn zero_length_completes_empty() {
        let safs = patterned_safs(SafsConfig::default(), 1 << 16);
        let mut s = safs.session();
        s.submit(0, 0, 5).unwrap();
        let mut out = Vec::new();
        assert_eq!(s.poll(&mut out), 1);
        assert!(out[0].span.is_empty());
    }

    #[test]
    fn out_of_bounds_submit_rejected() {
        let safs = patterned_safs(SafsConfig::default(), 1 << 16);
        let mut s = safs.session();
        assert!(s.submit(1 << 16, 1, 0).is_err());
        assert!(safs.read_sync(1 << 16, 1).is_err());
    }

    #[test]
    fn partial_hit_reads_only_missing_pages() {
        // Pages 0..=2 with page 1 resident, through a session (runs cut
        // at submit, read by the I/O threads), through a session's
        // inline read (cut at submit, served on the caller's thread)
        // and through `read_sync` (cut and read on the caller's
        // thread): the same two runs.
        for (sync, inline) in [(false, false), (false, true), (true, false)] {
            let safs = patterned_safs(SafsConfig::default(), 1 << 20);
            safs.read_sync(4096, 1).unwrap();
            safs.array().stats().reset();
            let cache = safs.cache_stats();
            let span = if sync {
                safs.read_sync(0, 3 * 4096).unwrap()
            } else if inline {
                let mut s = safs.session();
                let span = s.read_inline(0, 3 * 4096).unwrap();
                assert_eq!(s.pending(), 0, "nothing left behind");
                assert_eq!(safs.mount.inflight.open_claims(), 0);
                span
            } else {
                let mut s = safs.session();
                s.submit(0, 3 * 4096, 7).unwrap();
                let mut out = Vec::new();
                while out.is_empty() {
                    s.wait(&mut out);
                }
                out.pop().unwrap().span
            };
            let snap = safs.array().stats().snapshot();
            assert_eq!(snap.read_requests, 2, "sync={sync}: one read per miss run");
            assert_eq!(
                snap.pages_read, 2,
                "sync={sync}: only the two missing pages hit the device"
            );
            let d = safs.cache_stats().delta_since(&cache);
            assert_eq!((d.hits, d.misses, d.lookups), (1, 2, 3), "sync={sync}");
            assert_eq!(span.len(), 3 * 4096);
            // Content correct across the stitched span.
            for at in [0, 4096, 2 * 4096, 3 * 4096 - 4] {
                assert_eq!(
                    span.window().read_u32_le(at),
                    (at as u32 / 4) % 251,
                    "sync={sync}"
                );
            }
        }
    }

    #[test]
    fn sessions_from_multiple_threads() {
        let safs = std::sync::Arc::new(patterned_safs(SafsConfig::default(), 1 << 20));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let safs = std::sync::Arc::clone(&safs);
            handles.push(std::thread::spawn(move || {
                let mut s = safs.session();
                for i in 0..50 {
                    s.submit(((t * 50 + i) % 200) * 4096, 128, i).unwrap();
                }
                let mut out = Vec::new();
                while s.pending() > 0 {
                    s.wait(&mut out);
                }
                assert_eq!(out.len(), 50);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn scoped_session_books_its_own_lookups() {
        let safs = patterned_safs(SafsConfig::default(), 1 << 20);
        // Warm pages 0..4 so the scoped session can hit.
        safs.read_sync(0, 4 * 4096).unwrap();
        let mount_before = safs.cache_stats();

        let scope = Arc::new(CacheStats::default());
        let mut s = safs.session_scoped(Some(Arc::clone(&scope)));
        s.submit(0, 2 * 4096, 1).unwrap(); // 2 hits
        s.submit(64 * 4096, 4096, 2).unwrap(); // 1 miss
        let mut out = Vec::new();
        while out.len() < 2 {
            s.wait(&mut out);
        }

        let scoped = scope.snapshot();
        assert_eq!(scoped.hits, 2);
        assert_eq!(scoped.misses, 1);
        assert_eq!(scoped.lookups, 3);
        // The mount-wide counters moved by the same lookups (plus
        // nothing else: no other tenant is active).
        let mount_delta = safs.cache_stats().delta_since(&mount_before);
        assert_eq!(mount_delta.hits, scoped.hits);
        assert_eq!(mount_delta.misses, scoped.misses);

        // An unscoped session leaves the scope untouched.
        let mut plain = safs.session();
        plain.submit(0, 4096, 3).unwrap();
        let mut out2 = Vec::new();
        plain.poll(&mut out2);
        assert_eq!(scope.snapshot(), scoped);

        // Lookups are counted in the session and folded in when it
        // dispatches; a session that submits and goes away without a
        // kick (a cancelled query) still books every one of them.
        let mut dying = safs.session_scoped(Some(Arc::clone(&scope)));
        dying.submit(4096, 3 * 4096, 4).unwrap(); // 3 hits
        dying.submit(65 * 4096, 2 * 4096, 5).unwrap(); // 2 misses
        assert_eq!(scope.snapshot(), scoped, "not folded per lookup");
        drop(dying);
        let after = scope.snapshot();
        assert_eq!(
            (after.hits, after.misses),
            (scoped.hits + 3, scoped.misses + 2)
        );
        assert_eq!(after.lookups, after.hits + after.misses);
        let mount = safs.cache_stats().delta_since(&mount_before);
        assert_eq!(mount.lookups, mount.hits + mount.misses);
        assert_eq!(
            mount.lookups,
            after.lookups + 1,
            "the scope's and `plain`'s"
        );
    }

    #[test]
    fn sync_stream_read_leaves_the_cache_as_it_found_it() {
        // A cache of 8 pages in front of a 256-page device.
        let cfg = SafsConfig::default().with_cache_bytes(8 * 4096);
        let safs = patterned_safs(cfg, 1 << 20);
        // Pages 2 and 3 are hot.
        safs.read_sync(2 * 4096, 2 * 4096).unwrap();
        let cache_before = safs.cache_stats();
        let io_before = safs.array().stats().snapshot();
        // A sweep over pages 0..64 reads around them: 0-1 and 4-63.
        let span = safs
            .read_through(100, 64 * 4096 - 100, CacheUse::Stream)
            .unwrap();
        let io = safs.array().stats().snapshot();
        assert_eq!(io.pages_read - io_before.pages_read, 62);
        assert_eq!(io.read_requests - io_before.read_requests, 1 + 15);
        let mut want = vec![0u8; 64 * 4096 - 100];
        safs.array().read(100, &mut want).unwrap();
        assert_eq!(span.window().to_vec(), want);
        assert_eq!(
            safs.cache_stats(),
            cache_before,
            "no lookup, insert or eviction"
        );
        // Stream pages were never slotted, so holding `span` puts
        // nothing in the victim tables either.
        assert_eq!(safs.mount.cache.victim_entries(), 0);
        // The hot pages are still resident, the swept ones are not.
        let before = safs.array().stats().snapshot().pages_read;
        safs.read_sync(2 * 4096, 2 * 4096).unwrap();
        assert_eq!(safs.array().stats().snapshot().pages_read, before);
        safs.read_sync(0, 4096).unwrap();
        assert_eq!(safs.array().stats().snapshot().pages_read, before + 1);
        assert_eq!(safs.mount.cache.victim_entries(), 0);
        drop(span);
        assert!(safs.streaming().read_at(1 << 20, &mut [0]).is_err());
        assert!(safs.streaming().read_at(0, &mut []).is_ok());
    }

    #[test]
    fn a_stream_read_does_not_promote_a_page_on_probation() {
        // One set of 8 ways in front of a 256-page device, full.
        let cfg = SafsConfig::default().with_cache_bytes(8 * 4096);
        let safs = patterned_safs(cfg, 1 << 20);
        safs.read_sync(0, 8 * 4096).unwrap();
        let resident = |p: u64| safs.mount.cache.peek(p).is_some();
        // Page 100 enters on probation in page 0's slot.
        safs.read_sync(100 * 4096, 1).unwrap();
        assert!(resident(100) && !resident(0));
        // A stream read uses it without a device read ...
        let io = safs.array().stats().snapshot().pages_read;
        let mut page = vec![0u8; 4096];
        safs.streaming().read_at(100 * 4096, &mut page).unwrap();
        assert_eq!(safs.array().stats().snapshot().pages_read, io);
        // ... and leaves it the victim of the set's next miss.
        safs.read_sync(101 * 4096, 1).unwrap();
        assert!(!resident(100), "the stream read promoted its page");
        assert!((1..8).all(resident));
        // The I/O thread's re-check serves a session's request, so it
        // does count: page 101 survives the next miss, page 1 goes.
        read_pages(&safs.mount, 101, 1, CacheUse::Recheck);
        safs.read_sync(102 * 4096, 1).unwrap();
        assert!(resident(101) && resident(102) && !resident(1));
    }

    #[test]
    fn written_pages_outlive_a_once_read_scan() {
        // One set of 8 ways in front of a 256-page device, full of
        // pages read once.
        let pb = 4096u64;
        let cfg = SafsConfig::default().with_cache_bytes(8 * pb);
        let mut safs = patterned_safs(cfg, 1 << 20);
        safs.read_sync(200 * pb, 8 * pb).unwrap();
        // The next generation written through the cache: 8 whole
        // pages, each of which evicts a page read once.
        let data: Vec<u8> = (0..8 * pb).map(|i| (i % 253) as u8).collect();
        safs.write(0, &data).unwrap();
        // A once-read scan the size of the cache.
        for p in 100..108 {
            safs.read_sync(p * pb, 1).unwrap();
        }
        // The first miss took page 0's slot; the scan's later pages
        // replaced one another there, and pages 1-7 stay resident.
        let bytes = safs.array().stats().snapshot().bytes_read;
        let again = safs.read_sync(pb, 7 * pb).unwrap();
        assert_eq!(again.window().to_vec(), data[pb as usize..]);
        assert_eq!(safs.array().stats().snapshot().bytes_read, bytes);
        assert_eq!(
            safs.read_sync(0, pb).unwrap().window().to_vec(),
            data[..pb as usize]
        );
        assert_eq!(safs.array().stats().snapshot().bytes_read, bytes + pb);
    }

    #[test]
    fn held_span_keeps_its_pages_hits_on_every_read_path() {
        // A cache of 8 pages in front of a 256-page device.
        let cfg = SafsConfig::default().with_cache_bytes(8 * 4096);
        let safs = patterned_safs(cfg, 1 << 20);
        let held = safs.read_sync(4096, 2 * 4096).unwrap(); // pages 1-2

        // Push them out of their slots: 64 other pages through 8, each
        // hit once after its miss so that the hand ages every slot.
        for p in 16..80 {
            safs.read_sync(p * 4096, 1).unwrap();
            safs.read_sync(p * 4096, 1).unwrap();
        }
        assert!(safs.cache_stats().evictions >= 2);
        let io = safs.array().stats().snapshot();
        let cache = safs.cache_stats();
        // The synchronous path ...
        let again = safs.read_sync(4096, 2 * 4096).unwrap();
        assert_eq!(again.window().to_vec(), held.window().to_vec());
        // ... the application-side lookup of a session (an all-hit
        // submit completes inline) ...
        let mut s = safs.session();
        s.submit(4096 + 100, 4096, 9).unwrap();
        let mut out = Vec::new();
        assert_eq!(s.poll(&mut out), 1);
        // ... and the I/O thread's pre-read re-check all find them.
        let got = read_pages(&safs.mount, 1, 2, CacheUse::Recheck);
        assert_eq!(got[0].bytes(), held.window().chunk_at(0));
        assert_eq!(safs.array().stats().snapshot().pages_read, io.pages_read);
        let d = safs.cache_stats().delta_since(&cache);
        assert_eq!((d.hits, d.pinned_hits, d.misses), (4, 4, 0));
        // Let go of everything: the pages are gone and a read is a
        // device read again.
        drop((held, again, out, got));
        safs.read_sync(4096, 2 * 4096).unwrap();
        assert_eq!(
            safs.array().stats().snapshot().pages_read,
            io.pages_read + 2
        );
    }

    #[test]
    fn overlapping_session_attaches_to_in_flight_read() {
        let safs = patterned_safs(SafsConfig::default(), 1 << 16);
        // The fetcher claims pages 0-1 at submit; until it kicks, the
        // run sits in its outbox and the in-flight window stays open
        // deterministically.
        let mut fetcher = safs.session();
        fetcher.submit(0, 2 * 4096, 0).unwrap();
        assert_eq!(safs.mount.inflight.open_claims(), 2);

        // A second session missing page 1 attaches as a waiter instead
        // of dispatching its own device run.
        let mut s = safs.session();
        s.submit(4096, 64, 9).unwrap();
        let snap = safs.array().stats().snapshot();
        assert_eq!(snap.dedup_hits, 1);
        assert_eq!(snap.dedup_bytes, 4096);
        assert_eq!(s.pending(), 1);
        let mut out = Vec::new();
        assert_eq!(s.poll(&mut out), 0, "the waiter has nothing to kick");
        let snap = safs.array().stats().snapshot();
        assert_eq!(snap.read_requests, 0, "the waiter dispatched nothing");
        assert_eq!(snap.depth_samples, 1, "only the attachment is queued");

        // Now the fetcher's run reaches its I/O thread: one device
        // read serves both sessions.
        fetcher.kick();
        while out.is_empty() {
            s.wait(&mut out);
        }
        assert_eq!(out[0].tag, 9);
        assert_eq!(out[0].span.window().read_u32_le(0), (4096 / 4) % 251);
        let mut fetched = Vec::new();
        while fetched.is_empty() {
            fetcher.wait(&mut fetched);
        }
        assert_eq!(
            fetched[0].span.window().page_count(),
            2,
            "fetcher gets its pages"
        );
        let snap = safs.array().stats().snapshot();
        assert_eq!(snap.read_requests, 1, "exactly one device read total");
        assert_eq!(safs.mount.inflight.open_claims(), 0, "claims resolved");
    }

    #[test]
    fn dead_waiter_session_does_not_wedge_the_fetcher() {
        let safs = patterned_safs(SafsConfig::default(), 1 << 16);
        let mut fetcher = safs.session();
        fetcher.submit(2 * 4096, 4096, 0).unwrap();
        {
            let mut dying = safs.session();
            dying.submit(2 * 4096, 16, 1).unwrap();
            assert_eq!(safs.array().stats().snapshot().dedup_hits, 1);
            // The waiter session is dropped mid-wait (a cancelled or
            // panicking tenant).
        }
        let mut fetched = Vec::new();
        while fetched.is_empty() {
            fetcher.wait(&mut fetched);
        }
        assert_eq!(
            fetched[0].span.window().read_u32_le(0),
            (2 * 4096 / 4) % 251
        );
        assert_eq!(safs.mount.inflight.open_claims(), 0);
    }

    #[test]
    fn session_exit_dispatches_its_claimed_runs() {
        // A session that goes away between claiming pages and kicking
        // them — dropped by a cancelled query, or unwound by a
        // panicking vertex program — must still get the runs served:
        // another session may be attached to those claims.
        for unwind in [false, true] {
            let safs = patterned_safs(SafsConfig::default(), 1 << 16);
            let mut waiter = safs.session();
            let exit = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut dying = safs.session();
                dying.submit(0, 2 * 4096, 1).unwrap();
                waiter.submit(4096, 64, 9).unwrap();
                let snap = safs.array().stats().snapshot();
                assert_eq!(snap.dedup_hits, 1, "the waiter rides the claim");
                assert_eq!(snap.read_requests, 0, "nothing dispatched yet");
                if unwind {
                    panic!("vertex program blew up");
                }
            }));
            assert_eq!(exit.is_err(), unwind);
            let mut out = Vec::new();
            while out.is_empty() {
                waiter.wait(&mut out);
            }
            assert_eq!(out[0].span.window().read_u32_le(0), (4096 / 4) % 251);
            assert_eq!(safs.array().stats().snapshot().read_requests, 1);
            assert_eq!(safs.mount.inflight.open_claims(), 0);
        }
    }

    #[test]
    fn an_inline_read_rides_a_claim_it_did_not_make() {
        // Another session holds the claims on pages 0-1, its run still
        // buffered. An inline read of pages 1-3 serves pages 2-3 itself
        // and rides the claim on page 1 (or, once that read has landed,
        // finds the page resident): the device reads each page once,
        // and the inline read waits only until the claimer dispatches.
        let safs = patterned_safs(SafsConfig::default(), 1 << 16);
        let mut claimer = safs.session();
        claimer.submit(0, 2 * 4096, 1).unwrap();
        let span = std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                let mut s = safs.session();
                s.submit(8 * 4096, 4, 5).unwrap();
                let span = s.read_inline(4096 + 8, 2 * 4096).unwrap();
                // The submit before it went out and came back; it
                // waits for the next poll.
                let mut out = Vec::new();
                while out.is_empty() {
                    s.wait(&mut out);
                }
                assert_eq!(out[0].tag, 5);
                span
            });
            claimer.kick();
            let mut out = Vec::new();
            while out.is_empty() {
                claimer.wait(&mut out);
            }
            assert_eq!(out[0].span.window().page_count(), 2);
            reader.join().unwrap()
        });
        for at in [0, 4096 - 8, 2 * 4096 - 4] {
            let o = 4096 + 8 + at;
            assert_eq!(span.window().read_u32_le(at), (o as u32 / 4) % 251);
        }
        let snap = safs.array().stats().snapshot();
        assert_eq!(snap.pages_read, 5, "pages 0-3 and 8, each read once");
        assert_eq!(snap.dedup_hits + safs.cache_stats().hits, 1, "page 1");
        assert_eq!(safs.mount.inflight.open_claims(), 0);
    }

    #[test]
    fn an_inline_read_of_resident_pages_books_hits_and_reads_nothing() {
        let safs = patterned_safs(SafsConfig::default(), 1 << 16);
        safs.read_sync(0, 2 * 4096).unwrap();
        let io = safs.array().stats().snapshot();
        let scope = Arc::new(CacheStats::default());
        {
            let mut s = safs.session_scoped(Some(Arc::clone(&scope)));
            let span = s.read_inline(100, 4096).unwrap();
            assert_eq!(span.window().page_count(), 2);
            assert_eq!(span.window().read_u32_le(0), 25);
        }
        let after = safs.array().stats().snapshot();
        assert_eq!(after.read_requests, io.read_requests);
        assert_eq!(after.depth_samples, io.depth_samples, "nothing queued");
        assert_eq!(scope.snapshot().hits, 2, "folded into the scope");
    }

    #[test]
    fn buffered_runs_enter_the_queue_at_kick() {
        let safs = patterned_safs(SafsConfig::default(), 1 << 20);
        let mut s = safs.session();
        for i in 0..8 {
            s.submit(i * 3 * 4096, 4096, i).unwrap();
        }
        let snap = safs.array().stats().snapshot();
        assert_eq!(snap.depth_samples, 0, "buffered, not dispatched");
        assert_eq!(snap.read_requests, 0);
        s.kick();
        assert_eq!(safs.array().stats().snapshot().depth_max, 8);
        let mut out = Vec::new();
        while s.pending() > 0 {
            s.wait(&mut out);
        }
        assert_eq!(out.len(), 8);
    }

    #[test]
    fn default_io_threads_fit_the_cores_and_serve_every_drive() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        for cfg in [ArrayConfig::paper_array(), ArrayConfig::small_test()] {
            let array = SsdArray::new_mem(cfg, 1 << 22).unwrap();
            let safs = Safs::new(SafsConfig::default(), array).unwrap();
            let threads = safs.senders.len();
            assert_eq!(threads, cfg.num_ssds.min(cores), "{} drives", cfg.num_ssds);
            // One stripe per drive: every drive maps to a live thread,
            // and every thread has at least one drive.
            let stripe_pages = cfg.stripe_bytes() / safs.page_bytes();
            let routed: std::collections::BTreeSet<usize> = (0..cfg.num_ssds as u64)
                .map(|drive| safs.route(drive * stripe_pages))
                .collect();
            assert_eq!(routed, (0..threads).collect(), "{} drives", cfg.num_ssds);
        }
    }

    #[test]
    fn larger_page_size_reads_more_bytes() {
        // Figure 13's mechanism: big SAFS pages amplify bytes read for
        // small requests.
        let small = patterned_safs(SafsConfig::default().with_cache_bytes(0), 1 << 20);
        small.read_sync(0, 16).unwrap();
        let small_bytes = small.array().stats().snapshot().bytes_read;

        let big = patterned_safs(
            SafsConfig::default()
                .with_cache_bytes(0)
                .with_page_bytes(64 * 1024),
            1 << 20,
        );
        big.read_sync(0, 16).unwrap();
        let big_bytes = big.array().stats().snapshot().bytes_read;
        assert!(
            big_bytes >= 16 * small_bytes,
            "64K pages should read >=16x the bytes of 4K pages ({big_bytes} vs {small_bytes})"
        );
    }

    #[test]
    fn read_pages_fills_cache_and_content() {
        let safs = patterned_safs(SafsConfig::default(), 1 << 16);
        let pages = read_pages(&safs.mount, 2, 2, CacheUse::Recheck);
        assert_eq!(pages.len(), 2);
        assert_eq!(pages[0].pageno(), 2);
        assert_eq!(
            pages[1].bytes()[4..8],
            (((3 * 4096 / 4 + 1) % 251) as u32).to_le_bytes()
        );
        assert!(safs.mount.cache.get(2).is_some());
        assert!(safs.mount.cache.get(3).is_some());
        assert_eq!(safs.array().stats().snapshot().read_requests, 1);
    }

    #[test]
    fn tail_page_beyond_capacity_is_zero_padded() {
        // Capacity 6000 bytes: page 1 is only half-backed by device.
        let array = SsdArray::new_mem(ArrayConfig::small_test(), 6000).unwrap();
        array.write(0, &vec![9u8; 6000]).unwrap();
        let safs = Safs::new(SafsConfig::default(), array).unwrap();
        let pages = read_pages(&safs.mount, 1, 1, CacheUse::Recheck);
        assert_eq!(pages[0].bytes()[0], 9);
        assert_eq!(pages[0].bytes()[4095], 0, "unbacked tail must be zeroed");
    }

    /// Device pages read and cache misses booked so far.
    fn reads_and_misses(safs: &Safs) -> (u64, u64) {
        let pages = safs.array().stats().snapshot().pages_read;
        (pages, safs.cache_stats().misses)
    }

    #[test]
    fn write_through_installs_covered_pages_and_patches_resident_ones() {
        let pb = 4096u64;
        let mut safs = patterned_safs(SafsConfig::default(), 1 << 16);
        safs.read_sync(5 * pb, 1).unwrap();
        // Page 3 in part (not resident), page 4 whole, page 5 in part
        // (resident).
        let (offset, end) = (3 * pb + 1000, 5 * pb + 2000);
        safs.write(offset, &vec![0xFF; (end - offset) as usize])
            .unwrap();
        let mut device = vec![0u8; 3 * pb as usize];
        safs.array().read(3 * pb, &mut device).unwrap();
        assert!(device[1000..][..(end - offset) as usize]
            .iter()
            .all(|&b| b == 0xFF));

        // The whole page and the patched one: no device read, no miss,
        // the new bytes and none of the old ones.
        let before = reads_and_misses(&safs);
        let span = safs.read_sync(4 * pb, 2 * pb).unwrap();
        assert_eq!(reads_and_misses(&safs), before);
        assert_eq!(span.window().to_vec(), device[pb as usize..]);
        // The part-covered page nobody held is left for its first
        // read, which returns the device's bytes.
        let span = safs.read_sync(3 * pb, pb).unwrap();
        assert_eq!(reads_and_misses(&safs), (before.0 + 1, before.1 + 1));
        assert_eq!(span.window().to_vec(), device[..pb as usize]);

        // A tail page the device ends inside: the write reaches the
        // device's end, so it covers the page.
        let mut safs = patterned_safs(SafsConfig::default(), 6000);
        let tail: Vec<u8> = (0..6000 - pb).map(|i| i as u8).collect();
        safs.write(pb, &tail).unwrap();
        let before = reads_and_misses(&safs);
        assert_eq!(
            safs.read_sync(pb, 6000 - pb).unwrap().window().to_vec(),
            tail
        );
        assert_eq!(reads_and_misses(&safs), before);
    }

    #[test]
    fn write_through_books_what_the_array_books() {
        // Aligned and unaligned, inside one stripe and across several.
        let writes: [(u64, usize); 4] = [(0, 4096), (4096 + 7, 30_000), (65_536, 8192), (100, 1)];
        let array = SsdArray::new_mem(ArrayConfig::small_test(), 1 << 17).unwrap();
        let mut safs = Safs::new(
            SafsConfig::default(),
            SsdArray::new_mem(ArrayConfig::small_test(), 1 << 17).unwrap(),
        )
        .unwrap();
        for (offset, len) in writes {
            let data: Vec<u8> = (0..len).map(|i| (i % 13) as u8).collect();
            array.write(offset, &data).unwrap();
            safs.write(offset, &data).unwrap();
        }
        let (want, got) = (array.stats().snapshot(), safs.array().stats().snapshot());
        assert!(want.write_requests > 0 && want.total_busy_ns > 0);
        assert_eq!(got, want, "requests, pages, bytes and busy time alike");
    }

    #[test]
    fn write_through_refuses_bad_ranges_and_opened_mounts() {
        let pb = 4096u64;
        let mut safs = patterned_safs(SafsConfig::default(), 1 << 16);
        for (offset, len) in [((1 << 16) - pb, pb as usize + 1), (1 << 16, 1), (0, 0)] {
            assert!(matches!(
                safs.write(offset, &vec![0xFF; len]),
                Err(FgError::InvalidRequest(_))
            ));
        }
        // Nothing was installed: the last page is still a device read.
        let before = reads_and_misses(&safs);
        safs.read_sync((1 << 16) - pb, pb).unwrap();
        assert_eq!(reads_and_misses(&safs), (before.0 + 1, before.1 + 1));

        // Once a session has been opened, an I/O thread may still be
        // about to insert a page's old bytes: no more write-through.
        drop(safs.session());
        let written = safs.array().stats().snapshot().bytes_written;
        assert!(matches!(
            safs.write(0, &[0xFF; 4096]),
            Err(FgError::InvalidRequest(_))
        ));
        assert_eq!(safs.array().stats().snapshot().bytes_written, written);
    }

    /// One step of a two-session interleaving.
    #[derive(Debug, Clone)]
    enum Op {
        Submit {
            who: usize,
            page: u64,
            head: u64,
            len: u64,
        },
        Kick(usize),
        Poll(usize),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0usize..2, 0u64..48, 0u64..4096, 1u64..3 * 4096).prop_map(|(who, page, head, len)| {
                Op::Submit {
                    who,
                    page,
                    head,
                    len,
                }
            }),
            (0usize..2).prop_map(Op::Kick),
            (0usize..2).prop_map(Op::Poll),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn interleaved_sessions_deliver_read_sync_bytes_exactly_once(
            ops in prop::collection::vec(op_strategy(), 1..60),
        ) {
            // The cache holds the whole device, so nothing is evicted:
            // a page read from the device twice was read while its
            // first read was in flight (or already cached).
            let safs = patterned_safs(SafsConfig::default(), 1 << 18);
            let mut sessions = [safs.session(), safs.session()];
            let mut asked: Vec<(u64, u64)> = Vec::new();
            let mut done: [Vec<Completion>; 2] = [Vec::new(), Vec::new()];
            for op in ops {
                match op {
                    Op::Submit { who, page, head, len } => {
                        let offset = page * 4096 + head;
                        sessions[who].submit(offset, len, asked.len() as u64).unwrap();
                        asked.push((offset, len));
                    }
                    Op::Kick(who) => sessions[who].kick(),
                    Op::Poll(who) => {
                        sessions[who].poll(&mut done[who]);
                    }
                }
            }
            // Drain: dispatch both sides first — a session may be
            // waiting on pages the other has claimed but not kicked.
            for s in &mut sessions {
                s.kick();
            }
            for (s, out) in sessions.iter_mut().zip(&mut done) {
                while s.pending() > 0 {
                    s.wait(out);
                }
            }
            prop_assert_eq!(safs.mount.inflight.open_claims(), 0);
            let io = safs.array().stats().snapshot();
            let touched: std::collections::BTreeSet<u64> = asked
                .iter()
                .flat_map(|&(o, l)| o / 4096..=(o + l - 1) / 4096)
                .collect();
            prop_assert_eq!(io.pages_read, touched.len() as u64);
            prop_assert_eq!(done[0].len() + done[1].len(), asked.len());
            for c in done.iter().flatten() {
                let (offset, len) = asked[c.tag as usize];
                let want = safs.read_sync(offset, len).unwrap().window().to_vec();
                prop_assert_eq!(c.span.window().to_vec(), want);
            }
        }
    }
}
