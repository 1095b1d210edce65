//! The SAFS facade and per-thread I/O sessions.

use std::collections::HashMap;
use std::sync::Arc;
use std::thread::JoinHandle;

use fg_ssdsim::SsdArray;
use fg_types::sync::channel::{unbounded, Receiver, Sender};
use fg_types::sync::{Counter, Mutex};
use fg_types::{FgError, Result};

use crate::cache::{CacheStats, CacheStatsSnapshot};
use crate::config::SafsConfig;
use crate::inflight::{PageWaiter, RunDone};
use crate::io_thread::{io_thread_loop, read_pages_hint, CacheUse, IoMsg, Mount, RunRequest};
use crate::page::{Page, PageSpan};

/// A completed logical read: the caller's tag plus a zero-copy span
/// over the page cache.
#[derive(Debug)]
pub struct Completion {
    /// The tag passed to [`IoSession::submit`].
    pub tag: u64,
    /// The requested bytes.
    pub span: PageSpan,
}

/// The user-space filesystem: page cache + I/O threads over an
/// [`SsdArray`].
///
/// Dropping a `Safs` shuts its I/O threads down.
pub struct Safs {
    mount: Arc<Mount>,
    senders: Vec<Sender<IoMsg>>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    /// Source of session ids (the I/O threads group replies by them).
    sessions: Counter,
}

impl std::fmt::Debug for Safs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Safs")
            .field("cfg", &self.mount.cfg)
            .field("io_threads", &self.senders.len())
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
        let nthreads = match cfg.io_threads {
            // One per drive, but no more than can run at once: the
            // device is a virtual-time ledger that does not care which
            // thread books a read, and threads beyond the cores only
            // add wake-ups.
            0 => {
                let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
                array.config().num_ssds.min(cores)
            }
            n => n,
        };
        let mount = Arc::new(Mount::new(cfg, array));
        let mut senders = Vec::with_capacity(nthreads);
        let mut handles = Vec::with_capacity(nthreads);
        for _ in 0..nthreads {
            let (tx, rx) = unbounded();
            let m = Arc::clone(&mount);
            handles.push(std::thread::spawn(move || io_thread_loop(rx, m)));
            senders.push(tx);
        }
        Ok(Safs {
            mount,
            senders,
            handles: Mutex::new(handles),
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
        let (tx, rx) = unbounded();
        IoSession {
            safs: self,
            scope,
            scope_hits: 0,
            scope_misses: 0,
            looked_up: Vec::new(),
            id: self.sessions.inc(),
            next_req: 0,
            in_flight: HashMap::new(),
            ready: Vec::new(),
            outbox: self.senders.iter().map(|_| Vec::new()).collect(),
            reply_tx: tx,
            reply_rx: rx,
        }
    }

    /// Validates `[offset, offset + len)` against the device and
    /// returns its end.
    fn check_range(&self, offset: u64, len: u64) -> Result<u64> {
        let end = offset
            .checked_add(len)
            .ok_or_else(|| FgError::InvalidRequest("offset + len overflows".into()))?;
        if end > self.mount.capacity {
            return Err(FgError::InvalidRequest(format!(
                "read [{offset}, {end}) exceeds device of {} bytes",
                self.mount.capacity
            )));
        }
        Ok(end)
    }

    /// Synchronous read: blocks the calling thread, still goes through
    /// the page cache (lookups booked, fresh pages inserted) with one
    /// device read per contiguous run of misses. Used where the
    /// caller has nothing to overlap the read with: the engine's
    /// foreign-shard reads (`SemIo::read_foreign`) and the serving
    /// layer's ingest canonicalisation (`mount_bytes`); a worker's own
    /// shard goes through sessions.
    ///
    /// # Errors
    ///
    /// Returns [`FgError::InvalidRequest`] when the range exceeds the
    /// device.
    pub fn read_sync(&self, offset: u64, len: u64) -> Result<PageSpan> {
        self.read_through(offset, len, CacheUse::Booked)
    }

    /// [`Safs::read_sync`] with the *streaming* cache policy, for a
    /// caller that sweeps a large range once (a compaction reading
    /// the old image back): resident pages are used, without booking
    /// hits or misses, and freshly read pages are not inserted, so the
    /// sweep cannot evict the hot working set however small the cache
    /// is next to it. Each contiguous run of absent pages is one
    /// device request.
    ///
    /// # Errors
    ///
    /// Returns [`FgError::InvalidRequest`] when the range exceeds the
    /// device.
    pub fn read_sync_stream(&self, offset: u64, len: u64) -> Result<PageSpan> {
        self.read_through(offset, len, CacheUse::Stream)
    }

    /// Writes `data` at `offset` through to the device, booked exactly
    /// as [`SsdArray::write`] books it, and leaves what it wrote
    /// resident: every page the write covers completely is installed
    /// (bytes past the end of the device count as covered: a read
    /// zero-fills them), and a resident page it covers only in part
    /// is replaced by a patched copy. Any other page is left for its
    /// first read.
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
            self.mount.cache.insert(Arc::new(Page::new(pageno, bytes)));
        }
        Ok(())
    }

    /// The synchronous reads' common body: the pages of the range,
    /// fetched on the calling thread under `cache`'s policy.
    fn read_through(&self, offset: u64, len: u64, cache: CacheUse) -> Result<PageSpan> {
        if len == 0 {
            return Ok(PageSpan::empty());
        }
        let end = self.check_range(offset, len)?;
        let pb = self.page_bytes();
        let first = offset / pb;
        let last = (end - 1) / pb;
        let pages = read_pages_hint(&self.mount, first, last - first + 1, cache);
        Ok(PageSpan::new(
            pages,
            (offset - first * pb) as usize,
            len as usize,
        ))
    }

    /// Routes a page run to an I/O thread (its index): by owning
    /// drive, so one thread's queue serves one drive's neighbourhood
    /// (the per-SSD I/O thread design).
    fn route(&self, first_page: u64) -> usize {
        let array = self.mount.array.config();
        let stripe = first_page * self.page_bytes() / array.stripe_bytes();
        let ssd = (stripe as usize) % array.num_ssds;
        ssd % self.senders.len()
    }
}

impl Drop for Safs {
    fn drop(&mut self) {
        for tx in &self.senders {
            let _ = tx.send(IoMsg::Shutdown);
        }
        for h in self.handles.lock().drain(..) {
            let _ = h.join();
        }
    }
}

/// A per-thread handle issuing asynchronous reads.
///
/// The session checks the page cache *at submit time* on the caller's
/// thread (the lightweight-cache design: application threads touch the
/// cache directly); only missing page runs travel to I/O threads, and
/// they travel in batches: `submit` buffers a run in the session's
/// outbox for its I/O thread, [`IoSession::kick`] sends each non-empty
/// outbox as one message. Completions are polled, each carrying a
/// [`PageSpan`] — the user-task interface of §3.1.
///
/// A buffered run is never left behind: [`IoSession::poll`],
/// [`IoSession::wait`], [`IoSession::wait_timeout`] and `Drop` all
/// kick first, so submit-then-wait completes without an explicit kick
/// and a session that dies (cancelled query, panicking program) still
/// gets the pages it claimed fetched for the sessions waiting on them.
pub struct IoSession<'fs> {
    safs: &'fs Safs,
    scope: Option<Arc<CacheStats>>,
    /// Lookups made since the last fold into `scope` (see
    /// [`IoSession::dispatch`]).
    scope_hits: u64,
    scope_misses: u64,
    /// The pages of the submit in progress, kept for its capacity: an
    /// all-hit submit's only allocation is the span's shared vector.
    looked_up: Vec<Arc<Page>>,
    /// Mount-unique id; tags runs and waiters so an I/O thread can
    /// answer this session once per pass.
    id: u64,
    next_req: u64,
    in_flight: HashMap<u64, Pending>,
    ready: Vec<Completion>,
    /// Runs submitted but not yet sent, one outbox per I/O thread.
    outbox: Vec<Vec<RunRequest>>,
    reply_tx: Sender<Vec<RunDone>>,
    reply_rx: Receiver<Vec<RunDone>>,
}

struct Pending {
    tag: u64,
    head: usize,
    len: usize,
    slots: Vec<Option<Arc<Page>>>,
    missing: usize,
}

impl std::fmt::Debug for IoSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IoSession")
            .field("pending", &self.in_flight.len())
            .field("ready", &self.ready.len())
            .field("unkicked", &self.outbox.iter().map(Vec::len).sum::<usize>())
            .finish_non_exhaustive()
    }
}

impl IoSession<'_> {
    /// Submits a logical read of `[offset, offset + len)` tagged
    /// `tag`. Cache-resident requests complete immediately (pick them
    /// up with [`IoSession::poll`]); misses are buffered for the I/O
    /// threads until the next [`IoSession::kick`].
    ///
    /// # Errors
    ///
    /// Returns [`FgError::InvalidRequest`] when the range exceeds the
    /// device.
    pub fn submit(&mut self, offset: u64, len: u64, tag: u64) -> Result<()> {
        if len == 0 {
            self.ready.push(Completion {
                tag,
                span: PageSpan::empty(),
            });
            return Ok(());
        }
        let end = self.safs.check_range(offset, len)?;
        let pb = self.safs.page_bytes();
        let first = offset / pb;
        let last = (end - 1) / pb;
        let npages = (last - first + 1) as usize;
        let head = (offset - first * pb) as usize;
        // Hits up to the first miss, if any. An all-hit request hands
        // them to the span's shared vector in one allocation.
        let mut pages = std::mem::take(&mut self.looked_up);
        pages.extend((first..=last).map_while(|p| self.lookup(p)));
        if pages.len() == npages {
            self.ready.push(Completion {
                tag,
                span: PageSpan::new(pages.drain(..), head, len as usize),
            });
            self.looked_up = pages;
            return Ok(());
        }
        let first_miss = pages.len();
        let mut slots: Vec<Option<Arc<Page>>> = Vec::with_capacity(npages);
        slots.extend(pages.drain(..).map(Some));
        self.looked_up = pages;
        slots.push(None);
        slots.extend((first + first_miss as u64 + 1..=last).map(|p| self.lookup(p)));

        let req_id = self.next_req;
        self.next_req += 1;
        // One pass over the misses decides each page's fate and cuts
        // the dispatch runs. Cross-session in-flight dedup: a miss
        // another session is already fetching attaches as a waiter to
        // that read; every other miss is claimed, and each contiguous
        // run of claimed misses goes to its drive's thread.
        let (mut missing, mut attached) = (0usize, 0u64);
        let mut run_start = None;
        for k in first_miss..=slots.len() {
            let miss = k < slots.len() && slots[k].is_none();
            let rides = miss && self.attach(first + k as u64, req_id, k as u32);
            missing += miss as usize;
            attached += rides as u64;
            match (miss && !rides, run_start) {
                (true, None) => run_start = Some(k),
                (false, Some(i)) => {
                    let thread = self.safs.route(first + i as u64);
                    self.outbox[thread].push(RunRequest {
                        first_page: first + i as u64,
                        num_pages: (k - i) as u32,
                        req_id,
                        first_slot: i as u32,
                        session: self.id,
                        reply: self.reply_tx.clone(),
                    });
                    run_start = None;
                }
                _ => {}
            }
        }
        if attached > 0 {
            self.safs
                .array()
                .stats()
                .record_dedup(attached, attached * pb);
        }
        self.in_flight.insert(
            req_id,
            Pending {
                tag,
                head,
                len: len as usize,
                slots,
                missing,
            },
        );
        Ok(())
    }

    /// Tries to ride another session's in-flight read of `pageno`;
    /// `false` means the page is now claimed by this session, which
    /// must fetch it.
    fn attach(&self, pageno: u64, req_id: u64, slot: u32) -> bool {
        let attached = self
            .safs
            .mount
            .inflight
            .claim_or_attach(pageno, || PageWaiter {
                req_id,
                slot,
                session: self.id,
                reply: self.reply_tx.clone(),
            });
        if attached {
            // Each attachment is one queued-but-unharvested delivery:
            // enter the depth gauge now, exit in `apply` when its
            // one-page RunDone is harvested, exactly like a
            // dispatched run.
            self.safs.array().stats().queue_enter();
        }
        attached
    }

    /// Sends every buffered run to its I/O thread, one message per
    /// thread. Cheap when nothing is buffered. Call it after a burst
    /// of submits; `poll` / `wait` / `wait_timeout` and `Drop` call it
    /// too, so a claimed page is dispatched no later than the
    /// claimer's next harvest.
    ///
    /// # Panics
    ///
    /// Panics if an I/O thread has died (it never exits while the
    /// mount is alive, so that is a bug in the thread).
    pub fn kick(&mut self) {
        assert!(self.dispatch(), "io thread alive while session exists");
    }

    /// [`IoSession::kick`] that reports a dead I/O thread instead of
    /// panicking (`Drop` must not). Also where the session's lookup
    /// counts reach its scope: once per batch, not once per page.
    fn dispatch(&mut self) -> bool {
        if let Some(scope) = &self.scope {
            if self.scope_hits + self.scope_misses > 0 {
                scope.record_lookups(self.scope_hits, self.scope_misses);
                (self.scope_hits, self.scope_misses) = (0, 0);
            }
        }
        let mut alive = true;
        for (runs, tx) in self.outbox.iter_mut().zip(&self.safs.senders) {
            if runs.is_empty() {
                continue;
            }
            // The runs are now queued on the device: sample the queue
            // depth so schedulers can be compared on how well they
            // keep the array fed. The exit is booked when *this
            // session harvests the reply* (see [`IoSession::apply`]),
            // not when the I/O thread posts it — the gauge measures
            // dispatched-but-unharvested runs, which is exactly the
            // compute/I/O overlap a scheduler controls: a lock-step
            // scheduler drains it to zero at every phase boundary,
            // a pipelined one keeps it open across them.
            for _ in 0..runs.len() {
                self.safs.array().stats().queue_enter();
            }
            alive &= tx.send(IoMsg::Batch(std::mem::take(runs))).is_ok();
        }
        alive
    }

    /// Number of submitted-but-uncompleted logical requests.
    pub fn pending(&self) -> usize {
        self.in_flight.len() + self.ready.len()
    }

    /// Cache lookup, booked mount-wide by the cache and counted for
    /// the session's scope.
    fn lookup(&mut self, pageno: u64) -> Option<Arc<Page>> {
        let got = self.safs.mount.cache.get(pageno);
        match got {
            Some(_) => self.scope_hits += 1,
            None => self.scope_misses += 1,
        }
        got
    }

    fn apply(&mut self, done: RunDone) {
        // One dispatched run (or attachment) harvested: book the
        // queue-depth exit (the matching `queue_enter` is in
        // `dispatch` / `attach`).
        self.safs.array().stats().queue_exit();
        let finished = {
            let p = self
                .in_flight
                .get_mut(&done.req_id)
                .expect("completion for unknown request");
            for (k, page) in done.pages.into_iter().enumerate() {
                let slot = done.first_slot as usize + k;
                if p.slots[slot].is_none() {
                    p.slots[slot] = Some(page);
                    p.missing -= 1;
                }
            }
            p.missing == 0
        };
        if finished {
            let p = self.in_flight.remove(&done.req_id).unwrap();
            let pages = p.slots.into_iter().map(|s| s.expect("no page missing"));
            self.ready.push(Completion {
                tag: p.tag,
                span: PageSpan::new(pages, p.head, p.len),
            });
        }
    }

    fn apply_all(&mut self, batch: Vec<RunDone>) {
        for done in batch {
            self.apply(done);
        }
    }

    /// Drains every available completion into `out` without blocking.
    /// Returns how many were delivered.
    pub fn poll(&mut self, out: &mut Vec<Completion>) -> usize {
        self.kick();
        while let Ok(batch) = self.reply_rx.try_recv() {
            self.apply_all(batch);
        }
        let n = self.ready.len();
        out.append(&mut self.ready);
        n
    }

    /// Like [`IoSession::poll`] but blocks until at least one
    /// completion is available (returns 0 only when nothing is
    /// pending).
    pub fn wait(&mut self, out: &mut Vec<Completion>) -> usize {
        self.kick();
        if self.ready.is_empty() && !self.in_flight.is_empty() {
            match self.reply_rx.recv() {
                Ok(batch) => self.apply_all(batch),
                Err(_) => return 0,
            }
        }
        self.poll(out)
    }

    /// Like [`IoSession::wait`] but gives up after `timeout`: the
    /// completion-notification primitive of the pipelined engine. A
    /// worker parked on an indefinite `recv` can serve nothing but
    /// its own replies; a bounded wait lets it wake, steal ready
    /// deliveries other workers' I/O produced, and come back — no
    /// completion is lost either way, replies stay queued.
    pub fn wait_timeout(
        &mut self,
        out: &mut Vec<Completion>,
        timeout: std::time::Duration,
    ) -> usize {
        self.kick();
        if self.ready.is_empty() && !self.in_flight.is_empty() {
            if let Ok(batch) = self.reply_rx.recv_timeout(timeout) {
                self.apply_all(batch);
            }
        }
        self.poll(out)
    }
}

impl Drop for IoSession<'_> {
    fn drop(&mut self) {
        // Claims opened by this session must still be fetched: other
        // sessions may be attached to them.
        let _ = self.dispatch();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert_eq!(span.read_u32_le(0), (4000 / 4) % 251);
        assert_eq!(span.read_u32_le(17996), ((4000 + 17996) / 4) % 251);
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
        // at submit, read by the I/O threads) and through `read_sync`
        // (cut and read on the caller's thread): the same two runs.
        for sync in [false, true] {
            let safs = patterned_safs(SafsConfig::default(), 1 << 20);
            safs.read_sync(4096, 1).unwrap();
            safs.array().stats().reset();
            let cache = safs.cache_stats();
            let span = if sync {
                safs.read_sync(0, 3 * 4096).unwrap()
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
                assert_eq!(span.read_u32_le(at), (at as u32 / 4) % 251, "sync={sync}");
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
        let span = safs.read_sync_stream(100, 64 * 4096 - 100).unwrap();
        let io = safs.array().stats().snapshot();
        assert_eq!(io.pages_read - io_before.pages_read, 62);
        assert_eq!(io.read_requests - io_before.read_requests, 1 + 15);
        let mut want = vec![0u8; 64 * 4096 - 100];
        safs.array().read(100, &mut want).unwrap();
        assert_eq!(span.to_vec(), want);
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
        assert!(safs.read_sync_stream(1 << 20, 1).is_err());
        assert!(safs.read_sync_stream(0, 0).unwrap().is_empty());
    }

    #[test]
    fn held_span_keeps_its_pages_hits_on_every_read_path() {
        // A cache of 8 pages in front of a 256-page device.
        let cfg = SafsConfig::default().with_cache_bytes(8 * 4096);
        let safs = patterned_safs(cfg, 1 << 20);
        let held = safs.read_sync(4096, 2 * 4096).unwrap(); // pages 1-2
                                                            // Push them out of their slots: 64 other pages through 8.
        safs.read_sync(16 * 4096, 64 * 4096).unwrap();
        assert!(safs.cache_stats().evictions >= 2);
        let io = safs.array().stats().snapshot();
        let cache = safs.cache_stats();
        // The synchronous path ...
        let again = safs.read_sync(4096, 2 * 4096).unwrap();
        assert_eq!(again.to_vec(), held.to_vec());
        // ... the application-side lookup of a session (an all-hit
        // submit completes inline) ...
        let mut s = safs.session();
        s.submit(4096 + 100, 4096, 9).unwrap();
        let mut out = Vec::new();
        assert_eq!(s.poll(&mut out), 1);
        // ... and the I/O thread's pre-read re-check all find them.
        let got = crate::io_thread::read_pages(&safs.mount, 1, 2);
        assert_eq!(got[0].bytes(), held.chunk_at(0));
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
        assert_eq!(out[0].span.read_u32_le(0), (4096 / 4) % 251);
        let mut fetched = Vec::new();
        while fetched.is_empty() {
            fetcher.wait(&mut fetched);
        }
        assert_eq!(fetched[0].span.page_count(), 2, "fetcher gets its pages");
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
        assert_eq!(fetched[0].span.read_u32_le(0), (2 * 4096 / 4) % 251);
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
            assert_eq!(out[0].span.read_u32_le(0), (4096 / 4) % 251);
            assert_eq!(safs.array().stats().snapshot().read_requests, 1);
            assert_eq!(safs.mount.inflight.open_claims(), 0);
        }
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
        let cfg = ArrayConfig::paper_array();
        let array = SsdArray::new_mem(cfg, 1 << 22).unwrap();
        let safs = Safs::new(SafsConfig::default(), array).unwrap();
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let threads = safs.senders.len();
        assert!((1..=cores.min(cfg.num_ssds)).contains(&threads));
        // One stripe per drive: every drive has a thread, and every
        // thread has at least one drive.
        let stripe_pages = cfg.stripe_bytes() / safs.page_bytes();
        let routed: std::collections::BTreeSet<usize> = (0..cfg.num_ssds as u64)
            .map(|drive| safs.route(drive * stripe_pages))
            .collect();
        assert_eq!(routed, (0..threads).collect());

        // An explicit count is taken as given.
        let array = SsdArray::new_mem(cfg, 1 << 22).unwrap();
        let three = SafsConfig {
            io_threads: 3,
            ..SafsConfig::default()
        };
        assert_eq!(Safs::new(three, array).unwrap().senders.len(), 3);
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
        assert_eq!(span.to_vec(), device[pb as usize..]);
        // The part-covered page nobody held is left for its first
        // read, which returns the device's bytes.
        let span = safs.read_sync(3 * pb, pb).unwrap();
        assert_eq!(reads_and_misses(&safs), (before.0 + 1, before.1 + 1));
        assert_eq!(span.to_vec(), device[..pb as usize]);

        // A tail page the device ends inside: the write reaches the
        // device's end, so it covers the page.
        let mut safs = patterned_safs(SafsConfig::default(), 6000);
        let tail: Vec<u8> = (0..6000 - pb).map(|i| i as u8).collect();
        safs.write(pb, &tail).unwrap();
        let before = reads_and_misses(&safs);
        assert_eq!(safs.read_sync(pb, 6000 - pb).unwrap().to_vec(), tail);
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
                let want = safs.read_sync(offset, len).unwrap().to_vec();
                prop_assert_eq!(c.span.to_vec(), want);
            }
        }
    }
}
