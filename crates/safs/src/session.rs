//! Per-thread I/O sessions: the asynchronous user-task interface of
//! §3.1.
//!
//! A session checks the page cache *at submit time* on the caller's
//! thread (the lightweight-cache design: application threads touch the
//! cache directly); only missing page runs travel to I/O threads, and
//! they travel in batches: `submit` buffers a run in the session's
//! outbox for its I/O thread, [`IoSession::kick`] sends each non-empty
//! outbox as one message. A miss that another session is already
//! fetching rides that read instead (`inflight.rs`). Completions are
//! polled, each carrying a [`PageSpan`].
//!
//! A buffered run is never left behind: `poll`, `wait`, `wait_timeout`
//! and `Drop` all dispatch first, so a session that dies (cancelled
//! query, panicking program) still gets the pages it claimed fetched
//! for the sessions waiting on them, and its `Drop` takes what it left
//! unharvested off the device-queue gauge. The cache, the drive
//! routing and the device's books are the mount's ([`Host`]), so every
//! primitive here is `super::sync::…`: `fg_check` compiles this file
//! against its doubles (the `inflight_waiter` harness).
//!
//! [`IoSession::read_inline`] is the same read without the hop: the
//! range is looked up, claimed and attached exactly as a submitted one
//! is, but the session serves its own claimed runs on the calling
//! thread, through the pass an I/O thread makes (`io_thread::serve`:
//! re-check, device read, insertion, claim resolution and fan-out to
//! waiters), and then waits only for the pages it attached to.
//!
//! Invariant owned here: a session never waits holding an undispatched
//! claim. `wait` and `wait_timeout` dispatch before they block, and
//! `read_inline` dispatches what was buffered and serves what it claimed
//! before it blocks; between a claim and its dispatch a session runs
//! only its own submit code, which blocks on nothing. So every claim a
//! waiter rides is on its way through a pass that blocks on no session,
//! and no cycle of waits can form.

use std::collections::HashMap;
use std::sync::Arc;

use fg_ssdsim::{check_range, IoStats};
use fg_types::Result;

use super::inflight::{InflightTable, PageWaiter, RunDone};
use super::io_thread::{IoMsg, RunRequest};
use super::sync::channel::{unbounded, Receiver, Sender};
use super::{CacheStats, Page, PageSpan};

/// A completed logical read: the caller's tag plus a zero-copy span
/// over the page cache.
#[derive(Debug)]
pub struct Completion {
    /// The tag passed to [`IoSession::submit`].
    pub tag: u64,
    /// The requested bytes.
    pub span: PageSpan,
}

/// The mount a session reads through: what the session protocol leaves
/// to it.
pub(crate) trait Host: Sync {
    /// The device's books: the queue-depth gauge and the dedup counts.
    fn books(&self) -> &IoStats;
    /// The page size and the device's capacity, in bytes.
    fn geometry(&self) -> (u64, u64);
    /// A page-cache lookup, booked as a hit or a miss.
    fn lookup(&self, pageno: u64) -> Option<Arc<Page>>;
    /// The I/O thread (its index) that serves a run from `first_page`.
    fn route(&self, first_page: u64) -> usize;
    /// Serves `runs`, claimed by a session of this mount, on the
    /// calling thread: the pass an I/O thread makes over its mailbox,
    /// under the mount's device read.
    fn serve(&self, runs: &[RunRequest]);
}

/// A per-thread handle issuing asynchronous reads (see the module
/// docs). Each worker thread opens its own with
/// [`crate::Safs::session`].
pub struct IoSession<'fs> {
    mount: &'fs dyn Host,
    /// The mount's table of pages being fetched.
    inflight: &'fs InflightTable,
    /// One mailbox per I/O thread.
    mailboxes: &'fs [Sender<IoMsg>],
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
    /// The runs an inline read claimed, served on this thread before
    /// it returns; kept for its capacity.
    inline: Vec<RunRequest>,
    /// The inline read's bytes, once its last page is in.
    inline_done: Option<PageSpan>,
    /// Runs and attachments on the device-queue gauge and not yet
    /// harvested.
    queued: u64,
    reply_tx: Sender<Vec<RunDone>>,
    reply_rx: Receiver<Vec<RunDone>>,
}

struct Pending {
    /// The caller's tag; `None` for the inline read in progress.
    tag: Option<u64>,
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

impl<'fs> IoSession<'fs> {
    /// A session of `mount`, whose claims go to `inflight` and runs to
    /// `mailboxes`, under the mount-unique `id`; its lookups are also
    /// booked into `scope`.
    pub(crate) fn new(
        mount: &'fs dyn Host,
        inflight: &'fs InflightTable,
        mailboxes: &'fs [Sender<IoMsg>],
        id: u64,
        scope: Option<Arc<CacheStats>>,
    ) -> Self {
        let (reply_tx, reply_rx) = unbounded();
        IoSession {
            mount,
            inflight,
            mailboxes,
            scope,
            scope_hits: 0,
            scope_misses: 0,
            looked_up: Vec::new(),
            id,
            next_req: 0,
            in_flight: HashMap::new(),
            ready: Vec::new(),
            outbox: mailboxes.iter().map(|_| Vec::new()).collect(),
            inline: Vec::new(),
            inline_done: None,
            queued: 0,
            reply_tx,
            reply_rx,
        }
    }

    /// Submits a logical read of `[offset, offset + len)` tagged
    /// `tag`. Cache-resident requests complete immediately (pick them
    /// up with [`IoSession::poll`]); misses are buffered for the I/O
    /// threads until the next [`IoSession::kick`].
    ///
    /// # Errors
    ///
    /// Returns [`fg_types::FgError::InvalidRequest`] when the range
    /// exceeds the device.
    pub fn submit(&mut self, offset: u64, len: u64, tag: u64) -> Result<()> {
        if let Some(span) = self.open(offset, len, Some(tag))? {
            self.ready.push(Completion { tag, span });
        }
        Ok(())
    }

    /// Opens a logical read of `[offset, offset + len)`: its span when
    /// every page is resident, and otherwise `None`, the request
    /// pending under `tag` with each miss attached to another session's
    /// claim or claimed, and each contiguous run of claimed misses
    /// buffered — in its I/O thread's outbox, or for the inline read
    /// (`tag` `None`) in `inline`.
    fn open(&mut self, offset: u64, len: u64, tag: Option<u64>) -> Result<Option<PageSpan>> {
        if len == 0 {
            return Ok(Some(PageSpan::empty()));
        }
        let (pb, capacity) = self.mount.geometry();
        let end = check_range(capacity, offset, len)?;
        let first = offset / pb;
        let last = (end - 1) / pb;
        let npages = (last - first + 1) as usize;
        let head = (offset - first * pb) as usize;
        // Hits up to the first miss, if any. An all-hit request hands
        // them to the span's shared vector in one allocation.
        let mut pages = std::mem::take(&mut self.looked_up);
        pages.extend((first..=last).map_while(|p| self.lookup(p)));
        if pages.len() == npages {
            let span = PageSpan::new(pages.drain(..), head, len as usize);
            self.looked_up = pages;
            return Ok(Some(span));
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
                    let run = RunRequest {
                        first_page: first + i as u64,
                        num_pages: (k - i) as u32,
                        req_id,
                        first_slot: i as u32,
                        session: self.id,
                        reply: self.reply_tx.clone(),
                    };
                    match tag {
                        Some(_) => self.outbox[self.mount.route(run.first_page)].push(run),
                        None => self.inline.push(run),
                    }
                    run_start = None;
                }
                _ => {}
            }
        }
        if attached > 0 {
            self.mount.books().record_dedup(attached, attached * pb);
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
        Ok(None)
    }

    /// Tries to ride another session's in-flight read of `pageno`;
    /// `false` means the page is now claimed by this session, which
    /// must fetch it.
    fn attach(&mut self, pageno: u64, req_id: u64, slot: u32) -> bool {
        let attached = self.inflight.claim_or_attach(pageno, || PageWaiter {
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
            self.mount.books().queue_enter();
            self.queued += 1;
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
        for (runs, tx) in self.outbox.iter_mut().zip(self.mailboxes) {
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
            for _ in runs.iter() {
                self.mount.books().queue_enter();
            }
            self.queued += runs.len() as u64;
            alive &= tx.send(IoMsg::Batch(std::mem::take(runs))).is_ok();
        }
        alive
    }

    /// Number of submitted-but-uncompleted logical requests.
    pub fn pending(&self) -> usize {
        self.in_flight.len() + self.ready.len()
    }

    /// Cache lookup, booked mount-wide by the mount and counted for
    /// the session's scope.
    fn lookup(&mut self, pageno: u64) -> Option<Arc<Page>> {
        let got = self.mount.lookup(pageno);
        match got {
            Some(_) => self.scope_hits += 1,
            None => self.scope_misses += 1,
        }
        got
    }

    /// Harvests one reply: each run (or attachment) in it fills its
    /// request's slots and books its queue-depth exit (the matching
    /// entry is in `dispatch` / `attach`).
    fn apply(&mut self, batch: Vec<RunDone>) {
        for done in batch {
            self.mount.books().queue_exit();
            self.queued -= 1;
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
            if p.missing == 0 {
                let p = self.in_flight.remove(&done.req_id).unwrap();
                let pages = p.slots.into_iter().map(|s| s.expect("no page missing"));
                let span = PageSpan::new(pages, p.head, p.len);
                match p.tag {
                    Some(tag) => self.ready.push(Completion { tag, span }),
                    None => self.inline_done = Some(span),
                }
            }
        }
    }

    /// Drains every available completion into `out` without blocking.
    /// Returns how many were delivered.
    pub fn poll(&mut self, out: &mut Vec<Completion>) -> usize {
        self.kick();
        while let Ok(batch) = self.reply_rx.try_recv() {
            self.apply(batch);
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
                Ok(batch) => self.apply(batch),
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
                self.apply(batch);
            }
        }
        self.poll(out)
    }

    /// Reads `[offset, offset + len)` on the calling thread and returns
    /// its bytes: looked up, claimed and attached as
    /// [`IoSession::submit`] does, but the runs this session claims are
    /// served here, by the I/O threads' pass, with no hop to them; the
    /// only wait is for pages another session's read is fetching.
    /// Completions of earlier submits that arrive meanwhile are kept
    /// for the next poll.
    ///
    /// # Errors
    ///
    /// Returns [`fg_types::FgError::InvalidRequest`] when the range
    /// exceeds the device.
    pub fn read_inline(&mut self, offset: u64, len: u64) -> Result<PageSpan> {
        // Claims buffered by earlier submits go out first: this session
        // may wait below, and must not hold an undispatched claim then.
        self.kick();
        if let Some(span) = self.open(offset, len, None)? {
            return Ok(span);
        }
        let runs = std::mem::take(&mut self.inline);
        // On the device-queue gauge as a dispatched run is, until its
        // reply is applied below.
        for _ in &runs {
            self.mount.books().queue_enter();
        }
        self.queued += runs.len() as u64;
        self.mount.serve(&runs);
        self.inline = runs;
        self.inline.clear();
        loop {
            while let Ok(batch) = self.reply_rx.try_recv() {
                self.apply(batch);
            }
            if let Some(span) = self.inline_done.take() {
                return Ok(span);
            }
            // What is left rides other sessions' dispatched reads. The
            // session holds its own reply sender, so this never
            // disconnects.
            if let Ok(batch) = self.reply_rx.recv() {
                self.apply(batch);
            }
        }
    }
}

impl Drop for IoSession<'_> {
    fn drop(&mut self) {
        // Claims opened by this session must still be fetched: other
        // sessions may be attached to them.
        let _ = self.dispatch();
        // Nobody harvests what is still queued: take it off the gauge,
        // which the mount's later sessions go on sampling.
        for _ in 0..self.queued {
            self.mount.books().queue_exit();
        }
    }
}
