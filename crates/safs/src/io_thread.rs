//! Dedicated I/O threads, fed by message passing (§3.1).
//!
//! Application threads never touch the device: they mail page-run
//! requests to an I/O thread and receive filled pages back. The hop is
//! paid per *batch* in both directions: a session sends one
//! [`IoMsg::Batch`] per I/O thread per kick, and the thread answers
//! everything it served in one pass with one `Vec<RunDone>` per
//! session, in-flight waiter fan-out included. When `safs_merge` is
//! on, each I/O thread drains its mailbox into one pass, sorts it by
//! page number, and coalesces adjacent or overlapping runs into single
//! device reads — the "merge in SAFS" configuration that Figure 12
//! compares against engine-side merging.

use std::collections::HashMap;
use std::sync::Arc;

use fg_ssdsim::SsdArray;
use fg_types::sync::channel::{Receiver, Sender};

use crate::cache::PageCache;
use crate::config::SafsConfig;
use crate::inflight::{InflightTable, RunDone};
use crate::page::Page;

/// Upper bound on how many queued runs one pass drains (checked
/// between messages, so a pass may overshoot by one batch); keeps
/// merge latency bounded the way SAFS bounds its request queues.
const MAX_BATCH: usize = 1024;

/// A run of consecutive pages one session needs read.
#[derive(Debug)]
pub(crate) struct RunRequest {
    /// First page to read.
    pub first_page: u64,
    /// Number of consecutive pages.
    pub num_pages: u32,
    /// Session-local id of the owning logical request.
    pub req_id: u64,
    /// Slot index of `first_page` within the owning request.
    pub first_slot: u32,
    /// Mount-unique id of the issuing session (groups its replies).
    pub session: u64,
    /// Completion mailbox of the issuing session.
    pub reply: Sender<Vec<RunDone>>,
}

/// Mailbox protocol of an I/O thread.
#[derive(Debug)]
pub(crate) enum IoMsg {
    /// Read these runs (one session's kick for this thread).
    Batch(Vec<RunRequest>),
    /// Exit the thread loop.
    Shutdown,
}

/// The state one mount's sessions and I/O threads share.
pub(crate) struct Mount {
    pub cfg: SafsConfig,
    pub array: SsdArray,
    pub cache: PageCache,
    pub inflight: InflightTable,
    /// Device capacity in bytes (fixed at mount time).
    pub capacity: u64,
}

impl Mount {
    pub(crate) fn new(cfg: SafsConfig, array: SsdArray) -> Self {
        Mount {
            cfg,
            cache: PageCache::new(cfg.cache_pages(), cfg.cache_ways),
            inflight: InflightTable::new(),
            capacity: array.capacity(),
            array,
        }
    }
}

/// The body of one I/O thread.
pub(crate) fn io_thread_loop(rx: Receiver<IoMsg>, ctx: Arc<Mount>) {
    let mut batch: Vec<RunRequest> = Vec::with_capacity(MAX_BATCH);
    let mut shutdown = false;
    while !shutdown {
        match rx.recv() {
            Ok(IoMsg::Batch(runs)) => batch.extend(runs),
            Ok(IoMsg::Shutdown) | Err(_) => shutdown = true,
        }
        // Drain what else is queued into the same pass. After a
        // shutdown that is *everything*: dropping a queued run would
        // drop its reply sender and leave the issuing session blocked
        // forever on a completion that can never arrive (bounded merge
        // latency no longer matters on exit).
        while shutdown || batch.len() < MAX_BATCH {
            match rx.try_recv() {
                Ok(IoMsg::Batch(runs)) => batch.extend(runs),
                Ok(IoMsg::Shutdown) => shutdown = true,
                Err(_) => break,
            }
        }
        serve(&batch, &ctx);
        batch.clear();
    }
}

/// The completions of one pass, grouped by destination session so
/// each session is woken once.
#[derive(Default)]
struct Replies(HashMap<u64, (Sender<Vec<RunDone>>, Vec<RunDone>)>);

impl Replies {
    fn push(&mut self, session: u64, reply: &Sender<Vec<RunDone>>, done: RunDone) {
        self.0
            .entry(session)
            .or_insert_with(|| (reply.clone(), Vec::new()))
            .1
            .push(done);
    }

    /// Resolves the in-flight claims a finished read of
    /// `pages` (consecutive from `first_page`) covers, queueing a
    /// one-page completion for every attached waiter. Claims are
    /// resolved here, on the I/O thread, so waiter fan-out cannot
    /// depend on the claiming session staying alive. Pages without a
    /// claim (cache-served members of a coalesced group) are no-ops.
    fn fan_out(&mut self, inflight: &InflightTable, first_page: u64, pages: &[Arc<Page>]) {
        for (k, page) in pages.iter().enumerate() {
            for w in inflight.resolve(first_page + k as u64) {
                let done = RunDone {
                    req_id: w.req_id,
                    first_slot: w.slot,
                    pages: vec![Arc::clone(page)],
                };
                self.push(w.session, &w.reply, done);
            }
        }
    }

    fn send(self) {
        for (reply, done) in self.0.into_values() {
            // A disconnected session (dropped mid-wait) is fine: its
            // pages simply go undelivered.
            let _ = reply.send(done);
        }
    }
}

fn serve(batch: &[RunRequest], ctx: &Mount) {
    let mut replies = Replies::default();
    if !ctx.cfg.safs_merge {
        for r in batch {
            let pages = read_pages(ctx, r.first_page, r.num_pages as u64);
            replies.fan_out(&ctx.inflight, r.first_page, &pages);
            let done = RunDone {
                req_id: r.req_id,
                first_slot: r.first_slot,
                pages,
            };
            replies.push(r.session, &r.reply, done);
        }
        replies.send();
        return;
    }

    // Sort run indices by first page, then coalesce adjacent or
    // overlapping runs into single device reads.
    let mut order: Vec<usize> = (0..batch.len()).collect();
    order.sort_by_key(|&i| batch[i].first_page);
    let mut group: Vec<usize> = Vec::new();
    let mut group_end = 0u64;
    let mut flush = |group: &mut Vec<usize>, lo: u64, hi: u64| {
        if group.is_empty() {
            return;
        }
        let pages = read_pages(ctx, lo, hi - lo);
        // Resolve the claims the group covers.
        replies.fan_out(&ctx.inflight, lo, &pages);
        for &gi in group.iter() {
            let r = &batch[gi];
            let off = (r.first_page - lo) as usize;
            let done = RunDone {
                req_id: r.req_id,
                first_slot: r.first_slot,
                pages: pages[off..off + r.num_pages as usize].to_vec(),
            };
            replies.push(r.session, &r.reply, done);
        }
        group.clear();
    };
    let mut group_start = 0u64;
    for i in order {
        let r = &batch[i];
        let start = r.first_page;
        let end = start + r.num_pages as u64;
        if group.is_empty() {
            group_start = start;
            group_end = end;
        } else if start <= group_end {
            // Adjacent or overlapping: coalesce (the paper merges
            // requests on the same or adjacent pages only).
            group_end = group_end.max(end);
        } else {
            flush(&mut group, group_start, group_end);
            group_start = start;
            group_end = end;
        }
        group.push(i);
    }
    flush(&mut group, group_start, group_end);
    replies.send();
}

/// Returns `num_pages` pages starting at `first_page`, reading each
/// contiguous run of pages *not already cached* in one device request
/// and inserting fresh pages into the cache.
///
/// Sessions claim a page in the mount's in-flight table before they
/// dispatch it, so two *sessions* never fetch one page at once. The
/// pre-read cache check stays for the reader that inserts without
/// claiming: `Safs::read_sync` (foreign-shard reads, ingest
/// canonicalisation) may have filled a page between a session's
/// submit-time miss and this pass, which then costs no device read.
pub(crate) fn read_pages(ctx: &Mount, first_page: u64, num_pages: u64) -> Vec<Arc<Page>> {
    read_pages_hint(ctx, first_page, num_pages, CacheUse::Recheck)
}

/// What a caller of [`read_pages_hint`] does to the page cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CacheUse {
    /// The I/O thread's re-check behind a session's booked miss:
    /// lookups are not counted again, fresh pages are inserted.
    Recheck,
    /// The caller's first look (`Safs::read_sync`): lookups are booked
    /// as hits and misses, fresh pages are inserted.
    Booked,
    /// A once-only sweep (`Safs::read_sync_stream`): cached pages are
    /// still *used* when present — the hot set helps the sweep — but
    /// nothing is booked and fresh pages are handed straight to the
    /// caller without touching the cache, so the sweep cannot evict
    /// the working set.
    Stream,
}

/// [`read_pages`] under an explicit cache policy: the one statement of
/// which pages of a range still go to the device.
pub(crate) fn read_pages_hint(
    ctx: &Mount,
    first_page: u64,
    num_pages: u64,
    cache: CacheUse,
) -> Vec<Arc<Page>> {
    let pb = ctx.cfg.page_bytes;
    let mut pages: Vec<Option<Arc<Page>>> = (first_page..first_page + num_pages)
        .map(|p| match cache {
            CacheUse::Booked => ctx.cache.get(p),
            CacheUse::Recheck | CacheUse::Stream => ctx.cache.get_quiet(p),
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
    use fg_ssdsim::ArrayConfig;
    use fg_types::sync::channel::unbounded;

    fn setup(capacity: u64, merge: bool) -> Arc<Mount> {
        let array = SsdArray::new_mem(ArrayConfig::small_test(), capacity).unwrap();
        // Fill with a recognizable pattern: byte at offset o = o % 251.
        let data: Vec<u8> = (0..capacity).map(|o| (o % 251) as u8).collect();
        array.write(0, &data).unwrap();
        array.stats().reset();
        let cfg = SafsConfig::default()
            .with_cache_bytes(64 * 4096)
            .with_safs_merge(merge);
        Arc::new(Mount::new(cfg, array))
    }

    fn run(
        req_id: u64,
        first_page: u64,
        num_pages: u32,
        reply: &Sender<Vec<RunDone>>,
    ) -> RunRequest {
        RunRequest {
            first_page,
            num_pages,
            req_id,
            first_slot: 0,
            session: 0,
            reply: reply.clone(),
        }
    }

    /// Every reply still queued, flattened and ordered by request id.
    fn drain(rx: &Receiver<Vec<RunDone>>) -> Vec<RunDone> {
        let mut got: Vec<RunDone> = rx.try_iter().flatten().collect();
        got.sort_by_key(|d| d.req_id);
        got
    }

    #[test]
    fn read_pages_fills_cache_and_content() {
        let m = setup(1 << 16, true);
        let pages = read_pages(&m, 2, 2);
        assert_eq!(pages.len(), 2);
        assert_eq!(pages[0].pageno(), 2);
        assert_eq!(pages[0].bytes()[0], ((2 * 4096) % 251) as u8);
        assert_eq!(pages[1].bytes()[5], ((3 * 4096 + 5) % 251) as u8);
        assert!(m.cache.get(2).is_some());
        assert!(m.cache.get(3).is_some());
        assert_eq!(m.array.stats().snapshot().read_requests, 1);
    }

    #[test]
    fn unmerged_thread_serves_each_run() {
        let m = setup(1 << 16, false);
        let (tx, rx) = unbounded();
        let (reply_tx, reply_rx) = unbounded();
        let m2 = Arc::clone(&m);
        let h = std::thread::spawn(move || io_thread_loop(rx, m2));
        tx.send(IoMsg::Batch(vec![
            run(1, 0, 1, &reply_tx),
            run(2, 5, 1, &reply_tx),
        ]))
        .unwrap();
        let got = reply_rx.recv().unwrap();
        assert_eq!(got.len(), 2, "one reply message for the whole batch");
        let mut got = got;
        got.sort_by_key(|d| d.req_id);
        assert_eq!(got[0].pages[0].pageno(), 0);
        assert_eq!(got[1].pages[0].pageno(), 5);
        tx.send(IoMsg::Shutdown).unwrap();
        h.join().unwrap();
        // Two separate device requests.
        assert_eq!(m.array.stats().snapshot().read_requests, 2);
    }

    #[test]
    fn shutdown_drains_queued_runs_before_exit() {
        // Regression: runs already queued when the shutdown message is
        // consumed must still be served — dropping them drops their
        // reply senders and a session waiting on the completion would
        // block forever. Queue everything before the thread starts so
        // the receive order is deterministic: Shutdown first, three
        // runs (in two batches) behind it.
        let m = setup(1 << 16, true);
        let (tx, rx) = unbounded();
        let (reply_tx, reply_rx) = unbounded();
        tx.send(IoMsg::Shutdown).unwrap();
        tx.send(IoMsg::Batch(vec![
            run(1, 0, 1, &reply_tx),
            run(2, 3, 1, &reply_tx),
        ]))
        .unwrap();
        tx.send(IoMsg::Batch(vec![run(3, 7, 1, &reply_tx)]))
            .unwrap();
        let h = std::thread::spawn(move || io_thread_loop(rx, m));
        h.join().unwrap();
        let ids: Vec<u64> = drain(&reply_rx).iter().map(|d| d.req_id).collect();
        assert_eq!(ids, vec![1, 2, 3], "every queued run must be answered");
    }

    #[test]
    fn shutdown_mid_batch_drains_the_rest() {
        // Same property through the inner try_recv path: a run, the
        // shutdown, then more runs.
        let m = setup(1 << 16, false);
        let (tx, rx) = unbounded();
        let (reply_tx, reply_rx) = unbounded();
        tx.send(IoMsg::Batch(vec![run(1, 0, 1, &reply_tx)]))
            .unwrap();
        tx.send(IoMsg::Shutdown).unwrap();
        tx.send(IoMsg::Batch(vec![run(2, 5, 1, &reply_tx)]))
            .unwrap();
        tx.send(IoMsg::Batch(vec![run(3, 9, 1, &reply_tx)]))
            .unwrap();
        let h = std::thread::spawn(move || io_thread_loop(rx, m));
        h.join().unwrap();
        let ids: Vec<u64> = drain(&reply_rx).iter().map(|d| d.req_id).collect();
        assert_eq!(ids, vec![1, 2, 3]);
    }

    #[test]
    fn merged_thread_coalesces_adjacent_runs() {
        let m = setup(1 << 16, true);
        let (reply_tx, reply_rx) = unbounded();
        // Two adjacent single-page runs and one distant run, served in
        // one batch directly through `serve`.
        let batch = vec![
            run(10, 1, 1, &reply_tx),
            run(11, 2, 1, &reply_tx),
            run(12, 9, 1, &reply_tx),
        ];
        serve(&batch, &m);
        let snap = m.array.stats().snapshot();
        // Pages 1-2 coalesce; page 9 is separate. Device request count
        // may further split on stripe boundaries, but pages 1,2 share
        // a stripe in the small_test config (4-page stripes).
        assert_eq!(snap.read_requests, 2);
        assert_eq!(snap.pages_read, 3);
        let ids: Vec<u64> = drain(&reply_rx).iter().map(|d| d.req_id).collect();
        assert_eq!(ids, vec![10, 11, 12]);
    }

    #[test]
    fn merged_thread_handles_overlapping_runs() {
        let m = setup(1 << 16, true);
        let (reply_tx, reply_rx) = unbounded();
        let batch = vec![run(1, 4, 3, &reply_tx), run(2, 5, 3, &reply_tx)];
        serve(&batch, &m);
        let got = drain(&reply_rx);
        assert_eq!(
            got[0].pages.iter().map(|p| p.pageno()).collect::<Vec<_>>(),
            vec![4, 5, 6]
        );
        assert_eq!(
            got[1].pages.iter().map(|p| p.pageno()).collect::<Vec<_>>(),
            vec![5, 6, 7]
        );
    }

    #[test]
    fn one_pass_answers_each_session_once_waiters_included() {
        use crate::inflight::PageWaiter;
        let m = setup(1 << 16, true);
        let (tx_a, rx_a) = unbounded();
        let (tx_b, rx_b) = unbounded();
        // Session 1 fetches pages 0 and 8; session 2 fetches page 4
        // and waits on session 1's page 8.
        for p in [0, 4, 8] {
            assert!(!m.inflight.claim_or_attach(p, || unreachable!()));
        }
        assert!(m.inflight.claim_or_attach(8, || PageWaiter {
            req_id: 21,
            slot: 3,
            session: 2,
            reply: tx_b.clone(),
        }));
        let mut batch = vec![run(10, 0, 1, &tx_a), run(11, 8, 1, &tx_a)];
        batch[0].session = 1;
        batch[1].session = 1;
        batch.push(RunRequest {
            session: 2,
            ..run(20, 4, 1, &tx_b)
        });
        serve(&batch, &m);
        let a = rx_a.try_recv().unwrap();
        assert_eq!(a.len(), 2);
        assert!(rx_a.try_recv().is_err(), "session 1 woken once");
        let mut b = rx_b.try_recv().unwrap();
        assert!(rx_b.try_recv().is_err(), "session 2 woken once");
        b.sort_by_key(|d| d.req_id);
        assert_eq!(b.len(), 2, "own run + fan-out share the message");
        assert_eq!((b[1].req_id, b[1].first_slot), (21, 3));
        assert_eq!(b[1].pages[0].pageno(), 8);
        assert_eq!(m.inflight.open_claims(), 0);
    }

    #[test]
    fn tail_page_beyond_capacity_is_zero_padded() {
        // Capacity 6000 bytes: page 1 is only half-backed by device.
        let array = SsdArray::new_mem(ArrayConfig::small_test(), 6000).unwrap();
        array.write(0, &vec![9u8; 6000]).unwrap();
        let m = Mount::new(SafsConfig::default(), array);
        let pages = read_pages(&m, 1, 1);
        assert_eq!(pages[0].bytes()[0], 9);
        assert_eq!(pages[0].bytes()[4095], 0, "unbacked tail must be zeroed");
    }
}
