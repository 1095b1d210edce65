//! Dedicated I/O threads, fed by message passing (§3.1): a thread's
//! loop and the pass it makes over its mailbox. The hop is paid per
//! *batch* both ways: a session sends one [`IoMsg::Batch`] per I/O
//! thread per kick, and a pass answers everything it served with one
//! `Vec<RunDone>` per session, in-flight waiter fan-out included. A
//! pass reads its runs in groups, one read a group: with `safs_merge`
//! on it sorts them by page and coalesces adjacent or overlapping runs
//! (the "merge in SAFS" configuration of Figure 12); off, each run is a
//! group of its own, in arrival order. The same pass serves a session's
//! inline read on the session's own thread. The read itself — cache
//! re-check, device, insertion — is the caller's closure, so every
//! primitive here is `super::sync::…`: `fg_check` compiles this file
//! against its doubles and its `inflight_waiter` harness runs the loop
//! and the pass as shipped.

use std::collections::BTreeMap;
use std::sync::Arc;

use super::inflight::{InflightTable, RunDone};
use super::sync::channel::{Receiver, Sender};
use super::Page;

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

impl RunRequest {
    /// One past the run's last page.
    fn end(&self) -> u64 {
        self.first_page + u64::from(self.num_pages)
    }
}

/// Mailbox protocol of an I/O thread.
#[derive(Debug)]
pub(crate) enum IoMsg {
    /// Read these runs (one session's kick for this thread).
    Batch(Vec<RunRequest>),
    /// Exit the thread loop.
    Shutdown,
}

/// The body of one I/O thread: a pass over everything queued, until a
/// shutdown. `read(first_page, num_pages)` returns those pages.
pub(crate) fn io_thread_loop(
    rx: Receiver<IoMsg>,
    inflight: &InflightTable,
    merge: bool,
    mut read: impl FnMut(u64, u64) -> Vec<Arc<Page>>,
) {
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
        serve(&batch, inflight, merge, &mut read);
        batch.clear();
    }
}

/// One pass: each group of runs is one `read`, whose pages resolve the
/// claims they cover and answer every run of the group. An I/O thread
/// makes it over its mailbox; a session's inline read
/// (`IoSession::read_inline`) makes it over the runs it just claimed.
pub(crate) fn serve(
    batch: &[RunRequest],
    inflight: &InflightTable,
    merge: bool,
    read: &mut impl FnMut(u64, u64) -> Vec<Arc<Page>>,
) {
    let mut order: Vec<usize> = (0..batch.len()).collect();
    if merge {
        order.sort_by_key(|&i| batch[i].first_page);
    }
    // The pass's completions by session, so each is woken once — in
    // session order, so that a pass sends alike every time it serves
    // the same batch (`fg_check` replays schedules).
    let mut replies: BTreeMap<u64, (Sender<_>, Vec<RunDone>)> = BTreeMap::new();
    let mut reply = |session, to: &Sender<_>, done| {
        let entry = replies.entry(session);
        entry.or_insert_with(|| (to.clone(), vec![])).1.push(done);
    };
    let mut rest = &order[..];
    while let Some(&head) = rest.first() {
        let (lo, mut hi) = (batch[head].first_page, batch[head].end());
        let mut n = 1;
        // Adjacent or overlapping: coalesce (the paper merges requests
        // on the same or adjacent pages only).
        while merge && n < rest.len() && batch[rest[n]].first_page <= hi {
            hi = hi.max(batch[rest[n]].end());
            n += 1;
        }
        let (group, tail) = rest.split_at(n);
        let pages = read(lo, hi - lo);
        // Fan-out: the claims the read covers are resolved here, on
        // the I/O thread, so a waiter's page cannot depend on the
        // claiming session staying alive (a page without a claim, a
        // cache-served member of a group, resolves to nobody).
        for (k, page) in pages.iter().enumerate() {
            for w in inflight.resolve(lo + k as u64) {
                let pages = vec![Arc::clone(page)];
                let (req_id, first_slot) = (w.req_id, w.slot);
                reply(
                    w.session,
                    &w.reply,
                    RunDone {
                        req_id,
                        first_slot,
                        pages,
                    },
                );
            }
        }
        for r in group.iter().map(|&i| &batch[i]) {
            let off = (r.first_page - lo) as usize;
            let pages = pages[off..off + r.num_pages as usize].to_vec();
            let (req_id, first_slot) = (r.req_id, r.first_slot);
            reply(
                r.session,
                &r.reply,
                RunDone {
                    req_id,
                    first_slot,
                    pages,
                },
            );
        }
        rest = tail;
    }
    for (to, done) in replies.into_values() {
        // A disconnected session (dropped mid-wait) is fine: its pages
        // simply go undelivered.
        let _ = to.send(done);
    }
}

#[cfg(test)]
mod tests {
    use super::super::inflight::PageWaiter;
    use super::super::sync::channel::unbounded;
    use super::*;

    /// A device that logs each read and fills page `p` with the byte
    /// `p`.
    fn device(log: &mut Vec<(u64, u64)>) -> impl FnMut(u64, u64) -> Vec<Arc<Page>> + '_ {
        |first, n| {
            log.push((first, n));
            let page = |p| Arc::new(Page::new(p, vec![p as u8; 4].into()));
            (first..first + n).map(page).collect()
        }
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
        let mut got: Vec<RunDone> = std::iter::from_fn(|| rx.try_recv().ok())
            .flatten()
            .collect();
        got.sort_by_key(|d| d.req_id);
        got
    }

    fn pagenos(done: &RunDone) -> Vec<u64> {
        done.pages.iter().map(|p| p.pageno()).collect()
    }

    #[test]
    fn unmerged_thread_serves_each_run() {
        let (tx, rx) = unbounded();
        let (reply_tx, reply_rx) = unbounded();
        let batch = vec![run(2, 5, 1, &reply_tx), run(1, 0, 1, &reply_tx)];
        tx.send(IoMsg::Batch(batch)).unwrap();
        tx.send(IoMsg::Shutdown).unwrap();
        let mut log = Vec::new();
        io_thread_loop(rx, &InflightTable::new(), false, device(&mut log));
        let got = reply_rx.try_recv().unwrap();
        assert_eq!(got.len(), 2, "one reply message for the whole batch");
        assert!(reply_rx.try_recv().is_err());
        // Two separate reads, in arrival order.
        assert_eq!(log, [(5, 1), (0, 1)]);
    }

    #[test]
    fn shutdown_drains_queued_runs_before_exit() {
        // Regression: runs already queued when the shutdown message is
        // consumed must still be served — dropping them drops their
        // reply senders and a session waiting on the completion would
        // block forever. Shutdown first, three runs (in two batches)
        // behind it.
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
        io_thread_loop(rx, &InflightTable::new(), true, device(&mut Vec::new()));
        let ids: Vec<u64> = drain(&reply_rx).iter().map(|d| d.req_id).collect();
        assert_eq!(ids, vec![1, 2, 3], "every queued run must be answered");
    }

    #[test]
    fn shutdown_mid_batch_drains_the_rest() {
        // Same property through the inner try_recv path: a run, the
        // shutdown, then more runs.
        let (tx, rx) = unbounded();
        let (reply_tx, reply_rx) = unbounded();
        tx.send(IoMsg::Batch(vec![run(1, 0, 1, &reply_tx)]))
            .unwrap();
        tx.send(IoMsg::Shutdown).unwrap();
        tx.send(IoMsg::Batch(vec![run(2, 5, 1, &reply_tx)]))
            .unwrap();
        tx.send(IoMsg::Batch(vec![run(3, 9, 1, &reply_tx)]))
            .unwrap();
        io_thread_loop(rx, &InflightTable::new(), false, device(&mut Vec::new()));
        let ids: Vec<u64> = drain(&reply_rx).iter().map(|d| d.req_id).collect();
        assert_eq!(ids, vec![1, 2, 3]);
    }

    #[test]
    fn merged_thread_coalesces_adjacent_runs() {
        let (reply_tx, reply_rx) = unbounded();
        // Two adjacent single-page runs and one distant run, served in
        // one batch directly through `serve`.
        let batch = vec![
            run(12, 9, 1, &reply_tx),
            run(11, 2, 1, &reply_tx),
            run(10, 1, 1, &reply_tx),
        ];
        let mut log = Vec::new();
        serve(&batch, &InflightTable::new(), true, &mut device(&mut log));
        // Pages 1-2 coalesce into one read; page 9 is separate.
        assert_eq!(log, [(1, 2), (9, 1)]);
        let got = drain(&reply_rx);
        let pages: Vec<Vec<u64>> = got.iter().map(pagenos).collect();
        assert_eq!(pages, [vec![1], vec![2], vec![9]]);
    }

    #[test]
    fn merged_thread_handles_overlapping_runs() {
        let (reply_tx, reply_rx) = unbounded();
        let batch = vec![run(1, 4, 3, &reply_tx), run(2, 5, 3, &reply_tx)];
        let mut log = Vec::new();
        serve(&batch, &InflightTable::new(), true, &mut device(&mut log));
        assert_eq!(log, [(4, 4)]);
        let got = drain(&reply_rx);
        assert_eq!(pagenos(&got[0]), vec![4, 5, 6]);
        assert_eq!(pagenos(&got[1]), vec![5, 6, 7]);
    }

    #[test]
    fn one_pass_answers_each_session_once_waiters_included() {
        for merge in [true, false] {
            let inflight = InflightTable::new();
            let (tx_a, rx_a) = unbounded();
            let (tx_b, rx_b) = unbounded();
            // Session 1 fetches pages 0 and 8; session 2 fetches page 4
            // and waits on session 1's page 8.
            for p in [0, 4, 8] {
                assert!(!inflight.claim_or_attach(p, || unreachable!()));
            }
            assert!(inflight.claim_or_attach(8, || PageWaiter {
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
            serve(&batch, &inflight, merge, &mut device(&mut Vec::new()));
            let a = rx_a.try_recv().unwrap();
            assert_eq!(a.len(), 2, "merge={merge}");
            assert!(
                rx_a.try_recv().is_err(),
                "merge={merge}: session 1 woken once"
            );
            let mut b = rx_b.try_recv().unwrap();
            assert!(
                rx_b.try_recv().is_err(),
                "merge={merge}: session 2 woken once"
            );
            b.sort_by_key(|d| d.req_id);
            assert_eq!(
                b.len(),
                2,
                "merge={merge}: own run + fan-out share the message"
            );
            assert_eq!((b[1].req_id, b[1].first_slot), (21, 3));
            assert_eq!(pagenos(&b[1]), vec![8]);
            assert_eq!(inflight.open_claims(), 0, "merge={merge}: claims resolved");
        }
    }
}
