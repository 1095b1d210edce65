//! In-flight read dedup — a harness around the shipped
//! `InflightTable::{claim_or_attach, resolve}` (`safs/src/inflight.rs`)
//! over the channel double. The session's side (`IoSession::submit`,
//! `kick`, the dispatch in `Drop`) and the I/O thread's (the device
//! read, `fan_out`, one reply per session) are not mountable, so they
//! are transcribed here, a run per claimed page and the page cache
//! reduced to the I/O thread's recheck: a page is read once.
//!
//! Before anyone else runs, a fetcher claims both pages, and a second
//! session attaches to both and departs (cancelled mid-wait). Then an
//! I/O thread serves what is kicked, a waiter submits the same pages —
//! it rides the fetcher's reads, or claims a page already resolved —
//! and the fetcher's query is cancelled with its runs still buffered,
//! which its `Drop` dispatches. Checked: the waiter reads each page
//! ordered after its one device write (a `CCell` per page); no claim
//! outlives its read; nobody waits forever.

use super::shipped_inflight::{InflightTable, PageWaiter, RunDone};
use super::Page;
use crate::sync::channel::{unbounded, Receiver, Sender};
use crate::sync::{cspawn, CCell};
use crate::{check_assert, explore, Config, Fault, Report};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Seeded protocol edits the checker must catch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// Caller: the I/O thread resolves each claim and drops the waiters
    /// it detached — the attached waiter sleeps forever (deadlock).
    ResolveWithoutFanOut,
    /// Caller: the replies carry no clock, so nothing orders the device
    /// write before a session's read of the page (data race).
    UnorderedReply,
    /// Caller: the fetcher's `Drop` forgets to dispatch — the attached
    /// waiter sleeps forever (deadlock).
    DropWithoutKick,
    /// Fault: `claim_or_attach` enters its stripe without the lock,
    /// unordered with `resolve` there (data race).
    UnlockedClaim,
}

pub const MUTATIONS: [Mutation; 4] = [
    Mutation::ResolveWithoutFanOut,
    Mutation::UnorderedReply,
    Mutation::DropWithoutKick,
    Mutation::UnlockedClaim,
];

/// `claim_or_attach`'s lock: the first `lock` of `inflight.rs`.
const UNLOCKED_CLAIM: Fault = Fault("inflight.rs", "lock", 0);

/// Every session requests these pages, one request from page 0, so a
/// page's number is its slot. Each is on its own stripe.
const PAGES: u64 = 2;

/// What a kick sends: the session, its mailbox and the pages it claimed.
type Kick = (u64, Sender<Vec<RunDone>>, Vec<u64>);

struct Mount {
    table: InflightTable,
    /// Whether the device read has written each page.
    landed: Vec<CCell<bool>>,
}

impl Mount {
    /// The I/O thread: a pass per kick, until every session and the
    /// mount have let go of the channel.
    fn serve(&self, io: Receiver<Kick>, mutation: Option<Mutation>) {
        let mut cache: Vec<Option<Arc<Page>>> = vec![None; PAGES as usize];
        for (session, to, claimed) in io.iter() {
            // What the pass answers, one message per session.
            let mut replies = BTreeMap::new();
            let mut reply = |session, to: &Sender<_>, req_id, first_slot, page: &Arc<Page>| {
                let pages = vec![Arc::clone(page)];
                let (_, batch) = replies
                    .entry(session)
                    .or_insert_with(|| (to.clone(), vec![]));
                batch.push(RunDone {
                    req_id,
                    first_slot,
                    pages,
                });
            };
            for p in claimed {
                let page = cache[p as usize].get_or_insert_with(|| {
                    self.landed[p as usize].write(|b| *b = true);
                    Arc::new(Page::new(p, Box::new([])))
                });
                let detached = self.table.resolve(p);
                if mutation != Some(Mutation::ResolveWithoutFanOut) {
                    for w in detached {
                        reply(w.session, &w.reply, w.req_id, w.slot, page);
                    }
                }
                reply(session, &to, 0, p as u32, page);
            }
            let ordered = mutation != Some(Mutation::UnorderedReply);
            for (to, batch) in replies.into_values() {
                // A departed session's mailbox is gone: a no-op.
                let _ = to.post(batch, ordered);
            }
        }
    }
}

/// `IoSession`, for one request of every page.
struct Session {
    id: u64,
    mount: Arc<Mount>,
    io: Sender<Kick>,
    reply_tx: Sender<Vec<RunDone>>,
    reply_rx: Receiver<Vec<RunDone>>,
    /// Pages claimed and not yet dispatched.
    outbox: Vec<u64>,
}

impl Session {
    /// Each page rides the read already on its way, or is claimed.
    fn submit(&mut self) {
        for p in 0..PAGES {
            let (session, reply, slot) = (self.id, self.reply_tx.clone(), p as u32);
            let waiter = || PageWaiter {
                req_id: 0,
                slot,
                session,
                reply,
            };
            if !self.mount.table.claim_or_attach(p, waiter) {
                self.outbox.push(p);
            }
        }
    }

    fn kick(&mut self) {
        if !self.outbox.is_empty() {
            let claimed = std::mem::take(&mut self.outbox);
            let _ = self.io.send((self.id, self.reply_tx.clone(), claimed));
        }
    }

    /// Kicks, then reads every page as it is delivered.
    fn wait(&mut self) {
        self.kick();
        let mut delivered = 0;
        while delivered < PAGES {
            for done in self.reply_rx.recv().expect("the session holds a sender") {
                check_assert(done.req_id == 0, "a delivery names its request");
                for (slot, page) in (done.first_slot..).zip(&done.pages) {
                    check_assert(page.pageno() == u64::from(slot), "a page lands in its slot");
                    let landed = self.mount.landed[slot as usize].read(|b| *b);
                    check_assert(landed, "a delivered page has landed");
                    delivered += 1;
                }
            }
        }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        // Claims this session opened must still be fetched: others may
        // be attached to them.
        self.kick();
    }
}

/// Explores the protocol; `mutation: None` is the shipped behaviour.
pub fn check(mutation: Option<Mutation>, cfg: &Config) -> Report {
    let faults: &[Fault] = match mutation {
        Some(Mutation::UnlockedClaim) => &[UNLOCKED_CLAIM],
        _ => &[],
    };
    explore(cfg, faults, move || {
        let landed = (0..PAGES)
            .map(|p| CCell::new(&format!("page {p}"), false))
            .collect();
        let table = InflightTable::new();
        let mount = Arc::new(Mount { table, landed });
        let (io_tx, io_rx) = unbounded();
        let session = |id| {
            let (reply_tx, reply_rx) = unbounded();
            let (mount, io, outbox) = (mount.clone(), io_tx.clone(), Vec::new());
            Session {
                id,
                mount,
                io,
                reply_tx,
                reply_rx,
                outbox,
            }
        };
        let mut fetcher = session(1);
        fetcher.submit();
        session(2).submit(); // and departs
        let mut waiter = session(3);
        let waiter = cspawn(move || {
            waiter.submit();
            waiter.wait();
        });
        let io = cspawn({
            let mount = mount.clone();
            move || mount.serve(io_rx, mutation)
        });
        if mutation == Some(Mutation::DropWithoutKick) {
            fetcher.outbox.clear();
        }
        // Cancelled with its runs still buffered.
        drop(fetcher);
        // The mount shuts its I/O thread down once the sessions are gone.
        drop(io_tx);
        waiter.join();
        io.join();
        // Joins give the root the happens-before edge for these claims.
        for p in 0..PAGES {
            let open = mount.table.claim_or_attach(p, || unreachable!());
            check_assert(!open, "no claim outlives the read that resolves it");
        }
    })
}
