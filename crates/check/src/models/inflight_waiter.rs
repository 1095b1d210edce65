//! In-flight read dedup and the protocol around it — a harness running
//! the shipped SAFS sessions (`safs/src/session.rs`), I/O-thread loop
//! and pass (`io_thread.rs`) and `InflightTable` (`inflight.rs`) over
//! the channel double, on a mount reduced to what the protocol leaves
//! to it: a cache that always misses, one drive, and a device that
//! reads each page once.
//!
//! Before anyone else runs, a fetcher claims both pages, and a second
//! session attaches to both and departs (cancelled mid-wait). Then an
//! I/O thread serves what is kicked, a waiter submits the same pages —
//! it rides the fetcher's reads, or claims a page already resolved —
//! and the fetcher's query is cancelled with its runs still buffered,
//! which its `Drop` dispatches. Checked: the waiter reads each page
//! ordered after its one device write (a `CCell` per page); no claim
//! outlives its read; nobody waits forever.

use super::inflight::InflightTable;
use super::io_thread::{io_thread_loop, IoMsg};
use super::shipped_session::{Host, IoSession};
use super::Page;
use crate::sync::channel::{unbounded, Sender};
use crate::sync::{cspawn, CCell};
use crate::{check_assert, explore, Config, Fault, Report};
use fg_ssdsim::IoStats;
use std::sync::Arc;

/// Seeded protocol edits the checker must catch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// Fault: the pass's one `send` to each session is lost — the
    /// waiter riding the fetcher's read sleeps forever (deadlock).
    LostReply,
    /// Fault: a session's blocking `recv` takes its reply without the
    /// I/O thread's clock, so nothing orders the device write before
    /// the session's read of the page (data race).
    UnorderedReply,
    /// Fault: a session's dispatch loses its batch — the cancelled
    /// fetcher's `Drop` reaches no I/O thread, and the waiter riding
    /// its claims sleeps forever (deadlock).
    LostDispatch,
    /// Fault: `claim_or_attach` enters its stripe without the lock,
    /// unordered with `resolve` there (data race).
    UnlockedClaim,
}

pub const MUTATIONS: [Mutation; 4] = [
    Mutation::LostReply,
    Mutation::UnorderedReply,
    Mutation::LostDispatch,
    Mutation::UnlockedClaim,
];

/// The pass's send to a session: the first `send` of `io_thread.rs`.
const LOST_REPLY: Fault = Fault("io_thread.rs", "send", 0);
/// `wait`'s receive: the one `recv` of `session.rs`.
const UNORDERED_REPLY: Fault = Fault("session.rs", "recv", 0);
/// `dispatch`'s send: the one `send` of `session.rs`.
const LOST_DISPATCH: Fault = Fault("session.rs", "send", 0);
/// `claim_or_attach`'s lock: the first `lock` of `inflight.rs`.
const UNLOCKED_CLAIM: Fault = Fault("inflight.rs", "lock", 0);

/// Every session reads these pages, one byte each, in one request, so
/// a page's number is its offset and its slot. Each is on its own
/// stripe.
const PAGES: u64 = 2;

/// The mount, as far as a session and an I/O thread reach it.
struct Rig {
    inflight: InflightTable,
    io: [Sender<IoMsg>; 1],
    books: IoStats,
    /// Whether the device read has written each page.
    landed: Vec<CCell<bool>>,
}

impl Host for Rig {
    fn books(&self) -> &IoStats {
        &self.books
    }

    fn geometry(&self) -> (u64, u64) {
        (1, PAGES)
    }

    fn lookup(&self, _: u64) -> Option<Arc<Page>> {
        None
    }

    fn route(&self, _: u64) -> usize {
        0
    }
}

impl Rig {
    /// A session of this mount.
    fn session(&self, id: u64) -> IoSession<'_> {
        IoSession::new(self, &self.inflight, &self.io, id, None)
    }

    /// The read behind the I/O thread's passes: the device writes each
    /// page once, and a page read again comes from the pages already
    /// read, as the shipped re-check finds it in the page cache.
    fn device(&self) -> impl FnMut(u64, u64) -> Vec<Arc<Page>> + '_ {
        let mut read: Vec<Option<Arc<Page>>> = vec![None; PAGES as usize];
        move |first, n| {
            let page = |p: u64| {
                let page = read[p as usize].get_or_insert_with(|| {
                    self.landed[p as usize].write(|b| *b = true);
                    Arc::new(Page::new(p, Box::new([0])))
                });
                Arc::clone(page)
            };
            (first..first + n).map(page).collect()
        }
    }
}

/// A session's read of every page, through to its completion, each
/// page read after it landed.
fn read_all(rig: &Rig) {
    let mut session = rig.session(3);
    session.submit(0, PAGES, 7).expect("in range");
    let mut done = Vec::new();
    while session.pending() > 0 {
        session.wait(&mut done);
    }
    check_assert(done.len() == 1 && done[0].tag == 7, "one completion");
    check_assert(done[0].span.page_count() == PAGES as usize, "every page");
    for landed in &rig.landed {
        check_assert(landed.read(|b| *b), "a delivered page has landed");
    }
}

/// Explores the protocol; `mutation: None` is the shipped behaviour.
pub fn check(mutation: Option<Mutation>, cfg: &Config) -> Report {
    let faults: &[Fault] = match mutation {
        None => &[],
        Some(Mutation::LostReply) => &[LOST_REPLY],
        Some(Mutation::UnorderedReply) => &[UNORDERED_REPLY],
        Some(Mutation::LostDispatch) => &[LOST_DISPATCH],
        Some(Mutation::UnlockedClaim) => &[UNLOCKED_CLAIM],
    };
    explore(cfg, faults, move || {
        let (io_tx, io_rx) = unbounded();
        let rig = Arc::new(Rig {
            inflight: InflightTable::new(),
            io: [io_tx],
            books: IoStats::new(1),
            landed: (0..PAGES)
                .map(|p| CCell::new(&format!("page {p}"), false))
                .collect(),
        });
        let mut fetcher = rig.session(1);
        fetcher.submit(0, PAGES, 0).expect("in range");
        // Attaches to both claims, and departs.
        rig.session(2).submit(0, PAGES, 0).expect("in range");
        let waiter = cspawn({
            let rig = Arc::clone(&rig);
            move || read_all(&rig)
        });
        let io = cspawn({
            let rig = Arc::clone(&rig);
            move || io_thread_loop(io_rx, &rig.inflight, true, rig.device())
        });
        // Cancelled with its runs still buffered.
        drop(fetcher);
        waiter.join();
        // The mount shuts its I/O thread down once its sessions are gone.
        let _ = rig.io[0].send(IoMsg::Shutdown);
        io.join();
        // Joins give the root the happens-before edge for these claims.
        for p in 0..PAGES {
            let open = rig.inflight.claim_or_attach(p, || unreachable!());
            check_assert(!open, "no claim outlives the read that resolves it");
        }
    })
}
