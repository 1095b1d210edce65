//! In-flight read dedup — the model of the mount-level waiter
//! protocol (`crates/safs/src/inflight.rs` + the batched hop in
//! `safs.rs` / `io_thread.rs`): one fetcher, N waiters, per-page
//! locks, the buffered claim → dispatch gap, cancellation mid-wait.
//!
//! Still a *model*, kept in step by review: the protocol runs through
//! an `IoSession`, `fg_types::sync::channel`s and an I/O thread, and the
//! checker has no double for a channel yet (a later issue).
//!
//! Protocol: the first session to miss a page *claims* it (an entry
//! in the mount-wide table, striped so each page has its own lock)
//! and buffers a device run in its outbox; later sessions missing the
//! same page while the claim is open *attach* as waiters instead of
//! dispatching their own read. The run reaches an I/O thread only
//! when the claiming session *kicks* — explicitly, at its next
//! poll/wait, or in its `Drop` — so between claim and kick waiters
//! can pile onto a read nobody has been asked to do yet. The I/O
//! thread serving the run fills the page buffers, completes the
//! fetcher through its private reply mailbox, then resolves each
//! page's claim under that page's own lock (no lock spans two pages),
//! detaching its waiters, and — after the locks are dropped — sends
//! every waiter session one batched reply and notifies. A waiter
//! whose query is cancelled mid-wait simply departs; its reply
//! channel disconnecting turns the fan-out send into a no-op. Nothing
//! a dying session does can wedge the others, because resolution
//! lives on the I/O thread and every exit of the claiming session
//! dispatches what it claimed.
//!
//! The model compresses that to: a two-page run whose claims opened
//! at submit time (on the application thread, before anyone else
//! runs — the real ownership discipline) and sit buffered; one I/O
//! thread that sleeps until the run is dispatched; the fetcher
//! session, which kicks and reads its reply; one faithful waiter
//! that wants both pages (it may attach to both, to one, or find both
//! landed); and one waiter that attached to the second page and was
//! cancelled while the run still sat in the outbox (it is part of the
//! initial state: its attach takes the same lock the faithful
//! waiter's does, and what matters afterwards is that nobody waits on
//! its entry).
//!
//! Invariants checked:
//! * the fetcher and the surviving waiter both observe the landed
//!   page bytes — one device read, N completions;
//! * no claim is left open once the read resolves;
//! * the fan-out covers every attached waiter, departed or not;
//! * the cancelled waiter's departure never blocks resolution or the
//!   surviving waiter (exhaustive exploration finds no deadlock).
//!
//! Seeded mutations:
//! * [`Mutation::DroppedNotify`]: the batched reply lands in the
//!   waiter's mailbox but the wake-up is skipped — the attached
//!   waiter sleeps forever (deadlock), exactly what replying without
//!   the channel's notify would do in `io_thread.rs`.
//! * [`Mutation::RelaxedPublish`]: the fetcher's mailbox flag is
//!   published with `Relaxed` instead of `Release` — the mailbox no
//!   longer carries the page write, and the fetcher's read of the
//!   page buffer races the device write (data race). This is the
//!   hazard of replying on a channel without release/acquire
//!   semantics.
//! * [`Mutation::DropWithoutKick`]: the claiming session goes away
//!   with its run still in the outbox (an `IoSession` whose `Drop`
//!   forgot to dispatch) — the claims are never served and the
//!   attached waiter sleeps forever (deadlock).

use crate::sync::{cspawn, cyield, AtomicBool, CCell, Condvar, Mutex, Ordering};
use crate::{check_assert, explore, Config, Report};
use std::sync::Arc;

/// Seeded protocol edits the checker must catch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// The waiter's reply is queued but never notified.
    DroppedNotify,
    /// The fetcher's completion mailbox is published `Relaxed`.
    RelaxedPublish,
    /// The claiming session exits without dispatching its outbox.
    DropWithoutKick,
}

pub const MUTATIONS: [Mutation; 3] = [
    Mutation::DroppedNotify,
    Mutation::RelaxedPublish,
    Mutation::DropWithoutKick,
];

/// The bytes the device read lands in every page.
const PAGE: u64 = 42;
/// Pages in the claiming run, each behind its own table lock.
const PAGES: usize = 2;

/// One stripe of the in-flight table, reduced to one page's claim.
struct Claim {
    /// The claim entry is present (some session is fetching the page).
    open: bool,
    /// Waiters that attached while it was open, departed or not.
    attached: u64,
    /// Of those, attachments of the surviving waiter.
    live: u64,
    /// Waiters detached by resolve (each gets a send, a no-op one if
    /// it departed).
    fanned: u64,
}

struct Model {
    claims: [Mutex<Claim>; PAGES],
    /// The I/O thread's mailbox: the fetcher's batch has been kicked.
    io_queue: Mutex<bool>,
    io_cv: Condvar,
    /// The page buffers the device read fills (one cell: the run is
    /// one device read; what is per page is the *locking*).
    pages: CCell<[u64; PAGES]>,
    /// The fetcher session's private reply mailbox (the model of its
    /// completion channel).
    fetcher_mailbox: AtomicBool,
    /// The surviving waiter's reply channel: pages delivered so far.
    waiter_mailbox: Mutex<u64>,
    waiter_cv: Condvar,
    mutation: Option<Mutation>,
}

impl Model {
    /// The I/O thread: waits for the claiming run to be dispatched,
    /// then serves it — device read, fetcher completion, per-page
    /// claim resolution, one batched waiter reply.
    fn run_io(&self) {
        let mut kicked = self.io_queue.lock();
        while !*kicked {
            kicked = self.io_cv.wait(kicked);
        }
        drop(kicked);
        // The device read lands the page bytes.
        self.pages.write(|b| *b = [PAGE; PAGES]);
        // Complete the fetcher through its own mailbox.
        // ordering: Release — pairs with the fetcher's Acquire load;
        // the mailbox must carry the page writes. The mutation
        // downgrades exactly this edge.
        let ord = if self.mutation == Some(Mutation::RelaxedPublish) {
            // ordering: Relaxed — the seeded bug under test.
            Ordering::Relaxed
        } else {
            Ordering::Release
        };
        self.fetcher_mailbox.store(true, ord);
        // Resolve page by page, each under its own lock only; the
        // sends happen after the last lock is dropped.
        let mut for_waiter = 0;
        for claim in &self.claims {
            let mut c = claim.lock();
            c.open = false;
            // One send per detached waiter; a departed waiter's send
            // is a disconnected-channel no-op but still happens.
            c.fanned = c.attached;
            for_waiter += c.live;
        }
        if for_waiter > 0 {
            *self.waiter_mailbox.lock() += for_waiter;
            if self.mutation != Some(Mutation::DroppedNotify) {
                self.waiter_cv.notify_all();
            }
        }
    }

    /// The claiming session: its claims were opened at submit time and
    /// its run sits in the outbox. It kicks, then awaits its reply.
    fn run_fetcher(&self) {
        if self.mutation == Some(Mutation::DropWithoutKick) {
            // The session is dropped here and its `Drop` does not
            // dispatch — the seeded bug under test.
            return;
        }
        *self.io_queue.lock() = true;
        self.io_cv.notify_all();
        // ordering: Acquire — pairs with the I/O thread's Release
        // publish of the mailbox, making the page bytes visible.
        while !self.fetcher_mailbox.load(Ordering::Acquire) {
            cyield();
        }
        self.pages
            .read(|b| check_assert(*b == [PAGE; PAGES], "the fetcher observes the landed pages"));
    }

    /// A session missing both pages: attaches to each claim still
    /// open (a landed page is a cache read instead), then waits for
    /// as many deliveries as it attached.
    fn run_waiter(&self) {
        let mut attached = 0;
        for claim in &self.claims {
            let mut c = claim.lock();
            if c.open {
                c.attached += 1;
                c.live += 1;
                attached += 1;
            }
        }
        let mut delivered = self.waiter_mailbox.lock();
        while *delivered < attached {
            delivered = self.waiter_cv.wait(delivered);
        }
        drop(delivered);
        // Fanned out to (ordered by the mailbox hand-off) or a
        // post-landing cache read (ordered by the claim's lock
        // hand-off from resolve).
        self.pages.read(|b| {
            check_assert(
                *b == [PAGE; PAGES],
                "the surviving waiter observes the landed pages",
            )
        });
    }
}

/// Explores the protocol; `mutation: None` is the faithful model.
pub fn check(mutation: Option<Mutation>, cfg: &Config) -> Report {
    let cfg = cfg.clone();
    explore(&cfg, move || {
        // The claims open on the submitting application thread,
        // before any concurrency — the table's ownership discipline.
        // `departed` waiters attached and were cancelled while the run
        // still sat in the outbox: their entries stay in the table,
        // nobody waits on them, resolution must proceed regardless.
        let claim = |departed: u64| {
            Mutex::new(Claim {
                open: true,
                attached: departed,
                live: 0,
                fanned: 0,
            })
        };
        let m = Arc::new(Model {
            claims: [claim(0), claim(1)],
            io_queue: Mutex::new(false),
            io_cv: Condvar::new(),
            pages: CCell::new("pages", [0u64; PAGES]),
            fetcher_mailbox: AtomicBool::new(false),
            waiter_mailbox: Mutex::new(0),
            waiter_cv: Condvar::new(),
            mutation,
        });

        let io = {
            let m = m.clone();
            cspawn(move || m.run_io())
        };
        let waiter = {
            let m = m.clone();
            cspawn(move || m.run_waiter())
        };
        // The root thread is the claiming session itself — it opened
        // the claims before spawning anyone; everything the others do
        // until it kicks happens inside the claim → dispatch gap.
        m.run_fetcher();
        io.join();
        waiter.join();

        // Joins give the root the happens-before edge for these reads.
        for claim in &m.claims {
            let c = claim.lock();
            check_assert(!c.open, "no claim is left open after resolve");
            check_assert(
                c.fanned == c.attached,
                "fan-out covers every attached waiter, departed or not",
            );
        }
    })
}
