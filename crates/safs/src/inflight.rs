//! Mount-level in-flight read dedup (the serving-layer tentpole).
//!
//! The page cache only helps a second tenant *after* a page lands.
//! Two concurrent sessions missing the same page would both issue a
//! device read for it — the window is exactly the device service
//! time, and under many tenants over a hot vertex set it is hit
//! constantly. This table closes the window: the first session to
//! miss a page *claims* it and becomes its fetcher; any later session
//! missing the same page while the claim is open *attaches* as a
//! waiter instead of dispatching its own run. When an I/O thread
//! finishes the fetching read it resolves the claim, fanning the
//! landed page out to every waiter — one device read, N completions.
//!
//! Ownership discipline: claims are created on application threads at
//! submit time, but they are only ever *resolved on I/O threads*, as
//! part of serving the claiming run. Between the claim and its
//! dispatch the run sits in the claiming session's outbox; the session
//! dispatches it at its next `kick` / `poll` / `wait` and, failing
//! all of those, in its `Drop` — so a session that panics or is
//! cancelled cannot wedge anyone: its claimed runs always reach an I/O
//! thread (which serves every queued run, even across shutdown), and
//! waiter fan-out happens there, not on the dying tenant's thread. A
//! waiter that dies merely makes the fan-out `send` a no-op (the reply
//! channel is disconnected).
//!
//! The table is striped by page number: a claim/attach decision
//! concerns one page and needs no atomicity with its neighbours, so
//! each page locks only its own stripe and sessions working on
//! different pages never meet. Resolution detaches a page's waiters
//! under the stripe lock and hands them to the caller, which sends
//! after the lock is dropped.
//!
//! The protocol (one fetcher, N waiters, the buffered claim → dispatch
//! gap, cancellation mid-wait) is model-checked in
//! `fg_check::models::inflight_waiter`.

use std::collections::HashMap;

use fg_types::sync::channel::Sender;
use fg_types::sync::Mutex;

use crate::io_thread::RunDone;

/// Number of independently locked stripes; a power of two so the
/// stripe of a page is a mask of its number (consecutive pages of one
/// request land on different stripes).
const STRIPES: usize = 64;

/// One session waiting for another session's in-flight read of a
/// single page.
#[derive(Debug)]
pub(crate) struct PageWaiter {
    /// Session-local id of the waiter's logical request.
    pub req_id: u64,
    /// Slot within that request where the page belongs.
    pub slot: u32,
    /// Mount-unique id of the waiter session (groups its replies).
    pub session: u64,
    /// The waiter session's completion mailbox.
    pub reply: Sender<Vec<RunDone>>,
}

/// The mount-wide table of pages currently being fetched from the
/// device, keyed by page number. An entry's presence *is* the claim;
/// the `Vec` holds only the waiters (the fetcher serves itself
/// through its own run reply).
#[derive(Debug)]
pub(crate) struct InflightTable {
    stripes: Box<[Stripe]>,
}

/// The claims of the pages that map to one stripe.
type Stripe = Mutex<HashMap<u64, Vec<PageWaiter>>>;

impl InflightTable {
    pub(crate) fn new() -> Self {
        InflightTable {
            stripes: (0..STRIPES).map(|_| Mutex::default()).collect(),
        }
    }

    fn stripe(&self, pageno: u64) -> &Stripe {
        &self.stripes[pageno as usize & (STRIPES - 1)]
    }

    /// Either attaches to an open claim on `pageno` (another session
    /// is already fetching it) and returns `true` — the caller must
    /// *not* dispatch a device run for the page, `waiter()` receives
    /// it by fan-out — or opens a new claim and returns `false`: the
    /// caller is now the fetcher and must dispatch the page (the I/O
    /// thread serving it resolves the claim). `waiter` is only called
    /// on attach.
    pub(crate) fn claim_or_attach(&self, pageno: u64, waiter: impl FnOnce() -> PageWaiter) -> bool {
        let mut map = self.stripe(pageno).lock();
        match map.get_mut(&pageno) {
            Some(waiters) => {
                waiters.push(waiter());
                true
            }
            None => {
                map.insert(pageno, Vec::new());
                false
            }
        }
    }

    /// Resolves the claim on `pageno` after its read finished: removes
    /// it and returns the waiters that attached, for the caller to
    /// complete *after* this returns (no send happens under a stripe
    /// lock). Pages without a claim (cache-served members of a
    /// coalesced group) resolve to nothing. Called on I/O threads
    /// only — see the module docs for why that placement is what makes
    /// a dying tenant harmless.
    pub(crate) fn resolve(&self, pageno: u64) -> Vec<PageWaiter> {
        self.stripe(pageno)
            .lock()
            .remove(&pageno)
            .unwrap_or_default()
    }

    /// Number of open claims (tests and debugging).
    #[cfg(test)]
    pub(crate) fn open_claims(&self) -> usize {
        self.stripes.iter().map(|s| s.lock().len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_types::sync::channel::unbounded;
    use std::sync::{Arc, Barrier};

    fn waiter(req_id: u64, slot: u32, reply: &Sender<Vec<RunDone>>) -> PageWaiter {
        PageWaiter {
            req_id,
            slot,
            session: req_id,
            reply: reply.clone(),
        }
    }

    #[test]
    fn first_claims_second_attaches() {
        let t = InflightTable::new();
        let (tx_a, _rx_a) = unbounded();
        let (tx_b, _rx_b) = unbounded();
        for p in [10, 11] {
            assert!(!t.claim_or_attach(p, || waiter(1, 0, &tx_a)), "A claims");
        }
        assert!(t.claim_or_attach(11, || waiter(7, 0, &tx_b)), "11 attaches");
        assert!(!t.claim_or_attach(12, || waiter(7, 1, &tx_b)), "12 claims");
        assert_eq!(t.open_claims(), 3);

        // Serving A's run resolves 10 and 11; B's waiter on 11 comes
        // back addressed to its own request.
        assert!(t.resolve(10).is_empty());
        let ws = t.resolve(11);
        assert_eq!(t.open_claims(), 1, "only B's claim on 12 remains");
        assert_eq!(ws.len(), 1, "exactly one delivery");
        assert_eq!((ws[0].req_id, ws[0].slot), (7, 0));
    }

    #[test]
    fn resolve_without_claim_is_noop() {
        let t = InflightTable::new();
        assert!(t.resolve(5).is_empty());
        assert_eq!(t.open_claims(), 0);
    }

    #[test]
    fn dead_waiter_does_not_wedge_resolution() {
        let t = InflightTable::new();
        let (tx_a, _rx_a) = unbounded();
        let (tx_b, rx_b) = unbounded();
        t.claim_or_attach(3, || waiter(1, 0, &tx_a));
        t.claim_or_attach(3, || waiter(2, 0, &tx_b));
        drop(rx_b); // waiter session died mid-wait
        let ws = t.resolve(3);
        assert_eq!(t.open_claims(), 0, "claim resolved despite dead waiter");
        assert!(ws[0].reply.send(Vec::new()).is_err(), "send is a no-op");
    }

    #[test]
    fn pages_sharing_a_stripe_stay_distinct() {
        let t = InflightTable::new();
        let (tx, _rx) = unbounded();
        let (a, b) = (3, 3 + STRIPES as u64);
        assert!(!t.claim_or_attach(a, || waiter(1, 0, &tx)));
        assert!(!t.claim_or_attach(b, || waiter(2, 0, &tx)), "own claim");
        assert!(t.claim_or_attach(b, || waiter(3, 0, &tx)));
        assert!(t.resolve(a).is_empty());
        assert_eq!(t.resolve(b).len(), 1);
    }

    #[test]
    fn racing_claims_and_resolves_deliver_each_waiter_once() {
        // Eight threads hammer overlapping page sets: whoever claims a
        // page resolves it (as the I/O thread serving its run would)
        // and completes the detached waiters; whoever attaches counts
        // on exactly one completion. Rounds are barrier-separated so
        // every round re-races claim against attach against resolve.
        const THREADS: u64 = 8;
        const PAGES: u64 = 96; // > STRIPES: some pages share a stripe
        const ROUNDS: u64 = 50;
        let table = Arc::new(InflightTable::new());
        let barrier = Arc::new(Barrier::new(THREADS as usize));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let table = Arc::clone(&table);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let (tx, rx) = unbounded::<Vec<RunDone>>();
                    let mut expected = Vec::new();
                    for round in 0..ROUNDS {
                        barrier.wait();
                        // Overlapping windows: thread t covers pages
                        // [8t, 8t + 40) mod PAGES.
                        for k in 0..40 {
                            let page = (8 * t + k) % PAGES;
                            let req_id = round * PAGES + page;
                            let attached =
                                table.claim_or_attach(page, || waiter(req_id, t as u32, &tx));
                            if attached {
                                expected.push(req_id);
                            } else {
                                for w in table.resolve(page) {
                                    let _ = w.reply.send(vec![RunDone {
                                        req_id: w.req_id,
                                        first_slot: w.slot,
                                        pages: Vec::new(),
                                    }]);
                                }
                            }
                        }
                    }
                    barrier.wait();
                    drop(tx);
                    let mut got: Vec<u64> = rx.iter().flatten().map(|d| d.req_id).collect();
                    got.sort_unstable();
                    expected.sort_unstable();
                    assert_eq!(got, expected, "one delivery per attached waiter");
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(table.open_claims(), 0);
    }
}
