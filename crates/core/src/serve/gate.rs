//! The admission gate: at most `cap` permits out at once, the rest of
//! the callers parked in a two-level queue — strict priority classes,
//! then stride-scheduled tenants, FIFO within one tenant (the policy is
//! in [`super`]'s module docs). This file owns three invariants:
//!
//! * **a slot is held by exactly one live [`Permit`]** — `running`
//!   moves only in [`Gate::admit`]'s one grant and in the permit's
//!   drop, which runs on unwind too, so a query that panics or is
//!   cancelled mid-run still gives its slot back;
//! * **a dead waiter never takes a slot** — a token is re-read at the
//!   grant, which can come long after it fired (a slot freeing is what
//!   wakes the waiter), and a waiter that leaves says so: its departure
//!   can make a parked waiter the pick with a slot already free;
//! * **every change of the pick is broadcast** — a waiter without a
//!   token waits untimed, so the two `notify_all`s below are all that
//!   ever wakes it.
//!
//! Every primitive is `super::sync::…` and nothing else here names an
//! item of this crate: `fg_check` compiles this file against its
//! instrumented `sync` and explores `admit` and the permit's drop as
//! shipped (its `gate` harness: priority, cancel-after-grant and a
//! token firing with no gate event; dropping either broadcast
//! deadlocks), so an edit here is checked by the next
//! `cargo test --test check_models`. The ledger prices an uncontended
//! pass through here as `serve.admit_us`, and the waits it causes under
//! load as `serve.queue_wait_p50_us` / `_p99_us` and
//! `serve.peak_inflight`.

use std::collections::HashMap;
use std::time::Duration;

use fg_types::{CancelCause, CancelToken};

use super::sync::{Condvar, Mutex};

/// Virtual-pass step of a weight-1 tenant; a weight-`w` tenant steps
/// by `STRIDE / w`, so larger weights advance slower and are picked
/// more often.
const STRIDE: u64 = 1 << 20;

/// How often a queued waiter re-checks its cancellation token when no
/// gate event wakes it.
const QUEUE_POLL: Duration = Duration::from_millis(5);

/// The two-level admission gate (see the module docs).
pub(super) struct Gate {
    /// Permits out at once; `usize::MAX` when the service is unlimited.
    cap: usize,
    /// Never lock-poisoned (`sync::Mutex` is not): a tenant that
    /// panicked inside its run must not wedge the whole service, and
    /// the state is a few counters and a queue that no statement here
    /// leaves half-updated across a call that can panic.
    state: Mutex<GateState>,
    cv: Condvar,
}

struct GateState {
    /// Queries currently holding a slot.
    running: usize,
    /// Arrival stamp handed to the next waiter (FIFO within tenant).
    next_seq: u64,
    /// Waiters, in arrival order (the pick scans; queues are short —
    /// bounded by the caller's thread count).
    waiters: Vec<Waiter>,
    /// Per-tenant stride-scheduling passes. Entries persist across
    /// the service's lifetime so a tenant's share is long-run fair.
    passes: HashMap<String, u64>,
    /// Permits granted and dropped so far, and the most out at once.
    admitted: u64,
    completed: u64,
    peak: usize,
}

/// The gate at one instant, read under its lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct GateSnapshot {
    /// Permits out now.
    pub(super) running: usize,
    /// Callers parked in [`Gate::admit`] now.
    pub(super) queued: usize,
    /// Permits granted so far.
    pub(super) admitted: u64,
    /// Permits dropped so far.
    pub(super) completed: u64,
    /// Most permits out at once.
    pub(super) peak: usize,
    /// Tenants holding a stride pass (what `drain_pass` bounds).
    pub(super) tenant_passes: usize,
}

struct Waiter {
    seq: u64,
    class: u8,
    tenant: String,
}

/// Who is asking for a slot.
#[derive(Debug, Clone, Copy)]
pub(super) struct Ticket<'a> {
    /// Priority class; 0 admits first.
    pub(super) class: u8,
    pub(super) tenant: &'a str,
    /// Stride weight, at least 1.
    pub(super) weight: u32,
    /// Declared tenants keep their pass across idle periods.
    pub(super) declared: bool,
}

impl GateState {
    /// The waiter the gate would admit next: lowest class, then
    /// smallest tenant pass, then arrival order.
    fn pick(&self) -> Option<u64> {
        self.waiters
            .iter()
            .min_by_key(|w| {
                (
                    w.class,
                    self.passes.get(&w.tenant).copied().unwrap_or(0),
                    w.seq,
                )
            })
            .map(|w| w.seq)
    }

    fn remove(&mut self, seq: u64) {
        if let Some(i) = self.waiters.iter().position(|w| w.seq == seq) {
            self.waiters.swap_remove(i);
        }
    }

    /// Advances `who`'s pass for one admission; lifts it to the floor
    /// of its waiting peers first so a long-idle (or brand new) tenant
    /// gets its share promptly without replaying the whole backlog it
    /// never queued for.
    fn charge(&mut self, who: Ticket<'_>) {
        let floor = self
            .waiters
            .iter()
            .map(|w| self.passes.get(&w.tenant).copied().unwrap_or(0))
            .min()
            .unwrap_or(0);
        let pass = self.passes.entry(who.tenant.to_owned()).or_insert(0);
        *pass = (*pass).max(floor) + STRIDE / u64::from(who.weight);
    }

    /// Drops an undeclared tenant's stride pass once its last waiter
    /// leaves the queue. Declared tenants keep their pass so their
    /// share stays long-run fair, but a service whose tenant names
    /// come from request metadata (one per user, session, ...) must
    /// not grow the pass map without bound; the admission-time floor
    /// lift re-seats a returning ad-hoc tenant fairly anyway.
    fn drain_pass(&mut self, who: Ticket<'_>) {
        if !who.declared && !self.waiters.iter().any(|w| w.tenant == who.tenant) {
            self.passes.remove(who.tenant);
        }
    }
}

/// One admission slot, released when dropped — at the end of a query,
/// even by panic.
pub(super) struct Permit<'g> {
    gate: &'g Gate,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut st = self.gate.state.lock();
        st.running -= 1;
        st.completed += 1;
        drop(st);
        self.gate.cv.notify_all();
    }
}

impl Gate {
    /// A gate letting `max_inflight` permits out at once; zero means
    /// unlimited.
    pub(super) fn new(max_inflight: usize) -> Self {
        Gate {
            cap: if max_inflight == 0 {
                usize::MAX
            } else {
                max_inflight
            },
            state: Mutex::new(GateState {
                running: 0,
                next_seq: 0,
                waiters: Vec::new(),
                passes: HashMap::new(),
                admitted: 0,
                completed: 0,
                peak: 0,
            }),
            cv: Condvar::new(),
        }
    }

    /// Where the gate stands now.
    pub(super) fn snapshot(&self) -> GateSnapshot {
        let st = self.state.lock();
        GateSnapshot {
            running: st.running,
            queued: st.waiters.len(),
            admitted: st.admitted,
            completed: st.completed,
            peak: st.peak,
            tenant_passes: st.passes.len(),
        }
    }

    /// Blocks until `who` holds a slot or `token` fires: priority
    /// classes first, then weighted fair share among tenants, FIFO
    /// within one tenant. An unlimited gate is the same loop with a cap
    /// no arrival reaches: each is alone in the queue it joins, and is
    /// its own pick.
    ///
    /// # Errors
    ///
    /// The token's verdict, with the waiter removed — an abandoned wait
    /// never consumes a slot.
    pub(super) fn admit(
        &self,
        who: Ticket<'_>,
        token: Option<&CancelToken>,
    ) -> Result<Permit<'_>, CancelCause> {
        let fired = || token.and_then(CancelToken::cause);
        // A token that has already fired never enters the queue.
        if let Some(cause) = fired() {
            return Err(cause);
        }
        let mut st = self.state.lock();
        let seq = st.next_seq;
        st.next_seq += 1;
        st.waiters.push(Waiter {
            seq,
            class: who.class,
            tenant: who.tenant.to_owned(),
        });
        let verdict = loop {
            // The token is read first, grant or no grant: a grant can
            // arrive long after the token fired — a slot freeing is what
            // wakes us — and an already-dead query must neither occupy
            // the slot nor spawn an engine it would immediately unwind.
            if let Some(cause) = fired() {
                break Err(cause);
            }
            if st.running < self.cap && st.pick() == Some(seq) {
                break Ok(());
            }
            st = match token {
                // No token: only gate events can unblock us.
                None => self.cv.wait(st),
                // Bounded waits double as the deadline/cancel poll: a
                // token fired by a thread that never touches the gate
                // is still noticed within one poll interval.
                Some(token) => {
                    let poll = token.time_left().map_or(QUEUE_POLL, |left| {
                        left.clamp(Duration::from_micros(100), QUEUE_POLL)
                    });
                    self.cv.wait_timeout(st, poll)
                }
            };
        };
        st.remove(seq);
        if verdict.is_ok() {
            st.running += 1;
            st.admitted += 1;
            st.peak = st.peak.max(st.running);
            st.charge(who);
        }
        st.drain_pass(who);
        drop(st);
        // Granted or gone, the pick has changed for whoever is parked:
        // the next one may also fit (capacity > 1, or a dead waiter
        // that stood first with a slot free), and an admission moves
        // the pass landscape. Wake everyone to re-evaluate.
        self.cv.notify_all();
        verdict.map(|()| Permit { gate: self })
    }
}
