use std::collections::HashMap;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use fg_types::{CancelToken, Result};

use super::{GraphService, QueryOpts};

/// Virtual-pass step of a weight-1 tenant; a weight-`w` tenant steps
/// by `STRIDE / w`, so larger weights advance slower and are picked
/// more often.
const STRIDE: u64 = 1 << 20;

/// The two-level admission gate (see the module docs).
pub(super) struct Gate {
    pub(super) state: Mutex<GateState>,
    pub(super) cv: Condvar,
}

pub(super) struct GateState {
    /// Queries currently holding a slot.
    pub(super) running: usize,
    /// Arrival stamp handed to the next waiter (FIFO within tenant).
    pub(super) next_seq: u64,
    /// Waiters, in arrival order (the pick scans; queues are short —
    /// bounded by the caller's thread count).
    pub(super) waiters: Vec<Waiter>,
    /// Per-tenant stride-scheduling passes. Entries persist across
    /// the service's lifetime so a tenant's share is long-run fair.
    pub(super) passes: HashMap<String, u64>,
}

pub(super) struct Waiter {
    seq: u64,
    class: u8,
    tenant: String,
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

    /// Drops an undeclared tenant's stride pass once its last waiter
    /// leaves the queue. Declared tenants keep their pass so their
    /// share stays long-run fair, but a service whose tenant names
    /// come from request metadata (one per user, session, ...) must
    /// not grow the pass map without bound; the admission-time floor
    /// lift re-seats a returning ad-hoc tenant fairly anyway.
    fn drain_pass(&mut self, tenant: &str, declared: bool) {
        if !declared && !self.waiters.iter().any(|w| w.tenant == tenant) {
            self.passes.remove(tenant);
        }
    }
}

impl Gate {
    pub(super) fn lock(&self) -> MutexGuard<'_, GateState> {
        // A tenant that panicked inside `Engine::run` must not wedge
        // the whole service; the gate state is a few counters that
        // stay consistent regardless.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Releases one admission slot when a query ends, even by panic.
pub(super) struct Permit<'s> {
    service: &'s GraphService,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut st = self.service.gate.lock();
        st.running -= 1;
        self.service.completed.inc();
        drop(st);
        self.service.gate.cv.notify_all();
    }
}

impl GraphService {
    /// Blocks until this caller holds an admission slot (or its token
    /// fires): priority classes first, then weighted fair share among
    /// tenants, FIFO within one tenant.
    ///
    /// # Errors
    ///
    /// The token's verdict, with the wait booked and the waiter
    /// removed — an abandoned wait never consumes a slot.
    pub(super) fn admit(
        &self,
        opts: &QueryOpts,
        token: &CancelToken,
    ) -> Result<(Permit<'_>, Duration)> {
        let t0 = Instant::now();
        // A token that has already fired never enters the queue.
        if let Some(cause) = token.cause() {
            self.book_abort(cause);
            self.book_wait(t0.elapsed());
            return Err(cause.into());
        }
        if self.cfg.max_inflight == 0 {
            // Unlimited: no queueing, but the books still balance.
            let mut st = self.gate.lock();
            st.running += 1;
            let running = st.running;
            drop(st);
            let waited = t0.elapsed();
            self.admitted.inc();
            self.peak_inflight.max(running as u64);
            self.book_wait(waited);
            return Ok((Permit { service: self }, waited));
        }
        let (tenant, weight, priority) = self.resolve(opts);
        let declared = self.cfg.tenant(&tenant).is_some();
        let mut st = self.gate.lock();
        let seq = st.next_seq;
        st.next_seq += 1;
        st.waiters.push(Waiter {
            seq,
            class: priority.class(),
            tenant: tenant.clone(),
        });
        loop {
            if st.running < self.cfg.max_inflight && st.pick() == Some(seq) {
                // The grant can arrive long after the token fired —
                // a slot freeing is what wakes us. Re-check before
                // taking the slot, so an already-dead query neither
                // occupies it nor spawns an engine it would
                // immediately unwind.
                if let Some(cause) = token.cause() {
                    st.remove(seq);
                    st.drain_pass(&tenant, declared);
                    drop(st);
                    self.gate.cv.notify_all();
                    self.book_abort(cause);
                    self.book_wait(t0.elapsed());
                    return Err(cause.into());
                }
                st.remove(seq);
                st.running += 1;
                // Advance the tenant's pass; lift it to the floor of
                // its waiting peers first so a long-idle (or brand
                // new) tenant gets its share promptly without
                // replaying the whole backlog it never queued for.
                let floor = st
                    .waiters
                    .iter()
                    .map(|w| st.passes.get(&w.tenant).copied().unwrap_or(0))
                    .min()
                    .unwrap_or(0);
                let pass = st.passes.entry(tenant.clone()).or_insert(0);
                *pass = (*pass).max(floor) + STRIDE / u64::from(weight);
                st.drain_pass(&tenant, declared);
                let running = st.running;
                drop(st);
                // The next pick may also fit (capacity > 1), and our
                // admission changed the pass landscape.
                self.gate.cv.notify_all();
                let waited = t0.elapsed();
                self.admitted.inc();
                self.peak_inflight.max(running as u64);
                self.book_wait(waited);
                return Ok((Permit { service: self }, waited));
            }
            if let Some(cause) = token.cause() {
                st.remove(seq);
                st.drain_pass(&tenant, declared);
                drop(st);
                // Our departure may change the pick for a waiter that
                // is parked; wake everyone to re-evaluate.
                self.gate.cv.notify_all();
                self.book_abort(cause);
                self.book_wait(t0.elapsed());
                return Err(cause.into());
            }
            // Bounded waits double as the deadline/cancel poll: a
            // token fired by a thread that never touches the gate is
            // still noticed within one poll interval.
            let poll = if opts.cancel.is_none() {
                // No token at all: only gate events can unblock us.
                Duration::from_secs(3600)
            } else {
                match token.time_left() {
                    Some(left) => left.clamp(Duration::from_micros(100), QUEUE_POLL),
                    None => QUEUE_POLL,
                }
            };
            let (g, _) = self
                .gate
                .cv
                .wait_timeout(st, poll)
                .unwrap_or_else(|e| e.into_inner());
            st = g;
        }
    }
}

/// How often a queued waiter re-checks its cancellation token when no
/// gate event wakes it.
const QUEUE_POLL: Duration = Duration::from_millis(5);
