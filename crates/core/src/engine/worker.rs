use fg_types::sync::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fg_safs::CacheStats;
use fg_types::{AtomicBitmap, Bitmap, CancelCause, VertexId};

use super::boundary::{Control, Counters};
use super::claim::{ActiveSet, Frontiers};
use super::pool::ReadyPool;
use super::sem_io::{fetch_window, IoDriver, ReadyVertex, SemIo};
use super::{Backend, Engine};
use crate::context::{RunShared, VertexContext, WorkerScratch};
use crate::messages::{MessageBoard, NotifyBoard};
use crate::program::VertexProgram;
use crate::shard::{PoisonGuard, Rendezvous, ShardLink};
use crate::state::SharedStates;
use crate::stats::IterStats;
use crate::vertex::PageVertex;

/// Everything one worker thread needs, borrowed from the run.
pub(super) struct WorkerEnv<'r, 'g, P: VertexProgram> {
    pub(super) w: usize,
    /// The shard this run executes (0 when there is only one).
    pub(super) me: usize,
    pub(super) engine: &'r Engine<'g>,
    pub(super) program: &'r P,
    pub(super) states: &'r SharedStates<P::State>,
    pub(super) shared: &'r RunShared<'r>,
    pub(super) frontiers: &'r Frontiers,
    pub(super) board: &'r MessageBoard<P::Msg>,
    pub(super) notify: &'r NotifyBoard,
    pub(super) active: &'r ActiveSet,
    pub(super) barrier: &'r Rendezvous,
    pub(super) control: &'r Control,
    pub(super) counters: &'r Counters,
    pub(super) ready: &'r ReadyPool,
    pub(super) busy: &'r AtomicBitmap,
    pub(super) cache_scope: &'r Option<Arc<CacheStats>>,
    pub(super) per_iteration: &'r parking_lot::Mutex<Vec<IterStats>>,
    /// The shard bus + cross-shard barrier group, in runs with peers.
    pub(super) link: Option<&'r ShardLink<'r, P::Msg>>,
}

impl<P: VertexProgram> WorkerEnv<'_, '_, P> {
    pub(super) fn run_loop(&self) {
        // A callback that panics on this worker fails its siblings'
        // waits instead of leaving them parked (see [`Rendezvous`]).
        let _guard = PoisonGuard(self.barrier);
        let shards = self
            .shared
            .shard
            .as_ref()
            .map(|sv| sv.index.num_shards())
            .unwrap_or(0);
        let mut scratch: WorkerScratch<P::Msg> =
            WorkerScratch::new(self.shared.pmap.num_partitions(), shards);
        let mut io = match &self.engine.backend {
            Backend::Sem { mounts, index } => {
                // A shard's index speaks local ids; the session
                // localizes owned subjects by the window base (0 for
                // the only shard of a whole-graph image).
                IoDriver::Sem(SemIo::with_base(
                    mounts[self.me].session_scoped(self.cache_scope.clone()),
                    index.shard_range(self.me).start,
                ))
            }
            Backend::Mem(_) => IoDriver::Mem,
        };
        let mut seen_notify = Bitmap::new(self.shared.n);
        // Worker 0's counter snapshot at the last recorded boundary.
        // Taken here — before any worker can pass the first phase-A
        // barrier, and nothing before that barrier touches a counter
        // or the device — and advanced only at quiesced phase-D
        // boundaries, so the per-iteration deltas chain without gaps
        // or double counting.
        let mut boundary = self.boundary_snapshot();
        loop {
            let iter = self.control.iteration.load(Ordering::Acquire);
            let iter_start = Instant::now();
            let frontier_count = if self.w == 0 {
                self.frontiers.cur().count_ones() as u64
            } else {
                0
            };

            // Phase A: build this partition's ordered active list.
            let mut list = self.collect_active();
            self.apply_scheduler(iter, &mut list);
            self.active.install(self.w, list);
            self.barrier.rendezvous();

            // Phase B, compute: every vertical pass in one
            // completion-counted sweep with no intra-iteration barrier
            // — the device queue never drains between passes — and one
            // synchronization, after quiesce, so every worker's message
            // flush is on the boards before any worker starts phase
            // C's drains.
            let wait_before = self.counters.wait_ns.get();
            let t = Instant::now();
            self.compute_pipelined(iter, &mut scratch, &mut io);
            self.flush_boards(&mut scratch);
            let busy = t.elapsed().as_nanos() as u64;
            let waited = self.counters.wait_ns.get() - wait_before;
            self.counters.compute_ns.add(busy.saturating_sub(waited));
            self.barrier.rendezvous();

            // Cross-shard sync 1: every shard has finished compute, so
            // every foreign packet of this iteration is on the bus.
            // Worker 0 rendezvouses with the peer shards, then drains
            // this shard's lane onto the local boards/frontier — so a
            // foreign message is delivered in this iteration's phase C,
            // exactly when a local send would have been.
            if let Some(link) = self.link {
                if self.w == 0 {
                    link.group.rendezvous();
                    self.drain_shard_bus(link);
                }
                self.barrier.rendezvous();
            }

            // Phase C: message delivery + iteration-end callbacks for
            // this partition.
            let t = Instant::now();
            self.deliver_messages(iter, &mut scratch, &mut io);
            self.apply_iteration_end(iter, &mut scratch, &mut io, &mut seen_notify);
            self.flush_boards(&mut scratch);
            self.counters.compute_ns.add(t.elapsed().as_nanos() as u64);
            self.barrier.rendezvous();

            // Phase D: worker 0 decides continuation and swaps. The
            // phase-C barrier above quiesced every worker (all I/O
            // pipelines drained), so recording here attributes every
            // byte to the iteration that read it even when stealing
            // moved the work between partitions.
            if self.w == 0 {
                // Cross-shard sync 2: collect packets posted during
                // phase C (they stay pending into the next iteration,
                // like a local barrier-phase send), then AND-reduce
                // the quiet votes so every shard stops on the same
                // iteration — an active peer keeps idle shards in
                // lockstep running empty iterations.
                if let Some(link) = self.link {
                    link.group.rendezvous();
                    self.drain_shard_bus(link);
                }
                let next_count = self.frontiers.next().count_ones() as u64;
                let quiet = next_count == 0 && self.board.pending() == 0;
                // Cancellation is voted exactly like termination: a
                // shard whose token fired votes "stop" into the same
                // AND-reduction, so either every shard stops on this
                // boundary or (when a deadline races the vote) all
                // continue one more iteration and stop on the next —
                // no shard ever blocks on a peer that walked away.
                let cancel_hit = match self.engine.cancel.as_ref().and_then(|t| t.cause()) {
                    None => 0u32,
                    Some(CancelCause::Cancelled) => 1,
                    Some(CancelCause::DeadlineExpired) => 2,
                };
                let stop_vote = quiet || cancel_hit != 0;
                let done = match self.link {
                    Some(link) => link.group.vote(stop_vote),
                    None => stop_vote,
                } || iter + 1 >= self.engine.cfg.max_iterations;
                if done && cancel_hit != 0 && !quiet {
                    // A run that was quiet anyway converged; only an
                    // actually-cut-short run reports cancellation.
                    let kind = &self.control.cancel_kind;
                    // ordering: Relaxed — written while every other
                    // worker is parked at the barrier, read after the
                    // thread-scope join; both edges synchronize.
                    kind.store(cancel_hit, Ordering::Relaxed);
                }
                self.record_iteration(frontier_count, iter_start, &mut boundary);
                self.frontiers.swap();
                self.ready.begin_iteration();
                self.control.stop.store(done, Ordering::Release);
                self.control.iteration.store(iter + 1, Ordering::Release);
            }
            self.barrier.rendezvous();
            if self.control.stop.load(Ordering::Acquire) {
                break;
            }
        }
        self.counters.activations.add(scratch.activations);
        self.counters.engine_requests.add(scratch.engine_requests);
    }

    /// The pipelined compute phase: every vertical pass in one
    /// completion-counted sweep, with no intra-iteration barrier.
    ///
    /// The loop keeps three activities interleaved: (a) claiming
    /// active vertices — own partition first, then stealing — to keep
    /// up to `max_pending` logical requests on the device, (b)
    /// harvesting this worker's completions into the shared ready
    /// pool, and (c) executing ready deliveries, its own or stolen
    /// from workers whose device queue is ahead of their CPU. Once
    /// claims are exhausted everywhere the worker announces it on
    /// `claims_done` and keeps harvesting/stealing until the pool's
    /// obligation count reaches zero — the iteration's quiesce point.
    ///
    /// Vertical passes of one vertex may run concurrently with
    /// deliveries from an earlier pass; the per-vertex busy bit
    /// serializes the callbacks, but cross-pass *order* is not
    /// global. Programs that keep per-pass results independent (all
    /// in-tree algorithms) are unaffected.
    fn compute_pipelined(
        &self,
        iter: u32,
        scratch: &mut WorkerScratch<P::Msg>,
        io: &mut IoDriver<'_>,
    ) {
        let nparts = self.shared.pmap.num_partitions();
        let max_pending = self.engine.cfg.max_pending.max(1);
        let mut vp = 0u32;
        let mut claiming = true;
        loop {
            if claiming {
                // (a) Fill the device pipeline with fresh claims.
                while io.outstanding() < max_pending {
                    match self.claim(vp as usize, nparts) {
                        Some(v) => self.run_claimed(iter, vp, v, scratch, io),
                        None if vp + 1 < self.shared.vparts => vp += 1,
                        None => {
                            claiming = false;
                            // Release the half-filled batch, then
                            // announce: cursors only move forward, so
                            // exhaustion is permanent this iteration.
                            io.flush(self);
                            // ordering: AcqRel — the release half
                            // publishes this worker's final flush to
                            // whoever's `quiesced` load sees the full
                            // count; the acquire half joins earlier
                            // announcements' release sequence through
                            // the RMW chain. Referee: fg_check's
                            // `quiesce` model.
                            self.ready.claims_done.fetch_add(1, Ordering::AcqRel);
                            break;
                        }
                    }
                }
            }
            // (b) Publish our freshly completed covers to the pool.
            self.harvest(io, false);
            // (c) Run ready deliveries — ours or stolen.
            let executed = self.execute_deliveries(iter, scratch, io);
            if executed == 0 {
                // Nothing to run: what we wait for next may be a
                // sibling's announcement or obligation, which a dead
                // sibling never delivers.
                self.barrier.check();
                if !claiming {
                    // Deliveries may have buffered follow-on requests
                    // that no size trigger will fire for anymore.
                    io.flush(self);
                    if io.outstanding() == 0 && self.quiesced() {
                        break;
                    }
                }
                if io.outstanding() > 0 {
                    // When `max_pending < issue_batch` the depth gate
                    // can fill entirely with *buffered* requests that
                    // the size trigger will never release — nothing is
                    // at the device and the wait below could never be
                    // satisfied. Submit the partial batch; this fires
                    // only at genuine stall points, so merge batching
                    // is otherwise unaffected.
                    if io.in_flight() == 0 {
                        io.flush(self);
                    }
                    // Nothing runnable until one of our covers lands:
                    // block briefly (bounded, so we resume stealing
                    // even if our own replies are slow).
                    self.harvest(io, true);
                } else if !claiming {
                    // Other workers still hold obligations; retry the
                    // pool politely.
                    std::thread::yield_now();
                }
            }
        }
    }

    /// Runs a freshly claimed vertex's `run` callback under its busy
    /// bit and absorbs the requests it queued.
    fn run_claimed(
        &self,
        iter: u32,
        vp: u32,
        v: VertexId,
        scratch: &mut WorkerScratch<P::Msg>,
        io: &mut IoDriver<'_>,
    ) {
        self.counters.vertices.inc();
        self.acquire_busy(v);
        self.with_ctx(iter, vp, scratch, v, |prog, state, ctx| {
            prog.run(v, state, ctx);
        });
        self.absorb_requests(iter, vp, scratch, io);
        self.busy.clear_sync(v);
        io.flush_if_full(self);
        self.maybe_flush_messages(scratch);
    }

    /// Polls (or briefly waits on) this worker's session and
    /// publishes the resolved deliveries to the ready pool.
    /// Completions only arrive on the session that issued them, so an
    /// otherwise idle worker bounds its wait instead of blocking —
    /// stolen work may appear in the pool at any moment.
    fn harvest(&self, io: &mut IoDriver<'_>, wait: bool) {
        let IoDriver::Sem(sem) = io else { return };
        let mut done = Vec::new();
        let t = Instant::now();
        if wait {
            sem.session
                .wait_timeout(&mut done, Duration::from_micros(200));
        } else {
            sem.session.poll(&mut done);
        }
        self.counters.wait_ns.add(t.elapsed().as_nanos() as u64);
        for c in done {
            sem.resolve(c);
        }
        if !sem.ready.is_empty() {
            self.ready.push_local(self.w, &mut sem.ready);
        }
    }

    /// Executes up to a small budget of ready deliveries from the
    /// pool (bounded so the device pipeline is re-filled regularly),
    /// serializing on each requester's busy bit. Returns the number
    /// of deliveries run.
    fn execute_deliveries(
        &self,
        iter: u32,
        scratch: &mut WorkerScratch<P::Msg>,
        io: &mut IoDriver<'_>,
    ) -> usize {
        const DELIVERY_BUDGET: usize = 64;
        let mut executed = 0;
        while executed < DELIVERY_BUDGET {
            let Some(r) = self.ready.pop(self.w) else {
                break;
            };
            if self.busy.set_sync(r.requester) {
                // The requester's callback is running on another
                // worker right now: hand the delivery to the injector
                // rather than spin, and stop popping — the next pop
                // could return the same entry.
                self.ready.push_injector(r);
                break;
            }
            let requester = r.requester;
            let vpd = r.vpart;
            let pv = SemIo::decode_ready(r, self.shared.deltas.as_deref());
            self.deliver_vertex(iter, vpd, scratch, requester, &pv);
            self.absorb_requests(iter, vpd, scratch, io);
            self.busy.clear_sync(requester);
            // ordering: AcqRel — release publishes the delivery's
            // state writes to the worker whose quiesce load sees
            // the count reach zero; acquire folds earlier
            // decrements into this RMW's release sequence. The
            // RelaxedPublish mutation of fg_check's `quiesce`
            // model demonstrates the lost publication if this is
            // weakened.
            self.ready.obligations.fetch_sub(1, Ordering::AcqRel);
            executed += 1;
            io.flush_if_full(self);
            self.maybe_flush_messages(scratch);
        }
        executed
    }

    /// The pipelined iteration's end condition: every worker has
    /// exhausted claiming and every accepted request's delivery has
    /// finished. `claims_done` is monotonic within an iteration and
    /// cascades keep an outer obligation alive while they spawn inner
    /// ones, so a true result cannot hide in-flight work (see
    /// [`ReadyPool`]).
    pub(super) fn quiesced(&self) -> bool {
        // ordering: Acquire on both loads pairs with the AcqRel
        // announcement/decrement RMWs, so a worker that observes the
        // full claim count and a zero obligation count also observes
        // every delivered vertex's state writes. These were SeqCst
        // from PR 6 "to be safe"; fg_check's `quiesce` model passes
        // exhaustively at Acquire/AcqRel and catches the seeded
        // downgrades below it.
        self.ready.claims_done.load(Ordering::Acquire) == self.shared.pmap.num_partitions()
            && self.ready.obligations.load(Ordering::Acquire) == 0
    }

    /// Spins until this worker owns `v`'s busy bit. Contention is
    /// rare and short-lived: the holder is another worker inside one
    /// of `v`'s callbacks, which never blocks on someone else's bit —
    /// and never clears it if the callback panicked.
    fn acquire_busy(&self, v: VertexId) {
        while self.busy.set_sync(v) {
            self.barrier.check();
            std::hint::spin_loop();
        }
    }

    /// Runs a program callback with the vertex's state and a fresh
    /// context. Timing happens at phase granularity (per-callback
    /// clocks would dominate message-heavy algorithms).
    pub(super) fn with_ctx<F>(
        &self,
        iter: u32,
        vp: u32,
        scratch: &mut WorkerScratch<P::Msg>,
        v: VertexId,
        f: F,
    ) where
        F: FnOnce(&P, &mut P::State, &mut VertexContext<'_, P::Msg>),
    {
        let mut ctx = VertexContext {
            current: v,
            iteration: iter,
            vpart: vp,
            shared: self.shared,
            next_frontier: self.frontiers.next(),
            scratch,
        };
        // SAFETY: `v` was claimed exclusively (cursor/owner/claimer
        // discipline); its state is ours until the callback returns.
        let state = unsafe { self.states.get_mut(v.index()) };
        f(self.program, state, &mut ctx);
    }

    /// Moves the requests a callback queued in `scratch` into the I/O
    /// driver, resolving locations; zero-degree requests complete
    /// inline (possibly cascading).
    pub(super) fn absorb_requests(
        &self,
        iter: u32,
        vp: u32,
        scratch: &mut WorkerScratch<P::Msg>,
        io: &mut IoDriver<'_>,
    ) {
        while !scratch.requests.is_empty() {
            // Callbacks run below queue follow-on requests: take the
            // pending ones out and leave the spare buffer in their
            // place, so neither side allocates per round.
            let mut reqs = std::mem::take(&mut scratch.absorbing);
            std::mem::swap(&mut reqs, &mut scratch.requests);
            for req in reqs.drain(..) {
                match (&self.engine.backend, &mut *io) {
                    (Backend::Mem(g), IoDriver::Mem) => {
                        let csr = g.csr(req.dir);
                        let ops = self
                            .shared
                            .deltas
                            .as_ref()
                            .and_then(|d| d.list(req.subject, req.dir));
                        let pv = if let Some(ops) = ops {
                            // Overlaid subject: the range is in merged
                            // coordinates, so wrap the full CSR list.
                            let edges = csr.neighbors(req.subject);
                            let attrs = req.attrs.then(|| {
                                csr.weights_of(req.subject)
                                    .expect("attrs requested on an unweighted graph")
                            });
                            let base =
                                PageVertex::from_slice(req.subject, req.dir, 0, edges, attrs);
                            PageVertex::with_overlay(
                                base,
                                Arc::clone(ops),
                                req.start,
                                req.len as usize,
                            )
                        } else {
                            // Ranges were clamped at request time; the
                            // CSR slice is the oracle the sem path
                            // must match.
                            let lo = req.start as usize;
                            let hi = lo + req.len as usize;
                            let edges = &csr.neighbors(req.subject)[lo..hi];
                            let attrs = if req.attrs {
                                Some(
                                    &csr.weights_of(req.subject)
                                        .expect("attrs requested on an unweighted graph")
                                        [lo..hi],
                                )
                            } else {
                                None
                            };
                            PageVertex::from_slice(req.subject, req.dir, req.start, edges, attrs)
                        };
                        self.deliver_vertex(iter, vp, scratch, req.requester, &pv);
                    }
                    (Backend::Sem { mounts, index }, IoDriver::Sem(sem)) => {
                        let deltas = self.shared.deltas.as_deref();
                        let foreign = self
                            .shared
                            .shard
                            .as_ref()
                            .is_some_and(|sv| req.len > 0 && !sv.owns(req.subject));
                        if foreign {
                            // Foreign-subject request (TC-style
                            // neighbour-list reads): locate on the
                            // owning shard's index and read its mount
                            // synchronously — the cross-shard analogue
                            // of the Mem arm's inline delivery, safe
                            // because the requester holds the busy bit
                            // and the subject's *state* is never
                            // touched, only its on-disk edges.
                            let (start, len, overlay) =
                                fetch_window(&req, deltas, || index.degree(req.subject, req.dir));
                            let mut ready = ReadyVertex::empty(&req, vp, start, overlay);
                            if len > 0 {
                                let (s, slice) =
                                    index.locate_slice(req.subject, req.dir, start, len);
                                let loc = slice.loc;
                                debug_assert_eq!(loc.degree, len);
                                self.counters.bytes_requested.add(loc.bytes);
                                self.counters.issued_requests.inc();
                                ready.count = len;
                                ready.decode = slice.decode;
                                ready.edges = mounts[s]
                                    .read_sync(loc.offset, loc.bytes)
                                    .expect("foreign shard edge read");
                                if req.attrs {
                                    let (sa, aloc) = index
                                        .locate_attrs_range(req.subject, req.dir, start, len)
                                        .expect(
                                            "attrs requested but image has no attribute section",
                                        );
                                    self.counters.bytes_requested.add(aloc.bytes);
                                    self.counters.issued_requests.inc();
                                    ready.attrs = Some(
                                        mounts[sa]
                                            .read_sync(aloc.offset, aloc.bytes)
                                            .expect("foreign shard attr read"),
                                    );
                                }
                            }
                            let pv = SemIo::decode_ready(ready, deltas);
                            self.deliver_vertex(iter, vp, scratch, req.requester, &pv);
                            continue;
                        }
                        // Owned subject, on this shard's own index and
                        // mount.
                        // Every accepted request is an obligation
                        // until its delivery (and the absorption of
                        // its follow-ons) finishes; the quiesce
                        // condition counts these.
                        // ordering: Relaxed — publication of this increment to
                        // the quiesce check rides on the `claims_done` release
                        // chain (claim phase) or on the enclosing obligation's
                        // AcqRel decrement (cascades), never on the increment
                        // itself. fg_check's `quiesce` model is the referee;
                        // its NoOuterObligation mutation shows what breaks
                        // when a cascade runs without cover.
                        self.ready.obligations.fetch_add(1, Ordering::Relaxed);
                        sem.enqueue(req, index.shard(self.me), self.counters, vp, deltas);
                        // Zero-degree requests become ready
                        // completions without I/O. (The pool never
                        // holds these: `harvest` is the only producer
                        // of resolved entries, and it drains
                        // `sem.ready` before returning.)
                        while let Some((requester, vpd, pv)) = sem.pop_ready(deltas) {
                            self.deliver_vertex(iter, vpd, scratch, requester, &pv);
                            // ordering: AcqRel — release publishes the delivery's
                            // state writes to the worker whose quiesce load sees
                            // the count reach zero; acquire folds earlier
                            // decrements into this RMW's release sequence. The
                            // RelaxedPublish mutation of fg_check's `quiesce`
                            // model demonstrates the lost publication if this is
                            // weakened.
                            self.ready.obligations.fetch_sub(1, Ordering::AcqRel);
                        }
                    }
                    _ => unreachable!("backend and io driver always match"),
                }
            }
            scratch.absorbing = reqs;
        }
    }

    fn deliver_vertex(
        &self,
        iter: u32,
        vp: u32,
        scratch: &mut WorkerScratch<P::Msg>,
        requester: VertexId,
        pv: &PageVertex<'_>,
    ) {
        self.counters.edges_delivered.add(pv.degree() as u64);
        self.with_ctx(iter, vp, scratch, requester, |prog, state, ctx| {
            prog.run_on_vertex(requester, state, pv, ctx);
        });
    }

    /// The barrier phase's synchronous drain: blocks for at least one
    /// completion, then runs `run_on_vertex` for every part that
    /// landed, in pass 0 like every barrier-phase request.
    pub(super) fn drain_completions(
        &self,
        iter: u32,
        scratch: &mut WorkerScratch<P::Msg>,
        io: &mut IoDriver<'_>,
    ) {
        let IoDriver::Sem(sem) = io else { return };
        let mut done = Vec::new();
        let t = Instant::now();
        sem.session.wait(&mut done);
        self.counters.wait_ns.add(t.elapsed().as_nanos() as u64);
        for c in done {
            sem.resolve(c);
            while let Some((requester, vpd, pv)) = sem.pop_ready(self.shared.deltas.as_deref()) {
                debug_assert_eq!(vpd, 0, "barrier-phase deliveries stay in pass 0");
                self.deliver_vertex(iter, vpd, scratch, requester, &pv);
                // ordering: AcqRel — release publishes the delivery's
                // state writes to the worker whose quiesce load sees
                // the count reach zero; acquire folds earlier
                // decrements into this RMW's release sequence. The
                // RelaxedPublish mutation of fg_check's `quiesce`
                // model demonstrates the lost publication if this is
                // weakened.
                self.ready.obligations.fetch_sub(1, Ordering::AcqRel);
            }
        }
        // Callbacks may have queued more requests.
        self.absorb_requests(iter, 0, scratch, io);
        io.flush_if_full(self);
        self.maybe_flush_messages(scratch);
    }
}
