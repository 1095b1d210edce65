//! The worker: one thread's iteration loop — build, pipelined compute
//! (`compute_pipelined`), boundary (`boundary.rs`) — and the road's
//! last stretch: claimed run → `run` for each of its vertices →
//! absorbed requests → pool entry → delivery → `run_on_vertex` →
//! absorbed follow-ons → release.
//!
//! A claimed run (a partition range's worth of the active list over a
//! mount, one vertex in memory) reads its requests one of two ways and
//! delivers them one way. Over a mount, `run` for each vertex leaves
//! its sweepable requests staged (`SemIo::set_aside`: owned, non-empty,
//! no attributes) and the rest are absorbed at once; once the run is
//! through, the worker accepts every staged request's obligation with
//! one `accept(n)` and `SemIo::settle` reads a dense direction's covers
//! here, through the session's inline read, and sends a sparse one's
//! requests to the issue queue, where every follow-on goes too. Either
//! way a read cover becomes pool entries, and every entry is delivered
//! by `ReadyPool::deliver_round`. A worker whose run swept claims again
//! only once every entry of the sweep is delivered — by itself or by a
//! thief — so it never holds more than one run's pages and staged
//! requests for a sweep. In memory every request is delivered inline,
//! one vertex at a time.
//!
//! Invariants owned here: a vertex's callbacks never run on two
//! workers at once — any worker may run a vertex's delivery, but only
//! under its bit of the busy bitmap, so `SharedStates`' exclusivity
//! contract survives stealing — and an accepted request is released
//! only after its delivery *and* the absorption of the follow-ons that
//! delivery queued (`complete`).
//!
//! Both ends of that obligation are paid per batch. A request's
//! obligation is opened by one `accept(n)` for everything an absorb
//! enqueued or a run staged, after the last enqueue and before the
//! only things that could let one complete — this worker's own flush,
//! or its inline read; until then the caller's cover (its unannounced
//! claims, or the obligation of the delivery being absorbed) holds
//! quiesce off. What comes back through the pool is an *entry*: a run
//! of up to 64 of one cover's requests, named as a range of their
//! batch (`sem_io::Entry`), never a value per request. The compute loop
//! runs `ReadyPool::deliver_round` (walk, busy bit, conflict requeue,
//! one `release(n)`; `fg_check` explores it as shipped, a swept run's
//! entry among its cells), handing it the requester's busy bit as
//! closures and `complete` as the delivery: header read from the
//! batch, bytes a window over the cover, callback, follow-ons absorbed.

use fg_types::sync::{Mutex, Ordering};
use std::sync::Arc;
use std::time::Instant;

use fg_graph::{DeltaView, Graph};
use fg_safs::{CacheStats, PageSpan, SpanWindow};
use fg_types::{AtomicBitmap, VertexId};

use super::boundary::{Control, Counters};
use super::claim::{ActiveSet, Frontiers};
use super::pool::{ReadyPool, Round};
use super::sem_io::{decode, fetch_window, Entry, Header, SemIo, Wait};
use super::{Backend, Engine};
use crate::context::{EdgeRequest, RunShared, VertexContext, WorkerScratch};
use crate::messages::{Batch, Lanes};
use crate::program::VertexProgram;
use crate::rendezvous::{PoisonGuard, Rendezvous};
use crate::shard::ShardLink;
use crate::state::SharedStates;
use crate::stats::IterStats;
use crate::vertex::PageVertex;

/// Entries per delivery round, of at most `ENTRY_DELIVERIES` each. Not
/// a number to shrink for the sake of refilling the device queue
/// sooner: an entry waiting in a deque pins its cover's pages, and the
/// pinned-hit path serves re-requests of them without a device read,
/// so a worker that takes its whole backlog and works through it
/// re-reads less than one that returns to claiming after each entry.
/// On the ledger's `tc_neighbor` (no locality, the cache a fraction of
/// the traffic) 64 entries of 64 read 1.7 MB a pass where rounds of 64
/// per-request deliveries read 2.4; a round of one entry of 64 read 2.6
/// and 4 entries of 16 read 2.5 (medians of five).
const ROUND_ENTRIES: usize = 64;

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
    pub(super) board: &'r Lanes<Batch<P::Msg>>,
    /// Vertices registered for `run_on_iteration_end`.
    pub(super) iteration_end: &'r AtomicBitmap,
    pub(super) active: &'r ActiveSet,
    pub(super) barrier: &'r Rendezvous,
    pub(super) control: &'r Control,
    pub(super) counters: &'r Counters,
    pub(super) ready: &'r ReadyPool<Entry>,
    pub(super) busy: &'r AtomicBitmap,
    pub(super) cache_scope: &'r Option<Arc<CacheStats>>,
    pub(super) per_iteration: &'r Mutex<Vec<IterStats>>,
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
            Backend::Mem(g) => Source::Mem(g),
            Backend::Sem { mounts, index } => {
                let scope = self.cache_scope.clone();
                let cfg = &self.engine.cfg;
                let run_len = self.shared.pmap.range_len();
                Source::Sem(SemIo::new(
                    mounts,
                    index,
                    self.me,
                    scope,
                    cfg,
                    run_len,
                    self.counters,
                ))
            }
        };
        // Sized for a full round, so the first runs do not regrow it.
        let mut round: Round<Entry> = (Vec::with_capacity(ROUND_ENTRIES), Vec::new());
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

            // Phase B, compute: one completion-counted sweep with no
            // intra-iteration barrier, and one synchronization, after
            // quiesce, so every worker's message flush is on the
            // boards before any worker starts phase C's drains.
            let wait_before = self.counters.wait_ns.get();
            let t = Instant::now();
            self.compute_pipelined(iter, &mut scratch, &mut io, &mut round);
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
                    self.drain_shard_bus(link, &mut scratch);
                }
                self.barrier.rendezvous();
            }

            // Phase C: message delivery + iteration-end callbacks for
            // this partition.
            let t = Instant::now();
            self.deliver_messages(iter, &mut scratch, &mut io);
            self.apply_iteration_end(iter, &mut scratch, &mut io);
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
                    self.drain_shard_bus(link, &mut scratch);
                }
                let next_count = self.frontiers.next().count_ones() as u64;
                let quiet = next_count == 0 && self.board.pending() == 0;
                // Cancellation is voted exactly like termination: a
                // shard whose token fired votes "stop" into the same
                // AND-reduction, so either every shard stops on this
                // boundary or (when a deadline races the vote) all
                // continue one more iteration and stop on the next —
                // no shard ever blocks on a peer that walked away.
                let cancel_hit = self.engine.cancel.as_ref().and_then(|t| t.cause());
                let stop_vote = quiet || cancel_hit.is_some();
                let done = match self.link {
                    Some(link) => link.group.vote(stop_vote),
                    None => stop_vote,
                } || iter + 1 >= self.engine.cfg.max_iterations;
                if done && !quiet {
                    // A run that was quiet anyway converged; only an
                    // actually-cut-short run reports cancellation.
                    *self.control.cancelled.lock() = cancel_hit;
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

    /// The pipelined compute phase: one completion-counted sweep, with
    /// no intra-iteration barrier.
    ///
    /// The loop keeps three activities interleaved: (a) claiming runs
    /// of active vertices — own partition first, then stealing — to
    /// keep up to `max_pending` logical requests on the device, (b)
    /// harvesting this worker's completions into the shared ready
    /// pool, and (c) executing ready deliveries, its own or stolen
    /// from workers whose device queue is ahead of their CPU. After a
    /// run that swept, (a) waits until every entry of the sweep has
    /// been delivered, by this worker or a thief: they pin the run's
    /// pages and its batch, which stages the next run. Once
    /// claims are exhausted everywhere the worker announces it on
    /// `claims_done` and keeps harvesting/stealing until the pool's
    /// obligation count reaches zero — the iteration's quiesce point.
    fn compute_pipelined(
        &self,
        iter: u32,
        scratch: &mut WorkerScratch<P::Msg>,
        io: &mut Source<'_>,
        round: &mut Round<Entry>,
    ) {
        let nparts = self.shared.pmap.num_partitions();
        let max_pending = self.engine.cfg.max_pending.max(1);
        // A run is what may sweep: a partition range's worth over a
        // mount, one vertex in memory, where every delivery is inline.
        let run_len = match io {
            Source::Mem(_) => 1,
            Source::Sem(_) => self.shared.pmap.range_len(),
        };
        let mut claiming = true;
        loop {
            if claiming {
                // (a) Fill the device pipeline with fresh claims.
                while io.outstanding() < max_pending && io.reclaim_run() {
                    match self.claim(nparts, run_len) {
                        Some(run) => self.run_claimed(iter, run, scratch, io),
                        None => {
                            claiming = false;
                            // Release the half-filled batch, then
                            // announce: cursors only move forward, so
                            // exhaustion is permanent this iteration.
                            io.flush();
                            self.ready.announce_claims_done();
                            break;
                        }
                    }
                }
            }
            // (b) Publish our freshly completed covers to the pool.
            self.harvest(io, Wait::Poll);
            // (c) Run one round of ready deliveries — ours or stolen —
            // each under its requester's busy bit.
            let requester = |e: &Entry, i| e.head(i).requester;
            let executed = self.ready.deliver_round(
                self.w,
                ROUND_ENTRIES,
                round,
                |e, i| self.busy.set_sync(requester(e, i)),
                |e, i| self.busy.clear_sync(requester(e, i)),
                |e, i| {
                    self.complete(iter, e, i, scratch, io);
                    self.maybe_flush_messages(scratch);
                },
            );
            if executed == 0 {
                // Nothing to run: what we wait for next may be a
                // sibling's announcement or obligation, which a dead
                // sibling never delivers.
                self.barrier.check();
                if !claiming {
                    // Deliveries may have buffered follow-on requests
                    // that no size trigger will fire for anymore.
                    io.flush();
                    if io.outstanding() == 0 && self.ready.quiesced(nparts) {
                        break;
                    }
                }
                if io.outstanding() > 0 {
                    // Nothing runnable until one of our covers lands:
                    // block briefly (bounded, so we resume stealing
                    // even if our own replies are slow).
                    self.harvest(io, Wait::Brief);
                } else {
                    // Other workers still hold obligations, or our last
                    // sweep's entries; retry the pool politely.
                    std::thread::yield_now();
                }
            }
        }
    }

    /// Runs each vertex of a freshly claimed run's `run` callback under
    /// its busy bit and absorbs the requests it queued, all but the
    /// ones a sweep may read, which wait staged for the end of the run.
    /// There they are accepted — one `accept(n)`, before any is
    /// selected or read — and settled (`SemIo::settle`): a sweep's
    /// entries are ready for this worker's next harvest.
    fn run_claimed(
        &self,
        iter: u32,
        run: &[VertexId],
        scratch: &mut WorkerScratch<P::Msg>,
        io: &mut Source<'_>,
    ) {
        for &v in run {
            self.counters.vertices.inc();
            self.acquire_busy(v);
            self.with_ctx(iter, scratch, v, |prog, state, ctx| {
                prog.run(v, state, ctx);
            });
            if let Source::Sem(sem) = io {
                sem.set_aside(&mut scratch.requests);
            }
            self.absorb_requests(iter, scratch, io);
            self.busy.clear_sync(v);
            self.maybe_flush_messages(scratch);
        }
        if let Source::Sem(sem) = io {
            let staged = sem.staged();
            if staged > 0 {
                self.ready.accept(staged as u64);
                sem.settle();
            }
        }
    }

    /// Publishes this worker's landed completions to the ready pool.
    fn harvest(&self, io: &mut Source<'_>, wait: Wait) {
        let Source::Sem(sem) = io else { return };
        let landed = sem.harvest(wait);
        if !landed.is_empty() {
            self.ready.push_local(self.w, landed);
        }
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
        scratch: &mut WorkerScratch<P::Msg>,
        v: VertexId,
        f: F,
    ) where
        F: FnOnce(&P, &mut P::State, &mut VertexContext<'_, P::Msg>),
    {
        let mut ctx = VertexContext {
            current: v,
            iteration: iter,
            shared: self.shared,
            next_frontier: self.frontiers.next(),
            iteration_end: self.iteration_end,
            scratch,
        };
        // SAFETY: `v` was claimed exclusively (cursor/owner/claimer
        // discipline); its state is ours until the callback returns.
        let state = unsafe { self.states.get_mut(v.index()) };
        f(self.program, state, &mut ctx);
    }

    /// Moves the requests a callback queued in `scratch` into the
    /// worker's source, flushing its issue queue once that has filled.
    /// What needs no asynchronous fetch — everything in memory, a
    /// fetch of nothing, a foreign subject — is delivered inline,
    /// under the busy bit the caller already holds (possibly
    /// cascading: its follow-ons are absorbed by this same loop).
    pub(super) fn absorb_requests(
        &self,
        iter: u32,
        scratch: &mut WorkerScratch<P::Msg>,
        io: &mut Source<'_>,
    ) {
        let deltas = self.shared.deltas.as_deref();
        let mut enqueued = 0;
        while !scratch.requests.is_empty() {
            // Callbacks run below queue follow-on requests: take the
            // pending ones out and leave the spare buffer in their
            // place, so neither side allocates per round.
            let mut reqs = std::mem::take(&mut scratch.absorbing);
            std::mem::swap(&mut reqs, &mut scratch.requests);
            for req in reqs.drain(..) {
                match io {
                    Source::Mem(g) => {
                        let pv = slice_vertex(g, &req, deltas);
                        self.run_on_vertex(iter, scratch, req.requester, &pv);
                    }
                    Source::Sem(sem) => {
                        let head = fetch_window(&req);
                        if head.count == 0 {
                            // A fetch of nothing: no I/O, empty spans,
                            // the overlay window — if any — still
                            // applied.
                            let empty = SpanWindow::EMPTY;
                            let attrs = req.attrs.then_some(empty);
                            self.deliver(iter, &head, empty, attrs, scratch);
                        } else if !sem.owns(req.subject) {
                            let (head, edges, attrs) = sem.read_foreign(head, req.attrs);
                            let attrs = attrs.as_ref().map(PageSpan::window);
                            self.deliver(iter, &head, edges.window(), attrs, scratch);
                        } else {
                            sem.enqueue(head, req.attrs);
                            enqueued += 1;
                        }
                    }
                }
            }
            scratch.absorbing = reqs;
        }
        if let Source::Sem(sem) = io {
            if enqueued > 0 {
                // Obligations from before the requests can be flushed
                // until the batches that deliver them are through.
                self.ready.accept(enqueued);
            }
            sem.flush_if_full();
        }
    }

    /// Where every semi-external delivery ends: an entry's, walked in
    /// the compute phase or a barrier phase, or an inline one (a fetch
    /// of nothing, a foreign read).
    fn deliver(
        &self,
        iter: u32,
        head: &Header,
        edges: SpanWindow<'_>,
        attrs: Option<SpanWindow<'_>>,
        scratch: &mut WorkerScratch<P::Msg>,
    ) {
        let pv = decode(head, edges, attrs, self.shared.deltas.as_deref());
        self.run_on_vertex(iter, scratch, head.requester, &pv);
    }

    fn run_on_vertex(
        &self,
        iter: u32,
        scratch: &mut WorkerScratch<P::Msg>,
        requester: VertexId,
        pv: &PageVertex<'_>,
    ) {
        self.counters.edges_delivered.add(pv.degree() as u64);
        self.with_ctx(iter, scratch, requester, |prog, state, ctx| {
            prog.run_on_vertex(requester, state, pv, ctx);
        });
    }

    /// Completes an accepted request — delivery `i` of `e`: the
    /// callback, and the absorption of the follow-on requests it queued
    /// (accepted in their turn, under this obligation's cover). The
    /// release is the caller's, once for its whole round. The caller
    /// owns the requester — its busy bit in the compute phase, its
    /// partition in the barrier phase.
    pub(super) fn complete(
        &self,
        iter: u32,
        e: &Entry,
        i: u32,
        scratch: &mut WorkerScratch<P::Msg>,
        io: &mut Source<'_>,
    ) {
        let (head, edges, attrs) = e.delivery(i);
        self.deliver(iter, head, edges, attrs, scratch);
        self.absorb_requests(iter, scratch, io);
    }
}

/// Where a worker's edge lists come from — built from the engine's
/// backend once per worker, and the one place below it where the
/// in-memory and semi-external modes part.
// One instance per worker thread, so the variant size gap is
// irrelevant.
#[allow(clippy::large_enum_variant)]
pub(super) enum Source<'s> {
    /// The CSR: every request is delivered inline, as slices.
    Mem(&'s Graph),
    Sem(SemIo<'s>),
}

impl Source<'_> {
    pub(super) fn outstanding(&self) -> usize {
        match self {
            Source::Mem(_) => 0,
            Source::Sem(s) => s.outstanding(),
        }
    }

    /// See [`SemIo::reclaim_run`]; always, in memory.
    pub(super) fn reclaim_run(&mut self) -> bool {
        match self {
            Source::Mem(_) => true,
            Source::Sem(s) => s.reclaim_run(),
        }
    }

    /// See [`SemIo::flush`].
    pub(super) fn flush(&mut self) {
        if let Source::Sem(s) = self {
            s.flush();
        }
    }
}

/// The in-memory delivery of `req`: the CSR slice the semi-external
/// path must match, or — for a subject with pinned delta ops — the
/// overlay on its full CSR list, borrowing both.
fn slice_vertex<'a>(
    g: &'a Graph,
    req: &EdgeRequest,
    deltas: Option<&'a DeltaView>,
) -> PageVertex<'a> {
    let csr = g.csr(req.dir);
    let weights = || {
        csr.weights_of(req.subject)
            .expect("attrs requested on an unweighted graph")
    };
    let overlay = req.ops.zip(deltas).map(|(ops, view)| view.at(ops));
    if let Some(ops) = overlay {
        // Overlaid subject: the range is in merged coordinates, so
        // wrap the full CSR list.
        let edges = csr.neighbors(req.subject);
        let attrs = req.attrs.then(weights);
        let base = PageVertex::from_slice(req.subject, req.dir, 0, edges, attrs);
        PageVertex::with_overlay(base, ops, req.start, req.len as usize)
    } else {
        // Ranges were clamped at request time.
        let lo = req.start as usize;
        let hi = lo + req.len as usize;
        let edges = &csr.neighbors(req.subject)[lo..hi];
        let attrs = req.attrs.then(|| &weights()[lo..hi]);
        PageVertex::from_slice(req.subject, req.dir, req.start, edges, attrs)
    }
}
