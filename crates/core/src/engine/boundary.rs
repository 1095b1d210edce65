//! The iteration boundary: run control, the run's counters and the
//! per-iteration rows cut from them, the flushes that move buffered
//! messages to the boards and the shard bus, and the barrier phase's
//! own deliveries (messages, iteration-end callbacks, and the
//! synchronous completion of any edge request those handlers make).
//!
//! Invariant owned here: counters are read exactly only at quiesced
//! points (worker 0 in phase D, or after the join) and per-iteration
//! rows are deltas between consecutive such points, so they sum to the
//! run totals whatever stealing moved where. Barrier-phase deliveries
//! are owner-only — a vertex's messages reach the worker that owns its
//! partition — so no busy bit is involved.

use fg_types::sync::{AtomicBool, AtomicU32, Counter, Mutex};
use std::time::Instant;

use fg_types::{CancelCause, VertexId};

use super::pool::Run;
use super::sem_io::Wait;
use super::worker::{Source, WorkerEnv};
use crate::context::WorkerScratch;
use crate::messages::{Batch, ShardPacket};
use crate::program::VertexProgram;
use crate::shard::ShardLink;
use crate::stats::IterStats;

/// Cross-worker run control, owned by worker 0 at barriers.
#[derive(Default)]
pub(super) struct Control {
    pub(super) iteration: AtomicU32,
    pub(super) stop: AtomicBool,
    /// Why the run stopped early, if it did. Written by worker 0 in
    /// phase D, read after the join.
    pub(super) cancelled: Mutex<Option<CancelCause>>,
}

/// Per-run statistics, all relaxed [`Counter`]s: exact reads happen
/// only at quiesced boundaries (worker-0 phase D) or after the join,
/// where the barrier/join provides the happens-before edge.
#[derive(Default)]
pub(super) struct Counters {
    pub(super) compute_ns: Counter,
    pub(super) wait_ns: Counter,
    pub(super) activations: Counter,
    pub(super) vertices: Counter,
    pub(super) engine_requests: Counter,
    pub(super) issued_requests: Counter,
    pub(super) bytes_requested: Counter,
    pub(super) edges_delivered: Counter,
    /// Serialized bytes of cross-shard packets this engine posted.
    pub(super) shard_msg_bytes: Counter,
}

/// How far a worker may send messages before flushing buffers to the
/// board (the paper's bundling threshold).
const MSG_FLUSH_FANOUT: u64 = 16 * 1024;

/// Worker 0's counter snapshot at an iteration boundary, for the
/// per-iteration deltas of [`IterStats`]. Snapshots are only taken at
/// quiesced points — after a barrier every worker has passed with its
/// I/O pipeline drained — and chain delta-to-delta, so per-iteration
/// stats sum exactly to the run totals even under work stealing.
pub(super) struct IterSnapshot {
    io: Option<fg_ssdsim::IoStatsSnapshot>,
    bytes_requested: u64,
    issued_requests: u64,
    edges_delivered: u64,
}

impl<P: VertexProgram> WorkerEnv<'_, '_, P> {
    /// Worker 0's snapshot of the request-pipeline counters, taken
    /// only at quiesced boundaries (before the first phase-A barrier
    /// and in phase D, where the phase-C barrier has drained every
    /// worker's pipeline). `None` on other workers.
    pub(super) fn boundary_snapshot(&self) -> Option<IterSnapshot> {
        if self.w != 0 {
            return None;
        }
        Some(IterSnapshot {
            io: self
                .engine
                .mount(self.me)
                .map(|m| m.array().stats().snapshot()),
            bytes_requested: self.counters.bytes_requested.get(),
            issued_requests: self.counters.issued_requests.get(),
            edges_delivered: self.counters.edges_delivered.get(),
        })
    }

    /// Records the finished iteration's stats as the delta since the
    /// previous boundary, then advances the boundary to now — so the
    /// per-iteration rows partition the run totals exactly.
    pub(super) fn record_iteration(
        &self,
        frontier: u64,
        iter_start: Instant,
        boundary: &mut Option<IterSnapshot>,
    ) {
        let now = self.boundary_snapshot().expect("only worker 0 records");
        let before = boundary.take().expect("worker 0 always snapshots");
        let (read_requests, bytes_read, io_busy_ns) = match (&now.io, &before.io) {
            (Some(now_io), Some(io_before)) => {
                let d = now_io.delta_since(io_before);
                (d.read_requests, d.bytes_read, d.max_busy_ns)
            }
            _ => (0, 0, 0),
        };
        self.per_iteration.lock().push(IterStats {
            frontier,
            wall_ns: iter_start.elapsed().as_nanos() as u64,
            read_requests,
            bytes_read,
            bytes_requested: now.bytes_requested.saturating_sub(before.bytes_requested),
            issued_requests: now.issued_requests.saturating_sub(before.issued_requests),
            edges_delivered: now.edges_delivered.saturating_sub(before.edges_delivered),
            io_busy_ns,
        });
        *boundary = Some(now);
    }

    pub(super) fn maybe_flush_messages(&self, scratch: &mut WorkerScratch<P::Msg>) {
        if scratch.buffered_fanout >= MSG_FLUSH_FANOUT {
            self.flush_boards(scratch);
        }
    }

    pub(super) fn flush_boards(&self, scratch: &mut WorkerScratch<P::Msg>) {
        for (dest, buf) in scratch.out_unicasts.iter_mut().enumerate() {
            if !buf.is_empty() {
                self.board.post(dest, Batch::Unicasts(std::mem::take(buf)));
            }
        }
        for (dest, buf) in scratch.out_multicasts.iter_mut().enumerate() {
            for batch in buf.drain(..) {
                self.board.post(dest, batch);
            }
        }
        if let Some(link) = self.link {
            let post = |dest: usize, pkt: ShardPacket<P::Msg>| {
                self.counters.shard_msg_bytes.add(link.bus.post(dest, pkt));
            };
            for (dest, buf) in scratch.shard_unicasts.iter_mut().enumerate() {
                if !buf.is_empty() {
                    let batch = Batch::Unicasts(std::mem::take(buf));
                    post(dest, ShardPacket::Messages(batch));
                }
            }
            for (dest, buf) in scratch.shard_multicasts.iter_mut().enumerate() {
                for batch in buf.drain(..) {
                    post(dest, ShardPacket::Messages(batch));
                }
            }
            for (dest, buf) in scratch.shard_activates.iter_mut().enumerate() {
                if !buf.is_empty() {
                    post(dest, ShardPacket::Activate(std::mem::take(buf)));
                }
            }
        }
        scratch.buffered_fanout = 0;
    }

    /// Worker 0's half of a cross-shard sync point: takes everything
    /// peers queued for this shard and converts it into the exact form
    /// a local worker would have produced — message batches split by
    /// destination partition into worker 0's outboxes and flushed onto
    /// the local board, activations OR'd into the next frontier. Both
    /// sync points follow a flush of worker 0's own outboxes, so the
    /// flush here posts only what the bus brought.
    pub(super) fn drain_shard_bus(
        &self,
        link: &ShardLink<'_, P::Msg>,
        scratch: &mut WorkerScratch<P::Msg>,
    ) {
        let pmap = &self.shared.pmap;
        for pkt in link.bus.drain(self.me) {
            match pkt {
                ShardPacket::Messages(Batch::Unicasts(entries)) => {
                    for (v, m) in entries {
                        scratch.buffer_unicast(pmap, v, m);
                    }
                }
                ShardPacket::Messages(Batch::Multicast(vs, m)) => {
                    scratch.buffer_multicast(pmap, &vs, m);
                }
                ShardPacket::Activate(vs) => {
                    for v in vs {
                        if !self.frontiers.next().set(v) {
                            self.counters.activations.inc();
                        }
                    }
                }
            }
        }
        self.flush_boards(scratch);
    }

    pub(super) fn deliver_messages(
        &self,
        iter: u32,
        scratch: &mut WorkerScratch<P::Msg>,
        io: &mut Source<'_>,
    ) {
        let batches = self.board.drain(self.w);
        for batch in batches {
            match batch {
                Batch::Unicasts(entries) => {
                    for (v, m) in entries {
                        self.apply_message(iter, scratch, io, v, &m);
                    }
                }
                Batch::Multicast(vs, m) => {
                    for v in vs {
                        self.apply_message(iter, scratch, io, v, &m);
                    }
                }
            }
        }
    }

    fn apply_message(
        &self,
        iter: u32,
        scratch: &mut WorkerScratch<P::Msg>,
        io: &mut Source<'_>,
        v: VertexId,
        m: &P::Msg,
    ) {
        debug_assert_eq!(self.shared.pmap.partition_of(v), self.w);
        self.with_ctx(iter, scratch, v, |prog, state, ctx| {
            prog.run_on_message(v, state, m, ctx);
        });
        // Message handlers may request edges; those complete within
        // the barrier phase, synchronously.
        if !scratch.requests.is_empty() {
            self.complete_phase_requests(iter, scratch, io);
        }
    }

    /// Runs `run_on_iteration_end` for this partition's registered
    /// vertices, in ascending id order. Only this worker sets their
    /// bits in phase C (its message handlers, which ran before this
    /// walk), so what the walk takes is complete. The bits are cleared
    /// before the first callback, so a registration made inside one
    /// stays for the next iteration's end.
    pub(super) fn apply_iteration_end(
        &self,
        iter: u32,
        scratch: &mut WorkerScratch<P::Msg>,
        io: &mut Source<'_>,
    ) {
        let registered = self.partition_ones(self.iteration_end);
        for &v in &registered {
            self.iteration_end.clear(v);
        }
        for v in registered {
            self.with_ctx(iter, scratch, v, |prog, state, ctx| {
                prog.run_on_iteration_end(v, state, ctx);
            });
            if !scratch.requests.is_empty() {
                self.complete_phase_requests(iter, scratch, io);
            }
        }
    }

    /// Synchronously completes the edge requests a barrier-phase
    /// handler (message / iteration-end) queued: blocks for at least
    /// one completion at a time and runs every delivery that landed.
    /// Owner-only — no busy bit, nothing through the pool.
    ///
    /// Called only after a handler that queued a request: with none
    /// queued there is nothing to absorb, nothing outstanding (phase C
    /// starts quiesced and each call drains what it started), and
    /// nothing to fold (the compute loop's exit flush folded the
    /// tallies), so a call would be a no-op at a per-message price.
    fn complete_phase_requests(
        &self,
        iter: u32,
        scratch: &mut WorkerScratch<P::Msg>,
        io: &mut Source<'_>,
    ) {
        self.absorb_requests(iter, scratch, io);
        io.flush();
        while let Source::Sem(sem) = io {
            if sem.outstanding() == 0 {
                break;
            }
            let landed = std::mem::take(sem.harvest(Wait::Block));
            let mut run = 0;
            for e in landed {
                for i in e.parts() {
                    self.complete(iter, &e, i, scratch, io);
                    run += 1;
                }
            }
            self.ready.release(run);
            // Callbacks may have queued more requests.
            io.flush();
            self.maybe_flush_messages(scratch);
        }
    }
}
