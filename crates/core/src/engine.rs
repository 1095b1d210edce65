//! The iteration driver: partitions, schedulers, the asynchronous
//! issue/poll loop, work stealing, and the completion-counted
//! pipeline (§3.3, §3.6–§3.8).
//!
//! Each iteration has a build step (collect and order the partition's
//! active vertices), a compute step, and a boundary
//! (message delivery, iteration-end callbacks, frontier flip, stats).
//! The compute step is *pipelined* — it runs without any
//! intra-iteration barrier: workers issue merged covers
//! into [`SemIo`] without waiting for replies, resolve completions
//! into per-worker ready deques, and execute `run_on_vertex`
//! deliveries the moment pages land — their own, or stolen from the
//! shared injector and other workers' deques when their device queue
//! is ahead of their CPU. Two counters define the iteration's end
//! instead of a barrier: every worker has exhausted claiming
//! (`claims_done == workers`) and every accepted edge request has
//! been delivered and its follow-on requests absorbed
//! (`obligations == 0`). Only then do workers synchronize for the
//! boundary phases. A per-vertex busy bitmap serializes callbacks:
//! any worker may run a vertex's delivery, but never two at once, so
//! `SharedStates`' exclusivity contract survives stealing.
//!
//! This is the only scheduler, and [`Engine`] the only engine: the
//! in-memory mode differs from the semi-external one only in where an
//! edge list comes from, and a semi-external run over one mount is the
//! one-shard case of a run over k (see [`crate::shard`]). The referees
//! are `Engine::new_mem` on the same graph and `fg_baselines::direct`.

use fg_types::sync::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Counter, Ordering};
use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fg_format::{GraphIndex, ListSlice, ShardedIndex, SliceDecode};
use fg_graph::{DeltaView, Graph};
use fg_safs::{CacheStats, Completion, IoSession, PageSpan, Safs, ShardSet};
use fg_types::{
    AtomicBitmap, Bitmap, CancelCause, CancelToken, EdgeDir, FgError, Result, VertexId,
};

use crate::config::{EngineConfig, SchedulerKind};
use crate::context::{
    DegreeSource, EdgeRequest, RunShared, ShardView, VertexContext, WorkerScratch,
};
use crate::merge::{
    merge_requests, subtract_inflight, InflightPages, MergedReq, PageRange, RangeReq,
};
use crate::messages::{Batch, MessageBoard, NotifyBoard, ShardPacket};
use crate::partition::PartitionMap;
use crate::program::VertexProgram;
use crate::shard::{join_all, worker_panicked, PoisonGuard, Rendezvous, ShardLink};
use crate::state::SharedStates;
use crate::stats::{IterStats, RunStats};
use crate::vertex::PageVertex;

/// Initial activation of a run.
#[derive(Debug, Clone)]
pub enum Init {
    /// Every vertex is active in iteration 0 (PageRank, WCC, ...).
    All,
    /// Only the given vertices are active (BFS, BC, SSSP sources).
    Seeds(Vec<VertexId>),
}

/// The engine never owns its backend exclusively: the in-memory arm
/// borrows the graph, and the semi-external arm borrows the SAFS
/// mounts and shares the (immutable) index behind an `Arc`. Sharing
/// the index is what lets many engines — and through them, the
/// concurrent queries of [`crate::GraphService`] — run against one
/// set of mounts without duplicating per-vertex location tables.
enum Backend<'g> {
    Mem(&'g Graph),
    /// One mount per shard of `index`, k ≥ 1. Shard `s` of a run owns
    /// the contiguous global id range `index.shard_range(s)`, reads
    /// its own shard image through `mounts[s]`, and — when k > 1 —
    /// reaches foreign shards only through the router (synchronous
    /// reads of foreign subjects) and the shard bus
    /// (messages/activations). A single mount is the k = 1 case: one
    /// shard that owns every vertex and has no peers.
    Sem {
        mounts: &'g [Safs],
        index: Arc<ShardedIndex>,
    },
}

/// The FlashGraph engine over one graph, in semi-external-memory
/// (one mount, or one per shard of a sharded image) or in-memory mode.
/// See the crate docs for an end-to-end example.
pub struct Engine<'g> {
    backend: Backend<'g>,
    cfg: EngineConfig,
    n: usize,
    /// Cooperative cancellation, polled at iteration boundaries
    /// (worker 0, phase D). `None` — the common case — costs nothing.
    /// Every shard of a k > 1 run polls the same token and votes its
    /// observation into the stop rendezvous.
    cancel: Option<CancelToken>,
    /// Pinned delta overlay (uncompacted ingest) merged into every
    /// delivery. `None` — the frozen-image case — is free.
    deltas: Option<Arc<DeltaView>>,
}

impl std::fmt::Debug for Engine<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("vertices", &self.n)
            .field(
                "mode",
                &match self.backend {
                    Backend::Mem(_) => "in-memory",
                    Backend::Sem { .. } => "semi-external",
                },
            )
            .field("shards", &self.num_shards())
            .finish_non_exhaustive()
    }
}

impl<'g> Engine<'g> {
    /// An in-memory engine (the paper's FG-mem baseline): edge lists
    /// come from the CSR, everything else — scheduler, partitioning,
    /// messages — is identical.
    pub fn new_mem(graph: &'g Graph, cfg: EngineConfig) -> Self {
        Engine {
            n: graph.num_vertices(),
            backend: Backend::Mem(graph),
            cfg,
            cancel: None,
            deltas: None,
        }
    }

    /// A semi-external-memory engine over a SAFS-mounted graph image
    /// and its loaded [`GraphIndex`].
    pub fn new_sem(safs: &'g Safs, index: GraphIndex, cfg: EngineConfig) -> Self {
        Self::new_sem_shared(safs, Arc::new(index), cfg)
    }

    /// Like [`Engine::new_sem`] but sharing an already-`Arc`ed index —
    /// the constructor [`crate::GraphService`] uses so every
    /// concurrent query reads one index instead of cloning it.
    pub fn new_sem_shared(safs: &'g Safs, index: Arc<GraphIndex>, cfg: EngineConfig) -> Self {
        let index = Arc::new(ShardedIndex::new(vec![index]));
        Self::over_mounts(std::slice::from_ref(safs), index, cfg)
    }

    /// A semi-external engine over a sharded image: one mount per
    /// shard of `index`. A run executes one shard per mount in
    /// lockstep, exchanging batched cross-shard messages; results are
    /// bit-identical to an engine over the unsharded image.
    ///
    /// # Panics
    ///
    /// Panics when the mount count differs from the shard count.
    pub fn new(set: &'g ShardSet, index: ShardedIndex, cfg: EngineConfig) -> Self {
        Self::new_shared(set, Arc::new(index), cfg)
    }

    /// Like [`Engine::new`] but sharing an already-`Arc`ed index.
    ///
    /// # Panics
    ///
    /// Panics when the mount count differs from the shard count.
    pub fn new_shared(set: &'g ShardSet, index: Arc<ShardedIndex>, cfg: EngineConfig) -> Self {
        Self::over_mounts(set.as_slice(), index, cfg)
    }

    /// The one semi-external constructor (`n` is the *global* vertex
    /// count: state, frontiers, and every id a program sees are global;
    /// only collection and I/O are windowed to a shard's owned range).
    pub(crate) fn over_mounts(
        mounts: &'g [Safs],
        index: Arc<ShardedIndex>,
        cfg: EngineConfig,
    ) -> Self {
        assert_eq!(
            mounts.len(),
            index.num_shards(),
            "one mount per shard of the index"
        );
        Engine {
            n: index.num_vertices(),
            backend: Backend::Sem { mounts, index },
            cfg,
            cancel: None,
            deltas: None,
        }
    }

    /// Number of vertices (global, over a sharded image).
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of shards a run executes: the mount count of a
    /// semi-external engine, 1 in memory.
    pub fn num_shards(&self) -> usize {
        match &self.backend {
            Backend::Mem(_) => 1,
            Backend::Sem { mounts, .. } => mounts.len(),
        }
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// A new engine over the same backend with a different
    /// configuration (engines are stateless between runs and the
    /// semi-external index is `Arc`-shared, so this is cheap; used by
    /// apps that need per-run iteration caps or schedulers).
    pub fn reconfigured(&self, cfg: EngineConfig) -> Engine<'g> {
        Engine {
            backend: match &self.backend {
                Backend::Mem(g) => Backend::Mem(g),
                Backend::Sem { mounts, index } => Backend::Sem {
                    mounts,
                    index: Arc::clone(index),
                },
            },
            cfg,
            n: self.n,
            cancel: self.cancel.clone(),
            deltas: self.deltas.clone(),
        }
    }

    /// Attaches a cancellation token: worker 0 polls it at every
    /// iteration boundary (phase D, where all workers are quiesced and
    /// every I/O pipeline is drained), so a fired token stops the run
    /// at the *next* boundary with all shared state — sessions, cache,
    /// busy bits — in a consistent between-iterations configuration.
    /// Over k > 1 shards cancellation travels through the stop
    /// rendezvous exactly like termination, so every shard stops on
    /// the same iteration and no shard blocks on a cancelled peer.
    /// The run then errors with [`FgError::Cancelled`] or
    /// [`FgError::DeadlineExpired`].
    #[must_use]
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Attaches a pinned delta view: every delivery merges the view's
    /// ops for the subject vertex with its on-SSD (or in-memory) list,
    /// and `ctx.degree` reports merged degrees. The view is immutable —
    /// concurrent ingest into the log it came from never changes this
    /// run's results (snapshot isolation; see [`fg_graph::DeltaLog`]).
    /// An empty view is dropped so the frozen-image fast paths stay.
    #[must_use]
    pub fn with_deltas(mut self, view: Arc<DeltaView>) -> Self {
        self.deltas = (!view.is_empty()).then_some(view);
        self
    }

    /// Executes `program` until no vertex is active and no message is
    /// pending, returning the final per-vertex states and statistics.
    ///
    /// # Errors
    ///
    /// Returns [`FgError::VertexOutOfRange`] for bad seeds and
    /// [`FgError::WorkerPanicked`] when a callback panics; I/O errors
    /// propagate from SAFS.
    pub fn run<P: VertexProgram>(
        &self,
        program: &P,
        init: Init,
    ) -> Result<(Vec<P::State>, RunStats)> {
        let mut states_vec = Vec::with_capacity(self.n);
        for i in 0..self.n {
            states_vec.push(program.init_state(VertexId::from_index(i)));
        }
        self.run_with_states(program, init, states_vec)
    }

    /// Like [`Engine::run`] but resumes from caller-provided states —
    /// how multi-phase algorithms (betweenness centrality's forward
    /// BFS + backward accumulation) carry results between phases.
    ///
    /// # Errors
    ///
    /// Returns [`FgError::VertexOutOfRange`] for bad seeds,
    /// [`FgError::InvalidRequest`] for a state vector of the wrong
    /// length, and [`FgError::WorkerPanicked`] when a callback panics.
    pub fn run_with_states<P: VertexProgram>(
        &self,
        program: &P,
        init: Init,
        states: Vec<P::State>,
    ) -> Result<(Vec<P::State>, RunStats)> {
        let (states, total, _) = self.run_detailed(program, init, states)?;
        Ok((states, total))
    }

    /// The full-detail run: global states, the aggregate [`RunStats`]
    /// roll-up, and each shard's own stats (whose summed counters
    /// equal the aggregate's — the invariant `RunStats::absorb`
    /// maintains; one row equal to the total over a single mount or
    /// in memory).
    ///
    /// # Errors
    ///
    /// See [`Engine::run_with_states`].
    pub fn run_detailed<P: VertexProgram>(
        &self,
        program: &P,
        init: Init,
        states: Vec<P::State>,
    ) -> Result<(Vec<P::State>, RunStats, Vec<RunStats>)> {
        let n = self.n;
        // Every validation must happen *before* any shard thread
        // starts: a shard that errored out before its first rendezvous
        // would leave its peers waiting forever.
        if states.len() != n {
            return Err(FgError::InvalidRequest(format!(
                "state vector has {} entries for {} vertices",
                states.len(),
                n
            )));
        }
        if let Init::Seeds(seeds) = &init {
            for s in seeds {
                if s.index() >= n {
                    return Err(FgError::VertexOutOfRange {
                        vertex: s.0 as u64,
                        num_vertices: n as u64,
                    });
                }
            }
        }
        let states = SharedStates::new(states);
        // Peers or no peers is decided by the shard count: a group of
        // one would still pay two rendezvous per iteration and a
        // thread, so one shard runs right here with no link.
        // A panic surfaces here for the same reason cancellation does
        // below: every worker of every shard has joined by now.
        let per_shard = match self.num_shards() {
            1 => self
                .run_shard(program, &init, &states, 0, None)
                .map(|s| vec![s]),
            _ => crate::shard::run_shards(self, program, &init, &states),
        }
        .map_err(worker_panicked)?;
        let mut total = per_shard[0].clone();
        for s in &per_shard[1..] {
            total.absorb(s);
        }
        // Cancellation surfaces here — *after* every shard thread has
        // joined and the group is retired — never inside a shard
        // thread, where an early `Err` would poison peers mid-round.
        // Partial states are consistent (the stop happened at an
        // iteration boundary) but incomplete; the contract is an error.
        if let Some(cause) = total.cancelled {
            return Err(cause.into());
        }
        Ok((states.into_inner(), total, per_shard))
    }

    /// Shard `me`'s mount; `None` in memory.
    fn mount(&self, me: usize) -> Option<&'g Safs> {
        match &self.backend {
            Backend::Mem(_) => None,
            Backend::Sem { mounts, .. } => Some(&mounts[me]),
        }
    }

    /// The run body of shard `me` (0 when there is only one), on
    /// pre-validated input. `states` is the *global* state vector: in
    /// a k > 1 run every shard runs against the same `SharedStates`
    /// (each only ever touches states of vertices it owns, so the
    /// exclusivity discipline extends across shards). `link` carries
    /// the shard bus and barrier group, present exactly when the run
    /// has peers. `Err` is the panic of a worker that died, returned
    /// once every worker has joined.
    pub(crate) fn run_shard<P: VertexProgram>(
        &self,
        program: &P,
        init: &Init,
        states: &SharedStates<P::State>,
        me: usize,
        link: Option<&ShardLink<'_, P::Msg>>,
    ) -> std::thread::Result<RunStats> {
        let n = self.n;
        debug_assert_eq!(
            self.num_shards() > 1,
            link.is_some(),
            "runs with peers carry a link, others do not"
        );
        let start = Instant::now();
        // The id window this shard collects and computes: its owned
        // contiguous range — the whole graph when it is the only one.
        // Everything indexed by vertex id (states, frontiers, busy
        // bits) stays global-length either way.
        let (lo, hi) = match &self.backend {
            Backend::Sem { index, .. } => {
                let r = index.shard_range(me);
                (r.start as usize, r.end as usize)
            }
            Backend::Mem(_) => (0, n),
        };

        let frontiers = Frontiers::new(n);
        match init {
            Init::All => {
                for i in lo..hi {
                    frontiers.cur().set(VertexId::from_index(i));
                }
            }
            Init::Seeds(seeds) => {
                // Every shard receives the same seed list; each seeds
                // only what it owns.
                for &s in seeds {
                    if (lo..hi).contains(&s.index()) {
                        frontiers.cur().set(s);
                    }
                }
            }
        }

        let nthreads = self.cfg.threads().max(1);
        let r = self.cfg.resolve_range_shift(hi - lo);
        let pmap = PartitionMap::new_window(lo, hi, nthreads, r);
        let vparts = self.cfg.vertical_parts.max(1);
        let shared = RunShared {
            n,
            vparts,
            degrees: match &self.backend {
                Backend::Mem(g) => DegreeSource::Graph(g),
                Backend::Sem { index, .. } => DegreeSource::Sharded(Arc::clone(index)),
            },
            pmap: pmap.clone(),
            max_request_edges: self.cfg.max_request_edges,
            deltas: self.deltas.clone(),
            shard: match (&self.backend, link) {
                (Backend::Sem { index, .. }, Some(_)) => Some(ShardView {
                    lo: lo as u32,
                    hi: hi as u32,
                    index: Arc::clone(index),
                }),
                _ => None,
            },
        };
        let board: MessageBoard<P::Msg> = MessageBoard::new(nthreads);
        let notify = NotifyBoard::new(nthreads);
        let active = ActiveSet::new(nthreads, vparts as usize);
        let barrier = Rendezvous::new(nthreads);
        let control = Control::default();
        let counters = Counters::default();
        let ready_pool = ReadyPool::new(nthreads);
        // Per-vertex callback locks: a claim or delivery holds the
        // vertex's bit for the duration of its callback (and any
        // inline cascade), so two workers never run the same vertex
        // concurrently even when stealing moves deliveries across
        // threads.
        let busy = AtomicBitmap::new(n);
        let mount = self.mount(me);
        // Per-run cache scope: with many queries sharing one mount, a
        // before/after delta of the global counters would book every
        // tenant's traffic to this run. The scope records only the
        // lookups this run's own sessions performed.
        let cache_scope = mount.map(|_| Arc::new(CacheStats::default()));
        // A shard's device/cache deltas cover its *own* mount only.
        // That is exact for algorithms that request their own lists
        // (everything but TC-style foreign reads, which land on the
        // subject owner's array); summed across shards the deltas are
        // exact regardless, since each array has one owner.
        let before = mount.map(|m| (m.array().stats().snapshot(), m.cache_stats()));
        let per_iteration: parking_lot::Mutex<Vec<IterStats>> = parking_lot::Mutex::new(Vec::new());

        if n > 0 {
            std::thread::scope(|scope| {
                let spawn = |w| {
                    let worker = WorkerEnv {
                        w,
                        me,
                        engine: self,
                        program,
                        states,
                        shared: &shared,
                        frontiers: &frontiers,
                        board: &board,
                        notify: &notify,
                        active: &active,
                        barrier: &barrier,
                        control: &control,
                        counters: &counters,
                        ready: &ready_pool,
                        busy: &busy,
                        cache_scope: &cache_scope,
                        per_iteration: &per_iteration,
                        link,
                    };
                    scope.spawn(move || worker.run_loop())
                };
                join_all((0..nthreads).map(spawn).collect())
            })?;
        }

        let elapsed = start.elapsed();
        let (io, cache_mount) = mount
            .zip(before)
            .map(|(m, (io_before, cache_before))| {
                (
                    m.array().stats().snapshot().delta_since(&io_before),
                    m.cache_stats().delta_since(&cache_before),
                )
            })
            .unzip();
        Ok(RunStats {
            // ordering: read after every worker thread has joined.
            iterations: control.iteration.load(Ordering::Relaxed),
            elapsed,
            compute_ns: counters.compute_ns.get(),
            wait_ns: counters.wait_ns.get(),
            activations: counters.activations.get(),
            messages_sent: board.total_sent(),
            vertices_processed: counters.vertices.get(),
            engine_requests: counters.engine_requests.get(),
            issued_requests: counters.issued_requests.get(),
            bytes_requested: counters.bytes_requested.get(),
            edges_delivered: counters.edges_delivered.get(),
            queue_wait_ns: 0,
            shard_msg_bytes: counters.shard_msg_bytes.get(),
            io,
            cache: cache_scope.as_ref().map(|s| s.snapshot()),
            cache_mount,
            // ordering: read after every worker thread has joined.
            cancelled: match control.cancel_kind.load(Ordering::Relaxed) {
                1 => Some(CancelCause::Cancelled),
                2 => Some(CancelCause::DeadlineExpired),
                _ => None,
            },
            per_iteration: per_iteration.into_inner(),
        })
    }
}

/// The engine surface applications program against — implemented by
/// [`Engine`], so every algorithm in `fg_apps` runs in memory, over
/// one mount and over a sharded image unchanged, with bit-identical
/// results.
pub trait GraphEngine {
    /// Number of vertices (global, over a sharded image).
    fn num_vertices(&self) -> usize;

    /// The configuration runs execute under.
    fn config(&self) -> &EngineConfig;

    /// The same backend under a different configuration (cheap; see
    /// [`Engine::reconfigured`]).
    #[must_use]
    fn reconfigured(&self, cfg: EngineConfig) -> Self
    where
        Self: Sized;

    /// Executes `program` to convergence. See [`Engine::run`].
    ///
    /// # Errors
    ///
    /// Returns [`FgError::VertexOutOfRange`] for bad seeds; I/O errors
    /// propagate from SAFS.
    fn run<P: VertexProgram>(&self, program: &P, init: Init) -> Result<(Vec<P::State>, RunStats)>;

    /// Executes `program` resuming from caller-provided states. See
    /// [`Engine::run_with_states`].
    ///
    /// # Errors
    ///
    /// As [`GraphEngine::run`], plus [`FgError::InvalidRequest`] for a
    /// state vector of the wrong length.
    fn run_with_states<P: VertexProgram>(
        &self,
        program: &P,
        init: Init,
        states: Vec<P::State>,
    ) -> Result<(Vec<P::State>, RunStats)>;
}

impl GraphEngine for Engine<'_> {
    fn num_vertices(&self) -> usize {
        Engine::num_vertices(self)
    }

    fn config(&self) -> &EngineConfig {
        Engine::config(self)
    }

    fn reconfigured(&self, cfg: EngineConfig) -> Self {
        Engine::reconfigured(self, cfg)
    }

    fn run<P: VertexProgram>(&self, program: &P, init: Init) -> Result<(Vec<P::State>, RunStats)> {
        Engine::run(self, program, init)
    }

    fn run_with_states<P: VertexProgram>(
        &self,
        program: &P,
        init: Init,
        states: Vec<P::State>,
    ) -> Result<(Vec<P::State>, RunStats)> {
        Engine::run_with_states(self, program, init, states)
    }
}

/// Double-buffered frontier bitmaps, flipped at each barrier.
struct Frontiers {
    maps: [AtomicBitmap; 2],
    flip: AtomicUsize,
}

impl Frontiers {
    fn new(n: usize) -> Self {
        Frontiers {
            maps: [AtomicBitmap::new(n), AtomicBitmap::new(n)],
            flip: AtomicUsize::new(0),
        }
    }

    fn cur(&self) -> &AtomicBitmap {
        &self.maps[self.flip.load(Ordering::Acquire) & 1]
    }

    fn next(&self) -> &AtomicBitmap {
        &self.maps[(self.flip.load(Ordering::Acquire) + 1) & 1]
    }

    /// Makes `next` current and clears the old frontier. Called by
    /// one thread between barriers.
    fn swap(&self) {
        let old = self.flip.fetch_add(1, Ordering::AcqRel) & 1;
        self.maps[old].clear_all();
    }
}

/// Per-partition active lists plus per-pass steal cursors.
///
/// Lists are written by their owner during the build phase and read
/// by every worker during the compute phase; the two phases are
/// separated by a barrier (same discipline as `SharedStates`).
struct ActiveSet {
    lists: Vec<UnsafeCell<Vec<VertexId>>>,
    cursors: Vec<Vec<AtomicUsize>>,
}

// SAFETY: see the struct docs — phase discipline plus barriers.
unsafe impl Sync for ActiveSet {}

impl ActiveSet {
    fn new(parts: usize, vparts: usize) -> Self {
        ActiveSet {
            lists: (0..parts).map(|_| UnsafeCell::new(Vec::new())).collect(),
            cursors: (0..parts)
                .map(|_| (0..vparts).map(|_| AtomicUsize::new(0)).collect())
                .collect(),
        }
    }

    /// Owner installs its list and rewinds its cursors (build phase).
    fn install(&self, part: usize, list: Vec<VertexId>) {
        // SAFETY: only the owner writes, before the phase barrier.
        unsafe {
            *self.lists[part].get() = list;
        }
        for c in &self.cursors[part] {
            // ordering: the phase barrier publishes the reset.
            c.store(0, Ordering::Relaxed);
        }
    }

    /// Claims the next vertex of `part` in pass `vp`, if any.
    fn claim(&self, part: usize, vp: usize) -> Option<VertexId> {
        // SAFETY: compute phase — lists are read-only.
        let list = unsafe { &*self.lists[part].get() };
        // ordering: racy fast-path check; the RMW below is authoritative.
        if self.cursors[part][vp].load(Ordering::Relaxed) >= list.len() {
            return None;
        }
        // ordering: a claim needs only RMW atomicity — the list being
        // claimed from was published by the phase barrier, not by the
        // cursor.
        let c = self.cursors[part][vp].fetch_add(1, Ordering::Relaxed);
        list.get(c).copied()
    }
}

/// The pipelined scheduler's cross-worker delivery pool and its
/// completion counters.
///
/// Resolved [`ReadyVertex`] deliveries land in the resolving worker's
/// deque, where the owner pops them LIFO (the spans are cache-warm)
/// and other workers steal them FIFO when their own device queue is
/// ahead of their CPU. The shared injector takes hand-offs: a stolen
/// delivery whose requester is busy on another worker goes there
/// instead of blocking the thief.
///
/// Two counters replace the compute-phase barrier. `obligations`
/// counts edge requests accepted into the I/O layer whose delivery —
/// including absorbing the follow-on requests the callback queues —
/// has not finished; it is incremented *before* a request is
/// enqueued and decremented *after* its delivery returns, so it can
/// only read zero when no work is hidden in flight. `claims_done`
/// counts workers that have exhausted claiming for the current
/// iteration (cursor exhaustion is permanent within an iteration, so
/// the count is monotonic). The iteration's compute is over exactly
/// when `claims_done == workers && obligations == 0`.
struct ReadyPool {
    injector: parking_lot::Mutex<VecDeque<ReadyVertex>>,
    deques: Vec<parking_lot::Mutex<VecDeque<ReadyVertex>>>,
    obligations: AtomicU64,
    claims_done: AtomicUsize,
}

impl ReadyPool {
    fn new(workers: usize) -> Self {
        ReadyPool {
            injector: parking_lot::Mutex::new(VecDeque::new()),
            deques: (0..workers)
                .map(|_| parking_lot::Mutex::new(VecDeque::new()))
                .collect(),
            obligations: AtomicU64::new(0),
            claims_done: AtomicUsize::new(0),
        }
    }

    /// Moves freshly resolved deliveries into worker `w`'s deque.
    fn push_local(&self, w: usize, items: &mut Vec<ReadyVertex>) {
        self.deques[w].lock().extend(items.drain(..));
    }

    /// Hands a delivery whose requester is busy elsewhere to the
    /// injector, where any worker (including the busy one) picks it
    /// up once the conflict clears.
    fn push_injector(&self, r: ReadyVertex) {
        self.injector.lock().push_back(r);
    }

    /// Next delivery for worker `w`: own deque (LIFO), then the
    /// injector, then stealing from the other workers (FIFO).
    fn pop(&self, w: usize) -> Option<ReadyVertex> {
        if let Some(r) = self.deques[w].lock().pop_back() {
            return Some(r);
        }
        if let Some(r) = self.injector.lock().pop_front() {
            return Some(r);
        }
        let n = self.deques.len();
        for k in 1..n {
            if let Some(r) = self.deques[(w + k) % n].lock().pop_front() {
                return Some(r);
            }
        }
        None
    }

    /// Worker 0 rewinds the claim count between iterations (phase D,
    /// where every other worker is parked at the barrier).
    fn begin_iteration(&self) {
        // ordering: Relaxed — worker 0 runs this in phase D while
        // every other worker is parked at the barrier, which is the
        // happens-before edge; there is no concurrent accessor.
        debug_assert_eq!(self.obligations.load(Ordering::Relaxed), 0);
        debug_assert!(self.injector.lock().is_empty());
        // ordering: Relaxed — same phase-D argument; the barrier
        // publishes the reset to the next iteration's claimants.
        self.claims_done.store(0, Ordering::Relaxed);
    }
}

/// Cross-worker run control, owned by worker 0 at barriers.
#[derive(Default)]
struct Control {
    iteration: AtomicU32,
    stop: AtomicBool,
    /// Why the run stopped early: 0 = it didn't, 1 = cancelled,
    /// 2 = deadline expired. Written by worker 0 in phase D, read
    /// after the join.
    cancel_kind: AtomicU32,
}

/// Per-run statistics, all relaxed [`Counter`]s: exact reads happen
/// only at quiesced boundaries (worker-0 phase D) or after the join,
/// where the barrier/join provides the happens-before edge.
#[derive(Default)]
struct Counters {
    compute_ns: Counter,
    wait_ns: Counter,
    activations: Counter,
    vertices: Counter,
    engine_requests: Counter,
    issued_requests: Counter,
    bytes_requested: Counter,
    edges_delivered: Counter,
    /// Serialized bytes of cross-shard packets this engine posted.
    shard_msg_bytes: Counter,
}

/// Everything one worker thread needs, borrowed from the run.
struct WorkerEnv<'r, 'g, P: VertexProgram> {
    w: usize,
    /// The shard this run executes (0 when there is only one).
    me: usize,
    engine: &'r Engine<'g>,
    program: &'r P,
    states: &'r SharedStates<P::State>,
    shared: &'r RunShared<'r>,
    frontiers: &'r Frontiers,
    board: &'r MessageBoard<P::Msg>,
    notify: &'r NotifyBoard,
    active: &'r ActiveSet,
    barrier: &'r Rendezvous,
    control: &'r Control,
    counters: &'r Counters,
    ready: &'r ReadyPool,
    busy: &'r AtomicBitmap,
    cache_scope: &'r Option<Arc<CacheStats>>,
    per_iteration: &'r parking_lot::Mutex<Vec<IterStats>>,
    /// The shard bus + cross-shard barrier group, in runs with peers.
    link: Option<&'r ShardLink<'r, P::Msg>>,
}

/// How far a worker may send messages before flushing buffers to the
/// board (the paper's bundling threshold).
const MSG_FLUSH_FANOUT: u64 = 16 * 1024;

/// Worker 0's counter snapshot at an iteration boundary, for the
/// per-iteration deltas of [`IterStats`]. Snapshots are only taken at
/// quiesced points — after a barrier every worker has passed with its
/// I/O pipeline drained — and chain delta-to-delta, so per-iteration
/// stats sum exactly to the run totals even under work stealing.
struct IterSnapshot {
    io: Option<fg_ssdsim::IoStatsSnapshot>,
    bytes_requested: u64,
    issued_requests: u64,
    edges_delivered: u64,
}

impl<P: VertexProgram> WorkerEnv<'_, '_, P> {
    fn run_loop(&self) {
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

    /// Worker 0's snapshot of the request-pipeline counters, taken
    /// only at quiesced boundaries (before the first phase-A barrier
    /// and in phase D, where the phase-C barrier has drained every
    /// worker's pipeline). `None` on other workers.
    fn boundary_snapshot(&self) -> Option<IterSnapshot> {
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
    fn record_iteration(
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

    /// Collects the active vertices of this partition in id order.
    fn collect_active(&self) -> Vec<VertexId> {
        let cur = self.frontiers.cur();
        let mut list = Vec::new();
        for range in self.shared.pmap.ranges_of(self.w) {
            list.extend(cur.iter_ones_in_range(range));
        }
        list
    }

    /// Orders an active list by the configured scheduler (§3.7).
    fn apply_scheduler(&self, iter: u32, list: &mut [VertexId]) {
        match self.engine.cfg.scheduler {
            SchedulerKind::ById => {}
            SchedulerKind::Alternating => {
                if iter % 2 == 1 {
                    list.reverse();
                }
            }
            SchedulerKind::Random(seed) => {
                let mut s = seed ^ (iter as u64).wrapping_mul(0x9E3779B97F4A7C15);
                let mut next = move || {
                    s ^= s << 13;
                    s ^= s >> 7;
                    s ^= s << 17;
                    s
                };
                // Fisher–Yates with the xorshift stream.
                for i in (1..list.len()).rev() {
                    let j = (next() % (i as u64 + 1)) as usize;
                    list.swap(i, j);
                }
            }
            SchedulerKind::DegreeDescending(dir) => {
                list.sort_by_key(|&v| std::cmp::Reverse(self.shared.degrees.degree(v, dir)));
            }
        }
    }

    fn claim(&self, vp: usize, nparts: usize) -> Option<VertexId> {
        if let Some(v) = self.active.claim(self.w, vp) {
            return Some(v);
        }
        if !self.engine.cfg.work_stealing {
            return None;
        }
        for k in 1..nparts {
            let p = (self.w + k) % nparts;
            if let Some(v) = self.active.claim(p, vp) {
                return Some(v);
            }
        }
        None
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
    fn quiesced(&self) -> bool {
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
    fn with_ctx<F>(
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
    fn absorb_requests(
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
    fn drain_completions(
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

    fn maybe_flush_messages(&self, scratch: &mut WorkerScratch<P::Msg>) {
        if scratch.buffered_fanout >= MSG_FLUSH_FANOUT {
            self.flush_boards(scratch);
        }
    }

    fn flush_boards(&self, scratch: &mut WorkerScratch<P::Msg>) {
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
        for (dest, buf) in scratch.notifies.iter_mut().enumerate() {
            if !buf.is_empty() {
                self.notify.post(dest, std::mem::take(buf));
            }
        }
        if let Some(link) = self.link {
            let post = |dest: usize, pkt: ShardPacket<P::Msg>| {
                self.counters.shard_msg_bytes.add(pkt.wire_bytes());
                link.bus.post(dest, pkt);
            };
            for (dest, buf) in scratch.shard_unicasts.iter_mut().enumerate() {
                if !buf.is_empty() {
                    post(dest, ShardPacket::Unicasts(std::mem::take(buf)));
                }
            }
            for (dest, buf) in scratch.shard_multicasts.iter_mut().enumerate() {
                for env in buf.drain(..) {
                    match env {
                        Batch::Unicasts(entries) => post(dest, ShardPacket::Unicasts(entries)),
                        Batch::Multicast(vs, m) => post(dest, ShardPacket::Multicast(vs, m)),
                    }
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
    /// destination partition onto the local board, activations OR'd
    /// into the next frontier.
    fn drain_shard_bus(&self, link: &ShardLink<'_, P::Msg>) {
        let parts = self.shared.pmap.num_partitions();
        for pkt in link.bus.drain(self.me) {
            match pkt {
                ShardPacket::Unicasts(entries) => {
                    let mut split: Vec<Vec<(VertexId, P::Msg)>> = vec![Vec::new(); parts];
                    for (v, m) in entries {
                        split[self.shared.pmap.partition_of(v)].push((v, m));
                    }
                    for (dest, buf) in split.into_iter().enumerate() {
                        if !buf.is_empty() {
                            self.board.post(dest, Batch::Unicasts(buf));
                        }
                    }
                }
                ShardPacket::Multicast(vs, m) => {
                    let mut split: Vec<Vec<VertexId>> = vec![Vec::new(); parts];
                    for v in vs {
                        split[self.shared.pmap.partition_of(v)].push(v);
                    }
                    let mut dests: Vec<usize> =
                        (0..parts).filter(|&p| !split[p].is_empty()).collect();
                    // The payload moves into the last destination; the
                    // rest clone, same as a local multicast split.
                    let last = dests.pop();
                    for dest in dests {
                        self.board.post(
                            dest,
                            Batch::Multicast(std::mem::take(&mut split[dest]), m.clone()),
                        );
                    }
                    if let Some(dest) = last {
                        self.board
                            .post(dest, Batch::Multicast(std::mem::take(&mut split[dest]), m));
                    }
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
    }

    fn deliver_messages(
        &self,
        iter: u32,
        scratch: &mut WorkerScratch<P::Msg>,
        io: &mut IoDriver<'_>,
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
        io: &mut IoDriver<'_>,
        v: VertexId,
        m: &P::Msg,
    ) {
        debug_assert_eq!(self.shared.pmap.partition_of(v), self.w);
        self.with_ctx(iter, 0, scratch, v, |prog, state, ctx| {
            prog.run_on_message(v, state, m, ctx);
        });
        // Message handlers may request edges; those complete within
        // the barrier phase, synchronously.
        self.complete_phase_requests(iter, scratch, io);
    }

    fn apply_iteration_end(
        &self,
        iter: u32,
        scratch: &mut WorkerScratch<P::Msg>,
        io: &mut IoDriver<'_>,
        seen: &mut Bitmap,
    ) {
        // Registrations made by our own vertices during this barrier
        // phase (from message handlers) are still local: flush first.
        self.flush_boards(scratch);
        let vids = self.notify.drain(self.w);
        let mut dedup = Vec::with_capacity(vids.len());
        for v in vids {
            if !seen.set(v) {
                dedup.push(v);
            }
        }
        for v in &dedup {
            seen.clear(*v);
        }
        for v in dedup {
            self.with_ctx(iter, 0, scratch, v, |prog, state, ctx| {
                prog.run_on_iteration_end(v, state, ctx);
            });
            self.complete_phase_requests(iter, scratch, io);
        }
    }

    /// Synchronously completes any edge requests queued during the
    /// barrier phase (message / iteration-end handlers).
    fn complete_phase_requests(
        &self,
        iter: u32,
        scratch: &mut WorkerScratch<P::Msg>,
        io: &mut IoDriver<'_>,
    ) {
        self.absorb_requests(iter, 0, scratch, io);
        io.flush(self);
        while io.outstanding() > 0 {
            self.drain_completions(iter, scratch, io);
            io.flush(self);
        }
    }
}

/// Per-worker I/O machinery: the semi-external driver or the
/// in-memory no-op.
// One instance per worker thread; the Mem arm is a unit and the Sem
// arm carries the session state, so the variant size gap is irrelevant.
#[allow(clippy::large_enum_variant)]
enum IoDriver<'s> {
    Mem,
    Sem(SemIo<'s>),
}

impl IoDriver<'_> {
    fn outstanding(&self) -> usize {
        match self {
            IoDriver::Mem => 0,
            IoDriver::Sem(s) => s.outstanding,
        }
    }

    /// Requests actually submitted to the device and not yet
    /// harvested — excludes logical requests still buffered in the
    /// issue queue awaiting a batch-size trigger.
    fn in_flight(&self) -> usize {
        match self {
            IoDriver::Mem => 0,
            IoDriver::Sem(s) => s.outstanding - s.buffered,
        }
    }

    /// Flushes the issue queue once it has reached the issue-batch
    /// size.
    fn flush_if_full<P: VertexProgram>(&mut self, env: &WorkerEnv<'_, '_, P>) {
        if let IoDriver::Sem(s) = self {
            if s.issue_q.len() >= env.engine.cfg.issue_batch {
                self.flush(env);
            }
        }
    }

    /// Flushes the issue queue however little is buffered — the
    /// end-of-claims flush, the stall-point flush, and the synchronous
    /// barrier-phase drain.
    fn flush<P: VertexProgram>(&mut self, env: &WorkerEnv<'_, '_, P>) {
        if let IoDriver::Sem(s) = self {
            s.flush(
                env.engine.safs_page_bytes(),
                env.engine.cfg.merge_in_engine,
                env.engine.cfg.resolved_max_merge_bytes(),
                env.counters,
            );
        }
    }
}

impl Engine<'_> {
    /// Page size shared by every mount.
    fn safs_page_bytes(&self) -> u64 {
        self.mount(0).map_or(4096, Safs::page_bytes)
    }
}

/// What one constituent range of a merged request is for.
#[derive(Debug, Clone, Copy)]
enum PartKind {
    /// An edge list; `pair` set when attributes ride along.
    Edges { pair: Option<usize> },
    /// An attribute run, joining pair slot `pair`.
    Attrs { pair: usize },
}

#[derive(Debug, Clone, Copy)]
struct PartMeta {
    requester: VertexId,
    subject: VertexId,
    /// Vertical pass the request was issued from. Deliveries carry it
    /// so a stealing worker runs the callback under the same pass
    /// context the requester would have used.
    vpart: u32,
    dir: EdgeDir,
    /// First edge position of the slice within the subject's list.
    start: u64,
    /// Edges this part delivers (explicit: compressed blocks make
    /// byte length non-proportional to edge count).
    count: u64,
    /// How the fetched bytes decode (raw `u32`s or a varint block of
    /// the compressed image format).
    decode: SliceDecode,
    kind: PartKind,
    /// Present when the subject carries pinned delta ops: the
    /// `(start, len)` window in *merged* coordinates the delivery
    /// must tile (the fetch itself covers the full base list).
    overlay: Option<(u64, u64)>,
}

struct MergedMeta {
    offset: u64,
    parts: Vec<(u64, u64, PartMeta)>,
    /// The page range the cover is recorded under in the session's
    /// in-flight set until it resolves; `None` for attach-only covers
    /// (their pages are subsets of ranges already recorded).
    recorded: Option<PageRange>,
}

/// A (edges, attrs) join slot for weighted requests.
struct AttrPair {
    requester: VertexId,
    subject: VertexId,
    vpart: u32,
    dir: EdgeDir,
    start: u64,
    edges: Option<PageSpan>,
    attrs: Option<PageSpan>,
    /// See [`PartMeta::overlay`].
    overlay: Option<(u64, u64)>,
}

/// A ready-to-deliver edge-list slice. Owns its page spans, so it can
/// cross worker threads: the pipelined scheduler moves these through
/// per-worker deques and a shared injector, and whichever worker pops
/// one runs the delivery.
struct ReadyVertex {
    requester: VertexId,
    subject: VertexId,
    /// Vertical pass of the originating request (see [`PartMeta`]).
    vpart: u32,
    dir: EdgeDir,
    start: u64,
    /// Edges delivered (drives `PageVertex::degree` for packed spans).
    count: u64,
    decode: SliceDecode,
    edges: PageSpan,
    attrs: Option<PageSpan>,
    /// See [`PartMeta::overlay`] — when set, decoding wraps the base
    /// list in [`PageVertex::with_overlay`] against the run's pinned
    /// [`DeltaView`].
    overlay: Option<(u64, u64)>,
}

impl ReadyVertex {
    /// The delivery of a fetch of nothing (see [`fetch_window`]): no
    /// I/O, empty spans, the overlay window — if any — still applied.
    fn empty(req: &EdgeRequest, vp: u32, start: u64, overlay: Option<(u64, u64)>) -> Self {
        ReadyVertex {
            requester: req.requester,
            subject: req.subject,
            vpart: vp,
            dir: req.dir,
            start,
            count: 0,
            decode: SliceDecode::Raw,
            edges: PageSpan::empty(),
            attrs: req.attrs.then(PageSpan::empty),
            overlay,
        }
    }
}

/// What one chunk request fetches from the subject's on-SSD list, as
/// `(start, len, overlay)` in base-list edge positions: the requested
/// slice as is, or — when the subject carries pinned delta ops — the
/// *full* base list, with the request's window (already expressed in
/// *merged* coordinates by the context's clamp) riding aside in
/// `overlay`. The delivery-time merge needs every on-SSD edge to map
/// merged positions; chunked hubs re-fetch the same pages, which the
/// page cache and in-flight dedup table absorb. A `len` of zero — an
/// empty slice, or an overlaid subject with nothing on SSD, whose
/// merged list is pure adds — completes without I/O. `base_degree` is
/// consulted for overlaid subjects only.
fn fetch_window(
    req: &EdgeRequest,
    deltas: Option<&DeltaView>,
    base_degree: impl FnOnce() -> u64,
) -> (u64, u64, Option<(u64, u64)>) {
    let overlaid = req.len > 0 && deltas.is_some_and(|d| d.list(req.subject, req.dir).is_some());
    if overlaid {
        (0, base_degree(), Some((req.start, req.len)))
    } else {
        (req.start, req.len, None)
    }
}

/// The semi-external per-worker I/O state: the issue queue, the
/// merged-request slab, attribute pairing, and the SAFS session.
///
/// The queue flushes at the issue-batch size (or at a stall point, see
/// [`IoDriver::flush`]), merges only page-adjacent requests, and
/// submits through the page cache — the paper's one request path:
/// selective access plus conservative merging, which is also what
/// makes a dense iteration's reads sequential.
struct SemIo<'s> {
    session: IoSession<'s>,
    issue_q: Vec<RangeReq>,
    issue_meta: Vec<PartMeta>,
    slab: Vec<Option<MergedMeta>>,
    slab_free: Vec<usize>,
    pairs: Vec<Option<AttrPair>>,
    pairs_free: Vec<usize>,
    ready: Vec<ReadyVertex>,
    /// Page ranges of covers submitted and not yet resolved (each
    /// cover's slab entry remembers its own). Later flush batches
    /// subtract these before building covers: a request fully inside
    /// them is submitted alone and attaches to the in-flight read via
    /// the mount table instead of joining a new device cover.
    inflight: InflightPages,
    outstanding: usize,
    /// How many of `outstanding` are still buffered in the issue
    /// queue rather than submitted. Counted in logical requests, not
    /// queue entries (a weighted request pushes two parts), so
    /// `outstanding - buffered` is the number of requests actually at
    /// the device.
    buffered: usize,
    /// First global vertex id of the index this session speaks — a
    /// shard's per-mount index is keyed by local ids, so subjects are
    /// rebased before locate calls. 0 for a whole-graph image.
    base: u32,
}

impl<'s> SemIo<'s> {
    fn with_base(session: IoSession<'s>, base: u32) -> Self {
        SemIo {
            session,
            base,
            issue_q: Vec::new(),
            issue_meta: Vec::new(),
            slab: Vec::new(),
            slab_free: Vec::new(),
            pairs: Vec::new(),
            pairs_free: Vec::new(),
            ready: Vec::new(),
            inflight: InflightPages::default(),
            outstanding: 0,
            buffered: 0,
        }
    }

    fn alloc_pair(&mut self, pair: AttrPair) -> usize {
        if let Some(i) = self.pairs_free.pop() {
            self.pairs[i] = Some(pair);
            i
        } else {
            self.pairs.push(Some(pair));
            self.pairs.len() - 1
        }
    }

    /// Resolves one chunk request into issue-queue ranges (or a ready
    /// completion for empty fetches — see [`fetch_window`]).
    fn enqueue(
        &mut self,
        req: EdgeRequest,
        index: &GraphIndex,
        counters: &Counters,
        vp: u32,
        deltas: Option<&DeltaView>,
    ) {
        // Rebased only where a fetch is certain: a zero-length request
        // may name a subject a lower shard owns (`absorb_requests`
        // routes those here, there being nothing to read), and its id
        // is below `base`.
        let base = self.base;
        let rebase = |v: VertexId| VertexId(v.0 - base);
        let (start, len, overlay) =
            fetch_window(&req, deltas, || index.degree(rebase(req.subject), req.dir));
        if len == 0 {
            self.ready
                .push(ReadyVertex::empty(&req, vp, start, overlay));
            return;
        }
        let local = rebase(req.subject);
        let ListSlice { loc, decode } = index.locate_slice(local, req.dir, start, len);
        debug_assert_eq!(
            loc.degree, len,
            "ranges are clamped at request time against the same index"
        );
        self.outstanding += 1;
        self.buffered += 1;
        let meta = |decode, kind| PartMeta {
            requester: req.requester,
            subject: req.subject,
            vpart: vp,
            dir: req.dir,
            start,
            count: len,
            decode,
            kind,
            overlay,
        };
        let pair = if req.attrs {
            debug_assert_eq!(
                decode,
                SliceDecode::Raw,
                "attribute-bearing blocks are always raw (weighted images force it)"
            );
            let aloc = index
                .locate_attrs_range(local, req.dir, start, len)
                .expect("attrs requested but image has no attribute section");
            let slot = self.alloc_pair(AttrPair {
                requester: req.requester,
                subject: req.subject,
                vpart: vp,
                dir: req.dir,
                start,
                edges: None,
                attrs: None,
                overlay,
            });
            let attrs = meta(SliceDecode::Raw, PartKind::Attrs { pair: slot });
            self.push_part(aloc.offset, aloc.bytes, attrs, counters);
            Some(slot)
        } else {
            None
        };
        let edges = meta(decode, PartKind::Edges { pair });
        self.push_part(loc.offset, loc.bytes, edges, counters);
    }

    /// Appends one byte range + its metadata to the issue queue.
    fn push_part(&mut self, offset: u64, bytes: u64, meta: PartMeta, counters: &Counters) {
        self.issue_meta.push(meta);
        self.issue_q.push(RangeReq {
            offset,
            bytes,
            meta: (self.issue_meta.len() - 1) as u32,
        });
        counters.bytes_requested.add(bytes);
    }

    /// Installs one merged cover in the slab and submits it (the
    /// caller kicks the session once its batch is through). With
    /// `record` set the cover's page range is remembered as in-flight
    /// until its completion resolves (attach-only covers pass false:
    /// their pages are subsets of ranges already recorded).
    fn submit_cover(
        &mut self,
        m: MergedReq,
        metas: &[PartMeta],
        page_bytes: u64,
        record: bool,
        counters: &Counters,
    ) {
        let parts: Vec<(u64, u64, PartMeta)> = m
            .parts
            .iter()
            .map(|p| (p.offset, p.bytes, metas[p.meta as usize]))
            .collect();
        let recorded = record.then(|| {
            let range = (
                m.offset / page_bytes,
                (m.offset + m.bytes - 1) / page_bytes + 1,
            );
            self.inflight.insert(range);
            range
        });
        let meta = Some(MergedMeta {
            offset: m.offset,
            parts,
            recorded,
        });
        let tag = if let Some(i) = self.slab_free.pop() {
            self.slab[i] = meta;
            i
        } else {
            self.slab.push(meta);
            self.slab.len() - 1
        };
        counters.issued_requests.inc();
        self.session
            .submit(m.offset, m.bytes, tag as u64)
            .expect("edge-list request within image bounds");
    }

    /// Sorts, merges, and submits the issue queue (§3.6).
    fn flush(&mut self, page_bytes: u64, merge: bool, max_merge_bytes: u64, counters: &Counters) {
        if self.issue_q.is_empty() {
            return;
        }
        let reqs = std::mem::take(&mut self.issue_q);
        let metas = std::mem::take(&mut self.issue_meta);
        self.buffered = 0;
        // Subtract pages this session is already fetching: fully
        // covered requests skip cover-building and ride the existing
        // reads (each page attaches via the mount's in-flight table,
        // or hits the cache if the cover has landed by then).
        let (fetch, attached) = subtract_inflight(reqs, page_bytes, &self.inflight);
        for m in merge_requests(fetch, page_bytes, merge, max_merge_bytes) {
            self.submit_cover(m, &metas, page_bytes, true, counters);
        }
        for r in attached {
            let single = MergedReq {
                offset: r.offset,
                bytes: r.bytes,
                parts: vec![r],
            };
            self.submit_cover(single, &metas, page_bytes, false, counters);
        }
        // The whole batch crosses to the I/O threads as one message
        // per thread, so they sort and coalesce it as a whole too.
        self.session.kick();
    }

    /// Turns a SAFS completion back into per-vertex ready entries.
    fn resolve(&mut self, c: Completion) {
        let tag = c.tag as usize;
        let meta = self.slab[tag].take().expect("completion for a live tag");
        self.slab_free.push(tag);
        if let Some(range) = meta.recorded {
            self.inflight.remove(range);
        }
        for (abs_off, bytes, pm) in meta.parts {
            let span = c
                .span
                .slice((abs_off - meta.offset) as usize, bytes as usize);
            match pm.kind {
                PartKind::Edges { pair: None } => {
                    self.outstanding -= 1;
                    self.ready.push(ReadyVertex {
                        requester: pm.requester,
                        subject: pm.subject,
                        vpart: pm.vpart,
                        dir: pm.dir,
                        start: pm.start,
                        count: pm.count,
                        decode: pm.decode,
                        edges: span,
                        attrs: None,
                        overlay: pm.overlay,
                    });
                }
                PartKind::Edges { pair: Some(slot) } => {
                    let done = {
                        let p = self.pairs[slot].as_mut().expect("live pair");
                        p.edges = Some(span);
                        p.attrs.is_some()
                    };
                    if done {
                        self.finish_pair(slot);
                    }
                }
                PartKind::Attrs { pair: slot } => {
                    let done = {
                        let p = self.pairs[slot].as_mut().expect("live pair");
                        p.attrs = Some(span);
                        p.edges.is_some()
                    };
                    if done {
                        self.finish_pair(slot);
                    }
                }
            }
        }
    }

    fn finish_pair(&mut self, slot: usize) {
        let p = self.pairs[slot].take().expect("live pair");
        self.pairs_free.push(slot);
        self.outstanding -= 1;
        let edges = p.edges.expect("pair complete");
        self.ready.push(ReadyVertex {
            requester: p.requester,
            subject: p.subject,
            vpart: p.vpart,
            dir: p.dir,
            start: p.start,
            count: edges.len() as u64 / 4,
            decode: SliceDecode::Raw,
            edges,
            attrs: Some(p.attrs.expect("pair complete")),
            overlay: p.overlay,
        });
    }

    /// Pops one ready delivery as a borrowable [`PageVertex`], with
    /// the requester and the vertical pass it belongs to.
    fn pop_ready(
        &mut self,
        deltas: Option<&DeltaView>,
    ) -> Option<(VertexId, u32, PageVertex<'static>)> {
        let r = self.ready.pop()?;
        let (requester, vpart) = (r.requester, r.vpart);
        Some((requester, vpart, Self::decode_ready(r, deltas)))
    }

    /// Decodes one ready entry into a deliverable [`PageVertex`] —
    /// shared by [`SemIo::pop_ready`] and the pipelined scheduler's
    /// cross-worker ready pool. Overlaid entries wrap the decoded
    /// (full) base list with the subject's pinned delta ops, windowed
    /// to the request's merged-coordinate slice.
    fn decode_ready(r: ReadyVertex, deltas: Option<&DeltaView>) -> PageVertex<'static> {
        let (subject, dir, overlay) = (r.subject, r.dir, r.overlay);
        let base = match r.decode {
            SliceDecode::Raw => PageVertex::from_span(r.subject, r.dir, r.start, r.edges, r.attrs),
            SliceDecode::Varint(p) => {
                debug_assert!(r.attrs.is_none(), "packed deliveries never carry attrs");
                PageVertex::from_span_packed(
                    r.subject,
                    r.dir,
                    r.start,
                    r.edges,
                    r.count as usize,
                    p,
                )
            }
        };
        match overlay {
            None => base,
            Some((ws, wl)) => {
                let ops = deltas
                    .and_then(|d| d.list(subject, dir))
                    .expect("overlay deliveries run with the view that created them");
                PageVertex::with_overlay(base, Arc::clone(ops), ws, wl as usize)
            }
        }
    }
}
