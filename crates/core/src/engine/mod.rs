//! The iteration driver (§3.3, §3.6–§3.8), a file per layer of the
//! road one request takes to its callback: `claim` (frontier →
//! claimed vertex), `sem_io` (request → sorted batch → cover →
//! entries, runs of a cover's deliveries), `pool` (ready entries and
//! the quiesce that ends compute), `worker` (the loop that interleaves them and runs the
//! callbacks) and `boundary` (what happens between computes). Each
//! file's comment names the invariant it owns.
//!
//! This file is the top of the road — [`Engine`], its constructors and
//! the run body — and owns the rule that every validation happens
//! before any thread starts. There is one scheduler and one engine:
//! the in-memory mode differs from the semi-external one only in where
//! an edge list comes from, and a run over one mount is the one-shard
//! case of a run over k (see [`crate::shard`]). The referees are
//! `Engine::new_mem` on the same graph and `fg_baselines::direct`; the
//! ledger's `engine.run_floor_us` prices an empty run.

// `pool.rs` names its primitives `super::sync::…` — here the real ones,
// in `fg_check`'s mount of the same file the instrumented doubles.
use fg_types::sync::{self, Ordering};
use std::sync::Arc;
use std::time::Instant;

use fg_format::{GraphIndex, ShardedIndex};
use fg_graph::{DeltaView, Graph};
use fg_safs::{CacheStats, Safs, ShardSet};
use fg_types::{AtomicBitmap, CancelToken, FgError, Result, VertexId};

use crate::config::EngineConfig;
use crate::context::{DegreeSource, RunShared, ShardView};
use crate::messages::{Batch, Lanes};
use crate::partition::PartitionMap;
use crate::program::VertexProgram;
use crate::rendezvous::Rendezvous;
use crate::shard::{join_all, worker_panicked, ShardLink};
use crate::state::SharedStates;
use crate::stats::{IterStats, RunStats};

mod boundary;
mod claim;
mod pool;
mod sem_io;
mod worker;

use boundary::{Control, Counters};
use claim::{ActiveSet, Frontiers};
use pool::ReadyPool;
use worker::WorkerEnv;

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
#[derive(Clone)]
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
            backend: self.backend.clone(),
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
        let ids = (0..self.n).map(VertexId::from_index);
        self.run_with_states(program, init, ids.map(|v| program.init_state(v)).collect())
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
        // What the backend decides for a run. The id window this shard
        // collects and computes: its owned contiguous range — the whole
        // graph when it is the only one (everything indexed by vertex
        // id — states, frontiers, busy bits — stays global-length
        // either way). Where degrees come from. And, in a run with
        // peers, the router to them.
        let (lo, hi, degrees, shard) = match &self.backend {
            Backend::Mem(g) => (0, n, DegreeSource::Graph(g), None),
            Backend::Sem { index, .. } => {
                let r = index.shard_range(me);
                let view = link.map(|_| ShardView {
                    lo: r.start,
                    hi: r.end,
                    index: Arc::clone(index),
                });
                let degrees = DegreeSource::Sharded(Arc::clone(index));
                (r.start as usize, r.end as usize, degrees, view)
            }
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
        let r = self.cfg.partition_shift(hi - lo);
        let pmap = PartitionMap::new_window(lo, hi, nthreads, r);
        let shared = RunShared {
            n,
            degrees,
            pmap: pmap.clone(),
            deltas: self.deltas.clone(),
            shard,
        };
        let board: Lanes<Batch<P::Msg>> = Lanes::new(nthreads);
        let iteration_end = AtomicBitmap::new(n);
        let active = ActiveSet::new(nthreads);
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
        let per_iteration: sync::Mutex<Vec<IterStats>> = sync::Mutex::new(Vec::new());

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
                        iteration_end: &iteration_end,
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
            messages_sent: board.total(),
            vertices_processed: counters.vertices.get(),
            engine_requests: counters.engine_requests.get(),
            issued_requests: counters.issued_requests.get(),
            bytes_requested: counters.bytes_requested.get(),
            edges_delivered: counters.edges_delivered.get(),
            swept_requests: counters.swept_requests.get(),
            queue_wait_ns: 0,
            shard_msg_bytes: counters.shard_msg_bytes.get(),
            io,
            cache: cache_scope.as_ref().map(|s| s.snapshot()),
            cache_mount,
            cancelled: control.cancelled.into_inner(),
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
