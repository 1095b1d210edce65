//! A concurrent query service over shared SAFS mounts — one, or one
//! per shard of a sharded image.
//!
//! SAFS is designed as a *shared* substrate (§3.1): application
//! threads mail I/O requests to common per-drive I/O threads, and the
//! set-associative page cache — per-set locks, GClock eviction, pages
//! read on a miss entering on probation — absorbs overlapping working
//! sets with near-zero locking overhead.
//! The paper leans on exactly this property ("this page cache reduces
//! locking overhead and incurs little overhead when the cache hit
//! rate is low", §3.1; Figures 12–14 quantify the cache and I/O
//! paths). A single [`crate::Engine::run`] uses that machinery for
//! one job; [`GraphService`] turns it into a multi-tenant serving
//! layer: one set of mounts, one in-memory index, many vertex
//! programs running *concurrently* against them. Every query enters
//! through one door — [`GraphService::query_opts`], which `run`,
//! `run_opts` and `query` are shorthands for — whatever the mount
//! count: the engine it hands out runs one shard per mount.
//!
//! What is shared and what is per-query:
//!
//! * **Shared, immutable**: the SAFS mount (page cache + I/O
//!   threads + SSD array) and the compact graph index, both behind
//!   `Arc`. Concurrent queries touching the same edge lists hit each
//!   other's cached pages — and when two tenants miss on the *same*
//!   page at the same time, the mount's in-flight read table merges
//!   them into one device read (see `fg_safs`'s dedup counters).
//! * **Per-query**: the vertex program, its [`Init`] activation, an
//!   optional [`EngineConfig`] override, the per-vertex state vector,
//!   and a [`RunStats`] whose cache counters come from a per-query
//!   scope ([`fg_safs::Safs::session_scoped`]) so tenants do not book
//!   each other's traffic.
//!
//! # Admission: priority classes + weighted fair share
//!
//! At most [`ServiceConfig::max_inflight`] queries run at once.
//! Arrivals beyond that wait in a two-level queue:
//!
//! 1. **Priority class** ([`Priority::High`] / [`Priority::Normal`] /
//!    [`Priority::Low`]): a waiter is only considered once no
//!    higher-class waiter exists. Classes are strict — a saturating
//!    stream of high-priority queries starves low ones by design
//!    (use weights, not classes, for proportional sharing).
//! 2. **Tenant weight** (stride scheduling): within a class, each
//!    tenant carries a virtual *pass* that advances by
//!    `STRIDE / weight` per admission, and the tenant with the
//!    smallest pass goes next — so over time tenants are admitted in
//!    proportion to their configured weights, and a single tenant's
//!    burst cannot monopolize the gate. Queries of one tenant stay
//!    FIFO among themselves.
//!
//! Tenants are declared up front with [`ServiceConfig::with_tenant`]
//! and referenced per query via [`QueryOpts::with_tenant`]; unknown
//! tenants get weight 1 at [`Priority::Normal`].
//!
//! # Deadlines and cancellation
//!
//! A query may carry a [`CancelToken`] ([`QueryOpts::with_cancel`] /
//! [`QueryOpts::with_deadline`]). The token is honored in *both*
//! places a query spends time:
//!
//! * **in the queue** — a waiter whose token fires leaves the queue,
//!   books its wait, bumps [`ServiceStatsSnapshot::cancelled`] or
//!   [`ServiceStatsSnapshot::deadline_expired`], and returns the
//!   matching error without ever consuming a slot;
//! * **in the run** — the engine polls the token at iteration
//!   boundaries (see [`Engine::with_cancel`]) and unwinds at the next
//!   boundary with every piece of shared state (admission slot,
//!   session queues, page cache, busy bits) in a consistent
//!   between-iterations configuration.
//!
//! The time spent queued is reported in [`RunStats::queue_wait_ns`]
//! for the `run*` paths and accumulated service-wide (total plus
//! log2-bucketed percentiles) for every admission, including the
//! [`GraphService::query`] closure paths whose arbitrary return type
//! the service cannot patch.
//!
//! # Mutable graphs: delta ingest and snapshots
//!
//! The on-SSD image is immutable (FlashGraph writes it once, §3), but
//! the *service* accepts edge mutations: [`GraphService::ingest`]
//! appends a [`DeltaBatch`] to an in-memory log of runs
//! ([`fg_graph::RunLog`]), each canonicalized against the base image at
//! ingest time. Everything that changes while the service runs — the
//! generation number, the image serving it, that log — is one struct
//! behind one mutex (`Live`, in `backend`), and the one invariant of
//! the write path is that **every operation on it is one critical
//! section**: a query's pin, an ingest, a compaction's cutover each
//! lock it once and take no other lock inside. Queries get **snapshot
//! isolation** from that: at admission each pins the pair (image
//! generation, delta view), and the engine merges the pinned
//! [`DeltaView`] with the on-SSD lists at delivery time (see
//! `PageVertex::with_overlay` and its `overlay` field in the vertex
//! layer) — concurrent ingests and compactions never change what a
//! running query sees.
//! [`QueryOpts::at_watermark`] pins an older watermark's view the same
//! way (time travel within the unfolded window).
//!
//! Both halves of the write path read the image through the mount,
//! page cache first, like every query: ingest canonicalizes against
//! point reads that take the normal insert policy, compaction reads
//! the old generation back as one streaming sweep that uses the cache
//! and leaves it alone.
//!
//! When [`GraphService::pending_deltas`] grows large,
//! [`GraphService::compact_with`] (or a background [`Compactor`])
//! rewrites base + deltas into a fresh image stamped with the next
//! generation — outside the lock, from a pin like any query's — and
//! cuts over in one critical section: fold the log, swap the image,
//! bump the generation. No query can observe the new image *and* the
//! deltas it already absorbed (or the old image *without* them).
//! Queries pinned to the old generation keep it alive via `Arc` until
//! they drain.
//!
//! # Where each protocol lives
//!
//! This file holds what a caller configures and reads back (tenants,
//! [`QueryOpts`], the counters) and the service itself; one file per
//! protocol underneath, each opening with the invariant it owns and
//! the ledger rows that price it: `gate` (admission), `backend` (a
//! generation's mounts, `Live` and the one way a query runs), `ingest`
//! (the canonicalization base), `compactor` (the rewrite, the cutover
//! and the background thread).
//!
//! [`Init`]: crate::Init
//! [`RunStats`]: crate::RunStats
//! [`RunStats::queue_wait_ns`]: crate::RunStats::queue_wait_ns
//! [`Engine::with_cancel`]: crate::Engine::with_cancel
//! [`DeltaBatch`]: fg_graph::DeltaBatch
//! [`DeltaView`]: fg_graph::DeltaView

use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use fg_format::{GraphIndex, ShardedIndex};
use fg_graph::RunLog;
use fg_safs::{CacheStatsSnapshot, Safs, ShardSet};
// `gate.rs` names its primitives `super::sync::…` — here the real ones,
// in `fg_check`'s mount of the same file the instrumented doubles.
use fg_types::sync::{self, Counter, Mutex};
use fg_types::{CancelCause, CancelToken, Result};

use crate::config::EngineConfig;

mod backend;
mod compactor;
mod gate;
mod ingest;

use backend::{Live, Mounts, ServeBackend};
pub use compactor::Compactor;
use gate::{Gate, Permit, Ticket};

/// Admission priority class of a query. Classes are strict: the gate
/// never admits a waiter while a higher class has one queued.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Priority {
    /// Latency-sensitive foreground queries.
    High,
    /// The default class.
    #[default]
    Normal,
    /// Background/batch work that should yield to everything else.
    Low,
}

impl Priority {
    /// Class rank used by the gate (0 admits first).
    fn class(self) -> u8 {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }
}

/// Per-tenant admission configuration (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantConfig {
    /// Stride-scheduling weight: a weight-4 tenant is admitted four
    /// times as often as a weight-1 tenant under contention. Zero is
    /// treated as 1.
    pub weight: u32,
    /// Default priority class for the tenant's queries (a query may
    /// override it with [`QueryOpts::with_priority`]).
    pub priority: Priority,
}

impl Default for TenantConfig {
    fn default() -> Self {
        TenantConfig {
            weight: 1,
            priority: Priority::Normal,
        }
    }
}

impl TenantConfig {
    /// Builder-style: sets the fair-share weight.
    #[must_use]
    pub fn with_weight(mut self, weight: u32) -> Self {
        self.weight = weight;
        self
    }

    /// Builder-style: sets the default priority class.
    #[must_use]
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }
}

/// Tunables of a [`GraphService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Maximum queries running concurrently; arrivals beyond this
    /// queue (priority classes, then weighted fair share). Zero means
    /// unlimited (no admission control).
    pub max_inflight: usize,
    /// Engine configuration queries run with unless they override it.
    pub engine: EngineConfig,
    /// Declared tenants, in declaration order.
    tenants: Vec<(String, TenantConfig)>,
}

impl ServiceConfig {
    /// Builder-style: sets the in-flight cap.
    #[must_use]
    pub fn with_max_inflight(mut self, n: usize) -> Self {
        self.max_inflight = n;
        self
    }

    /// Builder-style: sets the base engine configuration.
    #[must_use]
    pub fn with_engine(mut self, cfg: EngineConfig) -> Self {
        self.engine = cfg;
        self
    }

    /// Builder-style: declares (or redeclares) a tenant. Queries name
    /// tenants via [`QueryOpts::with_tenant`]; undeclared tenants run
    /// with [`TenantConfig::default`].
    #[must_use]
    pub fn with_tenant(mut self, name: impl Into<String>, tc: TenantConfig) -> Self {
        let name = name.into();
        // The documented contract is "zero is treated as 1"; enforce
        // it at declaration so every reader of the stored config sees
        // a weight the stride division is defined for.
        let tc = TenantConfig {
            weight: tc.weight.max(1),
            ..tc
        };
        match self.tenants.iter_mut().find(|(n, _)| *n == name) {
            Some((_, existing)) => *existing = tc,
            None => self.tenants.push((name, tc)),
        }
        self
    }

    /// The declared configuration of `name`, if any.
    pub fn tenant(&self, name: &str) -> Option<&TenantConfig> {
        self.tenants
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, tc)| tc)
    }
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            // Enough concurrency to overlap I/O across tenants without
            // letting a burst of queries thrash the shared cache.
            max_inflight: 4,
            engine: EngineConfig::default(),
            tenants: Vec::new(),
        }
    }
}

/// Per-query options: tenant attribution, priority, cancellation,
/// and an engine-configuration override. `Default` reproduces the
/// plain [`GraphService::run`] behavior exactly.
#[derive(Debug, Clone, Default)]
pub struct QueryOpts {
    tenant: Option<String>,
    priority: Option<Priority>,
    cancel: Option<CancelToken>,
    engine: Option<EngineConfig>,
    as_of: Option<u64>,
}

impl QueryOpts {
    /// No tenant, default priority, no token, base engine config.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attributes the query to a tenant declared with
    /// [`ServiceConfig::with_tenant`] (or an ad-hoc one, which gets
    /// the default weight and priority).
    #[must_use]
    pub fn with_tenant(mut self, name: impl Into<String>) -> Self {
        self.tenant = Some(name.into());
        self
    }

    /// Overrides the priority class for this query only.
    #[must_use]
    pub fn with_priority(mut self, p: Priority) -> Self {
        self.priority = Some(p);
        self
    }

    /// Attaches a cancellation token. Keep a clone to cancel from
    /// outside; a token built with [`CancelToken::with_deadline`]
    /// enforces its deadline too.
    #[must_use]
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Shorthand for attaching a fresh deadline-only token
    /// (replaces any previously attached token; to combine an
    /// external cancel handle with a deadline, build the token with
    /// [`CancelToken::with_deadline`] and pass it to
    /// [`QueryOpts::with_cancel`], keeping a clone).
    #[must_use]
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.cancel = Some(CancelToken::with_deadline(deadline));
        self
    }

    /// Per-query engine-configuration override.
    #[must_use]
    pub fn with_engine(mut self, cfg: EngineConfig) -> Self {
        self.engine = Some(cfg);
        self
    }

    /// Pins the query to delta watermark `w` instead of the freshest
    /// view: it sees the base image plus exactly the ingest runs with
    /// sequence `<= w`, so replaying the same watermark later yields a
    /// bit-identical view (watermark 0 = the bare image). Only
    /// watermarks above the last compaction's fold point are
    /// replayable — older runs are baked into the image.
    #[must_use]
    pub fn at_watermark(mut self, w: u64) -> Self {
        self.as_of = Some(w);
        self
    }
}

/// A point-in-time copy of a service's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceStatsSnapshot {
    /// Queries admitted past the gate so far.
    pub admitted: u64,
    /// Queries that held a slot and released it (successfully or
    /// not — including runs that ended cancelled or panicking).
    pub completed: u64,
    /// Queries whose [`CancelToken`] fired via an explicit cancel —
    /// while queued (never admitted) or mid-run (`run_opts` paths).
    pub cancelled: u64,
    /// Queries whose deadline passed, in the queue or mid-run.
    pub deadline_expired: u64,
    /// Highest number of queries in flight at once.
    pub peak_inflight: usize,
    /// Total nanoseconds queries spent waiting for admission
    /// (admitted *and* abandoned waits both count).
    pub queue_wait_ns: u64,
    /// Median admission wait, from a log2-bucketed histogram (the
    /// reported value is the matching bucket's upper bound).
    pub queue_wait_p50_ns: u64,
    /// 95th-percentile admission wait (same histogram).
    pub queue_wait_p95_ns: u64,
    /// 99th-percentile admission wait (same histogram).
    pub queue_wait_p99_ns: u64,
}

/// Log2-bucketed wait histogram: bucket `b` holds samples in
/// `[2^(b-1), 2^b)` nanoseconds (bucket 0 holds exact zeros). Cheap
/// enough to record on every admission; percentile reads return the
/// bucket's upper bound, which is plenty for dashboard-grade p50/p95
/// numbers.
struct WaitHistogram {
    buckets: [Counter; 64],
}

impl Default for WaitHistogram {
    fn default() -> Self {
        WaitHistogram {
            buckets: std::array::from_fn(|_| Counter::default()),
        }
    }
}

impl WaitHistogram {
    fn record(&self, ns: u64) {
        let idx = if ns == 0 {
            0
        } else {
            (64 - ns.leading_zeros() as usize).min(63)
        };
        self.buckets[idx].inc();
    }

    /// The upper bound of the bucket containing the `p`-quantile
    /// sample (0 when nothing was recorded yet).
    fn percentile(&self, p: f64) -> u64 {
        let counts: Vec<u64> = self.buckets.iter().map(Counter::get).collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let target = ((total as f64 * p).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (idx, c) in counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return if idx == 0 { 0 } else { (1u64 << idx) - 1 };
            }
        }
        u64::MAX
    }
}

/// A shared-mount concurrent query service: one [`Safs`] mount and
/// one [`GraphIndex`], many vertex-program queries in flight at once.
///
/// The service is `Sync`; callers invoke [`GraphService::run`] (or
/// [`GraphService::query`]) from as many threads as they like and
/// each call becomes one admitted query.
///
/// # Example
///
/// ```no_run
/// use std::sync::Arc;
/// use flashgraph::{GraphService, ServiceConfig, Init};
/// # fn demo(safs: fg_safs::Safs, index: fg_format::GraphIndex) {
/// let service = Arc::new(GraphService::new(safs, index, ServiceConfig::default()));
/// std::thread::scope(|s| {
///     for root in [0u32, 7, 42] {
///         let service = Arc::clone(&service);
///         s.spawn(move || {
///             service.query(|engine| fg_apps::bfs(engine, fg_types::VertexId(root)))
///         });
///     }
/// });
/// # }
/// ```
pub struct GraphService {
    /// Generation, serving image and pending deltas: every pin,
    /// ingest and cutover is one critical section of this lock.
    live: Mutex<Live>,
    /// Serializes compactions — the cutover is short, but the rewrite
    /// is long and must not run twice concurrently. Taken before
    /// `live`, never while holding it.
    compacting: Mutex<()>,
    cfg: ServiceConfig,
    gate: Gate,
    cancelled: Counter,
    deadline_expired: Counter,
    queue_wait_ns: Counter,
    wait_histo: WaitHistogram,
}

impl std::fmt::Debug for GraphService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (vertices, generation, pending) = {
            let live = self.live.lock();
            let log = &live.log;
            (log.num_vertices(), live.generation, log.pending_ops())
        };
        f.debug_struct("GraphService")
            .field("vertices", &vertices)
            .field("generation", &generation)
            .field("pending_deltas", &pending)
            .field("max_inflight", &self.cfg.max_inflight)
            .field("gate", &self.gate.snapshot())
            .finish_non_exhaustive()
    }
}

impl GraphService {
    /// A service owning `safs` and `index`.
    pub fn new(safs: Safs, index: GraphIndex, cfg: ServiceConfig) -> Self {
        Self::from_shared(Arc::new(safs), Arc::new(index), cfg)
    }

    /// A service over already-shared mount and index (when other
    /// subsystems — loaders, snapshotters — keep their own handles).
    pub fn from_shared(safs: Arc<Safs>, index: Arc<GraphIndex>, cfg: ServiceConfig) -> Self {
        let index = Arc::new(ShardedIndex::new(vec![index]));
        Self::with_backend(Mounts::Single(safs), index, cfg)
    }

    /// A service over a sharded image: one mount per shard, every
    /// admitted query's engine running one shard per mount.
    /// Concurrent queries share the shard caches and I/O threads
    /// exactly as single-mount tenants share theirs.
    ///
    /// # Panics
    ///
    /// Panics when the mount count differs from the shard count.
    pub fn new_sharded(set: ShardSet, index: ShardedIndex, cfg: ServiceConfig) -> Self {
        Self::from_shared_sharded(Arc::new(set), Arc::new(index), cfg)
    }

    /// [`GraphService::new_sharded`] over already-shared handles.
    ///
    /// # Panics
    ///
    /// Panics when the mount count differs from the shard count.
    pub fn from_shared_sharded(
        set: Arc<ShardSet>,
        index: Arc<ShardedIndex>,
        cfg: ServiceConfig,
    ) -> Self {
        Self::with_backend(Mounts::Sharded(set), index, cfg)
    }

    fn with_backend(mounts: Mounts, index: Arc<ShardedIndex>, cfg: ServiceConfig) -> Self {
        let log = RunLog::new(index.num_vertices(), index.is_directed());
        let backend = ServeBackend {
            mounts,
            index,
            metas: OnceLock::new(),
        };
        assert_eq!(
            backend.mounts().len(),
            backend.index.num_shards(),
            "one mount per shard of the index"
        );
        GraphService {
            live: Mutex::new(Live {
                generation: 0,
                backend: Arc::new(backend),
                log,
            }),
            compacting: Mutex::new(()),
            gate: Gate::new(cfg.max_inflight),
            cfg,
            cancelled: Counter::default(),
            deadline_expired: Counter::default(),
            queue_wait_ns: Counter::default(),
            wait_histo: WaitHistogram::default(),
        }
    }

    /// Number of vertices in the served graph.
    pub fn num_vertices(&self) -> usize {
        self.live.lock().log.num_vertices()
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// The current generation's mount (for mount-wide statistics or
    /// resets between experiment phases). Compaction replaces the
    /// mount; the returned handle stays valid but stops being the
    /// serving one.
    ///
    /// # Panics
    ///
    /// Panics on a service built over a [`ShardSet`] (it has no
    /// single mount handle); use [`GraphService::shard_set`].
    pub fn safs(&self) -> Arc<Safs> {
        match &self.live.lock().backend.mounts {
            Mounts::Single(safs) => Arc::clone(safs),
            Mounts::Sharded(_) => {
                panic!("sharded service has no single mount; use shard_set()")
            }
        }
    }

    /// The shard mounts of a service built over a [`ShardSet`], `None`
    /// otherwise (also once a compaction has rewritten a 1-shard set
    /// into a single mount).
    pub fn shard_set(&self) -> Option<Arc<ShardSet>> {
        match &self.live.lock().backend.mounts {
            Mounts::Sharded(set) => Some(Arc::clone(set)),
            Mounts::Single(_) => None,
        }
    }

    /// Mount-wide page-cache counters — the aggregate across every
    /// tenant and every mount's cache, where cross-query hits show up.
    /// Counters reset when compaction installs a fresh mount.
    pub fn cache_stats(&self) -> CacheStatsSnapshot {
        let backend = Arc::clone(&self.live.lock().backend);
        ShardSet::cache_stats_of(backend.mounts())
    }

    /// The current image generation (0 until the first compaction).
    pub fn generation(&self) -> u64 {
        self.live.lock().generation
    }

    /// Sequence number of the latest ingested run (0 = none yet) —
    /// the value [`QueryOpts::at_watermark`] pins against.
    pub fn watermark(&self) -> u64 {
        self.live.lock().log.watermark()
    }

    /// Effective delta ops awaiting compaction — the trigger metric
    /// for [`GraphService::compact_with`] / [`Compactor`].
    pub fn pending_deltas(&self) -> u64 {
        self.live.lock().log.pending_ops()
    }

    /// Queries currently past admission.
    pub fn inflight(&self) -> usize {
        self.gate.snapshot().running
    }

    /// Queries currently waiting in the admission queue.
    pub fn queued(&self) -> usize {
        self.gate.snapshot().queued
    }

    /// Service counters so far.
    pub fn stats(&self) -> ServiceStatsSnapshot {
        let gate = self.gate.snapshot();
        ServiceStatsSnapshot {
            admitted: gate.admitted,
            completed: gate.completed,
            cancelled: self.cancelled.get(),
            deadline_expired: self.deadline_expired.get(),
            peak_inflight: gate.peak,
            queue_wait_ns: self.queue_wait_ns.get(),
            queue_wait_p50_ns: self.wait_histo.percentile(0.50),
            queue_wait_p95_ns: self.wait_histo.percentile(0.95),
            queue_wait_p99_ns: self.wait_histo.percentile(0.99),
        }
    }

    /// Takes `opts`' tenant and class to the gate and books what came of
    /// it: the wait (admitted or abandoned, into the total and the
    /// histogram) and, for a token that fired first, the abort.
    ///
    /// # Errors
    ///
    /// The token's verdict — an abandoned wait never consumes a slot.
    fn admit(&self, opts: &QueryOpts) -> Result<(Permit<'_>, Duration)> {
        let t0 = Instant::now();
        let tenant = opts.tenant.as_deref().unwrap_or_default();
        let declared = self.cfg.tenant(tenant);
        let tc = declared.copied().unwrap_or_default();
        let who = Ticket {
            class: opts.priority.unwrap_or(tc.priority).class(),
            tenant,
            weight: tc.weight.max(1),
            declared: declared.is_some(),
        };
        let verdict = self.gate.admit(who, opts.cancel.as_ref());
        let waited = t0.elapsed();
        let ns = waited.as_nanos() as u64;
        self.queue_wait_ns.add(ns);
        self.wait_histo.record(ns);
        match verdict {
            Ok(permit) => Ok((permit, waited)),
            Err(cause) => {
                self.book_abort(cause);
                Err(cause.into())
            }
        }
    }

    /// Books a query that ended on its token (queued or mid-run).
    fn book_abort(&self, cause: CancelCause) {
        match cause {
            CancelCause::Cancelled => self.cancelled.inc(),
            CancelCause::DeadlineExpired => self.deadline_expired.inc(),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{Request, VertexContext};
    use crate::engine::{Engine, Init};
    use crate::program::VertexProgram;
    use crate::vertex::PageVertex;
    use fg_format::{
        load_index, required_capacity, required_capacity_with, write_image, write_image_to,
        write_image_with, WriteOptions,
    };
    use fg_graph::{fixtures, gen, DeltaBatch, DeltaLog, Graph, GraphBuilder};
    use fg_safs::SafsConfig;
    use fg_ssdsim::{ArrayConfig, SsdArray};
    use fg_types::sync::channel::{unbounded, Sender};
    use fg_types::{EdgeDir, FgError, VertexId};

    struct Bfs;

    #[derive(Default, Clone, Copy)]
    struct BfsState {
        visited: bool,
        level: u32,
    }

    impl VertexProgram for Bfs {
        type State = BfsState;
        type Msg = ();

        fn run(&self, v: VertexId, state: &mut BfsState, ctx: &mut VertexContext<'_, ()>) {
            if !state.visited {
                state.visited = true;
                state.level = ctx.iteration();
                ctx.request(v, Request::edges(EdgeDir::Out));
            }
        }

        fn run_on_vertex(
            &self,
            _v: VertexId,
            _state: &mut BfsState,
            vertex: &PageVertex<'_>,
            ctx: &mut VertexContext<'_, ()>,
        ) {
            for dst in vertex.edges() {
                ctx.activate(dst);
            }
        }
    }

    /// A BFS that pulls its own plug in iteration `at`: determinism
    /// for mid-run cancellation tests without sleeping.
    struct SelfCancellingBfs {
        token: CancelToken,
        at: u32,
    }

    impl VertexProgram for SelfCancellingBfs {
        type State = BfsState;
        type Msg = ();

        fn run(&self, v: VertexId, state: &mut BfsState, ctx: &mut VertexContext<'_, ()>) {
            if ctx.iteration() >= self.at {
                self.token.cancel();
            }
            if !state.visited {
                state.visited = true;
                state.level = ctx.iteration();
                ctx.request(v, Request::edges(EdgeDir::Out));
            }
        }

        fn run_on_vertex(
            &self,
            _v: VertexId,
            _state: &mut BfsState,
            vertex: &PageVertex<'_>,
            ctx: &mut VertexContext<'_, ()>,
        ) {
            for dst in vertex.edges() {
                ctx.activate(dst);
            }
        }
    }

    fn service(max_inflight: usize) -> GraphService {
        service_cfg(
            ServiceConfig::default()
                .with_max_inflight(max_inflight)
                .with_engine(EngineConfig::small()),
        )
    }

    fn service_cfg(cfg: ServiceConfig) -> GraphService {
        let g = fixtures::path(16);
        let array = SsdArray::new_mem(ArrayConfig::small_test(), required_capacity(&g)).unwrap();
        write_image(&g, &array).unwrap();
        let (_, index) = load_index(&array).unwrap();
        let safs = Safs::new(SafsConfig::default().with_cache_bytes(8 * 4096), array).unwrap();
        safs.reset_stats();
        GraphService::new(safs, index, cfg)
    }

    /// A query parked inside the service, holding one slot.
    struct Holder {
        release: Sender<()>,
        thread: std::thread::JoinHandle<()>,
    }

    /// Occupies one slot of `svc`; returns once it is held.
    fn hold_slot(svc: &Arc<GraphService>) -> Holder {
        let (entered_tx, entered_rx) = unbounded();
        let (release, release_rx) = unbounded::<()>();
        let svc = Arc::clone(svc);
        let thread = std::thread::spawn(move || {
            svc.query(|_| {
                entered_tx.send(()).unwrap();
                release_rx.recv().unwrap();
            });
        });
        entered_rx.recv().unwrap();
        Holder { release, thread }
    }

    impl Holder {
        /// Frees the slot and joins the query that held it.
        fn release(self) {
            self.release.send(()).unwrap();
            self.thread.join().unwrap();
        }
    }

    /// Records every delivered out-list, in delivery order.
    struct Collect;

    #[derive(Default, Clone)]
    struct Collected {
        started: bool,
        got: Vec<u32>,
    }

    impl VertexProgram for Collect {
        type State = Collected;
        type Msg = ();

        fn run(&self, v: VertexId, state: &mut Collected, ctx: &mut VertexContext<'_, ()>) {
            if !state.started {
                state.started = true;
                ctx.request(v, Request::edges(EdgeDir::Out));
            }
        }

        fn run_on_vertex(
            &self,
            _v: VertexId,
            state: &mut Collected,
            vertex: &PageVertex<'_>,
            _ctx: &mut VertexContext<'_, ()>,
        ) {
            state.got.extend(vertex.edges().map(|e| e.0));
        }
    }

    /// Every list the service delivers is `want`'s, and
    /// `edges_delivered` is their total.
    fn assert_serves(svc: &GraphService, want: &Graph, what: &str) {
        let (states, stats) = svc.run(&Collect, Init::All).unwrap();
        for v in want.vertices() {
            let list: Vec<u32> = want.out_neighbors(v).iter().map(|e| e.0).collect();
            assert_eq!(states[v.index()].got, list, "{what}: out-list of {v}");
        }
        assert_eq!(stats.edges_delivered, want.num_edges(), "{what}");
    }

    #[test]
    fn single_query_matches_path_levels() {
        let svc = service(2);
        let (states, stats) = svc.run(&Bfs, Init::Seeds(vec![VertexId(0)])).unwrap();
        for (i, s) in states.iter().enumerate() {
            assert!(s.visited);
            assert_eq!(s.level as usize, i);
        }
        assert!(stats.cache.is_some(), "sem runs report scoped cache stats");
        let snapshot = svc.stats();
        assert_eq!(snapshot.admitted, 1);
        assert_eq!(snapshot.completed, 1);
        assert_eq!(snapshot.cancelled, 0);
        assert_eq!(snapshot.deadline_expired, 0);
        assert_eq!(svc.inflight(), 0);
    }

    #[test]
    fn admission_cap_bounds_concurrency() {
        // A cap of 1 serializes six queries; no cap at all (0) admits
        // all six at once — the barrier inside the closure only opens
        // if it does — through the same gate loop, books balanced.
        const QUERIES: usize = 6;
        for (cap, want_peak) in [(1, 1), (0, QUERIES)] {
            let svc = service(cap);
            // Formerly SeqCst atomics "to be safe": the peak-overrun
            // assertion relies only on RMW atomicity, which is
            // ordering-independent, and the exact final read happens
            // after the scope joins every worker — a relaxed Counter's
            // contract exactly.
            let (live, peak) = (Counter::default(), Counter::default());
            let all_in = std::sync::Barrier::new(QUERIES);
            std::thread::scope(|s| {
                for _ in 0..QUERIES {
                    s.spawn(|| {
                        svc.query(|engine| {
                            let now = live.inc();
                            peak.max(now);
                            if cap == 0 {
                                all_in.wait();
                                assert_eq!(svc.queued(), 0, "nobody waits at an open gate");
                            }
                            let out = engine.run(&Bfs, Init::Seeds(vec![VertexId(0)])).unwrap();
                            live.sub(1);
                            out
                        });
                    });
                }
            });
            assert_eq!(peak.get(), want_peak as u64, "cap {cap}");
            let snapshot = svc.stats();
            assert_eq!(snapshot.admitted, QUERIES as u64);
            assert_eq!(snapshot.completed, QUERIES as u64);
            assert_eq!(snapshot.peak_inflight, want_peak, "cap {cap}");
            assert_eq!((svc.inflight(), svc.queued()), (0, 0));
        }
    }

    #[test]
    fn unlimited_cap_admits_everything_at_once() {
        let svc = Arc::new(service(0));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let svc = Arc::clone(&svc);
                s.spawn(move || svc.run(&Bfs, Init::Seeds(vec![VertexId(0)])).unwrap());
            }
        });
        assert_eq!(svc.stats().completed, 4);
    }

    #[test]
    fn queue_wait_is_reported() {
        let svc = Arc::new(service(1));
        std::thread::scope(|s| {
            for _ in 0..3 {
                let svc = Arc::clone(&svc);
                s.spawn(move || {
                    let (_, stats) = svc.run(&Bfs, Init::Seeds(vec![VertexId(0)])).unwrap();
                    // Every run reports some (possibly zero) wait.
                    let _ = stats.queue_wait_ns;
                });
            }
        });
        // Total service-side wait is the sum over tenants; with a cap
        // of 1 and 3 queries at least the bookkeeping must have run.
        let snap = svc.stats();
        assert_eq!(snap.admitted, 3);
        // Three samples landed in the histogram, so the percentiles
        // are coherent: p50 <= p95 <= p99.
        assert!(snap.queue_wait_p50_ns <= snap.queue_wait_p95_ns);
        assert!(snap.queue_wait_p95_ns <= snap.queue_wait_p99_ns);
    }

    #[test]
    fn panicking_tenant_still_books_its_queue_wait() {
        // Queue-wait is booked at admission time — not at completion —
        // so a tenant that panics mid-run cannot lose its wait from
        // the service-wide accounting (and its slot is released).
        let svc = Arc::new(service(1));
        let holder = hold_slot(&svc);
        let baseline = svc.stats().queue_wait_ns;
        let crasher = {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || {
                svc.query::<()>(|_| panic!("tenant crashed after waiting"));
            })
        };
        // Let the crasher reach the admission queue, then free the
        // slot so it gets admitted after a measurable wait.
        while svc.queued() == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(5));
        holder.release();
        assert!(crasher.join().is_err(), "tenant must have panicked");
        let snap = svc.stats();
        assert_eq!(snap.admitted, 2);
        assert!(
            snap.queue_wait_ns > baseline,
            "the panicking tenant's admission wait must be booked"
        );
        // The slot is free again: a follow-up query completes.
        let (states, _) = svc.run(&Bfs, Init::Seeds(vec![VertexId(0)])).unwrap();
        assert!(states[15].visited);
        assert_eq!(svc.inflight(), 0);
    }

    #[test]
    fn permit_released_on_query_panic() {
        let svc = Arc::new(service(1));
        let svc2 = Arc::clone(&svc);
        let r = std::thread::spawn(move || {
            svc2.query::<()>(|_| panic!("tenant crashed"));
        })
        .join();
        assert!(r.is_err());
        // The slot must be free again: a follow-up query completes.
        let (states, _) = svc.run(&Bfs, Init::Seeds(vec![VertexId(0)])).unwrap();
        assert!(states[15].visited);
        assert_eq!(svc.inflight(), 0);
    }

    #[test]
    fn cancelled_in_queue_frees_no_slot_and_books_wait() {
        let svc = Arc::new(service(1));
        let holder = hold_slot(&svc);
        let baseline = svc.stats().queue_wait_ns;
        let token = CancelToken::new();
        let waiter = {
            let svc = Arc::clone(&svc);
            let token = token.clone();
            std::thread::spawn(move || {
                svc.run_opts(
                    &Bfs,
                    Init::Seeds(vec![VertexId(0)]),
                    QueryOpts::new().with_cancel(token),
                )
            })
        };
        while svc.queued() == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        token.cancel();
        let out = waiter.join().unwrap();
        assert!(matches!(out, Err(FgError::Cancelled)));
        let snap = svc.stats();
        assert_eq!(snap.cancelled, 1);
        assert_eq!(snap.admitted, 1, "the cancelled waiter was never admitted");
        assert!(
            snap.queue_wait_ns > baseline,
            "the abandoned wait must be booked"
        );
        assert_eq!(svc.queued(), 0, "the waiter left the queue");
        // The holder still runs; releasing it leaves a clean gate.
        holder.release();
        assert_eq!(svc.inflight(), 0);
        let (states, _) = svc.run(&Bfs, Init::Seeds(vec![VertexId(0)])).unwrap();
        assert!(states[15].visited);
    }

    #[test]
    fn deadline_expires_in_queue() {
        let svc = Arc::new(service(1));
        let holder = hold_slot(&svc);
        let out = svc.run_opts(
            &Bfs,
            Init::Seeds(vec![VertexId(0)]),
            QueryOpts::new().with_deadline(Instant::now() + Duration::from_millis(15)),
        );
        assert!(matches!(out, Err(FgError::DeadlineExpired)));
        assert_eq!(svc.stats().deadline_expired, 1);
        assert_eq!(svc.queued(), 0);
        holder.release();
        assert_eq!(svc.inflight(), 0);
    }

    #[test]
    fn pre_fired_token_is_rejected_before_queueing() {
        // Also covers the unlimited-cap path: the token verdict comes
        // before any gate interaction.
        for cap in [0, 2] {
            let svc = service(cap);
            let token = CancelToken::new();
            token.cancel();
            let out = svc.run_opts(
                &Bfs,
                Init::Seeds(vec![VertexId(0)]),
                QueryOpts::new().with_cancel(token),
            );
            assert!(matches!(out, Err(FgError::Cancelled)));
            let snap = svc.stats();
            assert_eq!(snap.cancelled, 1);
            assert_eq!(snap.admitted, 0);
            assert_eq!(svc.inflight(), 0);
        }
    }

    #[test]
    fn cancelled_mid_run_frees_slot_and_leaves_consistent_stats() {
        let svc = service(1);
        let token = CancelToken::new();
        let out = svc.run_opts(
            &Bfs,
            Init::Seeds(vec![VertexId(0)]),
            QueryOpts::new().with_cancel(token.clone()),
        );
        assert!(out.is_ok(), "an unfired token does not disturb a run");
        let program = SelfCancellingBfs {
            token: token.clone(),
            at: 1,
        };
        let out = svc.run_opts(
            &program,
            Init::Seeds(vec![VertexId(0)]),
            QueryOpts::new().with_cancel(token),
        );
        assert!(matches!(out, Err(FgError::Cancelled)));
        let snap = svc.stats();
        assert_eq!(snap.cancelled, 1);
        // Both queries were admitted and both released their slot —
        // the mid-run cancel unwound through the Permit.
        assert_eq!(snap.admitted, 2);
        assert_eq!(snap.completed, 2);
        assert_eq!(svc.inflight(), 0);
        // Shared session/cache state stayed consistent: the mount's
        // cache books every lookup as a hit or a miss, nothing lost.
        let cache = svc.cache_stats();
        assert_eq!(cache.lookups, cache.hits + cache.misses);
        // And the slot is genuinely reusable.
        let (states, _) = svc.run(&Bfs, Init::Seeds(vec![VertexId(0)])).unwrap();
        assert!(states[15].visited);
    }

    #[test]
    fn query_opts_hands_the_token_to_the_engine() {
        let svc = service(2);
        let token = CancelToken::new();
        token.cancel();
        // Fired before admission: closure never runs.
        let ran = std::cell::Cell::new(false);
        let out = svc.query_opts(QueryOpts::new().with_cancel(token), |_| ran.set(true));
        assert!(matches!(out, Err(FgError::Cancelled)));
        assert!(!ran.get());
        // Fired mid-closure: runs on the handed engine error out.
        let token = CancelToken::new();
        let out = svc
            .query_opts(QueryOpts::new().with_cancel(token.clone()), |engine| {
                token.cancel();
                engine.run(&Bfs, Init::Seeds(vec![VertexId(0)]))
            })
            .unwrap();
        assert!(matches!(out, Err(FgError::Cancelled)));
        assert_eq!(svc.inflight(), 0);
    }

    #[test]
    fn high_priority_overtakes_low_in_the_queue() {
        let svc = Arc::new(service(1));
        let order: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
        let holder = hold_slot(&svc);
        std::thread::scope(|s| {
            // Low-priority waiters arrive first...
            for _ in 0..2 {
                let svc = Arc::clone(&svc);
                let order = Arc::clone(&order);
                s.spawn(move || {
                    svc.query_opts(QueryOpts::new().with_priority(Priority::Low), |_| {
                        order.lock().push("low");
                    })
                    .unwrap();
                });
            }
            while svc.queued() < 2 {
                std::thread::sleep(Duration::from_millis(1));
            }
            // ...then a high-priority one.
            {
                let svc = Arc::clone(&svc);
                let order = Arc::clone(&order);
                s.spawn(move || {
                    svc.query_opts(QueryOpts::new().with_priority(Priority::High), |_| {
                        order.lock().push("high");
                    })
                    .unwrap();
                });
            }
            while svc.queued() < 3 {
                std::thread::sleep(Duration::from_millis(1));
            }
            holder.release();
        });
        let order = order.lock();
        assert_eq!(
            order[0], "high",
            "the late high-priority waiter is admitted first: {order:?}"
        );
    }

    #[test]
    fn weighted_tenants_share_in_proportion() {
        let svc = Arc::new(service_cfg(
            ServiceConfig::default()
                .with_max_inflight(1)
                .with_engine(EngineConfig::small())
                .with_tenant("bulk", TenantConfig::default().with_weight(1))
                .with_tenant("interactive", TenantConfig::default().with_weight(4)),
        ));
        let order: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
        let holder = hold_slot(&svc);
        std::thread::scope(|s| {
            let mut arrived = 0;
            for (tenant, n) in [("bulk", 4), ("interactive", 4)] {
                for _ in 0..n {
                    let svc2 = Arc::clone(&svc);
                    let order = Arc::clone(&order);
                    s.spawn(move || {
                        svc2.query_opts(QueryOpts::new().with_tenant(tenant), |_| {
                            order.lock().push(tenant);
                        })
                        .unwrap();
                    });
                    // Stagger arrivals so queue order (and thus the
                    // FIFO tiebreak) is deterministic.
                    arrived += 1;
                    while svc.queued() < arrived {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
            }
            holder.release();
        });
        let order = order.lock();
        // Weight 4 vs 1: of the first five admissions, at least three
        // go to the heavy tenant (stride: B,I,I,I,I,B,... modulo the
        // first pick's FIFO tiebreak).
        let heavy = order[..5].iter().filter(|t| **t == "interactive").count();
        assert!(
            heavy >= 3,
            "weight-4 tenant got {heavy}/5 of the first admissions: {order:?}"
        );
        assert_eq!(order.len(), 8, "every query was eventually admitted");
    }

    #[test]
    fn zero_weight_tenant_is_clamped_and_served() {
        let cfg = ServiceConfig::default()
            .with_max_inflight(1)
            .with_engine(EngineConfig::small())
            .with_tenant("zero", TenantConfig::default().with_weight(0));
        // The declaration itself is already clamped to the documented
        // "zero is treated as 1".
        assert_eq!(cfg.tenant("zero").unwrap().weight, 1);
        let svc = service_cfg(cfg);
        let (states, _) = svc
            .run_opts(
                &Bfs,
                Init::Seeds(vec![VertexId(0)]),
                QueryOpts::new().with_tenant("zero"),
            )
            .unwrap();
        assert!(states[15].visited);
    }

    #[test]
    fn ad_hoc_tenant_passes_are_evicted_when_their_queue_drains() {
        // A service naming tenants from request metadata must not
        // grow the stride-pass map without bound.
        let svc = service(2);
        for i in 0..64 {
            svc.run_opts(
                &Bfs,
                Init::Seeds(vec![VertexId(0)]),
                QueryOpts::new().with_tenant(format!("drive-by-{i}")),
            )
            .unwrap();
        }
        assert_eq!(
            svc.gate.snapshot().tenant_passes,
            0,
            "undeclared tenants must not leak stride passes"
        );
        // Declared tenants keep theirs (long-run fairness).
        let svc = service_cfg(
            ServiceConfig::default()
                .with_max_inflight(1)
                .with_engine(EngineConfig::small())
                .with_tenant("regular", TenantConfig::default()),
        );
        svc.run_opts(
            &Bfs,
            Init::Seeds(vec![VertexId(0)]),
            QueryOpts::new().with_tenant("regular"),
        )
        .unwrap();
        assert_eq!(svc.gate.snapshot().tenant_passes, 1);
    }

    #[test]
    fn token_fired_while_queued_never_takes_the_freed_slot() {
        // The regression: a waiter whose token fires right before the
        // slot frees used to win the grant check first, consume the
        // slot, and spawn an engine that immediately unwound. The
        // grant branch now re-checks the token.
        let svc = Arc::new(service(1));
        let holder = hold_slot(&svc);
        let token = CancelToken::new();
        let waiter = {
            let svc = Arc::clone(&svc);
            let token = token.clone();
            std::thread::spawn(move || {
                svc.run_opts(
                    &Bfs,
                    Init::Seeds(vec![VertexId(0)]),
                    QueryOpts::new().with_cancel(token),
                )
            })
        };
        while svc.queued() == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Fire the token and free the slot back-to-back: the freed
        // slot's notify is (usually) what wakes the waiter, with its
        // grant condition true and its token already dead.
        token.cancel();
        holder.release();
        let out = waiter.join().unwrap();
        assert!(matches!(out, Err(FgError::Cancelled)));
        let snap = svc.stats();
        assert_eq!(
            snap.admitted, 1,
            "a dead waiter must never consume the freed slot"
        );
        assert_eq!(snap.cancelled, 1);
        assert_eq!(svc.inflight(), 0);
        // The slot is genuinely free for live queries.
        let (states, _) = svc.run(&Bfs, Init::Seeds(vec![VertexId(0)])).unwrap();
        assert!(states[15].visited);
    }

    #[test]
    fn ingest_is_visible_to_new_queries_and_watermarks_replay() {
        let svc = service(2);
        // path(16): 0 -> 1 -> ... -> 15. Splice in a shortcut.
        let mut batch = DeltaBatch::new();
        batch.add_edge(VertexId(0), VertexId(15));
        let w = svc.ingest(&batch).unwrap();
        assert_eq!(w, 1);
        assert_eq!(svc.watermark(), 1);
        assert!(svc.pending_deltas() > 0);
        // Fresh queries see the shortcut...
        let (states, _) = svc.run(&Bfs, Init::Seeds(vec![VertexId(0)])).unwrap();
        assert_eq!(states[15].level, 1, "the ingested shortcut must be taken");
        assert_eq!(states[1].level, 1, "base edges survive alongside deltas");
        // ...while a query pinned to watermark 0 replays the bare
        // image, bit-identical to the pre-ingest world.
        let (states, _) = svc
            .run_opts(
                &Bfs,
                Init::Seeds(vec![VertexId(0)]),
                QueryOpts::new().at_watermark(0),
            )
            .unwrap();
        assert_eq!(states[15].level, 15, "watermark 0 is the frozen image");
    }

    #[test]
    fn a_panic_under_the_log_lock_does_not_wedge_the_service() {
        // A base read that dies mid-apply — what a bug under
        // `BaseLists` looks like — unwinds through `ingest`'s lock, the
        // one every query's pin takes.
        let svc = service(2);
        let base = fixtures::path(16);
        let mut batch = DeltaBatch::new();
        batch.add_edge(VertexId(0), VertexId(15));
        ingest::BEFORE_BASE_READ.set(Some(Box::new(|| panic!("base read died"))));
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| svc.ingest(&batch)));
        assert!(died.is_err(), "the base read must have panicked");
        assert_eq!(svc.watermark(), 0, "a batch that died applied nothing");
        assert_serves(&svc, &base, "query after the panic");
        // And the log still takes a healthy batch.
        assert_eq!(svc.ingest(&batch).unwrap(), 1);
        let mirror = DeltaLog::for_graph(&base);
        mirror.apply(&base, &batch).unwrap();
        let want = DeltaLog::union(&base, &mirror.current_view());
        assert_serves(&svc, &want, "query after the healthy ingest");
    }

    #[test]
    fn removals_are_honored_at_delivery() {
        let svc = service(2);
        let mut batch = DeltaBatch::new();
        batch.remove_edge(VertexId(0), VertexId(1));
        svc.ingest(&batch).unwrap();
        let (states, _) = svc.run(&Bfs, Init::Seeds(vec![VertexId(0)])).unwrap();
        assert!(states[0].visited);
        assert!(
            !states[1].visited,
            "removing the only out-edge of the root disconnects the chain"
        );
    }

    #[test]
    fn compaction_flips_generation_and_preserves_answers() {
        let svc = service(2);
        let mut batch = DeltaBatch::new();
        batch.add_edge(VertexId(0), VertexId(15));
        batch.remove_edge(VertexId(7), VertexId(8));
        svc.ingest(&batch).unwrap();
        let (before, _) = svc.run(&Bfs, Init::Seeds(vec![VertexId(0)])).unwrap();
        let old_mount = svc.safs();
        let old_backend = Arc::downgrade(&svc.live.lock().backend);
        // A query pinned before the cutover keeps what it pinned across
        // it: generation 0's image and the deltas on top of it.
        svc.query(|engine| {
            let gen = svc
                .compact_with(|need| SsdArray::new_mem(ArrayConfig::small_test(), need))
                .unwrap();
            assert_eq!(gen, 1);
            let reads = old_mount.cache_stats().lookups;
            let (pinned, _) = engine.run(&Bfs, Init::Seeds(vec![VertexId(0)])).unwrap();
            assert_eq!(pinned[15].level, before[15].level);
            assert!(!pinned[8].visited, "the pinned view still removes 7 -> 8");
            assert!(
                old_mount.cache_stats().lookups > reads,
                "read off the old mount"
            );
        });
        // The old generation dies with that last pin: nothing but this
        // test's own handle holds its mount any more.
        assert!(old_backend.upgrade().is_none());
        assert_eq!(Arc::strong_count(&old_mount), 1);
        assert_eq!(svc.generation(), 1);
        assert_eq!(svc.pending_deltas(), 0, "compaction folded every run");
        // Same answers off the rewritten image, now with no overlay.
        let (after, _) = svc.run(&Bfs, Init::Seeds(vec![VertexId(0)])).unwrap();
        for v in 0..16 {
            assert_eq!(before[v].visited, after[v].visited, "vertex {v}");
            if before[v].visited {
                assert_eq!(before[v].level, after[v].level, "vertex {v}");
            }
        }
        // The handle is still valid, just no longer the serving one.
        assert!(!Arc::ptr_eq(&old_mount, &svc.safs()));
        // Ingest keeps working on top of the new generation.
        let mut batch = DeltaBatch::new();
        batch.add_edge(VertexId(7), VertexId(8));
        svc.ingest(&batch).unwrap();
        let (healed, _) = svc.run(&Bfs, Init::Seeds(vec![VertexId(0)])).unwrap();
        assert!(healed[8].visited, "re-added edge reconnects the tail");
        // An empty log makes compaction a no-op that keeps the
        // current generation.
        svc.compact_with(|need| SsdArray::new_mem(ArrayConfig::small_test(), need))
            .unwrap();
        let gen = svc
            .compact_with(|_| panic!("empty log must not provision"))
            .unwrap();
        assert_eq!(gen, svc.generation());
    }

    #[test]
    fn background_compactor_folds_past_the_threshold() {
        let svc = Arc::new(service(2));
        let compactor = Compactor::spawn(Arc::clone(&svc), 1, Duration::from_millis(2), |need| {
            SsdArray::new_mem(ArrayConfig::small_test(), need)
        });
        let mut batch = DeltaBatch::new();
        batch.add_edge(VertexId(0), VertexId(15));
        svc.ingest(&batch).unwrap();
        // Wait on the compactor's own completion signal: it is
        // published after the flip, so the generation is visible too.
        let done = compactor.wait_for_compactions(1, Duration::from_secs(10));
        assert_eq!(done, 1, "the compactor must have folded the batch");
        assert_eq!(svc.generation(), 1, "the flip precedes the signal");
        assert_eq!(svc.pending_deltas(), 0);
        assert_eq!(compactor.compactions(), 1);
        compactor.stop();
        // Queries keep matching the mutated graph afterwards.
        let (states, _) = svc.run(&Bfs, Init::Seeds(vec![VertexId(0)])).unwrap();
        assert_eq!(states[15].level, 1);
    }

    #[test]
    fn ingest_pins_its_base_where_no_compaction_can_flip_it_away() {
        // The schedule that used to corrupt the log: an ingest takes
        // generation 0 as its base, a compaction folds run 1 into
        // generation 1 and cuts over, and the ingest then canonicalizes
        // against the base it took — which lacks run 1's edges, while
        // the log no longer holds run 1 either. Re-adding an edge of
        // run 1 then records an effective `Add` on top of an image that
        // already has it (delivered twice), and removing one is dropped
        // as absent. The ingest below stops between taking its base and
        // reading it and gives a compaction every chance to land
        // there; base and log being one critical section it cannot, so
        // the wait runs out and the compaction follows the batch.
        for opts in [WriteOptions::default(), WriteOptions::compressed()] {
            let g = fixtures::path(16);
            let array =
                SsdArray::new_mem(ArrayConfig::small_test(), required_capacity_with(&g, &opts))
                    .unwrap();
            write_image_with(&g, &array, &opts).unwrap();
            let (_, index) = load_index(&array).unwrap();
            let safs = Safs::new(SafsConfig::default(), array).unwrap();
            let cfg = ServiceConfig::default().with_engine(EngineConfig::small());
            let svc = GraphService::new(safs, index, cfg);

            let mut first = DeltaBatch::new();
            first
                .add_edge(VertexId(0), VertexId(15))
                .add_edge(VertexId(3), VertexId(9));
            let mut second = DeltaBatch::new();
            second
                .add_edge(VertexId(0), VertexId(15))
                .remove_edge(VertexId(3), VertexId(9))
                .add_edge(VertexId(5), VertexId(2));
            let mirror = DeltaLog::for_graph(&g);
            mirror.apply(&g, &first).unwrap();
            mirror.apply(&g, &second).unwrap();
            let want = DeltaLog::union(&g, &mirror.current_view());

            svc.ingest(&first).unwrap();
            let (at_base_tx, at_base_rx) = unbounded();
            let (flipped_tx, flipped_rx) = unbounded::<()>();
            std::thread::scope(|s| {
                let (svc, second) = (&svc, &second);
                let ingest = s.spawn(move || {
                    ingest::BEFORE_BASE_READ.set(Some(Box::new(move || {
                        at_base_tx.send(()).unwrap();
                        let _ = flipped_rx.recv_timeout(Duration::from_millis(200));
                    })));
                    svc.ingest(second)
                });
                at_base_rx.recv().unwrap();
                let gen = svc
                    .compact_with(|need| SsdArray::new_mem(ArrayConfig::small_test(), need))
                    .unwrap();
                let _ = flipped_tx.send(());
                assert_eq!(gen, 1);
                assert_eq!(ingest.join().unwrap().unwrap(), 2);
            });
            let what = format!("{:?}", opts.format);
            assert_serves(&svc, &want, &what);
            // And again off the image alone, once everything is folded.
            svc.compact_with(|need| SsdArray::new_mem(ArrayConfig::small_test(), need))
                .unwrap();
            assert_eq!(svc.pending_deltas(), 0, "{what}");
            assert_serves(&svc, &want, &what);
        }
    }

    #[test]
    fn pins_racing_cutovers_see_a_coherent_generation() {
        // One writer: PER_GEN one-edge batches, then a compaction,
        // over and over — generation g's fold point is g * PER_GEN.
        // Readers pin as `serve` does, freshest and as-of by turns,
        // all the way through; the writer does not move on from a
        // generation before every reader has pinned in it.
        const READERS: usize = 3;
        const GENS: u64 = 6;
        const PER_GEN: u64 = 3;
        let svc = service(2);
        let seen: [Counter; READERS] = Default::default();
        std::thread::scope(|s| {
            let readers = seen.each_ref().map(|seen| {
                let svc = &svc;
                s.spawn(move || {
                    for turn in 0.. {
                        let as_of = (turn % 2 == 1).then(|| svc.watermark());
                        let (gen, backend, view) = svc.live.lock().pin(as_of);
                        // Generation number, image and view belong
                        // together: the image is the one stamped `gen`,
                        // and the view starts where that image ends.
                        assert_eq!(backend.metas().unwrap()[0].generation as u64, gen);
                        assert_eq!(view.floor(), gen * PER_GEN, "generation {gen}");
                        assert!(view.is_empty() || view.watermark() > view.floor());
                        seen.max(gen + 1);
                        if gen == GENS {
                            break;
                        }
                    }
                })
            });
            for gen in 0..GENS {
                for k in 0..PER_GEN {
                    let i = (gen * PER_GEN + k) as u32;
                    let mut batch = DeltaBatch::new();
                    batch.add_edge(VertexId(i % 16), VertexId((i % 16 + 2 + i / 16) % 16));
                    svc.ingest(&batch).unwrap();
                }
                while seen.iter().any(|s| s.get() <= gen) {
                    // A reader ends early only on a failed assertion.
                    assert!(!readers.iter().any(|r| r.is_finished()));
                    std::thread::yield_now();
                }
                let installed = svc
                    .compact_with(|need| SsdArray::new_mem(ArrayConfig::small_test(), need))
                    .unwrap();
                assert_eq!(installed, gen + 1);
            }
        });
    }

    #[test]
    fn compactor_counts_failed_rewrites_and_keeps_the_error() {
        let svc = Arc::new(service(2));
        let mut batch = DeltaBatch::new();
        batch.add_edge(VertexId(0), VertexId(15));
        svc.ingest(&batch).unwrap();
        // The device pool is dry for the first two rewrites.
        let calls = Counter::default();
        let compactor = Compactor::spawn(
            Arc::clone(&svc),
            1,
            Duration::from_millis(2),
            move |need| match calls.inc() {
                1 | 2 => Err(FgError::InvalidRequest("no spare device".into())),
                _ => SsdArray::new_mem(ArrayConfig::small_test(), need),
            },
        );
        assert_eq!(compactor.last_error(), None);
        let done = compactor.wait_for_compactions(1, Duration::from_secs(10));
        assert_eq!(done, 1, "the third poll must have installed generation 1");
        assert_eq!(svc.generation(), 1);
        assert_eq!(svc.pending_deltas(), 0);
        assert_eq!(compactor.failures(), 2);
        let error = compactor.last_error().expect("the error text is kept");
        assert!(error.contains("no spare device"), "{error}");
        compactor.stop();
        let (states, _) = svc.run(&Bfs, Init::Seeds(vec![VertexId(0)])).unwrap();
        assert_eq!(states[15].level, 1);
    }

    #[test]
    fn compactor_counts_a_panicking_rewrite_and_retries() {
        let svc = Arc::new(service(2));
        let mut batch = DeltaBatch::new();
        batch.add_edge(VertexId(0), VertexId(15));
        svc.ingest(&batch).unwrap();
        // The first rewrite panics where a rewrite can: in `provision`.
        let calls = Counter::default();
        let compactor =
            Compactor::spawn(Arc::clone(&svc), 1, Duration::from_millis(2), move |need| {
                if calls.inc() == 1 {
                    panic!("device pool blew up");
                }
                SsdArray::new_mem(ArrayConfig::small_test(), need)
            });
        let done = compactor.wait_for_compactions(1, Duration::from_secs(10));
        assert_eq!(done, 1, "the thread outlives the panic and retries");
        assert_eq!(compactor.failures(), 1);
        let error = compactor.last_error().expect("the panic's text is kept");
        assert!(error.contains("device pool blew up"), "{error}");
        compactor.stop();
        assert_eq!((svc.generation(), svc.pending_deltas()), (1, 0));
        let (states, _) = svc.run(&Bfs, Init::Seeds(vec![VertexId(0)])).unwrap();
        assert_eq!(states[15].level, 1);
    }

    #[test]
    fn compaction_leaves_the_next_generation_resident() {
        // path(16) is a four-page image; the cache holds eight.
        let svc = service(2);
        let provision = |need| SsdArray::new_mem(ArrayConfig::small_test(), need);
        let shortcut = |from: u32| {
            let mut batch = DeltaBatch::new();
            batch.add_edge(VertexId(from), VertexId(15));
            svc.ingest(&batch).unwrap();
        };
        let bfs = |engine: &Engine<'_>| {
            let (states, _) = engine.run(&Bfs, Init::Seeds(vec![VertexId(0)])).unwrap();
            states[15].level
        };
        shortcut(0);
        let old_mount = svc.safs();
        svc.query(|engine| {
            assert_eq!(svc.compact_with(provision).unwrap(), 1);
            // The compaction wrote the image through the new mount and
            // loaded its index from those pages: the device it
            // provisioned has been written, never read.
            let new_mount = svc.safs();
            assert_eq!(new_mount.array().stats().snapshot().bytes_read, 0);
            // A query pinned to generation 0 across the flip reads
            // generation 0's mount, and nothing of the new one.
            let (old, new) = (old_mount.cache_stats(), new_mount.cache_stats());
            assert_eq!(bfs(engine), 1);
            assert!(old_mount.cache_stats().lookups > old.lookups);
            assert_eq!(new_mount.cache_stats(), new);
        });
        // Generation 1 serves from the pages its compaction wrote.
        let mount = svc.safs();
        let (io, cache) = (mount.array().stats().snapshot(), mount.cache_stats());
        assert_eq!(svc.query(bfs), 1);
        let looked = mount.cache_stats().delta_since(&cache);
        assert!(looked.lookups > 0);
        assert_eq!(looked.misses, 0, "no page of generation 1 is missing");
        assert_eq!(mount.array().stats().snapshot().bytes_read, io.bytes_read);
        // So does the next compaction's read-back of it.
        shortcut(1);
        let io = mount.array().stats().snapshot();
        assert_eq!(svc.compact_with(provision).unwrap(), 2);
        assert_eq!(mount.array().stats().snapshot().bytes_read, io.bytes_read);
        assert_eq!(svc.safs().array().stats().snapshot().bytes_read, 0);
        assert_eq!(svc.query(bfs), 1);
    }

    /// 512 vertices: an R-MAT blob on ids 2..256, a hub (vertex 0, to
    /// 2..302, past the skip-table threshold), a two-edge list
    /// (vertex 1's) and empty lists from 302 on.
    fn oracle_base(directed: bool, weighted: bool) -> Graph {
        let mut b = if directed {
            GraphBuilder::directed()
        } else {
            GraphBuilder::undirected()
        };
        b.reserve_vertices(512);
        let blob = gen::rmat(8, 4, gen::RmatSkew::default(), 5);
        b.extend_edges(blob.edges().filter(|(s, d)| s.0 > 1 && d.0 > 1));
        for d in 2..302 {
            b.add_edge(VertexId(0), VertexId(d));
        }
        b.add_edge(VertexId(1), VertexId(2))
            .add_edge(VertexId(1), VertexId(3));
        let g = b.build();
        if weighted {
            gen::with_random_weights(&g, 9.0, 7)
        } else {
            g
        }
    }

    /// Two batches: the first empties vertex 1's list, fills vertex
    /// 511's and moves hub edges; the second adds to the list the first
    /// emptied and edits the hub again (re-adding, reweighting and
    /// removing edges, and cancelling an add of the first).
    fn oracle_batches() -> [DeltaBatch; 2] {
        let v = VertexId;
        let mut first = DeltaBatch::new();
        first.remove_edge(v(1), v(2)).remove_edge(v(1), v(3));
        first.add_weighted_edge(v(511), v(450), 2.5);
        for d in 10..20 {
            first.remove_edge(v(0), v(d));
        }
        for d in 400..420 {
            first.add_weighted_edge(v(0), v(d), d as f32 / 100.0);
        }
        let mut second = DeltaBatch::new();
        second.add_edge(v(1), v(500));
        second
            .add_weighted_edge(v(0), v(10), 0.5)
            .add_weighted_edge(v(0), v(50), 7.5)
            .remove_edge(v(0), v(400));
        for d in 100..110 {
            second.remove_edge(v(0), v(d));
        }
        [first, second]
    }

    #[test]
    fn compaction_writes_the_image_of_the_union_byte_for_byte() {
        let batches = oracle_batches();
        for (directed, weighted) in [(true, false), (true, true), (false, false), (false, true)] {
            let g = oracle_base(directed, weighted);
            for opts in [WriteOptions::default(), WriteOptions::compressed()] {
                for applied in 1..=2 {
                    let what = format!(
                        "directed {directed}, weighted {weighted}, {:?}, {applied} batches",
                        opts.format
                    );
                    let capacity = required_capacity_with(&g, &opts);
                    let array = SsdArray::new_mem(ArrayConfig::small_test(), capacity).unwrap();
                    write_image_with(&g, &array, &opts).unwrap();
                    let (_, index) = load_index(&array).unwrap();
                    let safs = Safs::new(SafsConfig::default(), array).unwrap();
                    let cfg = ServiceConfig::default().with_engine(EngineConfig::small());
                    let svc = GraphService::new(safs, index, cfg);
                    let mirror = DeltaLog::for_graph(&g);
                    for batch in &batches[..applied] {
                        svc.ingest(batch).unwrap();
                        mirror.apply(&g, batch).unwrap();
                    }
                    let union = DeltaLog::union(&g, &mirror.current_view());
                    assert!(union.out_degree(VertexId(0)) >= 255, "{what}: a hub");
                    let ones = [vec![], vec![VertexId(500)]];
                    assert_eq!(
                        union.out_neighbors(VertexId(1)),
                        ones[applied - 1],
                        "{what}"
                    );
                    assert_eq!(
                        union.out_neighbors(VertexId(511)),
                        [VertexId(450)],
                        "{what}"
                    );

                    let mut provisioned = None;
                    let gen = svc
                        .compact_with(|need| {
                            let array = SsdArray::new_mem(ArrayConfig::small_test(), need)?;
                            provisioned = Some((need, array.clone()));
                            Ok(array)
                        })
                        .unwrap();
                    assert_eq!(gen, 1, "{what}");
                    let (need, written) = provisioned.unwrap();
                    let opts = opts.with_generation(1);
                    assert_eq!(need, required_capacity_with(&union, &opts), "{what}");
                    let mut want = vec![0u8; need as usize];
                    let mut copy = |offset: u64, data: &[u8]| {
                        want[offset as usize..][..data.len()].copy_from_slice(data);
                        Ok(())
                    };
                    let total = write_image_to(&union, &opts, &mut copy, need)
                        .unwrap()
                        .total_bytes as usize;
                    let mut got = vec![0u8; total];
                    written.read(0, &mut got).unwrap();
                    let differs = (got.iter().zip(&want[..total])).position(|(a, b)| a != b);
                    assert_eq!(differs, None, "{what}: the first byte that differs");
                }
            }
        }
    }

    #[test]
    fn queries_pinned_before_ingest_are_isolated_from_it() {
        // A query admitted (and pinned) before an ingest completes
        // must not see it, even if the ingest lands mid-run — and pays
        // nothing for it: it requests exactly the bytes of a run on
        // the frozen image.
        let svc = Arc::new(service(2));
        let bfs = |engine: &Engine<'_>| engine.run(&Bfs, Init::Seeds(vec![VertexId(0)])).unwrap();
        let (_, frozen) = svc.query(bfs);
        let w0 = svc.watermark();
        let (pinned_tx, pinned_rx) = unbounded();
        let (go_tx, go_rx) = unbounded::<()>();
        let pinned = {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || {
                svc.query(|engine| {
                    // Pinned at admission; the ingest below lands
                    // while we hold the engine.
                    pinned_tx.send(()).unwrap();
                    go_rx.recv().unwrap();
                    bfs(engine)
                })
            })
        };
        pinned_rx.recv().unwrap();
        // The removal cuts 8..=14 off the root, so a run that saw the
        // batch would request fewer lists than the frozen one.
        let mut batch = DeltaBatch::new();
        batch.add_edge(VertexId(0), VertexId(15));
        batch.remove_edge(VertexId(7), VertexId(8));
        svc.ingest(&batch).unwrap();
        go_tx.send(()).unwrap();
        let (states, stats) = pinned.join().unwrap();
        assert_eq!(stats.bytes_requested, frozen.bytes_requested);
        assert_eq!(
            states[15].level, 15,
            "the pinned query must see the pre-ingest snapshot"
        );
        // A replay pinned at the pre-ingest watermark, admitted after it.
        let (replay, stats) = svc
            .query_opts(QueryOpts::new().at_watermark(w0), bfs)
            .unwrap();
        assert_eq!(stats.bytes_requested, frozen.bytes_requested);
        assert_eq!(replay[15].level, 15);
        let (fresh, _) = svc.run(&Bfs, Init::Seeds(vec![VertexId(0)])).unwrap();
        assert_eq!(fresh[15].level, 1, "new queries see the ingest");
    }
}
