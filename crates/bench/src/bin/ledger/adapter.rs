//! The ledger's only door into the workspace crates.
//!
//! Every call into `fg_*` / `flashgraph` goes through this file, and
//! nothing outside it names a workspace type: the rest of the ledger
//! sees opaque handles, plain integers and the flat [`RunView`] /
//! [`DeviceDelta`] records. A change that collapses or renames engine,
//! service or format APIs therefore has exactly one benchmark file to
//! update alongside it, and the metric definitions stay put.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use fg_format::{
    codec, load_index as fmt_load_index, required_capacity_with, required_shard_capacities,
    write_image_with, write_sharded_image, GraphIndex, ShardedIndex, WriteOptions,
};
use fg_graph::gen::{rmat, RmatSkew};
use fg_graph::{DeltaBatch, DeltaLog, DeltaView, Graph, GraphBuilder};
use fg_safs::{CacheStatsSnapshot, Page, PageCache, Safs, SafsConfig, ShardSet};
use fg_ssdsim::{ArrayConfig, IoStatsSnapshot, SsdArray};
use fg_types::{EdgeDir, VertexId};
use flashgraph::merge::{merge_requests, RangeReq};
use flashgraph::{
    Engine, EngineConfig, GraphEngine, GraphService, Init, PageVertex, QueryOpts, Request,
    RunStats, ServiceConfig, ShardedEngine, VertexContext, VertexProgram,
};

use crate::util::Rng;

/// Atomics come through `fg_types::sync`, the workspace's one audited
/// gateway to `std::sync::atomic` (its lint rejects any other path).
pub use fg_types::sync::{AtomicBool, AtomicU64, Counter, Ordering};

pub type Res<T> = Result<T, String>;

fn es(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The shipped engine configuration at `workers` threads.
fn engine_cfg(workers: usize) -> EngineConfig {
    EngineConfig::default().with_threads(workers)
}

fn new_array(capacity: u64) -> Res<SsdArray> {
    SsdArray::new_mem(ArrayConfig::paper_array(), capacity.max(4096)).map_err(es)
}

// ---------------------------------------------------------------- graphs

/// An in-memory graph.
pub struct G(Graph);

#[derive(Debug, Clone, Copy)]
pub enum Skew {
    Social,
    Web,
}

/// Directed R-MAT graph with `2^scale` vertices and about
/// `edge_factor * 2^scale` edges.
pub fn gen_graph(scale: u32, edge_factor: u32, skew: Skew, seed: u64) -> G {
    let skew = match skew {
        Skew::Social => RmatSkew::social(),
        Skew::Web => RmatSkew::web(),
    };
    G(rmat(scale, edge_factor, skew, seed))
}

/// The undirected view of a directed graph (triangle counting runs on
/// it, as in the reference implementations).
pub fn symmetrize(g: &G) -> G {
    let mut b = GraphBuilder::undirected();
    b.reserve_vertices(g.0.num_vertices());
    for (s, d) in g.0.edges() {
        b.add_edge(s, d);
    }
    G(b.build())
}

impl G {
    pub fn vertices(&self) -> usize {
        self.0.num_vertices()
    }

    pub fn edges(&self) -> u64 {
        self.0.num_edges()
    }

    pub fn out_degree(&self, v: u32) -> usize {
        self.0.out_degree(VertexId(v))
    }

    pub fn out_neighbor(&self, v: u32, i: usize) -> u32 {
        self.0.out_neighbors(VertexId(v))[i].0
    }

    pub fn has_edge(&self, src: u32, dst: u32) -> bool {
        self.0
            .out_neighbors(VertexId(src))
            .binary_search(&VertexId(dst))
            .is_ok()
    }

    /// Where traversal roots are drawn from: the 1024 highest
    /// out-degree vertices, or the top sixteenth of a graph too small
    /// for that many hubs.
    pub fn hub_pool(&self) -> Vec<u32> {
        self.top_out_degree((self.vertices() / 16).clamp(1, 1024))
    }

    /// The `k` highest out-degree vertices, highest first (ties by id).
    pub fn top_out_degree(&self, k: usize) -> Vec<u32> {
        let mut vs: Vec<u32> = (0..self.vertices() as u32).collect();
        vs.sort_by_key(|&v| (std::cmp::Reverse(self.out_degree(v)), v));
        vs.truncate(k);
        vs
    }
}

// ------------------------------------------------------- images and mounts

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    Raw,
    Compressed,
}

fn write_opts(format: Format) -> WriteOptions {
    match format {
        Format::Raw => WriteOptions::default(),
        Format::Compressed => WriteOptions::compressed(),
    }
}

/// A written on-SSD image, not yet mounted.
pub struct Image {
    array: SsdArray,
    bytes: u64,
}

impl Image {
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

pub fn write_image(g: &G, format: Format) -> Res<Image> {
    let opts = write_opts(format);
    let array = new_array(required_capacity_with(&g.0, &opts))?;
    let meta = write_image_with(&g.0, &array, &opts).map_err(es)?;
    Ok(Image {
        array,
        bytes: meta.total_bytes,
    })
}

/// The compact in-memory index of one image.
#[derive(Clone)]
pub struct Index(Arc<GraphIndex>);

impl Index {
    pub fn heap_bytes(&self) -> usize {
        self.0.heap_bytes()
    }
}

pub fn load_index(image: &Image) -> Res<Index> {
    let (_, index) = fmt_load_index(&image.array).map_err(es)?;
    Ok(Index(Arc::new(index)))
}

/// A SAFS mount over one image.
pub struct Fs(Safs);

pub fn mount(image: Image, cache_bytes: u64) -> Res<Fs> {
    let safs = Safs::new(
        SafsConfig::default().with_cache_bytes(cache_bytes),
        image.array,
    )
    .map_err(es)?;
    safs.reset_stats();
    Ok(Fs(safs))
}

/// One written image shard per array.
pub struct ShardImages {
    arrays: Vec<SsdArray>,
}

pub fn write_sharded(g: &G, shards: usize) -> Res<ShardImages> {
    let opts = WriteOptions::default();
    let arrays = required_shard_capacities(&g.0, &opts, shards)
        .into_iter()
        .map(new_array)
        .collect::<Res<Vec<_>>>()?;
    write_sharded_image(&g.0, &arrays, &opts).map_err(es)?;
    Ok(ShardImages { arrays })
}

#[derive(Clone)]
pub struct ShardIndex(Arc<ShardedIndex>, u64);

impl ShardIndex {
    /// Bytes of the whole image, summed over shards.
    pub fn image_bytes(&self) -> u64 {
        self.1
    }

    pub fn heap_bytes(&self) -> usize {
        self.0.heap_bytes()
    }
}

pub fn load_sharded_index(images: &ShardImages) -> Res<ShardIndex> {
    let (metas, index) = ShardedIndex::load(&images.arrays).map_err(es)?;
    let bytes = metas.iter().map(|m| m.total_bytes).sum();
    Ok(ShardIndex(Arc::new(index), bytes))
}

/// One SAFS mount per shard.
pub struct ShardFs(ShardSet);

pub fn mount_sharded(images: ShardImages, cache_bytes_per_shard: u64) -> Res<ShardFs> {
    let set = ShardSet::new(
        SafsConfig::default().with_cache_bytes(cache_bytes_per_shard),
        images.arrays,
    )
    .map_err(es)?;
    set.reset_stats();
    Ok(ShardFs(set))
}

// ------------------------------------------------------------ device stats

/// A point-in-time copy of a mount's device and page-cache counters.
pub struct DeviceSnap {
    io: IoStatsSnapshot,
    cache: CacheStatsSnapshot,
}

impl Fs {
    pub fn device(&self) -> DeviceSnap {
        DeviceSnap {
            io: self.0.array().stats().snapshot(),
            cache: self.0.cache_stats(),
        }
    }
}

/// What a mount did between two snapshots. Deltas add, so a workload
/// can total its measured passes.
#[derive(Debug, Clone, Default)]
pub struct DeviceDelta {
    pub read_requests: u64,
    pub bytes_read: u64,
    pub per_drive_busy_ns: Vec<u64>,
    pub depth_samples: u64,
    pub depth_sum: u64,
    pub depth_zero_dips: u64,
    pub dedup_hits: u64,
    pub dedup_bytes: u64,
    pub cache_lookups: u64,
    pub cache_hits: u64,
    pub cache_evictions: u64,
}

impl DeviceSnap {
    pub fn since(&self, earlier: &DeviceSnap) -> DeviceDelta {
        DeviceDelta::of(
            self.io.delta_since(&earlier.io),
            self.cache.delta_since(&earlier.cache),
        )
    }
}

impl DeviceDelta {
    fn of(io: IoStatsSnapshot, cache: CacheStatsSnapshot) -> DeviceDelta {
        DeviceDelta {
            read_requests: io.read_requests,
            bytes_read: io.bytes_read,
            per_drive_busy_ns: io.per_ssd_busy_ns,
            depth_samples: io.depth_samples,
            depth_sum: io.depth_sum,
            depth_zero_dips: io.depth_zero_dips,
            dedup_hits: io.dedup_hits,
            dedup_bytes: io.dedup_bytes,
            cache_lookups: cache.lookups,
            cache_hits: cache.hits,
            cache_evictions: cache.evictions,
        }
    }

    pub fn add(&mut self, other: &DeviceDelta) {
        self.read_requests += other.read_requests;
        self.bytes_read += other.bytes_read;
        if self.per_drive_busy_ns.len() < other.per_drive_busy_ns.len() {
            self.per_drive_busy_ns
                .resize(other.per_drive_busy_ns.len(), 0);
        }
        for (mine, theirs) in self
            .per_drive_busy_ns
            .iter_mut()
            .zip(&other.per_drive_busy_ns)
        {
            *mine += theirs;
        }
        self.depth_samples += other.depth_samples;
        self.depth_sum += other.depth_sum;
        self.depth_zero_dips += other.depth_zero_dips;
        self.dedup_hits += other.dedup_hits;
        self.dedup_bytes += other.dedup_bytes;
        self.cache_lookups += other.cache_lookups;
        self.cache_hits += other.cache_hits;
        self.cache_evictions += other.cache_evictions;
    }

    pub fn max_busy_ns(&self) -> u64 {
        self.per_drive_busy_ns.iter().copied().max().unwrap_or(0)
    }

    /// Busiest drive over mean drive busy time (1 = perfectly even).
    pub fn busy_skew(&self) -> f64 {
        let total: u64 = self.per_drive_busy_ns.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let mean = total as f64 / self.per_drive_busy_ns.len() as f64;
        self.max_busy_ns() as f64 / mean
    }
}

// ---------------------------------------------------------- apps and runs

/// One application run, as the workloads name it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum App {
    Bfs(u32),
    Bc(u32),
    Wcc,
    /// Delta PageRank (0.85, 1e-3) capped at this many iterations.
    Pr(u32),
    Tc,
}

impl App {
    pub fn name(self) -> &'static str {
        match self {
            App::Bfs(_) => "bfs",
            App::Bc(_) => "bc",
            App::Wcc => "wcc",
            App::Pr(_) => "pagerank",
            App::Tc => "triangle_count",
        }
    }
}

/// What an application computed.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    Levels(Vec<Option<u32>>),
    Labels(Vec<u32>),
    Count(u64),
    /// BC dependencies or PageRank ranks.
    Scores(Vec<f64>),
}

/// The statistics of one engine run, flattened.
#[derive(Debug, Clone, Default)]
pub struct RunView {
    pub wall_ns: u64,
    /// The paper's roofline: `max(wall, busiest drive)`.
    pub modeled_ns: u64,
    pub io_bound: bool,
    pub compute_ns: u64,
    pub wait_ns: u64,
    /// What the run's mount(s) did while it ran — mount-wide, so it
    /// includes concurrent tenants' traffic (and, on a mutable service,
    /// ingest and compaction reads).
    pub device: DeviceDelta,
    pub shard_msg_bytes: u64,
    pub iterations: u64,
    pub vertices_processed: u64,
    pub engine_requests: u64,
    pub issued_requests: u64,
    pub bytes_requested: u64,
    pub edges_delivered: u64,
    pub activations: u64,
    pub messages_sent: u64,
}

impl RunView {
    pub fn add(&mut self, o: &RunView) {
        self.wall_ns += o.wall_ns;
        self.modeled_ns += o.modeled_ns;
        self.compute_ns += o.compute_ns;
        self.wait_ns += o.wait_ns;
        self.device.add(&o.device);
        self.shard_msg_bytes += o.shard_msg_bytes;
        self.iterations += o.iterations;
        self.vertices_processed += o.vertices_processed;
        self.engine_requests += o.engine_requests;
        self.issued_requests += o.issued_requests;
        self.bytes_requested += o.bytes_requested;
        self.edges_delivered += o.edges_delivered;
        self.activations += o.activations;
        self.messages_sent += o.messages_sent;
    }
}

fn view(s: &RunStats) -> RunView {
    RunView {
        wall_ns: s.elapsed.as_nanos() as u64,
        modeled_ns: s.modeled_runtime_ns(),
        io_bound: s.io_bound(),
        compute_ns: s.compute_ns,
        wait_ns: s.wait_ns,
        device: match (&s.io, &s.cache_mount) {
            (Some(io), Some(cache)) => DeviceDelta::of(io.clone(), *cache),
            _ => DeviceDelta::default(),
        },
        shard_msg_bytes: s.shard_msg_bytes,
        iterations: u64::from(s.iterations),
        vertices_processed: s.vertices_processed,
        engine_requests: s.engine_requests,
        issued_requests: s.issued_requests,
        bytes_requested: s.bytes_requested,
        edges_delivered: s.edges_delivered,
        activations: s.activations,
        messages_sent: s.messages_sent,
    }
}

fn run_app<E: GraphEngine>(engine: &E, app: App) -> Res<(Answer, RunView)> {
    Ok(match app {
        App::Bfs(root) => {
            let (levels, s) = fg_apps::bfs(engine, VertexId(root)).map_err(es)?;
            (Answer::Levels(levels), view(&s))
        }
        App::Bc(root) => {
            let (delta, s) = fg_apps::bc_single_source(engine, VertexId(root)).map_err(es)?;
            (Answer::Scores(delta), view(&s))
        }
        App::Wcc => {
            let (labels, s) = fg_apps::wcc(engine).map_err(es)?;
            (Answer::Labels(labels), view(&s))
        }
        App::Pr(iters) => {
            let (ranks, s) = fg_apps::pagerank(engine, 0.85, 1e-3, iters).map_err(es)?;
            (
                Answer::Scores(ranks.into_iter().map(f64::from).collect()),
                view(&s),
            )
        }
        App::Tc => {
            let (total, _, s) = fg_apps::triangle_count(engine, false).map_err(es)?;
            (Answer::Count(total), view(&s))
        }
    })
}

/// `app` on the in-memory engine (the paper's FG-mem baseline).
pub fn run_mem(g: &G, app: App, workers: usize) -> Res<(Answer, RunView)> {
    run_app(&Engine::new_mem(&g.0, engine_cfg(workers)), app)
}

/// `app` on the semi-external engine over one mount.
pub fn run_sem(fs: &Fs, index: &Index, app: App, workers: usize) -> Res<(Answer, RunView)> {
    let engine = Engine::new_sem_shared(&fs.0, Arc::clone(&index.0), engine_cfg(workers));
    run_app(&engine, app)
}

/// The plain single-threaded oracle from `fg_baselines::direct`.
/// PageRank is power iteration with the same iteration count, so it is
/// only a reference for runs that converge (see [`check`]).
pub fn oracle(g: &G, app: App) -> Answer {
    use fg_baselines::direct;
    match app {
        App::Bfs(root) => Answer::Levels(direct::bfs_levels(&g.0, VertexId(root))),
        App::Bc(root) => Answer::Scores(direct::bc_single_source(&g.0, VertexId(root))),
        App::Wcc => Answer::Labels(direct::wcc_labels(&g.0)),
        App::Pr(iters) => Answer::Scores(direct::pagerank(&g.0, 0.85, iters)),
        App::Tc => Answer::Count(direct::triangle_count(&g.0)),
    }
}

/// Relative tolerance for score vectors, against `max(|want|, 1)`, when
/// both sides ran the same algorithm (betweenness against Brandes, an
/// engine against the in-memory engine): the same terms summed in
/// another order.
pub const SCORE_TOLERANCE: f64 = 1e-3;

/// ... and for delta PageRank against power iteration. Delta PageRank
/// stops propagating residues below its 1e-3 threshold, so each rank
/// lacks the unpropagated residue of its in-neighbourhood: 0.8 % on the
/// heaviest vertex of `pr_wcc_dense`. The engine's own test suite
/// allows 2 % for this comparison, and so does the ledger.
pub const PAGERANK_TOLERANCE: f64 = 2e-2;

/// Whether `got` is the same answer as `want`: exact for levels,
/// labels (both sides label a component by its smallest id, so equal
/// partitions are equal vectors) and counts; within `tolerance` for
/// scores.
pub fn check(got: &Answer, want: &Answer, tolerance: f64) -> Res<()> {
    match (got, want) {
        (Answer::Scores(g), Answer::Scores(w)) => {
            if g.len() != w.len() {
                return Err(format!("{} scores, expected {}", g.len(), w.len()));
            }
            for (i, (g, w)) in g.iter().zip(w).enumerate() {
                // Written so that a NaN fails the comparison.
                let within = (g - w).abs() <= tolerance * w.abs().max(1.0);
                if !within {
                    return Err(format!("vertex {i}: {g} vs {w}"));
                }
            }
            Ok(())
        }
        (g, w) if g == w => Ok(()),
        (Answer::Count(g), Answer::Count(w)) => Err(format!("count {g} vs {w}")),
        _ => Err("answers differ".to_string()),
    }
}

// ------------------------------------------------------------- the service

/// One edge mutation, as the workloads draw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    Add(u32, u32),
    Remove(u32, u32),
}

/// A batch of edge mutations, ready to ingest.
pub struct Batch(DeltaBatch, usize);

impl Batch {
    pub fn new(ops: &[Op]) -> Batch {
        let mut b = DeltaBatch::new();
        for &op in ops {
            match op {
                Op::Add(s, d) => b.add_edge(VertexId(s), VertexId(d)),
                Op::Remove(s, d) => b.remove_edge(VertexId(s), VertexId(d)),
            };
        }
        Batch(b, ops.len())
    }

    pub fn len(&self) -> usize {
        self.1
    }
}

/// The graph `g` becomes once `batches` are applied in order — a
/// mirror log over the in-memory graph, folded with `DeltaLog::union`.
pub fn union_with(g: &G, batches: &[&Batch]) -> Res<G> {
    let log = DeltaLog::for_graph(&g.0);
    for b in batches {
        log.apply(&g.0, &b.0).map_err(es)?;
    }
    Ok(G(DeltaLog::union(&g.0, &log.current_view())))
}

/// Admission-gate counters of a service.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeStats {
    pub admitted: u64,
    pub aborted: u64,
    pub peak_inflight: u64,
    pub queue_wait_p50_ns: u64,
    pub queue_wait_p99_ns: u64,
}

pub struct Service(GraphService);

fn service_cfg(max_inflight: usize, engine_workers: usize) -> ServiceConfig {
    ServiceConfig::default()
        .with_max_inflight(max_inflight)
        .with_engine(engine_cfg(engine_workers))
}

impl Service {
    pub fn sharded(fs: ShardFs, index: &ShardIndex, max_inflight: usize, workers: usize) -> Self {
        Service(GraphService::from_shared_sharded(
            Arc::new(fs.0),
            Arc::clone(&index.0),
            service_cfg(max_inflight, workers),
        ))
    }

    pub fn single(fs: Fs, index: &Index, max_inflight: usize, workers: usize) -> Self {
        Service(GraphService::from_shared(
            Arc::new(fs.0),
            Arc::clone(&index.0),
            service_cfg(max_inflight, workers),
        ))
    }

    /// One admitted query on a sharded service.
    pub fn query_sharded(&self, app: App) -> Res<(Answer, RunView)> {
        self.0
            .query_sharded_opts(QueryOpts::new(), |e| run_app(e, app))
            .map_err(es)?
    }

    /// One admitted query on a single-mount service.
    pub fn query(&self, app: App) -> Res<(Answer, RunView)> {
        self.0
            .query_opts(QueryOpts::new(), |e| run_app(e, app))
            .map_err(es)?
    }

    /// Admission, engine construction and release with no run inside —
    /// the fixed cost every sharded query pays.
    pub fn admit_only_sharded(&self) -> Res<()> {
        self.0
            .query_sharded_opts(QueryOpts::new(), |_| ())
            .map_err(es)
    }

    pub fn ingest(&self, batch: &Batch) -> Res<u64> {
        self.0.ingest(&batch.0).map_err(es)
    }

    /// Folds pending deltas into a fresh image on a fresh array and
    /// flips serving to it.
    pub fn compact(&self) -> Res<u64> {
        self.0
            .compact_with(|need| SsdArray::new_mem(ArrayConfig::paper_array(), need.max(4096)))
            .map_err(es)
    }

    pub fn pending_ops(&self) -> u64 {
        self.0.pending_deltas()
    }

    pub fn generation(&self) -> u64 {
        self.0.generation()
    }

    pub fn stats(&self) -> ServeStats {
        let s = self.0.stats();
        ServeStats {
            admitted: s.admitted,
            aborted: s.cancelled + s.deadline_expired,
            peak_inflight: s.peak_inflight as u64,
            queue_wait_p50_ns: s.queue_wait_p50_ns,
            queue_wait_p99_ns: s.queue_wait_p99_ns,
        }
    }

    /// Device and cache counters of the current generation's mount(s).
    /// Compaction installs a fresh mount, so deltas are only meaningful
    /// between snapshots of one generation.
    pub fn device(&self) -> DeviceSnap {
        match self.0.shard_set() {
            Some(set) => DeviceSnap {
                io: set.io_stats(),
                cache: set.cache_stats(),
            },
            None => {
                let safs = self.0.safs();
                DeviceSnap {
                    io: safs.array().stats().snapshot(),
                    cache: safs.cache_stats(),
                }
            }
        }
    }
}

// ------------------------------------------------------------------ probes

/// The probe ladder: vertex programs that each add one layer to the
/// one before, so the difference of two rungs prices that layer. Every
/// rung keeps its active set alive for a fixed number of iterations
/// (each vertex re-activates itself), which multiplies the work of a
/// run well above the engine's start-up jitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rung {
    /// `run` only re-activates its vertex: claim + ready pool + one
    /// activation per vertex and iteration.
    Spin,
    /// ... and requests the vertex's own out list, ignoring it:
    /// enqueue / sort / merge / flush / resolve + SAFS per request.
    Fetch,
    /// ... and sums `edges()`: the `PageVertex` decode per edge.
    Touch,
    /// ... and sends one message per edge: the message boards.
    Send,
    /// `Spin` plus [`FAN`] more `activate` calls per vertex and
    /// iteration.
    Fan,
}

/// Extra activations per vertex of [`Rung::Fan`].
pub const FAN: u64 = 7;

struct Ladder {
    rung: Rung,
    iters: u32,
}

impl VertexProgram for Ladder {
    type State = u64;
    type Msg = u32;

    fn run(&self, v: VertexId, _state: &mut u64, ctx: &mut VertexContext<'_, u32>) {
        if ctx.iteration() + 1 < self.iters {
            ctx.activate(v);
        }
        match self.rung {
            Rung::Spin => {}
            Rung::Fetch | Rung::Touch | Rung::Send => {
                ctx.request(v, Request::edges(EdgeDir::Out));
            }
            Rung::Fan => {
                // Re-activating the vertex itself keeps the active set
                // (and so the run's length) exactly `Spin`'s; a call
                // that finds its bit already set is also the common
                // case in a traversal.
                if ctx.iteration() + 1 < self.iters {
                    for _ in 0..FAN {
                        ctx.activate(v);
                    }
                }
            }
        }
    }

    fn run_on_vertex(
        &self,
        _v: VertexId,
        state: &mut u64,
        vertex: &PageVertex<'_>,
        ctx: &mut VertexContext<'_, u32>,
    ) {
        match self.rung {
            Rung::Touch => *state += vertex.edges().map(|e| u64::from(e.0)).sum::<u64>(),
            Rung::Send => {
                for dst in vertex.edges() {
                    ctx.send(dst, 1);
                }
            }
            _ => {}
        }
    }

    fn run_on_message(
        &self,
        _v: VertexId,
        state: &mut u64,
        msg: &u32,
        _ctx: &mut VertexContext<'_, u32>,
    ) {
        *state += u64::from(*msg);
    }
}

/// Which backend a ladder rung runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// `Engine::new_sem` over the raw image.
    Raw,
    /// ... over the delta-varint image.
    Varint,
    /// ... over the raw image with a delta view on every seed vertex.
    Overlay,
    /// A 1-shard `ShardedEngine` over the raw image.
    OneShard,
}

/// One probe sample: what ran, and for how long.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub ns: u64,
    pub ops: u64,
}

/// Remembers the first error of a timed loop without branching out of
/// it (the loop is what is being timed).
fn keep_first<E>(slot: &mut Option<E>, result: Result<(), E>) {
    if slot.is_none() {
        *slot = result.err();
    }
}

fn timed(ops: u64, f: impl FnOnce()) -> Sample {
    let t = Instant::now();
    f();
    Sample {
        ns: t.elapsed().as_nanos() as u64,
        ops,
    }
}

/// Everything the per-layer probes need, built once per workload from
/// the workload's own graph: three mounts of it (raw, varint, 1-shard),
/// a service, a stand-alone page cache sized like the workload's, a
/// zero-cache mount for guaranteed misses, and pre-drawn inputs.
pub struct ProbeKit<'g> {
    g: &'g G,
    workers: usize,
    seeds: Vec<VertexId>,
    raw: (Safs, Arc<GraphIndex>),
    varint: (Safs, Arc<GraphIndex>),
    one_shard: (ShardSet, Arc<ShardedIndex>),
    service: Service,
    view: Arc<DeltaView>,
    delta_batch: DeltaBatch,
    cache: PageCache,
    cache_pages: u64,
    miss_fs: Safs,
    merge_batches: Vec<Vec<RangeReq>>,
    blocks: Vec<(Vec<u8>, u64)>,
    merge_inputs: Vec<(VertexId, Vec<u32>)>,
}

const MISS_FS_PAGES: u64 = 4096;

impl<'g> ProbeKit<'g> {
    /// `seeds` is the active set the engine rungs start from (id
    /// order); every mount gets `image bytes / cache_share` of page
    /// cache, the workload's own proportion.
    pub fn build(
        g: &'g G,
        seeds: &[u32],
        cache_share: u64,
        workers: usize,
        rng: &mut Rng,
    ) -> Res<ProbeKit<'g>> {
        let n = g.vertices() as u64;
        let seeds: Vec<VertexId> = seeds.iter().map(|&v| VertexId(v)).collect();
        let cache_for = |image_bytes: u64| (image_bytes / cache_share).max(16 * 4096);
        let mount_of = |format| -> Res<(Safs, Arc<GraphIndex>)> {
            let image = write_image(g, format)?;
            let index = load_index(&image)?;
            let cache = cache_for(image.bytes());
            Ok((mount(image, cache)?.0, index.0))
        };
        let one_shard_set = || -> Res<(ShardFs, ShardIndex)> {
            let images = write_sharded(g, 1)?;
            let index = load_sharded_index(&images)?;
            let cache = cache_for(index.image_bytes());
            Ok((mount_sharded(images, cache)?, index))
        };
        let raw = mount_of(Format::Raw)?;
        let varint = mount_of(Format::Compressed)?;
        let (set, index) = one_shard_set()?;
        let one_shard = (set.0, index.0);
        let (set, index) = one_shard_set()?;
        let service = Service::sharded(set, &index, 1, 1);

        // One add per seed vertex, so every delivery of an overlay run
        // goes through the merge cursor; the same batch prices
        // `DeltaLog::apply`.
        let mut delta_batch = DeltaBatch::new();
        for &v in &seeds {
            delta_batch.add_edge(v, VertexId(rng.below(n) as u32));
        }
        let log = DeltaLog::for_graph(&g.0);
        log.apply(&g.0, &delta_batch).map_err(es)?;
        let view = log.current_view();
        let merge_inputs: Vec<(VertexId, Vec<u32>)> = seeds
            .iter()
            .filter(|&&v| view.list(v, EdgeDir::Out).is_some())
            .map(|&v| (v, g.0.out_neighbors(v).iter().map(|u| u.0).collect()))
            .collect();

        let cache_pages = raw.0.config().cache_pages() as u64;
        let cache = PageCache::new(cache_pages as usize, SafsConfig::default().cache_ways);
        for no in 0..cache_pages {
            cache.insert(Arc::new(Page::new(no, vec![0u8; 64].into_boxed_slice())));
        }
        let miss_fs = Safs::new(
            SafsConfig::default().with_cache_bytes(0),
            new_array(MISS_FS_PAGES * 4096)?,
        )
        .map_err(es)?;

        // 256-request issue batches as the engine would build them:
        // the located out lists of consecutive active vertices.
        let index = &raw.1;
        let reqs: Vec<RangeReq> = seeds
            .iter()
            .map(|&v| index.locate(v, EdgeDir::Out))
            .filter(|loc| loc.bytes > 0)
            .enumerate()
            .map(|(i, loc)| RangeReq {
                offset: loc.offset,
                bytes: loc.bytes,
                meta: i as u32,
            })
            .collect();
        let merge_batches: Vec<Vec<RangeReq>> = reqs.chunks(256).map(<[_]>::to_vec).collect();

        let k = WriteOptions::compressed().skip_interval;
        let blocks: Vec<(Vec<u8>, u64)> = seeds
            .iter()
            .filter_map(|&v| {
                let list: Vec<u32> = g.0.out_neighbors(v).iter().map(|u| u.0).collect();
                let mut block = Vec::new();
                codec::encode_list(&list, k, &mut block).then_some((block, list.len() as u64))
            })
            .collect();

        Ok(ProbeKit {
            g,
            workers,
            seeds,
            raw,
            varint,
            one_shard,
            service,
            view,
            delta_batch,
            cache,
            cache_pages,
            miss_fs,
            merge_batches,
            blocks,
            merge_inputs,
        })
    }

    /// `SsdArray::read`: 256 random 4 KiB reads and 16 sequential
    /// 64 KiB reads; ops = pages read.
    pub fn ssd_read(&self, rng: &mut Rng) -> Res<Sample> {
        let array = self.raw.0.array();
        let pages = array.capacity() / 4096;
        let seq_pages = pages.min(16);
        let random: Vec<u64> = (0..256).map(|_| rng.below(pages) * 4096).collect();
        let first_seq = rng.below(pages - seq_pages + 1) * 4096;
        let mut small = vec![0u8; 4096];
        let mut large = vec![0u8; (seq_pages * 4096) as usize];
        let mut failed = None;
        let sample = timed(256 + 16 * seq_pages, || {
            for &offset in &random {
                keep_first(&mut failed, array.read(offset, &mut small));
            }
            for _ in 0..16 {
                keep_first(&mut failed, array.read(first_seq, &mut large));
            }
            black_box((&small, &large));
        });
        failed.map_or(Ok(sample), |e| Err(es(e)))
    }

    /// `PageCache::get` on resident pages.
    pub fn cache_get(&self, rng: &mut Rng) -> Sample {
        let keys: Vec<u64> = (0..4096).map(|_| rng.below(self.cache_pages)).collect();
        timed(keys.len() as u64, || {
            for &k in &keys {
                black_box(self.cache.get(k));
            }
        })
    }

    /// `PageCache::insert` into a full cache (every insert evicts).
    pub fn cache_insert(&self, rng: &mut Rng) -> Sample {
        let pages: Vec<Arc<Page>> = (0..4096)
            .map(|_| {
                let no = (1 << 40) + rng.below(1 << 20);
                Arc::new(Page::new(no, vec![0u8; 64].into_boxed_slice()))
            })
            .collect();
        timed(pages.len() as u64, || {
            for p in pages {
                self.cache.insert(p);
            }
        })
    }

    /// One `IoSession::submit` → `wait` round trip on a miss, 64 times.
    pub fn hop(&self, rng: &mut Rng) -> Res<Sample> {
        let pages: Vec<u64> = (0..64).map(|_| rng.below(MISS_FS_PAGES)).collect();
        let mut session = self.miss_fs.session();
        let mut out = Vec::new();
        let mut failed = None;
        let sample = timed(pages.len() as u64, || {
            for (tag, &p) in pages.iter().enumerate() {
                keep_first(&mut failed, session.submit(p * 4096, 4096, tag as u64));
                while session.pending() > 0 {
                    session.wait(&mut out);
                }
                out.clear();
            }
        });
        failed.map_or(Ok(sample), |e| Err(es(e)))
    }

    /// 256 submits, then drain: the hop amortised over a batch.
    pub fn hop_batch(&self, rng: &mut Rng) -> Res<Sample> {
        let first = rng.below(MISS_FS_PAGES - 512);
        let mut session = self.miss_fs.session();
        let mut out = Vec::new();
        let mut failed = None;
        let sample = timed(256, || {
            for i in 0..256u64 {
                // Every other page, so no two requests share a page and
                // the I/O threads cannot merge them away.
                keep_first(&mut failed, session.submit((first + 2 * i) * 4096, 4096, i));
            }
            while session.pending() > 0 {
                session.wait(&mut out);
            }
        });
        failed.map_or(Ok(sample), |e| Err(es(e)))
    }

    /// `GraphIndex::locate` over the active set in id order.
    pub fn locate(&self) -> Sample {
        let index = &self.raw.1;
        timed(self.seeds.len() as u64, || {
            for &v in &self.seeds {
                black_box(index.locate(v, EdgeDir::Out));
            }
        })
    }

    /// `codec::decode_list` over the active set's compressed blocks;
    /// ops = edges decoded.
    pub fn decode(&self) -> Res<Sample> {
        let k = WriteOptions::compressed().skip_interval;
        let edges = self.blocks.iter().map(|b| b.1).sum();
        let mut failed = None;
        let sample = timed(edges, || {
            for (block, degree) in &self.blocks {
                match codec::decode_list(block, *degree, k) {
                    Ok(list) => {
                        black_box(list);
                    }
                    Err(e) => failed = Some(e),
                }
            }
        });
        failed.map_or(Ok(sample), |e| Err(es(e)))
    }

    /// `merge_requests` on 256-request batches; ops = requests.
    pub fn merge(&self) -> Sample {
        let cfg = engine_cfg(self.workers);
        let page = self.raw.0.page_bytes();
        let batches = self.merge_batches.clone();
        let reqs = batches.iter().map(|b| b.len() as u64).sum();
        timed(reqs, || {
            for batch in batches {
                black_box(merge_requests(
                    batch,
                    page,
                    cfg.merge_in_engine,
                    cfg.resolved_max_merge_bytes(),
                ));
            }
        })
    }

    /// One engine run of `rung` for `iters` iterations from the kit's
    /// active set (the floor when `None`: empty seeds, so only spawn +
    /// state + teardown remain).
    pub fn engine_run(
        &self,
        rung: Option<Rung>,
        iters: u32,
        backend: Backend,
    ) -> Res<(Sample, RunView)> {
        let cfg = engine_cfg(self.workers);
        let init = Init::Seeds(match rung {
            Some(_) => self.seeds.clone(),
            None => Vec::new(),
        });
        let program = Ladder {
            rung: rung.unwrap_or(Rung::Spin),
            iters,
        };
        let mut stats = None;
        let sample = match backend {
            Backend::Raw | Backend::Varint | Backend::Overlay => {
                let (safs, index) = if backend == Backend::Varint {
                    &self.varint
                } else {
                    &self.raw
                };
                let mut engine = Engine::new_sem_shared(safs, Arc::clone(index), cfg);
                if backend == Backend::Overlay {
                    engine = engine.with_deltas(Arc::clone(&self.view));
                }
                timed(0, || stats = Some(engine.run(&program, init)))
            }
            Backend::OneShard => {
                let (set, index) = &self.one_shard;
                let engine = ShardedEngine::new_shared(set, Arc::clone(index), cfg);
                timed(0, || stats = Some(engine.run(&program, init)))
            }
        };
        let (_, stats) = stats.expect("the timed body ran").map_err(es)?;
        Ok((sample, view(&stats)))
    }

    /// WCC on `Engine::new_sem` or on the 1-shard `ShardedEngine`.
    pub fn wcc(&self, backend: Backend) -> Res<Sample> {
        let cfg = engine_cfg(self.workers);
        let mut out = None;
        let sample = if backend == Backend::OneShard {
            let (set, index) = &self.one_shard;
            let engine = ShardedEngine::new_shared(set, Arc::clone(index), cfg);
            timed(1, || out = Some(fg_apps::wcc(&engine).map(|_| ())))
        } else {
            let engine = Engine::new_sem_shared(&self.raw.0, Arc::clone(&self.raw.1), cfg);
            timed(1, || out = Some(fg_apps::wcc(&engine).map(|_| ())))
        };
        out.expect("the timed body ran").map_err(es)?;
        Ok(sample)
    }

    /// Uncontended admission + sharded-engine construction, 64 times.
    pub fn admit(&self) -> Res<Sample> {
        let mut failed = None;
        let sample = timed(64, || {
            for _ in 0..64 {
                keep_first(&mut failed, self.service.admit_only_sharded());
            }
        });
        failed.map_or(Ok(sample), Err)
    }

    /// `DeltaLog::apply` of the kit's batch on a fresh mirror log over
    /// the graph; ops = batch ops.
    pub fn delta_apply(&self) -> Res<Sample> {
        let log = DeltaLog::for_graph(&self.g.0);
        let mut out = None;
        let sample = timed(self.delta_batch.len() as u64, || {
            out = Some(log.apply(&self.g.0, &self.delta_batch));
        });
        out.expect("the timed body ran").map_err(es)?;
        Ok(sample)
    }

    /// `DeltaView::merged_list` for every overlaid vertex; ops = merged
    /// edges produced.
    pub fn merged_list(&self) -> Sample {
        let mut edges = 0u64;
        let mut sample = timed(0, || {
            for (v, base) in &self.merge_inputs {
                let (ids, _) = self.view.merged_list(*v, EdgeDir::Out, base, None);
                edges += ids.len() as u64;
                black_box(ids);
            }
        });
        sample.ops = edges;
        sample
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_is_exact_for_structure_and_tolerant_for_scores() {
        let levels = Answer::Levels(vec![Some(0), None]);
        assert!(check(&levels, &levels.clone(), 0.0).is_ok());
        assert!(check(&levels, &Answer::Levels(vec![Some(0), Some(1)]), 1.0).is_err());
        assert!(check(&Answer::Count(3), &Answer::Count(4), 1.0).is_err());
        let want = Answer::Scores(vec![10.0, 0.0]);
        assert!(check(&Answer::Scores(vec![10.005, 0.0005]), &want, 1e-3).is_ok());
        assert!(check(&Answer::Scores(vec![10.02, 0.0]), &want, 1e-3).is_err());
        assert!(check(&Answer::Scores(vec![f64::NAN, 0.0]), &want, 1e-3).is_err());
        assert!(check(&Answer::Scores(vec![10.0]), &want, 1e-3).is_err());
        assert!(check(&levels, &want, 1.0).is_err());
    }

    #[test]
    fn device_deltas_add_and_skew() {
        let mut a = DeviceDelta {
            bytes_read: 10,
            per_drive_busy_ns: vec![30, 10],
            ..DeviceDelta::default()
        };
        let b = DeviceDelta {
            bytes_read: 5,
            per_drive_busy_ns: vec![10, 10, 20],
            ..DeviceDelta::default()
        };
        a.add(&b);
        assert_eq!(a.bytes_read, 15);
        assert_eq!(a.per_drive_busy_ns, vec![40, 20, 20]);
        assert_eq!(a.max_busy_ns(), 40);
        assert!((a.busy_skew() - 1.5).abs() < 1e-12);
        assert_eq!(DeviceDelta::default().busy_skew(), 0.0);
    }

    #[test]
    fn union_with_applies_adds_and_removes() {
        let g = gen_graph(6, 4, Skew::Social, 3);
        let v = g.top_out_degree(1)[0];
        let victim = g.out_neighbor(v, 0);
        let fresh = (0..g.vertices() as u32)
            .find(|&d| d != v && !g.has_edge(v, d))
            .unwrap();
        let batch = Batch::new(&[Op::Remove(v, victim), Op::Add(v, fresh)]);
        let u = union_with(&g, &[&batch]).unwrap();
        assert!(!u.has_edge(v, victim) && u.has_edge(v, fresh));
        assert_eq!(u.edges(), g.edges());
        assert_eq!(batch.len(), 2);
    }
}
