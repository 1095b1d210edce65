//! The per-callback context handed to vertex programs.

use std::sync::Arc;

use fg_format::ShardedIndex;
use fg_graph::{DeltaSlot, DeltaView, Graph};
use fg_types::{AtomicBitmap, EdgeDir, VertexId};

use crate::messages::Batch;
use crate::partition::PartitionMap;

/// Where per-vertex degrees come from: the CSR in in-memory mode, the
/// global router over the per-shard compact indexes (one shard for a
/// single mount) in semi-external mode.
///
/// The semi-external arm holds the index by `Arc` rather than
/// borrowing it from the engine: the index is shared, immutable state
/// that many concurrent runs (one per [`crate::GraphService`] query)
/// read simultaneously, each from its own `RunShared`.
pub(crate) enum DegreeSource<'g> {
    Graph(&'g Graph),
    Sharded(Arc<ShardedIndex>),
}

impl DegreeSource<'_> {
    pub(crate) fn degree(&self, v: VertexId, dir: EdgeDir) -> u64 {
        match self {
            DegreeSource::Graph(g) => match dir {
                EdgeDir::Both => {
                    if g.is_directed() {
                        (g.in_degree(v) + g.out_degree(v)) as u64
                    } else {
                        g.out_degree(v) as u64
                    }
                }
                EdgeDir::Out => g.out_degree(v) as u64,
                EdgeDir::In => g.in_degree(v) as u64,
            },
            DegreeSource::Sharded(ix) => match dir {
                EdgeDir::Both => {
                    if ix.is_directed() {
                        ix.degree(v, EdgeDir::In) + ix.degree(v, EdgeDir::Out)
                    } else {
                        ix.degree(v, EdgeDir::Out)
                    }
                }
                d => ix.degree(v, d),
            },
        }
    }

    pub(crate) fn is_directed(&self) -> bool {
        match self {
            DegreeSource::Graph(g) => g.is_directed(),
            DegreeSource::Sharded(ix) => ix.is_directed(),
        }
    }
}

/// One shard's view of the k > 1 run it belongs to: its owned global
/// id range and the router to every other shard. `None` in `RunShared` means a run without peers (one mount,
/// or in memory), where every vertex is "owned" and no routing
/// happens.
pub(crate) struct ShardView {
    /// First owned global vertex id.
    pub lo: u32,
    /// One past the last owned global vertex id.
    pub hi: u32,
    /// The global router (also this run's degree source).
    pub index: Arc<ShardedIndex>,
}

impl ShardView {
    /// Whether this shard's engine owns `v` (collects, computes, and
    /// delivers for it).
    #[inline]
    pub fn owns(&self, v: VertexId) -> bool {
        (self.lo..self.hi).contains(&v.0)
    }

    /// The shard owning `v`.
    #[inline]
    pub fn shard_of(&self, v: VertexId) -> usize {
        self.index.shard_of(v)
    }
}

/// Engine-wide immutable state visible to every worker.
pub(crate) struct RunShared<'g> {
    pub n: usize,
    pub vparts: u32,
    pub degrees: DegreeSource<'g>,
    pub pmap: PartitionMap,
    /// Present when this run executes one shard of several.
    pub shard: Option<ShardView>,
    /// Pinned delta overlay: ingested edges not yet compacted into
    /// the image this run reads. `None` (frozen image) keeps every
    /// pre-mutable path byte-identical.
    pub deltas: Option<Arc<DeltaView>>,
}

impl RunShared<'_> {
    /// Degree of `v` in the *logical* graph this run sees: the base
    /// image degree plus the pinned view's net diff. Requests clamp
    /// against this, so merged coordinates tile exactly.
    #[inline]
    pub(crate) fn merged_degree(&self, v: VertexId, dir: EdgeDir) -> u64 {
        let base = self.degrees.degree(v, dir) as i64;
        let diff = self.deltas.as_ref().map_or(0, |d| d.degree_diff(v, dir));
        (base + diff).max(0) as u64
    }

    /// The one lookup a request of `v`'s list in the single direction
    /// `dir` makes: its base degree, where its pinned delta ops sit in
    /// the view if it has any, and the merged degree it clamps
    /// against. The request carries the first two on, so nothing after
    /// it reads the degree or the view again.
    #[inline]
    fn lookup(&self, v: VertexId, dir: EdgeDir) -> (u64, Option<DeltaSlot>, u64) {
        let base = self.degrees.degree(v, dir);
        let found = (self.deltas.as_deref()).and_then(|view| Some((view, view.find(v, dir)?)));
        match found {
            Some((view, ops)) => {
                let merged = (base as i64 + view.at(ops).diff).max(0) as u64;
                (base, Some(ops), merged)
            }
            None => (base, None, base),
        }
    }
}

/// A first-class vertex I/O request: which list, which slice of it,
/// and whether the parallel attribute run rides along.
///
/// Built fluently and passed to [`VertexContext::request`]:
///
/// ```
/// use fg_types::EdgeDir;
/// use flashgraph::Request;
///
/// // The whole out-list.
/// let full = Request::edges(EdgeDir::Out);
/// // Eight edges starting at position 100 of a hub's list, with
/// // their weights.
/// let slice = Request::edges(EdgeDir::Out).range(100, 8).with_attrs();
/// assert_eq!(slice.positions(), Some((100, 8)));
/// assert!(full.positions().is_none());
/// ```
///
/// Ranges are expressed in *edge positions* (not bytes): position `i`
/// is the `i`-th neighbour of the sorted list. A range is clamped to
/// the list — `start` past the end or `len` crossing it deliver the
/// (possibly empty) intersection, never an error, so samplers can
/// probe positions without consulting degrees first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    dir: EdgeDir,
    attrs: bool,
    range: Option<(u64, u64)>,
}

impl Request {
    /// A request for the full edge list(s) of a vertex in `dir`.
    #[inline]
    pub fn edges(dir: EdgeDir) -> Self {
        Request {
            dir,
            attrs: false,
            range: None,
        }
    }

    /// Restricts the request to edge positions `[start, start + len)`
    /// of the list. For [`EdgeDir::Both`] the range applies to each
    /// direction's list independently.
    #[inline]
    pub fn range(mut self, start: u64, len: u64) -> Self {
        self.range = Some((start, len));
        self
    }

    /// Also fetches the parallel attribute run (sliced identically
    /// when a range is set), for [`crate::PageVertex::weighted_edges`].
    /// The graph image must carry attributes.
    #[inline]
    pub fn with_attrs(mut self) -> Self {
        self.attrs = true;
        self
    }

    /// The requested direction.
    #[inline]
    pub fn dir(&self) -> EdgeDir {
        self.dir
    }

    /// The `(start, len)` position range, if one was set.
    #[inline]
    pub fn positions(&self) -> Option<(u64, u64)> {
        self.range
    }
}

/// One resolved single-direction request (the unit that produces
/// exactly one `run_on_vertex` callback). Its range is already clamped
/// to the subject's list by the time one of these exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct EdgeRequest {
    /// The vertex whose list is wanted.
    pub subject: VertexId,
    /// The vertex that asked (receives the callback).
    pub requester: VertexId,
    /// A single direction (`Both` is split before it gets here).
    pub dir: EdgeDir,
    /// Whether the parallel attribute run is wanted too.
    pub attrs: bool,
    /// First edge position of the slice within the subject's list.
    pub start: u64,
    /// Number of edges in the slice (0 = empty delivery, no I/O).
    pub len: u64,
    /// The subject's degree in the base image (or CSR), before its
    /// pinned delta ops.
    pub base: u64,
    /// Where the subject's pinned delta ops sit in the run's view, if
    /// it has any: the request's `start` and `len` are then positions
    /// of the merged list.
    pub ops: Option<DeltaSlot>,
}

/// Per-worker mutable scratch the context writes into.
pub(crate) struct WorkerScratch<M> {
    /// Requests accumulated since the last issue flush.
    pub requests: Vec<EdgeRequest>,
    /// Spare buffer the engine swaps with `requests` while it absorbs
    /// them (always empty between absorptions).
    pub absorbing: Vec<EdgeRequest>,
    /// Packed outgoing unicasts per destination partition.
    pub out_unicasts: Vec<Vec<(VertexId, M)>>,
    /// Outgoing multicast batches per destination partition.
    pub out_multicasts: Vec<Vec<Batch<M>>>,
    /// Buffered per-vertex deliveries (for the flush threshold).
    pub buffered_fanout: u64,
    /// Foreign outboxes, one triple per *shard* (empty vectors for
    /// unsharded runs and for this engine's own shard): unicasts,
    /// multicasts, and activations destined for vertices another
    /// shard's engine owns. Flushed to the shard bus as batched
    /// packets alongside the local board flush.
    pub shard_unicasts: Vec<Vec<(VertexId, M)>>,
    pub shard_multicasts: Vec<Vec<Batch<M>>>,
    pub shard_activates: Vec<Vec<VertexId>>,
    /// New activations performed by this worker (bits actually set).
    pub activations: u64,
    /// Logical requests issued by this worker.
    pub engine_requests: u64,
}

impl<M> WorkerScratch<M> {
    pub(crate) fn new(partitions: usize, shards: usize) -> Self {
        WorkerScratch {
            requests: Vec::new(),
            absorbing: Vec::new(),
            out_unicasts: (0..partitions).map(|_| Vec::new()).collect(),
            out_multicasts: (0..partitions).map(|_| Vec::new()).collect(),
            buffered_fanout: 0,
            shard_unicasts: (0..shards).map(|_| Vec::new()).collect(),
            shard_multicasts: (0..shards).map(|_| Vec::new()).collect(),
            shard_activates: (0..shards).map(|_| Vec::new()).collect(),
            activations: 0,
            engine_requests: 0,
        }
    }

    /// Buffers `msg` for `to`'s partition's board.
    pub(crate) fn buffer_unicast(&mut self, pmap: &PartitionMap, to: VertexId, msg: M) {
        self.out_unicasts[pmap.partition_of(to)].push((to, msg));
        self.buffered_fanout += 1;
    }

    /// Buffers one payload for many recipients as one batch per
    /// destination partition (§3.4.1): every batch but the last gets
    /// a clone of the payload, the last takes it. Local multicasts and
    /// the foreign batches worker 0 drains off the shard bus both
    /// split here.
    pub(crate) fn buffer_multicast(&mut self, pmap: &PartitionMap, to: &[VertexId], msg: M)
    where
        M: Clone,
    {
        self.buffered_fanout += to.len() as u64;
        let parts = pmap.num_partitions();
        if parts == 1 {
            self.out_multicasts[0].push(Batch::Multicast(to.to_vec(), msg));
            return;
        }
        let mut per_part: Vec<Vec<VertexId>> = vec![Vec::new(); parts];
        for &v in to {
            per_part[pmap.partition_of(v)].push(v);
        }
        let Some(last) = per_part.iter().rposition(|vs| !vs.is_empty()) else {
            return;
        };
        for (p, vs) in per_part.iter_mut().enumerate().take(last) {
            if !vs.is_empty() {
                self.out_multicasts[p].push(Batch::Multicast(std::mem::take(vs), msg.clone()));
            }
        }
        let vs = std::mem::take(&mut per_part[last]);
        self.out_multicasts[last].push(Batch::Multicast(vs, msg));
    }
}

/// The context available inside every vertex-program callback.
///
/// Everything a vertex may do to the outside world goes through here:
/// requesting edge lists (its own or any other vertex's — the
/// flexibility §3.4 highlights for algorithms like Louvain), sending
/// messages, multicast, activating vertices, and registering for the
/// end-of-iteration event.
pub struct VertexContext<'w, M> {
    pub(crate) current: VertexId,
    pub(crate) iteration: u32,
    pub(crate) vpart: u32,
    pub(crate) shared: &'w RunShared<'w>,
    pub(crate) next_frontier: &'w AtomicBitmap,
    /// The vertices registered for this iteration's end.
    pub(crate) iteration_end: &'w AtomicBitmap,
    pub(crate) scratch: &'w mut WorkerScratch<M>,
}

impl<M> VertexContext<'_, M> {
    /// The current iteration (0-based).
    #[inline]
    pub fn iteration(&self) -> u32 {
        self.iteration
    }

    /// Number of vertices in the graph.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.shared.n
    }

    /// Whether the graph is directed.
    #[inline]
    pub fn is_directed(&self) -> bool {
        self.shared.degrees.is_directed()
    }

    /// `(current vertical pass, total passes)` — `(0, 1)` unless
    /// vertical partitioning is configured (§3.8).
    ///
    /// Compute is pipelined, so passes are *not* globally ordered: pass `j + 1`'s `run` may execute while pass
    /// `j`'s deliveries are still arriving (each callback for this
    /// vertex stays exclusive, whichever pass it belongs to). State
    /// that spans passes must therefore be pass-order independent —
    /// see `fg_apps::tc` for the canonical pattern.
    #[inline]
    pub fn vertical_part(&self) -> (u32, u32) {
        (self.vpart, self.shared.vparts)
    }

    /// Degree of any vertex, from the in-memory index — no I/O.
    /// [`EdgeDir::Both`] returns in+out for directed graphs. When the
    /// run carries a pinned delta view, this is the merged degree
    /// (base image plus uncompacted ingest), matching what a request
    /// for the full list delivers.
    #[inline]
    pub fn degree(&self, v: VertexId, dir: EdgeDir) -> u64 {
        self.shared.merged_degree(v, dir)
    }

    /// Activates `v` for the next iteration. Idempotent; the paper
    /// implements this as an empty multicast message, here it is a
    /// lock-free bitmap OR. In a sharded run, activating a vertex
    /// another shard owns buffers it for a batched bus packet instead
    /// (its owner performs the OR when it drains the bus).
    #[inline]
    pub fn activate(&mut self, v: VertexId) {
        if let Some(sv) = &self.shared.shard {
            if !sv.owns(v) {
                self.scratch.shard_activates[sv.shard_of(v)].push(v);
                self.scratch.buffered_fanout += 1;
                return;
            }
        }
        if !self.next_frontier.set(v) {
            self.scratch.activations += 1;
        }
    }

    /// Activates a batch.
    pub fn activate_many(&mut self, vs: &[VertexId]) {
        for &v in vs {
            self.activate(v);
        }
    }

    /// Issues a vertex I/O [`Request`] for `v`'s edge data. Each
    /// single direction of the request produces exactly one
    /// `run_on_vertex` callback *on the current vertex*, whose
    /// [`crate::PageVertex`] holds the whole list or the clamped range
    /// (reported by [`crate::PageVertex::offset`] /
    /// [`crate::PageVertex::range`]). A program that wants a long list
    /// in bounded slices asks for each slice as its own range.
    ///
    /// A range that clamps to nothing (zero `len`, or `start` at or
    /// past the list's end) and a zero-degree list both complete
    /// without any I/O, delivering one empty callback.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn request(&mut self, v: VertexId, req: Request) {
        assert!(
            v.index() < self.shared.n,
            "requested vertex {v} out of range ({} vertices)",
            self.shared.n
        );
        let requester = self.current;
        let dirs = if self.is_directed() {
            req.dir
        } else {
            EdgeDir::Out // undirected graphs have one list
        };
        for d in dirs.singles() {
            self.scratch.engine_requests += 1;
            let (base, ops, degree) = self.shared.lookup(v, d);
            let (start, len) = match req.range {
                None => (0, degree),
                Some((s, l)) => {
                    let s = s.min(degree);
                    (s, l.min(degree - s))
                }
            };
            self.scratch.requests.push(EdgeRequest {
                subject: v,
                requester,
                dir: d,
                attrs: req.attrs,
                start,
                len,
                base,
                ops,
            });
        }
    }

    /// Sends `msg` to vertex `to`, delivered via `run_on_message` at
    /// the iteration barrier (even if `to` is inactive). In a sharded
    /// run, a message to a vertex another shard owns buffers into
    /// that shard's outbox for a batched bus packet; its owner
    /// delivers it at the same barrier a local send would reach.
    pub fn send(&mut self, to: VertexId, msg: M) {
        if let Some(sv) = &self.shared.shard {
            if !sv.owns(to) {
                self.scratch.shard_unicasts[sv.shard_of(to)].push((to, msg));
                self.scratch.buffered_fanout += 1;
                return;
            }
        }
        self.scratch.buffer_unicast(&self.shared.pmap, to, msg);
    }

    /// Sends one payload to many vertices, copying it once per
    /// destination partition instead of once per recipient (§3.4.1).
    /// In a sharded run the same bundling applies across shards: one
    /// payload copy per destination shard rides the bus.
    pub fn multicast(&mut self, to: &[VertexId], msg: M)
    where
        M: Clone,
    {
        if to.is_empty() {
            return;
        }
        if let Some(sv) = &self.shared.shard {
            if !to.iter().all(|&v| sv.owns(v)) {
                let mut local = Vec::new();
                let mut per_shard: Vec<Vec<VertexId>> = vec![Vec::new(); sv.index.num_shards()];
                for &v in to {
                    if sv.owns(v) {
                        local.push(v);
                    } else {
                        per_shard[sv.shard_of(v)].push(v);
                    }
                }
                for (s, vs) in per_shard.into_iter().enumerate() {
                    if !vs.is_empty() {
                        self.scratch.buffered_fanout += vs.len() as u64;
                        self.scratch.shard_multicasts[s].push(Batch::Multicast(vs, msg.clone()));
                    }
                }
                if !local.is_empty() {
                    self.scratch
                        .buffer_multicast(&self.shared.pmap, &local, msg);
                }
                return;
            }
        }
        self.scratch.buffer_multicast(&self.shared.pmap, to, msg);
    }

    /// Registers the current vertex for `run_on_iteration_end` at the
    /// end of this iteration: one bit, so registering again in the
    /// same iteration changes nothing. Called from inside
    /// `run_on_iteration_end`, it registers for the next iteration's
    /// end.
    pub fn notify_iteration_end(&mut self) {
        self.iteration_end.set(self.current);
    }
}
