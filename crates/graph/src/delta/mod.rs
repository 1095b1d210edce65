//! The in-memory edge-delta layer of mutable graphs (the ROADMAP's
//! LSM-style ingest item).
//!
//! A [`RunLog`] — or a [`DeltaLog`], the same log behind a lock of
//! its own — accumulates edge additions and removals against a
//! *frozen* base graph (the on-SSD image) as a sequence of sorted
//! runs — one run per applied [`DeltaBatch`], its entries sorted by
//! `(src, dst)` with a per-source directory, so a query can splice a
//! vertex's pending ops into its base edge list in one ordered merge.
//! The vertex set is fixed (ids must stay inside the base graph);
//! only edges mutate, which is exactly the shape FlashGraph's
//! semi-external design wants: vertex state lives in RAM, edge lists
//! on SSD, and an in-memory overlay composes at delivery time.
//!
//! Three invariants make delivery-time merging O(1) amortized and
//! the bookkeeping exact:
//!
//! 1. **Ops are effective.** [`RunLog::apply`] canonicalizes each
//!    batch against the current logical graph (base image + earlier
//!    runs, via a [`BaseLists`] oracle): adding a present edge
//!    becomes a weight [`DeltaOp::Update`] (or a no-op), removing an
//!    absent edge is dropped. Every surviving `Add` therefore adds
//!    exactly one edge and every `Remove` removes exactly one, so a
//!    vertex's merged degree is `base_degree + Σ(adds - removes)` —
//!    no membership probe at query time.
//! 2. **Views are composed, not replayed.** [`RunLog::view`] folds
//!    the runs at or below a watermark into one sorted op list per
//!    vertex, composing op chains (`Remove` then `Add` ⇒ `Update`,
//!    `Add` then `Remove` ⇒ nothing) so each folded op is *relative
//!    to the base image*: `Add` ⇒ dst absent from the base list,
//!    `Remove`/`Update` ⇒ dst present. The delivery cursor never
//!    needs run order.
//! 3. **Views are materialized.** A [`DeltaView`] owns its folded
//!    ops; once built it is immune to later `apply`/`fold` calls.
//!    That is what gives `GraphService` snapshot isolation without a
//!    pin registry: a query holds an `Arc<DeltaView>` and the log can
//!    compact underneath it freely.
//!
//! Directionality follows [`Graph`]: a directed log mirrors each op
//! into the destination's in-list; an undirected log mirrors it into
//! both endpoints' (single-direction) lists. Self-loops are dropped,
//! as [`crate::GraphBuilder`] drops them, so no base list holds one
//! and no op ever names one.

use std::sync::Arc;

use fg_types::sync::Mutex;
use fg_types::{EdgeDir, Result, VertexId};

use crate::{Csr, Graph};

mod log;

pub use log::RunLog;

/// One effective, folded edge operation, relative to the base image
/// (see the module docs for why each kind implies base membership).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeltaOp {
    /// The edge is absent from the base list: splice it in, with the
    /// given weight (`None` ⇒ the default weight 1.0 on weighted
    /// graphs; ignored on unweighted ones).
    Add(Option<f32>),
    /// The edge is present in the base list with a different weight:
    /// keep it in place, deliver this weight instead. Produced only
    /// by canonicalization — batches carry `Add`/`Remove`.
    Update(f32),
    /// The edge is present in the base list: drop it from delivery.
    Remove,
}

impl DeltaOp {
    /// This op's contribution to the merged degree of its source.
    #[inline]
    fn degree_diff(self) -> i64 {
        match self {
            DeltaOp::Add(_) => 1,
            DeltaOp::Update(_) => 0,
            DeltaOp::Remove => -1,
        }
    }
}

/// What a batch asks for, before canonicalization.
#[derive(Debug, Clone, Copy, PartialEq)]
enum BatchOp {
    Add(Option<f32>),
    Remove,
}

/// A group of edge mutations applied atomically as one run. Entries
/// are replayed in insertion order, so `add(u,v); remove(u,v)` within
/// one batch nets to nothing.
#[derive(Debug, Clone, Default)]
pub struct DeltaBatch {
    entries: Vec<(VertexId, VertexId, BatchOp)>,
}

impl DeltaBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues the addition of edge `(src, dst)`.
    pub fn add_edge(&mut self, src: VertexId, dst: VertexId) -> &mut Self {
        self.entries.push((src, dst, BatchOp::Add(None)));
        self
    }

    /// Queues the addition of edge `(src, dst)` with a weight. On an
    /// edge that already exists in a weighted graph this becomes a
    /// weight update; on unweighted graphs the weight is ignored.
    pub fn add_weighted_edge(&mut self, src: VertexId, dst: VertexId, w: f32) -> &mut Self {
        self.entries.push((src, dst, BatchOp::Add(Some(w))));
        self
    }

    /// Queues the removal of edge `(src, dst)` (a no-op if absent).
    pub fn remove_edge(&mut self, src: VertexId, dst: VertexId) -> &mut Self {
        self.entries.push((src, dst, BatchOp::Remove));
        self
    }

    /// Number of queued (uncanonicalized) entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The base graph's frozen adjacency, consulted by
/// [`RunLog::apply`] to canonicalize batches. Implemented by
/// [`Graph`] (in-memory tests) and by the serving layer (reading the
/// current image generation back through its index).
pub trait BaseLists {
    /// The sorted out-neighbour list of `v` in the base graph.
    ///
    /// # Errors
    ///
    /// Propagates read failures from image-backed implementations.
    fn base_out_list(&self, v: VertexId) -> Result<Vec<u32>>;
}

impl<B: BaseLists + ?Sized> BaseLists for &B {
    fn base_out_list(&self, v: VertexId) -> Result<Vec<u32>> {
        (**self).base_out_list(v)
    }
}

impl BaseLists for Graph {
    fn base_out_list(&self, v: VertexId) -> Result<Vec<u32>> {
        Ok(self.out_neighbors(v).iter().map(|u| u.0).collect())
    }
}

/// A vertex's folded delta ops in one direction: sorted by
/// destination, each op effective relative to the base image, plus
/// the net degree change they imply.
#[derive(Debug, Clone, Default)]
pub struct DeltaList {
    /// `(dst, op)` sorted ascending by `dst`.
    pub ops: Vec<(u32, DeltaOp)>,
    /// `Σ adds - removes`: merged degree = base degree + `diff`.
    pub diff: i64,
}

/// One direction of a [`DeltaView`]: the folded lists of the vertices
/// that have any, indexed by a rank bitmap over the vertex ids. Vertex
/// `v` has a list iff bit `v` of `bits` is set, and it is
/// `lists[rank[v / 64] + (set bits of v's word below v)]`. A table with
/// no lists allocates nothing.
#[derive(Debug, Default)]
struct DeltaTable {
    /// One bit per vertex, set for the vertices with a list.
    bits: Vec<u64>,
    /// The number of set bits before each word of `bits`.
    rank: Vec<u32>,
    /// The lists, in vertex order.
    lists: Vec<DeltaList>,
}

impl DeltaTable {
    /// The table of `n` vertices from `(src, dst, op)` entries sorted
    /// by `(src, dst)`, the ops of one key in run order. Each key's ops
    /// are composed into one, and a vertex whose ops all cancel gets no
    /// list.
    fn from_sorted(n: usize, entries: &[(u32, u32, DeltaOp)]) -> Self {
        let mut table = DeltaTable::default();
        for group in entries.chunk_by(|a, b| a.0 == b.0) {
            let mut ops: Vec<(u32, DeltaOp)> = Vec::new();
            for key in group.chunk_by(|a, b| a.1 == b.1) {
                if let Some(op) = key.iter().fold(None, |acc, e| log::compose(acc, e.2)) {
                    ops.push((key[0].1, op));
                }
            }
            if ops.is_empty() {
                continue;
            }
            if table.bits.is_empty() {
                table.bits = vec![0; n.div_ceil(64)];
            }
            let src = group[0].0;
            table.bits[src as usize / 64] |= 1 << (src % 64);
            let diff = ops.iter().map(|(_, op)| op.degree_diff()).sum();
            table.lists.push(DeltaList { ops, diff });
        }
        table.rank = (table.bits.iter())
            .scan(0, |seen, word| {
                let before = *seen;
                *seen += word.count_ones();
                Some(before)
            })
            .collect();
        table
    }

    /// Where `v`'s list sits in `lists`: a bit test, and a popcount to
    /// find it.
    #[inline]
    fn find(&self, v: u32) -> Option<u32> {
        let w = (v / 64) as usize;
        let word = *self.bits.get(w)?;
        let bit = 1u64 << (v % 64);
        if word & bit == 0 {
            return None;
        }
        let below = (word & (bit - 1)).count_ones();
        Some(self.rank[w] + below)
    }
}

/// Where one vertex's folded ops sit in a [`DeltaView`]
/// ([`DeltaView::find`]): a handle a request carries from the lookup
/// that clamps it to the delivery that merges with the list, so the
/// view's bitmap is read once a request. Meaningful only for the view
/// that returned it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaSlot {
    /// Whether the list is in the in-table of a directed view.
    in_: bool,
    at: u32,
}

/// A materialized, immutable fold of the log's runs in
/// `(folded, watermark]` — the per-query snapshot.
///
/// Each direction is a table over the vertex ids (an undirected view
/// has one): a bitmap with a bit per vertex, a `u32` count of set bits
/// per 64-vertex word, and the folded lists of the vertices with a set
/// bit, in vertex order. Finding a vertex's list is a bit test and a
/// popcount; the index costs 0.19 B per vertex per direction for each
/// live view (nothing for a direction with no ops), beside the lists.
#[derive(Debug, Default)]
pub struct DeltaView {
    floor: u64,
    watermark: u64,
    directed: bool,
    out: DeltaTable,
    in_: DeltaTable,
}

impl DeltaView {
    /// The log's fold point when this view was built: runs at or
    /// below it are not in the view but in the base it applies to.
    pub fn floor(&self) -> u64 {
        self.floor
    }

    /// The run sequence number this view folds up to.
    pub fn watermark(&self) -> u64 {
        self.watermark
    }

    /// Whether the view carries no ops at all (queries skip the
    /// overlay machinery entirely).
    pub fn is_empty(&self) -> bool {
        self.out.lists.is_empty() && self.in_.lists.is_empty()
    }

    /// The folded ops of `v` in `dir`, if any. Undirected views
    /// resolve every direction to the single stored one, like
    /// [`Graph::csr`].
    #[inline]
    pub fn list(&self, v: VertexId, dir: EdgeDir) -> Option<&DeltaList> {
        self.find(v, dir).map(|slot| self.at(slot))
    }

    /// Where the folded ops of `v` in `dir` sit, if it has any: the
    /// lookup behind [`DeltaView::list`], as a handle for
    /// [`DeltaView::at`].
    #[inline]
    pub fn find(&self, v: VertexId, dir: EdgeDir) -> Option<DeltaSlot> {
        let in_ = self.directed && dir == EdgeDir::In;
        let table = if in_ { &self.in_ } else { &self.out };
        table.find(v.0).map(|at| DeltaSlot { in_, at })
    }

    /// The list at `slot`, which this view's [`DeltaView::find`]
    /// returned.
    #[inline]
    pub fn at(&self, slot: DeltaSlot) -> &DeltaList {
        let table = if slot.in_ { &self.in_ } else { &self.out };
        &table.lists[slot.at as usize]
    }

    /// Net degree change of `v` in `dir` (`Both` sums like
    /// `GraphIndex::degree`).
    #[inline]
    pub fn degree_diff(&self, v: VertexId, dir: EdgeDir) -> i64 {
        let diff = |d| self.list(v, d).map_or(0, |l| l.diff);
        match dir {
            EdgeDir::Both if self.directed => diff(EdgeDir::Out) + diff(EdgeDir::In),
            d => diff(d),
        }
    }

    /// The merged (base + deltas) edge list of `v` in `dir`, with
    /// weights when `weights` are supplied for the base list — the
    /// reference merge the delivery cursor must agree with.
    pub fn merged_list(
        &self,
        v: VertexId,
        dir: EdgeDir,
        base: &[u32],
        weights: Option<&[f32]>,
    ) -> (Vec<u32>, Option<Vec<f32>>) {
        let Some(list) = self.list(v, dir) else {
            return (base.to_vec(), weights.map(<[f32]>::to_vec));
        };
        let mut ids = Vec::with_capacity((base.len() as i64 + list.diff).max(0) as usize);
        let mut ws = weights.map(|_| Vec::with_capacity(ids.capacity()));
        fn emit(ids: &mut Vec<u32>, ws: &mut Option<Vec<f32>>, id: u32, w: f32) {
            ids.push(id);
            if let Some(ws) = ws {
                ws.push(w);
            }
        }
        let (mut bi, mut oi) = (0usize, 0usize);
        loop {
            let b = base.get(bi).copied();
            let o = list.ops.get(oi).copied();
            let base_w = |i: usize| weights.map_or(0.0, |w| w[i]);
            match (b, o) {
                (None, None) => break,
                (Some(bd), None) => {
                    emit(&mut ids, &mut ws, bd, base_w(bi));
                    bi += 1;
                }
                (bd, Some((od, op))) if bd.is_none_or(|bd| od < bd) => {
                    // Op ahead of the base stream: adds splice in;
                    // stray Remove/Update ops (their base entry is
                    // behind us, i.e. absent) are consumed silently.
                    if let DeltaOp::Add(w) = op {
                        emit(&mut ids, &mut ws, od, w.unwrap_or(1.0));
                    }
                    oi += 1;
                }
                (Some(bd), Some((od, op))) => {
                    if od > bd {
                        emit(&mut ids, &mut ws, bd, base_w(bi));
                        bi += 1;
                        continue;
                    }
                    // od == bd: the op owns this base entry.
                    match op {
                        DeltaOp::Remove => {}
                        DeltaOp::Update(w) => emit(&mut ids, &mut ws, bd, w),
                        DeltaOp::Add(w) => {
                            // Canonicalization forbids this, but fold
                            // it safely: emit once with the weight.
                            emit(&mut ids, &mut ws, bd, w.unwrap_or(1.0));
                            oi += 1;
                        }
                    }
                    bi += 1;
                }
                (None, Some(_)) => unreachable!("guarded arm covers bd = None"),
            }
        }
        (ids, ws)
    }
}

/// A [`RunLog`] behind a lock of its own: the log for callers with
/// nothing else to keep in step with it (mirrors, oracles, tests).
/// Each method is one critical section around the [`RunLog`] method of
/// the same name.
#[derive(Debug)]
pub struct DeltaLog {
    inner: Mutex<RunLog>,
}

impl DeltaLog {
    /// An empty log over `n` vertices.
    pub fn new(n: usize, directed: bool) -> Self {
        DeltaLog {
            inner: Mutex::new(RunLog::new(n, directed)),
        }
    }

    /// An empty log shaped like `g`.
    pub fn for_graph(g: &Graph) -> Self {
        Self::new(g.num_vertices(), g.is_directed())
    }

    /// Vertex count of the underlying graph.
    pub fn num_vertices(&self) -> usize {
        self.inner.lock().num_vertices()
    }

    /// Whether ops mirror into in-lists (directed) or into both
    /// endpoints' single lists (undirected).
    pub fn is_directed(&self) -> bool {
        self.inner.lock().is_directed()
    }

    /// Sequence number of the latest applied run (0 = none).
    pub fn watermark(&self) -> u64 {
        self.inner.lock().watermark()
    }

    /// Number of effective ops not yet folded into a base image.
    pub fn pending_ops(&self) -> u64 {
        self.inner.lock().pending_ops()
    }

    /// [`RunLog::apply`] under the lock: ingest is serialized, and
    /// `base` is read inside the critical section. `base` must be the
    /// base the log sits on; a caller that swaps bases when it folds
    /// owns a [`RunLog`] next to its base instead (see there).
    ///
    /// # Errors
    ///
    /// See [`RunLog::apply`].
    pub fn apply(&self, base: &dyn BaseLists, batch: &DeltaBatch) -> Result<u64> {
        self.inner.lock().apply(base, batch)
    }

    /// A materialized snapshot folding runs `(folded, watermark]`.
    pub fn view(&self, watermark: u64) -> Arc<DeltaView> {
        self.inner.lock().view(watermark)
    }

    /// The current-watermark snapshot.
    pub fn current_view(&self) -> Arc<DeltaView> {
        self.view(u64::MAX)
    }

    /// Drops every run with `seq <= up_to`: see [`RunLog::fold`].
    pub fn fold(&self, up_to: u64) {
        self.inner.lock().fold(up_to);
    }

    /// The union graph (base + this view) — the oracle the acceptance
    /// tests compare engine deliveries and compacted images against.
    ///
    /// # Panics
    ///
    /// Panics when `base`'s shape (vertex count, directedness) does
    /// not match the log the view came from.
    pub fn union(base: &Graph, view: &DeltaView) -> Graph {
        let build = |dir: EdgeDir| -> Csr {
            let csr = base.csr(dir);
            let (mut offsets, mut neighbors) = (vec![0u64], Vec::new());
            let mut weights: Option<Vec<f32>> = base.has_weights().then(Vec::new);
            for v in base.vertices() {
                let ids: Vec<u32> = csr.neighbors(v).iter().map(|u| u.0).collect();
                let (merged, ws) = view.merged_list(v, dir, &ids, csr.weights_of(v));
                neighbors.extend(merged.into_iter().map(VertexId));
                if let (Some(all), Some(ws)) = (&mut weights, ws) {
                    all.extend(ws);
                }
                offsets.push(neighbors.len() as u64);
            }
            Csr::from_parts(offsets, neighbors, weights).expect("merged CSR is well-formed")
        };
        let in_ = base.is_directed().then(|| build(EdgeDir::In));
        Graph::from_csr(base.is_directed(), build(EdgeDir::Out), in_)
            .expect("merged graph is well-formed")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{fixtures, GraphBuilder};
    use fg_types::FgError;

    fn ids(v: &[u32]) -> Vec<u32> {
        v.to_vec()
    }

    fn merged(g: &Graph, log: &DeltaLog, v: u32, dir: EdgeDir) -> Vec<u32> {
        let view = log.current_view();
        let base: Vec<u32> = g
            .csr(dir)
            .neighbors(VertexId(v))
            .iter()
            .map(|u| u.0)
            .collect();
        view.merged_list(VertexId(v), dir, &base, None).0
    }

    #[test]
    fn add_and_remove_merge_in_order() {
        let g = fixtures::path(6); // directed 0→1→…→5
        let log = DeltaLog::for_graph(&g);
        let mut b = DeltaBatch::new();
        b.add_edge(VertexId(0), VertexId(3))
            .add_edge(VertexId(0), VertexId(5))
            .remove_edge(VertexId(0), VertexId(1));
        assert_eq!(log.apply(&g, &b).unwrap(), 1);
        assert_eq!(merged(&g, &log, 0, EdgeDir::Out), ids(&[3, 5]));
        // In-direction mirrors.
        assert_eq!(merged(&g, &log, 3, EdgeDir::In), ids(&[0, 2]));
        assert_eq!(merged(&g, &log, 1, EdgeDir::In), ids(&[]));
        // Degree diffs agree.
        let view = log.current_view();
        assert_eq!(view.degree_diff(VertexId(0), EdgeDir::Out), 1);
        assert_eq!(view.degree_diff(VertexId(1), EdgeDir::In), -1);
    }

    #[test]
    fn duplicate_and_absent_ops_are_noops() {
        let g = fixtures::path(4);
        let log = DeltaLog::for_graph(&g);
        let mut b = DeltaBatch::new();
        b.add_edge(VertexId(0), VertexId(1)) // already in base
            .remove_edge(VertexId(0), VertexId(3)); // absent
        log.apply(&g, &b).unwrap();
        let view = log.current_view();
        assert!(view.is_empty(), "no effective ops: {view:?}");
        assert_eq!(merged(&g, &log, 0, EdgeDir::Out), ids(&[1]));
    }

    #[test]
    fn add_then_remove_within_batch_cancels() {
        let g = fixtures::path(4);
        let log = DeltaLog::for_graph(&g);
        let mut b = DeltaBatch::new();
        b.add_edge(VertexId(0), VertexId(2))
            .remove_edge(VertexId(0), VertexId(2));
        log.apply(&g, &b).unwrap();
        assert!(log.current_view().is_empty());
    }

    #[test]
    fn remove_then_readd_across_runs_is_update() {
        let g = fixtures::path(4);
        let log = DeltaLog::for_graph(&g);
        let mut b1 = DeltaBatch::new();
        b1.remove_edge(VertexId(1), VertexId(2));
        log.apply(&g, &b1).unwrap();
        assert_eq!(merged(&g, &log, 1, EdgeDir::Out), ids(&[]));
        let mut b2 = DeltaBatch::new();
        b2.add_edge(VertexId(1), VertexId(2));
        log.apply(&g, &b2).unwrap();
        // Present again; count math must give base degree exactly.
        assert_eq!(merged(&g, &log, 1, EdgeDir::Out), ids(&[2]));
        let view = log.current_view();
        assert_eq!(view.degree_diff(VertexId(1), EdgeDir::Out), 0);
    }

    #[test]
    fn undirected_ops_mirror_symmetrically() {
        let g = fixtures::star(4); // undirected: 0 — {1,2,3,4}
        let log = DeltaLog::for_graph(&g);
        let mut b = DeltaBatch::new();
        b.add_edge(VertexId(1), VertexId(2));
        b.remove_edge(VertexId(0), VertexId(3));
        log.apply(&g, &b).unwrap();
        assert_eq!(merged(&g, &log, 1, EdgeDir::Out), ids(&[0, 2]));
        assert_eq!(merged(&g, &log, 2, EdgeDir::Out), ids(&[0, 1]));
        assert_eq!(merged(&g, &log, 0, EdgeDir::Out), ids(&[1, 2, 4]));
        assert_eq!(merged(&g, &log, 3, EdgeDir::Out), ids(&[]));
        // In resolves to the single stored direction.
        assert_eq!(merged(&g, &log, 2, EdgeDir::In), ids(&[0, 1]));
    }

    #[test]
    fn out_of_range_rejected_self_loops_dropped() {
        let g = fixtures::path(3);
        let log = DeltaLog::for_graph(&g);
        let mut b = DeltaBatch::new();
        b.add_edge(VertexId(0), VertexId(9));
        assert!(matches!(
            log.apply(&g, &b),
            Err(FgError::VertexOutOfRange { .. })
        ));
        let mut b = DeltaBatch::new();
        b.add_edge(VertexId(1), VertexId(1));
        log.apply(&g, &b).unwrap();
        assert!(log.current_view().is_empty());
    }

    #[test]
    fn weight_updates_compose() {
        let g = fixtures::weighted_square();
        let log = DeltaLog::for_graph(&g);
        let (v0, v1) = (VertexId(0), VertexId(1));
        let base_ids: Vec<u32> = g.out_neighbors(v0).iter().map(|u| u.0).collect();
        assert!(base_ids.contains(&1));
        let mut b = DeltaBatch::new();
        b.add_weighted_edge(v0, v1, 9.5);
        log.apply(&g, &b).unwrap();
        let view = log.current_view();
        let ws = g.csr(EdgeDir::Out).weights_of(v0).unwrap();
        let (m, mw) = view.merged_list(v0, EdgeDir::Out, &base_ids, Some(ws));
        assert_eq!(m, base_ids, "update keeps the id list");
        let i = m.iter().position(|&d| d == 1).unwrap();
        assert_eq!(mw.unwrap()[i], 9.5);
    }

    #[test]
    fn fold_drops_runs_but_views_survive() {
        let g = fixtures::path(5);
        let log = DeltaLog::for_graph(&g);
        // The count the compactor polls is kept, not walked: after
        // every apply and fold it is what walking the runs gives.
        let walked = |log: &DeltaLog| -> u64 {
            let log = log.inner.lock();
            let lists = log.runs.iter().flat_map(|r| r.out.values());
            lists.map(|ops| ops.len() as u64).sum()
        };
        let mut b = DeltaBatch::new();
        b.add_edge(VertexId(0), VertexId(4));
        let w = log.apply(&g, &b).unwrap();
        assert_eq!((log.pending_ops(), walked(&log)), (1, 1));
        let pinned = log.current_view();
        // A second run, a no-op and a self-loop among its entries.
        let mut b = DeltaBatch::new();
        b.add_edge(VertexId(1), VertexId(3))
            .remove_edge(VertexId(2), VertexId(3))
            .add_edge(VertexId(0), VertexId(1))
            .add_edge(VertexId(2), VertexId(2));
        let w2 = log.apply(&g, &b).unwrap();
        assert_eq!((log.pending_ops(), walked(&log)), (3, 3));
        log.fold(w);
        assert_eq!((log.pending_ops(), walked(&log)), (2, 2));
        let rest = log.current_view();
        assert_eq!((rest.floor(), rest.watermark()), (w, w2));
        assert!(rest.list(VertexId(0), EdgeDir::Out).is_none());
        log.fold(w2);
        assert_eq!((log.pending_ops(), walked(&log)), (0, 0));
        assert!(log.current_view().is_empty(), "folded runs drop out");
        // The pinned snapshot still sees the op.
        assert_eq!(pinned.degree_diff(VertexId(0), EdgeDir::Out), 1);
        assert_eq!(pinned.floor(), 0);
        assert_eq!(log.watermark(), w2, "watermark is monotone across folds");
    }

    #[test]
    fn union_matches_builder_on_random_edits() {
        // Base: a small deterministic graph; edits: a scripted mix.
        let g = fixtures::two_components(3, 8);
        let log = DeltaLog::for_graph(&g);
        let mut b = DeltaBatch::new();
        b.add_edge(VertexId(0), VertexId(7))
            .add_edge(VertexId(4), VertexId(6))
            .remove_edge(VertexId(0), VertexId(1))
            .add_edge(VertexId(5), VertexId(3));
        log.apply(&g, &b).unwrap();
        let u = DeltaLog::union(&g, &log.current_view());
        // Rebuild the same union with the builder for comparison.
        let mut bld = GraphBuilder::directed();
        bld.reserve_vertices(g.num_vertices());
        for (s, d) in g.edges() {
            if (s.0, d.0) == (0, 1) {
                continue;
            }
            bld.add_edge(s, d);
        }
        bld.add_edge(VertexId(0), VertexId(7));
        bld.add_edge(VertexId(4), VertexId(6));
        bld.add_edge(VertexId(5), VertexId(3));
        let want = bld.build();
        for v in u.vertices() {
            assert_eq!(u.out_neighbors(v), want.out_neighbors(v), "out list of {v}");
            assert_eq!(u.in_neighbors(v), want.in_neighbors(v), "in list of {v}");
        }
    }

    /// A base that records which lists it was asked for.
    struct Recording<'a>(&'a Graph, std::cell::RefCell<Vec<u32>>);

    impl BaseLists for Recording<'_> {
        fn base_out_list(&self, v: VertexId) -> Result<Vec<u32>> {
            self.1.borrow_mut().push(v.0);
            self.0.base_out_list(v)
        }
    }

    #[test]
    fn apply_fetches_each_source_once_in_ascending_order() {
        let mut b = DeltaBatch::new();
        b.add_edge(VertexId(4), VertexId(0))
            .add_edge(VertexId(1), VertexId(3))
            .remove_edge(VertexId(4), VertexId(2))
            .add_edge(VertexId(2), VertexId(2)) // self-loop: no fetch
            .add_edge(VertexId(0), VertexId(4));
        let g = fixtures::path(5);
        let base = Recording(&g, Default::default());
        DeltaLog::for_graph(&g).apply(&base, &b).unwrap();
        assert_eq!(*base.1.borrow(), [0, 1, 4]);
        // Undirected logs canonicalize both endpoints.
        let g = fixtures::star(4);
        let base = Recording(&g, Default::default());
        DeltaLog::for_graph(&g).apply(&base, &b).unwrap();
        assert_eq!(*base.1.borrow(), [0, 1, 2, 3, 4]);
        // A bad endpoint is refused before any list is fetched.
        let mut bad = DeltaBatch::new();
        bad.add_edge(VertexId(0), VertexId(1))
            .add_edge(VertexId(0), VertexId(9));
        let base = Recording(&g, Default::default());
        assert!(DeltaLog::for_graph(&g).apply(&base, &bad).is_err());
        assert!(base.1.borrow().is_empty());
    }

    /// A base whose reads die mid-canonicalization.
    struct PanickingBase;

    impl BaseLists for PanickingBase {
        fn base_out_list(&self, _v: VertexId) -> Result<Vec<u32>> {
            panic!("base read died")
        }
    }

    // ------------------------------- the view's table vs a reference

    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The logical graph by definition: each edge and its weight, as
    /// replaying the batches entry by entry leaves them.
    type Model = BTreeMap<(u32, u32), f32>;

    /// Replays `batch` on `model`: an add of an absent edge inserts it
    /// (weight 1.0 unless it carries one), an add of a present one
    /// re-weights it if it carries a weight, a remove drops it.
    fn replay(model: &mut Model, directed: bool, batch: &DeltaBatch) {
        for &(s, d, op) in &batch.entries {
            if s == d {
                continue;
            }
            let keys = [(s.0, d.0), (d.0, s.0)];
            for &key in &keys[..if directed { 1 } else { 2 }] {
                match (op, model.get_mut(&key)) {
                    (BatchOp::Add(Some(w)), Some(cur)) => *cur = w,
                    (BatchOp::Add(None), Some(_)) => {}
                    (BatchOp::Add(w), None) => drop(model.insert(key, w.unwrap_or(1.0))),
                    (BatchOp::Remove, _) => drop(model.remove(&key)),
                }
            }
        }
    }

    /// The graph `model` describes, weighted.
    fn graph_of(n: usize, directed: bool, model: &Model) -> Graph {
        let mut b = if directed {
            GraphBuilder::directed()
        } else {
            GraphBuilder::undirected()
        };
        b.reserve_vertices(n);
        for (&(s, d), &w) in model {
            if directed || s < d {
                b.add_weighted_edge(VertexId(s), VertexId(d), w);
            }
        }
        b.build()
    }

    /// A random batch over `n` vertices; a third of its entries name
    /// an edge of `model`, so removes and re-weights find their edge.
    fn random_batch(rng: &mut TestRng, n: usize, model: &Model) -> DeltaBatch {
        let mut batch = DeltaBatch::new();
        let present: Vec<(u32, u32)> = model.keys().copied().collect();
        for _ in 0..rng.below(2 * n as u64 + 4) {
            let (s, d) = match rng.below(3) {
                0 if !present.is_empty() => present[rng.below(present.len() as u64) as usize],
                _ => (rng.below(n as u64) as u32, rng.below(n as u64) as u32),
            };
            let (s, d) = (VertexId(s), VertexId(d));
            match rng.below(4) {
                0 => batch.add_edge(s, d),
                1 => batch.add_weighted_edge(s, d, rng.below(8) as f32),
                _ => batch.remove_edge(s, d),
            };
        }
        batch
    }

    /// The reference fold of `log`'s retained runs up to `watermark`:
    /// per direction (out, then in), each edge's ops composed in run
    /// order, edges whose ops cancel left out.
    fn reference_fold(log: &RunLog, watermark: u64) -> [BTreeMap<(u32, u32), DeltaOp>; 2] {
        let mut dirs: [BTreeMap<(u32, u32), Option<DeltaOp>>; 2] = Default::default();
        for run in log.runs.iter().filter(|r| r.seq <= watermark) {
            for (folded, ops) in dirs.iter_mut().zip([&run.out, &run.in_]) {
                for (&src, list) in ops {
                    for &(dst, op) in list {
                        let acc = folded.entry((src, dst)).or_default();
                        *acc = log::compose(*acc, op);
                    }
                }
            }
        }
        dirs.map(|m| m.into_iter().filter_map(|(k, op)| Some((k, op?))).collect())
    }

    /// Every query of `view` against the reference fold of the same
    /// runs and, for the merged lists, against `model` over `base`.
    fn check_view(
        view: &DeltaView,
        reference: &[BTreeMap<(u32, u32), DeltaOp>; 2],
        base: &Graph,
        model: &Model,
    ) -> std::result::Result<(), TestCaseError> {
        let directed = base.is_directed();
        prop_assert_eq!(view.is_empty(), reference.iter().all(BTreeMap::is_empty));
        let n = base.num_vertices() as u32;
        for v in 0..n {
            let mut diffs = [0i64; 2];
            for dir in [EdgeDir::Out, EdgeDir::In] {
                let t = usize::from(directed && dir == EdgeDir::In);
                let want: Vec<(u32, DeltaOp)> = reference[t]
                    .range((v, 0)..=(v, u32::MAX))
                    .map(|(&(_, dst), &op)| (dst, op))
                    .collect();
                let diff: i64 = want.iter().map(|(_, op)| op.degree_diff()).sum();
                match view.list(VertexId(v), dir) {
                    None => prop_assert!(want.is_empty(), "{v} {dir:?}: no list, want {want:?}"),
                    Some(l) => {
                        prop_assert_eq!((v, dir, &l.ops), (v, dir, &want));
                        prop_assert_eq!((v, dir, l.diff), (v, dir, diff));
                    }
                }
                prop_assert_eq!(view.degree_diff(VertexId(v), dir), diff);
                diffs[t] = diff;
                // The merged list, ids and weights, is the model's.
                let csr = base.csr(dir);
                let ids: Vec<u32> = csr.neighbors(VertexId(v)).iter().map(|u| u.0).collect();
                let ws = csr.weights_of(VertexId(v));
                let (got, got_ws) = view.merged_list(VertexId(v), dir, &ids, ws);
                let (want_ids, want_ws): (Vec<u32>, Vec<f32>) = model
                    .iter()
                    .filter_map(|(&(s, d), &w)| match dir {
                        EdgeDir::In if directed => (d == v).then_some((s, w)),
                        _ => (s == v).then_some((d, w)),
                    })
                    .unzip();
                prop_assert_eq!((v, dir, &got), (v, dir, &want_ids));
                if ws.is_some() {
                    prop_assert_eq!((v, dir, got_ws), (v, dir, Some(want_ws)));
                }
            }
            let both = if directed {
                diffs[0] + diffs[1]
            } else {
                diffs[0]
            };
            prop_assert_eq!(view.degree_diff(VertexId(v), EdgeDir::Both), both);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The rank-bitmap table answers `list`, `degree_diff`,
        /// `is_empty` and `merged_list` like a reference fold, through
        /// random batches, time-travel views and folds, on vertex
        /// counts that put lists at word and rank boundaries.
        #[test]
        fn view_table_answers_like_a_reference_fold(
            seed in any::<u64>(),
            size in 0usize..5,
            directed in any::<bool>(),
        ) {
            let n = [1, 63, 64, 65, 129][size];
            let mut rng = TestRng::deterministic("view_table", seed as u32);
            // Snapshots of the model after each run, by sequence number;
            // 0 is the base.
            let mut models = BTreeMap::from([(0u64, Model::new())]);
            let base_model = random_batch(&mut rng, n, &Model::new());
            replay(models.get_mut(&0).unwrap(), directed, &base_model);
            let mut base = graph_of(n, directed, &models[&0]);
            let mut log = RunLog::new(n, directed);
            let mut floor = 0;
            for _ in 0..1 + rng.below(8) {
                let top = log.watermark();
                if rng.below(5) == 0 && top > floor {
                    // Fold a prefix: the view at it becomes the base.
                    let up_to = floor + 1 + rng.below(top - floor);
                    base = DeltaLog::union(&base, &log.view(up_to));
                    log.fold(up_to);
                    floor = up_to;
                } else {
                    let batch = random_batch(&mut rng, n, &models[&top]);
                    let mut next = models[&top].clone();
                    replay(&mut next, directed, &batch);
                    let seq = log.apply(&base, &batch).unwrap();
                    models.insert(seq, next);
                }
                let top = log.watermark();
                for w in [top, floor + rng.below(top - floor + 1)] {
                    let view = log.view(w);
                    prop_assert_eq!(view.floor(), floor);
                    prop_assert_eq!(view.watermark(), if w > floor { w } else { 0 });
                    let reference = reference_fold(&log, w);
                    check_view(&view, &reference, &base, &models[&w])?;
                }
            }
        }
    }

    #[test]
    fn a_panicking_base_read_does_not_wedge_the_log() {
        let g = fixtures::path(4);
        let log = DeltaLog::for_graph(&g);
        let mut b = DeltaBatch::new();
        b.add_edge(VertexId(0), VertexId(2));
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            log.apply(&PanickingBase, &b)
        }));
        assert!(died.is_err(), "the base read must have panicked");
        // The panic unwound through the log lock. Every reader still
        // gets in, and finds the log as the dead batch found it.
        assert_eq!(log.watermark(), 0, "a batch that died applied nothing");
        assert!(log.current_view().is_empty());
        assert!(log.view(0).is_empty());
        // So does the next writer.
        assert_eq!(log.apply(&g, &b).unwrap(), 1);
        assert_eq!(merged(&g, &log, 0, EdgeDir::Out), ids(&[1, 2]));
    }
}
