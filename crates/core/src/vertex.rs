//! Read-only views of edge lists delivered to vertex programs — the
//! last layer a request crosses before its callback: the paper's
//! `page_vertex`, decoded on the fly.
//!
//! A delivery has one reader, a forward walk: [`PageVertex::edges`]
//! (ids), [`PageVertex::weighted_edges`] (ids beside their attributes)
//! and, riding on them, [`PageVertex::contains`] and
//! [`PageVertex::to_vec`]. Each base shape — CSR slice, raw page span,
//! group-varint span (`fg_format::codec`, image magic `FGIMG21`) — has
//! one decoder; a group-varint span is decoded four ids at a time. A
//! delivery on a mutable graph may also carry an overlay: the
//! subject's folded delta ops, borrowed from the query's pinned
//! `DeltaView`, merged with any of the three on the fly, and
//! [`Merge::of`] is the one statement of that merge's rule. Overlaying
//! a delivery allocates nothing and touches no reference count. The
//! ledger prices the walk per shape:
//! `vertex.touch_ns_per_edge` (raw span),
//! `vertex.touch_varint_ns_per_edge` and
//! `vertex.touch_overlay_ns_per_edge`.

use fg_format::codec::{self, GROUP, GROUP_WINDOW};
use fg_format::VarintSlice;
use fg_graph::{DeltaList, DeltaOp};
use fg_safs::{SpanWindow, U32Iter};
use fg_types::{EdgeDir, VertexId};

/// One decision of the overlay's two-pointer merge, from the heads of
/// the base stream and the op stream — the one statement of the rule
/// the walker applies. Both streams are sorted by destination.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Merge {
    /// Both streams are exhausted.
    End,
    /// Emit the base head as it is; advance the base.
    Base(u32),
    /// The op sorts before the base head (or the base has run out):
    /// advance the ops. An `Add` splices its destination in with this
    /// weight; a stray `Remove` / `Update` matching no base entry is
    /// consumed silently (it cannot occur for canonicalized logs).
    Op(u32, Option<f32>),
    /// The op names the base head: advance the base. `Remove`
    /// swallows the entry (no weight), `Update` and `Add` emit it with
    /// the op's weight; only an `Add` is consumed with it (the flag) —
    /// the other two stay to meet a duplicate base entry and are
    /// passed as strays once the base moves on.
    Owned(u32, Option<f32>, bool),
}

impl Merge {
    #[inline]
    fn of(base: Option<u32>, op: Option<(u32, DeltaOp)>) -> Merge {
        match (base, op) {
            (None, None) => Merge::End,
            (Some(bd), None) => Merge::Base(bd),
            (Some(bd), Some((od, _))) if od > bd => Merge::Base(bd),
            (b, Some((od, op))) if b.is_none_or(|bd| od < bd) => Merge::Op(
                od,
                match op {
                    DeltaOp::Add(w) => Some(w.unwrap_or(1.0)),
                    DeltaOp::Remove | DeltaOp::Update(_) => None,
                },
            ),
            (None, Some(_)) => unreachable!("guarded arm covers every op with no base"),
            (Some(bd), Some((_, op))) => match op {
                DeltaOp::Remove => Merge::Owned(bd, None, false),
                DeltaOp::Update(w) => Merge::Owned(bd, Some(w), false),
                DeltaOp::Add(w) => Merge::Owned(bd, Some(w.unwrap_or(1.0)), true),
            },
        }
    }
}

/// Edge data backing a [`PageVertex`]: a zero-copy span over the SAFS
/// page cache (semi-external memory) — raw `u32`s or a group-varint
/// block of the compressed image format — or borrowed slices of an
/// in-memory CSR (FG-mem mode). On an overlaid delivery it is the
/// subject's full base list (see [`PageVertex::with_overlay`]).
#[derive(Debug)]
enum EdgeData<'a> {
    Span {
        edges: SpanWindow<'a>,
        attrs: Option<SpanWindow<'a>>,
    },
    /// A compressed-image block (or restart-aligned part of one).
    /// Decoding is iterator-shaped and allocation-free, and no id is
    /// decoded from past `span`'s length — the bytes after it in its
    /// last page are loaded only to be masked away (a malformed stream
    /// panics like any other corrupt index math would; the *fallible*
    /// decode surface is `fg_format::read_list`).
    Packed {
        span: SpanWindow<'a>,
        /// Edges this delivery covers (cannot be derived from byte
        /// length — varints are variable width).
        count: usize,
        params: VarintSlice,
    },
    Slice {
        edges: &'a [VertexId],
        attrs: Option<&'a [f32]>,
    },
}

/// One slice of a vertex's edge list in one direction, as delivered
/// to [`crate::VertexProgram::run_on_vertex`].
///
/// The name follows the paper's `page_vertex`: in semi-external
/// memory the data lives in SAFS pages and is decoded on the fly,
/// with no per-request buffer allocation.
///
/// A full-list request delivers the whole list in one `PageVertex`
/// with [`PageVertex::offset`] 0. A range request delivers a slice:
/// [`PageVertex::offset`]/[`PageVertex::range`] say which positions
/// of the subject's full list arrived, and the walkers yield exactly
/// those (the first element is the edge at position `offset()` of the
/// full list).
#[derive(Debug)]
pub struct PageVertex<'a> {
    id: VertexId,
    dir: EdgeDir,
    offset: u64,
    data: EdgeData<'a>,
    /// Present on an overlaid delivery: the subject's folded delta ops
    /// and the `(start, len)` of the delivery within the merged list.
    overlay: Option<(&'a DeltaList, (u64, usize))>,
}

impl<'a> PageVertex<'a> {
    /// Wraps a page span (semi-external path). `attrs`, when present,
    /// must cover `4 * degree` bytes like `edges`; `offset` is the
    /// slice's first edge position within the subject's full list.
    pub(crate) fn from_span(
        id: VertexId,
        dir: EdgeDir,
        offset: u64,
        edges: SpanWindow<'a>,
        attrs: Option<SpanWindow<'a>>,
    ) -> Self {
        debug_assert_eq!(edges.len() % 4, 0);
        if let Some(a) = &attrs {
            debug_assert_eq!(a.len(), edges.len());
        }
        PageVertex {
            id,
            dir,
            offset,
            data: EdgeData::Span { edges, attrs },
            overlay: None,
        }
    }

    /// Wraps a packed (group-varint) span of the compressed image
    /// format: `count` edges delivered, decoded per `params` —
    /// `header_bytes` of skip-table framing to jump, then a gap
    /// stream entered at restart position `stream_pos` with `skip`
    /// values to discard before the delivery starts.
    pub(crate) fn from_span_packed(
        id: VertexId,
        dir: EdgeDir,
        offset: u64,
        span: SpanWindow<'a>,
        count: usize,
        params: VarintSlice,
    ) -> Self {
        PageVertex {
            id,
            dir,
            offset,
            data: EdgeData::Packed {
                span,
                count,
                params,
            },
            overlay: None,
        }
    }

    /// Wraps CSR slices (in-memory path).
    pub(crate) fn from_slice(
        id: VertexId,
        dir: EdgeDir,
        offset: u64,
        edges: &'a [VertexId],
        attrs: Option<&'a [f32]>,
    ) -> Self {
        PageVertex {
            id,
            dir,
            offset,
            data: EdgeData::Slice { edges, attrs },
            overlay: None,
        }
    }

    /// Composes a full-base-list delivery with the subject's folded
    /// delta ops, borrowed from the pinned view (see
    /// `fg_graph::DeltaView`), delivering merged positions
    /// `[window_start, window_start + window_len)`. The caller clamps
    /// the window against the merged degree (`base degree + ops.diff`),
    /// exactly like plain requests are clamped against the index.
    ///
    /// The merge is a two-pointer walk over two sorted streams, so
    /// in-order iteration stays O(1) amortized: `Add` ops splice in
    /// between base edges, `Remove` ops swallow their base edge,
    /// `Update` ops rewrite its weight in place.
    pub(crate) fn with_overlay(
        base: PageVertex<'a>,
        ops: &'a DeltaList,
        window_start: u64,
        window_len: usize,
    ) -> Self {
        debug_assert!(
            base.offset == 0 && base.overlay.is_none(),
            "overlays merge against the full base list"
        );
        debug_assert!(
            window_start + window_len as u64 <= (base.degree() as i64 + ops.diff).max(0) as u64,
            "overlay window [{window_start}, +{window_len}) exceeds merged degree {}",
            (base.degree() as i64 + ops.diff).max(0)
        );
        PageVertex {
            offset: window_start,
            overlay: Some((ops, (window_start, window_len))),
            ..base
        }
    }

    /// The vertex whose list this is (not necessarily the vertex
    /// receiving the callback).
    #[inline]
    pub fn id(&self) -> VertexId {
        self.id
    }

    /// Position of this slice's first edge within the subject's full
    /// list — 0 for full-list deliveries, the range start for partial
    /// ones.
    #[inline]
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// The position range `offset()..offset() + degree()` this
    /// delivery covers within the subject's full list.
    #[inline]
    pub fn range(&self) -> std::ops::Range<u64> {
        self.offset..self.offset + self.degree() as u64
    }

    /// Which direction's list was delivered ([`EdgeDir::In`] or
    /// [`EdgeDir::Out`]; never `Both` — a `Both` request produces two
    /// deliveries).
    #[inline]
    pub fn dir(&self) -> EdgeDir {
        self.dir
    }

    /// Number of edges in the list. Deliveries carry this explicitly
    /// for compressed blocks — byte length is *not* proportional to
    /// edge count under varint encoding.
    #[inline]
    pub fn degree(&self) -> usize {
        if let Some((_, (_, len))) = self.overlay {
            return len;
        }
        match &self.data {
            EdgeData::Span { edges, .. } => edges.len() / 4,
            EdgeData::Packed { count, .. } => *count,
            EdgeData::Slice { edges, .. } => edges.len(),
        }
    }

    /// Iterates over the neighbours, in order (lists are sorted
    /// ascending by id) — see [`Edges`].
    ///
    /// # Panics
    ///
    /// Panics, here or from `next()`, on a corrupt varint block.
    #[inline]
    pub fn edges(&self) -> Edges<'_> {
        Edges(match self.overlay {
            Some((ops, window)) => {
                Walk::Overlay(OverlayEdges::new(self.base_walk(), &ops.ops, window))
            }
            None => Walk::Base(self.base_walk()),
        })
    }

    /// Iterates over the neighbours beside their attributes (weights),
    /// in order — the same walk as [`PageVertex::edges`], with each
    /// edge's weight read from the parallel attribute run or, for an
    /// overlaid edge, taken from the delta op that added or updated
    /// it. `None` when attributes were not requested and delivered.
    #[inline]
    pub fn weighted_edges(&self) -> Option<WeightedEdges<'_>> {
        let mut attrs = self.attr_walk()?;
        Some(WeightedEdges(match self.overlay {
            Some((ops, (start, len))) => {
                // The window is applied by skipping here, the base's
                // attribute run in step with the base.
                let mut ids = OverlayEdges::new(self.base_walk(), &ops.ops, (0, len));
                for _ in 0..start {
                    ids.advance(Some(&mut attrs));
                }
                WeightedWalk::Overlay(ids, attrs)
            }
            None => WeightedWalk::Zip(self.base_walk(), attrs),
        }))
    }

    /// The id walker of the base list.
    #[inline]
    fn base_walk(&self) -> BaseWalk<'_> {
        match &self.data {
            EdgeData::Span { edges, .. } => BaseWalk::Raw(edges.u32_iter()),
            EdgeData::Packed {
                span,
                count,
                params,
            } => BaseWalk::Packed(PackedEdges::new(span, *count, params)),
            EdgeData::Slice { edges, .. } => BaseWalk::Slice(edges.iter()),
        }
    }

    /// The attribute run beside the base list's ids, if it carries
    /// one. Packed deliveries never do: weighted images keep
    /// every block raw precisely so attribute runs stay aligned.
    #[inline]
    fn attr_walk(&self) -> Option<AttrWalk<'_>> {
        match &self.data {
            EdgeData::Span { attrs, .. } => attrs.as_ref().map(|a| AttrWalk::Raw(a.u32_iter())),
            EdgeData::Slice { attrs, .. } => attrs.map(|a| AttrWalk::Slice(a.iter())),
            EdgeData::Packed { .. } => None,
        }
    }

    /// Copies the neighbour ids into a vector (for programs that must
    /// hold a list across callbacks, like triangle counting).
    pub fn to_vec(&self) -> Vec<VertexId> {
        self.edges().collect()
    }

    /// Searches the sorted list for `v`: binary search over the two
    /// random-access shapes, an early-exit linear scan over packed
    /// spans and overlays (random probes into a varint stream or a
    /// merge would each cost a prefix decode; one forward pass is
    /// cheaper).
    pub fn contains(&self, v: VertexId) -> bool {
        match &self.data {
            EdgeData::Slice { edges, .. } if self.overlay.is_none() => {
                edges.binary_search(&v).is_ok()
            }
            EdgeData::Span { edges, .. } if self.overlay.is_none() => {
                let (mut lo, mut hi) = (0usize, edges.len() / 4);
                while lo < hi {
                    let mid = (lo + hi) / 2;
                    match edges.read_u32_le(mid * 4).cmp(&v.0) {
                        std::cmp::Ordering::Less => lo = mid + 1,
                        std::cmp::Ordering::Greater => hi = mid,
                        std::cmp::Ordering::Equal => return true,
                    }
                }
                false
            }
            _ => {
                for e in self.edges() {
                    if e >= v {
                        return e == v;
                    }
                }
                false
            }
        }
    }
}

/// The neighbours of one delivery, front to back
/// ([`PageVertex::edges`]).
///
/// One exact-size iterator for every delivery shape: the in-memory
/// CSR slice is walked by its own `slice::Iter`; a raw span one
/// contiguous page chunk at a time; a group-varint span is decoded a
/// group of four ids at a time, read in place from the current page
/// or gathered across a seam; an overlay merges its base's own walker
/// with the delta ops, two-pointer.
/// Scans, intersections and `collect()` (the length is exact, so the
/// vector is allocated once) all read a delivery this way.
#[derive(Debug, Clone)]
pub struct Edges<'a>(Walk<'a>);

/// The neighbours of one delivery beside their weights, front to back
/// ([`PageVertex::weighted_edges`]): the walkers of [`Edges`], each id
/// paired with its weight.
#[derive(Debug, Clone)]
pub struct WeightedEdges<'a>(WeightedWalk<'a>);

/// The id walk's dispatch. It is not folded into [`WeightedWalk`]: a
/// third, zipped arm here cost the plain walk several per cent of an
/// in-memory triangle count.
#[derive(Debug, Clone)]
enum Walk<'a> {
    Base(BaseWalk<'a>),
    Overlay(OverlayEdges<'a>),
}

#[derive(Debug, Clone)]
enum WeightedWalk<'a> {
    /// A base shape's ids zipped with their attribute run.
    Zip(BaseWalk<'a>, AttrWalk<'a>),
    /// The overlay merge over a base shape, with the base's run.
    Overlay(OverlayEdges<'a>, AttrWalk<'a>),
}

impl Iterator for Edges<'_> {
    type Item = VertexId;

    #[inline]
    fn next(&mut self) -> Option<VertexId> {
        match &mut self.0 {
            Walk::Base(it) => it.next(),
            Walk::Overlay(it) => it.next(None).map(|(d, _)| d),
        }
        .map(VertexId)
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.0 {
            Walk::Base(it) => it.size_hint(),
            Walk::Overlay(it) => (it.left, Some(it.left)),
        }
    }
}

impl ExactSizeIterator for Edges<'_> {}

impl std::iter::FusedIterator for Edges<'_> {}

impl Iterator for WeightedEdges<'_> {
    type Item = (VertexId, f32);

    #[inline]
    fn next(&mut self) -> Option<(VertexId, f32)> {
        match &mut self.0 {
            WeightedWalk::Zip(ids, attrs) => ids.next().map(|d| (d, attrs.weight())),
            WeightedWalk::Overlay(it, attrs) => it.next(Some(attrs)),
        }
        .map(|(d, w)| (VertexId(d), w))
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.0 {
            WeightedWalk::Zip(ids, _) => ids.size_hint(),
            WeightedWalk::Overlay(it, _) => (it.left, Some(it.left)),
        }
    }
}

impl ExactSizeIterator for WeightedEdges<'_> {}

impl std::iter::FusedIterator for WeightedEdges<'_> {}

/// The walkers of the three base shapes, yielding raw ids.
#[derive(Debug, Clone)]
enum BaseWalk<'a> {
    Slice(std::slice::Iter<'a, VertexId>),
    Raw(U32Iter<'a>),
    Packed(PackedEdges<'a>),
}

impl Iterator for BaseWalk<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        match self {
            BaseWalk::Slice(it) => it.next().map(|v| v.0),
            BaseWalk::Raw(it) => it.next(),
            BaseWalk::Packed(it) => it.next(),
        }
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            BaseWalk::Slice(it) => it.size_hint(),
            BaseWalk::Raw(it) => it.size_hint(),
            BaseWalk::Packed(it) => (it.left, Some(it.left)),
        }
    }
}

/// The attribute run parallel to a slice or a raw span, walked in
/// step with its ids.
#[derive(Debug, Clone)]
enum AttrWalk<'a> {
    Slice(std::slice::Iter<'a, f32>),
    Raw(U32Iter<'a>),
}

impl AttrWalk<'_> {
    /// The weight beside the id just taken.
    #[inline]
    fn weight(&mut self) -> f32 {
        match self {
            AttrWalk::Slice(it) => it.next().copied(),
            AttrWalk::Raw(it) => it.next().map(f32::from_bits),
        }
        .expect("attribute run as long as its edge run")
    }
}

/// Streaming decode of a packed (group-varint) span: `left` more
/// edges, yielded from `group`, the current group's ids, and decoded a
/// group at a time from `page` — the rest of the current page from
/// span position `pos` on.
#[derive(Debug, Clone)]
struct PackedEdges<'a> {
    span: &'a SpanWindow<'a>,
    /// [`SpanWindow::page_tail_at`] `pos`: it may run past the span,
    /// so a group read from it is checked against the span's length.
    page: &'a [u8],
    pos: usize,
    group: [u32; GROUP],
    /// Lane of `group` to yield next; [`GROUP`] when it is used up.
    lane: usize,
    /// Groups before the next restart (0 = the next group is one) — a
    /// countdown, so a group costs no division.
    until_restart: u32,
    groups_per_restart: u32,
    left: usize,
}

impl<'a> PackedEdges<'a> {
    /// Enters the stream after `params.header_bytes` of framing and
    /// discards the `params.skip` values before the delivery.
    fn new(span: &'a SpanWindow<'a>, count: usize, params: &VarintSlice) -> Self {
        debug_assert_eq!(params.k as usize % GROUP, 0, "restarts open groups");
        let pos = params.header_bytes as usize;
        let mut it = PackedEdges {
            span,
            page: span.page_tail_at(pos),
            pos,
            group: [0; GROUP],
            lane: GROUP,
            until_restart: 0,
            groups_per_restart: params.k / GROUP as u32,
            left: count,
        };
        for _ in 0..params.skip {
            it.step();
        }
        it
    }

    /// Decodes the next group into `group`: read in place while
    /// [`GROUP_WINDOW`] bytes remain in the page — a group that
    /// outruns the span is caught by the length check — and gathered
    /// across the page seam otherwise.
    #[inline]
    fn refill(&mut self) {
        let restart = self.until_restart == 0;
        let base = if restart { 0 } else { self.group[GROUP - 1] };
        self.until_restart = if restart {
            self.groups_per_restart
        } else {
            self.until_restart
        } - 1;
        let gaps = match self.page.first_chunk::<GROUP_WINDOW>() {
            Some(window) => {
                let (gaps, len) = codec::read_group(window);
                self.pos += len;
                self.page = &self.page[len..];
                gaps
            }
            None => {
                let (gaps, len) = gather(self.span, self.pos);
                self.pos += len;
                self.page = self.span.page_tail_at(self.pos);
                gaps
            }
        };
        assert!(self.pos <= self.span.len(), "corrupt varint edge block");
        self.group = codec::sum_group(base, gaps).expect("corrupt varint edge block");
        self.lane = 0;
    }

    /// The next id of the stream.
    #[inline]
    fn step(&mut self) -> u32 {
        if self.lane == GROUP {
            self.refill();
        }
        let v = self.group[self.lane & (GROUP - 1)];
        self.lane += 1;
        v
    }

    #[inline]
    fn next(&mut self) -> Option<u32> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        Some(self.step())
    }
}

/// The checked slow path of [`PackedEdges::refill`]: the stored values
/// and length of the group at span position `pos`, copied into a
/// zeroed window across the page seam. A group that runs past the span
/// is corrupt.
#[cold]
#[inline(never)]
fn gather(span: &SpanWindow<'_>, pos: usize) -> ([u32; GROUP], usize) {
    assert!(pos < span.len(), "corrupt varint edge block");
    let len = codec::group_len(span.byte(pos));
    assert!(pos + len <= span.len(), "corrupt varint edge block");
    let mut window = [0u8; GROUP_WINDOW];
    span.read_bytes(pos, &mut window[..len]);
    (codec::read_group(&window).0, len)
}

/// Streaming overlay merge: the base's own walker against the op
/// slice, `left` more merged elements to deliver.
#[derive(Debug, Clone)]
struct OverlayEdges<'a> {
    /// Peeked lazily: a base element is decoded by the step that may
    /// emit it, never ahead of it.
    base: std::iter::Peekable<BaseWalk<'a>>,
    /// Ops not yet consumed.
    ops: &'a [(u32, DeltaOp)],
    left: usize,
}

impl<'a> OverlayEdges<'a> {
    /// Delivers merged positions `[start, start + len)`: the merge
    /// only moves forward, so the window is applied by skipping.
    fn new(base: BaseWalk<'a>, ops: &'a [(u32, DeltaOp)], (start, len): (u64, usize)) -> Self {
        let mut it = OverlayEdges {
            base: base.peekable(),
            ops,
            left: len,
        };
        for _ in 0..start {
            it.advance(None);
        }
        it
    }

    /// Advances the merge by one emitted element, its weight read from
    /// `attrs` — the base's attribute run, walked in step with the
    /// base — or from the op that set it (a placeholder for a base
    /// element when no run is walked). The id walk passes a literal
    /// `None` and compiles without the attribute reads, and the run
    /// lives in the weighted walker, not in this struct, which every
    /// `Edges` carries: measured, either cost the plain walks about
    /// half a nanosecond an edge and the overlaid ones more than one.
    #[inline(always)]
    fn advance(&mut self, mut attrs: Option<&mut AttrWalk<'a>>) -> (u32, f32) {
        loop {
            match Merge::of(self.base.peek().copied(), self.ops.first().copied()) {
                Merge::End => panic!("overlay window exceeds the merged list"),
                Merge::Base(bd) => {
                    self.base.next();
                    return (bd, attrs.map_or(1.0, AttrWalk::weight));
                }
                Merge::Op(od, add) => {
                    self.ops = &self.ops[1..];
                    if let Some(w) = add {
                        return (od, w);
                    }
                }
                Merge::Owned(bd, weight, consume) => {
                    self.base.next();
                    if let Some(attrs) = attrs.as_deref_mut() {
                        attrs.weight();
                    }
                    if consume {
                        self.ops = &self.ops[1..];
                    }
                    if let Some(w) = weight {
                        return (bd, w);
                    }
                }
            }
        }
    }

    #[inline(always)]
    fn next(&mut self, attrs: Option<&mut AttrWalk<'a>>) -> Option<(u32, f32)> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        Some(self.advance(attrs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_safs::PageSpan;
    use std::sync::Arc;

    fn slice_pv(ids: &[VertexId]) -> PageVertex<'_> {
        PageVertex::from_slice(VertexId(0), EdgeDir::Out, 0, ids, None)
    }

    #[test]
    fn slice_view_reads_edges() {
        let ids = [VertexId(1), VertexId(5), VertexId(9)];
        let pv = slice_pv(&ids);
        assert_eq!(pv.degree(), 3);
        assert_eq!(pv.edges().collect::<Vec<_>>(), ids.to_vec());
        assert!(pv.weighted_edges().is_none());
    }

    #[test]
    fn slice_view_with_weights() {
        let ids = [VertexId(1), VertexId(2)];
        let ws = [0.5f32, 2.0];
        let pv = PageVertex::from_slice(VertexId(7), EdgeDir::In, 0, &ids, Some(&ws));
        let got: Vec<_> = pv.weighted_edges().unwrap().collect();
        assert_eq!(got, vec![(VertexId(1), 0.5), (VertexId(2), 2.0)]);
        assert_eq!(pv.dir(), EdgeDir::In);
        assert_eq!(pv.id(), VertexId(7));
    }

    #[test]
    fn span_view_decodes_u32s() {
        use fg_safs::Page;
        let ids = [3u32, 8, 1000];
        let bytes: Vec<u8> = ids.iter().flat_map(|v| v.to_le_bytes()).collect();
        let mut page = vec![0u8; 4096];
        page[100..112].copy_from_slice(&bytes);
        let span = PageSpan::new(
            vec![Arc::new(Page::new(0, page.into_boxed_slice()))],
            100,
            12,
        );
        let pv = PageVertex::from_span(VertexId(2), EdgeDir::Out, 0, span.window(), None);
        assert_eq!(pv.degree(), 3);
        assert_eq!(
            pv.edges().map(|v| v.0).collect::<Vec<_>>(),
            vec![3, 8, 1000]
        );
    }

    #[test]
    fn span_view_with_attr_span() {
        use fg_safs::Page;
        let mk = |words: &[u32]| {
            let mut page = vec![0u8; 4096];
            for (i, w) in words.iter().enumerate() {
                page[i * 4..i * 4 + 4].copy_from_slice(&w.to_le_bytes());
            }
            PageSpan::new(
                vec![Arc::new(Page::new(0, page.into_boxed_slice()))],
                0,
                words.len() * 4,
            )
        };
        let edges = mk(&[4, 9]);
        let attrs = mk(&[1.5f32.to_bits(), 3.25f32.to_bits()]);
        let pv = PageVertex::from_span(
            VertexId(0),
            EdgeDir::Out,
            0,
            edges.window(),
            Some(attrs.window()),
        );
        let got: Vec<_> = pv.weighted_edges().unwrap().collect();
        assert_eq!(got, vec![(VertexId(4), 1.5), (VertexId(9), 3.25)]);
    }

    #[test]
    fn contains_binary_search() {
        let ids: Vec<VertexId> = [2u32, 4, 8, 16, 32].iter().map(|&v| VertexId(v)).collect();
        let pv = slice_pv(&ids);
        for &v in &ids {
            assert!(pv.contains(v));
        }
        for raw in [0u32, 3, 5, 33] {
            assert!(!pv.contains(VertexId(raw)));
        }
    }

    #[test]
    fn empty_list() {
        let pv = slice_pv(&[]);
        assert_eq!(pv.degree(), 0);
        assert_eq!(pv.edges().count(), 0);
        assert!(!pv.contains(VertexId(1)));
        assert_eq!(pv.offset(), 0);
        assert!(pv.range().is_empty());
    }

    /// Builds a packed PageVertex over a codec-encoded block split
    /// across small pages, delivering positions [skip_from, +count).
    fn packed_pv(list: &[u32], k: u32, start: u64, count: usize) -> PageVertex<'static> {
        use fg_format::codec::{encode_list, skip_entries};
        let mut block = Vec::new();
        assert!(encode_list(list, k, &mut block), "test list must compress");
        // Whole-block delivery with decoder skip — the shape the
        // engine uses for compressed lists without a resident table.
        let span = leaked(span_over(&block, 0, 16));
        let params = VarintSlice {
            header_bytes: (skip_entries(list.len() as u64, k) * 4) as u32,
            stream_pos: 0,
            skip: start,
            k,
        };
        PageVertex::from_span_packed(VertexId(9), EdgeDir::Out, start, span, count, params)
    }

    #[test]
    fn packed_span_decodes_full_list() {
        let list: Vec<u32> = (0..100u32).map(|i| i * 3).collect();
        let pv = packed_pv(&list, 8, 0, 100);
        assert_eq!(pv.degree(), 100);
        assert!(pv.weighted_edges().is_none());
        let got: Vec<u32> = pv.edges().map(|e| e.0).collect();
        assert_eq!(got, list);
    }

    #[test]
    fn packed_span_skips_to_delivered_range() {
        // Deliver positions [5, 12) of the full list: the walk starts
        // at position 5, and offset/range report it.
        let list: Vec<u32> = (10..40u32).collect();
        let pv = packed_pv(&list, 8, 5, 7);
        assert_eq!(pv.degree(), 7);
        assert_eq!(pv.offset(), 5);
        assert_eq!(pv.range(), 5..12);
        let got: Vec<u32> = pv.edges().map(|e| e.0).collect();
        assert_eq!(got, (15..22).collect::<Vec<u32>>());
    }

    #[test]
    fn packed_span_contains_scans_linearly() {
        let list: Vec<u32> = (0..50u32).map(|i| i * 2 + 1).collect();
        let pv = packed_pv(&list, 16, 0, 50);
        for &v in &list {
            assert!(pv.contains(VertexId(v)));
        }
        for miss in [0u32, 2, 50, 200] {
            assert!(!pv.contains(VertexId(miss)));
        }
    }

    fn list_of(ops: &[(u32, DeltaOp)]) -> DeltaList {
        let diff = ops
            .iter()
            .map(|(_, op)| match op {
                DeltaOp::Add(_) => 1i64,
                DeltaOp::Update(_) => 0,
                DeltaOp::Remove => -1,
            })
            .sum();
        DeltaList {
            ops: ops.to_vec(),
            diff,
        }
    }

    #[test]
    fn overlay_merges_adds_and_removes_in_order() {
        let ids: Vec<VertexId> = [2u32, 5, 9, 14].iter().map(|&v| VertexId(v)).collect();
        let base = slice_pv(&ids);
        let ops = list_of(&[
            (1, DeltaOp::Add(None)),
            (5, DeltaOp::Remove),
            (9, DeltaOp::Remove),
            (11, DeltaOp::Add(None)),
            (20, DeltaOp::Add(None)),
        ]);
        // merged: [1, 2, 11, 14, 20]
        let pv = PageVertex::with_overlay(base, &ops, 0, 5);
        assert_eq!(pv.degree(), 5);
        let got: Vec<u32> = pv.edges().map(|e| e.0).collect();
        assert_eq!(got, vec![1, 2, 11, 14, 20]);
        // contains() over the merged view.
        assert!(pv.contains(VertexId(11)));
        assert!(!pv.contains(VertexId(5)));
        assert!(!pv.contains(VertexId(9)));
        assert!(pv.contains(VertexId(2)));
    }

    #[test]
    fn overlay_window_tiles_the_merged_list() {
        let ids: Vec<VertexId> = (0..10u32).map(|v| VertexId(v * 2)).collect();
        let ops = list_of(&[
            (3, DeltaOp::Add(None)),
            (4, DeltaOp::Remove),
            (19, DeltaOp::Add(None)),
        ]);
        // base: 0,2,4,…,18 → merged: 0,2,3,6,8,10,12,14,16,18,19
        let merged: Vec<u32> = vec![0, 2, 3, 6, 8, 10, 12, 14, 16, 18, 19];
        let mut tiled = Vec::new();
        for (start, len) in [(0u64, 4usize), (4, 4), (8, 3)] {
            let pv = PageVertex::with_overlay(slice_pv(&ids), &ops, start, len);
            assert_eq!(pv.offset(), start);
            assert_eq!(pv.degree(), len);
            tiled.extend(pv.edges().map(|e| e.0));
        }
        assert_eq!(tiled, merged);
    }

    #[test]
    fn overlay_update_overrides_weight_adds_default() {
        let ids = [VertexId(1), VertexId(4)];
        let ws = [0.5f32, 2.0];
        let base = PageVertex::from_slice(VertexId(0), EdgeDir::Out, 0, &ids, Some(&ws));
        let ops = list_of(&[
            (2, DeltaOp::Add(Some(7.5))),
            (3, DeltaOp::Add(None)),
            (4, DeltaOp::Update(9.0)),
        ]);
        // merged: 1(0.5), 2(7.5), 3(1.0 default), 4(9.0 updated)
        let pv = PageVertex::with_overlay(base, &ops, 0, 4);
        let got: Vec<(u32, f32)> = pv
            .weighted_edges()
            .unwrap()
            .map(|(d, w)| (d.0, w))
            .collect();
        assert_eq!(got, vec![(1, 0.5), (2, 7.5), (3, 1.0), (4, 9.0)]);
    }

    #[test]
    fn overlay_over_packed_base() {
        // The overlay composes with the compressed decode path: base
        // edges come out of a varint block, adds splice in between.
        let list: Vec<u32> = (0..40u32).map(|i| i * 3).collect(); // 0,3,…,117
        let base = packed_pv(&list, 8, 0, 40);
        let ops = list_of(&[
            (1, DeltaOp::Add(None)),
            (3, DeltaOp::Remove),
            (118, DeltaOp::Add(None)),
        ]);
        let pv = PageVertex::with_overlay(base, &ops, 0, 41);
        let got: Vec<u32> = pv.edges().map(|e| e.0).collect();
        let mut want: Vec<u32> = list.iter().copied().filter(|&v| v != 3).collect();
        want.insert(1, 1);
        want.push(118);
        assert_eq!(got, want);
        assert!(pv.weighted_edges().is_none());
    }

    #[test]
    fn overlay_over_empty_base() {
        let base = slice_pv(&[]);
        let ops = list_of(&[(3, DeltaOp::Add(None)), (8, DeltaOp::Add(None))]);
        let pv = PageVertex::with_overlay(base, &ops, 0, 2);
        assert_eq!(pv.degree(), 2);
        assert_eq!(pv.edges().map(|e| e.0).collect::<Vec<_>>(), vec![3, 8]);
    }

    #[test]
    fn overlay_removing_everything_delivers_empty() {
        let ids = [VertexId(1), VertexId(2)];
        let ops = list_of(&[(1, DeltaOp::Remove), (2, DeltaOp::Remove)]);
        let pv = PageVertex::with_overlay(slice_pv(&ids), &ops, 0, 0);
        assert_eq!(pv.degree(), 0);
        assert_eq!(pv.edges().count(), 0);
    }

    #[test]
    fn offset_and_range_report_the_slice() {
        // A range covering positions [5, 8) of some vertex's list.
        let ids = [VertexId(10), VertexId(11), VertexId(12)];
        let pv = PageVertex::from_slice(VertexId(3), EdgeDir::Out, 5, &ids, None);
        assert_eq!(pv.offset(), 5);
        assert_eq!(pv.range(), 5..8);
        assert_eq!(pv.degree(), 3);
        // The walk starts at the slice's first edge.
        assert_eq!(pv.edges().next(), Some(VertexId(10)));
    }

    // ------------------------------------------------ the Edges walker

    use proptest::prelude::*;

    /// A span of `bytes` starting `head` bytes into pages of
    /// `page_bytes` each (the bytes around it are junk).
    fn span_over(bytes: &[u8], head: usize, page_bytes: usize) -> PageSpan {
        use fg_safs::Page;
        let mut all = vec![0xA5u8; head];
        all.extend_from_slice(bytes);
        let pages: Vec<Arc<Page>> = all
            .chunks(page_bytes)
            .enumerate()
            .map(|(no, c)| {
                let mut data = vec![0x5Au8; page_bytes];
                data[..c.len()].copy_from_slice(c);
                Arc::new(Page::new(no as u64, data.into_boxed_slice()))
            })
            .collect();
        PageSpan::new(pages, head, bytes.len())
    }

    /// A span that lives as long as the test process, as the window a
    /// `'static` delivery holds.
    fn leaked(span: PageSpan) -> SpanWindow<'static> {
        Box::leak(Box::new(span)).window()
    }

    fn words_span(words: &[u32], head: usize, page_bytes: usize) -> PageSpan {
        let bytes: Vec<u8> = words.iter().flat_map(|v| v.to_le_bytes()).collect();
        span_over(&bytes, head, page_bytes)
    }

    fn raw_pv(list: &[u32], head: usize, page_bytes: usize) -> PageVertex<'static> {
        let span = leaked(words_span(list, head, page_bytes));
        PageVertex::from_span(VertexId(1), EdgeDir::Out, 0, span, None)
    }

    /// Positions `[start, start + count)` of `list` as a packed
    /// delivery. `with_header`: the whole block with the decoder
    /// skipping `start` values; otherwise the payload entered at the
    /// last restart at or before `start`, the way a ranged hub request
    /// resolves through the skip table.
    fn packed_slice_pv(
        list: &[u32],
        k: u32,
        (start, count): (usize, usize),
        with_header: bool,
        (head, page_bytes): (usize, usize),
    ) -> PageVertex<'static> {
        use fg_format::codec::{encode_list, skip_entries};
        let mut block = Vec::new();
        assert!(encode_list(list, k, &mut block), "test list must compress");
        let table = skip_entries(list.len() as u64, k) as usize * 4;
        let (bytes, params) = if with_header {
            let params = VarintSlice {
                header_bytes: table as u32,
                stream_pos: 0,
                skip: start as u64,
                k,
            };
            (&block[..], params)
        } else {
            // `start == len` may sit on a restart the list never
            // reaches; enter at the last one it has.
            let m = (start / k as usize).min(table / 4);
            let entry =
                |e: usize| u32::from_le_bytes(block[e * 4..e * 4 + 4].try_into().unwrap()) as usize;
            let from = if m == 0 { 0 } else { entry(m - 1) };
            let params = VarintSlice {
                header_bytes: 0,
                stream_pos: (m * k as usize) as u64,
                skip: (start - m * k as usize) as u64,
                k,
            };
            (&block[table + from..], params)
        };
        let span = leaked(span_over(bytes, head, page_bytes));
        PageVertex::from_span_packed(VertexId(1), EdgeDir::Out, start as u64, span, count, params)
    }

    /// `edges()` against the model list `want`, element for element,
    /// with an exact `len()` before every `next()`; `to_vec` rides on
    /// the same walker.
    fn check_walk(pv: &PageVertex<'_>, want: &[u32]) -> Result<(), TestCaseError> {
        let want: Vec<VertexId> = want.iter().map(|&v| VertexId(v)).collect();
        prop_assert_eq!(pv.degree(), want.len());
        let mut it = pv.edges();
        for (i, &w) in want.iter().enumerate() {
            prop_assert_eq!(it.len(), want.len() - i);
            prop_assert_eq!((i, it.next()), (i, Some(w)));
        }
        prop_assert_eq!(it.len(), 0);
        prop_assert_eq!(it.next(), None);
        prop_assert_eq!(it.next(), None);
        prop_assert_eq!(pv.to_vec(), want);
        Ok(())
    }

    /// Sorted, duplicate-bearing, small-gap ids: compressible at any k.
    fn sorted_list(seed: u64, len: usize) -> Vec<u32> {
        let mut rng = TestRng::deterministic("sorted_list", seed as u32);
        let mut v = 0u32;
        (0..len)
            .map(|_| {
                v += rng.below(120) as u32;
                v
            })
            .collect()
    }

    /// One effective op per destination, as a canonicalized log holds
    /// them: removes and updates name base entries, adds name
    /// destinations the base lacks.
    fn random_ops(seed: u64, base: &[u32], weighted: bool) -> DeltaList {
        let mut rng = TestRng::deterministic("random_ops", seed as u32);
        let mut ops: std::collections::BTreeMap<u32, DeltaOp> = Default::default();
        for &b in base {
            match rng.below(6) {
                0 => drop(ops.insert(b, DeltaOp::Remove)),
                1 if weighted => drop(ops.insert(b, DeltaOp::Update(rng.below(9) as f32))),
                _ => {}
            }
        }
        let top = base.last().copied().unwrap_or(0) + 50;
        for _ in 0..rng.below(base.len() as u64 / 3 + 3) {
            let d = rng.below(top as u64) as u32;
            if base.binary_search(&d).is_err() {
                ops.insert(d, DeltaOp::Add(weighted.then(|| rng.below(9) as f32)));
            }
        }
        list_of(&ops.into_iter().collect::<Vec<_>>())
    }

    /// `weighted_edges()` against the model, the way [`check_walk`]
    /// checks `edges()`.
    fn check_weighted_walk(pv: &PageVertex<'_>, want: &[(u32, f32)]) -> Result<(), TestCaseError> {
        let mut it = pv.weighted_edges().expect("weighted delivery");
        for (i, &(d, w)) in want.iter().enumerate() {
            prop_assert_eq!(it.len(), want.len() - i);
            prop_assert_eq!((i, it.next()), (i, Some((VertexId(d), w))));
        }
        prop_assert_eq!(it.len(), 0);
        prop_assert_eq!(it.next(), None);
        Ok(())
    }

    /// The merged list by definition, weights beside ids: base minus
    /// removes (an update's weight replacing the base's), plus adds
    /// (weight 1.0 unless they carry one).
    fn merged_model(base: &[u32], weights: &[f32], ops: &DeltaList) -> Vec<(u32, f32)> {
        let op_of = |d: u32| ops.ops.iter().find(|(od, _)| *od == d).map(|&(_, op)| op);
        let mut out: Vec<(u32, f32)> = base
            .iter()
            .zip(weights)
            .filter_map(|(&d, &w)| match op_of(d) {
                Some(DeltaOp::Remove) => None,
                Some(DeltaOp::Update(u)) => Some((d, u)),
                _ => Some((d, w)),
            })
            .collect();
        out.extend(ops.ops.iter().filter_map(|&(d, op)| match op {
            DeltaOp::Add(w) => Some((d, w.unwrap_or(1.0))),
            _ => None,
        }));
        out.sort_by_key(|&(d, _)| d);
        out
    }

    /// A window of a list of `len`: the whole of it, then a random
    /// slice.
    fn windows(seed: u64, len: usize) -> [(usize, usize); 2] {
        let mut rng = TestRng::deterministic("window", seed as u32);
        let start = rng.below(len as u64 + 1) as usize;
        let count = rng.below((len - start) as u64 + 1) as usize;
        [(0, len), (start, count)]
    }

    proptest! {
        #[test]
        fn edges_walks_slices_like_indexing(seed in any::<u64>(), len in 0usize..300) {
            let list = sorted_list(seed, len);
            let ids: Vec<VertexId> = list.iter().map(|&v| VertexId(v)).collect();
            check_walk(&slice_pv(&ids), &list)?;
        }

        #[test]
        fn edges_walks_raw_spans_like_indexing(
            seed in any::<u64>(),
            len in 0usize..600,
            page_shift in 4u32..13,
            head in 0usize..8192,
        ) {
            // Arbitrary head: words straddle page boundaries whenever
            // it is not a multiple of four.
            let page_bytes = 1usize << page_shift;
            let mut rng = TestRng::deterministic("raw_words", seed as u32);
            let list: Vec<u32> = (0..len).map(|_| rng.next_u64() as u32).collect();
            let pv = raw_pv(&list, head % (2 * page_bytes), page_bytes);
            check_walk(&pv, &list)?;
        }

        #[test]
        fn edges_walks_packed_spans_like_indexing(
            seed in any::<u64>(),
            len in 4usize..500,
            k in (1u32..10).prop_map(|groups| 4 * groups),
            with_header in any::<bool>(),
            page_shift in 4u32..13,
            head in 0usize..8192,
        ) {
            let list = sorted_list(seed, len);
            let mut rng = TestRng::deterministic("packed_window", seed as u32);
            let start = rng.below(len as u64 + 1) as usize;
            let count = rng.below((len - start) as u64 + 1) as usize;
            let page_bytes = 1usize << page_shift;
            let paging = (head % (2 * page_bytes), page_bytes);
            let pv = packed_slice_pv(&list, k, (start, count), with_header, paging);
            check_walk(&pv, &list[start..start + count])?;
        }

        #[test]
        fn edges_walks_overlays_like_indexing(
            seed in any::<u64>(),
            len in 0usize..200,
            packed_base in any::<bool>(),
            page_shift in 4u32..13,
            head in 0usize..8192,
        ) {
            // Distinct ids, as `diff` assumes (one op, one entry);
            // duplicates have their own test below.
            let mut list = sorted_list(seed, len);
            list.dedup();
            let len = list.len();
            let page_bytes = 1usize << page_shift;
            let paging = (head % (2 * page_bytes), page_bytes);
            let base = |list: &[u32]| {
                if packed_base && list.len() >= 4 {
                    packed_slice_pv(list, 8, (0, list.len()), true, paging)
                } else {
                    raw_pv(list, paging.0, paging.1)
                }
            };
            let ops = random_ops(seed, &list, false);
            let merged: Vec<u32> = merged_model(&list, &vec![1.0; len], &ops)
                .into_iter()
                .map(|(d, _)| d)
                .collect();
            prop_assert_eq!(merged.len() as i64, len as i64 + ops.diff);
            for (start, count) in windows(seed, merged.len()) {
                let pv = PageVertex::with_overlay(base(&list), &ops, start as u64, count);
                let want = &merged[start..start + count];
                check_walk(&pv, want)?;
                for probe in [0, want.first().copied().unwrap_or(3), 77] {
                    prop_assert_eq!(pv.contains(VertexId(probe)), want.contains(&probe));
                }
            }
        }

        #[test]
        fn overlay_weights_follow_the_same_merge(
            seed in any::<u64>(),
            len in 0usize..120,
            span_base in any::<bool>(),
            page_shift in 4u32..13,
            head in 0usize..8192,
        ) {
            // The weighted walk over a slice or a raw span (its weights
            // a second span), then over an overlay on it: the id walk's
            // destinations, each weight the base's, update's or add's.
            let mut list = sorted_list(seed, len);
            list.dedup();
            let ids: Vec<VertexId> = list.iter().map(|&v| VertexId(v)).collect();
            let ws: Vec<f32> = list.iter().map(|&v| v as f32 + 0.5).collect();
            let page_bytes = 1usize << page_shift;
            let head = head % (2 * page_bytes);
            let bits: Vec<u32> = ws.iter().map(|w| w.to_bits()).collect();
            let base = || {
                if span_base {
                    let edges = leaked(words_span(&list, head, page_bytes));
                    let attrs = leaked(words_span(&bits, (head + 6) % page_bytes, page_bytes));
                    PageVertex::from_span(VertexId(0), EdgeDir::Out, 0, edges, Some(attrs))
                } else {
                    PageVertex::from_slice(VertexId(0), EdgeDir::Out, 0, &ids, Some(&ws))
                }
            };
            let plain: Vec<(u32, f32)> = list.iter().copied().zip(ws.iter().copied()).collect();
            check_walk(&base(), &list)?;
            check_weighted_walk(&base(), &plain)?;
            let ops = random_ops(seed, &list, true);
            let merged = merged_model(&list, &ws, &ops);
            for (start, count) in windows(seed, merged.len()) {
                let pv = PageVertex::with_overlay(base(), &ops, start as u64, count);
                let want = &merged[start..start + count];
                check_walk(&pv, &want.iter().map(|&(d, _)| d).collect::<Vec<_>>())?;
                check_weighted_walk(&pv, want)?;
            }
        }
    }

    #[test]
    fn overlay_duplicate_base_entries_share_their_op() {
        // A Remove swallows every copy of its destination, an Update
        // rewrites every copy: the op stays until the base moves on.
        let ids: Vec<VertexId> = [2u32, 5, 5, 5, 9, 9].iter().map(|&v| VertexId(v)).collect();
        let ws = [1.0f32; 6];
        let base = PageVertex::from_slice(VertexId(0), EdgeDir::Out, 0, &ids, Some(&ws));
        let ops = DeltaList {
            ops: vec![(5, DeltaOp::Remove), (9, DeltaOp::Update(4.0))],
            diff: -3,
        };
        let pv = PageVertex::with_overlay(base, &ops, 0, 3);
        assert_eq!(pv.edges().map(|e| e.0).collect::<Vec<_>>(), vec![2, 9, 9]);
        let got: Vec<(u32, f32)> = pv
            .weighted_edges()
            .unwrap()
            .map(|(d, w)| (d.0, w))
            .collect();
        assert_eq!(got, vec![(2, 1.0), (9, 4.0), (9, 4.0)]);
    }

    /// A packed delivery over hand-written stream bytes (restarts every
    /// 32), starting `head` bytes into 32-byte pages: its first chunk
    /// is `32 - head` bytes long.
    fn packed_bytes_pv(bytes: &[u8], head: usize, count: usize) -> PageVertex<'static> {
        let params = VarintSlice {
            header_bytes: 0,
            stream_pos: 0,
            skip: 0,
            k: 32,
        };
        let span = leaked(span_over(bytes, head, 32));
        PageVertex::from_span_packed(VertexId(0), EdgeDir::Out, 0, span, count, params)
    }

    #[test]
    fn corrupt_streams_fail_where_indexing_fails() {
        // Six good groups of mixed widths, then a faulty one: it ends
        // with the block, its control byte promises bytes past the
        // block, or its first gap overflows the id space. The walker
        // yields the 24 good ids and panics on the first id of the
        // faulty group. Across heads 0..32 the page seams cut every
        // group at every byte, so each is read in place or gathered
        // across a seam.
        use fg_format::codec::encode_list;
        let mut v = 4u32;
        let good: Vec<u32> = (0..24usize)
            .map(|i| {
                v += [1, 300, 70_000, 0, 20_000_000][i % 5];
                v
            })
            .collect();
        let mut prefix = Vec::new();
        assert!(encode_list(&good, 32, &mut prefix));
        let truncated: &[u8] = &[0x00, 1, 1];
        let past_block: &[u8] = &[0xFF, 1, 1, 1, 1, 1, 1, 1, 1];
        let overflow: &[u8] = &[0x03, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0];
        let want: Vec<VertexId> = good.iter().map(|&d| VertexId(d)).collect();
        let n = good.len();
        let caught = |f: &dyn Fn()| {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
                .expect_err("corrupt block must panic");
            let msg = err
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            assert!(msg.contains("corrupt varint edge block"), "{msg}");
        };
        for fault in [truncated, past_block, overflow] {
            let bytes = [&prefix[..], fault].concat();
            for head in 0..32 {
                let pv = packed_bytes_pv(&bytes, head, n + 4);
                assert_eq!(pv.edges().take(n).collect::<Vec<_>>(), want, "head {head}");
                caught(&|| {
                    std::hint::black_box(pv.edges().nth(n));
                });
                // An overlay's walker decodes a base group no earlier
                // than the step that may emit its first id.
                let ops = list_of(&[(1, DeltaOp::Add(None))]);
                let base = packed_bytes_pv(&bytes, head, n + 4);
                let pv = PageVertex::with_overlay(base, &ops, 0, n + 5);
                assert_eq!(pv.edges().take(n + 1).count(), n + 1);
                caught(&|| {
                    std::hint::black_box(pv.edges().nth(n + 1));
                });
            }
        }
    }

    #[test]
    #[should_panic(expected = "corrupt varint edge block")]
    fn truncated_block_panics_from_edges() {
        let pv = packed_bytes_pv(&[0x00, 5, 1, 1], 13, 4);
        let _ = pv.edges().count();
    }

    #[test]
    #[should_panic(expected = "corrupt varint edge block")]
    fn group_past_the_block_panics_from_edges() {
        // The control byte promises 17 bytes; the block holds 6.
        let pv = packed_bytes_pv(&[0xFF, 0, 0, 0, 0, 0], 13, 1);
        let _ = pv.edges().count();
    }

    #[test]
    #[should_panic(expected = "overlay window exceeds the merged list")]
    fn overlay_window_past_the_merge_panics_from_edges() {
        let ids = [VertexId(1), VertexId(2)];
        let ops = DeltaList {
            ops: vec![(1, DeltaOp::Remove)],
            diff: 0, // lies: the merged list has one entry
        };
        let pv = PageVertex::with_overlay(slice_pv(&ids), &ops, 0, 2);
        let _ = pv.edges().count();
    }
}
