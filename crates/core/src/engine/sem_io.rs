use std::sync::Arc;

use fg_format::{GraphIndex, ListSlice, SliceDecode};
use fg_graph::DeltaView;
use fg_safs::{Completion, IoSession, PageSpan};
use fg_types::{EdgeDir, VertexId};

use super::boundary::Counters;
use super::worker::WorkerEnv;
use crate::context::EdgeRequest;
use crate::merge::{
    merge_requests, subtract_inflight, InflightPages, MergedReq, PageRange, RangeReq,
};
use crate::program::VertexProgram;
use crate::vertex::PageVertex;

/// Per-worker I/O machinery: the semi-external driver or the
/// in-memory no-op.
// One instance per worker thread; the Mem arm is a unit and the Sem
// arm carries the session state, so the variant size gap is irrelevant.
#[allow(clippy::large_enum_variant)]
pub(super) enum IoDriver<'s> {
    Mem,
    Sem(SemIo<'s>),
}

impl IoDriver<'_> {
    pub(super) fn outstanding(&self) -> usize {
        match self {
            IoDriver::Mem => 0,
            IoDriver::Sem(s) => s.outstanding,
        }
    }

    /// Requests actually submitted to the device and not yet
    /// harvested — excludes logical requests still buffered in the
    /// issue queue awaiting a batch-size trigger.
    pub(super) fn in_flight(&self) -> usize {
        match self {
            IoDriver::Mem => 0,
            IoDriver::Sem(s) => s.outstanding - s.buffered,
        }
    }

    /// Flushes the issue queue once it has reached the issue-batch
    /// size.
    pub(super) fn flush_if_full<P: VertexProgram>(&mut self, env: &WorkerEnv<'_, '_, P>) {
        if let IoDriver::Sem(s) = self {
            if s.issue_q.len() >= env.engine.cfg.issue_batch {
                self.flush(env);
            }
        }
    }

    /// Flushes the issue queue however little is buffered — the
    /// end-of-claims flush, the stall-point flush, and the synchronous
    /// barrier-phase drain.
    pub(super) fn flush<P: VertexProgram>(&mut self, env: &WorkerEnv<'_, '_, P>) {
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
pub(super) struct ReadyVertex {
    pub(super) requester: VertexId,
    pub(super) subject: VertexId,
    /// Vertical pass of the originating request (see [`PartMeta`]).
    pub(super) vpart: u32,
    pub(super) dir: EdgeDir,
    pub(super) start: u64,
    /// Edges delivered (drives `PageVertex::degree` for packed spans).
    pub(super) count: u64,
    pub(super) decode: SliceDecode,
    pub(super) edges: PageSpan,
    pub(super) attrs: Option<PageSpan>,
    /// See [`PartMeta::overlay`] — when set, decoding wraps the base
    /// list in [`PageVertex::with_overlay`] against the run's pinned
    /// [`DeltaView`].
    pub(super) overlay: Option<(u64, u64)>,
}

impl ReadyVertex {
    /// The delivery of a fetch of nothing (see [`fetch_window`]): no
    /// I/O, empty spans, the overlay window — if any — still applied.
    pub(super) fn empty(
        req: &EdgeRequest,
        vp: u32,
        start: u64,
        overlay: Option<(u64, u64)>,
    ) -> Self {
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
pub(super) fn fetch_window(
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
pub(super) struct SemIo<'s> {
    pub(super) session: IoSession<'s>,
    pub(super) issue_q: Vec<RangeReq>,
    issue_meta: Vec<PartMeta>,
    slab: Vec<Option<MergedMeta>>,
    slab_free: Vec<usize>,
    pairs: Vec<Option<AttrPair>>,
    pairs_free: Vec<usize>,
    pub(super) ready: Vec<ReadyVertex>,
    /// Page ranges of covers submitted and not yet resolved (each
    /// cover's slab entry remembers its own). Later flush batches
    /// subtract these before building covers: a request fully inside
    /// them is submitted alone and attaches to the in-flight read via
    /// the mount table instead of joining a new device cover.
    inflight: InflightPages,
    pub(super) outstanding: usize,
    /// How many of `outstanding` are still buffered in the issue
    /// queue rather than submitted. Counted in logical requests, not
    /// queue entries (a weighted request pushes two parts), so
    /// `outstanding - buffered` is the number of requests actually at
    /// the device.
    pub(super) buffered: usize,
    /// First global vertex id of the index this session speaks — a
    /// shard's per-mount index is keyed by local ids, so subjects are
    /// rebased before locate calls. 0 for a whole-graph image.
    base: u32,
}

impl<'s> SemIo<'s> {
    pub(super) fn with_base(session: IoSession<'s>, base: u32) -> Self {
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
    pub(super) fn enqueue(
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
    pub(super) fn resolve(&mut self, c: Completion) {
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
    pub(super) fn pop_ready(
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
    pub(super) fn decode_ready(r: ReadyVertex, deltas: Option<&DeltaView>) -> PageVertex<'static> {
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
