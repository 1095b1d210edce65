//! The semi-external I/O layer of one worker (§3.6): a request
//! becomes a delivery header, the header a byte range in the issue
//! queue, the queue sorted-and-merged covers on the worker's own SAFS
//! session, and a completion `ReadyVertex` entries again.
//!
//! Invariant owned here: every request counted in `outstanding` is
//! either `buffered` in the issue queue or under exactly one live slab
//! tag, and resolves into exactly one `ReadyVertex` carrying the
//! header it was enqueued with. `SemIo` owns its session and its flush
//! policy, so nothing outside this file submits, kicks or polls
//! (`fg_check`'s `sem_flush` model referees the flush gate). Priced by
//! the ledger's `engine.fetch_ns_per_req` and `merge.*` rows.
//!
//! What a request costs here it costs per batch. A cover's parts are
//! windows over the cover's one shared page vector (`PageSpan::slice`
//! is a reference-count bump), so resolving allocates nothing per
//! part. And the layer's two tallies, `bytes_requested` and
//! `issued_requests`, are plain fields of the worker's own `SemIo`,
//! folded into the run's shared [`Counters`] by [`SemIo::flush`] —
//! which every path to a boundary ends with: the compute loop's exit
//! test and the barrier phase's drain both flush after their last
//! delivery, before the barrier worker 0 snapshots behind. So a
//! boundary snapshot still sees every byte of the iteration that
//! requested it, and the per-iteration rows still sum to the totals.

use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fg_format::{GraphIndex, ListSlice, ShardedIndex, SliceDecode};
use fg_graph::DeltaView;
use fg_safs::{CacheStats, Completion, IoSession, PageSpan, Safs};
use fg_types::{EdgeDir, VertexId};

use super::boundary::Counters;
use crate::config::EngineConfig;
use crate::context::EdgeRequest;
use crate::merge::{merge_requests, MergedReq, RangeReq};
use crate::vertex::PageVertex;

/// The header of one delivery: who asked, for which slice of whose
/// list, and how the fetched bytes decode. Written once, where a
/// request becomes a fetch ([`fetch_window`]), and copied whole
/// through the issue queue, the cover slab and the ready pool.
#[derive(Debug, Clone, Copy)]
pub(super) struct Header {
    pub(super) requester: VertexId,
    subject: VertexId,
    /// Vertical pass the request was issued from. Deliveries carry it
    /// so a stealing worker runs the callback under the same pass
    /// context the requester would have used.
    pub(super) vpart: u32,
    dir: EdgeDir,
    /// First edge position of the fetched slice within the subject's
    /// on-SSD list.
    start: u64,
    /// Edges fetched (explicit: compressed blocks make byte length
    /// non-proportional to edge count); zero completes without I/O.
    pub(super) count: u64,
    /// How the fetched bytes decode (raw `u32`s or a varint block of
    /// the compressed image format), known once the slice is located.
    decode: SliceDecode,
    /// Present when the subject carries pinned delta ops: the
    /// `(start, len)` window in *merged* coordinates the delivery
    /// must tile (the fetch itself covers the full base list).
    overlay: Option<(u64, u64)>,
}

/// What one chunk request fetches from the subject's on-SSD list: the
/// requested slice as is, or — when the subject carries pinned delta
/// ops — the *full* base list, with the request's window (already
/// expressed in *merged* coordinates by the context's clamp) riding
/// aside in `overlay`. The delivery-time merge needs every on-SSD
/// edge to map merged positions; chunked hubs re-fetch the same
/// pages, which the page cache and in-flight dedup table absorb. A
/// `count` of zero — an empty slice, or an overlaid subject with
/// nothing on SSD, whose merged list is pure adds — completes without
/// I/O. `base_degree` is consulted for overlaid subjects only.
pub(super) fn fetch_window(
    req: &EdgeRequest,
    vp: u32,
    deltas: Option<&DeltaView>,
    base_degree: impl FnOnce() -> u64,
) -> Header {
    let overlaid = req.len > 0 && deltas.is_some_and(|d| d.list(req.subject, req.dir).is_some());
    let (start, count, overlay) = if overlaid {
        (0, base_degree(), Some((req.start, req.len)))
    } else {
        (req.start, req.len, None)
    };
    Header {
        requester: req.requester,
        subject: req.subject,
        vpart: vp,
        dir: req.dir,
        start,
        count,
        decode: SliceDecode::Raw,
        overlay,
    }
}

/// A ready-to-deliver edge-list slice. Owns its page spans, so it can
/// cross worker threads: the pipelined scheduler moves these through
/// per-worker deques and a shared injector, and whichever worker pops
/// one runs the delivery.
pub(super) struct ReadyVertex {
    pub(super) head: Header,
    edges: PageSpan,
    attrs: Option<PageSpan>,
}

impl ReadyVertex {
    /// The delivery of a fetch of nothing (see [`fetch_window`]): no
    /// I/O, empty spans, the overlay window — if any — still applied.
    pub(super) fn empty(head: Header, attrs: bool) -> Self {
        ReadyVertex {
            head,
            edges: PageSpan::empty(),
            attrs: attrs.then(PageSpan::empty),
        }
    }

    /// Decodes the entry into a deliverable [`PageVertex`]. Overlaid
    /// entries wrap the decoded (full) base list with the subject's
    /// pinned delta ops, windowed to the request's merged-coordinate
    /// slice.
    pub(super) fn decode(self, deltas: Option<&DeltaView>) -> PageVertex<'static> {
        let Header { subject, dir, .. } = self.head;
        let (start, count) = (self.head.start, self.head.count as usize);
        let base = match self.head.decode {
            SliceDecode::Raw => PageVertex::from_span(subject, dir, start, self.edges, self.attrs),
            SliceDecode::Varint(p) => {
                debug_assert!(self.attrs.is_none(), "packed deliveries never carry attrs");
                PageVertex::from_span_packed(subject, dir, start, self.edges, count, p)
            }
        };
        match self.head.overlay {
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
    head: Header,
    kind: PartKind,
}

struct MergedMeta {
    offset: u64,
    parts: Vec<(u64, u64, PartMeta)>,
}

/// What a slab slot tracks while its I/O is out.
enum Slot {
    /// A submitted cover, under the tag SAFS echoes back.
    Cover(MergedMeta),
    /// The join of a weighted request's edges and attributes, which
    /// may land in different covers: the half that landed first.
    Join(Option<PageSpan>),
}

/// A free-list slab: an index stays put while its slot is occupied and
/// is reused once taken.
#[derive(Default)]
struct Slab {
    slots: Vec<Option<Slot>>,
    free: Vec<usize>,
}

impl Slab {
    fn insert(&mut self, slot: Slot) -> usize {
        let i = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            self.slots.len() - 1
        });
        self.slots[i] = Some(slot);
        i
    }

    fn take(&mut self, i: usize) -> Slot {
        self.free.push(i);
        self.slots[i].take().expect("a live slot")
    }
}

/// How long a harvest may wait for its session's first completion.
#[derive(Debug, Clone, Copy)]
pub(super) enum Wait {
    /// Take what has landed.
    Poll,
    /// Briefly: completions only arrive on the session that issued
    /// them, but stolen work may appear in the pool at any moment.
    Brief,
    /// Until one lands: the barrier phase has nothing else to run.
    Block,
}

/// The semi-external per-worker I/O state: the SAFS session, the issue
/// queue and the slab of covers in flight.
///
/// The queue flushes at the issue-batch size (or at a stall point, see
/// [`SemIo::flush`]), merges only page-adjacent requests, and submits
/// through the page cache — the paper's one request path: selective
/// access plus conservative merging, which is also what makes a dense
/// iteration's reads sequential.
pub(super) struct SemIo<'s> {
    session: IoSession<'s>,
    /// Every mount of the run and the router over their indexes: a
    /// subject another shard owns is read from its owner's mount.
    mounts: &'s [Safs],
    index: &'s ShardedIndex,
    /// This shard's own index, keyed by local ids: owned subjects are
    /// rebased by `owned.start` before locate calls (0 for a
    /// whole-graph image).
    own: &'s GraphIndex,
    /// The global ids this shard owns and fetches asynchronously.
    owned: Range<u32>,
    counters: &'s Counters,
    /// The flush policy: `issue_batch`, `merge_in_engine` and the
    /// merge cap, fixed for the run.
    cfg: EngineConfig,
    page_bytes: u64,
    issue_q: Vec<RangeReq>,
    issue_meta: Vec<PartMeta>,
    slab: Slab,
    ready: Vec<ReadyVertex>,
    /// The session's completions on their way through `harvest`, kept
    /// for its capacity.
    landed: Vec<Completion>,
    /// Bytes and device-bound requests (covers, foreign reads) since
    /// the last fold into `counters` (see [`SemIo::flush`]).
    bytes_requested: u64,
    issued_requests: u64,
    outstanding: usize,
    /// How many of `outstanding` are still buffered in the issue
    /// queue rather than submitted. Counted in logical requests, not
    /// queue entries (a weighted request pushes two parts), so
    /// `outstanding - buffered` is the number of requests actually at
    /// the device.
    buffered: usize,
}

impl<'s> SemIo<'s> {
    /// Worker I/O for shard `me` of `index`, one mount per shard; the
    /// session books its cache lookups to `scope`.
    pub(super) fn new(
        mounts: &'s [Safs],
        index: &'s ShardedIndex,
        me: usize,
        scope: Option<Arc<CacheStats>>,
        cfg: &EngineConfig,
        counters: &'s Counters,
    ) -> Self {
        SemIo {
            session: mounts[me].session_scoped(scope),
            mounts,
            index,
            own: index.shard(me),
            owned: index.shard_range(me),
            counters,
            cfg: *cfg,
            // Every mount of a run shares one page size.
            page_bytes: mounts[me].page_bytes(),
            issue_q: Vec::new(),
            issue_meta: Vec::new(),
            slab: Slab::default(),
            ready: Vec::new(),
            landed: Vec::new(),
            bytes_requested: 0,
            issued_requests: 0,
            outstanding: 0,
            buffered: 0,
        }
    }

    /// Logical requests enqueued and not yet harvested.
    pub(super) fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Whether `v` is fetched through this worker's own session rather
    /// than read from a peer's mount. Always, over a single mount.
    pub(super) fn owns(&self, v: VertexId) -> bool {
        self.owned.contains(&v.0)
    }

    /// The header of `req`'s fetch (see [`fetch_window`]).
    pub(super) fn window(&self, req: &EdgeRequest, vp: u32, deltas: Option<&DeltaView>) -> Header {
        fetch_window(req, vp, deltas, || self.index.degree(req.subject, req.dir))
    }

    /// Reads a non-empty slice of a foreign subject (TC-style
    /// neighbour-list reads): located on the owning shard's index and
    /// read from its mount synchronously — the cross-shard analogue of
    /// the in-memory source's inline delivery, safe because the
    /// requester holds its busy bit and the subject's *state* is never
    /// touched, only its on-disk edges.
    pub(super) fn read_foreign(&mut self, mut head: Header, attrs: bool) -> ReadyVertex {
        let (subject, dir) = (head.subject, head.dir);
        let (start, count) = (head.start, head.count);
        let (s, slice) = self.index.locate_slice(subject, dir, start, count);
        let loc = slice.loc;
        debug_assert_eq!(loc.degree, count);
        head.decode = slice.decode;
        self.bytes_requested += loc.bytes;
        self.issued_requests += 1;
        let edges = self.mounts[s]
            .read_sync(loc.offset, loc.bytes)
            .expect("foreign shard edge read");
        let attrs = attrs.then(|| {
            let (sa, aloc) = self
                .index
                .locate_attrs_range(subject, dir, start, count)
                .expect("attrs requested but image has no attribute section");
            self.bytes_requested += aloc.bytes;
            self.issued_requests += 1;
            self.mounts[sa]
                .read_sync(aloc.offset, aloc.bytes)
                .expect("foreign shard attr read")
        });
        ReadyVertex { head, edges, attrs }
    }

    /// Resolves a non-empty fetch of an owned subject into issue-queue
    /// ranges.
    pub(super) fn enqueue(&mut self, mut head: Header, attrs: bool) {
        let local = VertexId(head.subject.0 - self.owned.start);
        let ListSlice { loc, decode } = self
            .own
            .locate_slice(local, head.dir, head.start, head.count);
        debug_assert_eq!(
            loc.degree, head.count,
            "ranges are clamped at request time against the same index"
        );
        head.decode = decode;
        self.outstanding += 1;
        self.buffered += 1;
        let pair = attrs.then(|| {
            debug_assert_eq!(
                decode,
                SliceDecode::Raw,
                "attribute-bearing blocks are always raw (weighted images force it)"
            );
            let aloc = self
                .own
                .locate_attrs_range(local, head.dir, head.start, head.count)
                .expect("attrs requested but image has no attribute section");
            let pair = self.slab.insert(Slot::Join(None));
            let kind = PartKind::Attrs { pair };
            self.push_part(aloc.offset, aloc.bytes, PartMeta { head, kind });
            pair
        });
        let kind = PartKind::Edges { pair };
        self.push_part(loc.offset, loc.bytes, PartMeta { head, kind });
    }

    /// Appends one byte range + its metadata to the issue queue.
    fn push_part(&mut self, offset: u64, bytes: u64, meta: PartMeta) {
        self.issue_meta.push(meta);
        self.issue_q.push(RangeReq {
            offset,
            bytes,
            meta: (self.issue_meta.len() - 1) as u32,
        });
        self.bytes_requested += bytes;
    }

    /// Installs one merged cover in the slab and submits it (the
    /// caller kicks the session once its batch is through). What
    /// becomes of each of its pages — cache hit, a ride on a read
    /// already on its way (this session's earlier covers included),
    /// or a device run — is `IoSession::submit`'s decision alone.
    fn submit_cover(&mut self, m: MergedReq, metas: &[PartMeta]) {
        let parts: Vec<(u64, u64, PartMeta)> = m
            .parts
            .iter()
            .map(|p| (p.offset, p.bytes, metas[p.meta as usize]))
            .collect();
        let tag = self.slab.insert(Slot::Cover(MergedMeta {
            offset: m.offset,
            parts,
        }));
        self.issued_requests += 1;
        self.session
            .submit(m.offset, m.bytes, tag as u64)
            .expect("edge-list request within image bounds");
    }

    /// Flushes the issue queue once it has reached the issue-batch
    /// size.
    pub(super) fn flush_if_full(&mut self) {
        if self.issue_q.len() >= self.cfg.issue_batch {
            self.flush();
        }
    }

    /// Sorts, merges, and submits the issue queue (§3.6), however
    /// little is buffered — the end-of-claims flush, the stall-point
    /// flush, and the synchronous barrier-phase drain — and folds this
    /// worker's tallies into the run's counters (see the module docs).
    pub(super) fn flush(&mut self) {
        if !self.issue_q.is_empty() {
            let reqs = std::mem::take(&mut self.issue_q);
            let metas = std::mem::take(&mut self.issue_meta);
            self.buffered = 0;
            let (merge, cap) = (
                self.cfg.merge_in_engine,
                self.cfg.resolved_max_merge_bytes(),
            );
            for m in merge_requests(reqs, self.page_bytes, merge, cap) {
                self.submit_cover(m, &metas);
            }
            // The whole batch crosses to the I/O threads as one message
            // per thread, so they sort and coalesce it as a whole too.
            self.session.kick();
        }
        // A stall point flushes again and again with nothing new:
        // leave the shared line alone then.
        if self.issued_requests > 0 {
            let bytes = std::mem::take(&mut self.bytes_requested);
            self.counters.bytes_requested.add(bytes);
            let issued = std::mem::take(&mut self.issued_requests);
            self.counters.issued_requests.add(issued);
        }
    }

    /// Takes the session's completions, waiting for the first as
    /// `wait` says (booked to `wait_ns`), and resolves them. Returns
    /// the deliveries ready to run, for the caller to drain.
    pub(super) fn harvest(&mut self, wait: Wait) -> &mut Vec<ReadyVertex> {
        // When `max_pending < issue_batch` the depth gate can fill
        // entirely with *buffered* requests that the size trigger will
        // never release — nothing is at the device and a wait could
        // never be satisfied. Submit the partial batch first; this
        // fires only at genuine stall points, so merge batching is
        // otherwise unaffected.
        if !matches!(wait, Wait::Poll) && self.outstanding == self.buffered {
            self.flush();
        }
        let mut landed = std::mem::take(&mut self.landed);
        let t = Instant::now();
        match wait {
            Wait::Poll => self.session.poll(&mut landed),
            Wait::Brief => self
                .session
                .wait_timeout(&mut landed, Duration::from_micros(200)),
            Wait::Block => self.session.wait(&mut landed),
        };
        self.counters.wait_ns.add(t.elapsed().as_nanos() as u64);
        for c in landed.drain(..) {
            self.resolve(c);
        }
        self.landed = landed;
        &mut self.ready
    }

    /// Turns a SAFS completion back into per-vertex ready entries.
    fn resolve(&mut self, c: Completion) {
        let Slot::Cover(meta) = self.slab.take(c.tag as usize) else {
            panic!("completion for a cover's tag");
        };
        for (abs_off, bytes, pm) in meta.parts {
            let span = c
                .span
                .slice((abs_off - meta.offset) as usize, bytes as usize);
            let (edges, attrs) = match pm.kind {
                PartKind::Edges { pair: None } => (span, None),
                PartKind::Edges { pair: Some(pair) } | PartKind::Attrs { pair } => {
                    let Some(Slot::Join(first)) = &mut self.slab.slots[pair] else {
                        panic!("a live join slot");
                    };
                    let Some(other) = first.take() else {
                        *first = Some(span);
                        continue;
                    };
                    self.slab.take(pair);
                    match pm.kind {
                        PartKind::Edges { .. } => (span, Some(other)),
                        PartKind::Attrs { .. } => (other, Some(span)),
                    }
                }
            };
            self.outstanding -= 1;
            self.ready.push(ReadyVertex {
                head: pm.head,
                edges,
                attrs,
            });
        }
    }
}
