//! The semi-external I/O layer of one worker (§3.6): a request
//! becomes a delivery header, the header a byte range in a [`Batch`],
//! the batch covers, and a read cover [`Entry`]s — runs of its
//! requests — for the ready pool.
//!
//! A request is written once, where it is enqueued, and read in place
//! from then on. A batch is sorted once and cut into covers as *index
//! ranges* of it (`merge::covers`); a slab slot and a pool entry are
//! such a range plus a reference to the batch, and a delivery's header
//! and byte range are read out of the batch when its callback runs.
//!
//! A claimed run's requests are read one of two ways and delivered one
//! way. [`SemIo::set_aside`] stages a run's sweepable requests — owned,
//! non-empty, without attributes — in the worker's run batch instead of
//! enqueueing them; once the run is through, [`SemIo::settle`] applies
//! the rule per direction:
//! the requests are dense when their bytes are at least half of the
//! span from their lowest to their highest image byte
//! ([`DENSE_SHARE`]). A sparse direction's requests, and every other
//! request, go to the issue queue, which [`SemIo::flush`] turns into a
//! batch whose covers are *submitted*: the session's I/O threads read
//! them, and `harvest` resolves what lands. A dense direction's
//! requests stay in the run batch, whose covers are *read inline* on
//! the claiming worker (`IoSession::read_inline`, the session's own
//! read) and resolved at once. One function cuts and issues both
//! ([`SemIo::issue`]); from the resolve on an entry is an entry,
//! whichever way its cover was read. With `merge_in_engine` off nothing
//! is set aside.
//!
//! Invariant owned here: every request counted in `outstanding` is
//! either `buffered` in the issue queue or named by exactly one live
//! slab range or pool entry of its batch (a weighted request's second
//! half by its join slot as well), and is delivered exactly once, with
//! the header it was enqueued with. And the bound that makes batches
//! recyclable: besides the worker's own references to them, a batch is
//! referenced only by those ranges and entries, so batches in use ≤
//! covers with an undelivered part, and a flush makes a batch only
//! when every one on its list is in use — the list holds no more than
//! were once needed together — while the run batch is made once and
//! stages a run only when no entry names it. In the steady state
//! neither the queue nor a batch is allocated or regrown. `SemIo` owns its
//! session and its flush policy, so nothing outside this file submits,
//! reads, kicks or polls. The flush gate — `harvest`'s stall-point
//! flush over `outstanding` and `buffered`, plain fields of one worker
//! — has no interleaving to explore; `engine_behavior`'s
//! `pipeline_survives_max_pending_below_issue_batch` holds it, under a
//! watchdog.
//! Priced by the ledger's `engine.fetch_ns_per_req` and `merge.*`
//! rows; `tests/alloc_request_path.rs` holds the allocation floor.
//!
//! What a request costs here it costs per batch. A delivery's bytes
//! are a window borrowed from its entry's span of the cover
//! (`SpanWindow::slice` touches no reference count), and its header
//! carries what the request's one degree and one view lookup found, so
//! nothing here reads the view, and the index only to locate bytes.
//! And the layer's tallies, `bytes_requested`, `issued_requests` and
//! `swept_requests`, are plain fields of the worker's own `SemIo`,
//! folded into the run's shared
//! [`Counters`] by [`SemIo::flush`] — which every path to a boundary
//! ends with: the compute loop's exit test and the barrier phase's
//! drain both flush after their last delivery, before the barrier
//! worker 0 snapshots behind. So a boundary snapshot still sees every
//! byte of the iteration that requested it, and the per-iteration rows
//! still sum to the totals.

use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fg_format::{GraphIndex, ListSlice, ShardedIndex, SliceDecode};
use fg_graph::{DeltaSlot, DeltaView};
use fg_safs::{CacheStats, Completion, IoSession, PageSpan, Safs, SpanWindow};
use fg_types::{EdgeDir, VertexId};

use super::boundary::Counters;
use super::pool::Run;
use crate::config::EngineConfig;
use crate::context::EdgeRequest;
use crate::merge::{covers, sort_requests, RangeReq, MAX_MERGE_BYTES};
use crate::vertex::PageVertex;

/// The least share of a run's span, per direction, its sweepable
/// requests must ask for to be swept: at one half, a sweep reads at
/// most twice the bytes asked for (fewer, since it reads only pages
/// holding requested bytes), and a run below it is scattered enough
/// that the selective path's merging has little to join. A constant,
/// like the merge cap.
const DENSE_SHARE: (u64, u64) = (1, 2);

/// The header of one delivery: who asked, for which slice of whose
/// list, and how the fetched bytes decode. Written once, where a
/// request becomes a fetch ([`fetch_window`]), stored once in its
/// issue batch, and read there by whoever runs the delivery.
#[derive(Debug, Clone, Copy)]
pub(super) struct Header {
    pub(super) requester: VertexId,
    subject: VertexId,
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
    /// Present when the subject carries pinned delta ops: where they
    /// sit in the run's view, and the `(start, len)` window in
    /// *merged* coordinates the delivery must tile (the fetch itself
    /// covers the full base list).
    overlay: Option<(DeltaSlot, u64, u64)>,
}

/// What one request fetches from the subject's on-SSD list: the
/// requested slice as is, or — when the subject carries pinned delta
/// ops — the *full* base list, with the request's window (already
/// expressed in *merged* coordinates by the context's clamp) riding
/// aside in `overlay`. The delivery-time merge needs every on-SSD
/// edge to map merged positions; several ranges of one overlaid list
/// re-fetch the same pages, which the page cache and in-flight dedup
/// table absorb. A
/// `count` of zero — an empty slice, or an overlaid subject with
/// nothing on SSD, whose merged list is pure adds — completes without
/// I/O. Everything it needs — the base degree, the ops' slot — the
/// request carries from the lookup that clamped it, so it reads
/// neither the index nor the view.
pub(super) fn fetch_window(req: &EdgeRequest) -> Header {
    let (start, count, overlay) = match req.ops {
        Some(ops) if req.len > 0 => (0, req.base, Some((ops, req.start, req.len))),
        _ => (req.start, req.len, None),
    };
    Header {
        requester: req.requester,
        subject: req.subject,
        dir: req.dir,
        start,
        count,
        decode: SliceDecode::Raw,
        overlay,
    }
}

/// Decodes one delivery's bytes into a deliverable [`PageVertex`]:
/// an entry's part, or an inline delivery's (a fetch of nothing, a
/// foreign read), its bytes windows borrowed from the cover or read
/// that holds them. An overlaid delivery wraps the decoded (full) base
/// list with the subject's pinned delta ops, borrowed from the view and
/// windowed to the request's merged-coordinate slice.
pub(super) fn decode<'d>(
    head: &Header,
    edges: SpanWindow<'d>,
    attrs: Option<SpanWindow<'d>>,
    deltas: Option<&'d DeltaView>,
) -> PageVertex<'d> {
    let Header {
        subject,
        dir,
        start,
        ..
    } = *head;
    let base = match head.decode {
        SliceDecode::Raw => PageVertex::from_span(subject, dir, start, edges, attrs),
        SliceDecode::Varint(p) => {
            debug_assert!(attrs.is_none(), "packed deliveries never carry attrs");
            PageVertex::from_span_packed(subject, dir, start, edges, head.count as usize, p)
        }
    };
    match head.overlay {
        None => base,
        Some((ops, ws, wl)) => {
            let view = deltas.expect("overlay deliveries run with the view that created them");
            PageVertex::with_overlay(base, view.at(ops), ws, wl as usize)
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

/// Byte ranges and what each is for: the issue queue, a run's staged
/// requests, and — once issued — a batch, immutable from then on and
/// shared by everything that names a range of it.
#[derive(Default)]
struct Batch {
    /// The byte ranges, in `merge::sort_requests` order once issued;
    /// `meta` indexes `metas`.
    reqs: Vec<RangeReq>,
    /// What each range is for, in enqueue order.
    metas: Vec<PartMeta>,
}

impl Batch {
    fn with_capacity(len: usize) -> Self {
        Batch {
            reqs: Vec::with_capacity(len),
            metas: Vec::with_capacity(len),
        }
    }

    fn part(&self, i: u32) -> (&RangeReq, &PartMeta) {
        let r = &self.reqs[i as usize];
        (r, &self.metas[r.meta as usize])
    }

    /// Appends one byte range and what it is for.
    fn push(&mut self, offset: u64, bytes: u64, meta: PartMeta) {
        self.metas.push(meta);
        let meta = (self.metas.len() - 1) as u32;
        self.reqs.push(RangeReq {
            offset,
            bytes,
            meta,
        });
    }

    /// Empties the batch, keeping its capacity.
    fn clear(&mut self) {
        self.reqs.clear();
        self.metas.clear();
    }
}

/// The most deliveries one [`Entry`] holds. An entry is what the pool
/// moves and what a thief steals, so this is the granularity work
/// spreads at: long enough that a cover's run pays one deque slot, one
/// span and one batch reference between them, short enough that one
/// worker's hub-sized cover still feeds its siblings. Measured with
/// the round budget beside `worker.rs`'s `ROUND_ENTRIES`, which see.
pub(super) const ENTRY_DELIVERIES: u32 = 64;

/// What crosses the ready pool: a run of one landed cover's requests,
/// at most [`ENTRY_DELIVERIES`] of them, as a range of their batch.
/// Owns a reference to the cover's pages and to the batch, so it can
/// cross worker threads; whichever worker takes it walks it in place,
/// each delivery a window borrowed from the entry's span.
pub(super) struct Entry {
    /// The cover's bytes, and where on the image they start.
    span: PageSpan,
    offset: u64,
    batch: Arc<Batch>,
    parts: Range<u32>,
    /// The half that landed first, for the one-delivery entry of a
    /// weighted request (whose part here is the half that landed
    /// second).
    other: Option<PageSpan>,
}

impl Run for Entry {
    /// The batch indexes of the entry's deliveries, for
    /// [`Entry::delivery`] and [`Entry::only`].
    fn parts(&self) -> Range<u32> {
        self.parts.clone()
    }

    /// Delivery `i` as an entry of its own — what goes to the injector
    /// when `i`'s requester is busy elsewhere.
    fn only(&self, i: u32) -> Entry {
        debug_assert!(self.parts.contains(&i));
        Entry {
            span: self.span.clone(),
            offset: self.offset,
            batch: Arc::clone(&self.batch),
            parts: i..i + 1,
            other: self.other.clone(),
        }
    }
}

impl Entry {
    /// The header of delivery `i`, read in place.
    pub(super) fn head(&self, i: u32) -> &Header {
        debug_assert!(self.parts.contains(&i));
        &self.batch.part(i).1.head
    }

    /// Delivery `i`: its header, read in place, and its edge and
    /// attribute bytes as windows borrowed from the cover — no
    /// reference count is touched, so workers running deliveries of
    /// one cover write no line they share.
    pub(super) fn delivery(&self, i: u32) -> (&Header, SpanWindow<'_>, Option<SpanWindow<'_>>) {
        debug_assert!(self.parts.contains(&i));
        let (r, pm) = self.batch.part(i);
        let span = self
            .span
            .window()
            .slice((r.offset - self.offset) as usize, r.bytes as usize);
        let other = self.other.as_ref().map(PageSpan::window);
        match (pm.kind, other) {
            (PartKind::Edges { .. }, attrs) => (&pm.head, span, attrs),
            (PartKind::Attrs { .. }, Some(edges)) => (&pm.head, edges, Some(span)),
            (PartKind::Attrs { .. }, None) => panic!("an attribute run is delivered joined"),
        }
    }
}

/// What a slab slot tracks while its I/O is out.
enum Slot {
    /// A cover, under the tag its completion carries (SAFS echoes it
    /// back; an inline read resolves it at once): where it starts and
    /// which range of `batch` it serves.
    Cover {
        offset: u64,
        batch: Arc<Batch>,
        parts: Range<u32>,
    },
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

/// A direction's span before its first request: the lowest offset at
/// its largest.
const EMPTY_SPAN: (u64, u64, u64) = (u64::MAX, 0, 0);

/// A direction's slot in [`SemIo`]'s per-direction spans.
fn slot(dir: EdgeDir) -> usize {
    usize::from(dir != EdgeDir::Out)
}

/// Locates a non-empty fetch of an owned subject in `own`, the index
/// of the shard whose ids start at `first`: its header with the decode
/// filled in, and where its bytes sit on the image.
fn locate(own: &GraphIndex, first: u32, mut head: Header) -> (Header, ListSlice) {
    let local = VertexId(head.subject.0 - first);
    let slice = own.locate_slice(local, head.dir, head.start, head.count);
    debug_assert_eq!(
        slice.loc.degree, head.count,
        "ranges are clamped at request time against the same index"
    );
    head.decode = slice.decode;
    (head, slice)
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
/// queue and the batches it was flushed into, the batch of the run
/// being claimed, and the slab of covers in flight.
///
/// The queue flushes at the issue-batch size (or at a stall point, see
/// [`SemIo::flush`]), merges only page-adjacent requests, and submits
/// through the page cache — the paper's request path: selective access
/// plus conservative merging, which is also what makes a dense
/// iteration's reads sequential. A dense run's batch is cut by the same
/// rule and read on this worker instead.
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
    /// The flush policy: `issue_batch` and `merge_in_engine`, fixed
    /// for the run (the merge cap is a constant).
    cfg: EngineConfig,
    page_bytes: u64,
    /// The issue queue: the batch being filled.
    queue: Batch,
    /// The sweepable requests of the run being claimed, located and
    /// staged in the batch a sweep cuts its covers from, and per
    /// direction (out, in) the lowest offset, the highest end and the
    /// bytes they ask for. One batch, made once and kept apart from
    /// the queue's: a worker stages a run only once every entry of its
    /// last sweep is delivered ([`SemIo::reclaim_run`]), so no more
    /// than one run's requests and pages are held for a sweep.
    run: Arc<Batch>,
    spans: [(u64, u64, u64); 2],
    /// Every batch the queue was flushed into: the ones a slab range or
    /// a pool entry may still name, and the spares (see
    /// [`SemIo::spare_batch`]).
    batches: Vec<Arc<Batch>>,
    slab: Slab,
    ready: Vec<Entry>,
    /// The session's completions on their way through `harvest`, kept
    /// for its capacity.
    landed: Vec<Completion>,
    /// Bytes and device-bound requests (covers, foreign reads), and
    /// requests read inline, since the last fold into `counters` (see
    /// [`SemIo::flush`]).
    bytes_requested: u64,
    issued_requests: u64,
    swept_requests: u64,
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
    /// session books its cache lookups to `scope`. The run batch and
    /// the ready list are sized for a claimed run of `run_len`
    /// requests, so that the runs of a typical program never regrow
    /// them.
    pub(super) fn new(
        mounts: &'s [Safs],
        index: &'s ShardedIndex,
        me: usize,
        scope: Option<Arc<CacheStats>>,
        cfg: &EngineConfig,
        run_len: usize,
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
            queue: Batch::default(),
            run: Arc::new(Batch::with_capacity(run_len)),
            spans: [EMPTY_SPAN; 2],
            batches: Vec::new(),
            slab: Slab::default(),
            ready: Vec::with_capacity(run_len.div_ceil(ENTRY_DELIVERIES as usize)),
            landed: Vec::new(),
            bytes_requested: 0,
            issued_requests: 0,
            swept_requests: 0,
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

    /// Reads a non-empty slice of a foreign subject (TC-style
    /// neighbour-list reads): located on the owning shard's index and
    /// read from its mount synchronously — the cross-shard analogue of
    /// the in-memory source's inline delivery, safe because the
    /// requester holds its busy bit and the subject's *state* is never
    /// touched, only its on-disk edges.
    pub(super) fn read_foreign(
        &mut self,
        mut head: Header,
        attrs: bool,
    ) -> (Header, PageSpan, Option<PageSpan>) {
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
        (head, edges, attrs)
    }

    /// Moves the requests `reqs` holds that a sweep may read — owned,
    /// non-empty, without attributes — into the run's batch, located,
    /// and leaves the rest for `absorb_requests`. Sets nothing aside
    /// with engine-side merging off.
    pub(super) fn set_aside(&mut self, reqs: &mut Vec<EdgeRequest>) {
        if !self.cfg.merge_in_engine || reqs.is_empty() {
            return;
        }
        let run = Arc::get_mut(&mut self.run).expect("a run is staged once its sweep is delivered");
        let (own, owned, spans) = (self.own, &self.owned, &mut self.spans);
        reqs.retain(|req| {
            let head = fetch_window(req);
            if req.attrs || head.count == 0 || !owned.contains(&req.subject.0) {
                return true;
            }
            let (head, ListSlice { loc, .. }) = locate(own, owned.start, head);
            let span = &mut spans[slot(head.dir)];
            span.0 = span.0.min(loc.offset);
            span.1 = span.1.max(loc.offset + loc.bytes);
            span.2 += loc.bytes;
            let kind = PartKind::Edges { pair: None };
            run.push(loc.offset, loc.bytes, PartMeta { head, kind });
            false
        });
    }

    /// Requests staged for the run being claimed: the obligations its
    /// end opens, before [`SemIo::settle`].
    pub(super) fn staged(&self) -> usize {
        self.run.reqs.len()
    }

    /// Takes the run batch back, emptied for the next run, once every
    /// entry of this worker's last sweep has been delivered; false while
    /// one is still out. The gate a worker claims through. `get_mut` is
    /// the acquire that orders a thief's last read of the batch before
    /// this worker's writes.
    pub(super) fn reclaim_run(&mut self) -> bool {
        Arc::get_mut(&mut self.run).map(Batch::clear).is_some()
    }

    /// Ends a claimed run. Per direction, its staged requests are dense
    /// when they ask for at least [`DENSE_SHARE`] of their span. A
    /// sparse direction's go to the issue queue — a queue this fills
    /// past the issue-batch size goes out as one batch, so a run's
    /// scattered requests sort and merge together — and a dense
    /// direction's stay in the run's batch, which is read on this
    /// worker ([`SemIo::issue`]): its entries are ready to harvest on
    /// return. The caller has accepted every staged request's
    /// obligation.
    pub(super) fn settle(&mut self) {
        let (num, den) = DENSE_SHARE;
        let spans = std::mem::replace(&mut self.spans, [EMPTY_SPAN; 2]);
        let dense = spans.map(|(lo, hi, asked)| asked > 0 && asked * den >= (hi - lo) * num);
        let run = Arc::get_mut(&mut self.run).expect("a run is staged once its sweep is delivered");
        let mut swept = 0;
        for i in 0..run.reqs.len() {
            let r = run.reqs[i];
            let pm = run.metas[r.meta as usize];
            self.outstanding += 1;
            self.bytes_requested += r.bytes;
            if dense[slot(pm.head.dir)] {
                run.reqs[swept] = r;
                swept += 1;
            } else {
                self.buffered += 1;
                self.queue.push(r.offset, r.bytes, pm);
            }
        }
        run.reqs.truncate(swept);
        sort_requests(&mut run.reqs);
        self.flush_if_full();
        if swept > 0 {
            self.swept_requests += swept as u64;
            self.issue(&Arc::clone(&self.run), true);
        }
    }

    /// Resolves a non-empty fetch of an owned subject into issue-queue
    /// ranges.
    pub(super) fn enqueue(&mut self, head: Header, attrs: bool) {
        let (head, ListSlice { loc, decode }) = locate(self.own, self.owned.start, head);
        self.outstanding += 1;
        self.buffered += 1;
        if !attrs {
            let kind = PartKind::Edges { pair: None };
            self.push_part(loc.offset, loc.bytes, PartMeta { head, kind });
            return;
        }
        debug_assert_eq!(
            decode,
            SliceDecode::Raw,
            "attribute-bearing blocks are always raw (weighted images force it)"
        );
        let local = VertexId(head.subject.0 - self.owned.start);
        let aloc = self
            .own
            .locate_attrs_range(local, head.dir, head.start, head.count)
            .expect("attrs requested but image has no attribute section");
        let pair = self.slab.insert(Slot::Join(None));
        let kind = PartKind::Attrs { pair };
        self.push_part(aloc.offset, aloc.bytes, PartMeta { head, kind });
        let kind = PartKind::Edges { pair: Some(pair) };
        self.push_part(loc.offset, loc.bytes, PartMeta { head, kind });
    }

    /// Appends one byte range + its metadata to the issue queue.
    fn push_part(&mut self, offset: u64, bytes: u64, meta: PartMeta) {
        self.queue.push(offset, bytes, meta);
        self.bytes_requested += bytes;
    }

    /// Flushes the issue queue once it has reached the issue-batch
    /// size.
    pub(super) fn flush_if_full(&mut self) {
        if self.queue.reqs.len() >= self.cfg.issue_batch {
            self.flush();
        }
    }

    /// Takes a batch nothing names any more off the list, for this
    /// flush to fill: its vectors keep the capacity the queue's will
    /// take over. With every listed batch still in use, a new one is
    /// sized to the queue it is about to trade places with — the only
    /// time the list grows.
    fn spare_batch(&mut self) -> Arc<Batch> {
        // `get_mut` is the acquire that orders a thief's last read of
        // the batch before this worker's writes to it.
        let mut listed = self.batches.iter_mut();
        let spare = listed.position(|b| Arc::get_mut(b).is_some());
        match spare {
            Some(i) => self.batches.swap_remove(i),
            None => Arc::new(Batch::with_capacity(self.queue.reqs.capacity())),
        }
    }

    /// Sorts, merges, and submits the issue queue (§3.6), however
    /// little is buffered — the end-of-claims flush, the stall-point
    /// flush, and the synchronous barrier-phase drain — and folds this
    /// worker's tallies into the run's counters (see the module docs).
    /// The queue trades places with a spare batch's emptied vectors.
    pub(super) fn flush(&mut self) {
        if !self.queue.reqs.is_empty() {
            let mut batch = self.spare_batch();
            let b = Arc::get_mut(&mut batch).expect("a spare batch is unshared");
            b.clear();
            std::mem::swap(b, &mut self.queue);
            sort_requests(&mut b.reqs);
            self.buffered = 0;
            self.issue(&batch, false);
            self.batches.push(batch);
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
            let swept = std::mem::take(&mut self.swept_requests);
            self.counters.swept_requests.add(swept);
        }
    }

    /// Cuts a batch, sorted where it lies, into covers, and puts each
    /// into the slab as a range of it: submitted to the session, or —
    /// `inline`, a dense run's — read here with the session's inline
    /// read and resolved at once. What becomes of a cover's pages —
    /// cache hit, a ride on a read already on its way (this session's
    /// earlier covers included), or a device run — is the session's
    /// decision alone.
    fn issue(&mut self, batch: &Arc<Batch>, inline: bool) {
        let merge = self.cfg.merge_in_engine;
        for c in covers(&batch.reqs, self.page_bytes, merge, MAX_MERGE_BYTES) {
            let tag = self.slab.insert(Slot::Cover {
                offset: c.offset,
                batch: Arc::clone(batch),
                parts: c.parts,
            }) as u64;
            self.issued_requests += 1;
            let bounds = "edge-list request within image bounds";
            if inline {
                let span = self.session.read_inline(c.offset, c.bytes).expect(bounds);
                self.resolve(Completion { tag, span });
            } else {
                self.session.submit(c.offset, c.bytes, tag).expect(bounds);
            }
        }
    }

    /// Takes the session's completions, waiting for the first as
    /// `wait` says (booked to `wait_ns`), and resolves them. Returns
    /// the entries ready to run, for the caller to drain.
    pub(super) fn harvest(&mut self, wait: Wait) -> &mut Vec<Entry> {
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

    /// Turns a completion — harvested from the session, or an inline
    /// read's — into ready entries: each run of the
    /// cover's plain requests, cut at [`ENTRY_DELIVERIES`], is one; a
    /// weighted request's half waits in its join slot for the other
    /// (which may be in another cover) and the pair is an entry of its
    /// own.
    fn resolve(&mut self, c: Completion) {
        let Slot::Cover {
            offset,
            batch,
            parts,
        } = self.slab.take(c.tag as usize)
        else {
            panic!("completion for a cover's tag");
        };
        let entry = |parts: Range<u32>, other| Entry {
            span: c.span.clone(),
            offset,
            batch: Arc::clone(&batch),
            parts,
            other,
        };
        // Halves parked in a join slot: the only parts that are not a
        // delivery yet.
        let mut parked = 0;
        let mut run = parts.start;
        for i in parts.clone() {
            let (r, pm) = batch.part(i);
            let pair = match pm.kind {
                PartKind::Edges { pair: None } => {
                    if i + 1 - run == ENTRY_DELIVERIES {
                        self.ready.push(entry(run..i + 1, None));
                        run = i + 1;
                    }
                    continue;
                }
                PartKind::Edges { pair: Some(pair) } | PartKind::Attrs { pair } => pair,
            };
            if run < i {
                self.ready.push(entry(run..i, None));
            }
            run = i + 1;
            let Some(Slot::Join(first)) = &mut self.slab.slots[pair] else {
                panic!("a live join slot");
            };
            match first.take() {
                None => {
                    *first = Some(c.span.slice((r.offset - offset) as usize, r.bytes as usize));
                    parked += 1;
                }
                Some(other) => {
                    self.slab.take(pair);
                    self.ready.push(entry(i..i + 1, Some(other)));
                }
            }
        }
        if run < parts.end {
            self.ready.push(entry(run..parts.end, None));
        }
        self.outstanding -= parts.len() - parked;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_format::{load_index, required_capacity, write_image};
    use fg_graph::gen;
    use fg_safs::SafsConfig;
    use fg_ssdsim::{ArrayConfig, SsdArray};

    /// Enqueues own-list requests, vertex after vertex from `next`,
    /// until the queue holds a full batch.
    fn fill(io: &mut SemIo<'_>, next: &mut u32, n: u32) {
        while io.queue.reqs.len() < io.cfg.issue_batch {
            let v = VertexId(*next % n);
            *next += 1;
            let degree = io.index.degree(v, EdgeDir::Out);
            let req = EdgeRequest {
                subject: v,
                requester: v,
                dir: EdgeDir::Out,
                attrs: false,
                start: 0,
                len: degree,
                base: degree,
                ops: None,
            };
            let head = fetch_window(&req);
            if head.count > 0 {
                io.enqueue(head, false);
            }
        }
    }

    /// Harvests until nothing is outstanding; returns the deliveries
    /// that came back, dropping their entries.
    fn drain(io: &mut SemIo<'_>) -> usize {
        let mut delivered = 0;
        while io.outstanding() > 0 {
            let landed = io.harvest(Wait::Block);
            delivered += landed.iter().map(|e| e.parts().len()).sum::<usize>();
            landed.clear();
        }
        delivered
    }

    fn covers_in_flight(io: &SemIo<'_>) -> usize {
        let cover = |s: &&Option<Slot>| matches!(s, Some(Slot::Cover { .. }));
        io.slab.slots.iter().filter(cover).count()
    }

    #[test]
    fn full_batches_reuse_the_queue_and_one_batch() {
        let g = gen::rmat(9, 8, gen::RmatSkew::default(), 3);
        let n = g.num_vertices() as u32;
        let array = SsdArray::new_mem(ArrayConfig::small_test(), required_capacity(&g)).unwrap();
        write_image(&g, &array).unwrap();
        let (_, index) = load_index(&array).unwrap();
        let mounts = [Safs::new(SafsConfig::default(), array).unwrap()];
        let index = ShardedIndex::new(vec![Arc::new(index)]);
        let counters = Counters::default();
        let cfg = EngineConfig {
            issue_batch: 32,
            ..EngineConfig::small()
        };
        let mut io = SemIo::new(&mounts, &index, 0, None, &cfg, 0, &counters);
        let mut next = 0;

        // Ten full batches, each delivered before the next is flushed:
        // the queue and the one batch trade vectors back and forth.
        let mut capacity = None;
        for _ in 0..10 {
            fill(&mut io, &mut next, n);
            io.flush();
            let first = *capacity.get_or_insert(io.queue.reqs.capacity());
            assert_eq!(io.queue.reqs.capacity(), first);
            assert!(io.queue.metas.capacity() >= cfg.issue_batch);
            assert_eq!(io.batches.len(), 1);
            assert_eq!(drain(&mut io), cfg.issue_batch);
        }

        // Three flushed with none harvested: a batch each, and no more
        // than the covers still out plus the one that was spare.
        for flushed in 1..=3 {
            fill(&mut io, &mut next, n);
            io.flush();
            assert_eq!(io.batches.len(), flushed);
            assert!(io.batches.len() <= covers_in_flight(&io) + 1);
        }
        // An entry held back keeps its batch, and only its batch, from
        // being reused: with two spares beside it, nothing is made.
        let held = {
            let landed = io.harvest(Wait::Block);
            let held = landed.pop().expect("a blocking harvest lands a cover");
            landed.clear();
            held
        };
        drain(&mut io);
        let in_use = |io: &mut SemIo<'_>| {
            let used = |b: &mut Arc<Batch>| Arc::get_mut(b).is_none();
            io.batches.iter_mut().map(used).filter(|&u| u).count()
        };
        for _ in 0..4 {
            fill(&mut io, &mut next, n);
            io.flush();
            assert_eq!(io.batches.len(), 3);
            assert_eq!(drain(&mut io), cfg.issue_batch);
            assert_eq!(in_use(&mut io), 1);
        }
        drop(held);
        assert_eq!(in_use(&mut io), 0);
        assert_eq!(io.queue.reqs.capacity(), capacity.unwrap());
        assert_eq!(io.outstanding(), 0);
    }
}
