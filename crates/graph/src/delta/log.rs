//! The plain log: an ordered sequence of canonicalized runs over a
//! fixed vertex set, and nothing else — no lock, no callback. Every
//! method takes `&mut self`, so whoever owns a [`RunLog`] decides what
//! one step is: [`DeltaLog`](super::DeltaLog) puts it behind a mutex of
//! its own, the serving layer keeps it in the same mutex as the image
//! generation its runs are relative to, where "apply against the base
//! the log sits on" and "fold and swap the base" are plain sequences of
//! statements.

use std::collections::HashMap;
use std::sync::Arc;

use fg_types::{FgError, Result, VertexId};

use super::{BaseLists, BatchOp, DeltaBatch, DeltaOp, DeltaTable, DeltaView};

/// One direction of a run: each source's effective ops, sorted by
/// destination.
type RunOps = HashMap<u32, Vec<(u32, DeltaOp)>>;

/// One applied batch, canonicalized: per-direction effective ops,
/// sorted by `(src, dst)` with a per-source directory.
#[derive(Debug)]
pub(super) struct DeltaRun {
    pub(super) seq: u64,
    /// Out-direction ops (the only direction for undirected logs).
    pub(super) out: RunOps,
    /// In-direction mirror (directed logs only).
    pub(super) in_: RunOps,
}

impl DeltaRun {
    /// Effective ops of this run, counted in the out direction.
    fn num_ops(&self) -> u64 {
        self.out.values().map(|v| v.len() as u64).sum()
    }
}

/// Composes a folded op with the next run's effective op on the same
/// edge. `prev == None` means "no net change relative to base yet".
pub(super) fn compose(prev: Option<DeltaOp>, next: DeltaOp) -> Option<DeltaOp> {
    match (prev, next) {
        (None, op) => Some(op),
        // Edge added by an earlier run...
        (Some(DeltaOp::Add(_)), DeltaOp::Update(w)) => Some(DeltaOp::Add(Some(w))),
        (Some(DeltaOp::Add(_)), DeltaOp::Remove) => None,
        // Edge removed by an earlier run, re-added now: present in
        // base, present after — a weight override (re-adds take the
        // new weight, defaulting to 1.0).
        (Some(DeltaOp::Remove), DeltaOp::Add(w)) => Some(DeltaOp::Update(w.unwrap_or(1.0))),
        // Weight overridden again, or the overridden edge removed.
        (Some(DeltaOp::Update(_)), DeltaOp::Update(w)) => Some(DeltaOp::Update(w)),
        (Some(DeltaOp::Update(_)), DeltaOp::Remove) => Some(DeltaOp::Remove),
        // Remaining pairs (Add∘Add, Remove∘Remove, Update∘Add,
        // Remove∘Update) cannot be produced by canonicalized runs;
        // keep the latest op so a bug degrades instead of panicking.
        (Some(_), op) => Some(op),
    }
}

/// An ordered sequence of canonicalized runs over a fixed vertex set —
/// the log with no lock in it (this file's header says why). Runs hold
/// effective ops only, views compose them relative to the base, and a
/// view once built is immune to what the log does next.
pub struct RunLog {
    n: usize,
    directed: bool,
    pub(super) runs: Vec<Arc<DeltaRun>>,
    /// Sequence the next applied batch gets (`watermark + 1`).
    next_seq: u64,
    /// Runs with `seq <= folded` have been compacted into a new base
    /// image and dropped; views fold only `(folded, watermark]`.
    folded: u64,
    /// Effective ops of the retained runs: added to by `apply`,
    /// recounted by `fold`, so the compactor's poll reads a number.
    pending: u64,
    /// Lazily rebuilt full-watermark view (the common pin target);
    /// invalidated by `apply` and `fold`.
    cached: Option<Arc<DeltaView>>,
}

impl std::fmt::Debug for RunLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunLog")
            .field("vertices", &self.n)
            .field("directed", &self.directed)
            .field("runs", &self.runs.len())
            .field("watermark", &self.watermark())
            .finish()
    }
}

impl RunLog {
    /// An empty log over `n` vertices.
    pub fn new(n: usize, directed: bool) -> Self {
        RunLog {
            n,
            directed,
            runs: Vec::new(),
            next_seq: 1,
            folded: 0,
            pending: 0,
            cached: None,
        }
    }

    /// Vertex count of the underlying graph.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Whether ops mirror into in-lists (directed) or into both
    /// endpoints' single lists (undirected).
    pub fn is_directed(&self) -> bool {
        self.directed
    }

    /// Sequence number of the latest applied run (0 = none).
    pub fn watermark(&self) -> u64 {
        self.next_seq - 1
    }

    /// Number of effective ops not yet folded into a base image —
    /// the compactor's trigger metric.
    pub fn pending_ops(&self) -> u64 {
        self.pending
    }

    /// Canonicalizes `batch` against the current logical graph (the
    /// `base` oracle plus every earlier run) and appends it as one
    /// run. Returns the new watermark. Batches that canonicalize to
    /// nothing still advance the watermark (the run is recorded
    /// empty), so callers can rely on `watermark()` ordering ingests.
    ///
    /// `base` must be the base this log's runs are relative to: the
    /// graph as of the last [`RunLog::fold`]. An owner that replaces its
    /// base when it folds keeps base and log behind one lock and picks
    /// the base with it held; otherwise a fold can land between the
    /// pick and the reads, and the batch is canonicalized against a
    /// base that lacks the runs the fold absorbed.
    ///
    /// # Errors
    ///
    /// Returns [`FgError::VertexOutOfRange`] when an endpoint is
    /// outside the fixed vertex set, and propagates `base` read
    /// errors. Either way nothing is applied.
    pub fn apply(&mut self, base: &dyn BaseLists, batch: &DeltaBatch) -> Result<u64> {
        let mut sources = Vec::new();
        for &(s, d, _) in &batch.entries {
            for v in [s, d] {
                if v.index() >= self.n {
                    return Err(FgError::VertexOutOfRange {
                        vertex: v.0 as u64,
                        num_vertices: self.n as u64,
                    });
                }
            }
            if s == d {
                continue; // self-loops dropped, the builder convention
            }
            sources.push(s.0);
            if !self.directed {
                sources.push(d.0);
            }
        }
        // Per-source canonicalization state: the base list (fetched
        // once per touched source, in ascending id order — the order
        // the lists lie in on the device, so neighbours share a page
        // while it is still cached) and the net ops so far (earlier
        // runs folded, then this batch's entries replayed in order).
        sources.sort_unstable();
        sources.dedup();
        let mut bases: HashMap<u32, Vec<u32>> = HashMap::with_capacity(sources.len());
        for src in sources {
            bases.insert(src, base.base_out_list(VertexId(src))?);
        }
        // Per touched edge: its folded state before the batch (kept
        // for the diff below) and after the entries replayed so far.
        type EdgeState = (Option<DeltaOp>, Option<DeltaOp>);
        let mut pending: HashMap<u32, HashMap<u32, EdgeState>> = HashMap::new();
        for &(s, d, op) in &batch.entries {
            if s == d {
                continue;
            }
            // Undirected edges mutate both endpoints' lists; the two
            // mirrored entries canonicalize identically because the
            // base is symmetric.
            let mirrors: &[(u32, u32)] = if self.directed {
                &[(s.0, d.0)]
            } else {
                &[(s.0, d.0), (d.0, s.0)]
            };
            for &(src, dst) in mirrors {
                let list = &bases[&src];
                let ops = pending.entry(src).or_default();
                if let std::collections::hash_map::Entry::Vacant(e) = ops.entry(dst) {
                    // Fold the edge's history from earlier runs so
                    // this batch sees the current logical state.
                    let mut folded = None;
                    for run in &self.runs {
                        if let Some(v) = run.out.get(&src) {
                            if let Ok(i) = v.binary_search_by_key(&dst, |e| e.0) {
                                folded = compose(folded, v[i].1);
                            }
                        }
                    }
                    e.insert((folded, folded));
                }
                let cur = &mut ops.get_mut(&dst).unwrap().1;
                let in_base = list.binary_search(&dst).is_ok();
                let present = match *cur {
                    None => in_base,
                    Some(DeltaOp::Add(_)) | Some(DeltaOp::Update(_)) => true,
                    Some(DeltaOp::Remove) => false,
                };
                let next = match op {
                    BatchOp::Add(w) if !present => Some(DeltaOp::Add(w)),
                    BatchOp::Add(Some(w)) => Some(DeltaOp::Update(w)),
                    BatchOp::Add(None) => None, // duplicate add: no-op
                    BatchOp::Remove if present => Some(DeltaOp::Remove),
                    BatchOp::Remove => None, // absent: no-op
                };
                if let Some(next) = next {
                    *cur = compose(*cur, next);
                }
            }
        }
        // Extract this batch's *net* effect: the difference between
        // the folded state before the batch and after.
        let mut out = RunOps::new();
        let mut in_ = RunOps::new();
        for (src, ops) in pending {
            let list = &bases[&src];
            for (dst, (before, after)) in ops {
                let Some(eff) = net_op(before, after, list.binary_search(&dst).is_ok()) else {
                    continue;
                };
                out.entry(src).or_default().push((dst, eff));
                if self.directed {
                    in_.entry(dst).or_default().push((src, eff));
                }
            }
        }
        for v in out.values_mut().chain(in_.values_mut()) {
            v.sort_unstable_by_key(|e| e.0);
        }
        // The only writes to the log, after the last base read: a base
        // read can fail or panic (the locks this log sits behind do not
        // poison), and a batch that dies mid-canonicalization must
        // leave no trace.
        let run = DeltaRun {
            seq: self.next_seq,
            out,
            in_,
        };
        self.next_seq += 1;
        self.pending += run.num_ops();
        self.runs.push(Arc::new(run));
        self.cached = None;
        Ok(self.watermark())
    }

    /// A materialized snapshot folding runs `(folded, watermark]`.
    /// The full-watermark view is cached until the next mutation.
    pub fn view(&mut self, watermark: u64) -> Arc<DeltaView> {
        let full = watermark >= self.watermark();
        if full {
            if let Some(v) = &self.cached {
                return Arc::clone(v);
            }
        }
        let v = Arc::new(self.build_view(watermark));
        if full {
            self.cached = Some(Arc::clone(&v));
        }
        v
    }

    /// Drops every run with `seq <= up_to` — they are folded into a
    /// new base, which [`RunLog::apply`] must be handed from now on.
    /// Views built before this call keep their ops.
    pub fn fold(&mut self, up_to: u64) {
        self.runs.retain(|r| r.seq > up_to);
        self.folded = self.folded.max(up_to);
        self.pending = self.runs.iter().map(|r| r.num_ops()).sum();
        self.cached = None;
    }

    /// Builds each direction's table in vertex order: every op of the
    /// runs in `(folded, watermark]`, in run order, stably sorted by
    /// `(src, dst)` so that one edge's ops lie together in the order
    /// they compose in.
    fn build_view(&self, watermark: u64) -> DeltaView {
        let runs = || self.runs.iter().filter(|r| r.seq <= watermark);
        let table = |dir: fn(&DeltaRun) -> &RunOps| {
            let mut entries: Vec<(u32, u32, DeltaOp)> = Vec::new();
            for run in runs() {
                for (&src, ops) in dir(run) {
                    entries.extend(ops.iter().map(|&(dst, op)| (src, dst, op)));
                }
            }
            entries.sort_by_key(|&(src, dst, _)| (src, dst));
            DeltaTable::from_sorted(self.n, &entries)
        };
        DeltaView {
            floor: self.folded,
            watermark: runs().map(|r| r.seq).max().unwrap_or(0),
            directed: self.directed,
            out: table(|r| &r.out),
            in_: table(|r| &r.in_),
        }
    }
}

/// The net op of one edge across a batch: `before` is the folded
/// state from earlier runs, `after` the folded state including the
/// batch. Returns what the *run* must record so that folding
/// `before ∘ recorded == after`.
fn net_op(before: Option<DeltaOp>, after: Option<DeltaOp>, in_base: bool) -> Option<DeltaOp> {
    if op_eq(before, after) {
        return None;
    }
    let present_before = match before {
        None => in_base,
        Some(DeltaOp::Add(_)) | Some(DeltaOp::Update(_)) => true,
        Some(DeltaOp::Remove) => false,
    };
    match after {
        // Batch nets to "back to the pre-run state": record the
        // inverse of `before` so composition cancels.
        None => match before {
            Some(DeltaOp::Add(_)) => Some(DeltaOp::Remove),
            // before Remove/Update with after None cannot happen
            // (re-adding yields Update, not None), but stay safe:
            Some(DeltaOp::Remove) => Some(DeltaOp::Add(None)),
            Some(DeltaOp::Update(_)) | None => None,
        },
        Some(DeltaOp::Add(w)) => {
            if present_before {
                Some(DeltaOp::Update(w.unwrap_or(1.0)))
            } else {
                Some(DeltaOp::Add(w))
            }
        }
        Some(DeltaOp::Update(w)) => {
            if present_before {
                Some(DeltaOp::Update(w))
            } else {
                Some(DeltaOp::Add(Some(w)))
            }
        }
        Some(DeltaOp::Remove) => {
            if present_before {
                Some(DeltaOp::Remove)
            } else {
                None
            }
        }
    }
}

fn op_eq(a: Option<DeltaOp>, b: Option<DeltaOp>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(x), Some(y)) => x == y,
        _ => false,
    }
}
