use std::collections::HashMap;
use std::sync::Arc;

use fg_types::{FgError, Result, VertexId};

use super::{BaseLists, BatchOp, DeltaBatch, DeltaList, DeltaLog, DeltaOp, DeltaView};

/// One applied batch, canonicalized: per-direction effective ops,
/// sorted by `(src, dst)` with a per-source directory.
#[derive(Debug)]
pub(super) struct DeltaRun {
    seq: u64,
    /// Out-direction ops (the only direction for undirected logs).
    pub(super) out: HashMap<u32, Vec<(u32, DeltaOp)>>,
    /// In-direction mirror (directed logs only).
    in_: HashMap<u32, Vec<(u32, DeltaOp)>>,
}

/// Composes a folded op with the next run's effective op on the same
/// edge. `prev == None` means "no net change relative to base yet".
fn compose(prev: Option<DeltaOp>, next: DeltaOp) -> Option<DeltaOp> {
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

pub(super) struct LogInner {
    pub(super) runs: Vec<Arc<DeltaRun>>,
    /// Sequence the next applied batch gets (`watermark + 1`).
    pub(super) next_seq: u64,
    /// Runs with `seq <= folded` have been compacted into a new base
    /// image and dropped; views fold only `(folded, watermark]`.
    pub(super) folded: u64,
    /// Lazily rebuilt full-watermark view (the common pin target);
    /// invalidated by `apply` and `fold`.
    pub(super) cached: Option<Arc<DeltaView>>,
}

impl DeltaLog {
    /// [`DeltaLog::apply`] against the base `pin` returns, with `pin`
    /// run under the log lock like [`DeltaLog::snapshot_with`]'s: the
    /// base it captures (an image generation) is the one the log's
    /// runs are relative to, whatever [`DeltaLog::fold`]s race the
    /// call. Pinning before the call instead lets a fold land in
    /// between, and the batch is then canonicalized against a base
    /// that lacks the runs the fold absorbed.
    ///
    /// # Errors
    ///
    /// See [`DeltaLog::apply`]; propagates `pin`'s error before
    /// anything is applied.
    pub fn apply_with<B: BaseLists>(
        &self,
        pin: impl FnOnce() -> Result<B>,
        batch: &DeltaBatch,
    ) -> Result<u64> {
        // The lock does not poison, and need not: `pin` and every base
        // read below can fail or panic, but the log itself is written
        // only by the last four statements, after the last of them —
        // a batch that dies mid-canonicalization leaves no trace.
        let mut g = self.inner.lock();
        let base = pin()?;
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
                    for run in &g.runs {
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
        let mut out: HashMap<u32, Vec<(u32, DeltaOp)>> = HashMap::new();
        let mut in_: HashMap<u32, Vec<(u32, DeltaOp)>> = HashMap::new();
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
        let seq = g.next_seq;
        g.next_seq += 1;
        g.runs.push(Arc::new(DeltaRun { seq, out, in_ }));
        g.cached = None;
        Ok(seq)
    }

    /// A materialized snapshot folding runs `(folded, watermark]`.
    /// The full-watermark view is cached until the next mutation.
    pub fn view(&self, watermark: u64) -> Arc<DeltaView> {
        let mut g = self.inner.lock();
        let full = watermark >= g.next_seq - 1;
        if full {
            if let Some(v) = &g.cached {
                return Arc::clone(v);
            }
        }
        let v = Arc::new(Self::build_view(&g.runs, watermark, self.directed));
        if full {
            g.cached = Some(Arc::clone(&v));
        }
        v
    }

    /// Atomically: run `commit` (e.g. flip the serving layer's image
    /// generation), then drop every run with `seq <= up_to` — they
    /// are folded into the new base. Views built before this call
    /// keep their runs alive via `Arc`.
    pub fn fold(&self, up_to: u64, commit: impl FnOnce()) {
        let mut g = self.inner.lock();
        commit();
        g.runs.retain(|r| r.seq > up_to);
        g.folded = g.folded.max(up_to);
        g.cached = None;
    }

    /// Snapshot coherent with the log's fold point: `pin` runs under
    /// the log lock, so the base it captures (an image generation)
    /// matches the view's fold floor exactly even under concurrent
    /// [`DeltaLog::fold`].
    pub fn snapshot_with<T>(&self, pin: impl FnOnce() -> T) -> (T, Arc<DeltaView>) {
        let mut g = self.inner.lock();
        let pinned = pin();
        let v = match &g.cached {
            Some(v) => Arc::clone(v),
            None => {
                let v = Arc::new(Self::build_view(&g.runs, u64::MAX, self.directed));
                g.cached = Some(Arc::clone(&v));
                v
            }
        };
        (pinned, v)
    }

    fn build_view(runs: &[Arc<DeltaRun>], watermark: u64, directed: bool) -> DeltaView {
        let mut wm = 0;
        let mut out: HashMap<u32, Vec<(u32, Option<DeltaOp>)>> = HashMap::new();
        let mut in_: HashMap<u32, Vec<(u32, Option<DeltaOp>)>> = HashMap::new();
        for run in runs.iter().filter(|r| r.seq <= watermark) {
            wm = wm.max(run.seq);
            for (maps, folded) in [(&run.out, &mut out), (&run.in_, &mut in_)] {
                for (&src, ops) in maps {
                    let acc = folded.entry(src).or_default();
                    for &(dst, op) in ops {
                        match acc.binary_search_by_key(&dst, |e| e.0) {
                            Ok(i) => acc[i].1 = compose(acc[i].1, op),
                            Err(i) => acc.insert(i, (dst, Some(op))),
                        }
                    }
                }
            }
        }
        let finish = |m: HashMap<u32, Vec<(u32, Option<DeltaOp>)>>| {
            m.into_iter()
                .filter_map(|(src, acc)| {
                    let ops: Vec<(u32, DeltaOp)> = acc
                        .into_iter()
                        .filter_map(|(d, op)| op.map(|op| (d, op)))
                        .collect();
                    if ops.is_empty() {
                        return None;
                    }
                    let diff = ops.iter().map(|(_, op)| op.degree_diff()).sum();
                    Some((src, Arc::new(DeltaList { ops, diff })))
                })
                .collect()
        };
        DeltaView {
            watermark: wm,
            directed,
            out: finish(out),
            in_: finish(in_),
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
