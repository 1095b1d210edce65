//! A stable counting sort of edges by one endpoint, on every core.
//!
//! [`GraphBuilder::build`](crate::GraphBuilder::build) lays out both
//! CSRs with it, and [`crate::gen::rmat`] samples on the same threads.
//! A pass sorts edges whose keys are vertex ids below `n`, on
//! `threads` threads, in three steps:
//!
//! 1. **Plan.** Each thread counts its contiguous chunk of the input
//!    into a coarse histogram of at most [`COARSE`] key buckets. The
//!    summed histogram cuts the key space into contiguous ranges that
//!    hold about equal numbers of edges, the same number of ranges for
//!    each thread.
//! 2. **Stage.** Each thread copies its chunk into `staged`, grouped
//!    by range. Range `r`'s edges form one run: chunk 0's first, then
//!    chunk 1's, each chunk's in input order.
//! 3. **Count.** Each thread counting-sorts its own ranges' runs, one
//!    range at a time, into the same span of the output, counting into
//!    its own slice of the `n + 1` offsets. A range spans about
//!    [`RANGE_KEYS`] keys, so the cursors a range scatters through stay
//!    in cache.
//!
//! Among edges of one key, every edge keeps its input order. Staging
//! keeps it because chunks and runs are both in input order. Counting
//! keeps it because each run is walked backwards, filling each key's
//! bucket from its end. So the output is the one a serial stable
//! counting pass writes, at any thread count. Each thread writes only
//! slices `split_at_mut` hands it, so no pass needs `unsafe` or a
//! lock. Extra memory is `staged` (one slot per edge), the offsets,
//! and per thread a coarse histogram and one cursor per range: none of
//! it grows with `n` times the thread count.

use fg_types::VertexId;

use crate::csr::Csr;

/// Edges one thread takes at a time. A pass over `len` edges runs on
/// no more threads than `len` has chunks, and the R-MAT sampler hands
/// its draws out a chunk at a time.
pub(crate) const CHUNK: usize = 1 << 14;

/// The most buckets a plan's coarse histogram has. A range is a run
/// of whole buckets, so this bounds how evenly ranges can split.
const COARSE: usize = 1 << 12;

/// About how many keys a range spans. A thread counts its share a
/// range at a time, so the write cursors it scatters through, a cache
/// line each, stay in cache: counting a 2^15-key pass one range per
/// thread took about twice as long on a 2-core Xeon.
const RANGE_KEYS: usize = 1 << 10;

/// How many threads a pass over `len` edges runs on: one per core, as
/// SAFS sizes its I/O threads, but at least a chunk each.
pub(crate) fn threads_for(len: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    cores.min(len.div_ceil(CHUNK)).max(1)
}

/// Runs each task on its own scoped thread, the first on the calling
/// thread, and returns their results in order. A task's panic is
/// re-raised here with its own payload.
pub(crate) fn run<T: Send, F: FnOnce() -> T + Send>(tasks: impl IntoIterator<Item = F>) -> Vec<T> {
    let mut tasks = tasks.into_iter();
    let first = tasks.next();
    std::thread::scope(|s| {
        let spawned: Vec<_> = tasks.map(|task| s.spawn(task)).collect();
        let mine = first.map(|task| task());
        mine.into_iter()
            .chain(
                spawned
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p))),
            )
            .collect()
    })
}

/// `items` cut into `parts` contiguous chunks of near-equal length.
pub(crate) fn split<E>(items: &[E], parts: usize) -> Vec<&[E]> {
    let len = items.len();
    (0..parts)
        .map(|i| &items[i * len / parts..(i + 1) * len / parts])
        .collect()
}

/// An edge as a pass sorts it: a `(src, dst)` pair of vertex ids, or a
/// `(src, dst, weight)` triple when the graph is weighted.
///
/// Both are tuples of plain numbers, so a buffer of them starts as
/// `vec![ZERO; len]`, which maps zeroed pages without writing them.
/// The threads that fill a buffer then take its page faults, in
/// parallel, instead of the calling thread taking them all up front.
pub(crate) trait Edge: Copy + Send + Sync {
    /// A placeholder for slots a pass is about to fill.
    const ZERO: Self;
    fn src(&self) -> u32;
    fn dst(&self) -> u32;
    /// The edge's weight; `1.0` for a pair.
    fn weight(&self) -> f32;
    /// The same edge the other way round, with its weight.
    fn reversed(&self) -> Self;
}

impl Edge for (u32, u32) {
    const ZERO: Self = (0, 0);
    fn src(&self) -> u32 {
        self.0
    }
    fn dst(&self) -> u32 {
        self.1
    }
    fn weight(&self) -> f32 {
        1.0
    }
    fn reversed(&self) -> Self {
        (self.1, self.0)
    }
}

impl Edge for (u32, u32, f32) {
    const ZERO: Self = (0, 0, 0.0);
    fn src(&self) -> u32 {
        self.0
    }
    fn dst(&self) -> u32 {
        self.1
    }
    fn weight(&self) -> f32 {
        self.2
    }
    fn reversed(&self) -> Self {
        (self.1, self.0, self.2)
    }
}

/// Where a pass puts each range of keys: range `r` holds keys
/// `keys[r]..keys[r + 1]` and fills `runs[r]..runs[r + 1]` of the
/// staged edges and of the output. Each thread counts `per` ranges in
/// a row.
pub(crate) struct Plan {
    keys: Vec<usize>,
    runs: Vec<usize>,
    per: usize,
}

/// Plans a pass over `chunks` (one per thread) and stages its edges.
/// `emit` maps an input edge to the edges it sorts as (its first `k`
/// of two), so a pass can drop or add edges as it reads them.
pub(crate) fn stage<E: Edge>(
    n: usize,
    chunks: &[&[E]],
    emit: impl Fn(E) -> ([E; 2], usize) + Sync,
    key: impl Fn(&E) -> u32 + Sync,
    staged: &mut Vec<E>,
) -> Plan {
    let threads = chunks.len();
    let mut shift = 0;
    while n.div_ceil(1 << shift) > COARSE {
        shift += 1;
    }
    let buckets = n.div_ceil(1 << shift);
    let (emit, bucket) = (&emit, &|e: &E| key(e) as usize >> shift);
    let hists = run(chunks.iter().map(|&chunk| {
        move || {
            let mut hist = vec![0usize; buckets];
            for &e in chunk {
                let (es, k) = emit(e);
                es[..k].iter().for_each(|e| hist[bucket(e)] += 1);
            }
            hist
        }
    }));

    // Cut the buckets into `ranges` of about `total / ranges` edges
    // each, `per` to a thread. A bucket heavier than that leaves the
    // ranges after it empty.
    let per = n
        .div_ceil(threads * RANGE_KEYS)
        .min(COARSE / 4 / threads)
        .max(1);
    let ranges = threads * per;
    let total: usize = hists.iter().flatten().sum();
    let mut range_of = vec![0; buckets];
    let mut first_bucket = vec![buckets; ranges + 1];
    first_bucket[0] = 0;
    let (mut r, mut seen) = (0, 0);
    for (b, range) in range_of.iter_mut().enumerate() {
        *range = r;
        seen += hists.iter().map(|h| h[b]).sum::<usize>();
        while r + 1 < ranges && seen * ranges >= total * (r + 1) {
            r += 1;
            first_bucket[r] = b + 1;
        }
    }
    let keys = first_bucket.iter().map(|&b| (b << shift).min(n)).collect();
    // counts[c][r]: chunk c's edges in range r.
    let counts: Vec<Vec<usize>> = hists
        .iter()
        .map(|hist| {
            let mut c = vec![0; ranges];
            hist.iter().zip(&range_of).for_each(|(&k, &r)| c[r] += k);
            c
        })
        .collect();
    let mut runs = vec![0; ranges + 1];
    for r in 0..ranges {
        runs[r + 1] = runs[r] + counts.iter().map(|c| c[r]).sum::<usize>();
    }

    // Hand chunk c its slice of every range's run, then copy.
    refill(staged, total);
    let mut outs: Vec<Vec<&mut [E]>> = (0..threads).map(|_| Vec::with_capacity(ranges)).collect();
    let mut rest = &mut staged[..];
    for r in 0..ranges {
        for (out, count) in outs.iter_mut().zip(&counts) {
            out.push(carve(&mut rest, count[r]));
        }
    }
    let range_of = &range_of;
    run(chunks.iter().zip(outs).map(|(&chunk, outs)| {
        move || {
            let mut outs: Vec<_> = outs.into_iter().map(|o| o.iter_mut()).collect();
            for &e in chunk {
                let (es, k) = emit(e);
                for &e in &es[..k] {
                    *outs[range_of[bucket(&e)]].next().expect("counted") = e;
                }
            }
        }
    }));
    Plan { keys, runs, per }
}

/// A finished pass: thread `t`'s span of the output keeps `kept[t]`
/// edges from `runs[t]`, and `offsets[k]` is where key `k`'s edges
/// start, counted from the start of its thread's span.
pub(crate) struct Sorted {
    keys: Vec<usize>,
    runs: Vec<usize>,
    kept: Vec<usize>,
    offsets: Vec<u64>,
}

/// Counting-sorts each range's run of `staged` by `key` into the same
/// span of `out`. Then `finish` may shrink each thread's span in
/// place: it gets the sorted span and its keys' starts, and returns
/// how many edges it kept at the front.
pub(crate) fn count<E: Edge>(
    n: usize,
    plan: Plan,
    staged: &[E],
    out: &mut Vec<E>,
    key: impl Fn(&E) -> u32 + Sync,
    finish: impl Fn(&mut [E], &mut [u64]) -> usize + Sync,
) -> Sorted {
    let Plan { keys, runs, per } = plan;
    refill(out, staged.len());
    let mut offsets = vec![0u64; n + 1];
    let (key, finish, keys_, runs_) = (&key, &finish, &keys, &runs);
    let (mut out_rest, mut off_rest) = (&mut out[..], &mut offsets[..n]);
    let mut tasks = Vec::new();
    for first in (0..keys.len() - 1).step_by(per) {
        let last = first + per;
        let span = carve(&mut out_rest, runs[last] - runs[first]);
        let starts = carve(&mut off_rest, keys[last] - keys[first]);
        tasks.push(move || {
            let (keys, runs) = (keys_, runs_);
            for r in first..last {
                let run_ = &staged[runs[r]..runs[r + 1]];
                let lo = keys[r];
                let starts = &mut starts[lo - keys[first]..keys[r + 1] - keys[first]];
                for e in run_ {
                    starts[key(e) as usize - lo] += 1;
                }
                // Each key's end; the backward walk turns ends into
                // starts.
                let mut end = (runs[r] - runs[first]) as u64;
                for s in starts.iter_mut() {
                    end += *s;
                    *s = end;
                }
                for &e in run_.iter().rev() {
                    let at = &mut starts[key(&e) as usize - lo];
                    *at -= 1;
                    span[*at as usize] = e;
                }
            }
            finish(span, starts)
        });
    }
    let kept = run(tasks);
    Sorted {
        keys: keys.into_iter().step_by(per).collect(),
        runs: runs.into_iter().step_by(per).collect(),
        kept,
        offsets,
    }
}

/// Makes `buf` `len` edges long for a pass to overwrite. A buffer
/// already that long is cut to length, keeping its resident pages; a
/// shorter one is replaced by fresh zero pages.
fn refill<E: Edge>(buf: &mut Vec<E>, len: usize) {
    if buf.len() >= len {
        buf.truncate(len);
    } else {
        *buf = vec![E::ZERO; len];
    }
}

/// Cuts the first `len` items off `rest`: the disjoint slices each
/// thread of a pass writes.
fn carve<'a, T>(rest: &mut &'a mut [T], len: usize) -> &'a mut [T] {
    let (head, tail) = std::mem::take(rest).split_at_mut(len);
    *rest = tail;
    head
}

/// `finish` for a pass that keeps every edge.
pub(crate) fn keep_all<E>(span: &mut [E], _: &mut [u64]) -> usize {
    span.len()
}

impl Sorted {
    /// The kept edges, one slice per range: the next pass's chunks.
    pub(crate) fn chunks<'a, E>(&self, out: &'a [E]) -> Vec<&'a [E]> {
        self.runs
            .iter()
            .zip(&self.kept)
            .map(|(&at, &k)| &out[at..at + k])
            .collect()
    }

    /// Packs the kept edges of `out` into a CSR row-indexed by the
    /// pass's key, taking each edge's neighbour by `neighbor`.
    pub(crate) fn pack<E: Edge>(
        self,
        out: &[E],
        weighted: bool,
        neighbor: impl Fn(&E) -> u32 + Sync,
    ) -> Csr {
        let Sorted {
            keys,
            runs,
            kept,
            mut offsets,
        } = self;
        let total: usize = kept.iter().sum();
        let mut neighbors = vec![0u32; total];
        let mut weights = vec![0f32; if weighted { total } else { 0 }];
        let n = offsets.len() - 1;
        offsets[n] = total as u64;
        let neighbor = &neighbor;
        let (mut nb_rest, mut w_rest) = (&mut neighbors[..], &mut weights[..]);
        let mut off_rest = &mut offsets[..n];
        let mut base = 0;
        let mut tasks = Vec::new();
        for r in 0..kept.len() {
            let nb = carve(&mut nb_rest, kept[r]);
            let ws = carve(&mut w_rest, if weighted { kept[r] } else { 0 });
            let starts = carve(&mut off_rest, keys[r + 1] - keys[r]);
            let (edges, at) = (&out[runs[r]..runs[r] + kept[r]], base as u64);
            base += kept[r];
            tasks.push(move || {
                nb.iter_mut().zip(edges).for_each(|(v, e)| *v = neighbor(e));
                ws.iter_mut().zip(edges).for_each(|(w, e)| *w = e.weight());
                starts.iter_mut().for_each(|s| *s += at);
            });
        }
        run(tasks);
        let neighbors = neighbors.into_iter().map(VertexId).collect();
        Csr::from_parts(offsets, neighbors, weighted.then_some(weights))
            .expect("constructed offsets are consistent")
    }
}
