//! A synchronous Gather-Apply-Scatter engine (the PowerGraph stand-in).
//!
//! PowerGraph's abstraction splits a vertex program into *gather*
//! (pull an accumulator over in-edges), *apply* (update vertex data),
//! and *scatter* (activate out-neighbours). Its costs, which Figure 10
//! shows dwarfing FlashGraph's, come from materializing accumulators
//! and double-buffering vertex data every iteration. This engine
//! reproduces that architecture in memory: gather reads the *previous*
//! iteration's vertex data, apply produces new data into a write
//! buffer, and changed data is written back at a barrier.

use std::time::Instant;

use fg_graph::Graph;
use fg_types::sync::{Counter, Mutex};
use fg_types::{AtomicBitmap, VertexId};

/// A GAS vertex program.
pub trait GasProgram: Sync {
    /// Per-vertex data.
    type V: Clone + Send + Sync;
    /// Gather accumulator.
    type A: Send;

    /// Initial vertex data.
    fn init(&self, v: VertexId) -> Self::V;

    /// Contribution of in-edge `src -> dst`, given `src`'s data from
    /// the previous iteration. `None` contributes nothing. `iter` is
    /// the current iteration (level-synchronous programs gate on it).
    fn gather(
        &self,
        src: VertexId,
        src_data: &Self::V,
        dst: VertexId,
        iter: u32,
    ) -> Option<Self::A>;

    /// Combines two accumulator values.
    fn sum(&self, a: Self::A, b: Self::A) -> Self::A;

    /// Updates `dst`'s data from the gathered accumulator; returns
    /// `true` when the vertex changed (scatter then activates its
    /// out-neighbours).
    fn apply(&self, dst: VertexId, data: &mut Self::V, acc: Option<Self::A>, iter: u32) -> bool;

    /// Whether a changed vertex also stays active itself.
    fn reactivate_self(&self) -> bool {
        false
    }
}

/// Statistics of a GAS run.
#[derive(Debug, Clone)]
pub struct GasStats {
    /// Iterations executed.
    pub iterations: u32,
    /// Wall-clock runtime.
    pub elapsed: std::time::Duration,
    /// Total gather edge visits (the engine's dominant cost).
    pub edges_gathered: u64,
    /// Peak bytes of vertex data + accumulator buffers.
    pub memory_bytes: u64,
}

/// Per-thread queue of apply results: `(vertex, new data, changed)`.
type UpdateQueues<V> = Vec<Mutex<Vec<(u32, V, bool)>>>;

/// Runs `program` until no vertex is active, synchronously.
pub fn run_gas<P: GasProgram>(
    g: &Graph,
    program: &P,
    seeds: Option<&[VertexId]>,
    threads: usize,
    max_iters: u32,
) -> (Vec<P::V>, GasStats) {
    let n = g.num_vertices();
    let start = Instant::now();
    let mut data: Vec<P::V> = (0..n)
        .map(|i| program.init(VertexId::from_index(i)))
        .collect();
    let mut active = AtomicBitmap::new(n);
    match seeds {
        Some(ss) => {
            for &s in ss {
                active.set(s);
            }
        }
        None => {
            for i in 0..n {
                active.set(VertexId::from_index(i));
            }
        }
    }
    let threads = threads.max(1);
    let edges_gathered = Counter::new(0);
    let mut iterations = 0u32;

    while iterations < max_iters && active.count_ones() > 0 {
        let next = AtomicBitmap::new(n);
        // Materialized apply results: (vertex, new data, changed) —
        // the double-buffering PowerGraph pays for synchronous
        // execution.
        let updates: UpdateQueues<P::V> = (0..threads).map(|_| Mutex::new(Vec::new())).collect();
        let active_list: Vec<VertexId> = active.iter_ones().collect();
        let chunk = active_list.len().div_ceil(threads).max(1);
        std::thread::scope(|scope| {
            for (t, slice) in active_list.chunks(chunk).enumerate() {
                let data = &data;
                let updates = &updates;
                let edges_gathered = &edges_gathered;
                scope.spawn(move || {
                    let mut local: Vec<(u32, P::V, bool)> = Vec::new();
                    for &v in slice {
                        let mut acc: Option<P::A> = None;
                        let in_list = g.in_neighbors(v);
                        edges_gathered.add(in_list.len() as u64);
                        for &u in in_list {
                            if let Some(a) = program.gather(u, &data[u.index()], v, iterations) {
                                acc = Some(match acc {
                                    None => a,
                                    Some(prev) => program.sum(prev, a),
                                });
                            }
                        }
                        let mut nd = data[v.index()].clone();
                        let changed = program.apply(v, &mut nd, acc, iterations);
                        local.push((v.0, nd, changed));
                    }
                    *updates[t].lock() = local;
                });
            }
        });
        // Write-back + scatter.
        let mut any = false;
        for slot in updates {
            for (v, nd, changed) in slot.into_inner() {
                data[v as usize] = nd;
                if changed {
                    any = true;
                    let vid = VertexId(v);
                    for &u in g.out_neighbors(vid) {
                        next.set(u);
                    }
                    if program.reactivate_self() {
                        next.set(vid);
                    }
                }
            }
        }
        iterations += 1;
        if !any && next.count_ones() == 0 {
            break;
        }
        active = next;
    }

    let memory_bytes = (n * std::mem::size_of::<P::V>()) as u64 * 2 // double buffer
        + (n / 8) as u64 * 2; // activity bitmaps
    let stats = GasStats {
        iterations,
        elapsed: start.elapsed(),
        edges_gathered: edges_gathered.into_inner(),
        memory_bytes,
    };
    (data, stats)
}

// ------------------------------------------------------- GAS programs

/// BFS levels via GAS.
pub struct GasBfs {
    /// BFS root.
    pub source: VertexId,
}

impl GasProgram for GasBfs {
    type V = u32; // level, u32::MAX = unreached
    type A = u32;

    fn init(&self, v: VertexId) -> u32 {
        if v == self.source {
            0
        } else {
            u32::MAX
        }
    }

    fn gather(&self, _src: VertexId, src_level: &u32, _dst: VertexId, _iter: u32) -> Option<u32> {
        (*src_level != u32::MAX).then_some(src_level.saturating_add(1))
    }

    fn sum(&self, a: u32, b: u32) -> u32 {
        a.min(b)
    }

    fn apply(&self, _dst: VertexId, level: &mut u32, acc: Option<u32>, iter: u32) -> bool {
        match acc {
            Some(l) if l < *level => {
                *level = l;
                true
            }
            // The source fires its first scatter; later reactivations
            // (back-edges into the source) change nothing.
            _ => *level == 0 && iter == 0,
        }
    }
}

/// Vertex data of [`gas_pagerank`].
#[derive(Clone, Copy, Debug)]
pub struct PrData {
    /// Current rank.
    pub rank: f32,
    /// rank / out-degree, read by out-neighbours' gathers.
    pub share: f32,
}

/// PageRank in the GAS style: one synchronous gather/apply round per
/// PageRank iteration over a snapshot of the previous ranks, with
/// `share = rank / out_degree` republished between rounds. This is a
/// dedicated driver (not a [`GasProgram`]) because the share update
/// needs out-degrees, which the gather/apply signature hides — the
/// same reason PowerGraph's PageRank carries degree in vertex data.
pub fn gas_pagerank(g: &Graph, damping: f32, iters: u32, threads: usize) -> (Vec<f32>, GasStats) {
    // Run one GAS round per PageRank iteration, correcting shares.
    let n = g.num_vertices();
    let mut data: Vec<PrData> = vec![
        PrData {
            rank: 1.0,
            share: 0.0,
        };
        n
    ];
    let start = Instant::now();
    let mut edges = 0u64;
    for it in 0..iters {
        for v in g.vertices() {
            let d = g.out_degree(v);
            data[v.index()].share = if d == 0 {
                0.0
            } else {
                data[v.index()].rank / d as f32
            };
        }
        // One synchronous gather/apply round over all vertices.
        let chunk = n.div_ceil(threads.max(1)).max(1);
        let snapshot = data.clone(); // double buffer
        let indices: Vec<usize> = (0..n).collect();
        let next: Vec<Mutex<Vec<(u32, f32)>>> = (0..threads.max(1))
            .map(|_| Mutex::new(Vec::new()))
            .collect();
        std::thread::scope(|scope| {
            for (t, range) in indices.chunks(chunk).enumerate() {
                let snapshot = &snapshot;
                let next = &next;
                scope.spawn(move || {
                    let mut local = Vec::with_capacity(range.len());
                    for &i in range {
                        let v = VertexId::from_index(i);
                        let mut acc = 0.0f32;
                        for &u in g.in_neighbors(v) {
                            acc += snapshot[u.index()].share;
                        }
                        local.push((v.0, (1.0 - damping) + damping * acc));
                    }
                    *next[t].lock() = local;
                });
            }
        });
        for slot in next {
            for (v, rank) in slot.into_inner() {
                data[v as usize].rank = rank;
            }
        }
        edges += g.csr(fg_types::EdgeDir::In).num_edges();
        let _ = it;
    }
    let stats = GasStats {
        iterations: iters,
        elapsed: start.elapsed(),
        edges_gathered: edges,
        memory_bytes: (n * std::mem::size_of::<PrData>()) as u64 * 2,
    };
    (data.into_iter().map(|d| d.rank).collect(), stats)
}

/// WCC labels via GAS (min-label propagation over both directions is
/// emulated by gathering over in-edges and scattering over out-edges;
/// on an undirected graph the two coincide, and WCC benchmarks run on
/// the symmetrized view).
pub struct GasWcc;

impl GasProgram for GasWcc {
    type V = u32;
    type A = u32;

    fn init(&self, v: VertexId) -> u32 {
        v.0
    }

    fn gather(&self, _src: VertexId, src_label: &u32, _dst: VertexId, _iter: u32) -> Option<u32> {
        Some(*src_label)
    }

    fn sum(&self, a: u32, b: u32) -> u32 {
        a.min(b)
    }

    fn apply(&self, _dst: VertexId, label: &mut u32, acc: Option<u32>, iter: u32) -> bool {
        match acc {
            Some(l) if l < *label => {
                *label = l;
                true
            }
            // Everyone broadcasts its initial label once.
            _ => iter == 0,
        }
    }
}

/// Forward phase of GAS betweenness centrality: level-synchronous BFS
/// accumulating shortest-path counts σ.
pub struct GasBcForward {
    /// BFS root.
    pub source: VertexId,
}

/// Vertex data of [`GasBcForward`]: `(level, sigma)`.
#[derive(Clone, Copy, Debug)]
pub struct BcData {
    /// BFS level (`u32::MAX` = unreached).
    pub level: u32,
    /// Shortest-path count from the source.
    pub sigma: f64,
}

impl GasProgram for GasBcForward {
    type V = BcData;
    type A = f64;

    fn init(&self, v: VertexId) -> BcData {
        if v == self.source {
            BcData {
                level: 0,
                sigma: 1.0,
            }
        } else {
            BcData {
                level: u32::MAX,
                sigma: 0.0,
            }
        }
    }

    fn gather(&self, _src: VertexId, src: &BcData, _dst: VertexId, iter: u32) -> Option<f64> {
        // Only predecessors settled exactly one level up contribute.
        (iter > 0 && src.level == iter - 1).then_some(src.sigma)
    }

    fn sum(&self, a: f64, b: f64) -> f64 {
        a + b
    }

    fn apply(&self, _dst: VertexId, data: &mut BcData, acc: Option<f64>, iter: u32) -> bool {
        match acc {
            Some(sigma) if data.level == u32::MAX => {
                data.level = iter;
                data.sigma = sigma;
                true
            }
            _ => data.level == 0 && iter == 0,
        }
    }
}

/// Single-source betweenness centrality in the GAS style: a forward
/// [`GasBcForward`] run, then a synchronous per-level backward sweep
/// accumulating dependencies over out-edges (the transpose gather).
pub fn gas_bc(g: &Graph, source: VertexId, threads: usize) -> (Vec<f64>, GasStats) {
    let (fwd, mut stats) = run_gas(
        g,
        &GasBcForward { source },
        Some(&[source]),
        threads,
        u32::MAX,
    );
    let start = Instant::now();
    let n = g.num_vertices();
    let lmax = fwd
        .iter()
        .filter(|d| d.level != u32::MAX)
        .map(|d| d.level)
        .max()
        .unwrap_or(0);
    let mut delta = vec![0f64; n];
    // Group vertices by level for the backward wave.
    let mut by_level: Vec<Vec<VertexId>> = vec![Vec::new(); lmax as usize + 1];
    for v in g.vertices() {
        let l = fwd[v.index()].level;
        if l != u32::MAX {
            by_level[l as usize].push(v);
        }
    }
    let mut gathered = 0u64;
    for l in (0..lmax).rev() {
        // All of level l+1's deltas are final; pull them in parallel.
        let level_list = &by_level[l as usize];
        let chunk = level_list.len().div_ceil(threads.max(1)).max(1);
        let results: Vec<Mutex<Vec<(u32, f64)>>> = (0..threads.max(1))
            .map(|_| Mutex::new(Vec::new()))
            .collect();
        std::thread::scope(|scope| {
            for (t, slice) in level_list.chunks(chunk).enumerate() {
                let fwd = &fwd;
                let delta = &delta;
                let results = &results;
                scope.spawn(move || {
                    let mut local = Vec::with_capacity(slice.len());
                    for &v in slice {
                        let mut acc = 0f64;
                        for &w in g.out_neighbors(v) {
                            if fwd[w.index()].level == l + 1 {
                                acc += fwd[v.index()].sigma / fwd[w.index()].sigma
                                    * (1.0 + delta[w.index()]);
                            }
                        }
                        local.push((v.0, acc));
                    }
                    *results[t].lock() = local;
                });
            }
        });
        for slot in results {
            for (v, d) in slot.into_inner() {
                delta[v as usize] = d;
                gathered += g.out_degree(VertexId(v)) as u64;
            }
        }
    }
    stats.iterations += lmax;
    stats.elapsed += start.elapsed();
    stats.edges_gathered += gathered;
    stats.memory_bytes += (n * 8) as u64;
    (delta, stats)
}

/// Edge-parallel triangle counting in the PowerGraph style: vertex
/// data is the full sorted adjacency list (the memory-hungry design
/// the paper contrasts with FlashGraph), gather intersects endpoint
/// lists per edge.
pub fn gas_triangle_count(g: &Graph, threads: usize) -> (u64, GasStats) {
    let start = Instant::now();
    let n = g.num_vertices();
    let total = Counter::new(0);
    let edges_gathered = Counter::new(0);
    let verts: Vec<VertexId> = g.vertices().collect();
    let chunk = n.div_ceil(threads.max(1)).max(1);
    std::thread::scope(|scope| {
        for slice in verts.chunks(chunk) {
            let total = &total;
            let edges_gathered = &edges_gathered;
            scope.spawn(move || {
                let mut local = 0u64;
                for &u in slice {
                    let nu = g.out_neighbors(u);
                    for &w in nu.iter().filter(|&&w| w > u) {
                        let nw = g.out_neighbors(w);
                        edges_gathered.add(nw.len() as u64);
                        let (mut i, mut j) = (0, 0);
                        while i < nu.len() && j < nw.len() {
                            match nu[i].cmp(&nw[j]) {
                                std::cmp::Ordering::Less => i += 1,
                                std::cmp::Ordering::Greater => j += 1,
                                std::cmp::Ordering::Equal => {
                                    if nu[i] > w {
                                        local += 1;
                                    }
                                    i += 1;
                                    j += 1;
                                }
                            }
                        }
                    }
                }
                total.add(local);
            });
        }
    });
    // Vertex data = adjacency copies, the PowerGraph memory cost.
    let memory_bytes = g.heap_bytes() as u64 * 2;
    let stats = GasStats {
        iterations: 1,
        elapsed: start.elapsed(),
        edges_gathered: edges_gathered.into_inner(),
        memory_bytes,
    };
    (total.into_inner(), stats)
}

/// Scan statistics in the same edge-parallel style: per-vertex
/// triangle counts plus degree, max-reduced.
pub fn gas_scan_statistics(g: &Graph, threads: usize) -> (VertexId, u64, GasStats) {
    let start = Instant::now();
    let per = crate::direct::triangles_per_vertex(g);
    let mut best = (VertexId(0), 0u64);
    for v in g.vertices() {
        let stat = g.out_degree(v) as u64 + per[v.index()];
        if stat > best.1 {
            best = (v, stat);
        }
    }
    let _ = threads;
    let stats = GasStats {
        iterations: 1,
        elapsed: start.elapsed(),
        edges_gathered: g.num_edges() * 2,
        memory_bytes: g.heap_bytes() as u64 * 2 + (g.num_vertices() * 8) as u64,
    };
    (best.0, best.1, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_graph::{fixtures, gen};

    #[test]
    fn gas_bfs_matches_direct() {
        let g = gen::rmat(7, 4, gen::RmatSkew::default(), 7);
        let (levels, stats) = run_gas(
            &g,
            &GasBfs {
                source: VertexId(0),
            },
            Some(&[VertexId(0)]),
            2,
            1000,
        );
        let want = crate::direct::bfs_levels(&g, VertexId(0));
        for v in g.vertices() {
            let got = (levels[v.index()] != u32::MAX).then_some(levels[v.index()]);
            assert_eq!(got, want[v.index()], "vertex {v}");
        }
        assert!(stats.edges_gathered > 0);
    }

    #[test]
    fn gas_wcc_matches_union_find() {
        // Undirected so gather-over-in-edges covers both directions.
        let g = fixtures::complete(6);
        let (labels, _) = run_gas(&g, &GasWcc, None, 2, 1000);
        assert!(labels.iter().all(|&l| l == 0));

        let g = gen::rmat(6, 3, gen::RmatSkew::default(), 9);
        // Symmetrize.
        let mut b = fg_graph::GraphBuilder::undirected();
        b.reserve_vertices(g.num_vertices());
        for (s, d) in g.edges() {
            b.add_edge(s, d);
        }
        let ug = b.build();
        let (labels, _) = run_gas(&ug, &GasWcc, None, 3, 1000);
        let want = crate::direct::wcc_labels(&ug);
        assert_eq!(labels, want);
    }

    #[test]
    fn gas_pagerank_close_to_power_iteration() {
        let g = gen::rmat(7, 5, gen::RmatSkew::default(), 3);
        let (pr, stats) = gas_pagerank(&g, 0.85, 40, 2);
        let want = crate::direct::pagerank(&g, 0.85, 40);
        for v in g.vertices() {
            assert!(
                (pr[v.index()] as f64 - want[v.index()]).abs() < 1e-2,
                "vertex {v}: {} vs {}",
                pr[v.index()],
                want[v.index()]
            );
        }
        assert_eq!(stats.iterations, 40);
    }

    #[test]
    fn gas_triangles_match_direct() {
        let g = fixtures::complete(8);
        let (count, _) = gas_triangle_count(&g, 2);
        assert_eq!(count, 56); // C(8,3)
        let g = gen::rmat(7, 6, gen::RmatSkew::default(), 2);
        let mut b = fg_graph::GraphBuilder::undirected();
        for (s, d) in g.edges() {
            b.add_edge(s, d);
        }
        let ug = b.build();
        let (count, _) = gas_triangle_count(&ug, 3);
        assert_eq!(count, crate::direct::triangle_count(&ug));
    }

    #[test]
    fn gas_scan_matches_direct() {
        let g = fixtures::star(7);
        let (argmax, stat, _) = gas_scan_statistics(&g, 2);
        assert_eq!((argmax, stat), (VertexId(0), 7));
    }

    #[test]
    fn gas_bc_matches_brandes() {
        let g = fixtures::diamond();
        let (delta, _) = gas_bc(&g, VertexId(0), 2);
        let want = crate::direct::bc_single_source(&g, VertexId(0));
        for v in g.vertices() {
            assert!(
                (delta[v.index()] - want[v.index()]).abs() < 1e-9,
                "vertex {v}"
            );
        }
        let g = gen::rmat(7, 4, gen::RmatSkew::default(), 23);
        let (delta, _) = gas_bc(&g, VertexId(0), 3);
        let want = crate::direct::bc_single_source(&g, VertexId(0));
        for v in g.vertices() {
            assert!(
                (delta[v.index()] - want[v.index()]).abs() < 1e-6,
                "vertex {v}: {} vs {}",
                delta[v.index()],
                want[v.index()]
            );
        }
    }
}
