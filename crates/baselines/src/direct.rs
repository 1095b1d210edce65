//! Direct in-memory algorithms (the Galois stand-in).
//!
//! Hand-written, single-purpose implementations with no framework
//! between the algorithm and the CSR. Two jobs: the ledger's
//! `baselines.direct_s` row, and correctness oracles for every
//! FlashGraph app.

use std::collections::{BinaryHeap, VecDeque};

use fg_graph::Graph;
use fg_types::VertexId;

/// BFS levels from `source`; `None` for unreached vertices.
pub fn bfs_levels(g: &Graph, source: VertexId) -> Vec<Option<u32>> {
    let n = g.num_vertices();
    let mut levels = vec![None; n];
    if source.index() >= n {
        return levels;
    }
    let mut q = VecDeque::new();
    levels[source.index()] = Some(0);
    q.push_back(source);
    while let Some(v) = q.pop_front() {
        let next = levels[v.index()].unwrap() + 1;
        for &u in g.out_neighbors(v) {
            if levels[u.index()].is_none() {
                levels[u.index()] = Some(next);
                q.push_back(u);
            }
        }
    }
    levels
}

/// Single-source betweenness-centrality dependencies (Brandes'
/// accumulation from one source): `delta[v]` for every `v`.
pub fn bc_single_source(g: &Graph, source: VertexId) -> Vec<f64> {
    let n = g.num_vertices();
    let mut sigma = vec![0f64; n];
    let mut dist = vec![i64::MAX; n];
    let mut order: Vec<VertexId> = Vec::new();
    let mut delta = vec![0f64; n];
    if source.index() >= n {
        return delta;
    }
    sigma[source.index()] = 1.0;
    dist[source.index()] = 0;
    let mut q = VecDeque::new();
    q.push_back(source);
    while let Some(v) = q.pop_front() {
        order.push(v);
        for &u in g.out_neighbors(v) {
            if dist[u.index()] == i64::MAX {
                dist[u.index()] = dist[v.index()] + 1;
                q.push_back(u);
            }
            if dist[u.index()] == dist[v.index()] + 1 {
                sigma[u.index()] += sigma[v.index()];
            }
        }
    }
    for &v in order.iter().rev() {
        for &u in g.out_neighbors(v) {
            if dist[u.index()] == dist[v.index()] + 1 {
                delta[v.index()] += sigma[v.index()] / sigma[u.index()] * (1.0 + delta[u.index()]);
            }
        }
    }
    delta
}

/// PageRank by power iteration: `rank[v] = (1-d) + d * Σ rank[u]/deg(u)`
/// over in-edges, `iters` rounds (the paper's formulation, scaled so
/// ranks sum to ~n).
pub fn pagerank(g: &Graph, damping: f64, iters: u32) -> Vec<f64> {
    let n = g.num_vertices();
    let mut rank = vec![1.0; n];
    let mut next = vec![0.0; n];
    for _ in 0..iters {
        for x in next.iter_mut() {
            *x = 1.0 - damping;
        }
        for v in g.vertices() {
            let deg = g.out_degree(v);
            if deg == 0 {
                continue;
            }
            let share = damping * rank[v.index()] / deg as f64;
            for &u in g.out_neighbors(v) {
                next[u.index()] += share;
            }
        }
        std::mem::swap(&mut rank, &mut next);
    }
    rank
}

/// Weakly connected components by union-find; returns the smallest
/// vertex id in each vertex's component (matching the label-
/// propagation convergence point).
pub fn wcc_labels(g: &Graph) -> Vec<u32> {
    let n = g.num_vertices();
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(parent: &mut [u32], v: u32) -> u32 {
        let mut root = v;
        while parent[root as usize] != root {
            root = parent[root as usize];
        }
        let mut cur = v;
        while parent[cur as usize] != root {
            let next = parent[cur as usize];
            parent[cur as usize] = root;
            cur = next;
        }
        root
    }
    for (s, d) in g.edges() {
        let rs = find(&mut parent, s.0);
        let rd = find(&mut parent, d.0);
        if rs != rd {
            // Union by smaller id so roots are component minima.
            if rs < rd {
                parent[rd as usize] = rs;
            } else {
                parent[rs as usize] = rd;
            }
        }
    }
    (0..n as u32).map(|v| find(&mut parent, v)).collect()
}

/// Total triangle count of an undirected graph, counting each
/// triangle once, by sorted-adjacency intersection.
pub fn triangle_count(g: &Graph) -> u64 {
    let mut total = 0u64;
    for u in g.vertices() {
        let nu = g.out_neighbors(u);
        for &w in nu.iter().filter(|&&w| w > u) {
            total += intersect_above(nu, g.out_neighbors(w), w);
        }
    }
    total
}

/// Per-vertex triangle counts (triangles incident to each vertex).
pub fn triangles_per_vertex(g: &Graph) -> Vec<u64> {
    let mut counts = vec![0u64; g.num_vertices()];
    for u in g.vertices() {
        let nu = g.out_neighbors(u);
        for &w in nu.iter().filter(|&&w| w > u) {
            let nw = g.out_neighbors(w);
            // Enumerate x > w in both lists.
            let (mut i, mut j) = (0, 0);
            while i < nu.len() && j < nw.len() {
                let (a, b) = (nu[i], nw[j]);
                if a < b {
                    i += 1;
                } else if b < a {
                    j += 1;
                } else {
                    if a > w {
                        counts[u.index()] += 1;
                        counts[w.index()] += 1;
                        counts[a.index()] += 1;
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
    }
    counts
}

/// Exact local clustering coefficient of every vertex of an
/// undirected graph: `2·E(N(v)) / (d·(d-1))` where `E(N(v))` is the
/// number of edges among `v`'s neighbours and `d = |N(v)|`. Vertices
/// of degree < 2 get 0. The oracle for `fg_apps::lcc`'s sampled
/// estimator (which converges to this as its sample size reaches the
/// degree).
pub fn local_clustering(g: &Graph) -> Vec<f64> {
    let n = g.num_vertices();
    let mut lcc = vec![0f64; n];
    for v in g.vertices() {
        let nv = g.out_neighbors(v);
        let d = nv.len() as u64;
        if d < 2 {
            continue;
        }
        // Count ordered incidences (u, x): u ∈ N(v), x ∈ N(u) ∩ N(v),
        // x ≠ u — each neighbourhood edge counted once per endpoint.
        let mut incid = 0u64;
        for &u in nv {
            let (mut i, mut j) = (0usize, 0usize);
            let nu = g.out_neighbors(u);
            while i < nv.len() && j < nu.len() {
                match nv[i].cmp(&nu[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        if nv[i] != u {
                            incid += 1;
                        }
                        i += 1;
                        j += 1;
                    }
                }
            }
        }
        lcc[v.index()] = incid as f64 / (d * (d - 1)) as f64;
    }
    lcc
}

fn intersect_above(a: &[VertexId], b: &[VertexId], above: VertexId) -> u64 {
    let (mut i, mut j, mut c) = (0, 0, 0u64);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                if a[i] > above {
                    c += 1;
                }
                i += 1;
                j += 1;
            }
        }
    }
    c
}

/// The scan statistic (maximum locality statistic): the largest
/// `deg(v) + edges-among-N(v)` over all vertices, with its argmax.
pub fn scan_statistics(g: &Graph) -> (VertexId, u64) {
    let mut best = (VertexId(0), 0u64);
    let tri = triangles_per_vertex(g);
    for v in g.vertices() {
        let stat = g.out_degree(v) as u64 + tri[v.index()];
        if stat > best.1 {
            best = (v, stat);
        }
    }
    best
}

/// Dijkstra single-source shortest paths over edge weights;
/// `f64::INFINITY` for unreachable vertices.
pub fn sssp(g: &Graph, source: VertexId) -> Vec<f64> {
    let n = g.num_vertices();
    let mut dist = vec![f64::INFINITY; n];
    if source.index() >= n {
        return dist;
    }
    let csr = g.csr(fg_types::EdgeDir::Out);
    dist[source.index()] = 0.0;
    // Max-heap on reversed ordering of (dist, vertex).
    let mut heap: BinaryHeap<(std::cmp::Reverse<ordered_f64>, u32)> = BinaryHeap::new();
    heap.push((std::cmp::Reverse(ordered_f64(0.0)), source.0));
    while let Some((std::cmp::Reverse(ordered_f64(d)), v)) = heap.pop() {
        if d > dist[v as usize] {
            continue;
        }
        let vid = VertexId(v);
        let ws = csr.weights_of(vid);
        for (k, &u) in csr.neighbors(vid).iter().enumerate() {
            let w = ws.map(|w| w[k] as f64).unwrap_or(1.0);
            let nd = d + w;
            if nd < dist[u.index()] {
                dist[u.index()] = nd;
                heap.push((std::cmp::Reverse(ordered_f64(nd)), u.0));
            }
        }
    }
    dist
}

/// Vertices remaining in the `k`-core (iterative peeling); `true`
/// means the vertex survives. Degree is out+in for directed graphs.
pub fn k_core(g: &Graph, k: u32) -> Vec<bool> {
    let n = g.num_vertices();
    let mut deg: Vec<u32> = g
        .vertices()
        .map(|v| (g.out_degree(v) + if g.is_directed() { g.in_degree(v) } else { 0 }) as u32)
        .collect();
    let mut alive = vec![true; n];
    let mut q: VecDeque<VertexId> = g.vertices().filter(|&v| deg[v.index()] < k).collect();
    for v in &q {
        alive[v.index()] = false;
    }
    while let Some(v) = q.pop_front() {
        let mut drop_neighbor = |u: VertexId| {
            if alive[u.index()] {
                deg[u.index()] -= 1;
                if deg[u.index()] < k {
                    alive[u.index()] = false;
                    q.push_back(u);
                }
            }
        };
        // Collect first to appease the borrow checker.
        let mut ns: Vec<VertexId> = g.out_neighbors(v).to_vec();
        if g.is_directed() {
            ns.extend_from_slice(g.in_neighbors(v));
        }
        for u in ns {
            drop_neighbor(u);
        }
    }
    alive
}

/// Total-order wrapper for f64 heap keys (no NaNs by construction).
#[derive(PartialEq, PartialOrd)]
#[allow(non_camel_case_types)]
struct ordered_f64(f64);

impl Eq for ordered_f64 {}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for ordered_f64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.partial_cmp(other).expect("weights are never NaN")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_graph::{fixtures, gen};

    #[test]
    fn bfs_on_path() {
        let g = fixtures::path(6);
        let levels = bfs_levels(&g, VertexId(0));
        for (i, l) in levels.iter().enumerate() {
            assert_eq!(*l, Some(i as u32));
        }
        // No path back from the tail.
        assert_eq!(bfs_levels(&g, VertexId(5))[0], None);
    }

    #[test]
    fn bc_on_diamond() {
        // 0 -> {1,2} -> 3 -> 4: delta(1) = delta(2) = 0.5*(1+1) = 1,
        // delta(3) = 1 + delta(4) = 1, delta(4) = 0, delta(0) = sum
        // over successors = 2*(0.5*(1+1)) ... delta(0) unused by BC.
        let g = fixtures::diamond();
        let d = bc_single_source(&g, VertexId(0));
        assert!((d[1] - 1.0).abs() < 1e-9);
        assert!((d[2] - 1.0).abs() < 1e-9);
        assert!((d[3] - 1.0).abs() < 1e-9);
        assert_eq!(d[4], 0.0);
    }

    #[test]
    fn pagerank_sums_to_n() {
        let g = gen::rmat(7, 6, gen::RmatSkew::default(), 2);
        let pr = pagerank(&g, 0.85, 50);
        // With no dangling-mass redistribution the sum is ≤ n but
        // every rank at least (1-d).
        assert!(pr.iter().all(|&r| r >= 0.15));
        let hubs = pr.iter().filter(|&&r| r > 2.0).count();
        assert!(hubs > 0, "power-law graph should produce hub ranks");
    }

    #[test]
    fn pagerank_uniform_on_cycle() {
        let g = fixtures::cycle(8);
        let pr = pagerank(&g, 0.85, 60);
        for r in &pr {
            assert!((r - 1.0).abs() < 1e-6, "cycle ranks are uniform, got {r}");
        }
    }

    #[test]
    fn wcc_two_components() {
        let g = fixtures::two_components(3, 9);
        let labels = wcc_labels(&g);
        assert!(labels[..3].iter().all(|&l| l == 0));
        assert!(labels[3..].iter().all(|&l| l == 3));
    }

    #[test]
    fn triangles_in_complete_graph() {
        let g = fixtures::complete(7);
        assert_eq!(triangle_count(&g), 35); // C(7,3)
        let per = triangles_per_vertex(&g);
        assert!(per.iter().all(|&c| c == 15)); // C(6,2)
    }

    #[test]
    fn no_triangles_in_star() {
        let g = fixtures::star(10);
        assert_eq!(triangle_count(&g), 0);
    }

    #[test]
    fn scan_stats_of_star_is_center_degree() {
        let g = fixtures::star(9);
        let (argmax, stat) = scan_statistics(&g);
        assert_eq!(argmax, VertexId(0));
        assert_eq!(stat, 9);
    }

    #[test]
    fn scan_stats_complete() {
        let g = fixtures::complete(5);
        let (_, stat) = scan_statistics(&g);
        // deg 4 + C(4,2) = 4 + 6 = 10 edges among neighbours.
        assert_eq!(stat, 10);
    }

    #[test]
    fn sssp_weighted_square() {
        let g = fixtures::weighted_square();
        let d = sssp(&g, VertexId(0));
        assert_eq!(d[0], 0.0);
        assert_eq!(d[1], 1.0);
        assert_eq!(d[2], 2.0); // through 1, not the 5.0 direct edge
        assert_eq!(d[3], 3.0);
    }

    #[test]
    fn sssp_unreachable_is_infinite() {
        let g = fixtures::path(3);
        let d = sssp(&g, VertexId(2));
        assert!(d[0].is_infinite());
    }

    #[test]
    fn k_core_peels_star() {
        let g = fixtures::star(5);
        // 2-core of a star is empty (leaves have degree 1; removing
        // them leaves the center alone).
        let core = k_core(&g, 2);
        assert!(core.iter().all(|&a| !a));
        // 1-core keeps everything.
        assert!(k_core(&g, 1).iter().all(|&a| a));
    }

    #[test]
    fn k_core_complete_survives() {
        let g = fixtures::complete(6);
        assert!(k_core(&g, 5).iter().all(|&a| a));
        assert!(k_core(&g, 6).iter().all(|&a| !a));
    }

    #[test]
    fn local_clustering_known_shapes() {
        // Complete graph: every neighbourhood is complete → 1.0.
        let g = fixtures::complete(5);
        assert!(local_clustering(&g).iter().all(|&c| c == 1.0));
        // Star: no edges among leaves → 0 everywhere (leaves have
        // degree 1 and default to 0 too).
        let g = fixtures::star(6);
        assert!(local_clustering(&g).iter().all(|&c| c == 0.0));
    }

    #[test]
    fn local_clustering_consistent_with_triangles() {
        // lcc(v) = 2·T(v) / (d·(d-1)) on simple undirected graphs.
        let d = fg_graph::gen::rmat(7, 4, fg_graph::gen::RmatSkew::default(), 8);
        let mut b = fg_graph::GraphBuilder::undirected();
        for (s, t) in d.edges() {
            b.add_edge(s, t);
        }
        let g = b.build();
        let lcc = local_clustering(&g);
        let tri = triangles_per_vertex(&g);
        for v in g.vertices() {
            let deg = g.out_degree(v) as u64;
            let want = if deg < 2 {
                0.0
            } else {
                2.0 * tri[v.index()] as f64 / (deg * (deg - 1)) as f64
            };
            assert!(
                (lcc[v.index()] - want).abs() < 1e-12,
                "vertex {v}: {} vs {want}",
                lcc[v.index()]
            );
        }
    }
}
