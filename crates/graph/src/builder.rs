//! Incremental construction of [`Graph`]s from edge streams.

use fg_types::VertexId;

use crate::csr::{Csr, Graph};

/// Accumulates edges and produces a [`Graph`].
///
/// The builder tolerates edges in any order, duplicate edges, and
/// self-loops; [`GraphBuilder::build`] sorts adjacency lists,
/// deduplicates parallel edges, and drops self-loops, as
/// [`crate::DeltaLog`] drops them from ingest. Real-world crawl
/// datasets contain all three artifacts, so ingestion must not choke
/// on them. With no self-loop in a list, an undirected graph stores
/// each edge exactly twice, once per endpoint, which is what its edge
/// count (and an image header's) halves.
///
/// A duplicate edge keeps the weight it was first added with. An
/// undirected edge is added as both orientations, so naming it again
/// from either end changes neither weight, and its two directions
/// always read the same weight.
///
/// Construction is O(V + E) per pass, with no comparison sort. Two
/// stable counting passes, by destination and then by source, sort the
/// edge list by `(src, dst)` and leave duplicates in insertion order.
/// Keeping the first of each run gives the out-CSR. One more stable
/// counting pass of that list by destination gives a directed graph's
/// in-CSR, already sorted by `(dst, src)`: the exact transpose.
///
/// # Example
///
/// ```
/// use fg_graph::GraphBuilder;
/// use fg_types::VertexId;
///
/// let mut b = GraphBuilder::undirected();
/// b.add_edge(VertexId(0), VertexId(2));
/// b.add_edge(VertexId(2), VertexId(0)); // duplicate in reverse: deduped
/// let g = b.build();
/// assert_eq!(g.num_edges(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    directed: bool,
    weighted: bool,
    edges: Vec<(VertexId, VertexId, f32)>,
    max_vertex: Option<u32>,
}

impl GraphBuilder {
    /// A builder for a directed graph.
    pub fn directed() -> Self {
        Self::new(true)
    }

    /// A builder for an undirected graph.
    pub fn undirected() -> Self {
        Self::new(false)
    }

    fn new(directed: bool) -> Self {
        GraphBuilder {
            directed,
            weighted: false,
            edges: Vec::new(),
            max_vertex: None,
        }
    }

    /// Forces the vertex count to at least `n`, so isolated trailing
    /// vertices survive.
    pub fn reserve_vertices(&mut self, n: usize) -> &mut Self {
        if n > 0 {
            let hi = (n - 1) as u32;
            self.max_vertex = Some(self.max_vertex.map_or(hi, |m| m.max(hi)));
        }
        self
    }

    /// Adds an unweighted edge. The graph stays unweighted (no
    /// attribute sections in its on-SSD image) unless some edge is
    /// added through [`GraphBuilder::add_weighted_edge`].
    pub fn add_edge(&mut self, src: VertexId, dst: VertexId) -> &mut Self {
        self.push(src, dst, 1.0);
        self
    }

    /// Adds a weighted edge; the graph becomes weighted once any edge
    /// arrives via this method (unweighted-added edges then default to
    /// weight `1.0`).
    pub fn add_weighted_edge(&mut self, src: VertexId, dst: VertexId, w: f32) -> &mut Self {
        self.weighted = true;
        self.push(src, dst, w);
        self
    }

    fn push(&mut self, src: VertexId, dst: VertexId, w: f32) {
        self.edges.push((src, dst, w));
        let hi = src.0.max(dst.0);
        self.max_vertex = Some(self.max_vertex.map_or(hi, |m| m.max(hi)));
    }

    /// Adds every edge from an iterator of `(src, dst)` pairs.
    /// Unweighted like [`GraphBuilder::add_edge`] — it no longer
    /// clears the weighted flag, so mixing with
    /// [`GraphBuilder::add_weighted_edge`] keeps the graph weighted.
    pub fn extend_edges<I>(&mut self, iter: I) -> &mut Self
    where
        I: IntoIterator<Item = (VertexId, VertexId)>,
    {
        let iter = iter.into_iter();
        self.edges.reserve(iter.size_hint().0);
        for (s, d) in iter {
            self.push(s, d, 1.0);
        }
        self
    }

    /// Builds the graph, consuming nothing (the builder can be reused
    /// after `clone`). Adjacency lists come out sorted by neighbour id
    /// with parallel edges deduplicated, each keeping the weight it was
    /// first added with.
    pub fn build(&self) -> Graph {
        let n = self.max_vertex.map_or(0, |m| m as usize + 1);
        let mut fwd: Vec<Edge> = Vec::with_capacity(self.edges.len());
        for &(s, d, w) in &self.edges {
            if s == d {
                continue;
            }
            fwd.push((s, d, w));
            if !self.directed {
                fwd.push((d, s, w));
            }
        }
        // Stable passes (see the type's doc): by destination, then by
        // source, so each run of duplicates is in insertion order and
        // `dedup` keeps the first weight.
        let mut by = Vec::with_capacity(fwd.len());
        counting_pass(n, &fwd, &mut by, |e| e.1);
        counting_pass(n, &by, &mut fwd, |e| e.0);
        fwd.dedup_by_key(|&mut (s, d, _)| (s, d));
        let out = pack(offsets_by(n, &fwd, |e| e.0), &fwd, self.weighted, |e| e.1);
        let in_ = self.directed.then(|| {
            let offsets = counting_pass(n, &fwd, &mut by, |e| e.1);
            pack(offsets, &by, self.weighted, |e| e.0)
        });
        Graph::from_csr(self.directed, out, in_).expect("builder output consistent")
    }
}

/// One edge as the builder holds it: `(src, dst, weight)`.
type Edge = (VertexId, VertexId, f32);

/// Where each key's edges start if `edges` are grouped by `key`, a
/// vertex id below `n`: `n + 1` offsets, the CSR row index.
fn offsets_by(n: usize, edges: &[Edge], key: impl Fn(&Edge) -> VertexId) -> Vec<u64> {
    let mut offsets = vec![0u64; n + 1];
    for e in edges {
        offsets[key(e).index() + 1] += 1;
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    offsets
}

/// Stably sorts `from` into `to` by `key`, a vertex id below `n`, in
/// one counting pass, and returns [`offsets_by`]: key `k`'s edges are
/// `to[offsets[k]..offsets[k + 1]]`, in their order in `from`.
fn counting_pass(
    n: usize,
    from: &[Edge],
    to: &mut Vec<Edge>,
    key: impl Fn(&Edge) -> VertexId,
) -> Vec<u64> {
    let mut offsets = offsets_by(n, from, &key);
    to.clear();
    to.resize(from.len(), (VertexId(0), VertexId(0), 0.0));
    // `offsets[k]` is bucket k's write cursor; after the scatter it
    // holds bucket k's end, which is where bucket k + 1 starts.
    for &e in from {
        let at = &mut offsets[key(&e).index()];
        to[*at as usize] = e;
        *at += 1;
    }
    offsets.copy_within(..n, 1);
    offsets[0] = 0;
    offsets
}

/// Packs a CSR from `offsets` and the edges they index, taking each
/// edge's neighbour by `neighbor`.
fn pack(offsets: Vec<u64>, edges: &[Edge], weighted: bool, neighbor: fn(&Edge) -> VertexId) -> Csr {
    let neighbors = edges.iter().map(neighbor).collect();
    let weights = weighted.then(|| edges.iter().map(|&(_, _, w)| w).collect());
    Csr::from_parts(offsets, neighbors, weights).expect("constructed offsets are consistent")
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_types::EdgeDir;

    #[test]
    fn directed_build_sorts_and_dedups() {
        let mut b = GraphBuilder::directed();
        b.add_edge(VertexId(2), VertexId(0));
        b.add_edge(VertexId(2), VertexId(0)); // dup
        b.add_edge(VertexId(2), VertexId(1));
        b.add_edge(VertexId(0), VertexId(2));
        let g = b.build();
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.out_neighbors(VertexId(2)), &[VertexId(0), VertexId(1)]);
        assert_eq!(g.in_neighbors(VertexId(0)), &[VertexId(2)]);
        assert_eq!(g.in_neighbors(VertexId(2)), &[VertexId(0)]);
    }

    #[test]
    fn self_loops_dropped_by_default() {
        let mut b = GraphBuilder::directed();
        b.add_edge(VertexId(1), VertexId(1));
        b.add_edge(VertexId(0), VertexId(1));
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn undirected_symmetric() {
        let mut b = GraphBuilder::undirected();
        b.add_edge(VertexId(0), VertexId(3));
        b.add_edge(VertexId(3), VertexId(1));
        let g = b.build();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.out_neighbors(VertexId(3)), &[VertexId(0), VertexId(1)]);
        assert_eq!(g.out_neighbors(VertexId(0)), &[VertexId(3)]);
    }

    #[test]
    fn reserve_vertices_creates_isolated() {
        let mut b = GraphBuilder::directed();
        b.add_edge(VertexId(0), VertexId(1));
        b.reserve_vertices(10);
        let g = b.build();
        assert_eq!(g.num_vertices(), 10);
        assert_eq!(g.out_degree(VertexId(9)), 0);
    }

    #[test]
    fn empty_builder_builds_empty_graph() {
        let g = GraphBuilder::directed().build();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn weights_preserved_through_build() {
        let mut b = GraphBuilder::directed();
        b.add_weighted_edge(VertexId(0), VertexId(1), 2.5);
        b.add_weighted_edge(VertexId(0), VertexId(2), 7.0);
        let g = b.build();
        assert!(g.has_weights());
        let w = g
            .csr(fg_types::EdgeDir::Out)
            .weights_of(VertexId(0))
            .unwrap();
        assert_eq!(w, &[2.5, 7.0]);
    }

    #[test]
    fn directed_in_out_edge_counts_match_with_dups() {
        let mut b = GraphBuilder::directed();
        // duplicates that dedup differently per direction ordering
        b.add_edge(VertexId(0), VertexId(1));
        b.add_edge(VertexId(0), VertexId(1));
        b.add_edge(VertexId(1), VertexId(0));
        let g = b.build();
        assert_eq!(g.num_edges(), 2);
        let total_in: usize = g.vertices().map(|v| g.in_degree(v)).sum();
        let total_out: usize = g.vertices().map(|v| g.out_degree(v)).sum();
        assert_eq!(total_in, total_out);
    }

    #[test]
    fn extend_edges_bulk() {
        let mut b = GraphBuilder::directed();
        b.extend_edges((0..5u32).map(|i| (VertexId(i), VertexId(i + 1))));
        let g = b.build();
        assert_eq!(g.num_vertices(), 6);
        assert_eq!(g.num_edges(), 5);
    }

    #[test]
    fn a_duplicate_weighted_edge_keeps_the_first_weight() {
        // A path whose every edge is added twice: first with weight 1.0,
        // then with 2.0 (reversed when undirected, so the second add
        // names the same undirected edge from the other end).
        let n = 5_000u32;
        for directed in [true, false] {
            let mut b = if directed {
                GraphBuilder::directed()
            } else {
                GraphBuilder::undirected()
            };
            for v in 0..n - 1 {
                b.add_weighted_edge(VertexId(v), VertexId(v + 1), 1.0);
            }
            for v in 0..n - 1 {
                let (s, d) = if directed { (v, v + 1) } else { (v + 1, v) };
                b.add_weighted_edge(VertexId(s), VertexId(d), 2.0);
            }
            let g = b.build();
            assert_eq!(g.num_edges(), u64::from(n - 1));
            let out = g.csr(EdgeDir::Out);
            let later = g
                .vertices()
                .flat_map(|v| out.weights_of(v).unwrap())
                .filter(|&&w| w != 1.0)
                .count();
            assert_eq!(
                later, 0,
                "directed {directed}: edges that kept a later weight"
            );
            if !directed {
                for (s, d) in g.edges() {
                    assert_eq!(weight(out, s, d), weight(out, d, s), "w({s:?}, {d:?})");
                }
            }
        }
    }

    fn weight(c: &Csr, s: VertexId, d: VertexId) -> f32 {
        let k = c.neighbors(s).binary_search(&d).expect("edge present");
        c.weights_of(s).expect("weighted")[k]
    }

    // ----------------------------------------- build vs a BTreeMap model

    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// What `build` promises, by definition: each ordered pair that is
    /// not a self-loop, once, with the first weight added for it (an
    /// undirected edge is added as both orientations).
    fn model(edges: &[(u32, u32, Option<f32>)], directed: bool) -> BTreeMap<(u32, u32), f32> {
        let mut m = BTreeMap::new();
        for &(s, d, w) in edges {
            if s == d {
                continue;
            }
            let w = w.unwrap_or(1.0);
            m.entry((s, d)).or_insert(w);
            if !directed {
                m.entry((d, s)).or_insert(w);
            }
        }
        m
    }

    /// `c`'s lists as `(src, dst, weight)` triples in storage order.
    fn triples(c: &Csr) -> Vec<(u32, u32, f32)> {
        (0..c.num_vertices() as u32)
            .flat_map(|v| {
                let ws = c.weights_of(VertexId(v));
                c.neighbors(VertexId(v))
                    .iter()
                    .enumerate()
                    .map(move |(k, d)| (v, d.0, ws.map_or(1.0, |w| w[k])))
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random edge lists with duplicates in both orientations,
        /// self-loops and mixed weighted / unweighted adds come out
        /// sorted, deduplicated, first-weight and free of self-loops; a
        /// directed graph's in-CSR is exactly the transpose of its
        /// out-CSR, and an undirected graph stores each of its edges
        /// twice.
        #[test]
        fn build_matches_a_first_weight_model(
            seed in any::<u64>(),
            directed in any::<bool>(),
            weighted in any::<bool>(),
            reserve in 0usize..48,
        ) {
            let mut rng = TestRng::deterministic("build_model", seed as u32);
            let span = 1 + rng.below(40) as u32;
            let mut edges: Vec<(u32, u32, Option<f32>)> = Vec::new();
            for _ in 0..rng.below(200) {
                let (s, d) = match (edges.len(), rng.below(3)) {
                    // Name an earlier edge again, either way round.
                    (k @ 1.., 0) => {
                        let (s, d, _) = edges[rng.below(k as u64) as usize];
                        if rng.below(2) == 0 { (s, d) } else { (d, s) }
                    }
                    _ => (rng.below(span as u64) as u32, rng.below(span as u64) as u32),
                };
                let w = (weighted && rng.below(4) != 0).then(|| 1.0 + rng.below(9) as f32);
                edges.push((s, d, w));
            }
            let mut b = if directed {
                GraphBuilder::directed()
            } else {
                GraphBuilder::undirected()
            };
            for &(s, d, w) in &edges {
                match w {
                    Some(w) => b.add_weighted_edge(VertexId(s), VertexId(d), w),
                    None => b.add_edge(VertexId(s), VertexId(d)),
                };
            }
            b.reserve_vertices(reserve);
            let g = b.build();

            let top = edges.iter().map(|&(s, d, _)| s.max(d) + 1).max().unwrap_or(0);
            prop_assert_eq!(g.num_vertices(), reserve.max(top as usize));
            prop_assert_eq!(g.has_weights(), edges.iter().any(|e| e.2.is_some()));
            let want: Vec<(u32, u32, f32)> = model(&edges, directed)
                .into_iter()
                .map(|((s, d), w)| (s, d, w))
                .collect();
            let out = g.csr(EdgeDir::Out);
            prop_assert_eq!(triples(out), want);
            prop_assert!(g.vertices().all(|v| out.neighbors(v).is_sorted()));
            prop_assert!(g.vertices().all(|v| !out.neighbors(v).contains(&v)));
            if !directed {
                prop_assert_eq!(2 * g.num_edges(), out.neighbor_array().len() as u64);
            }
            if directed {
                let mut transpose: Vec<(u32, u32, f32)> =
                    triples(out).into_iter().map(|(s, d, w)| (d, s, w)).collect();
                transpose.sort_by_key(|&(d, s, _)| (d, s));
                prop_assert_eq!(triples(g.csr(EdgeDir::In)), transpose);
                prop_assert_eq!(g.csr(EdgeDir::In).has_weights(), g.has_weights());
            }
        }
    }
}
