//! Incremental construction of [`Graph`]s from edge streams.
//!
//! [`GraphBuilder::build`] lays out both CSRs on every core. Its three
//! stable counting passes (by destination, by source, and for a
//! directed graph's in-CSR by destination again) each run as one
//! parallel stable counting sort (`sort.rs`):
//!
//! 1. a coarse key histogram cuts the keys into contiguous ranges
//!    holding about equal numbers of edges;
//! 2. each thread stably partitions its chunk of the input by range;
//! 3. each thread counts its ranges into their own disjoint slices of
//!    the output and of the offsets, carved with `split_at_mut`.
//!
//! The bytes cannot depend on the thread count. Each pass is stable:
//! chunks are taken and ranges laid out in input order, and each
//! range is counted walking backwards into bucket ends. So every pass
//! writes what one serial stable counting pass writes, and the passes
//! are the same ones the serial builder ran. Deduplication keeps the
//! first of each `(src, dst)` run inside one range, since a run never
//! spans two ranges of sources. Unweighted edges sort as 8-byte
//! `(src, dst)` pairs and weighted ones as 12-byte triples. Extra
//! memory is two edge buffers and the offsets, whatever the thread
//! count, and the build consumes the builder: once the first pass has
//! read its edge list, that list's pages take the next pass's output
//! whenever it fits there (a directed graph's always does), instead
//! of a fresh buffer.

use fg_types::VertexId;

use crate::csr::{Csr, Graph};
use crate::sort::{self, Edge};

/// An unweighted edge as the builder holds it.
pub(crate) type Pair = (u32, u32);

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
/// The first drops self-loops and adds each undirected edge's reverse
/// as it reads. Keeping the first of each run gives the out-CSR. One
/// more stable counting pass of that list by destination gives a
/// directed graph's in-CSR, already sorted by `(dst, src)`: the exact
/// transpose.
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
    edges: Edges,
    max_vertex: Option<u32>,
}

/// The edges added so far: pairs until the first weighted edge, then
/// triples, the earlier edges weighing `1.0`.
#[derive(Debug, Clone)]
enum Edges {
    Pairs(Vec<Pair>),
    Triples(Vec<(u32, u32, f32)>),
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
            edges: Edges::Pairs(Vec::new()),
            max_vertex: None,
        }
    }

    /// A directed builder over `n` vertices holding `edges`, whose ids
    /// are all below `n`: the R-MAT sampler's output, taken without a
    /// copy.
    pub(crate) fn from_pairs(n: usize, edges: Vec<Pair>) -> Self {
        let mut b = GraphBuilder {
            edges: Edges::Pairs(edges),
            ..Self::directed()
        };
        b.reserve_vertices(n);
        b
    }

    /// Forces the vertex count to at least `n`, so isolated trailing
    /// vertices survive.
    ///
    /// # Panics
    ///
    /// Panics when `n` exceeds 2^32, the number of `u32` vertex ids.
    pub fn reserve_vertices(&mut self, n: usize) -> &mut Self {
        if n > 0 {
            let hi = u32::try_from(n - 1).unwrap_or_else(|_| {
                panic!("cannot reserve {n} vertices: ids are u32, so at most 2^32")
            });
            self.cover(hi);
        }
        self
    }

    /// Adds an unweighted edge. The graph stays unweighted (no
    /// attribute sections in its on-SSD image) unless some edge is
    /// added through [`GraphBuilder::add_weighted_edge`].
    pub fn add_edge(&mut self, src: VertexId, dst: VertexId) -> &mut Self {
        match &mut self.edges {
            Edges::Pairs(e) => e.push((src.0, dst.0)),
            Edges::Triples(e) => e.push((src.0, dst.0, 1.0)),
        }
        self.cover(src.0.max(dst.0));
        self
    }

    /// Adds a weighted edge; the graph becomes weighted once any edge
    /// arrives via this method (unweighted-added edges then default to
    /// weight `1.0`).
    pub fn add_weighted_edge(&mut self, src: VertexId, dst: VertexId, w: f32) -> &mut Self {
        if let Edges::Pairs(e) = &self.edges {
            let triples = e.iter().map(|&(s, d)| (s, d, 1.0)).collect();
            self.edges = Edges::Triples(triples);
        }
        if let Edges::Triples(e) = &mut self.edges {
            e.push((src.0, dst.0, w));
        }
        self.cover(src.0.max(dst.0));
        self
    }

    /// Grows the vertex count to take in id `hi`.
    fn cover(&mut self, hi: u32) {
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
        match &mut self.edges {
            Edges::Pairs(e) => e.reserve(iter.size_hint().0),
            Edges::Triples(e) => e.reserve(iter.size_hint().0),
        }
        for (s, d) in iter {
            self.add_edge(s, d);
        }
        self
    }

    /// Builds the graph, consuming the builder (its edge list becomes
    /// sort space; clone the builder to build twice). Adjacency lists
    /// come out sorted by neighbour id with parallel edges
    /// deduplicated, each keeping the weight it was first added with.
    pub fn build(self) -> Graph {
        let len = match &self.edges {
            Edges::Pairs(e) => e.len(),
            Edges::Triples(e) => e.len(),
        };
        self.build_on(sort::threads_for(len))
    }

    /// [`GraphBuilder::build`] on `threads` threads; the graph is the
    /// same at any count.
    pub(crate) fn build_on(self, threads: usize) -> Graph {
        let n = self.max_vertex.map_or(0, |m| m as usize + 1);
        let (out, in_) = match self.edges {
            Edges::Pairs(e) => csrs(n, self.directed, false, e, threads),
            Edges::Triples(e) => csrs(n, self.directed, true, e, threads),
        };
        Graph::from_csr(self.directed, out, in_).expect("builder output consistent")
    }
}

/// The out-CSR, and a directed graph's in-CSR, of `edges` over `n`
/// vertices (see [`GraphBuilder`] for the passes).
fn csrs<E: Edge>(
    n: usize,
    directed: bool,
    weighted: bool,
    edges: Vec<E>,
    threads: usize,
) -> (Csr, Option<Csr>) {
    let mut staged = Vec::new();
    let expand = |e: E| {
        let k = if e.src() == e.dst() {
            0
        } else if directed {
            1
        } else {
            2
        };
        ([e, e.reversed()], k)
    };
    let plan = sort::stage(
        n,
        &sort::split(&edges, threads),
        expand,
        E::dst,
        &mut staged,
    );
    // The input is read: the next pass counts into its pages.
    let mut sorted = edges;
    let plan = {
        // Only the order is kept: its offsets go before the next pass.
        let by_dst = sort::count(n, plan, &staged, &mut sorted, E::dst, sort::keep_all);
        sort::stage(n, &by_dst.chunks(&sorted), one, E::src, &mut staged)
    };
    let by_src = sort::count(n, plan, &staged, &mut sorted, E::src, dedup);
    let transpose =
        directed.then(|| sort::stage(n, &by_src.chunks(&sorted), one, E::dst, &mut staged));
    let out = by_src.pack(&sorted, weighted, E::dst);
    let in_ = transpose.map(|plan| {
        let by_dst = sort::count(n, plan, &staged, &mut sorted, E::dst, sort::keep_all);
        by_dst.pack(&sorted, weighted, E::src)
    });
    (out, in_)
}

/// `emit` for a pass that sorts each edge as it is.
fn one<E: Edge>(e: E) -> ([E; 2], usize) {
    ([e, e], 1)
}

/// Keeps the first edge of each run of equal `(src, dst)` in `edges`,
/// a range sorted by them whose sources start at `starts`, and moves
/// each start to match. Returns how many edges it kept.
fn dedup<E: Edge>(edges: &mut [E], starts: &mut [u64]) -> usize {
    let mut kept = 0;
    for k in 0..starts.len() {
        let end = starts.get(k + 1).map_or(edges.len(), |&s| s as usize);
        let begin = std::mem::replace(&mut starts[k], kept as u64) as usize;
        for i in begin..end {
            if kept == starts[k] as usize || edges[i].dst() != edges[kept - 1].dst() {
                edges[kept] = edges[i];
                kept += 1;
            }
        }
    }
    kept
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

    /// An edge as a test adds it: `None` for an unweighted add.
    type Added = (u32, u32, Option<f32>);

    /// What `build` promises, by definition: each ordered pair that is
    /// not a self-loop, once, with the first weight added for it (an
    /// undirected edge is added as both orientations).
    fn model(edges: &[Added], directed: bool) -> BTreeMap<(u32, u32), f32> {
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

    /// Builds `edges` on `threads` threads and checks the graph against
    /// [`model`]: sorted, deduplicated, first-weight and free of
    /// self-loops, a directed graph's in-CSR exactly the transpose of
    /// its out-CSR, and an undirected graph storing each edge twice.
    /// Also checks it equals the one-thread build byte for byte.
    fn check_build(
        edges: &[Added],
        directed: bool,
        reserve: usize,
        threads: usize,
    ) -> Result<(), TestCaseError> {
        let mut b = if directed {
            GraphBuilder::directed()
        } else {
            GraphBuilder::undirected()
        };
        for &(s, d, w) in edges {
            match w {
                Some(w) => b.add_weighted_edge(VertexId(s), VertexId(d), w),
                None => b.add_edge(VertexId(s), VertexId(d)),
            };
        }
        b.reserve_vertices(reserve);
        let g = b.clone().build_on(threads);

        let top = edges
            .iter()
            .map(|&(s, d, _)| s.max(d) + 1)
            .max()
            .unwrap_or(0);
        prop_assert_eq!(g.num_vertices(), reserve.max(top as usize));
        prop_assert_eq!(g.has_weights(), edges.iter().any(|e| e.2.is_some()));
        let want: Vec<(u32, u32, f32)> = model(edges, directed)
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
            let mut transpose: Vec<(u32, u32, f32)> = triples(out)
                .into_iter()
                .map(|(s, d, w)| (d, s, w))
                .collect();
            transpose.sort_by_key(|&(d, s, _)| (d, s));
            prop_assert_eq!(triples(g.csr(EdgeDir::In)), transpose);
            prop_assert_eq!(g.csr(EdgeDir::In).has_weights(), g.has_weights());
        }
        prop_assert!(g == b.build_on(1), "{threads} threads built another graph");
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random edge lists with duplicates in both orientations,
        /// self-loops and mixed weighted / unweighted adds, built on
        /// 1–8 threads, pass [`check_build`]. A quarter of the lists
        /// spread over up to 10,000 vertices, so a pass cuts its keys
        /// into several ranges per thread and coarse buckets of
        /// several keys.
        #[test]
        fn build_matches_a_first_weight_model(
            seed in any::<u64>(),
            directed in any::<bool>(),
            weighted in any::<bool>(),
            reserve in 0usize..48,
            threads in 1usize..9,
        ) {
            let mut rng = TestRng::deterministic("build_model", seed as u32);
            let top = if rng.below(4) == 0 { 10_000 } else { 40 };
            let span = 1 + rng.below(top) as u32;
            let mut edges: Vec<Added> = Vec::new();
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
            check_build(&edges, directed, reserve, threads)?;
        }
    }

    /// The shapes a random list rarely is, on every thread count from 1
    /// to 8: no edge at all, only self-loops, fewer edges than threads,
    /// and weighted duplicates whose later weights must lose.
    #[test]
    fn thread_count_never_changes_a_graph() {
        let w = |s, d, w| (s, d, Some(w));
        let shapes: [(&str, Vec<Added>, usize); 5] = [
            ("empty", vec![], 0),
            ("empty, 5 reserved", vec![], 5),
            (
                "self-loops",
                vec![(0, 0, None), (3, 3, None), (3, 3, None)],
                0,
            ),
            ("3 edges", vec![(2, 0, None), (0, 1, None), (1, 2, None)], 0),
            (
                "weighted duplicates",
                vec![
                    w(0, 1, 1.0),
                    w(1, 0, 2.0),
                    w(0, 1, 3.0),
                    (0, 1, None),
                    w(2, 1, 4.0),
                    w(2, 1, 5.0),
                ],
                0,
            ),
        ];
        for (name, edges, reserve) in &shapes {
            for directed in [true, false] {
                for threads in 1..=8 {
                    check_build(edges, directed, *reserve, threads).unwrap_or_else(|e| {
                        panic!("{name}, directed {directed}, {threads} threads: {e}")
                    });
                }
            }
        }
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    #[should_panic(expected = "cannot reserve 4294967297 vertices")]
    fn reserving_past_the_u32_id_space_panics() {
        // 2^32 vertices use every u32 id; one more cannot be named. The
        // builder only records the largest id, so neither call allocates.
        let mut b = GraphBuilder::directed();
        b.reserve_vertices(1 << 32);
        b.reserve_vertices((1 << 32) + 1);
    }
}
