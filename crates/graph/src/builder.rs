//! Incremental construction of [`Graph`]s from edge streams.

use fg_types::VertexId;

use crate::csr::{Csr, Graph};

/// Accumulates edges and produces a [`Graph`].
///
/// The builder tolerates edges in any order, duplicate edges, and
/// self-loops; [`GraphBuilder::build`] sorts adjacency lists,
/// deduplicates parallel edges (keeping the first weight seen), and
/// drops self-loops unless [`GraphBuilder::keep_self_loops`] was
/// called. Real-world crawl datasets contain all three artifacts, so
/// ingestion must not choke on them.
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
    keep_self_loops: bool,
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
            keep_self_loops: false,
            weighted: false,
            edges: Vec::new(),
            max_vertex: None,
        }
    }

    /// Keeps self-loops instead of dropping them at build time.
    pub fn keep_self_loops(&mut self) -> &mut Self {
        self.keep_self_loops = true;
        self
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
        for (s, d) in iter {
            self.push(s, d, 1.0);
        }
        self
    }

    /// Builds the graph, consuming nothing (the builder can be reused
    /// after `clone`). Adjacency lists come out sorted by neighbour id
    /// with parallel edges deduplicated.
    pub fn build(&self) -> Graph {
        let n = self.max_vertex.map_or(0, |m| m as usize + 1);
        let mut fwd: Vec<(VertexId, VertexId, f32)> = Vec::with_capacity(self.edges.len());
        for &(s, d, w) in &self.edges {
            if s == d && !self.keep_self_loops {
                continue;
            }
            fwd.push((s, d, w));
            if !self.directed && s != d {
                fwd.push((d, s, w));
            } // self-loop kept: single symmetric entry
        }
        let out = csr_from_sorted(n, &mut fwd, self.weighted);
        if self.directed {
            let mut rev: Vec<(VertexId, VertexId, f32)> =
                fwd.iter().map(|&(s, d, w)| (d, s, w)).collect();
            let in_ = csr_from_sorted(n, &mut rev, self.weighted);
            // fwd was deduped inside csr_from_sorted; rebuild in-CSR
            // from the deduped out-CSR to keep edge counts equal.
            let in_ = if in_.num_edges() == out.num_edges() {
                in_
            } else {
                let mut rev: Vec<(VertexId, VertexId, f32)> = Vec::new();
                for v in 0..n {
                    let vid = VertexId::from_index(v);
                    let ws = out.weights_of(vid);
                    for (k, &d) in out.neighbors(vid).iter().enumerate() {
                        let w = ws.map(|w| w[k]).unwrap_or(1.0);
                        rev.push((d, vid, w));
                    }
                }
                csr_from_sorted(n, &mut rev, self.weighted)
            };
            Graph::from_csr(true, out, Some(in_)).expect("builder output consistent")
        } else {
            Graph::from_csr(false, out, None).expect("builder output consistent")
        }
    }
}

/// Sorts an edge triple list by `(src, dst)`, dedups, and packs a CSR.
fn csr_from_sorted(n: usize, edges: &mut Vec<(VertexId, VertexId, f32)>, weighted: bool) -> Csr {
    edges.sort_unstable_by_key(|&(s, d, _)| (s, d));
    edges.dedup_by_key(|&mut (s, d, _)| (s, d));
    let mut offsets = vec![0u64; n + 1];
    for &(s, _, _) in edges.iter() {
        offsets[s.index() + 1] += 1;
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    let neighbors: Vec<VertexId> = edges.iter().map(|&(_, d, _)| d).collect();
    let weights = weighted.then(|| edges.iter().map(|&(_, _, w)| w).collect());
    Csr::from_parts(offsets, neighbors, weights).expect("constructed offsets are consistent")
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn self_loops_kept_on_request() {
        let mut b = GraphBuilder::directed();
        b.keep_self_loops();
        b.add_edge(VertexId(1), VertexId(1));
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.out_neighbors(VertexId(1)), &[VertexId(1)]);
        assert_eq!(g.in_neighbors(VertexId(1)), &[VertexId(1)]);
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
    fn undirected_self_loop_kept_single_entry() {
        let mut b = GraphBuilder::undirected();
        b.keep_self_loops();
        b.add_edge(VertexId(2), VertexId(2));
        let g = b.build();
        assert_eq!(g.out_neighbors(VertexId(2)), &[VertexId(2)]);
    }
}
