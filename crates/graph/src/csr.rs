//! Compressed-sparse-row adjacency and the [`Graph`] container.

use fg_types::{EdgeDir, FgError, Result, VertexId};

/// One direction of adjacency in compressed-sparse-row form.
///
/// `offsets` has `n + 1` entries; the neighbours of vertex `v` are
/// `neighbors[offsets[v]..offsets[v + 1]]`, sorted by id. Optional
/// per-edge `weights` run parallel to `neighbors` — they model
/// FlashGraph's *edge attributes*, which the on-SSD format stores
/// separately from the edges themselves (§3.5.2).
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    offsets: Vec<u64>,
    neighbors: Vec<VertexId>,
    weights: Option<Vec<f32>>,
}

impl Csr {
    /// Builds a CSR from raw parts.
    ///
    /// # Errors
    ///
    /// Returns [`FgError::CorruptImage`] when the parts are
    /// inconsistent: `offsets` empty or not monotone, the last offset
    /// not equal to `neighbors.len()`, or `weights` of a different
    /// length than `neighbors`.
    pub fn from_parts(
        offsets: Vec<u64>,
        neighbors: Vec<VertexId>,
        weights: Option<Vec<f32>>,
    ) -> Result<Self> {
        if offsets.is_empty() {
            return Err(FgError::CorruptImage("csr offsets empty".into()));
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(FgError::CorruptImage("csr offsets not monotone".into()));
        }
        if *offsets.last().unwrap() != neighbors.len() as u64 {
            return Err(FgError::CorruptImage(format!(
                "csr last offset {} != neighbor count {}",
                offsets.last().unwrap(),
                neighbors.len()
            )));
        }
        if let Some(w) = &weights {
            if w.len() != neighbors.len() {
                return Err(FgError::CorruptImage(format!(
                    "csr weight count {} != neighbor count {}",
                    w.len(),
                    neighbors.len()
                )));
            }
        }
        Ok(Csr {
            offsets,
            neighbors,
            weights,
        })
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of stored (directed) edges.
    #[inline]
    pub fn num_edges(&self) -> u64 {
        *self.offsets.last().unwrap()
    }

    /// Degree of `v` in this direction.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        let i = v.index();
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// Neighbour slice of `v`, sorted ascending.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let i = v.index();
        &self.neighbors[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Weight slice parallel to [`Csr::neighbors`], if this graph has
    /// edge attributes.
    #[inline]
    pub fn weights_of(&self, v: VertexId) -> Option<&[f32]> {
        let w = self.weights.as_ref()?;
        let i = v.index();
        Some(&w[self.offsets[i] as usize..self.offsets[i + 1] as usize])
    }

    /// Whether edge attributes are attached.
    #[inline]
    pub fn has_weights(&self) -> bool {
        self.weights.is_some()
    }

    /// The raw offset array (`n + 1` entries).
    #[inline]
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// The raw neighbour array.
    #[inline]
    pub fn neighbor_array(&self) -> &[VertexId] {
        &self.neighbors
    }

    /// The raw weight array parallel to [`Csr::neighbor_array`], if any.
    #[inline]
    pub fn weight_array(&self) -> Option<&[f32]> {
        self.weights.as_deref()
    }

    /// Heap bytes held by this CSR (used for memory-footprint rows in
    /// the evaluation tables).
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of_val;
        size_of_val(&self.offsets[..])
            + size_of_val(&self.neighbors[..])
            + self.weights.as_deref().map_or(0, size_of_val)
    }
}

/// An in-memory graph: out-adjacency always present, in-adjacency for
/// directed graphs.
///
/// Undirected graphs store each edge in both endpoints' lists of the
/// single (out) CSR, matching how FlashGraph stores an undirected
/// vertex's single edge list.
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    directed: bool,
    out: Csr,
    in_: Option<Csr>,
}

impl Graph {
    /// Wraps CSR parts into a graph.
    ///
    /// # Errors
    ///
    /// Returns [`FgError::CorruptImage`] if a directed graph's two
    /// CSRs disagree on vertex count or total edge count, or if an
    /// in-CSR is supplied for an undirected graph.
    pub fn from_csr(directed: bool, out: Csr, in_: Option<Csr>) -> Result<Self> {
        match (&in_, directed) {
            (Some(i), true) => {
                if i.num_vertices() != out.num_vertices() {
                    return Err(FgError::CorruptImage(format!(
                        "in/out vertex counts differ: {} vs {}",
                        i.num_vertices(),
                        out.num_vertices()
                    )));
                }
                if i.num_edges() != out.num_edges() {
                    return Err(FgError::CorruptImage(format!(
                        "in/out edge counts differ: {} vs {}",
                        i.num_edges(),
                        out.num_edges()
                    )));
                }
            }
            (None, true) => {
                return Err(FgError::CorruptImage(
                    "directed graph missing in-adjacency".into(),
                ))
            }
            (Some(_), false) => {
                return Err(FgError::CorruptImage(
                    "undirected graph must not carry a separate in-adjacency".into(),
                ))
            }
            (None, false) => {}
        }
        Ok(Graph { directed, out, in_ })
    }

    /// Whether the graph is directed.
    #[inline]
    pub fn is_directed(&self) -> bool {
        self.directed
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.out.num_vertices()
    }

    /// Number of edges: directed edge count, or undirected edge count
    /// (each undirected edge counted once).
    #[inline]
    pub fn num_edges(&self) -> u64 {
        if self.directed {
            self.out.num_edges()
        } else {
            self.out.num_edges() / 2
        }
    }

    /// The adjacency for `dir`.
    ///
    /// For undirected graphs every direction resolves to the single
    /// symmetric adjacency.
    ///
    /// # Panics
    ///
    /// Panics when asked for [`EdgeDir::Both`]; call once per single
    /// direction instead.
    #[inline]
    pub fn csr(&self, dir: EdgeDir) -> &Csr {
        if !self.directed {
            return &self.out;
        }
        match dir {
            EdgeDir::Out => &self.out,
            EdgeDir::In => self.in_.as_ref().expect("directed graph has in-adjacency"),
            EdgeDir::Both => panic!("csr(Both) is ambiguous; query one direction"),
        }
    }

    /// Out-neighbours of `v` (all neighbours for undirected graphs).
    #[inline]
    pub fn out_neighbors(&self, v: VertexId) -> &[VertexId] {
        self.out.neighbors(v)
    }

    /// In-neighbours of `v` (all neighbours for undirected graphs).
    #[inline]
    pub fn in_neighbors(&self, v: VertexId) -> &[VertexId] {
        self.csr(EdgeDir::In).neighbors(v)
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> usize {
        self.out.degree(v)
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: VertexId) -> usize {
        self.csr(EdgeDir::In).degree(v)
    }

    /// Iterates over every vertex id.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> {
        (0..self.num_vertices() as u32).map(VertexId)
    }

    /// Iterates over every directed edge `(src, dst)` of the out
    /// adjacency (for undirected graphs each edge appears twice, once
    /// per orientation).
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.vertices()
            .flat_map(move |src| self.out_neighbors(src).iter().map(move |&dst| (src, dst)))
    }

    /// Heap bytes held by the adjacency arrays.
    pub fn heap_bytes(&self) -> usize {
        self.out.heap_bytes() + self.in_.as_ref().map(Csr::heap_bytes).unwrap_or(0)
    }

    /// Whether the graph carries edge weights (attributes).
    pub fn has_weights(&self) -> bool {
        self.out.has_weights()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_directed() -> Graph {
        // 0 -> 1, 0 -> 2, 2 -> 1
        let out = Csr::from_parts(
            vec![0, 2, 2, 3],
            vec![VertexId(1), VertexId(2), VertexId(1)],
            None,
        )
        .unwrap();
        let in_ = Csr::from_parts(
            vec![0, 0, 2, 3],
            vec![VertexId(0), VertexId(2), VertexId(0)],
            None,
        )
        .unwrap();
        Graph::from_csr(true, out, in_.into()).unwrap()
    }

    #[test]
    fn degrees_and_neighbors() {
        let g = tiny_directed();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.out_degree(VertexId(0)), 2);
        assert_eq!(g.in_degree(VertexId(1)), 2);
        assert_eq!(g.out_neighbors(VertexId(2)), &[VertexId(1)]);
        assert_eq!(g.in_neighbors(VertexId(2)), &[VertexId(0)]);
    }

    #[test]
    fn edges_iterator_yields_all() {
        let g = tiny_directed();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(
            edges,
            vec![
                (VertexId(0), VertexId(1)),
                (VertexId(0), VertexId(2)),
                (VertexId(2), VertexId(1)),
            ]
        );
    }

    #[test]
    fn lists_iterate_per_vertex_slices() {
        let c = Csr::from_parts(
            vec![0, 2, 2, 3],
            vec![VertexId(1), VertexId(2), VertexId(0)],
            None,
        )
        .unwrap();
        let lists: Vec<Vec<u32>> = (0..3)
            .map(|v| c.neighbors(VertexId(v)).iter().map(|v| v.0).collect())
            .collect();
        assert_eq!(lists, vec![vec![1, 2], vec![], vec![0]]);
    }

    #[test]
    fn csr_rejects_non_monotone_offsets() {
        let err = Csr::from_parts(vec![0, 2, 1], vec![VertexId(0), VertexId(1)], None);
        assert!(err.is_err());
    }

    #[test]
    fn csr_rejects_mismatched_total() {
        let err = Csr::from_parts(vec![0, 1], vec![], None);
        assert!(err.is_err());
    }

    #[test]
    fn csr_rejects_mismatched_weights() {
        let err = Csr::from_parts(vec![0, 1], vec![VertexId(0)], Some(vec![1.0, 2.0]));
        assert!(err.is_err());
    }

    #[test]
    fn graph_rejects_inconsistent_directions() {
        let out = Csr::from_parts(vec![0, 1], vec![VertexId(0)], None).unwrap();
        let in_ = Csr::from_parts(vec![0, 0, 0], vec![], None).unwrap();
        assert!(Graph::from_csr(true, out, Some(in_)).is_err());
    }

    #[test]
    fn directed_graph_requires_in_adjacency() {
        let out = Csr::from_parts(vec![0, 1], vec![VertexId(0)], None).unwrap();
        assert!(Graph::from_csr(true, out, None).is_err());
    }

    #[test]
    fn undirected_counts_each_edge_once() {
        // 0 -- 1 stored symmetrically.
        let sym = Csr::from_parts(vec![0, 1, 2], vec![VertexId(1), VertexId(0)], None).unwrap();
        let g = Graph::from_csr(false, sym, None).unwrap();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.in_neighbors(VertexId(0)), g.out_neighbors(VertexId(0)));
    }

    #[test]
    fn weights_run_parallel_to_neighbors() {
        let out = Csr::from_parts(
            vec![0, 2, 2],
            vec![VertexId(0), VertexId(1)],
            Some(vec![0.5, 2.5]),
        )
        .unwrap();
        assert_eq!(out.weights_of(VertexId(0)), Some(&[0.5f32, 2.5][..]));
        assert_eq!(out.weights_of(VertexId(1)), Some(&[][..]));
    }

    #[test]
    fn heap_bytes_counts_arrays() {
        let g = tiny_directed();
        // 2 csrs, each 4 offsets (u64) + 3 neighbors (u32).
        assert_eq!(g.heap_bytes(), 2 * (4 * 8 + 3 * 4));
    }
}
