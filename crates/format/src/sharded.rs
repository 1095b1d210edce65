//! Global routing over a sharded image: one [`GraphIndex`] per shard
//! plus the contiguous vertex-range bounds the shards were written
//! with ([`crate::shard_bounds`]).
//!
//! A shard image indexes its vertices *locally* (global vertex
//! `bounds[s] + i` is local id `i` of shard `s`), so every byte
//! offset a shard's index produces is an offset into that shard's own
//! array/mount. [`ShardedIndex`] is the seam that hides this: it
//! routes a global [`VertexId`] to `(shard, local location)` and
//! mirrors the [`GraphIndex`] query surface — `degree`,
//! `locate_slice`, `locate_attrs_range` — with the shard made
//! explicit in the return value, since the caller must direct the
//! read at the right mount.

use std::ops::Range;
use std::sync::Arc;

use fg_ssdsim::SsdArray;
use fg_types::{EdgeDir, FgError, Result, VertexId};

use crate::image::{load_index, ImageMeta};
use crate::index::{EdgeListLoc, GraphIndex, ListSlice};

/// Routes global vertex ids across the per-shard indexes of a sharded
/// image (see [`crate::write_sharded_image`]).
#[derive(Debug, Clone)]
pub struct ShardedIndex {
    /// `shards + 1` ascending global bounds; shard `s` owns
    /// `bounds[s]..bounds[s + 1]`.
    bounds: Vec<u32>,
    shards: Vec<Arc<GraphIndex>>,
}

impl ShardedIndex {
    /// Assembles the router from already-loaded shard indexes, in
    /// shard order. Bounds are reconstructed from each shard's vertex
    /// count — the count is the only extra fact a shard image needs
    /// to rejoin the global id space.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is empty, the shards disagree on
    /// directedness, or the total vertex count exceeds the `u32` id
    /// space.
    pub fn new(shards: Vec<Arc<GraphIndex>>) -> Self {
        assert!(!shards.is_empty(), "at least one shard");
        let directed = shards[0].is_directed();
        let mut bounds = Vec::with_capacity(shards.len() + 1);
        let mut at = 0u64;
        bounds.push(0);
        for idx in &shards {
            assert_eq!(idx.is_directed(), directed, "shards disagree on direction");
            at += idx.num_vertices() as u64;
            assert!(at <= u32::MAX as u64, "sharded image exceeds u32 id space");
            bounds.push(at as u32);
        }
        ShardedIndex { bounds, shards }
    }

    /// Loads every shard's index from its array (in shard order) and
    /// assembles the router.
    ///
    /// # Errors
    ///
    /// Propagates [`load_index`] failures of any shard.
    pub fn load(arrays: &[SsdArray]) -> Result<(Vec<ImageMeta>, ShardedIndex)> {
        let mut metas = Vec::with_capacity(arrays.len());
        let mut shards = Vec::with_capacity(arrays.len());
        for array in arrays {
            let (meta, index) = load_index(array)?;
            metas.push(meta);
            shards.push(Arc::new(index));
        }
        let flags = |m: &ImageMeta| (m.directed, m.weighted, m.format);
        if metas.windows(2).any(|w| flags(&w[0]) != flags(&w[1])) {
            let why = "shards disagree on image flags/format";
            return Err(FgError::CorruptImage(why.into()));
        }
        Ok((metas, ShardedIndex::new(shards)))
    }

    /// Number of shards.
    #[inline]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total vertices across all shards.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        *self.bounds.last().unwrap() as usize
    }

    /// Whether the image carries in-edge lists.
    #[inline]
    pub fn is_directed(&self) -> bool {
        self.shards[0].is_directed()
    }

    /// Global id range shard `s` owns.
    #[inline]
    pub fn shard_range(&self, s: usize) -> Range<u32> {
        self.bounds[s]..self.bounds[s + 1]
    }

    /// One shard's local index.
    #[inline]
    pub fn shard(&self, s: usize) -> &Arc<GraphIndex> {
        &self.shards[s]
    }

    /// The shard owning global vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn shard_of(&self, v: VertexId) -> usize {
        assert!(
            (v.0 as usize) < self.num_vertices(),
            "{v} out of sharded image of {} vertices",
            self.num_vertices()
        );
        // A single mount is the one-shard image, and its every request
        // routes through here: nothing to search for.
        if self.shards.len() == 1 {
            return 0;
        }
        // bounds is ascending with bounds[0] == 0: the owning shard is
        // the last bound <= v.
        self.bounds.partition_point(|&b| b <= v.0) - 1
    }

    /// Routes `v` to `(shard, local id within that shard)`.
    #[inline]
    pub fn local(&self, v: VertexId) -> (usize, VertexId) {
        let s = self.shard_of(v);
        (s, VertexId(v.0 - self.bounds[s]))
    }

    /// Degree of global vertex `v` — any vertex, any shard (request
    /// clamping needs degrees of foreign subjects too).
    #[inline]
    pub fn degree(&self, v: VertexId, dir: EdgeDir) -> u64 {
        let (s, local) = self.local(v);
        self.shards[s].degree(local, dir)
    }

    /// [`GraphIndex::locate_slice`] of global `v`, with the shard the
    /// returned byte range lives on.
    #[inline]
    pub fn locate_slice(
        &self,
        v: VertexId,
        dir: EdgeDir,
        start: u64,
        len: u64,
    ) -> (usize, ListSlice) {
        let (s, local) = self.local(v);
        (s, self.shards[s].locate_slice(local, dir, start, len))
    }

    /// [`GraphIndex::locate_attrs_range`] of global `v`, with its
    /// shard.
    #[inline]
    pub fn locate_attrs_range(
        &self,
        v: VertexId,
        dir: EdgeDir,
        start: u64,
        len: u64,
    ) -> Option<(usize, EdgeListLoc)> {
        let (s, local) = self.local(v);
        self.shards[s]
            .locate_attrs_range(local, dir, start, len)
            .map(|loc| (s, loc))
    }

    /// Sum of the shard indexes' heap footprints.
    pub fn heap_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.heap_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::{
        read_list, required_capacity_with, required_shard_capacities, shard_bounds,
        write_image_with, write_sharded_image, ImageFormat, WriteOptions,
    };
    use fg_graph::{gen, Graph};
    use fg_ssdsim::ArrayConfig;

    fn shard_arrays(g: &Graph, opts: &WriteOptions, shards: usize) -> Vec<SsdArray> {
        required_shard_capacities(g, opts, shards)
            .into_iter()
            .map(|cap| SsdArray::new_mem(ArrayConfig::small_test(), cap.max(4096)).unwrap())
            .collect()
    }

    fn both_formats() -> [WriteOptions; 2] {
        [WriteOptions::default(), WriteOptions::compressed()]
    }

    #[test]
    fn shard_bounds_cover_evenly() {
        assert_eq!(shard_bounds(10, 3), vec![0, 4, 7, 10]);
        assert_eq!(shard_bounds(3, 4), vec![0, 1, 2, 3, 3]);
        assert_eq!(shard_bounds(0, 2), vec![0, 0, 0]);
        assert_eq!(shard_bounds(7, 1), vec![0, 7]);
    }

    #[test]
    fn sharded_image_round_trips_every_list() {
        let g = gen::rmat(8, 6, gen::RmatSkew::default(), 42);
        for opts in both_formats() {
            for shards in [1usize, 2, 3, 4] {
                let arrays = shard_arrays(&g, &opts, shards);
                let metas = write_sharded_image(&g, &arrays, &opts).unwrap();
                let (metas2, sharded) = ShardedIndex::load(&arrays).unwrap();
                assert_eq!(metas, metas2);
                assert_eq!(sharded.num_shards(), shards);
                assert_eq!(sharded.num_vertices(), g.num_vertices());
                for v in g.vertices() {
                    let (s, local) = sharded.local(v);
                    for dir in [EdgeDir::Out, EdgeDir::In] {
                        let want: Vec<u32> = match dir {
                            EdgeDir::Out => g.out_neighbors(v).iter().map(|n| n.0).collect(),
                            _ => g.in_neighbors(v).iter().map(|n| n.0).collect(),
                        };
                        assert_eq!(
                            sharded.degree(v, dir),
                            want.len() as u64,
                            "{v} {dir:?} degree"
                        );
                        let got =
                            read_list(&arrays[s], &metas[s], sharded.shard(s), local, dir).unwrap();
                        assert_eq!(
                            got, want,
                            "{v} {dir:?} ({:?}, {shards} shards)",
                            opts.format
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn one_shard_image_is_bitwise_the_unsharded_image() {
        let g = gen::rmat(7, 5, gen::RmatSkew::default(), 7);
        for opts in both_formats() {
            let single =
                SsdArray::new_mem(ArrayConfig::small_test(), required_capacity_with(&g, &opts))
                    .unwrap();
            let meta = write_image_with(&g, &single, &opts).unwrap();
            let arrays = shard_arrays(&g, &opts, 1);
            let metas = write_sharded_image(&g, &arrays, &opts).unwrap();
            assert_eq!(metas[0], meta);
            let mut a = vec![0u8; meta.total_bytes as usize];
            let mut b = vec![0u8; meta.total_bytes as usize];
            single.read(0, &mut a).unwrap();
            arrays[0].read(0, &mut b).unwrap();
            assert_eq!(a, b, "1-shard image differs from the unsharded write");
        }
    }

    #[test]
    fn shard_extents_reassemble_the_global_extent() {
        // `locate_extent` over each shard's full local range must
        // account for exactly the edges of its global vertex range.
        let g = gen::rmat(8, 4, gen::RmatSkew::default(), 11);
        let opts = WriteOptions::compressed();
        let arrays = shard_arrays(&g, &opts, 3);
        write_sharded_image(&g, &arrays, &opts).unwrap();
        let (_, sharded) = ShardedIndex::load(&arrays).unwrap();
        let mut total_edges = 0u64;
        for s in 0..sharded.num_shards() {
            let range = sharded.shard_range(s);
            let count = u64::from(range.end - range.start);
            let extent = sharded
                .shard(s)
                .locate_extent(VertexId(0), count, EdgeDir::Out);
            total_edges += extent.degree;
        }
        assert_eq!(total_edges, g.csr(EdgeDir::Out).num_edges());
    }

    #[test]
    fn compressed_shards_stay_compressed() {
        // Large enough that edge sections dominate the per-shard
        // section-alignment overhead.
        let g = gen::rmat(10, 16, gen::RmatSkew::default(), 3);
        let opts = WriteOptions::compressed();
        let arrays = shard_arrays(&g, &opts, 2);
        let metas = write_sharded_image(&g, &arrays, &opts).unwrap();
        for m in &metas {
            assert_eq!(m.format, ImageFormat::Compressed);
        }
        let raw: u64 = required_shard_capacities(&g, &WriteOptions::default(), 2)
            .iter()
            .sum();
        let v2: u64 = metas.iter().map(|m| m.total_bytes).sum();
        assert!(v2 < raw, "compressed shards {v2} not below raw {raw}");
    }

    #[test]
    fn shard_of_routes_bounds_exactly() {
        let g = gen::rmat(6, 4, gen::RmatSkew::default(), 9);
        let arrays = shard_arrays(&g, &WriteOptions::default(), 4);
        write_sharded_image(&g, &arrays, &WriteOptions::default()).unwrap();
        let (_, sharded) = ShardedIndex::load(&arrays).unwrap();
        for s in 0..sharded.num_shards() {
            let r = sharded.shard_range(s);
            if r.is_empty() {
                continue;
            }
            assert_eq!(sharded.shard_of(VertexId(r.start)), s);
            assert_eq!(sharded.shard_of(VertexId(r.end - 1)), s);
            assert_eq!(sharded.local(VertexId(r.start)), (s, VertexId(0)));
        }
    }
}
