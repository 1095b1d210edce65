//! The compact in-memory graph index (§3.5.1 of the paper).

use std::collections::HashMap;

use fg_types::{EdgeDir, VertexId};

use crate::codec::{skip_entries, RAW_LIST_FLAG};

/// Degrees at or above this value overflow into a hash table; the
/// per-vertex byte then holds [`u8::MAX`] as a sentinel. Real-world
/// power-law graphs put only a tiny fraction of vertices there.
pub const LARGE_DEGREE: u64 = 255;

/// An explicit byte offset is stored once per this many vertices; the
/// paper found 32 makes the recomputation overhead "almost
/// unnoticeable while the amortized memory overhead is small".
pub const CHECKPOINT_INTERVAL: usize = 32;

/// Location of one vertex's edge list inside the on-SSD image.
///
/// For raw (v1) images `bytes` is always `4 * degree`. For compressed
/// (v2) images it is the vertex's *block* length — codec framing
/// included — and `degree` still counts edges, so the two fields are
/// no longer proportional; code that needs to know how a fetched
/// range decodes uses [`GraphIndex::locate_slice`], which pairs the
/// location with a [`SliceDecode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeListLoc {
    /// Absolute byte offset of the first edge.
    pub offset: u64,
    /// Length in bytes of the edge list.
    pub bytes: u64,
    /// Number of edges in the list.
    pub degree: u64,
}

/// How the bytes of a located slice turn back into neighbour ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SliceDecode {
    /// Little-endian `u32` per edge; byte `4 * i` starts edge `i`.
    Raw,
    /// A delta-varint stream (see [`crate::codec`]); decoding starts
    /// at a restart point and skips forward to the requested range.
    Varint(VarintSlice),
}

/// Decode parameters for one varint-compressed slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VarintSlice {
    /// Bytes of skip-table framing at the start of the fetched range
    /// (non-zero only for whole-block fetches).
    pub header_bytes: u32,
    /// Full-list position of the first varint after the header —
    /// always a restart position, so decoding may begin there.
    pub stream_pos: u64,
    /// Edges to decode and discard before the delivered range starts.
    pub skip: u64,
    /// Restart interval `k` the block was encoded with.
    pub k: u32,
}

/// A located slice: the device byte range to fetch plus how to decode
/// it. `loc.degree` counts the edges the slice *delivers* (after the
/// decoder's skip), which is what request accounting uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ListSlice {
    /// Byte range on the device.
    pub loc: EdgeListLoc,
    /// Decode recipe for the fetched bytes.
    pub decode: SliceDecode,
}

/// Compressed-image per-direction extension: on-disk block lengths
/// (offsets are no longer `4 * degree` sums) and the payload skip
/// tables of hub lists.
#[derive(Debug, Clone, Default)]
struct PackedDir {
    /// Per-vertex block length in bytes; top bit ([`RAW_LIST_FLAG`])
    /// marks a raw-encoded block.
    blocks: Vec<u32>,
    /// Payload-relative restart offsets of large-degree compressed
    /// lists (entry `m - 1` = byte offset of the restart at position
    /// `m * k`), keyed by vertex id. Loaded at init so ranged hub
    /// requests resolve byte subranges without reading a prefix.
    skips: HashMap<u32, Box<[u32]>>,
}

/// Per-direction compact index: degrees + sparse offset checkpoints.
#[derive(Debug, Clone)]
struct DirIndex {
    /// One byte per vertex; `u8::MAX` redirects to `large`.
    small_degrees: Vec<u8>,
    /// `(id, degree)` of the vertices with degree >= [`LARGE_DEGREE`],
    /// in id order — `degree` binary-searches it for every hub a
    /// locate walks past.
    large: Vec<(u32, u64)>,
    /// Absolute byte offset of the edge list of vertex
    /// `i * CHECKPOINT_INTERVAL`.
    checkpoints: Vec<u64>,
    /// Start of this direction's attribute section, if weighted.
    attr_base: Option<u64>,
    /// Start of this direction's edge section (for attr offset math).
    edge_base: u64,
    /// Compressed-image extension; `None` for raw images, where block
    /// length is always `degree * edge_width`.
    packed: Option<PackedDir>,
}

impl DirIndex {
    fn build(degrees: &[u64], edge_base: u64, attr_base: Option<u64>, edge_width: u64) -> Self {
        Self::build_inner(degrees, edge_base, attr_base, |_, d| d * edge_width)
    }

    fn build_packed(
        degrees: &[u64],
        blocks: Vec<u32>,
        skips: HashMap<u32, Box<[u32]>>,
        edge_base: u64,
        attr_base: Option<u64>,
    ) -> Self {
        assert_eq!(
            degrees.len(),
            blocks.len(),
            "one block length per vertex required"
        );
        let packed = PackedDir { blocks, skips };
        let mut built = Self::build_inner(degrees, edge_base, attr_base, |i, _| {
            (packed.blocks[i] & !RAW_LIST_FLAG) as u64
        });
        built.packed = Some(packed);
        built
    }

    fn build_inner(
        degrees: &[u64],
        edge_base: u64,
        attr_base: Option<u64>,
        block_len: impl Fn(usize, u64) -> u64,
    ) -> Self {
        let mut small_degrees = Vec::with_capacity(degrees.len());
        let mut large = Vec::new();
        let mut checkpoints =
            Vec::with_capacity(degrees.len().div_ceil(CHECKPOINT_INTERVAL).max(1));
        let mut offset = edge_base;
        for (i, &d) in degrees.iter().enumerate() {
            if i % CHECKPOINT_INTERVAL == 0 {
                checkpoints.push(offset);
            }
            if d >= LARGE_DEGREE {
                small_degrees.push(u8::MAX);
                large.push((i as u32, d));
            } else {
                small_degrees.push(d as u8);
            }
            offset += block_len(i, d);
        }
        if degrees.is_empty() {
            checkpoints.push(edge_base);
        }
        DirIndex {
            small_degrees,
            large,
            checkpoints,
            attr_base,
            edge_base,
            packed: None,
        }
    }

    #[inline]
    fn degree(&self, v: VertexId) -> u64 {
        let b = self.small_degrees[v.index()];
        if b == u8::MAX {
            let at = self
                .large
                .binary_search_by_key(&v.0, |&(id, _)| id)
                .expect("a vertex marked large has its degree recorded");
            self.large[at].1
        } else {
            b as u64
        }
    }

    /// On-disk block length of `v`'s list in bytes.
    #[inline]
    fn block_bytes(&self, v: VertexId, edge_width: u64) -> u64 {
        match &self.packed {
            Some(p) => (p.blocks[v.index()] & !RAW_LIST_FLAG) as u64,
            None => self.degree(v) * edge_width,
        }
    }

    /// Whether `v`'s block is raw-encoded (always true on raw images).
    #[inline]
    fn is_raw(&self, v: VertexId) -> bool {
        match &self.packed {
            Some(p) => p.blocks[v.index()] & RAW_LIST_FLAG != 0,
            None => true,
        }
    }

    fn locate(&self, v: VertexId, edge_width: u64) -> EdgeListLoc {
        let i = v.index();
        let cp = i / CHECKPOINT_INTERVAL;
        let mut offset = self.checkpoints[cp];
        for j in (cp * CHECKPOINT_INTERVAL)..i {
            offset += self.block_bytes(VertexId::from_index(j), edge_width);
        }
        EdgeListLoc {
            offset,
            bytes: self.block_bytes(v, edge_width),
            degree: self.degree(v),
        }
    }

    fn heap_bytes(&self) -> usize {
        let packed = match &self.packed {
            Some(p) => {
                p.blocks.len() * std::mem::size_of::<u32>()
                    + p.skips
                        .values()
                        .map(|t| {
                            std::mem::size_of::<u32>() * (t.len() + 1)
                                + std::mem::size_of::<usize>()
                        })
                        .sum::<usize>()
            }
            None => 0,
        };
        self.small_degrees.len()
            + self.large.len() * (std::mem::size_of::<u32>() + std::mem::size_of::<u64>())
            + self.checkpoints.len() * std::mem::size_of::<u64>()
            + packed
    }
}

/// Per-direction inputs for [`GraphIndex::build_packed`].
pub struct PackedDirInput<'a> {
    /// Per-vertex degrees.
    pub degrees: &'a [u64],
    /// Per-vertex block lengths with [`RAW_LIST_FLAG`] top bits, as
    /// stored in the image's length section.
    pub blocks: Vec<u32>,
    /// In-memory skip tables of large compressed lists, keyed by
    /// vertex id.
    pub skips: HashMap<u32, Box<[u32]>>,
    /// Absolute byte offset of this direction's edge section.
    pub edge_base: u64,
    /// Absolute byte offset of this direction's attribute section
    /// (weighted images only — all their blocks must be raw).
    pub attr_base: Option<u64>,
}

/// The in-memory index over an on-SSD graph image.
///
/// Holds, per direction, one degree byte per vertex and one explicit
/// offset per [`CHECKPOINT_INTERVAL`] vertices. Everything else —
/// edge-list location, size, attribute location — is computed on
/// demand, trading a handful of adds for DRAM (§3.5.1: "we choose to
/// compute some vertex information at runtime").
///
/// Over a *compressed* (v2) image the index additionally holds each
/// vertex's on-disk block length (blocks are variable-length under
/// delta-varint encoding, so offsets can no longer be recomputed from
/// degrees) and the skip tables of hub lists; the extra cost is 4
/// bytes/vertex/direction — far below what the compressed image saves
/// in device reads.
#[derive(Debug, Clone)]
pub struct GraphIndex {
    num_vertices: usize,
    edge_width: u64,
    /// Restart interval of the image's compressed blocks; 0 on raw
    /// images.
    skip_k: u32,
    out: DirIndex,
    in_: Option<DirIndex>,
}

impl GraphIndex {
    /// Builds an index from per-direction degree arrays (raw images:
    /// every list is `degree * edge_width` bytes).
    ///
    /// `out_base`/`in_base` are the absolute byte offsets of the edge
    /// sections in the image; `attr` bases likewise for weighted
    /// graphs. `in_degrees` is `None` for undirected graphs.
    #[allow(clippy::too_many_arguments)]
    pub fn build(
        out_degrees: &[u64],
        in_degrees: Option<&[u64]>,
        edge_width: u64,
        out_base: u64,
        in_base: u64,
        out_attr_base: Option<u64>,
        in_attr_base: Option<u64>,
    ) -> Self {
        GraphIndex {
            num_vertices: out_degrees.len(),
            edge_width,
            skip_k: 0,
            out: DirIndex::build(out_degrees, out_base, out_attr_base, edge_width),
            in_: in_degrees.map(|d| DirIndex::build(d, in_base, in_attr_base, edge_width)),
        }
    }

    /// Builds an index over a compressed (v2) image from per-direction
    /// degrees, flagged block lengths, and hub skip tables. `k` is the
    /// restart interval the image was encoded with.
    pub fn build_packed(k: u32, out: PackedDirInput<'_>, in_: Option<PackedDirInput<'_>>) -> Self {
        assert!(k > 0, "compressed images need a positive skip interval");
        GraphIndex {
            num_vertices: out.degrees.len(),
            edge_width: 4,
            skip_k: k,
            out: DirIndex::build_packed(
                out.degrees,
                out.blocks,
                out.skips,
                out.edge_base,
                out.attr_base,
            ),
            in_: in_.map(|d| {
                DirIndex::build_packed(d.degrees, d.blocks, d.skips, d.edge_base, d.attr_base)
            }),
        }
    }

    /// Number of vertices indexed.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Whether the index covers a directed image (separate in-lists).
    #[inline]
    pub fn is_directed(&self) -> bool {
        self.in_.is_some()
    }

    /// Bytes per edge entry in *raw* lists (4: a `u32` neighbour id).
    #[inline]
    pub fn edge_width(&self) -> u64 {
        self.edge_width
    }

    /// The image's restart/skip interval in edges; 0 for raw images
    /// (the index then never produces [`SliceDecode::Varint`]).
    #[inline]
    pub fn skip_interval(&self) -> u32 {
        self.skip_k
    }

    fn dir(&self, dir: EdgeDir) -> &DirIndex {
        match (dir, &self.in_) {
            (EdgeDir::Out, _) | (_, None) => &self.out,
            (EdgeDir::In, Some(i)) => i,
            (EdgeDir::Both, _) => panic!("locate(Both) is ambiguous; query one direction"),
        }
    }

    /// Degree of `v` in `dir`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range or `dir` is [`EdgeDir::Both`].
    #[inline]
    pub fn degree(&self, v: VertexId, dir: EdgeDir) -> u64 {
        assert!(v.index() < self.num_vertices, "vertex {v} out of range");
        self.dir(dir).degree(v)
    }

    /// Locates the on-disk block of `v`'s edge list in `dir`: computes
    /// the offset from the nearest checkpoint by summing at most
    /// `CHECKPOINT_INTERVAL - 1` block lengths.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range or `dir` is [`EdgeDir::Both`].
    pub fn locate(&self, v: VertexId, dir: EdgeDir) -> EdgeListLoc {
        assert!(v.index() < self.num_vertices, "vertex {v} out of range");
        self.dir(dir).locate(v, self.edge_width)
    }

    /// Locates a *sub-range* of `v`'s edge list in `dir` — the device
    /// byte range plus decode recipe for edge positions
    /// `[start, start + len)`.
    ///
    /// The range is clamped to the list: `start` past the end yields a
    /// zero-byte location (callers complete such requests without
    /// I/O), and `len` is truncated at the list's last edge. This is
    /// the location primitive behind partial edge-list requests (the
    /// engine's `Request::edges(dir).range(start, len)`).
    ///
    /// On raw images (and raw-flagged blocks of compressed images) the
    /// byte range is exact: `4 * len` bytes at `4 * start` into the
    /// list. On a compressed block the range is aligned outward to the
    /// enclosing *restarts*: with the vertex's skip table resident
    /// (large-degree lists) at most `k - 1` extra edges decode at each
    /// end; without one the whole block is fetched and the decoder
    /// skips — such lists are small by construction (degree <
    /// [`LARGE_DEGREE`]), so the block rarely exceeds a page.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range or `dir` is [`EdgeDir::Both`].
    pub fn locate_slice(&self, v: VertexId, dir: EdgeDir, start: u64, len: u64) -> ListSlice {
        let d = self.dir(dir);
        let block = self.locate(v, dir);
        let start = start.min(block.degree);
        let len = len.min(block.degree - start);
        if d.is_raw(v) {
            // Raw blocks are positional whether the image is v1 or v2.
            return ListSlice {
                loc: EdgeListLoc {
                    offset: block.offset + start * self.edge_width,
                    bytes: len * self.edge_width,
                    degree: len,
                },
                decode: SliceDecode::Raw,
            };
        }
        let k = self.skip_k;
        debug_assert!(k > 0, "compressed block on an index without an interval");
        let n_skips = skip_entries(block.degree, k);
        let header = n_skips * 4;
        if len == 0 {
            return ListSlice {
                loc: EdgeListLoc {
                    offset: block.offset,
                    bytes: 0,
                    degree: 0,
                },
                decode: SliceDecode::Raw,
            };
        }
        if start == 0 && len == block.degree {
            // Whole list: fetch the whole block, skip its table.
            return ListSlice {
                loc: block,
                decode: SliceDecode::Varint(VarintSlice {
                    header_bytes: header as u32,
                    stream_pos: 0,
                    skip: 0,
                    k,
                }),
            };
        }
        let table = d.packed.as_ref().and_then(|p| p.skips.get(&v.0));
        match table {
            Some(table) => {
                // Restart-aligned subrange of the payload.
                debug_assert_eq!(table.len() as u64, n_skips, "table matches degree");
                let m0 = start / k as u64;
                let p0 = if m0 == 0 {
                    0
                } else {
                    table[m0 as usize - 1] as u64
                };
                let m1 = (start + len).div_ceil(k as u64);
                let p1 = if m1 > n_skips {
                    block.bytes - header
                } else {
                    table[m1 as usize - 1] as u64
                };
                ListSlice {
                    loc: EdgeListLoc {
                        offset: block.offset + header + p0,
                        bytes: p1 - p0,
                        degree: len,
                    },
                    decode: SliceDecode::Varint(VarintSlice {
                        header_bytes: 0,
                        stream_pos: m0 * k as u64,
                        skip: start - m0 * k as u64,
                        k,
                    }),
                }
            }
            None => ListSlice {
                // No resident table: fetch the block, decode-skip.
                loc: EdgeListLoc {
                    offset: block.offset,
                    bytes: block.bytes,
                    degree: len,
                },
                decode: SliceDecode::Varint(VarintSlice {
                    header_bytes: header as u32,
                    stream_pos: 0,
                    skip: start,
                    k,
                }),
            },
        }
    }

    /// The device byte range of [`GraphIndex::locate_slice`] without
    /// the decode recipe. On raw images this is the exact positional
    /// sub-range; on compressed images the range carries codec framing
    /// and `degree` counts *delivered* edges, not `bytes / 4`.
    pub fn locate_range(&self, v: VertexId, dir: EdgeDir, start: u64, len: u64) -> EdgeListLoc {
        self.locate_slice(v, dir, start, len).loc
    }

    /// Locates the contiguous byte extent covering the edge lists of
    /// the id-range `[first, first + count)` in `dir` — what a sweep
    /// of many lists at once reads: `read_graph_from` sizes a whole
    /// section with it and walks it in large sequential chunks instead
    /// of issuing one read per vertex.
    ///
    /// Edge lists are laid out in id order, so the extent runs from
    /// the first vertex's block to the end of the last vertex's block;
    /// `degree` reports the total number of edges inside it. The
    /// range is clamped to the vertex count, and an empty range
    /// yields a zero-byte location.
    pub fn locate_extent(&self, first: VertexId, count: u64, dir: EdgeDir) -> EdgeListLoc {
        let lo = first.index().min(self.num_vertices);
        let hi = (lo as u64 + count).min(self.num_vertices as u64) as usize;
        if lo >= hi {
            let offset = if lo < self.num_vertices {
                self.locate(VertexId::from_index(lo), dir).offset
            } else {
                self.dir(dir).edge_base
            };
            return EdgeListLoc {
                offset,
                bytes: 0,
                degree: 0,
            };
        }
        let start = self.locate(VertexId::from_index(lo), dir);
        let end = self.locate(VertexId::from_index(hi - 1), dir);
        let bytes = end.offset + end.bytes - start.offset;
        let degree = if self.skip_k == 0 {
            bytes / self.edge_width
        } else {
            // Variable-length blocks: bytes no longer imply an edge
            // count, so sum the degrees of the range.
            (lo..hi)
                .map(|i| self.dir(dir).degree(VertexId::from_index(i)))
                .sum()
        };
        EdgeListLoc {
            offset: start.offset,
            bytes,
            degree,
        }
    }

    /// Locates the attribute run parallel to `v`'s edge list, if the
    /// image carries attributes for `dir`.
    ///
    /// Attribute entries are 4 bytes (f32) like edges, so the run sits
    /// at the same relative offset inside the attribute section.
    /// (Weighted images keep every block raw — enforced at write and
    /// load — precisely so this positional correspondence holds.)
    pub fn locate_attrs(&self, v: VertexId, dir: EdgeDir) -> Option<EdgeListLoc> {
        let d = self.dir(dir);
        let attr_base = d.attr_base?;
        let edges = self.locate(v, dir);
        Some(EdgeListLoc {
            offset: attr_base + (edges.offset - d.edge_base),
            bytes: edges.bytes,
            degree: edges.degree,
        })
    }

    /// The attribute run parallel to [`GraphIndex::locate_range`]:
    /// attribute positions `[start, start + len)` of `v` in `dir`,
    /// clamped exactly like the edge sub-range (entries are 4 bytes on
    /// both sides, so the two sub-ranges stay in lockstep).
    pub fn locate_attrs_range(
        &self,
        v: VertexId,
        dir: EdgeDir,
        start: u64,
        len: u64,
    ) -> Option<EdgeListLoc> {
        let d = self.dir(dir);
        let attr_base = d.attr_base?;
        debug_assert!(
            d.is_raw(v),
            "attribute-bearing blocks are always raw-encoded"
        );
        let edges = self.locate_range(v, dir, start, len);
        Some(EdgeListLoc {
            offset: attr_base + (edges.offset - d.edge_base),
            bytes: edges.bytes,
            degree: edges.degree,
        })
    }

    /// Heap bytes of the index — the quantity behind the paper's
    /// "slightly more than 1.25 bytes per vertex (2.5 directed)"
    /// claim. Compressed images add their block-length tables (4
    /// bytes/vertex/direction) and hub skip tables on top.
    pub fn heap_bytes(&self) -> usize {
        self.out.heap_bytes() + self.in_.as_ref().map(DirIndex::heap_bytes).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq_base_index(degrees: &[u64]) -> GraphIndex {
        GraphIndex::build(degrees, None, 4, 1000, 0, None, None)
    }

    /// A packed index whose blocks/skip tables come straight from the
    /// codec, without an image behind them (offsets only).
    fn packed_index(lists: &[Vec<u32>], k: u32, load_skips: bool) -> GraphIndex {
        let degrees: Vec<u64> = lists.iter().map(|l| l.len() as u64).collect();
        let mut blocks = Vec::new();
        let mut skips = HashMap::new();
        let mut scratch = Vec::new();
        for (i, l) in lists.iter().enumerate() {
            scratch.clear();
            if crate::codec::encode_list(l, k, &mut scratch) {
                blocks.push(scratch.len() as u32);
                let n = skip_entries(l.len() as u64, k) as usize;
                if load_skips && n > 0 {
                    let table: Box<[u32]> = (0..n)
                        .map(|e| u32::from_le_bytes(scratch[e * 4..e * 4 + 4].try_into().unwrap()))
                        .collect();
                    skips.insert(i as u32, table);
                }
            } else {
                blocks.push((l.len() as u32 * 4) | RAW_LIST_FLAG);
            }
        }
        GraphIndex::build_packed(
            k,
            PackedDirInput {
                degrees: &degrees,
                blocks,
                skips,
                edge_base: 1000,
                attr_base: None,
            },
            None,
        )
    }

    #[test]
    fn locate_sums_degrees_from_checkpoint() {
        let degrees = vec![3u64, 0, 5, 2, 1];
        let idx = seq_base_index(&degrees);
        let mut expect = 1000u64;
        for (i, &d) in degrees.iter().enumerate() {
            let loc = idx.locate(VertexId(i as u32), EdgeDir::Out);
            assert_eq!(loc.offset, expect, "vertex {i}");
            assert_eq!(loc.degree, d);
            assert_eq!(loc.bytes, d * 4);
            expect += d * 4;
        }
    }

    #[test]
    fn checkpoints_every_interval() {
        // 100 vertices of degree 2: offsets should be exact at every
        // checkpoint without scanning.
        let degrees = vec![2u64; 100];
        let idx = seq_base_index(&degrees);
        for i in (0..100).step_by(CHECKPOINT_INTERVAL) {
            let loc = idx.locate(VertexId(i as u32), EdgeDir::Out);
            assert_eq!(loc.offset, 1000 + (i as u64) * 8);
        }
        // ... and vertices just before a checkpoint require the
        // longest scan; verify correctness there too.
        let loc = idx.locate(VertexId(31), EdgeDir::Out);
        assert_eq!(loc.offset, 1000 + 31 * 8);
    }

    #[test]
    fn large_degrees_overflow_to_the_side_table() {
        let mut degrees = vec![1u64; 40];
        degrees[7] = 300; // >= 255
        degrees[20] = 255; // boundary: exactly 255 must overflow
        let idx = seq_base_index(&degrees);
        assert_eq!(idx.degree(VertexId(7), EdgeDir::Out), 300);
        assert_eq!(idx.degree(VertexId(20), EdgeDir::Out), 255);
        assert_eq!(idx.degree(VertexId(0), EdgeDir::Out), 1);
        // Offsets past the hubs stay correct.
        let loc = idx.locate(VertexId(39), EdgeDir::Out);
        let expect: u64 = 1000 + degrees[..39].iter().sum::<u64>() * 4;
        assert_eq!(loc.offset, expect);
    }

    #[test]
    fn hubs_at_checkpoint_edges_are_found() {
        // Hubs at the first id, on both sides of a checkpoint, and at
        // the last id: every position of the sorted table's search.
        let n = 3 * CHECKPOINT_INTERVAL + 5;
        let hubs = [0, CHECKPOINT_INTERVAL - 1, CHECKPOINT_INTERVAL, n - 1];
        let mut degrees = vec![3u64; n];
        for (k, &h) in hubs.iter().enumerate() {
            degrees[h] = 255 + 1000 * k as u64;
        }
        let idx = seq_base_index(&degrees);
        let mut offset = 1000;
        for (i, &d) in degrees.iter().enumerate() {
            let v = VertexId(i as u32);
            assert_eq!(idx.degree(v, EdgeDir::Out), d, "degree of {i}");
            let loc = idx.locate(v, EdgeDir::Out);
            assert_eq!((loc.offset, loc.degree), (offset, d), "locate of {i}");
            offset += d * 4;
        }
        // 12 bytes a hub, as before the table was sorted.
        let flat = n + 4 * 8;
        assert_eq!(idx.heap_bytes(), flat + hubs.len() * 12);
    }

    #[test]
    fn degree_254_stays_small() {
        let degrees = vec![254u64];
        let idx = seq_base_index(&degrees);
        assert_eq!(idx.degree(VertexId(0), EdgeDir::Out), 254);
        assert_eq!(idx.heap_bytes(), 1 + 8); // 1 degree byte + 1 checkpoint
    }

    #[test]
    fn directed_index_separates_directions() {
        let out = vec![2u64, 0];
        let in_ = vec![0u64, 2];
        let idx = GraphIndex::build(&out, Some(&in_), 4, 100, 500, None, None);
        assert!(idx.is_directed());
        assert_eq!(idx.degree(VertexId(0), EdgeDir::Out), 2);
        assert_eq!(idx.degree(VertexId(0), EdgeDir::In), 0);
        assert_eq!(idx.locate(VertexId(0), EdgeDir::Out).offset, 100);
        assert_eq!(idx.locate(VertexId(1), EdgeDir::In).offset, 500);
    }

    #[test]
    fn undirected_in_queries_resolve_to_out() {
        let idx = seq_base_index(&[1, 1]);
        assert_eq!(
            idx.locate(VertexId(1), EdgeDir::In),
            idx.locate(VertexId(1), EdgeDir::Out)
        );
    }

    #[test]
    fn attr_location_parallels_edges() {
        let degrees = vec![3u64, 2];
        let idx = GraphIndex::build(&degrees, None, 4, 100, 0, Some(10_000), None);
        let e = idx.locate(VertexId(1), EdgeDir::Out);
        let a = idx.locate_attrs(VertexId(1), EdgeDir::Out).unwrap();
        assert_eq!(a.offset - 10_000, e.offset - 100);
        assert_eq!(a.bytes, e.bytes);
    }

    #[test]
    fn attrs_absent_when_unweighted() {
        let idx = seq_base_index(&[1]);
        assert!(idx.locate_attrs(VertexId(0), EdgeDir::Out).is_none());
    }

    #[test]
    fn memory_footprint_matches_paper_claim() {
        // A power-law-ish degree sequence with few hubs.
        let n = 100_000usize;
        let degrees: Vec<u64> = (0..n)
            .map(|i| {
                if i % 10_000 == 0 {
                    1000
                } else {
                    (i % 7) as u64
                }
            })
            .collect();
        let undirected = GraphIndex::build(&degrees, None, 4, 0, 0, None, None);
        let per_vertex = undirected.heap_bytes() as f64 / n as f64;
        assert!(
            per_vertex < 1.32,
            "undirected index uses {per_vertex} B/vertex; paper claims ~1.25"
        );
        let directed = GraphIndex::build(&degrees, Some(&degrees), 4, 0, 0, None, None);
        let per_vertex = directed.heap_bytes() as f64 / n as f64;
        assert!(
            per_vertex < 2.64,
            "directed index uses {per_vertex} B/vertex; paper claims ~2.5"
        );
    }

    #[test]
    fn locate_range_slices_within_list() {
        let degrees = vec![3u64, 10, 2];
        let idx = seq_base_index(&degrees);
        let full = idx.locate(VertexId(1), EdgeDir::Out);
        let sub = idx.locate_range(VertexId(1), EdgeDir::Out, 4, 3);
        assert_eq!(sub.offset, full.offset + 4 * 4);
        assert_eq!(sub.bytes, 3 * 4);
        assert_eq!(sub.degree, 3);
        // A full-width range reproduces locate() exactly.
        assert_eq!(idx.locate_range(VertexId(1), EdgeDir::Out, 0, 10), full);
        // ... and raw images always decode raw.
        assert_eq!(
            idx.locate_slice(VertexId(1), EdgeDir::Out, 4, 3).decode,
            SliceDecode::Raw
        );
    }

    #[test]
    fn locate_range_clamps_to_list_end() {
        let idx = seq_base_index(&[5]);
        // Tail-truncated: positions [3, 9) clamp to [3, 5).
        let tail = idx.locate_range(VertexId(0), EdgeDir::Out, 3, 6);
        assert_eq!(tail.degree, 2);
        assert_eq!(tail.bytes, 8);
        // Start past the end: zero bytes at the list's end offset.
        let past = idx.locate_range(VertexId(0), EdgeDir::Out, 7, 2);
        assert_eq!(past.degree, 0);
        assert_eq!(past.bytes, 0);
        // Zero-length range: zero bytes, offset at the position.
        let zero = idx.locate_range(VertexId(0), EdgeDir::Out, 2, 0);
        assert_eq!(zero.degree, 0);
        assert_eq!(zero.offset, 1000 + 2 * 4);
    }

    #[test]
    fn attr_range_parallels_edge_range() {
        let degrees = vec![3u64, 8];
        let idx = GraphIndex::build(&degrees, None, 4, 100, 0, Some(10_000), None);
        let e = idx.locate_range(VertexId(1), EdgeDir::Out, 2, 4);
        let a = idx
            .locate_attrs_range(VertexId(1), EdgeDir::Out, 2, 4)
            .unwrap();
        assert_eq!(a.offset - 10_000, e.offset - 100);
        assert_eq!(a.bytes, e.bytes);
        assert_eq!(a.degree, e.degree);
        // Clamping stays in lockstep too.
        let e = idx.locate_range(VertexId(1), EdgeDir::Out, 6, 99);
        let a = idx
            .locate_attrs_range(VertexId(1), EdgeDir::Out, 6, 99)
            .unwrap();
        assert_eq!(a.bytes, e.bytes);
        assert_eq!(e.degree, 2);
    }

    #[test]
    fn locate_extent_spans_id_range() {
        let degrees = vec![3u64, 0, 5, 2, 1];
        let idx = seq_base_index(&degrees);
        // Whole graph.
        let all = idx.locate_extent(VertexId(0), 5, EdgeDir::Out);
        assert_eq!(all.offset, 1000);
        assert_eq!(all.bytes, degrees.iter().sum::<u64>() * 4);
        assert_eq!(all.degree, degrees.iter().sum::<u64>());
        // Interior range [1, 4): vertices 1..=3.
        let mid = idx.locate_extent(VertexId(1), 3, EdgeDir::Out);
        assert_eq!(mid.offset, 1000 + 3 * 4);
        assert_eq!(mid.bytes, (5 + 2) * 4);
        assert_eq!(mid.degree, 7);
        // Concatenated sub-extents tile the full extent exactly.
        let a = idx.locate_extent(VertexId(0), 2, EdgeDir::Out);
        let b = idx.locate_extent(VertexId(2), 3, EdgeDir::Out);
        assert_eq!(a.offset + a.bytes, b.offset);
        assert_eq!(a.bytes + b.bytes, all.bytes);
    }

    #[test]
    fn locate_extent_clamps_and_empties() {
        let idx = seq_base_index(&[2, 4]);
        // Count past the end clamps.
        let clamped = idx.locate_extent(VertexId(1), 99, EdgeDir::Out);
        assert_eq!(clamped.offset, 1000 + 8);
        assert_eq!(clamped.bytes, 16);
        // Empty and fully-out-of-range extents are zero bytes.
        assert_eq!(idx.locate_extent(VertexId(0), 0, EdgeDir::Out).bytes, 0);
        assert_eq!(idx.locate_extent(VertexId(9), 4, EdgeDir::Out).bytes, 0);
    }

    #[test]
    fn attr_range_absent_when_unweighted() {
        let idx = seq_base_index(&[4]);
        assert!(idx
            .locate_attrs_range(VertexId(0), EdgeDir::Out, 0, 2)
            .is_none());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn locate_out_of_range_panics() {
        let idx = seq_base_index(&[1]);
        idx.locate(VertexId(1), EdgeDir::Out);
    }

    #[test]
    fn empty_graph_index() {
        let idx = seq_base_index(&[]);
        assert_eq!(idx.num_vertices(), 0);
        assert!(idx.heap_bytes() >= 8); // the single checkpoint
    }

    // ---- packed (compressed-image) behaviour ----

    #[test]
    fn packed_offsets_follow_block_lengths() {
        // Lists: raw (tiny), compressed, raw (tiny), compressed.
        let lists = vec![
            vec![7u32],
            (0..40u32).map(|i| i * 2).collect(),
            vec![],
            (100..160u32).collect(),
        ];
        let idx = packed_index(&lists, 8, true);
        assert_eq!(idx.skip_interval(), 8);
        let mut expect = 1000u64;
        for (i, l) in lists.iter().enumerate() {
            let loc = idx.locate(VertexId(i as u32), EdgeDir::Out);
            assert_eq!(loc.offset, expect, "vertex {i}");
            assert_eq!(loc.degree, l.len() as u64);
            expect += loc.bytes;
        }
        // Compressed blocks beat raw.
        assert!(idx.locate(VertexId(1), EdgeDir::Out).bytes < 40 * 4);
    }

    #[test]
    fn packed_full_list_slice_covers_block() {
        let lists = vec![(0..40u32).map(|i| i * 3).collect::<Vec<_>>()];
        let idx = packed_index(&lists, 8, true);
        let block = idx.locate(VertexId(0), EdgeDir::Out);
        let s = idx.locate_slice(VertexId(0), EdgeDir::Out, 0, 40);
        assert_eq!(s.loc, block);
        let SliceDecode::Varint(v) = s.decode else {
            panic!("compressed block must decode as varint");
        };
        assert_eq!(v.header_bytes as u64, skip_entries(40, 8) * 4);
        assert_eq!((v.stream_pos, v.skip, v.k), (0, 0, 8));
    }

    #[test]
    fn packed_hub_slice_is_restart_aligned_and_partial() {
        let lists = vec![(0..300u32).map(|i| i * 2 + 1).collect::<Vec<_>>()];
        let idx = packed_index(&lists, 8, true);
        let block = idx.locate(VertexId(0), EdgeDir::Out);
        // Positions [50, 70): restarts bound it to [48, 72).
        let s = idx.locate_slice(VertexId(0), EdgeDir::Out, 50, 20);
        assert_eq!(s.loc.degree, 20);
        assert!(s.loc.bytes < block.bytes, "subrange must not fetch all");
        assert!(s.loc.offset > block.offset);
        let SliceDecode::Varint(v) = s.decode else {
            panic!("varint expected");
        };
        assert_eq!(v.header_bytes, 0);
        assert_eq!(v.stream_pos, 48);
        assert_eq!(v.skip, 2);
        // Adjacent restart-aligned chunks tile the payload exactly.
        let a = idx.locate_slice(VertexId(0), EdgeDir::Out, 0, 80);
        let b = idx.locate_slice(VertexId(0), EdgeDir::Out, 80, 220);
        assert_eq!(a.loc.offset + a.loc.bytes, b.loc.offset);
        let hdr = skip_entries(300, 8) * 4;
        assert_eq!(a.loc.bytes + b.loc.bytes + hdr, block.bytes);
    }

    #[test]
    fn packed_slice_without_table_fetches_whole_block() {
        let lists = vec![(0..100u32).map(|i| i * 2).collect::<Vec<_>>()];
        let idx = packed_index(&lists, 8, false);
        let block = idx.locate(VertexId(0), EdgeDir::Out);
        let s = idx.locate_slice(VertexId(0), EdgeDir::Out, 30, 10);
        assert_eq!(s.loc.offset, block.offset);
        assert_eq!(s.loc.bytes, block.bytes);
        assert_eq!(s.loc.degree, 10);
        let SliceDecode::Varint(v) = s.decode else {
            panic!("varint expected");
        };
        assert_eq!(v.header_bytes as u64, skip_entries(100, 8) * 4);
        assert_eq!(v.skip, 30);
    }

    #[test]
    fn packed_raw_fallback_blocks_slice_positionally() {
        // Tiny lists stay raw inside a packed image.
        let lists = vec![vec![1u32, 2, 3], vec![9u32, 10, 11]];
        let idx = packed_index(&lists, 8, true);
        let s = idx.locate_slice(VertexId(1), EdgeDir::Out, 1, 2);
        assert_eq!(s.decode, SliceDecode::Raw);
        let block = idx.locate(VertexId(1), EdgeDir::Out);
        assert_eq!(s.loc.offset, block.offset + 4);
        assert_eq!(s.loc.bytes, 8);
    }

    #[test]
    fn packed_extent_counts_edges_not_bytes() {
        let lists = vec![
            (0..40u32).collect::<Vec<_>>(),
            vec![5u32],
            (0..64u32).map(|i| i * 7).collect(),
        ];
        let idx = packed_index(&lists, 8, true);
        let all = idx.locate_extent(VertexId(0), 3, EdgeDir::Out);
        assert_eq!(all.degree, 40 + 1 + 64);
        let total: u64 = (0..3)
            .map(|i| idx.locate(VertexId(i), EdgeDir::Out).bytes)
            .sum();
        assert_eq!(all.bytes, total);
        assert_ne!(all.bytes, all.degree * 4, "blocks really are compressed");
    }

    #[test]
    fn packed_slice_clamps_like_raw() {
        let lists = vec![(0..50u32).map(|i| i * 2).collect::<Vec<_>>()];
        let idx = packed_index(&lists, 8, true);
        let past = idx.locate_slice(VertexId(0), EdgeDir::Out, 60, 5);
        assert_eq!(past.loc.bytes, 0);
        assert_eq!(past.loc.degree, 0);
        let tail = idx.locate_slice(VertexId(0), EdgeDir::Out, 45, 99);
        assert_eq!(tail.loc.degree, 5);
    }
}
