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

/// Bytes per edge in a raw list: one `u32` neighbour id.
const EDGE_WIDTH: u64 = 4;

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
    /// A group-varint gap stream (see [`crate::codec`]); decoding starts
    /// at a restart point and skips forward to the requested range.
    Varint(VarintSlice),
}

/// Decode parameters for one varint-compressed slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VarintSlice {
    /// Bytes of skip-table framing at the start of the fetched range
    /// (non-zero only for whole-block fetches).
    pub header_bytes: u32,
    /// Full-list position of the first value after the header —
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

/// Compressed-image per-direction extension: where each block ends
/// (offsets are no longer `4 * degree` sums) and the payload skip
/// tables of hub lists.
#[derive(Debug, Clone, Default)]
struct PackedDir {
    /// Per vertex, the byte offset of the end of its block relative to
    /// its checkpoint; top bit ([`RAW_LIST_FLAG`]) marks a raw-encoded
    /// block. A block starts where its predecessor in the same
    /// checkpoint interval ends (at 0 for the interval's first vertex),
    /// so locating one is two reads, whatever its place in the interval.
    ends: Vec<u32>,
    /// Payload-relative restart offsets of large-degree compressed
    /// lists (entry `m - 1` = byte offset of the restart at position
    /// `m * k`), keyed by vertex id. Loaded at init so ranged hub
    /// requests resolve byte subranges without reading a prefix.
    skips: HashMap<u32, Box<[u32]>>,
}

/// Per-direction compact index: degrees + sparse offset checkpoints.
#[derive(Debug, Clone)]
struct DirIndex {
    /// One byte per vertex; `u8::MAX` marks a hub, whose degree is in
    /// `hub_ends`. Zero-padded to a whole last interval.
    small_degrees: Vec<u8>,
    /// Running degree sums of the vertices with degree >=
    /// [`LARGE_DEGREE`] (hubs), in id order: `hub_ends[k + 1] -
    /// hub_ends[k]` is the degree of hub `k`, so the degrees of any run
    /// of hubs sum in one subtraction. Hub `k`'s place is its
    /// checkpoint's hub cursor plus the hubs before it in its interval,
    /// so no id is stored.
    hub_ends: Vec<u64>,
    /// Absolute byte offset of the edge list of vertex
    /// `i * CHECKPOINT_INTERVAL`.
    checkpoints: Vec<u64>,
    /// Per checkpoint: the number of hubs before vertex
    /// `i * CHECKPOINT_INTERVAL`, so the hubs of one interval are one
    /// contiguous run of `hub_ends` starting here.
    hub_cursors: Vec<u32>,
    /// Start of this direction's attribute section, if weighted.
    attr_base: Option<u64>,
    /// Start of this direction's edge section (for attr offset math).
    edge_base: u64,
    /// Compressed-image extension; `None` for raw images, where block
    /// length is always `degree * EDGE_WIDTH`.
    packed: Option<PackedDir>,
}

impl DirIndex {
    fn build(degrees: &[u64], edge_base: u64, attr_base: Option<u64>) -> Self {
        Self::build_inner(degrees, edge_base, attr_base, |_, d| d * EDGE_WIDTH)
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
        let built = Self::build_inner(degrees, edge_base, attr_base, |i, _| {
            (blocks[i] & !RAW_LIST_FLAG) as u64
        });
        // Lengths become ends relative to their checkpoint, in place.
        let mut ends = blocks;
        let mut end = 0u64;
        for (i, e) in ends.iter_mut().enumerate() {
            if i % CHECKPOINT_INTERVAL == 0 {
                end = 0;
            }
            end += (*e & !RAW_LIST_FLAG) as u64;
            assert!(
                end < RAW_LIST_FLAG as u64,
                "the blocks of checkpoint interval {} span 2 GiB or more",
                i / CHECKPOINT_INTERVAL
            );
            *e = end as u32 | (*e & RAW_LIST_FLAG);
        }
        DirIndex {
            packed: Some(PackedDir { ends, skips }),
            ..built
        }
    }

    fn build_inner(
        degrees: &[u64],
        edge_base: u64,
        attr_base: Option<u64>,
        block_len: impl Fn(usize, u64) -> u64,
    ) -> Self {
        let intervals = degrees.len().div_ceil(CHECKPOINT_INTERVAL).max(1);
        let mut small_degrees = Vec::with_capacity(degrees.len());
        let mut hub_ends = vec![0u64];
        let mut checkpoints = Vec::with_capacity(intervals);
        let mut hub_cursors = Vec::with_capacity(intervals);
        let mut offset = edge_base;
        for (i, &d) in degrees.iter().enumerate() {
            if i % CHECKPOINT_INTERVAL == 0 {
                checkpoints.push(offset);
                hub_cursors.push(hub_ends.len() as u32 - 1);
            }
            if d >= LARGE_DEGREE {
                small_degrees.push(u8::MAX);
                hub_ends.push(hub_ends.last().unwrap() + d);
            } else {
                small_degrees.push(d as u8);
            }
            offset += block_len(i, d);
        }
        if degrees.is_empty() {
            checkpoints.push(edge_base);
            hub_cursors.push(0);
        }
        small_degrees.resize(intervals * CHECKPOINT_INTERVAL, 0);
        DirIndex {
            small_degrees,
            hub_ends,
            checkpoints,
            hub_cursors,
            attr_base,
            edge_base,
            packed: None,
        }
    }

    /// Where vertex `i`'s interval starts in `hub_ends`, the sum of
    /// the degree bytes before `i` in its interval, and how many of
    /// them are hubs. Branch-free, eight bytes at a time: every
    /// interval is four whole words (`small_degrees` is padded to
    /// whole intervals), the bytes at or past `i` masked to zero, and
    /// the four words' lanes summed before one horizontal add each.
    #[inline(always)]
    fn interval_prefix(&self, i: usize) -> (usize, u64, usize) {
        const WORDS: usize = CHECKPOINT_INTERVAL / 8;
        const LOW: u64 = 0x0101_0101_0101_0101;
        const LANES: u64 = 0x00FF_00FF_00FF_00FF;
        /// Per position in an interval, the words' masks keeping the
        /// bytes before it.
        const MASKS: [[u64; WORDS]; CHECKPOINT_INTERVAL] = {
            let mut masks = [[0u64; WORDS]; CHECKPOINT_INTERVAL];
            let mut at = 0;
            while at < CHECKPOINT_INTERVAL {
                let mut w = 0;
                while w < WORDS {
                    let keep = at.saturating_sub(8 * w);
                    masks[at][w] = if keep >= 8 {
                        u64::MAX
                    } else {
                        (1 << (8 * keep)) - 1
                    };
                    w += 1;
                }
                at += 1;
            }
            masks
        };
        let cp = i / CHECKPOINT_INTERVAL;
        let first = cp * CHECKPOINT_INTERVAL;
        let interval = &self.small_degrees[first..first + CHECKPOINT_INTERVAL];
        let masks = &MASKS[i - first];
        // Sixteen-bit lanes of byte pairs (at most 4 * 510), and one
        // flag byte per hub (at most 4 a lane byte).
        let (mut pairs, mut flags) = (0u64, 0u64);
        for (word, mask) in interval.chunks_exact(8).zip(masks) {
            let x = u64::from_le_bytes(word.try_into().expect("8-byte chunk")) & mask;
            pairs += (x & LANES) + ((x >> 8) & LANES);
            // A byte is 0xFF exactly when its complement is zero: the
            // high bit of `nonzero` is set for every other byte.
            let y = !x;
            let nonzero = ((y & (0x7F * LOW)) + 0x7F * LOW) | y;
            flags += (!nonzero & (0x80 * LOW)) >> 7;
        }
        let bytes = pairs.wrapping_mul(0x0001_0001_0001_0001) >> 48;
        let hubs = flags.wrapping_mul(LOW) >> 56;
        (self.hub_cursors[cp] as usize, bytes, hubs as usize)
    }

    /// The degree of hub `k` (in id order).
    #[inline]
    fn hub_degree(&self, k: usize) -> u64 {
        self.hub_ends[k + 1] - self.hub_ends[k]
    }

    #[inline]
    fn degree(&self, v: VertexId) -> u64 {
        let b = self.small_degrees[v.index()];
        if b == u8::MAX {
            let (cursor, _, hubs) = self.interval_prefix(v.index());
            self.hub_degree(cursor + hubs)
        } else {
            b as u64
        }
    }

    /// Whether `v`'s block is raw-encoded (always true on raw images).
    #[inline]
    fn is_raw(&self, v: VertexId) -> bool {
        match &self.packed {
            Some(p) => p.ends[v.index()] & RAW_LIST_FLAG != 0,
            None => true,
        }
    }

    /// `v`'s block from its checkpoint: two neighbouring ends on a
    /// compressed image; on a raw one the interval's degree bytes
    /// before `v`, the hubs among them counted at their running sums'
    /// difference.
    fn locate(&self, v: VertexId) -> EdgeListLoc {
        let i = v.index();
        let cp = i / CHECKPOINT_INTERVAL;
        if let Some(p) = &self.packed {
            let end = p.ends[i] & !RAW_LIST_FLAG;
            let start = match i % CHECKPOINT_INTERVAL {
                0 => 0,
                _ => p.ends[i - 1] & !RAW_LIST_FLAG,
            };
            return EdgeListLoc {
                offset: self.checkpoints[cp] + u64::from(start),
                bytes: u64::from(end - start),
                degree: self.degree(v),
            };
        }
        let (cursor, bytes, hubs) = self.interval_prefix(i);
        let hub_edges = self.hub_ends[cursor + hubs] - self.hub_ends[cursor];
        let edges = bytes - hubs as u64 * u64::from(u8::MAX) + hub_edges;
        let degree = match self.small_degrees[i] {
            u8::MAX => self.hub_degree(cursor + hubs),
            b => u64::from(b),
        };
        EdgeListLoc {
            offset: self.checkpoints[cp] + edges * EDGE_WIDTH,
            bytes: degree * EDGE_WIDTH,
            degree,
        }
    }

    fn heap_bytes(&self) -> usize {
        use std::mem::{size_of, size_of_val};
        let packed = match &self.packed {
            Some(p) => {
                size_of_val(&p.ends[..])
                    + p.skips
                        .values()
                        .map(|t| size_of::<u32>() * (t.len() + 1) + size_of::<usize>())
                        .sum::<usize>()
            }
            None => 0,
        };
        size_of_val(&self.small_degrees[..])
            + size_of_val(&self.hub_ends[..])
            + size_of_val(&self.checkpoints[..])
            + size_of_val(&self.hub_cursors[..])
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
/// Holds, per direction, one degree byte per vertex, 8 bytes per hub
/// (degree >= [`LARGE_DEGREE`]), and per [`CHECKPOINT_INTERVAL`]
/// vertices one explicit offset and one hub cursor: 1.375 bytes a
/// vertex plus the hubs. Everything else — edge-list location, size,
/// attribute location — is computed on demand, trading a handful of
/// adds for DRAM (§3.5.1: "we choose to compute some vertex
/// information at runtime"): a locate sums at most 31 degree bytes,
/// branch-free, and the degrees of the hubs among them as one
/// difference of running sums.
///
/// Over a *compressed* (v2) image the index additionally holds where
/// each vertex's on-disk block ends relative to its checkpoint (blocks
/// are variable-length under group-varint encoding, so offsets can no
/// longer be recomputed from degrees), so a locate there reads two
/// ends and sums nothing, and the skip tables of hub lists; the extra
/// cost is 4 bytes/vertex/direction — far below what the compressed
/// image saves in device reads.
#[derive(Debug, Clone)]
pub struct GraphIndex {
    num_vertices: usize,
    /// Restart interval of the image's compressed blocks; 0 on raw
    /// images.
    skip_k: u32,
    out: DirIndex,
    in_: Option<DirIndex>,
}

impl GraphIndex {
    /// Builds an index from per-direction degree arrays (raw images:
    /// every list is `degree * 4` bytes, one `u32` per edge).
    ///
    /// `out_base`/`in_base` are the absolute byte offsets of the edge
    /// sections in the image; `attr` bases likewise for weighted
    /// graphs. `in_degrees` is `None` for undirected graphs.
    pub fn build(
        out_degrees: &[u64],
        in_degrees: Option<&[u64]>,
        out_base: u64,
        in_base: u64,
        out_attr_base: Option<u64>,
        in_attr_base: Option<u64>,
    ) -> Self {
        GraphIndex {
            num_vertices: out_degrees.len(),
            skip_k: 0,
            out: DirIndex::build(out_degrees, out_base, out_attr_base),
            in_: in_degrees.map(|d| DirIndex::build(d, in_base, in_attr_base)),
        }
    }

    /// Builds an index over a compressed (v2) image from per-direction
    /// degrees, flagged block lengths, and hub skip tables. `k` is the
    /// restart interval the image was encoded with.
    pub fn build_packed(k: u32, out: PackedDirInput<'_>, in_: Option<PackedDirInput<'_>>) -> Self {
        assert!(k > 0, "compressed images need a positive skip interval");
        GraphIndex {
            num_vertices: out.degrees.len(),
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

    /// Locates the on-disk block of `v`'s edge list in `dir`: the
    /// offset from the nearest checkpoint, plus `v`'s block end
    /// relative to it on a compressed image, or the degrees of the at
    /// most `CHECKPOINT_INTERVAL - 1` vertices before `v` on a raw one.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range or `dir` is [`EdgeDir::Both`].
    pub fn locate(&self, v: VertexId, dir: EdgeDir) -> EdgeListLoc {
        assert!(v.index() < self.num_vertices, "vertex {v} out of range");
        self.dir(dir).locate(v)
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
                    offset: block.offset + start * EDGE_WIDTH,
                    bytes: len * EDGE_WIDTH,
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

    /// Locates the contiguous byte extent covering the edge lists of
    /// the id-range `[first, first + count)` in `dir` — what a sweep
    /// of many lists at once reads: `ImageLists` sizes a whole
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
            bytes / EDGE_WIDTH
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

    /// The attribute run parallel to [`GraphIndex::locate_slice`]'s:
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
        let edges = self.locate_slice(v, dir, start, len).loc;
        Some(EdgeListLoc {
            offset: attr_base + (edges.offset - d.edge_base),
            bytes: edges.bytes,
            degree: edges.degree,
        })
    }

    /// Heap bytes of the index — the quantity behind the paper's
    /// "slightly more than 1.25 bytes per vertex (2.5 directed)"
    /// claim; the hub cursors add 0.125 per vertex and direction, and
    /// each hub 8 bytes. Compressed images add their block-end tables
    /// (4 bytes/vertex/direction) and hub skip tables on top.
    pub fn heap_bytes(&self) -> usize {
        self.out.heap_bytes() + self.in_.as_ref().map(DirIndex::heap_bytes).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq_base_index(degrees: &[u64]) -> GraphIndex {
        GraphIndex::build(degrees, None, 1000, 0, None, None)
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
        // A degree byte a vertex (the last interval padded), an offset
        // and a hub cursor a checkpoint, and a running sum a hub, after
        // the first sum's 0.
        let flat = 4 * CHECKPOINT_INTERVAL + 4 * (8 + 4);
        assert_eq!(idx.heap_bytes(), flat + (1 + hubs.len()) * 8);
    }

    #[test]
    fn degree_254_stays_small() {
        let degrees = vec![254u64];
        let idx = seq_base_index(&degrees);
        assert_eq!(idx.degree(VertexId(0), EdgeDir::Out), 254);
        // 1 degree byte padded to an interval + 1 checkpoint + its hub
        // cursor + the hubs' first running sum.
        assert_eq!(idx.heap_bytes(), CHECKPOINT_INTERVAL + 8 + 4 + 8);
    }

    #[test]
    fn directed_index_separates_directions() {
        let out = vec![2u64, 0];
        let in_ = vec![0u64, 2];
        let idx = GraphIndex::build(&out, Some(&in_), 100, 500, None, None);
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
        let idx = GraphIndex::build(&degrees, None, 100, 0, Some(10_000), None);
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
        // The paper's ~1.25 B/vertex (2.5 directed), plus 0.125 per
        // direction for the hub cursors that spare a locate any search.
        let undirected = GraphIndex::build(&degrees, None, 0, 0, None, None);
        let per_vertex = undirected.heap_bytes() as f64 / n as f64;
        assert!(
            per_vertex < 1.39,
            "undirected index uses {per_vertex} B/vertex; budget ~1.375"
        );
        let directed = GraphIndex::build(&degrees, Some(&degrees), 0, 0, None, None);
        let per_vertex = directed.heap_bytes() as f64 / n as f64;
        assert!(
            per_vertex < 2.78,
            "directed index uses {per_vertex} B/vertex; budget ~2.75"
        );
    }

    #[test]
    fn locate_range_slices_within_list() {
        let degrees = vec![3u64, 10, 2];
        let idx = seq_base_index(&degrees);
        let full = idx.locate(VertexId(1), EdgeDir::Out);
        let sub = idx.locate_slice(VertexId(1), EdgeDir::Out, 4, 3).loc;
        assert_eq!(sub.offset, full.offset + 4 * 4);
        assert_eq!(sub.bytes, 3 * 4);
        assert_eq!(sub.degree, 3);
        // A full-width range reproduces locate() exactly.
        assert_eq!(idx.locate_slice(VertexId(1), EdgeDir::Out, 0, 10).loc, full);
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
        let tail = idx.locate_slice(VertexId(0), EdgeDir::Out, 3, 6).loc;
        assert_eq!(tail.degree, 2);
        assert_eq!(tail.bytes, 8);
        // Start past the end: zero bytes at the list's end offset.
        let past = idx.locate_slice(VertexId(0), EdgeDir::Out, 7, 2).loc;
        assert_eq!(past.degree, 0);
        assert_eq!(past.bytes, 0);
        // Zero-length range: zero bytes, offset at the position.
        let zero = idx.locate_slice(VertexId(0), EdgeDir::Out, 2, 0).loc;
        assert_eq!(zero.degree, 0);
        assert_eq!(zero.offset, 1000 + 2 * 4);
    }

    #[test]
    fn attr_range_parallels_edge_range() {
        let degrees = vec![3u64, 8];
        let idx = GraphIndex::build(&degrees, None, 100, 0, Some(10_000), None);
        let e = idx.locate_slice(VertexId(1), EdgeDir::Out, 2, 4).loc;
        let a = idx
            .locate_attrs_range(VertexId(1), EdgeDir::Out, 2, 4)
            .unwrap();
        assert_eq!(a.offset - 10_000, e.offset - 100);
        assert_eq!(a.bytes, e.bytes);
        assert_eq!(a.degree, e.degree);
        // Clamping stays in lockstep too.
        let e = idx.locate_slice(VertexId(1), EdgeDir::Out, 6, 99).loc;
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
        assert_eq!(idx.skip_k, 8);
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

    // ---- against a prefix-sum reference ----

    use crate::codec::{decode_stream, encode_list};
    use proptest::prelude::*;

    /// One direction of a random image: each vertex's list, its block
    /// as written (raw bytes or a compressed block), and whether the
    /// block is raw.
    struct RefDir {
        lists: Vec<Vec<u32>>,
        blocks: Vec<Vec<u8>>,
        raw: Vec<bool>,
        base: u64,
    }

    impl RefDir {
        /// Degrees below 40 with a few random hubs, and hubs at ids 0,
        /// 31, 32, 33 and `n - 1`. A compressed image encodes every
        /// list it can, except a random third kept raw; lists with wide
        /// gaps do not compress and stay raw anyway.
        fn random(rng: &mut TestRng, n: usize, compressed: bool, k: u32, base: u64) -> Self {
            let hub = |rng: &mut TestRng| LARGE_DEGREE + rng.below(600);
            let mut degrees: Vec<u64> = (0..n)
                .map(|_| match rng.below(20) {
                    0 => hub(rng),
                    _ => rng.below(40),
                })
                .collect();
            for at in [0, 31, 32, 33, n - 1] {
                degrees[at] = hub(rng);
            }
            let mut dir = RefDir {
                lists: Vec::new(),
                blocks: Vec::new(),
                raw: Vec::new(),
                base,
            };
            for d in degrees {
                let gap = if rng.below(4) == 0 { 1 << 20 } else { 9 };
                let mut v = 0u32;
                let list: Vec<u32> = (0..d)
                    .map(|_| {
                        v += rng.below(gap) as u32;
                        v
                    })
                    .collect();
                let mut block = Vec::new();
                let packed = compressed && rng.below(3) > 0 && encode_list(&list, k, &mut block);
                if !packed {
                    block = list.iter().flat_map(|e| e.to_le_bytes()).collect();
                }
                dir.lists.push(list);
                dir.blocks.push(block);
                dir.raw.push(!packed);
            }
            dir
        }

        fn degrees(&self) -> Vec<u64> {
            self.lists.iter().map(|l| l.len() as u64).collect()
        }

        /// The input `GraphIndex::build_packed` takes, every hub's skip
        /// table loaded as `load_index` does.
        fn packed_input<'d>(&self, degrees: &'d [u64], k: u32) -> PackedDirInput<'d> {
            let (mut blocks, mut skips) = (Vec::new(), HashMap::new());
            for (i, (block, &raw)) in self.blocks.iter().zip(&self.raw).enumerate() {
                let d = self.lists[i].len() as u64;
                blocks.push(block.len() as u32 | if raw { RAW_LIST_FLAG } else { 0 });
                let entries = skip_entries(d, k) as usize;
                if !raw && entries > 0 {
                    let table = (0..entries)
                        .map(|e| u32::from_le_bytes(block[e * 4..e * 4 + 4].try_into().unwrap()))
                        .collect();
                    skips.insert(i as u32, table);
                }
            }
            PackedDirInput {
                degrees,
                blocks,
                skips,
                edge_base: self.base,
                attr_base: None,
            }
        }

        /// The reference offset of `v`'s block: the base plus every
        /// block before it.
        fn offset(&self, v: usize) -> u64 {
            self.base + self.blocks[..v].iter().map(|b| b.len() as u64).sum::<u64>()
        }

        /// The edges a located slice decodes to, read out of the
        /// direction's image bytes.
        fn decode(&self, s: &ListSlice) -> Vec<u32> {
            let image: Vec<u8> = self.blocks.concat();
            let at = (s.loc.offset - self.base) as usize;
            let bytes = &image[at..at + s.loc.bytes as usize];
            match s.decode {
                SliceDecode::Raw => bytes
                    .chunks_exact(4)
                    .map(|w| u32::from_le_bytes(w.try_into().unwrap()))
                    .collect(),
                SliceDecode::Varint(p) => {
                    let count = (p.skip + s.loc.degree) as usize;
                    let stream = decode_stream(&bytes[p.header_bytes as usize..], p.k, count);
                    stream.unwrap().split_off(p.skip as usize)
                }
            }
        }
    }

    proptest! {
        /// `locate`, `locate_slice`, `degree` and `locate_extent`
        /// against prefix sums of the blocks as written, on raw images
        /// and on compressed ones with raw-flagged blocks, both
        /// directions, hubs on both sides of a checkpoint and at the
        /// ends, `n` not a multiple of the interval; and `heap_bytes`
        /// against the index's budget: per vertex and direction a
        /// degree byte (the last interval padded), per interval an
        /// offset and a hub cursor, per hub a running sum, and on a
        /// compressed image 4 bytes of block end per vertex and the
        /// hubs' skip tables.
        #[test]
        fn index_answers_like_a_prefix_sum_reference(
            seed in any::<u64>(),
            intervals in 2usize..6,
            tail in 1usize..CHECKPOINT_INTERVAL,
            compressed in any::<bool>(),
        ) {
            let n = intervals * CHECKPOINT_INTERVAL + tail;
            let k = 8;
            let mut rng = TestRng::deterministic("index_reference", seed as u32);
            let out = RefDir::random(&mut rng, n, compressed, k, 4096);
            let in_base = out.offset(n) + 4096;
            let in_ = RefDir::random(&mut rng, n, compressed, k, in_base);
            let (out_degrees, in_degrees) = (out.degrees(), in_.degrees());
            let index = if compressed {
                GraphIndex::build_packed(
                    k,
                    out.packed_input(&out_degrees, k),
                    Some(in_.packed_input(&in_degrees, k)),
                )
            } else {
                GraphIndex::build(&out_degrees, Some(&in_degrees), 4096, in_base, None, None)
            };
            let mut budget = 0;
            for (dir, r) in [(EdgeDir::Out, &out), (EdgeDir::In, &in_)] {
                for v in 0..n {
                    let id = VertexId(v as u32);
                    let list = &r.lists[v];
                    let d = list.len() as u64;
                    prop_assert_eq!(index.degree(id, dir), d);
                    let want = EdgeListLoc {
                        offset: r.offset(v),
                        bytes: r.blocks[v].len() as u64,
                        degree: d,
                    };
                    prop_assert_eq!((dir, v, index.locate(id, dir)), (dir, v, want));
                    let start = rng.below(d + 2);
                    let len = rng.below(d + 2);
                    for (start, len) in [(0, d), (start, len), (start, d)] {
                        let s = index.locate_slice(id, dir, start, len);
                        let (lo, hi) = (start.min(d), (start + len).min(d));
                        prop_assert_eq!(s.loc.degree, hi - lo);
                        prop_assert!(s.loc.offset >= want.offset);
                        prop_assert!(s.loc.offset + s.loc.bytes <= want.offset + want.bytes);
                        if r.raw[v] {
                            prop_assert_eq!(s.decode, SliceDecode::Raw);
                            prop_assert_eq!(s.loc.offset, want.offset + 4 * lo);
                            prop_assert_eq!(s.loc.bytes, 4 * (hi - lo));
                        }
                        let got = r.decode(&s);
                        let want = &list[lo as usize..hi as usize];
                        prop_assert_eq!((dir, v, &got[..]), (dir, v, want));
                    }
                    let count = rng.below(2 * CHECKPOINT_INTERVAL as u64);
                    let hi = (v + count as usize).min(n);
                    let extent = index.locate_extent(id, count, dir);
                    let blocks = &r.blocks[v..hi];
                    let want = EdgeListLoc {
                        offset: r.offset(v),
                        bytes: blocks.iter().map(|b| b.len() as u64).sum(),
                        degree: r.lists[v..hi].iter().map(|l| l.len() as u64).sum(),
                    };
                    prop_assert_eq!((dir, v, count, extent), (dir, v, count, want));
                }
                let past = index.locate_extent(VertexId(n as u32), 3, dir);
                prop_assert_eq!((past.offset, past.bytes), (r.offset(0), 0));
                let hubs = r.lists.iter().filter(|l| l.len() as u64 >= LARGE_DEGREE).count();
                let intervals = n.div_ceil(CHECKPOINT_INTERVAL);
                budget += intervals * CHECKPOINT_INTERVAL + intervals * (8 + 4) + (hubs + 1) * 8;
                if compressed {
                    let packed = index.dir(dir).packed.as_ref().unwrap();
                    budget += 4 * n;
                    budget += (packed.skips.values())
                        .map(|t| 4 * (t.len() + 1) + 8)
                        .sum::<usize>();
                }
            }
            prop_assert_eq!(index.heap_bytes(), budget);
        }
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
