//! Writing and loading the on-SSD graph image (§3.5.2 of the paper).
//!
//! Two image formats share one section skeleton (all sections start
//! page-aligned):
//!
//! ```text
//! [ header page    ] magic, flags, counts, section table
//! [ degree section ] out-degrees as u32, then in-degrees (directed)
//! [ length section ] v2 only: per-vertex block lengths (see below)
//! [ out-edge lists ] per vertex, ascending id
//! [ in-edge lists  ] (directed graphs only)
//! [ out-attributes ] per-edge f32 runs parallel to out-edges (weighted)
//! [ in-attributes  ] (directed + weighted)
//! ```
//!
//! **v1 (`Raw`)** stores every edge as a `u32`; a vertex's list starts
//! wherever the previous one ended, and the in-memory [`GraphIndex`]
//! recomputes byte offsets from degrees alone — no per-vertex location
//! table exists on disk or in RAM.
//!
//! **v2 (`Compressed`, magic `FGIMG21`)** stores each vertex's list
//! as a *block*: either raw (identical bytes to v1) or group-varint
//! compressed gaps with restarts, behind a skip table on hub lists
//! (see [`crate::codec`]). Images of the earlier v2 payload (LEB128
//! gaps, magic `FGIMG20`) are refused as a bad magic: every run writes
//! its own images. Block lengths are variable, so the image adds a
//! length section — one `u32` per
//! vertex per direction, top bit ([`crate::codec::RAW_LIST_FLAG`])
//! recording which encoding the block got — from which the index
//! rebuilds offsets at load time and learns, without guessing, how
//! each block decodes. Weighted graphs force every block raw so the
//! attribute sections stay positionally aligned with their edges.
//!
//! The degree (and v2 length) sections exist only to rebuild the
//! index at load time ("init time" in the paper's Table 2); edge
//! traversal never touches them.
//!
//! One pass ([`write_image_to`]) writes an image from any [`ListSource`]
//! — a [`fg_graph::Graph`], or an old image merged with a delta view
//! ([`ImageLists`]) — reading each direction's lists once, in the order
//! the bytes become known: the edge sections first, each list encoded
//! once straight into the write buffer while its degree and flagged
//! block length are recorded, a weighted image's attribute sections
//! beside them; then the length and degree sections; the header page
//! last, the commit record — until it lands, a fresh device holds
//! nothing [`read_meta`] accepts. Every write is whole
//! [`SECTION_ALIGN`] pages, each byte of `[0, total_bytes)` once.
//! [`required_capacity_with`] sizes a device from the source's entry
//! counts: the image with every block raw, exact for raw and weighted
//! images, an upper bound for compressed ones.
//!
//! Every reader here — [`read_meta`], [`load_index`], [`read_list`],
//! [`ImageLists`] — takes its bytes from one [`ByteSource`]: the
//! [`SsdArray`] itself, or a SAFS mount over it (`fg_safs::Safs`, or
//! its streaming view), whose reads meet the page cache first.

use std::collections::HashMap;
use std::ops::Range;

use fg_graph::DeltaView;
use fg_ssdsim::{ByteSource, SsdArray};
use fg_types::{EdgeDir, FgError, Result, VertexId};

use crate::codec::{self, skip_entries, DEFAULT_SKIP_INTERVAL, RAW_LIST_FLAG, TINY_RAW_DEGREE};
use crate::index::{EdgeListLoc, GraphIndex, ListSlice, PackedDirInput, SliceDecode};
use crate::source::{ListRun, ListSource, RunSink, RUN_LISTS};

/// Alignment of every section start, independent of the SAFS page
/// size an engine later chooses.
pub const SECTION_ALIGN: u64 = 4096;

const MAGIC_V1: &[u8; 8] = b"FGIMG10\0";
/// v2 with group-varint blocks; the LEB128 blocks of `FGIMG20` have
/// no reader.
const MAGIC_V2: &[u8; 8] = b"FGIMG21\0";
const FLAG_DIRECTED: u32 = 1;
const FLAG_WEIGHTED: u32 = 2;
/// Chunk size for streaming sections to the array during the write.
const WRITE_CHUNK: usize = 4 << 20;
/// Upper bound accepted for a v2 image's skip interval — far above
/// any useful value, low enough to reject corrupt headers.
const MAX_SKIP_INTERVAL: u32 = 1 << 20;

/// Which on-SSD encoding [`write_image_with`] produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ImageFormat {
    /// v1: 4 bytes per edge, offsets recomputed from degrees.
    #[default]
    Raw,
    /// v2: per-vertex group-varint blocks with raw fallback.
    Compressed,
}

/// Knobs of one image write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteOptions {
    /// Target format.
    pub format: ImageFormat,
    /// Restart/skip interval `k` in edges for compressed blocks: one
    /// skip-table entry (4 bytes) per `k` edges, and ranged hub reads
    /// over-fetch at most `k - 1` edges per end. Smaller `k` = finer
    /// ranged reads, larger tables. Ignored for [`ImageFormat::Raw`].
    pub skip_interval: u32,
    /// Image generation stamped into the header (bytes 12..16).
    /// Frozen images stay at 0; the serving layer's compactor bumps
    /// it for each rewrite so an atomic index flip can assert which
    /// image it switched to. Old images read back as generation 0.
    pub generation: u32,
}

impl Default for WriteOptions {
    fn default() -> Self {
        WriteOptions {
            format: ImageFormat::Raw,
            skip_interval: DEFAULT_SKIP_INTERVAL,
            generation: 0,
        }
    }
}

impl WriteOptions {
    /// Compressed at the default skip interval.
    pub fn compressed() -> Self {
        WriteOptions {
            format: ImageFormat::Compressed,
            ..Self::default()
        }
    }

    /// Builder-style: sets the skip interval.
    ///
    /// # Panics
    ///
    /// Panics unless `k` is a positive multiple of [`codec::GROUP`]:
    /// every restart opens a group.
    pub fn with_skip_interval(mut self, k: u32) -> Self {
        assert!(
            k > 0 && k as usize % codec::GROUP == 0,
            "skip interval must be a positive multiple of {}, not {k}",
            codec::GROUP
        );
        self.skip_interval = k;
        self
    }

    /// Builder-style: stamps an image generation into the header.
    pub fn with_generation(mut self, generation: u32) -> Self {
        self.generation = generation;
        self
    }
}

/// Parsed image header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImageMeta {
    /// Vertex count.
    pub num_vertices: u64,
    /// Edge count (directed edges; undirected images store each edge
    /// in both endpoint lists and report the undirected count).
    pub num_edges: u64,
    /// Whether in-edge lists exist.
    pub directed: bool,
    /// Whether attribute sections exist.
    pub weighted: bool,
    /// On-SSD encoding of the edge sections.
    pub format: ImageFormat,
    /// Byte offset of the degree section.
    pub deg_offset: u64,
    /// Byte offset of the per-vertex block-length section
    /// (v2/compressed only, else 0).
    pub len_offset: u64,
    /// Byte offset of the out-edge section.
    pub out_edges_offset: u64,
    /// Byte offset of the in-edge section (directed only, else 0).
    pub in_edges_offset: u64,
    /// Byte offset of the out-attribute section (weighted only, else 0).
    pub out_attrs_offset: u64,
    /// Byte offset of the in-attribute section (directed+weighted, else 0).
    pub in_attrs_offset: u64,
    /// Total image size in bytes.
    pub total_bytes: u64,
    /// Restart interval of compressed blocks (v2 only, else 0).
    pub skip_interval: u32,
    /// Image generation (see [`WriteOptions::generation`]); 0 for
    /// frozen images and images written before generations existed.
    pub generation: u32,
}

fn align_up(x: u64) -> u64 {
    x.div_ceil(SECTION_ALIGN) * SECTION_ALIGN
}

/// Bytes of array capacity needed to hold the raw (v1) image of `g`.
pub fn required_capacity(g: &impl ListSource) -> u64 {
    required_capacity_with(g, &WriteOptions::default())
}

/// Bytes of array capacity that hold the image of `g` under `opts`:
/// the size the image would have with every block raw — that of a raw
/// or weighted image, and an upper bound on a compressed one, since a
/// list is only compressed when its block comes out smaller — read off
/// the source's entry counts, encoding nothing.
pub fn required_capacity_with(g: &impl ListSource, opts: &WriteOptions) -> u64 {
    window_capacity(g, opts, 0, g.num_vertices())
}

/// [`required_capacity_with`] for the image of vertices `[lo, hi)`:
/// each present section — degrees, block lengths (v2), out- and
/// in-edges, out- and in-attributes — starts at the first
/// [`SECTION_ALIGN`] boundary after the one before, the first after
/// the header page.
fn window_capacity(g: &dyn ListSource, opts: &WriteOptions, lo: usize, hi: usize) -> u64 {
    let directed = g.is_directed();
    let weighted = g.has_weights();
    let fixed = (hi - lo) as u64 * 4 * if directed { 2 } else { 1 };
    let out = g.entries(EdgeDir::Out, lo..hi) * 4;
    let in_ = directed.then(|| g.entries(EdgeDir::In, lo..hi) * 4);
    [
        Some(fixed),
        (opts.format == ImageFormat::Compressed).then_some(fixed),
        Some(out),
        in_,
        weighted.then_some(out),
        in_.filter(|_| weighted),
    ]
    .into_iter()
    .flatten()
    .fold(SECTION_ALIGN, |at, bytes| align_up(at + bytes))
}

/// A section on its way to the sink: `buf` goes out in whole pages once
/// it holds [`WRITE_CHUNK`] bytes, the bytes past the last page kept.
struct Section {
    /// Where `buf[0]` goes.
    at: u64,
    buf: Vec<u8>,
}

impl Section {
    fn new(at: u64) -> Self {
        let buf = Vec::new();
        Section { at, buf }
    }

    fn spill(&mut self, dst: WriteAt<'_>) -> Result<()> {
        if self.buf.len() >= WRITE_CHUNK {
            let whole = self.buf.len() / SECTION_ALIGN as usize * SECTION_ALIGN as usize;
            dst(self.at, &self.buf[..whole])?;
            self.buf.drain(..whole);
            self.at += whole as u64;
        }
        Ok(())
    }

    /// Writes the rest zero-padded to the next boundary, where the next
    /// section (or the image's end) starts, and returns that boundary.
    fn finish(mut self, dst: WriteAt<'_>) -> Result<u64> {
        let end = align_up(self.at + self.buf.len() as u64);
        if !self.buf.is_empty() {
            self.buf.resize((end - self.at) as usize, 0);
            dst(self.at, &self.buf)?;
        }
        Ok(end)
    }
}

/// Appends `vals` to `buf` as little-endian `u32`s.
fn put_u32s(buf: &mut Vec<u8>, vals: impl ExactSizeIterator<Item = u32>) {
    let start = buf.len();
    buf.resize(start + vals.len() * 4, 0);
    for (at, v) in buf[start..].chunks_exact_mut(4).zip(vals) {
        at.copy_from_slice(&v.to_le_bytes());
    }
}

/// The header page of the image `meta` describes.
fn header_page(meta: &ImageMeta) -> Vec<u8> {
    let mut header = vec![0u8; SECTION_ALIGN as usize];
    let v2 = meta.format == ImageFormat::Compressed;
    header[..8].copy_from_slice(if v2 { MAGIC_V2 } else { MAGIC_V1 });
    let flag = |on: bool, bit: u32| if on { bit } else { 0 };
    let flags = flag(meta.directed, FLAG_DIRECTED) | flag(meta.weighted, FLAG_WEIGHTED);
    header[8..12].copy_from_slice(&flags.to_le_bytes());
    header[12..16].copy_from_slice(&meta.generation.to_le_bytes());
    let mut fields = vec![
        meta.num_vertices,
        meta.num_edges,
        meta.deg_offset,
        meta.out_edges_offset,
        meta.in_edges_offset,
        meta.out_attrs_offset,
        meta.in_attrs_offset,
        meta.total_bytes,
    ];
    if v2 {
        fields.push(meta.len_offset);
        fields.push(meta.skip_interval as u64);
    }
    for (i, f) in fields.iter().enumerate() {
        let at = 16 + i * 8;
        header[at..at + 8].copy_from_slice(&f.to_le_bytes());
    }
    header
}

/// Writes the image of vertices `[lo, hi)` of `g` at offset 0 of
/// `sink`, which holds `capacity` bytes — the one writer behind
/// [`write_image_to`], [`write_image_with`] and
/// [`write_sharded_image`]. Vertex `lo + i` becomes local id `i` in the
/// image (section positions are local); edge *values* stay global
/// vertex ids, so shard lists splice back losslessly.
///
/// One pass over the lists, in the order the bytes become known: each
/// direction's edge section, each list encoded once straight into the
/// write buffer while its degree and flagged block length are recorded,
/// and beside it that direction's attribute section (weighted images,
/// whose blocks are all raw, so [`ListSource::entries`] places every
/// attribute section up front); then the length and degree sections;
/// the header page last.
///
/// # Panics
///
/// Panics when a compressed write meets a list out of ascending order
/// (its gaps would wrap), or one too long for a v2 block: its raw
/// encoding would reach [`RAW_LIST_FLAG`] bytes (degree ≥ 2²⁹), and v2
/// block lengths are `u31` plus the flag bit, so the degree would
/// silently collide with the flag and corrupt the length table — write
/// a raw (v1) image instead.
fn write_window(
    g: &dyn ListSource,
    opts: &WriteOptions,
    lo: usize,
    hi: usize,
    sink: WriteAt<'_>,
    capacity: u64,
) -> Result<ImageMeta> {
    assert!(opts.skip_interval > 0, "skip interval must be positive");
    assert!(
        lo <= hi && hi <= g.num_vertices(),
        "window [{lo}, {hi}) outside graph of {} vertices",
        g.num_vertices()
    );
    let directed = g.is_directed();
    let weighted = g.has_weights();
    let compressed = opts.format == ImageFormat::Compressed;
    let dirs = &[EdgeDir::Out, EdgeDir::In][..1 + usize::from(directed)];
    let mut dst = |offset: u64, data: &[u8]| -> Result<()> {
        let end = offset + data.len() as u64;
        if end > capacity {
            return Err(FgError::InvalidRequest(format!(
                "array capacity {capacity} below image size: a write ends at {end}"
            )));
        }
        sink(offset, data)
    };

    // The fixed-size sections lead the layout, so the edge sections
    // know where to start before anything is written.
    let n = (hi - lo) as u64;
    let fixed = n * 4 * dirs.len() as u64;
    let deg_offset = SECTION_ALIGN;
    let len_offset = if compressed {
        align_up(deg_offset + fixed)
    } else {
        0
    };
    let mut at = align_up(deg_offset.max(len_offset) + fixed);

    // Edge sections, out then in, recording degrees and (v2) flagged
    // block lengths as the lists go by. A weighted image writes each
    // direction's attribute section (f32 bit patterns) in the same pass:
    // its blocks are all raw, so the entry counts place every attribute
    // section, positionally aligned with its edges, before a list is
    // read.
    let mut attrs = [0..0, 0..0];
    if weighted {
        let bytes: Vec<u64> = dirs.iter().map(|&dir| g.entries(dir, lo..hi) * 4).collect();
        let mut end = bytes.iter().fold(at, |at, b| align_up(at + b));
        for (slot, b) in bytes.iter().enumerate() {
            attrs[slot] = end..align_up(end + b);
            end = attrs[slot].end;
        }
    }
    let mut degrees = Vec::with_capacity(fixed as usize / 4);
    let mut lens = Vec::with_capacity(if compressed { degrees.capacity() } else { 0 });
    let mut ids = Vec::new();
    let mut edges_offset = [0u64; 2];
    for (slot, &dir) in dirs.iter().enumerate() {
        edges_offset[slot] = at;
        let mut section = Section::new(at);
        let mut attr_section = weighted.then(|| Section::new(attrs[slot].start));
        let mut v = lo;
        g.runs(dir, lo..hi, &mut |run| {
            degrees.extend(run.offsets.windows(2).map(|w| (w[1] - w[0]) as u32));
            if let Some(attr_section) = &mut attr_section {
                let weights = run.weights.expect("a weighted source hands out weights");
                put_u32s(&mut attr_section.buf, weights.iter().map(|w| w.to_bits()));
                attr_section.spill(&mut dst)?;
            }
            let buf = &mut section.buf;
            if !compressed {
                // A raw section is the run's entries as they are.
                put_u32s(buf, run.ids.iter().map(|u| u.0));
                return section.spill(&mut dst);
            }
            for span in run.spans() {
                let list = &run.ids[span];
                assert!(
                    (list.len() as u64 * 4) < u64::from(RAW_LIST_FLAG),
                    "vertex {v}: degree {} exceeds the v2 per-block length limit \
                     ({} bytes raw ≥ 2^31); use ImageFormat::Raw for this graph",
                    list.len(),
                    list.len() as u64 * 4,
                );
                assert!(list.is_sorted(), "vertex {v}: {dir:?} list out of order");
                let before = buf.len();
                let packed = !weighted && {
                    ids.clear();
                    ids.extend(list.iter().map(|u| u.0));
                    codec::encode_list(&ids, opts.skip_interval, buf)
                };
                if !packed {
                    put_u32s(buf, list.iter().map(|u| u.0));
                }
                let len = (buf.len() - before) as u32;
                lens.push(if packed { len } else { len | RAW_LIST_FLAG });
                v += 1;
            }
            section.spill(&mut dst)
        })?;
        at = section.finish(&mut dst)?;
        if let Some(attr_section) = attr_section {
            if attr_section.finish(&mut dst)? != attrs[slot].end {
                return Err(entries_disagree());
            }
        }
    }
    if weighted {
        if at != attrs[0].start {
            return Err(entries_disagree());
        }
        at = attrs[dirs.len() - 1].end;
    }

    let mut u32s = |offset: u64, vals: &[u32]| {
        let mut section = Section::new(offset);
        for batch in vals.chunks(RUN_LISTS) {
            put_u32s(&mut section.buf, batch.iter().copied());
            section.spill(&mut dst)?;
        }
        section.finish(&mut dst)
    };
    if compressed {
        u32s(len_offset, &lens)?;
    }
    u32s(deg_offset, &degrees)?;

    // Shard windows report the edge-list entries they store (out
    // direction); only the whole image knows the graph's undirected
    // edge count.
    let out_entries: u64 = degrees[..n as usize].iter().map(|&d| u64::from(d)).sum();
    let whole = lo == 0 && hi == g.num_vertices();
    let meta = ImageMeta {
        num_vertices: n,
        num_edges: out_entries / if whole && !directed { 2 } else { 1 },
        directed,
        weighted,
        format: opts.format,
        deg_offset,
        len_offset,
        out_edges_offset: edges_offset[0],
        in_edges_offset: edges_offset[1],
        out_attrs_offset: attrs[0].start,
        in_attrs_offset: attrs[1].start,
        total_bytes: at,
        skip_interval: if compressed { opts.skip_interval } else { 0 },
        generation: opts.generation,
    };
    // The header is the commit record: until it is written, a fresh
    // array holds no image `read_meta` accepts.
    dst(0, &header_page(&meta))?;
    Ok(meta)
}

/// A source whose lists do not add up to its entry counts: the
/// attribute sections were placed from the counts.
fn entries_disagree() -> FgError {
    FgError::InvalidRequest("the source's entry counts disagree with its lists".into())
}

/// Writes the raw (v1) image of `g` at logical offset 0 of `array` —
/// shorthand for [`write_image_with`] and the default options.
///
/// # Errors
///
/// See [`write_image_with`].
pub fn write_image(g: &impl ListSource, array: &SsdArray) -> Result<ImageMeta> {
    write_image_with(g, array, &WriteOptions::default())
}

/// Writes the image of `g` at logical offset 0 of `array` in the
/// format `opts` selects.
///
/// This is the single write pass of a graph's life ("the only write
/// required by FlashGraph is to load a new graph to SSDs", §5.4); all
/// analysis afterwards is read-only.
///
/// # Errors
///
/// See [`write_image_to`].
///
/// # Panics
///
/// See [`write_image_to`].
pub fn write_image_with(
    g: &impl ListSource,
    array: &SsdArray,
    opts: &WriteOptions,
) -> Result<ImageMeta> {
    write_image_to(
        g,
        opts,
        &mut |offset, data| array.write(offset, data),
        array.capacity(),
    )
}

/// Writes the image of `g` under `opts` at offset 0 of `dst`, a sink
/// holding `capacity` bytes ([`required_capacity_with`] is enough).
/// Every write starts and ends on a [`SECTION_ALIGN`] boundary — each
/// section in aligned chunks, its last one zero-padded to where the
/// next section starts — so the sink is handed the whole image
/// `[0, total_bytes)` in whole 4 KiB pages, each byte once: the edge
/// sections first (with a weighted image's attribute sections), then
/// the length and degree sections, the header page last. Writing
/// through a mount (`fg_safs::Safs::write`) therefore leaves every page
/// of the image resident when the mount's pages are 4 KiB, and a write
/// that fails part-way leaves a fresh device with no header
/// [`read_meta`] accepts.
///
/// # Errors
///
/// [`FgError::InvalidRequest`] when the image does not fit in
/// `capacity` bytes, or when a weighted source's lists do not fill the
/// sections its entry counts placed; the source's and the sink's errors
/// are returned as they are.
///
/// # Panics
///
/// Panics if `opts.skip_interval` is zero, and for a compressed image
/// when a list of `g` is not sorted ascending (the
/// [`fg_graph::GraphBuilder`] invariant) or is too long for a v2 block
/// (degree ≥ 2²⁹).
pub fn write_image_to(
    g: &impl ListSource,
    opts: &WriteOptions,
    dst: WriteAt<'_>,
    capacity: u64,
) -> Result<ImageMeta> {
    write_window(g, opts, 0, g.num_vertices(), dst, capacity)
}

/// Even contiguous vertex-range split of `n` vertices into `shards`
/// parts: `shards + 1` ascending bounds with `bounds[s]..bounds[s+1]`
/// the global id range of shard `s`. The first `n % shards` shards
/// take one extra vertex.
///
/// # Panics
///
/// Panics if `shards` is zero.
pub fn shard_bounds(n: usize, shards: usize) -> Vec<usize> {
    assert!(shards > 0, "at least one shard");
    let base = n / shards;
    let extra = n % shards;
    let mut bounds = Vec::with_capacity(shards + 1);
    let mut at = 0usize;
    bounds.push(0);
    for s in 0..shards {
        at += base + usize::from(s < extra);
        bounds.push(at);
    }
    bounds
}

/// Bytes of array capacity that hold each of the `shards` images of
/// the sharded image of `g` under `opts` (same split as
/// [`write_sharded_image`]; exact and upper bound as for
/// [`required_capacity_with`]).
pub fn required_shard_capacities(
    g: &impl ListSource,
    opts: &WriteOptions,
    shards: usize,
) -> Vec<u64> {
    let bounds = shard_bounds(g.num_vertices(), shards);
    (0..shards)
        .map(|s| window_capacity(g, opts, bounds[s], bounds[s + 1]))
        .collect()
}

/// Writes `g` as one image per array, each holding an even contiguous
/// vertex range ([`shard_bounds`]) — the on-SSD layout of sharded
/// execution: shard `s` serves global vertices
/// `bounds[s]..bounds[s+1]` as local ids `0..len`, with edge values
/// kept global so cross-shard edges need no translation. Every shard
/// is itself a complete, self-validating image
/// ([`load_index`]-compatible); `ShardedIndex::load` reassembles the
/// global view.
///
/// # Errors
///
/// See [`write_image_to`] — per shard, against its own array.
pub fn write_sharded_image(
    g: &impl ListSource,
    arrays: &[SsdArray],
    opts: &WriteOptions,
) -> Result<Vec<ImageMeta>> {
    let bounds = shard_bounds(g.num_vertices(), arrays.len());
    arrays
        .iter()
        .enumerate()
        .map(|(s, array)| {
            write_window(
                g,
                opts,
                bounds[s],
                bounds[s + 1],
                &mut |offset, data| array.write(offset, data),
                array.capacity(),
            )
        })
        .collect()
}

/// Reads and validates the header page.
///
/// # Errors
///
/// Returns [`FgError::CorruptImage`] on a bad magic, impossible
/// section table, or counts that do not fit the source; propagates the
/// source's read failures.
pub fn read_meta<S: ByteSource + ?Sized>(src: &S) -> Result<ImageMeta> {
    let capacity = src.capacity();
    let mut header = vec![0u8; SECTION_ALIGN as usize];
    src.read_at(0, &mut header)?;
    let format = match &header[..8] {
        m if m == MAGIC_V1 => ImageFormat::Raw,
        m if m == MAGIC_V2 => ImageFormat::Compressed,
        _ => return Err(FgError::CorruptImage("bad magic".into())),
    };
    let flags = u32::from_le_bytes(header[8..12].try_into().unwrap());
    let generation = u32::from_le_bytes(header[12..16].try_into().unwrap());
    let v2 = format == ImageFormat::Compressed;
    let mut fields = vec![0u64; if v2 { 10 } else { 8 }];
    for (i, f) in fields.iter_mut().enumerate() {
        let at = 16 + i * 8;
        *f = u64::from_le_bytes(header[at..at + 8].try_into().unwrap());
    }
    let meta = ImageMeta {
        num_vertices: fields[0],
        num_edges: fields[1],
        directed: flags & FLAG_DIRECTED != 0,
        weighted: flags & FLAG_WEIGHTED != 0,
        format,
        deg_offset: fields[2],
        len_offset: fields.get(8).copied().unwrap_or(0),
        out_edges_offset: fields[3],
        in_edges_offset: fields[4],
        out_attrs_offset: fields[5],
        in_attrs_offset: fields[6],
        total_bytes: fields[7],
        skip_interval: fields.get(9).map_or(0, |&k| k as u32),
        generation,
    };
    if meta.total_bytes > capacity {
        return Err(FgError::CorruptImage(format!(
            "image claims {} bytes, array holds {capacity}",
            meta.total_bytes
        )));
    }
    if meta.num_vertices > u32::MAX as u64 {
        return Err(FgError::CorruptImage(format!(
            "vertex count {} exceeds u32 id space",
            meta.num_vertices
        )));
    }
    if v2 {
        let k = fields[9];
        if k == 0 || k > MAX_SKIP_INTERVAL as u64 || k % codec::GROUP as u64 != 0 {
            return Err(FgError::CorruptImage(format!(
                "skip interval {k} out of range or off the group grid"
            )));
        }
    }
    // Each present section starts on a boundary, in layout order, past
    // the fixed-size (degree and length) sections before it and at or
    // before the image's end. The edge and attribute sections' sizes
    // come from the degrees, so `load_index` checks their ends.
    if meta.deg_offset != SECTION_ALIGN {
        return Err(FgError::CorruptImage("degree section not on page 1".into()));
    }
    let fixed = meta.num_vertices * 4 * if meta.directed { 2 } else { 1 };
    let mut end = SECTION_ALIGN;
    for (i, (name, offset, present)) in section_table(&meta).into_iter().enumerate() {
        let in_place = if present {
            offset % SECTION_ALIGN == 0 && offset >= end && offset <= meta.total_bytes
        } else {
            offset == 0
        };
        if !in_place {
            return Err(FgError::CorruptImage(format!(
                "{name} section at {offset} out of place (after {end}, up to {})",
                meta.total_bytes
            )));
        }
        if present {
            end = offset.saturating_add(if i < 2 { fixed } else { 0 });
        }
    }
    Ok(meta)
}

/// The sections of the image `meta` describes, in layout order: name,
/// offset, and whether the image has it.
fn section_table(meta: &ImageMeta) -> [(&'static str, u64, bool); 6] {
    let v2 = meta.format == ImageFormat::Compressed;
    [
        ("degree", meta.deg_offset, true),
        ("length", meta.len_offset, v2),
        ("out-edge", meta.out_edges_offset, true),
        ("in-edge", meta.in_edges_offset, meta.directed),
        ("out-attribute", meta.out_attrs_offset, meta.weighted),
        (
            "in-attribute",
            meta.in_attrs_offset,
            meta.weighted && meta.directed,
        ),
    ]
}

/// Where section `i` of [`section_table`] ends at the latest: at the
/// next present section, or the image's end.
fn section_end(meta: &ImageMeta, i: usize) -> u64 {
    section_table(meta)[i + 1..]
        .iter()
        .find(|s| s.2)
        .map_or(meta.total_bytes, |s| s.1)
}

/// Checks that section `i` of [`section_table`], holding the raw
/// 4-byte entries of lists of `degrees`, ends by [`section_end`].
fn check_raw_section(meta: &ImageMeta, i: usize, degrees: &[u64]) -> Result<()> {
    let (name, offset, _) = section_table(meta)[i];
    let bytes = degrees
        .iter()
        .fold(0u64, |s, &d| s.saturating_add(d))
        .saturating_mul(4);
    let limit = section_end(meta, i);
    if offset.saturating_add(bytes) > limit {
        return Err(FgError::CorruptImage(format!(
            "{name} section of {bytes} bytes at {offset} runs past {limit}"
        )));
    }
    Ok(())
}

/// Reads `count` little-endian `u32`s starting at `offset`.
fn read_u32s<S: ByteSource + ?Sized>(src: &S, offset: u64, count: usize) -> Result<Vec<u32>> {
    let mut vals = Vec::with_capacity(count);
    let total = count * 4;
    let mut done = 0usize;
    let mut buf = vec![0u8; WRITE_CHUNK.min(total.max(1))];
    while done < total {
        let chunk = (total - done).min(buf.len());
        src.read_at(offset + done as u64, &mut buf[..chunk])?;
        for quad in buf[..chunk].chunks_exact(4) {
            vals.push(u32::from_le_bytes(quad.try_into().unwrap()));
        }
        done += chunk;
    }
    Ok(vals)
}

/// One direction's validated block-length table plus the skip tables
/// of its large compressed lists, keyed by vertex id.
type PackedDirTables = (Vec<u32>, HashMap<u32, Box<[u32]>>);

/// Reads direction `d`'s (0 out, 1 in) v2 block table, validates it
/// against its degrees and section bounds, and loads the skip tables of
/// its large compressed lists: the inputs [`GraphIndex::build_packed`]
/// needs.
fn load_packed_dir<S: ByteSource + ?Sized>(
    src: &S,
    meta: &ImageMeta,
    d: usize,
    degrees: &[u64],
) -> Result<PackedDirTables> {
    let n = degrees.len();
    let blocks = read_u32s(src, meta.len_offset + (d * n * 4) as u64, n)?;
    let edge_base = [meta.out_edges_offset, meta.in_edges_offset][d];
    let which = ["out", "in"][d];
    let section_end = section_end(meta, 2 + d);
    let k = meta.skip_interval;
    let mut offset = edge_base;
    let mut interval_start = edge_base;
    let mut skips = HashMap::new();
    for (i, (&d, &b)) in degrees.iter().zip(&blocks).enumerate() {
        let len = (b & !RAW_LIST_FLAG) as u64;
        if b & RAW_LIST_FLAG != 0 {
            if len != d * 4 {
                return Err(FgError::CorruptImage(format!(
                    "{which} vertex {i}: raw block of {len} bytes for degree {d}"
                )));
            }
        } else {
            if meta.weighted {
                return Err(FgError::CorruptImage(format!(
                    "{which} vertex {i}: compressed block in a weighted image"
                )));
            }
            let table = skip_entries(d, k) * 4;
            if (d as usize) < TINY_RAW_DEGREE || len <= table || len >= d * 4 {
                return Err(FgError::CorruptImage(format!(
                    "{which} vertex {i}: compressed block of {len} bytes for degree {d}"
                )));
            }
            if table > 0 {
                // A hub's table (see `codec::skip_entries`).
                let entries = read_u32s(src, offset, (table / 4) as usize)?;
                let payload = len - table;
                let mut prev = 0u64;
                for (e, &off) in entries.iter().enumerate() {
                    if (off as u64) <= prev && e > 0 || (off as u64) >= payload || off == 0 {
                        return Err(FgError::CorruptImage(format!(
                            "{which} vertex {i}: skip entry {e} offset {off} invalid"
                        )));
                    }
                    prev = off as u64;
                }
                skips.insert(i as u32, entries.into_boxed_slice());
            }
        }
        if i % crate::index::CHECKPOINT_INTERVAL == 0 {
            interval_start = offset;
        }
        offset += len;
        if offset > section_end {
            return Err(FgError::CorruptImage(format!(
                "{which} blocks overrun their section ({offset} past {section_end})"
            )));
        }
        // The index keeps block ends relative to their checkpoint in 31
        // bits.
        if offset - interval_start >= RAW_LIST_FLAG as u64 {
            return Err(FgError::CorruptImage(format!(
                "{which} vertex {i}: the blocks of its checkpoint interval span 2 GiB or more"
            )));
        }
    }
    Ok((blocks, skips))
}

/// Loads the header and rebuilds the compact [`GraphIndex`] by
/// streaming the degree section — plus, for compressed images, the
/// length section and the skip tables of large lists — the "init"
/// phase of Table 2.
///
/// # Errors
///
/// Propagates [`read_meta`] failures and section reads, and returns
/// [`FgError::CorruptImage`] when a v2 length table contradicts the
/// degrees, or a section's lists overrun it.
pub fn load_index<S: ByteSource + ?Sized>(src: &S) -> Result<(ImageMeta, GraphIndex)> {
    let meta = read_meta(src)?;
    let n = meta.num_vertices as usize;
    let v2 = meta.format == ImageFormat::Compressed;
    let edge_base = [meta.out_edges_offset, meta.in_edges_offset];
    let attr_base =
        [meta.out_attrs_offset, meta.in_attrs_offset].map(|at| meta.weighted.then_some(at));
    let (mut degrees, mut tables) = (Vec::new(), Vec::new());
    for d in 0..1 + usize::from(meta.directed) {
        let at = (d * n * 4) as u64;
        let dir_degrees: Vec<u64> = read_u32s(src, meta.deg_offset + at, n)?
            .into_iter()
            .map(u64::from)
            .collect();
        // The edge sections of a v1 image and the attribute sections
        // are raw runs of the degrees' lengths; v2 blocks are checked as
        // their lengths are loaded, with the hub tables.
        if v2 {
            tables.push(load_packed_dir(src, &meta, d, &dir_degrees)?);
        } else {
            check_raw_section(&meta, 2 + d, &dir_degrees)?;
        }
        if meta.weighted {
            check_raw_section(&meta, 4 + d, &dir_degrees)?;
        }
        degrees.push(dir_degrees);
    }
    let index = if v2 {
        let mut dirs = (tables.into_iter().zip(&degrees).enumerate()).map(
            |(d, ((blocks, skips), degrees))| PackedDirInput {
                degrees,
                blocks,
                skips,
                edge_base: edge_base[d],
                attr_base: attr_base[d],
            },
        );
        GraphIndex::build_packed(meta.skip_interval, dirs.next().unwrap(), dirs.next())
    } else {
        let in_degrees = degrees.get(1).map(Vec::as_slice);
        GraphIndex::build(
            &degrees[0],
            in_degrees,
            edge_base[0],
            edge_base[1],
            attr_base[0],
            attr_base[1],
        )
    };
    Ok((meta, index))
}

/// Where [`write_image_to`] puts image bytes: a function that stores
/// `data` at `offset`. [`write_image_with`] passes the raw device; a
/// compaction collects the pieces and hands them to the next
/// generation's mount in layout order, so the image it writes stays
/// resident.
pub type WriteAt<'a> = &'a mut dyn FnMut(u64, &[u8]) -> Result<()>;

/// Bytes one sequential read of an [`ImageLists`] sweep asks its
/// source for — the engine's default stream stride.
const READ_CHUNK: usize = WRITE_CHUNK;

/// Locates the whole list of `v` in `dir` and checks it lies inside
/// the image.
fn locate_list(
    meta: &ImageMeta,
    index: &GraphIndex,
    v: VertexId,
    dir: EdgeDir,
) -> Result<ListSlice> {
    let slice = index.locate_slice(v, dir, 0, u64::MAX);
    if slice.loc.bytes > 0 && slice.loc.offset + slice.loc.bytes > meta.total_bytes {
        return Err(FgError::CorruptImage(format!(
            "list of {v} ends at {} past image of {} bytes",
            slice.loc.offset + slice.loc.bytes,
            meta.total_bytes
        )));
    }
    Ok(slice)
}

/// Validates and decodes the fetched `block` of `v`'s located list,
/// appending its edges to `out`.
fn decode_block(block: &[u8], slice: &ListSlice, v: VertexId, out: &mut Vec<u32>) -> Result<()> {
    match slice.decode {
        SliceDecode::Raw => {
            if block.len() as u64 != slice.loc.degree * 4 {
                return Err(FgError::CorruptImage(format!(
                    "raw list of {v}: {} bytes for degree {}",
                    block.len(),
                    slice.loc.degree
                )));
            }
            out.extend(
                block
                    .chunks_exact(4)
                    .map(|q| u32::from_le_bytes(q.try_into().unwrap())),
            );
            Ok(())
        }
        SliceDecode::Varint(p) => codec::decode_list_into(block, slice.loc.degree, p.k, out),
    }
}

/// Reads back and fully validates one vertex's edge list from the
/// image — the fallible decode surface the corrupt-image robustness
/// tests drive. The engine's hot path instead decodes incrementally
/// out of the page cache (`flashgraph::PageVertex`); this helper is
/// for tools, tests, verification passes and ingest-time
/// canonicalization: one read of exactly the list's bytes.
///
/// # Errors
///
/// Propagates the source's read failures and returns
/// [`FgError::CorruptImage`] when the block does not decode to
/// exactly `degree` sorted edges (truncated or bit-flipped sections,
/// groups running past their block, inconsistent skip tables).
///
/// # Panics
///
/// Panics if `v` is out of range (same contract as
/// [`GraphIndex::locate`]).
pub fn read_list<S: ByteSource + ?Sized>(
    src: &S,
    meta: &ImageMeta,
    index: &GraphIndex,
    v: VertexId,
    dir: EdgeDir,
) -> Result<Vec<u32>> {
    let slice = locate_list(meta, index, v, dir)?;
    let mut list = Vec::with_capacity(slice.loc.degree as usize);
    if slice.loc.bytes > 0 {
        let mut block = vec![0u8; slice.loc.bytes as usize];
        src.read_at(slice.loc.offset, &mut block)?;
        decode_block(&block, &slice, v, &mut list)?;
    }
    Ok(list)
}

/// One forward pass over a section: hands out byte ranges at
/// ascending offsets from a buffer it extends with back-to-back reads
/// of `chunk` bytes (one longer read for a range longer than that),
/// so the source is asked for every byte of the section at most once.
struct Sweep<'a, S: ?Sized> {
    src: &'a S,
    chunk: u64,
    /// End of the section; no read goes past it.
    end: u64,
    /// Offset of `buf[0]`.
    at: u64,
    buf: Vec<u8>,
}

impl<'a, S: ByteSource + ?Sized> Sweep<'a, S> {
    fn new(src: &'a S, chunk: usize, section: EdgeListLoc) -> Self {
        Sweep {
            src,
            chunk: chunk as u64,
            end: section.offset + section.bytes,
            at: section.offset,
            buf: Vec::new(),
        }
    }

    /// The `len` bytes at `offset`, which must lie inside the section
    /// and not before the previous call's range.
    fn bytes(&mut self, offset: u64, len: u64) -> Result<&[u8]> {
        if offset < self.at || offset + len > self.end {
            return Err(FgError::CorruptImage(format!(
                "range [{offset}, {}) outside the rest of its section [{}, {})",
                offset + len,
                self.at,
                self.end
            )));
        }
        let read_to = self.at + self.buf.len() as u64;
        if offset + len > read_to {
            // Keep the unread tail (the head of this range), drop what
            // lies before it, and read on from where the buffer ended.
            let keep = offset.min(read_to);
            self.buf.drain(..(keep - self.at) as usize);
            self.at = keep;
            let want = (offset + len - read_to)
                .max(self.chunk)
                .min(self.end - read_to);
            let have = self.buf.len();
            self.buf.resize(have + want as usize, 0);
            self.src.read_at(read_to, &mut self.buf[have..])?;
        }
        let start = (offset - self.at) as usize;
        Ok(&self.buf[start..start + len as usize])
    }
}

/// An image read back as a [`ListSource`], each list merged with
/// `view`'s ops ([`DeltaView::merged_list`]): what a compaction writes
/// from, building no graph. A pass over a direction sweeps its section
/// (and a weighted image's attribute section) once in 4 MiB reads,
/// validating each block like [`read_list`]; entry counts are the
/// index's degrees plus [`DeltaView::degree_diff`].
pub struct ImageLists<'a, S: ?Sized> {
    src: &'a S,
    meta: &'a ImageMeta,
    index: &'a GraphIndex,
    view: Option<&'a DeltaView>,
    /// Bytes one read of a sweep asks for.
    chunk: usize,
}

impl<'a, S: ByteSource + ?Sized> ImageLists<'a, S> {
    /// The lists of the image `meta` and `index` describe, off `src`.
    pub fn new(
        src: &'a S,
        meta: &'a ImageMeta,
        index: &'a GraphIndex,
        view: Option<&'a DeltaView>,
    ) -> Self {
        ImageLists {
            src,
            meta,
            index,
            view,
            chunk: READ_CHUNK,
        }
    }
}

impl<S: ByteSource + ?Sized> ListSource for ImageLists<'_, S> {
    fn num_vertices(&self) -> usize {
        self.meta.num_vertices as usize
    }
    fn is_directed(&self) -> bool {
        self.meta.directed
    }
    fn has_weights(&self) -> bool {
        self.meta.weighted
    }
    fn entries(&self, dir: EdgeDir, vs: Range<usize>) -> u64 {
        let first = VertexId::from_index(vs.start);
        let base = self.index.locate_extent(first, vs.len() as u64, dir).degree;
        let Some(view) = self.view else { return base };
        let diff: i64 = vs.map(|i| view.degree_diff(VertexId(i as u32), dir)).sum();
        base.saturating_add_signed(diff)
    }
    fn runs(&self, dir: EdgeDir, vs: Range<usize>, each: RunSink<'_>) -> Result<()> {
        let (meta, index) = (self.meta, self.index);
        let first = VertexId::from_index(vs.start);
        let section = index.locate_extent(first, vs.len() as u64, dir);
        let mut edges = Sweep::new(self.src, self.chunk, section);
        // Weighted images keep every block raw, so the attribute run
        // has the edge section's shape, `shift` bytes further on.
        let mut attrs = None;
        if meta.weighted && !vs.is_empty() {
            let mut run = section;
            run.offset = (index.locate_attrs(first, dir))
                .ok_or_else(|| FgError::CorruptImage("weighted image has no attributes".into()))?
                .offset;
            attrs = Some((
                Sweep::new(self.src, self.chunk, run),
                run.offset - section.offset,
            ));
        }
        let (mut base, mut base_ws) = (Vec::new(), Vec::new());
        let (mut offsets, mut ids, mut ws) = (vec![0u64], Vec::new(), Vec::new());
        for i in vs.clone() {
            let v = VertexId::from_index(i);
            let slice = locate_list(meta, index, v, dir)?;
            let (at, bytes) = (slice.loc.offset, slice.loc.bytes);
            base.clear();
            decode_block(edges.bytes(at, bytes)?, &slice, v, &mut base)?;
            base_ws.clear();
            if let Some((attrs, shift)) = &mut attrs {
                let run = attrs.bytes(at + *shift, bytes)?.chunks_exact(4);
                base_ws.extend(run.map(|q| f32::from_le_bytes(q.try_into().unwrap())));
            }
            if let Some(view) = self.view.filter(|view| view.find(v, dir).is_some()) {
                let weights = meta.weighted.then_some(&base_ws[..]);
                let (merged, merged_ws) = view.merged_list(v, dir, &base, weights);
                (base, base_ws) = (merged, merged_ws.unwrap_or_default());
            }
            ids.extend(base.iter().map(|&u| VertexId(u)));
            ws.extend_from_slice(&base_ws);
            offsets.push(ids.len() as u64);
            if offsets.len() > RUN_LISTS || i + 1 == vs.end {
                let weights = meta.weighted.then_some(&ws[..]);
                each(ListRun {
                    offsets: &offsets,
                    ids: &ids,
                    weights,
                })?;
                offsets.truncate(1);
                ids.clear();
                ws.clear();
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_graph::{fixtures, gen, Graph};
    use fg_safs::{Safs, SafsConfig};
    use fg_ssdsim::ArrayConfig;

    fn image_of_with(g: &Graph, opts: &WriteOptions) -> (SsdArray, ImageMeta, GraphIndex) {
        let array =
            SsdArray::new_mem(ArrayConfig::small_test(), required_capacity_with(g, opts)).unwrap();
        let meta = write_image_with(g, &array, opts).unwrap();
        let (meta2, index) = load_index(&array).unwrap();
        assert_eq!(meta, meta2);
        (array, meta, index)
    }

    fn image_of(g: &Graph) -> (SsdArray, ImageMeta, GraphIndex) {
        image_of_with(g, &WriteOptions::default())
    }

    /// Reads the edge list of `v` back from the image, validated.
    fn read_edges(
        array: &SsdArray,
        meta: &ImageMeta,
        index: &GraphIndex,
        v: VertexId,
        dir: EdgeDir,
    ) -> Vec<u32> {
        read_list(array, meta, index, v, dir).unwrap()
    }

    fn both_formats() -> [WriteOptions; 2] {
        [WriteOptions::default(), WriteOptions::compressed()]
    }

    /// `array` as a source that logs each read it is asked for.
    struct Logged<'a> {
        array: &'a SsdArray,
        reads: std::cell::RefCell<Vec<(u64, u64)>>,
    }

    impl ByteSource for Logged<'_> {
        fn capacity(&self) -> u64 {
            self.array.capacity()
        }

        fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
            self.reads.borrow_mut().push((offset, buf.len() as u64));
            self.array.read(offset, buf)
        }
    }

    /// A source whose every read fails.
    struct Broken;

    impl ByteSource for Broken {
        fn capacity(&self) -> u64 {
            u64::MAX
        }

        fn read_at(&self, _: u64, _: &mut [u8]) -> Result<()> {
            Err(FgError::InvalidRequest("gone".into()))
        }
    }

    #[test]
    fn generation_round_trips_and_defaults_to_zero() {
        let g = fixtures::diamond();
        let (_, meta, _) = image_of(&g);
        assert_eq!(meta.generation, 0);
        for opts in both_formats() {
            let opts = opts.with_generation(7);
            let (array, meta, _) = image_of_with(&g, &opts);
            assert_eq!(meta.generation, 7);
            assert_eq!(read_meta(&array).unwrap().generation, 7);
        }
    }

    type Lists = Vec<(Vec<VertexId>, Option<Vec<f32>>)>;

    /// Every list of `src`, out then (directed) in, with its weights.
    fn lists_of<S: ListSource + ?Sized>(src: &S) -> Result<Lists> {
        let dirs: &[EdgeDir] = if src.is_directed() {
            &[EdgeDir::Out, EdgeDir::In]
        } else {
            &[EdgeDir::Out]
        };
        let mut lists = Vec::new();
        for &dir in dirs {
            src.runs(dir, 0..src.num_vertices(), &mut |run| {
                for span in run.spans() {
                    let ws = run.weights.map(|w| w[span.clone()].to_vec());
                    lists.push((run.ids[span].to_vec(), ws));
                }
                Ok(())
            })?;
        }
        Ok(lists)
    }

    /// The lists an image hands back, read off `src` with no view.
    fn image_lists<S: ByteSource + ?Sized>(
        src: &S,
        meta: &ImageMeta,
        index: &GraphIndex,
    ) -> Result<Lists> {
        lists_of(&ImageLists::new(src, meta, index, None))
    }

    #[test]
    fn image_lists_round_trip_both_formats() {
        for opts in both_formats() {
            for g in [
                fixtures::diamond(),
                fixtures::complete(9),
                gen::rmat(7, 6, gen::RmatSkew::default(), 11),
            ] {
                let (array, meta, index) = image_of_with(&g, &opts);
                let source = ImageLists::new(&array, &meta, &index, None);
                assert_eq!(source.num_vertices(), g.num_vertices());
                assert_eq!(source.is_directed(), g.is_directed());
                assert!(!source.has_weights());
                let n = g.num_vertices();
                for dir in [EdgeDir::Out, EdgeDir::In] {
                    for vs in [0..n, 1..n / 2, n / 2..n / 2] {
                        let want = ListSource::entries(&g, dir, vs.clone());
                        assert_eq!(source.entries(dir, vs), want);
                    }
                }
                assert_eq!(lists_of(&source).unwrap(), lists_of(&g).unwrap());
            }
        }
    }

    #[test]
    fn image_lists_preserve_weights() {
        // A weighted image hands its attribute runs back beside the
        // lists, in both formats (compressed keeps weighted blocks raw).
        for opts in both_formats() {
            let g = fixtures::weighted_square();
            let (array, meta, index) = image_of_with(&g, &opts);
            assert!(meta.weighted);
            let source = ImageLists::new(&array, &meta, &index, None);
            assert!(source.has_weights());
            let lists = lists_of(&source).unwrap();
            assert!(lists.iter().all(|(_, ws)| ws.is_some()));
            assert_eq!(lists, lists_of(&g).unwrap());
        }
    }

    #[test]
    fn image_lists_sweep_each_section_once_at_any_chunk_size() {
        // Chunks shorter than a list, chunks that cut lists in two,
        // and the real one (every test image fits in it). Reading the
        // lists back and writing an image from them (a compaction with
        // nothing pending) both sweep each edge and attribute section
        // once, and the rewrite is the image byte for byte.
        let rmat = gen::rmat(8, 6, gen::RmatSkew::default(), 3);
        for opts in both_formats() {
            for g in [
                fixtures::weighted_square(),
                fixtures::star(400),
                gen::with_random_weights(&rmat, 10.0, 5),
                rmat.clone(),
            ] {
                let (array, meta, index) = image_of_with(&g, &opts);
                let n = meta.num_vertices;
                let dirs: &[EdgeDir] = if meta.directed {
                    &[EdgeDir::Out, EdgeDir::In]
                } else {
                    &[EdgeDir::Out]
                };
                let sections = dirs
                    .iter()
                    .map(|&d| index.locate_extent(VertexId(0), n, d))
                    .filter(|s| s.bytes > 0);
                let section_bytes: Vec<u64> = sections
                    .flat_map(|s| std::iter::repeat_n(s.bytes, 1 + meta.weighted as usize))
                    .collect();
                let mut image = vec![0u8; meta.total_bytes as usize];
                array.read(0, &mut image).unwrap();
                for chunk in [1usize, 7, 64, 4096, 5000, READ_CHUNK] {
                    let what =
                        format!("{:?} weighted {} chunk {chunk}", opts.format, meta.weighted);
                    let src = Logged {
                        array: &array,
                        reads: Default::default(),
                    };
                    let lists = ImageLists {
                        chunk,
                        ..ImageLists::new(&src, &meta, &index, None)
                    };
                    let swept_once = |mut reads: Vec<(u64, u64)>, what: &str| {
                        let want: u64 = section_bytes.iter().sum();
                        assert_eq!(reads.iter().map(|r| r.1).sum::<u64>(), want, "{what}");
                        let most: u64 =
                            section_bytes.iter().map(|b| b.div_ceil(chunk as u64)).sum();
                        assert!(reads.len() as u64 <= most, "{what}: {} reads", reads.len());
                        reads.sort_unstable();
                        assert!(
                            reads.windows(2).all(|w| w[0].0 + w[0].1 <= w[1].0),
                            "{what}: a byte was read twice"
                        );
                    };
                    assert_eq!(lists_of(&lists).unwrap(), lists_of(&g).unwrap(), "{what}");
                    swept_once(src.reads.take(), &what);

                    let copy =
                        SsdArray::new_mem(ArrayConfig::small_test(), array.capacity()).unwrap();
                    assert_eq!(
                        write_image_with(&lists, &copy, &opts).unwrap(),
                        meta,
                        "{what}"
                    );
                    swept_once(src.reads.take(), &format!("{what}, rewrite"));
                    let mut rewritten = vec![0u8; image.len()];
                    copy.read(0, &mut rewritten).unwrap();
                    assert!(rewritten == image, "{what}: the rewrite differs");
                }
            }
        }
    }

    /// `g` as a [`ListSource`] that counts the passes asked of it and
    /// reports its entry counts divided by `shrink`.
    struct Counted<'a> {
        g: &'a Graph,
        shrink: u64,
        runs: std::cell::Cell<usize>,
    }

    impl ListSource for Counted<'_> {
        fn num_vertices(&self) -> usize {
            self.g.num_vertices()
        }
        fn is_directed(&self) -> bool {
            self.g.is_directed()
        }
        fn has_weights(&self) -> bool {
            self.g.has_weights()
        }
        fn entries(&self, dir: EdgeDir, vs: Range<usize>) -> u64 {
            ListSource::entries(self.g, dir, vs) / self.shrink
        }
        fn runs(&self, dir: EdgeDir, vs: Range<usize>, each: RunSink<'_>) -> Result<()> {
            self.runs.set(self.runs.get() + 1);
            self.g.runs(dir, vs, each)
        }
    }

    #[test]
    fn a_write_asks_one_pass_per_direction_weighted_or_not() {
        let rmat = gen::rmat(7, 6, gen::RmatSkew::default(), 9);
        let mut b = fg_graph::GraphBuilder::undirected();
        for (s, d) in rmat.edges() {
            b.add_weighted_edge(s, d, 1.0 + (s.0 % 7) as f32);
        }
        for g in [
            gen::with_random_weights(&rmat, 10.0, 2),
            b.build(),
            fixtures::weighted_square(),
            rmat,
        ] {
            for opts in both_formats() {
                let what = format!(
                    "{:?} directed {} weighted {}",
                    opts.format,
                    g.is_directed(),
                    g.has_weights()
                );
                let (array, meta, _) = image_of_with(&g, &opts);
                let src = Counted {
                    g: &g,
                    shrink: 1,
                    runs: Default::default(),
                };
                let copy = SsdArray::new_mem(ArrayConfig::small_test(), array.capacity()).unwrap();
                assert_eq!(
                    write_image_with(&src, &copy, &opts).unwrap(),
                    meta,
                    "{what}"
                );
                let dirs = 1 + usize::from(g.is_directed());
                assert_eq!(src.runs.get(), dirs, "{what}");
            }
        }
    }

    #[test]
    fn a_source_whose_counts_miss_its_lists_writes_no_image() {
        // The attribute sections are placed from the entry counts, so a
        // source that under-counts by more than the padding to a page
        // boundary must fail the write, not overlap them.
        let g = gen::with_random_weights(&gen::rmat(9, 8, gen::RmatSkew::default(), 4), 5.0, 1);
        let cap = required_capacity(&g);
        let array = SsdArray::new_mem(ArrayConfig::small_test(), cap).unwrap();
        let short = Counted {
            g: &g,
            shrink: 2,
            runs: Default::default(),
        };
        let err = write_image(&short, &array).unwrap_err();
        assert!(matches!(err, FgError::InvalidRequest(_)), "{err}");
        assert!(read_meta(&array).is_err(), "no header was committed");
    }

    #[test]
    fn back_readers_agree_across_sources_and_keep_their_checks() {
        let g = gen::rmat(7, 6, gen::RmatSkew::default(), 11);
        for opts in both_formats() {
            let what = format!("{:?}", opts.format);
            let (array, meta, index) = image_of_with(&g, &opts);
            let safs = Safs::new(SafsConfig::default(), array.clone()).unwrap();
            let streaming = safs.streaming();
            let busy = g.vertices().find(|&v| g.out_degree(v) > 0).unwrap();
            // A list the header says lies past the image.
            let short = ImageMeta {
                total_bytes: meta.out_edges_offset,
                ..meta.clone()
            };
            // The device, a mount over it and the mount's streaming
            // view read the same image.
            let sources: [&dyn ByteSource; 3] = [&array, &safs, &streaming];
            for src in sources {
                assert_eq!(read_meta(src).unwrap(), meta, "{what}");
                assert_eq!(load_index(src).unwrap().0, meta, "{what}");
                for v in g.vertices() {
                    for dir in [EdgeDir::Out, EdgeDir::In] {
                        let want: Vec<u32> = g.csr(dir).neighbors(v).iter().map(|n| n.0).collect();
                        assert_eq!(read_list(src, &meta, &index, v, dir).unwrap(), want);
                    }
                }
                assert_eq!(
                    image_lists(src, &meta, &index).unwrap(),
                    lists_of(&g).unwrap(),
                    "{what}"
                );
                assert!(matches!(
                    read_list(src, &short, &index, busy, EdgeDir::Out),
                    Err(FgError::CorruptImage(_))
                ));
                assert!(matches!(
                    image_lists(src, &short, &index),
                    Err(FgError::CorruptImage(_))
                ));
            }
            // A source that holds less than the header claims.
            let cut =
                SsdArray::new_mem(ArrayConfig::small_test(), meta.total_bytes - SECTION_ALIGN)
                    .unwrap();
            let mut header = vec![0u8; SECTION_ALIGN as usize];
            array.read(0, &mut header).unwrap();
            cut.write(0, &header).unwrap();
            let cut_safs = Safs::new(SafsConfig::default(), cut.clone()).unwrap();
            let cut_streaming = cut_safs.streaming();
            let sources: [&dyn ByteSource; 3] = [&cut, &cut_safs, &cut_streaming];
            for src in sources {
                assert!(matches!(read_meta(src), Err(FgError::CorruptImage(_))));
            }
            // A source that fails: the error comes back as it is.
            assert!(matches!(
                read_meta(&Broken),
                Err(FgError::InvalidRequest(_))
            ));
            assert!(matches!(
                read_list(&Broken, &meta, &index, busy, EdgeDir::Out),
                Err(FgError::InvalidRequest(_))
            ));
            assert!(matches!(
                image_lists(&Broken, &meta, &index),
                Err(FgError::InvalidRequest(_))
            ));
        }
    }

    #[test]
    fn required_capacity_bounds_every_image_and_is_exact_when_blocks_stay_raw() {
        each_image(|s| {
            let what = &s.what;
            if s.opts.format == ImageFormat::Raw || s.g.has_weights() {
                assert_eq!(s.cap, s.meta.total_bytes, "{what}");
            } else {
                assert!(s.cap >= s.meta.total_bytes, "{what}");
            }
            if (s.lo, s.hi) != (0, s.g.num_vertices()) {
                return;
            }
            // The whole graph: `required_capacity_with` sizes it, and
            // the sink form writes what `write_image_with` writes.
            let opts = s.opts.with_generation(3);
            assert_eq!(required_capacity_with(s.g, &opts), s.cap, "{what}");
            let array = SsdArray::new_mem(ArrayConfig::small_test(), s.cap).unwrap();
            let meta = write_image_to(
                s.g,
                &opts,
                &mut |offset, data| array.write(offset, data),
                s.cap,
            )
            .unwrap();
            assert_eq!(meta.generation, 3, "{what}");
            assert_eq!(
                meta,
                write_image_with(s.g, &array, &opts).unwrap(),
                "{what}"
            );
            let (loaded, index) = load_index(&array).unwrap();
            assert_eq!(meta, loaded, "{what}");
            assert_eq!(
                image_lists(&array, &meta, &index).unwrap(),
                lists_of(s.g).unwrap(),
                "{what}"
            );
        });
    }

    /// One image shape the writer must handle, written to an array.
    struct Shape<'g> {
        what: String,
        g: &'g Graph,
        opts: WriteOptions,
        /// The image holds vertices `[lo, hi)` of `g`.
        lo: usize,
        hi: usize,
        /// The capacity [`required_shard_capacities`] gives the window
        /// (and [`required_capacity_with`] the whole graph).
        cap: u64,
        meta: ImageMeta,
        /// `[0, total_bytes)` of the array the image went to.
        image: Vec<u8>,
    }

    impl Shape<'_> {
        /// Writes the image again, to `dst` holding `capacity` bytes.
        fn write(&self, dst: WriteAt<'_>, capacity: u64) -> Result<ImageMeta> {
            write_window(self.g, &self.opts, self.lo, self.hi, dst, capacity)
        }
    }

    /// Every image shape the writer must handle — raw and compressed,
    /// weighted, a hub list, the whole graph and one shard's window.
    fn each_image(mut check: impl FnMut(&Shape<'_>)) {
        for g in [
            gen::rmat(8, 6, gen::RmatSkew::default(), 21),
            fixtures::weighted_square(),
            fixtures::star(400),
        ] {
            let n = g.num_vertices();
            for opts in both_formats() {
                for (lo, hi) in [(0, n), (n / 4, 3 * n / 4)] {
                    let cap = window_capacity(&g, &opts, lo, hi);
                    let array = SsdArray::new_mem(ArrayConfig::small_test(), cap).unwrap();
                    let sink = &mut |offset, data: &[u8]| array.write(offset, data);
                    let meta = write_window(&g, &opts, lo, hi, sink, cap).unwrap();
                    let mut image = vec![0u8; meta.total_bytes as usize];
                    array.read(0, &mut image).unwrap();
                    check(&Shape {
                        what: format!("{:?} [{lo}, {hi}) of {n}", opts.format),
                        g: &g,
                        opts,
                        lo,
                        hi,
                        cap,
                        meta,
                        image,
                    });
                }
            }
        }
    }

    /// FNV-1a, 64-bit: a hash of image bytes that no toolchain changes.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    #[test]
    fn images_keep_their_bytes() {
        // `[0, total_bytes)` of every shape, hashed: a writer change
        // that moves, drops or adds a byte of any section fails here.
        let pinned = [
            ("Raw [0, 256) of 256", 0x2b1d_d530_95ff_5ad2),
            ("Raw [64, 192) of 256", 0x0690_ba35_9a84_12d2),
            ("Compressed [0, 256) of 256", 0x3203_9692_88de_92b7),
            ("Compressed [64, 192) of 256", 0xce3c_1860_c7dd_bb21),
            ("Raw [0, 4) of 4", 0x7a7f_01b4_075f_0342),
            ("Raw [1, 3) of 4", 0x8223_13a7_df1b_a230),
            ("Compressed [0, 4) of 4", 0x88d2_eee2_5f3b_b10a),
            ("Compressed [1, 3) of 4", 0x9a37_502b_2da1_5574),
            ("Raw [0, 401) of 401", 0x2e91_a1d5_3d59_1e51),
            ("Raw [100, 300) of 401", 0x31b3_165b_2544_c030),
            ("Compressed [0, 401) of 401", 0x2fde_b9a2_0d2b_6d7f),
            ("Compressed [100, 300) of 401", 0x650d_15f4_9628_2d08),
        ];
        let mut got = Vec::new();
        each_image(|s| got.push((s.what.clone(), fnv1a(&s.image))));
        assert_eq!(got.len(), pinned.len());
        for ((what, hash), (want_what, want)) in got.iter().zip(pinned) {
            assert_eq!(what, want_what);
            assert_eq!(*hash, want, "{what}: {hash:#018x}");
        }
    }

    #[test]
    fn the_header_is_the_commit_record() {
        // A sink that dies on its k-th write, for every k the image
        // takes, leaves a fresh array with no image in it.
        each_image(|s| {
            let total = s.meta.total_bytes;
            let mut writes = 0;
            let mut count = |_, _: &[u8]| {
                writes += 1;
                Ok(())
            };
            s.write(&mut count, total).unwrap();
            for k in 1..=writes {
                let what = format!("{}: dies at write {k} of {writes}", s.what);
                let array = SsdArray::new_mem(ArrayConfig::small_test(), total).unwrap();
                let mut seen = 0;
                let mut dies = |offset, data: &[u8]| {
                    seen += 1;
                    if seen == k {
                        return Err(FgError::InvalidRequest("the sink died".into()));
                    }
                    array.write(offset, data)
                };
                let err = s.write(&mut dies, total).unwrap_err();
                assert!(matches!(err, FgError::InvalidRequest(_)), "{what}");
                assert!(
                    matches!(read_meta(&array), Err(FgError::CorruptImage(_))),
                    "{what}"
                );
            }
        });
    }

    #[test]
    fn write_image_to_a_mount_writes_the_array_image_in_whole_pages_and_keeps_it() {
        each_image(|s| {
            let what = &s.what;
            let total = s.meta.total_bytes;
            let direct = SsdArray::new_mem(ArrayConfig::small_test(), total).unwrap();
            s.write(&mut |offset, data| direct.write(offset, data), total)
                .unwrap();
            let array = SsdArray::new_mem(ArrayConfig::small_test(), total).unwrap();
            let mut safs = Safs::new(SafsConfig::default(), array).unwrap();
            let mut writes = Vec::new();
            let mut sink = |offset: u64, data: &[u8]| {
                writes.push((offset, data.len() as u64));
                safs.write(offset, data)
            };
            assert_eq!(s.write(&mut sink, total).unwrap(), s.meta, "{what}");
            // The sink saw the image in aligned pieces, each byte once,
            // the header page last.
            assert_eq!(writes.last(), Some(&(0, SECTION_ALIGN)), "{what}");
            writes.sort_unstable();
            let mut at = 0;
            for &(offset, len) in &writes {
                assert_eq!(offset, at, "{what}");
                assert_eq!(len % SECTION_ALIGN, 0, "{what}: write at {offset}");
                at += len;
            }
            assert_eq!(at, total, "{what}");
            assert_eq!(
                safs.array().stats().snapshot(),
                direct.stats().snapshot(),
                "{what}: the write ledger"
            );
            // With 4 KiB pages every page is resident.
            let span = safs.read_sync(0, total).unwrap();
            assert_eq!(safs.array().stats().snapshot().read_requests, 0, "{what}");
            assert_eq!(safs.cache_stats().misses, 0, "{what}");
            assert_eq!(span.window().to_vec(), s.image, "{what}");
            let mut device = vec![0u8; total as usize];
            safs.array().read(0, &mut device).unwrap();
            assert_eq!(device, s.image, "{what}: the device holds the array image");
        });
    }

    #[test]
    fn larger_pages_leave_section_seams_cold() {
        // 8 KiB pages: a section that starts half-way into a page
        // shares it with the section before, and neither write covers
        // it whole — so it is read, not installed half-written.
        let pb = 2 * SECTION_ALIGN;
        each_image(|s| {
            let (what, meta) = (&s.what, &s.meta);
            let total = meta.total_bytes;
            let array = SsdArray::new_mem(ArrayConfig::small_test(), total).unwrap();
            let cfg = SafsConfig::default().with_page_bytes(pb);
            let mut safs = Safs::new(cfg, array).unwrap();
            s.write(&mut |offset, data| safs.write(offset, data), total)
                .unwrap();
            let seams: std::collections::BTreeSet<u64> = [
                meta.deg_offset,
                meta.len_offset,
                meta.out_edges_offset,
                meta.in_edges_offset,
                meta.out_attrs_offset,
                meta.in_attrs_offset,
            ]
            .into_iter()
            .filter(|&start| start % pb == SECTION_ALIGN && start < total)
            .map(|start| start / pb)
            .collect();
            assert!(
                seams.contains(&0),
                "{what}: header and degrees share page 0"
            );
            let span = safs.read_sync(0, total).unwrap();
            assert_eq!(safs.cache_stats().misses, seams.len() as u64, "{what}");
            assert_eq!(span.window().to_vec(), s.image, "{what}");
        });
    }

    #[test]
    fn round_trip_directed_edges() {
        for opts in both_formats() {
            let g = fixtures::diamond();
            let (array, meta, index) = image_of_with(&g, &opts);
            assert!(meta.directed);
            for v in g.vertices() {
                let out: Vec<u32> = g.out_neighbors(v).iter().map(|n| n.0).collect();
                assert_eq!(
                    read_edges(&array, &meta, &index, v, EdgeDir::Out),
                    out,
                    "out {v} ({:?})",
                    opts.format
                );
                let inn: Vec<u32> = g.in_neighbors(v).iter().map(|n| n.0).collect();
                assert_eq!(read_edges(&array, &meta, &index, v, EdgeDir::In), inn);
            }
        }
    }

    #[test]
    fn round_trip_undirected() {
        // A 6-cycle with a self-loop added at every vertex: the loops
        // never reach a list, so the header's count (out-entries / 2)
        // is the cycle's 6 edges, as the graph's own count is.
        let mut b = fg_graph::GraphBuilder::undirected();
        for v in 0..6u32 {
            b.add_edge(VertexId(v), VertexId(v));
            b.add_edge(VertexId(v), VertexId((v + 1) % 6));
        }
        let looped = b.build();
        assert_eq!(looped.num_edges(), 6);
        for opts in both_formats() {
            for g in [fixtures::complete(9), looped.clone()] {
                let (array, meta, index) = image_of_with(&g, &opts);
                assert!(!meta.directed);
                assert_eq!(meta.num_edges, g.num_edges());
                for v in g.vertices() {
                    let want: Vec<u32> = g.out_neighbors(v).iter().map(|n| n.0).collect();
                    assert_eq!(read_edges(&array, &meta, &index, v, EdgeDir::Out), want);
                    // In == out for undirected images.
                    assert_eq!(read_edges(&array, &meta, &index, v, EdgeDir::In), want);
                }
            }
        }
    }

    #[test]
    fn round_trip_rmat_spot_checks() {
        for opts in both_formats() {
            let g = gen::rmat(9, 8, gen::RmatSkew::default(), 33);
            let (array, meta, index) = image_of_with(&g, &opts);
            for raw in [0u32, 1, 100, 511] {
                let v = VertexId(raw);
                let want: Vec<u32> = g.out_neighbors(v).iter().map(|n| n.0).collect();
                assert_eq!(read_edges(&array, &meta, &index, v, EdgeDir::Out), want);
                let want: Vec<u32> = g.in_neighbors(v).iter().map(|n| n.0).collect();
                assert_eq!(read_edges(&array, &meta, &index, v, EdgeDir::In), want);
            }
            // Index degrees match the graph everywhere.
            for v in g.vertices() {
                assert_eq!(index.degree(v, EdgeDir::Out) as usize, g.out_degree(v));
            }
        }
    }

    #[test]
    fn compressed_rmat_round_trips_everywhere() {
        let g = gen::rmat(9, 8, gen::RmatSkew::default(), 77);
        let (array, meta, index) = image_of_with(&g, &WriteOptions::compressed());
        assert_eq!(meta.format, ImageFormat::Compressed);
        assert_eq!(meta.skip_interval, DEFAULT_SKIP_INTERVAL);
        for v in g.vertices() {
            for dir in [EdgeDir::Out, EdgeDir::In] {
                let want: Vec<u32> = match dir {
                    EdgeDir::Out => g.out_neighbors(v).iter().map(|n| n.0).collect(),
                    _ => g.in_neighbors(v).iter().map(|n| n.0).collect(),
                };
                assert_eq!(
                    read_edges(&array, &meta, &index, v, dir),
                    want,
                    "{v} {dir:?}"
                );
            }
        }
    }

    #[test]
    fn compressed_image_shrinks_edge_sections() {
        let g = gen::rmat(10, 8, gen::RmatSkew::default(), 5);
        let raw = image_of(&g).1;
        let v2 = image_of_with(&g, &WriteOptions::compressed()).1;
        let raw_out = raw.in_edges_offset - raw.out_edges_offset;
        let v2_out = v2.in_edges_offset - v2.out_edges_offset;
        assert!(
            v2_out < raw_out,
            "compressed out section {v2_out} not below raw {raw_out}"
        );
        // Whole image shrinks too (the length section costs less than
        // delta encoding saves at R-MAT densities).
        assert!(v2.total_bytes < raw.total_bytes);
    }

    #[test]
    fn compressed_weighted_image_keeps_blocks_raw_and_attrs_aligned() {
        let g = fixtures::weighted_square();
        let (array, meta, index) = image_of_with(&g, &WriteOptions::compressed());
        assert!(meta.weighted);
        assert_eq!(meta.format, ImageFormat::Compressed);
        // Every list reads back exactly; every block is raw (enforced
        // at load — a compressed block would fail validation).
        for v in g.vertices() {
            let want: Vec<u32> = g.out_neighbors(v).iter().map(|n| n.0).collect();
            assert_eq!(read_edges(&array, &meta, &index, v, EdgeDir::Out), want);
        }
        let loc = index.locate_attrs(VertexId(0), EdgeDir::Out).unwrap();
        let mut buf = vec![0u8; loc.bytes as usize];
        array.read(loc.offset, &mut buf).unwrap();
        let ws: Vec<f32> = buf
            .chunks_exact(4)
            .map(|q| f32::from_bits(u32::from_le_bytes(q.try_into().unwrap())))
            .collect();
        assert_eq!(ws, vec![1.0, 5.0]);
    }

    #[test]
    fn weighted_image_round_trips_attrs() {
        let g = fixtures::weighted_square();
        let (array, meta, index) = image_of(&g);
        assert!(meta.weighted);
        let loc = index.locate_attrs(VertexId(0), EdgeDir::Out).unwrap();
        let mut buf = vec![0u8; loc.bytes as usize];
        array.read(loc.offset, &mut buf).unwrap();
        let ws: Vec<f32> = buf
            .chunks_exact(4)
            .map(|q| f32::from_bits(u32::from_le_bytes(q.try_into().unwrap())))
            .collect();
        assert_eq!(ws, vec![1.0, 5.0]);
    }

    #[test]
    fn sections_are_aligned_and_ordered() {
        for opts in both_formats() {
            let g = gen::rmat(8, 4, gen::RmatSkew::default(), 5);
            let meta = image_of_with(&g, &opts).1;
            for off in [meta.deg_offset, meta.out_edges_offset, meta.in_edges_offset] {
                assert_eq!(off % SECTION_ALIGN, 0);
            }
            assert!(meta.out_edges_offset > meta.deg_offset);
            assert!(meta.in_edges_offset > meta.out_edges_offset);
            assert!(meta.total_bytes >= meta.in_edges_offset);
            if opts.format == ImageFormat::Compressed {
                assert_eq!(meta.len_offset % SECTION_ALIGN, 0);
                assert!(meta.len_offset > meta.deg_offset);
                assert!(meta.out_edges_offset > meta.len_offset);
            }
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let array = SsdArray::new_mem(ArrayConfig::small_test(), 1 << 16).unwrap();
        array.write(0, &[0xFFu8; 4096]).unwrap();
        assert!(matches!(read_meta(&array), Err(FgError::CorruptImage(_))));
    }

    #[test]
    fn section_table_out_of_place_rejected() {
        // Header fields 2..=6 at 16 + 8·i: degree, out-edge, in-edge,
        // out-attribute, in-attribute offsets; field 8 (v2) the length
        // section's.
        let at = |field: u64| 16 + field * 8;
        let g = gen::rmat(8, 6, gen::RmatSkew::default(), 7);
        for opts in both_formats() {
            let (array, meta, _) = image_of_with(&g, &opts);
            let total = meta.total_bytes;
            let mut cases = vec![
                // The in-edge section laid over the out-edge section:
                // only the degrees tell it apart, so the load does.
                (at(4), meta.out_edges_offset, false),
                (at(4), meta.in_edges_offset + 1, true),
                (at(4), meta.out_edges_offset - SECTION_ALIGN, true),
                (at(4), total + SECTION_ALIGN, true),
                (at(4), 0, true),
                (at(3), SECTION_ALIGN, true),
                (at(2), 2 * SECTION_ALIGN, true),
                // Attributes in an unweighted image.
                (at(5), total, true),
                (at(6), total, true),
            ];
            if opts.format == ImageFormat::Compressed {
                // The length section inside the degree section.
                cases.push((at(8), meta.deg_offset, true));
            }
            for (field_at, value, read_meta_sees_it) in cases {
                let what = format!("{:?}: {value} at byte {field_at}", opts.format);
                let mut was = [0u8; 8];
                array.read(field_at, &mut was).unwrap();
                array.write(field_at, &value.to_le_bytes()).unwrap();
                if read_meta_sees_it {
                    assert!(
                        matches!(read_meta(&array), Err(FgError::CorruptImage(_))),
                        "{what}"
                    );
                }
                assert!(
                    matches!(load_index(&array), Err(FgError::CorruptImage(_))),
                    "{what}"
                );
                array.write(field_at, &was).unwrap();
                assert_eq!(load_index(&array).unwrap().0, meta, "{what}: restored");
            }
        }
    }

    #[test]
    fn truncated_image_rejected() {
        for opts in both_formats() {
            let g = fixtures::complete(9);
            let full =
                SsdArray::new_mem(ArrayConfig::small_test(), required_capacity_with(&g, &opts))
                    .unwrap();
            write_image_with(&g, &full, &opts).unwrap();
            // Copy only the header into a smaller array.
            let small = SsdArray::new_mem(ArrayConfig::small_test(), SECTION_ALIGN).unwrap();
            let mut header = vec![0u8; SECTION_ALIGN as usize];
            full.read(0, &mut header).unwrap();
            small.write(0, &header).unwrap();
            assert!(read_meta(&small).is_err());
        }
    }

    #[test]
    fn corrupt_length_table_rejected_at_load() {
        let g = gen::rmat(8, 6, gen::RmatSkew::default(), 9);
        let (array, meta, _) = image_of_with(&g, &WriteOptions::compressed());
        // A length that contradicts its degree (raw flag, wrong size).
        let tampered = (8u32 | RAW_LIST_FLAG).to_le_bytes();
        array.write(meta.len_offset, &tampered).unwrap();
        assert!(matches!(load_index(&array), Err(FgError::CorruptImage(_))));
    }

    #[test]
    fn corrupt_skip_interval_rejected() {
        let g = gen::rmat(7, 4, gen::RmatSkew::default(), 9);
        let (array, _, _) = image_of_with(&g, &WriteOptions::compressed());
        // Field 9 (skip interval) at header offset 16 + 9*8 = 88: zero,
        // too large, or off the group grid.
        let with_k = |k: u64| {
            array.write(88, &k.to_le_bytes()).unwrap();
            read_meta(&array)
        };
        for k in [0, MAX_SKIP_INTERVAL as u64 + 4, 1, 2, 3, 5, 6, 7, 30, 33] {
            assert!(matches!(with_k(k), Err(FgError::CorruptImage(_))), "k {k}");
        }
        for k in [4, 8, 28, DEFAULT_SKIP_INTERVAL as u64] {
            assert_eq!(with_k(k).unwrap().skip_interval as u64, k);
        }
        // The LEB128 payload's magic has no reader.
        array.write(0, b"FGIMG20\0").unwrap();
        assert!(matches!(read_meta(&array), Err(FgError::CorruptImage(_))));
    }

    #[test]
    #[should_panic(expected = "positive multiple of 4")]
    fn skip_interval_off_the_group_grid_panics_at_options() {
        let _ = WriteOptions::compressed().with_skip_interval(6);
    }

    #[test]
    #[should_panic(expected = "list out of order")]
    fn a_compressed_write_panics_on_an_unsorted_list() {
        // One descending pair, in a list long enough to be gap-encoded:
        // unchecked, a release build would wrap its gap into a corrupt
        // block.
        let mut list: Vec<VertexId> = (1..=40).map(VertexId).collect();
        list.swap(19, 20);
        let mut offsets = vec![40u64; 42];
        offsets[0] = 0;
        let out = fg_graph::Csr::from_parts(offsets, list, None).unwrap();
        let g = Graph::from_csr(false, out, None).unwrap();
        let opts = WriteOptions::compressed();
        let capacity = required_capacity_with(&g, &opts);
        let _ = write_image_to(&g, &opts, &mut |_, _| Ok(()), capacity);
    }

    #[test]
    fn too_small_array_rejected_at_write() {
        for opts in both_formats() {
            let g = fixtures::complete(9);
            let array = SsdArray::new_mem(ArrayConfig::small_test(), 4096).unwrap();
            assert!(write_image_with(&g, &array, &opts).is_err());
        }
    }

    #[test]
    fn empty_graph_image() {
        for opts in both_formats() {
            let g = fg_graph::GraphBuilder::directed().build();
            let (_array, meta, index) = image_of_with(&g, &opts);
            assert_eq!(meta.num_vertices, 0);
            assert_eq!(index.num_vertices(), 0);
        }
    }

    #[test]
    fn image_write_is_the_only_write() {
        // Wearout check: loading + reading back causes no writes.
        for opts in both_formats() {
            let g = fixtures::complete(6);
            let array =
                SsdArray::new_mem(ArrayConfig::small_test(), required_capacity_with(&g, &opts))
                    .unwrap();
            write_image_with(&g, &array, &opts).unwrap();
            let wear_after_load = array.stats().snapshot().bytes_written;
            let (meta, index) = load_index(&array).unwrap();
            for v in g.vertices() {
                read_edges(&array, &meta, &index, v, EdgeDir::Out);
            }
            assert_eq!(array.stats().snapshot().bytes_written, wear_after_load);
        }
    }

    #[test]
    fn hub_skip_tables_are_loaded_and_aligned() {
        // A star-heavy graph guarantees a hub above LARGE_DEGREE.
        let g = fixtures::star(400);
        let (array, meta, index) = image_of_with(&g, &WriteOptions::compressed());
        let hub = VertexId(0);
        assert!(index.degree(hub, EdgeDir::Out) >= crate::index::LARGE_DEGREE);
        // A ranged slice of the hub resolves to a strict subrange.
        let block = index.locate(hub, EdgeDir::Out);
        let slice = index.locate_slice(hub, EdgeDir::Out, 100, 50);
        assert!(slice.loc.bytes < block.bytes);
        // ... and decoding the subrange yields exactly those edges.
        let mut buf = vec![0u8; slice.loc.bytes as usize];
        array.read(slice.loc.offset, &mut buf).unwrap();
        let SliceDecode::Varint(p) = slice.decode else {
            panic!("hub block must be compressed");
        };
        let got =
            codec::decode_stream(&buf[p.header_bytes as usize..], p.k, (p.skip + 50) as usize)
                .unwrap();
        let want: Vec<u32> = g.out_neighbors(hub)[100..150].iter().map(|n| n.0).collect();
        assert_eq!(&got[p.skip as usize..], want);
        let _ = meta;
    }
}
