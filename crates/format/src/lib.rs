//! FlashGraph's external-memory graph image and compact in-memory index.
//!
//! Section 3.5 of the paper describes two data representations:
//!
//! * **On SSDs** (§3.5.2): a single image per graph holding every
//!   vertex's edge lists, sorted by vertex id, with in-edge and
//!   out-edge lists in *separate* sections (so algorithms needing one
//!   direction read half the data) and edge attributes in further
//!   separate sections (so unweighted algorithms never touch them).
//!   The image is written once — FlashGraph minimizes SSD wearout by
//!   using one representation for all algorithms. Two encodings of
//!   the edge sections exist ([`ImageFormat`]): the raw v1 layout (4
//!   bytes per edge) and the group-varint compressed v2 layout
//!   ([`codec`]), which shrinks typical sorted lists to roughly 40 %
//!   of raw so every semi-external iteration moves fewer device
//!   bytes.
//! * **In memory** (§3.5.1): a compact [`GraphIndex`] that stores one
//!   byte of degree per vertex per direction (with an overflow hash
//!   table for degrees ≥ 255) and an explicit byte offset only every
//!   32 vertices; the location of any edge list is *recomputed* by
//!   summing at most 31 degrees. This costs ~1.25 bytes/vertex for
//!   undirected and ~2.5 bytes/vertex for directed graphs —
//!   [`GraphIndex::heap_bytes`] lets tests verify the claim.
//!
//! # Example
//!
//! ```
//! use fg_format::{required_capacity, write_image, load_index};
//! use fg_graph::fixtures;
//! use fg_ssdsim::{ArrayConfig, SsdArray};
//! use fg_types::{EdgeDir, VertexId};
//!
//! let g = fixtures::diamond();
//! let array = SsdArray::new_mem(ArrayConfig::small_test(), required_capacity(&g))?;
//! write_image(&g, &array)?;
//! let (meta, index) = load_index(&array)?;
//! assert_eq!(meta.num_vertices, 5);
//! assert_eq!(index.degree(VertexId(0), EdgeDir::Out), 2);
//! # Ok::<(), fg_types::FgError>(())
//! ```

pub mod codec;
mod image;
mod index;
mod sharded;
mod source;

pub use image::{
    load_index, read_list, read_meta, required_capacity, required_capacity_with,
    required_shard_capacities, shard_bounds, write_image, write_image_to, write_image_with,
    write_sharded_image, ImageFormat, ImageLists, ImageMeta, WriteAt, WriteOptions, SECTION_ALIGN,
};
pub use index::{
    EdgeListLoc, GraphIndex, ListSlice, PackedDirInput, SliceDecode, VarintSlice,
    CHECKPOINT_INTERVAL, LARGE_DEGREE,
};
pub use sharded::ShardedIndex;
pub use source::{ListRun, ListSource, RunSink};
