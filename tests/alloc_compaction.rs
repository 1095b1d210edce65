//! Tier-1 memory bound for a compaction: `GraphService::compact_with`
//! streams the old image and merges each list with the pending deltas
//! as the writer reaches it, so its heap grows by the device it
//! provisions, the new mount's cache, the written image it collects to
//! install in layout order, a few chunk buffers and some bytes per
//! vertex — never by a graph built in RAM.
//!
//! This binary installs a counting global allocator that keeps a
//! high-water mark of live heap bytes (it is its own process, so no
//! shipped crate changes) and holds one test only: the count is
//! process-wide, I/O threads included, and a second test running beside
//! it would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};

use fg_format::{load_index, read_meta, required_capacity_with, write_image_with, WriteOptions};
use fg_graph::{gen, DeltaBatch};
use fg_safs::{Safs, SafsConfig};
use fg_ssdsim::{ArrayConfig, SsdArray};
use fg_types::sync::Counter;
use fg_types::VertexId;
use flashgraph::{EngineConfig, GraphService, ServiceConfig};

/// Live heap bytes, and their high-water mark since the last reset.
static LIVE: Counter = Counter::new(0);
static PEAK: Counter = Counter::new(0);

struct Counting;

impl Counting {
    fn grew(by: usize) {
        PEAK.max(LIVE.add(by as u64));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one the caller already upholds; the counters
// are atomics and allocate nothing.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's obligations are `GlobalAlloc::alloc`'s.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::grew(layout.size());
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the caller's obligations are `GlobalAlloc::alloc_zeroed`'s.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::grew(layout.size());
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: the caller's obligations are `GlobalAlloc::dealloc`'s.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.sub(layout.size() as u64);
        // SAFETY: `ptr` came from `System` through this allocator, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: the caller's obligations are `GlobalAlloc::realloc`'s.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Counted as the new block allocated beside the old one, as a
        // move would be; the old block is released below.
        Self::grew(new_size);
        LIVE.sub(layout.size() as u64);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `fg_format`'s write buffer and sweep read size (both 4 MiB; not
/// exported). A section buffer is cut once it holds a chunk, after a
/// run of lists has gone in, so it may reach twice a chunk as a `Vec`
/// grows; a sweep's buffer holds the unread tail of its last range
/// plus one chunk, likewise.
const WRITE_CHUNK: u64 = 4 << 20;
const READ_CHUNK: u64 = 4 << 20;

#[test]
fn compaction_heap_grows_by_the_image_not_by_the_graph() {
    // Directed, compressed: 2^16 vertices and about 1.8 M edges, so a
    // CSR of one direction (8 B a vertex, 4 an edge) is ≈ 7.8 MB, and
    // the two graphs a compaction used to build (the old image read
    // back, then the union) came to ≈ 31 MB — past the bound below.
    let g = gen::rmat(16, 32, gen::RmatSkew::default(), 38);
    let opts = WriteOptions::compressed();
    let array =
        SsdArray::new_mem(ArrayConfig::small_test(), required_capacity_with(&g, &opts)).unwrap();
    write_image_with(&g, &array, &opts).unwrap();
    let (_, index) = load_index(&array).unwrap();
    let cache = 2 << 20;
    let safs = Safs::new(SafsConfig::default().with_cache_bytes(cache), array).unwrap();
    let cfg = ServiceConfig::default().with_engine(EngineConfig::small());
    let svc = GraphService::new(safs, index, cfg);
    // One op on every 64th vertex: an edge to the first id it lacks.
    let n = g.num_vertices();
    let mut batch = DeltaBatch::new();
    for v in g.vertices().step_by(64) {
        let lacks = (0..)
            .map(VertexId)
            .find(|&w| w != v && !g.out_neighbors(v).contains(&w));
        batch.add_edge(v, lacks.unwrap());
    }
    svc.ingest(&batch).unwrap();
    let edges = g.num_edges();
    drop(g);

    let mut provisioned = None;
    let before = LIVE.get();
    PEAK.set(before);
    let gen = svc
        .compact_with(|need| {
            let array = SsdArray::new_mem(ArrayConfig::small_test(), need)?;
            provisioned = Some(array.clone());
            Ok(array)
        })
        .unwrap();
    let grew = PEAK.get() - before;
    assert_eq!(gen, 1);

    let array = provisioned.unwrap();
    let image = read_meta(&array).unwrap().total_bytes;
    let index = load_index(&array).unwrap().1;
    // Per vertex and direction: the writer's degree and block-length
    // vectors (4 B each), and `load_index`'s degree vector (8 B) beside
    // the 4 B words it is read from; plus the new index itself.
    let dirs = 2;
    let per_vertex = n as u64 * dirs * (4 + 4 + 8 + 4) + index.heap_bytes() as u64;
    let chunks = 2 * WRITE_CHUNK + 2 * READ_CHUNK;
    let bound = array.capacity() + cache + image + chunks + per_vertex;
    println!(
        "{n} vertices, {edges} edges: heap grew {grew} B during the compaction; bound {bound} B \
         = array {} + cache {cache} + image {image} + chunks {chunks} + per-vertex {per_vertex}",
        array.capacity()
    );
    assert!(
        grew <= bound,
        "a compaction grew the heap by {grew} B, past {bound} B: more than O(V) beside the image"
    );
}
