//! Quickstart: build a graph, write its on-SSD image, mount SAFS,
//! run BFS in both execution modes, and peek at a hub through a
//! partial edge-list request.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use fg_format::{load_index, required_capacity, write_image};
use fg_graph::gen;
use fg_safs::{Safs, SafsConfig};
use fg_ssdsim::{ArrayConfig, SsdArray};
use fg_types::{EdgeDir, VertexId};
use flashgraph::{Engine, EngineConfig, Init, PageVertex, Request, VertexContext, VertexProgram};

/// Reads only the [start, start+len) slice of one vertex's out list —
/// the first-class request API at its smallest. A request is one
/// callback, so this is also how a program bounds a callback's
/// working set: it asks for a hub's list one range at a time.
struct HubPreview {
    hub: VertexId,
    start: u64,
    len: u64,
}

#[derive(Default)]
struct Preview {
    edges: Vec<u32>,
    offset: u64,
}

impl VertexProgram for HubPreview {
    type State = Preview;
    type Msg = ();

    fn run(&self, v: VertexId, _state: &mut Preview, ctx: &mut VertexContext<'_, ()>) {
        ctx.request(v, Request::edges(EdgeDir::Out).range(self.start, self.len));
    }

    fn run_on_vertex(
        &self,
        _v: VertexId,
        state: &mut Preview,
        vertex: &PageVertex<'_>,
        _ctx: &mut VertexContext<'_, ()>,
    ) {
        assert_eq!(vertex.id(), self.hub);
        state.offset = vertex.offset();
        state.edges = vertex.edges().map(|e| e.0).collect();
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A power-law graph: 2^12 vertices, ~16 edges per vertex.
    let graph = gen::rmat(12, 16, gen::RmatSkew::social(), 42);
    println!(
        "graph: {} vertices, {} edges",
        graph.num_vertices(),
        graph.num_edges()
    );

    // 2. Write the external-memory image onto a simulated SSD array
    //    (15 commodity drives, RAID-0 style striping).
    let array = SsdArray::new_mem(ArrayConfig::paper_array(), required_capacity(&graph))?;
    write_image(&graph, &array)?;
    let (meta, index) = load_index(&array)?;
    println!(
        "image: {} bytes on SSDs; index: {} bytes in RAM ({:.2} B/vertex)",
        meta.total_bytes,
        index.heap_bytes(),
        index.heap_bytes() as f64 / graph.num_vertices() as f64
    );

    // 3. Mount SAFS with a page cache of 1/8 the image size.
    let safs = Safs::new(
        SafsConfig::default().with_cache_bytes(meta.total_bytes / 8),
        array,
    )?;

    // 4. Semi-external-memory BFS.
    let sem = Engine::new_sem(&safs, index, EngineConfig::default());
    let (levels, stats) = fg_apps::bfs(&sem, VertexId(0))?;
    let reached = levels.iter().flatten().count();
    println!(
        "sem BFS: reached {reached} vertices in {} iterations ({:.2} ms modeled)",
        stats.iterations,
        stats.modeled_runtime_secs() * 1e3
    );
    let io = stats.io.expect("sem mode reports I/O");
    println!(
        "   I/O: {} device requests, {} bytes, cache hit rate {:.0}%",
        io.read_requests,
        io.bytes_read,
        stats.cache.expect("cache stats").hit_rate() * 100.0
    );

    // 5. The same program in memory (FG-mem): identical results.
    let mem = Engine::new_mem(&graph, EngineConfig::default());
    let (mem_levels, mem_stats) = fg_apps::bfs(&mem, VertexId(0))?;
    assert_eq!(levels, mem_levels, "modes must agree");
    println!(
        "mem BFS: same levels, {:.2} ms",
        mem_stats.modeled_runtime_secs() * 1e3
    );

    // 6. Partial edge-list request: preview 8 mid-list neighbours of
    //    the biggest hub without reading its whole list.
    let hub = (0..graph.num_vertices() as u32)
        .map(VertexId)
        .max_by_key(|&v| graph.out_degree(v))
        .expect("non-empty graph");
    let preview = HubPreview {
        hub,
        start: graph.out_degree(hub) as u64 / 2,
        len: 8,
    };
    safs.reset_stats();
    let (states, pstats) = sem.run(&preview, Init::Seeds(vec![hub]))?;
    let p = &states[hub.index()];
    println!(
        "hub {hub} (degree {}): positions [{}, {}) = {:?} — {} bytes requested, {} read",
        graph.out_degree(hub),
        p.offset,
        p.offset + p.edges.len() as u64,
        p.edges,
        pstats.bytes_requested,
        pstats.io.as_ref().map(|io| io.bytes_read).unwrap_or(0),
    );
    Ok(())
}
