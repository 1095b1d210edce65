//! Workspace smoke test: the minimal §3 pipeline, end to end.
//!
//! Generate a tiny R-MAT graph → write the on-SSD image → mount SAFS
//! over the simulated array → run BFS through the semi-external
//! engine, and assert it agrees with BFS over the in-memory engine
//! and with the direct in-memory oracle.

use fg_format::{load_index, required_capacity, write_image};
use fg_graph::gen::{rmat, RmatSkew};
use fg_safs::{Safs, SafsConfig};
use fg_ssdsim::{ArrayConfig, SsdArray};
use flashgraph::{Engine, EngineConfig};

#[test]
fn umbrella_reexports_reach_every_crate() {
    // The umbrella crate must expose the full stack under one roof.
    assert_eq!(flashgraph_repro::fg_types::VertexId(3).index(), 3);
    assert!(flashgraph_repro::fg_ssdsim::ArrayConfig::small_test()
        .validate()
        .is_ok());
    assert_eq!(flashgraph_repro::fg_bench::report::count(2048), "2,048");
}

#[test]
fn rmat_image_safs_bfs_pipeline() {
    // 1. Generate: a small power-law graph like the paper's datasets.
    let g = rmat(8, 8, RmatSkew::default(), 0xF1A5);
    assert!(g.num_edges() > 0, "generator produced an empty graph");

    // 2. Write the on-SSD image onto a simulated 4-drive array.
    let array = SsdArray::new_mem(ArrayConfig::small_test(), required_capacity(&g)).unwrap();
    let meta = write_image(&g, &array).unwrap();
    assert_eq!(meta.num_vertices as usize, g.num_vertices());
    assert_eq!(meta.num_edges, g.num_edges());

    // 3. Mount SAFS with a deliberately tiny cache so BFS really
    //    exercises the I/O path, not just cache hits.
    let (_, index) = load_index(&array).unwrap();
    let safs = Safs::new(SafsConfig::default().with_cache_bytes(8 * 4096), array).unwrap();
    safs.reset_stats();

    // 4. BFS over SAFS equals BFS over memory.
    let root = fg_bench::traversal_root(&g);
    let sem = Engine::new_sem(&safs, index, EngineConfig::small());
    let (sem_levels, _) = fg_apps::bfs(&sem, root).unwrap();

    let mem = Engine::new_mem(&g, EngineConfig::small());
    let (mem_levels, _) = fg_apps::bfs(&mem, root).unwrap();

    assert_eq!(sem_levels, mem_levels, "sem and mem engines disagree");
    assert_eq!(
        sem_levels,
        fg_baselines::direct::bfs_levels(&g, root),
        "engines disagree with the direct oracle"
    );

    // The semi-external run must actually have gone to the device.
    let io = safs.array().stats().snapshot();
    assert!(io.read_requests > 0, "BFS never touched the SSD array");
}
