//! Full-pipeline integration tests: generator → on-SSD image → SAFS →
//! engine → applications, validated against the direct oracles —
//! including a variant where the simulated array is backed by a real
//! file on the host filesystem.

use fg_format::{load_index, required_capacity, write_image};
use fg_graph::{gen, Graph};
use fg_safs::{Safs, SafsConfig};
use fg_ssdsim::{ArrayConfig, FileStore, SsdArray};
use fg_types::VertexId;
use flashgraph::{Engine, EngineConfig};

fn mount(g: &Graph, array: SsdArray, safs_cfg: SafsConfig) -> (Safs, fg_format::GraphIndex) {
    write_image(g, &array).unwrap();
    let (_, index) = load_index(&array).unwrap();
    (Safs::new(safs_cfg, array).unwrap(), index)
}

#[test]
fn whole_stack_on_mem_store() {
    let g = gen::rmat(10, 8, gen::RmatSkew::social(), 314);
    let array = SsdArray::new_mem(ArrayConfig::paper_array(), required_capacity(&g)).unwrap();
    let (safs, index) = mount(&g, array, SafsConfig::default());
    let engine = Engine::new_sem(&safs, index, EngineConfig::default());

    let root = VertexId(0);
    let (levels, _) = fg_apps::bfs(&engine, root).unwrap();
    assert_eq!(levels, fg_baselines::direct::bfs_levels(&g, root));

    let (labels, _) = fg_apps::wcc(&engine).unwrap();
    assert_eq!(labels, fg_baselines::direct::wcc_labels(&g));

    let (deps, _) = fg_apps::bc_single_source(&engine, root).unwrap();
    let want = fg_baselines::direct::bc_single_source(&g, root);
    for v in g.vertices() {
        assert!((deps[v.index()] - want[v.index()]).abs() < 1e-6, "bc {v}");
    }
}

#[test]
fn whole_stack_on_a_real_file() {
    let g = gen::rmat(9, 6, gen::RmatSkew::web(), 2718);
    let dir = std::env::temp_dir().join(format!("fg-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("graph.img");
    let store = FileStore::create(&path, required_capacity(&g)).unwrap();
    let array = SsdArray::with_store(ArrayConfig::small_test(), Box::new(store)).unwrap();
    let (safs, index) = mount(&g, array, SafsConfig::default());
    let engine = Engine::new_sem(&safs, index, EngineConfig::default());

    let (levels, stats) = fg_apps::bfs(&engine, VertexId(0)).unwrap();
    assert_eq!(levels, fg_baselines::direct::bfs_levels(&g, VertexId(0)));
    assert!(stats.io.unwrap().read_requests > 0);

    // Re-open the image from disk cold and run again: persistence.
    drop(engine);
    drop(safs);
    let store = FileStore::open(&path).unwrap();
    let array = SsdArray::with_store(ArrayConfig::small_test(), Box::new(store)).unwrap();
    let (_, index) = load_index(&array).unwrap();
    let safs = Safs::new(SafsConfig::default(), array).unwrap();
    let engine = Engine::new_sem(&safs, index, EngineConfig::default());
    let (levels2, _) = fg_apps::bfs(&engine, VertexId(0)).unwrap();
    assert_eq!(levels, levels2);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_page_size_yields_identical_results() {
    let g = gen::rmat(9, 6, gen::RmatSkew::social(), 161);
    let mut reference: Option<Vec<u32>> = None;
    for page_kb in [1u64, 4, 64, 256] {
        let array = SsdArray::new_mem(ArrayConfig::paper_array(), required_capacity(&g)).unwrap();
        let cfg = SafsConfig::default().with_page_bytes(page_kb * 1024);
        let (safs, index) = mount(&g, array, cfg);
        let engine = Engine::new_sem(&safs, index, EngineConfig::default());
        let (labels, _) = fg_apps::wcc(&engine).unwrap();
        match &reference {
            None => reference = Some(labels),
            Some(r) => assert_eq!(r, &labels, "page size {page_kb}K diverged"),
        }
    }
}

#[test]
fn tiny_cache_and_huge_cache_agree() {
    let g = gen::rmat(9, 8, gen::RmatSkew::social(), 99);
    for cache_bytes in [0u64, 16 * 4096, 1 << 26] {
        let array = SsdArray::new_mem(ArrayConfig::paper_array(), required_capacity(&g)).unwrap();
        let cfg = SafsConfig::default().with_cache_bytes(cache_bytes);
        let (safs, index) = mount(&g, array, cfg);
        let engine = Engine::new_sem(&safs, index, EngineConfig::default());
        let (levels, _) = fg_apps::bfs(&engine, VertexId(0)).unwrap();
        assert_eq!(
            levels,
            fg_baselines::direct::bfs_levels(&g, VertexId(0)),
            "cache {cache_bytes}"
        );
    }
}
