//! Every application must produce identical results in semi-external
//! memory (over the SSD simulator + SAFS) and in memory — the paper's
//! two execution modes differ only in where edge lists come from.

use fg_format::{load_index, required_capacity_with, write_image_with, WriteOptions};
use fg_graph::{gen, Graph, GraphBuilder};
use fg_safs::{Safs, SafsConfig};
use fg_ssdsim::{ArrayConfig, SsdArray};
use fg_types::VertexId;
use flashgraph::{Engine, EngineConfig};

/// Every equivalence below must hold for both image formats, so each
/// test runs once per format: raw, then group-varint edge blocks.
fn formats() -> [WriteOptions; 2] {
    [WriteOptions::default(), WriteOptions::compressed()]
}

/// `g` mounted in the image format `opts` selects.
fn sem_fixture(g: &Graph, opts: &WriteOptions) -> (Safs, fg_format::GraphIndex) {
    let (safs, index, _) = sem_fixture_with(g, opts, |_| SafsConfig::default());
    (safs, index)
}

/// [`sem_fixture`] with the SAFS config chosen from the image's size
/// in bytes, which is returned too.
fn sem_fixture_with(
    g: &Graph,
    opts: &WriteOptions,
    cfg: impl FnOnce(u64) -> SafsConfig,
) -> (Safs, fg_format::GraphIndex, u64) {
    let image = required_capacity_with(g, opts);
    let array = SsdArray::new_mem(ArrayConfig::small_test(), image).unwrap();
    write_image_with(g, &array, opts).unwrap();
    let (_, index) = load_index(&array).unwrap();
    let safs = Safs::new(cfg(image), array).unwrap();
    (safs, index, image)
}

fn directed_graph() -> Graph {
    gen::rmat(9, 5, gen::RmatSkew::default(), 1234)
}

fn undirected_graph() -> Graph {
    symmetrized(&gen::rmat(8, 5, gen::RmatSkew::default(), 99))
}

fn symmetrized(d: &Graph) -> Graph {
    let mut b = GraphBuilder::undirected();
    for (s, t) in d.edges() {
        b.add_edge(s, t);
    }
    b.build()
}

#[test]
fn bfs_equivalent() {
    let g = directed_graph();
    let mem = Engine::new_mem(&g, EngineConfig::small());
    let (want, _) = fg_apps::bfs(&mem, VertexId(0)).unwrap();
    for opts in formats() {
        let (safs, index) = sem_fixture(&g, &opts);
        let sem = Engine::new_sem(&safs, index, EngineConfig::small());
        let (got, stats) = fg_apps::bfs(&sem, VertexId(0)).unwrap();
        assert_eq!(got, want);
        assert!(stats.io.unwrap().read_requests > 0, "sem mode must do I/O");
    }
}

#[test]
fn pagerank_equivalent() {
    let g = directed_graph();
    let mem = Engine::new_mem(&g, EngineConfig::small());
    let (want, _) = fg_apps::pagerank(&mem, 0.85, 1e-4, 60).unwrap();
    for opts in formats() {
        let (safs, index) = sem_fixture(&g, &opts);
        let sem = Engine::new_sem(&safs, index, EngineConfig::small());
        let (got, _) = fg_apps::pagerank(&sem, 0.85, 1e-4, 60).unwrap();
        for v in g.vertices() {
            // Message application order differs between runs, so floats
            // may differ in the last bits; ranks must agree closely.
            assert!(
                (got[v.index()] - want[v.index()]).abs() < 1e-3,
                "vertex {v}: {} vs {}",
                got[v.index()],
                want[v.index()]
            );
        }
    }
}

#[test]
fn wcc_equivalent() {
    let g = directed_graph();
    let mem = Engine::new_mem(&g, EngineConfig::small());
    let (want, _) = fg_apps::wcc(&mem).unwrap();
    for opts in formats() {
        let (safs, index) = sem_fixture(&g, &opts);
        let sem = Engine::new_sem(&safs, index, EngineConfig::small());
        let (got, _) = fg_apps::wcc(&sem).unwrap();
        assert_eq!(got, want);
    }
}

#[test]
fn bc_equivalent() {
    let g = directed_graph();
    let mem = Engine::new_mem(&g, EngineConfig::small());
    let (want, _) = fg_apps::bc_single_source(&mem, VertexId(0)).unwrap();
    for opts in formats() {
        let (safs, index) = sem_fixture(&g, &opts);
        let sem = Engine::new_sem(&safs, index, EngineConfig::small());
        let (got, _) = fg_apps::bc_single_source(&sem, VertexId(0)).unwrap();
        for v in g.vertices() {
            assert!(
                (got[v.index()] - want[v.index()]).abs() < 1e-9,
                "vertex {v}: {} vs {}",
                got[v.index()],
                want[v.index()]
            );
        }
    }
}

#[test]
fn tc_equivalent_and_correct() {
    let g = undirected_graph();
    let want = fg_baselines::direct::triangle_count(&g);
    for opts in formats() {
        let (safs, index) = sem_fixture(&g, &opts);
        let sem = Engine::new_sem(&safs, index, EngineConfig::small());
        let (got, per, _) = fg_apps::triangle_count(&sem, true).unwrap();
        assert_eq!(got, want);
        assert_eq!(per, fg_baselines::direct::triangles_per_vertex(&g));
    }
}

#[test]
fn tc_reads_pages_it_still_holds_from_memory_not_the_device() {
    // The device ledger of "held pages stay hits": TC keeps thousands
    // of neighbour-list requests in flight, whose spans pin nearly the
    // whole image while a cache a thirteenth its size churns beside
    // them. A page some span still holds must not be read again, so a
    // pass costs a few images of device traffic (1–2.5 here on an idle
    // host, 4 at worst with every core hogged: how long spans live is
    // scheduling) — not the 30 it cost on this graph, 137 on the
    // ledger's, when eviction made held pages invisible.
    let g = symmetrized(&gen::rmat(12, 8, gen::RmatSkew::default(), 0x7C));
    for opts in formats() {
        let (safs, index, image) = sem_fixture_with(&g, &opts, |image| {
            SafsConfig::default().with_cache_bytes(image / 13)
        });
        safs.reset_stats();
        let sem = Engine::new_sem(&safs, index, EngineConfig::default().with_threads(2));
        let (got, _, stats) = fg_apps::triangle_count(&sem, false).unwrap();
        assert_eq!(got, fg_baselines::direct::triangle_count(&g));
        let read = stats.io.unwrap().bytes_read;
        assert!(read > 0, "a cold pass reads the image from the device");
        assert!(
            read < 8 * image,
            "{read} device bytes for an image of {image}"
        );
        let cache = safs.cache_stats();
        assert!(cache.pinned_hits > 0, "evicted-and-held pages served hits");
        assert_eq!(cache.lookups, cache.hits + cache.misses);
    }
}

#[test]
fn scan_statistics_equivalent() {
    let g = undirected_graph();
    let (_, want) = fg_baselines::direct::scan_statistics(&g);
    for opts in formats() {
        let (safs, index) = sem_fixture(&g, &opts);
        let sem = Engine::new_sem(&safs, index, EngineConfig::small());
        let (res, _) = fg_apps::scan_statistics(&sem).unwrap();
        assert_eq!(res.max_scan, want);
    }
}

/// Vertices with in-edges and no out-edges: a neighbour whose list is
/// empty.
fn sinks(g: &Graph) -> usize {
    g.vertices()
        .filter(|&v| g.out_degree(v) == 0 && g.in_degree(v) > 0)
        .count()
}

#[test]
fn tc_completes_on_a_directed_image_with_sinks() {
    // Regression: a sink neighbour's empty delivery arrived after the
    // requester had released its own list ("own list held while
    // pending"). Sinks are not requested at all now.
    let g = directed_graph();
    assert!(sinks(&g) > 0, "the fixture needs sinks");
    // `direct` applies the same out-list rule to a directed graph.
    let want = fg_baselines::direct::triangle_count(&g);
    let mem = Engine::new_mem(&g, EngineConfig::small().with_threads(2));
    let (in_mem, _, _) = fg_apps::triangle_count(&mem, false).unwrap();
    assert_eq!(in_mem, want);
    for opts in formats() {
        let (safs, index) = sem_fixture(&g, &opts);
        let sem = Engine::new_sem(&safs, index, EngineConfig::small().with_threads(2));
        let (got, _, _) = fg_apps::triangle_count(&sem, false).unwrap();
        assert_eq!(got, want);
    }
}

#[test]
fn scan_statistics_completes_on_a_directed_image_with_sinks() {
    let g = directed_graph();
    assert!(sinks(&g) > 0, "the fixture needs sinks");
    let mem = Engine::new_mem(&g, EngineConfig::small().with_threads(2));
    let (want, _) = fg_apps::scan_statistics(&mem).unwrap();
    for opts in formats() {
        let (safs, index) = sem_fixture(&g, &opts);
        let sem = Engine::new_sem(&safs, index, EngineConfig::small().with_threads(2));
        let (got, _) = fg_apps::scan_statistics(&sem).unwrap();
        assert_eq!(got.max_scan, want.max_scan);
    }
}

#[test]
fn sssp_equivalent() {
    let base = directed_graph();
    let g = gen::with_random_weights(&base, 8.0, 5);
    let want = fg_baselines::direct::sssp(&g, VertexId(0));
    for opts in formats() {
        let (safs, index) = sem_fixture(&g, &opts);
        let sem = Engine::new_sem(&safs, index, EngineConfig::small());
        let (got, _) = fg_apps::sssp(&sem, VertexId(0)).unwrap();
        for v in g.vertices() {
            if want[v.index()].is_infinite() {
                assert!(got[v.index()].is_infinite(), "vertex {v}");
            } else {
                assert!(
                    (got[v.index()] as f64 - want[v.index()]).abs() < 1e-3,
                    "vertex {v}: {} vs {}",
                    got[v.index()],
                    want[v.index()]
                );
            }
        }
    }
}

#[test]
fn kcore_equivalent() {
    let g = directed_graph();
    for opts in formats() {
        let (safs, index) = sem_fixture(&g, &opts);
        let sem = Engine::new_sem(&safs, index, EngineConfig::small());
        for k in [2u32, 4] {
            let (got, _) = fg_apps::k_core(&sem, k).unwrap();
            assert_eq!(got, fg_baselines::direct::k_core(&g, k), "k={k}");
        }
    }
}

#[test]
fn diameter_equivalent() {
    let g = directed_graph();
    let mem = Engine::new_mem(&g, EngineConfig::small());
    let (want, _) = fg_apps::estimate_diameter(&mem, 2, 3).unwrap();
    for opts in formats() {
        let (safs, index) = sem_fixture(&g, &opts);
        let sem = Engine::new_sem(&safs, index, EngineConfig::small());
        let (got, _) = fg_apps::estimate_diameter(&sem, 2, 3).unwrap();
        assert_eq!(got, want);
    }
}

#[test]
fn lcc_equivalent_exact_and_sampled() {
    // Same sampling seed → same positions → bit-identical estimates
    // in both modes, at both full and sampled k.
    let g = undirected_graph();
    let mem = Engine::new_mem(&g, EngineConfig::small());
    for opts in formats() {
        let (safs, index) = sem_fixture(&g, &opts);
        let sem = Engine::new_sem(&safs, index, EngineConfig::small());
        for k in [3u32, 1000] {
            let (want, _) = fg_apps::lcc(&mem, k, 42).unwrap();
            let (got, stats) = fg_apps::lcc(&sem, k, 42).unwrap();
            assert_eq!(got, want, "k={k}");
            // The second run may be served entirely from the warm page
            // cache, but it always touches it.
            assert!(stats.cache.unwrap().lookups > 0);
        }
        // And at covering k the estimate is the oracle.
        let (exact, _) = fg_apps::lcc(&mem, 1000, 42).unwrap();
        let oracle = fg_baselines::direct::local_clustering(&g);
        for v in g.vertices() {
            assert!(
                (exact[v.index()] as f64 - oracle[v.index()]).abs() < 1e-6,
                "vertex {v}"
            );
        }
        // Per query, sampling is partial I/O: the hubs' sampled estimates
        // request fewer bytes and read fewer from the device than their
        // exact answers, each run on a fresh (cold) mount.
        let g = symmetrized(&gen::rmat(12, 8, gen::RmatSkew::default(), 0xB1A5));
        let mut hubs: Vec<VertexId> = g.vertices().collect();
        hubs.sort_by_key(|&v| std::cmp::Reverse(g.out_degree(v)));
        hubs.truncate(4);
        let io = |k: u32| {
            let (safs, index) = sem_fixture(&g, &opts);
            let sem = Engine::new_sem(&safs, index, EngineConfig::small());
            let (_, stats) = fg_apps::lcc_of(&sem, &hubs, k, 42).unwrap();
            (stats.bytes_requested, stats.io.unwrap().bytes_read)
        };
        let (exact, sampled) = (io(u32::MAX), io(2));
        assert!(
            sampled.0 < exact.0 && sampled.1 < exact.1,
            "(bytes requested, device bytes) sampled {sampled:?}, exact {exact:?}"
        );
    }
}

#[test]
fn analysis_never_writes_to_ssds() {
    // The paper's wearout principle: after the image is loaded, no
    // application writes a single byte.
    let g = directed_graph();
    for opts in formats() {
        let (safs, index) = sem_fixture(&g, &opts);
        let wear_before = safs.array().stats().snapshot().bytes_written;
        let sem = Engine::new_sem(&safs, index, EngineConfig::small());
        fg_apps::bfs(&sem, VertexId(0)).unwrap();
        fg_apps::wcc(&sem).unwrap();
        fg_apps::pagerank(&sem, 0.85, 1e-3, 10).unwrap();
        fg_apps::bc_single_source(&sem, VertexId(0)).unwrap();
        assert_eq!(safs.array().stats().snapshot().bytes_written, wear_before);
    }
}
