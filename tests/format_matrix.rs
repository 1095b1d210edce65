//! Format equivalence matrix.
//!
//! {Raw, Compressed} image formats × {BFS, PageRank, WCC, TC} × {one
//! mount, three shards}: every cell must produce the same results as the in-memory oracles, deliver the same number of
//! edges as the other format (the programming model is
//! format-transparent), and — the point of the compressed format —
//! request strictly fewer bytes of a compressed image than of a raw
//! one. The comparison is on `bytes_requested`, the bytes the
//! programs' logical requests cover: it depends only on which lists
//! were asked for, while the device bytes those requests turn into
//! move with the schedule (stealing, cache interleaving and merge
//! batching shift page boundaries; at 16–140 KiB of traffic that ties
//! or inverts a cell under load). Device bytes are the ledger's.

use fg_format::{load_index, required_capacity_with, write_image_with, GraphIndex, WriteOptions};
use fg_graph::{gen, Graph, GraphBuilder};
use fg_safs::{Safs, SafsConfig};
use fg_ssdsim::{ArrayConfig, SsdArray};
use flashgraph::{Engine, EngineConfig, Init, RunStats};

mod common;
use common::{expected_pieces, SplitProbe};

fn formats() -> [(&'static str, WriteOptions); 2] {
    [
        ("raw", WriteOptions::default()),
        ("compressed", WriteOptions::compressed()),
    ]
}

fn cfg() -> EngineConfig {
    EngineConfig {
        num_threads: 2,
        max_pending: 256,
        issue_batch: 64,
        ..EngineConfig::default()
    }
}

/// Mounts a fresh image of `g` in the given format over a small page
/// cache (so device bytes, not cache hits, dominate the comparison).
fn mount(g: &Graph, opts: &WriteOptions) -> (Safs, GraphIndex) {
    let array =
        SsdArray::new_mem(ArrayConfig::small_test(), required_capacity_with(g, opts)).unwrap();
    write_image_with(g, &array, opts).unwrap();
    let (_, index) = load_index(&array).unwrap();
    let safs = Safs::new(SafsConfig::default().with_cache_bytes(8 * 4096), array).unwrap();
    safs.reset_stats();
    (safs, index)
}

/// Runs `f` over a fresh semi-external mount per format and over the
/// in-memory engine, then checks the matrix invariants:
/// oracle-identical results (by `check`), equal `edges_delivered`
/// across formats, and strictly fewer bytes requested of the
/// compressed image.
fn run_matrix<R>(
    app: &str,
    g: &Graph,
    f: impl Fn(&Engine<'_>) -> (R, RunStats),
    check: impl Fn(&R, &R, &str),
) {
    let (mem_result, _) = f(&Engine::new_mem(g, cfg()));
    let mut by_format = Vec::new();
    for (fmt_name, opts) in formats() {
        let cell = format!("{app}/{fmt_name}");
        let (safs, index) = mount(g, &opts);
        let engine = Engine::new_sem(&safs, index, cfg());
        let (result, stats) = f(&engine);
        check(&result, &mem_result, &cell);
        let io = stats.io.as_ref().expect("sem run reports io");
        assert!(io.read_requests > 0, "{cell}: never touched the device");
        by_format.push((stats.edges_delivered, stats.bytes_requested));
    }
    let (raw_edges, raw_bytes) = by_format[0];
    let (v2_edges, v2_bytes) = by_format[1];
    assert_eq!(
        raw_edges, v2_edges,
        "{app}: formats delivered different edge counts"
    );
    assert!(
        v2_bytes < raw_bytes,
        "{app}: {v2_bytes} bytes requested of the compressed image, \
         {raw_bytes} of the raw one"
    );
}

fn directed_graph() -> Graph {
    gen::rmat(10, 8, gen::RmatSkew::default(), 0xC0DE)
}

fn undirected_graph() -> Graph {
    let d = gen::rmat(8, 6, gen::RmatSkew::default(), 0xC0DE);
    let mut b = GraphBuilder::undirected();
    for (s, t) in d.edges() {
        b.add_edge(s, t);
    }
    b.build()
}

#[test]
fn bfs_matrix() {
    let g = directed_graph();
    let root = fg_bench::traversal_root(&g);
    let oracle = fg_baselines::direct::bfs_levels(&g, root);
    run_matrix(
        "bfs",
        &g,
        |e| fg_apps::bfs(e, root).unwrap(),
        |got, mem, cell| {
            assert_eq!(got, mem, "{cell}: differs from FG-mem");
            assert_eq!(*got, oracle, "{cell}: differs from the direct oracle");
        },
    );
}

#[test]
fn wcc_matrix() {
    let g = directed_graph();
    let oracle = fg_baselines::direct::wcc_labels(&g);
    run_matrix(
        "wcc",
        &g,
        |e| fg_apps::wcc(e).unwrap(),
        |got, mem, cell| {
            assert_eq!(got, mem, "{cell}: differs from FG-mem");
            assert_eq!(*got, oracle, "{cell}: differs from the direct oracle");
        },
    );
}

#[test]
fn pagerank_matrix() {
    let g = directed_graph();
    // Threshold 0 keeps the active set structural (every vertex that
    // received a message), so `edges_delivered` is deterministic
    // across formats; ranks are float sums whose order varies with
    // message arrival, hence the tolerance.
    run_matrix(
        "pagerank",
        &g,
        |e| fg_apps::pagerank(e, 0.85, 0.0, 8).unwrap(),
        |got, mem, cell| {
            assert_eq!(got.len(), mem.len());
            for (i, (a, b)) in got.iter().zip(mem.iter()).enumerate() {
                assert!((a - b).abs() < 1e-3, "{cell}: vertex {i}: {a} vs {b}");
            }
        },
    );
}

#[test]
fn tc_matrix() {
    let g = undirected_graph();
    let want_total = fg_baselines::direct::triangle_count(&g);
    let want_per = fg_baselines::direct::triangles_per_vertex(&g);
    run_matrix(
        "tc",
        &g,
        |e| {
            let (total, per, stats) = fg_apps::triangle_count(e, true).unwrap();
            ((total, per), stats)
        },
        |got, mem, cell| {
            assert_eq!(got, mem, "{cell}: differs from FG-mem");
            assert_eq!(got.0, want_total, "{cell}: total differs from oracle");
            assert_eq!(got.1, want_per, "{cell}: per-vertex differs from oracle");
        },
    );
}

#[test]
fn sharded_matrix() {
    // Every format, re-run through the sharded driver on a 3-shard
    // image: sharding must be app-transparent — the same
    // results as FG-mem out of the same application code.
    use flashgraph::ShardedEngine;
    let g = directed_graph();
    let root = fg_bench::traversal_root(&g);
    let mem = Engine::new_mem(&g, cfg());
    let (mem_bfs, _) = fg_apps::bfs(&mem, root).unwrap();
    let (mem_wcc, _) = fg_apps::wcc(&mem).unwrap();
    let (mem_pr, _) = fg_apps::pagerank(&mem, 0.85, 0.0, 8).unwrap();
    for (fmt_name, opts) in formats() {
        let cell = format!("sharded/{fmt_name}");
        let fg_bench::ShardFixture { set, index, .. } = fg_bench::build_shard_fixture(
            &g,
            0.1,
            SafsConfig::default(),
            ArrayConfig::small_test(),
            &opts,
            3,
        )
        .unwrap();
        let engine = ShardedEngine::new(&set, index, cfg());
        let (bfs, _) = fg_apps::bfs(&engine, root).unwrap();
        assert_eq!(bfs, mem_bfs, "{cell}: bfs differs from FG-mem");
        let (wcc, stats) = fg_apps::wcc(&engine).unwrap();
        assert_eq!(wcc, mem_wcc, "{cell}: wcc differs from FG-mem");
        assert!(
            stats.shard_msg_bytes > 0,
            "{cell}: cross-shard WCC never used the bus"
        );
        let (pr, _) = fg_apps::pagerank(&engine, 0.85, 0.0, 8).unwrap();
        for (i, (a, b)) in pr.iter().zip(mem_pr.iter()).enumerate() {
            assert!((a - b).abs() < 1e-3, "{cell}: vertex {i}: {a} vs {b}");
        }
    }
}

#[test]
fn sharded_tc_reads_foreign_neighbour_lists() {
    // TC requests *other* vertices' edge lists, so on a sharded image
    // it exercises the synchronous foreign-shard read path in every
    // format.
    use flashgraph::ShardedEngine;
    let g = undirected_graph();
    let want_total = fg_baselines::direct::triangle_count(&g);
    let want_per = fg_baselines::direct::triangles_per_vertex(&g);
    for (fmt_name, opts) in formats() {
        let fg_bench::ShardFixture { set, index, .. } = fg_bench::build_shard_fixture(
            &g,
            0.1,
            SafsConfig::default(),
            ArrayConfig::small_test(),
            &opts,
            3,
        )
        .unwrap();
        let engine = ShardedEngine::new(&set, index, cfg());
        let (total, per, _) = fg_apps::triangle_count(&engine, true).unwrap();
        assert_eq!(total, want_total, "sharded/{fmt_name}: total");
        assert_eq!(per, want_per, "sharded/{fmt_name}: per-vertex");
    }
}

#[test]
fn chunked_hub_delivery_matches_across_formats() {
    // Hub lists asked for in ranges of `chunk` edges: under the
    // compressed format a range that starts mid-block resolves through
    // the block's skip table, and every piece must still be its CSR
    // slice.
    let g = undirected_graph();
    for (fmt_name, opts) in formats() {
        let (safs, index) = mount(&g, &opts);
        let engine = Engine::new_sem(&safs, index, cfg());
        for chunk in [7u64, 64] {
            let (states, _) = engine.run(&SplitProbe { chunk }, Init::All).unwrap();
            for v in g.vertices() {
                let want: Vec<u32> = g.out_neighbors(v).iter().map(|e| e.0).collect();
                let got = states[v.index()].sorted();
                assert_eq!(
                    got,
                    expected_pieces(&want, chunk),
                    "{fmt_name}/{chunk} at {v}"
                );
            }
        }
    }
}
