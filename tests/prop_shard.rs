//! Property tests for sharded execution: N cooperating engines over a
//! partitioned image must be indistinguishable from one engine over
//! the whole image — same per-vertex results, same delivered edges —
//! for arbitrary random graphs, shard counts and image formats. Every
//! property sweeps 1 (the degenerate reproduction case) through
//! [`MAX_SHARDS`] shards, and draws the image format as one more input.

use fg_bench::build_shard_fixture;
use fg_format::WriteOptions;
use fg_graph::{gen, Graph, GraphBuilder};
use fg_safs::{Safs, SafsConfig};
use fg_ssdsim::{ArrayConfig, SsdArray};
use fg_types::{EdgeDir, VertexId};
use flashgraph::{
    Engine, EngineConfig, Init, PageVertex, Request, ShardedEngine, VertexContext, VertexProgram,
};
use proptest::prelude::*;

mod mixed;
use mixed::{mixed_frontier, ListProbe, ListState};

fn graph_strategy() -> impl Strategy<Value = (Vec<(u32, u32)>, u32)> {
    (
        prop::collection::vec((0u32..150, 0u32..150), 1..400),
        0u32..150,
    )
}

fn build_graph(edges: &[(u32, u32)]) -> Graph {
    let mut b = GraphBuilder::directed();
    for &(s, d) in edges {
        b.add_edge(VertexId(s), VertexId(d));
    }
    b.build()
}

/// The most shards a property sweeps.
const MAX_SHARDS: usize = 4;

/// Either image format, drawn like any other input.
fn image_format() -> impl Strategy<Value = WriteOptions> {
    prop_oneof![
        Just(WriteOptions::default()),
        Just(WriteOptions::compressed())
    ]
}

/// One mount per shard over the image format `opts` selects.
fn sharded_fixture(
    g: &Graph,
    shards: usize,
    opts: &WriteOptions,
) -> (fg_safs::ShardSet, fg_format::ShardedIndex) {
    let fx = build_shard_fixture(
        g,
        0.25,
        SafsConfig::default(),
        ArrayConfig::small_test(),
        opts,
        shards,
    )
    .unwrap();
    (fx.set, fx.index)
}

/// Unsharded mount of the same image format — the 1-engine baseline.
fn sem_mount(g: &Graph, opts: &WriteOptions) -> (Safs, fg_format::GraphIndex) {
    let array = SsdArray::new_mem(
        ArrayConfig::small_test(),
        fg_format::required_capacity_with(g, opts),
    )
    .unwrap();
    fg_format::write_image_with(g, &array, opts).unwrap();
    let (_, index) = fg_format::load_index(&array).unwrap();
    let safs = Safs::new(SafsConfig::default().with_cache_bytes(8 * 4096), array).unwrap();
    (safs, index)
}

/// Frontier BFS recording discovery levels (same probe as
/// `prop_pipeline`): results depend on exact frontier evolution, so
/// any divergence in activation routing across the shard bus shows.
struct LevelBfs;

#[derive(Default, Clone, PartialEq, Debug)]
struct LState {
    level: Option<u32>,
}

impl VertexProgram for LevelBfs {
    type State = LState;
    type Msg = ();
    fn run(&self, v: VertexId, state: &mut LState, ctx: &mut VertexContext<'_, ()>) {
        if state.level.is_none() {
            state.level = Some(ctx.iteration());
            ctx.request(v, Request::edges(EdgeDir::Out));
        }
    }
    fn run_on_vertex(
        &self,
        _v: VertexId,
        _s: &mut LState,
        vertex: &PageVertex<'_>,
        ctx: &mut VertexContext<'_, ()>,
    ) {
        for dst in vertex.edges() {
            ctx.activate(dst);
        }
    }
}

/// Every vertex asks for one list, always another shard's: the vertex
/// `split` for the shard below it, vertex 0 for the shard above.
struct ForeignOnly {
    split: u32,
}

impl VertexProgram for ForeignOnly {
    type State = u64;
    type Msg = ();
    fn run(&self, v: VertexId, _: &mut u64, ctx: &mut VertexContext<'_, ()>) {
        let other = if v.0 < self.split { self.split } else { 0 };
        ctx.request(VertexId(other), Request::edges(EdgeDir::Out));
    }
    fn run_on_vertex(
        &self,
        _v: VertexId,
        seen: &mut u64,
        vertex: &PageVertex<'_>,
        _ctx: &mut VertexContext<'_, ()>,
    ) {
        *seen += vertex.degree() as u64;
    }
}

#[test]
fn a_run_of_nothing_but_foreign_reads_books_every_byte() {
    // Foreign reads are tallied by the worker that makes them and
    // folded into the run's counters at its flushes. Here no worker
    // ever has anything *to* flush — no request is its own shard's —
    // so the fold must not hide behind a non-empty issue queue.
    let g = gen::rmat(8, 6, gen::RmatSkew::default(), 5);
    let (set, index) = sharded_fixture(&g, 2, &WriteOptions::default());
    let split = index.shard_range(1).start;
    let deg = |v: u32| g.out_degree(VertexId(v)) as u64;
    assert!(deg(0) > 0 && deg(split) > 0, "both lists worth a read");
    let n = g.num_vertices() as u64;
    let edges = split as u64 * deg(split) + (n - split as u64) * deg(0);
    let engine = ShardedEngine::new(&set, index, EngineConfig::small());
    let (seen, stats) = engine.run(&ForeignOnly { split }, Init::All).unwrap();
    assert_eq!(seen.iter().sum::<u64>(), edges);
    assert_eq!(stats.edges_delivered, edges);
    assert_eq!(
        stats.bytes_requested,
        4 * edges,
        "raw lists, four bytes an edge"
    );
    assert_eq!(stats.issued_requests, n, "one synchronous read each");
    let rows: u64 = stats
        .per_iteration
        .iter()
        .map(|it| it.bytes_requested)
        .sum();
    assert_eq!(rows, stats.bytes_requested);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn sharded_bfs_and_wcc_match_oracles((edges, seed) in graph_strategy(), opts in image_format()) {
        let g = build_graph(&edges);
        let root = VertexId(seed % g.num_vertices().max(1) as u32);
        let bfs_oracle = fg_baselines::direct::bfs_levels(&g, root);
        let wcc_oracle = fg_baselines::direct::wcc_labels(&g);
        let mem = Engine::new_mem(&g, EngineConfig::small());
        let (_, mem_bfs_stats) = fg_apps::bfs(&mem, root).unwrap();
        let (_, mem_wcc_stats) = fg_apps::wcc(&mem).unwrap();
        for shards in 1..=MAX_SHARDS {
            let (set, index) = sharded_fixture(&g, shards, &opts);
            let engine = ShardedEngine::new(&set, index, EngineConfig::small());
            let (levels, bfs_stats) = fg_apps::bfs(&engine, root).unwrap();
            prop_assert_eq!(&levels, &bfs_oracle);
            prop_assert_eq!(bfs_stats.edges_delivered, mem_bfs_stats.edges_delivered);
            let (labels, wcc_stats) = fg_apps::wcc(&engine).unwrap();
            prop_assert_eq!(&labels, &wcc_oracle);
            prop_assert_eq!(wcc_stats.edges_delivered, mem_wcc_stats.edges_delivered);
            // Deduped in-flight reads roll up exactly: the per-mount
            // counters sum to the set-wide aggregate.
            let dedup_sum: u64 = set
                .as_slice().iter()
                .map(|m| m.array().stats().snapshot().dedup_bytes)
                .sum();
            prop_assert_eq!(dedup_sum, set.io_stats().dedup_bytes);
        }
    }

    #[test]
    fn sharded_pagerank_matches_single_engine((edges, _) in graph_strategy(), opts in image_format()) {
        // Threshold 0 keeps the active set structural, so
        // `edges_delivered` is deterministic; ranks are float sums
        // whose order varies with message arrival, hence the same
        // tolerance the format matrix uses.
        let g = build_graph(&edges);
        let mem = Engine::new_mem(&g, EngineConfig::small());
        let (want, mem_stats) = fg_apps::pagerank(&mem, 0.85, 0.0, 8).unwrap();
        for shards in 1..=MAX_SHARDS {
            let (set, index) = sharded_fixture(&g, shards, &opts);
            let engine = ShardedEngine::new(&set, index, EngineConfig::small());
            let (ranks, stats) = fg_apps::pagerank(&engine, 0.85, 0.0, 8).unwrap();
            prop_assert_eq!(ranks.len(), want.len());
            for (i, (a, b)) in ranks.iter().zip(want.iter()).enumerate() {
                prop_assert!((a - b).abs() < 1e-3, "{} shards: vertex {}: {} vs {}",
                    shards, i, a, b);
            }
            prop_assert_eq!(stats.edges_delivered, mem_stats.edges_delivered);
        }
    }

    #[test]
    fn one_shard_reproduces_unsharded_exactly(
        scale in 5u32..8,
        factor in 1u32..6,
        seed in 0u64..1 << 20,
        opts in image_format(),
    ) {
        // A 1-shard sharded run is the same image, the same index,
        // and one engine whose window is the whole graph — every
        // counter must reproduce the unsharded run exactly.
        let g = gen::rmat(scale, factor, gen::RmatSkew::default(), seed);
        let root = fg_bench::traversal_root(&g);
        let (safs, index) = sem_mount(&g, &opts);
        let single = Engine::new_sem(&safs, index, EngineConfig::small());
        let (want, want_stats) = single
            .run(&LevelBfs, Init::Seeds(vec![root]))
            .unwrap();
        let (set, index) = sharded_fixture(&g, 1, &opts);
        let engine = ShardedEngine::new(&set, index, EngineConfig::small());
        let (got, stats) = engine.run(&LevelBfs, Init::Seeds(vec![root])).unwrap();
        prop_assert_eq!(got, want);
        prop_assert_eq!(stats.iterations, want_stats.iterations);
        prop_assert_eq!(stats.edges_delivered, want_stats.edges_delivered);
        prop_assert_eq!(stats.bytes_requested, want_stats.bytes_requested);
        prop_assert_eq!(stats.messages_sent, want_stats.messages_sent);
        prop_assert_eq!(stats.activations, want_stats.activations);
        prop_assert_eq!(stats.shard_msg_bytes, 0);
    }
}

proptest! {
    // The cross product below runs formats × shard counts per case,
    // so it gets fewer cases than the suites above.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn sharded_runs_that_sweep_and_select_match_memory(
        scale in 5u32..8,
        factor in 1u32..8,
        seed in 0u64..1 << 20,
        stride in 2u32..9,
    ) {
        // Each shard claims runs of its own window's partitions, so a
        // frontier dense in half the ids sweeps there and selects in
        // the other half, on every shard count and either format.
        let g = gen::rmat(scale, factor, gen::RmatSkew::default(), seed);
        let init = Init::Seeds(mixed_frontier(g.num_vertices() as u32, stride));
        let mem = Engine::new_mem(&g, EngineConfig::small());
        let (want, want_stats) = mem.run(&ListProbe, init.clone()).unwrap();
        let sorted = |s: &[ListState]| s.iter().map(ListState::sorted).collect::<Vec<_>>();
        for opts in [WriteOptions::default(), WriteOptions::compressed()] {
            for shards in 1..=MAX_SHARDS {
                let (set, index) = sharded_fixture(&g, shards, &opts);
                let engine = ShardedEngine::new(&set, index, EngineConfig::small());
                let (got, stats) = engine.run(&ListProbe, init.clone()).unwrap();
                prop_assert_eq!(sorted(&got), sorted(&want));
                prop_assert_eq!(stats.edges_delivered, want_stats.edges_delivered);
            }
        }
    }

    #[test]
    fn sharded_equivalence_across_formats_and_modes(
        scale in 5u32..7,
        factor in 1u32..8,
        seed in 0u64..1 << 20,
        raw_seeds in prop::collection::vec(0u32..512, 1..8),
    ) {
        let g = gen::rmat(scale, factor, gen::RmatSkew::default(), seed);
        let n = g.num_vertices() as u32;
        let mut seeds: Vec<VertexId> = raw_seeds.iter().map(|&s| VertexId(s % n)).collect();
        seeds.sort_unstable();
        seeds.dedup();
        let mem = Engine::new_mem(&g, EngineConfig::small());
        let (want, want_stats) = mem.run(&LevelBfs, Init::Seeds(seeds.clone())).unwrap();
        for opts in [WriteOptions::default(), WriteOptions::compressed()] {
            for shards in 1..=MAX_SHARDS {
                let (set, index) = sharded_fixture(&g, shards, &opts);
                let engine = ShardedEngine::new(&set, index, EngineConfig::small());
                let (got, stats) = engine.run(&LevelBfs, Init::Seeds(seeds.clone())).unwrap();
                prop_assert_eq!(&got, &want);
                prop_assert_eq!(stats.edges_delivered, want_stats.edges_delivered);
            }
        }
    }
}
