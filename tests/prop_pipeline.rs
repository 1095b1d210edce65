//! Property-based pipeline tests: for arbitrary random graphs, the
//! semi-external engine agrees with the in-memory oracles.

use fg_format::{load_index, required_capacity_with, write_image_with, WriteOptions};
use fg_graph::{gen, Graph, GraphBuilder};
use fg_safs::{Safs, SafsConfig};
use fg_ssdsim::{ArrayConfig, SsdArray};
use fg_types::{EdgeDir, VertexId};
use flashgraph::merge::{merge_requests, RangeReq};
use flashgraph::{Engine, EngineConfig, Init, PageVertex, Request, VertexContext, VertexProgram};
use proptest::prelude::*;

mod common;
use common::{expected_pieces, SplitProbe};
mod mixed;
use mixed::{mixed_frontier, ListProbe, ListState};

fn graph_strategy() -> impl Strategy<Value = (Vec<(u32, u32)>, u32)> {
    (
        prop::collection::vec((0u32..150, 0u32..150), 1..500),
        0u32..150,
    )
}

/// Requests positions [start, start+len) of every vertex's out list
/// and records each delivered slice with its reported offset.
struct RangeProbe {
    start: u64,
    len: u64,
}

#[derive(Default, Clone)]
struct ProbeState {
    started: bool,
    got: Vec<(u64, Vec<u32>)>,
}

impl VertexProgram for RangeProbe {
    type State = ProbeState;
    type Msg = ();

    fn run(&self, v: VertexId, state: &mut ProbeState, ctx: &mut VertexContext<'_, ()>) {
        if !state.started {
            state.started = true;
            ctx.request(v, Request::edges(EdgeDir::Out).range(self.start, self.len));
        }
    }

    fn run_on_vertex(
        &self,
        _v: VertexId,
        state: &mut ProbeState,
        vertex: &PageVertex<'_>,
        _ctx: &mut VertexContext<'_, ()>,
    ) {
        state
            .got
            .push((vertex.offset(), vertex.edges().map(|e| e.0).collect()));
    }
}

/// Either image format, drawn like any other input: every
/// equivalence property here holds on both.
fn image_format() -> impl Strategy<Value = WriteOptions> {
    prop_oneof![
        Just(WriteOptions::default()),
        Just(WriteOptions::compressed())
    ]
}

/// Frontier-style BFS used by the scheduler equivalence
/// properties: every newly reached vertex records its level and
/// requests its out list, so results depend on exact frontier
/// evolution and delivered edges — a sharp equivalence probe.
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

fn sem_mount(g: &Graph, opts: &WriteOptions) -> (Safs, fg_format::GraphIndex) {
    let array =
        SsdArray::new_mem(ArrayConfig::small_test(), required_capacity_with(g, opts)).unwrap();
    write_image_with(g, &array, opts).unwrap();
    let (_, index) = load_index(&array).unwrap();
    // Tiny cache: stress partial hits across chunk boundaries.
    let safs = Safs::new(SafsConfig::default().with_cache_bytes(8 * 4096), array).unwrap();
    (safs, index)
}

/// `ListProbe` over `frontier` in memory and over a mount of `opts`,
/// at `workers`: the per-vertex deliveries must be the same; returns
/// the mounted run's swept requests.
fn mixed_run_matches_memory(
    g: &Graph,
    frontier: &[VertexId],
    opts: &WriteOptions,
    workers: usize,
) -> Result<u64, TestCaseError> {
    let cfg = EngineConfig::small().with_threads(workers);
    let init = Init::Seeds(frontier.to_vec());
    let (want, want_stats) = Engine::new_mem(g, cfg)
        .run(&ListProbe, init.clone())
        .unwrap();
    let (safs, index) = sem_mount(g, opts);
    let (got, stats) = Engine::new_sem(&safs, index, cfg)
        .run(&ListProbe, init)
        .unwrap();
    let sorted = |s: &[ListState]| s.iter().map(ListState::sorted).collect::<Vec<_>>();
    prop_assert_eq!(sorted(&got), sorted(&want));
    prop_assert_eq!(stats.edges_delivered, want_stats.edges_delivered);
    prop_assert_eq!(stats.iterations, 1);
    Ok(stats.swept_requests)
}

#[test]
fn a_frontier_dense_in_half_its_ids_sweeps_that_half_and_selects_the_rest() {
    // Every vertex has four out- and four in-edges, so a run of the
    // dense half asks for every byte of its span and sweeps, and a run
    // of the scattered half asks for one list in eight and selects —
    // at any worker count, on either format: exactly the dense half's
    // out- and in-lists are swept.
    let n = 4096u32;
    let mut b = GraphBuilder::directed();
    for v in 0..n {
        for k in 1..=4 {
            b.add_edge(VertexId(v), VertexId((v + k) % n));
        }
    }
    let g = b.build();
    let frontier = mixed_frontier(n, 8);
    for opts in [WriteOptions::default(), WriteOptions::compressed()] {
        for workers in 1..=4 {
            let swept = mixed_run_matches_memory(&g, &frontier, &opts, workers).unwrap();
            assert_eq!(swept, n as u64, "{workers} workers, {:?}", opts.format);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn runs_that_sweep_and_runs_that_select_match_memory(
        scale in 5u32..9,
        factor in 1u32..8,
        seed in 0u64..1 << 20,
        stride in 2u32..9,
        workers in 1usize..5,
        opts in image_format(),
    ) {
        // One iteration over a frontier dense in half its ids and
        // scattered in the other: some runs sweep and others select,
        // and the deliveries are the in-memory engine's. A dense run
        // asks for every list in its span, so the dense half sweeps
        // whenever it has a list to ask for.
        let g = gen::rmat(scale, factor, gen::RmatSkew::default(), seed);
        let n = g.num_vertices() as u32;
        let frontier = mixed_frontier(n, stride);
        let swept = mixed_run_matches_memory(&g, &frontier, &opts, workers)?;
        let listed = (0..n / 2)
            .map(VertexId)
            .any(|v| g.out_degree(v) + g.in_degree(v) > 0);
        prop_assert_eq!(swept > 0, listed);
    }

    #[test]
    fn sem_bfs_matches_oracle((edges, seed) in graph_strategy(), opts in image_format()) {
        let mut b = GraphBuilder::directed();
        for &(s, d) in &edges {
            b.add_edge(VertexId(s), VertexId(d));
        }
        let g = b.build();
        let root = VertexId(seed % g.num_vertices().max(1) as u32);
        // Tiny cache + tiny batches: stress partial hits and merging.
        let (safs, index) = sem_mount(&g, &opts);
        let engine = Engine::new_sem(&safs, index, EngineConfig::small());
        let (levels, _) = fg_apps::bfs(&engine, root).unwrap();
        prop_assert_eq!(levels, fg_baselines::direct::bfs_levels(&g, root));
    }

    #[test]
    fn sem_wcc_matches_union_find((edges, _) in graph_strategy(), opts in image_format()) {
        let mut b = GraphBuilder::directed();
        for &(s, d) in &edges {
            b.add_edge(VertexId(s), VertexId(d));
        }
        let g = b.build();
        let (safs, index) = sem_mount(&g, &opts);
        let engine = Engine::new_sem(&safs, index, EngineConfig::small());
        let (labels, _) = fg_apps::wcc(&engine).unwrap();
        prop_assert_eq!(labels, fg_baselines::direct::wcc_labels(&g));
    }

    #[test]
    fn merge_cap_bounds_covers_and_loses_nothing(
        reqs in prop::collection::vec((0u64..1 << 20, 1u64..32 * 1024), 1..200),
        cap_pages in 1u64..16,
    ) {
        let page_bytes = 4096u64;
        let cap = cap_pages * page_bytes;
        let reqs: Vec<RangeReq> = reqs
            .iter()
            .enumerate()
            .map(|(i, &(offset, bytes))| RangeReq { offset, bytes, meta: i as u32 })
            .collect();
        let n = reqs.len();
        let merged = merge_requests(reqs, page_bytes, true, cap);
        // Invariant 1a: the covers of one batch are page-disjoint —
        // no page of the device is read twice (the cap never splits
        // an overlapping or page-sharing request off into its own
        // duplicating cover).
        let mut covered_pages = std::collections::HashSet::new();
        for m in &merged {
            for page in m.offset / page_bytes..=(m.offset + m.bytes - 1) / page_bytes {
                prop_assert!(
                    covered_pages.insert(page),
                    "page {} covered by two merged covers",
                    page
                );
            }
        }
        // Invariant 1b: the cap is exact at page-clean split points —
        // re-simulating the greedy walk, a part may only extend a
        // cover past the cap when it shared a page with the cover
        // built so far (splitting there would duplicate that page).
        for m in &merged {
            let mut end = 0u64;
            for p in &m.parts {
                let grown = end.max(p.offset + p.bytes) - m.offset;
                if end != 0 && grown > cap {
                    prop_assert!(
                        p.offset / page_bytes <= (end - 1) / page_bytes,
                        "part at {} grew cover {} past the cap without sharing a page",
                        p.offset,
                        m.offset
                    );
                }
                end = end.max(p.offset + p.bytes);
            }
        }
        // Invariant 2: every logical request survives merging exactly
        // once, inside its cover.
        let mut metas: Vec<u32> = Vec::new();
        for m in &merged {
            for p in &m.parts {
                prop_assert!(p.offset >= m.offset);
                prop_assert!(p.offset + p.bytes <= m.offset + m.bytes);
                metas.push(p.meta);
            }
        }
        metas.sort_unstable();
        prop_assert_eq!(metas, (0..n as u32).collect::<Vec<_>>());
        // Invariant 3: covers come out sorted by offset (they are
        // issued as separate device requests in ascending order).
        for w in merged.windows(2) {
            prop_assert!(w[0].offset <= w[1].offset);
        }
    }

    #[test]
    fn arbitrary_range_request_matches_csr_slice(
        scale in 5u32..8,
        factor in 1u32..6,
        seed in 0u64..1 << 20,
        start in 0u64..64,
        len in 0u64..64,
        opts in image_format(),
    ) {
        // For an arbitrary position range over an R-MAT graph, the
        // semi-external engine must deliver exactly the oracle's CSR
        // slice (clamped to the list) for every vertex, offsets
        // included.
        let g = gen::rmat(scale, factor, gen::RmatSkew::default(), seed);
        let (safs, index) = sem_mount(&g, &opts);
        let engine = Engine::new_sem(&safs, index, EngineConfig::small());
        let (states, _) = engine.run(&RangeProbe { start, len }, Init::All).unwrap();
        for v in g.vertices() {
            let full = g.out_neighbors(v);
            let lo = (start as usize).min(full.len());
            let hi = lo + (len as usize).min(full.len() - lo);
            let want: Vec<u32> = full[lo..hi].iter().map(|e| e.0).collect();
            let st = &states[v.index()];
            prop_assert_eq!(st.got.len(), 1);
            prop_assert_eq!(st.got[0].0, lo as u64);
            prop_assert_eq!(&st.got[0].1, &want);
        }
    }

    #[test]
    fn chunked_delivery_reassembles_without_duplicate_reads(
        scale in 5u32..8,
        factor in 2u32..8,
        seed in 0u64..1 << 20,
        chunk in 1u64..24,
    ) {
        // A list asked for as ranges of `chunk` edges must (a) come
        // back one callback per range, at the range's offset, (b)
        // reassemble to the full list, and (c) not re-read pages the
        // whole-list execution reads once. Pinned to the raw format:
        // the byte-for-byte accounting equalities below
        // (`bytes_requested`) are a property of positional 4-byte
        // lists — compressed range requests fetch restart-aligned (or
        // whole-block) ranges whose *device* traffic still dedups but
        // whose requested bytes legitimately overlap. Ranged reads of
        // compressed lists are covered by `tests/format_matrix.rs`.
        let g = gen::rmat(scale, factor, gen::RmatSkew::default(), seed);

        let (safs, index) = sem_mount(&g, &WriteOptions::default());
        let whole = Engine::new_sem(&safs, index, EngineConfig::small());
        let probe = RangeProbe { start: 0, len: u64::MAX };
        let (_, whole_stats) = whole.run(&probe, Init::All).unwrap();

        let (safs, index) = sem_mount(&g, &WriteOptions::default());
        let split = Engine::new_sem(&safs, index, EngineConfig::small());
        let (states, split_stats) = split.run(&SplitProbe { chunk }, Init::All).unwrap();

        for v in g.vertices() {
            let want: Vec<u32> = g.out_neighbors(v).iter().map(|e| e.0).collect();
            prop_assert_eq!(states[v.index()].sorted(), expected_pieces(&want, chunk));
        }
        let (a, b) = (whole_stats.io.unwrap(), split_stats.io.unwrap());
        // No duplicate page reads when a list is asked for in ranges:
        prop_assert_eq!(a.pages_read, b.pages_read);
        prop_assert_eq!(a.bytes_read, b.bytes_read);
        prop_assert_eq!(whole_stats.bytes_requested, split_stats.bytes_requested);
        prop_assert_eq!(whole_stats.edges_delivered, split_stats.edges_delivered);
    }

    #[test]
    fn pipeline_equivalent_to_barrier(
        scale in 5u32..9,
        factor in 1u32..10,
        seed in 0u64..1 << 20,
        raw_seeds in prop::collection::vec(0u32..512, 1..12),
        nthreads in 1usize..5,
        opts in image_format(),
    ) {
        // The pipelined scheduler relaxes *when* callbacks run (as
        // pages land, possibly stolen by another worker) but must
        // never change *what* a program observes: against the
        // in-memory engine on the same graph — the referee the
        // lock-step barrier scheduler used to stand in for — every
        // worker count must produce bit-identical per-vertex states
        // and deliver exactly the same edges, on either image format.
        let g = gen::rmat(scale, factor, gen::RmatSkew::default(), seed);
        let n = g.num_vertices() as u32;
        let mut seeds: Vec<VertexId> = raw_seeds.iter().map(|&s| VertexId(s % n)).collect();
        seeds.sort_unstable();
        seeds.dedup();

        let cfg = EngineConfig::small().with_threads(nthreads);

        let mem = Engine::new_mem(&g, cfg);
        let (want, want_stats) = mem.run(&LevelBfs, Init::Seeds(seeds.clone())).unwrap();

        let (safs, index) = sem_mount(&g, &opts);
        let sem = Engine::new_sem(&safs, index, cfg);
        let (got, stats) = sem.run(&LevelBfs, Init::Seeds(seeds.clone())).unwrap();

        for v in g.vertices() {
            prop_assert_eq!(&got[v.index()], &want[v.index()]);
        }
        prop_assert_eq!(stats.edges_delivered, want_stats.edges_delivered);
    }

    #[test]
    fn sem_kcore_matches_peeling((edges, k) in graph_strategy(), opts in image_format()) {
        let mut b = GraphBuilder::directed();
        for &(s, d) in &edges {
            b.add_edge(VertexId(s), VertexId(d));
        }
        let g = b.build();
        let k = k % 6 + 1;
        let (safs, index) = sem_mount(&g, &opts);
        let engine = Engine::new_sem(&safs, index, EngineConfig::small());
        let (core, _) = fg_apps::k_core(&engine, k).unwrap();
        prop_assert_eq!(core, fg_baselines::direct::k_core(&g, k));
    }
}
