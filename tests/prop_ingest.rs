//! Property tests for mutable graphs: LSM-style delta ingest under
//! live serving. For arbitrary random base graphs and arbitrary
//! add/remove batches, every list the engine delivers from
//! (image + pinned deltas) must equal the union-graph oracle — whole
//! or asked for in ranges, across both image formats and both serving
//! backends — and
//! `edges_delivered` must be *exact* (the merged degree, counted once
//! per delivered window). Snapshot isolation is checked by replaying a
//! pinned watermark while ingest races: the replays must be
//! bit-identical — and, while a compactor races, must never lose an
//! edge the watermark had.
//!
//! The write path reads the image through the mount, and the second
//! half of this file holds it to that: `fg_format`'s back-readers
//! return the same lists (and the same `CorruptImage` errors) over the
//! raw array, a `Safs` mount and its streaming view, and the device ledger — counts
//! from `IoStats`, never wall-clock — shows canonicalization reads
//! served by the cache and a compaction reading the old image back as
//! one sweep that leaves the cache alone.
//!
//! CI's release stress step drives this suite at `PROPTEST_CASES=256`
//! alongside `prop_serve`.

use std::sync::Arc;

use fg_bench::build_shard_fixture;
use fg_format::{
    load_index, read_list, required_capacity_with, write_image_with, GraphIndex, ImageLists,
    ImageMeta, ListSource, SliceDecode, WriteOptions,
};
use fg_graph::{gen, DeltaBatch, DeltaLog, DeltaOp, Graph, GraphBuilder};
use fg_safs::{Safs, SafsConfig};
use fg_ssdsim::{ArrayConfig, ByteSource, IoStatsSnapshot, SsdArray};
use fg_types::{EdgeDir, FgError, VertexId};
use flashgraph::{
    Engine, EngineConfig, GraphService, Init, PageVertex, QueryOpts, Request, RunStats,
    ServiceConfig, VertexContext, VertexProgram,
};
use proptest::prelude::*;

mod common;
use common::{expected_pieces, SplitProbe, SplitState};

const N: u32 = 60;

fn base_strategy() -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0u32..N, 0u32..N), 1..150)
}

/// 1–3 ingest batches of (src, dst, op) entries; `op == 0` removes,
/// anything else adds — biased 3:1 toward adds so batches mutate
/// lists instead of mostly missing them.
fn batches_strategy() -> impl Strategy<Value = Vec<Vec<(u32, u32, u32)>>> {
    prop::collection::vec(
        prop::collection::vec((0u32..N, 0u32..N, 0u32..4), 1..40),
        1..4,
    )
}

fn build_graph(edges: &[(u32, u32)]) -> Graph {
    let mut b = GraphBuilder::directed();
    // Deltas address the full [0, N) id space regardless of which
    // vertices the base edges happen to touch.
    b.reserve_vertices(N as usize);
    for &(s, d) in edges {
        b.add_edge(VertexId(s), VertexId(d));
    }
    b.build()
}

fn to_batch(entries: &[(u32, u32, u32)]) -> DeltaBatch {
    let mut batch = DeltaBatch::new();
    for &(s, d, op) in entries {
        if op == 0 {
            batch.remove_edge(VertexId(s), VertexId(d));
        } else {
            batch.add_edge(VertexId(s), VertexId(d));
        }
    }
    batch
}

fn single_service(g: &Graph, opts: &WriteOptions) -> GraphService {
    let array =
        SsdArray::new_mem(ArrayConfig::small_test(), required_capacity_with(g, opts)).unwrap();
    write_image_with(g, &array, opts).unwrap();
    let (_, index) = load_index(&array).unwrap();
    // Tiny cache: stress partial hits on the overlaid full-list reads.
    let safs = Safs::new(SafsConfig::default().with_cache_bytes(8 * 4096), array).unwrap();
    let cfg = ServiceConfig::default()
        .with_max_inflight(2)
        .with_engine(EngineConfig::small());
    GraphService::new(safs, index, cfg)
}

fn sharded_service(g: &Graph, opts: &WriteOptions, shards: usize) -> GraphService {
    let fx = build_shard_fixture(
        g,
        0.25,
        SafsConfig::default(),
        ArrayConfig::small_test(),
        opts,
        shards,
    )
    .unwrap();
    let cfg = ServiceConfig::default()
        .with_max_inflight(2)
        .with_engine(EngineConfig::small());
    GraphService::new_sharded(fx.set, fx.index, cfg)
}

/// Ingests every batch into the service and, in parallel bookkeeping,
/// into an in-memory oracle log over the same base — returning the
/// union graph the service's deliveries must now match. The two logs
/// canonicalize identically because [`Graph`]'s `BaseLists` and the
/// service's image-backed one read the same adjacency.
fn ingest_all(base: &Graph, batches: &[Vec<(u32, u32, u32)>], svc: &GraphService) -> Graph {
    let oracle = DeltaLog::for_graph(base);
    for entries in batches {
        let batch = to_batch(entries);
        oracle.apply(base, &batch).unwrap();
        svc.ingest(&batch).unwrap();
    }
    DeltaLog::union(base, &oracle.current_view())
}

/// Requests every vertex's full out-list once and records the
/// delivered edges — one delivery per vertex, so in list order.
struct Collect;

#[derive(Default, Clone)]
struct CState {
    started: bool,
    got: Vec<u32>,
}

impl VertexProgram for Collect {
    type State = CState;
    type Msg = ();

    fn run(&self, v: VertexId, state: &mut CState, ctx: &mut VertexContext<'_, ()>) {
        if !state.started {
            state.started = true;
            ctx.request(v, Request::edges(EdgeDir::Out));
        }
    }

    fn run_on_vertex(
        &self,
        _v: VertexId,
        state: &mut CState,
        vertex: &PageVertex<'_>,
        _ctx: &mut VertexContext<'_, ()>,
    ) {
        state.got.extend(vertex.edges().map(|e| e.0));
    }
}

/// Asserts every delivered list equals the union oracle's and that
/// `edges_delivered` is exactly the sum of merged degrees.
fn check_against(svc: &GraphService, union: &Graph, label: &str) -> Result<(), TestCaseError> {
    let cfg = EngineConfig::small();
    let (states, stats) = svc
        .run_opts(&Collect, Init::All, QueryOpts::new().with_engine(cfg))
        .unwrap();
    let mut want_delivered = 0u64;
    for v in union.vertices() {
        let want: Vec<u32> = union.out_neighbors(v).iter().map(|e| e.0).collect();
        want_delivered += want.len() as u64;
        prop_assert!(
            states[v.index()].got == want,
            "vertex {} diverged ({}): got {:?} want {:?}",
            v,
            label,
            states[v.index()].got,
            want
        );
    }
    prop_assert!(
        stats.edges_delivered == want_delivered,
        "edges_delivered must be the exact merged-degree sum ({}): got {} want {}",
        label,
        stats.edges_delivered,
        want_delivered
    );
    Ok(())
}

/// Asserts every vertex's out-list came back from [`SplitProbe`] as
/// the union oracle's list in pieces — each at its range's start — and
/// that `edges_delivered` is exactly the sum of merged degrees.
fn check_pieces(
    (states, stats): (Vec<SplitState>, RunStats),
    union: &Graph,
    chunk: u64,
    label: &str,
) -> Result<(), TestCaseError> {
    let mut want_delivered = 0u64;
    for v in union.vertices() {
        let want: Vec<u32> = union.out_neighbors(v).iter().map(|e| e.0).collect();
        want_delivered += want.len() as u64;
        let got = states[v.index()].sorted();
        prop_assert!(
            got == expected_pieces(&want, chunk),
            "vertex {} diverged ({}, chunk {}): got {:?} want {:?}",
            v,
            label,
            chunk,
            got,
            want
        );
    }
    prop_assert!(
        stats.edges_delivered == want_delivered,
        "edges_delivered must be the exact merged-degree sum ({}): got {} want {}",
        label,
        stats.edges_delivered,
        want_delivered
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Ranged requests on overlaid vertices: a window that starts past
    /// 0 is cut from the merged list — the base list fetched whole,
    /// the window in merged coordinates — through the engine over
    /// in-memory deltas and through the service over one mount and
    /// two, in both image formats.
    #[test]
    fn ranged_pieces_of_overlaid_lists_match_union_oracle(
        edges in base_strategy(),
        batches in batches_strategy(),
        chunk in 1u64..6,
    ) {
        let base = build_graph(&edges);
        let oracle = DeltaLog::for_graph(&base);
        for entries in &batches {
            oracle.apply(&base, &to_batch(entries)).unwrap();
        }
        let view = oracle.current_view();
        let union = DeltaLog::union(&base, &view);
        let probe = SplitProbe { chunk };
        let mem = Engine::new_mem(&base, EngineConfig::small()).with_deltas(view);
        check_pieces(mem.run(&probe, Init::All).unwrap(), &union, chunk, "mem")?;
        for opts in [WriteOptions::default(), WriteOptions::compressed()] {
            for mounts in [1, 2] {
                let svc = match mounts {
                    1 => single_service(&base, &opts),
                    _ => sharded_service(&base, &opts, mounts),
                };
                ingest_all(&base, &batches, &svc);
                let cfg = QueryOpts::new().with_engine(EngineConfig::small());
                let run = svc.run_opts(&probe, Init::All, cfg).unwrap();
                let label = format!("{} mount(s)/{:?}", mounts, opts.format);
                check_pieces(run, &union, chunk, &label)?;
            }
        }
    }

    #[test]
    fn single_mount_delivery_matches_union_oracle(
        edges in base_strategy(),
        batches in batches_strategy(),
    ) {
        let base = build_graph(&edges);
        for opts in [WriteOptions::default(), WriteOptions::compressed()] {
            let svc = single_service(&base, &opts);
            let union = ingest_all(&base, &batches, &svc);
            let label = format!("single/{:?}", opts.format);
            check_against(&svc, &union, &label)?;
        }
    }

    #[test]
    fn sharded_delivery_matches_union_oracle(
        edges in base_strategy(),
        batches in batches_strategy(),
        shards in 2usize..4,
    ) {
        let base = build_graph(&edges);
        for opts in [WriteOptions::default(), WriteOptions::compressed()] {
            let svc = sharded_service(&base, &opts, shards);
            let union = ingest_all(&base, &batches, &svc);
            let label = format!("sharded({})/{:?}", shards, opts.format);
            check_against(&svc, &union, &label)?;
        }
    }

    #[test]
    fn pinned_watermark_replays_bit_identical_under_racing_ingest(
        edges in base_strategy(),
        batches in batches_strategy(),
    ) {
        let base = build_graph(&edges);
        let svc = Arc::new(single_service(&base, &WriteOptions::default()));
        // Oracle state after the first batch only.
        let oracle = DeltaLog::for_graph(&base);
        oracle.apply(&base, &to_batch(&batches[0])).unwrap();
        let pinned_union = DeltaLog::union(&base, &oracle.current_view());
        svc.ingest(&to_batch(&batches[0])).unwrap();
        let w = svc.watermark();
        let (first, _) = svc
            .run_opts(&Collect, Init::All, QueryOpts::new().at_watermark(w))
            .unwrap();
        // Replay the pinned watermark while later batches ingest on
        // another thread; collect the replays, compare after joining.
        let replays: Vec<Vec<CState>> = std::thread::scope(|s| {
            let ingester = {
                let svc = Arc::clone(&svc);
                let rest = &batches[1..];
                s.spawn(move || {
                    for entries in rest {
                        svc.ingest(&to_batch(entries)).unwrap();
                    }
                })
            };
            let out = (0..3)
                .map(|_| {
                    svc.run_opts(&Collect, Init::All, QueryOpts::new().at_watermark(w))
                        .unwrap()
                        .0
                })
                .collect();
            ingester.join().unwrap();
            out
        });
        for states in &replays {
            for v in base.vertices() {
                prop_assert!(
                    states[v.index()].got == first[v.index()].got,
                    "pinned watermark {} replay diverged at {}",
                    w,
                    v
                );
            }
        }
        // The pinned view is exactly the union-after-batch-0 oracle...
        for v in pinned_union.vertices() {
            let want: Vec<u32> = pinned_union.out_neighbors(v).iter().map(|e| e.0).collect();
            prop_assert!(
                first[v.index()].got == want,
                "pinned view wrong at {}: got {:?} want {:?}",
                v,
                first[v.index()].got,
                want
            );
        }
        // ...and once the racing ingest drains, a fresh (unpinned)
        // query matches the full union.
        let oracle_rest = DeltaLog::for_graph(&base);
        for entries in &batches {
            oracle_rest.apply(&base, &to_batch(entries)).unwrap();
        }
        let full_union = DeltaLog::union(&base, &oracle_rest.current_view());
        check_against(&svc, &full_union, "single/after-race")?;
    }

    /// Time travel against a racing compactor. Every batch only adds,
    /// so the graph's states are ordered by inclusion: whatever
    /// generation a replay of `w` lands on — the one `w`'s run is
    /// still a delta of, or a later one that has it in its image — its
    /// lists contain the oracle's at `w`. A pin that pairs one
    /// generation's image with a view cut at another's fold point
    /// drops the runs in between.
    #[test]
    fn pinned_watermark_keeps_its_edges_under_racing_compaction(
        edges in base_strategy(),
        batches in batches_strategy(),
    ) {
        let adds = |entries: &[(u32, u32, u32)]| {
            let entries: Vec<_> = entries.iter().map(|&(s, d, _)| (s, d, 1)).collect();
            to_batch(&entries)
        };
        let base = build_graph(&edges);
        let svc = single_service(&base, &WriteOptions::default());
        let oracle = DeltaLog::for_graph(&base);
        oracle.apply(&base, &adds(&batches[0])).unwrap();
        let at_w = DeltaLog::union(&base, &oracle.current_view());
        let w = svc.ingest(&adds(&batches[0])).unwrap();
        // The churn: fold `w`'s own run away, then one cutover per
        // eight further adds.
        let rest: Vec<_> = batches[1..].concat();
        let provision = |need| SsdArray::new_mem(ArrayConfig::small_test(), need);
        let replays: Vec<Vec<CState>> = std::thread::scope(|s| {
            let churn = s.spawn(|| {
                svc.compact_with(provision).unwrap();
                for entries in rest.chunks(8) {
                    svc.ingest(&adds(entries)).unwrap();
                    svc.compact_with(provision).unwrap();
                }
            });
            let mut out = Vec::new();
            while out.len() < 3 || !churn.is_finished() {
                let opts = QueryOpts::new().at_watermark(w);
                out.push(svc.run_opts(&Collect, Init::All, opts).unwrap().0);
            }
            churn.join().unwrap();
            out
        });
        for states in &replays {
            for v in at_w.vertices() {
                let got = &states[v.index()].got;
                let lost = at_w.out_neighbors(v).iter().find(|e| !got.contains(&e.0));
                prop_assert!(
                    lost.is_none(),
                    "replay of watermark {} lost {} -> {:?}: got {:?}",
                    w,
                    v,
                    lost,
                    got
                );
            }
        }
        oracle.apply(&base, &adds(&rest)).unwrap();
        let full_union = DeltaLog::union(&base, &oracle.current_view());
        check_against(&svc, &full_union, "single/after-churn")?;
    }
}

/// The acceptance matrix: BFS, PageRank, WCC, and triangle count on
/// (image + deltas) match the same apps run over a frozen image of
/// the union graph — both formats, both backends, with an ingest
/// thread racing the queries (each query pins its snapshot at
/// admission, so the pinned watermark's oracle applies). SSSP reads
/// weighted adds, weight updates and removes through the overlay too.
#[test]
fn apps_match_union_oracle_across_backends_and_formats() {
    let base = build_graph(&[
        (0, 1),
        (1, 2),
        (2, 0),
        (2, 3),
        (3, 4),
        (4, 5),
        (5, 3),
        (6, 7),
        (8, 8),
        (1, 9),
        (9, 2),
        (7, 6),
        (0, 4),
        (5, 9),
    ]);
    let batch_a: &[(u32, u32, u32)] = &[(9, 0, 1), (3, 4, 0), (6, 9, 1), (2, 7, 1)];
    let batch_b: &[(u32, u32, u32)] = &[(4, 6, 1), (2, 0, 0), (9, 3, 1)];
    let noise: &[(u32, u32, u32)] = &[(0, 8, 1), (8, 1, 1), (5, 5, 1)];

    // Union oracle after batches a+b, served from a frozen image.
    let oracle = DeltaLog::for_graph(&base);
    oracle.apply(&base, &to_batch(batch_a)).unwrap();
    oracle.apply(&base, &to_batch(batch_b)).unwrap();
    let union = DeltaLog::union(&base, &oracle.current_view());
    let want_bfs = fg_baselines::direct::bfs_levels(&union, VertexId(0));
    let want_pr = fg_baselines::direct::pagerank(&union, 0.85, 30);
    let want_wcc = fg_baselines::direct::wcc_labels(&union);
    let want_tc = fg_baselines::direct::triangle_count(&union);

    // The same edges, weighted; the batch re-weights (0, 4), adds three
    // edges (one at the default weight) and removes two, so shortest
    // paths from 0 reach 6 and 7 through the overlay only.
    let wbase = gen::with_random_weights(&base, 8.0, 5);
    let mut wbatch = DeltaBatch::new();
    wbatch
        .add_weighted_edge(VertexId(0), VertexId(4), 0.25)
        .add_weighted_edge(VertexId(9), VertexId(0), 2.0)
        .add_weighted_edge(VertexId(4), VertexId(6), 0.5)
        .add_edge(VertexId(2), VertexId(7))
        .remove_edge(VertexId(1), VertexId(2))
        .remove_edge(VertexId(3), VertexId(4));
    let woracle = DeltaLog::for_graph(&wbase);
    woracle.apply(&wbase, &wbatch).unwrap();
    let wview = woracle.current_view();
    let pending: Vec<DeltaOp> = wbase
        .vertices()
        .filter_map(|v| wview.list(v, EdgeDir::Out))
        .flat_map(|l| l.ops.iter().map(|&(_, op)| op))
        .collect();
    use DeltaOp::{Add, Remove, Update};
    for kind in [Update(0.25), Add(Some(0.5)), Add(None), Remove] {
        assert!(pending.contains(&kind), "{kind:?} pending in {pending:?}");
    }
    let want_sssp = fg_baselines::direct::sssp(&DeltaLog::union(&wbase, &wview), VertexId(0));
    assert!(want_sssp[7].is_finite() && want_sssp[8].is_infinite());

    for opts in [WriteOptions::default(), WriteOptions::compressed()] {
        for sharded in [false, true] {
            let svc = if sharded {
                Arc::new(sharded_service(&base, &opts, 2))
            } else {
                Arc::new(single_service(&base, &opts))
            };
            svc.ingest(&to_batch(batch_a)).unwrap();
            svc.ingest(&to_batch(batch_b)).unwrap();
            let w = svc.watermark();
            let label = format!("{:?}/sharded={}", opts.format, sharded);
            std::thread::scope(|s| {
                // Racing ingest the pinned queries must not observe.
                let svc2 = Arc::clone(&svc);
                s.spawn(move || {
                    svc2.ingest(&to_batch(noise)).unwrap();
                });
                let at_w = || QueryOpts::new().at_watermark(w);
                let (bfs, pr, wcc, tc) = svc
                    .query_opts(at_w(), |e| {
                        (
                            fg_apps::bfs(e, VertexId(0)).unwrap().0,
                            fg_apps::pagerank(e, 0.85, 0.0, 30).unwrap().0,
                            fg_apps::wcc(e).unwrap().0,
                            fg_apps::triangle_count(e, false).unwrap().0,
                        )
                    })
                    .unwrap();
                assert_eq!(bfs, want_bfs, "bfs diverged ({label})");
                for v in union.vertices() {
                    assert!(
                        (pr[v.index()] as f64 - want_pr[v.index()]).abs() < 1e-3,
                        "pagerank diverged at {v} ({label}): {} vs {}",
                        pr[v.index()],
                        want_pr[v.index()]
                    );
                }
                assert_eq!(wcc, want_wcc, "wcc diverged ({label})");
                assert_eq!(tc, want_tc, "triangle count diverged ({label})");
            });

            let wsvc = if sharded {
                sharded_service(&wbase, &opts, 2)
            } else {
                single_service(&wbase, &opts)
            };
            wsvc.ingest(&wbatch).unwrap();
            let dist = wsvc
                .query_opts(QueryOpts::new(), |e| {
                    fg_apps::sssp(e, VertexId(0)).unwrap().0
                })
                .unwrap();
            for (v, (&got, &want)) in dist.iter().zip(&want_sssp).enumerate() {
                assert!(
                    got as f64 == want || (got as f64 - want).abs() < 1e-3,
                    "sssp diverged at {v} ({label}): {got} vs {want}"
                );
            }
        }
    }
}

#[test]
fn a_one_shard_set_canonicalizes_like_the_single_mount() {
    // `ImageBase` has one arm: route the source to (shard, local id),
    // read that mount. Over a 1-shard set it must canonicalize every
    // op exactly as over a single mount — same effective ops in the
    // log, same union served.
    let g = gen::rmat(8, 6, gen::RmatSkew::default(), 0xC0DE);
    let n = g.num_vertices() as u32;
    // Removes of present and absent edges, adds of new and present
    // ones, and a second batch that undoes part of the first.
    let mut first = Vec::new();
    for v in g.vertices().step_by(3) {
        match g.out_neighbors(v).first() {
            Some(&dst) => first.push((v.0, dst.0, 0)),
            None => first.push((v.0, (v.0 + 1) % n, 0)),
        }
        first.push((v.0, (v.0 * 5 + 3) % n, 1));
    }
    let second: Vec<_> = first
        .iter()
        .step_by(2)
        .map(|&(s, d, op)| (s, d, 1 - op))
        .collect();
    let batches = [first, second];
    for opts in [WriteOptions::default(), WriteOptions::compressed()] {
        let single = single_service(&g, &opts);
        let one = sharded_service(&g, &opts, 1);
        let want = ingest_all(&g, &batches, &single);
        ingest_all(&g, &batches, &one);
        let label = format!("{:?}", opts.format);
        assert_eq!(single.watermark(), one.watermark(), "{label}");
        assert_eq!(single.pending_deltas(), one.pending_deltas(), "{label}");
        check_against(&single, &want, &label).unwrap();
        check_against(&one, &want, &label).unwrap();
    }
}

#[test]
fn a_one_shard_set_compacts_into_a_single_mount() {
    // `compact_with` asks how many mounts serve the generation, not
    // how they were handed over: a set of one rewrites like the single
    // mount it is. Generation 1 is a lone mount — `safs()` answers,
    // `shard_set()` no longer does — and ingest, queries and the next
    // compaction carry on against it.
    let g = gen::rmat(8, 6, gen::RmatSkew::default(), 0xC0DE);
    let n = g.num_vertices() as u32;
    let mut first = Vec::new();
    for v in g.vertices().step_by(3) {
        if let Some(&dst) = g.out_neighbors(v).first() {
            first.push((v.0, dst.0, 0));
        }
        first.push((v.0, (v.0 * 5 + 3) % n, 1));
    }
    let undo: Vec<_> = first
        .iter()
        .step_by(2)
        .map(|&(s, d, op)| (s, d, 1 - op))
        .collect();
    let provision = |need| SsdArray::new_mem(ArrayConfig::small_test(), need);
    for opts in [WriteOptions::default(), WriteOptions::compressed()] {
        let label = format!("{:?}", opts.format);
        let one = sharded_service(&g, &opts, 1);
        let merged = ingest_all(&g, std::slice::from_ref(&first), &one);
        assert!(one.shard_set().is_some(), "{label}");
        assert_eq!(one.compact_with(provision).unwrap(), 1, "{label}");
        assert_eq!(one.generation(), 1, "{label}");
        assert_eq!(one.pending_deltas(), 0, "{label}");
        assert!(one.shard_set().is_none(), "{label}");
        let gen1 = one.safs();
        check_against(&one, &merged, &label).unwrap();
        assert!(
            gen1.cache_stats().lookups > 0,
            "{label}: queries read through the handle safs() returned"
        );
        // The new image is the canonicalization base from here on.
        let undone = ingest_all(&merged, std::slice::from_ref(&undo), &one);
        check_against(&one, &undone, &label).unwrap();
        assert_eq!(one.compact_with(provision).unwrap(), 2, "{label}");
        check_against(&one, &undone, &label).unwrap();
    }
}

// ------------------------------------------------ reads through the mount

/// Writes `g` under `opts`, lets `tamper` at the raw image, and mounts
/// it behind a cache of `cache_pages`.
fn mounted(
    g: &Graph,
    opts: &WriteOptions,
    cache_pages: u64,
    tamper: impl FnOnce(&SsdArray, &ImageMeta, &GraphIndex),
) -> (Safs, ImageMeta, GraphIndex) {
    let array =
        SsdArray::new_mem(ArrayConfig::small_test(), required_capacity_with(g, opts)).unwrap();
    write_image_with(g, &array, opts).unwrap();
    let (meta, index) = load_index(&array).unwrap();
    tamper(&array, &meta, &index);
    let cfg = SafsConfig::default().with_cache_bytes(cache_pages * 4096);
    (Safs::new(cfg, array).unwrap(), meta, index)
}

/// `Ok` payloads compared whole, errors by kind.
fn same_outcome<T: PartialEq + std::fmt::Debug>(
    a: &fg_types::Result<T>,
    b: &fg_types::Result<T>,
) -> bool {
    match (a, b) {
        (Ok(a), Ok(b)) => a == b,
        (Err(FgError::CorruptImage(_)), Err(FgError::CorruptImage(_))) => true,
        _ => false,
    }
}

type Lists = Vec<(Vec<VertexId>, Option<Vec<f32>>)>;

/// Every out- then in-list of `src`, with its weights.
fn lists_of<S: ListSource + ?Sized>(src: &S) -> fg_types::Result<Lists> {
    let mut lists = Vec::new();
    for dir in [EdgeDir::Out, EdgeDir::In] {
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

/// The lists the image `meta` and `index` describe, swept off `src`.
fn read_back<S: ByteSource + ?Sized>(
    src: &S,
    meta: &ImageMeta,
    index: &GraphIndex,
) -> fg_types::Result<Lists> {
    lists_of(&ImageLists::new(src, meta, index, None))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Sections of 4–40 KiB behind a two-page cache: most lists share
    /// a page with their neighbours, some straddle two, and every
    /// cached read evicts. (Lists straddling the sweep's 4 MiB chunks
    /// are `fg_format`'s own unit test, which shrinks the chunk.)
    #[test]
    fn back_readers_agree_over_the_array_and_the_mount(
        scale in 7u32..10,
        degree in 2u32..9,
        seed in 0u64..1 << 20,
        weighted in any::<bool>(),
        undirected in any::<bool>(),
        flip in 0u64..1 << 30,
    ) {
        let mut g = gen::rmat(scale, degree, gen::RmatSkew::default(), seed);
        if undirected {
            let mut b = GraphBuilder::undirected();
            b.extend_edges(g.edges());
            g = b.build();
        }
        if weighted {
            g = gen::with_random_weights(&g, 9.0, seed);
        }
        for opts in [WriteOptions::default(), WriteOptions::compressed()] {
            // The intact image, then one with a flipped byte somewhere
            // in its edge sections.
            for corrupt in [false, true] {
                let (safs, meta, index) = mounted(&g, &opts, 2, |array, meta, _| {
                    let span = meta.total_bytes - meta.out_edges_offset;
                    if corrupt && span > 0 {
                        let at = meta.out_edges_offset + flip % span;
                        let mut byte = [0u8];
                        array.read(at, &mut byte).unwrap();
                        byte[0] ^= 1 << (flip % 8);
                        array.write(at, &byte).unwrap();
                    }
                });
                let array = safs.array();
                for v in g.vertices() {
                    for dir in [EdgeDir::Out, EdgeDir::In] {
                        let direct = read_list(array, &meta, &index, v, dir);
                        let through = read_list(&safs, &meta, &index, v, dir);
                        prop_assert!(
                            same_outcome(&direct, &through),
                            "{:?} {dir:?} list of {v}: {direct:?} vs {through:?}",
                            opts.format
                        );
                        if !corrupt {
                            let want: Vec<u32> =
                                g.csr(dir).neighbors(v).iter().map(|u| u.0).collect();
                            prop_assert_eq!(direct.unwrap(), want);
                        }
                    }
                }
                let direct = read_back(array, &meta, &index);
                let sources: [&dyn ByteSource; 2] = [&safs, &safs.streaming()];
                for source in sources {
                    let through = read_back(source, &meta, &index);
                    prop_assert!(same_outcome(&direct, &through), "{:?}", opts.format);
                }
                if !corrupt {
                    prop_assert_eq!(direct.unwrap(), lists_of(&g).unwrap());
                }
            }
        }
    }
}

/// A block whose first group holds four 4-byte values, the first an id
/// of `u32::MAX`, cannot decode (the next gap overflows, or the group
/// runs past the block), and a header that ends the image early cannot
/// hold its lists: both
/// must come back as `CorruptImage` through a `Safs` source exactly
/// as they do off the raw array.
#[test]
fn corrupt_blocks_read_through_the_mount_are_still_corrupt_images() {
    let g = gen::rmat(9, 8, gen::RmatSkew::default(), 0xBAD);
    let opts = WriteOptions::compressed();
    let mut victim = None;
    let (safs, meta, index) = mounted(&g, &opts, 4, |array, _, index| {
        // The first compressed out-list: overwrite the head of its
        // payload, behind the skip table, with a control byte of four
        // 4-byte values and the first five of their bytes.
        let (v, slice, table) = g
            .vertices()
            .find_map(|v| {
                let slice = index.locate_slice(v, EdgeDir::Out, 0, u64::MAX);
                match slice.decode {
                    SliceDecode::Varint(p) => Some((v, slice, p.header_bytes as u64)),
                    SliceDecode::Raw => None,
                }
            })
            .expect("an R-MAT image has compressed blocks");
        array.write(slice.loc.offset + table, &[0xFF; 6]).unwrap();
        victim = Some(v);
    });
    let victim = victim.unwrap();
    let sources: [&dyn ByteSource; 2] = [&safs, &safs.streaming()];
    for source in sources {
        assert!(matches!(
            read_list(source, &meta, &index, victim, EdgeDir::Out),
            Err(FgError::CorruptImage(_))
        ));
        assert!(matches!(
            read_back(source, &meta, &index),
            Err(FgError::CorruptImage(_))
        ));
    }
    // Truncated: the header claims an image that ends inside the
    // out-edge section.
    let (safs, meta, index) = mounted(&g, &opts, 4, |_, _, _| {});
    let cut = ImageMeta {
        total_bytes: meta.out_edges_offset + 64,
        ..meta
    };
    let last = g.vertices().filter(|&v| g.in_degree(v) > 0).last().unwrap();
    let sources: [&dyn ByteSource; 2] = [&safs, &safs.streaming()];
    for source in sources {
        assert!(matches!(
            read_list(source, &cut, &index, last, EdgeDir::In),
            Err(FgError::CorruptImage(_))
        ));
        assert!(matches!(
            read_back(source, &cut, &index),
            Err(FgError::CorruptImage(_))
        ));
    }
}

// ------------------------------------------------------ the device ledger

fn device(svc: &GraphService) -> IoStatsSnapshot {
    svc.safs().array().stats().snapshot()
}

/// 48 ops on 48 distinct sources spread over the id space.
fn spread_batch(g: &Graph) -> DeltaBatch {
    let n = g.num_vertices() as u32;
    let mut batch = DeltaBatch::new();
    for i in 0..48u32 {
        let src = VertexId(i * (n / 48));
        match g.out_neighbors(src).first() {
            Some(&dst) if i % 4 == 0 => batch.remove_edge(src, dst),
            _ => batch.add_edge(src, VertexId((src.0 * 7 + 13) % n)),
        };
    }
    batch
}

#[test]
fn canonicalization_reads_meet_the_page_cache_first() {
    let g = gen::rmat(10, 8, gen::RmatSkew::default(), 0x1A6E);
    for opts in [WriteOptions::default(), WriteOptions::compressed()] {
        // A cold mount whose cache holds the whole image.
        let (safs, _, index) = mounted(&g, &opts, 1 << 10, |_, _, _| {});
        safs.reset_stats();
        let cfg = ServiceConfig::default().with_engine(EngineConfig::small());
        let svc = GraphService::new(safs, index, cfg);
        let batch = spread_batch(&g);
        svc.ingest(&batch).unwrap();
        let cold = device(&svc);
        let cache = svc.cache_stats();
        assert!(cold.read_requests > 0, "a cold mount must touch the device");
        assert!(
            cold.read_requests <= 1 + 48,
            "{:?}: {} device reads for a header and 48 lists",
            opts.format,
            cold.read_requests
        );
        // Every source of the batch is resident now: canonicalizing it
        // again (every op a no-op the second time) reads nothing.
        svc.ingest(&batch).unwrap();
        let warm = device(&svc);
        assert_eq!(warm.read_requests, cold.read_requests, "{:?}", opts.format);
        assert_eq!(warm.bytes_read, cold.bytes_read, "{:?}", opts.format);
        let again = svc.cache_stats().delta_since(&cache);
        assert!(again.hits > 0 && again.misses == 0, "{again:?}");
    }
}

#[test]
fn compaction_reads_the_old_image_back_as_one_sweep_per_section() {
    let g = gen::rmat(11, 8, gen::RmatSkew::default(), 0x5EE9);
    let stripe = ArrayConfig::small_test().stripe_bytes();
    for opts in [WriteOptions::default(), WriteOptions::compressed()] {
        let (safs, meta, index) = mounted(&g, &opts, 1 << 10, |_, _, _| {});
        let n = meta.num_vertices;
        let sections = [EdgeDir::Out, EdgeDir::In].map(|d| index.locate_extent(VertexId(0), n, d));
        let cfg = ServiceConfig::default().with_engine(EngineConfig::small());
        let svc = GraphService::new(safs, index, cfg);
        // One effective op: the ingest warms one page of the mount.
        let src = g.vertices().find(|&v| g.out_degree(v) > 0).unwrap();
        let mut batch = DeltaBatch::new();
        batch.remove_edge(src, g.out_neighbors(src)[0]);
        svc.ingest(&batch).unwrap();
        let old = svc.safs();
        old.reset_stats();
        let gen = svc
            .compact_with(|need| SsdArray::new_mem(ArrayConfig::small_test(), need))
            .unwrap();
        assert_eq!(gen, 1);
        let io = old.array().stats().snapshot();
        // One device request per stripe a section covers (a section
        // may begin inside a stripe) — not one per vertex and
        // direction, which is what point reads would book.
        let most: u64 = sections.iter().map(|s| s.bytes.div_ceil(stripe) + 1).sum();
        assert!(
            io.read_requests <= most && most < n / 8,
            "{:?}: {} requests, at most {most} stripes, {n} vertices",
            opts.format,
            io.read_requests
        );
        // And every byte of the old image at most once.
        let swept: u64 = sections.iter().map(|s| s.bytes.div_ceil(4096) * 4096).sum();
        assert!(io.bytes_read <= swept, "{} > {swept}", io.bytes_read);
        assert!(io.bytes_read > swept / 2, "the mount was cold");
    }
}

#[test]
fn compaction_leaves_a_small_cache_and_its_hot_set_alone() {
    // A four-vertex chain whose lists open the edge sections, and a
    // blob of 2040 vertices it never reaches.
    let blob = gen::rmat(11, 8, gen::RmatSkew::default(), 0xCAFE);
    let mut b = GraphBuilder::directed();
    b.reserve_vertices(blob.num_vertices());
    for v in 0..3u32 {
        b.add_edge(VertexId(v), VertexId(v + 1));
    }
    b.extend_edges(blob.edges().filter(|(s, d)| s.0 >= 8 && d.0 >= 8));
    let g = b.build();
    for opts in [WriteOptions::default(), WriteOptions::compressed()] {
        let image_pages = required_capacity_with(&g, &opts) / 4096;
        let (safs, _, index) = mounted(&g, &opts, image_pages / 4, |_, _, _| {});
        let cfg = ServiceConfig::default().with_engine(EngineConfig::small());
        let svc = GraphService::new(safs, index, cfg);
        let mut batch = DeltaBatch::new();
        batch.add_edge(VertexId(100), VertexId(200));
        svc.ingest(&batch).unwrap();
        let old = svc.safs();
        let bfs_bytes = |engine: &flashgraph::Engine<'_>| {
            let before = old.array().stats().snapshot().bytes_read;
            let (levels, _) = fg_apps::bfs(engine, VertexId(0)).unwrap();
            assert_eq!(levels[3], Some(3));
            old.array().stats().snapshot().bytes_read - before
        };
        // A query pinned to generation 0 across the compaction.
        svc.query(|engine| {
            bfs_bytes(engine);
            let before = bfs_bytes(engine);
            let cache = old.cache_stats();
            let gen = svc
                .compact_with(|need| SsdArray::new_mem(ArrayConfig::small_test(), need))
                .unwrap();
            assert_eq!(gen, 1);
            let swept = old.cache_stats().delta_since(&cache);
            assert_eq!(
                (swept.evictions, swept.insertions),
                (0, 0),
                "{:?}: the read-back went through the cache",
                opts.format
            );
            assert_eq!(bfs_bytes(engine), before, "{:?}", opts.format);
        });
    }
}
