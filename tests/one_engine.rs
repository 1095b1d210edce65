//! What the one-engine collapse makes true: a single mount is the
//! one-shard case of a sharded run, and a service has one entry point
//! whatever its mount count. One graph behind `GraphService::new`, a
//! 1-shard `new_sharded` and a 2-shard `new_sharded` must answer alike
//! through `query_opts`; a run over one shard — through either
//! constructor — has no peers to post to or vote with.

use std::sync::Arc;
use std::time::Duration;

use fg_bench::{build_shard_fixture, traversal_root};
use fg_format::{load_index, required_capacity, write_image, WriteOptions};
use fg_graph::{gen, Graph, GraphBuilder};
use fg_safs::{Safs, SafsConfig};
use fg_ssdsim::{ArrayConfig, SsdArray};
use fg_types::{EdgeDir, FgError, VertexId};
use flashgraph::{
    CancelToken, Engine, EngineConfig, GraphService, Init, PageVertex, QueryOpts, Request,
    ServiceConfig, ShardedEngine, VertexContext, VertexProgram,
};

fn test_graph() -> Graph {
    gen::rmat(8, 6, gen::RmatSkew::default(), 0x0E16)
}

fn mount(g: &Graph) -> (Safs, fg_format::GraphIndex) {
    let array = SsdArray::new_mem(ArrayConfig::small_test(), required_capacity(g)).unwrap();
    write_image(g, &array).unwrap();
    let (_, index) = load_index(&array).unwrap();
    // The same per-image cache share `shard_set` hands its mounts.
    let cache = (required_capacity(g) / 4).max(16 * 4096);
    let safs = Safs::new(SafsConfig::default().with_cache_bytes(cache), array).unwrap();
    (safs, index)
}

fn shard_set(g: &Graph, shards: usize) -> (fg_safs::ShardSet, fg_format::ShardedIndex) {
    let fx = build_shard_fixture(
        g,
        0.25,
        SafsConfig::default(),
        ArrayConfig::small_test(),
        &WriteOptions::default(),
        shards,
    )
    .unwrap();
    (fx.set, fx.index)
}

/// The three services over `g`: single mount, 1-shard set, 2-shard set.
fn services(g: &Graph, max_inflight: usize) -> [(&'static str, GraphService); 3] {
    let cfg = || {
        ServiceConfig::default()
            .with_max_inflight(max_inflight)
            .with_engine(EngineConfig::small())
    };
    let (safs, index) = mount(g);
    let (one_set, one_index) = shard_set(g, 1);
    let (two_set, two_index) = shard_set(g, 2);
    [
        ("single", GraphService::new(safs, index, cfg())),
        (
            "1-shard",
            GraphService::new_sharded(one_set, one_index, cfg()),
        ),
        (
            "2-shard",
            GraphService::new_sharded(two_set, two_index, cfg()),
        ),
    ]
}

/// Frontier BFS that fires `token` from iteration `at` on — a
/// deterministic mid-run cancellation, no sleeping.
struct SelfCancellingBfs {
    token: Option<CancelToken>,
    at: u32,
}

#[derive(Default, Clone, PartialEq, Debug)]
struct Level(Option<u32>);

impl VertexProgram for SelfCancellingBfs {
    type State = Level;
    type Msg = ();

    fn run(&self, v: VertexId, state: &mut Level, ctx: &mut VertexContext<'_, ()>) {
        if let Some(token) = self.token.as_ref().filter(|_| ctx.iteration() >= self.at) {
            token.cancel();
        }
        if state.0.is_none() {
            state.0 = Some(ctx.iteration());
            ctx.request(v, Request::edges(EdgeDir::Out));
        }
    }

    fn run_on_vertex(
        &self,
        _v: VertexId,
        _state: &mut Level,
        vertex: &PageVertex<'_>,
        ctx: &mut VertexContext<'_, ()>,
    ) {
        for dst in vertex.edges() {
            ctx.activate(dst);
        }
    }
}

const PLAIN_BFS: SelfCancellingBfs = SelfCancellingBfs { token: None, at: 0 };

#[test]
fn query_opts_serves_every_kind_of_service() {
    let g = test_graph();
    let root = traversal_root(&g);
    let want = fg_baselines::direct::bfs_levels(&g, root);
    let mut counters = Vec::new();
    for (what, svc) in services(&g, 2) {
        let (levels, stats) = svc
            .query_opts(QueryOpts::new(), |e| fg_apps::bfs(e, root))
            .unwrap()
            .unwrap();
        assert_eq!(levels, want, "{what}: BFS levels");
        counters.push((stats.bytes_requested, stats.edges_delivered));
        // `query` is the same door with default options.
        let (levels, _) = svc.query(|e| fg_apps::bfs(e, root)).unwrap();
        assert_eq!(levels, want, "{what}: BFS levels via query");
        assert_eq!(svc.inflight(), 0, "{what}");
    }
    assert_eq!(
        counters[0], counters[1],
        "a 1-shard set is the single mount: same bytes asked for, same edges delivered"
    );
    assert_eq!(
        counters[0].1, counters[2].1,
        "two shards deliver the same edges"
    );
}

#[test]
fn run_opts_stamps_the_wait_and_books_a_mid_run_abort_on_every_service() {
    let g = test_graph();
    let root = traversal_root(&g);
    let depth = fg_baselines::direct::bfs_levels(&g, root)
        .into_iter()
        .flatten()
        .max();
    assert!(depth >= Some(2), "iteration 1 must leave a frontier behind");
    for (what, svc) in services(&g, 1) {
        // Hold the only slot so the run below measurably queues.
        let svc = Arc::new(svc);
        let (entered_tx, entered_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let holder = {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || {
                svc.query(|_| {
                    entered_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                });
            })
        };
        entered_rx.recv().unwrap();
        let runner = {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || svc.run(&PLAIN_BFS, Init::Seeds(vec![root])).unwrap())
        };
        while svc.queued() == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(5));
        release_tx.send(()).unwrap();
        holder.join().unwrap();
        let (states, stats) = runner.join().unwrap();
        assert!(
            stats.queue_wait_ns >= 5_000_000,
            "{what}: the run queued for at least the 5 ms the slot was held, stamped {} ns",
            stats.queue_wait_ns
        );
        assert!(stats.queue_wait_ns <= svc.stats().queue_wait_ns, "{what}");
        assert_eq!(states[root.index()], Level(Some(0)), "{what}");

        // A token fired from inside iteration 1 stops the run at that
        // boundary — over two shards through the stop rendezvous — and
        // the service books it as an abort, slot released.
        let token = CancelToken::new();
        let program = SelfCancellingBfs {
            token: Some(token.clone()),
            at: 1,
        };
        let out = svc.run_opts(
            &program,
            Init::Seeds(vec![root]),
            QueryOpts::new().with_cancel(token),
        );
        assert!(matches!(out, Err(FgError::Cancelled)), "{what}");
        let snap = svc.stats();
        assert_eq!(snap.cancelled, 1, "{what}");
        assert_eq!(snap.admitted, 3, "{what}");
        assert_eq!(snap.completed, 3, "{what}");
        assert_eq!(svc.inflight(), 0, "{what}");
    }
}

#[test]
fn compaction_still_refuses_more_than_one_mount() {
    let g = test_graph();
    let [_, _, (_, two)] = services(&g, 2);
    let out = two.compact_with(|_| panic!("a refused compaction must not provision"));
    match out {
        Err(FgError::InvalidConfig(why)) => {
            assert!(
                why.contains("shard-wise compaction is not supported"),
                "{why}"
            );
        }
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
    assert_eq!(two.generation(), 0);
}

#[test]
fn a_one_shard_run_posts_nothing_and_votes_nowhere() {
    let g = test_graph();
    let root = traversal_root(&g);
    let n = g.num_vertices();
    let cfg = EngineConfig::small();
    let (safs, index) = mount(&g);
    let (one_set, one_index) = shard_set(&g, 1);
    let (two_set, two_index) = shard_set(&g, 2);
    let single = Engine::new_sem(&safs, index, cfg);
    let one = ShardedEngine::new(&one_set, one_index, cfg);
    let two = ShardedEngine::new(&two_set, two_index, cfg);

    let mut totals = Vec::new();
    for (what, engine) in [("new_sem", &single), ("1-shard set", &one)] {
        assert_eq!(engine.num_shards(), 1, "{what}");
        // WCC sends a message per edge: with a peer they would ride
        // the bus.
        let (_, wcc) = fg_apps::wcc(engine).unwrap();
        assert_eq!(wcc.shard_msg_bytes, 0, "{what}: no peers, no bus traffic");
        let (_, total, rows) = engine
            .run_detailed(&PLAIN_BFS, Init::Seeds(vec![root]), vec![Level(None); n])
            .unwrap();
        assert_eq!(total.shard_msg_bytes, 0, "{what}");
        assert_eq!(rows.len(), 1, "{what}: one shard, one row");
        assert_eq!(
            format!("{:?}", rows[0]),
            format!("{total:?}"),
            "{what}: the only row is the total"
        );
        totals.push(total);
    }
    let (a, b) = (&totals[0], &totals[1]);
    assert_eq!(a.iterations, b.iterations);
    assert_eq!(a.vertices_processed, b.vertices_processed);
    assert_eq!(a.engine_requests, b.engine_requests);
    assert_eq!(a.bytes_requested, b.bytes_requested);
    assert_eq!(a.edges_delivered, b.edges_delivered);
    assert_eq!(a.activations, b.activations);

    // The contrast that shows the probe can see traffic: two shards
    // do post, and report a row each.
    let (_, wcc) = fg_apps::wcc(&two).unwrap();
    assert!(wcc.shard_msg_bytes > 0, "a cross-shard run must message");
    let (_, total, rows) = two
        .run_detailed(&PLAIN_BFS, Init::Seeds(vec![root]), vec![Level(None); n])
        .unwrap();
    assert_eq!(rows.len(), 2);
    assert_eq!(total.edges_delivered, a.edges_delivered);
}

/// Asks for one other vertex's out-list and records what came back.
struct AskFor(VertexId);

#[derive(Default, Clone, PartialEq, Debug)]
struct Got {
    deliveries: u32,
    subject: Option<VertexId>,
    edges: Vec<u32>,
}

impl VertexProgram for AskFor {
    type State = Got;
    type Msg = ();

    fn run(&self, _v: VertexId, _state: &mut Got, ctx: &mut VertexContext<'_, ()>) {
        ctx.request(self.0, Request::edges(EdgeDir::Out));
    }

    fn run_on_vertex(
        &self,
        _v: VertexId,
        state: &mut Got,
        vertex: &PageVertex<'_>,
        _ctx: &mut VertexContext<'_, ()>,
    ) {
        state.deliveries += 1;
        state.subject = Some(vertex.id());
        state.edges.extend(vertex.edges().map(|e| e.0));
    }
}

#[test]
fn an_empty_list_owned_by_a_lower_shard_is_delivered_empty() {
    // A zero-length request has nothing to read, so it is not routed
    // as a foreign read: it completes on the requester's own session,
    // whose index is keyed from the shard's base id — above the
    // subject's when a lower shard owns it. Vertex 1 is a sink on
    // shard 0; vertex 5 on shard 1 asks for its out-list.
    let mut b = GraphBuilder::directed();
    for (s, d) in [(0, 1), (2, 1), (3, 0), (4, 0), (5, 6), (6, 7), (7, 4)] {
        b.add_edge(VertexId(s), VertexId(d));
    }
    let g = b.build();
    assert_eq!(g.num_vertices(), 8);
    let (sink, asker) = (VertexId(1), VertexId(5));
    assert_eq!(g.out_degree(sink), 0);
    let (two_set, two_index) = shard_set(&g, 2);
    assert!(two_index.local(sink).0 < two_index.local(asker).0);
    let engines = [
        ("mem", Engine::new_mem(&g, EngineConfig::small())),
        (
            "2-shard",
            ShardedEngine::new(&two_set, two_index, EngineConfig::small()),
        ),
    ];
    for (what, engine) in &engines {
        // The sink, then (the contrast) a lower shard's non-empty
        // list, which does travel as a foreign read.
        for (subject, want) in [(sink, vec![]), (VertexId(2), vec![1])] {
            let (states, stats) = engine
                .run(&AskFor(subject), Init::Seeds(vec![asker]))
                .unwrap();
            let got = &states[asker.index()];
            assert_eq!(got.deliveries, 1, "{what}: one delivery for {subject}");
            assert_eq!(got.subject, Some(subject), "{what}");
            assert_eq!(got.edges, want, "{what}: out-list of {subject}");
            assert_eq!(stats.edges_delivered, want.len() as u64, "{what}");
        }
    }
}

/// Every way to register for the iteration end at once, with counts
/// that differ by vertex: `run` registers and keeps its vertex active
/// for `v % 3` more iterations, the delivery of a vertex's out-list in
/// iteration 0 messages its neighbours — across shards, on a sharded
/// run — whose handlers register, and the callback itself re-registers
/// on even iterations.
struct EndCounter;

#[derive(Default, Clone, PartialEq, Debug)]
struct Ends(Vec<u32>);

impl VertexProgram for EndCounter {
    type State = Ends;
    type Msg = ();

    fn run(&self, v: VertexId, _state: &mut Ends, ctx: &mut VertexContext<'_, ()>) {
        ctx.notify_iteration_end();
        if ctx.iteration() == 0 {
            ctx.request(v, Request::edges(EdgeDir::Out));
        }
        if ctx.iteration() < v.0 % 3 {
            ctx.activate(v);
        }
    }

    fn run_on_vertex(
        &self,
        _v: VertexId,
        _state: &mut Ends,
        vertex: &PageVertex<'_>,
        ctx: &mut VertexContext<'_, ()>,
    ) {
        for dst in vertex.edges() {
            ctx.send(dst, ());
        }
    }

    fn run_on_message(
        &self,
        _v: VertexId,
        _state: &mut Ends,
        _msg: &(),
        ctx: &mut VertexContext<'_, ()>,
    ) {
        ctx.notify_iteration_end();
    }

    fn run_on_iteration_end(
        &self,
        _v: VertexId,
        state: &mut Ends,
        ctx: &mut VertexContext<'_, ()>,
    ) {
        state.0.push(ctx.iteration());
        if ctx.iteration() % 2 == 0 {
            ctx.notify_iteration_end();
        }
    }
}

#[test]
fn iteration_end_callbacks_match_the_one_mount_run_on_two_and_three_shards() {
    let g = test_graph();
    let cfg = EngineConfig::small();
    let (safs, index) = mount(&g);
    let (want, one) = Engine::new_sem(&safs, index, cfg)
        .run(&EndCounter, Init::All)
        .unwrap();
    assert_eq!(one.iterations, 3);
    // Not vacuous: the counts differ by vertex.
    let lens: std::collections::BTreeSet<usize> = want.iter().map(|e| e.0.len()).collect();
    assert!(lens.len() > 1, "per-vertex counts {lens:?}");
    for shards in [2, 3] {
        let (set, index) = shard_set(&g, shards);
        let (got, stats) = ShardedEngine::new(&set, index, cfg)
            .run(&EndCounter, Init::All)
            .unwrap();
        assert!(stats.shard_msg_bytes > 0, "{shards} shards: messages cross");
        assert_eq!(stats.iterations, one.iterations, "{shards} shards");
        for (v, (got, want)) in got.iter().zip(&want).enumerate() {
            assert_eq!(got, want, "{shards} shards: vertex {v}");
        }
    }
}
