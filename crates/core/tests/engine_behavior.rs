//! Behavioural tests of the engine, run in BOTH execution modes
//! (in-memory and semi-external over the SSD simulator) so the two
//! paths are provably interchangeable.

use std::sync::mpsc;
use std::time::Duration;

use fg_format::{load_index, required_capacity, write_image};
use fg_graph::{fixtures, gen, Graph};
use fg_safs::{Safs, SafsConfig};
use fg_ssdsim::{ArrayConfig, SsdArray};
use fg_types::{EdgeDir, VertexId};
use flashgraph::{
    Engine, EngineConfig, Init, PageVertex, Request, RunStats, SchedulerKind, VertexContext,
    VertexProgram,
};

#[path = "../../../tests/common/mod.rs"]
mod common;
use common::{expected_pieces, SplitProbe};

/// Runs `program` on `g` in the given mode and returns states+stats.
fn run_mode<P: VertexProgram>(
    g: &Graph,
    program: &P,
    init: Init,
    cfg: EngineConfig,
    sem: bool,
) -> (Vec<P::State>, RunStats) {
    if sem {
        let array = SsdArray::new_mem(ArrayConfig::small_test(), required_capacity(g)).unwrap();
        write_image(g, &array).unwrap();
        let (_, index) = load_index(&array).unwrap();
        let safs = Safs::new(SafsConfig::default(), array).unwrap();
        let engine = Engine::new_sem(&safs, index, cfg);
        engine.run(program, init).unwrap()
    } else {
        let engine = Engine::new_mem(g, cfg);
        engine.run(program, init).unwrap()
    }
}

fn both_modes<P: VertexProgram>(
    g: &Graph,
    program: &P,
    init: Init,
    cfg: EngineConfig,
) -> [(Vec<P::State>, RunStats); 2] {
    [
        run_mode(g, program, init.clone(), cfg, false),
        run_mode(g, program, init, cfg, true),
    ]
}

// ---------------------------------------------------------------- BFS

struct Bfs;

#[derive(Default, Clone, PartialEq, Debug)]
struct BfsState {
    level: u32,
    visited: bool,
}

impl VertexProgram for Bfs {
    type State = BfsState;
    type Msg = ();

    fn run(&self, v: VertexId, state: &mut BfsState, ctx: &mut VertexContext<'_, ()>) {
        if !state.visited {
            state.visited = true;
            state.level = ctx.iteration();
            ctx.request(v, Request::edges(EdgeDir::Out));
        }
    }

    fn run_on_vertex(
        &self,
        _v: VertexId,
        _s: &mut BfsState,
        vertex: &PageVertex<'_>,
        ctx: &mut VertexContext<'_, ()>,
    ) {
        for dst in vertex.edges() {
            ctx.activate(dst);
        }
    }
}

#[test]
fn bfs_levels_on_path_both_modes() {
    let g = fixtures::path(12);
    for (states, stats) in both_modes(
        &g,
        &Bfs,
        Init::Seeds(vec![VertexId(0)]),
        EngineConfig::small(),
    ) {
        for (i, s) in states.iter().enumerate() {
            assert!(s.visited, "vertex {i} unreached");
            assert_eq!(s.level, i as u32, "vertex {i} level");
        }
        assert_eq!(stats.iterations, 12);
    }
}

#[test]
fn bfs_on_rmat_same_reachable_set_in_both_modes() {
    let g = gen::rmat(9, 6, gen::RmatSkew::default(), 21);
    let [(mem, _), (sem, _)] = both_modes(
        &g,
        &Bfs,
        Init::Seeds(vec![VertexId(0)]),
        EngineConfig::small(),
    );
    let mem_visited: Vec<bool> = mem.iter().map(|s| s.visited).collect();
    let sem_visited: Vec<bool> = sem.iter().map(|s| s.visited).collect();
    assert_eq!(mem_visited, sem_visited);
    let mem_levels: Vec<u32> = mem.iter().map(|s| s.level).collect();
    let sem_levels: Vec<u32> = sem.iter().map(|s| s.level).collect();
    assert_eq!(mem_levels, sem_levels);
    assert!(mem_visited.iter().filter(|&&v| v).count() > 100);
}

#[test]
fn bfs_two_components_only_reaches_one() {
    let g = fixtures::two_components(4, 10);
    for (states, _) in both_modes(
        &g,
        &Bfs,
        Init::Seeds(vec![VertexId(0)]),
        EngineConfig::small(),
    ) {
        assert!(states[..4].iter().all(|s| s.visited));
        assert!(states[4..].iter().all(|s| !s.visited));
    }
}

#[test]
fn bad_seed_is_rejected() {
    let g = fixtures::path(3);
    let engine = Engine::new_mem(&g, EngineConfig::small());
    assert!(engine.run(&Bfs, Init::Seeds(vec![VertexId(3)])).is_err());
}

// ----------------------------------------------------- message passing

/// Every vertex sends its id to each out-neighbour; receivers sum.
struct SumIds;

#[derive(Default, Clone)]
struct SumState {
    sum: u64,
    done: bool,
}

impl VertexProgram for SumIds {
    type State = SumState;
    type Msg = u32;

    fn run(&self, v: VertexId, state: &mut SumState, ctx: &mut VertexContext<'_, u32>) {
        if !state.done {
            state.done = true;
            ctx.request(v, Request::edges(EdgeDir::Out));
        }
    }

    fn run_on_vertex(
        &self,
        v: VertexId,
        _s: &mut SumState,
        vertex: &PageVertex<'_>,
        ctx: &mut VertexContext<'_, u32>,
    ) {
        for dst in vertex.edges() {
            ctx.send(dst, v.0);
        }
    }

    fn run_on_message(
        &self,
        _v: VertexId,
        state: &mut SumState,
        msg: &u32,
        _ctx: &mut VertexContext<'_, u32>,
    ) {
        state.sum += *msg as u64;
    }
}

#[test]
fn messages_sum_in_neighbor_ids_both_modes() {
    let g = gen::rmat(8, 4, gen::RmatSkew::default(), 5);
    for (states, stats) in both_modes(&g, &SumIds, Init::All, EngineConfig::small()) {
        for v in g.vertices() {
            let want: u64 = g.in_neighbors(v).iter().map(|u| u.0 as u64).sum();
            assert_eq!(states[v.index()].sum, want, "vertex {v}");
        }
        assert_eq!(stats.messages_sent, g.num_edges());
    }
}

// ------------------------------------------------------------ multicast

struct Broadcast;

#[derive(Default, Clone)]
struct RecvCount {
    got: u32,
    sent: bool,
}

impl VertexProgram for Broadcast {
    type State = RecvCount;
    type Msg = u8;

    fn run(&self, v: VertexId, state: &mut RecvCount, ctx: &mut VertexContext<'_, u8>) {
        if !state.sent {
            state.sent = true;
            // Vertex 0 multicasts to every vertex, including itself.
            if v == VertexId(0) {
                let all: Vec<VertexId> = (0..ctx.num_vertices() as u32).map(VertexId).collect();
                ctx.multicast(&all, 7);
            }
        }
    }

    fn run_on_message(
        &self,
        _v: VertexId,
        state: &mut RecvCount,
        msg: &u8,
        _ctx: &mut VertexContext<'_, u8>,
    ) {
        assert_eq!(*msg, 7);
        state.got += 1;
    }
}

#[test]
fn multicast_reaches_every_vertex_once() {
    let g = fixtures::path(40);
    for (states, stats) in both_modes(&g, &Broadcast, Init::All, EngineConfig::small()) {
        assert!(states.iter().all(|s| s.got == 1));
        assert_eq!(stats.messages_sent, 40);
    }
}

// ----------------------------------------------- iteration-end events

/// Counts iterations via the end-of-iteration notification.
struct EndCounter;

#[derive(Default, Clone)]
struct EndState {
    ends_seen: u32,
}

impl VertexProgram for EndCounter {
    type State = EndState;
    type Msg = ();

    fn run(&self, v: VertexId, _s: &mut EndState, ctx: &mut VertexContext<'_, ()>) {
        ctx.notify_iteration_end();
        // Keep running for exactly 3 iterations.
        if ctx.iteration() < 2 {
            ctx.activate(v);
        }
    }

    fn run_on_iteration_end(
        &self,
        _v: VertexId,
        state: &mut EndState,
        _ctx: &mut VertexContext<'_, ()>,
    ) {
        state.ends_seen += 1;
    }
}

#[test]
fn iteration_end_fires_once_per_requesting_iteration() {
    let g = fixtures::path(10);
    for (states, stats) in both_modes(&g, &EndCounter, Init::All, EngineConfig::small()) {
        assert_eq!(stats.iterations, 3);
        assert!(states.iter().all(|s| s.ends_seen == 3));
    }
}

/// The iterations whose end a vertex saw, in the order it saw them.
#[derive(Default, Clone)]
struct EndLog {
    ends: Vec<u32>,
}

/// Registers twice from `run` and once more from the delivery of its
/// own out-list in each of two iterations, then runs a third without
/// registering.
struct RegisterOften;

impl VertexProgram for RegisterOften {
    type State = EndLog;
    type Msg = ();

    fn run(&self, v: VertexId, _s: &mut EndLog, ctx: &mut VertexContext<'_, ()>) {
        if ctx.iteration() < 2 {
            ctx.notify_iteration_end();
            ctx.notify_iteration_end();
            ctx.request(v, Request::edges(EdgeDir::Out));
            ctx.activate(v);
        }
    }

    fn run_on_vertex(
        &self,
        _v: VertexId,
        _s: &mut EndLog,
        _vertex: &PageVertex<'_>,
        ctx: &mut VertexContext<'_, ()>,
    ) {
        ctx.notify_iteration_end();
    }

    fn run_on_iteration_end(&self, _v: VertexId, s: &mut EndLog, ctx: &mut VertexContext<'_, ()>) {
        s.ends.push(ctx.iteration());
    }
}

#[test]
fn iteration_end_fires_once_for_repeated_registrations() {
    let g = fixtures::path(10);
    for (states, stats) in both_modes(&g, &RegisterOften, Init::All, EngineConfig::small()) {
        assert_eq!(stats.iterations, 3);
        for (v, s) in states.iter().enumerate() {
            assert_eq!(s.ends, [0, 1], "vertex {v}");
        }
    }
}

/// Every vertex messages its out-neighbours in iteration 0; a vertex
/// registers only from `run_on_message`, in the barrier phase.
struct RegisterOnMessage;

impl VertexProgram for RegisterOnMessage {
    type State = EndLog;
    type Msg = ();

    fn run(&self, v: VertexId, _s: &mut EndLog, ctx: &mut VertexContext<'_, ()>) {
        ctx.request(v, Request::edges(EdgeDir::Out));
    }

    fn run_on_vertex(
        &self,
        _v: VertexId,
        _s: &mut EndLog,
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
        _s: &mut EndLog,
        _msg: &(),
        ctx: &mut VertexContext<'_, ()>,
    ) {
        ctx.notify_iteration_end();
    }

    fn run_on_iteration_end(&self, _v: VertexId, s: &mut EndLog, ctx: &mut VertexContext<'_, ()>) {
        s.ends.push(ctx.iteration());
    }
}

#[test]
fn iteration_end_registered_by_a_message_fires_that_iteration() {
    let g = fixtures::path(10);
    for (states, stats) in both_modes(&g, &RegisterOnMessage, Init::All, EngineConfig::small()) {
        assert_eq!(stats.iterations, 1);
        // Vertex 0 has no in-edge, so no message and no registration.
        assert!(states[0].ends.is_empty());
        for (v, s) in states.iter().enumerate().skip(1) {
            assert_eq!(s.ends, [0], "vertex {v}");
        }
    }
}

/// Registers from `run` in iteration 0 only, then again from inside
/// every `run_on_iteration_end`; stays active for three iterations.
struct ReRegister;

impl VertexProgram for ReRegister {
    type State = EndLog;
    type Msg = ();

    fn run(&self, v: VertexId, _s: &mut EndLog, ctx: &mut VertexContext<'_, ()>) {
        if ctx.iteration() == 0 {
            ctx.notify_iteration_end();
        }
        if ctx.iteration() < 2 {
            ctx.activate(v);
        }
    }

    fn run_on_iteration_end(&self, _v: VertexId, s: &mut EndLog, ctx: &mut VertexContext<'_, ()>) {
        s.ends.push(ctx.iteration());
        ctx.notify_iteration_end();
    }
}

#[test]
fn iteration_end_registered_in_the_callback_fires_next_iteration() {
    let g = fixtures::path(10);
    for (states, stats) in both_modes(&g, &ReRegister, Init::All, EngineConfig::small()) {
        assert_eq!(stats.iterations, 3);
        for (v, s) in states.iter().enumerate() {
            // Once per iteration: never twice in the one it was made in.
            assert_eq!(s.ends, [0, 1, 2], "vertex {v}");
        }
    }
}

// -------------------------------------------------- neighbor requests

/// Each vertex requests its *neighbours'* edge lists (the triangle
/// counting access pattern) and records their total degree.
struct NeighborDegrees;

#[derive(Default, Clone)]
struct NdState {
    total: u64,
    started: bool,
}

impl VertexProgram for NeighborDegrees {
    type State = NdState;
    type Msg = ();

    fn run(&self, v: VertexId, state: &mut NdState, ctx: &mut VertexContext<'_, ()>) {
        if !state.started {
            state.started = true;
            ctx.request(v, Request::edges(EdgeDir::Out));
        }
    }

    fn run_on_vertex(
        &self,
        v: VertexId,
        state: &mut NdState,
        vertex: &PageVertex<'_>,
        ctx: &mut VertexContext<'_, ()>,
    ) {
        if vertex.id() == v {
            for w in vertex.edges() {
                ctx.request(w, Request::edges(EdgeDir::Out));
            }
        } else {
            state.total += vertex.degree() as u64;
        }
    }
}

#[test]
fn cascading_neighbor_requests_both_modes() {
    let g = gen::rmat(7, 4, gen::RmatSkew::default(), 13);
    for (states, _) in both_modes(&g, &NeighborDegrees, Init::All, EngineConfig::small()) {
        for v in g.vertices() {
            let want: u64 = g
                .out_neighbors(v)
                .iter()
                .map(|&w| g.out_degree(w) as u64)
                .sum();
            assert_eq!(states[v.index()].total, want, "vertex {v}");
        }
    }
}

/// [`NeighborDegrees`] with the delivery discipline checked from the
/// inside: a plain flag up for the length of every callback (two
/// callbacks of one vertex overlapping would find it up), and enough
/// bookkeeping to tell a lost or repeated delivery from a correct one.
struct GuardedNeighborDegrees;

#[derive(Default, Clone, Debug, PartialEq)]
struct GuardedState {
    inside: bool,
    deliveries: u64,
    subject_sum: u64,
    total: u64,
}

impl VertexProgram for GuardedNeighborDegrees {
    type State = GuardedState;
    type Msg = ();

    fn run(&self, v: VertexId, _: &mut GuardedState, ctx: &mut VertexContext<'_, ()>) {
        ctx.request(v, Request::edges(EdgeDir::Out));
    }

    fn run_on_vertex(
        &self,
        v: VertexId,
        state: &mut GuardedState,
        vertex: &PageVertex<'_>,
        ctx: &mut VertexContext<'_, ()>,
    ) {
        assert!(!state.inside, "two callbacks of {v} at once");
        state.inside = true;
        if vertex.id() == v {
            for w in vertex.edges() {
                ctx.request(w, Request::edges(EdgeDir::Out));
            }
        } else {
            state.deliveries += 1;
            state.subject_sum += vertex.id().0 as u64;
            state.total += vertex.edges().map(|w| w.0 as u64).sum::<u64>();
            // Give a second worker holding one of this vertex's
            // deliveries time to try.
            std::thread::yield_now();
        }
        state.inside = false;
    }
}

#[test]
fn hub_deliveries_run_exactly_once_and_never_two_at_a_time() {
    // One requester with 12,000 neighbour deliveries at W = 4. They
    // all resolve on the worker that ran the hub, as entries of 64;
    // it takes a round of them, the others steal half of what is left
    // in its deque, and deliveries for the one requester sit in
    // several workers' rounds at once — the busy-bit conflict path. A
    // conflict must send that one delivery to the injector and leave
    // the rest of its entry to this round: re-injecting the entry
    // would run its other deliveries twice, dropping it never.
    const HUB: VertexId = VertexId(0);
    const FANOUT: u32 = 12_000;
    let n = 16_384u32;
    let mut b = fg_graph::GraphBuilder::directed();
    for w in 1..=FANOUT {
        b.add_edge(HUB, VertexId(w));
    }
    for v in 1..n {
        for j in 1..=3u32 {
            b.add_edge(VertexId(v), VertexId((v * 5 + j * 97) % n));
        }
    }
    let g = b.build();
    let small = EngineConfig::small();
    let default = EngineConfig::default();
    for (issue_batch, max_pending) in [
        (small.issue_batch, small.max_pending),
        (default.issue_batch, default.max_pending),
    ] {
        let cfg = EngineConfig {
            num_threads: 4,
            issue_batch,
            max_pending,
            ..small
        };
        let [(mem, _), (sem, stats)] = both_modes(&g, &GuardedNeighborDegrees, Init::All, cfg);
        let hub = &sem[HUB.index()];
        assert_eq!(hub.deliveries, FANOUT as u64);
        assert_eq!(hub.subject_sum, (1..=FANOUT as u64).sum::<u64>());
        assert_eq!(
            sem, mem,
            "every delivery once, with the in-memory engine's edges"
        );
        assert_eq!(stats.edges_delivered, {
            let own: u64 = g.vertices().map(|v| g.out_degree(v) as u64).sum();
            let neighbours: u64 = g
                .vertices()
                .flat_map(|v| g.out_neighbors(v))
                .map(|&w| g.out_degree(w) as u64)
                .sum();
            own + neighbours
        });
    }
}

// ------------------------------------------------------- edge weights

struct WeightSum;

#[derive(Default, Clone)]
struct WsState {
    sum: f32,
    started: bool,
}

impl VertexProgram for WeightSum {
    type State = WsState;
    type Msg = ();

    fn run(&self, v: VertexId, state: &mut WsState, ctx: &mut VertexContext<'_, ()>) {
        if !state.started {
            state.started = true;
            ctx.request(v, Request::edges(EdgeDir::Out).with_attrs());
        }
    }

    fn run_on_vertex(
        &self,
        _v: VertexId,
        state: &mut WsState,
        vertex: &PageVertex<'_>,
        _ctx: &mut VertexContext<'_, ()>,
    ) {
        assert!(vertex.weighted_edges().is_some() || vertex.degree() == 0);
        for (_, w) in vertex.weighted_edges().into_iter().flatten() {
            state.sum += w;
        }
    }
}

#[test]
fn weighted_requests_deliver_attrs_both_modes() {
    let g = fixtures::weighted_square();
    for (states, _) in both_modes(&g, &WeightSum, Init::All, EngineConfig::small()) {
        assert_eq!(states[0].sum, 6.0); // 1.0 + 5.0
        assert_eq!(states[1].sum, 1.0);
        assert_eq!(states[2].sum, 1.0);
        assert_eq!(states[3].sum, 0.0);
    }
}

/// Requests its own weighted list once and folds what arrives into
/// something order- and pairing-sensitive.
struct WeightedProbe;

#[derive(Default, Clone, Debug, PartialEq)]
struct WpState {
    deliveries: u32,
    edges: u64,
    folded: f64,
}

impl VertexProgram for WeightedProbe {
    type State = WpState;
    type Msg = ();

    fn run(&self, v: VertexId, _: &mut WpState, ctx: &mut VertexContext<'_, ()>) {
        ctx.request(v, Request::edges(EdgeDir::Out).with_attrs());
    }

    fn run_on_vertex(
        &self,
        _v: VertexId,
        state: &mut WpState,
        vertex: &PageVertex<'_>,
        _ctx: &mut VertexContext<'_, ()>,
    ) {
        state.deliveries += 1;
        for (i, (dst, w)) in vertex.weighted_edges().into_iter().flatten().enumerate() {
            state.edges += 1;
            state.folded += (i + 1) as f64 * dst.0 as f64 * w as f64;
        }
    }
}

#[test]
fn weighted_halves_in_different_covers_join_into_one_delivery() {
    // A weighted request is two byte ranges, one in the edge section
    // and one in the attribute section, far enough apart that no cover
    // holds both; at `issue_batch` 4 its halves land in different
    // covers — often of different batches — in either order, beside
    // halves of other requests. Each pair must come back as one
    // delivery carrying both, whichever half landed first.
    let g = gen::with_random_weights(&gen::rmat(8, 6, gen::RmatSkew::default(), 23), 9.0, 5);
    let cfg = EngineConfig {
        num_threads: 2,
        issue_batch: 4,
        ..EngineConfig::small()
    };
    let [(mem, _), (sem, stats)] = both_modes(&g, &WeightedProbe, Init::All, cfg);
    assert_eq!(sem, mem);
    for v in g.vertices() {
        let s = &sem[v.index()];
        assert_eq!(s.deliveries, 1, "one delivery for {v}'s one request");
        assert_eq!(s.edges, g.out_degree(v) as u64);
    }
    let weighted: u64 = g.vertices().map(|v| g.out_degree(v) as u64).sum();
    assert_eq!(stats.edges_delivered, weighted);
    assert_eq!(stats.bytes_requested, weighted * 8, "edges and attributes");

    let source = VertexId(0);
    let (safs, index) = sem_fixture(&g, SafsConfig::default());
    let (over_mount, _) = fg_apps::sssp(&Engine::new_sem(&safs, index, cfg), source).unwrap();
    let (in_memory, _) = fg_apps::sssp(&Engine::new_mem(&g, cfg), source).unwrap();
    assert_eq!(over_mount, in_memory);
}

// ------------------------------------------------ in-edges + directions

struct InDegreeViaEdges;

#[derive(Default, Clone)]
struct IdState {
    in_deg: u32,
    out_deg: u32,
    started: bool,
}

impl VertexProgram for InDegreeViaEdges {
    type State = IdState;
    type Msg = ();

    fn run(&self, v: VertexId, state: &mut IdState, ctx: &mut VertexContext<'_, ()>) {
        if !state.started {
            state.started = true;
            ctx.request(v, Request::edges(EdgeDir::Both));
        }
    }

    fn run_on_vertex(
        &self,
        _v: VertexId,
        state: &mut IdState,
        vertex: &PageVertex<'_>,
        _ctx: &mut VertexContext<'_, ()>,
    ) {
        match vertex.dir() {
            EdgeDir::In => state.in_deg += vertex.degree() as u32,
            EdgeDir::Out => state.out_deg += vertex.degree() as u32,
            EdgeDir::Both => unreachable!("deliveries are single-direction"),
        }
    }
}

#[test]
fn both_directions_delivered_separately() {
    let g = fixtures::diamond();
    for (states, _) in both_modes(&g, &InDegreeViaEdges, Init::All, EngineConfig::small()) {
        for v in g.vertices() {
            assert_eq!(states[v.index()].in_deg as usize, g.in_degree(v));
            assert_eq!(states[v.index()].out_deg as usize, g.out_degree(v));
        }
    }
}

// ------------------------------------------------------- configuration

#[test]
fn single_thread_and_many_threads_agree() {
    let g = gen::rmat(8, 6, gen::RmatSkew::default(), 3);
    let base = EngineConfig::small();
    let one = run_mode(
        &g,
        &Bfs,
        Init::Seeds(vec![VertexId(0)]),
        base.with_threads(1),
        false,
    )
    .0;
    let four = run_mode(
        &g,
        &Bfs,
        Init::Seeds(vec![VertexId(0)]),
        base.with_threads(4),
        false,
    )
    .0;
    for v in g.vertices() {
        assert_eq!(one[v.index()].visited, four[v.index()].visited);
        assert_eq!(one[v.index()].level, four[v.index()].level);
    }

    // A graph where all edges live in low vertex ids: partition 0 gets
    // all the work, so four workers match one only by stealing it.
    let mut b = fg_graph::GraphBuilder::directed();
    for i in 0..50u32 {
        for j in 0..20u32 {
            b.add_edge(VertexId(i), VertexId((i + j + 1) % 50));
        }
    }
    b.reserve_vertices(4096);
    let g = b.build();
    let one = run_mode(&g, &SumIds, Init::All, base.with_threads(1), false).0;
    let four = run_mode(&g, &SumIds, Init::All, base.with_threads(4), false).0;
    for v in g.vertices() {
        assert_eq!(one[v.index()].sum, four[v.index()].sum);
    }
}

#[test]
fn schedulers_do_not_change_bfs_results() {
    let g = gen::rmat(8, 4, gen::RmatSkew::default(), 8);
    let mut reference: Option<Vec<bool>> = None;
    for sched in [
        SchedulerKind::ById,
        SchedulerKind::Alternating,
        SchedulerKind::Random(11),
        SchedulerKind::DegreeDescending(EdgeDir::Both),
        SchedulerKind::DegreeDescending(EdgeDir::In),
        SchedulerKind::DegreeDescending(EdgeDir::Out),
    ] {
        let cfg = EngineConfig::small().with_scheduler(sched);
        let (states, _) = run_mode(&g, &Bfs, Init::Seeds(vec![VertexId(0)]), cfg, true);
        let visited: Vec<bool> = states.iter().map(|s| s.visited).collect();
        match &reference {
            None => reference = Some(visited),
            Some(r) => assert_eq!(r, &visited, "{sched:?}"),
        }
    }
}

/// Regression: with `max_pending < issue_batch` the pipelined claim
/// loop fills its whole depth budget with requests that are merely
/// *buffered* in the issue queue — the batch-size flush trigger
/// can then never fire, and without the stall-point flush the workers
/// wait forever on completions that were never submitted
/// (`scan_statistics` ships exactly this shape: `max_pending: 16`
/// over the default `issue_batch: 256`).
///
/// This is the test of `SemIo::harvest`'s stall-point flush, so it runs
/// under a watchdog (the `tests/panic_poison.rs` pattern): a flush that
/// never fires fails it after `WATCHDOG` instead of hanging the suite.
#[test]
fn pipeline_survives_max_pending_below_issue_batch() {
    const WATCHDOG: Duration = Duration::from_secs(20);
    let (tx, rx) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        let g = gen::rmat(8, 6, gen::RmatSkew::default(), 5);
        let cfg = EngineConfig {
            max_pending: 2,
            issue_batch: 64,
            ..EngineConfig::small()
        };
        let (mem, _) = run_mode(&g, &Bfs, Init::Seeds(vec![VertexId(0)]), cfg, false);
        let (sem, _) = run_mode(&g, &Bfs, Init::Seeds(vec![VertexId(0)]), cfg, true);
        for v in g.vertices() {
            assert_eq!(mem[v.index()].visited, sem[v.index()].visited);
            assert_eq!(mem[v.index()].level, sem[v.index()].level);
        }
        let _ = tx.send(());
    });
    match rx.recv_timeout(WATCHDOG) {
        Ok(()) => runner.join().unwrap(),
        // The run panicked: surface its assertion.
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(runner.join().unwrap_err())
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("still running after {WATCHDOG:?}: a stall point that never flushes")
        }
    }
}

#[test]
fn engine_merging_reduces_issued_requests() {
    let g = gen::rmat(9, 8, gen::RmatSkew::default(), 4);
    let merged = run_mode(
        &g,
        &Bfs,
        Init::Seeds(vec![VertexId(0)]),
        EngineConfig::default()
            .with_threads(2)
            .with_engine_merge(true),
        true,
    )
    .1;
    let unmerged = run_mode(
        &g,
        &Bfs,
        Init::Seeds(vec![VertexId(0)]),
        EngineConfig::default()
            .with_threads(2)
            .with_engine_merge(false),
        true,
    )
    .1;
    assert_eq!(merged.engine_requests, unmerged.engine_requests);
    assert!(
        merged.issued_requests < unmerged.issued_requests / 2,
        "merging should at least halve issued requests: {} vs {}",
        merged.issued_requests,
        unmerged.issued_requests
    );
}

// ------------------------------------------------------------ sweeps

/// Every vertex with an out-list asks for it, three iterations running,
/// every vertex active: the access pattern of PageRank's first
/// iterations.
struct OwnListRounds;

#[derive(Default, Clone, Debug, PartialEq)]
struct RoundsState {
    rounds: u32,
    sum: u64,
}

impl VertexProgram for OwnListRounds {
    type State = RoundsState;
    type Msg = ();

    fn run(&self, v: VertexId, state: &mut RoundsState, ctx: &mut VertexContext<'_, ()>) {
        state.rounds += 1;
        if ctx.degree(v, EdgeDir::Out) > 0 {
            ctx.request(v, Request::edges(EdgeDir::Out));
        }
        if state.rounds < 3 {
            ctx.activate(v);
        }
    }

    fn run_on_vertex(
        &self,
        _v: VertexId,
        state: &mut RoundsState,
        vertex: &PageVertex<'_>,
        _ctx: &mut VertexContext<'_, ()>,
    ) {
        state.sum += vertex.edges().map(|w| w.0 as u64).sum::<u64>();
    }
}

#[test]
fn an_all_active_run_sweeps_nine_tenths_of_its_requests() {
    // Every claimed run asks for every non-empty list in its span, so
    // each run's requests are as dense as requests get: nearly all are
    // read on the claiming worker. Exact, and the per-iteration column
    // sums to it.
    let g = gen::rmat(12, 8, gen::RmatSkew::default(), 21);
    let cfg = EngineConfig::default().with_threads(1);
    let [(mem, mem_stats), (sem, stats)] = both_modes(&g, &OwnListRounds, Init::All, cfg);
    assert_eq!(sem, mem);
    assert_eq!(mem_stats.swept_requests, 0, "memory delivers inline");
    assert!(
        stats.swept_requests * 10 >= stats.engine_requests * 9,
        "{} of {} requests swept",
        stats.swept_requests,
        stats.engine_requests
    );
    let rows: u64 = stats.per_iteration.iter().map(|it| it.swept_requests).sum();
    assert_eq!(rows, stats.swept_requests);
    // The same run on two workers, where runs are stolen, sweeps the
    // same requests: where a run cuts is not up to the schedule.
    let (_, two) = run_mode(&g, &OwnListRounds, Init::All, cfg.with_threads(2), true);
    let (_, again) = run_mode(&g, &OwnListRounds, Init::All, cfg.with_threads(2), true);
    assert_eq!(two.swept_requests, again.swept_requests);
    assert!(two.swept_requests * 10 >= two.engine_requests * 9);
}

/// Every vertex asks for its own out- and in-list, three iterations
/// running, every vertex active: both directions of every claimed run
/// are dense and sweep. A requester's two deliveries lie in different
/// sections of the image, so in different covers and entries, which
/// the claiming worker and a thief can hold at once. The flag of
/// [`GuardedNeighborDegrees`] checks that they never overlap.
struct GuardedBothLists;

#[derive(Default, Clone, Debug, PartialEq)]
struct BothListsState {
    inside: bool,
    rounds: u32,
    deliveries: u64,
    sum: u64,
}

impl VertexProgram for GuardedBothLists {
    type State = BothListsState;
    type Msg = ();

    fn run(&self, v: VertexId, state: &mut BothListsState, ctx: &mut VertexContext<'_, ()>) {
        state.rounds += 1;
        for dir in [EdgeDir::Out, EdgeDir::In] {
            if ctx.degree(v, dir) > 0 {
                ctx.request(v, Request::edges(dir));
            }
        }
        if state.rounds < 3 {
            ctx.activate(v);
        }
    }

    fn run_on_vertex(
        &self,
        v: VertexId,
        state: &mut BothListsState,
        vertex: &PageVertex<'_>,
        _ctx: &mut VertexContext<'_, ()>,
    ) {
        assert!(!state.inside, "two callbacks of {v} at once");
        state.inside = true;
        state.deliveries += 1;
        state.sum += vertex.edges().map(|w| w.0 as u64).sum::<u64>();
        // Give a worker holding the requester's other delivery time to
        // try.
        std::thread::yield_now();
        state.inside = false;
    }
}

/// Swept runs on four workers over a hub-heavy graph: every run's
/// covers are read on its claiming worker and resolved into its deque,
/// thieves take half of it, a delivery whose requester is busy goes to
/// the injector, and a worker whose run swept claims again only once
/// every entry of the sweep is delivered. Under a watchdog (the
/// `pipeline_survives_max_pending_below_issue_batch` pattern): a claim
/// gate that never opens fails the test instead of hanging the suite.
#[test]
fn swept_deliveries_conflict_and_are_stolen_without_wedging() {
    const WATCHDOG: Duration = Duration::from_secs(60);
    let (tx, rx) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        let g = gen::rmat(12, 16, gen::RmatSkew::social(), 41);
        let cfg = EngineConfig::default().with_threads(4);
        let [(mem, _), (sem, stats)] = both_modes(&g, &GuardedBothLists, Init::All, cfg);
        assert_eq!(sem, mem);
        assert!(
            stats.swept_requests * 10 >= stats.engine_requests * 9,
            "{} of {} requests swept",
            stats.swept_requests,
            stats.engine_requests
        );
        let _ = tx.send(());
    });
    match rx.recv_timeout(WATCHDOG) {
        Ok(()) => runner.join().unwrap(),
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(runner.join().unwrap_err())
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("still running after {WATCHDOG:?}: a claim gate that never opens")
        }
    }
}

#[test]
fn tc_neighbour_fetches_never_sweep() {
    // Triangle counting asks for its own list in `run` and for its
    // neighbours' from the own list's delivery. In id order the own
    // lists of a run are dense and sweep; the neighbour fetches are
    // follow-ons, and a follow-on always takes the selective path.
    let d = gen::rmat(9, 6, gen::RmatSkew::default(), 31);
    let mut b = fg_graph::GraphBuilder::undirected();
    for (s, t) in d.edges() {
        b.add_edge(s, t);
    }
    let g = b.build();
    let program = fg_apps::tc::TcProgram { notify: false };
    let cfg = EngineConfig::default()
        .with_threads(1)
        .with_scheduler(SchedulerKind::ById);
    let [(mem, _), (sem, stats)] = both_modes(&g, &program, Init::All, cfg);
    let triangles = |states: &[fg_apps::tc::TcState]| -> Vec<u64> {
        states.iter().map(|s| s.triangles).collect()
    };
    assert_eq!(triangles(&sem), triangles(&mem));
    let own = g.vertices().filter(|&v| g.out_degree(v) >= 2).count() as u64;
    assert!(
        stats.engine_requests > 2 * own,
        "neighbour fetches dominate"
    );
    assert!(stats.swept_requests > 0, "own lists in id order sweep");
    assert!(
        stats.swept_requests <= own,
        "{} swept, but only {own} requests are not follow-ons",
        stats.swept_requests
    );
}

#[test]
fn unmerged_runs_sweep_nothing() {
    // Figure 12's "merge in SAFS" and "sequential" rows turn engine
    // merging off; a sweep is engine-side merging, so they sweep
    // nothing and every request goes to SAFS on its own.
    let g = gen::rmat(10, 8, gen::RmatSkew::default(), 21);
    let cfg = EngineConfig::default()
        .with_threads(2)
        .with_engine_merge(false);
    let [(mem, _), (sem, stats)] = both_modes(&g, &OwnListRounds, Init::All, cfg);
    assert_eq!(sem, mem);
    assert_eq!(stats.swept_requests, 0);
    assert_eq!(
        stats.issued_requests, stats.engine_requests,
        "one submit per request"
    );
}

#[test]
fn a_weighted_request_never_sweeps() {
    // A request for a list with its attributes is two byte ranges, in
    // two sections of the image: it is joined by the selective path,
    // never swept, whatever its neighbours in the run do.
    let g = gen::with_random_weights(&gen::rmat(10, 6, gen::RmatSkew::default(), 23), 9.0, 5);
    let cfg = EngineConfig::default().with_threads(1);
    let [(mem, _), (sem, stats)] = both_modes(&g, &WeightedProbe, Init::All, cfg);
    assert_eq!(sem, mem);
    assert_eq!(stats.swept_requests, 0);
    let weighted: u64 = g.vertices().map(|v| g.out_degree(v) as u64).sum();
    assert_eq!(stats.bytes_requested, weighted * 8, "edges and attributes");
}

/// Short lists, hundreds to a page: every batch after a page's first
/// lies wholly on a page that is already on its way. The batch must
/// still merge into a cover — whose pages the mount then attaches or
/// serves from cache — not go out one request at a time.
#[test]
fn batches_on_an_in_flight_page_still_merge() {
    let n = 8192u32;
    let mut b = fg_graph::GraphBuilder::directed();
    for v in 0..n {
        for k in 1..=4 {
            b.add_edge(VertexId(v), VertexId((v + k) % n));
        }
    }
    let g = b.build();
    let cfg = EngineConfig {
        num_threads: 1,
        issue_batch: 64,
        scheduler: SchedulerKind::ById,
        ..EngineConfig::default()
    };
    let [(mem, _), (sem, stats)] = both_modes(&g, &SumIds, Init::All, cfg);
    assert_eq!(stats.engine_requests, n as u64);
    assert!(
        stats.issued_requests * 16 <= stats.engine_requests,
        "{} requests went out as {} submits",
        stats.engine_requests,
        stats.issued_requests
    );
    for v in g.vertices() {
        assert_eq!(mem[v.index()].sum, sem[v.index()].sum, "vertex {v}");
    }
}

#[test]
fn stats_track_io_and_cache_in_sem_mode() {
    let g = gen::rmat(8, 6, gen::RmatSkew::default(), 9);
    let (_, stats) = run_mode(
        &g,
        &Bfs,
        Init::Seeds(vec![VertexId(0)]),
        EngineConfig::small(),
        true,
    );
    let io = stats.io.clone().expect("sem mode records io");
    assert!(io.read_requests > 0);
    assert!(io.bytes_read > 0);
    assert!(stats.cache.is_some());
    assert!(stats.modeled_runtime_ns() >= io.max_busy_ns);
    assert!(!stats.per_iteration.is_empty());
    assert_eq!(stats.per_iteration.len() as u32, stats.iterations);
    // Iteration 0's frontier was exactly the seed.
    assert_eq!(stats.per_iteration[0].frontier, 1);
}

#[test]
fn in_memory_mode_reports_no_io() {
    let g = fixtures::path(5);
    let (_, stats) = run_mode(
        &g,
        &Bfs,
        Init::Seeds(vec![VertexId(0)]),
        EngineConfig::small(),
        false,
    );
    assert!(stats.io.is_none());
    assert!(stats.cache.is_none());
    assert!(stats.engine_requests > 0);
}

#[test]
fn empty_graph_runs_and_stops() {
    let g = fg_graph::GraphBuilder::directed().build();
    let engine = Engine::new_mem(&g, EngineConfig::small());
    let (states, stats) = engine.run(&Bfs, Init::All).unwrap();
    assert!(states.is_empty());
    assert_eq!(stats.iterations, 0);
}

#[test]
fn max_iterations_caps_runaway_programs() {
    struct Forever;
    impl VertexProgram for Forever {
        type State = ();
        type Msg = ();
        fn run(&self, v: VertexId, _s: &mut (), ctx: &mut VertexContext<'_, ()>) {
            ctx.activate(v); // re-activate forever
        }
    }
    let g = fixtures::path(4);
    let cfg = EngineConfig {
        max_iterations: 7,
        ..EngineConfig::small()
    };
    let engine = Engine::new_mem(&g, cfg);
    let (_, stats) = engine.run(&Forever, Init::All).unwrap();
    assert_eq!(stats.iterations, 7);
}

// --------------------------------------------- partial-range requests

/// Each vertex requests positions [start, start+len) of its own out
/// list and records what arrived (slice content + reported offset).
struct RangeProbe {
    start: u64,
    len: u64,
}

#[derive(Default, Clone)]
struct ProbeState {
    started: bool,
    got: Vec<(u64, Vec<u32>)>, // (offset, slice edges) per callback
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
        v: VertexId,
        state: &mut ProbeState,
        vertex: &PageVertex<'_>,
        _ctx: &mut VertexContext<'_, ()>,
    ) {
        assert_eq!(vertex.id(), v);
        assert_eq!(
            vertex.range().end - vertex.range().start,
            vertex.degree() as u64
        );
        state
            .got
            .push((vertex.offset(), vertex.edges().map(|e| e.0).collect()));
    }
}

/// Flattens per-callback slices into (sorted-by-offset) edge ids.
fn reassemble(got: &[(u64, Vec<u32>)]) -> Vec<u32> {
    let mut chunks = got.to_vec();
    chunks.sort_by_key(|(off, _)| *off);
    chunks.into_iter().flat_map(|(_, e)| e).collect()
}

#[test]
fn range_requests_deliver_the_oracle_slice_both_modes() {
    let g = gen::rmat(8, 5, gen::RmatSkew::default(), 61);
    for (start, len) in [(0u64, 2u64), (1, 3), (2, 1000), (0, u64::MAX)] {
        let probe = RangeProbe { start, len };
        for (states, _) in both_modes(&g, &probe, Init::All, EngineConfig::small()) {
            for v in g.vertices() {
                let full = g.out_neighbors(v);
                let lo = (start as usize).min(full.len());
                let hi = lo + (len as usize).min(full.len() - lo);
                let want: Vec<u32> = full[lo..hi].iter().map(|e| e.0).collect();
                let st = &states[v.index()];
                assert_eq!(st.got.len(), 1, "one callback per in-bounds range");
                assert_eq!(st.got[0].0, lo as u64, "vertex {v} offset");
                assert_eq!(st.got[0].1, want, "vertex {v} slice");
            }
        }
    }
}

#[test]
fn zero_length_and_clamped_ranges_complete_without_io() {
    // Zero-length ranges and ranges starting past the list's end must
    // behave exactly like zero-degree lists: one empty callback, no
    // bytes requested, no device I/O.
    let g = gen::rmat(7, 4, gen::RmatSkew::default(), 5);
    for (start, len) in [(0u64, 0u64), (3, 0), (u64::MAX, 10), (1 << 40, 0)] {
        let probe = RangeProbe { start, len };
        let (states, stats) = run_mode(&g, &probe, Init::All, EngineConfig::small(), true);
        for v in g.vertices() {
            let st = &states[v.index()];
            assert_eq!(st.got.len(), 1, "empty ranges still deliver one callback");
            assert!(st.got[0].1.is_empty());
        }
        assert_eq!(stats.bytes_requested, 0, "({start}, {len})");
        assert_eq!(stats.edges_delivered, 0);
        let io = stats.io.expect("sem mode");
        assert_eq!(io.read_requests, 0, "no device I/O for ({start}, {len})");
        assert_eq!(io.bytes_read, 0);
        assert!(stats.engine_requests > 0, "requests were still issued");
    }
}

#[test]
fn clamped_tail_range_reads_only_the_overlap() {
    // A range crossing the end of the list delivers the clamped
    // intersection (like the zero-degree convention, but non-empty).
    let g = fixtures::complete(6); // every vertex has degree 5
    let probe = RangeProbe { start: 3, len: 100 };
    for (states, _) in both_modes(&g, &probe, Init::All, EngineConfig::small()) {
        for v in g.vertices() {
            let st = &states[v.index()];
            let want: Vec<u32> = g.out_neighbors(v)[3..].iter().map(|e| e.0).collect();
            assert_eq!(reassemble(&st.got), want);
            assert_eq!(st.got[0].0, 3);
        }
    }
}

#[test]
fn chunked_delivery_reassembles_with_one_callback_per_chunk() {
    // A list asked for as ranges of `chunk` edges comes back one
    // callback per range, at the range's offset, and reassembles to
    // the whole list.
    let g = gen::rmat(7, 6, gen::RmatSkew::default(), 44);
    for chunk in [1u64, 3, 7, 16] {
        let probe = SplitProbe { chunk };
        for (states, _) in both_modes(&g, &probe, Init::All, EngineConfig::small()) {
            for v in g.vertices() {
                let want: Vec<u32> = g.out_neighbors(v).iter().map(|e| e.0).collect();
                let got = states[v.index()].sorted();
                assert_eq!(
                    got,
                    expected_pieces(&want, chunk),
                    "vertex {v} chunk={chunk}"
                );
            }
        }
    }
}

#[test]
fn chunking_does_not_change_device_traffic() {
    // Ranges bound callback granularity, not I/O: adjacent ranges of
    // one list re-merge in the issue batch, so device bytes and pages
    // stay the same as the whole-list run.
    let g = gen::rmat(8, 8, gen::RmatSkew::default(), 2);
    let whole = RangeProbe {
        start: 0,
        len: u64::MAX,
    };
    let (whole_states, whole) = run_mode(&g, &whole, Init::All, EngineConfig::small(), true);
    let a = whole.io.as_ref().expect("sem mode");
    for chunk in [1u64, 3, 7, 16] {
        let probe = SplitProbe { chunk };
        let (split_states, split) = run_mode(&g, &probe, Init::All, EngineConfig::small(), true);
        for v in g.vertices() {
            assert_eq!(
                reassemble(&split_states[v.index()].pieces),
                reassemble(&whole_states[v.index()].got),
                "vertex {v} chunk={chunk}"
            );
        }
        let b = split.io.as_ref().expect("sem mode");
        assert_eq!(
            a.bytes_read, b.bytes_read,
            "no duplicate page reads (chunk={chunk})"
        );
        assert_eq!(a.pages_read, b.pages_read);
        assert_eq!(whole.bytes_requested, split.bytes_requested);
        assert_eq!(whole.edges_delivered, split.edges_delivered);
    }
}

// ------------------------------------------- byte-accounted pipeline

#[test]
fn stats_account_bytes_and_edges_per_iteration() {
    let g = gen::rmat(8, 6, gen::RmatSkew::default(), 9);
    let (_, stats) = run_mode(
        &g,
        &Bfs,
        Init::Seeds(vec![VertexId(0)]),
        EngineConfig::small(),
        true,
    );
    // Every visited vertex requested its whole out list exactly once:
    // delivered edges = sum of visited out-degrees = requested bytes/4.
    let reached: u64 = fg_baselines::direct::bfs_levels(&g, VertexId(0))
        .iter()
        .enumerate()
        .filter(|(_, l)| l.is_some())
        .map(|(i, _)| g.out_degree(VertexId(i as u32)) as u64)
        .sum();
    assert_eq!(stats.edges_delivered, reached);
    assert_eq!(stats.bytes_requested, reached * 4);
    // Per-iteration traces sum to the run totals.
    let iter_bytes: u64 = stats.per_iteration.iter().map(|i| i.bytes_requested).sum();
    let iter_edges: u64 = stats.per_iteration.iter().map(|i| i.edges_delivered).sum();
    assert_eq!(iter_bytes, stats.bytes_requested);
    assert_eq!(iter_edges, stats.edges_delivered);
    // Page rounding makes the device read at least one page per cold
    // request neighbourhood; the waste ratio is well-defined and ≥ 1
    // on this cold, scattered pattern.
    let ratio = stats.page_waste_ratio().expect("sem mode with requests");
    assert!(ratio >= 1.0, "cold BFS cannot read less than requested");
    // In-memory runs deliver the same edges with no byte accounting.
    let (_, mem) = run_mode(
        &g,
        &Bfs,
        Init::Seeds(vec![VertexId(0)]),
        EngineConfig::small(),
        false,
    );
    assert_eq!(mem.edges_delivered, reached);
    assert_eq!(mem.bytes_requested, 0);
    assert_eq!(mem.page_waste_ratio(), None);
}

#[test]
fn single_position_probes_expose_page_rounding_waste() {
    // Reading 1 edge (4 bytes) per vertex still costs whole pages on
    // the device: bytes_requested counts 4 per probe while bytes_read
    // counts pages — the waste ratio the partial-request API lets
    // samplers measure (and the merge layer amortize).
    let g = gen::rmat(8, 6, gen::RmatSkew::default(), 29);
    let probe = RangeProbe { start: 0, len: 1 };
    let (_, stats) = run_mode(&g, &probe, Init::All, EngineConfig::small(), true);
    let with_edges: u64 = g.vertices().filter(|&v| g.out_degree(v) > 0).count() as u64;
    assert_eq!(stats.edges_delivered, with_edges);
    assert_eq!(stats.bytes_requested, with_edges * 4);
    assert!(stats.page_waste_ratio().unwrap() > 1.0);
}

#[test]
fn an_unranged_request_is_the_full_range_request() {
    // A request with no range and one whose range covers the whole
    // list are the same request: identical stats and results.
    struct Wrapped;
    #[derive(Default, Clone)]
    struct WState {
        sum: u64,
        started: bool,
    }
    impl VertexProgram for Wrapped {
        type State = WState;
        type Msg = ();
        fn run(&self, v: VertexId, state: &mut WState, ctx: &mut VertexContext<'_, ()>) {
            if !state.started {
                state.started = true;
                ctx.request(v, Request::edges(EdgeDir::Out));
            }
        }
        fn run_on_vertex(
            &self,
            _v: VertexId,
            state: &mut WState,
            vertex: &PageVertex<'_>,
            _ctx: &mut VertexContext<'_, ()>,
        ) {
            assert_eq!(vertex.offset(), 0, "an unranged request is the whole list");
            state.sum += vertex.edges().map(|e| e.0 as u64).sum::<u64>();
        }
    }
    let g = gen::rmat(7, 4, gen::RmatSkew::default(), 71);
    let (w_states, w_stats) = run_mode(&g, &Wrapped, Init::All, EngineConfig::small(), true);
    let probe = RangeProbe {
        start: 0,
        len: u64::MAX,
    };
    let (p_states, p_stats) = run_mode(&g, &probe, Init::All, EngineConfig::small(), true);
    for v in g.vertices() {
        let want: u64 = reassemble(&p_states[v.index()].got)
            .iter()
            .map(|&e| e as u64)
            .sum();
        assert_eq!(w_states[v.index()].sum, want);
    }
    assert_eq!(w_stats.engine_requests, p_stats.engine_requests);
    assert_eq!(w_stats.bytes_requested, p_stats.bytes_requested);
    assert_eq!(w_stats.edges_delivered, p_stats.edges_delivered);
}

#[test]
fn ranged_attr_requests_slice_weights_in_lockstep() {
    struct AttrSlice;
    #[derive(Default, Clone)]
    struct AsState {
        started: bool,
        pairs: Vec<(u32, f32)>,
    }
    impl VertexProgram for AttrSlice {
        type State = AsState;
        type Msg = ();
        fn run(&self, v: VertexId, state: &mut AsState, ctx: &mut VertexContext<'_, ()>) {
            if !state.started {
                state.started = true;
                ctx.request(v, Request::edges(EdgeDir::Out).range(1, 1).with_attrs());
            }
        }
        fn run_on_vertex(
            &self,
            _v: VertexId,
            state: &mut AsState,
            vertex: &PageVertex<'_>,
            _ctx: &mut VertexContext<'_, ()>,
        ) {
            for (dst, w) in vertex.weighted_edges().unwrap() {
                state.pairs.push((dst.0, w));
            }
        }
    }
    let g = fixtures::weighted_square();
    for (states, _) in both_modes(&g, &AttrSlice, Init::All, EngineConfig::small()) {
        for v in g.vertices() {
            let edges = g.out_neighbors(v);
            let want: Vec<(u32, f32)> = if edges.len() > 1 {
                let w = g.csr(EdgeDir::Out).weights_of(v).unwrap();
                vec![(edges[1].0, w[1])]
            } else {
                Vec::new()
            };
            assert_eq!(states[v.index()].pairs, want, "vertex {v}");
        }
    }
}

// ------------------------------------------ neighbour range requests

#[test]
fn range_requests_on_other_vertices_work() {
    // The paper's "request any vertex" flexibility composes with
    // ranges: vertex 0 samples position 1 of every other vertex.
    struct PeekSecond;
    #[derive(Default, Clone)]
    struct PeekState {
        seen: Vec<(u32, Vec<u32>)>,
        started: bool,
    }
    impl VertexProgram for PeekSecond {
        type State = PeekState;
        type Msg = ();
        fn run(&self, v: VertexId, state: &mut PeekState, ctx: &mut VertexContext<'_, ()>) {
            if v == VertexId(0) && !state.started {
                state.started = true;
                for u in 0..ctx.num_vertices() as u32 {
                    ctx.request(VertexId(u), Request::edges(EdgeDir::Out).range(1, 1));
                }
            }
        }
        fn run_on_vertex(
            &self,
            v: VertexId,
            state: &mut PeekState,
            vertex: &PageVertex<'_>,
            _ctx: &mut VertexContext<'_, ()>,
        ) {
            assert_eq!(v, VertexId(0), "callbacks land on the requester");
            state
                .seen
                .push((vertex.id().0, vertex.edges().map(|e| e.0).collect()));
        }
    }
    let g = gen::rmat(6, 4, gen::RmatSkew::default(), 19);
    for (states, _) in both_modes(&g, &PeekSecond, Init::All, EngineConfig::small()) {
        let mut seen = states[0].seen.clone();
        seen.sort();
        assert_eq!(seen.len(), g.num_vertices());
        for (u, got) in seen {
            let full = g.out_neighbors(VertexId(u));
            let want: Vec<u32> = full.iter().skip(1).take(1).map(|e| e.0).collect();
            assert_eq!(got, want, "vertex {u}");
        }
    }
}

// ------------------------------------------- per-iteration statistics

/// A fresh semi-external fixture with an explicit SAFS config and a
/// handle on the mount (for cache/device assertions).
fn sem_fixture(g: &Graph, safs_cfg: SafsConfig) -> (Safs, fg_format::GraphIndex) {
    let array = SsdArray::new_mem(ArrayConfig::small_test(), required_capacity(g)).unwrap();
    write_image(g, &array).unwrap();
    let (_, index) = load_index(&array).unwrap();
    let safs = Safs::new(safs_cfg, array).unwrap();
    safs.reset_stats();
    (safs, index)
}

#[test]
fn per_iteration_io_sums_to_run_totals_under_stealing() {
    // An unbalanced graph (all edges on low ids) so stealing actually
    // moves I/O between workers mid-iteration; the quiesced boundary
    // snapshots must still partition the run totals exactly. The
    // pipelined loop has no intra-iteration barriers, so its only
    // quiesced points are the completion-counted iteration boundaries
    // — exactly where the snapshots are taken.
    let mut b = fg_graph::GraphBuilder::directed();
    for i in 0..300u32 {
        for j in 0..8u32 {
            b.add_edge(VertexId(i), VertexId((i * 7 + j * 131 + 1) % 2048));
        }
    }
    b.reserve_vertices(2048);
    let g = b.build();
    // Batches of 4 make entries of a delivery or two; batches of 64,
    // runs a thief takes many deliveries of at once.
    for issue_batch in [4, 64] {
        per_iteration_rows_sum_at(&g, issue_batch);
    }
}

fn per_iteration_rows_sum_at(g: &Graph, issue_batch: usize) {
    let cfg = EngineConfig {
        num_threads: 4,
        issue_batch,
        max_pending: 4 * issue_batch,
        ..EngineConfig::small()
    };
    let (safs, index) = sem_fixture(g, SafsConfig::default());
    let engine = Engine::new_sem(&safs, index, cfg);
    let seeds = Init::Seeds(vec![VertexId(0)]);
    let (_, stats) = engine.run(&Bfs, seeds.clone()).unwrap();
    // The workers tally bytes and requests privately and fold them in
    // at their flushes: every row must still hold what *its*
    // iteration requested — a sum cannot tell a fold that slipped past
    // a boundary, one worker's rows can.
    let one = EngineConfig {
        num_threads: 1,
        ..cfg
    };
    let (_, alone) = engine.reconfigured(one).run(&Bfs, seeds).unwrap();
    let rows = |s: &RunStats| -> Vec<(u64, u64)> {
        let row = |it: &flashgraph::IterStats| (it.bytes_requested, it.edges_delivered);
        s.per_iteration.iter().map(row).collect()
    };
    assert_eq!(rows(&stats), rows(&alone));
    let io = stats.io.as_ref().expect("sem mode");
    let sums = stats
        .per_iteration
        .iter()
        .fold((0u64, 0u64, 0u64, 0u64, 0u64), |a, it| {
            (
                a.0 + it.read_requests,
                a.1 + it.bytes_read,
                a.2 + it.bytes_requested,
                a.3 + it.edges_delivered,
                a.4 + it.issued_requests,
            )
        });
    assert_eq!(sums.0, io.read_requests, "read_requests must sum exactly");
    assert_eq!(sums.1, io.bytes_read, "bytes_read must sum exactly");
    assert_eq!(
        sums.2, stats.bytes_requested,
        "bytes_requested must sum exactly"
    );
    assert_eq!(
        sums.3, stats.edges_delivered,
        "edges_delivered must sum exactly"
    );
    assert_eq!(
        sums.4, stats.issued_requests,
        "issued_requests must sum exactly"
    );
    assert!(stats.per_iteration.len() as u32 == stats.iterations);
}

#[test]
fn tc_per_vertex_counts_over_a_mount_match_direct() {
    // Neighbour-list requests (subject != requester) over a mount
    // count what the in-memory oracle counts, vertex by vertex.
    let d = gen::rmat(7, 6, gen::RmatSkew::default(), 31);
    let mut b = fg_graph::GraphBuilder::undirected();
    for (s, t) in d.edges() {
        b.add_edge(s, t);
    }
    let g = b.build();
    let cfg = EngineConfig {
        num_threads: 2,
        issue_batch: 64,
        ..EngineConfig::default()
    };
    let (safs, index) = sem_fixture(&g, SafsConfig::default());
    let engine = Engine::new_sem(&safs, index, cfg);
    let (total, per, _) = fg_apps::triangle_count(&engine, true).unwrap();
    assert_eq!(total, fg_baselines::direct::triangle_count(&g));
    assert_eq!(per, fg_baselines::direct::triangles_per_vertex(&g));
}
