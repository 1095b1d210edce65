//! A panicking vertex-program callback ends the run with
//! `FgError::WorkerPanicked` — it does not leave the other workers
//! parked at the iteration barrier, spinning on a busy bit nobody will
//! clear, or waiting for an announcement a dead worker never makes —
//! and it leaks nothing: the same mounts answer the next query
//! oracle-identically, and a `GraphService` has released the slot.
//!
//! Every case runs under a watchdog: a hang fails the test after
//! `WATCHDOG` instead of hanging the suite.

use std::sync::mpsc;
use std::time::Duration;

use fg_bench::{build_shard_fixture, traversal_root};
use fg_format::{load_index, required_capacity, write_image, GraphIndex, WriteOptions};
use fg_graph::{gen, Graph};
use fg_safs::{Safs, SafsConfig, ShardSet};
use fg_ssdsim::{ArrayConfig, SsdArray};
use fg_types::{EdgeDir, FgError, VertexId};
use flashgraph::{
    Engine, EngineConfig, GraphService, Init, PageVertex, QueryOpts, Request, ServiceConfig,
    VertexContext, VertexProgram,
};

const WATCHDOG: Duration = Duration::from_secs(20);
const THREADS: [usize; 2] = [2, 8];

/// Runs `case` for every callback × worker count, each on its own
/// thread, and fails — rather than hangs — a case that has not
/// finished inside [`WATCHDOG`].
fn matrix(backend: &str, case: fn(&str, &Graph, Boom, EngineConfig)) {
    for boom in BOOMS {
        for threads in THREADS {
            let what = format!("{backend}/{boom:?}/{threads} workers");
            let (tx, rx) = mpsc::channel();
            let runner = {
                let what = what.clone();
                std::thread::spawn(move || {
                    let cfg = EngineConfig::small().with_threads(threads);
                    case(&what, &test_graph(), boom, cfg);
                    let _ = tx.send(());
                })
            };
            match rx.recv_timeout(WATCHDOG) {
                Ok(()) => runner.join().unwrap(),
                // The case panicked: surface its assertion.
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    std::panic::resume_unwind(runner.join().unwrap_err())
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    panic!("{what}: still running after {WATCHDOG:?}")
                }
            }
        }
    }
}

fn test_graph() -> Graph {
    gen::rmat(8, 6, gen::RmatSkew::default(), 0xB00)
}

/// The callback that panics when it reaches the victim vertex.
#[derive(Clone, Copy, Debug)]
enum Boom {
    Run,
    OnVertex,
    OnMessage,
    /// The delivery of the in-list the victim's message handler asks
    /// for: a fetch read and delivered in the barrier phase.
    BarrierDelivery,
}

const BOOMS: [Boom; 4] = [
    Boom::Run,
    Boom::OnVertex,
    Boom::OnMessage,
    Boom::BarrierDelivery,
];

/// Flood fill by messages: every callback kind runs on every vertex
/// that has an edge each way, the victim among them. Only the victim's
/// message handler fetches, and only when its delivery is to panic.
struct Flood {
    boom: Boom,
    victim: VertexId,
}

impl Flood {
    fn maybe_panic(&self, here: Boom, v: VertexId) {
        if v == self.victim && here as u8 == self.boom as u8 {
            panic!("boom in {here:?} at {v}");
        }
    }

    fn text(&self) -> String {
        format!("boom in {:?} at {}", self.boom, self.victim)
    }
}

impl VertexProgram for Flood {
    type State = bool;
    type Msg = ();

    fn run(&self, v: VertexId, seen: &mut bool, ctx: &mut VertexContext<'_, ()>) {
        self.maybe_panic(Boom::Run, v);
        if !*seen {
            *seen = true;
            ctx.request(v, Request::edges(EdgeDir::Out));
        }
    }

    fn run_on_vertex(
        &self,
        v: VertexId,
        _seen: &mut bool,
        vertex: &PageVertex<'_>,
        ctx: &mut VertexContext<'_, ()>,
    ) {
        if vertex.dir() == EdgeDir::In {
            // Only a message handler asks for an in-list.
            self.maybe_panic(Boom::BarrierDelivery, v);
            return;
        }
        self.maybe_panic(Boom::OnVertex, v);
        for dst in vertex.edges() {
            ctx.send(dst, ());
        }
    }

    fn run_on_message(
        &self,
        v: VertexId,
        seen: &mut bool,
        _m: &(),
        ctx: &mut VertexContext<'_, ()>,
    ) {
        self.maybe_panic(Boom::OnMessage, v);
        if matches!(self.boom, Boom::BarrierDelivery) && v == self.victim {
            ctx.request(v, Request::edges(EdgeDir::In));
        }
        if !*seen {
            ctx.activate(v);
        }
    }
}

/// A vertex with an edge each way, so all three callbacks reach it in
/// an `Init::All` run.
fn victim(g: &Graph) -> VertexId {
    (0..g.num_vertices())
        .map(VertexId::from_index)
        .find(|&v| g.csr(EdgeDir::Out).degree(v) > 0 && g.csr(EdgeDir::In).degree(v) > 0)
        .expect("an R-MAT graph has such a vertex")
}

fn mount(g: &Graph) -> (Safs, GraphIndex) {
    let array = SsdArray::new_mem(ArrayConfig::small_test(), required_capacity(g)).unwrap();
    write_image(g, &array).unwrap();
    let (_, index) = load_index(&array).unwrap();
    let safs = Safs::new(SafsConfig::default().with_cache_bytes(16 * 4096), array).unwrap();
    (safs, index)
}

fn two_shards(g: &Graph) -> (ShardSet, fg_format::ShardedIndex) {
    let fx = build_shard_fixture(
        g,
        0.25,
        SafsConfig::default(),
        ArrayConfig::small_test(),
        &WriteOptions::default(),
        2,
    )
    .unwrap();
    (fx.set, fx.index)
}

/// The panicking run errors with the panic's text, and the engine's
/// backend then serves a BFS that matches the oracle.
fn assert_fails_then_recovers(what: &str, engine: &Engine<'_>, g: &Graph, boom: Boom) {
    let program = Flood {
        boom,
        victim: victim(g),
    };
    match engine.run(&program, Init::All) {
        Err(FgError::WorkerPanicked(msg)) => {
            assert!(msg.contains(&program.text()), "{what}: message {msg:?}");
        }
        Ok(_) => panic!("{what}: the run completed"),
        Err(e) => panic!("{what}: expected WorkerPanicked, got {e:?}"),
    }
    let root = traversal_root(g);
    let (levels, _) = fg_apps::bfs(engine, root).unwrap();
    assert_eq!(
        levels,
        fg_baselines::direct::bfs_levels(g, root),
        "{what}: BFS after the panic"
    );
}

#[test]
fn in_memory_run_fails_instead_of_hanging() {
    matrix("mem", |what, g, boom, cfg| {
        assert_fails_then_recovers(what, &Engine::new_mem(g, cfg), g, boom);
    });
}

#[test]
fn one_mount_run_fails_and_the_mount_serves_on() {
    matrix("one mount", |what, g, boom, cfg| {
        let (safs, index) = mount(g);
        assert_fails_then_recovers(what, &Engine::new_sem(&safs, index, cfg), g, boom);
    });
}

#[test]
fn two_shard_run_fails_on_every_shard_and_the_set_serves_on() {
    matrix("2 shards", |what, g, boom, cfg| {
        let (set, index) = two_shards(g);
        assert_fails_then_recovers(what, &Engine::new(&set, index, cfg), g, boom);
    });
}

/// The service books the panicked query like a cancelled one — slot
/// held and released — and answers the next one oracle-identically.
fn assert_service_recovers(what: &str, svc: GraphService, g: &Graph, boom: Boom) {
    let program = Flood {
        boom,
        victim: victim(g),
    };
    let out = svc.run_opts(&program, Init::All, QueryOpts::new());
    assert!(
        matches!(&out, Err(FgError::WorkerPanicked(m)) if m.contains(&program.text())),
        "{what}: got {:?}",
        out.map(|(_, stats)| stats)
    );
    let snap = svc.stats();
    assert_eq!((svc.inflight(), svc.queued()), (0, 0), "{what}");
    assert_eq!(snap.completed, snap.admitted, "{what}");
    // With one slot, a leaked permit would park this.
    let root = traversal_root(g);
    let (levels, _) = svc
        .query_opts(QueryOpts::new(), |e| fg_apps::bfs(e, root))
        .unwrap()
        .unwrap();
    assert_eq!(
        levels,
        fg_baselines::direct::bfs_levels(g, root),
        "{what}: BFS after the panic"
    );
}

fn one_slot(cfg: EngineConfig) -> ServiceConfig {
    ServiceConfig::default()
        .with_max_inflight(1)
        .with_engine(cfg)
}

#[test]
fn a_service_releases_the_slot_of_a_panicked_query() {
    matrix("service/one mount", |what, g, boom, cfg| {
        let (safs, index) = mount(g);
        let svc = GraphService::new(safs, index, one_slot(cfg));
        assert_service_recovers(what, svc, g, boom);
    });
    matrix("service/2 shards", |what, g, boom, cfg| {
        let (set, index) = two_shards(g);
        let svc = GraphService::new_sharded(set, index, one_slot(cfg));
        assert_service_recovers(what, svc, g, boom);
    });
}
