//! Property tests for the serving layer's cancellation paths: for
//! arbitrary random graphs and cancellation points, a tenant whose
//! [`CancelToken`] fires — mid-run, in the admission queue, or before
//! it ever queues — must error with the matching cause, release its
//! admission slot, and leave every *surviving* tenant's answer
//! bit-identical to a solo run. The same properties run against a
//! sharded service, where cancellation additionally has to clear the
//! cross-shard rendezvous without wedging peer shards.
//!
//! CI's release stress step drives this suite at `PROPTEST_CASES=256`
//! alongside `concurrent_queries`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use fg_bench::build_shard_fixture;
use fg_format::{load_index, required_capacity_with, write_image_with, WriteOptions};
use fg_graph::{Graph, GraphBuilder};
use fg_safs::{Safs, SafsConfig};
use fg_ssdsim::{ArrayConfig, SsdArray};
use fg_types::{EdgeDir, FgError, VertexId};
use flashgraph::{
    CancelToken, Engine, EngineConfig, GraphService, Init, PageVertex, QueryOpts, Request,
    ServiceConfig, VertexContext, VertexProgram,
};
use proptest::prelude::*;

fn graph_strategy() -> impl Strategy<Value = (Vec<(u32, u32)>, u32)> {
    (
        prop::collection::vec((0u32..100, 0u32..100), 1..250),
        0u32..100,
    )
}

fn build_graph(edges: &[(u32, u32)]) -> Graph {
    let mut b = GraphBuilder::directed();
    for &(s, d) in edges {
        b.add_edge(VertexId(s), VertexId(d));
    }
    b.build()
}

/// Either image format, drawn like any other input.
fn image_format() -> impl Strategy<Value = WriteOptions> {
    prop_oneof![
        Just(WriteOptions::default()),
        Just(WriteOptions::compressed())
    ]
}

/// A fresh single-mount service over the image of `g` `opts` selects —
/// cold cache, cold counters.
fn fresh_service(g: &Graph, opts: &WriteOptions, max_inflight: usize) -> GraphService {
    let array =
        SsdArray::new_mem(ArrayConfig::small_test(), required_capacity_with(g, opts)).unwrap();
    write_image_with(g, &array, opts).unwrap();
    let (_, index) = load_index(&array).unwrap();
    let safs = Safs::new(SafsConfig::default().with_cache_bytes(16 * 4096), array).unwrap();
    safs.reset_stats();
    let cfg = ServiceConfig::default()
        .with_max_inflight(max_inflight)
        .with_engine(EngineConfig::small());
    GraphService::new(safs, index, cfg)
}

/// A fresh sharded service: one mount per shard, shared bus.
fn fresh_sharded_service(
    g: &Graph,
    opts: &WriteOptions,
    shards: usize,
    max_inflight: usize,
) -> GraphService {
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
        .with_max_inflight(max_inflight)
        .with_engine(EngineConfig::small());
    GraphService::new_sharded(fx.set, fx.index, cfg)
}

/// Frontier BFS recording discovery levels — deterministic per
/// iteration, so a surviving tenant's states admit exact comparison
/// against a solo in-memory run.
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

/// The same BFS, but it fires its own [`CancelToken`] once the run
/// reaches iteration `at` — modelling a client that gives up mid-run.
/// The engine notices at the next iteration boundary.
struct CancelAtBfs {
    token: CancelToken,
    at: u32,
}

impl VertexProgram for CancelAtBfs {
    type State = LState;
    type Msg = ();
    fn run(&self, v: VertexId, state: &mut LState, ctx: &mut VertexContext<'_, ()>) {
        if ctx.iteration() >= self.at {
            self.token.cancel();
        }
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

/// Runs `victims` self-cancelling tenants concurrently with
/// `survivors` plain tenants on `svc` and returns how many victims
/// actually errored (a victim whose BFS converges before its cancel
/// point legitimately succeeds).
fn mixed_cancellation_run(
    svc: &Arc<GraphService>,
    root: VertexId,
    want: &[LState],
    victims: usize,
    survivors: usize,
    cancel_at: u32,
) -> Result<u64, TestCaseError> {
    let mut observed_cancelled = 0u64;
    std::thread::scope(|s| -> Result<(), TestCaseError> {
        let mut victim_handles = Vec::new();
        let mut survivor_handles = Vec::new();
        for _ in 0..victims {
            let svc = Arc::clone(svc);
            victim_handles.push(s.spawn(move || {
                let token = CancelToken::new();
                let program = CancelAtBfs {
                    token: token.clone(),
                    at: cancel_at,
                };
                svc.run_opts(
                    &program,
                    Init::Seeds(vec![root]),
                    QueryOpts::new().with_tenant("victim").with_cancel(token),
                )
            }));
        }
        for _ in 0..survivors {
            let svc = Arc::clone(svc);
            survivor_handles.push(s.spawn(move || {
                svc.run_opts(
                    &LevelBfs,
                    Init::Seeds(vec![root]),
                    QueryOpts::new().with_tenant("survivor"),
                )
            }));
        }
        for h in victim_handles {
            match h.join().unwrap() {
                // Converged before the cancel point fired; must still
                // be exact.
                Ok((states, _)) => prop_assert_eq!(&states, want),
                Err(FgError::Cancelled) => observed_cancelled += 1,
                Err(e) => prop_assert!(false, "victim failed with a non-cancel error: {e}"),
            }
        }
        for h in survivor_handles {
            let (states, _) = h.join().unwrap().expect("survivor must not be cancelled");
            // A peer's cancellation must not corrupt a survivor.
            prop_assert_eq!(&states, want);
        }
        Ok(())
    })?;
    Ok(observed_cancelled)
}

/// Every-path stats audit shared by the properties below.
fn audit_quiesced(svc: &GraphService) -> Result<(), TestCaseError> {
    prop_assert!(svc.inflight() == 0, "a slot leaked");
    prop_assert!(svc.queued() == 0, "a waiter is stranded in the queue");
    let stats = svc.stats();
    prop_assert!(
        stats.admitted == stats.completed,
        "an admitted query never released its slot ({} vs {})",
        stats.admitted,
        stats.completed
    );
    let cache = svc.cache_stats();
    prop_assert!(
        cache.hits + cache.misses == cache.lookups,
        "cancellation unbalanced the shared cache books"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Mid-run cancellation on a single shared mount: victims error
    /// with `Cancelled`, free their slots, and survivors running
    /// concurrently stay bit-identical to a solo in-memory run.
    #[test]
    fn cancelled_tenants_never_corrupt_survivors(
        (edges, seed) in graph_strategy(),
        cancel_at in 0u32..3,
        victims in 1usize..3,
        opts in image_format(),
    ) {
        let g = build_graph(&edges);
        let root = VertexId(seed % g.num_vertices().max(1) as u32);
        let mem = Engine::new_mem(&g, EngineConfig::small());
        let (want, _) = mem.run(&LevelBfs, Init::Seeds(vec![root])).unwrap();

        let survivors = 2usize;
        let svc = Arc::new(fresh_service(&g, &opts, victims + survivors));
        let cancelled =
            mixed_cancellation_run(&svc, root, &want, victims, survivors, cancel_at)?;
        // The cancelled counter must match the observed errors.
        prop_assert_eq!(svc.stats().cancelled, cancelled);
        audit_quiesced(&svc)?;
    }

    /// The same mid-run cancellation against a sharded service: the
    /// token fires on one shard, the rendezvous AND-votes it across
    /// the group, and no peer shard blocks on the dead run.
    #[test]
    fn sharded_cancellation_clears_the_rendezvous(
        (edges, seed) in graph_strategy(),
        cancel_at in 0u32..3,
        shards in 2usize..4,
        opts in image_format(),
    ) {
        let g = build_graph(&edges);
        let root = VertexId(seed % g.num_vertices().max(1) as u32);
        let mem = Engine::new_mem(&g, EngineConfig::small());
        let (want, _) = mem.run(&LevelBfs, Init::Seeds(vec![root])).unwrap();

        let svc = Arc::new(fresh_sharded_service(&g, &opts, shards, 3));
        let cancelled = mixed_cancellation_run(&svc, root, &want, 1, 2, cancel_at)?;
        prop_assert_eq!(svc.stats().cancelled, cancelled);
        audit_quiesced(&svc)?;
    }

    /// Deadline admission: a query arriving with an already-expired
    /// deadline is refused before it queues (booked as
    /// `deadline_expired`, never admitted); a generous deadline
    /// changes nothing about the answer.
    #[test]
    fn expired_deadlines_refuse_fresh_ones_run(
        (edges, seed) in graph_strategy(),
        expired in 1usize..3,
        opts in image_format(),
    ) {
        let g = build_graph(&edges);
        let root = VertexId(seed % g.num_vertices().max(1) as u32);
        let mem = Engine::new_mem(&g, EngineConfig::small());
        let (want, _) = mem.run(&LevelBfs, Init::Seeds(vec![root])).unwrap();

        let svc = fresh_service(&g, &opts, 4);
        for _ in 0..expired {
            let r = svc.run_opts(
                &LevelBfs,
                Init::Seeds(vec![root]),
                QueryOpts::new().with_deadline(Instant::now() - Duration::from_millis(1)),
            );
            prop_assert!(matches!(r, Err(FgError::DeadlineExpired)));
        }
        let before = svc.stats();
        prop_assert_eq!(before.deadline_expired, expired as u64);
        prop_assert!(before.admitted == 0, "an expired query was admitted");

        let (states, _) = svc
            .run_opts(
                &LevelBfs,
                Init::Seeds(vec![root]),
                QueryOpts::new().with_deadline(Instant::now() + Duration::from_secs(3600)),
            )
            .expect("a generous deadline must not fire");
        prop_assert_eq!(&states, &want);
        audit_quiesced(&svc)?;
    }
}
