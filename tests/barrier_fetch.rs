//! Edge requests made by barrier-phase handlers. A message handler and
//! an iteration-end callback may request edge lists as `run` and
//! `run_on_vertex` may; each fetch is delivered, owner-only, before its
//! worker runs the next handler. Over a mount such a fetch is read at
//! once — on the worker's own shard through its session, on a peer's
//! from that mount — so every semi-external run must match the
//! in-memory one: on one mount with either image format, on two and
//! three shards, and with a delta view pinned. The scope's cache books
//! and the per-iteration rows must come out exact as well.
//!
//! Beside it, a compute-phase fetch of a foreign subject's weighted
//! list: the attribute half of the same inline read.

use std::sync::Arc;

use fg_bench::build_shard_fixture;
use fg_format::{load_index, required_capacity_with, write_image_with, WriteOptions};
use fg_graph::{gen, DeltaBatch, DeltaLog, DeltaView, Graph};
use fg_safs::{Safs, SafsConfig, ShardSet};
use fg_ssdsim::{ArrayConfig, SsdArray};
use fg_types::{EdgeDir, VertexId};
use flashgraph::{
    Engine, EngineConfig, Init, PageVertex, Request, RunStats, VertexContext, VertexProgram,
};

/// The iterations in which deliveries still send and activate; the
/// run ends a few iterations later.
const SPREAD: u32 = 3;

fn unweighted() -> Graph {
    gen::rmat(8, 6, gen::RmatSkew::default(), 0xBA55)
}

fn weighted() -> Graph {
    gen::with_random_weights(&unweighted(), 8.0, 0xBA56)
}

fn cfg() -> EngineConfig {
    EngineConfig::small().with_threads(4)
}

/// A program whose barrier-phase handlers fetch. Each message makes
/// its receiver request its own out-list, a range of the sender's
/// in-list and an empty range; each iteration-end callback requests
/// its own out-list, with attributes on a weighted graph. `run` asks
/// for the vertex's in-list. Deliveries fold into sums that do not
/// depend on delivery order, and in the first [`SPREAD`] iterations
/// they act on what they got:
///
/// * the vertex's own in-list (`run`'s): messages to two in-neighbours;
/// * its own out-list (a barrier-phase fetch): the vertex activates;
/// * another vertex's in-list (the sender's range): a follow-on request
///   for two entries of its first in-neighbour's out-list, read and
///   delivered in the same barrier phase;
/// * another vertex's out-list (that follow-on): a message to it.
struct BarrierFetch {
    weighted: bool,
}

#[derive(Default, Clone, Debug, PartialEq)]
struct Folded {
    messages: u64,
    deliveries: u64,
    edges: u64,
    /// A wrapping sum over each delivered edge of its id, position,
    /// direction and subject.
    mix: u64,
    /// A wrapping sum of the delivered weights' bit patterns.
    weights: u64,
    /// Edges delivered with their weights.
    weighted: u64,
}

impl VertexProgram for BarrierFetch {
    type State = Folded;
    type Msg = u32;

    fn run(&self, v: VertexId, _s: &mut Folded, ctx: &mut VertexContext<'_, u32>) {
        ctx.request(v, Request::edges(EdgeDir::In));
    }

    fn run_on_vertex(
        &self,
        v: VertexId,
        s: &mut Folded,
        vertex: &PageVertex<'_>,
        ctx: &mut VertexContext<'_, u32>,
    ) {
        let dir = u64::from(vertex.dir() == EdgeDir::Out);
        s.deliveries += 1;
        s.edges += vertex.degree() as u64;
        for (i, e) in vertex.edges().enumerate() {
            let at = vertex.offset() + i as u64 + 1;
            let mixed = ((u64::from(e.0) + 1) * at * (2 + dir)) ^ u64::from(vertex.id().0);
            s.mix = s.mix.wrapping_add(mixed);
        }
        if let Some(weighted) = vertex.weighted_edges() {
            for (_, w) in weighted {
                s.weighted += 1;
                s.weights = s.weights.wrapping_add(u64::from(w.to_bits()));
            }
        }
        if ctx.iteration() >= SPREAD {
            return;
        }
        match (vertex.dir(), vertex.id() == v) {
            (EdgeDir::In, true) => {
                for u in vertex.edges().take(2) {
                    ctx.send(u, v.0);
                }
            }
            (EdgeDir::Out, true) => ctx.activate(v),
            (EdgeDir::In, false) => {
                if let Some(u) = vertex.edges().next() {
                    ctx.request(u, Request::edges(EdgeDir::Out).range(0, 2));
                }
            }
            (_, false) => ctx.send(vertex.id(), v.0),
            (EdgeDir::Both, true) => unreachable!("a delivery has one direction"),
        }
    }

    fn run_on_message(
        &self,
        v: VertexId,
        s: &mut Folded,
        sender: &u32,
        ctx: &mut VertexContext<'_, u32>,
    ) {
        s.messages += 1;
        ctx.request(v, Request::edges(EdgeDir::Out));
        ctx.request(VertexId(*sender), Request::edges(EdgeDir::In).range(1, 3));
        ctx.request(v, Request::edges(EdgeDir::Out).range(0, 0));
        ctx.notify_iteration_end();
    }

    fn run_on_iteration_end(&self, v: VertexId, _s: &mut Folded, ctx: &mut VertexContext<'_, u32>) {
        let own = Request::edges(EdgeDir::Out);
        ctx.request(v, if self.weighted { own.with_attrs() } else { own });
    }
}

fn mount(g: &Graph, opts: &WriteOptions) -> (Safs, fg_format::GraphIndex) {
    let capacity = required_capacity_with(g, opts);
    let array = SsdArray::new_mem(ArrayConfig::small_test(), capacity).unwrap();
    write_image_with(g, &array, opts).unwrap();
    let (_, index) = load_index(&array).unwrap();
    let cache = (capacity / 4).max(16 * 4096);
    let safs = Safs::new(SafsConfig::default().with_cache_bytes(cache), array).unwrap();
    (safs, index)
}

fn shard_set(g: &Graph, shards: usize) -> (ShardSet, fg_format::ShardedIndex) {
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

/// A view that adds an edge to every third vertex's out-list (with a
/// weight on a weighted graph) and removes the first out-edge of every
/// fifth.
fn deltas(g: &Graph) -> Arc<DeltaView> {
    let log = DeltaLog::for_graph(g);
    let mut batch = DeltaBatch::new();
    let n = g.num_vertices() as u32;
    for v in g.vertices() {
        let list = g.out_neighbors(v);
        if v.0 % 3 == 0 {
            let to = VertexId((v.0 * 7 + 1) % n);
            if to != v && !list.contains(&to) {
                match g.has_weights() {
                    true => batch.add_weighted_edge(v, to, 0.5 + (v.0 % 4) as f32),
                    false => batch.add_edge(v, to),
                };
            }
        }
        if v.0 % 5 == 0 {
            if let Some(&first) = list.first() {
                batch.remove_edge(v, first);
            }
        }
    }
    log.apply(g, &batch).unwrap();
    log.current_view()
}

/// The run's per-iteration rows add up to its totals.
fn rows_sum_to_totals(what: &str, stats: &RunStats) {
    let rows = &stats.per_iteration;
    assert_eq!(rows.len(), stats.iterations as usize, "{what}");
    let sum = |f: fn(&flashgraph::IterStats) -> u64| rows.iter().map(f).sum::<u64>();
    assert_eq!(sum(|r| r.edges_delivered), stats.edges_delivered, "{what}");
    assert_eq!(sum(|r| r.bytes_requested), stats.bytes_requested, "{what}");
    assert_eq!(sum(|r| r.issued_requests), stats.issued_requests, "{what}");
    assert_eq!(sum(|r| r.swept_requests), stats.swept_requests, "{what}");
}

/// A one-mount run's device rows add up to its device totals too (a
/// shard's device also serves its peers' reads, which its own rows
/// need not bracket).
fn device_rows_sum_to_totals(what: &str, stats: &RunStats) {
    let rows = &stats.per_iteration;
    let io = stats.io.as_ref().expect("a mount's run reads a device");
    let read_requests: u64 = rows.iter().map(|r| r.read_requests).sum();
    let bytes_read: u64 = rows.iter().map(|r| r.bytes_read).sum();
    assert_eq!(read_requests, io.read_requests, "{what}");
    assert_eq!(bytes_read, io.bytes_read, "{what}");
}

fn assert_matches(what: &str, got: (Vec<Folded>, RunStats), want: &(Vec<Folded>, RunStats)) {
    let (states, stats) = got;
    for (v, (got, want)) in states.iter().zip(&want.0).enumerate() {
        assert_eq!(got, want, "{what}: vertex {v}");
    }
    assert_eq!(stats.edges_delivered, want.1.edges_delivered, "{what}");
    assert_eq!(stats.iterations, want.1.iterations, "{what}");
    rows_sum_to_totals(what, &stats);
}

#[test]
fn barrier_phase_fetches_match_the_in_memory_run() {
    for g in [unweighted(), weighted()] {
        let program = BarrierFetch {
            weighted: g.has_weights(),
        };
        let kind = if g.has_weights() { "weighted" } else { "plain" };
        let want = Engine::new_mem(&g, cfg()).run(&program, Init::All).unwrap();
        // Not vacuous: messages were handled, the run went on past the
        // iterations that spread, and on a weighted graph the
        // iteration-end fetches came back with their weights.
        let total = |f: fn(&Folded) -> u64| want.0.iter().map(f).sum::<u64>();
        assert!(total(|s| s.messages) > g.num_vertices() as u64, "{kind}");
        assert!(want.1.iterations > SPREAD, "{kind}");
        let weighted = total(|s| s.weighted);
        assert_eq!(weighted > 0, g.has_weights(), "{kind}");

        for (format, opts) in [
            ("raw", WriteOptions::default()),
            ("compressed", WriteOptions::compressed()),
        ] {
            let what = format!("{kind}, one mount, {format}");
            let (safs, index) = mount(&g, &opts);
            let got = Engine::new_sem(&safs, index, cfg())
                .run(&program, Init::All)
                .unwrap();
            // The run's scope saw every read of the mount: the session's
            // covers and its barrier-phase reads alike.
            let scoped = got.1.cache.expect("a mount's run has a scope").lookups;
            let mount_wide = got
                .1
                .cache_mount
                .expect("a mount's run has its delta")
                .lookups;
            assert_eq!(scoped, mount_wide, "{what}");
            if format == "raw" {
                // Each edge and weight delivered is four bytes of a raw
                // image, and the bytes of the last barrier phase's
                // reads are in the totals too.
                let bytes = 4 * (got.1.edges_delivered + weighted);
                assert_eq!(got.1.bytes_requested, bytes, "{what}");
            }
            device_rows_sum_to_totals(&what, &got.1);
            assert_matches(&what, got, &want);
        }
        for shards in [2, 3] {
            let what = format!("{kind}, {shards} shards");
            let (set, index) = shard_set(&g, shards);
            let got = Engine::new(&set, index, cfg())
                .run(&program, Init::All)
                .unwrap();
            assert!(got.1.shard_msg_bytes > 0, "{what}: messages cross");
            assert_matches(&what, got, &want);
        }

        let view = deltas(&g);
        let what = format!("{kind}, one mount with deltas");
        let mem = Engine::new_mem(&g, cfg()).with_deltas(Arc::clone(&view));
        let want = mem.run(&program, Init::All).unwrap();
        let (safs, index) = mount(&g, &WriteOptions::default());
        let sem = Engine::new_sem(&safs, index, cfg()).with_deltas(view);
        let got = sem.run(&program, Init::All).unwrap();
        device_rows_sum_to_totals(&what, &got.1);
        assert_matches(&what, got, &want);
    }
}

/// `run` fetches a neighbour's weighted list: iteration 0 reads the
/// vertex's own out-list and keeps its first neighbour, iteration 1
/// asks for that neighbour's out-list with attributes.
struct NeighbourWeights;

#[derive(Default, Clone, Debug, PartialEq)]
struct Neighbour {
    first: Option<VertexId>,
    edges: u64,
    weights: u64,
}

impl VertexProgram for NeighbourWeights {
    type State = Neighbour;
    type Msg = ();

    fn run(&self, v: VertexId, s: &mut Neighbour, ctx: &mut VertexContext<'_, ()>) {
        match s.first {
            None => ctx.request(v, Request::edges(EdgeDir::Out)),
            Some(u) => ctx.request(u, Request::edges(EdgeDir::Out).with_attrs()),
        }
    }

    fn run_on_vertex(
        &self,
        v: VertexId,
        s: &mut Neighbour,
        vertex: &PageVertex<'_>,
        ctx: &mut VertexContext<'_, ()>,
    ) {
        if vertex.id() == v && s.first.is_none() {
            s.first = vertex.edges().next();
            if s.first.is_some() {
                ctx.activate(v);
            }
            return;
        }
        let weighted = vertex.weighted_edges().expect("attrs were requested");
        for (e, w) in weighted {
            s.edges += 1;
            s.weights = s
                .weights
                .wrapping_add(u64::from(w.to_bits()) ^ u64::from(e.0));
        }
    }
}

#[test]
fn a_weighted_foreign_fetch_matches_the_in_memory_run() {
    let g = weighted();
    let (want, _) = Engine::new_mem(&g, cfg())
        .run(&NeighbourWeights, Init::All)
        .unwrap();
    let (set, index) = shard_set(&g, 2);
    // Not vacuous: some first neighbours live on the other shard, and
    // their lists carry weights.
    let crosses = want.iter().enumerate().any(|(v, s)| {
        let owner = index.shard_of(VertexId::from_index(v));
        s.first
            .is_some_and(|u| index.shard_of(u) != owner && s.weights != 0)
    });
    assert!(crosses);
    let (got, _) = Engine::new(&set, index, cfg())
        .run(&NeighbourWeights, Init::All)
        .unwrap();
    for (v, (got, want)) in got.iter().zip(&want).enumerate() {
        assert_eq!(got, want, "vertex {v}");
    }
}
