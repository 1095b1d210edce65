//! Sharded execution: one run body per vertex-range shard, in lockstep.
//!
//! A sharded image (see `fg_format::write_sharded_image`) splits the
//! vertex range into k contiguous shards, each a complete image on
//! its own array. An [`Engine`] over k mounts ([`Engine::new`];
//! [`ShardedEngine`] names the same type) runs one shard per mount —
//! each with its own page cache and I/O threads — so k arrays stream
//! concurrently and the run sustains their *aggregate* device
//! bandwidth. A single mount is the k = 1 case: [`Engine::run_detailed`]
//! runs its only shard on the calling thread, with no bus, no group
//! and no extra thread, and comes here only when there are peers.
//!
//! The shards of a k > 1 run cooperate through exactly two mechanisms:
//!
//! * the [`ShardBus`](crate::messages): messages/activations whose
//!   destination vertex lives on a foreign shard buffer in per-worker
//!   outboxes and travel as batched packets, drained by the owner at
//!   the same iteration boundary a local send would reach;
//! * a [`Rendezvous`] of k (`rendezvous.rs`): the barrier worker 0 of
//!   every shard meets at twice per iteration — once after compute (so all of
//!   the iteration's packets are on the bus before anyone drains)
//!   and once at the termination check, where the per-shard "quiet"
//!   flags AND-reduce so every shard stops on the same iteration.
//!   The workers *inside* one shard meet at the same type (a
//!   [`Rendezvous`] of `nthreads`, see `Engine::run_shard`), so one
//!   poisoned state covers both levels: a panicking callback fails
//!   every waiter of its run instead of leaving them parked.
//!
//! Vertex *state* is never transferred: all shards run against one
//! global [`SharedStates`], sound because each vertex's callbacks run
//! only on its owning shard — the same exclusivity discipline the
//! busy bitmap enforces inside one shard, extended across them.
//! Foreign *edge lists* (TC-style neighbour reads) are served by a
//! synchronous read of the owner's mount, routed by the
//! [`ShardedIndex`](fg_format::ShardedIndex).

use std::any::Any;
use std::thread::ScopedJoinHandle;

use fg_types::FgError;

use crate::engine::{Engine, Init};
use crate::messages::ShardBus;
use crate::program::VertexProgram;
use crate::rendezvous::{PeerPanicked, PoisonGuard, Rendezvous};
use crate::state::SharedStates;
use crate::stats::RunStats;

/// Joins every thread of a scope explicitly — a scope left to join on
/// its own re-panics — and returns their results in spawn order, or
/// the panic that started the failure: the first payload that is not
/// a [`PeerPanicked`] echo of it.
pub(crate) fn join_all<T>(handles: Vec<ScopedJoinHandle<'_, T>>) -> std::thread::Result<Vec<T>> {
    let mut out = Vec::with_capacity(handles.len());
    let mut cause: Option<Box<dyn Any + Send>> = None;
    for h in handles {
        match h.join() {
            Ok(v) => out.push(v),
            Err(p) if cause.as_ref().is_none_or(|c| c.is::<PeerPanicked>()) => cause = Some(p),
            Err(_) => {}
        }
    }
    match cause {
        None => Ok(out),
        Some(p) => Err(p),
    }
}

/// The error a run reports for a panic that [`join_all`] caught: the
/// payload's message when it is the `&str` / `String` of a `panic!`.
pub(crate) fn worker_panicked(p: Box<dyn Any + Send>) -> FgError {
    let msg = p
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_owned());
    FgError::WorkerPanicked(msg)
}

/// What a shard needs to reach its peers: the message bus and the
/// cross-shard barrier. Handed into [`Engine::run_shard`] by
/// [`run_shards`]; `None` for runs without peers.
pub(crate) struct ShardLink<'a, M> {
    pub bus: &'a ShardBus<M>,
    pub group: &'a Rendezvous,
}

/// An [`Engine`] over one mount per shard of a sharded image — the
/// scale-out configuration, built with [`Engine::new`] /
/// [`Engine::new_shared`]. Results are bit-identical to an engine over
/// the unsharded image, and a 1-shard set reproduces it exactly.
pub type ShardedEngine<'g> = Engine<'g>;

/// The k > 1 driver: one thread per shard of `engine`, each running
/// [`Engine::run_shard`] against the shared `states` with a link to
/// its peers; returns every shard's stats, in shard order, or the
/// panic that ended the run. The caller has validated seeds and
/// state-vector length — a shard that errored out before its first
/// rendezvous would leave its peers waiting forever — and surfaces
/// cancellation and panics only after this returns, when every shard
/// thread has joined.
pub(crate) fn run_shards<P: VertexProgram>(
    engine: &Engine<'_>,
    program: &P,
    init: &Init,
    states: &SharedStates<P::State>,
) -> std::thread::Result<Vec<RunStats>> {
    let shards = engine.num_shards();
    let bus: ShardBus<P::Msg> = ShardBus::new(shards);
    let group = Rendezvous::new(shards);

    let per_shard = std::thread::scope(|scope| {
        let handles = (0..shards)
            .map(|s| {
                let (bus, group) = (&bus, &group);
                scope.spawn(move || {
                    let _guard = PoisonGuard(group);
                    let link = ShardLink { bus, group };
                    // A shard whose workers died unwinds here too, so
                    // the guard fails the peers waiting on it.
                    engine
                        .run_shard(program, init, states, s, Some(&link))
                        .unwrap_or_else(|p| std::panic::resume_unwind(p))
                })
            })
            .collect();
        join_all(handles)
    })?;

    debug_assert_eq!(bus.pending(), 0, "bus drained at termination");
    debug_assert_eq!(
        per_shard.iter().map(|s| s.shard_msg_bytes).sum::<u64>(),
        bus.bytes_sent(),
        "per-shard byte accounting covers exactly the bus traffic"
    );
    Ok(per_shard)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use fg_format::ShardedIndex;
    use fg_safs::ShardSet;
    use fg_ssdsim::ArrayConfig;
    use fg_types::VertexId;

    #[test]
    fn join_all_reports_the_panic_that_started_it() {
        // Echoes on either side of the cause, in join order.
        let out = std::thread::scope(|scope| {
            let echo = || std::panic::resume_unwind(Box::new(PeerPanicked));
            join_all(vec![
                scope.spawn(echo),
                scope.spawn(|| panic!("the cause")),
                scope.spawn(echo),
                scope.spawn(|| {}),
            ])
        });
        let err = worker_panicked(out.unwrap_err());
        assert!(matches!(err, FgError::WorkerPanicked(m) if m == "the cause"));
    }

    fn sharded_fixture(
        g: &fg_graph::Graph,
        shards: usize,
        array: ArrayConfig,
    ) -> (ShardSet, ShardedIndex) {
        use fg_format::{required_shard_capacities, write_sharded_image, WriteOptions};
        let opts = WriteOptions::default();
        let arrays: Vec<fg_ssdsim::SsdArray> = required_shard_capacities(g, &opts, shards)
            .into_iter()
            .map(|cap| fg_ssdsim::SsdArray::new_mem(array, cap.max(4096)).unwrap())
            .collect();
        write_sharded_image(g, &arrays, &opts).unwrap();
        let (_, index) = ShardedIndex::load(&arrays).unwrap();
        let set = ShardSet::new(fg_safs::SafsConfig::default(), arrays).unwrap();
        (set, index)
    }

    /// Min-label propagation over out-edges: messages, activations,
    /// and edge-list requests all in one program, so a sharded run
    /// exercises every bus packet kind.
    struct MinLabel;

    #[derive(Clone)]
    struct MlState {
        label: u32,
        pushed: u32,
    }

    impl Default for MlState {
        fn default() -> Self {
            MlState {
                label: u32::MAX,
                pushed: u32::MAX,
            }
        }
    }

    impl VertexProgram for MinLabel {
        type State = MlState;
        type Msg = u32;

        fn init_state(&self, v: VertexId) -> MlState {
            MlState {
                label: v.0,
                pushed: u32::MAX,
            }
        }

        fn run(
            &self,
            v: VertexId,
            state: &mut MlState,
            ctx: &mut crate::context::VertexContext<'_, u32>,
        ) {
            if state.label < state.pushed {
                state.pushed = state.label;
                ctx.request(v, crate::context::Request::edges(fg_types::EdgeDir::Out));
            }
        }

        fn run_on_vertex(
            &self,
            _v: VertexId,
            state: &mut MlState,
            vertex: &crate::vertex::PageVertex<'_>,
            ctx: &mut crate::context::VertexContext<'_, u32>,
        ) {
            for dst in vertex.edges() {
                ctx.send(dst, state.label);
            }
        }

        fn run_on_message(
            &self,
            v: VertexId,
            state: &mut MlState,
            msg: &u32,
            ctx: &mut crate::context::VertexContext<'_, u32>,
        ) {
            if *msg < state.label {
                state.label = *msg;
                ctx.activate(v);
            }
        }
    }

    #[test]
    fn sharded_label_propagation_matches_single_engine() {
        let g = fg_graph::gen::rmat(7, 4, fg_graph::gen::RmatSkew::default(), 9);
        let cfg = EngineConfig::small();
        let mem = Engine::new_mem(&g, cfg);
        let (mem_states, mem_stats) = mem.run(&MinLabel, Init::All).unwrap();
        let mem_labels: Vec<u32> = mem_states.iter().map(|s| s.label).collect();
        for shards in [1usize, 2, 3] {
            let (set, index) = sharded_fixture(&g, shards, ArrayConfig::small_test());
            let engine = ShardedEngine::new(&set, index, cfg);
            let (states, stats) = engine.run(&MinLabel, Init::All).unwrap();
            let labels: Vec<u32> = states.iter().map(|s| s.label).collect();
            assert_eq!(labels, mem_labels, "{shards}-shard labels");
            assert_eq!(
                stats.iterations, mem_stats.iterations,
                "{shards}-shard iters"
            );
            assert_eq!(
                stats.edges_delivered, mem_stats.edges_delivered,
                "{shards}-shard edges"
            );
            assert_eq!(
                stats.messages_sent, mem_stats.messages_sent,
                "{shards}-shard messages"
            );
            if shards == 1 {
                assert_eq!(stats.shard_msg_bytes, 0, "no peers, no bus traffic");
            } else {
                assert!(stats.shard_msg_bytes > 0, "cross-shard run must message");
            }
        }
    }

    #[test]
    fn per_shard_stats_sum_to_total() {
        let g = fg_graph::gen::rmat(6, 5, fg_graph::gen::RmatSkew::default(), 3);
        let (set, index) = sharded_fixture(&g, 3, ArrayConfig::small_test());
        let engine = ShardedEngine::new(&set, index, EngineConfig::small());
        let states = g.vertices().map(|v| MinLabel.init_state(v)).collect();
        let (_, total, per_shard) = engine.run_detailed(&MinLabel, Init::All, states).unwrap();
        assert_eq!(per_shard.len(), 3);
        // Summed field by field here, not by `RunStats::absorb`, which
        // is what built `total`.
        type Field = fn(&RunStats) -> u64;
        let fields: [(&str, Field); 5] = [
            ("vertices", |s| s.vertices_processed),
            ("edges", |s| s.edges_delivered),
            ("requested bytes", |s| s.bytes_requested),
            ("messages", |s| s.messages_sent),
            ("bus bytes", |s| s.shard_msg_bytes),
        ];
        for (name, field) in fields {
            let sum: u64 = per_shard.iter().map(field).sum();
            assert_eq!(sum, field(&total), "{name}: per-shard sum != total");
        }
        assert!(total.messages_sent > 0 && total.shard_msg_bytes > 0);
    }

    #[test]
    fn four_one_drive_shards_outread_one() {
        // Each shard brings its own drive, so the run sustains their
        // aggregate read bandwidth: bytes read over the busiest
        // drive's busy time, both booked in the simulator's virtual
        // time — no wall clock involved.
        let g = fg_graph::gen::rmat(10, 8, fg_graph::gen::RmatSkew::default(), 0x5A4D);
        let one_drive = ArrayConfig {
            num_ssds: 1,
            ..ArrayConfig::paper_array()
        };
        let bandwidth = |shards| {
            let (set, index) = sharded_fixture(&g, shards, one_drive);
            let engine = ShardedEngine::new(&set, index, EngineConfig::small());
            engine.run(&MinLabel, Init::All).unwrap();
            let io = set.io_stats();
            io.bytes_read as f64 / io.max_busy_ns as f64
        };
        let (one, four) = (bandwidth(1), bandwidth(4));
        assert!(
            four > one,
            "4 shards read {four:.3} B/ns aggregate, 1 shard {one:.3} B/ns"
        );
    }
}
