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
//! * a [`ShardGroup`]: a tiny rendezvous barrier worker 0 of every
//!   shard meets at twice per iteration — once after compute (so all
//!   of the iteration's packets are on the bus before anyone drains)
//!   and once at the termination check, where the per-shard "quiet"
//!   flags AND-reduce so every shard stops on the same iteration.
//!
//! Vertex *state* is never transferred: all shards run against one
//! global [`SharedStates`], sound because each vertex's callbacks run
//! only on its owning shard — the same exclusivity discipline the
//! busy bitmap enforces inside one shard, extended across them.
//! Foreign *edge lists* (TC-style neighbour reads) are served by a
//! synchronous read of the owner's mount, routed by the
//! [`ShardedIndex`](fg_format::ShardedIndex).

use std::sync::{Condvar, Mutex};

use crate::engine::{Engine, Init};
use crate::messages::ShardBus;
use crate::program::VertexProgram;
use crate::state::SharedStates;
use crate::stats::RunStats;

/// The rendezvous barrier of a sharded run: worker 0 of every shard
/// meets here at the two cross-shard sync points of an iteration.
/// Vote rounds AND-reduce a per-shard flag (the termination check);
/// plain rendezvous rounds are votes whose result nobody reads.
///
/// A thread panic on any shard poisons the group (via [`run_shards`]'
/// guard), and every waiter panics instead of deadlocking on a peer
/// that will never arrive.
///
/// Model-checked as `fg_check`'s `rendezvous` model: waiting on the
/// *generation* (not the `arrived` counter, which the next round
/// reuses) and notifying on poison are both load-bearing — the seeded
/// `ArrivedPredicate` and `PoisonNoNotify` mutations each deadlock.
/// See `crates/check` and `tests/check_models.rs`.
pub(crate) struct ShardGroup {
    shards: usize,
    state: Mutex<GroupState>,
    cv: Condvar,
}

struct GroupState {
    arrived: usize,
    generation: u64,
    /// AND-accumulator of the in-progress round.
    acc: bool,
    /// Result of the last completed round.
    result: bool,
    poisoned: bool,
}

impl ShardGroup {
    pub(crate) fn new(shards: usize) -> Self {
        assert!(shards > 0);
        ShardGroup {
            shards,
            state: Mutex::new(GroupState {
                arrived: 0,
                generation: 0,
                acc: true,
                result: true,
                poisoned: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Blocks until every shard arrives. Rounds are totally ordered:
    /// all shards execute the same sequence of sync points, so one
    /// generation counter serves rendezvous and vote rounds alike.
    pub(crate) fn rendezvous(&self) {
        self.vote(true);
    }

    /// Contributes `flag` to this round's AND-reduction and blocks
    /// until every shard has; returns the reduction.
    pub(crate) fn vote(&self, flag: bool) -> bool {
        // Lock poisoning is folded into the group's own flag: a peer
        // that panicked mid-round is exactly the "peer shard
        // panicked" case, and `poison` must still work during unwind.
        let mut g = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        assert!(!g.poisoned, "peer shard panicked");
        g.acc &= flag;
        g.arrived += 1;
        if g.arrived == self.shards {
            g.arrived = 0;
            g.result = g.acc;
            g.acc = true;
            g.generation = g.generation.wrapping_add(1);
            self.cv.notify_all();
            g.result
        } else {
            let gen = g.generation;
            while g.generation == gen && !g.poisoned {
                g = self
                    .cv
                    .wait(g)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            assert!(!g.poisoned, "peer shard panicked");
            g.result
        }
    }

    /// Marks the group dead and wakes every waiter (who then panic).
    fn poison(&self) {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .poisoned = true;
        self.cv.notify_all();
    }
}

/// Poisons the group if its shard's thread unwinds, so peers blocked
/// in a rendezvous fail fast instead of waiting forever.
struct PoisonGuard<'a>(&'a ShardGroup);

impl Drop for PoisonGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

/// What a shard needs to reach its peers: the message bus and the
/// rendezvous group. Handed into [`Engine::run_shard`] by
/// [`run_shards`]; `None` for runs without peers.
pub(crate) struct ShardLink<'a, M> {
    pub bus: &'a ShardBus<M>,
    pub group: &'a ShardGroup,
}

/// An [`Engine`] over one mount per shard of a sharded image — the
/// scale-out configuration, built with [`Engine::new`] /
/// [`Engine::new_shared`]. Results are bit-identical to an engine over
/// the unsharded image, and a 1-shard set reproduces it exactly.
pub type ShardedEngine<'g> = Engine<'g>;

/// The k > 1 driver: one thread per shard of `engine`, each running
/// [`Engine::run_shard`] against the shared `states` with a link to
/// its peers; returns every shard's stats, in shard order. The caller
/// has validated seeds and state-vector length — a shard that errored
/// out before its first rendezvous would leave its peers waiting
/// forever — and surfaces cancellation only after this returns, when
/// every shard thread has joined.
pub(crate) fn run_shards<P: VertexProgram>(
    engine: &Engine<'_>,
    program: &P,
    init: &Init,
    states: &SharedStates<P::State>,
) -> Vec<RunStats> {
    let shards = engine.num_shards();
    let bus: ShardBus<P::Msg> = ShardBus::new(shards);
    let group = ShardGroup::new(shards);
    let per_shard: Mutex<Vec<Option<RunStats>>> = Mutex::new(vec![None; shards]);

    std::thread::scope(|scope| {
        for s in 0..shards {
            let (bus, group, per_shard) = (&bus, &group, &per_shard);
            scope.spawn(move || {
                let _guard = PoisonGuard(group);
                let link = ShardLink { bus, group };
                let stats = engine.run_shard(program, init, states, s, Some(&link));
                per_shard.lock().unwrap()[s] = Some(stats);
            });
        }
    });

    let per_shard: Vec<RunStats> = per_shard
        .into_inner()
        .unwrap()
        .into_iter()
        .map(|s| s.expect("every shard reports"))
        .collect();
    debug_assert_eq!(bus.pending(), 0, "bus drained at termination");
    debug_assert_eq!(
        per_shard.iter().map(|s| s.shard_msg_bytes).sum::<u64>(),
        bus.bytes_sent(),
        "per-shard byte accounting covers exactly the bus traffic"
    );
    per_shard
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use fg_format::ShardedIndex;
    use fg_safs::ShardSet;
    use fg_types::VertexId;
    use std::sync::Arc;

    #[test]
    fn group_rendezvous_releases_all() {
        let g = Arc::new(ShardGroup::new(3));
        let mut handles = Vec::new();
        for _ in 0..3 {
            let g = Arc::clone(&g);
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    g.rendezvous();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn vote_is_an_and_reduction() {
        let g = Arc::new(ShardGroup::new(2));
        let g2 = Arc::clone(&g);
        let t = std::thread::spawn(move || {
            let r1 = g2.vote(true);
            let r2 = g2.vote(true);
            let r3 = g2.vote(false);
            (r1, r2, r3)
        });
        let r1 = g.vote(false);
        let r2 = g.vote(true);
        let r3 = g.vote(true);
        let (o1, o2, o3) = t.join().unwrap();
        assert_eq!((r1, r2, r3), (false, true, false));
        assert_eq!((o1, o2, o3), (false, true, false));
    }

    #[test]
    fn poisoned_group_panics_waiters() {
        let g = Arc::new(ShardGroup::new(2));
        let g2 = Arc::clone(&g);
        let waiter = std::thread::spawn(move || g2.rendezvous());
        // Give the waiter time to block, then poison.
        std::thread::sleep(std::time::Duration::from_millis(20));
        g.poison();
        assert!(waiter.join().is_err(), "waiter must panic, not hang");
    }

    fn sharded_fixture(g: &fg_graph::Graph, shards: usize) -> (ShardSet, ShardedIndex) {
        use fg_format::{required_shard_capacities, write_sharded_image, WriteOptions};
        let opts = WriteOptions::default();
        let arrays: Vec<fg_ssdsim::SsdArray> = required_shard_capacities(g, &opts, shards)
            .into_iter()
            .map(|cap| {
                fg_ssdsim::SsdArray::new_mem(fg_ssdsim::ArrayConfig::small_test(), cap.max(4096))
                    .unwrap()
            })
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
            let (set, index) = sharded_fixture(&g, shards);
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

    /// Touches every active vertex's out-list once, then stops.
    struct TouchAll;

    impl VertexProgram for TouchAll {
        type State = ();
        type Msg = ();

        fn run(
            &self,
            v: VertexId,
            _state: &mut (),
            ctx: &mut crate::context::VertexContext<'_, ()>,
        ) {
            ctx.request(v, crate::context::Request::edges(fg_types::EdgeDir::Out));
        }
    }

    #[test]
    fn per_shard_stats_sum_to_total() {
        let g = fg_graph::gen::rmat(6, 5, fg_graph::gen::RmatSkew::default(), 3);
        let (set, index) = sharded_fixture(&g, 3);
        let engine = ShardedEngine::new(&set, index, EngineConfig::small());
        let n = engine.num_vertices();
        let states = vec![(); n];
        let (_, total, per_shard) = engine.run_detailed(&TouchAll, Init::All, states).unwrap();
        assert_eq!(per_shard.len(), 3);
        let mut sum = per_shard[0].clone();
        for s in &per_shard[1..] {
            sum.absorb(s);
        }
        assert_eq!(sum.vertices_processed, total.vertices_processed);
        assert_eq!(sum.edges_delivered, total.edges_delivered);
        assert_eq!(sum.bytes_requested, total.bytes_requested);
    }
}
