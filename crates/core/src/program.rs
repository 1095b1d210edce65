//! The vertex-centric programming interface (§3.4, Figure 3).
//!
//! # Figure 3 → API mapping
//!
//! The paper's `graph_engine` / `compute_vertex` interface maps onto
//! this crate as follows:
//!
//! | Paper (Figure 3, §3.4) | This crate |
//! |---|---|
//! | `compute_vertex::run(graph)` | [`VertexProgram::run`] |
//! | `run_on_vertex(graph, vertex)` | [`VertexProgram::run_on_vertex`] with a [`PageVertex`] slice |
//! | `run_on_message(graph, msg)` | [`VertexProgram::run_on_message`] |
//! | `run_on_iteration_end(graph)` | [`VertexProgram::run_on_iteration_end`] |
//! | `request_vertices(ids)` | [`VertexContext::request`] with [`Request::edges`](crate::Request::edges) (any vertex's list, not just the caller's) |
//! | *part of* a vertex (partial edge list) | [`Request::range`](crate::Request::range) — edge positions `[start, start + len)`, one callback per range; a program bounds a callback's working set by asking for a long list in ranges |
//! | edge attributes (separate sections, §3.5.2) | [`Request::with_attrs`](crate::Request::with_attrs) / [`PageVertex::weighted_edges`] |
//! | `send_msg(v, msg)` / multicast (§3.4.1) | [`VertexContext::send`] / [`VertexContext::multicast`] |
//! | vertex activation | [`VertexContext::activate`] |
//! | end-of-iteration registration | [`VertexContext::notify_iteration_end`] — one bit per vertex: registering again in the same iteration changes nothing; the callbacks of a partition run in ascending id order; a registration made inside [`VertexProgram::run_on_iteration_end`] fires at the next iteration's end |
//! | *(extension)* compact external-memory layout (§3.5's motivation, pushed further) | `fg_format::ImageFormat::Compressed` — group-varint edge blocks decoded inside [`PageVertex`]; programs are unaffected: same callbacks, same slices, strictly fewer device bytes per iteration |
//! | *(extension)* pipelined callback scheduling (§3.4's async user tasks, taken to its conclusion) | always on — `run_on_vertex` fires the moment its pages land, possibly on another worker, while later covers are already queued on the device; per-vertex callbacks stay serialized (never concurrent for one vertex), but *order across vertices is not global* — programs must not assume one vertex's deliveries arrive before another vertex's `run` |
//! | *(extension)* sharded execution (scale-out of §3: one engine per image shard) | [`Engine::new`](crate::Engine::new) over a `fg_safs::ShardSet` — programs are unaffected: a vertex's handlers still run exclusively on its owning shard against the shared state vector; sends/multicasts/activations to foreign vertices travel as batched packets over the shard bus and are delivered at the same iteration barrier local ones are, and foreign edge-list requests are served from the owning shard's mount |
//! | *(extension)* cooperative cancellation (serving-layer QoS) | `Engine::with_cancel` / `GraphService::run_opts` with a `fg_types::CancelToken` — programs are unaffected and need no cancellation hooks |
//! | *(extension)* mutable graphs (LSM-style delta ingest) | `GraphService::ingest` + `Engine::with_deltas` — an overlaid vertex's [`PageVertex`] keeps its on-SSD (or CSR) list and beside it an overlay, the vertex's op list borrowed from the query's pinned `DeltaView` (found by a bit test and a popcount), merged on the fly; programs are unaffected: same callbacks, same slices, `edges()`/`weighted_edges()`/`contains()` see the merged list and `edges_delivered` counts merged degrees exactly |
//!
//! # Cancellation semantics
//!
//! Cancellation is *cooperative and iteration-aligned*: the engine
//! polls the query's `CancelToken` only at iteration boundaries
//! (sharded runs fold the token into the same rendezvous vote that
//! decides termination, so every shard stops at the same iteration).
//! A handler that has started always finishes; a cancelled run never
//! interrupts `run`/`run_on_vertex` mid-flight. Consequently the
//! state a cancelled run leaves behind is exactly the state after its
//! last *completed* iteration — messages delivered, activations
//! folded, session I/O drained, admission slot released — and shared
//! structures (page cache, I/O threads, in-flight read table) carry
//! no trace of the dead query. Programs therefore need no
//! cancellation handling of their own: there is no partially-applied
//! iteration to repair. The caller sees
//! `fg_types::FgError::Cancelled` / `DeadlineExpired` instead of a
//! result; per-vertex state vectors are dropped with the run.

use fg_types::VertexId;

use crate::context::VertexContext;
use crate::vertex::PageVertex;

/// A vertex program: user-defined per-vertex state plus the four
/// event handlers of the paper's Figure 3.
///
/// The handlers receive `&self` (the program is shared read-only
/// across workers; algorithm parameters live here) and `&mut State`
/// for the *one* vertex the event belongs to. The engine guarantees a
/// vertex's handlers never run concurrently with each other, so state
/// access needs no synchronization — cross-vertex effects go through
/// messages and activation, exactly the discipline §3.4.1 argues for.
///
/// Handler semantics:
///
/// * [`run`](VertexProgram::run) — entry point, called once per
///   active vertex per iteration. Runs with *no edge data*: a vertex must
///   explicitly request edge lists, because many algorithms activate
///   vertices that end up doing nothing and reading their lists
///   eagerly would waste I/O bandwidth.
/// * [`run_on_vertex`](VertexProgram::run_on_vertex) — delivery of a
///   requested edge-list slice (the *user task* executing against the
///   page cache). `vertex.id()` may differ from the receiving vertex
///   `v`: programs like triangle counting request neighbours' lists.
///   One callback arrives per request and direction — the whole list
///   for a plain request, the clamped range for a partial one,
///   identified by [`PageVertex::offset`]/[`PageVertex::range`].
/// * [`run_on_message`](VertexProgram::run_on_message) — delivery of
///   a message, at the iteration barrier, even if the vertex was not
///   active this iteration.
/// * [`run_on_iteration_end`](VertexProgram::run_on_iteration_end) —
///   end-of-iteration notification, after the iteration's message
///   deliveries; a vertex opts in by calling
///   [`VertexContext::notify_iteration_end`] during the iteration,
///   from a message handler too. It fires once per registering
///   iteration, however often the vertex registered, and within a
///   partition in ascending id order.
///   A registration made inside the callback fires at the next
///   iteration's end (and only if the run gets there: a pending
///   registration does not keep the engine running).
pub trait VertexProgram: Sync {
    /// Per-vertex algorithmic state. Semi-external memory keeps one
    /// of these in RAM per vertex, so it should be a small constant
    /// size (most of the paper's algorithms use ≤ 8 bytes).
    type State: Send + Default;

    /// The message payload vertices exchange. Use `()` when the
    /// algorithm only activates.
    type Msg: Send + Clone;

    /// Iteration entry point for an active vertex.
    fn run(&self, v: VertexId, state: &mut Self::State, ctx: &mut VertexContext<'_, Self::Msg>);

    /// A requested edge list arrived.
    fn run_on_vertex(
        &self,
        v: VertexId,
        state: &mut Self::State,
        vertex: &PageVertex<'_>,
        ctx: &mut VertexContext<'_, Self::Msg>,
    ) {
        let _ = (v, state, vertex, ctx);
    }

    /// A message arrived (delivered at the iteration barrier).
    fn run_on_message(
        &self,
        v: VertexId,
        state: &mut Self::State,
        msg: &Self::Msg,
        ctx: &mut VertexContext<'_, Self::Msg>,
    ) {
        let _ = (v, state, msg, ctx);
    }

    /// The iteration in which this vertex called
    /// [`VertexContext::notify_iteration_end`] is over: one call per
    /// registering iteration, in ascending id order within a
    /// partition. Registering from in here fires at the next
    /// iteration's end.
    fn run_on_iteration_end(
        &self,
        v: VertexId,
        state: &mut Self::State,
        ctx: &mut VertexContext<'_, Self::Msg>,
    ) {
        let _ = (v, state, ctx);
    }

    /// Initial state of vertex `v`; defaults to `State::default()`.
    fn init_state(&self, v: VertexId) -> Self::State {
        let _ = v;
        Self::State::default()
    }
}
