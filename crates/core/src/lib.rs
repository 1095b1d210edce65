//! FlashGraph: a semi-external-memory, vertex-centric graph engine.
//!
//! This crate is the paper's primary contribution (§3): algorithmic
//! vertex state stays in RAM, edge lists stay on the SSD array and are
//! read *selectively* through SAFS. The pieces:
//!
//! * **Programming model** ([`VertexProgram`], §3.4): per-vertex
//!   `run` / `run_on_vertex` / `run_on_message` /
//!   `run_on_iteration_end` callbacks. A vertex must explicitly
//!   request an edge list (its own or — unusually among graph engines
//!   — *any other vertex's*) before touching edges, which is what
//!   lets FlashGraph avoid reading edge lists of vertices that are
//!   activated but do no work. Requests are first-class [`Request`]
//!   values and may name a *part* of an edge list
//!   (`Request::edges(dir).range(start, len)`), so algorithms probing
//!   high-degree hubs never pay for bytes they won't use.
//! * **Execution model** (§3.3): iterations over an active frontier;
//!   vertices interact by message passing (applied at iteration
//!   barriers, Pregel-style) and multicast activation.
//! * **I/O path** (§3.6): requests from an issue batch are sorted by
//!   SSD offset and merged when they touch the same or adjacent
//!   pages, then submitted asynchronously; completions run the
//!   user's code directly over the page cache. This is the one
//!   request path for sparse and dense iterations alike: a dense
//!   frontier in id order merges into large sequential reads.
//! * **Scheduling** (§3.7): per-thread schedulers process vertices in
//!   vertex-id order (matching edge-list order on SSDs), alternating
//!   scan direction between iterations; custom orders are pluggable
//!   ([`SchedulerKind`]), e.g. degree-descending for scan statistics.
//! * **Partitioning and load balancing** (§3.8): range-based
//!   horizontal partitions (`(vid >> r) % n`) and cursor-based work
//!   stealing.
//! * **Two execution modes**: semi-external memory over
//!   [`fg_safs::Safs`] and a drop-in in-memory mode over
//!   [`fg_graph::Graph`] — the paper's FG-mem baseline.
//! * **Concurrent serving** ([`GraphService`], [`serve`]): one SAFS
//!   mount and one index shared by many simultaneous queries, with
//!   priority-class + weighted-fair-share admission, per-query
//!   deadlines/cancellation ([`CancelToken`]), and cross-tenant
//!   in-flight read dedup — the multi-tenant layer over §3.1's
//!   shared cache and I/O threads.
//!
//! # Example: breadth-first search (the paper's Figure 4)
//!
//! ```
//! use fg_types::{EdgeDir, VertexId};
//! use flashgraph::{
//!     Engine, EngineConfig, Init, PageVertex, Request, VertexContext, VertexProgram,
//! };
//!
//! struct Bfs;
//!
//! #[derive(Default, Clone)]
//! struct BfsState {
//!     visited: bool,
//! }
//!
//! impl VertexProgram for Bfs {
//!     type State = BfsState;
//!     type Msg = ();
//!
//!     fn run(&self, v: VertexId, state: &mut BfsState, ctx: &mut VertexContext<'_, ()>) {
//!         if !state.visited {
//!             state.visited = true;
//!             // `Request::edges(dir)` asks for the whole list; add
//!             // `.range(start, len)` for a slice of a hub's list or
//!             // `.with_attrs()` for edge weights.
//!             ctx.request(v, Request::edges(EdgeDir::Out));
//!         }
//!     }
//!
//!     fn run_on_vertex(
//!         &self,
//!         _v: VertexId,
//!         _state: &mut BfsState,
//!         vertex: &PageVertex<'_>,
//!         ctx: &mut VertexContext<'_, ()>,
//!     ) {
//!         for dst in vertex.edges() {
//!             ctx.activate(dst);
//!         }
//!     }
//! }
//!
//! let g = fg_graph::fixtures::path(5);
//! let engine = Engine::new_mem(&g, EngineConfig::default());
//! let (states, stats) = engine.run(&Bfs, Init::Seeds(vec![VertexId(0)])).unwrap();
//! assert!(states.iter().all(|s| s.visited));
//! assert_eq!(stats.iterations, 5);
//! ```

// `rendezvous.rs` names its primitives `super::sync::…` — here the real
// ones, in `fg_check`'s mount of the same file the instrumented doubles.
use fg_types::sync;

mod config;
mod context;
mod engine;
pub mod merge;
mod messages;
mod partition;
mod program;
mod rendezvous;
pub mod serve;
mod shard;
mod state;
mod stats;
mod vertex;

pub use config::{EngineConfig, SchedulerKind};
pub use context::{Request, VertexContext};
pub use engine::{Engine, GraphEngine, Init};
pub use program::VertexProgram;
pub use serve::{
    Compactor, GraphService, Priority, QueryOpts, ServiceConfig, ServiceStatsSnapshot, TenantConfig,
};
pub use shard::ShardedEngine;
pub use stats::{IterStats, RunStats};
pub use vertex::{Edges, PageVertex, WeightedEdges};

// Re-exported so service callers can build tokens without naming
// `fg_types` directly.
pub use fg_types::{CancelCause, CancelToken};
