//! `fg_check` — an in-tree bounded model checker plus a workspace
//! concurrency-hygiene lint.
//!
//! The workspace's engine rests on a handful of hand-rolled
//! synchronization protocols (busy-bit delivery exclusivity, the
//! obligation-counted quiesce condition, work-stealing pop order, the
//! shard rendezvous, the admission gate, the `SemIo` flush gate,
//! in-flight read dedup). Ordinary tests exercise one interleaving per
//! run; this crate exercises *all of them* up to a preemption bound —
//! and for the first five it explores the code that ships, not a
//! transcription: [`models`] compiles `bitmap.rs`, `pool.rs`,
//! `rendezvous.rs` and `serve/gate.rs` themselves against instrumented
//! primitives. The last two run through channels and an I/O thread and
//! are still ~150-line models.
//!
//! Two halves:
//!
//! * [`sched`] + [`sync`]: a loom-style deterministic scheduler and
//!   instrumented doubles of `fg_types::sync`. [`sched::explore`]
//!   DFS-walks the interleaving space and returns a [`sched::Report`]
//!   with a replayable counterexample trace on failure. Vector clocks
//!   make memory-ordering downgrades (`AcqRel` → `Relaxed`) observable
//!   as lost publications.
//! * [`lint`]: a static pass (exposed as `fg_check --lint`) that keeps
//!   the workspace honest — no raw `std::sync::atomic` outside
//!   `fg_types`, no `unsafe` without a `SAFETY:` comment, no
//!   `Ordering::Relaxed`/`SeqCst` without an `// ordering:`
//!   justification, and no primitive the checker cannot see inside a
//!   file it explores as shipped.
//!
//! Each protocol carries *seeded mutations* — the exact downgrades and
//! protocol edits the engine's comments claim would be bugs, injected
//! as a [`Fault`] by the doubles or switched on in a harness — and
//! `tests/check_models.rs` at the workspace root asserts the checker
//! catches every one while passing the unmutated protocols exhaustively.

pub mod lint;
pub mod models;
pub mod sched;
pub mod sync;

pub use sched::{check_assert, explore, explore_with, Config, Failure, FailureKind, Fault, Report};
