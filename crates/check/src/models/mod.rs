//! The six synchronization protocols under the checker, each explored
//! as shipped with the seeded mutations it must catch. The `path`
//! attributes below *mount* shipped source files (the ones `fg_types`,
//! `fg_safs` and `flashgraph` build, not copies) as children of this
//! module, where the `super::sync::…` they name every primitive by is
//! [`crate::sync`], the instrumented doubles: every access in the
//! shipped statements is a schedule point. (`fg_check --lint`'s
//! `checked-imports` rule reads the mount list from these attributes.)
//!
//! The other modules are *harnesses*: threads, `CCell` payloads and
//! invariants around the mounted types, plus a transcription of what
//! drives them but cannot be mounted (an engine worker's side of the
//! busy bit, a SAFS session and I/O thread), which each header names.
//! Each has a `Mutation` enum and `check(mutation, cfg)`: what a
//! *caller* gets wrong is a switch in the harness, what the *protocol*
//! gets wrong a [`crate::Fault`] the doubles inject, so no shipped file
//! carries fault code. Unmutated, each must pass exhaustive bounded
//! exploration; mutated, each must produce a counterexample
//! (`tests/check_models.rs` pins both directions).
//!
//! To put another protocol under the checker: write it against
//! `super::sync` only, mount its file here, write a harness, name its
//! faults.

use crate::sync;
use fg_safs::Page;
use fg_types::VertexId;

#[path = "../../../types/src/bitmap.rs"]
pub mod shipped_bitmap;
#[path = "../../../core/src/serve/gate.rs"]
mod shipped_gate;
#[path = "../../../safs/src/inflight.rs"]
mod shipped_inflight;
#[path = "../../../core/src/engine/pool.rs"]
mod shipped_pool;
// `PoisonGuard` is the one item no harness can use: its `Drop` acts only
// while its thread unwinds, when a double is a plain value and nothing
// is a schedule point (see `crate::sync`), so harnesses call `poison`
// themselves.
#[allow(dead_code)]
#[path = "../../../core/src/rendezvous.rs"]
mod shipped_rendezvous;

pub mod busy_bit;
pub mod gate;
pub mod inflight_waiter;
pub mod quiesce;
pub mod ready_pool;
pub mod rendezvous;
