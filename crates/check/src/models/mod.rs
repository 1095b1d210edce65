//! The seven synchronization protocols under the checker, five of them
//! explored as shipped, each with the seeded mutations it must catch —
//! and the *mount*: the four `path` attributes below compile shipped
//! source files (the ones `fg_types` and `flashgraph` build, not
//! copies) as children of this module, where the `super::sync::…` they
//! name every primitive by is [`crate::sync`], the instrumented
//! doubles. `shipped_pool::ReadyPool`, `shipped_rendezvous::Rendezvous`,
//! `shipped_gate::Gate` and `shipped_bitmap::AtomicBitmap` are the
//! shipped statements and orderings, byte for byte, with every access a
//! schedule point. (`fg_check --lint`'s `checked-imports` rule reads
//! the mount list from these attributes.)
//!
//! `busy_bit`, `quiesce`, `ready_pool`, `rendezvous` and `gate` are
//! *harnesses* — threads, `CCell` payloads and invariants around those
//! types, no protocol state of their own. `sem_flush` and
//! `inflight_waiter` are still *models*: their protocols run through
//! channels and an I/O thread, which have no doubles yet (their headers
//! say so).
//!
//! Each has a `Mutation` enum and `check(mutation, cfg)`. What a
//! *caller* of a shipped type gets wrong is a switch in the harness;
//! what the *protocol* gets wrong is a [`crate::Fault`] the doubles
//! inject for that one exploration, so no shipped file carries a line
//! of fault code. Unmutated, each must pass exhaustive bounded
//! exploration; mutated, each must produce a counterexample — which
//! shows the scenario reaches the interleaving that matters
//! (`tests/check_models.rs` pins both directions).
//!
//! To put another protocol under the checker: write it against
//! `super::sync` only, mount its file here, write a harness, name its
//! faults.

use crate::sync;
use fg_types::VertexId;

#[path = "../../../types/src/bitmap.rs"]
pub mod shipped_bitmap;
#[path = "../../../core/src/serve/gate.rs"]
mod shipped_gate;
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
pub mod sem_flush;
