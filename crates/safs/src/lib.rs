//! SAFS: a user-space filesystem for SSD arrays (§3.1 of the paper).
//!
//! The set-associative file system is the substrate FlashGraph runs
//! on. This reproduction implements its three load-bearing ideas:
//!
//! * **Dedicated per-drive I/O threads** fed by message passing, one
//!   per drive up to the host's cores (`min(num_ssds, cores)`; the
//!   count is derived, not configured). Application threads never
//!   block on the device; they submit
//!   requests to an [`IoSession`] and poll completions. This is the
//!   "refactors I/Os from applications and sends them to I/O threads
//!   with message passing" design. Messages carry batches in both
//!   directions — one per I/O thread per [`IoSession::kick`], one per
//!   session per served pass — so the hop's cost is amortised. A
//!   caller that has nothing to overlap a read with can skip the hop:
//!   [`IoSession::read_inline`] claims like a submit and serves its
//!   own claims on the calling thread, through the I/O threads' pass.
//! * **A set-associative, lightweight page cache** ([`PageCache`]):
//!   pages hash to small independent sets, each with its own lock and
//!   a GClock eviction hand. Locking is per-set so the cache scales
//!   with cores, and a lookup costs a hash plus a short scan — cheap
//!   enough that low hit rates add little overhead, while hit-rate
//!   gains translate linearly into performance (§3.1). A page read on
//!   a miss enters its set on probation, the set's next victim unless
//!   a lookup hits it first (one evicting miss in 128 enters warm), so
//!   a working set larger than the cache keeps a resident share; pages
//!   [`Safs::write`] installs enter warm.
//! * **The asynchronous user-task I/O interface**: completions hand
//!   back zero-copy [`PageSpan`]s over cached pages instead of
//!   copying into caller buffers, so a million outstanding requests
//!   do not pin a million empty buffers. The engine's per-vertex
//!   computation runs directly against the page cache, which is the
//!   paper's "user task executes inside the filesystem".
//!
//! Reads only, once a mount serves: FlashGraph never writes to SSDs
//! during analysis (wearout, §3). A graph image is written once —
//! through `fg_ssdsim::SsdArray` directly, or, for the next generation
//! a compaction writes, through [`Safs::write`] into a mount nobody
//! reads yet, which leaves the pages it wrote resident.
//!
//! # Example
//!
//! ```
//! use fg_safs::{Safs, SafsConfig};
//! use fg_ssdsim::{ArrayConfig, SsdArray};
//!
//! let array = SsdArray::new_mem(ArrayConfig::small_test(), 1 << 20)?;
//! array.write(8192, b"edge list bytes")?;
//! let safs = Safs::new(SafsConfig::default(), array)?;
//!
//! // Synchronous path (loaders, baselines):
//! let bytes = safs.read_sync(8192, 15)?;
//! assert_eq!(&bytes.window().to_vec(), b"edge list bytes");
//!
//! // Asynchronous user-task path (the engine):
//! let mut session = safs.session();
//! session.submit(8192, 15, 7)?;
//! let mut done = Vec::new();
//! while session.pending() > 0 {
//!     session.wait(&mut done);
//! }
//! assert_eq!(done[0].tag, 7);
//! assert_eq!(done[0].span.window().to_vec(), b"edge list bytes");
//! # Ok::<(), fg_types::FgError>(())
//! ```

// The protocol files name their primitives `super::sync::…` — here the
// real ones, in `fg_check`'s mount of them the instrumented doubles.
use fg_types::sync;

mod cache;
mod config;
mod inflight;
mod io_thread;
mod page;
mod safs;
mod session;
mod shard_set;

pub use cache::{CacheStats, CacheStatsSnapshot, PageCache};
pub use config::SafsConfig;
pub use page::{Page, PageSpan, SpanWindow, U32Iter};
pub use safs::{Safs, Streaming};
pub use session::{Completion, IoSession};
pub use shard_set::ShardSet;
