//! An SSD-array simulator standing in for the paper's hardware.
//!
//! The FlashGraph paper evaluates on 15 OCZ Vertex 4 SSDs behind three
//! host bus adapters — roughly 60 K random-4 KB reads/s per drive and
//! ~900 K IOPS aggregate. This crate substitutes that testbed with a
//! deterministic simulator (the README's "Running the evaluation"
//! section lists the stand-ins and what each reproduces):
//!
//! * Bytes live in a [`PageStore`] — RAM ([`MemStore`]) or a real file
//!   ([`FileStore`]) — striped across simulated drives like RAID-0.
//! * Every request is charged against a per-drive **virtual-time
//!   ledger** using a two-parameter service model: a fixed per-request
//!   *setup* cost plus a per-page *transfer* cost. The setup cost is
//!   what request merging saves; the ratio of the two reproduces the
//!   paper's observation that random 4 KB throughput on SSDs is only
//!   2–3× below sequential bandwidth (§3, "Design principles").
//! * [`IoStats`] counts requests, pages, and bytes, and exposes the
//!   busiest drive's ledger — the I/O term of the roofline runtime
//!   model used by the benchmark harnesses.
//!
//! # Example
//!
//! ```
//! use fg_ssdsim::{ArrayConfig, SsdArray};
//!
//! let cfg = ArrayConfig::small_test();
//! let array = SsdArray::new_mem(cfg, 1 << 20)?;
//! array.write(0, &[7u8; 4096])?;
//! let mut buf = [0u8; 4096];
//! array.read(0, &mut buf)?;
//! assert_eq!(buf[100], 7);
//! assert_eq!(array.stats().snapshot().read_requests, 1);
//! # Ok::<(), fg_types::FgError>(())
//! ```

mod array;
mod config;
mod stats;
mod store;

pub use array::SsdArray;
pub use config::{ArrayConfig, SsdSpec};
pub use stats::{IoStats, IoStatsSnapshot};
pub use store::{check_range, FileStore, MemStore, PageStore};
