//! Umbrella crate for the FlashGraph reproduction workspace.
//!
//! Re-exports every member crate so examples and integration tests
//! can reach the whole stack through one dependency. Library users
//! should depend on the individual crates instead:
//!
//! * [`flashgraph`] — the semi-external-memory engine (start here),
//! * [`fg_apps`] — the paper's six algorithms plus extensions,
//! * [`fg_graph`] / [`fg_format`] — in-memory graphs and the on-SSD
//!   image + compact index,
//! * [`fg_safs`] / [`fg_ssdsim`] — the user-space filesystem and the
//!   simulated SSD array it mounts,
//! * [`fg_baselines`] — the direct in-memory oracles,
//! * [`fg_types`] — shared primitives.
//!
//! See `README.md` for the architecture tour and the crate map.

pub use fg_apps;
pub use fg_baselines;
pub use fg_bench;
pub use fg_format;
pub use fg_graph;
pub use fg_safs;
pub use fg_ssdsim;
pub use fg_types;
pub use flashgraph;
