//! Graph algorithms on the FlashGraph engine (§4 of the paper).
//!
//! The six applications the paper evaluates, expressed in the
//! vertex-centric interface, plus extensions exercising the parts of
//! the system the core six do not touch (edge attributes, resumable
//! multi-phase runs):
//!
//! | App | Paper | I/O pattern (paper's taxonomy) | Edge lists |
//! |---|---|---|---|
//! | [`bfs`](mod@bfs) | §4 BFS | frontier subset per iteration → random I/O | out |
//! | [`bc`] | §4 Betweenness centrality | BFS + back-propagation | out + in |
//! | [`pagerank`](mod@pagerank) | §4 PageRank (delta-based) | all vertices, narrowing | out |
//! | [`wcc`](mod@wcc) | §4 Weakly connected components | all vertices, narrowing | out + in |
//! | [`tc`] | §4 Triangle counting | vertices read *neighbours'* lists | own + neighbours |
//! | [`scan`] | §4 Scan statistics | degree-descending custom scheduler, pruning | own + neighbours |
//! | [`sssp`](mod@sssp) | extension | frontier subset, weighted | out + attributes |
//! | [`kcore`] | extension | peeling waves | out + in |
//! | [`diameter`] | extension | repeated BFS probes | out + in |
//! | [`lcc`](mod@lcc) | extension | sampled partial-range reads | own positions + sampled neighbours |
//!
//! Every app runs unchanged in both engine modes; tests validate each
//! against the hand-written oracles in `fg_baselines::direct`.

pub mod bc;
pub mod bfs;
pub mod diameter;
pub mod kcore;
pub mod lcc;
pub mod pagerank;
pub mod scan;
pub mod sssp;
pub mod tc;
pub mod wcc;

pub use bc::bc_single_source;
pub use bfs::bfs;
pub use diameter::estimate_diameter;
pub use kcore::k_core;
pub use lcc::{lcc, lcc_of};
pub use pagerank::pagerank;
pub use scan::scan_statistics;
pub use sssp::sssp;
pub use tc::triangle_count;
pub use wcc::wcc;
