//! In-memory graph containers and deterministic generators.
//!
//! FlashGraph's external-memory image (crate `fg-format`) is built
//! from an in-memory graph; its in-memory execution mode reads edge
//! lists straight out of one. This crate provides that in-memory
//! representation — a compressed-sparse-row ([`Csr`]) per direction
//! wrapped in [`Graph`] — plus a [`GraphBuilder`] and the synthetic
//! workload generators used by the evaluation (R-MAT power-law
//! graphs standing in for the paper's Twitter/web crawls, plus
//! small-world rings and small fixture graphs for tests).
//!
//! # Example
//!
//! ```
//! use fg_graph::{GraphBuilder, gen};
//! use fg_types::VertexId;
//!
//! // A tiny directed triangle.
//! let mut b = GraphBuilder::directed();
//! b.add_edge(VertexId(0), VertexId(1));
//! b.add_edge(VertexId(1), VertexId(2));
//! b.add_edge(VertexId(2), VertexId(0));
//! let g = b.build();
//! assert_eq!(g.num_vertices(), 3);
//! assert_eq!(g.num_edges(), 3);
//! assert_eq!(g.out_neighbors(fg_types::VertexId(0)), &[fg_types::VertexId(1)]);
//!
//! // A deterministic power-law graph like the paper's datasets.
//! let rmat = gen::rmat(10, 8, gen::RmatSkew::default(), 42);
//! assert!(rmat.num_vertices() <= 1 << 10);
//! ```

mod builder;
mod csr;
mod delta;
pub mod fixtures;
pub mod gen;
mod io;
mod sort;
mod stats;

pub use builder::GraphBuilder;
pub use csr::{Csr, Graph};
pub use delta::{
    BaseLists, DeltaBatch, DeltaList, DeltaLog, DeltaOp, DeltaSlot, DeltaView, RunLog,
};
pub use io::{read_edge_list, write_edge_list};
pub use stats::estimate_diameter;
