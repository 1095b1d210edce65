//! Shared primitive types for the FlashGraph reproduction.
//!
//! This crate holds the vocabulary types every other crate in the
//! workspace speaks: [`VertexId`], [`EdgeDir`], the error type
//! [`FgError`], and the thread-safe [`AtomicBitmap`] behind the
//! engine's per-vertex sets (frontiers, iteration-end registrations,
//! busy bits).
//!
//! Nothing in here is specific to semi-external memory; these are the
//! kinds of types that in the original C++ FlashGraph live in its
//! `common` library.
//!
//! # Example
//!
//! ```
//! use fg_types::{VertexId, AtomicBitmap};
//!
//! let frontier = AtomicBitmap::new(64);
//! frontier.set(VertexId(3));
//! assert_eq!(frontier.count_ones(), 1);
//! assert_eq!(frontier.iter_ones_in_range(0..64).next(), Some(VertexId(3)));
//! ```

mod bitmap;
mod cancel;
mod dir;
mod error;
mod id;
pub mod sync;

pub use bitmap::AtomicBitmap;
pub use cancel::{CancelCause, CancelToken};
pub use dir::EdgeDir;
pub use error::{FgError, Result};
pub use id::VertexId;
