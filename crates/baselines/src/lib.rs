//! The in-memory reference the paper compares FlashGraph against
//! (§5.2), and the correctness oracle of every app test.
//!
//! | Paper baseline | This module | Architecture reproduced |
//! |---|---|---|
//! | Galois (in-memory, low-level API) | [`direct`] | Hand-tuned single-purpose in-memory algorithms with no framework overhead. Also serve as correctness oracles for the FlashGraph apps. |
//!
//! The paper's other comparators (PowerGraph, GraphChi, X-Stream)
//! are not reproduced: Figures 10 and 11 compare against the real
//! systems, which an in-process stand-in does not measure.

pub mod direct;
