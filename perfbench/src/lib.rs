//! End-to-end and per-layer wall-clock benchmark of the `sdds` facade.
//!
//! See `README.md` next to this crate for the workloads, the metrics and how
//! to run them.

pub mod inputs;
pub mod layers;
pub mod ops;
pub mod reference;
pub mod stats;
pub mod trace;
pub mod workloads;
