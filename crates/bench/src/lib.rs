//! Shared workload definitions for the SDDS benchmark harness.
//!
//! Every experiment (E1–E10) builds its inputs through this module, so the
//! table printer (`src/bin/harness.rs`, one `fn eN_*` section per experiment)
//! and the integration tests measure exactly the same configurations.

#![forbid(unsafe_code)]

pub mod workloads;
