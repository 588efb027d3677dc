//! Untrusted Document Service Provider (DSP).
//!
//! "The data are kept encrypted at the server" (§1); the DSP "hosts encrypted
//! XML documents shared by users as well as encrypted access rules" (§3). The
//! DSP is **untrusted**: it only ever sees ciphertext, chunk tags and
//! protected rule blobs, and it cannot alter them without detection (the SOE
//! verifies everything). This crate provides:
//!
//! * [`store`] — the encrypted document / protected rule store with versioning,
//! * [`service`] — the pull-mode front-end terminal proxies call
//!   ([`DspService`], with byte accounting of everything served) and the
//!   concurrent multi-client layer of experiment E10: the
//!   FNV-sharded store ([`service::ShardedStore`]), the fair round-robin
//!   [`service::SessionScheduler`] multiplexing many card sessions, and the
//!   [`service::ServiceModel`] capacity math (see the module docs for the
//!   architecture diagram and the knob → paper-experiment mapping).
//!
//! The DSP serves pulls only. Push dissemination (experiment E6) broadcasts
//! each encrypted item "through unsecured channels" (§3) straight to the
//! subscribers' cards, so no server sits on that path.

#![forbid(unsafe_code)]

pub mod obs;
pub mod service;
pub mod store;

pub use obs::{DspObs, ErrorObs, SchedulerObs, ServeObs, ServerStats, SessionObs, ShardObs};
pub use service::{
    DspService, Schedulable, ScheduleReport, ServiceModel, SessionScheduler, ShardedStore,
    StepOutcome,
};
pub use store::{DocumentRecord, DspStore};
