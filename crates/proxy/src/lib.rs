//! Terminal proxy of the SDDS architecture.
//!
//! Figure 3 of the paper places, on the device hosting the smart card, a
//! *proxy* that lets applications talk to the DSP and to the card "through an
//! XML API independent of the underlying protocols (JDBC, APDU)". This crate
//! is that terminal-side software:
//!
//! * [`pki`] — the simulated PKI of the demo (footnote 2: "we will not use a
//!   PKI infrastructure but rather simulate it"),
//! * [`publish`] — the [`publish::DisseminationChannel`] publisher of the
//!   push scenario (E6): it holds the channel key and encrypts each stream
//!   item once; every subscriber's card filters that one ciphertext,
//! * [`proxy`] — the [`proxy::Terminal`]: card issuance, key/rule/query
//!   provisioning over APDUs, push-mode local evaluation, and the card's
//!   [`session::SoeTransport`],
//! * [`host`] — the [`host::HostSoe`], the same SOE run in process: the
//!   other [`session::SoeTransport`]. Both transports drive one
//!   `sdds_core::engine::Soe`, the card through its APDU applet,
//! * [`session`] — the [`session::PullSession`] stepped pull flow against the
//!   shared multi-client [`sdds_dsp::DspService`], generic over the
//!   transport and schedulable by the service's round-robin session
//!   scheduler. [`session::CardSession`] is its card form
//!   ([`proxy::Terminal::connect_shared`]). This is the **only** pull loop
//!   of the workspace.
//!
//! Applications are expected to use the top-level `sdds::Client` /
//! `sdds::Publisher` facade (root crate), which wires a PKI, a card profile
//! and a `DspService` handle around these primitives; the demo applications
//! live there too (`sdds::apps`).

#![forbid(unsafe_code)]

pub mod host;
pub mod pki;
pub mod proxy;
pub mod publish;
pub mod session;

pub use host::HostSoe;
pub use pki::SimulatedPki;
pub use proxy::{ProxyError, Terminal};
pub use publish::DisseminationChannel;
pub use session::{CardSession, PullSession, SoeTransport};
