//! Smart-card Secure Operating Environment (SOE) emulator.
//!
//! The demonstrator of the paper runs on an Axalto e-gate smart card: "a
//! powerful CPU and strong security features but still a limited memory (only
//! 1 KB of RAM available for on-board applications) and a low bandwidth
//! (2KB/s)" (§3). Reproducing the experiments does not require the silicon —
//! it requires the three constraints the silicon imposes, all of which this
//! crate models explicitly:
//!
//! * [`resources`] — a secure working-memory (RAM) budget and an EEPROM budget
//!   that the embedded engine must never exceed (overruns are hard errors),
//! * [`channel`] — the APDU communication channel with its bandwidth, per-APDU
//!   latency and maximum payload, plus byte counters,
//! * [`cost`] — a cost model converting bytes transferred / decrypted / hashed
//!   and events evaluated into a simulated latency breakdown,
//! * [`apdu`] — the Application Protocol Data Unit encoding used between the
//!   terminal proxy and the card,
//! * [`card`] — the card runtime tying the above together and hosting an
//!   [`card::Applet`] (the access-control engine of `sdds-core`).

#![forbid(unsafe_code)]

pub mod apdu;
pub mod card;
pub mod channel;
pub mod cost;
pub mod error;
pub mod resources;

pub use apdu::{Apdu, ApduData, ApduResponse, StatusWord};
pub use card::{Applet, CardProfile, CardRuntime, SmartCard};
pub use channel::{BatchedChannel, ChannelMeter, ChannelModel};
pub use cost::{CostLedger, CostModel, LatencyBreakdown};
pub use error::CardError;
pub use resources::{EepromBudget, RamBudget};
