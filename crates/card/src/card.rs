//! The smart-card runtime: hardware profile, on-card resources and the applet
//! dispatch loop.
//!
//! `sdds-core` implements the access-control engine as an [`Applet`]; the
//! terminal proxy talks to it exclusively through APDUs routed by
//! [`CardRuntime::exchange`], which is where every byte crossing the
//! terminal↔card boundary is metered. Nothing in the architecture lets the
//! terminal observe card state except through responses — mirroring the trust
//! model of the paper, where the terminal is untrusted and only the SOE is
//! tamper-resistant.

use crate::apdu::{Apdu, ApduData, ApduResponse, StatusWord};
use crate::cost::{CostLedger, CostModel};
use crate::error::CardError;
use crate::resources::EepromBudget;

/// Hardware profile of a card.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CardProfile {
    /// Secure working memory available to the applet, in bytes.
    pub ram_bytes: usize,
    /// Secure stable storage available to the applet, in bytes.
    pub eeprom_bytes: usize,
    /// Cost model (channel + processor rates).
    pub cost: CostModel,
    /// Human readable name used in reports.
    pub name: &'static str,
}

impl CardProfile {
    /// The Axalto e-gate card used by the demonstrator: 1 KB of RAM for the
    /// application, 32 KB of EEPROM, 2 KB/s channel.
    pub fn egate() -> Self {
        CardProfile {
            ram_bytes: 1024,
            eeprom_bytes: 32 * 1024,
            cost: CostModel::egate(),
            name: "axalto-egate",
        }
    }

    /// A contemporary secure element with 8 KB of applet RAM.
    pub fn modern_secure_element() -> Self {
        CardProfile {
            ram_bytes: 8 * 1024,
            eeprom_bytes: 256 * 1024,
            cost: CostModel::modern_secure_element(),
            name: "modern-se",
        }
    }

    /// A loose profile used by tests that only care about functional
    /// behaviour, not the memory constraint.
    pub fn unconstrained() -> Self {
        CardProfile {
            ram_bytes: 16 * 1024 * 1024,
            eeprom_bytes: 16 * 1024 * 1024,
            cost: CostModel::egate(),
            name: "unconstrained",
        }
    }
}

/// The emulated card: its profile, EEPROM budget and cost counters. The
/// keys live in the applet that unwrapped them.
#[derive(Debug)]
pub struct SmartCard {
    profile: CardProfile,
    eeprom: EepromBudget,
    ledger: CostLedger,
}

impl SmartCard {
    /// Powers up a card with the given profile.
    pub fn new(profile: CardProfile) -> Self {
        SmartCard {
            eeprom: EepromBudget::new(profile.eeprom_bytes),
            ledger: CostLedger::new(),
            profile,
        }
    }

    /// The hardware profile.
    pub fn profile(&self) -> &CardProfile {
        &self.profile
    }

    /// Secure stable storage budget.
    pub fn eeprom(&mut self) -> &mut EepromBudget {
        &mut self.eeprom
    }

    /// Cost counters of the current session.
    pub fn ledger(&mut self) -> &mut CostLedger {
        &mut self.ledger
    }

    /// Read-only cost counters.
    pub fn ledger_ref(&self) -> &CostLedger {
        &self.ledger
    }

    /// Resets the per-session cost counters, keeping persistent state (the
    /// EEPROM contents).
    pub fn reset_session(&mut self) {
        self.ledger = CostLedger::new();
    }
}

/// An on-card application processing APDUs.
pub trait Applet {
    /// Processes one command APDU with access to the card resources.
    fn process(&mut self, card: &mut SmartCard, command: &Apdu) -> ApduResponse;

    /// Name of the applet, for diagnostics.
    fn name(&self) -> &str {
        "applet"
    }
}

/// The runtime pairing a card with an applet and metering the channel.
pub struct CardRuntime<A: Applet> {
    card: SmartCard,
    applet: A,
}

impl<A: Applet> CardRuntime<A> {
    /// Installs `applet` on a card with the given profile.
    pub fn new(profile: CardProfile, applet: A) -> Self {
        CardRuntime {
            card: SmartCard::new(profile),
            applet,
        }
    }

    /// Performs one APDU exchange: the command payload and the response
    /// payload are both charged to the channel meter.
    pub fn exchange(&mut self, command: &Apdu) -> ApduResponse {
        if command.data.len() > self.card.profile.cost.channel.max_apdu_data {
            return ApduResponse::error(StatusWord::WRONG_LENGTH);
        }
        let to_card = command.wire_len();
        let response = self.applet.process(&mut self.card, command);
        let from_card = response.wire_len();
        self.card.ledger.channel.record_exchange(to_card, from_card);
        response
    }

    /// Performs an exchange and turns non-success status words into errors.
    pub fn exchange_expect_ok(&mut self, command: &Apdu) -> Result<ApduData, CardError> {
        let response = self.exchange(command);
        if response.status.is_ok() {
            Ok(response.data)
        } else {
            Err(CardError::Refused {
                status: response.status.0,
                reason: format!(
                    "instruction 0x{:02X} refused by applet `{}`",
                    command.ins,
                    self.applet.name()
                ),
            })
        }
    }

    /// Access to the card (for reports and assertions; the terminal-side code
    /// of the system never uses this — it only sees APDU responses).
    pub fn card(&self) -> &SmartCard {
        &self.card
    }

    /// Mutable access to the card (tests and reports only).
    pub fn card_mut(&mut self) -> &mut SmartCard {
        &mut self.card
    }

    /// Access to the applet.
    pub fn applet(&self) -> &A {
        &self.applet
    }

    /// Mutable access to the applet.
    pub fn applet_mut(&mut self) -> &mut A {
        &mut self.applet
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apdu::ins;

    /// A toy applet that stores bytes and echoes them back.
    struct EchoApplet {
        stored: Vec<u8>,
    }

    impl Applet for EchoApplet {
        fn process(&mut self, _card: &mut SmartCard, command: &Apdu) -> ApduResponse {
            match command.ins {
                ins::PUSH_CHUNK => {
                    self.stored.extend_from_slice(&command.data);
                    ApduResponse::ok_empty()
                }
                ins::GET_OUTPUT => ApduResponse::ok(&self.stored),
                _ => ApduResponse::error(StatusWord::INS_NOT_SUPPORTED),
            }
        }

        fn name(&self) -> &str {
            "echo"
        }
    }

    #[test]
    fn profiles_expose_expected_constraints() {
        let egate = CardProfile::egate();
        assert_eq!(egate.ram_bytes, 1024);
        assert!((egate.cost.channel.bytes_per_second - 2048.0).abs() < 1e-9);
        assert!(CardProfile::modern_secure_element().ram_bytes > egate.ram_bytes);
        assert!(CardProfile::unconstrained().ram_bytes > 1 << 20);
    }

    #[test]
    fn runtime_meters_every_exchange() {
        let mut rt = CardRuntime::new(CardProfile::egate(), EchoApplet { stored: vec![] });
        let cmd = Apdu::new(ins::PUSH_CHUNK, 0, 0, [1, 2, 3, 4]).unwrap();
        let resp = rt.exchange(&cmd);
        assert!(resp.status.is_ok());
        let meter = &rt.card().ledger_ref().channel;
        assert_eq!(meter.apdu_exchanges, 1);
        assert_eq!(meter.bytes_to_card, cmd.wire_len());
        assert_eq!(meter.bytes_from_card, 2); // empty data + status word

        let out = rt
            .exchange_expect_ok(&Apdu::simple(ins::GET_OUTPUT, 0, 0))
            .unwrap();
        assert_eq!(&out[..], &[1, 2, 3, 4]);
        assert_eq!(rt.card().ledger_ref().channel.apdu_exchanges, 2);
    }

    #[test]
    fn unsupported_instruction_maps_to_error() {
        let mut rt = CardRuntime::new(CardProfile::egate(), EchoApplet { stored: vec![] });
        let err = rt
            .exchange_expect_ok(&Apdu::simple(0xFF, 0, 0))
            .unwrap_err();
        assert!(matches!(err, CardError::Refused { status: 0x6D00, .. }));
    }

    #[test]
    fn reset_session_clears_counters_but_keeps_keys() {
        // What an applet keeps across sessions — its keys and rules — is
        // charged to the EEPROM, which a reset leaves as it was.
        let mut card = SmartCard::new(CardProfile::egate());
        card.eeprom().store(48).unwrap();
        card.ledger().record_decrypt(10);
        card.reset_session();
        assert_eq!(card.ledger_ref().bytes_decrypted, 0);
        assert_eq!(card.eeprom().in_use(), 48);
        assert_eq!(card.profile().name, "axalto-egate");
    }
}
