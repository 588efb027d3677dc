//! Simulated public-key infrastructure.
//!
//! The demo deliberately does not deploy a real PKI: "In the demonstration, we
//! will not use a PKI infrastructure but rather simulate it to keep the
//! demonstration independent of a network connection. Moreover, PKI is a
//! well-known technique that need not be demonstrated." (footnote 2).
//!
//! The simulation keeps the *interface* of a PKI — every subject ends up
//! sharing a pairwise transport secret with the community's trusted server,
//! which is what the key-provisioning protocol of `sdds-core::session`
//! consumes — while deriving those secrets deterministically from a community
//! secret, exactly like [`sdds_core::session::TrustedServer`] does.

use sdds_core::rule::Subject;
use sdds_crypto::SecretKey;

/// The simulated PKI of one community.
// lint: redacted — holds only a SecretKey, whose Debug prints a
// placeholder instead of the bytes.
#[derive(Debug, Clone)]
pub struct SimulatedPki {
    community_master: SecretKey,
}

impl SimulatedPki {
    /// Creates the PKI of a community identified by `community_secret` (the
    /// same secret the community's [`sdds_core::session::TrustedServer`] was
    /// created from).
    pub fn new(community_secret: &[u8]) -> Self {
        SimulatedPki {
            community_master: SecretKey::derive(community_secret, "community-master"),
        }
    }

    /// The transport key a card issued to `subject` is personalised with.
    /// Matches [`sdds_core::session::TrustedServer::transport_key_for`], which
    /// is precisely what a key-agreement protocol would guarantee.
    pub fn card_transport_key(&self, subject: &Subject) -> SecretKey {
        self.community_master
            .subkey(&format!("transport:{}", subject.name()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdds_core::rule::RuleSet;
    use sdds_core::session::TrustedServer;

    #[test]
    fn pki_and_trusted_server_agree_on_transport_keys() {
        let secret = b"family-2005";
        let pki = SimulatedPki::new(secret);
        let server = TrustedServer::new(secret, RuleSet::new());
        for name in ["alice", "bob", "carole"] {
            let subject = Subject::new(name);
            assert_eq!(
                pki.card_transport_key(&subject),
                server.transport_key_for(&subject),
                "transport keys must agree for {name}"
            );
        }
        // Different subjects get different keys.
        assert_ne!(
            pki.card_transport_key(&Subject::new("alice")),
            pki.card_transport_key(&Subject::new("bob"))
        );
        // Different communities get different keys.
        let other = SimulatedPki::new(b"another-community");
        assert_ne!(
            pki.card_transport_key(&Subject::new("alice")),
            other.card_transport_key(&Subject::new("alice"))
        );
    }
}
