//! Provisioning protocols between trusted parties and the SOE.
//!
//! The demo emphasises that "the tamper resistance of the access control
//! relies not only on the SOE but also on the whole environment (e.g.,
//! communication protocol, access rights update protocol, etc.)" (§1, point 2).
//! This module implements those protocols for the reproduction:
//!
//! * [`ProtectedRules`] — access-control rules travel from the rule issuer to
//!   the SOE (possibly through the untrusted DSP and terminal) encrypted and
//!   authenticated, with a version number that the SOE checks monotonically to
//!   defeat rollback to a stale, more permissive policy,
//! * [`KeyProvisioning`] — document keys are delivered wrapped under a
//!   card-specific transport key (in the demo a PKI is *simulated*; here the
//!   transport key plays that role),
//! * [`TrustedServer`] — the issuer side: holds the master secrets, produces
//!   protected rule sets and wrapped keys for a community of cards.

use sdds_crypto::hmac::{hmac_sha256, verify_mac, HmacKey};
use sdds_crypto::modes::{cbc_decrypt, cbc_encrypt};
use sdds_crypto::{Aes128, CryptoError, SecretKey};

use crate::error::CoreError;
use crate::rule::{RuleSet, Subject};

/// An encrypted, authenticated, versioned rule set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtectedRules {
    /// Version carried outside the ciphertext so the SOE can reject stale
    /// updates before paying for decryption; it is also bound inside the MAC.
    pub version: u64,
    /// AES-128-CBC ciphertext of the serialised rule set.
    pub ciphertext: Vec<u8>,
    /// IV of the CBC encryption.
    pub iv: [u8; 16],
    /// HMAC over version, IV and ciphertext.
    pub mac: [u8; 32],
}

/// Domain label of the synthetic rule-blob IV, which is computed under the
/// same `rules-mac` key as the blob's MAC.
const RULES_IV_LABEL: &[u8] = b"sdds rules-iv";

impl ProtectedRules {
    /// The blob's MAC: HMAC over version, IV and ciphertext.
    fn mac(mac_key: &HmacKey, version: u64, iv: &[u8; 16], ciphertext: &[u8]) -> [u8; 32] {
        let mut inner = mac_key.start();
        inner.update(&version.to_le_bytes());
        inner.update(iv);
        inner.update(ciphertext);
        mac_key.finish(inner)
    }

    /// Seals `rules` under `key` (the rule-protection key of the community).
    // taint: sink — cleartext rules leave here only as an encrypted, MACed
    // blob the DSP can store but not read.
    pub fn seal(rules: &RuleSet, key: &SecretKey) -> Self {
        let payload = rules.encode();
        let enc_key = key.subkey("rules-enc");
        let mac_key = HmacKey::new(key.subkey("rules-mac").as_bytes());
        // A synthetic IV: a PRF of version and payload. Every subject's subset
        // of one policy version is sealed under one key, so an IV of the
        // version alone would repeat across subjects; this one repeats only
        // for the same payload, and keeps sealing deterministic.
        let mut iv_input = mac_key.start();
        iv_input.update(RULES_IV_LABEL);
        iv_input.update(&rules.version().to_le_bytes());
        iv_input.update(&payload);
        let mut iv = [0u8; 16];
        iv.copy_from_slice(&mac_key.finish(iv_input)[..16]);
        let cipher = Aes128::new(enc_key.as_bytes());
        let ciphertext = cbc_encrypt(&cipher, &iv, &payload);
        let mac = Self::mac(&mac_key, rules.version(), &iv, &ciphertext);
        ProtectedRules {
            version: rules.version(),
            ciphertext,
            iv,
            mac,
        }
    }

    /// Opens a protected rule set, verifying authenticity and (optionally)
    /// that it is **not older** than `minimum_version` (rollback protection).
    pub fn open(
        &self,
        key: &SecretKey,
        minimum_version: Option<u64>,
    ) -> Result<RuleSet, CoreError> {
        if let Some(min) = minimum_version {
            if self.version < min {
                return Err(CoreError::BadState {
                    // alloc: cold — tampered rule blob error path.
                    message: format!(
                        "rule set version {} is older than the installed version {min} (rollback rejected)",
                        self.version
                    ),
                });
            }
        }
        let mac_key = HmacKey::new(key.subkey("rules-mac").as_bytes());
        let expected = Self::mac(&mac_key, self.version, &self.iv, &self.ciphertext);
        if !verify_mac(&expected, &self.mac) {
            return Err(CryptoError::IntegrityFailure {
                context: "protected rule set".into(),
            }
            .into());
        }
        let enc_key = key.subkey("rules-enc");
        let cipher = Aes128::new(enc_key.as_bytes());
        let payload = cbc_decrypt(&cipher, &self.iv, &self.ciphertext)?;
        let mut rules = RuleSet::decode(&payload)?;
        rules.set_version(self.version);
        Ok(rules)
    }

    /// Serialises the protected rule set (what the DSP stores / the terminal
    /// forwards to the card).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + 16 + 32 + 4 + self.ciphertext.len());
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&self.iv);
        out.extend_from_slice(&self.mac);
        out.extend_from_slice(&(self.ciphertext.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.ciphertext);
        out
    }

    /// Parses a serialised protected rule set.
    pub fn decode(bytes: &[u8]) -> Result<Self, CoreError> {
        let bad = |m: &str| CoreError::BadDocument {
            // alloc: cold — malformed rule blob error path.
            message: format!("protected rules: {m}"),
        };
        if bytes.len() < 8 + 16 + 32 + 4 {
            return Err(bad("truncated"));
        }
        // lint: infallible — the minimum-length check above covers every
        // fixed-width slice here.
        let version = u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"));
        let iv: [u8; 16] = bytes[8..24].try_into().expect("16 bytes"); // lint: infallible — see above
        let mac: [u8; 32] = bytes[24..56].try_into().expect("32 bytes"); // lint: infallible — see above
        let len = u32::from_le_bytes(bytes[56..60].try_into().expect("4 bytes")) as usize; // lint: infallible — see above
        let ciphertext = bytes
            .get(60..60 + len)
            .ok_or_else(|| bad("truncated body"))?
            // alloc: startup — rule blobs decode at provisioning, once per session.
            .to_vec();
        Ok(ProtectedRules {
            version,
            ciphertext,
            iv,
            mac,
        })
    }
}

/// A document key wrapped for a specific card.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyProvisioning {
    /// Identifier the key will have in the card's key ring.
    pub key_id: u32,
    /// Wrapped (encrypted) key material.
    pub wrapped: Vec<u8>,
    /// IV of the wrapping.
    pub iv: [u8; 16],
    /// HMAC over key id, IV and wrapped material.
    pub mac: [u8; 32],
}

impl KeyProvisioning {
    fn mac_input(key_id: u32, iv: &[u8; 16], wrapped: &[u8]) -> Vec<u8> {
        // alloc: startup — key wrapping runs at provisioning, once per key.
        let mut buf = Vec::with_capacity(4 + 16 + wrapped.len());
        buf.extend_from_slice(&key_id.to_le_bytes());
        buf.extend_from_slice(iv);
        buf.extend_from_slice(wrapped);
        buf
    }

    /// Wraps `key` for a card holding `transport_key`.
    // taint: sink — the document key crosses to the card only AES-wrapped
    // and MACed under the per-card transport key.
    pub fn wrap(key_id: u32, key: &SecretKey, transport_key: &SecretKey) -> Self {
        let enc_key = transport_key.subkey("kw-enc");
        let mac_key = transport_key.subkey("kw-mac");
        let iv_material = hmac_sha256(mac_key.as_bytes(), &key_id.to_le_bytes());
        let mut iv = [0u8; 16];
        iv.copy_from_slice(&iv_material[..16]);
        let cipher = Aes128::new(enc_key.as_bytes());
        let wrapped = cbc_encrypt(&cipher, &iv, key.as_bytes());
        let mac = hmac_sha256(mac_key.as_bytes(), &Self::mac_input(key_id, &iv, &wrapped));
        KeyProvisioning {
            key_id,
            wrapped,
            iv,
            mac,
        }
    }

    /// Serialises the provisioning message (forwarded verbatim by the
    /// untrusted terminal in a `PUT_KEY` APDU).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + 16 + 32 + 2 + self.wrapped.len());
        out.extend_from_slice(&self.key_id.to_le_bytes());
        out.extend_from_slice(&self.iv);
        out.extend_from_slice(&self.mac);
        out.extend_from_slice(&(self.wrapped.len() as u16).to_le_bytes());
        out.extend_from_slice(&self.wrapped);
        out
    }

    /// Parses a provisioning message.
    pub fn decode(bytes: &[u8]) -> Result<Self, CoreError> {
        let bad = |m: &str| CoreError::BadDocument {
            // alloc: cold — malformed key blob error path.
            message: format!("key provisioning: {m}"),
        };
        if bytes.len() < 4 + 16 + 32 + 2 {
            return Err(bad("truncated"));
        }
        // lint: infallible — the minimum-length check above covers every
        // fixed-width slice here.
        let key_id = u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes"));
        let iv: [u8; 16] = bytes[4..20].try_into().expect("16 bytes"); // lint: infallible — see above
        let mac: [u8; 32] = bytes[20..52].try_into().expect("32 bytes"); // lint: infallible — see above
        let len = u16::from_le_bytes(bytes[52..54].try_into().expect("2 bytes")) as usize; // lint: infallible — see above
        let wrapped = bytes
            .get(54..54 + len)
            .ok_or_else(|| bad("truncated body"))?
            // alloc: startup — key blobs decode at provisioning, once per key.
            .to_vec();
        Ok(KeyProvisioning {
            key_id,
            wrapped,
            iv,
            mac,
        })
    }

    /// Unwraps the key on the card side.
    // taint: source — recovers the cleartext key inside the SOE after the
    // MAC check; the result never leaves the card.
    pub fn unwrap_key(&self, transport_key: &SecretKey) -> Result<SecretKey, CoreError> {
        let mac_key = transport_key.subkey("kw-mac");
        let expected = hmac_sha256(
            mac_key.as_bytes(),
            &Self::mac_input(self.key_id, &self.iv, &self.wrapped),
        );
        if !verify_mac(&expected, &self.mac) {
            return Err(CryptoError::IntegrityFailure {
                context: "wrapped key".into(),
            }
            .into());
        }
        let enc_key = transport_key.subkey("kw-enc");
        let cipher = Aes128::new(enc_key.as_bytes());
        let material = cbc_decrypt(&cipher, &self.iv, &self.wrapped)?;
        if material.len() != 16 {
            return Err(CoreError::BadDocument {
                message: "wrapped key has a bad length".into(),
            });
        }
        let mut bytes = [0u8; 16];
        bytes.copy_from_slice(&material);
        Ok(SecretKey::from_bytes(bytes))
    }
}

/// The trusted rule issuer / key manager of a community.
// taint: redacted — the derived impl delegates to SecretKey's redacting
// Debug; the rule base is policy text, not key material.
#[derive(Debug)]
pub struct TrustedServer {
    master: SecretKey,
    rules: RuleSet,
}

impl TrustedServer {
    /// Creates a server from a master secret and an initial policy.
    pub fn new(master_secret: &[u8], rules: RuleSet) -> Self {
        TrustedServer {
            master: SecretKey::derive(master_secret, "community-master"),
            rules,
        }
    }

    /// The document encryption key of the community.
    pub fn document_key(&self) -> SecretKey {
        self.master.subkey("documents")
    }

    /// The rule-protection key of the community.
    pub fn rules_key(&self) -> SecretKey {
        self.master.subkey("rules")
    }

    /// The transport key shared with the card of `subject` (stands in for the
    /// PKI-based key exchange which the demo simulates).
    pub fn transport_key_for(&self, subject: &Subject) -> SecretKey {
        self.master.subkey(&format!("transport:{}", subject.name()))
    }

    /// Current policy.
    pub fn rules(&self) -> &RuleSet {
        &self.rules
    }

    /// Mutable access to the policy (each change bumps the version through
    /// [`RuleSet::push`] / [`RuleSet::remove`]).
    pub fn rules_mut(&mut self) -> &mut RuleSet {
        &mut self.rules
    }

    /// Produces the protected rule set for one subject (only that subject's
    /// rules are shipped to its card).
    pub fn protected_rules_for(&self, subject: &Subject) -> ProtectedRules {
        let mut subset = self.rules.subset_for(subject);
        subset.set_version(self.rules.version());
        ProtectedRules::seal(&subset, &self.rules_key())
    }

    /// Produces the wrapped document key for one subject's card.
    pub fn provision_document_key(&self, subject: &Subject, key_id: u32) -> KeyProvisioning {
        KeyProvisioning::wrap(
            key_id,
            &self.document_key(),
            &self.transport_key_for(subject),
        )
    }

    /// Produces the wrapped rule-protection key for one subject's card.
    pub fn provision_rules_key(&self, subject: &Subject, key_id: u32) -> KeyProvisioning {
        KeyProvisioning::wrap(key_id, &self.rules_key(), &self.transport_key_for(subject))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::Sign;

    fn rules() -> RuleSet {
        RuleSet::parse("+, doctor, //patient\n-, doctor, //ssn\n+, nurse, //patient/name").unwrap()
    }

    #[test]
    fn protected_rules_roundtrip() {
        let key = SecretKey::derive(b"secret", "rules");
        let mut set = rules();
        set.set_version(3);
        let sealed = ProtectedRules::seal(&set, &key);
        assert_eq!(sealed.version, 3);
        let opened = sealed.open(&key, None).unwrap();
        assert_eq!(opened.len(), 3);
        assert_eq!(opened.version(), 3);
        // Wire roundtrip too.
        let decoded = ProtectedRules::decode(&sealed.encode()).unwrap();
        assert_eq!(decoded, sealed);
        assert!(ProtectedRules::decode(&sealed.encode()[..20]).is_err());
    }

    #[test]
    fn protected_rules_detect_tampering_and_wrong_key() {
        let key = SecretKey::derive(b"secret", "rules");
        let sealed = ProtectedRules::seal(&rules(), &key);
        let mut tampered = sealed.clone();
        tampered.ciphertext[4] ^= 1;
        assert!(tampered.open(&key, None).is_err());
        let mut tampered = sealed.clone();
        tampered.version += 1;
        assert!(tampered.open(&key, None).is_err());
        let other = SecretKey::derive(b"other", "rules");
        assert!(sealed.open(&other, None).is_err());
    }

    #[test]
    fn rollback_protection_rejects_stale_versions() {
        let key = SecretKey::derive(b"secret", "rules");
        let mut old = rules();
        old.set_version(2);
        let mut new = rules();
        new.push(Sign::Deny, "nurse", "//diagnosis").unwrap();
        new.set_version(5);
        let sealed_old = ProtectedRules::seal(&old, &key);
        let sealed_new = ProtectedRules::seal(&new, &key);
        // Installing the new one after the old one is fine.
        assert!(sealed_new.open(&key, Some(2)).is_ok());
        // Re-installing the old one after the new one is a rollback.
        assert!(sealed_old.open(&key, Some(5)).is_err());
        // Same version is accepted (idempotent refresh).
        assert!(sealed_new.open(&key, Some(5)).is_ok());
    }

    #[test]
    fn rule_blob_ivs_differ_across_subjects_and_repeat_on_reseal() {
        let server = TrustedServer::new(b"community", rules());
        let doctor = server.protected_rules_for(&Subject::new("doctor"));
        let nurse = server.protected_rules_for(&Subject::new("nurse"));
        assert_eq!(doctor.version, nurse.version);
        assert_ne!(doctor.iv, nurse.iv, "one key, one version, two payloads");
        let again = server.protected_rules_for(&Subject::new("doctor"));
        assert_eq!(again.encode(), doctor.encode());
    }

    #[test]
    fn key_provisioning_roundtrip_and_tamper_detection() {
        let transport = SecretKey::derive(b"pki-sim", "card-42");
        let doc_key = SecretKey::derive(b"secret", "documents");
        let wrapped = KeyProvisioning::wrap(7, &doc_key, &transport);
        assert_eq!(wrapped.key_id, 7);
        let unwrapped = wrapped.unwrap_key(&transport).unwrap();
        assert_eq!(unwrapped, doc_key);
        let mut tampered = wrapped.clone();
        tampered.wrapped[0] ^= 1;
        assert!(tampered.unwrap_key(&transport).is_err());
        let wrong = SecretKey::derive(b"pki-sim", "card-43");
        assert!(wrapped.unwrap_key(&wrong).is_err());
    }

    #[test]
    fn trusted_server_provisions_subject_specific_material() {
        let mut server = TrustedServer::new(b"community", rules());
        let doctor = Subject::new("doctor");
        let nurse = Subject::new("nurse");

        let doctor_rules = server
            .protected_rules_for(&doctor)
            .open(&server.rules_key(), None)
            .unwrap();
        assert_eq!(doctor_rules.len(), 2);
        let nurse_rules = server
            .protected_rules_for(&nurse)
            .open(&server.rules_key(), None)
            .unwrap();
        assert_eq!(nurse_rules.len(), 1);

        // Key provisioning: each card unwraps with its own transport key.
        let kp = server.provision_document_key(&doctor, 1);
        let unwrapped = kp.unwrap_key(&server.transport_key_for(&doctor)).unwrap();
        assert_eq!(unwrapped, server.document_key());
        assert!(kp.unwrap_key(&server.transport_key_for(&nurse)).is_err());

        // A policy change bumps the version seen by every subject.
        let v0 = server.rules().version();
        server
            .rules_mut()
            .push(Sign::Deny, "doctor", "//address")
            .unwrap();
        assert!(server.rules().version() > v0);
        let refreshed = server
            .protected_rules_for(&doctor)
            .open(&server.rules_key(), Some(v0))
            .unwrap();
        assert_eq!(refreshed.len(), 3);
        // Crucially: the documents themselves are untouched — no re-encryption,
        // no key redistribution (the document key is unchanged).
        assert_eq!(server.document_key(), server.document_key());
    }
}
