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

use std::sync::Arc;

use sdds_crypto::siv::SIV_TAG_LEN;
use sdds_crypto::{SecretKey, SivKey};

use crate::error::CoreError;
use crate::rule::{RuleSet, Subject};

/// An encrypted, authenticated, versioned rule set: the serialised rule set
/// sealed with SIV ([`SivKey`]) under the rule-protection key, with the
/// version as associated data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtectedRules {
    /// Version carried outside the ciphertext so the SOE can reject stale
    /// updates before paying for decryption; it is also bound inside the tag.
    pub version: u64,
    /// CTR ciphertext of the serialised rule set, as long as it.
    pub ciphertext: Vec<u8>,
    /// SIV tag over version and rule set; its first 16 bytes are the IV.
    pub tag: [u8; SIV_TAG_LEN],
}

/// Bytes of an encoded [`ProtectedRules`] before its ciphertext.
pub(crate) const RULES_PREFIX: usize = 8 + SIV_TAG_LEN;

impl ProtectedRules {
    /// Seals `rules` under `key` (the rule-protection key of the community).
    /// Sealing is deterministic: the IV is synthetic, so two subjects'
    /// subsets of one version get two IVs, and resealing one subset repeats
    /// its blob byte for byte.
    // Cleartext rules leave here only as an encrypted, tagged
    // blob the DSP can store but not read.
    pub fn seal(rules: &RuleSet, key: &SecretKey) -> Self {
        let version = rules.version();
        let mut ciphertext = rules.encode();
        let tag = SivKey::new(key).seal_in_place(&version.to_le_bytes(), &mut ciphertext);
        ProtectedRules {
            version,
            ciphertext,
            tag,
        }
    }

    /// Opens a protected rule set, verifying authenticity and (optionally)
    /// that it is **not older** than `minimum_version` (rollback protection).
    /// A blob that fails its tag is never decoded: the error is
    /// [`sdds_crypto::CryptoError::IntegrityFailure`].
    pub fn open(
        &self,
        key: &SecretKey,
        minimum_version: Option<u64>,
    ) -> Result<RuleSet, CoreError> {
        if let Some(min) = minimum_version {
            if self.version < min {
                return Err(CoreError::BadState {
                    message: format!(
                        "rule set version {} is older than the installed version {min} (rollback rejected)",
                        self.version
                    ),
                });
            }
        }
        let mut payload = self.ciphertext.clone();
        SivKey::new(key).open_in_place(
            &self.version.to_le_bytes(),
            &self.tag,
            &mut payload,
            "protected rule set",
        )?;
        let mut rules = RuleSet::decode(&payload)?;
        rules.set_version(self.version);
        Ok(rules)
    }

    /// Serialises the protected rule set (what the DSP stores / the terminal
    /// forwards to the card): `version(8) ‖ tag(32) ‖ ciphertext`.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(RULES_PREFIX + self.ciphertext.len());
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&self.tag);
        out.extend_from_slice(&self.ciphertext);
        out
    }

    /// Parses a serialised protected rule set: everything after the tag is
    /// ciphertext.
    pub fn decode(bytes: &[u8]) -> Result<Self, CoreError> {
        let (Some(version), Some(tag), Some(ciphertext)) = (
            bytes.get(..8),
            bytes.get(8..RULES_PREFIX),
            bytes.get(RULES_PREFIX..),
        ) else {
            return Err(CoreError::BadDocument {
                message: "protected rules: truncated".into(),
            });
        };
        Ok(ProtectedRules {
            // lint: infallible — both slices were taken at their exact widths.
            version: u64::from_le_bytes(version.try_into().expect("8 bytes")),
            tag: tag.try_into().expect("tag"), // lint: infallible — see above
            ciphertext: ciphertext.to_vec(),
        })
    }
}

/// The stored form of a blob: the DSP keeps and serves rule blobs as opaque
/// shared bytes, so `DspService::put_rules` takes anything that converts
/// into them.
impl From<&ProtectedRules> for Arc<[u8]> {
    fn from(rules: &ProtectedRules) -> Self {
        rules.encode().into()
    }
}

/// A document key wrapped for a specific card: the key sealed with SIV
/// ([`SivKey`]) under the card's transport key, with the key id as
/// associated data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyProvisioning {
    /// Identifier the key will have in the card's key ring.
    pub key_id: u32,
    /// Wrapped (CTR-encrypted) key material.
    pub wrapped: [u8; 16],
    /// SIV tag over key id and key; its first 16 bytes are the IV.
    pub tag: [u8; SIV_TAG_LEN],
}

/// Length of an encoded [`KeyProvisioning`].
const KEY_WRAP_LEN: usize = 4 + SIV_TAG_LEN + 16;

impl KeyProvisioning {
    /// Wraps `key` for a card holding `transport_key`.
    // The document key crosses to the card only sealed under
    // the per-card transport key.
    pub fn wrap(key_id: u32, key: &SecretKey, transport_key: &SecretKey) -> Self {
        let mut wrapped = *key.as_bytes();
        let tag = SivKey::new(transport_key).seal_in_place(&key_id.to_le_bytes(), &mut wrapped);
        KeyProvisioning {
            key_id,
            wrapped,
            tag,
        }
    }

    /// Serialises the provisioning message (forwarded verbatim by the
    /// untrusted terminal in a `PUT_KEY` APDU): `key_id(4) ‖ tag(32) ‖
    /// wrapped(16)`.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(KEY_WRAP_LEN);
        out.extend_from_slice(&self.key_id.to_le_bytes());
        out.extend_from_slice(&self.tag);
        out.extend_from_slice(&self.wrapped);
        out
    }

    /// Parses a provisioning message, which has exactly one length.
    pub fn decode(bytes: &[u8]) -> Result<Self, CoreError> {
        if bytes.len() != KEY_WRAP_LEN {
            return Err(CoreError::BadDocument {
                message: format!(
                    "key provisioning: {} bytes, expected {KEY_WRAP_LEN}",
                    bytes.len()
                ),
            });
        }
        Ok(KeyProvisioning {
            // lint: infallible — the length check above fixes every slice width.
            key_id: u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes")),
            tag: bytes[4..4 + SIV_TAG_LEN].try_into().expect("tag"), // lint: infallible — see above
            wrapped: bytes[4 + SIV_TAG_LEN..].try_into().expect("16 bytes"), // lint: infallible — see above
        })
    }

    /// Unwraps the key on the card side. A wrap that fails its tag fails
    /// with [`sdds_crypto::CryptoError::IntegrityFailure`].
    // Recovers the cleartext key inside the SOE after the
    // tag check; the result never leaves the card.
    pub fn unwrap_key(&self, transport_key: &SecretKey) -> Result<SecretKey, CoreError> {
        let mut bytes = self.wrapped;
        SivKey::new(transport_key).open_in_place(
            &self.key_id.to_le_bytes(),
            &self.tag,
            &mut bytes,
            "wrapped key",
        )?;
        Ok(SecretKey::from_bytes(bytes))
    }
}

/// The trusted rule issuer / key manager of a community.
// lint: redacted — the derived impl delegates to SecretKey's redacting
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
    use sdds_crypto::CryptoError;

    fn rules() -> RuleSet {
        RuleSet::parse("+, doctor, //patient\n-, doctor, //ssn\n+, nurse, //patient/name").unwrap()
    }

    /// True for the one error a forged blob or key wrap may end in.
    fn is_integrity_failure<T>(result: &Result<T, CoreError>) -> bool {
        matches!(
            result,
            Err(CoreError::Crypto(CryptoError::IntegrityFailure { .. }))
        )
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
        assert!(is_integrity_failure(&tampered.open(&key, None)));
        let mut tampered = sealed.clone();
        tampered.version += 1;
        assert!(is_integrity_failure(&tampered.open(&key, None)));
        let other = SecretKey::derive(b"other", "rules");
        assert!(is_integrity_failure(&sealed.open(&other, None)));
    }

    #[test]
    fn every_prefix_and_bit_flip_of_a_rule_blob_opens_or_fails_typed() {
        let key = SecretKey::derive(b"secret", "rules");
        let mut set = rules();
        set.set_version(9);
        let valid = ProtectedRules::seal(&set, &key).encode();
        let open = |bytes: &[u8]| ProtectedRules::decode(bytes)?.open(&key, None);
        assert_eq!(open(&valid).unwrap(), set);
        for len in 0..valid.len() {
            let opened = open(&valid[..len]);
            if len < RULES_PREFIX {
                assert!(
                    matches!(opened, Err(CoreError::BadDocument { .. })),
                    "prefix {len}: {opened:?}"
                );
            } else {
                assert!(is_integrity_failure(&opened), "prefix {len}: {opened:?}");
            }
        }
        // Version, tag and ciphertext are all sealed: every flip fails the
        // tag, never the rule-set decoder.
        for bit in 0..valid.len() * 8 {
            let mut flipped = valid.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let opened = open(&flipped);
            assert!(is_integrity_failure(&opened), "bit {bit}: {opened:?}");
        }
    }

    #[test]
    fn every_prefix_and_bit_flip_of_a_key_wrap_opens_or_fails_typed() {
        let transport = SecretKey::derive(b"pki-sim", "card-42");
        let doc_key = SecretKey::derive(b"secret", "documents");
        let valid = KeyProvisioning::wrap(3, &doc_key, &transport).encode();
        let unwrap = |bytes: &[u8]| KeyProvisioning::decode(bytes)?.unwrap_key(&transport);
        assert_eq!(unwrap(&valid).unwrap(), doc_key);
        let mut longer = valid.clone();
        longer.push(0);
        for input in (0..valid.len())
            .map(|len| &valid[..len])
            .chain([&longer[..]])
        {
            let unwrapped = unwrap(input);
            assert!(
                matches!(unwrapped, Err(CoreError::BadDocument { .. })),
                "{} bytes: {unwrapped:?}",
                input.len()
            );
        }
        for bit in 0..valid.len() * 8 {
            let mut flipped = valid.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let unwrapped = unwrap(&flipped);
            assert!(is_integrity_failure(&unwrapped), "bit {bit}: {unwrapped:?}");
        }
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
        // The SIV IV is the first half of the tag.
        assert_ne!(
            doctor.tag[..16],
            nurse.tag[..16],
            "one key, one version, two payloads"
        );
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
        assert!(is_integrity_failure(&tampered.unwrap_key(&transport)));
        let mut tampered = wrapped.clone();
        tampered.key_id = 8;
        assert!(is_integrity_failure(&tampered.unwrap_key(&transport)));
        let wrong = SecretKey::derive(b"pki-sim", "card-43");
        assert!(is_integrity_failure(&wrapped.unwrap_key(&wrong)));
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
