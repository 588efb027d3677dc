//! Key material and the key ring held in the SOE's secure stable storage.
//!
//! "Access control policies as well as the key(s) required to decrypt the
//! document can be either permanently hosted by the SOE, refreshed or
//! downloaded via a secure channel" (§2.1). The [`KeyRing`] models the small
//! secure stable memory of the card dedicated to secrets: a bounded set of
//! named symmetric keys, from which per-document and per-purpose keys are
//! derived deterministically.

use std::collections::BTreeMap;

use crate::error::CryptoError;
use crate::hmac::HmacKey;

/// Identifier of a key inside a [`KeyRing`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct KeyId(pub u32);

/// A 128-bit symmetric secret.
#[derive(Clone, PartialEq, Eq)]
pub struct SecretKey {
    bytes: [u8; 16],
}

impl std::fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SecretKey(<redacted>)")
    }
}

impl SecretKey {
    /// Wraps raw key bytes.
    pub fn from_bytes(bytes: [u8; 16]) -> Self {
        SecretKey { bytes }
    }

    /// Derives a key deterministically from a passphrase-like secret and a
    /// label. Used by the simulated PKI to agree on community keys.
    pub fn derive(master: &[u8], label: &str) -> Self {
        KeyDeriver::new(master).subkey(label)
    }

    /// Returns the raw bytes (only the crypto layer should need them).
    // The raw key bytes: every caller is a cipher or MAC
    // primitive in this crate or a key-wrapping boundary fn.
    pub fn as_bytes(&self) -> &[u8; 16] {
        &self.bytes
    }

    /// Derives a sub-key for a specific purpose (e.g. `"enc"` vs `"mac"`).
    /// A site that derives several sub-keys of one key should schedule it
    /// once with [`SecretKey::deriver`].
    pub fn subkey(&self, purpose: &str) -> SecretKey {
        self.deriver().subkey(purpose)
    }

    /// Schedules this key for sub-key derivation.
    pub fn deriver(&self) -> KeyDeriver {
        KeyDeriver::new(&self.bytes)
    }
}

/// A master secret scheduled for key derivation: its HMAC pads are absorbed
/// once, and each derived key then costs one HMAC of its label, computed
/// into a fixed array. The output is the first 16 bytes of
/// [`crate::hmac::derive_key`]'s expansion, `HMAC(master, label ‖ 0x01)`.
#[derive(Clone)]
pub struct KeyDeriver {
    mac: HmacKey,
}

impl std::fmt::Debug for KeyDeriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("KeyDeriver(<redacted>)")
    }
}

impl KeyDeriver {
    /// Schedules `master` for derivation.
    pub fn new(master: &[u8]) -> Self {
        KeyDeriver {
            mac: HmacKey::new(master),
        }
    }

    /// The key derived for `label`.
    pub fn subkey(&self, label: &str) -> SecretKey {
        let mut inner = self.mac.start();
        inner.update(label.as_bytes());
        inner.update(&[1]);
        let mut bytes = [0u8; 16];
        bytes.copy_from_slice(&self.mac.finish(inner)[..16]);
        SecretKey { bytes }
    }
}

/// The bounded key store of the SOE.
// lint: redacted — the derived impl shows key ids and capacity only;
// SecretKey's own Debug redacts the bytes.
#[derive(Debug, Default)]
pub struct KeyRing {
    keys: BTreeMap<KeyId, SecretKey>,
    capacity: Option<usize>,
}

impl KeyRing {
    /// Creates an unbounded key ring (used by servers and test fixtures).
    pub fn new() -> Self {
        KeyRing::default()
    }

    /// Creates a key ring bounded to `capacity` keys, mimicking the card's
    /// limited secure stable memory.
    pub fn with_capacity(capacity: usize) -> Self {
        KeyRing {
            keys: BTreeMap::new(),
            capacity: Some(capacity),
        }
    }

    /// Installs or replaces a key. Returns an error if the ring is full and
    /// the key id is new.
    pub fn install(&mut self, id: KeyId, key: SecretKey) -> Result<(), CryptoError> {
        if let Some(cap) = self.capacity {
            if !self.keys.contains_key(&id) && self.keys.len() >= cap {
                return Err(CryptoError::UnknownKey { key_id: id.0 });
            }
        }
        self.keys.insert(id, key);
        Ok(())
    }

    /// Removes a key (e.g. when a user is revoked from a community).
    pub fn revoke(&mut self, id: KeyId) -> bool {
        self.keys.remove(&id).is_some()
    }

    /// Fetches a key.
    pub fn get(&self, id: KeyId) -> Result<&SecretKey, CryptoError> {
        self.keys
            .get(&id)
            .ok_or(CryptoError::UnknownKey { key_id: id.0 })
    }

    /// True if the key is present.
    pub fn contains(&self, id: KeyId) -> bool {
        self.keys.contains_key(&id)
    }

    /// Number of installed keys.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True if no key is installed.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Bytes of secure stable storage consumed by the ring (16 bytes per key
    /// plus a 4-byte id), used by the card's EEPROM budget accounting.
    pub fn storage_bytes(&self) -> usize {
        self.keys.len() * (16 + 4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_is_deterministic_and_label_dependent() {
        let a = SecretKey::derive(b"community-secret", "doc");
        let b = SecretKey::derive(b"community-secret", "doc");
        let c = SecretKey::derive(b"community-secret", "rules");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a.subkey("enc"), a.subkey("mac"));
        assert_eq!(a.subkey("enc"), b.subkey("enc"));
    }

    #[test]
    fn subkeys_match_the_pinned_derivation() {
        // Known answers of the derivation as documents and rule blobs were
        // first sealed with it (`derive_key(master, label, 16)`): a faster
        // derivation must reproduce them byte for byte, or every stored
        // document and rule blob becomes unreadable.
        const LABELS: [&str; 5] = ["doc-mac", "doc-enc", "doc-int", "rules-mac", "rules-enc"];
        let pinned: [(&[u8], [&str; 5]); 2] = [
            (
                b"community-secret",
                [
                    "ca30c0d8eab6e073e8903ca2becf577f",
                    "fde9c380d578c306164307b83b256742",
                    "461386f8fa4315172c266641db991c75",
                    "9018c96533a0bd73e84cd9bcdf3fb3ae",
                    "402aeb4f2ffbf7d152a7a5ba2342164c",
                ],
            ),
            (
                &[0x5A; 16],
                [
                    "49e361f499017d9ac0ac17405bd40d88",
                    "251a83add1f420979428af9067478675",
                    "b62659d283f141787301bb9cfe89e070",
                    "1afb09a5ebc0b07381311721911fe5a9",
                    "cd963998b2ded3a7494df6febc41a45b",
                ],
            ),
        ];
        for (secret, answers) in pinned {
            let master = SecretKey::derive(secret, "documents");
            let deriver = master.deriver();
            for (label, answer) in LABELS.iter().zip(answers) {
                let subkey = deriver.subkey(label);
                assert_eq!(crate::sha256::to_hex(subkey.as_bytes()), answer, "{label}");
                assert_eq!(master.subkey(label), subkey);
                assert_eq!(
                    crate::hmac::derive_key(master.as_bytes(), label, 16),
                    subkey.as_bytes()
                );
            }
            assert_eq!(format!("{deriver:?}"), "KeyDeriver(<redacted>)");
        }
    }

    #[test]
    fn debug_never_prints_key_bytes() {
        let k = SecretKey::from_bytes([0xEE; 16]);
        assert!(!format!("{k:?}").contains("238"));
        assert!(format!("{k:?}").contains("redacted"));
    }

    #[test]
    fn ring_install_get_revoke() {
        let mut ring = KeyRing::new();
        assert!(ring.is_empty());
        ring.install(KeyId(1), SecretKey::from_bytes([1; 16]))
            .unwrap();
        ring.install(KeyId(2), SecretKey::from_bytes([2; 16]))
            .unwrap();
        assert_eq!(ring.len(), 2);
        assert!(ring.contains(KeyId(1)));
        assert_eq!(ring.get(KeyId(2)).unwrap().as_bytes()[0], 2);
        assert!(matches!(
            ring.get(KeyId(3)),
            Err(CryptoError::UnknownKey { key_id: 3 })
        ));
        assert!(ring.revoke(KeyId(1)));
        assert!(!ring.revoke(KeyId(1)));
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.storage_bytes(), 20);
    }

    #[test]
    fn bounded_ring_enforces_capacity() {
        let mut ring = KeyRing::with_capacity(2);
        ring.install(KeyId(1), SecretKey::from_bytes([1; 16]))
            .unwrap();
        ring.install(KeyId(2), SecretKey::from_bytes([2; 16]))
            .unwrap();
        assert!(ring
            .install(KeyId(3), SecretKey::from_bytes([3; 16]))
            .is_err());
        // Replacing an existing key is always allowed.
        ring.install(KeyId(2), SecretKey::from_bytes([9; 16]))
            .unwrap();
        assert_eq!(ring.get(KeyId(2)).unwrap().as_bytes()[0], 9);
    }
}
