//! Key material: symmetric secrets and their deterministic derivation.
//!
//! "Access control policies as well as the key(s) required to decrypt the
//! document can be either permanently hosted by the SOE, refreshed or
//! downloaded via a secure channel" (§2.1). Per-document and per-purpose
//! keys are derived deterministically from community secrets.

use crate::poly1305::PolyAesKey;

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

/// A master key scheduled for key derivation: a PRF in the style of NIST
/// SP 800-108 built from AES alone. The master's AES schedule draws the
/// four parts of a [`PolyAesKey`] once (AES under the master of the blocks
/// 0 to 3), and the key derived for a label is the first 16 bytes of that
/// key's tag of the label: one Poly1305 pass over the label and two AES
/// blocks, computed into a fixed array.
#[derive(Clone)]
pub struct KeyDeriver {
    prf: PolyAesKey,
}

impl std::fmt::Debug for KeyDeriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("KeyDeriver(<redacted>)")
    }
}

impl KeyDeriver {
    /// Schedules `master` for derivation. A 16-byte master is the AES key
    /// itself. A seed of any other length, such as the demo's
    /// `SecretKey::derive(b"hospital-2005", …)`, is first compressed to a
    /// key by this same derivation under the all-zero key, taken over the
    /// whole seed. That compression is public, fast and unsalted: it is no
    /// password KDF, and a seed that can be guessed falls to a guessing
    /// attack at AES speed. Seeds must be high-entropy secrets.
    pub fn new(master: &[u8]) -> Self {
        let key = match <&[u8; 16]>::try_from(master) {
            Ok(key) => *key,
            Err(_) => KeyDeriver::new(&[0; 16]).derive(master),
        };
        KeyDeriver {
            prf: PolyAesKey::from_key(&key),
        }
    }

    /// The first 16 bytes of the PRF's tag of `input`.
    fn derive(&self, input: &[u8]) -> [u8; 16] {
        let mut bytes = [0u8; 16];
        bytes.copy_from_slice(&self.prf.tag(input)[..16]);
        bytes
    }

    /// The key derived for `label`.
    pub fn subkey(&self, label: &str) -> SecretKey {
        SecretKey {
            bytes: self.derive(label.as_bytes()),
        }
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

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The derivation written out from the block cipher and the tag key:
    /// parts `AES_master(i)` for the blocks `i = 0..3` (index in byte 0),
    /// then the first half of the two-lane tag of `input`.
    fn written_out(master: &[u8; 16], input: &[u8]) -> [u8; 16] {
        let aes = crate::Aes128::new(master);
        let parts: [[u8; 16]; 4] = std::array::from_fn(|i| {
            let mut block = [0u8; 16];
            block[0] = i as u8;
            aes.encrypt_block(&mut block);
            block
        });
        let prf = PolyAesKey::new([&parts[0], &parts[1]], [&parts[2], &parts[3]]);
        let mut poly = prf.start();
        poly.update(input);
        let mut out = [0u8; 16];
        out.copy_from_slice(&prf.finish(poly)[..16]);
        out
    }

    #[test]
    fn subkeys_match_the_pinned_derivation() {
        // Known answers of the derivation documents and rule blobs are
        // sealed with: a faster derivation must reproduce them byte for
        // byte, or every stored document and rule blob becomes unreadable.
        const LABELS: [&str; 5] = ["doc-mac", "doc-enc", "doc-int", "doc-nonce", "rules"];
        let pinned: [(&[u8], &str, [&str; 5]); 2] = [
            (
                b"community-secret",
                "97a2679dd5d7d96e8107bff46419ffdb",
                [
                    "4f3639b690f1593d5bf85f0f675bce57",
                    "bab65b49cc10e15a5520fd05efd85d40",
                    "c89372fe228738c1b1e0916fb76ebc92",
                    "0b78d117115e972ea5277b1d11987126",
                    "5eb5d535f9c45fffb555ac10012c91c1",
                ],
            ),
            (
                &[0x5A; 16],
                "8904447c52702eba020510b77c652253",
                [
                    "268ffb41579919b48c552e56d62a169f",
                    "4ed8dacbac08d26c19101452de5aedcb",
                    "a34e3f10f9156535873e76593e35c0ad",
                    "be88b1ec6ff9c334525135dc5e9d2cdb",
                    "55863ce2e7b90ff29554011ce5d5c155",
                ],
            ),
        ];
        for (secret, master_answer, answers) in pinned {
            let master = SecretKey::derive(secret, "documents");
            assert_eq!(hex(master.as_bytes()), master_answer);
            // A 16-byte secret is the key itself; any other length is
            // compressed under the all-zero key first.
            let seed_key = match <&[u8; 16]>::try_from(secret) {
                Ok(key) => *key,
                Err(_) => written_out(&[0; 16], secret),
            };
            assert_eq!(written_out(&seed_key, b"documents"), *master.as_bytes());
            let deriver = master.deriver();
            for (label, answer) in LABELS.iter().zip(answers) {
                let subkey = deriver.subkey(label);
                assert_eq!(hex(subkey.as_bytes()), answer, "{label}");
                assert_eq!(master.subkey(label), subkey);
                assert_eq!(
                    written_out(master.as_bytes(), label.as_bytes()),
                    *subkey.as_bytes()
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
}
