//! Deterministic authenticated encryption in the SIV style (Rogaway and
//! Shrimpton, *Deterministic Authenticated-Encryption*, EUROCRYPT 2006):
//! the tag of the associated data and the plaintext is also the IV.
//!
//! For associated data `A` and plaintext `P`:
//!
//! * `T = PolyAes(len(A) ‖ len(P) ‖ A ‖ P)`, 32 bytes, both lengths as
//!   8-byte little-endian integers, so the boundary between `A` and `P` is
//!   unambiguous;
//! * `IV = T[..16]`;
//! * `C = CTR(IV, P)`, exactly as long as `P`: no IV field and no padding.
//!
//! Opening runs CTR first, then recomputes the tag over the recovered
//! plaintext and compares it in constant time. A message whose tag fails
//! is zeroed before [`SivKey::open_in_place`] returns, so nothing of it is
//! ever decoded. Equal inputs seal to equal outputs, and that equality is
//! all the sealed form reveals. ARCHITECTURE.md ("What protects a document
//! at the DSP") gives the security bound.

use crate::aes::Aes128;
use crate::error::CryptoError;
use crate::keys::SecretKey;
use crate::modes::ctr_apply;
use crate::poly1305::{verify_mac, PolyAesKey};

/// Length of a SIV tag in bytes.
pub const SIV_TAG_LEN: usize = 32;

/// A SIV key, scheduled once: the tag key and the CTR cipher.
#[derive(Clone)]
pub struct SivKey {
    mac: PolyAesKey,
    ctr: Aes128,
}

impl std::fmt::Debug for SivKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SivKey(<redacted>)")
    }
}

impl SivKey {
    /// Schedules the SIV key of `key`: AES under `key` of the blocks 4 to 8
    /// gives the tag key's parts `r1`, `r2`, `k1`, `k2` and the CTR key. A
    /// [`crate::KeyDeriver`] of the same key draws the blocks 0 to 3, so the
    /// two never share a part.
    pub fn new(key: &SecretKey) -> Self {
        let [r1, r2, k1, k2, ctr] = Aes128::new(key.as_bytes()).key_parts(4);
        SivKey {
            mac: PolyAesKey::new([&r1, &r2], [&k1, &k2]),
            ctr: Aes128::new(&ctr),
        }
    }

    fn tag(&self, associated: &[u8], plaintext: &[u8]) -> [u8; SIV_TAG_LEN] {
        let mut poly = self.mac.start();
        poly.update(&(associated.len() as u64).to_le_bytes());
        poly.update(&(plaintext.len() as u64).to_le_bytes());
        poly.update(associated);
        poly.update(plaintext);
        self.mac.finish(poly)
    }

    /// CTR over `data` from the IV the tag carries.
    fn ctr(&self, tag: &[u8; SIV_TAG_LEN], data: &mut [u8]) {
        let mut iv = [0u8; 16];
        iv.copy_from_slice(&tag[..16]);
        ctr_apply(&self.ctr, &iv, data);
    }

    /// Seals `data` in place under `associated` data: on return `data`
    /// holds the ciphertext, and the tag is returned.
    pub fn seal_in_place(&self, associated: &[u8], data: &mut [u8]) -> [u8; SIV_TAG_LEN] {
        let tag = self.tag(associated, data);
        self.ctr(&tag, data);
        tag
    }

    /// Opens a ciphertext in place: on success `data` holds the plaintext.
    /// On a tag mismatch `data` is zeroed and the error is
    /// [`CryptoError::IntegrityFailure`] naming `what`.
    pub fn open_in_place(
        &self,
        associated: &[u8],
        tag: &[u8; SIV_TAG_LEN],
        data: &mut [u8],
        what: &str,
    ) -> Result<(), CryptoError> {
        self.ctr(tag, data);
        if verify_mac(&self.tag(associated, data), tag) {
            Ok(())
        } else {
            data.fill(0);
            Err(CryptoError::IntegrityFailure {
                context: what.to_owned(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> SivKey {
        SivKey::new(&SecretKey::from_bytes([0x42; 16]))
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn sealed(key: &SivKey, associated: &[u8], plaintext: &[u8]) -> ([u8; 32], Vec<u8>) {
        let mut data = plaintext.to_vec();
        let tag = key.seal_in_place(associated, &mut data);
        (tag, data)
    }

    #[test]
    fn seal_matches_the_construction_written_out_and_its_pin() {
        let secret = [0x42u8; 16];
        let (associated, plaintext) = (&b"version 7"[..], &b"+, doctor, //patient"[..]);
        // Parts: AES under the key of the blocks 4 to 8, index in byte 0.
        let aes = Aes128::new(&secret);
        let part = |i: u8| {
            let mut block = [0u8; 16];
            block[0] = i;
            aes.encrypt_block(&mut block);
            block
        };
        let mac = PolyAesKey::new([&part(4), &part(5)], [&part(6), &part(7)]);
        let mut input = Vec::new();
        input.extend_from_slice(&(associated.len() as u64).to_le_bytes());
        input.extend_from_slice(&(plaintext.len() as u64).to_le_bytes());
        input.extend_from_slice(associated);
        input.extend_from_slice(plaintext);
        let tag = mac.tag(&input);
        let mut ciphertext = plaintext.to_vec();
        let iv: [u8; 16] = tag[..16].try_into().unwrap();
        ctr_apply(&Aes128::new(&part(8)), &iv, &mut ciphertext);

        let (got_tag, got_ciphertext) = sealed(&key(), associated, plaintext);
        assert_eq!(got_tag, tag);
        assert_eq!(got_ciphertext, ciphertext);
        assert_eq!(
            hex(&got_tag),
            "398e5ffcfb04024c0d8fdcb98114fd88a6a59e0405149e300c9fe1691ba61ae3"
        );
        assert_eq!(
            hex(&got_ciphertext),
            "c2a00422df2cb0d16b26e54afb1c71d213371843"
        );
    }

    #[test]
    fn roundtrip_at_every_length_and_deterministic() {
        let key = key();
        for len in [0usize, 1, 15, 16, 17, 31, 32, 100] {
            let plaintext: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let (tag, mut data) = sealed(&key, b"ad", &plaintext);
            assert_eq!(data.len(), len, "no padding");
            assert_eq!(sealed(&key, b"ad", &plaintext), (tag, data.clone()));
            key.open_in_place(b"ad", &tag, &mut data, "test").unwrap();
            assert_eq!(data, plaintext);
        }
        // Another plaintext or associated data gives another IV.
        let (a, _) = sealed(&key, b"ad", b"one");
        let (b, _) = sealed(&key, b"ad", b"two");
        let (c, _) = sealed(&key, b"da", b"one");
        assert_ne!(a[..16], b[..16]);
        assert_ne!(a[..16], c[..16]);
    }

    #[test]
    fn every_flip_fails_with_the_integrity_error_and_zeroes_the_buffer() {
        let key = key();
        let (associated, plaintext) = (b"key id 7".to_vec(), b"sixteen byte key".to_vec());
        let (tag, ciphertext) = sealed(&key, &associated, &plaintext);
        let opens = |associated: &[u8], tag: &[u8; 32], ciphertext: &[u8]| {
            let mut data = ciphertext.to_vec();
            let result = key.open_in_place(associated, tag, &mut data, "blob");
            if result.is_err() {
                assert!(data.iter().all(|&b| b == 0), "unverified plaintext left");
            }
            result
        };
        let integrity = |r: Result<(), CryptoError>| matches!(r, Err(CryptoError::IntegrityFailure { context }) if context == "blob");
        for bit in 0..associated.len() * 8 {
            let mut flipped = associated.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert!(
                integrity(opens(&flipped, &tag, &ciphertext)),
                "ad bit {bit}"
            );
        }
        for bit in 0..SIV_TAG_LEN * 8 {
            let mut flipped = tag;
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert!(
                integrity(opens(&associated, &flipped, &ciphertext)),
                "tag bit {bit}"
            );
        }
        for bit in 0..ciphertext.len() * 8 {
            let mut flipped = ciphertext.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert!(
                integrity(opens(&associated, &tag, &flipped)),
                "ct bit {bit}"
            );
        }
        // The lengths fix the boundary: the same bytes split differently
        // between associated data and plaintext do not open.
        let (tag, ciphertext) = sealed(&key, b"ab", b"c");
        let mut moved = b"bc".to_vec();
        key.ctr(&tag, &mut moved);
        assert!(integrity(opens(b"a", &tag, &moved)));
        // Another key fails too.
        let other = SivKey::new(&SecretKey::from_bytes([0x43; 16]));
        let mut data = ciphertext;
        assert!(other.open_in_place(b"ab", &tag, &mut data, "blob").is_err());
        assert_eq!(format!("{other:?}"), "SivKey(<redacted>)");
    }
}
