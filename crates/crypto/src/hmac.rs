//! HMAC-SHA256 (RFC 2104), its once-scheduled key, and a small HKDF-style
//! key-derivation helper.

use crate::sha256::{Sha256, BLOCK_SIZE, DIGEST_SIZE};

/// An HMAC-SHA256 key scheduled once: the SHA-256 midstates after the
/// padded key block has been absorbed on the inner (`ipad`) and the outer
/// (`opad`) side. Every MAC under the key then starts from a copy of them,
/// so the two key-block compressions are paid once per key, not per message.
#[derive(Clone)]
pub struct HmacKey {
    inner: Sha256,
    outer: Sha256,
}

// taint: redacted — prints a fixed placeholder, never the key midstates.
impl std::fmt::Debug for HmacKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("HmacKey(<redacted>)")
    }
}

impl HmacKey {
    /// Schedules `key` (hashed first when longer than one block, RFC 2104).
    pub fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; BLOCK_SIZE];
        if key.len() > BLOCK_SIZE {
            key_block[..DIGEST_SIZE].copy_from_slice(&crate::sha256::sha256(key));
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let mut ipad = [0x36u8; BLOCK_SIZE];
        let mut opad = [0x5cu8; BLOCK_SIZE];
        for i in 0..BLOCK_SIZE {
            ipad[i] ^= key_block[i];
            opad[i] ^= key_block[i];
        }
        let mut inner = Sha256::new();
        inner.update(&ipad);
        let mut outer = Sha256::new();
        outer.update(&opad);
        HmacKey { inner, outer }
    }

    /// Starts a MAC: a copy of the inner midstate, ready to absorb the
    /// message in parts.
    pub fn start(&self) -> Sha256 {
        self.inner
    }

    /// Completes a MAC started with [`HmacKey::start`].
    // taint: sink — the key midstates stay inside; only the MAC, a one-way
    // image of key and message, leaves.
    pub fn finish(&self, inner: Sha256) -> [u8; DIGEST_SIZE] {
        let mut outer = self.outer;
        outer.update(&inner.finalize());
        outer.finalize()
    }

    /// `HMAC-SHA256(key, message)` in one call.
    // taint: sink — as `finish`: only the MAC leaves.
    pub fn mac(&self, message: &[u8]) -> [u8; DIGEST_SIZE] {
        let mut inner = self.start();
        inner.update(message);
        self.finish(inner)
    }
}

/// Computes `HMAC-SHA256(key, message)`.
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; DIGEST_SIZE] {
    HmacKey::new(key).mac(message)
}

/// Constant-time comparison of two MACs.
pub fn verify_mac(expected: &[u8], actual: &[u8]) -> bool {
    if expected.len() != actual.len() {
        return false;
    }
    let mut diff = 0u8;
    for (a, b) in expected.iter().zip(actual.iter()) {
        diff |= a ^ b;
    }
    diff == 0
}

/// Derives `len` bytes of key material from an input key and a context label,
/// HKDF-expand style (`T(i) = HMAC(key, T(i-1) || label || i)`).
// taint: source — stretches a secret into fresh key material; the output
// bytes are exactly as secret as the input key.
pub fn derive_key(key: &[u8], label: &str, len: usize) -> Vec<u8> {
    // alloc: startup — keys derive at provisioning and session open, never per event.
    let mut out = Vec::with_capacity(len);
    let mut previous: Vec<u8> = Vec::new();
    let mut counter = 1u8;
    while out.len() < len {
        // alloc: startup — keys derive at provisioning and session open, never per event.
        let mut msg = previous.clone();
        msg.extend_from_slice(label.as_bytes());
        msg.push(counter);
        let block = hmac_sha256(key, &msg);
        // alloc: startup — keys derive at provisioning and session open, never per event.
        previous = block.to_vec();
        out.extend_from_slice(&block);
        counter = counter.wrapping_add(1);
    }
    out.truncate(len);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::to_hex;

    #[test]
    fn rfc4231_test_case_1() {
        let key = [0x0bu8; 20];
        let mac = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            to_hex(&mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_test_case_2() {
        let mac = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            to_hex(&mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_test_case_with_long_key() {
        let key = [0xaau8; 131];
        let mac = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            to_hex(&mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn scheduled_key_matches_the_one_shot_mac_in_parts() {
        let key = HmacKey::new(b"Jefe");
        let message = b"what do ya want for nothing?";
        assert_eq!(key.mac(message), hmac_sha256(b"Jefe", message));
        // The midstates are reusable, and a message may arrive in parts.
        let mut inner = key.start();
        inner.update(&message[..7]);
        inner.update(&message[7..]);
        assert_eq!(key.finish(inner), key.mac(message));
        assert_eq!(format!("{key:?}"), "HmacKey(<redacted>)");
    }

    #[test]
    fn verify_mac_checks_equality_and_length() {
        let mac = hmac_sha256(b"k", b"m");
        assert!(verify_mac(&mac, &mac));
        let mut bad = mac;
        bad[0] ^= 1;
        assert!(!verify_mac(&mac, &bad));
        assert!(!verify_mac(&mac, &mac[..31]));
    }

    #[test]
    fn derive_key_is_deterministic_and_label_sensitive() {
        let a = derive_key(b"master", "doc-key", 16);
        let b = derive_key(b"master", "doc-key", 16);
        let c = derive_key(b"master", "mac-key", 16);
        let d = derive_key(b"other", "doc-key", 16);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert_eq!(a.len(), 16);
        // Longer than one HMAC block of output.
        let long = derive_key(b"master", "stream", 100);
        assert_eq!(long.len(), 100);
        assert_eq!(&long[..16], &derive_key(b"master", "stream", 16)[..]);
    }
}
