//! SipHash-2-4 (Aumasson & Bernstein, 2012): a keyed pseudorandom function
//! with a 64-bit output.
//!
//! The publisher derives each document's nonce by running it over the whole
//! plaintext at every build, where it costs a fraction of HMAC-SHA256 per
//! byte. Nothing on the SOE side uses it: chunk tags are two-lane
//! Poly1305-then-AES (see [`crate::poly1305`]).

/// One SipRound over the state `v`.
fn round(v: &mut [u64; 4]) {
    v[0] = v[0].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(13) ^ v[0];
    v[0] = v[0].rotate_left(32);
    v[2] = v[2].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(16) ^ v[2];
    v[0] = v[0].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(21) ^ v[0];
    v[2] = v[2].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(17) ^ v[2];
    v[2] = v[2].rotate_left(32);
}

/// Absorbs one little-endian message word with two SipRounds.
fn absorb(v: &mut [u64; 4], m: u64) {
    v[3] ^= m;
    round(v);
    round(v);
    v[0] ^= m;
}

/// Computes `SipHash-2-4(key, data)`.
pub fn siphash24(key: &[u8; 16], data: &[u8]) -> u64 {
    let [k0, k1] = [&key[..8], &key[8..]].map(|half| {
        // lint: infallible — each half of a 16-byte key is 8 bytes.
        u64::from_le_bytes(half.try_into().expect("8 bytes"))
    });
    let mut v = [
        k0 ^ 0x736f_6d65_7073_6575,
        k1 ^ 0x646f_7261_6e64_6f6d,
        k0 ^ 0x6c79_6765_6e65_7261,
        k1 ^ 0x7465_6462_7974_6573,
    ];
    let mut words = data.chunks_exact(8);
    for word in &mut words {
        // lint: infallible — `chunks_exact(8)` yields 8-byte slices.
        let m = u64::from_le_bytes(word.try_into().expect("8 bytes"));
        absorb(&mut v, m);
    }
    let tail = words.remainder();
    let mut last = [0u8; 8];
    last[..tail.len()].copy_from_slice(tail);
    last[7] = data.len() as u8;
    absorb(&mut v, u64::from_le_bytes(last));
    v[2] ^= 0xff;
    for _ in 0..4 {
        round(&mut v);
    }
    v[0] ^ v[1] ^ v[2] ^ v[3]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference key `00 01 … 0f` of the SipHash paper's test vectors.
    fn key() -> [u8; 16] {
        std::array::from_fn(|i| i as u8)
    }

    #[test]
    fn reference_vectors() {
        let message: Vec<u8> = (0..64).collect();
        // Appendix A of the paper: the 15-byte message `00 01 … 0e`.
        assert_eq!(siphash24(&key(), &message[..15]), 0xa129_ca61_49be_45e5);
        // First and last entries of the reference implementation's
        // `vectors_sip64` table (messages `00 … i-1`, i = 0 and 63).
        assert_eq!(siphash24(&key(), &[]), 0x726f_db47_dd0e_0e31);
        assert_eq!(siphash24(&key(), &message[..63]), 0x958a_324c_eb06_4572);
    }

    #[test]
    fn key_and_every_byte_matter() {
        let data = [7u8; 40];
        let base = siphash24(&key(), &data);
        let mut other = key();
        other[15] ^= 1;
        assert_ne!(siphash24(&other, &data), base);
        for i in 0..data.len() {
            let mut flipped = data;
            flipped[i] ^= 0x80;
            assert_ne!(siphash24(&key(), &flipped), base, "byte {i}");
        }
        assert_ne!(siphash24(&key(), &data[..39]), base);
    }
}
