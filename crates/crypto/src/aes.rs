//! AES-128 block cipher (FIPS-197), table-driven.
//!
//! Each round is computed on four 32-bit column words with the classic
//! T-tables: `Te` folds `SubBytes`, `ShiftRows` and `MixColumns` of the
//! encryption round into four lookups per column. The tables are derived
//! once, at first use, from the S-box (itself generated from the
//! multiplicative inverse in GF(2^8)) rather than typed in as constants.
//!
//! Only the forward cipher exists: every mode in this crate (CTR, the
//! Poly1305-then-AES tags, key derivation and SIV) encrypts, and none
//! decrypts a block.
//!
//! The SOE's cost model charges decryption per byte, so the E-series
//! experiments do not depend on this constant factor; the wall-clock
//! benchmark does, which is why the rounds are table-driven.

use std::sync::OnceLock;

/// Block size in bytes.
pub const BLOCK_SIZE: usize = 16;
/// Key size in bytes (AES-128).
pub const KEY_SIZE: usize = 16;

const ROUNDS: usize = 10;

/// One round key: four column words.
type RoundKey = [u32; 4];

/// Multiplies two elements of GF(2^8) modulo the AES polynomial x^8+x^4+x^3+x+1.
fn gf_mul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    for _ in 0..8 {
        if b & 1 != 0 {
            p ^= a;
        }
        let hi = a & 0x80;
        a <<= 1;
        if hi != 0 {
            a ^= 0x1B;
        }
        b >>= 1;
    }
    p
}

/// Computes the AES S-box.
fn build_sbox() -> [u8; 256] {
    // Multiplicative inverse table via brute force (runs once).
    let mut inv = [0u8; 256];
    for a in 1..=255u16 {
        for b in 1..=255u16 {
            if gf_mul(a as u8, b as u8) == 1 {
                inv[a as usize] = b as u8;
                break;
            }
        }
    }
    let mut sbox = [0u8; 256];
    for i in 0..256usize {
        let x = inv[i];
        // Affine transformation.
        let mut y = x;
        let mut res = x;
        for _ in 0..4 {
            y = y.rotate_left(1);
            res ^= y;
        }
        sbox[i] = res ^ 0x63;
    }
    sbox
}

/// The S-box and round tables shared by every cipher instance.
///
/// `te[k][x]` is the `MixColumns` column of `S[x]` placed in row 0, rotated
/// right by `8k` bits for row `k`.
struct Tables {
    sbox: [u8; 256],
    te: [[u32; 256]; 4],
}

impl Tables {
    fn build() -> Self {
        let sbox = build_sbox();
        let mut te = [[0u32; 256]; 4];
        for x in 0..256 {
            let s = sbox[x];
            let e = u32::from_be_bytes([gf_mul(s, 2), s, s, gf_mul(s, 3)]);
            for (k, row) in te.iter_mut().enumerate() {
                row[x] = e.rotate_right(8 * k as u32);
            }
        }
        Tables { sbox, te }
    }

    /// One full round over the column words. `ShiftRows` takes row `r` of
    /// output column `c` from column `c + r`.
    #[inline(always)]
    fn round(&self, s: [u32; 4], rk: &RoundKey) -> [u32; 4] {
        let t = &self.te;
        let mut out = [0u32; 4];
        for (col, o) in out.iter_mut().enumerate() {
            *o = t[0][(s[col] >> 24) as usize]
                ^ t[1][((s[(col + 1) % 4] >> 16) & 0xff) as usize]
                ^ t[2][((s[(col + 2) % 4] >> 8) & 0xff) as usize]
                ^ t[3][(s[(col + 3) % 4] & 0xff) as usize]
                ^ rk[col];
        }
        out
    }

    /// The last round: S-box bytes only (no column mixing).
    #[inline(always)]
    fn last_round(&self, s: [u32; 4], rk: &RoundKey) -> [u32; 4] {
        let sbox = &self.sbox;
        let mut out = [0u32; 4];
        for (col, o) in out.iter_mut().enumerate() {
            *o = u32::from_be_bytes([
                sbox[(s[col] >> 24) as usize],
                sbox[((s[(col + 1) % 4] >> 16) & 0xff) as usize],
                sbox[((s[(col + 2) % 4] >> 8) & 0xff) as usize],
                sbox[(s[(col + 3) % 4] & 0xff) as usize],
            ]) ^ rk[col];
        }
        out
    }

    /// Applies `SubWord` to each byte of a key-schedule word.
    fn sub_word(&self, w: u32) -> u32 {
        let b = w.to_be_bytes();
        u32::from_be_bytes([
            self.sbox[b[0] as usize],
            self.sbox[b[1] as usize],
            self.sbox[b[2] as usize],
            self.sbox[b[3] as usize],
        ])
    }
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(Tables::build)
}

fn load(block: &[u8; BLOCK_SIZE]) -> [u32; 4] {
    let mut s = [0u32; 4];
    for (w, bytes) in s.iter_mut().zip(block.chunks_exact(4)) {
        *w = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    }
    s
}

fn store(s: [u32; 4], block: &mut [u8; BLOCK_SIZE]) {
    for (w, bytes) in s.iter().zip(block.chunks_exact_mut(4)) {
        bytes.copy_from_slice(&w.to_be_bytes());
    }
}

/// An AES-128 cipher with an expanded encryption key schedule.
#[derive(Clone)]
pub struct Aes128 {
    /// Encryption round keys, round 0 first.
    enc: [RoundKey; ROUNDS + 1],
    tables: &'static Tables,
}

impl std::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.write_str("Aes128 {{ <key schedule redacted> }}")
    }
}

impl Aes128 {
    /// Expands `key` into the encryption round keys.
    pub fn new(key: &[u8; KEY_SIZE]) -> Self {
        let tables = tables();
        let mut w = [0u32; 4 * (ROUNDS + 1)];
        w[..4].copy_from_slice(&load(key));
        let mut rcon = 1u8;
        for i in 4..w.len() {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                temp = tables.sub_word(temp.rotate_left(8)) ^ (u32::from(rcon) << 24);
                rcon = gf_mul(rcon, 2);
            }
            w[i] = w[i - 4] ^ temp;
        }
        let enc = std::array::from_fn(|r| [w[4 * r], w[4 * r + 1], w[4 * r + 2], w[4 * r + 3]]);
        Aes128 { enc, tables }
    }

    /// Encrypts one 16-byte block in place.
    pub fn encrypt_block(&self, block: &mut [u8; BLOCK_SIZE]) {
        let t = self.tables;
        let mut s = load(block);
        for (w, k) in s.iter_mut().zip(&self.enc[0]) {
            *w ^= k;
        }
        for rk in &self.enc[1..ROUNDS] {
            s = t.round(s, rk);
        }
        s = t.last_round(s, &self.enc[ROUNDS]);
        store(s, block);
    }

    /// `N` secrets drawn from this key: the encryptions of the blocks
    /// `first`, `first + 1`, …, each block all zero but for its index in
    /// byte 0. Disjoint index ranges give independent secrets, so one key
    /// can feed several constructions without a derivation step between.
    pub fn key_parts<const N: usize>(&self, first: u8) -> [[u8; BLOCK_SIZE]; N] {
        std::array::from_fn(|part| {
            let mut block = [0u8; BLOCK_SIZE];
            block[0] = first + part as u8;
            self.encrypt_block(&mut block);
            block
        })
    }
}

/// The byte-oriented FIPS-197 round functions, kept as the reference the
/// table-driven cipher is checked against.
#[cfg(test)]
mod reference {
    use super::{gf_mul, tables, BLOCK_SIZE, KEY_SIZE, ROUNDS};

    /// Byte-wise key expansion (FIPS-197 §5.2).
    pub fn round_keys(key: &[u8; KEY_SIZE]) -> [[u8; 16]; ROUNDS + 1] {
        let sbox = &tables().sbox;
        let mut w = [[0u8; 4]; 4 * (ROUNDS + 1)];
        for i in 0..4 {
            w[i] = [key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]];
        }
        let mut rcon = 1u8;
        for i in 4..4 * (ROUNDS + 1) {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                temp.rotate_left(1);
                for b in temp.iter_mut() {
                    *b = sbox[*b as usize];
                }
                temp[0] ^= rcon;
                rcon = gf_mul(rcon, 2);
            }
            for j in 0..4 {
                w[i][j] = w[i - 4][j] ^ temp[j];
            }
        }
        let mut round_keys = [[0u8; 16]; ROUNDS + 1];
        for (r, rk) in round_keys.iter_mut().enumerate() {
            for c in 0..4 {
                rk[4 * c..4 * c + 4].copy_from_slice(&w[4 * r + c]);
            }
        }
        round_keys
    }

    fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
        for (s, k) in state.iter_mut().zip(rk.iter()) {
            *s ^= *k;
        }
    }

    fn sub_bytes(state: &mut [u8; 16], table: &[u8; 256]) {
        for b in state.iter_mut() {
            *b = table[*b as usize];
        }
    }

    // The state is stored column-major: state[4*c + r] is row r, column c.
    fn shift_rows(state: &mut [u8; 16]) {
        let s = *state;
        for r in 1..4 {
            for c in 0..4 {
                state[4 * c + r] = s[4 * ((c + r) % 4) + r];
            }
        }
    }

    fn mix_columns(state: &mut [u8; 16], m: [u8; 4]) {
        for c in 0..4 {
            let col = [
                state[4 * c],
                state[4 * c + 1],
                state[4 * c + 2],
                state[4 * c + 3],
            ];
            for r in 0..4 {
                state[4 * c + r] =
                    (0..4).fold(0, |acc, j| acc ^ gf_mul(col[j], m[(j + 4 - r) % 4]));
            }
        }
    }

    pub fn encrypt_block(key: &[u8; KEY_SIZE], block: &mut [u8; BLOCK_SIZE]) {
        let rk = round_keys(key);
        let sbox = &tables().sbox;
        add_round_key(block, &rk[0]);
        for round in rk.iter().take(ROUNDS).skip(1) {
            sub_bytes(block, sbox);
            shift_rows(block);
            mix_columns(block, [2, 3, 1, 1]);
            add_round_key(block, round);
        }
        sub_bytes(block, sbox);
        shift_rows(block);
        add_round_key(block, &rk[ROUNDS]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fips197_appendix_b_vector() {
        // FIPS-197 Appendix B example.
        let key: [u8; 16] = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let mut block: [u8; 16] = [
            0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
            0x07, 0x34,
        ];
        let expected: [u8; 16] = [
            0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a,
            0x0b, 0x32,
        ];
        Aes128::new(&key).encrypt_block(&mut block);
        assert_eq!(block, expected);
    }

    #[test]
    fn fips197_appendix_c1_vector() {
        // FIPS-197 Appendix C.1 (AES-128 known answer test).
        let key: [u8; 16] = [
            0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d,
            0x0e, 0x0f,
        ];
        let mut block: [u8; 16] = [
            0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd,
            0xee, 0xff,
        ];
        let expected: [u8; 16] = [
            0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
            0xc5, 0x5a,
        ];
        let cipher = Aes128::new(&key);
        cipher.encrypt_block(&mut block);
        assert_eq!(block, expected);
    }

    #[test]
    fn table_driven_rounds_match_the_byte_oriented_reference() {
        // Seeded differential test: 2048 random key/block pairs through the
        // production cipher and the FIPS-197 reference.
        let mut state = 0x5DD5_2005_u64;
        let mut next = || {
            // SplitMix64.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut random_block = || {
            let mut b = [0u8; 16];
            b[..8].copy_from_slice(&next().to_le_bytes());
            b[8..].copy_from_slice(&next().to_le_bytes());
            b
        };
        for case in 0..2048 {
            let key = random_block();
            let plain = random_block();
            let mut fast = plain;
            Aes128::new(&key).encrypt_block(&mut fast);
            let mut slow = plain;
            reference::encrypt_block(&key, &mut slow);
            assert_eq!(fast, slow, "encrypt diverged at case {case}");
        }
    }

    #[test]
    fn key_parts_are_the_encryptions_of_their_indices() {
        let cipher = Aes128::new(&[9u8; 16]);
        let parts: [[u8; 16]; 3] = cipher.key_parts(4);
        for (i, part) in parts.iter().enumerate() {
            let mut block = [0u8; 16];
            block[0] = 4 + i as u8;
            cipher.encrypt_block(&mut block);
            assert_eq!(*part, block);
        }
        // A range starting later continues the same sequence.
        let later: [[u8; 16]; 2] = cipher.key_parts(5);
        assert_eq!(later, [parts[1], parts[2]]);
    }

    #[test]
    fn different_keys_produce_different_ciphertexts() {
        let c1 = Aes128::new(&[1u8; 16]);
        let c2 = Aes128::new(&[2u8; 16]);
        let mut b1 = [0u8; 16];
        let mut b2 = [0u8; 16];
        c1.encrypt_block(&mut b1);
        c2.encrypt_block(&mut b2);
        assert_ne!(b1, b2);
    }

    #[test]
    fn debug_does_not_leak_key_material() {
        let dbg = format!("{:?}", Aes128::new(&[0xAB; 16]));
        assert!(dbg.contains("redacted"));
        assert!(!dbg.contains("171")); // 0xAB
    }

    #[test]
    fn gf_mul_basic_identities() {
        assert_eq!(gf_mul(0x57, 0x13), 0xfe); // FIPS-197 §4.2 example
        assert_eq!(gf_mul(1, 0x42), 0x42);
        assert_eq!(gf_mul(0, 0x42), 0);
    }
}
