//! Poly1305 (Bernstein, 2005; RFC 8439 §2.5), the polynomial universal hash
//! modulo `p = 2^130 − 5`, and the two-lane Poly1305-then-AES tag key built
//! on it ([`PolyAesKey`]).
//!
//! The accumulator is held in three limbs of 44, 44 and 42 bits, so a block
//! costs nine `u64 × u64 → u128` products and a short carry chain. A hash
//! may run several independent lanes, each with its own key `r`, over one
//! pass through the message: every 16-byte block is loaded once and
//! absorbed by all lanes.
//!
//! A lane follows RFC 8439 in its clamping of `r`, its block encoding and
//! its final reduction, but stops before the final `+ s`: it returns
//! `P_r(m) mod 2^128`, the bare hash. The bare hash is not a MAC by itself;
//! [`PolyAesKey`] hides each lane's hash under its own AES key.

use crate::aes::Aes128;

/// Poly1305 block size in bytes.
const BLOCK_SIZE: usize = 16;

const MASK44: u64 = (1 << 44) - 1;
const MASK42: u64 = (1 << 42) - 1;
/// The `2^128` bit a full block carries, at its place in the top limb.
const FULL_BLOCK: u64 = 1 << 40;

/// One lane's clamped key `r` in limbs of 44, 44 and 42 bits, with `20·r1`
/// and `20·r2`: a product term of weight `2^132` or more folds back to the
/// low limbs because `2^130 ≡ 5 (mod p)`.
#[derive(Clone)]
struct Lane {
    r: [u64; 3],
    s: [u64; 2],
}

impl Lane {
    /// Clamps `r` as RFC 8439 §2.5 asks and splits it into limbs.
    fn new(r: &[u8; 16]) -> Self {
        let mut clamped = *r;
        for i in [3, 7, 11, 15] {
            clamped[i] &= 0x0f;
        }
        for i in [4, 8, 12] {
            clamped[i] &= 0xfc;
        }
        let [t0, t1] = le_words(&clamped);
        let r = [t0 & MASK44, ((t0 >> 44) | (t1 << 20)) & MASK44, t1 >> 24];
        Lane {
            s: [r[1] * 20, r[2] * 20],
            r,
        }
    }

    /// `h = (h + m) · r`, partially reduced: the limbs leave below `2^44`,
    /// `2^44 + 2^14` and `2^42`.
    #[inline(always)]
    fn absorb(&self, h: &mut [u64; 3], m: &[u64; 3]) {
        let mul = |a: u64, b: u64| u128::from(a) * u128::from(b);
        let [h0, h1, h2] = [h[0] + m[0], h[1] + m[1], h[2] + m[2]];
        let [r0, r1, r2] = self.r;
        let [s1, s2] = self.s;
        let d0 = mul(h0, r0) + mul(h1, s2) + mul(h2, s1);
        let mut d1 = mul(h0, r1) + mul(h1, r0) + mul(h2, s2);
        let mut d2 = mul(h0, r2) + mul(h1, r1) + mul(h2, r0);
        let mut h0 = d0 as u64 & MASK44;
        d1 += d0 >> 44;
        let h1 = d1 as u64 & MASK44;
        d2 += d1 >> 44;
        let h2 = d2 as u64 & MASK42;
        h0 += (d2 >> 42) as u64 * 5;
        *h = [h0 & MASK44, h1 + (h0 >> 44), h2];
    }
}

/// The two little-endian 64-bit words of a 16-byte block.
fn le_words(block: &[u8]) -> [u64; 2] {
    let word = |i: usize| {
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(&block[i..i + 8]);
        u64::from_le_bytes(bytes)
    };
    [word(0), word(8)]
}

/// Fully reduces a lane's accumulator modulo `p`, in constant time, and
/// returns it modulo `2^128`, little-endian.
fn reduce(h: [u64; 3]) -> [u8; 16] {
    let [mut h0, mut h1, mut h2] = h;
    // Two carry passes leave h0 < 2^44, h1 <= 2^44 and h2 < 2^42, so
    // h < 2^130 + 2^89 < 2p and one conditional subtraction of p suffices.
    for _ in 0..2 {
        h2 += h1 >> 44;
        h1 &= MASK44;
        h0 += (h2 >> 42) * 5;
        h2 &= MASK42;
        h1 += h0 >> 44;
        h0 &= MASK44;
    }
    // g = h + 5 − 2^130, which is h − p; it borrows exactly when h < p.
    let g0 = h0 + 5;
    let g1 = h1 + (g0 >> 44);
    let g2 = (h2 + (g1 >> 44)).wrapping_sub(1 << 42);
    // All ones when g did not borrow (h >= p): then take g, else h.
    let take_g = (g2 >> 63).wrapping_sub(1);
    let pick = |h: u64, g: u64| (h & !take_g) | (g & take_g);
    let (h0, h1, h2) = (pick(h0, g0 & MASK44), pick(h1, g1 & MASK44), pick(h2, g2));
    let h = u128::from(h0) + (u128::from(h1) << 44);
    h.wrapping_add(u128::from(h2) << 88).to_le_bytes()
}

/// A Poly1305 computation over `L` lanes, absorbing the message in parts.
pub struct Poly1305<'k, const L: usize> {
    lanes: &'k [Lane; L],
    h: [[u64; 3]; L],
    buffer: [u8; BLOCK_SIZE],
    buffered: usize,
}

impl<'k, const L: usize> Poly1305<'k, L> {
    fn new(lanes: &'k [Lane; L]) -> Self {
        Poly1305 {
            lanes,
            h: [[0; 3]; L],
            buffer: [0; BLOCK_SIZE],
            buffered: 0,
        }
    }

    /// Absorbs one block in every lane; `top` is the block's `2^128` bit.
    #[inline(always)]
    fn block(&mut self, block: &[u8], top: u64) {
        let [t0, t1] = le_words(block);
        let m = [
            t0 & MASK44,
            ((t0 >> 44) | (t1 << 20)) & MASK44,
            (t1 >> 24) | top,
        ];
        for (h, lane) in self.h.iter_mut().zip(self.lanes) {
            lane.absorb(h, &m);
        }
    }

    /// Absorbs the next part of the message. Split points do not matter:
    /// any cut of a message gives the hash of the whole.
    pub fn update(&mut self, mut data: &[u8]) {
        if self.buffered > 0 {
            let take = (BLOCK_SIZE - self.buffered).min(data.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered < BLOCK_SIZE {
                return;
            }
            let block = self.buffer;
            self.block(&block, FULL_BLOCK);
            self.buffered = 0;
        }
        let mut blocks = data.chunks_exact(BLOCK_SIZE);
        for block in &mut blocks {
            self.block(block, FULL_BLOCK);
        }
        let tail = blocks.remainder();
        self.buffer[..tail.len()].copy_from_slice(tail);
        self.buffered = tail.len();
    }

    /// Absorbs the padded last block, if any, and returns every lane's
    /// `P_r(m) mod 2^128`, little-endian.
    fn finish(mut self) -> [[u8; 16]; L] {
        if self.buffered > 0 {
            let mut last = [0u8; BLOCK_SIZE];
            last[..self.buffered].copy_from_slice(&self.buffer[..self.buffered]);
            last[self.buffered] = 1;
            self.block(&last, 0);
        }
        self.h.map(reduce)
    }
}

/// A two-lane Poly1305-then-AES tag key, scheduled once: the tag of `m` is
/// `AES_k1(P_r1(m)) ‖ AES_k2(P_r2(m))`, 32 bytes.
///
/// Each lane is hash-then-PRF: a collision of `P_r` mod `2^128` between two
/// messages of at most `L` bytes has probability at most
/// `ε = 8⌈L/16⌉ / 2^106` over `r` (Bernstein's bound), and AES turns a hash
/// that did not collide into an unpredictable block. With independent lanes,
/// after `q` tags a forgery attempt succeeds with probability at most
/// `q·ε² + 2^-256` plus the advantage against AES. The tag depends on the
/// message only, not on any nonce, so equal messages get equal tags.
#[derive(Clone)]
pub struct PolyAesKey {
    lanes: [Lane; 2],
    prf: [Aes128; 2],
}

// taint: redacted — prints a fixed placeholder, never the lane keys.
impl std::fmt::Debug for PolyAesKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("PolyAesKey(<redacted>)")
    }
}

impl PolyAesKey {
    /// Schedules the key from the lanes' polynomial keys `r` (clamped here)
    /// and their AES keys `k`. The four must be independent secrets.
    pub fn new(r: [&[u8; 16]; 2], k: [&[u8; 16]; 2]) -> Self {
        PolyAesKey {
            lanes: r.map(Lane::new),
            prf: k.map(Aes128::new),
        }
    }

    /// Starts a tag: both lanes at zero, ready to absorb the message in
    /// parts.
    pub fn start(&self) -> Poly1305<'_, 2> {
        Poly1305::new(&self.lanes)
    }

    /// Completes a tag started with [`PolyAesKey::start`].
    // taint: sink — the lane hashes stay inside; only their AES images leave.
    pub fn finish(&self, poly: Poly1305<'_, 2>) -> [u8; 32] {
        let mut tag = [0u8; 32];
        for ((half, mut hash), aes) in tag.chunks_exact_mut(16).zip(poly.finish()).zip(&self.prf) {
            aes.encrypt_block(&mut hash);
            half.copy_from_slice(&hash);
        }
        tag
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RFC 8439 Poly1305: the one-lane hash plus `s`, mod 2^128.
    fn rfc_poly1305(key: &[u8; 32], message: &[u8]) -> [u8; 16] {
        let mut r = [0u8; 16];
        r.copy_from_slice(&key[..16]);
        let mut s = [0u8; 16];
        s.copy_from_slice(&key[16..]);
        let lane = [Lane::new(&r)];
        let mut poly = Poly1305::new(&lane);
        poly.update(message);
        let [hash] = poly.finish();
        u128::from_le_bytes(hash)
            .wrapping_add(u128::from_le_bytes(s))
            .to_le_bytes()
    }

    fn hex(s: &str) -> Vec<u8> {
        let digits: Vec<u8> = s.bytes().filter(u8::is_ascii_hexdigit).collect();
        digits
            .chunks(2)
            .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
            .collect()
    }

    fn key32(r: &str, s: &str) -> [u8; 32] {
        let mut key = [0u8; 32];
        key[..16].copy_from_slice(&hex(r));
        key[16..].copy_from_slice(&hex(s));
        key
    }

    const IETF_TEXT: &str = "Any submission to the IETF intended by the Contributor for \
        publication as all or part of an IETF Internet-Draft or RFC and any statement made \
        within the context of an IETF activity is considered an \"IETF Contribution\". Such \
        statements include oral statements in IETF sessions, as well as written and \
        electronic communications made at any time or place, which are addressed to";

    const JABBERWOCKY: &str = "'Twas brillig, and the slithy toves\nDid gyre and gimble in \
        the wabe:\nAll mimsy were the borogoves,\nAnd the mome raths outgrabe.";

    #[test]
    fn rfc8439_section_2_5_2() {
        let key = key32(
            "85d6be7857556d337f4452fe42d506a8",
            "0103808afb0db2fd4abff6af4149f51b",
        );
        let tag = rfc_poly1305(&key, b"Cryptographic Forum Research Group");
        assert_eq!(tag.to_vec(), hex("a8061dc1305136c6c22b8baf0c0127a9"));
    }

    #[test]
    fn rfc8439_appendix_a3_text_vectors() {
        assert_eq!(IETF_TEXT.len(), 375);
        assert_eq!(JABBERWOCKY.len(), 127);
        let zero = "00000000000000000000000000000000";
        let s = "36e5f6b5c5e06070f0efca96227a863e";
        // #1: all-zero key and message.
        assert_eq!(rfc_poly1305(&key32(zero, zero), &[0u8; 64]), [0u8; 16]);
        // #2: r = 0, so the tag is s.
        let tag = rfc_poly1305(&key32(zero, s), IETF_TEXT.as_bytes());
        assert_eq!(tag.to_vec(), hex(s));
        // #3: s = 0.
        let tag = rfc_poly1305(&key32(s, zero), IETF_TEXT.as_bytes());
        assert_eq!(tag.to_vec(), hex("f3477e7cd95417af89a6b8794c310cf0"));
        // #4.
        let key = key32(
            "1c9240a5eb55d38af333888604f6b5f0",
            "473917c1402b80099dca5cbc207075c0",
        );
        let tag = rfc_poly1305(&key, JABBERWOCKY.as_bytes());
        assert_eq!(tag.to_vec(), hex("4541669a7eaaee61e708dc7cbcc5eb62"));
    }

    #[test]
    fn rfc8439_appendix_a3_reduction_edge_cases() {
        let r1 = "01000000000000000000000000000000";
        let r2 = "02000000000000000000000000000000";
        let r_wide = "01000000000000000400000000000000";
        let zero = "00000000000000000000000000000000";
        let ff = "ffffffffffffffffffffffffffffffff";
        let cases: [(&str, &str, &str, &str); 7] = [
            // #5: a partially reduced result that is not fully reduced.
            (r2, zero, ff, "03000000000000000000000000000000"),
            // #6: adding s overflows 2^128.
            (r2, ff, r2, "03000000000000000000000000000000"),
            // #7: an all-ones limb with a carry from below.
            (
                r1,
                zero,
                "ffffffffffffffffffffffffffffffff\
                 f0ffffffffffffffffffffffffffffff\
                 11000000000000000000000000000000",
                "05000000000000000000000000000000",
            ),
            // #8: the polynomial part is exactly 2^130 − 5 (h >= p).
            (
                r1,
                zero,
                "ffffffffffffffffffffffffffffffff\
                 fbfefefefefefefefefefefefefefefe\
                 01010101010101010101010101010101",
                "00000000000000000000000000000000",
            ),
            // #9: the polynomial part is exactly 2^130 − 6 (h < p).
            (
                r2,
                zero,
                "fdffffffffffffffffffffffffffffff",
                "faffffffffffffffffffffffffffffff",
            ),
            // #10: the 5·H + L reduction has a 131-bit intermediate.
            (
                r_wide,
                zero,
                "e33594d7505e43b90000000000000000\
                 3394d7505e4379cd0100000000000000\
                 00000000000000000000000000000000\
                 01000000000000000000000000000000",
                "14000000000000005500000000000000",
            ),
            // #11: the 5·H + L reduction has a 131-bit final result.
            (
                r_wide,
                zero,
                "e33594d7505e43b90000000000000000\
                 3394d7505e4379cd0100000000000000\
                 00000000000000000000000000000000",
                "13000000000000000000000000000000",
            ),
        ];
        for (i, (r, s, message, tag)) in cases.into_iter().enumerate() {
            let got = rfc_poly1305(&key32(r, s), &hex(message));
            assert_eq!(got.to_vec(), hex(tag), "vector #{}", i + 5);
        }
    }

    /// Slow reference arithmetic: numbers as little-endian base-2^32 digits.
    type Digits = [u64; 10];

    fn carry(mut x: Digits) -> Digits {
        for i in 0..9 {
            x[i + 1] += x[i] >> 32;
            x[i] &= 0xffff_ffff;
        }
        x
    }

    fn digits(bytes: &[u8]) -> Digits {
        let mut x = [0u64; 10];
        for (i, byte) in bytes.iter().enumerate() {
            x[i / 4] |= u64::from(*byte) << (8 * (i % 4));
        }
        x
    }

    /// `x mod (2^130 − 5)` by folding `x = L + 2^130·H` to `L + 5H`.
    fn reduce_reference(mut x: Digits) -> Digits {
        loop {
            let mut high = [0u64; 10];
            for i in 0..5 {
                high[i] = (x[i + 4] >> 2) | ((x[i + 5] << 30) & 0xffff_ffff);
            }
            if high.iter().all(|&d| d == 0) {
                break;
            }
            x[4] &= 3;
            x[5..].fill(0);
            for i in 0..10 {
                x[i] += 5 * high[i];
            }
            x = carry(x);
        }
        // x < 2^130: x >= p exactly when x + 5 reaches 2^130.
        let mut plus5 = x;
        plus5[0] += 5;
        let plus5 = carry(plus5);
        if plus5[4] >> 2 != 0 {
            x = plus5;
            x[4] &= 3;
        }
        x
    }

    fn poly_reference(r: &[u8; 16], message: &[u8]) -> [u8; 16] {
        let mut clamped = *r;
        for i in [3, 7, 11, 15] {
            clamped[i] &= 15;
        }
        for i in [4, 8, 12] {
            clamped[i] &= 252;
        }
        let r = digits(&clamped);
        let mut h = [0u64; 10];
        for block in message.chunks(16) {
            let mut n = block.to_vec();
            n.push(1);
            let n = digits(&n);
            let sum = carry(std::array::from_fn(|i| h[i] + n[i]));
            let mut product = [0u64; 10];
            for i in 0..5 {
                for j in 0..5 {
                    product[i + j] += sum[i] * r[j];
                    product = carry(product);
                }
            }
            h = reduce_reference(product);
        }
        let mut out = [0u8; 16];
        for (i, byte) in out.iter_mut().enumerate() {
            *byte = (h[i / 4] >> (8 * (i % 4))) as u8;
        }
        out
    }

    /// SplitMix64, for seeded test inputs.
    fn rng(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed;
        move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    fn random_bytes<const N: usize>(next: &mut impl FnMut() -> u64) -> [u8; N] {
        std::array::from_fn(|_| next() as u8)
    }

    #[test]
    fn both_lanes_match_the_slow_reference_on_every_length() {
        let mut next = rng(0x5DD5_1305);
        let message: Vec<u8> = (0..600).map(|_| next() as u8).collect();
        for len in 0..=600 {
            // A fresh key per length, with an all-ones key now and then to
            // push every limb to its bound.
            let keys: [[u8; 16]; 2] = if len % 50 == 0 {
                [[0xff; 16], random_bytes(&mut next)]
            } else {
                [random_bytes(&mut next), random_bytes(&mut next)]
            };
            let data: Vec<u8> = if len % 7 == 0 {
                vec![0xff; len]
            } else {
                message[..len].to_vec()
            };
            let lanes = keys.each_ref().map(Lane::new);
            let mut poly = Poly1305::new(&lanes);
            poly.update(&data);
            let got = poly.finish();
            for (lane, key) in keys.iter().enumerate() {
                assert_eq!(
                    got[lane],
                    poly_reference(key, &data),
                    "length {len}, lane {lane}"
                );
            }
        }
    }

    #[test]
    fn split_points_do_not_change_the_hash() {
        let mut next = rng(7);
        let keys: [[u8; 16]; 2] = [random_bytes(&mut next), random_bytes(&mut next)];
        let lanes = keys.each_ref().map(Lane::new);
        let message: Vec<u8> = (0..100).map(|_| next() as u8).collect();
        let whole = {
            let mut poly = Poly1305::new(&lanes);
            poly.update(&message);
            poly.finish()
        };
        // A first piece that ends at every offset mod 16, then pieces of
        // every size up to a block and a bit.
        for first in 0..=32 {
            for piece in 1..=17 {
                let mut poly = Poly1305::new(&lanes);
                poly.update(&message[..first]);
                for part in message[first..].chunks(piece) {
                    poly.update(part);
                    poly.update(&[]);
                }
                assert_eq!(poly.finish(), whole, "first {first}, piece {piece}");
            }
        }
    }

    #[test]
    fn the_tag_is_aes_of_each_lane_hash() {
        let [r1, r2, k1, k2] = [[1u8; 16], [2; 16], [3; 16], [4; 16]];
        let key = PolyAesKey::new([&r1, &r2], [&k1, &k2]);
        let message = b"len id nonce count index ciphertext";
        let mut poly = key.start();
        poly.update(message);
        let tag = key.finish(poly);
        for (half, (r, k)) in tag.chunks_exact(16).zip([(r1, k1), (r2, k2)]) {
            let mut block = poly_reference(&r, message);
            Aes128::new(&k).encrypt_block(&mut block);
            assert_eq!(half, block);
        }
        // Swapping the lanes' keys gives another tag.
        let swapped = PolyAesKey::new([&r2, &r1], [&k2, &k1]);
        let mut poly = swapped.start();
        poly.update(message);
        assert_ne!(swapped.finish(poly), tag);
        assert_eq!(format!("{key:?}"), "PolyAesKey(<redacted>)");
    }
}
