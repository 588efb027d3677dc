//! CTR, the one block-cipher mode of the secure document format.
//!
//! Documents are encrypted **chunk by chunk** so that the SOE can skip whole
//! chunks guided by the skip index: each chunk is an independent ciphertext
//! with its own counter base. CTR is length-preserving, needs no padding and
//! only ever runs the cipher forward; SIV ([`crate::siv`]) encrypts with it
//! too, from its synthetic IV.

use crate::aes::{Aes128, BLOCK_SIZE};

/// XORs `mask` into `dst`: one 128-bit operation for a whole block, byte by
/// byte only for the short tail of a CTR stream.
fn xor_block(dst: &mut [u8], mask: &[u8; BLOCK_SIZE]) {
    match <&mut [u8; BLOCK_SIZE]>::try_from(&mut *dst) {
        Ok(block) => {
            *block = (u128::from_ne_bytes(*block) ^ u128::from_ne_bytes(*mask)).to_ne_bytes();
        }
        Err(_) => {
            for (d, m) in dst.iter_mut().zip(mask) {
                *d ^= m;
            }
        }
    }
}

/// Encrypts or decrypts `data` in place with AES-128-CTR (the operation is
/// symmetric). The 16-byte `nonce` is the initial counter block; the counter
/// occupies the last 4 bytes (big-endian) and is incremented per block,
/// wrapping inside those 4 bytes, so it never carries into the bytes before
/// them (see [`chunk_iv`]). This is [`ctr_apply_at`] from byte 0.
pub fn ctr_apply(cipher: &Aes128, nonce: &[u8; BLOCK_SIZE], data: &mut [u8]) {
    ctr_apply_at(cipher, nonce, 0, data);
}

/// [`ctr_apply`] on a piece of a CTR stream: `data` holds the stream's
/// bytes from `byte_offset` on. CTR can start at any block (NIST SP
/// 800-38A, §6.5), so the bytes before `byte_offset` are never touched nor
/// their keystream computed, and applying the pieces of a stream in any
/// order equals applying the whole stream at once. Only the keystream
/// blocks `data` overlaps are computed: a piece that starts or ends
/// mid-block uses the rest or the start of that block.
pub fn ctr_apply_at(cipher: &Aes128, iv: &[u8; BLOCK_SIZE], byte_offset: usize, data: &mut [u8]) {
    let mut counter_block = *iv;
    // lint: infallible — a 4-byte slice of a `[u8; BLOCK_SIZE]` block.
    let base = u32::from_be_bytes(counter_block[12..16].try_into().expect("4 bytes"));
    // The counter wraps in its 4 bytes, so the block index is taken mod 2^32.
    let mut counter = base.wrapping_add((byte_offset / BLOCK_SIZE) as u32);
    let mut keystream = |counter: u32| {
        counter_block[12..16].copy_from_slice(&counter.to_be_bytes());
        let mut block = counter_block;
        cipher.encrypt_block(&mut block);
        block
    };
    let mut data = data;
    let lead = byte_offset % BLOCK_SIZE;
    if lead != 0 && !data.is_empty() {
        let (head, rest) = data.split_at_mut((BLOCK_SIZE - lead).min(data.len()));
        for (d, m) in head.iter_mut().zip(&keystream(counter)[lead..]) {
            *d ^= m;
        }
        data = rest;
        counter = counter.wrapping_add(1);
    }
    for chunk in data.chunks_mut(BLOCK_SIZE) {
        xor_block(chunk, &keystream(counter));
        counter = counter.wrapping_add(1);
    }
}

/// The initial CTR counter block of chunk `chunk_index`:
/// `document_nonce(8) ‖ chunk_index(4, BE) ‖ block(4, BE) = 0`.
///
/// [`ctr_apply`] counts blocks in the low 4 bytes only, and a chunk has far
/// fewer than 2^32 blocks, so the counter blocks of two chunks of one
/// document never meet; those of two documents differ in the nonce. The SOE
/// can decrypt any chunk knowing only the document key, the document nonce
/// and the chunk index found in the skip index.
pub fn chunk_iv(document_nonce: &[u8; 8], chunk_index: u32) -> [u8; BLOCK_SIZE] {
    let mut iv = [0u8; BLOCK_SIZE];
    iv[..8].copy_from_slice(document_nonce);
    iv[8..12].copy_from_slice(&chunk_index.to_be_bytes());
    iv
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cipher() -> Aes128 {
        Aes128::new(&[0x42; 16])
    }

    /// CTR over a copy of `data`.
    fn ctr(cipher: &Aes128, nonce: &[u8; BLOCK_SIZE], data: &[u8]) -> Vec<u8> {
        let mut out = data.to_vec();
        ctr_apply(cipher, nonce, &mut out);
        out
    }

    fn hex(text: &str) -> Vec<u8> {
        (0..text.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&text[i..i + 2], 16).unwrap())
            .collect()
    }

    /// NIST SP 800-38A: the AES-128 key and the four plaintext blocks of
    /// the F.5 (CTR) examples.
    fn sp800_38a() -> (Aes128, Vec<u8>) {
        let key: [u8; 16] = hex("2b7e151628aed2a6abf7158809cf4f3c").try_into().unwrap();
        let plain = hex(concat!(
            "6bc1bee22e409f96e93d7e117393172a",
            "ae2d8a571e03ac9c9eb76fac45af8e51",
            "30c81c46a35ce411e5fbc1191a0a52ef",
            "f69f2445df4f9b17ad2b417be66c3710",
        ));
        (Aes128::new(&key), plain)
    }

    #[test]
    fn sp800_38a_f51_f52_ctr_aes128() {
        let (c, plain) = sp800_38a();
        let counter: [u8; 16] = hex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff").try_into().unwrap();
        let expected = hex(concat!(
            "874d6191b620e3261bef6864990db6ce",
            "9806f66b7970fdff8617187bb9fffdff",
            "5ae4df3edbd5d35e5b4f09020db03eab",
            "1e031dda2fbe03d1792170a0f3009cee",
        ));
        // F.5.1 encrypt; the counter step carries within the low 32 bits.
        assert_eq!(ctr(&c, &counter, &plain), expected);
        // F.5.2 decrypt.
        assert_eq!(ctr(&c, &counter, &expected), plain);
        // A stream that ends mid-block uses a keystream prefix.
        assert_eq!(ctr(&c, &counter, &plain[..37]), expected[..37]);
    }

    /// `data` encrypted piece by piece: the pieces end at `cuts` (sorted
    /// byte offsets) and are applied last first, each at its own offset.
    fn ctr_in_pieces(
        cipher: &Aes128,
        nonce: &[u8; BLOCK_SIZE],
        data: &[u8],
        cuts: &[usize],
    ) -> Vec<u8> {
        let mut out = data.to_vec();
        let mut bounds = vec![0];
        bounds.extend(cuts.iter().copied().filter(|&c| c < data.len()));
        bounds.push(data.len());
        for piece in bounds.windows(2).rev() {
            ctr_apply_at(cipher, nonce, piece[0], &mut out[piece[0]..piece[1]]);
        }
        out
    }

    #[test]
    fn sp800_38a_f5_in_pieces_split_mid_block() {
        let (c, plain) = sp800_38a();
        let counter: [u8; 16] = hex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff").try_into().unwrap();
        let expected = ctr(&c, &counter, &plain);
        for cuts in [
            &[7][..],
            &[16],
            &[1, 2, 3],
            &[15, 17, 40],
            &[9, 25, 41, 57, 63],
        ] {
            assert_eq!(
                ctr_in_pieces(&c, &counter, &plain, cuts),
                expected,
                "{cuts:?}"
            );
        }
        // The second half of block 1 alone, as F.5.1 lists it.
        let mut piece = plain[24..32].to_vec();
        ctr_apply_at(&c, &counter, 24, &mut piece);
        assert_eq!(piece, hex("8617187bb9fffdff"));
    }

    #[test]
    fn ctr_pieces_at_arbitrary_offsets_equal_the_whole_chunk() {
        // Chunk lengths that are and are not multiples of the block, cut at
        // pseudo-random offsets (a fixed LCG: reproducible).
        let c = cipher();
        let nonce = chunk_iv(&[9; 8], 41);
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = |bound: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % bound
        };
        for len in [1usize, 15, 16, 17, 100, 250, 256, 512] {
            let plain: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
            let whole = ctr(&c, &nonce, &plain);
            for _ in 0..16 {
                let mut cuts: Vec<usize> = (0..next(6)).map(|_| next(len)).collect();
                cuts.sort_unstable();
                assert_eq!(
                    ctr_in_pieces(&c, &nonce, &plain, &cuts),
                    whole,
                    "{len}: {cuts:?}"
                );
            }
        }
    }

    #[test]
    fn ctr_roundtrip_and_symmetry() {
        let c = cipher();
        let nonce = chunk_iv(&[1, 2, 3, 4, 5, 6, 7, 8], 3);
        let plain: Vec<u8> = (0..100).collect();
        let ct = ctr(&c, &nonce, &plain);
        assert_eq!(ct.len(), plain.len());
        assert_ne!(ct, plain);
        let back = ctr(&c, &nonce, &ct);
        assert_eq!(back, plain);
    }

    #[test]
    fn ctr_different_chunks_use_different_keystreams() {
        let c = cipher();
        let plain = vec![0u8; 64];
        let ct0 = ctr(&c, &chunk_iv(&[0; 8], 0), &plain);
        let ct1 = ctr(&c, &chunk_iv(&[0; 8], 1), &plain);
        assert_ne!(ct0, ct1);
    }

    #[test]
    fn chunk_iv_is_unique_per_chunk() {
        let a = chunk_iv(&[7; 8], 0);
        let b = chunk_iv(&[7; 8], 1);
        let c = chunk_iv(&[8; 8], 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a[..8], [7; 8]);
        assert_eq!(b[8..], [0, 0, 0, 1, 0, 0, 0, 0]);
    }

    #[test]
    fn adjacent_chunks_share_no_keystream_block() {
        // Chunk i's counter runs in the low 4 bytes, under its own index,
        // so however long chunk 0 is it never reaches chunk 1's blocks.
        let c = cipher();
        let zeros = vec![0u8; 64 * BLOCK_SIZE];
        let nonce = [3u8; 8];
        let first = ctr(&c, &chunk_iv(&nonce, 0), &zeros);
        let second = ctr(&c, &chunk_iv(&nonce, 1), &zeros);
        for a in first.chunks(BLOCK_SIZE) {
            assert!(second.chunks(BLOCK_SIZE).all(|b| a != b));
        }
        // The block counter wraps inside its 4 bytes instead of carrying
        // into the chunk index.
        let mut last = chunk_iv(&nonce, 0);
        last[12..].copy_from_slice(&u32::MAX.to_be_bytes());
        let wrapped = ctr(&c, &last, &zeros[..2 * BLOCK_SIZE]);
        assert_eq!(wrapped[BLOCK_SIZE..], first[..BLOCK_SIZE]);
    }
}
