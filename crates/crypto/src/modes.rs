//! Block-cipher modes of operation used by the secure document format.
//!
//! Documents are encrypted **chunk by chunk** so that the SOE can skip whole
//! chunks guided by the skip index: each chunk is an independent ciphertext
//! with its own IV (CBC) or counter base (CTR). PKCS#7 padding is used for
//! CBC; CTR is length-preserving.

use crate::aes::{Aes128, Aes128Dec, BLOCK_SIZE};
use crate::error::CryptoError;

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

/// Encrypts `plaintext` with AES-128-CBC and PKCS#7 padding.
pub fn cbc_encrypt(cipher: &Aes128, iv: &[u8; BLOCK_SIZE], plaintext: &[u8]) -> Vec<u8> {
    let mut out = pkcs7_pad(plaintext);
    let mut prev = *iv;
    for chunk in out.chunks_exact_mut(BLOCK_SIZE) {
        xor_block(chunk, &prev);
        prev.copy_from_slice(chunk);
        cipher.encrypt_block(&mut prev);
        chunk.copy_from_slice(&prev);
    }
    out
}

/// Decrypts an AES-128-CBC ciphertext and strips PKCS#7 padding.
// Ciphertext in, cleartext out: SOE-side only.
pub fn cbc_decrypt(
    cipher: &Aes128Dec,
    iv: &[u8; BLOCK_SIZE],
    ciphertext: &[u8],
) -> Result<Vec<u8>, CryptoError> {
    if ciphertext.is_empty() || !ciphertext.len().is_multiple_of(BLOCK_SIZE) {
        return Err(CryptoError::BadCiphertextLength {
            len: ciphertext.len(),
        });
    }
    // CBC runs for key unwrap at provisioning only.
    let mut out = ciphertext.to_vec();
    let mut prev = *iv;
    for chunk in out.chunks_exact_mut(BLOCK_SIZE) {
        let mut block = [0u8; BLOCK_SIZE];
        block.copy_from_slice(chunk);
        let saved = block;
        cipher.decrypt_block(&mut block);
        xor_block(&mut block, &prev);
        chunk.copy_from_slice(&block);
        prev = saved;
    }
    pkcs7_unpad(&mut out)?;
    Ok(out)
}

/// Encrypts or decrypts `data` in place with AES-128-CTR (the operation is
/// symmetric). The 16-byte `nonce` is the initial counter block; the counter
/// occupies the last 4 bytes (big-endian) and is incremented per block,
/// wrapping inside those 4 bytes, so it never carries into the bytes before
/// them (see [`chunk_iv`]).
pub fn ctr_apply(cipher: &Aes128, nonce: &[u8; BLOCK_SIZE], data: &mut [u8]) {
    let mut counter_block = *nonce;
    // lint: infallible — a 4-byte slice of a `[u8; BLOCK_SIZE]` block.
    let mut counter = u32::from_be_bytes(counter_block[12..16].try_into().expect("4 bytes"));
    for chunk in data.chunks_mut(BLOCK_SIZE) {
        counter_block[12..16].copy_from_slice(&counter.to_be_bytes());
        let mut keystream = counter_block;
        cipher.encrypt_block(&mut keystream);
        xor_block(chunk, &keystream);
        counter = counter.wrapping_add(1);
    }
}

/// Applies PKCS#7 padding to a full multiple of the block size. An empty input
/// becomes one full block of padding, so every plaintext is recoverable.
pub fn pkcs7_pad(data: &[u8]) -> Vec<u8> {
    let pad = BLOCK_SIZE - (data.len() % BLOCK_SIZE);
    let mut out = Vec::with_capacity(data.len() + pad);
    out.extend_from_slice(data);
    out.extend(std::iter::repeat_n(pad as u8, pad));
    out
}

/// Strips PKCS#7 padding in place.
pub fn pkcs7_unpad(data: &mut Vec<u8>) -> Result<(), CryptoError> {
    let &last = data.last().ok_or(CryptoError::BadPadding)?;
    let pad = last as usize;
    if pad == 0 || pad > BLOCK_SIZE || pad > data.len() {
        return Err(CryptoError::BadPadding);
    }
    if !data[data.len() - pad..].iter().all(|&b| b == last) {
        return Err(CryptoError::BadPadding);
    }
    data.truncate(data.len() - pad);
    Ok(())
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

    /// NIST SP 800-38A: the AES-128 key and the four plaintext blocks shared
    /// by the F.2 (CBC) and F.5 (CTR) examples.
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
    fn sp800_38a_f21_cbc_aes128_encrypt() {
        let (c, plain) = sp800_38a();
        let iv: [u8; 16] = hex("000102030405060708090a0b0c0d0e0f").try_into().unwrap();
        let ct = cbc_encrypt(&c, &iv, &plain);
        // The vector has no padding; PKCS#7 appends one full block after it.
        assert_eq!(ct.len(), 80);
        assert_eq!(
            ct[..64],
            hex(concat!(
                "7649abac8119b246cee98e9b12e9197d",
                "5086cb9b507219ee95db113a917678b2",
                "73bed6b8e3c1743b7116e69e22229516",
                "3ff1caa1681fac09120eca307586e1a7",
            ))[..]
        );
        assert_eq!(cbc_decrypt(&c.decryptor(), &iv, &ct).unwrap(), plain);
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

    #[test]
    fn cbc_roundtrip_various_lengths() {
        let c = cipher();
        let iv = [9u8; 16];
        for len in [0usize, 1, 15, 16, 17, 31, 32, 100, 1000] {
            let plain: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let ct = cbc_encrypt(&c, &iv, &plain);
            assert_eq!(ct.len() % BLOCK_SIZE, 0);
            assert!(ct.len() > plain.len().saturating_sub(1));
            let back = cbc_decrypt(&c.decryptor(), &iv, &ct).unwrap();
            assert_eq!(back, plain, "roundtrip failed for length {len}");
        }
    }

    #[test]
    fn cbc_detects_truncated_ciphertext() {
        let c = cipher();
        let iv = [0u8; 16];
        let ct = cbc_encrypt(&c, &iv, b"hello world, this is a test");
        assert!(matches!(
            cbc_decrypt(&c.decryptor(), &iv, &ct[..ct.len() - 1]),
            Err(CryptoError::BadCiphertextLength { .. })
        ));
        assert!(matches!(
            cbc_decrypt(&c.decryptor(), &iv, &[]),
            Err(CryptoError::BadCiphertextLength { .. })
        ));
    }

    #[test]
    fn cbc_wrong_key_or_iv_fails_or_garbles() {
        let c = cipher();
        let other = Aes128::new(&[0x43; 16]);
        let iv = [1u8; 16];
        let plain = b"sensitive medical record".to_vec();
        let ct = cbc_encrypt(&c, &iv, &plain);
        // Wrong key: padding check almost certainly fails; if it does not, the
        // plaintext must still differ.
        match cbc_decrypt(&other.decryptor(), &iv, &ct) {
            Err(CryptoError::BadPadding) => {}
            Ok(garbled) => assert_ne!(garbled, plain),
            Err(e) => panic!("unexpected error {e}"),
        }
        // Wrong IV only garbles the first block.
        let wrong_iv = [2u8; 16];
        if let Ok(garbled) = cbc_decrypt(&c.decryptor(), &wrong_iv, &ct) {
            assert_ne!(garbled, plain);
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
    fn pkcs7_pad_unpad_edge_cases() {
        assert_eq!(pkcs7_pad(b"").len(), 16);
        assert_eq!(pkcs7_pad(&[0u8; 16]).len(), 32);
        let mut v = pkcs7_pad(b"abc");
        pkcs7_unpad(&mut v).unwrap();
        assert_eq!(v, b"abc");

        let mut bad = vec![1u8, 2, 3, 0];
        assert_eq!(pkcs7_unpad(&mut bad), Err(CryptoError::BadPadding));
        let mut bad = vec![5u8, 5, 5, 5]; // claims 5 bytes of padding in a 4-byte buffer
        assert_eq!(pkcs7_unpad(&mut bad), Err(CryptoError::BadPadding));
        let mut bad: Vec<u8> = vec![];
        assert_eq!(pkcs7_unpad(&mut bad), Err(CryptoError::BadPadding));
        let mut bad = vec![2u8, 3u8, 2u8, 3u8]; // inconsistent padding bytes
        assert_eq!(pkcs7_unpad(&mut bad), Err(CryptoError::BadPadding));
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
