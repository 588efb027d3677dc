//! The secure document format stored at the DSP.
//!
//! "The data are kept encrypted at the server" (§1) and the SOE "fetches the
//! appropriate encrypted XML document from the server, decrypts it, checks
//! that it has not been tampered" (§2). The format below packages the output
//! of the skip-index encoder for that purpose:
//!
//! * the plaintext (tag dictionary + token stream) is split into fixed-size
//!   **chunks**, each encrypted independently under AES-128-CTR from the
//!   counter block `nonce ‖ index ‖ 0` — so the SOE can decrypt any chunk in
//!   isolation, which is what makes skipping whole chunks possible, and any
//!   keystream block of a chunk in isolation ([`ChunkKeystream`]), which
//!   lets it leave the skipped bytes of a fetched chunk ciphertext,
//! * the document **nonce** is synthetic: a keyed PRF of the id, the chunk
//!   size and the whole plaintext. Two builds share a keystream only when
//!   they encrypt the same bytes the same way, and then their ciphertexts
//!   are identical, so no keystream ever covers two different plaintexts,
//! * every ciphertext chunk carries a 32-byte **tag** ([`ChunkTag`]), a
//!   two-lane Poly1305-then-AES MAC under key parts drawn from the `doc-int`
//!   subkey, binding the chunk to its document, nonce, chunk count and
//!   position — so the SOE detects tampering with any subset of chunks it
//!   consumes, chunk by chunk,
//! * a small plaintext **header** (format version 4) carries the
//!   identifiers and the geometry; the header itself is covered by a
//!   two-lane Poly1305-then-AES tag under key parts drawn from the `doc-mac`
//!   subkey.
//!
//! The types themselves ([`DocumentHeader`], [`ChunkTag`], [`SecureDocument`])
//! live in the key-free `sdds-wire` crate and are re-exported here: the DSP
//! depends on that crate alone. This module holds the crypto over them — the
//! builder, header and chunk verification, the chunk cipher and its
//! on-demand keystream — and is the only code that computes or inspects a
//! tag or runs the chunk cipher.

use std::sync::Arc;

use sdds_crypto::modes::{chunk_iv, ctr_apply, ctr_apply_at};
use sdds_crypto::siphash::siphash24;
use sdds_crypto::{verify_mac, Aes128, CryptoError, KeyDeriver, PolyAesKey, SecretKey};
use sdds_xml::Document;

use crate::error::CoreError;
use crate::skipindex::decode::Keystream;
use crate::skipindex::encode::{DocumentEncoder, EncodeStats, EncoderConfig};

pub use sdds_wire::{ChunkTag, DocumentHeader, SecureDocument, TAG_LEN};

/// Default plaintext chunk size, chosen so that one ciphertext chunk plus its
/// 36-byte `PUSH_CHUNK` framing (index and tag) fits comfortably in the
/// e-gate's 1 KiB of applet RAM.
pub const DEFAULT_CHUNK_SIZE: usize = 512;

/// The chunk sizes [`SecureDocumentBuilder::chunk_size`] accepts: at least
/// 64 bytes, and no more than the header's 32-bit `chunk_size` field holds.
pub const CHUNK_SIZES: std::ops::RangeInclusive<usize> = 64..=u32::MAX as usize;

/// The MAC of `header`: the two-lane Poly1305-then-AES tag of
/// [`DocumentHeader::mac_input`] under key parts drawn from the `doc-mac`
/// subkey.
fn header_mac(header: &DocumentHeader, keys: &KeyDeriver) -> [u8; 32] {
    PolyAesKey::from_key(keys.subkey("doc-mac").as_bytes()).tag(&header.mac_input())
}

/// Verifies the authenticity of `header` under the document key, scheduled
/// for derivation with [`SecretKey::deriver`].
pub fn verify_header(header: &DocumentHeader, keys: &KeyDeriver) -> Result<(), CoreError> {
    if verify_mac(&header_mac(header, keys), &header.mac) {
        Ok(())
    } else {
        Err(CryptoError::IntegrityFailure {
            context: format!("header of document `{}`", header.doc_id),
        }
        .into())
    }
}

/// Computes the tag of chunk `index`:
/// `AES_k1(P_r1(m)) ‖ AES_k2(P_r2(m))` over
/// `m = len(doc_id) ‖ doc_id ‖ nonce ‖ chunk_count ‖ index ‖ ciphertext`,
/// with `P_r` Poly1305's polynomial mod `2^130 − 5` reduced to 128 bits and
/// `r1`, `r2`, `k1`, `k2` drawn from the document's `doc-int` subkey (see
/// [`integrity_key`] and [`PolyAesKey`]).
///
/// The nonce binds the tag to one build of the document, the index to one
/// position and the chunk count to one length, so a chunk replayed from
/// another document or revision, moved, or cut short fails
/// [`verify_chunk`].
fn chunk_tag(
    integrity: &PolyAesKey,
    header: &DocumentHeader,
    index: u32,
    ciphertext: &[u8],
) -> ChunkTag {
    let mut mac = integrity.start();
    mac.update(&(header.doc_id.len() as u32).to_le_bytes());
    mac.update(header.doc_id.as_bytes());
    mac.update(&header.nonce);
    mac.update(&header.chunk_count.to_le_bytes());
    mac.update(&index.to_le_bytes());
    mac.update(ciphertext);
    ChunkTag::from_bytes(integrity.finish(mac))
}

/// Checks that `tag` vouches for `ciphertext` as chunk `index` of the
/// document `header` describes, under the integrity key of
/// [`integrity_key`]. The comparison is constant-time.
pub fn verify_chunk(
    integrity: &PolyAesKey,
    header: &DocumentHeader,
    index: u32,
    ciphertext: &[u8],
    tag: &ChunkTag,
) -> Result<(), CryptoError> {
    let expected = chunk_tag(integrity, header, index, ciphertext);
    if verify_mac(expected.as_bytes(), tag.as_bytes()) {
        Ok(())
    } else {
        Err(CryptoError::IntegrityFailure {
            context: format!("tag of chunk {index} of `{}`", header.doc_id),
        })
    }
}

/// Expands the chunk cipher of a document: the `doc-enc` subkey of the
/// document key (scheduled for derivation with [`SecretKey::deriver`]),
/// expanded once per session (or per build) and then reused for every
/// chunk.
pub fn document_cipher(keys: &KeyDeriver) -> Aes128 {
    Aes128::new(keys.subkey("doc-enc").as_bytes())
}

/// The four key parts of a document's chunk tags: AES under the `doc-int`
/// subkey of the blocks `0`, `1`, `2` and `3`, which are the lanes'
/// polynomial keys `r1`, `r2` and AES keys `k1`, `k2`. A session derives
/// one subkey for them, however many parts there are.
fn tag_key_parts(keys: &KeyDeriver) -> [[u8; 16]; 4] {
    Aes128::new(keys.subkey("doc-int").as_bytes()).key_parts(0)
}

/// Schedules the chunk-tag key of a document from `tag_key_parts`: the
/// two Poly1305 lanes and their AES keys, once per session (or per build),
/// next to [`document_cipher`].
pub fn integrity_key(keys: &KeyDeriver) -> PolyAesKey {
    let [r1, r2, k1, k2] = tag_key_parts(keys);
    PolyAesKey::new([&r1, &r2], [&k1, &k2])
}

/// Decrypts one whole chunk in place under the document's chunk cipher (see
/// [`document_cipher`]) and header: `chunk` holds the ciphertext on entry
/// and the plaintext on return. The SOE calls it, only after the chunk's
/// tag verified, on the chunks that hold the tag dictionary; the token
/// stream it deciphers on demand with a [`ChunkKeystream`] instead. The DOM
/// baseline decrypts every chunk with it.
pub fn decrypt_chunk(cipher: &Aes128, header: &DocumentHeader, index: u32, chunk: &mut [u8]) {
    ctr_apply(cipher, &chunk_iv(&header.nonce, index), chunk);
}

/// The keystream of a document's chunks, as one stream over the plaintext
/// offsets: byte `o` is byte `o mod chunk_size` of chunk `o / chunk_size`,
/// whose CTR counter starts at [`chunk_iv`]. It borrows the session's chunk
/// cipher and deciphers any range of ciphertext in place, one keystream
/// block at a time, so the token reader decrypts only the bytes it decodes
/// (see [`Keystream`]). Only verified chunks ever reach it: the SOE supplies
/// a chunk's ciphertext to the reader after its tag checks.
#[derive(Clone, Copy)]
pub struct ChunkKeystream<'k> {
    cipher: &'k Aes128,
    nonce: &'k [u8; 8],
    chunk_size: u64,
}

impl<'k> ChunkKeystream<'k> {
    /// The keystream of the document `header` describes, under its chunk
    /// cipher (see [`document_cipher`]).
    pub fn new(cipher: &'k Aes128, header: &'k DocumentHeader) -> Self {
        ChunkKeystream {
            cipher,
            nonce: &header.nonce,
            chunk_size: u64::from(header.chunk_size),
        }
    }
}

impl Keystream for ChunkKeystream<'_> {
    fn reveal(&self, offset: u64, bytes: &mut [u8], min: usize) -> usize {
        const BLOCK: usize = sdds_crypto::aes::BLOCK_SIZE;
        let chunk_size = self.chunk_size as usize;
        let mut chunk = (offset / self.chunk_size) as u32;
        let mut in_chunk = (offset % self.chunk_size) as usize;
        let mut done = 0;
        while done < min {
            // Through the block that holds byte `min - 1` (a chunk's last
            // block may be short), and not past `bytes`.
            let end = (in_chunk + (min - done))
                .next_multiple_of(BLOCK)
                .min(chunk_size);
            let len = (end - in_chunk).min(bytes.len() - done);
            ctr_apply_at(
                self.cipher,
                &chunk_iv(self.nonce, chunk),
                in_chunk,
                &mut bytes[done..done + len],
            );
            done += len;
            (chunk, in_chunk) = (chunk.wrapping_add(1), 0);
        }
        done
    }
}

/// Builder for [`SecureDocument`].
#[derive(Debug, Clone)]
pub struct SecureDocumentBuilder {
    doc_id: String,
    key: SecretKey,
    chunk_size: usize,
    encoder: EncoderConfig,
}

impl SecureDocumentBuilder {
    /// Creates a builder for document `doc_id` encrypted under `key`.
    pub fn new(doc_id: impl Into<String>, key: SecretKey) -> Self {
        SecureDocumentBuilder {
            doc_id: doc_id.into(),
            key,
            chunk_size: DEFAULT_CHUNK_SIZE,
            encoder: EncoderConfig::default(),
        }
    }

    /// Sets the plaintext chunk size.
    ///
    /// # Panics
    /// Panics if `size` is outside [`CHUNK_SIZES`].
    pub fn chunk_size(mut self, size: usize) -> Self {
        assert!(
            CHUNK_SIZES.contains(&size),
            "chunk size {size} is not supported: outside {CHUNK_SIZES:?}"
        );
        self.chunk_size = size;
        self
    }

    /// Sets the skip-index encoder configuration.
    pub fn encoder_config(mut self, config: EncoderConfig) -> Self {
        self.encoder = config;
        self
    }

    /// The nonce of a build: SipHash-2-4 of the plaintext, under a PRF key
    /// that a Poly1305-then-AES tag (under key parts drawn from the
    /// `doc-nonce` subkey) derives from the id and the chunk size. It is
    /// fresh for every new content, so no two different plaintexts are ever
    /// encrypted under one keystream, and it needs no entropy source: the
    /// same content under the same key rebuilds byte for byte.
    fn synthetic_nonce(&self, keys: &KeyDeriver, plaintext: &[u8]) -> [u8; 8] {
        let seed_key = PolyAesKey::from_key(keys.subkey("doc-nonce").as_bytes());
        let mut seed = seed_key.start();
        seed.update(&(self.doc_id.len() as u32).to_le_bytes());
        seed.update(self.doc_id.as_bytes());
        seed.update(&(self.chunk_size as u32).to_le_bytes());
        let mut prf_key = [0u8; 16];
        prf_key.copy_from_slice(&seed_key.finish(seed)[..16]);
        siphash24(&prf_key, plaintext).to_le_bytes()
    }

    /// Encodes, chunks, encrypts and tags `doc`.
    pub fn build(&self, doc: &Document) -> SecureDocument {
        self.build_with_stats(doc).0
    }

    /// [`SecureDocumentBuilder::build`], returning the encoder's statistics
    /// (index overhead etc.) beside the document. The statistics describe
    /// the plaintext structure, so they stay with the publisher: the stored
    /// document carries ciphertext only.
    pub fn build_with_stats(&self, doc: &Document) -> (SecureDocument, EncodeStats) {
        let encoded = DocumentEncoder::new(self.encoder).encode(doc);
        let plaintext = encoded.plaintext();
        let keys = self.key.deriver();
        let nonce = self.synthetic_nonce(&keys, &plaintext);

        let cipher = document_cipher(&keys);
        let mut chunks = Vec::with_capacity(plaintext.len().div_ceil(self.chunk_size).max(1));
        if plaintext.is_empty() {
            chunks.push(Arc::from(&[][..]));
        } else {
            for (index, chunk) in plaintext.chunks(self.chunk_size).enumerate() {
                let mut chunk: Arc<[u8]> = Arc::from(chunk);
                // lint: infallible — a fresh `Arc` has no other owner.
                let bytes = Arc::get_mut(&mut chunk).expect("fresh Arc is unique");
                ctr_apply(&cipher, &chunk_iv(&nonce, index as u32), bytes);
                chunks.push(chunk);
            }
        }

        let mut header = DocumentHeader {
            doc_id: self.doc_id.clone(),
            nonce,
            chunk_size: self.chunk_size as u32,
            chunk_count: chunks.len() as u32,
            plaintext_len: plaintext.len() as u64,
            tokens_start: encoded.dict.encoded_len() as u64,
            recursive_bitmaps: self.encoder.recursive_bitmaps,
            mac: [0u8; 32],
        };
        header.mac = header_mac(&header, &keys);
        let integrity = integrity_key(&keys);
        let tags = chunks
            .iter()
            .enumerate()
            .map(|(index, chunk)| chunk_tag(&integrity, &header, index as u32, chunk))
            .collect();

        (SecureDocument::new(header, chunks, tags), encoded.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skipindex::decode::decode_all;
    use sdds_xml::generator::{self, GeneratorConfig, HospitalProfile};

    fn key() -> SecretKey {
        SecretKey::derive(b"community-secret", "medical-folder")
    }

    fn sample_doc() -> Document {
        generator::hospital(
            &HospitalProfile {
                patients: 5,
                ..HospitalProfile::default()
            },
            &GeneratorConfig::default(),
        )
    }

    #[test]
    fn build_verify_and_decrypt_roundtrip() {
        let doc = sample_doc();
        let secure = SecureDocumentBuilder::new("folder-42", key()).build(&doc);
        assert!(secure.chunk_count() > 1);
        assert_eq!(secure.chunk_count() as u32, secure.header.chunk_count);
        verify_header(&secure.header, &key().deriver()).unwrap();

        // Verify every chunk's tag, decrypt it, reassemble the plaintext.
        let cipher = document_cipher(&key().deriver());
        let integrity = integrity_key(&key().deriver());
        let mut plaintext = Vec::new();
        for i in 0..secure.chunk_count() {
            let (chunk, tag) = secure.sealed_chunk(i).unwrap();
            verify_chunk(&integrity, &secure.header, i as u32, &chunk, &tag).unwrap();
            let mut clear = chunk.to_vec();
            decrypt_chunk(&cipher, &secure.header, i as u32, &mut clear);
            plaintext.extend(clear);
        }
        assert_eq!(plaintext.len() as u64, secure.header.plaintext_len);
        let events = decode_all(&plaintext, secure.header.recursive_bitmaps).unwrap();
        assert_eq!(events, doc.to_events());
    }

    #[test]
    fn header_encode_decode_roundtrip() {
        let secure = SecureDocumentBuilder::new("doc-1", key()).build(&sample_doc());
        let back = DocumentHeader::decode(&secure.header.encode()).unwrap();
        assert_eq!(back, secure.header);
        verify_header(&back, &key().deriver()).unwrap();
    }

    #[test]
    fn wrong_key_fails_header_verification() {
        let secure = SecureDocumentBuilder::new("doc-1", key()).build(&sample_doc());
        let other = SecretKey::derive(b"other", "k");
        assert!(verify_header(&secure.header, &other.deriver()).is_err());
        let (chunk, tag) = secure.sealed_chunk(0).unwrap();
        assert!(verify_chunk(
            &integrity_key(&other.deriver()),
            &secure.header,
            0,
            &chunk,
            &tag
        )
        .is_err());
    }

    #[test]
    fn tampered_header_or_chunk_is_detected() {
        let secure = SecureDocumentBuilder::new("doc-1", key()).build(&sample_doc());
        let integrity = integrity_key(&key().deriver());
        // Tampered header field.
        let mut header = secure.header.clone();
        header.chunk_size += 1;
        assert!(verify_header(&header, &key().deriver()).is_err());
        // Tampered chunk fails its tag.
        let (chunk, tag) = secure.sealed_chunk(1).unwrap();
        let mut flipped = chunk.to_vec();
        flipped[0] ^= 0xFF;
        assert!(verify_chunk(&integrity, &secure.header, 1, &flipped, &tag).is_err());
        // A chunk moved to another position fails too, with or without
        // the tag of that position.
        assert!(verify_chunk(&integrity, &secure.header, 0, &chunk, &tag).is_err());
        let (_, tag0) = secure.sealed_chunk(0).unwrap();
        assert!(verify_chunk(&integrity, &secure.header, 0, &chunk, &tag0).is_err());
        // Tags bind the chunk count: a header claiming fewer chunks does
        // not vouch for the genuine tags.
        let mut shorter = secure.header.clone();
        shorter.chunk_count -= 1;
        assert!(verify_chunk(&integrity, &shorter, 1, &chunk, &tag).is_err());
    }

    #[test]
    fn tag_halves_and_lanes_are_each_checked() {
        let secure = SecureDocumentBuilder::new("doc-1", key()).build(&sample_doc());
        let integrity = integrity_key(&key().deriver());
        let (chunk, tag) = secure.sealed_chunk(1).unwrap();
        let rejects = |bytes: [u8; TAG_LEN]| {
            matches!(
                verify_chunk(
                    &integrity,
                    &secure.header,
                    1,
                    &chunk,
                    &ChunkTag::from_bytes(bytes)
                ),
                Err(CryptoError::IntegrityFailure { .. })
            )
        };
        // A bit flip anywhere in either lane's half fails.
        for byte in 0..TAG_LEN {
            let mut bytes = *tag.as_bytes();
            bytes[byte] ^= 1 << (byte % 8);
            assert!(rejects(bytes), "flip in byte {byte}");
        }
        // The halves swapped, or a tag made with the lanes' keys swapped.
        let mut swapped = *tag.as_bytes();
        swapped.rotate_left(TAG_LEN / 2);
        assert!(rejects(swapped));
        let [r1, r2, k1, k2] = tag_key_parts(&key().deriver());
        let crossed = PolyAesKey::new([&r2, &r1], [&k2, &k1]);
        assert!(rejects(
            *chunk_tag(&crossed, &secure.header, 1, &chunk).as_bytes()
        ));
    }

    #[test]
    fn tag_key_parts_are_distinct_from_each_other_and_the_cipher_key() {
        let parts = tag_key_parts(&key().deriver());
        for (i, a) in parts.iter().enumerate() {
            for b in &parts[i + 1..] {
                assert_ne!(a, b);
            }
            assert_ne!(a, key().subkey("doc-enc").as_bytes());
            assert_ne!(a, key().subkey("doc-int").as_bytes());
        }
        // The parts are a function of the document key alone.
        assert_eq!(parts, tag_key_parts(&key().deriver()));
        assert_ne!(
            parts,
            tag_key_parts(&SecretKey::derive(b"other", "k").deriver())
        );
    }

    #[test]
    fn chunk_geometry_helpers() {
        let secure = SecureDocumentBuilder::new("doc-1", key())
            .chunk_size(256)
            .build(&sample_doc());
        assert_eq!(secure.header.chunk_size, 256);
        assert_eq!(secure.chunk(0).unwrap().len(), 256);
        assert!(secure.ciphertext_len() as u64 >= secure.header.plaintext_len);
        let last = secure.chunk_count() - 1;
        assert!(secure.sealed_chunk(last).is_some());
        assert!(secure.sealed_chunk(last + 1).is_none());
    }

    #[test]
    fn different_keys_produce_different_ciphertexts() {
        let doc = sample_doc();
        let a = SecureDocumentBuilder::new("doc-1", key()).build(&doc);
        let b = SecureDocumentBuilder::new("doc-1", SecretKey::derive(b"other", "k")).build(&doc);
        assert_ne!(a.chunk(0).unwrap(), b.chunk(0).unwrap());
        // Same key and id, new content: a fresh nonce, so different
        // ciphertext of the same sizes where the plaintexts agree. (Equal
        // content rebuilds byte for byte: one keystream, one plaintext.)
        let mut edited = sample_doc();
        let root = edited.root().unwrap();
        edited.add_text(root, "revised");
        let c = SecureDocumentBuilder::new("doc-1", key()).build(&edited);
        assert_ne!(a.header.nonce, c.header.nonce);
        assert_ne!(a.chunk(0).unwrap(), c.chunk(0).unwrap());
        assert_eq!(a.chunk(0).unwrap().len(), c.chunk(0).unwrap().len());
    }

    #[test]
    fn the_nonce_is_bound_to_content_id_and_geometry() {
        let doc = sample_doc();
        let builder = SecureDocumentBuilder::new("doc-1", key());
        let a = builder.build(&doc);
        // The same content under the same key rebuilds byte for byte...
        let again = builder.build(&doc);
        assert_eq!(a.header, again.header);
        assert_eq!(a.chunks, again.chunks);
        // ...and another id or chunk size draws another nonce.
        let renamed = SecureDocumentBuilder::new("doc-2", key()).build(&doc);
        let recut = builder.clone().chunk_size(256).build(&doc);
        assert_ne!(a.header.nonce, renamed.header.nonce);
        assert_ne!(a.header.nonce, recut.header.nonce);
    }

    #[test]
    #[should_panic(expected = "not supported")]
    fn tiny_chunk_sizes_are_rejected() {
        let _ = SecureDocumentBuilder::new("doc-1", key()).chunk_size(16);
    }
}
