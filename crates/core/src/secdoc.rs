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
//!   isolation, which is what makes skipping possible,
//! * the document **nonce** is synthetic: a keyed PRF of the id, the chunk
//!   size and the whole plaintext. Two builds share a keystream only when
//!   they encrypt the same bytes the same way, and then their ciphertexts
//!   are identical, so no keystream ever covers two different plaintexts,
//! * every ciphertext chunk carries a 32-byte **tag** ([`ChunkTag`]), a
//!   two-lane Poly1305-then-AES MAC under key parts drawn from the `doc-int`
//!   subkey, binding the chunk to its document, nonce, chunk count and
//!   position — so the SOE detects tampering with any subset of chunks it
//!   consumes, chunk by chunk,
//! * a small plaintext **header** (format version 3) carries the
//!   identifiers and the geometry; the header itself is covered by an HMAC
//!   under the `doc-mac` subkey.
//!
//! Only this module computes or inspects a tag; the DSP, the transports and
//! the drivers carry it along as an opaque `Copy` value.

use std::sync::Arc;

use sdds_crypto::hmac::{hmac_sha256, verify_mac, HmacKey};
use sdds_crypto::modes::{chunk_iv, ctr_apply};
use sdds_crypto::siphash::siphash24;
use sdds_crypto::{Aes128, CryptoError, PolyAesKey, SecretKey};
use sdds_xml::Document;

use crate::error::CoreError;
use crate::skipindex::encode::{DocumentEncoder, EncodeStats, EncoderConfig};

/// Default plaintext chunk size, chosen so that one ciphertext chunk plus its
/// 36-byte `PUSH_CHUNK` framing (index and tag) fits comfortably in the
/// e-gate's 1 KiB of applet RAM.
pub const DEFAULT_CHUNK_SIZE: usize = 512;

/// Size of a [`ChunkTag`] in bytes.
pub const TAG_LEN: usize = 32;

/// Version byte of the header encoding (3: the chunk tags are two-lane
/// Poly1305-then-AES; 2 had HMAC-SHA256 tags, 1 a hash-tree root).
const FORMAT_VERSION: u8 = 3;

/// Plaintext header of a secure document.
#[derive(Debug, Clone, PartialEq)]
pub struct DocumentHeader {
    /// Document identifier (unique at the DSP).
    pub doc_id: String,
    /// Nonce from which per-chunk counter blocks are derived.
    pub nonce: [u8; 8],
    /// Plaintext chunk size in bytes (the last chunk may be shorter).
    pub chunk_size: u32,
    /// Number of chunks.
    pub chunk_count: u32,
    /// Total plaintext length (dictionary + tokens).
    pub plaintext_len: u64,
    /// Byte offset at which the token stream starts (end of the dictionary).
    pub tokens_start: u64,
    /// Whether nested summaries use recursive bitmap compression.
    pub recursive_bitmaps: bool,
    /// HMAC over all the fields above, keyed by the document MAC key.
    pub mac: [u8; 32],
}

impl DocumentHeader {
    fn mac_input(&self) -> Vec<u8> {
        // alloc: startup — the header MAC is computed once per session open.
        let mut buf = Vec::with_capacity(64 + self.doc_id.len());
        buf.extend_from_slice(self.doc_id.as_bytes());
        buf.push(0);
        buf.extend_from_slice(&self.nonce);
        buf.extend_from_slice(&self.chunk_size.to_le_bytes());
        buf.extend_from_slice(&self.chunk_count.to_le_bytes());
        buf.extend_from_slice(&self.plaintext_len.to_le_bytes());
        buf.extend_from_slice(&self.tokens_start.to_le_bytes());
        buf.push(u8::from(self.recursive_bitmaps));
        buf
    }

    /// Verifies the header authenticity under the document key.
    pub fn verify(&self, key: &SecretKey) -> Result<(), CoreError> {
        let mac_key = key.subkey("doc-mac");
        let expected = hmac_sha256(mac_key.as_bytes(), &self.mac_input());
        if verify_mac(&expected, &self.mac) {
            Ok(())
        } else {
            Err(CryptoError::IntegrityFailure {
                // alloc: cold — integrity-failure error path.
                context: format!("header of document `{}`", self.doc_id),
            }
            .into())
        }
    }

    /// Serialised size of [`DocumentHeader::encode`]'s output, without
    /// building it — the DSP accounts header bytes per serve, and computing
    /// the count keeps the serving read path allocation-free.
    pub fn encoded_len(&self) -> usize {
        // magic + version + id length prefix + id + nonce + chunk_size +
        // chunk_count + plaintext_len + tokens_start + recursive_bitmaps +
        // mac.
        4 + 1 + 2 + self.doc_id.len() + 8 + 4 + 4 + 8 + 8 + 1 + 32
    }

    /// Serialises the header.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(b"SDDS");
        out.push(FORMAT_VERSION);
        out.extend_from_slice(&(self.doc_id.len() as u16).to_le_bytes());
        out.extend_from_slice(self.doc_id.as_bytes());
        out.extend_from_slice(&self.nonce);
        out.extend_from_slice(&self.chunk_size.to_le_bytes());
        out.extend_from_slice(&self.chunk_count.to_le_bytes());
        out.extend_from_slice(&self.plaintext_len.to_le_bytes());
        out.extend_from_slice(&self.tokens_start.to_le_bytes());
        out.push(u8::from(self.recursive_bitmaps));
        out.extend_from_slice(&self.mac);
        out
    }

    /// Parses a header.
    pub fn decode(bytes: &[u8]) -> Result<Self, CoreError> {
        let bad = |m: &str| CoreError::BadDocument {
            // alloc: cold — malformed header error path.
            message: format!("header: {m}"),
        };
        if bytes.len() < 7 || &bytes[..4] != b"SDDS" {
            return Err(bad("bad magic"));
        }
        if bytes[4] != FORMAT_VERSION {
            return Err(bad("unsupported version"));
        }
        let id_len = u16::from_le_bytes([bytes[5], bytes[6]]) as usize;
        let mut pos = 7usize;
        let doc_id = String::from_utf8(
            bytes
                .get(pos..pos + id_len)
                .ok_or_else(|| bad("truncated id"))?
                // alloc: startup — the header decodes once per session open.
                .to_vec(),
        )
        .map_err(|_| bad("non UTF-8 id"))?;
        pos += id_len;
        let take = |pos: &mut usize, n: usize| -> Result<&[u8], CoreError> {
            let s = bytes
                .get(*pos..*pos + n)
                .ok_or_else(|| bad("truncated header"))?;
            *pos += n;
            Ok(s)
        };
        // lint: infallible — `take(n)` returns exactly `n` bytes, so every
        // fixed-width conversion below succeeds.
        let nonce: [u8; 8] = take(&mut pos, 8)?.try_into().expect("8 bytes");
        let chunk_size = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes")); // lint: infallible — see above
        let chunk_count = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes")); // lint: infallible — see above
        let plaintext_len = u64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("8 bytes")); // lint: infallible — see above
        let tokens_start = u64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("8 bytes")); // lint: infallible — see above
        let recursive_bitmaps = take(&mut pos, 1)?[0] != 0;
        let mac: [u8; 32] = take(&mut pos, 32)?.try_into().expect("32 bytes"); // lint: infallible — see above
        Ok(DocumentHeader {
            doc_id,
            nonce,
            chunk_size,
            chunk_count,
            plaintext_len,
            tokens_start,
            recursive_bitmaps,
            mac,
        })
    }
}

/// The integrity tag of one ciphertext chunk:
/// `AES_k1(P_r1(m)) ‖ AES_k2(P_r2(m))` over
/// `m = len(doc_id) ‖ doc_id ‖ nonce ‖ chunk_count ‖ index ‖ ciphertext`,
/// with `P_r` Poly1305's polynomial mod `2^130 − 5` reduced to 128 bits and
/// `r1`, `r2`, `k1`, `k2` drawn from the document's `doc-int` subkey (see
/// [`integrity_key`] and [`PolyAesKey`]).
///
/// The nonce binds the tag to one build of the document, the index to one
/// position and the chunk count to one length, so a chunk replayed from
/// another document or revision, moved, or cut short fails
/// [`verify_chunk`]. Outside this module a tag is opaque: stored next to
/// its chunk at the DSP and framed after the chunk index on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkTag([u8; TAG_LEN]);

impl ChunkTag {
    /// Wraps tag bytes read off the wire.
    pub fn from_bytes(bytes: [u8; TAG_LEN]) -> Self {
        ChunkTag(bytes)
    }

    /// The tag bytes as framed on the wire.
    pub fn as_bytes(&self) -> &[u8; TAG_LEN] {
        &self.0
    }

    /// Serialised size — the wire ledgers count it without building it.
    pub fn encoded_len(&self) -> usize {
        TAG_LEN
    }

    /// Serialises the tag.
    pub fn encode(&self) -> Vec<u8> {
        self.0.to_vec()
    }
}

/// Computes the tag of chunk `index` (see [`ChunkTag`]).
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
    ChunkTag(integrity.finish(mac))
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
    if verify_mac(&expected.0, &tag.0) {
        Ok(())
    } else {
        Err(CryptoError::IntegrityFailure {
            // alloc: cold — integrity-failure error path.
            context: format!("tag of chunk {index} of `{}`", header.doc_id),
        })
    }
}

/// A fully built secure document, ready to be uploaded to the DSP.
#[derive(Debug, Clone)]
pub struct SecureDocument {
    /// Plaintext header.
    pub header: DocumentHeader,
    /// Encrypted chunks. Each chunk sits behind an `Arc` so the DSP can
    /// serve it by bumping a refcount instead of copying ciphertext per
    /// request (the chunks are immutable once built).
    pub chunks: Vec<Arc<[u8]>>,
    /// The tag of each chunk, index for index.
    tags: Vec<ChunkTag>,
    /// Encoding statistics (index overhead etc.).
    pub encode_stats: EncodeStats,
}

impl SecureDocument {
    /// Number of chunks.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Ciphertext of chunk `index`.
    pub fn chunk(&self, index: usize) -> Option<&[u8]> {
        self.chunks.get(index).map(|c| &c[..])
    }

    /// Chunk `index` as it is served: a shared handle to its ciphertext —
    /// the DSP hands the same allocation to every requester — and its tag.
    pub fn sealed_chunk(&self, index: usize) -> Option<(Arc<[u8]>, ChunkTag)> {
        Some((Arc::clone(self.chunks.get(index)?), *self.tags.get(index)?))
    }

    /// Total ciphertext size (what the DSP stores for the document body).
    pub fn ciphertext_len(&self) -> usize {
        self.chunks.iter().map(|c| c.len()).sum()
    }

    /// Plaintext byte range covered by chunk `index`.
    pub fn chunk_range(&self, index: usize) -> (u64, u64) {
        let start = index as u64 * u64::from(self.header.chunk_size);
        let end = (start + u64::from(self.header.chunk_size)).min(self.header.plaintext_len);
        (start, end)
    }

    /// Index of the chunk containing plaintext `offset`.
    pub fn chunk_of(&self, offset: u64) -> u32 {
        (offset / u64::from(self.header.chunk_size)) as u32
    }
}

/// Expands the chunk cipher of a document: the `doc-enc` subkey of the
/// document key, scheduled once per session (or per build) and then reused
/// for every chunk.
// taint: source — derives the document's encryption schedule from its key.
pub fn document_cipher(key: &SecretKey) -> Aes128 {
    Aes128::new(key.subkey("doc-enc").as_bytes())
}

/// The four key parts of a document's chunk tags: AES under the `doc-int`
/// subkey of the blocks `0`, `1`, `2` and `3`, which are the lanes'
/// polynomial keys `r1`, `r2` and AES keys `k1`, `k2`. A session derives
/// one subkey for them, however many parts there are.
// taint: source — expands the document key into chunk-tag key material.
fn tag_key_parts(key: &SecretKey) -> [[u8; 16]; 4] {
    let aes = Aes128::new(key.subkey("doc-int").as_bytes());
    std::array::from_fn(|part| {
        let mut block = [0u8; 16];
        block[0] = part as u8;
        aes.encrypt_block(&mut block);
        block
    })
}

/// Schedules the chunk-tag key of a document from `tag_key_parts`: the
/// two Poly1305 lanes and their AES keys, once per session (or per build),
/// next to [`document_cipher`].
// taint: source — derives the document's integrity key from its key.
pub fn integrity_key(key: &SecretKey) -> PolyAesKey {
    let [r1, r2, k1, k2] = tag_key_parts(key);
    PolyAesKey::new([&r1, &r2], [&k1, &k2])
}

/// Decrypts one chunk in place under the document's chunk cipher (see
/// [`document_cipher`]) and header (used by the SOE after integrity
/// verification): `chunk` holds the ciphertext on entry and the plaintext
/// on return.
// taint: source — re-introduces cleartext from a verified ciphertext chunk;
// callable only on the card side, which holds the document key.
pub fn decrypt_chunk(cipher: &Aes128, header: &DocumentHeader, index: u32, chunk: &mut [u8]) {
    ctr_apply(cipher, &chunk_iv(&header.nonce, index), chunk);
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
    pub fn chunk_size(mut self, size: usize) -> Self {
        assert!(size >= 64, "chunks below 64 bytes are not supported");
        self.chunk_size = size;
        self
    }

    /// Sets the skip-index encoder configuration.
    pub fn encoder_config(mut self, config: EncoderConfig) -> Self {
        self.encoder = config;
        self
    }

    /// The nonce of a build: SipHash-2-4 of the plaintext, under a PRF key
    /// that an HMAC (keyed by the `doc-nonce` subkey) derives from the id
    /// and the chunk size. It is fresh for every new content, so no two
    /// different plaintexts are ever encrypted under one keystream, and it
    /// needs no entropy source: the same content under the same key
    /// rebuilds byte for byte.
    fn synthetic_nonce(&self, plaintext: &[u8]) -> [u8; 8] {
        let seed_key = HmacKey::new(self.key.subkey("doc-nonce").as_bytes());
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
        let encoded = DocumentEncoder::new(self.encoder).encode(doc);
        let plaintext = encoded.plaintext();
        let nonce = self.synthetic_nonce(&plaintext);

        let cipher = document_cipher(&self.key);
        let mut chunks = Vec::with_capacity(plaintext.len().div_ceil(self.chunk_size).max(1));
        if plaintext.is_empty() {
            chunks.push(Arc::from(&[][..]));
        } else {
            for (index, chunk) in plaintext.chunks(self.chunk_size).enumerate() {
                let mut chunk = chunk.to_vec();
                ctr_apply(&cipher, &chunk_iv(&nonce, index as u32), &mut chunk);
                chunks.push(chunk.into());
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
        let mac_key = self.key.subkey("doc-mac");
        header.mac = hmac_sha256(mac_key.as_bytes(), &header.mac_input());
        let integrity = integrity_key(&self.key);
        let tags = chunks
            .iter()
            .enumerate()
            .map(|(index, chunk)| chunk_tag(&integrity, &header, index as u32, chunk))
            .collect();

        SecureDocument {
            header,
            chunks,
            tags,
            encode_stats: encoded.stats,
        }
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
        secure.header.verify(&key()).unwrap();

        // Verify every chunk's tag, decrypt it, reassemble the plaintext.
        let cipher = document_cipher(&key());
        let integrity = integrity_key(&key());
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
        let bytes = secure.header.encode();
        assert_eq!(bytes.len(), secure.header.encoded_len());
        let back = DocumentHeader::decode(&bytes).unwrap();
        assert_eq!(back, secure.header);
        back.verify(&key()).unwrap();
        assert!(DocumentHeader::decode(&bytes[..10]).is_err());
        assert!(DocumentHeader::decode(b"XXXX123").is_err());
        // Version 1 (a hash-tree root) and version 2 (HMAC chunk tags)
        // headers are refused at decode, with a typed error.
        for version in [1, 2] {
            let mut old = bytes.clone();
            old[4] = version;
            assert!(matches!(
                DocumentHeader::decode(&old),
                Err(CoreError::BadDocument { message }) if message.contains("unsupported version")
            ));
        }
    }

    #[test]
    fn wrong_key_fails_header_verification() {
        let secure = SecureDocumentBuilder::new("doc-1", key()).build(&sample_doc());
        let other = SecretKey::derive(b"other", "k");
        assert!(secure.header.verify(&other).is_err());
        let (chunk, tag) = secure.sealed_chunk(0).unwrap();
        assert!(verify_chunk(&integrity_key(&other), &secure.header, 0, &chunk, &tag).is_err());
    }

    #[test]
    fn tampered_header_or_chunk_is_detected() {
        let secure = SecureDocumentBuilder::new("doc-1", key()).build(&sample_doc());
        let integrity = integrity_key(&key());
        // Tampered header field.
        let mut header = secure.header.clone();
        header.chunk_size += 1;
        assert!(header.verify(&key()).is_err());
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
        let integrity = integrity_key(&key());
        let (chunk, tag) = secure.sealed_chunk(1).unwrap();
        let rejects = |bytes: [u8; TAG_LEN]| {
            matches!(
                verify_chunk(&integrity, &secure.header, 1, &chunk, &ChunkTag(bytes)),
                Err(CryptoError::IntegrityFailure { .. })
            )
        };
        // A bit flip anywhere in either lane's half fails.
        for byte in 0..TAG_LEN {
            let mut bytes = tag.0;
            bytes[byte] ^= 1 << (byte % 8);
            assert!(rejects(bytes), "flip in byte {byte}");
        }
        // The halves swapped, or a tag made with the lanes' keys swapped.
        let mut swapped = tag.0;
        swapped.rotate_left(TAG_LEN / 2);
        assert!(rejects(swapped));
        let [r1, r2, k1, k2] = tag_key_parts(&key());
        let crossed = PolyAesKey::new([&r2, &r1], [&k2, &k1]);
        assert!(rejects(chunk_tag(&crossed, &secure.header, 1, &chunk).0));
    }

    #[test]
    fn tag_key_parts_are_distinct_from_each_other_and_the_cipher_key() {
        let parts = tag_key_parts(&key());
        for (i, a) in parts.iter().enumerate() {
            for b in &parts[i + 1..] {
                assert_ne!(a, b);
            }
            assert_ne!(a, key().subkey("doc-enc").as_bytes());
            assert_ne!(a, key().subkey("doc-int").as_bytes());
        }
        // The parts are a function of the document key alone.
        assert_eq!(parts, tag_key_parts(&key()));
        assert_ne!(parts, tag_key_parts(&SecretKey::derive(b"other", "k")));
    }

    #[test]
    fn chunk_geometry_helpers() {
        let secure = SecureDocumentBuilder::new("doc-1", key())
            .chunk_size(256)
            .build(&sample_doc());
        assert_eq!(secure.header.chunk_size, 256);
        let (start, end) = secure.chunk_range(0);
        assert_eq!(start, 0);
        assert_eq!(end, 256);
        assert_eq!(secure.chunk_of(0), 0);
        assert_eq!(secure.chunk_of(255), 0);
        assert_eq!(secure.chunk_of(256), 1);
        let last = secure.chunk_count() - 1;
        let (ls, le) = secure.chunk_range(last);
        assert!(le <= secure.header.plaintext_len);
        assert!(ls < le);
        assert!(secure.ciphertext_len() as u64 >= secure.header.plaintext_len);
        let (_, tag) = secure.sealed_chunk(last).unwrap();
        assert_eq!(tag.encoded_len(), TAG_LEN);
        assert_eq!(tag.encode(), tag.as_bytes());
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
