#![forbid(unsafe_code)]
//! The ciphertext tier: everything the untrusted DSP stores, serves and
//! frames, and nothing else.
//!
//! "The data are kept encrypted at the server" (§1). The types below are what
//! that sentence leaves the server holding: a plaintext [`DocumentHeader`]
//! of identifiers and geometry, the encrypted chunks of a
//! [`SecureDocument`], and one opaque [`ChunkTag`] per chunk. They carry
//! their codecs, but no key, no cipher and no cleartext: this crate has no
//! workspace dependencies, so a crate that depends only on it (the DSP)
//! cannot name a key or a decoded event, and the compiler enforces the
//! paper's trust boundary. Building, verifying and decrypting these values
//! is the card side's business, in `sdds_core::secdoc`.

use std::fmt;
use std::sync::Arc;

/// Size of a [`ChunkTag`] in bytes.
pub const TAG_LEN: usize = 32;

/// Version byte of the header encoding (4: the header MAC, like the chunk
/// tags, is two-lane Poly1305-then-AES, and every key comes from the AES
/// key derivation; 3 had an HMAC-SHA256 header MAC and HMAC-derived keys,
/// 2 HMAC-SHA256 chunk tags, 1 a hash-tree root).
const FORMAT_VERSION: u8 = 4;

/// Why a document header failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeaderFault {
    /// The input does not start with `SDDS`.
    BadMagic,
    /// The version byte is not the format version (4).
    UnsupportedVersion(u8),
    /// The input ends before the last field.
    Truncated,
    /// The document id is not UTF-8.
    NonUtf8Id,
}

/// Errors of the wire tier: a header that does not decode, and the DSP's
/// typed serving outcomes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Header bytes (from the DSP or a terminal) that do not decode.
    BadHeader(HeaderFault),
    /// The requested document is not stored at the DSP.
    NotFound {
        /// Identifier of the missing document.
        doc_id: String,
    },
    /// The DSP stores the document but no protected rule blob for the
    /// requesting subject.
    NoRulesForSubject {
        /// Document the rules were requested for.
        doc_id: String,
        /// Subject with no stored blob.
        subject: String,
    },
    /// A session pinned a document revision that has since been replaced:
    /// the typed staleness signal that replaces a torn read (chunks of the
    /// new upload checked against the old header).
    StaleRevision {
        /// Document whose revision moved.
        doc_id: String,
        /// Revision the session pinned at open.
        pinned: u64,
        /// Revision currently stored at the DSP.
        current: u64,
    },
    /// A chunk index past the end of the document (never asked for by a
    /// well-formed session).
    ChunkOutOfRange {
        /// Document the chunk was requested from.
        doc_id: String,
        /// The requested index.
        index: u32,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadHeader(HeaderFault::BadMagic) => write!(f, "header: bad magic"),
            WireError::BadHeader(HeaderFault::UnsupportedVersion(v)) => {
                write!(f, "header: unsupported version {v}")
            }
            WireError::BadHeader(HeaderFault::Truncated) => write!(f, "header: truncated"),
            WireError::BadHeader(HeaderFault::NonUtf8Id) => write!(f, "header: non UTF-8 id"),
            WireError::NotFound { doc_id } => {
                write!(f, "document `{doc_id}` is not stored at this DSP")
            }
            WireError::NoRulesForSubject { doc_id, subject } => {
                write!(f, "no rules stored for subject `{subject}` on `{doc_id}`")
            }
            WireError::StaleRevision {
                doc_id,
                pinned,
                current,
            } => write!(
                f,
                "document `{doc_id}` was republished: pinned revision {pinned}, now {current}"
            ),
            WireError::ChunkOutOfRange { doc_id, index } => {
                write!(f, "chunk {index} out of range for `{doc_id}`")
            }
        }
    }
}

impl std::error::Error for WireError {}

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
    /// Two-lane Poly1305-then-AES tag of [`DocumentHeader::mac_input`],
    /// under key parts drawn from the document MAC key.
    pub mac: [u8; 32],
}

impl DocumentHeader {
    /// The bytes the header MAC covers: every field but the MAC itself.
    pub fn mac_input(&self) -> Vec<u8> {
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

    /// Serialised size of [`DocumentHeader::encode`]'s output, without
    /// building it — the DSP accounts header bytes per serve, and computing
    /// the count keeps the serving read path allocation-free.
    #[inline]
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

    /// Parses a header. The input is untrusted (the card reads it from
    /// terminal-supplied APDU data): every failure is a typed
    /// [`WireError::BadHeader`].
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let bad = WireError::BadHeader;
        let (magic, mut rest) = bytes.split_at(bytes.len().min(4));
        if magic != b"SDDS" {
            return Err(bad(HeaderFault::BadMagic));
        }
        let mut take = |n: usize| -> Result<&[u8], WireError> {
            let (head, tail) = rest
                .split_at_checked(n)
                .ok_or(bad(HeaderFault::Truncated))?;
            rest = tail;
            Ok(head)
        };
        let version = take(1)?[0];
        if version != FORMAT_VERSION {
            return Err(bad(HeaderFault::UnsupportedVersion(version)));
        }
        let id_len = usize::from(u16::from_le_bytes(array(take(2)?)));
        let doc_id = std::str::from_utf8(take(id_len)?)
            .map_err(|_| bad(HeaderFault::NonUtf8Id))?
            .to_owned();
        let nonce = array(take(8)?);
        let chunk_size = u32::from_le_bytes(array(take(4)?));
        let chunk_count = u32::from_le_bytes(array(take(4)?));
        let plaintext_len = u64::from_le_bytes(array(take(8)?));
        let tokens_start = u64::from_le_bytes(array(take(8)?));
        let recursive_bitmaps = take(1)?[0] != 0;
        let mac = array(take(32)?);
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

/// Copies a slice that `take(N)` returned, so exactly `N` bytes long, into
/// an array.
fn array<const N: usize>(bytes: &[u8]) -> [u8; N] {
    let mut out = [0u8; N];
    out.copy_from_slice(bytes);
    out
}

/// The integrity tag of one ciphertext chunk (computed and checked by
/// `sdds_core::secdoc`). Outside the card a tag is opaque: stored next to
/// its chunk at the DSP and framed after the chunk index on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkTag([u8; TAG_LEN]);

impl ChunkTag {
    /// Wraps tag bytes.
    #[inline]
    pub fn from_bytes(bytes: [u8; TAG_LEN]) -> Self {
        ChunkTag(bytes)
    }

    /// The tag bytes as framed on the wire.
    #[inline]
    pub fn as_bytes(&self) -> &[u8; TAG_LEN] {
        &self.0
    }

    /// Serialised size — the wire ledgers count it without building it.
    #[inline]
    pub fn encoded_len(&self) -> usize {
        TAG_LEN
    }

    /// Serialises the tag.
    pub fn encode(&self) -> Vec<u8> {
        self.0.to_vec()
    }
}

/// A fully built secure document, as the DSP stores and serves it: the
/// header, the encrypted chunks and their tags.
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
}

impl SecureDocument {
    /// Assembles a document from its header, chunks and the tag of each
    /// chunk, index for index.
    pub fn new(header: DocumentHeader, chunks: Vec<Arc<[u8]>>, tags: Vec<ChunkTag>) -> Self {
        debug_assert_eq!(chunks.len(), tags.len(), "one tag per chunk");
        SecureDocument {
            header,
            chunks,
            tags,
        }
    }

    /// Number of chunks.
    #[inline]
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Ciphertext of chunk `index`.
    #[inline]
    pub fn chunk(&self, index: usize) -> Option<&[u8]> {
        self.chunks.get(index).map(|c| &c[..])
    }

    /// Chunk `index` as it is served: a shared handle to its ciphertext —
    /// the DSP hands the same allocation to every requester — and its tag.
    #[inline]
    pub fn sealed_chunk(&self, index: usize) -> Option<(Arc<[u8]>, ChunkTag)> {
        Some((Arc::clone(self.chunks.get(index)?), *self.tags.get(index)?))
    }

    /// Total ciphertext size (what the DSP stores for the document body).
    pub fn ciphertext_len(&self) -> usize {
        self.chunks.iter().map(|c| c.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header(doc_id: &str) -> DocumentHeader {
        DocumentHeader {
            doc_id: doc_id.to_owned(),
            nonce: [1, 2, 3, 4, 5, 6, 7, 8],
            chunk_size: 512,
            chunk_count: 9,
            plaintext_len: 4321,
            tokens_start: 77,
            recursive_bitmaps: true,
            mac: [0xA5; 32],
        }
    }

    #[test]
    fn header_encode_decode_roundtrip() {
        let header = header("folder-42");
        let bytes = header.encode();
        assert_eq!(bytes.len(), header.encoded_len());
        assert_eq!(DocumentHeader::decode(&bytes), Ok(header));
        assert_eq!(
            DocumentHeader::decode(b"XXXX123"),
            Err(WireError::BadHeader(HeaderFault::BadMagic))
        );
    }

    #[test]
    fn every_prefix_and_bit_flip_decodes_or_fails_typed() {
        let header = header("folder-é");
        let valid = header.encode();
        let check = |input: &[u8]| match DocumentHeader::decode(input) {
            Ok(decoded) => assert!(decoded.doc_id.len() <= input.len()),
            Err(WireError::BadHeader(_)) => {}
            Err(other) => panic!("untyped header failure {other:?}"),
        };
        for len in 0..valid.len() {
            let fault = if len < 4 {
                HeaderFault::BadMagic
            } else {
                HeaderFault::Truncated
            };
            let decoded = DocumentHeader::decode(&valid[..len]);
            assert_eq!(decoded, Err(WireError::BadHeader(fault)), "prefix {len}");
        }
        for bit in 0..valid.len() * 8 {
            let mut flipped = valid.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            check(&flipped);
        }
        // A flipped version byte is rejected whatever it becomes: version 1
        // (a hash-tree root), 2 (HMAC chunk tags) and 3 (an HMAC header MAC)
        // included.
        for version in (0..=u8::MAX).filter(|&v| v != FORMAT_VERSION) {
            let mut old = valid.clone();
            old[4] = version;
            assert_eq!(
                DocumentHeader::decode(&old),
                Err(WireError::BadHeader(HeaderFault::UnsupportedVersion(
                    version
                )))
            );
        }
    }

    #[test]
    fn chunk_tags_and_sealed_chunks() {
        let tag = ChunkTag::from_bytes([7; TAG_LEN]);
        assert_eq!(tag.encoded_len(), TAG_LEN);
        assert_eq!(tag.encode(), tag.as_bytes());
        let chunks: Vec<Arc<[u8]>> = vec![Arc::from(&[1u8, 2][..]), Arc::from(&[3u8][..])];
        let doc = SecureDocument::new(header("d"), chunks, vec![tag, tag]);
        assert_eq!(doc.chunk_count(), 2);
        assert_eq!(doc.ciphertext_len(), 3);
        assert_eq!(doc.chunk(1), Some(&[3u8][..]));
        let (chunk, served) = doc.sealed_chunk(0).unwrap();
        assert!(Arc::ptr_eq(&chunk, &doc.chunks[0]), "served without a copy");
        assert_eq!(served, tag);
        assert!(doc.sealed_chunk(2).is_none());
    }
}
