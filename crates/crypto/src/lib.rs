//! Cryptographic substrate for the SDDS Secure Operating Environment.
//!
//! The paper's architecture keeps documents and access rules **encrypted** at
//! the untrusted Document Service Provider and decrypts + integrity-checks them
//! inside the SOE (§2.1). Real smart cards do this with an on-card crypto
//! co-processor; this crate provides functionally equivalent primitives,
//! implemented from scratch so that the byte-level cost accounting of the cost
//! model is exact and so that the SOE emulator has no hidden dependency:
//!
//! * [`aes`] — AES-128 block cipher (FIPS-197),
//! * [`modes`] — CBC and CTR modes over AES, with per-chunk IVs so that the
//!   skip index can jump over encrypted regions without breaking decryption,
//! * [`sha256`] — SHA-256 (FIPS 180-4),
//! * [`hmac`] — HMAC-SHA256 (RFC 2104) with a once-scheduled key
//!   ([`HmacKey`]), for what is checked once per session: document headers,
//!   rule blobs and key wraps,
//! * [`poly1305`] — Poly1305 (RFC 8439) in two lanes sharing one pass over
//!   the message, and the Poly1305-then-AES tag key ([`PolyAesKey`]): the
//!   SOE checks a per-chunk tag on every chunk it consumes, so it detects
//!   tampering with whichever subset of chunks the skip index makes it read,
//! * [`siphash`] — SipHash-2-4, the keyed PRF that derives a document's
//!   nonce from its plaintext at build time,
//! * [`keys`] — key material, a deterministic key-derivation helper and the
//!   key ring stored in the SOE's secure stable memory.
//!
//! **Security note.** These implementations favour clarity and portability and
//! are not hardened against side channels; they are a faithful functional
//! substitute for the card's crypto hardware within a research prototype. In
//! particular, AES indexes its T-tables (and S-boxes) with key- and
//! data-dependent bytes, so its memory access pattern — and timing through
//! the cache — depends on secrets, exactly as the byte-oriented S-box
//! version before it did. No constant-time or cache-timing claim is made
//! for AES; Poly1305's arithmetic and final reduction have no secret-dependent
//! branch or index, and MACs are compared with the constant-time
//! [`hmac::verify_mac`].

#![forbid(unsafe_code)]

pub mod aes;
pub mod error;
pub mod hmac;
pub mod keys;
pub mod modes;
pub mod poly1305;
pub mod sha256;
pub mod siphash;

pub use aes::Aes128;
pub use error::CryptoError;
pub use hmac::HmacKey;
pub use keys::{KeyId, KeyRing, SecretKey};
pub use poly1305::PolyAesKey;
