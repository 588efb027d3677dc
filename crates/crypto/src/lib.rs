//! Cryptographic substrate for the SDDS Secure Operating Environment.
//!
//! The paper's architecture keeps documents and access rules **encrypted** at
//! the untrusted Document Service Provider and decrypts + integrity-checks them
//! inside the SOE (§2.1). Real smart cards do this with an on-card crypto
//! co-processor; this crate provides functionally equivalent primitives,
//! implemented from scratch so that the byte-level cost accounting of the cost
//! model is exact and so that the SOE emulator has no hidden dependency. The
//! card needs one primitive, the AES-128 encryption direction; everything it
//! runs is built on it:
//!
//! * [`aes`] — AES-128 block cipher (FIPS-197), forward direction only,
//! * [`modes`] — CTR mode over AES, with per-chunk counter blocks so that
//!   the skip index can jump over encrypted regions without breaking
//!   decryption,
//! * [`poly1305`] — Poly1305 (RFC 8439) in two lanes sharing one pass over
//!   the message, and the Poly1305-then-AES tag key ([`PolyAesKey`]): the
//!   SOE checks a per-chunk tag on every chunk it consumes, so it detects
//!   tampering with whichever subset of chunks the skip index makes it
//!   read; the same key MACs document headers,
//! * [`siv`] — deterministic authenticated encryption ([`SivKey`]): SIV
//!   over [`PolyAesKey`] and CTR, for what is opened once per session:
//!   rule blobs and key wraps,
//! * [`keys`] — key material, its once-scheduled derivation
//!   ([`KeyDeriver`], a [`PolyAesKey`] PRF under the master) and the key
//!   ring stored in the SOE's secure stable memory,
//! * [`siphash`] — SipHash-2-4, the keyed PRF that derives a document's
//!   nonce from its plaintext at build time, on the publisher only,
//! * [`sha256`] — SHA-256 (FIPS 180-4), standalone: nothing above uses it.
//!
//! **Security note.** These implementations favour clarity and portability and
//! are not hardened against side channels; they are a faithful functional
//! substitute for the card's crypto hardware within a research prototype. In
//! particular, AES indexes its T-tables (and S-box) with key- and
//! data-dependent bytes, so its memory access pattern — and timing through
//! the cache — depends on secrets, exactly as the byte-oriented S-box
//! version before it did. No constant-time or cache-timing claim is made
//! for AES; Poly1305's arithmetic and final reduction have no secret-dependent
//! branch or index, and tags are compared with the constant-time
//! [`verify_mac`].

#![forbid(unsafe_code)]

pub mod aes;
pub mod error;
pub mod keys;
pub mod modes;
pub mod poly1305;
pub mod sha256;
pub mod siphash;
pub mod siv;

pub use aes::Aes128;
pub use error::CryptoError;
pub use keys::{KeyDeriver, KeyId, KeyRing, SecretKey};
pub use poly1305::{verify_mac, PolyAesKey};
pub use siv::SivKey;
