//! The broadcast unit of push-based selective dissemination (experiment E6).
//!
//! Trust boundary: the DSP side of dissemination is **ciphertext-only**. The
//! publisher — which holds the channel key and sees the cleartext stream —
//! lives on the trusted side, in `sdds_proxy::DisseminationChannel`; the DSP
//! only ever forwards the already-encrypted [`StreamItem`]s it receives
//! (see [`crate::service::FanOutDisseminator`]). This crate depends on the
//! ciphertext tier (`sdds-wire`) alone, so it cannot name a plaintext or key
//! type.

use sdds_wire::SecureDocument;

/// One published item of the stream: a sequence number and an encrypted
/// document. `plaintext_len` is a size, not content.
#[derive(Debug, Clone)]
pub struct StreamItem {
    /// Monotonic sequence number.
    pub sequence: u64,
    /// The encrypted item.
    pub document: SecureDocument,
    /// Plaintext size of the item before encryption (for throughput reports).
    pub plaintext_len: usize,
}
