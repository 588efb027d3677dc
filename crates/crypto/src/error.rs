//! Error type for the cryptographic substrate.

use std::fmt;

/// Errors raised by the cryptographic primitives.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CryptoError {
    /// Ciphertext length is not compatible with the mode (e.g. not a multiple
    /// of the block size for CBC).
    BadCiphertextLength {
        /// Actual length.
        len: usize,
    },
    /// Padding found at decryption time is invalid — almost always the sign of
    /// a tampered or mis-keyed ciphertext.
    BadPadding,
    /// An integrity check (a MAC) failed: the data was tampered with.
    IntegrityFailure {
        /// Human readable context (which object failed).
        context: String,
    },
    /// The requested key is not present in the key ring.
    UnknownKey {
        /// Identifier of the missing key.
        key_id: u32,
    },
}

impl fmt::Display for CryptoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CryptoError::BadCiphertextLength { len } => {
                write!(f, "ciphertext length {len} is not valid for this mode")
            }
            CryptoError::BadPadding => write!(f, "invalid padding (tampered or mis-keyed data)"),
            CryptoError::IntegrityFailure { context } => {
                write!(f, "integrity check failed: {context}")
            }
            CryptoError::UnknownKey { key_id } => write!(f, "unknown key id {key_id}"),
        }
    }
}

impl std::error::Error for CryptoError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(CryptoError::BadCiphertextLength { len: 17 }
            .to_string()
            .contains("17"));
        assert!(CryptoError::BadPadding.to_string().contains("padding"));
        assert!(CryptoError::IntegrityFailure {
            context: "chunk 3".into()
        }
        .to_string()
        .contains("chunk 3"));
        assert!(CryptoError::UnknownKey { key_id: 9 }
            .to_string()
            .contains('9'));
    }
}
