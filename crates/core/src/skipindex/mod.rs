//! The skip index (§2.3).
//!
//! "To reduce the flow of data received by the SOE and thus the decryption
//! time, we devise a new indexation structure that enables to skip irrelevant
//! (i.e., forbidden) parts of the documents. [...] the minimal information
//! required to achieve this goal is the set of element tags that appear in
//! each subtree (to check whether an access rule automaton is likely to reach
//! its final state) as well as the subtree size (to make the skip actually
//! possible). [...] we compress the document structure using a dictionary of
//! tags and encode the set of tags thanks to a bit array referring to the tag
//! dictionary. To further reduce the indexing overhead, we apply recursive
//! compression on both the set of tags bit array and the subtree size."
//!
//! * [`compress`] — varints, bit arrays and the recursive bitmap compression,
//! * [`encode`] — the compact binary token stream with embedded subtree
//!   summaries, produced by the publisher from an in-memory document,
//! * [`decode`] — the streaming reader used inside the SOE, able to *skip*
//!   a summarised subtree in O(1) without reading (hence without transferring
//!   or decrypting) its bytes.

pub mod compress;
pub mod decode;
pub mod encode;

pub use decode::{TokenEvent, TokenReader};
pub use encode::{DocumentEncoder, EncodedDocument, EncoderConfig};
