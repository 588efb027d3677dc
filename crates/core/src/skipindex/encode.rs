//! Publisher-side encoding: compact binary tokens with embedded subtree
//! summaries.
//!
//! The encoder runs on the publisher's (trusted) terminal when a document is
//! prepared for the DSP; it is the only stage that sees the document as a
//! whole. Its output is the plaintext that [`crate::secdoc`] chunks and
//! encrypts. Element and attribute names are replaced by dictionary ids, text
//! is stored verbatim, and — where the indexing policy decides it is worth it —
//! an element's opening token is followed by a *subtree summary* carrying the
//! byte length of its content and the (recursively compressed) set of tags
//! occurring below it.

use sdds_xml::{Document, NodeData, NodeId, TagDict, TagSet};

use super::compress::{varint_len, write_varint, TagReference};

/// Token type markers of the binary stream.
pub mod token {
    /// Opening tag.
    pub const OPEN: u8 = 0x01;
    /// Text node.
    pub const TEXT: u8 = 0x02;
    /// Closing tag.
    pub const CLOSE: u8 = 0x03;
    /// Subtree summary (skip-index entry).
    pub const SUMMARY: u8 = 0x04;
}

/// Indexing policy of the encoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncoderConfig {
    /// Only summarise elements whose encoded content is at least this long —
    /// skipping a smaller subtree saves less than the summary costs.
    /// `usize::MAX` encodes a document with no skip index.
    pub min_index_bytes: usize,
    /// Encode nested bitmaps against the enclosing summary's tag set
    /// (the paper's recursive compression). Disabling it is the E3 ablation.
    pub recursive_bitmaps: bool,
}

impl Default for EncoderConfig {
    fn default() -> Self {
        EncoderConfig {
            min_index_bytes: 64,
            recursive_bitmaps: true,
        }
    }
}

/// Statistics of one encoding run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EncodeStats {
    /// Number of subtree summaries emitted.
    pub summaries: usize,
    /// Bytes spent on summaries (the index overhead).
    pub index_bytes: usize,
    /// Bytes of the token stream (including summaries).
    pub token_bytes: usize,
    /// Bytes of the serialised tag dictionary.
    pub dict_bytes: usize,
}

/// The result of encoding a document.
#[derive(Debug, Clone)]
pub struct EncodedDocument {
    /// Tag dictionary (element and attribute names).
    pub dict: TagDict,
    /// Binary token stream with embedded summaries.
    pub tokens: Vec<u8>,
    /// Encoding statistics.
    pub stats: EncodeStats,
}

impl EncodedDocument {
    /// Full plaintext as chunked by the secure document layer: serialised
    /// dictionary followed by the token stream.
    pub fn plaintext(&self) -> Vec<u8> {
        let mut out = self.dict.encode();
        out.extend_from_slice(&self.tokens);
        out
    }

    /// Fraction of the token stream spent on the index, in `[0, 1]`.
    pub fn index_overhead(&self) -> f64 {
        if self.stats.token_bytes == 0 {
            0.0
        } else {
            self.stats.index_bytes as f64 / self.stats.token_bytes as f64
        }
    }
}

/// Per-element information computed by the bottom-up analysis pass.
struct ElementInfo {
    /// Tags strictly below the element.
    descendant_tags: TagSet,
    /// Approximate content size (without summaries), used by the policy.
    base_content_len: usize,
    /// Whether a summary will be emitted for this element.
    indexed: bool,
}

/// The document encoder.
#[derive(Debug)]
pub struct DocumentEncoder {
    config: EncoderConfig,
}

impl DocumentEncoder {
    /// Creates an encoder.
    pub fn new(config: EncoderConfig) -> Self {
        DocumentEncoder { config }
    }

    /// Encodes `doc`.
    pub fn encode(&self, doc: &Document) -> EncodedDocument {
        let mut dict = TagDict::new();
        // Deterministic id assignment: document order, elements then their
        // attribute names.
        for node in doc.all_nodes() {
            if let NodeData::Element { name, attrs } = doc.data(node) {
                dict.intern(name);
                for a in attrs {
                    dict.intern(&a.name);
                }
            }
        }

        let mut stats = EncodeStats {
            dict_bytes: dict.encoded_len(),
            ..EncodeStats::default()
        };
        let mut tokens = Vec::new();
        if let Some(root) = doc.root() {
            let mut infos = std::collections::HashMap::new();
            self.analyse(doc, root, &dict, &mut infos);
            let root_ref = TagReference::full(dict.len());
            self.encode_node(doc, root, &dict, &infos, &root_ref, &mut tokens, &mut stats);
        }
        stats.token_bytes = tokens.len();
        EncodedDocument {
            dict,
            tokens,
            stats,
        }
    }

    /// Bottom-up pass: descendant tag sets and base content sizes.
    fn analyse(
        &self,
        doc: &Document,
        node: NodeId,
        dict: &TagDict,
        infos: &mut std::collections::HashMap<NodeId, ElementInfo>,
    ) -> (TagSet, usize) {
        let NodeData::Element { name, attrs } = doc.data(node) else {
            // Text node: its encoded length.
            let len = match doc.data(node) {
                NodeData::Text(t) => 1 + varint_len(t.len() as u64) + t.len(),
                // lint: infallible — the let-else above only falls through
                // for non-element nodes.
                NodeData::Element { .. } => unreachable!(),
            };
            return (TagSet::new(), len);
        };
        let mut descendant_tags = TagSet::with_capacity(dict.len());
        let mut content_len = 0usize;
        for child in doc.children(node) {
            let (child_tags, child_len) = self.analyse(doc, *child, dict, infos);
            content_len += child_len;
            descendant_tags.union_with(&child_tags);
            if let Some(child_name) = doc.element_name(*child) {
                if let Some(id) = dict.get(child_name) {
                    descendant_tags.insert(id);
                }
            }
        }
        // Encoded length of this element's own open/close tokens.
        let open_len = 1
            + varint_len(dict.get(name).map(|t| t.0 as u64).unwrap_or(0))
            + varint_len(attrs.len() as u64)
            + attrs
                .iter()
                .map(|a| {
                    varint_len(dict.get(&a.name).map(|t| t.0 as u64).unwrap_or(0))
                        + varint_len(a.value.len() as u64)
                        + a.value.len()
                })
                .sum::<usize>();
        let close_len = 1;
        let indexed = content_len >= self.config.min_index_bytes;
        infos.insert(
            node,
            ElementInfo {
                descendant_tags: descendant_tags.clone(),
                base_content_len: content_len,
                indexed,
            },
        );
        (descendant_tags, open_len + content_len + close_len)
    }

    /// Top-down pass: emit tokens, computing exact content lengths (with
    /// nested summaries included) by encoding children into a scratch buffer.
    #[allow(clippy::too_many_arguments)]
    fn encode_node(
        &self,
        doc: &Document,
        node: NodeId,
        dict: &TagDict,
        infos: &std::collections::HashMap<NodeId, ElementInfo>,
        enclosing_ref: &TagReference,
        out: &mut Vec<u8>,
        stats: &mut EncodeStats,
    ) {
        match doc.data(node) {
            NodeData::Text(t) => {
                out.push(token::TEXT);
                write_varint(out, t.len() as u64);
                out.extend_from_slice(t.as_bytes());
            }
            NodeData::Element { name, attrs } => {
                // OPEN token.
                out.push(token::OPEN);
                // lint: infallible — the dictionary pass interned every
                // element and attribute name before encoding starts.
                write_varint(out, dict.get(name).expect("interned").0 as u64);
                write_varint(out, attrs.len() as u64);
                for a in attrs {
                    // lint: infallible — interned by the dictionary pass.
                    write_varint(out, dict.get(&a.name).expect("interned").0 as u64);
                    write_varint(out, a.value.len() as u64);
                    out.extend_from_slice(a.value.as_bytes());
                }

                // lint: infallible — the analysis pass visited every node.
                let info = infos.get(&node).expect("analysed");
                // Encode children into a scratch buffer so that the exact
                // content length is known before the summary is written.
                let child_ref = if info.indexed && self.config.recursive_bitmaps {
                    TagReference::from_set(&info.descendant_tags)
                } else if info.indexed {
                    TagReference::full(dict.len())
                } else {
                    enclosing_ref.clone()
                };
                let mut content = Vec::with_capacity(info.base_content_len);
                for child in doc.children(node) {
                    self.encode_node(doc, *child, dict, infos, &child_ref, &mut content, stats);
                }

                if info.indexed {
                    let bitmap = enclosing_ref.encode_subset(&info.descendant_tags);
                    out.push(token::SUMMARY);
                    let before = out.len();
                    write_varint(out, content.len() as u64);
                    write_varint(out, bitmap.len() as u64);
                    out.extend_from_slice(&bitmap);
                    stats.summaries += 1;
                    stats.index_bytes += 1 + (out.len() - before);
                }
                out.extend_from_slice(&content);
                out.push(token::CLOSE);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdds_xml::generator::{self, GeneratorConfig, HospitalProfile};
    use sdds_xml::Document;

    fn encode(doc: &Document, config: EncoderConfig) -> EncodedDocument {
        DocumentEncoder::new(config).encode(doc)
    }

    #[test]
    fn small_document_produces_tokens_and_dictionary() {
        let doc = Document::parse("<a x=\"1\"><b>hello</b><c/></a>").unwrap();
        let enc = encode(&doc, EncoderConfig::default());
        assert!(enc.dict.len() >= 4); // a, x, b, c
        assert!(!enc.tokens.is_empty());
        assert_eq!(enc.stats.token_bytes, enc.tokens.len());
        assert_eq!(enc.stats.dict_bytes, enc.dict.encoded_len());
        // Too small for any summary under the default policy.
        assert_eq!(enc.stats.summaries, 0);
        assert_eq!(enc.index_overhead(), 0.0);
        let plaintext = enc.plaintext();
        assert_eq!(plaintext.len(), enc.stats.dict_bytes + enc.tokens.len());
    }

    #[test]
    fn summaries_appear_on_large_subtrees_only() {
        let doc = generator::hospital(&HospitalProfile::default(), &GeneratorConfig::default());
        let enc = encode(&doc, EncoderConfig::default());
        assert!(
            enc.stats.summaries > 0,
            "hospital patients should be summarised"
        );
        // Overhead stays modest (the paper's index is "very compact").
        assert!(
            enc.index_overhead() < 0.1,
            "index overhead {} should stay below 10%",
            enc.index_overhead()
        );

        let no_index = encode(
            &doc,
            EncoderConfig {
                min_index_bytes: usize::MAX,
                ..EncoderConfig::default()
            },
        );
        assert_eq!(no_index.stats.summaries, 0);
        assert!(no_index.tokens.len() < enc.tokens.len());
    }

    #[test]
    fn binary_encoding_is_smaller_than_textual_xml() {
        let doc = generator::hospital(&HospitalProfile::default(), &GeneratorConfig::default());
        let enc = encode(&doc, EncoderConfig::default());
        let xml_len = doc.to_xml().len();
        assert!(
            enc.plaintext().len() < xml_len,
            "binary form ({}) should be more compact than XML text ({xml_len})",
            enc.plaintext().len()
        );
    }

    #[test]
    fn recursive_bitmaps_reduce_index_size() {
        let doc = generator::hospital(
            &HospitalProfile {
                patients: 50,
                ..HospitalProfile::default()
            },
            &GeneratorConfig::default(),
        );
        let recursive = encode(&doc, EncoderConfig::default());
        let flat = encode(
            &doc,
            EncoderConfig {
                recursive_bitmaps: false,
                ..EncoderConfig::default()
            },
        );
        assert_eq!(recursive.stats.summaries, flat.stats.summaries);
        assert!(
            recursive.stats.index_bytes <= flat.stats.index_bytes,
            "recursive compression ({}) should not exceed flat bitmaps ({})",
            recursive.stats.index_bytes,
            flat.stats.index_bytes
        );
    }

    #[test]
    fn lowering_the_threshold_adds_summaries() {
        let doc = generator::hospital(&HospitalProfile::default(), &GeneratorConfig::default());
        let coarse = encode(
            &doc,
            EncoderConfig {
                min_index_bytes: 512,
                ..EncoderConfig::default()
            },
        );
        let fine = encode(
            &doc,
            EncoderConfig {
                min_index_bytes: 16,
                ..EncoderConfig::default()
            },
        );
        assert!(fine.stats.summaries > coarse.stats.summaries);
        assert!(fine.stats.index_bytes > coarse.stats.index_bytes);
    }

    #[test]
    fn empty_document_encodes_to_nothing() {
        let doc = Document::new();
        let enc = encode(&doc, EncoderConfig::default());
        assert!(enc.tokens.is_empty());
        assert_eq!(enc.stats.summaries, 0);
    }
}
