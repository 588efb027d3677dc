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
//!
//! A summary's content length counts the nested summaries, so it is known
//! only once the whole subtree is laid out. The encoder therefore measures
//! before it writes, in four passes over the tree:
//!
//! 1. **intern** (document order): the dictionary assigns ids, elements
//!    before their attribute names; each node's tag and own token length go
//!    into per-node slots, and the attribute-name ids into one flat array;
//! 2. **analyse** (bottom-up): the tags strictly below each element, as
//!    words of one flat arena, and the policy's decision, taken on the
//!    content length without summaries;
//! 3. **measure**: the exact content length of each element, nested
//!    summaries included. A summary's bitmap length is known top-down: the
//!    tag count of its nearest summarised ancestor (recursive bitmaps) or of
//!    the dictionary;
//! 4. **emit** (document order): every token is written once, bitmaps
//!    straight from the arena words, into one buffer reserved to the
//!    measured length.
//!
//! The passes index plain arrays by node, with no name lookup after
//! interning, so the encoder's allocations do not grow with the element
//! count: a fixed handful of arrays, plus what the dictionary needs for its
//! names.

use sdds_xml::{Document, NodeData, NodeId, TagDict, TagId};

use super::compress::{varint_len, write_varint};

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
        let mut run = Run::new(self.config, doc);
        let mut stats = EncodeStats::default();
        let mut tokens = Vec::new();
        if let Some(root) = doc.root() {
            run.intern(root);
            run.words = run.dict.len().div_ceil(64);
            run.tag_sets = vec![0; doc.len() * run.words];
            run.analyse(root);
            let total = run.measure(root, run.dict.len());
            tokens.reserve_exact(total);
            let mut attr_cursor = 0;
            run.emit(root, None, &mut attr_cursor, &mut tokens, &mut stats);
            debug_assert_eq!(tokens.len(), total, "measured length");
        }
        stats.dict_bytes = run.dict.encoded_len();
        stats.token_bytes = tokens.len();
        EncodedDocument {
            dict: run.dict,
            tokens,
            stats,
        }
    }
}

/// What the passes know of one node, at `NodeId::index()`.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Element tag (unused for a text node).
    tag: TagId,
    /// Encoded length of the OPEN token of an element, of the whole TEXT
    /// token of a text node.
    head_len: usize,
    /// Encoded length of an element's content (children tokens, nested
    /// summaries included, the CLOSE token excluded).
    content_len: usize,
    /// Whether the element gets a summary.
    indexed: bool,
}

/// The state of one [`DocumentEncoder::encode`] call.
struct Run<'d> {
    config: EncoderConfig,
    doc: &'d Document,
    dict: TagDict,
    slots: Vec<Slot>,
    /// Attribute-name tags of every element, in document order.
    attr_tags: Vec<TagId>,
    /// `u64` words per tag set.
    words: usize,
    /// Tags strictly below each element, `words` words at
    /// `NodeId::index() * words`.
    tag_sets: Vec<u64>,
}

impl<'d> Run<'d> {
    fn new(config: EncoderConfig, doc: &'d Document) -> Self {
        let slot = Slot {
            tag: TagId(0),
            head_len: 0,
            content_len: 0,
            indexed: false,
        };
        Run {
            config,
            doc,
            dict: TagDict::new(),
            slots: vec![slot; doc.len()],
            attr_tags: Vec::with_capacity(doc.attribute_count()),
            words: 0,
            tag_sets: Vec::new(),
        }
    }

    fn tag_set(&self, node: NodeId) -> &[u64] {
        let start = node.index() * self.words;
        &self.tag_sets[start..start + self.words]
    }

    /// Dictionary pass, in document order (elements, then their attribute
    /// names, which fixes the ids): every name's tag and every node's own
    /// token length.
    fn intern(&mut self, node: NodeId) {
        let slot = &mut self.slots[node.index()];
        match self.doc.data(node) {
            NodeData::Text(t) => slot.head_len = 1 + varint_len(t.len() as u64) + t.len(),
            NodeData::Element { name, attrs } => {
                slot.tag = self.dict.intern(name);
                let mut head_len =
                    1 + varint_len(u64::from(slot.tag.0)) + varint_len(attrs.len() as u64);
                for a in attrs {
                    let tag = self.dict.intern(&a.name);
                    self.attr_tags.push(tag);
                    head_len += varint_len(u64::from(tag.0))
                        + varint_len(a.value.len() as u64)
                        + a.value.len();
                }
                slot.head_len = head_len;
                for &child in self.doc.children(node) {
                    self.intern(child);
                }
            }
        }
    }

    /// Bottom-up pass: the tags below each element, and which elements the
    /// policy summarises (judged on their content without summaries).
    /// Returns the node's encoded length without summaries.
    fn analyse(&mut self, node: NodeId) -> usize {
        let i = node.index();
        if matches!(self.doc.data(node), NodeData::Text(_)) {
            return self.slots[i].head_len;
        }
        let mut content_len = 0;
        for &child in self.doc.children(node) {
            content_len += self.analyse(child);
            if matches!(self.doc.data(child), NodeData::Element { .. }) {
                let c = child.index();
                for w in 0..self.words {
                    self.tag_sets[i * self.words + w] |= self.tag_sets[c * self.words + w];
                }
                let tag = self.slots[c].tag.index();
                self.tag_sets[i * self.words + tag / 64] |= 1 << (tag % 64);
            }
        }
        let slot = &mut self.slots[i];
        slot.indexed = content_len >= self.config.min_index_bytes;
        slot.head_len + content_len + 1
    }

    /// Length pass: the exact content length of each element, nested
    /// summaries included. `reference_bits` is the bit count of the node's
    /// bitmap, should it get a summary: with recursive bitmaps the tag count
    /// of its nearest summarised ancestor's set, else (or with no such
    /// ancestor) of the dictionary. Returns the node's exact encoded length.
    fn measure(&mut self, node: NodeId, reference_bits: usize) -> usize {
        let slot = self.slots[node.index()];
        if matches!(self.doc.data(node), NodeData::Text(_)) {
            return slot.head_len;
        }
        let child_bits = if slot.indexed && self.config.recursive_bitmaps {
            self.tag_set(node)
                .iter()
                .map(|w| w.count_ones() as usize)
                .sum()
        } else {
            reference_bits
        };
        let content_len = self
            .doc
            .children(node)
            .iter()
            .map(|&child| self.measure(child, child_bits))
            .sum();
        self.slots[node.index()].content_len = content_len;
        let summary_len = if slot.indexed {
            let bitmap_len = reference_bits.div_ceil(8);
            1 + varint_len(content_len as u64) + varint_len(bitmap_len as u64) + bitmap_len
        } else {
            0
        };
        slot.head_len + summary_len + content_len + 1
    }

    /// Emission pass, in document order: every token written once, into
    /// `out`. `reference` is the nearest summarised ancestor, whose tag set
    /// the node's bitmap is encoded against (`None`: the whole dictionary);
    /// `attr_cursor` walks `attr_tags`.
    fn emit(
        &self,
        node: NodeId,
        reference: Option<NodeId>,
        attr_cursor: &mut usize,
        out: &mut Vec<u8>,
        stats: &mut EncodeStats,
    ) {
        let slot = &self.slots[node.index()];
        let (name, attrs) = match self.doc.data(node) {
            NodeData::Text(t) => {
                out.push(token::TEXT);
                write_varint(out, t.len() as u64);
                out.extend_from_slice(t.as_bytes());
                return;
            }
            NodeData::Element { name, attrs } => (name, attrs),
        };
        debug_assert_eq!(self.dict.get(name), Some(slot.tag));
        out.push(token::OPEN);
        write_varint(out, u64::from(slot.tag.0));
        write_varint(out, attrs.len() as u64);
        for a in attrs {
            write_varint(out, u64::from(self.attr_tags[*attr_cursor].0));
            *attr_cursor += 1;
            write_varint(out, a.value.len() as u64);
            out.extend_from_slice(a.value.as_bytes());
        }

        let mut child_reference = reference;
        if slot.indexed {
            let before = out.len();
            out.push(token::SUMMARY);
            write_varint(out, slot.content_len as u64);
            let set = self.tag_set(node);
            match reference {
                Some(ancestor) => write_subset(out, self.tag_set(ancestor), set),
                None => write_bitmap(out, set, self.dict.len()),
            }
            stats.summaries += 1;
            stats.index_bytes += out.len() - before;
            child_reference = self.config.recursive_bitmaps.then_some(node);
        }
        for &child in self.doc.children(node) {
            self.emit(child, child_reference, attr_cursor, out, stats);
        }
        out.push(token::CLOSE);
    }
}

/// Writes the bitmap length and the bitmap of `set` against the whole
/// dictionary of `dict_len` tags: bit `i` for tag `i`.
fn write_bitmap(out: &mut Vec<u8>, set: &[u64], dict_len: usize) {
    let len = dict_len.div_ceil(8);
    write_varint(out, len as u64);
    out.extend((0..len).map(|b| (set[b / 8] >> (b % 8 * 8)) as u8));
}

/// Writes the bitmap length and the bitmap of `set` against `reference`, a
/// superset of it: bit `i` for the `i`-th tag of `reference` in ascending
/// order (the paper's recursive compression).
fn write_subset(out: &mut Vec<u8>, reference: &[u64], set: &[u64]) {
    let bits: u32 = reference.iter().map(|w| w.count_ones()).sum();
    write_varint(out, u64::from(bits.div_ceil(8)));
    let (mut byte, mut bit) = (0u8, 0u32);
    for (&reference_word, &set_word) in reference.iter().zip(set) {
        let mut rest = reference_word;
        while rest != 0 {
            let lowest = rest & rest.wrapping_neg();
            if set_word & lowest != 0 {
                byte |= 1 << bit;
            }
            rest ^= lowest;
            bit += 1;
            if bit == 8 {
                out.push(byte);
                (byte, bit) = (0, 0);
            }
        }
    }
    if bit > 0 {
        out.push(byte);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdds_xml::generator::{self, Corpus, GeneratorConfig, HospitalProfile};
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

    /// `(corpus, recursive_bitmaps, token bytes, summaries, index bytes,
    /// FNV-1a of the plaintext)` of each corpus at 4 000 elements under the
    /// default generator and threshold.
    const PINNED: [(Corpus, bool, usize, usize, usize, u64); 8] = [
        (
            Corpus::Hospital,
            true,
            107_551,
            1_501,
            6_788,
            0x0b79_932e_2b16_bb3f,
        ),
        (
            Corpus::Hospital,
            false,
            110_059,
            1_501,
            9_296,
            0xdd81_61ae_a8fb_fa37,
        ),
        (
            Corpus::Community,
            true,
            105_940,
            834,
            4_276,
            0x159c_a37a_922c_1d38,
        ),
        (
            Corpus::Community,
            false,
            107_372,
            834,
            5_708,
            0xba54_05c2_fceb_ec9c,
        ),
        (
            Corpus::Catalog,
            true,
            94_898,
            801,
            3_206,
            0x3bbe_aa88_54e3_dbcb,
        ),
        (
            Corpus::Catalog,
            false,
            94_898,
            801,
            3_206,
            0xcd3b_040d_0762_2ce3,
        ),
        (
            Corpus::Stream,
            true,
            310_077,
            1_601,
            8_006,
            0x682a_5ce6_ddb7_8cb9,
        ),
        (
            Corpus::Stream,
            false,
            310_077,
            1_601,
            8_006,
            0xbd64_7ac2_f1d7_3e99,
        ),
    ];

    /// 64-bit FNV-1a digest.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
            (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn encoded_bytes_are_pinned() {
        for (corpus, recursive_bitmaps, token_bytes, summaries, index_bytes, digest) in PINNED {
            let doc = corpus.generate(4000, &GeneratorConfig::default());
            let enc = encode(
                &doc,
                EncoderConfig {
                    recursive_bitmaps,
                    ..EncoderConfig::default()
                },
            );
            let what = format!("{corpus:?}, recursive bitmaps {recursive_bitmaps}");
            assert_eq!(enc.stats.token_bytes, token_bytes, "{what}: token bytes");
            assert_eq!(enc.stats.summaries, summaries, "{what}: summaries");
            assert_eq!(enc.stats.index_bytes, index_bytes, "{what}: index bytes");
            assert_eq!(fnv1a(&enc.plaintext()), digest, "{what}: plaintext digest");
        }
    }

    #[test]
    fn empty_document_encodes_to_nothing() {
        let doc = Document::new();
        let enc = encode(&doc, EncoderConfig::default());
        assert!(enc.tokens.is_empty());
        assert_eq!(enc.stats.summaries, 0);
    }
}
