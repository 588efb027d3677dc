//! An oracle for the skip index that shares no code with the encoder or with
//! the SOE's token reader: it parses the dictionary and the token stream
//! itself and checks every encoded document against its `Document` tree.
//!
//! For each corpus of `Corpus::all()` (plus a wide random vocabulary whose
//! tag sets span several words and whose tag ids need two-byte varints),
//! both bitmap modes and the thresholds 0, 16, 64 and `usize::MAX`:
//!
//! - the decoded events equal `Document::to_events`;
//! - each summary's `content_len` is the byte distance to its element's
//!   CLOSE token;
//! - each summary's tag set, decoded against the nearest summarised
//!   ancestor's set (recursive bitmaps) or the whole dictionary, equals the
//!   element tags strictly below that element in the tree;
//! - threshold 0 summarises every element and `usize::MAX` none.
//!
//! Runs `SDDS_PROP_CASES` cases (default 64); case `n` uses generator seed
//! `n`, so a failure names its case and reproduces exactly.

use std::collections::BTreeSet;

use sdds_core::skipindex::encode::token;
use sdds_core::skipindex::{DocumentEncoder, EncoderConfig};
use sdds_xml::generator::{self, Corpus, GeneratorConfig, RandomProfile};
use sdds_xml::{Attribute, Document, Event};

/// Cases per property: `SDDS_PROP_CASES` when set and parseable, else 64.
fn cases() -> u64 {
    std::env::var("SDDS_PROP_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(64)
}

const THRESHOLDS: [usize; 4] = [0, 16, 64, usize::MAX];

/// A cursor over the plaintext.
struct Bytes<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Bytes<'_> {
    fn byte(&mut self) -> u8 {
        let b = self.bytes[self.pos];
        self.pos += 1;
        b
    }

    fn take(&mut self, len: usize) -> &[u8] {
        let out = &self.bytes[self.pos..self.pos + len];
        self.pos += len;
        out
    }

    fn varint(&mut self) -> usize {
        let mut value = 0usize;
        for shift in (0..).step_by(7) {
            let b = self.byte();
            value |= usize::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                break;
            }
        }
        value
    }

    fn text(&mut self) -> String {
        let len = self.varint();
        String::from_utf8(self.take(len).to_vec()).expect("UTF-8")
    }
}

/// An open element of the parse.
struct Frame {
    name: String,
    /// Token offset its CLOSE must sit at, when it is summarised.
    close_at: Option<usize>,
    /// Its decoded tag set, when it is summarised (ascending dictionary
    /// ids: the reference of the bitmaps below it).
    tags: Option<Vec<usize>>,
}

/// Names of the element tags strictly below each element, in document order.
fn tags_below(doc: &Document) -> Vec<BTreeSet<&str>> {
    doc.all_elements()
        .into_iter()
        .map(|element| {
            doc.descendants(element)
                .into_iter()
                .skip(1)
                .filter_map(|n| doc.element_name(n))
                .collect()
        })
        .collect()
}

/// Decodes the encoded `plaintext` of `doc` and checks it against the tree.
/// Returns the number of summaries.
fn check(
    doc: &Document,
    below: &[BTreeSet<&str>],
    plaintext: &[u8],
    recursive: bool,
    what: &str,
) -> usize {
    let mut input = Bytes {
        bytes: plaintext,
        pos: 0,
    };
    let count = u16::from_le_bytes([input.byte(), input.byte()]);
    let names: Vec<String> = (0..count)
        .map(|_| {
            let len = usize::from(input.byte());
            String::from_utf8(input.take(len).to_vec()).expect("UTF-8 name")
        })
        .collect();

    let mut events = Vec::new();
    let mut stack: Vec<Frame> = Vec::new();
    let mut elements = 0;
    let mut summaries = 0;
    while input.pos < plaintext.len() {
        match input.byte() {
            token::OPEN => {
                let name = names[input.varint()].clone();
                let attrs = (0..input.varint())
                    .map(|_| Attribute::new(names[input.varint()].as_str(), input.text()))
                    .collect();
                events.push(Event::open_with(name.as_str(), attrs));
                let mut frame = Frame {
                    name,
                    close_at: None,
                    tags: None,
                };
                if plaintext.get(input.pos) == Some(&token::SUMMARY) {
                    input.pos += 1;
                    let content_len = input.varint();
                    let reference: Vec<usize> =
                        match stack.iter().rev().find_map(|f| f.tags.as_ref()) {
                            Some(tags) if recursive => tags.clone(),
                            _ => (0..names.len()).collect(),
                        };
                    let bitmap_len = input.varint();
                    assert_eq!(
                        bitmap_len,
                        reference.len().div_ceil(8),
                        "{what}: bitmap length of element {elements}"
                    );
                    let bitmap = input.take(bitmap_len);
                    let tags: Vec<usize> = reference
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| bitmap[i / 8] & (1 << (i % 8)) != 0)
                        .map(|(_, &tag)| tag)
                        .collect();
                    let decoded: BTreeSet<&str> = tags.iter().map(|&t| names[t].as_str()).collect();
                    assert_eq!(
                        decoded, below[elements],
                        "{what}: tag set of element {elements} ({})",
                        frame.name
                    );
                    frame.close_at = Some(input.pos + content_len);
                    frame.tags = Some(tags);
                    summaries += 1;
                }
                stack.push(frame);
                elements += 1;
            }
            token::TEXT => events.push(Event::Text(input.text())),
            token::CLOSE => {
                let frame = stack.pop().expect("close without an open");
                if let Some(close_at) = frame.close_at {
                    assert_eq!(
                        input.pos - 1,
                        close_at,
                        "{what}: content length of a summarised `{}`",
                        frame.name
                    );
                }
                events.push(Event::close(frame.name.as_str()));
            }
            other => panic!(
                "{what}: unexpected marker 0x{other:02X} at {}",
                input.pos - 1
            ),
        }
    }
    assert!(stack.is_empty(), "{what}: unclosed elements");
    assert_eq!(events, doc.to_events(), "{what}: events");
    summaries
}

/// The documents of case `case`: every corpus, and a random document over
/// a vocabulary wider than one 64-bit word.
fn documents(case: u64) -> Vec<(String, Document)> {
    let config = GeneratorConfig {
        seed: case,
        ..GeneratorConfig::default()
    };
    let elements = 1 + (case as usize * 37) % 200;
    let mut docs: Vec<(String, Document)> = Corpus::all()
        .into_iter()
        .map(|corpus| (format!("{corpus:?}"), corpus.generate(elements, &config)))
        .collect();
    docs.push((
        "wide vocabulary".into(),
        generator::random(
            &RandomProfile {
                elements,
                vocabulary: 300,
                ..RandomProfile::default()
            },
            &config,
        ),
    ));
    docs
}

#[test]
fn encoded_skip_index_matches_the_document_tree() {
    for case in 0..cases() {
        for (corpus, doc) in documents(case) {
            let below = tags_below(&doc);
            for recursive_bitmaps in [true, false] {
                for min_index_bytes in THRESHOLDS {
                    let what = format!(
                        "case {case}, {corpus}, recursive {recursive_bitmaps}, threshold {min_index_bytes}"
                    );
                    let encoded = DocumentEncoder::new(EncoderConfig {
                        min_index_bytes,
                        recursive_bitmaps,
                    })
                    .encode(&doc);
                    let summaries =
                        check(&doc, &below, &encoded.plaintext(), recursive_bitmaps, &what);
                    assert_eq!(summaries, encoded.stats.summaries, "{what}: summary count");
                    match min_index_bytes {
                        0 => assert_eq!(summaries, below.len(), "{what}: every element"),
                        usize::MAX => assert_eq!(summaries, 0, "{what}: no element"),
                        _ => {}
                    }
                }
            }
        }
    }
}
