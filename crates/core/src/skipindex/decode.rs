//! SOE-side streaming reader of the binary token stream.
//!
//! The reader is deliberately *incremental and push-fed*: the card never holds
//! more than a small window of decrypted plaintext (the terminal pushes
//! encrypted chunks one APDU at a time), and it must be able to **skip** a
//! summarised subtree by simply advancing its cursor — the skipped bytes are
//! then never requested, transferred, nor decrypted, which is precisely the
//! benefit measured in experiment E2.

use std::sync::Arc;

use sdds_xml::{Attribute, Event, TagDict, TagId};

use super::compress::{read_varint, TagReference};
use super::encode::{token, SubtreeSummary};
use crate::error::CoreError;

/// A decoded item of the token stream.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenEvent {
    /// A document event (open / value / close).
    Event(Event),
    /// A subtree summary describing the content of the element that was just
    /// opened. The caller decides whether to [`TokenReader::skip`] it.
    Summary(SubtreeSummary),
}

/// Outcome of a [`TokenReader::next_token`] call.
#[derive(Debug, Clone, PartialEq)]
pub enum ReadResult {
    /// A token was decoded.
    Token(TokenEvent),
    /// The window does not contain a complete token; more plaintext must be
    /// supplied starting at [`TokenReader::needed_offset`].
    NeedData,
    /// The whole stream has been consumed.
    End,
}

/// Decision taken for a summarised subtree (returned by the engine's skip
/// logic and consumed by its statistics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkipDecision {
    /// The subtree content must be read and evaluated.
    Read,
    /// The subtree cannot contribute to the authorized view: skip it.
    Skip,
}

/// Incremental reader of the binary token stream.
///
/// The window holds decrypted bytes from `window_start` on; `cursor` marks
/// the next byte to decode. Decoding a token or skipping a subtree only moves
/// the cursor: the consumed bytes are dropped once per [`TokenReader::supply`]
/// (or [`TokenReader::supply_with`]), never per token.
#[derive(Debug)]
pub struct TokenReader {
    dict: TagDict,
    /// Reference of bitmaps with no enclosing summary: the whole dictionary.
    full_reference: TagReference,
    recursive_bitmaps: bool,
    stream_len: u64,
    /// Absolute offset of `window[0]`; never past `cursor`.
    window_start: u64,
    window: Vec<u8>,
    /// Absolute offset of the next byte to decode; never past the window end.
    cursor: u64,
    depth: usize,
    /// Names of the open elements, shared with the events that opened them.
    open_names: Vec<Arc<str>>,
    /// Reference tag sets of enclosing summaries: `(depth, reference)`. Only
    /// recursive bitmaps push here; the others are all against the dictionary.
    ref_stack: Vec<(usize, TagReference)>,
    /// Set when the last decoded token was an OPEN, in which case a SUMMARY
    /// may follow and would describe that element.
    last_open_depth: Option<usize>,
}

impl TokenReader {
    /// Creates a reader over a stream of `stream_len` bytes whose tokens start
    /// at `start_offset` (the bytes before it hold the serialised dictionary,
    /// already parsed by the caller).
    pub fn new(dict: TagDict, start_offset: u64, stream_len: u64, recursive_bitmaps: bool) -> Self {
        TokenReader {
            full_reference: TagReference::full(dict.len()),
            dict,
            recursive_bitmaps,
            stream_len,
            window_start: start_offset,
            window: Vec::new(),
            cursor: start_offset,
            depth: 0,
            open_names: Vec::new(),
            ref_stack: Vec::new(),
            last_open_depth: None,
        }
    }

    /// The tag dictionary.
    pub fn dict(&self) -> &TagDict {
        &self.dict
    }

    /// Absolute offset of the next byte the reader needs.
    pub fn needed_offset(&self) -> u64 {
        self.window_start + self.window.len() as u64
    }

    /// Current element depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Bytes supplied but not yet decoded or skipped (charged to secure RAM).
    pub fn window_bytes(&self) -> usize {
        self.window.len() - self.rel()
    }

    /// True once every byte of the stream has been consumed or skipped.
    pub fn at_end(&self) -> bool {
        self.cursor >= self.stream_len
    }

    /// Supplies plaintext bytes starting at absolute `offset`. Bytes the reader
    /// has already consumed are ignored; a gap after the current window is an
    /// error.
    pub fn supply(&mut self, offset: u64, bytes: &[u8]) -> Result<(), CoreError> {
        self.supply_with(offset, bytes.len(), |tail| tail.copy_from_slice(bytes))
    }

    /// Supplies the `len` bytes starting at absolute `offset` by letting `fill`
    /// write them straight into the window's tail, e.g. copy a chunk's
    /// ciphertext there and decrypt it in place. `fill` is not called when
    /// every byte is already supplied or consumed; otherwise the rules of
    /// [`TokenReader::supply`] apply.
    pub fn supply_with(
        &mut self,
        offset: u64,
        len: usize,
        fill: impl FnOnce(&mut [u8]),
    ) -> Result<(), CoreError> {
        let window_end = self.needed_offset();
        if offset + len as u64 <= window_end {
            return Ok(()); // entirely stale (e.g. a chunk that was skipped over)
        }
        if offset > window_end {
            return Err(CoreError::BadState {
                // alloc: cold — plaintext-gap error path.
                message: format!(
                    "plaintext gap: reader needs offset {window_end} but received {offset}"
                ),
            });
        }
        // Drop the consumed bytes: the one compaction per supply.
        self.window.drain(..self.rel());
        self.window_start = self.cursor;
        let at = self.window.len();
        self.window.resize(at + len, 0);
        fill(&mut self.window[at..]);
        // Bytes of the piece before `window_end` are already known: behind the
        // cursor they wait for the next compaction, in the window they go now.
        let known = (window_end - offset) as usize;
        if at == 0 {
            self.window_start = offset;
        } else {
            self.window.drain(at..at + known);
        }
        Ok(())
    }

    /// Skips `content_len` bytes of subtree content (the caller obtained the
    /// length from the corresponding [`SubtreeSummary`]). The length is
    /// untrusted: one that runs past the end of the stream is an error.
    pub fn skip(&mut self, content_len: u64) -> Result<(), CoreError> {
        self.cursor = self
            .cursor
            .checked_add(content_len)
            .filter(|&end| end <= self.stream_len)
            .ok_or_else(|| CoreError::BadDocument {
                // alloc: cold — corrupt-summary error path.
                message: format!(
                    "summary skips {content_len} bytes from offset {}, past the end of the stream",
                    self.cursor
                ),
            })?;
        if self.cursor >= self.needed_offset() {
            self.window.clear();
            self.window_start = self.cursor;
        }
        // A skip consumes the content of the element that was just opened; the
        // next token is its CLOSE.
        self.last_open_depth = None;
        Ok(())
    }

    fn rel(&self) -> usize {
        (self.cursor - self.window_start) as usize
    }

    fn current_reference(&self) -> &TagReference {
        self.ref_stack
            .last()
            .map_or(&self.full_reference, |(_, r)| r)
    }

    fn tag_name(&self, id: u64) -> Result<Arc<str>, CoreError> {
        u16::try_from(id)
            .ok()
            .and_then(|id| self.dict.name(TagId(id)))
            .map(Arc::clone)
            .ok_or_else(|| CoreError::BadDocument {
                // alloc: cold — unknown-tag error path.
                message: format!("unknown tag id {id}"),
            })
    }

    /// Decodes the next token, if the window holds a complete one.
    pub fn next_token(&mut self) -> Result<ReadResult, CoreError> {
        if self.at_end() {
            return Ok(ReadResult::End);
        }
        let start = self.rel();
        let Some(&marker) = self.window.get(start) else {
            return Ok(ReadResult::NeedData);
        };
        match marker {
            token::OPEN => {
                let mut pos = start + 1;
                let Some((tag, used)) = read_varint(&self.window, pos) else {
                    return Ok(ReadResult::NeedData);
                };
                pos += used;
                let Some((attr_count, used)) = read_varint(&self.window, pos) else {
                    return Ok(ReadResult::NeedData);
                };
                pos += used;
                // The count is untrusted: reserve no more attributes than the
                // window's remaining bytes can hold (two varints each).
                let fit = (self.window.len() - pos) as u64 / 2;
                // alloc: amortized — attribute list sized to this one element.
                let mut attrs = Vec::with_capacity(attr_count.min(fit) as usize);
                for _ in 0..attr_count {
                    let Some((name_id, used)) = read_varint(&self.window, pos) else {
                        return Ok(ReadResult::NeedData);
                    };
                    pos += used;
                    let Some((value_len, used)) = read_varint(&self.window, pos) else {
                        return Ok(ReadResult::NeedData);
                    };
                    pos += used;
                    let Some(value) = window_slice(&self.window, pos, value_len) else {
                        return Ok(ReadResult::NeedData);
                    };
                    let value = String::from_utf8_lossy(value).into_owned();
                    pos += value_len as usize;
                    attrs.push(Attribute::new(self.tag_name(name_id)?, value));
                }
                let name = self.tag_name(tag)?;
                self.consume(pos - start);
                self.depth += 1;
                self.open_names.push(Arc::clone(&name));
                self.last_open_depth = Some(self.depth);
                Ok(ReadResult::Token(TokenEvent::Event(Event::Open {
                    name,
                    attrs,
                })))
            }
            token::TEXT => {
                let mut pos = start + 1;
                let Some((len, used)) = read_varint(&self.window, pos) else {
                    return Ok(ReadResult::NeedData);
                };
                pos += used;
                let Some(text) = window_slice(&self.window, pos, len) else {
                    return Ok(ReadResult::NeedData);
                };
                let text = String::from_utf8_lossy(text).into_owned();
                pos += len as usize;
                self.consume(pos - start);
                self.last_open_depth = None;
                Ok(ReadResult::Token(TokenEvent::Event(Event::Text(text))))
            }
            token::CLOSE => {
                self.consume(1);
                let name = self
                    .open_names
                    .pop()
                    .ok_or_else(|| CoreError::BadDocument {
                        message: "close token without a matching open".into(),
                    })?;
                while self
                    .ref_stack
                    .last()
                    .is_some_and(|(depth, _)| *depth >= self.depth)
                {
                    self.ref_stack.pop();
                }
                self.depth -= 1;
                self.last_open_depth = None;
                Ok(ReadResult::Token(TokenEvent::Event(Event::Close(name))))
            }
            token::SUMMARY => {
                let Some(open_depth) = self.last_open_depth else {
                    return Err(CoreError::BadDocument {
                        message: "summary token not immediately after an open token".into(),
                    });
                };
                let mut pos = start + 1;
                let Some((content_len, used)) = read_varint(&self.window, pos) else {
                    return Ok(ReadResult::NeedData);
                };
                pos += used;
                let Some((bitmap_len, used)) = read_varint(&self.window, pos) else {
                    return Ok(ReadResult::NeedData);
                };
                pos += used;
                let Some(bitmap) = window_slice(&self.window, pos, bitmap_len) else {
                    return Ok(ReadResult::NeedData);
                };
                let tags = self.current_reference().decode_subset(bitmap);
                pos += bitmap_len as usize;
                self.consume(pos - start);
                // Nested summaries are encoded against this subtree's tag set
                // (recursive compression) or the full dictionary.
                if self.recursive_bitmaps {
                    self.ref_stack
                        .push((open_depth, TagReference::from_set(&tags)));
                }
                self.last_open_depth = None;
                Ok(ReadResult::Token(TokenEvent::Summary(SubtreeSummary {
                    content_len,
                    tags,
                })))
            }
            other => Err(CoreError::BadDocument {
                // alloc: cold — unknown-token error path.
                message: format!(
                    "unknown token marker 0x{other:02X} at offset {}",
                    self.cursor
                ),
            }),
        }
    }

    fn consume(&mut self, bytes: usize) {
        self.cursor += bytes as u64;
    }
}

/// The `len` bytes of `window` from `pos`, if the window holds them all.
/// `len` is read from untrusted bytes, so `pos + len` must not overflow.
fn window_slice(window: &[u8], pos: usize, len: u64) -> Option<&[u8]> {
    window.get(pos..)?.get(..usize::try_from(len).ok()?)
}

/// Convenience helper: decodes a full in-memory plaintext (dictionary +
/// tokens) into events, honouring no skip. Used by tests and by the DOM
/// baseline, which by definition reads everything.
pub fn decode_all(plaintext: &[u8], recursive_bitmaps: bool) -> Result<Vec<Event>, CoreError> {
    let (dict, dict_len) = TagDict::decode(plaintext).ok_or_else(|| CoreError::BadDocument {
        message: "cannot decode the tag dictionary".into(),
    })?;
    let mut reader = TokenReader::new(
        dict,
        dict_len as u64,
        plaintext.len() as u64,
        recursive_bitmaps,
    );
    reader.supply(0, plaintext)?;
    let mut events = Vec::new();
    loop {
        match reader.next_token()? {
            ReadResult::Token(TokenEvent::Event(e)) => events.push(e),
            ReadResult::Token(TokenEvent::Summary(_)) => {}
            ReadResult::NeedData => {
                return Err(CoreError::BadDocument {
                    message: "truncated token stream".into(),
                })
            }
            ReadResult::End => break,
        }
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skipindex::compress::write_varint;
    use crate::skipindex::encode::{DocumentEncoder, EncoderConfig};
    use sdds_xml::generator::{self, GeneratorConfig, HospitalProfile};
    use sdds_xml::Document;

    fn encode(doc: &Document, config: EncoderConfig) -> (Vec<u8>, TagDict) {
        let enc = DocumentEncoder::new(config).encode(doc);
        (enc.plaintext(), enc.dict)
    }

    #[test]
    fn roundtrip_small_document() {
        let doc = Document::parse("<a x=\"1\"><b>hello &amp; goodbye</b><c/></a>").unwrap();
        let (plaintext, _) = encode(&doc, EncoderConfig::default());
        let events = decode_all(&plaintext, true).unwrap();
        assert_eq!(events, doc.to_events());
    }

    #[test]
    fn roundtrip_generated_documents_with_and_without_index() {
        for config in [EncoderConfig::default(), EncoderConfig::without_index()] {
            let doc = generator::hospital(&HospitalProfile::default(), &GeneratorConfig::default());
            let (plaintext, _) = encode(&doc, config);
            let events = decode_all(&plaintext, config.recursive_bitmaps).unwrap();
            assert_eq!(events, doc.to_events());
        }
    }

    /// `events` without the content of `skipped` elements.
    fn without_content_of(events: &[Event], skipped: &str) -> Vec<Event> {
        let mut kept = Vec::new();
        // Depth inside a skipped element; 0 outside any.
        let mut inside = 0usize;
        for event in events {
            match event {
                Event::Open { .. } if inside > 0 => inside += 1,
                Event::Close(_) if inside > 1 => inside -= 1,
                Event::Close(_) if inside == 1 => {
                    inside = 0;
                    kept.push(event.clone());
                }
                _ if inside > 0 => {}
                Event::Open { name, .. } => {
                    if &**name == skipped {
                        inside = 1;
                    }
                    kept.push(event.clone());
                }
                _ => kept.push(event.clone()),
            }
        }
        kept
    }

    #[test]
    fn incremental_supply_in_small_pieces() {
        // Pieces are supplied like chunks: the aligned piece holding the
        // offset the reader needs. Skipping every patient makes pieces start
        // behind the cursor (a stale prefix) and skips run past the window's
        // end; small pieces split tokens across supplies.
        let doc = generator::hospital(
            &HospitalProfile {
                patients: 3,
                ..HospitalProfile::default()
            },
            &GeneratorConfig::default(),
        );
        let enc = DocumentEncoder::new(EncoderConfig {
            min_index_bytes: 16,
            ..EncoderConfig::default()
        })
        .encode(&doc);
        let plaintext = enc.plaintext();
        let expected = without_content_of(&decode_all(&plaintext, true).unwrap(), "patient");
        for piece in [1usize, 2, 7, 255, 256, 4096] {
            let (dict, dict_len) = TagDict::decode(&plaintext).unwrap();
            let mut reader = TokenReader::new(dict, dict_len as u64, plaintext.len() as u64, true);
            let mut events: Vec<Event> = Vec::new();
            let mut skips = 0;
            let mut peak_window = 0;
            loop {
                match reader.next_token().unwrap() {
                    ReadResult::Token(TokenEvent::Event(e)) => events.push(e),
                    ReadResult::Token(TokenEvent::Summary(s)) => {
                        if matches!(events.last(), Some(Event::Open { name, .. }) if &**name == "patient")
                        {
                            reader.skip(s.content_len).unwrap();
                            skips += 1;
                        }
                    }
                    ReadResult::NeedData => {
                        let needed = reader.needed_offset() as usize;
                        assert!(needed < plaintext.len(), "reader starved at end of stream");
                        let start = needed / piece * piece;
                        let end = (start + piece).min(plaintext.len());
                        reader.supply(start as u64, &plaintext[start..end]).unwrap();
                        peak_window = peak_window.max(reader.window_bytes());
                    }
                    ReadResult::End => break,
                }
            }
            assert_eq!(skips, 3, "piece {piece}");
            assert_eq!(events, expected, "piece {piece}");
            assert_eq!(reader.depth(), 0);
            // The window holds one piece and the start of one token (no
            // token of this document is 64 bytes long).
            assert!(peak_window < piece + 64, "piece {piece}: {peak_window}");
            // Names are shared from the dictionary, across pieces too.
            let patients: Vec<(&Arc<str>, &[Attribute])> = events
                .iter()
                .filter_map(|e| match e {
                    Event::Open { name, attrs } if &**name == "patient" => Some((name, &attrs[..])),
                    _ => None,
                })
                .collect();
            assert!(Arc::ptr_eq(patients[0].0, patients[1].0));
            assert!(Arc::ptr_eq(&patients[0].1[0].name, &patients[2].1[0].name));
        }
    }

    #[test]
    fn skipping_a_summarised_subtree_jumps_to_its_close() {
        let doc = generator::hospital(
            &HospitalProfile {
                patients: 4,
                ..HospitalProfile::default()
            },
            &GeneratorConfig::default(),
        );
        let enc = DocumentEncoder::new(EncoderConfig {
            min_index_bytes: 16,
            ..EncoderConfig::default()
        })
        .encode(&doc);
        let plaintext = enc.plaintext();
        let (dict, dict_len) = TagDict::decode(&plaintext).unwrap();
        let mut reader = TokenReader::new(dict, dict_len as u64, plaintext.len() as u64, true);
        reader.supply(0, &plaintext).unwrap();

        // Skip every patient: the remaining visible elements are the root and
        // the patient tags themselves.
        let mut seen = Vec::new();
        let mut skipped_bytes = 0u64;
        loop {
            match reader.next_token().unwrap() {
                ReadResult::Token(TokenEvent::Event(e)) => {
                    if let Event::Open { name, .. } = &e {
                        seen.push(name.to_string());
                    }
                }
                ReadResult::Token(TokenEvent::Summary(s)) => {
                    // Summaries for patient elements: skip them all.
                    if *seen.last().unwrap() == "patient" {
                        skipped_bytes += s.content_len;
                        reader.skip(s.content_len).unwrap();
                    }
                }
                ReadResult::NeedData => panic!("whole stream was supplied"),
                ReadResult::End => break,
            }
        }
        assert_eq!(seen.iter().filter(|n| *n == "patient").count(), 4);
        assert!(!seen.contains(&"name".to_owned()));
        assert!(skipped_bytes > plaintext.len() as u64 / 2);
        assert_eq!(reader.depth(), 0);
    }

    #[test]
    fn supply_rejects_gaps_and_ignores_stale_data() {
        let doc = Document::parse("<a><b>xx</b></a>").unwrap();
        let (plaintext, dict) = encode(&doc, EncoderConfig::default());
        let dict_len = dict.encoded_len();
        let mut reader = TokenReader::new(dict, dict_len as u64, plaintext.len() as u64, true);
        // A gap beyond the needed offset is rejected.
        assert!(reader
            .supply(plaintext.len() as u64 + 10, &[1, 2, 3])
            .is_err());
        // Stale data before the cursor is ignored.
        reader.supply(0, &plaintext[..dict_len]).unwrap();
        assert_eq!(reader.window_bytes(), 0);
        // Normal supply succeeds.
        reader.supply(0, &plaintext).unwrap();
        assert!(matches!(reader.next_token().unwrap(), ReadResult::Token(_)));
    }

    #[test]
    fn summaries_describe_descendant_tags() {
        let doc = Document::parse(
            "<r><big><x>aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa</x><y>bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb</y></big></r>",
        )
        .unwrap();
        let enc = DocumentEncoder::new(EncoderConfig {
            min_index_bytes: 8,
            ..EncoderConfig::default()
        })
        .encode(&doc);
        let plaintext = enc.plaintext();
        let (dict, dict_len) = TagDict::decode(&plaintext).unwrap();
        let x_id = dict.get("x").unwrap();
        let y_id = dict.get("y").unwrap();
        let r_id = dict.get("r").unwrap();
        let mut reader = TokenReader::new(dict, dict_len as u64, plaintext.len() as u64, true);
        reader.supply(0, &plaintext).unwrap();
        let mut summaries = Vec::new();
        loop {
            match reader.next_token().unwrap() {
                ReadResult::Token(TokenEvent::Summary(s)) => summaries.push(s),
                ReadResult::Token(_) => {}
                ReadResult::NeedData => panic!("fully supplied"),
                ReadResult::End => break,
            }
        }
        assert!(!summaries.is_empty());
        let outer = &summaries[0];
        assert!(outer.tags.contains(x_id));
        assert!(outer.tags.contains(y_id));
        assert!(!outer.tags.contains(r_id));
    }

    #[test]
    fn decode_all_rejects_truncated_stream() {
        let doc = Document::parse("<a><b>hello</b></a>").unwrap();
        let (plaintext, _) = encode(&doc, EncoderConfig::default());
        assert!(decode_all(&plaintext[..plaintext.len() - 3], true).is_err());
        assert!(decode_all(&[1, 2], true).is_err());
    }

    #[test]
    fn corrupted_marker_is_reported() {
        let doc = Document::parse("<a><b>hello</b></a>").unwrap();
        let (mut plaintext, dict) = encode(&doc, EncoderConfig::default());
        let dict_len = dict.encoded_len();
        plaintext[dict_len] = 0x7F; // clobber the first token marker
        let err = decode_all(&plaintext, true).unwrap_err();
        assert!(matches!(err, CoreError::BadDocument { .. }));
    }

    #[test]
    fn huge_untrusted_lengths_are_typed_errors() {
        // Each length or id below is read from untrusted bytes and must end
        // in a typed error: never reserve memory, index past the end, wrap
        // an offset or truncate an id.
        let dict = TagDict::from_names(["a"]);
        let stream = |tokens: &[&[u64]]| {
            let mut plaintext = dict.encode();
            for token in tokens {
                plaintext.push(token[0] as u8);
                for &varint in &token[1..] {
                    write_varint(&mut plaintext, varint);
                }
            }
            plaintext
        };
        let open_a: &[u64] = &[token::OPEN.into(), 0, 0];
        let cases = [
            // An OPEN claiming u64::MAX attributes.
            stream(&[&[token::OPEN.into(), 0, u64::MAX]]),
            // A TEXT claiming u64::MAX bytes.
            stream(&[open_a, &[token::TEXT.into(), u64::MAX]]),
            // A SUMMARY claiming a u64::MAX-byte bitmap.
            stream(&[open_a, &[token::SUMMARY.into(), 1, u64::MAX]]),
            // Tag id 65 536, one past the u16 id space: not tag 0.
            stream(&[&[token::OPEN.into(), 1 << 16, 0]]),
        ];
        for plaintext in cases {
            let err = decode_all(&plaintext, true).unwrap_err();
            assert!(matches!(err, CoreError::BadDocument { .. }), "{err:?}");
        }
        // A SUMMARY whose content runs past the end of the stream, with and
        // without overflowing the offset.
        for content_len in [100, u64::MAX] {
            let plaintext = stream(&[
                open_a,
                &[token::SUMMARY.into(), content_len, 1, 0],
                &[token::CLOSE.into()],
            ]);
            let mut reader = TokenReader::new(
                dict.clone(),
                dict.encoded_len() as u64,
                plaintext.len() as u64,
                true,
            );
            reader.supply(0, &plaintext).unwrap();
            assert!(matches!(reader.next_token(), Ok(ReadResult::Token(_))));
            let Ok(ReadResult::Token(TokenEvent::Summary(summary))) = reader.next_token() else {
                panic!("a summary follows the open");
            };
            let err = reader.skip(summary.content_len).unwrap_err();
            assert!(matches!(err, CoreError::BadDocument { .. }), "{err:?}");
        }
    }
}
