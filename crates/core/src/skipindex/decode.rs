//! SOE-side streaming reader of the binary token stream.
//!
//! The reader is deliberately *incremental and push-fed*: the card never holds
//! more than a small window of the stream (the terminal pushes encrypted
//! chunks one APDU at a time), and it must be able to **skip** a summarised
//! subtree by simply advancing its cursor. The window holds **ciphertext**:
//! the reader deciphers it on demand, one keystream block at a time just
//! ahead of the token it decodes (see [`Keystream`]), so the skipped bytes of
//! a fetched chunk are never decrypted, and those of chunks that lie wholly
//! inside a skip are never even requested or transferred. Both savings are
//! what experiment E2 measures.

use std::ops::Range;
use std::sync::Arc;

use sdds_xml::{AttrSpan, AttrsRef, Event, EventRef, TagDict, TagId, TagSet};

use super::compress::{read_varint, TagReference};
use super::encode::token;
use crate::error::CoreError;

/// A decoded item of the token stream, borrowed from the reader.
#[derive(Debug, Clone, Copy)]
pub enum TokenEvent<'r> {
    /// A document event (open / value / close): names shared from the
    /// dictionary, text and attribute values borrowed from the window.
    Event(EventRef<'r>),
    /// A subtree summary of the element that was just opened. Its tag set
    /// is [`TokenReader::summary_tags`] until the next summary; the caller
    /// decides whether to [`TokenReader::skip`] the content.
    Summary {
        /// Byte length of the element's encoded content (children tokens
        /// only, excluding the closing token).
        content_len: u64,
    },
}

/// Outcome of a [`TokenReader::next_token`] call.
#[derive(Debug, Clone, Copy)]
pub enum ReadResult<'r> {
    /// A token was decoded.
    Token(TokenEvent<'r>),
    /// The window does not contain a complete token; more plaintext must be
    /// supplied starting at [`TokenReader::needed_offset`].
    NeedData,
    /// The whole stream has been consumed.
    End,
}

// How far past a byte the reader needs it may decipher without ever
// touching a skipped byte. A skip starts right after a SUMMARY token (a
// marker and two varints: at least 3 bytes), and a SUMMARY only directly
// follows an OPEN token (a marker and two varints: at least 3 bytes). So no
// skip starts within the first 3 bytes of any token, within 3 bytes after
// an attribute value (the OPEN's end, then a SUMMARY), or within 6 bytes
// after a TEXT token (an OPEN, then a SUMMARY). Deciphering those bytes
// with the ones a token needs saves separate keystream calls for them.

/// Bytes from a token's start that are never skipped.
const SLACK_AT_TOKEN: usize = 3;
/// Bytes after an attribute value that are never skipped.
const SLACK_IN_OPEN: usize = 3;
/// Bytes after a TEXT token that are never skipped.
const SLACK_AFTER_TEXT: usize = 6;

/// The keystream of a ciphered token stream, which the reader runs over its
/// window on demand (the SOE's is `crate::secdoc::ChunkKeystream`).
pub trait Keystream {
    /// Deciphers in place a prefix of `bytes`, the stream's bytes from
    /// absolute offset `offset` on: at least the first `min` of them
    /// (`min <= bytes.len()`), and then on to the end of the keystream block
    /// holding the last of those (never past `bytes`). Returns the length of
    /// the prefix it deciphered; no byte past it is touched.
    fn reveal(&self, offset: u64, bytes: &mut [u8], min: usize) -> usize;
}

/// The keystream of a stream supplied as plaintext: nothing to decipher.
struct Cleartext;

impl Keystream for Cleartext {
    fn reveal(&self, _offset: u64, bytes: &mut [u8], _min: usize) -> usize {
        bytes.len()
    }
}

/// Incremental reader of the binary token stream.
///
/// The window holds the stream from `window_start` on; `cursor` marks the
/// next byte to decode, and the bytes below `plain_end` are plaintext, those
/// from it on still ciphertext:
/// `window_start ≤ cursor ≤ plain_end ≤ window_start + window.len()`.
/// Decoding reads below `plain_end` only, raising it a keystream block at a
/// time as a token needs the bytes; a skip moves the cursor, and the
/// watermark with it, past ciphertext that is never deciphered. Consumed
/// bytes are dropped once per supply, never per token.
///
/// Decoding allocates nothing in the steady state: events borrow from the
/// window and the dictionary, an open tag's attributes are recorded as spans
/// over one reused string of their checked values, and a summary's tag set is
/// decoded into one reused [`TagSet`].
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
    /// Absolute offset of the next byte to decode; never past `plain_end`.
    cursor: u64,
    /// Absolute offset of the first byte still ciphertext; never past the
    /// window end.
    plain_end: u64,
    /// Bytes deciphered since the last [`TokenReader::take_revealed`].
    revealed: usize,
    depth: usize,
    /// Tags of the open elements; a close borrows its name from the dictionary.
    open_tags: Vec<TagId>,
    /// Attributes of the last open tag, as spans over `attr_values`.
    attr_spans: Vec<AttrSpan>,
    /// The checked values of the last open tag's attributes, end to end.
    attr_values: String,
    /// Tag set of the last summary.
    summary_tags: TagSet,
    /// Reference tag sets of enclosing summaries: `(depth, reference)`. Only
    /// recursive bitmaps push here; the others are all against the dictionary.
    ref_stack: Vec<(usize, TagReference)>,
    /// References popped off `ref_stack`, kept for the next summaries.
    spare_refs: Vec<TagReference>,
    /// Set when the last decoded token was an OPEN, in which case a SUMMARY
    /// may follow and would describe that element.
    last_open_depth: Option<usize>,
    /// Every range deciphered and every range skipped, in stream order.
    #[cfg(test)]
    pub(crate) trace: Vec<(Trace, Range<u64>)>,
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
            plain_end: start_offset,
            revealed: 0,
            depth: 0,
            open_tags: Vec::new(),
            attr_spans: Vec::new(),
            attr_values: String::new(),
            summary_tags: TagSet::new(),
            ref_stack: Vec::new(),
            spare_refs: Vec::new(),
            last_open_depth: None,
            #[cfg(test)]
            trace: Vec::new(),
        }
    }

    /// The tag dictionary.
    pub fn dict(&self) -> &TagDict {
        &self.dict
    }

    /// Set of element tags occurring strictly below the element of the last
    /// [`TokenEvent::Summary`].
    pub fn summary_tags(&self) -> &TagSet {
        &self.summary_tags
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

    /// Bytes deciphered (run through the keystream) since the last call.
    pub fn take_revealed(&mut self) -> usize {
        std::mem::take(&mut self.revealed)
    }

    /// Supplies plaintext bytes starting at absolute `offset`. Bytes the reader
    /// has already consumed are ignored; a gap after the current window is an
    /// error. The window must hold no ciphertext yet to decipher.
    pub fn supply(&mut self, offset: u64, bytes: &[u8]) -> Result<(), CoreError> {
        debug_assert_eq!(self.plain_end, self.needed_offset(), "ciphertext pending");
        self.supply_ciphertext(offset, bytes)?;
        self.plain_end = self.needed_offset();
        Ok(())
    }

    /// Supplies ciphertext bytes starting at absolute `offset`, under the
    /// rules of [`TokenReader::supply`]. They stay ciphertext in the window
    /// until [`TokenReader::next_token_with`] deciphers them with the
    /// stream's keystream, as far as a token needs them.
    pub fn supply_ciphertext(&mut self, offset: u64, bytes: &[u8]) -> Result<(), CoreError> {
        let window_end = self.needed_offset();
        if offset + bytes.len() as u64 <= window_end {
            return Ok(()); // entirely stale (e.g. a chunk that was skipped over)
        }
        if offset > window_end {
            return Err(CoreError::BadState {
                message: format!(
                    "plaintext gap: reader needs offset {window_end} but received {offset}"
                ),
            });
        }
        // Drop the consumed bytes: the one compaction per supply.
        self.window.drain(..self.rel());
        self.window_start = self.cursor;
        // Bytes of the piece before `window_end` are already known: behind the
        // cursor they wait for the next compaction, in the window they go now.
        if self.window.is_empty() {
            self.window_start = offset;
            self.window.extend_from_slice(bytes);
        } else {
            self.window
                .extend_from_slice(&bytes[(window_end - offset) as usize..]);
        }
        Ok(())
    }

    /// Skips `content_len` bytes of subtree content (the caller obtained the
    /// length from the corresponding [`TokenEvent::Summary`]). The length is
    /// untrusted: one that runs past the end of the stream is an error.
    pub fn skip(&mut self, content_len: u64) -> Result<(), CoreError> {
        self.cursor = self
            .cursor
            .checked_add(content_len)
            .filter(|&end| end <= self.stream_len)
            .ok_or_else(|| CoreError::BadDocument {
                message: format!(
                    "summary skips {content_len} bytes from offset {}, past the end of the stream",
                    self.cursor
                ),
            })?;
        #[cfg(test)]
        self.trace
            .push((Trace::Skipped, self.cursor - content_len..self.cursor));
        if self.cursor >= self.needed_offset() {
            self.window.clear();
            self.window_start = self.cursor;
        }
        // The skipped bytes are never deciphered.
        self.plain_end = self.plain_end.max(self.cursor);
        // A skip consumes the content of the element that was just opened; the
        // next token is its CLOSE.
        self.last_open_depth = None;
        Ok(())
    }

    fn rel(&self) -> usize {
        (self.cursor - self.window_start) as usize
    }

    /// Window index of `plain_end`.
    fn plain_rel(&self) -> usize {
        (self.plain_end - self.window_start) as usize
    }

    /// Deciphers the window from `plain_end` through the keystream block
    /// holding window byte `end - 1` (`end` within the window). Kept out of
    /// line: the decoding fast path only compares against the watermark.
    #[inline(never)]
    fn reveal(&mut self, keystream: &impl Keystream, end: usize) {
        let from = self.plain_rel();
        let revealed = keystream.reveal(self.plain_end, &mut self.window[from..], end - from);
        #[cfg(test)]
        self.trace.push((
            Trace::Revealed,
            self.plain_end..self.plain_end + revealed as u64,
        ));
        self.plain_end += revealed as u64;
        self.revealed += revealed;
    }

    /// The varint at window index `pos`, deciphered as far as it runs;
    /// `None` when the window ends first.
    #[inline(always)]
    fn varint(&mut self, keystream: &impl Keystream, pos: usize) -> Option<(u64, usize)> {
        loop {
            let plain = self.plain_rel();
            if let Some(varint) = read_varint(&self.window[..plain], pos) {
                return Some(varint);
            }
            if plain == self.window.len() {
                return None;
            }
            self.reveal(keystream, plain + 1);
        }
    }

    /// The window range of the `len` bytes from index `pos`, deciphered
    /// together with up to `slack` bytes after them that no skip can start
    /// before (see [`SLACK_AFTER_TEXT`]); `None` when the window ends
    /// first. `len` is read from untrusted bytes, so `pos + len` must not
    /// overflow.
    #[inline(always)]
    fn span(
        &mut self,
        keystream: &impl Keystream,
        pos: usize,
        len: u64,
        slack: usize,
    ) -> Option<Range<usize>> {
        let end = pos.checked_add(usize::try_from(len).ok()?)?;
        if end > self.window.len() {
            return None;
        }
        if end > self.plain_rel() {
            self.reveal(keystream, (end + slack).min(self.window.len()));
        }
        Some(pos..end)
    }

    /// Decodes the next token of a stream supplied as plaintext (see
    /// [`TokenReader::supply`]), if the window holds a complete one.
    pub fn next_token(&mut self) -> Result<ReadResult<'_>, CoreError> {
        self.next_token_with(&Cleartext)
    }

    /// Decodes the next token, if the window holds a complete one,
    /// deciphering with `keystream` the bytes the token needs that are still
    /// ciphertext (with the few after them no skip can start in), to the end
    /// of their keystream blocks.
    pub fn next_token_with(
        &mut self,
        keystream: &impl Keystream,
    ) -> Result<ReadResult<'_>, CoreError> {
        if self.at_end() {
            return Ok(ReadResult::End);
        }
        let start = self.rel();
        if start >= self.window.len() {
            return Ok(ReadResult::NeedData);
        }
        let head = (start + SLACK_AT_TOKEN).min(self.window.len());
        if head > self.plain_rel() {
            self.reveal(keystream, head);
        }
        match self.window[start] {
            token::OPEN => {
                let mut pos = start + 1;
                let Some((tag, used)) = self.varint(keystream, pos) else {
                    return Ok(ReadResult::NeedData);
                };
                pos += used;
                let Some((attr_count, used)) = self.varint(keystream, pos) else {
                    return Ok(ReadResult::NeedData);
                };
                pos += used;
                self.attr_spans.clear();
                self.attr_values.clear();
                for _ in 0..attr_count {
                    let Some((name_id, used)) = self.varint(keystream, pos) else {
                        return Ok(ReadResult::NeedData);
                    };
                    pos += used;
                    let Some((value_len, used)) = self.varint(keystream, pos) else {
                        return Ok(ReadResult::NeedData);
                    };
                    pos += used;
                    let Some(value) = self.span(keystream, pos, value_len, SLACK_IN_OPEN) else {
                        return Ok(ReadResult::NeedData);
                    };
                    pos = value.end;
                    let from = self.attr_values.len();
                    self.attr_values
                        .push_str(utf8(&self.window[value], "attribute value")?);
                    let name = Arc::clone(tag_name(&self.dict, name_id)?.1);
                    self.attr_spans.push(AttrSpan {
                        name,
                        value: from..self.attr_values.len(),
                    });
                }
                let (id, name) = tag_name(&self.dict, tag)?;
                self.cursor += (pos - start) as u64;
                self.depth += 1;
                self.open_tags.push(id);
                self.last_open_depth = Some(self.depth);
                Ok(ReadResult::Token(TokenEvent::Event(EventRef::Open {
                    name,
                    attrs: AttrsRef::spans(&self.attr_spans, &self.attr_values),
                })))
            }
            token::TEXT => {
                let mut pos = start + 1;
                let Some((len, used)) = self.varint(keystream, pos) else {
                    return Ok(ReadResult::NeedData);
                };
                pos += used;
                let Some(text) = self.span(keystream, pos, len, SLACK_AFTER_TEXT) else {
                    return Ok(ReadResult::NeedData);
                };
                let text = utf8(&self.window[text], "text")?;
                self.cursor += (pos + text.len() - start) as u64;
                self.last_open_depth = None;
                Ok(ReadResult::Token(TokenEvent::Event(EventRef::Text(text))))
            }
            token::CLOSE => {
                let id = self.open_tags.pop().ok_or_else(|| CoreError::BadDocument {
                    message: "close token without a matching open".into(),
                })?;
                self.cursor += 1;
                while let Some((_, reference)) =
                    self.ref_stack.pop_if(|(depth, _)| *depth >= self.depth)
                {
                    self.spare_refs.push(reference);
                }
                self.depth -= 1;
                self.last_open_depth = None;
                let (_, name) = tag_name(&self.dict, u64::from(id.0))?;
                Ok(ReadResult::Token(TokenEvent::Event(EventRef::Close(name))))
            }
            token::SUMMARY => {
                let Some(open_depth) = self.last_open_depth else {
                    return Err(CoreError::BadDocument {
                        message: "summary token not immediately after an open token".into(),
                    });
                };
                let mut pos = start + 1;
                let Some((content_len, used)) = self.varint(keystream, pos) else {
                    return Ok(ReadResult::NeedData);
                };
                pos += used;
                let Some((bitmap_len, used)) = self.varint(keystream, pos) else {
                    return Ok(ReadResult::NeedData);
                };
                pos += used;
                let Some(bitmap) = self.span(keystream, pos, bitmap_len, 0) else {
                    return Ok(ReadResult::NeedData);
                };
                self.cursor += (bitmap.end - start) as u64;
                let reference = self
                    .ref_stack
                    .last()
                    .map_or(&self.full_reference, |(_, r)| r);
                reference.decode_into(&self.window[bitmap], &mut self.summary_tags);
                // Nested summaries are encoded against this subtree's tag set
                // (recursive compression) or the full dictionary.
                if self.recursive_bitmaps {
                    let mut reference = self.spare_refs.pop().unwrap_or_default();
                    reference.tags.clear();
                    reference.tags.extend(self.summary_tags.iter());
                    self.ref_stack.push((open_depth, reference));
                }
                self.last_open_depth = None;
                Ok(ReadResult::Token(TokenEvent::Summary { content_len }))
            }
            other => Err(CoreError::BadDocument {
                message: format!(
                    "unknown token marker 0x{other:02X} at offset {}",
                    self.cursor
                ),
            }),
        }
    }
}

/// The dictionary entry of an untrusted tag id.
fn tag_name(dict: &TagDict, id: u64) -> Result<(TagId, &Arc<str>), CoreError> {
    u16::try_from(id)
        .ok()
        .and_then(|id| Some((TagId(id), dict.name(TagId(id))?)))
        .ok_or_else(|| CoreError::BadDocument {
            message: format!("unknown tag id {id}"),
        })
}

/// `bytes` as text. A text or attribute value that is not UTF-8 is a bad
/// document: events carry plain `&str`, never a lossy copy.
fn utf8<'a>(bytes: &'a [u8], what: &str) -> Result<&'a str, CoreError> {
    std::str::from_utf8(bytes).map_err(|_| CoreError::BadDocument {
        message: format!("{what} is not UTF-8"),
    })
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
            ReadResult::Token(TokenEvent::Event(e)) => events.push(e.to_event()),
            ReadResult::Token(TokenEvent::Summary { .. }) => {}
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

/// What the reader did with a range of the stream.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Trace {
    Revealed,
    Skipped,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skipindex::compress::write_varint;
    use crate::skipindex::encode::{DocumentEncoder, EncoderConfig};
    use sdds_xml::generator::{self, GeneratorConfig, HospitalProfile};
    use sdds_xml::{Attribute, Document};

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
        let no_index = EncoderConfig {
            min_index_bytes: usize::MAX,
            ..EncoderConfig::default()
        };
        for config in [EncoderConfig::default(), no_index] {
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
                    ReadResult::Token(TokenEvent::Event(e)) => events.push(e.to_event()),
                    ReadResult::Token(TokenEvent::Summary { content_len }) => {
                        if matches!(events.last(), Some(Event::Open { name, .. }) if &**name == "patient")
                        {
                            reader.skip(content_len).unwrap();
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
                    if let EventRef::Open { name, .. } = e {
                        seen.push(name.to_string());
                    }
                }
                ReadResult::Token(TokenEvent::Summary { content_len }) => {
                    // Summaries for patient elements: skip them all.
                    if *seen.last().unwrap() == "patient" {
                        skipped_bytes += content_len;
                        reader.skip(content_len).unwrap();
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
                ReadResult::Token(TokenEvent::Summary { .. }) => {
                    summaries.push(reader.summary_tags().clone())
                }
                ReadResult::Token(_) => {}
                ReadResult::NeedData => panic!("fully supplied"),
                ReadResult::End => break,
            }
        }
        assert!(!summaries.is_empty());
        let outer = &summaries[0];
        assert!(outer.contains(x_id));
        assert!(outer.contains(y_id));
        assert!(!outer.contains(r_id));
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
            let Ok(ReadResult::Token(TokenEvent::Summary { content_len })) = reader.next_token()
            else {
                panic!("a summary follows the open");
            };
            let err = reader.skip(content_len).unwrap_err();
            assert!(matches!(err, CoreError::BadDocument { .. }), "{err:?}");
        }
    }

    #[test]
    fn text_and_attribute_values_that_are_not_utf8_are_bad_documents() {
        // 0xFF never occurs in UTF-8: a TEXT token or an attribute value
        // holding it fails, where a lossy decode would have replaced it.
        let dict = TagDict::from_names(["a", "k"]);
        let stream = |body: &[u8]| {
            let mut plaintext = dict.encode();
            plaintext.extend_from_slice(body);
            plaintext
        };
        let text = stream(&[token::OPEN, 0, 0, token::TEXT, 2, 0xFF, 0xFF, token::CLOSE]);
        let value = stream(&[token::OPEN, 0, 1, 1, 2, b'x', 0xFF, token::CLOSE]);
        for plaintext in [text, value] {
            let err = decode_all(&plaintext, true).unwrap_err();
            assert!(
                matches!(&err, CoreError::BadDocument { message } if message.contains("UTF-8")),
                "{err:?}"
            );
        }
        // The same tokens with valid bytes decode.
        let good = stream(&[
            token::OPEN,
            0,
            1,
            1,
            1,
            b'x',
            token::TEXT,
            1,
            b'y',
            token::CLOSE,
        ]);
        assert_eq!(
            decode_all(&good, true).unwrap(),
            vec![
                Event::open_with("a", vec![Attribute::new("k", "x")]),
                Event::text("y"),
                Event::close("a"),
            ]
        );
    }

    #[test]
    fn decoding_summaries_reuses_the_tag_set_and_references() {
        // After one pass over a document, a second reader's summary tag set
        // and reference stack hold their capacity: nested summaries pop and
        // push references without building new ones.
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
        let (dict, dict_len) = TagDict::decode(&plaintext).unwrap();
        let mut reader = TokenReader::new(dict, dict_len as u64, plaintext.len() as u64, true);
        reader.supply(0, &plaintext).unwrap();
        // One reference per nesting level of summaries, however many
        // summaries the document holds.
        let max_depth = sdds_xml::event::max_depth(&doc.to_events());
        let mut summaries = 0;
        while let ReadResult::Token(token) = reader.next_token().unwrap() {
            if let TokenEvent::Summary { .. } = token {
                summaries += 1;
                assert!(reader.ref_stack.len() + reader.spare_refs.len() <= max_depth);
            }
        }
        assert!(summaries > 10, "{summaries} summaries");
        assert_eq!(reader.depth(), 0);
        assert!(reader.ref_stack.is_empty());
        assert!(!reader.spare_refs.is_empty());
    }
}
