//! Streaming, pull-based XML parser.
//!
//! The parser produces [`Event`]s one at a time from an in-memory byte slice
//! without building any tree, which is the contract expected by the SOE engine
//! (the document arrives chunk by chunk, is decrypted, and must be parsed with
//! a memory footprint proportional to the element nesting depth only).
//!
//! The supported grammar is the XML subset relevant to the paper:
//! elements, attributes, character data, CDATA sections, comments, processing
//! instructions and the XML declaration (the latter three are skipped), plus
//! the five predefined entities and numeric character references.
//! DTDs and namespaces-aware processing are out of scope.

use crate::error::XmlError;
use crate::event::{Attribute, Event};
use std::sync::Arc;

/// A pull parser over a UTF-8 string.
///
/// ```
/// use sdds_xml::{Parser, Event};
/// let mut p = Parser::new("<a><b>hi</b></a>");
/// let events: Vec<_> = p.by_ref().collect::<Result<_, _>>().unwrap();
/// assert_eq!(events[0], Event::open("a"));
/// assert_eq!(events.len(), 5);
/// ```
pub struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
    /// Stack of currently open element names, used for well-formedness checks.
    open: Vec<Arc<str>>,
    /// Set once the root element has been closed.
    root_closed: bool,
    /// Set once the root element has been opened.
    root_seen: bool,
    /// Whether whitespace-only text nodes should be emitted.
    keep_whitespace: bool,
    /// Close event synthesised for a self-closing tag (`<a/>`), emitted on the
    /// call following the corresponding `Open`.
    pending_close: Option<Arc<str>>,
    finished: bool,
}

impl<'a> Parser<'a> {
    /// Creates a parser over `input`. Whitespace-only text nodes are dropped.
    pub fn new(input: &'a str) -> Self {
        Parser {
            input: input.as_bytes(),
            pos: 0,
            open: Vec::new(),
            root_closed: false,
            root_seen: false,
            keep_whitespace: false,
            pending_close: None,
            finished: false,
        }
    }

    /// Creates a parser that also emits whitespace-only text nodes.
    pub fn with_whitespace(input: &'a str) -> Self {
        let mut p = Parser::new(input);
        p.keep_whitespace = true;
        p
    }

    /// Parses the whole input into a vector of events.
    pub fn parse_all(input: &str) -> Result<Vec<Event>, XmlError> {
        Parser::new(input).collect()
    }

    /// Current byte offset into the input.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Current element nesting depth.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn starts_with(&self, s: &str) -> bool {
        self.input[self.pos..].starts_with(s.as_bytes())
    }

    fn skip_until(&mut self, delim: &str) -> Result<(), XmlError> {
        match find_sub(&self.input[self.pos..], delim.as_bytes()) {
            Some(i) => {
                self.pos += i + delim.len();
                Ok(())
            }
            None => Err(XmlError::malformed(
                format!("unterminated construct, expected `{delim}`"),
                self.pos,
            )),
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn read_name(&mut self) -> Result<Arc<str>, XmlError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if is_name_byte(b, self.pos == start) {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(XmlError::malformed("expected a name", self.pos));
        }
        // Input is known valid UTF-8 (comes from a &str) so this cannot fail.
        Ok(Arc::from(
            String::from_utf8_lossy(&self.input[start..self.pos]).as_ref(),
        ))
    }

    fn read_attributes(&mut self) -> Result<(Vec<Attribute>, bool), XmlError> {
        let mut attrs = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'>') => {
                    self.pos += 1;
                    return Ok((attrs, false));
                }
                Some(b'/') => {
                    self.pos += 1;
                    if self.peek() == Some(b'>') {
                        self.pos += 1;
                        return Ok((attrs, true));
                    }
                    return Err(XmlError::malformed("expected `>` after `/`", self.pos));
                }
                Some(_) => {
                    let name = self.read_name()?;
                    self.skip_ws();
                    if self.peek() != Some(b'=') {
                        return Err(XmlError::malformed(
                            format!("expected `=` after attribute `{name}`"),
                            self.pos,
                        ));
                    }
                    self.pos += 1;
                    self.skip_ws();
                    let quote = self.bump().ok_or_else(|| {
                        XmlError::malformed("unexpected end of input in attribute", self.pos)
                    })?;
                    if quote != b'"' && quote != b'\'' {
                        return Err(XmlError::malformed(
                            "attribute value must be quoted",
                            self.pos,
                        ));
                    }
                    let start = self.pos;
                    while let Some(b) = self.peek() {
                        if b == quote {
                            break;
                        }
                        self.pos += 1;
                    }
                    if self.peek() != Some(quote) {
                        return Err(XmlError::malformed("unterminated attribute value", start));
                    }
                    let raw = String::from_utf8_lossy(&self.input[start..self.pos]).into_owned();
                    self.pos += 1;
                    attrs.push(Attribute::new(name, decode_entities(&raw, start)?));
                }
                None => {
                    return Err(XmlError::UnexpectedEof {
                        open_elements: self.open_names(),
                    })
                }
            }
        }
    }

    fn open_names(&self) -> Vec<String> {
        self.open.iter().map(|n| n.to_string()).collect()
    }

    /// Produces the next event, or `None` at end of input.
    fn next_event(&mut self) -> Option<Result<Event, XmlError>> {
        if self.finished {
            return None;
        }
        loop {
            if self.pos >= self.input.len() {
                self.finished = true;
                if !self.open.is_empty() {
                    return Some(Err(XmlError::UnexpectedEof {
                        open_elements: self.open_names(),
                    }));
                }
                if !self.root_seen {
                    return Some(Err(XmlError::EmptyDocument));
                }
                return None;
            }
            if self.peek() == Some(b'<') {
                // Markup.
                if self.starts_with("<!--") {
                    if let Err(e) = self.skip_until("-->") {
                        self.finished = true;
                        return Some(Err(e));
                    }
                    continue;
                }
                if self.starts_with("<![CDATA[") {
                    let start = self.pos + 9;
                    match find_sub(&self.input[start..], b"]]>") {
                        Some(i) => {
                            let text =
                                String::from_utf8_lossy(&self.input[start..start + i]).into_owned();
                            self.pos = start + i + 3;
                            if self.open.is_empty() {
                                self.finished = true;
                                return Some(Err(XmlError::malformed(
                                    "CDATA outside the root element",
                                    start,
                                )));
                            }
                            if !text.is_empty() {
                                return Some(Ok(Event::Text(text)));
                            }
                            continue;
                        }
                        None => {
                            self.finished = true;
                            return Some(Err(XmlError::malformed("unterminated CDATA", start)));
                        }
                    }
                }
                if self.starts_with("<?") {
                    if let Err(e) = self.skip_until("?>") {
                        self.finished = true;
                        return Some(Err(e));
                    }
                    continue;
                }
                if self.starts_with("<!") {
                    // DOCTYPE or other declaration: skip to the matching '>'.
                    if let Err(e) = self.skip_until(">") {
                        self.finished = true;
                        return Some(Err(e));
                    }
                    continue;
                }
                if self.starts_with("</") {
                    let tag_offset = self.pos;
                    self.pos += 2;
                    let name = match self.read_name() {
                        Ok(n) => n,
                        Err(e) => {
                            self.finished = true;
                            return Some(Err(e));
                        }
                    };
                    self.skip_ws();
                    if self.peek() != Some(b'>') {
                        self.finished = true;
                        return Some(Err(XmlError::malformed(
                            "expected `>` in closing tag",
                            self.pos,
                        )));
                    }
                    self.pos += 1;
                    match self.open.pop() {
                        Some(top) if top == name => {
                            if self.open.is_empty() {
                                self.root_closed = true;
                            }
                            return Some(Ok(Event::Close(name)));
                        }
                        other => {
                            self.finished = true;
                            return Some(Err(XmlError::MismatchedClose {
                                found: name.to_string(),
                                expected: other.map(|n| n.to_string()),
                                offset: tag_offset,
                            }));
                        }
                    }
                }
                // Opening tag.
                if self.root_closed {
                    self.finished = true;
                    return Some(Err(XmlError::TrailingContent { offset: self.pos }));
                }
                self.pos += 1;
                let name = match self.read_name() {
                    Ok(n) => n,
                    Err(e) => {
                        self.finished = true;
                        return Some(Err(e));
                    }
                };
                match self.read_attributes() {
                    Ok((attrs, self_closing)) => {
                        self.root_seen = true;
                        if self_closing {
                            // Emit the open now; the matching close is synthesised
                            // on the next call by pushing a marker.
                            self.pending_close = Some(Arc::clone(&name));
                            return Some(Ok(Event::Open { name, attrs }));
                        }
                        self.open.push(Arc::clone(&name));
                        return Some(Ok(Event::Open { name, attrs }));
                    }
                    Err(e) => {
                        self.finished = true;
                        return Some(Err(e));
                    }
                }
            }
            // Character data.
            let start = self.pos;
            while let Some(b) = self.peek() {
                if b == b'<' {
                    break;
                }
                self.pos += 1;
            }
            let raw = String::from_utf8_lossy(&self.input[start..self.pos]).into_owned();
            let is_ws = raw.bytes().all(|b| b.is_ascii_whitespace());
            if is_ws && !self.keep_whitespace {
                continue;
            }
            if self.open.is_empty() {
                if is_ws {
                    continue;
                }
                self.finished = true;
                let err = if self.root_closed || !self.root_seen {
                    if self.root_seen {
                        XmlError::TrailingContent { offset: start }
                    } else {
                        XmlError::malformed("text before the root element", start)
                    }
                } else {
                    XmlError::TrailingContent { offset: start }
                };
                return Some(Err(err));
            }
            match decode_entities(&raw, start) {
                Ok(text) => return Some(Ok(Event::Text(text))),
                Err(e) => {
                    self.finished = true;
                    return Some(Err(e));
                }
            }
        }
    }
}

impl<'a> Parser<'a> {
    /// A self-closing tag `<a/>` produces both an `Open` and a `Close` event;
    /// the `Close` is stashed between two `next` calls and taken here.
    fn take_pending_close(&mut self) -> Option<Event> {
        self.pending_close.take().map(|name| {
            if self.open.is_empty() {
                self.root_closed = true;
            }
            Event::Close(name)
        })
    }
}

impl<'a> Iterator for Parser<'a> {
    type Item = Result<Event, XmlError>;

    fn next(&mut self) -> Option<Self::Item> {
        if let Some(ev) = self.take_pending_close() {
            return Some(Ok(ev));
        }
        self.next_event()
    }
}

fn is_name_byte(b: u8, first: bool) -> bool {
    let alpha = b.is_ascii_alphabetic() || b == b'_' || b >= 0x80;
    if first {
        alpha || b == b':'
    } else {
        alpha || b.is_ascii_digit() || b == b'-' || b == b'.' || b == b':'
    }
}

fn find_sub(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    if needle.is_empty() || haystack.len() < needle.len() {
        return None;
    }
    (0..=haystack.len() - needle.len()).find(|&i| &haystack[i..i + needle.len()] == needle)
}

/// Decodes the five predefined entities and numeric character references.
pub fn decode_entities(raw: &str, offset: usize) -> Result<String, XmlError> {
    if !raw.contains('&') {
        return Ok(raw.to_owned());
    }
    let mut out = String::with_capacity(raw.len());
    let bytes = raw.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        if bytes[i] == b'&' {
            let end = raw[i..]
                .find(';')
                .map(|e| i + e)
                .ok_or_else(|| XmlError::malformed("unterminated entity reference", offset + i))?;
            let ent = &raw[i + 1..end];
            match ent {
                "lt" => out.push('<'),
                "gt" => out.push('>'),
                "amp" => out.push('&'),
                "apos" => out.push('\''),
                "quot" => out.push('"'),
                _ if ent.starts_with("#x") || ent.starts_with("#X") => {
                    let code = u32::from_str_radix(&ent[2..], 16).map_err(|_| {
                        XmlError::malformed("bad hexadecimal character reference", offset + i)
                    })?;
                    out.push(char::from_u32(code).ok_or_else(|| {
                        XmlError::malformed("character reference out of range", offset + i)
                    })?);
                }
                _ if ent.starts_with('#') => {
                    let code = ent[1..].parse::<u32>().map_err(|_| {
                        XmlError::malformed("bad decimal character reference", offset + i)
                    })?;
                    out.push(char::from_u32(code).ok_or_else(|| {
                        XmlError::malformed("character reference out of range", offset + i)
                    })?);
                }
                _ => {
                    return Err(XmlError::malformed(
                        format!("unknown entity `&{ent};`"),
                        offset + i,
                    ))
                }
            }
            i = end + 1;
        } else {
            let ch_len = utf8_len(bytes[i]);
            out.push_str(&raw[i..i + ch_len]);
            i += ch_len;
        }
    }
    Ok(out)
}

fn utf8_len(first: u8) -> usize {
    if first < 0x80 {
        1
    } else if first >> 5 == 0b110 {
        2
    } else if first >> 4 == 0b1110 {
        3
    } else {
        4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::is_well_formed;

    #[test]
    fn parses_simple_document() {
        let events = Parser::parse_all("<a><b>hi</b><c x=\"1\"/></a>").unwrap();
        assert_eq!(
            events,
            vec![
                Event::open("a"),
                Event::open("b"),
                Event::text("hi"),
                Event::close("b"),
                Event::open_with("c", vec![Attribute::new("x", "1")]),
                Event::close("c"),
                Event::close("a"),
            ]
        );
        assert!(is_well_formed(&events));
    }

    #[test]
    fn skips_declaration_comments_and_pis() {
        let doc = "<?xml version=\"1.0\"?><!-- c --><a><?pi data?><!-- x -->t</a>";
        let events = Parser::parse_all(doc).unwrap();
        assert_eq!(
            events,
            vec![Event::open("a"), Event::text("t"), Event::close("a")]
        );
    }

    #[test]
    fn handles_cdata() {
        let events = Parser::parse_all("<a><![CDATA[<raw&stuff>]]></a>").unwrap();
        assert_eq!(events[1], Event::text("<raw&stuff>"));
    }

    #[test]
    fn decodes_entities_in_text_and_attributes() {
        let events = Parser::parse_all("<a t=\"&lt;x&gt;\">&amp;&#65;&#x42;</a>").unwrap();
        assert_eq!(events[0].attrs()[0].value, "<x>");
        assert_eq!(events[1], Event::text("&AB"));
    }

    #[test]
    fn rejects_unknown_entity() {
        let err = Parser::parse_all("<a>&nope;</a>").unwrap_err();
        assert!(matches!(err, XmlError::Malformed { .. }));
    }

    #[test]
    fn rejects_mismatched_close() {
        let err = Parser::parse_all("<a><b></a></b>").unwrap_err();
        assert!(matches!(err, XmlError::MismatchedClose { .. }));
    }

    #[test]
    fn rejects_unclosed_document() {
        let err = Parser::parse_all("<a><b></b>").unwrap_err();
        assert!(matches!(err, XmlError::UnexpectedEof { .. }));
    }

    #[test]
    fn rejects_second_root() {
        let err = Parser::parse_all("<a></a><b></b>").unwrap_err();
        assert!(matches!(err, XmlError::TrailingContent { .. }));
    }

    #[test]
    fn rejects_empty_document() {
        let err = Parser::parse_all("   ").unwrap_err();
        assert!(matches!(err, XmlError::EmptyDocument));
        let err = Parser::parse_all("").unwrap_err();
        assert!(matches!(err, XmlError::EmptyDocument));
    }

    #[test]
    fn whitespace_only_text_is_dropped_by_default() {
        let events = Parser::parse_all("<a>\n  <b>x</b>\n</a>").unwrap();
        assert_eq!(events.len(), 5);
        let events: Vec<_> = Parser::with_whitespace("<a>\n  <b>x</b>\n</a>")
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(events.len(), 7);
    }

    #[test]
    fn self_closing_tags_produce_open_and_close() {
        let events = Parser::parse_all("<a/>").unwrap();
        assert_eq!(events, vec![Event::open("a"), Event::close("a")]);
    }

    #[test]
    fn attribute_quoting_variants() {
        let events = Parser::parse_all("<a x='1' y=\"2\"></a>").unwrap();
        assert_eq!(events[0].attrs().len(), 2);
        assert!(Parser::parse_all("<a x=1></a>").is_err());
        assert!(Parser::parse_all("<a x></a>").is_err());
    }

    #[test]
    fn offsets_and_depth_are_tracked() {
        let mut p = Parser::new("<a><b></b></a>");
        assert_eq!(p.depth(), 0);
        p.next().unwrap().unwrap();
        assert_eq!(p.depth(), 1);
        p.next().unwrap().unwrap();
        assert_eq!(p.depth(), 2);
        assert!(p.offset() > 0);
    }

    #[test]
    fn doctype_is_skipped() {
        let events = Parser::parse_all("<!DOCTYPE note><a>x</a>").unwrap();
        assert_eq!(events.len(), 3);
    }

    #[test]
    fn unterminated_comment_is_an_error() {
        assert!(Parser::parse_all("<a><!-- oops </a>").is_err());
    }

    #[test]
    fn unterminated_cdata_is_an_error() {
        assert!(Parser::parse_all("<a><![CDATA[ oops </a>").is_err());
    }
}
