//! Serialisation of event streams back to XML text.
//!
//! The terminal proxy uses the writer to re-assemble the *authorized view* of a
//! document from the event stream delivered by the smart card (§2.1: "delivers
//! the authorized subpart matching the query").

use crate::event::Event;

/// Escapes character data for element content.
pub fn escape_text(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for ch in text.chars() {
        match ch {
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '&' => out.push_str("&amp;"),
            _ => out.push(ch),
        }
    }
    out
}

/// Escapes character data for attribute values (double-quoted).
pub fn escape_attr(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for ch in text.chars() {
        match ch {
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '&' => out.push_str("&amp;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(ch),
        }
    }
    out
}

/// An XML writer accumulating output in a `String`.
#[derive(Debug, Default)]
pub struct Writer {
    out: String,
    indent: Option<usize>,
    depth: usize,
    /// True when the last thing written was an opening tag with no content yet,
    /// which controls indentation of the matching closing tag.
    last_was_open: bool,
    last_was_text: bool,
}

impl Writer {
    /// Creates a compact writer (no indentation).
    pub fn new() -> Self {
        Writer::default()
    }

    /// Creates a pretty-printing writer indenting by `width` spaces per level.
    pub fn pretty(width: usize) -> Self {
        Writer {
            indent: Some(width),
            ..Writer::default()
        }
    }

    fn newline_and_indent(&mut self) {
        if let Some(width) = self.indent {
            if !self.out.is_empty() {
                self.out.push('\n');
            }
            for _ in 0..self.depth * width {
                self.out.push(' ');
            }
        }
    }

    /// Writes a single event.
    pub fn write(&mut self, event: &Event) {
        match event {
            Event::Open { name, attrs } => {
                self.newline_and_indent();
                self.out.push('<');
                self.out.push_str(name);
                for a in attrs {
                    self.out.push(' ');
                    self.out.push_str(&a.name);
                    self.out.push_str("=\"");
                    self.out.push_str(&escape_attr(&a.value));
                    self.out.push('"');
                }
                self.out.push('>');
                self.depth += 1;
                self.last_was_open = true;
                self.last_was_text = false;
            }
            Event::Text(t) => {
                self.out.push_str(&escape_text(t));
                self.last_was_open = false;
                self.last_was_text = true;
            }
            Event::Close(name) => {
                self.depth = self.depth.saturating_sub(1);
                if !self.last_was_open && !self.last_was_text {
                    self.newline_and_indent();
                }
                self.out.push_str("</");
                self.out.push_str(name);
                self.out.push('>');
                self.last_was_open = false;
                self.last_was_text = false;
            }
        }
    }

    /// Writes a whole event stream.
    pub fn write_all<'a>(&mut self, events: impl IntoIterator<Item = &'a Event>) {
        for ev in events {
            self.write(ev);
        }
    }

    /// Consumes the writer and returns the produced text.
    pub fn finish(self) -> String {
        self.out
    }

    /// Current output length in bytes.
    pub fn len(&self) -> usize {
        self.out.len()
    }

    /// True if nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.out.is_empty()
    }
}

/// Serialises an event stream compactly.
pub fn to_string(events: &[Event]) -> String {
    let mut w = Writer::new();
    w.write_all(events);
    w.finish()
}

/// Serialises an event stream with indentation.
pub fn to_pretty_string(events: &[Event]) -> String {
    let mut w = Writer::pretty(2);
    w.write_all(events);
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Attribute;
    use crate::parser::Parser;

    #[test]
    fn compact_roundtrip() {
        let doc = "<a><b id=\"1\">hi</b><c/></a>";
        let events = Parser::parse_all(doc).unwrap();
        let text = to_string(&events);
        let reparsed = Parser::parse_all(&text).unwrap();
        assert_eq!(events, reparsed);
    }

    #[test]
    fn escaping_roundtrip() {
        let events = vec![
            Event::open_with("a", vec![Attribute::new("t", "x<&\"y")]),
            Event::text("1 < 2 && \"q\""),
            Event::close("a"),
        ];
        let text = to_string(&events);
        let reparsed = Parser::parse_all(&text).unwrap();
        assert_eq!(reparsed[0].attrs()[0].value, "x<&\"y");
        assert_eq!(reparsed[1].as_text(), Some("1 < 2 && \"q\""));
    }

    #[test]
    fn pretty_output_contains_newlines_and_roundtrips() {
        let doc = "<a><b>hi</b><c><d>x</d></c></a>";
        let events = Parser::parse_all(doc).unwrap();
        let pretty = to_pretty_string(&events);
        assert!(pretty.contains('\n'));
        let reparsed = Parser::parse_all(&pretty).unwrap();
        assert_eq!(events, reparsed);
    }

    #[test]
    fn writer_len_tracks_output() {
        let mut w = Writer::new();
        assert!(w.is_empty());
        w.write(&Event::open("a"));
        w.write(&Event::close("a"));
        assert_eq!(w.len(), "<a></a>".len());
        assert_eq!(w.finish(), "<a></a>");
    }
}
