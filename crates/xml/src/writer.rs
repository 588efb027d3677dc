//! Serialisation of event streams back to XML text.
//!
//! The terminal proxy uses the writer to re-assemble the *authorized view* of a
//! document from the event stream delivered by the smart card (§2.1: "delivers
//! the authorized subpart matching the query").

use crate::event::{Event, EventRef};

/// Appends `text` to `out`, escaped for element content.
pub fn push_escaped_text(out: &mut String, text: &str) {
    push_escaped(out, text, false);
}

/// Appends `value` to `out`, escaped for a double-quoted attribute value.
pub fn push_escaped_attr(out: &mut String, value: &str) {
    push_escaped(out, value, true);
}

/// Copies `text` in runs between the characters that need an entity; every
/// such character is ASCII, so each run ends on a character boundary.
fn push_escaped(out: &mut String, text: &str, quote: bool) {
    let mut run = 0;
    for (i, byte) in text.bytes().enumerate() {
        let entity = match byte {
            b'<' => "&lt;",
            b'>' => "&gt;",
            b'&' => "&amp;",
            b'"' if quote => "&quot;",
            _ => continue,
        };
        out.push_str(&text[run..i]);
        out.push_str(entity);
        run = i + 1;
    }
    out.push_str(&text[run..]);
}

/// Appends the compact XML of one event to `out`: what [`to_string`]
/// produces for it, with no intermediate `String`.
pub fn write_event(out: &mut String, event: EventRef<'_>) {
    match event {
        EventRef::Open { name, attrs } => {
            out.push('<');
            out.push_str(name);
            for a in attrs.iter() {
                out.push(' ');
                out.push_str(a.name);
                out.push_str("=\"");
                push_escaped_attr(out, a.value);
                out.push('"');
            }
            out.push('>');
        }
        EventRef::Text(text) => push_escaped_text(out, text),
        EventRef::Close(name) => {
            out.push_str("</");
            out.push_str(name);
            out.push('>');
        }
    }
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
        let event = event.as_event_ref();
        match event {
            EventRef::Open { .. } => {
                self.newline_and_indent();
                self.depth += 1;
                self.last_was_open = true;
                self.last_was_text = false;
            }
            EventRef::Text(_) => {
                self.last_was_open = false;
                self.last_was_text = true;
            }
            EventRef::Close(_) => {
                self.depth = self.depth.saturating_sub(1);
                if !self.last_was_open && !self.last_was_text {
                    self.newline_and_indent();
                }
                self.last_was_open = false;
                self.last_was_text = false;
            }
        }
        write_event(&mut self.out, event);
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
    fn escaping_appends_in_place() {
        let mut out = String::from("<a>");
        push_escaped_text(&mut out, "x<y & \"z\"");
        assert_eq!(out, "<a>x&lt;y &amp; \"z\"");
        out.clear();
        push_escaped_attr(&mut out, "é\"<>&");
        assert_eq!(out, "é&quot;&lt;&gt;&amp;");
        out.clear();
        push_escaped_text(&mut out, "plain");
        assert_eq!(out, "plain");
    }

    #[test]
    fn write_event_appends_what_to_string_produces() {
        let events = Parser::parse_all("<a k=\"v&amp;\"><b>x &lt; y</b><c/></a>").unwrap();
        let mut out = String::new();
        for event in &events {
            write_event(&mut out, event.as_event_ref());
        }
        assert_eq!(out, to_string(&events));
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
