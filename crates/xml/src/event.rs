//! The streaming event model.
//!
//! The paper's evaluator is "fed by an event-based parser (e.g., SAX) raising
//! `open`, `value` and `close` events respectively for each opening, text and
//! closing tag in the input document" (§2.3). [`Event`] mirrors exactly that
//! model; attributes are carried on the `Open` event and follow the decision
//! taken for their element.

use std::fmt;
use std::sync::Arc;

/// An attribute attached to an opening tag.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Attribute {
    /// Attribute name, shared like an element name (see [`Event::Open`]).
    pub name: Arc<str>,
    /// Attribute value (already entity-decoded).
    pub value: String,
}

impl Attribute {
    /// Creates a new attribute.
    pub fn new(name: impl Into<Arc<str>>, value: impl Into<String>) -> Self {
        Attribute {
            name: name.into(),
            value: value.into(),
        }
    }
}

/// A single parsing event.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Event {
    /// An opening tag `<name a="v">`.
    Open {
        /// Element name. Cloning an event bumps a refcount instead of copying
        /// the name, and the SOE's token reader hands out one shared name per
        /// tag of the document's dictionary.
        name: Arc<str>,
        /// Attributes, in document order.
        attrs: Vec<Attribute>,
    },
    /// Text content between tags (the paper's `value` event). Whitespace-only
    /// text nodes are not emitted by the parser.
    Text(String),
    /// A closing tag `</name>`.
    Close(Arc<str>),
}

/// Discriminant of an [`Event`], convenient for statistics and assertions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// Opening tag.
    Open,
    /// Text content.
    Text,
    /// Closing tag.
    Close,
}

impl Event {
    /// Creates an `Open` event without attributes.
    pub fn open(name: impl Into<Arc<str>>) -> Self {
        Event::Open {
            name: name.into(),
            attrs: Vec::new(),
        }
    }

    /// Creates an `Open` event with attributes.
    pub fn open_with(name: impl Into<Arc<str>>, attrs: Vec<Attribute>) -> Self {
        Event::Open {
            name: name.into(),
            attrs,
        }
    }

    /// Creates a `Text` event.
    pub fn text(value: impl Into<String>) -> Self {
        Event::Text(value.into())
    }

    /// Creates a `Close` event.
    pub fn close(name: impl Into<Arc<str>>) -> Self {
        Event::Close(name.into())
    }

    /// Returns the kind of this event.
    pub fn kind(&self) -> EventKind {
        match self {
            Event::Open { .. } => EventKind::Open,
            Event::Text(_) => EventKind::Text,
            Event::Close(_) => EventKind::Close,
        }
    }

    /// Returns the element name for `Open`/`Close` events, `None` for text.
    pub fn name(&self) -> Option<&str> {
        match self {
            Event::Open { name, .. } | Event::Close(name) => Some(name),
            Event::Text(_) => None,
        }
    }

    /// Returns the text content for `Text` events.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Event::Text(t) => Some(t),
            _ => None,
        }
    }

    /// Returns the attributes of an `Open` event (empty slice otherwise).
    pub fn attrs(&self) -> &[Attribute] {
        match self {
            Event::Open { attrs, .. } => attrs,
            _ => &[],
        }
    }

    /// Approximate serialised size of the event in bytes. Used by the cost
    /// model and the skip-index size accounting; it matches what [`crate::writer::Writer`]
    /// produces for compact (non-indented) output.
    pub fn serialized_len(&self) -> usize {
        match self {
            Event::Open { name, attrs } => {
                // `<` + name + attributes (` name="value"`) + `>`
                2 + name.len()
                    + attrs
                        .iter()
                        .map(|a| 4 + a.name.len() + a.value.len())
                        .sum::<usize>()
            }
            Event::Text(t) => t.len(),
            Event::Close(name) => 3 + name.len(),
        }
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::Open { name, attrs } => {
                write!(f, "<{name}")?;
                for a in attrs {
                    write!(f, " {}=\"{}\"", a.name, a.value)?;
                }
                write!(f, ">")
            }
            Event::Text(t) => write!(f, "{t}"),
            Event::Close(name) => write!(f, "</{name}>"),
        }
    }
}

/// Checks that a sequence of events is *well formed*: every `Close` matches the
/// innermost `Open`, the stream ends with an empty stack, text never appears
/// outside the root, and there is exactly one root element.
pub fn is_well_formed(events: &[Event]) -> bool {
    let mut stack: Vec<&str> = Vec::new();
    let mut roots = 0usize;
    for ev in events {
        match ev {
            Event::Open { name, .. } => {
                if stack.is_empty() {
                    roots += 1;
                    if roots > 1 {
                        return false;
                    }
                }
                stack.push(name);
            }
            Event::Close(name) => match stack.pop() {
                Some(top) if top == &**name => {}
                _ => return false,
            },
            Event::Text(_) => {
                if stack.is_empty() {
                    return false;
                }
            }
        }
    }
    stack.is_empty() && roots == 1
}

/// Depth profile of an event stream: maximum element nesting depth.
pub fn max_depth(events: &[Event]) -> usize {
    let mut depth = 0usize;
    let mut max = 0usize;
    for ev in events {
        match ev {
            Event::Open { .. } => {
                depth += 1;
                max = max.max(depth);
            }
            Event::Close(_) => depth = depth.saturating_sub(1),
            Event::Text(_) => {}
        }
    }
    max
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Event> {
        vec![
            Event::open("a"),
            Event::open_with("b", vec![Attribute::new("id", "1")]),
            Event::text("hello"),
            Event::close("b"),
            Event::close("a"),
        ]
    }

    #[test]
    fn kinds_and_accessors() {
        let evs = sample();
        assert_eq!(evs[0].kind(), EventKind::Open);
        assert_eq!(evs[2].kind(), EventKind::Text);
        assert_eq!(evs[4].kind(), EventKind::Close);
        assert_eq!(evs[0].name(), Some("a"));
        assert_eq!(evs[2].name(), None);
        assert_eq!(evs[2].as_text(), Some("hello"));
        assert_eq!(evs[1].attrs().len(), 1);
        assert_eq!(evs[0].attrs().len(), 0);
    }

    #[test]
    fn well_formedness_accepts_valid_stream() {
        assert!(is_well_formed(&sample()));
    }

    #[test]
    fn well_formedness_rejects_mismatch() {
        let evs = vec![Event::open("a"), Event::close("b")];
        assert!(!is_well_formed(&evs));
    }

    #[test]
    fn well_formedness_rejects_two_roots() {
        let evs = vec![
            Event::open("a"),
            Event::close("a"),
            Event::open("b"),
            Event::close("b"),
        ];
        assert!(!is_well_formed(&evs));
    }

    #[test]
    fn well_formedness_rejects_dangling_open() {
        let evs = vec![Event::open("a"), Event::open("b"), Event::close("b")];
        assert!(!is_well_formed(&evs));
    }

    #[test]
    fn well_formedness_rejects_toplevel_text() {
        let evs = vec![Event::text("x"), Event::open("a"), Event::close("a")];
        assert!(!is_well_formed(&evs));
    }

    #[test]
    fn max_depth_counts_nesting() {
        assert_eq!(max_depth(&sample()), 2);
        assert_eq!(max_depth(&[]), 0);
    }

    #[test]
    fn serialized_len_matches_display() {
        for ev in sample() {
            assert_eq!(ev.serialized_len(), ev.to_string().len(), "{ev:?}");
        }
    }

    #[test]
    fn display_roundtrip_shape() {
        let evs = sample();
        let text: String = evs.iter().map(|e| e.to_string()).collect();
        assert_eq!(text, "<a><b id=\"1\">hello</b></a>");
    }
}
