//! The streaming event model.
//!
//! The paper's evaluator is "fed by an event-based parser (e.g., SAX) raising
//! `open`, `value` and `close` events respectively for each opening, text and
//! closing tag in the input document" (§2.3). [`Event`] mirrors exactly that
//! model; attributes are carried on the `Open` event and follow the decision
//! taken for their element.
//!
//! [`Event`] owns its text and attribute values. [`EventRef`] is the same
//! event borrowed: names shared from a dictionary, text and attribute values
//! borrowed from the buffer they were decoded in. A streaming decoder hands
//! out `EventRef`s and copies one into an `Event` only when it must outlive
//! that buffer.

use std::fmt;
use std::ops::Range;
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

/// An attribute of an [`EventRef`]: both halves borrowed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttrRef<'a> {
    /// Attribute name, shared like an element name.
    pub name: &'a Arc<str>,
    /// Attribute value (already entity-decoded).
    pub value: &'a str,
}

/// Where a decoder put one attribute: its name, and the byte range of its
/// value in the decoder's string of values (see [`AttrsRef::spans`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttrSpan {
    /// Attribute name, shared from the decoder's dictionary.
    pub name: Arc<str>,
    /// Byte range of the value in the string the span was recorded against.
    pub value: Range<usize>,
}

/// The attributes of a borrowed `Open` event: the slice of an owned event,
/// or spans recorded by a decoder over one string of their values.
#[derive(Debug, Clone, Copy)]
pub struct AttrsRef<'a>(AttrsRepr<'a>);

#[derive(Debug, Clone, Copy)]
enum AttrsRepr<'a> {
    Owned(&'a [Attribute]),
    Spans {
        spans: &'a [AttrSpan],
        values: &'a str,
    },
}

impl<'a> AttrsRef<'a> {
    /// No attribute.
    pub const EMPTY: AttrsRef<'static> = AttrsRef(AttrsRepr::Owned(&[]));

    /// The attributes of an owned event.
    pub fn owned(attrs: &'a [Attribute]) -> Self {
        AttrsRef(AttrsRepr::Owned(attrs))
    }

    /// Attributes whose values are `values[span.value]`: the decoder checks
    /// each value as UTF-8 once, when it copies it into `values`, so an
    /// access only slices. A range that is out of bounds or not on a
    /// character boundary reads as the empty string.
    pub fn spans(spans: &'a [AttrSpan], values: &'a str) -> Self {
        AttrsRef(AttrsRepr::Spans { spans, values })
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        match self.0 {
            AttrsRepr::Owned(attrs) => attrs.len(),
            AttrsRepr::Spans { spans, .. } => spans.len(),
        }
    }

    /// True if there is no attribute.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th attribute, in document order.
    pub fn get(&self, i: usize) -> Option<AttrRef<'a>> {
        match self.0 {
            AttrsRepr::Owned(attrs) => attrs.get(i).map(|a| AttrRef {
                name: &a.name,
                value: &a.value,
            }),
            AttrsRepr::Spans { spans, values } => spans.get(i).map(|span| AttrRef {
                name: &span.name,
                value: values.get(span.value.clone()).unwrap_or_default(),
            }),
        }
    }

    /// The attributes in document order.
    pub fn iter(&self) -> impl Iterator<Item = AttrRef<'a>> + 'a {
        let attrs = *self;
        (0..attrs.len()).filter_map(move |i| attrs.get(i))
    }

    /// The value of the first attribute called `name`.
    pub fn find(&self, name: &str) -> Option<&'a str> {
        self.iter().find(|a| &**a.name == name).map(|a| a.value)
    }

    /// Copies the attributes into owned [`Attribute`]s.
    pub fn to_vec(&self) -> Vec<Attribute> {
        match self.0 {
            AttrsRepr::Owned(attrs) => attrs.to_vec(),
            AttrsRepr::Spans { .. } => self
                .iter()
                .map(|a| Attribute {
                    name: Arc::clone(a.name),
                    value: a.value.to_owned(),
                })
                .collect(),
        }
    }
}

/// A parsing event borrowed from the buffer it was decoded in (see the
/// module documentation). Cheap to copy; [`EventRef::to_event`] makes an
/// owned [`Event`] of it.
#[derive(Debug, Clone, Copy)]
pub enum EventRef<'a> {
    /// An opening tag.
    Open {
        /// Element name, shared from the decoder's dictionary.
        name: &'a Arc<str>,
        /// Attributes, in document order.
        attrs: AttrsRef<'a>,
    },
    /// Text content.
    Text(&'a str),
    /// A closing tag.
    Close(&'a Arc<str>),
}

impl EventRef<'_> {
    /// [`Event::serialized_len`] of the owned event, computed on the borrow.
    pub fn serialized_len(&self) -> usize {
        match self {
            EventRef::Open { name, attrs } => {
                2 + name.len()
                    + attrs
                        .iter()
                        .map(|a| 4 + a.name.len() + a.value.len())
                        .sum::<usize>()
            }
            EventRef::Text(t) => t.len(),
            EventRef::Close(name) => 3 + name.len(),
        }
    }

    /// Copies the event into an owned [`Event`]: names are shared, text
    /// and attribute values are copied.
    pub fn to_event(&self) -> Event {
        match *self {
            EventRef::Open { name, attrs } => Event::Open {
                name: Arc::clone(name),
                attrs: attrs.to_vec(),
            },
            EventRef::Text(text) => Event::Text(text.to_owned()),
            EventRef::Close(name) => Event::Close(Arc::clone(name)),
        }
    }
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

    /// The event borrowed as an [`EventRef`].
    pub fn as_event_ref(&self) -> EventRef<'_> {
        match self {
            Event::Open { name, attrs } => EventRef::Open {
                name,
                attrs: AttrsRef::owned(attrs),
            },
            Event::Text(text) => EventRef::Text(text),
            Event::Close(name) => EventRef::Close(name),
        }
    }

    /// Approximate serialised size of the event in bytes: `<` + name +
    /// attributes (` name="value"`) + `>` for an open tag, before escaping.
    /// Used by the cost model and the skip-index size accounting; it matches
    /// what [`crate::writer::Writer`] produces for compact (non-indented)
    /// output of unescaped text.
    pub fn serialized_len(&self) -> usize {
        self.as_event_ref().serialized_len()
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
    fn borrowed_events_round_trip_and_share_names() {
        for ev in sample() {
            let borrowed = ev.as_event_ref();
            assert_eq!(borrowed.serialized_len(), ev.to_string().len());
            assert_eq!(borrowed.to_event(), ev);
        }
        let open = Event::open_with("b", vec![Attribute::new("id", "1")]);
        let EventRef::Open { name, attrs } = open.as_event_ref() else {
            panic!("an open event borrows as an open event");
        };
        let Event::Open {
            name: owned_name, ..
        } = &open
        else {
            panic!("built as an open event");
        };
        assert!(Arc::ptr_eq(name, owned_name), "the borrow shares the name");
        assert_eq!(attrs.find("id"), Some("1"));
        assert_eq!(attrs.find("zz"), None);
        assert_eq!(AttrsRef::EMPTY.len(), 0);
    }

    #[test]
    fn attribute_spans_read_values_from_their_buffer() {
        let values = "xx12yyzé";
        let spans = vec![
            AttrSpan {
                name: Arc::from("a"),
                value: 2..4,
            },
            AttrSpan {
                name: Arc::from("b"),
                value: 4..7,
            },
            // Half of `é`: reads as empty rather than lossily.
            AttrSpan {
                name: Arc::from("c"),
                value: 7..8,
            },
        ];
        let attrs = AttrsRef::spans(&spans, values);
        assert_eq!(attrs.len(), 3);
        assert_eq!(attrs.find("a"), Some("12"));
        assert_eq!(attrs.find("b"), Some("yyz"));
        assert_eq!(attrs.find("c"), Some(""));
        assert_eq!(
            attrs.to_vec(),
            vec![
                Attribute::new("a", "12"),
                Attribute::new("b", "yyz"),
                Attribute::new("c", "")
            ]
        );
    }

    #[test]
    fn display_roundtrip_shape() {
        let evs = sample();
        let text: String = evs.iter().map(|e| e.to_string()).collect();
        assert_eq!(text, "<a><b id=\"1\">hello</b></a>");
    }
}
