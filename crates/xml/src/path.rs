//! Element-path helpers shared by tests, oracles and the generators.
//!
//! A "simple path" is the sequence of element names from the root down to a
//! node, e.g. `["hospital", "patient", "diagnosis"]`. It is a convenient
//! notation to compare the output of the streaming engine with tree oracles.

use crate::event::Event;

/// A path of element names from the root (inclusive) to a node (inclusive).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct SimplePath(pub Vec<String>);

impl SimplePath {
    /// Creates a path from name segments.
    pub fn new<I, S>(segments: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        SimplePath(segments.into_iter().map(Into::into).collect())
    }

    /// Parses a `/`-separated path, ignoring a leading slash.
    pub fn parse(text: &str) -> Self {
        SimplePath(
            text.split('/')
                .filter(|s| !s.is_empty())
                .map(str::to_owned)
                .collect(),
        )
    }

    /// Number of segments.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True for the empty path.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Last segment, if any.
    pub fn leaf(&self) -> Option<&str> {
        self.0.last().map(String::as_str)
    }

    /// True if `self` is a prefix of `other` (ancestor-or-self relation).
    pub fn is_prefix_of(&self, other: &SimplePath) -> bool {
        other.0.len() >= self.0.len() && other.0[..self.0.len()] == self.0[..]
    }

    /// Renders as `/a/b/c`.
    pub fn to_string_slashed(&self) -> String {
        let mut s = String::new();
        for seg in &self.0 {
            s.push('/');
            s.push_str(seg);
        }
        if s.is_empty() {
            s.push('/');
        }
        s
    }
}

/// Collects the simple paths of every `Open` event in a stream, in document
/// order. Useful to compare authorized views against oracles.
pub fn open_paths(events: &[Event]) -> Vec<SimplePath> {
    let mut out = Vec::new();
    let mut stack: Vec<String> = Vec::new();
    for ev in events {
        match ev {
            Event::Open { name, .. } => {
                stack.push(name.to_string());
                out.push(SimplePath(stack.clone()));
            }
            Event::Close(_) => {
                stack.pop();
            }
            Event::Text(_) => {}
        }
    }
    out
}

/// Collects `(path, text)` pairs for every text event in a stream.
pub fn text_by_path(events: &[Event]) -> Vec<(SimplePath, String)> {
    let mut out = Vec::new();
    let mut stack: Vec<String> = Vec::new();
    for ev in events {
        match ev {
            Event::Open { name, .. } => stack.push(name.to_string()),
            Event::Close(_) => {
                stack.pop();
            }
            Event::Text(t) => out.push((SimplePath(stack.clone()), t.clone())),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::Parser;

    #[test]
    fn parse_and_render() {
        let p = SimplePath::parse("/a/b/c");
        assert_eq!(p.len(), 3);
        assert_eq!(p.leaf(), Some("c"));
        assert_eq!(p.to_string_slashed(), "/a/b/c");
        assert_eq!(SimplePath::parse("a/b"), SimplePath::new(["a", "b"]));
        assert_eq!(SimplePath::parse("").to_string_slashed(), "/");
        assert!(SimplePath::parse("").is_empty());
    }

    #[test]
    fn prefix_relation() {
        let a = SimplePath::parse("/a/b");
        let b = SimplePath::parse("/a/b/c");
        assert!(a.is_prefix_of(&b));
        assert!(!b.is_prefix_of(&a));
        assert!(a.is_prefix_of(&a));
        assert!(SimplePath::default().is_prefix_of(&a));
    }

    #[test]
    fn open_paths_follow_document_order() {
        let events = Parser::parse_all("<a><b><c/></b><d>t</d></a>").unwrap();
        let paths = open_paths(&events);
        assert_eq!(
            paths,
            vec![
                SimplePath::parse("/a"),
                SimplePath::parse("/a/b"),
                SimplePath::parse("/a/b/c"),
                SimplePath::parse("/a/d"),
            ]
        );
        let texts = text_by_path(&events);
        assert_eq!(texts, vec![(SimplePath::parse("/a/d"), "t".to_owned())]);
    }
}
