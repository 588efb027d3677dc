//! Structural statistics of documents and event streams.
//!
//! The experiments report results against structural profiles (node count,
//! depth, fan-out, text ratio, tag vocabulary); these statistics are computed
//! here both for sanity checks of the generators and for the bench harness
//! output.

use std::collections::HashMap;

use crate::event::Event;

/// Structural statistics of a document.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DocStats {
    /// Number of element nodes.
    pub elements: usize,
    /// Number of text nodes.
    pub text_nodes: usize,
    /// Number of attributes.
    pub attributes: usize,
    /// Total bytes of text content.
    pub text_bytes: usize,
    /// Total serialised size (compact form), in bytes.
    pub serialized_bytes: usize,
    /// Maximum element nesting depth.
    pub max_depth: usize,
    /// Number of distinct element names.
    pub distinct_tags: usize,
    /// Histogram of element names.
    pub tag_histogram: HashMap<String, usize>,
    /// Maximum number of element children of a single element.
    pub max_fanout: usize,
}

impl DocStats {
    /// Computes statistics from an event stream.
    pub fn from_events(events: &[Event]) -> Self {
        let mut stats = DocStats::default();
        let mut depth = 0usize;
        // Per-depth counters of element children, to compute fan-out.
        let mut child_counts: Vec<usize> = Vec::new();
        for ev in events {
            stats.serialized_bytes += ev.serialized_len();
            match ev {
                Event::Open { name, attrs } => {
                    stats.elements += 1;
                    stats.attributes += attrs.len();
                    *stats.tag_histogram.entry(name.to_string()).or_insert(0) += 1;
                    if let Some(c) = child_counts.last_mut() {
                        *c += 1;
                    }
                    depth += 1;
                    stats.max_depth = stats.max_depth.max(depth);
                    child_counts.push(0);
                }
                Event::Text(t) => {
                    stats.text_nodes += 1;
                    stats.text_bytes += t.len();
                }
                Event::Close(_) => {
                    if let Some(c) = child_counts.pop() {
                        stats.max_fanout = stats.max_fanout.max(c);
                    }
                    depth = depth.saturating_sub(1);
                }
            }
        }
        stats.distinct_tags = stats.tag_histogram.len();
        stats
    }

    /// Total number of nodes (elements + text).
    pub fn total_nodes(&self) -> usize {
        self.elements + self.text_nodes
    }

    /// Fraction of the serialised size taken by text content, in `[0, 1]`.
    pub fn text_ratio(&self) -> f64 {
        if self.serialized_bytes == 0 {
            0.0
        } else {
            self.text_bytes as f64 / self.serialized_bytes as f64
        }
    }

    /// One-line human readable summary, used by the bench harness.
    pub fn summary(&self) -> String {
        format!(
            "{} elements, {} text nodes, depth {}, {} distinct tags, {} bytes",
            self.elements,
            self.text_nodes,
            self.max_depth,
            self.distinct_tags,
            self.serialized_bytes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::Parser;

    #[test]
    fn stats_of_small_document() {
        let events = Parser::parse_all("<a x=\"1\"><b>hi</b><b>yo</b><c/></a>").unwrap();
        let s = DocStats::from_events(&events);
        assert_eq!(s.elements, 4);
        assert_eq!(s.text_nodes, 2);
        assert_eq!(s.attributes, 1);
        assert_eq!(s.text_bytes, 4);
        assert_eq!(s.max_depth, 2);
        assert_eq!(s.distinct_tags, 3);
        assert_eq!(s.tag_histogram["b"], 2);
        assert_eq!(s.max_fanout, 3);
        assert_eq!(s.total_nodes(), 6);
        assert!(s.text_ratio() > 0.0 && s.text_ratio() < 1.0);
        assert!(s.summary().contains("4 elements"));
    }

    #[test]
    fn stats_of_empty_stream() {
        let s = DocStats::from_events(&[]);
        assert_eq!(s.total_nodes(), 0);
        assert_eq!(s.text_ratio(), 0.0);
        assert_eq!(s.max_depth, 0);
    }

    #[test]
    fn serialized_bytes_match_writer_output() {
        let doc = "<a x=\"1\"><b>hi</b><b>yo</b></a>";
        let events = Parser::parse_all(doc).unwrap();
        let s = DocStats::from_events(&events);
        assert_eq!(s.serialized_bytes, crate::writer::to_string(&events).len());
    }
}
