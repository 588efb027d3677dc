//! Arena-based in-memory document.
//!
//! The SOE engine never materialises documents — that is the whole point of the
//! streaming evaluator — but the rest of the system does need a tree:
//! the synthetic generators build trees before serialising them, the DOM
//! *baseline* of experiment E9 materialises the document on the (insecure)
//! terminal, and the test oracles evaluate XPath and access rules on the tree
//! to validate the streaming engine.

use std::sync::Arc;

use crate::error::XmlError;
use crate::event::{Attribute, Event};
use crate::parser::Parser;

/// Index of a node inside a [`Document`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Returns the raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Payload of a node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeData {
    /// An element with a name and attributes.
    Element {
        /// Element name.
        name: String,
        /// Attributes in document order.
        attrs: Vec<Attribute>,
    },
    /// A text node.
    Text(String),
}

#[derive(Debug, Clone)]
struct Node {
    data: NodeData,
    parent: Option<NodeId>,
    children: Vec<NodeId>,
}

/// An XML document stored in an arena.
#[derive(Debug, Clone, Default)]
pub struct Document {
    nodes: Vec<Node>,
    root: Option<NodeId>,
}

impl Document {
    /// Creates an empty document.
    pub fn new() -> Self {
        Document::default()
    }

    /// Parses `input` into a document.
    pub fn parse(input: &str) -> Result<Self, XmlError> {
        let events = Parser::parse_all(input)?;
        Document::from_events(&events)
    }

    /// Builds a document from a well-formed event stream.
    pub fn from_events(events: &[Event]) -> Result<Self, XmlError> {
        let mut doc = Document::new();
        let mut stack: Vec<NodeId> = Vec::new();
        for (i, ev) in events.iter().enumerate() {
            match ev {
                Event::Open { name, attrs } => {
                    let parent = stack.last().copied();
                    let id = doc.push_node(
                        NodeData::Element {
                            name: name.to_string(),
                            attrs: attrs.clone(),
                        },
                        parent,
                    );
                    if parent.is_none() {
                        if doc.root.is_some() {
                            return Err(XmlError::TrailingContent { offset: i });
                        }
                        doc.root = Some(id);
                    }
                    stack.push(id);
                }
                Event::Text(t) => {
                    let parent = stack.last().copied().ok_or(XmlError::Malformed {
                        message: "text event outside the root element".into(),
                        offset: i,
                    })?;
                    doc.push_node(NodeData::Text(t.clone()), Some(parent));
                }
                Event::Close(name) => {
                    let top = stack.pop().ok_or_else(|| XmlError::MismatchedClose {
                        found: name.to_string(),
                        expected: None,
                        offset: i,
                    })?;
                    let top_name = doc.element_name(top).unwrap_or_default().to_owned();
                    if top_name != **name {
                        return Err(XmlError::MismatchedClose {
                            found: name.to_string(),
                            expected: Some(top_name),
                            offset: i,
                        });
                    }
                }
            }
        }
        if !stack.is_empty() {
            return Err(XmlError::UnexpectedEof {
                open_elements: stack
                    .iter()
                    .filter_map(|&id| doc.element_name(id).map(str::to_owned))
                    .collect(),
            });
        }
        if doc.root.is_none() {
            return Err(XmlError::EmptyDocument);
        }
        Ok(doc)
    }

    fn push_node(&mut self, data: NodeData, parent: Option<NodeId>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            data,
            parent,
            children: Vec::new(),
        });
        if let Some(p) = parent {
            self.nodes[p.index()].children.push(id);
        }
        id
    }

    /// Creates a root element; returns its id. Panics if a root already exists.
    pub fn create_root(&mut self, name: impl Into<String>) -> NodeId {
        assert!(self.root.is_none(), "document already has a root");
        let id = self.push_node(
            NodeData::Element {
                name: name.into(),
                attrs: Vec::new(),
            },
            None,
        );
        self.root = Some(id);
        id
    }

    /// Appends a child element to `parent`.
    pub fn add_element(&mut self, parent: NodeId, name: impl Into<String>) -> NodeId {
        self.push_node(
            NodeData::Element {
                name: name.into(),
                attrs: Vec::new(),
            },
            Some(parent),
        )
    }

    /// Appends a child element with attributes to `parent`.
    pub fn add_element_with(
        &mut self,
        parent: NodeId,
        name: impl Into<String>,
        attrs: Vec<Attribute>,
    ) -> NodeId {
        self.push_node(
            NodeData::Element {
                name: name.into(),
                attrs,
            },
            Some(parent),
        )
    }

    /// Appends a text child to `parent`.
    pub fn add_text(&mut self, parent: NodeId, text: impl Into<String>) -> NodeId {
        self.push_node(NodeData::Text(text.into()), Some(parent))
    }

    /// Root element id, if the document is non-empty.
    pub fn root(&self) -> Option<NodeId> {
        self.root
    }

    /// Number of nodes (elements + text nodes).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the document has no node.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of attributes over all elements.
    pub fn attribute_count(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| match &n.data {
                NodeData::Element { attrs, .. } => attrs.len(),
                NodeData::Text(_) => 0,
            })
            .sum()
    }

    /// Payload of `id`.
    pub fn data(&self, id: NodeId) -> &NodeData {
        &self.nodes[id.index()].data
    }

    /// Parent of `id`.
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.nodes[id.index()].parent
    }

    /// Children of `id`, in document order.
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        &self.nodes[id.index()].children
    }

    /// Element children of `id` (text nodes filtered out).
    pub fn element_children(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.children(id)
            .iter()
            .copied()
            .filter(move |&c| matches!(self.data(c), NodeData::Element { .. }))
    }

    /// Name of the element `id`, or `None` for a text node.
    pub fn element_name(&self, id: NodeId) -> Option<&str> {
        match self.data(id) {
            NodeData::Element { name, .. } => Some(name),
            NodeData::Text(_) => None,
        }
    }

    /// Attributes of the element `id` (empty for text nodes).
    pub fn attributes(&self, id: NodeId) -> &[Attribute] {
        match self.data(id) {
            NodeData::Element { attrs, .. } => attrs,
            NodeData::Text(_) => &[],
        }
    }

    /// Concatenated text content directly under `id` (not recursive).
    pub fn direct_text(&self, id: NodeId) -> String {
        let mut out = String::new();
        for &c in self.children(id) {
            if let NodeData::Text(t) = self.data(c) {
                out.push_str(t);
            }
        }
        out
    }

    /// Concatenated text content of the whole subtree rooted at `id`.
    pub fn deep_text(&self, id: NodeId) -> String {
        let mut out = String::new();
        for n in self.descendants(id) {
            if let NodeData::Text(t) = self.data(n) {
                out.push_str(t);
            }
        }
        out
    }

    /// Depth of `id` (root is at depth 1).
    pub fn depth(&self, id: NodeId) -> usize {
        let mut d = 1;
        let mut cur = id;
        while let Some(p) = self.parent(cur) {
            d += 1;
            cur = p;
        }
        d
    }

    /// Ids of all ancestors of `id`, closest first (excluding `id` itself).
    pub fn ancestors(&self, id: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut cur = id;
        while let Some(p) = self.parent(cur) {
            out.push(p);
            cur = p;
        }
        out
    }

    /// Pre-order traversal of the subtree rooted at `id` (including `id`).
    pub fn descendants(&self, id: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack = vec![id];
        while let Some(n) = stack.pop() {
            out.push(n);
            for &c in self.children(n).iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// Pre-order traversal of the whole document.
    pub fn all_nodes(&self) -> Vec<NodeId> {
        match self.root {
            Some(r) => self.descendants(r),
            None => Vec::new(),
        }
    }

    /// All element nodes, in document order.
    pub fn all_elements(&self) -> Vec<NodeId> {
        self.all_nodes()
            .into_iter()
            .filter(|&n| matches!(self.data(n), NodeData::Element { .. }))
            .collect()
    }

    /// Number of element nodes in the subtree rooted at `id`.
    pub fn subtree_element_count(&self, id: NodeId) -> usize {
        self.descendants(id)
            .into_iter()
            .filter(|&n| matches!(self.data(n), NodeData::Element { .. }))
            .count()
    }

    /// Path of element names from the root down to `id` (inclusive).
    pub fn path_names(&self, id: NodeId) -> Vec<String> {
        let mut names: Vec<String> = self
            .ancestors(id)
            .into_iter()
            .filter_map(|a| self.element_name(a).map(str::to_owned))
            .collect();
        names.reverse();
        if let Some(n) = self.element_name(id) {
            names.push(n.to_owned());
        }
        names
    }

    /// Serialises the subtree rooted at `id` as an event stream.
    pub fn subtree_events(&self, id: NodeId) -> Vec<Event> {
        let mut out = Vec::new();
        self.emit(id, &mut out);
        out
    }

    /// Serialises the whole document as an event stream.
    pub fn to_events(&self) -> Vec<Event> {
        match self.root {
            Some(r) => self.subtree_events(r),
            None => Vec::new(),
        }
    }

    fn emit(&self, id: NodeId, out: &mut Vec<Event>) {
        match self.data(id) {
            NodeData::Element { name, attrs } => {
                let name: Arc<str> = Arc::from(name.as_str());
                out.push(Event::Open {
                    name: Arc::clone(&name),
                    attrs: attrs.clone(),
                });
                for &c in self.children(id) {
                    self.emit(c, out);
                }
                out.push(Event::Close(name));
            }
            NodeData::Text(t) => out.push(Event::Text(t.clone())),
        }
    }

    /// Serialises the document to compact XML text.
    pub fn to_xml(&self) -> String {
        crate::writer::to_string(&self.to_events())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc() -> Document {
        Document::parse("<a><b id=\"1\">x</b><c><d>y</d><d>z</d></c></a>").unwrap()
    }

    #[test]
    fn parse_and_navigate() {
        let d = doc();
        let root = d.root().unwrap();
        assert_eq!(d.element_name(root), Some("a"));
        let kids: Vec<_> = d.element_children(root).collect();
        assert_eq!(kids.len(), 2);
        assert_eq!(d.element_name(kids[0]), Some("b"));
        assert_eq!(d.direct_text(kids[0]), "x");
        assert_eq!(d.attributes(kids[0])[0].value, "1");
        assert_eq!(d.deep_text(kids[1]), "yz");
        assert_eq!(d.depth(kids[1]), 2);
        assert_eq!(d.parent(kids[0]), Some(root));
        assert_eq!(d.parent(root), None);
    }

    #[test]
    fn events_roundtrip() {
        let d = doc();
        let events = d.to_events();
        let d2 = Document::from_events(&events).unwrap();
        assert_eq!(d2.to_events(), events);
        assert_eq!(d.to_xml(), d2.to_xml());
    }

    #[test]
    fn path_names_and_counts() {
        let d = doc();
        let elems = d.all_elements();
        // a, b, c, d, d
        assert_eq!(elems.len(), 5);
        let last = *elems.last().unwrap();
        assert_eq!(d.path_names(last), vec!["a", "c", "d"]);
        assert_eq!(d.subtree_element_count(d.root().unwrap()), 5);
    }

    #[test]
    fn building_programmatically() {
        let mut d = Document::new();
        let root = d.create_root("library");
        let book = d.add_element(root, "book");
        d.add_text(book, "Rust");
        let b2 = d.add_element_with(root, "book", vec![Attribute::new("lang", "fr")]);
        d.add_text(b2, "XML");
        assert_eq!(
            d.to_xml(),
            "<library><book>Rust</book><book lang=\"fr\">XML</book></library>"
        );
        assert_eq!(d.ancestors(b2), vec![root]);
    }

    #[test]
    #[should_panic(expected = "already has a root")]
    fn double_root_panics() {
        let mut d = Document::new();
        d.create_root("a");
        d.create_root("b");
    }

    #[test]
    fn from_events_rejects_bad_streams() {
        assert!(Document::from_events(&[Event::text("x")]).is_err());
        assert!(Document::from_events(&[Event::open("a")]).is_err());
        assert!(Document::from_events(&[Event::open("a"), Event::close("b")]).is_err());
        assert!(Document::from_events(&[]).is_err());
        assert!(Document::from_events(&[
            Event::open("a"),
            Event::close("a"),
            Event::open("b"),
            Event::close("b")
        ])
        .is_err());
    }

    #[test]
    fn empty_document_reports_len_zero() {
        let d = Document::new();
        assert!(d.is_empty());
        assert_eq!(d.len(), 0);
        assert!(d.root().is_none());
        assert!(d.all_nodes().is_empty());
        assert_eq!(d.to_xml(), "");
    }
}
