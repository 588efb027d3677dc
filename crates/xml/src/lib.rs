//! XML substrate for SDDS (Safe Data sharing and Data dissemination on Smart devices).
//!
//! The access-control engine of the paper consumes XML documents as a stream of
//! `open` / `value` / `close` events produced by an event-based parser (SAX-like),
//! never materialising the document (the Secure Operating Environment only has a
//! tiny working memory). This crate provides:
//!
//! * [`event`] — the event model (`Open`, `Text`, `Close`) and event streams,
//! * [`parser`] — a streaming, pull-based XML parser producing those events,
//! * [`writer`] — serialisation of event streams back to XML text,
//! * [`tree`] — an arena-based in-memory document used by baselines, oracles and
//!   the synthetic generators (the SOE engine itself never builds it),
//! * [`tags`] — the tag dictionary and tag-set bit arrays used by the skip index,
//! * [`generator`] — parameterised synthetic document generators reproducing the
//!   structural profiles of the corpora used in the paper's evaluation,
//! * [`stats`] — structural statistics of documents,
//! * [`symbols`] — interned tag/attribute name symbols shared with the
//!   evaluator's dispatch automaton (one hash lookup per token instead of one
//!   string comparison per rule).

#![forbid(unsafe_code)]

pub mod error;
pub mod event;
pub mod generator;
pub mod parser;
pub mod stats;
pub mod symbols;
pub mod tags;
pub mod tree;
pub mod writer;

pub use error::XmlError;
pub use event::{AttrRef, AttrSpan, Attribute, AttrsRef, Event, EventKind, EventRef};
pub use parser::Parser;
pub use symbols::{Symbol, SymbolTable};
pub use tags::{TagDict, TagId, TagSet};
pub use tree::{Document, NodeData, NodeId};
pub use writer::Writer;
