//! # sdds-core — client-based access control for XML on smart devices
//!
//! This crate implements the contribution of Bouganim et al. (SIGMOD 2005 demo,
//! building on VLDB 2004): evaluating **dynamic, personalised access-control
//! rules inside a Secure Operating Environment** (a smart card) over a
//! **streaming, encrypted** XML document, so that access rights are dissociated
//! from encryption and can change without re-encrypting or redistributing keys.
//!
//! The main pieces are:
//!
//! * [`rule`] — the access-control model: `<sign, subject, object>` rules whose
//!   objects are XP{[],*,//} paths (§2.2), rule sets and their wire format,
//! * [`conflict`] — the two conflict-resolution policies (*Denial Takes
//!   Precedence* and *Most Specific Object Takes Precedence*) and the decision
//!   algebra used by the evaluator,
//! * [`automaton`] — compilation of each rule into a non-deterministic automaton
//!   made of a navigational path and predicate paths (Figure 2 of the paper),
//! * [`dispatch`] — the shared dispatch automaton: all rule automata merged
//!   into one prefix-sharing transition structure over interned name symbols,
//!   so per-event work scales with the rules that can actually advance instead
//!   of the installed rule count,
//! * [`runtime`] — the streaming execution of those automata over `open` /
//!   `value` / `close` events: token stack, predicate set, pending rules,
//! * [`assembler`] — the sign-stack / authorized-view construction: conflict
//!   resolution per node, structural scaffolding, pending-decision buffering,
//! * [`evaluator`] — the plain streaming evaluator facade (events in,
//!   authorized events out) used on unencrypted streams and by the baselines,
//! * [`skipindex`] — the compact streaming index embedded in the encrypted
//!   document (tag-dictionary bit arrays + subtree sizes, recursively
//!   compressed) that lets the SOE *skip* forbidden or irrelevant subtrees,
//! * [`secdoc`] — the secure document format: compact binary tokens, chunked
//!   encryption, per-chunk integrity tags, embedded skip index,
//! * [`engine`] — the SOE engine proper: fetch → integrity-check → decrypt →
//!   parse → evaluate, under the card's RAM budget and cost ledger, exposed as
//!   an APDU [`sdds_card::Applet`],
//! * [`query`] — query handling (the authorized view is intersected with a
//!   user query),
//! * [`baseline`] — the comparison points of the evaluation: DOM
//!   materialisation on the terminal and server-side static encryption,
//! * [`session`] — access-rule refresh / key provisioning protocols between a
//!   trusted server and the SOE.

#![forbid(unsafe_code)]

pub mod assembler;
pub mod automaton;
pub mod baseline;
pub mod conflict;
pub mod dispatch;
pub mod engine;
pub mod error;
pub mod evaluator;
pub mod query;
pub mod rule;
pub mod runtime;
pub mod secdoc;
pub mod session;
pub mod skipindex;

pub use conflict::{AccessPolicy, Decision};
pub use error::CoreError;
pub use evaluator::{EvaluatorConfig, EvaluatorStats, StreamingEvaluator};
pub use query::Query;
pub use rule::{AccessRule, RuleId, RuleSet, Sign, Subject};
pub use secdoc::{SecureDocument, SecureDocumentBuilder};
