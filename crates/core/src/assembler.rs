//! Construction of the authorized view (sign stack + pending-decision buffer).
//!
//! The [`ViewAssembler`] consumes the annotated event stream produced by
//! [`crate::runtime::RuleEngine`] and builds the authorized view delivered to
//! the terminal:
//!
//! * conflict resolution per node (Denial / Most-Specific-Object precedence)
//!   using the sign-stack semantics of §2.3,
//! * intersection with the user query (§2.1: "delivers the authorized subpart
//!   matching the query"),
//! * structural scaffolding: an element that is itself denied but has an
//!   authorized descendant appears as a bare tag (no attributes, no text) so
//!   that the delivered fragment stays well-formed,
//! * **pending decisions**: when a node's decision depends on predicate
//!   instances that are not resolved yet (the paper's *pending rules*), the
//!   node and everything after it are buffered; the buffer is drained — in
//!   document order — as soon as the blocking instances resolve. The peak size
//!   of that buffer is the price of pendency and is charged to the secure-RAM
//!   accounting.

use std::collections::VecDeque;
use std::sync::Arc;

use sdds_xml::{Attribute, Event};

use crate::conflict::{resolve, AccessPolicy, Decision, DirectRule};
use crate::error::CoreError;
use crate::rule::Sign;
use crate::runtime::{EngineOutput, InstanceId, NodeAnnotation};

/// One element currently open in the rendered view.
#[derive(Debug, Clone)]
struct RenderFrame {
    /// Shared with the element's `Open` event and its scaffolding copy.
    name: Arc<str>,
    decision: Decision,
    in_scope: bool,
    delivered: bool,
    emitted: bool,
}

/// A queued annotated event awaiting rendering.
#[derive(Debug, Clone)]
struct QueuedEvent {
    event: Event,
    annotation: Option<NodeAnnotation>,
}

/// Counters exposed by the assembler.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AssemblerStats {
    /// Elements whose effective decision was Permit (and in query scope).
    pub nodes_delivered: usize,
    /// Elements denied (or out of query scope).
    pub nodes_withheld: usize,
    /// Elements emitted as bare structural scaffolding.
    pub scaffolding_nodes: usize,
    /// Peak number of events buffered while waiting for pending predicates.
    pub peak_pending_events: usize,
    /// Peak secure-RAM footprint of the assembler structures, in bytes.
    pub peak_ram_bytes: usize,
    /// Nodes whose decision was forced conservatively because the pending
    /// buffer hit its high-water mark (see
    /// [`ViewAssembler::with_pending_high_water`]).
    pub forced_resolutions: usize,
}

/// Builds the authorized view from engine outputs.
#[derive(Debug)]
pub struct ViewAssembler {
    policy: AccessPolicy,
    has_query: bool,
    truths: Vec<Option<bool>>,
    queue: VecDeque<QueuedEvent>,
    stack: Vec<RenderFrame>,
    ready: Vec<Event>,
    stats: AssemblerStats,
    pending_high_water: Option<usize>,
}

impl ViewAssembler {
    /// Creates an assembler. `has_query` must reflect whether the engine was
    /// given a query automaton (it changes the default scope of nodes).
    pub fn new(policy: AccessPolicy, has_query: bool) -> Self {
        ViewAssembler {
            policy,
            has_query,
            truths: Vec::new(),
            queue: VecDeque::new(),
            stack: Vec::new(),
            ready: Vec::new(),
            stats: AssemblerStats::default(),
            pending_high_water: None,
        }
    }

    /// Caps the pending-decision buffer at `events` queued events.
    ///
    /// Pendency is the one component of the secure-RAM footprint that scales
    /// with the *data* rather than with depth or rule count: a predicate rule
    /// whose condition arrives late buffers the whole intervening subtree
    /// (the E1 cost step at 8+ rules). With a high-water mark set, a node
    /// whose decision is still blocked once the buffer exceeds the mark is
    /// resolved **eagerly and conservatively**: unresolved instances count as
    /// *not satisfied* for permits and as *satisfied* for denials, and an
    /// unresolved query match counts as out of scope. The forced view is
    /// therefore always a subset of the exact one — content may be withheld,
    /// but nothing is ever delivered that exact evaluation would deny — and
    /// the buffer (hence the assembler's secure RAM) stays bounded. Forced
    /// nodes are counted in [`AssemblerStats::forced_resolutions`].
    pub fn with_pending_high_water(mut self, events: Option<usize>) -> Self {
        self.pending_high_water = events;
        self
    }

    /// Counters.
    pub fn stats(&self) -> AssemblerStats {
        self.stats
    }

    /// Number of events currently buffered behind an undecided node.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// True when no decision is currently blocked on a pending predicate.
    pub fn is_drained(&self) -> bool {
        self.queue.is_empty()
    }

    /// Effective decision and query scope of the innermost open element, when
    /// the assembler is fully drained (used by the skip-index logic; `None`
    /// while a pending decision blocks the stream or before the root opens).
    pub fn current_context(&self) -> Option<(Decision, bool)> {
        if !self.is_drained() {
            return None;
        }
        self.stack.last().map(|f| (f.decision, f.in_scope))
    }

    /// Current secure-RAM footprint, in bytes.
    pub fn ram_bytes(&self) -> usize {
        let queued: usize = self
            .queue
            .iter()
            .map(|q| q.event.serialized_len() + 16)
            .sum();
        let stack: usize = self.stack.iter().map(|f| f.name.len() + 4).sum();
        queued + stack + self.truths.len() / 8
    }

    fn truth(&self, id: InstanceId) -> Option<bool> {
        self.truths.get(id.0 as usize).copied().flatten()
    }

    /// Feeds one engine output; any newly renderable events become available
    /// through [`ViewAssembler::append_ready`].
    pub fn push(&mut self, output: EngineOutput) {
        match output {
            EngineOutput::Resolved {
                instance,
                satisfied,
            } => {
                let idx = instance.0 as usize;
                if idx >= self.truths.len() {
                    self.truths.resize(idx + 1, None);
                }
                if self.truths[idx].is_none() {
                    self.truths[idx] = Some(satisfied);
                }
            }
            EngineOutput::Annotated { event, annotation } => {
                self.queue.push_back(QueuedEvent { event, annotation });
                self.stats.peak_pending_events =
                    self.stats.peak_pending_events.max(self.queue.len());
            }
        }
        self.drain();
        self.stats.peak_ram_bytes = self.stats.peak_ram_bytes.max(self.ram_bytes());
    }

    /// Moves the events rendered so far onto the end of `out`; the internal
    /// buffer keeps its capacity for the next event.
    pub fn append_ready(&mut self, out: &mut Vec<Event>) {
        out.append(&mut self.ready);
    }

    /// Finishes the stream; fails if a decision is still blocked (which means
    /// the input stream was truncated, since every pending instance resolves
    /// at the latest when its context element closes).
    pub fn finish(mut self) -> Result<(Vec<Event>, AssemblerStats), CoreError> {
        self.drain();
        if !self.queue.is_empty() {
            return Err(CoreError::BadState {
                // alloc: cold — truncated-input error path at end of stream.
                message: format!(
                    "{} events are still pending at end of stream (truncated input?)",
                    self.queue.len()
                ),
            });
        }
        Ok((std::mem::take(&mut self.ready), self.stats))
    }

    /// Renders queued events in order until one blocks on an unresolved
    /// decision or the queue empties. With a pending high-water mark set, a
    /// blocked node is forced once the buffer exceeds the mark.
    fn drain(&mut self) {
        while let Some(front) = self.queue.front() {
            match &front.event {
                Event::Open { .. } => {
                    let mut decided = self.decide(front.annotation.as_ref(), false);
                    if decided.is_none()
                        && self
                            .pending_high_water
                            .is_some_and(|mark| self.queue.len() > mark)
                    {
                        self.stats.forced_resolutions += 1;
                        decided = self.decide(front.annotation.as_ref(), true);
                        debug_assert!(decided.is_some(), "forced decisions always resolve");
                    }
                    match decided {
                        Some((decision, in_scope)) => {
                            let QueuedEvent { event, .. } =
                                // lint: infallible — the surrounding match is
                                // on `self.queue.front()`, so the queue is
                                // non-empty here.
                                self.queue.pop_front().expect("front checked above");
                            self.render_open(event, decision, in_scope);
                        }
                        None => break, // blocked on a pending predicate
                    }
                }
                Event::Text(_) => {
                    let QueuedEvent { event, .. } =
                        // lint: infallible — same `front()` match as above.
                        self.queue.pop_front().expect("front checked above");
                    self.render_text(event);
                }
                Event::Close(_) => {
                    self.queue.pop_front();
                    self.render_close();
                }
            }
        }
    }

    /// Computes the decision and query scope of a node, or `None` when an
    /// instance it depends on is unresolved. The annotation is borrowed from
    /// the queue front (cloning it per node dominated the per-event cost for
    /// large rule sets).
    ///
    /// With `force` set, unresolved instances are completed conservatively
    /// instead of blocking: a permit that might apply is dropped, a denial
    /// that might apply is applied, a query that might match is treated as
    /// not matching — the node's subtree can only shrink, never leak.
    fn decide(&self, annotation: Option<&NodeAnnotation>, force: bool) -> Option<(Decision, bool)> {
        let truth = |id: InstanceId| self.truth(id);

        // Query scope: a node is in scope if an ancestor is, or if the query
        // matches the node itself.
        let parent_scope = self
            .stack
            .last()
            .map(|f| f.in_scope)
            .unwrap_or(!self.has_query);
        let in_scope = if parent_scope {
            true
        } else {
            match annotation.and_then(|a| a.query.as_ref()) {
                Some(matches) => match matches.evaluate(&truth) {
                    Some(matched) => matched,
                    None if force => false,
                    None => return None,
                },
                None => false,
            }
        };

        // Rules applying directly to the node.
        let annotated_direct = annotation.map(|a| a.direct.as_slice()).unwrap_or(&[]);
        // alloc: amortized — scratch bounded by the rules annotated on this one node.
        let mut direct = Vec::with_capacity(annotated_direct.len());
        for m in annotated_direct {
            let applies = match m.matches.evaluate(&truth) {
                Some(applies) => applies,
                None if force => m.sign == Sign::Deny,
                None => return None,
            };
            if applies {
                direct.push(DirectRule {
                    rule: m.rule,
                    sign: m.sign,
                });
            }
        }
        let inherited = self.stack.last().map(|f| f.decision);
        let decision = resolve(&self.policy, &direct, inherited);
        Some((decision, in_scope))
    }

    fn render_open(&mut self, event: Event, decision: Decision, in_scope: bool) {
        let Event::Open { name, attrs } = event else {
            // lint: infallible — the only caller matched `Event::Open` first.
            unreachable!("render_open called with a non-open event")
        };
        let delivered = decision.is_permit() && in_scope;
        if delivered {
            self.stats.nodes_delivered += 1;
            self.emit_scaffolding();
            self.ready.push(Event::Open {
                name: Arc::clone(&name),
                attrs,
            });
        } else {
            self.stats.nodes_withheld += 1;
        }
        self.stack.push(RenderFrame {
            name,
            decision,
            in_scope,
            delivered,
            emitted: delivered,
        });
    }

    fn render_text(&mut self, event: Event) {
        if self.stack.last().is_some_and(|f| f.delivered) {
            self.ready.push(event);
        }
    }

    fn render_close(&mut self) {
        if let Some(frame) = self.stack.pop() {
            if frame.emitted {
                self.ready.push(Event::Close(frame.name));
            }
        }
    }

    /// Emits the opening tags of ancestors that are needed for well-formedness
    /// but were not authorized themselves. Scaffolding tags carry no attribute.
    fn emit_scaffolding(&mut self) {
        for i in 0..self.stack.len() {
            if self.stack[i].emitted {
                continue;
            }
            self.ready.push(Event::Open {
                name: Arc::clone(&self.stack[i].name),
                attrs: Vec::<Attribute>::new(),
            });
            self.stack[i].emitted = true;
            self.stats.scaffolding_nodes += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::compile_str;
    use crate::rule::{RuleId, Sign};
    use crate::runtime::{EngineRule, RuleEngine};
    use sdds_xml::{writer, Parser};

    fn evaluate(
        rules: &[(&str, Sign)],
        query: Option<&str>,
        policy: AccessPolicy,
        doc: &str,
    ) -> (String, AssemblerStats) {
        evaluate_capped(rules, query, policy, doc, None)
    }

    fn evaluate_capped(
        rules: &[(&str, Sign)],
        query: Option<&str>,
        policy: AccessPolicy,
        doc: &str,
        pending_high_water: Option<usize>,
    ) -> (String, AssemblerStats) {
        let compiled: Vec<EngineRule> = rules
            .iter()
            .enumerate()
            .map(|(i, (expr, sign))| EngineRule {
                id: RuleId(i as u32),
                sign: *sign,
                path: compile_str(expr).unwrap(),
            })
            .collect();
        let mut engine = RuleEngine::new(compiled, query.map(|q| compile_str(q).unwrap()));
        let mut assembler =
            ViewAssembler::new(policy, query.is_some()).with_pending_high_water(pending_high_water);
        for event in Parser::parse_all(doc).unwrap() {
            let mut outputs = Vec::new();
            engine.process(event, &mut outputs);
            for out in outputs {
                assembler.push(out);
            }
        }
        let (events, stats) = assembler.finish().unwrap();
        (writer::to_string(&events), stats)
    }

    #[test]
    fn closed_world_denies_everything_without_rules() {
        let (view, stats) = evaluate(&[], None, AccessPolicy::paper(), "<a><b>x</b></a>");
        assert_eq!(view, "");
        assert_eq!(stats.nodes_delivered, 0);
        assert_eq!(stats.nodes_withheld, 2);
    }

    #[test]
    fn open_world_delivers_everything_without_rules() {
        let doc = "<a><b>x</b><c attr=\"1\"/></a>";
        let (view, stats) = evaluate(&[], None, AccessPolicy::open(), doc);
        // The writer expands self-closing tags; the content is identical.
        assert_eq!(view, "<a><b>x</b><c attr=\"1\"></c></a>");
        assert_eq!(stats.nodes_delivered, 3);
        assert_eq!(stats.scaffolding_nodes, 0);
    }

    #[test]
    fn positive_rule_with_scaffolding_ancestors() {
        let (view, stats) = evaluate(
            &[("//b", Sign::Permit)],
            None,
            AccessPolicy::paper(),
            "<a x=\"secret\"><b>keep</b><c>drop</c></a>",
        );
        // The a ancestor appears as scaffolding (no attribute), c disappears.
        assert_eq!(view, "<a><b>keep</b></a>");
        assert_eq!(stats.scaffolding_nodes, 1);
        assert_eq!(stats.nodes_delivered, 1);
        assert_eq!(stats.nodes_withheld, 2);
    }

    #[test]
    fn denial_takes_precedence_on_same_node() {
        let (view, _) = evaluate(
            &[("//b", Sign::Permit), ("//b", Sign::Deny)],
            None,
            AccessPolicy::paper(),
            "<a><b>x</b></a>",
        );
        assert_eq!(view, "");
    }

    #[test]
    fn most_specific_object_overrides_propagation() {
        // Everything under a is permitted, except ssn, except that ssn/last4
        // is permitted again.
        let (view, _) = evaluate(
            &[
                ("/a", Sign::Permit),
                ("//ssn", Sign::Deny),
                ("//ssn/last4", Sign::Permit),
            ],
            None,
            AccessPolicy::paper(),
            "<a><name>Bob</name><ssn>123456789<last4>6789</last4></ssn></a>",
        );
        assert_eq!(
            view,
            "<a><name>Bob</name><ssn><last4>6789</last4></ssn></a>"
        );
    }

    #[test]
    fn figure2_rule_delivers_d_only_when_c_present() {
        let rules: &[(&str, Sign)] = &[("//b[c]/d", Sign::Permit)];
        // c occurs after d: the d subtree is pending, then delivered.
        let (view, stats) = evaluate(
            rules,
            None,
            AccessPolicy::paper(),
            "<r><b><d>keep</d><c/></b><b><d>drop</d></b></r>",
        );
        assert_eq!(view, "<r><b><d>keep</d></b></r>");
        assert!(stats.peak_pending_events > 0);

        // c occurs before d: no pendency at all.
        let (view, stats) = evaluate(
            rules,
            None,
            AccessPolicy::paper(),
            "<r><b><c/><d>keep</d></b></r>",
        );
        assert_eq!(view, "<r><b><d>keep</d></b></r>");
        assert_eq!(stats.peak_pending_events, 1);
    }

    #[test]
    fn negative_pending_rule_blocks_until_resolution() {
        // Everything permitted, but b subtrees containing a c are denied.
        let rules: &[(&str, Sign)] = &[("/r", Sign::Permit), ("//b[c]", Sign::Deny)];
        let (view, _) = evaluate(
            rules,
            None,
            AccessPolicy::paper(),
            "<r><b><d>visible</d></b><b><d>hidden</d><c/></b></r>",
        );
        assert_eq!(view, "<r><b><d>visible</d></b></r>");
    }

    #[test]
    fn query_restricts_the_delivered_view() {
        let rules: &[(&str, Sign)] = &[("/hospital", Sign::Permit), ("//ssn", Sign::Deny)];
        let doc = "<hospital><patient><name>Alice</name><ssn>1</ssn></patient>\
                   <patient><name>Bob</name><ssn>2</ssn></patient></hospital>";
        // Query //name: only the name elements (and scaffolding) are delivered.
        let (view, stats) = evaluate(rules, Some("//name"), AccessPolicy::paper(), doc);
        assert_eq!(
            view,
            "<hospital><patient><name>Alice</name></patient><patient><name>Bob</name></patient></hospital>"
        );
        assert_eq!(stats.scaffolding_nodes, 3);
        // Query //ssn: the access control forbids ssn, so nothing is delivered.
        let (view, _) = evaluate(rules, Some("//ssn"), AccessPolicy::paper(), doc);
        assert_eq!(view, "");
    }

    #[test]
    fn query_scope_includes_descendants_of_matching_nodes() {
        let rules: &[(&str, Sign)] = &[("/a", Sign::Permit)];
        let (view, _) = evaluate(
            rules,
            Some("//b"),
            AccessPolicy::paper(),
            "<a><b><x>1</x></b><c><x>2</x></c></a>",
        );
        assert_eq!(view, "<a><b><x>1</x></b></a>");
    }

    #[test]
    fn attributes_of_scaffolding_are_hidden_but_delivered_nodes_keep_theirs() {
        let (view, _) = evaluate(
            &[("//b", Sign::Permit)],
            None,
            AccessPolicy::paper(),
            "<a secret=\"yes\"><b id=\"1\">x</b></a>",
        );
        assert_eq!(view, "<a><b id=\"1\">x</b></a>");
    }

    #[test]
    fn pending_peak_reflects_buffering() {
        // A pending deny on a large subtree forces buffering of that subtree.
        let rules: &[(&str, Sign)] = &[("/r", Sign::Permit), ("//b[flag]", Sign::Deny)];
        let doc = "<r><b><x>1</x><x>2</x><x>3</x><x>4</x><flag/></b></r>";
        let (view, stats) = evaluate(rules, None, AccessPolicy::paper(), doc);
        assert_eq!(view, "<r></r>");
        assert!(stats.peak_pending_events >= 8);
    }

    #[test]
    fn pending_high_water_bounds_the_buffer_conservatively() {
        // A pending *permit* on a large subtree: exact evaluation buffers the
        // subtree and delivers it once the flag arrives.
        let rules: &[(&str, Sign)] = &[("//b[flag]/d", Sign::Permit)];
        let doc = "<r><b><d><x>1</x><x>2</x><x>3</x><x>4</x></d><flag/></b></r>";
        let (exact, exact_stats) = evaluate(rules, None, AccessPolicy::paper(), doc);
        assert_eq!(
            exact,
            "<r><b><d><x>1</x><x>2</x><x>3</x><x>4</x></d></b></r>"
        );
        assert_eq!(exact_stats.forced_resolutions, 0);
        assert!(exact_stats.peak_pending_events >= 10);

        // Capped at 3 queued events: the d decision is forced (permit with an
        // unresolved instance drops), the buffer stays bounded, nothing is
        // delivered that the exact view would deny.
        let (capped, capped_stats) =
            evaluate_capped(rules, None, AccessPolicy::paper(), doc, Some(3));
        assert_eq!(capped, "");
        assert!(capped_stats.forced_resolutions >= 1);
        assert!(
            capped_stats.peak_pending_events <= 4,
            "peak {} should respect the mark",
            capped_stats.peak_pending_events
        );

        // A pending *denial* forces to "denied": still conservative.
        let deny_rules: &[(&str, Sign)] = &[("/r", Sign::Permit), ("//b[flag]", Sign::Deny)];
        let (capped_deny, s) =
            evaluate_capped(deny_rules, None, AccessPolicy::paper(), doc, Some(3));
        assert_eq!(capped_deny, "<r></r>");
        assert!(s.forced_resolutions >= 1);

        // A generous mark never triggers: the exact view is preserved.
        let (roomy, roomy_stats) =
            evaluate_capped(rules, None, AccessPolicy::paper(), doc, Some(100));
        assert_eq!(roomy, exact);
        assert_eq!(roomy_stats.forced_resolutions, 0);
    }

    #[test]
    fn pending_high_water_forces_unresolved_query_matches_out_of_scope() {
        // The query //b[flag] cannot be decided for b until flag arrives; the
        // cap forces b out of scope, so nothing is delivered.
        let rules: &[(&str, Sign)] = &[("/r", Sign::Permit)];
        let doc = "<r><b><x>1</x><x>2</x><x>3</x><flag/></b></r>";
        let (exact, _) = evaluate(rules, Some("//b[flag]"), AccessPolicy::paper(), doc);
        assert_eq!(exact, "<r><b><x>1</x><x>2</x><x>3</x><flag></flag></b></r>");
        let (capped, stats) = evaluate_capped(
            rules,
            Some("//b[flag]"),
            AccessPolicy::paper(),
            doc,
            Some(2),
        );
        assert_eq!(capped, "");
        assert!(stats.forced_resolutions >= 1);
    }

    #[test]
    fn finish_fails_on_truncated_stream() {
        let compiled = vec![EngineRule {
            id: RuleId(0),
            sign: Sign::Permit,
            path: compile_str("//b[c]/d").unwrap(),
        }];
        let mut engine = RuleEngine::new(compiled, None);
        let mut assembler = ViewAssembler::new(AccessPolicy::paper(), false);
        // Open <r><b><d> but never close: the d decision stays pending.
        for event in [Event::open("r"), Event::open("b"), Event::open("d")] {
            let mut outputs = Vec::new();
            engine.process(event, &mut outputs);
            for out in outputs {
                assembler.push(out);
            }
        }
        assert!(!assembler.is_drained());
        assert!(assembler.current_context().is_none());
        assert!(assembler.finish().is_err());
    }

    #[test]
    fn current_context_reports_propagated_decision() {
        let compiled = vec![EngineRule {
            id: RuleId(0),
            sign: Sign::Permit,
            path: compile_str("//b").unwrap(),
        }];
        let mut engine = RuleEngine::new(compiled, None);
        let mut assembler = ViewAssembler::new(AccessPolicy::paper(), false);
        for event in [Event::open("a"), Event::open("b")] {
            let mut outputs = Vec::new();
            engine.process(event, &mut outputs);
            for out in outputs {
                assembler.push(out);
            }
        }
        let (decision, in_scope) = assembler.current_context().unwrap();
        assert_eq!(decision, Decision::Permit);
        assert!(in_scope);
        assert!(assembler.ram_bytes() > 0);
        // The permitted `b` brings its denied parent along as scaffolding.
        let mut ready = Vec::new();
        assembler.append_ready(&mut ready);
        assert_eq!(ready, vec![Event::open("a"), Event::open("b")]);
    }
}
