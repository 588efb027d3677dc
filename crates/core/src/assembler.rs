//! Construction of the authorized view (render stack + pending-decision buffer).
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
//!   accounting. While nothing is pending, an event is rendered as it arrives
//!   and never enters the buffer.

use std::collections::VecDeque;
use std::sync::Arc;

use sdds_xml::{writer, AttrsRef, Event, EventRef};

use crate::conflict::{resolve_signs, AccessPolicy, Decision};
use crate::error::CoreError;
use crate::rule::Sign;
use crate::runtime::{InstanceId, NodeAnnotation};

/// Where the assembler delivers the authorized view.
///
/// The assembler hands over most events borrowed, as they come out of the
/// decrypted window; a sink copies what it keeps. An event that waited
/// behind a pending decision is already owned, and is handed over by move.
pub trait ViewSink {
    /// Delivers one authorized event, borrowed.
    fn deliver(&mut self, event: EventRef<'_>);

    /// Delivers one authorized event the assembler owns.
    fn deliver_owned(&mut self, event: Event) {
        self.deliver(event.as_event_ref());
    }
}

/// Collects the view as owned events: each borrowed event is copied once.
impl ViewSink for Vec<Event> {
    fn deliver(&mut self, event: EventRef<'_>) {
        self.push(event.to_event());
    }

    fn deliver_owned(&mut self, event: Event) {
        self.push(event);
    }
}

/// Renders the view as compact XML text, appended in place: what
/// [`writer::to_string`] makes of the events, with no event copied.
impl ViewSink for String {
    fn deliver(&mut self, event: EventRef<'_>) {
        writer::write_event(self, event);
    }
}

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

/// A queued annotated event awaiting rendering: the one place the
/// assembler owns a copy of an event.
#[derive(Debug, Clone)]
struct QueuedEvent {
    event: Event,
    annotation: Option<NodeAnnotation>,
}

impl QueuedEvent {
    /// Secure-RAM charge of one buffered event.
    fn ram_bytes(&self) -> usize {
        self.event.serialized_len() + 16
    }
}

impl RenderFrame {
    /// Secure-RAM charge of one render-stack entry.
    fn ram_bytes(&self) -> usize {
        self.name.len() + 4
    }
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
}

/// Builds the authorized view from the engine's annotated events.
#[derive(Debug)]
pub struct ViewAssembler {
    policy: AccessPolicy,
    has_query: bool,
    truths: Vec<Option<bool>>,
    queue: VecDeque<QueuedEvent>,
    stack: Vec<RenderFrame>,
    /// Σ `QueuedEvent::ram_bytes` over `queue`, kept current at every push
    /// and pop.
    queued_ram: usize,
    /// Σ `RenderFrame::ram_bytes` over `stack`, kept current the same way.
    stack_ram: usize,
    /// Events delivered to a sink so far.
    events_delivered: usize,
    stats: AssemblerStats,
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
            queued_ram: 0,
            stack_ram: 0,
            events_delivered: 0,
            stats: AssemblerStats::default(),
        }
    }

    /// Counters.
    pub fn stats(&self) -> AssemblerStats {
        self.stats
    }

    /// Events delivered to a sink so far.
    pub fn events_delivered(&self) -> usize {
        self.events_delivered
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

    /// Current secure-RAM footprint, in bytes, read from running counters.
    pub fn ram_bytes(&self) -> usize {
        self.queued_ram + self.stack_ram + self.truths.len() / 8
    }

    /// The footprint recounted by walking the pending queue and the render
    /// stack: the oracle the running counters are tested against.
    #[cfg(test)]
    pub(crate) fn recount_ram_bytes(&self) -> usize {
        let queued: usize = self.queue.iter().map(QueuedEvent::ram_bytes).sum();
        let stack: usize = self.stack.iter().map(RenderFrame::ram_bytes).sum();
        queued + stack + self.truths.len() / 8
    }

    fn truth(&self, id: InstanceId) -> Option<bool> {
        self.truths.get(id.0 as usize).copied().flatten()
    }

    /// Records the resolution of a pending instance and delivers the events
    /// it unblocks to `out`.
    pub fn resolve(&mut self, instance: InstanceId, satisfied: bool, out: &mut impl ViewSink) {
        let idx = instance.0 as usize;
        if idx >= self.truths.len() {
            self.truths.resize(idx + 1, None);
        }
        if self.truths[idx].is_none() {
            self.truths[idx] = Some(satisfied);
        }
        self.drain(out);
        self.stats.peak_ram_bytes = self.stats.peak_ram_bytes.max(self.ram_bytes());
    }

    /// Feeds one event with its annotation (`Some` for an `open` event) and
    /// delivers the events it makes renderable to `out`. While nothing is
    /// pending, the event is rendered in one hop, borrowed; it is copied
    /// only to be buffered behind (or as) a blocked decision.
    pub fn push(
        &mut self,
        event: EventRef<'_>,
        annotation: Option<&NodeAnnotation>,
        out: &mut impl ViewSink,
    ) {
        if self.queue.is_empty() {
            // The event counts as pending while it is decided, exactly as
            // if it had passed through the buffer.
            self.stats.peak_pending_events = self.stats.peak_pending_events.max(1);
            match event {
                EventRef::Open { name, .. } => match self.decide(annotation) {
                    Some((decision, in_scope)) => {
                        if self.open_frame(name, decision, in_scope, out) {
                            self.deliver(event, out);
                        }
                    }
                    None => self.enqueue(QueuedEvent {
                        event: event.to_event(),
                        annotation: annotation.cloned(),
                    }),
                },
                EventRef::Text(_) => {
                    if self.text_delivered() {
                        self.deliver(event, out);
                    }
                }
                EventRef::Close(_) => self.render_close(out),
            }
        } else {
            self.enqueue(QueuedEvent {
                event: event.to_event(),
                annotation: annotation.cloned(),
            });
            self.drain(out);
        }
        self.stats.peak_ram_bytes = self.stats.peak_ram_bytes.max(self.ram_bytes());
    }

    /// Finishes the stream; fails if a decision is still blocked (which means
    /// the input stream was truncated, since every pending instance resolves
    /// at the latest when its context element closes).
    pub fn finish(self) -> Result<AssemblerStats, CoreError> {
        if !self.queue.is_empty() {
            return Err(CoreError::BadState {
                message: format!(
                    "{} events are still pending at end of stream (truncated input?)",
                    self.queue.len()
                ),
            });
        }
        Ok(self.stats)
    }

    fn enqueue(&mut self, queued: QueuedEvent) {
        self.queued_ram += queued.ram_bytes();
        self.queue.push_back(queued);
        self.stats.peak_pending_events = self.stats.peak_pending_events.max(self.queue.len());
    }

    fn dequeue(&mut self) -> Option<QueuedEvent> {
        let queued = self.queue.pop_front()?;
        self.queued_ram -= queued.ram_bytes();
        Some(queued)
    }

    /// Renders queued events in order until one blocks on an unresolved
    /// decision or the queue empties.
    fn drain(&mut self, out: &mut impl ViewSink) {
        loop {
            let decided = match self.queue.front() {
                None => break,
                Some(QueuedEvent {
                    event: Event::Open { .. },
                    annotation,
                }) => match self.decide(annotation.as_ref()) {
                    None => break, // blocked on a pending predicate
                    decided => decided,
                },
                Some(_) => None,
            };
            // lint: infallible — the match above saw the queue's front.
            let QueuedEvent { event, .. } = self.dequeue().expect("front checked above");
            match (&event, decided) {
                (Event::Open { name, .. }, Some((decision, in_scope))) => {
                    if self.open_frame(name, decision, in_scope, out) {
                        self.deliver_owned(event, out);
                    }
                }
                (Event::Text(_), _) => {
                    if self.text_delivered() {
                        self.deliver_owned(event, out);
                    }
                }
                _ => self.render_close(out),
            }
        }
    }

    /// Computes the decision and query scope of a node, or `None` when an
    /// instance it depends on is unresolved. The annotation is borrowed from
    /// the engine or the queue front (cloning it per node dominated the
    /// per-event cost for large rule sets).
    fn decide(&self, annotation: Option<&NodeAnnotation>) -> Option<(Decision, bool)> {
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
            match annotation.and_then(NodeAnnotation::query) {
                Some(matches) => matches.evaluate(truth)?,
                None => false,
            }
        };

        // Rules applying directly to the node: only which signs apply
        // matters to the decision.
        let (mut has_deny, mut has_permit) = (false, false);
        for (m, matches) in annotation.into_iter().flat_map(NodeAnnotation::direct) {
            if matches.evaluate(truth)? {
                match m.sign {
                    Sign::Deny => has_deny = true,
                    Sign::Permit => has_permit = true,
                }
            }
        }
        let inherited = self.stack.last().map(|f| f.decision);
        let decision = resolve_signs(&self.policy, has_deny, has_permit, inherited);
        Some((decision, in_scope))
    }

    /// Pushes the render frame of an opened element and returns whether the
    /// element is delivered; if so, the scaffolding it needs went out first.
    fn open_frame(
        &mut self,
        name: &Arc<str>,
        decision: Decision,
        in_scope: bool,
        out: &mut impl ViewSink,
    ) -> bool {
        let delivered = decision.is_permit() && in_scope;
        if delivered {
            self.stats.nodes_delivered += 1;
            self.emit_scaffolding(out);
        } else {
            self.stats.nodes_withheld += 1;
        }
        let frame = RenderFrame {
            name: Arc::clone(name),
            decision,
            in_scope,
            delivered,
            emitted: delivered,
        };
        self.stack_ram += frame.ram_bytes();
        self.stack.push(frame);
        delivered
    }

    /// Whether text in the current element is delivered.
    fn text_delivered(&self) -> bool {
        self.stack.last().is_some_and(|f| f.delivered)
    }

    fn render_close(&mut self, out: &mut impl ViewSink) {
        if let Some(frame) = self.stack.pop() {
            self.stack_ram -= frame.ram_bytes();
            if frame.emitted {
                self.deliver(EventRef::Close(&frame.name), out);
            }
        }
    }

    /// Emits the opening tags of ancestors that are needed for well-formedness
    /// but were not authorized themselves. Scaffolding tags carry no attribute.
    fn emit_scaffolding(&mut self, out: &mut impl ViewSink) {
        for frame in self.stack.iter_mut().filter(|f| !f.emitted) {
            out.deliver(EventRef::Open {
                name: &frame.name,
                attrs: AttrsRef::EMPTY,
            });
            frame.emitted = true;
            self.stats.scaffolding_nodes += 1;
            self.events_delivered += 1;
        }
    }

    fn deliver(&mut self, event: EventRef<'_>, out: &mut impl ViewSink) {
        out.deliver(event);
        self.events_delivered += 1;
    }

    fn deliver_owned(&mut self, event: Event, out: &mut impl ViewSink) {
        out.deliver_owned(event);
        self.events_delivered += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::compile_str;
    use crate::rule::{RuleId, Sign};
    use crate::runtime::{EngineRule, RuleEngine};
    use sdds_xml::{writer, Parser};

    /// Delivers to two sinks at once.
    impl ViewSink for (&mut Vec<Event>, &mut String) {
        fn deliver(&mut self, event: EventRef<'_>) {
            self.0.deliver(event);
            self.1.deliver(event);
        }

        fn deliver_owned(&mut self, event: Event) {
            self.1.deliver(event.as_event_ref());
            self.0.deliver_owned(event);
        }
    }

    /// Runs one event through the engine and the assembler.
    fn feed(
        engine: &mut RuleEngine,
        assembler: &mut ViewAssembler,
        event: &Event,
        out: &mut impl ViewSink,
    ) {
        let mut resolved = Vec::new();
        let annotation = engine.process(event.as_event_ref(), &mut resolved);
        for r in resolved {
            assembler.resolve(r.instance, r.satisfied, out);
        }
        assembler.push(event.as_event_ref(), annotation, out);
    }

    fn evaluate(
        rules: &[(&str, Sign)],
        query: Option<&str>,
        policy: AccessPolicy,
        doc: &str,
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
        let compiled_query = query.map(|q| compile_str(q).unwrap());
        let mut engine = RuleEngine::new(compiled, compiled_query.as_ref());
        let mut assembler = ViewAssembler::new(policy, query.is_some());
        let (mut events, mut text) = (Vec::new(), String::new());
        for event in Parser::parse_all(doc).unwrap() {
            feed(
                &mut engine,
                &mut assembler,
                &event,
                &mut (&mut events, &mut text),
            );
        }
        let stats = assembler.finish().unwrap();
        // Both sinks see the same view: owned events and rendered text.
        assert_eq!(text, writer::to_string(&events));
        (text, stats)
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
    fn finish_fails_on_truncated_stream() {
        let compiled = vec![EngineRule {
            id: RuleId(0),
            sign: Sign::Permit,
            path: compile_str("//b[c]/d").unwrap(),
        }];
        let mut engine = RuleEngine::new(compiled, None);
        let mut assembler = ViewAssembler::new(AccessPolicy::paper(), false);
        // Open <r><b><d> but never close: the d decision stays pending.
        let mut ready: Vec<Event> = Vec::new();
        for event in [Event::open("r"), Event::open("b"), Event::open("d")] {
            feed(&mut engine, &mut assembler, &event, &mut ready);
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
        let mut ready: Vec<Event> = Vec::new();
        for event in [Event::open("a"), Event::open("b")] {
            feed(&mut engine, &mut assembler, &event, &mut ready);
        }
        let (decision, in_scope) = assembler.current_context().unwrap();
        assert_eq!(decision, Decision::Permit);
        assert!(in_scope);
        assert!(assembler.ram_bytes() > 0);
        // The permitted `b` brings its denied parent along as scaffolding.
        assert_eq!(ready, vec![Event::open("a"), Event::open("b")]);
    }
}
