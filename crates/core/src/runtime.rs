//! Streaming execution of the rule automata (§2.3), over the shared dispatch
//! automaton of [`crate::dispatch`].
//!
//! "When an open or a value event is received, all the automata are checked
//! and go to their next state. Upon receiving a close event, all the automata
//! backtrack. To manage these automata efficiently, we use a stack that keeps
//! track of active states, materializing all the possible paths that can be
//! followed on the non-deterministic automata. [...] This is controlled using
//! a predicate set which records all the final states of predicates that have
//! been reached. [...] the rule is said to be pending [...]"
//!
//! [`RuleEngine`] implements that machinery, but instead of checking *all* the
//! automata per event (which scales linearly with the installed rule count —
//! the E1 cliff), it dispatches through one combined structure:
//!
//! * the **token stack** is the per-depth `Frame` vector: every navigational
//!   state activated by an element is recorded in that element's frame and
//!   discarded when the element closes (backtracking),
//! * active states sit on [`DispatchTable`] trie nodes shared by every rule
//!   with the same step prefix, and are additionally indexed in **per-symbol
//!   buckets**: an `open` event interns its name to a symbol (one hash probe)
//!   and only touches the states actually waiting on that symbol (plus the
//!   wildcard waiters),
//! * the **predicate set** is the [`InstanceId`] space: every deferred
//!   predicate encountered along a navigational run spawns a *pending
//!   instance* referencing an arena-backed `PredProgram` (no per-instance
//!   copy of the predicate), resolved to `true` when its predicate path
//!   reaches its final state (and its value condition holds) or to `false`
//!   when its context element closes,
//! * **pending rules** are rule matches whose status is
//!   [`MatchAlternatives`] with unresolved instances; the decision they imply
//!   is deferred by the view assembler until the instances resolve.
//!
//! The engine does **not** decide anything by itself: it annotates the event
//! stream with the rule/query matches of each node and emits instance
//! resolutions; conflict resolution and view construction happen downstream in
//! [`crate::assembler`], mirroring the sign-stack of the paper.

use sdds_xml::{AttrsRef, EventRef};
use sdds_xpath::Axis;

use crate::automaton::{CompiledPath, ValueCondition};
use crate::dispatch::{DispatchTable, EdgeId, NodeId, PredId, Target};
use crate::rule::{AccessRule, RuleId, Sign};

/// Identifier of a pending predicate instance (an entry of the paper's
/// *predicate set*).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstanceId(pub u32);

/// A predicate instance that resolved while the engine processed an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resolution {
    /// The instance.
    pub instance: InstanceId,
    /// Whether the predicate is satisfied.
    pub satisfied: bool,
}

/// Owner of an alternative in a [`NodeAnnotation`]: an engine rule index,
/// or the query.
const QUERY_OWNER: u32 = u32::MAX;

/// One conditional alternative of a match: a conjunction of pending
/// instances, stored as a range of the annotation's instance ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Alternative {
    owner: u32,
    start: u32,
    end: u32,
}

/// A rule that reached its navigational final state on a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirectMatch {
    /// The rule.
    pub rule: RuleId,
    /// Its sign.
    pub sign: Sign,
    /// Index of the rule in the engine, the owner of its alternatives.
    index: u32,
    unconditional: bool,
}

/// Per-node annotation produced by the engine for `open` events: the rules
/// (and the query) whose navigational path ends on the node, each with the
/// alternatives under which the match holds.
///
/// The annotation is flat — a few vectors the engine clears and refills for
/// every open tag — so annotating a node allocates nothing once they have
/// grown.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeAnnotation {
    /// Rules matching the node, in engine order.
    direct: Vec<DirectMatch>,
    /// `Some(unconditional)` when the query's navigational path ends here.
    query: Option<bool>,
    /// Conditional alternatives of the direct matches and the query.
    alternatives: Vec<Alternative>,
    /// Instance ids of the alternatives.
    ids: Vec<InstanceId>,
}

impl NodeAnnotation {
    fn clear(&mut self) {
        self.direct.clear();
        self.query = None;
        self.alternatives.clear();
        self.ids.clear();
    }

    /// Rules whose navigational path ends on this node, in engine order,
    /// each with the conditions under which it applies.
    pub fn direct(&self) -> impl Iterator<Item = (DirectMatch, MatchAlternatives<'_>)> + '_ {
        self.direct.iter().map(move |&m| {
            let alternatives = MatchAlternatives {
                annotation: self,
                owner: m.index,
                unconditional: m.unconditional,
            };
            (m, alternatives)
        })
    }

    /// Query match on this node, if a query is installed and its
    /// navigational path ends here.
    pub fn query(&self) -> Option<MatchAlternatives<'_>> {
        self.query.map(|unconditional| MatchAlternatives {
            annotation: self,
            owner: QUERY_OWNER,
            unconditional,
        })
    }

    /// Records that engine rule `index` matches under the conjunction `ids`
    /// (an empty conjunction holds unconditionally and makes every other
    /// alternative of the match redundant).
    fn add_rule(&mut self, index: usize, (rule, sign): (RuleId, Sign), ids: &[InstanceId]) {
        let owner = index as u32;
        let at = match self.direct.iter().position(|m| m.index == owner) {
            Some(at) => at,
            None => {
                self.direct.push(DirectMatch {
                    rule,
                    sign,
                    index: owner,
                    unconditional: false,
                });
                self.direct.len() - 1
            }
        };
        let unconditional = self.direct[at].unconditional;
        self.direct[at].unconditional |= ids.is_empty();
        if !unconditional {
            self.push_alternative(owner, ids);
        }
    }

    /// [`NodeAnnotation::add_rule`] for the query.
    fn add_query(&mut self, ids: &[InstanceId]) {
        let unconditional = self.query.unwrap_or(false);
        self.query = Some(unconditional || ids.is_empty());
        if !unconditional {
            self.push_alternative(QUERY_OWNER, ids);
        }
    }

    fn push_alternative(&mut self, owner: u32, ids: &[InstanceId]) {
        if ids.is_empty() {
            return;
        }
        let start = self.ids.len() as u32;
        self.ids.extend_from_slice(ids);
        self.alternatives.push(Alternative {
            owner,
            start,
            end: self.ids.len() as u32,
        });
    }
}

/// The alternatives under which a rule (or the query) matches a node: each
/// alternative is a conjunction of pending instances that must all resolve
/// to `true`; the match applies if **any** alternative holds. An
/// unconditional match holds whatever the instances resolve to.
#[derive(Debug, Clone, Copy)]
pub struct MatchAlternatives<'a> {
    annotation: &'a NodeAnnotation,
    owner: u32,
    unconditional: bool,
}

impl<'a> MatchAlternatives<'a> {
    /// True if the match holds whatever the pending instances resolve to.
    pub fn is_unconditional(&self) -> bool {
        self.unconditional
    }

    /// The conditional alternatives (none when the match is unconditional).
    pub fn alternatives(&self) -> impl Iterator<Item = &'a [InstanceId]> + 'a {
        let (annotation, owner) = (self.annotation, self.owner);
        let conditional = !self.unconditional;
        annotation
            .alternatives
            .iter()
            .filter(move |alt| conditional && alt.owner == owner)
            .map(move |alt| &annotation.ids[alt.start as usize..alt.end as usize])
    }

    /// Evaluates the match against the currently known instance truths.
    /// Returns `Some(true)` / `Some(false)` when determined, `None` while at
    /// least one relevant instance is still unresolved.
    pub fn evaluate(&self, truth: impl Fn(InstanceId) -> Option<bool>) -> Option<bool> {
        if self.unconditional {
            return Some(true);
        }
        let mut any_unknown = false;
        for alt in self.alternatives() {
            let mut all_true = true;
            let mut unknown = false;
            for &id in alt {
                match truth(id) {
                    Some(true) => {}
                    Some(false) => {
                        all_true = false;
                        break;
                    }
                    None => {
                        unknown = true;
                        all_true = false;
                    }
                }
            }
            if all_true {
                return Some(true);
            }
            if unknown {
                any_unknown = true;
            }
        }
        if any_unknown {
            None
        } else {
            Some(false)
        }
    }
}

/// An active navigational state: the runs of a frame sit on the trie node the
/// element owning the frame moved them to.
#[derive(Debug, Clone, Copy)]
struct Run {
    node: NodeId,
    /// Range of the frame's `deps` holding the instances the run depends on.
    deps_start: u32,
    deps_end: u32,
}

impl Run {
    fn deps(self) -> std::ops::Range<usize> {
        self.deps_start as usize..self.deps_end as usize
    }
}

/// An active state of a predicate path instance (`position` steps of the
/// instance's program are matched).
#[derive(Debug, Clone, Copy)]
struct PredRun {
    instance: InstanceId,
    position: u32,
}

/// Direct-text watcher for a value condition (`[. = "v"]`, `[c = "v"]`).
/// The condition is the instance's predicate program's; the text is the
/// frame's `watched_text`, which every watcher of the frame sees whole
/// while it is unresolved (all of them exist from the element's open on).
#[derive(Debug, Clone, Copy)]
struct Watcher {
    instance: InstanceId,
    /// Text bytes buffered while the instance was unresolved (the secure-RAM
    /// charge of the watcher's buffer).
    buffered: usize,
    saw_text: bool,
}

/// Runtime state of a pending predicate instance: one bit of truth plus a
/// reference into the shared predicate arena. The program itself lives in the
/// [`DispatchTable`] (program memory, like the compiled rules), not in the
/// per-instance secure RAM.
#[derive(Debug, Clone, Copy)]
struct InstanceSlot {
    resolved: Option<bool>,
    pred: PredId,
}

/// Bucket id of the wildcard waiters (named waiters use the symbol index).
const WILD_BUCKET: u32 = u32::MAX;

/// An entry of a per-symbol bucket: an active state waiting on that symbol.
#[derive(Debug, Clone, Copy)]
enum BucketEntry {
    /// `frames[depth].runs[run]` can advance across `edge`.
    Nav { depth: u32, run: u32, edge: EdgeId },
    /// `frames[depth].pred_runs[run]` can advance on this symbol.
    Pred { depth: u32, run: u32 },
}

impl BucketEntry {
    fn depth(self) -> u32 {
        match self {
            BucketEntry::Nav { depth, .. } | BucketEntry::Pred { depth, .. } => depth,
        }
    }
}

/// One entry of the token stack: everything activated by the element at the
/// corresponding depth.
#[derive(Debug, Default)]
struct Frame {
    runs: Vec<Run>,
    /// Instance dependencies of the runs, each run a range of it.
    deps: Vec<InstanceId>,
    pred_runs: Vec<PredRun>,
    watchers: Vec<Watcher>,
    /// The element's direct text, buffered while a watcher is unresolved.
    watched_text: String,
    owned_instances: Vec<InstanceId>,
    /// Buckets this frame registered entries into; popped on close.
    touched: Vec<u32>,
}

impl Frame {
    /// Empties the frame for reuse, keeping the capacity of its vectors.
    fn clear(&mut self) {
        self.runs.clear();
        self.deps.clear();
        self.pred_runs.clear();
        self.watchers.clear();
        self.watched_text.clear();
        self.owned_instances.clear();
        self.touched.clear();
    }

    fn ram_bytes(&self) -> usize {
        // With interned names the stack entry itself is a token id, not the
        // tag string: charge a small fixed bookkeeping cost per frame.
        4 + self
            .runs
            .iter()
            .map(|r| 8 + 4 * r.deps().len())
            .sum::<usize>()
            + self.pred_runs.len() * 6
            + self.watchers.iter().map(|w| 8 + w.buffered).sum::<usize>()
            + self.owned_instances.len() * 4
            + self.touched.len() * 2
    }
}

/// A rule installed in the engine.
#[derive(Debug, Clone)]
pub struct EngineRule {
    /// Rule identifier.
    pub id: RuleId,
    /// Sign.
    pub sign: Sign,
    /// Compiled object path.
    pub path: CompiledPath,
}

impl EngineRule {
    /// Compiles an [`AccessRule`] for the engine.
    pub fn compile(rule: &AccessRule) -> Result<Self, crate::error::CoreError> {
        Ok(EngineRule {
            id: rule.id,
            sign: rule.sign,
            path: crate::automaton::compile(&rule.object)?,
        })
    }
}

/// Counters exposed by the engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Events processed.
    pub events: usize,
    /// Pending predicate instances created.
    pub instances_created: usize,
    /// Navigational state activations (token stack pushes).
    pub run_activations: usize,
    /// Peak secure-RAM footprint of the engine structures, in bytes.
    pub peak_ram_bytes: usize,
}

/// The streaming automata engine.
#[derive(Debug)]
pub struct RuleEngine {
    /// Id and sign of each installed rule, in engine order; their compiled
    /// paths live in the dispatch table.
    rules: Vec<(RuleId, Sign)>,
    has_query: bool,
    table: DispatchTable,
    /// The token stack, kept in place: `frames[..live]` are the open frames
    /// (`frames[0]` is the virtual document node); every frame past `live`
    /// is cleared and reused, in place, by the next open at its depth.
    frames: Vec<Frame>,
    live: usize,
    instances: Vec<InstanceSlot>,
    /// Per-symbol buckets of active states (indexed by symbol), plus the
    /// wildcard bucket. Entries are appended when a frame registers its runs
    /// and truncated when the frame closes (entries of a bucket are in
    /// non-decreasing depth order, so a close pops a suffix).
    buckets: Vec<Vec<BucketEntry>>,
    wild_bucket: Vec<BucketEntry>,
    /// Reusable per-event scratch (candidate snapshot).
    scratch: Vec<BucketEntry>,
    root_scratch: Vec<EdgeId>,
    /// Per-open memo of the instance spawned for each deferred predicate.
    memo: Vec<(PredId, InstanceId)>,
    /// Annotation of the last open tag, refilled at every open.
    annotation: NodeAnnotation,
    /// Unresolved pending instances (incremental — the instance pool is
    /// append-only, so scanning it per event would be quadratic in stream
    /// length).
    unresolved_instances: usize,
    /// Live entries across all buckets (incremental, same reason).
    bucket_entries: usize,
    /// Σ `Frame::ram_bytes` over the token stack, kept current as frames
    /// open, watchers buffer text and frames close.
    frames_ram: usize,
    stats: EngineStats,
}

impl RuleEngine {
    /// Creates an engine for a set of compiled rules and an optional query.
    /// The rules are fixed for the engine's life: a policy change builds a
    /// new engine for the next session.
    pub fn new(rules: Vec<EngineRule>, query: Option<&CompiledPath>) -> Self {
        let table = DispatchTable::build(rules.iter().map(|r| &r.path), query);
        let symbol_count = table.symbols().len();
        RuleEngine {
            rules: rules.iter().map(|r| (r.id, r.sign)).collect(),
            has_query: query.is_some(),
            table,
            frames: vec![Frame::default()],
            live: 1,
            instances: Vec::new(),
            buckets: vec![Vec::new(); symbol_count],
            wild_bucket: Vec::new(),
            scratch: Vec::new(),
            root_scratch: Vec::new(),
            memo: Vec::new(),
            annotation: NodeAnnotation::default(),
            unresolved_instances: 0,
            bucket_entries: 0,
            frames_ram: Frame::default().ram_bytes(),
            stats: EngineStats::default(),
        }
    }

    /// Number of installed rules.
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// The combined dispatch structure (introspection / statistics).
    pub fn dispatch(&self) -> &DispatchTable {
        &self.table
    }

    /// Engine counters.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Current element depth (0 before the root opens).
    pub fn depth(&self) -> usize {
        self.live - 1
    }

    /// The open frames of the token stack.
    fn open_frames(&self) -> &[Frame] {
        &self.frames[..self.live]
    }

    /// True if `may_progress(rule, position)` holds for some active
    /// navigational position of some installed rule (`rule` is its index in
    /// the rule vector the engine was built from), the implicit initial
    /// position 0 of every rule included. The skip-index logic asks this of
    /// an upcoming subtree; the walk allocates nothing.
    pub fn any_rule_position(&self, mut may_progress: impl FnMut(usize, usize) -> bool) -> bool {
        (0..self.rules.len()).any(|rule| may_progress(rule, 0))
            || self.any_active_position(|target, position| match target {
                Target::Rule(rule) => may_progress(rule, position),
                Target::Query => false,
            })
    }

    /// [`RuleEngine::any_rule_position`] for the query automaton: false
    /// when no query is installed.
    pub fn any_query_position(&self, mut may_progress: impl FnMut(usize) -> bool) -> bool {
        self.has_query
            && (may_progress(0)
                || self.any_active_position(|target, position| {
                    target == Target::Query && may_progress(position)
                }))
    }

    fn any_active_position(&self, mut f: impl FnMut(Target, usize) -> bool) -> bool {
        self.open_frames()
            .iter()
            .flat_map(|frame| &frame.runs)
            .any(|run| {
                self.table
                    .node(run.node)
                    .positions
                    .iter()
                    .any(|&(target, position)| f(target, position as usize))
            })
    }

    /// Positions (numbers of matched navigational steps) currently active for
    /// each installed rule, including the implicit initial position 0: the
    /// allocating form [`RuleEngine::any_rule_position`] is checked against.
    #[cfg(test)]
    pub(crate) fn active_positions(&self) -> Vec<Vec<usize>> {
        let mut positions = vec![vec![0usize]; self.rules.len()];
        for frame in self.open_frames() {
            for run in &frame.runs {
                for &(target, pos) in &self.table.node(run.node).positions {
                    if let Target::Rule(i) = target {
                        if !positions[i].contains(&(pos as usize)) {
                            positions[i].push(pos as usize);
                        }
                    }
                }
            }
        }
        positions
    }

    /// Active positions of the query automaton (empty when no query is set):
    /// the oracle of [`RuleEngine::any_query_position`].
    #[cfg(test)]
    pub(crate) fn active_query_positions(&self) -> Vec<usize> {
        if !self.has_query {
            return Vec::new();
        }
        let mut positions = vec![0usize];
        for frame in self.open_frames() {
            for run in &frame.runs {
                for &(target, pos) in &self.table.node(run.node).positions {
                    if target == Target::Query && !positions.contains(&(pos as usize)) {
                        positions.push(pos as usize);
                    }
                }
            }
        }
        positions
    }

    /// True if at least one pending predicate instance is unresolved.
    pub fn has_unresolved_instances(&self) -> bool {
        self.unresolved_instances > 0
    }

    /// Current secure-RAM footprint of the engine structures, in bytes. Every
    /// term is a running counter, so reading it costs nothing per event.
    pub fn ram_bytes(&self) -> usize {
        self.ram_with_frames(self.frames_ram)
    }

    /// The footprint recounted from scratch by walking the token stack: the
    /// oracle the running counter is tested against.
    #[cfg(test)]
    pub(crate) fn recount_ram_bytes(&self) -> usize {
        self.ram_with_frames(self.open_frames().iter().map(Frame::ram_bytes).sum())
    }

    fn ram_with_frames(&self, frames: usize) -> usize {
        // An unresolved instance is one predicate-set entry referencing a
        // shared program (the program itself lives with the compiled rules in
        // program memory); resolved instances boil down to one bit.
        frames + self.bucket_entries * 4 + self.unresolved_instances * 8 + self.instances.len() / 8
    }

    /// Processes one event, appending the instance resolutions it triggers
    /// to `resolved`. For an `open` event, returns the node's annotation,
    /// which stays valid until the next call.
    pub fn process(
        &mut self,
        event: EventRef<'_>,
        resolved: &mut Vec<Resolution>,
    ) -> Option<&NodeAnnotation> {
        self.stats.events += 1;
        let annotated = match event {
            EventRef::Open { name, attrs } => {
                self.process_open(name, attrs, resolved);
                true
            }
            EventRef::Text(text) => {
                self.process_text(text, resolved);
                false
            }
            EventRef::Close(_) => {
                self.process_close(resolved);
                false
            }
        };
        self.stats.peak_ram_bytes = self.stats.peak_ram_bytes.max(self.ram_bytes());
        annotated.then_some(&self.annotation)
    }

    /// Steps the automata on an `open` event and fills `self.annotation`.
    fn process_open(&mut self, name: &str, attrs: AttrsRef<'_>, resolved: &mut Vec<Resolution>) {
        let depth = self.live; // depth of the element being opened
        if self.frames.len() == depth {
            self.frames.push(Frame::default());
        }
        let sym = self.table.symbols().lookup(name);

        // Snapshot the candidates: initial transitions for this symbol plus
        // the bucketed active states waiting on it (or on a wildcard). New
        // states registered by this event only participate for descendants.
        let mut root_scratch = std::mem::take(&mut self.root_scratch);
        root_scratch.clear();
        root_scratch.extend(self.table.root_edges(sym));
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        if let Some(s) = sym {
            scratch.extend_from_slice(&self.buckets[s.index()]);
        }
        scratch.extend_from_slice(&self.wild_bucket);

        self.annotation.clear();
        self.memo.clear();

        {
            let RuleEngine {
                ref rules,
                ref table,
                ref mut frames,
                ref mut instances,
                ref mut unresolved_instances,
                ref mut stats,
                ref mut memo,
                ref mut annotation,
                ..
            } = *self;
            // The open frames are the bucket walk's; the cleared one at
            // `depth` becomes the new element's.
            let (frames, rest) = frames.split_at_mut(depth);
            let mut scope = OpenScope {
                rules,
                table,
                instances,
                unresolved: unresolved_instances,
                stats,
                resolved,
                new_frame: &mut rest[0],
                memo,
                annotation,
                depth,
                attrs,
            };

            for &edge in &root_scratch {
                scope.fire_edge(edge, 0, &[]);
            }
            for &entry in &scratch {
                match entry {
                    BucketEntry::Nav {
                        depth: run_depth,
                        run,
                        edge,
                    } => {
                        let frame = &frames[run_depth as usize];
                        let deps = &frame.deps[frame.runs[run as usize].deps()];
                        scope.fire_edge(edge, run_depth as usize, deps);
                    }
                    BucketEntry::Pred {
                        depth: run_depth,
                        run,
                    } => {
                        let pr = frames[run_depth as usize].pred_runs[run as usize];
                        scope.advance_pred(pr, run_depth as usize);
                    }
                }
            }
        }
        self.scratch = scratch;
        self.root_scratch = root_scratch;
        self.annotation.direct.sort_unstable_by_key(|m| m.index);

        // Open + register the frame.
        self.live += 1;
        let frame = &mut self.frames[depth];
        register_frame(
            &self.table,
            &self.instances,
            frame,
            depth as u32,
            &mut self.buckets,
            &mut self.wild_bucket,
            &mut self.bucket_entries,
        );
        self.frames_ram += frame.ram_bytes();
    }

    fn process_text(&mut self, text: &str, resolved: &mut Vec<Resolution>) {
        // Feed the watchers of the element directly containing this text.
        let depth = self.live - 1;
        if depth == 0 {
            return;
        }
        let frame = &mut self.frames[depth];
        let mut watched = false;
        for w in &mut frame.watchers {
            if self.instances[w.instance.0 as usize].resolved.is_some() {
                continue;
            }
            watched = true;
            w.buffered += text.len();
            self.frames_ram += text.len();
            w.saw_text = true;
        }
        if !watched {
            return;
        }
        frame.watched_text.push_str(text);
        if text.trim().is_empty() {
            return;
        }
        // Existence of direct text is enough for a watcher with no condition.
        for w in &frame.watchers {
            let slot = self.instances[w.instance.0 as usize];
            if slot.resolved.is_none() && self.table.pred(slot.pred).condition.is_none() {
                resolve_instance(
                    &mut self.instances,
                    &mut self.unresolved_instances,
                    resolved,
                    w.instance,
                    true,
                );
            }
        }
    }

    fn process_close(&mut self, resolved: &mut Vec<Resolution>) {
        // The tokenizer only emits balanced events, so every close has a
        // matching open frame above the document node.
        assert!(self.live > 1, "close without a matching open");
        self.live -= 1;
        let depth = self.live;
        let frame = &mut self.frames[depth];
        self.frames_ram -= frame.ram_bytes();
        // Unregister the frame's bucket entries (always the bucket suffix:
        // registrations only ever target the innermost open element).
        for &b in &frame.touched {
            let bucket = if b == WILD_BUCKET {
                &mut self.wild_bucket
            } else {
                &mut self.buckets[b as usize]
            };
            while bucket.last().is_some_and(|e| e.depth() as usize == depth) {
                bucket.pop();
                self.bucket_entries -= 1;
            }
        }
        // Evaluate the direct-text watchers anchored on the closing element.
        for w in &frame.watchers {
            let slot = self.instances[w.instance.0 as usize];
            if slot.resolved.is_some() {
                continue;
            }
            if let Some(condition) = &self.table.pred(slot.pred).condition {
                if w.saw_text && condition.holds(&frame.watched_text) {
                    resolve_instance(
                        &mut self.instances,
                        &mut self.unresolved_instances,
                        resolved,
                        w.instance,
                        true,
                    );
                }
                // A failed candidate does not fail the instance: another
                // element matched by the predicate path may still satisfy it.
            }
        }
        // Instances whose context element closes without having been satisfied
        // are now definitely unsatisfied.
        for id in &frame.owned_instances {
            resolve_instance(
                &mut self.instances,
                &mut self.unresolved_instances,
                resolved,
                *id,
                false,
            );
        }
        frame.clear();
    }
}

/// Mutable context of one `open` event (split borrows of the engine).
struct OpenScope<'a, 'e> {
    rules: &'a [(RuleId, Sign)],
    table: &'a DispatchTable,
    instances: &'a mut Vec<InstanceSlot>,
    unresolved: &'a mut usize,
    stats: &'a mut EngineStats,
    resolved: &'a mut Vec<Resolution>,
    new_frame: &'a mut Frame,
    /// Per-event memo: one pending instance per deferred predicate, shared by
    /// every run/rule reaching this element through it (the predicate is
    /// anchored on the element, not on the path that led here).
    memo: &'a mut Vec<(PredId, InstanceId)>,
    annotation: &'a mut NodeAnnotation,
    depth: usize,
    attrs: AttrsRef<'e>,
}

impl OpenScope<'_, '_> {
    /// Fires one navigational transition from a run at `run_depth` (the bucket
    /// guarantees the name test already matched).
    fn fire_edge(&mut self, edge_id: EdgeId, run_depth: usize, deps: &[InstanceId]) {
        let edge = self.table.edge(edge_id);
        let axis_ok = match edge.axis {
            Axis::Child => run_depth == self.depth - 1,
            Axis::Descendant => run_depth < self.depth,
        };
        if !axis_ok {
            return;
        }
        if !edge.immediate.iter().all(|check| {
            attr_holds(
                self.attrs,
                self.table.symbols().resolve(check.name),
                check.condition.as_ref(),
            )
        }) {
            return;
        }
        // The run's dependencies, then one instance per deferred predicate,
        // appended to the new frame's dependency arena.
        let start = self.new_frame.deps.len();
        self.new_frame.deps.extend_from_slice(deps);
        for &pid in &edge.deferred {
            let id = self.instance_for(pid);
            self.new_frame.deps.push(id);
        }
        let end = self.new_frame.deps.len();
        let new_deps = &self.new_frame.deps[start..end];
        for &target in &edge.accepts {
            match target {
                Target::Rule(i) => self.annotation.add_rule(i, self.rules[i], new_deps),
                Target::Query => self.annotation.add_query(new_deps),
            }
        }
        if let Some(node) = edge.to {
            self.stats.run_activations += 1;
            self.new_frame.runs.push(Run {
                node,
                deps_start: start as u32,
                deps_end: end as u32,
            });
        } else {
            self.new_frame.deps.truncate(start);
        }
    }

    /// The pending instance for a deferred predicate of the element being
    /// opened, creating it on first use within the event.
    fn instance_for(&mut self, pid: PredId) -> InstanceId {
        if let Some(&(_, id)) = self.memo.iter().find(|(p, _)| *p == pid) {
            return id;
        }
        let id = InstanceId(self.instances.len() as u32);
        self.stats.instances_created += 1;
        *self.unresolved += 1;
        self.instances.push(InstanceSlot {
            resolved: None,
            pred: pid,
        });
        if self.table.pred(pid).is_self_text() {
            self.new_frame.watchers.push(Watcher {
                instance: id,
                buffered: 0,
                saw_text: false,
            });
        } else {
            // The initial state of the predicate path lives in the context
            // element's frame.
            self.new_frame.pred_runs.push(PredRun {
                instance: id,
                position: 0,
            });
        }
        self.new_frame.owned_instances.push(id);
        self.memo.push((pid, id));
        id
    }

    /// Advances one predicate-path run (the bucket guarantees the name test).
    fn advance_pred(&mut self, pr: PredRun, run_depth: usize) {
        let slot = self.instances[pr.instance.0 as usize];
        if slot.resolved.is_some() {
            return;
        }
        let program = self.table.pred(slot.pred);
        let step = &program.steps[pr.position as usize];
        let axis_ok = match step.axis {
            Axis::Child => run_depth == self.depth - 1,
            Axis::Descendant => run_depth < self.depth,
        };
        if !axis_ok {
            return;
        }
        if pr.position as usize + 1 == program.steps.len() {
            // Final state of the predicate path reached on this element.
            if let Some(attr_sym) = program.attribute {
                let attr_name = self.table.symbols().resolve(attr_sym);
                if attr_holds(self.attrs, attr_name, program.condition.as_ref()) {
                    resolve_instance(
                        self.instances,
                        self.unresolved,
                        self.resolved,
                        pr.instance,
                        true,
                    );
                }
            } else if program.condition.is_none() {
                // Pure existence test.
                resolve_instance(
                    self.instances,
                    self.unresolved,
                    self.resolved,
                    pr.instance,
                    true,
                );
            } else {
                // A value condition on the element's direct text: watch it.
                self.new_frame.watchers.push(Watcher {
                    instance: pr.instance,
                    buffered: 0,
                    saw_text: false,
                });
            }
        } else {
            self.new_frame.pred_runs.push(PredRun {
                instance: pr.instance,
                position: pr.position + 1,
            });
        }
    }
}

/// `[@name]` / `[@name = "v"]` against an open tag's attributes: the attribute
/// must exist and, when a condition is given, satisfy it. Shared by the
/// immediate edge checks and the final step of attribute predicate paths.
fn attr_holds(attrs: AttrsRef<'_>, name: &str, condition: Option<&ValueCondition>) -> bool {
    match attrs.find(name) {
        Some(value) => condition.map(|c| c.holds(value)).unwrap_or(true),
        None => false,
    }
}

fn resolve_instance(
    instances: &mut [InstanceSlot],
    unresolved: &mut usize,
    resolved: &mut Vec<Resolution>,
    id: InstanceId,
    satisfied: bool,
) {
    let slot = &mut instances[id.0 as usize];
    if slot.resolved.is_none() {
        slot.resolved = Some(satisfied);
        *unresolved -= 1;
        resolved.push(Resolution {
            instance: id,
            satisfied,
        });
    }
}

/// Registers every run and predicate run of `frame` (at `depth`) in the
/// per-symbol buckets, recording the touched buckets on the frame.
fn register_frame(
    table: &DispatchTable,
    instances: &[InstanceSlot],
    frame: &mut Frame,
    depth: u32,
    buckets: &mut [Vec<BucketEntry>],
    wild_bucket: &mut Vec<BucketEntry>,
    entries: &mut usize,
) {
    let Frame {
        runs,
        pred_runs,
        touched,
        ..
    } = frame;
    let mut push = |sym: Option<sdds_xml::Symbol>, entry: BucketEntry| {
        let (id, bucket) = match sym {
            Some(s) => (s.0, &mut buckets[s.index()]),
            None => (WILD_BUCKET, &mut *wild_bucket),
        };
        bucket.push(entry);
        *entries += 1;
        if touched.last() != Some(&id) {
            touched.push(id);
        }
    };
    for (i, run) in runs.iter().enumerate() {
        for &e in &table.node(run.node).edges {
            push(
                table.edge(e).sym,
                BucketEntry::Nav {
                    depth,
                    run: i as u32,
                    edge: e,
                },
            );
        }
    }
    for (i, pr) in pred_runs.iter().enumerate() {
        let program = table.pred(instances[pr.instance.0 as usize].pred);
        let step = &program.steps[pr.position as usize];
        push(
            step.sym,
            BucketEntry::Pred {
                depth,
                run: i as u32,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::compile_str;
    use sdds_xml::{Event, Parser};

    fn engine_for(rules: &[(&str, Sign)], query: Option<&str>) -> RuleEngine {
        let compiled: Vec<EngineRule> = rules
            .iter()
            .enumerate()
            .map(|(i, (expr, sign))| EngineRule {
                id: RuleId(i as u32),
                sign: *sign,
                path: compile_str(expr).unwrap(),
            })
            .collect();
        let query = query.map(|q| compile_str(q).unwrap());
        RuleEngine::new(compiled, query.as_ref())
    }

    /// What the engine reported for one event: the resolutions it
    /// triggered, then the annotation of an open tag.
    #[derive(Debug, Clone)]
    enum Out {
        Resolved(u32, bool),
        Open(String, NodeAnnotation),
    }

    fn step(engine: &mut RuleEngine, event: &Event, out: &mut Vec<Out>) {
        let mut resolved = Vec::new();
        let annotation = engine.process(event.as_event_ref(), &mut resolved).cloned();
        out.extend(
            resolved
                .into_iter()
                .map(|r| Out::Resolved(r.instance.0, r.satisfied)),
        );
        if let Some(annotation) = annotation {
            out.push(Out::Open(event.name().unwrap().to_owned(), annotation));
        }
    }

    fn run(engine: &mut RuleEngine, doc: &str) -> Vec<Out> {
        let mut out = Vec::new();
        for event in Parser::parse_all(doc).unwrap() {
            step(engine, &event, &mut out);
        }
        out
    }

    /// Collects, for each element (in document order), the rules that matched
    /// unconditionally on it.
    fn unconditional_matches(outputs: &[Out]) -> Vec<(String, Vec<u32>)> {
        outputs
            .iter()
            .filter_map(|o| match o {
                Out::Open(name, ann) => Some((
                    name.clone(),
                    ann.direct()
                        .filter(|(_, m)| m.is_unconditional())
                        .map(|(d, _)| d.rule.0)
                        .collect(),
                )),
                Out::Resolved(..) => None,
            })
            .collect()
    }

    fn resolutions(outputs: &[Out]) -> Vec<(u32, bool)> {
        outputs
            .iter()
            .filter_map(|o| match o {
                Out::Resolved(instance, satisfied) => Some((*instance, *satisfied)),
                Out::Open(..) => None,
            })
            .collect()
    }

    fn annotation_of(outputs: &[Out], element: &str) -> NodeAnnotation {
        outputs
            .iter()
            .find_map(|o| match o {
                Out::Open(name, ann) if name == element => Some(ann.clone()),
                _ => None,
            })
            .unwrap()
    }

    #[test]
    fn simple_child_path_matches_expected_nodes() {
        let mut e = engine_for(&[("/a/b", Sign::Permit)], None);
        let out = run(&mut e, "<a><b/><c><b/></c><b/></a>");
        let matches = unconditional_matches(&out);
        // Only the two b children of a match /a/b; the nested one does not.
        assert_eq!(
            matches,
            vec![
                ("a".into(), vec![]),
                ("b".into(), vec![0]),
                ("c".into(), vec![]),
                ("b".into(), vec![]),
                ("b".into(), vec![0]),
            ]
        );
    }

    #[test]
    fn descendant_and_wildcard_paths() {
        let mut e = engine_for(&[("//b", Sign::Permit), ("/a/*", Sign::Deny)], None);
        let out = run(&mut e, "<a><b><b/></b><c/></a>");
        let matches = unconditional_matches(&out);
        assert_eq!(
            matches,
            vec![
                ("a".into(), vec![]),
                ("b".into(), vec![0, 1]), // //b and /a/*
                ("b".into(), vec![0]),    // //b only (not a child of a)
                ("c".into(), vec![1]),    // /a/* only
            ]
        );
    }

    #[test]
    fn attribute_predicates_filter_matches_immediately() {
        let mut e = engine_for(&[("//item[@sensitive = \"true\"]", Sign::Deny)], None);
        let out = run(
            &mut e,
            "<r><item sensitive=\"true\"/><item sensitive=\"false\"/><item/></r>",
        );
        let matches = unconditional_matches(&out);
        assert_eq!(matches[1].1, vec![0]);
        assert!(matches[2].1.is_empty());
        assert!(matches[3].1.is_empty());
        // No pending instance was needed.
        assert_eq!(e.stats().instances_created, 0);
    }

    #[test]
    fn figure2_rule_is_pending_until_predicate_resolves() {
        // //b[c]/d with the c arriving *after* d: the match on d must be
        // conditional, and the instance must resolve to true later.
        let mut e = engine_for(&[("//b[c]/d", Sign::Permit)], None);
        let out = run(&mut e, "<r><b><d>x</d><c/></b></r>");
        // The d node match is conditional (no unconditional match recorded).
        let matches = unconditional_matches(&out);
        assert!(matches.iter().all(|(_, rules)| rules.is_empty()));
        // One instance created, resolved true when c opens.
        assert_eq!(e.stats().instances_created, 1);
        assert_eq!(resolutions(&out), vec![(0, true)]);
        // And the conditional match on d references that instance.
        let d_annotation = annotation_of(&out, "d");
        assert_eq!(d_annotation.direct().count(), 1);
        let (_, matches) = d_annotation.direct().next().unwrap();
        assert_eq!(
            matches.alternatives().collect::<Vec<_>>(),
            vec![&[InstanceId(0)][..]]
        );
    }

    #[test]
    fn unsatisfied_predicate_resolves_false_at_context_close() {
        let mut e = engine_for(&[("//b[c]/d", Sign::Permit)], None);
        let out = run(&mut e, "<r><b><d>x</d></b><b><c/><d>y</d></b></r>");
        // First b: no c => instance resolves false at </b>.
        // Second b: c present => instance resolves true; d match conditional on it.
        let res = resolutions(&out);
        assert!(res.contains(&(0, false)));
        assert!(res.contains(&(1, true)));
        assert_eq!(e.stats().instances_created, 2);
    }

    #[test]
    fn value_condition_on_element_text() {
        let mut e = engine_for(&[("//act[date = \"2004\"]/report", Sign::Permit)], None);
        let out = run(
            &mut e,
            "<r><act><date>2004</date><report>a</report></act><act><date>2005</date><report>b</report></act></r>",
        );
        let res = resolutions(&out);
        // First act: date text matches => true. Second act: never satisfied =>
        // false at </act>.
        assert!(res.contains(&(0, true)));
        assert!(res.contains(&(1, false)));
    }

    #[test]
    fn self_text_condition() {
        let mut e = engine_for(&[("//rating[. <= 12]", Sign::Deny)], None);
        let out = run(&mut e, "<r><rating>7</rating><rating>16</rating></r>");
        let res = resolutions(&out);
        assert!(res.contains(&(0, true)));
        assert!(res.contains(&(1, false)));
    }

    #[test]
    fn query_matches_are_annotated_separately() {
        let mut e = engine_for(&[("//b", Sign::Permit)], Some("//c"));
        let out = run(&mut e, "<a><b/><c/></a>");
        let mut saw_query = false;
        for o in &out {
            if let Out::Open(name, ann) = o {
                if name == "c" {
                    assert!(ann.query().unwrap().is_unconditional());
                    saw_query = true;
                } else {
                    assert!(ann.query().is_none());
                }
            }
        }
        assert!(saw_query);
        assert_eq!(e.active_query_positions(), vec![0]);
    }

    #[test]
    fn active_positions_reflect_partial_matches() {
        let mut e = engine_for(&[("/a/b/c", Sign::Permit)], None);
        let events = Parser::parse_all("<a><b><c/></b></a>").unwrap();
        e.process(events[0].as_event_ref(), &mut Vec::new()); // <a>
        assert_eq!(e.active_positions(), vec![vec![0, 1]]);
        e.process(events[1].as_event_ref(), &mut Vec::new()); // <b>
        assert_eq!(e.active_positions(), vec![vec![0, 1, 2]]);
        e.process(events[2].as_event_ref(), &mut Vec::new()); // <c>
        e.process(events[3].as_event_ref(), &mut Vec::new()); // </c>
        e.process(events[4].as_event_ref(), &mut Vec::new()); // </b>
        assert_eq!(e.active_positions(), vec![vec![0, 1]]);
        e.process(events[5].as_event_ref(), &mut Vec::new()); // </a>
        assert_eq!(e.active_positions(), vec![vec![0]]);
        assert_eq!(e.depth(), 0);
    }

    #[test]
    fn backtracking_discards_runs_created_in_closed_subtrees() {
        let mut e = engine_for(&[("//b//d", Sign::Permit)], None);
        let out = run(&mut e, "<a><b><x/></b><d/></a>");
        // The d element is NOT under a b (the b closed before), so no match.
        let matches = unconditional_matches(&out);
        assert!(matches.iter().all(|(_, rules)| rules.is_empty()));
    }

    #[test]
    fn match_alternatives_evaluation() {
        let rule = (RuleId(0), Sign::Permit);
        let mut ann = NodeAnnotation::default();
        ann.add_rule(0, rule, &[InstanceId(0), InstanceId(1)]);
        ann.add_rule(0, rule, &[InstanceId(2)]);
        let truth = |known: Vec<(u32, bool)>| {
            move |id: InstanceId| known.iter().find(|(i, _)| *i == id.0).map(|(_, v)| *v)
        };
        let m = ann.direct().next().unwrap().1;
        assert_eq!(m.evaluate(truth(vec![])), None);
        assert_eq!(m.evaluate(truth(vec![(0, true), (1, true)])), Some(true));
        assert_eq!(m.evaluate(truth(vec![(2, true)])), Some(true));
        assert_eq!(m.evaluate(truth(vec![(0, false), (2, false)])), Some(false));
        assert_eq!(m.evaluate(truth(vec![(0, false)])), None);
        // Unconditional alternative short-circuits everything.
        ann.add_rule(0, rule, &[]);
        let m = ann.direct().next().unwrap().1;
        assert!(m.is_unconditional());
        assert_eq!(m.evaluate(truth(vec![])), Some(true));
        assert_eq!(m.alternatives().count(), 0);
        // The query's alternatives are its own.
        assert!(ann.query().is_none());
        ann.add_query(&[InstanceId(3)]);
        let q = ann.query().unwrap();
        assert!(!q.is_unconditional());
        assert_eq!(
            q.alternatives().collect::<Vec<_>>(),
            vec![&[InstanceId(3)][..]]
        );
        // Clearing keeps nothing.
        ann.clear();
        assert_eq!(ann, NodeAnnotation::default());
    }

    #[test]
    fn ram_accounting_grows_with_depth_and_shrinks_on_close() {
        let mut e = engine_for(&[("//a//a//a", Sign::Permit)], None);
        let deep: String = (0..10).map(|_| "<a>").collect::<String>()
            + &(0..10).map(|_| "</a>").collect::<String>();
        let events = Parser::parse_all(&deep).unwrap();
        let mut max_seen = 0usize;
        for ev in &events[..10] {
            e.process(ev.as_event_ref(), &mut Vec::new());
            max_seen = max_seen.max(e.ram_bytes());
        }
        let at_peak = e.ram_bytes();
        for ev in &events[10..] {
            e.process(ev.as_event_ref(), &mut Vec::new());
        }
        assert!(e.ram_bytes() < at_peak);
        assert!(e.stats().peak_ram_bytes >= max_seen);
        assert!(e.stats().run_activations > 0);
    }

    #[test]
    fn multiple_rules_matching_same_node_are_all_reported() {
        let mut e = engine_for(
            &[
                ("//patient/name", Sign::Permit),
                ("//name", Sign::Deny),
                ("/hospital/patient/name", Sign::Permit),
            ],
            None,
        );
        let out = run(
            &mut e,
            "<hospital><patient><name>x</name></patient></hospital>",
        );
        let name_ann = annotation_of(&out, "name");
        let rule_ids: Vec<u32> = name_ann.direct().map(|(d, _)| d.rule.0).collect();
        assert_eq!(rule_ids, vec![0, 1, 2]);
    }

    #[test]
    fn duplicate_rules_share_one_path_and_both_match() {
        let mut e = engine_for(
            &[
                ("//patient/name", Sign::Permit),
                ("//patient/name", Sign::Deny),
            ],
            None,
        );
        assert_eq!(e.dispatch().edge_count(), 2, "duplicate objects collapse");
        let out = run(&mut e, "<h><patient><name>x</name></patient></h>");
        let matches = unconditional_matches(&out);
        assert_eq!(matches[2], ("name".into(), vec![0, 1]));
    }

    fn is_clear(frame: &Frame) -> bool {
        frame.runs.is_empty()
            && frame.deps.is_empty()
            && frame.pred_runs.is_empty()
            && frame.watchers.is_empty()
            && frame.watched_text.is_empty()
            && frame.owned_instances.is_empty()
            && frame.touched.is_empty()
    }

    /// The token stack reuses each depth's frame in place: a sibling that
    /// activates nothing opens on a clear frame after one that held runs,
    /// owned instances, predicate runs and watchers, every frame past the
    /// live count is clear, and the stack never grows past the deepest
    /// element, across two documents.
    #[test]
    fn token_stack_reuses_its_frames_in_place() {
        use crate::baseline::authorized_view_oracle;
        use crate::conflict::AccessPolicy;
        use crate::evaluator::{ram_props, EvaluatorConfig, StreamingEvaluator};
        use crate::rule::Subject;
        use sdds_xml::{writer, Document};

        // `act` (depth 3) opens a run towards `report` and owns the `[date]`
        // instance of `//act[date]/physician`; `dosage` watches its text for
        // `[dosage = "100 mg"]`. Each `note` sibling matches nothing.
        let docs = [
            "<folder><acts><act type=\"surgery\"><date>1</date><physician>p</physician>\
             <report>r</report></act><note>n</note></acts><prescription>\
             <dosage>100 mg</dosage><note>m</note><drug>x</drug></prescription></folder>",
            "<folder><prescription><dosage>250 mg</dosage><drug>y</drug></prescription>\
             <acts><note>o</note><act type=\"visit\"><physician>q</physician></act></acts>\
             </folder>",
        ]
        .map(|xml| Document::parse(xml).unwrap());
        let rules = ram_props::rules();
        let subject = Subject::new("auditor");
        let mut evaluator =
            StreamingEvaluator::new(&EvaluatorConfig::new(rules.clone(), "auditor")).unwrap();
        let (mut view, mut expected) = (Vec::new(), Vec::new());
        let (mut held_runs, mut held_owned, mut held_watchers) = (false, false, false);
        let mut deepest = 0;
        for doc in &docs {
            for event in doc.to_events() {
                evaluator.push(event.as_event_ref(), &mut view);
                let engine = evaluator.engine();
                deepest = deepest.max(engine.depth());
                assert_eq!(
                    engine.frames.len(),
                    deepest + 1,
                    "one frame per depth reached"
                );
                assert!(engine.frames[engine.live..].iter().all(is_clear));
                if let Event::Open { name, .. } = &event {
                    let frame = &engine.frames[engine.depth()];
                    match &**name {
                        "note" => assert!(is_clear(frame), "a note reuses a clear frame"),
                        "act" => {
                            held_runs |= !frame.runs.is_empty() && !frame.pred_runs.is_empty();
                            held_owned |= !frame.owned_instances.is_empty();
                        }
                        "dosage" => held_watchers |= !frame.watchers.is_empty(),
                        _ => {}
                    }
                }
            }
            expected.extend(authorized_view_oracle(
                doc,
                &rules,
                &subject,
                None,
                &AccessPolicy::paper(),
            ));
        }
        assert!(
            held_runs && held_owned && held_watchers,
            "the depth-3 frames held state"
        );
        assert_eq!(
            evaluator.engine().frames.len(),
            5,
            "maximum depth 4, plus the document"
        );
        assert_eq!(writer::to_string(&view), writer::to_string(&expected));
        assert!(!view.is_empty());
        evaluator.finish().unwrap();
    }
}
