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
//! Rules can be added and removed mid-stream ([`RuleEngine::add_rule`] /
//! [`RuleEngine::remove_rule`]): the dispatch trie is rebuilt (symbols and
//! predicate programs are append-only, so live state stays valid) and the
//! active runs are remapped onto the new trie, preserving the matches of every
//! rule that survives the change.
//!
//! The engine does **not** decide anything by itself: it annotates the event
//! stream with the rule/query matches of each node and emits instance
//! resolutions; conflict resolution and view construction happen downstream in
//! [`crate::assembler`], mirroring the sign-stack of the paper.

use std::collections::HashMap;

use sdds_xml::{Attribute, Event};
use sdds_xpath::Axis;

use crate::automaton::{CompiledPath, ValueCondition};
use crate::dispatch::{DispatchTable, EdgeId, NodeId, PredId, Target};
use crate::rule::{AccessRule, RuleId, Sign};

/// Identifier of a pending predicate instance (an entry of the paper's
/// *predicate set*).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstanceId(pub u32);

/// The alternatives under which a rule (or the query) matches a node: each
/// alternative is a conjunction of pending instances that must all resolve to
/// `true`; the match applies if **any** alternative holds. An empty
/// conjunction means the match holds unconditionally.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MatchAlternatives {
    /// The alternatives.
    pub alternatives: Vec<Vec<InstanceId>>,
}

impl MatchAlternatives {
    /// Adds one alternative (a conjunction of instance ids).
    pub fn add(&mut self, conjunction: Vec<InstanceId>) {
        // An unconditional alternative makes every other alternative redundant.
        if conjunction.is_empty() {
            self.alternatives.clear();
            self.alternatives.push(conjunction);
        } else if !self.is_unconditional() {
            self.alternatives.push(conjunction);
        }
    }

    /// True if the match holds whatever the pending instances resolve to.
    pub fn is_unconditional(&self) -> bool {
        self.alternatives.iter().any(Vec::is_empty)
    }

    /// Evaluates the match against the currently known instance truths.
    /// Returns `Some(true)` / `Some(false)` when determined, `None` while at
    /// least one relevant instance is still unresolved.
    pub fn evaluate(&self, truth: &dyn Fn(InstanceId) -> Option<bool>) -> Option<bool> {
        let mut any_unknown = false;
        for alt in &self.alternatives {
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

    /// All instance ids mentioned by the alternatives.
    pub fn instance_ids(&self) -> impl Iterator<Item = InstanceId> + '_ {
        self.alternatives.iter().flatten().copied()
    }
}

/// A rule that reached its navigational final state on a node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirectMatch {
    /// The rule.
    pub rule: RuleId,
    /// Its sign.
    pub sign: Sign,
    /// Conditions under which the match actually applies.
    pub matches: MatchAlternatives,
}

/// Per-node annotation produced by the engine for `open` events.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeAnnotation {
    /// Rules whose navigational path ends on this node.
    pub direct: Vec<DirectMatch>,
    /// Query match on this node, if a query is installed and its navigational
    /// path ends here.
    pub query: Option<MatchAlternatives>,
}

/// Output of the engine for one input event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineOutput {
    /// The input event, annotated for `open` events.
    Annotated {
        /// The event.
        event: Event,
        /// Node annotation (`Some` for `Open`, `None` otherwise).
        annotation: Option<NodeAnnotation>,
    },
    /// A pending predicate instance was resolved.
    Resolved {
        /// The instance.
        instance: InstanceId,
        /// Whether the predicate is satisfied.
        satisfied: bool,
    },
}

/// An active navigational state: the runs of a frame sit on the trie node the
/// element owning the frame moved them to.
#[derive(Debug, Clone)]
struct Run {
    node: NodeId,
    deps: Vec<InstanceId>,
}

/// An active state of a predicate path instance (`position` steps of the
/// instance's program are matched).
#[derive(Debug, Clone, Copy)]
struct PredRun {
    instance: InstanceId,
    position: u32,
}

/// Direct-text accumulator for a value condition (`[. = "v"]`, `[c = "v"]`).
#[derive(Debug, Clone)]
struct Watcher {
    instance: InstanceId,
    condition: Option<ValueCondition>,
    buffer: String,
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
    pred_runs: Vec<PredRun>,
    watchers: Vec<Watcher>,
    owned_instances: Vec<InstanceId>,
    /// Buckets this frame registered entries into; popped on close.
    touched: Vec<u32>,
}

impl Frame {
    fn ram_bytes(&self) -> usize {
        // With interned names the stack entry itself is a token id, not the
        // tag string: charge a small fixed bookkeeping cost per frame.
        4 + self
            .runs
            .iter()
            .map(|r| 8 + 4 * r.deps.len())
            .sum::<usize>()
            + self.pred_runs.len() * 6
            + self
                .watchers
                .iter()
                .map(|w| 8 + w.buffer.len())
                .sum::<usize>()
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
    /// Combined-automaton rebuilds triggered by rule updates.
    pub dispatch_rebuilds: usize,
}

/// A rule-or-query key stable across rule vector reindexing, used to remap
/// active runs when the dispatch trie is rebuilt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum TargetKey {
    Rule(RuleId),
    Query,
}

/// Trie-independent image of the active runs (per frame, per run: the stable
/// `(target, position)` pairs of its node plus its instance dependencies).
type RunSnapshot = Vec<Vec<(Vec<(TargetKey, u32)>, Vec<InstanceId>)>>;

/// The streaming automata engine.
#[derive(Debug)]
pub struct RuleEngine {
    rules: Vec<EngineRule>,
    query: Option<CompiledPath>,
    table: DispatchTable,
    frames: Vec<Frame>,
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
    /// Unresolved pending instances (incremental — the instance pool is
    /// append-only, so scanning it per event would be quadratic in stream
    /// length).
    unresolved_instances: usize,
    /// Live entries across all buckets (incremental, same reason).
    bucket_entries: usize,
    stats: EngineStats,
}

impl RuleEngine {
    /// Creates an engine for a set of compiled rules and an optional query.
    pub fn new(rules: Vec<EngineRule>, query: Option<CompiledPath>) -> Self {
        let table = DispatchTable::build(rules.iter().map(|r| &r.path), query.as_ref());
        let symbol_count = table.symbols().len();
        RuleEngine {
            rules,
            query,
            table,
            // frames[0] is the virtual document node.
            // alloc: startup — engine construction at session open.
            frames: vec![Frame::default()],
            instances: Vec::new(),
            // alloc: startup — engine construction at session open.
            buckets: vec![Vec::new(); symbol_count],
            wild_bucket: Vec::new(),
            scratch: Vec::new(),
            root_scratch: Vec::new(),
            unresolved_instances: 0,
            bucket_entries: 0,
            stats: EngineStats::default(),
        }
    }

    /// Installed rules.
    pub fn rules(&self) -> &[EngineRule] {
        &self.rules
    }

    /// Installed query automaton, if any.
    pub fn query(&self) -> Option<&CompiledPath> {
        self.query.as_ref()
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
        self.frames.len() - 1
    }

    /// Positions (numbers of matched navigational steps) currently active for
    /// each installed rule, including the implicit initial position 0. The
    /// skip-index logic uses these to ask whether a rule could still progress
    /// inside an upcoming subtree.
    pub fn active_positions(&self) -> Vec<Vec<usize>> {
        // alloc: amortized — one position list per skip probe, bounded by the rule count.
        let mut positions = vec![vec![0usize]; self.rules.len()];
        for frame in &self.frames {
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

    /// Active positions of the query automaton (empty when no query is set).
    pub fn active_query_positions(&self) -> Vec<usize> {
        if self.query.is_none() {
            return Vec::new();
        }
        // alloc: amortized — one position list per skip probe, bounded by the rule count.
        let mut positions = vec![0usize];
        for frame in &self.frames {
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

    /// Current secure-RAM footprint of the engine structures, in bytes. Only
    /// the token stack is walked (bounded by document depth); the instance and
    /// bucket contributions are tracked incrementally.
    pub fn ram_bytes(&self) -> usize {
        let frames: usize = self.frames.iter().map(Frame::ram_bytes).sum();
        // An unresolved instance is one predicate-set entry referencing a
        // shared program (the program itself lives with the compiled rules in
        // program memory); resolved instances boil down to one bit.
        frames + self.bucket_entries * 4 + self.unresolved_instances * 8 + self.instances.len() / 8
    }

    /// Installs an additional rule mid-stream. The combined automaton is
    /// rebuilt (symbols and predicate programs are reused) and the active runs
    /// of the existing rules are preserved; the new rule starts matching from
    /// the current stream position.
    ///
    /// Retroactivity over the *currently open* subtree is best-effort: the
    /// events that opened it are gone, so partial matches for the new rule
    /// cannot be reconstructed in general (in particular, predicate evidence
    /// seen before the addition is unrecoverable). Prefixes the new rule
    /// shares with existing rules keep their live runs (and immediately serve
    /// it); unshared prefixes begin matching at the next element opening.
    /// Security-sensitive callers should apply policy changes between
    /// documents — the paper's model — where this distinction vanishes.
    ///
    /// Fails on a duplicate rule id: run remapping across the rebuild is
    /// keyed by rule id, so two rules sharing one id would corrupt the live
    /// state of both.
    pub fn add_rule(&mut self, rule: EngineRule) -> Result<(), crate::error::CoreError> {
        if self.rules.iter().any(|r| r.id == rule.id) {
            return Err(crate::error::CoreError::BadState {
                message: format!("rule id {} is already installed", rule.id.0),
            });
        }
        let snapshot = self.snapshot_runs();
        self.rules.push(rule);
        self.rebuild_dispatch(snapshot);
        Ok(())
    }

    /// Removes a rule by id mid-stream; returns true if it was installed.
    /// Pending instances spawned by the removed rule resolve normally (their
    /// resolutions simply stop influencing any match).
    pub fn remove_rule(&mut self, id: RuleId) -> bool {
        let Some(pos) = self.rules.iter().position(|r| r.id == id) else {
            return false;
        };
        let snapshot = self.snapshot_runs();
        self.rules.remove(pos);
        self.rebuild_dispatch(snapshot);
        true
    }

    /// Captures, per frame, each active run as its stable `(target key,
    /// position)` pairs plus its dependencies — the trie-independent view of
    /// the run used for remapping.
    fn snapshot_runs(&self) -> RunSnapshot {
        self.frames
            .iter()
            .map(|frame| {
                frame
                    .runs
                    .iter()
                    .map(|run| {
                        let keys = self
                            .table
                            .node(run.node)
                            .positions
                            .iter()
                            .map(|&(t, p)| (self.target_key(t), p))
                            .collect();
                        (keys, run.deps.clone())
                    })
                    .collect()
            })
            .collect()
    }

    fn target_key(&self, target: Target) -> TargetKey {
        match target {
            Target::Rule(i) => TargetKey::Rule(self.rules[i].id),
            Target::Query => TargetKey::Query,
        }
    }

    /// Rebuilds the dispatch trie for the current rule vector and remaps the
    /// snapshotted runs onto it. Incremental in the sense that the symbol
    /// table and predicate arena are reused and only the live runs (bounded by
    /// depth × distinct prefixes) are re-registered.
    fn rebuild_dispatch(&mut self, snapshot: RunSnapshot) {
        self.stats.dispatch_rebuilds += 1;
        self.table
            .rebuild(self.rules.iter().map(|r| &r.path), self.query.as_ref());
        let key_map: HashMap<(TargetKey, u32), NodeId> = self
            .table
            .position_map()
            .into_iter()
            .map(|((t, p), n)| {
                let key = match t {
                    Target::Rule(i) => TargetKey::Rule(self.rules[i].id),
                    Target::Query => TargetKey::Query,
                };
                ((key, p), n)
            })
            .collect();

        // Remap runs: every (target, position) pair of an old node maps to the
        // same new node (nodes group prefix-equal paths), so the first
        // surviving pair locates it.
        for (frame, old_runs) in self.frames.iter_mut().zip(snapshot) {
            frame.runs.clear();
            for (keys, deps) in old_runs {
                let Some(&node) = keys.iter().find_map(|k| key_map.get(k)) else {
                    continue; // every rule of this prefix was removed
                };
                if !frame.runs.iter().any(|r| r.node == node && r.deps == deps) {
                    frame.runs.push(Run { node, deps });
                }
            }
        }

        // Re-register every live state in the (resized) buckets, in depth
        // order so each bucket stays sorted by depth.
        self.buckets.clear();
        self.buckets
            .resize_with(self.table.symbols().len(), Vec::new);
        self.wild_bucket.clear();
        self.bucket_entries = 0;
        for depth in 0..self.frames.len() {
            let frame = &mut self.frames[depth];
            frame.touched.clear();
            register_frame(
                &self.table,
                &self.instances,
                frame,
                depth as u32,
                &mut self.buckets,
                &mut self.wild_bucket,
                &mut self.bucket_entries,
            );
        }
    }

    /// Processes one event, appending the engine outputs it triggers to
    /// `outputs`: the instance resolutions it causes, then the event itself,
    /// moved into [`EngineOutput::Annotated`].
    pub fn process(&mut self, event: Event, outputs: &mut Vec<EngineOutput>) {
        self.stats.events += 1;
        let annotation = match &event {
            Event::Open { name, attrs } => Some(self.process_open(name, attrs, outputs)),
            Event::Text(text) => {
                self.process_text(text, outputs);
                None
            }
            Event::Close(_) => {
                self.process_close(outputs);
                None
            }
        };
        outputs.push(EngineOutput::Annotated { event, annotation });
        self.stats.peak_ram_bytes = self.stats.peak_ram_bytes.max(self.ram_bytes());
    }

    /// Steps the automata on an `open` event and returns the node's
    /// annotation.
    fn process_open(
        &mut self,
        name: &str,
        attrs: &[Attribute],
        outputs: &mut Vec<EngineOutput>,
    ) -> NodeAnnotation {
        let depth = self.frames.len(); // depth of the element being opened
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

        let mut new_frame = Frame::default();
        let mut direct: Vec<(usize, MatchAlternatives)> = Vec::new();
        let mut query_match: Option<MatchAlternatives> = None;
        let mut memo: Vec<(PredId, InstanceId)> = Vec::new();

        {
            let RuleEngine {
                ref table,
                ref frames,
                ref mut instances,
                ref mut unresolved_instances,
                ref mut stats,
                ..
            } = *self;
            let mut scope = OpenScope {
                table,
                instances,
                unresolved: unresolved_instances,
                stats,
                outputs,
                new_frame: &mut new_frame,
                memo: &mut memo,
                direct: &mut direct,
                query_match: &mut query_match,
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
                        let deps = &frames[run_depth as usize].runs[run as usize].deps;
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

        // Assemble the annotation and push + register the frame.
        let mut annotation = NodeAnnotation {
            // alloc: amortized — annotation scratch bounded by the rules matching this node.
            direct: Vec::with_capacity(direct.len()),
            query: query_match,
        };
        direct.sort_unstable_by_key(|(i, _)| *i);
        for (i, matches) in direct {
            annotation.direct.push(DirectMatch {
                rule: self.rules[i].id,
                sign: self.rules[i].sign,
                matches,
            });
        }
        self.frames.push(new_frame);
        // lint: infallible — pushed on the preceding line.
        let frame = self.frames.last_mut().expect("frame just pushed");
        register_frame(
            &self.table,
            &self.instances,
            frame,
            depth as u32,
            &mut self.buckets,
            &mut self.wild_bucket,
            &mut self.bucket_entries,
        );
        annotation
    }

    fn process_text(&mut self, text: &str, outputs: &mut Vec<EngineOutput>) {
        // Feed the watchers of the element directly containing this text.
        let depth = self.frames.len() - 1;
        let mut resolved_now: Vec<(InstanceId, bool)> = Vec::new();
        if depth >= 1 {
            let frame = &mut self.frames[depth];
            for w in &mut frame.watchers {
                if self.instances[w.instance.0 as usize].resolved.is_some() {
                    continue;
                }
                w.buffer.push_str(text);
                w.saw_text = true;
                if w.condition.is_none() && !text.trim().is_empty() {
                    // Existence of direct text is enough.
                    resolved_now.push((w.instance, true));
                }
            }
        }
        for (id, value) in resolved_now {
            resolve_instance(
                &mut self.instances,
                &mut self.unresolved_instances,
                outputs,
                id,
                value,
            );
        }
    }

    fn process_close(&mut self, outputs: &mut Vec<EngineOutput>) {
        let depth = (self.frames.len() - 1) as u32;
        // lint: infallible — the tokenizer only emits balanced events, so
        // every close has a matching open frame.
        let frame = self.frames.pop().expect("close without a matching open");
        // Unregister the frame's bucket entries (always the bucket suffix:
        // registrations only ever target the innermost open element).
        for &b in &frame.touched {
            let bucket = if b == WILD_BUCKET {
                &mut self.wild_bucket
            } else {
                &mut self.buckets[b as usize]
            };
            while bucket.last().is_some_and(|e| e.depth() == depth) {
                bucket.pop();
                self.bucket_entries -= 1;
            }
        }
        // Evaluate the direct-text watchers anchored on the closing element.
        for w in &frame.watchers {
            if self.instances[w.instance.0 as usize].resolved.is_some() {
                continue;
            }
            if let Some(condition) = &w.condition {
                if w.saw_text && condition.holds(&w.buffer) {
                    resolve_instance(
                        &mut self.instances,
                        &mut self.unresolved_instances,
                        outputs,
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
                outputs,
                *id,
                false,
            );
        }
    }
}

/// Mutable context of one `open` event (split borrows of the engine).
struct OpenScope<'a> {
    table: &'a DispatchTable,
    instances: &'a mut Vec<InstanceSlot>,
    unresolved: &'a mut usize,
    stats: &'a mut EngineStats,
    outputs: &'a mut Vec<EngineOutput>,
    new_frame: &'a mut Frame,
    /// Per-event memo: one pending instance per deferred predicate, shared by
    /// every run/rule reaching this element through it (the predicate is
    /// anchored on the element, not on the path that led here).
    memo: &'a mut Vec<(PredId, InstanceId)>,
    direct: &'a mut Vec<(usize, MatchAlternatives)>,
    query_match: &'a mut Option<MatchAlternatives>,
    depth: usize,
    attrs: &'a [Attribute],
}

impl OpenScope<'_> {
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
        // alloc: amortized — dependency list per fired edge, bounded by the edge's deferred predicates.
        let mut new_deps = deps.to_vec();
        for &pid in &edge.deferred {
            new_deps.push(self.instance_for(pid));
        }
        for &target in &edge.accepts {
            match target {
                Target::Rule(i) => {
                    let matches = match self.direct.iter_mut().find(|(r, _)| *r == i) {
                        Some((_, m)) => m,
                        None => {
                            self.direct.push((i, MatchAlternatives::default()));
                            // lint: infallible — pushed on the line above.
                            &mut self.direct.last_mut().expect("just pushed").1
                        }
                    };
                    // alloc: amortized — alternative sets share the per-edge dependency list, bounded by rule fan-out.
                    matches.add(new_deps.clone());
                }
                Target::Query => {
                    self.query_match
                        .get_or_insert_with(MatchAlternatives::default)
                        // alloc: amortized — alternative sets share the per-edge dependency list, bounded by rule fan-out.
                        .add(new_deps.clone());
                }
            }
        }
        if let Some(node) = edge.to {
            self.stats.run_activations += 1;
            self.new_frame.runs.push(Run {
                node,
                deps: new_deps,
            });
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
        let program = self.table.pred(pid);
        if program.is_self_text() {
            self.new_frame.watchers.push(Watcher {
                instance: id,
                // alloc: amortized — a watcher captures its predicate condition once per instantiation.
                condition: program.condition.clone(),
                buffer: String::new(),
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
                        self.outputs,
                        pr.instance,
                        true,
                    );
                }
            } else if program.condition.is_none() {
                // Pure existence test.
                resolve_instance(
                    self.instances,
                    self.unresolved,
                    self.outputs,
                    pr.instance,
                    true,
                );
            } else {
                // A value condition on the element's direct text: watch it.
                self.new_frame.watchers.push(Watcher {
                    instance: pr.instance,
                    // alloc: amortized — a watcher captures its predicate condition once per instantiation.
                    condition: program.condition.clone(),
                    buffer: String::new(),
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
fn attr_holds(attrs: &[Attribute], name: &str, condition: Option<&ValueCondition>) -> bool {
    match attrs.iter().find(|a| *a.name == *name) {
        Some(attr) => condition.map(|c| c.holds(&attr.value)).unwrap_or(true),
        None => false,
    }
}

fn resolve_instance(
    instances: &mut [InstanceSlot],
    unresolved: &mut usize,
    outputs: &mut Vec<EngineOutput>,
    id: InstanceId,
    satisfied: bool,
) {
    let slot = &mut instances[id.0 as usize];
    if slot.resolved.is_none() {
        slot.resolved = Some(satisfied);
        *unresolved -= 1;
        outputs.push(EngineOutput::Resolved {
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
    use sdds_xml::Parser;

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
        RuleEngine::new(compiled, query.map(|q| compile_str(q).unwrap()))
    }

    fn run(engine: &mut RuleEngine, doc: &str) -> Vec<EngineOutput> {
        let mut out = Vec::new();
        for event in Parser::parse_all(doc).unwrap() {
            engine.process(event, &mut out);
        }
        out
    }

    /// Collects, for each element (in document order), the rules that matched
    /// unconditionally on it.
    fn unconditional_matches(outputs: &[EngineOutput]) -> Vec<(String, Vec<u32>)> {
        let mut out = Vec::new();
        for o in outputs {
            if let EngineOutput::Annotated {
                event: Event::Open { name, .. },
                annotation: Some(ann),
            } = o
            {
                let rules: Vec<u32> = ann
                    .direct
                    .iter()
                    .filter(|d| d.matches.is_unconditional())
                    .map(|d| d.rule.0)
                    .collect();
                out.push((name.to_string(), rules));
            }
        }
        out
    }

    fn resolutions(outputs: &[EngineOutput]) -> Vec<(u32, bool)> {
        outputs
            .iter()
            .filter_map(|o| match o {
                EngineOutput::Resolved {
                    instance,
                    satisfied,
                } => Some((instance.0, *satisfied)),
                _ => None,
            })
            .collect()
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
        let d_annotation = out
            .iter()
            .find_map(|o| match o {
                EngineOutput::Annotated {
                    event: Event::Open { name, .. },
                    annotation: Some(ann),
                } if &**name == "d" => Some(ann.clone()),
                _ => None,
            })
            .unwrap();
        assert_eq!(d_annotation.direct.len(), 1);
        assert_eq!(
            d_annotation.direct[0].matches.alternatives,
            vec![vec![InstanceId(0)]]
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
            if let EngineOutput::Annotated {
                event: Event::Open { name, .. },
                annotation: Some(ann),
            } = o
            {
                if &**name == "c" {
                    assert!(ann.query.as_ref().unwrap().is_unconditional());
                    saw_query = true;
                } else {
                    assert!(ann.query.is_none());
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
        e.process(events[0].clone(), &mut Vec::new()); // <a>
        assert_eq!(e.active_positions(), vec![vec![0, 1]]);
        e.process(events[1].clone(), &mut Vec::new()); // <b>
        assert_eq!(e.active_positions(), vec![vec![0, 1, 2]]);
        e.process(events[2].clone(), &mut Vec::new()); // <c>
        e.process(events[3].clone(), &mut Vec::new()); // </c>
        e.process(events[4].clone(), &mut Vec::new()); // </b>
        assert_eq!(e.active_positions(), vec![vec![0, 1]]);
        e.process(events[5].clone(), &mut Vec::new()); // </a>
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
        let mut m = MatchAlternatives::default();
        m.add(vec![InstanceId(0), InstanceId(1)]);
        m.add(vec![InstanceId(2)]);
        let truth = |known: Vec<(u32, bool)>| {
            move |id: InstanceId| known.iter().find(|(i, _)| *i == id.0).map(|(_, v)| *v)
        };
        assert_eq!(m.evaluate(&truth(vec![])), None);
        assert_eq!(m.evaluate(&truth(vec![(0, true), (1, true)])), Some(true));
        assert_eq!(m.evaluate(&truth(vec![(2, true)])), Some(true));
        assert_eq!(
            m.evaluate(&truth(vec![(0, false), (2, false)])),
            Some(false)
        );
        assert_eq!(m.evaluate(&truth(vec![(0, false)])), None);
        // Unconditional alternative short-circuits everything.
        m.add(vec![]);
        assert!(m.is_unconditional());
        assert_eq!(m.evaluate(&truth(vec![])), Some(true));
        assert_eq!(m.instance_ids().count(), 0);
    }

    #[test]
    fn ram_accounting_grows_with_depth_and_shrinks_on_close() {
        let mut e = engine_for(&[("//a//a//a", Sign::Permit)], None);
        let deep: String = (0..10).map(|_| "<a>").collect::<String>()
            + &(0..10).map(|_| "</a>").collect::<String>();
        let events = Parser::parse_all(&deep).unwrap();
        let mut max_seen = 0usize;
        for ev in &events[..10] {
            e.process(ev.clone(), &mut Vec::new());
            max_seen = max_seen.max(e.ram_bytes());
        }
        let at_peak = e.ram_bytes();
        for ev in &events[10..] {
            e.process(ev.clone(), &mut Vec::new());
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
        let name_ann = out
            .iter()
            .find_map(|o| match o {
                EngineOutput::Annotated {
                    event: Event::Open { name, .. },
                    annotation: Some(ann),
                } if &**name == "name" => Some(ann.clone()),
                _ => None,
            })
            .unwrap();
        let rule_ids: Vec<u32> = name_ann.direct.iter().map(|d| d.rule.0).collect();
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

    #[test]
    fn add_rule_mid_stream_matches_remaining_elements() {
        let mut e = engine_for(&[("//a", Sign::Permit)], None);
        let events = Parser::parse_all("<r><b/><b/></r>").unwrap();
        let mut out = Vec::new();
        e.process(events[0].clone(), &mut out); // <r>
        e.process(events[1].clone(), &mut out); // <b/> — not matched yet
        e.process(events[2].clone(), &mut out);
        e.add_rule(EngineRule {
            id: RuleId(7),
            sign: Sign::Deny,
            path: compile_str("//b").unwrap(),
        })
        .unwrap();
        // A duplicate id is rejected: the rebuild remap is keyed by rule id.
        assert!(e
            .add_rule(EngineRule {
                id: RuleId(7),
                sign: Sign::Permit,
                path: compile_str("//c").unwrap(),
            })
            .is_err());
        for ev in &events[3..] {
            e.process(ev.clone(), &mut out);
        }
        let matches = unconditional_matches(&out);
        assert_eq!(
            matches,
            vec![
                ("r".into(), vec![]),
                ("b".into(), vec![]),  // before the grant
                ("b".into(), vec![7]), // after the grant
            ]
        );
        assert!(e.stats().dispatch_rebuilds >= 1);
    }

    #[test]
    fn remove_rule_mid_stream_stops_matching_and_preserves_others() {
        let mut e = engine_for(&[("//x/y", Sign::Permit), ("//y", Sign::Deny)], None);
        let events = Parser::parse_all("<r><x><y/><y/></x></r>").unwrap();
        let mut out = Vec::new();
        // Process through the first <y/> (events: <r>, <x>, <y>, </y>).
        for ev in &events[..4] {
            e.process(ev.clone(), &mut out);
        }
        // Remove //x/y while <x> is still open; rule 1 (//y) keeps matching.
        assert!(e.remove_rule(RuleId(0)));
        assert!(!e.remove_rule(RuleId(0)), "already removed");
        for ev in &events[4..] {
            e.process(ev.clone(), &mut out);
        }
        let matches = unconditional_matches(&out);
        assert_eq!(
            matches,
            vec![
                ("r".into(), vec![]),
                ("x".into(), vec![]),
                ("y".into(), vec![0, 1]), // both rules before the removal
                ("y".into(), vec![1]),    // only //y after
            ]
        );
    }

    #[test]
    fn rebuild_preserves_active_descendant_runs() {
        // A run deep inside the document must survive an unrelated rule
        // addition: //a//c is two steps into its path when the rebuild hits.
        let mut e = engine_for(&[("//a//c", Sign::Permit)], None);
        let events = Parser::parse_all("<a><b><c/></b></a>").unwrap();
        let mut out = Vec::new();
        e.process(events[0].clone(), &mut out); // <a>
        e.process(events[1].clone(), &mut out); // <b>
        e.add_rule(EngineRule {
            id: RuleId(9),
            sign: Sign::Deny,
            path: compile_str("//zzz").unwrap(),
        })
        .unwrap();
        for ev in &events[2..] {
            e.process(ev.clone(), &mut out);
        }
        let matches = unconditional_matches(&out);
        assert_eq!(matches[2], ("c".into(), vec![0]));
    }
}
