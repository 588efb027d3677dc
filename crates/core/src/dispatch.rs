//! The shared dispatch automaton: all rule automata merged into one
//! prefix-sharing transition structure over interned name symbols.
//!
//! The baseline engine of [`crate::runtime`] kept one non-deterministic
//! automaton per rule and, for every `open` event, iterated every rule's
//! candidate states and compared element names as strings. That is faithful to
//! the paper but scales linearly with the number of installed rules — the E1
//! experiment showed a collapse from ~6.3M events/s at 1 rule to ~0.5M at 64.
//!
//! [`DispatchTable`] removes that cliff by sharing work across rules:
//!
//! * every tag and attribute name mentioned by a rule is interned to a dense
//!   [`Symbol`] (see [`sdds_xml::symbols`]); document tokens are *looked up*
//!   (never interned), so a token that no rule mentions can only trigger
//!   wildcard transitions and costs one hash probe,
//! * the navigational automata of all rules (and the query) are merged into a
//!   single prefix-sharing trie: rules with equal step prefixes (same axis,
//!   node test and predicates) share [`DispatchNode`]s and [`DispatchEdge`]s,
//!   and identical rule objects collapse to one path whose final edge simply
//!   *accepts* several targets,
//! * transitions are keyed by `(state, symbol)`: the engine keeps, per symbol,
//!   a bucket of the active states waiting on that symbol, so an `open` event
//!   touches only the states that can actually advance on it,
//! * deferred predicate paths are compiled once into an arena of
//!   [`PredProgram`]s; pending instances reference a program by [`PredId`]
//!   instead of cloning the predicate steps per instance.
//!
//! A table is built once per rule set and never changes: a policy change
//! builds a new evaluator for the next session.

use std::collections::HashMap;

use sdds_xml::{Symbol, SymbolTable};
use sdds_xpath::{Axis, NodeTest};

use crate::automaton::{CompiledPath, CompiledPredicate, CompiledStep, ValueCondition};

/// What a navigational automaton belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Target {
    /// The rule at this index of the engine's rule vector.
    Rule(usize),
    /// The (single) query automaton.
    Query,
}

/// Identifier of a [`DispatchNode`]. Node 0 is the shared initial state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The shared initial state of every automaton.
    pub const ROOT: NodeId = NodeId(0);

    /// The node as a dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of a [`DispatchEdge`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// The edge as a dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of a [`PredProgram`] in the arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PredId(pub u32);

impl PredId {
    /// The program as a dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An immediate attribute check (`[@name]` / `[@name = "v"]`) with the
/// attribute name interned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttrCheck {
    /// Interned attribute name.
    pub name: Symbol,
    /// Optional value condition.
    pub condition: Option<ValueCondition>,
}

/// One transition of the combined automaton: consuming an element whose name
/// matches `sym` (or anything, for a wildcard) moves a run across this edge.
#[derive(Debug, Clone)]
pub struct DispatchEdge {
    /// Axis constraint relative to the state the run sits on.
    pub axis: Axis,
    /// Interned name the edge waits for; `None` for a wildcard test.
    pub sym: Option<Symbol>,
    /// Immediate attribute checks, decidable on the `open` event.
    pub immediate: Vec<AttrCheck>,
    /// Deferred predicates to spawn as pending instances when the edge fires.
    pub deferred: Vec<PredId>,
    /// Targets whose navigational path is completed by this edge.
    pub accepts: Vec<Target>,
    /// Continuation state, when at least one target has further steps.
    pub to: Option<NodeId>,
}

/// One state of the combined automaton: a shared step prefix of one or more
/// rule objects (and/or the query).
#[derive(Debug, Clone, Default)]
pub struct DispatchNode {
    /// Outgoing transitions.
    pub edges: Vec<EdgeId>,
    /// The `(target, matched step count)` pairs this state represents. Used by
    /// the skip-index satisfiability analysis.
    pub positions: Vec<(Target, u32)>,
}

/// One step of a compiled predicate path, over symbols.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PredStep {
    /// Axis from the previous step (or the context node).
    pub axis: Axis,
    /// Interned name; `None` for a wildcard test.
    pub sym: Option<Symbol>,
}

/// A deferred predicate compiled once and shared (arena-backed) by every
/// pending instance it spawns.
#[derive(Debug, Clone)]
pub struct PredProgram {
    /// Steps of the relative path; **empty** for a self-text predicate
    /// (`[.]` / `[. = "v"]`), which watches the context element's direct text.
    pub steps: Vec<PredStep>,
    /// If set, the predicate targets this attribute of the final element.
    pub attribute: Option<Symbol>,
    /// Optional value condition on the final element text / attribute.
    pub condition: Option<ValueCondition>,
}

impl PredProgram {
    /// True for a `[.]` / `[. = "v"]` predicate on the context element itself.
    pub fn is_self_text(&self) -> bool {
        self.steps.is_empty()
    }
}

/// Dedup index of the predicate arena while a table is built.
type PredIndex = HashMap<CompiledPredicate, PredId>;

/// The combined transition structure of all installed rules plus the query.
#[derive(Debug, Clone, Default)]
pub struct DispatchTable {
    symbols: SymbolTable,
    nodes: Vec<DispatchNode>,
    edges: Vec<DispatchEdge>,
    preds: Vec<PredProgram>,
    /// Initial transitions by symbol: the per-event entry point replacing the
    /// per-rule candidate loop of the baseline engine.
    root_named: HashMap<Symbol, Vec<EdgeId>>,
    /// Initial wildcard transitions (fire on every `open` event).
    root_wild: Vec<EdgeId>,
}

impl DispatchTable {
    /// Builds the table for a set of compiled rule paths and an optional query.
    pub fn build<'a, I>(rules: I, query: Option<&CompiledPath>) -> Self
    where
        I: IntoIterator<Item = &'a CompiledPath>,
    {
        let mut table = DispatchTable {
            nodes: vec![DispatchNode::default()],
            ..DispatchTable::default()
        };
        let mut pred_index = PredIndex::new();
        for (i, path) in rules.into_iter().enumerate() {
            table.add_path(&mut pred_index, Target::Rule(i), path);
        }
        if let Some(q) = query {
            table.add_path(&mut pred_index, Target::Query, q);
        }
        for &e in &table.nodes[NodeId::ROOT.index()].edges {
            match table.edges[e.index()].sym {
                Some(s) => table.root_named.entry(s).or_default().push(e),
                None => table.root_wild.push(e),
            }
        }
        table
    }

    fn add_path(&mut self, pred_index: &mut PredIndex, target: Target, path: &CompiledPath) {
        let mut node = NodeId::ROOT;
        let len = path.steps.len();
        for (pos, step) in path.steps.iter().enumerate() {
            let edge = self.edge_for(pred_index, node, step);
            if pos + 1 == len {
                self.edges[edge.index()].accepts.push(target);
            } else {
                let next = match self.edges[edge.index()].to {
                    Some(n) => n,
                    None => {
                        let n = NodeId(self.nodes.len() as u32);
                        self.nodes.push(DispatchNode::default());
                        self.edges[edge.index()].to = Some(n);
                        n
                    }
                };
                self.nodes[next.index()]
                    .positions
                    .push((target, (pos + 1) as u32));
                node = next;
            }
        }
    }

    /// Finds an existing equivalent outgoing edge of `node` or creates one.
    fn edge_for(
        &mut self,
        pred_index: &mut PredIndex,
        node: NodeId,
        step: &CompiledStep,
    ) -> EdgeId {
        let sym = match &step.test {
            NodeTest::Name(n) => Some(self.symbols.intern(n)),
            NodeTest::Wildcard => None,
        };
        let immediate: Vec<AttrCheck> = step
            .immediate
            .iter()
            .map(|p| match p {
                CompiledPredicate::Attribute { name, condition } => AttrCheck {
                    name: self.symbols.intern(name),
                    condition: condition.clone(),
                },
                // lint: infallible — the compiler splits predicates into
                // immediate (attribute) and deferred before reaching here.
                other => unreachable!("non-attribute immediate predicate {other:?}"),
            })
            .collect();
        let deferred: Vec<PredId> = step
            .deferred
            .iter()
            .map(|p| self.pred_id(pred_index, p))
            .collect();
        for &e in &self.nodes[node.index()].edges {
            let edge = &self.edges[e.index()];
            if edge.axis == step.axis
                && edge.sym == sym
                && edge.immediate == immediate
                && edge.deferred == deferred
            {
                return e;
            }
        }
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(DispatchEdge {
            axis: step.axis,
            sym,
            immediate,
            deferred,
            accepts: Vec::new(),
            to: None,
        });
        self.nodes[node.index()].edges.push(id);
        id
    }

    /// Interns a deferred predicate into the arena, deduplicating structurally
    /// equal predicates across steps and rules.
    fn pred_id(&mut self, pred_index: &mut PredIndex, pred: &CompiledPredicate) -> PredId {
        if let Some(&id) = pred_index.get(pred) {
            return id;
        }
        let program = match pred {
            CompiledPredicate::SelfText { condition } => PredProgram {
                steps: Vec::new(),
                attribute: None,
                condition: condition.clone(),
            },
            CompiledPredicate::RelPath {
                steps,
                attribute,
                condition,
            } => PredProgram {
                steps: steps
                    .iter()
                    .map(|s| PredStep {
                        axis: s.axis,
                        sym: match &s.test {
                            NodeTest::Name(n) => Some(self.symbols.intern(n)),
                            NodeTest::Wildcard => None,
                        },
                    })
                    .collect(),
                attribute: attribute.as_ref().map(|a| self.symbols.intern(a)),
                condition: condition.clone(),
            },
            CompiledPredicate::Attribute { .. } => {
                // lint: infallible — `pred_id` is only called for deferred
                // predicates; attribute predicates stay immediate.
                unreachable!("attribute predicates are immediate")
            }
        };
        let id = PredId(self.preds.len() as u32);
        self.preds.push(program);
        pred_index.insert(pred.clone(), id);
        id
    }

    /// The symbol table (rule vocabulary).
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// Number of trie states (including the shared initial state).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of transitions.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Number of predicate programs in the arena.
    pub fn pred_count(&self) -> usize {
        self.preds.len()
    }

    /// A state of the trie.
    pub fn node(&self, id: NodeId) -> &DispatchNode {
        &self.nodes[id.index()]
    }

    /// A transition.
    pub fn edge(&self, id: EdgeId) -> &DispatchEdge {
        &self.edges[id.index()]
    }

    /// A predicate program.
    pub fn pred(&self, id: PredId) -> &PredProgram {
        &self.preds[id.index()]
    }

    /// Initial transitions that can fire on an element with this (looked-up)
    /// symbol: the named ones for `Some(sym)` plus every wildcard one.
    pub fn root_edges(&self, sym: Option<Symbol>) -> impl Iterator<Item = EdgeId> + '_ {
        let named = sym
            .and_then(|s| self.root_named.get(&s))
            .map(Vec::as_slice)
            .unwrap_or(&[]);
        named.iter().chain(self.root_wild.iter()).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::compile_str;

    fn table_for(exprs: &[&str]) -> DispatchTable {
        let paths: Vec<CompiledPath> = exprs.iter().map(|e| compile_str(e).unwrap()).collect();
        DispatchTable::build(&paths, None)
    }

    #[test]
    fn identical_rules_collapse_to_one_path() {
        let t = table_for(&["//patient/name", "//patient/name", "//patient/name"]);
        // root + one shared interior node.
        assert_eq!(t.node_count(), 2);
        assert_eq!(t.edge_count(), 2);
        let root_patient: Vec<EdgeId> = t.root_edges(t.symbols().lookup("patient")).collect();
        assert_eq!(root_patient.len(), 1);
        let final_edge = t.node(t.edge(root_patient[0]).to.unwrap()).edges[0];
        assert_eq!(
            t.edge(final_edge).accepts,
            vec![Target::Rule(0), Target::Rule(1), Target::Rule(2)]
        );
    }

    #[test]
    fn common_prefixes_are_shared_and_divergences_split() {
        let t = table_for(&["//acts/act/report", "//acts/act/date", "//acts/summary"]);
        // root -acts-> n1 -act-> n2 -report|date-> accept, n1 -summary-> accept
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.edge_count(), 5);
        let acts = t.symbols().lookup("acts").unwrap();
        let root: Vec<EdgeId> = t.root_edges(Some(acts)).collect();
        assert_eq!(root.len(), 1);
        let n1 = t.edge(root[0]).to.unwrap();
        assert_eq!(t.node(n1).edges.len(), 2);
        assert_eq!(
            t.node(n1).positions,
            vec![
                (Target::Rule(0), 1),
                (Target::Rule(1), 1),
                (Target::Rule(2), 1)
            ]
        );
    }

    #[test]
    fn steps_with_different_predicates_do_not_share_an_edge() {
        let t = table_for(&["//act[@type = \"surgery\"]/report", "//act/report"]);
        let act = t.symbols().lookup("act").unwrap();
        assert_eq!(t.root_edges(Some(act)).count(), 2);
    }

    #[test]
    fn unknown_symbols_only_fire_wildcards() {
        let t = table_for(&["//a/b", "//*"]);
        assert_eq!(t.symbols().lookup("zzz"), None);
        let edges: Vec<EdgeId> = t.root_edges(None).collect();
        assert_eq!(edges.len(), 1);
        assert!(t.edge(edges[0]).sym.is_none());
    }

    #[test]
    fn predicate_programs_are_deduplicated_in_the_arena() {
        let t = table_for(&["//b[c]/d", "//x[c]/y", "//z[. = \"v\"]"]);
        // [c] occurs in two rules but compiles to one program; [. = "v"] is a
        // self-text program with no steps.
        assert_eq!(t.pred_count(), 2);
        let self_text = (0..t.pred_count())
            .map(|i| t.pred(PredId(i as u32)))
            .find(|p| p.is_self_text())
            .unwrap();
        assert!(self_text.condition.is_some());
    }

    #[test]
    fn query_target_is_tracked_separately() {
        let rules = vec![compile_str("//a/b").unwrap()];
        let query = compile_str("//a/c").unwrap();
        let t = DispatchTable::build(&rules, Some(&query));
        let a = t.symbols().lookup("a").unwrap();
        let root: Vec<EdgeId> = t.root_edges(Some(a)).collect();
        assert_eq!(root.len(), 1, "rule and query share the //a prefix");
        let n = t.edge(root[0]).to.unwrap();
        assert!(t.node(n).positions.contains(&(Target::Query, 1)));
        assert_eq!(t.node(n).edges.len(), 2);
    }
}
