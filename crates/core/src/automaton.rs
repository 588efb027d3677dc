//! Compilation of rule objects and queries into non-deterministic automata.
//!
//! "Each access rule is represented by a non-deterministic automaton [...]
//! made up of a navigational path (in white in the figure) representing the
//! XPath without its predicate and predicate paths (in gray in the figure)
//! appended to it." (§2.3, Figure 2)
//!
//! [`CompiledPath`] is that automaton in a form convenient for streaming
//! execution: one navigational state per step, with the predicates of each
//! step compiled either to *immediate* checks (attribute tests, decidable on
//! the `open` event) or to *deferred* predicate paths that spawn pending
//! instances at run time (see [`crate::runtime`]).

use sdds_xpath::{Axis, Comparison, NodeTest, Path, Predicate, PredicateTarget};

use crate::error::CoreError;

/// One step of a compiled predicate path (no nested predicates allowed).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RelStep {
    /// Axis from the previous step (or from the context node for the first).
    pub axis: Axis,
    /// Node test.
    pub test: NodeTest,
}

/// A value condition attached to the end of a predicate.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ValueCondition {
    /// Comparison operator.
    pub op: Comparison,
    /// Literal compared against.
    pub literal: String,
}

impl ValueCondition {
    /// Applies the condition to a candidate value.
    pub fn holds(&self, value: &str) -> bool {
        self.op.compare(value, &self.literal)
    }
}

/// A predicate compiled for streaming evaluation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CompiledPredicate {
    /// `[@name]` / `[@name = "v"]` — decidable immediately on the `open` event
    /// of the context element.
    Attribute {
        /// Attribute name.
        name: String,
        /// Optional value condition.
        condition: Option<ValueCondition>,
    },
    /// `[.]` / `[. = "v"]` — requires observing the direct text of the context
    /// element; resolves at the latest when the context element closes.
    SelfText {
        /// Optional value condition (`None` means "has non-empty direct text").
        condition: Option<ValueCondition>,
    },
    /// `[a/b]`, `[.//c = "v"]`, `[a/@t = "v"]` — a relative path anchored at
    /// the context element, optionally ending on an attribute, optionally
    /// constrained by a value condition. Spawns a pending instance at run time.
    RelPath {
        /// Steps of the relative path.
        steps: Vec<RelStep>,
        /// If set, the predicate targets this attribute of the final element.
        attribute: Option<String>,
        /// Optional value condition on the final element text / attribute.
        condition: Option<ValueCondition>,
    },
}

impl CompiledPredicate {
    /// True if the predicate can be decided on the `open` event alone.
    pub fn is_immediate(&self) -> bool {
        matches!(self, CompiledPredicate::Attribute { .. })
    }
}

/// One navigational step of a compiled path.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledStep {
    /// Axis from the previous step.
    pub axis: Axis,
    /// Node test.
    pub test: NodeTest,
    /// Immediate (attribute) predicates of the step.
    pub immediate: Vec<CompiledPredicate>,
    /// Deferred predicates of the step (self-text and relative paths).
    pub deferred: Vec<CompiledPredicate>,
}

/// A compiled rule object or query: the navigational automaton plus, for each
/// step, its predicate automata.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledPath {
    /// The source expression (kept for the skip-index satisfiability analysis
    /// and for diagnostics).
    pub source: Path,
    /// Navigational steps.
    pub steps: Vec<CompiledStep>,
}

impl CompiledPath {
    /// Number of navigational states beyond the initial one; the automaton of
    /// Figure 2 has `len() + Σ predicate-path lengths` states in total.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True for an empty path (never produced by [`compile`]).
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Total number of automaton states (navigational + predicate), reported by
    /// the engine statistics and charged to the RAM accounting.
    pub fn state_count(&self) -> usize {
        1 + self.steps.len()
            + self
                .steps
                .iter()
                .flat_map(|s| s.deferred.iter())
                .map(|p| match p {
                    CompiledPredicate::RelPath { steps, .. } => steps.len(),
                    _ => 1,
                })
                .sum::<usize>()
    }

    /// True if any step carries a deferred predicate (the rule can become
    /// *pending* at run time).
    pub fn has_deferred_predicates(&self) -> bool {
        self.steps.iter().any(|s| !s.deferred.is_empty())
    }
}

fn compile_condition(condition: &Option<(Comparison, String)>) -> Option<ValueCondition> {
    condition.as_ref().map(|(op, literal)| ValueCondition {
        op: *op,
        literal: literal.clone(),
    })
}

fn compile_rel_path(path: &Path, source: &Path) -> Result<Vec<RelStep>, CoreError> {
    let mut steps = Vec::with_capacity(path.steps.len());
    for step in &path.steps {
        if !step.predicates.is_empty() {
            return Err(CoreError::UnsupportedRule {
                expression: source.to_string(),
                reason: "predicates nested inside a predicate path are not supported by the \
                         streaming automata (the XP{[],*,//} fragment of the paper appends \
                         predicate paths to navigational states only)"
                    .into(),
            });
        }
        steps.push(RelStep {
            axis: step.axis,
            test: step.test.clone(),
        });
    }
    Ok(steps)
}

fn compile_predicate(pred: &Predicate, source: &Path) -> Result<CompiledPredicate, CoreError> {
    Ok(match &pred.target {
        PredicateTarget::Attribute(name) => CompiledPredicate::Attribute {
            name: name.clone(),
            condition: compile_condition(&pred.condition),
        },
        PredicateTarget::SelfText => CompiledPredicate::SelfText {
            condition: compile_condition(&pred.condition),
        },
        PredicateTarget::Path(rel) => CompiledPredicate::RelPath {
            steps: compile_rel_path(rel, source)?,
            attribute: None,
            condition: compile_condition(&pred.condition),
        },
        PredicateTarget::PathAttribute(rel, attr) => CompiledPredicate::RelPath {
            steps: compile_rel_path(rel, source)?,
            attribute: Some(attr.clone()),
            condition: compile_condition(&pred.condition),
        },
    })
}

/// Compiles a parsed path into its streaming automaton.
pub fn compile(path: &Path) -> Result<CompiledPath, CoreError> {
    if path.is_empty() {
        return Err(CoreError::UnsupportedRule {
            expression: path.to_string(),
            reason: "empty path".into(),
        });
    }
    let mut steps = Vec::with_capacity(path.steps.len());
    for step in &path.steps {
        let mut immediate = Vec::new();
        let mut deferred = Vec::new();
        for pred in &step.predicates {
            let compiled = compile_predicate(pred, path)?;
            if compiled.is_immediate() {
                immediate.push(compiled);
            } else {
                deferred.push(compiled);
            }
        }
        steps.push(CompiledStep {
            axis: step.axis,
            test: step.test.clone(),
            immediate,
            deferred,
        });
    }
    Ok(CompiledPath {
        source: path.clone(),
        steps,
    })
}

/// Compiles an expression given as text.
pub fn compile_str(expression: &str) -> Result<CompiledPath, CoreError> {
    compile(&sdds_xpath::parse(expression)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compiles_figure2_rule() {
        // Figure 2: R: ⊕, //b[c]/d — navigational path //b/d with predicate
        // path c appended to the b state.
        let c = compile_str("//b[c]/d").unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.steps[0].axis, Axis::Descendant);
        assert_eq!(c.steps[0].deferred.len(), 1);
        assert!(c.steps[0].immediate.is_empty());
        assert_eq!(c.steps[1].axis, Axis::Child);
        assert!(c.has_deferred_predicates());
        // 1 initial + 2 navigational + 1 predicate state, as in the figure
        // (states 1..5 of Figure 2 = initial + b + c + d counted differently;
        // what matters is that the count covers every step and predicate).
        assert_eq!(c.state_count(), 4);
    }

    #[test]
    fn attribute_predicates_are_immediate() {
        let c = compile_str("//item[@sensitive = \"true\"]").unwrap();
        assert_eq!(c.steps[0].immediate.len(), 1);
        assert!(c.steps[0].deferred.is_empty());
        assert!(!c.has_deferred_predicates());
        match &c.steps[0].immediate[0] {
            CompiledPredicate::Attribute { name, condition } => {
                assert_eq!(name, "sensitive");
                assert!(condition.as_ref().unwrap().holds("true"));
                assert!(!condition.as_ref().unwrap().holds("false"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn value_and_attribute_path_predicates_are_deferred() {
        let c = compile_str("//patient[acts/act/@type = \"surgery\"][name = \"Alice\"]/diagnosis")
            .unwrap();
        assert_eq!(c.steps[0].deferred.len(), 2);
        match &c.steps[0].deferred[0] {
            CompiledPredicate::RelPath {
                steps,
                attribute,
                condition,
            } => {
                assert_eq!(steps.len(), 2);
                assert_eq!(attribute.as_deref(), Some("type"));
                assert!(condition.as_ref().unwrap().holds("surgery"));
            }
            other => panic!("unexpected {other:?}"),
        }
        match &c.steps[0].deferred[1] {
            CompiledPredicate::RelPath {
                steps, attribute, ..
            } => {
                assert_eq!(steps.len(), 1);
                assert!(attribute.is_none());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn self_text_predicate_is_deferred() {
        let c = compile_str("//rating[. <= 12]").unwrap();
        assert_eq!(c.steps[0].deferred.len(), 1);
        match &c.steps[0].deferred[0] {
            CompiledPredicate::SelfText { condition } => {
                assert!(condition.as_ref().unwrap().holds("7"));
                assert!(!condition.as_ref().unwrap().holds("16"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn nested_predicates_are_rejected_with_a_clear_error() {
        let err = compile_str("//a[b[c]]/d").unwrap_err();
        match err {
            CoreError::UnsupportedRule { reason, .. } => {
                assert!(reason.contains("nested"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn wildcard_and_descendant_steps_compile() {
        let c = compile_str("/a/*//d").unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(c.steps[1].test, NodeTest::Wildcard);
        assert_eq!(c.steps[2].axis, Axis::Descendant);
        assert!(!c.is_empty());
        assert_eq!(c.state_count(), 4);
    }

    #[test]
    fn existence_only_relative_predicate() {
        let c = compile_str("//project[.//note]").unwrap();
        match &c.steps[0].deferred[0] {
            CompiledPredicate::RelPath {
                steps,
                attribute,
                condition,
            } => {
                assert_eq!(steps[0].axis, Axis::Descendant);
                assert!(attribute.is_none());
                assert!(condition.is_none());
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
