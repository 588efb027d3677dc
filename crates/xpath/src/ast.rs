//! Abstract syntax tree of the XP{[],*,//} fragment.

use std::fmt;

/// Axis connecting a step to the previous one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Axis {
    /// `/` — the child axis.
    Child,
    /// `//` — the descendant-or-self axis followed by a child step, i.e. the
    /// step matches any descendant at depth ≥ 1 of the context node.
    Descendant,
}

/// Node test of a step.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum NodeTest {
    /// A specific element name.
    Name(String),
    /// The wildcard `*`: any element.
    Wildcard,
}

impl NodeTest {
    /// True if this test accepts the given element name.
    pub fn matches(&self, name: &str) -> bool {
        match self {
            NodeTest::Name(n) => n == name,
            NodeTest::Wildcard => true,
        }
    }

    /// Returns the required name, if the test is not a wildcard.
    pub fn name(&self) -> Option<&str> {
        match self {
            NodeTest::Name(n) => Some(n),
            NodeTest::Wildcard => None,
        }
    }
}

/// Comparison operator in a value predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Comparison {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl Comparison {
    /// Applies the comparison to two string values. If both parse as numbers
    /// the comparison is numeric (XPath coercion rule used in practice by the
    /// models the paper builds on); otherwise it is a string comparison.
    pub fn compare(self, left: &str, right: &str) -> bool {
        if let (Ok(l), Ok(r)) = (left.trim().parse::<f64>(), right.trim().parse::<f64>()) {
            return match self {
                Comparison::Eq => l == r,
                Comparison::Ne => l != r,
                Comparison::Lt => l < r,
                Comparison::Le => l <= r,
                Comparison::Gt => l > r,
                Comparison::Ge => l >= r,
            };
        }
        match self {
            Comparison::Eq => left == right,
            Comparison::Ne => left != right,
            Comparison::Lt => left < right,
            Comparison::Le => left <= right,
            Comparison::Gt => left > right,
            Comparison::Ge => left >= right,
        }
    }
}

impl fmt::Display for Comparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Comparison::Eq => "=",
            Comparison::Ne => "!=",
            Comparison::Lt => "<",
            Comparison::Le => "<=",
            Comparison::Gt => ">",
            Comparison::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// What a predicate tests relative to the context node.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PredicateTarget {
    /// A relative element path, e.g. `[c/d]` or `[.//e]`.
    Path(Path),
    /// An attribute of the context node, e.g. `[@private]`.
    Attribute(String),
    /// An attribute reached through a relative path, e.g. `[act/@type]`.
    PathAttribute(Path, String),
    /// The text content of the context node itself, e.g. `[. = "x"]`.
    SelfText,
}

/// A predicate (branch) attached to a step: an existence test of a target,
/// optionally constrained by a comparison with a literal.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Predicate {
    /// What is being tested.
    pub target: PredicateTarget,
    /// Optional comparison `(op, literal)`; when absent the predicate is a pure
    /// existence test.
    pub condition: Option<(Comparison, String)>,
}

/// One location step: axis, node test and predicates.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Step {
    /// Axis from the previous step.
    pub axis: Axis,
    /// Node test.
    pub test: NodeTest,
    /// Predicates, all of which must hold.
    pub predicates: Vec<Predicate>,
}

impl Step {
    /// Creates a child step with no predicate.
    pub fn child(name: impl Into<String>) -> Self {
        Step {
            axis: Axis::Child,
            test: NodeTest::Name(name.into()),
            predicates: Vec::new(),
        }
    }

    /// Creates a descendant step with no predicate.
    pub fn descendant(name: impl Into<String>) -> Self {
        Step {
            axis: Axis::Descendant,
            test: NodeTest::Name(name.into()),
            predicates: Vec::new(),
        }
    }

    /// Creates a wildcard child step.
    pub fn any_child() -> Self {
        Step {
            axis: Axis::Child,
            test: NodeTest::Wildcard,
            predicates: Vec::new(),
        }
    }
}

/// A location path.
///
/// Paths used as rule objects and queries are absolute (they start at the
/// document root); paths used inside predicates are relative to the step they
/// are attached to.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Path {
    /// Steps in order. The first step's axis is interpreted against the
    /// document root for absolute paths, or against the context node for
    /// relative (predicate) paths.
    pub steps: Vec<Step>,
}

impl Path {
    /// Creates a path from steps.
    pub fn new(steps: Vec<Step>) -> Self {
        Path { steps }
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True if the path has no step.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// True if any step uses the descendant axis or a wildcard, i.e. the path
    /// is not a simple root-to-node name sequence.
    pub fn has_recursion_or_wildcard(&self) -> bool {
        self.steps
            .iter()
            .any(|s| s.axis == Axis::Descendant || matches!(s.test, NodeTest::Wildcard))
    }

    /// True if any step carries a predicate.
    pub fn has_predicates(&self) -> bool {
        self.steps.iter().any(|s| !s.predicates.is_empty())
    }

    /// Collects every element name mentioned by a node test anywhere in the
    /// path, including inside predicates. Used by the skip-index satisfiability
    /// analysis.
    pub fn mentioned_names(&self) -> Vec<String> {
        fn collect(path: &Path, out: &mut Vec<String>) {
            for step in &path.steps {
                if let NodeTest::Name(n) = &step.test {
                    out.push(n.clone());
                }
                for p in &step.predicates {
                    match &p.target {
                        PredicateTarget::Path(rel) | PredicateTarget::PathAttribute(rel, _) => {
                            collect(rel, out)
                        }
                        PredicateTarget::Attribute(_) | PredicateTarget::SelfText => {}
                    }
                }
            }
        }
        let mut out = Vec::new();
        collect(self, &mut out);
        out
    }
}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, step) in self.steps.iter().enumerate() {
            match step.axis {
                Axis::Child => {
                    f.write_str("/")?;
                }
                Axis::Descendant => f.write_str("//")?,
            }
            // For relative display the very first child-axis slash is kept:
            // the canonical form of all SDDS paths is absolute-looking.
            let _ = i;
            match &step.test {
                NodeTest::Name(n) => f.write_str(n)?,
                NodeTest::Wildcard => f.write_str("*")?,
            }
            for p in &step.predicates {
                f.write_str("[")?;
                match &p.target {
                    PredicateTarget::Path(rel) => {
                        // Relative paths are displayed without a leading slash.
                        let s = rel.to_string();
                        f.write_str(s.strip_prefix('/').unwrap_or(&s))?;
                    }
                    PredicateTarget::Attribute(a) => write!(f, "@{a}")?,
                    PredicateTarget::PathAttribute(rel, a) => {
                        let s = rel.to_string();
                        write!(f, "{}/@{a}", s.strip_prefix('/').unwrap_or(&s))?;
                    }
                    PredicateTarget::SelfText => f.write_str(".")?,
                }
                if let Some((op, lit)) = &p.condition {
                    write!(f, " {op} \"{lit}\"")?;
                }
                f.write_str("]")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_test_matching() {
        assert!(NodeTest::Wildcard.matches("anything"));
        assert!(NodeTest::Name("a".into()).matches("a"));
        assert!(!NodeTest::Name("a".into()).matches("b"));
        assert_eq!(NodeTest::Name("a".into()).name(), Some("a"));
        assert_eq!(NodeTest::Wildcard.name(), None);
    }

    #[test]
    fn comparison_numeric_and_string() {
        assert!(Comparison::Lt.compare("9", "10"));
        assert!(!Comparison::Lt.compare("9a", "10a")); // string comparison
        assert!(Comparison::Eq.compare("3.0", "3"));
        assert!(Comparison::Ne.compare("a", "b"));
        assert!(Comparison::Ge.compare("10", "10"));
        assert!(Comparison::Gt.compare("z", "a"));
        assert!(Comparison::Le.compare("5", "5.5"));
    }

    #[test]
    fn path_introspection() {
        let p = Path::new(vec![
            Step::child("a"),
            Step::descendant("b"),
            Step::any_child(),
        ]);
        assert_eq!(p.len(), 3);
        assert!(p.has_recursion_or_wildcard());
        assert!(!p.has_predicates());
        assert_eq!(p.mentioned_names(), vec!["a", "b"]);
        let simple = Path::new(vec![Step::child("a"), Step::child("b")]);
        assert!(!simple.has_recursion_or_wildcard());
    }

    #[test]
    fn display_roundtrips_shape() {
        let mut step_b = Step::descendant("b");
        step_b.predicates.push(Predicate {
            target: PredicateTarget::Path(Path::new(vec![Step::child("c")])),
            condition: None,
        });
        step_b.predicates.push(Predicate {
            target: PredicateTarget::Attribute("kind".into()),
            condition: Some((Comparison::Eq, "x".into())),
        });
        let p = Path::new(vec![Step::child("a"), step_b, Step::child("d")]);
        assert_eq!(p.to_string(), "/a//b[c][@kind = \"x\"]/d");
    }

    #[test]
    fn mentioned_names_includes_predicate_paths() {
        let mut step = Step::child("a");
        step.predicates.push(Predicate {
            target: PredicateTarget::PathAttribute(
                Path::new(vec![Step::child("x"), Step::child("y")]),
                "id".into(),
            ),
            condition: None,
        });
        let p = Path::new(vec![step]);
        assert_eq!(p.mentioned_names(), vec!["a", "x", "y"]);
        assert!(p.has_predicates());
    }
}
