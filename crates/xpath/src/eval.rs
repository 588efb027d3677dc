//! Reference (tree-based) evaluation of the XP{[],*,//} fragment.
//!
//! This evaluator walks the in-memory [`Document`] arena. It is **not** what
//! runs inside the SOE — the streaming engine in `sdds-core` is — but it plays
//! two roles in the reproduction:
//!
//! 1. it is the *oracle* against which the streaming automata are validated
//!    (every streaming decision must agree with the tree semantics), and
//! 2. it is the evaluation component of the DOM baseline of experiment E9
//!    (materialise + evaluate on the terminal), whose memory footprint the
//!    paper argues is incompatible with a smart card.

use std::collections::BTreeSet;

use sdds_xml::{Document, NodeData, NodeId};

use crate::ast::{Axis, Path, Predicate, PredicateTarget, Step};

/// Evaluates an absolute `path` over `doc`, returning the matching element
/// nodes in document order.
pub fn evaluate(doc: &Document, path: &Path) -> Vec<NodeId> {
    let Some(root) = doc.root() else {
        return Vec::new();
    };
    // The context of the first step is the (virtual) document node, whose only
    // element child is the root element.
    let mut current: BTreeSet<NodeId> = document_step(doc, root, &path.steps[0]);
    for step in &path.steps[1..] {
        let mut next = BTreeSet::new();
        for &ctx in &current {
            for candidate in axis_candidates(doc, ctx, step.axis) {
                if step_matches(doc, candidate, step) {
                    next.insert(candidate);
                }
            }
        }
        current = next;
        if current.is_empty() {
            break;
        }
    }
    sort_document_order(doc, current)
}

/// Evaluates a path and returns `true` if at least one node matches.
pub fn matches_any(doc: &Document, path: &Path) -> bool {
    !evaluate(doc, path).is_empty()
}

/// Candidates of the first step, whose context is the virtual document node.
fn document_step(doc: &Document, root: NodeId, step: &Step) -> BTreeSet<NodeId> {
    let mut out = BTreeSet::new();
    match step.axis {
        Axis::Child => {
            if step_matches(doc, root, step) {
                out.insert(root);
            }
        }
        Axis::Descendant => {
            for n in doc.descendants(root) {
                if is_element(doc, n) && step_matches(doc, n, step) {
                    out.insert(n);
                }
            }
        }
    }
    out
}

fn is_element(doc: &Document, id: NodeId) -> bool {
    matches!(doc.data(id), NodeData::Element { .. })
}

fn axis_candidates(doc: &Document, ctx: NodeId, axis: Axis) -> Vec<NodeId> {
    match axis {
        Axis::Child => doc.element_children(ctx).collect(),
        Axis::Descendant => doc
            .descendants(ctx)
            .into_iter()
            .skip(1) // exclude the context node itself
            .filter(|&n| is_element(doc, n))
            .collect(),
    }
}

fn step_matches(doc: &Document, node: NodeId, step: &Step) -> bool {
    let Some(name) = doc.element_name(node) else {
        return false;
    };
    if !step.test.matches(name) {
        return false;
    }
    step.predicates
        .iter()
        .all(|p| predicate_holds(doc, node, p))
}

/// Evaluates one predicate against a context node.
pub fn predicate_holds(doc: &Document, ctx: NodeId, predicate: &Predicate) -> bool {
    match &predicate.target {
        PredicateTarget::Attribute(attr) => {
            let value = doc
                .attributes(ctx)
                .iter()
                .find(|a| *a.name == **attr)
                .map(|a| a.value.clone());
            match (&predicate.condition, value) {
                (None, v) => v.is_some(),
                (Some((op, lit)), Some(v)) => op.compare(&v, lit),
                (Some(_), None) => false,
            }
        }
        PredicateTarget::SelfText => {
            // Value predicates compare against the *direct* text of the target
            // element (the concatenation of its immediate text children); this
            // is the semantics the streaming engine can evaluate without
            // buffering whole subtrees, and the tree oracle follows it so that
            // both evaluators agree.
            let text = doc.direct_text(ctx);
            match &predicate.condition {
                None => !text.is_empty(),
                Some((op, lit)) => op.compare(&text, lit),
            }
        }
        PredicateTarget::Path(rel) => {
            let targets = evaluate_relative(doc, ctx, rel);
            match &predicate.condition {
                None => !targets.is_empty(),
                Some((op, lit)) => targets
                    .iter()
                    .any(|&n| op.compare(&doc.direct_text(n), lit)),
            }
        }
        PredicateTarget::PathAttribute(rel, attr) => {
            let targets = evaluate_relative(doc, ctx, rel);
            targets.iter().any(|&n| {
                let value = doc
                    .attributes(n)
                    .iter()
                    .find(|a| *a.name == **attr)
                    .map(|a| a.value.clone());
                match (&predicate.condition, value) {
                    (None, v) => v.is_some(),
                    (Some((op, lit)), Some(v)) => op.compare(&v, lit),
                    (Some(_), None) => false,
                }
            })
        }
    }
}

/// Evaluates a relative path from a context node.
pub fn evaluate_relative(doc: &Document, ctx: NodeId, path: &Path) -> Vec<NodeId> {
    let mut current: BTreeSet<NodeId> = [ctx].into_iter().collect();
    for step in &path.steps {
        let mut next = BTreeSet::new();
        for &c in &current {
            for candidate in axis_candidates(doc, c, step.axis) {
                if step_matches(doc, candidate, step) {
                    next.insert(candidate);
                }
            }
        }
        current = next;
        if current.is_empty() {
            break;
        }
    }
    sort_document_order(doc, current)
}

fn sort_document_order(doc: &Document, set: BTreeSet<NodeId>) -> Vec<NodeId> {
    // NodeIds are allocated in document order by the tree builder, so the
    // natural order of the ids *is* document order.
    let _ = doc;
    set.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use sdds_xml::Document;

    fn doc() -> Document {
        Document::parse(
            r#"<hospital>
                 <patient id="P1">
                   <name>Alice</name>
                   <diagnosis><item sensitive="true">flu</item><item sensitive="false">cold</item></diagnosis>
                   <acts>
                     <act type="surgery"><date>2004-05-01</date><report>ok</report></act>
                     <act type="consultation"><date>2004-06-01</date><report>fine</report></act>
                   </acts>
                 </patient>
                 <patient id="P2">
                   <name>Bob</name>
                   <diagnosis><item sensitive="false">sprain</item></diagnosis>
                   <acts><act type="radiology"><date>2004-07-01</date><report>xray</report></act></acts>
                 </patient>
               </hospital>"#,
        )
        .unwrap()
    }

    fn names(doc: &Document, nodes: &[NodeId]) -> Vec<String> {
        nodes
            .iter()
            .map(|&n| doc.element_name(n).unwrap().to_owned())
            .collect()
    }

    #[test]
    fn child_axis_paths() {
        let d = doc();
        let res = evaluate(&d, &parse("/hospital/patient/name").unwrap());
        assert_eq!(res.len(), 2);
        assert_eq!(names(&d, &res), vec!["name", "name"]);
        assert_eq!(d.deep_text(res[0]), "Alice");
    }

    #[test]
    fn descendant_axis_finds_all_matches() {
        let d = doc();
        assert_eq!(evaluate(&d, &parse("//act").unwrap()).len(), 3);
        assert_eq!(evaluate(&d, &parse("//patient//report").unwrap()).len(), 3);
        assert_eq!(evaluate(&d, &parse("//hospital").unwrap()).len(), 1);
    }

    #[test]
    fn wildcard_steps() {
        let d = doc();
        assert_eq!(evaluate(&d, &parse("/hospital/*").unwrap()).len(), 2);
        assert_eq!(evaluate(&d, &parse("/hospital/*/name").unwrap()).len(), 2);
        assert_eq!(evaluate(&d, &parse("/*").unwrap()).len(), 1);
    }

    #[test]
    fn attribute_predicates() {
        let d = doc();
        let res = evaluate(&d, &parse("//patient[@id = \"P1\"]/name").unwrap());
        assert_eq!(res.len(), 1);
        assert_eq!(d.deep_text(res[0]), "Alice");
        assert_eq!(
            evaluate(&d, &parse("//item[@sensitive = \"true\"]").unwrap()).len(),
            1
        );
        assert_eq!(evaluate(&d, &parse("//item[@sensitive]").unwrap()).len(), 3);
        assert_eq!(evaluate(&d, &parse("//item[@missing]").unwrap()).len(), 0);
    }

    #[test]
    fn element_path_predicates() {
        let d = doc();
        // patients that underwent surgery
        let res = evaluate(
            &d,
            &parse("//patient[acts/act/@type = \"surgery\"]").unwrap(),
        );
        assert_eq!(res.len(), 1);
        // existence predicate
        assert_eq!(
            evaluate(&d, &parse("//patient[diagnosis/item]").unwrap()).len(),
            2
        );
        // value predicate on element text
        let res = evaluate(&d, &parse("//act[date = \"2004-07-01\"]/report").unwrap());
        assert_eq!(res.len(), 1);
        assert_eq!(d.deep_text(res[0]), "xray");
    }

    #[test]
    fn relative_descendant_predicate() {
        let d = doc();
        assert_eq!(
            evaluate(&d, &parse("//patient[.//report]").unwrap()).len(),
            2
        );
        assert_eq!(
            evaluate(&d, &parse("//patient[.//report = \"xray\"]").unwrap()).len(),
            1
        );
    }

    #[test]
    fn self_text_predicate() {
        let d = doc();
        assert_eq!(
            evaluate(&d, &parse("//name[. = \"Bob\"]").unwrap()).len(),
            1
        );
        assert_eq!(
            evaluate(&d, &parse("//name[. = \"Carol\"]").unwrap()).len(),
            0
        );
        assert_eq!(evaluate(&d, &parse("//name[.]").unwrap()).len(), 2);
    }

    #[test]
    fn figure2_example_semantics() {
        // R: //b[c]/d on a document shaped like the paper's Figure 2 discussion.
        let d = Document::parse("<r><b><c/><d>keep</d></b><b><d>drop</d></b></r>").unwrap();
        let res = evaluate(&d, &parse("//b[c]/d").unwrap());
        assert_eq!(res.len(), 1);
        assert_eq!(d.deep_text(res[0]), "keep");
    }

    #[test]
    fn no_match_paths_return_empty() {
        let d = doc();
        assert!(evaluate(&d, &parse("/nosuch").unwrap()).is_empty());
        assert!(evaluate(&d, &parse("//nosuch/deeper").unwrap()).is_empty());
        assert!(!matches_any(&d, &parse("//nosuch").unwrap()));
        assert!(matches_any(&d, &parse("//act").unwrap()));
    }

    #[test]
    fn results_are_in_document_order_without_duplicates() {
        let d = Document::parse("<a><b><b><c/></b></b><b><c/></b></a>").unwrap();
        let res = evaluate(&d, &parse("//b//c").unwrap());
        // Two c elements, each reported once even though reachable through
        // several b ancestors.
        assert_eq!(res.len(), 2);
        let mut sorted = res.clone();
        sorted.sort();
        assert_eq!(res, sorted);
    }

    #[test]
    fn numeric_comparison_predicates() {
        let d = Document::parse(
            "<stream><item><rating>7</rating></item><item><rating>16</rating></item></stream>",
        )
        .unwrap();
        assert_eq!(
            evaluate(&d, &parse("//item[rating <= 12]").unwrap()).len(),
            1
        );
        assert_eq!(evaluate(&d, &parse("//item[rating > 2]").unwrap()).len(), 2);
        assert_eq!(evaluate(&d, &parse("//rating[. >= 16]").unwrap()).len(), 1);
    }

    #[test]
    fn empty_document_matches_nothing() {
        let d = Document::new();
        assert!(evaluate(&d, &parse("//a").unwrap()).is_empty());
    }
}
