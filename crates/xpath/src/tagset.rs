//! Static analysis of a path against a tag vocabulary.
//!
//! The skip index stores, for each subtree, "the set of element tags that
//! appear in each subtree (to check whether an access rule automaton is likely
//! to reach its final state)" (§2.3). The check performed by the SOE when it
//! meets a subtree summary is: *could the remaining part of this rule possibly
//! be satisfied inside a subtree containing only these tags?* If not, the rule
//! is filtered out for that subtree; if **no** rule (and no query path) can
//! progress, the subtree is skipped without being transferred or decrypted.
//!
//! This module provides the vocabulary-level half of that test: which tag
//! names a (suffix of a) path still *requires*. The automaton-level half
//! (which states are active, hence which suffixes are relevant) lives in
//! `sdds-core`.

use sdds_xml::{TagDict, TagSet};

use crate::ast::{NodeTest, Path, PredicateTarget};

/// Returns the set of element names that must appear in a subtree for the
/// suffix of `path` starting at `from_step` to be satisfiable inside that
/// subtree. Wildcard steps contribute nothing (they are satisfiable by any
/// element); predicate paths contribute all their named steps because every
/// predicate must eventually hold for the rule to apply.
pub fn required_names_from(path: &Path, from_step: usize) -> Vec<String> {
    let mut out = Vec::new();
    for step in path.steps.iter().skip(from_step) {
        if let NodeTest::Name(n) = &step.test {
            out.push(n.clone());
        }
        for pred in &step.predicates {
            match &pred.target {
                PredicateTarget::Path(rel) | PredicateTarget::PathAttribute(rel, _) => {
                    out.extend(required_names_from(rel, 0));
                }
                PredicateTarget::Attribute(_) | PredicateTarget::SelfText => {}
            }
        }
    }
    out
}

/// Returns the set of element names required by the whole path.
pub fn required_names(path: &Path) -> Vec<String> {
    required_names_from(path, 0)
}

/// Converts a list of names into a [`TagSet`] against `dict`. Names missing
/// from the dictionary are reported separately: a required tag that does not
/// exist anywhere in the document means the path can never match at all.
pub fn names_to_tagset(names: &[String], dict: &TagDict) -> (TagSet, Vec<String>) {
    let mut set = TagSet::with_capacity(dict.len());
    let mut missing = Vec::new();
    for n in names {
        match dict.get(n) {
            Some(id) => {
                set.insert(id);
            }
            None => missing.push(n.clone()),
        }
    }
    (set, missing)
}

/// Pre-computed satisfiability signature of a path suffix, built once per rule
/// when the SOE session is opened and then checked in O(words) against every
/// subtree summary of the skip index.
#[derive(Debug, Clone)]
pub struct PathSignature {
    /// Tags required by the suffix of the path starting at each step index.
    /// `per_step[i]` covers steps `i..`.
    per_step: Vec<TagSet>,
    /// Step indexes whose suffix mentions a tag absent from the dictionary
    /// (such a suffix can never be satisfied in this document).
    impossible_from: Vec<bool>,
}

impl PathSignature {
    /// Builds the signature of `path` against the document dictionary `dict`.
    pub fn build(path: &Path, dict: &TagDict) -> Self {
        let n = path.steps.len();
        let mut per_step = Vec::with_capacity(n);
        let mut impossible_from = Vec::with_capacity(n);
        for i in 0..n {
            let names = required_names_from(path, i);
            let (set, missing) = names_to_tagset(&names, dict);
            per_step.push(set);
            impossible_from.push(!missing.is_empty());
        }
        PathSignature {
            per_step,
            impossible_from,
        }
    }

    /// Number of steps covered.
    pub fn len(&self) -> usize {
        self.per_step.len()
    }

    /// True if the signature covers no step.
    pub fn is_empty(&self) -> bool {
        self.per_step.is_empty()
    }

    /// Could the suffix of the path starting at `step` be satisfied inside a
    /// subtree whose element tags are exactly `subtree_tags`?
    ///
    /// `step == len()` (the path is already fully matched) is always
    /// satisfiable. A suffix that requires a tag missing from the whole
    /// document is never satisfiable.
    pub fn satisfiable_in(&self, step: usize, subtree_tags: &TagSet) -> bool {
        if step >= self.per_step.len() {
            return true;
        }
        if self.impossible_from[step] {
            return false;
        }
        subtree_tags.is_superset(&self.per_step[step])
    }

    /// The tags required from `step` onwards (for diagnostics and tests).
    pub fn required_at(&self, step: usize) -> Option<&TagSet> {
        self.per_step.get(step)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use sdds_xml::TagDict;

    fn dict() -> TagDict {
        TagDict::from_names(["a", "b", "c", "d", "e"])
    }

    #[test]
    fn required_names_cover_steps_and_predicates() {
        let p = parse("//b[c]/d").unwrap();
        assert_eq!(required_names(&p), vec!["b", "c", "d"]);
        assert_eq!(required_names_from(&p, 1), vec!["d"]);
        let p = parse("/a/*//e[@x]").unwrap();
        assert_eq!(required_names(&p), vec!["a", "e"]);
    }

    #[test]
    fn names_to_tagset_reports_missing() {
        let d = dict();
        let (set, missing) = names_to_tagset(&["a".into(), "zz".into()], &d);
        assert_eq!(set.len(), 1);
        assert_eq!(missing, vec!["zz"]);
    }

    #[test]
    fn signature_satisfiability() {
        let d = dict();
        let p = parse("//b[c]/d").unwrap();
        let sig = PathSignature::build(&p, &d);
        assert_eq!(sig.len(), 2);

        // A subtree containing b, c and d can satisfy the whole rule.
        let (all, _) = names_to_tagset(&["b".into(), "c".into(), "d".into()], &d);
        assert!(sig.satisfiable_in(0, &all));

        // A subtree with only b and d cannot (predicate c is missing).
        let (no_c, _) = names_to_tagset(&["b".into(), "d".into()], &d);
        assert!(!sig.satisfiable_in(0, &no_c));

        // Once the b[c] step is matched, only d is needed.
        let (only_d, _) = names_to_tagset(&["d".into()], &d);
        assert!(sig.satisfiable_in(1, &only_d));
        assert!(!sig.satisfiable_in(0, &only_d));

        // A fully matched path is satisfiable anywhere.
        assert!(sig.satisfiable_in(2, &TagSet::new()));
    }

    #[test]
    fn signature_with_unknown_tag_is_never_satisfiable() {
        let d = dict();
        let p = parse("//zz/d").unwrap();
        let sig = PathSignature::build(&p, &d);
        let (all, _) = names_to_tagset(&["b".into(), "c".into(), "d".into()], &d);
        assert!(!sig.satisfiable_in(0, &all));
        // But the suffix after the unknown step only needs d.
        assert!(sig.satisfiable_in(1, &all));
    }

    #[test]
    fn wildcard_only_path_is_always_satisfiable() {
        let d = dict();
        let p = parse("/*//*").unwrap();
        let sig = PathSignature::build(&p, &d);
        assert!(sig.satisfiable_in(0, &TagSet::new()));
        assert!(!sig.is_empty());
        assert!(sig.required_at(0).unwrap().is_empty());
    }
}
