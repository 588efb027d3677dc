//! Regression tests pinning the E7 (dynamic access rights) semantics of the
//! combined dispatch automaton: adding or removing a rule mid-stream rebuilds
//! the shared trie and remaps every live run, and that rebuild must be
//! invisible — the matches of every rule that exists both before and after
//! the change are identical to a run that never rebuilt.

use sdds_core::evaluator::{EvaluatorConfig, StreamingEvaluator};
use sdds_core::rule::{AccessRule, RuleId, RuleSet};
use sdds_xml::{writer, Event, Parser};

/// A document that keeps runs, pending predicate instances and text watchers
/// alive at every boundary: nested descendants, a deferred `[date = "2004"]`
/// predicate resolving late, and a failing sibling predicate.
const DOC: &str = "<hospital><patient><name>Alice</name>\
     <acts><act><report>r1</report><date>2004</date></act>\
     <act><report>r2</report><date>2005</date></act></acts></patient>\
     <patient><name>Bob</name><acts><act><report>r3</report></act></acts></patient>\
     </hospital>";

/// Rules exercising child/descendant axes, wildcards and deferred predicates.
const RULES: &str = "+, user, //patient\n\
     -, user, //act[date = \"2004\"]/report\n\
     +, user, /hospital/*/name\n\
     -, user, //acts//report";

fn events() -> Vec<Event> {
    Parser::parse_all(DOC).unwrap()
}

fn static_view(rules_text: &str) -> String {
    let rules = RuleSet::parse(rules_text).unwrap();
    let config = EvaluatorConfig::new(rules, "user");
    let (out, _) = StreamingEvaluator::evaluate_all(&config, &events()).unwrap();
    writer::to_string(&out)
}

/// Evaluates `DOC` under `RULES`, performing `churn(evaluator)` at event
/// boundary `k`.
fn view_with_change_at(k: usize, churn: impl Fn(&mut StreamingEvaluator)) -> String {
    let rules = RuleSet::parse(RULES).unwrap();
    let config = EvaluatorConfig::new(rules, "user");
    let mut evaluator = StreamingEvaluator::new(&config).unwrap();
    let mut out = Vec::new();
    for (i, ev) in events().into_iter().enumerate() {
        if i == k {
            churn(&mut evaluator);
        }
        evaluator.push(ev.as_event_ref(), &mut out);
    }
    evaluator.finish().unwrap();
    writer::to_string(&out)
}

/// A net-zero policy change (add then remove an unrelated rule) at *every*
/// stream boundary leaves the view identical to a run that never rebuilt:
/// live runs, pending instances and watchers all survive the remap.
#[test]
fn net_zero_rule_churn_is_invisible_at_every_boundary() {
    let baseline = static_view(RULES);
    for k in 0..events().len() {
        let churned = view_with_change_at(k, |evaluator| {
            let grant = AccessRule::permit(77, "user", "//ward[unit]/bed").unwrap();
            evaluator.add_rule(&grant).unwrap();
            assert!(evaluator.remove_rule(RuleId(77)));
        });
        assert_eq!(
            churned, baseline,
            "rebuild at boundary {k} changed the authorized view"
        );
    }
}

/// Adding a rule before the first event is equivalent to configuring it
/// statically, and removing it again restores the original behaviour.
#[test]
fn add_and_remove_at_stream_start_match_static_configurations() {
    let with_extra = format!("{RULES}\n-, user, //name");
    let added = view_with_change_at(0, |evaluator| {
        // Ids 0..3 are taken by RULES.
        let deny = AccessRule::deny(4, "user", "//name").unwrap();
        evaluator.add_rule(&deny).unwrap();
    });
    assert_eq!(added, static_view(&with_extra), "dynamic add diverges");

    let removed = view_with_change_at(0, |evaluator| {
        // Removing `-, user, //acts//report` leaves rules 0..=2.
        assert!(evaluator.remove_rule(RuleId(3)));
    });
    let without_last = "+, user, //patient\n\
         -, user, //act[date = \"2004\"]/report\n\
         +, user, /hospital/*/name";
    assert_eq!(
        removed,
        static_view(without_last),
        "dynamic remove diverges"
    );
}

/// A rule removed mid-stream stops matching from that point on while the
/// surviving rules keep their in-flight state (including a pending predicate
/// instance spawned before the removal).
#[test]
fn surviving_rules_keep_pending_state_across_removal() {
    let boundary = events()
        .iter()
        .position(|e| matches!(e, Event::Open { name, .. } if &**name == "report"))
        .expect("a report element exists");
    // Remove the unconditional //acts//report denial right before the first
    // <report> opens. The first act's `[date = "2004"]` instance was spawned
    // *before* the rebuild; it must survive the run remap, keep the report
    // match pending, and resolve true on the late <date>2004</date> — denying
    // r1. The other reports are only governed by the removed rule, so they
    // now flow through (r2's act has date 2005, r3's act has no date).
    let view = view_with_change_at(boundary, |evaluator| {
        assert!(evaluator.remove_rule(RuleId(3)));
    });
    assert!(
        !view.contains("r1"),
        "the pending [date = \"2004\"] instance must survive the rebuild and deny r1"
    );
    assert!(view.contains("r2"), "r2 is only denied by the removed rule");
    assert!(view.contains("r3"), "r3 is only denied by the removed rule");
}
