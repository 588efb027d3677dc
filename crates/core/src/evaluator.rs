//! Facade tying the automata engine and the view assembler together.
//!
//! [`StreamingEvaluator`] is the component the paper calls the *access rights
//! evaluator*: events in, authorized events out, with a working set bounded by
//! the document depth, the number of active rule states and the pending
//! buffer. It is used directly on unencrypted event streams (tests, baselines,
//! dissemination filtering on a trusted gateway) and embedded by
//! [`crate::engine`] inside the SOE for encrypted documents.

use std::sync::Arc;

use sdds_xml::{Event, EventRef};

use crate::assembler::{AssemblerStats, ViewAssembler, ViewSink};
use crate::conflict::{AccessPolicy, Decision};
use crate::error::CoreError;
use crate::query::Query;
use crate::rule::{RuleSet, Subject};
use crate::runtime::{EngineRule, EngineStats, Resolution, RuleEngine};

/// Configuration of a streaming evaluation session. The rules and the query
/// are shared, not owned: a card opens every session over the same
/// installed rule set and registered query without copying either.
#[derive(Debug, Clone)]
pub struct EvaluatorConfig {
    /// The rules granted to the subject of the session.
    pub rules: Arc<RuleSet>,
    /// The subject the session runs for (rules of other subjects in
    /// [`EvaluatorConfig::rules`] are ignored).
    pub subject: Subject,
    /// Optional query restricting the delivered view.
    pub query: Option<Arc<Query>>,
    /// Conflict-resolution policy.
    pub policy: AccessPolicy,
}

impl EvaluatorConfig {
    /// Creates a configuration for `subject` with the paper's default policy.
    pub fn new(rules: impl Into<Arc<RuleSet>>, subject: impl Into<String>) -> Self {
        EvaluatorConfig {
            rules: rules.into(),
            subject: Subject::new(subject),
            query: None,
            policy: AccessPolicy::paper(),
        }
    }

    /// Sets the query.
    pub fn with_query(mut self, query: impl Into<Arc<Query>>) -> Self {
        self.query = Some(query.into());
        self
    }

    /// Sets the policy.
    pub fn with_policy(mut self, policy: AccessPolicy) -> Self {
        self.policy = policy;
        self
    }
}

/// Combined statistics of an evaluation session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvaluatorStats {
    /// Engine-side counters (token stack, predicate set).
    pub engine: EngineStats,
    /// Assembler-side counters (decisions, scaffolding, pending buffer).
    pub assembler: AssemblerStats,
    /// Input events consumed.
    pub events_in: usize,
    /// Output events produced.
    pub events_out: usize,
}

impl EvaluatorStats {
    /// Peak secure-RAM footprint of the whole evaluator, in bytes.
    pub fn peak_ram_bytes(&self) -> usize {
        // Engine and assembler peaks are tracked independently but coexist;
        // summing them is the conservative estimate charged to the card.
        self.engine.peak_ram_bytes + self.assembler.peak_ram_bytes
    }
}

/// The streaming access-rights evaluator.
#[derive(Debug)]
pub struct StreamingEvaluator {
    engine: RuleEngine,
    assembler: ViewAssembler,
    /// Instance resolutions of the current event, handed to the assembler
    /// before the event itself; reused across events.
    resolved: Vec<Resolution>,
    events_in: usize,
}

impl StreamingEvaluator {
    /// Builds an evaluator from a configuration. Rules that do not concern the
    /// configured subject are ignored; rules outside the streaming fragment
    /// are reported as errors.
    pub fn new(config: &EvaluatorConfig) -> Result<Self, CoreError> {
        let mut compiled = Vec::new();
        for rule in config.rules.for_subject(&config.subject) {
            compiled.push(EngineRule::compile(rule)?);
        }
        let query = config.query.as_deref().map(Query::compiled);
        Ok(StreamingEvaluator {
            engine: RuleEngine::new(compiled, query),
            assembler: ViewAssembler::new(config.policy, query.is_some()),
            resolved: Vec::new(),
            events_in: 0,
        })
    }

    /// Number of rules installed for the session's subject.
    pub fn rule_count(&self) -> usize {
        self.engine.rule_count()
    }

    /// Feeds one event, borrowed, and delivers the authorized events that
    /// became ready to `out`.
    pub fn push(&mut self, event: EventRef<'_>, out: &mut impl ViewSink) {
        self.events_in += 1;
        let annotation = self.engine.process(event, &mut self.resolved);
        for Resolution {
            instance,
            satisfied,
        } in self.resolved.drain(..)
        {
            self.assembler.resolve(instance, satisfied, out);
        }
        self.assembler.push(event, annotation, out);
    }

    /// Authorized events delivered so far.
    pub fn events_out(&self) -> usize {
        self.assembler.events_delivered()
    }

    /// Effective decision and query scope of the innermost open element when
    /// no decision is pending (used by the skip logic).
    pub fn current_context(&self) -> Option<(Decision, bool)> {
        self.assembler.current_context()
    }

    /// The rule engine, for the skip logic's walk over its active positions.
    pub(crate) fn engine(&self) -> &RuleEngine {
        &self.engine
    }

    /// True while at least one predicate instance is unresolved.
    pub fn has_pending(&self) -> bool {
        self.engine.has_unresolved_instances() || !self.assembler.is_drained()
    }

    /// Current secure-RAM footprint of the evaluator, in bytes.
    pub fn ram_bytes(&self) -> usize {
        self.engine.ram_bytes() + self.assembler.ram_bytes()
    }

    /// The footprint recounted from scratch (the test oracle of
    /// [`StreamingEvaluator::ram_bytes`]).
    #[cfg(test)]
    pub(crate) fn recount_ram_bytes(&self) -> usize {
        self.engine.recount_ram_bytes() + self.assembler.recount_ram_bytes()
    }

    /// Finishes the stream and returns the session statistics. Every
    /// authorized event has already been handed out by
    /// [`StreamingEvaluator::push`]; this fails if a decision is still
    /// blocked (truncated input).
    pub fn finish(self) -> Result<EvaluatorStats, CoreError> {
        let events_out = self.events_out();
        Ok(EvaluatorStats {
            engine: self.engine.stats(),
            assembler: self.assembler.finish()?,
            events_in: self.events_in,
            events_out,
        })
    }

    /// Convenience helper: evaluates a whole event stream and returns the
    /// authorized view and the statistics.
    pub fn evaluate_all(
        config: &EvaluatorConfig,
        events: &[Event],
    ) -> Result<(Vec<Event>, EvaluatorStats), CoreError> {
        let mut evaluator = StreamingEvaluator::new(config)?;
        let mut out = Vec::new();
        for event in events {
            evaluator.push(event.as_event_ref(), &mut out);
        }
        let stats = evaluator.finish()?;
        Ok((out, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdds_xml::{writer, Parser};

    fn medical_rules() -> RuleSet {
        RuleSet::parse(
            "+, doctor, //patient\n\
             -, doctor, //patient/ssn\n\
             +, secretary, //patient/name\n\
             +, secretary, //patient/address\n\
             -, secretary, //patient/diagnosis\n\
             +, researcher, //diagnosis",
        )
        .unwrap()
    }

    fn doc() -> String {
        "<hospital>\
           <patient id=\"P1\"><name>Alice</name><ssn>111</ssn><address>Paris</address>\
             <diagnosis><item>flu</item></diagnosis></patient>\
           <patient id=\"P2\"><name>Bob</name><ssn>222</ssn><address>Lyon</address>\
             <diagnosis><item>cold</item></diagnosis></patient>\
         </hospital>"
            .to_owned()
    }

    fn view_for(subject: &str, query: Option<&str>) -> (String, EvaluatorStats) {
        let mut config = EvaluatorConfig::new(medical_rules(), subject);
        if let Some(q) = query {
            config = config.with_query(Query::parse(q).unwrap());
        }
        let events = Parser::parse_all(&doc()).unwrap();
        let (out, stats) = StreamingEvaluator::evaluate_all(&config, &events).unwrap();
        (writer::to_string(&out), stats)
    }

    #[test]
    fn doctor_sees_everything_but_ssn() {
        let (view, stats) = view_for("doctor", None);
        assert!(view.contains("<name>Alice</name>"));
        assert!(view.contains("<diagnosis>"));
        assert!(view.contains("<address>Paris</address>"));
        assert!(!view.contains("111"));
        assert!(!view.contains("222"));
        // ssn elements are not even present as scaffolding (nothing inside them
        // is authorized).
        assert!(!view.contains("<ssn>"));
        assert_eq!(stats.events_in, Parser::parse_all(&doc()).unwrap().len());
        assert!(stats.events_out > 0);
        assert!(stats.peak_ram_bytes() > 0);
    }

    #[test]
    fn secretary_sees_administrative_data_only() {
        let (view, _) = view_for("secretary", None);
        assert!(view.contains("<name>Alice</name>"));
        assert!(view.contains("<address>Lyon</address>"));
        assert!(!view.contains("diagnosis"));
        assert!(!view.contains("flu"));
        assert!(!view.contains("111"));
        // patient appears as scaffolding without its id attribute.
        assert!(view.contains("<patient>"));
        assert!(!view.contains("P1"));
    }

    #[test]
    fn researcher_sees_anonymous_diagnosis_only() {
        let (view, _) = view_for("researcher", None);
        assert!(view.contains("<diagnosis><item>flu</item></diagnosis>"));
        assert!(!view.contains("Alice"));
        assert!(!view.contains("111"));
        assert!(!view.contains("Paris"));
    }

    #[test]
    fn unknown_subject_sees_nothing() {
        let (view, stats) = view_for("intruder", None);
        assert_eq!(view, "");
        assert_eq!(stats.assembler.nodes_delivered, 0);
    }

    #[test]
    fn query_intersects_with_access_rights() {
        let (view, _) = view_for("doctor", Some("//patient[@id = \"P2\"]"));
        assert!(view.contains("Bob"));
        assert!(!view.contains("Alice"));
        assert!(!view.contains("222")); // ssn stays denied even inside the query scope
        let (view, _) = view_for("secretary", Some("//diagnosis"));
        assert_eq!(view, ""); // the query targets denied data only
    }

    #[test]
    fn rule_count_reflects_subject_filtering() {
        let config = EvaluatorConfig::new(medical_rules(), "secretary");
        let eval = StreamingEvaluator::new(&config).unwrap();
        assert_eq!(eval.rule_count(), 3);
        let config = EvaluatorConfig::new(medical_rules(), "researcher");
        assert_eq!(StreamingEvaluator::new(&config).unwrap().rule_count(), 1);
    }

    #[test]
    fn push_streams_output_incrementally() {
        let config = EvaluatorConfig::new(medical_rules(), "doctor");
        let mut eval = StreamingEvaluator::new(&config).unwrap();
        let events = Parser::parse_all(&doc()).unwrap();
        let mut produced_early = false;
        let mut out = Vec::new();
        for (i, ev) in events.iter().enumerate() {
            eval.push(ev.as_event_ref(), &mut out);
            if i < events.len() / 2 && !out.is_empty() {
                produced_early = true;
            }
        }
        assert!(
            produced_early,
            "output should stream before the end of input"
        );
        let stats = eval.finish().unwrap();
        assert_eq!(out.len(), stats.events_out);
    }

    #[test]
    fn ram_stays_bounded_relative_to_document_size() {
        // The document grows 8x; the evaluator's working set must not.
        let small = doc();
        let mut large = String::from("<hospital>");
        for _ in 0..8 {
            large.push_str(&small["<hospital>".len()..small.len() - "</hospital>".len()]);
        }
        large.push_str("</hospital>");

        let measure = |text: &str| {
            let config = EvaluatorConfig::new(medical_rules(), "doctor");
            let events = Parser::parse_all(text).unwrap();
            let (_, stats) = StreamingEvaluator::evaluate_all(&config, &events).unwrap();
            stats.peak_ram_bytes()
        };
        let small_peak = measure(&small);
        let large_peak = measure(&large);
        assert!(
            large_peak <= small_peak * 2,
            "peak RAM should not scale with document size (small {small_peak}, large {large_peak})"
        );
    }

    #[test]
    fn unparseable_rule_surfaces_at_construction() {
        let mut rules = RuleSet::new();
        rules
            .push(crate::rule::Sign::Permit, "bob", "//a[b[c]]")
            .unwrap();
        let config = EvaluatorConfig::new(rules, "bob");
        assert!(StreamingEvaluator::new(&config).is_err());
    }

    #[test]
    fn open_policy_with_negative_rules_only() {
        let rules = RuleSet::parse("-, child, //item[rating > 12]").unwrap();
        let config = EvaluatorConfig::new(rules, "child").with_policy(AccessPolicy::open());
        let doc = "<stream><item><rating>7</rating><title>ok</title></item>\
                   <item><rating>16</rating><title>blocked</title></item></stream>";
        let events = Parser::parse_all(doc).unwrap();
        let (out, _) = StreamingEvaluator::evaluate_all(&config, &events).unwrap();
        let view = writer::to_string(&out);
        assert!(view.contains("ok"));
        assert!(!view.contains("blocked"));
    }
}

/// Seeded property: the running secure-RAM counters of the rule engine, the
/// view assembler and the SOE session equal a full recount after every event.
///
/// The recount walks the token stack, the pending queue and the render
/// stack. The oracle is called directly (the session calls it on every sample
/// in test builds), not through `debug_assert!`, so the property also holds
/// in the optimised profile, where debug assertions are stripped. Runs
/// `SDDS_PROP_CASES` cases (default 64); a failure names its case, which
/// reproduces exactly.
#[cfg(test)]
pub(crate) mod ram_props {
    use sdds_crypto::SecretKey;
    use sdds_xml::generator::{self, GeneratorConfig, HospitalProfile};

    use crate::assembler::ViewAssembler;
    use crate::conflict::AccessPolicy;
    use crate::engine::{evaluate_secure_document, EngineConfig};
    use crate::evaluator::EvaluatorConfig;
    use crate::query::Query;
    use crate::rule::{RuleSet, Subject};
    use crate::runtime::{EngineRule, RuleEngine};
    use crate::secdoc::SecureDocumentBuilder;

    /// Cases per property: `SDDS_PROP_CASES` when set and parseable, else 64.
    pub(crate) fn cases() -> u64 {
        std::env::var("SDDS_PROP_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(64)
    }

    /// SplitMix64: a small deterministic generator for the case parameters.
    pub(crate) struct Rng(pub(crate) u64);

    impl Rng {
        pub(crate) fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        pub(crate) fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    pub(crate) const SUBJECTS: [&str; 4] = ["doctor", "secretary", "researcher", "auditor"];

    /// The medical policy of the benchmarks, plus predicates that make decisions
    /// pend (evidence after the node), resolve through child text (watchers that
    /// buffer text) and through the node's own text.
    pub(crate) fn rules() -> RuleSet {
        RuleSet::parse(
            "+, doctor, //patient\n\
             -, doctor, //patient/ssn\n\
             +, secretary, //patient/name\n\
             +, secretary, //patient/address\n\
             +, researcher, //diagnosis\n\
             +, auditor, //acts/act[@type = \"surgery\"]/report\n\
             -, doctor, //patient[prescriptions/prescription]/address\n\
             +, secretary, //patient[acts/act/@type = \"surgery\"]/ssn\n\
             -, researcher, //diagnosis[item = \"x\"]\n\
             +, auditor, //act[date]/physician\n\
             -, auditor, //prescription[dosage = \"100 mg\"]/drug\n\
             +, researcher, //dosage[. = \"250 mg\"]",
        )
        .unwrap()
    }

    pub(crate) const QUERIES: [&str; 3] = ["//patient[acts/act]", "//acts/act", "//diagnosis"];

    #[test]
    fn running_ram_counters_equal_a_full_recount_after_every_event() {
        let key = SecretKey::derive(b"ram-props", "documents");
        for case in 0..cases() {
            let mut rng = Rng(case.wrapping_mul(0x5DD5) ^ 0x2005);
            let doc = generator::hospital(
                &HospitalProfile {
                    patients: 1 + rng.below(5) as usize,
                    ..HospitalProfile::default()
                },
                &GeneratorConfig {
                    seed: rng.next(),
                    ..GeneratorConfig::default()
                },
            );
            let subject = SUBJECTS[rng.below(4) as usize];
            let query = (rng.below(3) == 0).then(|| QUERIES[rng.below(3) as usize]);
            let ctx = format!("case {case}: {subject}, query {query:?}");

            let policy = rules();
            let compiled: Vec<EngineRule> = policy
                .for_subject(&Subject::new(subject))
                .map(|r| EngineRule::compile(r).unwrap())
                .collect();
            let parsed = query.map(|q| Query::parse(q).unwrap());
            let mut engine = RuleEngine::new(compiled, parsed.as_ref().map(Query::compiled));
            let mut assembler = ViewAssembler::new(AccessPolicy::paper(), query.is_some());
            let (mut resolved, mut view) = (Vec::new(), Vec::<sdds_xml::Event>::new());
            for (i, event) in doc.to_events().iter().enumerate() {
                let event = event.as_event_ref();
                let annotation = engine.process(event, &mut resolved);
                for r in resolved.drain(..) {
                    assembler.resolve(r.instance, r.satisfied, &mut view);
                    assert_eq!(
                        assembler.ram_bytes(),
                        assembler.recount_ram_bytes(),
                        "{ctx}: assembler after a resolution at event {i}"
                    );
                }
                assembler.push(event, annotation, &mut view);
                assert_eq!(
                    assembler.ram_bytes(),
                    assembler.recount_ram_bytes(),
                    "{ctx}: assembler after event {i}"
                );
                assert_eq!(
                    engine.ram_bytes(),
                    engine.recount_ram_bytes(),
                    "{ctx}: engine after event {i}"
                );
            }
            assembler.finish().unwrap();

            // The session compares its counters with the recount at every
            // sample (after each event and at each chunk end).
            let chunk_size = [64, 128, 256, 512][rng.below(4) as usize];
            let secure = SecureDocumentBuilder::new("folder", key.clone())
                .chunk_size(chunk_size)
                .build(&doc);
            let mut evaluator = EvaluatorConfig::new(policy, subject);
            if let Some(q) = query {
                evaluator = evaluator.with_query(Query::parse(q).unwrap());
            }
            let (_, stats) = evaluate_secure_document(&secure, &key, EngineConfig::new(evaluator))
                .unwrap_or_else(|e| panic!("{ctx}, chunks of {chunk_size} B: {e}"));
            assert!(stats.peak_ram_bytes > 0, "{ctx}");
        }
    }
}
