//! Property-style tests: the streaming evaluator (the paper's contribution)
//! must agree with the tree-based oracle on randomly generated documents and
//! randomly generated rule sets of the XP{[],*,//} fragment, and the secure
//! pipeline must preserve that equivalence.
//!
//! The build environment is offline, so instead of `proptest` these run each
//! property over `SDDS_PROP_CASES` cases (default 64; CI runs 256) drawn from
//! the workspace's seeded deterministic RNG — same coverage shape, fully
//! reproducible failures (the failing case index is in the assertion message,
//! and the RNG seed is derived from it deterministically).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use sdds_core::baseline::authorized_view_oracle;
use sdds_core::conflict::AccessPolicy;
use sdds_core::engine::{evaluate_secure_document, EngineConfig};
use sdds_core::evaluator::{EvaluatorConfig, StreamingEvaluator};
use sdds_core::rule::{RuleSet, Sign, Subject};
use sdds_core::secdoc::SecureDocumentBuilder;
use sdds_crypto::SecretKey;
use sdds_xml::generator::{self, GeneratorConfig, RandomProfile};
use sdds_xml::{writer, Document};

/// Cases per property: `SDDS_PROP_CASES` when set and parseable, else 64.
fn cases() -> u64 {
    std::env::var("SDDS_PROP_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(64)
}

/// A random document from the bounded-vocabulary profile.
fn random_document(rng: &mut SmallRng) -> Document {
    generator::random(
        &RandomProfile {
            elements: rng.gen_range(1usize..120),
            max_depth: rng.gen_range(2usize..7),
            max_fanout: rng.gen_range(1usize..5),
            vocabulary: rng.gen_range(2usize..7),
            text_probability: 0.6,
        },
        &GeneratorConfig {
            seed: rng.next_u64(),
            text_len: 8,
        },
    )
}

/// A random rule object within the streaming fragment over the `t0..t5`
/// vocabulary of the random generator (plus the root tag).
fn random_path(rng: &mut SmallRng) -> String {
    let steps = rng.gen_range(1usize..4);
    let mut path = String::new();
    for _ in 0..steps {
        path.push_str(if rng.gen_bool(0.5) { "/" } else { "//" });
        match rng.gen_range(0u8..3) {
            0 => path.push_str("root"),
            1 => path.push_str(&format!("t{}", rng.gen_range(0u8..6))),
            _ => path.push('*'),
        }
        match rng.gen_range(0u8..3) {
            0 => {}
            1 => path.push_str(&format!("[t{}]", rng.gen_range(0u8..6))),
            _ => path.push_str("[.]"),
        }
    }
    path
}

fn random_rules(rng: &mut SmallRng) -> RuleSet {
    let mut rules = RuleSet::new();
    for _ in 0..rng.gen_range(0usize..6) {
        let sign = if rng.gen_bool(0.5) {
            Sign::Permit
        } else {
            Sign::Deny
        };
        let path = random_path(rng);
        // Paths from the generator are always parseable members of the
        // fragment; push cannot fail.
        rules
            .push(sign, "user", &path)
            .expect("generated rule parses");
    }
    rules
}

/// The streaming evaluator and the tree oracle produce identical views.
#[test]
fn streaming_matches_oracle() {
    for case in 0..cases() {
        let mut rng = SmallRng::seed_from_u64(0xE1 ^ case.wrapping_mul(0x9E37_79B9));
        let doc = random_document(&mut rng);
        let rules = random_rules(&mut rng);
        let policy = if rng.gen_bool(0.5) {
            AccessPolicy::open()
        } else {
            AccessPolicy::paper()
        };
        let config = EvaluatorConfig::new(rules.clone(), "user").with_policy(policy);
        let events = doc.to_events();
        let (streaming, stats) = StreamingEvaluator::evaluate_all(&config, &events).unwrap();
        let oracle = authorized_view_oracle(&doc, &rules, &Subject::new("user"), None, &policy);
        assert_eq!(
            writer::to_string(&streaming),
            writer::to_string(&oracle),
            "case {case}: streaming view diverges from oracle"
        );
        assert_eq!(
            stats.events_in,
            events.len(),
            "case {case}: events_in mismatch"
        );
    }
}

/// Encrypt → skip-index → decrypt → evaluate gives the same view as
/// evaluating the plaintext, for any rules.
#[test]
fn secure_pipeline_matches_plaintext_evaluation() {
    for case in 0..cases() {
        let mut rng = SmallRng::seed_from_u64(0xE2 ^ case.wrapping_mul(0x9E37_79B9));
        let doc = random_document(&mut rng);
        let rules = random_rules(&mut rng);
        // The random generator always creates a root; fail loudly rather
        // than silently shrink coverage if that ever changes.
        assert!(
            doc.root().is_some(),
            "case {case}: generator produced a rootless document"
        );
        let key = SecretKey::derive(b"prop", "doc");
        let secure = SecureDocumentBuilder::new("prop-doc", key.clone())
            .chunk_size(128)
            .build(&doc);
        let config = EngineConfig::new(EvaluatorConfig::new(rules.clone(), "user"));
        let (view, _) = evaluate_secure_document(&secure, &key, config).unwrap();
        let oracle = authorized_view_oracle(
            &doc,
            &rules,
            &Subject::new("user"),
            None,
            &AccessPolicy::paper(),
        );
        assert_eq!(
            writer::to_string(&view),
            writer::to_string(&oracle),
            "case {case}: secure pipeline diverges from oracle"
        );
    }
}

/// Symbol interning is equivalent to string matching: a symbol table behaves
/// exactly like string comparison over any vocabulary, and the combined
/// dispatch automaton's symbol-keyed initial transitions fire for exactly the
/// rules whose first step matches the element name as a string.
#[test]
fn interned_dispatch_is_equivalent_to_string_matching() {
    use sdds_core::automaton::compile_str;
    use sdds_core::dispatch::{DispatchTable, Target};
    use sdds_xml::SymbolTable;

    for case in 0..cases() {
        let mut rng = SmallRng::seed_from_u64(0xE4 ^ case.wrapping_mul(0x9E37_79B9));

        // The interner agrees with string equality on a random vocabulary.
        let mut table = SymbolTable::new();
        let vocabulary: Vec<String> = (0..rng.gen_range(1usize..10))
            .map(|_| format!("t{}", rng.gen_range(0u8..8)))
            .collect();
        let symbols: Vec<_> = vocabulary.iter().map(|n| table.intern(n)).collect();
        for (a, sa) in vocabulary.iter().zip(&symbols) {
            assert_eq!(table.resolve(*sa), a, "case {case}: resolve round-trip");
            for (b, sb) in vocabulary.iter().zip(&symbols) {
                assert_eq!(
                    a == b,
                    sa == sb,
                    "case {case}: symbol equality diverges from string equality ({a} vs {b})"
                );
            }
        }

        // The dispatch automaton's (state, symbol) initial transitions fire
        // for exactly the rules whose first step matches by string.
        let exprs: Vec<String> = (0..rng.gen_range(1usize..8))
            .map(|_| random_path(&mut rng))
            .collect();
        let paths: Vec<_> = exprs.iter().map(|e| compile_str(e).unwrap()).collect();
        let dispatch = DispatchTable::build(paths.iter(), None);
        for _ in 0..8 {
            let name = format!("t{}", rng.gen_range(0u8..8));
            let mut by_string: Vec<usize> = (0..paths.len())
                .filter(|&i| paths[i].steps[0].test.matches(&name))
                .collect();
            by_string.sort_unstable();
            by_string.dedup();
            let mut by_symbol: Vec<usize> = dispatch
                .root_edges(dispatch.symbols().lookup(&name))
                .flat_map(|e| {
                    let edge = dispatch.edge(e);
                    let targets = edge.accepts.iter().copied().chain(
                        edge.to
                            .iter()
                            .flat_map(|&n| dispatch.node(n).positions.iter().map(|&(t, _)| t)),
                    );
                    targets
                        .filter_map(|t| match t {
                            Target::Rule(i) => Some(i),
                            Target::Query => None,
                        })
                        .collect::<Vec<_>>()
                })
                .collect();
            by_symbol.sort_unstable();
            by_symbol.dedup();
            assert_eq!(
                by_string, by_symbol,
                "case {case}: dispatch on `{name}` diverges from string matching over {exprs:?}"
            );
        }
    }
}

/// The authorized view is always a well-formed fragment and never leaks
/// text from elements the oracle says are not delivered.
#[test]
fn views_are_well_formed_and_monotone() {
    for case in 0..cases() {
        let mut rng = SmallRng::seed_from_u64(0xE3 ^ case.wrapping_mul(0x9E37_79B9));
        let doc = random_document(&mut rng);
        let rules = random_rules(&mut rng);
        let config = EvaluatorConfig::new(rules.clone(), "user");
        let events = doc.to_events();
        let (view, _) = StreamingEvaluator::evaluate_all(&config, &events).unwrap();
        if !view.is_empty() {
            assert!(
                sdds_xml::event::is_well_formed(&view),
                "case {case}: authorized view is not well-formed"
            );
        }
        // Adding a permit-everything rule can only grow the view.
        let mut wider = rules.clone();
        wider.push(Sign::Permit, "user", "/*").unwrap();
        let config = EvaluatorConfig::new(wider, "user");
        let (wider_view, _) = StreamingEvaluator::evaluate_all(&config, &events).unwrap();
        assert!(
            wider_view.len() >= view.len(),
            "case {case}: adding a permit rule shrank the view"
        );
    }
}
