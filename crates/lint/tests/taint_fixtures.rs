//! Planted-leak fixtures for the two secret leaks the crate graph cannot
//! rule out: each is a source file with one deliberate leak, reported with
//! its rule at the expected `file:line`.

use std::path::Path;

use sdds_lint::trust::{check_secret_tokens, TrustConfig};
use sdds_lint::{Rule, Violation};

const CONFIG: &str = "[crate-graph]\nuntrusted = [\"sdds-dsp\"]\ntrusted = [\"sdds-core\"]\n\
                      [secret]\ntypes = [\"SecretKey\"]\nlabel_calls = [\"counter_with\"]\n";

#[track_caller]
fn assert_caught(path: &str, contents: &str, rule: Rule, line: usize) {
    let config = TrustConfig::parse(CONFIG).expect("fixture config parses");
    let v: Vec<Violation> = check_secret_tokens(&config, Path::new(path), contents);
    assert!(
        v.len() == 1 && v[0].rule == rule && v[0].file == Path::new(path) && v[0].line == line,
        "expected one {} at {path}:{line}, got: {v:#?}",
        rule.name()
    );
}

#[test]
fn leak_6_derive_debug_on_secret_type_is_caught() {
    assert_caught(
        "crypto/src/keys.rs",
        "#[derive(Debug, Clone)]\npub struct SecretKey {\n    bytes: [u8; 16],\n}\n",
        Rule::SecretDebug,
        1,
    );
}

#[test]
fn leak_9_secret_on_metric_label_line_is_caught() {
    assert_caught(
        "core/src/engine.rs",
        "pub fn record(obs: &Obs) {\n    obs.counter_with(\"evals\", &[(\"key\", SecretKey::label())]);\n}\n",
        Rule::SecretLabel,
        2,
    );
}
