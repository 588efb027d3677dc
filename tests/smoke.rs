//! Fast smoke test for tier-1 triage: round-trips one tiny document through
//! the whole pipeline — encrypt → skip-index → streaming evaluate inside the
//! engine → authorized view — and checks the view against the tree oracle.
//! If this fails, the break is in the core pipeline, not in a corpus
//! generator or an application scenario; it runs in milliseconds so future
//! PRs can localize tier-1 failures quickly.

use sdds_core::baseline::authorized_view_oracle;
use sdds_core::conflict::AccessPolicy;
use sdds_core::engine::{evaluate_secure_document, EngineConfig};
use sdds_core::evaluator::EvaluatorConfig;
use sdds_core::rule::{RuleSet, Subject};
use sdds_core::secdoc::SecureDocumentBuilder;
use sdds_core::skipindex::encode::EncoderConfig;
use sdds_crypto::SecretKey;
use sdds_xml::{writer, Document};

fn tiny_document() -> Document {
    Document::parse(
        r#"<folder>
             <admin><ssn>123456789</ssn></admin>
             <visit><diagnosis>ok</diagnosis><act>checkup</act></visit>
           </folder>"#,
    )
    .expect("tiny document parses")
}

fn nurse_rules() -> RuleSet {
    RuleSet::parse(
        "+, nurse, /folder\n\
         -, nurse, //ssn\n\
         -, nurse, //diagnosis",
    )
    .expect("rules parse")
}

#[test]
fn encrypted_round_trip_matches_oracle() {
    let doc = tiny_document();
    let rules = nurse_rules();
    let key = SecretKey::derive(b"smoke", "doc");

    let (secure, encode_stats) = SecureDocumentBuilder::new("smoke-doc", key.clone())
        .chunk_size(64)
        .encoder_config(EncoderConfig {
            min_index_bytes: 16,
            ..EncoderConfig::default()
        })
        .build_with_stats(&doc);
    assert!(
        secure.chunk_count() > 1,
        "tiny doc should still span chunks"
    );
    assert!(encode_stats.index_bytes > 0, "skip index must be embedded");

    let config = EngineConfig::new(EvaluatorConfig::new(rules.clone(), "nurse"));
    let (view, stats) = evaluate_secure_document(&secure, &key, config).expect("engine runs");

    let oracle = authorized_view_oracle(
        &doc,
        &rules,
        &Subject::new("nurse"),
        None,
        &AccessPolicy::paper(),
    );
    let view_text = writer::to_string(&view);
    assert_eq!(view_text, writer::to_string(&oracle));

    // The denied subtrees must not leak into the authorized view, and the
    // permitted ones must survive.
    assert!(
        !view_text.contains("123456789"),
        "denied ssn leaked: {view_text}"
    );
    assert!(
        !view_text.contains("diagnosis"),
        "denied diagnosis leaked: {view_text}"
    );
    assert!(
        view_text.contains("checkup"),
        "permitted act missing: {view_text}"
    );

    // The engine must have decrypted something, and the skip index must have
    // let it skip at least part of the denied content.
    assert!(stats.ledger.bytes_decrypted > 0);
    assert!(
        stats.ledger.bytes_decrypted as u64 <= secure.header.plaintext_len,
        "decrypted more than the plaintext"
    );
}
