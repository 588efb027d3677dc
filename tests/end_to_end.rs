//! End-to-end integration tests spanning every crate — publisher → sharded
//! DSP service → terminal proxy → smart-card SOE → authorized view — driven
//! entirely through the `sdds::Client` / `sdds::Publisher` facade and
//! compared against the tree-based oracle.

use sdds::{AccessPolicy, CardProfile, Client, CostModel, Publisher, RuleSet, Sign, Subject};
use sdds_core::baseline::{authorized_view_oracle, DomBaseline};
use sdds_core::secdoc::SecureDocumentBuilder;
use sdds_xml::generator::{self, Corpus, GeneratorConfig};
use sdds_xml::{writer, Document, Parser};

fn medical_rules() -> RuleSet {
    RuleSet::parse(
        "+, doctor, //patient\n\
         -, doctor, //patient/ssn\n\
         +, secretary, //patient/name\n\
         +, secretary, //patient/address\n\
         -, secretary, //patient[diagnosis/item/@sensitive = \"true\"]/address\n\
         +, researcher, //diagnosis",
    )
    .unwrap()
}

fn publish(doc: &Document, doc_id: &str) -> Publisher {
    let publisher = Publisher::new(b"hospital", medical_rules());
    publisher.publish(doc_id, doc).unwrap();
    publisher
}

#[test]
fn every_subject_gets_exactly_the_oracle_view_through_the_full_stack() {
    let doc = Corpus::Hospital.generate(1_500, &GeneratorConfig::default());
    let publisher = publish(&doc, "folders");

    for subject in ["doctor", "secretary", "researcher", "outsider"] {
        let client = Client::builder(subject).provision(&publisher).unwrap();
        let view = client.authorized_view("folders").unwrap();
        let oracle = authorized_view_oracle(
            &doc,
            &medical_rules(),
            &Subject::new(subject),
            None,
            &AccessPolicy::paper(),
        );
        assert_eq!(
            view,
            writer::to_string(&oracle),
            "view of `{subject}` differs from the oracle"
        );
        // The delivered view must re-parse as well-formed XML (or be empty).
        if !view.is_empty() {
            Parser::parse_all(&view).expect("authorized view is well-formed XML");
        }
        // The incremental stream renders the very same bytes.
        let streamed = client
            .open_stream("folders")
            .unwrap()
            .collect_view()
            .unwrap();
        assert_eq!(streamed, view, "`{subject}` stream differs from card path");
    }
}

#[test]
fn queries_compose_with_access_control_across_the_stack() {
    let doc = Corpus::Hospital.generate(1_000, &GeneratorConfig::default());
    let publisher = publish(&doc, "folders");

    let client = Client::builder("doctor")
        .query("//patient/name")
        .provision(&publisher)
        .unwrap();
    let view = client.authorized_view("folders").unwrap();
    assert!(view.contains("<name>"));
    assert!(!view.contains("<report>"));
    assert!(!view.contains("<ssn>"));

    let oracle = authorized_view_oracle(
        &doc,
        &medical_rules(),
        &Subject::new("doctor"),
        Some(&sdds_core::Query::parse("//patient/name").unwrap()),
        &AccessPolicy::paper(),
    );
    assert_eq!(view, writer::to_string(&oracle));
}

#[test]
fn dynamic_policy_changes_need_no_reencryption_but_static_baseline_does() {
    let doc = Corpus::Hospital.generate(800, &GeneratorConfig::default());
    let mut publisher = publish(&doc, "folders");
    let stored_before = publisher.service().store().stored_bytes();

    // Before the change the nurse sees nothing.
    let nurse = Client::builder("nurse").provision(&publisher).unwrap();
    assert!(nurse.authorized_view("folders").unwrap().is_empty());

    // Grant the nurse access to names: only a new protected rule set travels
    // (to the DSP), and the very same client sees it on its next pull.
    publisher
        .grant("nurse", Sign::Permit, "//patient/name")
        .unwrap();
    let view = nurse.authorized_view("folders").unwrap();
    assert!(view.contains("<name>"));
    assert_eq!(
        publisher.service().store().stored_bytes(),
        stored_before,
        "no re-encryption happened"
    );
    assert_eq!(publisher.service().revision("folders"), Some(0));

    // The static-encryption baseline pays for the same change.
    let mut scheme = sdds_core::baseline::StaticEncryptionScheme::build(
        &doc,
        &medical_rules(),
        &AccessPolicy::paper(),
    );
    let mut new_rules = medical_rules();
    new_rules
        .push(Sign::Permit, "nurse", "//patient/name")
        .unwrap();
    let cost = scheme.apply_rule_change(&doc, &new_rules, &AccessPolicy::paper());
    assert!(cost.bytes_reencrypted > 0);
    assert!(cost.keys_redistributed > 0);
}

#[test]
fn dom_baseline_agrees_with_the_card_but_fetches_everything() {
    let doc = Corpus::Hospital.generate(1_000, &GeneratorConfig::default());
    // 128-byte chunks so that the skip granularity is fine enough for the
    // comparison (see EXPERIMENTS.md, E2 chunk-size ablation).
    let publisher = Publisher::builder(b"hospital")
        .rules(medical_rules())
        .chunk_size(128)
        .build()
        .unwrap();
    publisher.publish("folders", &doc).unwrap();

    // The researcher only reads diagnosis subtrees: most chunks are skippable.
    let researcher = Client::builder("researcher").provision(&publisher).unwrap();
    publisher.service().reset_stats();
    let card_view = researcher.authorized_view("folders").unwrap();
    let card_chunks = publisher.stats().chunks_served;

    // The DOM baseline runs on the same encrypted bytes: the document nonce
    // is a keyed PRF of the id, the chunk size and the plaintext, so
    // rebuilding the same content under the same key reproduces every byte.
    let secure = SecureDocumentBuilder::new("folders", publisher.server().document_key())
        .chunk_size(128)
        .build(&doc);
    let dom = DomBaseline::run(
        &secure,
        &publisher.server().document_key(),
        &medical_rules(),
        &Subject::new("researcher"),
        None,
        &AccessPolicy::paper(),
    )
    .unwrap();
    assert_eq!(card_view, writer::to_string(&dom.view));
    // The DOM baseline decrypts the whole document; the card fetched fewer chunks.
    assert!(dom.ledger.bytes_decrypted as u64 >= secure.header.plaintext_len);
    assert!(
        card_chunks < secure.chunk_count(),
        "card fetched {card_chunks} of {} chunks",
        secure.chunk_count()
    );
    // And its working set is far beyond the e-gate's 1 KiB.
    assert!(dom.materialized_bytes > CardProfile::egate().ram_bytes);
}

#[test]
fn simulated_latency_reflects_the_egate_bottlenecks() {
    let doc = Corpus::Hospital.generate(600, &GeneratorConfig::default());
    let publisher = publish(&doc, "folders");
    let client = Client::builder("doctor").provision(&publisher).unwrap();
    let mut session = client.connect("folders").unwrap();
    session.run().unwrap();

    let egate = session.terminal().latency(&CostModel::egate());
    let modern = session
        .terminal()
        .latency(&CostModel::modern_secure_element());
    assert!(egate.total() > modern.total());
    // On the e-gate, the 2 KB/s channel dominates the breakdown.
    assert!(egate.transfer >= egate.evaluation);
    assert!(egate.transfer_share() > 0.3);
}

#[test]
fn all_generated_corpora_survive_the_full_pipeline() {
    for corpus in Corpus::all() {
        let doc = corpus.generate(600, &GeneratorConfig::default());
        let rules = RuleSet::parse("+, user, /*").unwrap();
        let publisher = Publisher::new(b"generic", rules);
        publisher.publish(corpus.name(), &doc).unwrap();
        let client = Client::builder("user").provision(&publisher).unwrap();
        let view = client.authorized_view(corpus.name()).unwrap();
        // Full permission: the view re-parses and contains the same number of
        // elements as the original document.
        let view_events = Parser::parse_all(&view).unwrap();
        let original = doc.to_events();
        assert_eq!(
            view_events.iter().filter(|e| e.name().is_some()).count(),
            original.iter().filter(|e| e.name().is_some()).count(),
            "corpus {} lost or duplicated elements",
            corpus.name()
        );
    }
}

#[test]
fn generated_documents_roundtrip_through_text_serialisation() {
    for corpus in Corpus::all() {
        let doc = corpus.generate(400, &GeneratorConfig::default());
        let text = doc.to_xml();
        let reparsed = Document::parse(&text).unwrap();
        assert_eq!(reparsed.to_xml(), text, "corpus {}", corpus.name());
        let events =
            generator::Corpus::generate(corpus, 400, &GeneratorConfig::default()).to_events();
        assert_eq!(events, doc.to_events());
    }
}
