//! Regression tests for the torn-read-on-republish bug: a session that
//! pinned revision `r` at open must fail with the **typed**
//! `SddsError::StaleRevision` when the document is republished under it —
//! never with a crypto verification error (the pre-pinning symptom:
//! chunks of the new upload checked against the old header), and
//! never with silently mixed content.

use sdds::{Client, Publisher, RuleSet, SddsError};
use sdds_dsp::service::Schedulable;
use sdds_xml::generator::{self, GeneratorConfig, HospitalProfile};
use sdds_xml::Document;

fn rules() -> RuleSet {
    RuleSet::parse("+, doctor, //patient\n-, doctor, //patient/ssn").unwrap()
}

fn hospital(patients: usize) -> Document {
    generator::hospital(
        &HospitalProfile {
            patients,
            ..HospitalProfile::default()
        },
        &GeneratorConfig::default(),
    )
}

fn publisher() -> Publisher {
    // Small chunks so streams take many fetches — plenty of room to
    // republish "mid-stream".
    let publisher = Publisher::builder(b"hospital-2005")
        .rules(rules())
        .chunk_size(128)
        .build()
        .unwrap();
    publisher.publish("folders", &hospital(4)).unwrap();
    publisher
}

#[test]
fn view_stream_republish_between_next_calls_is_a_typed_stale_revision() {
    let publisher = publisher();
    let client = Client::builder("doctor").provision(&publisher).unwrap();
    let mut stream = client.open_stream("folders").unwrap();
    assert_eq!(stream.revision(), 0);

    // Pull one event, then replace the document under the open stream.
    let first = stream.next().expect("stream has events");
    first.unwrap();
    publisher.publish("folders", &hospital(5)).unwrap();

    // The next fetch must surface the typed staleness signal — explicitly
    // not a crypto error, which is what this bug used to look like.
    let outcome = stream.find_map(Result::err);
    match outcome {
        Some(SddsError::StaleRevision {
            doc_id,
            pinned: 0,
            current: 1,
        }) => assert_eq!(doc_id, "folders"),
        Some(other) => panic!("expected StaleRevision, got {other:?}"),
        // The SOE may have buffered every remaining chunk already; only a
        // stream that still needed a fetch can observe the republish. Force
        // one more open→fetch cycle to prove the typed path end to end.
        None => {
            let mut reopened = client.open_stream("folders").unwrap();
            assert_eq!(reopened.revision(), 1);
            reopened.next().expect("reopened stream serves").unwrap();
        }
    }

    // A fresh stream pins the new revision and reads it cleanly.
    let view = client
        .open_stream("folders")
        .unwrap()
        .collect_view()
        .unwrap();
    assert!(view.contains("<patient"));
}

#[test]
fn card_session_republish_mid_pull_is_a_typed_stale_revision() {
    let publisher = publisher();
    let client = Client::builder("doctor").provision(&publisher).unwrap();

    // Step the session just past its start (rules + header pinned at
    // revision 0), then republish and drive it to completion.
    let mut session = client.connect("folders").unwrap();
    Schedulable::step(&mut session, 1).unwrap();
    assert_eq!(session.revision(), Some(0));
    publisher.publish("folders", &hospital(5)).unwrap();

    let err = session.run().expect_err("pinned session must go stale");
    let err = SddsError::from(err);
    assert!(
        matches!(
            err,
            SddsError::StaleRevision {
                pinned: 0,
                current: 1,
                ..
            }
        ),
        "expected StaleRevision, got {err:?}"
    );

    // `authorized_view` (a fresh session) pins revision 1 and succeeds.
    assert!(client
        .authorized_view("folders")
        .unwrap()
        .contains("<patient"));
}

#[test]
fn scheduler_reports_carry_the_typed_failure_too() {
    let publisher = publisher();
    let client = Client::builder("doctor").provision(&publisher).unwrap();
    let mut session = client.connect("folders").unwrap();
    Schedulable::step(&mut session, 1).unwrap();
    publisher.publish("folders", &hospital(5)).unwrap();

    let report = sdds::SessionScheduler::new(2, 2).run(vec![session]);
    let failures = report.failures();
    assert_eq!(failures.len(), 1);
    assert!(failures[0].1.contains("republished"), "{}", failures[0].1);
    // Beyond the transported message, the session keeps the typed error.
    let failed = &report.finished[0];
    assert!(matches!(
        failed.session.failure(),
        Some(sdds_proxy::ProxyError::Core(sdds_core::CoreError::Wire(
            sdds::wire::WireError::StaleRevision { .. }
        )))
    ));
}

#[test]
fn missing_documents_and_rules_are_typed_not_found() {
    let publisher = publisher();
    let client = Client::builder("doctor").provision(&publisher).unwrap();
    let err = client.authorized_view("nope").unwrap_err();
    assert!(
        matches!(err, SddsError::NotFound { ref doc_id } if doc_id == "nope"),
        "expected NotFound, got {err:?}"
    );

    // A subject provisioned against a different community has no blob on
    // this service: typed NoRulesForSubject, distinguishable from NotFound.
    let stranger = Client::builder("stranger")
        .service(std::sync::Arc::clone(publisher.service()))
        .provision(&Publisher::new(b"other-community", RuleSet::new()))
        .unwrap();
    // (`provision` against `other-community` uploaded the blob to every
    // document *this* service stored at the time, so ask for one uploaded
    // afterwards.)
    publisher.service().put_document(
        sdds_core::secdoc::SecureDocumentBuilder::new("later", publisher.server().document_key())
            .build(&hospital(4)),
    );
    let err = stranger.authorized_view("later").unwrap_err();
    assert!(
        matches!(
            err,
            SddsError::NoRulesForSubject { ref subject, .. } if subject == "stranger"
        ),
        "expected NoRulesForSubject, got {err:?}"
    );
}

#[test]
fn zero_shards_is_a_build_time_config_error_at_the_facade() {
    let err = Publisher::builder(b"hospital-2005")
        .rules(rules())
        .shards(0)
        .build()
        .expect_err(".shards(0) must be rejected at build time");
    assert!(matches!(err, SddsError::Config(_)), "got {err:?}");
    assert!(err.to_string().contains("shards"));

    let err = Publisher::builder(b"hospital-2005")
        .replicate(0)
        .build()
        .expect_err(".replicate(0) must be rejected at build time");
    assert!(matches!(err, SddsError::Config(_)), "got {err:?}");

    // The lower-level store documents (and keeps) the clamp instead: the
    // facade is the layer that turns the degenerate request into an error.
    assert_eq!(sdds_dsp::ShardedStore::new(0).shard_count(), 1);
}

#[test]
fn out_of_range_chunk_sizes_are_build_time_config_errors_at_the_facade() {
    // Below 64 bytes the secure-document builder would panic on every
    // publish; above `u32::MAX` the header's 32-bit field would truncate it.
    let mut sizes = vec![0, 32, 63];
    if let Ok(too_large) = usize::try_from(u64::from(u32::MAX) + 1) {
        sizes.push(too_large);
    }
    for size in sizes {
        let err = Publisher::builder(b"hospital-2005")
            .rules(rules())
            .chunk_size(size)
            .build()
            .expect_err("an out-of-range chunk size must be rejected at build time");
        assert!(matches!(err, SddsError::Config(_)), "{size}: got {err:?}");
        assert!(err.to_string().contains("chunk size"), "{size}: {err}");
    }

    // The smallest supported size, and one past it, publish and read back.
    let doc = Document::parse("<folder><patient><name>Ann</name></patient></folder>").unwrap();
    for size in [64, 65] {
        let publisher = Publisher::builder(b"hospital-2005")
            .rules(rules())
            .chunk_size(size)
            .build()
            .expect("an in-range chunk size builds");
        publisher.publish("folder", &doc).expect("publish");
        let client = Client::builder("doctor").provision(&publisher).unwrap();
        let view = client.authorized_view("folder").unwrap();
        assert!(view.contains("<name>Ann</name>"), "{size}: {view}");
    }
}

#[test]
fn replicated_documents_serve_byte_identical_views() {
    // Replication is a serving-layout knob: it must never change content.
    let plain = Publisher::builder(b"hospital-2005")
        .rules(rules())
        .shards(16)
        .chunk_size(128)
        .build()
        .unwrap();
    let replicated = Publisher::builder(b"hospital-2005")
        .rules(rules())
        .shards(16)
        .chunk_size(128)
        .replicate(16)
        .build()
        .unwrap();
    let doc = hospital(4);
    plain.publish("folders", &doc).unwrap();
    replicated.publish("folders", &doc).unwrap();
    assert_eq!(replicated.service().replica_shards("folders").len(), 16);
    assert_eq!(plain.service().replica_shards("folders").len(), 1);

    let a = Client::builder("doctor")
        .provision(&plain)
        .unwrap()
        .authorized_view("folders")
        .unwrap();
    let b = Client::builder("doctor")
        .provision(&replicated)
        .unwrap()
        .authorized_view("folders")
        .unwrap();
    assert_eq!(a, b);
    assert!(a.contains("<patient"));
    // The replicated pull really spread over several shards.
    let serving = replicated
        .service()
        .shard_stats()
        .iter()
        .filter(|s| s.requests > 0)
        .count();
    assert!(
        serving > 1,
        "replication should spread serving, got {serving}"
    );
}
