//! Facade-level telemetry regression tests: the `ObsSnapshot` exposed by
//! [`sdds::Client::obs_snapshot`] must reflect what actually happened on the
//! serve, session, and error paths.
//!
//! The deterministic centrepiece is republish-under-reader: a stream pins
//! the revision it opened at, a republish lands between two `next()` calls,
//! and the resulting typed `StaleRevision` must show up both as the labelled
//! `dsp.errors{error=stale_revision}` counter and in the per-shard
//! `dsp.serve.stale_revisions` family.

use sdds::dsp::ServerStats;
use sdds::obs::families;
use sdds::{Client, ObsSnapshot, Publisher, RuleSet, SddsError};
use sdds_xml::generator::{self, GeneratorConfig, HospitalProfile};

fn publisher() -> Publisher {
    let rules = RuleSet::parse(
        "+, doctor, //patient\n-, doctor, //patient/ssn\n+, secretary, //patient/name",
    )
    .unwrap();
    // Small chunks force multi-chunk sessions, so a mid-stream republish has
    // a chunk fetch left to go stale on.
    Publisher::builder(b"hospital-2005")
        .rules(rules)
        .chunk_size(128)
        .build()
        .unwrap()
}

fn hospital(patients: usize) -> sdds_xml::Document {
    generator::hospital(
        &HospitalProfile {
            patients,
            ..HospitalProfile::default()
        },
        &GeneratorConfig::default(),
    )
}

#[test]
fn authorized_view_populates_serve_and_session_telemetry() {
    let publisher = publisher();
    publisher.publish("folders", &hospital(4)).unwrap();
    let client = Client::builder("doctor").provision(&publisher).unwrap();

    let view = client.authorized_view("folders").unwrap();
    assert!(view.contains("<patient"));

    let snapshot = client.obs_snapshot();
    assert!(
        snapshot.counter(families::SERVE_REQUESTS) > 0,
        "serves must be counted: {snapshot:?}"
    );
    assert!(snapshot.counter(families::SERVE_BYTES) > 0);
    assert!(snapshot.counter(families::SESSION_APDUS) > 0);
    assert!(snapshot.counter(families::SESSION_WIRE_BYTES) > 0);
    let latency = snapshot
        .histogram(families::SERVE_LATENCY)
        .expect("serve latency histogram is registered");
    assert!(latency.count > 0, "every serve records a latency sample");
    assert_eq!(
        snapshot.counter(families::ERRORS),
        0,
        "clean run: no errors"
    );
}

#[test]
fn republish_under_reader_counts_stale_revisions() {
    let publisher = publisher();
    publisher.publish("folders", &hospital(4)).unwrap();
    let client = Client::builder("doctor").provision(&publisher).unwrap();

    let mut stream = client.open_stream("folders").unwrap();
    let first = stream.next().expect("document is non-empty").unwrap();
    assert!(matches!(first, sdds::Event::Open { .. }));

    // The republish lands while the stream still has chunks to pull; its
    // pinned revision is now stale, so draining must fail typed.
    publisher.publish("folders", &hospital(5)).unwrap();
    let outcome = stream.collect_view();
    assert!(
        matches!(outcome, Err(SddsError::StaleRevision { .. })),
        "mid-stream republish must surface as StaleRevision: {outcome:?}"
    );

    let snapshot = client.obs_snapshot();
    assert!(
        snapshot.counter_with(families::ERRORS, families::ERROR_STALE_REVISION) > 0,
        "stale serve must increment the labelled error counter: {snapshot:?}"
    );
    assert!(
        snapshot.counter(families::SERVE_STALE) > 0,
        "stale serve must also be attributed to a shard: {snapshot:?}"
    );
    assert!(
        snapshot.counter(families::SESSION_EVENTS) > 0,
        "events yielded before the failure were still delivered"
    );
}

#[test]
fn missing_document_counts_not_found() {
    let publisher = publisher();
    publisher.publish("folders", &hospital(2)).unwrap();
    let client = Client::builder("doctor").provision(&publisher).unwrap();

    let outcome = client.authorized_view("no-such-document");
    assert!(outcome.is_err(), "missing document must fail");

    let snapshot = client.obs_snapshot();
    assert!(
        snapshot.counter_with(families::ERRORS, families::ERROR_NOT_FOUND) > 0,
        "NotFound must increment the labelled error counter: {snapshot:?}"
    );
}

#[test]
fn chunk_past_the_end_counts_chunk_out_of_range() {
    let publisher = publisher();
    publisher.publish("folders", &hospital(2)).unwrap();
    let service = publisher.service();
    let (header, revision) = service.fetch_header_pinned("folders").unwrap();
    // The last chunk is served; the index one past it is a typed error.
    let last = header.chunk_count - 1;
    assert!(service
        .fetch_chunk_pinned("folders", last, revision)
        .is_ok());
    let past = service.fetch_chunk_pinned("folders", header.chunk_count, revision);
    assert!(
        matches!(past, Err(sdds::wire::WireError::ChunkOutOfRange { .. })),
        "{past:?}"
    );

    let snapshot = service.obs_snapshot();
    assert_eq!(
        snapshot.counter_with(families::ERRORS, families::ERROR_CHUNK_OUT_OF_RANGE),
        1
    );
    assert_eq!(snapshot.counter(families::ERRORS), 1, "no other error");
}

/// The `dsp.serve.*` byte-accounting counters of `snapshot`, each summed
/// over its `shard=` labels, as a [`ServerStats`].
fn serve_counters(snapshot: &ObsSnapshot) -> ServerStats {
    let sum = |family: &str| {
        snapshot
            .counters
            .iter()
            .filter(|(key, _)| {
                key.family == family
                    && key
                        .label
                        .as_deref()
                        .is_some_and(|label| label.starts_with("shard="))
            })
            .map(|(_, value)| *value as usize)
            .sum()
    };
    ServerStats {
        requests: sum(families::SERVE_REQUESTS),
        bytes_served: sum(families::SERVE_BYTES),
        chunks_served: sum(families::SERVE_CHUNKS),
        rule_blobs_served: sum(families::SERVE_RULE_BLOBS),
        rule_bytes_served: sum(families::SERVE_RULE_BYTES),
    }
}

/// `DspService::stats()` and the registry snapshot read the same cells, so
/// after any mix of traffic — pinned and salted fetches, replica routes, a
/// stale-revision rejection — and after a reset, they agree exactly.
#[test]
fn service_stats_equal_the_serve_counters_in_the_snapshot() {
    let publisher = Publisher::builder(b"hospital-2005")
        .rules(RuleSet::parse("+, doctor, //patient\n-, doctor, //patient/ssn").unwrap())
        .chunk_size(128)
        .shards(4)
        .replicate(4)
        .build()
        .unwrap();
    publisher.publish("folders", &hospital(4)).unwrap();
    let client = Client::builder("doctor").provision(&publisher).unwrap();
    let service = client.service();

    // Header, rules and chunk fetches: a pinned in-process view, a salted
    // card session, and one direct rule fetch.
    client.authorized_view("folders").unwrap();
    client.connect("folders").unwrap().run().unwrap();
    service.fetch_rules("folders", "doctor").unwrap();
    // A mid-stream republish: one StaleRevision rejection.
    let mut stream = client.open_stream("folders").unwrap();
    stream.next().expect("document is non-empty").unwrap();
    publisher.publish("folders", &hospital(5)).unwrap();
    assert!(matches!(
        stream.collect_view(),
        Err(SddsError::StaleRevision { .. })
    ));

    let snapshot = service.obs_snapshot();
    assert!(
        snapshot.counter(families::SERVE_REPLICA_ROUTES) > 0,
        "the pinned replicas must have served: {snapshot:?}"
    );
    assert_eq!(
        snapshot.counter_with(families::ERRORS, families::ERROR_STALE_REVISION),
        1
    );
    let stats = service.stats();
    assert!(stats.chunks_served > 0 && stats.rule_blobs_served > 0);
    assert_eq!(stats, serve_counters(&snapshot));

    service.reset_stats();
    assert_eq!(service.stats(), ServerStats::default());
    assert_eq!(
        serve_counters(&service.obs_snapshot()),
        ServerStats::default()
    );
}
