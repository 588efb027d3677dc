//! Concurrent-read property: N reader threads hammer one document through
//! the full facade (fresh card session per pull) while a republisher thread
//! keeps replacing it. Every pull that completes must return a view that is
//! **byte-identical to the oracle view of some published revision** — no
//! torn interleaving mixing two revisions — and every pull that fails must
//! fail with the typed `StaleRevision` (a republish raced the session),
//! never with a crypto error.
//!
//! Honours `SDDS_PROP_CASES` (default 64, CI raises it): the case budget is
//! the number of completed reads demanded across the reader threads.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use sdds::{Client, Publisher, RuleSet, SddsError};
use sdds_core::baseline::authorized_view_oracle;
use sdds_core::conflict::AccessPolicy;
use sdds_core::rule::Subject;
use sdds_xml::generator::{self, GeneratorConfig, HospitalProfile};
use sdds_xml::{writer, Document};

fn cases() -> usize {
    std::env::var("SDDS_PROP_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

fn rules() -> RuleSet {
    RuleSet::parse("+, doctor, //patient\n-, doctor, //patient/ssn\n+, secretary, //patient/name")
        .unwrap()
}

/// Distinct document contents the republisher cycles through (patient count
/// varies, so every revision has a different authorized view).
fn variants() -> Vec<Document> {
    (2..=5)
        .map(|patients| {
            generator::hospital(
                &HospitalProfile {
                    patients,
                    ..HospitalProfile::default()
                },
                &GeneratorConfig::default(),
            )
        })
        .collect()
}

#[test]
fn completed_views_always_match_the_oracle_of_some_revision() {
    let variants = variants();
    let subjects = ["doctor", "secretary"];

    // The oracle views a correct serve may produce, per subject: one per
    // content variant (self-consistent revision), nothing else.
    let mut oracle: BTreeSet<(String, String)> = BTreeSet::new();
    for subject in subjects {
        for doc in &variants {
            let view = writer::to_string(&authorized_view_oracle(
                doc,
                &rules(),
                &Subject::new(subject),
                None,
                &AccessPolicy::paper(),
            ));
            oracle.insert((subject.to_owned(), view));
        }
    }

    // Small chunks ⇒ long sessions ⇒ many chances for a republish to land
    // mid-pull. 4 shards + replication exercise the routed read path too.
    let publisher = Publisher::builder(b"hospital-2005")
        .rules(rules())
        .shards(4)
        .replicate(4)
        .chunk_size(128)
        .build()
        .unwrap();
    publisher.publish("folders", &variants[0]).unwrap();

    let readers = 4usize;
    let demanded = cases().max(readers);
    let completed = AtomicUsize::new(0);
    let stale_retries = AtomicUsize::new(0);
    let publishing = AtomicBool::new(true);
    let clients: Vec<(String, Client)> = (0..readers)
        .map(|i| {
            let subject = subjects[i % subjects.len()];
            (
                subject.to_owned(),
                Client::builder(subject).provision(&publisher).unwrap(),
            )
        })
        .collect();

    std::thread::scope(|scope| {
        // The republisher: keeps replacing the document while readers pull,
        // then stops so the remaining reads drain stale-free.
        let publisher_ref = &publisher;
        let publishing_ref = &publishing;
        let completed_ref = &completed;
        let variants_ref = &variants;
        scope.spawn(move || {
            // Bounded on both axes: stop once the readers made real progress
            // OR after a fixed publish budget — a machine where publishing
            // vastly outpaces pulling must not starve the readers into
            // retrying forever.
            let mut round = 0usize;
            while completed_ref.load(Ordering::Relaxed) < demanded / 2 && round < demanded * 4 {
                round += 1;
                publisher_ref
                    .publish("folders", &variants_ref[round % variants_ref.len()])
                    .unwrap();
                std::thread::yield_now();
            }
            publishing_ref.store(false, Ordering::Relaxed);
        });

        for (subject, client) in &clients {
            let oracle = &oracle;
            let completed = &completed;
            let stale_retries = &stale_retries;
            scope.spawn(move || {
                while completed.load(Ordering::Relaxed) < demanded {
                    match client.authorized_view("folders") {
                        Ok(view) => {
                            assert!(
                                oracle.contains(&(subject.clone(), view.clone())),
                                "subject `{subject}` read a view matching no published \
                                 revision (torn interleaving?): {view:?}"
                            );
                            completed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(SddsError::StaleRevision { .. }) => {
                            // A republish raced this pull: the one legal
                            // failure. Retry.
                            stale_retries.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(other) => panic!(
                            "subject `{subject}` failed with a non-staleness error: {other:?}"
                        ),
                    }
                }
            });
        }
    });

    assert!(completed.load(Ordering::Relaxed) >= demanded);
    assert!(
        !publishing.load(Ordering::Relaxed),
        "the republisher retired before the readers finished"
    );
    // Not asserted ≥1: whether a republish lands mid-pull is timing
    // dependent; the property is that staleness is the *only* legal failure.
    let _ = stale_retries.load(Ordering::Relaxed);
}

#[test]
fn view_streams_see_one_revision_or_go_stale() {
    // Same property through the incremental `ViewStream` path: each stream
    // either drains to an oracle view or yields exactly one typed
    // StaleRevision error.
    let variants = variants();
    let oracle: BTreeSet<String> = variants
        .iter()
        .map(|doc| {
            writer::to_string(&authorized_view_oracle(
                doc,
                &rules(),
                &Subject::new("doctor"),
                None,
                &AccessPolicy::paper(),
            ))
        })
        .collect();

    let publisher = Publisher::builder(b"hospital-2005")
        .rules(rules())
        .shards(2)
        .chunk_size(128)
        .build()
        .unwrap();
    publisher.publish("folders", &variants[0]).unwrap();
    let client = Arc::new(Client::builder("doctor").provision(&publisher).unwrap());

    let rounds = (cases() / 8).max(4);
    let stopped = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let publisher_ref = &publisher;
        let stopped_ref = &stopped;
        let variants_ref = &variants;
        scope.spawn(move || {
            let mut round = 0usize;
            while !stopped_ref.load(Ordering::Relaxed) {
                round += 1;
                publisher_ref
                    .publish("folders", &variants_ref[round % variants_ref.len()])
                    .unwrap();
                std::thread::yield_now();
            }
        });

        for _ in 0..rounds {
            match client.open_stream("folders") {
                Ok(stream) => match stream.collect_view() {
                    Ok(view) => assert!(
                        oracle.contains(&view),
                        "stream drained to a view matching no revision"
                    ),
                    Err(SddsError::StaleRevision { .. }) => {}
                    Err(other) => panic!("stream failed with {other:?}"),
                },
                // The open itself can race the republish window.
                Err(SddsError::StaleRevision { .. }) => {}
                Err(other) => panic!("open failed with {other:?}"),
            }
        }
        stopped.store(true, Ordering::Relaxed);
    });
}
