//! Rights change at session boundaries (E7): re-issuing a subject's sealed
//! rule blob changes what that subject's *next* session delivers, while a
//! session already open keeps the rules it opened with — the view it drains
//! is exactly the oracle view under the old rules, never a mix of both.

use sdds::{AccessPolicy, Client, Publisher, RuleSet, Sign, Subject};
use sdds_core::baseline::authorized_view_oracle;
use sdds_xml::generator::{self, GeneratorConfig, HospitalProfile};
use sdds_xml::{writer, Document, Event};

fn hospital() -> Document {
    generator::hospital(
        &HospitalProfile {
            patients: 4,
            ..HospitalProfile::default()
        },
        &GeneratorConfig::default(),
    )
}

fn oracle(doc: &Document, rules: &RuleSet, subject: &str) -> String {
    writer::to_string(&authorized_view_oracle(
        doc,
        rules,
        &Subject::new(subject),
        None,
        &AccessPolicy::paper(),
    ))
}

#[test]
fn a_grant_under_an_open_stream_applies_from_the_next_stream() {
    let doc = hospital();
    let old_rules = RuleSet::parse("+, doctor, //patient\n-, doctor, //patient/ssn").unwrap();
    // Small chunks, so the open stream still has fetches ahead of it when
    // the policy changes.
    let mut publisher = Publisher::builder(b"hospital-2005")
        .rules(old_rules.clone())
        .chunk_size(128)
        .build()
        .unwrap();
    publisher.publish("folders", &doc).unwrap();
    let client = Client::builder("doctor").provision(&publisher).unwrap();

    let mut stream = client.open_stream("folders").unwrap();
    let mut events: Vec<Event> = stream.by_ref().take(5).collect::<Result<_, _>>().unwrap();
    assert_eq!(events.len(), 5);

    // Re-issue the doctor's blob at the DSP: names are now hidden.
    publisher
        .grant("doctor", Sign::Deny, "//patient/name")
        .unwrap();
    let new_rules = publisher.rules().clone();
    assert_ne!(
        oracle(&doc, &old_rules, "doctor"),
        oracle(&doc, &new_rules, "doctor")
    );

    // The open stream drains under the rules it opened with ...
    for event in stream {
        events.push(event.unwrap());
    }
    assert_eq!(
        writer::to_string(&events),
        oracle(&doc, &old_rules, "doctor")
    );
    // ... and the next stream, like the next card pull, runs under the new
    // ones.
    let view = client
        .open_stream("folders")
        .unwrap()
        .collect_view()
        .unwrap();
    assert_eq!(view, oracle(&doc, &new_rules, "doctor"));
    assert!(!view.contains("<name>"));
    assert_eq!(client.authorized_view("folders").unwrap(), view);
}
