//! Property tests of push dissemination (demonstration application 2,
//! experiment E6).
//!
//! The paper broadcasts each encrypted item "through unsecured channels" and
//! lets every subscriber's SOE select what its user may see (§3). Two claims
//! follow, and this file pins both on the code path `DisseminationApp` runs:
//!
//! * the publisher encrypts each item **once**, whatever the number of
//!   subscribers — access differentiation is carried by the per-subscriber
//!   protected rules, not by per-subscriber ciphertexts;
//! * each subscriber's card, fed that one shared ciphertext, delivers exactly
//!   the authorized view of the item's plaintext (`authorized_view_oracle`).
//!
//! Like `streaming_vs_oracle_properties.rs`, each property runs over
//! `SDDS_PROP_CASES` seeded deterministic cases (default 64; CI 256).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use sdds::apps::dissem::DisseminationApp;
use sdds::core::baseline::authorized_view_oracle;
use sdds::xml::generator::{self, GeneratorConfig, StreamProfile};
use sdds::xml::writer;
use sdds::{AccessPolicy, CardProfile, Client, Document, RuleSet, Subject};

/// Cases per property: `SDDS_PROP_CASES` when set and parseable, else 64.
fn cases() -> u64 {
    std::env::var("SDDS_PROP_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(64)
}

/// A random small stream document.
fn random_stream(rng: &mut SmallRng) -> Document {
    generator::stream(
        &StreamProfile {
            items: rng.gen_range(2usize..7),
            payload_len: rng.gen_range(16usize..200),
            ..StreamProfile::default()
        },
        &GeneratorConfig {
            seed: rng.next_u64(),
            text_len: 8,
        },
    )
}

/// One to four parental-control subscribers `sub0`, `sub1`, ..., each with
/// a random rating threshold, so their views genuinely differ.
fn random_subscribers(rng: &mut SmallRng) -> (Vec<String>, RuleSet) {
    let subjects: Vec<String> = (0..rng.gen_range(1usize..5))
        .map(|m| format!("sub{m}"))
        .collect();
    let rules = subjects
        .iter()
        .map(|subject| {
            let threshold = rng.gen_range(0u32..20);
            format!("-, {subject}, //item[rating > {threshold}]")
        })
        .collect::<Vec<_>>()
        .join("\n");
    let rules = RuleSet::parse(&rules).expect("generated rules parse");
    (subjects, rules)
}

#[test]
fn one_encryption_per_item_whatever_the_subscriber_count() {
    for case in 0..cases() {
        let mut rng = SmallRng::seed_from_u64(0xD155_0000 + case);
        let stream = random_stream(&mut rng);
        let items = stream.element_children(stream.root().unwrap()).count();
        let (subjects, rules) = random_subscribers(&mut rng);
        let app = DisseminationApp::new(
            b"dissemination-prop",
            &stream,
            rules,
            CardProfile::modern_secure_element(),
        );
        let ids: Vec<&str> = app
            .channel()
            .published()
            .iter()
            .map(|item| item.header.doc_id.as_str())
            .collect();
        let expected: Vec<String> = (0..items).map(|i| format!("broadcast#{i}")).collect();
        assert_eq!(
            ids,
            expected,
            "case {case}: {} subscribers must share one ciphertext per item",
            subjects.len()
        );
    }
}

#[test]
fn every_subscribers_card_view_is_the_oracle_view_of_each_item() {
    for case in 0..cases() {
        let mut rng = SmallRng::seed_from_u64(0xD155_1000 + case);
        let stream = random_stream(&mut rng);
        let plaintexts: Vec<Document> = stream
            .element_children(stream.root().unwrap())
            .map(|item| Document::from_events(&stream.subtree_events(item)).unwrap())
            .collect();
        let (subjects, rules) = random_subscribers(&mut rng);
        let card = CardProfile::modern_secure_element();
        let app = DisseminationApp::new(b"dissemination-prop", &stream, rules, card);
        let published = app.channel().published();
        assert_eq!(published.len(), plaintexts.len(), "case {case}");

        for subject in &subjects {
            // The card `DisseminationApp::consume_with_card` provisions.
            let mut terminal = Client::builder(subject.as_str())
                .card_profile(card)
                .open_policy(true)
                .provision(app.publisher())
                .and_then(|client| client.terminal_with_rules())
                .unwrap();
            for (i, (item, plaintext)) in published.iter().zip(&plaintexts).enumerate() {
                let view = terminal.evaluate_local(item).unwrap();
                let oracle = authorized_view_oracle(
                    plaintext,
                    app.publisher().rules(),
                    &Subject::new(subject.as_str()),
                    None,
                    &AccessPolicy::open(),
                );
                assert_eq!(
                    view,
                    writer::to_string(&oracle),
                    "case {case}: {subject}, item {i}"
                );
            }
        }
    }
}
