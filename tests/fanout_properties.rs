//! Property tests of the fan-out disseminator (experiment E10, push side).
//!
//! The claim the service layer rests on: fanning one published stream out to
//! M subscribers is **observationally identical** to M independent unicast
//! channels — same ciphertext on the wire, same per-subscriber SOE output —
//! while the publisher performs O(1) encryptions per item *regardless of M*
//! (a unicast deployment would re-encrypt per subscriber, or at best repeat
//! the broadcast bytes M times).
//!
//! The publisher (`sdds::proxy::DisseminationChannel`, holds the key) and the
//! DSP-side fan-out (`sdds::dsp::FanOutDisseminator`, ciphertext only) sit on
//! opposite sides of the trust boundary; the split itself is enforced by the
//! crate graph (the DSP depends on no crate that holds a key or cleartext),
//! and this test pins that the split loses no behaviour.
//!
//! Like `streaming_vs_oracle_properties.rs`, each property runs over
//! `SDDS_PROP_CASES` seeded deterministic cases (default 64; CI 256).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use sdds::core::conflict::AccessPolicy;
use sdds::core::engine::{evaluate_secure_document, EngineConfig};
use sdds::core::evaluator::EvaluatorConfig;
use sdds::core::rule::RuleSet;
use sdds::crypto::SecretKey;
use sdds::dsp::FanOutDisseminator;
use sdds::proxy::DisseminationChannel;
use sdds::xml::generator::{self, GeneratorConfig, StreamProfile};
use sdds::xml::writer;

/// Cases per property: `SDDS_PROP_CASES` when set and parseable, else 64.
fn cases() -> u64 {
    std::env::var("SDDS_PROP_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(64)
}

/// A random small stream document.
fn random_stream(rng: &mut SmallRng) -> sdds::xml::Document {
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

/// A parental-control subscriber with a random rating threshold: different
/// thresholds give genuinely different SOE outputs across subscribers.
fn subscriber_rules(rng: &mut SmallRng, subject: &str) -> RuleSet {
    let threshold = rng.gen_range(0u32..20);
    RuleSet::parse(&format!("-, {subject}, //item[rating > {threshold}]"))
        .expect("generated rule parses")
}

#[test]
fn fanout_is_byte_identical_to_independent_unicasts() {
    for case in 0..cases() {
        let mut rng = SmallRng::seed_from_u64(0xFA_0007 + case);
        let stream = random_stream(&mut rng);
        let key = SecretKey::derive(b"fanout-prop", &format!("case-{case}"));
        let subscribers = rng.gen_range(1usize..5);

        // One publisher encrypting once, with the DSP fanning the shared
        // ciphertext out to M subscribers...
        let mut publisher = DisseminationChannel::new("feed", key.clone());
        let mut fanout = FanOutDisseminator::new("feed");
        let members: Vec<(sdds::dsp::service::SubscriberId, RuleSet)> = (0..subscribers)
            .map(|m| {
                let subject = format!("sub{m}");
                let id = fanout.subscribe(&subject);
                (id, subscriber_rules(&mut rng, &subject))
            })
            .collect();
        let published = publisher.publish_all(&stream);
        assert!(published > 0, "case {case}: stream generated no items");
        let delivered = fanout.deliver_all(publisher.published());
        assert_eq!(delivered, published);

        // ...versus M independent unicast channels publishing the same stream.
        for (m, (id, rules)) in members.iter().enumerate() {
            let mut unicast = DisseminationChannel::new("feed", key.clone());
            unicast.publish_all(&stream);
            let received = fanout.drain(*id);
            assert_eq!(
                received.len(),
                unicast.published().len(),
                "case {case}: subscriber {m} item count"
            );
            for (item, uni) in received.iter().zip(unicast.published()) {
                // Same ciphertext, byte for byte: chunks and header.
                assert_eq!(
                    item.document.chunks, uni.document.chunks,
                    "case {case}: ciphertext differs for item {}",
                    item.sequence
                );
                assert_eq!(
                    item.document.header.encode(),
                    uni.document.header.encode(),
                    "case {case}: header differs for item {}",
                    item.sequence
                );
            }

            // Same SOE output for this subscriber on both copies. Byte
            // identity already implies it for every item, so the double
            // evaluation runs on one sampled item per subscriber — enough to
            // catch a future divergence of the two publication paths without
            // doubling the cost of the whole property.
            let sampled = rng.gen_range(0..received.len());
            let subject = format!("sub{m}");
            let view = |doc: &sdds::core::secdoc::SecureDocument| {
                let config = EngineConfig::new(
                    EvaluatorConfig::new(rules.clone(), subject.as_str())
                        .with_policy(AccessPolicy::open()),
                );
                let (events, _) = evaluate_secure_document(doc, &key, config)
                    .expect("subscriber SOE evaluation succeeds");
                writer::to_string(&events)
            };
            assert_eq!(
                view(&received[sampled].document),
                view(&unicast.published()[sampled].document),
                "case {case}: SOE output differs for subscriber {m}, item {sampled}"
            );
        }

        // The O(1)-encryptions invariant: publishing cost is independent of
        // M. The publisher's history counts one encryption per item, and the
        // DSP delivered exactly those allocations (no copy, no re-encrypt).
        assert_eq!(
            publisher.published().len(),
            published,
            "case {case}: fan-out must encrypt once per item, not per subscriber"
        );
        for (p, d) in publisher.published().iter().zip(fanout.delivered()) {
            assert!(
                std::sync::Arc::ptr_eq(p, d),
                "case {case}: DSP must forward the publisher's allocation"
            );
        }
        // And the broadcast medium carries each item once, not M times.
        let mut unicast = DisseminationChannel::new("feed", key.clone());
        unicast.publish_all(&stream);
        assert_eq!(fanout.broadcast_bytes(), unicast.broadcast_bytes());
    }
}
