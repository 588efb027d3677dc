//! Integration tests of the secure pipeline itself: tamper resistance across
//! crate boundaries, skip-index cost behaviour, RAM-budget behaviour and the
//! dissemination path.

use std::time::Duration;

use sdds::apps::dissem::DisseminationApp;
use sdds::{Client, DspService, Publisher, SddsError, Subject};
use sdds_card::{CardProfile, CostModel};
use sdds_core::baseline::authorized_view_oracle;
use sdds_core::conflict::AccessPolicy;
use sdds_core::engine::{
    evaluate_secure_document, EngineConfig, SecureEvaluationSession, SessionRequest,
};
use sdds_core::evaluator::EvaluatorConfig;
use sdds_core::rule::RuleSet;
use sdds_core::secdoc::{ChunkTag, SecureDocument, SecureDocumentBuilder};
use sdds_core::skipindex::encode::EncoderConfig;
use sdds_core::CoreError;
use sdds_crypto::SecretKey;
use sdds_xml::generator::{self, Corpus, GeneratorConfig, StreamProfile};
use sdds_xml::writer;

fn key() -> SecretKey {
    SecretKey::derive(b"integration", "doc")
}

fn restrictive_rules() -> RuleSet {
    RuleSet::parse("+, user, //patient/name").unwrap()
}

#[test]
fn skip_benefit_grows_with_document_size_and_restrictiveness() {
    // The headline claim of E2: for a restrictive subject the skip index cuts
    // the transferred + decrypted volume, and the benefit grows with size.
    let mut previous_ratio = f64::MAX;
    for target in [500usize, 2_000, 8_000] {
        let doc = Corpus::Hospital.generate(target, &GeneratorConfig::default());
        // 128-byte chunks: the chunk is the integrity/decryption granularity,
        // so it bounds how much of the skipped bytes translates into chunks
        // that are never fetched (see the E2 ablation on chunk size).
        let secure = SecureDocumentBuilder::new("doc", key())
            .chunk_size(128)
            .encoder_config(EncoderConfig {
                min_index_bytes: 32,
                ..EncoderConfig::default()
            })
            .build(&doc);
        let config = EngineConfig::new(EvaluatorConfig::new(restrictive_rules(), "user"));
        let (view, with) = evaluate_secure_document(&secure, &key(), config).unwrap();
        let oracle = authorized_view_oracle(
            &doc,
            &restrictive_rules(),
            &Subject::new("user"),
            None,
            &AccessPolicy::paper(),
        );
        assert_eq!(writer::to_string(&view), writer::to_string(&oracle));
        // A read without the index decrypts the whole ciphertext.
        let full = secure.ciphertext_len();
        assert!(with.ledger.bytes_decrypted < full);
        // The skipped *byte ranges* must cover most of the document (the rule
        // only needs the name element of each patient).
        assert!(
            with.ledger.bytes_skipped as f64 > 0.7 * secure.header.plaintext_len as f64,
            "expected most of the document to be skipped"
        );
        let ratio = with.ledger.bytes_decrypted as f64 / full as f64;
        assert!(
            ratio <= previous_ratio + 0.15,
            "skip benefit should not degrade as the document grows (ratio {ratio} after {previous_ratio})"
        );
        previous_ratio = ratio;
    }
    // For the largest document the realised reduction (whole chunks never
    // fetched nor decrypted) must be substantial.
    assert!(
        previous_ratio < 0.7,
        "expected >30% decryption savings, got ratio {previous_ratio}"
    );
}

#[test]
fn chunk_size_trades_skip_precision_for_proof_overhead() {
    let doc = Corpus::Hospital.generate(4_000, &GeneratorConfig::default());
    let mut decrypted = Vec::new();
    for chunk_size in [128usize, 512, 2048] {
        let secure = SecureDocumentBuilder::new("doc", key())
            .chunk_size(chunk_size)
            .build(&doc);
        let config = EngineConfig::new(EvaluatorConfig::new(restrictive_rules(), "user"));
        let (_, stats) = evaluate_secure_document(&secure, &key(), config).unwrap();
        decrypted.push(stats.ledger.bytes_decrypted);
    }
    // Smaller chunks skip more precisely, hence decrypt no more than larger ones.
    assert!(decrypted[0] <= decrypted[1]);
    assert!(decrypted[1] <= decrypted[2]);
}

#[test]
fn tampering_anywhere_is_detected_before_any_output_is_produced() {
    let doc = Corpus::Hospital.generate(800, &GeneratorConfig::default());
    let secure = SecureDocumentBuilder::new("doc", key()).build(&doc);
    let config = || EngineConfig::new(EvaluatorConfig::new(restrictive_rules(), "user"));

    // Header tampering.
    let mut header = secure.header.clone();
    header.plaintext_len += 1;
    assert!(SecureEvaluationSession::open(header, key(), config()).is_err());

    // Chunk substitution: serve chunk 1 in place of chunk 0 with chunk 0's tag.
    let mut session =
        SecureEvaluationSession::open(secure.header.clone(), key(), config()).unwrap();
    let SessionRequest::NeedChunk(first) = session.next_request() else {
        panic!("expected a chunk request")
    };
    let (_, tag) = secure.sealed_chunk(first as usize).unwrap();
    let err = session
        .supply_chunk(first, secure.chunk((first + 1) as usize).unwrap(), &tag)
        .unwrap_err();
    assert!(matches!(err, CoreError::Crypto(_)));
    assert!(session.take_output().is_empty());
}

#[test]
fn egate_ram_budget_is_respected_on_realistic_folders() {
    // The evaluator working set (excluding the chunk window handled by the
    // card's I/O buffer) must stay within the e-gate's 1 KiB for rule sets
    // without cross-subtree pendency, independently of document size.
    let doc = Corpus::Hospital.generate(6_000, &GeneratorConfig::default());
    let secure = SecureDocumentBuilder::new("doc", key())
        .chunk_size(256)
        .build(&doc);
    let config = EngineConfig::new(EvaluatorConfig::new(restrictive_rules(), "user"));
    let (_, stats) = evaluate_secure_document(&secure, &key(), config).unwrap();
    let evaluator_peak = stats.evaluator.unwrap().peak_ram_bytes();
    assert!(
        evaluator_peak <= CardProfile::egate().ram_bytes,
        "evaluator peak {evaluator_peak} exceeds the 1 KiB e-gate budget"
    );
}

#[test]
fn dissemination_meets_real_time_on_the_egate_model() {
    let stream = generator::stream(
        &StreamProfile {
            items: 15,
            payload_len: 96,
            ..StreamProfile::default()
        },
        &GeneratorConfig::default(),
    );
    let rules = RuleSet::parse("-, child, //item[rating > 12]").unwrap();
    let app = DisseminationApp::new(b"broadcast", &stream, rules, CardProfile::egate());
    let report = app
        .consume_with_card("child", AccessPolicy::open())
        .unwrap();
    assert_eq!(report.items_delivered + report.items_blocked, 15);
    assert!(report.items_blocked > 0);
    assert!(report.items_delivered > 0);
    // Each (small) item fits comfortably in a 2-second broadcast slot even on
    // the 2 KB/s card.
    assert!(report.meets_real_time(Duration::from_secs(2)));
}

#[test]
fn latency_breakdown_is_dominated_by_transfer_then_decryption_on_egate() {
    let doc = Corpus::Hospital.generate(2_000, &GeneratorConfig::default());
    let secure = SecureDocumentBuilder::new("doc", key()).build(&doc);
    let config = EngineConfig::new(EvaluatorConfig::new(
        RuleSet::parse("+, user, /hospital").unwrap(),
        "user",
    ));
    let (_, stats) = evaluate_secure_document(&secure, &key(), config).unwrap();
    let breakdown = stats.ledger.breakdown(&CostModel::egate());
    assert!(breakdown.transfer > breakdown.decryption);
    assert!(breakdown.decryption > breakdown.evaluation);
    assert!(breakdown.total() > Duration::from_millis(10));
    // On a modern secure element the same work is at least 10x faster.
    let modern = stats.ledger.breakdown(&CostModel::modern_secure_element());
    assert!(breakdown.total().as_secs_f64() / modern.total().as_secs_f64() > 10.0);
}

/// Where a tampered DSP copy of the folder differs from the published one.
#[derive(Debug, Clone, Copy)]
enum Tamper {
    Chunk,
    Tag,
    Header,
    RuleBlob,
}

/// `blob` with its last bit flipped.
fn flipped(blob: &[u8]) -> Vec<u8> {
    let mut blob = blob.to_vec();
    *blob.last_mut().unwrap() ^= 0x01;
    blob
}

/// `document` with one bit flipped in its header, or in the chunk or tag in
/// the middle (a rule-blob tamper leaves the document as it is).
fn tampered(document: &SecureDocument, what: Tamper) -> SecureDocument {
    let mut header = document.header.clone();
    let (mut chunks, mut tags): (Vec<_>, Vec<_>) = (0..document.chunk_count())
        .map(|i| document.sealed_chunk(i).unwrap())
        .unzip();
    // A chunk in the middle, so the doctor's stream yields events first.
    let middle = chunks.len() / 2;
    match what {
        Tamper::Chunk => {
            let mut chunk = chunks[middle].to_vec();
            chunk[0] ^= 0x01;
            chunks[middle] = chunk.into();
        }
        Tamper::Tag => {
            let mut tag = *tags[middle].as_bytes();
            tag[0] ^= 0x01;
            tags[middle] = ChunkTag::from_bytes(tag);
        }
        Tamper::Header => header.nonce[0] ^= 0x01,
        Tamper::RuleBlob => {}
    }
    SecureDocument::new(header, chunks, tags)
}

/// Replaces the DSP's copy of `doc_id` (or the doctor's rule blob on it)
/// with one that differs from the published bytes in one bit.
fn tamper(service: &DspService, doc_id: &str, what: Tamper) {
    if let Tamper::RuleBlob = what {
        let blob = service.fetch_rules(doc_id, "doctor").unwrap();
        service.put_rules(doc_id, "doctor", flipped(&blob)).unwrap();
        return;
    }
    let (header, revision) = service.fetch_header_pinned(doc_id).unwrap();
    let (chunks, tags) = (0..header.chunk_count)
        .map(|i| service.fetch_chunk_pinned(doc_id, i, revision).unwrap())
        .unzip();
    let copy = SecureDocument::new(header, chunks, tags);
    service.put_document(tampered(&copy, what));
}

#[test]
fn a_tampered_dsp_copy_fails_the_card_and_the_stream_alike() {
    let rules = RuleSet::parse("+, doctor, //patient\n-, doctor, //patient/ssn").unwrap();
    let doc = Corpus::Hospital.generate(400, &GeneratorConfig::default());
    let oracle = authorized_view_oracle(
        &doc,
        &rules,
        &Subject::new("doctor"),
        None,
        &AccessPolicy::paper(),
    );
    for what in [Tamper::Chunk, Tamper::Tag, Tamper::Header, Tamper::RuleBlob] {
        let publisher = Publisher::builder(b"hospital-2005")
            .rules(rules.clone())
            .chunk_size(128)
            .build()
            .unwrap();
        publisher.publish("folder", &doc).unwrap();
        let client = Client::builder("doctor").provision(&publisher).unwrap();
        tamper(publisher.service(), "folder", what);

        let card = client.authorized_view("folder").unwrap_err();
        let mut streamed = Vec::new();
        let stream = match client.open_stream("folder") {
            Ok(mut stream) => stream.find_map(|event| event.map(|e| streamed.push(e)).err()),
            Err(e) => Some(e),
        };
        let stream =
            stream.unwrap_or_else(|| panic!("{what:?}: the stream ended without an error"));
        assert!(
            matches!(card, SddsError::Crypto(_)),
            "{what:?}: card path ended in {card:?}"
        );
        assert_eq!(
            std::mem::discriminant(&card),
            std::mem::discriminant(&stream),
            "{what:?}: card {card:?}, stream {stream:?}"
        );
        assert!(
            streamed.len() < oracle.len() && streamed[..] == oracle[..streamed.len()],
            "{what:?}: the stream yielded {} events that are not a prefix of the view",
            streamed.len()
        );
        if let Tamper::Chunk | Tamper::Tag = what {
            assert!(
                !streamed.is_empty(),
                "{what:?}: no event before the tampered chunk"
            );
        }
    }
}

#[test]
fn a_tampered_broadcast_item_or_rule_blob_fails_the_push_path_like_a_pull() {
    let stream = generator::stream(
        &StreamProfile {
            items: 4,
            payload_len: 96,
            ..StreamProfile::default()
        },
        &GeneratorConfig::default(),
    );
    let rules = RuleSet::parse("-, child, //item[rating > 12]").unwrap();
    let app = DisseminationApp::new(
        b"broadcast",
        &stream,
        rules,
        CardProfile::modern_secure_element(),
    );
    let subject = Subject::new("child");
    let client = Client::builder("child")
        .open_policy(true)
        .provision(app.publisher())
        .unwrap();
    let blob = app
        .publisher()
        .server()
        .protected_rules_for(&subject)
        .encode();
    let items: Vec<SecureDocument> = app.channel().published().to_vec();
    // The steps of `DisseminationApp::consume_with_card`: a provisioned card
    // takes the subscriber's rule blob, then evaluates every broadcast item.
    let push = |blob: &[u8], items: &[SecureDocument]| -> Result<Vec<String>, SddsError> {
        let mut terminal = client.terminal()?;
        terminal.install_rules(blob)?;
        items
            .iter()
            .map(|item| Ok(terminal.evaluate_local(item)?))
            .collect()
    };
    let report = app
        .consume_with_card("child", AccessPolicy::open())
        .unwrap();
    let views = push(&blob, &items).unwrap();
    let delivered = views.iter().filter(|view| !view.is_empty()).count();
    assert_eq!(delivered, report.items_delivered);
    for what in [Tamper::Chunk, Tamper::Tag, Tamper::Header, Tamper::RuleBlob] {
        let result = match what {
            Tamper::RuleBlob => push(&flipped(&blob), &items),
            // The second item, so the card has delivered the first.
            _ => {
                let mut items = items.clone();
                items[1] = tampered(&items[1], what);
                push(&blob, &items)
            }
        };
        let err = result.expect_err("a tampered push must fail");
        assert!(
            matches!(err, SddsError::Crypto(_)),
            "{what:?}: push path ended in {err:?}"
        );
    }
}

#[test]
fn a_card_pull_ledger_counts_what_the_soe_processed() {
    let rules = RuleSet::parse(
        "+, doctor, //patient\n-, doctor, //patient/ssn\n+, secretary, //patient/name",
    )
    .unwrap();
    let doc = Corpus::Hospital.generate(1_000, &GeneratorConfig::default());
    let publisher = Publisher::builder(b"hospital-2005")
        .rules(rules)
        .chunk_size(128)
        .build()
        .unwrap();
    publisher.publish("folder", &doc).unwrap();
    for subject in ["doctor", "secretary"] {
        let client = Client::builder(subject).provision(&publisher).unwrap();
        let mut session = client.connect("folder").unwrap();
        session.run().unwrap();
        let card = session.terminal().card_ledger();
        let mut stream = client.open_stream("folder").unwrap();
        for event in &mut stream {
            event.unwrap();
        }
        let soe = &stream.stats().unwrap().ledger;
        assert_eq!(soe.bytes_skipped > 0, subject == "secretary", "{subject}");
        assert_eq!(card.events_processed, soe.events_processed, "{subject}");
        assert_eq!(card.bytes_skipped, soe.bytes_skipped, "{subject}");
        assert_eq!(card.bytes_decrypted, soe.bytes_decrypted, "{subject}");
        assert_eq!(card.bytes_hashed, soe.bytes_hashed, "{subject}");
    }
}

#[test]
fn a_failed_card_pull_still_books_what_the_soe_did() {
    // A doctor pull of a 400-element folder whose chunk 41 has one bit
    // flipped at the DSP: the card verifies and reads chunks 0–40, then
    // refuses chunk 41. The terminal closes the failed session, so the
    // card ledger holds the SOE's counters, not just the metered APDUs.
    let rules = RuleSet::parse("+, doctor, //patient\n-, doctor, //patient/ssn").unwrap();
    let doc = Corpus::Hospital.generate(400, &GeneratorConfig::default());
    let publisher = Publisher::builder(b"hospital-2005")
        .rules(rules)
        .chunk_size(128)
        .build()
        .unwrap();
    publisher.publish("folder", &doc).unwrap();
    let client = Client::builder("doctor").provision(&publisher).unwrap();
    let service = publisher.service();
    let (header, revision) = service.fetch_header_pinned("folder").unwrap();
    let (mut chunks, tags): (Vec<_>, Vec<_>) = (0..header.chunk_count)
        .map(|i| service.fetch_chunk_pinned("folder", i, revision).unwrap())
        .unzip();
    assert!(chunks.len() > 42, "{} chunks", chunks.len());
    let mut bad = chunks[41].to_vec();
    bad[0] ^= 0x01;
    chunks[41] = bad.into();
    service.put_document(SecureDocument::new(header, chunks, tags));

    let mut session = client.connect("folder").unwrap();
    let err = session.run().unwrap_err();
    assert!(
        matches!(SddsError::from(err), SddsError::Crypto(_)),
        "the pull must end in an integrity failure"
    );
    let card = session.terminal().card_ledger();
    assert_eq!(card.bytes_hashed, 41 * 128);
    assert!(card.bytes_decrypted > 0);
    assert!(card.bytes_decrypted <= card.bytes_hashed);
    assert!(card.events_processed > 0);
}

/// The four subjects of the medical policy, each permitted a different
/// share of the folder.
fn four_subject_rules() -> RuleSet {
    RuleSet::parse(
        "+, doctor, //patient\n\
         -, doctor, //patient/ssn\n\
         +, secretary, //patient/name\n\
         +, secretary, //patient/address\n\
         +, researcher, //diagnosis\n\
         +, auditor, //acts/act[@type = \"surgery\"]/report",
    )
    .unwrap()
}

#[test]
fn on_demand_decryption_matches_the_oracle_at_every_chunk_size() {
    // Chunk sizes that are and are not multiples of the 16-byte keystream
    // block, with flat and recursive summary bitmaps: every subject's card
    // and stream views equal the oracle's, the SOE never decrypts more than
    // it verified, and the doctor, who reads everything, decrypts exactly
    // the ciphertext.
    let rules = four_subject_rules();
    let doc = Corpus::Hospital.generate(600, &GeneratorConfig::default());
    let subjects = ["doctor", "secretary", "researcher", "auditor"];
    let publisher = Publisher::builder(b"hospital-2005")
        .rules(rules.clone())
        .build()
        .unwrap();
    publisher.publish("folder", &doc).unwrap();
    let clients: Vec<Client> = subjects
        .iter()
        .map(|s| Client::builder(*s).provision(&publisher).unwrap())
        .collect();
    let key = publisher.server().document_key();
    for chunk_size in [64usize, 100, 128, 250, 256, 512] {
        for recursive_bitmaps in [true, false] {
            let secure = SecureDocumentBuilder::new("folder", key.clone())
                .chunk_size(chunk_size)
                .encoder_config(EncoderConfig {
                    min_index_bytes: 16,
                    recursive_bitmaps,
                })
                .build(&doc);
            publisher.service().put_document(secure.clone());
            for (subject, client) in subjects.iter().zip(&clients) {
                let case = format!("{subject}, chunk {chunk_size}, recursive {recursive_bitmaps}");
                let oracle = writer::to_string(&authorized_view_oracle(
                    &doc,
                    &rules,
                    &Subject::new(*subject),
                    None,
                    &AccessPolicy::paper(),
                ));
                let card = client.authorized_view("folder").unwrap();
                let mut stream = client.open_stream("folder").unwrap();
                let mut events = Vec::new();
                for event in &mut stream {
                    events.push(event.unwrap());
                }
                let ledger = &stream.stats().unwrap().ledger;
                assert_eq!(card, oracle, "{case}: card view");
                assert_eq!(writer::to_string(&events), card, "{case}: stream view");
                assert!(ledger.bytes_decrypted <= ledger.bytes_hashed, "{case}");

                let config = EngineConfig::new(EvaluatorConfig::new(rules.clone(), *subject));
                let (view, local) = evaluate_secure_document(&secure, &key, config).unwrap();
                assert_eq!(writer::to_string(&view), oracle, "{case}: local read");
                if *subject == "doctor" {
                    let full = (local.ledger.bytes_decrypted, local.ledger.bytes_hashed);
                    let len = secure.ciphertext_len();
                    assert_eq!(full, (len, len), "{case}: full read");
                }
            }
        }
    }
}

#[test]
fn the_4000_element_pull_reads_pinned_byte_counts() {
    // The per-view counters of the benchmark's hospital pull (4 000
    // elements, 256-byte chunks), pinned so that any change to what the SOE
    // fetches, decrypts or skips shows here first. The secretary skips
    // whole chunks (never fetched) and the skipped bytes of fetched ones
    // (never decrypted); the doctor reads everything.
    let doc = Corpus::Hospital.generate(4_000, &GeneratorConfig::default());
    let publisher = Publisher::builder(b"hospital-2005")
        .rules(four_subject_rules())
        .chunk_size(256)
        .build()
        .unwrap();
    publisher.publish("hospital", &doc).unwrap();
    let mut counts = Vec::new();
    for subject in ["doctor", "secretary"] {
        let client = Client::builder(subject).provision(&publisher).unwrap();
        let mut stream = client.open_stream("hospital").unwrap();
        for event in &mut stream {
            event.unwrap();
        }
        let ledger = &stream.stats().unwrap().ledger;
        counts.push((
            subject,
            ledger.bytes_hashed,
            ledger.bytes_decrypted,
            ledger.bytes_skipped,
        ));
    }
    // (subject, hashed, decrypted, skipped)
    assert_eq!(
        counts,
        vec![
            ("doctor", 107_690, 107_690, 0),
            ("secretary", 70_570, 17_017, 93_512),
        ]
    );
}
