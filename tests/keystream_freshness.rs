//! The document cipher never runs one AES-CTR keystream over two different
//! plaintexts, seen from where the adversary sits: the untrusted DSP, which
//! stores every chunk of every revision it is sent.
//!
//! A reused keystream hands the DSP `pt ⊕ pt' = ct ⊕ ct'` for free. Two
//! ways to reuse one are pinned here: adjacent chunks of one document whose
//! counter blocks run into each other, and two revisions of one document
//! encrypted under the same nonce. Both checks are black-box: they fetch
//! ciphertext from the `DspService` a `Publisher` filled, recover the
//! plaintext with the document key, and compare keystream blocks
//! (`ct ⊕ pt`). Under one AES key, two equal keystream blocks mean two
//! equal counter blocks.

use std::collections::HashMap;

use sdds::{DspService, Publisher, RuleSet};
use sdds_core::secdoc::{decrypt_chunk, document_cipher};
use sdds_xml::generator::{self, GeneratorConfig, HospitalProfile};
use sdds_xml::Document;

const BLOCK: usize = 16;

fn hospital(patients: usize, seed: u64) -> Document {
    generator::hospital(
        &HospitalProfile {
            patients,
            ..HospitalProfile::default()
        },
        &GeneratorConfig {
            seed,
            ..GeneratorConfig::default()
        },
    )
}

fn publisher() -> Publisher {
    Publisher::builder(b"keystream-community")
        .rules(RuleSet::parse("+, doctor, //patient").unwrap())
        .chunk_size(256)
        .build()
        .unwrap()
}

/// Every chunk of the current revision of `doc_id` as the DSP serves it,
/// with the plaintext the document key recovers from it.
fn served_chunks(publisher: &Publisher, doc_id: &str) -> Vec<(Vec<u8>, Vec<u8>)> {
    let service: &DspService = publisher.service();
    let (header, revision) = service.fetch_header_pinned(doc_id).unwrap();
    let cipher = document_cipher(&publisher.server().document_key());
    (0..header.chunk_count)
        .map(|index| {
            let served = service.fetch_chunk_pinned(doc_id, index, revision).unwrap();
            let ciphertext = served.0.to_vec();
            let mut plaintext = ciphertext.clone();
            decrypt_chunk(&cipher, &header, index, &mut plaintext);
            (ciphertext, plaintext)
        })
        .collect()
}

/// The full 16-byte keystream blocks (`ct ⊕ pt`) of one chunk.
fn keystream_blocks(ciphertext: &[u8], plaintext: &[u8]) -> Vec<[u8; BLOCK]> {
    ciphertext
        .chunks_exact(BLOCK)
        .zip(plaintext.chunks_exact(BLOCK))
        .map(|(c, p)| std::array::from_fn(|i| c[i] ^ p[i]))
        .collect()
}

/// Block pairs `(j, k)` with `a.ct[j] ⊕ b.ct[k] = a.pt[j] ⊕ b.pt[k]`: the
/// DSP learns the XOR of those plaintext blocks from ciphertext alone.
fn leaking_pairs(a: &(Vec<u8>, Vec<u8>), b: &(Vec<u8>, Vec<u8>)) -> Vec<(usize, usize)> {
    let (ka, kb) = (keystream_blocks(&a.0, &a.1), keystream_blocks(&b.0, &b.1));
    let mut pairs = Vec::new();
    for (j, x) in ka.iter().enumerate() {
        for (k, y) in kb.iter().enumerate() {
            if x == y {
                pairs.push((j, k));
            }
        }
    }
    pairs
}

#[test]
fn every_counter_block_is_distinct_across_documents_and_revisions() {
    // Three documents — two of them with identical content under
    // different ids — each published in three revisions.
    let publisher = publisher();
    let mut seen: HashMap<[u8; BLOCK], (String, usize, usize, usize)> = HashMap::new();
    let mut blocks = 0;
    for revision in 0..3 {
        for (doc_id, seed) in [("folder-a", 1), ("folder-b", 1), ("folder-c", 2)] {
            publisher
                .publish(doc_id, &hospital(4 + revision, seed))
                .unwrap();
            for (index, chunk) in served_chunks(&publisher, doc_id).iter().enumerate() {
                for (block, ks) in keystream_blocks(&chunk.0, &chunk.1).into_iter().enumerate() {
                    let here = (doc_id.to_owned(), revision, index, block);
                    if let Some(first) = seen.insert(ks, here.clone()) {
                        panic!("counter block reused: {first:?} and {here:?}");
                    }
                    blocks += 1;
                }
            }
        }
    }
    assert!(blocks > 1_000, "only {blocks} blocks checked");
}

#[test]
fn ciphertext_xor_never_equals_plaintext_xor() {
    let publisher = publisher();
    publisher.publish("folder", &hospital(6, 3)).unwrap();
    let before = served_chunks(&publisher, "folder");
    assert!(before.len() > 5);

    // Adjacent chunks of one revision.
    for i in 0..before.len() - 1 {
        let pairs = leaking_pairs(&before[i], &before[i + 1]);
        assert!(pairs.is_empty(), "chunks {i} and {}: {pairs:?}", i + 1);
    }

    // The same chunk across a republish of edited content — including the
    // leading chunks, whose plaintext (the tag dictionary) the edit leaves
    // unchanged.
    publisher.publish("folder", &hospital(6, 4)).unwrap();
    let after = served_chunks(&publisher, "folder");
    assert!(before.iter().zip(&after).any(|(old, new)| old.1 != new.1));
    for (i, (old, new)) in before.iter().zip(&after).enumerate() {
        let pairs = leaking_pairs(old, new);
        assert!(pairs.is_empty(), "chunk {i} across revisions: {pairs:?}");
    }
}
