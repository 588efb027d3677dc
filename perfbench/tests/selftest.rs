//! The benchmark's own tests: repeatable counts, traced calls that match
//! the facade byte for byte, and a clean run on a second seed.

use std::sync::Arc;
use std::time::Instant;

use sdds::{Client, DspService, Publisher};
use sdds_perfbench::inputs;
use sdds_perfbench::ops::{self, PullKeys};
use sdds_perfbench::stats::{GapHistogram, Metric};
use sdds_perfbench::trace::Recorder;
use sdds_perfbench::workloads::{self, Config, Report, Workload};

/// Metrics that are counts of work, which must repeat exactly.
fn counts(report: &Report) -> Vec<(&'static str, f64)> {
    report
        .end_to_end
        .iter()
        .chain(&report.per_layer)
        .filter(|m: &&Metric| matches!(m.unit, "count" | "B" | "ratio"))
        .map(|m| (m.name, m.value))
        .collect()
}

fn run(workload: Workload, cfg: &Config) -> Report {
    let report = workloads::run(workload, cfg).expect("the workload runs");
    assert!(
        report.correct && report.failed == 0 && report.attempted > 0,
        "{}: {} of {} failed: {:?}",
        workload.name(),
        report.failed,
        report.attempted,
        report.first_error
    );
    report
}

#[test]
fn same_seed_runs_repeat_every_count() {
    for workload in Workload::ALL {
        let cfg = Config::small(7, true);
        let a = run(workload, &cfg);
        let b = run(workload, &cfg);
        let (ca, cb) = (counts(&a), counts(&b));
        assert_eq!(ca.len(), 13, "{}: {ca:?}", workload.name());
        assert_eq!(ca, cb, "{}", workload.name());
        assert_eq!(a.per_layer.len(), b.per_layer.len());
    }
}

#[test]
fn a_second_seed_passes_every_check() {
    for workload in Workload::ALL {
        let report = run(workload, &Config::small(2, false));
        for m in &report.end_to_end {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{}: {} = {}",
                workload.name(),
                m.name,
                m.value
            );
        }
    }
}

fn hospital_publisher(chunk: usize) -> (Publisher, sdds::Document) {
    let doc = inputs::hospital(300, 5, 0);
    let publisher = Publisher::builder(inputs::SECRET)
        .rules(inputs::medical_rules())
        .chunk_size(chunk)
        .build()
        .unwrap();
    publisher.publish("hospital", &doc).unwrap();
    (publisher, doc)
}

#[test]
fn traced_pull_is_byte_identical_to_view_stream() {
    let (publisher, doc) = hospital_publisher(256);
    for subject in ["doctor", "secretary", "researcher", "nobody"] {
        let client = Client::builder(subject).provision(&publisher).unwrap();
        let keys = PullKeys::provision(&publisher, &client);
        let mut gaps = GapHistogram::default();
        let facade = ops::facade_pull(&client, "hospital", &mut gaps).unwrap();
        let mut rec = Recorder::new(true, Instant::now());
        let traced = ops::traced_pull(
            publisher.service(),
            &keys,
            "hospital",
            &mut gaps,
            &mut rec,
            0,
        )
        .unwrap();
        assert_eq!(traced.events, facade.events, "{subject}");
        assert_eq!(traced.stats.ledger, facade.stats.ledger, "{subject}");
        assert_eq!(traced.stats.peak_ram_bytes, facade.stats.peak_ram_bytes);
        assert_eq!(traced.stats.chunks_skipped, facade.stats.chunks_skipped);
        let mut oracle = inputs::Oracle::default();
        assert!(oracle.check("hospital", &doc, publisher.rules(), subject, &traced.events));
        assert!(rec.spans().iter().any(|s| s.name == "core.supply_chunk"));
    }
}

/// Everything a pull can fetch from `service`, for every stored document
/// and every subject in `subjects`.
fn stored(service: &Arc<DspService>, subjects: &[&str]) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    let mut ids = service.store().document_ids();
    ids.sort();
    for id in ids {
        let (header, revision) = service.fetch_header_pinned(&id).unwrap();
        out.push(header.encode());
        for index in 0..header.chunk_count {
            let (chunk, proof) = service.fetch_chunk_pinned(&id, index, revision).unwrap();
            out.push(chunk.to_vec());
            out.push(proof.encode());
        }
        for subject in subjects {
            out.push(service.fetch_rules(&id, subject).unwrap().to_vec());
        }
    }
    out
}

#[test]
fn traced_writes_are_byte_identical_to_the_publisher() {
    let subjects = ["doctor", "secretary", "nurse"];
    let provisioned: Vec<String> = subjects.iter().map(|s| (*s).to_owned()).collect();
    let (mut facade, doc) = hospital_publisher(256);
    let (mut traced, _) = hospital_publisher(256);
    for subject in subjects {
        Client::builder(subject).provision(&facade).unwrap();
        Client::builder(subject).provision(&traced).unwrap();
    }
    let mut rec = Recorder::new(true, Instant::now());
    let other = inputs::hospital(120, 9, 1);
    for step in 0..4u64 {
        ops::facade_policy_update(&mut facade).unwrap();
        ops::traced_policy_update(&mut traced, &provisioned, &mut rec, step).unwrap();
        assert_eq!(facade.rules().to_text(), traced.rules().to_text());
        let (id, document) = if step % 2 == 0 {
            ("hospital", &doc)
        } else {
            ("annex", &other)
        };
        ops::facade_republish(&facade, id, document).unwrap();
        ops::traced_republish(&traced, &provisioned, 256, id, document, &mut rec, step).unwrap();
        assert_eq!(
            stored(facade.service(), &subjects),
            stored(traced.service(), &subjects),
            "step {step}"
        );
        assert_eq!(facade.service().revision(id), traced.service().revision(id));
    }
    // The toggle alternates: after an even number of updates the policy is
    // back where it started.
    assert_eq!(facade.rules().len(), inputs::medical_rules().len());
    assert!(rec.spans().iter().any(|s| s.name == "core.secdoc_build"));
}
