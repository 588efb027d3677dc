//! Workloads of the E1–E9 experiments.

use std::time::Instant;

use sdds::apps::dissem::{DisseminationApp, SubscriberReport};
use sdds_card::{CardProfile, CostModel};
use sdds_core::conflict::AccessPolicy;
use sdds_core::engine::{evaluate_secure_document, EngineConfig, SessionStats};
use sdds_core::evaluator::{EvaluatorConfig, EvaluatorStats, StreamingEvaluator};
use sdds_core::query::Query;
use sdds_core::rule::{RuleSet, Sign};
use sdds_core::secdoc::{SecureDocument, SecureDocumentBuilder};
use sdds_core::skipindex::encode::EncoderConfig;
use sdds_crypto::SecretKey;
use sdds_xml::generator::{self, Corpus, GeneratorConfig};
use sdds_xml::{Document, Event};

/// The community key used by every benchmark document.
pub fn bench_key() -> SecretKey {
    SecretKey::derive(b"sdds-bench", "documents")
}

/// A hospital document of roughly `elements` element nodes.
pub fn hospital(elements: usize) -> Document {
    Corpus::Hospital.generate(elements, &GeneratorConfig::default())
}

/// Builds the secure form of a document with the given chunk size and skip
/// index granularity.
pub fn secure(doc: &Document, chunk_size: usize, min_index_bytes: usize) -> SecureDocument {
    SecureDocumentBuilder::new("bench-doc", bench_key())
        .chunk_size(chunk_size)
        .encoder_config(EncoderConfig {
            min_index_bytes,
            ..EncoderConfig::default()
        })
        .build(doc)
}

/// The medical rule set used throughout the experiments; the subject picks the
/// restrictiveness profile (doctor ≈ permissive, secretary ≈ restrictive).
pub fn medical_rules() -> RuleSet {
    RuleSet::parse(
        "+, doctor, //patient\n\
         -, doctor, //patient/ssn\n\
         +, secretary, //patient/name\n\
         +, secretary, //patient/address\n\
         +, researcher, //diagnosis\n\
         +, auditor, //acts/act[@type = \"surgery\"]/report",
    )
    // lint: infallible — bench inputs are static and valid by construction;
    // a panic here is a harness bug, not a recoverable condition.
    .expect("static rule set parses")
}

/// A synthetic pool of `n` rules of growing variety for one subject, used by
/// the E1 scaling experiment.
pub fn rule_pool(n: usize) -> RuleSet {
    const OBJECTS: &[&str] = &[
        "//patient/name",
        "//patient/ssn",
        "//patient/address",
        "//diagnosis/item",
        "//acts/act/report",
        "//acts/act[@type = \"surgery\"]",
        "//prescriptions/prescription/drug",
        "//patient[diagnosis/item/@sensitive = \"true\"]/name",
        "//act/physician",
        "//act/date",
        "//patient//report",
        "/hospital/patient",
    ];
    let mut rules = RuleSet::new();
    for i in 0..n {
        let sign = if i % 4 == 3 { Sign::Deny } else { Sign::Permit };
        rules
            .push(sign, "subject", OBJECTS[i % OBJECTS.len()])
            // lint: infallible — bench inputs are static and valid by construction;
            // a panic here is a harness bug, not a recoverable condition.
            .expect("pool rule parses");
    }
    rules
}

/// E1's and E4's workload: evaluates `events` in the clear, `reps` times,
/// for the subject of [`rule_pool`]`(n_rules)`. Returns the statistics of
/// the last run, which every run repeats exactly, and the fastest run's wall
/// time in seconds.
pub fn rule_pool_evaluation(
    events: &[Event],
    n_rules: usize,
    reps: usize,
) -> (EvaluatorStats, f64) {
    let config = EvaluatorConfig::new(rule_pool(n_rules), "subject");
    let mut best = f64::INFINITY;
    let mut last = EvaluatorStats::default();
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let (_, stats) = StreamingEvaluator::evaluate_all(&config, events)
            // lint: infallible — bench inputs are static and valid by construction;
            // a panic here is a harness bug, not a recoverable condition.
            .expect("clear-text evaluation succeeds");
        best = best.min(start.elapsed().as_secs_f64());
        last = stats;
    }
    (last, best)
}

/// Runs the full secure pipeline for one subject and returns its statistics.
pub fn run_secure(
    document: &SecureDocument,
    rules: &RuleSet,
    subject: &str,
    query: Option<&str>,
) -> SessionStats {
    let mut evaluator = EvaluatorConfig::new(rules.clone(), subject);
    if let Some(q) = query {
        // lint: infallible — bench inputs are static and valid by construction;
        // a panic here is a harness bug, not a recoverable condition.
        evaluator = evaluator.with_query(Query::parse(q).expect("query parses"));
    }
    let (_, stats) = evaluate_secure_document(document, &bench_key(), EngineConfig::new(evaluator))
        // lint: infallible — bench inputs are static and valid by construction;
        // a panic here is a harness bug, not a recoverable condition.
        .expect("secure evaluation succeeds");
    stats
}

/// Convenience: simulated e-gate latency (seconds) of a session.
pub fn egate_seconds(stats: &SessionStats) -> f64 {
    stats
        .ledger
        .breakdown(&CostModel::egate())
        .total()
        .as_secs_f64()
}

/// E6's workload: a 30-item stream broadcast to a parental-control
/// subscriber, `child`, who may not see items rated above 12, and consumed
/// item by item on an e-gate card.
pub fn dissemination() -> SubscriberReport {
    let stream = generator::stream(
        &generator::StreamProfile {
            items: 30,
            payload_len: 128,
            ..generator::StreamProfile::default()
        },
        &GeneratorConfig::default(),
    );
    // lint: infallible — bench inputs are static and valid by construction;
    // a panic here is a harness bug, not a recoverable condition.
    let rules = RuleSet::parse("-, child, //item[rating > 12]").expect("parses");
    let app = DisseminationApp::new(b"bench", &stream, rules, CardProfile::egate());
    app.consume_with_card("child", AccessPolicy::open())
        // lint: infallible — bench inputs are static and valid by construction;
        // a panic here is a harness bug, not a recoverable condition.
        .expect("the subscriber's card consumes the stream")
}

// ---------------------------------------------------------------------------
// E10 — multi-client service workload
// ---------------------------------------------------------------------------

/// Configuration of one E10 multi-client run.
#[derive(Debug, Clone, Copy)]
pub struct MultiClientConfig {
    /// Concurrent card clients (one document pull each).
    pub clients: usize,
    /// Shards of the DSP service store.
    pub shards: usize,
    /// Scheduler worker threads (keep constant across compared runs).
    pub workers: usize,
    /// Chunk requests served per scheduler step.
    pub quantum: usize,
    /// Elements of each per-client hospital document.
    pub doc_elements: usize,
}

impl MultiClientConfig {
    /// The E10 defaults: 4 workers, quantum 8, small per-client folders.
    pub fn new(clients: usize, shards: usize) -> Self {
        MultiClientConfig {
            clients,
            shards,
            workers: 4,
            quantum: 8,
            doc_elements: 40,
        }
    }
}

/// Deterministic outcome of one E10 run.
///
/// Everything here is computed on the workspace's *simulated* clock (byte and
/// event counters times model rates — see `sdds_card::cost`), so the numbers
/// are machine independent: the service side is paced by the busiest shard
/// (shards serve concurrently, each shard serially), the client side by the
/// slowest card (cards run on their own hardware in parallel).
#[derive(Debug, Clone)]
pub struct MultiClientOutcome {
    /// Events evaluated across every card.
    pub total_events: usize,
    /// Simulated serial service time of the busiest shard.
    pub busiest_shard: std::time::Duration,
    /// Per-session simulated latencies (batched channel + card crypto),
    /// sorted ascending.
    pub session_latencies: Vec<std::time::Duration>,
    /// APDU exchanges saved by batching, across sessions.
    pub apdus_saved: usize,
    /// Wall-clock time of the run (informational; not gated).
    pub wall: std::time::Duration,
}

impl MultiClientOutcome {
    /// Slowest per-session simulated latency (the card-side makespan: cards
    /// run in parallel on their own hardware).
    pub fn slowest_session(&self) -> std::time::Duration {
        self.latency_percentile(1.0)
    }

    /// Simulated makespan: the slower of the service side and the card side.
    pub fn makespan(&self) -> std::time::Duration {
        self.busiest_shard.max(self.slowest_session())
    }

    /// Aggregate simulated throughput, events per second.
    pub fn events_per_s(&self) -> f64 {
        let makespan = self.makespan().as_secs_f64();
        if makespan > 0.0 {
            self.total_events as f64 / makespan
        } else {
            0.0
        }
    }

    /// Latency percentile (`p` in `[0, 1]`) across sessions.
    pub fn latency_percentile(&self, p: f64) -> std::time::Duration {
        if self.session_latencies.is_empty() {
            return std::time::Duration::ZERO;
        }
        let rank = ((self.session_latencies.len() - 1) as f64 * p).round() as usize;
        self.session_latencies[rank]
    }
}

/// Runs prepared facade sessions through the scheduler and folds the
/// deterministic outcome (shared by the per-client-folder and hot-document
/// E10 scenarios). Serving statistics must have been reset beforehand so
/// only the scheduled pulls are measured.
fn run_sessions(
    service: &std::sync::Arc<sdds_dsp::DspService>,
    sessions: Vec<sdds::CardSession>,
    workers: usize,
    quantum: usize,
) -> MultiClientOutcome {
    let start = std::time::Instant::now();
    // The scheduler shares the service's telemetry cells, so one snapshot
    // off the service covers serving, scheduling and session traffic.
    let report = sdds::SessionScheduler::new(workers, quantum)
        .with_obs(service.obs())
        .run(sessions);
    let wall = start.elapsed();
    let failures = report.failures();
    assert!(failures.is_empty(), "E10 sessions failed: {failures:?}");

    let model = sdds_card::CardProfile::modern_secure_element().cost;
    let mut total_events = 0usize;
    let mut apdus_saved = 0usize;
    let mut session_latencies: Vec<std::time::Duration> = report
        .finished
        .iter()
        .map(|f| {
            total_events += f.session.terminal().card_ledger().events_processed;
            apdus_saved += f.session.batched_channel().apdus_saved();
            f.session.simulated_latency(&model)
        })
        .collect();
    session_latencies.sort();

    MultiClientOutcome {
        total_events,
        busiest_shard: service.busiest_shard_time(),
        session_latencies,
        apdus_saved,
        wall,
    }
}

/// Runs the E10 multi-client workload **through the `sdds` facade**:
/// `clients` cards, each pulling its own folder from one shared
/// [`sdds_dsp::DspService`], multiplexed by the fair round-robin session
/// scheduler. Subjects rotate doctor / secretary / researcher so per-session
/// work (and therefore latency) is heterogeneous.
///
/// Sessions are built with [`sdds::Client`] (the same entry point
/// applications use), so the gated `e10.*` keys — including the 1-client /
/// 1-shard sanity point — catch any serving overhead the facade introduces.
pub fn multi_client(config: MultiClientConfig) -> MultiClientOutcome {
    use sdds::{CardSession, Client, Publisher};

    const SUBJECTS: &[&str] = &["doctor", "secretary", "researcher"];
    let publisher = Publisher::builder(b"sdds-bench-e10")
        .rules(medical_rules())
        .shards(config.shards)
        .chunk_size(256)
        .build()
        // lint: infallible — bench inputs are static and valid by construction;
        // a panic here is a harness bug, not a recoverable condition.
        .expect("the E10 publisher configuration is valid");
    let doc = Corpus::Hospital.generate(config.doc_elements, &GeneratorConfig::default());
    for i in 0..config.clients {
        publisher
            .publish(&format!("folder-{i}"), &doc)
            // lint: infallible — bench inputs are static and valid by construction;
            // a panic here is a harness bug, not a recoverable condition.
            .expect("publishing the per-client folder");
    }

    let clients: Vec<Client> = (0..config.clients)
        .map(|i| {
            Client::builder(SUBJECTS[i % SUBJECTS.len()])
                .provision(&publisher)
                // lint: infallible — bench inputs are static and valid by construction;
                // a panic here is a harness bug, not a recoverable condition.
                .expect("provisioning the client")
        })
        .collect();
    // Setup (uploads, provisioning) is not part of the measured serving load.
    publisher.service().reset_stats();

    let sessions: Vec<CardSession> = clients
        .iter()
        .enumerate()
        .map(|(i, client)| {
            client
                .connect(format!("folder-{i}"))
                // lint: infallible — bench inputs are static and valid by construction;
                // a panic here is a harness bug, not a recoverable condition.
                .expect("connecting the session")
        })
        .collect();

    run_sessions(
        publisher.service(),
        sessions,
        config.workers,
        config.quantum,
    )
}

/// Configuration of one E10 **hot-document** run: every client pulls the
/// same single document.
#[derive(Debug, Clone, Copy)]
pub struct HotDocumentConfig {
    /// Concurrent card clients, all pulling the one hot document.
    pub clients: usize,
    /// Shards of the DSP service store.
    pub shards: usize,
    /// Serving copies the hot document is pinned to (`1` = the single-copy
    /// baseline: everything queues on the home shard).
    pub replicas: usize,
    /// Scheduler worker threads (keep constant across compared runs).
    pub workers: usize,
    /// Chunk requests served per scheduler step.
    pub quantum: usize,
    /// Elements of the hot hospital document.
    pub doc_elements: usize,
}

impl HotDocumentConfig {
    /// The E10 hot-document defaults: 4 workers, quantum 8, one folder big
    /// enough (~18 chunks at 256-byte chunks) that chunk-index routing can
    /// spread its serving over every replica.
    pub fn new(clients: usize, shards: usize, replicas: usize) -> Self {
        HotDocumentConfig {
            clients,
            shards,
            replicas,
            workers: 4,
            quantum: 8,
            doc_elements: 160,
        }
    }
}

/// Runs the E10 hot-document scenario: `clients` cards all hammer **one**
/// document on a sharded service. With `replicas = 1` every request queues
/// on the document's home shard however many shards exist — the scenario the
/// ROADMAP's "hot-document replication" lever exists for; with `replicas >
/// 1` the publisher pins the document (`Publisher::builder().replicate(n)`)
/// and reads spread deterministically over the copies (chunk index / subject
/// hash picks the copy), so the outcome is byte-deterministic on the
/// simulated clock like every other E10 metric.
pub fn hot_document(config: HotDocumentConfig) -> MultiClientOutcome {
    hot_document_observed(config).0
}

/// Like [`hot_document`], additionally returning the service's telemetry:
/// the metric snapshot (counters, gauges, latency histograms across every
/// layer the run exercised) and the flight-recorder dump. The outcome stays
/// byte-identical to [`hot_document`] — telemetry is parallel tallies only.
pub fn hot_document_observed(
    config: HotDocumentConfig,
) -> (MultiClientOutcome, sdds::ObsSnapshot, String) {
    use sdds::{CardSession, Client, Publisher};

    const SUBJECTS: &[&str] = &["doctor", "secretary", "researcher"];
    let mut builder = Publisher::builder(b"sdds-bench-e10-hot")
        .rules(medical_rules())
        .shards(config.shards)
        .chunk_size(256);
    if config.replicas > 1 {
        builder = builder.replicate(config.replicas);
    }
    let publisher = builder
        .build()
        // lint: infallible — bench inputs are static and valid by construction;
        // a panic here is a harness bug, not a recoverable condition.
        .expect("the E10 hot-document publisher configuration is valid");
    let doc = Corpus::Hospital.generate(config.doc_elements, &GeneratorConfig::default());
    publisher
        .publish("hot-folder", &doc)
        // lint: infallible — bench inputs are static and valid by construction;
        // a panic here is a harness bug, not a recoverable condition.
        .expect("publishing the hot folder");

    let clients: Vec<Client> = (0..config.clients)
        .map(|i| {
            Client::builder(SUBJECTS[i % SUBJECTS.len()])
                .provision(&publisher)
                // lint: infallible — bench inputs are static and valid by construction;
                // a panic here is a harness bug, not a recoverable condition.
                .expect("provisioning the client")
        })
        .collect();
    publisher.service().reset_stats();

    let sessions: Vec<CardSession> = clients
        .iter()
        .map(|client| {
            client
                .connect("hot-folder")
                // lint: infallible — bench inputs are static and valid by construction;
                // a panic here is a harness bug, not a recoverable condition.
                .expect("connecting the session")
        })
        .collect();

    let outcome = run_sessions(
        publisher.service(),
        sessions,
        config.workers,
        config.quantum,
    );
    let snapshot = publisher.service().obs_snapshot();
    let flight = publisher.service().flight_recorder_json();
    (outcome, snapshot, flight)
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;

    /// E6's subscriber report, pinned exactly: the per-item latencies come
    /// from the e-gate cost model over the card ledger, so one more byte
    /// moved or one more event processed on the card shows up here.
    #[test]
    fn e6_report_is_pinned() {
        let report = dissemination();
        assert_eq!(report.subscriber, "child");
        assert_eq!(
            (report.items_delivered, report.items_blocked),
            (18, 12),
            "e6.items_delivered, e6.items_blocked"
        );
        assert_eq!(
            report.max_item_latency,
            Duration::from_nanos(478_469_062),
            "e6.max_item_latency_ms"
        );
        assert_eq!(report.total_latency, Duration::from_nanos(12_194_160_780));
        assert_eq!(report.bytes_skipped, 2_244);
    }
}
