//! The calls the workloads time: pulls and writes, each in two forms.
//!
//! * The **facade** form goes through the public `sdds` API exactly as an
//!   application does (`Client::open_stream`, `Publisher::publish`,
//!   `Publisher::grant`, `Publisher::sync_rules`).
//! * The **traced** form makes the same public calls the facade makes
//!   internally, one layer at a time, and records a span around each:
//!   `fetch_header_pinned`, `fetch_rules_pinned`, `ProtectedRules::open`,
//!   `SecureEvaluationSession::open`, a loop of `fetch_chunk_pinned` +
//!   `supply_chunk`, then `finish`; and on the write side
//!   `SecureDocumentBuilder::build`, `DspService::put_document`,
//!   `TrustedServer::protected_rules_for` and `DspService::put_rules`.
//!
//! Both forms produce byte-identical results (checked by the workloads on
//! every traced view and by the benchmark's own tests).

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sdds::core::engine::{
    EngineConfig, SecureEvaluationSession, SessionRequest, SessionStats, DEFAULT_DOC_KEY_ID,
    RULES_KEY_ID,
};
use sdds::core::evaluator::EvaluatorConfig;
use sdds::core::rule::RuleId;
use sdds::core::secdoc::SecureDocumentBuilder;
use sdds::core::session::{KeyProvisioning, ProtectedRules};
use sdds::crypto::SecretKey;
use sdds::{Client, Document, DspService, Event, Publisher, SddsError, Sign, Subject};

use crate::inputs;
use crate::stats::GapHistogram;
use crate::trace::Recorder;

/// The application side of a pull: receives authorized events one by one,
/// stamping each arrival, and keeps them for the correctness check.
#[derive(Debug)]
pub struct Consumer<'a> {
    gaps: &'a mut GapHistogram,
    events: Vec<Event>,
    /// The thread's CPU time at the first event.
    first_cpu: Option<Duration>,
    last: Option<Instant>,
}

impl<'a> Consumer<'a> {
    pub fn new(gaps: &'a mut GapHistogram) -> Self {
        Consumer {
            gaps,
            events: Vec::new(),
            first_cpu: None,
            last: None,
        }
    }

    pub fn deliver(&mut self, event: Event) {
        let now = Instant::now();
        match self.last {
            Some(prev) => self.gaps.record(now.duration_since(prev).as_nanos() as u64),
            None => self.first_cpu = Some(inputs::thread_cpu_time()),
        }
        self.last = Some(now);
        self.events.push(event);
    }
}

/// What one pull produced. A pull runs on one thread and never waits, so
/// its times leave out the time the thread did not run (the pull's wall
/// time less its CPU time: time the hypervisor stole).
#[derive(Debug)]
pub struct Pull {
    /// From the open call to the last authorized event (or to the end of the
    /// stream for an empty view), nanoseconds.
    pub view_ns: u64,
    /// From the open call to the first authorized event (the view time for
    /// an empty view), nanoseconds of the thread's CPU time.
    pub first_event_ns: u64,
    pub events: Vec<Event>,
    pub stats: SessionStats,
}

/// When a pull started, by the clock and by the thread's CPU time.
#[derive(Debug, Clone, Copy)]
struct Started {
    at: Instant,
    cpu: Duration,
}

impl Started {
    fn now() -> Started {
        Started {
            at: Instant::now(),
            cpu: inputs::thread_cpu_time(),
        }
    }
}

fn finish_pull(start: Started, consumer: Consumer<'_>, stats: SessionStats) -> Pull {
    let end = consumer.last.unwrap_or_else(Instant::now);
    let lost = start
        .at
        .elapsed()
        .saturating_sub(inputs::thread_cpu_time() - start.cpu);
    let view = end.duration_since(start.at).saturating_sub(lost);
    let first = consumer.first_cpu.map_or(view, |cpu| cpu - start.cpu);
    Pull {
        view_ns: view.as_nanos() as u64,
        first_event_ns: first.as_nanos() as u64,
        events: consumer.events,
        stats,
    }
}

/// Pulls `doc_id` through `Client::open_stream` and drains the stream.
pub fn facade_pull(
    client: &Client,
    doc_id: &str,
    gaps: &mut GapHistogram,
) -> Result<Pull, SddsError> {
    let start = Started::now();
    let mut consumer = Consumer::new(gaps);
    let mut stream = client.open_stream(doc_id)?;
    for event in &mut stream {
        consumer.deliver(event?);
    }
    let stats = stream.stats().cloned().unwrap_or_default();
    Ok(finish_pull(start, consumer, stats))
}

/// What a terminal holds to open a pull session itself: the wrapped keys and
/// the card transport key, as `Client::builder(..).provision(..)` derives them.
#[derive(Debug, Clone)]
pub struct PullKeys {
    subject: String,
    transport: SecretKey,
    doc_key: KeyProvisioning,
    rules_key: KeyProvisioning,
    ram_budget: usize,
}

impl PullKeys {
    pub fn provision(publisher: &Publisher, client: &Client) -> Self {
        let subject: &Subject = client.subject();
        PullKeys {
            subject: subject.name().to_owned(),
            transport: publisher.pki().card_transport_key(subject),
            doc_key: publisher
                .server()
                .provision_document_key(subject, DEFAULT_DOC_KEY_ID),
            rules_key: publisher
                .server()
                .provision_rules_key(subject, RULES_KEY_ID),
            ram_budget: client.card_profile().ram_bytes,
        }
    }
}

/// Pulls `doc_id` with the calls `open_stream` and `ViewStream` make, one
/// span per layer call under a root `view` span.
pub fn traced_pull(
    service: &Arc<DspService>,
    keys: &PullKeys,
    doc_id: &str,
    gaps: &mut GapHistogram,
    rec: &mut Recorder,
    view: u64,
) -> Result<Pull, SddsError> {
    let start = Started::now();
    let root = rec.open_at("view", None, view, start.at);
    let mut consumer = Consumer::new(gaps);
    let (doc_key, rules_key) = rec.time("session.unwrap_keys", root, view, || {
        Ok::<_, SddsError>((
            keys.doc_key.unwrap_key(&keys.transport)?,
            keys.rules_key.unwrap_key(&keys.transport)?,
        ))
    })?;
    let (header, revision) = rec.time("dsp.fetch_header", root, view, || {
        service.fetch_header_pinned(doc_id)
    })?;
    let blob = rec.time("dsp.fetch_rules", root, view, || {
        service.fetch_rules_pinned(doc_id, &keys.subject, revision)
    })?;
    let rules = rec.time("session.rules_open", root, view, || {
        ProtectedRules::decode(&blob)?.open(&rules_key, None)
    })?;
    let config = EngineConfig::new(EvaluatorConfig::new(rules, keys.subject.as_str()))
        .with_ram_budget(keys.ram_budget);
    let mut session = rec.time("core.open", root, view, || {
        SecureEvaluationSession::open(header, doc_key, config)
    })?;
    let obs = service.obs().session();
    let stats = loop {
        match session.next_request() {
            SessionRequest::Done => {
                let (rest, stats) = rec.time("core.finish", root, view, || session.finish())?;
                for event in rest {
                    obs.event_delivered();
                    consumer.deliver(event);
                }
                break stats;
            }
            SessionRequest::NeedChunk(index) => {
                let (chunk, proof) = rec.time("dsp.fetch_chunk", root, view, || {
                    service.fetch_chunk_pinned(doc_id, index, revision)
                })?;
                rec.time("core.supply_chunk", root, view, || {
                    session.supply_chunk(index, &chunk, &proof)
                })?;
                let produced = session.take_output();
                let wire = chunk.len() + proof.encoded_len();
                let produced_len: usize = produced.iter().map(Event::serialized_len).sum();
                session.record_exchange(wire, produced_len);
                obs.record_exchange(wire, produced_len);
                for event in produced {
                    obs.event_delivered();
                    consumer.deliver(event);
                }
            }
        }
    };
    rec.close_at(root, consumer.last.unwrap_or_else(Instant::now));
    Ok(finish_pull(start, consumer, stats))
}

/// The policy edit the write paths toggle: deny the doctor the dosage of
/// every prescription (a small share of each folder, so views on both
/// sides of the toggle cost about the same).
pub const TOGGLED_SUBJECT: &str = "doctor";
pub const TOGGLED_OBJECT: &str = "//prescription/dosage";

/// Toggles the policy edit through the facade: `Publisher::grant` adds it
/// (and re-syncs every blob); removing it edits the rules through
/// `Publisher::server_mut` and calls `Publisher::sync_rules`.
pub fn facade_policy_update(publisher: &mut Publisher) -> Result<(), SddsError> {
    match toggled_rule(publisher) {
        None => publisher.grant(TOGGLED_SUBJECT, Sign::Deny, TOGGLED_OBJECT),
        Some(id) => {
            publisher.server_mut().rules_mut().remove(id);
            publisher.sync_rules()
        }
    }
}

fn toggled_rule(publisher: &Publisher) -> Option<RuleId> {
    publisher
        .rules()
        .rules()
        .iter()
        .find(|r| {
            r.subject.name() == TOGGLED_SUBJECT
                && r.sign == Sign::Deny
                && r.object.to_string() == TOGGLED_OBJECT
        })
        .map(|r| r.id)
}

/// Republishes `doc_id` through `Publisher::publish`.
pub fn facade_republish(
    publisher: &Publisher,
    doc_id: &str,
    doc: &Document,
) -> Result<(), SddsError> {
    publisher.publish(doc_id, doc).map(|_| ())
}

/// Subjects whose rule blobs the publisher keeps at the DSP: the policy's
/// subjects plus every provisioned one.
pub fn served_subjects(publisher: &Publisher, provisioned: &[String]) -> Vec<Subject> {
    let mut names: BTreeSet<String> = publisher
        .subjects()
        .iter()
        .map(|s| s.name().to_owned())
        .collect();
    names.extend(provisioned.iter().cloned());
    names.into_iter().map(Subject::new).collect()
}

/// Seals and uploads the rule blob of every served subject for `doc_id`.
fn traced_put_rules(
    publisher: &Publisher,
    subjects: &[Subject],
    doc_id: &str,
    rec: &mut Recorder,
    parent: Option<usize>,
    op: u64,
) -> Result<(), SddsError> {
    for subject in subjects {
        let sealed = rec.time("session.seal", parent, op, || {
            publisher.server().protected_rules_for(subject)
        });
        rec.time("dsp.put_rules", parent, op, || {
            publisher
                .service()
                .put_rules(doc_id, subject.name(), &sealed)
        })?;
    }
    Ok(())
}

/// The policy toggle with the calls `grant` / `sync_rules` make.
pub fn traced_policy_update(
    publisher: &mut Publisher,
    provisioned: &[String],
    rec: &mut Recorder,
    op: u64,
) -> Result<(), SddsError> {
    let root = rec.open("policy_update", None, op);
    match toggled_rule(publisher) {
        None => {
            publisher
                .server_mut()
                .rules_mut()
                .push(Sign::Deny, TOGGLED_SUBJECT, TOGGLED_OBJECT)?;
        }
        Some(id) => {
            publisher.server_mut().rules_mut().remove(id);
        }
    }
    let subjects = served_subjects(publisher, provisioned);
    for doc_id in publisher.service().store().document_ids() {
        traced_put_rules(publisher, &subjects, &doc_id, rec, root, op)?;
    }
    rec.close(root);
    Ok(())
}

/// A republish with the calls `Publisher::publish` makes.
pub fn traced_republish(
    publisher: &Publisher,
    provisioned: &[String],
    chunk_size: usize,
    doc_id: &str,
    doc: &Document,
    rec: &mut Recorder,
    op: u64,
) -> Result<(), SddsError> {
    let root = rec.open("republish", None, op);
    let builder = SecureDocumentBuilder::new(doc_id, publisher.server().document_key())
        .chunk_size(chunk_size);
    let secure = rec.time("core.secdoc_build", root, op, || builder.build(doc));
    rec.time("dsp.put_document", root, op, || {
        publisher.service().put_document(secure)
    });
    let subjects = served_subjects(publisher, provisioned);
    traced_put_rules(publisher, &subjects, doc_id, rec, root, op)?;
    rec.close(root);
    Ok(())
}
