//! Steppable pull sessions against the shared multi-client DSP service: one
//! step loop for both SOE transports.
//!
//! A pull is the Figure-1 flow: pin the header's upload revision, fetch the
//! subject's protected rule blob at that revision, then loop *next request →
//! fetch chunk → supply*. [`PullSession`] is that flow cut into
//! scheduler-sized steps, generic over the [`SoeTransport`] that reaches the
//! SOE. It is the only code that calls the DSP's fetches:
//!
//! * [`CardSession`] (`PullSession<Terminal>`) reaches the card applet over
//!   APDUs. Each [`Schedulable::step`] serves at most `quantum` chunk
//!   requests, so the [`sdds_dsp::service::SessionScheduler`] can
//!   round-robin many cards over the shared, `Sync` [`DspService`], and a
//!   single-user caller drives the same session to completion with
//!   [`CardSession::run`]. The exchanges of one step ride one
//!   [`sdds_card::BatchedChannel`] batch, so the per-APDU latency is charged
//!   once per coalesced batch rather than once per fragment;
//! * `PullSession<HostSoe>` runs the same SOE in process
//!   ([`crate::HostSoe`]); the facade's `ViewStream` steps it one request at
//!   a time and yields the events each request released.
//!
//! The subject's protected rules are fetched **from the DSP** at session
//! start (the paper stores them there precisely so any terminal can serve
//! any card), so the rule-blob serving counters of the sharded store see
//! realistic traffic. Every fetch carries the session's route salt, so the
//! sessions of one replicated document spread over its copies.

use sdds_sync::sync::Arc;
use std::time::Duration;

use sdds_card::{BatchedChannel, CostModel};
use sdds_core::rule::Subject;
use sdds_core::secdoc::{ChunkTag, DocumentHeader};
use sdds_dsp::service::{Schedulable, StepOutcome};
use sdds_dsp::{DspService, SessionObs};

use crate::proxy::{ProxyError, Terminal};

/// The SOE side of a pull: the operations the card applet (over APDUs) and
/// the in-process host SOE share. Each operation accounts the exchanges it
/// makes on the session's telemetry cells. Sessions move between scheduler
/// workers, so transports are `Send`.
pub trait SoeTransport: Send {
    /// What a finished session leaves behind (the card's view, the host's
    /// statistics).
    type Output: Send;

    /// The subject whose rule blob the session fetches.
    fn subject(&self) -> &Subject;

    /// Authenticates and installs the subject's protected rule blob, then
    /// opens an evaluation session over `header`.
    fn open(
        &mut self,
        header: DocumentHeader,
        rules: &[u8],
        obs: &SessionObs,
    ) -> Result<(), ProxyError>;

    /// The chunk the SOE needs next; `None` once the document is processed.
    fn next_request(&mut self) -> Result<Option<u32>, ProxyError>;

    /// Supplies one chunk with its tag.
    fn push_chunk(
        &mut self,
        index: u32,
        chunk: &[u8],
        tag: &ChunkTag,
        obs: &SessionObs,
    ) -> Result<(), ProxyError>;

    /// Ends the SOE session once the document is processed.
    fn finish(&mut self, obs: &SessionObs) -> Result<Self::Output, ProxyError>;

    /// Ends a session that failed after it was opened, so what the SOE
    /// did before the failure is still booked (the card merges its
    /// counters into its ledger). Nothing happens when no session is open.
    fn abort(&mut self, _obs: &SessionObs) {}

    /// Closes the exchanges of one step (the card coalesces them into one
    /// batch).
    fn end_step(&mut self) {}
}

/// One SOE pulling one document from the shared DSP service, in steps: the
/// first step opens, each later step serves up to `quantum` requests, and
/// the step that finds the document processed finishes.
///
/// The session **pins the document revision** it sees at start: every
/// subsequent request carries that revision, so a republish in the middle
/// of the pull surfaces as the typed `CoreError::StaleRevision` (through
/// [`PullSession::failure`]) instead of chunks of the new upload failing
/// their tag check against the old header.
pub struct PullSession<T: SoeTransport> {
    transport: T,
    service: Arc<DspService>,
    doc_id: String,
    /// Per-session route salt drawn from the service at connect time:
    /// identical requests from different sessions spread over a hot
    /// document's replicas (see `DspService::next_session_salt`).
    route_salt: u64,
    /// Upload revision pinned at session start (`None` before the first
    /// step).
    revision: Option<u64>,
    /// What the transport left once the session finished.
    output: Option<T::Output>,
    /// Message of the error the session failed with; a failed session
    /// keeps reporting it.
    error: Option<String>,
    /// The typed error behind `error` (the scheduler transports only the
    /// message; direct drivers want the real thing).
    failure: Option<ProxyError>,
    /// Session telemetry cells shared with the service's registry (SOE
    /// exchanges, wire bytes, events delivered).
    obs: SessionObs,
}

/// A card pulling one document over APDUs.
pub type CardSession = PullSession<Terminal>;

impl<T: SoeTransport> std::fmt::Debug for PullSession<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PullSession")
            .field("subject", self.transport.subject())
            .field("doc_id", &self.doc_id)
            .field("revision", &self.revision)
            .field("done", &self.output.is_some())
            .field("error", &self.error)
            .finish_non_exhaustive()
    }
}

impl<T: SoeTransport> PullSession<T> {
    /// A session of `transport` pulling `doc_id` from `service`; nothing is
    /// fetched before the first step.
    pub fn new(transport: T, service: Arc<DspService>, doc_id: String) -> Self {
        let route_salt = service.next_session_salt();
        let obs = service.obs().session();
        PullSession {
            transport,
            service,
            doc_id,
            route_salt,
            revision: None,
            output: None,
            error: None,
            failure: None,
            obs,
        }
    }

    /// Document this session pulls.
    pub fn doc_id(&self) -> &str {
        &self.doc_id
    }

    /// Route salt this session carries on every fetch (distinct per session
    /// on one service, so replicated documents spread their load).
    pub fn route_salt(&self) -> u64 {
        self.route_salt
    }

    /// Upload revision this session pinned at start (`None` before the first
    /// step).
    pub fn revision(&self) -> Option<u64> {
        self.revision
    }

    /// The typed error a failed session retired with (the scheduler report
    /// carries only the message string; this keeps the real error, e.g.
    /// `CoreError::StaleRevision` after a mid-stream republish).
    pub fn failure(&self) -> Option<&ProxyError> {
        self.failure.as_ref()
    }

    /// Error message if the session failed.
    pub fn error(&self) -> Option<&str> {
        self.error.as_deref()
    }

    /// Mutable access to the SOE transport (e.g. to drain the events a host
    /// SOE released).
    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.transport
    }

    /// What the transport left once the session finished.
    pub fn output(&self) -> Option<&T::Output> {
        self.output.as_ref()
    }

    /// The session's telemetry cells.
    pub fn obs(&self) -> &SessionObs {
        &self.obs
    }

    /// [`Schedulable::step`] with the typed error instead of its message.
    pub fn advance(&mut self, quantum: usize) -> Result<StepOutcome, ProxyError> {
        Schedulable::step(self, quantum)
            .map_err(|message| self.failure.take().unwrap_or(ProxyError::Protocol(message)))
    }

    /// Pins the revision, fetches the subject's rule blob at it and opens
    /// the SOE session.
    fn open(&mut self) -> Result<(), ProxyError> {
        // The header fetch pins the upload revision for the whole session:
        // every later request carries it, so a mid-pull republish becomes a
        // typed `StaleRevision`, never a tag mismatch.
        let (header, revision) = self
            .service
            .fetch_header_pinned_salted(&self.doc_id, self.route_salt)?;
        self.revision = Some(revision);
        // Protected rules travel through the untrusted DSP as an opaque blob;
        // the SOE authenticates them itself.
        let rules = self.service.fetch_rules_pinned_salted(
            &self.doc_id,
            self.transport.subject().name(),
            revision,
            self.route_salt,
        )?;
        self.transport.open(header, &rules, &self.obs)
    }

    /// Opens on the first call; afterwards serves up to `quantum` requests
    /// and finishes when the SOE needs nothing more.
    fn serve(&mut self, quantum: usize) -> Result<StepOutcome, ProxyError> {
        let Some(revision) = self.revision else {
            self.open()?;
            return Ok(StepOutcome::Pending);
        };
        for _ in 0..quantum {
            let Some(index) = self.transport.next_request()? else {
                self.output = Some(self.transport.finish(&self.obs)?);
                return Ok(StepOutcome::Complete);
            };
            let (chunk, tag) = self.service.fetch_chunk_pinned_salted(
                &self.doc_id,
                index,
                revision,
                self.route_salt,
            )?;
            self.transport.push_chunk(index, &chunk, &tag, &self.obs)?;
        }
        Ok(StepOutcome::Pending)
    }
}

impl<T: SoeTransport> Schedulable for PullSession<T> {
    fn step(&mut self, quantum: usize) -> Result<StepOutcome, String> {
        if let Some(message) = &self.error {
            return Err(message.clone());
        }
        if self.output.is_some() {
            return Ok(StepOutcome::Complete);
        }
        let result = self.serve(quantum);
        if result.is_err() {
            self.transport.abort(&self.obs);
        }
        // Close the step's exchanges whatever happened: latency accounting
        // must not leak a partial batch into the next step.
        self.transport.end_step();
        result.map_err(|e| {
            let message = format!("session `{}`: {e}", self.doc_id);
            self.error = Some(message.clone());
            self.failure = Some(e);
            message
        })
    }
}

impl CardSession {
    /// The terminal (card ledger, session stats) backing this session.
    pub fn terminal(&self) -> &Terminal {
        &self.transport
    }

    /// The authorized view, once the session is done.
    pub fn view(&self) -> Option<&str> {
        self.output.as_deref()
    }

    /// Batched channel accounting of this session's card exchanges.
    pub fn batched_channel(&self) -> &BatchedChannel {
        &self.transport.batched
    }

    /// Simulated end-to-end latency of this session under `model`, with the
    /// channel charged at **batched** APDU rates: crypto and evaluation come
    /// from the card ledger, transfer time from the coalesced batches (which
    /// include the session-start rules blob and header shipment).
    pub fn simulated_latency(&self, model: &CostModel) -> Duration {
        let breakdown = self.transport.card_ledger().breakdown(model);
        breakdown.decryption
            + breakdown.integrity
            + breakdown.evaluation
            + self.transport.batched.elapsed()
    }

    /// Runs the session to completion in place (no scheduler), returning the
    /// view. The session — and through it the terminal with its cost ledger
    /// and the batched-channel accounting — stays available afterwards.
    pub fn run(&mut self) -> Result<&str, ProxyError> {
        while self.advance(usize::MAX)? == StepOutcome::Pending {}
        // lint: infallible — `advance` returned `Complete`, and the
        // completing step stores the view before reporting it.
        Ok(self.view().expect("complete session has a view"))
    }

    /// Runs the session to completion in one call (no scheduler), consuming
    /// it and returning the view.
    pub fn run_to_completion(mut self) -> Result<String, ProxyError> {
        self.run()?;
        // lint: infallible — `run` returned `Ok`, so the view is stored.
        Ok(self.output.expect("complete session has a view"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pki::SimulatedPki;
    use sdds_card::CardProfile;
    use sdds_core::baseline::authorized_view_oracle;
    use sdds_core::conflict::AccessPolicy;
    use sdds_core::engine::{DEFAULT_DOC_KEY_ID, RULES_KEY_ID};
    use sdds_core::rule::{RuleSet, Subject};
    use sdds_core::secdoc::SecureDocumentBuilder;
    use sdds_core::session::TrustedServer;
    use sdds_dsp::service::SessionScheduler;
    use sdds_xml::generator::{self, GeneratorConfig, HospitalProfile};
    use sdds_xml::writer;

    fn rules() -> RuleSet {
        RuleSet::parse(
            "+, doctor, //patient\n-, doctor, //patient/ssn\n+, secretary, //patient/name",
        )
        .unwrap()
    }

    fn setup(docs: usize, shards: usize) -> (TrustedServer, Arc<DspService>, sdds_xml::Document) {
        let server = TrustedServer::new(b"hospital-2005", rules());
        let doc = generator::hospital(
            &HospitalProfile {
                patients: 3,
                ..HospitalProfile::default()
            },
            &GeneratorConfig::default(),
        );
        let service = DspService::new(shards);
        for i in 0..docs {
            let id = format!("folder-{i}");
            let secure = SecureDocumentBuilder::new(&id, server.document_key()).build(&doc);
            service.put_document(secure);
            for subject in ["doctor", "secretary"] {
                service
                    .put_rules(
                        &id,
                        subject,
                        &server.protected_rules_for(&Subject::new(subject)),
                    )
                    .unwrap();
            }
        }
        (server, Arc::new(service), doc)
    }

    fn terminal_for(server: &TrustedServer, subject: &str) -> Terminal {
        let pki = SimulatedPki::new(b"hospital-2005");
        let subj = Subject::new(subject);
        let mut terminal = Terminal::issue_card(
            subject,
            pki.card_transport_key(&subj),
            CardProfile::modern_secure_element(),
        );
        terminal
            .install_key(&server.provision_document_key(&subj, DEFAULT_DOC_KEY_ID))
            .unwrap();
        terminal
            .install_key(&server.provision_rules_key(&subj, RULES_KEY_ID))
            .unwrap();
        terminal
    }

    #[test]
    fn shared_session_matches_the_single_tenant_view() {
        let (server, service, doc) = setup(1, 4);
        let terminal = terminal_for(&server, "doctor");
        let session = terminal.connect_shared(Arc::clone(&service), "folder-0");
        let view = session.run_to_completion().unwrap();
        let expected = authorized_view_oracle(
            &doc,
            &rules(),
            &Subject::new("doctor"),
            None,
            &AccessPolicy::paper(),
        );
        assert_eq!(view, writer::to_string(&expected));
        // The service counted the rules blob and the chunks.
        let stats = service.stats();
        assert!(stats.rule_blobs_served == 1);
        assert!(stats.chunks_served > 0);
    }

    #[test]
    fn scheduler_multiplexes_many_cards_fairly() {
        let (server, service, doc) = setup(8, 4);
        let sessions: Vec<CardSession> = (0..8)
            .map(|i| {
                let subject = if i % 2 == 0 { "doctor" } else { "secretary" };
                terminal_for(&server, subject)
                    .connect_shared(Arc::clone(&service), format!("folder-{i}"))
            })
            .collect();
        let report = SessionScheduler::new(2, 4).run(sessions);
        assert_eq!(report.finished.len(), 8);
        assert!(report.failures().is_empty(), "{:?}", report.failures());
        let doctor_expected = writer::to_string(&authorized_view_oracle(
            &doc,
            &rules(),
            &Subject::new("doctor"),
            None,
            &AccessPolicy::paper(),
        ));
        for finished in &report.finished {
            let session = &finished.session;
            assert!(finished.steps > 1, "sessions are really interleaved");
            if session.terminal().subject().name() == "doctor" {
                assert_eq!(session.view(), Some(doctor_expected.as_str()));
            } else {
                assert!(session.view().unwrap().contains("<name>"));
            }
            // Batching coalesced this session's pushes into fewer exchanges.
            assert!(session.batched_channel().apdus_saved() > 0);
            assert!(
                session.simulated_latency(&CostModel::modern_secure_element()) > Duration::ZERO
            );
        }
        // Same-size documents, FIFO requeue: the schedule stays balanced.
        assert!(report.step_spread() <= 1, "spread {}", report.step_spread());
    }

    #[test]
    fn sessions_draw_distinct_salts_and_spread_replica_serving() {
        let (server, service, _) = setup(1, 8);
        service.pin_replicas("folder-0", 4).unwrap();
        let copies = service.replica_shards("folder-0");
        assert_eq!(copies.len(), 4);
        service.reset_stats();

        let sessions: Vec<CardSession> = (0..16)
            .map(|_| {
                terminal_for(&server, "doctor").connect_shared(Arc::clone(&service), "folder-0")
            })
            .collect();
        // Every session drew a distinct salt from the shared ticket counter.
        let mut salts: Vec<u64> = sessions.iter().map(|s| s.route_salt()).collect();
        salts.sort_unstable();
        salts.dedup();
        assert_eq!(salts.len(), 16, "salts must be distinct per session");

        let report = SessionScheduler::new(2, 4).run(sessions);
        assert!(report.failures().is_empty(), "{:?}", report.failures());

        // Header requests = requests − chunks − rule blobs, per shard. With
        // unsalted routing all 16 identical header fetches hit the home copy;
        // salted sessions must spread them over several replicas.
        let stats = service.shard_stats();
        let header_shards = copies
            .iter()
            .filter(|&&shard| {
                let s = &stats[shard];
                s.requests > s.chunks_served + s.rule_blobs_served
            })
            .count();
        assert!(
            header_shards > 1,
            "identical header requests must spread over replicas, got {header_shards} shard(s)"
        );
    }

    #[test]
    fn missing_rules_fail_the_session_not_the_scheduler() {
        let (server, service, _) = setup(1, 2);
        let session =
            terminal_for(&server, "researcher").connect_shared(Arc::clone(&service), "folder-0");
        let ok_session =
            terminal_for(&server, "doctor").connect_shared(Arc::clone(&service), "folder-0");
        let report = SessionScheduler::new(1, 4).run(vec![session, ok_session]);
        let failures = report.failures();
        assert_eq!(failures.len(), 1);
        assert!(failures[0].1.contains("researcher") || failures[0].1.contains("no rules"));
        assert_eq!(report.finished.iter().filter(|f| f.is_ok()).count(), 1);
    }
}
