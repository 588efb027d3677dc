//! Steppable pull session against the shared multi-client DSP service — the
//! one pull-mode flow of the workspace.
//!
//! A whole pull session run in one blocking call is fine for one card but
//! hostile to multiplexing: a scheduler cannot interleave K cards if each one
//! insists on finishing its document first. [`CardSession`] is the Figure-1
//! flow cut into scheduler-sized steps: each [`Schedulable::step`] serves at
//! most `quantum` chunk requests, so the
//! [`sdds_dsp::service::SessionScheduler`] can round-robin many cards over
//! the shared, `Sync` [`DspService`] — and a single-user caller simply drives
//! the same session to completion with [`CardSession::run`] (or lets the
//! `sdds::Client` facade do it).
//!
//! Two deliberate design points:
//!
//! * the subject's protected rules are fetched **from the DSP** at session
//!   start (the paper stores them there precisely so any terminal can serve
//!   any card), so the rule-blob serving counters of the sharded store see
//!   realistic traffic;
//! * the chunk pushes of one step are also accounted on a
//!   [`BatchedChannel`]: the per-APDU latency is charged once per coalesced
//!   batch rather than once per fragment, which is what makes the simulated
//!   per-session latency of E10 reflect batched fan-out serving.

use sdds_sync::sync::Arc;
use std::time::Duration;

use sdds_card::apdu::{ins, Apdu};
use sdds_card::{BatchedChannel, CostModel};
use sdds_core::secdoc::{ChunkTag, DocumentHeader};
use sdds_dsp::service::{Schedulable, StepOutcome};
use sdds_dsp::{DspService, SessionObs};

use crate::proxy::{ProxyError, Terminal};

/// Progress of a [`CardSession`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SessionPhase {
    /// Rules and header not fetched yet.
    NotStarted,
    /// Mid-document: the card keeps requesting chunks.
    Streaming,
    /// The view has been collected and the card session closed.
    Done,
    /// A step failed; the error is kept for the report.
    Failed,
}

/// One card pulling one document from the shared DSP service, in steps.
///
/// The session **pins the document revision** it sees at start: every
/// subsequent chunk request carries that revision, so a republish in the
/// middle of the pull surfaces as the typed
/// `CoreError::StaleRevision` (through [`CardSession::run`] /
/// [`CardSession::failure`]) instead of chunks of the new upload failing
/// their tag check against the old header.
pub struct CardSession {
    terminal: Terminal,
    service: Arc<DspService>,
    doc_id: String,
    phase: SessionPhase,
    batched: BatchedChannel,
    /// Upload revision pinned at session start (`None` before the first
    /// step).
    revision: Option<u64>,
    view: Option<String>,
    error: Option<String>,
    /// The typed error behind `error` (the scheduler transports only the
    /// message; direct drivers want the real thing).
    failure: Option<ProxyError>,
    /// Per-session route salt drawn from the service at connect time:
    /// identical requests from different sessions spread over a hot
    /// document's replicas (see `DspService::next_session_salt`).
    route_salt: u64,
    /// Card-session telemetry cells shared with the service's registry
    /// (APDU round-trips and wire bytes, counted per coalesced batch).
    obs: SessionObs,
}

impl std::fmt::Debug for CardSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CardSession")
            .field("subject", self.terminal.subject())
            .field("doc_id", &self.doc_id)
            .field("phase", &self.phase)
            .finish_non_exhaustive()
    }
}

impl CardSession {
    pub(crate) fn new(terminal: Terminal, service: Arc<DspService>, doc_id: String) -> Self {
        let channel = terminal.cost_model().channel;
        let route_salt = service.next_session_salt();
        let obs = service.obs().session();
        CardSession {
            terminal,
            service,
            doc_id,
            phase: SessionPhase::NotStarted,
            batched: BatchedChannel::new(channel),
            revision: None,
            view: None,
            error: None,
            failure: None,
            route_salt,
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

    /// The terminal (card ledger, session stats) backing this session.
    pub fn terminal(&self) -> &Terminal {
        &self.terminal
    }

    /// The authorized view, once the session is done.
    pub fn view(&self) -> Option<&str> {
        self.view.as_deref()
    }

    /// Error message if the session failed.
    pub fn error(&self) -> Option<&str> {
        self.error.as_deref()
    }

    /// Batched channel accounting of this session's chunk pushes.
    pub fn batched_channel(&self) -> &BatchedChannel {
        &self.batched
    }

    /// Simulated end-to-end latency of this session under `model`, with the
    /// channel charged at **batched** APDU rates: crypto and evaluation come
    /// from the card ledger, transfer time from the coalesced batches (which
    /// include the session-start rules blob and header shipment).
    pub fn simulated_latency(&self, model: &CostModel) -> Duration {
        let breakdown = self.terminal.card_ledger().breakdown(model);
        breakdown.decryption + breakdown.integrity + breakdown.evaluation + self.batched.elapsed()
    }

    /// Runs the session to completion in place (no scheduler), returning the
    /// view. The session — and through it the terminal with its cost ledger
    /// and the batched-channel accounting — stays available afterwards.
    pub fn run(&mut self) -> Result<&str, ProxyError> {
        loop {
            match Schedulable::step(self, usize::MAX) {
                Ok(StepOutcome::Pending) => continue,
                Ok(StepOutcome::Complete) => break,
                Err(message) => {
                    return Err(self.failure.take().unwrap_or(ProxyError::Protocol(message)))
                }
            }
        }
        // lint: infallible — the loop above only breaks on `Complete`, and
        // the completing step stores the view before reporting `Complete`.
        Ok(self.view.as_deref().expect("complete session has a view"))
    }

    /// Runs the session to completion in one call (no scheduler), consuming
    /// it and returning the view.
    pub fn run_to_completion(mut self) -> Result<String, ProxyError> {
        self.run()?;
        // lint: infallible — `run` returned `Ok`, so the view is stored.
        Ok(self.view.expect("complete session has a view"))
    }

    fn start(&mut self) -> Result<(), ProxyError> {
        // The header fetch pins the upload revision for the whole session:
        // every later request carries it, so a mid-pull republish becomes a
        // typed `StaleRevision`, never a tag mismatch.
        let pinned = self
            .service
            .fetch_header_pinned_salted(&self.doc_id, self.route_salt)?;
        let header: DocumentHeader = pinned.0;
        let revision = pinned.1;
        self.revision = Some(revision);
        // Protected rules travel through the untrusted DSP as an opaque blob;
        // the card authenticates them itself on PUT_RULES.
        let blob = self.service.fetch_rules_pinned_salted(
            &self.doc_id,
            self.terminal.subject().name(),
            revision,
            self.route_salt,
        )?;
        self.terminal.install_rules(&blob)?;
        let header_bytes = header.encode();
        self.terminal.open_card_session(&header_bytes)?;
        // The provisioning exchanges ride the first step's batch too, so the
        // simulated latency covers the whole session, not just the chunks
        // (responses are bare status words, 2 bytes each).
        self.batched.queue(blob.len(), 2);
        self.batched.queue(header_bytes.len(), 2);
        self.obs.record_exchange(blob.len(), 2);
        self.obs.record_exchange(header_bytes.len(), 2);
        self.phase = SessionPhase::Streaming;
        Ok(())
    }

    /// Serves up to `quantum` chunk requests; true when the document ended.
    fn stream(&mut self, quantum: usize) -> Result<bool, ProxyError> {
        for _ in 0..quantum {
            let Some(index) = self.terminal.next_chunk_request()? else {
                return Ok(true);
            };
            // lint: infallible — `start` pins the revision before entering
            // the `Streaming` phase that calls `stream`.
            let revision = self.revision.expect("streaming session pinned at start");
            let served = self.service.fetch_chunk_pinned_salted(
                &self.doc_id,
                index,
                revision,
                self.route_salt,
            )?;
            let chunk: Arc<[u8]> = served.0;
            let tag: ChunkTag = served.1;
            let pushed = self.terminal.push_chunk(index, &chunk, &tag)?;
            // The whole request rides the step's batch: the 5-byte
            // NEXT_REQUEST command and chunk payload out, the 4-byte index
            // answer and a status word back.
            self.batched.queue(pushed + 5, 6);
            self.obs.record_exchange(pushed + 5, 6);
        }
        Ok(false)
    }

    fn finish(&mut self) -> Result<(), ProxyError> {
        let view = self.terminal.collect_output()?;
        self.terminal.close_card_session()?;
        // The authorized view ships back over GET_OUTPUT responses, followed
        // by one bare CLOSE_SESSION exchange: the final batch carries them so
        // the simulated latency really covers the whole session.
        self.batched.queue(5, view.len() + 2);
        self.batched.queue(5, 2);
        self.obs.record_exchange(5, view.len() + 2);
        self.obs.record_exchange(5, 2);
        self.view = Some(view);
        self.phase = SessionPhase::Done;
        Ok(())
    }

    fn advance(&mut self, quantum: usize) -> Result<StepOutcome, ProxyError> {
        if self.phase == SessionPhase::NotStarted {
            self.start()?;
            return Ok(StepOutcome::Pending);
        }
        if self.stream(quantum)? {
            self.finish()?;
            return Ok(StepOutcome::Complete);
        }
        Ok(StepOutcome::Pending)
    }
}

impl Schedulable for CardSession {
    fn step(&mut self, quantum: usize) -> Result<StepOutcome, String> {
        if self.phase == SessionPhase::Done {
            return Ok(StepOutcome::Complete);
        }
        if self.phase == SessionPhase::Failed {
            return Err(self.error.clone().unwrap_or_else(|| "failed".into()));
        }
        let result = self.advance(quantum);
        // Close the step's batch whatever happened: latency accounting must
        // not leak a partial batch into the next step.
        self.batched.flush();
        match result {
            Ok(outcome) => Ok(outcome),
            Err(e) => {
                let message = format!("session `{}`: {e}", self.doc_id);
                self.phase = SessionPhase::Failed;
                self.error = Some(message.clone());
                self.failure = Some(e);
                Err(message)
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Terminal plumbing the stepped session needs.
// ---------------------------------------------------------------------------

impl Terminal {
    /// Connects this terminal to the shared multi-client DSP service for one
    /// document pull. The returned [`CardSession`] can be driven directly
    /// ([`CardSession::run_to_completion`]) or submitted to a
    /// [`sdds_dsp::service::SessionScheduler`] together with the sessions of
    /// other cards.
    ///
    /// The terminal must already hold its keys (see
    /// [`Terminal::install_key`]); the protected rules are fetched from the
    /// service at session start.
    pub fn connect_shared(
        self,
        service: Arc<DspService>,
        doc_id: impl Into<String>,
    ) -> CardSession {
        CardSession::new(self, service, doc_id.into())
    }

    /// Opens an evaluation session on the card for an encoded header.
    pub(crate) fn open_card_session(&mut self, header: &[u8]) -> Result<(), ProxyError> {
        let policy = u8::from(self.open_policy());
        self.runtime_mut()
            .exchange_expect_ok(&Apdu::new(ins::OPEN_SESSION, 0, policy, header)?)?;
        Ok(())
    }

    /// Asks the card which chunk it wants next; `None` when the document is
    /// fully processed.
    pub(crate) fn next_chunk_request(&mut self) -> Result<Option<u32>, ProxyError> {
        let next = self
            .runtime_mut()
            .exchange_expect_ok(&Apdu::simple(ins::NEXT_REQUEST, 0, 0))?;
        if next.len() != 4 {
            return Err(ProxyError::Protocol("bad NEXT_REQUEST response".into()));
        }
        // lint: infallible — the length is checked to be exactly 4 above.
        let index = u32::from_le_bytes(next[..4].try_into().expect("4 bytes"));
        Ok((index != u32::MAX).then_some(index))
    }

    /// Closes the card-side session.
    pub(crate) fn close_card_session(&mut self) -> Result<(), ProxyError> {
        self.runtime_mut()
            .exchange_expect_ok(&Apdu::simple(ins::CLOSE_SESSION, 0, 0))?;
        Ok(())
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
