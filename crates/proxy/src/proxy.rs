//! The terminal proxy.
//!
//! "A terminal connected to the smart card [...] contains a proxy allowing the
//! applications to communicate easily with the different elements of the
//! architecture through an XML API independent of the underlying protocols
//! (JDBC, APDU)" (§3). [`Terminal`] is that proxy: it speaks the DSP request
//! API on one side and APDUs on the other, and never sees any key or
//! plaintext beyond what the card delivers. It is the card's
//! [`SoeTransport`]: pull-mode evaluation goes through
//! [`Terminal::connect_shared`] and the stepped [`CardSession`] against the
//! shared `DspService` (the only serving path of the workspace); push-mode
//! items are evaluated in place with [`Terminal::evaluate_local`], through
//! the same transport operations. Applications normally reach this type
//! through the top-level `sdds::Client` facade rather than directly.

use sdds_sync::sync::Arc;

use sdds_card::apdu::{fragments, ins, Apdu, ApduData, StatusWord};
use sdds_card::{
    BatchedChannel, CardError, CardProfile, CardRuntime, CostLedger, CostModel, LatencyBreakdown,
};
use sdds_core::engine::{AccessControlApplet, PUSH_CHUNK_PREFIX};
use sdds_core::rule::Subject;
use sdds_core::secdoc::{ChunkTag, DocumentHeader, SecureDocument};
use sdds_core::session::KeyProvisioning;
use sdds_core::CoreError;
use sdds_crypto::SecretKey;
use sdds_dsp::{DspService, SessionObs};

use crate::session::{CardSession, PullSession, SoeTransport};

/// Errors surfaced by the proxy to applications.
#[derive(Debug)]
#[non_exhaustive]
pub enum ProxyError {
    /// The card refused a command or a budget was exceeded.
    Card(CardError),
    /// A core-level failure (bad document, crypto, ...).
    Core(CoreError),
    /// The proxy and the card disagree on the protocol state.
    Protocol(String),
}

impl std::fmt::Display for ProxyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProxyError::Card(e) => write!(f, "card error: {e}"),
            ProxyError::Core(e) => write!(f, "core error: {e}"),
            ProxyError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl std::error::Error for ProxyError {}

impl From<CardError> for ProxyError {
    fn from(e: CardError) -> Self {
        ProxyError::Card(e)
    }
}

impl From<CoreError> for ProxyError {
    fn from(e: CoreError) -> Self {
        ProxyError::Core(e)
    }
}

impl From<sdds_wire::WireError> for ProxyError {
    fn from(e: sdds_wire::WireError) -> Self {
        ProxyError::Core(e.into())
    }
}

/// A user terminal hosting a smart card.
pub struct Terminal {
    subject: Subject,
    runtime: CardRuntime<AccessControlApplet>,
    /// When true, sessions are opened with the open-world policy (only
    /// negative rules filter content) instead of the paper's closed world.
    open_policy: bool,
    /// The card exchanges of each session step, coalesced into shared APDU
    /// batches.
    pub(crate) batched: BatchedChannel,
    /// Peak secure RAM the card's last session reported at `CLOSE_SESSION`.
    soe_peak_ram: usize,
    /// True from a successful `OPEN_SESSION` to its `CLOSE_SESSION`.
    session_open: bool,
}

impl std::fmt::Debug for Terminal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Terminal")
            .field("subject", &self.subject)
            .finish_non_exhaustive()
    }
}

impl Terminal {
    /// Issues a card for `subject` (personalised with `transport_key`) and
    /// plugs it into a terminal.
    pub fn issue_card(
        subject: impl Into<String>,
        transport_key: SecretKey,
        profile: CardProfile,
    ) -> Self {
        let subject = Subject::new(subject);
        let applet = AccessControlApplet::new(subject.name(), transport_key);
        Terminal {
            subject,
            runtime: CardRuntime::new(profile, applet),
            open_policy: false,
            batched: BatchedChannel::new(profile.cost.channel),
            soe_peak_ram: 0,
            session_open: false,
        }
    }

    /// Selects the open-world policy for subsequent sessions (dissemination
    /// scenarios where only prohibitions filter the stream).
    pub fn set_open_policy(&mut self, open: bool) {
        self.open_policy = open;
    }

    /// Cost model of the hosted card's hardware profile.
    pub fn cost_model(&self) -> CostModel {
        self.runtime.card().profile().cost
    }

    /// The subject this terminal's card belongs to.
    pub fn subject(&self) -> &Subject {
        &self.subject
    }

    /// Installs a wrapped key on the card.
    pub fn install_key(&mut self, provisioning: &KeyProvisioning) -> Result<(), ProxyError> {
        self.exchange(&Apdu::new(ins::PUT_KEY, 0, 0, provisioning.encode())?)?;
        Ok(())
    }

    /// Installs (or refreshes) the protected rules of this subject, fetched as
    /// an opaque blob (typically from the DSP).
    pub fn install_rules(&mut self, protected_blob: &[u8]) -> Result<(), ProxyError> {
        for (frag, more) in fragments(&[protected_blob]) {
            self.exchange(&Apdu::with_data(ins::PUT_RULES, u8::from(more), 0, frag))?;
        }
        Ok(())
    }

    /// Registers a query for the next evaluation sessions.
    pub fn set_query(&mut self, query: &str) -> Result<(), ProxyError> {
        self.exchange(&Apdu::new(ins::PUT_QUERY, 0, 0, query)?)?;
        Ok(())
    }

    /// Evaluates a locally available secure document (push-mode: the item was
    /// broadcast to the terminal, e.g. by a dissemination channel, and the
    /// card already holds its rules).
    pub fn evaluate_local(&mut self, document: &SecureDocument) -> Result<String, ProxyError> {
        let obs = SessionObs::default();
        let mut run = || {
            self.open_card_session(&document.header.encode())?;
            while let Some(index) = self.next_request()? {
                let (chunk, tag) = document
                    .sealed_chunk(index as usize)
                    .ok_or_else(|| ProxyError::Protocol(format!("chunk {index} out of range")))?;
                self.push_chunk(index, &chunk, &tag, &obs)?;
            }
            self.finish(&obs)
        };
        let view = run();
        if view.is_err() {
            self.abort(&obs);
        }
        // One item is one batch; closing it also keeps the queue from
        // growing across the items a terminal evaluates.
        self.end_step();
        view
    }

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
        PullSession::new(self, service, doc_id.into())
    }

    /// One APDU exchange with the card. A refusal reads as the SOE error
    /// its status word stands for ([`AccessControlApplet::error_for`]),
    /// and otherwise as the card's refusal.
    fn exchange(&mut self, command: &Apdu) -> Result<ApduData, ProxyError> {
        self.runtime
            .exchange_expect_ok(command)
            .map_err(|e| match e {
                CardError::Refused { status, .. } => {
                    match AccessControlApplet::error_for(StatusWord(status)) {
                        Some(soe) => ProxyError::Core(soe),
                        None => ProxyError::Card(e),
                    }
                }
                other => ProxyError::Card(other),
            })
    }

    /// Opens an evaluation session on the card for an encoded header.
    fn open_card_session(&mut self, header: &[u8]) -> Result<(), ProxyError> {
        self.exchange(&Apdu::new(
            ins::OPEN_SESSION,
            0,
            u8::from(self.open_policy),
            header,
        )?)?;
        self.session_open = true;
        Ok(())
    }

    /// Closes the card's session, processed or not: the card merges the
    /// SOE's counters into its ledger and answers with the session's
    /// statistics, of which the terminal keeps the peak RAM. The exchange
    /// rides the step's batch, with its 20 bytes of statistics.
    fn close_card_session(&mut self, obs: &SessionObs) -> Result<(), ProxyError> {
        self.session_open = false;
        let closed = self.exchange(&Apdu::simple(ins::CLOSE_SESSION, 0, 0))?;
        let peak: [u8; 4] = closed
            .get(16..20)
            .and_then(|peak| peak.try_into().ok())
            .ok_or_else(|| ProxyError::Protocol("bad CLOSE_SESSION response".into()))?;
        self.soe_peak_ram = u32::from_le_bytes(peak) as usize;
        self.batched.queue(5, closed.len() + 2);
        obs.record_exchange(5, closed.len() + 2);
        Ok(())
    }

    /// Card-side cost counters of the current or last session: the card
    /// restarts them at `OPEN_SESSION`, meters every APDU, and adds the
    /// SOE's own decrypted, hashed, processed and skipped counts at
    /// `CLOSE_SESSION`.
    pub fn card_ledger(&self) -> &CostLedger {
        self.runtime.card().ledger_ref()
    }

    /// Peak secure RAM of the card's last closed session, as its
    /// `CLOSE_SESSION` response reports it (0 before the first).
    pub fn soe_peak_ram(&self) -> usize {
        self.soe_peak_ram
    }

    /// Simulated latency of the card ledger ([`Terminal::card_ledger`])
    /// under `model`.
    pub fn latency(&self, model: &CostModel) -> LatencyBreakdown {
        self.runtime.card().ledger_ref().breakdown(model)
    }
}

/// The card's SOE operations, as APDU exchanges. Each request's exchanges
/// are queued on the step's batch and counted on the session's telemetry.
impl SoeTransport for Terminal {
    type Output = String;

    fn subject(&self) -> &Subject {
        &self.subject
    }

    fn open(
        &mut self,
        header: DocumentHeader,
        rules: &[u8],
        obs: &SessionObs,
    ) -> Result<(), ProxyError> {
        self.install_rules(rules)?;
        let header_bytes = header.encode();
        self.open_card_session(&header_bytes)?;
        // The provisioning exchanges ride the first step's batch too, so the
        // simulated latency covers the whole session, not just the chunks
        // (responses are bare status words, 2 bytes each).
        self.batched.queue(rules.len(), 2);
        self.batched.queue(header_bytes.len(), 2);
        obs.record_exchange(rules.len(), 2);
        obs.record_exchange(header_bytes.len(), 2);
        Ok(())
    }

    fn next_request(&mut self) -> Result<Option<u32>, ProxyError> {
        let next = self.exchange(&Apdu::simple(ins::NEXT_REQUEST, 0, 0))?;
        let index: [u8; 4] = next[..]
            .try_into()
            .map_err(|_| ProxyError::Protocol("bad NEXT_REQUEST response".into()))?;
        let index = u32::from_le_bytes(index);
        Ok((index != u32::MAX).then_some(index))
    }

    fn push_chunk(
        &mut self,
        index: u32,
        chunk: &[u8],
        tag: &ChunkTag,
        obs: &SessionObs,
    ) -> Result<(), ProxyError> {
        // Payload: chunk index (4), tag, ciphertext — cut into APDU
        // fragments as it is framed, never assembled in one buffer.
        for (frag, more) in fragments(&[&index.to_le_bytes(), tag.as_bytes(), chunk]) {
            self.exchange(&Apdu::with_data(ins::PUSH_CHUNK, u8::from(more), 0, frag))?;
        }
        // The whole request rides the step's batch: the 5-byte NEXT_REQUEST
        // command and chunk payload out, the 4-byte index answer and a
        // status word back.
        let pushed = PUSH_CHUNK_PREFIX + chunk.len();
        self.batched.queue(pushed + 5, 6);
        obs.record_exchange(pushed + 5, 6);
        Ok(())
    }

    fn finish(&mut self, obs: &SessionObs) -> Result<String, ProxyError> {
        let mut bytes = Vec::new();
        loop {
            let part = self.exchange(&Apdu::simple(ins::GET_OUTPUT, 0, 0))?;
            if part.is_empty() {
                break;
            }
            bytes.extend_from_slice(&part);
        }
        let view = String::from_utf8(bytes)
            .map_err(|_| ProxyError::Protocol("non UTF-8 output".into()))?;
        // The authorized view ships back over GET_OUTPUT responses, followed
        // by the CLOSE_SESSION exchange and its statistics: the final batch
        // carries them so the simulated latency really covers the whole
        // session.
        self.batched.queue(5, view.len() + 2);
        obs.record_exchange(5, view.len() + 2);
        self.close_card_session(obs)?;
        Ok(view)
    }

    fn abort(&mut self, obs: &SessionObs) {
        if self.session_open {
            // The session already failed; a card that also refuses to
            // close it adds nothing the caller can act on.
            let _ = self.close_card_session(obs);
        }
    }

    fn end_step(&mut self) {
        self.batched.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::HostSoe;
    use crate::pki::SimulatedPki;
    use sdds_core::baseline::authorized_view_oracle;
    use sdds_core::conflict::AccessPolicy;
    use sdds_core::engine::{DEFAULT_DOC_KEY_ID, RULES_KEY_ID};
    use sdds_core::rule::RuleSet;
    use sdds_core::secdoc::SecureDocumentBuilder;
    use sdds_core::secdoc::TAG_LEN;
    use sdds_core::session::TrustedServer;
    use sdds_dsp::service::StepOutcome;
    use sdds_dsp::DspService;
    use sdds_xml::generator::{self, GeneratorConfig, HospitalProfile};
    use sdds_xml::writer;
    use std::sync::Arc;

    fn rules() -> RuleSet {
        RuleSet::parse(
            "+, doctor, //patient\n-, doctor, //patient/ssn\n+, secretary, //patient/name",
        )
        .unwrap()
    }

    fn setup() -> (TrustedServer, Arc<DspService>, sdds_xml::Document) {
        let server = TrustedServer::new(b"hospital-2005", rules());
        let doc = generator::hospital(
            &HospitalProfile {
                patients: 3,
                ..HospitalProfile::default()
            },
            &GeneratorConfig::default(),
        );
        let secure = SecureDocumentBuilder::new("folder", server.document_key()).build(&doc);
        let service = DspService::new(1);
        service.put_document(secure);
        for subject in ["doctor", "secretary"] {
            service
                .put_rules(
                    "folder",
                    subject,
                    &server.protected_rules_for(&Subject::new(subject)),
                )
                .unwrap();
        }
        (server, Arc::new(service), doc)
    }

    fn keyed_terminal(server: &TrustedServer, pki: &SimulatedPki, subject: &str) -> Terminal {
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
    fn full_pull_flow_matches_the_oracle() {
        let (server, service, doc) = setup();
        let pki = SimulatedPki::new(b"hospital-2005");
        let terminal = keyed_terminal(&server, &pki, "doctor");
        let mut session = terminal.connect_shared(Arc::clone(&service), "folder");
        let view = session.run().unwrap().to_owned();
        let expected = authorized_view_oracle(
            &doc,
            &rules(),
            &Subject::new("doctor"),
            None,
            &AccessPolicy::paper(),
        );
        assert_eq!(view, writer::to_string(&expected));
        assert!(view.contains("<patient"));
        assert!(!view.contains("<ssn>"));
        // Both sides accounted the traffic.
        assert!(service.stats().chunks_served > 0);
        let terminal = session.terminal();
        assert!(terminal.card_ledger().channel.apdu_exchanges > 5);
        let latency = terminal.latency(&CostModel::egate());
        assert!(latency.total().as_secs_f64() > 0.0);
        // The card reports the peak of the same SOE the host runs in process.
        let subject = Subject::new("doctor");
        let profile = CardProfile::modern_secure_element();
        let host = HostSoe::new(
            subject.clone(),
            &pki.card_transport_key(&subject),
            &server.provision_document_key(&subject, DEFAULT_DOC_KEY_ID),
            &server.provision_rules_key(&subject, RULES_KEY_ID),
            profile,
            None,
            false,
        )
        .unwrap();
        let mut pull = PullSession::new(host, service, "folder".into());
        while pull.advance(usize::MAX).unwrap() == StepOutcome::Pending {}
        let peak = pull.output().unwrap().peak_ram_bytes;
        assert!(peak > 0 && peak <= profile.ram_bytes);
        assert_eq!(terminal.soe_peak_ram(), peak);
    }

    #[test]
    fn the_batched_channel_meters_every_reply_of_a_pull() {
        let (server, service, _) = setup();
        let pki = SimulatedPki::new(b"hospital-2005");
        let mut session =
            keyed_terminal(&server, &pki, "doctor").connect_shared(Arc::clone(&service), "folder");
        let view = session.run().unwrap().len();
        // Status words for the rules and the header, the chunk index and its
        // status per request, the view with its status, then CLOSE_SESSION's
        // 20 bytes of statistics with theirs.
        let chunks = service.stats().chunks_served;
        let expected = 2 + 2 + 6 * chunks + (view + 2) + (20 + 2);
        assert_eq!(session.batched_channel().meter().bytes_from_card, expected);
    }

    #[test]
    fn query_through_the_proxy() {
        let (server, service, _) = setup();
        let pki = SimulatedPki::new(b"hospital-2005");
        let mut terminal = keyed_terminal(&server, &pki, "doctor");
        terminal.set_query("//patient/name").unwrap();
        let view = terminal
            .connect_shared(service, "folder")
            .run_to_completion()
            .unwrap();
        assert!(view.contains("<name>"));
        assert!(!view.contains("<report>"));
    }

    #[test]
    fn unprovisioned_terminal_cannot_evaluate() {
        let (_, service, _) = setup();
        let pki = SimulatedPki::new(b"hospital-2005");
        let subject = Subject::new("doctor");
        // No keys installed at all: the card refuses the rules it is offered.
        let terminal = Terminal::issue_card(
            "doctor",
            pki.card_transport_key(&subject),
            CardProfile::modern_secure_element(),
        );
        let result = terminal
            .connect_shared(service, "folder")
            .run_to_completion();
        assert!(result.is_err());
        assert!(format!("{}", result.unwrap_err()).contains("refused"));
    }

    #[test]
    fn wrong_community_card_cannot_open_the_document() {
        let (server, service, _) = setup();
        // A card personalised for another community: the provisioning messages
        // of this community do not verify on it.
        let foreign_pki = SimulatedPki::new(b"another-community");
        let subject = Subject::new("doctor");
        let mut terminal = Terminal::issue_card(
            "doctor",
            foreign_pki.card_transport_key(&subject),
            CardProfile::modern_secure_element(),
        );
        assert!(terminal
            .install_key(&server.provision_document_key(&subject, DEFAULT_DOC_KEY_ID))
            .is_err());
        assert!(terminal
            .install_key(&server.provision_rules_key(&subject, RULES_KEY_ID))
            .is_err());
        assert!(terminal
            .install_rules(&server.protected_rules_for(&subject).encode())
            .is_err());
        assert!(terminal
            .connect_shared(service, "folder")
            .run_to_completion()
            .is_err());
    }

    #[test]
    fn secretary_card_view_skips_part_of_the_folder() {
        let (server, service, doc) = setup();
        // Chunks small enough for the secretary's skips to span whole ones.
        let secure = SecureDocumentBuilder::new("annex", server.document_key())
            .chunk_size(128)
            .build(&doc);
        let subject = Subject::new("secretary");
        let blob = server.protected_rules_for(&subject);
        service.put_document(secure.clone());
        service.put_rules("annex", "secretary", &blob).unwrap();
        service.reset_stats();
        let pki = SimulatedPki::new(b"hospital-2005");
        let view = keyed_terminal(&server, &pki, "secretary")
            .connect_shared(Arc::clone(&service), "annex")
            .run_to_completion()
            .unwrap();
        let expected =
            authorized_view_oracle(&doc, &rules(), &subject, None, &AccessPolicy::paper());
        assert_eq!(view, writer::to_string(&expected));
        // The DSP served less than the header, the rule blob and every chunk
        // with its tag.
        let folder = secure.header.encode().len()
            + blob.encode().len()
            + (0..secure.chunk_count())
                .map(|i| secure.chunk(i).unwrap().len() + TAG_LEN)
                .sum::<usize>();
        let served = service.stats().bytes_served;
        assert!(served < folder, "served {served} of {folder} bytes");
    }
}
