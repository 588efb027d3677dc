//! The terminal proxy.
//!
//! "A terminal connected to the smart card [...] contains a proxy allowing the
//! applications to communicate easily with the different elements of the
//! architecture through an XML API independent of the underlying protocols
//! (JDBC, APDU)" (§3). [`Terminal`] is that proxy: it speaks the DSP request
//! API on one side and APDUs on the other, and never sees any key or
//! plaintext beyond what the card delivers. Pull-mode evaluation goes through
//! [`Terminal::connect_shared`] and the stepped [`crate::CardSession`]
//! against the shared `DspService` (the only serving path of the workspace);
//! push-mode items are evaluated in place with [`Terminal::evaluate_local`].
//! Applications normally reach this type through the top-level `sdds::Client`
//! facade rather than directly.

use sdds_card::apdu::{fragments, ins, Apdu};
use sdds_card::{CardProfile, CardRuntime, CostLedger, CostModel, LatencyBreakdown};
use sdds_core::engine::{AccessControlApplet, SessionStats, PUSH_CHUNK_PREFIX};
use sdds_core::rule::Subject;
use sdds_core::secdoc::{ChunkTag, SecureDocument};
use sdds_core::session::{KeyProvisioning, TrustedServer};
use sdds_core::CoreError;
use sdds_crypto::SecretKey;

/// Errors surfaced by the proxy to applications.
#[derive(Debug)]
#[non_exhaustive]
pub enum ProxyError {
    /// The card refused a command or a budget was exceeded.
    Card(sdds_card::CardError),
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

impl From<sdds_card::CardError> for ProxyError {
    fn from(e: sdds_card::CardError) -> Self {
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
        }
    }

    /// Selects the open-world policy for subsequent sessions (dissemination
    /// scenarios where only prohibitions filter the stream).
    pub fn set_open_policy(&mut self, open: bool) {
        self.open_policy = open;
    }

    /// Whether sessions open with the open-world policy.
    pub(crate) fn open_policy(&self) -> bool {
        self.open_policy
    }

    /// The card runtime (used by the stepped shared-DSP session).
    pub(crate) fn runtime_mut(&mut self) -> &mut CardRuntime<AccessControlApplet> {
        &mut self.runtime
    }

    /// Cost model of the hosted card's hardware profile.
    pub fn cost_model(&self) -> CostModel {
        self.runtime.card().profile().cost
    }

    /// The subject this terminal's card belongs to.
    pub fn subject(&self) -> &Subject {
        &self.subject
    }

    /// Disables the skip index on the card (baseline runs).
    pub fn set_use_skip_index(&mut self, enabled: bool) {
        self.runtime.applet_mut().set_use_skip_index(enabled);
    }

    /// Installs a wrapped key on the card.
    pub fn install_key(&mut self, provisioning: &KeyProvisioning) -> Result<(), ProxyError> {
        self.runtime
            .exchange_expect_ok(&Apdu::new(ins::PUT_KEY, 0, 0, provisioning.encode())?)?;
        Ok(())
    }

    /// Installs (or refreshes) the protected rules of this subject, fetched as
    /// an opaque blob (typically from the DSP).
    pub fn install_rules(&mut self, protected_blob: &[u8]) -> Result<(), ProxyError> {
        for (frag, more) in fragments(&[protected_blob]) {
            self.runtime.exchange_expect_ok(&Apdu::with_data(
                ins::PUT_RULES,
                u8::from(more),
                0,
                frag,
            ))?;
        }
        Ok(())
    }

    /// Registers a query for the next evaluation sessions.
    pub fn set_query(&mut self, query: &str) -> Result<(), ProxyError> {
        self.runtime
            .exchange_expect_ok(&Apdu::new(ins::PUT_QUERY, 0, 0, query)?)?;
        Ok(())
    }

    /// Convenience provisioning path against a [`TrustedServer`]: installs the
    /// document key, the rules key and the subject's protected rules.
    pub fn provision_from(&mut self, server: &TrustedServer) -> Result<(), ProxyError> {
        use sdds_core::engine::{DEFAULT_DOC_KEY_ID, RULES_KEY_ID};
        let subject = self.subject.clone();
        self.install_key(&server.provision_document_key(&subject, DEFAULT_DOC_KEY_ID))?;
        self.install_key(&server.provision_rules_key(&subject, RULES_KEY_ID))?;
        self.install_rules(&server.protected_rules_for(&subject).encode())?;
        Ok(())
    }

    /// Evaluates a locally available secure document (push-mode: the item was
    /// broadcast to the terminal, e.g. by a dissemination channel).
    pub fn evaluate_local(&mut self, document: &SecureDocument) -> Result<String, ProxyError> {
        self.runtime.exchange_expect_ok(&Apdu::new(
            ins::OPEN_SESSION,
            0,
            u8::from(self.open_policy),
            document.header.encode(),
        )?)?;
        loop {
            let next = self
                .runtime
                .exchange_expect_ok(&Apdu::simple(ins::NEXT_REQUEST, 0, 0))?;
            if next.len() != 4 {
                return Err(ProxyError::Protocol("bad NEXT_REQUEST response".into()));
            }
            // lint: infallible — the length is checked to be exactly 4 above.
            let index = u32::from_le_bytes(next[..4].try_into().expect("4 bytes"));
            if index == u32::MAX {
                break;
            }
            let (chunk, tag) = document
                .sealed_chunk(index as usize)
                .ok_or_else(|| ProxyError::Protocol(format!("chunk {index} out of range")))?;
            self.push_chunk(index, &chunk, &tag)?;
        }
        let view = self.collect_output()?;
        self.runtime
            .exchange_expect_ok(&Apdu::simple(ins::CLOSE_SESSION, 0, 0))?;
        Ok(view)
    }

    /// Pushes one chunk with its tag to the card; returns the payload size
    /// shipped, which the batched-channel accounting of the shared session
    /// queues per logical request.
    pub(crate) fn push_chunk(
        &mut self,
        index: u32,
        chunk: &[u8],
        tag: &ChunkTag,
    ) -> Result<usize, ProxyError> {
        // Payload: chunk index (4), tag, ciphertext — cut into APDU
        // fragments as it is framed, never assembled in one buffer.
        for (frag, more) in fragments(&[&index.to_le_bytes(), tag.as_bytes(), chunk]) {
            self.runtime.exchange_expect_ok(&Apdu::with_data(
                ins::PUSH_CHUNK,
                u8::from(more),
                0,
                frag,
            ))?;
        }
        Ok(PUSH_CHUNK_PREFIX + chunk.len())
    }

    pub(crate) fn collect_output(&mut self) -> Result<String, ProxyError> {
        let mut bytes = Vec::new();
        loop {
            let part = self
                .runtime
                .exchange_expect_ok(&Apdu::simple(ins::GET_OUTPUT, 0, 0))?;
            if part.is_empty() {
                break;
            }
            bytes.extend_from_slice(&part);
        }
        String::from_utf8(bytes).map_err(|_| ProxyError::Protocol("non UTF-8 output".into()))
    }

    /// Card-side cost counters (channel bytes, APDU count, crypto work).
    pub fn card_ledger(&self) -> &CostLedger {
        self.runtime.card().ledger_ref()
    }

    /// Statistics of the card's current or last session, if any.
    pub fn session_stats(&self) -> Option<&SessionStats> {
        self.runtime.applet().session_stats()
    }

    /// Simulated latency of everything exchanged so far under `model`.
    pub fn latency(&self, model: &CostModel) -> LatencyBreakdown {
        self.runtime.card().ledger_ref().breakdown(model)
    }

    /// Peak secure RAM used on the card so far.
    pub fn card_peak_ram(&self) -> usize {
        self.runtime.card().ram_ref().peak()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pki::SimulatedPki;
    use sdds_core::baseline::authorized_view_oracle;
    use sdds_core::conflict::AccessPolicy;
    use sdds_core::rule::RuleSet;
    use sdds_core::secdoc::SecureDocumentBuilder;
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
        use sdds_core::engine::{DEFAULT_DOC_KEY_ID, RULES_KEY_ID};
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
        assert!(terminal.card_peak_ram() <= CardProfile::modern_secure_element().ram_bytes);
        let latency = terminal.latency(&CostModel::egate());
        assert!(latency.total().as_secs_f64() > 0.0);
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
        assert!(terminal.provision_from(&server).is_err());
        assert!(terminal
            .connect_shared(service, "folder")
            .run_to_completion()
            .is_err());
    }

    #[test]
    fn skip_index_toggle_changes_cost_not_result() {
        let (server, service, _) = setup();
        let pki = SimulatedPki::new(b"hospital-2005");
        let run = |use_index: bool| {
            let mut terminal = keyed_terminal(&server, &pki, "secretary");
            terminal.set_use_skip_index(use_index);
            service.reset_stats();
            let view = terminal
                .connect_shared(Arc::clone(&service), "folder")
                .run_to_completion()
                .unwrap();
            (view, service.stats().bytes_served)
        };
        let (with_view, with_bytes) = run(true);
        let (without_view, without_bytes) = run(false);
        assert_eq!(with_view, without_view);
        assert!(with_bytes <= without_bytes);
    }
}
