//! The SOE run in process: [`HostSoe`], the second [`SoeTransport`].
//!
//! The card applet and the host SOE run the same engine
//! ([`SecureEvaluationSession`]) with the same keys, the same protected
//! rules (fetched from the DSP and authenticated as the card does) and the
//! same RAM budget. The host skips the APDU framing and hands each request's
//! authorized events to the application as they decrypt, instead of one
//! final view. The facade's `ViewStream` drives it through a
//! [`crate::PullSession`].

use std::collections::VecDeque;

use sdds_card::CardProfile;
use sdds_core::conflict::AccessPolicy;
use sdds_core::engine::{EngineConfig, SecureEvaluationSession, SessionRequest, SessionStats};
use sdds_core::evaluator::EvaluatorConfig;
use sdds_core::query::Query;
use sdds_core::rule::Subject;
use sdds_core::secdoc::{ChunkTag, DocumentHeader};
use sdds_core::session::{KeyProvisioning, ProtectedRules};
use sdds_core::CoreError;
use sdds_crypto::SecretKey;
use sdds_dsp::SessionObs;
use sdds_xml::Event;

use crate::proxy::ProxyError;
use crate::session::SoeTransport;

/// An in-process SOE for one pull: the card's keys, unwrapped, and its
/// evaluation settings; after open, the evaluation session and the events
/// its last request released.
pub struct HostSoe {
    subject: Subject,
    doc_key: SecretKey,
    rules_key: SecretKey,
    ram_budget: usize,
    query: Option<Query>,
    open_policy: bool,
    session: Option<SecureEvaluationSession>,
    /// Authorized events not yet taken, yielded from the front. Once
    /// drained, its allocation goes back to the session for the next
    /// chunk's events.
    events: VecDeque<Event>,
}

impl std::fmt::Debug for HostSoe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HostSoe")
            .field("subject", &self.subject)
            .field("buffered", &self.events.len())
            .finish_non_exhaustive()
    }
}

impl HostSoe {
    /// Unwraps the document and rule keys provisioned for a card holding
    /// `transport_key`, for a session of `subject` under the RAM budget of
    /// `profile`, optionally intersected with `query` and under the
    /// open-world policy.
    pub fn new(
        subject: Subject,
        transport_key: &SecretKey,
        doc_key: &KeyProvisioning,
        rules_key: &KeyProvisioning,
        profile: CardProfile,
        query: Option<Query>,
        open_policy: bool,
    ) -> Result<Self, ProxyError> {
        Ok(HostSoe {
            subject,
            doc_key: doc_key.unwrap_key(transport_key)?,
            rules_key: rules_key.unwrap_key(transport_key)?,
            ram_budget: profile.ram_bytes,
            query,
            open_policy,
            session: None,
            events: VecDeque::new(),
        })
    }

    /// Takes the next authorized event the SOE released, if any.
    pub fn pop_event(&mut self) -> Option<Event> {
        self.events.pop_front()
    }

    fn session(&mut self) -> Result<&mut SecureEvaluationSession, CoreError> {
        self.session.as_mut().ok_or_else(not_open)
    }
}

fn not_open() -> CoreError {
    CoreError::BadState {
        message: "no open host SOE session".into(),
    }
}

impl SoeTransport for HostSoe {
    type Output = SessionStats;

    fn subject(&self) -> &Subject {
        &self.subject
    }

    fn open(
        &mut self,
        header: DocumentHeader,
        rules: &[u8],
        _obs: &SessionObs,
    ) -> Result<(), ProxyError> {
        let rules = ProtectedRules::decode(rules)?.open(&self.rules_key, None)?;
        let mut evaluator = EvaluatorConfig::new(rules, self.subject.name());
        if self.open_policy {
            evaluator = evaluator.with_policy(AccessPolicy::open());
        }
        if let Some(query) = self.query.take() {
            evaluator = evaluator.with_query(query);
        }
        let config = EngineConfig::new(evaluator).with_ram_budget(self.ram_budget);
        self.session = Some(SecureEvaluationSession::open(
            header,
            self.doc_key.clone(),
            config,
        )?);
        Ok(())
    }

    fn next_request(&mut self) -> Result<Option<u32>, ProxyError> {
        Ok(match self.session()?.next_request() {
            SessionRequest::NeedChunk(index) => Some(index),
            SessionRequest::Done => None,
        })
    }

    fn push_chunk(
        &mut self,
        index: u32,
        chunk: &[u8],
        tag: &ChunkTag,
        obs: &SessionObs,
    ) -> Result<(), ProxyError> {
        // `events` is drained here; converting an empty deque to a `Vec`
        // and back keeps its allocation without moving a byte.
        let mut produced: Vec<Event> = std::mem::take(&mut self.events).into();
        let exchanged = self
            .session()?
            .exchange_chunk(index, chunk, tag, &mut produced);
        self.events = produced.into();
        let (wire, produced_bytes) = exchanged?;
        obs.record_exchange(wire, produced_bytes);
        Ok(())
    }

    fn finish(&mut self, _obs: &SessionObs) -> Result<SessionStats, ProxyError> {
        let (rest, stats) = self.session.take().ok_or_else(not_open)?.finish()?;
        self.events = rest.into();
        Ok(stats)
    }
}
