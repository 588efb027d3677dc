//! The SOE run in process: [`HostSoe`], the second [`SoeTransport`].
//!
//! The card applet and the host SOE drive one [`Soe`]: the same keys, the
//! same protected rules (fetched from the DSP and authenticated as the card
//! does) and the same RAM budget. The host skips the APDU framing and hands
//! each request's authorized events to the application as they decrypt,
//! instead of one final view. The facade's `ViewStream` drives it through a
//! [`crate::PullSession`].

use std::collections::VecDeque;

use sdds_card::CardProfile;
use sdds_core::conflict::AccessPolicy;
use sdds_core::engine::{SessionRequest, SessionStats, Soe};
use sdds_core::query::Query;
use sdds_core::rule::Subject;
use sdds_core::secdoc::{ChunkTag, DocumentHeader};
use sdds_core::session::KeyProvisioning;
use sdds_crypto::SecretKey;
use sdds_dsp::SessionObs;
use sdds_xml::Event;

use crate::proxy::ProxyError;
use crate::session::SoeTransport;

/// An in-process SOE for one pull, and the events its last request released.
pub struct HostSoe {
    soe: Soe,
    /// Secure RAM of the card profile the SOE stands in for.
    ram_budget: usize,
    /// Authorized events not yet taken, yielded from the front. Once
    /// drained, its allocation goes back to the session for the next
    /// chunk's events.
    events: VecDeque<Event>,
}

impl std::fmt::Debug for HostSoe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HostSoe")
            .field("soe", &self.soe)
            .field("buffered", &self.events.len())
            .finish()
    }
}

impl HostSoe {
    /// Installs the document and rule keys provisioned for a card holding
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
        let mut soe = Soe::new(subject, transport_key.clone());
        soe.install_key(doc_key)?;
        soe.install_key(rules_key)?;
        if let Some(query) = query {
            soe.set_query(query);
        }
        if open_policy {
            soe.set_policy(AccessPolicy::open());
        }
        Ok(HostSoe {
            soe,
            ram_budget: profile.ram_bytes,
            events: VecDeque::new(),
        })
    }

    /// Takes the next authorized event the SOE released, if any.
    pub fn pop_event(&mut self) -> Option<Event> {
        self.events.pop_front()
    }
}

impl SoeTransport for HostSoe {
    type Output = SessionStats;

    fn subject(&self) -> &Subject {
        self.soe.subject()
    }

    fn open(
        &mut self,
        header: DocumentHeader,
        rules: &[u8],
        _obs: &SessionObs,
    ) -> Result<(), ProxyError> {
        let rules = self.soe.open_rules(rules)?;
        self.soe.install_rules(rules);
        Ok(self.soe.open(header, self.ram_budget)?)
    }

    fn next_request(&mut self) -> Result<Option<u32>, ProxyError> {
        Ok(match self.soe.next_request()? {
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
        let exchanged = self.soe.exchange_chunk(index, chunk, tag, &mut produced);
        self.events = produced.into();
        let (wire, produced_bytes) = exchanged?;
        obs.record_exchange(wire, produced_bytes);
        Ok(())
    }

    fn finish(&mut self, _obs: &SessionObs) -> Result<SessionStats, ProxyError> {
        let (rest, stats) = self.soe.finish()?;
        self.events = rest.into();
        Ok(stats)
    }
}
