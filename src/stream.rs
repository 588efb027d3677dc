//! Incremental pull sessions: [`ViewStream`], an iterator over authorized
//! events.
//!
//! [`crate::Client::authorized_view`] collects a whole view into one
//! `String`, which is convenient but forces the application to wait for the
//! last chunk before seeing the first element. [`ViewStream`] is the same
//! session cut the other way: an `Iterator` over the authorized
//! [`Event`]s, pulling encrypted chunks from the shared [`DspService`] **on
//! demand of the SOE** — so subtrees the skip index proves forbidden or
//! irrelevant are never transferred, and the application's memory stays
//! bounded by what it keeps, not by the document.

use sdds_sync::sync::Arc;

use sdds_core::engine::{SecureEvaluationSession, SessionRequest, SessionStats};
use sdds_core::secdoc::ChunkTag;
use sdds_dsp::{DspService, SessionObs};
use sdds_xml::{writer, Event};

use crate::error::SddsError;

/// An incremental pull session: iterates over the authorized events of one
/// document, fetching chunks from the service as the SOE requests them.
///
/// The stream **pins the upload revision** it saw at open: every chunk fetch
/// carries it, so a republish between two `next()` calls yields the typed
/// [`SddsError::StaleRevision`] — never a chunk of the new upload failing
/// its tag check against the old header.
///
/// Yields `Result<Event, SddsError>`; after the first error the stream is
/// poisoned and yields nothing further. Once exhausted, the session
/// statistics (transfer, decryption, skipping, peak RAM) are available
/// through [`ViewStream::stats`].
pub struct ViewStream {
    service: Arc<DspService>,
    doc_id: String,
    /// Upload revision pinned when the stream was opened.
    revision: u64,
    /// `None` once the stream ended — normally (stats recorded) or on error
    /// (the error was yielded, the stream is poisoned).
    session: Option<SecureEvaluationSession>,
    /// The events of the last served request, as the session handed them
    /// over; yielded from the front.
    buffer: std::vec::IntoIter<Event>,
    stats: Option<SessionStats>,
    /// Session telemetry cells shared with the service's registry (chunk
    /// round-trips, wire bytes, events yielded to the application).
    obs: SessionObs,
}

impl std::fmt::Debug for ViewStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ViewStream")
            .field("doc_id", &self.doc_id)
            .field("buffered", &self.buffer.len())
            .field("done", &self.session.is_none())
            .finish_non_exhaustive()
    }
}

impl ViewStream {
    pub(crate) fn new(
        service: Arc<DspService>,
        doc_id: String,
        revision: u64,
        session: SecureEvaluationSession,
    ) -> Self {
        let obs = service.obs().session();
        ViewStream {
            service,
            doc_id,
            revision,
            session: Some(session),
            buffer: Vec::new().into_iter(),
            stats: None,
            obs,
        }
    }

    /// Document this stream pulls.
    pub fn doc_id(&self) -> &str {
        &self.doc_id
    }

    /// Upload revision this stream pinned at open.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Final session statistics, available once the stream is exhausted.
    pub fn stats(&self) -> Option<&SessionStats> {
        self.stats.as_ref()
    }

    /// Drains the stream and renders the remaining authorized events as XML
    /// text — the same bytes [`crate::Client::authorized_view`] returns for
    /// an untouched stream.
    pub fn collect_view(mut self) -> Result<String, SddsError> {
        let mut events: Vec<Event> = Vec::new();
        for event in &mut self {
            events.push(event?);
        }
        Ok(writer::to_string(&events))
    }

    /// Serves exactly one SOE request (one chunk fetch + supply). `Ok(true)`
    /// when the document is fully processed.
    fn advance(&mut self) -> Result<bool, SddsError> {
        let session: &mut SecureEvaluationSession = self
            .session
            .as_mut()
            // lint: infallible — `advance` is only called while `next` holds
            // an open session.
            .expect("advance requires a session");
        match session.next_request() {
            SessionRequest::Done => {
                let ended: SecureEvaluationSession = self
                    .session
                    .take()
                    // lint: infallible — checked as `Some` at the top of
                    // `advance`.
                    .expect("session present");
                let (rest, stats) = ended.finish()?;
                self.buffer = rest.into_iter();
                self.stats = Some(stats);
                Ok(true)
            }
            SessionRequest::NeedChunk(index) => {
                let served = self
                    .service
                    .fetch_chunk_pinned(&self.doc_id, index, self.revision)?;
                let chunk: Arc<[u8]> = served.0;
                let tag: ChunkTag = served.1;
                session.supply_chunk(index, &chunk, &tag)?;
                let produced = session.take_output();
                // Account the transfer like the terminal-side channel would.
                let wire = chunk.len() + tag.encoded_len();
                let produced_len: usize = produced.iter().map(Event::serialized_len).sum();
                session.record_exchange(wire, produced_len);
                self.obs.record_exchange(wire, produced_len);
                self.buffer = produced.into_iter();
                Ok(false)
            }
        }
    }
}

impl Iterator for ViewStream {
    type Item = Result<Event, SddsError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            // Qualified: sdds-lint resolves a bare `.next()` by name, to the
            // workspace's own `next` methods.
            if let Some(event) = Iterator::next(&mut self.buffer) {
                self.obs.event_delivered();
                return Some(Ok(event));
            }
            // Stream over (normally or poisoned): nothing further to yield.
            self.session.as_ref()?;
            match self.advance() {
                Ok(_) => continue,
                Err(e) => {
                    self.session = None;
                    return Some(Err(e));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{Client, Publisher};
    use sdds_core::rule::RuleSet;
    use sdds_xml::generator::{self, GeneratorConfig, HospitalProfile};

    fn publisher() -> Publisher {
        let rules = RuleSet::parse(
            "+, doctor, //patient\n-, doctor, //patient/ssn\n+, secretary, //patient/name",
        )
        .unwrap();
        // Small chunks so the secretary's skips span whole chunks (the E2
        // granularity effect), which the stats assertions below rely on.
        let publisher = Publisher::builder(b"hospital-2005")
            .rules(rules)
            .chunk_size(128)
            .build()
            .unwrap();
        let doc = generator::hospital(
            &HospitalProfile {
                patients: 4,
                ..HospitalProfile::default()
            },
            &GeneratorConfig::default(),
        );
        publisher.publish("folders", &doc).unwrap();
        publisher
    }

    #[test]
    fn stream_is_byte_identical_to_the_card_path() {
        let publisher = publisher();
        let client = Client::builder("doctor").provision(&publisher).unwrap();
        let card_view = client.authorized_view("folders").unwrap();
        let streamed = client
            .open_stream("folders")
            .unwrap()
            .collect_view()
            .unwrap();
        assert_eq!(streamed, card_view);
        assert!(streamed.contains("<patient"));
    }

    #[test]
    fn events_arrive_incrementally_with_stats_at_the_end() {
        let publisher = publisher();
        let client = Client::builder("secretary").provision(&publisher).unwrap();
        let mut stream = client.open_stream("folders").unwrap();
        assert_eq!(stream.doc_id(), "folders");
        assert!(stream.stats().is_none(), "stats only exist once exhausted");
        let mut events = 0usize;
        for event in &mut stream {
            event.unwrap();
            events += 1;
        }
        assert!(events > 0);
        let stats = stream.stats().expect("exhausted stream has stats");
        assert!(stats.ledger.bytes_decrypted > 0);
        assert!(stats.ledger.channel.total_bytes() > 0);
        // The restrictive secretary skips most of the folder.
        assert!(stats.ledger.bytes_skipped > 0);
        assert!(stats.chunks_skipped > 0);
    }

    #[test]
    fn unknown_documents_poison_the_stream_with_one_error() {
        let publisher = publisher();
        let client = Client::builder("doctor").provision(&publisher).unwrap();
        assert!(client.open_stream("nope").is_err());
        // A document removed between open and iteration surfaces as one Err
        // item, then the stream ends. (Simulated here with a bad subject.)
        let stranger = Client::builder("doctor")
            .service(Arc::clone(publisher.service()))
            .provision(&Publisher::new(b"other-community", RuleSet::new()))
            .unwrap();
        assert!(stranger.open_stream("folders").is_err());
    }
}
