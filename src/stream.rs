//! Incremental pull sessions: [`ViewStream`], an iterator over authorized
//! events.
//!
//! [`crate::Client::authorized_view`] collects a whole view into one
//! `String`, which is convenient but forces the application to wait for the
//! last chunk before seeing the first element. [`ViewStream`] is the same
//! session cut the other way: an `Iterator` over the authorized
//! [`Event`]s, pulling encrypted chunks from the shared
//! [`crate::DspService`] **on demand of the SOE** — so subtrees the skip
//! index proves forbidden or irrelevant are never transferred, and the
//! application's memory stays bounded by what it keeps, not by the
//! document.

use sdds_core::engine::SessionStats;
use sdds_proxy::{HostSoe, PullSession};
use sdds_xml::{writer, Event};

use crate::error::SddsError;

/// An incremental pull session: iterates over the authorized events of one
/// document, fetching chunks from the service as the SOE requests them.
///
/// The stream is a [`PullSession`] over the in-process [`HostSoe`], stepped
/// one request at a time: the same pinned, salted step loop a
/// [`crate::CardSession`] runs. It **pins the upload revision** it saw at
/// open: every chunk fetch carries it, so a republish between two `next()`
/// calls yields the typed [`SddsError::StaleRevision`] — never a chunk of
/// the new upload failing its tag check against the old header.
///
/// Yields `Result<Event, SddsError>`; after the first error the stream is
/// poisoned and yields nothing further. Once exhausted, the session
/// statistics (transfer, decryption, skipping, peak RAM) are available
/// through [`ViewStream::stats`].
///
/// The session's `events_delivered` counter is brought up to date once per
/// chunk, not once per event: before each step, when the stream ends or
/// fails, and when it is dropped.
#[derive(Debug)]
pub struct ViewStream {
    session: PullSession<HostSoe>,
    /// Events yielded since the counter was last brought up to date.
    uncounted: u64,
}

impl ViewStream {
    /// Runs the session's opening step (header pin, rule blob, SOE open), so
    /// an unknown document or an unprovisioned subject fails here.
    pub(crate) fn open(mut session: PullSession<HostSoe>) -> Result<Self, SddsError> {
        session.advance(1)?;
        Ok(ViewStream {
            session,
            uncounted: 0,
        })
    }

    /// Document this stream pulls.
    pub fn doc_id(&self) -> &str {
        self.session.doc_id()
    }

    /// Upload revision this stream pinned at open.
    pub fn revision(&self) -> u64 {
        let pinned = self.session.revision();
        // lint: infallible — `open` pinned a revision or failed.
        pinned.expect("an open stream pinned a revision")
    }

    /// Route salt this stream carries on every fetch (distinct per stream
    /// on one service, so replicated documents spread their load).
    pub fn route_salt(&self) -> u64 {
        self.session.route_salt()
    }

    /// Final session statistics, available once the stream is exhausted.
    pub fn stats(&self) -> Option<&SessionStats> {
        self.session.output()
    }

    /// Adds the events yielded since the last flush to the session's
    /// `events_delivered` counter.
    fn count_delivered(&mut self) {
        if self.uncounted > 0 {
            self.session.obs().add_events_delivered(self.uncounted);
            self.uncounted = 0;
        }
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
}

impl Iterator for ViewStream {
    type Item = Result<Event, SddsError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(event) = self.session.transport_mut().pop_event() {
                self.uncounted += 1;
                return Some(Ok(event));
            }
            self.count_delivered();
            // Stream over (normally or poisoned): nothing further to yield.
            if self.session.output().is_some() || self.session.error().is_some() {
                return None;
            }
            if let Err(e) = self.session.advance(1) {
                return Some(Err(e.into()));
            }
        }
    }
}

impl Drop for ViewStream {
    fn drop(&mut self) {
        self.count_delivered();
    }
}

#[cfg(test)]
mod tests {
    use crate::client::{Client, Publisher, PublisherBuilder};
    use sdds_core::rule::RuleSet;
    use sdds_sync::sync::Arc;
    use sdds_xml::generator::{self, GeneratorConfig, HospitalProfile};

    fn publisher() -> Publisher {
        publish(Publisher::builder(b"hospital-2005"))
    }

    fn publish(builder: PublisherBuilder) -> Publisher {
        let rules = RuleSet::parse(
            "+, doctor, //patient\n-, doctor, //patient/ssn\n+, secretary, //patient/name",
        )
        .unwrap();
        // Small chunks so the secretary's skips span whole chunks (the E2
        // granularity effect), which the stats assertions below rely on.
        let publisher = builder.rules(rules).chunk_size(128).build().unwrap();
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

    #[test]
    fn streams_draw_distinct_salts_and_spread_replica_serving() {
        let publisher = publish(Publisher::builder(b"hospital-2005").shards(8).replicate(4));
        let service = publisher.service();
        let copies = service.replica_shards("folders");
        assert_eq!(copies.len(), 4);
        let client = Client::builder("doctor").provision(&publisher).unwrap();
        service.reset_stats();

        let streams: Vec<_> = (0..16)
            .map(|_| client.open_stream("folders").unwrap())
            .collect();
        let mut salts: Vec<u64> = streams.iter().map(|s| s.route_salt()).collect();
        salts.sort_unstable();
        salts.dedup();
        assert_eq!(salts.len(), 16, "salts must be distinct per stream");
        for stream in streams {
            stream.collect_view().unwrap();
        }

        // Header requests = requests − chunks − rule blobs, per shard. With
        // unsalted routing all 16 header fetches hit the home copy and all
        // 16 rule fetches of the one subject hit the same copy.
        let stats = service.shard_stats();
        let serving = |served: &dyn Fn(&sdds_dsp::ServerStats) -> bool| {
            copies
                .iter()
                .filter(|&&shard| served(&stats[shard]))
                .count()
        };
        let header_shards = serving(&|s| s.requests > s.chunks_served + s.rule_blobs_served);
        let rule_shards = serving(&|s| s.rule_blobs_served > 0);
        assert!(
            header_shards > 1,
            "identical header requests must spread over replicas, got {header_shards} shard(s)"
        );
        assert!(
            rule_shards > 1,
            "one subject's rule fetches must spread over replicas, got {rule_shards} shard(s)"
        );
    }
}
