//! The concurrent multi-client DSP service layer (experiment E10).
//!
//! A single-tenant [`crate::DspStore`] serves exactly one proxy at a time:
//! every request serializes on one store behind `&mut self`. This module turns
//! the DSP into a service that sustains many simultaneous card sessions — the
//! "heavy traffic" regime of the paper's architecture (§2), where one
//! untrusted server feeds a fleet of smart-card clients:
//!
//! ```text
//!  publishers ──put_document──▶ ┌────────────── DspService ──────────────┐
//!                               │ ShardedStore: shard = FNV(doc id) % N  │
//!                               │  ┌shard 0┐ ┌shard 1┐      ┌shard N-1┐  │
//!                               │  │RwLock │ │RwLock │ ...  │ RwLock  │  │
//!                               │  │store  │ │store  │      │ store   │  │
//!                               │  └───────┘ └───────┘      └─────────┘  │
//!                               │  dsp.serve.* counters, one set a shard │
//!                               └──────────────────▲─────────────────────┘
//!                                fetch_header/chunk│/rules   (&self, Sync)
//!                    ┌─────── SessionScheduler ────┴──────┐
//!                    │ W workers, one FIFO each; K cards  │
//!                    │ stepped `quantum` requests a turn, │
//!                    │ requeued at the tail, idle steal   │
//!                    └──▲──────────▲──────────▲───────────┘
//!                  APDUs│     APDUs│     APDUs│  (BatchedChannel coalesces
//!                  ┌────┴───┐ ┌────┴───┐ ┌────┴───┐  each quantum's pushes)
//!                  │ card 0 │ │ card 1 │ │ card K │
//!                  └────────┘ └────────┘ └────────┘
//! ```
//!
//! Mapping to the paper's evaluation:
//!
//! * **shard count** — the server-side concurrency of E10 (aggregate
//!   throughput at 1 vs 16 shards); it has no analogue in the paper, which
//!   measured a single card, but is what "millions of users" requires of the
//!   DSP side of Figure 1. Serving takes the shard's **read** lock (the
//!   per-shard `dsp.serve.*` counters are atomics), so same-shard readers do
//!   not serialize either.
//! * **hot-document replication** — the E10 hot-document scenario (256
//!   clients, one document): a pinned ([`DspService::pin_replicas`], or the
//!   facade's `Publisher::builder().replicate(n)`) document is served from
//!   clones on several shards, with revision-tagged invalidation on
//!   republish (see [`shard`]).
//! * **scheduler workers / quantum** — the terminal-side multiplexing of E5
//!   run K-wide; the quantum bounds how long one card can monopolise the
//!   service between turns of the others (fair round-robin per card).
//! * **the card crate's `BatchedChannel`** — the E5 latency breakdown's
//!   `per_apdu_latency`, charged once per coalesced batch instead of once per
//!   chunk request.
//!
//! Capacity is reported on the same *simulated* clock the rest of the
//! workspace uses (cost models, not wall time — see the card crate's `cost`): the
//! [`ServiceModel`] converts per-shard serving counters into the time one
//! shard, serving serially, needs for its share of the traffic. Shards serve
//! concurrently, so the service-side makespan of a run is the **busiest**
//! shard's time; cards process in parallel on their own hardware, so the
//! system makespan is the larger of the busiest shard and the slowest card.
//! All of it is deterministic — byte counts times model rates — which is what
//! lets CI gate the E10 keys on any hardware.

pub mod scheduler;
pub mod shard;

pub use scheduler::{FinishedSession, Schedulable, ScheduleReport, SessionScheduler, StepOutcome};
pub use shard::ShardedStore;

use std::time::Duration;

use sdds_obs::ObsSnapshot;
use sdds_sync::sync::atomic::{AtomicU64, Ordering};
use sdds_sync::sync::Arc;

use sdds_wire::{ChunkTag, DocumentHeader, SecureDocument, WireError};

use crate::obs::{DspObs, ServerStats};

/// Service-time model of one DSP shard (the DSP-side analogue of the card's
/// `CostModel`): converts serving counters into simulated serial time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceModel {
    /// Fixed cost per served request: lock hand-off, lookup, kernel and NIC
    /// round-trip on the serving host.
    pub per_request_overhead: Duration,
    /// Sustained payload serving rate of one shard, bytes per second.
    pub serve_bytes_per_second: f64,
}

impl ServiceModel {
    /// A DSP host on a LAN: 100 µs per request, 50 MB/s per shard.
    pub fn lan() -> Self {
        ServiceModel {
            per_request_overhead: Duration::from_micros(100),
            serve_bytes_per_second: 50_000_000.0,
        }
    }

    /// Simulated serial time one shard needs to serve `stats` worth of
    /// traffic (saturating at [`Duration::MAX`]).
    pub fn service_time(&self, stats: &ServerStats) -> Duration {
        let wire = if self.serve_bytes_per_second.is_finite() && self.serve_bytes_per_second > 0.0 {
            Duration::from_secs_f64(stats.bytes_served as f64 / self.serve_bytes_per_second)
        } else {
            Duration::ZERO
        };
        // Exact integer nanoseconds for any request count: a `u32` multiplier
        // would wrap at 2^32 requests and drop the overhead term.
        let overhead = self
            .per_request_overhead
            .as_nanos()
            .saturating_mul(stats.requests as u128);
        let overhead = u64::try_from(overhead / 1_000_000_000).map_or(Duration::MAX, |secs| {
            Duration::new(secs, (overhead % 1_000_000_000) as u32)
        });
        wire.saturating_add(overhead)
    }
}

/// The DSP front-end: a sharded store plus its capacity model.
///
/// Every serving method takes `&self` — the service is `Sync` and meant to
/// sit behind an `Arc`, shared by every session the scheduler multiplexes.
/// A one-shard service is the single-tenant layout. The `fetch_*` methods
/// are one-line calls into the store's three fetch primitives
/// ([`ShardedStore::fetch_header`], [`ShardedStore::fetch_chunk`],
/// [`ShardedStore::fetch_rules`]), fixing their `pinned` and `salt`
/// arguments.
#[derive(Debug)]
pub struct DspService {
    store: ShardedStore,
    model: ServiceModel,
    /// Monotone ticket counter handing each new card session a distinct
    /// route salt (replica spreading — see [`DspService::next_session_salt`]).
    // lint: atomic — a route-salt ticket allocator, not a metric; obs
    // counters are monotone tallies and cannot hand out distinct values.
    session_tickets: AtomicU64,
    /// Telemetry bundle: registry, flight recorder, per-layer handles.
    obs: Arc<DspObs>,
}

impl DspService {
    /// Creates a service with `shards` shards and the LAN service model
    /// (`0` shards clamps to 1 — see [`ShardedStore::new`]).
    pub fn new(shards: usize) -> Self {
        let obs = Arc::new(DspObs::new(shards.max(1)));
        DspService {
            store: ShardedStore::new(shards).with_obs(obs.serve()),
            model: ServiceModel::lan(),
            // lint: atomic — route-salt ticket allocator (see field docs).
            session_tickets: AtomicU64::new(0),
            obs,
        }
    }

    /// The service's telemetry bundle — scheduler and card session
    /// instrumentation clone their handles from here, so one
    /// [`DspService::obs_snapshot`] covers every layer of a run.
    pub fn obs(&self) -> &Arc<DspObs> {
        &self.obs
    }

    /// A point-in-time snapshot of every metric the service's registry
    /// holds: per-shard serving counters, latency histograms, scheduler
    /// counters, card-session traffic and the labelled error tallies.
    pub fn obs_snapshot(&self) -> ObsSnapshot {
        self.obs.snapshot()
    }

    /// Dumps the service's flight recorder (recent serve / step spans) as
    /// JSON — the on-demand post-mortem artifact.
    pub fn flight_recorder_json(&self) -> String {
        self.obs.recorder().dump_json()
    }

    /// The sharded store (shard layout, document inventory).
    pub fn store(&self) -> &ShardedStore {
        &self.store
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.store.shard_count()
    }

    /// Uploads (or replaces) a document, keeping stored rule blobs.
    pub fn put_document(&self, document: SecureDocument) {
        self.store.put_document(document);
    }

    /// Stores the protected rule blob of `subject` for `doc_id`: opaque
    /// bytes to the DSP (`&ProtectedRules` converts into them).
    pub fn put_rules(
        &self,
        doc_id: &str,
        subject: &str,
        rules: impl Into<Arc<[u8]>>,
    ) -> Result<(), WireError> {
        self.store.put_rules(doc_id, subject, rules)
    }

    /// Pins `doc_id` to `copies` serving shards (see
    /// [`ShardedStore::pin_replicas`]).
    pub fn pin_replicas(&self, doc_id: &str, copies: usize) -> Result<(), WireError> {
        self.store.pin_replicas(doc_id, copies)
    }

    /// Shards currently serving `doc_id`, home shard first (see
    /// [`ShardedStore::replica_shards`]).
    pub fn replica_shards(&self, doc_id: &str) -> Vec<usize> {
        self.store.replica_shards(doc_id)
    }

    /// Fetches a document header together with the upload revision to pin a
    /// session to (see [`ShardedStore::fetch_header`]).
    pub fn fetch_header_pinned(&self, doc_id: &str) -> Result<(DocumentHeader, u64), WireError> {
        self.store.fetch_header(doc_id, None, 0)
    }

    /// Hands out the next session route salt. Every card session draws one
    /// at connect time and carries it through its `fetch_*_salted` calls, so
    /// identical requests from different sessions spread over a hot
    /// document's replicas instead of all queueing on the same copy (the
    /// hot-document scenario: 256 sessions, one document, every header
    /// request otherwise hitting the home shard).
    pub fn next_session_salt(&self) -> u64 {
        self.session_tickets.fetch_add(1, Ordering::Relaxed)
    }

    /// Header fetch routed with a per-session `salt`.
    pub fn fetch_header_pinned_salted(
        &self,
        doc_id: &str,
        salt: u64,
    ) -> Result<(DocumentHeader, u64), WireError> {
        self.store.fetch_header(doc_id, None, salt)
    }

    /// Fetches one encrypted chunk at a pinned revision, failing with
    /// [`WireError::StaleRevision`] after a mid-session republish.
    pub fn fetch_chunk_pinned(
        &self,
        doc_id: &str,
        index: u32,
        revision: u64,
    ) -> Result<(Arc<[u8]>, ChunkTag), WireError> {
        self.store.fetch_chunk(doc_id, index, Some(revision), 0)
    }

    /// Pinned chunk fetch routed with a per-session `salt`.
    pub fn fetch_chunk_pinned_salted(
        &self,
        doc_id: &str,
        index: u32,
        revision: u64,
        salt: u64,
    ) -> Result<(Arc<[u8]>, ChunkTag), WireError> {
        self.store.fetch_chunk(doc_id, index, Some(revision), salt)
    }

    /// Fetches the protected rule blob of `subject` for `doc_id`.
    pub fn fetch_rules(&self, doc_id: &str, subject: &str) -> Result<Arc<[u8]>, WireError> {
        self.store.fetch_rules(doc_id, subject, None, 0)
    }

    /// Fetches the protected rule blob of `subject` at a pinned revision,
    /// failing with [`WireError::StaleRevision`] after a mid-session
    /// republish.
    pub fn fetch_rules_pinned(
        &self,
        doc_id: &str,
        subject: &str,
        revision: u64,
    ) -> Result<Arc<[u8]>, WireError> {
        self.store.fetch_rules(doc_id, subject, Some(revision), 0)
    }

    /// Pinned rules fetch routed with a per-session `salt`.
    pub fn fetch_rules_pinned_salted(
        &self,
        doc_id: &str,
        subject: &str,
        revision: u64,
        salt: u64,
    ) -> Result<Arc<[u8]>, WireError> {
        self.store
            .fetch_rules(doc_id, subject, Some(revision), salt)
    }

    /// Upload revision of a stored document (`None` if unknown).
    pub fn revision(&self, doc_id: &str) -> Option<u64> {
        self.store.revision(doc_id)
    }

    /// True when `doc_id` is stored.
    pub fn contains(&self, doc_id: &str) -> bool {
        self.store.contains(doc_id)
    }

    /// Merged serving statistics across shards.
    pub fn stats(&self) -> ServerStats {
        self.store.stats()
    }

    /// Per-shard serving statistics.
    pub fn shard_stats(&self) -> Vec<ServerStats> {
        self.store.shard_stats()
    }

    /// Resets the serving statistics of every shard.
    pub fn reset_stats(&self) {
        self.store.reset_stats();
    }

    /// Simulated serial service time of the busiest shard — the service-side
    /// makespan of the traffic accumulated since the last stats reset
    /// (shards serve concurrently, so the slowest shard paces the service).
    pub fn busiest_shard_time(&self) -> Duration {
        self.store
            .shard_stats()
            .iter()
            .map(|s| self.model.service_time(s))
            .max()
            .unwrap_or(Duration::ZERO)
    }

    /// Simulated service time the same traffic would need on a single serial
    /// shard (the E10 baseline): the whole merged load on one queue.
    pub fn single_shard_time(&self) -> Duration {
        self.model.service_time(&self.store.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdds_core::rule::RuleSet;
    use sdds_core::secdoc::{integrity_key, verify_chunk, SecureDocumentBuilder};
    use sdds_core::session::ProtectedRules;
    use sdds_crypto::SecretKey;
    use sdds_xml::generator::{self, GeneratorConfig, HospitalProfile};

    /// Whether `tag` vouches for `chunk` as chunk `index` of the document
    /// `header` describes, under the key every test document is built with.
    fn tag_verifies(header: &DocumentHeader, index: u32, chunk: &[u8], tag: &ChunkTag) -> bool {
        let integrity = integrity_key(&SecretKey::derive(b"s", "k").deriver());
        verify_chunk(&integrity, header, index, chunk, tag).is_ok()
    }

    fn document(id: &str) -> SecureDocument {
        let doc = generator::hospital(
            &HospitalProfile {
                patients: 2,
                ..HospitalProfile::default()
            },
            &GeneratorConfig::default(),
        );
        SecureDocumentBuilder::new(id, SecretKey::derive(b"s", "k")).build(&doc)
    }

    #[test]
    fn service_time_charges_requests_and_bytes() {
        let model = ServiceModel::lan();
        let stats = ServerStats {
            requests: 1,
            bytes_served: 50_000_000, // 1 s of wire at 50 MB/s
            chunks_served: 1,
            ..ServerStats::default()
        };
        let t = model.service_time(&stats);
        assert!((t.as_secs_f64() - 1.0001).abs() < 1e-6);
    }

    #[test]
    fn service_time_overhead_does_not_wrap_at_2_pow_32_requests() {
        let requests = 1usize << 32;
        let stats = ServerStats {
            requests,
            ..ServerStats::default()
        };
        // 2^32 × 100 µs, exactly.
        assert_eq!(
            ServiceModel::lan().service_time(&stats),
            Duration::from_micros(100 * requests as u64)
        );
        let saturated = ServiceModel {
            per_request_overhead: Duration::MAX,
            serve_bytes_per_second: 1.0,
        };
        assert_eq!(saturated.service_time(&stats), Duration::MAX);
    }

    #[test]
    fn sharding_splits_the_simulated_service_makespan() {
        let service = DspService::new(8);
        assert_eq!(service.shard_count(), 8);
        for i in 0..32 {
            service.put_document(document(&format!("doc-{i}")));
        }
        for i in 0..32 {
            let id = format!("doc-{i}");
            let (_, revision) = service.fetch_header_pinned(&id).unwrap();
            service.fetch_chunk_pinned(&id, 0, revision).unwrap();
        }
        let busiest = service.busiest_shard_time();
        let serial = service.single_shard_time();
        assert!(busiest > Duration::ZERO);
        // 32 documents over 8 shards: the busiest shard carries far less than
        // the whole load, so the concurrent makespan beats the serial one.
        assert!(
            busiest.as_secs_f64() * 2.0 < serial.as_secs_f64(),
            "busiest {busiest:?} should be well under serial {serial:?}"
        );
        service.reset_stats();
        assert_eq!(service.busiest_shard_time(), Duration::ZERO);
        assert!(!service.store().is_empty());
    }

    /// A one-shard service holding a 3-patient folder and the doctor's rules.
    fn single_tenant() -> DspService {
        let service = DspService::new(1);
        let doc = generator::hospital(
            &HospitalProfile {
                patients: 3,
                ..HospitalProfile::default()
            },
            &GeneratorConfig::default(),
        );
        service.put_document(
            SecureDocumentBuilder::new("folder", SecretKey::derive(b"s", "k")).build(&doc),
        );
        let rules = RuleSet::parse("+, doctor, //patient").unwrap();
        let sealed = ProtectedRules::seal(&rules, &SecretKey::derive(b"s", "rules"));
        service.put_rules("folder", "doctor", &sealed).unwrap();
        service
    }

    #[test]
    fn single_tenant_service_is_one_shard() {
        let s = single_tenant();
        assert_eq!(s.shard_count(), 1);
        assert_eq!(s.revision("folder"), Some(0));
        assert!(s.contains("folder"));
        assert!(!s.contains("nope"));
        assert!(s.store().stored_bytes() > 0);
    }

    #[test]
    fn serves_headers_chunks_and_rules_with_accounting() {
        let s = single_tenant();
        let (header, revision) = s.fetch_header_pinned("folder").unwrap();
        assert_eq!(header.doc_id, "folder");
        let (chunk, tag) = s.fetch_chunk_pinned("folder", 0, revision).unwrap();
        assert!(tag_verifies(&header, 0, &chunk, &tag));
        let rules = s.fetch_rules("folder", "doctor").unwrap();
        assert!(!rules.is_empty());
        let stats = s.stats();
        assert_eq!(stats.requests, 3);
        assert_eq!(stats.chunks_served, 1);
        assert!(stats.bytes_served > chunk.len());
        s.reset_stats();
        assert_eq!(s.stats().requests, 0);
    }

    #[test]
    fn rule_blob_bytes_are_counted_exactly_once() {
        let s = single_tenant();
        let blob = s.fetch_rules("folder", "doctor").unwrap();
        let stats = s.stats();
        assert_eq!(stats.rule_blobs_served, 1);
        assert_eq!(stats.rule_bytes_served, blob.len());
        // Rule bytes are a subset of bytes_served, not an addition to it.
        assert_eq!(stats.bytes_served, blob.len());
        let (chunk, tag) = s.fetch_chunk_pinned("folder", 0, 0).unwrap();
        assert_eq!(
            s.stats().bytes_served,
            blob.len() + chunk.len() + tag.encode().len()
        );
        assert_eq!(s.stats().rule_bytes_served, blob.len());
    }

    #[test]
    fn unknown_objects_are_reported() {
        let s = single_tenant();
        assert!(s.fetch_header_pinned("nope").is_err());
        assert!(s.fetch_chunk_pinned("folder", 9999, 0).is_err());
        assert!(s.fetch_rules("folder", "stranger").is_err());
        assert!(s.contains("folder"));
    }

    #[test]
    fn service_is_shareable_across_threads() {
        use std::sync::Arc;
        let service = Arc::new(DspService::new(4));
        for i in 0..8 {
            service.put_document(document(&format!("doc-{i}")));
        }
        std::thread::scope(|scope| {
            for t in 0..4 {
                let service = Arc::clone(&service);
                scope.spawn(move || {
                    for i in 0..8 {
                        let id = format!("doc-{}", (i + t) % 8);
                        let (header, revision) = service.fetch_header_pinned(&id).unwrap();
                        let (chunk, tag) = service.fetch_chunk_pinned(&id, 0, revision).unwrap();
                        assert!(tag_verifies(&header, 0, &chunk, &tag));
                    }
                });
            }
        });
        assert_eq!(service.stats().requests, 4 * 8 * 2);
    }
}
