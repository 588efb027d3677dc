//! The DSP's telemetry bundle: one [`Registry`] + one [`FlightRecorder`]
//! feeding per-layer handle structs.
//!
//! [`DspObs`] owns the registry; the layer structs ([`ServeObs`],
//! [`SchedulerObs`], [`SessionObs`]) are cheap bundles of
//! `Arc`-backed handles the hot paths clone out of it. Components that run
//! without a service (a bare [`crate::ShardedStore`], a scheduler in a unit
//! test) fall back to *detached* handles — same cells, no registry — so
//! instrumentation never becomes a constructor burden.
//!
//! Detached bundles carry `live == false` and the hot paths skip their
//! telemetry work entirely: a detached component pays nothing, and — just as
//! important — adds no scheduling points to the `sdds-check` model-checked
//! scenarios, which all build components stand-alone. Registered bundles
//! (everything a [`crate::DspService`] hands out) are live. The one
//! exception is serving accounting: the [`ShardObs`] byte counters are the
//! only storage of [`ServerStats`], so they count on every bundle.
//!
//! Metric family names live in [`sdds_obs::families`]; the `doc-sync` lint
//! rule keeps ARCHITECTURE.md's metric table synchronized with that module.

use sdds_obs::{families, Counter, FlightRecorder, Gauge, Histogram, ObsSnapshot, Registry};
use sdds_sync::sync::Arc;
use sdds_wire::WireError;

/// Flight-recorder lanes: enough for the worker counts the schedulers use;
/// callers key lanes by worker or shard index (wrapped into range).
const RECORDER_LANES: usize = 8;
/// Spans each lane retains (overwrite-oldest beyond this).
const RECORDER_CAPACITY: usize = 256;

/// Labelled error counters — one per typed failure the serving layer can
/// produce. Clones share cells.
#[derive(Debug, Clone, Default)]
pub struct ErrorObs {
    /// `StaleRevision` rejections (republish under a pinned reader).
    pub stale_revision: Counter,
    /// `NotFound` (unknown document id).
    pub not_found: Counter,
    /// `NoRulesForSubject` (unprovisioned subject).
    pub no_rules: Counter,
    /// `ChunkOutOfRange` (a chunk index past the end of the document).
    pub chunk_out_of_range: Counter,
}

impl ErrorObs {
    fn registered(registry: &Registry) -> Self {
        ErrorObs {
            stale_revision: registry
                .counter_with(families::ERRORS, Some(families::ERROR_STALE_REVISION)),
            not_found: registry.counter_with(families::ERRORS, Some(families::ERROR_NOT_FOUND)),
            no_rules: registry.counter_with(families::ERRORS, Some(families::ERROR_NO_RULES)),
            chunk_out_of_range: registry
                .counter_with(families::ERRORS, Some(families::ERROR_CHUNK_OUT_OF_RANGE)),
        }
    }
}

/// Serving statistics of one shard, or of a whole store merged over its
/// shards: a plain-value snapshot of the [`ShardObs`] serving counters.
///
/// Every served payload bumps exactly one class of counters on the shard
/// that served it, so `bytes_served` counts headers, chunks + tags and rule
/// blobs each exactly once, and summing per-shard snapshots cannot double- or
/// under-count any class of payload.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Requests served.
    pub requests: usize,
    /// Payload bytes served (headers, chunks, tags, rule blobs).
    pub bytes_served: usize,
    /// Chunk requests served.
    pub chunks_served: usize,
    /// Rule-blob requests served.
    pub rule_blobs_served: usize,
    /// Bytes of protected rule blobs served (a subset of `bytes_served`).
    pub rule_bytes_served: usize,
}

/// Per-shard serving handles: the byte-accounting counters (`dsp.serve.*`,
/// labelled per shard) plus routing and staleness tallies.
///
/// The five accounting counters are the only storage of serving statistics
/// and the only state a DSP read mutates, which is what lets every fetch run
/// under a shard's **read** lock. They count on every bundle, detached ones
/// included: the capacity model reads them off stand-alone stores too.
/// Relaxed ordering is enough — the counters are independent monotonic
/// tallies, never used to synchronise other memory, and
/// [`ShardObs::stats`] is read either under the shard's write lock (reset)
/// or after the traffic of interest quiesced (reporting). Clones share cells.
#[derive(Debug, Clone, Default)]
pub struct ShardObs {
    /// Requests served.
    pub requests: Counter,
    /// Payload bytes served (headers, chunks, tags, rule blobs).
    pub bytes_served: Counter,
    /// Chunk requests served.
    pub chunks_served: Counter,
    /// Rule-blob requests served.
    pub rule_blobs_served: Counter,
    /// Bytes of protected rule blobs served (a subset of `bytes_served`).
    pub rule_bytes_served: Counter,
    /// Requests this shard answered from a replica clone.
    pub replica_routes: Counter,
    /// Stale-revision rejections raised while this shard served.
    pub stale_revisions: Counter,
}

impl ShardObs {
    fn registered(registry: &Registry, label: &str) -> Self {
        let counter = |family| registry.counter_with(family, Some(label));
        ShardObs {
            requests: counter(families::SERVE_REQUESTS),
            bytes_served: counter(families::SERVE_BYTES),
            chunks_served: counter(families::SERVE_CHUNKS),
            rule_blobs_served: counter(families::SERVE_RULE_BLOBS),
            rule_bytes_served: counter(families::SERVE_RULE_BYTES),
            replica_routes: counter(families::SERVE_REPLICA_ROUTES),
            stale_revisions: counter(families::SERVE_STALE),
        }
    }

    /// Counts one served document header of `bytes` payload.
    pub fn count_header(&self, bytes: usize) {
        self.requests.inc();
        self.bytes_served.add(bytes as u64);
    }

    /// Counts one served chunk (ciphertext + tag) of `bytes` payload.
    pub fn count_chunk(&self, bytes: usize) {
        self.requests.inc();
        self.bytes_served.add(bytes as u64);
        self.chunks_served.inc();
    }

    /// Counts one served protected rule blob of `bytes` payload.
    pub fn count_rules(&self, bytes: usize) {
        self.requests.inc();
        self.bytes_served.add(bytes as u64);
        self.rule_blobs_served.inc();
        self.rule_bytes_served.add(bytes as u64);
    }

    /// A plain-value snapshot of the serving counters.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            requests: self.requests.get() as usize,
            bytes_served: self.bytes_served.get() as usize,
            chunks_served: self.chunks_served.get() as usize,
            rule_blobs_served: self.rule_blobs_served.get() as usize,
            rule_bytes_served: self.rule_bytes_served.get() as usize,
        }
    }

    /// Zeroes the serving counters (call under the owning shard's write lock
    /// so no concurrent serve is torn across the reset). Routing and
    /// staleness tallies are kept.
    pub fn reset_stats(&self) {
        self.requests.reset();
        self.bytes_served.reset();
        self.chunks_served.reset();
        self.rule_blobs_served.reset();
        self.rule_bytes_served.reset();
    }
}

/// Serving-path telemetry of a [`crate::ShardedStore`]. Clones share cells.
#[derive(Debug, Clone)]
pub struct ServeObs {
    shards: Vec<ShardObs>,
    /// Wall-clock latency of one `serve` call, nanoseconds.
    pub latency: Histogram,
    /// Labelled typed-failure counters.
    pub errors: ErrorObs,
    /// Flight recorder the serve spans land in (lane = serving shard).
    pub recorder: FlightRecorder,
    /// False for detached bundles: the serve path skips telemetry entirely.
    pub live: bool,
}

impl ServeObs {
    /// Handles registered in `registry` (shard counters labelled
    /// `shard=<i>`), recording spans into `recorder`.
    pub fn registered(
        registry: &Registry,
        recorder: FlightRecorder,
        errors: ErrorObs,
        shards: usize,
    ) -> Self {
        ServeObs {
            shards: (0..shards.max(1))
                .map(|index| ShardObs::registered(registry, &format!("shard={index}")))
                .collect(),
            latency: registry.histogram(families::SERVE_LATENCY),
            errors,
            recorder,
            live: true,
        }
    }

    /// Detached handles (no registry) for stand-alone stores and tests.
    pub fn detached(shards: usize) -> Self {
        ServeObs {
            shards: (0..shards.max(1)).map(|_| ShardObs::default()).collect(),
            latency: Histogram::new(),
            errors: ErrorObs::default(),
            recorder: FlightRecorder::new(RECORDER_LANES, RECORDER_CAPACITY),
            live: false,
        }
    }

    /// Handles of shard `index` (wrapped into range).
    pub fn shard(&self, index: usize) -> &ShardObs {
        let len = self.shards.len().max(1);
        // lint: infallible — index is wrapped into 0..len and shards is non-empty by construction
        &self.shards[index % len]
    }

    /// Closes the accounting of one serve: latency histogram, a flight
    /// record on the serving shard's lane, and — on failure — the labelled
    /// error counters (stale revisions also count against the shard).
    /// No-op on a detached bundle.
    pub fn finish_serve(&self, shard: usize, started_nanos: u64, error: Option<&WireError>) {
        if !self.live {
            return;
        }
        let duration = self.recorder.now_nanos().saturating_sub(started_nanos);
        self.latency.record(duration);
        self.recorder
            .record(shard, "dsp.serve", started_nanos, duration);
        match error {
            Some(WireError::StaleRevision { .. }) => {
                self.shard(shard).stale_revisions.inc();
                self.errors.stale_revision.inc();
            }
            Some(WireError::NotFound { .. }) => self.errors.not_found.inc(),
            Some(WireError::NoRulesForSubject { .. }) => self.errors.no_rules.inc(),
            Some(WireError::ChunkOutOfRange { .. }) => self.errors.chunk_out_of_range.inc(),
            // Serving never decodes a header: the DSP stores the encoded
            // bytes it was given.
            Some(WireError::BadHeader(_)) | None => {}
        }
    }
}

/// Session-scheduler telemetry. Clones share cells.
#[derive(Debug, Clone)]
pub struct SchedulerObs {
    /// Current and high-water run-queue depth, summed over the workers.
    pub queue_depth: Gauge,
    /// Session quanta executed.
    pub steps: Counter,
    /// Sessions a worker took from the front of a peer's run queue.
    pub steals: Counter,
    /// Wall-clock latency of one session step, nanoseconds.
    pub step_latency: Histogram,
    /// Flight recorder the step spans land in (lane = worker index).
    pub recorder: FlightRecorder,
    /// False for detached bundles: the step path skips telemetry entirely.
    pub live: bool,
}

impl SchedulerObs {
    fn registered(registry: &Registry, recorder: FlightRecorder) -> Self {
        SchedulerObs {
            queue_depth: registry.gauge(families::SCHED_QUEUE_DEPTH),
            steps: registry.counter(families::SCHED_STEPS),
            steals: registry.counter(families::SCHED_STEALS),
            step_latency: registry.histogram(families::SCHED_STEP_LATENCY),
            recorder,
            live: true,
        }
    }

    /// Detached handles (no registry) for stand-alone schedulers.
    pub fn detached() -> Self {
        SchedulerObs {
            queue_depth: Gauge::new(),
            steps: Counter::new(),
            steals: Counter::new(),
            step_latency: Histogram::new(),
            recorder: FlightRecorder::new(RECORDER_LANES, RECORDER_CAPACITY),
            live: false,
        }
    }
}

/// Card-session telemetry: what crossed the terminal/card wire and what the
/// client actually received. Clones share cells.
#[derive(Debug, Clone, Default)]
pub struct SessionObs {
    /// APDU round-trips (after batching).
    pub apdu_round_trips: Counter,
    /// Bytes over the terminal/card wire, both directions.
    pub wire_bytes: Counter,
    /// Authorized events delivered to client views.
    pub events_delivered: Counter,
    /// False for detached bundles: recording methods are no-ops.
    pub live: bool,
}

impl SessionObs {
    fn registered(registry: &Registry) -> Self {
        SessionObs {
            apdu_round_trips: registry.counter(families::SESSION_APDUS),
            wire_bytes: registry.counter(families::SESSION_WIRE_BYTES),
            events_delivered: registry.counter(families::SESSION_EVENTS),
            live: true,
        }
    }

    /// Records one terminal↔card exchange of `to_card + from_card` bytes.
    /// No-op on a detached bundle.
    pub fn record_exchange(&self, to_card: usize, from_card: usize) {
        if !self.live {
            return;
        }
        self.apdu_round_trips.inc();
        self.wire_bytes.add((to_card + from_card) as u64);
    }

    /// Counts one authorized event handed to the application. No-op on a
    /// detached bundle.
    pub fn event_delivered(&self) {
        self.add_events_delivered(1);
    }

    /// Counts `n` authorized events handed to the application in one add.
    /// No-op on a detached bundle.
    pub fn add_events_delivered(&self, n: u64) {
        if self.live {
            self.events_delivered.add(n);
        }
    }
}

/// The whole DSP telemetry bundle: registry, flight recorder and the
/// per-layer handle structs every instrumented component clones from.
#[derive(Debug)]
pub struct DspObs {
    registry: Registry,
    recorder: FlightRecorder,
    serve: ServeObs,
    scheduler: SchedulerObs,
    session: SessionObs,
    errors: ErrorObs,
}

impl DspObs {
    /// A bundle for a service of `shards` shards, on the real wall clock.
    pub fn new(shards: usize) -> Self {
        let registry = Registry::new();
        let recorder = FlightRecorder::new(RECORDER_LANES, RECORDER_CAPACITY);
        let errors = ErrorObs::registered(&registry);
        let serve = ServeObs::registered(&registry, recorder.clone(), errors.clone(), shards);
        let scheduler = SchedulerObs::registered(&registry, recorder.clone());
        let session = SessionObs::registered(&registry);
        DspObs {
            registry,
            recorder,
            serve,
            scheduler,
            session,
            errors,
        }
    }

    /// The registry behind the handles.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The shared flight recorder.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Serving-path handles (cloned into the [`crate::ShardedStore`]).
    pub fn serve(&self) -> ServeObs {
        self.serve.clone()
    }

    /// Session-scheduler handles.
    pub fn scheduler(&self) -> SchedulerObs {
        self.scheduler.clone()
    }

    /// Card-session handles.
    pub fn session(&self) -> SessionObs {
        self.session.clone()
    }

    /// Labelled error counters.
    pub fn errors(&self) -> ErrorObs {
        self.errors.clone()
    }

    /// A point-in-time snapshot of every registered metric.
    pub fn snapshot(&self) -> ObsSnapshot {
        self.registry.snapshot()
    }
}

/// A shareable default bundle: `Arc<DspObs>` with one shard's worth of
/// serving handles — what detached components use when no service wires
/// them.
pub fn detached() -> Arc<DspObs> {
    Arc::new(DspObs::new(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_obs_counts_every_payload_class_once() {
        let obs = ShardObs::default();
        obs.count_header(10);
        obs.count_chunk(100);
        obs.count_rules(30);
        assert_eq!(
            obs.stats(),
            ServerStats {
                requests: 3,
                bytes_served: 10 + 100 + 30,
                chunks_served: 1,
                rule_blobs_served: 1,
                rule_bytes_served: 30,
            }
        );
        obs.replica_routes.inc();
        obs.reset_stats();
        assert_eq!(obs.stats(), ServerStats::default());
        assert_eq!(obs.replica_routes.get(), 1, "routing tallies survive");
    }
}
