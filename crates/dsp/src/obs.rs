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
//! (everything a [`crate::DspService`] hands out) are live.
//!
//! Metric family names live in [`sdds_obs::families`]; the `doc-sync` lint
//! rule keeps ARCHITECTURE.md's metric table synchronized with that module.

use sdds_core::CoreError;
use sdds_obs::{families, Counter, FlightRecorder, Gauge, Histogram, ObsSnapshot, Registry};
use sdds_sync::sync::Arc;

use crate::server::AtomicServerStats;

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
}

impl ErrorObs {
    fn registered(registry: &Registry) -> Self {
        ErrorObs {
            stale_revision: registry
                .counter_with(families::ERRORS, Some(families::ERROR_STALE_REVISION)),
            not_found: registry.counter_with(families::ERRORS, Some(families::ERROR_NOT_FOUND)),
            no_rules: registry.counter_with(families::ERRORS, Some(families::ERROR_NO_RULES)),
        }
    }
}

/// Per-shard serving handles: the byte-accounting counters (shared with the
/// shard's [`AtomicServerStats`]) plus routing and staleness tallies.
#[derive(Debug, Clone, Default)]
pub struct ShardObs {
    /// The shard's serving counters (`dsp.serve.*`, labelled per shard).
    pub stats: AtomicServerStats,
    /// Requests this shard answered from a replica clone.
    pub replica_routes: Counter,
    /// Stale-revision rejections raised while this shard served.
    pub stale_revisions: Counter,
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
                .map(|index| {
                    let label = format!("shard={index}");
                    ShardObs {
                        stats: AtomicServerStats::registered(registry, &label),
                        replica_routes: registry
                            .counter_with(families::SERVE_REPLICA_ROUTES, Some(&label)),
                        stale_revisions: registry.counter_with(families::SERVE_STALE, Some(&label)),
                    }
                })
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
    pub fn finish_serve(&self, shard: usize, started_nanos: u64, error: Option<&CoreError>) {
        if !self.live {
            return;
        }
        let duration = self.recorder.now_nanos().saturating_sub(started_nanos);
        self.latency.record(duration);
        self.recorder
            .record(shard, "dsp.serve", started_nanos, duration);
        match error {
            Some(CoreError::StaleRevision { .. }) => {
                self.shard(shard).stale_revisions.inc();
                self.errors.stale_revision.inc();
            }
            Some(CoreError::NotFound { .. }) => self.errors.not_found.inc(),
            Some(CoreError::NoRulesForSubject { .. }) => self.errors.no_rules.inc(),
            _ => {}
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
        if self.live {
            self.events_delivered.inc();
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

    /// Zeroes every registered metric (between experiment runs).
    pub fn reset(&self) {
        self.registry.reset();
    }
}

/// A shareable default bundle: `Arc<DspObs>` with one shard's worth of
/// serving handles — what detached components use when no service wires
/// them.
pub fn detached() -> Arc<DspObs> {
    Arc::new(DspObs::new(1))
}
