//! The four workloads and the end-to-end metrics they report.
//!
//! Every workload runs in one process. After warm-up, the measured window is
//! cut into slices. Each slice runs the workload's reads (or, for
//! `policy-churn`, its write/read cycle); after each slice a short burst
//! times writes and fresh set-ups. The short operations are therefore
//! sampled across the whole window instead of in one burst, which a few
//! seconds of contention from other processes would otherwise skew. Writes
//! and set-ups never move the serving counters of the measured service.
//!
//! Count metrics come from whole units of fixed work (single views of one
//! policy state, whole policy toggle pairs, whole fleet rounds), so they
//! repeat exactly whatever the deadline cuts. Every view is checked against
//! the reference oracle outside its timed interval. No reader ever runs
//! while a writer does.
//!
//! No timing includes CPU time the hypervisor stole, so that the figures
//! follow the code rather than the neighbours on a shared machine. Pulls,
//! writes and set-ups run on one thread and never wait: they leave out the
//! time their thread did not run (wall time less the thread's CPU time).
//! Fleet views span two workers and a queue: they are discounted by the
//! share of CPU time stolen while their block ran (from `/proc/stat`).
//! Timings other than set-up are then scaled to one host speed by a
//! reference job timed in the same run (`crate::reference`).

use std::sync::Arc;
use std::time::{Duration, Instant};

use sdds::core::engine::SessionStats;
use sdds::dsp::service::{Schedulable, StepOutcome};
use sdds::obs::families;
use sdds::{CardSession, Client, Document, DspService, Publisher, SddsError, SessionScheduler};

use crate::inputs::{self, CpuTicks, Oracle};
use crate::layers::{self, Layers, ViewCounts};
use crate::ops::{self, PullKeys};
use crate::reference::Reference;
use crate::stats::{GapHistogram, Metric, Samples};
use crate::trace::Recorder;

/// The workloads, by the name `--workload` takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PullDoctor,
    PullSecretary,
    CardFleet,
    PolicyChurn,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PullDoctor,
        Workload::PullSecretary,
        Workload::CardFleet,
        Workload::PolicyChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PullDoctor => "pull-doctor",
            Workload::PullSecretary => "pull-secretary",
            Workload::CardFleet => "card-fleet",
            Workload::PolicyChurn => "policy-churn",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Sizes and counts of one run. [`Config::standard`] is what the command
/// line runs; the benchmark's tests use [`Config::small`].
#[derive(Debug, Clone)]
pub struct Config {
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Slices of the window; a short burst of writes (and, every
    /// `setup_every` slices, a fresh set-up) follows each. Many short
    /// bursts spread the writes over the run's fast and slow stretches.
    pub slices: u32,
    /// Alternate traced and untraced units of work and compute the
    /// per-layer metrics.
    pub trace: bool,
    /// Bursts per timed fresh set-up (the median of these set-ups and the
    /// first one is `setup_s`).
    pub setup_every: u32,
    /// Untimed views before the window opens (a quarter as many toggle
    /// pairs on `policy-churn`, one round on `card-fleet`). Warm-up also
    /// lasts at least `warmup_seconds`, past the start-up transients of a
    /// fresh process.
    pub warmup: usize,
    pub warmup_seconds: f64,
    pub hospital_elements: usize,
    /// The document the pull workloads republish.
    pub notice_elements: usize,
    pub fleet_terminals: usize,
    pub fleet_folder_elements: usize,
    /// Pulls per terminal per round.
    pub fleet_pulls: usize,
    pub churn_docs: usize,
    pub churn_elements: usize,
}

impl Config {
    pub fn standard(seed: u64, seconds: f64, trace: bool) -> Self {
        Config {
            seed,
            seconds,
            slices: 100,
            trace,
            setup_every: 2,
            warmup: 20,
            warmup_seconds: 1.0,
            hospital_elements: 4000,
            notice_elements: 200,
            fleet_terminals: 64,
            fleet_folder_elements: 200,
            fleet_pulls: 4,
            churn_docs: 8,
            churn_elements: 1000,
        }
    }

    /// A scaled-down run for tests (unoptimised builds, a fraction of a
    /// second of measuring).
    pub fn small(seed: u64, trace: bool) -> Self {
        Config {
            slices: 2,
            setup_every: 1,
            warmup: 2,
            warmup_seconds: 0.0,
            hospital_elements: 300,
            notice_elements: 60,
            fleet_terminals: 6,
            fleet_folder_elements: 60,
            fleet_pulls: 2,
            churn_docs: 3,
            churn_elements: 150,
            ..Config::standard(seed, 0.05, trace)
        }
    }
}

/// Outcome of one run.
#[derive(Debug)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// First failure, for the log.
    pub first_error: Option<String>,
    /// Share of the machine's running CPU time stolen during the run.
    pub stolen_share: f64,
    /// The reference job's 1st-percentile time in this run, µs, its sample
    /// count, and the factor every end-to-end timing but `setup_s` was
    /// multiplied by.
    pub reference_us: f64,
    pub reference_samples: usize,
    pub scale: f64,
    pub end_to_end: Vec<Metric>,
    /// Empty unless the run was traced.
    pub per_layer: Vec<Metric>,
    /// The spans of a traced run.
    pub spans: Recorder,
}

/// Operations attempted and failed; a wrong view is a failure.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
}

impl Tally {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.first_error.get_or_insert_with(what);
        }
        ok
    }

    fn result<T>(&mut self, result: Result<T, SddsError>, what: &str) -> Option<T> {
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.check(false, || format!("{what}: {e}"));
                None
            }
        }
    }
}

/// Rounds per block on `card-fleet` (256 views and as many landing gaps
/// each, so a block's gap p99 has ten gaps beyond it).
const BLOCK_ROUNDS: u32 = 4;
/// The low quantile every single-thread timing is reported at. A run
/// records at least a thousand samples of each, so ten lie below it.
const QUIET: f64 = 0.01;
/// Republishes and policy toggles (an even number) in each burst of the
/// read workloads: a thousand of each over a hundred slices.
const BURST_WRITES: usize = 10;
/// Chunk sizes of the published documents.
const PULL_CHUNK: usize = 256;
const FLEET_CHUNK: usize = 256;
const CHURN_CHUNK: usize = 512;
/// Shards of the fleet's store.
const FLEET_SHARDS: usize = 4;
/// Worker threads of the fleet's scheduler, one per vCPU of a 2-vCPU box.
const FLEET_WORKERS: usize = 2;
/// Steps the fleet's scheduler grants a session per turn.
const FLEET_QUANTUM: usize = 8;
/// Reference jobs timed after each untraced fleet round (one follows each
/// untraced view on the other workloads).
const FLEET_REFERENCE_JOBS: usize = 16;

/// The views of one `card-fleet` block of rounds: their latencies, the wall
/// time the rounds took, and the gaps between landings.
#[derive(Debug, Default)]
struct Block {
    view_ms: Vec<f64>,
    busy_ns: u64,
    gaps: GapHistogram,
    rounds: u32,
    /// The CPU counters when the block opened.
    opened: CpuTicks,
}

impl Block {
    fn open() -> Block {
        Block {
            opened: CpuTicks::now(),
            ..Block::default()
        }
    }
}

/// End-to-end samples of one run.
///
/// On a shared machine the same code runs in two speeds that alternate in
/// stretches of tens to hundreds of views: a quiet one and one up to 1.8
/// times slower (not the clock rate; most likely other tenants' load on
/// shared cores and caches). The share of slow time ranges from a few
/// percent to nearly all of a run, so a median lands in either mode or
/// between them. The single-thread timings are therefore reported at their
/// 1st percentile over the whole run, which follows the quiet speed however
/// much of the run was slow. The host's speed also moves in steps that
/// outlast a run; every timing but `setup_s` is scaled by the run's
/// [`Reference`] for that.
#[derive(Debug, Default)]
struct EndToEnd {
    /// `card-fleet`: views overlap on two workers and are timed by the wall
    /// clock, per block of rounds, each block discounted by the share of
    /// CPU time stolen while it was open (0.3% to 54% per run on a shared
    /// 2-vCPU machine). Rate and landing gaps are medians over blocks.
    fleet: bool,
    setup_s: Samples,
    block: Block,
    view_ms: Samples,
    first_event_ms: Samples,
    /// Each pull's own p99 event gap, µs.
    view_gap_p99_us: Samples,
    block_rate: Samples,
    block_gap_p99_us: Samples,
    gap_count: u64,
    wire_bytes: u64,
    wire_views: u64,
    peak_ram: usize,
    policy_ms: Samples,
    republish_ms: Samples,
    reference: Reference,
}

impl EndToEnd {
    /// Records one untraced pull.
    fn view(&mut self, view_ms: f64, first_event_ms: f64, gaps: &GapHistogram) {
        self.view_ms.push(view_ms);
        self.first_event_ms.push(first_event_ms);
        if gaps.count() > 0 {
            self.view_gap_p99_us.push(gaps.quantile(0.99) / 1e3);
        }
        self.gap_count += gaps.count();
    }

    /// Closes the current fleet block into the run's samples and opens the
    /// next.
    fn close_block(&mut self) {
        let next = Block::open();
        let kept = 1.0 - next.opened.since(self.block.opened).stolen_share();
        let block = std::mem::replace(&mut self.block, next);
        if block.view_ms.is_empty() {
            return;
        }
        for &view in &block.view_ms {
            // The card path hands the view over whole: its first event
            // reaches the application when the view lands.
            self.view_ms.push(view * kept);
            self.first_event_ms.push(view * kept);
        }
        self.block_rate
            .push(block.view_ms.len() as f64 / (block.busy_ns as f64 * kept / 1e9));
        if block.gaps.count() > 0 {
            self.block_gap_p99_us
                .push(block.gaps.quantile(0.99) * kept / 1e3);
        }
        self.gap_count += block.gaps.count();
    }

    fn metrics(&mut self) -> Vec<Metric> {
        let k = self.reference.scale();
        let views = self.view_ms.len();
        let view_p01 = self.view_ms.quantile(QUIET) * k;
        let (rate, rate_n, gap, gap_n) = if self.fleet {
            (
                self.block_rate.median() / k,
                self.block_rate.len(),
                self.block_gap_p99_us.median() * k,
                self.block_gap_p99_us.len(),
            )
        } else {
            // One client pulling back to back at the quiet speed.
            (
                1e3 / view_p01,
                views,
                self.view_gap_p99_us.quantile(QUIET) * k,
                self.view_gap_p99_us.len(),
            )
        };
        vec![
            // Set-up is mostly encryption and hashing, tight loops that kept
            // their speed through the host's steps, so it is not scaled.
            Metric::new("setup_s", self.setup_s.median(), "s", self.setup_s.len()),
            Metric::new("view_p01_ms", view_p01, "ms", views),
            Metric::new("views_per_s", rate, "1/s", rate_n),
            Metric::new(
                "first_event_p01_ms",
                self.first_event_ms.quantile(QUIET) * k,
                "ms",
                self.first_event_ms.len(),
            ),
            Metric::new("event_gap_p99_us", gap, "us", gap_n),
            Metric::new(
                "wire_bytes_per_view",
                self.wire_bytes as f64 / self.wire_views.max(1) as f64,
                "B",
                self.wire_views as usize,
            ),
            Metric::new("soe_peak_ram_bytes", self.peak_ram as f64, "B", views),
            Metric::new(
                "policy_update_p01_ms",
                self.policy_ms.quantile(QUIET) * k,
                "ms",
                self.policy_ms.len(),
            ),
            Metric::new(
                "republish_p01_ms",
                self.republish_ms.quantile(QUIET) * k,
                "ms",
                self.republish_ms.len(),
            ),
            Metric::new("rss_peak_mb", inputs::rss_peak_mb(), "MB", 1),
        ]
    }
}

/// What a set-up builds: the publisher with its corpus, and the clients.
struct Env {
    publisher: Publisher,
    clients: Vec<Client>,
    provisioned: Vec<String>,
    chunk: usize,
}

impl Env {
    fn build(
        docs: &[(String, Document)],
        chunk: usize,
        shards: usize,
        subjects: &[&str],
    ) -> Result<Env, SddsError> {
        let publisher = Publisher::builder(inputs::SECRET)
            .rules(inputs::medical_rules())
            .shards(shards)
            .chunk_size(chunk)
            .build()?;
        for (id, doc) in docs {
            publisher.publish(id, doc)?;
        }
        let clients = subjects
            .iter()
            .map(|s| Client::builder(*s).provision(&publisher))
            .collect::<Result<Vec<_>, _>>()?;
        let mut provisioned: Vec<String> = subjects.iter().map(|s| (*s).to_owned()).collect();
        provisioned.sort();
        provisioned.dedup();
        Ok(Env {
            publisher,
            clients,
            provisioned,
            chunk,
        })
    }

    fn service(&self) -> &Arc<DspService> {
        self.publisher.service()
    }
}

/// DSP serving counters at one instant.
#[derive(Debug, Clone, Copy)]
struct Serving {
    bytes: u64,
    chunks: u64,
    serve_ns: u64,
}

impl Serving {
    fn read(service: &DspService) -> Serving {
        let stats = service.stats();
        let serve_ns = service
            .obs_snapshot()
            .histogram(families::SERVE_LATENCY)
            .map_or(0, |h| h.sum);
        Serving {
            bytes: stats.bytes_served as u64,
            chunks: stats.chunks_served as u64,
            serve_ns,
        }
    }
}

/// The state of one run: samples, spans, checks and the window clock.
struct Run<'c> {
    cfg: &'c Config,
    e2e: EndToEnd,
    layers: Layers,
    oracle: Oracle,
    tally: Tally,
    /// Gaps between the events of the latest pull.
    gaps: GapHistogram,
    /// Write operations so far (their ids in the span log).
    ops: u64,
    start: Instant,
    bursts: u32,
    /// Serving counters when the window opened, and views served since.
    serving: Option<(Serving, u64)>,
    /// The CPU counters when the run started.
    ticks: CpuTicks,
}

impl<'c> Run<'c> {
    /// Times the first set-up, then opens the run.
    fn new(
        cfg: &'c Config,
        build: impl Fn() -> Result<Env, SddsError>,
    ) -> Result<(Run<'c>, Env), String> {
        let ticks = CpuTicks::now();
        let start = inputs::thread_cpu_time();
        let env = build().map_err(|e| format!("set-up failed: {e}"))?;
        let mut e2e = EndToEnd::default();
        e2e.setup_s
            .push((inputs::thread_cpu_time() - start).as_secs_f64());
        let run = Run {
            cfg,
            e2e,
            layers: Layers::new(Recorder::new(cfg.trace, Instant::now())),
            oracle: Oracle::default(),
            tally: Tally::default(),
            gaps: GapHistogram::default(),
            ops: 1 << 40,
            start: Instant::now(),
            bursts: 0,
            serving: None,
            ticks,
        };
        Ok((run, env))
    }

    /// Opens the measured window and drops the warm-up's spans.
    fn open_window(&mut self, env: &Env) {
        self.e2e.block = Block::open();
        self.layers.spans.clear();
        self.start = Instant::now();
        self.serving = Some((Serving::read(env.service()), 0));
    }

    fn slice_over(&self) -> bool {
        let slice = Duration::from_secs_f64(self.cfg.seconds / f64::from(self.cfg.slices.max(1)));
        self.start.elapsed() >= slice * (self.bursts + 1)
    }

    fn done(&self) -> bool {
        self.bursts >= 1 && self.start.elapsed() >= Duration::from_secs_f64(self.cfg.seconds)
    }

    /// Whether unit of work `unit` (view, round, toggle pair) is traced.
    fn traced(&self, unit: u64) -> bool {
        self.cfg.trace && unit % 2 == 1
    }

    /// Counts `views` views served in the window.
    fn served(&mut self, views: u64) {
        if let Some((_, served)) = self.serving.as_mut() {
            *served += views;
        }
    }

    /// Folds the serving done in the window into both metric sets.
    fn close_window(&mut self, env: &Env) {
        // The last fleet block is partial: it counts only in a run too
        // short for a whole block.
        if self.e2e.fleet && self.e2e.block_rate.is_empty() {
            self.e2e.close_block();
        }
        if let Some((before, views)) = self.serving.take() {
            let now = Serving::read(env.service());
            self.e2e.wire_bytes += now.bytes - before.bytes;
            self.e2e.wire_views += views;
            self.layers.chunks_served += now.chunks - before.chunks;
            self.layers.serve_ns += now.serve_ns - before.serve_ns;
            self.layers.served_views += views;
        }
    }

    /// One pull through the facade or (traced) one call per layer, checked
    /// against the oracle. `record` adds it to the measured samples.
    #[allow(clippy::too_many_arguments)]
    fn pull(
        &mut self,
        env: &Env,
        client: usize,
        keys: &PullKeys,
        doc_id: &str,
        doc: &Document,
        traced: bool,
        view: u64,
        record: bool,
    ) -> Option<ops::Pull> {
        let client = &env.clients[client];
        let gaps = &mut self.gaps;
        gaps.clear();
        let pulled = if traced {
            ops::traced_pull(
                env.service(),
                keys,
                doc_id,
                gaps,
                &mut self.layers.spans,
                view,
            )
        } else {
            ops::facade_pull(client, doc_id, gaps)
        };
        let pull = self.tally.result(pulled, "pull")?;
        let subject = client.subject().name();
        let ok = self
            .oracle
            .check(doc_id, doc, env.publisher.rules(), subject, &pull.events);
        if !self.tally.check(ok, || {
            format!("{subject} view of {doc_id} differs from the oracle")
        }) {
            return None;
        }
        if record {
            let view_ms = pull.view_ns as f64 / 1e6;
            self.served(1);
            if traced {
                self.layers.traced_view_ms.push(view_ms);
            } else {
                let first_ms = pull.first_event_ns as f64 / 1e6;
                self.e2e.view(view_ms, first_ms, &self.gaps);
                self.e2e.reference.sample();
                self.layers.untraced_view_ms.push(view_ms);
            }
            self.e2e.peak_ram = self.e2e.peak_ram.max(pull.stats.peak_ram_bytes);
            self.layers.counts.add_session(&pull.stats);
        }
        Some(pull)
    }

    /// Times one write by its thread's CPU time; a recorded untraced success
    /// becomes a sample.
    fn timed_write(
        &mut self,
        what: &str,
        traced: bool,
        record: bool,
        write: impl FnOnce(&mut Recorder, u64) -> Result<(), SddsError>,
    ) -> Option<f64> {
        self.ops += 1;
        let start = inputs::thread_cpu_time();
        let result = write(&mut self.layers.spans, self.ops);
        let took_ms = (inputs::thread_cpu_time() - start).as_secs_f64() * 1e3;
        let ok = match result {
            Ok(()) => self.tally.check(true, String::new),
            Err(e) => self.tally.check(false, || format!("{what}: {e}")),
        };
        (ok && record && !traced).then_some(took_ms)
    }

    /// One policy toggle; through the facade or the layer calls.
    fn policy_update(&mut self, env: &mut Env, traced: bool, record: bool) {
        let (publisher, provisioned) = (&mut env.publisher, &env.provisioned);
        let sample = self.timed_write("policy update", traced, record, |rec, op| {
            if traced {
                ops::traced_policy_update(publisher, provisioned, rec, op)
            } else {
                ops::facade_policy_update(publisher)
            }
        });
        if let Some(ms) = sample {
            self.e2e.policy_ms.push(ms);
        }
    }

    /// One republish of `doc_id`; through the facade or the layer calls.
    fn republish(&mut self, env: &Env, doc_id: &str, doc: &Document, traced: bool, record: bool) {
        let sample = self.timed_write("republish", traced, record, |rec, op| {
            if traced {
                ops::traced_republish(
                    &env.publisher,
                    &env.provisioned,
                    env.chunk,
                    doc_id,
                    doc,
                    rec,
                    op,
                )
            } else {
                ops::facade_republish(&env.publisher, doc_id, doc)
            }
        });
        if let Some(ms) = sample {
            self.e2e.republish_ms.push(ms);
        }
    }

    /// Times one fresh set-up, dropping it.
    fn fresh_setup(&mut self, build: &impl Fn() -> Result<Env, SddsError>) {
        let start = inputs::thread_cpu_time();
        let built = build();
        let took = (inputs::thread_cpu_time() - start).as_secs_f64();
        if self.tally.result(built, "set-up").is_some() {
            self.tally.check(true, String::new);
            self.e2e.setup_s.push(took);
        }
    }

    /// Closes a slice with a burst between the views: `writes` republishes
    /// of the last document (one no view reads) and `writes` policy toggles
    /// (an even number, so the reads always see the same policy and
    /// content), then a fresh set-up every `cfg.setup_every` bursts. Every
    /// other burst is traced, from the first, which every run has.
    fn burst(
        &mut self,
        env: &mut Env,
        docs: &[(String, Document)],
        writes: usize,
        build: &impl Fn() -> Result<Env, SddsError>,
    ) {
        self.bursts += 1;
        let traced = self.cfg.trace && !self.bursts.is_multiple_of(2);
        let (doc_id, doc) = &docs[docs.len() - 1];
        for _ in 0..writes {
            self.republish(env, doc_id, doc, traced, true);
        }
        for _ in 0..writes {
            self.policy_update(env, traced, true);
        }
        if self.bursts.is_multiple_of(self.cfg.setup_every.max(1)) {
            self.fresh_setup(build);
        }
    }

    /// One checked facade pull per client of its own document after the
    /// window. Returns the SOE statistics of those pulls.
    fn final_checks(&mut self, env: &Env, docs: &[(String, Document)]) -> Vec<SessionStats> {
        let mut stats = Vec::new();
        for (i, client) in env.clients.iter().enumerate() {
            let (doc_id, doc) = &docs[i % docs.len()];
            let pulled = ops::facade_pull(client, doc_id, &mut self.gaps);
            if let Some(pull) = self.tally.result(pulled, "pull") {
                let subject = client.subject().name();
                let ok =
                    self.oracle
                        .check(doc_id, doc, env.publisher.rules(), subject, &pull.events);
                self.tally.check(ok, || {
                    format!("final {doc_id} view differs from the oracle")
                });
                stats.push(pull.stats);
            }
        }
        stats
    }

    fn finish(mut self) -> Report {
        let end_to_end = self.e2e.metrics();
        let per_layer = if self.cfg.trace {
            layers::metrics(&mut self.layers)
        } else {
            Vec::new()
        };
        Report {
            correct: self.tally.failed == 0 && self.tally.attempted > 0,
            attempted: self.tally.attempted,
            failed: self.tally.failed,
            first_error: self.tally.first_error,
            stolen_share: CpuTicks::now().since(self.ticks).stolen_share(),
            reference_us: self.e2e.reference.p01_us(),
            reference_samples: self.e2e.reference.len(),
            scale: self.e2e.reference.scale(),
            end_to_end,
            per_layer,
            spans: self.layers.spans,
        }
    }
}

/// Runs one workload.
pub fn run(workload: Workload, cfg: &Config) -> Result<Report, String> {
    match workload {
        Workload::PullDoctor => pull(cfg, "doctor"),
        Workload::PullSecretary => pull(cfg, "secretary"),
        Workload::CardFleet => card_fleet(cfg),
        Workload::PolicyChurn => policy_churn(cfg),
    }
}

/// `pull-doctor` / `pull-secretary`: one client in a closed loop pulls the
/// hospital document through `Client::open_stream`. The bursts republish a
/// small notice that no view reads.
fn pull(cfg: &Config, subject: &str) -> Result<Report, String> {
    let docs = vec![
        (
            "hospital".to_owned(),
            inputs::hospital(cfg.hospital_elements, cfg.seed, 0),
        ),
        (
            "notice".to_owned(),
            inputs::hospital(cfg.notice_elements, cfg.seed, 1),
        ),
    ];
    let (doc_id, doc) = (&docs[0].0, &docs[0].1);
    let build = || Env::build(&docs, PULL_CHUNK, 1, &[subject]);
    let (mut run, mut env) = Run::new(cfg, build)?;
    let keys = PullKeys::provision(&env.publisher, &env.clients[0]);
    let warm = Instant::now();
    let mut i = 0u64;
    while i < cfg.warmup as u64 || warm.elapsed().as_secs_f64() < cfg.warmup_seconds {
        run.pull(&env, 0, &keys, doc_id, doc, run.traced(i), i, false);
        i += 1;
    }
    run.open_window(&env);
    let mut views = 0u64;
    while !run.done() {
        let traced = run.traced(views);
        run.pull(&env, 0, &keys, doc_id, doc, traced, i + views, true);
        views += 1;
        if run.slice_over() {
            run.burst(&mut env, &docs, BURST_WRITES, &build);
        }
    }
    run.close_window(&env);
    run.final_checks(&env, &docs);
    Ok(run.finish())
}

/// `policy-churn`: one thread cycles policy toggle → checked pull →
/// republish → checked pull on the first of several documents (the others
/// make every rule sync re-seal realistic work). Counts come from whole
/// toggle pairs, so both policy states weigh the same.
fn policy_churn(cfg: &Config) -> Result<Report, String> {
    let docs: Vec<(String, Document)> = (0..cfg.churn_docs.max(1))
        .map(|i| {
            (
                format!("ward-{i}"),
                inputs::hospital(cfg.churn_elements, cfg.seed, i as u64 + 1),
            )
        })
        .collect();
    let build = || Env::build(&docs, CHURN_CHUNK, 1, &["doctor"]);
    let (mut run, mut env) = Run::new(cfg, build)?;
    let keys = PullKeys::provision(&env.publisher, &env.clients[0]);

    // One toggle pair: (toggle, pull, republish, pull) twice.
    let pair = |run: &mut Run<'_>, env: &mut Env, n: u64, record: bool| {
        let (doc_id, doc) = (&docs[0].0, &docs[0].1);
        let traced = run.traced(n);
        for half in 0..2u64 {
            run.policy_update(env, traced, record);
            run.pull(env, 0, &keys, doc_id, doc, traced, 4 * n + 2 * half, record);
            run.republish(env, doc_id, doc, traced, record);
            run.pull(
                env,
                0,
                &keys,
                doc_id,
                doc,
                traced,
                4 * n + 2 * half + 1,
                record,
            );
        }
    };
    let warm = Instant::now();
    let mut n = 0u64;
    while n < cfg.warmup.div_ceil(4) as u64 || warm.elapsed().as_secs_f64() < cfg.warmup_seconds {
        pair(&mut run, &mut env, n, false);
        n += 1;
    }
    run.open_window(&env);
    let mut pairs = 0u64;
    while !run.done() {
        pair(&mut run, &mut env, n + pairs, true);
        pairs += 1;
        if run.slice_over() {
            run.burst(&mut env, &docs, 0, &build);
        }
    }
    run.close_window(&env);
    run.final_checks(&env, &docs);
    Ok(run.finish())
}

/// A view that landed at a fleet terminal.
#[derive(Debug)]
struct Landed {
    latency_ns: u64,
    at: Instant,
    view: String,
}

/// The closed-loop fleet adapter: a terminal that pulls its folder
/// `remaining` times over the card path, connecting the next pull as soon
/// as its view lands. The scheduler sees one long-lived session per
/// terminal.
struct FleetTerminal<'a> {
    client: &'a Client,
    doc_id: &'a str,
    remaining: usize,
    session: Option<CardSession>,
    view_start: Instant,
    root: Option<usize>,
    view: u64,
    rec: Recorder,
    landed: Vec<Landed>,
    counts: ViewCounts,
}

impl<'a> FleetTerminal<'a> {
    fn new(
        client: &'a Client,
        doc_id: &'a str,
        pulls: usize,
        first_view: u64,
        rec: Recorder,
    ) -> Result<Self, String> {
        let mut terminal = FleetTerminal {
            client,
            doc_id,
            remaining: pulls,
            session: None,
            view_start: Instant::now(),
            root: None,
            view: first_view,
            rec,
            landed: Vec::with_capacity(pulls),
            counts: ViewCounts::default(),
        };
        terminal.begin()?;
        Ok(terminal)
    }

    /// Connects the next pull.
    fn begin(&mut self) -> Result<(), String> {
        self.view_start = Instant::now();
        self.root = self.rec.open_at("view", None, self.view, self.view_start);
        let (client, doc_id) = (self.client, self.doc_id);
        let session = self
            .rec
            .time("proxy.connect", self.root, self.view, || {
                client.connect(doc_id)
            })
            .map_err(|e| format!("connect {doc_id}: {e}"))?;
        self.session = Some(session);
        self.remaining -= 1;
        Ok(())
    }
}

impl Schedulable for FleetTerminal<'_> {
    fn step(&mut self, quantum: usize) -> Result<StepOutcome, String> {
        let Some(session) = self.session.as_mut() else {
            return Ok(StepOutcome::Complete);
        };
        let outer = self.rec.open("terminal.step", self.root, self.view);
        let inner = self.rec.open("proxy.step", outer, self.view);
        let outcome = session.step(quantum);
        let now = Instant::now();
        self.rec.close_at(inner, now);
        if outcome? == StepOutcome::Pending {
            self.rec.close(outer);
            return Ok(StepOutcome::Pending);
        }
        self.rec.close_at(self.root, now);
        let session = self.session.take().expect("a session was stepped");
        self.counts.add_card(session.terminal().card_ledger());
        self.landed.push(Landed {
            latency_ns: now.duration_since(self.view_start).as_nanos() as u64,
            at: now,
            view: session.view().unwrap_or_default().to_owned(),
        });
        self.rec.close(outer);
        if self.remaining == 0 {
            return Ok(StepOutcome::Complete);
        }
        self.view += 1;
        self.begin()?;
        Ok(StepOutcome::Pending)
    }
}

/// `card-fleet`: terminals with rotating subjects each pull their own folder
/// over the APDU path, multiplexed by the default 2-worker scheduler, in
/// rounds of a fixed number of pulls per terminal.
fn card_fleet(cfg: &Config) -> Result<Report, String> {
    const SUBJECTS: [&str; 3] = ["doctor", "secretary", "researcher"];
    let n = cfg.fleet_terminals.max(1);
    let docs: Vec<(String, Document)> = (0..n)
        .map(|i| {
            (
                format!("folder-{i}"),
                inputs::hospital(cfg.fleet_folder_elements, cfg.seed, i as u64 + 1),
            )
        })
        .collect();
    let subjects: Vec<&str> = (0..n).map(|i| SUBJECTS[i % SUBJECTS.len()]).collect();
    let build = || Env::build(&docs, FLEET_CHUNK, FLEET_SHARDS, &subjects);
    let (mut run, mut env) = Run::new(cfg, build)?;
    run.e2e.fleet = true;
    let origin = run.layers.spans.origin();
    let expected: Vec<String> = (0..n)
        .map(|i| {
            run.oracle
                .expected(&docs[i].0, &docs[i].1, env.publisher.rules(), subjects[i])
                .to_owned()
        })
        .collect();
    let scheduler =
        SessionScheduler::new(FLEET_WORKERS, FLEET_QUANTUM).with_obs(env.service().obs());

    let warm = Instant::now();
    let mut r = 0u64;
    while r < 1 || warm.elapsed().as_secs_f64() < cfg.warmup_seconds {
        fleet_round(cfg, &scheduler, &env, &docs, origin, r, false)?;
        r += 1;
    }
    run.open_window(&env);
    let mut rounds = 0u64;
    while !run.done() {
        let traced = run.traced(rounds);
        let unit = r + rounds;
        let round = fleet_round(cfg, &scheduler, &env, &docs, origin, unit, traced);
        let (terminals, steps, wall) = match round {
            Ok(done) => done,
            Err(e) => {
                run.tally.check(false, || e);
                break;
            }
        };
        let mut landings: Vec<Instant> = Vec::new();
        let mut views = 0u64;
        for (t, terminal) in terminals.into_iter().enumerate() {
            for landed in &terminal.landed {
                run.tally.check(landed.view == expected[t], || {
                    format!("fleet view of {} differs from the oracle", docs[t].0)
                });
                let view_ms = landed.latency_ns as f64 / 1e6;
                if traced {
                    run.layers.traced_view_ms.push(view_ms);
                } else {
                    run.e2e.block.view_ms.push(view_ms);
                    run.layers.untraced_view_ms.push(view_ms);
                    landings.push(landed.at);
                }
            }
            views += terminal.landed.len() as u64;
            run.layers.counts.merge(&terminal.counts);
            run.layers.spans.absorb(terminal.rec);
        }
        run.layers.sched_steps += steps;
        run.layers.sched_views += views;
        run.served(views);
        if traced {
            run.layers.sched_capacity_ns += FLEET_WORKERS as u64 * wall.as_nanos() as u64;
        } else {
            let block = &mut run.e2e.block;
            block.busy_ns += wall.as_nanos() as u64;
            landings.sort();
            for pair in landings.windows(2) {
                let gap = pair[1].duration_since(pair[0]).as_nanos() as u64;
                block.gaps.record(gap);
            }
            block.rounds += 1;
            if block.rounds >= BLOCK_ROUNDS {
                run.e2e.close_block();
            }
            for _ in 0..FLEET_REFERENCE_JOBS {
                run.e2e.reference.sample();
            }
        }
        rounds += 1;
        if run.slice_over() {
            run.burst(&mut env, &docs, BURST_WRITES, &build);
        }
    }
    run.close_window(&env);
    // The card discards its session statistics when the session closes, so
    // the SOE-side counts and peak RAM of each terminal's view come from one
    // in-process pull of the same folder after the window: same engine,
    // same RAM budget.
    for stats in run.final_checks(&env, &docs) {
        run.e2e.peak_ram = run.e2e.peak_ram.max(stats.peak_ram_bytes);
        run.layers.counts.add_session(&stats);
    }
    Ok(run.finish())
}

/// One fleet round: every terminal pulls `cfg.fleet_pulls` times. Returns
/// the terminals in submission order, the steps granted and the wall time.
fn fleet_round<'a>(
    cfg: &Config,
    scheduler: &SessionScheduler,
    env: &'a Env,
    docs: &'a [(String, Document)],
    origin: Instant,
    r: u64,
    traced: bool,
) -> Result<(Vec<FleetTerminal<'a>>, u64, Duration), String> {
    let start = Instant::now();
    let terminals = env
        .clients
        .iter()
        .zip(docs)
        .enumerate()
        .map(|(t, (client, (doc_id, _)))| {
            FleetTerminal::new(
                client,
                doc_id,
                cfg.fleet_pulls.max(1),
                (r << 32) | ((t as u64) << 16),
                Recorder::new(traced, origin),
            )
        })
        .collect::<Result<Vec<_>, String>>()?;
    let report = scheduler.run(terminals);
    let wall = start.elapsed();
    if let Some((index, error)) = report.failures().first() {
        return Err(format!("terminal {index} failed: {error}"));
    }
    let mut finished: Vec<_> = report
        .finished
        .into_iter()
        .map(|f| (f.index, f.session))
        .collect();
    finished.sort_by_key(|f| f.0);
    let terminals = finished.into_iter().map(|f| f.1).collect();
    Ok((terminals, report.steps_total as u64, wall))
}
