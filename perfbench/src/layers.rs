//! Per-layer metrics of a traced run, computed from the spans and from the
//! work counters the sessions report.
//!
//! Every traced run prints every metric below. A layer the workload does not
//! enter from the benchmark's side reads 0: the in-process pulls make no
//! APDU exchange and have no scheduler, and on `card-fleet` the SOE runs
//! inside the card, so its open and chunk-supply time is part of
//! `proxy.step_us_per_view` rather than of a `core.*` span.

use sdds::card::CostLedger;
use sdds::core::engine::SessionStats;

use crate::stats::{Metric, Samples};
use crate::trace::{self, Recorder, Span};

/// Work counters summed over a fixed set of views: the SOE's own session
/// statistics (`views`) and, for card pulls, the card's ledger
/// (`card_views`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ViewCounts {
    pub views: u64,
    pub events_processed: u64,
    pub events_delivered: u64,
    pub bytes_skipped: u64,
    pub chunks_skipped: u64,
    pub bytes_decrypted: u64,
    pub bytes_hashed: u64,
    pub card_views: u64,
    pub card_apdus: u64,
    pub card_events: u64,
    pub card_bytes_decrypted: u64,
    pub card_bytes_hashed: u64,
}

impl ViewCounts {
    /// Adds one view's SOE session statistics.
    pub fn add_session(&mut self, stats: &SessionStats) {
        self.views += 1;
        self.events_processed += stats.ledger.events_processed as u64;
        self.events_delivered += stats.evaluator.as_ref().map_or(0, |e| e.events_out) as u64;
        self.bytes_skipped += stats.ledger.bytes_skipped as u64;
        self.chunks_skipped += stats.chunks_skipped as u64;
        self.bytes_decrypted += stats.ledger.bytes_decrypted as u64;
        self.bytes_hashed += stats.ledger.bytes_hashed as u64;
    }

    /// Adds one card pull's ledger (APDUs, delivered events, crypto work).
    pub fn add_card(&mut self, ledger: &CostLedger) {
        self.card_views += 1;
        self.card_apdus += ledger.channel.apdu_exchanges as u64;
        self.card_events += ledger.events_processed as u64;
        self.card_bytes_decrypted += ledger.bytes_decrypted as u64;
        self.card_bytes_hashed += ledger.bytes_hashed as u64;
    }

    pub fn merge(&mut self, other: &ViewCounts) {
        self.views += other.views;
        self.events_processed += other.events_processed;
        self.events_delivered += other.events_delivered;
        self.bytes_skipped += other.bytes_skipped;
        self.chunks_skipped += other.chunks_skipped;
        self.bytes_decrypted += other.bytes_decrypted;
        self.bytes_hashed += other.bytes_hashed;
        self.card_views += other.card_views;
        self.card_apdus += other.card_apdus;
        self.card_events += other.card_events;
        self.card_bytes_decrypted += other.card_bytes_decrypted;
        self.card_bytes_hashed += other.card_bytes_hashed;
    }

    fn per_view(&self, total: u64) -> f64 {
        total as f64 / self.views.max(1) as f64
    }

    fn per_card_view(&self, total: u64) -> f64 {
        total as f64 / self.card_views.max(1) as f64
    }

    /// Crypto work per view: the card's ledger for card pulls, the SOE
    /// session's otherwise.
    fn crypto_per_view(&self) -> (f64, f64, usize) {
        if self.card_views > 0 {
            (
                self.per_card_view(self.card_bytes_decrypted),
                self.per_card_view(self.card_bytes_hashed),
                self.card_views as usize,
            )
        } else {
            (
                self.per_view(self.bytes_decrypted),
                self.per_view(self.bytes_hashed),
                self.views as usize,
            )
        }
    }
}

/// Everything a traced run gathers for the per-layer metrics.
#[derive(Debug)]
pub struct Layers {
    pub spans: Recorder,
    pub counts: ViewCounts,
    /// Views served while the DSP counters below were read.
    pub served_views: u64,
    /// Chunk requests the DSP served over those views.
    pub chunks_served: u64,
    /// Sum of `dsp.serve.latency_ns` over those views.
    pub serve_ns: u64,
    /// Scheduler steps granted, and the views they served.
    pub sched_steps: u64,
    pub sched_views: u64,
    /// Worker time available during traced scheduler rounds
    /// (workers × wall), nanoseconds.
    pub sched_capacity_ns: u64,
    /// View times of the untraced and the traced views, milliseconds.
    pub untraced_view_ms: Samples,
    pub traced_view_ms: Samples,
}

impl Layers {
    pub fn new(spans: Recorder) -> Self {
        Layers {
            spans,
            counts: ViewCounts::default(),
            served_views: 0,
            chunks_served: 0,
            serve_ns: 0,
            sched_steps: 0,
            sched_views: 0,
            sched_capacity_ns: 0,
            untraced_view_ms: Samples::new(),
            traced_view_ms: Samples::new(),
        }
    }
}

/// Index of the root span of every span (parents precede their children).
fn roots(spans: &[Span]) -> Vec<usize> {
    let mut root = Vec::with_capacity(spans.len());
    for (i, s) in spans.iter().enumerate() {
        let r = s.parent.map_or(i, |p| root[p]);
        root.push(r);
    }
    root
}

/// For every root span named `root_name`: the summed duration (ns) and the
/// number of its descendants named in `names`.
fn per_root(spans: &[Span], root_name: &str, names: &[&str]) -> Vec<(u64, u64)> {
    let root = roots(spans);
    let mut slot = vec![usize::MAX; spans.len()];
    let mut out: Vec<(u64, u64)> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        if s.parent.is_none() && s.name == root_name {
            slot[i] = out.len();
            out.push((0, 0));
        }
    }
    for (i, s) in spans.iter().enumerate() {
        let r = root[i];
        if r != i && slot[r] != usize::MAX && names.contains(&s.name) {
            let entry = &mut out[slot[r]];
            entry.0 += s.duration_ns();
            entry.1 += 1;
        }
    }
    out
}

fn median_us(values: impl IntoIterator<Item = u64>) -> (f64, usize) {
    let mut samples = Samples::new();
    for v in values {
        samples.push(v as f64 / 1e3);
    }
    let n = samples.len();
    if n == 0 {
        (0.0, 0)
    } else {
        (samples.median(), n)
    }
}

/// Median over the `root_name` roots that contain spans named in `names`
/// of their summed time.
fn root_median_us(spans: &[Span], root_name: &str, names: &[&str]) -> (f64, usize) {
    median_us(
        per_root(spans, root_name, names)
            .into_iter()
            .filter(|&(_, count)| count > 0)
            .map(|(ns, _)| ns),
    )
}

/// Durations of the spans named `name`, microseconds, and their number.
fn span_quantiles_us(spans: &[Span], name: &str) -> (Samples, usize) {
    let mut samples = Samples::new();
    for s in spans.iter().filter(|s| s.name == name) {
        samples.push(s.duration_ns() as f64 / 1e3);
    }
    let n = samples.len();
    (samples, n)
}

/// The per-layer metrics, in the order `BENCHMARK.json` lists them.
pub fn metrics(layers: &mut Layers) -> Vec<Metric> {
    let spans = layers.spans.spans();
    let c = layers.counts;
    let views = layers.served_views.max(1) as f64;
    let mut out = Vec::new();

    let (fetch_chunk, n) = root_median_us(spans, "view", &["dsp.fetch_chunk"]);
    out.push(Metric::new(
        "dsp.fetch_chunk_us_per_view",
        fetch_chunk,
        "us",
        n,
    ));
    out.push(Metric::new(
        "dsp.chunks_served_per_view",
        layers.chunks_served as f64 / views,
        "count",
        layers.served_views as usize,
    ));
    let (fetch_open, n) = root_median_us(spans, "view", &["dsp.fetch_header", "dsp.fetch_rules"]);
    out.push(Metric::new("dsp.fetch_open_us", fetch_open, "us", n));
    let serve_us = layers.serve_ns as f64 / 1e3 / views;
    out.push(Metric::new(
        "dsp.serve_us_per_view",
        serve_us,
        "us",
        layers.served_views as usize,
    ));
    let (mut put_doc, n) = span_quantiles_us(spans, "dsp.put_document");
    out.push(Metric::new(
        "dsp.put_document_us",
        if n > 0 { put_doc.median() } else { 0.0 },
        "us",
        n,
    ));
    let (put_rules, n) = root_median_us(spans, "policy_update", &["dsp.put_rules"]);
    out.push(Metric::new(
        "dsp.put_rules_us_per_update",
        put_rules,
        "us",
        n,
    ));

    let (rules_open, n) = root_median_us(
        spans,
        "view",
        &["session.unwrap_keys", "session.rules_open"],
    );
    out.push(Metric::new("session.rules_open_us", rules_open, "us", n));
    let updates = per_root(spans, "policy_update", &["session.seal"]);
    let (seal, n) = median_us(updates.iter().map(|&(ns, _)| ns));
    out.push(Metric::new("session.seal_us_per_update", seal, "us", n));
    let blobs: u64 = updates.iter().map(|&(_, count)| count).sum();
    out.push(Metric::new(
        "session.blobs_per_update",
        blobs as f64 / updates.len().max(1) as f64,
        "count",
        updates.len(),
    ));

    let (open, n) = root_median_us(spans, "view", &["core.open"]);
    out.push(Metric::new("core.open_us", open, "us", n));
    let (supply, n) = root_median_us(spans, "view", &["core.supply_chunk"]);
    out.push(Metric::new(
        "core.supply_chunk_us_per_view",
        supply,
        "us",
        n,
    ));
    let (mut supply_spans, n) = span_quantiles_us(spans, "core.supply_chunk");
    out.push(Metric::new(
        "core.supply_chunk_p99_us",
        if n > 0 {
            supply_spans.quantile(0.99)
        } else {
            0.0
        },
        "us",
        n,
    ));
    let nv = c.views as usize;
    out.push(Metric::new(
        "core.events_processed_per_view",
        c.per_view(c.events_processed),
        "count",
        nv,
    ));
    out.push(Metric::new(
        "core.bytes_skipped_per_view",
        c.per_view(c.bytes_skipped),
        "B",
        nv,
    ));
    out.push(Metric::new(
        "core.chunks_skipped_per_view",
        c.per_view(c.chunks_skipped),
        "count",
        nv,
    ));
    out.push(Metric::new(
        "core.delivered_per_processed",
        c.events_delivered as f64 / c.events_processed.max(1) as f64,
        "ratio",
        nv,
    ));
    let (mut build, n) = span_quantiles_us(spans, "core.secdoc_build");
    out.push(Metric::new(
        "core.secdoc_build_ms",
        if n > 0 { build.median() / 1e3 } else { 0.0 },
        "ms",
        n,
    ));

    let (decrypted, hashed, crypto_views) = c.crypto_per_view();
    out.push(Metric::new(
        "crypto.bytes_decrypted_per_view",
        decrypted,
        "B",
        crypto_views,
    ));
    out.push(Metric::new(
        "crypto.bytes_hashed_per_view",
        hashed,
        "B",
        crypto_views,
    ));

    let (mut connect, n) = span_quantiles_us(spans, "proxy.connect");
    out.push(Metric::new(
        "proxy.connect_us",
        if n > 0 { connect.median() } else { 0.0 },
        "us",
        n,
    ));
    let (step, n) = root_median_us(spans, "view", &["proxy.step"]);
    let proxy_step = if n > 0 {
        (step - serve_us).max(0.0)
    } else {
        0.0
    };
    out.push(Metric::new("proxy.step_us_per_view", proxy_step, "us", n));
    let card_views = c.card_views as usize;
    out.push(Metric::new(
        "card.apdus_per_view",
        c.per_card_view(c.card_apdus),
        "count",
        card_views,
    ));
    out.push(Metric::new(
        "card.events_processed_per_view",
        c.per_card_view(c.card_events),
        "count",
        card_views,
    ));

    // Scheduler: a fleet view's root span covers connect to landing; its
    // self time is the time the terminal waited for a worker.
    let selfs = trace::self_times(spans);
    let mut is_fleet_view = vec![false; spans.len()];
    for s in spans.iter().filter(|s| s.name == "terminal.step") {
        if let Some(p) = s.parent {
            is_fleet_view[p] = true;
        }
    }
    let fleet_views: Vec<usize> = (0..spans.len()).filter(|&i| is_fleet_view[i]).collect();
    let (wait, n) = median_us(fleet_views.iter().map(|&i| selfs[i]));
    out.push(Metric::new("sched.wait_us_per_view", wait, "us", n));
    let busy_ns: u64 = spans
        .iter()
        .filter(|s| s.name == "terminal.step")
        .map(Span::duration_ns)
        .sum();
    out.push(Metric::new(
        "sched.busy_share",
        if layers.sched_capacity_ns > 0 {
            busy_ns as f64 / layers.sched_capacity_ns as f64
        } else {
            0.0
        },
        "share",
        n,
    ));
    out.push(Metric::new(
        "sched.steps_per_view",
        layers.sched_steps as f64 / layers.sched_views.max(1) as f64,
        "count",
        layers.sched_views as usize,
    ));

    // Residual: view time that no layer span covers. For a pull it is the
    // root's self time; for a fleet view, whose self time is the scheduler
    // wait, it is the adapter's own share of each step.
    let mut residual_ns = 0u64;
    let mut view_ns = 0u64;
    for (i, s) in spans.iter().enumerate() {
        if s.parent.is_none() && s.name == "view" {
            view_ns += s.duration_ns();
            if !is_fleet_view[i] {
                residual_ns += selfs[i];
            }
        } else if s.name == "terminal.step" {
            residual_ns += selfs[i];
        }
    }
    out.push(Metric::new(
        "facade.residual_share",
        residual_ns as f64 / view_ns.max(1) as f64,
        "share",
        layers.traced_view_ms.len(),
    ));
    let untraced = layers.untraced_view_ms.median();
    let traced = layers.traced_view_ms.median();
    out.push(Metric::new(
        "trace.overhead_pct",
        (traced / untraced - 1.0) * 100.0,
        "%",
        layers.traced_view_ms.len(),
    ));
    out
}
