//! Lock-free metric primitives and the registry that snapshots them.
//!
//! Recording is wait-free: every handle is a cheap `Arc` clone around
//! relaxed atomics, so hot paths pay one `fetch_add` per event and never
//! take a lock. The registry's mutex is touched only at registration and
//! snapshot time.

use std::fmt::Write as _;

use sdds_sync::sync::atomic::{AtomicU64, Ordering};
use sdds_sync::sync::{Arc, Mutex, MutexExt};

/// Number of power-of-two latency buckets: bucket 0 holds `{0, 1}`, bucket
/// `i` holds `[2^i, 2^(i+1))`, and the last bucket tops out near 2^48
/// nanoseconds (≈ 3.3 days) — wide enough for any latency this workspace
/// can produce.
pub const HISTOGRAM_BUCKETS: usize = 48;

/// Inclusive upper bound of histogram bucket `index`.
pub fn bucket_upper_bound(index: usize) -> u64 {
    if index == 0 {
        1
    } else {
        (2u64 << index.min(HISTOGRAM_BUCKETS - 1)) - 1
    }
}

/// Bucket index a recorded value falls into.
pub fn bucket_index(value: u64) -> usize {
    if value <= 1 {
        0
    } else {
        ((63 - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// A monotone event counter; cloning shares the underlying cell.
#[derive(Clone, Debug)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Default for Counter {
    fn default() -> Self {
        Counter {
            value: Arc::new(AtomicU64::new(0)),
        }
    }
}

impl Counter {
    /// A fresh, unregistered counter (useful for detached components).
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Resets to zero.
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// An instantaneous level (queue depth, in-flight sessions) with a
/// best-effort high-water mark; cloning shares the underlying cells.
#[derive(Clone, Debug)]
pub struct Gauge {
    value: Arc<AtomicU64>,
    peak: Arc<AtomicU64>,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge {
            value: Arc::new(AtomicU64::new(0)),
            peak: Arc::new(AtomicU64::new(0)),
        }
    }
}

impl Gauge {
    /// A fresh, unregistered gauge.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the current level and folds it into the high-water mark. The
    /// peak is best-effort under concurrent writers (a racing lower store
    /// can shadow a higher one); every recorded peak is some observed level.
    pub fn set(&self, level: u64) {
        self.value.store(level, Ordering::Relaxed);
        if level > self.peak.load(Ordering::Relaxed) {
            self.peak.store(level, Ordering::Relaxed);
        }
    }

    /// Current level.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// High-water mark since the last reset.
    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }

    /// Resets level and peak to zero.
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
        self.peak.store(0, Ordering::Relaxed);
    }
}

/// Shared state of a [`Histogram`].
#[derive(Debug)]
struct HistogramCells {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

/// A fixed-bucket log-scale histogram; cloning shares the underlying cells.
///
/// Recording is three relaxed `fetch_add`s plus a best-effort max update
/// (the shims expose no `fetch_max`, so a racing smaller store can shadow a
/// larger one; the reported max is always some recorded value).
#[derive(Clone, Debug)]
pub struct Histogram {
    cells: Arc<HistogramCells>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            cells: Arc::new(HistogramCells {
                buckets: (0..HISTOGRAM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                max: AtomicU64::new(0),
            }),
        }
    }
}

impl Histogram {
    /// A fresh, unregistered histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        if let Some(bucket) = self.cells.buckets.get(bucket_index(value)) {
            bucket.fetch_add(1, Ordering::Relaxed);
        }
        self.cells.count.fetch_add(1, Ordering::Relaxed);
        self.cells.sum.fetch_add(value, Ordering::Relaxed);
        if value > self.cells.max.load(Ordering::Relaxed) {
            self.cells.max.store(value, Ordering::Relaxed);
        }
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.cells.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .cells
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.cells.count.load(Ordering::Relaxed),
            sum: self.cells.sum.load(Ordering::Relaxed),
            max: self.cells.max.load(Ordering::Relaxed),
        }
    }

    /// Clears every bucket and the summary cells.
    pub fn reset(&self) {
        for bucket in &self.cells.buckets {
            bucket.store(0, Ordering::Relaxed);
        }
        self.cells.count.store(0, Ordering::Relaxed);
        self.cells.sum.store(0, Ordering::Relaxed);
        self.cells.max.store(0, Ordering::Relaxed);
    }
}

/// A plain-data copy of a histogram, mergeable and queryable.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (see [`bucket_upper_bound`]).
    pub buckets: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample (best-effort under concurrent recording).
    pub max: u64,
}

impl HistogramSnapshot {
    /// Folds `other` into `self`: buckets, counts and sums add, max takes
    /// the larger — associative and commutative, so shard snapshots can be
    /// merged in any order.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Upper-bound estimate of the `q`-quantile (`0.0 ..= 1.0`): the bucket
    /// ceiling the sample at that rank falls under, clamped to the observed
    /// max. For any sample `v >= 1` the estimate `e` satisfies
    /// `v <= e < 2 * v`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (index, &bucket) in self.buckets.iter().enumerate() {
            seen += bucket;
            if seen >= rank {
                return bucket_upper_bound(index).min(self.max);
            }
        }
        self.max
    }

    /// Median estimate.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile estimate.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// One registered metric.
#[derive(Clone, Debug)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

#[derive(Clone, Debug)]
struct Entry {
    family: &'static str,
    label: Option<String>,
    metric: Metric,
}

/// The metric registry: hands out shared handles and snapshots them all.
///
/// Registration is idempotent — asking twice for the same `(family, label)`
/// returns a handle to the same cells — so detached components can register
/// lazily without coordination.
#[derive(Debug, Default)]
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn entry(
        &self,
        family: &'static str,
        label: Option<&str>,
        make: impl FnOnce() -> Metric,
    ) -> Metric {
        let mut entries = self.entries.lock_np();
        if let Some(found) = entries
            .iter()
            .find(|e| e.family == family && e.label.as_deref() == label)
        {
            // Metric handles are Arc-backed cells: the clone is a refcount bump.
            return found.metric.clone();
        }
        let metric = make();
        entries.push(Entry {
            family,
            label: label.map(str::to_owned),
            metric: metric.clone(),
        });
        metric
    }

    /// Registers (or finds) an unlabelled counter.
    pub fn counter(&self, family: &'static str) -> Counter {
        self.counter_with(family, None)
    }

    /// Registers (or finds) a counter, optionally labelled (`"shard=3"`).
    pub fn counter_with(&self, family: &'static str, label: Option<&str>) -> Counter {
        match self.entry(family, label, || Metric::Counter(Counter::new())) {
            Metric::Counter(c) => c,
            // A family re-registered under a different kind gets a detached
            // cell rather than a panic: the snapshot keeps the first kind.
            _ => Counter::new(),
        }
    }

    /// Registers (or finds) an unlabelled gauge.
    pub fn gauge(&self, family: &'static str) -> Gauge {
        match self.entry(family, None, || Metric::Gauge(Gauge::new())) {
            Metric::Gauge(g) => g,
            _ => Gauge::new(),
        }
    }

    /// Registers (or finds) an unlabelled histogram.
    pub fn histogram(&self, family: &'static str) -> Histogram {
        match self.entry(family, None, || Metric::Histogram(Histogram::new())) {
            Metric::Histogram(h) => h,
            _ => Histogram::new(),
        }
    }

    /// A point-in-time copy of every registered metric, sorted by
    /// `(family, label)` so the rendering is deterministic.
    pub fn snapshot(&self) -> ObsSnapshot {
        let entries = self.entries.lock_np();
        let mut snap = ObsSnapshot::default();
        for entry in entries.iter() {
            let key = MetricKey {
                family: entry.family.to_owned(),
                label: entry.label.clone(),
            };
            match &entry.metric {
                Metric::Counter(c) => snap.counters.push((key, c.get())),
                Metric::Gauge(g) => snap.gauges.push((
                    key,
                    GaugeSnapshot {
                        value: g.get(),
                        peak: g.peak(),
                    },
                )),
                Metric::Histogram(h) => snap.histograms.push((key, h.snapshot())),
            }
        }
        drop(entries);
        snap.counters.sort_by(|a, b| a.0.cmp(&b.0));
        snap.gauges.sort_by(|a, b| a.0.cmp(&b.0));
        snap.histograms.sort_by(|a, b| a.0.cmp(&b.0));
        snap
    }

    /// Resets every registered metric to zero.
    pub fn reset(&self) {
        let entries = self.entries.lock_np();
        for entry in entries.iter() {
            match &entry.metric {
                Metric::Counter(c) => c.reset(),
                Metric::Gauge(g) => g.reset(),
                Metric::Histogram(h) => h.reset(),
            }
        }
    }
}

/// Identity of one metric instance: family name plus optional label.
#[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Family name (see [`crate::families`]).
    pub family: String,
    /// Instance label, e.g. `shard=3` or `error=stale_revision`.
    pub label: Option<String>,
}

impl MetricKey {
    /// `family` or `family{label}` — the JSON key form.
    pub fn render(&self) -> String {
        match &self.label {
            Some(label) => format!("{}{{{label}}}", self.family),
            None => self.family.clone(),
        }
    }
}

/// Plain-data copy of a gauge: last level plus high-water mark.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GaugeSnapshot {
    /// Level at snapshot time.
    pub value: u64,
    /// High-water mark since the last reset.
    pub peak: u64,
}

/// A point-in-time copy of a whole registry, mergeable across registries
/// and renderable as JSON or Prometheus-style text.
#[derive(Clone, Debug, Default)]
pub struct ObsSnapshot {
    /// Counters as `(key, value)`.
    pub counters: Vec<(MetricKey, u64)>,
    /// Gauges as `(key, snapshot)`.
    pub gauges: Vec<(MetricKey, GaugeSnapshot)>,
    /// Histograms as `(key, snapshot)`.
    pub histograms: Vec<(MetricKey, HistogramSnapshot)>,
}

impl ObsSnapshot {
    /// Folds `other` into `self`: counters and histograms add, gauges take
    /// the elementwise max (a merged gauge reports the higher level and
    /// peak). All three folds are associative and commutative.
    pub fn merge(&mut self, other: &ObsSnapshot) {
        for (key, value) in &other.counters {
            match self.counters.iter_mut().find(|(k, _)| k == key) {
                Some((_, mine)) => *mine += value,
                None => self.counters.push((key.clone(), *value)),
            }
        }
        for (key, theirs) in &other.gauges {
            match self.gauges.iter_mut().find(|(k, _)| k == key) {
                Some((_, mine)) => {
                    mine.value = mine.value.max(theirs.value);
                    mine.peak = mine.peak.max(theirs.peak);
                }
                None => self.gauges.push((key.clone(), *theirs)),
            }
        }
        for (key, theirs) in &other.histograms {
            match self.histograms.iter_mut().find(|(k, _)| k == key) {
                Some((_, mine)) => mine.merge(theirs),
                None => self.histograms.push((key.clone(), theirs.clone())),
            }
        }
        self.counters.sort_by(|a, b| a.0.cmp(&b.0));
        self.gauges.sort_by(|a, b| a.0.cmp(&b.0));
        self.histograms.sort_by(|a, b| a.0.cmp(&b.0));
    }

    /// Sum of a counter family across all labels.
    pub fn counter(&self, family: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.family == family)
            .map(|(_, v)| v)
            .sum()
    }

    /// One labelled counter instance, 0 when absent.
    pub fn counter_with(&self, family: &str, label: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k.family == family && k.label.as_deref() == Some(label))
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// An unlabelled gauge instance.
    pub fn gauge(&self, family: &str) -> Option<GaugeSnapshot> {
        self.gauges
            .iter()
            .find(|(k, _)| k.family == family)
            .map(|(_, g)| *g)
    }

    /// A histogram family merged across all its labels; `None` when absent.
    pub fn histogram(&self, family: &str) -> Option<HistogramSnapshot> {
        let mut merged: Option<HistogramSnapshot> = None;
        for (key, hist) in &self.histograms {
            if key.family == family {
                match merged.as_mut() {
                    Some(m) => m.merge(hist),
                    None => merged = Some(hist.clone()),
                }
            }
        }
        merged
    }

    /// Renders the snapshot as a stable, self-describing JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": \"sdds-obs-v1\",\n  \"counters\": {");
        for (i, (key, value)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    \"{}\": {value}",
                json_escape(&key.render())
            );
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, (key, gauge)) in self.gauges.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    \"{}\": {{\"value\": {}, \"peak\": {}}}",
                json_escape(&key.render()),
                gauge.value,
                gauge.peak
            );
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, (key, hist)) in self.histograms.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let trimmed = hist
                .buckets
                .iter()
                .rposition(|&b| b != 0)
                .map(|last| &hist.buckets[..=last])
                .unwrap_or(&[]);
            let buckets: Vec<String> = trimmed.iter().map(u64::to_string).collect();
            let _ = write!(
                out,
                "{sep}\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"max\": {}, \
                 \"p50\": {}, \"p90\": {}, \"p99\": {}, \"buckets\": [{}]}}",
                json_escape(&key.render()),
                hist.count,
                hist.sum,
                hist.max,
                hist.p50(),
                hist.p90(),
                hist.p99(),
                buckets.join(", ")
            );
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Renders the snapshot as Prometheus-style exposition text: family
    /// names with dots folded to underscores, labels kept, histograms
    /// summarised as `quantile=`-labelled samples plus `_count` / `_sum` /
    /// `_max`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_family = "";
        for (key, value) in &self.counters {
            let name = prom_name(&key.family);
            if key.family != last_family {
                let _ = writeln!(out, "# TYPE {name} counter");
                last_family = &key.family;
            }
            let _ = writeln!(out, "{name}{} {value}", prom_label(key.label.as_deref()));
        }
        for (key, gauge) in &self.gauges {
            let name = prom_name(&key.family);
            let labels = prom_label(key.label.as_deref());
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name}{labels} {}", gauge.value);
            let _ = writeln!(out, "{name}_peak{labels} {}", gauge.peak);
        }
        for (key, hist) in &self.histograms {
            let name = prom_name(&key.family);
            let _ = writeln!(out, "# TYPE {name} summary");
            for (q, v) in [(0.5, hist.p50()), (0.9, hist.p90()), (0.99, hist.p99())] {
                let _ = writeln!(
                    out,
                    "{name}{} {v}",
                    prom_quantile_label(key.label.as_deref(), q)
                );
            }
            let labels = prom_label(key.label.as_deref());
            let _ = writeln!(out, "{name}_count{labels} {}", hist.count);
            let _ = writeln!(out, "{name}_sum{labels} {}", hist.sum);
            let _ = writeln!(out, "{name}_max{labels} {}", hist.max);
        }
        out
    }
}

fn prom_name(family: &str) -> String {
    family.replace(['.', '-'], "_")
}

fn prom_label(label: Option<&str>) -> String {
    match label.and_then(|l| l.split_once('=')) {
        Some((k, v)) => format!("{{{k}=\"{v}\"}}"),
        None => String::new(),
    }
}

fn prom_quantile_label(label: Option<&str>, q: f64) -> String {
    match label.and_then(|l| l.split_once('=')) {
        Some((k, v)) => format!("{{{k}=\"{v}\",quantile=\"{q}\"}}"),
        None => format!("{{quantile=\"{q}\"}}"),
    }
}

/// Escapes a string for use inside a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}
