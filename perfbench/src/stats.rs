//! Order statistics and the metric records the benchmark prints.

use std::fmt::Write as _;

/// Quantile `q` (0..=1) of `sorted`, linearly interpolated between the two
/// closest ranks (the "type 7" estimator). `sorted` must be ascending.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// A growable set of samples (durations or sizes).
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn new() -> Self {
        Samples::default()
    }

    pub fn push(&mut self, value: f64) {
        self.values.push(value);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn quantile(&mut self, q: f64) -> f64 {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        quantile_sorted(&self.values, q)
    }

    pub fn median(&mut self) -> f64 {
        self.quantile(0.5)
    }
}

/// Histogram of nanosecond intervals with 128 linear sub-buckets per power
/// of two (under 0.8% relative width), for quantiles over millions of
/// event gaps without keeping them all. A quantile is interpolated inside
/// its bucket, so it is not snapped to a bucket edge.
#[derive(Debug, Clone)]
pub struct GapHistogram {
    counts: Vec<u64>,
    total: u64,
}

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;

impl Default for GapHistogram {
    fn default() -> Self {
        GapHistogram {
            counts: vec![0; (64 * SUB) as usize],
            total: 0,
        }
    }
}

impl GapHistogram {
    fn bucket(value: u64) -> usize {
        if value < SUB {
            return value as usize;
        }
        let octave = 63 - value.leading_zeros() - SUB_BITS;
        let sub = (value >> octave) - SUB;
        ((u64::from(octave) + 1) * SUB + sub) as usize
    }

    /// `[lo, hi)` value range of bucket `index`.
    fn bounds(index: usize) -> (f64, f64) {
        let index = index as u64;
        if index < SUB {
            return (index as f64, (index + 1) as f64);
        }
        let octave = index / SUB - 1;
        let sub = index % SUB + SUB;
        ((sub << octave) as f64, ((sub + 1) << octave) as f64)
    }

    pub fn record(&mut self, nanos: u64) {
        self.counts[Self::bucket(nanos)] += 1;
        self.total += 1;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.total = 0;
    }

    /// Quantile `q` in nanoseconds (NaN when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return f64::NAN;
        }
        let rank = (q * self.total as f64).max(1.0);
        let mut seen = 0u64;
        for (index, &count) in self.counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            if (seen + count) as f64 >= rank {
                let (lo, hi) = Self::bounds(index);
                let within = (rank - seen as f64) / count as f64;
                return lo + (hi - lo) * within;
            }
            seen += count;
        }
        f64::NAN
    }
}

/// One printed metric: its value, unit and the number of samples behind it
/// (views, spans or operations).
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Self {
        Metric {
            name,
            value,
            unit,
            samples,
        }
    }
}

/// Formats a finite float with all its digits (and `null` otherwise, which
/// the result check rejects).
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_owned()
    }
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let mut s = Samples::new();
        for v in [4.0, 1.0, 3.0, 2.0] {
            s.push(v);
        }
        assert_eq!(s.median(), 2.5);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 4.0);
    }

    #[test]
    fn gap_histogram_quantiles_stay_within_a_bucket() {
        let mut h = GapHistogram::default();
        for v in 1..=10_000u64 {
            h.record(v * 37);
        }
        let p99 = h.quantile(0.99);
        let exact = 9_900.0 * 37.0;
        assert!((p99 - exact).abs() / exact < 0.01, "{p99} vs {exact}");
        for v in [0u64, 1, 127, 128, 129, 1 << 20, (1 << 40) + 12_345] {
            let (lo, hi) = GapHistogram::bounds(GapHistogram::bucket(v));
            assert!(lo <= v as f64 && (v as f64) < hi, "{v}: [{lo}, {hi})");
        }
    }

    #[test]
    fn cleared_gap_histogram_forgets_earlier_gaps() {
        let mut h = GapHistogram::default();
        h.record(1_000_000);
        h.clear();
        assert_eq!(h.count(), 0);
        assert!(h.quantile(0.5).is_nan());
        h.record(500);
        assert_eq!(h.count(), 1);
        assert!(h.quantile(0.99) < 1_000.0);
    }
}
