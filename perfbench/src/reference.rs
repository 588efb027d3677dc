//! A fixed job of general-purpose code, timed next to the program in every
//! run, that scales the run's timings to one host speed.
//!
//! On a shared machine the speed of the same code moves with the load other
//! tenants put on the host: in steps that last from seconds to whole runs,
//! views, writes and set-ups ran up to 1.8 times slower by thread CPU time,
//! with no steal and a fixed clock. Tight arithmetic and table-lookup loops
//! kept their speed through those steps; code that allocates, formats,
//! sorts and hashes slowed with the program (over 50 runs of `pull-doctor`
//! and `policy-churn` the log of this job's 1st-percentile time correlated
//! 0.98–0.99 with the log of the views' 1st-percentile time). So the
//! timings of a run are multiplied by `REFERENCE_US / t`, where `t` is the
//! job's 1st-percentile time in that run: they read as the time on a host
//! where the job takes `REFERENCE_US`.
//! The job is the benchmark's own code, so a change to the program moves
//! the program's timings and not the job's.

use std::collections::HashMap;
use std::hint::black_box;

use crate::inputs::thread_cpu_time;
use crate::stats::Samples;

/// The job's time on the reference host, µs. Only the unit of the scaled
/// timings depends on it: on a shared 2-vCPU machine the job's 1st
/// percentile ranged from 61 to 117 µs per run, and 75 µs was typical of
/// its quieter stretches, so scaled timings read close to the milliseconds
/// of such a stretch.
pub const REFERENCE_US: f64 = 75.0;

/// The job's timings in one run.
#[derive(Debug, Default)]
pub struct Reference {
    samples: Samples,
}

impl Reference {
    /// Runs and times the job once.
    pub fn sample(&mut self) {
        let start = thread_cpu_time();
        black_box(job());
        self.samples
            .push((thread_cpu_time() - start).as_secs_f64() * 1e6);
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The job's 1st-percentile time in this run, µs.
    pub fn p01_us(&mut self) -> f64 {
        self.samples.quantile(0.01)
    }

    /// Factor that takes a time measured in this run to the reference host
    /// (1 when the job was never timed).
    pub fn scale(&mut self) -> f64 {
        if self.samples.is_empty() {
            return 1.0;
        }
        REFERENCE_US / self.p01_us()
    }
}

/// Formats 300 short keys, sorts them and counts them in a hash map.
fn job() -> usize {
    let mut x = black_box(0x9E37_79B9u32);
    let mut keys: Vec<String> = (0..300)
        .map(|i| {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            format!("k{}-{i}", x % 1000)
        })
        .collect();
    keys.sort();
    let mut counts: HashMap<&str, usize> = HashMap::new();
    for (i, key) in keys.iter().enumerate() {
        *counts.entry(key.as_str()).or_default() += i;
    }
    counts.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_one_until_the_job_is_timed() {
        let mut r = Reference::default();
        assert_eq!(r.scale(), 1.0);
        r.sample();
        assert_eq!(r.len(), 1);
        assert!(r.scale() > 0.0 && r.scale().is_finite());
    }

    #[test]
    fn the_job_is_fixed() {
        assert_eq!(job(), job());
    }
}
