//! Inputs generated from the seed, and the oracle the outputs are checked
//! against.
//!
//! The seed goes to the document generator only; the program under test
//! receives the generated documents and the fixed policy below.

use std::collections::HashMap;

use sdds::core::baseline::authorized_view_oracle;
use sdds::xml::generator::{Corpus, GeneratorConfig};
use sdds::xml::writer;
use sdds::{AccessPolicy, Document, Event, RuleSet, Subject};

/// Community secret of every benchmark publisher.
pub const SECRET: &[u8] = b"sdds-perfbench";

/// The medical policy: the doctor is permissive, the secretary restrictive.
pub fn medical_rules() -> RuleSet {
    RuleSet::parse(
        "+, doctor, //patient\n\
         -, doctor, //patient/ssn\n\
         +, secretary, //patient/name\n\
         +, secretary, //patient/address\n\
         +, researcher, //diagnosis\n\
         +, auditor, //acts/act[@type = \"surgery\"]/report",
    )
    .expect("the static policy parses")
}

/// A hospital document of about `elements` elements. `salt` tells apart
/// the documents of one workload that share a seed.
pub fn hospital(elements: usize, seed: u64, salt: u64) -> Document {
    let cfg = GeneratorConfig {
        seed: seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        ..GeneratorConfig::default()
    };
    Corpus::Hospital.generate(elements, &cfg)
}

/// Expected views, computed by the reference oracle on first use and kept
/// per (document, subject, policy text).
#[derive(Debug, Default)]
pub struct Oracle {
    views: HashMap<(String, String, String), String>,
}

impl Oracle {
    pub fn expected(
        &mut self,
        doc_id: &str,
        doc: &Document,
        rules: &RuleSet,
        subject: &str,
    ) -> &str {
        let key = (doc_id.to_owned(), subject.to_owned(), rules.to_text());
        self.views.entry(key).or_insert_with(|| {
            let events = authorized_view_oracle(
                doc,
                rules,
                &Subject::new(subject),
                None,
                &AccessPolicy::paper(),
            );
            writer::to_string(&events)
        })
    }

    /// True when `events` render to the oracle view.
    pub fn check(
        &mut self,
        doc_id: &str,
        doc: &Document,
        rules: &RuleSet,
        subject: &str,
        events: &[Event],
    ) -> bool {
        writer::to_string(events) == self.expected(doc_id, doc, rules, subject)
    }
}

/// Peak resident set of this process, MiB (from `/proc/self/status`).
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Time the machine's CPUs spent running (user, nice, system, irq, softirq
/// and steal) and, of that, the time the hypervisor stole, in ticks from the
/// first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTicks {
    running: u64,
    stolen: u64,
}

impl CpuTicks {
    /// The counters now (zero where `/proc/stat` cannot be read, so that
    /// nothing is discounted).
    pub fn now() -> CpuTicks {
        let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
            return CpuTicks::default();
        };
        let fields: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or_default()
            .split_whitespace()
            .skip(1)
            .map(|v| v.parse().unwrap_or(0))
            .collect();
        let at = |i: usize| fields.get(i).copied().unwrap_or(0);
        // user nice system idle iowait irq softirq steal
        CpuTicks {
            running: at(0) + at(1) + at(2) + at(5) + at(6) + at(7),
            stolen: at(7),
        }
    }

    /// The ticks that passed since the `earlier` reading.
    pub fn since(self, earlier: CpuTicks) -> CpuTicks {
        CpuTicks {
            running: self.running.saturating_sub(earlier.running),
            stolen: self.stolen.saturating_sub(earlier.stolen),
        }
    }

    /// Share of the running time of an interval that was stolen, capped at
    /// 3/4. A halted vCPU accrues no steal, so this is the share of its time
    /// a runnable thread lost, however many threads ran.
    pub fn stolen_share(self) -> f64 {
        if self.running == 0 {
            return 0.0;
        }
        (self.stolen as f64 / self.running as f64).min(0.75)
    }
}

/// CPU time the calling thread has run (`CLOCK_THREAD_CPUTIME_ID`). With
/// paravirtual steal accounting the kernel leaves out the time the
/// hypervisor stole, so for work that runs on one thread and never waits
/// this is its wall-clock time on an unshared machine.
pub fn thread_cpu_time() -> std::time::Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    std::time::Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}
