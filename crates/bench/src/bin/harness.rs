//! Prints, for every experiment E1–E10 of ARCHITECTURE.md's table "Paper
//! experiments → harness sections → checked keys", the table or series the
//! paper's evaluation corresponds to.
//!
//! Run with: `cargo run -p sdds-bench --bin harness --release`
//!
//! With `--json <path>` the harness additionally writes every metric as a flat
//! JSON object (`{"schema": "...", "metrics": {"e1.rules_64.events_per_s":
//! ...}}`), one metric per line. Two checks read these keys: this binary's
//! test pins every deterministic key exactly, and `scripts/bench_gate.sh`
//! compares the wall-clock keys, those of the committed
//! `BENCH_baseline.json`, at ±15%.

use std::time::Instant;

use sdds_bench::workloads;
use sdds_card::{CardProfile, CostModel};
use sdds_core::baseline::{DomBaseline, StaticEncryptionScheme};
use sdds_core::conflict::AccessPolicy;
use sdds_core::rule::{RuleSet, Sign, Subject};
use sdds_core::secdoc::SecureDocumentBuilder;
use sdds_core::session::TrustedServer;
use sdds_core::skipindex::encode::{DocumentEncoder, EncoderConfig};
use sdds_xml::generator::{self, Corpus, GeneratorConfig};
use sdds_xml::stats::DocStats;

fn banner(id: &str, title: &str) {
    println!("\n==================================================================");
    println!("{id} — {title}");
    println!("==================================================================");
}

/// Runs `f` once; returns its result and the wall time it took, in ms.
/// Printed next to the model figures so every section also shows what its
/// workload costs on this machine (one run, not a gated metric).
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// Flat metric collector backing the `--json` report. Keys are dotted,
/// stable identifiers (`e1.rules_64.events_per_s`); values are finite numbers.
#[derive(Debug, Default)]
struct Report {
    metrics: Vec<(String, f64)>,
}

impl Report {
    fn put(&mut self, key: impl Into<String>, value: f64) {
        self.metrics.push((key.into(), value));
    }

    /// Renders the report as JSON, one metric per line (trivially greppable by
    /// the shell-side bench gate, still valid JSON for everything else).
    fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": \"sdds-bench-v1\",\n  \"metrics\": {\n");
        for (i, (key, value)) in self.metrics.iter().enumerate() {
            let sep = if i + 1 < self.metrics.len() { "," } else { "" };
            let rendered = if value.fract() == 0.0 && value.abs() < 1e15 {
                format!("{}", *value as i64)
            } else {
                format!("{value:.4}")
            };
            out.push_str(&format!("    \"{key}\": {rendered}{sep}\n"));
        }
        out.push_str("  }\n}\n");
        out
    }
}

/// Repetitions per E1 configuration: the best run is reported so that the
/// bench-regression gate compares capability, not scheduler noise.
const E1_REPS: usize = 3;

fn e1_rules_scaling(report: &mut Report) {
    banner("E1", "streaming evaluation cost vs. number of access rules");
    let doc = workloads::hospital(4_000);
    let events = doc.to_events();
    println!("document: {}", DocStats::from_events(&events).summary());
    println!(
        "{:>8} {:>14} {:>16} {:>14}",
        "#rules", "wall time (ms)", "events/s", "peak RAM (B)"
    );
    for n in [1usize, 2, 4, 8, 16, 32, 64] {
        let (stats, best) = workloads::rule_pool_evaluation(&events, n, E1_REPS);
        let peak_ram = stats.peak_ram_bytes();
        let events_per_s = events.len() as f64 / best;
        println!(
            "{:>8} {:>14.2} {:>16.0} {:>14}",
            n,
            best * 1e3,
            events_per_s,
            peak_ram
        );
        report.put(format!("e1.rules_{n}.events_per_s"), events_per_s.round());
        report.put(format!("e1.rules_{n}.peak_ram_bytes"), peak_ram as f64);
    }
}

fn e2_skip_index(report: &mut Report) {
    banner(
        "E2",
        "skip index: transferred/decrypted volume, with vs. without",
    );
    // Without the index every byte is transferred and decrypted. With it,
    // "transferred" counts the chunks fetched (whole chunks inside a skip
    // never are) and "decrypted" the keystream bytes run over them (the
    // skipped bytes of a fetched chunk never are).
    println!(
        "{:>10} {:>10} {:>12} {:>12} {:>16} {:>14} {:>8} {:>10} {:>10}",
        "elements",
        "subject",
        "plain (B)",
        "no-index (B)",
        "transferred (B)",
        "decrypted (B)",
        "saving",
        "egate (s)",
        "wall (ms)"
    );
    for elements in [1_000usize, 4_000, 12_000] {
        let doc = workloads::hospital(elements);
        let secure = workloads::secure(&doc, 128, 32);
        let no_index = secure.ciphertext_len();
        for subject in ["doctor", "secretary"] {
            let (with, with_ms) = timed(|| {
                workloads::run_secure(&secure, &workloads::medical_rules(), subject, None)
            });
            let saving = 1.0 - with.ledger.bytes_decrypted as f64 / no_index.max(1) as f64;
            println!(
                "{:>10} {:>10} {:>12} {:>12} {:>16} {:>14} {:>7.0}% {:>10.1} {:>10.1}",
                elements,
                subject,
                secure.header.plaintext_len,
                no_index,
                with.ledger.bytes_hashed,
                with.ledger.bytes_decrypted,
                saving * 100.0,
                workloads::egate_seconds(&with),
                with_ms,
            );
            let prefix = format!("e2.n{elements}.{subject}");
            report.put(
                format!("{prefix}.decrypted_bytes_no_index"),
                no_index as f64,
            );
            report.put(
                format!("{prefix}.transferred_bytes_with_index"),
                with.ledger.bytes_hashed as f64,
            );
            report.put(
                format!("{prefix}.decrypted_bytes_with_index"),
                with.ledger.bytes_decrypted as f64,
            );
            report.put(format!("{prefix}.saving_pct"), (saving * 100.0).round());
        }
    }
}

fn e3_index_overhead(report: &mut Report) {
    banner(
        "E3",
        "skip index compactness (overhead vs. recursive compression)",
    );
    println!(
        "{:>10} {:>12} {:>12} {:>12} {:>12} {:>10} {:>12}",
        "corpus", "tokens (B)", "summaries", "index (B)", "overhead", "recursive", "encode (ms)"
    );
    for corpus in Corpus::all() {
        let doc = corpus.generate(4_000, &GeneratorConfig::default());
        for recursive in [true, false] {
            let encoder = DocumentEncoder::new(EncoderConfig {
                min_index_bytes: 32,
                recursive_bitmaps: recursive,
            });
            let (enc, encode_ms) = timed(|| encoder.encode(&doc));
            println!(
                "{:>10} {:>12} {:>12} {:>12} {:>11.2}% {:>10} {:>12.2}",
                corpus.name(),
                enc.stats.token_bytes,
                enc.stats.summaries,
                enc.stats.index_bytes,
                enc.index_overhead() * 100.0,
                recursive,
                encode_ms
            );
            let mode = if recursive { "recursive" } else { "flat" };
            report.put(
                format!("e3.{}.{mode}.index_bytes", corpus.name()),
                enc.stats.index_bytes as f64,
            );
        }
    }
}

fn e4_ram_budget(report: &mut Report) {
    banner(
        "E4",
        "secure working memory vs. document depth and rule count (1 KiB budget)",
    );
    println!(
        "{:>8} {:>8} {:>16} {:>14} {:>10}",
        "depth", "#rules", "peak RAM (B)", "fits e-gate?", "wall (ms)"
    );
    let budget = CardProfile::egate().ram_bytes;
    for depth in [4usize, 8, 16, 32, 64] {
        for n_rules in [4usize, 16, 64] {
            let doc = generator::deep_chain(depth, &GeneratorConfig::default());
            let (stats, wall_s) = workloads::rule_pool_evaluation(&doc.to_events(), n_rules, 1);
            let peak = stats.peak_ram_bytes();
            println!(
                "{:>8} {:>8} {:>16} {:>14} {:>10.3}",
                depth,
                n_rules,
                peak,
                if peak <= budget { "yes" } else { "NO" },
                wall_s * 1e3
            );
            report.put(
                format!("e4.depth_{depth}.rules_{n_rules}.peak_ram_bytes"),
                peak as f64,
            );
        }
    }
}

fn e5_latency_breakdown(report: &mut Report) {
    banner("E5", "pull-mode latency breakdown on the e-gate cost model");
    for corpus in [Corpus::Hospital, Corpus::Community, Corpus::Catalog] {
        let doc = corpus.generate(2_000, &GeneratorConfig::default());
        let secure = SecureDocumentBuilder::new("bench-doc", workloads::bench_key())
            .chunk_size(128)
            .build(&doc);
        let rules = match corpus {
            Corpus::Hospital => workloads::medical_rules(),
            _ => RuleSet::parse("+, secretary, //name\n+, secretary, //title").unwrap(),
        };
        let (stats, wall_ms) = timed(|| workloads::run_secure(&secure, &rules, "secretary", None));
        let breakdown = stats.ledger.breakdown(&CostModel::egate());
        println!("{:>10}: {}", corpus.name(), breakdown.summary_ms());
        let modern = stats.ledger.breakdown(&CostModel::modern_secure_element());
        println!(
            "{:>10}  (modern secure element: total {:.1} ms; wall here {wall_ms:.1} ms)",
            "",
            modern.total().as_secs_f64() * 1e3
        );
        report.put(
            format!("e5.{}.egate_total_ms", corpus.name()),
            (breakdown.total().as_secs_f64() * 1e3).round(),
        );
    }
}

fn e6_dissemination(report: &mut Report) {
    banner(
        "E6",
        "push-mode selective dissemination throughput (parental control)",
    );
    let (dissem, wall_ms) = timed(workloads::dissemination);
    println!(
        "items: {} delivered / {} blocked; worst per-item latency {:.1} ms; total {:.2} s; skipped {} B; wall {wall_ms:.1} ms",
        dissem.items_delivered,
        dissem.items_blocked,
        dissem.max_item_latency.as_secs_f64() * 1e3,
        dissem.total_latency.as_secs_f64(),
        dissem.bytes_skipped
    );
    for period_ms in [500u64, 1000, 2000] {
        println!(
            "  sustains 1 item / {period_ms} ms on the e-gate model: {}",
            dissem.meets_real_time(std::time::Duration::from_millis(period_ms))
        );
    }
    report.put("e6.items_delivered", dissem.items_delivered as f64);
    report.put("e6.items_blocked", dissem.items_blocked as f64);
    report.put(
        "e6.max_item_latency_ms",
        (dissem.max_item_latency.as_secs_f64() * 1e3).round(),
    );
}

fn e7_dynamic_rules(report: &mut Report) {
    banner(
        "E7",
        "cost of a policy change: SOE approach vs. server-side static encryption",
    );
    let doc = workloads::hospital(2_000);
    let policy = AccessPolicy::paper();
    println!(
        "{:>28} {:>18} {:>14} {:>12} {:>22}",
        "policy change",
        "re-encrypted (B)",
        "keys redistrib.",
        "SOE cost (B)",
        "wall static/SOE (ms)"
    );
    type RuleChange<'a> = (&'a str, Box<dyn Fn(&mut RuleSet)>);
    let changes: Vec<RuleChange> = vec![
        (
            "grant nurse //patient/name",
            Box::new(|r: &mut RuleSet| {
                r.push(Sign::Permit, "nurse", "//patient/name").unwrap();
            }),
        ),
        (
            "revoke secretary address",
            Box::new(|r: &mut RuleSet| {
                r.push(Sign::Deny, "secretary", "//patient/address")
                    .unwrap();
            }),
        ),
        (
            "grant researcher //acts",
            Box::new(|r: &mut RuleSet| {
                r.push(Sign::Permit, "researcher", "//acts").unwrap();
            }),
        ),
    ];
    let mut server = TrustedServer::new(b"bench", workloads::medical_rules());
    let mut scheme = StaticEncryptionScheme::build(&doc, server.rules(), &policy);
    for (i, (label, change)) in changes.into_iter().enumerate() {
        change(server.rules_mut());
        let (cost, static_ms) = timed(|| scheme.apply_rule_change(&doc, server.rules(), &policy));
        // The SOE approach re-seals one protected rule blob per subject, as
        // `Publisher::grant` does; no document byte is touched.
        let (soe_cost, soe_ms) = timed(|| {
            server
                .rules()
                .subjects()
                .iter()
                .map(|subject| server.protected_rules_for(subject).encode().len())
                .sum::<usize>()
        });
        println!(
            "{:>28} {:>18} {:>14} {:>12} {:>22}",
            label,
            cost.bytes_reencrypted,
            cost.keys_redistributed,
            soe_cost,
            format!("{static_ms:.2}/{soe_ms:.3}")
        );
        report.put(
            format!("e7.change_{i}.bytes_reencrypted"),
            cost.bytes_reencrypted as f64,
        );
        report.put(format!("e7.change_{i}.soe_cost_bytes"), soe_cost as f64);
    }
    println!(
        "(static scheme: {} equivalence classes; doctor holds {} keys)",
        scheme.class_count(),
        scheme.keys_held_by(&Subject::new("doctor"))
    );
}

fn e8_query_mix(report: &mut Report) {
    banner(
        "E8",
        "query + access control: fetched volume per query selectivity",
    );
    let doc = workloads::hospital(4_000);
    let secure = workloads::secure(&doc, 128, 32);
    println!(
        "{:>34} {:>12} {:>14} {:>12} {:>12} {:>10}",
        "query (subject = doctor)",
        "fetched (B)",
        "decrypted (B)",
        "skipped (B)",
        "egate (s)",
        "wall (ms)"
    );
    for (i, query) in [
        "//patient",
        "//patient/name",
        "//acts/act[@type = \"surgery\"]",
        "//patient[@id = \"P00003\"]",
    ]
    .into_iter()
    .enumerate()
    {
        let (stats, wall_ms) = timed(|| {
            workloads::run_secure(&secure, &workloads::medical_rules(), "doctor", Some(query))
        });
        println!(
            "{:>34} {:>12} {:>14} {:>12} {:>12.1} {:>10.1}",
            query,
            stats.ledger.bytes_hashed,
            stats.ledger.bytes_decrypted,
            stats.ledger.bytes_skipped,
            workloads::egate_seconds(&stats),
            wall_ms
        );
        report.put(
            format!("e8.query_{i}.decrypted_bytes"),
            stats.ledger.bytes_decrypted as f64,
        );
    }
}

fn e9_streaming_vs_dom(report: &mut Report) {
    banner(
        "E9",
        "streaming SOE engine vs. DOM materialisation baseline",
    );
    println!(
        "{:>10} {:>18} {:>18} {:>16} {:>16} {:>20}",
        "elements",
        "SOE peak RAM (B)",
        "DOM footprint (B)",
        "SOE decrypt (B)",
        "DOM decrypt (B)",
        "wall SOE/DOM (ms)"
    );
    for elements in [500usize, 2_000, 8_000] {
        let doc = workloads::hospital(elements);
        let secure = workloads::secure(&doc, 128, 32);
        let rules = workloads::medical_rules();
        // Best-of-N timing, like E1: the gate compares capability, not noise.
        let mut soe_elapsed = f64::INFINITY;
        let mut soe = None;
        for _ in 0..E1_REPS {
            let start = Instant::now();
            soe = Some(workloads::run_secure(&secure, &rules, "secretary", None));
            soe_elapsed = soe_elapsed.min(start.elapsed().as_secs_f64());
        }
        let soe = soe.expect("E1_REPS >= 1");
        let (dom, dom_ms) = timed(|| {
            DomBaseline::run(
                &secure,
                &workloads::bench_key(),
                &rules,
                &Subject::new("secretary"),
                None,
                &AccessPolicy::paper(),
            )
            .unwrap()
        });
        println!(
            "{:>10} {:>18} {:>18} {:>16} {:>16} {:>20}",
            elements,
            soe.evaluator.map(|e| e.peak_ram_bytes()).unwrap_or(0),
            dom.materialized_bytes,
            soe.ledger.bytes_decrypted,
            dom.ledger.bytes_decrypted,
            format!("{:.1}/{dom_ms:.1}", soe_elapsed * 1e3)
        );
        let prefix = format!("e9.n{elements}");
        report.put(
            format!("{prefix}.soe_peak_ram_bytes"),
            soe.evaluator.map(|e| e.peak_ram_bytes()).unwrap_or(0) as f64,
        );
        report.put(
            format!("{prefix}.dom_footprint_bytes"),
            dom.materialized_bytes as f64,
        );
        report.put(
            format!("{prefix}.soe_events_per_s"),
            (soe.ledger.events_processed as f64 / soe_elapsed).round(),
        );
    }
    e9_zero_copy_serve(report);
}

/// Repetitions of the zero-copy serve loop; best run reported, like E1.
const E9_SERVE_REPS: usize = 3;
/// Chunk-serve events per zero-copy timing run.
const E9_SERVE_EVENTS: usize = 200_000;

/// Measures the DSP's raw chunk-serve throughput: each event hands out the
/// stored ciphertext as a refcount bump (`Arc<[u8]>`) plus its 32-byte
/// `Copy` tag, so the per-event cost must stay flat no matter how large the
/// chunks are. The bench gate checks this as
/// `e9.zero_copy.serve_events_per_s`.
fn e9_zero_copy_serve(report: &mut Report) {
    use sdds_dsp::ShardedStore;

    let doc = workloads::hospital(2_000);
    let secure = workloads::secure(&doc, 128, 32);
    let chunk_count = secure.header.chunk_count.max(1);
    let store = ShardedStore::new(4);
    store.put_document(secure);
    let revision = store
        .revision("bench-doc")
        .expect("the document was just stored");
    let mut best = f64::INFINITY;
    for _ in 0..E9_SERVE_REPS {
        let start = Instant::now();
        for event in 0..E9_SERVE_EVENTS {
            let index = (event as u32) % chunk_count;
            let (chunk, tag) = store
                .fetch_chunk("bench-doc", index, Some(revision), 0)
                .expect("stored chunk serves");
            std::hint::black_box((chunk.len(), tag));
        }
        best = best.min(start.elapsed().as_secs_f64());
    }
    let events_per_s = (E9_SERVE_EVENTS as f64 / best).round();
    println!(
        "{:>10} {:>24}",
        "zero-copy",
        format!("{events_per_s} serve events/s")
    );
    report.put("e9.zero_copy.serve_events_per_s", events_per_s);
}

fn e10_multi_client(report: &mut Report) {
    banner(
        "E10",
        "multi-client DSP service: aggregate throughput and latency vs shards",
    );
    println!(
        "{:>8} {:>7} {:>14} {:>12} {:>10} {:>10} {:>12} {:>10}",
        "clients",
        "shards",
        "events/s",
        "makespan",
        "p50 (ms)",
        "p99 (ms)",
        "apdus saved",
        "wall (s)"
    );
    // Simulated (deterministic) metrics: byte/event counters × model rates.
    // The scheduler really multiplexes the sessions over worker threads; the
    // clock is the cost-model one, so the numbers are machine independent.
    let mut ratio_inputs: Vec<(usize, usize, f64)> = Vec::new();
    for clients in [1usize, 8, 64, 256] {
        for shards in [1usize, 16] {
            let outcome =
                workloads::multi_client(workloads::MultiClientConfig::new(clients, shards));
            let events_per_s = outcome.events_per_s();
            let p50 = outcome.latency_percentile(0.50);
            let p99 = outcome.latency_percentile(0.99);
            println!(
                "{:>8} {:>7} {:>14.0} {:>10.1}ms {:>10.2} {:>10.2} {:>12} {:>10.2}",
                clients,
                shards,
                events_per_s,
                outcome.makespan().as_secs_f64() * 1e3,
                p50.as_secs_f64() * 1e3,
                p99.as_secs_f64() * 1e3,
                outcome.apdus_saved,
                outcome.wall.as_secs_f64(),
            );
            let prefix = format!("e10.clients_{clients}.shards_{shards}");
            report.put(format!("{prefix}.events_per_s"), events_per_s.round());
            report.put(
                format!("{prefix}.p50_ms"),
                (p50.as_secs_f64() * 1e3 * 100.0).round() / 100.0,
            );
            report.put(
                format!("{prefix}.p99_ms"),
                (p99.as_secs_f64() * 1e3 * 100.0).round() / 100.0,
            );
            ratio_inputs.push((clients, shards, events_per_s));
        }
    }
    for clients in [64usize, 256] {
        let of = |shards: usize| {
            ratio_inputs
                .iter()
                .find(|(c, s, _)| *c == clients && *s == shards)
                .map(|(_, _, v)| *v)
                .unwrap_or(0.0)
        };
        let ratio = if of(1) > 0.0 { of(16) / of(1) } else { 0.0 };
        println!("  scaling @{clients} clients, 16 vs 1 shard: {ratio:.1}x");
        report.put(
            format!("e10.clients_{clients}.scaling_16v1"),
            (ratio * 10.0).round() / 10.0,
        );
    }

    // Hot-document scenario: every client hammers ONE document, so shard
    // count alone buys nothing — the single copy queues on its home shard.
    // Replication (`Publisher::builder().replicate(n)`) is the lever.
    println!("\n  hot document: 256 clients, one folder, 16 shards");
    println!(
        "{:>10} {:>14} {:>12} {:>10} {:>10} {:>10}",
        "replicas", "events/s", "makespan", "p50 (ms)", "p99 (ms)", "wall (s)"
    );
    let mut hot_rates: Vec<(usize, f64)> = Vec::new();
    for replicas in [1usize, 16] {
        let outcome = workloads::hot_document(workloads::HotDocumentConfig::new(256, 16, replicas));
        let events_per_s = outcome.events_per_s();
        println!(
            "{:>10} {:>14.0} {:>10.1}ms {:>10.2} {:>10.2} {:>10.2}",
            replicas,
            events_per_s,
            outcome.makespan().as_secs_f64() * 1e3,
            outcome.latency_percentile(0.50).as_secs_f64() * 1e3,
            outcome.latency_percentile(0.99).as_secs_f64() * 1e3,
            outcome.wall.as_secs_f64(),
        );
        let prefix = format!("e10.hot.clients_256.replicas_{replicas}");
        report.put(format!("{prefix}.events_per_s"), events_per_s.round());
        report.put(
            format!("{prefix}.p99_ms"),
            (outcome.latency_percentile(0.99).as_secs_f64() * 1e3 * 100.0).round() / 100.0,
        );
        hot_rates.push((replicas, events_per_s));
    }
    let of = |replicas: usize| {
        hot_rates
            .iter()
            .find(|(r, _)| *r == replicas)
            .map(|(_, v)| *v)
            .unwrap_or(0.0)
    };
    let gain = if of(1) > 0.0 { of(16) / of(1) } else { 0.0 };
    println!("  replication gain @256 clients, 16 copies vs 1: {gain:.1}x");
    report.put(
        "e10.hot.clients_256.replication_gain".to_owned(),
        (gain * 10.0).round() / 10.0,
    );
}

/// The experiment sections, in the order `main` runs them.
const SECTIONS: [fn(&mut Report); 10] = [
    e1_rules_scaling,
    e2_skip_index,
    e3_index_overhead,
    e4_ram_budget,
    e5_latency_breakdown,
    e6_dissemination,
    e7_dynamic_rules,
    e8_query_mix,
    e9_streaming_vs_dom,
    e10_multi_client,
];

/// Runs the telemetry pass behind `--obs`: an E10 hot-document slice whose
/// shard serving, scheduler and card-session telemetry come off the
/// service's own bundle. Returns the JSON report: the metric snapshot and the
/// service's flight-recorder dump.
fn obs_report() -> String {
    let (_, snapshot, flight) =
        workloads::hot_document_observed(workloads::HotDocumentConfig::new(64, 16, 4));
    format!(
        "{{\n\"schema\": \"sdds-obs-report-v1\",\n\"snapshot\": {},\n\"flight_recorder\": {}}}\n",
        snapshot.to_json(),
        flight
    )
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut json_path: Option<String> = None;
    let mut obs_path: Option<String> = None;
    let mut obs_only = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => {
                json_path = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--json requires a path argument");
                    std::process::exit(2);
                }));
            }
            "--obs" => {
                obs_path = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--obs requires a path argument");
                    std::process::exit(2);
                }));
            }
            "--obs-only" => {
                obs_only = true;
            }
            other => {
                eprintln!(
                    "unknown argument `{other}` (supported: --json <path>, --obs <path>, --obs-only)"
                );
                std::process::exit(2);
            }
        }
    }
    if obs_only && obs_path.is_none() {
        eprintln!("--obs-only requires --obs <path>");
        std::process::exit(2);
    }

    let start = Instant::now();
    if !obs_only {
        let mut report = Report::default();
        for section in SECTIONS {
            section(&mut report);
        }
        println!(
            "\nharness completed in {:.1} s",
            start.elapsed().as_secs_f64()
        );
        if let Some(path) = json_path {
            std::fs::write(&path, report.to_json()).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            });
            println!("metrics written to {path}");
        }
    }
    if let Some(path) = obs_path {
        std::fs::write(&path, obs_report()).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        println!("telemetry snapshot written to {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed baseline of the wall-clock keys, which
    /// `scripts/bench_gate.sh` compares at ±15%.
    const BASELINE: &str = include_str!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_baseline.json"
    ));

    /// Every other key the harness prints, at its exact value. These are
    /// byte counts, peak-RAM figures and cost-model outputs: the same on any
    /// machine and in any build profile. A change that moves one updates it
    /// here and lists old → new in CHANGES.md.
    const PINS: &[(&str, f64)] = &[
        ("e1.rules_1.peak_ram_bytes", 104.0),
        ("e1.rules_2.peak_ram_bytes", 110.0),
        ("e1.rules_4.peak_ram_bytes", 126.0),
        ("e1.rules_8.peak_ram_bytes", 2_753.0),
        ("e1.rules_16.peak_ram_bytes", 2_793.0),
        ("e1.rules_32.peak_ram_bytes", 2_793.0),
        ("e1.rules_64.peak_ram_bytes", 2_793.0),
        ("e2.n1000.doctor.decrypted_bytes_no_index", 27_266.0),
        ("e2.n1000.doctor.transferred_bytes_with_index", 27_266.0),
        ("e2.n1000.doctor.decrypted_bytes_with_index", 27_266.0),
        ("e2.n1000.doctor.saving_pct", 0.0),
        ("e2.n1000.secretary.decrypted_bytes_no_index", 27_266.0),
        ("e2.n1000.secretary.transferred_bytes_with_index", 13_954.0),
        ("e2.n1000.secretary.decrypted_bytes_with_index", 4_420.0),
        ("e2.n1000.secretary.saving_pct", 84.0),
        ("e2.n4000.doctor.decrypted_bytes_no_index", 109_218.0),
        ("e2.n4000.doctor.transferred_bytes_with_index", 109_218.0),
        ("e2.n4000.doctor.decrypted_bytes_with_index", 109_218.0),
        ("e2.n4000.doctor.saving_pct", 0.0),
        ("e2.n4000.secretary.decrypted_bytes_no_index", 109_218.0),
        ("e2.n4000.secretary.transferred_bytes_with_index", 55_714.0),
        ("e2.n4000.secretary.decrypted_bytes_with_index", 17_253.0),
        ("e2.n4000.secretary.saving_pct", 84.0),
        ("e2.n12000.doctor.decrypted_bytes_no_index", 327_267.0),
        ("e2.n12000.doctor.transferred_bytes_with_index", 327_267.0),
        ("e2.n12000.doctor.decrypted_bytes_with_index", 327_267.0),
        ("e2.n12000.doctor.saving_pct", 0.0),
        ("e2.n12000.secretary.decrypted_bytes_no_index", 327_267.0),
        (
            "e2.n12000.secretary.transferred_bytes_with_index",
            165_987.0,
        ),
        ("e2.n12000.secretary.decrypted_bytes_with_index", 51_522.0),
        ("e2.n12000.secretary.saving_pct", 84.0),
        ("e3.hospital.recursive.index_bytes", 8_316.0),
        ("e3.hospital.flat.index_bytes", 11_517.0),
        ("e3.community.recursive.index_bytes", 9_478.0),
        ("e3.community.flat.index_bytes", 13_394.0),
        ("e3.catalog.recursive.index_bytes", 6_406.0),
        ("e3.catalog.flat.index_bytes", 6_406.0),
        ("e3.stream.recursive.index_bytes", 11_234.0),
        ("e3.stream.flat.index_bytes", 11_234.0),
        ("e4.depth_4.rules_4.peak_ram_bytes", 44.0),
        ("e4.depth_4.rules_16.peak_ram_bytes", 44.0),
        ("e4.depth_4.rules_64.peak_ram_bytes", 44.0),
        ("e4.depth_8.rules_4.peak_ram_bytes", 84.0),
        ("e4.depth_8.rules_16.peak_ram_bytes", 84.0),
        ("e4.depth_8.rules_64.peak_ram_bytes", 84.0),
        ("e4.depth_16.rules_4.peak_ram_bytes", 171.0),
        ("e4.depth_16.rules_16.peak_ram_bytes", 171.0),
        ("e4.depth_16.rules_64.peak_ram_bytes", 171.0),
        ("e4.depth_32.rules_4.peak_ram_bytes", 347.0),
        ("e4.depth_32.rules_16.peak_ram_bytes", 347.0),
        ("e4.depth_32.rules_64.peak_ram_bytes", 347.0),
        ("e4.depth_64.rules_4.peak_ram_bytes", 699.0),
        ("e4.depth_64.rules_16.peak_ram_bytes", 699.0),
        ("e4.depth_64.rules_64.peak_ram_bytes", 699.0),
        ("e5.hospital.egate_total_ms", 20_618.0),
        ("e5.community.egate_total_ms", 24_503.0),
        ("e5.catalog.egate_total_ms", 40_677.0),
        ("e6.items_delivered", 18.0),
        ("e6.items_blocked", 12.0),
        ("e6.max_item_latency_ms", 478.0),
        ("e7.change_0.bytes_reencrypted", 1_483.0),
        ("e7.change_0.soe_cost_bytes", 489.0),
        ("e7.change_1.bytes_reencrypted", 2_949.0),
        ("e7.change_1.soe_cost_bytes", 524.0),
        ("e7.change_2.bytes_reencrypted", 50_665.0),
        ("e7.change_2.soe_cost_bytes", 549.0),
        ("e8.query_0.decrypted_bytes", 109_218.0),
        ("e8.query_1.decrypted_bytes", 16_122.0),
        ("e8.query_2.decrypted_bytes", 47_520.0),
        ("e8.query_3.decrypted_bytes", 4_302.0),
        ("e9.n500.soe_peak_ram_bytes", 76.0),
        ("e9.n500.dom_footprint_bytes", 38_079.0),
        ("e9.n2000.soe_peak_ram_bytes", 76.0),
        ("e9.n2000.dom_footprint_bytes", 157_145.0),
        ("e9.n8000.soe_peak_ram_bytes", 76.0),
        ("e9.n8000.dom_footprint_bytes", 633_226.0),
        ("e10.clients_1.shards_1.events_per_s", 20_763.0),
        ("e10.clients_1.shards_1.p50_ms", 4.24),
        ("e10.clients_1.shards_1.p99_ms", 4.24),
        ("e10.clients_1.shards_16.events_per_s", 20_763.0),
        ("e10.clients_1.shards_16.p50_ms", 4.24),
        ("e10.clients_1.shards_16.p99_ms", 4.24),
        ("e10.clients_8.shards_1.events_per_s", 84_103.0),
        ("e10.clients_8.shards_1.p50_ms", 2.35),
        ("e10.clients_8.shards_1.p99_ms", 4.24),
        ("e10.clients_8.shards_16.events_per_s", 88_951.0),
        ("e10.clients_8.shards_16.p50_ms", 2.35),
        ("e10.clients_8.shards_16.p99_ms", 4.24),
        ("e10.clients_64.shards_1.events_per_s", 81_998.0),
        ("e10.clients_64.shards_1.p50_ms", 2.35),
        ("e10.clients_64.shards_1.p99_ms", 4.24),
        ("e10.clients_64.shards_16.events_per_s", 689_501.0),
        ("e10.clients_64.shards_16.p50_ms", 2.35),
        ("e10.clients_64.shards_16.p99_ms", 4.24),
        ("e10.clients_256.shards_1.events_per_s", 81_212.0),
        ("e10.clients_256.shards_1.p50_ms", 2.35),
        ("e10.clients_256.shards_1.p99_ms", 4.24),
        ("e10.clients_256.shards_16.events_per_s", 1_155_586.0),
        ("e10.clients_256.shards_16.p50_ms", 2.35),
        ("e10.clients_256.shards_16.p99_ms", 4.24),
        ("e10.clients_64.scaling_16v1", 8.4),
        ("e10.clients_256.scaling_16v1", 14.2),
        ("e10.hot.clients_256.replicas_1.events_per_s", 124_281.0),
        ("e10.hot.clients_256.replicas_1.p99_ms", 20.17),
        ("e10.hot.clients_256.replicas_16.events_per_s", 1_965_367.0),
        ("e10.hot.clients_256.replicas_16.p99_ms", 20.17),
        ("e10.hot.clients_256.replication_gain", 15.8),
    ];

    /// The keys of `BENCH_baseline.json` (one `"key": value` per line).
    fn wall_keys() -> Vec<&'static str> {
        BASELINE
            .lines()
            .filter_map(|line| line.trim().strip_prefix('"')?.split_once("\":"))
            .map(|(key, _)| key)
            .filter(|key| key.contains('.'))
            .collect()
    }

    #[test]
    fn every_figure_is_pinned_or_a_wall_clock_key() {
        let mut report = Report::default();
        for section in SECTIONS {
            section(&mut report);
        }
        let wall = wall_keys();
        let mut drift = Vec::new();
        for (key, value) in &report.metrics {
            let pin = PINS.iter().find(|(k, _)| k == key).map(|&(_, v)| v);
            match (pin, wall.contains(&key.as_str())) {
                (Some(_), true) => drift.push(format!("{key}: pinned and a wall-clock key")),
                (Some(pin), false) if *value != pin => {
                    drift.push(format!("{key}: pinned {pin}, printed {value}"))
                }
                (None, false) => drift.push(format!(
                    "{key}: printed {value}, neither pinned nor in BENCH_baseline.json"
                )),
                _ => {}
            }
        }
        for (key, _) in PINS {
            if !report.metrics.iter().any(|(k, _)| k == key) {
                drift.push(format!("{key}: pinned but not printed"));
            }
        }
        assert!(
            drift.is_empty(),
            "harness figures drifted:\n{}",
            drift.join("\n")
        );
    }
}
