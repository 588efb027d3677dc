//! Scheduling contract: the session scheduler decides *when* a card session
//! is stepped, never *what* it is served. Every card session multiplexed by
//! the work-stealing scheduler must deliver exactly the authorized view the
//! tree-based oracle computes, and take exactly as many steps as when a
//! single worker runs it.
//!
//! Like the other property suites, the contract runs over `SDDS_PROP_CASES`
//! seeded deterministic cases (default 64; CI 256), each randomizing the
//! deployment shape (shards, replicas, clients, workers, quantum) so it is
//! pinned across layouts, not at one point.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use sdds::core::baseline::authorized_view_oracle;
use sdds::dsp::service::{FinishedSession, ScheduleReport};
use sdds::xml::writer;
use sdds::{AccessPolicy, Client, Publisher, RuleSet, SessionScheduler, Subject};
use sdds_xml::generator::{Corpus, GeneratorConfig};

/// Cases per property: `SDDS_PROP_CASES` when set and parseable, else 64.
fn cases() -> u64 {
    std::env::var("SDDS_PROP_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(64)
}

fn rules() -> RuleSet {
    RuleSet::parse(
        "+, doctor, //patient\n\
         -, doctor, //patient/ssn\n\
         +, secretary, //patient/name\n\
         +, researcher, //diagnosis",
    )
    .unwrap()
}

/// Oracle views and single-worker step counts whatever the worker count.
///
/// Each case publishes a small hospital corpus onto a randomly shaped
/// service (1–5 shards, optionally replicated), provisions 2–10 clients of
/// mixed subjects, and pulls every document twice: once on a random worker
/// count and quantum, once on one worker with the same quantum. Every view
/// must equal the oracle's, and every session's step count must match
/// between the two runs.
#[test]
fn scheduled_sessions_serve_oracle_views_with_single_worker_step_counts() {
    const SUBJECTS: [&str; 3] = ["doctor", "secretary", "researcher"];
    for case in 0..cases() {
        let mut rng = SmallRng::seed_from_u64(0x5C4E_0001 + case);
        let shards = rng.gen_range(1..=5usize);
        let copies = if rng.gen_bool(0.5) {
            rng.gen_range(1..=shards)
        } else {
            1
        };
        let clients_n = rng.gen_range(2..=10usize);
        let workers = rng.gen_range(1..=4usize);
        let quantum = rng.gen_range(1..=6usize);
        let docs = rng.gen_range(1..=3usize);
        let shape = format!(
            "case {case}: shards={shards} copies={copies} clients={clients_n} \
             workers={workers} quantum={quantum} docs={docs}"
        );

        let publisher = Publisher::builder(b"hospital-2005")
            .rules(rules())
            .shards(shards)
            .replicate(copies)
            .build()
            .unwrap();
        let doc = Corpus::Hospital.generate(400, &GeneratorConfig::default());
        for i in 0..docs {
            publisher.publish(&format!("folder-{i}"), &doc).unwrap();
        }
        let expected: Vec<String> = SUBJECTS
            .iter()
            .map(|subject| {
                writer::to_string(&authorized_view_oracle(
                    &doc,
                    &rules(),
                    &Subject::new(*subject),
                    None,
                    &AccessPolicy::paper(),
                ))
            })
            .collect();

        let clients: Vec<Client> = (0..clients_n)
            .map(|i| {
                Client::builder(SUBJECTS[i % SUBJECTS.len()])
                    .provision(&publisher)
                    .unwrap()
            })
            .collect();
        let connect_all = || {
            clients
                .iter()
                .enumerate()
                .map(|(i, c)| c.connect(format!("folder-{}", i % docs)).unwrap())
                .collect::<Vec<_>>()
        };

        let scheduled = SessionScheduler::new(workers, quantum).run(connect_all());
        let single = SessionScheduler::new(1, quantum).run(connect_all());

        for report in [&scheduled, &single] {
            assert!(
                report.failures().is_empty(),
                "{shape}: {:?}",
                report.failures()
            );
            assert_eq!(report.finished.len(), clients_n, "{shape}");
        }
        assert_eq!(
            scheduled.steps_total, single.steps_total,
            "{shape}: worker count changed the total work"
        );

        // Compare per submission index: retirement order may differ with the
        // worker count, the served bytes and the work per session may not.
        for (s, one) in by_index(&scheduled).into_iter().zip(by_index(&single)) {
            assert_eq!(s.index, one.index, "{shape}");
            assert_eq!(
                s.session.view(),
                Some(expected[s.index % SUBJECTS.len()].as_str()),
                "{shape}: session {} view differs from the oracle",
                s.index
            );
            assert_eq!(
                s.steps, one.steps,
                "{shape}: session {} took a different step count than on one worker",
                s.index
            );
        }
    }
}

/// A report's finished sessions in submission order.
fn by_index<S>(report: &ScheduleReport<S>) -> Vec<&FinishedSession<S>> {
    let mut finished: Vec<_> = report.finished.iter().collect();
    finished.sort_by_key(|f| f.index);
    finished
}
