//! Heap-allocation budgets of the hot paths, measured with a counting global
//! allocator.
//!
//! The paper's SOE runs in a smart card's small memory, so the per-event and
//! per-chunk work must stay constant. This test pins what each hot path may
//! allocate:
//!
//! - DSP serving (`ShardedStore::serve*` / `fetch_*`): no allocation per
//!   warm chunk or rule fetch, on one shard and on a replicated
//!   four-shard service with salted routes;
//! - the session scheduler (`SessionScheduler::run`): no allocation per
//!   step — the same session stepped 4× as often allocates no more;
//! - one whole session (a scheduled card session, a doctor and a secretary
//!   `ViewStream`) on the smaller document: its total allocations;
//! - the SOE event path (`ViewStream::next`, `RuleEngine::process*`,
//!   `CardSession::run`): marginal allocations per input event at or under
//!   a budget. The marginal is the count difference between two document
//!   sizes divided by the difference in events, so per-session setup
//!   cancels out;
//! - summary decoding (`TokenReader::next_token`): no allocation per
//!   subtree summary, measured the same way over the summaries of two
//!   documents;
//! - skip-index encoding (`DocumentEncoder::encode`): no allocation per
//!   element — the two documents encode with the same count.
//!
//! A lost skip would cut the allocations of a restrictive subject while
//! making it slower, so the secretary's skip counters are pinned too.
//!
//! The counters are process-wide, so this file holds exactly one `#[test]`:
//! no other test of this binary can run while a count is taken. Every count
//! is taken twice and must repeat exactly.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sdds::core::engine::SessionStats;
use sdds::core::skipindex::decode::ReadResult;
use sdds::core::skipindex::{DocumentEncoder, EncoderConfig, TokenEvent, TokenReader};
use sdds::{Client, Publisher, RuleSet, SessionScheduler};
use sdds_xml::generator::{Corpus, GeneratorConfig};
use sdds_xml::TagDict;

/// Counts every allocation and reallocation, then defers to `System`.
struct CountingAlloc;

/// Allocations and reallocations so far, on every thread. The counter
/// publishes no other data; threads a measured call spawns (the scheduler's
/// workers) are joined before it returns, so their counts are visible.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method passes its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract, and bumping a static atomic neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` twice and returns its result with the allocations of one run,
/// failing if the two runs allocate differently.
fn counted<T>(what: &str, mut f: impl FnMut() -> T) -> (T, u64) {
    let mut once = || {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let out = f();
        (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
    };
    let (_, first) = once();
    let (out, second) = once();
    assert_eq!(first, second, "{what}: allocation count did not repeat");
    (out, second)
}

/// Marginal allocations per input event allowed on each SOE path: the
/// measured value plus at most 5%. See ARCHITECTURE.md, "Hot path".
const DOCTOR_STREAM_BUDGET: f64 = 0.45;
const SECRETARY_STREAM_BUDGET: f64 = 0.06;
const DOCTOR_CARD_BUDGET: f64 = 0.00078;
const SECRETARY_CARD_BUDGET: f64 = 0.0039;

/// Allocations allowed for one whole session on the `SMALL` document, set
/// up and torn down included: the measured value plus at most 5%, so a
/// change that adds per-session allocations shows even where the marginals
/// cancel it out. The card session's scheduler threads allocate 2 more when
/// the test harness captures their output (205, against 203 with
/// `--nocapture`).
const CARD_SESSION_BUDGET: u64 = 213;
const DOCTOR_STREAM_SESSION_BUDGET: u64 = 1350;
const SECRETARY_STREAM_SESSION_BUDGET: u64 = 148;

/// Document sizes (hospital elements) the marginals are taken between.
const SMALL: usize = 1000;
const LARGE: usize = 4000;

const DOC: &str = "folders";

fn rules() -> RuleSet {
    RuleSet::parse("+, doctor, //patient\n-, doctor, //patient/ssn\n+, secretary, //patient/name")
        .expect("rules parse")
}

fn publisher(elements: usize, shards: usize, replicas: usize) -> Publisher {
    let mut builder = Publisher::builder(b"hospital-2005")
        .rules(rules())
        .shards(shards);
    if replicas > 1 {
        builder = builder.replicate(replicas);
    }
    let publisher = builder.build().expect("publisher");
    let doc = Corpus::Hospital.generate(elements, &GeneratorConfig::default());
    publisher.publish(DOC, &doc).expect("publish");
    publisher
}

/// `(allocations, input events)` of one whole `ViewStream` pull, open
/// included, and the session's statistics.
fn stream_view(client: &Client) -> ((u64, usize), SessionStats) {
    let (stats, allocations) = counted("stream view", || {
        let mut stream = client.open_stream(DOC).expect("open stream");
        for event in &mut stream {
            event.expect("authorized event");
        }
        stream.stats().expect("exhausted stream has stats").clone()
    });
    let events_in = stats.evaluator.as_ref().expect("evaluator stats").events_in;
    ((allocations, events_in), stats)
}

/// `(allocations, summaries)` of decoding every token of an `elements`-sized
/// hospital document, reader set-up included.
fn decode_summaries(elements: usize) -> (u64, usize) {
    let doc = Corpus::Hospital.generate(elements, &GeneratorConfig::default());
    let encoded = DocumentEncoder::new(EncoderConfig::default()).encode(&doc);
    let plaintext = encoded.plaintext();
    let (summaries, allocations) = counted("summary decoding", || {
        let (dict, dict_len) = TagDict::decode(&plaintext).expect("dictionary");
        let mut reader = TokenReader::new(dict, dict_len as u64, plaintext.len() as u64, true);
        reader.supply(0, &plaintext).expect("supply");
        let mut summaries = 0;
        while let ReadResult::Token(token) = reader.next_token().expect("token") {
            summaries += usize::from(matches!(token, TokenEvent::Summary { .. }));
        }
        summaries
    });
    assert_eq!(summaries, encoded.stats.summaries);
    (allocations, summaries)
}

/// Allocations of encoding an `elements`-sized hospital document, and the
/// document's element count.
fn encode_document(elements: usize) -> (u64, usize) {
    let doc = Corpus::Hospital.generate(elements, &GeneratorConfig::default());
    let encoder = DocumentEncoder::new(EncoderConfig::default());
    let (_, allocations) = counted("encoding", || encoder.encode(&doc));
    (allocations, doc.all_elements().len())
}

/// The secretary's skip counters on the `elements`-sized document: bytes
/// skipped, subtrees skipped, chunks never fetched.
fn skips(stats: &SessionStats) -> (usize, usize, usize) {
    (
        stats.ledger.bytes_skipped,
        stats.skipped_subtrees,
        stats.chunks_skipped,
    )
}

/// Allocations of one whole card-path pull, connect included (what
/// `Client::authorized_view` does). The card's session ends with the pull,
/// so its input events are read off the same subject's `ViewStream`.
fn card_view(client: &Client) -> u64 {
    counted("card view", || {
        client
            .connect(DOC)
            .expect("connect")
            .run_to_completion()
            .expect("card view")
    })
    .1
}

/// Prints the marginal allocations per input event of `path` and returns it
/// as a failure message when it exceeds `budget`.
fn marginal(path: &str, small: (u64, usize), large: (u64, usize), budget: f64) -> Option<String> {
    let per_event = (large.0 as f64 - small.0 as f64) / (large.1 - small.1) as f64;
    println!(
        "{path}: {} -> {} allocations over {} -> {} events, {per_event:.4} per event (budget {budget})",
        small.0, large.0, small.1, large.1
    );
    (per_event > budget)
        .then(|| format!("{path}: {per_event:.4} allocations per event, budget {budget}"))
}

#[test]
fn hot_paths_stay_within_their_allocation_budgets() {
    // DSP serving: a warm fetch hands out shared ciphertext and rule blobs.
    let single = publisher(SMALL, 1, 1);
    let service = Arc::clone(single.service());
    let revision = service.revision(DOC).expect("published");
    service
        .fetch_chunk_pinned(DOC, 0, revision)
        .expect("warm-up fetch");
    let (_, fetches) = counted("chunk fetches", || {
        for index in 0..16 {
            service
                .fetch_chunk_pinned(DOC, index, revision)
                .expect("chunk");
        }
    });
    assert_eq!(fetches, 0, "warm chunk fetches allocate");

    let replicated = publisher(SMALL, 4, 2);
    let service = Arc::clone(replicated.service());
    let revision = service.revision(DOC).expect("published");
    for salt in 0..2 {
        service
            .fetch_chunk_pinned_salted(DOC, 0, revision, salt)
            .expect("warm-up fetch");
        service
            .fetch_rules_pinned_salted(DOC, "doctor", revision, salt)
            .expect("warm-up fetch");
    }
    let (_, fetches) = counted("salted fetches", || {
        for salt in 0..8 {
            for index in 0..4 {
                service
                    .fetch_chunk_pinned_salted(DOC, index, revision, salt)
                    .expect("chunk");
            }
            service
                .fetch_rules_pinned_salted(DOC, "doctor", revision, salt)
                .expect("rules");
        }
    });
    assert_eq!(fetches, 0, "warm salted chunk and rule fetches allocate");

    let large = publisher(LARGE, 1, 1);
    let clients = |subject: &str| {
        (
            Client::builder(subject).provision(&single).expect("client"),
            Client::builder(subject).provision(&large).expect("client"),
        )
    };
    let (doctor_small, doctor_large) = clients("doctor");
    let (secretary_small, secretary_large) = clients("secretary");

    // Scheduler: stepping one session more often costs no allocation.
    let scheduled = |quantum: usize| {
        counted("scheduled session", || {
            let session = doctor_small.connect(DOC).expect("connect");
            let report = SessionScheduler::new(1, quantum).run(vec![session]);
            assert!(report.failures().is_empty(), "{:?}", report.failures());
            report.steps_total
        })
    };
    let (fine_steps, fine) = scheduled(1);
    let (coarse_steps, coarse) = scheduled(4);
    println!(
        "scheduler: {fine} allocations at {fine_steps} steps, {coarse} at {coarse_steps} steps"
    );
    assert!(fine_steps > coarse_steps, "quantum 1 must take more steps");
    assert!(
        coarse <= CARD_SESSION_BUDGET,
        "a scheduled card session allocates {coarse}, budget {CARD_SESSION_BUDGET}"
    );
    assert!(
        fine <= coarse,
        "{} extra steps cost {} extra allocations",
        fine_steps - coarse_steps,
        fine.saturating_sub(coarse)
    );

    // Summary decoding: no allocation per summary.
    let (small_decode, large_decode) = (decode_summaries(SMALL), decode_summaries(LARGE));
    println!(
        "summary decoding: {} -> {} allocations over {} -> {} summaries",
        small_decode.0, large_decode.0, small_decode.1, large_decode.1
    );
    assert!(large_decode.1 > small_decode.1);
    assert_eq!(
        large_decode.0,
        small_decode.0,
        "decoding {} more summaries allocates",
        large_decode.1 - small_decode.1
    );

    // Skip-index encoding: no allocation per element.
    let (small_encode, large_encode) = (encode_document(SMALL), encode_document(LARGE));
    println!(
        "encoding: {} -> {} allocations over {} -> {} elements",
        small_encode.0, large_encode.0, small_encode.1, large_encode.1
    );
    assert!(large_encode.1 > small_encode.1);
    assert_eq!(
        large_encode.0,
        small_encode.0,
        "encoding {} more elements allocates",
        large_encode.1 - small_encode.1
    );

    // SOE event path: marginal allocations per input event.
    let doctor = (stream_view(&doctor_small).0, stream_view(&doctor_large).0);
    let (secretary_small_view, secretary_small_stats) = stream_view(&secretary_small);
    let (secretary_large_view, secretary_large_stats) = stream_view(&secretary_large);
    assert_eq!(
        skips(&secretary_small_stats),
        (23_229, 93, 1),
        "secretary skips, small"
    );
    assert_eq!(
        skips(&secretary_large_stats),
        (93_512, 375, 11),
        "secretary skips, large"
    );
    for (path, session, budget) in [
        ("doctor", doctor.0 .0, DOCTOR_STREAM_SESSION_BUDGET),
        (
            "secretary",
            secretary_small_view.0,
            SECRETARY_STREAM_SESSION_BUDGET,
        ),
    ] {
        assert!(
            session <= budget,
            "a {path} ViewStream session allocates {session}, budget {budget}"
        );
    }
    let over_budget: Vec<String> = [
        marginal(
            "doctor ViewStream",
            doctor.0,
            doctor.1,
            DOCTOR_STREAM_BUDGET,
        ),
        marginal(
            "secretary ViewStream",
            secretary_small_view,
            secretary_large_view,
            SECRETARY_STREAM_BUDGET,
        ),
        marginal(
            "doctor card",
            (card_view(&doctor_small), doctor.0 .1),
            (card_view(&doctor_large), doctor.1 .1),
            DOCTOR_CARD_BUDGET,
        ),
        marginal(
            "secretary card",
            (card_view(&secretary_small), secretary_small_view.1),
            (card_view(&secretary_large), secretary_large_view.1),
            SECRETARY_CARD_BUDGET,
        ),
    ]
    .into_iter()
    .flatten()
    .collect();
    assert!(over_budget.is_empty(), "over budget: {over_budget:#?}");
}
