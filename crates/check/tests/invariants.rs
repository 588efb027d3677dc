//! Model-checked invariants of the sharded serving core.
//!
//! Each test wraps a small two-thread scenario over the real `sdds-dsp`
//! types in [`sdds_check::Model::check`]. In a normal build the service
//! internals use `std` primitives, so only the spawn/join points branch and
//! the tests act as plain concurrency smoke tests. Compiled with
//! `RUSTFLAGS="--cfg sdds_check"` (the `scripts/ci.sh` model-check step),
//! `sdds-sync` swaps the service internals onto the shim primitives and the
//! same tests explore *every* interleaving up to the preemption bound —
//! that build is where the `exhausted` assertions bite.
//!
//! The secure documents are built once outside the model closures: chunk
//! encryption is deterministic, and rebuilding them per execution would
//! dominate the search.

use sdds_check::shim::thread;
use sdds_check::Model;
use sdds_core::secdoc::{integrity_key, verify_chunk, SecureDocument, SecureDocumentBuilder};
use sdds_crypto::SecretKey;
use sdds_dsp::service::scheduler::{Schedulable, SessionScheduler, StepOutcome};
use sdds_dsp::service::shard::ShardedStore;
use sdds_dsp::ShardObs;
use sdds_wire::WireError;
use sdds_xml::generator::{self, GeneratorConfig, HospitalProfile};

fn key() -> SecretKey {
    SecretKey::derive(b"model", "k")
}

/// A small secure document; `salt` varies the content so that republished
/// revisions carry different nonces, hence different chunk tags.
fn document(id: &str, salt: usize) -> SecureDocument {
    let doc = generator::hospital(
        &HospitalProfile {
            patients: 1 + salt,
            ..HospitalProfile::default()
        },
        &GeneratorConfig::default(),
    );
    SecureDocumentBuilder::new(id, key()).build(&doc)
}

fn model() -> Model {
    // `Model::new()` honours SDDS_CHECK_BRANCHES / SDDS_CHECK_PREEMPTIONS,
    // so the CI soak can widen the search without touching the tests.
    Model::new()
}

/// Asserts full exploration — only meaningful in the instrumented build,
/// where the service internals actually branch.
fn assert_explored(report: &sdds_check::Report, name: &str) {
    #[cfg(sdds_check)]
    {
        assert!(
            report.exhausted,
            "{name}: search must exhaust within the branch budget"
        );
        assert!(
            report.executions > 1,
            "{name}: instrumented model must branch"
        );
    }
    #[cfg(not(sdds_check))]
    {
        assert!(report.executions >= 1, "{name}: model must run");
    }
}

// ---------------------------------------------------------------------------
// Invariant 1: replication invalidates before publishing.
// ---------------------------------------------------------------------------

/// A republish of a replicated document first invalidates the pinned clones
/// and only then publishes the new revision. A reader that sees the new
/// revision in the directory must therefore never be served a stale clone:
/// whatever replica answers, the chunk verifies against the header the same
/// fetch returned.
#[test]
fn replication_invalidates_before_publish() {
    let v0 = document("doc", 0);
    let v1 = document("doc", 1);
    let integrity = integrity_key(&key().deriver());
    let report = model()
        .check("replication_invalidate_before_publish", || {
            let store = ShardedStore::new(2);
            store.put_document(v0.clone());
            store.pin_replicas("doc", 2).expect("doc is present");

            thread::scope(|scope| {
                scope.spawn(|| {
                    store.put_document(v1.clone());
                });
                // Reader: header and chunk must agree, whichever replica —
                // old, invalidated, or new — ends up serving the request.
                let (header, revision) = store.fetch_header("doc", None, 0).expect("doc is stored");
                match store.fetch_chunk("doc", 0, Some(revision), 0) {
                    Ok((chunk, tag)) => {
                        verify_chunk(&integrity, &header, 0, &chunk, &tag)
                            .expect("served chunk must match the header it was pinned with");
                    }
                    Err(WireError::StaleRevision {
                        pinned, current, ..
                    }) => {
                        assert!(
                            pinned < current,
                            "staleness must point forward: pinned {pinned}, current {current}"
                        );
                    }
                    Err(other) => panic!("unexpected serve error: {other}"),
                }
            });
            // After the republish settles, the store serves revision 1 only.
            assert_eq!(store.revision("doc"), Some(1));
        })
        .expect("no interleaving may serve a stale replica");
    assert_explored(&report, "replication_invalidate_before_publish");
}

// ---------------------------------------------------------------------------
// Invariant 2: stats counters lose nothing and never run ahead.
// ---------------------------------------------------------------------------

/// Concurrent `count_*` calls on a detached `ShardObs` (one shard's serving
/// counters) never lose a count: once both threads join, the totals are
/// exact. A *concurrent* snapshot may be torn mid-record
/// (the checker demonstrates schedules where it reads `requests` before the
/// bump and `chunks_served` after — which is exactly why `reset_stats`
/// takes the shard write lock in production), so mid-record it may only
/// assert per-counter bounds, never cross-counter order.
#[test]
fn stats_never_lose_or_invent_counts() {
    let report = model()
        .check("stats_no_lost_counts", || {
            let stats = ShardObs::default();
            thread::scope(|scope| {
                scope.spawn(|| {
                    stats.count_chunk(10);
                });
                // Concurrent observer: possibly torn, never over-counted.
                let snap = stats.stats();
                assert!(snap.requests <= 2, "requests over-counted: {snap:?}");
                assert!(snap.chunks_served <= 1, "chunks over-counted: {snap:?}");
                assert!(snap.bytes_served <= 15, "bytes over-counted: {snap:?}");
                stats.count_header(5);
            });
            let done = stats.stats();
            assert_eq!(done.requests, 2, "a record was lost: {done:?}");
            assert_eq!(done.bytes_served, 15, "served bytes were lost: {done:?}");
            assert_eq!(done.chunks_served, 1, "the chunk count was lost: {done:?}");
        })
        .expect("no interleaving may lose or invent a count");
    assert_explored(&report, "stats_no_lost_counts");
}

/// A concurrent `reset_stats` may erase any prefix of an in-flight record, but it
/// never duplicates one: every counter ends at or below its recorded total,
/// and the order invariant keeps holding.
#[test]
fn stats_reset_race_never_duplicates() {
    let report = model()
        .check("stats_reset_race", || {
            let stats = ShardObs::default();
            thread::scope(|scope| {
                scope.spawn(|| {
                    stats.count_chunk(10);
                });
                stats.reset_stats();
            });
            let done = stats.stats();
            assert!(done.requests <= 1, "requests duplicated: {done:?}");
            assert!(done.bytes_served <= 10, "bytes duplicated: {done:?}");
            assert!(done.chunks_served <= 1, "chunks duplicated: {done:?}");
        })
        .expect("a reset race may erase but never duplicate");
    assert_explored(&report, "stats_reset_race");
}

// ---------------------------------------------------------------------------
// Invariant 3: the scheduler neither loses nor double-steps a session.
// ---------------------------------------------------------------------------

/// A session that counts its own steps: the model cross-checks the
/// scheduler's ledger against the session's.
struct CountedSession {
    left: usize,
    stepped: usize,
}

impl CountedSession {
    fn new(steps: usize) -> Self {
        CountedSession {
            left: steps,
            stepped: 0,
        }
    }
}

impl Schedulable for CountedSession {
    fn step(&mut self, _quantum: usize) -> Result<StepOutcome, String> {
        if self.left == 0 {
            // A step after completion is exactly the double-step bug the
            // FIFO requeue must rule out.
            return Err("stepped after completion".into());
        }
        self.left -= 1;
        self.stepped += 1;
        Ok(if self.left == 0 {
            StepOutcome::Complete
        } else {
            StepOutcome::Pending
        })
    }
}

fn check_schedule(workers: usize, sessions: Vec<CountedSession>) {
    let expected = sessions.len();
    let steps: usize = sessions.iter().map(|s| s.left).sum();
    let report = SessionScheduler::new(workers, 1).run(sessions);
    assert_eq!(report.finished.len(), expected, "a session was lost");
    assert!(
        report.failures().is_empty(),
        "a session was double-stepped: {:?}",
        report.failures()
    );
    assert_eq!(report.steps_total, steps, "step ledger drifted");
    for finished in &report.finished {
        assert_eq!(
            finished.steps, finished.session.stepped,
            "scheduler ledger disagrees with session {}",
            finished.index
        );
    }
}

/// One worker against the submitting thread: every interleaving of the
/// take / requeue / retire / exit protocol is explored exhaustively, and
/// no schedule may lose or double-step a session.
#[test]
fn scheduler_never_loses_or_double_steps() {
    let report = model()
        .check("scheduler_fifo_requeue", || {
            check_schedule(1, vec![CountedSession::new(2), CountedSession::new(1)]);
        })
        .expect("no interleaving may lose or double-step a session");
    assert_explored(&report, "scheduler_fifo_requeue");
}

/// Asserts a bounded soak really dug in: every worker crosses a scheduling
/// point per queue lock it takes (its own queue and each peer's on every
/// take) and per retirement, so multi-worker spaces do not exhaust within
/// any practical budget (the price of a loom-lite without DPOR). They run as bounded soaks instead: the whole branch budget is
/// spent, every explored schedule must uphold the invariant, and the CI soak
/// widens it via SDDS_CHECK_BRANCHES.
fn assert_soaked(report: &sdds_check::Report) {
    #[cfg(sdds_check)]
    assert!(
        report.executions > 100,
        "soak explored too little: {report:?}"
    );
    #[cfg(not(sdds_check))]
    assert!(report.executions >= 1, "model must run: {report:?}");
}

/// Two workers, two sessions: each worker starts on its own queue, and a
/// worker that retires its session steals the other's while its owner
/// requeues it. No schedule may lose a session or step it twice at once.
#[test]
fn scheduler_worker_race_soak() {
    let report = model()
        .check("scheduler_worker_race_soak", || {
            check_schedule(2, vec![CountedSession::new(1), CountedSession::new(2)]);
        })
        .expect("no explored interleaving may lose or double-step a session");
    assert_soaked(&report);
}

/// An idle worker's exit strands nothing: two workers, one session. The
/// worker that does not hold the session finds nothing and exits while the
/// other keeps requeueing it (or steals the requeued session and leaves the
/// first worker to exit); in every explored schedule the session still
/// retires with its full step count.
#[test]
fn scheduler_idle_worker_exit_strands_no_session() {
    let report = model()
        .check("scheduler_idle_worker_exit_strands_no_session", || {
            check_schedule(2, vec![CountedSession::new(3)]);
        })
        .expect("no explored interleaving may strand a session");
    assert_soaked(&report);
}

// ---------------------------------------------------------------------------
// Invariant 4: revision pinning turns republish races into typed staleness.
// ---------------------------------------------------------------------------

/// A session pins the revision at its header fetch. If a republish lands
/// between that fetch and a chunk fetch, the store answers with
/// `StaleRevision` — never with a new-revision chunk that fails to verify
/// against the pinned header (a torn read).
#[test]
fn pinned_fetches_are_never_torn() {
    let v0 = document("doc", 0);
    let v1 = document("doc", 1);
    let integrity = integrity_key(&key().deriver());
    let report = model()
        .check("revision_pinning", || {
            let store = ShardedStore::new(1);
            store.put_document(v0.clone());
            thread::scope(|scope| {
                // Pin first: the interesting schedules are the ones where
                // the republish lands inside the pinned session.
                let (header, revision) = store.fetch_header("doc", None, 0).expect("doc is stored");
                scope.spawn(|| {
                    store.put_document(v1.clone());
                });
                match store.fetch_chunk("doc", 0, Some(revision), 0) {
                    Ok((chunk, tag)) => {
                        // Served under the pinned revision: must verify
                        // against the pinned header, not the new one.
                        verify_chunk(&integrity, &header, 0, &chunk, &tag)
                            .expect("pinned chunk must verify against the pinned header");
                    }
                    Err(WireError::StaleRevision {
                        pinned, current, ..
                    }) => {
                        assert_eq!(pinned, revision);
                        assert!(current > pinned);
                    }
                    Err(other) => panic!("a pinned fetch must stay typed: {other}"),
                }
            });
        })
        .expect("no interleaving may tear a pinned fetch");
    assert_explored(&report, "revision_pinning");
}
