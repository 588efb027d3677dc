//! The single naming authority for metric families.
//!
//! Every family the workspace registers lives here as a `pub const`, so the
//! instrumentation call sites cannot drift apart on spelling and the
//! `doc-sync` lint rule can hold ARCHITECTURE.md's metric table to exactly
//! this list: each string constant in this file must appear in the book.

/// Requests served, per shard (the per-shard "hit" count).
pub const SERVE_REQUESTS: &str = "dsp.serve.requests";
/// Total payload bytes served, per shard.
pub const SERVE_BYTES: &str = "dsp.serve.bytes";
/// Chunk requests served, per shard.
pub const SERVE_CHUNKS: &str = "dsp.serve.chunks";
/// Rule blobs served, per shard.
pub const SERVE_RULE_BLOBS: &str = "dsp.serve.rule_blobs";
/// Bytes of rule blobs served, per shard (a subset of `dsp.serve.bytes`).
pub const SERVE_RULE_BYTES: &str = "dsp.serve.rule_bytes";
/// Requests answered from a pinned replica instead of the home shard.
pub const SERVE_REPLICA_ROUTES: &str = "dsp.serve.replica_routes";
/// Stale-revision rejections, per shard.
pub const SERVE_STALE: &str = "dsp.serve.stale_revisions";
/// Wall-clock latency of one `ShardedStore::serve` call, in nanoseconds.
pub const SERVE_LATENCY: &str = "dsp.serve.latency_ns";

/// Typed failures, labelled `error=<kind>` (see the `error_*` constants).
pub const ERRORS: &str = "dsp.errors";

/// Scheduler run-queue depth over all workers (current + high-water mark).
pub const SCHED_QUEUE_DEPTH: &str = "sched.queue_depth";
/// Session quanta executed by the scheduler.
pub const SCHED_STEPS: &str = "sched.steps";
/// Sessions a worker took from the front of a peer's run queue.
pub const SCHED_STEALS: &str = "sched.steals";
/// Wall-clock latency of one session step under the scheduler, nanoseconds.
pub const SCHED_STEP_LATENCY: &str = "sched.step_latency_ns";

/// APDU round-trips between terminal and card (after batching).
pub const SESSION_APDUS: &str = "session.apdu_round_trips";
/// Bytes crossing the terminal/card wire, both directions.
pub const SESSION_WIRE_BYTES: &str = "session.wire_bytes";
/// Authorized events delivered to the client view.
pub const SESSION_EVENTS: &str = "session.events_delivered";

/// `ERRORS` label for a stale pinned revision.
pub const ERROR_STALE_REVISION: &str = "error=stale_revision";
/// `ERRORS` label for a document id the store does not hold.
pub const ERROR_NOT_FOUND: &str = "error=not_found";
/// `ERRORS` label for a subject with no rule blob on the document.
pub const ERROR_NO_RULES: &str = "error=no_rules_for_subject";
