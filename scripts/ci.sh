#!/usr/bin/env bash
# CI check for the SDDS workspace: formatting, lints, tier-1 build + tests
# (with the raised property-case count), a build and a run of each example,
# the perfbench workspace's tests, and the bench-regression gate against
# BENCH_baseline.json.
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> RUSTDOCFLAGS=\"-D warnings\" cargo doc --workspace --no-deps"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> cargo build --release"
cargo build --release

echo "==> sdds-lint (concurrency + panic hygiene + crate graph)"
# The crate-graph check keeps the DSP and obs crates off every crate that
# holds a key or cleartext, so the compiler keeps those types out of them
# (see ARCHITECTURE.md, "Trust boundary"); the token rules keep secret types
# out of metric labels and Debug/Display, and enforce the sdds-sync facade,
# ordering justifications, panic and sleep hygiene, forbid(unsafe_code) and
# the book's doc-sync tables. The machine-readable findings land next to the
# human report so CI logs and tooling see the same thing.
mkdir -p target
if ! cargo run -q -p sdds-lint -- --json target/sdds-lint.json; then
    echo "sdds-lint findings (also at target/sdds-lint.json):" >&2
    cat target/sdds-lint.json >&2
    exit 1
fi

echo "==> cargo test -q (SDDS_PROP_CASES=256)"
SDDS_PROP_CASES=256 cargo test -q

echo "==> cargo test -q --release -p sdds-crypto -p sdds-core"
# The cipher, MAC and SOE arithmetic also run optimised: release builds
# wrap integer overflow silently where debug builds panic, so the
# known-answer and differential tests (AES, CTR, Poly1305's limb
# arithmetic against a slow mod 2^130 - 5 reference, and the KDF and SIV
# pins) must pass in both profiles.
cargo test -q --release -p sdds-crypto -p sdds-core

echo "==> cargo test -q --release --test alloc_budget"
# The hot-path allocation budgets (ARCHITECTURE.md, "Hot path") must hold in
# both profiles: the optimiser may elide allocations the debug build makes.
cargo test -q --release --test alloc_budget

echo "==> model check (--cfg sdds_check, SDDS_CHECK_BRANCHES=${SDDS_CHECK_BRANCHES:-60000})"
# The instrumented build swaps sdds-sync onto the sdds-check shims, so the
# invariant models explore real service interleavings. A separate target dir
# keeps the differently-flagged artifacts from thrashing the main cache.
CARGO_TARGET_DIR=target/check RUSTFLAGS="--cfg sdds_check" \
    SDDS_CHECK_BRANCHES="${SDDS_CHECK_BRANCHES:-60000}" \
    cargo test -q -p sdds-check

echo "==> concurrent-read property test (SDDS_PROP_CASES=512)"
# The readers-vs-republisher race deserves a deeper soak than the default
# suite gives it: 512 completed reads under continuous republishing.
SDDS_PROP_CASES=512 cargo test -q --test concurrent_reads

echo "==> cargo build --release --examples"
cargo build --release --examples

echo "==> run the examples"
# Each demo runs in a few milliseconds; a panic or an error in one of them
# fails CI.
for example in quickstart medical_folder selective_dissemination collaborative_community; do
    echo "--> $example"
    "target/release/examples/$example" >/dev/null
done

echo "==> cargo test -q --manifest-path perfbench/Cargo.toml"
# perfbench/ is its own workspace over the public DSP API: building and
# testing it here catches an API trim that would break the benchmark.
cargo test -q --manifest-path perfbench/Cargo.toml

echo "==> obs snapshot (harness --obs --obs-only: E10 telemetry report)"
# The telemetry pass re-runs the E10 hot-document workload with
# observability wired in and dumps the ObsSnapshot + flight recorder. The
# report must be valid JSON and carry families from each instrumented layer
# (serve, scheduler steps and steals, session) plus the flight recorder.
obs_report="$(mktemp -t sdds-obs-XXXXXX.json)"
trap 'rm -f "$obs_report"' EXIT
target/release/harness --obs "$obs_report" --obs-only
if command -v python3 >/dev/null 2>&1; then
    python3 -c "import json,sys; json.load(open(sys.argv[1]))" "$obs_report"
fi
for family in dsp.serve.requests dsp.serve.latency_ns sched.steps \
    sched.steals session.apdu_round_trips sdds-obs-flight-v1; do
    grep -qF "$family" "$obs_report" ||
        { echo "obs report is missing \`$family\`" >&2; exit 1; }
done

echo "==> scripts/bench_gate.sh"
# Gates the wall-clock keys of BENCH_baseline.json (E1 and E9 events/s) at
# -15%. Every deterministic key (peak RAM, byte counts, the E5, E6 and E10
# cost-model outputs) is pinned exactly by the harness test in `cargo test`.
scripts/bench_gate.sh

echo "CI checks passed."
