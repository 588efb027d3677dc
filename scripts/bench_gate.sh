#!/usr/bin/env bash
# Bench-regression gate for the SDDS workspace.
#
# Runs the E1–E10 harness in JSON mode and checks the wall-clock keys, those
# of the committed BENCH_baseline.json (E1 events/s per rule count, E9 SOE
# events/s and zero-copy serve events/s): each is a throughput and must not
# drop more than TOLERANCE_PCT below its baseline. Every other harness key is
# deterministic and pinned exactly by the harness's own test (`cargo test -p
# sdds-bench --bin harness`), which also fails on a printed key that is in
# neither set.
#
# Wall-clock throughput is noisy on shared CI runners, so a failing run is
# retried once and the best value per metric across attempts is compared; the
# gate fails only if a metric regressed in every attempt.
#
# The committed baseline was measured on one machine and is only comparable
# on similar hardware. Regenerate it by copying the wall-clock keys from
# `harness --json <path>`, or widen the tolerance via
# SDDS_BENCH_TOLERANCE_PCT.
#
# Usage: scripts/bench_gate.sh [current.json]
#   With an argument, compares that metrics file instead of running the
#   harness (useful for inspecting a previous run).
set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE="BENCH_baseline.json"
TOLERANCE_PCT="${SDDS_BENCH_TOLERANCE_PCT:-15}"
ATTEMPTS="${SDDS_BENCH_ATTEMPTS:-2}"

if [[ ! -f "$BASELINE" ]]; then
    echo "bench gate: missing $BASELINE (the wall-clock keys of \`harness --json <path>\`)" >&2
    exit 1
fi

metric() { # metric <file> <key> -> value (empty if absent)
    # `|| true`: a missing key must yield an empty value, not abort the gate
    # through set -e/pipefail before the MISSING diagnostic can fire.
    { grep -F "\"$2\":" "$1" || true; } | head -1 | sed 's/.*: *//; s/,$//'
}

gated_keys() { # the metric keys of the baseline
    grep -oE '^ *"[a-z0-9_]+\.[^"]+"' "$BASELINE" | tr -d ' "'
}

# Per-key best (highest) value observed across harness attempts — a key only
# fails if it regressed in *every* attempt.
declare -A BEST

update_best() { # update_best <current.json>
    local key cur
    for key in $(gated_keys); do
        cur=$(metric "$1" "$key")
        [[ -z "$cur" ]] && continue
        if [[ -z "${BEST[$key]:-}" ]] ||
            awk -v c="$cur" -v b="${BEST[$key]}" 'BEGIN { exit !(c > b) }'; then
            BEST[$key]="$cur"
        fi
    done
}

# check_best — compares the per-key bests against the baseline; prints every
# regression and returns non-zero if any.
check_best() {
    local failures=0 key base cur
    for key in $(gated_keys); do
        base=$(metric "$BASELINE" "$key")
        cur="${BEST[$key]:-}"
        if [[ -z "$cur" ]]; then
            echo "  MISSING  $key (baseline $base, absent from current run)"
            failures=$((failures + 1))
            continue
        fi
        # Higher is better: fail when current < base * (1 - tol).
        if awk -v c="$cur" -v b="$base" -v t="$TOLERANCE_PCT" \
            'BEGIN { exit !(c < b * (1 - t / 100)) }'; then
            echo "  REGRESSED  $key: $cur < $base -${TOLERANCE_PCT}%"
            failures=$((failures + 1))
        fi
    done
    return "$failures"
}

if [[ $# -ge 1 ]]; then
    echo "==> bench gate: comparing $1 against $BASELINE (±${TOLERANCE_PCT}%)"
    update_best "$1"
    if check_best; then
        echo "bench gate passed."
        exit 0
    fi
    echo "bench gate FAILED." >&2
    exit 1
fi

current="$(mktemp -t sdds-bench-XXXXXX.json)"
trap 'rm -f "$current"' EXIT
for attempt in $(seq 1 "$ATTEMPTS"); do
    echo "==> bench gate: harness run $attempt/$ATTEMPTS (JSON -> $current)"
    cargo run -p sdds-bench --bin harness --release -- --json "$current" >/dev/null
    update_best "$current"
    if check_best; then
        echo "bench gate passed (attempt $attempt, ±${TOLERANCE_PCT}% vs $BASELINE)."
        exit 0
    fi
    echo "==> attempt $attempt regressed (best-so-far kept per metric)" >&2
done
echo "bench gate FAILED: metrics regressed vs $BASELINE on all $ATTEMPTS attempts." >&2
exit 1
