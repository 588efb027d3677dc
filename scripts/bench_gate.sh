#!/usr/bin/env bash
# Bench-regression gate for the SDDS workspace.
#
# Runs the E1–E10 harness in JSON mode and compares the gated metrics against
# the committed BENCH_baseline.json:
#
#   * throughput metrics (E1 events/s per rule count, E9 SOE events/s and
#     zero-copy serve events/s, E10
#     aggregate simulated events/s, shard-scaling ratio and hot-document
#     replication gain) must not drop more than TOLERANCE_PCT below the baseline,
#   * peak-RAM metrics (E1 and E9 peak secure RAM) must not rise more than
#     TOLERANCE_PCT above the baseline.
#
# Wall-clock throughput is noisy on shared CI runners, so a failing run is
# retried once and the best value per metric across attempts is compared; the
# gate fails only if a metric regressed in every attempt.
#
# The committed baseline's E1/E9 throughput was measured on one machine and is
# only comparable on similar hardware — on foreign hardware (e.g. shared
# GitHub-hosted runners) set SDDS_BENCH_GATE=ram to gate only the
# deterministic, machine-independent keys: the peak-RAM metrics AND the
# E10 keys (they run on the simulated cost-model clock — counters times
# model rates — so they are identical on any hardware). Regenerate the
# baseline with
# `harness --json BENCH_baseline.json`, or widen the tolerance via
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
GATE_MODE="${SDDS_BENCH_GATE:-all}" # all | ram

if [[ ! -f "$BASELINE" ]]; then
    echo "bench gate: missing $BASELINE (run: cargo run -p sdds-bench --bin harness --release -- --json $BASELINE)" >&2
    exit 1
fi

metric() { # metric <file> <key> -> value (empty if absent)
    # `|| true`: a missing key must yield an empty value, not abort the gate
    # through set -e/pipefail before the MISSING diagnostic can fire.
    { grep -F "\"$2\":" "$1" || true; } | head -1 | sed 's/.*: *//; s/,$//'
}

gated_keys() { # the E1/E9/E10 throughput and peak-RAM keys in the baseline
    grep -oE '"(e1\.rules_[0-9]+\.(events_per_s|peak_ram_bytes)|e9\.n[0-9]+\.(soe_events_per_s|soe_peak_ram_bytes)|e9\.zero_copy\.serve_events_per_s|e10\.clients_[0-9]+\.(shards_[0-9]+\.events_per_s|scaling_16v1)|e10\.hot\.clients_[0-9]+\.(replicas_[0-9]+\.events_per_s|replication_gain))"' \
        "$BASELINE" | tr -d '"' |
        # "ram" keeps only the machine-independent keys: peak RAM and the
        # simulated-clock E10 metrics.
        if [[ "$GATE_MODE" == "ram" ]]; then grep -E 'peak_ram_bytes|^e10\.'; else cat; fi
}

# Per-key best value observed across harness attempts (throughput: max,
# peak RAM: min) — a key only fails if it regressed in *every* attempt.
declare -A BEST

update_best() { # update_best <current.json>
    local key cur
    for key in $(gated_keys); do
        cur=$(metric "$1" "$key")
        [[ -z "$cur" ]] && continue
        if [[ -z "${BEST[$key]:-}" ]]; then
            BEST[$key]="$cur"
        else
            case "$key" in
            *events_per_s | *scaling_16v1 | *replication_gain)
                if awk -v c="$cur" -v b="${BEST[$key]}" 'BEGIN { exit !(c > b) }'; then
                    BEST[$key]="$cur"
                fi
                ;;
            *peak_ram_bytes)
                if awk -v c="$cur" -v b="${BEST[$key]}" 'BEGIN { exit !(c < b) }'; then
                    BEST[$key]="$cur"
                fi
                ;;
            esac
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
        case "$key" in
        *events_per_s | *scaling_16v1 | *replication_gain)
            # Higher is better: fail when current < base * (1 - tol).
            if awk -v c="$cur" -v b="$base" -v t="$TOLERANCE_PCT" \
                'BEGIN { exit !(c < b * (1 - t / 100)) }'; then
                echo "  REGRESSED  $key: $cur < $base -${TOLERANCE_PCT}%"
                failures=$((failures + 1))
            fi
            ;;
        *peak_ram_bytes)
            # Lower is better: fail when current > base * (1 + tol).
            if awk -v c="$cur" -v b="$base" -v t="$TOLERANCE_PCT" \
                'BEGIN { exit !(c > b * (1 + t / 100)) }'; then
                echo "  REGRESSED  $key: $cur > $base +${TOLERANCE_PCT}%"
                failures=$((failures + 1))
            fi
            ;;
        esac
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
