#!/usr/bin/env bash
# Non-test Rust lines per crate: every line of a `.rs` file before its first
# top-level `#[cfg(test)]` (the whole file when it has none). `tests/`,
# `vendor/`, `perfbench/` and `target/` are left out; the root facade counts
# `src/` and `examples/`.
#
# Usage: scripts/loc.sh [repo-root]   (default: the checkout this script is in)
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

# Prints the non-test lines of the `.rs` files under the given directories.
lines() {
    find "$@" -name '*.rs' -not -path '*/tests/*' -not -path '*/target/*' -print0 2>/dev/null |
        xargs -0 -r awk 'FNR == 1 { test = 0 } /^#\[cfg\(test\)\]/ { test = 1 } !test { n++ } END { print n + 0 }' |
        awk '{ total += $1 } END { print total + 0 }'
}

total=0
report() {
    local name=$1 count
    shift
    count=$(lines "$@")
    total=$((total + count))
    printf '%-14s %6d\n' "$name" "$count"
}

report sdds src examples
for crate in crates/*/; do
    report "$(basename "$crate")" "$crate"
done
printf '%-14s %6d\n' total "$total"
