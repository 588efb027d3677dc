#!/usr/bin/env bash
# Non-test Rust lines per crate: every line of a `.rs` file except the items
# annotated with a top-level `#[cfg(test)]`. A skipped item runs from its doc
# comment and attributes to the first column-0 line ending in `}` or `;`
# (`mod tests { ... }`, `fn f() { ... }`, `use a::b;`); counting resumes after
# it. `tests/`,
# `vendor/`, `perfbench/` and `target/` are left out; the root facade counts
# `src/` and `examples/`.
#
# Usage: scripts/loc.sh [repo-root]   (default: the checkout this script is in)
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

# Prints the non-test lines of the `.rs` files under the given directories.
lines() {
    find "$@" -name '*.rs' -not -path '*/tests/*' -not -path '*/target/*' -print0 2>/dev/null |
        xargs -0 -r awk '
            FNR == 1 { n += held; held = 0; test = 0 }
            /^#\[cfg\(test\)\]/ { held = 0; test = 1 }
            test { if (/^[^ \t]/ && /[};][ \t]*$/) test = 0; next }
            /^(\/\/\/|#\[)/ { held++; next }
            { n += held + 1; held = 0 }
            END { print n + held }' |
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
