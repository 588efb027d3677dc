#![forbid(unsafe_code)]
//! `sdds-lint` — a token-level scanner enforcing the concurrency discipline
//! the `sdds-check` model checker assumes, with no dependencies outside
//! `std` and no syn-style parsing: comments and string literals are blanked
//! out, `#[cfg(test)]` regions are masked by brace matching, and the rules
//! run over what remains.
//!
//! Rules (see [`Rule`]):
//!
//! - **std-sync** — service crates (`sdds-dsp`, `sdds-proxy`) and the facade
//!   must import synchronization from `sdds-sync`, never `std::sync` /
//!   `std::thread`; otherwise the model-check build silently stops
//!   instrumenting them.
//! - **ordering** — every non-`Relaxed` atomic `Ordering::…` must carry a
//!   `// ordering:` justification comment on the same or preceding line.
//! - **no-panic** — no `unwrap` / `expect` / `panic!` / `unreachable!` in
//!   non-test library code; `// lint: infallible` (with a reason) is the
//!   escape hatch.
//! - **no-sleep** — no `sleep(…)` in service code: sleeping hides ordering
//!   bugs and the model checker turns it into a plain yield anyway.
//! - **forbid-unsafe** — every first-party crate root carries
//!   `#![forbid(unsafe_code)]`.
//! - **adhoc-atomic** — no new ad-hoc `AtomicU64` counters in service code
//!   outside `sdds-obs`: register a `Counter`/`Gauge`/`Histogram` so the
//!   metric shows up in `ObsSnapshot`; `// lint: atomic` (with a reason) is
//!   the escape hatch for atomics that are not metrics.
//! - **doc-sync** — every experiment bench (`crates/bench/benches/e*.rs`)
//!   must be named in the ARCHITECTURE.md experiment table, and every metric
//!   family declared in `crates/obs/src/families.rs` must appear in the
//!   book's metric table, so the book cannot silently fall behind the code.
//!
//! On top of the token rules sits the item-level **trust-boundary analyzer**
//! ([`items`], [`graph`], [`taint`]): it parses fn signatures, struct/enum
//! fields, impl blocks, and `use` items, classifies types into sensitivity
//! tiers from `trust.toml` plus `// taint:` annotations, and proves that no
//! `Secret` or `Plaintext` type can reach the untrusted DSP or the telemetry
//! layer (rules **taint-dsp**, **taint-obs**, **taint-debug**,
//! **taint-annotation**).

pub mod calls;
pub mod config;
pub mod escape;
pub mod graph;
pub mod items;
pub mod taint;

use std::fmt;
use std::path::{Path, PathBuf};

/// Which rule a violation belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// Direct `std::sync` / `std::thread` use in facade-routed code.
    StdSync,
    /// Non-`Relaxed` atomic ordering without a `// ordering:` justification.
    Ordering,
    /// `unwrap` / `expect` / `panic!` / `unreachable!` in library code.
    NoPanic,
    /// `sleep(…)` in service code.
    NoSleep,
    /// Missing `#![forbid(unsafe_code)]` on a crate root.
    ForbidUnsafe,
    /// Ad-hoc `AtomicU64` counter construction outside `sdds-obs`.
    AdhocAtomic,
    /// An experiment bench file or metric family missing from
    /// ARCHITECTURE.md.
    DocSync,
    /// A `Secret`/`Plaintext` type reachable from an item inside the
    /// untrusted DSP scope.
    TaintDsp,
    /// A `Secret`/`Plaintext` type reachable from telemetry code, or a
    /// secret tier name on a metric-label call.
    TaintObs,
    /// A `Secret` type that derives/impls `Debug`/`Display` or leaks raw
    /// bytes without a `// taint: redacted` justification.
    TaintDebug,
    /// A crypto boundary fn missing its `// taint: source|sink` annotation,
    /// or an annotation inconsistent with the signature it describes.
    TaintAnnotation,
    /// An allocating/copying construct reachable from a hot root without a
    /// justified `// alloc:` annotation.
    HotAlloc,
    /// A malformed or stale `// alloc:` justification, or a hot-root
    /// pattern matching no workspace fn.
    HotAnnotation,
}

impl Rule {
    /// Stable rule name, as printed in violation reports.
    pub fn name(self) -> &'static str {
        match self {
            Rule::StdSync => "std-sync",
            Rule::Ordering => "ordering",
            Rule::NoPanic => "no-panic",
            Rule::NoSleep => "no-sleep",
            Rule::ForbidUnsafe => "forbid-unsafe",
            Rule::AdhocAtomic => "adhoc-atomic",
            Rule::DocSync => "doc-sync",
            Rule::TaintDsp => "taint-dsp",
            Rule::TaintObs => "taint-obs",
            Rule::TaintDebug => "taint-debug",
            Rule::TaintAnnotation => "taint-annotation",
            Rule::HotAlloc => "hot-alloc",
            Rule::HotAnnotation => "hot-annotation",
        }
    }

    /// All rules, in report order.
    pub const ALL: &'static [Rule] = &[
        Rule::StdSync,
        Rule::Ordering,
        Rule::NoPanic,
        Rule::NoSleep,
        Rule::ForbidUnsafe,
        Rule::AdhocAtomic,
        Rule::DocSync,
        Rule::TaintDsp,
        Rule::TaintObs,
        Rule::TaintDebug,
        Rule::TaintAnnotation,
        Rule::HotAlloc,
        Rule::HotAnnotation,
    ];

    /// Looks a rule up by its stable name (`lint --explain <rule>`).
    pub fn by_name(name: &str) -> Option<Rule> {
        Rule::ALL.iter().copied().find(|r| r.name() == name)
    }

    /// A paragraph of rationale for `lint --explain`: what the rule catches
    /// and why the workspace enforces it.
    pub fn explain(self) -> &'static str {
        match self {
            Rule::StdSync => {
                "Service crates (sdds-dsp, sdds-proxy, sdds-obs) and the facade must \
                 import synchronization from sdds-sync, never std::sync / std::thread. \
                 The model-check build (--cfg sdds_check) swaps sdds-sync onto the \
                 sdds-check shims; a direct std::sync import silently escapes the \
                 checker's schedule control."
            }
            Rule::Ordering => {
                "Every non-Relaxed atomic Ordering::… must carry a `// ordering:` \
                 justification on the same or a preceding comment line. Acquire/Release \
                 pairs are protocol decisions; the comment records which store the load \
                 pairs with so reviewers can audit the happens-before edge."
            }
            Rule::NoPanic => {
                "No unwrap / expect / panic! / unreachable! in non-test library code: \
                 the card and server loops must degrade with typed errors, not abort. \
                 `// lint: infallible — <reason>` is the escape hatch for statically \
                 impossible failures."
            }
            Rule::NoSleep => {
                "No sleep(…) in service code: sleeping hides ordering bugs behind \
                 timing, and the model checker turns every sleep into a plain yield \
                 anyway. Use condvars or channels to wait for a condition."
            }
            Rule::ForbidUnsafe => {
                "Every first-party crate root must carry #![forbid(unsafe_code)]: the \
                 SOE simulation's security argument assumes no first-party unsafe."
            }
            Rule::AdhocAtomic => {
                "No ad-hoc AtomicU64 counters in service code outside sdds-obs: a bare \
                 atomic is a shadow metric that never reaches ObsSnapshot. Register a \
                 Counter/Gauge/Histogram instead, or justify with `// lint: atomic — \
                 <reason>` for atomics that are not metrics."
            }
            Rule::DocSync => {
                "ARCHITECTURE.md must stay in sync with the code: every experiment \
                 bench (crates/bench/benches/e*.rs), every metric family declared in \
                 crates/obs/src/families.rs, and every type named in lint/trust.toml's \
                 sensitivity tiers must appear in the book's tables."
            }
            Rule::TaintDsp => {
                "The DSP is the paper's untrusted server: it stores and serves \
                 encrypted chunks and must never see cleartext or key material. No \
                 Secret- or Plaintext-tier type (explicit in trust.toml, or inheriting \
                 the tier through a struct/enum field) may appear in any sdds-dsp item \
                 signature, struct field, use item, or public re-export."
            }
            Rule::TaintObs => {
                "Telemetry exports JSON from every layer, so the observability crate \
                 is an exfiltration path: no Secret/Plaintext-tier type may appear in \
                 sdds-obs item signatures, and no secret tier name may appear on a \
                 metric-label call (counter_with/gauge_with/histogram_with) anywhere."
            }
            Rule::TaintDebug => {
                "A Secret-tier type must not derive Debug, impl Debug/Display, or \
                 expose raw bytes (Vec<u8>/&[u8] returns) without justification: \
                 `{:?}` on a key ends up in logs and flight-recorder labels. A manual \
                 redacting impl is fine — mark it `// taint: redacted — <reason>`; \
                 byte accessors need `// taint: source|sink — <reason>`."
            }
            Rule::TaintAnnotation => {
                "Every crypto boundary crossing (a fn whose name contains a boundary \
                 verb — encrypt, decrypt, seal, wrap, unwrap_key, derive — and whose \
                 signature touches tiered types or raw bytes) must carry a `// taint: \
                 source|sink — <reason>` annotation, and the annotation must agree \
                 with the signature: a source produces sensitive data (so it must not \
                 be declared on a fn returning only ciphertext), a sink consumes it \
                 (so it must not return Secret/Plaintext)."
            }
            Rule::HotAlloc => {
                "The paper's performance argument is streaming evaluation in \
                 near-constant RAM: the per-event serving and rule-step paths must do \
                 constant work per event. No allocating or copying construct (clone, \
                 to_vec, to_owned, collect, format!, owning constructors) may be \
                 reachable from a hot root named in lint/hotpath.toml; every finding \
                 carries its root→…→fn call chain. Serve borrowed slices or share \
                 via Arc, or justify with `// alloc: amortized|startup|cold — \
                 <reason>`."
            }
            Rule::HotAnnotation => {
                "`// alloc:` justifications are reviewed claims and must stay \
                 honest: the keyword must be one of amortized/startup/cold with a \
                 nonempty reason, the annotated fn must actually be reachable from a \
                 hot root (otherwise the annotation is stale and must go), and every \
                 hot-root pattern in lint/hotpath.toml must match a real workspace \
                 fn."
            }
        }
    }
}

/// One rule violation at a source location.
#[derive(Debug, Clone)]
pub struct Violation {
    /// File the violation is in (as passed to the scanner).
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// The rule violated.
    pub rule: Rule,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule.name(),
            self.message
        )
    }
}

fn json_escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Renders violations as a stable machine-readable JSON array (`lint --json`):
/// one object per violation with `rule`, `file`, `line`, and `message` keys,
/// sorted the same way the human report prints them. Hand-rolled because the
/// linter must stay dependency-free.
pub fn violations_to_json(violations: &[Violation]) -> String {
    let mut out = String::from("[");
    for (i, v) in violations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n  {\"rule\": \"");
        out.push_str(v.rule.name());
        out.push_str("\", \"file\": \"");
        json_escape(&v.file.display().to_string(), &mut out);
        out.push_str("\", \"line\": ");
        out.push_str(&v.line.to_string());
        out.push_str(", \"message\": \"");
        json_escape(&v.message, &mut out);
        out.push_str("\"}");
    }
    out.push_str(if violations.is_empty() {
        "]\n"
    } else {
        "\n]\n"
    });
    out
}

/// Which rule families apply to a file (derived from its path by the
/// binary; explicit here so the library is testable without a filesystem).
#[derive(Debug, Clone, Copy)]
pub struct FileRules {
    /// Enforce the `sdds-sync` facade (no `std::sync` / `std::thread`).
    pub facade: bool,
    /// Forbid `sleep(…)`.
    pub no_sleep: bool,
    /// Forbid `unwrap` / `expect` / `panic!` / `unreachable!`.
    pub no_panic: bool,
    /// Require `// ordering:` justifications.
    pub ordering: bool,
    /// Require `#![forbid(unsafe_code)]` (crate roots only).
    pub forbid_unsafe: bool,
    /// Forbid ad-hoc `AtomicU64::new` counters (service code outside
    /// `sdds-obs`).
    pub adhoc_atomic: bool,
}

/// A source file ready to scan: raw text plus derived views.
struct Source<'a> {
    raw_lines: Vec<&'a str>,
    /// Source with comments and string/char literals blanked to spaces
    /// (newlines preserved, so offsets and line numbers match `raw`).
    code: String,
    /// Byte offsets (into `code`) covered by `#[cfg(test)]` items.
    test_mask: Vec<(usize, usize)>,
}

/// Blanks comments and string/char literals, preserving newlines and byte
/// offsets. Token-level rules then cannot be fooled by `"std::sync"` in a
/// string or an `unwrap()` in a doc example.
fn blank_noncode(src: &str) -> String {
    blank_noncode_impl(src, false)
}

/// Like [`blank_noncode`], but keeps the `//` marker of each line comment in
/// place (the comment text itself is still blanked). A `//` in the output is
/// then a *real* line-comment start — a `//` inside a string literal stays
/// blanked — which is what the `// alloc:` annotation scanner needs to tell
/// the two apart even when the string spans lines.
pub(crate) fn blank_noncode_keep_markers(src: &str) -> String {
    blank_noncode_impl(src, true)
}

fn blank_noncode_impl(src: &str, keep_line_markers: bool) -> String {
    #[derive(PartialEq)]
    enum St {
        Code,
        Line,
        Block(usize),
        Str,
        RawStr(usize),
        Char,
    }
    let bytes = src.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut st = St::Code;
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        let next = bytes.get(i + 1).copied();
        match st {
            St::Code => match b {
                b'/' if next == Some(b'/') => {
                    st = St::Line;
                    out.extend_from_slice(if keep_line_markers { b"//" } else { b"  " });
                    i += 2;
                    continue;
                }
                b'/' if next == Some(b'*') => {
                    st = St::Block(1);
                    out.extend_from_slice(b"  ");
                    i += 2;
                    continue;
                }
                b'"' => {
                    st = St::Str;
                    out.push(b' ');
                }
                b'r' if matches!(next, Some(b'"') | Some(b'#')) && !prev_is_ident(&out) => {
                    // Raw string r"…" / r#"…"# — count the hashes.
                    let mut hashes = 0;
                    let mut j = i + 1;
                    while bytes.get(j) == Some(&b'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if bytes.get(j) == Some(&b'"') {
                        st = St::RawStr(hashes);
                        out.extend(std::iter::repeat_n(b' ', j - i + 1));
                        i = j + 1;
                        continue;
                    }
                    out.push(b);
                }
                b'b' | b'c' if next == Some(b'r') && !prev_is_ident(&out) => {
                    // Raw byte/C string br"…" / cr#"…"# — without this, the
                    // `"` would open an *escaping* string state and a `\` in
                    // the raw body could swallow the closing quote, blanking
                    // the rest of the file and desyncing line numbers.
                    let mut hashes = 0;
                    let mut j = i + 2;
                    while bytes.get(j) == Some(&b'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if bytes.get(j) == Some(&b'"') {
                        st = St::RawStr(hashes);
                        out.extend(std::iter::repeat_n(b' ', j - i + 1));
                        i = j + 1;
                        continue;
                    }
                    out.push(b);
                }
                b'\'' => {
                    // Only a literal if it closes: 'x' or '\x'. A lifetime
                    // ('a) has no closing quote within a couple of bytes.
                    let close = if next == Some(b'\\') {
                        // Escaped char: find the next quote. The longest
                        // escape is `\u{10FFFF}` — 10 bytes past the
                        // backslash — so the window must reach that far, or
                        // the literal's `{`/`}` bytes leak into blanked code.
                        bytes[i + 2..].iter().take(10).position(|&c| c == b'\'')
                    } else if bytes.get(i + 2) == Some(&b'\'') {
                        Some(0)
                    } else {
                        None
                    };
                    if close.is_some() {
                        st = St::Char;
                    }
                    out.push(b' ');
                }
                _ => out.push(b),
            },
            St::Line => {
                if b == b'\n' {
                    st = St::Code;
                    out.push(b'\n');
                } else {
                    out.push(b' ');
                }
            }
            St::Block(depth) => {
                if b == b'*' && next == Some(b'/') {
                    st = if depth == 1 {
                        St::Code
                    } else {
                        St::Block(depth - 1)
                    };
                    out.extend_from_slice(b"  ");
                    i += 2;
                    continue;
                }
                if b == b'/' && next == Some(b'*') {
                    st = St::Block(depth + 1);
                    out.extend_from_slice(b"  ");
                    i += 2;
                    continue;
                }
                out.push(if b == b'\n' { b'\n' } else { b' ' });
            }
            St::Str => match b {
                b'\\' => {
                    // Keep the newline of a `\`-line-continuation: blanking
                    // must never shift line numbers. A trailing `\` at end of
                    // input consumes only itself, keeping output length equal
                    // to input length.
                    out.push(b' ');
                    if let Some(n) = next {
                        out.push(if n == b'\n' { b'\n' } else { b' ' });
                        i += 2;
                    } else {
                        i += 1;
                    }
                    continue;
                }
                b'"' => {
                    st = St::Code;
                    out.push(b' ');
                }
                _ => out.push(if b == b'\n' { b'\n' } else { b' ' }),
            },
            St::RawStr(hashes) => {
                if b == b'"'
                    && bytes[i + 1..]
                        .iter()
                        .take(hashes)
                        .filter(|&&c| c == b'#')
                        .count()
                        == hashes
                {
                    st = St::Code;
                    out.extend(std::iter::repeat_n(b' ', hashes + 1));
                    i += 1 + hashes;
                    continue;
                }
                out.push(if b == b'\n' { b'\n' } else { b' ' });
            }
            St::Char => match b {
                b'\\' => {
                    out.push(b' ');
                    if let Some(n) = next {
                        out.push(if n == b'\n' { b'\n' } else { b' ' });
                        i += 2;
                    } else {
                        i += 1;
                    }
                    continue;
                }
                b'\'' => {
                    st = St::Code;
                    out.push(b' ');
                }
                _ => out.push(b' '),
            },
        }
        i += 1;
    }
    // Blanking writes one byte per input byte (ASCII spaces/newlines or the
    // original byte), so the result is valid UTF-8 iff the input was.
    String::from_utf8(out).unwrap_or_default() // lint: infallible — output bytes are input bytes or ASCII
}

fn prev_is_ident(out: &[u8]) -> bool {
    out.last()
        .is_some_and(|&b| b.is_ascii_alphanumeric() || b == b'_')
}

/// Computes byte ranges covered by `#[cfg(test)]` items in blanked code: the
/// attribute plus the braced block (or terminating `;`) that follows it.
fn test_regions(code: &str) -> Vec<(usize, usize)> {
    let bytes = code.as_bytes();
    let mut regions = Vec::new();
    let mut from = 0;
    while let Some(at) = code[from..].find("#[cfg(test)]") {
        let start = from + at;
        let mut i = start + "#[cfg(test)]".len();
        // Find the end of the gated item: first `;` at depth 0 or the
        // matching close of the first `{`.
        let mut depth = 0usize;
        let mut end = bytes.len();
        while i < bytes.len() {
            match bytes[i] {
                b'{' => depth += 1,
                b'}' => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        end = i + 1;
                        break;
                    }
                }
                b';' if depth == 0 => {
                    end = i + 1;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
        regions.push((start, end));
        from = end.max(start + 1);
    }
    regions
}

impl<'a> Source<'a> {
    fn new(raw: &'a str) -> Self {
        let code = blank_noncode(raw);
        let test_mask = test_regions(&code);
        Source {
            raw_lines: raw.lines().collect(),
            code,
            test_mask,
        }
    }

    fn in_test(&self, offset: usize) -> bool {
        self.test_mask
            .iter()
            .any(|&(start, end)| offset >= start && offset < end)
    }

    fn line_of(&self, offset: usize) -> usize {
        self.code[..offset].bytes().filter(|&b| b == b'\n').count() + 1
    }

    /// True when `marker` appears in the raw text of `line` or the line
    /// before it (1-based) — the escape-hatch comment convention.
    fn escaped(&self, line: usize, marker: &str) -> bool {
        let here = self.raw_lines.get(line - 1).copied().unwrap_or("");
        if here.contains(marker) {
            return true;
        }
        // Justifications often wrap onto several lines: walk upward through
        // the contiguous `//` comment block directly above the use.
        let mut i = line - 1;
        while i >= 1 {
            let above = self.raw_lines[i - 1];
            if !above.trim_start().starts_with("//") {
                break;
            }
            if above.contains(marker) {
                return true;
            }
            i -= 1;
        }
        false
    }
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Finds `needle` in `code` at token boundaries (not inside an identifier).
fn token_positions(code: &str, needle: &str) -> Vec<usize> {
    let bytes = code.as_bytes();
    let nb = needle.as_bytes();
    let mut found = Vec::new();
    let mut from = 0;
    while let Some(at) = code[from..].find(needle) {
        let start = from + at;
        let end = start + nb.len();
        let left_ok = start == 0 || !is_ident_byte(bytes[start - 1]);
        let right_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if left_ok && right_ok {
            found.push(start);
        }
        from = start + 1;
    }
    found
}

/// True when the first non-whitespace byte after `offset + token` is `what`.
fn followed_by(code: &str, offset: usize, token: &str, what: u8) -> bool {
    code.as_bytes()[offset + token.len()..]
        .iter()
        .find(|b| !b.is_ascii_whitespace())
        == Some(&what)
}

/// Scans one file's contents under the given rule set.
pub fn scan_file(path: &Path, contents: &str, rules: FileRules) -> Vec<Violation> {
    let src = Source::new(contents);
    let mut out = Vec::new();
    let mut push = |line: usize, rule: Rule, message: String| {
        out.push(Violation {
            file: path.to_path_buf(),
            line,
            rule,
            message,
        });
    };

    if rules.forbid_unsafe && !contents.contains("#![forbid(unsafe_code)]") {
        push(
            1,
            Rule::ForbidUnsafe,
            "crate root is missing #![forbid(unsafe_code)]".to_owned(),
        );
    }

    if rules.facade {
        for needle in ["std::sync", "std::thread"] {
            for at in token_positions(&src.code, needle) {
                if src.in_test(at) {
                    continue;
                }
                let line = src.line_of(at);
                push(
                    line,
                    Rule::StdSync,
                    format!("direct `{needle}` use; route through sdds-sync so the model checker can instrument it"),
                );
            }
        }
    }

    if rules.no_sleep {
        for at in token_positions(&src.code, "sleep") {
            if src.in_test(at) || !followed_by(&src.code, at, "sleep", b'(') {
                continue;
            }
            let line = src.line_of(at);
            push(
                line,
                Rule::NoSleep,
                "sleep() in service code: use condvars/channels; sleeping hides ordering bugs"
                    .to_owned(),
            );
        }
    }

    if rules.no_panic {
        for (needle, call_like) in [
            ("unwrap", true),
            ("expect", true),
            ("panic!", false),
            ("unreachable!", false),
        ] {
            let (token, suffix) = if call_like {
                (needle, b'(')
            } else {
                (needle.trim_end_matches('!'), b'!')
            };
            for at in token_positions(&src.code, token) {
                if src.in_test(at) || !followed_by(&src.code, at, token, suffix) {
                    continue;
                }
                let line = src.line_of(at);
                if src.escaped(line, "// lint: infallible") {
                    continue;
                }
                push(
                    line,
                    Rule::NoPanic,
                    format!(
                        "`{needle}` in library code: return a typed error, or justify with `// lint: infallible — <reason>`"
                    ),
                );
            }
        }
    }

    if rules.adhoc_atomic {
        for needle in ["AtomicU64::new"] {
            for at in token_positions(&src.code, needle) {
                if src.in_test(at) {
                    continue;
                }
                let line = src.line_of(at);
                if src.escaped(line, "// lint: atomic") {
                    continue;
                }
                push(
                    line,
                    Rule::AdhocAtomic,
                    format!(
                        "ad-hoc `{needle}` counter in service code: register a \
                         Counter/Gauge/Histogram with sdds-obs so it shows up in \
                         ObsSnapshot, or justify with `// lint: atomic — <reason>`"
                    ),
                );
            }
        }
    }

    if rules.ordering {
        for variant in ["Acquire", "Release", "AcqRel", "SeqCst"] {
            let needle = format!("Ordering::{variant}");
            for at in token_positions(&src.code, &needle) {
                if src.in_test(at) {
                    continue;
                }
                let line = src.line_of(at);
                if src.escaped(line, "// ordering:") {
                    continue;
                }
                push(
                    line,
                    Rule::Ordering,
                    format!(
                        "`{needle}` without a `// ordering:` justification (Relaxed needs none)"
                    ),
                );
            }
        }
    }

    out
}

/// Checks the doc-sync contract: every experiment bench file name in
/// `bench_files` (e.g. `e10_multi_client.rs`) must appear — stem or full file
/// name — in the text of the architecture book, whose experiment table is
/// the map from paper experiments to benches and gated baseline keys.
/// `book_path` is the path reported in violations (ARCHITECTURE.md).
pub fn check_doc_sync(book_path: &Path, book: &str, bench_files: &[String]) -> Vec<Violation> {
    bench_files
        .iter()
        .filter(|file| {
            let stem = file.strip_suffix(".rs").unwrap_or(file);
            !book.contains(stem)
        })
        .map(|file| Violation {
            file: book_path.to_path_buf(),
            line: 1,
            rule: Rule::DocSync,
            message: format!(
                "experiment bench `{file}` is not mentioned in the architecture \
                 book's experiment table; add a row for it"
            ),
        })
        .collect()
}

/// Extracts metric family strings from the raw text of
/// `crates/obs/src/families.rs`: every `pub const NAME: &str = "…";` line
/// contributes its quoted string. Raw-text on purpose — the naming authority
/// is a flat list of literals and must stay greppable.
pub fn metric_families(families_src: &str) -> Vec<String> {
    families_src
        .lines()
        .filter_map(|line| {
            let trimmed = line.trim_start();
            trimmed.strip_prefix("pub const ")?;
            if !trimmed.contains(": &str") {
                return None;
            }
            let open = trimmed.find('"')? + 1;
            let close = open + trimmed[open..].find('"')?;
            Some(trimmed[open..close].to_owned())
        })
        .collect()
}

/// Checks the metric half of the doc-sync contract: every metric family
/// registered in `sdds-obs` (as listed in `families`) must appear verbatim in
/// the architecture book's metric table. `book_path` is the path reported in
/// violations (ARCHITECTURE.md).
pub fn check_metric_sync(book_path: &Path, book: &str, families: &[String]) -> Vec<Violation> {
    families
        .iter()
        .filter(|family| !book.contains(family.as_str()))
        .map(|family| Violation {
            file: book_path.to_path_buf(),
            line: 1,
            rule: Rule::DocSync,
            message: format!(
                "metric family `{family}` is registered in sdds-obs but missing \
                 from the architecture book's metric table; add a row for it"
            ),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: FileRules = FileRules {
        facade: true,
        no_sleep: true,
        no_panic: true,
        ordering: true,
        forbid_unsafe: false,
        adhoc_atomic: true,
    };

    fn scan(contents: &str) -> Vec<Violation> {
        scan_file(Path::new("x.rs"), contents, ALL)
    }

    #[test]
    fn blanks_strings_and_comments() {
        let v = scan("// std::sync in a comment\nfn f() { let _ = \"std::sync\"; }\n");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn flags_std_sync_import() {
        let v = scan("use std::sync::Mutex;\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::StdSync);
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn flags_inline_std_thread_path() {
        let v = scan("fn f() { std::thread::spawn(|| {}); }\n");
        assert!(v.iter().any(|v| v.rule == Rule::StdSync));
    }

    #[test]
    fn test_module_is_exempt() {
        let v = scan(
            "fn f() {}\n#[cfg(test)]\nmod tests {\n    use std::sync::Mutex;\n    fn g() { None::<u8>.unwrap(); }\n}\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn cfg_test_use_item_is_exempt() {
        let v = scan("#[cfg(test)]\nuse std::sync::Mutex;\n");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn flags_unwrap_and_honours_escape() {
        let v = scan("fn f(x: Option<u8>) { x.unwrap(); }\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::NoPanic);

        let v = scan("fn f(x: Option<u8>) {\n    // lint: infallible — x checked above\n    x.unwrap();\n}\n");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn unwrap_or_else_is_not_unwrap() {
        let v = scan("fn f(x: Option<u8>) { x.unwrap_or_else(|| 0); }\n");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn flags_panic_macro() {
        let v = scan("fn f() { panic!(\"boom\"); }\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::NoPanic);
    }

    #[test]
    fn ordering_needs_justification_unless_relaxed() {
        let v = scan("fn f() { x.load(Ordering::SeqCst); }\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::Ordering);

        let v = scan("fn f() { x.load(Ordering::Relaxed); }\n");
        assert!(v.is_empty(), "{v:?}");

        let v = scan(
            "fn f() { x.load(Ordering::SeqCst); // ordering: pairs with release store in g()\n}\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn flags_sleep_call() {
        let v = scan("fn f() { thread::sleep(d); }\n");
        assert!(v.iter().any(|v| v.rule == Rule::NoSleep));

        // `sleep` as part of another identifier is fine.
        let v = scan("fn f() { no_sleep_here(); }\n");
        assert!(v.iter().all(|v| v.rule != Rule::NoSleep));
    }

    #[test]
    fn missing_forbid_unsafe_is_reported() {
        let rules = FileRules {
            forbid_unsafe: true,
            ..ALL
        };
        let v = scan_file(Path::new("lib.rs"), "pub fn f() {}\n", rules);
        assert!(v.iter().any(|v| v.rule == Rule::ForbidUnsafe));

        let v = scan_file(
            Path::new("lib.rs"),
            "#![forbid(unsafe_code)]\npub fn f() {}\n",
            rules,
        );
        assert!(v.iter().all(|v| v.rule != Rule::ForbidUnsafe));
    }

    #[test]
    fn raw_strings_are_blanked() {
        let v = scan("fn f() { let _ = r#\"std::sync unwrap( \"#; }\n");
        assert!(v.is_empty(), "{v:?}");
    }

    /// Blanking must be a byte-length- and newline-preserving map, or every
    /// downstream offset→line computation silently drifts.
    fn assert_blanking_preserves_shape(src: &str) {
        let blanked = blank_noncode(src);
        assert_eq!(blanked.len(), src.len(), "length drift for {src:?}");
        let src_newlines: Vec<usize> = src
            .bytes()
            .enumerate()
            .filter(|&(_, b)| b == b'\n')
            .map(|(i, _)| i)
            .collect();
        let blanked_newlines: Vec<usize> = blanked
            .bytes()
            .enumerate()
            .filter(|&(_, b)| b == b'\n')
            .map(|(i, _)| i)
            .collect();
        assert_eq!(src_newlines, blanked_newlines, "newline drift for {src:?}");
    }

    #[test]
    fn raw_byte_and_c_strings_are_blanked_without_desync() {
        // A `\` inside a raw byte string is a literal byte, not an escape; if
        // the tokenizer fell into the escaping-string state it would swallow
        // the closing quote and blank the unwrap below.
        let src = "fn f() { let _ = br\"a\\\"; let x: Option<u8> = None;\n x.unwrap(); }\n";
        assert_blanking_preserves_shape(src);
        let v = scan(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::NoPanic);
        assert_eq!(v[0].line, 2);

        let src = "fn f() { let _ = cr#\"std::sync \\ unwrap( \"#; }\n";
        assert_blanking_preserves_shape(src);
        assert!(scan(src).is_empty());

        let src = "fn f() { let _ = br#\"multi\nline \\ raw\"#; let x: Option<u8> = None;\n x.unwrap(); }\n";
        assert_blanking_preserves_shape(src);
        let v = scan(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn nested_block_comments_preserve_lines() {
        let src = "/* outer /* inner\n */ still a comment\nunwrap( */\nfn f(x: Option<u8>) { x.unwrap(); }\n";
        assert_blanking_preserves_shape(src);
        let v = scan(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 4);
    }

    #[test]
    fn long_unicode_char_escapes_are_fully_blanked() {
        // `\u{10FFFF}` is the longest char escape; a too-short lookahead
        // fails to recognise the literal and leaks its `{`/`}` bytes into
        // blanked code, where brace-matching passes would trip on them.
        for src in ["let c = '\\u{10FFFF}';\n", "let c = '\\u{1F600}';\n"] {
            assert_blanking_preserves_shape(src);
            let blanked = blank_noncode(src);
            assert!(
                !blanked.contains('{') && !blanked.contains('}'),
                "literal braces leaked: {blanked:?}"
            );
        }
    }

    #[test]
    fn trailing_backslash_does_not_overrun() {
        // Pathological EOF-in-string inputs must still blank to the same
        // byte length.
        for src in ["let s = \"abc\\", "let c = '\\", "\"\\"] {
            assert_blanking_preserves_shape(src);
        }
    }

    #[test]
    fn violations_to_json_escapes_and_orders() {
        let v = vec![
            Violation {
                file: PathBuf::from("a.rs"),
                line: 3,
                rule: Rule::TaintDsp,
                message: "bad \"quote\"".to_owned(),
            },
            Violation {
                file: PathBuf::from("b.rs"),
                line: 7,
                rule: Rule::NoPanic,
                message: "x".to_owned(),
            },
        ];
        let json = violations_to_json(&v);
        assert!(json.contains("\"rule\": \"taint-dsp\""));
        assert!(json.contains("\"line\": 3"));
        assert!(json.contains("bad \\\"quote\\\""));
        assert!(json.starts_with('[') && json.trim_end().ends_with(']'));
        assert_eq!(violations_to_json(&[]).trim(), "[]");
    }

    #[test]
    fn every_rule_has_a_name_and_explanation() {
        for &rule in Rule::ALL {
            assert_eq!(Rule::by_name(rule.name()), Some(rule));
            assert!(rule.explain().len() > 40, "thin rationale for {rule:?}");
        }
        assert_eq!(Rule::by_name("nope"), None);
    }

    #[test]
    fn lifetimes_do_not_open_char_literals() {
        // If 'a opened a literal, the rest of the file would be blanked and
        // the unwrap would go unseen.
        let v = scan("fn f<'a>(x: &'a Option<u8>) { x.unwrap(); }\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::NoPanic);
    }

    #[test]
    fn string_line_continuations_keep_line_numbers() {
        // A `\`-escaped newline inside a string must survive blanking:
        // otherwise every later violation is reported on the wrong line and
        // escape comments stop lining up.
        let v = scan("fn f(x: Option<u8>) {\n    let _s = \"a\\\nb\\\nc\";\n    x.unwrap();\n}\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 5, "{v:?}");
    }

    #[test]
    fn doc_sync_flags_unlisted_benches_only() {
        let book = "| E9 | `benches/e9_streaming_vs_dom.rs` | `e9.*` |\n\
                    | E10 | `benches/e10_multi_client.rs` | `e10.*` |\n";
        let benches = [
            "e9_streaming_vs_dom.rs".to_owned(),
            "e10_multi_client.rs".to_owned(),
            "e12_future_work.rs".to_owned(),
        ];
        let v = check_doc_sync(Path::new("ARCHITECTURE.md"), book, &benches);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::DocSync);
        assert!(v[0].message.contains("e12_future_work.rs"));
    }

    #[test]
    fn flags_adhoc_atomic_and_honours_escape() {
        let v = scan("fn f() { let c = AtomicU64::new(0); }\n");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::AdhocAtomic);

        let v = scan("fn f() {\n    // lint: atomic — ticket allocator, not a metric\n    let c = AtomicU64::new(0);\n}\n");
        assert!(v.is_empty(), "{v:?}");

        // Loads/stores on an existing atomic are fine; only construction of
        // a new cell is policed.
        let v = scan("fn f(c: &AtomicU64) { c.load(Ordering::Relaxed); }\n");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn metric_families_extracts_quoted_strings() {
        let src = "pub const A: &str = \"dsp.serve.requests\";\n\
                   // pub const COMMENTED: &str = \"nope\";\n\
                   pub const B: &str = \"sched.steps\";\n\
                   const PRIVATE: &str = \"hidden\";\n";
        let families = metric_families(src);
        assert_eq!(families, vec!["dsp.serve.requests", "sched.steps"]);
    }

    #[test]
    fn metric_sync_flags_undocumented_families_only() {
        let book = "| `dsp.serve.requests` | counter | per-shard serves |\n";
        let families = ["dsp.serve.requests".to_owned(), "sched.steps".to_owned()];
        let v = check_metric_sync(Path::new("ARCHITECTURE.md"), book, &families);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::DocSync);
        assert!(v[0].message.contains("sched.steps"));
    }

    #[test]
    fn escape_comment_covers_a_wrapped_justification() {
        let v = scan(
            "fn f(x: Option<u8>) {\n    // lint: infallible — a justification that\n    // wraps onto a second line.\n    x.unwrap();\n}\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }
}
