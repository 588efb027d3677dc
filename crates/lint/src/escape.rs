//! The hot-path escape analyzer: proves the per-event serving path stays
//! allocation-free.
//!
//! The paper's performance argument is that the card evaluates access rules
//! *streaming*, in near-constant RAM, while the DSP serves chunks at wire
//! speed — so the per-event/per-chunk code paths must do constant work, and
//! in particular must not allocate or copy per event. This module turns that
//! property into a statically checked invariant:
//!
//! 1. `crates/lint/hotpath.toml` names the **hot roots** (serve entry
//!    points, the rule-engine step path, the session scheduler, stream
//!    `next`) and an **allocation vocabulary** (cloning methods, owning
//!    constructors, allocating macros).
//! 2. Reachability runs from the roots over the call graph built by
//!    [`crate::calls`] (conservative: a method call reaches every workspace
//!    method of that name).
//! 3. Every vocabulary construct inside a hot-reachable fn is reported with
//!    full call-chain provenance (`root → f → g → clone @ file:line`),
//!    unless the line carries a justified annotation:
//!
//!    ```text
//!    // alloc: amortized — reuses the buffer's spare capacity
//!    // alloc: startup — runs once per session, not per event
//!    // alloc: cold — error path, never taken on the steady state
//!    ```
//!
//! Two rules come out of this: **hot-alloc** (an allocating construct on a
//! hot path) and **hot-annotation** (a malformed `// alloc:` justification,
//! a stale one in a fn no hot root reaches, or a root pattern matching no
//! workspace fn).

use std::collections::VecDeque;
use std::path::Path;

use crate::calls::{CallGraph, CallKind, FnNode};
use crate::taint::SourceFile;
use crate::{blank_noncode_keep_markers, missing_from_book, Rule, Violation};

/// Where the hot-path configuration lives, as reported in violations about
/// the configuration itself (unmatched root patterns).
pub const CONFIG_PATH: &str = "crates/lint/hotpath.toml";

/// The declarative half of the analyzer, loaded from
/// `crates/lint/hotpath.toml`: hot-root patterns, the allocation
/// vocabulary, and the suppression keywords.
#[derive(Debug, Default)]
pub struct HotConfig {
    /// Hot-root patterns: `Type::name`, `Type::prefix*`, or a bare fn name
    /// (with optional trailing `*`).
    pub roots: Vec<String>,
    /// Allocating/copying method names (`clone`, `to_vec`, `collect`, …).
    pub methods: Vec<String>,
    /// Owning constructors in `Type::fn` form (`Vec::with_capacity`,
    /// `Box::new`, `String::from`, …).
    pub constructors: Vec<String>,
    /// Allocating macros (`format`, `vec`).
    pub macros: Vec<String>,
    /// Qualified calls exempt from the vocabulary: `Arc::clone` /
    /// `Rc::clone` are refcount bumps, not allocations.
    pub exempt: Vec<String>,
    /// Accepted `// alloc:` justification keywords.
    pub keywords: Vec<String>,
}

impl HotConfig {
    /// Parses `hotpath.toml` (the TOML subset of [`crate::config`]).
    pub fn parse(text: &str) -> Result<HotConfig, String> {
        let mut config = HotConfig::default();
        crate::config::for_each_array(text, "hotpath.toml", |section, key, items, line| {
            config.assign(section, key, items, line)
        })?;
        for (field, values) in [
            ("roots", &config.roots),
            ("vocabulary methods", &config.methods),
            ("annotation keywords", &config.keywords),
        ] {
            if values.is_empty() {
                return Err(format!("hotpath.toml: `{field}` must not be empty"));
            }
        }
        Ok(config)
    }

    fn assign(
        &mut self,
        section: &str,
        key: &str,
        items: Vec<String>,
        line: usize,
    ) -> Result<(), String> {
        match (section, key) {
            ("roots", "hot") => self.roots = items,
            ("vocabulary", "methods") => self.methods = items,
            ("vocabulary", "constructors") => self.constructors = items,
            ("vocabulary", "macros") => self.macros = items,
            ("vocabulary", "exempt") => self.exempt = items,
            ("annotations", "keywords") => self.keywords = items,
            _ => {
                return Err(format!(
                    "hotpath.toml:{line}: unknown entry `[{section}] {key}`"
                ))
            }
        }
        Ok(())
    }
}

/// True when `reason` is a well-formed justification: a `—`/`-` separator
/// followed by nonempty text (same grammar as the taint annotations).
fn reason_ok(reason: &str) -> bool {
    let stripped = reason
        .strip_prefix('—')
        .or_else(|| reason.strip_prefix('-'))
        .map(str::trim_start);
    stripped.is_some_and(|r| !r.is_empty())
}

/// Matches `name` against a root-pattern segment (`serve_*` or exact).
fn glob(pattern: &str, name: &str) -> bool {
    match pattern.strip_suffix('*') {
        Some(prefix) => name.starts_with(prefix),
        None => pattern == name,
    }
}

/// Matches one fn node against a root pattern: `Type::seg` requires the
/// impl self-type base to equal `Type`; a bare segment matches any fn of
/// that name.
fn root_matches(pattern: &str, node: &FnNode) -> bool {
    match pattern.split_once("::") {
        Some((ty, seg)) => node.self_type.as_deref() == Some(ty) && glob(seg, &node.name),
        None => glob(pattern, &node.name),
    }
}

/// One parsed `// alloc:` annotation found in a file.
#[derive(Debug)]
struct AllocNote {
    /// 1-based line the annotation is on.
    line: usize,
    /// The keyword after `alloc:` (first word, may be unknown).
    keyword: String,
    /// True when the keyword is configured and the reason is well-formed.
    ok: bool,
}

/// Per-file annotation index plus the raw lines the suppression walk needs.
struct FileNotes {
    raw_lines: Vec<String>,
    notes: Vec<AllocNote>,
}

impl FileNotes {
    /// Scans one file for `// alloc:` annotations. Three guards keep prose
    /// from registering as suppressions: the `//` must be a *real* comment
    /// start (located via [`blank_noncode_keep_markers`], so a `//` inside a
    /// string literal — e.g. this module's own messages — never counts); it
    /// must be a plain line comment, not a `///`/`//!` doc comment; and the
    /// comment's content must *begin* with `alloc:`, so a comment merely
    /// mentioning the grammar is not an annotation.
    fn scan(contents: &str, keywords: &[String]) -> FileNotes {
        let marked = blank_noncode_keep_markers(contents);
        let mut notes = Vec::new();
        for (idx, (raw, marked)) in contents.lines().zip(marked.lines()).enumerate() {
            let Some(slash) = marked.find("//") else {
                continue;
            };
            let body = &raw[slash + 2..];
            if body.starts_with('/') || body.starts_with('!') {
                continue; // doc comment — documentation, not a suppression
            }
            let Some(rest) = body.trim_start().strip_prefix("alloc:") else {
                continue;
            };
            let text = rest.trim();
            let word_end = text
                .find(|c: char| !c.is_ascii_alphanumeric())
                .unwrap_or(text.len());
            let keyword = text[..word_end].to_owned();
            let ok = keywords.iter().any(|k| k == &keyword) && reason_ok(text[word_end..].trim());
            notes.push(AllocNote {
                line: idx + 1,
                keyword,
                ok,
            });
        }
        FileNotes {
            raw_lines: contents.lines().map(str::to_owned).collect(),
            notes,
        }
    }

    fn note_at(&self, line: usize) -> Option<&AllocNote> {
        self.notes.iter().find(|n| n.line == line)
    }

    /// The annotation covering `line`: on the line itself, or in the
    /// contiguous `//` comment block directly above it.
    fn suppression_for(&self, line: usize) -> Option<&AllocNote> {
        if let Some(note) = self.note_at(line) {
            return Some(note);
        }
        let mut l = line;
        while l > 1 {
            l -= 1;
            let above = self.raw_lines.get(l - 1).map_or("", |s| s.trim_start());
            if !above.starts_with("//") {
                break;
            }
            if let Some(note) = self.note_at(l) {
                return Some(note);
            }
        }
        None
    }
}

/// Renders the call chain from a root down to `node` (`Root → f → g`).
fn chain(graph: &CallGraph, pred: &[usize], node: usize) -> String {
    let mut names = Vec::new();
    let mut cur = node;
    loop {
        names.push(graph.fns[cur].qualified_name());
        if pred[cur] == usize::MAX {
            break;
        }
        cur = pred[cur];
    }
    names.reverse();
    names.join(" → ")
}

/// Runs the hot-path escape analysis over the workspace files.
pub fn analyze(config: &HotConfig, files: &[SourceFile]) -> Vec<Violation> {
    let graph = CallGraph::build(files);
    let notes: Vec<FileNotes> = files
        .iter()
        .map(|f| FileNotes::scan(&f.contents, &config.keywords))
        .collect();
    let mut violations = Vec::new();
    let mut push = |path: &str, line: usize, rule: Rule, message: String| {
        violations.push(Violation {
            file: Path::new(path).to_path_buf(),
            line,
            rule,
            message,
        });
    };

    // Seed the reachability from the root patterns.
    let n = graph.fns.len();
    let mut hot = vec![false; n];
    let mut pred = vec![usize::MAX; n];
    let mut queue = VecDeque::new();
    for (pi, pattern) in config.roots.iter().enumerate() {
        let mut matched = false;
        for (ni, node) in graph.fns.iter().enumerate() {
            if node.in_test || !root_matches(pattern, node) {
                continue;
            }
            matched = true;
            if !hot[ni] {
                hot[ni] = true;
                queue.push_back(ni);
            }
        }
        if !matched {
            push(
                CONFIG_PATH,
                pi + 1,
                Rule::HotAnnotation,
                format!(
                    "hot root pattern `{pattern}` matches no workspace fn; fix the \
                     pattern or remove it from hotpath.toml"
                ),
            );
        }
    }

    // BFS over the call graph, keeping the predecessor that first reached
    // each fn so every finding carries a concrete root→…→fn chain.
    while let Some(ni) = queue.pop_front() {
        for site in &graph.fns[ni].calls {
            for &ci in graph.callees(ni, site) {
                if !hot[ci] {
                    hot[ci] = true;
                    pred[ci] = ni;
                    queue.push_back(ci);
                }
            }
        }
    }

    // hot-alloc: vocabulary constructs inside hot-reachable fns.
    for (ni, &is_hot) in hot.iter().enumerate() {
        if !is_hot {
            continue;
        }
        let node = &graph.fns[ni];
        let path = &files[node.file].path;
        for site in &node.calls {
            let construct = match site.kind {
                CallKind::Method => config
                    .methods
                    .iter()
                    .any(|m| m == &site.callee)
                    .then(|| format!(".{}()", site.callee)),
                CallKind::Ufcs => {
                    let full = site.qualified_name();
                    if config.exempt.iter().any(|e| e == &full) {
                        None
                    } else if config.constructors.iter().any(|c| c == &full) {
                        Some(full)
                    } else {
                        None
                    }
                }
                CallKind::Free => config
                    .constructors
                    .iter()
                    .any(|c| c == &site.callee)
                    .then(|| site.callee.clone()),
                CallKind::Macro => config
                    .macros
                    .iter()
                    .any(|m| m == &site.callee)
                    .then(|| format!("{}!", site.callee)),
            };
            let Some(construct) = construct else { continue };
            if notes[node.file]
                .suppression_for(site.line)
                .is_some_and(|note| note.ok)
            {
                continue;
            }
            push(
                path,
                site.line,
                Rule::HotAlloc,
                format!(
                    "{} → {construct} @ {path}:{}: allocating construct on a hot \
                     path — serve borrowed slices / share via Arc, or justify with \
                     `// alloc: amortized|startup|cold — <reason>`",
                    chain(&graph, &pred, ni),
                    site.line
                ),
            );
        }
    }

    // hot-annotation: malformed justifications anywhere, and stale ones in
    // fns no hot root reaches.
    for (fi, file_notes) in notes.iter().enumerate() {
        let path = &files[fi].path;
        for note in &file_notes.notes {
            let enclosing = graph.fns.iter().enumerate().find(|(_, f)| {
                f.file == fi
                    && f.body
                        .as_ref()
                        .is_some_and(|b| f.line <= note.line && note.line <= b.end_line())
            });
            if enclosing.is_some_and(|(_, f)| f.in_test) {
                continue;
            }
            if !note.ok {
                push(
                    path,
                    note.line,
                    Rule::HotAnnotation,
                    format!(
                        "malformed `// alloc: {}` annotation: expected `// alloc: \
                         amortized|startup|cold — <reason>`",
                        note.keyword
                    ),
                );
                continue;
            }
            match enclosing {
                Some((ni, node)) if !hot[ni] => {
                    push(
                        path,
                        note.line,
                        Rule::HotAnnotation,
                        format!(
                            "stale `// alloc: {}` annotation: `{}` is not reachable \
                             from any hot root — remove the annotation, or add the \
                             root to hotpath.toml",
                            note.keyword,
                            node.qualified_name()
                        ),
                    );
                }
                Some(_) => {}
                None => {
                    push(
                        path,
                        note.line,
                        Rule::HotAnnotation,
                        format!(
                            "stray `// alloc: {}` annotation outside any fn body: it \
                             suppresses nothing",
                            note.keyword
                        ),
                    );
                }
            }
        }
    }
    violations
}

/// The hot half of the doc-sync contract: every root pattern in
/// `hotpath.toml` must appear verbatim in the architecture book's hot-root
/// table, so the book's hot-path chapter cannot fall behind the config.
pub fn check_hotpath_sync(book_path: &Path, book: &str, config: &HotConfig) -> Vec<Violation> {
    let names = config.roots.iter().map(String::as_str);
    missing_from_book(book_path, book, names, |pattern| {
        format!(
            "hotpath.toml names hot root `{pattern}` but ARCHITECTURE.md's \
             hot-root table does not mention it; add a row"
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> HotConfig {
        HotConfig::parse(
            r#"
[roots]
hot = ["Store::serve*", "next_event"]

[vocabulary]
methods = ["clone", "to_vec", "to_owned", "to_string", "collect"]
constructors = ["Vec::new", "Vec::with_capacity", "Box::new", "String::from"]
macros = ["format", "vec"]
exempt = ["Arc::clone", "Rc::clone"]

[annotations]
keywords = ["amortized", "startup", "cold"]
"#,
        )
        .unwrap_or_else(|e| panic!("{e}"))
    }

    fn run(path: &str, src: &str) -> Vec<Violation> {
        analyze(
            &config(),
            &[SourceFile {
                path: path.to_owned(),
                contents: src.to_owned(),
            }],
        )
    }

    #[test]
    fn parses_hotpath_toml_subset() {
        let cfg = config();
        assert_eq!(cfg.roots, ["Store::serve*", "next_event"]);
        assert_eq!(cfg.methods.len(), 5);
        assert!(cfg.exempt.contains(&"Arc::clone".to_owned()));
        assert!(HotConfig::parse("[roots]\nhot = [\"a\"").is_err());
        assert!(
            HotConfig::parse("[roots]\nhot = [\"a\"]").is_err(),
            "methods required"
        );
        assert!(HotConfig::parse("[mystery]\nx = [\"a\"]").is_err());
    }

    #[test]
    fn direct_allocation_in_root_is_flagged_with_chain() {
        let v = run(
            "a.rs",
            "struct Store;\nimpl Store {\n    fn serve_chunk(&self, x: &[u8]) -> Vec<u8> {\n        x.to_vec()\n    }\n}\n",
        );
        let hit = v
            .iter()
            .find(|v| v.rule == Rule::HotAlloc)
            .unwrap_or_else(|| panic!("{v:?}"));
        assert_eq!(hit.line, 4);
        assert!(
            hit.message
                .contains("Store::serve_chunk → .to_vec() @ a.rs:4"),
            "{hit:?}"
        );
    }

    #[test]
    fn transitive_allocation_carries_full_provenance() {
        let v = run(
            "a.rs",
            "struct Store;\nimpl Store {\n    fn serve(&self) { helper(); }\n}\nfn helper() { deeper(); }\nfn deeper() { let s = format!(\"x\"); }\n",
        );
        let hit = v
            .iter()
            .find(|v| v.rule == Rule::HotAlloc)
            .unwrap_or_else(|| panic!("{v:?}"));
        assert!(
            hit.message
                .contains("Store::serve → helper → deeper → format!"),
            "{hit:?}"
        );
        assert_eq!(hit.line, 6);
    }

    #[test]
    fn cold_fns_are_not_flagged() {
        let v = run(
            "a.rs",
            "fn startup_only() { let v: Vec<u8> = Vec::with_capacity(64); }\nfn next_event() {}\n",
        );
        assert!(v.iter().all(|v| v.rule != Rule::HotAlloc), "{v:?}");
    }

    #[test]
    fn justified_annotation_suppresses_and_arc_clone_is_exempt() {
        let v = run(
            "a.rs",
            "struct Store;\nimpl Store {\n    fn serve(&self, a: &Arc<u8>) {\n        // alloc: amortized — buffer reuses spare capacity\n        let v: Vec<u8> = Vec::with_capacity(8);\n        let b = Arc::clone(a);\n    }\n}\nfn next_event() {}\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn malformed_annotation_is_flagged_and_does_not_suppress() {
        let v = run(
            "a.rs",
            "struct Store;\nimpl Store {\n    fn serve(&self) {\n        // alloc: amortized\n        let v: Vec<u8> = Vec::new();\n    }\n}\nfn next_event() {}\n",
        );
        assert!(
            v.iter()
                .any(|v| v.rule == Rule::HotAnnotation && v.message.contains("malformed")),
            "{v:?}"
        );
        assert!(v.iter().any(|v| v.rule == Rule::HotAlloc), "{v:?}");
    }

    #[test]
    fn stale_annotation_in_cold_fn_is_flagged() {
        let v = run(
            "a.rs",
            "struct Store;\nimpl Store {\n    fn serve(&self) {}\n}\nfn cold() {\n    // alloc: startup — built once\n    let v: Vec<u8> = Vec::new();\n}\nfn next_event() {}\n",
        );
        let hit = v
            .iter()
            .find(|v| v.rule == Rule::HotAnnotation)
            .unwrap_or_else(|| panic!("{v:?}"));
        assert!(hit.message.contains("stale"), "{hit:?}");
        assert!(hit.message.contains("cold"), "{hit:?}");
        assert_eq!(hit.line, 6);
    }

    #[test]
    fn unmatched_root_pattern_is_reported_against_the_config() {
        let v = run("a.rs", "fn next_event() {}\n");
        let hit = v
            .iter()
            .find(|v| v.rule == Rule::HotAnnotation)
            .unwrap_or_else(|| panic!("{v:?}"));
        assert!(hit.message.contains("Store::serve*"), "{hit:?}");
        assert_eq!(hit.file.to_string_lossy(), CONFIG_PATH);
    }

    #[test]
    fn alloc_text_inside_string_literals_is_ignored() {
        let v = run(
            "a.rs",
            "struct Store;\nimpl Store {\n    fn serve(&self) {}\n}\nfn cold() {\n    let s = \"justify with `// alloc: amortized — <reason>`\";\n}\nfn next_event() {}\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn test_code_is_exempt_from_both_rules() {
        let v = run(
            "a.rs",
            "fn next_event() {}\n#[cfg(test)]\nmod tests {\n    fn serve(s: &Store) { let v = vec![1]; }\n    fn helper() {\n        // alloc: cold — test only\n        let v: Vec<u8> = Vec::new();\n    }\n}\nstruct Store;\nimpl Store {\n    fn serve_live(&self) {}\n}\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn hotpath_sync_flags_missing_book_rows() {
        let cfg = config();
        let book = "| `Store::serve*` | sharded serving |\n";
        let v = check_hotpath_sync(Path::new("ARCHITECTURE.md"), book, &cfg);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::DocSync);
        assert!(v[0].message.contains("next_event"));
    }
}
