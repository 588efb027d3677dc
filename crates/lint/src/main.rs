#![forbid(unsafe_code)]
//! Workspace driver for the `sdds-lint` rules: walks the first-party crates,
//! applies the token rules that match each file's path, checks the crate
//! graph of their manifests against `trust.toml`, prints violations in
//! `file:line: [rule] message` form, and exits non-zero if any were found.
//!
//! Usage (from anywhere in the workspace):
//!
//! ```text
//! cargo run -p sdds-lint                      # scan, human-readable report
//! cargo run -p sdds-lint -- --json out.json   # also write machine-readable JSON
//! cargo run -p sdds-lint -- --explain crate-graph
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use sdds_lint::trust::{check_crate_graph, check_secret_tokens, check_trust_sync, TrustConfig};
use sdds_lint::{
    check_doc_sync, check_metric_sync, harness_sections, metric_families, scan_file,
    violations_to_json, FileRules, Rule, Violation,
};

/// First-party crate directories, relative to the workspace root. Vendored
/// crates (`vendor/`) are deliberately out of scope.
const CRATES: &[&str] = &[
    "crates/core",
    "crates/card",
    "crates/crypto",
    "crates/xml",
    "crates/xpath",
    "crates/wire",
    "crates/dsp",
    "crates/proxy",
    "crates/bench",
    "crates/sync",
    "crates/check",
    "crates/lint",
    "crates/obs",
    ".",
];

/// Crates whose library code must route synchronization through `sdds-sync`
/// and never sleep: the serving core the model checker instruments, plus the
/// facade crate that drives it and the telemetry layer they embed.
const FACADE_CRATES: &[&str] = &["crates/dsp", "crates/proxy", "crates/obs", "."];

fn workspace_root() -> PathBuf {
    // crates/lint/ -> crates/ -> workspace root.
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or(manifest)
}

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?
        .collect::<std::io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_sources(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn rules_for(crate_dir: &str, path: &Path) -> FileRules {
    let is_facade_scope = FACADE_CRATES.contains(&crate_dir);
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
    // The no-panic rule covers *library* code; binaries under src/bin may
    // abort on startup or I/O errors like any CLI tool.
    let is_bin = path
        .components()
        .any(|c| c.as_os_str().to_str() == Some("bin"));
    FileRules {
        facade: is_facade_scope,
        no_sleep: is_facade_scope,
        no_panic: !is_bin,
        ordering: true,
        // lib.rs is always a crate root; main.rs is the root of a bin crate.
        forbid_unsafe: name == "lib.rs" || name == "main.rs",
        // sdds-obs is where the metric cells live; everywhere else in the
        // facade-routed service code, a fresh AtomicU64 is a shadow metric.
        adhoc_atomic: is_facade_scope && crate_dir != "crates/obs",
    }
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))
}

fn run() -> Result<Vec<Violation>, String> {
    let root = workspace_root();
    let config = TrustConfig::parse(&read(&root.join("crates/lint/trust.toml"))?)?;
    let mut violations = Vec::new();
    let mut manifests = Vec::new();
    let mut scanned = 0;
    for crate_dir in CRATES {
        let manifest = Path::new(crate_dir).join("Cargo.toml");
        manifests.push((manifest.clone(), read(&root.join(&manifest))?));
        let src = root.join(crate_dir).join("src");
        if !src.is_dir() {
            return Err(format!("missing source directory: {}", src.display()));
        }
        let mut files = Vec::new();
        rust_sources(&src, &mut files).map_err(|e| format!("walking {}: {e}", src.display()))?;
        for file in files {
            let contents = read(&file)?;
            let shown = file.strip_prefix(&root).unwrap_or(&file);
            violations.extend(scan_file(shown, &contents, rules_for(crate_dir, &file)));
            violations.extend(check_secret_tokens(&config, shown, &contents));
            scanned += 1;
        }
    }
    violations.extend(check_crate_graph(&config, &manifests));
    violations.extend(doc_sync(&root, &config)?);
    eprintln!(
        "sdds-lint: scanned {scanned} files across {} crates, {} violation(s)",
        CRATES.len(),
        violations.len()
    );
    Ok(violations)
}

/// The doc-sync rule: every experiment section of the bench harness
/// (`fn eN_*(report: &mut Report)`) must be named in ARCHITECTURE.md's
/// experiment table, every metric family
/// declared in `crates/obs/src/families.rs` must appear in the book's metric
/// table, and every package and secret type named in `trust.toml` must
/// appear in the book's trust-boundary tables.
fn doc_sync(root: &Path, config: &TrustConfig) -> Result<Vec<Violation>, String> {
    let harness_src = read(&root.join("crates/bench/src/bin/harness.rs"))?;
    let book_path = Path::new("ARCHITECTURE.md");
    let book = read(&root.join(book_path))?;
    let mut violations = check_doc_sync(book_path, &book, &harness_sections(&harness_src));

    let families_src = read(&root.join("crates/obs/src/families.rs"))?;
    violations.extend(check_metric_sync(
        book_path,
        &book,
        &metric_families(&families_src),
    ));
    violations.extend(check_trust_sync(book_path, &book, config));
    Ok(violations)
}

enum Mode {
    Scan { json: Option<PathBuf> },
    Explain(String),
}

fn parse_args() -> Result<Mode, String> {
    let mut args = std::env::args().skip(1);
    let mut json = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => {
                json = Some(PathBuf::from(
                    args.next().ok_or("--json needs a file path")?,
                ));
            }
            "--explain" => {
                return Ok(Mode::Explain(
                    args.next().ok_or("--explain needs a rule name")?,
                ));
            }
            other => {
                return Err(format!(
                    "unknown argument `{other}` \
                     (usage: sdds-lint [--json <path>] [--explain <rule>])"
                ));
            }
        }
    }
    Ok(Mode::Scan { json })
}

fn explain(rule_name: &str) -> ExitCode {
    match Rule::by_name(rule_name) {
        Some(rule) => {
            println!("{}\n\n{}", rule.name(), rule.explain());
            ExitCode::SUCCESS
        }
        None => {
            let known: Vec<&str> = Rule::ALL.iter().map(|r| r.name()).collect();
            eprintln!(
                "sdds-lint: unknown rule `{rule_name}`; known rules: {}",
                known.join(", ")
            );
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let mode = match parse_args() {
        Ok(mode) => mode,
        Err(error) => {
            eprintln!("sdds-lint: error: {error}");
            return ExitCode::from(2);
        }
    };
    let json = match mode {
        Mode::Explain(rule) => return explain(&rule),
        Mode::Scan { json } => json,
    };
    match run() {
        Err(error) => {
            eprintln!("sdds-lint: error: {error}");
            ExitCode::from(2)
        }
        Ok(violations) => {
            if let Some(path) = json {
                if let Err(error) = std::fs::write(&path, violations_to_json(&violations)) {
                    eprintln!("sdds-lint: error: writing {}: {error}", path.display());
                    return ExitCode::from(2);
                }
            }
            if violations.is_empty() {
                return ExitCode::SUCCESS;
            }
            for v in &violations {
                println!("{v}");
            }
            ExitCode::FAILURE
        }
    }
}
