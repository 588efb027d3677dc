//! The trust-boundary taint rules.
//!
//! The paper's security argument in one sentence: the DSP is an untrusted
//! server that only ever stores and serves *encrypted* chunks, while
//! cleartext events and key material exist solely on the card/client side.
//! This module turns that argument into four statically-checked rules over
//! the item heads parsed by [`crate::items`] and the tier propagation of
//! [`crate::graph`], configured by `crates/lint/trust.toml`:
//!
//! - **taint-dsp** — no `Secret`/`Plaintext`-tier type in any DSP-scope item
//!   signature, struct field, `use` item, or public re-export.
//! - **taint-obs** — no `Secret`/`Plaintext`-tier type in telemetry item
//!   signatures, and no secret tier name on a metric-label call.
//! - **taint-debug** — explicit-`Secret` types must not derive `Debug`,
//!   impl `Debug`/`Display`, or return raw bytes without a justifying
//!   annotation.
//! - **taint-annotation** — crypto boundary fns carry `source`/`sink`
//!   annotations that agree with their signatures.
//!
//! Annotation grammar (one comment line, on or directly above the item):
//!
//! ```text
//! // taint: source — <why this fn produces sensitive data>
//! // taint: sink — <why this fn consumes sensitive data>
//! // taint: redacted — <why this Debug/Display/byte accessor is safe>
//! // taint: secret|plaintext|ciphertext — <tier claim for this type>
//! ```

use std::collections::BTreeMap;
use std::path::Path;

use crate::graph::{type_idents, Provenance, Tier, TierInfo, TypeGraph};
use crate::items::{parse_items, Item, ItemKind};
use crate::{Rule, Violation};

/// The declarative half of the analyzer: tier assignments, scope prefixes,
/// and annotation vocabulary, loaded from `crates/lint/trust.toml`.
#[derive(Debug, Default)]
pub struct TrustConfig {
    /// Explicit tier assignments (type name → tier).
    pub tiers: BTreeMap<String, Tier>,
    /// Path prefixes (slash-separated, workspace-relative) of the untrusted
    /// DSP scope.
    pub dsp_scope: Vec<String>,
    /// Path prefixes of the telemetry scope.
    pub obs_scope: Vec<String>,
    /// Metric-label call names (`counter_with`, …) policed everywhere.
    pub label_calls: Vec<String>,
    /// Boundary verbs: a fn whose name contains one of these segments and
    /// whose signature touches tiered types or raw bytes must be annotated.
    pub boundary_verbs: Vec<String>,
}

impl TrustConfig {
    /// Parses `trust.toml` (the TOML subset of [`crate::config`]).
    pub fn parse(text: &str) -> Result<TrustConfig, String> {
        let mut config = TrustConfig::default();
        crate::config::for_each_array(text, "trust.toml", |section, key, items, line| {
            config.assign(section, key, items, line)
        })?;
        for (field, values) in [
            ("dsp scope", &config.dsp_scope),
            ("obs scope", &config.obs_scope),
            ("boundary_verbs", &config.boundary_verbs),
        ] {
            if values.is_empty() {
                return Err(format!("trust.toml: `{field}` must not be empty"));
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
            ("tiers", tier_name) => {
                let tier = Tier::by_name(tier_name)
                    .ok_or_else(|| format!("trust.toml:{line}: unknown tier `{tier_name}`"))?;
                for name in items {
                    if let Some(prev) = self.tiers.insert(name.clone(), tier) {
                        if prev != tier {
                            return Err(format!(
                                "trust.toml:{line}: `{name}` assigned to both {} and {}",
                                prev.name(),
                                tier.name()
                            ));
                        }
                    }
                }
            }
            ("scopes", "dsp") => self.dsp_scope = items,
            ("scopes", "obs") => self.obs_scope = items,
            ("annotations", "boundary_verbs") => self.boundary_verbs = items,
            ("annotations", "label_calls") => self.label_calls = items,
            _ => {
                return Err(format!(
                    "trust.toml:{line}: unknown entry `[{section}] {key}`"
                ))
            }
        }
        Ok(())
    }
}

/// One workspace source file handed to [`analyze`]: its workspace-relative
/// path (slash-separated, used for scope matching and reports) and text.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path, e.g. `crates/dsp/src/store.rs`.
    pub path: String,
    /// Raw file contents.
    pub contents: String,
}

fn in_scope(path: &str, prefixes: &[String]) -> bool {
    prefixes.iter().any(|p| path.starts_with(p.as_str()))
}

/// The annotation keywords the grammar accepts on fns vs. types.
const FN_KEYWORDS: &[&str] = &["source", "sink"];
const TIER_KEYWORDS: &[&str] = &["secret", "plaintext", "ciphertext"];

/// Splits an annotation body into `(keyword, reason)` when the first word is
/// one of the taint keywords; returns `None` for unrelated `taint:` text
/// (e.g. prose in a doc comment that happens to mention the grammar).
fn split_annotation(text: &str) -> Option<(&str, &str)> {
    let word_end = text
        .find(|c: char| !c.is_ascii_alphanumeric())
        .unwrap_or(text.len());
    let word = &text[..word_end];
    if !(FN_KEYWORDS.contains(&word) || TIER_KEYWORDS.contains(&word) || word == "redacted") {
        return None;
    }
    Some((word, text[word_end..].trim()))
}

/// True when `reason` is a well-formed justification: a `—`/`-` separator
/// followed by nonempty text.
fn reason_ok(reason: &str) -> bool {
    let stripped = reason
        .strip_prefix('—')
        .or_else(|| reason.strip_prefix('-'))
        .map(str::trim_start);
    stripped.is_some_and(|r| !r.is_empty())
}

/// True when `name` contains `verb` as a whole `_`-separated segment run:
/// `decrypt_chunk` matches `decrypt`, `unwrap_key` matches `unwrap_key`,
/// but `encryptions` does not match `encrypt`.
fn has_verb_segment(name: &str, verb: &str) -> bool {
    name == verb
        || name.starts_with(verb) && name.as_bytes().get(verb.len()) == Some(&b'_')
        || name.ends_with(verb)
            && name.as_bytes().get(name.len().wrapping_sub(verb.len() + 1)) == Some(&b'_')
        || name.contains(&format!("_{verb}_"))
}

struct Analyzer<'a> {
    config: &'a TrustConfig,
    tiers: BTreeMap<String, TierInfo>,
    violations: Vec<Violation>,
}

impl Analyzer<'_> {
    fn push(&mut self, path: &str, line: usize, rule: Rule, message: String) {
        self.violations.push(Violation {
            file: Path::new(path).to_path_buf(),
            line,
            rule,
            message,
        });
    }

    fn tier_of(&self, name: &str) -> Option<&TierInfo> {
        self.tiers.get(name)
    }

    /// Renders why `name` is sensitive, following one provenance hop.
    fn describe(&self, name: &str, info: &TierInfo) -> String {
        match &info.provenance {
            Provenance::Explicit => format!("`{name}` is {}-tier", info.tier.name()),
            Provenance::Field {
                field_type,
                file,
                line,
            } => format!(
                "`{name}` is {}-tier (embeds `{field_type}`, {file}:{line})",
                info.tier.name()
            ),
        }
    }

    fn is_explicit_secret(&self, name: &str) -> bool {
        matches!(
            self.tiers.get(name),
            Some(TierInfo {
                tier: Tier::Secret,
                provenance: Provenance::Explicit,
            })
        )
    }

    /// The type names an item's head exposes, for the scope rules.
    fn referenced_names(&self, item: &Item) -> Vec<String> {
        let mut names = match item.kind {
            ItemKind::Use | ItemKind::Impl => type_idents(&item.signature),
            ItemKind::TypeAlias | ItemKind::Const => {
                // Skip the binder: `type Event = ();` declares, not uses.
                let after = item
                    .signature
                    .find(&item.name)
                    .map(|at| at + item.name.len())
                    .unwrap_or(0);
                type_idents(&item.signature[after..])
            }
            _ => type_idents(&item.signature),
        };
        for (_, field) in &item.field_types {
            for n in type_idents(field) {
                if !names.contains(&n) {
                    names.push(n);
                }
            }
        }
        names
    }

    /// Item-level scope rule shared by taint-dsp and taint-obs.
    fn check_scope_item(&mut self, path: &str, item: &Item, rule: Rule, scope_name: &str) {
        if item.in_test {
            return;
        }
        let mut flagged = Vec::new();
        for name in self.referenced_names(item) {
            let Some(info) = self.tier_of(&name).cloned() else {
                continue;
            };
            if !matches!(info.tier, Tier::Secret | Tier::Plaintext) || flagged.contains(&name) {
                continue;
            }
            let what = match item.kind {
                ItemKind::Use if item.is_pub => "public re-export",
                ItemKind::Use => "use item",
                ItemKind::Fn => "fn signature",
                ItemKind::Struct | ItemKind::Enum => "type declaration",
                ItemKind::Impl => "impl header",
                _ => "item",
            };
            let described = self.describe(&name, &info);
            self.push(
                path,
                item.line,
                rule,
                format!(
                    "{described} and must not appear in the {scope_name} {what} \
                     `{}`: the {scope_name} handles only ciphertext",
                    item.name
                ),
            );
            flagged.push(name);
        }
        // Crypto boundary code has no business inside the untrusted scope,
        // even when its signature is all raw bytes.
        if item.kind == ItemKind::Fn && self.is_boundary_fn(item) {
            self.push(
                path,
                item.line,
                rule,
                format!(
                    "crypto boundary fn `{}` defined inside the {scope_name}: \
                     encrypt/decrypt belongs on the card/client side",
                    item.name
                ),
            );
        }
    }

    /// True when `item` is a fn whose name carries a boundary verb and whose
    /// signature touches tiered types or raw bytes. The byte check keeps
    /// counters like `record_decrypt(&mut self, bytes: usize)` exempt.
    fn is_boundary_fn(&self, item: &Item) -> bool {
        if item.kind != ItemKind::Fn {
            return false;
        }
        let verb_hit = self
            .config
            .boundary_verbs
            .iter()
            .any(|v| has_verb_segment(&item.name, v));
        if !verb_hit {
            return false;
        }
        if item.signature.contains("[u8") || item.signature.contains("Vec<u8>") {
            return true;
        }
        let mut names = type_idents(&item.signature);
        if let Some(self_ty) = &item.self_type {
            names.extend(type_idents(self_ty));
        }
        names.iter().any(|n| self.tier_of(n).is_some())
    }

    /// The return-type text of a fn signature, with `Self` resolved to the
    /// impl self type.
    fn return_text(&self, item: &Item) -> Option<String> {
        let (_, ret) = item.signature.split_once("->")?;
        let mut ret = ret.trim().to_owned();
        if let Some(self_ty) = &item.self_type {
            ret = ret.replace("Self", self_ty);
        }
        Some(ret)
    }

    fn check_annotations(&mut self, path: &str, item: &Item) {
        if item.in_test {
            return;
        }
        let parsed = item
            .annotation
            .as_ref()
            .and_then(|a| split_annotation(&a.text).map(|(k, r)| (a.line, k, r)));

        if let Some((line, keyword, reason)) = parsed {
            if !reason_ok(reason) {
                self.push(
                    path,
                    line,
                    Rule::TaintAnnotation,
                    format!(
                        "malformed `// taint: {keyword}` annotation: expected \
                         `taint: {keyword} — <reason>`"
                    ),
                );
                return;
            }
            match (keyword, item.kind) {
                ("source" | "sink", ItemKind::Fn) => {
                    self.check_direction(path, item, keyword);
                }
                (tier_word, ItemKind::Struct | ItemKind::Enum)
                    if TIER_KEYWORDS.contains(&tier_word) =>
                {
                    // Tier claims were already merged into the tier map
                    // before propagation; conflicts were reported there.
                }
                ("redacted", _) => {}
                ("source" | "sink", _) => {
                    self.push(
                        path,
                        line,
                        Rule::TaintAnnotation,
                        format!(
                            "`taint: {keyword}` annotates `{}`, which is not a fn",
                            item.name
                        ),
                    );
                }
                (tier_word, _) if TIER_KEYWORDS.contains(&tier_word) => {
                    self.push(
                        path,
                        line,
                        Rule::TaintAnnotation,
                        format!(
                            "`taint: {tier_word}` annotates `{}`, which is not a \
                             struct/enum declaration",
                            item.name
                        ),
                    );
                }
                _ => {}
            }
            return;
        }

        // No (valid) annotation: boundary fns must carry one.
        if self.is_boundary_fn(item) {
            self.push(
                path,
                item.line,
                Rule::TaintAnnotation,
                format!(
                    "crypto boundary fn `{}` is missing its `// taint: source|sink — \
                     <reason>` annotation",
                    item.name
                ),
            );
        }
    }

    /// Annotation ↔ signature consistency for `source`/`sink` fns.
    fn check_direction(&mut self, path: &str, item: &Item, keyword: &str) {
        let Some(ret) = self.return_text(item) else {
            // In-place fns (e.g. `encrypt_block(&self, block: &mut …)`)
            // have no return type to check against.
            return;
        };
        let sensitive_ret: Vec<String> = type_idents(&ret)
            .into_iter()
            .filter(|n| {
                self.tier_of(n)
                    .is_some_and(|i| matches!(i.tier, Tier::Secret | Tier::Plaintext))
            })
            .collect();
        match keyword {
            "sink" => {
                if let Some(name) = sensitive_ret.first() {
                    self.push(
                        path,
                        item.line,
                        Rule::TaintAnnotation,
                        format!(
                            "`{}` is annotated `taint: sink` but returns sensitive \
                             `{name}`: a sink consumes plaintext/keys and emits \
                             ciphertext — annotate it `source` or fix the signature",
                            item.name
                        ),
                    );
                }
            }
            "source" => {
                let returns_bytes = ret.contains("u8");
                let returns_ciphertext = type_idents(&ret)
                    .iter()
                    .any(|n| self.tier_of(n).is_some_and(|i| i.tier == Tier::Ciphertext));
                if sensitive_ret.is_empty() && !returns_bytes && returns_ciphertext {
                    self.push(
                        path,
                        item.line,
                        Rule::TaintAnnotation,
                        format!(
                            "`{}` is annotated `taint: source` but returns only \
                             ciphertext-tier types: a source produces plaintext/keys \
                             — annotate it `sink` or fix the signature",
                            item.name
                        ),
                    );
                }
            }
            _ => {}
        }
    }

    /// taint-debug: explicit-`Secret` types must not leak through `Debug`,
    /// `Display`, or raw-byte accessors without a justifying annotation.
    fn check_secret_escapes(&mut self, path: &str, item: &Item) {
        if item.in_test {
            return;
        }
        let redacted = item
            .annotation
            .as_ref()
            .and_then(|a| split_annotation(&a.text))
            .is_some_and(|(k, r)| k == "redacted" && reason_ok(r));
        match item.kind {
            ItemKind::Struct | ItemKind::Enum
                if self.is_explicit_secret(&item.name)
                    && item.derives.iter().any(|d| d == "Debug")
                    && !redacted =>
            {
                self.push(
                    path,
                    item.line,
                    Rule::TaintDebug,
                    format!(
                        "secret-tier `{}` derives Debug: `{{:?}}` would print key \
                         material into logs; write a redacting impl, or justify \
                         with `// taint: redacted — <reason>`",
                        item.name
                    ),
                );
            }
            ItemKind::Impl => {
                let base = type_idents(&item.name);
                let secret_self = base.first().is_some_and(|n| self.is_explicit_secret(n));
                let trait_name = item
                    .impl_trait
                    .as_deref()
                    .map(|t| t.rsplit("::").next().unwrap_or(t).trim().to_owned());
                if secret_self
                    && matches!(trait_name.as_deref(), Some("Debug") | Some("Display"))
                    && !redacted
                {
                    self.push(
                        path,
                        item.line,
                        Rule::TaintDebug,
                        format!(
                            "{} impl on secret-tier `{}` without `// taint: redacted — \
                             <reason>`: formatting a key is an exfiltration path",
                            trait_name.as_deref().unwrap_or("Debug"),
                            item.name,
                        ),
                    );
                }
            }
            ItemKind::Fn => {
                let secret_self = item
                    .self_type
                    .as_deref()
                    .map(type_idents)
                    .and_then(|names| names.first().cloned())
                    .is_some_and(|n| self.is_explicit_secret(&n));
                if !secret_self {
                    return;
                }
                let returns_bytes = self
                    .return_text(item)
                    .is_some_and(|r| r.contains("u8") || r.contains("String"));
                let annotated = item
                    .annotation
                    .as_ref()
                    .and_then(|a| split_annotation(&a.text))
                    .is_some_and(|(k, r)| {
                        (FN_KEYWORDS.contains(&k) || k == "redacted") && reason_ok(r)
                    });
                if returns_bytes && !annotated {
                    self.push(
                        path,
                        item.line,
                        Rule::TaintDebug,
                        format!(
                            "`{}::{}` returns raw bytes from a secret-tier type: \
                             annotate the escape `// taint: source|sink|redacted — \
                             <reason>` or remove it",
                            item.self_type.as_deref().unwrap_or("?"),
                            item.name
                        ),
                    );
                }
            }
            _ => {}
        }
    }

    /// taint-obs label rule: a metric-label call with an explicit-secret
    /// type name on the same line, anywhere in the workspace.
    fn check_label_lines(&mut self, path: &str, contents: &str) {
        let src = crate::Source::new(contents);
        for call in &self.config.label_calls {
            for at in crate::token_positions(&src.code, call) {
                if src.in_test(at) || !crate::followed_by(&src.code, at, call, b'(') {
                    continue;
                }
                let line = src.line_of(at);
                let line_text = line_text_of(&src.code, line);
                let culprit = self
                    .config
                    .tiers
                    .iter()
                    .filter(|(_, &t)| t == Tier::Secret)
                    .map(|(n, _)| n.clone())
                    .find(|n| !crate::token_positions(line_text, n).is_empty());
                if let Some(name) = culprit {
                    self.push(
                        path,
                        line,
                        Rule::TaintObs,
                        format!(
                            "secret-tier `{name}` on a `{call}` metric-label line: \
                             labels are exported in ObsSnapshot JSON and must never \
                             be derived from key material"
                        ),
                    );
                }
            }
        }
    }
}

fn line_text_of(code: &str, line: usize) -> &str {
    code.lines().nth(line.saturating_sub(1)).unwrap_or("")
}

/// Runs the trust-boundary analysis over the workspace files.
///
/// `files` must carry workspace-relative slash-separated paths; the full set
/// matters because tier propagation follows struct fields across crates.
pub fn analyze(config: &TrustConfig, files: &[SourceFile]) -> Vec<Violation> {
    let parsed: Vec<(usize, Vec<Item>)> = files
        .iter()
        .enumerate()
        .map(|(i, f)| (i, parse_items(&f.contents)))
        .collect();

    // Pass 1: merge annotation tier claims into the explicit tiers, then
    // propagate through the containment graph.
    let mut explicit = config.tiers.clone();
    let mut pre_violations = Vec::new();
    for (fi, items) in &parsed {
        let path = &files[*fi].path;
        for item in items {
            if item.in_test || !matches!(item.kind, ItemKind::Struct | ItemKind::Enum) {
                continue;
            }
            let Some((line, word, reason)) = item
                .annotation
                .as_ref()
                .and_then(|a| split_annotation(&a.text).map(|(k, r)| (a.line, k, r)))
            else {
                continue;
            };
            let Some(tier) = Tier::by_name(word) else {
                continue;
            };
            if !reason_ok(reason) {
                continue; // reported by check_annotations
            }
            match explicit.get(&item.name) {
                Some(&existing) if existing != tier => {
                    pre_violations.push(Violation {
                        file: Path::new(path).to_path_buf(),
                        line,
                        rule: Rule::TaintAnnotation,
                        message: format!(
                            "`{}` is annotated `taint: {}` but trust.toml assigns it \
                             {}: resolve the conflict in trust.toml",
                            item.name,
                            tier.name(),
                            existing.name()
                        ),
                    });
                }
                _ => {
                    explicit.insert(item.name.clone(), tier);
                }
            }
        }
    }
    let mut graph = TypeGraph::default();
    for (fi, items) in &parsed {
        let path = &files[*fi].path;
        for item in items {
            if item.in_test || !matches!(item.kind, ItemKind::Struct | ItemKind::Enum) {
                continue;
            }
            for (line, field) in &item.field_types {
                graph.add_field(&item.name, field, path, *line);
            }
        }
    }

    let mut analyzer = Analyzer {
        config,
        tiers: graph.propagate(&explicit),
        violations: pre_violations,
    };

    // Pass 2: the item rules.
    for (fi, items) in &parsed {
        let path = &files[*fi].path;
        let dsp = in_scope(path, &config.dsp_scope);
        let obs = in_scope(path, &config.obs_scope);
        for item in items {
            if dsp {
                analyzer.check_scope_item(path, item, Rule::TaintDsp, "DSP");
            } else if obs {
                analyzer.check_scope_item(path, item, Rule::TaintObs, "obs");
            }
            analyzer.check_annotations(path, item);
            analyzer.check_secret_escapes(path, item);
        }
        analyzer.check_label_lines(path, &files[*fi].contents);
    }
    analyzer.violations
}

/// The trust half of the doc-sync contract: every type named in a
/// `trust.toml` tier must appear in the architecture book's trust-boundary
/// table, so the book's tier→type table cannot fall behind the config.
pub fn check_trust_sync(book_path: &Path, book: &str, config: &TrustConfig) -> Vec<Violation> {
    config
        .tiers
        .iter()
        .filter(|(name, _)| !book.contains(name.as_str()))
        .map(|(name, tier)| Violation {
            file: book_path.to_path_buf(),
            line: 1,
            rule: Rule::DocSync,
            message: format!(
                "trust.toml assigns `{name}` to the {} tier but ARCHITECTURE.md's \
                 trust-boundary table does not mention it; add a row",
                tier.name()
            ),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> TrustConfig {
        TrustConfig::parse(
            r#"
[tiers]
secret = ["SecretKey"]
plaintext = ["Document", "Event"]
ciphertext = ["SecureDocument"]

[scopes]
dsp = ["crates/dsp/src"]
obs = ["crates/obs/src"]

[annotations]
boundary_verbs = ["encrypt", "decrypt", "seal", "unwrap_key"]
label_calls = ["counter_with"]
"#,
        )
        .unwrap_or_else(|e| panic!("{e}"))
    }

    fn run(path: &str, src: &str) -> Vec<Violation> {
        let cfg = config();
        analyze(
            &cfg,
            &[SourceFile {
                path: path.to_owned(),
                contents: src.to_owned(),
            }],
        )
    }

    #[test]
    fn parses_trust_toml_subset() {
        let cfg = config();
        assert_eq!(cfg.tiers.get("SecretKey"), Some(&Tier::Secret));
        assert_eq!(cfg.tiers.get("Document"), Some(&Tier::Plaintext));
        assert_eq!(cfg.dsp_scope, ["crates/dsp/src"]);
        assert_eq!(cfg.boundary_verbs.len(), 4);
    }

    #[test]
    fn toml_errors_are_reported() {
        assert!(TrustConfig::parse("[tiers]\nsecret = [\"A\"").is_err());
        assert!(TrustConfig::parse("[tiers]\nmystery = [\"A\"]").is_err());
        assert!(TrustConfig::parse("loose = [\"A\"]").is_err());
        // A valid file must declare scopes and verbs.
        assert!(TrustConfig::parse("[tiers]\nsecret = [\"A\"]").is_err());
    }

    #[test]
    fn multiline_arrays_parse() {
        let cfg = TrustConfig::parse(
            "[tiers]\nsecret = [\n  \"A\", # key\n  \"B\",\n]\n[scopes]\ndsp = [\"d\"]\nobs = [\"o\"]\n[annotations]\nboundary_verbs = [\"encrypt\"]\n",
        )
        .unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(cfg.tiers.len(), 2);
    }

    #[test]
    fn flags_secret_in_dsp_scope() {
        let v = run(
            "crates/dsp/src/store.rs",
            "pub struct Record {\n    key: SecretKey,\n}\n",
        );
        assert!(
            v.iter().any(|v| v.rule == Rule::TaintDsp && v.line == 1),
            "{v:?}"
        );
    }

    #[test]
    fn ciphertext_in_dsp_scope_is_fine() {
        let v = run(
            "crates/dsp/src/store.rs",
            "pub struct Record {\n    doc: SecureDocument,\n}\npub fn get(r: &Record) -> &SecureDocument { &r.doc }\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn propagated_secret_reaches_dsp_rule() {
        let cfg = config();
        let v = analyze(
            &cfg,
            &[
                SourceFile {
                    path: "crates/proxy/src/a.rs".to_owned(),
                    contents: "pub struct Channel { key: SecretKey }\n".to_owned(),
                },
                SourceFile {
                    path: "crates/dsp/src/b.rs".to_owned(),
                    contents: "pub fn serve(c: &Channel) {}\n".to_owned(),
                },
            ],
        );
        let hit = v
            .iter()
            .find(|v| v.rule == Rule::TaintDsp)
            .unwrap_or_else(|| panic!("{v:?}"));
        assert!(hit.message.contains("embeds `SecretKey`"), "{hit:?}");
    }

    #[test]
    fn boundary_fn_needs_annotation() {
        let v = run(
            "crates/crypto/src/m.rs",
            "pub fn cbc_decrypt(key: &SecretKey, data: &[u8]) -> Vec<u8> { vec![] }\n",
        );
        assert!(v.iter().any(|v| v.rule == Rule::TaintAnnotation), "{v:?}");

        let v = run(
            "crates/crypto/src/m.rs",
            "// taint: source — decrypts ciphertext back to document bytes\npub fn cbc_decrypt(key: &SecretKey, data: &[u8]) -> Vec<u8> { vec![] }\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn byte_free_verb_fn_is_exempt() {
        let v = run(
            "crates/obs/src/o.rs",
            "pub fn record_decrypt(&mut self, bytes: usize) {}\n",
        );
        // Wrong-looking but harmless: counts decrypts, touches no secrets.
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn sink_returning_plaintext_is_inconsistent() {
        let v = run(
            "crates/core/src/s.rs",
            "// taint: sink — wrong direction\npub fn seal_open(key: &SecretKey, data: &[u8]) -> Document { Document }\n",
        );
        assert!(
            v.iter()
                .any(|v| v.rule == Rule::TaintAnnotation && v.message.contains("sink")),
            "{v:?}"
        );
    }

    #[test]
    fn malformed_annotation_is_flagged() {
        let v = run(
            "crates/core/src/s.rs",
            "// taint: sink\npub fn seal(key: &SecretKey, data: &[u8]) {}\n",
        );
        assert!(
            v.iter()
                .any(|v| v.rule == Rule::TaintAnnotation && v.message.contains("malformed")),
            "{v:?}"
        );
    }

    #[test]
    fn secret_debug_derive_is_flagged_and_redactable() {
        let v = run(
            "crates/crypto/src/k.rs",
            "#[derive(Debug)]\npub struct SecretKey([u8; 16]);\n",
        );
        assert!(v.iter().any(|v| v.rule == Rule::TaintDebug), "{v:?}");

        let v = run(
            "crates/crypto/src/k.rs",
            "// taint: redacted — tuple field is a fixed array, Debug prints length only\n#[derive(Debug)]\npub struct SecretKey([u8; 16]);\n",
        );
        assert!(v.iter().all(|v| v.rule != Rule::TaintDebug), "{v:?}");
    }

    #[test]
    fn secret_on_label_line_is_flagged() {
        let v = run(
            "crates/dsp/src/o.rs",
            "fn f(obs: &Obs, key: &SecretKey) {\n    obs.counter_with(FAM, &label_for(SecretKey::id(key)));\n}\n",
        );
        assert!(
            v.iter().any(|v| v.rule == Rule::TaintObs && v.line == 2),
            "{v:?}"
        );
    }

    #[test]
    fn associated_event_types_do_not_false_positive() {
        let v = run(
            "crates/dsp/src/actors.rs",
            "pub trait Session {\n    type Event: Send;\n    fn on_event(&mut self, e: Self::Event);\n}\nimpl Session for Reader {\n    type Event = ();\n    fn on_event(&mut self, e: Self::Event) {}\n}\npub fn drain<A: Session>(q: &mut Vec<A::Event>) {}\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn trust_sync_flags_missing_table_rows() {
        let cfg = config();
        let book =
            "| `SecretKey` | secret |\n| `Document` | plaintext |\n| `Event` | plaintext |\n";
        let v = check_trust_sync(Path::new("ARCHITECTURE.md"), book, &cfg);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("SecureDocument"));
    }
}
