//! The trust-boundary rules.
//!
//! The paper's security argument in one sentence: the DSP is an untrusted
//! server that only ever stores and serves *encrypted* chunks, while
//! cleartext events and key material exist solely on the card/client side.
//! The compiler proves most of it, provided the untrusted crates cannot name
//! a key or cleartext type. This module keeps that precondition and the two
//! leaks the compiler cannot see, configured by `crates/lint/trust.toml`:
//!
//! - **crate-graph** — no untrusted crate (the DSP, telemetry) reaches a
//!   trusted crate (crypto, core, xml, card) through the `[dependencies]`
//!   of the workspace manifests. `[dev-dependencies]` do not count: tests
//!   may build real documents.
//! - **secret-label** — no secret type name on a metric-label call
//!   (`counter_with`, …) anywhere: labels are exported as JSON.
//! - **secret-debug** — no `#[derive(Debug)]` or `impl Display` on a secret
//!   type: `{:?}` on a key ends up in logs. A hand-written `Debug` impl is
//!   the redacting one; `// lint: redacted — <reason>` admits a derive whose
//!   fields all redact themselves.

use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};

use crate::{followed_by, missing_from_book, token_positions, Rule, Source, Violation};

/// The trust model, loaded from `crates/lint/trust.toml`.
#[derive(Debug, Default)]
pub struct TrustConfig {
    /// Packages on the untrusted side (e.g. `sdds-dsp`).
    pub untrusted: Vec<String>,
    /// Packages that hold keys or cleartext (e.g. `sdds-core`).
    pub trusted: Vec<String>,
    /// Type names that hold key material.
    pub secret: Vec<String>,
    /// Metric-label call names (`counter_with`, …).
    pub label_calls: Vec<String>,
}

impl TrustConfig {
    /// Parses `trust.toml` (the TOML subset of [`crate::config`]). Every
    /// list must be present and non-empty.
    pub fn parse(text: &str) -> Result<TrustConfig, String> {
        let mut config = TrustConfig::default();
        crate::config::for_each_array(text, "trust.toml", |section, key, items, line| {
            let slot = match (section, key) {
                ("crate-graph", "untrusted") => &mut config.untrusted,
                ("crate-graph", "trusted") => &mut config.trusted,
                ("secret", "types") => &mut config.secret,
                ("secret", "label_calls") => &mut config.label_calls,
                _ => {
                    return Err(format!(
                        "trust.toml:{line}: unknown entry `[{section}] {key}`"
                    ))
                }
            };
            *slot = items;
            Ok(())
        })?;
        for (name, values) in [
            ("[crate-graph] untrusted", &config.untrusted),
            ("[crate-graph] trusted", &config.trusted),
            ("[secret] types", &config.secret),
            ("[secret] label_calls", &config.label_calls),
        ] {
            if values.is_empty() {
                return Err(format!("trust.toml: `{name}` must not be empty"));
            }
        }
        Ok(config)
    }

    fn is_secret(&self, name: &str) -> bool {
        self.secret.iter().any(|s| s == name)
    }
}

/// One package manifest: its `[package] name` and the packages its
/// `[dependencies]` (and `target.*.dependencies`) name, each with the line
/// it is declared on.
#[derive(Debug)]
struct Manifest {
    path: PathBuf,
    name: String,
    deps: Vec<(String, usize)>,
}

fn unquote(value: &str) -> Option<&str> {
    value.trim().strip_prefix('"')?.split('"').next()
}

/// Reads the package name and normal dependencies out of a `Cargo.toml`.
/// A dependency renamed with `package = "…"` counts under its package name.
fn parse_manifest(path: &Path, text: &str) -> Option<Manifest> {
    let mut section = String::new();
    let mut name = None;
    let mut deps = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = crate::config::strip_toml_comment(raw).trim();
        if let Some(header) = line.strip_prefix('[') {
            section = header
                .trim_matches(|c| c == '[' || c == ']')
                .trim()
                .to_owned();
            // `[dependencies.sdds-core]` declares one dependency as a table.
            let table = section
                .strip_prefix("dependencies.")
                .or_else(|| section.split_once(".dependencies.").map(|(_, dep)| dep));
            if let Some(dep) = table {
                deps.push((dep.to_owned(), idx + 1));
            }
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let key = key.trim();
        if section == "package" && key == "name" {
            name = unquote(value).map(str::to_owned);
        } else if section == "dependencies"
            || section.starts_with("target.") && section.ends_with(".dependencies")
        {
            let renamed = value
                .split_once("package")
                .and_then(|(_, rest)| unquote(rest.trim_start().strip_prefix('=')?));
            // `sdds-core.workspace = true` names `sdds-core`.
            let dep = renamed.unwrap_or_else(|| key.split('.').next().unwrap_or(key));
            deps.push((dep.to_owned(), idx + 1));
        }
    }
    Some(Manifest {
        path: path.to_path_buf(),
        name: name?,
        deps,
    })
}

/// The crate-graph rule over the workspace manifests, given as
/// `(path, contents)` pairs: every trusted package an untrusted one reaches
/// through normal dependencies is one [`Rule::CrateGraph`] violation,
/// reported on the untrusted manifest's line that starts the path.
pub fn check_crate_graph(config: &TrustConfig, manifests: &[(PathBuf, String)]) -> Vec<Violation> {
    let parsed: BTreeMap<String, Manifest> = manifests
        .iter()
        .filter_map(|(path, text)| parse_manifest(path, text))
        .map(|m| (m.name.clone(), m))
        .collect();
    let mut out = Vec::new();
    for root in &config.untrusted {
        let Some(manifest) = parsed.get(root) else {
            out.push(Violation {
                file: PathBuf::from("crates/lint/trust.toml"),
                line: 1,
                rule: Rule::CrateGraph,
                message: format!("untrusted package `{root}` has no manifest in the workspace"),
            });
            continue;
        };
        // Breadth-first, so each reported path is a shortest one.
        let mut via: BTreeMap<&str, &str> = BTreeMap::new();
        let mut queue = VecDeque::from([root.as_str()]);
        while let Some(name) = queue.pop_front() {
            let Some(current) = parsed.get(name) else {
                continue;
            };
            for (dep, _) in &current.deps {
                if dep != root && !via.contains_key(dep.as_str()) {
                    via.insert(dep, name);
                    queue.push_back(dep);
                }
            }
        }
        for target in &config.trusted {
            if !via.contains_key(target.as_str()) {
                continue;
            }
            let mut path = vec![target.as_str()];
            // The root is never a key of `via`, so the walk ends there.
            while let Some(&parent) = via.get(path[path.len() - 1]) {
                path.push(parent);
            }
            path.reverse();
            let first = path.get(1).copied().unwrap_or(target);
            let line = manifest
                .deps
                .iter()
                .find(|(dep, _)| dep == first)
                .map_or(1, |&(_, line)| line);
            out.push(Violation {
                file: manifest.path.clone(),
                line,
                rule: Rule::CrateGraph,
                message: format!(
                    "untrusted `{root}` depends on trusted `{target}` ({}): the \
                     untrusted side may only reach crates that hold no key or \
                     cleartext type; move the dependency to [dev-dependencies] \
                     if only tests need it",
                    path.join(" → ")
                ),
            });
        }
    }
    out
}

/// The secret-label and secret-debug rules over one source file.
pub fn check_secret_tokens(config: &TrustConfig, path: &Path, contents: &str) -> Vec<Violation> {
    let src = Source::new(contents);
    let mut out = Vec::new();
    let mut push = |offset: usize, rule: Rule, message: String| {
        out.push(Violation {
            file: path.to_path_buf(),
            line: src.line_of(offset),
            rule,
            message,
        });
    };

    for call in &config.label_calls {
        for at in token_positions(&src.code, call) {
            if src.in_test(at) || !followed_by(&src.code, at, call, b'(') {
                continue;
            }
            let line = src.code.lines().nth(src.line_of(at) - 1).unwrap_or("");
            if let Some(name) = config
                .secret
                .iter()
                .find(|name| !token_positions(line, name).is_empty())
            {
                push(
                    at,
                    Rule::SecretLabel,
                    format!(
                        "secret `{name}` on a `{call}` metric-label line: labels are \
                         exported in ObsSnapshot JSON and must never be derived from \
                         key material"
                    ),
                );
            }
        }
    }

    let redacted = |at: usize| src.escaped(src.line_of(at), "// lint: redacted");
    for at in token_positions(&src.code, "derive") {
        let rest = &src.code[at + "derive".len()..];
        let Some(args) = rest.trim_start().strip_prefix('(') else {
            continue;
        };
        let derives_debug =
            !token_positions(&args[..args.find(')').unwrap_or(0)], "Debug").is_empty();
        // The derived item's head: the attributes and the `struct`/`enum`
        // line up to its body.
        let head = &rest[..rest.find(['{', ';']).unwrap_or(rest.len())];
        let Some(name) = next_type_item(head).filter(|name| config.is_secret(name)) else {
            continue;
        };
        if derives_debug && !src.in_test(at) && !redacted(at) {
            push(
                at,
                Rule::SecretDebug,
                format!(
                    "secret `{name}` derives Debug: `{{:?}}` would print key material \
                     into logs; write a redacting impl, or justify a derive whose \
                     fields all redact with `// lint: redacted — <reason>`"
                ),
            );
        }
    }
    for at in token_positions(&src.code, "impl") {
        let head = &src.code[at..];
        let head = &head[..head.find('{').unwrap_or(head.len())];
        let Some((trait_path, self_type)) = head.split_once(" for ") else {
            continue;
        };
        let is_display = trait_path.trim_end().ends_with("Display");
        let name = self_type.trim_start();
        let name = &name[..name.find(|c: char| !is_ident(c)).unwrap_or(name.len())];
        if is_display && config.is_secret(name) && !src.in_test(at) && !redacted(at) {
            push(
                at,
                Rule::SecretDebug,
                format!(
                    "Display impl on secret `{name}`: formatting a key is an \
                     exfiltration path"
                ),
            );
        }
    }
    out
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The name of the first `struct` or `enum` declared in `code`.
fn next_type_item(code: &str) -> Option<&str> {
    let at = ["struct", "enum"]
        .iter()
        .filter_map(|kw| token_positions(code, kw).first().map(|&at| at + kw.len()))
        .min()?;
    let name = code[at..].trim_start();
    Some(&name[..name.find(|c: char| !is_ident(c)).unwrap_or(name.len())])
}

/// The trust half of the doc-sync contract: every package and secret type
/// named in `trust.toml` must appear in the architecture book's
/// trust-boundary tables, so the book cannot fall behind the config.
pub fn check_trust_sync(book_path: &Path, book: &str, config: &TrustConfig) -> Vec<Violation> {
    let names = config
        .untrusted
        .iter()
        .chain(&config.trusted)
        .chain(&config.secret)
        .map(String::as_str);
    missing_from_book(book_path, book, names, |name| {
        format!(
            "trust.toml names `{name}` but ARCHITECTURE.md's trust-boundary \
             tables do not mention it; add a row"
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> TrustConfig {
        TrustConfig::parse(
            r#"
[crate-graph]
untrusted = ["sdds-dsp", "sdds-obs"]
trusted = ["sdds-crypto", "sdds-core"]

[secret]
types = [
    "SecretKey",  # a comment inside a multi-line array
    "KeyRing",
]
label_calls = ["counter_with"]
"#,
        )
        .unwrap_or_else(|e| panic!("{e}"))
    }

    fn manifest(path: &str, text: &str) -> (PathBuf, String) {
        (PathBuf::from(path), text.to_owned())
    }

    fn dsp(deps: &str) -> (PathBuf, String) {
        manifest(
            "crates/dsp/Cargo.toml",
            &format!("[package]\nname = \"sdds-dsp\"\n\n{deps}"),
        )
    }

    fn obs() -> (PathBuf, String) {
        manifest(
            "crates/obs/Cargo.toml",
            "[package]\nname = \"sdds-obs\"\n[dependencies]\nsdds-sync = { workspace = true }\n",
        )
    }

    fn scan(src: &str) -> Vec<Violation> {
        check_secret_tokens(&config(), Path::new("x.rs"), src)
    }

    #[test]
    fn parses_trust_toml_subset() {
        let cfg = config();
        assert_eq!(cfg.untrusted, ["sdds-dsp", "sdds-obs"]);
        assert_eq!(cfg.secret, ["SecretKey", "KeyRing"]);
        assert_eq!(cfg.label_calls, ["counter_with"]);
    }

    #[test]
    fn multiline_arrays_parse() {
        let cfg = TrustConfig::parse(
            "[crate-graph]\nuntrusted = [\n  \"a\", # server\n  \"b\",\n]\ntrusted = [\"c\"]\n[secret]\ntypes = [\"K\"]\nlabel_calls = [\n  \"counter_with\"\n]\n",
        )
        .unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(cfg.untrusted, ["a", "b"]);
        assert_eq!(cfg.label_calls, ["counter_with"]);
    }

    #[test]
    fn toml_errors_are_reported() {
        let err = TrustConfig::parse("[secret]\ntypes = \"SecretKey\"\n").unwrap_err();
        assert!(err.contains("trust.toml:2"), "{err}");
        let err = TrustConfig::parse("[tiers]\nsecret = [\"SecretKey\"]\n").unwrap_err();
        assert!(err.contains("unknown entry"), "{err}");
        let err = TrustConfig::parse("[secret]\ntypes = [\"SecretKey\"]\n").unwrap_err();
        assert!(err.contains("must not be empty"), "{err}");
    }

    #[test]
    fn crypto_in_dsp_dependencies_is_caught() {
        let manifests = [
            dsp("[dependencies]\nsdds-wire = { workspace = true }\nsdds-crypto = { workspace = true }\n"),
            obs(),
        ];
        let v = check_crate_graph(&config(), &manifests);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::CrateGraph);
        assert_eq!(v[0].file, PathBuf::from("crates/dsp/Cargo.toml"));
        assert_eq!(v[0].line, 6);
        assert!(v[0].message.contains("sdds-dsp → sdds-crypto"), "{v:?}");
    }

    #[test]
    fn transitive_path_to_core_is_caught() {
        let manifests = [
            dsp("[dependencies]\nsdds-proxy.workspace = true\n"),
            obs(),
            manifest(
                "crates/proxy/Cargo.toml",
                "[package]\nname = \"sdds-proxy\"\n[dependencies.sdds-core]\nworkspace = true\n",
            ),
        ];
        let v = check_crate_graph(&config(), &manifests);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 5, "{v:?}");
        assert!(
            v[0].message.contains("sdds-dsp → sdds-proxy → sdds-core"),
            "{v:?}"
        );
        // A renamed dependency counts under its package name.
        let renamed = [
            dsp("[dependencies]\ncore = { package = \"sdds-core\", path = \"../core\" }\n"),
            obs(),
        ];
        assert_eq!(check_crate_graph(&config(), &renamed).len(), 1);
    }

    #[test]
    fn dev_dependencies_are_clean() {
        let manifests = [
            dsp("[dependencies]\nsdds-wire = { workspace = true }\n\n[dev-dependencies]\nsdds-crypto = { workspace = true }\nsdds-core = { workspace = true }\n"),
            obs(),
        ];
        let v = check_crate_graph(&config(), &manifests);
        assert!(v.is_empty(), "{v:?}");
        // An untrusted package with no manifest is itself a finding: a
        // rename must not switch the check off.
        let v = check_crate_graph(&config(), &manifests[..1]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("sdds-obs"), "{v:?}");
    }

    #[test]
    fn secret_on_label_line_is_flagged() {
        let v = scan(
            "fn f(obs: &Obs, key: &SecretKey) {\n    obs.counter_with(FAM, &label_for(SecretKey::id(key)));\n}\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!((v[0].rule, v[0].line), (Rule::SecretLabel, 2));
        // Counts and durations are fine, as is a secret name in a string.
        let v = scan("fn f(obs: &Obs) {\n    obs.counter_with(FAM, \"SecretKey\");\n}\n");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn secret_debug_derive_is_flagged_and_redactable() {
        let v = scan("#[derive(Clone, Debug)]\npub struct SecretKey([u8; 16]);\n");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!((v[0].rule, v[0].line), (Rule::SecretDebug, 1));
        let v = scan("/// Keys.\n// lint: redacted — SecretKey's Debug redacts\n#[derive(Debug)]\npub struct KeyRing(Vec<SecretKey>);\n");
        assert!(v.is_empty(), "{v:?}");
        // The redacting impl, other types and test code pass.
        let v = scan(
            "impl std::fmt::Debug for SecretKey {}\n#[derive(Debug)]\nstruct Chunk;\n#[cfg(test)]\nmod tests {\n    #[derive(Debug)]\n    struct SecretKey;\n}\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn display_impl_on_secret_type_is_flagged() {
        let v = scan("impl fmt::Display for SecretKey {\n    fn fmt() {}\n}\n");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::SecretDebug);
        let v = scan("impl<'a> std::fmt::Display for KeyRing<'a> {}\n");
        assert_eq!(v.len(), 1, "{v:?}");
        let v = scan("impl fmt::Display for SecretKeyId {}\n");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn trust_sync_flags_missing_table_rows() {
        let book = "| `sdds-dsp` | `sdds-obs` | `sdds-crypto` | `sdds-core` | `SecretKey` |\n";
        let v = check_trust_sync(Path::new("ARCHITECTURE.md"), book, &config());
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::DocSync);
        assert!(v[0].message.contains("KeyRing"));
    }
}
