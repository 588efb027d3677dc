//! The hand-rolled TOML subset the lint config (`trust.toml`) is written in:
//! `[section]` headers, `key = ["a", "b"]` string arrays (single- or
//! multi-line) and `#` comments. Hand-rolled because the linter is
//! dependency-free.

/// Parses `text` (named `file` in error messages) and hands every
/// `[section] key = [..]` entry to `assign` as `(section, key, items, line)`,
/// in file order. Malformed lines, non-array values and unterminated arrays
/// are errors, as is any error `assign` returns.
pub fn for_each_array(
    text: &str,
    file: &str,
    mut assign: impl FnMut(&str, &str, Vec<String>, usize) -> Result<(), String>,
) -> Result<(), String> {
    let mut section = String::new();
    let mut pending: Option<(String, String, usize)> = None;
    let mut entry = |section: &str, key: &str, value: &str, line: usize| {
        let items = parse_string_array(value)
            .ok_or_else(|| format!("{file}:{line}: `{key}` must be a [\"…\"] array"))?;
        assign(section, key, items, line)
    };
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = strip_toml_comment(raw).trim().to_owned();
        if let Some((key, mut acc, at)) = pending.take() {
            let done = line.contains(']');
            acc.push(' ');
            acc.push_str(&line);
            if done {
                entry(&section, &key, &acc, at)?;
            } else {
                pending = Some((key, acc, at));
            }
            continue;
        }
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|r| r.strip_suffix(']')) {
            section = name.trim().to_owned();
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| format!("{file}:{lineno}: expected `key = [..]`"))?;
        let (key, value) = (key.trim().to_owned(), value.trim().to_owned());
        if value.starts_with('[') && !value.contains(']') {
            pending = Some((key, value, lineno));
        } else {
            entry(&section, &key, &value, lineno)?;
        }
    }
    if let Some((key, _, at)) = pending {
        return Err(format!("{file}:{at}: unterminated array for `{key}`"));
    }
    Ok(())
}

/// `line` without its `#` comment (a `#` inside a string does not count).
pub(crate) fn strip_toml_comment(line: &str) -> &str {
    let bytes = line.as_bytes();
    let mut in_str = false;
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'"' => in_str = !in_str,
            b'#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_string_array(value: &str) -> Option<Vec<String>> {
    let inner = value.trim().strip_prefix('[')?.trim().strip_suffix(']')?;
    let mut out = Vec::new();
    for part in inner.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let unquoted = part.strip_prefix('"')?.strip_suffix('"')?;
        out.push(unquoted.to_owned());
    }
    Some(out)
}
