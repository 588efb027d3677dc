//! A lightweight Rust *item* parser for the trust-boundary analyzer.
//!
//! This is deliberately not a full grammar: it recognizes the item heads the
//! taint rules need — `fn` signatures, `struct`/`enum` fields, `impl` blocks
//! (self type + trait), `use` items, `type` aliases, `const`/`static`
//! declarations — over `blank_noncode`-blanked text, and skips function
//! bodies entirely. Expression-level analysis is out of scope by design: the
//! trust argument is about what *types* appear at item boundaries, which is
//! exactly what signatures, fields, and re-exports expose.
//!
//! Every item records its 1-based line, whether it sits inside a
//! `#[cfg(test)]` region, its `#[derive(…)]` list, the enclosing `impl`
//! context (self type and trait, if any), and the nearest `// taint: …`
//! annotation found on the item's own line or in the contiguous
//! comment/attribute block directly above it.

use crate::{blank_noncode, test_regions};

/// What kind of item a parsed [`Item`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    /// A free function or method (`fn`).
    Fn,
    /// A `struct` declaration.
    Struct,
    /// An `enum` declaration.
    Enum,
    /// A `trait` declaration (its methods are separate [`ItemKind::Fn`]s).
    Trait,
    /// A `type` alias or associated-type declaration.
    TypeAlias,
    /// A `use` item (imports and `pub use` re-exports).
    Use,
    /// An `impl` block header.
    Impl,
    /// A `const` or `static` item.
    Const,
}

/// A `// taint: …` annotation attached to an item.
#[derive(Debug, Clone)]
pub struct Annotation {
    /// 1-based line the annotation comment is on.
    pub line: usize,
    /// Text after `taint:`, trimmed (e.g. `source — decrypts one chunk`).
    pub text: String,
}

/// One parsed item head.
#[derive(Debug, Clone)]
pub struct Item {
    /// Which kind of item this is.
    pub kind: ItemKind,
    /// Item name (`fn`/`struct`/`enum`/`trait`/`type`/`const` identifier;
    /// the full path text for `use`; the self-type text for `impl`).
    pub name: String,
    /// 1-based line of the item keyword.
    pub line: usize,
    /// Whether the item is `pub` (any visibility restriction counts).
    pub is_pub: bool,
    /// Whether the item lies inside a `#[cfg(test)]` region.
    pub in_test: bool,
    /// Head text: fn signature up to the body, struct/enum/impl header,
    /// full `use`/`type`/`const` declaration.
    pub signature: String,
    /// For structs/enums: `(line, type text)` per field or variant payload.
    pub field_types: Vec<(usize, String)>,
    /// Traits listed in `#[derive(…)]` attributes on the item.
    pub derives: Vec<String>,
    /// For fns/aliases inside an `impl` or `trait` block: the self type.
    pub self_type: Option<String>,
    /// For `impl Trait for Type` blocks (and fns inside them): the trait.
    pub impl_trait: Option<String>,
    /// Nearest `// taint: …` annotation, if any.
    pub annotation: Option<Annotation>,
}

struct BlockCtx {
    self_type: Option<String>,
    impl_trait: Option<String>,
    end: usize,
}

struct Parser<'a> {
    code: &'a str,
    bytes: &'a [u8],
    raw_lines: Vec<&'a str>,
    line_starts: Vec<usize>,
    test_mask: Vec<(usize, usize)>,
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

impl<'a> Parser<'a> {
    fn line_of(&self, offset: usize) -> usize {
        match self.line_starts.binary_search(&offset) {
            Ok(i) => i + 1,
            Err(i) => i,
        }
    }

    fn in_test(&self, offset: usize) -> bool {
        self.test_mask
            .iter()
            .any(|&(start, end)| offset >= start && offset < end)
    }

    fn ident_at(&self, i: usize) -> (&'a str, usize) {
        let mut end = i;
        while end < self.bytes.len() && is_ident_byte(self.bytes[end]) {
            end += 1;
        }
        (&self.code[i..end], end)
    }

    /// Scans forward from `i` to the first occurrence of a byte in `stops`
    /// at zero `(`/`[` depth (and zero `<` depth when `angles` is set).
    /// Returns the offset, or the end of input.
    fn scan_to(&self, mut i: usize, stops: &[u8], angles: bool) -> usize {
        let mut paren = 0usize;
        let mut angle = 0usize;
        while i < self.bytes.len() {
            let b = self.bytes[i];
            if paren == 0 && (!angles || angle == 0) && stops.contains(&b) {
                return i;
            }
            match b {
                b'(' | b'[' => paren += 1,
                b')' | b']' => paren = paren.saturating_sub(1),
                b'<' if angles => angle += 1,
                b'>' if angles && i > 0 && self.bytes[i - 1] != b'-' => {
                    angle = angle.saturating_sub(1);
                }
                _ => {}
            }
            i += 1;
        }
        i
    }

    /// Offset just past the `}` matching the `{` at `open`.
    fn matching_brace(&self, open: usize) -> usize {
        let mut depth = 0usize;
        let mut i = open;
        while i < self.bytes.len() {
            match self.bytes[i] {
                b'{' => depth += 1,
                b'}' => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return i + 1;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        i
    }

    /// Looks for a `// taint:` annotation on the raw text of `line` or in
    /// the contiguous comment/attribute block directly above it.
    fn annotation_for(&self, line: usize) -> Option<Annotation> {
        let grab = |l: usize| -> Option<Annotation> {
            let raw = self.raw_lines.get(l.checked_sub(1)?)?;
            let at = raw.find("taint:")?;
            // Only comment-carried annotations count.
            raw[..at].contains("//").then(|| Annotation {
                line: l,
                text: raw[at + "taint:".len()..].trim().to_owned(),
            })
        };
        if let Some(found) = grab(line) {
            return Some(found);
        }
        let mut l = line;
        while l > 1 {
            l -= 1;
            let above = self.raw_lines.get(l - 1).map_or("", |s| s.trim_start());
            if !(above.starts_with("//") || above.starts_with('#')) {
                break;
            }
            if let Some(found) = grab(l) {
                return Some(found);
            }
        }
        None
    }

    /// Splits `body` (offsets relative to `base`) at top-level commas.
    fn split_commas(&self, base: usize, body: &str) -> Vec<(usize, String)> {
        let mut parts = Vec::new();
        let mut depth = 0i32;
        let mut angle = 0i32;
        let mut start = 0usize;
        for (i, b) in body.bytes().enumerate() {
            match b {
                b'(' | b'[' | b'{' => depth += 1,
                b')' | b']' | b'}' => depth -= 1,
                b'<' => angle += 1,
                b'>' if i > 0 && body.as_bytes()[i - 1] != b'-' => angle -= 1,
                b',' if depth == 0 && angle <= 0 => {
                    parts.push((base + start, body[start..i].to_owned()));
                    start = i + 1;
                }
                _ => {}
            }
        }
        parts.push((base + start, body[start..].to_owned()));
        parts
            .into_iter()
            .filter(|(_, t)| !t.trim().is_empty())
            .collect()
    }

    /// Extracts `(line, type text)` pairs from one struct-like field list
    /// (the text between `{` and `}`): each entry is `[pub] name: Type`.
    fn braced_fields(&self, base: usize, body: &str) -> Vec<(usize, String)> {
        self.split_commas(base, body)
            .into_iter()
            .filter_map(|(off, entry)| {
                let colon = top_level_colon(&entry)?;
                let line = self.line_of(off + colon);
                Some((line, entry[colon + 1..].trim().to_owned()))
            })
            .collect()
    }

    /// Extracts payload types from one enum variant's text.
    fn variant_payloads(&self, base: usize, variant: &str) -> Vec<(usize, String)> {
        if let Some(open) = variant.find('(') {
            let close = variant.rfind(')').unwrap_or(variant.len());
            return self
                .split_commas(base + open + 1, &variant[open + 1..close])
                .into_iter()
                .map(|(off, t)| (self.line_of(off), t.trim().to_owned()))
                .collect();
        }
        if let Some(open) = variant.find('{') {
            let close = variant.rfind('}').unwrap_or(variant.len());
            return self.braced_fields(base + open + 1, &variant[open + 1..close]);
        }
        Vec::new()
    }
}

/// Finds the first `:` in `entry` at zero bracket/angle depth that is not
/// part of `::`, returning its byte offset.
fn top_level_colon(entry: &str) -> Option<usize> {
    let bytes = entry.as_bytes();
    let mut depth = 0i32;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'(' | b'[' | b'{' | b'<' => depth += 1,
            b')' | b']' | b'}' => depth -= 1,
            b'>' if i > 0 && bytes[i - 1] != b'-' => depth -= 1,
            b':' if depth == 0 => {
                if bytes.get(i + 1) == Some(&b':') {
                    i += 2;
                    continue;
                }
                return Some(i);
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// Parses the item heads of one source file. `raw` is the original text;
/// blanking and `#[cfg(test)]` masking happen internally so line numbers in
/// the returned items always match the raw file.
pub fn parse_items(raw: &str) -> Vec<Item> {
    let code = blank_noncode(raw);
    let test_mask = test_regions(&code);
    let mut line_starts = vec![0usize];
    for (i, b) in code.bytes().enumerate() {
        if b == b'\n' {
            line_starts.push(i + 1);
        }
    }
    let p = Parser {
        code: &code,
        bytes: code.as_bytes(),
        raw_lines: raw.lines().collect(),
        line_starts,
        test_mask,
    };

    let mut items = Vec::new();
    let mut blocks: Vec<BlockCtx> = Vec::new();
    let mut pending_pub = false;
    let mut pending_derives: Vec<String> = Vec::new();
    let mut i = 0usize;
    while i < p.bytes.len() {
        while blocks.last().is_some_and(|b| b.end <= i) {
            blocks.pop();
        }
        let b = p.bytes[i];
        if b == b'#' && p.bytes.get(i + 1) == Some(&b'[') {
            // Attribute: capture derive lists, skip the balanced brackets.
            let end = p.scan_to(i + 2, b"]", false);
            let attr = &p.code[i + 2..end.min(p.code.len())];
            let trimmed = attr.trim();
            if let Some(list) = trimmed
                .strip_prefix("derive")
                .and_then(|r| r.trim_start().strip_prefix('('))
            {
                let list = list.strip_suffix(')').unwrap_or(list);
                pending_derives.extend(
                    list.split(',')
                        .map(|d| d.trim().to_owned())
                        .filter(|d| !d.is_empty()),
                );
            }
            i = end + 1;
            continue;
        }
        if !is_ident_start(b) || (i > 0 && is_ident_byte(p.bytes[i - 1])) {
            i += 1;
            continue;
        }
        let (word, wend) = p.ident_at(i);
        let at = i;
        match word {
            "pub" => {
                pending_pub = true;
                i = wend;
                // Skip a visibility restriction like `pub(crate)`.
                let next = p.bytes[i..].iter().position(|&c| !c.is_ascii_whitespace());
                if let Some(off) = next {
                    if p.bytes[i + off] == b'(' {
                        i = p.scan_to(i + off + 1, b")", false) + 1;
                    }
                }
                continue;
            }
            // Modifier keywords between visibility and the item keyword.
            "unsafe" | "async" | "extern" | "default" | "crate" => {
                i = wend;
                continue;
            }
            "fn" => {
                let (name, nend) = p.ident_at(p.scan_ident_start(wend));
                let sig_end = p.scan_to(nend, b"{;", false);
                let ctx = blocks.last();
                // Skip past the body: items never hide inside fn bodies here.
                let next = if p.bytes.get(sig_end) == Some(&b'{') {
                    p.matching_brace(sig_end)
                } else {
                    sig_end + 1
                };
                items.push(Item {
                    kind: ItemKind::Fn,
                    name: name.to_owned(),
                    line: p.line_of(at),
                    is_pub: pending_pub,
                    in_test: p.in_test(at),
                    signature: p.code[at..sig_end].trim().to_owned(),
                    field_types: Vec::new(),
                    derives: std::mem::take(&mut pending_derives),
                    self_type: ctx.and_then(|c| c.self_type.clone()),
                    impl_trait: ctx.and_then(|c| c.impl_trait.clone()),
                    annotation: p.annotation_for(p.line_of(at)),
                });
                pending_pub = false;
                i = next;
                continue;
            }
            "struct" | "enum" | "union" => {
                let (name, nend) = p.ident_at(p.scan_ident_start(wend));
                let head_end = p.scan_to(nend, b"{(;", true);
                let kind = if word == "enum" {
                    ItemKind::Enum
                } else {
                    ItemKind::Struct
                };
                let mut field_types = Vec::new();
                let end = match p.bytes.get(head_end) {
                    Some(&b'(') => {
                        let close = p.scan_to(head_end + 1, b")", false);
                        for (off, t) in p.split_commas(head_end + 1, &p.code[head_end + 1..close]) {
                            let ty = strip_vis(t.trim());
                            field_types.push((p.line_of(off), ty.trim().to_owned()));
                        }
                        p.scan_to(close, b";", false) + 1
                    }
                    Some(&b'{') => {
                        let close = p.matching_brace(head_end);
                        let body = &p.code[head_end + 1..close.saturating_sub(1)];
                        if kind == ItemKind::Enum {
                            for (off, variant) in p.split_commas(head_end + 1, body) {
                                field_types.extend(p.variant_payloads(off, &variant));
                            }
                        } else {
                            field_types.extend(p.braced_fields(head_end + 1, body));
                        }
                        close
                    }
                    _ => head_end + 1,
                };
                items.push(Item {
                    kind,
                    name: name.to_owned(),
                    line: p.line_of(at),
                    is_pub: pending_pub,
                    in_test: p.in_test(at),
                    signature: p.code[at..head_end].trim().to_owned(),
                    field_types,
                    derives: std::mem::take(&mut pending_derives),
                    self_type: None,
                    impl_trait: None,
                    annotation: p.annotation_for(p.line_of(at)),
                });
                pending_pub = false;
                i = end;
                continue;
            }
            "impl" => {
                // Skip the generic parameter list right after `impl`, then
                // read the header up to `{`.
                let mut j = wend;
                if let Some(off) = p.bytes[j..].iter().position(|&c| !c.is_ascii_whitespace()) {
                    if p.bytes[j + off] == b'<' {
                        let mut depth = 0i32;
                        let mut k = j + off;
                        while k < p.bytes.len() {
                            match p.bytes[k] {
                                b'<' => depth += 1,
                                b'>' => {
                                    depth -= 1;
                                    if depth == 0 {
                                        break;
                                    }
                                }
                                _ => {}
                            }
                            k += 1;
                        }
                        j = (k + 1).min(p.bytes.len());
                    }
                }
                let open = p.scan_to(j, b"{", false);
                let header = p.code[j..open].trim();
                let header = header
                    .split_once(" where ")
                    .map_or(header, |(h, _)| h)
                    .trim();
                let (impl_trait, self_type) = match split_impl_for(header) {
                    Some((t, s)) => (Some(t.trim().to_owned()), s.trim().to_owned()),
                    None => (None, header.to_owned()),
                };
                items.push(Item {
                    kind: ItemKind::Impl,
                    name: self_type.clone(),
                    line: p.line_of(at),
                    is_pub: false,
                    in_test: p.in_test(at),
                    signature: p.code[at..open].trim().to_owned(),
                    field_types: Vec::new(),
                    derives: std::mem::take(&mut pending_derives),
                    self_type: Some(self_type.clone()),
                    impl_trait: impl_trait.clone(),
                    annotation: p.annotation_for(p.line_of(at)),
                });
                blocks.push(BlockCtx {
                    self_type: Some(self_type),
                    impl_trait,
                    end: p.matching_brace(open),
                });
                pending_pub = false;
                i = open + 1;
                continue;
            }
            "trait" => {
                let (name, nend) = p.ident_at(p.scan_ident_start(wend));
                let open = p.scan_to(nend, b"{;", true);
                items.push(Item {
                    kind: ItemKind::Trait,
                    name: name.to_owned(),
                    line: p.line_of(at),
                    is_pub: pending_pub,
                    in_test: p.in_test(at),
                    signature: p.code[at..open].trim().to_owned(),
                    field_types: Vec::new(),
                    derives: std::mem::take(&mut pending_derives),
                    self_type: None,
                    impl_trait: None,
                    annotation: p.annotation_for(p.line_of(at)),
                });
                pending_pub = false;
                if p.bytes.get(open) == Some(&b'{') {
                    blocks.push(BlockCtx {
                        self_type: Some(name.to_owned()),
                        impl_trait: None,
                        end: p.matching_brace(open),
                    });
                    i = open + 1;
                } else {
                    i = open + 1;
                }
                continue;
            }
            "use" => {
                let end = p.scan_to(wend, b";", false);
                items.push(Item {
                    kind: ItemKind::Use,
                    name: p.code[wend..end].trim().to_owned(),
                    line: p.line_of(at),
                    is_pub: pending_pub,
                    in_test: p.in_test(at),
                    signature: p.code[at..end].trim().to_owned(),
                    field_types: Vec::new(),
                    derives: std::mem::take(&mut pending_derives),
                    self_type: None,
                    impl_trait: None,
                    annotation: p.annotation_for(p.line_of(at)),
                });
                pending_pub = false;
                i = end + 1;
                continue;
            }
            "type" => {
                let (name, nend) = p.ident_at(p.scan_ident_start(wend));
                let end = p.scan_to(nend, b";", false);
                let ctx = blocks.last();
                items.push(Item {
                    kind: ItemKind::TypeAlias,
                    name: name.to_owned(),
                    line: p.line_of(at),
                    is_pub: pending_pub,
                    in_test: p.in_test(at),
                    signature: p.code[at..end].trim().to_owned(),
                    field_types: Vec::new(),
                    derives: std::mem::take(&mut pending_derives),
                    self_type: ctx.and_then(|c| c.self_type.clone()),
                    impl_trait: ctx.and_then(|c| c.impl_trait.clone()),
                    annotation: p.annotation_for(p.line_of(at)),
                });
                pending_pub = false;
                i = end + 1;
                continue;
            }
            "const" | "static" => {
                // `const` also appears as `const fn` and `const N: usize` in
                // generics; only treat it as an item when a `name:` follows.
                let nstart = p.scan_ident_start(wend);
                let (name, nend) = p.ident_at(nstart);
                if name == "fn" {
                    i = wend;
                    continue;
                }
                let end = p.scan_to(nend, b"=;", true);
                if name.is_empty() {
                    i = wend;
                    continue;
                }
                items.push(Item {
                    kind: ItemKind::Const,
                    name: name.to_owned(),
                    line: p.line_of(at),
                    is_pub: pending_pub,
                    in_test: p.in_test(at),
                    signature: p.code[at..end].trim().to_owned(),
                    field_types: Vec::new(),
                    derives: std::mem::take(&mut pending_derives),
                    self_type: blocks.last().and_then(|c| c.self_type.clone()),
                    impl_trait: blocks.last().and_then(|c| c.impl_trait.clone()),
                    annotation: p.annotation_for(p.line_of(at)),
                });
                pending_pub = false;
                // Skip the initializer to the terminating `;` at depth 0.
                // Brace-aware: a braced initializer (`= { let t = …; t }` or
                // a `match` expression) may contain `;` at zero paren depth,
                // and stopping there would resume parsing mid-initializer —
                // any `fn`/`struct` keyword in the tail would surface as a
                // phantom top-level item.
                i = p.scan_past_initializer(end) + 1;
                continue;
            }
            "macro_rules" => {
                let open = p.scan_to(wend, b"{", false);
                i = p.matching_brace(open);
                pending_pub = false;
                continue;
            }
            _ => {
                pending_pub = false;
                i = wend;
                continue;
            }
        }
    }
    items
}

impl<'a> Parser<'a> {
    /// Offset of the next identifier start at or after `i`.
    fn scan_ident_start(&self, mut i: usize) -> usize {
        while i < self.bytes.len() && !is_ident_start(self.bytes[i]) {
            i += 1;
        }
        i
    }

    /// Offset of the `;` terminating a `const`/`static` initializer: the
    /// first `;` at zero paren/bracket/brace depth after `i`. Unlike
    /// [`Parser::scan_to`], braces nest — `= { let t = …; t };` skips to the
    /// final `;`, not the one inside the block.
    fn scan_past_initializer(&self, mut i: usize) -> usize {
        let mut depth = 0usize;
        while i < self.bytes.len() {
            match self.bytes[i] {
                b'(' | b'[' | b'{' => depth += 1,
                b')' | b']' | b'}' => depth = depth.saturating_sub(1),
                b';' if depth == 0 => return i,
                _ => {}
            }
            i += 1;
        }
        i
    }
}

/// Strips a leading visibility like `pub(crate)` from a tuple-field type.
fn strip_vis(t: &str) -> &str {
    let t = t.trim();
    if let Some(rest) = t.strip_prefix("pub") {
        let rest = rest.trim_start();
        if let Some(body) = rest.strip_prefix('(') {
            if let Some(close) = body.find(')') {
                return body[close + 1..].trim_start();
            }
        }
        if rest.len() < t.len() {
            return rest;
        }
    }
    t
}

/// Splits an impl header at the ` for ` that separates trait from self type,
/// respecting angle-bracket depth (`impl Index<Range<usize>> for Doc`).
fn split_impl_for(header: &str) -> Option<(&str, &str)> {
    let bytes = header.as_bytes();
    let mut depth = 0i32;
    let mut i = 0;
    while i + 5 <= bytes.len() {
        match bytes[i] {
            b'<' => depth += 1,
            b'>' if i > 0 && bytes[i - 1] != b'-' => depth -= 1,
            b'f' if depth == 0
                && header[i..].starts_with("for ")
                && i > 0
                && bytes[i - 1].is_ascii_whitespace() =>
            {
                return Some((&header[..i], &header[i + 4..]));
            }
            _ => {}
        }
        i += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn find<'a>(items: &'a [Item], kind: ItemKind, name: &str) -> &'a Item {
        items
            .iter()
            .find(|i| i.kind == kind && i.name == name)
            .unwrap_or_else(|| panic!("no {kind:?} named {name}: {items:?}"))
    }

    #[test]
    fn parses_fn_signature_and_skips_body() {
        let src = "pub fn decrypt_chunk(key: &SecretKey, data: &[u8]) -> Vec<u8> {\n    let inner = |x: Foo| x;\n    inner(Foo)\n}\n";
        let items = parse_items(src);
        let f = find(&items, ItemKind::Fn, "decrypt_chunk");
        assert!(f.is_pub);
        assert_eq!(f.line, 1);
        assert!(f.signature.contains("key: &SecretKey"));
        assert!(f.signature.contains("-> Vec<u8>"));
        // Nothing from the body leaks into items.
        assert_eq!(items.len(), 1, "{items:?}");
    }

    #[test]
    fn parses_struct_fields_with_lines() {
        let src = "pub struct Channel {\n    name: String,\n    key: SecretKey,\n    map: BTreeMap<String, Vec<u8>>,\n}\n";
        let items = parse_items(src);
        let s = find(&items, ItemKind::Struct, "Channel");
        assert_eq!(s.field_types.len(), 3, "{s:?}");
        assert_eq!(s.field_types[1], (3, "SecretKey".to_owned()));
        assert_eq!(s.field_types[2].1, "BTreeMap<String, Vec<u8>>");
    }

    #[test]
    fn parses_tuple_struct_and_enum_variants() {
        let src = "pub struct Id(pub u32);\nenum E {\n    A,\n    B(SecretKey, u8),\n    C { doc: Document },\n    D = 4,\n}\n";
        let items = parse_items(src);
        let id = find(&items, ItemKind::Struct, "Id");
        assert_eq!(id.field_types, vec![(1, "u32".to_owned())]);
        let e = find(&items, ItemKind::Enum, "E");
        let types: Vec<&str> = e.field_types.iter().map(|(_, t)| t.as_str()).collect();
        assert_eq!(types, ["SecretKey", "u8", "Document"], "{e:?}");
        assert_eq!(e.field_types[0].0, 4);
    }

    #[test]
    fn impl_context_reaches_methods() {
        let src = "impl fmt::Debug for SecretKey {\n    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result { Ok(()) }\n}\nimpl<T: Clone> Holder<T> {\n    pub fn get(&self) -> &T { &self.0 }\n}\n";
        let items = parse_items(src);
        let blk = find(&items, ItemKind::Impl, "SecretKey");
        assert_eq!(blk.impl_trait.as_deref(), Some("fmt::Debug"));
        let f = find(&items, ItemKind::Fn, "fmt");
        assert_eq!(f.self_type.as_deref(), Some("SecretKey"));
        assert_eq!(f.impl_trait.as_deref(), Some("fmt::Debug"));
        let g = find(&items, ItemKind::Fn, "get");
        assert_eq!(g.self_type.as_deref(), Some("Holder<T>"));
        assert_eq!(g.impl_trait, None);
    }

    #[test]
    fn derives_and_annotations_attach() {
        let src = "// taint: secret — raw key material\n#[derive(Clone, PartialEq)]\npub struct SecretKey([u8; 16]);\n\nfn untouched() {}\n";
        let items = parse_items(src);
        let s = find(&items, ItemKind::Struct, "SecretKey");
        assert_eq!(s.derives, ["Clone", "PartialEq"]);
        let ann = s.annotation.as_ref().map(|a| a.text.as_str());
        assert_eq!(ann, Some("secret — raw key material"));
        let f = find(&items, ItemKind::Fn, "untouched");
        assert!(f.annotation.is_none());
        assert!(f.derives.is_empty());
    }

    #[test]
    fn trailing_annotation_on_item_line() {
        let src = "fn seal(rules: &RuleSet) -> Vec<u8> { vec![] } // taint: sink — encrypts\n";
        let items = parse_items(src);
        let f = find(&items, ItemKind::Fn, "seal");
        assert_eq!(
            f.annotation.as_ref().map(|a| a.text.as_str()),
            Some("sink — encrypts")
        );
    }

    #[test]
    fn use_items_and_test_masking() {
        let src = "pub use dissemination::{StreamItem, DisseminationChannel};\n#[cfg(test)]\nmod tests {\n    use sdds_crypto::SecretKey;\n    fn helper(k: SecretKey) {}\n}\n";
        let items = parse_items(src);
        let u = find(
            &items,
            ItemKind::Use,
            "dissemination::{StreamItem, DisseminationChannel}",
        );
        assert!(u.is_pub);
        assert!(!u.in_test);
        let masked = items
            .iter()
            .filter(|i| i.in_test)
            .map(|i| i.name.clone())
            .collect::<Vec<_>>();
        assert!(
            masked.contains(&"sdds_crypto::SecretKey".to_owned()),
            "{items:?}"
        );
        assert!(masked.contains(&"helper".to_owned()));
    }

    #[test]
    fn associated_types_and_consts_keep_impl_context() {
        let src = "impl Session for Reader {\n    type Event = ();\n    const DEPTH: usize = 3;\n    fn on_event(&mut self, e: Self::Event) {}\n}\n";
        let items = parse_items(src);
        let t = find(&items, ItemKind::TypeAlias, "Event");
        assert_eq!(t.self_type.as_deref(), Some("Reader"));
        assert!(t.signature.contains("type Event = ()"));
        let c = find(&items, ItemKind::Const, "DEPTH");
        assert_eq!(c.name, "DEPTH");
        let f = find(&items, ItemKind::Fn, "on_event");
        assert_eq!(f.impl_trait.as_deref(), Some("Session"));
    }

    #[test]
    fn where_clauses_do_not_confuse_impl_split() {
        let src = "impl<T> Store<T> where T: Clone {\n    fn put(&mut self, v: T) {}\n}\n";
        let items = parse_items(src);
        let blk = find(&items, ItemKind::Impl, "Store<T>");
        assert_eq!(blk.impl_trait, None);
    }

    /// The desync regression body skipping guards against: braces inside
    /// string and char literals or `matches!`-style macro arms must not shift
    /// where the body of the fn that contains them ends — every later item
    /// would then be mis-attributed or swallowed.
    #[test]
    fn body_scanning_survives_literal_and_macro_braces() {
        let src = "fn tricky(c: char, s: &str) -> bool {\n\
                   \u{20}   let open = '{';\n\
                   \u{20}   let close = '}';\n\
                   \u{20}   let odd = \"}} unbalanced {\";\n\
                   \u{20}   let top = '\\u{10FFFF}';\n\
                   \u{20}   matches!(c, '{' | '}') || s.contains(odd) && top == c\n\
                   }\n\
                   pub fn after(x: u8) -> u8 {\n\
                   \u{20}   x\n\
                   }\n";
        let items = parse_items(src);
        assert_eq!(items.len(), 2, "{items:?}");
        let tricky = find(&items, ItemKind::Fn, "tricky");
        assert_eq!(tricky.line, 1);
        let after = find(&items, ItemKind::Fn, "after");
        assert!(after.is_pub);
        assert_eq!(after.line, 8, "{items:?}");
    }

    /// A braced `const` initializer containing `;` must be skipped whole:
    /// resuming mid-initializer surfaces its local items as phantom
    /// top-level items and desyncs everything after.
    #[test]
    fn braced_const_initializer_is_skipped_whole() {
        let src = "const TABLE: [u8; 4] = {\n\
                   \u{20}   let mut t = [0u8; 4];\n\
                   \u{20}   struct Local(u8);\n\
                   \u{20}   t[0] = 1;\n\
                   \u{20}   t\n\
                   };\n\
                   pub fn after_const() {}\n";
        let items = parse_items(src);
        assert!(
            !items.iter().any(|i| i.name == "Local"),
            "initializer-local item leaked: {items:?}"
        );
        let c = find(&items, ItemKind::Const, "TABLE");
        assert_eq!(c.line, 1);
        let f = find(&items, ItemKind::Fn, "after_const");
        assert_eq!(f.line, 7, "{items:?}");
    }
}
