//! Recursive-descent parser for the XP{[],*,//} fragment.
//!
//! Accepted grammar (whitespace insignificant):
//!
//! ```text
//! path       := ('/' | '//')? step (('/' | '//') step)*
//! step       := ('*' | NAME) predicate*
//! predicate  := '[' body ']'
//! body       := '@' NAME (CMP LITERAL)?
//!             | '.' (CMP LITERAL)?
//!             | relpath ('/@' NAME)? (CMP LITERAL)?
//! relpath    := ('.'? '//')? step (('/' | '//') step)*
//! ```
//!
//! An absolute path with no leading axis token is interpreted as starting with
//! the child axis from the root (i.e. `a/b` ≡ `/a/b`), which is how the rule
//! sets of the paper are written.

use crate::ast::{Axis, Comparison, NodeTest, Path, Predicate, PredicateTarget, Step};
use crate::error::ParseError;
use crate::lexer::{tokenize, Spanned, Token};

struct Cursor<'a> {
    tokens: &'a [Spanned],
    pos: usize,
    source: &'a str,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|s| &s.token)
    }

    fn peek2(&self) -> Option<&Token> {
        self.tokens.get(self.pos + 1).map(|s| &s.token)
    }

    fn offset(&self) -> usize {
        self.tokens
            .get(self.pos)
            .map(|s| s.offset)
            .unwrap_or_else(|| self.source.len())
    }

    fn bump(&mut self) -> Option<&Token> {
        let t = self.tokens.get(self.pos).map(|s| &s.token);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError::new(message, self.offset(), self.source)
    }
}

/// Parses an absolute path expression (a rule object or a query).
pub fn parse(expression: &str) -> Result<Path, ParseError> {
    let tokens = tokenize(expression)?;
    if tokens.is_empty() {
        return Err(ParseError::new("empty expression", 0, expression));
    }
    let mut cur = Cursor {
        tokens: &tokens,
        pos: 0,
        source: expression,
    };
    let path = parse_path(&mut cur, true)?;
    if cur.peek().is_some() {
        return Err(cur.error("unexpected trailing tokens"));
    }
    if path.is_empty() {
        return Err(ParseError::new("path has no step", 0, expression));
    }
    Ok(path)
}

fn parse_path(cur: &mut Cursor, absolute: bool) -> Result<Path, ParseError> {
    let mut steps = Vec::new();
    // Leading axis.
    let mut axis = match cur.peek() {
        Some(Token::Slash) => {
            cur.bump();
            Axis::Child
        }
        Some(Token::DoubleSlash) => {
            cur.bump();
            Axis::Descendant
        }
        Some(Token::Dot) if !absolute => {
            // `.` or `.//x` inside a predicate.
            cur.bump();
            match cur.peek() {
                Some(Token::DoubleSlash) => {
                    cur.bump();
                    Axis::Descendant
                }
                Some(Token::Slash) => {
                    cur.bump();
                    Axis::Child
                }
                _ => return Ok(Path::new(steps)), // bare `.` — handled by caller
            }
        }
        _ => Axis::Child,
    };
    loop {
        let step = parse_step(cur, axis)?;
        steps.push(step);
        match cur.peek() {
            Some(Token::Slash) => {
                // `/@attr` terminates a relative predicate path; let the caller
                // consume it.
                if matches!(cur.peek2(), Some(Token::At)) {
                    break;
                }
                cur.bump();
                axis = Axis::Child;
            }
            Some(Token::DoubleSlash) => {
                cur.bump();
                axis = Axis::Descendant;
            }
            _ => break,
        }
    }
    Ok(Path::new(steps))
}

fn parse_step(cur: &mut Cursor, axis: Axis) -> Result<Step, ParseError> {
    let test = match cur.bump() {
        Some(Token::Star) => NodeTest::Wildcard,
        Some(Token::Name(n)) => NodeTest::Name(n.clone()),
        Some(other) => {
            let msg = format!("expected an element name or `*`, found {other:?}");
            return Err(ParseError::new(msg, cur.offset(), cur.source));
        }
        None => return Err(cur.error("expected an element name or `*`, found end of input")),
    };
    let mut predicates = Vec::new();
    while matches!(cur.peek(), Some(Token::LBracket)) {
        cur.bump();
        predicates.push(parse_predicate(cur)?);
        match cur.bump() {
            Some(Token::RBracket) => {}
            _ => return Err(cur.error("expected `]` to close the predicate")),
        }
    }
    Ok(Step {
        axis,
        test,
        predicates,
    })
}

fn parse_predicate(cur: &mut Cursor) -> Result<Predicate, ParseError> {
    let target = match cur.peek() {
        Some(Token::At) => {
            cur.bump();
            match cur.bump() {
                Some(Token::Name(n)) => PredicateTarget::Attribute(n.clone()),
                _ => return Err(cur.error("expected an attribute name after `@`")),
            }
        }
        Some(Token::Dot) if !matches!(cur.peek2(), Some(Token::Slash | Token::DoubleSlash)) => {
            cur.bump();
            PredicateTarget::SelfText
        }
        _ => {
            let rel = parse_path(cur, false)?;
            if rel.is_empty() {
                // `.` followed by nothing: self text.
                PredicateTarget::SelfText
            } else if matches!(cur.peek(), Some(Token::Slash))
                && matches!(cur.peek2(), Some(Token::At))
            {
                cur.bump(); // '/'
                cur.bump(); // '@'
                match cur.bump() {
                    Some(Token::Name(n)) => PredicateTarget::PathAttribute(rel, n.clone()),
                    _ => return Err(cur.error("expected an attribute name after `@`")),
                }
            } else {
                PredicateTarget::Path(rel)
            }
        }
    };
    let condition = if let Some(Token::Cmp(op)) = cur.peek() {
        let op = *op;
        cur.bump();
        match cur.bump() {
            Some(Token::Literal(lit)) => Some((op, lit.clone())),
            Some(Token::Name(word)) => Some((op, word.clone())),
            _ => return Err(cur.error("expected a literal after the comparison operator")),
        }
    } else {
        None
    };
    Ok(Predicate { target, condition })
}

/// Parses a comparison operator name used in textual rule files (`eq`, `ne`, ...).
pub fn parse_comparison(text: &str) -> Option<Comparison> {
    match text {
        "=" | "eq" => Some(Comparison::Eq),
        "!=" | "ne" => Some(Comparison::Ne),
        "<" | "lt" => Some(Comparison::Lt),
        "<=" | "le" => Some(Comparison::Le),
        ">" | "gt" => Some(Comparison::Gt),
        ">=" | "ge" => Some(Comparison::Ge),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_example() {
        // Figure 2 of the paper: R: ⊕, //b[c]/d
        let p = parse("//b[c]/d").unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(p.steps[0].axis, Axis::Descendant);
        assert_eq!(p.steps[0].test, NodeTest::Name("b".into()));
        assert_eq!(p.steps[0].predicates.len(), 1);
        assert_eq!(
            p.steps[0].predicates[0].target,
            PredicateTarget::Path(Path::new(vec![Step::child("c")]))
        );
        assert_eq!(p.steps[1].axis, Axis::Child);
        assert_eq!(p.steps[1].test, NodeTest::Name("d".into()));
    }

    #[test]
    fn parses_absolute_and_implicit_root() {
        let a = parse("/hospital/patient").unwrap();
        let b = parse("hospital/patient").unwrap();
        assert_eq!(a, b);
        assert_eq!(a.steps[0].axis, Axis::Child);
    }

    #[test]
    fn parses_wildcards_and_descendants() {
        let p = parse("/a/*//d").unwrap();
        assert_eq!(p.steps[1].test, NodeTest::Wildcard);
        assert_eq!(p.steps[2].axis, Axis::Descendant);
        assert!(p.has_recursion_or_wildcard());
    }

    #[test]
    fn parses_attribute_predicates() {
        let p = parse("//item[@sensitive = \"true\"]").unwrap();
        let pred = &p.steps[0].predicates[0];
        assert_eq!(pred.target, PredicateTarget::Attribute("sensitive".into()));
        assert_eq!(pred.condition, Some((Comparison::Eq, "true".into())));
    }

    #[test]
    fn parses_path_attribute_predicates() {
        let p = parse("//patient[acts/act/@type = \"surgery\"]/name").unwrap();
        let pred = &p.steps[0].predicates[0];
        match &pred.target {
            PredicateTarget::PathAttribute(rel, attr) => {
                assert_eq!(rel.len(), 2);
                assert_eq!(attr, "type");
            }
            other => panic!("unexpected target {other:?}"),
        }
        assert_eq!(p.steps[1].test, NodeTest::Name("name".into()));
    }

    #[test]
    fn parses_self_text_predicate() {
        let p = parse("//rating[. <= 12]").unwrap();
        let pred = &p.steps[0].predicates[0];
        assert_eq!(pred.target, PredicateTarget::SelfText);
        assert_eq!(pred.condition, Some((Comparison::Le, "12".into())));
    }

    #[test]
    fn parses_relative_descendant_predicate() {
        let p = parse("//project[.//note]").unwrap();
        match &p.steps[0].predicates[0].target {
            PredicateTarget::Path(rel) => {
                assert_eq!(rel.steps[0].axis, Axis::Descendant);
                assert_eq!(rel.steps[0].test, NodeTest::Name("note".into()));
            }
            other => panic!("unexpected target {other:?}"),
        }
    }

    #[test]
    fn parses_multi_step_predicate_paths() {
        let p = parse("//patient[diagnosis/item]").unwrap();
        match &p.steps[0].predicates[0].target {
            PredicateTarget::Path(rel) => assert_eq!(rel.len(), 2),
            other => panic!("unexpected target {other:?}"),
        }
    }

    #[test]
    fn parses_value_comparison_on_element_path() {
        let p = parse("//act[date = \"2004-01-01\"]/report").unwrap();
        let pred = &p.steps[0].predicates[0];
        assert!(matches!(pred.target, PredicateTarget::Path(_)));
        assert_eq!(pred.condition.as_ref().unwrap().1, "2004-01-01");
    }

    #[test]
    fn parses_multiple_predicates_on_one_step() {
        let p = parse("//meeting[@private = \"false\"][date]").unwrap();
        assert_eq!(p.steps[0].predicates.len(), 2);
    }

    #[test]
    fn parses_unquoted_word_literal() {
        let p = parse("//item[@channel = news]").unwrap();
        assert_eq!(
            p.steps[0].predicates[0].condition,
            Some((Comparison::Eq, "news".into()))
        );
    }

    #[test]
    fn display_of_parsed_path_reparses_identically() {
        for expr in [
            "//b[c]/d",
            "/hospital/patient/name",
            "//patient[@id = \"P00001\"]//report",
            "//item[rating <= 12]/title",
            "/a/*//d[e][@f = \"g\"]",
        ] {
            let p1 = parse(expr).unwrap();
            let p2 = parse(&p1.to_string()).unwrap();
            assert_eq!(p1, p2, "roundtrip failed for {expr}");
        }
    }

    #[test]
    fn rejects_invalid_expressions() {
        for bad in [
            "", "/", "//", "/a[", "/a]", "/a[]", "/a[@]", "/a[b =]", "/a b", "/a/[b]",
        ] {
            assert!(parse(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn comparison_names() {
        assert_eq!(parse_comparison("eq"), Some(Comparison::Eq));
        assert_eq!(parse_comparison(">="), Some(Comparison::Ge));
        assert_eq!(parse_comparison("??"), None);
    }
}
