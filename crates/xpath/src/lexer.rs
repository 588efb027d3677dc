//! Tokeniser for the XP{[],*,//} fragment.

use crate::error::ParseError;

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// `/`
    Slash,
    /// `//`
    DoubleSlash,
    /// `*`
    Star,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `@`
    At,
    /// `.` (self)
    Dot,
    /// An element or attribute name.
    Name(String),
    /// A quoted string or numeric literal.
    Literal(String),
    /// A comparison operator.
    Cmp(crate::ast::Comparison),
}

/// A token together with its source offset.
#[derive(Debug, Clone, PartialEq)]
pub struct Spanned {
    /// The token.
    pub token: Token,
    /// Character offset of the token start.
    pub offset: usize,
}

fn is_name_char(c: char, first: bool) -> bool {
    if first {
        c.is_alphabetic() || c == '_'
    } else {
        c.is_alphanumeric() || c == '_' || c == '-' || c == '.' || c == ':'
    }
}

/// Tokenises `input`.
pub fn tokenize(input: &str) -> Result<Vec<Spanned>, ParseError> {
    use crate::ast::Comparison;
    let mut out = Vec::new();
    let chars: Vec<char> = input.chars().collect();
    let mut i = 0usize;
    while i < chars.len() {
        let c = chars[i];
        let start = i;
        match c {
            ' ' | '\t' | '\n' | '\r' => {
                i += 1;
            }
            '/' => {
                if chars.get(i + 1) == Some(&'/') {
                    out.push(Spanned {
                        token: Token::DoubleSlash,
                        offset: start,
                    });
                    i += 2;
                } else {
                    out.push(Spanned {
                        token: Token::Slash,
                        offset: start,
                    });
                    i += 1;
                }
            }
            '*' => {
                out.push(Spanned {
                    token: Token::Star,
                    offset: start,
                });
                i += 1;
            }
            '[' => {
                out.push(Spanned {
                    token: Token::LBracket,
                    offset: start,
                });
                i += 1;
            }
            ']' => {
                out.push(Spanned {
                    token: Token::RBracket,
                    offset: start,
                });
                i += 1;
            }
            '@' => {
                out.push(Spanned {
                    token: Token::At,
                    offset: start,
                });
                i += 1;
            }
            '=' => {
                out.push(Spanned {
                    token: Token::Cmp(Comparison::Eq),
                    offset: start,
                });
                i += 1;
            }
            '!' => {
                if chars.get(i + 1) == Some(&'=') {
                    out.push(Spanned {
                        token: Token::Cmp(Comparison::Ne),
                        offset: start,
                    });
                    i += 2;
                } else {
                    return Err(ParseError::new("expected `!=`", start, input));
                }
            }
            '<' => {
                if chars.get(i + 1) == Some(&'=') {
                    out.push(Spanned {
                        token: Token::Cmp(Comparison::Le),
                        offset: start,
                    });
                    i += 2;
                } else {
                    out.push(Spanned {
                        token: Token::Cmp(Comparison::Lt),
                        offset: start,
                    });
                    i += 1;
                }
            }
            '>' => {
                if chars.get(i + 1) == Some(&'=') {
                    out.push(Spanned {
                        token: Token::Cmp(Comparison::Ge),
                        offset: start,
                    });
                    i += 2;
                } else {
                    out.push(Spanned {
                        token: Token::Cmp(Comparison::Gt),
                        offset: start,
                    });
                    i += 1;
                }
            }
            '"' | '\'' => {
                let quote = c;
                i += 1;
                let lit_start = i;
                while i < chars.len() && chars[i] != quote {
                    i += 1;
                }
                if i >= chars.len() {
                    return Err(ParseError::new("unterminated string literal", start, input));
                }
                out.push(Spanned {
                    token: Token::Literal(chars[lit_start..i].iter().collect()),
                    offset: start,
                });
                i += 1;
            }
            '.' => {
                // Either the self node `.` or the start of a number like `.5`.
                if chars.get(i + 1).is_some_and(|c| c.is_ascii_digit()) {
                    let num_start = i;
                    i += 1;
                    while i < chars.len() && chars[i].is_ascii_digit() {
                        i += 1;
                    }
                    out.push(Spanned {
                        token: Token::Literal(chars[num_start..i].iter().collect()),
                        offset: start,
                    });
                } else {
                    out.push(Spanned {
                        token: Token::Dot,
                        offset: start,
                    });
                    i += 1;
                }
            }
            c if c.is_ascii_digit() => {
                while i < chars.len() && (chars[i].is_ascii_digit() || chars[i] == '.') {
                    i += 1;
                }
                out.push(Spanned {
                    token: Token::Literal(chars[start..i].iter().collect()),
                    offset: start,
                });
            }
            c if is_name_char(c, true) => {
                while i < chars.len() && is_name_char(chars[i], i == start) {
                    i += 1;
                }
                out.push(Spanned {
                    token: Token::Name(chars[start..i].iter().collect()),
                    offset: start,
                });
            }
            other => {
                return Err(ParseError::new(
                    format!("unexpected character `{other}`"),
                    start,
                    input,
                ));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Comparison;

    fn toks(s: &str) -> Vec<Token> {
        tokenize(s).unwrap().into_iter().map(|t| t.token).collect()
    }

    #[test]
    fn tokenizes_basic_path() {
        assert_eq!(
            toks("//b[c]/d"),
            vec![
                Token::DoubleSlash,
                Token::Name("b".into()),
                Token::LBracket,
                Token::Name("c".into()),
                Token::RBracket,
                Token::Slash,
                Token::Name("d".into()),
            ]
        );
    }

    #[test]
    fn tokenizes_predicates_with_literals() {
        assert_eq!(
            toks("/a/b[@x = \"v\"][n >= 10]"),
            vec![
                Token::Slash,
                Token::Name("a".into()),
                Token::Slash,
                Token::Name("b".into()),
                Token::LBracket,
                Token::At,
                Token::Name("x".into()),
                Token::Cmp(Comparison::Eq),
                Token::Literal("v".into()),
                Token::RBracket,
                Token::LBracket,
                Token::Name("n".into()),
                Token::Cmp(Comparison::Ge),
                Token::Literal("10".into()),
                Token::RBracket,
            ]
        );
    }

    #[test]
    fn tokenizes_wildcard_dot_and_operators() {
        assert_eq!(
            toks("/*[. != '3.5']"),
            vec![
                Token::Slash,
                Token::Star,
                Token::LBracket,
                Token::Dot,
                Token::Cmp(Comparison::Ne),
                Token::Literal("3.5".into()),
                Token::RBracket,
            ]
        );
        assert_eq!(toks("a[x < 2][y <= 3][z > 4]").len(), 16);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(tokenize("/a[#]").is_err());
        assert!(tokenize("/a[x ! 2]").is_err());
        assert!(tokenize("/a[x = \"unterminated]").is_err());
    }

    #[test]
    fn offsets_point_into_source() {
        let spanned = tokenize("/ab//cd").unwrap();
        assert_eq!(spanned[1].offset, 1);
        assert_eq!(spanned[2].offset, 3);
        assert_eq!(spanned[3].offset, 5);
    }
}
