//! Tokenizer for the ATTAIN attack description language.

use std::fmt;
use std::net::Ipv4Addr;

/// A token kind.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    /// Identifier or keyword.
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal.
    Str(String),
    /// IPv4 literal, e.g. `10.0.0.6`.
    Ip(Ipv4Addr),
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `:`
    Colon,
    /// `.`
    Dot,
    /// `->`
    Arrow,
    /// `==`
    EqEq,
    /// `!=`
    NotEq,
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
    /// `!`
    Bang,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// End of input.
    Eof,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "`{s}`"),
            Tok::Int(i) => write!(f, "`{i}`"),
            Tok::Float(x) => write!(f, "`{x}`"),
            Tok::Str(s) => write!(f, "{s:?}"),
            Tok::Ip(ip) => write!(f, "`{ip}`"),
            Tok::LBrace => write!(f, "`{{`"),
            Tok::RBrace => write!(f, "`}}`"),
            Tok::LParen => write!(f, "`(`"),
            Tok::RParen => write!(f, "`)`"),
            Tok::LBracket => write!(f, "`[`"),
            Tok::RBracket => write!(f, "`]`"),
            Tok::Comma => write!(f, "`,`"),
            Tok::Semi => write!(f, "`;`"),
            Tok::Colon => write!(f, "`:`"),
            Tok::Dot => write!(f, "`.`"),
            Tok::Arrow => write!(f, "`->`"),
            Tok::EqEq => write!(f, "`==`"),
            Tok::NotEq => write!(f, "`!=`"),
            Tok::Le => write!(f, "`<=`"),
            Tok::Ge => write!(f, "`>=`"),
            Tok::Lt => write!(f, "`<`"),
            Tok::Gt => write!(f, "`>`"),
            Tok::AndAnd => write!(f, "`&&`"),
            Tok::OrOr => write!(f, "`||`"),
            Tok::Bang => write!(f, "`!`"),
            Tok::Plus => write!(f, "`+`"),
            Tok::Minus => write!(f, "`-`"),
            Tok::Eof => write!(f, "end of input"),
        }
    }
}

/// A token with its source line (1-based).
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// The token.
    pub tok: Tok,
    /// 1-based source line.
    pub line: u32,
}

/// A lexing/parsing/compilation error with its source line.
#[derive(Debug, Clone, PartialEq)]
pub struct DslError {
    /// 1-based source line (0 when unknown).
    pub line: u32,
    /// Human-readable message.
    pub message: String,
}

impl DslError {
    /// Creates an error at `line`.
    pub fn new(line: u32, message: impl Into<String>) -> DslError {
        DslError {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for DslError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(f, "line {}: {}", self.line, self.message)
        } else {
            write!(f, "{}", self.message)
        }
    }
}

impl std::error::Error for DslError {}

/// Tokenizes `source`.
///
/// `#` starts a line comment. IPv4 literals (`a.b.c.d`) and floats
/// (`a.b`) are distinguished by their dot count.
///
/// # Errors
///
/// Returns [`DslError`] on unterminated strings, malformed numbers, or
/// unexpected characters.
pub fn lex(source: &str) -> Result<Vec<Token>, DslError> {
    let mut out = Vec::new();
    let mut line: u32 = 1;
    let bytes = source.as_bytes();
    // `i` only ever stops on a char boundary: it steps over ASCII bytes
    // one at a time and over string-literal chars by their UTF-8 length.
    let char_at = |i: usize| source[i..].chars().next().expect("i < source.len()");
    let mut i = 0;
    while i < bytes.len() {
        let c = char_at(i);
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            ' ' | '\t' | '\r' => i += 1,
            '#' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '{' => {
                out.push(Token {
                    tok: Tok::LBrace,
                    line,
                });
                i += 1;
            }
            '}' => {
                out.push(Token {
                    tok: Tok::RBrace,
                    line,
                });
                i += 1;
            }
            '(' => {
                out.push(Token {
                    tok: Tok::LParen,
                    line,
                });
                i += 1;
            }
            ')' => {
                out.push(Token {
                    tok: Tok::RParen,
                    line,
                });
                i += 1;
            }
            '[' => {
                out.push(Token {
                    tok: Tok::LBracket,
                    line,
                });
                i += 1;
            }
            ']' => {
                out.push(Token {
                    tok: Tok::RBracket,
                    line,
                });
                i += 1;
            }
            ',' => {
                out.push(Token {
                    tok: Tok::Comma,
                    line,
                });
                i += 1;
            }
            ';' => {
                out.push(Token {
                    tok: Tok::Semi,
                    line,
                });
                i += 1;
            }
            ':' => {
                out.push(Token {
                    tok: Tok::Colon,
                    line,
                });
                i += 1;
            }
            '.' => {
                out.push(Token {
                    tok: Tok::Dot,
                    line,
                });
                i += 1;
            }
            '+' => {
                out.push(Token {
                    tok: Tok::Plus,
                    line,
                });
                i += 1;
            }
            '-' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'>' {
                    out.push(Token {
                        tok: Tok::Arrow,
                        line,
                    });
                    i += 2;
                } else {
                    out.push(Token {
                        tok: Tok::Minus,
                        line,
                    });
                    i += 1;
                }
            }
            '=' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    out.push(Token {
                        tok: Tok::EqEq,
                        line,
                    });
                    i += 2;
                } else {
                    return Err(DslError::new(line, "single `=` (use `==` for equality)"));
                }
            }
            '!' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    out.push(Token {
                        tok: Tok::NotEq,
                        line,
                    });
                    i += 2;
                } else {
                    out.push(Token {
                        tok: Tok::Bang,
                        line,
                    });
                    i += 1;
                }
            }
            '<' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    out.push(Token { tok: Tok::Le, line });
                    i += 2;
                } else {
                    out.push(Token { tok: Tok::Lt, line });
                    i += 1;
                }
            }
            '>' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    out.push(Token { tok: Tok::Ge, line });
                    i += 2;
                } else {
                    out.push(Token { tok: Tok::Gt, line });
                    i += 1;
                }
            }
            '&' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'&' {
                    out.push(Token {
                        tok: Tok::AndAnd,
                        line,
                    });
                    i += 2;
                } else {
                    return Err(DslError::new(line, "single `&` (use `&&`)"));
                }
            }
            '|' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'|' {
                    out.push(Token {
                        tok: Tok::OrOr,
                        line,
                    });
                    i += 2;
                } else {
                    return Err(DslError::new(line, "single `|` (use `||`)"));
                }
            }
            '"' => {
                let mut s = String::new();
                i += 1;
                loop {
                    if i >= bytes.len() {
                        return Err(DslError::new(line, "unterminated string literal"));
                    }
                    match char_at(i) {
                        '"' => {
                            i += 1;
                            break;
                        }
                        '\\' => {
                            i += 1;
                            if i >= bytes.len() {
                                return Err(DslError::new(line, "unterminated escape"));
                            }
                            s.push(match char_at(i) {
                                'n' => '\n',
                                't' => '\t',
                                '"' => '"',
                                '\\' => '\\',
                                other => {
                                    return Err(DslError::new(
                                        line,
                                        format!("unknown escape \\{other}"),
                                    ))
                                }
                            });
                            i += 1;
                        }
                        '\n' => return Err(DslError::new(line, "newline in string literal")),
                        c => {
                            s.push(c);
                            i += c.len_utf8();
                        }
                    }
                }
                out.push(Token {
                    tok: Tok::Str(s),
                    line,
                });
            }
            c if c.is_ascii_digit() => {
                // Groups of digits separated by dots: 1 = int, 2 = float,
                // 4 = IPv4; anything else is malformed.
                let mut groups: Vec<&str> = Vec::new();
                loop {
                    let start = i;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                    groups.push(&source[start..i]);
                    if i + 1 < bytes.len()
                        && bytes[i] == b'.'
                        && bytes[i + 1].is_ascii_digit()
                        && groups.len() < 4
                    {
                        i += 1;
                    } else {
                        break;
                    }
                }
                let tok = match groups.len() {
                    1 => Tok::Int(
                        groups[0]
                            .parse()
                            .map_err(|_| DslError::new(line, "integer literal out of range"))?,
                    ),
                    2 => Tok::Float(
                        format!("{}.{}", groups[0], groups[1])
                            .parse()
                            .map_err(|_| DslError::new(line, "bad float literal"))?,
                    ),
                    4 => {
                        let octets: Result<Vec<u8>, _> =
                            groups.iter().map(|g| g.parse::<u8>()).collect();
                        let octets =
                            octets.map_err(|_| DslError::new(line, "IPv4 octet out of range"))?;
                        Tok::Ip(Ipv4Addr::new(octets[0], octets[1], octets[2], octets[3]))
                    }
                    n => {
                        return Err(DslError::new(
                            line,
                            format!("malformed number with {n} dot-separated groups"),
                        ))
                    }
                };
                out.push(Token { tok, line });
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                out.push(Token {
                    tok: Tok::Ident(source[start..i].to_string()),
                    line,
                });
            }
            other => {
                return Err(DslError::new(
                    line,
                    format!("unexpected character {other:?}"),
                ))
            }
        }
    }
    out.push(Token {
        tok: Tok::Eof,
        line,
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn numbers_floats_and_ips() {
        assert_eq!(
            toks("42 1.5 10.0.0.6"),
            vec![
                Tok::Int(42),
                Tok::Float(1.5),
                Tok::Ip("10.0.0.6".parse().unwrap()),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn three_group_numbers_are_rejected() {
        assert!(lex("1.2.3").is_err());
        assert!(lex("10.0.0.999").is_err());
    }

    #[test]
    fn operators_and_punctuation() {
        assert_eq!(
            toks("== != <= >= < > && || ! -> ( ) { } [ ] , ; : . + -"),
            vec![
                Tok::EqEq,
                Tok::NotEq,
                Tok::Le,
                Tok::Ge,
                Tok::Lt,
                Tok::Gt,
                Tok::AndAnd,
                Tok::OrOr,
                Tok::Bang,
                Tok::Arrow,
                Tok::LParen,
                Tok::RParen,
                Tok::LBrace,
                Tok::RBrace,
                Tok::LBracket,
                Tok::RBracket,
                Tok::Comma,
                Tok::Semi,
                Tok::Colon,
                Tok::Dot,
                Tok::Plus,
                Tok::Minus,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn strings_with_escapes() {
        assert_eq!(
            toks(r#""ping -c 60" "a\"b" "x\\y""#),
            vec![
                Tok::Str("ping -c 60".into()),
                Tok::Str("a\"b".into()),
                Tok::Str("x\\y".into()),
                Tok::Eof
            ]
        );
        assert!(lex("\"unterminated").is_err());
    }

    #[test]
    fn non_ascii_text_decodes_as_utf8() {
        assert_eq!(toks("\"é φ1\""), vec![Tok::Str("é φ1".into()), Tok::Eof]);
        let err = lex("a λ").unwrap_err();
        assert!(err.message.contains("'λ'"), "{}", err.message);
    }

    #[test]
    fn comments_and_lines() {
        let tokens = lex("a # comment\nb").unwrap();
        assert_eq!(tokens[0].tok, Tok::Ident("a".into()));
        assert_eq!(tokens[0].line, 1);
        assert_eq!(tokens[1].tok, Tok::Ident("b".into()));
        assert_eq!(tokens[1].line, 2);
    }

    #[test]
    fn single_equals_is_an_error_with_hint() {
        let err = lex("a = b").unwrap_err();
        assert!(err.message.contains("=="));
        assert_eq!(err.line, 1);
    }

    #[test]
    fn identifiers_include_underscores_and_caps() {
        assert_eq!(
            toks("FLOW_MOD sigma_1 _x"),
            vec![
                Tok::Ident("FLOW_MOD".into()),
                Tok::Ident("sigma_1".into()),
                Tok::Ident("_x".into()),
                Tok::Eof
            ]
        );
    }
}
