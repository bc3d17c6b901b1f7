//! Lexer for the Val subset.
//!
//! Comments run from `%` to end of line (the paper's convention). Numbers
//! follow Val's forms: `2`, `0.25`, `2.` and `.5` are all accepted; a
//! number containing a dot is a `real` literal.
//!
//! Every token carries a full [`Span`] — byte range plus 1-based
//! line/column — which the parser threads into the statement source map
//! and the compiler threads into every IR node (see `valpipe_ir::prov`).

use std::fmt;
use valpipe_ir::prov::Span;

/// Reserved words. The lexer gives each its own token kind, so an
/// identifier token is never a keyword.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kw {
    /// `forall`
    Forall,
    /// `in`
    In,
    /// `construct`
    Construct,
    /// `endall`
    Endall,
    /// `for`
    For,
    /// `do`
    Do,
    /// `endfor`
    Endfor,
    /// `if`
    If,
    /// `then`
    Then,
    /// `else`
    Else,
    /// `endif`
    Endif,
    /// `let`
    Let,
    /// `endlet`
    Endlet,
    /// `iter`
    Iter,
    /// `enditer`
    Enditer,
    /// `param`
    Param,
    /// `input`
    Input,
    /// `output`
    Output,
    /// `true`
    True,
    /// `false`
    False,
    /// `integer`
    Integer,
    /// `real`
    Real,
    /// `boolean`
    Boolean,
    /// `array`
    Array,
}

impl Kw {
    /// The keyword a word spells, if any.
    pub fn of(word: &str) -> Option<Kw> {
        Some(match word {
            "forall" => Kw::Forall,
            "in" => Kw::In,
            "construct" => Kw::Construct,
            "endall" => Kw::Endall,
            "for" => Kw::For,
            "do" => Kw::Do,
            "endfor" => Kw::Endfor,
            "if" => Kw::If,
            "then" => Kw::Then,
            "else" => Kw::Else,
            "endif" => Kw::Endif,
            "let" => Kw::Let,
            "endlet" => Kw::Endlet,
            "iter" => Kw::Iter,
            "enditer" => Kw::Enditer,
            "param" => Kw::Param,
            "input" => Kw::Input,
            "output" => Kw::Output,
            "true" => Kw::True,
            "false" => Kw::False,
            "integer" => Kw::Integer,
            "real" => Kw::Real,
            "boolean" => Kw::Boolean,
            "array" => Kw::Array,
            _ => return None,
        })
    }

    /// The keyword's source text.
    pub fn text(self) -> &'static str {
        match self {
            Kw::Forall => "forall",
            Kw::In => "in",
            Kw::Construct => "construct",
            Kw::Endall => "endall",
            Kw::For => "for",
            Kw::Do => "do",
            Kw::Endfor => "endfor",
            Kw::If => "if",
            Kw::Then => "then",
            Kw::Else => "else",
            Kw::Endif => "endif",
            Kw::Let => "let",
            Kw::Endlet => "endlet",
            Kw::Iter => "iter",
            Kw::Enditer => "enditer",
            Kw::Param => "param",
            Kw::Input => "input",
            Kw::Output => "output",
            Kw::True => "true",
            Kw::False => "false",
            Kw::Integer => "integer",
            Kw::Real => "real",
            Kw::Boolean => "boolean",
            Kw::Array => "array",
        }
    }
}

impl fmt::Display for Kw {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.text())
    }
}

/// Token kinds. Identifiers borrow their text from the source, so a
/// token is plain data and copying it allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tok<'a> {
    /// Identifier (never a keyword).
    Ident(&'a str),
    /// Keyword.
    Kw(Kw),
    /// Integer literal.
    Int(i64),
    /// Real literal.
    Real(f64),
    /// `:=`
    Assign,
    /// `:`
    Colon,
    /// `;`
    Semi,
    /// `,`
    Comma,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `=`
    Eq,
    /// `~=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `|`
    Bar,
    /// `&`
    Amp,
    /// `~`
    Tilde,
    /// End of input.
    Eof,
}

impl fmt::Display for Tok<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "{s}"),
            Tok::Kw(k) => write!(f, "{k}"),
            Tok::Int(v) => write!(f, "{v}"),
            Tok::Real(v) => write!(f, "{v}"),
            Tok::Assign => write!(f, ":="),
            Tok::Colon => write!(f, ":"),
            Tok::Semi => write!(f, ";"),
            Tok::Comma => write!(f, ","),
            Tok::LParen => write!(f, "("),
            Tok::RParen => write!(f, ")"),
            Tok::LBracket => write!(f, "["),
            Tok::RBracket => write!(f, "]"),
            Tok::Plus => write!(f, "+"),
            Tok::Minus => write!(f, "-"),
            Tok::Star => write!(f, "*"),
            Tok::Slash => write!(f, "/"),
            Tok::Eq => write!(f, "="),
            Tok::Ne => write!(f, "~="),
            Tok::Lt => write!(f, "<"),
            Tok::Le => write!(f, "<="),
            Tok::Gt => write!(f, ">"),
            Tok::Ge => write!(f, ">="),
            Tok::Bar => write!(f, "|"),
            Tok::Amp => write!(f, "&"),
            Tok::Tilde => write!(f, "~"),
            Tok::Eof => write!(f, "<eof>"),
        }
    }
}

/// A token with its source [`Span`] for diagnostics and provenance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spanned<'a> {
    /// The token.
    pub tok: Tok<'a>,
    /// Byte range and 1-based line/column of the token.
    pub span: Span,
}

impl Spanned<'_> {
    /// Source line (1-based) of the token.
    pub fn line(&self) -> u32 {
        self.span.line
    }
}

/// Lexical error.
#[derive(Debug, Clone, PartialEq)]
pub struct LexError {
    /// Message.
    pub message: String,
    /// Source line (1-based).
    pub line: u32,
    /// Source column (1-based).
    pub col: u32,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.line, self.col, self.message)
    }
}

impl std::error::Error for LexError {}

/// Tokenize a source string.
pub fn lex(src: &str) -> Result<Vec<Spanned<'_>>, LexError> {
    let mut out = Vec::new();
    let bytes = src.as_bytes();
    let mut i = 0;
    let mut line = 1u32;
    // Byte offset where the current line begins; columns count from it.
    let mut line_start = 0usize;
    macro_rules! span_from {
        ($start:expr) => {
            Span::new(
                $start as u32,
                i as u32,
                line,
                ($start - line_start + 1) as u32,
            )
        };
    }
    macro_rules! push1 {
        ($tok:expr) => {{
            let start = i;
            i += 1;
            out.push(Spanned {
                tok: $tok,
                span: span_from!(start),
            });
        }};
    }
    macro_rules! push2 {
        ($tok:expr) => {{
            let start = i;
            i += 2;
            out.push(Spanned {
                tok: $tok,
                span: span_from!(start),
            });
        }};
    }
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            '\n' => {
                line += 1;
                i += 1;
                line_start = i;
            }
            c if c.is_whitespace() => i += 1,
            '%' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                let word = &src[start..i];
                out.push(Spanned {
                    tok: Kw::of(word).map_or(Tok::Ident(word), Tok::Kw),
                    span: span_from!(start),
                });
            }
            c if c.is_ascii_digit()
                || (c == '.' && i + 1 < bytes.len() && (bytes[i + 1] as char).is_ascii_digit()) =>
            {
                let start = i;
                let mut saw_dot = false;
                while i < bytes.len() {
                    let ch = bytes[i] as char;
                    if ch.is_ascii_digit() {
                        i += 1;
                    } else if ch == '.' && !saw_dot {
                        // A dot is part of the number unless it starts an
                        // index-like construct (digits never precede '[').
                        saw_dot = true;
                        i += 1;
                    } else {
                        break;
                    }
                }
                let text = &src[start..i];
                let col = (start - line_start + 1) as u32;
                if saw_dot {
                    let v: f64 = text
                        .parse()
                        .or_else(|_| format!("{text}0").parse()) // "2." → "2.0"
                        .map_err(|_| LexError {
                            message: format!("bad real literal '{text}'"),
                            line,
                            col,
                        })?;
                    out.push(Spanned {
                        tok: Tok::Real(v),
                        span: span_from!(start),
                    });
                } else {
                    let v: i64 = text.parse().map_err(|_| LexError {
                        message: format!("bad integer literal '{text}'"),
                        line,
                        col,
                    })?;
                    out.push(Spanned {
                        tok: Tok::Int(v),
                        span: span_from!(start),
                    });
                }
            }
            ':' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    push2!(Tok::Assign);
                } else {
                    push1!(Tok::Colon);
                }
            }
            '~' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    push2!(Tok::Ne);
                } else {
                    push1!(Tok::Tilde);
                }
            }
            '<' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    push2!(Tok::Le);
                } else {
                    push1!(Tok::Lt);
                }
            }
            '>' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    push2!(Tok::Ge);
                } else {
                    push1!(Tok::Gt);
                }
            }
            ';' => push1!(Tok::Semi),
            ',' => push1!(Tok::Comma),
            '(' => push1!(Tok::LParen),
            ')' => push1!(Tok::RParen),
            '[' => push1!(Tok::LBracket),
            ']' => push1!(Tok::RBracket),
            '+' => push1!(Tok::Plus),
            '-' => push1!(Tok::Minus),
            '*' => push1!(Tok::Star),
            '/' => push1!(Tok::Slash),
            '=' => push1!(Tok::Eq),
            '|' => push1!(Tok::Bar),
            '&' => push1!(Tok::Amp),
            other => {
                return Err(LexError {
                    message: format!("unexpected character '{other}'"),
                    line,
                    col: (i - line_start + 1) as u32,
                })
            }
        }
    }
    out.push(Spanned {
        tok: Tok::Eof,
        span: Span::new(i as u32, i as u32, line, (i - line_start + 1) as u32),
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok<'_>> {
        lex(src).unwrap().into_iter().map(|s| s.tok).collect()
    }

    #[test]
    fn numbers() {
        assert_eq!(toks("2"), vec![Tok::Int(2), Tok::Eof]);
        assert_eq!(toks("0.25"), vec![Tok::Real(0.25), Tok::Eof]);
        assert_eq!(toks("2."), vec![Tok::Real(2.0), Tok::Eof]);
        assert_eq!(toks(".5"), vec![Tok::Real(0.5), Tok::Eof]);
    }

    #[test]
    fn operators_and_compounds() {
        assert_eq!(
            toks(":= : ~= ~ <= < >= > ="),
            vec![
                Tok::Assign,
                Tok::Colon,
                Tok::Ne,
                Tok::Tilde,
                Tok::Le,
                Tok::Lt,
                Tok::Ge,
                Tok::Gt,
                Tok::Eq,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn comments_skipped() {
        assert_eq!(
            toks("a % comment here\nb"),
            vec![Tok::Ident("a"), Tok::Ident("b"), Tok::Eof]
        );
    }

    #[test]
    fn paper_snippet_lexes() {
        let src = "0.25 * (C[i-1] + 2.*C[i] + C[i+1])";
        let t = toks(src);
        assert!(t.contains(&Tok::Real(0.25)));
        assert!(t.contains(&Tok::Real(2.0)));
        assert!(t.contains(&Tok::Ident("C")));
        assert_eq!(t.iter().filter(|x| **x == Tok::LBracket).count(), 3);
    }

    #[test]
    fn keywords_get_their_own_kinds() {
        assert_eq!(
            toks("forall fora in_ In endall"),
            vec![
                Tok::Kw(Kw::Forall),
                Tok::Ident("fora"),
                Tok::Ident("in_"),
                Tok::Ident("In"),
                Tok::Kw(Kw::Endall),
                Tok::Eof
            ]
        );
        for kw in [Kw::Forall, Kw::In, Kw::Enditer, Kw::Boolean, Kw::Array] {
            assert_eq!(Kw::of(kw.text()), Some(kw));
            assert_eq!(Tok::Kw(kw).to_string(), kw.text());
        }
    }

    #[test]
    fn line_numbers_tracked() {
        let s = lex("a\nb\nc").unwrap();
        assert_eq!(s[0].line(), 1);
        assert_eq!(s[1].line(), 2);
        assert_eq!(s[2].line(), 3);
    }

    #[test]
    fn spans_cover_token_bytes_with_columns() {
        let src = "ab := C[i-1];\n  x2 := 0.25";
        let s = lex(src).unwrap();
        // "ab" at 1:1, bytes [0,2).
        assert_eq!(s[0].span, Span::new(0, 2, 1, 1));
        // ":=" at 1:4, bytes [3,5).
        assert_eq!(s[1].span, Span::new(3, 5, 1, 4));
        // "x2" on line 2, column 3.
        let x2 = s.iter().find(|t| t.tok == Tok::Ident("x2")).unwrap();
        assert_eq!((x2.span.line, x2.span.col), (2, 3));
        assert_eq!(&src[x2.span.start as usize..x2.span.end as usize], "x2");
        // "0.25" span slices back to its text.
        let r = s.iter().find(|t| t.tok == Tok::Real(0.25)).unwrap();
        assert_eq!(&src[r.span.start as usize..r.span.end as usize], "0.25");
    }

    #[test]
    fn bad_char_reported_with_position() {
        let err = lex("a\n  #").unwrap_err();
        assert!(err.message.contains('#'));
        assert_eq!((err.line, err.col), (2, 3));
        assert_eq!(err.to_string(), "2:3: unexpected character '#'");
    }
}
