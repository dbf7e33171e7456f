//! Hand-written lexer for the Datalog surface syntax.
//!
//! Token classes:
//! * identifiers starting with a lowercase letter → predicate/constant
//!   symbols (`par`, `alice`);
//! * identifiers starting with an uppercase letter or `_` → variables
//!   (`X`, `_Tmp`);
//! * signed integers (`42`, `-7`);
//! * punctuation `(`, `)`, `,`, `.`, the rule arrow `:-`, and the query
//!   arrow `?-`;
//! * comments: `%` or `//` to end of line.
//!
//! Every token carries its 1-based line/column for error reporting.

use gst_common::{Error, Result};

/// A lexical token with its source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// What the token is.
    pub kind: TokenKind,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column.
    pub column: u32,
}

/// The token classes of the Datalog grammar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// Lowercase-initial identifier: predicate or symbolic constant.
    Ident(String),
    /// Uppercase- or underscore-initial identifier: a variable.
    UpperIdent(String),
    /// An integer literal.
    Int(i64),
    /// A quoted string constant, quotes stripped, escapes resolved.
    Str(String),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `:-`
    ColonDash,
    /// `?-` — starts a query goal.
    QuestionDash,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `=`
    EqSign,
    /// `!=`
    Ne,
    /// End of input.
    Eof,
}

impl TokenKind {
    /// Short rendering used in error messages.
    pub fn describe(&self) -> String {
        match self {
            TokenKind::Ident(s) => format!("identifier `{s}`"),
            TokenKind::UpperIdent(s) => format!("variable `{s}`"),
            TokenKind::Int(n) => format!("integer `{n}`"),
            TokenKind::Str(s) => format!("string {s:?}"),
            TokenKind::LParen => "`(`".into(),
            TokenKind::RParen => "`)`".into(),
            TokenKind::Comma => "`,`".into(),
            TokenKind::Dot => "`.`".into(),
            TokenKind::ColonDash => "`:-`".into(),
            TokenKind::QuestionDash => "`?-`".into(),
            TokenKind::Lt => "`<`".into(),
            TokenKind::Le => "`<=`".into(),
            TokenKind::Gt => "`>`".into(),
            TokenKind::Ge => "`>=`".into(),
            TokenKind::EqSign => "`=`".into(),
            TokenKind::Ne => "`!=`".into(),
            TokenKind::Eof => "end of input".into(),
        }
    }
}

/// Tokenize `source` completely. The result always ends with
/// [`TokenKind::Eof`].
pub fn tokenize(source: &str) -> Result<Vec<Token>> {
    Lexer::new(source).run()
}

struct Lexer<'a> {
    chars: std::iter::Peekable<std::str::Chars<'a>>,
    line: u32,
    column: u32,
}

impl<'a> Lexer<'a> {
    fn new(source: &'a str) -> Self {
        Lexer {
            chars: source.chars().peekable(),
            line: 1,
            column: 1,
        }
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.next()?;
        if c == '\n' {
            self.line += 1;
            self.column = 1;
        } else {
            self.column += 1;
        }
        Some(c)
    }

    fn skip_line(&mut self) {
        while let Some(&c) = self.chars.peek() {
            if c == '\n' {
                break;
            }
            self.bump();
        }
    }

    fn run(mut self) -> Result<Vec<Token>> {
        let mut tokens = Vec::new();
        loop {
            // Skip whitespace and comments.
            match self.chars.peek() {
                Some(c) if c.is_whitespace() => {
                    self.bump();
                    continue;
                }
                Some('%') => {
                    self.skip_line();
                    continue;
                }
                Some('/') => {
                    // Only `//` starts a comment; a lone `/` is an error.
                    let (line, column) = (self.line, self.column);
                    self.bump();
                    if self.chars.peek() == Some(&'/') {
                        self.skip_line();
                        continue;
                    }
                    return Err(Error::parse(line, column, "unexpected character `/`"));
                }
                _ => {}
            }
            let (line, column) = (self.line, self.column);
            let Some(c) = self.bump() else {
                tokens.push(Token {
                    kind: TokenKind::Eof,
                    line,
                    column,
                });
                return Ok(tokens);
            };
            let kind = match c {
                '(' => TokenKind::LParen,
                ')' => TokenKind::RParen,
                ',' => TokenKind::Comma,
                '.' => TokenKind::Dot,
                ':' => {
                    if self.chars.peek() == Some(&'-') {
                        self.bump();
                        TokenKind::ColonDash
                    } else {
                        return Err(Error::parse(line, column, "expected `:-`"));
                    }
                }
                '?' => {
                    if self.chars.peek() == Some(&'-') {
                        self.bump();
                        TokenKind::QuestionDash
                    } else {
                        return Err(Error::parse(line, column, "expected `?-`"));
                    }
                }
                '<' => {
                    if self.chars.peek() == Some(&'=') {
                        self.bump();
                        TokenKind::Le
                    } else {
                        TokenKind::Lt
                    }
                }
                '>' => {
                    if self.chars.peek() == Some(&'=') {
                        self.bump();
                        TokenKind::Ge
                    } else {
                        TokenKind::Gt
                    }
                }
                '=' => TokenKind::EqSign,
                '!' => {
                    if self.chars.peek() == Some(&'=') {
                        self.bump();
                        TokenKind::Ne
                    } else {
                        return Err(Error::parse(line, column, "expected `!=`"));
                    }
                }
                '-' => {
                    // A negative integer literal.
                    match self.chars.peek() {
                        Some(d) if d.is_ascii_digit() => self.lex_int(line, column, true)?,
                        _ => {
                            return Err(Error::parse(
                                line,
                                column,
                                "`-` must start an integer literal",
                            ))
                        }
                    }
                }
                d if d.is_ascii_digit() => {
                    let mut text = String::new();
                    text.push(d);
                    self.lex_int_digits(text, line, column, false)?
                }
                '"' => {
                    let mut text = String::new();
                    loop {
                        match self.bump() {
                            None => {
                                return Err(Error::parse(line, column, "unterminated string"))
                            }
                            Some('"') => break,
                            Some('\\') => match self.bump() {
                                Some('n') => text.push('\n'),
                                Some('t') => text.push('\t'),
                                Some(c @ ('"' | '\\')) => text.push(c),
                                Some(c) => {
                                    return Err(Error::parse(
                                        line,
                                        column,
                                        format!("unknown escape `\\{c}` in string"),
                                    ))
                                }
                                None => {
                                    return Err(Error::parse(line, column, "unterminated string"))
                                }
                            },
                            Some(c) => text.push(c),
                        }
                    }
                    TokenKind::Str(text)
                }
                a if a.is_alphabetic() || a == '_' => {
                    let mut text = String::new();
                    text.push(a);
                    while let Some(&n) = self.chars.peek() {
                        if n.is_alphanumeric() || n == '_' {
                            text.push(n);
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    if a.is_uppercase() || a == '_' {
                        TokenKind::UpperIdent(text)
                    } else {
                        TokenKind::Ident(text)
                    }
                }
                other => {
                    return Err(Error::parse(
                        line,
                        column,
                        format!("unexpected character `{other}`"),
                    ))
                }
            };
            tokens.push(Token { kind, line, column });
        }
    }

    fn lex_int(&mut self, line: u32, column: u32, negative: bool) -> Result<TokenKind> {
        self.lex_int_digits(String::new(), line, column, negative)
    }

    fn lex_int_digits(
        &mut self,
        mut text: String,
        line: u32,
        column: u32,
        negative: bool,
    ) -> Result<TokenKind> {
        while let Some(&n) = self.chars.peek() {
            if n.is_ascii_digit() {
                text.push(n);
                self.bump();
            } else {
                break;
            }
        }
        // Parse the sign with the magnitude: `i64::MIN` has no positive
        // counterpart.
        if negative {
            text.insert(0, '-');
        }
        let value: i64 = text
            .parse()
            .map_err(|_| Error::parse(line, column, format!("integer `{text}` out of range")))?;
        Ok(TokenKind::Int(value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        tokenize(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_a_rule() {
        assert_eq!(
            kinds("anc(X,Y) :- par(X,Y)."),
            vec![
                TokenKind::Ident("anc".into()),
                TokenKind::LParen,
                TokenKind::UpperIdent("X".into()),
                TokenKind::Comma,
                TokenKind::UpperIdent("Y".into()),
                TokenKind::RParen,
                TokenKind::ColonDash,
                TokenKind::Ident("par".into()),
                TokenKind::LParen,
                TokenKind::UpperIdent("X".into()),
                TokenKind::Comma,
                TokenKind::UpperIdent("Y".into()),
                TokenKind::RParen,
                TokenKind::Dot,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lexes_integers() {
        assert_eq!(
            kinds("p(1, -2, 30)."),
            vec![
                TokenKind::Ident("p".into()),
                TokenKind::LParen,
                TokenKind::Int(1),
                TokenKind::Comma,
                TokenKind::Int(-2),
                TokenKind::Comma,
                TokenKind::Int(30),
                TokenKind::RParen,
                TokenKind::Dot,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn skips_comments_and_whitespace() {
        let src = "% a comment\n  p(X). // trailing\n% done";
        let k = kinds(src);
        assert_eq!(k.len(), 6); // p ( X ) . EOF
        assert_eq!(k[0], TokenKind::Ident("p".into()));
    }

    #[test]
    fn lexes_strings_with_escapes() {
        assert_eq!(
            kinds(r#"p("hello world", "a\"b", "tab\there")."#),
            vec![
                TokenKind::Ident("p".into()),
                TokenKind::LParen,
                TokenKind::Str("hello world".into()),
                TokenKind::Comma,
                TokenKind::Str("a\"b".into()),
                TokenKind::Comma,
                TokenKind::Str("tab\there".into()),
                TokenKind::RParen,
                TokenKind::Dot,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn unterminated_string_is_rejected() {
        assert!(tokenize("p(\"abc").is_err());
        assert!(tokenize("p(\"abc\\").is_err());
        assert!(tokenize(r#"p("bad \q escape")"#).is_err());
    }

    #[test]
    fn lexes_comparison_operators() {
        assert_eq!(
            kinds("X < Y <= 3 > Z >= 0 = W != V"),
            vec![
                TokenKind::UpperIdent("X".into()),
                TokenKind::Lt,
                TokenKind::UpperIdent("Y".into()),
                TokenKind::Le,
                TokenKind::Int(3),
                TokenKind::Gt,
                TokenKind::UpperIdent("Z".into()),
                TokenKind::Ge,
                TokenKind::Int(0),
                TokenKind::EqSign,
                TokenKind::UpperIdent("W".into()),
                TokenKind::Ne,
                TokenKind::UpperIdent("V".into()),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lone_bang_is_rejected() {
        assert!(tokenize("p(X) :- q(X), X ! Y.").is_err());
    }

    #[test]
    fn underscore_starts_a_variable() {
        assert_eq!(kinds("_x")[0], TokenKind::UpperIdent("_x".into()));
    }

    #[test]
    fn positions_are_tracked() {
        let toks = tokenize("p(X).\nq(Y).").unwrap();
        let q = toks.iter().find(|t| t.kind == TokenKind::Ident("q".into())).unwrap();
        assert_eq!((q.line, q.column), (2, 1));
    }

    #[test]
    fn error_on_stray_colon() {
        let err = tokenize("p :").unwrap_err();
        assert!(err.to_string().contains("expected `:-`"));
    }

    #[test]
    fn error_on_unknown_character() {
        assert!(tokenize("p(X) ? q(X)").is_err());
    }

    #[test]
    fn lexes_query_arrow() {
        assert_eq!(
            kinds("?- anc(ann, Y)."),
            vec![
                TokenKind::QuestionDash,
                TokenKind::Ident("anc".into()),
                TokenKind::LParen,
                TokenKind::Ident("ann".into()),
                TokenKind::Comma,
                TokenKind::UpperIdent("Y".into()),
                TokenKind::RParen,
                TokenKind::Dot,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn error_on_lone_slash() {
        assert!(tokenize("p / q").is_err());
    }

    #[test]
    fn error_on_lone_minus() {
        assert!(tokenize("p(-)").is_err());
    }

    #[test]
    fn huge_integer_is_rejected() {
        assert!(tokenize("p(99999999999999999999999)").is_err());
    }

    #[test]
    fn integer_range_ends_are_accepted() {
        assert_eq!(kinds("-9223372036854775808")[0], TokenKind::Int(i64::MIN));
        assert_eq!(kinds("9223372036854775807")[0], TokenKind::Int(i64::MAX));
        let err = tokenize("p(-9223372036854775809)").unwrap_err().to_string();
        assert!(err.contains("`-9223372036854775809` out of range"), "{err}");
        assert!(tokenize("p(9223372036854775808)").is_err());
    }
}
