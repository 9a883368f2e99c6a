//! Lexical analysis for Mesa-lite.
//!
//! Mesa-lite is the small Algol-family module language of this
//! reproduction: enough of Mesa's shape (modules, procedures, globals,
//! coroutine transfer) to generate realistic byte code for the
//! experiments, and nothing more. Comments run from `--` to end of
//! line.

use std::fmt;

use crate::error::{CompileError, Phase};

/// A lexical token with its source line (1-based).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The token kind and payload.
    pub kind: Tok,
    /// 1-based source line, for diagnostics.
    pub line: u32,
}

/// Token kinds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// An identifier.
    Ident(String),
    /// An integer literal.
    Num(i32),
    // Keywords.
    Module,
    Imports,
    Instance,
    End,
    Var,
    Proc,
    Begin,
    If,
    Then,
    Elsif,
    Else,
    While,
    Do,
    Return,
    Out,
    Halt,
    Yield,
    True,
    False,
    Int,
    Bool,
    Ctx,
    Ptr,
    Array,
    Of,
    And,
    Or,
    Not,
    // Punctuation and operators.
    Semi,
    Comma,
    Dot,
    Colon,
    Assign,
    LParen,
    RParen,
    LBracket,
    RBracket,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    Amp,
    /// End of input.
    Eof,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "identifier `{s}`"),
            Tok::Num(n) => write!(f, "number {n}"),
            Tok::Eof => write!(f, "end of input"),
            other => write!(f, "`{}`", keyword_or_symbol(other)),
        }
    }
}

fn keyword_or_symbol(t: &Tok) -> &'static str {
    match t {
        Tok::Module => "module",
        Tok::Imports => "imports",
        Tok::Instance => "instance",
        Tok::End => "end",
        Tok::Var => "var",
        Tok::Proc => "proc",
        Tok::Begin => "begin",
        Tok::If => "if",
        Tok::Then => "then",
        Tok::Elsif => "elsif",
        Tok::Else => "else",
        Tok::While => "while",
        Tok::Do => "do",
        Tok::Return => "return",
        Tok::Out => "out",
        Tok::Halt => "halt",
        Tok::Yield => "yield",
        Tok::True => "true",
        Tok::False => "false",
        Tok::Int => "int",
        Tok::Bool => "bool",
        Tok::Ctx => "ctx",
        Tok::Ptr => "ptr",
        Tok::Array => "array",
        Tok::Of => "of",
        Tok::And => "and",
        Tok::Or => "or",
        Tok::Not => "not",
        Tok::Semi => ";",
        Tok::Comma => ",",
        Tok::Dot => ".",
        Tok::Colon => ":",
        Tok::Assign => ":=",
        Tok::LParen => "(",
        Tok::RParen => ")",
        Tok::LBracket => "[",
        Tok::RBracket => "]",
        Tok::Plus => "+",
        Tok::Minus => "-",
        Tok::Star => "*",
        Tok::Slash => "/",
        Tok::Percent => "%",
        Tok::Eq => "=",
        Tok::Ne => "<>",
        Tok::Lt => "<",
        Tok::Le => "<=",
        Tok::Gt => ">",
        Tok::Ge => ">=",
        Tok::Amp => "&",
        // Audited: not guest-reachable. The only caller is the Display
        // impl above, whose outer match renders Ident/Num/Eof itself and
        // never forwards them here.
        Tok::Ident(_) | Tok::Num(_) | Tok::Eof => unreachable!(),
    }
}

fn keyword(s: &str) -> Option<Tok> {
    Some(match s {
        "module" => Tok::Module,
        "imports" => Tok::Imports,
        "instance" => Tok::Instance,
        "end" => Tok::End,
        "var" => Tok::Var,
        "proc" => Tok::Proc,
        "begin" => Tok::Begin,
        "if" => Tok::If,
        "then" => Tok::Then,
        "elsif" => Tok::Elsif,
        "else" => Tok::Else,
        "while" => Tok::While,
        "do" => Tok::Do,
        "return" => Tok::Return,
        "out" => Tok::Out,
        "halt" => Tok::Halt,
        "yield" => Tok::Yield,
        "true" => Tok::True,
        "false" => Tok::False,
        "int" => Tok::Int,
        "bool" => Tok::Bool,
        "ctx" => Tok::Ctx,
        "ptr" => Tok::Ptr,
        "array" => Tok::Array,
        "of" => Tok::Of,
        "and" => Tok::And,
        "or" => Tok::Or,
        "not" => Tok::Not,
        _ => return None,
    })
}

/// Tokenises a source string.
///
/// # Errors
///
/// [`CompileError`] for unknown characters or malformed numbers.
pub fn lex(src: &str) -> Result<Vec<Token>, CompileError> {
    // About one token per three source bytes, indentation included.
    let mut out = Vec::with_capacity(src.len() / 3);
    let mut line: u32 = 1;
    let bytes = src.as_bytes();
    let mut i = 0;
    let err = |line: u32, msg: String| CompileError::new(Phase::Lex, Some(line), msg);
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            ' ' | '\t' | '\r' => i += 1,
            '-' if i + 1 < bytes.len() && bytes[i + 1] == b'-' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            'a'..='z' | 'A'..='Z' | '_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                let word = &src[start..i];
                let kind = keyword(word).unwrap_or_else(|| Tok::Ident(word.to_string()));
                out.push(Token { kind, line });
            }
            '0'..='9' => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let n: i32 = src[start..i]
                    .parse()
                    .map_err(|_| err(line, format!("number `{}` too large", &src[start..i])))?;
                if n > u16::MAX as i32 {
                    return Err(err(line, format!("literal {n} exceeds the 16-bit word")));
                }
                out.push(Token {
                    kind: Tok::Num(n),
                    line,
                });
            }
            _ => {
                let (kind, adv) = match (c, bytes.get(i + 1).map(|&b| b as char)) {
                    (':', Some('=')) => (Tok::Assign, 2),
                    (':', _) => (Tok::Colon, 1),
                    ('<', Some('=')) => (Tok::Le, 2),
                    ('<', Some('>')) => (Tok::Ne, 2),
                    ('<', _) => (Tok::Lt, 1),
                    ('>', Some('=')) => (Tok::Ge, 2),
                    ('>', _) => (Tok::Gt, 1),
                    (';', _) => (Tok::Semi, 1),
                    (',', _) => (Tok::Comma, 1),
                    ('.', _) => (Tok::Dot, 1),
                    ('(', _) => (Tok::LParen, 1),
                    (')', _) => (Tok::RParen, 1),
                    ('[', _) => (Tok::LBracket, 1),
                    (']', _) => (Tok::RBracket, 1),
                    ('+', _) => (Tok::Plus, 1),
                    ('-', _) => (Tok::Minus, 1),
                    ('*', _) => (Tok::Star, 1),
                    ('/', _) => (Tok::Slash, 1),
                    ('%', _) => (Tok::Percent, 1),
                    ('=', _) => (Tok::Eq, 1),
                    ('&', _) => (Tok::Amp, 1),
                    _ => return Err(err(line, format!("unexpected character `{c}`"))),
                };
                out.push(Token { kind, line });
                i += adv;
            }
        }
    }
    out.push(Token {
        kind: Tok::Eof,
        line,
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_keywords_and_idents() {
        assert_eq!(
            kinds("module Foo;"),
            vec![Tok::Module, Tok::Ident("Foo".into()), Tok::Semi, Tok::Eof]
        );
    }

    #[test]
    fn lexes_operators() {
        assert_eq!(
            kinds("a := b <= c <> d"),
            vec![
                Tok::Ident("a".into()),
                Tok::Assign,
                Tok::Ident("b".into()),
                Tok::Le,
                Tok::Ident("c".into()),
                Tok::Ne,
                Tok::Ident("d".into()),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            kinds("x -- comment := junk\ny"),
            vec![Tok::Ident("x".into()), Tok::Ident("y".into()), Tok::Eof]
        );
    }

    #[test]
    fn minus_minus_needs_no_space_before() {
        assert_eq!(
            kinds("1-2"),
            vec![Tok::Num(1), Tok::Minus, Tok::Num(2), Tok::Eof]
        );
    }

    #[test]
    fn lines_are_tracked() {
        let toks = lex("a\nb\n\nc").unwrap();
        let lines: Vec<u32> = toks.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4, 4]);
    }

    #[test]
    fn oversized_literal_rejected() {
        let e = lex("70000").unwrap_err();
        assert!(e.to_string().contains("16-bit"));
    }

    #[test]
    fn unknown_character_rejected() {
        assert!(lex("@").is_err());
    }
}
