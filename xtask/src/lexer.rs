//! A small, dependency-free Rust lexer.
//!
//! The analyzer's rules must never fire on text inside a string literal or a
//! comment ("`HashMap` is banned" in a doc comment is not a violation), so a
//! regex over raw source is not good enough. This lexer understands exactly
//! as much Rust surface syntax as the rules need:
//!
//! * line comments (`//`, doc comments `///` and `//!` included) and nested
//!   block comments (`/* /* */ */`, `/** */`, `/*! */`),
//! * string, byte-string, C-string and raw (`r#"..."#`) string literals,
//! * character literals vs. lifetimes (`'a'` vs `'a`),
//! * raw identifiers (`r#match`),
//! * identifiers, numbers and single-character punctuation.
//!
//! Every token carries the 1-based line it starts on so diagnostics can say
//! `file:line`. Comments are kept in the stream; the parser and the rules
//! skip them with [`Token::is_comment`].

/// The kind of a lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`HashMap`, `unsafe`, `pub`, `r#match`, ...).
    Ident(String),
    /// A single punctuation character (`:`, `#`, `[`, `{`, ...).
    Punct(char),
    /// A `//` comment, doc comments included (text excludes the leading
    /// `//`).
    LineComment(String),
    /// A `/* ... */` comment, doc comments included (text excludes the
    /// outer `/*` and `*/`).
    BlockComment(String),
    /// A string / byte-string / raw-string literal. The contents are
    /// retained (escapes resolved to the escaped character, raw-string
    /// bodies verbatim) so cross-file rules can reason about counter names
    /// and format strings; rules that only care about code ignore them.
    StrLit(String),
    /// A character or byte literal (`'a'`, `b'\n'`).
    CharLit,
    /// A lifetime (`'a`, `'static`) — distinguished from char literals.
    Lifetime(String),
    /// A numeric literal.
    Number,
}

/// One token plus source position.
#[derive(Debug, Clone)]
pub struct Token {
    /// What was lexed.
    pub kind: TokenKind,
    /// 1-based line the token starts on.
    pub line: u32,
}

impl Token {
    /// The identifier text, if this token is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokenKind::Ident(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Whether this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct(c)
    }

    /// Whether this token is a comment (line or block, doc comments
    /// included).
    pub fn is_comment(&self) -> bool {
        matches!(self.kind, TokenKind::LineComment(_) | TokenKind::BlockComment(_))
    }

    /// The literal contents, if this token is a string literal.
    pub fn str_text(&self) -> Option<&str> {
        match &self.kind {
            TokenKind::StrLit(s) => Some(s.as_str()),
            _ => None,
        }
    }
}

/// Lexes `source` into a token stream. Never fails: unrecognized bytes are
/// skipped (the analyzer only cares about the constructs it knows).
pub fn lex(source: &str) -> Vec<Token> {
    Lexer { chars: source.chars().collect(), pos: 0, line: 1 }.run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied();
        if let Some(c) = c {
            self.pos += 1;
            if c == '\n' {
                self.line += 1;
            }
        }
        c
    }

    fn run(mut self) -> Vec<Token> {
        let mut out = Vec::new();
        while let Some(c) = self.peek(0) {
            let line = self.line;
            let kind = match c {
                c if c.is_whitespace() => {
                    self.bump();
                    continue;
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                '"' => TokenKind::StrLit(self.string_lit()),
                '\'' => self.char_or_lifetime(),
                'r' if self.raw_string_ahead(0) => TokenKind::StrLit(self.raw_string()),
                'b' | 'c' if self.peek(1) == Some('"') => {
                    self.bump(); // prefix
                    TokenKind::StrLit(self.string_lit())
                }
                'b' if self.peek(1) == Some('\'') => {
                    self.bump(); // prefix
                    self.bump(); // opening quote
                    self.char_body();
                    TokenKind::CharLit
                }
                'b' | 'c' if self.peek(1) == Some('r') && self.raw_string_ahead(1) => {
                    self.bump(); // prefix
                    TokenKind::StrLit(self.raw_string())
                }
                'r' if self.peek(1) == Some('#') && ident_start(self.peek(2)) => {
                    // Raw identifier r#match.
                    self.bump();
                    self.bump();
                    TokenKind::Ident(self.ident_body())
                }
                c if ident_start(Some(c)) => TokenKind::Ident(self.ident_body()),
                c if c.is_ascii_digit() => {
                    self.number_body();
                    TokenKind::Number
                }
                c => {
                    self.bump();
                    TokenKind::Punct(c)
                }
            };
            out.push(Token { kind, line });
        }
        out
    }

    /// `r"`, `r#"`, `r##"` ... at `self.pos + offset` (pointing at the `r`)?
    fn raw_string_ahead(&self, offset: usize) -> bool {
        let mut i = offset + 1;
        while self.peek(i) == Some('#') {
            i += 1;
        }
        i > offset && self.peek(i) == Some('"')
    }

    /// Consumes a raw string starting at the `r` (possibly after a consumed
    /// `b`/`c` prefix), returning the body verbatim. A `"` followed by fewer
    /// `#` than the opener is part of the body, not a terminator.
    fn raw_string(&mut self) -> String {
        self.bump(); // 'r'
        let mut hashes = 0usize;
        while self.peek(0) == Some('#') {
            hashes += 1;
            self.bump();
        }
        self.bump(); // opening quote
        let mut text = String::new();
        loop {
            match self.bump() {
                None => return text, // unterminated; tolerate
                Some('"') => {
                    let mut seen = 0usize;
                    while seen < hashes && self.peek(0) == Some('#') {
                        seen += 1;
                        self.bump();
                    }
                    if seen == hashes {
                        return text;
                    }
                    // Partial terminator: the quote and the hashes we just
                    // consumed belong to the body.
                    text.push('"');
                    for _ in 0..seen {
                        text.push('#');
                    }
                }
                Some(c) => text.push(c),
            }
        }
    }

    /// Consumes a `"..."` literal including escapes; `pos` is at the opening
    /// quote. Escape sequences contribute the escaped character (`\"` → `"`,
    /// `\\` → `\`); other escapes keep the char after the backslash, which
    /// is enough for the rules, none of which inspect control characters.
    fn string_lit(&mut self) -> String {
        self.bump(); // opening quote
        let mut text = String::new();
        loop {
            match self.bump() {
                None | Some('"') => return text,
                Some('\\') => {
                    if let Some(c) = self.bump() {
                        text.push(c); // including \" and \\
                    }
                }
                Some(c) => text.push(c),
            }
        }
    }

    /// Consumes a char-literal body after the opening quote (escape-aware),
    /// through the closing quote.
    fn char_body(&mut self) {
        loop {
            match self.bump() {
                None | Some('\'') => return,
                Some('\\') => {
                    self.bump();
                }
                Some(_) => {}
            }
        }
    }

    /// Disambiguates `'a'` (char literal) from `'a` (lifetime).
    fn char_or_lifetime(&mut self) -> TokenKind {
        // A lifetime is `'` + ident-start + ident-continue* not followed by a
        // closing `'`. Everything else (`'x'`, `'\n'`, `'\u{1F600}'`) is a
        // char literal.
        if ident_start(self.peek(1)) {
            // Find where the identifier run ends.
            let mut i = 2;
            while ident_continue(self.peek(i)) {
                i += 1;
            }
            if self.peek(i) != Some('\'') {
                self.bump(); // the quote
                let name = self.ident_body();
                return TokenKind::Lifetime(name);
            }
        }
        self.bump(); // the quote
        self.char_body();
        TokenKind::CharLit
    }

    fn ident_body(&mut self) -> String {
        let mut s = String::new();
        while ident_continue(self.peek(0)) {
            s.push(self.bump().unwrap());
        }
        s
    }

    fn number_body(&mut self) {
        // Numbers never matter to the rules; consume a permissive token run
        // (covers 0xFF_u64, 1.5e-3, 1_000).
        while let Some(c) = self.peek(0) {
            if c.is_ascii_alphanumeric() || c == '_' || c == '.' {
                // Don't swallow a range `0..x` or a method call `1.max(2)`.
                if c == '.'
                    && (self.peek(1) == Some('.') || ident_start(self.peek(1)) || self.peek(1).is_none())
                {
                    break;
                }
                self.bump();
            } else if (c == '+' || c == '-')
                && matches!(self.chars.get(self.pos.wrapping_sub(1)), Some('e') | Some('E'))
            {
                self.bump(); // exponent sign in 1.5e-3
            } else {
                break;
            }
        }
    }

    fn line_comment(&mut self) -> TokenKind {
        self.bump();
        self.bump(); // the two slashes
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(self.bump().unwrap());
        }
        TokenKind::LineComment(text)
    }

    fn block_comment(&mut self) -> TokenKind {
        self.bump();
        self.bump(); // "/*"
        let mut text = String::new();
        let mut depth = 1usize;
        while depth > 0 {
            match self.bump() {
                None => break, // unterminated; tolerate
                Some('/') if self.peek(0) == Some('*') => {
                    self.bump();
                    depth += 1;
                    text.push_str("/*");
                }
                Some('*') if self.peek(0) == Some('/') => {
                    self.bump();
                    depth -= 1;
                    if depth > 0 {
                        text.push_str("*/");
                    }
                }
                Some(c) => text.push(c),
            }
        }
        TokenKind::BlockComment(text)
    }
}

fn ident_start(c: Option<char>) -> bool {
    matches!(c, Some(c) if c.is_alphabetic() || c == '_')
}

fn ident_continue(c: Option<char>) -> bool {
    matches!(c, Some(c) if c.is_alphanumeric() || c == '_')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src).into_iter().filter_map(|t| t.ident().map(str::to_owned)).collect()
    }

    #[test]
    fn identifiers_and_lines() {
        let toks = lex("use std::collections::HashMap;\nlet x = 1;");
        let hm = toks.iter().find(|t| t.ident() == Some("HashMap")).unwrap();
        assert_eq!(hm.line, 1);
        let x = toks.iter().find(|t| t.ident() == Some("x")).unwrap();
        assert_eq!(x.line, 2);
        // A string spanning two lines starts on the first and still counts
        // both newlines.
        let toks = lex("let s = \"line one\nline two\";\nfn f() {}");
        assert_eq!(toks.iter().find(|t| t.str_text().is_some()).unwrap().line, 1);
        assert_eq!(toks.iter().find(|t| t.ident() == Some("fn")).unwrap().line, 3);
    }

    #[test]
    fn strings_hide_their_contents() {
        assert_eq!(idents(r#"let s = "HashMap inside a string";"#), vec!["let", "s"]);
        assert_eq!(idents(r##"let s = r#"raw HashMap "quoted" inside"#;"##), vec!["let", "s"]);
        assert_eq!(idents(r#"let s = "escaped \" HashMap";"#), vec!["let", "s"]);
        assert_eq!(idents(r#"let s = b"HashMap bytes";"#), vec!["let", "s"]);
    }

    #[test]
    fn comments_hide_identifiers_but_keep_text() {
        let toks = lex("// HashMap in a comment\nfn f() {}");
        assert!(toks.iter().all(|t| t.ident() != Some("HashMap")));
        assert!(matches!(&toks[0].kind, TokenKind::LineComment(t) if t.contains("HashMap")));
        let toks = lex("/* outer /* nested HashMap */ still comment */ fn g() {}");
        assert_eq!(
            toks.iter().filter_map(|t| t.ident()).collect::<Vec<_>>(),
            vec!["fn", "g"],
            "nested block comments must be fully consumed"
        );
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        let toks = lex("let c: char = 'a'; fn f<'a>(x: &'a str) {} let n = '\\n';");
        let lifetimes: Vec<_> = toks
            .iter()
            .filter_map(|t| match &t.kind {
                TokenKind::Lifetime(n) => Some(n.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(lifetimes, vec!["a", "a"]);
        assert_eq!(toks.iter().filter(|t| t.kind == TokenKind::CharLit).count(), 2);
    }

    #[test]
    fn raw_identifiers() {
        assert_eq!(idents("let r#match = 1;"), vec!["let", "match"]);
    }

    #[test]
    fn numbers_do_not_eat_ranges_or_methods() {
        let toks = lex("for i in 0..10 { let x = 1.max(2); }");
        assert!(toks.iter().any(|t| t.ident() == Some("max")));
        assert_eq!(toks.iter().filter(|t| t.is_punct('.')).count(), 3); // `..` + method dot
    }

    fn strings(src: &str) -> Vec<String> {
        lex(src).into_iter().filter_map(|t| t.str_text().map(str::to_owned)).collect()
    }

    #[test]
    fn string_contents_are_retained() {
        assert_eq!(strings(r#"m.set(&format!("{prefix}.doorbells"), v);"#), vec!["{prefix}.doorbells"]);
        assert_eq!(strings(r#"let s = "escaped \" quote";"#), vec![r#"escaped " quote"#]);
        assert_eq!(strings(r#"let s = "back\\slash";"#), vec![r"back\slash"]);
    }

    #[test]
    fn raw_strings_with_multiple_hashes() {
        // A `"#` inside an `r##"..."##` body is content, not a terminator,
        // and nothing after it may leak out as code tokens.
        assert_eq!(strings(r###"let s = r##"quote "# inside"##;"###), vec![r##"quote "# inside"##]);
        assert_eq!(idents(r###"let s = r##"HashMap "# fake"##;"###), vec!["let", "s"]);
        // Zero-hash raw strings terminate at the first quote.
        assert_eq!(strings(r#"let s = r"plain \ raw";"#), vec![r"plain \ raw"]);
    }

    #[test]
    fn byte_and_raw_byte_strings() {
        assert_eq!(strings(r#"let b = b"bytes";"#), vec!["bytes"]);
        assert_eq!(strings(r##"let b = br#"raw "quoted" bytes"#;"##), vec![r#"raw "quoted" bytes"#]);
        // `br`/`cr` prefixes only fire on actual raw strings: `break` and a
        // plain `cr` identifier lex as identifiers.
        assert_eq!(idents("break; let cr = 1;"), vec!["break", "let", "cr"]);
        // A byte char with a quote inside does not open a string.
        assert_eq!(idents(r#"let q = b'"'; fn after() {}"#), vec!["let", "q", "fn", "after"]);
    }

    #[test]
    fn deeply_nested_block_comments() {
        let toks = lex("/* 1 /* 2 /* 3 HashMap */ 2 */ 1 */ fn f() {}");
        assert_eq!(toks.iter().filter_map(|t| t.ident()).collect::<Vec<_>>(), vec!["fn", "f"]);
        // Unterminated nesting is tolerated and swallows the rest.
        let toks = lex("/* open /* still open */ fn g() {}");
        assert!(toks.iter().all(|t| t.ident().is_none()));
    }
}
