//! An item-level parse layer over the token stream (DESIGN.md §13).
//!
//! The lexer ([`crate::lexer`]) sees tokens; the rules that de-risk the
//! parallel-DES refactor (R7–R9) need *structure*: which struct owns which
//! fields, which `fn` lives inside which `impl`, which counters a
//! `publish_metrics` body names, and what is reachable from a simulated
//! machine through the type graph. This module builds exactly as much of
//! that structure as the rules consume, and no more:
//!
//! * a flattened item list per file (structs/enums/unions/traits/fns/
//!   impls/consts/statics/type aliases/`use` declarations/macro
//!   invocations), each with its doc status, visibility, `#[cfg(test)]`
//!   classification inherited through the module tree, and its token span;
//! * struct fields with the identifiers appearing in their types (the
//!   conservative type graph's edges);
//! * a token mask (`test_mask`) derived from the item tree, so the
//!   token-level rules R1/R2/R5 share one notion of "test code" with the
//!   structural rules;
//! * a workspace-level [`TypeGraph`] with breadth-first reachability that
//!   reports the access path (`Machine -> MemorySystem -> Dram`).
//!
//! The parser is conservative by construction: an unrecognized construct
//! advances one token and is simply not an item, never an error. A missed
//! item can only make the analyzer *lenient*, and the negative fixtures
//! under `xtask/tests/fixtures/` pin the constructs the rules rely on.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::lexer::{lex, Token, TokenKind};

/// Visibility of an item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Vis {
    /// `pub` — part of the crate's public surface.
    Pub,
    /// `pub(crate)` / `pub(super)` / `pub(in ...)`.
    Restricted,
    /// No visibility qualifier.
    Private,
}

/// The kind of a parsed item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    /// `struct`.
    Struct,
    /// `enum`.
    Enum,
    /// `union`.
    Union,
    /// `trait`.
    Trait,
    /// `fn` (free or inside an `impl`).
    Fn,
    /// `impl` block (inherent or trait).
    Impl,
    /// `mod` (inline or out-of-line).
    Mod,
    /// `const` item.
    Const,
    /// `static` item.
    Static,
    /// `type` alias.
    TypeAlias,
    /// `use` declaration.
    Use,
    /// An item-position macro invocation (`thread_local! { ... }`).
    MacroCall,
}

impl ItemKind {
    /// The keyword the item declares itself with (for diagnostics).
    pub fn keyword(self) -> &'static str {
        match self {
            ItemKind::Struct => "struct",
            ItemKind::Enum => "enum",
            ItemKind::Union => "union",
            ItemKind::Trait => "trait",
            ItemKind::Fn => "fn",
            ItemKind::Impl => "impl",
            ItemKind::Mod => "mod",
            ItemKind::Const => "const",
            ItemKind::Static => "static",
            ItemKind::TypeAlias => "type",
            ItemKind::Use => "use",
            ItemKind::MacroCall => "macro",
        }
    }
}

/// One struct/union field (or a synthetic `variants` field carrying every
/// identifier mentioned inside an enum body).
#[derive(Debug, Clone)]
pub struct Field {
    /// Field name (`variants` for the synthetic enum field).
    pub name: String,
    /// Identifiers appearing in the field's type, in order.
    pub ty_idents: Vec<String>,
    /// The type rendered back to text (for diagnostics).
    pub ty_text: String,
    /// 1-based line of the field name.
    pub line: u32,
}

/// One parsed item.
#[derive(Debug, Clone)]
pub struct Item {
    /// What kind of item this is.
    pub kind: ItemKind,
    /// The item's name (`impl` blocks: the self type; `use`: empty).
    pub name: String,
    /// For items nested in an `impl` block: the block's self type.
    pub impl_of: Option<String>,
    /// For `impl Trait for Type` blocks: the trait name.
    pub trait_of: Option<String>,
    /// 1-based line of the declaring keyword.
    pub line: u32,
    /// Visibility qualifier.
    pub vis: Vis,
    /// Whether a `///` doc comment or `#[doc]` attribute precedes the item.
    pub docd: bool,
    /// Whether the item sits under `#[cfg(test)]` (its own attribute or an
    /// enclosing module's).
    pub in_test: bool,
    /// `static mut` (R7's most direct target).
    pub mutable: bool,
    /// Token span `[start, end]` (inclusive) covering attributes through
    /// the closing brace or semicolon.
    pub span: (usize, usize),
    /// Token span of the item's body (between its braces), if braced.
    pub body: Option<(usize, usize)>,
    /// Struct/union fields, or the synthetic enum `variants` field.
    pub fields: Vec<Field>,
}

/// One fully parsed source file.
#[derive(Debug)]
pub struct ParsedFile {
    /// Path relative to the workspace root, `/`-separated.
    pub rel: String,
    /// The crate directory name under `crates/`.
    pub crate_name: String,
    /// Whether the file is a `src/bin/` driver target.
    pub is_bin: bool,
    /// The token stream.
    pub tokens: Vec<Token>,
    /// Per-token: inside a `#[cfg(test)]` item (inherited through mods).
    pub test_mask: Vec<bool>,
    /// Flattened items (nested items appear after their parents).
    pub items: Vec<Item>,
}

impl ParsedFile {
    /// Parses `source` into tokens, the test mask and items.
    pub fn parse(rel: &str, crate_name: &str, source: &str) -> ParsedFile {
        let tokens = lex(source);
        let mut p =
            Parser { tokens: &tokens, pos: 0, items: Vec::new(), test_mask: vec![false; tokens.len()] };
        p.parse_items(false, None, None);
        let (items, test_mask) = (p.items, p.test_mask);
        ParsedFile {
            rel: rel.to_string(),
            crate_name: crate_name.to_string(),
            is_bin: rel.contains("/src/bin/"),
            tokens,
            test_mask,
            items,
        }
    }

    /// The items defining a type (struct/enum/union) with `name`.
    pub fn type_items(&self) -> impl Iterator<Item = &Item> {
        self.items.iter().filter(|i| matches!(i.kind, ItemKind::Struct | ItemKind::Enum | ItemKind::Union))
    }
}

struct Parser<'a> {
    tokens: &'a [Token],
    pos: usize,
    items: Vec<Item>,
    test_mask: Vec<bool>,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&'a Token> {
        self.tokens.get(self.pos)
    }

    fn bump(&mut self) -> Option<&'a Token> {
        let t = self.tokens.get(self.pos);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn at_punct(&self, c: char) -> bool {
        self.peek().is_some_and(|t| t.is_punct(c))
    }

    fn at_ident(&self, s: &str) -> bool {
        self.peek().is_some_and(|t| t.ident() == Some(s))
    }

    /// Skips comment tokens (doc comments too — callers that care about
    /// docs handle them before calling this).
    fn skip_comments(&mut self) {
        while self.peek().is_some_and(Token::is_comment) {
            self.pos += 1;
        }
    }

    /// Consumes a balanced `open`..`close` region starting at the current
    /// `open` token; tolerates EOF.
    fn skip_balanced(&mut self, open: char, close: char) {
        debug_assert!(self.at_punct(open));
        let mut depth = 0i32;
        while let Some(t) = self.bump() {
            if t.is_punct(open) {
                depth += 1;
            } else if t.is_punct(close) {
                depth -= 1;
                if depth <= 0 {
                    return;
                }
            }
        }
    }

    /// Consumes tokens until a `;` at zero brace/paren/bracket depth
    /// (inclusive); tolerates EOF. Used for `const`/`static`/`type` bodies,
    /// whose initializer expressions may contain braced literals.
    fn skip_to_semi(&mut self) {
        let mut brace = 0i32;
        let mut paren = 0i32;
        let mut bracket = 0i32;
        while let Some(t) = self.bump() {
            match t.kind {
                TokenKind::Punct('{') => brace += 1,
                TokenKind::Punct('}') => brace -= 1,
                TokenKind::Punct('(') => paren += 1,
                TokenKind::Punct(')') => paren -= 1,
                TokenKind::Punct('[') => bracket += 1,
                TokenKind::Punct(']') => bracket -= 1,
                TokenKind::Punct(';') if brace <= 0 && paren <= 0 && bracket <= 0 => return,
                _ => {}
            }
        }
    }

    /// Parses items until the matching `}` of an enclosing block (`until_close`
    /// true) or EOF. `in_test` is inherited `#[cfg(test)]` state; `impl_of`
    /// the enclosing impl block's self type.
    fn parse_items(&mut self, in_test: bool, impl_of: Option<&str>, until_close: Option<()>) {
        loop {
            self.skip_comments_preserving_nothing();
            if self.peek().is_none() {
                return;
            }
            if until_close.is_some() && self.at_punct('}') {
                return;
            }
            self.parse_item(in_test, impl_of);
        }
    }

    fn skip_comments_preserving_nothing(&mut self) {
        // Plain (non-doc) comments between items are insignificant here;
        // doc comments are consumed by `parse_item`'s preamble.
        while self
            .peek()
            .is_some_and(|t| matches!(t.kind, TokenKind::LineComment(_) | TokenKind::BlockComment(_)))
        {
            self.pos += 1;
        }
    }

    /// Parses one item (or advances one token if none is recognized).
    fn parse_item(&mut self, in_test: bool, impl_of: Option<&str>) {
        let start = self.pos;
        let mut docd = false;
        let mut cfg_test = false;

        // Preamble: doc comments and attributes, in any order.
        loop {
            match self.peek().map(|t| &t.kind) {
                Some(TokenKind::DocComment { inner: false, .. }) => {
                    docd = true;
                    self.pos += 1;
                }
                Some(TokenKind::DocComment { .. })
                | Some(TokenKind::LineComment(_))
                | Some(TokenKind::BlockComment(_)) => {
                    self.pos += 1;
                }
                Some(TokenKind::Punct('#')) => {
                    let (saw_cfg_test, saw_doc) = self.consume_attribute();
                    cfg_test |= saw_cfg_test;
                    docd |= saw_doc;
                }
                _ => break,
            }
        }

        // Visibility.
        let mut vis = Vis::Private;
        if self.at_ident("pub") {
            self.pos += 1;
            self.skip_comments();
            if self.at_punct('(') {
                vis = Vis::Restricted;
                self.skip_balanced('(', ')');
            } else {
                vis = Vis::Pub;
            }
        }
        self.skip_comments();

        // Qualifiers before `fn` (const/unsafe/async/extern "C").
        // `const`/`static` may themselves head an item; look ahead.
        let line = self.peek().map_or(0, |t| t.line);
        let in_test = in_test || cfg_test;
        let push = |p: &mut Parser<'a>, mut item: Item| {
            item.span = (start, p.pos.saturating_sub(1).max(start));
            item.vis = vis;
            item.docd = docd;
            item.in_test = in_test;
            if in_test {
                for m in &mut p.test_mask[item.span.0..=item.span.1] {
                    *m = true;
                }
            }
            p.items.push(item);
        };

        match self.peek().and_then(Token::ident) {
            Some("mod") => {
                self.pos += 1;
                self.skip_comments();
                let name = self.take_ident().unwrap_or_default();
                self.skip_comments();
                if self.at_punct('{') {
                    self.pos += 1; // '{'
                    let body_start = self.pos;
                    self.parse_items(in_test, None, Some(()));
                    let body_end = self.pos.saturating_sub(1);
                    if self.at_punct('}') {
                        self.pos += 1;
                    }
                    push(self, Item::new(ItemKind::Mod, name, line).with_body(body_start, body_end));
                } else {
                    if self.at_punct(';') {
                        self.pos += 1;
                    }
                    push(self, Item::new(ItemKind::Mod, name, line));
                }
            }
            Some("struct") | Some("union") => {
                let kind = if self.at_ident("struct") { ItemKind::Struct } else { ItemKind::Union };
                self.pos += 1;
                self.skip_comments();
                let name = self.take_ident().unwrap_or_default();
                self.skip_generics_and_where();
                if self.at_punct('{') {
                    self.pos += 1;
                    let body_start = self.pos;
                    let fields = self.parse_fields();
                    let body_end = self.pos.saturating_sub(1);
                    if self.at_punct('}') {
                        self.pos += 1;
                    }
                    let mut item = Item::new(kind, name, line).with_body(body_start, body_end);
                    item.fields = fields;
                    push(self, item);
                } else if self.at_punct('(') {
                    // Tuple struct: one synthetic field carrying the idents.
                    let body_start = self.pos;
                    self.skip_balanced('(', ')');
                    let ty_idents = ident_texts(&self.tokens[body_start..self.pos]);
                    self.skip_to_semi();
                    let mut item = Item::new(kind, name, line);
                    item.fields = vec![Field {
                        name: "0".to_string(),
                        ty_text: render(&self.tokens[body_start..self.pos]),
                        ty_idents,
                        line,
                    }];
                    push(self, item);
                } else {
                    if self.at_punct(';') {
                        self.pos += 1;
                    }
                    push(self, Item::new(kind, name, line));
                }
            }
            Some("enum") => {
                self.pos += 1;
                self.skip_comments();
                let name = self.take_ident().unwrap_or_default();
                self.skip_generics_and_where();
                let mut item = Item::new(ItemKind::Enum, name, line);
                if self.at_punct('{') {
                    let body_start = self.pos + 1;
                    self.skip_balanced('{', '}');
                    let body_end = self.pos.saturating_sub(1);
                    // Every ident inside the body is a conservative type
                    // edge (variant payloads).
                    item.fields = vec![Field {
                        name: "variants".to_string(),
                        ty_idents: ident_texts(&self.tokens[body_start..body_end]),
                        ty_text: String::new(),
                        line,
                    }];
                    item.body = Some((body_start, body_end));
                }
                push(self, item);
            }
            Some("trait") => {
                self.pos += 1;
                self.skip_comments();
                let name = self.take_ident().unwrap_or_default();
                // Opaque body: default methods are still covered by the
                // token-level rules; nothing structural is needed inside.
                self.advance_to_body_or_semi();
                let mut item = Item::new(ItemKind::Trait, name, line);
                if self.at_punct('{') {
                    let body_start = self.pos + 1;
                    self.skip_balanced('{', '}');
                    item.body = Some((body_start, self.pos.saturating_sub(1)));
                }
                push(self, item);
            }
            Some("impl") => {
                self.pos += 1;
                self.skip_generics_only();
                // Collect the path up to `for` / `where` / `{`: the self
                // type is the last ident outside angle brackets; with a
                // `for`, the part before it is the trait.
                let (first, second) = self.impl_heads();
                let (trait_of, name) = match second {
                    Some(ty) => (Some(first), ty),
                    None => (None, first),
                };
                let mut item = Item::new(ItemKind::Impl, name.clone(), line);
                item.trait_of = trait_of;
                self.advance_to_body_or_semi(); // skip a `where` clause

                if self.at_punct('{') {
                    self.pos += 1;
                    let body_start = self.pos;
                    self.parse_items(in_test, Some(&name), Some(()));
                    let body_end = self.pos.saturating_sub(1);
                    if self.at_punct('}') {
                        self.pos += 1;
                    }
                    item.body = Some((body_start, body_end));
                } else if self.at_punct(';') {
                    self.pos += 1;
                }
                push(self, item);
            }
            Some("fn") => {
                self.pos += 1;
                self.skip_comments();
                let name = self.take_ident().unwrap_or_default();
                self.advance_to_body_or_semi();
                let mut item = Item::new(ItemKind::Fn, name, line);
                item.impl_of = impl_of.map(str::to_owned);
                if self.at_punct('{') {
                    let body_start = self.pos + 1;
                    self.skip_balanced('{', '}');
                    item.body = Some((body_start, self.pos.saturating_sub(1)));
                } else if self.at_punct(';') {
                    self.pos += 1;
                }
                push(self, item);
            }
            Some(q @ ("const" | "static" | "unsafe" | "async" | "extern" | "default")) => {
                // Either a qualifier chain ending in `fn`, or a
                // `const`/`static` item, or an `extern` block/crate.
                let q = q.to_string();
                self.pos += 1;
                self.skip_comments();
                match q.as_str() {
                    "const" | "static"
                        if !self.at_ident("fn")
                            && !self.at_ident("unsafe")
                            && !self.at_ident("async")
                            && !self.at_ident("extern") =>
                    {
                        let mutable = self.at_ident("mut");
                        if mutable {
                            self.pos += 1;
                            self.skip_comments();
                        }
                        let name = self.take_ident().unwrap_or_default();
                        self.skip_to_semi();
                        let kind = if q == "const" { ItemKind::Const } else { ItemKind::Static };
                        let mut item = Item::new(kind, name, line);
                        item.mutable = mutable;
                        item.impl_of = impl_of.map(str::to_owned);
                        push(self, item);
                    }
                    "extern" if self.at_ident("crate") => {
                        self.skip_to_semi();
                        // `extern crate` declarations carry no structure.
                    }
                    "extern"
                        if self.peek().is_some_and(|t| t.str_text().is_some())
                            && self.tokens.get(self.pos + 1).is_some_and(|t| t.is_punct('{')) =>
                    {
                        // `extern "C" { ... }` foreign block: opaque.
                        self.pos += 1;
                        self.skip_balanced('{', '}');
                    }
                    _ => {
                        // Qualifier chain: re-enter item parsing with the
                        // preamble state we already collected. `fn`/`const`
                        // etc. will be the next keyword; the simplest
                        // faithful handling is to fall through by doing
                        // nothing — the next parse_item call sees the
                        // remaining `fn name ...` without the preamble, so
                        // instead handle the common `... fn` case directly.
                        while self.at_ident("unsafe")
                            || self.at_ident("async")
                            || self.at_ident("extern")
                            || self.at_ident("const")
                            || self.at_ident("default")
                            || self.peek().is_some_and(|t| t.str_text().is_some())
                        {
                            self.pos += 1;
                            self.skip_comments();
                        }
                        if self.at_ident("fn") {
                            self.pos += 1;
                            self.skip_comments();
                            let name = self.take_ident().unwrap_or_default();
                            self.advance_to_body_or_semi();
                            let mut item = Item::new(ItemKind::Fn, name, line);
                            item.impl_of = impl_of.map(str::to_owned);
                            if self.at_punct('{') {
                                let body_start = self.pos + 1;
                                self.skip_balanced('{', '}');
                                item.body = Some((body_start, self.pos.saturating_sub(1)));
                            } else if self.at_punct(';') {
                                self.pos += 1;
                            }
                            push(self, item);
                        } else if self.at_punct('{') {
                            // `unsafe { ... }` at item position (unusual):
                            // skip the block.
                            self.skip_balanced('{', '}');
                        }
                    }
                }
            }
            Some("type") => {
                self.pos += 1;
                self.skip_comments();
                let name = self.take_ident().unwrap_or_default();
                self.skip_to_semi();
                let mut item = Item::new(ItemKind::TypeAlias, name, line);
                item.impl_of = impl_of.map(str::to_owned);
                push(self, item);
            }
            Some("use") => {
                self.pos += 1;
                self.skip_to_semi();
                push(self, Item::new(ItemKind::Use, String::new(), line));
            }
            Some("macro_rules") => {
                self.pos += 1; // macro_rules
                if self.at_punct('!') {
                    self.pos += 1;
                }
                self.skip_comments();
                let name = self.take_ident().unwrap_or_default();
                self.skip_comments();
                self.skip_macro_body();
                push(self, Item::new(ItemKind::MacroCall, name, line));
            }
            Some(name) if self.tokens.get(self.pos + 1).is_some_and(|t| t.is_punct('!')) => {
                // Item-position macro invocation: `thread_local! { ... }`.
                let name = name.to_string();
                self.pos += 2; // ident, '!'
                self.skip_comments();
                self.skip_macro_body();
                push(self, Item::new(ItemKind::MacroCall, name, line));
            }
            _ => {
                // Not an item head we know. If we consumed a preamble,
                // record nothing; always make progress.
                if self.pos == start {
                    self.pos += 1;
                }
            }
        }
    }

    /// Consumes a `#[...]` or `#![...]` attribute starting at `#`. Returns
    /// `(cfg(test) present, doc attribute)`.
    fn consume_attribute(&mut self) -> (bool, bool) {
        self.pos += 1; // '#'
        self.skip_comments();
        if self.at_punct('!') {
            self.pos += 1;
            self.skip_comments();
        }
        if !self.at_punct('[') {
            return (false, false);
        }
        let mut depth = 0i32;
        let mut saw_cfg = false;
        let mut saw_test = false;
        let mut saw_doc = false;
        let mut first_ident = true;
        while let Some(t) = self.bump() {
            match &t.kind {
                TokenKind::Punct('[') => depth += 1,
                TokenKind::Punct(']') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                TokenKind::Ident(s) => {
                    if first_ident {
                        saw_doc |= s == "doc";
                        first_ident = false;
                    }
                    saw_cfg |= s == "cfg";
                    saw_test |= s == "test";
                }
                _ => {}
            }
        }
        (saw_cfg && saw_test, saw_doc)
    }

    fn take_ident(&mut self) -> Option<String> {
        self.skip_comments();
        let name = self.peek()?.ident()?.to_string();
        self.pos += 1;
        Some(name)
    }

    /// Skips a leading `<...>` generic parameter list, if present.
    fn skip_generics_only(&mut self) {
        self.skip_comments();
        if !self.at_punct('<') {
            return;
        }
        let mut depth = 0i32;
        while let Some(t) = self.bump() {
            match t.kind {
                TokenKind::Punct('<') => depth += 1,
                TokenKind::Punct('>') => {
                    depth -= 1;
                    if depth <= 0 {
                        return;
                    }
                }
                // A generic list never contains these at depth > 0; bail
                // out rather than swallow the file on a misparse.
                TokenKind::Punct('{') | TokenKind::Punct(';') => {
                    self.pos -= 1;
                    return;
                }
                _ => {}
            }
        }
    }

    /// Skips generics and a `where` clause, stopping at `{`, `(`, or `;`.
    fn skip_generics_and_where(&mut self) {
        self.skip_generics_only();
        self.skip_comments();
        // Tuple structs: the paren list is the body, handled by the caller.
        if self.at_punct('(') || self.at_punct('{') || self.at_punct(';') {
            return;
        }
        // `where` clause (or anything unexpected): scan to the body.
        while let Some(t) = self.peek() {
            if t.is_punct('{') || t.is_punct(';') || t.is_punct('(') {
                return;
            }
            self.pos += 1;
        }
    }

    /// Advances over a fn signature (or trait header) to its `{` body or
    /// terminating `;`, tracking paren/bracket depth so type-level braces
    /// in argument position don't end the signature early.
    fn advance_to_body_or_semi(&mut self) {
        let mut paren = 0i32;
        let mut bracket = 0i32;
        while let Some(t) = self.peek() {
            match t.kind {
                TokenKind::Punct('(') => paren += 1,
                TokenKind::Punct(')') => paren -= 1,
                TokenKind::Punct('[') => bracket += 1,
                TokenKind::Punct(']') => bracket -= 1,
                TokenKind::Punct('{') if paren <= 0 && bracket <= 0 => return,
                TokenKind::Punct(';') if paren <= 0 && bracket <= 0 => return,
                _ => {}
            }
            self.pos += 1;
        }
    }

    /// Parses named fields until the struct's closing `}` (exclusive).
    fn parse_fields(&mut self) -> Vec<Field> {
        let mut fields = Vec::new();
        loop {
            // Skip comments, docs and attributes before a field.
            loop {
                match self.peek().map(|t| &t.kind) {
                    Some(
                        TokenKind::LineComment(_) | TokenKind::BlockComment(_) | TokenKind::DocComment { .. },
                    ) => {
                        self.pos += 1;
                    }
                    Some(TokenKind::Punct('#')) => {
                        self.consume_attribute();
                    }
                    _ => break,
                }
            }
            if self.peek().is_none() || self.at_punct('}') {
                return fields;
            }
            if self.at_ident("pub") {
                self.pos += 1;
                self.skip_comments();
                if self.at_punct('(') {
                    self.skip_balanced('(', ')');
                    self.skip_comments();
                }
            }
            let Some(name) = self.take_ident() else {
                // Not a field start; make progress.
                self.pos += 1;
                continue;
            };
            let line = self.tokens.get(self.pos.saturating_sub(1)).map_or(0, |t| t.line);
            self.skip_comments();
            if !self.at_punct(':') {
                continue;
            }
            self.pos += 1; // ':'
            let ty_start = self.pos;
            // The type runs to a `,` or the closing `}` at zero depth.
            let mut angle = 0i32;
            let mut paren = 0i32;
            let mut bracket = 0i32;
            let mut brace = 0i32;
            while let Some(t) = self.peek() {
                match t.kind {
                    TokenKind::Punct('<') => angle += 1,
                    TokenKind::Punct('>') => angle = (angle - 1).max(0),
                    TokenKind::Punct('(') => paren += 1,
                    TokenKind::Punct(')') => paren -= 1,
                    TokenKind::Punct('[') => bracket += 1,
                    TokenKind::Punct(']') => bracket -= 1,
                    TokenKind::Punct('{') => brace += 1,
                    TokenKind::Punct('}') => {
                        if brace == 0 {
                            break;
                        }
                        brace -= 1;
                    }
                    TokenKind::Punct(',') if angle <= 0 && paren <= 0 && bracket <= 0 && brace <= 0 => {
                        break;
                    }
                    _ => {}
                }
                self.pos += 1;
            }
            let ty_tokens = &self.tokens[ty_start..self.pos];
            fields.push(Field { name, ty_idents: ident_texts(ty_tokens), ty_text: render(ty_tokens), line });
            if self.at_punct(',') {
                self.pos += 1;
            }
        }
    }

    /// After `impl <generics>`: collects the trait path (if any) and the
    /// self type. Returns `(first, None)` for `impl Type` and
    /// `(trait, Some(type))` for `impl Trait for Type`.
    fn impl_heads(&mut self) -> (String, Option<String>) {
        let first = self.impl_path_head();
        self.skip_comments();
        if self.at_ident("for") {
            self.pos += 1;
            let second = self.impl_path_head();
            (first, Some(second))
        } else {
            (first, None)
        }
    }

    /// The last path ident outside angle brackets before `for`/`where`/`{`.
    fn impl_path_head(&mut self) -> String {
        let mut angle = 0i32;
        let mut last = String::new();
        while let Some(t) = self.peek() {
            match &t.kind {
                TokenKind::Punct('<') => angle += 1,
                TokenKind::Punct('>') => angle = (angle - 1).max(0),
                TokenKind::Punct('{') | TokenKind::Punct(';') if angle <= 0 => break,
                TokenKind::Ident(s) if angle == 0 => {
                    if s == "for" || s == "where" {
                        break;
                    }
                    last = s.clone();
                }
                _ => {}
            }
            self.pos += 1;
        }
        last
    }

    /// Skips a macro invocation body: `{...}`, `(...);` or `[...];`.
    fn skip_macro_body(&mut self) {
        match self.peek().map(|t| &t.kind) {
            Some(TokenKind::Punct('{')) => self.skip_balanced('{', '}'),
            Some(TokenKind::Punct('(')) => {
                self.skip_balanced('(', ')');
                if self.at_punct(';') {
                    self.pos += 1;
                }
            }
            Some(TokenKind::Punct('[')) => {
                self.skip_balanced('[', ']');
                if self.at_punct(';') {
                    self.pos += 1;
                }
            }
            _ => {}
        }
    }
}

impl Item {
    fn new(kind: ItemKind, name: String, line: u32) -> Item {
        Item {
            kind,
            name,
            impl_of: None,
            trait_of: None,
            line,
            vis: Vis::Private,
            docd: false,
            in_test: false,
            mutable: false,
            span: (0, 0),
            body: None,
            fields: Vec::new(),
        }
    }

    fn with_body(mut self, start: usize, end: usize) -> Item {
        self.body = Some((start, end));
        self
    }
}

/// The identifier texts in a token slice, in order.
pub fn ident_texts(tokens: &[Token]) -> Vec<String> {
    tokens.iter().filter_map(|t| t.ident().map(str::to_owned)).collect()
}

/// Renders a token slice back to compact text (diagnostics only).
pub fn render(tokens: &[Token]) -> String {
    let mut out = String::new();
    for t in tokens {
        match &t.kind {
            TokenKind::Ident(s) => {
                if out.ends_with(|c: char| c.is_alphanumeric() || c == '_') {
                    out.push(' ');
                }
                out.push_str(s);
            }
            TokenKind::Punct(c) => out.push(*c),
            TokenKind::Number => {
                if out.ends_with(|c: char| c.is_alphanumeric() || c == '_') {
                    out.push(' ');
                }
                out.push('#');
            }
            _ => {}
        }
    }
    out
}

/// The workspace-level conservative type graph: `struct A { f: B }` puts an
/// edge `A → B` labelled with the field. Enum variant payloads contribute
/// edges through the synthetic `variants` field.
#[derive(Debug, Default)]
pub struct TypeGraph {
    /// Edges `from → [(to, field name)]`, deterministic order.
    pub edges: BTreeMap<String, Vec<(String, String)>>,
    /// `type name → (file, field list)` for every defining item.
    pub defs: BTreeMap<String, Vec<TypeDef>>,
}

/// One type definition site retained by the graph.
#[derive(Debug, Clone)]
pub struct TypeDef {
    /// File (workspace-relative) defining the type.
    pub rel: String,
    /// Crate directory name.
    pub crate_name: String,
    /// Declaration line.
    pub line: u32,
    /// The fields (synthetic for enums/tuple structs).
    pub fields: Vec<Field>,
}

impl TypeGraph {
    /// Builds the graph from every non-test type item in `files`.
    pub fn build<'a>(files: impl IntoIterator<Item = &'a ParsedFile>) -> TypeGraph {
        let mut g = TypeGraph::default();
        for f in files {
            for item in f.type_items() {
                if item.in_test {
                    continue;
                }
                g.defs.entry(item.name.clone()).or_default().push(TypeDef {
                    rel: f.rel.clone(),
                    crate_name: f.crate_name.clone(),
                    line: item.line,
                    fields: item.fields.clone(),
                });
            }
        }
        let defined: BTreeSet<&String> = g.defs.keys().collect();
        let mut edges: BTreeMap<String, Vec<(String, String)>> = BTreeMap::new();
        for (name, defs) in &g.defs {
            let mut outs = Vec::new();
            for def in defs {
                for field in &def.fields {
                    for ty in &field.ty_idents {
                        if ty != name && defined.contains(ty) {
                            let edge = (ty.clone(), field.name.clone());
                            if !outs.contains(&edge) {
                                outs.push(edge);
                            }
                        }
                    }
                }
            }
            edges.insert(name.clone(), outs);
        }
        g.edges = edges;
        g
    }

    /// Breadth-first reachability from `roots`; returns for every reachable
    /// type the field-path from a root, e.g. `Machine -> mem -> dram`.
    pub fn reachable(&self, roots: &[String]) -> BTreeMap<String, String> {
        let mut paths: BTreeMap<String, String> = BTreeMap::new();
        let mut queue: VecDeque<String> = VecDeque::new();
        for r in roots {
            if self.defs.contains_key(r) && !paths.contains_key(r) {
                paths.insert(r.clone(), r.clone());
                queue.push_back(r.clone());
            }
        }
        while let Some(from) = queue.pop_front() {
            let base = paths[&from].clone();
            for (to, field) in self.edges.get(&from).into_iter().flatten() {
                if !paths.contains_key(to) {
                    paths.insert(to.clone(), format!("{base} .{field} -> {to}"));
                    queue.push_back(to.clone());
                }
            }
        }
        paths
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> ParsedFile {
        ParsedFile::parse("crates/kvs/src/lib.rs", "kvs", src)
    }

    #[test]
    fn items_and_docs() {
        let f = parse("/// Doc.\npub struct S { pub x: u64 }\nfn helper() {}\npub(crate) fn inner() {}");
        let s = &f.items[0];
        assert_eq!((s.kind, s.name.as_str(), s.vis, s.docd), (ItemKind::Struct, "S", Vis::Pub, true));
        assert_eq!(s.fields.len(), 1);
        assert_eq!(s.fields[0].name, "x");
        let h = f.items.iter().find(|i| i.name == "helper").unwrap();
        assert_eq!((h.kind, h.vis, h.docd), (ItemKind::Fn, Vis::Private, false));
        let i = f.items.iter().find(|i| i.name == "inner").unwrap();
        assert_eq!(i.vis, Vis::Restricted);
    }

    #[test]
    fn cfg_test_inherits_through_modules() {
        let f = parse("#[cfg(test)]\nmod tests {\n  use std::collections::HashMap;\n  fn t() { let x = 1; }\n}\nfn live() {}");
        let t = f.items.iter().find(|i| i.name == "t").unwrap();
        assert!(t.in_test);
        let live = f.items.iter().find(|i| i.name == "live").unwrap();
        assert!(!live.in_test);
        // Every token of the test module is masked; `live` is not.
        let hm = f.tokens.iter().position(|t| t.ident() == Some("HashMap")).unwrap();
        assert!(f.test_mask[hm]);
        let lv = f.tokens.iter().position(|t| t.ident() == Some("live")).unwrap();
        assert!(!f.test_mask[lv]);
    }

    #[test]
    fn impl_blocks_give_context_to_fns() {
        let f = parse("impl SimRng {\n  pub fn seed(s: u64) -> Self { todo!() }\n}\nimpl Clone for World { fn clone(&self) -> Self { todo!() } }");
        let seed = f.items.iter().find(|i| i.name == "seed").unwrap();
        assert_eq!(seed.impl_of.as_deref(), Some("SimRng"));
        let imp = f.items.iter().find(|i| i.kind == ItemKind::Impl && i.name == "World").unwrap();
        assert_eq!(imp.trait_of.as_deref(), Some("Clone"));
        let clone = f.items.iter().find(|i| i.name == "clone").unwrap();
        assert_eq!(clone.impl_of.as_deref(), Some("World"));
    }

    #[test]
    fn generic_impls_and_structs() {
        let f = parse("impl<T: Ord> Wheel<T> {\n  fn push(&mut self, t: T) {}\n}\npub struct Wheel<T> { slots: Vec<Vec<T>>, count: usize }");
        let imp = f.items.iter().find(|i| i.kind == ItemKind::Impl).unwrap();
        assert_eq!(imp.name, "Wheel");
        let w = f.items.iter().find(|i| i.kind == ItemKind::Struct).unwrap();
        assert_eq!(w.fields.iter().map(|f| f.name.as_str()).collect::<Vec<_>>(), vec!["slots", "count"]);
        assert!(w.fields[0].ty_idents.contains(&"Vec".to_string()));
    }

    #[test]
    fn static_mut_and_macro_calls() {
        let f = parse(
            "pub static mut TICKS: u64 = 0;\nthread_local! { static S: u64 = 0; }\nstatic OK: u64 = 1;",
        );
        let t = f.items.iter().find(|i| i.name == "TICKS").unwrap();
        assert!(t.mutable && t.kind == ItemKind::Static);
        let m = f.items.iter().find(|i| i.kind == ItemKind::MacroCall).unwrap();
        assert_eq!(m.name, "thread_local");
        let ok = f.items.iter().find(|i| i.name == "OK").unwrap();
        assert!(!ok.mutable);
    }

    #[test]
    fn use_declarations_parse_as_items() {
        let f = parse("use rambda_des::{SimRng, SimTime as T};\nuse a::b::*;\npub fn after() {}");
        let uses: Vec<u32> = f.items.iter().filter(|i| i.kind == ItemKind::Use).map(|i| i.line).collect();
        assert_eq!(uses, vec![1, 2]);
        // A use tree's braces do not swallow the item after it.
        assert!(f.items.iter().any(|i| i.name == "after" && i.kind == ItemKind::Fn && i.line == 3));
    }

    #[test]
    fn const_fn_is_a_fn_and_const_item_is_const() {
        let f =
            parse("pub const X: u8 = 0;\npub const fn f() -> u8 { 0 }\npub unsafe extern \"C\" fn g() {}");
        assert_eq!(f.items.iter().find(|i| i.name == "X").unwrap().kind, ItemKind::Const);
        assert_eq!(f.items.iter().find(|i| i.name == "f").unwrap().kind, ItemKind::Fn);
        assert_eq!(f.items.iter().find(|i| i.name == "g").unwrap().kind, ItemKind::Fn);
    }

    #[test]
    fn braced_const_initializers_do_not_derail() {
        let f = parse("pub const P: Point = Point { x: 1, y: 2 };\npub fn after() {}");
        assert!(f.items.iter().any(|i| i.name == "after" && i.kind == ItemKind::Fn));
    }

    #[test]
    fn type_graph_reachability_reports_paths() {
        let a = parse(
            "pub struct Machine { pub mem: MemorySystem }\npub struct MemorySystem { pub dram: Dram }\npub struct Dram { pub cell: u64 }\npub struct Island { pub lonely: u64 }",
        );
        let g = TypeGraph::build(&[a]);
        let reach = g.reachable(&["Machine".to_string()]);
        assert!(reach.contains_key("Dram"), "{reach:?}");
        assert_eq!(reach["Dram"], "Machine .mem -> MemorySystem .dram -> Dram");
        assert!(!reach.contains_key("Island"));
    }

    #[test]
    fn enum_variant_payloads_are_edges() {
        let f = parse("pub enum Ev { Fire(Payload), Idle }\npub struct Payload { pub x: u64 }");
        let g = TypeGraph::build(&[f]);
        let reach = g.reachable(&["Ev".to_string()]);
        assert!(reach.contains_key("Payload"));
    }

    #[test]
    fn fn_bodies_are_spanned() {
        let f = parse("fn outer() { inner(); }\nfn inner() {}");
        let outer = f.items.iter().find(|i| i.name == "outer").unwrap();
        let (b0, b1) = outer.body.unwrap();
        let body_idents = ident_texts(&f.tokens[b0..=b1]);
        assert_eq!(body_idents, vec!["inner"]);
    }
}
