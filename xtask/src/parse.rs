//! An item-level parse layer over the token stream (DESIGN.md §8).
//!
//! The lexer ([`crate::lexer`]) sees tokens; some rules need a little
//! *structure* on top: which tokens are test code, which `fn` bodies a
//! `publish_metrics` or `validate_*` function spans (R9), which tokens sit
//! inside `impl SimRng` (R8), and which items are `static mut` or
//! `thread_local!` (R2). This module builds exactly that, and no more:
//!
//! * a flattened item list per file (structs/enums/unions/traits/fns/
//!   impls/consts/statics/type aliases/`use` declarations/macro
//!   invocations), each with its `#[cfg(test)]` classification inherited
//!   through the module tree and its token span;
//! * a token mask (`test_mask`) derived from the item tree, so every rule
//!   shares one notion of "test code".
//!
//! The parser is conservative by construction: an unrecognized construct
//! advances one token and is simply not an item, never an error. A missed
//! item can only make the analyzer *lenient*, and the negative fixtures
//! under `xtask/tests/fixtures/` pin the constructs the rules rely on.

use crate::lexer::{lex, Token, TokenKind};

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
    /// An item-position macro invocation (`thread_local! { ... }`) or a
    /// `macro_rules!` definition.
    MacroCall,
}

/// One parsed item.
#[derive(Debug, Clone)]
pub struct Item {
    /// What kind of item this is.
    pub kind: ItemKind,
    /// The item's name (`impl` blocks: the self type; `use`: empty).
    pub name: String,
    /// 1-based line of the declaring keyword.
    pub line: u32,
    /// Whether the item sits under `#[cfg(test)]` (its own attribute or an
    /// enclosing module's).
    pub in_test: bool,
    /// `static mut` (one of R2's process globals).
    pub mutable: bool,
    /// Token span `[start, end]` (inclusive) covering attributes through
    /// the closing brace or semicolon.
    pub span: (usize, usize),
    /// Token span of the item's body (between its braces), if braced.
    pub body: Option<(usize, usize)>,
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
    /// Flattened items (nested items appear before their parents).
    pub items: Vec<Item>,
}

impl ParsedFile {
    /// Parses `source` into tokens, the test mask and items.
    pub fn parse(rel: &str, crate_name: &str, source: &str) -> ParsedFile {
        let tokens = lex(source);
        let mut p =
            Parser { tokens: &tokens, pos: 0, items: Vec::new(), test_mask: vec![false; tokens.len()] };
        p.parse_items(false, false);
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

    /// The identifier after the current token, skipping comments.
    fn next_ident(&self) -> Option<&'a str> {
        self.tokens.get(self.pos + 1..)?.iter().find(|t| !t.is_comment()).and_then(Token::ident)
    }

    /// Skips comment tokens of every flavor, doc comments included.
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

    /// Parses items until the matching `}` of an enclosing block
    /// (`until_close`) or EOF. `in_test` is inherited `#[cfg(test)]` state.
    fn parse_items(&mut self, in_test: bool, until_close: bool) {
        loop {
            self.skip_comments();
            if self.peek().is_none() || (until_close && self.at_punct('}')) {
                return;
            }
            self.parse_item(in_test);
        }
    }

    /// Parses one item (or advances one token if none is recognized).
    fn parse_item(&mut self, in_test: bool) {
        let start = self.pos;

        // Preamble: comments and attributes, in any order.
        let mut cfg_test = false;
        loop {
            self.skip_comments();
            if !self.at_punct('#') {
                break;
            }
            cfg_test |= self.consume_attribute();
        }
        // Visibility: `pub`, `pub(crate)`, ...
        if self.at_ident("pub") {
            self.pos += 1;
            self.skip_comments();
            if self.at_punct('(') {
                self.skip_balanced('(', ')');
            }
        }
        self.skip_comments();

        let line = self.peek().map_or(0, |t| t.line);
        let in_test = in_test || cfg_test;
        let item = match self.peek().and_then(Token::ident) {
            Some("mod") => {
                self.pos += 1;
                let name = self.take_ident().unwrap_or_default();
                self.skip_comments();
                Some(self.nested_body(Item::new(ItemKind::Mod, name, line), in_test))
            }
            Some(kw @ ("struct" | "union" | "enum" | "trait")) => {
                let kind = match kw {
                    "struct" => ItemKind::Struct,
                    "union" => ItemKind::Union,
                    "enum" => ItemKind::Enum,
                    _ => ItemKind::Trait,
                };
                self.pos += 1;
                let name = self.take_ident().unwrap_or_default();
                // Generics, a tuple struct's fields, supertraits and `where`
                // clauses all run to the braced body or the `;`.
                self.advance_to_body_or_semi();
                Some(self.opaque_body(Item::new(kind, name, line)))
            }
            Some("impl") => {
                self.pos += 1;
                let name = self.impl_self_type();
                self.advance_to_body_or_semi(); // skip a `where` clause
                Some(self.nested_body(Item::new(ItemKind::Impl, name, line), in_test))
            }
            Some("fn") => Some(self.fn_item(line)),
            Some(q @ ("const" | "static"))
                if !matches!(self.next_ident(), Some("fn" | "unsafe" | "async" | "extern")) =>
            {
                let kind = if q == "const" { ItemKind::Const } else { ItemKind::Static };
                self.pos += 1;
                self.skip_comments();
                let mutable = self.at_ident("mut");
                if mutable {
                    self.pos += 1;
                }
                let name = self.take_ident().unwrap_or_default();
                self.skip_to_semi();
                let mut item = Item::new(kind, name, line);
                item.mutable = mutable;
                Some(item)
            }
            Some("extern") if self.next_ident() == Some("crate") => {
                // `extern crate` declarations carry no structure.
                self.skip_to_semi();
                None
            }
            Some("extern")
                if self.tokens.get(self.pos + 1).is_some_and(|t| t.str_text().is_some())
                    && self.tokens.get(self.pos + 2).is_some_and(|t| t.is_punct('{')) =>
            {
                // `extern "C" { ... }` foreign block: opaque.
                self.pos += 2;
                self.skip_balanced('{', '}');
                None
            }
            Some("const" | "static" | "unsafe" | "async" | "extern" | "default") => {
                // A qualifier chain ending in `fn` (`pub const unsafe fn`,
                // `extern "C" fn`), or an `unsafe { ... }` block at item
                // position, which is skipped.
                while self.at_ident("unsafe")
                    || self.at_ident("async")
                    || self.at_ident("extern")
                    || self.at_ident("const")
                    || self.at_ident("static")
                    || self.at_ident("default")
                    || self.peek().is_some_and(|t| t.str_text().is_some())
                {
                    self.pos += 1;
                    self.skip_comments();
                }
                if self.at_ident("fn") {
                    Some(self.fn_item(line))
                } else {
                    if self.at_punct('{') {
                        self.skip_balanced('{', '}');
                    }
                    None
                }
            }
            Some("type") => {
                self.pos += 1;
                let name = self.take_ident().unwrap_or_default();
                self.skip_to_semi();
                Some(Item::new(ItemKind::TypeAlias, name, line))
            }
            Some("use") => {
                self.pos += 1;
                self.skip_to_semi();
                Some(Item::new(ItemKind::Use, String::new(), line))
            }
            Some("macro_rules") => {
                self.pos += 1; // macro_rules
                if self.at_punct('!') {
                    self.pos += 1;
                }
                let name = self.take_ident().unwrap_or_default();
                self.skip_comments();
                self.skip_macro_body();
                Some(Item::new(ItemKind::MacroCall, name, line))
            }
            Some(name) if self.tokens.get(self.pos + 1).is_some_and(|t| t.is_punct('!')) => {
                // Item-position macro invocation: `thread_local! { ... }`.
                let name = name.to_string();
                self.pos += 2; // ident, '!'
                self.skip_comments();
                self.skip_macro_body();
                Some(Item::new(ItemKind::MacroCall, name, line))
            }
            _ => None,
        };

        let Some(mut item) = item else {
            // Not an item head we know: record nothing, but always make
            // progress.
            if self.pos == start {
                self.pos += 1;
            }
            return;
        };
        item.span = (start, self.pos.saturating_sub(1).max(start));
        item.in_test = in_test;
        if in_test {
            for m in &mut self.test_mask[item.span.0..=item.span.1] {
                *m = true;
            }
        }
        self.items.push(item);
    }

    /// Parses `fn name ...` from the `fn` keyword through its body or `;`.
    fn fn_item(&mut self, line: u32) -> Item {
        self.pos += 1; // `fn`
        let name = self.take_ident().unwrap_or_default();
        self.advance_to_body_or_semi();
        self.opaque_body(Item::new(ItemKind::Fn, name, line))
    }

    /// Skips an item's braced body (recording its span) or its `;`.
    fn opaque_body(&mut self, mut item: Item) -> Item {
        if self.at_punct('{') {
            let body_start = self.pos + 1;
            self.skip_balanced('{', '}');
            item.body = Some((body_start, self.pos.saturating_sub(1)));
        } else if self.at_punct(';') {
            self.pos += 1;
        }
        item
    }

    /// Parses the items of a `mod` or `impl` body from its `{` through its
    /// `}` (recording the body's span), or skips its `;`.
    fn nested_body(&mut self, mut item: Item, in_test: bool) -> Item {
        if self.at_punct('{') {
            self.pos += 1;
            let body_start = self.pos;
            self.parse_items(in_test, true);
            item.body = Some((body_start, self.pos.saturating_sub(1)));
            if self.at_punct('}') {
                self.pos += 1;
            }
        } else if self.at_punct(';') {
            self.pos += 1;
        }
        item
    }

    /// Consumes a `#[...]` or `#![...]` attribute starting at `#`. Returns
    /// whether it is a `cfg(test)`.
    fn consume_attribute(&mut self) -> bool {
        self.pos += 1; // '#'
        self.skip_comments();
        if self.at_punct('!') {
            self.pos += 1;
            self.skip_comments();
        }
        if !self.at_punct('[') {
            return false;
        }
        let mut depth = 0i32;
        let mut saw_cfg = false;
        let mut saw_test = false;
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
                    saw_cfg |= s == "cfg";
                    saw_test |= s == "test";
                }
                _ => {}
            }
        }
        saw_cfg && saw_test
    }

    fn take_ident(&mut self) -> Option<String> {
        self.skip_comments();
        let name = self.peek()?.ident()?.to_string();
        self.pos += 1;
        Some(name)
    }

    /// Advances over a fn signature or type header (generics, tuple fields,
    /// bounds, `where` clause) to its `{` body or terminating `;`, tracking
    /// paren/bracket depth so braces in argument position don't end the
    /// header early.
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

    /// After `impl`: the self type, which is the last path ident outside
    /// angle brackets before `{`/`where`, and after the `for` of a trait
    /// impl. The generic parameter list sits inside angle brackets, so it
    /// never names the type.
    fn impl_self_type(&mut self) -> String {
        let first = self.impl_path_head();
        if self.at_ident("for") {
            self.pos += 1;
            return self.impl_path_head();
        }
        first
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
        Item { kind, name, line, in_test: false, mutable: false, span: (0, 0), body: None }
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
        // Doc comments and attributes in the preamble belong to the item
        // after them; visibility qualifiers of every form are consumed.
        let f = parse(
            "/// Doc.\n#[derive(Debug)]\npub struct S { pub x: u64 }\n//! inner\nfn helper() {}\npub(crate) fn inner() {}",
        );
        let s = &f.items[0];
        assert_eq!((s.kind, s.name.as_str(), s.line), (ItemKind::Struct, "S", 3));
        assert!(f.tokens[s.span.0].is_punct('#'), "the span starts at the attribute: {s:?}");
        let h = f.items.iter().find(|i| i.name == "helper").unwrap();
        assert_eq!((h.kind, h.line), (ItemKind::Fn, 5));
        let i = f.items.iter().find(|i| i.name == "inner").unwrap();
        assert_eq!((i.kind, i.line), (ItemKind::Fn, 6));
        assert_eq!(f.items.len(), 3, "a struct's fields are not items: {:?}", f.items);
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
        // An impl is named after its self type, and its body span holds its
        // methods: R8 exempts tokens inside `impl SimRng` by that span.
        let f = parse("impl SimRng {\n  pub fn seed(s: u64) -> Self { todo!() }\n}\nimpl Clone for World { fn clone(&self) -> Self { todo!() } }");
        let imp = f.items.iter().find(|i| i.kind == ItemKind::Impl && i.name == "SimRng").unwrap();
        let seed = f.items.iter().find(|i| i.name == "seed").unwrap();
        let (b0, b1) = imp.body.unwrap();
        assert!(b0 <= seed.span.0 && seed.span.1 <= b1, "{imp:?} {seed:?}");
        let world = f.items.iter().find(|i| i.kind == ItemKind::Impl && i.name == "World").unwrap();
        let clone = f.items.iter().find(|i| i.name == "clone").unwrap();
        let (b0, b1) = world.body.unwrap();
        assert!(b0 <= clone.span.0 && clone.span.1 <= b1, "{world:?} {clone:?}");
    }

    #[test]
    fn generic_impls_and_structs() {
        let f = parse("impl<T: Ord> Wheel<T> {\n  fn push(&mut self, t: T) {}\n}\npub struct Wheel<T> { slots: Vec<Vec<T>>, count: usize }\nstruct Pair<T>(T, T) where T: Copy;\npub fn after() {}");
        let imp = f.items.iter().find(|i| i.kind == ItemKind::Impl).unwrap();
        assert_eq!(imp.name, "Wheel");
        let w = f.items.iter().find(|i| i.kind == ItemKind::Struct).unwrap();
        assert_eq!((w.name.as_str(), w.line), ("Wheel", 4));
        // A tuple struct with a `where` clause ends at its `;`.
        let pair = f.items.iter().find(|i| i.name == "Pair").unwrap();
        assert_eq!((pair.kind, pair.line), (ItemKind::Struct, 5));
        assert!(f.items.iter().any(|i| i.name == "after" && i.kind == ItemKind::Fn && i.line == 6));
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
    fn fn_bodies_are_spanned() {
        let f = parse("fn outer() { inner(); }\nfn inner() {}");
        let outer = f.items.iter().find(|i| i.name == "outer").unwrap();
        let (b0, b1) = outer.body.unwrap();
        let body_idents: Vec<&str> = f.tokens[b0..=b1].iter().filter_map(Token::ident).collect();
        assert_eq!(body_idents, vec!["inner"]);
    }
}
