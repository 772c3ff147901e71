//! A recursive-descent parser for the Rust subset the semantic rules
//! need: items (fns, mods, impls, traits, uses), function signatures,
//! and a linear body scan that records calls (with per-argument ident
//! flow), `let` bindings and closures.
//!
//! It runs over the comment/string-blanked output of [`crate::lexer`],
//! so literals and prose can never produce spurious tokens. It is not a
//! full Rust parser — it is deliberately tolerant (unknown constructs
//! are skipped token-by-token) and only reports *structural* errors
//! (unbalanced delimiters at end of file), which is what the parser
//! smoke test asserts over the whole workspace.

use crate::lexer::{lex, SourceLine};

/// Token classification; `Str`/`CharLit` contents were blanked by the
/// lexer, so only their presence matters (literal detection).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    Ident,
    Number,
    Str,
    CharLit,
    Lifetime,
    Punct,
}

/// One token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Token {
    pub text: String,
    pub line: usize,
    pub kind: TokKind,
}

/// Tokenizes lexed lines. Only `::`, `->`, `=>` and `..` are combined
/// into multi-character puncts; `<`/`>` stay single so angle-bracket
/// depth can be tracked through generics.
pub fn tokenize(lines: &[SourceLine]) -> Vec<Token> {
    let mut out = Vec::new();
    for (ix, line) in lines.iter().enumerate() {
        let lineno = ix + 1;
        let cs: Vec<char> = line.code.chars().collect();
        let n = cs.len();
        let mut i = 0usize;
        while i < n {
            let c = cs[i];
            if c.is_whitespace() {
                i += 1;
                continue;
            }
            if c.is_alphabetic() || c == '_' {
                let start = i;
                while i < n && (cs[i].is_alphanumeric() || cs[i] == '_') {
                    i += 1;
                }
                let text: String = cs[start..i].iter().collect();
                out.push(Token { text, line: lineno, kind: TokKind::Ident });
                continue;
            }
            if c.is_ascii_digit() {
                let start = i;
                while i < n {
                    if cs[i].is_alphanumeric() || cs[i] == '_' {
                        i += 1;
                    } else if cs[i] == '.' && i + 1 < n && cs[i + 1].is_ascii_digit() {
                        i += 2;
                    } else {
                        break;
                    }
                }
                let text: String = cs[start..i].iter().collect();
                out.push(Token { text, line: lineno, kind: TokKind::Number });
                continue;
            }
            if c == '"' {
                // The lexer blanked string contents, keeping the quotes.
                let mut j = i + 1;
                while j < n && cs[j] != '"' {
                    j += 1;
                }
                i = (j + 1).min(n);
                out.push(Token { text: "\"\"".into(), line: lineno, kind: TokKind::Str });
                continue;
            }
            if c == '\'' {
                // The lexer rewrote char literals to `' '`; a tick
                // followed by anything else is a lifetime.
                if i + 2 < n && cs[i + 1] == ' ' && cs[i + 2] == '\'' {
                    out.push(Token { text: "' '".into(), line: lineno, kind: TokKind::CharLit });
                    i += 3;
                    continue;
                }
                let start = i;
                i += 1;
                while i < n && (cs[i].is_alphanumeric() || cs[i] == '_') {
                    i += 1;
                }
                let text: String = cs[start..i].iter().collect();
                out.push(Token { text, line: lineno, kind: TokKind::Lifetime });
                continue;
            }
            let two = if i + 1 < n {
                match (c, cs[i + 1]) {
                    (':', ':') => Some("::"),
                    ('-', '>') => Some("->"),
                    ('=', '>') => Some("=>"),
                    ('.', '.') => Some(".."),
                    _ => None,
                }
            } else {
                None
            };
            if let Some(t) = two {
                out.push(Token { text: t.into(), line: lineno, kind: TokKind::Punct });
                i += 2;
            } else {
                out.push(Token { text: c.to_string(), line: lineno, kind: TokKind::Punct });
                i += 1;
            }
        }
    }
    out
}

/// What a call expression names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Callee {
    /// `a::b::c(...)` — the full path as written (leading `crate`/`self`
    /// /`super` segments included).
    Path(Vec<String>),
    /// `.m(...)` — a method call by name.
    Method(String),
}

impl Callee {
    /// The called function's bare name.
    pub fn name(&self) -> &str {
        match self {
            Callee::Path(p) => p.last().map(String::as_str).unwrap_or(""),
            Callee::Method(m) => m,
        }
    }

    /// The path qualifier segment directly before the name, if any.
    pub fn qualifier(&self) -> Option<&str> {
        match self {
            Callee::Path(p) if p.len() >= 2 => Some(p[p.len() - 2].as_str()),
            _ => None,
        }
    }

    /// First path segment after stripping `crate`/`self`/`super`.
    pub fn first_segment(&self) -> Option<&str> {
        match self {
            Callee::Path(p) => {
                p.iter().map(String::as_str).find(|s| !matches!(*s, "crate" | "self" | "super"))
            }
            Callee::Method(_) => None,
        }
    }
}

/// Ident/literal flow into one call argument (idents are collected at
/// every nesting depth inside the argument, so taint can see through
/// nested expressions).
#[derive(Debug, Clone, Default)]
pub struct ArgInfo {
    pub idents: Vec<String>,
    pub has_literal: bool,
}

/// One recorded call expression.
#[derive(Debug, Clone)]
pub struct Call {
    pub callee: Callee,
    pub args: Vec<ArgInfo>,
    pub line: usize,
}

/// One `let` binding.
#[derive(Debug, Clone, Default)]
pub struct LetBinding {
    /// Idents bound by the pattern (lowercase-initial only — variant and
    /// type names are skipped).
    pub names: Vec<String>,
    /// Idents appearing anywhere in the initializer.
    pub init_idents: Vec<String>,
    /// Indices into the function's `calls` of initializer calls at the
    /// statement's own nesting depth; the last one produces the bound
    /// value (`a.b().c()` → `c`).
    pub init_top_calls: Vec<usize>,
    pub line: usize,
}

/// One closure expression inside a function body. Closures are how code
/// enters rayon parallel regions (`par_iter().map(|x| …)`,
/// `spawn(move || …)`), so the concurrency rules need to know which
/// calls and idents sit inside one and which call received it as an
/// argument.
#[derive(Debug, Clone, Default)]
pub struct Closure {
    /// Idents bound by the parameter list (pattern idents, lowercase).
    pub params: Vec<String>,
    pub line: usize,
    /// Index into the function's `calls` of the innermost call whose
    /// argument list the closure appears in (`None` when the closure is
    /// bound outside any call, e.g. `let f = |x| …`).
    pub arg_of: Option<usize>,
    /// Indices into the function's `calls` of every call opened inside
    /// the closure body (including nested closures' calls).
    pub calls: Vec<usize>,
    /// Every ident occurrence inside the closure body.
    pub idents: Vec<String>,
}

/// One parsed function (top-level, impl/trait method, or nested).
#[derive(Debug, Clone, Default)]
pub struct Function {
    pub name: String,
    /// The surrounding `impl`/`trait` type name, if any.
    pub impl_type: Option<String>,
    pub has_self: bool,
    /// Non-`self` parameters in declaration order.
    pub params: Vec<Param>,
    pub line: usize,
    /// Declared under `#[cfg(test)]` / `#[test]` (directly or via an
    /// enclosing module).
    pub in_test: bool,
    pub has_body: bool,
    pub calls: Vec<Call>,
    pub lets: Vec<LetBinding>,
    pub closures: Vec<Closure>,
}

/// One function parameter: bound pattern idents plus the type text.
#[derive(Debug, Clone, Default)]
pub struct Param {
    pub names: Vec<String>,
    pub ty: String,
}

/// Parse result for one file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    pub functions: Vec<Function>,
    /// Structural errors (unbalanced delimiters at EOF). Empty for every
    /// first-party file — the parser smoke test asserts this.
    pub errors: Vec<String>,
}

/// Parses one source file.
pub fn parse_file(source: &str) -> ParsedFile {
    let lines = lex(source);
    let toks = tokenize(&lines);
    let mut p = Parser { toks, pos: 0, out: ParsedFile::default() };
    let ctx = Ctx { impl_type: None, in_test: false };
    p.items(&ctx, false);
    p.out
}

#[derive(Clone)]
struct Ctx {
    impl_type: Option<String>,
    in_test: bool,
}

struct Parser {
    toks: Vec<Token>,
    pos: usize,
    out: ParsedFile,
}

/// A call whose argument list is still being scanned.
struct OpenCall {
    /// Index into the function's `calls`.
    ix: usize,
    /// Delimiter depth just inside the call's parens.
    inner: i64,
}

/// A `let` statement still being scanned.
struct OpenLet {
    binding: LetBinding,
    /// Delimiter depth at the `let` keyword.
    let_depth: i64,
    /// The initializer started (the `=` was seen).
    init_active: bool,
    /// Inside the pattern's type annotation (after `:`, before `=`).
    in_type: bool,
}

/// A closure whose body is still being scanned.
struct OpenClosure {
    /// Index into the function's `closures`.
    ix: usize,
    /// Delimiter depth at the closure's `|params|` (the body ends at a
    /// `,`/`;` at this depth or when a close delimiter drops below it).
    entry_depth: i64,
}

fn close_closures(closures: &mut Vec<OpenClosure>, depth: i64) {
    while closures.last().is_some_and(|c| c.entry_depth > depth) {
        closures.pop();
    }
}

fn end_closures_at(closures: &mut Vec<OpenClosure>, depth: i64) {
    while closures.last().is_some_and(|c| c.entry_depth >= depth) {
        closures.pop();
    }
}

fn close_calls(f: &mut Function, calls: &mut Vec<OpenCall>, depth: i64) {
    while calls.last().is_some_and(|c| c.inner > depth) {
        if let Some(top) = calls.pop() {
            if let Some(call) = f.calls.get_mut(top.ix) {
                if call.args.len() == 1
                    && call.args[0].idents.is_empty()
                    && !call.args[0].has_literal
                {
                    call.args.clear();
                }
            }
        }
    }
}

fn finish_lets(f: &mut Function, lets: &mut Vec<OpenLet>, depth: i64) {
    while lets.last().is_some_and(|l| l.let_depth >= depth) {
        if let Some(top) = lets.pop() {
            f.lets.push(top.binding);
        }
    }
}

fn feed_ident(
    f: &mut Function,
    calls: &[OpenCall],
    lets: &mut [OpenLet],
    closures: &[OpenClosure],
    name: &str,
) {
    for c in calls {
        if let Some(call) = f.calls.get_mut(c.ix) {
            if let Some(arg) = call.args.last_mut() {
                arg.idents.push(name.to_string());
            }
        }
    }
    for l in lets.iter_mut() {
        if l.init_active {
            l.binding.init_idents.push(name.to_string());
        }
    }
    for oc in closures {
        if let Some(cl) = f.closures.get_mut(oc.ix) {
            cl.idents.push(name.to_string());
        }
    }
}

/// Registers a freshly-opened call index with every open closure.
fn note_call(f: &mut Function, closures: &[OpenClosure], ix: usize) {
    for oc in closures {
        if let Some(cl) = f.closures.get_mut(oc.ix) {
            cl.calls.push(ix);
        }
    }
}

fn feed_literal(f: &mut Function, calls: &[OpenCall]) {
    for c in calls {
        if let Some(call) = f.calls.get_mut(c.ix) {
            if let Some(arg) = call.args.last_mut() {
                arg.has_literal = true;
            }
        }
    }
}

fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "as" | "async"
            | "await"
            | "box"
            | "break"
            | "const"
            | "continue"
            | "crate"
            | "dyn"
            | "else"
            | "enum"
            | "extern"
            | "false"
            | "fn"
            | "for"
            | "if"
            | "impl"
            | "in"
            | "let"
            | "loop"
            | "match"
            | "mod"
            | "move"
            | "mut"
            | "pub"
            | "ref"
            | "return"
            | "static"
            | "struct"
            | "trait"
            | "true"
            | "type"
            | "union"
            | "unsafe"
            | "use"
            | "where"
            | "while"
    )
}

fn is_open(s: &str) -> bool {
    matches!(s, "(" | "[" | "{")
}

fn is_close(s: &str) -> bool {
    matches!(s, ")" | "]" | "}")
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.toks.get(self.pos)
    }

    fn peek_at(&self, off: usize) -> Option<&Token> {
        self.toks.get(self.pos + off)
    }

    fn bump(&mut self) {
        self.pos += 1;
    }

    fn at_punct(&self, s: &str) -> bool {
        self.peek().is_some_and(|t| t.kind == TokKind::Punct && t.text == s)
    }

    fn at_ident(&self, s: &str) -> bool {
        self.peek().is_some_and(|t| t.kind == TokKind::Ident && t.text == s)
    }

    /// Skips a balanced delimiter group starting at the current opening
    /// token. Returns `false` (and records an error) when EOF arrives
    /// before balance is restored.
    fn skip_balanced(&mut self) -> bool {
        let mut depth = 0i64;
        while let Some(t) = self.peek() {
            if t.kind == TokKind::Punct {
                if is_open(&t.text) {
                    depth += 1;
                } else if is_close(&t.text) {
                    depth -= 1;
                }
            }
            self.bump();
            if depth == 0 {
                return true;
            }
        }
        self.out.errors.push("unbalanced delimiters at end of file".into());
        false
    }

    /// Skips an angle-bracketed group (`<...>`) starting at `<`.
    fn skip_angles(&mut self) {
        let mut angle = 0i64;
        while let Some(t) = self.peek() {
            match (t.kind, t.text.as_str()) {
                (TokKind::Punct, "<") => angle += 1,
                (TokKind::Punct, ">") => angle -= 1,
                // A parenthesized group inside generics may contain
                // free-standing `<`/`>` only via nested generics, which
                // the counter already handles.
                _ => {}
            }
            self.bump();
            if angle == 0 {
                return;
            }
        }
    }

    /// Whether the `|` at the cursor begins a closure's parameter list.
    /// Two checks: the previous token must be an expression-*start*
    /// position (after `(`/`,`/`=`/`move`/… — a binary-or or or-pattern
    /// `|` always follows an expression or pattern end), and a matching
    /// `|` must close the parameter list before any token that cannot
    /// appear inside one (`{`, `}`, `;`, `=>`).
    fn closure_starts_here(&self) -> bool {
        let prev_ok = match self.pos.checked_sub(1).and_then(|i| self.toks.get(i)) {
            None => true,
            Some(t) => matches!(
                (t.kind, t.text.as_str()),
                (TokKind::Punct, "(" | "[" | "{" | "," | ";" | "=" | "=>" | ":" | "?" | "&")
                    | (TokKind::Ident, "move" | "return" | "else" | "in")
            ),
        };
        if !prev_ok {
            return false;
        }
        // Zero-parameter closure: `||` arrives as two `|` tokens.
        let mut pd = 0i64;
        let mut k = 1usize;
        while let Some(t) = self.peek_at(k) {
            match (t.kind, t.text.as_str()) {
                (TokKind::Punct, "|") if pd == 0 => return true,
                (TokKind::Punct, "(" | "[" | "<") => pd += 1,
                (TokKind::Punct, ")" | "]" | ">") => {
                    pd -= 1;
                    if pd < 0 {
                        return false;
                    }
                }
                (TokKind::Punct, "{" | "}" | ";" | "=>") => return false,
                _ => {}
            }
            k += 1;
            if k > 64 {
                return false; // parameter lists are short
            }
        }
        false
    }

    /// Consumes a closure's `|params|`, returning the bound pattern
    /// idents. The cursor sits at the opening `|` and is left just past
    /// the closing `|`.
    fn closure_params(&mut self) -> Vec<String> {
        self.bump(); // opening `|`
        let mut params = Vec::new();
        let mut in_type = false;
        let mut pd = 0i64;
        while let Some(t) = self.peek() {
            match (t.kind, t.text.as_str()) {
                (TokKind::Punct, "|") if pd == 0 => {
                    self.bump();
                    return params;
                }
                (TokKind::Punct, "(" | "[" | "<") => {
                    pd += 1;
                    self.bump();
                }
                (TokKind::Punct, ")" | "]" | ">") => {
                    pd -= 1;
                    self.bump();
                }
                (TokKind::Punct, ",") if pd == 0 => {
                    in_type = false;
                    self.bump();
                }
                (TokKind::Punct, ":") => {
                    in_type = true;
                    self.bump();
                }
                (TokKind::Ident, s)
                    if !in_type
                        && !is_keyword(s)
                        && s != "_"
                        && s.chars().next().is_some_and(|c| c.is_lowercase() || c == '_') =>
                {
                    params.push(s.to_string());
                    self.bump();
                }
                _ => self.bump(),
            }
        }
        params
    }

    /// Consumes one attribute (`#[...]` or `#![...]`) and reports
    /// whether it marks a test context (`#[test]`, `#[cfg(test)]`,
    /// `#[tokio::test]` — but not `#[cfg(not(test))]`).
    fn attribute(&mut self) -> bool {
        self.bump(); // `#`
        if self.at_punct("!") {
            self.bump();
        }
        if !self.at_punct("[") {
            return false;
        }
        let start = self.pos;
        self.skip_balanced();
        let body = &self.toks[start..self.pos];
        let has = |s: &str| body.iter().any(|t| t.kind == TokKind::Ident && t.text == s);
        has("test") && !has("not")
    }

    /// Parses items until EOF (`brace_terminated == false`) or the
    /// closing `}` of the enclosing block.
    fn items(&mut self, ctx: &Ctx, brace_terminated: bool) {
        let mut pending_test = false;
        loop {
            let Some(tok) = self.peek() else {
                if brace_terminated {
                    self.out.errors.push("unbalanced delimiters at end of file".into());
                }
                return;
            };
            let text = tok.text.clone();
            match (tok.kind, text.as_str()) {
                (TokKind::Punct, "#") => {
                    pending_test |= self.attribute();
                    continue;
                }
                (TokKind::Punct, "}") => {
                    self.bump();
                    if brace_terminated {
                        return;
                    }
                    self.out.errors.push("unbalanced `}` at top level".into());
                    pending_test = false;
                }
                (TokKind::Ident, "pub") => {
                    self.bump();
                    if self.at_punct("(") {
                        self.skip_balanced();
                    }
                }
                (TokKind::Ident, "unsafe" | "async") => self.bump(),
                (TokKind::Ident, "extern") => {
                    self.bump();
                    if self.peek().is_some_and(|t| t.kind == TokKind::Str) {
                        self.bump();
                    }
                    if self.at_punct("{") {
                        self.bump();
                        self.items(ctx, true);
                        pending_test = false;
                    }
                    // `extern fn` / `extern crate` fall through to the
                    // next iteration.
                }
                (TokKind::Ident, "const" | "static") => {
                    if self.peek_at(1).is_some_and(|t| t.text == "fn") {
                        self.bump(); // qualifier before `fn`
                    } else {
                        self.skip_to_semicolon();
                        pending_test = false;
                    }
                }
                (TokKind::Ident, "fn") => {
                    let in_test = ctx.in_test || pending_test;
                    let f = self.fn_item(ctx, in_test);
                    self.out.functions.push(f);
                    pending_test = false;
                }
                (TokKind::Ident, "mod") => {
                    self.bump();
                    if self.peek().is_some_and(|t| t.kind == TokKind::Ident) {
                        self.bump();
                    }
                    if self.at_punct(";") {
                        self.bump();
                    } else if self.at_punct("{") {
                        self.bump();
                        let inner = Ctx { impl_type: None, in_test: ctx.in_test || pending_test };
                        self.items(&inner, true);
                    }
                    pending_test = false;
                }
                (TokKind::Ident, "impl" | "trait") => {
                    let is_trait = text == "trait";
                    self.bump();
                    let ty = self.impl_header(is_trait);
                    if self.at_punct("{") {
                        self.bump();
                        let inner = Ctx { impl_type: ty, in_test: ctx.in_test || pending_test };
                        self.items(&inner, true);
                    } else if self.at_punct(";") {
                        self.bump();
                    }
                    pending_test = false;
                }
                (TokKind::Ident, "use") => {
                    self.skip_to_semicolon();
                    pending_test = false;
                }
                (TokKind::Ident, "struct" | "enum" | "union") => {
                    self.bump();
                    // name, generics, then `;` or tuple-body`;` or braces.
                    while let Some(t) = self.peek() {
                        match (t.kind, t.text.as_str()) {
                            (TokKind::Punct, ";") => {
                                self.bump();
                                break;
                            }
                            (TokKind::Punct, "{") => {
                                self.skip_balanced();
                                break;
                            }
                            (TokKind::Punct, "(") => {
                                self.skip_balanced();
                            }
                            (TokKind::Punct, "<") => self.skip_angles(),
                            _ => self.bump(),
                        }
                    }
                    pending_test = false;
                }
                (TokKind::Ident, "type") => {
                    self.skip_to_semicolon();
                    pending_test = false;
                }
                (TokKind::Ident, "macro_rules") => {
                    self.bump();
                    if self.at_punct("!") {
                        self.bump();
                    }
                    if self.peek().is_some_and(|t| t.kind == TokKind::Ident) {
                        self.bump();
                    }
                    if self.peek().is_some_and(|t| is_open(&t.text)) {
                        self.skip_balanced();
                    }
                    pending_test = false;
                }
                _ => {
                    // Unknown item syntax: skip one token (tolerant
                    // recovery), balancing any group it opens.
                    if self.peek().is_some_and(|t| t.kind == TokKind::Punct && is_open(&t.text)) {
                        self.skip_balanced();
                    } else {
                        self.bump();
                    }
                    pending_test = false;
                }
            }
        }
    }

    fn skip_to_semicolon(&mut self) {
        while let Some(t) = self.peek() {
            match (t.kind, t.text.as_str()) {
                (TokKind::Punct, ";") => {
                    self.bump();
                    return;
                }
                (TokKind::Punct, "(" | "[" | "{") => {
                    self.skip_balanced();
                }
                _ => self.bump(),
            }
        }
    }

    /// Parses the `impl`/`trait` header up to (not including) the body
    /// brace, returning the implemented type (or trait) name.
    fn impl_header(&mut self, is_trait: bool) -> Option<String> {
        let mut ty: Option<String> = None;
        while let Some(t) = self.peek() {
            match (t.kind, t.text.as_str()) {
                (TokKind::Punct, "{" | ";") => break,
                (TokKind::Punct, "<") => self.skip_angles(),
                (TokKind::Ident, "for") if !is_trait => {
                    // `impl Trait for Type` — the type is what counts.
                    ty = None;
                    self.bump();
                }
                (TokKind::Ident, "where") => {
                    // Consume the where clause up to the body.
                    while let Some(w) = self.peek() {
                        if w.kind == TokKind::Punct && (w.text == "{" || w.text == ";") {
                            break;
                        }
                        if w.kind == TokKind::Punct && w.text == "<" {
                            self.skip_angles();
                        } else {
                            self.bump();
                        }
                    }
                    break;
                }
                (TokKind::Ident, s) if !is_keyword(s) => {
                    if ty.is_none() {
                        ty = Some(s.to_string());
                    }
                    self.bump();
                }
                _ => self.bump(),
            }
        }
        ty
    }

    /// Parses a function starting at the `fn` keyword.
    fn fn_item(&mut self, ctx: &Ctx, in_test: bool) -> Function {
        self.bump(); // `fn`
        let mut f = Function { impl_type: ctx.impl_type.clone(), in_test, ..Function::default() };
        if let Some(t) = self.peek() {
            if t.kind == TokKind::Ident {
                f.name = t.text.clone();
                f.line = t.line;
                self.bump();
            }
        }
        if self.at_punct("<") {
            self.skip_angles();
        }
        if self.at_punct("(") {
            self.bump();
            self.params(&mut f);
        }
        if self.at_punct("->") {
            self.bump();
            let mut angle = 0i64;
            while let Some(t) = self.peek() {
                match (t.kind, t.text.as_str()) {
                    (TokKind::Punct, "{" | ";") if angle == 0 => break,
                    (TokKind::Ident, "where") if angle == 0 => break,
                    (TokKind::Punct, "<") => angle += 1,
                    (TokKind::Punct, ">") => angle -= 1,
                    _ => {}
                }
                self.bump();
            }
        }
        if self.at_ident("where") {
            while let Some(t) = self.peek() {
                if t.kind == TokKind::Punct && (t.text == "{" || t.text == ";") {
                    break;
                }
                if t.kind == TokKind::Punct && t.text == "<" {
                    self.skip_angles();
                } else {
                    self.bump();
                }
            }
        }
        if self.at_punct(";") {
            self.bump();
        } else if self.at_punct("{") {
            self.bump();
            f.has_body = true;
            let body_ctx = Ctx { impl_type: f.impl_type.clone(), in_test: f.in_test };
            self.scan_body(&mut f, &body_ctx);
        }
        f
    }

    /// Parses the parameter list; the cursor sits just past the open
    /// paren and is left just past the close paren.
    fn params(&mut self, f: &mut Function) {
        let mut cur: Vec<Token> = Vec::new();
        let mut depth = 1i64; // the fn's own paren
        let mut angle = 0i64;
        let mut first = true;
        loop {
            let Some(t) = self.peek() else { return };
            match (t.kind, t.text.as_str()) {
                (TokKind::Punct, "(" | "[") => {
                    depth += 1;
                    cur.push(t.clone());
                    self.bump();
                }
                (TokKind::Punct, ")" | "]") => {
                    depth -= 1;
                    if depth == 0 {
                        self.bump();
                        Self::finish_param(f, &cur, first);
                        return;
                    }
                    cur.push(t.clone());
                    self.bump();
                }
                (TokKind::Punct, "<") => {
                    angle += 1;
                    cur.push(t.clone());
                    self.bump();
                }
                (TokKind::Punct, ">") => {
                    angle -= 1;
                    cur.push(t.clone());
                    self.bump();
                }
                (TokKind::Punct, ",") if depth == 1 && angle <= 0 => {
                    Self::finish_param(f, &cur, first);
                    cur.clear();
                    first = false;
                    self.bump();
                }
                _ => {
                    cur.push(t.clone());
                    self.bump();
                }
            }
        }
    }

    fn finish_param(f: &mut Function, toks: &[Token], first: bool) {
        if toks.is_empty() {
            return;
        }
        if first && toks.iter().any(|t| t.kind == TokKind::Ident && t.text == "self") {
            f.has_self = true;
            return;
        }
        // Split pattern from type at the first top-level `:` (a lone
        // colon; `::` is its own token).
        let mut split = toks.len();
        let mut pd = 0i64;
        for (i, t) in toks.iter().enumerate() {
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "(" | "[" => pd += 1,
                    ")" | "]" => pd -= 1,
                    ":" if pd == 0 => {
                        split = i;
                        break;
                    }
                    _ => {}
                }
            }
        }
        let mut p = Param::default();
        for t in &toks[..split] {
            if t.kind == TokKind::Ident
                && !is_keyword(&t.text)
                && t.text.chars().next().is_some_and(|c| c.is_lowercase() || c == '_')
                && t.text != "_"
            {
                p.names.push(t.text.clone());
            }
        }
        if split < toks.len() {
            let ty: Vec<&str> = toks[split + 1..].iter().map(|t| t.text.as_str()).collect();
            p.ty = ty.join(" ");
        }
        f.params.push(p);
    }

    /// Linear body scan; the cursor sits just past the open brace and is
    /// left just past the matching close brace.
    fn scan_body(&mut self, f: &mut Function, ctx: &Ctx) {
        let mut depth = 1i64;
        let mut calls: Vec<OpenCall> = Vec::new();
        let mut lets: Vec<OpenLet> = Vec::new();
        let mut closures: Vec<OpenClosure> = Vec::new();

        while let Some(tok) = self.peek() {
            let kind = tok.kind;
            let text = tok.text.clone();
            let line = tok.line;
            match (kind, text.as_str()) {
                (TokKind::Punct, "#") => {
                    self.bump();
                    if self.at_punct("!") {
                        self.bump();
                    }
                    if self.at_punct("[") {
                        self.skip_balanced();
                    }
                }
                (TokKind::Punct, "(" | "[" | "{") => {
                    depth += 1;
                    self.bump();
                }
                (TokKind::Punct, ")" | "]" | "}") => {
                    depth -= 1;
                    self.bump();
                    close_calls(f, &mut calls, depth);
                    close_closures(&mut closures, depth);
                    finish_lets(f, &mut lets, depth + 1);
                    if depth == 0 {
                        finish_lets(f, &mut lets, 0);
                        return;
                    }
                }
                (TokKind::Punct, ";") => {
                    finish_lets(f, &mut lets, depth);
                    end_closures_at(&mut closures, depth);
                    self.bump();
                }
                (TokKind::Punct, ",") => {
                    end_closures_at(&mut closures, depth);
                    if let Some(top) = calls.last() {
                        if top.inner == depth {
                            if let Some(call) = f.calls.get_mut(top.ix) {
                                call.args.push(ArgInfo::default());
                            }
                        }
                    }
                    self.bump();
                }
                (TokKind::Punct, "|") => {
                    if self.closure_starts_here() {
                        let cline = line;
                        let params = self.closure_params();
                        let ix = f.closures.len();
                        f.closures.push(Closure {
                            params,
                            line: cline,
                            arg_of: calls.last().map(|c| c.ix),
                            ..Closure::default()
                        });
                        closures.push(OpenClosure { ix, entry_depth: depth });
                    } else {
                        self.bump();
                    }
                }
                (TokKind::Punct, ":") => {
                    if let Some(top) = lets.last_mut() {
                        if !top.init_active && top.let_depth == depth {
                            top.in_type = true;
                        }
                    }
                    self.bump();
                }
                (TokKind::Punct, "=") => {
                    if let Some(top) = lets.last_mut() {
                        if !top.init_active && top.let_depth == depth {
                            top.init_active = true;
                            top.in_type = false;
                        }
                    }
                    self.bump();
                }
                (TokKind::Punct, ".") => {
                    // Method call: `.name(` or `.name::<...>(`.
                    let is_method = self
                        .peek_at(1)
                        .is_some_and(|t| t.kind == TokKind::Ident && !is_keyword(&t.text));
                    if is_method {
                        let name = self.peek_at(1).map(|t| t.text.clone()).unwrap_or_default();
                        let mline = self.peek_at(1).map(|t| t.line).unwrap_or(line);
                        let mut after = 2;
                        if self.peek_at(2).is_some_and(|t| t.text == "::")
                            && self.peek_at(3).is_some_and(|t| t.text == "<")
                        {
                            // Turbofish: find its extent.
                            let mut angle = 0i64;
                            let mut k = 3;
                            while let Some(t) = self.peek_at(k) {
                                if t.kind == TokKind::Punct && t.text == "<" {
                                    angle += 1;
                                } else if t.kind == TokKind::Punct && t.text == ">" {
                                    angle -= 1;
                                    if angle == 0 {
                                        k += 1;
                                        break;
                                    }
                                }
                                k += 1;
                            }
                            after = k;
                        }
                        if self.peek_at(after).is_some_and(|t| t.text == "(") {
                            let ix = f.calls.len();
                            f.calls.push(Call {
                                callee: Callee::Method(name),
                                args: vec![ArgInfo::default()],
                                line: mline,
                            });
                            note_call(f, &closures, ix);
                            for l in lets.iter_mut() {
                                if l.init_active && l.let_depth == depth {
                                    l.binding.init_top_calls.push(ix);
                                }
                            }
                            for _ in 0..=after {
                                self.bump();
                            }
                            depth += 1;
                            calls.push(OpenCall { ix, inner: depth });
                            continue;
                        }
                    }
                    self.bump();
                }
                (TokKind::Ident, "let") => {
                    lets.push(OpenLet {
                        binding: LetBinding { line, ..LetBinding::default() },
                        let_depth: depth,
                        init_active: false,
                        in_type: false,
                    });
                    self.bump();
                }
                (TokKind::Ident, "fn") => {
                    if self.peek_at(1).is_some_and(|t| t.kind == TokKind::Ident) {
                        let nested = self.fn_item(ctx, ctx.in_test);
                        self.out.functions.push(nested);
                    } else {
                        self.bump(); // `fn(...)` pointer type
                    }
                }
                (TokKind::Ident, "_") => self.bump(),
                (TokKind::Ident, s) if is_keyword(s) => self.bump(),
                (TokKind::Ident, _) => {
                    self.scan_ident(f, &mut depth, &mut calls, &mut lets, &closures);
                }
                (TokKind::Number | TokKind::Str | TokKind::CharLit, _) => {
                    feed_literal(f, &calls);
                    self.bump();
                }
                _ => self.bump(),
            }
        }
        // EOF inside a body.
        self.out.errors.push("unbalanced delimiters at end of file".into());
        finish_lets(f, &mut lets, 0);
    }

    /// Handles an identifier inside a body: a macro invocation, a path
    /// call, or a plain ident feeding open calls/let initializers.
    fn scan_ident(
        &mut self,
        f: &mut Function,
        depth: &mut i64,
        calls: &mut Vec<OpenCall>,
        lets: &mut [OpenLet],
        closures: &[OpenClosure],
    ) {
        let first = match self.peek() {
            Some(t) => t.clone(),
            None => return,
        };
        // Macro invocation: `name!` — the name is not a call.
        if self.peek_at(1).is_some_and(|t| t.kind == TokKind::Punct && t.text == "!") {
            self.bump();
            self.bump();
            return;
        }
        // Collect the `::`-joined path.
        let mut segs = vec![first.text.clone()];
        let mut k = 1usize;
        loop {
            let sep = self.peek_at(k).is_some_and(|t| t.text == "::");
            let next_ident = self
                .peek_at(k + 1)
                .is_some_and(|t| t.kind == TokKind::Ident && !is_keyword(&t.text));
            if sep && next_ident {
                if let Some(t) = self.peek_at(k + 1) {
                    segs.push(t.text.clone());
                }
                k += 2;
            } else {
                break;
            }
        }
        // Optional turbofish after the path.
        let mut after = k;
        if self.peek_at(k).is_some_and(|t| t.text == "::")
            && self.peek_at(k + 1).is_some_and(|t| t.text == "<")
        {
            let mut angle = 0i64;
            let mut j = k + 1;
            while let Some(t) = self.peek_at(j) {
                if t.kind == TokKind::Punct && t.text == "<" {
                    angle += 1;
                } else if t.kind == TokKind::Punct && t.text == ">" {
                    angle -= 1;
                    if angle == 0 {
                        j += 1;
                        break;
                    }
                }
                j += 1;
            }
            after = j;
        }
        let is_call = self.peek_at(after).is_some_and(|t| t.text == "(");
        if is_call {
            let ix = f.calls.len();
            f.calls.push(Call {
                callee: Callee::Path(segs),
                args: vec![ArgInfo::default()],
                line: first.line,
            });
            note_call(f, closures, ix);
            for l in lets.iter_mut() {
                if l.init_active && l.let_depth == *depth {
                    l.binding.init_top_calls.push(ix);
                }
            }
            for _ in 0..=after {
                self.bump();
            }
            *depth += 1;
            calls.push(OpenCall { ix, inner: *depth });
        } else {
            // Plain path: feed every segment as an ident occurrence and
            // collect lowercase segments as pattern names when inside a
            // let pattern.
            for seg in &segs {
                feed_ident(f, calls, lets, closures, seg);
                if let Some(top) = lets.last_mut() {
                    // Pattern idents may sit inside tuple/struct/variant
                    // sub-patterns, i.e. at a deeper delimiter depth.
                    if !top.init_active
                        && !top.in_type
                        && top.let_depth <= *depth
                        && seg != "_"
                        && !is_keyword(seg)
                        && seg.chars().next().is_some_and(|c| c.is_lowercase() || c == '_')
                    {
                        top.binding.names.push(seg.clone());
                    }
                }
            }
            for _ in 0..k {
                self.bump();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> ParsedFile {
        let p = parse_file(src);
        assert!(p.errors.is_empty(), "parse errors: {:?}", p.errors);
        p
    }

    #[test]
    fn fn_signature_and_params() {
        let p = parse(
            "pub fn train(xs: &[Vec<f64>], ys: &[f64], seed: u64) -> Result<Model, Error> {\n\
             }\n",
        );
        assert_eq!(p.functions.len(), 1);
        let f = &p.functions[0];
        assert_eq!(f.name, "train");
        assert!(!f.has_self);
        let names: Vec<_> = f.params.iter().flat_map(|p| p.names.clone()).collect();
        assert_eq!(names, ["xs", "ys", "seed"]);
    }

    #[test]
    fn impl_methods_and_self() {
        let p = parse(
            "impl Model {\n    pub fn fit(&mut self, x: &Table) -> usize { self.n }\n}\n\
             impl Clone for Model {\n    fn clone(&self) -> Model { Model::new() }\n}\n",
        );
        assert_eq!(p.functions.len(), 2);
        assert_eq!(p.functions[0].impl_type.as_deref(), Some("Model"));
        assert!(p.functions[0].has_self);
        assert_eq!(p.functions[1].impl_type.as_deref(), Some("Model"));
    }

    #[test]
    fn calls_paths_methods_and_args() {
        let p = parse(
            "fn go(seed: u64) {\n\
                 let rng = StdRng::seed_from_u64(derive(seed, 3));\n\
                 model.fit(&xtr, &ytr);\n\
             }\n",
        );
        let f = &p.functions[0];
        let callees: Vec<_> = f.calls.iter().map(|c| c.callee.name().to_string()).collect();
        assert_eq!(callees, ["seed_from_u64", "derive", "fit"]);
        // The outer call's single argument sees idents at every depth.
        assert_eq!(f.calls[0].args.len(), 1);
        assert!(f.calls[0].args[0].idents.contains(&"seed".to_string()));
        assert!(f.calls[0].args[0].has_literal);
        // Method args split at top-level commas.
        assert_eq!(f.calls[2].args.len(), 2);
        assert_eq!(f.calls[2].args[0].idents, ["xtr"]);
    }

    #[test]
    fn let_bindings_and_underscore() {
        let p = parse(
            "fn go() {\n\
                 let _ = load();\n\
                 let (a, b) = pair();\n\
                 let x: usize = a.len();\n\
             }\n",
        );
        let f = &p.functions[0];
        assert_eq!(f.lets.len(), 3);
        assert!(f.lets[0].names.is_empty());
        assert_eq!(f.lets[0].init_top_calls.len(), 1);
        assert_eq!(f.calls[f.lets[0].init_top_calls[0]].callee.name(), "load");
        assert_eq!(f.lets[1].names, ["a", "b"]);
        assert_eq!(f.lets[2].names, ["x"]);
        assert!(f.lets[2].init_idents.contains(&"a".to_string()));
    }

    #[test]
    fn chained_calls_last_top_call_wins() {
        let p = parse("fn go() { let _ = builder().step().finish(); }\n");
        let f = &p.functions[0];
        let top = &f.lets[0].init_top_calls;
        assert_eq!(f.calls[*top.last().expect("top calls")].callee.name(), "finish");
    }

    #[test]
    fn panic_sites_and_macros() {
        let p = parse(
            "fn go(o: Option<u8>) {\n\
                 o.unwrap();\n\
                 panic!(\"boom\");\n\
                 writeln!(f, \"x\").ok();\n\
             }\n",
        );
        let f = &p.functions[0];
        let callees: Vec<_> = f.calls.iter().map(|c| c.callee.name().to_string()).collect();
        // `.unwrap()` is an ordinary method call; `panic!` and `writeln!`
        // are macros, not calls — only the chained `.ok()` is.
        assert_eq!(callees, ["unwrap", "ok"]);
    }

    #[test]
    fn cfg_test_items_are_marked() {
        let p = parse(
            "fn lib_fn() {}\n\
             #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { helper(); }\n}\n\
             #[cfg(not(test))]\nfn shipped() {}\n",
        );
        let by_name = |n: &str| p.functions.iter().find(|f| f.name == n).expect("fn");
        assert!(!by_name("lib_fn").in_test);
        assert!(by_name("t").in_test);
        assert!(!by_name("shipped").in_test);
    }

    #[test]
    fn turbofish_and_generics() {
        let p = parse(
            "fn go() {\n\
                 let v = xs.iter().map(f).collect::<Vec<_>>();\n\
                 let w = Vec::<u8>::with_capacity(4);\n\
                 if a < b && c > d { noop(); }\n\
             }\n",
        );
        let f = &p.functions[0];
        assert!(f.calls.iter().any(|c| c.callee.name() == "collect"));
        assert!(f.calls.iter().any(|c| c.callee.name() == "noop"));
    }

    #[test]
    fn nested_fn_is_parsed() {
        let p = parse("fn outer() {\n    fn inner(x: u8) { x.count_ones(); }\n    inner(3);\n}\n");
        assert_eq!(p.functions.len(), 2);
        assert!(p.functions.iter().any(|f| f.name == "inner"));
    }

    #[test]
    fn closures_record_params_arg_of_calls_and_idents() {
        let p = parse(
            "fn go(seed: u64) {\n\
                 let xs = items.par_iter().map(|i| derive(seed, i)).collect();\n\
                 spawn(move || helper(seed));\n\
             }\n",
        );
        let f = &p.functions[0];
        assert_eq!(f.closures.len(), 2, "{:?}", f.closures);
        let c0 = &f.closures[0];
        assert_eq!(c0.params, ["i"]);
        assert_eq!(f.calls[c0.arg_of.expect("arg_of")].callee.name(), "map");
        assert!(c0.calls.iter().any(|&ix| f.calls[ix].callee.name() == "derive"));
        assert!(c0.idents.contains(&"seed".to_string()));
        let c1 = &f.closures[1];
        assert!(c1.params.is_empty());
        assert_eq!(f.calls[c1.arg_of.expect("arg_of")].callee.name(), "spawn");
        assert!(c1.calls.iter().any(|&ix| f.calls[ix].callee.name() == "helper"));
    }

    #[test]
    fn or_patterns_and_binary_or_are_not_closures() {
        let p = parse(
            "fn go(a: u8, b: u8) -> u8 {\n\
                 match a { 1 | 2 => a | b, _ => if a > 1 || b > 1 { 1 } else { 0 } }\n\
             }\n",
        );
        assert!(p.functions[0].closures.is_empty(), "{:?}", p.functions[0].closures);
    }

    #[test]
    fn braced_closure_body_ends_at_its_brace() {
        let p = parse("fn go() { run(|x| { inner(x); }); after(); }\n");
        let f = &p.functions[0];
        assert_eq!(f.closures.len(), 1);
        let member =
            |name: &str| f.closures[0].calls.iter().any(|&ix| f.calls[ix].callee.name() == name);
        assert!(member("inner"));
        assert!(!member("after"));
    }

    #[test]
    fn sibling_closure_args_stay_separate() {
        let p = parse("fn go() { join(|| left(), || right()); }\n");
        let f = &p.functions[0];
        assert_eq!(f.closures.len(), 2);
        let names = |c: &Closure| -> Vec<String> {
            c.calls.iter().map(|&ix| f.calls[ix].callee.name().to_string()).collect()
        };
        assert_eq!(names(&f.closures[0]), ["left"]);
        assert_eq!(names(&f.closures[1]), ["right"]);
    }

    #[test]
    fn closure_patterns_and_typed_params() {
        let p = parse(
            "fn go() {\n\
                 pairs.iter().filter(|&(a, b)| a > b).for_each(|x: Vec<u8>| sink(x));\n\
                 let f = |n: usize| n + 1;\n\
             }\n",
        );
        let f = &p.functions[0];
        assert_eq!(f.closures.len(), 3);
        assert_eq!(f.closures[0].params, ["a", "b"]);
        assert_eq!(f.closures[1].params, ["x"]);
        let c2 = &f.closures[2];
        assert_eq!(c2.params, ["n"]);
        assert!(c2.arg_of.is_none(), "let-bound closure is not a call argument");
    }

    #[test]
    fn nested_struct_literals_close_cleanly() {
        let p = parse(
            "fn go() -> Outer {\n\
                 Outer { inner: Inner { a: left(), b }, tail: right() }\n\
             }\n\
             fn after() { tail(); }\n",
        );
        let calls: Vec<&str> = p.functions[0].calls.iter().map(|c| c.callee.name()).collect();
        assert_eq!(calls, ["left", "right"], "field initializers are scanned");
        assert_eq!(p.functions[1].name, "after", "the literals' braces closed in the body");
    }

    #[test]
    fn enum_variant_paths_are_not_fn_calls_to_resolve() {
        let p = parse("fn go() -> Option<u8> { Some(compute()) }\n");
        let f = &p.functions[0];
        // `Some(...)` is recorded as a path call; resolution (not the
        // parser) decides it is not first-party. `compute` is inside.
        assert!(f.calls.iter().any(|c| c.callee.name() == "compute"));
    }
}
