//! An item-level Rust parser over masked source text.
//!
//! The workspace is hermetic (no `syn`), so this is a hand-rolled
//! single-pass recognizer, not a grammar-complete parser. It extracts
//! exactly what the interprocedural lints need from a
//! [`ScannedFile`](crate::scanner::ScannedFile)'s masked lines:
//!
//! * `fn` items with their enclosing `impl` type (and trait, for
//!   `impl Trait for Type` blocks), signature line, body span, receiver
//!   (`self`) presence, parameter names/types, and simplified return
//!   type;
//! * call expressions inside each body — free calls `foo(..)`, path
//!   calls `Type::method(..)`, method calls `recv.method(..)` with a
//!   classified receiver chain, and macro invocations `name!(..)`;
//! * indexing expressions `expr[..]` (each a potential panic site);
//! * struct field types, so `self.field.method()` receivers can be
//!   resolved through the field's declared type;
//! * `// audit:hot` markers binding to the next `fn` item.
//!
//! Everything here is *deliberately* approximate: the call graph built
//! on top treats unresolved receivers conservatively (all same-name
//! candidates). Masking has already removed comments and string
//! literals, so the only hazards left are structural (generics, nested
//! closures, shadowed names) — the hostile fixtures in the test suite
//! pin the behaviour on those.

use crate::scanner::ScannedFile;
use std::collections::BTreeMap;

/// How a method call's receiver was written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Receiver {
    /// `self.method(..)`, or a chain of plain field accesses rooted at
    /// `self` or a local: `head` is `None` for `self`,
    /// `Some(var)` for a local/param; `fields` the field path walked.
    /// `indexed` is true when any step went through `[..]` (the final
    /// value type is then unknown, but the field name is still useful
    /// for the atomics lint: `self.slots[i].store(..)` names `slots`).
    Chain {
        head: Option<String>,
        fields: Vec<String>,
        indexed: bool,
    },
    /// Anything else: `foo().method()`, `(expr).method()`, literals.
    Opaque,
}

impl Receiver {
    /// The last named field (or the head variable) in the chain — what
    /// the atomics lint keys symmetry on.
    pub fn field_name(&self) -> Option<&str> {
        match self {
            Receiver::Chain { head, fields, .. } => fields
                .last()
                .map(String::as_str)
                .or(head.as_deref().filter(|h| *h != "self")),
            Receiver::Opaque => None,
        }
    }
}

/// One call expression's shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallTarget {
    /// `name(..)` with no qualifier.
    Free(String),
    /// `Qualifier::name(..)` — the qualifier is the last path segment
    /// before the called name (`std::mem::take` → qualifier `mem`).
    Path { qualifier: String, name: String },
    /// `receiver.name(..)`.
    Method { receiver: Receiver, name: String },
    /// `name!(..)` / `name![..]` / `name!{..}`.
    Macro(String),
}

impl CallTarget {
    /// The called name, whatever the shape.
    pub fn name(&self) -> &str {
        match self {
            CallTarget::Free(n) => n,
            CallTarget::Path { name, .. } => name,
            CallTarget::Method { name, .. } => name,
            CallTarget::Macro(n) => n,
        }
    }
}

/// One call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// 1-based line of the called name.
    pub line: usize,
    /// What is being called.
    pub target: CallTarget,
    /// The argument text between the call's parentheses — captured only
    /// for concurrency-relevant names (atomic ops, `lock`) so the
    /// atomics lint can inspect `Ordering::` arguments.
    pub args: Option<String>,
}

/// One `fn` item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// Enclosing `impl` block's type, if any.
    pub impl_type: Option<String>,
    /// Enclosing `impl Trait for Type` block's trait, if any.
    pub trait_of: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub sig_line: usize,
    /// 1-based body span (inclusive); `(0, 0)` for bodyless items
    /// (trait method declarations).
    pub body: (usize, usize),
    /// Inside a `#[cfg(test)]` / `#[test]` region.
    pub is_test: bool,
    /// Tagged `// audit:hot`.
    pub is_hot: bool,
    /// Takes a `self` receiver.
    pub has_self: bool,
    /// Parameter names mapped to simplified types.
    pub params: BTreeMap<String, String>,
    /// `let name: Type` / `let name = Type::new(..)` bindings (no
    /// shadowing scopes — last binding wins).
    pub locals: BTreeMap<String, String>,
    /// Simplified return type, `Result`/`Option`/`Arc`/`Box` unwrapped.
    pub ret: Option<String>,
    /// Calls in body order.
    pub calls: Vec<CallSite>,
    /// 1-based lines holding `expr[..]` indexing.
    pub index_lines: Vec<usize>,
}

impl FnItem {
    /// `Type::name` or plain `name` — the label used in witness chains.
    pub fn label(&self) -> String {
        match &self.impl_type {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// Everything the parser extracted from one file.
#[derive(Debug, Clone, Default)]
pub struct ParsedFile {
    /// All `fn` items, in source order (nested fns appear after their
    /// parent).
    pub fns: Vec<FnItem>,
    /// Struct name → field name → simplified field type.
    pub structs: BTreeMap<String, BTreeMap<String, String>>,
}

/// Method names whose argument text is captured for the atomics and
/// lock lints.
const CAPTURE_ARGS: &[&str] = &[
    "load",
    "store",
    "swap",
    "compare_exchange",
    "compare_exchange_weak",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_update",
    "lock",
];

/// Words that look like calls when followed by `(` but are not.
fn is_keyword(w: &str) -> bool {
    matches!(
        w,
        "if" | "else"
            | "while"
            | "for"
            | "in"
            | "loop"
            | "match"
            | "return"
            | "break"
            | "continue"
            | "move"
            | "as"
            | "where"
            | "unsafe"
            | "ref"
            | "mut"
            | "dyn"
            | "let"
            | "pub"
            | "use"
            | "mod"
            | "fn"
            | "impl"
            | "struct"
            | "enum"
            | "union"
            | "trait"
            | "type"
            | "const"
            | "static"
            | "crate"
            | "super"
            | "await"
            | "async"
    )
}

/// Strips references, smart pointers, and `Result`/`Option` wrappers
/// down to the innermost type's last path segment: `&mut Arc<Telemetry>`
/// → `Telemetry`, `Result<Routing, RealizeError>` → `Routing`,
/// `Box<dyn Factor>` → `Factor`, `std::sync::MutexGuard<'_, T>` → omits
/// nothing special — `MutexGuard`.
pub fn simplify_type(raw: &str) -> String {
    let mut s = raw.trim();
    loop {
        s = s.trim_start_matches(['&', ' ']).trim();
        if let Some(rest) = s.strip_prefix("mut ") {
            s = rest;
            continue;
        }
        if let Some(rest) = s.strip_prefix("dyn ") {
            s = rest;
            continue;
        }
        if s.starts_with('\'') {
            // Lifetime: drop it and whatever whitespace follows.
            match s.find(char::is_whitespace) {
                Some(at) => {
                    s = &s[at..];
                    continue;
                }
                None => return String::new(),
            }
        }
        break;
    }
    // Drop a module path before the head type (`std::sync::Mutex<..>` →
    // `Mutex<..>`) so the wrapper unwrapping below sees the bare name.
    let head_end = s.find('<').unwrap_or(s.len());
    if let Some(sep) = s[..head_end].rfind("::") {
        s = &s[sep + 2..];
    }
    // Unwrap one layer of container generics, recursively.
    for wrapper in ["Result", "Option", "Arc", "Rc", "Box", "Mutex", "RwLock"] {
        if let Some(rest) = s.strip_prefix(wrapper) {
            let rest = rest.trim_start();
            if let Some(inner) = rest.strip_prefix('<') {
                // First top-level generic argument.
                let mut depth = 0usize;
                let mut end = inner.len();
                for (i, c) in inner.char_indices() {
                    match c {
                        '<' => depth += 1,
                        '>' if depth > 0 => depth -= 1,
                        '>' | ',' => {
                            end = i;
                            break;
                        }
                        _ => {}
                    }
                }
                return simplify_type(&inner[..end]);
            }
        }
    }
    // Last `::` segment, generics stripped.
    let no_generics = match s.find('<') {
        Some(at) => &s[..at],
        None => s,
    };
    no_generics
        .rsplit("::")
        .next()
        .unwrap_or(no_generics)
        .trim()
        .to_string()
}

/// What a `{` opened.
enum Scope {
    /// An `impl` block: `(type, trait)`.
    Impl(String, Option<String>),
    /// A function body: index into `fns`.
    Fn(usize),
    /// Anything else (mod, match, loop, block...).
    Other,
}

struct Parser<'a> {
    chars: Vec<char>,
    i: usize,
    line: usize,
    scanned: &'a ScannedFile,
    scopes: Vec<Scope>,
    out: ParsedFile,
}

/// Parses one scanned file into items and calls.
pub fn parse_file(scanned: &ScannedFile) -> ParsedFile {
    let text = scanned.masked_lines.join("\n");
    let mut p = Parser {
        chars: text.chars().collect(),
        i: 0,
        line: 1,
        scanned,
        scopes: Vec::new(),
        out: ParsedFile::default(),
    };
    p.run();
    // Bind `// audit:hot` markers: each marks the first fn whose
    // signature line is at or after the marker line.
    for &mark in &scanned.hot_marks {
        if let Some(f) = p
            .out
            .fns
            .iter_mut()
            .filter(|f| f.sig_line >= mark)
            .min_by_key(|f| f.sig_line)
        {
            f.is_hot = true;
        }
    }
    p.out
}

impl Parser<'_> {
    fn run(&mut self) {
        while self.i < self.chars.len() {
            let c = self.chars[self.i];
            if c == '\n' {
                self.line += 1;
                self.i += 1;
                continue;
            }
            if is_ident_start(c) {
                let start = self.i;
                let word = self.read_ident();
                match word.as_str() {
                    "impl" => self.parse_impl_header(),
                    "struct" => self.parse_struct(),
                    "fn" => self.parse_fn(),
                    "let" => self.parse_let(),
                    _ => self.maybe_call(&word, start),
                }
                continue;
            }
            match c {
                '{' => {
                    self.scopes.push(Scope::Other);
                    self.i += 1;
                }
                '}' => {
                    self.close_scope();
                    self.i += 1;
                }
                '[' => {
                    self.maybe_index_site();
                    self.i += 1;
                }
                _ => self.i += 1,
            }
        }
        // Unterminated bodies (truncated input): close what's open.
        while !self.scopes.is_empty() {
            self.close_scope();
        }
    }

    fn close_scope(&mut self) {
        if let Some(Scope::Fn(idx)) = self.scopes.pop() {
            self.out.fns[idx].body.1 = self.line;
        }
    }

    /// Innermost open function, if any.
    fn current_fn(&self) -> Option<usize> {
        self.scopes.iter().rev().find_map(|s| match s {
            Scope::Fn(idx) => Some(*idx),
            _ => None,
        })
    }

    /// Innermost impl block, if any.
    fn current_impl(&self) -> Option<(String, Option<String>)> {
        self.scopes.iter().rev().find_map(|s| match s {
            Scope::Impl(t, tr) => Some((t.clone(), tr.clone())),
            _ => None,
        })
    }

    fn read_ident(&mut self) -> String {
        let mut w = String::new();
        while self.i < self.chars.len() && is_ident_char(self.chars[self.i]) {
            w.push(self.chars[self.i]);
            self.i += 1;
        }
        w
    }

    /// Advances past whitespace (tracking lines).
    fn skip_ws(&mut self) {
        while self.i < self.chars.len() && self.chars[self.i].is_whitespace() {
            if self.chars[self.i] == '\n' {
                self.line += 1;
            }
            self.i += 1;
        }
    }

    /// Consumes a balanced `<...>` group starting at the current `<`.
    /// Ignores the `>` of `->` arrows inside (e.g. `Fn() -> T` bounds).
    fn skip_angles(&mut self) {
        let mut depth = 0usize;
        while self.i < self.chars.len() {
            let c = self.chars[self.i];
            if c == '\n' {
                self.line += 1;
            } else if c == '<' {
                depth += 1;
            } else if c == '>' && self.chars.get(self.i.wrapping_sub(1)) != Some(&'-') {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    self.i += 1;
                    return;
                }
            }
            self.i += 1;
        }
    }

    /// Consumes a balanced bracket group starting at the current
    /// opener, returning the interior text.
    fn capture_balanced(&mut self, open: char, close: char) -> String {
        let mut depth = 0usize;
        let mut inner = String::new();
        while self.i < self.chars.len() {
            let c = self.chars[self.i];
            if c == '\n' {
                self.line += 1;
            }
            if c == open {
                depth += 1;
                if depth == 1 {
                    self.i += 1;
                    continue;
                }
            } else if c == close {
                depth -= 1;
                if depth == 0 {
                    self.i += 1;
                    return inner;
                }
            }
            inner.push(c);
            self.i += 1;
        }
        inner
    }

    /// After the `impl` keyword: parse `impl<G> Trait for Type { ... }`
    /// or `impl<G> Type { ... }` up to and including the opening brace.
    fn parse_impl_header(&mut self) {
        self.skip_ws();
        if self.chars.get(self.i) == Some(&'<') {
            self.skip_angles();
        }
        // Capture header text up to the block's `{` (angle-depth aware:
        // `impl Foo<{N}>` does not occur in this workspace).
        let mut header = String::new();
        let mut angle = 0usize;
        while self.i < self.chars.len() {
            let c = self.chars[self.i];
            if c == '\n' {
                self.line += 1;
            }
            match c {
                '<' => angle += 1,
                '>' if self.chars.get(self.i.wrapping_sub(1)) != Some(&'-') => {
                    angle = angle.saturating_sub(1)
                }
                '{' if angle == 0 => break,
                ';' if angle == 0 => {
                    // `impl Trait for Type;`-style (does not occur) —
                    // bail without a scope.
                    self.i += 1;
                    return;
                }
                _ => {}
            }
            header.push(if c == '\n' { ' ' } else { c });
            self.i += 1;
        }
        let header = match header.find(" where ") {
            Some(at) => header[..at].to_string(),
            None => header,
        };
        let (trait_part, type_part) = match split_top_level_for(&header) {
            Some((t, ty)) => (Some(simplify_type(t)), ty.to_string()),
            None => (None, header),
        };
        let ty = simplify_type(&type_part);
        if self.chars.get(self.i) == Some(&'{') {
            self.i += 1;
            self.scopes.push(Scope::Impl(ty, trait_part));
        }
    }

    /// After the `struct` keyword: record field types for named-field
    /// structs; skip tuple/unit structs.
    fn parse_struct(&mut self) {
        self.skip_ws();
        let name = self.read_ident();
        if name.is_empty() {
            return;
        }
        self.skip_ws();
        if self.chars.get(self.i) == Some(&'<') {
            self.skip_angles();
            self.skip_ws();
        }
        // Tuple struct: let the main loop scan the parens (variant
        // constructors are not calls because no fn scope is open at item
        // level; inside a fn, `struct` is rare and harmless).
        if self.chars.get(self.i) == Some(&'{') {
            let body = self.capture_balanced('{', '}');
            let mut fields = BTreeMap::new();
            for field in split_top_level(&body, ',') {
                let field = field.trim();
                // Strip attributes and visibility.
                let field = strip_attrs_and_vis(field);
                if let Some((fname, fty)) = field.split_once(':') {
                    let fname = fname.trim();
                    if fname.chars().all(is_ident_char) && !fname.is_empty() {
                        fields.insert(fname.to_string(), simplify_type(fty));
                    }
                }
            }
            self.out.structs.insert(name, fields);
        }
    }

    /// After the `fn` keyword: parse the signature; on `{`, open the
    /// body scope.
    fn parse_fn(&mut self) {
        self.skip_ws();
        // `fn(` is a function-pointer type, not an item.
        if !self.chars.get(self.i).copied().is_some_and(is_ident_start) {
            return;
        }
        let sig_line = self.line;
        let name = self.read_ident();
        self.skip_ws();
        if self.chars.get(self.i) == Some(&'<') {
            self.skip_angles();
            self.skip_ws();
        }
        if self.chars.get(self.i) != Some(&'(') {
            return;
        }
        let params_text = self.capture_balanced('(', ')');
        // Scan to `{` (body) or `;` (declaration), capturing the return
        // type, skipping `where` clauses and any generics.
        let mut after = String::new();
        let mut angle = 0usize;
        let mut has_body = false;
        while self.i < self.chars.len() {
            let c = self.chars[self.i];
            if c == '\n' {
                self.line += 1;
            }
            match c {
                '<' => angle += 1,
                '>' if self.chars.get(self.i.wrapping_sub(1)) != Some(&'-') => {
                    angle = angle.saturating_sub(1)
                }
                '{' if angle == 0 => {
                    has_body = true;
                    break;
                }
                ';' if angle == 0 => break,
                _ => {}
            }
            after.push(if c == '\n' { ' ' } else { c });
            self.i += 1;
        }
        let ret_text = after
            .split(" where ")
            .next()
            .unwrap_or("")
            .trim()
            .strip_prefix("->")
            .map(simplify_type);
        let (has_self, params) = parse_params(&params_text);
        let (impl_type, trait_of) = match self.current_impl() {
            Some((t, tr)) => (Some(t), tr),
            None => (None, None),
        };
        let idx = self.out.fns.len();
        self.out.fns.push(FnItem {
            name,
            impl_type,
            trait_of,
            sig_line,
            body: (0, 0),
            is_test: self.scanned.line_in_test(sig_line),
            is_hot: false,
            has_self,
            params,
            locals: BTreeMap::new(),
            ret: ret_text,
            calls: Vec::new(),
            index_lines: Vec::new(),
        });
        if has_body {
            self.out.fns[idx].body.0 = self.line;
            self.scopes.push(Scope::Fn(idx));
            self.i += 1; // consume `{`
        } else if self.chars.get(self.i) == Some(&';') {
            self.i += 1;
        }
    }

    /// After the `let` keyword inside a body: record `let x: T` and
    /// `let x = Type::new(..)` typed bindings. Consumes at most the
    /// type annotation (which contains no calls); initializers are left
    /// for the main loop.
    fn parse_let(&mut self) {
        let Some(fn_idx) = self.current_fn() else {
            return;
        };
        self.skip_ws();
        // Optional `mut`; patterns (`let (a, b)`, `let Some(x)`) are
        // skipped — no binding recorded.
        let mut name = self.read_ident();
        if name == "mut" {
            self.skip_ws();
            name = self.read_ident();
        }
        if name.is_empty() || name.chars().next().is_some_and(|c| c.is_uppercase()) {
            return; // pattern (`let Some(x)` / `let Ok(..)`) or odd form
        }
        self.skip_ws();
        match self.chars.get(self.i) {
            Some(&':') if self.chars.get(self.i + 1) != Some(&':') => {
                // `let x: T = ...` — consume the annotation up to `=`
                // or `;` at depth 0.
                self.i += 1;
                let mut ty = String::new();
                let mut angle = 0usize;
                let mut square = 0usize;
                while self.i < self.chars.len() {
                    let c = self.chars[self.i];
                    if c == '\n' {
                        self.line += 1;
                    }
                    match c {
                        '<' => angle += 1,
                        '>' if self.chars.get(self.i.wrapping_sub(1)) != Some(&'-') => {
                            angle = angle.saturating_sub(1)
                        }
                        '[' => square += 1,
                        ']' => square = square.saturating_sub(1),
                        '=' | ';' if angle == 0 && square == 0 => break,
                        _ => {}
                    }
                    ty.push(if c == '\n' { ' ' } else { c });
                    self.i += 1;
                }
                self.out.fns[fn_idx].locals.insert(name, simplify_type(&ty));
            }
            Some(&'=') => {
                // Peek (without consuming) for a constructor-shaped
                // initializer: `Type::new(..)` / `Type::with_..` /
                // `Type::from..` / `Type::default()`.
                let rest: String = self.chars[self.i + 1..]
                    .iter()
                    .take(120)
                    .collect::<String>();
                let rest = rest.trim_start();
                if let Some((ty, ctor)) = constructor_shape(rest) {
                    if constructor_name(ctor) {
                        self.out.fns[fn_idx].locals.insert(name, ty.to_string());
                    }
                }
            }
            _ => {}
        }
    }

    /// An identifier followed by `(`, `!(`, or a turbofish then `(` is
    /// a call; classify it by what precedes the name.
    fn maybe_call(&mut self, word: &str, word_start: usize) {
        let Some(fn_idx) = self.current_fn() else {
            return;
        };
        if is_keyword(word) {
            return;
        }
        let call_line = self.line;
        // Look ahead: `!` + delimiter = macro; turbofish `::<..>` may
        // precede the parens; plain `(` = call.
        let mut j = self.i;
        while j < self.chars.len() && self.chars[j].is_whitespace() && self.chars[j] != '\n' {
            j += 1;
        }
        let target = match self.chars.get(j) {
            Some(&'!') => {
                let delim = self.chars.get(j + 1).copied();
                if matches!(delim, Some('(') | Some('[') | Some('{')) {
                    Some(CallTarget::Macro(word.to_string()))
                } else {
                    None
                }
            }
            Some(&'(') => Some(self.classify_call(word, word_start)),
            Some(&':')
                if self.chars.get(j + 1) == Some(&':') && self.chars.get(j + 2) == Some(&'<') =>
            {
                // Turbofish: `name::<T>(..)`.
                let mut depth = 0usize;
                let mut k = j + 2;
                while k < self.chars.len() {
                    match self.chars[k] {
                        '<' => depth += 1,
                        '>' => {
                            depth -= 1;
                            if depth == 0 {
                                k += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
                while k < self.chars.len() && self.chars[k].is_whitespace() {
                    k += 1;
                }
                if self.chars.get(k) == Some(&'(') {
                    Some(self.classify_call(word, word_start))
                } else {
                    None
                }
            }
            _ => None,
        };
        if let Some(target) = target {
            let args = if CAPTURE_ARGS.contains(&word) {
                // Capture the argument text; do not consume (the main
                // loop still scans the interior for nested calls).
                Some(self.peek_args())
            } else {
                None
            };
            self.out.fns[fn_idx].calls.push(CallSite {
                line: call_line,
                target,
                args,
            });
        }
    }

    /// Reads ahead from the current position to the call's `(` and
    /// captures the balanced argument text without consuming.
    fn peek_args(&self) -> String {
        let mut j = self.i;
        while j < self.chars.len() && self.chars[j] != '(' {
            j += 1;
        }
        let mut depth = 0usize;
        let mut args = String::new();
        while j < self.chars.len() {
            let c = self.chars[j];
            if c == '(' {
                depth += 1;
                if depth == 1 {
                    j += 1;
                    continue;
                }
            } else if c == ')' {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            args.push(if c == '\n' { ' ' } else { c });
            j += 1;
        }
        args
    }

    /// Classifies a called name by the tokens before it: `.` → method
    /// (receiver chain parsed backwards), `::` → path call, else free.
    fn classify_call(&self, word: &str, word_start: usize) -> CallTarget {
        let before = prev_nonspace_at(&self.chars, word_start);
        match before {
            Some((at, '.')) => CallTarget::Method {
                receiver: parse_receiver_backwards(&self.chars, at),
                name: word.to_string(),
            },
            Some((at, ':')) if at > 0 && self.chars[at - 1] == ':' => {
                // The qualifier is the segment immediately before `::`
                // (`a::b::c(` → qualifier `b`).
                let skip_ws = |mut e: usize| {
                    while e > 0 && self.chars[e - 1].is_whitespace() {
                        e -= 1;
                    }
                    e
                };
                // `at - 1` is the first `:` of the `::` before the name.
                let mut e = skip_ws(at - 1);
                // Step over a turbofish: `Foo::<T>::bar(` → qualifier `Foo`.
                if e > 0 && self.chars[e - 1] == '>' {
                    let mut depth = 0usize;
                    while e > 0 {
                        match self.chars[e - 1] {
                            '>' => depth += 1,
                            '<' => {
                                depth -= 1;
                                if depth == 0 {
                                    e -= 1;
                                    break;
                                }
                            }
                            _ => {}
                        }
                        e -= 1;
                    }
                    e = skip_ws(e);
                    if e >= 2 && self.chars[e - 1] == ':' && self.chars[e - 2] == ':' {
                        e = skip_ws(e - 2);
                    }
                }
                let mut s = e;
                while s > 0 && is_ident_char(self.chars[s - 1]) {
                    s -= 1;
                }
                let qualifier: String = self.chars[s..e].iter().collect();
                if qualifier.is_empty() {
                    CallTarget::Free(word.to_string())
                } else {
                    CallTarget::Path {
                        qualifier,
                        name: word.to_string(),
                    }
                }
            }
            _ => CallTarget::Free(word.to_string()),
        }
    }

    /// A `[` directly after a value expression is an indexing site.
    fn maybe_index_site(&mut self) {
        let Some(fn_idx) = self.current_fn() else {
            return;
        };
        if self.out.fns[fn_idx].is_test {
            return;
        }
        match prev_nonspace_at(&self.chars, self.i) {
            Some((_, c)) if is_ident_char(c) || c == ')' || c == ']' || c == '?' => {
                let line = self.line;
                let f = &mut self.out.fns[fn_idx];
                if f.index_lines.last() != Some(&line) {
                    f.index_lines.push(line);
                }
            }
            _ => {}
        }
    }
}

/// `impl Trait for Type` → splits at the top-level ` for ` keyword.
fn split_top_level_for(header: &str) -> Option<(&str, &str)> {
    let bytes = header.as_bytes();
    let mut depth = 0usize;
    let mut i = 0usize;
    while i + 4 < header.len() {
        match bytes[i] {
            b'<' | b'(' | b'[' => depth += 1,
            b'>' | b')' | b']' => depth = depth.saturating_sub(1),
            b'f' if depth == 0
                && header[i..].starts_with("for")
                && i > 0
                && bytes[i - 1].is_ascii_whitespace()
                && bytes.get(i + 3).is_some_and(|b| b.is_ascii_whitespace()) =>
            {
                return Some((&header[..i], &header[i + 3..]));
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// Splits on a separator at angle/paren/bracket depth 0.
fn split_top_level(s: &str, sep: char) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    for (i, c) in s.char_indices() {
        match c {
            '<' | '(' | '[' | '{' => depth += 1,
            '>' if s.as_bytes().get(i.wrapping_sub(1)) != Some(&b'-') => {
                depth = depth.saturating_sub(1)
            }
            ')' | ']' | '}' => depth = depth.saturating_sub(1),
            c if c == sep && depth == 0 => {
                out.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&s[start..]);
    out
}

/// Strips `#[...]` attributes and `pub` / `pub(crate)` visibility off a
/// struct-field declaration.
fn strip_attrs_and_vis(mut field: &str) -> &str {
    loop {
        field = field.trim_start();
        if field.starts_with("#[") {
            match field.find(']') {
                Some(at) => field = &field[at + 1..],
                None => return "",
            }
            continue;
        }
        if let Some(rest) = field.strip_prefix("pub") {
            let rest = rest.trim_start();
            if let Some(stripped) = rest.strip_prefix('(') {
                match stripped.find(')') {
                    Some(at) => field = &stripped[at + 1..],
                    None => return "",
                }
            } else {
                field = rest;
            }
            continue;
        }
        return field;
    }
}

/// Parses a parameter list: returns (has_self, name → simplified type).
fn parse_params(params: &str) -> (bool, BTreeMap<String, String>) {
    let mut has_self = false;
    let mut map = BTreeMap::new();
    for (i, part) in split_top_level(params, ',').into_iter().enumerate() {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        if i == 0 {
            // `&self`, `&mut self`, `self`, `mut self`, `&'a self`,
            // `self: Arc<Self>`.
            let cleaned = part.trim_start_matches('&').trim_start();
            let cleaned = if cleaned.starts_with('\'') {
                match cleaned.find(char::is_whitespace) {
                    Some(at) => cleaned[at..].trim_start(),
                    None => cleaned,
                }
            } else {
                cleaned
            };
            let cleaned = cleaned.strip_prefix("mut ").unwrap_or(cleaned);
            if cleaned == "self" || cleaned.starts_with("self:") || cleaned.starts_with("self ") {
                has_self = true;
                continue;
            }
        }
        if let Some((name, ty)) = part.split_once(':') {
            let name = name.trim().trim_start_matches("mut ").trim();
            if !name.is_empty() && name.chars().all(is_ident_char) {
                map.insert(name.to_string(), simplify_type(ty));
            }
        }
    }
    (has_self, map)
}

/// Recognizes `Type::method(` at the start of `rest`; returns the type
/// and method names.
fn constructor_shape(rest: &str) -> Option<(&str, &str)> {
    let ty_end = rest.find(|c: char| !is_ident_char(c))?;
    let ty = &rest[..ty_end];
    if ty.is_empty() || !ty.chars().next().is_some_and(|c| c.is_uppercase()) {
        return None;
    }
    let after = &rest[ty_end..];
    let after = after.strip_prefix("::")?;
    let m_end = after.find(|c: char| !is_ident_char(c))?;
    let method = &after[..m_end];
    if after[m_end..].trim_start().starts_with('(') {
        Some((ty, method))
    } else {
        None
    }
}

/// Constructor-ish method names whose return type is assumed `Self`.
fn constructor_name(m: &str) -> bool {
    m == "new" || m == "default" || m.starts_with("with_") || m.starts_with("from")
}

/// Last non-whitespace char strictly before index `at`, with its index.
fn prev_nonspace_at(chars: &[char], at: usize) -> Option<(usize, char)> {
    let mut i = at;
    while i > 0 {
        i -= 1;
        if !chars[i].is_whitespace() {
            return Some((i, chars[i]));
        }
    }
    None
}

/// Parses a receiver chain backwards from the `.` before a method name:
/// `self.cache.lookup(..)` → Chain(head=None, fields=["cache"]).
fn parse_receiver_backwards(chars: &[char], dot_at: usize) -> Receiver {
    let mut i = dot_at; // index of the `.`
    let mut segs: Vec<String> = Vec::new();
    let mut indexed = false;
    loop {
        // Before the `.`: skip whitespace, then optionally a `[..]`
        // group and/or `?`, then an ident.
        let mut j = i;
        while j > 0 && chars[j - 1].is_whitespace() {
            j -= 1;
        }
        if j == 0 {
            return Receiver::Opaque;
        }
        if chars[j - 1] == '?' {
            j -= 1;
            while j > 0 && chars[j - 1].is_whitespace() {
                j -= 1;
            }
        }
        if chars[j - 1] == ']' {
            indexed = true;
            let mut depth = 0usize;
            while j > 0 {
                match chars[j - 1] {
                    ']' => depth += 1,
                    '[' => {
                        depth -= 1;
                        if depth == 0 {
                            j -= 1;
                            break;
                        }
                    }
                    '\n' => {}
                    _ => {}
                }
                j -= 1;
            }
            while j > 0 && chars[j - 1].is_whitespace() {
                j -= 1;
            }
        }
        if j == 0 || !is_ident_char(chars[j - 1]) {
            return Receiver::Opaque;
        }
        let mut s = j;
        while s > 0 && is_ident_char(chars[s - 1]) {
            s -= 1;
        }
        let seg: String = chars[s..j].iter().collect();
        // A digit start means we walked into a number (float method
        // calls like `0.5.min(..)`) — opaque.
        if seg.chars().next().is_some_and(|c| c.is_ascii_digit()) {
            return Receiver::Opaque;
        }
        segs.push(seg);
        // Is there another `.` before this segment?
        let mut k = s;
        while k > 0 && chars[k - 1].is_whitespace() {
            k -= 1;
        }
        if k > 0 && chars[k - 1] == '.' {
            // Guard against `..` range syntax and float literals.
            if k > 1 && chars[k - 2] == '.' {
                return Receiver::Opaque;
            }
            i = k - 1;
            continue;
        }
        // Head reached. A preceding `)`/`]`/ident would mean a more
        // complex expression (`foo().x.m()`) — opaque.
        if k > 0 && (chars[k - 1] == ')' || chars[k - 1] == ']') {
            return Receiver::Opaque;
        }
        break;
    }
    segs.reverse();
    let head = if segs.first().map(String::as_str) == Some("self") {
        segs.remove(0);
        None
    } else if segs.len() == 1 {
        return Receiver::Chain {
            head: Some(segs.remove(0)),
            fields: Vec::new(),
            indexed,
        };
    } else {
        Some(segs.remove(0))
    };
    Receiver::Chain {
        head,
        fields: segs,
        indexed,
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::ScannedFile;

    fn parse(src: &str) -> ParsedFile {
        parse_file(&ScannedFile::scan(src))
    }

    #[test]
    fn fn_items_with_impl_context() {
        let p = parse(
            "impl Server {\n    pub fn run(&self) -> io::Result<()> {\n        self.go();\n    }\n}\nfn free_one(x: u32) -> u32 { helper(x) }\n",
        );
        assert_eq!(p.fns.len(), 2);
        assert_eq!(p.fns[0].name, "run");
        assert_eq!(p.fns[0].impl_type.as_deref(), Some("Server"));
        assert!(p.fns[0].has_self);
        assert_eq!(p.fns[1].name, "free_one");
        assert_eq!(p.fns[1].impl_type, None);
        assert!(!p.fns[1].has_self);
        assert_eq!(p.fns[1].calls.len(), 1);
        assert_eq!(p.fns[1].calls[0].target, CallTarget::Free("helper".into()));
    }

    #[test]
    fn trait_impls_record_the_trait() {
        let p = parse("impl Factor for DenseFactor {\n    fn solve(&self) {}\n}\n");
        assert_eq!(p.fns[0].trait_of.as_deref(), Some("Factor"));
        assert_eq!(p.fns[0].impl_type.as_deref(), Some("DenseFactor"));
    }

    #[test]
    fn method_and_path_and_macro_calls_classified() {
        let p = parse(
            "fn f(&self) {\n    self.log.push(1);\n    SparseLu::factor(&m);\n    vec![1, 2];\n    format!(\"x\");\n    Foo::<Vec<u8>>::bar(&m);\n}\n",
        );
        let f = &p.fns[0];
        assert_eq!(f.calls.len(), 5);
        match &f.calls[0].target {
            CallTarget::Method { receiver, name } => {
                assert_eq!(name, "push");
                assert_eq!(
                    receiver,
                    &Receiver::Chain {
                        head: None,
                        fields: vec!["log".into()],
                        indexed: false
                    }
                );
            }
            other => panic!("expected method call, got {other:?}"),
        }
        assert_eq!(
            f.calls[1].target,
            CallTarget::Path {
                qualifier: "SparseLu".into(),
                name: "factor".into()
            }
        );
        assert_eq!(f.calls[2].target, CallTarget::Macro("vec".into()));
        assert_eq!(f.calls[3].target, CallTarget::Macro("format".into()));
        // The turbofish is stepped over: the qualifier is the type.
        assert_eq!(
            f.calls[4].target,
            CallTarget::Path {
                qualifier: "Foo".into(),
                name: "bar".into()
            }
        );
    }

    #[test]
    fn atomic_args_are_captured() {
        let p = parse("fn f(&self) {\n    self.gen.store(1, Ordering::Release);\n}\n");
        let call = &p.fns[0].calls[0];
        assert_eq!(call.target.name(), "store");
        assert!(call.args.as_deref().unwrap().contains("Ordering::Release"));
    }

    #[test]
    fn index_sites_and_indexed_receivers() {
        let p = parse("fn f(&self, i: usize) {\n    self.slots[i].store(0, Ordering::Release);\n    let x = arr[i];\n}\n");
        let f = &p.fns[0];
        assert_eq!(f.index_lines, vec![2, 3]);
        match &f.calls[0].target {
            CallTarget::Method { receiver, .. } => {
                assert_eq!(receiver.field_name(), Some("slots"));
                match receiver {
                    Receiver::Chain { indexed, .. } => assert!(indexed),
                    _ => panic!(),
                }
            }
            _ => panic!(),
        }
    }

    #[test]
    fn struct_fields_and_typed_locals() {
        let p = parse(
            "struct Server {\n    pub log: Arc<EventLog>,\n    cell: PlanCell,\n}\nfn f() {\n    let a: Vec<f64> = make();\n    let b = SparseLu::new(3);\n    b.solve();\n}\n",
        );
        assert_eq!(p.structs["Server"]["log"], "EventLog");
        assert_eq!(p.structs["Server"]["cell"], "PlanCell");
        let f = &p.fns[0];
        assert_eq!(f.locals["a"], "Vec");
        assert_eq!(f.locals["b"], "SparseLu");
    }

    #[test]
    fn return_types_are_simplified() {
        let p = parse(
            "fn f() -> Result<Routing, RealizeError> { g() }\nfn g() -> &'static str { \"\" }\n",
        );
        assert_eq!(p.fns[0].ret.as_deref(), Some("Routing"));
        assert_eq!(p.fns[1].ret.as_deref(), Some("str"));
    }

    #[test]
    fn hot_marks_bind_to_the_next_fn() {
        let p = parse("// audit:hot\npub fn fast() {}\npub fn slow() {}\n");
        assert!(p.fns[0].is_hot);
        assert!(!p.fns[1].is_hot);
    }

    #[test]
    fn nested_fns_and_closures_attribute_calls_correctly() {
        let p = parse(
            "fn outer() {\n    let c = |x: u32| inner_call(x);\n    fn nested() { nested_call(); }\n    outer_call();\n}\n",
        );
        let outer = p.fns.iter().find(|f| f.name == "outer").unwrap();
        let nested = p.fns.iter().find(|f| f.name == "nested").unwrap();
        let outer_names: Vec<&str> = outer.calls.iter().map(|c| c.target.name()).collect();
        assert!(outer_names.contains(&"inner_call"), "{outer_names:?}");
        assert!(outer_names.contains(&"outer_call"));
        assert!(!outer_names.contains(&"nested_call"));
        assert_eq!(nested.calls[0].target.name(), "nested_call");
    }

    #[test]
    fn test_region_fns_are_marked() {
        let p = parse("#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn lib() {}\n");
        assert!(p.fns[0].is_test);
        assert!(!p.fns[1].is_test);
    }

    #[test]
    fn simplify_type_unwraps_containers() {
        assert_eq!(simplify_type("&mut Arc<Telemetry>"), "Telemetry");
        assert_eq!(simplify_type("Result<Vec<f64>, LpError>"), "Vec");
        assert_eq!(simplify_type("Box<dyn Factor>"), "Factor");
        assert_eq!(simplify_type("&'a ReplayEngine<'a>"), "ReplayEngine");
        assert_eq!(
            simplify_type("std::sync::Mutex<Arc<PlanEpoch>>"),
            "PlanEpoch"
        );
    }
}
