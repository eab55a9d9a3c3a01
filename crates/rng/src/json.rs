//! Minimal JSON for the whole workspace — no external dependencies.
//!
//! The `pcf-serve` wire parses requests with [`Json::parse`]; its
//! responses and every report (`pcf … --json`, `replay --djson`, the serve
//! `stats` verb) are written by [`ObjWriter`], with no tree, in one of
//! three [`Layout`]s. So escaping, number formatting and non-finite
//! handling live here alone. Objects keep insertion order (never a hash
//! map), so output is a pure function of construction order and
//! byte-stable across runs — what the digests and goldens rely on.
//!
//! Parsing is linear: strings are copied in runs up to the next `"`, `\`
//! or control byte, nesting stops at [`MAX_DEPTH`], and numbers follow RFC
//! 8259 exactly.
//!
//! Numbers are `f64` (like JSON itself). Rendering uses Rust's shortest
//! round-trip float formatting, or a fixed count of decimals
//! ([`ObjWriter::fixed`]); integral values print without a decimal point,
//! and non-finite values (which JSON cannot carry) render as `null`.

use std::fmt::Write as _;

/// Deepest array/object nesting [`Json::parse`] accepts. The protocol
/// needs 3; the cap keeps a line of `[[[[…` from overflowing a
/// connection thread's stack.
pub const MAX_DEPTH: usize = 32;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

/// A parse failure: byte offset plus a short description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset where parsing failed.
    pub at: usize,
    /// What went wrong.
    pub what: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.what)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Convenience constructor for a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Parses one JSON value from `src` (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(src: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after value"));
        }
        Ok(v)
    }

    /// Renders the value as compact single-line JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(*n, None, out),
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => write_array(out, Layout::Compact, items, |o, v| v.write(o)),
            Json::Obj(fields) => {
                let mut w = ObjWriter::new(out);
                for (k, v) in fields {
                    w = w.value(k, v);
                }
                w.finish();
            }
        }
    }

    /// Object field lookup (None for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one below 2^53. Every
    /// such integer has its own f64; 2^53 does not, since 2^53 + 1 rounds
    /// to it.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < 9_007_199_254_740_992.0 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// How [`ObjWriter`] lays out an object or an array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// `{"k":v,…}` and `[a,b]`: the wire's form.
    Compact,
    /// `{ "k": v, … }` and `[a, b]`.
    Inline,
    /// One field per line at two-space indent, `{\n  "k": v,\n  …\n}`; an
    /// array, as a field of such an object, one item per line at four.
    Lines,
}

impl Layout {
    /// What an object (`obj`) or array writes before its first item,
    /// between items, after a key, and before its closing bracket.
    #[inline]
    fn punct(self, obj: bool) -> [&'static str; 4] {
        match (self, obj) {
            (Layout::Compact, _) => ["", ",", ":", ""],
            (Layout::Inline, true) => [" ", ", ", ": ", " "],
            (Layout::Inline, false) => ["", ", ", "", ""],
            (Layout::Lines, true) => ["\n  ", ",\n  ", ": ", "\n"],
            (Layout::Lines, false) => ["\n    ", ",\n    ", "", "\n  "],
        }
    }
}

/// Appends one JSON object to a buffer, field by field: in
/// [`Layout::Compact`] the bytes of [`Json::render`] on the same
/// `Json::Obj`, without building it.
#[must_use = "an object is closed by `finish`"]
pub struct ObjWriter<'a> {
    out: &'a mut String,
    layout: Layout,
    empty: bool,
}

impl<'a> ObjWriter<'a> {
    /// Opens a [`Layout::Compact`] object at the end of `out`.
    #[inline]
    pub fn new(out: &'a mut String) -> ObjWriter<'a> {
        ObjWriter::open(out, Layout::Compact)
    }

    /// Opens an object in `layout` at the end of `out`.
    #[inline]
    pub fn open(out: &'a mut String, layout: Layout) -> ObjWriter<'a> {
        out.push('{');
        ObjWriter {
            out,
            layout,
            empty: true,
        }
    }

    /// Writes `"key":` and returns the buffer for the value.
    #[inline]
    fn key(&mut self, key: &str) -> &mut String {
        let first = std::mem::take(&mut self.empty);
        let [lead, sep, colon, _] = self.layout.punct(true);
        self.out.push_str(if first { lead } else { sep });
        write_escaped(key, self.out);
        self.out.push_str(colon);
        self.out
    }

    /// A boolean field.
    #[inline]
    pub fn bool(mut self, key: &str, v: bool) -> Self {
        self.key(key).push_str(if v { "true" } else { "false" });
        self
    }

    /// A number field (`null` when not finite).
    #[inline]
    pub fn num(mut self, key: &str, v: f64) -> Self {
        write_num(v, None, self.key(key));
        self
    }

    /// A number field with `digits` decimals (`null` when not finite).
    pub fn fixed(mut self, key: &str, v: f64, digits: usize) -> Self {
        write_num(v, Some(digits), self.key(key));
        self
    }

    /// An integer field, written exactly (`num` would round above 2^53).
    pub fn uint(mut self, key: &str, v: u64) -> Self {
        let _ = write!(self.key(key), "{v}");
        self
    }

    /// A string field.
    #[inline]
    pub fn str(mut self, key: &str, v: &str) -> Self {
        write_escaped(v, self.key(key));
        self
    }

    /// A field holding any [`Json`] value.
    pub fn value(mut self, key: &str, v: &Json) -> Self {
        v.write(self.key(key));
        self
    }

    /// The fields `fields` writes, only when `cond` holds.
    pub fn when(self, cond: bool, fields: impl FnOnce(Self) -> Self) -> Self {
        if cond {
            fields(self)
        } else {
            self
        }
    }

    /// A field whose value `write` appends: exactly one JSON value.
    pub fn with(mut self, key: &str, write: impl FnOnce(&mut String)) -> Self {
        write(self.key(key));
        self
    }

    /// An object field in `layout`, `fields` writing its fields.
    pub fn obj(
        mut self,
        key: &str,
        layout: Layout,
        fields: impl FnOnce(ObjWriter<'_>) -> ObjWriter<'_>,
    ) -> Self {
        fields(ObjWriter::open(self.key(key), layout)).finish();
        self
    }

    /// An array field in `layout`, `item` appending each element as
    /// exactly one JSON value.
    pub fn array<T>(
        mut self,
        key: &str,
        layout: Layout,
        items: impl IntoIterator<Item = T>,
        item: impl FnMut(&mut String, T),
    ) -> Self {
        write_array(self.key(key), layout, items, item);
        self
    }

    /// Closes the object.
    #[inline]
    pub fn finish(self) {
        self.out.push_str(self.layout.punct(true)[3]);
        self.out.push('}');
    }
}

/// A report: one [`Layout::Lines`] object, `fields` writing its fields,
/// and a newline.
pub fn report(fields: impl FnOnce(ObjWriter<'_>) -> ObjWriter<'_>) -> String {
    let mut out = String::new();
    fields(ObjWriter::open(&mut out, Layout::Lines)).finish();
    out.push('\n');
    out
}

fn write_array<T>(
    out: &mut String,
    layout: Layout,
    items: impl IntoIterator<Item = T>,
    mut item: impl FnMut(&mut String, T),
) {
    let [first, sep, _, close] = layout.punct(false);
    out.push('[');
    for (i, v) in items.into_iter().enumerate() {
        out.push_str(if i == 0 { first } else { sep });
        item(out, v);
    }
    out.push_str(close);
    out.push(']');
}

/// Writes `n` in shortest round-trip form, or with exactly `digits`
/// decimals. JSON has no NaN/Inf; null is the least-surprising
/// degradation and keeps the line parseable. Writing to a `String` cannot
/// fail.
fn write_num(n: f64, digits: Option<usize>, out: &mut String) {
    let _ = match digits {
        _ if !n.is_finite() => write!(out, "null"),
        None => write!(out, "{n}"),
        Some(d) => write!(out, "{n:.d$}"),
    };
}

/// Writes `s` as a JSON string literal, copying the runs between the
/// bytes that need an escape.
fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // `i` and `run` sit at ASCII bytes, so both are char boundaries.
        out.push_str(&s[run..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> JsonError {
        JsonError {
            at: self.pos,
            what: what.to_string(),
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8, what: &str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn eat_lit(&mut self, lit: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.eat_lit("null", Json::Null),
            Some(b't') => self.eat_lit("true", Json::Bool(true)),
            Some(b'f') => self.eat_lit("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                let mut items = Vec::new();
                self.seq(b']', "expected , or ] in array", |p| {
                    items.push(p.value()?);
                    Ok(())
                })?;
                Ok(Json::Arr(items))
            }
            Some(b'{') => {
                let mut fields: Vec<(String, Json)> = Vec::new();
                self.seq(b'}', "expected , or } in object", |p| {
                    let key = p.string()?;
                    p.skip_ws();
                    p.eat(b':', "expected : after key")?;
                    p.skip_ws();
                    let value = p.value()?;
                    if fields.iter().any(|(k, _)| *k == key) {
                        return Err(p.err("duplicate key"));
                    }
                    fields.push((key, value));
                    Ok(())
                })?;
                Ok(Json::Obj(fields))
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
        }
    }

    /// Parses the array or object whose opening bracket is next: `item`
    /// per element, comma-separated, up to `close`. Refuses to nest deeper
    /// than [`MAX_DEPTH`].
    fn seq(
        &mut self,
        close: u8,
        what: &str,
        mut item: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        self.pos += 1;
        self.skip_ws();
        if self.peek() != Some(close) {
            loop {
                self.skip_ws();
                item(self)?;
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b) if b == close => break,
                    _ => return Err(self.err(what)),
                }
            }
        }
        self.pos += 1;
        self.depth -= 1;
        Ok(())
    }

    /// Skips `[0-9]+`, or fails with `what`.
    fn digits(&mut self, what: &str) -> Result<(), JsonError> {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        (self.pos > start)
            .then_some(())
            .ok_or_else(|| self.err(what))
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?` (RFC 8259
    /// §6), which `f64::from_str` then reads exactly.
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        self.pos += usize::from(self.peek() == Some(b'-'));
        let int = self.pos;
        self.digits("expected digit in number")?;
        if self.bytes[int] == b'0' && self.pos > int + 1 {
            self.pos = int + 1;
            return Err(self.err("leading zero in number"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits("expected digit after decimal point")?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            self.pos += usize::from(matches!(self.peek(), Some(b'+' | b'-')));
            self.digits("expected digit in exponent")?;
        }
        let n: f64 = self.src[start..self.pos]
            .parse()
            .map_err(|_| self.err("malformed number"))?;
        if !n.is_finite() {
            return Err(self.err("number out of range"));
        }
        Ok(Json::Num(n))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"', "expected string")?;
        let mut out = String::new();
        loop {
            let run = self.pos;
            while self
                .peek()
                .is_some_and(|b| b != b'"' && b != b'\\' && b >= 0x20)
            {
                self.pos += 1;
            }
            // A run starts after and stops before an ASCII byte, so it is
            // whole UTF-8.
            out.push_str(&self.src[run..self.pos]);
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("truncated escape"))?;
                    self.pos += 1;
                    out.push(self.unescape(esc)?);
                }
                Some(_) => return Err(self.err("raw control character in string")),
            }
        }
    }

    /// The character escape `\esc` stands for; reads a `\u` escape's four
    /// hex digits.
    fn unescape(&mut self, esc: u8) -> Result<char, JsonError> {
        Ok(match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'u' => {
                let hex = self
                    .bytes
                    .get(self.pos..self.pos + 4)
                    .and_then(|h| std::str::from_utf8(h).ok())
                    .ok_or_else(|| self.err("truncated \\u escape"))?;
                let code = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
                self.pos += 4;
                // Surrogates are rejected rather than paired: the protocol
                // is ASCII in practice.
                char::from_u32(code).ok_or_else(|| self.err("\\u escape is not a scalar value"))?
            }
            _ => return Err(self.err("unknown escape")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{forall, no_shrink, Config, Pcg32};

    #[test]
    fn round_trips_protocol_shapes() {
        let src = r#"{"cmd":"admit","src":"NodeA","dst":"NodeB","demand":1.5,"flags":[1,2],"deep":{"x":null,"y":true}}"#;
        let v = Json::parse(src).unwrap();
        assert_eq!(v.get("cmd").and_then(Json::as_str), Some("admit"));
        assert_eq!(v.get("demand").and_then(Json::as_f64), Some(1.5));
        assert_eq!(v.get("missing"), None);
        // Render → parse → render is a fixpoint.
        let rendered = v.render();
        assert_eq!(Json::parse(&rendered).unwrap().render(), rendered);
    }

    #[test]
    fn numbers_render_canonically() {
        assert_eq!(Json::Num(3.0).render(), "3");
        assert_eq!(Json::Num(0.25).render(), "0.25");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::parse("1e-3").unwrap(), Json::Num(0.001));
        assert_eq!(Json::Num(42.0).as_u64(), Some(42));
        assert_eq!(Json::Num(1.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        for ok in [
            "0", "-0", "0.5", "-0.5", "10", "1e5", "1E+5", "1.5e-5", "-0e0",
        ] {
            assert!(Json::parse(ok).is_ok(), "rejected {ok:?}");
        }
    }

    #[test]
    fn strings_escape_and_unescape() {
        let v = Json::str("a\"b\\c\nd\te");
        let rendered = v.render();
        assert_eq!(Json::parse(&rendered).unwrap(), v);
        assert_eq!(Json::parse(r#""Aé""#).unwrap(), Json::str("A\u{e9}"));
        assert_eq!(Json::str("\u{1}é\u{1f}").render(), "\"\\u0001é\\u001f\"");
    }

    #[test]
    fn malformed_input_is_rejected() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "1 2",
            "{\"a\":1,\"a\":2}",
            "nan",
            "{\"a\" 1}",
            // RFC 8259 §6 numbers that `f64::from_str` would read.
            "01",
            "-01",
            "00.5",
            "1.",
            "-.5",
            ".5",
            "+1",
            "1e",
            "1e+",
            "-",
            "1.e5",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
        let err = |src: &str| Json::parse(src).unwrap_err();
        assert_eq!(err("01").what, "leading zero in number");
        assert_eq!(err("-01").at, 2);
        assert_eq!(err("1.").what, "expected digit after decimal point");
        assert_eq!(err("-.5").what, "expected digit in number");
        assert_eq!(err("1e+").what, "expected digit in exponent");
    }

    #[test]
    fn object_order_is_preserved() {
        let v = Json::Obj(vec![
            ("z".into(), Json::Num(1.0)),
            ("a".into(), Json::Num(2.0)),
        ]);
        assert_eq!(v.render(), r#"{"z":1,"a":2}"#);
    }

    #[test]
    fn obj_writer_matches_render() {
        let tree = Json::Obj(vec![
            ("ok".into(), Json::Bool(false)),
            ("error".into(), Json::str("a \"b\"\n")),
            ("n".into(), Json::Num(0.1 + 0.2)),
            ("inf".into(), Json::Num(f64::INFINITY)),
            ("arr".into(), Json::Arr(vec![Json::Null, Json::Num(-3.0)])),
        ]);
        let mut out = String::from("prefix ");
        ObjWriter::new(&mut out)
            .bool("ok", false)
            .str("error", "a \"b\"\n")
            .num("n", 0.1 + 0.2)
            .num("inf", f64::INFINITY)
            .with("arr", |o| o.push_str("[null,-3]"))
            .finish();
        assert_eq!(out, format!("prefix {}", tree.render()));
    }

    #[test]
    fn layouts_write_the_report_shapes() {
        let nums = [1.0, 2.5];
        let report = report(|w| {
            w.str("name", "a\\b\tc\u{1}")
                .obj("inline", Layout::Inline, |w| {
                    w.uint("big", u64::MAX).fixed("third", 1.0 / 3.0, 6)
                })
                .array("flat", Layout::Inline, nums, |o, x| {
                    ObjWriter::new(o).num("x", x).finish()
                })
                .array("rows", Layout::Lines, nums, |o, x| {
                    ObjWriter::open(o, Layout::Inline).num("x", x).finish()
                })
                .array("none", Layout::Lines, Vec::<f64>::new(), |_, _| {})
                .fixed("nan", f64::NAN, 6)
                .when(false, |w| w.bool("skipped", true))
        });
        let want = r#"{
  "name": "a\\b\tc\u0001",
  "inline": { "big": 18446744073709551615, "third": 0.333333 },
  "flat": [{"x":1}, {"x":2.5}],
  "rows": [
    { "x": 1 },
    { "x": 2.5 }
  ],
  "none": [
  ],
  "nan": null
}
"#;
        assert_eq!(report, want);
        let parsed = Json::parse(&report).unwrap();
        assert_eq!(
            parsed.get("name").and_then(Json::as_str),
            Some("a\\b\tc\u{1}")
        );
        let mut empty = String::new();
        ObjWriter::open(&mut empty, Layout::Inline).finish();
        assert_eq!(empty, "{ }");
    }

    /// 100 000 `[` is 100 kB of input; unbounded recursion over it would
    /// overflow a default 2 MiB thread stack and abort the process.
    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(100_000);
        // A scoped thread gets the default stack, as connection threads do.
        let err = std::thread::scope(|s| s.spawn(|| Json::parse(&deep)).join())
            .unwrap()
            .unwrap_err();
        assert_eq!(err.at, MAX_DEPTH);
        assert!(err.what.contains("nesting"), "{err}");
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
        let too_deep = format!("{{\"a\":{ok}}}");
        assert!(Json::parse(&too_deep).is_err());
    }

    /// A char-at-a-time scan re-validates the rest of the line per char
    /// (quadratic: ~25 s for 1 MiB); the run scanner is linear.
    #[test]
    fn a_one_mebibyte_string_parses_in_linear_time() {
        // Four bytes a piece: a two-byte char, then an escape.
        let body = "\u{e9}\\n".repeat(1 << 18);
        let src = format!("\"{body}\"");
        #[expect(clippy::disallowed_types, reason = "a timing bound in a test")]
        let t0 = std::time::Instant::now();
        let v = Json::parse(&src).unwrap();
        let took_ms = t0.elapsed().as_millis();
        assert_eq!(v.as_str().map(str::len), Some(3 << 18));
        assert!(took_ms < 1000, "{took_ms} ms");
    }

    impl Parser<'_> {
        /// The parser's string routine before the run scanner: one char
        /// at a time, each re-validating the rest of the input as UTF-8.
        /// The reference the run scanner is held to.
        fn string_char_at_a_time(&mut self) -> Result<String, JsonError> {
            self.eat(b'"', "expected string")?;
            let mut out = String::new();
            loop {
                match self.peek() {
                    None => return Err(self.err("unterminated string")),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        let esc = self.peek().ok_or_else(|| self.err("truncated escape"))?;
                        self.pos += 1;
                        out.push(self.unescape(esc)?);
                    }
                    Some(_) => {
                        let rest = std::str::from_utf8(&self.bytes[self.pos..])
                            .map_err(|_| self.err("non-utf8 string"))?;
                        let c = rest.chars().next().ok_or_else(|| self.err("empty"))?;
                        if (c as u32) < 0x20 {
                            return Err(self.err("raw control character in string"));
                        }
                        out.push(c);
                        self.pos += c.len_utf8();
                    }
                }
            }
        }
    }

    /// A random string literal body: plain ASCII, multi-byte UTF-8,
    /// valid and invalid escapes, raw control characters and quotes.
    fn random_literal(rng: &mut Pcg32) -> String {
        const PIECES: &[&str] = &[
            "a", "Z", " ", "é", "€", "𝄞", "\\\"", "\\\\", "\\/", "\\n", "\\t", "\\b", "\\f",
            "\\u0041", "\\u00e9", "\\ud800", "\\u12", "\\x", "\\", "\u{1}", "\n", "\u{1f}", "\"",
            "\u{7f}",
        ];
        let mut s = String::from("\"");
        for _ in 0..rng.range_usize(0, 24) {
            s.push_str(PIECES[rng.below(PIECES.len() as u64) as usize]);
        }
        if rng.chance(0.8) {
            s.push('"');
        }
        s
    }

    /// Runs one string routine over `src`: its result and where it stopped.
    fn scan(
        src: &str,
        routine: impl FnOnce(&mut Parser<'_>) -> Result<String, JsonError>,
    ) -> (Result<String, JsonError>, usize) {
        let mut p = Parser {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            depth: 0,
        };
        (routine(&mut p), p.pos)
    }

    #[test]
    fn run_scanner_equals_the_char_at_a_time_scan() {
        forall(
            "run scanner == char-at-a-time scan",
            &Config::with_cases(2000),
            random_literal,
            no_shrink,
            |src: &String| {
                let new = scan(src, |p| p.string());
                let old = scan(src, |p| p.string_char_at_a_time());
                if new == old {
                    Ok(())
                } else {
                    Err(format!("runs {new:?}, chars {old:?}"))
                }
            },
        );
    }

    /// A random value at most `depth` levels deep; object keys are unique,
    /// as the parser requires.
    fn random_json(rng: &mut Pcg32, depth: usize) -> Json {
        match rng.below(if depth == 0 { 4 } else { 6 }) {
            0 => Json::Null,
            1 => Json::Bool(rng.chance(0.5)),
            2 => Json::Num(match rng.below(4) {
                0 => rng.below(1 << 20) as f64,
                1 => -rng.range_f64(0.0, 1e-3),
                2 => f64::from_bits(rng.next_u64()),
                _ => rng.normal() * 1e6,
            }),
            3 => {
                let mut lit = random_literal(rng);
                lit.retain(|c| c >= ' ');
                Json::Str(lit)
            }
            4 => Json::Arr(
                (0..rng.range_usize(0, 4))
                    .map(|_| random_json(rng, depth - 1))
                    .collect(),
            ),
            _ => Json::Obj(
                (0..rng.range_usize(0, 4))
                    .map(|i| (format!("k{i}é\""), random_json(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    #[test]
    fn render_parse_render_is_a_fixpoint() {
        forall(
            "render → parse → render",
            &Config::with_cases(1000),
            |rng: &mut Pcg32| random_json(rng, 4),
            no_shrink,
            |v: &Json| {
                let once = v.render();
                let parsed = Json::parse(&once).map_err(|e| format!("{e}: {once}"))?;
                let twice = parsed.render();
                if twice == once {
                    Ok(())
                } else {
                    Err(format!("{once} → {twice}"))
                }
            },
        );
    }
}
