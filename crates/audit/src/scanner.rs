//! A hand-rolled, comment/string/raw-string-aware Rust token scanner.
//!
//! The workspace is hermetic (no `syn`, no `proc-macro2`), so the audit
//! pass cannot parse Rust properly. It does not need to: every lint it
//! enforces is a *token* property (`.unwrap()`, `HashMap`, `Instant`, a
//! float literal next to `==`), and the only real parsing hazards are
//! tokens hiding inside comments, string literals, raw strings, or
//! `#[cfg(test)]` regions. This module neutralizes exactly those hazards:
//!
//! * [`mask_source`] replaces the *contents* of line comments, (nested)
//!   block comments, string/char/byte literals, and raw strings with
//!   spaces, preserving line structure so findings keep real line numbers;
//! * comment text is captured per line so `// audit:allow(lint, reason)`
//!   escapes can be parsed without ever confusing them with code;
//! * [`ScannedFile::line_in_test`] marks lines inside `#[cfg(test)]` /
//!   `#[test]`-attributed items (brace-balanced over the masked text), so
//!   test code is exempt from library lints.

/// One `// audit:allow(<lint>, <reason>)` escape hatch found in a comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    /// 1-based line the comment starts on. The allow suppresses findings
    /// on this line and the next one (so it can sit above the code it
    /// excuses or trail it on the same line).
    pub line: usize,
    /// The lint being waived.
    pub lint: String,
    /// The mandatory justification.
    pub reason: String,
}

/// A malformed allow directive (missing reason, unclosed parenthesis...).
/// These are reported as findings of their own so a bare
/// `audit:allow(lint)` cannot silently waive anything.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BadAllow {
    /// 1-based line of the malformed directive.
    pub line: usize,
    /// What is wrong with it.
    pub problem: String,
}

/// The scanner's view of one source file.
#[derive(Debug, Clone)]
pub struct ScannedFile {
    /// Source lines with comment/string contents blanked out.
    pub masked_lines: Vec<String>,
    /// Per-line flag: true when the line sits inside a `#[cfg(test)]` or
    /// `#[test]` item body.
    pub in_test: Vec<bool>,
    /// Well-formed allow escapes.
    pub allows: Vec<Allow>,
    /// Malformed allow escapes.
    pub bad_allows: Vec<BadAllow>,
}

impl ScannedFile {
    /// Scans `text` into masked lines, test-region flags, and allows.
    pub fn scan(text: &str) -> ScannedFile {
        let (masked, comments) = mask_source(text);
        let masked_lines: Vec<String> = masked.lines().map(|l| l.to_string()).collect();
        let in_test = test_lines(&masked_lines);
        let mut allows = Vec::new();
        let mut bad_allows = Vec::new();
        for (line, comment) in comments {
            parse_allows(line, &comment, &mut allows, &mut bad_allows);
        }
        ScannedFile {
            masked_lines,
            in_test,
            allows,
            bad_allows,
        }
    }

    /// True when findings of `lint` on 1-based `line` are waived: an
    /// allow trailing code covers its own line only; an allow on a
    /// comment-only line covers the next line.
    pub fn allowed(&self, lint: &str, line: usize) -> bool {
        self.allows.iter().any(|a| {
            if a.lint != lint {
                return false;
            }
            let own_line_has_code = self
                .masked_lines
                .get(a.line.saturating_sub(1))
                .is_some_and(|l| !l.trim().is_empty());
            if own_line_has_code {
                a.line == line
            } else {
                a.line + 1 == line
            }
        })
    }

    /// True when 1-based `line` is inside a test-only region.
    pub fn line_in_test(&self, line: usize) -> bool {
        self.in_test
            .get(line.saturating_sub(1))
            .copied()
            .unwrap_or(false)
    }
}

/// Masks comments and literals out of `text`.
///
/// Returns the masked text (same length in lines, literal/comment interiors
/// replaced by spaces) plus the captured comment text per 1-based starting
/// line, for allow-directive parsing.
pub fn mask_source(text: &str) -> (String, Vec<(usize, String)>) {
    let chars: Vec<char> = text.chars().collect();
    let mut out = String::with_capacity(text.len());
    let mut comments: Vec<(usize, String)> = Vec::new();
    let mut line = 1usize;
    let mut i = 0usize;

    // Pushes a masked char, preserving newlines so line numbers survive.
    fn blank(out: &mut String, c: char, line: &mut usize) {
        if c == '\n' {
            out.push('\n');
            *line += 1;
        } else {
            out.push(' ');
        }
    }

    while i < chars.len() {
        let c = chars[i];
        // Line comment.
        if c == '/' && chars.get(i + 1) == Some(&'/') {
            let start_line = line;
            let mut captured = String::new();
            while i < chars.len() && chars[i] != '\n' {
                captured.push(chars[i]);
                out.push(' ');
                i += 1;
            }
            comments.push((start_line, captured));
            continue;
        }
        // Block comment, possibly nested.
        if c == '/' && chars.get(i + 1) == Some(&'*') {
            let start_line = line;
            let mut captured = String::new();
            let mut depth = 0usize;
            while i < chars.len() {
                if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    captured.push_str("/*");
                    blank(&mut out, chars[i], &mut line);
                    blank(&mut out, chars[i + 1], &mut line);
                    i += 2;
                } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    captured.push_str("*/");
                    blank(&mut out, chars[i], &mut line);
                    blank(&mut out, chars[i + 1], &mut line);
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    captured.push(chars[i]);
                    blank(&mut out, chars[i], &mut line);
                    i += 1;
                }
            }
            comments.push((start_line, captured));
            continue;
        }
        // Raw (byte) string: r"...", r#"..."#, br#"..."# etc.
        if c == 'r' || (c == 'b' && chars.get(i + 1) == Some(&'r')) {
            let prev_is_ident = i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_');
            if !prev_is_ident {
                let r_at = if c == 'b' { i + 1 } else { i };
                let mut j = r_at + 1;
                let mut hashes = 0usize;
                while chars.get(j) == Some(&'#') {
                    hashes += 1;
                    j += 1;
                }
                if chars.get(j) == Some(&'"') {
                    // Copy the opening delimiter as-is (it is code-ish),
                    // blank the contents, find `"` + hashes `#`s.
                    for &d in &chars[i..=j] {
                        blank(&mut out, d, &mut line);
                    }
                    let mut k = j + 1;
                    'raw: while k < chars.len() {
                        if chars[k] == '"' {
                            let mut h = 0usize;
                            while h < hashes && chars.get(k + 1 + h) == Some(&'#') {
                                h += 1;
                            }
                            if h == hashes {
                                for &d in &chars[k..=k + hashes] {
                                    blank(&mut out, d, &mut line);
                                }
                                k += hashes + 1;
                                break 'raw;
                            }
                        }
                        blank(&mut out, chars[k], &mut line);
                        k += 1;
                    }
                    i = k;
                    continue;
                }
            }
        }
        // Plain (byte) string.
        if c == '"' || (c == 'b' && chars.get(i + 1) == Some(&'"')) {
            if c == 'b' {
                blank(&mut out, 'b', &mut line);
                i += 1;
            }
            blank(&mut out, '"', &mut line);
            i += 1;
            while i < chars.len() {
                if chars[i] == '\\' && i + 1 < chars.len() {
                    blank(&mut out, chars[i], &mut line);
                    blank(&mut out, chars[i + 1], &mut line);
                    i += 2;
                    continue;
                }
                let done = chars[i] == '"';
                blank(&mut out, chars[i], &mut line);
                i += 1;
                if done {
                    break;
                }
            }
            continue;
        }
        // Char literal vs lifetime. `'\n'`, `'a'`, `'"'` are literals;
        // `'static` / `'a` (no closing quote right after) are lifetimes.
        if c == '\'' {
            let is_escape = chars.get(i + 1) == Some(&'\\');
            let is_simple = chars.get(i + 2) == Some(&'\'') && chars.get(i + 1) != Some(&'\'');
            if is_escape {
                blank(&mut out, '\'', &mut line);
                i += 1;
                // \x7f, \u{...}, \n, \' ... scan to closing quote.
                while i < chars.len() {
                    if chars[i] == '\\' && i + 1 < chars.len() {
                        blank(&mut out, chars[i], &mut line);
                        blank(&mut out, chars[i + 1], &mut line);
                        i += 2;
                        continue;
                    }
                    let done = chars[i] == '\'';
                    blank(&mut out, chars[i], &mut line);
                    i += 1;
                    if done {
                        break;
                    }
                }
                continue;
            }
            if is_simple {
                blank(&mut out, '\'', &mut line);
                blank(&mut out, chars[i + 1], &mut line);
                blank(&mut out, '\'', &mut line);
                i += 3;
                continue;
            }
            // Lifetime: keep the tick, fall through as code.
        }
        if c == '\n' {
            line += 1;
        }
        out.push(c);
        i += 1;
    }
    (out, comments)
}

/// Parses `audit:allow(...)` directives out of one comment's text.
///
/// A directive must be the comment's entire content (after the `//`,
/// `///`, `/*`, `*` decoration): prose *mentioning* the syntax mid-
/// sentence — like this module's own documentation — is not a directive.
fn parse_allows(line: usize, comment: &str, allows: &mut Vec<Allow>, bad: &mut Vec<BadAllow>) {
    for (offset_lines, comment_line) in comment.lines().enumerate() {
        let mut body = comment_line.trim_start_matches(['/', '*', '!', ' ', '\t']);
        let at_line = line + offset_lines;
        // A comment line may carry several directives back to back
        // (`audit:allow(a, ...) audit:allow(b, ...)`) so one site can be
        // excused for more than one lint.
        while body.starts_with("audit:allow") {
            let after = &body["audit:allow".len()..];
            let Some(body2) = after.strip_prefix('(') else {
                bad.push(BadAllow {
                    line: at_line,
                    problem: "audit:allow must be followed by (<lint>, <reason>)".into(),
                });
                break;
            };
            // Balanced scan: the reason text may itself contain parens.
            let mut depth = 0usize;
            let close = body2.char_indices().find_map(|(i, c)| match c {
                '(' => {
                    depth += 1;
                    None
                }
                ')' if depth > 0 => {
                    depth -= 1;
                    None
                }
                ')' => Some(i),
                _ => None,
            });
            let Some(close) = close else {
                bad.push(BadAllow {
                    line: at_line,
                    problem: "audit:allow(...) is missing its closing parenthesis".into(),
                });
                break;
            };
            let inner = &body2[..close];
            match inner.split_once(',') {
                Some((lint, reason)) if !reason.trim().is_empty() => {
                    allows.push(Allow {
                        line: at_line,
                        lint: lint.trim().to_string(),
                        reason: reason.trim().trim_matches('"').to_string(),
                    });
                }
                _ => {
                    bad.push(BadAllow {
                        line: at_line,
                        problem: format!(
                            "audit:allow({}) needs a reason: audit:allow(<lint>, <reason>)",
                            inner.trim()
                        ),
                    });
                }
            }
            body = body2[close + 1..].trim_start();
        }
    }
}

/// Computes, per masked line, whether it sits inside a test-only item:
/// an item annotated `#[cfg(test)]` or `#[test]`, tracked by brace depth.
fn test_lines(masked_lines: &[String]) -> Vec<bool> {
    let mut in_test = vec![false; masked_lines.len()];
    let mut depth = 0usize;
    // Brace depths at which a test item body was entered.
    let mut test_entries: Vec<usize> = Vec::new();
    // A test attribute was seen and its item's body not yet entered.
    let mut pending = false;
    for (idx, raw) in masked_lines.iter().enumerate() {
        if !test_entries.is_empty() {
            in_test[idx] = true;
        }
        let line = raw.as_str();
        if line.contains("#[cfg(test)]")
            || line.contains("#[cfg(all(test")
            || line.contains("#[cfg(any(test")
            || line.contains("#[test]")
        {
            pending = true;
            // An attribute line marks the item's first line too.
            in_test[idx] = true;
        }
        for c in line.chars() {
            match c {
                '{' => {
                    if pending {
                        test_entries.push(depth);
                        pending = false;
                        in_test[idx] = true;
                    }
                    depth += 1;
                }
                '}' => {
                    depth = depth.saturating_sub(1);
                    if test_entries.last() == Some(&depth) {
                        test_entries.pop();
                    }
                }
                // `#[cfg(test)] use foo;` — item without a body.
                ';' if pending => {
                    pending = false;
                    in_test[idx] = true;
                }
                _ => {}
            }
        }
    }
    in_test
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_line_and_nested_block_comments() {
        let src = "let a = 1; // x.unwrap()\n/* outer /* inner.unwrap() */ still */ let b = 2;\n";
        let (masked, comments) = mask_source(src);
        assert!(!masked.contains("unwrap"));
        assert!(masked.contains("let a = 1;"));
        assert!(masked.contains("let b = 2;"));
        assert_eq!(comments.len(), 2);
        assert!(comments[1].1.contains("inner.unwrap()"));
    }

    #[test]
    fn masks_strings_raw_strings_and_chars() {
        let src = r####"let s = "a.unwrap()"; let r = r#"panic!("x")"#; let c = '"'; let t = "esc \" x.unwrap()";"####;
        let (masked, _) = mask_source(src);
        assert!(!masked.contains("unwrap"));
        assert!(!masked.contains("panic"));
        assert!(masked.contains("let s ="));
        assert!(masked.contains("let t ="));
    }

    #[test]
    fn lifetimes_do_not_start_literals() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x } let u = y.unwrap();";
        let (masked, _) = mask_source(src);
        assert!(masked.contains("unwrap"), "code after lifetimes survives");
    }

    #[test]
    fn cfg_test_modules_are_marked() {
        let src = "fn lib() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn t() { y.unwrap(); }\n}\nfn lib2() {}\n";
        let f = ScannedFile::scan(src);
        assert!(!f.line_in_test(1));
        assert!(f.line_in_test(2));
        assert!(f.line_in_test(4));
        assert!(!f.line_in_test(6));
    }

    #[test]
    fn allow_parsing_same_and_next_line() {
        let src = "// audit:allow(no-panic-paths, interned invariant)\nx.unwrap();\ny.unwrap(); // audit:allow(float-discipline, trailing)\n";
        let f = ScannedFile::scan(src);
        assert_eq!(f.allows.len(), 2);
        assert!(f.allowed("no-panic-paths", 2));
        assert!(f.allowed("float-discipline", 3));
        assert!(!f.allowed("no-panic-paths", 3));
    }

    #[test]
    fn allow_without_reason_is_malformed() {
        let src =
            "// audit:allow(no-panic-paths)\nx.unwrap();\n// audit:allow(no-panic-paths,   )\n";
        let f = ScannedFile::scan(src);
        assert!(f.allows.is_empty());
        assert_eq!(f.bad_allows.len(), 2);
        assert!(!f.allowed("no-panic-paths", 2));
    }
}
