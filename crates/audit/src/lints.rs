//! The lint catalog and the per-line matchers.
//!
//! Each lint is a token property checked over the masked lines of a
//! [`ScannedFile`](crate::scanner::ScannedFile), scoped to a set of
//! workspace paths. Test regions (`#[cfg(test)]` / `#[test]` items),
//! `tests/`, `benches/`, and `examples/` are outside every scope: the
//! guarantees matter on the paths that execute during failures, not in
//! the harnesses that exercise them.

use crate::scanner::ScannedFile;

/// The library crates whose `src/` trees carry PCF's runtime guarantees.
/// `pcf-cli` and `pcf-bench` are user-facing front ends and are exempt
/// from the panic/float lints; the audit crate holds itself to them.
const LIB_SRC: &[&str] = &[
    "crates/rng/src/",
    "crates/topology/src/",
    "crates/paths/src/",
    "crates/traffic/src/",
    "crates/lp/src/",
    "crates/core/src/",
    "crates/replay/src/",
    "crates/serve/src/",
    "crates/audit/src/",
];

/// Paths whose iteration order leaks into solver output, validation
/// verdicts, or serialized reports.
const DETERMINISTIC_SRC: &[&str] = &[
    "crates/lp/src/",
    "crates/core/src/",
    "crates/paths/src/",
    "crates/replay/src/engine.rs",
    "crates/replay/src/report.rs",
    "crates/replay/src/inject.rs",
    "crates/replay/src/shared.rs",
    "crates/serve/src/",
];

/// The module allowed to spell raw float comparisons: everything else
/// goes through its helpers or `total_cmp`.
const EPSILON_MODULE: &str = "crates/lp/src/float.rs";

/// One rule the audit pass enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lint {
    /// No `unwrap()`, `expect(...)`, `panic!`, `unreachable!`, `todo!`,
    /// or `unimplemented!` in library code: failure-time paths must
    /// return structured errors (Props. 5/6 make realization total).
    NoPanicPaths,
    /// No `HashMap`/`HashSet` where iteration order can reach solver
    /// output or reports: use `BTreeMap`/`BTreeSet` or explicit sorts.
    DeterministicIteration,
    /// No `partial_cmp` and no `==`/`!=` against float literals outside
    /// the approved epsilon module: use `total_cmp` or the helpers so a
    /// NaN can never panic a pivot or flip a sort.
    FloatDiscipline,
    /// No bare `std::thread::spawn`: the workspace standardized on
    /// `thread::scope`, which cannot leak a joinable handle.
    ScopedThreadsOnly,
    /// No `Instant`/`SystemTime` outside `pcf-bench`/`pcf-cli`:
    /// wall-clock reads inside the solver would break replay-cache
    /// bit-identity.
    NoWallclockInSolver,
    /// A malformed `audit:allow` directive (missing reason, bad syntax,
    /// or a name that is not a lint). A broken escape waives nothing, and
    /// cannot itself be waived.
    BadAllow,
}

/// All lints, in reporting order.
pub const ALL_LINTS: &[Lint] = &[
    Lint::NoPanicPaths,
    Lint::DeterministicIteration,
    Lint::FloatDiscipline,
    Lint::ScopedThreadsOnly,
    Lint::NoWallclockInSolver,
    Lint::BadAllow,
];

impl Lint {
    /// The lint's stable name: used in `audit:allow(...)` and reports.
    pub fn name(self) -> &'static str {
        match self {
            Lint::NoPanicPaths => "no-panic-paths",
            Lint::DeterministicIteration => "deterministic-iteration",
            Lint::FloatDiscipline => "float-discipline",
            Lint::ScopedThreadsOnly => "scoped-threads-only",
            Lint::NoWallclockInSolver => "no-wallclock-in-solver",
            Lint::BadAllow => "bad-allow",
        }
    }

    /// Looks a lint up by its stable name.
    pub fn by_name(name: &str) -> Option<Lint> {
        ALL_LINTS.iter().copied().find(|l| l.name() == name)
    }

    /// One-line description for `pcf-audit --list`.
    pub fn describe(self) -> &'static str {
        match self {
            Lint::NoPanicPaths => {
                "forbid unwrap()/expect()/panic!/unreachable!/todo!/unimplemented! in library code"
            }
            Lint::DeterministicIteration => {
                "forbid HashMap/HashSet on solver, validation, and report output paths"
            }
            Lint::FloatDiscipline => {
                "forbid partial_cmp and ==/!= against float literals outside the epsilon module"
            }
            Lint::ScopedThreadsOnly => "forbid bare std::thread::spawn (use thread::scope)",
            Lint::NoWallclockInSolver => {
                "forbid Instant/SystemTime outside pcf-bench/pcf-cli (replay bit-identity)"
            }
            Lint::BadAllow => {
                "malformed or unknown-lint audit:allow directives (a broken escape waives nothing)"
            }
        }
    }

    /// Whether the lint applies to the file at workspace-relative `rel`.
    pub fn in_scope(self, rel: &str) -> bool {
        let under = |prefixes: &[&str]| prefixes.iter().any(|p| rel.starts_with(p));
        match self {
            Lint::NoPanicPaths => under(LIB_SRC),
            Lint::DeterministicIteration => under(DETERMINISTIC_SRC),
            Lint::FloatDiscipline => under(LIB_SRC) && rel != EPSILON_MODULE,
            // Scoped threads are workspace policy, front ends included.
            Lint::ScopedThreadsOnly => rel.starts_with("crates/") && rel.contains("/src/"),
            Lint::NoWallclockInSolver => under(LIB_SRC),
            Lint::BadAllow => rel.starts_with("crates/") || rel.starts_with("tests/"),
        }
    }
}

/// One violation: a lint, a file, a line, and the offending excerpt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which rule fired.
    pub lint: Lint,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// A short description of what matched.
    pub what: String,
}

impl Finding {
    /// A finding of `lint` at 1-based `line` of `file`.
    pub fn at(lint: Lint, file: &str, line: usize, what: String) -> Finding {
        Finding {
            lint,
            file: file.to_string(),
            line,
            what,
        }
    }
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file,
            self.line,
            self.lint.name(),
            self.what
        )
    }
}

/// Runs every in-scope lint over one scanned file.
pub fn check_file(rel: &str, scanned: &ScannedFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    for &lint in ALL_LINTS {
        if !lint.in_scope(rel) {
            continue;
        }
        if lint == Lint::BadAllow {
            for bad in &scanned.bad_allows {
                findings.push(Finding::at(lint, rel, bad.line, bad.problem.clone()));
            }
            for allow in &scanned.allows {
                if Lint::by_name(&allow.lint).is_none() {
                    findings.push(Finding::at(
                        lint,
                        rel,
                        allow.line,
                        format!(
                            "audit:allow({}, ..) names no lint (see pcf-audit --list)",
                            allow.lint
                        ),
                    ));
                }
            }
            continue;
        }
        for (idx, masked) in scanned.masked_lines.iter().enumerate() {
            let line = idx + 1;
            if scanned.line_in_test(line) {
                continue;
            }
            for what in match_line(lint, masked) {
                if scanned.allowed(lint.name(), line) {
                    continue;
                }
                findings.push(Finding::at(lint, rel, line, what));
            }
        }
    }
    findings.sort_by(|a, b| (a.line, a.lint.name()).cmp(&(b.line, b.lint.name())));
    findings
}

/// Matches one lint against one masked line; returns one entry per hit.
fn match_line(lint: Lint, masked: &str) -> Vec<String> {
    match lint {
        Lint::NoPanicPaths => {
            let mut hits = Vec::new();
            for m in ["panic", "unreachable", "todo", "unimplemented"] {
                for pos in word_positions(masked, m) {
                    if next_nonspace(masked, pos + m.len()) == Some('!') {
                        hits.push(format!("`{m}!` in library code"));
                    }
                }
            }
            for pos in word_positions(masked, "unwrap") {
                if prev_nonspace(masked, pos) == Some('.')
                    && follows_call(masked, pos + "unwrap".len())
                {
                    hits.push("`.unwrap()` in library code".to_string());
                }
            }
            for pos in word_positions(masked, "expect") {
                if prev_nonspace(masked, pos) == Some('.')
                    && next_nonspace(masked, pos + "expect".len()) == Some('(')
                {
                    hits.push("`.expect(..)` in library code".to_string());
                }
            }
            hits
        }
        Lint::DeterministicIteration => ["HashMap", "HashSet"]
            .iter()
            .flat_map(|w| {
                word_positions(masked, w).into_iter().map(move |_| {
                    format!(
                        "`{w}` on a determinism-sensitive path (use BTree{})",
                        &w[4..]
                    )
                })
            })
            .collect(),
        Lint::FloatDiscipline => {
            // Defining the trait method (`fn partial_cmp`) in a canonical
            // `PartialOrd` impl that delegates to `cmp` is not a float
            // comparison; only *calls* are flagged.
            let mut hits: Vec<String> = word_positions(masked, "partial_cmp")
                .into_iter()
                .filter(|&pos| !masked[..pos].trim_end().ends_with("fn"))
                .map(|_| "`partial_cmp` outside the epsilon module (use total_cmp)".to_string())
                .collect();
            for hit in float_eq_hits(masked) {
                hits.push(hit);
            }
            hits
        }
        Lint::ScopedThreadsOnly => {
            let mut hits = Vec::new();
            let mut rest = masked;
            while let Some(pos) = rest.find("thread::spawn") {
                hits.push("bare `thread::spawn` (use thread::scope)".to_string());
                rest = &rest[pos + "thread::spawn".len()..];
            }
            hits
        }
        Lint::NoWallclockInSolver => ["Instant", "SystemTime"]
            .iter()
            .flat_map(|w| {
                word_positions(masked, w)
                    .into_iter()
                    .map(move |_| format!("`{w}` outside pcf-bench/pcf-cli"))
            })
            .collect(),
        // Directive problems come from the scanner; `check_file` reports
        // them before reaching here.
        Lint::BadAllow => Vec::new(),
    }
}

/// Byte positions where `word` occurs with non-identifier neighbours.
fn word_positions(line: &str, word: &str) -> Vec<usize> {
    let bytes = line.as_bytes();
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut out = Vec::new();
    let mut start = 0usize;
    while let Some(pos) = line[start..].find(word) {
        let at = start + pos;
        let before_ok = at == 0 || !is_ident(bytes[at - 1]);
        let end = at + word.len();
        let after_ok = end >= bytes.len() || !is_ident(bytes[end]);
        if before_ok && after_ok {
            out.push(at);
        }
        start = at + word.len();
    }
    out
}

/// First non-space char at or after byte `from`.
fn next_nonspace(line: &str, from: usize) -> Option<char> {
    line.get(from..)?.chars().find(|c| !c.is_whitespace())
}

/// Last non-space char strictly before byte `at`.
fn prev_nonspace(line: &str, at: usize) -> Option<char> {
    line.get(..at)?.chars().rev().find(|c| !c.is_whitespace())
}

/// True when the text after an `unwrap` word is an empty call `()`.
/// (`unwrap_or`, `unwrap_err`, field accesses etc. never match: the word
/// boundary already excluded them.)
fn follows_call(line: &str, from: usize) -> bool {
    let mut it = line
        .get(from..)
        .unwrap_or("")
        .chars()
        .filter(|c| !c.is_whitespace());
    it.next() == Some('(') && it.next() == Some(')')
}

/// Finds `==` / `!=` with a float literal on either side.
fn float_eq_hits(masked: &str) -> Vec<String> {
    let bytes = masked.as_bytes();
    let mut hits = Vec::new();
    let mut i = 0usize;
    while i + 1 < bytes.len() {
        let is_eq = bytes[i] == b'=' && bytes[i + 1] == b'=';
        let is_ne = bytes[i] == b'!' && bytes[i + 1] == b'=';
        if is_eq || is_ne {
            // Exclude `<=`, `>=`, `=>`-adjacent sequences.
            let prev_op = i > 0 && matches!(bytes[i - 1], b'<' | b'>' | b'=' | b'!');
            // Both operator bytes are ASCII, so i and i + 2 are char
            // boundaries and the slices below cannot split a char.
            if !prev_op
                && (is_float_literal_before(masked, i) || is_float_literal_after(masked, i + 2))
            {
                let op = if is_eq { "==" } else { "!=" };
                hits.push(format!(
                    "float literal compared with `{op}` (use the epsilon helpers or total_cmp)"
                ));
            }
            i += 2;
            continue;
        }
        i += 1;
    }
    hits
}

/// Is the token ending just before byte `at` (skipping spaces) a float
/// literal like `0.0`, `1.`, `1e-6`, `2.5e3`, `0f64`?
fn is_float_literal_before(line: &str, at: usize) -> bool {
    let s = line[..at].trim_end();
    let token: String = s
        .chars()
        .rev()
        .take_while(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '+' | '-'))
        .collect::<Vec<char>>()
        .into_iter()
        .rev()
        .collect();
    token_is_float(token.trim_start_matches(['+', '-']))
}

/// Is the token starting at byte `at` (skipping spaces) a float literal?
fn is_float_literal_after(line: &str, at: usize) -> bool {
    let s = line.get(at..).unwrap_or("").trim_start();
    let s = s.strip_prefix(['+', '-']).unwrap_or(s);
    let token: String = s
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '+' | '-'))
        .collect();
    token_is_float(&token)
}

/// `0.0`, `1.`, `1e-6`, `1_000.5`, `3f64` are float literals; `0`, `x0`,
/// `usize` are not.
fn token_is_float(token: &str) -> bool {
    let t = token.trim_end_matches("f64").trim_end_matches("f32");
    if t.is_empty() || !t.starts_with(|c: char| c.is_ascii_digit()) {
        return false;
    }
    let explicit_suffix = token.len() != t.len();
    let has_dot = t.contains('.');
    let has_exp = t.chars().any(|c| matches!(c, 'e' | 'E'))
        && t.chars()
            .all(|c| c.is_ascii_digit() || matches!(c, '.' | '_' | 'e' | 'E' | '+' | '-'));
    (has_dot || has_exp || explicit_suffix)
        && t.chars()
            .all(|c| c.is_ascii_digit() || matches!(c, '.' | '_' | 'e' | 'E' | '+' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::ScannedFile;

    fn findings(rel: &str, src: &str) -> Vec<Finding> {
        check_file(rel, &ScannedFile::scan(src))
    }

    #[test]
    fn unwrap_and_macros_are_caught_variants_are_not() {
        let f = findings(
            "crates/core/src/x.rs",
            "a.unwrap();\nb.unwrap_or(0);\nc.unwrap_or_else(|| 0);\npanic!();\nunreachable!();\nd.expect(\"msg\");\nd.expect_err(\"msg\");\n",
        );
        let panics: Vec<_> = f.iter().filter(|x| x.lint == Lint::NoPanicPaths).collect();
        assert_eq!(panics.len(), 4, "{panics:?}");
        assert_eq!(panics[0].line, 1);
        assert_eq!(panics[1].line, 4);
        assert_eq!(panics[2].line, 5);
        assert_eq!(panics[3].line, 6);
    }

    #[test]
    fn float_literal_comparisons_are_caught() {
        let src = "if x == 0.0 {}\nif 1e-6 != y {}\nif n == 0 {}\nif x <= 0.0 {}\nif x >= 1.0 {}\nlet z = 2.5f64 == w;\n";
        let f = findings("crates/core/src/x.rs", src);
        let lines: Vec<usize> = f
            .iter()
            .filter(|x| x.lint == Lint::FloatDiscipline)
            .map(|x| x.line)
            .collect();
        assert_eq!(lines, vec![1, 2, 6], "{f:?}");
    }

    #[test]
    fn partial_cmp_calls_flagged_but_trait_definitions_are_not() {
        let src = "impl PartialOrd for P {\n    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {\n        Some(self.cmp(other))\n    }\n}\nlet o = a.partial_cmp(&b);\n";
        let f = findings("crates/core/src/x.rs", src);
        let lines: Vec<usize> = f
            .iter()
            .filter(|x| x.lint == Lint::FloatDiscipline)
            .map(|x| x.line)
            .collect();
        assert_eq!(lines, vec![6], "{f:?}");
    }

    #[test]
    fn hashmap_only_flagged_on_deterministic_paths() {
        let src = "use std::collections::HashMap;\n";
        // The last two are where hash order reached the numerics while the
        // scope listed only three `pcf-core` files.
        for rel in [
            "crates/lp/src/model.rs",
            "crates/core/src/adversary.rs",
            "crates/paths/src/lib.rs",
        ] {
            assert!(
                findings(rel, src)
                    .iter()
                    .any(|f| f.lint == Lint::DeterministicIteration),
                "{rel}"
            );
        }
        assert!(!findings("crates/topology/src/graph.rs", src)
            .iter()
            .any(|f| f.lint == Lint::DeterministicIteration));
    }

    #[test]
    fn wallclock_scope_exempts_bench_and_cli() {
        let src = "let t = std::time::Instant::now();\n";
        assert!(findings("crates/replay/src/report.rs", src)
            .iter()
            .any(|f| f.lint == Lint::NoWallclockInSolver));
        assert!(findings("crates/bench/src/lib.rs", src).is_empty());
        assert!(findings("crates/cli/src/main.rs", src).is_empty());
    }

    #[test]
    fn thread_spawn_is_flagged_everywhere_scope_is_not() {
        let src = "std::thread::spawn(|| {});\nstd::thread::scope(|s| { s.spawn(|| {}); });\n";
        let f = findings("crates/cli/src/main.rs", src);
        let spawns: Vec<_> = f
            .iter()
            .filter(|x| x.lint == Lint::ScopedThreadsOnly)
            .collect();
        assert_eq!(spawns.len(), 1);
        assert_eq!(spawns[0].line, 1);
    }

    #[test]
    fn epsilon_module_is_exempt_from_float_discipline() {
        let src = "pub fn is_zero(x: f64) -> bool { x == 0.0 }\n";
        assert!(findings("crates/lp/src/float.rs", src).is_empty());
        assert!(!findings("crates/lp/src/simplex.rs", src).is_empty());
    }

    #[test]
    fn allows_suppress_and_malformed_allows_report() {
        let src = "x.unwrap(); // audit:allow(no-panic-paths, invariant: built above)\ny.unwrap(); // audit:allow(no-panic-paths)\n";
        let f = findings("crates/core/src/x.rs", src);
        assert_eq!(
            f.iter().filter(|x| x.lint == Lint::NoPanicPaths).count(),
            1,
            "{f:?}"
        );
        assert_eq!(f.iter().filter(|x| x.lint == Lint::BadAllow).count(), 1);
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { x.unwrap(); assert!(y == 0.0); }\n}\n";
        assert!(findings("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn lint_names_round_trip() {
        for &l in ALL_LINTS {
            assert_eq!(Lint::by_name(l.name()), Some(l));
        }
        assert_eq!(Lint::by_name("nope"), None);
    }
}
