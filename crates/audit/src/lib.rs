//! `pcf-audit` — in-tree static analysis for the PCF workspace.
//!
//! PCF's pitch is *provable* resilience: Propositions 5/6 guarantee that
//! realizing a solved plan under any targeted failure is one linear solve
//! that cannot fail. That guarantee is only as strong as the code on the
//! failure-time path — a stray `unwrap()`, a `HashMap` iteration order
//! leaking into a report, or a NaN panicking a `partial_cmp` sort would
//! all break it at exactly the wrong moment. The workspace is hermetic
//! (no third-party crates), so the analyzer lives in-tree:
//!
//! * [`scanner`] — a comment/string/raw-string-aware token scanner (no
//!   `syn`), with `#[cfg(test)]` region tracking and
//!   `// audit:allow(<lint>, <reason>)` parsing;
//! * [`lints`] — the lint catalog: token properties checked per file over
//!   the scanner's masked lines.
//!
//! Any finding fails the audit: debt is either fixed or waived at the site
//! with a reasoned `// audit:allow`. Run it as `cargo run -p pcf-audit`
//! (CI does), as `pcf audit` from the CLI, or `pcf-audit --json` for the
//! machine-readable report.

pub mod lints;
pub mod scanner;

pub use lints::{check_file, Finding, Lint, ALL_LINTS};
pub use scanner::ScannedFile;

use std::path::{Path, PathBuf};

/// One workspace source file: its root-relative path and contents.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators (the scope key).
    pub rel: String,
    /// File contents.
    pub text: String,
}

/// Collects every `.rs` file under `<root>/crates`, sorted by path so
/// findings are stable across platforms.
pub fn scan_workspace(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    let mut paths: Vec<PathBuf> = Vec::new();
    walk(&root.join("crates"), &mut paths)?;
    paths.sort();
    let mut files = Vec::with_capacity(paths.len());
    for p in paths {
        let rel = p
            .strip_prefix(root)
            .unwrap_or(&p)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        files.push(SourceFile {
            rel,
            text: std::fs::read_to_string(&p)?,
        });
    }
    Ok(files)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().map(|n| n.to_string_lossy().to_string());
        if path.is_dir() {
            if matches!(name.as_deref(), Some("target") | Some(".git")) {
                continue;
            }
            walk(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Audits a set of already-loaded files (injectable for tests): every
/// in-scope lint over each file, with findings sorted by (path, line, lint,
/// message) so reports are stable across directory-walk order.
pub fn audit_files(files: &[SourceFile]) -> Vec<Finding> {
    let mut findings: Vec<Finding> = files
        .iter()
        .flat_map(|f| check_file(&f.rel, &ScannedFile::scan(&f.text)))
        .collect();
    sort_findings(&mut findings);
    findings
}

/// The canonical report order: (path, line, lint name, message).
pub fn sort_findings(findings: &mut [Finding]) {
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.lint.name(), a.what.as_str()).cmp(&(
            b.file.as_str(),
            b.line,
            b.lint.name(),
            b.what.as_str(),
        ))
    });
}

/// Renders findings as a JSON report (hermetic hand-rolled writer, same
/// style as the replay/serve reports).
pub fn findings_json(findings: &[Finding]) -> String {
    fn esc(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }
    let mut out = String::from("{\n  \"findings\": [\n");
    for (i, f) in findings.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"lint\": \"{}\", \"file\": \"{}\", \"line\": {}, \"what\": \"{}\"}}{}\n",
            f.lint.name(),
            esc(&f.file),
            f.line,
            esc(&f.what),
            if i + 1 < findings.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!("  \"total\": {}\n", findings.len()));
    out.push_str("}\n");
    out
}

/// Locates the workspace root from `start`: the nearest ancestor holding
/// both `Cargo.toml` and a `crates/` directory.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut cur = Some(start);
    while let Some(dir) = cur {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir.to_path_buf());
        }
        cur = dir.parent();
    }
    None
}

/// Runs the full audit over the workspace at `root` and prints every
/// finding. Returns the process exit code: 0 = no findings, 1 = findings,
/// 2 = setup error. With `json` the machine-readable findings report goes
/// to stdout and the human summary to stderr, so
/// `pcf-audit --json > audit_report.json` produces a clean artifact.
pub fn run(root: &Path, json: bool) -> i32 {
    let files = match scan_workspace(root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("pcf-audit: cannot scan {}: {e}", root.display());
            return 2;
        }
    };
    let findings = audit_files(&files);
    let summary = format!(
        "pcf-audit: {} findings over {} files",
        findings.len(),
        files.len()
    );
    if json {
        print!("{}", findings_json(&findings));
        eprintln!("{summary}");
    } else {
        println!("{summary}");
    }
    if findings.is_empty() {
        return 0;
    }
    for f in &findings {
        eprintln!("  {f}");
    }
    eprintln!(
        "pcf-audit: FAIL: fix the findings, or annotate a justified site with \
         `// audit:allow(<lint>, <reason>)`"
    );
    1
}
