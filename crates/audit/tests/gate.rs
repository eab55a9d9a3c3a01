//! The audit gate, exercised the way CI runs it: real workspace scan,
//! zero tolerated findings, plus fault injection proving the gate actually
//! fails when a forbidden construct lands in a library crate.

use pcf_audit::{audit_files, find_root, scan_workspace, Finding, Lint, SourceFile};
use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    find_root(&PathBuf::from(env!("CARGO_MANIFEST_DIR")))
        .expect("audit crate lives in the workspace")
}

/// Whether `findings` — any of which fails the gate — holds one of `lint`
/// in `file`.
fn flags(findings: &[Finding], lint: Lint, file: &str) -> bool {
    findings.iter().any(|f| f.lint == lint && f.file == file)
}

/// The PR gate itself: the baseline is zero, so the tree as committed
/// must carry no findings at all.
#[test]
fn workspace_is_clean_against_the_checked_in_baseline() {
    let root = workspace_root();
    let files = scan_workspace(&root).expect("workspace scans");
    let findings = audit_files(&files);
    assert!(findings.is_empty(), "audit findings: {findings:#?}");
}

/// Fault injection: an `unwrap()` added to pcf-core must fail the gate.
#[test]
fn injected_unwrap_in_pcf_core_fails_the_gate() {
    let root = workspace_root();
    let mut files = scan_workspace(&root).expect("workspace scans");
    files.push(SourceFile {
        rel: "crates/core/src/injected.rs".to_string(),
        text: "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n".to_string(),
    });
    let findings = audit_files(&files);
    assert!(
        flags(&findings, Lint::NoPanicPaths, "crates/core/src/injected.rs"),
        "gate let an injected unwrap() through: {findings:#?}"
    );
}

/// A malformed `audit:allow` waives nothing and is itself a finding, so it
/// always fails the gate. That includes an escape naming no lint (a
/// misspelling, or a lint that no longer exists): it waives nothing either.
#[test]
fn malformed_allow_fails_the_gate() {
    for escape in [
        "audit:allow(no-panic-paths)",
        "audit:allow(no-panic-path, misspelled lint name)",
        "audit:allow(retired-lint, a lint pcf-audit does not have)",
    ] {
        let files = [SourceFile {
            rel: "crates/core/src/injected.rs".to_string(),
            text: format!("pub fn f(x: Option<u32>) -> u32 {{\n    x.unwrap() // {escape}\n}}\n"),
        }];
        let findings = audit_files(&files);
        assert!(
            flags(&findings, Lint::BadAllow, "crates/core/src/injected.rs"),
            "{escape}: {findings:#?}"
        );
        assert!(
            flags(&findings, Lint::NoPanicPaths, "crates/core/src/injected.rs"),
            "{escape}: {findings:#?}"
        );
    }
}

/// The analyzer holds itself to its own rules: zero findings in
/// `crates/audit/src`.
#[test]
fn audit_crate_audits_itself_clean() {
    let root = workspace_root();
    let files: Vec<SourceFile> = scan_workspace(&root)
        .expect("workspace scans")
        .into_iter()
        .filter(|f| f.rel.starts_with("crates/audit/src/"))
        .collect();
    assert!(!files.is_empty());
    let findings = audit_files(&files);
    assert!(findings.is_empty(), "pcf-audit flags itself: {findings:#?}");
}

/// Scanner fixtures that combine the hazards: raw strings holding fake
/// code, nested block comments, a cfg(test) module, and allow escapes —
/// none of which may produce findings in a library path.
#[test]
fn hostile_fixture_produces_no_false_positives() {
    let fixture = r####"
//! Module docs mentioning unwrap() and HashMap in prose.

/* outer /* nested comment with x.unwrap() */ still commented
   panic!("not real") */
pub fn quoted() -> &'static str {
    let _lifetime: &'static str = "x.unwrap() inside a string";
    let _raw = r#"panic!("raw string"); y.expect("msg")"#;
    let _hash = r##"HashMap::new() == 0.0"##;
    let _byte = br"std::thread::spawn";
    let _ch = '"';
    "done"
}

// audit:allow(no-panic-paths, fixture demonstrates a justified escape)
pub fn allowed_line(x: Option<u32>) -> u32 { x.unwrap() }

#[cfg(test)]
mod tests {
    #[test]
    fn test_only_code_is_exempt() {
        let v: Option<u32> = None;
        assert!(v.unwrap_or(1) == 1u32.min(2));
        Some(3).unwrap();
    }
}
"####;
    let files = [SourceFile {
        rel: "crates/core/src/fixture.rs".to_string(),
        text: fixture.to_string(),
    }];
    let findings = audit_files(&files);
    assert!(findings.is_empty(), "false positives: {findings:#?}");
}

/// And the inverse fixture: the same hazards, but with one real violation
/// after them, which must still be caught at the right line.
#[test]
fn hostile_fixture_still_catches_the_real_violation() {
    let fixture = "let _s = r#\"panic!(\"decoy\")\"#; /* x.unwrap() */\nreal.unwrap();\n";
    let files = [SourceFile {
        rel: "crates/core/src/fixture.rs".to_string(),
        text: fixture.to_string(),
    }];
    let findings = audit_files(&files);
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert_eq!(findings[0].line, 2);
    assert_eq!(findings[0].lint, Lint::NoPanicPaths);
}

/// Fault injection against the real workspace: a `panic!` added to
/// `PlanCell::swap` — the serving hot path's plan hot-swap — must fail the
/// gate with a no-panic-paths finding at that line.
#[test]
fn injected_panic_on_the_serving_hot_path_fails_the_gate() {
    let root = workspace_root();
    let mut files = scan_workspace(&root).expect("workspace scans");
    let f = files
        .iter_mut()
        .find(|f| f.rel == "crates/serve/src/plan.rs")
        .expect("plan.rs exists");
    let anchor = "self.gen.store(gen, Ordering::Release);";
    let anchor_line = f
        .text
        .lines()
        .position(|l| l.trim() == anchor)
        .expect("swap() anchor moved; update test")
        + 1;
    f.text = f.text.replace(
        anchor,
        "self.gen.store(gen, Ordering::Release);\n        panic!(\"injected\");",
    );
    let findings = audit_files(&files);
    assert!(
        findings.iter().any(|f| f.lint == Lint::NoPanicPaths
            && f.file == "crates/serve/src/plan.rs"
            && f.line == anchor_line + 1),
        "gate let a panic on the serving hot path through: {findings:#?}"
    );
}
