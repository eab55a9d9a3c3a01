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
/// always fails the gate.
#[test]
fn malformed_allow_fails_the_gate() {
    let files = [SourceFile {
        rel: "crates/core/src/injected.rs".to_string(),
        text:
            "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap() // audit:allow(no-panic-paths)\n}\n"
                .to_string(),
    }];
    let findings = audit_files(&files);
    assert!(
        flags(&findings, Lint::BadAllow, "crates/core/src/injected.rs"),
        "{findings:#?}"
    );
    assert!(
        flags(&findings, Lint::NoPanicPaths, "crates/core/src/injected.rs"),
        "{findings:#?}"
    );
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

/// Hostile fixture for the v2 interprocedural lints: atomics, locks, and
/// hot markers spelled inside strings and comments must not fire.
#[test]
fn v2_decoys_in_strings_and_comments_do_not_fire() {
    let fixture = r##"
// A comment mentioning c.fetch_add(1, Ordering::Relaxed) and .lock().
pub fn decoy() -> &'static str {
    let _s = "c.fetch_add(1, Ordering::Relaxed)";
    let _r = r#"let a = m.lock(); let b = n.lock();"#;
    /* // audit:hot
       fn fake() { v.push(1) } */
    "ok"
}
"##;
    let files = [SourceFile {
        rel: "crates/serve/src/fixture.rs".to_string(),
        text: fixture.to_string(),
    }];
    let findings = audit_files(&files);
    assert!(findings.is_empty(), "false positives: {findings:#?}");
}

/// Fault injection against the real workspace: a panic! made reachable
/// from the `PlanCell::swap` hot entry must fail the gate with a
/// panic-reachability finding carrying a witness chain.
#[test]
fn injected_panic_reachable_from_hot_entry_fails_the_gate() {
    let root = workspace_root();
    let mut files = scan_workspace(&root).expect("workspace scans");
    let f = files
        .iter_mut()
        .find(|f| f.rel == "crates/serve/src/plan.rs")
        .expect("plan.rs exists");
    let anchor = "self.gen.store(gen, Ordering::Release);";
    assert!(f.text.contains(anchor), "swap() anchor moved; update test");
    f.text = f.text.replace(
        anchor,
        "self.gen.store(gen, Ordering::Release);\n        injected_panic();",
    );
    f.text
        .push_str("\nfn injected_panic() {\n    panic!(\"injected\")\n}\n");
    let findings = audit_files(&files);
    let reach: Vec<&Finding> = findings
        .iter()
        .filter(|f| f.lint == Lint::PanicReachability && f.file == "crates/serve/src/plan.rs")
        .collect();
    assert!(
        !reach.is_empty(),
        "gate let a hot-reachable panic through: {findings:#?}"
    );
    assert!(
        reach
            .iter()
            .any(|f| f.what.contains("injected") || !f.chain.is_empty()),
        "finding carries no witness: {reach:#?}"
    );
}

/// Fault injection: `Ordering::Relaxed` without a reasoned allow in a
/// library crate fails the gate under atomics-discipline.
#[test]
fn injected_relaxed_without_reason_fails_the_gate() {
    let root = workspace_root();
    let mut files = scan_workspace(&root).expect("workspace scans");
    files.push(SourceFile {
        rel: "crates/serve/src/injected.rs".to_string(),
        text: "use std::sync::atomic::{AtomicU64, Ordering};\n\
               pub struct S {\n    pub c: AtomicU64,\n}\n\
               pub fn f(s: &S) {\n    s.c.fetch_add(1, Ordering::Relaxed);\n}\n"
            .to_string(),
    });
    let findings = audit_files(&files);
    assert!(
        flags(
            &findings,
            Lint::AtomicsDiscipline,
            "crates/serve/src/injected.rs"
        ),
        "gate let an unreasoned Relaxed through: {findings:#?}"
    );
}

/// Fault injection: an allocating call inside an `audit:hot` function
/// fails the gate under hot-path-alloc.
#[test]
fn injected_hot_path_allocation_fails_the_gate() {
    let root = workspace_root();
    let mut files = scan_workspace(&root).expect("workspace scans");
    files.push(SourceFile {
        rel: "crates/serve/src/injected.rs".to_string(),
        text: "// audit:hot\npub fn injected_hot() -> Vec<u32> {\n    Vec::new()\n}\n".to_string(),
    });
    let findings = audit_files(&files);
    assert!(
        flags(
            &findings,
            Lint::HotPathAlloc,
            "crates/serve/src/injected.rs"
        ),
        "gate let a hot-path allocation through: {findings:#?}"
    );
}

/// Fault injection: taking a second `.lock()` while a guard is live
/// fails the gate under lock-discipline.
#[test]
fn injected_nested_lock_fails_the_gate() {
    let root = workspace_root();
    let mut files = scan_workspace(&root).expect("workspace scans");
    files.push(SourceFile {
        rel: "crates/serve/src/injected.rs".to_string(),
        text: "use std::sync::Mutex;\n\
               pub fn f(a: &Mutex<u32>, b: &Mutex<u32>) -> u32 {\n\
               let g1 = a.lock();\n\
               let g2 = b.lock();\n\
               g1.map(|x| *x).unwrap_or(0) + g2.map(|x| *x).unwrap_or(0)\n\
               }\n"
        .to_string(),
    });
    let findings = audit_files(&files);
    assert!(
        flags(
            &findings,
            Lint::LockDiscipline,
            "crates/serve/src/injected.rs"
        ),
        "gate let a nested lock through: {findings:#?}"
    );
}
