//! `pcf-audit` binary: the CI lint gate.
//!
//! ```text
//! pcf-audit                 # audit the workspace; exit 1 on any finding
//! pcf-audit --json          # JSON findings report on stdout (summary on stderr)
//! pcf-audit --list          # print the lint catalog
//! pcf-audit --root <path>   # audit a different workspace root
//! ```

use pcf_audit::{find_root, run, ALL_LINTS};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut json = false;
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--list" => {
                for lint in ALL_LINTS {
                    println!("{:<26} {}", lint.name(), lint.describe());
                }
                return ExitCode::SUCCESS;
            }
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("pcf-audit: --root needs a path");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                eprintln!(
                    "pcf-audit [--json] [--list] [--root <path>]\n\
                     Static analysis over the PCF workspace; see DESIGN.md §9."
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("pcf-audit: unknown flag {other:?} (try --help)");
                return ExitCode::from(2);
            }
        }
    }
    let root = root
        .or_else(|| std::env::current_dir().ok().and_then(|d| find_root(&d)))
        .or_else(|| find_root(&PathBuf::from(env!("CARGO_MANIFEST_DIR"))));
    let Some(root) = root else {
        eprintln!("pcf-audit: cannot locate the workspace root (use --root <path>)");
        return ExitCode::from(2);
    };
    ExitCode::from(run(&root, json) as u8)
}
