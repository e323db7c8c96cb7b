//! Workspace lint gate: `cargo run -p analyze --bin repo-lint`.
//!
//! Walks every workspace `.rs` source and enforces the rules in
//! [`analyze::lint`]. Exits non-zero when any violation is found, so
//! `scripts/check.sh` can use it as a failing gate.
//!
//! Flags:
//! * `--root <path>` — workspace root (default: inferred from
//!   `CARGO_MANIFEST_DIR`, falling back to the current directory);
//! * `--fix-hints` — print each offending line together with its rule
//!   id and the suggested fix;
//! * `--escapes` — print the full escape table: every honoured
//!   `lint:allow` with its justification (bare escapes are flagged);
//! * `--locks` — also run the [`analyze::locks`] concurrency audit
//!   (A301 guard across a blocking call, A302 guard across
//!   `catch_unwind`, A303 unranked lock) and fail on any
//!   error-severity finding.

use analyze::lint::{lint_workspace, Escape};
use analyze::locks::audit_workspace;
use std::path::PathBuf;
use std::process::ExitCode;

fn default_root() -> PathBuf {
    match std::env::var_os("CARGO_MANIFEST_DIR") {
        // crates/analyze → workspace root is two levels up.
        Some(dir) => PathBuf::from(dir).join("../.."),
        None => PathBuf::from("."),
    }
}

fn print_escapes(title: &str, escapes: &[Escape]) {
    println!("{title} ({} honoured):", escapes.len());
    for e in escapes {
        println!(
            "  {}:{} [{}] {}",
            e.file,
            e.line,
            e.rule,
            e.reason.as_deref().unwrap_or("(no reason given)")
        );
    }
}

fn main() -> ExitCode {
    let mut root = default_root();
    let mut fix_hints = false;
    let mut show_escapes = false;
    let mut locks = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(path) => root = PathBuf::from(path),
                None => {
                    eprintln!("repo-lint: --root requires a path");
                    return ExitCode::FAILURE;
                }
            },
            "--fix-hints" => fix_hints = true,
            "--escapes" => show_escapes = true,
            "--locks" => locks = true,
            other => {
                eprintln!(
                    "repo-lint: unknown flag `{other}` \
                     (expected --root <path>, --fix-hints, --escapes, --locks)"
                );
                return ExitCode::FAILURE;
            }
        }
    }

    let report = match lint_workspace(&root) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("repo-lint: cannot walk {}: {e}", root.display());
            return ExitCode::FAILURE;
        }
    };

    for v in &report.violations {
        if fix_hints {
            println!("{v}\n    fix: {}", v.hint);
        } else {
            println!("{v}");
        }
    }

    // Every escape needs a stated reason; bare ones are warned about
    // (not failed) so justifications can be backfilled incrementally.
    let bare: Vec<_> = report
        .escapes
        .iter()
        .filter(|e| e.reason.is_none())
        .collect();
    if show_escapes {
        print_escapes("escape table", &report.escapes);
    }
    for e in &bare {
        println!(
            "warning: bare escape {}:{} [{}] — justify it: lint:allow({}, \"reason\")",
            e.file, e.line, e.rule, e.rule
        );
    }

    let mut lock_errors = 0usize;
    if locks {
        match audit_workspace(&root) {
            Ok(audit) => {
                for f in &audit.findings {
                    println!(
                        "{}[{}] {}:{}: {}",
                        f.diagnostic.severity,
                        f.diagnostic.code,
                        f.file,
                        f.line,
                        f.diagnostic.message
                    );
                }
                lock_errors = audit.errors().len();
                if show_escapes && !audit.escapes.is_empty() {
                    print_escapes("lock audit escapes", &audit.escapes);
                }
                println!(
                    "lock audit: {} locks, {} error(s), {} warning(s)",
                    audit.decls.len(),
                    lock_errors,
                    audit.warnings().len(),
                );
            }
            Err(e) => {
                eprintln!(
                    "repo-lint: lock audit failed to walk {}: {e}",
                    root.display()
                );
                return ExitCode::FAILURE;
            }
        }
    }

    println!(
        "repo-lint: {} files checked, {} violation(s), {} lint:allow escape(s) ({} bare)",
        report.files_checked,
        report.violations.len(),
        report.escapes.len(),
        bare.len(),
    );
    if report.violations.is_empty() && lock_errors == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
