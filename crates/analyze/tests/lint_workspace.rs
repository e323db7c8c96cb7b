//! The repo-lint acceptance gate, run as a test so `cargo test` keeps
//! the workspace panic-free even when `scripts/check.sh` is skipped.

use analyze::lint::lint_workspace;
use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn workspace_is_lint_clean() {
    let report = lint_workspace(&workspace_root()).expect("walk workspace");
    assert!(
        report.files_checked > 50,
        "walked only {} files",
        report.files_checked
    );
    assert!(
        report.violations.is_empty(),
        "repo-lint violations:\n{}",
        report
            .violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn burned_down_files_carry_no_escapes() {
    let report = lint_workspace(&workspace_root()).expect("walk workspace");
    assert_eq!(
        report.escapes_in("crates/olap/src/cube.rs"),
        0,
        "cube.rs must stay escape-free"
    );
}
