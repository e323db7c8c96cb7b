//! Conformance between the source and the runtime rank table
//! (`obs::lockrank`), which is the one lock-order check. The source
//! audit (`analyze::locks`) must be clean, every rank it extracts must
//! parse into the table, every runtime rank must be backed by a real
//! lock, and every A301/A302 escape in the source must be one the
//! audit honours — a stale escape fails here instead of hiding.

use analyze::lint::{escapes_on, test_mask, workspace_sources};
use analyze::locks::{audit_workspace, RANKED_CRATES};
use obs::{LockRank, ALL_RANKS};
use std::path::Path;

fn workspace_root() -> &'static Path {
    // crates/analyze → workspace root is two levels up.
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

#[test]
fn workspace_lock_audit_is_clean() {
    let audit = audit_workspace(workspace_root()).expect("walk workspace");
    let errors: Vec<String> = audit
        .errors()
        .iter()
        .map(|f| format!("{}:{} {}", f.file, f.line, f.diagnostic.message))
        .collect();
    assert!(
        errors.is_empty(),
        "lock audit errors:\n{}",
        errors.join("\n")
    );
    let warnings: Vec<String> = audit
        .warnings()
        .iter()
        .map(|f| format!("{}:{} {}", f.file, f.line, f.diagnostic.message))
        .collect();
    assert!(
        warnings.is_empty(),
        "lock audit warnings (escape deliberate ones with lint:allow):\n{}",
        warnings.join("\n")
    );
}

#[test]
fn every_static_rank_parses_into_the_runtime_table() {
    let audit = audit_workspace(workspace_root()).expect("walk workspace");
    for d in &audit.decls {
        if let Some(rank) = &d.rank {
            assert!(
                LockRank::parse(rank).is_some(),
                "`{}` ({}:{}) carries rank `{rank}` unknown to obs::LockRank",
                d.id,
                d.file,
                d.line
            );
        }
    }
}

#[test]
fn all_runtime_ranks_are_represented_by_real_locks() {
    let audit = audit_workspace(workspace_root()).expect("walk workspace");
    for rank in ALL_RANKS {
        assert!(
            audit
                .decls
                .iter()
                .any(|d| d.rank.as_deref().and_then(LockRank::parse) == Some(rank)),
            "runtime rank {rank} has no lock declaration behind it — \
             remove it from obs::LockRank or rank the lock"
        );
    }
}

#[test]
fn ranked_crates_have_no_unranked_locks() {
    let audit = audit_workspace(workspace_root()).expect("walk workspace");
    for d in &audit.decls {
        if RANKED_CRATES.contains(&d.krate.as_str()) {
            assert!(
                d.rank.is_some(),
                "`{}` ({}:{}) in ranked crate `{}` has no rank",
                d.id,
                d.file,
                d.line,
                d.krate
            );
        }
    }
}

#[test]
fn every_lock_escape_in_the_source_is_honoured() {
    let audit = audit_workspace(workspace_root()).expect("walk workspace");
    let mut expected = 0;
    for (rel, path) in workspace_sources(workspace_root()).expect("walk workspace") {
        // The audit reads library and bin sources under crates/, not
        // integration tests, benches or `#[cfg(test)]` code.
        let krate_src =
            rel.starts_with("crates/") && !rel.contains("/tests/") && !rel.contains("/benches/");
        if !krate_src {
            continue;
        }
        let source = std::fs::read_to_string(&path).expect("read source");
        let mask = test_mask(&source);
        for (i, line) in source.lines().enumerate() {
            // Escapes live in plain `//` comments, not doc comments or
            // string literals that merely mention the grammar.
            let Some((_, comment)) = line.split_once("//") else {
                continue;
            };
            if mask[i] || comment.starts_with(['/', '!']) {
                continue;
            }
            for (rule, reason) in escapes_on(comment) {
                if rule != "A301" && rule != "A302" {
                    continue;
                }
                expected += 1;
                // The audit reports the first line of a merged logical
                // line, so the escape sits at or below it.
                assert!(
                    audit.escapes.iter().any(|e| e.file == rel
                        && e.rule == rule
                        && e.reason == reason
                        && e.line <= i + 1),
                    "{rel}:{} escapes {rule} but the audit never honours it \
                     (no matching hazard on that line): remove the escape or \
                     teach the audit the hazard",
                    i + 1
                );
            }
        }
    }
    assert_eq!(
        audit.escapes.len(),
        expected,
        "every honoured escape is one the source carries"
    );
}
