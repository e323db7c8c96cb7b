//! Source-level lint rules the compiler cannot express.
//!
//! Five rules keep the serving hot path honest:
//!
//! * `no-panic` — no `unwrap()` / `expect()` / `panic!` in designated
//!   hot-path modules (`serve`, `etl`, `warehouse`, `segstore`, `oplog`,
//!   `clinical_types::wire`, `oltp::store`,
//!   `olap::{cube,kernels,mdx::exec}`) outside `#[cfg(test)]`;
//! * `no-todo` — no `todo!` / `unimplemented!` / `dbg!` anywhere;
//! * `no-raw-timing` — no direct `Instant::now()` in the `serve` /
//!   `olap` hot paths outside `#[cfg(test)]`: timing must flow through
//!   the `obs` layer (`obs::monotonic_us()`, span guards,
//!   `ProfileBuilder` phases) so profiles and traces stay complete.
//!   Legitimate deadline arithmetic escapes with
//!   `lint:allow(no-raw-timing)`;
//! * `no-bare-spawn` — no bare `std::thread::spawn` in the `serve` /
//!   `olap` crates outside `#[cfg(test)]`: a bare spawn gives the
//!   thread a panic-swallowing default and no name, so a crashed
//!   worker vanishes silently. Long-lived threads must go through
//!   `thread::Builder` with a `catch_unwind` body (serve's
//!   self-healing pool) or a scoped spawn whose join propagates
//!   panics (olap's cube builders);
//! * `display-impl` — every public `…Error` enum must implement
//!   `Display` somewhere in its crate.
//!
//! A line may opt out with an inline
//! `lint:allow(<rule>, "reason")` comment; escapes are reported (with
//! their reasons) so gates can bound them (the cube burn-down demands
//! zero). A bare `lint:allow(<rule>)` without a reason is
//! still honoured but surfaces as a warning in `repo-lint` — every
//! escape must explain itself.
//!
//! The scanner is deliberately line-based and heuristic. Test code is
//! exempt from the hot-path rules: `#[cfg(test)]` regions are tracked
//! by brace depth ([`test_mask`]), so a test module in the middle of a
//! file exempts only itself, not everything after it.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Rule identifiers (the names accepted by `lint:allow(...)`).
pub const RULE_NO_PANIC: &str = "no-panic";
/// See [`RULE_NO_PANIC`].
pub const RULE_NO_TODO: &str = "no-todo";
/// See [`RULE_NO_PANIC`].
pub const RULE_NO_RAW_TIMING: &str = "no-raw-timing";
/// See [`RULE_NO_PANIC`].
pub const RULE_NO_BARE_SPAWN: &str = "no-bare-spawn";
/// See [`RULE_NO_PANIC`].
pub const RULE_DISPLAY_IMPL: &str = "display-impl";

/// Workspace-relative path fragments whose files count as the serving
/// hot path for `no-panic`.
const HOT_PATHS: [&str; 12] = [
    "crates/serve/src/",
    "crates/etl/src/",
    "crates/warehouse/src/",
    "crates/segstore/src/",
    "crates/kb/src/",
    "crates/obs/src/",
    "crates/oplog/src/",
    "crates/clinical-types/src/wire.rs",
    "crates/oltp/src/store.rs",
    "crates/olap/src/cube.rs",
    "crates/olap/src/kernels/",
    "crates/olap/src/mdx/exec.rs",
];

/// Workspace-relative path fragments where `no-raw-timing` applies:
/// query-serving code whose timings must be observable through `obs`.
/// `segstore` and `fault` are included because their timings feed the
/// flight recorder's incident timeline — an untraced clock there is
/// invisible in black-box dumps.
const TIMED_PATHS: [&str; 4] = [
    "crates/serve/src/",
    "crates/olap/src/",
    "crates/segstore/src/",
    "crates/fault/src/",
];

/// Workspace-relative path fragments where `no-bare-spawn` applies:
/// crates that run long-lived or pooled threads and must contain
/// worker panics instead of losing the thread silently.
const SPAWN_PATHS: [&str; 2] = ["crates/serve/src/", "crates/olap/src/"];

/// One rule violation at a source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number (0 for whole-file findings).
    pub line: usize,
    /// Which rule fired (`no-panic`, `no-todo`, `display-impl`).
    pub rule: &'static str,
    /// The offending line (trimmed), or a description for whole-file
    /// findings.
    pub excerpt: String,
    /// How to fix it.
    pub hint: &'static str,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.excerpt
        )
    }
}

/// A `lint:allow` escape that suppressed a would-be violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Escape {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The rule the escape suppressed.
    pub rule: &'static str,
    /// The justification given in `lint:allow(rule, "reason")`.
    /// `None` marks a bare escape, which `repo-lint` warns about.
    pub reason: Option<String>,
}

/// Result of linting a set of files.
#[derive(Debug, Default, Clone)]
pub struct LintReport {
    /// Violations found (empty means the gate passes).
    pub violations: Vec<Violation>,
    /// `lint:allow` escapes that were honoured.
    pub escapes: Vec<Escape>,
    /// Number of `.rs` files scanned.
    pub files_checked: usize,
}

impl LintReport {
    /// Escapes recorded in files whose path contains `fragment`.
    pub fn escapes_in(&self, fragment: &str) -> usize {
        self.escapes
            .iter()
            .filter(|e| e.file.contains(fragment))
            .count()
    }
}

/// The forbidden call patterns, built at runtime so this file never
/// matches its own rules.
fn panic_needles() -> Vec<(String, &'static str)> {
    let call = |head: &str| [".", head, "("].concat();
    let mac = |head: &str| [head, "!("].concat();
    vec![
        (call("unwrap"), "return a typed error instead of unwrapping"),
        (call("expect"), "return a typed error instead of expecting"),
        (mac("panic"), "propagate a Result instead of panicking"),
    ]
}

fn timing_needles() -> Vec<(String, &'static str)> {
    vec![(
        ["Instant::", "now("].concat(),
        "route timing through obs (monotonic_us, span guards, ProfileBuilder)",
    )]
}

/// Matches the free-function form `thread::spawn(`; deliberately does
/// NOT match `thread::Builder::new()…​.spawn(` (a method call) or
/// `scope.spawn(` — both of those surface panics at join or spawn
/// time, which is exactly what the rule wants.
fn spawn_needles() -> Vec<(String, &'static str)> {
    vec![(
        ["thread::", "spawn("].concat(),
        "use thread::Builder with a catch_unwind body (or a scoped spawn) so panics are contained",
    )]
}

fn todo_needles() -> Vec<(String, &'static str)> {
    let mac = |head: &str| [head, "!("].concat();
    vec![
        (mac("todo"), "finish the implementation before merging"),
        (
            mac("unimplemented"),
            "finish the implementation before merging",
        ),
        (mac("dbg"), "remove debug output before merging"),
    ]
}

fn is_comment(trimmed: &str) -> bool {
    trimmed.starts_with("//")
}

/// All `lint:allow(...)` escapes on one line, as
/// `(rule, Some(reason))` for the justified form
/// `lint:allow(rule, "reason")` and `(rule, None)` for a bare
/// `lint:allow(rule)`.
pub fn escapes_on(line: &str) -> Vec<(String, Option<String>)> {
    let mut out = Vec::new();
    for rest in line.split("lint:allow(").skip(1) {
        let chars: Vec<char> = rest.chars().collect();
        let mut i = 0;
        while i < chars.len() && chars[i] != ',' && chars[i] != ')' {
            i += 1;
        }
        let rule: String = chars[..i].iter().collect::<String>().trim().to_string();
        if rule.is_empty() {
            continue;
        }
        if i >= chars.len() || chars[i] == ')' {
            out.push((rule, None));
            continue;
        }
        // After the comma: a quoted reason, which may itself contain
        // parentheses and commas.
        i += 1;
        while i < chars.len() && chars[i] != '"' {
            i += 1;
        }
        if i >= chars.len() {
            out.push((rule, None));
            continue;
        }
        i += 1;
        let start = i;
        while i < chars.len() && chars[i] != '"' {
            i += 1;
        }
        let reason: String = chars[start..i.min(chars.len())].iter().collect();
        let reason = reason.trim().to_string();
        out.push((rule, (!reason.is_empty()).then_some(reason)));
    }
    out
}

/// Does `line` carry an escape for `rule`? Returns `Some(reason)` when
/// it does — the inner `Option` is `None` for a bare (unjustified)
/// escape.
pub fn escape_for(line: &str, rule: &str) -> Option<Option<String>> {
    escapes_on(line)
        .into_iter()
        .find(|(r, _)| r == rule)
        .map(|(_, reason)| reason)
}

/// `line` with string/char-literal contents blanked to spaces and any
/// `//` comment truncated, so brace counting and code-needle searches
/// never match inside literals. Length is *not* preserved past a
/// comment.
pub(crate) fn code_portion(line: &str) -> String {
    let chars: Vec<char> = line.chars().collect();
    let mut out = String::with_capacity(chars.len());
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        match c {
            '"' => {
                out.push('"');
                i += 1;
                while i < chars.len() {
                    if chars[i] == '\\' {
                        out.push(' ');
                        out.push(' ');
                        i += 2;
                        continue;
                    }
                    if chars[i] == '"' {
                        out.push('"');
                        break;
                    }
                    out.push(' ');
                    i += 1;
                }
            }
            '/' if i + 1 < chars.len() && chars[i + 1] == '/' => break,
            '\'' => {
                // Char literal ('x' or '\n') vs lifetime ('a with no
                // closing quote): only literals are blanked.
                if i + 2 < chars.len() && chars[i + 1] != '\\' && chars[i + 2] == '\'' {
                    out.push_str("' '");
                    i += 2;
                } else if i + 3 < chars.len() && chars[i + 1] == '\\' && chars[i + 3] == '\'' {
                    out.push_str("'  '");
                    i += 3;
                } else {
                    out.push(c);
                }
            }
            _ => out.push(c),
        }
        i += 1;
    }
    out
}

/// Per-line test-code mask for `source`: `mask[i]` is true when line
/// `i` (0-based) belongs to a `#[cfg(test)]` item. Regions are tracked
/// by brace depth, so a test module in the middle of a file exempts
/// only its own block — not everything after it.
pub fn test_mask(source: &str) -> Vec<bool> {
    let lines: Vec<&str> = source.lines().collect();
    let mut mask = vec![false; lines.len()];
    let mut depth: i64 = 0;
    // Brace depths at which an active #[cfg(test)] block opened.
    let mut regions: Vec<i64> = Vec::new();
    // Saw the attribute; waiting for the item's opening brace (or a
    // `;` ending a braceless item like `#[cfg(test)] use …;`).
    let mut pending = false;
    for (i, raw) in lines.iter().enumerate() {
        let code = code_portion(raw);
        if code.contains("#[cfg(test)]") {
            pending = true;
        }
        mask[i] = pending || !regions.is_empty();
        for c in code.chars() {
            match c {
                '{' => {
                    depth += 1;
                    if pending {
                        regions.push(depth);
                        pending = false;
                    }
                }
                '}' => {
                    if regions.last() == Some(&depth) {
                        regions.pop();
                    }
                    depth -= 1;
                }
                ';' => {
                    // A braceless cfg(test) item ends here.
                    pending = false;
                }
                _ => {}
            }
        }
    }
    mask
}

/// Lint one file's source text. `file` is the workspace-relative path
/// used both for reporting and for hot-path classification.
pub fn check_source(file: &str, source: &str, report: &mut LintReport) {
    let hot = HOT_PATHS.iter().any(|p| file.starts_with(p));
    let timed = TIMED_PATHS.iter().any(|p| file.starts_with(p));
    let spawny = SPAWN_PATHS.iter().any(|p| file.starts_with(p));
    let panic_rules = panic_needles();
    let timing_rules = timing_needles();
    let spawn_rules = spawn_needles();
    let todo_rules = todo_needles();

    let mask = test_mask(source);
    for (i, raw) in source.lines().enumerate() {
        let in_tests = mask[i];
        let trimmed = raw.trim();
        if is_comment(trimmed) {
            continue;
        }
        let line = i + 1;
        let mut check = |needles: &[(String, &'static str)], rule: &'static str| {
            for (needle, hint) in needles {
                if !trimmed.contains(needle.as_str()) {
                    continue;
                }
                if let Some(reason) = escape_for(raw, rule) {
                    report.escapes.push(Escape {
                        file: file.into(),
                        line,
                        rule,
                        reason,
                    });
                } else {
                    report.violations.push(Violation {
                        file: file.into(),
                        line,
                        rule,
                        excerpt: trimmed.to_string(),
                        hint,
                    });
                }
                return;
            }
        };
        if hot && !in_tests {
            check(&panic_rules, RULE_NO_PANIC);
        }
        if timed && !in_tests {
            check(&timing_rules, RULE_NO_RAW_TIMING);
        }
        if spawny && !in_tests {
            check(&spawn_rules, RULE_NO_BARE_SPAWN);
        }
        check(&todo_rules, RULE_NO_TODO);
    }
    report.files_checked += 1;
}

/// Public error-enum declarations found in `source`, for the
/// `display-impl` rule.
fn declared_error_enums(source: &str) -> Vec<String> {
    let mut out = Vec::new();
    for raw in source.lines() {
        let trimmed = raw.trim();
        if is_comment(trimmed) {
            continue;
        }
        let Some(rest) = trimmed.strip_prefix("pub enum ") else {
            continue;
        };
        let name: String = rest
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if name.ends_with("Error") {
            out.push(name);
        }
    }
    out
}

fn implements_display(source: &str, name: &str) -> bool {
    [
        "impl fmt::Display for ",
        "impl std::fmt::Display for ",
        "impl Display for ",
    ]
    .iter()
    .any(|head| source.contains(&[head, name].concat()))
}

/// Walk `root` collecting workspace `.rs` files, skipping `target/`,
/// `shims/` (vendored reimplementations) and VCS metadata. Paths are
/// returned workspace-relative with `/` separators, sorted.
pub fn workspace_sources(root: &Path) -> io::Result<Vec<(String, PathBuf)>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name == "shims" || name.starts_with('.') {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy())
                    .collect::<Vec<_>>()
                    .join("/");
                files.push((rel, path));
            }
        }
    }
    files.sort();
    Ok(files)
}

/// The crate-level grouping key for `display-impl`: the containing
/// crate directory, or `"<root>"` for workspace-level sources.
fn crate_dir_of(rel: &str) -> String {
    rel.strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .map(|c| ["crates/", c].concat())
        .unwrap_or_else(|| "<root>".into())
}

/// Lint every workspace source under `root`.
pub fn lint_workspace(root: &Path) -> io::Result<LintReport> {
    let mut report = LintReport::default();
    let mut sources = Vec::new();
    // crate dir (e.g. "crates/olap") → concatenated sources, so the
    // display-impl rule can look for the impl anywhere in the crate.
    let mut crate_sources: BTreeMap<String, String> = BTreeMap::new();
    for (rel, path) in workspace_sources(root)? {
        let source = fs::read_to_string(&path)?;
        check_source(&rel, &source, &mut report);
        crate_sources
            .entry(crate_dir_of(&rel))
            .or_default()
            .push_str(&source);
        sources.push((rel, source));
    }
    for (rel, source) in &sources {
        let whole_crate = crate_sources
            .get(&crate_dir_of(rel))
            .map(String::as_str)
            .unwrap_or("");
        for name in declared_error_enums(source) {
            if implements_display(whole_crate, &name) {
                continue;
            }
            if let Some(reason) = escape_for(source, RULE_DISPLAY_IMPL) {
                report.escapes.push(Escape {
                    file: rel.clone(),
                    line: 0,
                    rule: RULE_DISPLAY_IMPL,
                    reason,
                });
            } else {
                report.violations.push(Violation {
                    file: rel.clone(),
                    line: 0,
                    rule: RULE_DISPLAY_IMPL,
                    excerpt: format!("pub enum {name} has no Display impl in its crate"),
                    hint: "implement std::fmt::Display so callers can render the error",
                });
            }
        }
    }
    report
        .violations
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn needle_line(kind: &str) -> String {
        // Build forbidden source text at runtime so this test file
        // itself stays clean under the lint.
        match kind {
            "unwrap" => ["let x = foo.", "unwrap", "();"].concat(),
            "todo" => ["    ", "todo", "!(\"later\")"].concat(),
            "dbg" => ["    ", "dbg", "!(x);"].concat(),
            _ => unreachable!("unknown kind"),
        }
    }

    #[test]
    fn hot_path_unwrap_is_flagged_only_outside_tests() {
        let src = format!(
            "fn f() {{\n{}\n}}\n#[cfg(test)]\nmod tests {{\n{}\n}}\n",
            needle_line("unwrap"),
            needle_line("unwrap"),
        );
        let mut report = LintReport::default();
        check_source("crates/serve/src/service.rs", &src, &mut report);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].rule, RULE_NO_PANIC);
        assert_eq!(report.violations[0].line, 2);

        // The same file outside the hot path is fine.
        let mut cold = LintReport::default();
        check_source("crates/mining/src/lib.rs", &src, &mut cold);
        assert!(cold.violations.is_empty());
    }

    #[test]
    fn todo_and_dbg_are_flagged_everywhere() {
        let src = format!(
            "fn f() {{\n{}\n{}\n}}\n",
            needle_line("todo"),
            needle_line("dbg")
        );
        let mut report = LintReport::default();
        check_source("crates/mining/src/lib.rs", &src, &mut report);
        assert_eq!(report.violations.len(), 2);
        assert!(report.violations.iter().all(|v| v.rule == RULE_NO_TODO));
    }

    #[test]
    fn raw_timing_is_flagged_in_serving_code() {
        // Build the forbidden call at runtime so this file stays clean.
        let raw = ["let t = std::time::Instant::", "now();"].concat();
        let escaped = [
            "let start = Instant::",
            "now(); // lint:allow(no-raw-timing) — deadline math",
        ]
        .concat();
        let src = format!("fn f() {{\n{raw}\n{escaped}\n}}\n#[cfg(test)]\nmod t {{\n{raw}\n}}\n");

        let mut report = LintReport::default();
        check_source("crates/serve/src/service.rs", &src, &mut report);
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        assert_eq!(report.violations[0].rule, RULE_NO_RAW_TIMING);
        assert_eq!(report.violations[0].line, 2);
        assert_eq!(report.escapes.len(), 1);
        assert_eq!(report.escapes[0].rule, RULE_NO_RAW_TIMING);

        // olap is also a timed path; obs itself (the sanctioned clock)
        // and everything else are not.
        let mut olap = LintReport::default();
        check_source("crates/olap/src/cube.rs", &src, &mut olap);
        assert_eq!(olap.violations.len(), 1);
        let mut obs_crate = LintReport::default();
        check_source("crates/obs/src/profile.rs", &src, &mut obs_crate);
        assert!(obs_crate.violations.is_empty());
    }

    #[test]
    fn bare_spawn_is_flagged_but_builder_and_scope_are_not() {
        // Built at runtime so this test file stays clean.
        let bare = ["let h = std::thread::", "spawn", "(move || work());"].concat();
        let builder = "let h = thread::Builder::new().name(n).spawn(body);";
        let scoped = "scope.spawn(|| chunk_cells(rows));";
        let src = format!("fn f() {{\n{bare}\n{builder}\n{scoped}\n}}\n");

        let mut report = LintReport::default();
        check_source("crates/serve/src/service.rs", &src, &mut report);
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        assert_eq!(report.violations[0].rule, RULE_NO_BARE_SPAWN);
        assert_eq!(report.violations[0].line, 2);

        // olap is also covered; everything else is not.
        let mut olap = LintReport::default();
        check_source("crates/olap/src/cube.rs", &src, &mut olap);
        assert_eq!(olap.violations.len(), 1);
        let mut cold = LintReport::default();
        check_source("crates/viz/src/lib.rs", &src, &mut cold);
        assert!(cold.violations.is_empty());

        // `#[cfg(test)]` code may spawn bare threads for drills.
        let test_src = format!("#[cfg(test)]\nmod t {{\n{bare}\n}}\n");
        let mut tests_only = LintReport::default();
        check_source("crates/serve/src/service.rs", &test_src, &mut tests_only);
        assert!(tests_only.violations.is_empty());
    }

    #[test]
    fn comments_are_skipped_and_escapes_are_recorded() {
        let commented = ["// foo.", "unwrap", "();"].concat();
        let escaped = [
            "let x = spawn().",
            "expect",
            "(\"spawn\"); // lint:allow(no-panic): startup only",
        ]
        .concat();
        let src = format!("{commented}\n{escaped}\n");
        let mut report = LintReport::default();
        check_source("crates/serve/src/service.rs", &src, &mut report);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert_eq!(report.escapes.len(), 1);
        assert_eq!(report.escapes[0].rule, RULE_NO_PANIC);
        assert_eq!(report.escapes_in("serve"), 1);
    }

    #[test]
    fn reasoned_escape_parses_rule_and_reason() {
        let line = [
            "let x = f().",
            "unwrap",
            "(); // lint:allow(no-panic, \"poisoning is unrecoverable (by design), abort\")",
        ]
        .concat();
        let got = escape_for(&line, "no-panic").expect("escape present");
        assert_eq!(
            got.as_deref(),
            Some("poisoning is unrecoverable (by design), abort"),
            "quoted reason may contain parens and commas"
        );
        // Bare and legacy forms are honoured but carry no reason.
        assert_eq!(
            escape_for("// lint:allow(no-panic)", "no-panic"),
            Some(None)
        );
        assert_eq!(
            escape_for("// lint:allow(no-panic): startup only", "no-panic"),
            Some(None)
        );
        // A different rule's escape does not match.
        assert_eq!(escape_for("// lint:allow(no-todo)", "no-panic"), None);
    }

    #[test]
    fn reasoned_escape_is_recorded_with_reason() {
        let escaped = [
            "let x = g().",
            "expect",
            "(\"g\"); // lint:allow(no-panic, \"startup only\")",
        ]
        .concat();
        let src = format!("fn f() {{\n{escaped}\n}}\n");
        let mut report = LintReport::default();
        check_source("crates/serve/src/service.rs", &src, &mut report);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert_eq!(report.escapes.len(), 1);
        assert_eq!(report.escapes[0].reason.as_deref(), Some("startup only"));
    }

    #[test]
    fn mid_file_test_module_does_not_exempt_trailing_code() {
        // Regression: the old scanner latched `in_tests` at the first
        // `#[cfg(test)]` and exempted everything to EOF.
        let src = format!(
            "#[cfg(test)]\nmod tests {{\n{}\n}}\nfn f() {{\n{}\n}}\n",
            needle_line("unwrap"),
            needle_line("unwrap"),
        );
        let mut report = LintReport::default();
        check_source("crates/serve/src/service.rs", &src, &mut report);
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        assert_eq!(
            report.violations[0].line, 6,
            "only the post-module line is live code"
        );
    }

    #[test]
    fn test_mask_tracks_braces_not_eof() {
        let src = "fn a() {}\n#[cfg(test)]\nmod t {\n  fn b() {}\n}\nfn c() {}\n";
        assert_eq!(test_mask(src), vec![false, true, true, true, true, false]);
        // Braces inside strings and comments don't confuse the depth.
        let tricky = "#[cfg(test)]\nfn t() {\n  let s = \"}}}\"; // }\n}\nfn live() {}\n";
        assert_eq!(test_mask(tricky), vec![true, true, true, true, false]);
        // A braceless cfg(test) item exempts only its own line.
        let braceless = "#[cfg(test)]\nuse helper::*;\nfn live() {}\n";
        assert_eq!(test_mask(braceless), vec![true, true, false]);
    }

    #[test]
    fn error_enums_need_display() {
        let decl = "pub enum FrobError { A, B }";
        assert_eq!(declared_error_enums(decl), vec!["FrobError"]);
        assert!(!implements_display(decl, "FrobError"));
        let with_impl = format!("{decl}\nimpl fmt::Display for FrobError {{}}");
        assert!(implements_display(&with_impl, "FrobError"));
        // Non-error enums are ignored.
        assert!(declared_error_enums("pub enum Shape { X }").is_empty());
    }
}
