//! Per-function lock-discipline checks: the static complement to the
//! runtime rank table in `obs::lockrank`.
//!
//! Lock *order* is checked in one place only: every
//! `RankedMutex`/`RankedRwLock` acquisition asserts strictly ascending
//! [`obs::LockRank`] at runtime, exactly and across crates, in every
//! debug build. This pass covers what that check cannot observe. It
//! parses every crate's source heuristically — no rustc, no syn —
//! extracting lock declarations with their ranks and, inside each
//! function, how far every guard's scope extends (brace depth,
//! `drop(guard)`, lock accessors, loop bindings over lock
//! collections). It reports, as typed [`Diagnostic`]s in the stable
//! `A3xx` band:
//!
//! * **A301** — guards held across blocking operations (channel
//!   recv, thread join, sleep, condvar waits, disk I/O,
//!   `fault::point` sites).
//! * **A302** — guards held across `catch_unwind`.
//! * **A303** — unranked lock fields in crates under rank
//!   discipline ([`RANKED_CRATES`]): neither a
//!   `RankedMutex`/`RankedRwLock` nor a `// lock:rank(Name)`
//!   annotation.
//!
//! Deliberate A301/A302 patterns are escaped in place with
//! `lint:allow(A301, "reason")`, sharing the lint module's escape
//! grammar; the escapes surface in `repo-lint`'s escape table.
//!
//! Ranks are read from `RankedMutex::new(LockRank::X, "crate.name",
//! …)` constructor calls — matched to field declarations by the
//! name's last dot-segment or by a `field:` prefix on the same
//! logical line — and from `lock:rank(X)` comment annotations. The
//! `lock_conformance` integration test checks that every extracted
//! rank parses into the runtime table and that every runtime rank is
//! backed by a declared lock.

use crate::diag::{Code, Diagnostic, Severity};
use crate::lint::{self, escape_for, test_mask, workspace_sources, Escape};
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::Path;

/// Crates whose locks must carry a rank (A303 fires on bare
/// `Mutex`/`RwLock` fields here).
pub const RANKED_CRATES: [&str; 4] = ["serve", "segstore", "warehouse", "oplog"];

/// One lock declaration discovered in the source.
#[derive(Debug, Clone)]
pub struct LockDecl {
    /// Canonical id: the constructor's name string (`"serve.flights"`)
    /// when one exists, else `"<crate>.<field>"`.
    pub id: String,
    /// Rank name from the constructor or `lock:rank(...)` annotation.
    pub rank: Option<String>,
    /// Workspace-relative file of the field declaration.
    pub file: String,
    /// 1-based line of the field declaration.
    pub line: usize,
    /// Declared via the ranked wrappers (vs a bare `std::sync` lock).
    pub ranked_wrapper: bool,
    /// The struct-field (or binding) name.
    pub field: String,
    /// Crate the declaration lives in.
    pub krate: String,
}

/// One audit finding: a typed diagnostic pinned to a file and line.
#[derive(Debug, Clone)]
pub struct LockFinding {
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// The coded diagnostic.
    pub diagnostic: Diagnostic,
}

/// Full result of a lock audit.
#[derive(Debug, Clone, Default)]
pub struct LockAudit {
    /// Every lock declaration found.
    pub decls: Vec<LockDecl>,
    /// A3xx findings, errors first.
    pub findings: Vec<LockFinding>,
    /// `lint:allow(A3xx, …)` escapes honoured during the audit.
    pub escapes: Vec<Escape>,
}

impl LockAudit {
    /// Findings with error severity (A303).
    pub fn errors(&self) -> Vec<&LockFinding> {
        self.findings
            .iter()
            .filter(|f| f.diagnostic.severity == Severity::Error)
            .collect()
    }

    /// Findings with warning severity (A301, A302).
    pub fn warnings(&self) -> Vec<&LockFinding> {
        self.findings
            .iter()
            .filter(|f| f.diagnostic.severity == Severity::Warning)
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Parsing model
// ---------------------------------------------------------------------------

/// One logical source line: physical lines merged while parentheses
/// stay unbalanced or the next line continues a method chain.
struct LogicalLine {
    /// 1-based first physical line.
    line: usize,
    /// Raw text (strings and comments intact — escape checks need them).
    raw: String,
    /// Literal-stripped, comment-truncated text (needle checks).
    code: String,
}

fn paren_balance(code: &str) -> i64 {
    let mut b = 0i64;
    for c in code.chars() {
        match c {
            '(' | '[' => b += 1,
            ')' | ']' => b -= 1,
            _ => {}
        }
    }
    b
}

fn logical_lines(source: &str) -> Vec<LogicalLine> {
    let physical: Vec<&str> = source.lines().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < physical.len() {
        let start = i;
        let mut raw = physical[i].to_string();
        let mut code = lint::code_portion(physical[i]);
        let mut merged = 0;
        while merged < 80 && i + 1 < physical.len() {
            let next_trim = physical[i + 1].trim_start();
            let cont = paren_balance(&code) > 0
                || next_trim.starts_with('.')
                || next_trim.starts_with('?');
            if !cont {
                break;
            }
            i += 1;
            merged += 1;
            raw.push(' ');
            raw.push_str(physical[i]);
            code.push(' ');
            code.push_str(&lint::code_portion(physical[i]));
        }
        out.push(LogicalLine {
            line: start + 1,
            raw,
            code,
        });
        i += 1;
    }
    out
}

fn crate_of(rel: &str) -> Option<String> {
    let rest = rel.strip_prefix("crates/")?;
    let krate = rest.split('/').next()?;
    // Integration tests and benches model *client* locking, not the
    // library's; the audit covers library and bin sources.
    if rest.contains("/tests/") || rest.contains("/benches/") {
        return None;
    }
    Some(krate.to_string())
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Last `.`-separated receiver component before byte offset `at` in
/// `code`, e.g. `self.shared.warehouse` at `.read()` → `warehouse`,
/// `self.shard(fp)` at `.lock()` → `shard()`.
fn receiver_component(code: &str, at: usize) -> Option<String> {
    let bytes = code.as_bytes();
    let end = at;
    // Skip a trailing call/index suffix so `shard(fp)` keeps its name.
    if end > 0 && (bytes[end - 1] == b')' || bytes[end - 1] == b']') {
        let close = bytes[end - 1];
        let open = if close == b')' { b'(' } else { b'[' };
        let mut depth = 0i64;
        let mut j = end;
        while j > 0 {
            j -= 1;
            if bytes[j] == close {
                depth += 1;
            } else if bytes[j] == open {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
        }
        let mut k = j;
        while k > 0 && is_ident_char(bytes[k - 1] as char) {
            k -= 1;
        }
        if k == j {
            return None; // e.g. `).lock()` on a parenthesised expr
        }
        return Some(format!("{}()", &code[k..j]));
    }
    let mut startpos = end;
    while startpos > 0 && is_ident_char(bytes[startpos - 1] as char) {
        startpos -= 1;
    }
    if startpos == end {
        return None;
    }
    Some(code[startpos..end].to_string())
}

/// Find each occurrence of `needle` in `code` that is preceded by a
/// receiver expression (so `.lock()` matches, `lock()` alone does not
/// unless free-standing is allowed by the caller).
fn find_needle(code: &str, needle: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = code[from..].find(needle) {
        out.push(from + pos);
        from += pos + needle.len();
    }
    out
}

// ---------------------------------------------------------------------------
// Pass 1: declarations and functions
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct FnInfo {
    krate: String,
    name: String,
    file: String,
    /// Logical body lines (line number, raw, code).
    body: Vec<(usize, String, String)>,
    /// Declared to return `&RankedMutex<…>` / `&RankedRwLock<…>`.
    returns_lock_ref: bool,
}

#[derive(Debug, Default)]
struct CrateTable {
    /// lock field name → lock id (within this crate).
    lock_fields: BTreeMap<String, String>,
    /// accessor fn name → lock id.
    accessors: BTreeMap<String, String>,
}

#[derive(Debug, Default)]
struct World {
    fns: Vec<FnInfo>,
    crates: BTreeMap<String, CrateTable>,
    decls: Vec<LockDecl>,
}

/// `Some(ranked_wrapper)` when `ty` is a mutex or reader-writer lock.
fn lock_type(ty: &str) -> Option<bool> {
    // Ranked* contains the bare names as substrings.
    if ty.contains("RankedMutex<") || ty.contains("RankedRwLock<") {
        Some(true)
    } else if ty.contains("Mutex<") || ty.contains("RwLock<") {
        Some(false)
    } else {
        None
    }
}

/// Extract every `(rank, name, field_prefix)` fact from
/// `Ranked{Mutex,RwLock}::new(LockRank::X, "crate.name", …)` calls on a
/// raw merged line (a merged struct literal can hold several).
/// `field_prefix` is the `ident:` immediately before the constructor,
/// when present.
fn constructor_facts(raw: &str) -> Vec<(String, String, Option<String>)> {
    let mut positions: Vec<usize> = Vec::new();
    for needle in ["RankedMutex::new(", "RankedRwLock::new("] {
        positions.extend(find_needle(raw, needle));
    }
    positions.sort_unstable();
    let mut out = Vec::new();
    for pos in positions {
        let after = &raw[pos..];
        let Some(rank_at) = after.find("LockRank::") else {
            continue;
        };
        let rank: String = after[rank_at + "LockRank::".len()..]
            .chars()
            .take_while(|c| is_ident_char(*c))
            .collect();
        let Some(q1) = after.find('"') else { continue };
        let rest = &after[q1 + 1..];
        let Some(q2) = rest.find('"') else { continue };
        let name = rest[..q2].to_string();
        // `ident:` or `ident =` prefix before the constructor?
        let before = raw[..pos].trim_end();
        let before = before
            .trim_end_matches("Arc::new(")
            .trim_end_matches(|c: char| c.is_whitespace());
        let field = before
            .strip_suffix(':')
            .or_else(|| before.strip_suffix('='))
            .map(|b| {
                b.trim_end()
                    .rsplit(|c: char| !is_ident_char(c))
                    .next()
                    .unwrap_or("")
                    .to_string()
            })
            .filter(|f| !f.is_empty() && f != "mut");
        if !rank.is_empty() && !name.is_empty() {
            out.push((rank, name, field));
        }
    }
    out
}

fn pass1(files: &[(String, String)]) -> World {
    let mut world = World::default();
    // (crate, field, ranked, file, line, annot_rank)
    type RawField = (String, String, bool, String, usize, Option<String>);
    let mut raw_fields: Vec<RawField> = Vec::new();
    // crate → field/name-segment → (rank, canonical name)
    let mut ctor_by_field: BTreeMap<String, BTreeMap<String, (String, String)>> = BTreeMap::new();

    for (rel, source) in files {
        let Some(krate) = crate_of(rel) else { continue };
        let mask = test_mask(source);
        let lines = logical_lines(source);
        world.crates.entry(krate.clone()).or_default();

        let mut depth = 0i64;
        let mut pending_fn: Option<(String, bool)> = None;
        let mut open_fn: Option<(usize, i64)> = None; // (fns index, body depth)

        for ll in &lines {
            if mask.get(ll.line - 1).copied().unwrap_or(false) {
                // Still track braces so depths stay consistent.
                for c in ll.code.chars() {
                    match c {
                        '{' => depth += 1,
                        '}' => depth -= 1,
                        _ => {}
                    }
                }
                continue;
            }
            let trimmed = ll.code.trim();

            // Lock field declarations inside structs.
            let decl = trimmed.strip_prefix("pub ").unwrap_or(trimmed);
            if depth >= 1 && !decl.contains("::new(") && !decl.starts_with("fn ") {
                if let Some((name, ty)) = decl.split_once(':') {
                    let name = name.trim();
                    let ty = ty.trim().trim_end_matches(',');
                    if !name.is_empty()
                        && name.chars().all(is_ident_char)
                        && !ty.is_empty()
                        && !ty.contains("=>")
                    {
                        if let Some(ranked) = lock_type(ty) {
                            let annot = ll.raw.find("lock:rank(").map(|p| {
                                ll.raw[p + "lock:rank(".len()..]
                                    .chars()
                                    .take_while(|c| is_ident_char(*c))
                                    .collect::<String>()
                            });
                            raw_fields.push((
                                krate.clone(),
                                name.to_string(),
                                ranked,
                                rel.clone(),
                                ll.line,
                                annot,
                            ));
                        }
                    }
                }
            }

            // Rank constructors.
            for (rank, name, field) in constructor_facts(&ll.raw) {
                let key =
                    field.unwrap_or_else(|| name.rsplit('.').next().unwrap_or(&name).to_string());
                ctor_by_field
                    .entry(krate.clone())
                    .or_default()
                    .insert(key, (rank.clone(), name.clone()));
                // The name's last segment is also a key, so both
                // `inner: RankedMutex::new(…, "serve.breaker", …)` and
                // plain-name matches resolve.
                let seg = name.rsplit('.').next().unwrap_or(&name).to_string();
                ctor_by_field
                    .entry(krate.clone())
                    .or_default()
                    .entry(seg)
                    .or_insert((rank, name));
            }

            // Function signatures.
            if let Some(fnpos) = find_fn_name(trimmed) {
                let returns_lock_ref =
                    trimmed.contains("-> &RankedMutex<") || trimmed.contains("-> &RankedRwLock<");
                pending_fn = Some((fnpos, returns_lock_ref));
                if trimmed.contains(';') && !trimmed.contains('{') {
                    pending_fn = None; // trait method declaration
                }
            }

            // Brace walk: open and close fns.
            for c in ll.code.chars() {
                match c {
                    '{' => {
                        depth += 1;
                        if let Some((name, ret)) = pending_fn.take() {
                            if open_fn.is_none() {
                                world.fns.push(FnInfo {
                                    krate: krate.clone(),
                                    name,
                                    file: rel.clone(),
                                    body: Vec::new(),
                                    returns_lock_ref: ret,
                                });
                                open_fn = Some((world.fns.len() - 1, depth));
                            }
                        }
                    }
                    '}' => {
                        if let Some((_, d)) = open_fn {
                            if depth == d {
                                open_fn = None;
                            }
                        }
                        depth -= 1;
                    }
                    _ => {}
                }
            }
            // The signature line stays in the body: acquisitions can
            // share the brace line.
            if let Some((idx, _)) = open_fn {
                world.fns[idx]
                    .body
                    .push((ll.line, ll.raw.clone(), ll.code.clone()));
            }
        }
    }

    // Fold fields + constructors into LockDecls.
    for (krate, field, ranked, file, line, annot) in raw_fields {
        let ctor = ctor_by_field
            .get(&krate)
            .and_then(|m| m.get(&field))
            .cloned();
        let (rank, id) = match (annot, ctor) {
            (Some(a), Some((_, name))) => (Some(a), name),
            (Some(a), None) => (Some(a), format!("{krate}.{field}")),
            (None, Some((r, name))) => (Some(r), name),
            (None, None) => (None, format!("{krate}.{field}")),
        };
        let table = world.crates.entry(krate.clone()).or_default();
        table.lock_fields.insert(field.clone(), id.clone());
        world.decls.push(LockDecl {
            id,
            rank,
            file,
            line,
            ranked_wrapper: ranked,
            field,
            krate,
        });
    }
    // Dedup decls by (crate, id): generics make some fields repeat.
    let mut seen = BTreeSet::new();
    world
        .decls
        .retain(|d| seen.insert((d.krate.clone(), d.id.clone(), d.file.clone())));

    // Resolve accessor fns (return `&RankedMutex<…>`) to the lock
    // field their body mentions.
    let mut accessors: Vec<(String, String, String)> = Vec::new();
    for f in &world.fns {
        if !f.returns_lock_ref {
            continue;
        }
        if let Some(table) = world.crates.get(&f.krate) {
            for (_, _, code) in &f.body {
                for (field, id) in &table.lock_fields {
                    if code.contains(&format!("self.{field}")) {
                        accessors.push((f.krate.clone(), f.name.clone(), id.clone()));
                    }
                }
            }
        }
    }
    for (krate, name, id) in accessors {
        world
            .crates
            .entry(krate)
            .or_default()
            .accessors
            .insert(name, id);
    }
    world
}

/// `fn name` on a signature line → the name, skipping `fn` keywords in
/// strings (already stripped) and closures.
fn find_fn_name(code: &str) -> Option<String> {
    let pos = code.find("fn ")?;
    if pos > 0 {
        let prev = code.as_bytes()[pos - 1] as char;
        if is_ident_char(prev) {
            return None;
        }
    }
    let rest = &code[pos + 3..];
    let name: String = rest.chars().take_while(|c| is_ident_char(*c)).collect();
    if name.is_empty() {
        return None;
    }
    rest[name.len()..]
        .trim_start()
        .starts_with(['(', '<'])
        .then_some(name)
}

// ---------------------------------------------------------------------------
// Pass 2: per-function guard scopes
// ---------------------------------------------------------------------------

const ACQUIRE_NEEDLES: [&str; 4] = [".try_lock()", ".lock()", ".write()", ".read()"];

const BLOCKING_NEEDLES: [&str; 17] = [
    ".recv()",
    ".recv_timeout(",
    ".join()",
    "thread::sleep",
    ".wait(",
    ".wait_timeout(",
    "fault::point(",
    "File::open(",
    "File::create(",
    "OpenOptions::new(",
    ".write_all(",
    ".read_to_end(",
    ".read_exact(",
    ".flush(",
    ".sync_all(",
    ".sync_data(",
    "fs::remove_file(",
];

/// Walk one function's body, tracking which guards are live, and
/// record A301/A302 findings and honoured escapes into `audit`.
fn check_fn(f: &FnInfo, table: &CrateTable, audit: &mut LockAudit) {
    // (lock, depth at open)
    let mut held: Vec<(String, i64)> = Vec::new();
    // let-bound guard var → lock, for `drop(var)`.
    let mut var_of: BTreeMap<String, String> = BTreeMap::new();
    let mut depth = 0i64;
    // for-loop / iterator bindings of lock collections: var → lock id.
    let mut loop_binds: BTreeMap<String, String> = BTreeMap::new();

    for (line, raw, code) in &f.body {
        let trimmed = code.trim();

        // `for shard in &self.shards` style bindings.
        if let Some(rest) = trimmed.strip_prefix("for ") {
            if let Some((var, src)) = rest.split_once(" in ") {
                let var = var.trim();
                if var.chars().all(is_ident_char) {
                    for (field, id) in &table.lock_fields {
                        if src.contains(field.as_str()) {
                            loop_binds.insert(var.to_string(), id.clone());
                        }
                    }
                }
            }
        }

        // drop(var) closes a guard.
        for pos in find_needle(code, "drop(") {
            let arg: String = code[pos + 5..]
                .chars()
                .take_while(|c| is_ident_char(*c))
                .collect();
            if let Some(lock) = var_of.get(&arg) {
                if let Some(pos) = held.iter().rposition(|(l, _)| l == lock) {
                    held.remove(pos);
                }
            }
        }

        // Acquisitions.
        let mut best: Vec<(usize, String, bool)> = Vec::new(); // (pos, lock, held)
        for needle in ACQUIRE_NEEDLES {
            for pos in find_needle(code, needle) {
                // `.lock()` also matches inside `.try_lock()`: skip
                // positions already claimed by a longer needle.
                if best
                    .iter()
                    .any(|(p, _, _)| pos >= *p && pos < p + ".try_lock()".len())
                {
                    continue;
                }
                let Some(recv) = receiver_component(code, pos) else {
                    continue;
                };
                let lock = if let Some(acc) = recv.strip_suffix("()") {
                    table.accessors.get(acc).cloned()
                } else if let Some(id) = table.lock_fields.get(&recv) {
                    Some(id.clone())
                } else if let Some(id) = loop_binds.get(&recv) {
                    Some(id.clone())
                } else if recv != "self" {
                    // closure param over a lock collection named
                    // earlier on the same merged line.
                    table
                        .lock_fields
                        .iter()
                        .find(|(field, _)| code[..pos].contains(field.as_str()))
                        .map(|(_, id)| id.clone())
                } else {
                    None
                };
                let Some(lock) = lock else { continue };
                let held = held_beyond_statement(code, pos + needle.len(), trimmed);
                best.push((pos, lock, held));
            }
        }
        best.sort_by_key(|(p, _, _)| *p);
        let bound_var = let_bound_var(trimmed);
        for (_, lock, held_beyond) in best {
            if held_beyond {
                if let Some(v) = &bound_var {
                    var_of.insert(v.clone(), lock.clone());
                }
                held.push((lock, depth));
            }
        }

        // Blocking operations and catch_unwind.
        let mut check = |rule: &'static str, kind: Code, what: String| {
            let escaped = escape_for(raw, rule);
            if let Some(reason) = &escaped {
                audit.escapes.push(Escape {
                    file: f.file.clone(),
                    line: *line,
                    rule,
                    reason: reason.clone(),
                });
            }
            if let (Some((h, _)), None) = (held.last(), escaped) {
                audit.findings.push(LockFinding {
                    file: f.file.clone(),
                    line: *line,
                    diagnostic: Diagnostic::warning(
                        kind,
                        format!("lock `{h}` held across {what} in `{}`", f.name),
                    ),
                });
            }
        };
        if let Some(needle) = BLOCKING_NEEDLES.iter().find(|n| code.contains(**n)) {
            check(
                "A301",
                Code::A301LockAcrossBlocking,
                format!("blocking `{}`", needle.trim_matches(['.', '('])),
            );
        }
        if code.contains("catch_unwind") {
            check(
                "A302",
                Code::A302LockAcrossCatchUnwind,
                "catch_unwind".to_string(),
            );
        }

        // Brace depth: guards opened deeper than the new depth close.
        for c in code.chars() {
            match c {
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            }
        }
        held.retain(|(_, open)| depth >= *open);
    }
}

/// The variable a `let` / `if let Some(x)` statement binds, when the
/// pattern is a simple identifier.
fn let_bound_var(trimmed: &str) -> Option<String> {
    let rest = trimmed
        .strip_prefix("if let ")
        .or_else(|| trimmed.strip_prefix("let "))?;
    let rest = rest.strip_prefix("mut ").unwrap_or(rest);
    let var: String = rest.chars().take_while(|c| is_ident_char(*c)).collect();
    (!var.is_empty() && rest[var.len()..].trim_start().starts_with('=')).then_some(var)
}

/// After an acquisition at `end`, does the guard outlive the
/// statement? Poison adapters are part of the acquisition; any other
/// chained call consumes the guard within the statement.
fn held_beyond_statement(code: &str, mut end: usize, trimmed: &str) -> bool {
    let bytes = code.as_bytes();
    loop {
        while end < bytes.len() && (bytes[end] as char).is_whitespace() {
            end += 1;
        }
        let rest = &code[end..];
        if rest.starts_with(".unwrap_or_else(")
            || rest.starts_with(".expect(")
            || rest.starts_with(".unwrap()")
        {
            // Skip the adapter's balanced parens.
            let open = rest.find('(').map(|p| end + p).unwrap_or(end);
            let mut depth = 0i64;
            let mut j = open;
            while j < bytes.len() {
                match bytes[j] as char {
                    '(' => depth += 1,
                    ')' => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            end = (j + 1).min(bytes.len());
            continue;
        }
        break;
    }
    let rest = code[end..].trim_start();
    let terminal = rest.is_empty() || rest.starts_with(';') || rest.starts_with(')');
    terminal && (trimmed.starts_with("let ") || trimmed.starts_with("if let "))
}

// ---------------------------------------------------------------------------
// Checks
// ---------------------------------------------------------------------------

/// Run the audit over in-memory `(workspace-relative path, source)`
/// pairs. This is the seam the fixture tests drive.
pub fn audit_sources(files: &[(String, String)]) -> LockAudit {
    let world = pass1(files);
    let mut audit = LockAudit {
        decls: world.decls.clone(),
        ..Default::default()
    };

    // A303: unranked locks in ranked crates.
    for d in &world.decls {
        if RANKED_CRATES.contains(&d.krate.as_str()) && d.rank.is_none() {
            audit.findings.push(LockFinding {
                file: d.file.clone(),
                line: d.line,
                diagnostic: Diagnostic::error(
                    Code::A303UnrankedLock,
                    format!(
                        "lock `{}` in ranked crate `{}` has no rank: use RankedMutex/RankedRwLock \
                         or annotate with `// lock:rank(Name)`",
                        d.id, d.krate
                    ),
                ),
            });
        }
    }

    // A301, A302: per-function guard scopes.
    for f in &world.fns {
        check_fn(f, &world.crates[&f.krate], &mut audit);
    }

    audit.findings.sort_by_key(|f| {
        (
            f.diagnostic.severity == Severity::Warning,
            f.file.clone(),
            f.line,
        )
    });
    audit
}

/// Audit every source file under `root` (the workspace directory).
pub fn audit_workspace(root: &Path) -> io::Result<LockAudit> {
    let mut files = Vec::new();
    for (rel, path) in workspace_sources(root)? {
        files.push((rel, fs::read_to_string(&path)?));
    }
    Ok(audit_sources(&files))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(path: &str, src: &str) -> (String, String) {
        (path.to_string(), src.to_string())
    }

    // Fixture sources are assembled with concat so this file never
    // trips its own needles.
    fn lockline(field: &str, rank: &str, name: &str) -> String {
        format!(
            "            {field}: RankedMutex::new(LockRank::{rank}, \"{name}\", X::default()),"
        )
    }

    fn fixture_crate(body_a: &str, body_b: &str) -> String {
        format!(
            "pub struct S {{\n    a: RankedMutex<X>,\n    b: RankedMutex<X>,\n}}\n\
             impl S {{\n    fn new() -> S {{\n        S {{\n{}\n{}\n        }}\n    }}\n\
             \n    fn fwd(&self) {{\n{body_a}\n    }}\n\
             \n    fn back(&self) {{\n{body_b}\n    }}\n}}\n",
            lockline("a", "Admission", "serve.a"),
            lockline("b", "Breaker", "serve.b"),
        )
    }

    #[test]
    fn decls_and_ranks_are_extracted() {
        let src = fixture_crate("", "");
        let audit = audit_sources(&[file("crates/serve/src/x.rs", &src)]);
        assert_eq!(audit.decls.len(), 2, "{:?}", audit.decls);
        let a = audit
            .decls
            .iter()
            .find(|d| d.id == "serve.a")
            .expect("serve.a");
        assert_eq!(a.rank.as_deref(), Some("Admission"));
        assert!(a.ranked_wrapper);
        assert!(audit.errors().is_empty(), "{:?}", audit.findings);
    }

    #[test]
    fn blocking_under_guard_is_a301_unless_escaped() {
        let recv = [".recv", "()"].concat();
        let body = format!("        let g = self.a.lock();\n        let x = rx{recv};");
        let src = fixture_crate(&body, "");
        let audit = audit_sources(&[file("crates/serve/src/x.rs", &src)]);
        let codes: Vec<&str> = audit
            .findings
            .iter()
            .map(|f| f.diagnostic.code.as_str())
            .collect();
        assert!(codes.contains(&"A301"), "{codes:?}");

        let escaped = format!(
            "        let g = self.a.lock();\n        let x = rx{recv}; // lint:allow(A301, \"drained at shutdown\")"
        );
        let src = fixture_crate(&escaped, "");
        let audit = audit_sources(&[file("crates/serve/src/x.rs", &src)]);
        assert!(
            !audit
                .findings
                .iter()
                .any(|f| f.diagnostic.code == Code::A301LockAcrossBlocking),
            "{:?}",
            audit.findings
        );
        assert_eq!(audit.escapes.len(), 1);
        assert_eq!(
            audit.escapes[0].reason.as_deref(),
            Some("drained at shutdown")
        );

        let sync = [".sync_data", "()"].concat();
        let body = format!("        let g = self.a.lock();\n        file{sync}?;");
        let src = fixture_crate(&body, "");
        let audit = audit_sources(&[file("crates/serve/src/x.rs", &src)]);
        assert!(
            audit
                .findings
                .iter()
                .any(|f| f.diagnostic.code == Code::A301LockAcrossBlocking),
            "{:?}",
            audit.findings
        );
    }

    #[test]
    fn catch_unwind_under_guard_is_a302() {
        let body =
            "        let g = self.a.lock();\n        let r = std::panic::catch_unwind(|| body());";
        let src = fixture_crate(body, "");
        let audit = audit_sources(&[file("crates/serve/src/x.rs", &src)]);
        assert!(
            audit
                .findings
                .iter()
                .any(|f| f.diagnostic.code == Code::A302LockAcrossCatchUnwind),
            "{:?}",
            audit.findings
        );
    }

    #[test]
    fn unranked_lock_in_ranked_crate_is_a303_unless_annotated() {
        let src = "pub struct S {\n    m: Mutex<u32>,\n}\n";
        let audit = audit_sources(&[file("crates/serve/src/x.rs", src)]);
        assert!(
            audit
                .findings
                .iter()
                .any(|f| f.diagnostic.code == Code::A303UnrankedLock),
            "{:?}",
            audit.findings
        );

        let annotated = "pub struct S {\n    m: Mutex<u32>, // lock:rank(FlightSlot)\n}\n";
        let audit = audit_sources(&[file("crates/serve/src/x.rs", annotated)]);
        assert!(audit.errors().is_empty(), "{:?}", audit.findings);
        assert_eq!(audit.decls[0].rank.as_deref(), Some("FlightSlot"));

        // Unranked crates are exempt.
        let audit = audit_sources(&[file("crates/kb/src/x.rs", src)]);
        assert!(audit.errors().is_empty(), "{:?}", audit.findings);
    }

    #[test]
    fn transient_chained_guard_does_not_stay_held() {
        let recv = [".recv", "()"].concat();
        let body = format!("        self.a.lock().poke();\n        let x = rx{recv};");
        let src = fixture_crate(&body, "");
        let audit = audit_sources(&[file("crates/serve/src/x.rs", &src)]);
        assert!(
            !audit
                .findings
                .iter()
                .any(|f| f.diagnostic.code == Code::A301LockAcrossBlocking),
            "statement-scoped guard released before the recv: {:?}",
            audit.findings
        );
    }

    #[test]
    fn drop_releases_the_guard() {
        let recv = [".recv", "()"].concat();
        let body =
            format!("        let a = self.a.lock();\n        drop(a);\n        let x = rx{recv};");
        let src = fixture_crate(&body, "");
        let audit = audit_sources(&[file("crates/serve/src/x.rs", &src)]);
        assert!(
            !audit
                .findings
                .iter()
                .any(|f| f.diagnostic.code == Code::A301LockAcrossBlocking),
            "{:?}",
            audit.findings
        );
    }
}
