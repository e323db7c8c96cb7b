//! Interprocedural lock-order auditor (the static half of the
//! concurrency discipline; `obs::lockrank` is the dynamic half).
//!
//! The pass parses every crate's source heuristically — no rustc, no
//! syn — extracting *lock-site facts*: which `Mutex`/`RwLock` field
//! each acquisition touches, how far the guard's scope extends
//! (tracked by brace depth), and whether the access is a read or a
//! write. Call edges are resolved by same-crate name resolution
//! (receiver field types, `impl` blocks, trait-method unions for
//! `dyn` dispatch), and the transitive closure yields the
//! interprocedural lock-acquisition graph. Over that graph it
//! reports, as typed [`Diagnostic`]s in the stable `A3xx` band:
//!
//! * **A300** — lock-order cycles, with the full witness path
//!   (function chain and acquisition site for every edge).
//! * **A301** — guards held across blocking operations (channel
//!   recv, thread join, sleep, condvar waits, disk I/O,
//!   `fault::point` sites).
//! * **A302** — guards held across `catch_unwind`.
//! * **A303** — unranked lock fields in crates under rank
//!   discipline ([`RANKED_CRATES`]): neither a
//!   `RankedMutex`/`RankedRwLock` nor a `// lock:rank(Name)`
//!   annotation.
//! * **A304** — acquisition edges that contradict the runtime
//!   [`obs::LockRank`] table (descending or equal rank).
//!
//! Deliberate A301/A302 patterns are escaped in place with
//! `lint:allow(A301, "reason")`, sharing the lint module's escape
//! grammar; the escapes surface in `repo-lint`'s escape table.
//!
//! Ranks are read from `RankedMutex::new(LockRank::X, "crate.name",
//! …)` constructor calls — matched to field declarations by the
//! name's last dot-segment or by a `field:` prefix on the same
//! logical line — and from `lock:rank(X)` comment annotations. The
//! derived topological order is diffed against the runtime table by
//! the `lock_conformance` integration test, so the static and
//! dynamic halves cannot drift apart silently.

use crate::diag::{Code, Diagnostic, Diagnostics, Severity};
use crate::lint::{self, escape_for, test_mask, workspace_sources, Escape};
use obs::LockRank;
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::Path;

/// Crates whose locks must carry a rank (A303 fires on bare
/// `Mutex`/`RwLock` fields here).
pub const RANKED_CRATES: [&str; 4] = ["serve", "segstore", "warehouse", "oplog"];

/// Whether a lock is a mutex or a reader-writer lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockKind {
    /// `Mutex` / `RankedMutex`.
    Mutex,
    /// `RwLock` / `RankedRwLock`.
    RwLock,
}

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
    /// Mutex or RwLock.
    pub kind: LockKind,
    /// Declared via the ranked wrappers (vs a bare `std::sync` lock).
    pub ranked_wrapper: bool,
    /// The struct-field (or binding) name.
    pub field: String,
    /// Crate the declaration lives in.
    pub krate: String,
}

/// One acquisition-order edge: `to` is acquired while `from` is held.
#[derive(Debug, Clone)]
pub struct LockEdge {
    /// Lock held at the acquisition site.
    pub from: String,
    /// Lock acquired under it.
    pub to: String,
    /// Workspace-relative file of the acquisition site.
    pub file: String,
    /// 1-based line of the acquisition site.
    pub line: usize,
    /// Function containing the site.
    pub func: String,
    /// Call chain from `func` to the function that acquires `to`
    /// (empty for a direct same-function acquisition).
    pub via: Vec<String>,
}

/// One audit finding: a typed diagnostic pinned to a file and line.
#[derive(Debug, Clone)]
pub struct LockFinding {
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line (0 when the finding is graph-global, e.g. a cycle).
    pub line: usize,
    /// The coded diagnostic.
    pub diagnostic: Diagnostic,
}

/// Full result of a lock audit.
#[derive(Debug, Clone, Default)]
pub struct LockAudit {
    /// Every lock declaration found.
    pub decls: Vec<LockDecl>,
    /// Deduplicated acquisition-order edges (first witness kept).
    pub edges: Vec<LockEdge>,
    /// A3xx findings, errors first.
    pub findings: Vec<LockFinding>,
    /// `lint:allow(A3xx, …)` escapes honoured during the audit.
    pub escapes: Vec<Escape>,
}

impl LockAudit {
    /// Findings with error severity (A300, A303, A304).
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

    /// The findings folded into the analyzer's [`Diagnostics`]
    /// machinery (file:line prefixed onto each message).
    pub fn diagnostics(&self) -> Diagnostics {
        let mut out = Diagnostics::default();
        for f in &self.findings {
            let mut d = f.diagnostic.clone();
            if f.line > 0 {
                d.message = format!("{}:{}: {}", f.file, f.line, d.message);
            } else if !f.file.is_empty() {
                d.message = format!("{}: {}", f.file, d.message);
            }
            out.push(d);
        }
        out
    }

    /// Distinct lock ids that appear in at least one edge or decl.
    pub fn lock_ids(&self) -> BTreeSet<String> {
        let mut ids: BTreeSet<String> = self.decls.iter().map(|d| d.id.clone()).collect();
        for e in &self.edges {
            ids.insert(e.from.clone());
            ids.insert(e.to.clone());
        }
        ids
    }

    /// Topological order of the locks constrained by the observed
    /// edges (Kahn's algorithm; alphabetical tie-break so the result
    /// is deterministic). Locks in a cycle are appended at the end in
    /// alphabetical order.
    pub fn derived_order(&self) -> Vec<String> {
        let ids = self.lock_ids();
        let mut indegree: BTreeMap<&str, usize> = ids.iter().map(|i| (i.as_str(), 0)).collect();
        let mut succ: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        for e in &self.edges {
            if succ.entry(&e.from).or_default().insert(&e.to) {
                *indegree.entry(&e.to).or_default() += 1;
            }
        }
        let mut order = Vec::new();
        let mut ready: BTreeSet<&str> = indegree
            .iter()
            .filter(|(_, d)| **d == 0)
            .map(|(i, _)| *i)
            .collect();
        while let Some(&next) = ready.iter().next() {
            ready.remove(next);
            order.push(next.to_string());
            for s in succ.get(next).cloned().unwrap_or_default() {
                let d = indegree.get_mut(s).expect("successor is a known lock");
                *d -= 1;
                if *d == 0 {
                    ready.insert(s);
                }
            }
        }
        for id in ids.iter() {
            if !order.iter().any(|o| o == id) {
                order.push(id.clone());
            }
        }
        order
    }

    /// Human-readable report for the CLIs.
    pub fn report(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "lock audit: {} locks, {} edges, {} findings\n",
            self.decls.len(),
            self.edges.len(),
            self.findings.len()
        ));
        out.push_str("\nlocks:\n");
        for d in &self.decls {
            out.push_str(&format!(
                "  {:<28} rank={:<12} {} ({}:{})\n",
                d.id,
                d.rank.as_deref().unwrap_or("-"),
                if d.kind == LockKind::Mutex {
                    "mutex"
                } else {
                    "rwlock"
                },
                d.file,
                d.line
            ));
        }
        out.push_str("\nedges (held -> acquired):\n");
        for e in &self.edges {
            let via = if e.via.is_empty() {
                String::new()
            } else {
                format!(" via {}", e.via.join(" -> "))
            };
            out.push_str(&format!(
                "  {} -> {}  [{} at {}:{}{}]\n",
                e.from, e.to, e.func, e.file, e.line, via
            ));
        }
        if !self.findings.is_empty() {
            out.push_str("\nfindings:\n");
            for f in &self.findings {
                out.push_str(&format!("  {}\n", self.render_finding(f)));
            }
        }
        out
    }

    fn render_finding(&self, f: &LockFinding) -> String {
        if f.line > 0 {
            format!(
                "{}[{}] {}:{}: {}",
                f.diagnostic.severity, f.diagnostic.code, f.file, f.line, f.diagnostic.message
            )
        } else {
            format!(
                "{}[{}] {}",
                f.diagnostic.severity, f.diagnostic.code, f.diagnostic.message
            )
        }
    }

    /// Graphviz rendering of the lock graph for the `lock-audit` CLI.
    pub fn dot(&self) -> String {
        let mut out = String::from("digraph locks {\n  rankdir=LR;\n");
        for d in &self.decls {
            out.push_str(&format!(
                "  \"{}\" [label=\"{}\\n{}\"];\n",
                d.id,
                d.id,
                d.rank.as_deref().unwrap_or("unranked")
            ));
        }
        let mut seen = BTreeSet::new();
        for e in &self.edges {
            if seen.insert((e.from.clone(), e.to.clone())) {
                out.push_str(&format!("  \"{}\" -> \"{}\";\n", e.from, e.to));
            }
        }
        out.push_str("}\n");
        out
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
// Pass 1: declarations, types, functions
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct FnInfo {
    krate: String,
    /// `impl` target type, or empty for a free function.
    type_name: String,
    name: String,
    file: String,
    /// Logical body lines (line number, raw, code).
    body: Vec<(usize, String, String)>,
    /// Declared to return `&RankedMutex<…>` / `&RankedRwLock<…>`.
    returns_lock_ref: bool,
}

#[derive(Debug, Default)]
struct CrateTable {
    /// field name → candidate owner types (across all structs).
    field_types: BTreeMap<String, BTreeSet<String>>,
    /// (type, method) → indices into `fns`.
    methods: BTreeMap<(String, String), Vec<usize>>,
    /// free/any fn name → indices into `fns`.
    by_name: BTreeMap<String, Vec<usize>>,
    /// trait name → implementing types.
    trait_impls: BTreeMap<String, BTreeSet<String>>,
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

/// Strip `Arc<`, `Box<`, `&`, `dyn `, `Option<` wrappers off a type
/// string and return the first path ident of what remains.
fn base_type(ty: &str) -> String {
    let mut t = ty.trim();
    loop {
        let before = t;
        for w in ["Arc<", "Box<", "Rc<", "Option<", "Vec<"] {
            if let Some(rest) = t.strip_prefix(w) {
                t = rest.trim_end_matches('>').trim();
            }
        }
        t = t.trim_start_matches('&').trim_start_matches("dyn ").trim();
        if t == before {
            break;
        }
    }
    t.split(|c: char| !is_ident_char(c))
        .find(|s| !s.is_empty())
        .unwrap_or("")
        .to_string()
}

fn lock_kind_of(ty: &str) -> Option<(LockKind, bool)> {
    // Order matters: Ranked* contains the bare names as substrings.
    if ty.contains("RankedMutex<") {
        Some((LockKind::Mutex, true))
    } else if ty.contains("RankedRwLock<") {
        Some((LockKind::RwLock, true))
    } else if ty.contains("Mutex<") {
        Some((LockKind::Mutex, false))
    } else if ty.contains("RwLock<") {
        Some((LockKind::RwLock, false))
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
    // (crate, field, kind, ranked, file, line, annot_rank)
    type RawField = (
        String,
        String,
        LockKind,
        bool,
        String,
        usize,
        Option<String>,
    );
    let mut raw_fields: Vec<RawField> = Vec::new();
    // crate → field/name-segment → (rank, canonical name)
    let mut ctor_by_field: BTreeMap<String, BTreeMap<String, (String, String)>> = BTreeMap::new();

    for (rel, source) in files {
        let Some(krate) = crate_of(rel) else { continue };
        let mask = test_mask(source);
        let lines = logical_lines(source);
        let table = world.crates.entry(krate.clone()).or_default();

        let mut impl_type = String::new();
        let mut impl_depth = 0i64;
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

            // impl blocks: `impl Foo {`, `impl Trait for Foo {`.
            if impl_type.is_empty() && trimmed.starts_with("impl") {
                let head = trimmed.trim_start_matches("impl").trim();
                let head = head.split('{').next().unwrap_or("").trim();
                // Drop generic params on `impl<T>`.
                let head = head.trim_start_matches(['<', '>']);
                if let Some((tr, ty)) = head.split_once(" for ") {
                    impl_type = base_type(ty);
                    let tr = base_type(tr);
                    if !tr.is_empty() && !impl_type.is_empty() {
                        table
                            .trait_impls
                            .entry(tr)
                            .or_default()
                            .insert(impl_type.clone());
                    }
                } else {
                    impl_type = base_type(head);
                }
                impl_depth = depth + 1;
            }

            // Field declarations (and type facts) inside structs.
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
                        let bt = base_type(ty);
                        if !bt.is_empty() && bt.chars().next().is_some_and(|c| c.is_uppercase()) {
                            table
                                .field_types
                                .entry(name.to_string())
                                .or_default()
                                .insert(bt);
                        }
                        if let Some((kind, ranked)) = lock_kind_of(ty) {
                            let annot = ll.raw.find("lock:rank(").map(|p| {
                                ll.raw[p + "lock:rank(".len()..]
                                    .chars()
                                    .take_while(|c| is_ident_char(*c))
                                    .collect::<String>()
                            });
                            raw_fields.push((
                                krate.clone(),
                                name.to_string(),
                                kind,
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

            // Brace walk: open fns, close fns and impl blocks.
            for c in ll.code.chars() {
                match c {
                    '{' => {
                        depth += 1;
                        if let Some((name, ret)) = pending_fn.take() {
                            if open_fn.is_none() {
                                world.fns.push(FnInfo {
                                    krate: krate.clone(),
                                    type_name: impl_type.clone(),
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
                        if !impl_type.is_empty() && depth == impl_depth {
                            impl_type.clear();
                        }
                        depth -= 1;
                    }
                    _ => {}
                }
            }
            if let Some((idx, _)) = open_fn {
                // The signature line itself is excluded from the body.
                if world.fns[idx].body.is_empty() && find_fn_name(trimmed).is_some() {
                    // still include: acquisitions can share the brace line
                }
                world.fns[idx]
                    .body
                    .push((ll.line, ll.raw.clone(), ll.code.clone()));
            }
        }
    }

    // Fold fields + constructors into LockDecls.
    for (krate, field, kind, ranked, file, line, annot) in raw_fields {
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
            kind,
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

    // Index functions.
    for (i, f) in world.fns.iter().enumerate() {
        let table = world.crates.entry(f.krate.clone()).or_default();
        table.by_name.entry(f.name.clone()).or_default().push(i);
        if !f.type_name.is_empty() {
            table
                .methods
                .entry((f.type_name.clone(), f.name.clone()))
                .or_default()
                .push(i);
        }
    }

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
// Pass 2: per-function events
// ---------------------------------------------------------------------------

const ACQUIRE_NEEDLES: [(&str, bool); 4] = [
    (".try_lock()", false),
    (".lock()", false),
    (".write()", true),
    (".read()", true),
];

const BLOCKING_NEEDLES: [&str; 16] = [
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
    "fs::remove_file(",
];

/// Methods so common on std containers that resolving them by bare
/// name would wire the call graph to the wrong crate fn.
const METHOD_DENYLIST: [&str; 18] = [
    "insert",
    "get",
    "get_mut",
    "push",
    "pop",
    "len",
    "is_empty",
    "clear",
    "iter",
    "clone",
    "next",
    "entry",
    "keys",
    "values",
    "retain",
    "extend",
    "drain",
    "contains_key",
];

#[derive(Debug, Clone)]
enum Event {
    /// (lock id, line, held-beyond-statement, let-bound guard var)
    Acquire(String, usize, bool, Option<String>),
    /// (fn indices, line)
    Call(Vec<usize>, usize),
    /// (needle, line, escaped)
    Blocking(&'static str, usize, bool),
    /// (line, escaped)
    CatchUnwind(usize, bool),
    /// `drop(var)` / end-of-scope for the named guard var.
    Release(String),
    /// Brace depth after this point fell to `depth`.
    Depth(i64),
}

struct FnEvents {
    events: Vec<Event>,
    /// Locks this fn acquires directly (for the fixpoint).
    direct: BTreeSet<String>,
    /// Callee fn indices.
    callees: BTreeSet<usize>,
}

fn analyze_fn(f: &FnInfo, world: &World, escapes: &mut Vec<Escape>) -> FnEvents {
    let table = world.crates.get(&f.krate).expect("crate table exists");
    let mut events = Vec::new();
    let mut direct = BTreeSet::new();
    let mut callees = BTreeSet::new();
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
            if !arg.is_empty() {
                events.push(Event::Release(arg));
            }
        }

        // Acquisitions.
        let mut best: Vec<(usize, String, bool)> = Vec::new(); // (pos, lock, held)
        for (needle, _is_rw) in ACQUIRE_NEEDLES {
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
        for (_, lock, held) in &best {
            direct.insert(lock.clone());
            events.push(Event::Acquire(
                lock.clone(),
                *line,
                *held,
                held.then(|| bound_var.clone()).flatten(),
            ));
        }

        // Calls (same-crate resolution).
        for idx in resolve_calls(code, &f.type_name, table, world) {
            callees.insert(idx);
            events.push(Event::Call(vec![idx], *line));
        }

        // Blocking operations and catch_unwind.
        for needle in BLOCKING_NEEDLES {
            if !code.contains(needle) {
                continue;
            }
            let escaped = escape_for(raw, "A301");
            if let Some(reason) = &escaped {
                escapes.push(Escape {
                    file: f.file.clone(),
                    line: *line,
                    rule: "A301",
                    reason: reason.clone(),
                });
            }
            events.push(Event::Blocking(needle, *line, escaped.is_some()));
            break;
        }
        if code.contains("catch_unwind") {
            let escaped = escape_for(raw, "A302");
            if let Some(reason) = &escaped {
                escapes.push(Escape {
                    file: f.file.clone(),
                    line: *line,
                    rule: "A302",
                    reason: reason.clone(),
                });
            }
            events.push(Event::CatchUnwind(*line, escaped.is_some()));
        }

        // Brace depth.
        for c in code.chars() {
            match c {
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            }
        }
        events.push(Event::Depth(depth));
    }
    FnEvents {
        events,
        direct,
        callees,
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

fn resolve_calls(code: &str, self_type: &str, table: &CrateTable, world: &World) -> Vec<usize> {
    let mut out = Vec::new();
    let bytes = code.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'(' && i > 0 {
            let mut s = i;
            while s > 0 && is_ident_char(bytes[s - 1] as char) {
                s -= 1;
            }
            if s < i {
                let name = &code[s..i];
                let before = if s > 0 { bytes[s - 1] as char } else { ' ' };
                if before == '!' || name == "fn" {
                    i += 1;
                    continue;
                }
                // Don't treat `fn name(` definitions as calls.
                let prefix = code[..s].trim_end();
                if prefix.ends_with("fn") {
                    i += 1;
                    continue;
                }
                let resolved: Vec<usize> = if before == '.' {
                    let recv = receiver_component(code, s - 1);
                    match recv.as_deref() {
                        Some("self") => lookup_method(table, self_type, name)
                            .or_else(|| table.by_name.get(name).cloned())
                            .unwrap_or_default(),
                        Some(r) => {
                            if METHOD_DENYLIST.contains(&name) {
                                Vec::new()
                            } else if let Some(r) = r.strip_suffix("()") {
                                // Chained accessor: type comes from the
                                // accessor's lock — skip, handled as an
                                // acquisition.
                                let _ = r;
                                Vec::new()
                            } else {
                                resolve_field_method(table, world, r, name)
                            }
                        }
                        None => Vec::new(),
                    }
                } else if before == ':' {
                    // `Type::name(` — the segment before `::`.
                    let head = code[..s.saturating_sub(2)]
                        .rsplit(|c: char| !is_ident_char(c))
                        .next()
                        .unwrap_or("");
                    table
                        .methods
                        .get(&(head.to_string(), name.to_string()))
                        .cloned()
                        .unwrap_or_default()
                } else if !is_ident_char(before) {
                    table
                        .by_name
                        .get(name)
                        .cloned()
                        .unwrap_or_default()
                        .into_iter()
                        // Bare-name calls resolve to free fns only;
                        // methods need a receiver.
                        .filter(|&idx| world.fns[idx].type_name.is_empty())
                        .collect()
                } else {
                    Vec::new()
                };
                out.extend(resolved);
            }
        }
        i += 1;
    }
    out.sort_unstable();
    out.dedup();
    out
}

fn lookup_method(table: &CrateTable, ty: &str, name: &str) -> Option<Vec<usize>> {
    if ty.is_empty() {
        return None;
    }
    table
        .methods
        .get(&(ty.to_string(), name.to_string()))
        .cloned()
}

/// `recv.name(…)` where `recv` is a struct field: resolve via the
/// field's candidate types (unioning trait impls for `dyn` fields).
fn resolve_field_method(table: &CrateTable, world: &World, recv: &str, name: &str) -> Vec<usize> {
    let Some(types) = table.field_types.get(recv) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for ty in types {
        if let Some(m) = table.methods.get(&(ty.clone(), name.to_string())) {
            out.extend(m.iter().copied());
        }
        // `dyn Trait` fields: union over implementing types.
        if let Some(impls) = table.trait_impls.get(ty) {
            for it in impls {
                if let Some(m) = table.methods.get(&(it.clone(), name.to_string())) {
                    out.extend(m.iter().copied());
                }
            }
        }
    }
    let _ = world;
    out
}

// ---------------------------------------------------------------------------
// Graph construction and checks
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

    // Per-function events.
    let fn_events: Vec<FnEvents> = world
        .fns
        .iter()
        .map(|f| analyze_fn(f, &world, &mut audit.escapes))
        .collect();

    // Fixpoint: transitive lock sets with a sample call path per lock.
    let mut trans: Vec<BTreeMap<String, Vec<String>>> = fn_events
        .iter()
        .map(|e| e.direct.iter().map(|l| (l.clone(), Vec::new())).collect())
        .collect();
    loop {
        let mut changed = false;
        for i in 0..world.fns.len() {
            let callees: Vec<usize> = fn_events[i].callees.iter().copied().collect();
            for c in callees {
                if c == i {
                    continue;
                }
                let add: Vec<(String, Vec<String>)> = trans[c]
                    .iter()
                    .map(|(l, path)| {
                        let mut p = vec![world.fns[c].name.clone()];
                        p.extend(path.iter().cloned());
                        (l.clone(), p)
                    })
                    .collect();
                for (l, p) in add {
                    if let std::collections::btree_map::Entry::Vacant(e) = trans[i].entry(l) {
                        e.insert(p);
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Walk events: edges, A301, A302.
    let mut edge_seen: BTreeSet<(String, String)> = BTreeSet::new();
    for (i, f) in world.fns.iter().enumerate() {
        // (lock, depth at open, synthetic release var)
        let mut held: Vec<(String, i64)> = Vec::new();
        let mut var_of: BTreeMap<String, String> = BTreeMap::new();
        let mut depth = 0i64;
        let mut last_line = 0usize;
        for ev in &fn_events[i].events {
            match ev {
                Event::Depth(d) => {
                    depth = *d;
                    held.retain(|(_, open)| depth >= *open);
                }
                Event::Release(var) => {
                    if let Some(lock) = var_of.get(var).cloned() {
                        if let Some(pos) = held.iter().rposition(|(l, _)| *l == lock) {
                            held.remove(pos);
                        }
                    }
                }
                Event::Acquire(lock, line, held_beyond, var) => {
                    last_line = *line;
                    for (h, _) in &held {
                        if edge_seen.insert((h.clone(), lock.clone())) {
                            audit.edges.push(LockEdge {
                                from: h.clone(),
                                to: lock.clone(),
                                file: f.file.clone(),
                                line: *line,
                                func: f.name.clone(),
                                via: Vec::new(),
                            });
                        }
                    }
                    if *held_beyond {
                        held.push((lock.clone(), depth));
                        if let Some(v) = var {
                            var_of.insert(v.clone(), lock.clone());
                        }
                    }
                }
                Event::Call(idxs, line) => {
                    last_line = *line;
                    if held.is_empty() {
                        continue;
                    }
                    for idx in idxs {
                        for (lock, path) in &trans[*idx] {
                            for (h, _) in &held {
                                if h == lock {
                                    continue; // re-entrant self edge: dynamic half's job
                                }
                                if edge_seen.insert((h.clone(), lock.clone())) {
                                    let mut via = vec![world.fns[*idx].name.clone()];
                                    via.extend(path.iter().cloned());
                                    audit.edges.push(LockEdge {
                                        from: h.clone(),
                                        to: lock.clone(),
                                        file: f.file.clone(),
                                        line: *line,
                                        func: f.name.clone(),
                                        via,
                                    });
                                }
                            }
                        }
                    }
                }
                Event::Blocking(needle, line, escaped) => {
                    last_line = *line;
                    if !held.is_empty() && !escaped {
                        let (h, _) = &held[held.len() - 1];
                        audit.findings.push(LockFinding {
                            file: f.file.clone(),
                            line: *line,
                            diagnostic: Diagnostic::warning(
                                Code::A301LockAcrossBlocking,
                                format!(
                                    "lock `{}` held across blocking `{}` in `{}`",
                                    h,
                                    needle.trim_matches(['.', '(']),
                                    f.name
                                ),
                            ),
                        });
                    }
                }
                Event::CatchUnwind(line, escaped) => {
                    last_line = *line;
                    if !held.is_empty() && !escaped {
                        let (h, _) = &held[held.len() - 1];
                        audit.findings.push(LockFinding {
                            file: f.file.clone(),
                            line: *line,
                            diagnostic: Diagnostic::warning(
                                Code::A302LockAcrossCatchUnwind,
                                format!("lock `{}` held across catch_unwind in `{}`", h, f.name),
                            ),
                        });
                    }
                }
            }
        }
        let _ = last_line;
    }

    // A304: edges contradicting the runtime rank table.
    let rank_of: BTreeMap<&str, LockRank> = audit
        .decls
        .iter()
        .filter_map(|d| {
            d.rank
                .as_deref()
                .and_then(LockRank::parse)
                .map(|r| (d.id.as_str(), r))
        })
        .collect();
    let mut contradiction: Vec<LockFinding> = Vec::new();
    for e in &audit.edges {
        if let (Some(a), Some(b)) = (rank_of.get(e.from.as_str()), rank_of.get(e.to.as_str())) {
            if a >= b {
                contradiction.push(LockFinding {
                    file: e.file.clone(),
                    line: e.line,
                    diagnostic: Diagnostic::error(
                        Code::A304RankOrderContradiction,
                        format!(
                            "`{}` ({a}) acquired while holding `{}` ({b}) in `{}`{}: \
                             contradicts the LockRank order",
                            e.to,
                            e.from,
                            e.func,
                            render_via(&e.via),
                        ),
                    ),
                });
            }
        }
    }
    audit.findings.extend(contradiction);

    // A300: cycles, with full witness paths.
    audit.findings.extend(find_cycles(&audit.edges));

    audit.findings.sort_by_key(|f| {
        (
            f.diagnostic.severity == Severity::Warning,
            f.file.clone(),
            f.line,
        )
    });
    audit
}

fn render_via(via: &[String]) -> String {
    if via.is_empty() {
        String::new()
    } else {
        format!(" (via {})", via.join(" -> "))
    }
}

/// DFS cycle detection; each cycle is reported once, with every edge's
/// acquisition site as the witness.
fn find_cycles(edges: &[LockEdge]) -> Vec<LockFinding> {
    let mut adj: BTreeMap<&str, Vec<&LockEdge>> = BTreeMap::new();
    for e in edges {
        adj.entry(&e.from).or_default().push(e);
    }
    let mut findings = Vec::new();
    let mut reported: BTreeSet<BTreeSet<String>> = BTreeSet::new();
    let nodes: BTreeSet<&str> = edges
        .iter()
        .flat_map(|e| [e.from.as_str(), e.to.as_str()])
        .collect();
    for start in nodes {
        let mut stack: Vec<&LockEdge> = Vec::new();
        dfs_cycles(
            start,
            start,
            &adj,
            &mut stack,
            &mut BTreeSet::new(),
            &mut |cycle| {
                let key: BTreeSet<String> = cycle.iter().map(|e| e.from.clone()).collect();
                if !reported.insert(key) {
                    return;
                }
                let path = cycle
                    .iter()
                    .map(|e| {
                        format!(
                            "{} -> {} [{} at {}:{}{}]",
                            e.from,
                            e.to,
                            e.func,
                            e.file,
                            e.line,
                            render_via(&e.via)
                        )
                    })
                    .collect::<Vec<_>>()
                    .join("; ");
                findings.push(LockFinding {
                    file: cycle.first().map(|e| e.file.clone()).unwrap_or_default(),
                    line: 0,
                    diagnostic: Diagnostic::error(
                        Code::A300LockOrderCycle,
                        format!("lock-order cycle: {path}"),
                    ),
                });
            },
        );
    }
    findings
}

fn dfs_cycles<'a>(
    start: &str,
    node: &str,
    adj: &BTreeMap<&str, Vec<&'a LockEdge>>,
    stack: &mut Vec<&'a LockEdge>,
    visiting: &mut BTreeSet<String>,
    report: &mut impl FnMut(&[&'a LockEdge]),
) {
    if !visiting.insert(node.to_string()) {
        return;
    }
    if let Some(nexts) = adj.get(node) {
        for e in nexts {
            stack.push(e);
            if e.to == start {
                report(stack);
            } else {
                dfs_cycles(start, &e.to, adj, stack, visiting, report);
            }
            stack.pop();
        }
    }
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
    fn ascending_nesting_produces_edge_and_no_findings() {
        let body = "        let g = self.a.lock();\n        let h = self.b.lock();";
        let src = fixture_crate(body, "");
        let audit = audit_sources(&[file("crates/serve/src/x.rs", &src)]);
        assert!(
            audit
                .edges
                .iter()
                .any(|e| e.from == "serve.a" && e.to == "serve.b"),
            "{:?}",
            audit.edges
        );
        assert!(audit.errors().is_empty(), "{:?}", audit.findings);
    }

    #[test]
    fn inverted_nesting_is_a304() {
        let body = "        let g = self.b.lock();\n        let h = self.a.lock();";
        let src = fixture_crate("", body);
        let audit = audit_sources(&[file("crates/serve/src/x.rs", &src)]);
        let codes: Vec<&str> = audit
            .findings
            .iter()
            .map(|f| f.diagnostic.code.as_str())
            .collect();
        assert!(codes.contains(&"A304"), "{codes:?}");
    }

    #[test]
    fn opposite_orders_in_two_fns_form_a300_cycle_with_witness() {
        let fwd = "        let g = self.a.lock();\n        let h = self.b.lock();";
        let back = "        let g = self.b.lock();\n        let h = self.a.lock();";
        let src = fixture_crate(fwd, back);
        let audit = audit_sources(&[file("crates/serve/src/x.rs", &src)]);
        let cycle = audit
            .findings
            .iter()
            .find(|f| f.diagnostic.code == Code::A300LockOrderCycle)
            .expect("cycle reported");
        let msg = &cycle.diagnostic.message;
        assert!(msg.contains("serve.a -> serve.b"), "{msg}");
        assert!(msg.contains("serve.b -> serve.a"), "{msg}");
        assert!(
            msg.contains("fwd at") || msg.contains("back at"),
            "witness sites: {msg}"
        );
    }

    #[test]
    fn interprocedural_edge_carries_call_chain() {
        let src = format!(
            "pub struct S {{\n    a: RankedMutex<X>,\n    b: RankedMutex<X>,\n}}\n\
             impl S {{\n    fn new() -> S {{\n        S {{\n{}\n{}\n        }}\n    }}\n\
             \n    fn outer(&self) {{\n        let g = self.a.lock();\n        self.inner_step();\n    }}\n\
             \n    fn inner_step(&self) {{\n        let h = self.b.lock();\n    }}\n}}\n",
            lockline("a", "Admission", "serve.a"),
            lockline("b", "Breaker", "serve.b"),
        );
        let audit = audit_sources(&[file("crates/serve/src/x.rs", &src)]);
        let edge = audit
            .edges
            .iter()
            .find(|e| e.from == "serve.a" && e.to == "serve.b")
            .expect("interprocedural edge");
        assert_eq!(edge.via, vec!["inner_step".to_string()]);
        assert_eq!(edge.func, "outer");
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

    #[test]
    fn derived_order_respects_edges() {
        let body = "        let g = self.a.lock();\n        let h = self.b.lock();";
        let src = fixture_crate(body, "");
        let audit = audit_sources(&[file("crates/serve/src/x.rs", &src)]);
        let order = audit.derived_order();
        let ia = order
            .iter()
            .position(|l| l == "serve.a")
            .expect("a in order");
        let ib = order
            .iter()
            .position(|l| l == "serve.b")
            .expect("b in order");
        assert!(ia < ib, "{order:?}");
    }
}
