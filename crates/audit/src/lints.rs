//! The lint catalog and the per-line matchers.
//!
//! Each lint is a token property checked over the masked lines of a
//! [`ScannedFile`](crate::scanner::ScannedFile), scoped to a set of
//! workspace paths. Test regions (`#[cfg(test)]` / `#[test]` items),
//! `tests/`, `benches/`, and `examples/` are outside every scope: the
//! guarantees matter on the paths that execute during failures, not in
//! the harnesses that exercise them.

use crate::callgraph::{AnalyzedFile, CallGraph};
use crate::parse::CallTarget;
use crate::scanner::ScannedFile;

/// The library crates whose `src/` trees carry PCF's runtime guarantees.
/// `pcf-cli` and `pcf-bench` are user-facing front ends and are exempt
/// from the panic/float lints; the audit crate holds itself to them.
const LIB_SRC: &[&str] = &[
    "crates/rng/src/",
    "crates/topology/src/",
    "crates/paths/src/",
    "crates/traffic/src/",
    "crates/lp/src/",
    "crates/core/src/",
    "crates/replay/src/",
    "crates/serve/src/",
    "crates/audit/src/",
];

/// Paths whose iteration order leaks into solver output, validation
/// verdicts, or serialized reports.
const DETERMINISTIC_SRC: &[&str] = &[
    "crates/lp/src/",
    "crates/core/src/",
    "crates/paths/src/",
    "crates/replay/src/engine.rs",
    "crates/replay/src/report.rs",
    "crates/replay/src/inject.rs",
    "crates/replay/src/shared.rs",
    "crates/serve/src/",
];

/// The module allowed to spell raw float comparisons: everything else
/// goes through its helpers or `total_cmp`.
const EPSILON_MODULE: &str = "crates/lp/src/float.rs";

/// One rule the audit pass enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lint {
    /// No `unwrap()`, `expect(...)`, `panic!`, `unreachable!`, `todo!`,
    /// or `unimplemented!` in library code: failure-time paths must
    /// return structured errors (Props. 5/6 make realization total).
    NoPanicPaths,
    /// No `HashMap`/`HashSet` where iteration order can reach solver
    /// output or reports: use `BTreeMap`/`BTreeSet` or explicit sorts.
    DeterministicIteration,
    /// No `partial_cmp` and no `==`/`!=` against float literals outside
    /// the approved epsilon module: use `total_cmp` or the helpers so a
    /// NaN can never panic a pivot or flip a sort.
    FloatDiscipline,
    /// No bare `std::thread::spawn`: the workspace standardized on
    /// `thread::scope`, which cannot leak a joinable handle.
    ScopedThreadsOnly,
    /// No `Instant`/`SystemTime` outside `pcf-bench`/`pcf-cli`:
    /// wall-clock reads inside the solver would break replay-cache
    /// bit-identity.
    NoWallclockInSolver,
    /// Interprocedural: no panic site (`unwrap`/`expect`/`panic!`/
    /// `assert!` family) may be transitively reachable from a declared
    /// hot entry point (realization, event application, the degradation
    /// ladder, the serve request loop, `PlanCell`/log operations).
    /// Additionally, `// audit:hot`-tagged functions may not index
    /// directly (`expr[..]`) — kernel-internal indexing below them is a
    /// property-tested invariant, not a reachability finding. Findings
    /// carry a witness call chain.
    PanicReachability,
    /// Every atomic op spells its `Ordering::` explicitly at the call;
    /// `Ordering::Relaxed` requires a reasoned `audit:allow`; a field
    /// that is Acquire-loaded must be Release-published somewhere.
    AtomicsDiscipline,
    /// Interprocedural: `// audit:hot` functions must not transitively
    /// reach allocating calls (`Vec::new`, `push`, `collect`,
    /// `format!`, `Box::new`, ...) — the O(1) realize fast path stays
    /// allocation-free.
    HotPathAlloc,
    /// No `.lock()` while another guard is live in the same function —
    /// the workspace invariant that makes the `PlanCell` slot mutex
    /// deadlock-free (a single, never-nested lock).
    LockDiscipline,
    /// A malformed `audit:allow` directive (missing reason, bad syntax).
    /// A broken escape waives nothing, and cannot itself be waived.
    BadAllow,
}

/// All lints, in reporting order.
pub const ALL_LINTS: &[Lint] = &[
    Lint::NoPanicPaths,
    Lint::DeterministicIteration,
    Lint::FloatDiscipline,
    Lint::ScopedThreadsOnly,
    Lint::NoWallclockInSolver,
    Lint::PanicReachability,
    Lint::AtomicsDiscipline,
    Lint::HotPathAlloc,
    Lint::LockDiscipline,
    Lint::BadAllow,
];

impl Lint {
    /// The lint's stable name: used in `audit:allow(...)` and reports.
    pub fn name(self) -> &'static str {
        match self {
            Lint::NoPanicPaths => "no-panic-paths",
            Lint::DeterministicIteration => "deterministic-iteration",
            Lint::FloatDiscipline => "float-discipline",
            Lint::ScopedThreadsOnly => "scoped-threads-only",
            Lint::NoWallclockInSolver => "no-wallclock-in-solver",
            Lint::PanicReachability => "panic-reachability",
            Lint::AtomicsDiscipline => "atomics-discipline",
            Lint::HotPathAlloc => "hot-path-alloc",
            Lint::LockDiscipline => "lock-discipline",
            Lint::BadAllow => "bad-allow",
        }
    }

    /// Looks a lint up by its stable name.
    pub fn by_name(name: &str) -> Option<Lint> {
        ALL_LINTS.iter().copied().find(|l| l.name() == name)
    }

    /// One-line description for `pcf-audit --list`.
    pub fn describe(self) -> &'static str {
        match self {
            Lint::NoPanicPaths => {
                "forbid unwrap()/expect()/panic!/unreachable!/todo!/unimplemented! in library code"
            }
            Lint::DeterministicIteration => {
                "forbid HashMap/HashSet on solver, validation, and report output paths"
            }
            Lint::FloatDiscipline => {
                "forbid partial_cmp and ==/!= against float literals outside the epsilon module"
            }
            Lint::ScopedThreadsOnly => "forbid bare std::thread::spawn (use thread::scope)",
            Lint::NoWallclockInSolver => {
                "forbid Instant/SystemTime outside pcf-bench/pcf-cli (replay bit-identity)"
            }
            Lint::PanicReachability => {
                "no panic site transitively reachable from the declared hot entry points"
            }
            Lint::AtomicsDiscipline => {
                "explicit Ordering on every atomic op; Relaxed needs a reasoned allow; \
                 Acquire loads need a Release publisher"
            }
            Lint::HotPathAlloc => {
                "audit:hot functions must not transitively reach allocating calls"
            }
            Lint::LockDiscipline => "no .lock() while another guard is live in the same function",
            Lint::BadAllow => "malformed audit:allow directives (a broken escape waives nothing)",
        }
    }

    /// Whether the lint applies to the file at workspace-relative `rel`.
    pub fn in_scope(self, rel: &str) -> bool {
        let under = |prefixes: &[&str]| prefixes.iter().any(|p| rel.starts_with(p));
        match self {
            Lint::NoPanicPaths => under(LIB_SRC),
            Lint::DeterministicIteration => under(DETERMINISTIC_SRC),
            Lint::FloatDiscipline => under(LIB_SRC) && rel != EPSILON_MODULE,
            // Scoped threads are workspace policy, front ends included.
            Lint::ScopedThreadsOnly => rel.starts_with("crates/") && rel.contains("/src/"),
            Lint::NoWallclockInSolver => under(LIB_SRC),
            Lint::PanicReachability
            | Lint::AtomicsDiscipline
            | Lint::HotPathAlloc
            | Lint::LockDiscipline => under(LIB_SRC),
            Lint::BadAllow => rel.starts_with("crates/") || rel.starts_with("tests/"),
        }
    }

    /// Workspace-level lints run over the whole call graph in
    /// [`check_workspace`], not per file in [`check_file`].
    pub fn workspace_level(self) -> bool {
        matches!(
            self,
            Lint::PanicReachability
                | Lint::AtomicsDiscipline
                | Lint::HotPathAlloc
                | Lint::LockDiscipline
        )
    }
}

/// One violation: a lint, a file, a line, and the offending excerpt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which rule fired.
    pub lint: Lint,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// A short description of what matched.
    pub what: String,
    /// For interprocedural lints: the witness call chain from the
    /// entry/hot function to the offending site (fn labels). Empty for
    /// per-line lints.
    pub chain: Vec<String>,
}

impl Finding {
    /// A chain-less finding (the common per-line case).
    pub fn at(lint: Lint, file: &str, line: usize, what: String) -> Finding {
        Finding {
            lint,
            file: file.to_string(),
            line,
            what,
            chain: Vec::new(),
        }
    }
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file,
            self.line,
            self.lint.name(),
            self.what
        )?;
        if !self.chain.is_empty() {
            write!(f, " (via {})", self.chain.join(" -> "))?;
        }
        Ok(())
    }
}

/// Runs every in-scope per-line lint over one scanned file. The
/// workspace-level lints live in [`check_workspace`].
pub fn check_file(rel: &str, scanned: &ScannedFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    for &lint in ALL_LINTS {
        if lint.workspace_level() || !lint.in_scope(rel) {
            continue;
        }
        if lint == Lint::BadAllow {
            for bad in &scanned.bad_allows {
                findings.push(Finding::at(lint, rel, bad.line, bad.problem.clone()));
            }
            continue;
        }
        for (idx, masked) in scanned.masked_lines.iter().enumerate() {
            let line = idx + 1;
            if scanned.line_in_test(line) {
                continue;
            }
            for what in match_line(lint, masked) {
                if scanned.allowed(lint.name(), line) {
                    continue;
                }
                findings.push(Finding::at(lint, rel, line, what));
            }
        }
    }
    findings.sort_by(|a, b| (a.line, a.lint.name()).cmp(&(b.line, b.lint.name())));
    findings
}

/// Matches one lint against one masked line; returns one entry per hit.
fn match_line(lint: Lint, masked: &str) -> Vec<String> {
    match lint {
        Lint::NoPanicPaths => {
            let mut hits = Vec::new();
            for m in ["panic", "unreachable", "todo", "unimplemented"] {
                for pos in word_positions(masked, m) {
                    if next_nonspace(masked, pos + m.len()) == Some('!') {
                        hits.push(format!("`{m}!` in library code"));
                    }
                }
            }
            for pos in word_positions(masked, "unwrap") {
                if prev_nonspace(masked, pos) == Some('.')
                    && follows_call(masked, pos + "unwrap".len())
                {
                    hits.push("`.unwrap()` in library code".to_string());
                }
            }
            for pos in word_positions(masked, "expect") {
                if prev_nonspace(masked, pos) == Some('.')
                    && next_nonspace(masked, pos + "expect".len()) == Some('(')
                {
                    hits.push("`.expect(..)` in library code".to_string());
                }
            }
            hits
        }
        Lint::DeterministicIteration => ["HashMap", "HashSet"]
            .iter()
            .flat_map(|w| {
                word_positions(masked, w).into_iter().map(move |_| {
                    format!(
                        "`{w}` on a determinism-sensitive path (use BTree{})",
                        &w[4..]
                    )
                })
            })
            .collect(),
        Lint::FloatDiscipline => {
            // Defining the trait method (`fn partial_cmp`) in a canonical
            // `PartialOrd` impl that delegates to `cmp` is not a float
            // comparison; only *calls* are flagged.
            let mut hits: Vec<String> = word_positions(masked, "partial_cmp")
                .into_iter()
                .filter(|&pos| !masked[..pos].trim_end().ends_with("fn"))
                .map(|_| "`partial_cmp` outside the epsilon module (use total_cmp)".to_string())
                .collect();
            for hit in float_eq_hits(masked) {
                hits.push(hit);
            }
            hits
        }
        Lint::ScopedThreadsOnly => {
            let mut hits = Vec::new();
            let mut rest = masked;
            while let Some(pos) = rest.find("thread::spawn") {
                hits.push("bare `thread::spawn` (use thread::scope)".to_string());
                rest = &rest[pos + "thread::spawn".len()..];
            }
            hits
        }
        Lint::NoWallclockInSolver => ["Instant", "SystemTime"]
            .iter()
            .flat_map(|w| {
                word_positions(masked, w)
                    .into_iter()
                    .map(move |_| format!("`{w}` outside pcf-bench/pcf-cli"))
            })
            .collect(),
        // Workspace-level lints never run per line; `check_file` skips
        // them before reaching here.
        Lint::PanicReachability
        | Lint::AtomicsDiscipline
        | Lint::HotPathAlloc
        | Lint::LockDiscipline
        | Lint::BadAllow => Vec::new(),
    }
}

/// The declared hot entry points for panic-reachability:
/// `(file prefix, impl type, fn name)`. These are the functions that
/// must stay total while the system is degraded — realization (Props.
/// 5/6), event application, the degradation ladder, and the serving
/// fast path. Renaming one of them without updating this table is
/// itself a finding (config drift would silently drop coverage).
pub const HOT_ENTRIES: &[(&str, Option<&str>, &str)] = &[
    ("crates/core/src/realize.rs", None, "realize_routing"),
    ("crates/core/src/degrade.rs", None, "normal_routing"),
    ("crates/core/src/degrade.rs", None, "degrade_routing"),
    ("crates/core/src/degrade.rs", None, "degrade_fallback"),
    ("crates/replay/src/engine.rs", Some("ReplayEngine"), "apply"),
    (
        "crates/replay/src/engine.rs",
        Some("ReplayEngine"),
        "realize",
    ),
    (
        "crates/replay/src/engine.rs",
        Some("ReplayEngine"),
        "realize_degraded",
    ),
    ("crates/serve/src/server.rs", Some("Server"), "handle_conn"),
    ("crates/serve/src/plan.rs", Some("PlanCell"), "generation"),
    ("crates/serve/src/plan.rs", Some("PlanCell"), "current"),
    ("crates/serve/src/plan.rs", Some("PlanCell"), "swap"),
    ("crates/serve/src/log.rs", Some("EventLog"), "push"),
    ("crates/serve/src/log.rs", Some("EventLog"), "get"),
];

/// Macro names that are panic sites.
const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// Method names that are panic sites.
const PANIC_METHODS: &[&str] = &["unwrap", "expect"];

/// Atomic operation method names.
const ATOMIC_OPS: &[&str] = &[
    "load",
    "store",
    "swap",
    "compare_exchange",
    "compare_exchange_weak",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_update",
];

/// Method names that allocate when they do not resolve to a workspace
/// function.
const ALLOC_METHODS: &[&str] = &[
    "push",
    "insert",
    "extend",
    "collect",
    "reserve",
    "append",
    "to_vec",
    "to_owned",
    "to_string",
    "with_capacity",
];

/// Path qualifiers whose associated functions allocate (or set up an
/// allocation: `Vec::new` is lazily allocating on first push, and a hot
/// function has no business constructing one either way).
const ALLOC_TYPES: &[&str] = &[
    "Vec", "VecDeque", "Box", "String", "BTreeMap", "BTreeSet", "HashMap", "HashSet",
];

/// Allocating macros.
const ALLOC_MACROS: &[&str] = &["vec", "format"];

/// Runs the four interprocedural lints over the whole workspace.
/// `entries` is normally [`HOT_ENTRIES`]; tests pass synthetic tables.
pub fn check_workspace(
    files: &[AnalyzedFile],
    entries: &[(&str, Option<&str>, &str)],
) -> Vec<Finding> {
    let graph = CallGraph::build(files);
    let mut findings = Vec::new();
    panic_reachability(files, &graph, entries, &mut findings);
    hot_path_alloc(files, &graph, &mut findings);
    atomics_discipline(files, &mut findings);
    lock_discipline(files, &mut findings);
    findings
}

/// Panic sites of one fn: `(line, description)`, allows respected.
fn panic_sites(file: &AnalyzedFile, f: &crate::parse::FnItem) -> Vec<(usize, String)> {
    let mut sites = Vec::new();
    for call in &f.calls {
        let hit = match &call.target {
            CallTarget::Macro(m) if PANIC_MACROS.contains(&m.as_str()) => Some(format!("`{m}!`")),
            CallTarget::Method { name, .. } if PANIC_METHODS.contains(&name.as_str()) => {
                Some(format!("`.{name}(..)`"))
            }
            _ => None,
        };
        if let Some(what) = hit {
            if !file
                .scanned
                .allowed(Lint::PanicReachability.name(), call.line)
            {
                sites.push((call.line, what));
            }
        }
    }
    sites
}

fn panic_reachability(
    files: &[AnalyzedFile],
    graph: &CallGraph,
    entries: &[(&str, Option<&str>, &str)],
    findings: &mut Vec<Finding>,
) {
    let mut reported: std::collections::BTreeSet<(String, usize, String)> =
        std::collections::BTreeSet::new();
    for &(file_prefix, impl_type, name) in entries {
        let starts = graph.lookup(files, file_prefix, impl_type, name);
        if starts.is_empty() {
            // Only drift-report when the file itself exists in the set
            // (synthetic test workspaces carry their own tables).
            if files.iter().any(|f| f.rel.starts_with(file_prefix)) {
                let label = match impl_type {
                    Some(t) => format!("{t}::{name}"),
                    None => name.to_string(),
                };
                findings.push(Finding::at(
                    Lint::PanicReachability,
                    file_prefix,
                    0,
                    format!("declared hot entry `{label}` not found (update HOT_ENTRIES)"),
                ));
            }
            continue;
        }
        for start in starts {
            let entry_label = graph.fn_of(files, start).label();
            let (order, parents) = graph.bfs(start);
            for n in order {
                let nf = graph.fn_of(files, n);
                let nfile = graph.file_of(files, n);
                if nf.is_test || !Lint::PanicReachability.in_scope(&nfile.rel) {
                    continue;
                }
                for (line, what) in panic_sites(nfile, nf) {
                    let key = (nfile.rel.clone(), line, what.clone());
                    if reported.contains(&key) {
                        continue;
                    }
                    reported.insert(key);
                    findings.push(Finding {
                        lint: Lint::PanicReachability,
                        file: nfile.rel.clone(),
                        line,
                        what: format!("{what} reachable from hot entry `{entry_label}`"),
                        chain: graph.chain(files, &parents, n),
                    });
                }
            }
        }
    }
    // Direct-indexing tier: `audit:hot` functions must not index.
    // (Indexing *below* them — LP kernels — is bounds-guarded by
    // construction and property-tested; tracking it transitively would
    // bury real findings, see DESIGN.md §9.)
    for file in files {
        if !Lint::PanicReachability.in_scope(&file.rel) {
            continue;
        }
        for f in &file.parsed.fns {
            if !f.is_hot || f.is_test {
                continue;
            }
            for &line in &f.index_lines {
                if file.scanned.allowed(Lint::PanicReachability.name(), line) {
                    continue;
                }
                findings.push(Finding::at(
                    Lint::PanicReachability,
                    &file.rel,
                    line,
                    format!("indexing in audit:hot fn `{}` (can panic)", f.label()),
                ));
            }
        }
    }
}

fn hot_path_alloc(files: &[AnalyzedFile], graph: &CallGraph, findings: &mut Vec<Finding>) {
    let mut reported: std::collections::BTreeSet<(String, usize)> =
        std::collections::BTreeSet::new();
    for start in 0..graph.nodes.len() {
        let sf = graph.fn_of(files, start);
        if !sf.is_hot || sf.is_test {
            continue;
        }
        let root_label = sf.label();
        let (order, parents) = graph.bfs(start);
        for n in order {
            let nf = graph.fn_of(files, n);
            let nfile = graph.file_of(files, n);
            if nf.is_test || !Lint::HotPathAlloc.in_scope(&nfile.rel) {
                continue;
            }
            for (ci, call) in nf.calls.iter().enumerate() {
                let resolved_in_workspace = !graph.call_edges[n][ci].is_empty();
                let hit = match &call.target {
                    CallTarget::Macro(m) if ALLOC_MACROS.contains(&m.as_str()) => {
                        Some(format!("`{m}!`"))
                    }
                    CallTarget::Path { qualifier, name }
                        if ALLOC_TYPES.contains(&qualifier.as_str()) =>
                    {
                        Some(format!("`{qualifier}::{name}`"))
                    }
                    CallTarget::Method { name, .. }
                        if ALLOC_METHODS.contains(&name.as_str()) && !resolved_in_workspace =>
                    {
                        Some(format!("`.{name}(..)`"))
                    }
                    _ => None,
                };
                let Some(what) = hit else { continue };
                if nfile.scanned.allowed(Lint::HotPathAlloc.name(), call.line) {
                    continue;
                }
                let key = (nfile.rel.clone(), call.line);
                if reported.contains(&key) {
                    continue;
                }
                reported.insert(key);
                findings.push(Finding {
                    lint: Lint::HotPathAlloc,
                    file: nfile.rel.clone(),
                    line: call.line,
                    what: format!("allocating call {what} reachable from audit:hot `{root_label}`"),
                    chain: graph.chain(files, &parents, n),
                });
            }
        }
    }
}

/// How an atomic op participates in synchronization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AtomicKind {
    Load,
    Store,
    Rmw,
}

fn atomics_discipline(files: &[AnalyzedFile], findings: &mut Vec<Finding>) {
    // Field names declared with an Atomic* type anywhere in the
    // workspace — evidence that an Ordering-less `.load(..)` on them is
    // an atomic op hiding behind an import.
    let mut atomic_fields: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
    for file in files {
        for fields in file.parsed.structs.values() {
            for (fname, fty) in fields {
                if fty.starts_with("Atomic") {
                    atomic_fields.insert(fname);
                }
            }
        }
    }
    // (field name) → ops seen: (file, line, kind, orderings).
    type Ops = Vec<(String, usize, AtomicKind, Vec<String>)>;
    let mut per_field: std::collections::BTreeMap<String, Ops> = std::collections::BTreeMap::new();
    for file in files {
        if !Lint::AtomicsDiscipline.in_scope(&file.rel) {
            continue;
        }
        for f in &file.parsed.fns {
            if f.is_test {
                continue;
            }
            for call in &f.calls {
                let CallTarget::Method { receiver, name } = &call.target else {
                    continue;
                };
                if !ATOMIC_OPS.contains(&name.as_str()) {
                    continue;
                }
                let args = call.args.as_deref().unwrap_or("");
                let orderings = extract_orderings(args);
                let field = receiver.field_name().map(str::to_string);
                let is_atomic = !orderings.is_empty()
                    || field.as_deref().is_some_and(|f| atomic_fields.contains(f));
                if !is_atomic {
                    continue; // Vec::swap, slice ops, non-atomic loads
                }
                let allowed = file
                    .scanned
                    .allowed(Lint::AtomicsDiscipline.name(), call.line);
                if orderings.is_empty() {
                    if !allowed {
                        findings.push(Finding::at(
                            Lint::AtomicsDiscipline,
                            &file.rel,
                            call.line,
                            format!(
                                "atomic `.{name}(..)` without a spelled-out `Ordering::` \
                                 (import-shadowed orderings hide the contract)"
                            ),
                        ));
                    }
                } else if orderings.iter().any(|o| o == "Relaxed") && !allowed {
                    findings.push(Finding::at(
                        Lint::AtomicsDiscipline,
                        &file.rel,
                        call.line,
                        format!(
                            "`Ordering::Relaxed` on `.{name}(..)` needs a reasoned \
                             audit:allow(atomics-discipline, ...)"
                        ),
                    ));
                }
                let kind = match name.as_str() {
                    "load" => AtomicKind::Load,
                    "store" => AtomicKind::Store,
                    _ => AtomicKind::Rmw,
                };
                if let Some(field) = field {
                    per_field.entry(field).or_default().push((
                        file.rel.clone(),
                        call.line,
                        kind,
                        orderings,
                    ));
                }
            }
        }
    }
    // Acquire/Release symmetry per field: an Acquire-side load with no
    // Release-side publisher anywhere is a broken happens-before edge.
    let release_side = |o: &str| matches!(o, "Release" | "AcqRel" | "SeqCst");
    let acquire_side = |o: &str| matches!(o, "Acquire" | "AcqRel" | "SeqCst");
    for (field, ops) in &per_field {
        let has_release = ops.iter().any(|(_, _, kind, ords)| {
            *kind != AtomicKind::Load && ords.iter().any(|o| release_side(o))
        });
        let acquire_load = ops.iter().find(|(_, _, kind, ords)| {
            *kind == AtomicKind::Load && ords.iter().any(|o| acquire_side(o))
        });
        let has_writer = ops.iter().any(|(_, _, kind, _)| *kind != AtomicKind::Load);
        if let Some((file, line, _, _)) = acquire_load {
            if has_writer && !has_release {
                findings.push(Finding::at(
                    Lint::AtomicsDiscipline,
                    file,
                    *line,
                    format!(
                        "field `{field}` is Acquire-loaded here but never \
                         Release-published (no Release/AcqRel/SeqCst write)"
                    ),
                ));
            }
        }
    }
}

/// All `Ordering::X` names in an argument string.
fn extract_orderings(args: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = args;
    while let Some(at) = rest.find("Ordering") {
        let after = &rest[at + "Ordering".len()..];
        if let Some(path) = after.strip_prefix("::") {
            let name: String = path.chars().take_while(|c| c.is_alphanumeric()).collect();
            if !name.is_empty() {
                out.push(name);
            }
        }
        rest = &rest[at + "Ordering".len()..];
    }
    out
}

fn lock_discipline(files: &[AnalyzedFile], findings: &mut Vec<Finding>) {
    for file in files {
        if !Lint::LockDiscipline.in_scope(&file.rel) {
            continue;
        }
        for f in &file.parsed.fns {
            if f.is_test || f.body == (0, 0) {
                continue;
            }
            lock_scan(file, f, findings);
        }
    }
}

/// Walks one body tracking live `MutexGuard`s: a `let`-bound guard
/// lives until its block closes (or an explicit `drop(name)`); an
/// unbound `.lock()` temporary lives to the end of its statement. A
/// second `.lock()` while any guard is live is a finding.
fn lock_scan(file: &AnalyzedFile, f: &crate::parse::FnItem, findings: &mut Vec<Finding>) {
    let (b0, b1) = f.body;
    if b0 == 0 || b1 < b0 {
        return;
    }
    struct Guard {
        name: Option<String>,
        depth: usize,
        temp: bool,
    }
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0usize;
    let mut stmt = String::new();
    for (li, raw) in file
        .scanned
        .masked_lines
        .iter()
        .enumerate()
        .skip(b0 - 1)
        .take(b1 - b0 + 1)
    {
        let line_no = li + 1;
        let bytes = raw.as_bytes();
        let mut i = 0usize;
        while i < bytes.len() {
            let c = bytes[i] as char;
            match c {
                // Statement boundaries reset `stmt` and must not leak the
                // boundary char into the next statement's text (a leading
                // `{` would hide the `let ` prefix of a guard binding).
                '{' => {
                    depth += 1;
                    stmt.clear();
                    i += 1;
                    continue;
                }
                '}' => {
                    depth = depth.saturating_sub(1);
                    guards.retain(|g| g.depth <= depth);
                    stmt.clear();
                    i += 1;
                    continue;
                }
                ';' => {
                    guards.retain(|g| !(g.temp && g.depth == depth));
                    stmt.clear();
                    i += 1;
                    continue;
                }
                '.' if raw[i..].starts_with(".lock(") => {
                    if !guards.is_empty()
                        && !file.scanned.allowed(Lint::LockDiscipline.name(), line_no)
                    {
                        findings.push(Finding::at(
                            Lint::LockDiscipline,
                            &file.rel,
                            line_no,
                            format!(
                                "`.lock()` in `{}` while another guard is live \
                                 (nested locking risks deadlock)",
                                f.label()
                            ),
                        ));
                    }
                    let trimmed = stmt.trim_start();
                    let bound = trimmed.strip_prefix("let ").map(|rest| {
                        let rest = rest.trim_start();
                        let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
                        rest.chars()
                            .take_while(|c| c.is_alphanumeric() || *c == '_')
                            .collect::<String>()
                    });
                    match bound {
                        Some(name) if !name.is_empty() => guards.push(Guard {
                            name: Some(name),
                            depth,
                            temp: false,
                        }),
                        _ => guards.push(Guard {
                            name: None,
                            depth,
                            temp: true,
                        }),
                    }
                    i += ".lock(".len();
                    stmt.push_str(".lock(");
                    continue;
                }
                'd' if raw[i..].starts_with("drop(")
                    && (i == 0
                        || !(bytes[i - 1] as char).is_alphanumeric() && bytes[i - 1] != b'_') =>
                {
                    let inner: String = raw[i + "drop(".len()..]
                        .chars()
                        .take_while(|c| c.is_alphanumeric() || *c == '_')
                        .collect();
                    guards.retain(|g| g.name.as_deref() != Some(inner.as_str()));
                }
                _ => {}
            }
            stmt.push(c);
            i += 1;
        }
        stmt.push(' ');
    }
}

/// Byte positions where `word` occurs with non-identifier neighbours.
fn word_positions(line: &str, word: &str) -> Vec<usize> {
    let bytes = line.as_bytes();
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut out = Vec::new();
    let mut start = 0usize;
    while let Some(pos) = line[start..].find(word) {
        let at = start + pos;
        let before_ok = at == 0 || !is_ident(bytes[at - 1]);
        let end = at + word.len();
        let after_ok = end >= bytes.len() || !is_ident(bytes[end]);
        if before_ok && after_ok {
            out.push(at);
        }
        start = at + word.len();
    }
    out
}

/// First non-space char at or after byte `from`.
fn next_nonspace(line: &str, from: usize) -> Option<char> {
    line.get(from..)?.chars().find(|c| !c.is_whitespace())
}

/// Last non-space char strictly before byte `at`.
fn prev_nonspace(line: &str, at: usize) -> Option<char> {
    line.get(..at)?.chars().rev().find(|c| !c.is_whitespace())
}

/// True when the text after an `unwrap` word is an empty call `()`.
/// (`unwrap_or`, `unwrap_err`, field accesses etc. never match: the word
/// boundary already excluded them.)
fn follows_call(line: &str, from: usize) -> bool {
    let mut it = line
        .get(from..)
        .unwrap_or("")
        .chars()
        .filter(|c| !c.is_whitespace());
    it.next() == Some('(') && it.next() == Some(')')
}

/// Finds `==` / `!=` with a float literal on either side.
fn float_eq_hits(masked: &str) -> Vec<String> {
    let bytes = masked.as_bytes();
    let mut hits = Vec::new();
    let mut i = 0usize;
    while i + 1 < bytes.len() {
        let is_eq = bytes[i] == b'=' && bytes[i + 1] == b'=';
        let is_ne = bytes[i] == b'!' && bytes[i + 1] == b'=';
        if is_eq || is_ne {
            // Exclude `<=`, `>=`, `=>`-adjacent sequences.
            let prev_op = i > 0 && matches!(bytes[i - 1], b'<' | b'>' | b'=' | b'!');
            // Both operator bytes are ASCII, so i and i + 2 are char
            // boundaries and the slices below cannot split a char.
            if !prev_op
                && (is_float_literal_before(masked, i) || is_float_literal_after(masked, i + 2))
            {
                let op = if is_eq { "==" } else { "!=" };
                hits.push(format!(
                    "float literal compared with `{op}` (use the epsilon helpers or total_cmp)"
                ));
            }
            i += 2;
            continue;
        }
        i += 1;
    }
    hits
}

/// Is the token ending just before byte `at` (skipping spaces) a float
/// literal like `0.0`, `1.`, `1e-6`, `2.5e3`, `0f64`?
fn is_float_literal_before(line: &str, at: usize) -> bool {
    let s = line[..at].trim_end();
    let token: String = s
        .chars()
        .rev()
        .take_while(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '+' | '-'))
        .collect::<Vec<char>>()
        .into_iter()
        .rev()
        .collect();
    token_is_float(token.trim_start_matches(['+', '-']))
}

/// Is the token starting at byte `at` (skipping spaces) a float literal?
fn is_float_literal_after(line: &str, at: usize) -> bool {
    let s = line.get(at..).unwrap_or("").trim_start();
    let s = s.strip_prefix(['+', '-']).unwrap_or(s);
    let token: String = s
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '+' | '-'))
        .collect();
    token_is_float(&token)
}

/// `0.0`, `1.`, `1e-6`, `1_000.5`, `3f64` are float literals; `0`, `x0`,
/// `usize` are not.
fn token_is_float(token: &str) -> bool {
    let t = token.trim_end_matches("f64").trim_end_matches("f32");
    if t.is_empty() || !t.starts_with(|c: char| c.is_ascii_digit()) {
        return false;
    }
    let explicit_suffix = token.len() != t.len();
    let has_dot = t.contains('.');
    let has_exp = t.chars().any(|c| matches!(c, 'e' | 'E'))
        && t.chars()
            .all(|c| c.is_ascii_digit() || matches!(c, '.' | '_' | 'e' | 'E' | '+' | '-'));
    (has_dot || has_exp || explicit_suffix)
        && t.chars()
            .all(|c| c.is_ascii_digit() || matches!(c, '.' | '_' | 'e' | 'E' | '+' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::ScannedFile;

    fn findings(rel: &str, src: &str) -> Vec<Finding> {
        check_file(rel, &ScannedFile::scan(src))
    }

    #[test]
    fn unwrap_and_macros_are_caught_variants_are_not() {
        let f = findings(
            "crates/core/src/x.rs",
            "a.unwrap();\nb.unwrap_or(0);\nc.unwrap_or_else(|| 0);\npanic!();\nunreachable!();\nd.expect(\"msg\");\nd.expect_err(\"msg\");\n",
        );
        let panics: Vec<_> = f.iter().filter(|x| x.lint == Lint::NoPanicPaths).collect();
        assert_eq!(panics.len(), 4, "{panics:?}");
        assert_eq!(panics[0].line, 1);
        assert_eq!(panics[1].line, 4);
        assert_eq!(panics[2].line, 5);
        assert_eq!(panics[3].line, 6);
    }

    #[test]
    fn float_literal_comparisons_are_caught() {
        let src = "if x == 0.0 {}\nif 1e-6 != y {}\nif n == 0 {}\nif x <= 0.0 {}\nif x >= 1.0 {}\nlet z = 2.5f64 == w;\n";
        let f = findings("crates/core/src/x.rs", src);
        let lines: Vec<usize> = f
            .iter()
            .filter(|x| x.lint == Lint::FloatDiscipline)
            .map(|x| x.line)
            .collect();
        assert_eq!(lines, vec![1, 2, 6], "{f:?}");
    }

    #[test]
    fn partial_cmp_calls_flagged_but_trait_definitions_are_not() {
        let src = "impl PartialOrd for P {\n    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {\n        Some(self.cmp(other))\n    }\n}\nlet o = a.partial_cmp(&b);\n";
        let f = findings("crates/core/src/x.rs", src);
        let lines: Vec<usize> = f
            .iter()
            .filter(|x| x.lint == Lint::FloatDiscipline)
            .map(|x| x.line)
            .collect();
        assert_eq!(lines, vec![6], "{f:?}");
    }

    #[test]
    fn hashmap_only_flagged_on_deterministic_paths() {
        let src = "use std::collections::HashMap;\n";
        // The last two are where hash order reached the numerics while the
        // scope listed only three `pcf-core` files.
        for rel in [
            "crates/lp/src/model.rs",
            "crates/core/src/adversary.rs",
            "crates/paths/src/lib.rs",
        ] {
            assert!(
                findings(rel, src)
                    .iter()
                    .any(|f| f.lint == Lint::DeterministicIteration),
                "{rel}"
            );
        }
        assert!(!findings("crates/topology/src/graph.rs", src)
            .iter()
            .any(|f| f.lint == Lint::DeterministicIteration));
    }

    #[test]
    fn wallclock_scope_exempts_bench_and_cli() {
        let src = "let t = std::time::Instant::now();\n";
        assert!(findings("crates/replay/src/report.rs", src)
            .iter()
            .any(|f| f.lint == Lint::NoWallclockInSolver));
        assert!(findings("crates/bench/src/lib.rs", src).is_empty());
        assert!(findings("crates/cli/src/main.rs", src).is_empty());
    }

    #[test]
    fn thread_spawn_is_flagged_everywhere_scope_is_not() {
        let src = "std::thread::spawn(|| {});\nstd::thread::scope(|s| { s.spawn(|| {}); });\n";
        let f = findings("crates/cli/src/main.rs", src);
        let spawns: Vec<_> = f
            .iter()
            .filter(|x| x.lint == Lint::ScopedThreadsOnly)
            .collect();
        assert_eq!(spawns.len(), 1);
        assert_eq!(spawns[0].line, 1);
    }

    #[test]
    fn epsilon_module_is_exempt_from_float_discipline() {
        let src = "pub fn is_zero(x: f64) -> bool { x == 0.0 }\n";
        assert!(findings("crates/lp/src/float.rs", src).is_empty());
        assert!(!findings("crates/lp/src/simplex.rs", src).is_empty());
    }

    #[test]
    fn allows_suppress_and_malformed_allows_report() {
        let src = "x.unwrap(); // audit:allow(no-panic-paths, invariant: built above)\ny.unwrap(); // audit:allow(no-panic-paths)\n";
        let f = findings("crates/core/src/x.rs", src);
        assert_eq!(
            f.iter().filter(|x| x.lint == Lint::NoPanicPaths).count(),
            1,
            "{f:?}"
        );
        assert_eq!(f.iter().filter(|x| x.lint == Lint::BadAllow).count(), 1);
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { x.unwrap(); assert!(y == 0.0); }\n}\n";
        assert!(findings("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn nested_lock_is_flagged_sequential_locks_are_not() {
        let nested = "use std::sync::Mutex;\npub fn f(a: &Mutex<u32>, b: &Mutex<u32>) -> u32 {\n    let g1 = a.lock();\n    let g2 = b.lock();\n    0\n}\n";
        let files = crate::analyze_files(&[crate::SourceFile {
            rel: "crates/serve/src/x.rs".to_string(),
            text: nested.to_string(),
        }]);
        let f = check_workspace(&files, &[]);
        assert!(
            f.iter().any(|x| x.lint == Lint::LockDiscipline),
            "nested lock not flagged: {f:#?}"
        );

        // Dropping the first guard before the second lock is fine.
        let seq = "use std::sync::Mutex;\npub fn f(a: &Mutex<u32>, b: &Mutex<u32>) -> u32 {\n    let g1 = a.lock();\n    drop(g1);\n    let g2 = b.lock();\n    0\n}\n";
        let files = crate::analyze_files(&[crate::SourceFile {
            rel: "crates/serve/src/x.rs".to_string(),
            text: seq.to_string(),
        }]);
        let f = check_workspace(&files, &[]);
        assert!(
            !f.iter().any(|x| x.lint == Lint::LockDiscipline),
            "sequential locks falsely flagged: {f:#?}"
        );
    }

    #[test]
    fn lint_names_round_trip() {
        for &l in ALL_LINTS {
            assert_eq!(Lint::by_name(l.name()), Some(l));
        }
        assert_eq!(Lint::by_name("nope"), None);
    }
}
