//! Interprocedural taint dataflow over the cell-compute region.
//!
//! The incremental-evaluation plan (ROADMAP) memoizes one grid cell and
//! replays its stored result on a cache-key hit. That is only sound if
//! every value-influencing input of the cell computation is a component
//! of the declared key (`rein_core::cache_key::CellKey`). This module
//! provides the machinery the purity rules are built from:
//!
//! * the **compute region** — everything transitively callable from the
//!   cell-compute entry points ([`ENTRY_POINTS`]), with a parent map so
//!   findings can name the concrete call path that reaches a taint;
//! * **taint sources** — ambient channels a function can read that do
//!   not flow through the key: environment variables, filesystem reads,
//!   wall-clock time and global (`static` / `thread_local!`) state. A
//!   function whose inputs arrive only through its parameters is
//!   *key-pure* at the entry points, because every entry-point parameter
//!   traces to a declared key component;
//! * the **float reduction order check** — non-associative float
//!   accumulation (`.sum()` / `.product()`) downstream of a rayon
//!   parallel marker must route through a registered ordered reducer.
//!
//! Like the rest of the audit, everything here is deliberately
//! over-approximate: a rule that fires on a serial look-alike costs one
//! `audit:allow`, a rule that misses an ambient read costs a stale cache
//! hit in every future incremental run.

use std::collections::{BTreeMap, VecDeque};

use crate::callgraph::{CallGraph, FnNode};
use crate::lexer::{has_token, lex, SourceLine};
use crate::parser::{tokenize, Call, Callee, TokKind};
use crate::semantic::{Sink, WorkspaceModel};

/// The cell-compute entry points: `(impl type, function name)`, matched
/// against functions defined under `crates/core/src/`. `None` matches a
/// free function. These are exactly the guarded dispatch surfaces every
/// detector/repair/eval call goes through (`crates/core/tests/guard_coverage.rs`
/// runs every kind through them), plus `Controller::run_grid` itself —
/// certifying them key-pure certifies every cell computation.
pub const ENTRY_POINTS: [(Option<&str>, &str); 6] = [
    (Some("DetectorHarness"), "run"),
    (None, "detect_with_context"),
    (None, "run_repair_guarded"),
    (None, "eval_classifier_guarded"),
    (None, "eval_regressor_guarded"),
    (Some("Controller"), "run_grid"),
];

/// The entry-point table, exposed for the dogfood/certificate tests.
pub fn entry_points() -> &'static [(Option<&'static str>, &'static str)] {
    &ENTRY_POINTS
}

/// Whether `n` participates in cell-compute dataflow at all. The
/// telemetry crate is carved out as a pure observer: spans, counters
/// and manifests record what happened but never feed a computed value
/// back (the `par-atomic-ordering` allowlist and the ledger's
/// deterministic merges own that boundary). Tests and test support pin
/// concrete inputs by design.
fn in_region_scope(n: &FnNode) -> bool {
    n.crate_name != "telemetry" && !n.class.is_test_support && !n.func.in_test
}

/// The cell-compute region: membership plus a BFS parent map for
/// rendering the call path from an entry point to any member.
pub(crate) struct ComputeRegion {
    /// Node is transitively callable from an entry point.
    pub member: Vec<bool>,
    /// First-discovery BFS parent (deterministic: FIFO over sorted
    /// adjacency), `None` for entry points.
    parent: Vec<Option<usize>>,
}

/// Finds the entry-point nodes of `g` (functions under
/// `crates/core/src/` matching [`ENTRY_POINTS`]).
pub(crate) fn entry_nodes(g: &CallGraph) -> Vec<usize> {
    (0..g.nodes.len())
        .filter(|&ix| {
            let n = &g.nodes[ix];
            n.file.starts_with("crates/core/src/")
                && in_region_scope(n)
                && n.func.has_body
                && ENTRY_POINTS.iter().any(|(ty, name)| {
                    *name == n.func.name
                        && match ty {
                            Some(t) => n.func.impl_type.as_deref() == Some(*t),
                            None => true,
                        }
                })
        })
        .collect()
}

/// Forward region from `roots`, honoring the region scope (telemetry
/// and test code are never entered).
pub(crate) fn compute_region_from(g: &CallGraph, roots: &[usize]) -> ComputeRegion {
    let mut member = vec![false; g.nodes.len()];
    let mut parent = vec![None; g.nodes.len()];
    let mut queue: VecDeque<usize> = VecDeque::new();
    for &r in roots {
        if !member[r] {
            member[r] = true;
            queue.push_back(r);
        }
    }
    while let Some(cur) = queue.pop_front() {
        for &t in &g.edges[cur] {
            if member[t] || !in_region_scope(&g.nodes[t]) {
                continue;
            }
            member[t] = true;
            parent[t] = Some(cur);
            queue.push_back(t);
        }
    }
    ComputeRegion { member, parent }
}

/// The full cell-compute region from every entry point.
pub(crate) fn compute_region(g: &CallGraph) -> ComputeRegion {
    let roots = entry_nodes(g);
    compute_region_from(g, &roots)
}

/// `Type::name` or bare `name` for call-path rendering.
pub(crate) fn display_name(n: &FnNode) -> String {
    match &n.func.impl_type {
        Some(t) => format!("{t}::{}", n.func.name),
        None => n.func.name.clone(),
    }
}

/// Renders the entry-to-node call path along the BFS parent chain,
/// e.g. `Controller::run_grid -> eval_cell -> load_dictionary`.
pub(crate) fn call_path(g: &CallGraph, region: &ComputeRegion, ix: usize) -> String {
    let mut names = vec![display_name(&g.nodes[ix])];
    let mut cur = ix;
    while let Some(p) = region.parent[cur] {
        names.push(display_name(&g.nodes[p]));
        cur = p;
    }
    names.reverse();
    names.join(" -> ")
}

/// One ambient input a function reads without going through the key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct TaintSource {
    pub line: usize,
    /// Channel: `environment` / `filesystem` / `wall-clock` /
    /// `global state`.
    pub kind: &'static str,
    /// What is read (callee or static name).
    pub what: String,
}

/// Environment-read detection: `std::env::var` and friends. Returns the
/// rendered callee on a match.
fn env_read(call: &Call) -> Option<String> {
    let name = call.callee.name();
    let is_read = matches!(name, "var" | "var_os" | "vars" | "vars_os");
    if is_read && call.callee.qualifier() == Some("env") {
        return Some(format!("env::{name}"));
    }
    None
}

fn fs_read(call: &Call) -> Option<String> {
    let name = call.callee.name();
    match call.callee.qualifier() {
        Some("fs")
            if matches!(
                name,
                "read" | "read_to_string" | "read_dir" | "read_link" | "metadata"
            ) =>
        {
            Some(format!("fs::{name}"))
        }
        Some("File") if name == "open" => Some("File::open".to_string()),
        _ => None,
    }
}

fn wallclock_read(call: &Call) -> Option<String> {
    let name = call.callee.name();
    match call.callee.qualifier() {
        Some(q @ ("Instant" | "SystemTime" | "perf")) if name == "now" => Some(format!("{q}::now")),
        Some(q @ "Stopwatch") if name == "start" => Some(format!("{q}::start")),
        _ => None,
    }
}

/// Every `static` item name in the workspace (outside test regions),
/// mapped to its declaration site. `thread_local!` bodies declare with
/// the same `static NAME` grammar, so per-thread state is covered too —
/// a worker-local counter still varies between runs. `'static` lifetimes
/// lex as lifetime tokens, so only real declarations match.
pub(crate) fn workspace_statics(model: &WorkspaceModel) -> BTreeMap<String, (String, usize)> {
    let mut out: BTreeMap<String, (String, usize)> = BTreeMap::new();
    for f in &model.files {
        if f.class.is_test_support {
            continue;
        }
        let lines = lex(&f.source);
        let tests = crate::rules::test_region_mask(&lines);
        let toks = tokenize(&lines);
        let mut i = 0usize;
        while i < toks.len() {
            if toks[i].kind == TokKind::Ident
                && toks[i].text == "static"
                && !tests.get(toks[i].line - 1).copied().unwrap_or(false)
            {
                let mut j = i + 1;
                if toks.get(j).is_some_and(|t| t.kind == TokKind::Ident && t.text == "mut") {
                    j += 1;
                }
                if let Some(t) = toks.get(j) {
                    if t.kind == TokKind::Ident
                        && t.text.chars().next().is_some_and(|c| c.is_ascii_uppercase())
                    {
                        out.entry(t.text.clone()).or_insert((f.path.clone(), t.line));
                    }
                }
                i = j;
            }
            i += 1;
        }
    }
    out
}

/// Ambient reads of one region member: env/fs/wall-clock calls plus
/// references to workspace `static`s. Static references are located at
/// their first token occurrence at or after the function header so the
/// suppressing `audit:allow` can sit on the offending line.
pub(crate) fn taint_sources(
    n: &FnNode,
    statics: &BTreeMap<String, (String, usize)>,
    lines: &[SourceLine],
) -> Vec<TaintSource> {
    let mut out = Vec::new();
    for call in &n.func.calls {
        let hit = env_read(call)
            .map(|w| ("environment", w))
            .or_else(|| fs_read(call).map(|w| ("filesystem", w)))
            .or_else(|| wallclock_read(call).map(|w| ("wall-clock", w)));
        if let Some((kind, what)) = hit {
            out.push(TaintSource { line: call.line, kind, what });
        }
    }
    for (name, (decl_file, decl_line)) in statics {
        if !n.func.body_idents.contains(name) {
            continue;
        }
        // Skip the declaration itself when the static is declared inside
        // this very function's span start.
        let line = lines
            .iter()
            .enumerate()
            .skip(n.func.line.saturating_sub(1))
            .find(|(_, l)| has_token(&l.code, name))
            .map_or(n.func.line, |(i, _)| i + 1);
        if decl_file == &n.file && *decl_line == line {
            continue;
        }
        out.push(TaintSource {
            line,
            kind: "global state",
            what: format!("static `{name}` ({decl_file}:{decl_line})"),
        });
    }
    out.sort_by(|a, b| (a.line, a.kind, &a.what).cmp(&(b.line, b.kind, &b.what)));
    out
}

// --------------------------------------------------- float-reduce-order

/// Blocking: `.sum()` / `.product()` downstream of a rayon parallel
/// marker in the same function, with no interposed `collect()` and no
/// registered ordered reducer in the function. Float addition is not
/// associative, so the reduction order — which rayon picks per
/// scheduling — leaks into the result bytes. This closes the
/// closure-less gap `par-merge-registered` cannot see (a bare `.sum()`
/// takes no closure argument).
pub(crate) fn float_reduce_order(g: &CallGraph, sink: &mut Sink) {
    for n in &g.nodes {
        if !n.lib_scope() {
            continue;
        }
        let merged = n
            .func
            .calls
            .iter()
            .any(|k| crate::concurrency::registered_merges().contains(&k.callee.name()));
        if merged {
            continue;
        }
        for (ci, call) in n.func.calls.iter().enumerate() {
            if !matches!(call.callee, Callee::Method(_))
                || !matches!(call.callee.name(), "sum" | "product")
            {
                continue;
            }
            let Some(m) = n.func.calls[..ci]
                .iter()
                .rposition(|k| crate::concurrency::PAR_MARKERS.contains(&k.callee.name()))
            else {
                continue;
            };
            if n.func.calls[m..ci].iter().any(|k| k.callee.name() == "collect") {
                continue;
            }
            sink.emit(
                &n.file,
                call.line,
                "float-reduce-order",
                format!(
                    "`.{}()` after a parallel iterator marker accumulates \
                     floats in scheduling order — collect() into an ordered \
                     container first or route through a registered merge ({})",
                    call.callee.name(),
                    crate::concurrency::registered_merges().join("/"),
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantic::WorkspaceModel;

    fn model(files: &[(&str, &str)]) -> WorkspaceModel {
        let owned: Vec<(String, String)> =
            files.iter().map(|(p, s)| (p.to_string(), s.to_string())).collect();
        WorkspaceModel::build(&owned)
    }

    fn graph_of(m: &WorkspaceModel) -> CallGraph {
        let parsed: Vec<(String, &crate::parser::ParsedFile)> =
            m.files.iter().map(|f| (f.path.clone(), &f.parsed)).collect();
        CallGraph::build(&parsed)
    }

    #[test]
    fn region_follows_calls_and_skips_telemetry() {
        let m = model(&[
            (
                "crates/core/src/controller.rs",
                "impl Controller { pub fn run_grid(&self) { helper(); \
                 rein_telemetry::span(\"x\"); } }\n\
                 fn helper() { leaf(); }\nfn leaf() {}\nfn island() {}\n",
            ),
            (
                "crates/telemetry/src/span.rs",
                "pub fn span(name: &str) { emit(name); }\n\
              fn emit(name: &str) {}\n",
            ),
        ]);
        let g = graph_of(&m);
        let region = compute_region(&g);
        let ix = |name: &str| g.by_name[name][0];
        assert!(region.member[ix("run_grid")]);
        assert!(region.member[ix("helper")]);
        assert!(region.member[ix("leaf")]);
        assert!(!region.member[ix("island")]);
        assert!(!region.member[ix("span")], "telemetry is an observer, not a region member");
        assert_eq!(call_path(&g, &region, ix("leaf")), "Controller::run_grid -> helper -> leaf");
    }

    #[test]
    fn taint_sources_cover_all_four_channels() {
        let m = model(&[(
            "crates/core/src/x.rs",
            "static COUNTER: u64 = 0;\n\
             fn f() {\n\
                 let v = std::env::var(\"X\");\n\
                 let t = fs::read_to_string(path);\n\
                 let n = Instant::now();\n\
                 let c = COUNTER;\n\
             }\n",
        )]);
        let g = graph_of(&m);
        let statics = workspace_statics(&m);
        assert_eq!(statics.get("COUNTER"), Some(&("crates/core/src/x.rs".to_string(), 1)));
        let lines = lex(&m.files[0].source);
        let n = &g.nodes[g.by_name["f"][0]];
        let taints = taint_sources(n, &statics, &lines);
        let kinds: Vec<&str> = taints.iter().map(|t| t.kind).collect();
        assert_eq!(kinds, ["environment", "filesystem", "wall-clock", "global state"]);
        assert_eq!(taints[3].line, 6, "static read located at its use, not the fn header");
    }

    #[test]
    fn statics_scan_skips_lifetimes_and_tests() {
        let m = model(&[(
            "crates/core/src/y.rs",
            "fn f(s: &'static str) {}\n\
             #[cfg(test)]\nmod tests {\n    static ONLY_IN_TESTS: u64 = 0;\n}\n",
        )]);
        assert!(workspace_statics(&m).is_empty());
    }
}
