//! Semantic rules over the parsed workspace: seed provenance and split
//! leakage, plus [`analyze`], which runs them with the concurrency
//! rules.
//!
//! Each rule works on the [`CallGraph`] built from every first-party
//! file, and reuses the `audit:allow(rule, reason)` suppression
//! convention via [`AllowTable`] — a semantic finding is suppressed
//! exactly like a token finding: an annotation on (or directly above)
//! the reported line, with a mandatory reason.

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::{CallGraph, FnNode};
use crate::parser::{parse_file, Call, Callee, Function, ParsedFile};
use crate::rules::{classify, AllowTable, FileClass, Violation};

/// One file prepared for semantic analysis.
#[derive(Debug)]
pub struct FileModel {
    /// Workspace-relative path (forward slashes).
    pub path: String,
    pub class: FileClass,
    pub parsed: ParsedFile,
    pub allows: AllowTable,
    /// Raw source, kept for token-level passes (concurrency rules).
    pub source: String,
}

/// Every first-party file, parsed.
#[derive(Debug, Default)]
pub struct WorkspaceModel {
    pub files: Vec<FileModel>,
}

impl WorkspaceModel {
    /// Builds the model from `(workspace-relative path, source)` pairs.
    pub fn build(files: &[(String, String)]) -> WorkspaceModel {
        let mut model = WorkspaceModel::default();
        for (path, source) in files {
            model.files.push(FileModel {
                path: path.clone(),
                class: classify(path),
                parsed: parse_file(source),
                allows: AllowTable::build(source),
                source: source.clone(),
            });
        }
        model
    }

    /// Total parse errors across the workspace (the smoke test wants 0).
    pub fn parse_errors(&self) -> Vec<(String, String)> {
        let mut out = Vec::new();
        for f in &self.files {
            for e in &f.parsed.errors {
                out.push((f.path.clone(), e.clone()));
            }
        }
        out
    }
}

/// Result of the semantic pass.
#[derive(Debug, Default)]
pub struct SemanticOutcome {
    pub violations: Vec<Violation>,
    pub suppressed: usize,
    /// Per file: `audit:allow` entries that suppressed at least one
    /// finding, keyed as [`AllowTable::match_keys`] keys. The report
    /// layer diffs this against every annotation to find stale allows.
    pub consumed: BTreeMap<String, BTreeSet<(usize, String, bool)>>,
}

/// Collects findings, applying suppressions per file/line.
pub(crate) struct Sink<'a> {
    allows: BTreeMap<&'a str, &'a AllowTable>,
    seen: BTreeSet<(String, usize, String, String)>,
    out: SemanticOutcome,
}

impl<'a> Sink<'a> {
    fn new(model: &'a WorkspaceModel) -> Sink<'a> {
        Sink {
            allows: model.files.iter().map(|f| (f.path.as_str(), &f.allows)).collect(),
            seen: BTreeSet::new(),
            out: SemanticOutcome::default(),
        }
    }

    /// Records a finding unless an `audit:allow` on (or directly above)
    /// its line silences it; a silencing annotation is marked consumed.
    pub(crate) fn emit(&mut self, path: &str, line: usize, rule: &str, message: String) {
        if !self.seen.insert((path.to_string(), line, rule.to_string(), message.clone())) {
            return;
        }
        if let Some(t) = self.allows.get(path).filter(|t| t.allows(line, rule)) {
            self.out.suppressed += 1;
            self.out.consumed.entry(path.to_string()).or_default().extend(t.match_keys(line, rule));
            return;
        }
        self.out.violations.push(Violation {
            path: path.to_string(),
            line,
            rule: rule.to_string(),
            message,
        });
    }
}

/// Runs every semantic rule over the workspace model.
pub fn analyze(model: &WorkspaceModel) -> SemanticOutcome {
    let parsed: Vec<(String, &ParsedFile)> =
        model.files.iter().map(|f| (f.path.clone(), &f.parsed)).collect();
    let graph = CallGraph::build(&parsed);
    let mut sink = Sink::new(model);
    seed_provenance(&graph, &mut sink);
    split_leakage(&graph, &mut sink);
    crate::concurrency::analyze_concurrency(model, &graph, &mut sink);
    let mut out = sink.out;
    out.violations.sort();
    out
}

// ---------------------------------------------------------------- taint

/// Forward taint: idents derived from the function's parameters (and
/// `self`), propagated through `let` bindings.
pub(crate) fn param_taint(f: &Function) -> BTreeSet<String> {
    let mut t: BTreeSet<String> = f.params.iter().flat_map(|p| p.names.iter().cloned()).collect();
    if f.has_self {
        t.insert("self".to_string());
    }
    for _ in 0..2 {
        for l in &f.lets {
            if l.init_idents.iter().any(|i| t.contains(i)) {
                t.extend(l.names.iter().cloned());
            }
        }
    }
    t
}

/// Backward slice: starting from `seeds`, adds every ident whose `let`
/// binding flows into the set.
pub(crate) fn backward_slice(f: &Function, seeds: BTreeSet<String>) -> BTreeSet<String> {
    let mut s = seeds;
    for _ in 0..2 {
        for l in f.lets.iter().rev() {
            if l.names.iter().any(|n| s.contains(n)) {
                s.extend(l.init_idents.iter().cloned());
            }
        }
    }
    s
}

// ------------------------------------------------------ seed-provenance

/// An RNG construction whose first argument is the seed material.
pub(crate) fn is_rng_construction(call: &Call) -> bool {
    match call.callee.name() {
        "seed_from_u64" | "from_seed" => true,
        "new" => {
            call.callee.qualifier().is_some_and(|q| q.ends_with("Rng") || q.ends_with("Rng64"))
        }
        _ => false,
    }
}

/// Scope where concrete seeds are forbidden: library code outside the
/// bench crate (tests, benches and binaries legitimately pin seeds).
fn seed_scope(n: &FnNode) -> bool {
    n.lib_scope() && n.crate_name != "bench"
}

fn seed_provenance(g: &CallGraph, sink: &mut Sink) {
    // 1. Direct rule: every RNG construction in scope must consume a
    //    param-derived ident, and those params become seed sinks.
    let mut sinks: BTreeSet<(usize, usize)> = BTreeSet::new();
    for (ix, n) in g.nodes.iter().enumerate() {
        let taint = param_taint(&n.func);
        for call in &n.func.calls {
            if !is_rng_construction(call) {
                continue;
            }
            let arg_idents: BTreeSet<String> =
                call.args.iter().flat_map(|a| a.idents.iter().cloned()).collect();
            let slice = backward_slice(&n.func, arg_idents.clone());
            for (pi, p) in n.func.params.iter().enumerate() {
                if p.names.iter().any(|nm| slice.contains(nm)) {
                    sinks.insert((ix, pi));
                }
            }
            if seed_scope(n) && !arg_idents.iter().any(|i| taint.contains(i)) {
                sink.emit(
                    &n.file,
                    call.line,
                    "seed-provenance",
                    format!(
                        "RNG construction `{}` does not trace its seed to a \
                         function parameter — derive it from a seed argument \
                         instead of a literal or local constant",
                        call.callee.name()
                    ),
                );
            }
        }
    }
    // 2. Interprocedural fixpoint: a param feeding a seed-sink position
    //    of a callee is itself a seed sink.
    for _ in 0..10 {
        let before = sinks.len();
        for caller in 0..g.nodes.len() {
            let n = &g.nodes[caller];
            for call in &n.func.calls {
                for target in g.resolve(caller, call) {
                    let target_sinks: Vec<usize> =
                        sinks.iter().filter(|(t, _)| *t == target).map(|(_, pi)| *pi).collect();
                    for pi in target_sinks {
                        // UFCS path calls to methods shift args by the
                        // explicit receiver.
                        let shift = usize::from(
                            matches!(call.callee, Callee::Path(_)) && g.nodes[target].func.has_self,
                        );
                        let Some(arg) = call.args.get(pi + shift) else { continue };
                        let idents: BTreeSet<String> = arg.idents.iter().cloned().collect();
                        let slice = backward_slice(&n.func, idents);
                        for (qi, p) in n.func.params.iter().enumerate() {
                            if p.names.iter().any(|nm| slice.contains(nm)) {
                                sinks.insert((caller, qi));
                            }
                        }
                    }
                }
            }
        }
        if sinks.len() == before {
            break;
        }
    }
    // 3. Literal-into-sink: in-scope callers must not pass a constant
    //    into a seed-sink position.
    for caller in 0..g.nodes.len() {
        let n = &g.nodes[caller];
        if !seed_scope(n) {
            continue;
        }
        let taint = param_taint(&n.func);
        for call in &n.func.calls {
            for target in g.resolve(caller, call) {
                let target_sinks: Vec<usize> =
                    sinks.iter().filter(|(t, _)| *t == target).map(|(_, pi)| *pi).collect();
                for pi in target_sinks {
                    let shift = usize::from(
                        matches!(call.callee, Callee::Path(_)) && g.nodes[target].func.has_self,
                    );
                    let Some(arg) = call.args.get(pi + shift) else { continue };
                    if !arg.idents.iter().any(|i| taint.contains(i)) {
                        sink.emit(
                            &n.file,
                            call.line,
                            "seed-provenance",
                            format!(
                                "seed parameter of `{}` receives a \
                                 literal/constant here — thread a seed \
                                 argument through instead",
                                call.callee.name()
                            ),
                        );
                    }
                }
            }
        }
    }
}

// -------------------------------------------------------- split-leakage

const TEST_COMPONENTS: [&str; 5] = ["test", "te", "xte", "yte", "tst"];

/// `x_test`, `xte`, `te_idx`… — idents naming the test partition.
fn is_test_tagged(name: &str) -> bool {
    name.split('_').any(|c| TEST_COMPONENTS.contains(&c))
}

/// `fit`, `fit_*`, `train`, `train_*` — callees that learn parameters
/// (excluding names that legitimately mention the test split, like
/// `train_test_split`).
fn is_fit_like(name: &str) -> bool {
    (name == "fit" || name.starts_with("fit_") || name == "train" || name.starts_with("train_"))
        && !name.contains("test")
}

fn split_leakage(g: &CallGraph, sink: &mut Sink) {
    for n in &g.nodes {
        if !n.lib_scope() || !matches!(n.crate_name.as_str(), "detect" | "repair" | "ml") {
            continue;
        }
        // Test-partition idents: tagged params, plus bindings derived
        // from tagged idents (covers `split.test` field access, whose
        // `test` component surfaces as an ident occurrence).
        let mut tagged: BTreeSet<String> = n
            .func
            .params
            .iter()
            .flat_map(|p| p.names.iter())
            .filter(|nm| is_test_tagged(nm))
            .cloned()
            .collect();
        for _ in 0..2 {
            for l in &n.func.lets {
                if l.init_idents.iter().any(|i| tagged.contains(i) || is_test_tagged(i)) {
                    tagged.extend(l.names.iter().cloned());
                }
            }
        }
        for call in &n.func.calls {
            if !is_fit_like(call.callee.name()) {
                continue;
            }
            let leak = call
                .args
                .iter()
                .flat_map(|a| a.idents.iter())
                .find(|i| tagged.contains(*i) || is_test_tagged(i));
            if let Some(ident) = leak {
                sink.emit(
                    &n.file,
                    call.line,
                    "split-leakage",
                    format!(
                        "test partition `{ident}` flows into fit-like callee \
                         `{}` — models must never learn from the held-out \
                         split",
                        call.callee.name()
                    ),
                );
            }
        }
    }
}
