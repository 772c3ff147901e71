//! Concurrency-determinism rules: certify that everything reachable
//! from a rayon parallel region is safe to shard without changing a
//! single output byte.
//!
//! The parser records every closure (parameters, enclosing call,
//! member calls, ident occurrences), which lets the call graph treat
//! code passed into `spawn`/`par_iter().map(…)`/`scope` as traversable
//! call edges. A closure counts as *parallel* when it is the argument
//! of a parallel entry point (`spawn`, `scope`, `join`, `install`,
//! `broadcast`, rein-guard's `fan_out`), or the argument of an iterator
//! adapter (`map`, `for_each`, `fold`, …) in a function that has
//! already opened a parallel iterator (`par_iter`, `into_par_iter`, …).
//! The *parallel region* is everything reachable from the member calls
//! of parallel closures — over-approximate on purpose: a rule that fires on a
//! serial look-alike costs one `audit:allow`, a rule that misses a
//! shared mutation costs a nondeterministic benchmark.
//!
//! Six blocking rules run over that region (catalog in DESIGN.md §6g,
//! trace-context in §6i): `par-shared-mutable`, `par-seed-derivation`,
//! `par-merge-registered`, `par-atomic-ordering`, `par-lock-discipline`
//! and `trace-context`. A seventh, `float-reduce-order`, checks every
//! library function for a float sum taken straight off a parallel
//! iterator.

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::CallGraph;
use crate::lexer::{has_token, lex, SourceLine};
use crate::parser::{Callee, Closure, Function};
use crate::semantic::{backward_slice, is_rng_construction, Sink, WorkspaceModel};

/// Higher-order entry points whose closure argument runs on another
/// worker thread; `fan_out` is rein-guard's route for a fan-out inside a
/// grid cell.
const PAR_ENTRY: [&str; 7] =
    ["spawn", "scope", "join", "install", "broadcast", "spawn_broadcast", "fan_out"];

/// Calls that turn an iterator chain parallel.
const PAR_MARKERS: [&str; 7] = [
    "par_iter",
    "into_par_iter",
    "par_iter_mut",
    "par_chunks",
    "par_windows",
    "par_bridge",
    "par_drain",
];

/// Iterator adapters whose closure runs on worker threads once a
/// parallel marker has appeared earlier in the same function.
const PAR_ADAPTERS: [&str; 14] = [
    "map",
    "for_each",
    "filter",
    "filter_map",
    "flat_map",
    "fold",
    "reduce",
    "inspect",
    "map_init",
    "map_with",
    "for_each_with",
    "for_each_init",
    "try_for_each",
    "update",
];

/// Deterministic merges registered with the analyzer: proven
/// associative + commutative by test (rein-telemetry's sharded span
/// merge, PR 6), so a parallel fold/reduce routed through them cannot
/// depend on worker interleaving.
const REGISTERED_MERGES: [&str; 3] = ["merge_shards", "merge_entries", "merge_sorted"];

/// Files allowed to use `Ordering::Relaxed`: monotone telemetry
/// counters whose values never feed a serialized artifact without a
/// deterministic aggregation step.
const PAR_ATOMIC_ALLOWED: [&str; 4] = [
    "crates/telemetry/src/perf.rs",
    "crates/telemetry/src/log.rs",
    "crates/telemetry/src/metrics.rs",
    "crates/telemetry/src/span.rs",
];

/// The `Ordering::Relaxed` allowlist, exposed for the catalog tests.
pub fn par_atomic_allowlist() -> &'static [&'static str] {
    &PAR_ATOMIC_ALLOWED
}

/// The registered deterministic merge names, exposed for docs/tests.
pub fn registered_merges() -> &'static [&'static str] {
    &REGISTERED_MERGES
}

/// True when `c` (a closure of `f`) runs on rayon worker threads.
fn is_parallel_closure(f: &Function, c: &Closure) -> bool {
    let Some(ix) = c.arg_of else { return false };
    let Some(call) = f.calls.get(ix) else { return false };
    let name = call.callee.name();
    if PAR_ENTRY.contains(&name) {
        return true;
    }
    PAR_ADAPTERS.contains(&name)
        && f.calls[..ix].iter().any(|k| PAR_MARKERS.contains(&k.callee.name()))
}

/// Parallel sites and the call-graph region reachable from them.
struct ParRegion {
    /// node index → closure indices classified parallel.
    sites: BTreeMap<usize, Vec<usize>>,
    /// node reachable from inside some parallel closure (or hosting one).
    member: Vec<bool>,
}

fn parallel_region(g: &CallGraph) -> ParRegion {
    let mut sites: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    let mut roots: Vec<usize> = Vec::new();
    for (ix, n) in g.nodes.iter().enumerate() {
        for (ci, c) in n.func.closures.iter().enumerate() {
            if !is_parallel_closure(&n.func, c) {
                continue;
            }
            sites.entry(ix).or_default().push(ci);
            for &call_ix in &c.calls {
                if let Some(call) = n.func.calls.get(call_ix) {
                    roots.extend(g.resolve(ix, call));
                }
            }
        }
    }
    let mut member = g.reachable_from(&roots);
    for &ix in sites.keys() {
        member[ix] = true;
    }
    ParRegion { sites, member }
}

/// Runs the seven concurrency rules. Called from `semantic::analyze`.
pub(crate) fn analyze_concurrency(model: &WorkspaceModel, g: &CallGraph, sink: &mut Sink) {
    let region = parallel_region(g);
    par_shared_mutable(model, g, &region, sink);
    par_seed_derivation(g, &region, sink);
    par_merge_registered(g, &region, sink);
    float_reduce_order(g, sink);
    par_atomic_ordering(model, sink);
    par_lock_discipline(model, g, sink);
    trace_context(g, &region, sink);
}

// --------------------------------------------------------- trace-context

/// Span constructors that inherit the thread-local ambient context
/// instead of carrying an explicit trace id. Fine in serial code (the
/// ambient stack is the enclosing span); on a worker thread the stack
/// starts empty, so the span falls outside every causal cell trace.
const AMBIENT_SPAN_CTORS: [&str; 2] = ["span", "span_under"];

fn trace_context(g: &CallGraph, region: &ParRegion, sink: &mut Sink) {
    for (&ix, closure_ixs) in &region.sites {
        let n = &g.nodes[ix];
        if n.class.is_test_support || n.func.in_test {
            continue;
        }
        for &ci in closure_ixs {
            let c = &n.func.closures[ci];
            for &call_ix in &c.calls {
                let Some(call) = n.func.calls.get(call_ix) else { continue };
                if !AMBIENT_SPAN_CTORS.contains(&call.callee.name()) {
                    continue;
                }
                sink.emit(
                    &n.file,
                    call.line,
                    "trace-context",
                    format!(
                        "`{}` opens a span directly inside a parallel \
                         closure without a cell-derived TraceContext — the \
                         worker's ambient parent stack is empty, so the \
                         span becomes an unattributable ambient root; open \
                         the cell root with span_traced(name, parent, \
                         trace_id) keyed on the CellKey digest",
                        call.callee.name()
                    ),
                );
            }
        }
    }
}

// --------------------------------------------------- par-shared-mutable

/// Per-line mask of `thread_local! { … }` regions (per-thread storage
/// is not shared and therefore exempt), tracked by brace depth like the
/// test-region mask.
fn thread_local_mask(lines: &[SourceLine]) -> Vec<bool> {
    let mut mask = Vec::with_capacity(lines.len());
    let mut depth: i64 = 0;
    let mut pending = false;
    let mut stack: Vec<i64> = Vec::new();
    for line in lines {
        if has_token(&line.code, "thread_local") {
            pending = true;
        }
        let mut inside = !stack.is_empty() || pending;
        for c in line.code.chars() {
            match c {
                '{' => {
                    if pending {
                        stack.push(depth);
                        pending = false;
                        inside = true;
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if stack.last() == Some(&depth) {
                        stack.pop();
                    }
                }
                _ => {}
            }
        }
        mask.push(inside || !stack.is_empty());
    }
    mask
}

fn par_shared_mutable(model: &WorkspaceModel, g: &CallGraph, region: &ParRegion, sink: &mut Sink) {
    // Files hosting at least one parallel-region function.
    let region_files: BTreeSet<&str> = g
        .nodes
        .iter()
        .enumerate()
        .filter(|(i, _)| region.member[*i])
        .map(|(_, n)| n.file.as_str())
        .collect();
    for f in &model.files {
        if f.class.is_test_support || !region_files.contains(f.path.as_str()) {
            continue;
        }
        let lines = lex(&f.source);
        let tests = crate::rules::test_region_mask(&lines);
        let locals = thread_local_mask(&lines);
        for (i, line) in lines.iter().enumerate() {
            if tests[i] || locals[i] {
                continue;
            }
            // Imports of cell types are fine; only uses count.
            if line.code.trim_start().starts_with("use ") {
                continue;
            }
            let offender = if has_token(&line.code, "static") && has_token(&line.code, "mut") {
                Some("static mut")
            } else if has_token(&line.code, "RefCell") {
                Some("RefCell")
            } else if has_token(&line.code, "Cell") {
                Some("Cell")
            } else {
                None
            };
            if let Some(what) = offender {
                sink.emit(
                    &f.path,
                    i + 1,
                    "par-shared-mutable",
                    format!(
                        "`{what}` in a file reachable from a parallel region — \
                         unsynchronized interior mutability is not shard-safe; \
                         use an atomic, a Mutex, or thread_local! storage"
                    ),
                );
            }
        }
    }
}

// -------------------------------------------------- par-seed-derivation

/// True when `call` consumes seed material: an RNG construction, or a
/// resolved target with a parameter named `seed`/`*_seed`.
fn is_seed_sink(g: &CallGraph, caller: usize, call: &crate::parser::Call) -> bool {
    if is_rng_construction(call) {
        return true;
    }
    g.resolve(caller, call).into_iter().any(|t| {
        g.nodes[t]
            .func
            .params
            .iter()
            .any(|p| p.names.iter().any(|nm| nm == "seed" || nm.ends_with("_seed")))
    })
}

fn par_seed_derivation(g: &CallGraph, region: &ParRegion, sink: &mut Sink) {
    for (&ix, closure_ixs) in &region.sites {
        let n = &g.nodes[ix];
        if n.class.is_test_support || n.func.in_test {
            continue;
        }
        for &ci in closure_ixs {
            let c = &n.func.closures[ci];
            // Worker-varying idents: the closure's own parameters,
            // propagated through the function's `let` bindings.
            let mut varying: BTreeSet<String> = c.params.iter().cloned().collect();
            for _ in 0..2 {
                for l in &n.func.lets {
                    if l.init_idents.iter().any(|i| varying.contains(i)) {
                        varying.extend(l.names.iter().cloned());
                    }
                }
            }
            for &call_ix in &c.calls {
                let Some(call) = n.func.calls.get(call_ix) else { continue };
                if !is_seed_sink(g, ix, call) {
                    continue;
                }
                let arg_idents: BTreeSet<String> =
                    call.args.iter().flat_map(|a| a.idents.iter().cloned()).collect();
                let slice = backward_slice(&n.func, arg_idents);
                if slice.is_disjoint(&varying) {
                    sink.emit(
                        &n.file,
                        call.line,
                        "par-seed-derivation",
                        format!(
                            "`{}` inside a parallel closure sees the same seed \
                             on every worker — derive a per-cell seed from the \
                             closure's own parameter (e.g. derive_seed(seed, i))",
                            call.callee.name()
                        ),
                    );
                }
            }
        }
    }
}

// ------------------------------------------------- par-merge-registered

fn par_merge_registered(g: &CallGraph, region: &ParRegion, sink: &mut Sink) {
    for (&ix, closure_ixs) in &region.sites {
        let n = &g.nodes[ix];
        if n.class.is_test_support || n.func.in_test {
            continue;
        }
        // One finding per fold/reduce call, not per closure argument.
        let mut flagged: BTreeSet<usize> = BTreeSet::new();
        for &ci in closure_ixs {
            let c = &n.func.closures[ci];
            let Some(call_ix) = c.arg_of else { continue };
            let Some(call) = n.func.calls.get(call_ix) else { continue };
            if !matches!(call.callee.name(), "fold" | "reduce" | "sum") {
                continue;
            }
            // Registered merge in the arguments (`reduce(Vec::new,
            // merge_shards)`) or called from the combiner closure.
            let registered = call
                .args
                .iter()
                .flat_map(|a| a.idents.iter())
                .any(|i| REGISTERED_MERGES.contains(&i.as_str()))
                || c.calls
                    .iter()
                    .filter_map(|&k| n.func.calls.get(k))
                    .any(|k| REGISTERED_MERGES.contains(&k.callee.name()));
            if !registered && flagged.insert(call_ix) {
                sink.emit(
                    &n.file,
                    call.line,
                    "par-merge-registered",
                    format!(
                        "parallel `{}` combines worker results without a \
                         registered deterministic merge ({}) — float folds and \
                         order-sensitive reductions depend on worker \
                         interleaving; collect() into an ordered container or \
                         route through a registered merge",
                        call.callee.name(),
                        REGISTERED_MERGES.join("/"),
                    ),
                );
            }
        }
    }
}

// --------------------------------------------------- float-reduce-order

/// `.sum()` / `.product()` downstream of a parallel marker in the same
/// function, with no interposed `collect()` and no registered merge in
/// the function. Float addition is not associative, so the reduction
/// order, which rayon picks per scheduling, leaks into the result
/// bytes. This closes the closure-less gap `par-merge-registered`
/// cannot see (a bare `.sum()` takes no closure argument).
fn float_reduce_order(g: &CallGraph, sink: &mut Sink) {
    for n in &g.nodes {
        let calls = &n.func.calls;
        if !n.lib_scope() || calls.iter().any(|k| REGISTERED_MERGES.contains(&k.callee.name())) {
            continue;
        }
        for (ci, call) in calls.iter().enumerate() {
            if !matches!(call.callee, Callee::Method(_))
                || !matches!(call.callee.name(), "sum" | "product")
            {
                continue;
            }
            let Some(m) = calls[..ci].iter().rposition(|k| PAR_MARKERS.contains(&k.callee.name()))
            else {
                continue;
            };
            if calls[m..ci].iter().any(|k| k.callee.name() == "collect") {
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
                    REGISTERED_MERGES.join("/"),
                ),
            );
        }
    }
}

// -------------------------------------------------- par-atomic-ordering

fn par_atomic_ordering(model: &WorkspaceModel, sink: &mut Sink) {
    for f in &model.files {
        if f.class.is_test_support || PAR_ATOMIC_ALLOWED.contains(&f.path.as_str()) {
            continue;
        }
        let lines = lex(&f.source);
        let tests = crate::rules::test_region_mask(&lines);
        for (i, line) in lines.iter().enumerate() {
            if tests[i] || !has_token(&line.code, "Relaxed") {
                continue;
            }
            sink.emit(
                &f.path,
                i + 1,
                "par-atomic-ordering",
                "`Ordering::Relaxed` outside the allowlisted telemetry counter \
                 sites — relaxed cross-thread reads are not deterministic; use \
                 Acquire/Release (or keep the atomic in rein-telemetry)"
                    .to_string(),
            );
        }
    }
}

// -------------------------------------------------- par-lock-discipline

/// Extracts the receiver ident of the `k`-th `.lock` occurrence on
/// `line` (0-based), walking back over a call suffix (`registry()`)
/// and, when the chain is line-wrapped, up to `prev` earlier lines.
fn lock_receiver(lines: &[SourceLine], line_ix: usize, k: usize) -> Option<String> {
    let code = &lines.get(line_ix)?.code;
    let mut pos = None;
    let mut seen = 0usize;
    let mut from = 0usize;
    while let Some(off) = code[from..].find(".lock") {
        if seen == k {
            pos = Some(from + off);
            break;
        }
        seen += 1;
        from += off + 5;
    }
    // `.lock()` opening a wrapped chain line: receiver sits on an
    // earlier line.
    let mut text: String = code[..pos?].to_string();
    let mut back = line_ix;
    for _ in 0..3 {
        if let Some(name) = receiver_from_suffix(&text) {
            return Some(name);
        }
        if back == 0 {
            break;
        }
        back -= 1;
        text = format!("{}{}", lines[back].code, text);
    }
    receiver_from_suffix(&text)
}

/// The last receiver ident in `text`, skipping one trailing balanced
/// call suffix: `…counter_registry()` → `counter_registry`.
fn receiver_from_suffix(text: &str) -> Option<String> {
    let cs: Vec<char> = text.chars().collect();
    let mut i = cs.len();
    while i > 0 && (cs[i - 1].is_whitespace() || cs[i - 1] == '.') {
        i -= 1;
    }
    if i > 0 && cs[i - 1] == ')' {
        let mut depth = 0i64;
        while i > 0 {
            match cs[i - 1] {
                ')' => depth += 1,
                '(' => {
                    depth -= 1;
                    if depth == 0 {
                        i -= 1;
                        break;
                    }
                }
                _ => {}
            }
            i -= 1;
        }
    }
    let end = i;
    while i > 0 && (cs[i - 1].is_alphanumeric() || cs[i - 1] == '_') {
        i -= 1;
    }
    if i == end {
        return None;
    }
    let name: String = cs[i..end].iter().collect();
    name.chars().next().filter(|c| c.is_alphabetic() || *c == '_').map(|_| name)
}

fn par_lock_discipline(model: &WorkspaceModel, g: &CallGraph, sink: &mut Sink) {
    let sources: BTreeMap<&str, Vec<SourceLine>> =
        model.files.iter().map(|f| (f.path.as_str(), lex(&f.source))).collect();
    // Order edges: receiver a → receiver b when a's guard is let-bound
    // (held) and b is locked later in the same function.
    let mut edges: BTreeMap<(String, String), (String, usize)> = BTreeMap::new();
    for n in &g.nodes {
        if n.class.is_test_support || n.func.in_test {
            continue;
        }
        let Some(lines) = sources.get(n.file.as_str()) else { continue };
        let lock_ixs: Vec<usize> = n
            .func
            .calls
            .iter()
            .enumerate()
            .filter(|(_, c)| matches!(&c.callee, Callee::Method(m) if m == "lock"))
            .map(|(i, _)| i)
            .collect();
        if lock_ixs.len() < 2 {
            continue;
        }
        let held: BTreeSet<usize> = n
            .func
            .lets
            .iter()
            .flat_map(|l| l.init_top_calls.iter().copied())
            .filter(|i| lock_ixs.contains(i))
            .collect();
        let mut per_line: BTreeMap<usize, usize> = BTreeMap::new();
        let receivers: Vec<(usize, Option<String>)> = lock_ixs
            .iter()
            .map(|&i| {
                let line = n.func.calls[i].line;
                let k = *per_line.entry(line).and_modify(|k| *k += 1).or_insert(0);
                (i, lock_receiver(lines, line.saturating_sub(1), k))
            })
            .collect();
        for (ai, (a, ra)) in receivers.iter().enumerate() {
            if !held.contains(a) {
                continue;
            }
            let Some(ra) = ra else { continue };
            for (b, rb) in receivers.iter().skip(ai + 1) {
                let Some(rb) = rb else { continue };
                if ra != rb {
                    edges
                        .entry((ra.clone(), rb.clone()))
                        .or_insert((n.file.clone(), n.func.calls[*b].line));
                }
            }
        }
    }
    // A cycle in the order graph is a potential deadlock and a
    // scheduling-dependent execution order.
    let reaches = |from: &str, to: &str| -> bool {
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        let mut stack = vec![from];
        while let Some(cur) = stack.pop() {
            if cur == to {
                return true;
            }
            for ((a, b), _) in edges.iter() {
                if a == cur && seen.insert(b) {
                    stack.push(b);
                }
            }
        }
        false
    };
    let findings: Vec<(String, usize, String)> = edges
        .iter()
        .filter(|((a, b), _)| reaches(b, a))
        .map(|((a, b), (file, line))| {
            (
                file.clone(),
                *line,
                format!(
                    "lock on `{b}` is acquired while `{a}` is held, but the \
                     reverse order also exists — pick one global acquisition \
                     order to keep parallel call paths deadlock-free"
                ),
            )
        })
        .collect();
    for (file, line, msg) in findings {
        sink.emit(&file, line, "par-lock-discipline", msg);
    }
}
