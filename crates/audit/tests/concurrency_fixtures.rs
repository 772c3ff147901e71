//! Fixture-based tests for the concurrency-determinism rules and for
//! closure-argument call-graph resolution: each `par-*` rule and
//! `float-reduce-order` has a negative fixture it must flag and a
//! positive fixture it must pass,
//! and closures passed to higher-order functions are proven to be
//! traversable call edges (same-file, cross-file, and parallel-entry
//! variants).

#![allow(
    clippy::panic,
    clippy::disallowed_methods,
    reason = "test support: a broken expectation fails the test, and the fixtures are files"
)]

use std::path::Path;

use rein_audit::callgraph::CallGraph;
use rein_audit::{analyze, Violation, WorkspaceModel};

/// Parses the named fixtures under their virtual workspace paths.
fn model_of(files: &[(&str, &str)]) -> WorkspaceModel {
    let sources: Vec<(String, String)> = files
        .iter()
        .map(|(fixture, vpath)| {
            let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(fixture);
            let source = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
            (vpath.to_string(), source)
        })
        .collect();
    let model = WorkspaceModel::build(&sources);
    let errors = model.parse_errors();
    assert!(errors.is_empty(), "fixtures must parse cleanly: {errors:?}");
    model
}

/// Runs the semantic pass (which includes the concurrency rules) over
/// the named fixtures.
fn analyze_assembly(files: &[(&str, &str)]) -> Vec<Violation> {
    analyze(&model_of(files)).violations
}

/// Whether the function `to` is reachable from the function `from` in
/// the call graph of the named fixtures.
fn reaches(files: &[(&str, &str)], from: &str, to: &str) -> bool {
    let model = model_of(files);
    let parsed: Vec<(String, &rein_audit::parser::ParsedFile)> =
        model.files.iter().map(|f| (f.path.clone(), &f.parsed)).collect();
    let g = CallGraph::build(&parsed);
    let node = |name: &str| g.by_name.get(name).and_then(|v| v.first().copied());
    let (Some(from), Some(to)) = (node(from), node(to)) else {
        panic!("fixtures define no `{from}` or no `{to}`")
    };
    g.reachable_from(&[from])[to]
}

fn of_rule<'a>(violations: &'a [Violation], rule: &str) -> Vec<&'a Violation> {
    violations.iter().filter(|v| v.rule == rule).collect()
}

// ------------------------------------------------------ par-shared-mutable

#[test]
fn par_shared_mutable_flags_cells_reachable_from_parallel_region() {
    let violations = analyze_assembly(&[("par_shared_bad.rs", "crates/core/src/fixture.rs")]);
    let hits = of_rule(&violations, "par-shared-mutable");
    // The `static mut` and the `RefCell` field — but not the `use` line.
    assert_eq!(hits.len(), 2, "got {violations:?}");
    assert!(hits.iter().any(|v| v.message.contains("static mut")), "got {hits:?}");
    assert!(hits.iter().any(|v| v.message.contains("RefCell")), "got {hits:?}");
}

#[test]
fn par_shared_mutable_accepts_atomics_mutex_and_thread_local() {
    let violations = analyze_assembly(&[("par_shared_ok.rs", "crates/core/src/fixture.rs")]);
    assert!(of_rule(&violations, "par-shared-mutable").is_empty(), "got {violations:?}");
}

#[test]
fn par_shared_mutable_ignores_files_outside_any_parallel_region() {
    // The same interior mutability with the parallel entry removed: a
    // purely serial file may keep its cells.
    let source = "\
use std::cell::RefCell;

pub struct Tally {
    slots: RefCell<Vec<usize>>,
}

pub fn tally(xs: &[usize]) -> Vec<usize> {
    xs.iter().map(|x| *x + 1).collect()
}
";
    let model =
        WorkspaceModel::build(&[("crates/core/src/serial.rs".to_string(), source.to_string())]);
    let out = analyze(&model);
    assert!(
        !out.violations.iter().any(|v| v.rule == "par-shared-mutable"),
        "got {:?}",
        out.violations
    );
}

// ----------------------------------------------------- par-seed-derivation

#[test]
fn par_seed_derivation_flags_loop_shared_seed() {
    let violations = analyze_assembly(&[("par_seed_bad.rs", "crates/core/src/fixture.rs")]);
    let hits = of_rule(&violations, "par-seed-derivation");
    assert_eq!(hits.len(), 1, "got {violations:?}");
    assert!(hits[0].message.contains("seed_from_u64"), "got {hits:?}");
    // The plain provenance rule is satisfied (the seed IS a parameter):
    // only the parallel rule catches the per-worker sharing.
    assert!(of_rule(&violations, "seed-provenance").is_empty(), "got {violations:?}");
}

#[test]
fn par_seed_derivation_accepts_per_cell_derivation() {
    let violations = analyze_assembly(&[("par_seed_ok.rs", "crates/core/src/fixture.rs")]);
    assert!(of_rule(&violations, "par-seed-derivation").is_empty(), "got {violations:?}");
    assert!(of_rule(&violations, "seed-provenance").is_empty(), "got {violations:?}");
}

// ---------------------------------------------------- par-merge-registered

#[test]
fn par_merge_registered_flags_ad_hoc_float_reduce() {
    let violations = analyze_assembly(&[("par_merge_bad.rs", "crates/core/src/fixture.rs")]);
    let hits = of_rule(&violations, "par-merge-registered");
    // One finding on the reduce call, not one per closure argument.
    assert_eq!(hits.len(), 1, "got {violations:?}");
    assert!(hits[0].message.contains("reduce"), "got {hits:?}");
}

#[test]
fn par_merge_registered_accepts_registered_merges_and_collect() {
    let violations = analyze_assembly(&[("par_merge_ok.rs", "crates/core/src/fixture.rs")]);
    assert!(of_rule(&violations, "par-merge-registered").is_empty(), "got {violations:?}");
}

// ------------------------------------------------------ float-reduce-order

#[test]
fn float_reduce_flags_sum_off_a_parallel_iterator() {
    let violations = analyze_assembly(&[("float_reduce_bad.rs", "crates/core/src/fixture.rs")]);
    let hits = of_rule(&violations, "float-reduce-order");
    assert_eq!(hits.len(), 1, "got {violations:?}");
    assert!(hits[0].message.contains("sum"), "got {hits:?}");
}

#[test]
fn float_reduce_passes_collect_plus_registered_merge() {
    let violations = analyze_assembly(&[("float_reduce_ok.rs", "crates/core/src/fixture.rs")]);
    assert!(of_rule(&violations, "float-reduce-order").is_empty(), "{violations:?}");
}

#[test]
fn float_reduce_suppression_works() {
    let source = "pub fn mean(xs: &[f64]) -> f64 {\n\
         // audit:allow(float-reduce-order, inputs are sanitized to exact dyadics)\n\
         xs.par_iter().map(|x| x * 0.5).sum::<f64>()\n\
         }\n";
    let model =
        WorkspaceModel::build(&[("crates/core/src/fixture.rs".to_string(), source.to_string())]);
    let out = analyze(&model);
    assert!(of_rule(&out.violations, "float-reduce-order").is_empty(), "{:?}", out.violations);
    assert!(out.suppressed >= 1, "expected a suppressed finding");
}

// ----------------------------------------------------- par-atomic-ordering

#[test]
fn par_atomic_ordering_flags_relaxed_outside_allowlist() {
    let violations = analyze_assembly(&[("par_atomic_bad.rs", "crates/core/src/fixture.rs")]);
    let hits = of_rule(&violations, "par-atomic-ordering");
    assert_eq!(hits.len(), 1, "got {violations:?}");
}

#[test]
fn par_atomic_ordering_accepts_stronger_orderings() {
    let violations = analyze_assembly(&[("par_atomic_ok.rs", "crates/core/src/fixture.rs")]);
    assert!(of_rule(&violations, "par-atomic-ordering").is_empty(), "got {violations:?}");
}

#[test]
fn par_atomic_ordering_allowlists_telemetry_counter_sites() {
    // The very same Relaxed counter is legitimate at an allowlisted
    // telemetry path.
    let violations = analyze_assembly(&[("par_atomic_bad.rs", "crates/telemetry/src/metrics.rs")]);
    assert!(of_rule(&violations, "par-atomic-ordering").is_empty(), "got {violations:?}");
}

// ----------------------------------------------------- par-lock-discipline

#[test]
fn par_lock_discipline_flags_conflicting_acquisition_orders() {
    let violations = analyze_assembly(&[("par_lock_bad.rs", "crates/core/src/fixture.rs")]);
    let hits = of_rule(&violations, "par-lock-discipline");
    // Both directions of the cycle are reported.
    assert_eq!(hits.len(), 2, "got {violations:?}");
    assert!(hits.iter().all(|v| v.message.contains("reverse order")), "got {hits:?}");
}

#[test]
fn par_lock_discipline_accepts_consistent_global_order() {
    let violations = analyze_assembly(&[("par_lock_ok.rs", "crates/core/src/fixture.rs")]);
    assert!(of_rule(&violations, "par-lock-discipline").is_empty(), "got {violations:?}");
}

// --------------------------------------------------------- trace-context

#[test]
fn trace_context_flags_ambient_span_in_parallel_closure() {
    let violations = analyze_assembly(&[("trace_ctx_bad.rs", "crates/core/src/fixture.rs")]);
    let hits = of_rule(&violations, "trace-context");
    assert_eq!(hits.len(), 1, "got {violations:?}");
    assert!(hits[0].message.contains("span_traced"), "got {hits:?}");
}

#[test]
fn trace_context_accepts_span_traced_cell_roots() {
    let violations = analyze_assembly(&[("trace_ctx_ok.rs", "crates/core/src/fixture.rs")]);
    assert!(of_rule(&violations, "trace-context").is_empty(), "got {violations:?}");
}

// ------------------------------------------- closure-argument call edges

#[test]
fn closure_passed_to_adapter_is_a_call_edge() {
    // `grid` only calls `risky` inside the `.map(|x| risky(*x))` closure.
    let files = [("closure_edge_adapter_bad.rs", "crates/data/src/fixture.rs")];
    assert!(reaches(&files, "grid", "risky"));
}

#[test]
fn spawn_closure_resolves_across_files() {
    // `launch` reaches `remote_step` (in the other file) only through the
    // spawn closure.
    let files = [
        ("closure_edge_spawn_bad.rs", "crates/core/src/fixture.rs"),
        ("closure_edge_remote.rs", "crates/core/src/remote.rs"),
    ];
    assert!(reaches(&files, "launch", "remote_step"));
}

#[test]
fn fan_out_closures_are_parallel() {
    // rein-guard's `fan_out` runs its closure on pool threads, so the
    // seed and trace-context rules cover it like a `par_iter` chain.
    let source = "\
pub fn fit_all(items: Vec<u64>, seed: u64) -> Vec<u64> {
    rein_guard::fan_out(items, |x| {
        let _s = span(\"item\");
        let mut rng = StdRng::seed_from_u64(seed);
        step(&mut rng, x)
    })
}
fn step(rng: &mut StdRng, x: u64) -> u64 {
    x
}
";
    let model =
        WorkspaceModel::build(&[("crates/core/src/fixture.rs".to_string(), source.to_string())]);
    let violations = analyze(&model).violations;
    assert_eq!(of_rule(&violations, "trace-context").len(), 1, "got {violations:?}");
    assert_eq!(of_rule(&violations, "par-seed-derivation").len(), 1, "got {violations:?}");
}

#[test]
fn suppressions_work_on_concurrency_findings() {
    // An `audit:allow(par-shared-mutable, …)` on the offending line
    // silences the finding like any other rule.
    let source = "\
pub fn tally(xs: &[usize]) -> Vec<usize> {
    xs.par_iter().map(|x| *x + COUNTER.with(|c| c.get())).collect()
}
// audit:allow(par-shared-mutable, single-owner scratch counter, reset per call)
static SCRATCH: std::cell::Cell<usize> = std::cell::Cell::new(0);
";
    let model =
        WorkspaceModel::build(&[("crates/core/src/fixture.rs".to_string(), source.to_string())]);
    let out = analyze(&model);
    assert!(
        !out.violations.iter().any(|v| v.rule == "par-shared-mutable"),
        "got {:?}",
        out.violations
    );
    assert!(out.suppressed >= 1, "expected a suppressed finding");
}
