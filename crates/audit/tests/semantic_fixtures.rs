//! Fixture-based tests for the semantic (call-graph) rules: each rule
//! has a negative fixture it must flag and a positive fixture it must
//! pass.
//!
//! Semantic rules see the *whole workspace* at once, so a fixture here
//! is an assembly of `(virtual path, file)` pairs.

#![allow(
    clippy::panic,
    clippy::disallowed_methods,
    reason = "test support: a broken expectation fails the test, and the fixtures are files"
)]

use std::path::Path;

use rein_audit::{analyze, Violation, WorkspaceModel};

/// Parses the named fixtures under their virtual workspace paths and
/// runs the semantic pass.
fn analyze_assembly(files: &[(&str, &str)]) -> Vec<Violation> {
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
    analyze(&model).violations
}

fn of_rule<'a>(violations: &'a [Violation], rule: &str) -> Vec<&'a Violation> {
    violations.iter().filter(|v| v.rule == rule).collect()
}

#[test]
fn seed_provenance_flags_literals_and_interprocedural_sinks() {
    let violations = analyze_assembly(&[("seed_provenance_bad.rs", "crates/ml/src/fixture.rs")]);
    let hits = of_rule(&violations, "seed-provenance");
    // One direct literal construction plus one literal into a seed-sink
    // parameter of `make_rng`.
    assert_eq!(hits.len(), 2, "got {violations:?}");
    assert!(hits.iter().any(|v| v.message.contains("seed_from_u64")), "got {hits:?}");
    assert!(hits.iter().any(|v| v.message.contains("make_rng")), "got {hits:?}");
}

#[test]
fn seed_provenance_accepts_parameter_threading() {
    let violations = analyze_assembly(&[("seed_provenance_ok.rs", "crates/ml/src/fixture.rs")]);
    assert!(of_rule(&violations, "seed-provenance").is_empty(), "got {violations:?}");
}

#[test]
fn seed_provenance_is_scoped_to_library_code() {
    // The same source is fine in a test-support path: tests pin seeds.
    let violations = analyze_assembly(&[("seed_provenance_bad.rs", "crates/ml/tests/fixture.rs")]);
    assert!(of_rule(&violations, "seed-provenance").is_empty(), "got {violations:?}");
}

#[test]
fn split_leakage_flags_test_partition_into_fit() {
    let violations = analyze_assembly(&[("split_leakage_bad.rs", "crates/ml/src/fixture.rs")]);
    let hits = of_rule(&violations, "split-leakage");
    // Direct `x_test` into fit, plus the `holdout` rebinding of `xte`.
    assert_eq!(hits.len(), 2, "got {violations:?}");
    assert!(hits.iter().any(|v| v.message.contains("x_test")), "got {hits:?}");
}

#[test]
fn split_leakage_accepts_train_fit_test_predict() {
    let violations = analyze_assembly(&[("split_leakage_ok.rs", "crates/ml/src/fixture.rs")]);
    assert!(of_rule(&violations, "split-leakage").is_empty(), "got {violations:?}");
}
