//! Fixture tests for the per-file annotation check: a reason-less
//! `audit:allow-file` is itself a violation, and annotation syntax inside
//! strings or prose is not an annotation.
//!
//! Each fixture under `tests/fixtures/` is a real `.rs` file (excluded
//! from workspace scans by the source walker) audited under a *declared*
//! virtual path, since rule scoping is path-driven.

#![allow(clippy::panic, reason = "test support: a broken expectation fails the test")]

use std::path::Path;

use rein_audit::report::{audit_sources, Report};

fn audit_fixture(fixture: &str, virtual_path: &str) -> Report {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(fixture);
    let source =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    audit_sources(vec![(virtual_path.to_string(), source)])
}

#[test]
fn annotation_rule() {
    // A reason-less allow is itself a violation *and* fails to suppress,
    // so the underlying seed-provenance finding fires too.
    let report = audit_fixture("annotation_bad.rs", "crates/ml/src/fixture.rs");
    let rules: Vec<&str> = report.violations.iter().map(|v| v.rule.as_str()).collect();
    assert!(rules.contains(&"annotation"), "got {:?}", report.violations);
    assert!(rules.contains(&"seed-provenance"), "got {:?}", report.violations);
}

#[test]
fn comments_and_strings_do_not_fire() {
    let report = audit_fixture("lexer_ok.rs", "crates/core/src/fixture.rs");
    assert!(report.violations.is_empty(), "got {:?}", report.violations);
}
