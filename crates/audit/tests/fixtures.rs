//! Fixture-based rule tests: every rule has a negative fixture it must
//! flag and a positive fixture it must pass.
//!
//! Each fixture under `tests/fixtures/` is a real `.rs` file (excluded
//! from workspace scans by the source walker) audited under a *declared*
//! virtual path, since rule scoping is path-driven — the same wall-clock
//! read is a violation in `crates/core/` and legitimate in
//! `crates/telemetry/`.

use std::path::Path;

use rein_audit::{audit_source, FileAudit};

fn audit_fixture(fixture: &str, virtual_path: &str) -> FileAudit {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(fixture);
    let source =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    audit_source(virtual_path, &source)
}

fn rules_of(audit: &FileAudit) -> Vec<&str> {
    audit.violations.iter().map(|v| v.rule.as_str()).collect()
}

#[track_caller]
fn assert_fires(fixture: &str, virtual_path: &str, rule: &str) {
    let audit = audit_fixture(fixture, virtual_path);
    assert!(
        rules_of(&audit).contains(&rule),
        "{fixture} @ {virtual_path}: expected `{rule}` to fire, got {:?}",
        audit.violations
    );
}

#[track_caller]
fn assert_clean(fixture: &str, virtual_path: &str) {
    let audit = audit_fixture(fixture, virtual_path);
    assert!(
        audit.violations.is_empty(),
        "{fixture} @ {virtual_path}: expected no violations, got {:?}",
        audit.violations
    );
}

#[test]
fn wallclock_rule() {
    assert_fires("wallclock_bad.rs", "crates/core/src/fixture.rs", "wallclock");
    // The carve-out is exactly rein-telemetry::perf: the same read is
    // legal there and a violation anywhere else in the telemetry crate
    // or the ml instrumentation shim.
    assert_clean("wallclock_ok.rs", "crates/telemetry/src/perf.rs");
    assert_fires("wallclock_ok.rs", "crates/telemetry/src/fixture.rs", "wallclock");
    assert_fires("wallclock_bad.rs", "crates/telemetry/src/span.rs", "wallclock");
    assert_fires("wallclock_bad.rs", "crates/ml/src/instrument.rs", "wallclock");
    // Timing through perf::Stopwatch carries no raw wall-clock token.
    assert_clean("wallclock_stopwatch_ok.rs", "crates/core/src/fixture.rs");
}

#[test]
fn hash_iter_rule() {
    assert_fires("hash_iter_bad.rs", "crates/core/src/fixture.rs", "hash-iter");
    assert_clean("hash_iter_ok.rs", "crates/core/src/fixture.rs");
}

#[test]
fn unseeded_rng_rule() {
    assert_fires("unseeded_rng_bad.rs", "crates/ml/src/fixture.rs", "unseeded-rng");
    assert_clean("unseeded_rng_ok.rs", "crates/ml/src/fixture.rs");
}

#[test]
fn panic_rule() {
    assert_fires("panic_bad.rs", "crates/data/src/fixture.rs", "panic");
    let ok = audit_fixture("panic_ok.rs", "crates/data/src/fixture.rs");
    assert!(ok.violations.is_empty(), "annotated panic must pass: {:?}", ok.violations);
    assert_eq!(ok.suppressed, 1, "the annotation must be counted as a suppression");
}

#[test]
fn annotation_rule() {
    // A reason-less allow is itself a violation *and* fails to suppress,
    // so the underlying panic fires too.
    let audit = audit_fixture("annotation_bad.rs", "crates/data/src/fixture.rs");
    let rules = rules_of(&audit);
    assert!(rules.contains(&"annotation"), "got {:?}", audit.violations);
    assert!(rules.contains(&"panic"), "got {:?}", audit.violations);
}

#[test]
fn telemetry_phases_rule() {
    assert_fires("phases_bad.rs", "crates/bench/src/bin/fixture.rs", "telemetry-phases");
    assert_clean("phases_ok.rs", "crates/bench/src/bin/fixture.rs");
}

#[test]
fn telemetry_span_rule() {
    assert_fires("span_bad.rs", "crates/detect/src/fixture.rs", "telemetry-span");
    assert_clean("span_ok.rs", "crates/detect/src/fixture.rs");
    // The rule covers repair modules identically.
    assert_fires("span_bad.rs", "crates/repair/src/fixture.rs", "telemetry-span");
}

#[test]
fn print_rule() {
    assert_fires("print_bad.rs", "crates/core/src/fixture.rs", "print");
    // The bench emission helpers are the sanctioned stdout path.
    assert_clean("print_ok.rs", "crates/bench/src/lib.rs");
    // Binaries print their reports by design (the phases rule still
    // applies to a bench-bin path, so only assert `print` stays quiet).
    let bin = audit_fixture("print_bad.rs", "crates/bench/src/bin/fixture.rs");
    assert!(!rules_of(&bin).contains(&"print"), "got {:?}", bin.violations);
}

#[test]
fn guard_coverage_rule() {
    assert_fires("guard_coverage_bad.rs", "crates/core/src/fixture.rs", "guard-coverage");
    assert_fires("guard_coverage_bad.rs", "crates/bench/src/fixture.rs", "guard-coverage");
    // A file that calls rein_guard::run is the sanctioned dispatcher.
    assert_clean("guard_coverage_ok.rs", "crates/core/src/fixture.rs");
    // Outside rein-core and rein-bench the rule does not apply (the
    // detect/repair crates invoke their own kernels freely), and test
    // support paths are exempt everywhere.
    let out = audit_fixture("guard_coverage_bad.rs", "crates/detect/src/fixture.rs");
    assert!(!rules_of(&out).contains(&"guard-coverage"), "got {:?}", out.violations);
    let out = audit_fixture("guard_coverage_bad.rs", "crates/core/tests/fixture.rs");
    assert!(!rules_of(&out).contains(&"guard-coverage"), "got {:?}", out.violations);
}

#[test]
fn store_atomic_write_rule() {
    assert_fires("store_write_bad.rs", "crates/core/src/fixture.rs", "store-atomic-write");
    // Binaries are in scope too: a smoke bin poking the journal with a
    // raw write needs an explicit audit:allow.
    assert_fires("store_write_bad.rs", "crates/bench/src/bin/fixture.rs", "store-atomic-write");
    assert_clean("store_write_ok.rs", "crates/core/src/fixture.rs");
    // The store crate owns the raw fsync + rename machinery, and test
    // support may corrupt journals on purpose.
    let out = audit_fixture("store_write_bad.rs", "crates/store/src/fixture.rs");
    assert!(!rules_of(&out).contains(&"store-atomic-write"), "got {:?}", out.violations);
    let out = audit_fixture("store_write_bad.rs", "crates/store/tests/fixture.rs");
    assert!(!rules_of(&out).contains(&"store-atomic-write"), "got {:?}", out.violations);
}

#[test]
fn comments_and_strings_do_not_fire() {
    assert_clean("lexer_ok.rs", "crates/core/src/fixture.rs");
}

#[test]
fn test_support_paths_are_exempt_from_panic_and_print() {
    assert_clean("panic_bad.rs", "crates/data/tests/fixture.rs");
    assert_clean("print_bad.rs", "tests/fixture.rs");
}
