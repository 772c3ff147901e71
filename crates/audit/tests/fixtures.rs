//! Fixture tests for the annotations: a reason-less `audit:allow-file`
//! is itself a violation, annotation syntax inside strings or prose is
//! not an annotation, and one that suppresses nothing is `stale-allow`.
//!
//! Each fixture under `tests/fixtures/` is a real `.rs` file (excluded
//! from workspace scans by the source walker) audited under a *declared*
//! virtual path, since rule scoping is path-driven.

#![allow(
    clippy::panic,
    clippy::disallowed_methods,
    reason = "test support: a broken expectation fails the test, and the fixtures are files"
)]

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

// ------------------------------------------------------------- stale-allow

/// A dead `seed-provenance` waiver: the file constructs no RNG.
const STALE: &str =
    "// audit:allow(seed-provenance, a reason that outlived its finding)\npub fn f() {}\n";

#[test]
fn stale_allow_reports_annotations_that_suppress_nothing() {
    let report = audit_sources(vec![("crates/core/src/x.rs".to_string(), STALE.to_string())]);
    let stale: Vec<_> = report.violations.iter().filter(|v| v.rule == "stale-allow").collect();
    assert_eq!(stale.len(), 1, "got {:?}", report.violations);
    assert_eq!(stale[0].line, 1);
    assert!(!report.clean(), "stale-allow blocks");
}

#[test]
fn stale_allow_stays_quiet_for_consumed_annotations() {
    let report = audit_sources(vec![(
        "crates/ml/src/x.rs".to_string(),
        "pub fn draw() -> u64 {\n\
         // audit:allow(seed-provenance, golden-file generator; the pinned seed is the spec)\n\
         let mut rng = StdRng::seed_from_u64(7);\n\
         rng.next_u64()\n\
         }\n"
        .to_string(),
    )]);
    assert!(report.violations.is_empty(), "got {:?}", report.violations);
    assert_eq!(report.suppressed, 1);
}

#[test]
fn stale_allow_is_itself_suppressible() {
    let report = audit_sources(vec![(
        "crates/core/src/x.rs".to_string(),
        format!("// audit:allow(stale-allow, kept as a template for the next port)\n{STALE}"),
    )]);
    assert!(report.violations.is_empty(), "got {:?}", report.violations);
}

// ----------------------------------------------------------- determinism

/// Two runs over the same sources produce byte-identical JSON and SARIF.
#[test]
fn extended_report_is_byte_identical_across_runs() {
    let sources = || {
        let fixture =
            Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/par_shared_bad.rs");
        vec![
            (
                "crates/core/src/fixture.rs".to_string(),
                std::fs::read_to_string(&fixture)
                    .unwrap_or_else(|e| panic!("read {}: {e}", fixture.display())),
            ),
            ("crates/core/src/x.rs".to_string(), STALE.to_string()),
        ]
    };
    let a = audit_sources(sources());
    let b = audit_sources(sources());
    assert!(!a.violations.is_empty(), "fixtures must produce findings");
    assert_eq!(a.to_json(), b.to_json());
    assert_eq!(rein_audit::to_sarif(&a), rein_audit::to_sarif(&b));
}
