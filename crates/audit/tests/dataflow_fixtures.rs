//! Fixture-based tests for the purity/taint dataflow rules: each rule
//! has a negative fixture it must flag, a positive fixture it must
//! pass, and a suppressed variant, plus the two interprocedural cases
//! the engine exists for — taint through a closure capture and taint
//! through a struct-literal field initializer.

#![allow(
    clippy::panic,
    clippy::expect_used,
    reason = "test support: a broken expectation fails the test"
)]

use std::path::Path;

use rein_audit::report::audit_sources;
use rein_audit::semantic::SemanticOutcome;
use rein_audit::{analyze, certify, Violation, WorkspaceModel};

/// Parses the named fixtures under their virtual workspace paths and
/// runs the semantic pass (which includes the dataflow rules).
fn analyze_fixtures(files: &[(&str, &str)]) -> SemanticOutcome {
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
    analyze(&model)
}

fn analyze_inline(files: &[(&str, &str)]) -> SemanticOutcome {
    let sources: Vec<(String, String)> =
        files.iter().map(|(p, s)| (p.to_string(), s.to_string())).collect();
    let model = WorkspaceModel::build(&sources);
    let errors = model.parse_errors();
    assert!(errors.is_empty(), "inline sources must parse cleanly: {errors:?}");
    analyze(&model)
}

fn of_rule<'a>(violations: &'a [Violation], rule: &str) -> Vec<&'a Violation> {
    violations.iter().filter(|v| v.rule == rule).collect()
}

// --------------------------------------------------- cache-key-completeness

#[test]
fn cache_key_flags_ambient_reads_reaching_the_entry_point() {
    let out = analyze_fixtures(&[("cachekey_bad.rs", "crates/core/src/fixture.rs")]);
    let hits = of_rule(&out.violations, "cache-key-completeness");
    // The env read in `helper` and the static read in `tally`.
    assert_eq!(hits.len(), 2, "got {:?}", out.violations);
    assert!(hits.iter().any(|v| v.message.contains("environment")), "got {hits:?}");
    assert!(hits.iter().any(|v| v.message.contains("DRAWS")), "got {hits:?}");
    // Every finding names the concrete call path from the entry point.
    assert!(hits.iter().all(|v| v.message.contains("Controller::run_grid ->")), "got {hits:?}");
}

#[test]
fn cache_key_traces_taint_through_closure_captures() {
    let out = analyze_fixtures(&[("cachekey_closure_bad.rs", "crates/core/src/fixture.rs")]);
    let hits = of_rule(&out.violations, "cache-key-completeness");
    assert_eq!(hits.len(), 1, "got {:?}", out.violations);
    assert!(hits[0].message.contains("env::var"), "got {hits:?}");
}

#[test]
fn cache_key_traces_taint_through_struct_literal_fields() {
    let out = analyze_fixtures(&[("cachekey_field_bad.rs", "crates/core/src/fixture.rs")]);
    let hits = of_rule(&out.violations, "cache-key-completeness");
    assert_eq!(hits.len(), 1, "got {:?}", out.violations);
    assert!(hits[0].message.contains("BUMP"), "got {hits:?}");
}

#[test]
fn cache_key_passes_a_parameter_pure_entry_point() {
    let out = analyze_fixtures(&[("cachekey_ok.rs", "crates/core/src/fixture.rs")]);
    assert!(of_rule(&out.violations, "cache-key-completeness").is_empty(), "{:?}", out.violations);
}

#[test]
fn cache_key_suppression_cleanses_the_taint() {
    let out = analyze_inline(&[(
        "crates/core/src/fixture.rs",
        "pub fn detect_with_context() -> u64 {\n\
         // audit:allow(cache-key-completeness, value only picks a log label)\n\
         std::env::var(\"X\").map(|v| v.len() as u64).unwrap_or(0)\n\
         }\n",
    )]);
    assert!(of_rule(&out.violations, "cache-key-completeness").is_empty(), "{:?}", out.violations);
    assert!(out.suppressed >= 1);
}

#[test]
fn certify_reports_the_same_fixture_taint() {
    let sources = vec![(
        "crates/core/src/fixture.rs".to_string(),
        std::fs::read_to_string(
            Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/cachekey_bad.rs"),
        )
        .expect("fixture exists"),
    )];
    let model = WorkspaceModel::build(&sources);
    let certs = certify(&model);
    assert_eq!(certs.len(), 1);
    assert_eq!(certs[0].entry, "Controller::run_grid");
    assert!(!certs[0].key_pure);
    assert_eq!(certs[0].taints.len(), 2, "got {:?}", certs[0].taints);
}

// ------------------------------------------------------- float-reduce-order

#[test]
fn float_reduce_flags_sum_off_a_parallel_iterator() {
    let out = analyze_fixtures(&[("float_reduce_bad.rs", "crates/core/src/fixture.rs")]);
    let hits = of_rule(&out.violations, "float-reduce-order");
    assert_eq!(hits.len(), 1, "got {:?}", out.violations);
    assert!(hits[0].message.contains("sum"), "got {hits:?}");
}

#[test]
fn float_reduce_passes_collect_plus_registered_merge() {
    let out = analyze_fixtures(&[("float_reduce_ok.rs", "crates/core/src/fixture.rs")]);
    assert!(of_rule(&out.violations, "float-reduce-order").is_empty(), "{:?}", out.violations);
}

#[test]
fn float_reduce_suppression_works() {
    let out = analyze_inline(&[(
        "crates/core/src/fixture.rs",
        "pub fn mean(xs: &[f64]) -> f64 {\n\
         // audit:allow(float-reduce-order, inputs are sanitized to exact dyadics)\n\
         xs.par_iter().map(|x| x * 0.5).sum::<f64>()\n\
         }\n",
    )]);
    assert!(of_rule(&out.violations, "float-reduce-order").is_empty(), "{:?}", out.violations);
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
        vec![
            (
                "crates/core/src/fixture.rs".to_string(),
                std::fs::read_to_string(
                    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/cachekey_bad.rs"),
                )
                .expect("fixture exists"),
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
