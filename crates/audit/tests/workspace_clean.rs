//! The audit's own acceptance test: the workspace it ships in must pass
//! it, the semantic rules must actually run over it, and the outputs
//! must be byte-deterministic.

#![allow(
    clippy::disallowed_methods,
    reason = "test support: the workspace sources are this test's fixture"
)]

use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn workspace_audit_is_clean() {
    let report = rein_audit::audit_workspace(&workspace_root()).expect("walk workspace sources");
    assert!(
        report.violations.is_empty(),
        "workspace must be audit-clean; run `cargo run -p rein-audit` for the report:\n{}",
        report.render_text()
    );
    assert!(report.files_scanned > 100, "walker found only {} files", report.files_scanned);
}

#[test]
fn semantic_rules_are_in_the_catalog() {
    let report = rein_audit::audit_workspace(&workspace_root()).expect("walk workspace sources");
    for rule in [
        "seed-provenance",
        "split-leakage",
        "par-shared-mutable",
        "par-seed-derivation",
        "par-merge-registered",
        "par-atomic-ordering",
        "par-lock-discipline",
        "trace-context",
        "float-reduce-order",
        "stale-allow",
    ] {
        assert!(
            report.rules.iter().any(|r| r.id == rule),
            "rule `{rule}` missing from the report catalog"
        );
    }
}

/// No suppression in the workspace is dead: every `audit:allow`
/// still silences a live finding.
#[test]
fn workspace_has_no_stale_suppressions() {
    let report = rein_audit::audit_workspace(&workspace_root()).expect("walk workspace sources");
    let stale: Vec<_> = report.violations.iter().filter(|v| v.rule == "stale-allow").collect();
    assert!(stale.is_empty(), "stale suppressions:\n{stale:#?}");
}

#[test]
fn report_and_sarif_are_byte_identical_across_runs() {
    let root = workspace_root();
    let first = rein_audit::audit_workspace(&root).expect("first run");
    let second = rein_audit::audit_workspace(&root).expect("second run");
    assert_eq!(first.to_json(), second.to_json(), "report JSON must be byte-stable");
    assert_eq!(
        rein_audit::to_sarif(&first),
        rein_audit::to_sarif(&second),
        "SARIF must be byte-stable"
    );
}

#[test]
fn report_paths_are_repo_relative_and_sorted() {
    let report = rein_audit::audit_workspace(&workspace_root()).expect("walk workspace sources");
    let json = report.to_json();
    assert!(
        !json.contains("/root/") && !json.contains("\\\\"),
        "report must not embed absolute or platform-specific paths"
    );
    let mut sorted = report.violations.clone();
    sorted.sort();
    assert_eq!(report.violations, sorted, "violations must be sorted");
}

/// The per-site determinism rules stay switched on: the workspace
/// denies their clippy lints and `crates/clippy.toml` lists the
/// disallowed methods and types (DESIGN.md §6b). Deleting one of those
/// lines would otherwise turn a rule off without any check failing.
#[test]
fn per_site_rules_stay_configured() {
    let root = workspace_root();
    let manifest = std::fs::read_to_string(root.join("Cargo.toml")).expect("root manifest");
    for lint in [
        "print_stdout",
        "print_stderr",
        "unwrap_used",
        "expect_used",
        "panic",
        "unreachable",
        "let_underscore_must_use",
        "allow_attributes",
        "allow_attributes_without_reason",
        "disallowed_methods",
        "disallowed_types",
    ] {
        assert!(manifest.contains(&format!("\n{lint} = \"deny\"")), "clippy::{lint} is not denied");
    }
    let config = std::fs::read_to_string(root.join("crates/clippy.toml")).expect("clippy config");
    for path in [
        "std::time::Instant::now",
        "std::time::SystemTime::now",
        "std::env::var",
        "std::env::var_os",
        "std::env::vars",
        "std::env::vars_os",
        "std::fs::write",
        "std::fs::File::create",
        "std::fs::read",
        "std::fs::read_to_string",
        "std::fs::read_dir",
        "std::fs::File::open",
        "rein_telemetry::perf::now",
        "rein_telemetry::perf::Stopwatch::start",
        "std::collections::HashMap",
        "std::collections::HashSet",
    ] {
        assert!(config.contains(&format!("path = \"{path}\"")), "`{path}` is no longer disallowed");
    }
}
