//! Parser smoke test: every first-party `.rs` file in the workspace
//! must go through the Rust-subset parser without recovery errors —
//! the semantic rules are only as trustworthy as the parse they see.

#![allow(
    clippy::disallowed_methods,
    reason = "test support: the workspace sources are this test's fixture"
)]

use std::path::Path;

use rein_audit::{collect_sources, WorkspaceModel};

#[test]
fn every_workspace_source_parses_cleanly() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let root = std::fs::canonicalize(&root).expect("workspace root exists");
    let paths = collect_sources(&root).expect("walk workspace sources");
    assert!(paths.len() > 100, "walker found only {} files", paths.len());
    let sources: Vec<(String, String)> = paths
        .iter()
        .map(|p| {
            let rel = p.strip_prefix(&root).unwrap_or(p).to_string_lossy().replace('\\', "/");
            let src =
                std::fs::read_to_string(p).unwrap_or_else(|e| panic!("read {}: {e}", p.display()));
            (rel, src)
        })
        .collect();
    let model = WorkspaceModel::build(&sources);
    let errors = model.parse_errors();
    assert!(
        errors.is_empty(),
        "{} file(s) hit parser recovery:\n{}",
        errors.len(),
        errors.iter().map(|(p, e)| format!("  {p}: {e}")).collect::<Vec<_>>().join("\n")
    );
    // The parse must be substantive, not vacuous: the workspace model
    // sees thousands of functions and calls.
    let fns: usize = model.files.iter().map(|f| f.parsed.functions.len()).sum();
    let calls: usize =
        model.files.iter().flat_map(|f| &f.parsed.functions).map(|f| f.calls.len()).sum();
    assert!(fns > 500, "only {fns} functions parsed across the workspace");
    assert!(calls > 2000, "only {calls} calls extracted across the workspace");
}
