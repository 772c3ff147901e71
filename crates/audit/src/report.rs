//! Workspace walking and report assembly.
//!
//! The walker visits every `.rs` file under `crates/`, `src/`, `tests/`
//! and `examples/` (skipping `vendor/`, `target/` and the audit's own
//! rule fixtures) in **sorted** order — the report must itself be
//! byte-deterministic, so directory enumeration order cannot leak in.
//! The report carries no timestamps for the same reason.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use serde::Serialize;

use crate::rules::{audit_source, Violation, RULES};
use crate::semantic::{analyze, WorkspaceModel};

/// Directories (workspace-relative) the walker descends into.
const SCAN_ROOTS: [&str; 4] = ["crates", "src", "tests", "examples"];

/// Workspace-relative prefixes the walker never enters. The audit's rule
/// fixtures are deliberate violations and must not fail the real run.
const SKIP_PREFIXES: [&str; 3] = ["vendor", "target", "crates/audit/tests/fixtures"];

/// Per-rule tallies for the report catalog.
#[derive(Debug, Clone, Serialize)]
pub struct RuleSummary {
    pub id: &'static str,
    pub description: &'static str,
    /// Documentation anchor for the rule (SARIF `helpUri`).
    pub help_uri: &'static str,
    pub violations: usize,
    /// Non-blocking findings for this rule.
    pub advisories: usize,
}

/// The machine-readable audit report written to
/// `artifacts/audit/report.json`.
#[derive(Debug, Serialize)]
pub struct Report {
    pub schema_version: u32,
    pub tool: &'static str,
    pub files_scanned: usize,
    /// Would-be violations silenced by valid `audit:allow` annotations.
    pub suppressed: usize,
    pub rules: Vec<RuleSummary>,
    /// Sorted by (path, line, rule).
    pub violations: Vec<Violation>,
    /// Non-blocking findings (ranked reports: `hot-loop-alloc`,
    /// `stale-allow`), sorted like `violations`. Never fail the run
    /// unless promoted (`--deny-stale`).
    pub advisories: Vec<Violation>,
}

impl Report {
    /// `true` when the workspace passes the audit (advisories do not
    /// block).
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Restricts the report to the given rule ids (`--only`): the rule
    /// catalog and the finding lists are filtered; file/suppression
    /// tallies stay untouched.
    pub fn retain_rules(&mut self, only: &[String]) {
        if only.is_empty() {
            return;
        }
        self.rules.retain(|r| only.iter().any(|o| o == r.id));
        self.violations.retain(|v| only.contains(&v.rule));
        self.advisories.retain(|v| only.contains(&v.rule));
    }

    /// Promotes `stale-allow` advisories to blocking violations
    /// (`--deny-stale`): CI runs with this on, so dead suppressions
    /// cannot accumulate.
    pub fn deny_stale(&mut self) {
        let (stale, rest): (Vec<Violation>, Vec<Violation>) =
            self.advisories.drain(..).partition(|v| v.rule == "stale-allow");
        self.advisories = rest;
        self.violations.extend(stale);
        self.violations.sort();
    }

    /// Serializes to pretty JSON (deterministic field order).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|e|
            // audit:allow(panic, report serialization has no fallible fields; a failure is a bug in the vendored serializer)
            panic!("report serializes: {e}"))
    }

    /// Renders the human-readable report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "rein-audit: {} file(s) scanned, {} violation(s), {} advisory(ies), {} suppressed\n",
            self.files_scanned,
            self.violations.len(),
            self.advisories.len(),
            self.suppressed
        ));
        let mut by_rule: BTreeMap<&str, Vec<&Violation>> = BTreeMap::new();
        for v in &self.violations {
            by_rule.entry(v.rule.as_str()).or_default().push(v);
        }
        for (rule, vs) in &by_rule {
            out.push_str(&format!("\n[{rule}] {} violation(s)\n", vs.len()));
            if let Some(info) = RULES.iter().find(|r| r.id == *rule) {
                out.push_str(&format!("  {}\n", info.description));
            }
            for v in vs {
                out.push_str(&format!("  {}:{}  {}\n", v.path, v.line, v.message));
            }
        }
        let mut adv_by_rule: BTreeMap<&str, Vec<&Violation>> = BTreeMap::new();
        for v in &self.advisories {
            adv_by_rule.entry(v.rule.as_str()).or_default().push(v);
        }
        for (rule, vs) in &adv_by_rule {
            out.push_str(&format!("\n[{rule}] {} advisory finding(s) (non-blocking)\n", vs.len()));
            if let Some(info) = RULES.iter().find(|r| r.id == *rule) {
                out.push_str(&format!("  {}\n", info.description));
            }
            for v in vs {
                out.push_str(&format!("  {}:{}  {}\n", v.path, v.line, v.message));
            }
        }
        if self.clean() {
            out.push_str("workspace is clean.\n");
        } else {
            out.push_str(
                "\nsuppress a finding with `// audit:allow(rule, reason)` on or \
                 above the line; see DESIGN.md for the rule catalog.\n",
            );
        }
        out
    }
}

fn skipped(rel: &str) -> bool {
    SKIP_PREFIXES.iter().any(|p| rel == *p || rel.starts_with(&format!("{p}/")))
}

/// Collects all auditable `.rs` files under `root`, workspace-relative,
/// sorted.
pub fn collect_sources(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    for scan in SCAN_ROOTS {
        let dir = root.join(scan);
        if dir.is_dir() {
            walk(root, &dir, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> =
        fs::read_dir(dir)?.map(|e| e.map(|e| e.path())).collect::<io::Result<_>>()?;
    entries.sort();
    for path in entries {
        let rel = path.strip_prefix(root).unwrap_or(&path).to_string_lossy().replace('\\', "/");
        if skipped(&rel) {
            continue;
        }
        if path.is_dir() {
            walk(root, &path, out)?;
        } else if rel.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Audits the whole workspace rooted at `root`: the per-file token
/// rules plus the semantic pass over the parsed call graph.
pub fn audit_workspace(root: &Path) -> io::Result<Report> {
    let files = collect_sources(root)?;
    let mut sources: Vec<(String, String)> = Vec::with_capacity(files.len());
    for path in &files {
        let rel = path.strip_prefix(root).unwrap_or(path).to_string_lossy().replace('\\', "/");
        let source = fs::read_to_string(path)?;
        sources.push((rel, source));
    }
    Ok(audit_sources(sources))
}

/// Audits an in-memory workspace of `(workspace-relative path, source)`
/// pairs. Exposed so the fixture tests can assemble synthetic
/// multi-file workspaces.
pub fn audit_sources(sources: Vec<(String, String)>) -> Report {
    let mut violations = Vec::new();
    let mut suppressed = 0usize;
    // Annotation keys that suppressed at least one finding, per file.
    let mut consumed: BTreeMap<String, BTreeSet<(usize, String, bool)>> = BTreeMap::new();
    for (rel, source) in &sources {
        let audit = audit_source(rel, source);
        violations.extend(audit.violations);
        suppressed += audit.suppressed;
        consumed.entry(rel.clone()).or_default().extend(audit.consumed);
    }
    let model = WorkspaceModel::build(&sources);
    let semantic = analyze(&model);
    violations.extend(semantic.violations);
    suppressed += semantic.suppressed;
    let mut advisories = semantic.advisories;
    for (path, keys) in semantic.consumed {
        consumed.entry(path).or_default().extend(keys);
    }
    // Stale-allow pass: every well-formed annotation that suppressed
    // nothing in either pass is dead weight — it documents a finding
    // that no longer exists and would silently mask a future one.
    // `panic` annotations double as panic-reachability waivers through
    // the same per-site consumption, so they are never falsely stale.
    for f in &model.files {
        let is_live = |consumed: &BTreeMap<String, BTreeSet<(usize, String, bool)>>,
                       key: &(usize, String, bool)| {
            consumed.get(&f.path).is_some_and(|k| k.contains(key))
        };
        let candidates: Vec<_> =
            f.allows.entries().iter().filter(|e| !is_live(&consumed, &e.key())).cloned().collect();
        // First let stale-allow suppressions fire (consuming their own
        // annotation), then report what is still dead.
        for e in &candidates {
            if f.allows.allows(e.line, "stale-allow") {
                suppressed += 1;
                consumed
                    .entry(f.path.clone())
                    .or_default()
                    .extend(f.allows.match_keys(e.line, "stale-allow"));
            }
        }
        for e in &candidates {
            if is_live(&consumed, &e.key()) || f.allows.allows(e.line, "stale-allow") {
                continue;
            }
            let marker = if e.file_level { "audit:allow-file" } else { "audit:allow" };
            advisories.push(Violation {
                path: f.path.clone(),
                line: e.line,
                rule: "stale-allow".to_string(),
                message: format!(
                    "{marker}({rule}, …) no longer suppresses any finding — \
                     remove the annotation (or fix the regression it used \
                     to cover)",
                    rule = e.rule
                ),
            });
        }
    }
    violations.sort();
    violations.dedup();
    advisories.sort();
    advisories.dedup();
    let rules = RULES
        .iter()
        .map(|r| RuleSummary {
            id: r.id,
            description: r.description,
            help_uri: r.help_uri,
            violations: violations.iter().filter(|v| v.rule == r.id).count(),
            advisories: advisories.iter().filter(|v| v.rule == r.id).count(),
        })
        .collect();
    Report {
        schema_version: 3,
        tool: "rein-audit",
        files_scanned: sources.len(),
        suppressed,
        rules,
        violations,
        advisories,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skip_prefixes_cover_vendor_and_fixtures() {
        assert!(skipped("vendor/rand/src/lib.rs"));
        assert!(skipped("target/debug/x.rs"));
        assert!(skipped("crates/audit/tests/fixtures/bad_rng.rs"));
        assert!(!skipped("crates/audit/tests/rules.rs"));
        assert!(!skipped("crates/core/src/lib.rs"));
    }

    #[test]
    fn report_json_is_deterministic() {
        let r = Report {
            schema_version: 1,
            tool: "rein-audit",
            files_scanned: 2,
            suppressed: 0,
            rules: Vec::new(),
            violations: Vec::new(),
            advisories: Vec::new(),
        };
        assert_eq!(r.to_json(), r.to_json());
        assert!(r.clean());
        assert!(r.render_text().contains("workspace is clean"));
    }
}
