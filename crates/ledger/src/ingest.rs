//! Artifact ingestion: turning the repo's observability files into
//! [`LedgerEntry`] candidates.
//!
//! Three artifact classes are understood:
//!
//! * **Run manifests** — `artifacts/telemetry/*.json`, parsed through
//!   the typed [`RunManifest`] (both `full` and `summary` modes, and
//!   pre-mode files via the serde defaults).
//! * **Audit reports** — `artifacts/audit/report.json`.
//! * **Trace exports** — `artifacts/trace/*.cells.json`, the typed
//!   per-cell cost tables written by `rein_trace` (the Chrome JSON and
//!   flamegraph SVG siblings are render artifacts, not index input).
//!
//! Ingestion is pure with respect to the index: it reads the repo and
//! returns candidates; [`LedgerIndex::apply`](crate::LedgerIndex::apply)
//! decides what is new. Scans are sorted so candidate order is
//! deterministic regardless of directory iteration order.

use std::path::Path;

use rein_telemetry::RunManifest;
use serde_json::Value;

use crate::hash::{content_key, fnv1a64, run_identity};
use crate::index::{EntrySummary, FailureTaxonomy, LedgerEntry};

/// Span-name prefixes that name a grid strategy (`phase:strategy`).
const STRATEGY_PHASES: [&str; 4] = ["detect", "repair", "model", "ml"];

/// Whether a span name is a strategy invocation (`detect:raha`) rather
/// than an internal span (`phase:setup`, `detect:features:fit`).
fn is_strategy_span(name: &str) -> bool {
    match name.split_once(':') {
        Some((phase, rest)) => {
            STRATEGY_PHASES.contains(&phase) && !rest.is_empty() && !rest.contains(':')
        }
        None => false,
    }
}

/// The sorted, deduplicated strategy set a manifest exercised: strategy
/// spans (from the rollup in summary mode — it covers every name — and
/// the span stream otherwise) plus every failed cell's `phase:strategy`.
fn manifest_strategies(manifest: &RunManifest) -> Vec<String> {
    let mut set: Vec<String> = Vec::new();
    let mut push = |name: String| {
        if !set.contains(&name) {
            set.push(name);
        }
    };
    for rollup in &manifest.span_rollup {
        if is_strategy_span(&rollup.name) {
            push(rollup.name.clone());
        }
    }
    for span in &manifest.spans {
        if is_strategy_span(&span.name) {
            push(span.name.clone());
        }
    }
    for failure in &manifest.failures {
        push(format!("{}:{}", failure.phase, failure.strategy));
    }
    set.sort();
    set
}

/// Builds the ledger entry for one run manifest.
pub fn manifest_entry(manifest: &RunManifest, source: &str) -> LedgerEntry {
    let strategies = manifest_strategies(manifest);
    let key = content_key(&run_identity(
        "run_manifest",
        &manifest.binary,
        manifest.config.seed,
        manifest.config.scale,
        &strategies,
    ));
    let (spans, span_names) = if manifest.span_rollup.is_empty() {
        let mut names: Vec<&str> = manifest.spans.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        (manifest.spans.len() as u64, names.len() as u64)
    } else {
        // The rollup covers the complete stream, sampled or not.
        let total: u64 = manifest.span_rollup.iter().map(|r| r.count).sum();
        (total, manifest.span_rollup.len() as u64)
    };
    let mut failures = FailureTaxonomy::default();
    for f in &manifest.failures {
        failures.count(&f.cause);
    }
    LedgerEntry {
        key,
        kind: "run_manifest".to_string(),
        source: source.to_string(),
        bin: manifest.binary.clone(),
        seed: manifest.config.seed,
        scale: manifest.config.scale,
        threads: manifest.config.threads,
        mode: manifest.mode.clone(),
        strategies,
        generation: 0,
        summary: EntrySummary {
            spans,
            span_names,
            failures,
            cells_scanned: manifest.counters.get("cells_scanned").copied().unwrap_or(0),
            violations: 0,
        },
    }
}

/// Map-field lookup on a generic JSON value.
fn get<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    value.as_map()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Builds the ledger entry for the audit report. The identity covers
/// the rule catalog and the violation count, so a rule addition or a
/// new violation registers as a new generation.
pub fn audit_entry(report: &Value, source: &str) -> Result<LedgerEntry, String> {
    let tool = get(report, "tool")
        .and_then(Value::as_str)
        .ok_or_else(|| format!("{source}: missing tool"))?
        .to_string();
    let mut rule_ids: Vec<String> = Vec::new();
    if let Some(rules) = get(report, "rules").and_then(Value::as_seq) {
        for r in rules {
            if let Some(id) = get(r, "id").and_then(Value::as_str) {
                rule_ids.push(id.to_string());
            }
        }
    }
    rule_ids.sort();
    let violations =
        get(report, "violations").and_then(Value::as_seq).map(|v| v.len() as u64).unwrap_or(0);
    let identity = format!("audit_report|{tool}|{violations}|{}", rule_ids.join(","));
    Ok(LedgerEntry {
        key: format!("{:016x}", fnv1a64(identity.as_bytes())),
        kind: "audit_report".to_string(),
        source: source.to_string(),
        bin: tool,
        seed: 0,
        scale: 0.0,
        threads: 0,
        mode: String::new(),
        strategies: Vec::new(),
        generation: 0,
        summary: EntrySummary { violations, ..EntrySummary::default() },
    })
}

/// Repo-relative forward-slash rendering of `path` under `root`.
fn rel(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.to_string_lossy().replace('\\', "/")
}

/// Sorted `.json` files under `dir` (missing directory = empty scan).
fn json_files(dir: &Path) -> Result<Vec<std::path::PathBuf>, String> {
    let entries = match std::fs::read_dir(dir) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("read dir {}: {e}", dir.display())),
        Ok(entries) => entries,
    };
    let mut files = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("read dir {}: {e}", dir.display()))?;
        let path = entry.path();
        if path.extension().is_some_and(|ext| ext == "json") {
            files.push(path);
        }
    }
    files.sort();
    Ok(files)
}

/// Scans every known artifact location under `root` and returns the
/// candidate entries, in deterministic order.
pub fn ingest_repo(root: &Path) -> Result<Vec<LedgerEntry>, String> {
    let mut candidates = Vec::new();

    for path in json_files(&root.join("artifacts").join("telemetry"))? {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let manifest =
            RunManifest::from_json(&text).map_err(|e| format!("parse {}: {e}", path.display()))?;
        candidates.push(manifest_entry(&manifest, &rel(root, &path)));
    }

    for path in json_files(&crate::trace::trace_dir(root))? {
        let is_cells =
            path.file_name().and_then(|n| n.to_str()).is_some_and(|n| n.ends_with(".cells.json"));
        if !is_cells {
            // `.trace.json` / `.flame.svg` siblings are render output.
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let export: crate::trace::TraceExport =
            serde_json::from_str(&text).map_err(|e| format!("parse {}: {e}", path.display()))?;
        candidates.push(crate::trace::trace_entry(&export, &rel(root, &path)));
    }

    let audit_path = root.join("artifacts").join("audit").join("report.json");
    match std::fs::read_to_string(&audit_path) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(format!("read {}: {e}", audit_path.display())),
        Ok(text) => {
            let report: Value = serde_json::from_str(&text)
                .map_err(|e| format!("parse {}: {e}", audit_path.display()))?;
            candidates.push(audit_entry(&report, &rel(root, &audit_path))?);
        }
    }

    Ok(candidates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rein_telemetry::{FailureRecord, RunConfig, SpanRecord, SpanRollup};
    use std::collections::BTreeMap as Map;

    fn manifest() -> RunManifest {
        let span = |name: &str, id: u64| SpanRecord {
            name: name.into(),
            id,
            parent_id: 0,
            depth: 0,
            start_ms: 0.0,
            duration_ms: 1.0,
            trace_id: 0,
            instant: false,
        };
        let mut counters = Map::new();
        counters.insert("cells_scanned".to_string(), 1331);
        RunManifest {
            binary: "fig2_detection".into(),
            config: RunConfig { scale: 0.05, repeats: 3, seed: 11, label_budget: 100, threads: 2 },
            mode: "full".into(),
            spans: vec![
                span("phase:setup", 1),
                span("detect:raha", 2),
                span("detect:raha", 3),
                span("detect:features:fit", 4),
                span("repair:impute_mean_mode", 5),
            ],
            span_rollup: Vec::new(),
            counters,
            histograms: Map::new(),
            failures: vec![FailureRecord {
                phase: "detect".into(),
                strategy: "zeroed".into(),
                dataset: "beers".into(),
                scope: String::new(),
                cause: "budget exhausted: 12 of 10 ticks".into(),
                attempts: 1,
                elapsed_ms: 3.0,
                trace_id: String::new(),
            }],
        }
    }

    #[test]
    fn strategies_come_from_spans_and_failures_only() {
        let entry = manifest_entry(&manifest(), "artifacts/telemetry/fig2_detection-11.json");
        assert_eq!(
            entry.strategies,
            ["detect:raha", "detect:zeroed", "repair:impute_mean_mode"],
            "phase/controller/nested spans are excluded, failed strategies included"
        );
        assert_eq!(entry.summary.spans, 5);
        assert_eq!(entry.summary.span_names, 4);
        assert_eq!(entry.summary.cells_scanned, 1331);
        assert_eq!(entry.summary.failures.deadlines, 1);
        assert_eq!(entry.threads, 2);
    }

    #[test]
    fn summary_mode_counts_through_the_rollup() {
        let mut m = manifest();
        m.mode = "summary".into();
        m.spans.truncate(2);
        m.span_rollup = vec![
            SpanRollup {
                name: "detect:raha".into(),
                count: 40,
                total_ms: 40.0,
                max_ms: 2.0,
                dropped: 36,
            },
            SpanRollup {
                name: "phase:setup".into(),
                count: 1,
                total_ms: 1.0,
                max_ms: 1.0,
                dropped: 0,
            },
        ];
        let entry = manifest_entry(&m, "artifacts/telemetry/fig2_detection-11.json");
        assert_eq!(entry.summary.spans, 41, "rollup counts cover the dropped spans");
        assert_eq!(entry.summary.span_names, 2);
        assert!(entry.strategies.contains(&"detect:raha".to_string()));
    }

    #[test]
    fn full_and_summary_forms_share_a_key() {
        // The rollup covers every span name, so summarizing a manifest
        // must not change its content key — the ledger treats both
        // forms as the same run.
        let full = manifest();
        let mut summary = full.clone();
        summary.mode = "summary".into();
        let (kept, rollup) = rein_telemetry::summarize_spans(&full.spans);
        summary.spans = kept;
        summary.span_rollup = rollup;
        let a = manifest_entry(&full, "artifacts/telemetry/fig2_detection-11.json");
        let b = manifest_entry(&summary, "artifacts/telemetry/fig2_detection-11.json");
        assert_eq!(a.key, b.key);
        assert_eq!(a.strategies, b.strategies);
        assert_eq!(a.summary.spans, b.summary.spans);
    }

    #[test]
    fn audit_key_tracks_catalog_and_violations() {
        let report = |rules: &str, violations: &str| {
            serde_json::from_str::<Value>(&format!(
                r#"{{ "tool": "rein-audit", "rules": [{rules}], "violations": [{violations}] }}"#
            ))
            .expect("report parses")
        };
        let base = audit_entry(&report(r#"{"id": "panic"}"#, ""), "artifacts/audit/report.json")
            .expect("entry");
        let more_rules = audit_entry(
            &report(r#"{"id": "panic"}, {"id": "wallclock"}"#, ""),
            "artifacts/audit/report.json",
        )
        .expect("entry");
        let with_violation =
            audit_entry(&report(r#"{"id": "panic"}"#, r#"{"rule": "panic"}"#), "x").expect("entry");
        assert_ne!(base.key, more_rules.key, "rule catalog is identity");
        assert_ne!(base.key, with_violation.key, "violation count is identity");
        assert_eq!(with_violation.summary.violations, 1);
    }

    #[test]
    fn ingest_walks_the_committed_repo() {
        // The committed artifacts are themselves the fixture: every
        // manifest and the audit report must ingest.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let candidates = ingest_repo(&root).expect("committed artifacts ingest");
        let kinds = |k: &str| candidates.iter().filter(|c| c.kind == k).count();
        assert!(kinds("run_manifest") >= 10, "telemetry manifests: {}", kinds("run_manifest"));
        assert_eq!(kinds("audit_report"), 1);
        // The committed index forgets deleted artifacts.
        let index = crate::LedgerIndex::load(&crate::index_path(&root)).expect("index loads");
        for e in &index.entries {
            assert!(root.join(&e.source).exists(), "index entry for missing {}", e.source);
        }
        // Every key unique across the committed set.
        let mut keys: Vec<&str> = candidates.iter().map(|c| c.key.as_str()).collect();
        keys.sort_unstable();
        let before = keys.len();
        keys.dedup();
        assert_eq!(keys.len(), before, "committed artifacts collide on a content key");
    }
}
