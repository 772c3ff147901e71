//! Trace exports: the ledger-side packaging of the causal cell traces
//! reconstructed by `rein-telemetry`.
//!
//! For one run manifest the `rein_trace` binary writes three files to
//! `artifacts/trace/`, all pure functions of the manifest bytes (same
//! manifest, same bytes — CI double-runs and compares hashes):
//!
//! * `<stem>.trace.json` — Chrome trace-event JSON, openable in
//!   Perfetto / `chrome://tracing`. Virtual lanes and tick time, so the
//!   file is identical across thread counts and shard counts.
//! * `<stem>.flame.svg` — a dependency-free flamegraph of the merged
//!   cell trees.
//! * `<stem>.cells.json` — the typed [`TraceExport`]: per-cell tick,
//!   span, failure and retry costs, ranked hottest-failing first.

use std::path::{Path, PathBuf};

use rein_telemetry::{build_traces, cell_costs, chrome_trace_json, flamegraph_svg, CellCost};
use rein_telemetry::{RunManifest, TraceForest};
use serde::{Deserialize, Serialize};

/// Schema version stamped into `.cells.json` exports.
pub const TRACE_SCHEMA: u32 = 1;

/// The typed `.cells.json` export: run identity plus the deterministic
/// per-cell cost/failure table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceExport {
    /// [`TRACE_SCHEMA`].
    pub schema: u32,
    /// Binary that produced the source manifest.
    pub binary: String,
    /// Run seed.
    pub seed: u64,
    /// Dataset scale factor.
    pub scale: f64,
    /// Worker threads the run echoed.
    pub threads: u32,
    /// Cell traces reconstructed from the span stream.
    pub traces: u64,
    /// Spans carrying a trace id whose parent never appeared — always 0
    /// for a complete stream; nonzero means the export is partial.
    pub orphans: u64,
    /// Spans outside any cell trace (controller/phase scaffolding).
    pub ambient_spans: u64,
    /// Per-cell costs, ranked failures desc → ticks desc → cell asc.
    pub cells: Vec<CellCost>,
}

/// Reconstructs the trace forest of a manifest's span stream and the
/// typed export derived from it.
pub fn export_manifest(manifest: &RunManifest) -> (TraceForest, TraceExport) {
    let forest = build_traces(&manifest.spans);
    let cells = cell_costs(&forest);
    let export = TraceExport {
        schema: TRACE_SCHEMA,
        binary: manifest.binary.clone(),
        seed: manifest.config.seed,
        scale: manifest.config.scale,
        threads: manifest.config.threads,
        traces: forest.traces.len() as u64,
        orphans: forest.orphans.len() as u64,
        ambient_spans: forest.ambient,
        cells,
    };
    (forest, export)
}

/// Serializes a [`TraceExport`] to its on-disk form: pretty JSON with a
/// trailing newline.
pub fn export_json(export: &TraceExport) -> String {
    #[expect(clippy::panic, reason = "serializing plain owned data cannot fail")]
    let mut text = serde_json::to_string_pretty(export)
        .unwrap_or_else(|e| panic!("trace export serializes: {e}"));
    text.push('\n');
    text
}

/// Writes the three trace exports for `manifest` under
/// `artifacts/trace/<stem>.*` and returns the paths written, in
/// (trace.json, flame.svg, cells.json) order.
pub fn write_exports(
    root: &Path,
    stem: &str,
    manifest: &RunManifest,
) -> Result<[PathBuf; 3], String> {
    let dir = root.join("artifacts").join("trace");
    std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
    let (forest, export) = export_manifest(manifest);
    let chrome = dir.join(format!("{stem}.trace.json"));
    let flame = dir.join(format!("{stem}.flame.svg"));
    let cells = dir.join(format!("{stem}.cells.json"));
    #[expect(
        clippy::disallowed_methods,
        reason = "trace exports are derived views, regenerated whole from the manifest"
    )]
    std::fs::write(&chrome, chrome_trace_json(&forest))
        .map_err(|e| format!("write {}: {e}", chrome.display()))?;
    #[expect(
        clippy::disallowed_methods,
        reason = "trace exports are derived views, regenerated whole from the manifest"
    )]
    std::fs::write(&flame, flamegraph_svg(&forest))
        .map_err(|e| format!("write {}: {e}", flame.display()))?;
    #[expect(
        clippy::disallowed_methods,
        reason = "trace exports are derived views, regenerated whole from the manifest"
    )]
    std::fs::write(&cells, export_json(&export))
        .map_err(|e| format!("write {}: {e}", cells.display()))?;
    Ok([chrome, flame, cells])
}

#[cfg(test)]
mod tests {
    use super::*;
    use rein_telemetry::{RunConfig, SpanRecord};
    use std::collections::BTreeMap;

    fn rec(name: &str, id: u64, parent: u64, trace: u64, instant: bool) -> SpanRecord {
        SpanRecord {
            name: name.into(),
            id,
            parent_id: parent,
            depth: 0,
            start_ms: 0.0,
            duration_ms: 1.0,
            trace_id: trace,
            instant,
        }
    }

    fn manifest() -> RunManifest {
        RunManifest {
            binary: "parallel_smoke".into(),
            config: RunConfig { scale: 0.05, repeats: 1, seed: 31, label_budget: 50, threads: 4 },
            mode: "full".into(),
            spans: vec![
                rec("controller:grid", 1, 0, 0, false),
                rec("cell:detect:raha", 2, 1, 0xA1, false),
                rec("detect:raha", 3, 2, 0xA1, false),
                rec("guard:fail:panic", 4, 3, 0xA1, true),
                rec("cell:detect:katara", 5, 1, 0xB2, false),
            ],
            span_rollup: Vec::new(),
            counters: BTreeMap::new(),
            histograms: BTreeMap::new(),
            failures: Vec::new(),
        }
    }

    #[test]
    fn export_counts_traces_cells_and_failures() {
        let (forest, export) = export_manifest(&manifest());
        assert_eq!(forest.traces.len(), 2);
        assert_eq!(export.traces, 2);
        assert_eq!(export.orphans, 0);
        assert_eq!(export.ambient_spans, 1, "controller:grid is ambient");
        assert_eq!(export.cells.len(), 2);
        // Ranked failing-first: the raha cell carries the injected panic.
        assert_eq!(export.cells[0].cell, "cell:detect:raha");
        assert_eq!(export.cells[0].failures, 1);
        assert_eq!(export.cells[1].failures, 0);
    }

    #[test]
    fn export_json_roundtrips_and_is_stable() {
        let (_, export) = export_manifest(&manifest());
        let text = export_json(&export);
        assert!(text.ends_with('\n'));
        let back: TraceExport = serde_json::from_str(&text).expect("export parses back");
        assert_eq!(back, export);
        assert_eq!(export_json(&back), text, "re-serialization is byte-identical");
    }
}
