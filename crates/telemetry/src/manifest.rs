//! JSON run manifests.
//!
//! A [`RunManifest`] is the durable record of one benchmark binary
//! invocation: the effective configuration, every finished span, and the
//! final value of every counter and histogram. Binaries write one as
//! their last act so any run can be audited (and diffed against another
//! seed or scale) without re-running it.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use crate::failures::{failures_snapshot, FailureRecord};
use crate::metrics::{counters_snapshot, histograms_snapshot, HistogramSummary};
use crate::span::{snapshot_spans, SpanRecord};

/// The effective run configuration, echoed into the manifest so a result
/// file is self-describing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunConfig {
    /// Dataset scale factor (`REIN_SCALE`).
    pub scale: f64,
    /// Repeats per configuration (`REIN_REPEATS`).
    pub repeats: u32,
    /// Base RNG seed.
    pub seed: u64,
    /// Labelling budget (cells the oracle may reveal).
    pub label_budget: u64,
    /// Configured worker-thread count the run executed with. `0` in
    /// manifests recorded before the echo existed (the serde default);
    /// real runs plumb the value from `rein_bench::worker_threads`.
    #[serde(default)]
    pub threads: u32,
}

/// How much span detail a manifest carries (`REIN_MANIFEST`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ManifestMode {
    /// Every finished span, verbatim — the historical format.
    #[default]
    Full,
    /// Per-span-name rollups plus a capped sample of spans per name,
    /// for artifacts whose full stream would be tens of thousands of
    /// lines. Deterministic: the sample is the first
    /// [`SUMMARY_SPANS_PER_NAME`] spans of each name in merged order.
    Summary,
}

impl ManifestMode {
    /// The string stored in the manifest's `mode` field.
    pub fn as_str(self) -> &'static str {
        match self {
            ManifestMode::Full => "full",
            ManifestMode::Summary => "summary",
        }
    }
}

/// Reads `REIN_MANIFEST` (default [`ManifestMode::Full`]). A value that
/// is set but neither `full` nor `summary` is a hard error, never a
/// silent default — consistent with the other environment overrides.
#[expect(
    clippy::disallowed_methods,
    reason = "REIN_MANIFEST only chooses how much the run manifest records; the manifest is observer output, never an input"
)]
pub fn manifest_mode() -> ManifestMode {
    match std::env::var("REIN_MANIFEST") {
        Err(_) => ManifestMode::Full,
        Ok(raw) => match raw.as_str() {
            "full" => ManifestMode::Full,
            "summary" => ManifestMode::Summary,
            #[expect(
                clippy::print_stderr,
                reason = "a bad environment must fail loudly before any telemetry exists"
            )]
            _ => {
                eprintln!(
                    "error: REIN_MANIFEST={raw:?} is invalid: want `full` or `summary` \
                     (unset it to keep full span streams)"
                );
                std::process::exit(2);
            }
        },
    }
}

/// Spans kept per span name in a summary-mode manifest.
pub const SUMMARY_SPANS_PER_NAME: usize = 4;

/// One span name's aggregate in a summary-mode manifest. The rollup
/// always covers *every* span of that name, including the sampled ones
/// still present in `spans`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanRollup {
    /// Span name, e.g. `"detect:raha"`.
    pub name: String,
    /// Spans with this name.
    pub count: u64,
    /// Sum of their wall-clock durations.
    pub total_ms: f64,
    /// Largest single duration.
    pub max_ms: f64,
    /// Spans dropped from the `spans` sample (count minus kept).
    pub dropped: u64,
}

/// Folds a full span stream into per-name rollups (sorted by name) and
/// the capped per-name sample that summary mode keeps, preserving the
/// merged stream order within the sample.
pub fn summarize_spans(spans: &[SpanRecord]) -> (Vec<SpanRecord>, Vec<SpanRollup>) {
    let mut rollups: BTreeMap<&str, SpanRollup> = BTreeMap::new();
    let mut kept: Vec<SpanRecord> = Vec::new();
    for s in spans {
        let r = rollups.entry(s.name.as_str()).or_insert_with(|| SpanRollup {
            name: s.name.clone(),
            count: 0,
            total_ms: 0.0,
            max_ms: 0.0,
            dropped: 0,
        });
        r.count += 1;
        r.total_ms += s.duration_ms;
        r.max_ms = r.max_ms.max(s.duration_ms);
        if (r.count as usize) <= SUMMARY_SPANS_PER_NAME {
            kept.push(s.clone());
        } else {
            r.dropped += 1;
        }
    }
    (kept, rollups.into_values().collect())
}

/// Snapshot of one run's telemetry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunManifest {
    /// Name of the benchmark binary that produced this run.
    pub binary: String,
    /// Effective configuration.
    pub config: RunConfig,
    /// Span detail mode: `"full"` or `"summary"`. Empty in manifests
    /// recorded before the mode existed (they are full streams).
    #[serde(default)]
    pub mode: String,
    /// Finished spans in merged completion order — every span in full
    /// mode, the first [`SUMMARY_SPANS_PER_NAME`] per name in summary
    /// mode.
    pub spans: Vec<SpanRecord>,
    /// Per-span-name rollups covering the *complete* stream; empty in
    /// full mode and in pre-mode manifests.
    #[serde(default)]
    pub span_rollup: Vec<SpanRollup>,
    /// Final counter values.
    pub counters: BTreeMap<String, u64>,
    /// Final histogram summaries.
    pub histograms: BTreeMap<String, HistogramSummary>,
    /// Degraded grid cells, sorted by cell identity (absent in
    /// pre-guard manifests, hence the serde default).
    #[serde(default)]
    pub failures: Vec<FailureRecord>,
}

/// Directory manifests are written to, relative to the working
/// directory: `artifacts/telemetry`.
pub fn manifest_dir() -> PathBuf {
    Path::new("artifacts").join("telemetry")
}

impl RunManifest {
    /// Snapshots the global span sink and metric registries into a
    /// manifest for `binary`, at the detail mode configured by
    /// `REIN_MANIFEST` (default full).
    pub fn collect(binary: &str, config: RunConfig) -> Self {
        Self::collect_with_mode(binary, config, manifest_mode())
    }

    /// [`RunManifest::collect`] at an explicit mode (tests and tools).
    pub fn collect_with_mode(binary: &str, config: RunConfig, mode: ManifestMode) -> Self {
        let full = snapshot_spans();
        let (spans, span_rollup) = match mode {
            ManifestMode::Full => (full, Vec::new()),
            ManifestMode::Summary => summarize_spans(&full),
        };
        RunManifest {
            binary: binary.to_string(),
            config,
            mode: mode.as_str().to_string(),
            spans,
            span_rollup,
            counters: counters_snapshot(),
            histograms: histograms_snapshot(),
            failures: failures_snapshot(),
        }
    }

    /// The file this manifest belongs at:
    /// `artifacts/telemetry/<binary>-<seed>.json`.
    pub fn path(&self) -> PathBuf {
        manifest_dir().join(format!("{}-{}.json", self.binary, self.config.seed))
    }

    /// Serializes to pretty JSON.
    #[expect(clippy::expect_used, reason = "serializing plain owned data cannot fail")]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("manifest serializes")
    }

    /// Writes the manifest to [`RunManifest::path`], creating the
    /// directory if needed, and returns the path written.
    pub fn write(&self) -> io::Result<PathBuf> {
        let path = self.path();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "a run manifest is observer output, rewritten whole by every run; no store record depends on it"
        )]
        std::fs::write(&path, self.to_json())?;
        crate::info!("wrote run manifest {}", path.display());
        Ok(path)
    }

    /// Parses a manifest back from JSON.
    pub fn from_json(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_path_includes_binary_and_seed() {
        let m = RunManifest {
            binary: "fig2_detection".into(),
            config: RunConfig { scale: 0.05, repeats: 3, seed: 42, label_budget: 100, threads: 1 },
            mode: "full".into(),
            spans: Vec::new(),
            span_rollup: Vec::new(),
            counters: BTreeMap::new(),
            histograms: BTreeMap::new(),
            failures: Vec::new(),
        };
        assert!(m.path().ends_with("artifacts/telemetry/fig2_detection-42.json"));
    }

    #[test]
    fn pre_mode_manifests_still_parse() {
        // A manifest recorded before `threads`, `mode` and `span_rollup`
        // existed: the serde defaults must fill them in.
        let old = r#"{
            "binary": "fig2_detection",
            "config": { "scale": 0.05, "repeats": 3, "seed": 42, "label_budget": 100 },
            "spans": [],
            "counters": {},
            "histograms": {},
            "failures": []
        }"#;
        let m = RunManifest::from_json(old).expect("old manifest parses");
        assert_eq!(m.config.threads, 0, "pre-echo manifests report 0 (unrecorded)");
        assert_eq!(m.mode, "");
        assert!(m.span_rollup.is_empty());
    }

    #[test]
    fn pre_trace_manifests_still_parse() {
        // A manifest recorded before trace propagation (PR 9): spans
        // lack `trace_id`/`instant`, histograms lack `p95_ms`, failures
        // lack `trace_id` — every one must fill from serde defaults.
        let old = r#"{
            "binary": "chaos_smoke",
            "config": { "scale": 0.05, "repeats": 1, "seed": 29, "label_budget": 100, "threads": 1 },
            "mode": "full",
            "spans": [
                { "name": "detect:raha", "id": 3, "parent_id": 1, "depth": 1,
                  "start_ms": 0.5, "duration_ms": 2.5 }
            ],
            "counters": { "strategy_failures": 2 },
            "histograms": {
                "detect_ms": { "count": 4, "mean_ms": 1.0, "p50_ms": 1.0,
                               "p90_ms": 2.0, "p99_ms": 3.0, "max_ms": 3.0 }
            },
            "failures": [
                { "phase": "detect", "strategy": "Raha", "dataset": "beers",
                  "scope": "", "cause": "panic: boom", "attempts": 2, "elapsed_ms": 1.5 }
            ]
        }"#;
        let m = RunManifest::from_json(old).expect("pre-trace manifest parses");
        assert_eq!(m.spans[0].trace_id, 0, "pre-trace spans are ambient");
        assert!(!m.spans[0].instant);
        assert_eq!(m.histograms["detect_ms"].p95_ms, 0.0);
        assert_eq!(m.failures[0].trace_id, "");
    }

    #[test]
    fn summarize_caps_per_name_and_rolls_up_everything() {
        let span = |name: &str, id: u64, ms: f64| SpanRecord {
            name: name.into(),
            id,
            parent_id: 0,
            depth: 0,
            start_ms: 0.0,
            duration_ms: ms,
            trace_id: 0,
            instant: false,
        };
        let mut spans = Vec::new();
        for i in 0..10u64 {
            spans.push(span("detect:raha", i, 1.0 + i as f64));
        }
        spans.push(span("phase:setup", 100, 5.0));
        let (kept, rollup) = summarize_spans(&spans);
        // detect:raha capped at SUMMARY_SPANS_PER_NAME, phase:setup kept whole.
        assert_eq!(kept.iter().filter(|s| s.name == "detect:raha").count(), SUMMARY_SPANS_PER_NAME);
        assert_eq!(kept.iter().filter(|s| s.name == "phase:setup").count(), 1);
        // Sample preserves stream order: the *first* K spans of the name.
        let ids: Vec<u64> = kept.iter().filter(|s| s.name == "detect:raha").map(|s| s.id).collect();
        assert_eq!(ids, [0, 1, 2, 3]);
        // Rollup covers all 10 spans, sorted by name.
        assert_eq!(rollup.len(), 2);
        assert_eq!(rollup[0].name, "detect:raha");
        assert_eq!(rollup[0].count, 10);
        assert_eq!(rollup[0].dropped, 10 - SUMMARY_SPANS_PER_NAME as u64);
        assert!((rollup[0].total_ms - (10.0 + 45.0)).abs() < 1e-9);
        assert_eq!(rollup[0].max_ms, 10.0);
        assert_eq!(rollup[1].name, "phase:setup");
        assert_eq!(rollup[1].dropped, 0);
        // Deterministic: same input, same bytes.
        let again = summarize_spans(&spans);
        assert_eq!(
            serde_json::to_string(&(kept, rollup)).expect("serializes"),
            serde_json::to_string(&again).expect("serializes")
        );
    }
}
