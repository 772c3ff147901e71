//! rein-ledger: the cross-run observability store.
//!
//! Every benchmark run in this repo already leaves an artifact behind —
//! telemetry run manifests under `artifacts/telemetry/`, trace exports
//! under `artifacts/trace/`, the audit report under `artifacts/audit/`.
//! The ledger folds all of them into one deterministic, content-addressed
//! index at `artifacts/ledger/index.json`:
//!
//! * **Content addressed** — each entry is keyed by the FNV-1a 64 hash
//!   of the run identity (kind, bin, seed, scale, strategy set). Timings
//!   are never part of the key, so re-running the same configuration
//!   maps to the same key and the ledger never double-counts a run.
//! * **Generational** — the index carries a generation counter that
//!   advances once per ingest pass *that changes something*. Re-ingesting
//!   the same artifacts is a byte-identical no-op, and a full
//!   [`rescan`] drops the entries of deleted artifacts.
//! * **Byte stable** — entries sort by (kind, source, key), collections
//!   are `BTreeMap`s, serialization is pretty JSON with a trailing
//!   newline. Two ingest runs over the same artifacts produce the same
//!   file, byte for byte, which is what lets CI diff it.
//!
//! On top of the index, [`report`] renders the static observability
//! report (markdown + HTML) served by the `rein_report` binary:
//! per-strategy cost/failure tables, a guard-failure taxonomy, span
//! profile diffs between runs, and trend series across generations.
//!
//! Benchmark binaries register their manifests at write time through
//! [`register_run`]; the `ledger-registration` audit rule keeps that
//! path mandatory.

pub mod hash;
pub mod index;
pub mod ingest;
pub mod report;
pub mod trace;

pub use hash::{content_key, fnv1a64, run_identity};
pub use index::{
    index_path, ledger_dir, EntrySummary, FailureTaxonomy, IngestOutcome, LedgerEntry, LedgerIndex,
    INDEX_SCHEMA,
};
pub use ingest::{audit_entry, ingest_repo, manifest_entry};
pub use report::{
    build_report, profile_diff, trend_rows, DiffRow, PercentileRow, Report, StrategyRow,
    TaxonomyRow, TrendRow,
};
pub use trace::{
    export_json, export_manifest, trace_dir, trace_entry, write_exports, TraceExport, TRACE_SCHEMA,
};

use std::path::Path;

use rein_telemetry::RunManifest;

/// Registers one freshly written run manifest in the ledger index under
/// `root` (the working directory for benchmark binaries). Loads the
/// index, ingests the manifest as a single-candidate pass, and saves it
/// back only when the index changed. Returns whether it did.
///
/// Benchmark binaries call this right after
/// [`RunManifest::write`](rein_telemetry::RunManifest::write); the
/// `ledger-registration` audit rule enforces the pairing.
pub fn register_run(root: &Path, manifest: &RunManifest, source: &Path) -> Result<bool, String> {
    let source = source.strip_prefix(root).unwrap_or(source).to_string_lossy().replace('\\', "/");
    let entry = manifest_entry(manifest, &source);
    let path = index_path(root);
    let mut index = LedgerIndex::load(&path)?;
    let changed = index.apply(vec![entry]);
    if changed {
        index.save(&path).map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    Ok(changed)
}

/// The full rescan `rein_report` and `rein_trace` share: ingests every
/// artifact under `root` into the index at `index_file` and drops every
/// entry whose source file no longer exists, as one ingest pass (see
/// [`LedgerIndex::apply_rescan`]). Saves the index only when it changed.
/// Returns the index, the number of artifacts scanned and whether the
/// index changed.
pub fn rescan(root: &Path, index_file: &Path) -> Result<(LedgerIndex, usize, bool), String> {
    let candidates = ingest_repo(root)?;
    let scanned = candidates.len();
    let mut index = LedgerIndex::load(index_file)?;
    let changed = index.apply_rescan(candidates, root);
    if changed {
        index.save(index_file).map_err(|e| format!("write {}: {e}", index_file.display()))?;
    }
    Ok((index, scanned, changed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rein_telemetry::RunConfig;
    use std::collections::BTreeMap;

    fn manifest(seed: u64) -> RunManifest {
        RunManifest {
            binary: "fig2_detection".into(),
            config: RunConfig { scale: 0.05, repeats: 3, seed, label_budget: 100, threads: 1 },
            mode: "full".into(),
            spans: Vec::new(),
            span_rollup: Vec::new(),
            counters: BTreeMap::new(),
            histograms: BTreeMap::new(),
            failures: Vec::new(),
        }
    }

    #[test]
    fn register_run_is_idempotent_on_disk() {
        let dir = std::env::temp_dir().join(format!("rein-ledger-reg-{}", std::process::id()));
        let _cleanup = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        let m = manifest(11);
        let source = dir.join("artifacts/telemetry/fig2_detection-11.json");

        assert!(register_run(&dir, &m, &source).expect("first registration"));
        let bytes = std::fs::read(index_path(&dir)).expect("index written");
        assert!(!register_run(&dir, &m, &source).expect("second registration"));
        assert_eq!(
            std::fs::read(index_path(&dir)).expect("index still there"),
            bytes,
            "re-registering the same run must not change the index bytes"
        );

        assert!(register_run(&dir, &manifest(12), &source).expect("new seed registers"));
        let index = LedgerIndex::load(&index_path(&dir)).expect("index loads");
        assert_eq!(index.generation, 2);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn rescan_forgets_deleted_artifacts_once() {
        let dir = std::env::temp_dir().join(format!("rein-ledger-rescan-{}", std::process::id()));
        let _cleanup = std::fs::remove_dir_all(&dir);
        let telemetry = dir.join("artifacts/telemetry");
        std::fs::create_dir_all(&telemetry).expect("temp dir");
        for seed in [11, 12] {
            let path = telemetry.join(format!("fig2_detection-{seed}.json"));
            std::fs::write(path, manifest(seed).to_json()).expect("manifest written");
        }
        let index_file = index_path(&dir);
        let (index, scanned, changed) = rescan(&dir, &index_file).expect("first rescan");
        assert_eq!((scanned, changed, index.entries.len(), index.generation), (2, true, 2, 1));

        std::fs::remove_file(telemetry.join("fig2_detection-12.json")).expect("remove");
        let (index, _, changed) = rescan(&dir, &index_file).expect("rescan after removal");
        assert!(changed, "a deleted artifact's entry must go");
        let sources: Vec<&str> = index.entries.iter().map(|e| e.source.as_str()).collect();
        assert_eq!(sources, ["artifacts/telemetry/fig2_detection-11.json"]);
        assert_eq!(index.generation, 2, "the drop is one generation bump");

        let bytes = std::fs::read(&index_file).expect("index written");
        let (_, _, changed) = rescan(&dir, &index_file).expect("second rescan");
        assert!(!changed);
        assert_eq!(std::fs::read(&index_file).expect("index"), bytes, "a second rescan is a no-op");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
