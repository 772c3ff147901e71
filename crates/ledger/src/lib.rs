//! rein-ledger: the cross-run observability report.
//!
//! Every benchmark run leaves a telemetry run manifest under
//! `artifacts/telemetry/`. The ledger keeps no state of its own: each
//! `rein_report` run does one sorted scan of those manifests
//! ([`run_manifests`]) and [`report`] renders the static report
//! (markdown + HTML) straight from them: per-strategy cost/failure
//! tables, a guard-failure taxonomy, duration percentiles, store cache
//! effectiveness, and span profile diffs between runs. A manifest on
//! disk is in the report; a deleted one is gone from it.
//!
//! [`trace`] packages the causal cell traces of one manifest into the
//! `rein_trace` exports, and [`hash`] holds the FNV-1a 64 hash and the
//! 16-hex content-key format that `CellKey`, the dataset-version
//! identities and the cell store import.

pub mod hash;
pub mod report;
pub mod trace;

pub use hash::{content_key, fnv1a64};
pub use report::{
    build_report, load_manifest, profile_diff, run_manifests, CacheRow, DiffRow, FailureTaxonomy,
    PercentileRow, Report, StrategyRow, TaxonomyRow,
};
pub use trace::{export_json, export_manifest, write_exports, TraceExport, TRACE_SCHEMA};
