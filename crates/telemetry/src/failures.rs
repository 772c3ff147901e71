//! The strategy-failure registry.
//!
//! rein-guard appends one [`FailureRecord`] per degraded grid cell;
//! [`RunManifest::collect`](crate::RunManifest::collect) snapshots the
//! registry into the manifest's `failures` array. Snapshots are sorted by
//! cell identity (never by insertion order or elapsed time), so the same
//! failures produce the same manifest bytes no matter which rayon worker
//! recorded them first.

use std::sync::{Mutex, OnceLock};

use serde::{Deserialize, Serialize};

/// One degraded grid cell, as recorded in the run manifest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FailureRecord {
    /// Grid phase (`detect`, `repair`, `model`).
    pub phase: String,
    /// Strategy name.
    pub strategy: String,
    /// Dataset name.
    pub dataset: String,
    /// Sub-grid scope (detector name for repair cells; empty otherwise).
    pub scope: String,
    /// Rendered failure cause.
    pub cause: String,
    /// Attempts made (1 = no retry).
    pub attempts: u32,
    /// Wall-clock time spent across attempts, in milliseconds.
    pub elapsed_ms: f64,
    /// 16-hex trace id of the owning cell trace (the `CellKey` digest),
    /// empty for records written before trace propagation (PR 9) or
    /// outside any cell span.
    #[serde(default)]
    pub trace_id: String,
}

impl FailureRecord {
    /// The stable sort key: everything except the timing.
    fn key(&self) -> (&str, &str, &str, &str, &str, u32) {
        (&self.phase, &self.strategy, &self.dataset, &self.scope, &self.cause, self.attempts)
    }
}

fn registry() -> &'static Mutex<Vec<FailureRecord>> {
    static REGISTRY: OnceLock<Mutex<Vec<FailureRecord>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

/// Appends a failure to the process-global registry.
pub fn record_failure(record: FailureRecord) {
    #[expect(
        clippy::expect_used,
        reason = "failure list lock poisoning only follows another panic"
    )]
    registry().lock().expect("failure list lock").push(record);
}

/// Copies out every recorded failure, sorted by cell identity so the
/// order is deterministic under parallel recording.
pub fn failures_snapshot() -> Vec<FailureRecord> {
    #[expect(
        clippy::expect_used,
        reason = "failure list lock poisoning only follows another panic"
    )]
    let mut out = registry().lock().expect("failure list lock").clone();
    out.sort_by(|a, b| a.key().cmp(&b.key()));
    out
}

pub(crate) fn reset_failures() {
    #[expect(
        clippy::expect_used,
        reason = "failure list lock poisoning only follows another panic"
    )]
    registry().lock().expect("failure list lock").clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(strategy: &str, elapsed_ms: f64) -> FailureRecord {
        FailureRecord {
            phase: "detect".into(),
            strategy: strategy.into(),
            dataset: "beers".into(),
            scope: String::new(),
            cause: "panic: boom".into(),
            attempts: 1,
            elapsed_ms,
            trace_id: String::new(),
        }
    }

    #[test]
    fn pre_trace_failure_records_deserialize_with_empty_trace_id() {
        let old = r#"{"phase":"detect","strategy":"Raha","dataset":"beers",
                      "scope":"","cause":"panic: boom","attempts":2,"elapsed_ms":1.5}"#;
        let f: FailureRecord = serde_json::from_str(old).expect("pre-trace record parses");
        assert_eq!(f.trace_id, "");
        assert_eq!(f.attempts, 2);
    }

    #[test]
    fn snapshot_is_sorted_by_identity_not_insertion() {
        reset_failures();
        record_failure(record("zeta", 9.0));
        record_failure(record("alpha", 1.0));
        let snap = failures_snapshot();
        let strategies: Vec<&str> = snap
            .iter()
            .map(|f| f.strategy.as_str())
            .filter(|s| *s == "zeta" || *s == "alpha")
            .collect();
        let alpha = strategies.iter().position(|s| *s == "alpha");
        let zeta = strategies.iter().position(|s| *s == "zeta");
        assert!(alpha < zeta, "alpha must sort before zeta: {strategies:?}");
    }
}
