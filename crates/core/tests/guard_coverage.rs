//! Every detector and repairer runs under `rein_guard` supervision on its
//! cell's trace. Each kind is dispatched through its guarded entry point
//! (`DetectorHarness::run`, `run_repair_guarded`) under its own
//! `cell:*` root span, with a `flaky` chaos rule: the guard fails the
//! first attempt, records a `guard:retry` instant under its
//! `detect:<name>` / `repair:<name>` span and runs the kernel again.
//! Only the guard injects chaos and records that instant, so a kind
//! dispatched outside the guard leaves no retry on its trace; and the
//! guard span must carry the cell's trace id, so spans and failures stay
//! attributable to their cell.

#![allow(clippy::expect_used, reason = "test support: a broken expectation fails the test")]

use rein_core::{run_repair_guarded, ChaosSpec, DetectorHarness, GuardPolicy};
use rein_datasets::{DatasetId, Params};
use rein_detect::DetectorKind;
use rein_repair::RepairKind;
use rein_telemetry::SpanRecord;

/// A trace id per (registry, kind), distinct across both registries.
fn trace_of(registry: u64, index: usize) -> u64 {
    0x6A2D_0000_0000 | (registry << 16) | index as u64
}

/// Whether a guard span `name` sits on `trace`: a span of that name
/// whose child is the guard's `guard:retry` instant.
fn has_guard_span(spans: &[SpanRecord], name: &str, trace: u64) -> bool {
    spans.iter().any(|s| {
        s.name == name
            && !s.instant
            && s.trace_id == trace
            && spans.iter().any(|r| r.instant && r.name == "guard:retry" && r.parent_id == s.id)
    })
}

#[test]
fn every_detector_and_repairer_runs_under_a_guard_span_on_its_cell_trace() {
    let ds = DatasetId::BreastCancer.generate(&Params::scaled(0.05, 31));
    let rules: Vec<String> = DetectorKind::ALL
        .iter()
        .map(|k| format!("detect:{}=flaky", k.name()))
        .chain(RepairKind::ALL.iter().map(|k| format!("repair:{}=flaky", k.name())))
        .collect();
    let policy = GuardPolicy::with_chaos(ChaosSpec::parse(&rules.join(",")).expect("flaky spec"));

    let harness = DetectorHarness::new(&ds, 25, 31).with_policy(policy.clone());
    for (i, kind) in DetectorKind::ALL.iter().enumerate() {
        let cell = rein_telemetry::span_traced(
            format!("cell:detect:{}", kind.name()),
            None,
            trace_of(1, i),
        );
        let run = harness.run(&ds, *kind);
        drop(cell);
        assert!(run.failure.is_none(), "{} degraded: {:?}", kind.name(), run.failure);
    }
    for (i, kind) in RepairKind::ALL.iter().enumerate() {
        let cell = rein_telemetry::span_traced(
            format!("cell:repair:{}", kind.name()),
            None,
            trace_of(2, i),
        );
        let run = run_repair_guarded(&ds, &ds.mask, *kind, 31, "", &policy);
        drop(cell);
        assert!(run.failure.is_none(), "{} degraded: {:?}", kind.name(), run.failure);
    }

    let spans = rein_telemetry::snapshot_spans();
    let kinds = DetectorKind::ALL
        .iter()
        .enumerate()
        .map(|(i, k)| (format!("detect:{}", k.name()), trace_of(1, i)))
        .chain(
            RepairKind::ALL
                .iter()
                .enumerate()
                .map(|(i, k)| (format!("repair:{}", k.name()), trace_of(2, i))),
        );
    for (name, trace) in kinds {
        assert!(
            has_guard_span(&spans, &name, trace),
            "{name} ran outside rein_guard::run or off its cell trace {trace:016x}"
        );
    }
}
