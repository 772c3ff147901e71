//! Integration tests for fault-isolated grid execution: chaos-injected
//! runs are deterministic, degrade exactly the injected cells, and leave
//! every other cell byte-identical to a fault-free run.
//!
//! The assertions read the `failure` field returned on each run, except
//! that the grid tests read the global telemetry registry, which
//! parallel tests share: each reads only the records of the one dataset
//! and repairer it injects into.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "test support: a broken expectation fails the test"
)]

use std::collections::BTreeMap;

use rein_core::{
    run_repair_guarded, ChaosSpec, Controller, DetectorHarness, FailureCause, GuardPolicy, Scenario,
};
use rein_data::CellMask;
use rein_datasets::{DatasetId, GeneratedDataset, Params};
use rein_detect::DetectorKind;
use rein_repair::RepairKind;

fn small_dataset() -> GeneratedDataset {
    DatasetId::BreastCancer.generate(&Params::scaled(0.1, 29))
}

fn harness(ds: &GeneratedDataset, policy: GuardPolicy) -> DetectorHarness {
    DetectorHarness::new(ds, 25, 29).with_policy(policy)
}

fn mask_bytes(mask: &CellMask) -> String {
    serde_json::to_string(mask).expect("mask serializes")
}

#[test]
fn injected_panic_degrades_only_the_target_cell() {
    let ds = small_dataset();
    let chaos = ChaosSpec::parse("detect:sd=panic").unwrap();
    let kinds = [DetectorKind::Sd, DetectorKind::Iqr, DetectorKind::MvDetector];

    let clean = harness(&ds, GuardPolicy::default());
    let faulty = harness(&ds, GuardPolicy::with_chaos(chaos));
    for kind in kinds {
        let base = clean.run(&ds, kind);
        let run = faulty.run(&ds, kind);
        if kind == DetectorKind::Sd {
            let failure = run.failure.expect("injected detector must degrade");
            assert!(
                matches!(failure.cause, FailureCause::Panic { .. }),
                "expected a panic cause, got {:?}",
                failure.cause
            );
            assert_eq!(failure.strategy, "sd");
            assert_eq!(run.mask.count(), 0, "degraded detector yields an empty mask");
            assert_eq!(run.mask.rows(), ds.dirty.n_rows());
        } else {
            assert!(run.failure.is_none(), "{} must not degrade", kind.name());
            assert_eq!(mask_bytes(&run.mask), mask_bytes(&base.mask), "{}", kind.name());
        }
    }
}

#[test]
fn chaos_runs_are_deterministic_across_repeats() {
    let ds = small_dataset();
    let policy =
        GuardPolicy::with_chaos(ChaosSpec::parse("detect:iqr=panic,detect:sd=stall").unwrap());
    let kinds = [DetectorKind::Sd, DetectorKind::Iqr, DetectorKind::MvDetector];

    let render = |h: &DetectorHarness| -> Vec<String> {
        kinds
            .iter()
            .map(|&kind| {
                let run = h.run(&ds, kind);
                // Compare everything but elapsed time: mask bytes plus the
                // failure identity (cause / strategy / attempts).
                let failure = run
                    .failure
                    .map(|f| {
                        format!("{}:{}:{}:{}", f.phase.name(), f.strategy, f.cause, f.attempts)
                    })
                    .unwrap_or_default();
                format!("{}|{}", mask_bytes(&run.mask), failure)
            })
            .collect()
    };

    let first = render(&harness(&ds, policy.clone()));
    let second = render(&harness(&ds, policy));
    assert_eq!(first, second, "a chaos-injected run must reproduce byte-for-byte");
}

#[test]
fn budget_exhaustion_mid_kernel_degrades_with_spend_figures() {
    let ds = small_dataset();
    // A three-tick allowance trips inside the first kernel loop of any
    // real detector on this dataset.
    let policy = GuardPolicy { budget_override: Some(3), ..GuardPolicy::default() };
    let run = harness(&ds, policy).run(&ds, DetectorKind::IsolationForest);
    let failure = run.failure.expect("tiny budget must exhaust");
    match failure.cause {
        FailureCause::BudgetExhausted { spent, allowance } => {
            assert_eq!(allowance, 3);
            assert!(spent > allowance, "spent {spent} must exceed the allowance");
        }
        other => panic!("expected budget exhaustion, got {other:?}"),
    }
}

#[test]
fn flaky_injection_retries_to_success() {
    let ds = small_dataset();
    let policy = GuardPolicy::with_chaos(ChaosSpec::parse("detect:mv_detector=flaky").unwrap());
    let run = harness(&ds, policy).run(&ds, DetectorKind::MvDetector);
    assert!(run.failure.is_none(), "one flake within the retry budget must recover");
    assert_eq!(run.mask.rows(), ds.dirty.n_rows());
}

#[test]
fn corrupt_injection_is_caught_by_output_validation() {
    let ds = small_dataset();
    let policy = GuardPolicy::with_chaos(ChaosSpec::parse("detect:iqr=corrupt").unwrap());
    let run = harness(&ds, policy).run(&ds, DetectorKind::Iqr);
    let failure = run.failure.expect("corrupted output must be rejected");
    assert!(
        matches!(failure.cause, FailureCause::InvalidOutput { .. }),
        "expected invalid output, got {:?}",
        failure.cause
    );
}

#[test]
fn stalled_repair_degrades_to_the_identity_version() {
    let ds = small_dataset();
    let chaos = ChaosSpec::parse("repair:impute_mean_mode=stall").unwrap();
    let policy = GuardPolicy::with_chaos(chaos);
    let detections =
        CellMask::from_cells(ds.dirty.n_rows(), ds.dirty.n_cols(), ds.mask.iter().take(10));

    let run = run_repair_guarded(&ds, &detections, RepairKind::ImputeMeanMode, 7, "sd", &policy);
    let failure = run.failure.expect("stalled repairer must degrade");
    assert!(
        matches!(failure.cause, FailureCause::BudgetExhausted { allowance: 0, .. }),
        "stall means a zero allowance, got {:?}",
        failure.cause
    );
    assert_eq!(failure.scope, "sd", "the failure carries the feeding detector");
    let version = run.version.expect("degraded repair falls back to the dirty version");
    assert_eq!(
        rein_data::csv::write_str(&version.table),
        rein_data::csv::write_str(&ds.dirty),
        "the fallback version is the dirty table untouched"
    );
    assert_eq!(run.repaired_cells.map(|m| m.count()), Some(0));

    // The same repair without chaos succeeds and reports no failure.
    let ok = run_repair_guarded(
        &ds,
        &detections,
        RepairKind::ImputeMeanMode,
        7,
        "sd",
        &GuardPolicy::default(),
    );
    assert!(ok.failure.is_none());
}

#[test]
fn controller_completes_the_plan_with_exactly_the_injected_failures() {
    let ds = small_dataset();
    let spec = "detect:sd=panic,detect:raha=stall";
    let chaos = ChaosSpec::parse(spec).unwrap();
    let expected = chaos.len();

    let ctrl = Controller {
        label_budget: 25,
        seed: 29,
        policy: GuardPolicy::with_chaos(chaos),
        ..Controller::default()
    };
    let baseline = Controller { label_budget: 25, seed: 29, ..Controller::default() };

    let runs = ctrl.run_detection(&ds);
    let base_runs = baseline.run_detection(&ds);
    assert_eq!(runs.len(), base_runs.len(), "degradation must not shrink the plan");

    let mut failures: Vec<String> = runs
        .iter()
        .filter_map(|r| r.failure.as_ref())
        .map(|f| format!("{}:{}", f.phase.name(), f.strategy))
        .collect();
    failures.sort();
    assert_eq!(failures.len(), expected, "exactly the injected cells degrade: {failures:?}");
    assert_eq!(failures, vec!["detect:raha".to_string(), "detect:sd".to_string()]);

    // Failure ordering in record form is stable: sorting the rendered
    // identities twice gives the same sequence (no wall-clock key).
    let rendered: Vec<String> = runs
        .iter()
        .filter_map(|r| r.failure.as_ref())
        .map(|f| f.to_record())
        .map(|rec| {
            format!("{}|{}|{}|{}|{}", rec.phase, rec.strategy, rec.dataset, rec.scope, rec.attempts)
        })
        .collect();
    let mut sorted = rendered.clone();
    sorted.sort();
    let mut again = rendered;
    again.sort();
    assert_eq!(sorted, again);

    // Every non-injected detector matches the fault-free run.
    for (run, base) in runs.iter().zip(base_runs.iter()) {
        assert_eq!(run.kind, base.kind);
        if run.failure.is_none() {
            assert_eq!(
                mask_bytes(&run.mask),
                mask_bytes(&base.mask),
                "{} diverged under chaos",
                run.kind.name()
            );
        }
    }
}

/// Nasa ×0.05, on which min_k, metadata_driven and raha emit one mask at
/// seed 7, so their repairs share cells.
fn shared_mask_dataset() -> GeneratedDataset {
    DatasetId::Nasa.generate(&Params::scaled(0.05, 7))
}

/// The S1 grid of [`shared_mask_dataset`] under `chaos`, and the failure
/// records it left for `repairer`, as `(scope, cause, trace id)`.
fn grid_under(chaos: &str, repairer: &str) -> (BTreeMap<String, String>, Vec<[String; 3]>) {
    let ds = shared_mask_dataset();
    let policy = GuardPolicy::with_chaos(ChaosSpec::parse(chaos).unwrap());
    let ctrl = Controller { label_budget: 30, seed: 7, policy, ..Controller::default() };
    let cells = ctrl.run_grid(&ds, &[Scenario::S1], 1);
    let failures = rein_telemetry::failures_snapshot()
        .into_iter()
        .filter(|f| f.dataset == ds.info.name && f.phase == "repair" && f.strategy == repairer)
        .map(|f| [f.scope, f.cause, f.trace_id])
        .collect();
    (cells, failures)
}

/// The root span name of the trace `trace_id` (16 hex digits).
fn root_of(trace_id: &str) -> String {
    let spans = rein_telemetry::snapshot_spans();
    let root = spans
        .iter()
        .find(|s| format!("{:016x}", s.trace_id) == trace_id && s.name.starts_with("cell:"))
        .unwrap_or_else(|| panic!("no cell root for trace {trace_id}"));
    root.name.clone()
}

/// The first of the `planned` detectors whose detect cell in `cells`
/// holds the same mask as `detector`'s.
fn first_with_mask_of(
    cells: &BTreeMap<String, String>,
    planned: &[DetectorKind],
    detector: &str,
) -> &'static str {
    let mask = &cells[&format!("detect:{detector}")];
    let first = planned.iter().find(|d| cells[&format!("detect:{}", d.name())] == *mask);
    first.unwrap().name()
}

#[test]
fn scoped_repair_chaos_degrades_only_its_pair_of_a_shared_mask() {
    let ds = shared_mask_dataset();
    let planned = Controller::default().plan(&ds).detectors;
    let fault_free = Controller { label_budget: 30, seed: 7, ..Controller::default() };
    let baseline = fault_free.run_grid(&ds, &[Scenario::S1], 1);
    // metadata_driven is not the first of its mask's detectors, so the
    // rule splits its pair off a shared cell.
    assert_eq!(first_with_mask_of(&baseline, &planned, "metadata_driven"), "min_k");
    assert_eq!(first_with_mask_of(&baseline, &planned, "raha"), "min_k");

    let (cells, failures) =
        grid_under("repair:impute_mean_mode#metadata_driven=stall", "impute_mean_mode");
    let [[scope, cause, trace]] = &failures[..] else {
        panic!("exactly one failure expected, got {failures:?}");
    };
    assert_eq!(scope, "metadata_driven");
    assert!(cause.starts_with("budget exhausted"), "{cause}");
    assert_eq!(root_of(trace), "cell:repair:impute_mean_mode#metadata_driven");
    // Only the pair and the eval cell of its version changed.
    let changed: Vec<&String> =
        baseline.keys().filter(|k| cells.get(*k) != Some(&baseline[*k])).collect();
    assert_eq!(
        changed,
        ["eval:S1:impute_mean_mode#metadata_driven", "repair:impute_mean_mode#metadata_driven"]
    );
    assert_eq!(cells.len(), baseline.len());
}

#[test]
fn unscoped_repair_chaos_records_one_failure_per_coordinate_of_a_shared_cell() {
    let planned = Controller::default().plan(&shared_mask_dataset()).detectors;
    let (cells, failures) = grid_under("repair:impute_median_mode=stall", "impute_median_mode");
    // The failure set of unshared cells: one record per planned
    // detector, scoped to it, with the same cause.
    let scopes: Vec<&str> = failures.iter().map(|[scope, _, _]| scope.as_str()).collect();
    let mut names: Vec<&str> = planned.iter().map(|d| d.name()).collect();
    names.sort_unstable();
    assert_eq!(scopes, names);
    assert!(failures.iter().all(|[_, cause, _]| *cause == failures[0][1]), "{failures:?}");
    // Each record links the trace of the one cell that served its
    // coordinate: the shared cell is rooted at its first detector's pair.
    for [scope, _, trace] in &failures {
        let first = first_with_mask_of(&cells, &planned, scope);
        assert_eq!(root_of(trace), format!("cell:repair:impute_median_mode#{first}"), "{scope}");
    }
    let traces: std::collections::BTreeSet<&str> =
        failures.iter().map(|[_, _, trace]| trace.as_str()).collect();
    assert!(traces.len() < failures.len(), "the shared cell degraded once");
}
