//! End-to-end integration: dirty data → detection → repair → modeling,
//! asserting the qualitative findings the paper reports.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "test support: a broken expectation fails the test"
)]

use rein::core::{
    eval_classifier, eval_regressor, run_repair, Controller, DetectorHarness, Scenario,
    VersionTable,
};
use rein::datasets::{DatasetId, Params};
use rein::detect::DetectorKind;
use rein::ml::model::{ClassifierKind, RegressorKind};
use rein::repair::RepairKind;

fn mean(v: &[f64]) -> f64 {
    let f: Vec<f64> = v.iter().copied().filter(|x| x.is_finite()).collect();
    f.iter().sum::<f64>() / f.len().max(1) as f64
}

#[test]
fn full_pipeline_on_beers_improves_over_dirty() {
    let ds = DatasetId::Beers.generate(&Params::scaled(0.15, 5));
    let harness = DetectorHarness::new(&ds, 100, 1);
    let det = harness.run(&ds, DetectorKind::Raha);
    assert!(det.quality.f1 > 0.5, "raha f1 {}", det.quality.f1);

    let run = run_repair(&ds, &det.mask, RepairKind::MissMix, 1);
    let repaired = run.version.expect("generic repair");

    let dirty = VersionTable::identity(ds.dirty.clone());
    let f1_dirty = mean(&eval_classifier(Scenario::S1, &ds, &dirty, ClassifierKind::Logit, 3, 7));
    let f1_rep = mean(&eval_classifier(Scenario::S1, &ds, &repaired, ClassifierKind::Logit, 3, 7));
    let f1_gt = mean(&eval_classifier(Scenario::S4, &ds, &dirty, ClassifierKind::Logit, 3, 7));
    assert!(f1_rep >= f1_dirty - 0.02, "repair must not hurt: dirty {f1_dirty} repaired {f1_rep}");
    assert!(f1_gt >= f1_rep - 0.05, "ground truth is the upper bound");
}

#[test]
fn ground_truth_repair_reaches_s4_for_regression() {
    let ds = DatasetId::Nasa.generate(&Params::scaled(0.3, 3));
    let run = run_repair(&ds, &ds.mask, RepairKind::GroundTruth, 1);
    let repaired = run.version.unwrap();
    let dirty = VersionTable::identity(ds.dirty.clone());
    let rmse_gtrep =
        mean(&eval_regressor(Scenario::S1, &ds, &repaired, RegressorKind::Ridge, 3, 9));
    let rmse_s4 = mean(&eval_regressor(Scenario::S4, &ds, &dirty, RegressorKind::Ridge, 3, 9));
    assert!(
        (rmse_gtrep - rmse_s4).abs() < 0.2 * rmse_s4.max(1.0),
        "GT-repaired S1 ({rmse_gtrep}) should match S4 ({rmse_s4})"
    );
}

#[test]
fn controller_end_to_end_on_breast_cancer() {
    let ds = DatasetId::BreastCancer.generate(&Params::scaled(0.4, 7));
    let ctrl = Controller { label_budget: 60, seed: 1, ..Controller::default() };
    let detections = ctrl.run_detection(&ds);
    assert!(detections.len() >= 5, "only {} detectors planned", detections.len());
    let best =
        detections.iter().max_by(|a, b| a.quality.f1.total_cmp(&b.quality.f1)).expect("non-empty");
    assert!(best.quality.f1 > 0.5, "best detector f1 {}", best.quality.f1);

    let repairs = ctrl.run_repairs(&ds, best);
    let records = ctrl.repair_records(&ds, best.kind, &repairs);
    // Ground-truth repair has the lowest RMSE of all strategies.
    let gt_rmse = records
        .iter()
        .find(|r| r.repairer == "ground_truth")
        .and_then(|r| r.rmse)
        .expect("gt rmse");
    for rec in &records {
        if let Some(rmse) = rec.rmse {
            assert!(gt_rmse <= rmse + 1e-9, "{} beat GT ({rmse} < {gt_rmse})", rec.repairer);
        }
    }
}

#[test]
fn dirty_version_rmse_is_upper_bound_for_good_strategies() {
    let ds = DatasetId::SmartFactory.generate(&Params::scaled(0.02, 9));
    let harness = DetectorHarness::new(&ds, 60, 2);
    let det = harness.run(&ds, DetectorKind::MaxEntropy);
    let run = run_repair(&ds, &det.mask, RepairKind::MissMix, 3);
    let (repaired, dirty) =
        rein::core::evaluate::repair_quality_numerical(&ds, &run).expect("same-shape repair");
    assert!(
        repaired.rmse < dirty.rmse,
        "miss_mix repaired RMSE {} must beat dirty {}",
        repaired.rmse,
        dirty.rmse
    );
}

#[test]
fn ml_oriented_repair_produces_deployable_model() {
    let ds = DatasetId::BreastCancer.generate(&Params::scaled(0.4, 11));
    let run = run_repair(&ds, &ds.mask, RepairKind::BoostClean, 1);
    let pipeline = run.pipeline.expect("boostclean outputs a model");
    let f1 = pipeline.f1_on(&ds.clean);
    assert!(f1 > 0.8, "boostclean pipeline f1 on clean data {f1}");
}
