//! Integration tests asserting the *qualitative findings* of the paper's
//! §6.5 — the shapes the reproduction must preserve, independent of
//! absolute numbers.

#![allow(clippy::unwrap_used, reason = "test support: a broken expectation fails the test")]

use rein::core::{eval_classifier, eval_regressor, DetectorHarness, Scenario, VersionTable};
use rein::datasets::{DatasetId, Params};
use rein::detect::DetectorKind;
use rein::ml::model::{ClassifierKind, RegressorKind};
use rein::stats::mean;

#[test]
fn ensemble_detectors_beat_single_purpose_detectors_on_mixed_errors() {
    // Beers has MVs + rule violations + typos: no single-purpose detector
    // can cover them all, the ensembles can (paper: Figure 2a).
    let ds = DatasetId::Beers.generate(&Params::scaled(0.15, 21));
    let h = DetectorHarness::new(&ds, 100, 1);
    let min_k = h.run(&ds, DetectorKind::MinK).quality.f1;
    let raha = h.run(&ds, DetectorKind::Raha).quality.f1;
    let mvd = h.run(&ds, DetectorKind::MvDetector).quality.f1;
    let katara = h.run(&ds, DetectorKind::Katara).quality.f1;
    assert!(min_k > mvd, "min_k {min_k} vs mvd {mvd}");
    assert!(raha > katara, "raha {raha} vs katara {katara}");
    assert!(raha > 0.6, "raha f1 {raha}");
}

#[test]
fn ml_detectors_cost_more_runtime_than_simple_ones() {
    // Paper: Figure 2c — ML-based methods require long execution times.
    let ds = DatasetId::SmartFactory.generate(&Params::scaled(0.05, 22));
    let h = DetectorHarness::new(&ds, 100, 1);
    let sd = h.run(&ds, DetectorKind::Sd).runtime;
    let ed2 = h.run(&ds, DetectorKind::Ed2).runtime;
    assert!(ed2 > sd, "ED2 ({ed2:?}) must cost more than the SD rule ({sd:?})");
}

#[test]
fn classifiers_are_more_robust_to_attribute_errors_than_regressors() {
    // Paper §6.5: S1-vs-S4 gaps are small for classifiers, large for
    // regressors — cleaning matters more for regression.
    let cls = DatasetId::SmartFactory.generate(&Params::scaled(0.02, 23));
    let version = VersionTable::identity(cls.dirty.clone());
    let s1 =
        mean(&eval_classifier(Scenario::S1, &cls, &version, ClassifierKind::RandomForest, 3, 1));
    let s4 =
        mean(&eval_classifier(Scenario::S4, &cls, &version, ClassifierKind::RandomForest, 3, 1));
    let cls_gap = (s4 - s1).max(0.0) / s4.max(1e-9);

    let reg = DatasetId::Nasa.generate(&Params::scaled(0.3, 24));
    let version = VersionTable::identity(reg.dirty.clone());
    let r1 =
        mean(&eval_regressor(Scenario::S1, &reg, &version, RegressorKind::LinearRegression, 3, 1));
    let r4 =
        mean(&eval_regressor(Scenario::S4, &reg, &version, RegressorKind::LinearRegression, 3, 1));
    let reg_gap = (r1 - r4).max(0.0) / r4.max(1e-9); // RMSE: higher is worse

    assert!(
        reg_gap > cls_gap,
        "regression degradation ({reg_gap:.3}) should exceed classification ({cls_gap:.3})"
    );
}

#[test]
fn models_trained_dirty_but_served_clean_perform_well() {
    // Paper Figures 7n/7o: S2 (train dirty, test clean) beats S3
    // (train clean, test dirty) for regression models.
    let ds = DatasetId::Nasa.generate(&Params::scaled(0.4, 25));
    let version = VersionTable::identity(ds.dirty.clone());
    for model in [RegressorKind::Ransac, RegressorKind::BayesRidge] {
        let s2 = mean(&eval_regressor(Scenario::S2, &ds, &version, model, 4, 3));
        let s3 = mean(&eval_regressor(Scenario::S3, &ds, &version, model, 4, 3));
        assert!(s2 < s3, "{}: S2 RMSE ({s2:.3}) should beat S3 ({s3:.3})", model.name());
    }
}

#[test]
fn detection_false_negatives_hurt_more_than_false_positives_under_gt_repair() {
    // Paper §6.5: with a highly effective repairer (GT), false negatives
    // cap repair recall while false positives are harmless.
    use rein::core::run_repair;
    use rein::repair::RepairKind;
    let ds = DatasetId::Beers.generate(&Params::scaled(0.15, 26));

    // Low-recall detection: only half the true errors.
    let mut low_recall = rein::data::CellMask::new(ds.dirty.n_rows(), ds.dirty.n_cols());
    for (i, cell) in ds.mask.iter().enumerate() {
        if i % 2 == 0 {
            low_recall.set(cell.row, cell.col, true);
        }
    }
    // Low-precision detection: all true errors plus as many false alarms.
    let mut low_precision = ds.mask.clone();
    let mut added = 0usize;
    'outer: for r in 0..ds.dirty.n_rows() {
        for c in 0..ds.dirty.n_cols() {
            if !ds.mask.get(r, c) {
                low_precision.set(r, c, true);
                added += 1;
                if added >= ds.mask.count() {
                    break 'outer;
                }
            }
        }
    }

    let remaining = |mask: &rein::data::CellMask| {
        let run = run_repair(&ds, mask, RepairKind::GroundTruth, 1);
        let table = run.version.unwrap().table;
        rein::data::diff::diff_mask(&ds.clean, &table).count()
    };
    let after_low_recall = remaining(&low_recall);
    let after_low_precision = remaining(&low_precision);
    assert!(
        after_low_precision < after_low_recall,
        "under GT repair, low precision ({after_low_precision} left) must beat \
         low recall ({after_low_recall} left)"
    );
    assert_eq!(after_low_precision, 0, "perfect recall + GT repair fixes everything");
}
