//! Comparing cleaning strategies the REIN way: the benchmark controller
//! plans the applicable detectors for a dataset's error profile, every
//! detector feeds several repairers, and each strategy is scored both in
//! isolation (repair RMSE) and by its downstream effect (regression RMSE
//! in scenario S1 vs the ground-truth bound S4).
//!
//! Run with: `cargo run --example cleaning_strategies`

#![allow(
    clippy::print_stdout,
    clippy::expect_used,
    reason = "an example narrates its results on stdout and stops at the first broken assumption"
)]

use rein::core::{
    eval_regressor, run_repair, CleaningStrategy, Controller, Scenario, VersionTable,
};
use rein::datasets::{DatasetId, Params};
use rein::ml::model::RegressorKind;
use rein::repair::RepairKind;

fn main() {
    let ds = DatasetId::Nasa.generate(&Params::scaled(0.5, 9));
    let ctrl = Controller { label_budget: 80, seed: 3, ..Controller::default() };

    // The controller prunes detectors that cannot help this error profile
    // (no duplicate detectors for a MV/outlier dataset, etc.).
    let plan = ctrl.plan(&ds);
    println!("planned detectors for nasa ({:?}):", ds.info.errors.types);
    for d in &plan.detectors {
        println!("  {}", d.name());
    }

    let mut detections = ctrl.run_detection(&ds);
    detections.retain(|d| d.quality.detected() > 0);
    detections.sort_by(|a, b| b.quality.f1.total_cmp(&a.quality.f1));
    detections.truncate(3);

    let dirty = VersionTable::identity(ds.dirty.clone());
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let s1_dirty = mean(&eval_regressor(Scenario::S1, &ds, &dirty, RegressorKind::XgBoost, 3, 1));
    let s4 = mean(&eval_regressor(Scenario::S4, &ds, &dirty, RegressorKind::XgBoost, 3, 1));

    println!("\nXGB RMSE on dirty data (S1): {s1_dirty:.3}   ground truth (S4): {s4:.3}\n");
    println!(
        "{:<10} {:<20} {:>12} {:>12}",
        "strategy", "(det + repairer)", "repair RMSE", "model RMSE"
    );
    for det in &detections {
        for rep in [RepairKind::ImputeMeanMode, RepairKind::MissMix, RepairKind::KnnMiss] {
            let strategy = CleaningStrategy { detector: det.kind, repairer: rep };
            let run = run_repair(&ds, &det.mask, rep, 5);
            let repair_rmse = rein::core::evaluate::repair_quality_numerical(&ds, &run)
                .map(|(r, _)| r.rmse)
                .unwrap_or(f64::NAN);
            let version = run.version.expect("generic repair");
            let model_rmse =
                mean(&eval_regressor(Scenario::S1, &ds, &version, RegressorKind::XgBoost, 3, 1));
            println!(
                "{:<10} {:<20} {:>12.3} {:>12.3}",
                strategy.label(),
                format!("{} + {}", det.kind.name(), rep.name()),
                repair_rmse,
                model_rmse
            );
        }
    }
    println!("\nLower model RMSE than the dirty S1 baseline means the strategy helped.");
}
