//! Quickstart: generate a dirty dataset, detect errors, repair them, and
//! measure what the cleaning did to a downstream classifier.
//!
//! Run with: `cargo run --example quickstart`

#![allow(
    clippy::print_stdout,
    clippy::expect_used,
    reason = "an example narrates its results on stdout and stops at the first broken assumption"
)]

use rein::core::{eval_classifier, run_repair, DetectorHarness, Scenario, VersionTable};
use rein::datasets::{DatasetId, Params};
use rein::detect::DetectorKind;
use rein::ml::model::ClassifierKind;
use rein::repair::RepairKind;

fn main() {
    // 1. A benchmark dataset: the Beers catalogue with missing values,
    //    rule violations and typos at a 16% cell error rate.
    let ds = DatasetId::Beers.generate(&Params::scaled(0.25, 42));
    println!(
        "beers: {} rows, {} columns, {:.1}% of cells erroneous",
        ds.dirty.n_rows(),
        ds.dirty.n_cols(),
        100.0 * ds.error_rate()
    );

    // 2. Detect errors with the Max-Entropy ensemble.
    let harness = DetectorHarness::new(&ds, 100, 1);
    let detection = harness.run(&ds, DetectorKind::MaxEntropy);
    println!(
        "max_entropy detected {} cells (precision {:.2}, recall {:.2}, F1 {:.2})",
        detection.quality.detected(),
        detection.quality.precision,
        detection.quality.recall,
        detection.quality.f1
    );

    // 3. Repair the detected cells with missForest-style imputation.
    let repair = run_repair(&ds, &detection.mask, RepairKind::MissMix, 1);
    let repaired = repair.version.expect("generic repairers return a table");

    // 4. Train a decision tree on each version and compare (scenario S1)
    //    against the ground-truth upper bound (S4).
    let dirty_version = VersionTable::identity(ds.dirty.clone());
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let f1_dirty = mean(&eval_classifier(
        Scenario::S1,
        &ds,
        &dirty_version,
        ClassifierKind::DecisionTree,
        5,
        7,
    ));
    let f1_repaired =
        mean(&eval_classifier(Scenario::S1, &ds, &repaired, ClassifierKind::DecisionTree, 5, 7));
    let f1_truth = mean(&eval_classifier(
        Scenario::S4,
        &ds,
        &dirty_version,
        ClassifierKind::DecisionTree,
        5,
        7,
    ));

    println!("\ndecision-tree macro F1:");
    println!("  trained on dirty data     {f1_dirty:.3}");
    println!("  trained on repaired data  {f1_repaired:.3}");
    println!("  ground-truth upper bound  {f1_truth:.3}");
}
