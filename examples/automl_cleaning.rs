//! AutoML meets data cleaning (the paper's §6.5 AutoML finding): a fully
//! automated pipeline — AutoSelect (the Auto-Sklearn stand-in) picks the
//! model family — run on the dirty data, an automatically repaired
//! version, and the ground truth. AutoML does *not* rescue a badly
//! repaired dataset.
//!
//! Run with: `cargo run --example automl_cleaning`

#![allow(
    clippy::print_stdout,
    clippy::expect_used,
    reason = "an example narrates its results on stdout and stops at the first broken assumption"
)]

use rein::core::{run_repair, DetectorHarness};
use rein::datasets::{DatasetId, Params};
use rein::detect::DetectorKind;
use rein::ml::automl::AutoSelect;
use rein::ml::encode::{select_matrix_rows, Encoder, LabelMap};
use rein::repair::RepairKind;

fn f1_of_automl(table: &rein::data::Table, label_col: usize, seed: u64) -> (String, f64) {
    let features: Vec<usize> = (0..table.n_cols()).filter(|&c| c != label_col).collect();
    let encoder = Encoder::fit(table, &features);
    let labels = LabelMap::fit([table], label_col);
    let (rows, y) = labels.encode(table, label_col);
    let x = select_matrix_rows(&encoder.transform(table), &rows);

    // Hold out 25% for scoring.
    let split = rein::data::split::train_test_indices(x.rows(), 0.25, seed);
    let xtr = select_matrix_rows(&x, &split.train);
    let ytr: Vec<usize> = split.train.iter().map(|&i| y[i]).collect();
    let outcome = AutoSelect::new(seed).fit_classifier(&xtr, &ytr, labels.n_classes());
    let xte = select_matrix_rows(&x, &split.test);
    let yte: Vec<usize> = split.test.iter().map(|&i| y[i]).collect();
    let preds = outcome.model.predict(&xte);
    let f1 = rein::ml::classification_report(&yte, &preds, labels.n_classes()).f1;
    (outcome.family, f1)
}

fn main() {
    let ds = DatasetId::BreastCancer.generate(&Params::scaled(0.6, 11));
    let label_col = ds.clean.schema().label_index().expect("classification dataset");

    // Automatically repaired version: Max-Entropy detection + mean-mode.
    let harness = DetectorHarness::new(&ds, 80, 1);
    let detection = harness.run(&ds, DetectorKind::MaxEntropy);
    let run = run_repair(&ds, &detection.mask, RepairKind::ImputeMeanMode, 1);
    let repaired = run.version.expect("generic repair");

    println!("AutoSelect (Auto-Sklearn stand-in) on breast_cancer:");
    for (name, table) in
        [("dirty", &ds.dirty), ("auto-repaired", &repaired.table), ("ground truth", &ds.clean)]
    {
        let (family, f1) = f1_of_automl(table, label_col, 5);
        println!("  {name:<14} winner = {family:<8} holdout F1 = {f1:.3}");
    }
    println!("\nAutoML picks a good family each time, but its accuracy still");
    println!("tracks the quality of the data it was given — the paper's finding");
    println!("that automated pipelines cannot substitute for proper cleaning.");
}
