//! Ablation: which detection failure hurts repair more — false positives
//! or false negatives?
//!
//! §6.5 of the paper argues detection *precision* usually dominates repair
//! quality, **except** under a highly effective repairer (GT), where false
//! negatives dominate because unflagged errors can never be repaired. This
//! harness synthesises detections at controlled precision/recall operating
//! points and measures the resulting repair RMSE under two repairers.

#![allow(
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "a binary is the report surface: it prints its results and may abort on a broken invariant"
)]

use rand::prelude::*;
use rand::rngs::StdRng;
use rein_bench::{conclude, dataset, f, header, phase};
use rein_core::run_repair;
use rein_data::CellMask;
use rein_datasets::{DatasetId, GeneratedDataset};
use rein_repair::RepairKind;

/// Detection mask with the requested recall (fraction of true errors
/// flagged) and precision (TP / detected), padding with false positives.
fn synth_detection(ds: &GeneratedDataset, recall: f64, precision: f64, seed: u64) -> CellMask {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut mask = CellMask::new(ds.dirty.n_rows(), ds.dirty.n_cols());
    let mut errors: Vec<_> = ds.mask.iter().collect();
    errors.shuffle(&mut rng);
    let tp = ((errors.len() as f64) * recall).round() as usize;
    for cell in errors.iter().take(tp) {
        mask.set(cell.row, cell.col, true);
    }
    // Add FPs until precision target reached: detected = tp / precision.
    let target_detected = (tp as f64 / precision.max(1e-9)).round() as usize;
    let mut fp_needed = target_detected.saturating_sub(tp);
    'outer: for r in 0..ds.dirty.n_rows() {
        for c in 0..ds.dirty.n_cols() {
            if fp_needed == 0 {
                break 'outer;
            }
            if !ds.mask.get(r, c) && !mask.get(r, c) {
                mask.set(r, c, true);
                fp_needed -= 1;
            }
        }
    }
    mask
}

fn main() {
    let setup = phase("setup");
    let ds = dataset(DatasetId::SmartFactory, 17);
    let numeric = ds.clean.schema().numeric_indices();
    let dirty_rmse = rein_stats::numerical_rmse(&ds.dirty, &ds.clean, &ds.mask, &numeric).rmse;
    header("Ablation — repair RMSE vs detection precision/recall (smart_factory)");
    println!("dirty-version RMSE baseline: {}\n", f(dirty_rmse));
    drop(setup);
    let sweep = phase("sweep");
    println!("{:<10} {:<10} {:>14} {:>14}", "precision", "recall", "GT repair", "mean impute");
    for &(precision, recall) in
        &[(1.0, 1.0), (1.0, 0.5), (1.0, 0.25), (0.5, 1.0), (0.25, 1.0), (0.5, 0.5)]
    {
        let det = synth_detection(&ds, recall, precision, 3);
        let rmse_of = |kind: RepairKind| {
            let run = run_repair(&ds, &det, kind, 1);
            let table = &run.version.expect("generic").table;
            rein_stats::numerical_rmse(table, &ds.clean, &ds.mask, &numeric).rmse
        };
        println!(
            "{:<10} {:<10} {:>14} {:>14}",
            precision,
            recall,
            f(rmse_of(RepairKind::GroundTruth)),
            f(rmse_of(RepairKind::ImputeMeanMode)),
        );
    }
    drop(sweep);
    let report = phase("report");
    println!("\nUnder GT repair only recall matters (false positives are repaired");
    println!("to their true values anyway); under imperfect repairers low");
    println!("precision adds new damage to clean cells.");
    drop(report);
    conclude("ablation_precision_recall", 17, 0);
}
