//! Figure 4: repair accuracy and runtime over the categorical attributes
//! of the Beers and Breast Cancer datasets.
//!
//! Every planned detector feeds every planned generic repairer; each
//! cleaning strategy reports its categorical repair precision/recall/F1
//! (the bubble plot of the paper, with bubbles above F1 0.6 highlighted)
//! and the repairers' runtimes.

#![allow(
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "a binary is the report surface: it prints its results and may abort on a broken invariant"
)]

use rein_bench::{conclude, dataset, f, header, phase};
use rein_core::DetectorRun;
use rein_datasets::DatasetId;
use rein_repair::RepairKind;

fn run_dataset(id: DatasetId, seed: u64) {
    let generate = phase("generate");
    let ds = dataset(id, seed);
    drop(generate);
    let ctrl = rein_bench::controller(100, seed);
    header(&format!("Figure 4 — categorical repair ({})", ds.info.name));
    let detect = phase("detect");
    let mut detections: Vec<DetectorRun> = ctrl.run_detection(&ds);
    drop(detect);
    detections.retain(|d| d.quality.detected() > 0);
    detections.sort_by(|a, b| b.quality.f1.total_cmp(&a.quality.f1));
    detections.truncate(6); // figure shows the interesting strategies

    let _repair = phase("repair");
    println!(
        "{:<10} {:<18} {:>7} {:>7} {:>7} {:>10}",
        "detector", "repairer", "P", "R", "F1", "runtime"
    );
    let mut repair_times: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
    for det in &detections {
        let runs = ctrl.run_repairs(&ds, det);
        let records = ctrl.repair_records(&ds, det.kind, &runs);
        for rec in &records {
            if let Some(cause) = &rec.failure {
                println!("  DEGRADED {}+{} ({cause})", rec.detector, rec.repairer);
                continue;
            }
            if rec.repairer == RepairKind::Delete.name() {
                continue; // no cell-wise accuracy for row deletion
            }
            let Some(f1) = rec.cat_f1 else { continue };
            let mark = if f1 > 0.6 { " *" } else { "" };
            println!(
                "{:<10} {:<18} {:>7} {:>7} {:>7} {:>9.3}s{}",
                det.kind.name().chars().take(10).collect::<String>(),
                rec.repairer,
                rein_bench::fo(rec.cat_precision),
                rein_bench::fo(rec.cat_recall),
                f(f1),
                rec.runtime_ms / 1e3,
                mark,
            );
            repair_times
                .entry(match rec.repairer.as_str() {
                    s if s == RepairKind::Baran.name() => "baran",
                    s if s == RepairKind::HoloClean.name() => "holoclean",
                    s if s == RepairKind::MissMix.name() => "miss_mix",
                    s if s == RepairKind::DataWigMix.name() => "datawig_mix",
                    s if s == RepairKind::ImputeMeanMode.name() => "impute_mean_mode",
                    s if s == RepairKind::GroundTruth.name() => "ground_truth",
                    s if s == RepairKind::OpenRefine.name() => "openrefine",
                    _ => "other",
                })
                .or_default()
                .push(rec.runtime_ms / 1e3);
        }
    }

    println!("\nrepairer mean runtime (s):");
    for (name, times) in &repair_times {
        let mean = times.iter().sum::<f64>() / times.len().max(1) as f64;
        let std = {
            let v =
                times.iter().map(|t| (t - mean).powi(2)).sum::<f64>() / times.len().max(1) as f64;
            v.sqrt()
        };
        println!("  {:<18} {:>8.3} ± {:.3}", name, mean, std);
    }
    println!("\n(* = strategies with repair F1 above 0.6, the coloured bubbles)");
}

fn main() {
    run_dataset(DatasetId::Beers, 51);
    run_dataset(DatasetId::BreastCancer, 52);
    conclude("fig4_repair_categorical", 51, 100);
}
