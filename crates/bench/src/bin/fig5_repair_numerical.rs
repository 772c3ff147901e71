//! Figure 5: repair RMSE and runtime over the numerical attributes of
//! Smart Factory, Breast Cancer, Bikes and Water.
//!
//! For each (detector, repairer) strategy the harness reports the RMSE
//! between the repaired values and the ground truth over the actually
//! erroneous cells, against the dirty version's RMSE (the red dashed
//! baseline — bars above it mean the "repair" made things worse).

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
    header(&format!("Figure 5 — numerical repair RMSE ({})", ds.info.name));

    let detect = phase("detect");
    let mut detections: Vec<DetectorRun> = ctrl.run_detection(&ds);
    drop(detect);
    detections.retain(|d| d.quality.detected() > 0);
    detections.sort_by(|a, b| b.quality.f1.total_cmp(&a.quality.f1));
    detections.truncate(5);

    let _repair = phase("repair");
    let mut dirty_baseline: Option<f64> = None;
    println!(
        "{:<10} {:<18} {:>10} {:>12} {:>10}",
        "detector", "repairer", "rmse", "vs dirty", "runtime"
    );
    for det in &detections {
        let runs = ctrl.run_repairs(&ds, det);
        let records = ctrl.repair_records(&ds, det.kind, &runs);
        for rec in &records {
            if let Some(cause) = &rec.failure {
                println!("  DEGRADED {}+{} ({cause})", rec.detector, rec.repairer);
                continue;
            }
            let (Some(rmse), Some(dirty)) = (rec.rmse, rec.dirty_rmse) else { continue };
            if rec.repairer == RepairKind::Delete.name() {
                continue;
            }
            dirty_baseline.get_or_insert(dirty);
            let verdict = if rmse < dirty * 0.99 {
                "better"
            } else if rmse > dirty * 1.01 {
                "WORSE"
            } else {
                "same"
            };
            println!(
                "{:<10} {:<18} {:>10} {:>12} {:>9.3}s",
                det.kind.name().chars().take(10).collect::<String>(),
                rec.repairer,
                f(rmse),
                verdict,
                rec.runtime_ms / 1e3,
            );
        }
    }
    if let Some(d) = dirty_baseline {
        println!("\ndirty-version RMSE baseline (red dashed line): {}", f(d));
    }
}

fn main() {
    run_dataset(DatasetId::SmartFactory, 61);
    run_dataset(DatasetId::BreastCancer, 62);
    run_dataset(DatasetId::Bikes, 63);
    run_dataset(DatasetId::Water, 64);
    conclude("fig5_repair_numerical", 61, 100);
}
