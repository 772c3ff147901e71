//! Figure 2: detection accuracy (a,d,f,h,k,n,p,q,r), detector-similarity
//! IoU matrices (b,e,g,i,l,s) and runtimes (c,j,m,o,t).
//!
//! For each dataset the benchmark controller plans the applicable
//! detectors; the report prints, per detector, the number of detected
//! cells split into true/false positives against the red-dashed actual
//! error count, then the pairwise true-positive IoU matrix, then runtimes.
//!
//! Usage: `fig2_detection [dataset ...]` (default: the nine datasets the
//! figure covers).

#![allow(
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "a binary is the report surface: it prints its results and may abort on a broken invariant"
)]

use rein_bench::{conclude, dataset, f, header, phase, secs};
use rein_datasets::DatasetId;
use rein_stats::iou::iou_matrix;

fn main() {
    let setup = phase("setup");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let default = [
        DatasetId::Beers,
        DatasetId::Citation,
        DatasetId::Adult,
        DatasetId::SmartFactory,
        DatasetId::Nasa,
        DatasetId::Bikes,
        DatasetId::Water,
        DatasetId::Power,
        DatasetId::Har,
    ];
    let ids: Vec<DatasetId> = if args.is_empty() {
        default.to_vec()
    } else {
        args.iter()
            .filter_map(|a| {
                let id = DatasetId::from_name(a);
                if id.is_none() {
                    rein_telemetry::info!("unknown dataset {a:?}");
                }
                id
            })
            .collect()
    };
    drop(setup);

    let ctrl = rein_bench::controller(100, 11);
    for (i, id) in ids.iter().enumerate() {
        let generate = phase("generate");
        let ds = dataset(*id, 200 + i as u64);
        drop(generate);
        header(&format!(
            "Figure 2 — {} (actual erroneous cells: {})",
            ds.info.name,
            ds.mask.count()
        ));
        let detect = phase("detect");
        let mut runs = ctrl.run_detection(&ds);
        drop(detect);
        let _report = phase("report");
        // Degraded cells are excluded from the accuracy table (an empty
        // mask would just read as zero recall) and flagged explicitly.
        let degraded: Vec<String> = runs
            .iter()
            .filter_map(|r| r.failure.as_ref().map(|f| format!("{} ({})", r.kind.name(), f.cause)))
            .collect();
        for line in &degraded {
            println!("  DEGRADED {line}");
        }
        // The paper excludes detectors that found nothing.
        runs.retain(|r| r.quality.detected() > 0 && r.failure.is_none());
        runs.sort_by(|a, b| b.quality.f1.total_cmp(&a.quality.f1));

        println!(
            "{:<18} {:>9} {:>9} {:>9} {:>7} {:>7} {:>7}",
            "detector", "detected", "tp", "fp", "P", "R", "F1"
        );
        for run in &runs {
            println!(
                "{:<18} {:>9} {:>9} {:>9} {:>7} {:>7} {:>7}",
                run.kind.name(),
                run.quality.detected(),
                run.quality.true_positives,
                run.quality.false_positives,
                f(run.quality.precision),
                f(run.quality.recall),
                f(run.quality.f1),
            );
        }

        // IoU over true positives (Figures 2b/e/g/i/l/s).
        if runs.len() >= 2 {
            println!("\nIoU (true positives):");
            let named: Vec<(&str, &rein_data::CellMask)> =
                runs.iter().map(|r| (r.kind.name(), &r.mask)).collect();
            let m = iou_matrix(&named, &ds.mask);
            print!("{:<18}", "");
            for r in &runs {
                print!("{:>6}", &r.kind.name()[..r.kind.name().len().min(5)]);
            }
            println!();
            for (ri, run) in runs.iter().enumerate() {
                print!("{:<18}", run.kind.name());
                for v in m[ri].iter().take(runs.len()) {
                    print!("{v:>6.2}");
                }
                println!();
            }
        }

        println!("\nruntime:");
        let mut by_time = runs.iter().collect::<Vec<_>>();
        by_time.sort_by_key(|r| r.runtime);
        for run in by_time {
            let flag = if run.runtime.as_secs_f64() > 60.0 { "  (>1min)" } else { "" };
            println!("  {:<18} {}{}", run.kind.name(), secs(run.runtime), flag);
        }
    }

    conclude("fig2_detection", ctrl.seed, ctrl.label_budget as u64);
}
