//! Figure 3d–e: detector scalability on the Soccer dataset.
//!
//! Runs a detector panel over increasing fractions of the (scaled) Soccer
//! dataset and reports F1 and runtime per fraction — the experiment behind
//! the paper's "ML-based detectors do not scale past ~50k rows" finding.

#![allow(
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "a binary is the report surface: it prints its results and may abort on a broken invariant"
)]

use rein_bench::{conclude, dataset_at, f, header, phase, scale};
use rein_core::DetectorHarness;
use rein_datasets::DatasetId;
use rein_detect::DetectorKind;

const PANEL: [DetectorKind; 8] = [
    DetectorKind::Sd,
    DetectorKind::Iqr,
    DetectorKind::DBoost,
    DetectorKind::Nadeef,
    DetectorKind::Katara,
    DetectorKind::MinK,
    DetectorKind::Raha,
    DetectorKind::Ed2,
];

fn main() {
    let setup = phase("setup");
    let fractions = [0.1, 0.25, 0.5, 0.75, 1.0];
    header("Figure 3d/3e — Soccer scalability (F1 and runtime per data fraction)");
    println!("base scale REIN_SCALE={} of 180228 rows\n", scale());

    let mut f1: Vec<(DetectorKind, Vec<f64>)> = PANEL.iter().map(|&k| (k, Vec::new())).collect();
    let mut rt: Vec<(DetectorKind, Vec<f64>)> = PANEL.iter().map(|&k| (k, Vec::new())).collect();
    let mut rows_per_fraction = Vec::new();
    drop(setup);
    let sweep = phase("sweep");
    for (fi, frac) in fractions.iter().enumerate() {
        let generate = phase("generate");
        let ds = dataset_at(DatasetId::Soccer, scale() * frac, 40 + fi as u64);
        rows_per_fraction.push(ds.dirty.n_rows());
        drop(generate);
        let harness = DetectorHarness::new(&ds, 100, 9);
        for (kind, series) in f1.iter_mut() {
            let run = harness.run(&ds, *kind);
            series.push(run.quality.f1);
            rt.iter_mut()
                .find(|(k, _)| k == kind)
                .expect("same panel")
                .1
                .push(run.runtime.as_secs_f64());
        }
    }
    drop(sweep);

    let _report = phase("report");
    print!("{:<18}", "fraction");
    for (frac, rows) in fractions.iter().zip(&rows_per_fraction) {
        print!("{:>12}", format!("{frac} ({rows})"));
    }
    println!("\n\nF1:");
    for (kind, series) in &f1 {
        print!("{:<18}", kind.name());
        for v in series {
            print!("{:>12}", f(*v));
        }
        println!();
    }
    println!("\nruntime (s):");
    for (kind, series) in &rt {
        print!("{:<18}", kind.name());
        for v in series {
            print!("{:>12}", format!("{v:.3}"));
        }
        println!();
    }
    conclude("fig3_scalability", 9, 100);
}
