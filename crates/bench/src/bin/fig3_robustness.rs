//! Figure 3a–c: detection robustness.
//!
//! (a, b) F1 of a panel of detectors while the injected *error rate*
//! sweeps upward on the Adult and Power datasets (outliers + missing
//! values at outlier degree 4, as §6.2.1 specifies);
//! (c) F1 while the *outlier degree* sweeps on Smart Factory at a fixed
//! 30% error rate.

#![allow(
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "a binary is the report surface: it prints its results and may abort on a broken invariant"
)]

use rein_bench::{conclude, dataset, f, header, phase};
use rein_core::{DetectorHarness, VersionTable};
use rein_data::diff::diff_mask;
use rein_datasets::{DatasetId, GeneratedDataset};
use rein_detect::DetectorKind;
use rein_errors::compose::{compose, ErrorSpec};

/// Re-corrupts a dataset's clean table with outliers + missing values at
/// the given rate and degree (the robustness experiment's injection).
fn reinject(ds: &GeneratedDataset, rate: f64, degree: f64, seed: u64) -> GeneratedDataset {
    let numeric = ds.clean.schema().numeric_indices();
    let specs = [
        ErrorSpec::Outliers { cols: numeric.clone(), rate: rate / 2.0, degree },
        ErrorSpec::ExplicitMissing { cols: numeric, rate: rate / 2.0 },
    ];
    let dirty = compose(&ds.clean, &specs, seed);
    GeneratedDataset {
        info: ds.info.clone(),
        clean: ds.clean.clone(),
        mask: diff_mask(&ds.clean, &dirty.dirty),
        dirty: dirty.dirty,
        duplicate_pairs: vec![],
        fds: ds.fds.clone(),
        key_columns: ds.key_columns.clone(),
    }
}

const PANEL: [DetectorKind; 7] = [
    DetectorKind::Raha,
    DetectorKind::Ed2,
    DetectorKind::MinK,
    DetectorKind::MaxEntropy,
    DetectorKind::DBoost,
    DetectorKind::Sd,
    DetectorKind::MetadataDriven,
];

fn sweep_error_rate(id: DatasetId, seed: u64) {
    let setup = phase("setup");
    let base = dataset(id, seed);
    header(&format!("Figure 3 — F1 vs error rate ({})", base.info.name));
    let rates = [0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5];
    print!("{:<18}", "detector");
    for r in rates {
        print!("{:>8}", format!("{r}"));
    }
    println!();
    drop(setup);
    let sweep = phase(&format!("sweep:error-rate-{}", base.info.name));
    let mut results: Vec<(DetectorKind, Vec<f64>)> =
        PANEL.iter().map(|&k| (k, Vec::new())).collect();
    for (ri, &rate) in rates.iter().enumerate() {
        let ds = reinject(&base, rate, 4.0, seed * 100 + ri as u64);
        let harness = DetectorHarness::new(&ds, 100, seed);
        for (kind, series) in results.iter_mut() {
            let run = harness.run(&ds, *kind);
            series.push(run.quality.f1);
        }
    }
    drop(sweep);
    let _report = phase("report");
    for (kind, series) in &results {
        print!("{:<18}", kind.name());
        for v in series {
            print!("{:>8}", f(*v));
        }
        println!();
    }
    // Suppress the unused import lint for VersionTable on some cfgs.
    let _ = VersionTable::identity;
}

fn sweep_outlier_degree(seed: u64) {
    let setup = phase("setup");
    let base = dataset(DatasetId::SmartFactory, seed);
    header("Figure 3c — F1 vs outlier degree (smart_factory, rate 0.3)");
    let degrees = [0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0];
    print!("{:<18}", "detector");
    for d in degrees {
        print!("{:>8}", format!("{d}"));
    }
    println!();
    drop(setup);
    let sweep = phase("sweep:outlier-degree");
    let panel: Vec<DetectorKind> = PANEL
        .iter()
        .copied()
        .chain([DetectorKind::Iqr, DetectorKind::IsolationForest, DetectorKind::MvDetector])
        .collect();
    let mut results: Vec<(DetectorKind, Vec<f64>)> =
        panel.iter().map(|&k| (k, Vec::new())).collect();
    for (di, &degree) in degrees.iter().enumerate() {
        let numeric = base.clean.schema().numeric_indices();
        let specs = [ErrorSpec::Outliers { cols: numeric, rate: 0.3, degree }];
        let dirty = compose(&base.clean, &specs, seed * 31 + di as u64);
        let ds = GeneratedDataset {
            info: base.info.clone(),
            clean: base.clean.clone(),
            mask: diff_mask(&base.clean, &dirty.dirty),
            dirty: dirty.dirty,
            duplicate_pairs: vec![],
            fds: base.fds.clone(),
            key_columns: base.key_columns.clone(),
        };
        let harness = DetectorHarness::new(&ds, 100, seed);
        for (kind, series) in results.iter_mut() {
            series.push(harness.run(&ds, *kind).quality.f1);
        }
    }
    drop(sweep);
    let _report = phase("report");
    for (kind, series) in &results {
        print!("{:<18}", kind.name());
        for v in series {
            print!("{:>8}", f(*v));
        }
        println!();
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--outlier-degree") {
        sweep_outlier_degree(7);
        conclude("fig3_robustness", 7, 100);
    }
    sweep_error_rate(DatasetId::Adult, 3);
    sweep_error_rate(DatasetId::Power, 5);
    sweep_outlier_degree(7);
    conclude("fig3_robustness", 7, 100);
}
