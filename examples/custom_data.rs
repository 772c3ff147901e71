//! Bringing your own data: parse a CSV, discover functional dependencies,
//! inject controlled errors (to get a ground truth for evaluation), then
//! detect and repair with rule-based tools — the workflow for extending
//! REIN with a new dataset.
//!
//! Run with: `cargo run --example custom_data`

#![allow(
    clippy::print_stdout,
    clippy::expect_used,
    reason = "an example narrates its results on stdout and stops at the first broken assumption"
)]

use rein::constraints::{discover_fds, DiscoveryConfig};
use rein::data::{csv, diff::diff_mask};
use rein::detect::{DetectContext, DetectorKind};
use rein::errors::compose::{compose, ErrorSpec};
use rein::repair::{RepairContext, RepairKind, RepairOutcome};
use rein::stats::evaluate_detection;

const RAW: &str = "\
order_id,zip,city,amount
1001,10115,Berlin,23.5
1002,80331,Munich,11.0
1003,10115,Berlin,42.0
1004,20095,Hamburg,7.25
1005,80331,Munich,18.75
1006,10115,Berlin,31.0
1007,20095,Hamburg,12.5
1008,80331,Munich,27.0
1009,10115,Berlin,16.25
1010,20095,Hamburg,44.0
1011,80331,Munich,9.5
1012,10115,Berlin,21.0
1013,20095,Hamburg,33.25
1014,80331,Munich,15.0
1015,10115,Berlin,28.5
";

fn main() {
    // 1. Parse the CSV (types are inferred per column).
    let clean = csv::read_str(RAW).expect("valid csv");
    println!("parsed {} rows × {} columns", clean.n_rows(), clean.n_cols());

    // 2. Discover functional dependencies to use as cleaning signals.
    let fds = discover_fds(&clean, &DiscoveryConfig::default());
    println!("discovered FDs:");
    for fd in &fds {
        println!("  {}", fd.describe(&clean));
    }

    // 3. Inject errors with a known ground truth: FD violations on the
    //    city column plus missing amounts.
    let zip_to_city = fds
        .iter()
        .find(|f| f.lhs == vec![1] && f.rhs == 2)
        .cloned()
        .expect("zip -> city should be discovered");
    let dirty = compose(
        &clean,
        &[
            ErrorSpec::FdViolations { fd: zip_to_city.clone(), rate: 0.3 },
            ErrorSpec::ExplicitMissing { cols: vec![3], rate: 0.2 },
        ],
        7,
    );
    println!(
        "\ninjected {} erroneous cells ({:.1}% of cells)",
        dirty.mask.count(),
        100.0 * dirty.error_rate()
    );

    // 4. Detect with NADEEF (rule + pattern violations) and the MV scan.
    let ctx = DetectContext { fds: &fds, ..DetectContext::bare(&dirty.dirty) };
    let nadeef = DetectorKind::Nadeef.build().detect(&ctx);
    let mvd = DetectorKind::MvDetector.build().detect(&ctx);
    let combined = nadeef.union(&mvd);
    let quality = evaluate_detection(&combined, &dirty.mask);
    println!(
        "nadeef+mvd: {} detections, precision {:.2}, recall {:.2}",
        combined.count(),
        quality.precision,
        quality.recall
    );

    // 5. Repair with HoloClean-style inference and verify against truth.
    let rctx = RepairContext { fds: &fds, ..RepairContext::new(&dirty.dirty, &combined) };
    let out = RepairKind::HoloClean.build().repair(&rctx);
    if let RepairOutcome::Repaired { table, .. } = out {
        let remaining = diff_mask(&clean, &table).count();
        println!(
            "after repair: {} cells still differ from the truth (was {})",
            remaining,
            dirty.mask.count()
        );
        println!("\nResidual errors come from detection false positives (the");
        println!("city->zip rule also flags clean zips) and rows where the two");
        println!("inverse FDs give symmetric evidence — the paper's finding that");
        println!("detection *precision* drives repair quality.");
    }
}
