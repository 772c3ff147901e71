//! Ablation: ML-supported detectors vs labelling budget.
//!
//! RAHA, ED2 and the metadata-driven method all trade oracle labels for
//! accuracy; this harness sweeps the label budget on the Beers dataset and
//! reports each method's F1 and the labels it actually consumed.

#![allow(
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "a binary is the report surface: it prints its results and may abort on a broken invariant"
)]

use rein_bench::{conclude, dataset, f, header, phase};
use rein_datasets::DatasetId;
use rein_detect::{DetectContext, DetectorKind, KnowledgeBase, Oracle};
use rein_stats::evaluate_detection;

fn main() {
    let setup = phase("setup");
    let ds = dataset(DatasetId::Beers, 13);
    header("Ablation — ML-supported detector F1 vs labelling budget (beers)");
    let budgets = [10usize, 20, 50, 100, 200, 400];
    println!("{:<18} {}", "detector", budgets.map(|b| format!("{b:>8}")).join(""));
    let kb = KnowledgeBase::from_reference(&ds.clean);
    drop(setup);
    let policy = rein_bench::guard_policy();
    let sweep = phase("sweep");
    for kind in [DetectorKind::Raha, DetectorKind::Ed2, DetectorKind::MetadataDriven] {
        print!("{:<18}", kind.name());
        for &budget in &budgets {
            let oracle = Oracle::new(ds.mask.clone());
            let ctx = DetectContext {
                dirty: &ds.dirty,
                fds: &ds.fds,
                dcs: &[],
                kb: Some(&kb),
                key_columns: &ds.key_columns,
                oracle: Some(&oracle),
                label_col: ds.clean.schema().label_index(),
                labeling_budget: budget,
                seed: 5,
            };
            let (outcome, _) = rein_core::detect_with_context(kind, &ctx, &ds.info.name, &policy);
            let mask = outcome
                .unwrap_or_else(|_| rein_data::CellMask::new(ds.dirty.n_rows(), ds.dirty.n_cols()));
            let q = evaluate_detection(&mask, &ds.mask);
            print!("{:>8}", f(q.f1));
        }
        println!();
    }
    drop(sweep);
    let report = phase("report");
    println!("\n(RAHA's per-cluster labelling keeps its budget per column; ED2's");
    println!("active learning and the metadata-driven classifier consume the");
    println!("global budget directly.)");
    drop(report);
    conclude("ablation_budget", 13, 400);
}
