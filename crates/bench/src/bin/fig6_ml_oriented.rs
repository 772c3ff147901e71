//! Figure 6: accuracy of the ML-oriented repair methods (ActiveClean,
//! CPClean, BoostClean) on Adult and Breast Cancer.
//!
//! Each method's model is compared across scenarios: S1 (a reference
//! model trained and tested on the dirty data), S4 (trained and tested on
//! the ground truth) and S5 (the method's own output model tested on
//! dirty data).

#![allow(
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "a binary is the report surface: it prints its results and may abort on a broken invariant"
)]

use rein_bench::{conclude, dataset, f, header, phase, repeats};
use rein_core::{eval_classifier, eval_pipeline_s5, run_repair, Scenario, VersionTable};
use rein_data::rng::derive_seed;
use rein_datasets::DatasetId;
use rein_ml::model::ClassifierKind;
use rein_repair::RepairKind;
use rein_stats::mean_std;

fn run_dataset(id: DatasetId, seed: u64) {
    let generate = phase("generate");
    let ds = dataset(id, seed);
    drop(generate);
    header(&format!("Figure 6 — ML-oriented repair methods ({})", ds.info.name));
    let version = VersionTable::identity(ds.dirty.clone());
    let reps = repeats();

    // Reference scenario scores with a logistic model (ActiveClean's
    // convex-model family).
    let scenarios = phase("reference-scenarios");
    let s1 = eval_classifier(Scenario::S1, &ds, &version, ClassifierKind::Logit, reps, seed);
    let s4 = eval_classifier(Scenario::S4, &ds, &version, ClassifierKind::Logit, reps, seed);
    drop(scenarios);

    let _methods = phase("methods");
    println!("{:<14} {:>10} {:>10} {:>10}", "method", "S1", "S4", "S5");
    for kind in [RepairKind::ActiveClean, RepairKind::CpClean, RepairKind::BoostClean] {
        let s5: Vec<f64> = (0..reps)
            .map(|r| {
                let run = run_repair(&ds, &ds.mask, kind, derive_seed(seed, r as u64));
                let p = run.pipeline.expect("ML-oriented methods output a model");
                eval_pipeline_s5(&ds, &p, derive_seed(seed, 100 + r as u64))
            })
            .collect();
        println!(
            "{:<14} {:>10} {:>10} {:>10}",
            kind.name(),
            f(mean_std(&s1).mean),
            f(mean_std(&s4).mean),
            f(mean_std(&s5).mean),
        );
    }
}

fn main() {
    run_dataset(DatasetId::Adult, 71);
    run_dataset(DatasetId::BreastCancer, 72);
    conclude("fig6_ml_oriented", 71, 0);
}
