//! Figure 7: accuracy of ML models trained on different data versions in
//! different scenarios — F1 for classification datasets, RMSE for
//! regression datasets, silhouette for clustering datasets — including
//! the Wilcoxon A/B markers between S1 and S4 and the S2-vs-S3
//! serve-clean experiment (Figures 7n/7o).

#![allow(
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "a binary is the report surface: it prints its results and may abort on a broken invariant"
)]

use rein_bench::{conclude, dataset, f, header, phase, repeats};
use rein_core::{
    eval_classifier, eval_clusterer, eval_regressor, run_repair, CleaningStrategy, Scenario,
    VersionTable,
};
use rein_data::rng::derive_seed;
use rein_datasets::{DatasetId, GeneratedDataset};
use rein_detect::DetectorKind;
use rein_ml::model::{ClassifierKind, ClustererKind, RegressorKind};
use rein_repair::RepairKind;
use rein_stats::{mean_std, wilcoxon_signed_rank};

const REPAIRERS: [RepairKind; 5] = [
    RepairKind::GroundTruth,
    RepairKind::Delete,
    RepairKind::ImputeMeanMode,
    RepairKind::MissMix,
    RepairKind::Baran,
];

/// Builds the evaluated data versions: the dirty table ("D0") plus one
/// repaired version per (detector, repairer) strategy.
fn versions(
    ds: &GeneratedDataset,
    detectors: &[DetectorKind],
    seed: u64,
) -> Vec<(String, VersionTable)> {
    let ctrl = rein_bench::controller(100, seed);
    let mut out = vec![("D0".to_string(), VersionTable::identity(ds.dirty.clone()))];
    for &det_kind in detectors {
        let harness = rein_core::DetectorHarness::new(ds, 100, seed);
        let det = harness.run(ds, det_kind);
        if det.quality.detected() == 0 {
            continue;
        }
        for rep_kind in REPAIRERS {
            let strategy = CleaningStrategy { detector: det_kind, repairer: rep_kind };
            let run =
                run_repair(ds, &det.mask, rep_kind, derive_seed(seed, rep_kind.index() as u64));
            if let Some(v) = run.version {
                if v.table.n_rows() >= 20 {
                    out.push((strategy.label(), v));
                }
            }
        }
    }
    let _ = ctrl;
    out
}

fn classification(id: DatasetId, detectors: &[DetectorKind], models: &[ClassifierKind], seed: u64) {
    let ds = dataset(id, seed);
    header(&format!("Figure 7 — classification F1 ({})", ds.info.name));
    let versions = versions(&ds, detectors, seed);
    let reps = repeats();
    println!(
        "{:<8} {:<8} {:>12} {:>12} {:>6}",
        "model", "version", "S1 mean±std", "S4 mean±std", "A/B"
    );
    for &model in models {
        for (label, version) in &versions {
            let s1 = eval_classifier(Scenario::S1, &ds, version, model, reps, seed);
            let s4 = eval_classifier(Scenario::S4, &ds, version, model, reps, seed);
            let marker = match wilcoxon_signed_rank(&s1, &s4) {
                Ok(r) if r.rejects_null(0.05) => "■", // reject H0: different
                Ok(_) => "□",
                Err(_) => "=",
            };
            let m1 = mean_std(&s1);
            let m4 = mean_std(&s4);
            println!(
                "{:<8} {:<8} {:>6}±{:<5} {:>6}±{:<5} {:>6}",
                model.name(),
                label,
                f(m1.mean),
                f(if m1.std.is_nan() { 0.0 } else { m1.std }),
                f(m4.mean),
                f(if m4.std.is_nan() { 0.0 } else { m4.std }),
                marker,
            );
        }
    }
    println!("(■ = Wilcoxon rejects H0 at α=0.05: S1 and S4 genuinely differ)");
}

fn regression(id: DatasetId, detectors: &[DetectorKind], models: &[RegressorKind], seed: u64) {
    let ds = dataset(id, seed);
    header(&format!("Figure 7 — regression RMSE ({})", ds.info.name));
    let versions = versions(&ds, detectors, seed);
    let reps = repeats();
    println!("{:<8} {:<8} {:>12} {:>12}", "model", "version", "S1 RMSE", "S4 RMSE");
    for &model in models {
        for (label, version) in &versions {
            let s1 = eval_regressor(Scenario::S1, &ds, version, model, reps, seed);
            let s4 = eval_regressor(Scenario::S4, &ds, version, model, reps, seed);
            println!(
                "{:<8} {:<8} {:>12} {:>12}",
                model.name(),
                label,
                f(mean_std(&s1).mean),
                f(mean_std(&s4).mean),
            );
        }
    }
    // Figures 7n/7o: S2 vs S3 (train dirty / serve clean and vice versa).
    println!("\nS2 vs S3 (serve-clean effect, Figures 7n/7o):");
    let version = VersionTable::identity(ds.dirty.clone());
    for model in [RegressorKind::Ransac, RegressorKind::BayesRidge] {
        let s2 = eval_regressor(Scenario::S2, &ds, &version, model, reps, seed);
        let s3 = eval_regressor(Scenario::S3, &ds, &version, model, reps, seed);
        println!(
            "  {:<8} S2 (train dirty, test GT) {}  |  S3 (train GT, test dirty) {}",
            model.name(),
            f(mean_std(&s2).mean),
            f(mean_std(&s3).mean),
        );
    }
}

fn clustering(id: DatasetId, detectors: &[DetectorKind], models: &[ClustererKind], seed: u64) {
    let ds = dataset(id, seed);
    header(&format!("Figure 7 — clustering silhouette ({})", ds.info.name));
    let versions = versions(&ds, detectors, seed);
    println!("{:<8} {:<8} {:>12} {:>12}", "model", "version", "S1 (version)", "S4 (GT)");
    for &model in models {
        let s4 = eval_clusterer(&ds.clean, model, 6, seed);
        for (label, version) in &versions {
            let s1 = eval_clusterer(&version.table, model, 6, seed);
            println!("{:<8} {:<8} {:>12} {:>12}", model.name(), label, f(s1), f(s4));
        }
    }
}

fn main() {
    let cls_models = [
        ClassifierKind::Mlp,
        ClassifierKind::DecisionTree,
        ClassifierKind::RandomForest,
        ClassifierKind::Logit,
        ClassifierKind::XgBoost,
        ClassifierKind::GaussianNb,
    ];
    let reg_models = [
        RegressorKind::XgBoost,
        RegressorKind::DecisionTree,
        RegressorKind::Knn,
        RegressorKind::Ridge,
    ];
    let clu_models = [
        ClustererKind::KMeans,
        ClustererKind::Birch,
        ClustererKind::Gmm,
        ClustererKind::Hierarchical,
        ClustererKind::Optics,
    ];

    let p = phase("classification:beers");
    classification(
        DatasetId::Beers,
        &[DetectorKind::MaxEntropy, DetectorKind::Raha, DetectorKind::Nadeef],
        &cls_models,
        81,
    );
    drop(p);
    let p = phase("classification:breast_cancer");
    classification(
        DatasetId::BreastCancer,
        &[DetectorKind::MaxEntropy, DetectorKind::Ed2],
        &cls_models,
        82,
    );
    drop(p);
    let p = phase("classification:citation");
    classification(
        DatasetId::Citation,
        &[DetectorKind::KeyCollision, DetectorKind::MaxEntropy],
        &cls_models[..4],
        83,
    );
    drop(p);
    let p = phase("regression:nasa");
    regression(DatasetId::Nasa, &[DetectorKind::MaxEntropy, DetectorKind::DBoost], &reg_models, 84);
    drop(p);
    let p = phase("regression:bikes");
    regression(DatasetId::Bikes, &[DetectorKind::Raha, DetectorKind::Nadeef], &reg_models, 85);
    drop(p);
    let p = phase("clustering:water");
    clustering(DatasetId::Water, &[DetectorKind::Raha, DetectorKind::MaxEntropy], &clu_models, 86);
    drop(p);
    let p = phase("clustering:power");
    clustering(DatasetId::Power, &[DetectorKind::MaxEntropy], &clu_models, 87);
    drop(p);
    conclude("fig7_modeling", 81, 100);
}
