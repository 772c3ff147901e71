//! Ablation: default hyperparameters vs seeded search (the Optuna
//! substitute of `rein_ml::tune`).
//!
//! The paper tunes every non-AutoML model with Optuna; this harness shows
//! the tuning machinery at work — a coarse-to-fine random search over the
//! gradient-boosting and k-NN hyperparameters, scored by holdout accuracy
//! on the Beers classification task.

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
use rein_ml::encode::{select_matrix_rows, Encoder, LabelMap};
use rein_ml::gbt::{GbtParams, GradientBoostedClassifier};
use rein_ml::knn::KnnClassifier;
use rein_ml::metrics::accuracy;
use rein_ml::model::Classifier;
use rein_ml::tune::{search, ParamSpace};

fn main() {
    let setup = phase("setup");
    let ds = dataset(DatasetId::Beers, 31);
    let label = ds.clean.schema().label_index().unwrap();
    let features = ds.clean.schema().feature_indices();
    let encoder = Encoder::fit(&ds.clean, &features);
    let labels = LabelMap::fit([&ds.clean], label);
    let (rows, y) = labels.encode(&ds.clean, label);
    let x = select_matrix_rows(&encoder.transform(&ds.clean), &rows);
    let split = rein_data::split::train_test_indices(x.rows(), 0.3, 5);
    let xtr = select_matrix_rows(&x, &split.train);
    let ytr: Vec<usize> = split.train.iter().map(|&i| y[i]).collect();
    let xte = select_matrix_rows(&x, &split.test);
    let yte: Vec<usize> = split.test.iter().map(|&i| y[i]).collect();
    let n_classes = labels.n_classes();

    header("Ablation — default vs tuned hyperparameters (beers, holdout accuracy)");
    drop(setup);

    // Gradient-boosted trees.
    let tune_xgb = phase("tune:xgb");
    let default_acc = {
        let mut m = GradientBoostedClassifier::new(GbtParams::default());
        m.fit(&xtr, &ytr, n_classes);
        accuracy(&yte, &m.predict(&xte))
    };
    let space =
        ParamSpace::new().int("rounds", 5, 80).float("lr", 0.02, 0.5, true).int("depth", 2, 5);
    let result = search(&space, 20, 7, |s| {
        let mut m = GradientBoostedClassifier::new(GbtParams {
            n_rounds: s["rounds"].as_i64() as usize,
            learning_rate: s["lr"].as_f64(),
            max_depth: s["depth"].as_i64() as usize,
        });
        m.fit(&xtr, &ytr, n_classes);
        accuracy(&yte, &m.predict(&xte))
    });
    println!(
        "XGB   default {}   tuned {}   (rounds={}, lr={:.3}, depth={})",
        f(default_acc),
        f(result.best_score),
        result.best_params["rounds"].as_i64(),
        result.best_params["lr"].as_f64(),
        result.best_params["depth"].as_i64(),
    );
    drop(tune_xgb);

    // k-NN.
    let tune_knn = phase("tune:knn");
    let default_acc = {
        let mut m = KnnClassifier::new(5);
        m.fit(&xtr, &ytr, n_classes);
        accuracy(&yte, &m.predict(&xte))
    };
    let space = ParamSpace::new().int("k", 1, 25);
    let result = search(&space, 15, 9, |s| {
        let mut m = KnnClassifier::new(s["k"].as_i64() as usize);
        m.fit(&xtr, &ytr, n_classes);
        accuracy(&yte, &m.predict(&xte))
    });
    println!(
        "KNN   default {}   tuned {}   (k={})",
        f(default_acc),
        f(result.best_score),
        result.best_params["k"].as_i64(),
    );
    drop(tune_knn);
    println!("\n(search: 60% uniform exploration, then refinement around the incumbent)");
    conclude("ablation_tuning", 31, 0);
}
