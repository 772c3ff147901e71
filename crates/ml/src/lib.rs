//! # rein-ml
//!
//! From-scratch ML substrate replacing scikit-learn / XGBoost / Optuna /
//! Auto-Sklearn / TPOT in the REIN benchmark (Table 2 of the paper):
//!
//! * 12 classifiers, 11 regressors and 6 clustering algorithms behind the
//!   [`model::Classifier`] / [`model::Regressor`] / [`model::Clusterer`]
//!   traits, enumerable via the `*Kind` zoos;
//! * feature [`encode`]-ing from tables (standardisation + one-hot, with
//!   mean imputation at the model boundary);
//! * evaluation [`metrics`] including the silhouette index;
//! * seeded hyperparameter search ([`tune`], the Optuna stand-in) and two
//!   AutoML searchers ([`automl`]).
//!
//! Every stochastic component is a pure function of its seed.

#![allow(
    clippy::needless_range_loop,
    reason = "numeric kernels index several parallel arrays at once; iterator zips would obscure them"
)]

pub mod adaboost;
pub mod affinity;
pub mod automl;
pub mod birch;
pub mod encode;
pub mod forest;
pub mod gbt;
pub mod gmm;
pub mod hierarchical;
pub mod instrument;
pub mod kmeans;
pub mod knn;
pub mod linalg;
pub mod linreg;
pub mod logistic;
pub mod metrics;
pub mod mlp;
pub mod model;
pub mod naive_bayes;
pub mod optics;
pub mod ridge;
pub mod sgd;
pub mod svc;
pub mod tree;
pub mod tune;

#[cfg(test)]
pub(crate) mod testutil;

pub use encode::{Encoder, LabelMap};
pub use linalg::Matrix;
pub use metrics::{classification_report, rmse, silhouette, ClassificationReport};
pub use model::{
    Classifier, ClassifierKind, Clusterer, ClustererKind, Regressor, RegressorKind, NOISE_LABEL,
};

#[cfg(test)]
mod zoo_tests {
    //! Every model in the zoo must fit and predict on a small task.
    use super::*;
    use crate::testutil::{blob_classification, linear_regression_data};

    #[test]
    fn every_classifier_beats_chance_on_blobs() {
        let (x, y) = blob_classification(120, 3, 301);
        for kind in ClassifierKind::ALL {
            let mut m = kind.build(1);
            m.fit(&x, &y, 3);
            let acc = metrics::accuracy(&y, &m.predict(&x));
            assert!(acc > 0.5, "{} training accuracy only {acc}", kind.name());
        }
    }

    #[test]
    fn every_regressor_beats_mean_baseline() {
        let (x, y) = linear_regression_data(200, 0.2, 302);
        let mean = y.iter().sum::<f64>() / y.len() as f64;
        let baseline = metrics::rmse(&y, &vec![mean; y.len()]);
        for kind in RegressorKind::ALL {
            let mut m = kind.build(1);
            m.fit(&x, &y);
            let err = metrics::rmse(&y, &m.predict(&x));
            assert!(err < baseline, "{} rmse {err} vs baseline {baseline}", kind.name());
        }
    }

    #[test]
    fn every_clusterer_labels_every_point() {
        let (x, _) = blob_classification(60, 3, 303);
        for kind in ClustererKind::ALL {
            let mut c = kind.build(3, 1);
            let labels = c.fit_predict(&x);
            assert_eq!(labels.len(), 60, "{}", kind.name());
        }
    }

    #[test]
    fn every_classifier_proba_rows_are_valid() {
        let (x, y) = blob_classification(80, 2, 304);
        for kind in ClassifierKind::ALL {
            let mut m = kind.build(1);
            m.fit(&x, &y, 2);
            let p = m.predict_proba(&x, 2);
            for r in 0..p.rows() {
                let s: f64 = p.row(r).iter().sum();
                assert!(
                    (0.0..=1.0 + 1e-9).contains(&s) || (s - 1.0).abs() < 1e-6,
                    "{} proba row sums to {s}",
                    kind.name()
                );
                assert!(p.row(r).iter().all(|&v| v >= -1e-12), "{} negative proba", kind.name());
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn silhouette_is_bounded(
            points in prop::collection::vec((0.0f64..10.0, 0.0f64..10.0), 6..40),
            k in 2usize..4,
        ) {
            let rows: Vec<Vec<f64>> = points.iter().map(|&(a, b)| vec![a, b]).collect();
            let x = Matrix::from_rows(&rows);
            let mut km = kmeans::KMeans::new(k, 1);
            let labels = km.fit_predict(&x);
            let s = metrics::silhouette(&x, &labels);
            if !s.is_nan() {
                prop_assert!((-1.0..=1.0).contains(&s), "s = {}", s);
            }
        }

        #[test]
        fn kmeans_labels_bounded(
            points in prop::collection::vec((0.0f64..10.0, 0.0f64..10.0), 3..40),
            k in 1usize..5,
        ) {
            let rows: Vec<Vec<f64>> = points.iter().map(|&(a, b)| vec![a, b]).collect();
            let x = Matrix::from_rows(&rows);
            let mut km = kmeans::KMeans::new(k, 2);
            let labels = km.fit_predict(&x);
            prop_assert_eq!(labels.len(), x.rows());
            prop_assert!(labels.iter().all(|&l| l < k.min(x.rows())));
        }

        #[test]
        fn tree_predictions_are_within_target_range(
            ys in prop::collection::vec(-100.0f64..100.0, 5..50),
        ) {
            let rows: Vec<Vec<f64>> = (0..ys.len()).map(|i| vec![i as f64]).collect();
            let x = Matrix::from_rows(&rows);
            let mut t = tree::DecisionTreeRegressor::new(tree::TreeParams::default());
            t.fit(&x, &ys);
            let lo = ys.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = ys.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            for p in t.predict(&x) {
                prop_assert!(p >= lo - 1e-9 && p <= hi + 1e-9);
            }
        }

        #[test]
        fn classification_report_bounded(
            pairs in prop::collection::vec((0usize..4, 0usize..4), 1..60),
        ) {
            let truth: Vec<usize> = pairs.iter().map(|p| p.0).collect();
            let pred: Vec<usize> = pairs.iter().map(|p| p.1).collect();
            let r = metrics::classification_report(&truth, &pred, 4);
            for v in [r.precision, r.recall, r.f1, r.accuracy] {
                prop_assert!((0.0..=1.0).contains(&v));
            }
        }
    }
}
