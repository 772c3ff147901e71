//! AdaBoost: SAMME over depth-1 decision stumps for classification and
//! AdaBoost.R2 over shallow trees for regression.

use rand::prelude::*;
use rand::rngs::StdRng;
use rein_data::rng::{derive_seed, weighted_index};

use crate::encode::select_matrix_rows;
use crate::linalg::Matrix;
use crate::model::{Classifier, Regressor};
use crate::tree::{DecisionTreeClassifier, DecisionTreeRegressor, TreeParams};

fn stump_params() -> TreeParams {
    TreeParams { max_depth: 1, min_samples_split: 2, min_samples_leaf: 1, ..Default::default() }
}

/// SAMME AdaBoost classifier over decision stumps.
pub struct AdaBoostClassifier {
    /// Boosting rounds.
    pub n_rounds: usize,
    seed: u64,
    learners: Vec<(DecisionTreeClassifier, f64)>,
    n_classes: usize,
}

impl AdaBoostClassifier {
    /// Builds an AdaBoost classifier; `seed` drives the per-round
    /// weighted resampling.
    pub fn new(n_rounds: usize, seed: u64) -> Self {
        Self { n_rounds, seed, learners: Vec::new(), n_classes: 0 }
    }
}

impl Classifier for AdaBoostClassifier {
    fn fit(&mut self, x: &Matrix, y: &[usize], n_classes: usize) {
        self.n_classes = n_classes.max(2);
        self.learners.clear();
        let n = x.rows();
        if n == 0 {
            return;
        }
        let k = self.n_classes as f64;
        let mut weights = vec![1.0 / n as f64; n];
        for round in 0..self.n_rounds {
            rein_guard::checkpoint(n as u64);
            let mut params = stump_params();
            params.seed = round as u64;
            let mut stump = DecisionTreeClassifier::new(params);
            // Weighted fit by weighted resampling (keeps the tree code
            // weight-free); deterministic per round.
            let mut rng = StdRng::seed_from_u64(derive_seed(self.seed, round as u64));
            let sample: Vec<usize> = (0..n).map(|_| weighted_index(&mut rng, &weights)).collect();
            let xs = select_matrix_rows(x, &sample);
            let ys: Vec<usize> = sample.iter().map(|&i| y[i]).collect();
            stump.fit(&xs, &ys, self.n_classes);

            let preds = stump.predict(x);
            let err: f64 = weights
                .iter()
                .zip(preds.iter().zip(y))
                .filter(|(_, (p, t))| p != t)
                .map(|(w, _)| w)
                .sum();
            let err = err.clamp(1e-10, 1.0);
            if err >= 1.0 - 1.0 / k {
                // Worse than chance: discard and stop.
                break;
            }
            let alpha = ((1.0 - err) / err).ln() + (k - 1.0).ln();
            for (w, (p, t)) in weights.iter_mut().zip(preds.iter().zip(y)) {
                if p != t {
                    *w *= alpha.exp().min(1e12);
                }
            }
            let total: f64 = weights.iter().sum();
            weights.iter_mut().for_each(|w| *w /= total);
            self.learners.push((stump, alpha));
            if err < 1e-8 {
                break; // perfect learner
            }
        }
    }

    fn predict(&self, x: &Matrix) -> Vec<usize> {
        if self.learners.is_empty() {
            return vec![0; x.rows()];
        }
        (0..x.rows())
            .map(|r| {
                let mut scores = vec![0.0; self.n_classes];
                for (stump, alpha) in &self.learners {
                    scores[crate::linalg::argmax(stump.proba_row(x.row(r)))] += alpha;
                }
                crate::linalg::argmax(&scores)
            })
            .collect()
    }
}

/// AdaBoost.R2 regressor over shallow trees.
pub struct AdaBoostRegressor {
    /// Boosting rounds.
    pub n_rounds: usize,
    seed: u64,
    learners: Vec<(DecisionTreeRegressor, f64)>,
}

impl AdaBoostRegressor {
    /// Builds an AdaBoost.R2 regressor.
    pub fn new(n_rounds: usize, seed: u64) -> Self {
        Self { n_rounds, seed, learners: Vec::new() }
    }
}

impl Regressor for AdaBoostRegressor {
    fn fit(&mut self, x: &Matrix, y: &[f64]) {
        self.learners.clear();
        let n = x.rows();
        if n == 0 {
            return;
        }
        let mut weights = vec![1.0 / n as f64; n];
        let mut rng = StdRng::seed_from_u64(self.seed);
        for round in 0..self.n_rounds {
            let sample: Vec<usize> = (0..n).map(|_| weighted_index(&mut rng, &weights)).collect();
            let xs = select_matrix_rows(x, &sample);
            let ys: Vec<f64> = sample.iter().map(|&i| y[i]).collect();
            let mut tree = DecisionTreeRegressor::new(TreeParams {
                max_depth: 4,
                seed: round as u64,
                ..Default::default()
            });
            tree.fit(&xs, &ys);
            let preds = tree.predict(x);
            let abs_err: Vec<f64> = preds.iter().zip(y).map(|(p, t)| (p - t).abs()).collect();
            let max_err = abs_err.iter().copied().fold(0.0, f64::max).max(1e-12);
            let rel: Vec<f64> = abs_err.iter().map(|e| e / max_err).collect();
            let loss: f64 = weights.iter().zip(&rel).map(|(w, l)| w * l).sum();
            if loss >= 0.5 {
                break;
            }
            let beta = loss / (1.0 - loss);
            let alpha = (1.0 / beta.max(1e-12)).ln();
            for (w, l) in weights.iter_mut().zip(&rel) {
                *w *= beta.powf(1.0 - l);
            }
            let total: f64 = weights.iter().sum();
            weights.iter_mut().for_each(|w| *w /= total.max(1e-300));
            self.learners.push((tree, alpha));
            if loss < 1e-8 {
                break;
            }
        }
    }

    fn predict(&self, x: &Matrix) -> Vec<f64> {
        if self.learners.is_empty() {
            return vec![0.0; x.rows()];
        }
        // Weighted median of learner predictions (AdaBoost.R2).
        let all: Vec<Vec<f64>> = self.learners.iter().map(|(t, _)| t.predict(x)).collect();
        (0..x.rows())
            .map(|r| {
                let mut pairs: Vec<(f64, f64)> =
                    self.learners.iter().enumerate().map(|(i, (_, a))| (all[i][r], *a)).collect();
                pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
                let total: f64 = pairs.iter().map(|(_, a)| a).sum();
                let mut acc = 0.0;
                for (p, a) in &pairs {
                    acc += a;
                    if acc >= total / 2.0 {
                        return *p;
                    }
                }
                pairs.last().map_or(0.0, |(p, _)| *p)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{
        blob_classification, linear_regression_data, train_test_accuracy, train_test_rmse,
    };

    #[test]
    fn boosting_learns_blobs() {
        let (x, y) = blob_classification(150, 3, 91);
        let mut m = AdaBoostClassifier::new(40, 7);
        let acc = train_test_accuracy(&mut m, &x, &y, 3);
        assert!(acc > 0.85, "accuracy {acc}");
    }

    #[test]
    fn boosting_beats_single_stump_on_interval_target() {
        // y = 1 on a middle interval: needs two thresholds, so a single
        // stump caps out while boosted stumps compose the interval. (XOR is
        // deliberately not used here — it is not additive-separable, so no
        // stump ensemble can represent it.)
        let mut rows = Vec::new();
        let mut ys = Vec::new();
        for i in 0..240 {
            let v = i as f64 / 240.0;
            rows.push(vec![v]);
            ys.push(usize::from(v > 0.33 && v < 0.66));
        }
        let x = Matrix::from_rows(&rows);
        let mut boost = AdaBoostClassifier::new(60, 7);
        boost.fit(&x, &ys, 2);
        let boost_acc = crate::metrics::accuracy(&ys, &boost.predict(&x));
        let mut stump = DecisionTreeClassifier::new(stump_params());
        stump.fit(&x, &ys, 2);
        let stump_acc = crate::metrics::accuracy(&ys, &stump.predict(&x));
        assert!(boost_acc > stump_acc, "boost {boost_acc} vs stump {stump_acc}");
        assert!(boost_acc > 0.95, "boost accuracy {boost_acc}");
    }

    #[test]
    fn regressor_fits_smooth_target() {
        let (x, y) = linear_regression_data(250, 0.1, 97);
        let mut m = AdaBoostRegressor::new(40, 3);
        let err = train_test_rmse(&mut m, &x, &y);
        assert!(err < 2.0, "rmse {err}");
    }

    #[test]
    fn empty_fit_safe() {
        let mut m = AdaBoostClassifier::new(10, 7);
        m.fit(&Matrix::zeros(0, 2), &[], 2);
        assert_eq!(m.predict(&Matrix::zeros(2, 2)), vec![0, 0]);
    }
}
