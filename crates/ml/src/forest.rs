//! Random forests: bagged CART trees with √d feature subsampling, trained
//! in parallel through [`rein_guard::fan_out`], so a guarded fit's budget
//! sees every tree on whichever pool thread grows it.

use rein_data::rng::derive_seed;
use rein_data::split::bootstrap_indices;

use crate::encode::select_matrix_rows;
use crate::linalg::Matrix;
use crate::model::{Classifier, Regressor};
use crate::tree::{DecisionTreeClassifier, DecisionTreeRegressor, TreeParams};

/// Forest hyperparameters.
#[derive(Debug, Clone)]
pub struct ForestParams {
    /// Number of trees.
    pub n_trees: usize,
    /// Per-tree growth limits (feature subsampling is set automatically to
    /// √d when `max_features` is `None`).
    pub tree: TreeParams,
}

impl Default for ForestParams {
    fn default() -> Self {
        Self { n_trees: 40, tree: TreeParams::default() }
    }
}

fn tree_params_for(d: usize, base: &TreeParams, seed: u64, index: usize) -> TreeParams {
    let mut p = base.clone();
    if p.max_features.is_none() {
        p.max_features = Some(((d as f64).sqrt().round() as usize).max(1));
    }
    p.seed = derive_seed(seed, index as u64);
    p
}

/// Random forest classifier (probability averaging).
pub struct RandomForestClassifier {
    params: ForestParams,
    seed: u64,
    trees: Vec<DecisionTreeClassifier>,
    n_classes: usize,
}

impl RandomForestClassifier {
    /// Builds an (unfitted) forest.
    pub fn new(params: ForestParams, seed: u64) -> Self {
        Self { params, seed, trees: Vec::new(), n_classes: 0 }
    }
}

impl Classifier for RandomForestClassifier {
    fn fit(&mut self, x: &Matrix, y: &[usize], n_classes: usize) {
        self.n_classes = n_classes.max(1);
        if x.rows() == 0 {
            self.trees.clear();
            return;
        }
        let seed = self.seed;
        let params = &self.params;
        self.trees = rein_guard::fan_out((0..params.n_trees).collect(), |i| {
            let boot = bootstrap_indices(x.rows(), x.rows(), derive_seed(seed, 10_000 + i as u64));
            let xb = select_matrix_rows(x, &boot);
            let yb: Vec<usize> = boot.iter().map(|&r| y[r]).collect();
            let mut t =
                DecisionTreeClassifier::new(tree_params_for(x.cols(), &params.tree, seed, i));
            t.fit(&xb, &yb, n_classes);
            t
        });
    }

    fn predict(&self, x: &Matrix) -> Vec<usize> {
        let p = self.predict_proba(x, self.n_classes.max(1));
        (0..x.rows()).map(|r| crate::linalg::argmax(p.row(r))).collect()
    }

    fn predict_proba(&self, x: &Matrix, n_classes: usize) -> Matrix {
        let mut out = Matrix::zeros(x.rows(), n_classes);
        if self.trees.is_empty() {
            return out;
        }
        for t in &self.trees {
            for r in 0..x.rows() {
                for (o, &v) in out.row_mut(r).iter_mut().zip(t.proba_row(x.row(r))) {
                    *o += v;
                }
            }
        }
        let k = self.trees.len() as f64;
        for r in 0..x.rows() {
            for v in out.row_mut(r) {
                *v /= k;
            }
        }
        out
    }
}

/// Random forest regressor (mean of tree predictions).
pub struct RandomForestRegressor {
    params: ForestParams,
    seed: u64,
    trees: Vec<DecisionTreeRegressor>,
}

impl RandomForestRegressor {
    /// Builds an (unfitted) forest regressor.
    pub fn new(params: ForestParams, seed: u64) -> Self {
        Self { params, seed, trees: Vec::new() }
    }
}

impl Regressor for RandomForestRegressor {
    fn fit(&mut self, x: &Matrix, y: &[f64]) {
        if x.rows() == 0 {
            self.trees.clear();
            return;
        }
        let seed = self.seed;
        let params = &self.params;
        self.trees = rein_guard::fan_out((0..params.n_trees).collect(), |i| {
            let boot = bootstrap_indices(x.rows(), x.rows(), derive_seed(seed, 20_000 + i as u64));
            let xb = select_matrix_rows(x, &boot);
            let yb: Vec<f64> = boot.iter().map(|&r| y[r]).collect();
            let mut t =
                DecisionTreeRegressor::new(tree_params_for(x.cols(), &params.tree, seed, i));
            t.fit(&xb, &yb);
            t
        });
    }

    fn predict(&self, x: &Matrix) -> Vec<f64> {
        if self.trees.is_empty() {
            return vec![0.0; x.rows()];
        }
        let mut out = vec![0.0; x.rows()];
        for t in &self.trees {
            for (o, p) in out.iter_mut().zip(t.predict(x)) {
                *o += p;
            }
        }
        let k = self.trees.len() as f64;
        out.iter_mut().for_each(|v| *v /= k);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{
        blob_classification, linear_regression_data, train_test_accuracy, train_test_rmse,
    };

    #[test]
    fn forest_classifier_learns_blobs() {
        let (x, y) = blob_classification(150, 3, 61);
        let mut m =
            RandomForestClassifier::new(ForestParams { n_trees: 15, ..Default::default() }, 1);
        let acc = train_test_accuracy(&mut m, &x, &y, 3);
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn forest_beats_single_shallow_tree_on_noisy_data() {
        // Noisy nonlinear target.
        let (x, _) = linear_regression_data(400, 0.0, 67);
        let y: Vec<f64> =
            (0..x.rows()).map(|r| (x[(r, 0)] * 1.3).sin() * 3.0 + x[(r, 1)].powi(2)).collect();
        let mut forest =
            RandomForestRegressor::new(ForestParams { n_trees: 30, ..Default::default() }, 2);
        let forest_rmse = train_test_rmse(&mut forest, &x, &y);
        assert!(forest_rmse < 1.5, "forest rmse {forest_rmse}");
    }

    #[test]
    fn forest_probabilities_are_distributions() {
        let (x, y) = blob_classification(90, 3, 71);
        let mut m =
            RandomForestClassifier::new(ForestParams { n_trees: 10, ..Default::default() }, 4);
        m.fit(&x, &y, 3);
        let p = m.predict_proba(&x, 3);
        for r in 0..p.rows() {
            let s: f64 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "row sum {s}");
        }
    }

    #[test]
    fn forest_is_seed_deterministic() {
        let (x, y) = blob_classification(80, 2, 73);
        let mut a =
            RandomForestClassifier::new(ForestParams { n_trees: 8, ..Default::default() }, 9);
        let mut b =
            RandomForestClassifier::new(ForestParams { n_trees: 8, ..Default::default() }, 9);
        a.fit(&x, &y, 2);
        b.fit(&x, &y, 2);
        assert_eq!(a.predict(&x), b.predict(&x));
    }

    #[test]
    fn empty_fit_safe() {
        let mut m = RandomForestClassifier::new(ForestParams::default(), 1);
        m.fit(&Matrix::zeros(0, 2), &[], 2);
        assert_eq!(m.predict(&Matrix::zeros(2, 2)).len(), 2);
    }

    /// The guard's budget verdict on a forest fit run on each worker of
    /// a `width`-wide pool, with an allowance smaller than one fit.
    #[expect(
        clippy::disallowed_methods,
        reason = "a top-level stage of guarded cells, as the controller runs them"
    )]
    fn guarded_fits(width: usize) -> Vec<rein_guard::FailureCause> {
        use rayon::prelude::*;
        use rein_guard::{GuardPolicy, GuardSpec, Phase};
        let (x, y) = linear_regression_data(200, 0.5, 79);
        let policy = GuardPolicy { budget_override: Some(2_000), ..GuardPolicy::default() };
        let pool = rayon::ThreadPoolBuilder::new().num_threads(width).build().expect("pool");
        pool.install(|| {
            (0..width as u64)
                .into_par_iter()
                .map(|seed| {
                    let spec = GuardSpec {
                        phase: Phase::Repair,
                        strategy: "forest",
                        dataset: "unit",
                        scope: "",
                        cells: 1,
                        seed,
                    };
                    let fit = |_| {
                        let params = ForestParams { n_trees: 15, ..Default::default() };
                        RandomForestRegressor::new(params, 5).fit(&x, &y);
                    };
                    let report = rein_guard::run(&spec, &policy, fit, |_| Ok(()), |_| {});
                    report.outcome.expect_err("the allowance is smaller than one fit").cause
                })
                .collect()
        })
    }

    #[test]
    fn budget_sees_every_tree_on_a_pool_worker() {
        // Each tree of a fit on a pool worker runs under the cell's
        // remaining allowance on whichever thread claims it, and the
        // fit's join debits every tree, so the budget trips with the
        // same figures as on a one-wide pool.
        let serial = guarded_fits(1);
        assert!(
            matches!(serial[0], rein_guard::FailureCause::BudgetExhausted { allowance: 2_000, .. }),
            "{:?}",
            serial[0]
        );
        let wide = guarded_fits(4);
        assert!(wide.iter().all(|cause| *cause == serial[0]), "{wide:?} vs {:?}", serial[0]);
    }
}
