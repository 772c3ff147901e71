//! ML-driven imputation (Table 1 rows 6–12): missForest-style iterative
//! imputation with pluggable per-type models — random forest (missForest),
//! MLP (DataWig), decision tree, Bayesian ridge and k-NN — in *mixed* mode
//! (features from all other columns) or *separate* mode (features from
//! same-type columns only), as §3.2 describes.

use rein_data::{CellMask, Table, Value};
use rein_ml::encode::{regression_target, select_matrix_rows, Encoder, LabelMap};
use rein_ml::forest::{ForestParams, RandomForestClassifier, RandomForestRegressor};
use rein_ml::knn::KnnRegressor;
use rein_ml::linreg::BayesianRidge;
use rein_ml::mlp::{MlpClassifier, MlpParams, MlpRegressor};
use rein_ml::model::{Classifier, Regressor};
use rein_ml::tree::{DecisionTreeRegressor, TreeParams};

use crate::context::{RepairContext, RepairOutcome, Repairer};

/// Model used for numeric target columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NumericModel {
    /// Random forest (missForest).
    MissForest,
    /// MLP (DataWig).
    DataWig,
    /// Decision tree.
    DecisionTree,
    /// Bayesian ridge.
    BayesRidge,
    /// k-nearest neighbours.
    Knn,
}

/// Model used for categorical target columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CategoricalModel {
    /// Random forest (missForest).
    MissForest,
    /// MLP (DataWig).
    DataWig,
}

/// Feature scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeatureScope {
    /// All other columns (mixed mode).
    Mixed,
    /// Only columns of the same type as the target (separate mode).
    Separate,
}

/// Configurable ML imputer.
#[derive(Debug, Clone)]
pub struct MlImputer {
    name: &'static str,
    numeric: NumericModel,
    categorical: CategoricalModel,
    scope: FeatureScope,
    /// missForest-style refinement iterations.
    pub iterations: usize,
}

impl MlImputer {
    /// Row 6: missForest, mixed mode ("MISS-Mix").
    pub fn miss_mix() -> Self {
        Self {
            name: "miss_mix",
            numeric: NumericModel::MissForest,
            categorical: CategoricalModel::MissForest,
            scope: FeatureScope::Mixed,
            iterations: 2,
        }
    }

    /// Row 7: DataWig, mixed mode ("DataWig-Mix").
    pub fn datawig_mix() -> Self {
        Self {
            name: "datawig_mix",
            numeric: NumericModel::DataWig,
            categorical: CategoricalModel::DataWig,
            scope: FeatureScope::Mixed,
            iterations: 1,
        }
    }

    /// Row 8: missForest, separate mode ("MISS-Sep").
    pub fn miss_sep() -> Self {
        Self {
            name: "miss_sep",
            numeric: NumericModel::MissForest,
            categorical: CategoricalModel::MissForest,
            scope: FeatureScope::Separate,
            iterations: 2,
        }
    }

    /// Row 9: missForest for numerics, DataWig for categoricals.
    pub fn miss_datawig() -> Self {
        Self {
            name: "miss_datawig",
            numeric: NumericModel::MissForest,
            categorical: CategoricalModel::DataWig,
            scope: FeatureScope::Mixed,
            iterations: 1,
        }
    }

    /// Row 10: decision tree + missForest ("DT-MISS").
    pub fn dt_miss() -> Self {
        Self {
            name: "dt_miss",
            numeric: NumericModel::DecisionTree,
            categorical: CategoricalModel::MissForest,
            scope: FeatureScope::Mixed,
            iterations: 1,
        }
    }

    /// Row 11: Bayesian ridge + missForest ("Bayes-MISS").
    pub fn bayes_miss() -> Self {
        Self {
            name: "bayes_miss",
            numeric: NumericModel::BayesRidge,
            categorical: CategoricalModel::MissForest,
            scope: FeatureScope::Mixed,
            iterations: 1,
        }
    }

    /// Row 12: k-NN + missForest ("KNN-MISS").
    pub fn knn_miss() -> Self {
        Self {
            name: "knn_miss",
            numeric: NumericModel::Knn,
            categorical: CategoricalModel::MissForest,
            scope: FeatureScope::Mixed,
            iterations: 1,
        }
    }

    fn build_regressor(&self, seed: u64) -> Box<dyn Regressor> {
        match self.numeric {
            NumericModel::MissForest => Box::new(RandomForestRegressor::new(
                ForestParams { n_trees: 15, ..Default::default() },
                seed,
            )),
            NumericModel::DataWig => Box::new(MlpRegressor::new(
                MlpParams { epochs: 30, hidden: 24, ..Default::default() },
                seed,
            )),
            NumericModel::DecisionTree => {
                Box::new(DecisionTreeRegressor::new(TreeParams::default()))
            }
            NumericModel::BayesRidge => Box::new(BayesianRidge::default()),
            NumericModel::Knn => Box::new(KnnRegressor::new(5)),
        }
    }

    fn build_classifier(&self, seed: u64) -> Box<dyn Classifier> {
        match self.categorical {
            CategoricalModel::MissForest => Box::new(RandomForestClassifier::new(
                ForestParams { n_trees: 15, ..Default::default() },
                seed,
            )),
            CategoricalModel::DataWig => Box::new(MlpClassifier::new(
                MlpParams { epochs: 30, hidden: 24, ..Default::default() },
                seed,
            )),
        }
    }

    fn feature_cols(&self, t: &Table, target: usize, target_numeric: bool) -> Vec<usize> {
        (0..t.n_cols())
            .filter(|&c| c != target)
            .filter(|&c| match self.scope {
                FeatureScope::Mixed => true,
                FeatureScope::Separate => t.observed_type(c).is_numeric() == target_numeric,
            })
            .collect()
    }
}

impl Repairer for MlImputer {
    fn name(&self) -> &'static str {
        self.name
    }

    fn repair(&self, ctx: &RepairContext<'_>) -> RepairOutcome {
        let _span = rein_telemetry::span("repair:imputers");
        let dirty = ctx.dirty;
        let det = ctx.detections;
        // Working copy: detected cells nulled then warm-started via the
        // standard imputer so feature encodings are complete.
        let mut working = dirty.clone();
        for cell in det.iter() {
            working.set_cell(cell.row, cell.col, Value::Null);
        }
        let warm = crate::generic::StandardImpute::mean_mode()
            .repair(&RepairContext { dirty: &working, ..RepairContext::new(&working, det) });
        let mut working = match warm {
            RepairOutcome::Repaired { table, .. } => table,
            #[expect(clippy::unreachable, reason = "StandardImpute always returns Repaired")]
            _ => unreachable!(),
        };

        let mut repaired = CellMask::new(dirty.n_rows(), dirty.n_cols());
        let target_cols: Vec<usize> =
            (0..dirty.n_cols()).filter(|&c| det.count_col(c) > 0).collect();
        for _ in 0..self.iterations.max(1) {
            for &col in &target_cols {
                rein_guard::checkpoint(dirty.n_rows() as u64);
                let target_numeric = {
                    // Type from trusted cells only.
                    let trusted_numeric = (0..dirty.n_rows())
                        .filter(|&r| !det.get(r, col))
                        .filter(|&r| dirty.cell(r, col).as_f64().is_some())
                        .count();
                    let trusted_nonnull = (0..dirty.n_rows())
                        .filter(|&r| !det.get(r, col) && !dirty.cell(r, col).is_null())
                        .count();
                    trusted_numeric * 2 >= trusted_nonnull.max(1)
                };
                let features = self.feature_cols(&working, col, target_numeric);
                if features.is_empty() {
                    continue;
                }
                let encoder = Encoder::fit(&working, &features);
                let x = encoder.transform(&working);
                let train_rows: Vec<usize> = (0..dirty.n_rows())
                    .filter(|&r| !det.get(r, col) && !dirty.cell(r, col).is_null())
                    .collect();
                let predict_rows: Vec<usize> =
                    (0..dirty.n_rows()).filter(|&r| det.get(r, col)).collect();
                if train_rows.len() < 5 || predict_rows.is_empty() {
                    continue;
                }
                let xp = select_matrix_rows(&x, &predict_rows);
                if target_numeric {
                    let (rows, y) = regression_target(dirty, col);
                    let trusted: Vec<(usize, f64)> = rows
                        .iter()
                        .zip(&y)
                        .filter(|(r, _)| !det.get(**r, col))
                        .map(|(&r, &v)| (r, v))
                        .collect();
                    if trusted.len() < 5 {
                        continue;
                    }
                    let tr_rows: Vec<usize> = trusted.iter().map(|(r, _)| *r).collect();
                    let tr_y: Vec<f64> = trusted.iter().map(|(_, v)| *v).collect();
                    let xs = select_matrix_rows(&x, &tr_rows);
                    let mut model = self.build_regressor(ctx.seed);
                    model.fit(&xs, &tr_y);
                    let preds = model.predict(&xp);
                    for (&row, &pred) in predict_rows.iter().zip(&preds) {
                        working.set_cell(row, col, Value::float(pred));
                        repaired.set(row, col, true);
                    }
                } else {
                    let labels = LabelMap::fit([dirty], col);
                    if labels.n_classes() < 1 {
                        continue;
                    }
                    let (rows, y) = labels.encode(dirty, col);
                    let trusted: Vec<(usize, usize)> = rows
                        .iter()
                        .zip(&y)
                        .filter(|(r, _)| !det.get(**r, col))
                        .map(|(&r, &v)| (r, v))
                        .collect();
                    if trusted.len() < 5 {
                        continue;
                    }
                    let tr_rows: Vec<usize> = trusted.iter().map(|(r, _)| *r).collect();
                    let tr_y: Vec<usize> = trusted.iter().map(|(_, v)| *v).collect();
                    let xs = select_matrix_rows(&x, &tr_rows);
                    let mut model = self.build_classifier(ctx.seed);
                    model.fit(&xs, &tr_y, labels.n_classes());
                    let preds = model.predict(&xp);
                    for (local, &row) in predict_rows.iter().enumerate() {
                        let name = labels.name_of(preds[local]);
                        working.set_cell(row, col, Value::parse(name));
                        repaired.set(row, col, true);
                    }
                }
            }
        }
        // Cells no model could refine (e.g. a categorical target with no
        // same-type features in separate mode) keep their warm-start value;
        // they were still modified, so they count as repaired.
        for cell in det.iter() {
            if working.cell(cell.row, cell.col) != dirty.cell(cell.row, cell.col) {
                repaired.set(cell.row, cell.col, true);
            }
        }
        RepairOutcome::repaired(working, repaired)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rein_data::diff::diff_mask;
    use rein_data::{ColumnMeta, ColumnType, Schema};

    /// Strongly coupled columns so imputation has real signal:
    /// y = 2x + 1, cat = sign bucket of x.
    fn dataset() -> (Table, Table, CellMask) {
        let schema = Schema::new(vec![
            ColumnMeta::new("x", ColumnType::Float),
            ColumnMeta::new("y", ColumnType::Float),
            ColumnMeta::new("bucket", ColumnType::Str),
        ]);
        let clean = Table::from_rows(
            schema,
            (0..120)
                .map(|i| {
                    let x = (i % 12) as f64;
                    vec![
                        Value::Float(x),
                        Value::Float(2.0 * x + 1.0),
                        Value::str(if x < 6.0 { "low" } else { "high" }),
                    ]
                })
                .collect(),
        );
        let mut dirty = clean.clone();
        for i in 0..10 {
            dirty.set_cell(i * 11 + 1, 1, Value::Float(-50.0));
        }
        for i in 0..6 {
            dirty.set_cell(i * 17 + 2, 2, Value::str("junk"));
        }
        let det = diff_mask(&clean, &dirty);
        (clean, dirty, det)
    }

    #[test]
    fn miss_mix_reconstructs_coupled_numeric() {
        let (clean, dirty, det) = dataset();
        let out = MlImputer::miss_mix().repair(&RepairContext::new(&dirty, &det));
        let t = out.table().unwrap();
        for cell in det.iter() {
            if cell.col != 1 {
                continue;
            }
            let truth = clean.cell(cell.row, 1).as_f64().unwrap();
            let got = t.cell(cell.row, 1).as_f64().unwrap();
            assert!((truth - got).abs() < 3.0, "row {}: {got} vs {truth}", cell.row);
        }
    }

    #[test]
    fn categorical_imputation_respects_coupling() {
        let (clean, dirty, det) = dataset();
        let out = MlImputer::miss_mix().repair(&RepairContext::new(&dirty, &det));
        let t = out.table().unwrap();
        let mut correct = 0;
        let mut total = 0;
        for cell in det.iter() {
            if cell.col != 2 {
                continue;
            }
            total += 1;
            if t.cell(cell.row, 2) == clean.cell(cell.row, 2) {
                correct += 1;
            }
        }
        assert!(total > 0);
        assert!(correct * 3 >= total * 2, "{correct}/{total} correct");
    }

    #[test]
    fn every_imputer_variant_runs_and_repairs_all_detections() {
        let (_, dirty, det) = dataset();
        for imp in [
            MlImputer::miss_mix(),
            MlImputer::datawig_mix(),
            MlImputer::miss_sep(),
            MlImputer::miss_datawig(),
            MlImputer::dt_miss(),
            MlImputer::bayes_miss(),
            MlImputer::knn_miss(),
        ] {
            let out = imp.repair(&RepairContext::new(&dirty, &det));
            match out {
                RepairOutcome::Repaired { table, repaired_cells, .. } => {
                    assert_eq!(repaired_cells, det, "{}", imp.name());
                    // No nulls remain at repaired cells.
                    for cell in det.iter() {
                        assert!(!table.cell(cell.row, cell.col).is_null(), "{}", imp.name());
                    }
                }
                _ => panic!("expected repaired table"),
            }
        }
    }

    #[test]
    fn separate_mode_ignores_other_type_columns() {
        // In separate mode the categorical target cannot see x, so its
        // accuracy should drop to chance while mixed mode stays coupled.
        let (clean, dirty, det) = dataset();
        let acc_of = |imp: MlImputer| {
            let out = imp.repair(&RepairContext::new(&dirty, &det));
            let t = out.table().unwrap().clone();
            let mut correct = 0usize;
            let mut total = 0usize;
            for cell in det.iter() {
                if cell.col == 2 {
                    total += 1;
                    if t.cell(cell.row, 2) == clean.cell(cell.row, 2) {
                        correct += 1;
                    }
                }
            }
            correct as f64 / total.max(1) as f64
        };
        let mixed = acc_of(MlImputer::miss_mix());
        // Separate mode may still guess the majority class; it must not
        // beat mixed mode on this construction.
        let separate = acc_of(MlImputer::miss_sep());
        assert!(mixed >= separate, "mixed {mixed} vs separate {separate}");
    }

    #[test]
    fn imputer_names_match_table1() {
        assert_eq!(MlImputer::miss_mix().name(), "miss_mix");
        assert_eq!(MlImputer::datawig_mix().name(), "datawig_mix");
        assert_eq!(MlImputer::miss_sep().name(), "miss_sep");
        assert_eq!(MlImputer::miss_datawig().name(), "miss_datawig");
        assert_eq!(MlImputer::dt_miss().name(), "dt_miss");
        assert_eq!(MlImputer::bayes_miss().name(), "bayes_miss");
        assert_eq!(MlImputer::knn_miss().name(), "knn_miss");
    }
}
