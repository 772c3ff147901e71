//! Table → feature-matrix encoding.
//!
//! The paper trains scikit-learn models, which need complete numeric
//! matrices. This module provides the equivalent preparation: numeric
//! columns are standardised (nulls and non-numeric cells fall back to the
//! training mean — mean imputation at the model boundary), categorical
//! columns are one-hot encoded over their top categories (unknowns map to
//! the all-zero vector). Fitting happens on training data only; the same
//! transform is then applied to any compatible table.

use std::collections::BTreeMap;
use std::ops::Range;

use rein_data::{Table, Value};

use crate::linalg::Matrix;

/// Maximum number of one-hot categories per column; rarer values share the
/// all-zero "other" encoding. Keeps width bounded on high-cardinality text.
pub const MAX_ONE_HOT: usize = 20;

#[derive(Debug, Clone)]
enum ColumnPlan {
    Numeric { mean: f64, std: f64 },
    OneHot { categories: Vec<String> },
}

impl ColumnPlan {
    /// Encoded columns of this plan.
    fn width(&self) -> usize {
        match self {
            ColumnPlan::Numeric { .. } => 1,
            ColumnPlan::OneHot { categories } => categories.len(),
        }
    }
}

/// A fitted feature encoder.
#[derive(Debug, Clone)]
pub struct Encoder {
    feature_cols: Vec<usize>,
    plans: Vec<ColumnPlan>,
    width: usize,
}

impl Encoder {
    /// Fits an encoder on `table`, using the given feature columns.
    ///
    /// A column is treated as numeric when the majority of its non-null
    /// values convert to `f64` (so typo-shifted numeric columns still
    /// encode numerically, with the typo cells mean-imputed). Each
    /// column's plan depends on that column alone.
    pub fn fit(table: &Table, feature_cols: &[usize]) -> Self {
        Self::fit_rows(table, &all_rows(table), feature_cols)
    }

    /// [`Encoder::fit`] on the given rows of `table` only: bit for bit
    /// the encoder fitted on `table.select_rows(rows)`, without copying
    /// a cell.
    pub fn fit_rows(table: &Table, rows: &[usize], feature_cols: &[usize]) -> Self {
        let mut plans = Vec::with_capacity(feature_cols.len());
        for &c in feature_cols {
            let cells = || rows.iter().map(|&r| table.cell(r, c)).filter(|v| !v.is_null());
            let non_null = cells().count();
            let numeric = cells().filter(|v| v.as_f64().is_some()).count();
            let is_numeric = non_null > 0 && numeric * 2 >= non_null;
            if is_numeric {
                let xs: Vec<f64> = cells().filter_map(Value::as_f64).collect();
                let mean =
                    if xs.is_empty() { 0.0 } else { xs.iter().sum::<f64>() / xs.len() as f64 };
                let var = if xs.is_empty() {
                    1.0
                } else {
                    xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64
                };
                plans.push(ColumnPlan::Numeric { mean, std: var.sqrt().max(1e-9) });
            } else {
                let categories: Vec<String> = table
                    .value_counts_in(rows, c)
                    .into_iter()
                    .take(MAX_ONE_HOT)
                    .map(|(v, _)| v.as_key().into_owned())
                    .collect();
                plans.push(ColumnPlan::OneHot { categories });
            }
        }
        let width = plans.iter().map(ColumnPlan::width).sum();
        Self { feature_cols: feature_cols.to_vec(), plans, width }
    }

    /// Encoded feature width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The encoded columns of the `i`-th fitted feature column. Since a
    /// column's plan depends on that column alone, dropping one block
    /// from an encoding (see [`select_matrix_rows_without`]) gives, bit
    /// for bit, the encoding fitted without that column.
    pub fn block(&self, i: usize) -> Range<usize> {
        let start = self.plans[..i].iter().map(ColumnPlan::width).sum();
        start..start + self.plans[i].width()
    }

    /// Encodes one row of `table` into `out` (must have length `width`).
    fn encode_row(&self, table: &Table, row: usize, out: &mut [f64]) {
        let mut pos = 0;
        for (&c, plan) in self.feature_cols.iter().zip(&self.plans) {
            match plan {
                ColumnPlan::Numeric { mean, std } => {
                    let v = table.cell(row, c).as_f64().unwrap_or(*mean);
                    out[pos] = (v - mean) / std;
                    pos += 1;
                }
                ColumnPlan::OneHot { categories } => {
                    let key = table.cell(row, c).as_key();
                    for (i, cat) in categories.iter().enumerate() {
                        out[pos + i] = if key.as_ref() == cat { 1.0 } else { 0.0 };
                    }
                    pos += categories.len();
                }
            }
        }
    }

    /// Encodes a whole table into a feature matrix (one row per table row).
    pub fn transform(&self, table: &Table) -> Matrix {
        self.transform_rows(table, &all_rows(table))
    }

    /// Encodes the given rows of `table`, in order, into a feature matrix
    /// (one row per entry of `rows`).
    pub fn transform_rows(&self, table: &Table, rows: &[usize]) -> Matrix {
        let mut m = Matrix::zeros(rows.len(), self.width);
        for (i, &r) in rows.iter().enumerate() {
            self.encode_row(table, r, m.row_mut(i));
        }
        m
    }
}

/// Every row index of `table`.
fn all_rows(table: &Table) -> Vec<usize> {
    (0..table.n_rows()).collect()
}

/// A fitted label map for classification targets.
#[derive(Debug, Clone, Default)]
pub struct LabelMap {
    classes: Vec<String>,
    index: BTreeMap<String, usize>,
}

impl LabelMap {
    /// Fits a label map over the non-null values of `col` in the given
    /// tables (fit it over every data version so dirty/clean labels share
    /// ids).
    pub fn fit<'a>(tables: impl IntoIterator<Item = &'a Table>, col: usize) -> Self {
        let mut map = LabelMap::default();
        for t in tables {
            for v in t.column(col) {
                if v.is_null() {
                    continue;
                }
                let key = v.as_key();
                if !map.index.contains_key(key.as_ref()) {
                    let key = key.into_owned();
                    map.index.insert(key.clone(), map.classes.len());
                    map.classes.push(key);
                }
            }
        }
        map
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.classes.len()
    }

    /// Class id of a value, if known.
    pub fn id_of(&self, v: &Value) -> Option<usize> {
        self.index.get(v.as_key().as_ref()).copied()
    }

    /// Class name of an id.
    pub fn name_of(&self, id: usize) -> &str {
        &self.classes[id]
    }

    /// Encodes the label column: `(row_indices_kept, class_ids)`; rows whose
    /// label is null or unknown are dropped.
    pub fn encode(&self, table: &Table, col: usize) -> (Vec<usize>, Vec<usize>) {
        self.encode_rows(table, &all_rows(table), col)
    }

    /// [`LabelMap::encode`] over the given rows of `table`: the kept
    /// entries of `rows`, in order, with their class ids.
    pub fn encode_rows(
        &self,
        table: &Table,
        rows: &[usize],
        col: usize,
    ) -> (Vec<usize>, Vec<usize>) {
        rows.iter().filter_map(|&r| Some((r, self.id_of(table.cell(r, col))?))).unzip()
    }
}

/// Extracts a regression target: `(row_indices_kept, values)`; rows with a
/// non-numeric target are dropped.
pub fn regression_target(table: &Table, col: usize) -> (Vec<usize>, Vec<f64>) {
    regression_target_rows(table, &all_rows(table), col)
}

/// [`regression_target`] over the given rows of `table`: the kept entries
/// of `rows`, in order, with their values.
pub fn regression_target_rows(table: &Table, rows: &[usize], col: usize) -> (Vec<usize>, Vec<f64>) {
    rows.iter().filter_map(|&r| Some((r, table.cell(r, col).as_f64()?))).unzip()
}

/// Selects a subset of matrix rows (for aligning features with kept labels).
pub fn select_matrix_rows(m: &Matrix, rows: &[usize]) -> Matrix {
    select_matrix_rows_without(m, rows, 0..0)
}

/// Selects a subset of matrix rows without the columns in `drop`, such as
/// one column's [`Encoder::block`].
pub fn select_matrix_rows_without(m: &Matrix, rows: &[usize], drop: Range<usize>) -> Matrix {
    let mut out = Matrix::zeros(rows.len(), m.cols() - drop.len());
    for (i, &r) in rows.iter().enumerate() {
        let (from, to) = (m.row(r), out.row_mut(i));
        to[..drop.start].copy_from_slice(&from[..drop.start]);
        to[drop.start..].copy_from_slice(&from[drop.end..]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rein_data::{ColumnMeta, ColumnType, Schema};

    fn table() -> Table {
        let schema = Schema::new(vec![
            ColumnMeta::new("num", ColumnType::Float),
            ColumnMeta::new("cat", ColumnType::Str),
            ColumnMeta::new("y", ColumnType::Str).label(),
        ]);
        Table::from_rows(
            schema,
            vec![
                vec![Value::Float(1.0), Value::str("a"), Value::str("pos")],
                vec![Value::Float(2.0), Value::str("b"), Value::str("neg")],
                vec![Value::Float(3.0), Value::str("a"), Value::str("pos")],
                vec![Value::Float(4.0), Value::str("c"), Value::str("neg")],
            ],
        )
    }

    #[test]
    fn numeric_columns_standardise() {
        let t = table();
        let enc = Encoder::fit(&t, &[0]);
        let m = enc.transform(&t);
        assert_eq!(m.cols(), 1);
        let mean: f64 = (0..4).map(|r| m[(r, 0)]).sum::<f64>() / 4.0;
        assert!(mean.abs() < 1e-12);
        let var: f64 = (0..4).map(|r| m[(r, 0)].powi(2)).sum::<f64>() / 4.0;
        assert!((var - 1.0).abs() < 1e-9);
    }

    #[test]
    fn categorical_columns_one_hot() {
        let t = table();
        let enc = Encoder::fit(&t, &[1]);
        let m = enc.transform(&t);
        assert_eq!(m.cols(), 3); // a, b, c
        for r in 0..4 {
            let s: f64 = m.row(r).iter().sum();
            assert_eq!(s, 1.0, "one-hot row sums to 1");
        }
        // Rows 0 and 2 share the "a" category.
        assert_eq!(m.row(0), m.row(2));
    }

    #[test]
    fn nulls_impute_to_training_mean() {
        let mut t = table();
        t.set_cell(0, 0, Value::Null);
        let enc = Encoder::fit(&t, &[0]);
        let m = enc.transform(&t);
        // Mean imputation -> standardised 0.
        assert_eq!(m[(0, 0)], 0.0);
    }

    #[test]
    fn unknown_categories_encode_to_zero_vector() {
        let t = table();
        let enc = Encoder::fit(&t, &[1]);
        let mut t2 = t.clone();
        t2.set_cell(0, 1, Value::str("NEW"));
        let m = enc.transform(&t2);
        assert!(m.row(0).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn typo_shifted_numeric_column_stays_numeric() {
        let mut t = table();
        t.set_cell(0, 0, Value::str("1.o")); // typo
        let enc = Encoder::fit(&t, &[0]);
        let m = enc.transform(&t);
        assert_eq!(m.cols(), 1);
        assert!(m.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn label_map_roundtrip() {
        let t = table();
        let lm = LabelMap::fit([&t], 2);
        assert_eq!(lm.n_classes(), 2);
        let (rows, ys) = lm.encode(&t, 2);
        assert_eq!(rows, vec![0, 1, 2, 3]);
        assert_eq!(lm.name_of(ys[0]), "pos");
        assert_eq!(lm.name_of(ys[1]), "neg");
    }

    #[test]
    fn label_encode_drops_null_labels() {
        let mut t = table();
        t.set_cell(1, 2, Value::Null);
        let lm = LabelMap::fit([&t], 2);
        let (rows, _) = lm.encode(&t, 2);
        assert_eq!(rows, vec![0, 2, 3]);
    }

    #[test]
    fn regression_target_drops_non_numeric() {
        let schema = Schema::new(vec![ColumnMeta::new("y", ColumnType::Float).label()]);
        let t = Table::from_rows(
            schema,
            vec![vec![Value::Float(1.5)], vec![Value::str("bad")], vec![Value::Float(2.5)]],
        );
        let (rows, ys) = regression_target(&t, 0);
        assert_eq!(rows, vec![0, 2]);
        assert_eq!(ys, vec![1.5, 2.5]);
    }

    #[test]
    fn select_matrix_rows_aligns() {
        let t = table();
        let enc = Encoder::fit(&t, &[0, 1]);
        let m = enc.transform(&t);
        let sub = select_matrix_rows(&m, &[2, 0]);
        assert_eq!(sub.rows(), 2);
        assert_eq!(sub.row(0), m.row(2));
        assert_eq!(sub.row(1), m.row(0));
    }

    /// Numeric, typo-shifted numeric, partly null, all-null, small and
    /// more-than-[`MAX_ONE_HOT`]-category columns.
    fn mixed_table() -> Table {
        let schema = Schema::new(vec![
            ColumnMeta::new("num", ColumnType::Float),
            ColumnMeta::new("typo", ColumnType::Float),
            ColumnMeta::new("nulls", ColumnType::Int),
            ColumnMeta::new("empty", ColumnType::Str),
            ColumnMeta::new("cat", ColumnType::Str),
            ColumnMeta::new("wide", ColumnType::Str),
        ]);
        let rows = (0..60u8)
            .map(|i| {
                vec![
                    Value::Float(f64::from(i) * 0.37 - 4.0),
                    if i % 7 == 0 { Value::str("1.o") } else { Value::Float(f64::from(i % 9)) },
                    if i % 3 == 0 { Value::Null } else { Value::Int(i64::from(i % 5)) },
                    Value::Null,
                    if i % 11 == 0 {
                        Value::Null
                    } else {
                        Value::str(["a", "b", "c"][usize::from(i % 3)])
                    },
                    Value::str(format!("w{}", i % 27)),
                ]
            })
            .collect();
        Table::from_rows(schema, rows)
    }

    #[test]
    fn sliced_encoding_is_the_encoding_without_the_column() {
        let t = mixed_table();
        let all: Vec<usize> = (0..t.n_cols()).collect();
        let enc = Encoder::fit(&t, &all);
        let x = enc.transform(&t);
        let widths: Vec<usize> = all.iter().map(|&c| enc.block(c).len()).collect();
        assert_eq!(widths, vec![1, 1, 1, 0, 3, MAX_ONE_HOT]);
        let rows: Vec<usize> = (0..t.n_rows()).collect();
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for c in all.iter().copied() {
            let others: Vec<usize> = all.iter().copied().filter(|&o| o != c).collect();
            let want = Encoder::fit(&t, &others).transform(&t);
            let got = select_matrix_rows_without(&x, &rows, enc.block(c));
            assert_eq!((got.rows(), got.cols()), (want.rows(), want.cols()), "column {c}");
            assert_eq!(bits(&got), bits(&want), "column {c}");
        }
    }

    #[test]
    fn row_selections_encode_as_the_selected_table() {
        let t = mixed_table();
        let all: Vec<usize> = (0..t.n_cols()).collect();
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for rows in [vec![], vec![5], (0..60).step_by(3).collect(), vec![59, 2, 40, 7, 11, 33, 21]]
        {
            let sub = t.select_rows(&rows);
            let want = Encoder::fit(&sub, &all);
            let got = Encoder::fit_rows(&t, &rows, &all);
            assert_eq!(bits(&got.transform_rows(&t, &rows)), bits(&want.transform(&sub)));
            let of = |kept: &[usize]| kept.iter().map(|&i| rows[i]).collect::<Vec<_>>();
            for col in all.iter().copied() {
                let labels = LabelMap::fit([&t], col);
                let (kept, ys) = labels.encode(&sub, col);
                assert_eq!(labels.encode_rows(&t, &rows, col), (of(&kept), ys), "column {col}");
                let (kept, ys) = regression_target(&sub, col);
                let (got_rows, got_ys) = regression_target_rows(&t, &rows, col);
                assert_eq!(got_rows, of(&kept), "column {col}");
                assert_eq!(
                    got_ys.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    ys.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "column {col}"
                );
            }
        }
    }

    #[test]
    fn high_cardinality_capped() {
        let schema = Schema::new(vec![ColumnMeta::new("c", ColumnType::Str)]);
        let t = Table::from_rows(
            schema,
            (0..100).map(|i| vec![Value::str(format!("cat{i}"))]).collect(),
        );
        let enc = Encoder::fit(&t, &[0]);
        assert_eq!(enc.width(), MAX_ONE_HOT);
    }
}
