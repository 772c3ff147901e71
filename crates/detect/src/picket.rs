//! Picket (Liu et al.): self-supervised error detection, no user labels.
//! The original learns a self-attention reconstruction model; we keep the
//! self-supervision principle with per-column predictors — each column is
//! reconstructed from the others, and cells with anomalous reconstruction
//! loss are flagged. Like the original, it is accurate on small data and
//! deliberately memory-hungry relative to the simple detectors.

use rein_data::{CellMask, ColumnType};
use rein_ml::encode::{regression_target, select_matrix_rows_without, Encoder, LabelMap};
use rein_ml::model::{Classifier, Regressor};
use rein_ml::tree::{
    ColumnOrders, DecisionTreeClassifier, DecisionTreeRegressor, Subset, TreeParams,
};

use crate::context::{DetectContext, Detector};

/// Picket detector.
#[derive(Debug, Clone)]
pub struct Picket {
    /// A numeric cell is flagged when its reconstruction residual exceeds
    /// this many residual standard deviations.
    pub residual_z: f64,
    /// A categorical cell is flagged when the reconstructed class differs
    /// and the predictor's confidence exceeds this threshold.
    pub min_confidence: f64,
}

impl Default for Picket {
    fn default() -> Self {
        Self { residual_z: 3.5, min_confidence: 0.85 }
    }
}

impl Detector for Picket {
    fn name(&self) -> &'static str {
        "picket"
    }

    fn detect(&self, ctx: &DetectContext<'_>) -> CellMask {
        let _span = rein_telemetry::span("detect:picket");
        let t = ctx.dirty;
        let mut mask = CellMask::new(t.n_rows(), t.n_cols());
        if t.n_rows() < 20 || t.n_cols() < 2 {
            return mask;
        }
        // Each column is reconstructed from the encoding of the others:
        // the table's encoding without the column's block. Its columns
        // are sorted once, and each target's fit takes its presort from
        // them. The targets fan out; each returns its flagged rows, and
        // the mask is merged in column order.
        let all: Vec<usize> = (0..t.n_cols()).collect();
        let encoder = Encoder::fit(t, &all);
        let x = encoder.transform(t);
        let orders = ColumnOrders::new(&x);
        let flagged = rein_guard::fan_out(all, |target_col| {
            let others = |rows: &[usize]| {
                let block = encoder.block(target_col);
                (select_matrix_rows_without(&x, rows, block.clone()), block)
            };
            let mut flagged = Vec::new();
            match t.observed_type(target_col) {
                ColumnType::Int | ColumnType::Float => {
                    let (rows, y) = regression_target(t, target_col);
                    if rows.len() < 10 {
                        return flagged;
                    }
                    let (xs, drop) = others(&rows);
                    let mut model = DecisionTreeRegressor::new(TreeParams {
                        max_depth: 6,
                        ..Default::default()
                    });
                    model.fit_subset(&xs, &y, &Subset { orders: &orders, rows: &rows, drop });
                    let preds = model.predict(&xs);
                    let residuals: Vec<f64> = y.iter().zip(&preds).map(|(t, p)| t - p).collect();
                    let mean = residuals.iter().sum::<f64>() / residuals.len() as f64;
                    let std = (residuals.iter().map(|r| (r - mean).powi(2)).sum::<f64>()
                        / residuals.len() as f64)
                        .sqrt()
                        .max(1e-9);
                    for (local, &row) in rows.iter().enumerate() {
                        if (residuals[local] - mean).abs() > self.residual_z * std {
                            flagged.push(row);
                        }
                    }
                    // Non-numeric cells in a numeric column fail
                    // reconstruction by definition.
                    for r in 0..t.n_rows() {
                        rein_guard::checkpoint(1);
                        let v = t.cell(r, target_col);
                        if !v.is_null() && v.as_f64().is_none() {
                            flagged.push(r);
                        }
                    }
                }
                _ => {
                    let labels = LabelMap::fit([t], target_col);
                    if labels.n_classes() < 2 || labels.n_classes() > 50 {
                        return flagged; // free text column: reconstruction hopeless
                    }
                    let (rows, y) = labels.encode(t, target_col);
                    if rows.len() < 10 {
                        return flagged;
                    }
                    let (xs, drop) = others(&rows);
                    let mut model = DecisionTreeClassifier::new(TreeParams {
                        max_depth: 6,
                        ..Default::default()
                    });
                    let subset = Subset { orders: &orders, rows: &rows, drop };
                    model.fit_subset(&xs, &y, labels.n_classes(), &subset);
                    let probs = model.predict_proba(&xs, labels.n_classes());
                    for (local, &row) in rows.iter().enumerate() {
                        let given = y[local];
                        let best = rein_ml::linalg::argmax(probs.row(local));
                        if best != given && probs[(local, best)] >= self.min_confidence {
                            flagged.push(row);
                        }
                    }
                }
            }
            flagged
        });
        for (col, rows) in flagged.into_iter().enumerate() {
            for row in rows {
                mask.set(row, col, true);
            }
        }
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rein_data::{ColumnMeta, Schema, Table, Value};

    /// Two strongly coupled columns so reconstruction has signal.
    fn dataset() -> (Table, Table) {
        let schema = Schema::new(vec![
            ColumnMeta::new("x", ColumnType::Float),
            ColumnMeta::new("y", ColumnType::Float),
            ColumnMeta::new("group", ColumnType::Str),
        ]);
        let clean = Table::from_rows(
            schema,
            (0..240)
                .map(|i| {
                    let x = (i % 20) as f64;
                    vec![
                        Value::Float(x),
                        Value::Float(2.0 * x + 1.0),
                        Value::str(if x < 10.0 { "low" } else { "high" }),
                    ]
                })
                .collect(),
        );
        let mut dirty = clean.clone();
        // Break the x↔y coupling at a few cells.
        for i in 0..8 {
            dirty.set_cell(i * 25 + 3, 1, Value::Float(999.0));
        }
        // Break the group consistency.
        dirty.set_cell(2, 2, Value::str("high")); // x=2 should be "low"
        dirty.set_cell(44, 2, Value::str("low")); // x=4... row44: x=4 -> low actually
        (clean, dirty)
    }

    #[test]
    fn reconstruction_failures_are_flagged_without_labels() {
        let (_, dirty) = dataset();
        let m = Picket::default().detect(&DetectContext::bare(&dirty));
        for i in 0..8 {
            assert!(m.get(i * 25 + 3, 1), "broken y at row {}", i * 25 + 3);
        }
        assert!(m.get(2, 2), "inconsistent group label");
    }

    #[test]
    fn clean_coupled_data_yields_few_flags() {
        let (clean, _) = dataset();
        let m = Picket::default().detect(&DetectContext::bare(&clean));
        assert!(m.count() <= 5, "count {}", m.count());
    }

    #[test]
    fn tiny_tables_are_skipped() {
        let schema = Schema::new(vec![
            ColumnMeta::new("a", ColumnType::Int),
            ColumnMeta::new("b", ColumnType::Int),
        ]);
        let t = Table::from_rows(schema, vec![vec![Value::Int(1), Value::Int(2)]; 5]);
        assert!(Picket::default().detect(&DetectContext::bare(&t)).is_empty());
    }
}
