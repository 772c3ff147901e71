//! Metadata-driven error detection (Visengeriyeva & Abedjan): each cell is
//! represented by the binary verdicts of a suite of non-learning detectors
//! plus metadata-profile features; a classifier trained on an
//! oracle-labelled sample predicts dirtiness for every cell.

use rand::prelude::*;
use rand::rngs::StdRng;
use rein_data::{CellMask, CellRef};
use rein_ml::forest::{ForestParams, RandomForestClassifier};
use rein_ml::linalg::Matrix;
use rein_ml::model::Classifier;

use crate::context::{DetectContext, Detector};
use crate::ensemble::default_base_pool;
use crate::features::{detector_features, CellFeaturizer, N_CONTENT_FEATURES};

/// Metadata-driven detector.
pub struct MetadataDriven {
    base: Vec<Box<dyn Detector>>,
}

impl Default for MetadataDriven {
    fn default() -> Self {
        Self { base: default_base_pool() }
    }
}

impl Detector for MetadataDriven {
    fn name(&self) -> &'static str {
        "metadata_driven"
    }

    fn detect(&self, ctx: &DetectContext<'_>) -> CellMask {
        let _span = rein_telemetry::span("detect:metadata");
        let t = ctx.dirty;
        let empty = CellMask::new(t.n_rows(), t.n_cols());
        let Some(oracle) = ctx.oracle else { return empty };
        let n_cells = t.n_cells();
        if n_cells == 0 {
            return empty;
        }

        // Feature matrix: one row per cell.
        let verdicts = detector_features(ctx, &self.base);
        let featurizer = CellFeaturizer::fit(t);
        let width = self.base.len() + N_CONTENT_FEATURES;
        let mut x = Matrix::zeros(n_cells, width);
        for r in 0..t.n_rows() {
            for c in 0..t.n_cols() {
                let idx = r * t.n_cols() + c;
                let row = x.row_mut(idx);
                for (vi, verdict) in verdicts.iter().enumerate() {
                    row[vi] = f64::from(verdict.get(r, c));
                }
                featurizer.features_into(t, r, c, &mut row[self.base.len()..]);
            }
        }

        // Oracle-labelled training sample within the labelling budget,
        // stratified toward cells that at least one detector flagged so the
        // dirty class is represented.
        let mut rng = StdRng::seed_from_u64(ctx.seed);
        let flagged: Vec<usize> = (0..n_cells)
            .filter(|&i| verdicts.iter().any(|v| v.get(i / t.n_cols(), i % t.n_cols())))
            .collect();
        let unflagged: Vec<usize> =
            (0..n_cells).filter(|&i| flagged.binary_search(&i).is_err()).collect();
        let budget = ctx.labeling_budget.max(8).min(n_cells);
        let mut sample: Vec<usize> = Vec::with_capacity(budget);
        let half = budget / 2;
        let pick = |src: &[usize], k: usize, rng: &mut StdRng, out: &mut Vec<usize>| {
            let mut idx: Vec<usize> = src.to_vec();
            idx.shuffle(rng);
            out.extend(idx.into_iter().take(k));
        };
        pick(&flagged, half, &mut rng, &mut sample);
        pick(&unflagged, budget - sample.len(), &mut rng, &mut sample);

        let labels: Vec<usize> = sample
            .iter()
            .map(|&i| {
                let cell = CellRef::new(i / t.n_cols(), i % t.n_cols());
                usize::from(oracle.is_dirty(cell))
            })
            .collect();
        if labels.iter().all(|&l| l == 0) || labels.iter().all(|&l| l == 1) {
            // Degenerate sample: fall back to the strongest base signal
            // (majority vote of the suite).
            let mut mask = CellMask::new(t.n_rows(), t.n_cols());
            for r in 0..t.n_rows() {
                for c in 0..t.n_cols() {
                    let votes = verdicts.iter().filter(|v| v.get(r, c)).count();
                    if votes * 2 >= 3 {
                        mask.set(r, c, true);
                    }
                }
            }
            return mask;
        }

        let xs = rein_ml::encode::select_matrix_rows(&x, &sample);
        let mut model = RandomForestClassifier::new(
            ForestParams { n_trees: 20, ..Default::default() },
            ctx.seed,
        );
        model.fit(&xs, &labels, 2);

        let preds = model.predict(&x);
        let mut mask = CellMask::new(t.n_rows(), t.n_cols());
        for (i, &p) in preds.iter().enumerate() {
            if p == 1 {
                mask.set(i / t.n_cols(), i % t.n_cols(), true);
            }
        }
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Oracle;
    use rein_data::diff::diff_mask;
    use rein_data::{ColumnMeta, ColumnType, Schema, Table, Value};
    use rein_stats::evaluate_detection;

    fn dirty_dataset() -> (Table, Table) {
        let schema = Schema::new(vec![
            ColumnMeta::new("x", ColumnType::Float),
            ColumnMeta::new("c", ColumnType::Str),
        ]);
        let clean = Table::from_rows(
            schema,
            (0..200)
                .map(|i| vec![Value::Float(10.0 + (i % 6) as f64), Value::str(["a", "b"][i % 2])])
                .collect(),
        );
        let mut dirty = clean.clone();
        for i in 0..12 {
            dirty.set_cell(i * 16, 0, Value::Float(700.0 + i as f64));
        }
        for i in 0..6 {
            dirty.set_cell(i * 31 + 3, 1, Value::Null);
        }
        (clean, dirty)
    }

    #[test]
    fn learns_from_oracle_labels() {
        let (clean, dirty) = dirty_dataset();
        let actual = diff_mask(&clean, &dirty);
        let oracle = Oracle::new(actual.clone());
        let ctx = DetectContext {
            oracle: Some(&oracle),
            labeling_budget: 40,
            seed: 5,
            ..DetectContext::bare(&dirty)
        };
        let m = MetadataDriven::default().detect(&ctx);
        let q = evaluate_detection(&m, &actual);
        assert!(q.f1 > 0.7, "f1 {}", q.f1);
        assert!(oracle.queries_used() <= 40);
    }

    #[test]
    fn without_oracle_no_detections() {
        let (_, dirty) = dirty_dataset();
        assert!(MetadataDriven::default().detect(&DetectContext::bare(&dirty)).is_empty());
    }
}
