//! ML-oriented repair methods (category II of Table 1): their output is a
//! trained model, not a repaired table — ActiveClean, BoostClean and
//! CPClean, evaluated under scenario S5.

use rand::prelude::*;
use rand::rngs::StdRng;
use rein_data::{CellMask, Table};
use rein_ml::encode::{select_matrix_rows, Encoder, LabelMap};
use rein_ml::knn::KnnClassifier;
use rein_ml::linalg::Matrix;
use rein_ml::model::Classifier;
use rein_ml::sgd::{SgdClassifier, SgdParams};
use rein_ml::tree::{DecisionTreeClassifier, TreeParams};

use crate::context::{RepairContext, RepairOutcome, Repairer, TrainedPipeline};

fn feature_cols(t: &Table, label_col: usize) -> Vec<usize> {
    (0..t.n_cols()).filter(|&c| c != label_col).collect()
}

fn dirty_rows(det: &CellMask, n_rows: usize, n_cols: usize) -> Vec<usize> {
    (0..n_rows).filter(|&r| (0..n_cols).any(|c| det.get(r, c))).collect()
}

/// Applies the ground truth to all detected cells of the given rows
/// (the cleaning oracle the paper simulates for these methods).
fn oracle_clean_rows(table: &mut Table, clean: &Table, det: &CellMask, rows: &[usize]) {
    for &r in rows {
        if r >= clean.n_rows() {
            continue;
        }
        for c in 0..table.n_cols() {
            if det.get(r, c) {
                table.set_cell(r, c, clean.cell(r, c).clone());
            }
        }
    }
}

/// ActiveClean (Krishnan et al.): starts from a model trained on the clean
/// partition, then iteratively samples dirty records, has the oracle clean
/// them, and updates the convex model with further SGD passes over the
/// cleaned data — progressive cleaning along the steepest descent.
#[derive(Debug, Clone)]
pub struct ActiveClean {
    /// Records cleaned per iteration.
    pub batch: usize,
    /// Number of cleaning iterations.
    pub iterations: usize,
}

impl Default for ActiveClean {
    fn default() -> Self {
        Self { batch: 10, iterations: 5 }
    }
}

impl Repairer for ActiveClean {
    fn name(&self) -> &'static str {
        "activeclean"
    }

    fn repair(&self, ctx: &RepairContext<'_>) -> RepairOutcome {
        let _span = rein_telemetry::span("repair:ml_oriented");
        let t = ctx.dirty;
        #[expect(
            clippy::expect_used,
            reason = "documented precondition: ActiveClean only runs on labelled datasets"
        )]
        let label_col = ctx.label_col.expect("ActiveClean requires a label column");
        let feats = feature_cols(t, label_col);
        let labels = LabelMap::fit([t], label_col);
        let encoder = Encoder::fit(t, &feats);

        let dirty_set = dirty_rows(ctx.detections, t.n_rows(), t.n_cols());
        let clean_fraction: Vec<usize> =
            (0..t.n_rows()).filter(|r| !dirty_set.contains(r)).collect();

        // Working table that gets progressively cleaned.
        let mut working = t.clone();
        let mut available: Vec<usize> = dirty_set.clone();
        let mut rng = StdRng::seed_from_u64(ctx.seed);
        available.shuffle(&mut rng);

        // The paper notes ActiveClean fails when no clean partition covers
        // all classes; we warm-start on whatever clean fraction exists and
        // fall back to the dirty data when it is empty.
        let mut train_rows: Vec<usize> =
            if clean_fraction.is_empty() { (0..t.n_rows()).collect() } else { clean_fraction };

        let mut model = SgdClassifier::new(SgdParams::default(), ctx.seed);
        // One fixed encoder (fitted on the dirty data) keeps the feature
        // space stable across cleaning iterations and at deployment.
        let fit = |model: &mut SgdClassifier, working: &Table, rows: &[usize]| {
            let x = encoder.transform(working);
            let (kept, y) = labels.encode(working, label_col);
            let keep: Vec<(usize, usize)> = kept
                .iter()
                .zip(&y)
                .filter(|(r, _)| rows.contains(r))
                .map(|(&r, &v)| (r, v))
                .collect();
            if keep.is_empty() {
                return;
            }
            let rows2: Vec<usize> = keep.iter().map(|(r, _)| *r).collect();
            let ys: Vec<usize> = keep.iter().map(|(_, v)| *v).collect();
            let xs = select_matrix_rows(&x, &rows2);
            model.fit(&xs, &ys, labels.n_classes());
        };
        fit(&mut model, &working, &train_rows);

        if let Some(clean) = ctx.clean {
            let budget = ctx.label_budget.max(self.batch);
            let mut used = 0usize;
            for _ in 0..self.iterations {
                rein_guard::checkpoint(self.batch as u64);
                if available.is_empty() || used >= budget {
                    break;
                }
                let take = self.batch.min(available.len()).min(budget - used);
                let batch: Vec<usize> = available.split_off(available.len() - take);
                used += take;
                oracle_clean_rows(&mut working, clean, ctx.detections, &batch);
                train_rows.extend(batch);
                fit(&mut model, &working, &train_rows);
            }
        }

        RepairOutcome::Model(TrainedPipeline {
            model: Box::new(model),
            encoder,
            labels,
            feature_cols: feats,
            label_col,
        })
    }
}

/// An AdaBoost-style ensemble of trees trained on different repaired data
/// versions (BoostClean's strong learner).
pub struct BoostEnsemble {
    learners: Vec<(DecisionTreeClassifier, f64)>,
    n_classes: usize,
}

impl Classifier for BoostEnsemble {
    fn fit(&mut self, _x: &Matrix, _y: &[usize], _n: usize) {
        // Trained by BoostClean itself; refitting is not meaningful.
    }

    fn predict(&self, x: &Matrix) -> Vec<usize> {
        if self.learners.is_empty() {
            return vec![0; x.rows()];
        }
        (0..x.rows())
            .map(|r| {
                let mut scores = vec![0.0; self.n_classes];
                for (tree, alpha) in &self.learners {
                    scores[rein_ml::linalg::argmax(tree.proba_row(x.row(r)))] += alpha;
                }
                rein_ml::linalg::argmax(&scores)
            })
            .collect()
    }
}

/// BoostClean (Krishnan et al.): treats error correction as statistical
/// boosting. Each round trains a weak learner on every candidate repaired
/// version of the training data (detector × repair pairs) and keeps the
/// one minimising the weighted validation error; the weak learners are
/// combined à la AdaBoost.
#[derive(Debug, Clone)]
pub struct BoostClean {
    /// Boosting rounds.
    pub rounds: usize,
}

impl Default for BoostClean {
    fn default() -> Self {
        Self { rounds: 5 }
    }
}

impl Repairer for BoostClean {
    fn name(&self) -> &'static str {
        "boostclean"
    }

    fn repair(&self, ctx: &RepairContext<'_>) -> RepairOutcome {
        let _span = rein_telemetry::span("repair:ml_oriented");
        let t = ctx.dirty;
        #[expect(
            clippy::expect_used,
            reason = "documented precondition: BoostClean only runs on labelled datasets"
        )]
        let label_col = ctx.label_col.expect("BoostClean requires a label column");
        let feats = feature_cols(t, label_col);
        let labels = LabelMap::fit([t], label_col);
        let encoder = Encoder::fit(t, &feats);

        // Candidate repaired versions from the generic repair library.
        let candidates: Vec<Table> = {
            use crate::generic::StandardImpute;
            let mut out = vec![t.clone()]; // "no repair" candidate
            for rep in [
                StandardImpute::mean_mode(),
                StandardImpute::median_mode(),
                StandardImpute::mode_mode(),
            ] {
                if let RepairOutcome::Repaired { table, .. } =
                    rep.repair(&RepairContext::new(t, ctx.detections))
                {
                    out.push(table);
                }
            }
            out
        };

        // Shared label encoding (row-aligned across candidates).
        let (rows, y) = labels.encode(t, label_col);
        if rows.len() < 10 || labels.n_classes() < 2 {
            // Degenerate: train a plain tree on the dirty data.
            let x = encoder.transform(t);
            let xs = select_matrix_rows(&x, &rows);
            let mut tree = DecisionTreeClassifier::new(TreeParams::default());
            tree.fit(&xs, &y, labels.n_classes().max(2));
            return RepairOutcome::Model(TrainedPipeline {
                model: Box::new(BoostEnsemble {
                    learners: vec![(tree, 1.0)],
                    n_classes: labels.n_classes().max(2),
                }),
                encoder,
                labels,
                feature_cols: feats,
                label_col,
            });
        }
        let n_classes = labels.n_classes();
        let k = n_classes as f64;
        // Encoded features per candidate version (aligned rows).
        let encoded: Vec<Matrix> = candidates
            .iter()
            .map(|cand| {
                let enc = Encoder::fit(cand, &feats);
                let x = enc.transform(cand);
                select_matrix_rows(&x, &rows)
            })
            .collect();

        let n = rows.len();
        let mut weights = vec![1.0 / n as f64; n];
        let mut learners: Vec<(DecisionTreeClassifier, f64)> = Vec::new();
        for round in 0..self.rounds {
            rein_guard::checkpoint(n as u64);
            // Train one weak learner per candidate; keep the best.
            let mut best: Option<(DecisionTreeClassifier, f64, Vec<usize>)> = None;
            for x in &encoded {
                let mut tree = DecisionTreeClassifier::new(TreeParams {
                    max_depth: 3,
                    seed: round as u64,
                    ..Default::default()
                });
                tree.fit(x, &y, n_classes);
                let preds = tree.predict(x);
                let err: f64 = weights
                    .iter()
                    .zip(preds.iter().zip(&y))
                    .filter(|(_, (p, t))| p != t)
                    .map(|(w, _)| w)
                    .sum();
                if best.as_ref().is_none_or(|(_, e, _)| err < *e) {
                    best = Some((tree, err, preds));
                }
            }
            #[expect(clippy::expect_used, reason = "the candidate loop always runs at least once")]
            let (tree, err, preds) = best.expect("candidates non-empty");
            let err = err.clamp(1e-10, 1.0);
            if err >= 1.0 - 1.0 / k {
                break;
            }
            let alpha = ((1.0 - err) / err).ln() + (k - 1.0).ln();
            for (w, (p, t)) in weights.iter_mut().zip(preds.iter().zip(&y)) {
                if p != t {
                    *w *= alpha.exp().min(1e12);
                }
            }
            let total: f64 = weights.iter().sum();
            weights.iter_mut().for_each(|w| *w /= total);
            learners.push((tree, alpha));
            if err < 1e-8 {
                break;
            }
        }

        RepairOutcome::Model(TrainedPipeline {
            model: Box::new(BoostEnsemble { learners, n_classes }),
            encoder,
            labels,
            feature_cols: feats,
            label_col,
        })
    }
}

/// CPClean (Karlaš et al.): incremental cleaning until the k-NN model's
/// predictions are *certain* — cleaning a training row can no longer flip
/// any validation prediction. Greedily cleans the dirty rows that appear
/// in the most uncertain neighbourhoods.
#[derive(Debug, Clone)]
pub struct CpClean {
    /// k of the underlying k-NN classifier.
    pub k: usize,
}

impl Default for CpClean {
    fn default() -> Self {
        Self { k: 3 }
    }
}

impl Repairer for CpClean {
    fn name(&self) -> &'static str {
        "cpclean"
    }

    fn repair(&self, ctx: &RepairContext<'_>) -> RepairOutcome {
        let _span = rein_telemetry::span("repair:ml_oriented");
        let t = ctx.dirty;
        #[expect(
            clippy::expect_used,
            reason = "documented precondition: CPClean only runs on labelled datasets"
        )]
        let label_col = ctx.label_col.expect("CPClean requires a label column");
        let feats = feature_cols(t, label_col);
        let labels = LabelMap::fit([t], label_col);

        let mut working = t.clone();
        let dirty_set = dirty_rows(ctx.detections, t.n_rows(), t.n_cols());

        if let Some(clean) = ctx.clean {
            // Validation split for certainty checking.
            let split = rein_data::split::train_test_indices(t.n_rows(), 0.2, ctx.seed);
            let mut budget = ctx.label_budget;
            let mut remaining: Vec<usize> =
                dirty_set.iter().copied().filter(|r| split.train.contains(r)).collect();
            while budget > 0 && !remaining.is_empty() {
                // Certainty check: which validation points have a dirty row
                // among their k nearest training rows?
                let enc = Encoder::fit(&working, &feats);
                let x = enc.transform(&working);
                let mut influence: std::collections::BTreeMap<usize, usize> = Default::default();
                for &v in &split.test {
                    let mut dists: Vec<(f64, usize)> = split
                        .train
                        .iter()
                        .map(|&tr| (rein_ml::linalg::sq_dist(x.row(v), x.row(tr)), tr))
                        .collect();
                    let kk = self.k.min(dists.len());
                    if kk == 0 {
                        continue;
                    }
                    dists.select_nth_unstable_by(kk - 1, |a, b| a.0.total_cmp(&b.0));
                    for &(_, tr) in &dists[..kk] {
                        if remaining.contains(&tr) {
                            *influence.entry(tr).or_insert(0) += 1;
                        }
                    }
                }
                if influence.is_empty() {
                    break; // predictions are certain
                }
                // Clean the most influential dirty rows this round.
                let mut ranked: Vec<(usize, usize)> = influence.into_iter().collect();
                ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                let take = ranked.len().min(budget).min(8);
                let batch: Vec<usize> = ranked.into_iter().take(take).map(|(r, _)| r).collect();
                budget -= batch.len();
                oracle_clean_rows(&mut working, clean, ctx.detections, &batch);
                remaining.retain(|r| !batch.contains(r));
            }
        }

        // Final k-NN model on the (partially) cleaned data.
        let encoder = Encoder::fit(&working, &feats);
        let x = encoder.transform(&working);
        let (rows, y) = labels.encode(&working, label_col);
        let xs = select_matrix_rows(&x, &rows);
        let mut model = KnnClassifier::new(self.k);
        model.fit(&xs, &y, labels.n_classes().max(2));
        RepairOutcome::Model(TrainedPipeline {
            model: Box::new(model),
            encoder,
            labels,
            feature_cols: feats,
            label_col,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rein_data::diff::diff_mask;
    use rein_data::{ColumnMeta, ColumnType, Schema, Value};

    /// Separable classification data with feature corruption.
    fn dataset() -> (Table, Table, CellMask) {
        let schema = Schema::new(vec![
            ColumnMeta::new("x1", ColumnType::Float),
            ColumnMeta::new("x2", ColumnType::Float),
            ColumnMeta::new("y", ColumnType::Str).label(),
        ]);
        let clean = Table::from_rows(
            schema,
            (0..160)
                .map(|i| {
                    let pos = i % 2 == 0;
                    let base = if pos { 8.0 } else { -8.0 };
                    vec![
                        Value::Float(base + (i % 7) as f64 * 0.1),
                        Value::Float(base - (i % 5) as f64 * 0.1),
                        Value::str(if pos { "pos" } else { "neg" }),
                    ]
                })
                .collect(),
        );
        let mut dirty = clean.clone();
        // Corrupt 25% of x1 so the dirty model is hurt.
        for i in 0..40 {
            dirty.set_cell(i * 4, 0, Value::Float(if i % 2 == 0 { -100.0 } else { 100.0 }));
        }
        let det = diff_mask(&clean, &dirty);
        (clean, dirty, det)
    }

    #[test]
    fn activeclean_improves_with_oracle() {
        let (clean, dirty, det) = dataset();
        let ctx = RepairContext {
            clean: Some(&clean),
            label_col: Some(2),
            label_budget: 40,
            ..RepairContext::new(&dirty, &det)
        };
        let out = ActiveClean::default().repair(&ctx);
        match out {
            RepairOutcome::Model(p) => {
                let f1 = p.f1_on(&clean);
                assert!(f1 > 0.85, "f1 {f1}");
            }
            _ => panic!("expected model"),
        }
    }

    #[test]
    fn boostclean_produces_working_ensemble() {
        let (clean, dirty, det) = dataset();
        let ctx = RepairContext {
            clean: Some(&clean),
            label_col: Some(2),
            ..RepairContext::new(&dirty, &det)
        };
        let out = BoostClean::default().repair(&ctx);
        match out {
            RepairOutcome::Model(p) => {
                let f1 = p.f1_on(&clean);
                assert!(f1 > 0.8, "f1 {f1}");
            }
            _ => panic!("expected model"),
        }
    }

    #[test]
    fn cpclean_cleans_influential_rows_first() {
        let (clean, dirty, det) = dataset();
        let ctx = RepairContext {
            clean: Some(&clean),
            label_col: Some(2),
            label_budget: 30,
            ..RepairContext::new(&dirty, &det)
        };
        let out = CpClean::default().repair(&ctx);
        match out {
            RepairOutcome::Model(p) => {
                let f1 = p.f1_on(&clean);
                assert!(f1 > 0.8, "f1 {f1}");
            }
            _ => panic!("expected model"),
        }
    }

    #[test]
    fn methods_work_without_oracle_as_dirty_baseline() {
        let (_, dirty, det) = dataset();
        for (name, out) in [
            (
                "activeclean",
                ActiveClean::default().repair(&RepairContext {
                    label_col: Some(2),
                    ..RepairContext::new(&dirty, &det)
                }),
            ),
            (
                "cpclean",
                CpClean::default().repair(&RepairContext {
                    label_col: Some(2),
                    ..RepairContext::new(&dirty, &det)
                }),
            ),
        ] {
            match out {
                RepairOutcome::Model(p) => {
                    let f1 = p.f1_on(&dirty);
                    assert!(f1 > 0.5, "{name} f1 {f1}");
                }
                _ => panic!("{name}: expected model"),
            }
        }
    }
}
