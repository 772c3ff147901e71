//! The evaluation module: runs detectors and repairers with their proper
//! signals, measures quality and runtime, and trains/evaluates ML models
//! on data versions under the S1–S5 scenarios.

use std::fmt::Write;
use std::time::Duration;

use rein_data::rng::derive_seed;
use rein_data::{CellMask, Table};
use rein_datasets::GeneratedDataset;
use rein_detect::{DetectContext, DetectorKind, KnowledgeBase, Oracle};
use rein_guard::{GuardPolicy, GuardSpec, Phase, StrategyFailure};
use rein_ml::encode::{regression_target_rows, Encoder, LabelMap};
use rein_ml::model::{ClassifierKind, ClustererKind, RegressorKind};
use rein_repair::{RepairContext, RepairKind, RepairOutcome, TrainedPipeline};
use rein_stats::repair_quality::RmseReport;
use rein_stats::{evaluate_detection, DetectionQuality};

use crate::scenario::{Scenario, VersionRole};

/// Default labelling budget handed to ML-supported detectors.
pub const DEFAULT_LABEL_BUDGET: usize = 100;

/// Holds the owned signals a [`DetectContext`] borrows.
pub struct DetectorHarness {
    kb: KnowledgeBase,
    oracle: Oracle,
    label_col: Option<usize>,
    budget: usize,
    seed: u64,
    policy: GuardPolicy,
}

impl DetectorHarness {
    /// Builds the harness for a dataset: KB simulated from the ground
    /// truth, oracle backed by the exact error mask. Supervision uses the
    /// default [`GuardPolicy`]; see [`DetectorHarness::with_policy`].
    pub fn new(ds: &GeneratedDataset, budget: usize, seed: u64) -> Self {
        Self {
            kb: KnowledgeBase::from_reference(&ds.clean),
            oracle: Oracle::new(ds.mask.clone()),
            label_col: ds.clean.schema().label_index(),
            budget,
            seed,
            policy: GuardPolicy::default(),
        }
    }

    /// Replaces the supervision policy (chaos injection, retry and
    /// budget knobs).
    pub fn with_policy(mut self, policy: GuardPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The detect context over a dataset's dirty table.
    pub fn context<'a>(&'a self, ds: &'a GeneratedDataset) -> DetectContext<'a> {
        self.context_seeded(ds, self.seed)
    }

    /// The detect context with an explicit seed (guarded retries derive
    /// fresh seeds per attempt).
    fn context_seeded<'a>(&'a self, ds: &'a GeneratedDataset, seed: u64) -> DetectContext<'a> {
        DetectContext {
            dirty: &ds.dirty,
            fds: &ds.fds,
            dcs: &[],
            kb: Some(&self.kb),
            key_columns: &ds.key_columns,
            oracle: Some(&self.oracle),
            label_col: self.label_col,
            labeling_budget: self.budget,
            seed,
        }
    }

    /// Runs one detector under guard, returning its mask, quality,
    /// runtime and ticks. The detection runs inside `rein_guard::run`: a
    /// panicking or budget-exhausted detector degrades to an empty mask
    /// with a populated [`DetectorRun::failure`] instead of aborting the
    /// run. The guard opens the `detect:<name>` telemetry span; the
    /// reported runtime is that span's duration.
    pub fn run(&self, ds: &GeneratedDataset, kind: DetectorKind) -> DetectorRun {
        let rows = ds.dirty.n_rows();
        let cols = ds.dirty.n_cols();
        let spec = GuardSpec {
            phase: Phase::Detect,
            strategy: kind.name(),
            dataset: &ds.info.name,
            scope: "",
            cells: (rows * cols) as u64,
            seed: self.seed,
        };
        let report = rein_guard::run(
            &spec,
            &self.policy,
            |attempt_seed| {
                let ctx = self.context_seeded(ds, attempt_seed);
                kind.build().detect(&ctx)
            },
            |mask| {
                if mask.rows() == rows && mask.cols() == cols {
                    Ok(())
                } else {
                    Err(format!(
                        "mask shape {}x{} does not match table {rows}x{cols}",
                        mask.rows(),
                        mask.cols()
                    ))
                }
            },
            |mask| *mask = CellMask::new(0, 0),
        );
        rein_telemetry::counter("detector_invocations").incr();
        rein_telemetry::counter("cells_scanned").add((rows * cols) as u64);
        rein_telemetry::histogram("detector_runtime").record(report.elapsed);
        let (runtime, ticks) = (report.elapsed, report.ticks);
        match report.outcome {
            Ok(mask) => {
                let quality = evaluate_detection(&mask, &ds.mask);
                DetectorRun { kind, mask, quality, runtime, ticks, failure: None }
            }
            Err(failure) => {
                // Degrade to "detected nothing": the cell stays in the
                // grid with zero recall rather than silently vanishing.
                let mask = CellMask::new(rows, cols);
                let quality = evaluate_detection(&mask, &ds.mask);
                DetectorRun { kind, mask, quality, runtime, ticks, failure: Some(failure) }
            }
        }
    }
}

/// Runs one detector under guard over an explicitly-built context (the
/// ablation binaries construct bespoke contexts instead of using the
/// harness). Returns the mask or the structured failure, plus the
/// guarded runtime.
pub fn detect_with_context(
    kind: DetectorKind,
    ctx: &DetectContext<'_>,
    dataset: &str,
    policy: &GuardPolicy,
) -> (Result<CellMask, StrategyFailure>, Duration) {
    let rows = ctx.dirty.n_rows();
    let cols = ctx.dirty.n_cols();
    let spec = GuardSpec {
        phase: Phase::Detect,
        strategy: kind.name(),
        dataset,
        scope: "",
        cells: (rows * cols) as u64,
        seed: ctx.seed,
    };
    let report = rein_guard::run(
        &spec,
        policy,
        |attempt_seed| {
            let attempt_ctx = DetectContext {
                dirty: ctx.dirty,
                fds: ctx.fds,
                dcs: ctx.dcs,
                kb: ctx.kb,
                key_columns: ctx.key_columns,
                oracle: ctx.oracle,
                label_col: ctx.label_col,
                labeling_budget: ctx.labeling_budget,
                seed: attempt_seed,
            };
            kind.build().detect(&attempt_ctx)
        },
        |mask| {
            if mask.rows() == rows && mask.cols() == cols {
                Ok(())
            } else {
                Err(format!(
                    "mask shape {}x{} does not match table {rows}x{cols}",
                    mask.rows(),
                    mask.cols()
                ))
            }
        },
        |mask| *mask = CellMask::new(0, 0),
    );
    (report.outcome, report.elapsed)
}

/// One detector execution.
pub struct DetectorRun {
    /// Which detector ran.
    pub kind: DetectorKind,
    /// Its detection mask (empty when the detector degraded).
    pub mask: CellMask,
    /// Cell-level quality vs the ground truth.
    pub quality: DetectionQuality,
    /// Wall-clock runtime.
    pub runtime: Duration,
    /// Guard ticks the detector debited ([`rein_guard::GuardReport::ticks`]):
    /// its runtime as a deterministic cost. Zero for a replayed run. It
    /// enters no payload, key, record or manifest.
    pub ticks: u64,
    /// The structured failure when the detector degraded under guard.
    pub failure: Option<StrategyFailure>,
}

/// Rebuilds a [`DetectorRun`] from a stored detection mask (a durable
/// store hit): quality is recomputed against the ground truth — it is a
/// pure function of the mask, so the replayed run is observably
/// equivalent to the original except for `runtime` and `ticks`, which
/// are zero because nothing executed. A replayed run never carries a failure:
/// the store only ever holds the mask the original run committed, and
/// a degraded run's empty mask replays as exactly that empty mask.
pub fn replay_detector_run(
    ds: &GeneratedDataset,
    kind: DetectorKind,
    mask: CellMask,
) -> DetectorRun {
    let quality = evaluate_detection(&mask, &ds.mask);
    DetectorRun { kind, mask, quality, runtime: Duration::ZERO, ticks: 0, failure: None }
}

/// A data version aligned to the clean-row space: `row_map[i]` is the
/// clean-row index of version row `i` (indices `>= clean.n_rows()` denote
/// injected duplicate rows).
#[derive(Debug, Clone)]
pub struct VersionTable {
    /// The data version.
    pub table: Table,
    /// Version-row → clean-row mapping.
    pub row_map: Vec<usize>,
}

impl VersionTable {
    /// Identity-mapped version (dirty table or ground truth).
    pub fn identity(table: Table) -> Self {
        let row_map = (0..table.n_rows()).collect();
        Self { table, row_map }
    }

    /// Content identity of this version: the ledger's 16-hex FNV-1a key
    /// over the CSV bytes and the row map ([`version_identity`]). This
    /// is the `dataset_version` component of a
    /// [`crate::cache_key::CellKey`] — two versions with identical
    /// bytes share an identity no matter which repair produced them.
    pub fn content_identity(&self) -> String {
        version_identity(&rein_data::csv::write_str(&self.table), &self.row_map)
    }
}

/// Content identity of a bare table as an identity-mapped version —
/// byte-equal to `VersionTable::identity(table.clone()).content_identity()`
/// without cloning the table. The controller uses this for the dirty
/// table's identity when deriving detection/repair cell trace ids.
pub fn table_identity(table: &Table) -> String {
    let row_map: Vec<usize> = (0..table.n_rows()).collect();
    version_identity(&rein_data::csv::write_str(table), &row_map)
}

/// A version's identity from its already-rendered CSV: `v:` and the
/// 16-hex FNV-1a-64 of the CSV bytes, a newline and the row map's
/// `Debug` text, streamed into the hash without joining them. A caller
/// that renders the CSV anyway (a repair cell's payload) renders it
/// once for both.
pub(crate) fn version_identity(csv: &str, row_map: &[usize]) -> String {
    let mut hash = rein_ledger::Fnv1a64::default();
    hash.write_bytes(csv.as_bytes());
    #[expect(clippy::let_underscore_must_use, reason = "the sink never fails")]
    let _ = write!(hash, "\n{row_map:?}");
    format!("v:{:016x}", hash.finish())
}

/// One repair execution: either a repaired version or a trained pipeline.
pub struct RepairRun {
    /// Which repairer ran.
    pub kind: RepairKind,
    /// Repaired version (generic methods).
    pub version: Option<VersionTable>,
    /// Cells the repairer modified.
    pub repaired_cells: Option<CellMask>,
    /// Trained pipeline (ML-oriented methods).
    pub pipeline: Option<TrainedPipeline>,
    /// Wall-clock runtime.
    pub runtime: Duration,
    /// Guard ticks the repairer debited ([`rein_guard::GuardReport::ticks`]),
    /// as [`DetectorRun::ticks`].
    pub ticks: u64,
    /// The structured failure when the repairer degraded under guard.
    pub failure: Option<StrategyFailure>,
}

/// Runs one repairer on the detections of a detector with the default
/// supervision policy.
pub fn run_repair(
    ds: &GeneratedDataset,
    detections: &CellMask,
    kind: RepairKind,
    seed: u64,
) -> RepairRun {
    run_repair_guarded(ds, detections, kind, seed, "", &GuardPolicy::default())
}

/// Runs one repairer under guard. `detector_scope` names the detector
/// whose mask feeds this repair so chaos rules (and failure records) can
/// target a single grid cell; pass `""` outside the grid. A panicking or
/// budget-exhausted repairer degrades to a no-op version (the dirty
/// table, identity row map, zero repaired cells) with a populated
/// [`RepairRun::failure`]. The budget is sized from the dirty table's
/// rows × cols, as a detect or eval cell's is, whatever the mask flags:
/// the imputers' work grows with the table, not the detections.
pub fn run_repair_guarded(
    ds: &GeneratedDataset,
    detections: &CellMask,
    kind: RepairKind,
    seed: u64,
    detector_scope: &str,
    policy: &GuardPolicy,
) -> RepairRun {
    let spec = GuardSpec {
        phase: Phase::Repair,
        strategy: kind.name(),
        dataset: &ds.info.name,
        scope: detector_scope,
        cells: (ds.dirty.n_rows() * ds.dirty.n_cols()) as u64,
        seed,
    };
    let report = rein_guard::run(
        &spec,
        policy,
        |attempt_seed| {
            let ctx = RepairContext {
                dirty: &ds.dirty,
                detections,
                clean: Some(&ds.clean),
                fds: &ds.fds,
                label_col: ds.clean.schema().label_index(),
                label_budget: 50,
                seed: attempt_seed,
            };
            kind.build().repair(&ctx)
        },
        |outcome| match outcome {
            RepairOutcome::Repaired { table, row_map, .. } => {
                if table.n_rows() != row_map.len() {
                    Err(format!(
                        "row map length {} does not match repaired table rows {}",
                        row_map.len(),
                        table.n_rows()
                    ))
                } else if table.n_cols() != ds.dirty.n_cols() {
                    Err(format!(
                        "repaired table has {} columns, dirty table has {}",
                        table.n_cols(),
                        ds.dirty.n_cols()
                    ))
                } else {
                    Ok(())
                }
            }
            RepairOutcome::Model(_) => Ok(()),
        },
        |outcome| {
            if let RepairOutcome::Repaired { row_map, .. } = outcome {
                // Shear the row map so the validator rejects the output.
                row_map.clear();
            }
        },
    );
    rein_telemetry::counter("repair_applications").incr();
    rein_telemetry::histogram("repair_runtime").record(report.elapsed);
    let (runtime, ticks) = (report.elapsed, report.ticks);
    match report.outcome {
        Ok(RepairOutcome::Repaired { table, repaired_cells, row_map }) => {
            rein_telemetry::counter("cells_repaired").add(repaired_cells.count() as u64);
            RepairRun {
                kind,
                version: Some(VersionTable { table, row_map }),
                repaired_cells: Some(repaired_cells),
                pipeline: None,
                runtime,
                ticks,
                failure: None,
            }
        }
        Ok(RepairOutcome::Model(p)) => RepairRun {
            kind,
            version: None,
            repaired_cells: None,
            pipeline: Some(p),
            runtime,
            ticks,
            failure: None,
        },
        Err(failure) => {
            // Degrade to "repaired nothing": the version is the dirty
            // table unchanged so downstream evaluation still runs.
            let rows = ds.dirty.n_rows();
            let cols = ds.dirty.n_cols();
            RepairRun {
                kind,
                version: Some(VersionTable::identity(ds.dirty.clone())),
                repaired_cells: Some(CellMask::new(rows, cols)),
                pipeline: None,
                runtime,
                ticks,
                failure: Some(failure),
            }
        }
    }
}

/// Categorical repair quality of a repaired version (paper §6.1).
pub fn repair_quality_categorical(
    ds: &GeneratedDataset,
    run: &RepairRun,
) -> Option<DetectionQuality> {
    let version = run.version.as_ref()?;
    let repaired_cells = run.repaired_cells.as_ref()?;
    // Quality is defined on same-shape repairs; row-dropping methods
    // (Delete) have no cell-wise repair accuracy.
    if version.table.n_rows() != ds.dirty.n_rows() {
        return None;
    }
    let cols = ds.clean.schema().categorical_indices();
    Some(rein_stats::categorical_repair_quality(
        &ds.dirty,
        &version.table,
        &ds.clean,
        repaired_cells,
        &ds.mask,
        &cols,
    ))
}

/// Numerical RMSE of a repaired version over the actually-erroneous cells,
/// plus the dirty baseline (the red dashed line of Figure 5).
pub fn repair_quality_numerical(
    ds: &GeneratedDataset,
    run: &RepairRun,
) -> Option<(RmseReport, RmseReport)> {
    let version = run.version.as_ref()?;
    if version.table.n_rows() != ds.dirty.n_rows() {
        return None;
    }
    let cols = ds.clean.schema().numeric_indices();
    let repaired = rein_stats::numerical_rmse(&version.table, &ds.clean, &ds.mask, &cols);
    let dirty = rein_stats::numerical_rmse(&ds.dirty, &ds.clean, &ds.mask, &cols);
    Some((repaired, dirty))
}

/// One side of a scenario split: a source table and the rows of it the
/// side reads.
pub type SplitSide<'a> = (&'a Table, Vec<usize>);

/// Resolves the `(train, test)` sides of a scenario given the version
/// under evaluation, each as a source table (the ground truth or the
/// version) and the rows of it that side reads, so no cell is copied.
/// Splitting happens in the clean-row space so train and test never
/// share an underlying record even across versions; injected duplicate
/// rows always go to the training side.
pub fn scenario_split<'a>(
    scenario: Scenario,
    ds: &'a GeneratedDataset,
    version: &'a VersionTable,
    test_fraction: f64,
    seed: u64,
) -> (SplitSide<'a>, SplitSide<'a>) {
    let n_clean = ds.clean.n_rows();
    let split = rein_data::split::train_test_indices(n_clean, test_fraction, seed);
    let in_test: Vec<bool> = {
        let mut v = vec![false; n_clean];
        for &r in &split.test {
            v[r] = true;
        }
        v
    };
    let side = |role: VersionRole, want_test: bool| match role {
        VersionRole::GroundTruth => {
            (&ds.clean, if want_test { split.test.clone() } else { split.train.clone() })
        }
        VersionRole::Version => {
            let rows = (0..version.table.n_rows())
                .filter(|&r| {
                    let orig = version.row_map[r];
                    if orig >= n_clean {
                        !want_test // duplicates train only
                    } else {
                        in_test[orig] == want_test
                    }
                })
                .collect();
            (&version.table, rows)
        }
    };
    let (train_role, test_role) = scenario.roles();
    (side(train_role, false), side(test_role, true))
}

/// Macro-F1 scores of a classifier over `repeats` seeded train/test splits
/// in the given scenario.
pub fn eval_classifier(
    scenario: Scenario,
    ds: &GeneratedDataset,
    version: &VersionTable,
    kind: ClassifierKind,
    repeats: usize,
    base_seed: u64,
) -> Vec<f64> {
    #[expect(
        clippy::expect_used,
        reason = "classification datasets carry a label column by construction"
    )]
    let label_col = ds.clean.schema().label_index().expect("classification dataset");
    let feature_cols = ds.clean.schema().feature_indices();
    let labels = LabelMap::fit([&ds.clean, &version.table], label_col);
    (0..repeats)
        .map(|rep| {
            let seed = derive_seed(base_seed, rep as u64);
            let ((train, train_rows), (test, test_rows)) =
                scenario_split(scenario, ds, version, 0.25, seed);
            let encoder = Encoder::fit_rows(train, &train_rows, &feature_cols);
            let (tr_rows, tr_y) = labels.encode_rows(train, &train_rows, label_col);
            let (te_rows, te_y) = labels.encode_rows(test, &test_rows, label_col);
            if tr_rows.is_empty() || te_rows.is_empty() {
                return f64::NAN;
            }
            let xtr = encoder.transform_rows(train, &tr_rows);
            let xte = encoder.transform_rows(test, &te_rows);
            let mut model = kind.build(seed);
            model.fit(&xtr, &tr_y, labels.n_classes());
            let preds = model.predict(&xte);
            rein_ml::classification_report(&te_y, &preds, labels.n_classes()).f1
        })
        .collect()
}

/// [`eval_classifier`] under guard: a panicking or budget-exhausted
/// model degrades to all-NaN scores (excluded from summaries) with the
/// structured failure returned alongside.
pub fn eval_classifier_guarded(
    scenario: Scenario,
    ds: &GeneratedDataset,
    version: &VersionTable,
    kind: ClassifierKind,
    repeats: usize,
    base_seed: u64,
    policy: &GuardPolicy,
) -> (Vec<f64>, Option<StrategyFailure>) {
    let spec = GuardSpec {
        phase: Phase::Model,
        strategy: kind.name(),
        dataset: &ds.info.name,
        scope: scenario.name(),
        cells: (version.table.n_rows() * version.table.n_cols()) as u64,
        seed: base_seed,
    };
    let report = rein_guard::run(
        &spec,
        policy,
        // audit:allow(seed-provenance, the closure seed is the guard's per-attempt derivation of the base_seed parameter)
        |seed| eval_classifier(scenario, ds, version, kind, repeats, seed),
        |scores| {
            if scores.len() == repeats {
                Ok(())
            } else {
                Err(format!("{} scores for {repeats} repeats", scores.len()))
            }
        },
        |scores| scores.clear(),
    );
    match report.outcome {
        Ok(scores) => (scores, None),
        Err(failure) => (vec![f64::NAN; repeats], Some(failure)),
    }
}

/// Test RMSE of a regressor over `repeats` splits in the given scenario.
pub fn eval_regressor(
    scenario: Scenario,
    ds: &GeneratedDataset,
    version: &VersionTable,
    kind: RegressorKind,
    repeats: usize,
    base_seed: u64,
) -> Vec<f64> {
    #[expect(
        clippy::expect_used,
        reason = "regression datasets carry a label column by construction"
    )]
    let label_col = ds.clean.schema().label_index().expect("regression dataset");
    let feature_cols = ds.clean.schema().feature_indices();
    (0..repeats)
        .map(|rep| {
            let seed = derive_seed(base_seed, rep as u64);
            let ((train, train_rows), (test, test_rows)) =
                scenario_split(scenario, ds, version, 0.25, seed);
            let encoder = Encoder::fit_rows(train, &train_rows, &feature_cols);
            let (tr_rows, tr_y) = regression_target_rows(train, &train_rows, label_col);
            let (te_rows, te_y) = regression_target_rows(test, &test_rows, label_col);
            if tr_rows.is_empty() || te_rows.is_empty() {
                return f64::NAN;
            }
            let xtr = encoder.transform_rows(train, &tr_rows);
            let xte = encoder.transform_rows(test, &te_rows);
            let mut model = kind.build(seed);
            model.fit(&xtr, &tr_y);
            rein_ml::rmse(&te_y, &model.predict(&xte))
        })
        .collect()
}

/// [`eval_regressor`] under guard; see [`eval_classifier_guarded`].
pub fn eval_regressor_guarded(
    scenario: Scenario,
    ds: &GeneratedDataset,
    version: &VersionTable,
    kind: RegressorKind,
    repeats: usize,
    base_seed: u64,
    policy: &GuardPolicy,
) -> (Vec<f64>, Option<StrategyFailure>) {
    let spec = GuardSpec {
        phase: Phase::Model,
        strategy: kind.name(),
        dataset: &ds.info.name,
        scope: scenario.name(),
        cells: (version.table.n_rows() * version.table.n_cols()) as u64,
        seed: base_seed,
    };
    let report = rein_guard::run(
        &spec,
        policy,
        // audit:allow(seed-provenance, the closure seed is the guard's per-attempt derivation of the base_seed parameter)
        |seed| eval_regressor(scenario, ds, version, kind, repeats, seed),
        |scores| {
            if scores.len() == repeats {
                Ok(())
            } else {
                Err(format!("{} scores for {repeats} repeats", scores.len()))
            }
        },
        |scores| scores.clear(),
    );
    match report.outcome {
        Ok(scores) => (scores, None),
        Err(failure) => (vec![f64::NAN; repeats], Some(failure)),
    }
}

/// Silhouette score of a clusterer on a data version. Methods requiring
/// `k` get the best silhouette over `k ∈ 2..=max_k` (the paper's
/// silhouette-driven choice of k); self-selecting methods run once.
pub fn eval_clusterer(table: &Table, kind: ClustererKind, max_k: usize, seed: u64) -> f64 {
    let feature_cols = table.schema().feature_indices();
    let encoder = Encoder::fit(table, &feature_cols);
    let x = encoder.transform(table);
    if x.rows() < 4 {
        return f64::NAN;
    }
    let self_selecting = matches!(kind, ClustererKind::AffinityPropagation | ClustererKind::Optics);
    if self_selecting {
        let labels = kind.build(2, seed).fit_predict(&x);
        return rein_ml::silhouette(&x, &labels);
    }
    (2..=max_k.max(2))
        .map(|k| {
            let labels = kind.build(k, seed).fit_predict(&x);
            rein_ml::silhouette(&x, &labels)
        })
        .fold(f64::NAN, |best, s| if best.is_nan() || s > best { s } else { best })
}

/// Evaluates an ML-oriented repairer's pipeline under scenario S5: F1 of
/// its model on a held-out slice of the dirty data.
pub fn eval_pipeline_s5(ds: &GeneratedDataset, pipeline: &TrainedPipeline, seed: u64) -> f64 {
    let split = rein_data::split::train_test_indices(ds.dirty.n_rows(), 0.25, seed);
    let test = ds.dirty.select_rows(&split.test);
    pipeline.f1_on(&test)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rein_datasets::{DatasetId, Params};

    fn small_beers() -> GeneratedDataset {
        DatasetId::Beers.generate(&Params::scaled(0.12, 7))
    }

    #[test]
    fn detector_harness_runs_and_scores() {
        let ds = small_beers();
        let h = DetectorHarness::new(&ds, 60, 1);
        let run = h.run(&ds, DetectorKind::MvDetector);
        assert!(run.quality.precision > 0.9, "MVD precision {}", run.quality.precision);
        assert!(run.runtime.as_secs() < 5);
        // RAHA (oracle-backed) should do well too.
        let raha = h.run(&ds, DetectorKind::Raha);
        assert!(raha.quality.f1 > 0.4, "raha f1 {}", raha.quality.f1);
    }

    #[test]
    fn repair_run_with_ground_truth_restores_clean() {
        let ds = small_beers();
        let run = run_repair(&ds, &ds.mask, RepairKind::GroundTruth, 1);
        let version = run.version.unwrap();
        assert_eq!(version.table, ds.clean);
    }

    #[test]
    fn scenario_split_never_leaks_rows() {
        let ds = small_beers();
        let version = VersionTable::identity(ds.dirty.clone());
        for scenario in [Scenario::S1, Scenario::S2, Scenario::S3, Scenario::S4] {
            let ((_, train), (_, test)) = scenario_split(scenario, &ds, &version, 0.25, 3);
            assert!(!train.is_empty() && !test.is_empty(), "{scenario:?}");
            // Train + test never exceed clean rows + duplicates.
            assert!(train.len() + test.len() <= ds.dirty.n_rows().max(ds.clean.n_rows()) + 1);
        }
    }

    #[test]
    fn s4_beats_dirty_s1_for_classification() {
        let ds = small_beers();
        let version = VersionTable::identity(ds.dirty.clone());
        let s1 = eval_classifier(Scenario::S1, &ds, &version, ClassifierKind::DecisionTree, 3, 5);
        let s4 = eval_classifier(Scenario::S4, &ds, &version, ClassifierKind::DecisionTree, 3, 5);
        let m = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(m(&s4) >= m(&s1) - 0.05, "S4 {} vs S1 {}", m(&s4), m(&s1));
        assert!(m(&s4) > 0.7, "S4 {}", m(&s4));
    }

    #[test]
    fn regression_eval_produces_finite_rmse() {
        let ds = DatasetId::Nasa.generate(&Params::scaled(0.2, 3));
        let version = VersionTable::identity(ds.dirty.clone());
        let scores = eval_regressor(Scenario::S4, &ds, &version, RegressorKind::Ridge, 2, 1);
        assert!(scores.iter().all(|s| s.is_finite()));
    }

    #[test]
    fn clustering_eval_produces_silhouette() {
        let ds = DatasetId::Water.generate(&Params::scaled(0.3, 2));
        let s = eval_clusterer(&ds.clean, ClustererKind::KMeans, 5, 1);
        assert!(s.is_finite());
        assert!((-1.0..=1.0).contains(&s));
    }
}
