//! # rein-repair
//!
//! The 19 data repair methods of the paper's Table 1 (right half) behind a
//! single [`context::Repairer`] trait. Generic methods (category I) return
//! a repaired table; ML-oriented methods (category II — ActiveClean,
//! BoostClean, CPClean) return a [`context::TrainedPipeline`] evaluated
//! under scenario S5.

#![allow(
    clippy::needless_range_loop,
    reason = "numeric kernels index several parallel arrays at once; iterator zips would obscure them"
)]

pub mod baran;
pub mod cleanlab;
pub mod context;
pub mod generic;
pub mod imputers;
pub mod ml_oriented;
pub mod rulebased;

pub use context::{RepairContext, RepairOutcome, Repairer, TrainedPipeline};

use serde::{Deserialize, Serialize};

/// Intervention category (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RepairCategory {
    /// Generic: directly modifies the dirty dataset.
    Generic,
    /// ML-oriented: jointly optimises cleaning and modelling; outputs a
    /// model.
    MlOriented,
}

/// The 19 repair methods of Table 1 (indices 1–19).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RepairKind {
    /// 1 — ground truth (upper bound).
    GroundTruth,
    /// 2 — delete flagged rows.
    Delete,
    /// 3 — mean-mode imputation.
    ImputeMeanMode,
    /// 4 — median-mode imputation.
    ImputeMedianMode,
    /// 5 — mode-mode imputation.
    ImputeModeMode,
    /// 6 — missForest, mixed mode.
    MissMix,
    /// 7 — DataWig, mixed mode.
    DataWigMix,
    /// 8 — missForest, separate mode.
    MissSep,
    /// 9 — missForest + DataWig.
    MissDataWig,
    /// 10 — decision tree + missForest.
    DtMiss,
    /// 11 — Bayesian ridge + missForest.
    BayesMiss,
    /// 12 — k-NN + missForest.
    KnnMiss,
    /// 13 — HoloClean repair.
    HoloClean,
    /// 14 — OpenRefine repair.
    OpenRefine,
    /// 15 — BARAN.
    Baran,
    /// 16 — CleanLab relabelling.
    CleanLab,
    /// 17 — ActiveClean.
    ActiveClean,
    /// 18 — BoostClean.
    BoostClean,
    /// 19 — CPClean.
    CpClean,
}

impl RepairKind {
    /// All 19 methods in Table 1 order.
    pub const ALL: [RepairKind; 19] = [
        RepairKind::GroundTruth,
        RepairKind::Delete,
        RepairKind::ImputeMeanMode,
        RepairKind::ImputeMedianMode,
        RepairKind::ImputeModeMode,
        RepairKind::MissMix,
        RepairKind::DataWigMix,
        RepairKind::MissSep,
        RepairKind::MissDataWig,
        RepairKind::DtMiss,
        RepairKind::BayesMiss,
        RepairKind::KnnMiss,
        RepairKind::HoloClean,
        RepairKind::OpenRefine,
        RepairKind::Baran,
        RepairKind::CleanLab,
        RepairKind::ActiveClean,
        RepairKind::BoostClean,
        RepairKind::CpClean,
    ];

    /// Table 1 index (1-based).
    #[expect(clippy::expect_used, reason = "every RepairKind is listed in ALL")]
    pub fn index(self) -> usize {
        RepairKind::ALL.iter().position(|k| *k == self).expect("in ALL") + 1
    }

    /// Canonical name.
    pub fn name(self) -> &'static str {
        match self {
            RepairKind::GroundTruth => "ground_truth",
            RepairKind::Delete => "delete",
            RepairKind::ImputeMeanMode => "impute_mean_mode",
            RepairKind::ImputeMedianMode => "impute_median_mode",
            RepairKind::ImputeModeMode => "impute_mode_mode",
            RepairKind::MissMix => "miss_mix",
            RepairKind::DataWigMix => "datawig_mix",
            RepairKind::MissSep => "miss_sep",
            RepairKind::MissDataWig => "miss_datawig",
            RepairKind::DtMiss => "dt_miss",
            RepairKind::BayesMiss => "bayes_miss",
            RepairKind::KnnMiss => "knn_miss",
            RepairKind::HoloClean => "holoclean",
            RepairKind::OpenRefine => "openrefine",
            RepairKind::Baran => "baran",
            RepairKind::CleanLab => "cleanlab",
            RepairKind::ActiveClean => "activeclean",
            RepairKind::BoostClean => "boostclean",
            RepairKind::CpClean => "cpclean",
        }
    }

    /// Intervention category (Table 1).
    pub fn category(self) -> RepairCategory {
        match self {
            RepairKind::ActiveClean | RepairKind::BoostClean | RepairKind::CpClean => {
                RepairCategory::MlOriented
            }
            _ => RepairCategory::Generic,
        }
    }

    /// Whether the method needs a dataset label column.
    pub fn needs_label_column(self) -> bool {
        matches!(
            self,
            RepairKind::CleanLab
                | RepairKind::ActiveClean
                | RepairKind::BoostClean
                | RepairKind::CpClean
        )
    }

    /// Builds the repairer with default configuration.
    pub fn build(self) -> Box<dyn Repairer> {
        match self {
            RepairKind::GroundTruth => Box::new(generic::GroundTruthRepair),
            RepairKind::Delete => Box::new(generic::DeleteRows),
            RepairKind::ImputeMeanMode => Box::new(generic::StandardImpute::mean_mode()),
            RepairKind::ImputeMedianMode => Box::new(generic::StandardImpute::median_mode()),
            RepairKind::ImputeModeMode => Box::new(generic::StandardImpute::mode_mode()),
            RepairKind::MissMix => Box::new(imputers::MlImputer::miss_mix()),
            RepairKind::DataWigMix => Box::new(imputers::MlImputer::datawig_mix()),
            RepairKind::MissSep => Box::new(imputers::MlImputer::miss_sep()),
            RepairKind::MissDataWig => Box::new(imputers::MlImputer::miss_datawig()),
            RepairKind::DtMiss => Box::new(imputers::MlImputer::dt_miss()),
            RepairKind::BayesMiss => Box::new(imputers::MlImputer::bayes_miss()),
            RepairKind::KnnMiss => Box::new(imputers::MlImputer::knn_miss()),
            RepairKind::HoloClean => Box::new(rulebased::HoloCleanRepair),
            RepairKind::OpenRefine => Box::new(rulebased::OpenRefineRepair),
            RepairKind::Baran => Box::new(baran::Baran::default()),
            RepairKind::CleanLab => Box::new(cleanlab::CleanLabRepair),
            RepairKind::ActiveClean => Box::new(ml_oriented::ActiveClean::default()),
            RepairKind::BoostClean => Box::new(ml_oriented::BoostClean::default()),
            RepairKind::CpClean => Box::new(ml_oriented::CpClean::default()),
        }
    }
}

#[cfg(test)]
mod registry_tests {
    use super::*;
    use rein_data::diff::diff_mask;
    use rein_data::{ColumnMeta, ColumnType, Schema, Table, Value};

    fn dataset() -> (Table, Table, rein_data::CellMask) {
        let schema = Schema::new(vec![
            ColumnMeta::new("x", ColumnType::Float),
            ColumnMeta::new("c", ColumnType::Str),
            ColumnMeta::new("y", ColumnType::Str).label(),
        ]);
        let clean = Table::from_rows(
            schema,
            (0..60)
                .map(|i| {
                    vec![
                        Value::Float((i % 6) as f64),
                        Value::str(["a", "b", "c"][i % 3]),
                        Value::str(if i % 2 == 0 { "p" } else { "n" }),
                    ]
                })
                .collect(),
        );
        let mut dirty = clean.clone();
        dirty.set_cell(3, 0, Value::Float(400.0));
        dirty.set_cell(8, 1, Value::str("zzz"));
        dirty.set_cell(12, 2, Value::str("n"));
        let det = diff_mask(&clean, &dirty);
        (clean, dirty, det)
    }

    #[test]
    fn nineteen_methods_registered() {
        assert_eq!(RepairKind::ALL.len(), 19);
        assert_eq!(RepairKind::GroundTruth.index(), 1);
        assert_eq!(RepairKind::CpClean.index(), 19);
    }

    #[test]
    fn three_ml_oriented_methods() {
        let n =
            RepairKind::ALL.iter().filter(|k| k.category() == RepairCategory::MlOriented).count();
        assert_eq!(n, 3);
    }

    #[test]
    fn every_method_builds_and_runs() {
        let (clean, dirty, det) = dataset();
        for kind in RepairKind::ALL {
            let ctx = RepairContext {
                clean: Some(&clean),
                label_col: Some(2),
                ..RepairContext::new(&dirty, &det)
            };
            let repairer = kind.build();
            assert_eq!(repairer.name(), kind.name());
            let out = repairer.repair(&ctx);
            match (kind.category(), out) {
                (RepairCategory::Generic, RepairOutcome::Repaired { table, .. }) => {
                    assert!(table.n_rows() > 0, "{}", kind.name());
                }
                (RepairCategory::MlOriented, RepairOutcome::Model(p)) => {
                    assert!(!p.predict(&dirty).is_empty(), "{}", kind.name());
                }
                _ => panic!("{}: outcome kind mismatch", kind.name()),
            }
        }
    }

    #[test]
    fn generic_methods_never_modify_undetected_cells() {
        let (clean, dirty, det) = dataset();
        for kind in RepairKind::ALL {
            if kind.category() != RepairCategory::Generic || kind == RepairKind::Delete {
                continue;
            }
            let ctx = RepairContext {
                clean: Some(&clean),
                label_col: Some(2),
                ..RepairContext::new(&dirty, &det)
            };
            if let RepairOutcome::Repaired { table, row_map, .. } = kind.build().repair(&ctx) {
                for (out_r, &orig_r) in row_map.iter().enumerate() {
                    for c in 0..dirty.n_cols() {
                        if !det.get(orig_r, c) {
                            assert_eq!(
                                table.cell(out_r, c),
                                dirty.cell(orig_r, c),
                                "{} modified undetected cell ({orig_r},{c})",
                                kind.name()
                            );
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rein_data::{CellMask, ColumnMeta, ColumnType, Schema, Table, Value};

    /// Random small mixed table + detection mask.
    fn arb_case() -> impl Strategy<Value = (Table, CellMask)> {
        (10usize..40, prop::collection::vec((0usize..40, 0usize..2), 1..20)).prop_map(
            |(n, cells)| {
                let schema = Schema::new(vec![
                    ColumnMeta::new("x", ColumnType::Float),
                    ColumnMeta::new("c", ColumnType::Str),
                ]);
                let table = Table::from_rows(
                    schema,
                    (0..n)
                        .map(|i| {
                            vec![Value::Float((i % 7) as f64), Value::str(["a", "b", "c"][i % 3])]
                        })
                        .collect(),
                );
                let mask = CellMask::from_cells(
                    n,
                    2,
                    cells
                        .into_iter()
                        .filter(|&(r, _)| r < n)
                        .map(|(r, c)| rein_data::CellRef::new(r, c)),
                );
                (table, mask)
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn imputers_fill_all_detected_cells((table, mask) in arb_case()) {
            let ctx = RepairContext::new(&table, &mask);
            for kind in [
                RepairKind::ImputeMeanMode,
                RepairKind::ImputeMedianMode,
                RepairKind::ImputeModeMode,
            ] {
                if let RepairOutcome::Repaired { table: out, .. } = kind.build().repair(&ctx) {
                    for cell in mask.iter() {
                        prop_assert!(
                            !out.cell(cell.row, cell.col).is_null(),
                            "{} left a null at ({},{})", kind.name(), cell.row, cell.col
                        );
                    }
                } else {
                    prop_assert!(false, "imputer returned a model");
                }
            }
        }

        #[test]
        fn delete_keeps_only_clean_rows((table, mask) in arb_case()) {
            let ctx = RepairContext::new(&table, &mask);
            if let RepairOutcome::Repaired { table: out, row_map, .. } =
                RepairKind::Delete.build().repair(&ctx)
            {
                prop_assert_eq!(out.n_rows(), row_map.len());
                for &orig in &row_map {
                    for c in 0..table.n_cols() {
                        prop_assert!(!mask.get(orig, c));
                    }
                }
                let flagged_rows = mask.dirty_rows().len();
                prop_assert_eq!(out.n_rows(), table.n_rows() - flagged_rows);
            } else {
                prop_assert!(false, "delete returned a model");
            }
        }

        #[test]
        fn ground_truth_repair_is_idempotent((table, mask) in arb_case()) {
            // With clean == dirty (no actual errors), GT repair must be a
            // no-op that still reports the touched cells.
            let ctx = RepairContext { clean: Some(&table), ..RepairContext::new(&table, &mask) };
            if let RepairOutcome::Repaired { table: out, .. } =
                RepairKind::GroundTruth.build().repair(&ctx)
            {
                prop_assert_eq!(&out, &table);
            }
        }

        #[test]
        fn generic_repairs_preserve_untouched_cells((table, mask) in arb_case()) {
            let ctx = RepairContext { clean: Some(&table), ..RepairContext::new(&table, &mask) };
            for kind in [RepairKind::ImputeMeanMode, RepairKind::HoloClean, RepairKind::Baran] {
                if let RepairOutcome::Repaired { table: out, row_map, .. } =
                    kind.build().repair(&ctx)
                {
                    for (out_r, &orig) in row_map.iter().enumerate() {
                        for c in 0..table.n_cols() {
                            if !mask.get(orig, c) {
                                prop_assert_eq!(
                                    out.cell(out_r, c), table.cell(orig, c),
                                    "{} touched clean cell ({},{})", kind.name(), orig, c
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}
