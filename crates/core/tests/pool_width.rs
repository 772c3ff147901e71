//! Guard ticks and failures do not depend on the pool width. Every
//! fan-out inside a cell (a forest's trees, Picket's per-column fits)
//! goes through `rein_guard::fan_out`, which runs each item under the
//! cell's remaining allowance on whichever thread claims it and debits
//! the items at its join. So a fault-free cell spends the same ticks at
//! widths 1, 2 and 4, a guard called outside any stage spends what the
//! grid cell does, and an exhausted fan-out fails with the same cause.

#![allow(clippy::expect_used, reason = "test support: a broken expectation fails the test")]

use rein_core::{
    eval_classifier, run_repair_guarded, Controller, DetectorHarness, FailureCause, GuardPolicy,
    Phase, Scenario, VersionTable,
};
use rein_data::rng::derive_seed;
use rein_datasets::{DatasetId, Params};
use rein_detect::DetectorKind;
use rein_guard::GuardSpec;
use rein_ml::forest::{ForestParams, RandomForestRegressor};
use rein_ml::model::{ClassifierKind, Regressor};
use rein_ml::Encoder;
use rein_repair::RepairKind;

const WIDTHS: [usize; 3] = [1, 2, 4];

/// Runs `op` with every parallel stage it starts on a `width`-wide pool.
fn at_width<R>(width: usize, op: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new().num_threads(width).build().expect("pool").install(op)
}

#[test]
fn a_top_level_harness_run_reports_the_grid_cells_ticks() {
    let ds = DatasetId::SmartFactory.generate(&Params::scaled(0.05, 22));
    let ctrl = Controller { label_budget: 100, seed: 1, ..Controller::default() };
    let grid = at_width(2, || ctrl.run_detection(&ds));
    let grid = grid.iter().find(|run| run.kind == DetectorKind::Ed2).expect("ED2 planned").ticks;
    // The grid cell's seed, as the detect phase derives it.
    let seed = derive_seed(ctrl.seed, DetectorKind::Ed2.index_letter() as u64);
    let harness = DetectorHarness::new(&ds, ctrl.label_budget, seed);
    let top = at_width(2, || harness.run(&ds, DetectorKind::Ed2)).ticks;
    assert_eq!((grid, top), (54_464, 54_464));
}

#[test]
fn fault_free_ticks_are_equal_at_every_width() {
    let ds = DatasetId::BreastCancer.generate(&Params::scaled(0.05, 31));
    let harness = DetectorHarness::new(&ds, 25, 31);
    let policy = GuardPolicy::default();
    let version = VersionTable::identity(ds.dirty.clone());
    let ticks = |width| {
        at_width(width, || {
            let mut ticks = Vec::new();
            for kind in DetectorKind::ALL {
                let run = harness.run(&ds, kind);
                assert!(run.failure.is_none(), "{} degraded", kind.name());
                ticks.push((kind.name(), run.ticks));
            }
            for kind in RepairKind::ALL {
                let run = run_repair_guarded(&ds, &ds.mask, kind, 7, "", &policy);
                assert!(run.failure.is_none(), "{} degraded", kind.name());
                ticks.push((kind.name(), run.ticks));
            }
            for kind in ClassifierKind::ALL {
                let spec = GuardSpec {
                    phase: Phase::Model,
                    strategy: kind.name(),
                    dataset: &ds.info.name,
                    scope: Scenario::S1.name(),
                    cells: (ds.dirty.n_rows() * ds.dirty.n_cols()) as u64,
                    seed: 5,
                };
                let eval = |seed| eval_classifier(Scenario::S1, &ds, &version, kind, 1, seed);
                let report = rein_guard::run(&spec, &policy, eval, |_| Ok(()), |_| {});
                assert!(report.outcome.is_ok(), "{} degraded", kind.name());
                ticks.push((kind.name(), report.ticks));
            }
            ticks
        })
    };
    let serial = ticks(1);
    for width in &WIDTHS[1..] {
        assert_eq!(ticks(*width), serial, "width {width}");
    }
}

#[test]
fn an_exhausted_fan_out_fails_alike_at_every_width() {
    // The guard's mandatory tick spends the whole allowance, so Picket's
    // per-column fan-out and a forest's trees start with nothing left:
    // every item trips at its first checkpoint, and the join re-raises
    // item 0's failure with the ticks of all of them.
    let ds = DatasetId::BreastCancer.generate(&Params::scaled(0.05, 31));
    let policy = GuardPolicy { budget_override: Some(1), ..GuardPolicy::default() };
    let harness = DetectorHarness::new(&ds, 25, 31).with_policy(policy.clone());
    let features = ds.dirty.schema().feature_indices();
    let x = Encoder::fit(&ds.dirty, &features).transform(&ds.dirty);
    let y: Vec<f64> = (0..x.rows()).map(|r| (r % 7) as f64).collect();
    let spec = GuardSpec {
        phase: Phase::Model,
        strategy: "random_forest",
        dataset: &ds.info.name,
        scope: "",
        cells: 1,
        seed: 5,
    };
    let causes = |width| {
        at_width(width, || {
            let picket = harness.run(&ds, DetectorKind::Picket).failure.expect("degraded");
            let fit = |seed| RandomForestRegressor::new(ForestParams::default(), seed).fit(&x, &y);
            let forest = rein_guard::run(&spec, &policy, fit, |_| Ok(()), |_| {});
            [picket.cause, forest.outcome.expect_err("degraded").cause]
        })
    };
    let serial = causes(1);
    for cause in &serial {
        let FailureCause::BudgetExhausted { spent, allowance: 1 } = cause else {
            panic!("{cause:?}")
        };
        assert!(*spent > 2, "{cause:?}: no fan-out item ran");
    }
    for width in &WIDTHS[1..] {
        assert_eq!(causes(*width), serial, "width {width}");
    }
}
