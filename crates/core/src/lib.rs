//! # rein-core
//!
//! The REIN benchmark framework itself (§2 of the paper): the data
//! [`repository`] (PostgreSQL substitute), the cleaning [`toolbox`] with
//! capability metadata, the benchmark [`controller`] that prunes
//! unnecessary experiments from design-time knowledge, the S1–S5
//! evaluation [`scenario`]s (Table 3), the [`evaluate`] module measuring
//! detection/repair/model quality, and serialisable [`experiment`]
//! records including the Wilcoxon A/B test.

pub mod cache_key;
pub mod controller;
pub mod evaluate;
pub mod experiment;
pub mod repository;
pub mod scenario;
pub mod toolbox;

pub use cache_key::{CellInputs, CellKey};
pub use controller::{CleaningStrategy, Controller, Plan};
pub use evaluate::{
    detect_with_context, eval_classifier, eval_classifier_guarded, eval_clusterer,
    eval_pipeline_s5, eval_regressor, eval_regressor_guarded, run_repair, run_repair_guarded,
    scenario_split, DetectorHarness, DetectorRun, RepairRun, VersionTable,
};
pub use experiment::{ab_test, AbTestRecord, DetectionRecord, ModelRecord, RepairRecord};
pub use rein_guard::{
    ChaosMode, ChaosRule, ChaosSpec, CrashRule, CrashSpec, CrashWhen, FailureCause, GuardPolicy,
    Phase, StrategyFailure,
};
pub use repository::{Repository, VersionKey};
pub use scenario::{Scenario, VersionRole};
pub use toolbox::{applicable_detectors, applicable_repairers, AvailableSignals};
