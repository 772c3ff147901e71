//! The benchmark controller (§2): connects the repository, toolbox and
//! evaluation module, and exploits design-time knowledge (error types, ML
//! task, available signals) to sidestep unnecessary experiments.

use std::collections::BTreeMap;
use std::sync::Arc;

use rayon::prelude::*;
use rein_data::rng::derive_seed;
use rein_data::{CellMask, MlTask};
use rein_datasets::GeneratedDataset;
use rein_detect::DetectorKind;
use rein_guard::{CrashWhen, GuardPolicy, GuardSpec, Phase, StrategyFailure};
use rein_ledger::fnv1a64;
use rein_ml::model::{ClassifierKind, ClustererKind, RegressorKind};
use rein_repair::{RepairCategory, RepairKind};
use rein_store::{CrashPoint, Store, StoreWriter};
use rein_telemetry::SpanCtx;

use crate::cache_key::{CellInputs, CellKey};
use crate::evaluate::{
    eval_classifier_guarded, eval_clusterer, eval_regressor_guarded, repair_quality_categorical,
    repair_quality_numerical, replay_detector_run, run_repair_guarded, table_identity,
    version_identity, DetectorHarness, DetectorRun, RepairRun, VersionTable,
};
use crate::experiment::{DetectionRecord, RepairRecord};
use crate::scenario::Scenario;
use crate::toolbox::{applicable_detectors, applicable_repairers, AvailableSignals};

/// A cleaning strategy: one detector feeding one repairer (the paper's
/// figure labels, e.g. "R3" = RAHA + mean-mode imputation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CleaningStrategy {
    /// Detector.
    pub detector: DetectorKind,
    /// Repairer.
    pub repairer: RepairKind,
}

impl CleaningStrategy {
    /// Paper-style label: detector index letter + repairer index, e.g.
    /// `"X3"` for Max-Entropy + mean-mode.
    pub fn label(&self) -> String {
        format!("{}{}", self.detector.index_letter(), self.repairer.index())
    }
}

/// The benchmark controller.
#[derive(Debug, Clone)]
pub struct Controller {
    /// Labelling budget for ML-supported detectors.
    pub label_budget: usize,
    /// Master seed.
    pub seed: u64,
    /// Supervision policy for every toolbox dispatch (chaos injection,
    /// retries, budget override).
    pub policy: GuardPolicy,
    /// Dataset scale factor the grid runs at — a [`CellKey`]
    /// component, so it participates in every cell's trace id.
    pub scale: f64,
    /// Opt-in live progress heartbeat (`REIN_PROGRESS`, plumbed by
    /// rein-bench): when true, the grid's sequential merge points print
    /// deterministic-content progress lines (cell counts, never timing
    /// or worker identity) to stderr.
    pub progress: bool,
    /// Durable cell-result store (`REIN_STORE`, plumbed by rein-bench):
    /// when set, [`Controller::run_grid`] consults the store before
    /// dispatching each cell, replays hits without executing the
    /// strategy, and commits every computed cell through the store's
    /// write-ahead journal at the grid's sequential merge points
    /// (DESIGN.md §6j). `None` runs the same grid with every lookup
    /// missing and nothing committed.
    pub store: Option<Arc<Store>>,
}

impl Default for Controller {
    fn default() -> Self {
        Self {
            label_budget: crate::evaluate::DEFAULT_LABEL_BUDGET,
            seed: 0,
            policy: GuardPolicy::default(),
            scale: 1.0,
            progress: false,
            store: None,
        }
    }
}

/// The pruned experiment plan for one dataset.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Detectors worth running.
    pub detectors: Vec<DetectorKind>,
    /// Generic repairers worth running (per detector).
    pub generic_repairers: Vec<RepairKind>,
    /// ML-oriented repairers worth running.
    pub ml_repairers: Vec<RepairKind>,
}

impl Controller {
    /// Signals the benchmark can supply for a generated dataset (the
    /// ground truth exists, so KB and oracle are always available; the
    /// rest depends on the dataset).
    pub fn signals_for(ds: &GeneratedDataset) -> AvailableSignals {
        AvailableSignals {
            fds: !ds.fds.is_empty(),
            knowledge_base: true,
            key_columns: !ds.key_columns.is_empty(),
            oracle: true,
            label_column: ds.clean.schema().label_index().is_some(),
        }
    }

    /// Builds the pruned plan for a dataset.
    pub fn plan(&self, ds: &GeneratedDataset) -> Plan {
        let _span = rein_telemetry::span("controller:plan");
        let signals = Self::signals_for(ds);
        let detectors = applicable_detectors(&ds.info.errors, &signals);
        let repairers = applicable_repairers(&ds.info.errors, ds.info.task, &signals);
        let (ml, generic): (Vec<RepairKind>, Vec<RepairKind>) =
            repairers.into_iter().partition(|r| r.category() == RepairCategory::MlOriented);
        Plan { detectors, generic_repairers: generic, ml_repairers: ml }
    }

    /// Runs the detection phase store-less: every planned detector, in
    /// parallel, each under its cell trace root (see
    /// [`Controller::run_grid`]).
    pub fn run_detection(&self, ds: &GeneratedDataset) -> Vec<DetectorRun> {
        Grid::new(self, None, ds).detect_phase().into_iter().map(|cell| cell.run).collect()
    }

    /// Runs the repair phase store-less for one detector's detections:
    /// every planned generic repairer plus the ML-oriented ones.
    pub fn run_repairs(&self, ds: &GeneratedDataset, detection: &DetectorRun) -> Vec<RepairRun> {
        let group = MaskGroup::single(detection);
        Grid::new(self, None, ds)
            .repair_phase(&group)
            .cells
            .into_iter()
            .filter_map(|cell| cell.run)
            .collect()
    }

    /// Runs the full benchmark grid — detection, repair, and (when
    /// `scenarios` is non-empty) model evaluation — and serializes every
    /// cell's output, keyed by cell coordinates:
    ///
    /// - `detect:<detector>` — the detected cell mask,
    /// - `repair:<repairer>#<detector>` — the repaired table, modified
    ///   cells and row map (or a pipeline marker for ML-oriented
    ///   repairers). Detectors that emitted byte-equal masks share one
    ///   repair cell per repairer, and each of their coordinates holds
    ///   its payload,
    /// - `eval:<scenario>:<repairer>#<detector>` — the scenario scores
    ///   for each table-producing repair.
    ///
    /// The map is the grid's deterministic fingerprint: every seed is
    /// derived per cell from the controller seed and the cell's
    /// coordinates, never from worker identity or arrival order, so the
    /// serialized bytes are identical at any rayon pool width. With a
    /// [`Controller::store`], hits replay the stored payload bytes
    /// verbatim, so a cold, warm or resumed grid yields the same map as
    /// a store-less one. `grid_smoke --mode parallel` asserts the
    /// pool-width invariance (1 ≡ 4 ≡ N threads), `--mode chaos`
    /// compares fault-free and fault-injected runs of the same map, and
    /// `--mode crash` kills and resumes a store-backed run against it.
    pub fn run_grid(
        &self,
        ds: &GeneratedDataset,
        scenarios: &[Scenario],
        repeats: usize,
    ) -> BTreeMap<String, String> {
        let _span = rein_telemetry::span("controller:grid");
        let grid = Grid::new(self, self.store.as_deref(), ds);
        let evals = EvalPlan { scenarios, repeats };
        let detections = grid.detect_phase();
        // The map's copy of each payload is the grid's only one: a hit
        // shares the store's bytes and a miss the bytes its worker built.
        // Copying on this thread also keeps the long-lived map out of the
        // pool workers' malloc arenas, which otherwise stay pinned and
        // raise peak RSS.
        let mut cells = Vec::new();
        for group in MaskGroup::of(&detections) {
            // audit:allow(seed-provenance, the group supplies the mask and the guard scope; every repair seed derives from self.seed and the repair kind in Grid::repair_phase)
            let mut repairs = grid.repair_phase(&group);
            for member in 0..group.members.len() {
                // audit:allow(seed-provenance, the group supplies the mask, the guard scope and the plan position; eval seeds derive from self.seed and the cell coordinates in Grid::eval_phase)
                let evaluated = grid.eval_phase(&group, member, &mut repairs, &evals);
                cells.extend(
                    evaluated
                        .into_iter()
                        .map(|cell| (cell.id.coordinate, String::from(&*cell.payload))),
                );
            }
            for (slot, cell) in repairs.slots.iter().zip(repairs.cells) {
                let repairer = grid.repairers[slot.ri].name();
                for &member in &slot.serves[1..] {
                    let coordinate = format!("repair:{repairer}#{}", group.name(member));
                    cells.push((coordinate, String::from(&*cell.payload)));
                }
                cells.push((cell.id.coordinate, String::from(&*cell.payload)));
            }
        }
        cells.extend(
            detections.into_iter().map(|det| (det.id.coordinate, String::from(&*det.payload))),
        );
        // Coordinates are unique, so building the map once from all the
        // cells loses none.
        let cells: BTreeMap<String, String> = cells.into_iter().collect();
        self.emit_progress(&format!(
            "dataset={} grid complete cells={}",
            ds.info.name,
            cells.len()
        ));
        cells
    }

    /// Prints one deterministic-content progress line when the opt-in
    /// `REIN_PROGRESS` heartbeat is on. Only called from the grid's
    /// sequential merge points, so line order is scheduling-invariant;
    /// content is counts and coordinates, never timing or worker ids.
    #[expect(
        clippy::print_stderr,
        reason = "opt-in REIN_PROGRESS heartbeat; deterministic content, emitted only at sequential merge points"
    )]
    fn emit_progress(&self, line: &str) {
        if self.progress {
            eprintln!("[progress] {line}");
        }
    }

    /// Serializes one evaluation cell: the task-appropriate model's
    /// scores (plus the failure cause when the guarded fit degraded).
    fn eval_cell(
        &self,
        ds: &GeneratedDataset,
        scenario: Scenario,
        version: &VersionTable,
        repeats: usize,
        seed: u64,
    ) -> String {
        match ds.info.task {
            MlTask::Classification => {
                let (scores, failure) = eval_classifier_guarded(
                    scenario,
                    ds,
                    version,
                    ClassifierKind::DecisionTree,
                    repeats,
                    seed,
                    &self.policy,
                );
                render_scores(&scores, failure.as_ref())
            }
            MlTask::Regression => {
                let (scores, failure) = eval_regressor_guarded(
                    scenario,
                    ds,
                    version,
                    RegressorKind::LinearRegression,
                    repeats,
                    seed,
                    &self.policy,
                );
                render_scores(&scores, failure.as_ref())
            }
            MlTask::Clustering => {
                let score = eval_clusterer(&version.table, ClustererKind::KMeans, 6, seed);
                format!("silhouette:{score:?}")
            }
            MlTask::None => "task:none".to_string(),
        }
    }

    /// Detection records for result tables.
    pub fn detection_records(
        &self,
        ds: &GeneratedDataset,
        runs: &[DetectorRun],
    ) -> Vec<DetectionRecord> {
        runs.iter()
            .map(|run| DetectionRecord {
                dataset: ds.info.name.clone(),
                detector: run.kind.name().to_string(),
                detected: run.quality.detected(),
                true_positives: run.quality.true_positives,
                actual_errors: run.quality.actual_errors(),
                precision: run.quality.precision,
                recall: run.quality.recall,
                f1: run.quality.f1,
                runtime_ms: run.runtime.as_secs_f64() * 1e3,
                failure: run.failure.as_ref().map(|f| f.cause.to_string()),
            })
            .collect()
    }

    /// Repair records for result tables.
    pub fn repair_records(
        &self,
        ds: &GeneratedDataset,
        detector: DetectorKind,
        runs: &[RepairRun],
    ) -> Vec<RepairRecord> {
        runs.iter()
            .map(|run| {
                let cat = repair_quality_categorical(ds, run);
                let num = repair_quality_numerical(ds, run);
                RepairRecord {
                    dataset: ds.info.name.clone(),
                    detector: detector.name().to_string(),
                    repairer: run.kind.name().to_string(),
                    cat_precision: cat.map(|q| q.precision),
                    cat_recall: cat.map(|q| q.recall),
                    cat_f1: cat.map(|q| q.f1),
                    rmse: num.map(|(r, _)| r.rmse).filter(|v| v.is_finite()),
                    dirty_rmse: num.map(|(_, d)| d.rmse).filter(|v| v.is_finite()),
                    runtime_ms: run.runtime.as_secs_f64() * 1e3,
                    failure: run.failure.as_ref().map(|f| f.cause.to_string()),
                }
            })
            .collect()
    }
}

/// One grid run's shared context and its per-phase cell runner
/// (DESIGN.md §6j). Every phase runs the same four steps: build the
/// phase's cells in plan order, each with its [`Grid::key`], look each
/// one up in the store in plan order ([`Grid::lookup`]), compute the
/// misses in parallel under their `cell:<coordinate>` trace roots and
/// commit them at the phase's merge point ([`Grid::compute`]). Without a
/// store every lookup misses and the commit does nothing.
struct Grid<'a> {
    ctrl: &'a Controller,
    store: Option<&'a Store>,
    ds: &'a GeneratedDataset,
    detectors: Vec<DetectorKind>,
    /// Planned generic repairers, then the ML-oriented ones.
    repairers: Vec<RepairKind>,
    /// Content identity of the dirty table: the `dataset_version` key
    /// component of every detect and repair cell.
    dirty_id: String,
    /// The guard policy's cache identity, rendered once per grid: the
    /// `guard_policy` key component of every cell.
    guard_policy: String,
}

/// A phase's looked-up cells in plan order, `None` where the store
/// missed, and the misses with their plan positions.
type Lookup<R> = (Vec<Option<CellRecord<R>>>, Vec<(usize, CellId)>);

impl<'a> Grid<'a> {
    fn new(ctrl: &'a Controller, store: Option<&'a Store>, ds: &'a GeneratedDataset) -> Self {
        let Plan { detectors, generic_repairers, ml_repairers } = ctrl.plan(ds);
        Grid {
            ctrl,
            store,
            ds,
            detectors,
            repairers: generic_repairers.into_iter().chain(ml_repairers).collect(),
            dirty_id: table_identity(&ds.dirty),
            guard_policy: ctrl.policy.cache_identity(),
        }
    }

    /// The detection phase: every planned detector. A stored mask
    /// replays without running the detector ([`replay_detector_run`]);
    /// one that fails to parse back into a mask of the dirty table's
    /// shape is a miss, never trusted.
    fn detect_phase(&self) -> Vec<CellRecord<DetectorRun>> {
        let span = rein_telemetry::span("controller:detect");
        let ids = self
            .detectors
            .iter()
            .map(|&kind| {
                let seed = derive_seed(self.ctrl.seed, kind.index_letter() as u64);
                let coordinate = format!("detect:{}", kind.name());
                let inputs = CellInputs::Labels(self.ctrl.label_budget);
                let trace = self.key(&self.dirty_id, &coordinate, inputs, seed).hash();
                CellId { coordinate, seed, inputs, trace }
            })
            .collect();
        let (rows, cols) = (self.ds.dirty.n_rows(), self.ds.dirty.n_cols());
        let lookup = self.lookup(ids, |i, payload| {
            let mask: CellMask = serde_json::from_str(payload).ok()?;
            mask.has_shape(rows, cols)
                .then(|| replay_detector_run(self.ds, self.detectors[i], mask))
        });
        self.compute(
            "phase=detect",
            Some(span.ctx()),
            lookup,
            |i, id| {
                #[expect(clippy::unreachable, reason = "detect cells key on their label budget")]
                let CellInputs::Labels(budget) = id.inputs
                else {
                    unreachable!()
                };
                let harness = DetectorHarness::new(self.ds, budget, id.seed)
                    .with_policy(self.ctrl.policy.clone());
                let run = harness.run(self.ds, self.detectors[i]);
                (detect_payload(&run.mask), None, run)
            },
            |coordinate| self.ctrl.policy.crash.when_for(coordinate),
            |cell| cell.run.failure.is_some(),
        )
    }

    /// The repair phase for one mask group: per planned repairer, one
    /// cell serving every member detector, except that each member a
    /// scoped chaos rule names for that repairer gets a cell of its own
    /// ([`Grid::chaos_names`]). A hit keeps the stored payload and the
    /// produced version's identity (the aux field) without running the
    /// repairer: its `run` stays `None` unless an eval miss rehydrates
    /// it. A `REIN_CRASH` rule naming any coordinate a cell serves fires
    /// at that cell's commit.
    fn repair_phase(&self, group: &MaskGroup) -> Repairs {
        let span = rein_telemetry::span("controller:repair");
        let mut slots = Vec::new();
        for (ri, &kind) in self.repairers.iter().enumerate() {
            let (scoped, shared): (Vec<usize>, Vec<usize>) = (0..group.members.len())
                .partition(|&member| self.chaos_names(kind, group.members[member].1.kind));
            if !shared.is_empty() {
                slots.push(RepairSlot { ri, serves: shared, scoped: false });
            }
            slots.extend(scoped.into_iter().map(|m| RepairSlot {
                ri,
                serves: vec![m],
                scoped: true,
            }));
        }
        let ids: Vec<CellId> = slots
            .iter()
            .map(|slot| {
                let kind = self.repairers[slot.ri];
                let seed = derive_seed(self.ctrl.seed, kind.index() as u64);
                let detector = group.name(slot.serves[0]);
                let coordinate = format!("repair:{}#{detector}", kind.name());
                // Only a scoped cell keys on its detector; the others key
                // on `repair:<repairer>`.
                let strategy = if slot.scoped {
                    &coordinate[..]
                } else {
                    &coordinate[..coordinate.len() - detector.len() - 1]
                };
                let inputs = CellInputs::Mask(group.digest);
                let trace = self.key(&self.dirty_id, strategy, inputs, seed).hash();
                CellId { coordinate, seed, inputs, trace }
            })
            .collect();
        // The crash points by the coordinate each cell's commit carries.
        let crash = &self.ctrl.policy.crash;
        let mut armed: Vec<(String, CrashWhen)> = Vec::new();
        if !crash.is_empty() {
            for (id, slot) in ids.iter().zip(&slots) {
                let repairer = self.repairers[slot.ri].name();
                let when = slot.serves.iter().find_map(|&member| {
                    crash.when_for(&format!("repair:{repairer}#{}", group.name(member)))
                });
                armed.extend(when.map(|when| (id.coordinate.clone(), when)));
            }
        }
        let shared: usize = slots.iter().map(|slot| slot.serves.len() - 1).sum();
        rein_telemetry::counter("repair_shared").add(shared as u64);
        let detectors: Vec<&str> = (0..group.members.len()).map(|m| group.name(m)).collect();
        let lookup = self.lookup(ids, |_, _| Some(None));
        let cells = self.compute(
            &format!("phase=repair detectors={} shared={shared}", detectors.join(",")),
            Some(span.ctx()),
            lookup,
            |i, id| {
                let run = self.repair_cell(group, &slots[i], id.seed);
                let (payload, version_id) = repair_payload(&run);
                (payload, version_id, Some(run))
            },
            |coordinate| armed.iter().find(|(c, _)| c == coordinate).map(|&(_, when)| when),
            |cell| cell.run.as_ref().is_some_and(|run| run.failure.is_some()),
        );
        Repairs { slots, cells }
    }

    /// Whether a scoped chaos rule names the (repairer, detector) pair on
    /// this dataset. Such a cell keys on its detector and runs on its own,
    /// so the rule degrades that pair alone.
    fn chaos_names(&self, repairer: RepairKind, detector: DetectorKind) -> bool {
        self.ctrl.policy.chaos.scoped_rule_matches(&GuardSpec {
            phase: Phase::Repair,
            strategy: repairer.name(),
            dataset: &self.ds.info.name,
            scope: detector.name(),
            cells: 0,
            seed: 0,
        })
    }

    /// Runs a repair cell's repairer on its group's mask under the cell's
    /// seed. The guard scopes a failure to the first detector the cell
    /// serves, and each other one records a copy scoped to itself, so a
    /// degraded shared cell records one failure per coordinate it serves.
    fn repair_cell(&self, group: &MaskGroup, slot: &RepairSlot, seed: u64) -> RepairRun {
        let kind = self.repairers[slot.ri];
        let mut scopes = slot.serves.iter().map(|&member| group.name(member));
        let scope = scopes.next().unwrap_or_default();
        let run = run_repair_guarded(self.ds, group.mask(), kind, seed, scope, &self.ctrl.policy);
        if let Some(failure) = &run.failure {
            for scope in scopes {
                StrategyFailure { scope: scope.to_string(), ..failure.clone() }.record();
            }
        }
        run
    }

    /// The evaluation phase for one member detector of a mask group:
    /// every (scenario × table-producing repair) cell, keyed on the exact
    /// table version it consumes and seeded from the detector's plan
    /// position. An eval miss whose repair was a store hit first
    /// rehydrates that repair live under the repair cell's own seed and
    /// trace root, once for every member it serves. The recompute must
    /// match the stored bytes; a payload mismatch is counted as
    /// `store_divergence`, never silently accepted.
    fn eval_phase(
        &self,
        group: &MaskGroup,
        member: usize,
        repairs: &mut Repairs,
        plan: &EvalPlan,
    ) -> Vec<CellRecord<()>> {
        if plan.scenarios.is_empty() || plan.repeats == 0 {
            return Vec::new();
        }
        let span = rein_telemetry::span("controller:evaluate");
        let parent = Some(span.ctx());
        let (det_ix, det_name) = (group.members[member].0, group.name(member));
        let mut work = Vec::new();
        let mut ids = Vec::new();
        for (si, &scenario) in plan.scenarios.iter().enumerate() {
            for (c, slot) in repairs.slots.iter().enumerate() {
                if !slot.serves.contains(&member) {
                    continue;
                }
                let Some(version_id) = repairs.cells[c].aux.as_deref() else { continue };
                let repairer = self.repairers[slot.ri].name();
                let coordinate = format!("eval:{}:{repairer}#{det_name}", scenario.name());
                let position = (det_ix as u64) * 1_000 + (si as u64) * 100 + slot.ri as u64;
                let seed = derive_seed(self.ctrl.seed, 40_000 + position);
                let inputs = CellInputs::Repeats(plan.repeats);
                let trace = self.key(version_id, &coordinate, inputs, seed).hash();
                work.push((scenario, c));
                ids.push(CellId { coordinate, seed, inputs, trace });
            }
        }
        let (cells, misses) = self.lookup(ids, |_, _| Some(()));
        // Each stored repair an eval miss needs is rehydrated exactly
        // once, in parallel.
        let mut need: Vec<usize> = misses.iter().map(|&(i, _)| work[i].1).collect();
        need.retain(|&c| repairs.cells[c].run.is_none());
        need.sort_unstable();
        need.dedup();
        #[expect(
            clippy::disallowed_methods,
            reason = "a top-level stage of repair cells, each under its own guard"
        )]
        let rehydrated: Vec<(usize, RepairRun)> = need
            .par_iter()
            .map(|&c| {
                let id = &repairs.cells[c].id;
                let _worker = id.trace_root(parent);
                (c, self.repair_cell(group, &repairs.slots[c], id.seed))
            })
            .collect();
        if self.store.is_some() {
            rein_telemetry::counter("store_rehydrated").add(rehydrated.len() as u64);
        }
        for (c, run) in rehydrated {
            if repair_payload(&run).0 != *repairs.cells[c].payload {
                rein_telemetry::counter("store_divergence").incr();
            }
            repairs.cells[c].run = Some(run);
        }
        let repairs = &repairs.cells;
        self.compute(
            &format!("phase=eval detector={det_name}"),
            parent,
            (cells, misses),
            |i, id| {
                let (scenario, c) = work[i];
                let version = repairs[c].run.as_ref().and_then(|run| run.version.as_ref());
                #[expect(clippy::expect_used, reason = "eval cells exist only for version-producing repairs, and each miss's repair ran live or was rehydrated above")]
                let version = version.expect("versioned repair");
                #[expect(clippy::unreachable, reason = "eval cells key on their repeat count")]
                let CellInputs::Repeats(repeats) = id.inputs else { unreachable!() };
                (self.ctrl.eval_cell(self.ds, scenario, version, repeats, id.seed), None, ())
            },
            |coordinate| self.ctrl.policy.crash.when_for(coordinate),
            |cell| cell.payload.contains(" failure:"),
        )
    }

    /// One cell's [`CellKey`], borrowing every component: the grid's one
    /// key constructor. Its hash is both the trace id and, as hex, the
    /// store digest, and hashing it allocates nothing.
    fn key<'k>(
        &'k self,
        dataset_version: &'k str,
        strategy: &'k str,
        inputs: CellInputs,
        seed: u64,
    ) -> CellKey<'k> {
        CellKey {
            dataset: self.ds.info.name.as_str().into(),
            dataset_version: dataset_version.into(),
            strategy: strategy.into(),
            inputs,
            seed,
            scale: self.ctrl.scale,
            guard_policy: self.guard_policy.as_str().into(),
        }
    }

    /// Looks each cell up in the store, one by one in plan order.
    /// `replay` turns a stored payload into the phase's run, or rejects
    /// it as a miss with `None`. A hit's record shares the store's
    /// payload and aux bytes.
    fn lookup<R>(&self, ids: Vec<CellId>, replay: impl Fn(usize, &str) -> Option<R>) -> Lookup<R> {
        let (mut cells, mut misses) = (Vec::with_capacity(ids.len()), Vec::new());
        for (i, id) in ids.into_iter().enumerate() {
            let stored = self.store.and_then(|store| store.lookup(&id.digest()));
            match stored.and_then(|cell| Some((replay(i, &cell.payload)?, cell))) {
                Some((run, cell)) => {
                    cells.push(Some(CellRecord { id, payload: cell.payload, aux: cell.aux, run }))
                }
                None => {
                    cells.push(None);
                    misses.push((i, id));
                }
            }
        }
        (cells, misses)
    }

    /// Computes every miss in parallel under its trace root, commits the
    /// computed cells at the phase's merge point and prints the phase's
    /// progress line. `compute_cell` returns a miss's payload, aux
    /// identity and run; `crash_when` is the `REIN_CRASH` point of a
    /// commit, by the coordinate it carries; `failed` picks the degraded
    /// cells, which are counted and never staged, so a later run
    /// recomputes each one and records its failure again. The worker
    /// moves each payload into one shared allocation, which the staged
    /// record, the store's index and the cell record all hold. Store
    /// counters move only when a store is attached.
    fn compute<R: Send>(
        &self,
        label: &str,
        parent: Option<SpanCtx>,
        (mut cells, misses): Lookup<R>,
        compute_cell: impl Fn(usize, &CellId) -> (String, Option<String>, R) + Sync,
        crash_when: impl Fn(&str) -> Option<CrashWhen>,
        failed: impl Fn(&CellRecord<R>) -> bool + Sync,
    ) -> Vec<CellRecord<R>> {
        let hits = cells.len() - misses.len();
        if self.store.is_some() {
            rein_telemetry::counter("store_hits").add(hits as u64);
            rein_telemetry::counter("store_misses").add(misses.len() as u64);
        }
        let writer =
            self.store.map(|_| StoreWriter::with_shards(rayon::current_num_threads().max(1)));
        #[expect(
            clippy::disallowed_methods,
            reason = "the grid's top-level stage: one item per cell, each under its own guard"
        )]
        let computed: Vec<(usize, CellRecord<R>)> = misses
            .into_par_iter()
            .map(|(i, id)| {
                let _worker = id.trace_root(parent);
                let (payload, aux, run) = compute_cell(i, &id);
                let cell =
                    CellRecord { id, payload: payload.into(), aux: aux.map(Into::into), run };
                if let Some(writer) = writer.as_ref().filter(|_| !failed(&cell)) {
                    let CellRecord { id, payload, aux, .. } = &cell;
                    writer.stage(&id.digest(), &id.coordinate, payload.clone(), aux.clone());
                }
                (i, cell)
            })
            .collect();
        for (i, cell) in computed {
            cells[i] = Some(cell);
        }
        if let (Some(store), Some(writer)) = (self.store, &writer) {
            // `REIN_CRASH` rules become commit-point injection. A commit I/O
            // failure is counted, never fatal: the cells are already correct.
            let crash = |coordinate: &str| {
                crash_when(coordinate).map(|when| match when {
                    CrashWhen::Before => CrashPoint::Before,
                    CrashWhen::After => CrashPoint::After,
                })
            };
            if store.commit_staged(writer, &crash).is_err() {
                rein_telemetry::counter("store_commit_errors").incr();
            }
        }
        let cells: Vec<CellRecord<R>> = cells.into_iter().flatten().collect();
        let failed = cells.iter().filter(|cell| failed(cell)).count();
        self.ctrl.emit_progress(&format!(
            "dataset={} {label} done={} failed={failed} total={} hits={hits}",
            self.ds.info.name,
            cells.len(),
            cells.len()
        ));
        cells
    }
}

/// Detectors whose detect cells emitted byte-equal masks, in plan order,
/// and the mask's digest. A repair consumes only the mask: its seed
/// derives from the repairer and its guard budget from the dirty table's
/// size, so one repair cell can serve every member.
struct MaskGroup<'d> {
    /// Each member's plan position and run.
    members: Vec<(usize, &'d DetectorRun)>,
    /// FNV-1a-64 of the members' detect payload: the
    /// [`CellInputs::Mask`] of the group's repair cells.
    digest: u64,
}

impl<'d> MaskGroup<'d> {
    /// Groups the detect cells by payload, in plan order of each mask's
    /// first appearance.
    fn of(detections: &'d [CellRecord<DetectorRun>]) -> Vec<Self> {
        let mut groups: Vec<(&str, MaskGroup<'d>)> = Vec::new();
        for (ix, det) in detections.iter().enumerate() {
            match groups.iter_mut().find(|(payload, _)| **payload == *det.payload) {
                Some((_, group)) => group.members.push((ix, &det.run)),
                None => groups.push((
                    &det.payload,
                    MaskGroup {
                        members: vec![(ix, &det.run)],
                        digest: fnv1a64(det.payload.as_bytes()),
                    },
                )),
            }
        }
        groups.into_iter().map(|(_, group)| group).collect()
    }

    /// The group of one detection, outside a grid.
    fn single(detection: &'d DetectorRun) -> Self {
        let digest = fnv1a64(detect_payload(&detection.mask).as_bytes());
        MaskGroup { members: vec![(0, detection)], digest }
    }

    /// The mask every member emitted.
    fn mask(&self) -> &CellMask {
        &self.members[0].1.mask
    }

    /// Member `member`'s detector name.
    fn name(&self, member: usize) -> &'static str {
        self.members[member].1.kind.name()
    }
}

/// One repair cell of a mask group: its repairer and the members it
/// serves.
struct RepairSlot {
    /// The repairer's plan position.
    ri: usize,
    /// Indexes into [`MaskGroup::members`], in plan order; the first
    /// names the cell's coordinate and guard scope.
    serves: Vec<usize>,
    /// Whether a scoped chaos rule names the pair, so the key keeps the
    /// detector.
    scoped: bool,
}

/// A mask group's repair cells in plan order, one per slot.
struct Repairs {
    slots: Vec<RepairSlot>,
    cells: Vec<CellRecord<Option<RepairRun>>>,
}

/// The eval phases' shared inputs.
struct EvalPlan<'s> {
    scenarios: &'s [Scenario],
    /// Scores per eval cell.
    repeats: usize,
}

/// One grid cell's identity, built once in plan order.
struct CellId {
    /// Grid coordinate: the cell-map key and the trace root's name.
    coordinate: String,
    /// The fully-derived cell seed.
    seed: u64,
    /// The phase's own inputs, as the key renders them: the compute
    /// closure reads the cell's label budget or repeat count from here.
    inputs: CellInputs,
    /// The cell's `CellKey` hash: its trace id.
    trace: u64,
}

impl CellId {
    /// The store digest: the 16-hex rendering of the hash that
    /// `CellKey::content_key` returns, written on the stack.
    fn digest(&self) -> Digest {
        let mut hex = [0; 16];
        for (i, digit) in hex.iter_mut().enumerate() {
            *digit = b"0123456789abcdef"[(self.trace >> (60 - 4 * i)) as usize & 0xf];
        }
        Digest(hex)
    }

    /// Opens the cell's trace root under the phase span `parent`.
    fn trace_root(&self, parent: Option<SpanCtx>) -> rein_telemetry::Span {
        rein_telemetry::span_traced(format!("cell:{}", self.coordinate), parent, self.trace)
    }
}

/// A cell's store digest, rendered without allocating: looking up and
/// staging a cell borrow it as a `str`.
struct Digest([u8; 16]);

impl std::ops::Deref for Digest {
    type Target = str;

    fn deref(&self) -> &str {
        // Hex digits are ASCII, so this never falls back.
        std::str::from_utf8(&self.0).unwrap_or_default()
    }
}

/// The runner's single cell record: identity, the payload bytes the cell
/// map and the store hold, the aux identity stored beside them (a
/// repair's produced version, keying its eval cells) and the phase's run.
struct CellRecord<R> {
    id: CellId,
    payload: Arc<str>,
    aux: Option<Arc<str>>,
    run: R,
}

/// The canonical `detect:…` cell payload: the mask as JSON.
#[expect(clippy::expect_used, reason = "CellMask serialization to JSON strings is infallible")]
fn detect_payload(mask: &CellMask) -> String {
    serde_json::to_string(mask).expect("mask serializes")
}

/// The canonical `repair:…#…` cell payload — repaired CSV + modified
/// cells + row map for version-producing repairs, a pipeline marker
/// otherwise — and the produced version's content identity. The CSV is
/// rendered once for both.
fn repair_payload(rep: &RepairRun) -> (String, Option<String>) {
    let marker = || format!("pipeline:{}", rep.pipeline.is_some());
    let Some(v) = &rep.version else { return (marker(), None) };
    let csv = rein_data::csv::write_str(&v.table);
    let payload = match &rep.repaired_cells {
        #[expect(
            clippy::expect_used,
            reason = "CellMask serialization to JSON strings is infallible"
        )]
        Some(m) => format!(
            "{csv}\n{}\n{:?}",
            serde_json::to_string(m).expect("mask serializes"),
            v.row_map
        ),
        None => marker(),
    };
    let identity = version_identity(&csv, &v.row_map);
    (payload, Some(identity))
}

/// The `scores:…` cell text shared by the supervised tasks.
fn render_scores(scores: &[f64], failure: Option<&StrategyFailure>) -> String {
    match failure {
        Some(f) => format!("scores:{scores:?} failure:{}", f.cause),
        None => format!("scores:{scores:?}"),
    }
}

#[cfg(test)]
mod tests {
    #![expect(
        clippy::let_underscore_must_use,
        reason = "scratch directories are removed best-effort"
    )]

    use super::*;
    use rein_datasets::{DatasetId, Params};

    #[test]
    fn citation_plan_prunes_outlier_detectors() {
        let ds = DatasetId::Citation.generate(&Params::scaled(0.05, 1));
        let plan = Controller::default().plan(&ds);
        assert!(plan.detectors.contains(&DetectorKind::KeyCollision));
        assert!(plan.detectors.contains(&DetectorKind::CleanLab));
        assert!(!plan.detectors.contains(&DetectorKind::Sd));
        assert!(!plan.detectors.contains(&DetectorKind::Nadeef));
        // Classification dataset with oracle: ML-oriented repairs planned.
        assert!(plan.ml_repairers.contains(&RepairKind::ActiveClean));
    }

    #[test]
    fn nasa_plan_keeps_outlier_and_mv_detectors_only() {
        let ds = DatasetId::Nasa.generate(&Params::scaled(0.1, 2));
        let plan = Controller::default().plan(&ds);
        assert!(plan.detectors.contains(&DetectorKind::Sd));
        assert!(plan.detectors.contains(&DetectorKind::MvDetector));
        assert!(!plan.detectors.contains(&DetectorKind::KeyCollision));
        // Regression: no ML-oriented repairers.
        assert!(plan.ml_repairers.is_empty());
    }

    #[test]
    fn detection_phase_produces_records() {
        let ds = DatasetId::BreastCancer.generate(&Params::scaled(0.4, 3));
        let ctrl = Controller { label_budget: 40, seed: 1, ..Controller::default() };
        let runs = ctrl.run_detection(&ds);
        assert!(!runs.is_empty());
        let records = ctrl.detection_records(&ds, &runs);
        assert_eq!(records.len(), runs.len());
        // At least one detector achieves decent recall on this dataset.
        assert!(records.iter().any(|r| r.recall > 0.5), "no detector found errors");
    }

    #[test]
    fn repair_phase_covers_generic_and_ml_methods() {
        let ds = DatasetId::BreastCancer.generate(&Params::scaled(0.3, 4));
        let ctrl = Controller { label_budget: 30, seed: 2, ..Controller::default() };
        let harness = DetectorHarness::new(&ds, 30, 1);
        let det = harness.run(&ds, DetectorKind::MaxEntropy);
        let runs = ctrl.run_repairs(&ds, &det);
        assert!(runs.iter().any(|r| r.version.is_some()), "generic repairs ran");
        assert!(runs.iter().any(|r| r.pipeline.is_some()), "ML-oriented repairs ran");
        let records = ctrl.repair_records(&ds, det.kind, &runs);
        // Numeric dataset: RMSE defined for same-shape repairs.
        assert!(records.iter().any(|r| r.rmse.is_some()));
    }

    #[test]
    fn grid_covers_detect_repair_and_eval_cells() {
        let ds = DatasetId::BreastCancer.generate(&Params::scaled(0.2, 6));
        let ctrl = Controller { label_budget: 30, seed: 7, ..Controller::default() };
        let cells = ctrl.run_grid(&ds, &[Scenario::S1], 1);
        assert!(cells.keys().any(|k| k.starts_with("detect:")), "got {:?}", cells.keys());
        assert!(cells.keys().any(|k| k.starts_with("repair:")), "got {:?}", cells.keys());
        let evals: Vec<&String> = cells.keys().filter(|k| k.starts_with("eval:S1:")).collect();
        assert!(!evals.is_empty(), "got {:?}", cells.keys());
        // Eval cells carry rendered scores, not placeholders.
        for key in evals {
            assert!(cells[key].starts_with("scores:"), "{key} -> {}", cells[key]);
        }
        // Byte-identity across pool widths is `grid_smoke --mode parallel`'s job; here
        // we only pin the cell taxonomy.
    }

    #[test]
    fn cell_keys_are_content_addressed_per_coordinate() {
        let ds = DatasetId::BreastCancer.generate(&Params::scaled(0.2, 6));
        let ctrl = Controller { label_budget: 30, seed: 7, scale: 0.2, ..Controller::default() };
        let grid = Grid::new(&ctrl, None, &ds);
        let version = VersionTable::identity(ds.dirty.clone());
        let seed_a = derive_seed(ctrl.seed, 40_000);
        let seed_b = derive_seed(ctrl.seed, 40_001);
        let vid = version.content_identity();
        let repeats = CellInputs::Repeats(1);
        let a = grid.key(&vid, "eval:S1:ImputeMeanMode#Raha", repeats, seed_a);
        let b = grid.key(&vid, "eval:S1:ImputeMeanMode#MaxEntropy", repeats, seed_b);
        assert_ne!(a.content_key(), b.content_key());
        // Rebuilding the key from the same coordinates is byte-stable.
        let again = grid.key(&vid, "eval:S1:ImputeMeanMode#Raha", repeats, seed_a);
        assert_eq!(a, again);
        assert_eq!(a.content_key(), again.content_key());
        // The grid's stack-rendered store digest is the key's content key.
        for key in [&a, &b] {
            let id =
                CellId { coordinate: String::new(), seed: 0, inputs: repeats, trace: key.hash() };
            assert_eq!(&*id.digest(), key.content_key());
        }
        let id = CellId { coordinate: String::new(), seed: 0, inputs: repeats, trace: 0xab };
        assert_eq!(&*id.digest(), "00000000000000ab", "leading zeros are kept");
        // The version component really is content-addressed: the same
        // table rebuilt from scratch hashes to the same identity.
        assert_eq!(vid, VersionTable::identity(ds.dirty.clone()).content_identity());
        assert!(vid.starts_with("v:") && vid.len() == 18, "got {vid}");
    }

    /// The cells a fault-free grid computes for its map `cells`: every
    /// detect and eval cell, and one repair cell per distinct (repairer,
    /// detection mask) pair.
    fn computed_cells(cells: &BTreeMap<String, String>) -> usize {
        let mut repairs = std::collections::BTreeSet::new();
        let mut others = 0;
        for coordinate in cells.keys() {
            match coordinate.strip_prefix("repair:").and_then(|pair| pair.split_once('#')) {
                Some((repairer, det)) => {
                    repairs.insert((repairer, &cells[&format!("detect:{det}")]));
                }
                None => others += 1,
            }
        }
        others + repairs.len()
    }

    #[test]
    fn grid_cells_open_trace_roots_keyed_by_cell_key_digest() {
        let ds = DatasetId::BreastCancer.generate(&Params::scaled(0.2, 6));
        // A seed no other test's grid uses: the span sink is process-
        // global, so this run's roots are isolated by their trace ids. At
        // this seed mv_detector and ed2 emit one mask, and so do
        // metadata_driven and raha.
        let ctrl =
            Controller { label_budget: 30, seed: 0xC316, scale: 0.2, ..Controller::default() };
        let cells = ctrl.run_grid(&ds, &[Scenario::S1], 1);
        let spans = rein_telemetry::snapshot_spans();
        let roots: Vec<_> =
            spans.iter().filter(|s| s.name.starts_with("cell:") && !s.instant).collect();
        assert!(!roots.is_empty(), "grid must open cell trace roots");
        assert!(roots.iter().all(|s| s.trace_id != 0), "cell roots are never ambient");
        // Every computed cell's trace id is recomputable from its CellKey,
        // built here with owned components and an identity rendered from
        // scratch — and the recorded roots carry exactly those ids.
        // (The snapshot is process-global, so selection is by trace id,
        // which this test's unique seed scopes to this run.)
        let dirty_id = table_identity(&ds.dirty);
        let plan = ctrl.plan(&ds);
        let repairers: Vec<RepairKind> =
            plan.generic_repairers.iter().chain(&plan.ml_repairers).copied().collect();
        let grid = Grid::new(&ctrl, None, &ds);
        let key = |version: &str, strategy: &str, inputs: CellInputs, seed: u64| {
            grid.key(version, strategy, inputs, seed).hash()
        };
        let mask_of = |det: &DetectorKind| &cells[&format!("detect:{}", det.name())];
        // (coordinate its root is named for, trace id) per computed cell.
        let mut this_run: Vec<(String, u64)> = Vec::new();
        for (det_ix, det) in plan.detectors.iter().enumerate() {
            let detect = format!("detect:{}", det.name());
            let seed = derive_seed(ctrl.seed, det.index_letter() as u64);
            this_run.push((detect.clone(), key(&dirty_id, &detect, CellInputs::Labels(30), seed)));
            // A repair cell keys on its repairer and the mask, and its root
            // is named for the first detector in plan order that emitted
            // the mask: one root for every coordinate it serves.
            let mask = mask_of(det);
            let first = plan.detectors.iter().find(|d| mask_of(d) == mask).unwrap();
            let inputs = CellInputs::Mask(fnv1a64(mask.as_bytes()));
            for (ri, rep) in repairers.iter().enumerate() {
                let repair = format!("repair:{}#{}", rep.name(), det.name());
                if first == det {
                    let seed = derive_seed(ctrl.seed, rep.index() as u64);
                    let strategy = format!("repair:{}", rep.name());
                    this_run.push((repair.clone(), key(&dirty_id, &strategy, inputs, seed)));
                }
                // An eval cell keys on the version its repair produced: the
                // identity of the payload's CSV and row map.
                let mut parts = cells[&repair].rsplitn(3, '\n');
                let (Some(row_map), Some(_mask), Some(csv)) =
                    (parts.next(), parts.next(), parts.next())
                else {
                    continue;
                };
                let version =
                    format!("v:{}", rein_ledger::content_key(&format!("{csv}\n{row_map}")));
                let eval = format!("eval:S1:{}#{}", rep.name(), det.name());
                assert!(cells.contains_key(&eval), "{repair} produced a version");
                let seed = derive_seed(ctrl.seed, 40_000 + (det_ix as u64) * 1_000 + ri as u64);
                this_run.push((eval.clone(), key(&version, &eval, CellInputs::Repeats(1), seed)));
            }
        }
        assert_eq!(this_run.len(), computed_cells(&cells), "every computed cell is accounted for");
        assert!(this_run.len() < cells.len(), "this grid shares repair cells");
        let mut unique: Vec<u64> = this_run.iter().map(|(_, id)| *id).collect();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), this_run.len(), "cell trace ids are distinct");
        for (coordinate, id) in &this_run {
            let [root] = roots.iter().filter(|s| s.trace_id == *id).collect::<Vec<_>>()[..] else {
                panic!("not exactly one trace root recorded for {coordinate}");
            };
            assert_eq!(root.name, format!("cell:{coordinate}"), "root named for its coordinate");
            // Guard spans opened inside a detection cell inherit the root's trace.
            if coordinate.starts_with("detect:") {
                let inherited = spans
                    .iter()
                    .any(|s| s.trace_id == *id && s.id != root.id && s.name.starts_with("detect:"));
                assert!(inherited, "guard span under {coordinate} must inherit its trace id");
            }
        }
    }

    #[test]
    fn wrong_shaped_stored_masks_miss_and_recompute() {
        let ds = DatasetId::Nasa.generate(&Params::scaled(0.05, 6));
        let root = std::env::temp_dir().join(format!("rein-ctrl-badmask-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let direct = Controller { label_budget: 30, seed: 7, ..Controller::default() };
        let want = direct.run_grid(&ds, &[], 1);

        // Checksum-valid masks that parse but do not fit the dirty table:
        // another grid, too few words, too many words, a bit past the
        // last cell.
        let (rows, cols) = (ds.dirty.n_rows(), ds.dirty.n_cols());
        assert_ne!((rows * cols) % 64, 0, "the last case needs a padding bit");
        let words = (rows * cols).div_ceil(64);
        let bits = |n: usize, last: u64| {
            let mut bits = vec![0u64; n];
            if let Some(w) = bits.last_mut() {
                *w = last;
            }
            format!("{bits:?}").replace(' ', "")
        };
        let payload = |r: usize, c: usize, bits: String| {
            format!(r#"{{"rows":{r},"cols":{c},"bits":{bits}}}"#)
        };
        let bad = [
            payload(1, 1, bits(1, 0)),
            payload(rows, cols, bits(words - 1, 0)),
            payload(rows, cols, bits(words + 1, 0)),
            payload(rows, cols, bits(words, 1 << ((rows * cols - 1) % 64 + 1))),
        ];
        let store = Arc::new(Store::open(&root).unwrap());
        let ctrl = Controller { store: Some(store.clone()), ..direct };
        let grid = Grid::new(&ctrl, None, &ds);
        let detectors = ctrl.plan(&ds).detectors;
        let detect_key = |coordinate: &str, det: &DetectorKind| {
            let seed = derive_seed(ctrl.seed, det.index_letter() as u64);
            grid.key(&grid.dirty_id, coordinate, CellInputs::Labels(30), seed).content_key()
        };
        for (i, det) in detectors.iter().enumerate() {
            let coordinate = format!("detect:{}", det.name());
            let key = detect_key(&coordinate, det);
            store.commit_one(&key, &coordinate, &bad[i % bad.len()], None).unwrap();
        }

        let got = ctrl.run_grid(&ds, &[], 1);
        assert_eq!(want, got, "a wrong-shaped stored mask must recompute, not replay");
        // Each miss committed its recomputed mask over the bad one.
        for det in &detectors {
            let coordinate = format!("detect:{}", det.name());
            let key = detect_key(&coordinate, det);
            assert_eq!(&*store.lookup(&key).unwrap().payload, want[&coordinate]);
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn stored_grid_matches_direct_grid_cold_and_warm() {
        let ds = DatasetId::BreastCancer.generate(&Params::scaled(0.2, 6));
        let root = std::env::temp_dir().join(format!("rein-ctrl-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let direct = Controller { label_budget: 30, seed: 7, ..Controller::default() };
        let want = direct.run_grid(&ds, &[Scenario::S1], 1);

        // Cold store: every cell misses, computes, and commits — and the
        // resulting map is byte-identical to the store-less grid.
        let store = Arc::new(Store::open(&root).unwrap());
        let ctrl = Controller { store: Some(store.clone()), ..direct.clone() };
        let cold = ctrl.run_grid(&ds, &[Scenario::S1], 1);
        assert_eq!(want, cold, "cold store-backed grid diverges from direct grid");
        // One record per computed cell: coordinates whose detectors emitted
        // one mask share their repair records.
        let computed = computed_cells(&want);
        assert!(computed < want.len(), "this grid shares repair cells");
        assert_eq!(store.cell_count(), computed, "every computed cell committed");
        drop(ctrl);
        drop(store);

        // Reopen from disk: the journal replays every committed cell and
        // a fully-warm grid replays byte-identical payloads.
        let reopened = Arc::new(Store::open(&root).unwrap());
        assert_eq!(reopened.cell_count(), computed, "journal replay is lossless");
        assert!(reopened.recovery().quarantined.is_empty());
        let warm_ctrl = Controller { store: Some(reopened), ..direct };
        let warm = warm_ctrl.run_grid(&ds, &[Scenario::S1], 1);
        assert_eq!(want, warm, "warm store-backed grid diverges from direct grid");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn eval_misses_rehydrate_stored_repairs() {
        let ds = DatasetId::BreastCancer.generate(&Params::scaled(0.2, 6));
        let root = std::env::temp_dir().join(format!("rein-ctrl-rehydrate-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let direct = Controller { label_budget: 30, seed: 7, ..Controller::default() };
        let both = [Scenario::S1, Scenario::S2];
        let want = direct.run_grid(&ds, &both, 1);

        // An S1-only grid populates the store.
        let store = Arc::new(Store::open(&root).unwrap());
        let ctrl = Controller { store: Some(store.clone()), ..direct };
        let s1 = ctrl.run_grid(&ds, &[Scenario::S1], 1);
        let s1_cells = computed_cells(&s1);
        assert!(s1_cells < s1.len(), "this grid shares repair cells");
        assert_eq!(store.cell_count(), s1_cells);

        // The S1+S2 grid hits every detect, repair and S1 eval cell. Each
        // S2 eval cell misses and evaluates a rehydrated stored repair,
        // which a shared repair cell rehydrates once for all its detectors.
        let got = ctrl.run_grid(&ds, &both, 1);
        assert_eq!(want, got, "rehydrated grid diverges from the store-less grid");
        let s2_evals = want.keys().filter(|k| k.starts_with("eval:S2:")).count();
        assert!(s2_evals > 0, "got {:?}", want.keys());
        assert_eq!(store.cell_count(), s1_cells + s2_evals, "only the S2 eval cells committed");
        drop(ctrl);
        drop(store);

        // The index deduplicates last-wins, so a detect or repair cell that
        // missed and committed again would not grow `cell_count`; it would
        // append a second journal record, which a reopen replays.
        let reopened = Store::open(&root).unwrap();
        assert_eq!(
            reopened.recovery().replayed,
            (s1_cells + s2_evals) as u64,
            "the S1+S2 grid journalled only its S2 eval cells"
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    /// One `run_grid` call: the controller and the grid's arguments.
    #[derive(Clone)]
    struct GridArgs<'d> {
        ctrl: Controller,
        ds: &'d GeneratedDataset,
        scenarios: &'d [Scenario],
        repeats: usize,
    }

    /// A grid's map and the failure records it added for its dataset
    /// (sorted, without their wall-clock times).
    type GridOutput = (BTreeMap<String, String>, Vec<String>);

    /// Held by each store-equivalence test. The failure registry is
    /// process-global, each of them degrades a breast_cancer cell, and no
    /// other test in this binary does.
    static FAILURE_REGISTRY: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// Runs `args`' grid against `store`.
    fn grid_output(args: &GridArgs, store: Option<Arc<Store>>) -> GridOutput {
        let records = || -> Vec<String> {
            rein_telemetry::failures_snapshot()
                .into_iter()
                .filter(|f| f.dataset == args.ds.info.name)
                .map(|f| {
                    format!(
                        "{}:{}#{} {} x{} {}",
                        f.phase, f.strategy, f.scope, f.cause, f.attempts, f.trace_id
                    )
                })
                .collect()
        };
        let before = records();
        let ctrl = Controller { store, ..args.ctrl.clone() };
        let cells = ctrl.run_grid(args.ds, args.scenarios, args.repeats);
        let mut added = records();
        for record in before {
            if let Some(at) = added.iter().position(|r| *r == record) {
                added.swap_remove(at);
            }
        }
        added.sort();
        (cells, added)
    }

    /// A store never changes a grid's output. For every controller and
    /// guard-policy field and every `run_grid` argument that `pick`
    /// names, a store written under another value and reopened under the
    /// base one serves the map and failure records of the store-less base
    /// grid. The base policy degrades one repair cell (a scoped stall) and
    /// retries a flaky detector, so the records are never empty. A keyed
    /// value must change the grid, or a stale replay could not show; an
    /// unkeyed one must leave it as it is, and the reopened grid must
    /// replay every committed cell, recomputing only the degraded one.
    fn assert_stores_never_change_the_grid(pick: impl Fn(&str) -> bool) {
        let _registry = FAILURE_REGISTRY.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let ds = DatasetId::BreastCancer.generate(&Params::scaled(0.05, 29));
        let (other_ds, smaller) = (
            DatasetId::BreastCancer.generate(&Params::scaled(0.05, 30)),
            DatasetId::BreastCancer.generate(&Params::scaled(0.04, 29)),
        );
        let chaos = rein_guard::ChaosSpec::parse(
            "repair:impute_mean_mode#max_entropy=stall,detect:raha=flaky",
        )
        .unwrap();
        let base = Controller {
            label_budget: 30,
            seed: 29,
            policy: GuardPolicy { chaos, ..GuardPolicy::default() },
            scale: 0.05,
            progress: false,
            store: None,
        };
        // No `..`: a new field does not compile until a case covers it.
        let Controller { label_budget, seed, policy, scale, progress, store } = base.clone();
        let GuardPolicy { chaos, retries, budget_override, crash } = policy.clone();
        assert!(store.is_none() && !chaos.is_empty() && budget_override.is_none());
        assert!(crash.is_empty());
        let args = GridArgs { ctrl: base, ds: &ds, scenarios: &[Scenario::S1], repeats: 1 };
        let with = |ctrl: Controller| GridArgs { ctrl, ..args.clone() };
        let with_policy = |policy: GuardPolicy| with(Controller { policy, ..args.ctrl.clone() });
        // (field, the value the store is written under, keyed)
        let cases = [
            ("store", args.clone(), false),
            ("progress", with(Controller { progress: !progress, ..args.ctrl.clone() }), false),
            (
                "crash",
                with_policy(GuardPolicy {
                    // Names the degraded cell, which is never committed, so
                    // it never fires.
                    crash: rein_guard::CrashSpec::parse("repair:impute_mean_mode#max_entropy")
                        .unwrap(),
                    ..policy.clone()
                }),
                false,
            ),
            (
                "label_budget",
                with(Controller { label_budget: label_budget + 50, ..args.ctrl.clone() }),
                true,
            ),
            ("seed", with(Controller { seed: seed + 1, ..args.ctrl.clone() }), true),
            // The scale the dataset is generated at, as every bench binary
            // pairs them.
            (
                "scale",
                GridArgs {
                    ctrl: Controller { scale: scale - 0.01, ..args.ctrl.clone() },
                    ds: &smaller,
                    ..args.clone()
                },
                true,
            ),
            (
                "chaos",
                with_policy(GuardPolicy { chaos: Default::default(), ..policy.clone() }),
                true,
            ),
            ("retries", with_policy(GuardPolicy { retries: retries - 1, ..policy.clone() }), true),
            (
                "budget_override",
                with_policy(GuardPolicy { budget_override: Some(1), ..policy.clone() }),
                true,
            ),
            ("ds", GridArgs { ds: &other_ds, ..args.clone() }, true),
            ("scenarios", GridArgs { scenarios: &[Scenario::S2], ..args.clone() }, true),
            ("repeats", GridArgs { repeats: 2, ..args.clone() }, true),
        ];
        let picked: Vec<_> = cases.into_iter().filter(|(field, ..)| pick(field)).collect();
        assert!(!picked.is_empty(), "no case picked");
        let want = grid_output(&args, None);
        assert_eq!(want.1.len(), 1, "one degraded cell: {:?}", want.1);
        for (field, write, keyed) in picked {
            let root = std::env::temp_dir()
                .join(format!("rein-ctrl-equiv-{field}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&root);
            let written = grid_output(&write, Some(Arc::new(Store::open(&root).unwrap())));
            let reopened = Arc::new(Store::open(&root).unwrap());
            let committed = reopened.recovery().replayed;
            let (cells, failures) = grid_output(&args, Some(reopened));
            let stale = want.0.iter().filter(|(k, v)| cells.get(*k) != Some(*v)).count();
            assert_eq!(stale, 0, "{stale} of {} cells replayed from another {field}", want.0.len());
            assert_eq!(cells, want.0, "{field}: the map differs from the store-less grid");
            assert_eq!(
                failures, want.1,
                "{field}: the failure records differ from the store-less grid"
            );
            if keyed {
                assert_ne!(written.0, want.0, "the {field} change must change the grid");
            } else {
                assert_eq!(written, want, "{field} must not change the grid");
                let replayed = Store::open(&root).unwrap().recovery().replayed;
                assert_eq!(
                    replayed, committed,
                    "{field}: the reopened grid recommitted a stored cell"
                );
            }
            let _ = std::fs::remove_dir_all(&root);
        }
    }

    /// Every case but the two that run as their own tests below.
    #[test]
    fn a_store_never_changes_a_grids_output() {
        assert_stores_never_change_the_grid(|field| !matches!(field, "label_budget" | "repeats"));
    }

    #[test]
    fn a_store_written_under_another_label_budget_replays_no_cell() {
        assert_stores_never_change_the_grid(|field| field == "label_budget");
    }

    #[test]
    fn a_store_written_under_other_repeats_replays_no_cell() {
        assert_stores_never_change_the_grid(|field| field == "repeats");
    }

    #[test]
    fn repairs_stored_for_one_mask_never_replay_for_another() {
        let ds = DatasetId::Nasa.generate(&Params::scaled(0.05, 6));
        let root = std::env::temp_dir().join(format!("rein-ctrl-stalemask-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let ctrl = Controller { label_budget: 30, seed: 7, ..Controller::default() };
        // One detector, two masks: its first flagged cell dropped from B.
        let (rows, cols) = (ds.dirty.n_rows(), ds.dirty.n_cols());
        let mask_b = CellMask::from_cells(rows, cols, ds.mask.iter().skip(1));
        let run_a = replay_detector_run(&ds, DetectorKind::Iqr, ds.mask.clone());
        let run_b = replay_detector_run(&ds, DetectorKind::Iqr, mask_b);
        let payloads = |repairs: Repairs| -> Vec<String> {
            repairs.cells.iter().map(|cell| String::from(&*cell.payload)).collect()
        };

        let store = Store::open(&root).unwrap();
        let grid = Grid::new(&ctrl, Some(&store), &ds);
        let stored_a = payloads(grid.repair_phase(&MaskGroup::single(&run_a)));
        let got = payloads(grid.repair_phase(&MaskGroup::single(&run_b)));
        let want = payloads(Grid::new(&ctrl, None, &ds).repair_phase(&MaskGroup::single(&run_b)));
        assert_ne!(stored_a, want, "the two masks must repair differently");
        assert_eq!(got, want, "repairs of mask B replayed mask A's stored payloads");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn cell_keys_ignore_crash_injection_but_not_chaos() {
        let ds = DatasetId::BreastCancer.generate(&Params::scaled(0.2, 6));
        let base = Controller { label_budget: 30, seed: 7, ..Controller::default() };
        let mut crashy = base.clone();
        crashy.policy.crash = rein_guard::CrashSpec::parse("detect:raha=before").unwrap();
        let seed = derive_seed(base.seed, 40_000);
        let key = |ctrl: &Controller| {
            let grid = Grid::new(ctrl, None, &ds);
            grid.key(&grid.dirty_id, "detect:raha", CellInputs::Labels(30), seed).content_key()
        };
        // A crashed run and its resume (without REIN_CRASH) must address
        // the same cells: the crash spec is not a cache-key component.
        assert_eq!(key(&base), key(&crashy));
        // Chaos degrades what a cell computes, so it still keys.
        let mut chaotic = base.clone();
        chaotic.policy.chaos = rein_guard::ChaosSpec::parse("detect:raha=panic").unwrap();
        assert_ne!(key(&base), key(&chaotic));
    }

    #[test]
    fn strategy_labels_follow_paper_convention() {
        let s = CleaningStrategy {
            detector: DetectorKind::MaxEntropy,
            repairer: RepairKind::ImputeMeanMode,
        };
        assert_eq!(s.label(), "X3");
        let s =
            CleaningStrategy { detector: DetectorKind::Raha, repairer: RepairKind::GroundTruth };
        assert_eq!(s.label(), "R1");
    }
}
