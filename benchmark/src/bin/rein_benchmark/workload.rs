//! The four workloads and their correctness checks.
//!
//! Every iteration is one unit of real use: a full S1–S5 grid, a store
//! open plus a grid, or one detection scan. The benchmark owns the seed:
//! the program only ever sees the dataset generated from it. README.md
//! gives the reason for each workload and the layer it bypasses.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use rein_core::{Controller, Scenario};
use rein_datasets::{DatasetId, GeneratedDataset, Params};
use rein_store::Store;
use rein_telemetry::perf::Stopwatch;

/// Labelling budget of the ML-supported detectors, as `parallel_smoke`,
/// `chaos_smoke` and `crash_smoke` set it.
pub const LABEL_BUDGET: usize = 50;
/// Model-evaluation repeats per eval cell, as `parallel_smoke` runs the
/// S1–S5 grid.
pub const REPEATS: usize = 1;
/// The figure and smoke binaries' default dataset scale
/// (`rein_bench::DEFAULT_SCALE`), which the grid workloads use.
const CALLER_SCALE: f64 = 0.05;
/// Datasets an end-to-end run draws from its seed and sets up one by one;
/// `setup_s` is the median set-up.
pub const DATASETS: usize = 3;

/// Where temporary stores live, relative to the working directory: a run
/// reads and writes only inside the checkout it runs from.
const SCRATCH_ROOT: &str = ".bench_tmp";

/// Benchmark-side span around a store workload's whole iteration: the
/// open, the grid and dropping the store.
pub const STORE_SPAN: &str = "bench:store";
/// Benchmark-side span around `Store::open`, inside [`STORE_SPAN`].
pub const STORE_OPEN_SPAN: &str = "bench:store_open";

/// A grid cell map, coordinate → serialized cell bytes.
pub type Cells = BTreeMap<String, String>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `Controller::run_grid` with no store.
    Grid,
    /// `Store::open` on a fresh directory plus `run_grid`: every cell
    /// misses, computes and commits.
    StoreCold,
    /// `Store::open` on the populated store plus `run_grid`: every cell
    /// is a hit and no kernel runs.
    StoreWarm,
    /// `Controller::run_detection` alone.
    Detect,
}

#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub dataset: DatasetId,
    /// Dataset size as a share of the paper's Table 4 row count.
    pub scale: f64,
    pub kind: Kind,
    /// Cells in one iteration's map.
    pub cells: usize,
    /// [`digest`] of a run's datasets at the default seed and `scale`.
    pub digest: u64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "grid_beers",
        dataset: DatasetId::Beers,
        scale: CALLER_SCALE,
        kind: Kind::Grid,
        cells: 940,
        digest: 0xe76d_5f20_fa9c_4bf2,
    },
    Workload {
        name: "grid_nasa_store_cold",
        dataset: DatasetId::Nasa,
        scale: CALLER_SCALE,
        kind: Kind::StoreCold,
        cells: 1001,
        digest: 0x7b0e_fff5_5a0a_7f08,
    },
    Workload {
        name: "grid_nasa_store_warm",
        dataset: DatasetId::Nasa,
        scale: CALLER_SCALE,
        kind: Kind::StoreWarm,
        cells: 1001,
        digest: 0x7b0e_fff5_5a0a_7f08,
    },
    Workload {
        name: "detect_soccer",
        dataset: DatasetId::Soccer,
        // Not the callers' 0.05: there one two-thread scan took 18 s, so
        // a run's three set-ups alone would outlast its time budget. At
        // 0.003 a scan takes about 0.6 s (README.md, "Workloads").
        scale: 0.003,
        kind: Kind::Detect,
        cells: 14,
        digest: 0xf7c7_a0e8_9b86_b79c,
    },
];

/// The workload named `name`.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A workload ready to iterate.
pub struct Prepared {
    pub workload: &'static Workload,
    pub ds: GeneratedDataset,
    /// The store-less controller; store workloads attach their store per
    /// iteration.
    pub ctrl: Controller,
    /// The populated store of [`Kind::StoreWarm`].
    pub store: Option<ScratchDir>,
    /// The warm-up iteration's cells; every later iteration must match.
    pub reference: Cells,
    /// Cells checked so far, and how many of them differed.
    pub checked: u64,
    pub mismatched: u64,
}

/// One iteration's output. A cold iteration's store directory rides
/// along, so it is deleted only when the iteration is dropped, after
/// [`Prepared::timed`] has read the clock.
pub struct Iteration {
    pub cells: Cells,
    scratch: Option<ScratchDir>,
}

impl Workload {
    /// Generates the inputs from `seed`, populates the store when the
    /// workload needs one, and runs the warm-up iteration.
    pub fn prepare(&'static self, seed: u64, scale: f64) -> io::Result<Prepared> {
        let ds = self.dataset.generate(&Params::scaled(scale, seed));
        let ctrl = Controller { label_budget: LABEL_BUDGET, seed, scale, ..Controller::default() };
        let mut prepared = Prepared {
            workload: self,
            ds,
            ctrl,
            store: None,
            reference: Cells::new(),
            checked: 0,
            mismatched: 0,
        };
        if self.kind == Kind::StoreWarm {
            let dir = ScratchDir::new(self.name)?;
            prepared.reference = prepared.grid_with_store(dir.path())?;
            prepared.store = Some(dir);
        }
        let warm_up = prepared.iterate()?.cells;
        if self.kind == Kind::StoreWarm {
            // The warm replay must equal the map the store was populated from.
            prepared.check(&warm_up);
        } else {
            prepared.reference = warm_up;
        }
        Ok(prepared)
    }
}

impl Prepared {
    /// Runs one iteration of the workload.
    pub fn iterate(&self) -> io::Result<Iteration> {
        let ds = &self.ds;
        Ok(match self.workload.kind {
            Kind::Grid => {
                Iteration { cells: self.ctrl.run_grid(ds, &Scenario::ALL, REPEATS), scratch: None }
            }
            Kind::StoreCold => {
                let dir = ScratchDir::new(self.workload.name)?;
                Iteration { cells: self.grid_with_store(dir.path())?, scratch: Some(dir) }
            }
            Kind::StoreWarm => {
                let dir =
                    self.store.as_ref().ok_or_else(|| io::Error::other("no populated store"))?;
                Iteration { cells: self.grid_with_store(dir.path())?, scratch: None }
            }
            Kind::Detect => {
                let runs = self.ctrl.run_detection(ds);
                let cells = runs
                    .iter()
                    .map(|run| (format!("detect:{}", run.kind.name()), detect_payload(&run.mask)))
                    .collect();
                Iteration { cells, scratch: None }
            }
        })
    }

    /// Runs one iteration and its wall seconds. The clock is read before
    /// any of the iteration is dropped: its cell map and a cold store's
    /// directory are freed by the caller, outside the timed region.
    pub fn timed(&self) -> io::Result<(Iteration, f64)> {
        let clock = Stopwatch::start();
        let iteration = self.iterate()?;
        Ok((iteration, clock.elapsed().as_secs_f64()))
    }

    /// The store directory `iteration` ran against, for the store workloads.
    pub fn store_root<'a>(&'a self, iteration: &'a Iteration) -> Option<&'a Path> {
        iteration.scratch.as_ref().or(self.store.as_ref()).map(ScratchDir::path)
    }

    /// Opens the store at `root` and runs the grid through it.
    fn grid_with_store(&self, root: &Path) -> io::Result<Cells> {
        let _span = rein_telemetry::span(STORE_SPAN);
        let store = {
            let _open = rein_telemetry::span(STORE_OPEN_SPAN);
            Store::open(root)?
        };
        if !store.recovery().quarantined.is_empty() {
            return Err(io::Error::other(format!(
                "store at {} quarantined records",
                root.display()
            )));
        }
        let ctrl = Controller { store: Some(Arc::new(store)), ..self.ctrl.clone() };
        Ok(ctrl.run_grid(&self.ds, &Scenario::ALL, REPEATS))
    }

    /// Compares `cells` with the reference map and counts the result.
    pub fn check(&mut self, cells: &Cells) {
        self.checked += self.reference.len() as u64;
        self.mismatched += differing_cells(&self.reference, cells);
    }
}

/// The canonical detect-cell payload, as `run_grid` serializes it.
pub fn detect_payload(mask: &rein_data::CellMask) -> String {
    serde_json::to_string(mask).unwrap_or_else(|e| panic!("mask serializes: {e}"))
}

/// Cells missing from, extra in, or different between two maps.
pub fn differing_cells(reference: &Cells, other: &Cells) -> u64 {
    let changed = reference.iter().filter(|(k, v)| other.get(*k) != Some(*v)).count();
    let extra = other.keys().filter(|k| !reference.contains_key(*k)).count();
    (changed + extra) as u64
}

/// The cell dump text of `rein_bench::dump_cells`: a `== <key> (<len>
/// bytes)` header per cell, then its bytes.
fn dump_text(cells: &Cells) -> String {
    let mut out = String::new();
    for (key, bytes) in cells {
        out.push_str(&format!("== {key} ({} bytes)\n{bytes}\n", bytes.len()));
    }
    out
}

/// The seed of a run's `k`-th dataset.
pub fn dataset_seed(seed: u64, k: usize) -> u64 {
    rein_data::rng::derive_seed(seed, k as u64)
}

/// FNV-1a-64 of the concatenated [`dump_text`]s of `maps`.
pub fn digest<'a>(maps: impl IntoIterator<Item = &'a Cells>) -> u64 {
    let text: String = maps.into_iter().map(dump_text).collect();
    rein_ledger::fnv1a64(text.as_bytes())
}

/// Failed cells recorded since the last call: cells degraded under guard,
/// store replays that diverged from their recompute, and failed store
/// commits. Clears the process-global telemetry (spans, counters,
/// failures) so each iteration stands alone.
pub fn take_failures() -> u64 {
    let counters = rein_telemetry::counters_snapshot();
    let counter = |name: &str| counters.get(name).copied().unwrap_or(0);
    let failures = rein_telemetry::failures_snapshot().len() as u64
        + counter("store_divergence")
        + counter("store_commit_errors");
    rein_telemetry::reset();
    failures
}

/// A fresh directory under [`SCRATCH_ROOT`], removed on drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(tag: &str) -> io::Result<ScratchDir> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = Path::new(SCRATCH_ROOT).join(format!("{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Succeeds only once no other run's directory is left.
        let _ = std::fs::remove_dir(SCRATCH_ROOT);
    }
}

/// Per workload, a scale small enough that unit tests prepare and
/// iterate it in well under a second.
#[cfg(test)]
pub const TINY_SCALE: [f64; 4] = [0.01, 0.014, 0.014, 0.0002];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_directories_are_removed_on_drop() {
        let dir = ScratchDir::new("scratch-test").unwrap();
        let path = dir.path().to_path_buf();
        assert!(path.is_dir());
        drop(dir);
        assert!(!path.exists());
    }

    #[test]
    fn a_cold_store_is_deleted_only_after_the_clock_is_read() {
        let w = find("grid_nasa_store_cold").unwrap();
        let p = w.prepare(5, TINY_SCALE[1]).unwrap();
        let (iteration, seconds) = p.timed().unwrap();
        assert!(seconds > 0.0);
        let root = p.store_root(&iteration).unwrap().to_path_buf();
        let journal = std::fs::read_dir(&root).unwrap().count();
        assert!(journal > 0, "the journal is on disk when timed() returns");
        drop(iteration);
        assert!(!root.exists());
    }

    #[test]
    fn a_changed_cell_is_counted() {
        let reference: Cells = [("a".into(), "1".into()), ("b".into(), "2".into())].into();
        let mut other = reference.clone();
        assert_eq!(differing_cells(&reference, &other), 0);
        other.insert("b".into(), "3".into());
        other.insert("c".into(), "4".into());
        assert_eq!(differing_cells(&reference, &other), 2);
        assert_ne!(digest([&reference]), digest([&other]));
    }
}
