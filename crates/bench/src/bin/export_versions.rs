//! Materialises every data version of a dataset — ground truth, dirty, and
//! one repaired version per cleaning strategy — into a file-backed
//! [`rein_core::Repository`] (the PostgreSQL substitute), as CSV files.
//!
//! Usage: `export_versions <dataset> [out_dir]` (default `./rein_repo`).

#![allow(
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "a binary is the report surface: it prints its results and may abort on a broken invariant"
)]

use rein_bench::{conclude, dataset, phase};
use rein_core::{Repository, VersionKey};
use rein_datasets::DatasetId;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let id = args.first().and_then(|a| DatasetId::from_name(a)).unwrap_or(DatasetId::Beers);
    let out = args.get(1).cloned().unwrap_or_else(|| "rein_repo".to_string());

    let setup = phase("setup");
    let ds = dataset(id, 7);
    let mut repo = Repository::with_root(&out).expect("create repository root");
    repo.store(&ds.info.name, VersionKey::GroundTruth, ds.clean.clone()).unwrap();
    repo.store(&ds.info.name, VersionKey::Dirty, ds.dirty.clone()).unwrap();
    drop(setup);

    let ctrl = rein_bench::controller(100, 3);
    let detect = phase("detect");
    let mut detections = ctrl.run_detection(&ds);
    drop(detect);
    detections.retain(|d| d.quality.detected() > 0);
    detections.sort_by(|a, b| b.quality.f1.total_cmp(&a.quality.f1));
    detections.truncate(4);
    let repair = phase("repair-and-store");
    let mut stored = 2usize;
    for det in &detections {
        for run in ctrl.run_repairs(&ds, det) {
            if let Some(version) = run.version {
                let key = VersionKey::Repaired {
                    detector: det.kind.name().to_string(),
                    repairer: run.kind.name().to_string(),
                };
                repo.store(&ds.info.name, key, version.table).unwrap();
                stored += 1;
            }
        }
    }
    drop(repair);
    println!("stored {stored} data versions of {} under {out}/{}/", ds.info.name, ds.info.name);
    for key in repo.versions_of(&ds.info.name) {
        println!("  {key:?}");
    }
    conclude("export_versions", ctrl.seed, ctrl.label_budget as u64);
}
