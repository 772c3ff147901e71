//! # rein-bench
//!
//! The experiment harness reproducing every table and figure of the
//! paper's evaluation (§6). Each `src/bin/` binary regenerates one
//! artefact and prints the same rows/series the paper reports. Runtime
//! is measured by the repository benchmark under `benchmark/`.
//!
//! All binaries honour the `REIN_SCALE` environment variable (default
//! `0.05`): dataset row counts are `REIN_SCALE ×` the paper's Table 4
//! sizes, so a laptop run finishes in minutes while `REIN_SCALE=1` runs
//! the full-size study.

use rein_core::{DetectorHarness, DetectorRun, GuardPolicy};
use rein_datasets::{DatasetId, GeneratedDataset, Params};
use rein_detect::DetectorKind;
pub use rein_telemetry::{RunConfig, RunManifest, Span};

/// Default for `REIN_SCALE`.
pub const DEFAULT_SCALE: f64 = 0.05;

/// Default for `REIN_REPEATS` (the paper uses 10).
pub const DEFAULT_REPEATS: usize = 3;

/// Terminates the process over an unusable environment override. A
/// typo'd `REIN_SCALE=0.5x` silently running the full-size study (or a
/// tiny one) produces misleading artefacts, so a value that is set but
/// unparsable is a hard error, never a silent default.
fn reject_env(var: &str, raw: &str, want: &str) -> ! {
    eprintln!("error: {var}={raw:?} is invalid: want {want} (unset it to use the default)");
    std::process::exit(2);
}

/// Reads the global scale factor (`REIN_SCALE`, default
/// [`DEFAULT_SCALE`]). A value that is set but not a positive finite
/// number terminates the process with a clear message — see
/// [`reject_env`]. Parsed once per process — the bins call this in
/// every loop iteration.
pub fn scale() -> f64 {
    static SCALE: std::sync::OnceLock<f64> = std::sync::OnceLock::new();
    *SCALE.get_or_init(|| match std::env::var("REIN_SCALE") {
        Err(_) => DEFAULT_SCALE,
        Ok(raw) => match raw.parse::<f64>() {
            Ok(s) if s > 0.0 && s.is_finite() => s,
            _ => reject_env("REIN_SCALE", &raw, "a positive finite number"),
        },
    })
}

/// Reads the repeat count for stochastic experiments (`REIN_REPEATS`,
/// default [`DEFAULT_REPEATS`]). A value that is set but not a positive
/// integer terminates the process with a clear message — see
/// [`reject_env`]. Parsed once per process, like [`scale`].
pub fn repeats() -> usize {
    static REPEATS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *REPEATS.get_or_init(|| match std::env::var("REIN_REPEATS") {
        Err(_) => DEFAULT_REPEATS,
        Ok(raw) => match raw.parse::<usize>() {
            Ok(r) if r > 0 => r,
            _ => reject_env("REIN_REPEATS", &raw, "a positive integer"),
        },
    })
}

/// Whether the opt-in grid progress heartbeat is enabled
/// (`REIN_PROGRESS`, default off). The controller prints one
/// deterministic-content line per completed grid phase on stderr when
/// this is set — useful for watching a long full-scale run without
/// perturbing any artefact. Accepts `1`/`true` (on) and `0`/`false`/
/// empty (off); anything else is rejected like the other overrides.
pub fn progress() -> bool {
    static PROGRESS: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *PROGRESS.get_or_init(|| match std::env::var("REIN_PROGRESS") {
        Err(_) => false,
        Ok(raw) => match raw.as_str() {
            "" | "0" | "false" => false,
            "1" | "true" => true,
            _ => reject_env("REIN_PROGRESS", &raw, "1/true to enable or 0/false to disable"),
        },
    })
}

/// The configured worker-thread count, plumbed from exactly one place
/// so every artifact echoes the same number: `REIN_THREADS` when set
/// (validated like the other overrides), otherwise the rayon pool width
/// ([`rayon::current_num_threads`]). Run manifests echo this value, so
/// a manifest records the pool width its timings were taken at.
pub fn worker_threads() -> u32 {
    static THREADS: std::sync::OnceLock<u32> = std::sync::OnceLock::new();
    *THREADS.get_or_init(|| match std::env::var("REIN_THREADS") {
        Err(_) => rayon::current_num_threads() as u32,
        Ok(raw) => match raw.parse::<u32>() {
            Ok(t) if t > 0 => t,
            _ => reject_env("REIN_THREADS", &raw, "a positive integer"),
        },
    })
}

/// Installs the global rayon pool sized by [`worker_threads`], so grid
/// execution actually honours `REIN_THREADS` instead of merely echoing
/// it into the run manifest. Called by [`controller`], which every
/// bench binary goes through. Harmless when a pool already exists —
/// rayon forbids re-configuration, so the first installer wins — which
/// is exactly what scoped-pool callers like `grid_smoke --mode parallel`
/// rely on.
pub fn install_thread_pool() {
    // An Err means a global pool is already installed; its size wins.
    let _ = rayon::ThreadPoolBuilder::new().num_threads(worker_threads() as usize).build_global();
}

/// Opens a top-level phase span (named `phase:<name>`) for a section of
/// a benchmark binary. Phases land in the run manifest with their
/// durations; under `REIN_LOG=debug` they print open/close events.
pub fn phase(name: &str) -> Span {
    rein_telemetry::span(format!("phase:{name}"))
}

/// The counters every run manifest should carry, even when a phase that
/// would increment them did not run.
const STANDARD_COUNTERS: [&str; 5] =
    ["cells_scanned", "detector_invocations", "model_fits", "repair_applications", "rng_draws"];

/// Collects the run's telemetry into a manifest for `binary` and writes
/// it to `artifacts/telemetry/<binary>-<seed>.json`, printing the path
/// it wrote so every benchmark run names its artefacts. Failures are
/// reported on stderr, not panics — a missing manifest must not fail a
/// benchmark run that already printed its report.
#[allow(clippy::print_stdout)] // the artifact-path announcement is part of the report surface
pub fn write_run_manifest(binary: &str, seed: u64, label_budget: u64) {
    for name in STANDARD_COUNTERS {
        rein_telemetry::counter(name);
    }
    let config = RunConfig {
        scale: scale(),
        repeats: repeats() as u32,
        seed,
        label_budget,
        threads: worker_threads(),
    };
    let manifest = RunManifest::collect(binary, config);
    match manifest.write() {
        Ok(path) => {
            rein_telemetry::info!(
                "{} spans, {} counters -> {}",
                manifest.spans.len(),
                manifest.counters.len(),
                path.display()
            );
            println!("telemetry manifest: {}", path.display());
            // Register the run in the cross-run ledger so the report
            // generator sees it without a full rescan. Registration is
            // idempotent: re-running the same configuration maps to the
            // same content key and leaves the index untouched.
            match rein_ledger::register_run(std::path::Path::new("."), &manifest, &path) {
                Ok(true) => println!("ledger: registered {}", path.display()),
                Ok(false) => println!("ledger: already known, index unchanged"),
                Err(e) => eprintln!("warning: ledger registration failed for {binary}: {e}"),
            }
        }
        Err(e) => eprintln!("warning: failed to write run manifest for {binary}: {e}"),
    }
}

/// Writes a grid's serialized cells (see `Controller::run_grid`) to a
/// stable text file: a `== <key> (<len> bytes)` header per cell followed
/// by the cell's bytes. Byte-identical grids produce byte-identical
/// files, so CI compares dumps across `REIN_THREADS` settings by hash.
pub fn dump_cells(
    path: &std::path::Path,
    cells: &std::collections::BTreeMap<String, String>,
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let mut out = String::new();
    for (key, bytes) in cells {
        out.push_str(&format!("== {key} ({} bytes)\n", bytes.len()));
        out.push_str(bytes);
        out.push('\n');
    }
    std::fs::write(path, out)
}

/// Exit code for a run that completed but degraded at least one grid
/// cell (distinct from `2` = bad environment and `1` = crash).
pub const FAILURE_EXIT: i32 = 3;

/// The supervision policy for bench binaries: chaos injection from the
/// `REIN_CHAOS` environment variable and crash injection from
/// `REIN_CRASH` (both empty when unset), default retries and budgets.
/// A set-but-unparsable spec is rejected like any other bad
/// environment override.
pub fn guard_policy() -> GuardPolicy {
    let chaos = match rein_core::ChaosSpec::from_env() {
        Ok(chaos) => chaos,
        Err(e) => reject_env(
            "REIN_CHAOS",
            &std::env::var("REIN_CHAOS").unwrap_or_default(),
            &format!("a chaos spec like detect:raha=panic ({e})"),
        ),
    };
    let crash = match rein_core::CrashSpec::from_env() {
        Ok(crash) => crash,
        Err(e) => reject_env(
            "REIN_CRASH",
            &std::env::var("REIN_CRASH").unwrap_or_default(),
            &format!("a crash spec like detect:raha=before ({e})"),
        ),
    };
    let mut policy = GuardPolicy::with_chaos(chaos);
    policy.crash = crash;
    policy
}

/// Reads the durable cell-store selector (`REIN_STORE`, default off):
/// unset, empty, `0` or `off` runs store-less; `1`/`on` selects the
/// standard `artifacts/store` root; any other value is used as the
/// store root path directly. Parsed once per process.
pub fn store_root() -> Option<std::path::PathBuf> {
    static ROOT: std::sync::OnceLock<Option<std::path::PathBuf>> = std::sync::OnceLock::new();
    ROOT.get_or_init(|| match std::env::var("REIN_STORE") {
        Err(_) => None,
        Ok(raw) => match raw.as_str() {
            "" | "0" | "off" => None,
            "1" | "on" => Some(std::path::PathBuf::from("artifacts/store")),
            path => Some(std::path::PathBuf::from(path)),
        },
    })
    .clone()
}

/// Opens (once per process) the durable cell store selected by
/// `REIN_STORE`, running write-ahead-journal recovery. `None` when the
/// store is off. An unopenable root is a hard environment error like
/// any other bad override — silently running store-less would make a
/// "resumed" run recompute everything while claiming to resume.
/// Recovery that quarantined corrupt records is reported on stderr
/// (the store also writes `quarantine/report.json`), never silent.
pub fn open_store() -> Option<std::sync::Arc<rein_store::Store>> {
    static STORE: std::sync::OnceLock<Option<std::sync::Arc<rein_store::Store>>> =
        std::sync::OnceLock::new();
    STORE
        .get_or_init(|| {
            let root = store_root()?;
            match rein_store::Store::open(&root) {
                Ok(store) => {
                    let recovery = store.recovery();
                    if !recovery.quarantined.is_empty() {
                        eprintln!(
                            "warning: store recovery quarantined {} corrupt record stretch(es); \
                             see {}",
                            recovery.quarantined.len(),
                            rein_store::Store::quarantine_report_path(store.store_root()).display()
                        );
                    }
                    Some(std::sync::Arc::new(store))
                }
                Err(e) => reject_env(
                    "REIN_STORE",
                    &root.display().to_string(),
                    &format!("an openable store root ({e})"),
                ),
            }
        })
        .clone()
}

/// A controller wired with the environment's chaos/crash policy, the
/// environment's durable store (if any) and the given seed/budget —
/// the standard way bench binaries obtain one.
pub fn controller(label_budget: usize, seed: u64) -> rein_core::Controller {
    install_thread_pool();
    rein_core::Controller {
        label_budget,
        seed,
        policy: guard_policy(),
        scale: scale(),
        progress: progress(),
        store: open_store(),
    }
}

/// Finishes a benchmark binary: writes the run manifest and exits with
/// [`FAILURE_EXIT`] when any guarded strategy degraded during the run
/// (the manifest's `failures` array holds the details), `0` otherwise.
/// Binaries call this instead of returning from `main` so partial
/// results are always accompanied by an honest exit status.
#[allow(clippy::print_stdout)] // the failure summary is part of the report surface
pub fn conclude(binary: &str, seed: u64, label_budget: u64) -> ! {
    write_run_manifest(binary, seed, label_budget);
    let failures = rein_telemetry::failures_snapshot();
    if failures.is_empty() {
        std::process::exit(0);
    }
    println!("\n{} strategy failure(s) degraded this run:", failures.len());
    for f in &failures {
        let scope = if f.scope.is_empty() { String::new() } else { format!("#{}", f.scope) };
        println!(
            "  {}:{}@{}{}: {} (attempts {})",
            f.phase, f.strategy, f.dataset, scope, f.cause, f.attempts
        );
    }
    std::process::exit(FAILURE_EXIT);
}

/// Generates a dataset at the global scale.
pub fn dataset(id: DatasetId, seed: u64) -> GeneratedDataset {
    id.generate(&Params::scaled(scale(), seed))
}

/// Generates a dataset at an explicit scale.
pub fn dataset_at(id: DatasetId, size_factor: f64, seed: u64) -> GeneratedDataset {
    id.generate(&Params::scaled(size_factor, seed))
}

/// Runs a list of detectors on a dataset (planned signals supplied).
/// Each detector runs guarded under the chaos policy from the
/// environment ([`guard_policy`]).
pub fn run_detectors(
    ds: &GeneratedDataset,
    kinds: &[DetectorKind],
    budget: usize,
    seed: u64,
) -> Vec<DetectorRun> {
    let harness = DetectorHarness::new(ds, budget, seed).with_policy(guard_policy());
    kinds.iter().map(|&k| harness.run(ds, k)).collect()
}

/// Section header in the emitted reports.
#[allow(clippy::print_stdout)] // the one sanctioned stdout emitter for benchmark reports
pub fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// Prints a row of fixed-width cells.
#[allow(clippy::print_stdout)] // the one sanctioned stdout emitter for benchmark reports
pub fn row(cells: &[String]) {
    let line: Vec<String> = cells.iter().map(|c| format!("{c:>12}")).collect();
    println!("{}", line.join(" "));
}

/// Formats a float for report output.
pub fn f(v: f64) -> String {
    if v.is_nan() {
        "-".to_string()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.3}")
    }
}

/// Formats an optional float.
pub fn fo(v: Option<f64>) -> String {
    v.map_or("-".to_string(), f)
}

/// Formats a duration in seconds with millisecond resolution.
pub fn secs(d: std::time::Duration) -> String {
    format!("{:.3}s", d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_default_and_override() {
        // Default path (env var may be absent in tests).
        let s = scale();
        assert!(s > 0.0);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f(0.5), "0.500");
        assert_eq!(f(f64::NAN), "-");
        assert_eq!(f(12345.0), "12345");
        assert_eq!(fo(None), "-");
        assert_eq!(fo(Some(1.0)), "1.000");
    }

    #[test]
    fn dataset_helper_generates() {
        let ds = dataset_at(DatasetId::BreastCancer, 0.2, 1);
        assert!(ds.clean.n_rows() >= 20);
    }

    #[test]
    fn store_off_selector_runs_the_grid_store_less() {
        // Back-compat: REIN_STORE=off (and unset) must behave exactly
        // like the pre-store harness — no store opened, no journal
        // touched, controller in direct mode.
        std::env::set_var("REIN_STORE", "off");
        assert!(store_root().is_none());
        assert!(open_store().is_none());
        let ctrl = controller(10, 1);
        assert!(ctrl.store.is_none(), "REIN_STORE=off must run store-less");
    }
}
