//! Grid smoke test: runs the benchmark grid, dumps its cells and
//! compares them byte for byte. `--mode` picks what is compared.
//!
//! - `--mode parallel` (seed 31) runs the S1–S5 grid under scoped rayon
//!   pools of 1, 4 and N threads in one process. Every serialized cell
//!   and the canonical Chrome-trace and flamegraph exports must be
//!   byte-identical across the widths, and every trace must be rooted at
//!   a `cell:*` span with no orphans. This is the runtime half of the
//!   parallel-grid certification; the static half is `rein-audit`'s
//!   `par-*` rule family. Exit `0`; `4` when a cell or export differs or
//!   a causal tree is broken; `5` when a run degraded cells.
//! - `--mode chaos` (seed 29) runs the S1 detection + repair grid
//!   fault-free, then under seeded fault injection (`REIN_CHAOS`, by
//!   default one detector panic and one repair stall). Exactly the
//!   injected cells must degrade; each failure record must link its own
//!   cell's trace, and only those traces may carry a `guard:fail:*`
//!   instant; every other cell must be byte-identical. Exit `3` (the
//!   degraded-run exit of [`rein_bench::conclude`]) on success; `4` when
//!   a non-injected cell diverged; `5` when the failure set or its
//!   attribution is wrong.
//! - `--mode crash` (seed 37) proves the durable cell store's
//!   kill-resume contract (DESIGN.md §6j). The parent re-invokes itself
//!   (`--child STORE DUMP STATS`) for one store-backed S1 grid per
//!   scenario, since `REIN_CRASH` must abort a real process: a
//!   store-less reference, a cold store, a kill and resume at each
//!   injection point, a flipped journal byte that must quarantine one
//!   `checksum-mismatch` stretch, and a warm store that must serve ≥90%
//!   of the cells. Every dump must equal the reference. Exit `0`; `4`
//!   when a dump diverged; `6` when a crash did not fire, a child failed
//!   or corruption went unrecovered; `7` on a wrong quarantine set.
//!
//! `--dump-cells PATH` (parallel and chaos) writes the reference grid's
//! cells — the 1-thread run or the fault-free run — to `PATH`; CI runs
//! the smoke at `REIN_THREADS=1` and `4` and compares the dumps by hash.
//! Exit `2` means a bad environment or argument.

#![allow(
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "a binary is the report surface: it prints its results and may abort on a broken invariant"
)]

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::Command;

use rein_bench::{dataset, dump_cells, header, phase};
use rein_core::{ChaosRule, ChaosSpec, Controller, GuardPolicy, Scenario};
use rein_datasets::{DatasetId, GeneratedDataset};
use rein_telemetry::{FailureRecord, TraceForest, TraceNode};

const LABEL_BUDGET: usize = 50;

/// `--mode chaos` injection when `REIN_CHAOS` is unset: one detector
/// panics; one (detector, repairer) cell stalls.
const DEFAULT_CHAOS: &str = "detect:raha=panic,repair:impute_mean_mode#max_entropy=stall";

/// `--mode crash` injection points, covering every commit phase on both
/// sides of the durable append. They name cells the BreastCancer S1
/// plan is guaranteed to contain (the ones [`DEFAULT_CHAOS`] targets).
/// The last names a coordinate served by a shared repair cell: at seed
/// 37 metadata_driven emits min_k's mask, so the rule fires at the commit
/// of min_k's `impute_mean_mode` cell.
const CRASH_POINTS: [&str; 5] = [
    "detect:raha=after",
    "repair:impute_mean_mode#max_entropy=before",
    "repair:impute_mean_mode#max_entropy=after",
    "eval:S1:impute_mean_mode#max_entropy=before",
    "repair:impute_mean_mode#metadata_driven=after",
];

/// A grid's serialized cells, keyed by coordinate.
type Cells = BTreeMap<String, String>;

/// A crash-mode child's telemetry counters.
type Stats = BTreeMap<String, u64>;

/// A crash-mode child's store root, dump path and stats path.
type Child = [String; 3];

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Parallel,
    Chaos,
    Crash,
}

fn main() {
    let (mode, dump, child) = parse_args().unwrap_or_else(|e| fail(2, &e));
    match (mode, child) {
        (Mode::Parallel, None) => parallel_mode(dump.as_deref()),
        (Mode::Chaos, None) => chaos_mode(dump.as_deref()),
        (Mode::Crash, None) => crash_mode(),
        (Mode::Crash, Some([store, dump, stats])) => crash_child(&store, &dump, &stats),
        (_, Some(_)) => fail(2, "--child is only valid with --mode crash"),
    }
}

/// Parses `--mode parallel|chaos|crash [--dump-cells PATH]` and crash
/// mode's internal `--child STORE DUMP STATS`.
fn parse_args() -> Result<(Mode, Option<PathBuf>, Option<Child>), String> {
    let mut args = std::env::args().skip(1);
    let (mut mode, mut dump, mut child) = (None, None, None);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--mode" => {
                mode = Some(match args.next().as_deref() {
                    Some("parallel") => Mode::Parallel,
                    Some("chaos") => Mode::Chaos,
                    Some("crash") => Mode::Crash,
                    other => {
                        return Err(format!("--mode wants parallel, chaos or crash, got {other:?}"))
                    }
                });
            }
            "--dump-cells" => {
                let path = args.next().ok_or("--dump-cells needs a PATH argument")?;
                dump = Some(PathBuf::from(path));
            }
            "--child" => {
                let paths: Vec<String> = args.by_ref().take(3).collect();
                let paths = Child::try_from(paths)
                    .map_err(|_| "--child needs STORE DUMP STATS arguments")?;
                child = Some(paths);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let mode = mode.ok_or("--mode parallel|chaos|crash is required")?;
    if mode == Mode::Crash && dump.is_some() {
        return Err("--dump-cells applies to --mode parallel and chaos".to_string());
    }
    Ok((mode, dump, child))
}

/// Reports `msg` on stderr and exits with `code`.
fn fail(code: i32, msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(code);
}

/// Writes `cells` to the `--dump-cells` path, when one was given.
fn write_dump(path: Option<&Path>, cells: &Cells) {
    let Some(path) = path else { return };
    if let Err(e) = dump_cells(path, cells) {
        fail(2, &format!("cannot write {}: {e}", path.display()));
    }
    println!("cells dump: {}", path.display());
}

/// Exits `5` when any guarded strategy degraded during `run`.
fn expect_fault_free(run: &str) {
    let failures = rein_telemetry::failures_snapshot();
    if failures.is_empty() {
        return;
    }
    eprintln!("error: {run} degraded {} cell(s):", failures.len());
    for f in &failures {
        eprintln!("  {} -> {}", failure_key(f), f.cause);
    }
    std::process::exit(5);
}

/// The grid coordinate a failure record belongs to:
/// `phase:strategy[#scope]`.
fn failure_key(f: &FailureRecord) -> String {
    if f.scope.is_empty() {
        format!("{}:{}", f.phase, f.strategy)
    } else {
        format!("{}:{}#{}", f.phase, f.strategy, f.scope)
    }
}

/// Reconstructs the run's causal trace trees, exiting with `code` when
/// any span is an orphan or any trace is not rooted at a `cell:*` span.
fn trace_forest(run: &str, code: i32) -> TraceForest {
    let forest = rein_telemetry::build_traces(&rein_telemetry::snapshot_spans());
    for o in &forest.orphans {
        eprintln!(
            "  orphan {:?} (id {}) on trace {:016x}, parent {}",
            o.name, o.id, o.trace_id, o.parent_id
        );
    }
    if !forest.orphans.is_empty() {
        fail(code, &format!("{run} left {} orphan span(s)", forest.orphans.len()));
    }
    if let Some(t) = forest.traces.iter().find(|t| !t.root.name.starts_with("cell:")) {
        let msg =
            format!("trace {} is rooted at {:?}, not a cell span", t.trace_hex(), t.root.name);
        fail(code, &msg);
    }
    forest
}

/// Compares `got` against `want`, skipping the coordinates
/// `skip` accepts. Returns how many `want` cells it checked and how
/// many cells diverged, went missing or appeared extra.
fn diff(label: &str, want: &Cells, got: &Cells, skip: impl Fn(&str) -> bool) -> (usize, usize) {
    let (mut checked, mut diverged) = (0, 0);
    for (key, bytes) in want.iter().filter(|(key, _)| !skip(key)) {
        checked += 1;
        let problem = match got.get(key) {
            Some(b) if b == bytes => continue,
            Some(_) => "diverged",
            None => "missing",
        };
        eprintln!("error: cell {key} {problem} {label}");
        diverged += 1;
    }
    for key in got.keys().filter(|key| !skip(key) && !want.contains_key(*key)) {
        eprintln!("error: extra cell {key} {label}");
        diverged += 1;
    }
    (checked, diverged)
}

/// `--mode parallel`: the S1–S5 grid at 1, 4 and the configured width.
fn parallel_mode(dump: Option<&Path>) -> ! {
    const SEED: u64 = 31;
    let setup = phase("setup");
    let ds = dataset(DatasetId::BreastCancer, SEED);
    drop(setup);

    header("Parallel smoke — S1–S5 grid byte-identity across pool widths");
    println!("dataset: {} ({} rows)", ds.info.name, ds.dirty.n_rows());
    // 1, 4, and the configured width (REIN_THREADS or the machine's
    // core count) — deduplicated, reference first.
    let native = rein_bench::worker_threads() as usize;
    let mut widths = vec![1usize, 4, native];
    widths.sort_unstable();
    widths.dedup();
    println!("pool widths: {widths:?} (native {native})");

    let (reference, ref_forest) = grid_at(widths[0], &ds, SEED);
    let ref_exports = exports(&ref_forest);
    let traces = ref_forest.traces.len();
    println!("{} cell(s), {traces} cell trace(s) at {} thread(s)", reference.len(), widths[0]);
    write_dump(dump, &reference);

    let compare = phase("compare");
    let mut diverged = 0usize;
    for &w in &widths[1..] {
        let (cells, forest) = grid_at(w, &ds, SEED);
        let label = format!("at {w} thread(s) vs {}", widths[0]);
        diverged += diff(&label, &reference, &cells, |_| false).1;
        let exported = ["Chrome trace", "flamegraph"].into_iter().zip(exports(&forest));
        for ((what, got), want) in exported.zip(&ref_exports) {
            if got != *want {
                eprintln!("error: {what} export diverged {label}");
                diverged += 1;
            }
        }
        if diverged == 0 {
            let traces = forest.traces.len();
            println!(
                "{} cell(s) and {traces} canonical trace(s) byte-identical {label}",
                cells.len()
            );
        }
    }
    drop(compare);

    if diverged > 0 {
        fail(4, &format!("{diverged} cell(s)/export(s) depend on the worker-thread count"));
    }
    println!("\ngrid and trace exports are worker-count invariant across {widths:?} threads");
    rein_bench::conclude("parallel_smoke", SEED, LABEL_BUDGET as u64);
}

/// The canonical Chrome-trace and flamegraph exports of a forest —
/// byte-comparable across pool widths because the exporter erases
/// wall-clock, worker identity and span-id allocation order.
fn exports(forest: &TraceForest) -> [String; 2] {
    [rein_telemetry::chrome_trace_json(forest), rein_telemetry::flamegraph_svg(forest)]
}

/// Runs the S1–S5 grid inside a scoped pool of exactly `threads`
/// workers. Telemetry is reset first so each run's failure set and span
/// stream stand alone.
fn grid_at(threads: usize, ds: &GeneratedDataset, seed: u64) -> (Cells, TraceForest) {
    rein_telemetry::reset();
    let run = phase(&format!("grid-{threads}"));
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap_or_else(|e| fail(2, &format!("cannot build a {threads}-thread pool: {e}")));
    let ctrl = Controller { label_budget: LABEL_BUDGET, seed, ..Controller::default() };
    let cells = pool.install(|| ctrl.run_grid(ds, &Scenario::ALL, 1));
    drop(run);
    let label = format!("the {threads}-thread run");
    expect_fault_free(&label);
    (cells, trace_forest(&label, 4))
}

/// `--mode chaos`: the S1 detection + repair grid, fault-free and under
/// injection.
fn chaos_mode(dump: Option<&Path>) -> ! {
    const SEED: u64 = 29;
    let setup = phase("setup");
    rein_bench::install_thread_pool();
    #[expect(
        clippy::disallowed_methods,
        reason = "the chaos self-test's own injection spec; the grids it compares never read it"
    )]
    let spec_text = std::env::var("REIN_CHAOS").unwrap_or_else(|_| DEFAULT_CHAOS.to_string());
    let chaos = match ChaosSpec::parse(&spec_text) {
        Ok(c) if !c.is_empty() => c,
        Ok(_) => fail(2, "chaos smoke needs at least one injection rule"),
        Err(e) => fail(2, &format!("REIN_CHAOS={spec_text:?} is invalid: {e}")),
    };
    let ds = dataset(DatasetId::BreastCancer, SEED);
    drop(setup);

    header("Chaos smoke — S1 grid under fault injection");
    println!("dataset: {} ({} rows)", ds.info.name, ds.dirty.n_rows());
    println!("spec:    {spec_text}");

    let baseline_phase = phase("baseline");
    let clean = Controller { label_budget: LABEL_BUDGET, seed: SEED, ..Controller::default() };
    let baseline = clean.run_grid(&ds, &[], 0);
    drop(baseline_phase);
    expect_fault_free("the fault-free run");
    write_dump(dump, &baseline);

    let chaos_phase = phase("chaos");
    let chaotic = Controller { policy: GuardPolicy::with_chaos(chaos.clone()), ..clean };
    let injected = chaotic.run_grid(&ds, &[], 0);
    drop(chaos_phase);

    let verify = phase("verify");
    // Every injected rule must have produced at least one failure, and
    // every failure must trace back to an injected rule. One rule can
    // degrade several coordinates: an unscoped repair rule hits the
    // repairer's cell in every mask group, and a shared repair cell
    // records one failure per detector it serves.
    let failures = rein_telemetry::failures_snapshot();
    println!("\n{} failure record(s):", failures.len());
    for f in &failures {
        println!("  {}@{} -> {} (attempts {})", failure_key(f), f.dataset, f.cause, f.attempts);
    }
    let injects = |r: &ChaosRule, f: &FailureRecord| {
        r.phase.name() == f.phase
            && r.strategy == f.strategy
            && r.dataset.as_deref().is_none_or(|d| d == f.dataset)
            && r.scope.as_deref().is_none_or(|s| s == f.scope)
    };
    for r in chaos.rules() {
        if !failures.iter().any(|f| injects(r, f)) {
            fail(5, &format!("injection rule {}:{} degraded no cell", r.phase.name(), r.strategy));
        }
    }
    let failed_keys: Vec<String> = failures.iter().map(failure_key).collect();
    for (f, key) in failures.iter().zip(&failed_keys) {
        if !chaos.rules().iter().any(|r| injects(r, f)) {
            fail(5, &format!("failure {key} does not match any injection rule"));
        }
    }

    // Causal attribution: each failure record links the trace of the
    // cell it was injected into, and the failure instant sits on that
    // trace — and only there. A shared repair cell's trace is rooted at
    // the first detector it serves, and the failures of the other
    // detectors it serves ride that one trace.
    let forest = trace_forest("the chaos run", 5);
    fn fail_instants(node: &TraceNode) -> usize {
        usize::from(node.instant && node.name.starts_with("guard:fail:"))
            + node.children.iter().map(fail_instants).sum::<usize>()
    }
    for (f, key) in failures.iter().zip(&failed_keys) {
        if f.trace_id.is_empty() {
            fail(5, &format!("failure {key} carries no trace link"));
        }
        let Some(trace) = forest.traces.iter().find(|t| t.trace_hex() == f.trace_id) else {
            fail(5, &format!("failure {key} links trace {} but no such trace exists", f.trace_id));
        };
        let rooted_at_a_failure_of_this_cell =
            failures.iter().zip(&failed_keys).any(|(other, other_key)| {
                other.trace_id == f.trace_id
                    && other.phase == f.phase
                    && other.strategy == f.strategy
                    && trace.root.name == format!("cell:{other_key}")
            });
        if !rooted_at_a_failure_of_this_cell {
            let root = &trace.root.name;
            fail(5, &format!("failure {key} links trace {} rooted at {root:?}", f.trace_id));
        }
        if fail_instants(&trace.root) == 0 {
            fail(5, &format!("trace {} (cell:{key}) carries no guard:fail instant", f.trace_id));
        }
    }
    let failing_traces: BTreeSet<String> = forest
        .traces
        .iter()
        .filter(|t| fail_instants(&t.root) > 0)
        .map(|t| t.trace_hex())
        .collect();
    let linked_traces: BTreeSet<String> = failures.iter().map(|f| f.trace_id.clone()).collect();
    if failing_traces != linked_traces {
        let msg = format!(
            "{} trace(s) carry failure instants but the failures link {} distinct trace(s)",
            failing_traces.len(),
            linked_traces.len()
        );
        fail(5, &msg);
    }
    println!(
        "{} failure(s) causally attributed to their {} injected cell trace(s)",
        failures.len(),
        linked_traces.len()
    );

    // Non-injected cells must match the fault-free run byte-for-byte; a
    // degraded detector also changes every repair cell it feeds.
    let affected = |key: &str| {
        failed_keys.iter().any(|fk| {
            key == fk
                || fk.strip_prefix("detect:").is_some_and(|det| {
                    key.starts_with("repair:") && key.ends_with(&format!("#{det}"))
                })
        })
    };
    let (checked, diverged) = diff("under chaos", &baseline, &injected, affected);
    drop(verify);
    println!(
        "\n{checked} non-injected cell(s) byte-identical; {} degraded as injected",
        failures.len()
    );
    if diverged > 0 {
        std::process::exit(4);
    }
    rein_bench::conclude("chaos_smoke", SEED, LABEL_BUDGET as u64);
}

/// `--mode crash` seed and the child's manifest stem.
const CRASH_SEED: u64 = 37;

/// One store-backed grid run inside its own process: the unit the
/// parent kills, resumes and compares. Writes the grid's cell dump and
/// a JSON snapshot of the telemetry counters (store hits/misses/
/// replays/divergence/quarantine), then exits 0.
fn crash_child(store: &str, dump: &str, stats: &str) -> ! {
    // The store selector arrives as an argument, not ambient state: the
    // parent owns which scenario uses which store root.
    std::env::set_var("REIN_STORE", store);
    let setup = phase("setup");
    let ds = dataset(DatasetId::BreastCancer, CRASH_SEED);
    let ctrl = rein_bench::controller(LABEL_BUDGET, CRASH_SEED);
    drop(setup);
    let grid = phase("grid");
    let cells = ctrl.run_grid(&ds, &[Scenario::S1], 1);
    drop(grid);
    let emit = phase("emit");
    if let Err(e) = dump_cells(Path::new(dump), &cells) {
        fail(2, &format!("cannot write {dump}: {e}"));
    }
    let counters = rein_telemetry::counters_snapshot();
    let json = serde_json::to_string_pretty(&counters).expect("counters serialize");
    #[expect(
        clippy::disallowed_methods,
        reason = "a crash child's counter snapshot for its parent, not a store artifact"
    )]
    if let Err(e) = std::fs::write(stats, json) {
        fail(2, &format!("cannot write {stats}: {e}"));
    }
    drop(emit);
    rein_bench::write_run_manifest("crash_smoke", CRASH_SEED, LABEL_BUDGET as u64);
    std::process::exit(0);
}

/// `--mode crash`: orchestrates the child runs and their verdicts.
fn crash_mode() -> ! {
    header("Crash smoke — kill-resume recovery of the durable cell store");
    let exe = std::env::current_exe()
        .unwrap_or_else(|e| fail(2, &format!("cannot locate own binary: {e}")));
    let work = std::env::temp_dir().join(format!("rein-crash-smoke-{}", std::process::id()));
    #[expect(
        clippy::let_underscore_must_use,
        reason = "best-effort removal of a stale scratch directory; creating it is checked"
    )]
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) = std::fs::create_dir_all(&work) {
        fail(2, &format!("cannot create {}: {e}", work.display()));
    }
    let run = |store: &Path, name: &str| run_child(&exe, &work, store, name);

    // 1. Reference: store-less ground truth.
    let want = read_dump(&run(Path::new("off"), "reference").1);

    // 2. Cold store: everything misses, computes, commits.
    let cold_store = work.join("store-cold");
    let (cold_stats, cold) = run(&cold_store, "cold");
    expect_identical(&want, &cold, "cold store-backed run");
    if counter(&cold_stats, "store_hits") != 0 {
        fail(6, "cold store reported hits");
    }

    // 3. Kill-resume at every injection point, each from a fresh store.
    for (i, spec) in CRASH_POINTS.iter().enumerate() {
        let store = work.join(format!("store-crash-{i}"));
        println!("\n-- crash point {spec}");
        let status = child_command(&exe, &work, &store, &format!("crash-{i}"))
            .env("REIN_CRASH", spec)
            .status();
        match status {
            Ok(s) if died_by_crash(&s) => println!("   child killed as injected"),
            Ok(s) => fail(6, &format!("REIN_CRASH={spec} child did not crash (status {s})")),
            Err(e) => fail(2, &format!("cannot spawn child: {e}")),
        }
        let (stats, resumed) = run(&store, &format!("resume-{i}"));
        expect_identical(&want, &resumed, &format!("resume after {spec}"));
        if counter(&stats, "store_quarantined") != 0 {
            fail(7, &format!("clean kill at {spec} must not quarantine anything"));
        }
        println!("   resume byte-identical to reference");
    }

    // 4. Corruption: flip the last journal byte of the cold store — the
    // final record's checksum breaks; recovery must quarantine exactly
    // that stretch and the next run recomputes the lost cell.
    let journal = cold_store.join("journal.wal");
    #[expect(
        clippy::disallowed_methods,
        reason = "the smoke corrupts a scratch journal on purpose"
    )]
    match std::fs::read(&journal) {
        Ok(mut bytes) if bytes.len() > 8 => {
            let last = bytes.len() - 1;
            bytes[last] ^= 0xFF;
            #[expect(
                clippy::disallowed_methods,
                reason = "deliberate corruption injection — the whole point is a torn journal"
            )]
            if let Err(e) = std::fs::write(&journal, &bytes) {
                fail(2, &format!("cannot corrupt {}: {e}", journal.display()));
            }
        }
        Ok(_) | Err(_) => {
            fail(6, &format!("cold store journal missing or empty at {}", journal.display()))
        }
    }
    println!("\n-- corruption: last journal byte flipped");
    let (healed_stats, healed) = run(&cold_store, "healed");
    expect_identical(&want, &healed, "resume after corruption");
    let quarantined = counter(&healed_stats, "store_quarantined");
    if quarantined != 1 {
        fail(7, &format!("corruption must quarantine exactly 1 stretch, got {quarantined}"));
    }
    check_quarantine_report(&cold_store);
    println!("   corrupt record quarantined, lost cell recomputed, dump identical");

    // 5. Warm store: every cell must now hit, with zero divergence.
    println!("\n-- warm store");
    let (warm_stats, warm) = run(&cold_store, "warm");
    expect_identical(&want, &warm, "fully-warm run");
    let hits = counter(&warm_stats, "store_hits");
    let misses = counter(&warm_stats, "store_misses");
    let divergence = counter(&warm_stats, "store_divergence");
    let rate = hits as f64 / (hits + misses).max(1) as f64;
    println!("   hits={hits} misses={misses} divergence={divergence} rate={rate:.3}");
    if rate < 0.9 {
        fail(6, &format!("warm hit rate {rate:.3} below 0.9"));
    }
    if divergence != 0 {
        fail(4, &format!("{divergence} recomputed cell(s) diverged from stored payloads"));
    }

    #[expect(
        clippy::let_underscore_must_use,
        reason = "best-effort removal of the scratch directory after a passing run"
    )]
    let _ = std::fs::remove_dir_all(&work);
    println!(
        "\ncrash smoke passed: {} kill-resume point(s), 1 corruption, warm rate {rate:.3}",
        CRASH_POINTS.len()
    );
    std::process::exit(0);
}

/// Builds the child invocation with a scenario-scoped store and no
/// inherited injection state. The child writes `<work>/<name>.dump` and
/// `<work>/<name>.stats.json`.
fn child_command(exe: &Path, work: &Path, store: &Path, name: &str) -> Command {
    let mut cmd = Command::new(exe);
    cmd.args(["--mode", "crash", "--child"])
        .arg(store)
        .arg(work.join(format!("{name}.dump")))
        .arg(work.join(format!("{name}.stats.json")))
        .env_remove("REIN_CRASH")
        .env_remove("REIN_CHAOS")
        .env_remove("REIN_STORE");
    cmd
}

/// Runs a child to completion, requiring a clean exit; returns its
/// parsed counter stats and the path of its dump.
fn run_child(exe: &Path, work: &Path, store: &Path, name: &str) -> (Stats, PathBuf) {
    match child_command(exe, work, store, name).status() {
        Ok(s) if s.success() => {}
        Ok(s) => fail(6, &format!("{name} child failed with {s}")),
        Err(e) => fail(2, &format!("cannot spawn {name} child: {e}")),
    }
    let dump = work.join(format!("{name}.dump"));
    if !dump.exists() {
        fail(6, &format!("{name} child wrote no dump at {}", dump.display()));
    }
    let stats = work.join(format!("{name}.stats.json"));
    #[expect(clippy::disallowed_methods, reason = "the smoke reads its child's counter snapshot")]
    let text = std::fs::read_to_string(&stats)
        .unwrap_or_else(|e| fail(6, &format!("missing stats {}: {e}", stats.display())));
    let counters = serde_json::from_str(&text)
        .unwrap_or_else(|e| fail(6, &format!("unreadable stats {}: {e}", stats.display())));
    (counters, dump)
}

/// Reads one counter from a child's stats snapshot (absent = 0).
fn counter(stats: &Stats, name: &str) -> u64 {
    stats.get(name).copied().unwrap_or(0)
}

/// Whether the child died at the injected commit point (by signal on
/// Unix — `process::abort` raises SIGABRT — or any abnormal exit
/// elsewhere), as opposed to finishing or rejecting its environment.
fn died_by_crash(status: &std::process::ExitStatus) -> bool {
    status.code().is_none() || (!cfg!(unix) && !status.success())
}

#[expect(clippy::disallowed_methods, reason = "the smoke compares the cell dumps its runs wrote")]
fn read_dump(path: &Path) -> String {
    std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(2, &format!("cannot read {}: {e}", path.display())))
}

/// Byte-compares a run's dump against the reference; divergence is the
/// one failure a durable store must never produce.
fn expect_identical(want: &str, dump: &Path, what: &str) {
    if read_dump(dump) != want {
        fail(4, &format!("{what} dump diverged from the store-less reference"));
    }
    println!("   {} cells byte-identical ({what})", want.matches("== ").count());
}

/// Asserts the structured quarantine report names exactly the injected
/// corruption: one `checksum-mismatch` stretch in the journal tail,
/// with its quarantined blob actually on disk.
fn check_quarantine_report(store: &Path) {
    let path = rein_store::Store::quarantine_report_path(store);
    #[expect(
        clippy::disallowed_methods,
        reason = "the smoke checks the quarantine report it provoked"
    )]
    let entries: Vec<rein_store::QuarantineEntry> = match std::fs::read_to_string(&path) {
        Ok(text) => serde_json::from_str(&text).unwrap_or_default(),
        Err(e) => fail(7, &format!("missing quarantine report {}: {e}", path.display())),
    };
    let [entry] = entries.as_slice() else {
        fail(7, &format!("expected exactly 1 quarantine entry, report has {}", entries.len()));
    };
    if entry.reason != "checksum-mismatch" || entry.file != "journal.wal" {
        let got = format!("{}:{}", entry.file, entry.reason);
        fail(7, &format!("quarantine entry is {got}, want journal.wal:checksum-mismatch"));
    }
    if entry.quarantined_as.is_empty() || !store.join(&entry.quarantined_as).exists() {
        fail(7, &format!("quarantined blob {:?} is not on disk", entry.quarantined_as));
    }
}
