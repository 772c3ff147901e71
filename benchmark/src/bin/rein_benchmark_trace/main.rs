//! The per-layer breakdown of one workload, read from the program's own
//! spans (README.md has how to read it).
//!
//! Takes `rein_benchmark`'s command line; `rein_benchmark --trace 1` runs
//! this binary. After setting up the end-to-end run's first dataset, it
//! makes:
//!
//! 1. end-to-end iterations on the full pool, for CPU use and the
//!    telemetry the program itself records, for a quarter of `--seconds`;
//! 2. then, for the rest, iterations on a one-thread pool. The program
//!    records a `controller:<phase>` span per phase, a `cell:<coordinate>`
//!    span per computed grid cell and the guard's `<phase>:<strategy>`
//!    span inside it. `perf::span_profile` folds them, and every span's
//!    self time goes to the layer of its nearest ancestor that names one
//!    ([`layer_of`]), so the layers partition the traced time.
//!
//! Every cell map must equal the set-up's reference map, and the layers
//! must cover at least [`MIN_COVERAGE`] of the serial wall time. Each
//! per-layer metric is the median over its iterations.

// The report is this binary's standard output.
#![allow(clippy::print_stdout)]

// Shared with rein_benchmark, which uses items this binary does not.
#[allow(dead_code)]
#[path = "../rein_benchmark/spec.rs"]
mod spec;
#[allow(dead_code)]
#[path = "../rein_benchmark/workload.rs"]
mod workload;

use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::process::exit;

use rein_data::CellMask;
use rein_datasets::Params;
use rein_telemetry::perf::{
    alloc_snapshot, span_profile, CountingAllocator, SpanPathStat, Stopwatch,
};

use spec::{declaration, host_threads, median, Cli, Outcome};
use workload::{take_failures, Cells, Workload, STORE_OPEN_SPAN, STORE_SPAN};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Repairers and detectors with a time metric of their own: the costliest
/// on the workloads. The rest count only towards their layer's total.
const REPAIR_KINDS: [&str; 8] = [
    "miss_mix",
    "miss_sep",
    "datawig_mix",
    "baran",
    "miss_datawig",
    "holoclean",
    "knn_miss",
    "dt_miss",
];
const DETECT_KINDS: [&str; 7] =
    ["metadata_driven", "picket", "ed2", "max_entropy", "min_k", "raha", "dboost"];

/// The layers the traced time is split into, each a per-layer metric.
const LAYERS: [&str; 10] = [
    "detect.busy_s",
    "repair.busy_s",
    "ml.busy_s",
    "core.plan_s",
    "core.detect_phase_s",
    "core.repair_phase_s",
    "core.eval_phase_s",
    "core.grid_s",
    "store.open_s",
    "store.close_s",
];

/// Share of `--seconds` spent on full-pool iterations.
const PARALLEL_SHARE: f64 = 0.25;

/// The share of the serial wall time the layers must account for.
const MIN_COVERAGE: f64 = 0.95;

fn main() {
    let cli = Cli::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        exit(2)
    });
    if cli.all || !cli.summarize.is_empty() {
        eprintln!("error: --all and --summarize belong to rein_benchmark");
        exit(2)
    }
    let Some(w) = cli.workload.as_deref().and_then(workload::find) else {
        eprintln!("error: --workload must name one of the declared workloads");
        exit(2)
    };
    let result = trace(w, cli.seed, w.scale, cli.seconds);
    spec::report(w.name, cli.seed, true, cli.out.as_deref(), result);
}

/// Sets up the end-to-end run's first dataset, runs full-pool iterations
/// for a quarter of `seconds`, then one-thread iterations for the rest (at
/// least one of each).
fn trace(w: &'static Workload, seed: u64, scale: f64, seconds: f64) -> Result<Outcome, String> {
    let data_seed = workload::dataset_seed(seed, 0);
    let mut p = w.prepare(data_seed, scale).map_err(|e| format!("{} set-up: {e}", w.name))?;
    let mut failed = take_failures();
    let serial = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .map_err(|e| format!("one-thread pool: {e}"))?;
    let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut push = |m: BTreeMap<String, f64>| {
        for (name, value) in m {
            samples.entry(name).or_default().push(value);
        }
    };
    let clock = Stopwatch::start();

    // 1. End-to-end iterations on the full pool.
    let (mut cpu_s, mut busy_s, mut parallel) = (0.0, 0.0, 0);
    while parallel == 0 || clock.elapsed().as_secs_f64() < seconds * PARALLEL_SHARE {
        parallel += 1;
        let cpu_before = process_cpu_s()?;
        let (iteration, wall_s) = p.timed().map_err(|e| e.to_string())?;
        cpu_s += process_cpu_s()? - cpu_before;
        busy_s += wall_s * host_threads() as f64;
        let drain = Stopwatch::start();
        let spans = rein_telemetry::drain_spans().len();
        push(BTreeMap::from([
            ("telemetry.drain_s".to_string(), drain.elapsed().as_secs_f64()),
            ("telemetry.spans".to_string(), spans as f64),
        ]));
        p.check(&iteration.cells);
        failed += take_failures();
    }

    // 2. One-thread iterations, read through the program's spans.
    let mut serial_rounds = 0;
    while serial_rounds == 0 || clock.elapsed().as_secs_f64() < seconds {
        serial_rounds += 1;
        let mut m = BTreeMap::new();
        let generate = Stopwatch::start();
        drop(w.dataset.generate(&Params::scaled(scale, data_seed)));
        m.insert("datasets.generate_s".to_string(), generate.elapsed().as_secs_f64());
        let allocs_before = alloc_snapshot();
        let (iteration, wall_s) = serial.install(|| p.timed()).map_err(|e| e.to_string())?;
        m.insert("trace.allocs".to_string(), alloc_snapshot().since(&allocs_before).allocs as f64);
        let profile = span_profile(&rein_telemetry::drain_spans());
        let counters = rein_telemetry::counters_snapshot();
        let counter = |name: &str| counters.get(name).copied().unwrap_or(0) as f64;
        let journal_bytes = match p.store_root(&iteration) {
            Some(root) => wal_bytes(root).map_err(|e| e.to_string())?,
            None => 0,
        };
        m.insert("store.journal_bytes".to_string(), journal_bytes as f64);
        let lookups = counter("store_hits") + counter("store_misses");
        m.insert("store.lookups".to_string(), lookups);
        let hit_ratio = if lookups > 0.0 { counter("store_hits") / lookups } else { 0.0 };
        m.insert("store.hit_ratio".to_string(), hit_ratio);
        m.insert("ml.fits".to_string(), counter("model_fits"));
        m.insert("guard.retries".to_string(), counter("guard_retries"));
        let guard_failures = rein_telemetry::failures_snapshot().len();
        m.insert("guard.failures".to_string(), guard_failures as f64);
        m.insert("detect.flagged_cells".to_string(), flagged_cells(&iteration.cells)? as f64);
        let covered_s = attribute(&profile, &mut m);
        m.insert("trace.serial_wall_s".to_string(), wall_s);
        m.insert("trace.coverage".to_string(), covered_s / wall_s);
        push(m);
        p.check(&iteration.cells);
        failed += take_failures();
    }

    let mut values: BTreeMap<String, f64> =
        samples.iter().map(|(name, v)| (name.clone(), median(v))).collect();
    values.insert("core.parallel_efficiency".to_string(), cpu_s / busy_s);
    let coverage = values["trace.coverage"];
    let covered = coverage >= MIN_COVERAGE;
    if !covered {
        eprintln!("error: {} layers cover {coverage:.3} of the serial wall time", w.name);
    }
    println!(
        "# workload={} seed={seed} scale={scale} host.threads={} parallel={parallel} serial={}",
        w.name,
        host_threads(),
        serial_rounds,
    );
    Outcome::new(&declaration().per_layer, values, p.checked, failed + p.mismatched, covered)
}

/// The layer a span named `name` opens: a grid cell's kernel work, a
/// controller phase's own work (cell keys, identities, store lookups and
/// commits, payloads, merging), or the store's open and close.
fn layer_of(name: &str) -> Option<&'static str> {
    Some(match name {
        _ if name.starts_with("cell:detect:") => "detect.busy_s",
        _ if name.starts_with("cell:repair:") => "repair.busy_s",
        _ if name.starts_with("cell:eval:") => "ml.busy_s",
        "controller:plan" => "core.plan_s",
        "controller:detect" => "core.detect_phase_s",
        "controller:repair" => "core.repair_phase_s",
        "controller:evaluate" => "core.eval_phase_s",
        "controller:grid" => "core.grid_s",
        STORE_OPEN_SPAN => "store.open_s",
        STORE_SPAN => "store.close_s",
        _ => return None,
    })
}

/// Records the time metrics of one serial iteration's span profile in
/// `m`, and returns the seconds the layers cover.
fn attribute(profile: &[SpanPathStat], m: &mut BTreeMap<String, f64>) -> f64 {
    let mut layer_s: BTreeMap<&str, f64> = LAYERS.iter().map(|&l| (l, 0.0)).collect();
    let mut kind_s: BTreeMap<String, f64> = BTreeMap::new();
    let (mut detect_cells, mut repair_cells, mut harness_s) = (0, 0, 0.0);
    for stat in profile {
        let path: Vec<&str> = stat.path.split('/').collect();
        if let Some(layer) = path.iter().rev().find_map(|name| layer_of(name)) {
            *layer_s.entry(layer).or_default() += stat.self_ms / 1e3;
        }
        match path.as_slice() {
            [.., cell] if cell.starts_with("cell:detect:") => detect_cells += stat.count,
            [.., cell] if cell.starts_with("cell:repair:") => repair_cells += stat.count,
            // The guard span directly inside its cell: the detector or
            // repairer under supervision.
            [.., cell, guard] if guard_of(cell).as_deref() == Some(*guard) => {
                *kind_s.entry(format!("{guard}_s").replace(':', ".")).or_default() +=
                    stat.total_ms / 1e3;
            }
            // `DetectorHarness::new` rebuilds the knowledge base per cell.
            [.., cell, "detect:context:build_kb"] if cell.starts_with("cell:detect:") => {
                harness_s += stat.total_ms / 1e3;
            }
            _ => {}
        }
    }
    for (layer, kinds) in [("detect", &DETECT_KINDS[..]), ("repair", &REPAIR_KINDS[..])] {
        for kind in kinds {
            let name = format!("{layer}.{kind}_s");
            m.insert(name.clone(), kind_s.get(&name).copied().unwrap_or(0.0));
        }
    }
    m.insert("detect.cells".to_string(), detect_cells as f64);
    m.insert("repair.cells".to_string(), repair_cells as f64);
    m.insert("detect.harness_s".to_string(), harness_s);
    let covered = layer_s.values().sum();
    m.extend(layer_s.into_iter().map(|(layer, s)| (layer.to_string(), s)));
    covered
}

/// The guard span name inside a detect or repair cell: `detect:<kind>`
/// in `cell:detect:<kind>`, `repair:<kind>` in `cell:repair:<kind>#<det>`.
fn guard_of(cell: &str) -> Option<String> {
    let coordinate = cell.strip_prefix("cell:")?;
    if coordinate.starts_with("detect:") {
        return Some(coordinate.to_string());
    }
    let repair = coordinate.strip_prefix("repair:")?;
    Some(format!("repair:{}", repair.split('#').next()?))
}

/// Cells the detect payloads of `cells` flag.
fn flagged_cells(cells: &Cells) -> Result<usize, String> {
    let mut flagged = 0;
    for (key, payload) in cells.iter().filter(|(key, _)| key.starts_with("detect:")) {
        let mask: CellMask =
            serde_json::from_str(payload).map_err(|e| format!("cell {key}: {e}"))?;
        flagged += mask.count();
    }
    Ok(flagged)
}

/// Bytes of journal and segment files under a store root.
fn wal_bytes(root: &Path) -> io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(root)? {
        let entry = entry?;
        if entry.file_name().to_string_lossy().ends_with(".wal") {
            total += entry.metadata()?.len();
        }
    }
    Ok(total)
}

/// User plus system CPU seconds of this process and its finished threads.
fn process_cpu_s() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("cannot read /proc/self/stat: {e}"))?;
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15, in clock ticks of
    // 1/100 s (USER_HZ on Linux).
    let rest = stat.rsplit_once(')').map(|(_, rest)| rest).unwrap_or_default();
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(user), Some(system)) => Ok((user + system) / 100.0),
        _ => Err("cannot parse /proc/self/stat".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rein_detect::DetectorKind;
    use rein_repair::RepairKind;
    use rein_telemetry::SpanRecord;
    use workload::{TINY_SCALE, WORKLOADS};

    #[test]
    fn every_workload_emits_exactly_the_declared_per_layer_metrics() {
        for (w, scale) in WORKLOADS.iter().zip(TINY_SCALE) {
            let outcome = trace(w, 3, scale, 0.0).unwrap();
            assert!(outcome.correct && outcome.failed == 0, "{}: {outcome:?}", w.name);
            let emitted: Vec<&String> = outcome.metrics.keys().collect();
            let mut declared: Vec<&String> =
                declaration().per_layer.iter().map(|m| &m.name).collect();
            declared.sort();
            assert_eq!(emitted, declared, "{}", w.name);
        }
    }

    #[test]
    fn layers_partition_the_spans_and_kinds_read_the_guard_spans() {
        let span = |id: u64, parent_id: u64, name: &str, duration_ms: f64| SpanRecord {
            name: name.to_string(),
            id,
            parent_id,
            depth: 0,
            start_ms: 0.0,
            duration_ms,
            trace_id: 0,
            instant: false,
        };
        let spans = [
            span(1, 0, "controller:grid", 100.0),
            span(2, 1, "controller:detect", 30.0),
            span(3, 2, "cell:detect:raha", 25.0),
            span(4, 3, "detect:context:build_kb", 5.0),
            span(5, 3, "detect:raha", 18.0),
            span(6, 5, "detect:features:fit", 10.0),
            span(7, 1, "controller:repair", 50.0),
            span(8, 7, "cell:repair:baran#raha", 45.0),
            span(9, 8, "repair:baran", 40.0),
            span(10, 8, "detect:context:build_kb", 1.0),
        ];
        let mut m = BTreeMap::new();
        let covered = attribute(&span_profile(&spans), &mut m);
        // Self times partition the root's 100 ms.
        assert!((covered - 0.100).abs() < 1e-9, "{covered}");
        let ms = |name: &str| (m[name] * 1e3 * 1e6).round() / 1e6;
        assert_eq!(ms("detect.busy_s"), 25.0);
        assert_eq!(ms("core.detect_phase_s"), 5.0);
        assert_eq!(ms("repair.busy_s"), 45.0);
        assert_eq!(ms("core.repair_phase_s"), 5.0);
        assert_eq!(ms("core.grid_s"), 20.0);
        assert_eq!(ms("detect.raha_s"), 18.0);
        assert_eq!(ms("repair.baran_s"), 40.0);
        // Only a detect cell's own knowledge-base build is the harness.
        assert_eq!(ms("detect.harness_s"), 5.0);
        assert_eq!((m["detect.cells"], m["repair.cells"]), (1.0, 1.0));
    }

    #[test]
    fn named_kinds_exist() {
        let repairs: Vec<&str> = RepairKind::ALL.iter().map(|k| k.name()).collect();
        assert!(REPAIR_KINDS.iter().all(|k| repairs.contains(k)));
        let detectors: Vec<&str> = DetectorKind::ALL.iter().map(|k| k.name()).collect();
        assert!(DETECT_KINDS.iter().all(|k| detectors.contains(k)));
    }
}
