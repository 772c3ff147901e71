//! The repository benchmark's end-to-end run (README.md has the why).
//!
//! ```text
//! rein_benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! rein_benchmark --all [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! rein_benchmark --summarize RUN.json...
//! ```
//!
//! One workload runs in one process, its grid on a pool of
//! `available_parallelism()` threads, the width every program caller gets
//! without `REIN_THREADS`. `--trace 1` hands the run to
//! `rein_benchmark_trace`, which prints the per-layer metrics instead. The
//! last line of standard output is the result as JSON; a run whose outputs
//! are wrong prints it and exits with 1.

// The report is this binary's standard output.
#![allow(clippy::print_stdout)]

// Shared with rein_benchmark_trace, which uses items this binary does not.
#[allow(dead_code)]
mod spec;
#[allow(dead_code)]
mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{exit, Command};

use rein_telemetry::perf::Stopwatch;

use spec::{declaration, host_threads, median, quartiles, Cli, Outcome, Record, DEFAULT_SEED};
use workload::{dataset_seed, digest, take_failures, Workload, DATASETS, WORKLOADS};

/// Timed iterations per dataset a run makes even when `--seconds` has run
/// out.
const MIN_ITERATIONS: usize = 2;

fn main() {
    let cli = Cli::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        exit(2)
    });
    if !cli.summarize.is_empty() {
        match summarize(&cli.summarize) {
            Ok(table) => print!("{table}"),
            Err(e) => {
                eprintln!("error: {e}");
                exit(1)
            }
        }
        return;
    }
    if cli.all {
        exit(run_all(&cli));
    }
    if cli.trace {
        exec_trace();
    }
    let Some(w) = cli.workload.as_deref().and_then(workload::find) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("error: --workload must be one of {names:?}");
        exit(2)
    };
    if let Err(e) = rayon::ThreadPoolBuilder::new().num_threads(host_threads()).build_global() {
        eprintln!("error: cannot size the thread pool: {e}");
        exit(1)
    }
    let result = measure(w, cli.seed, w.scale, cli.seconds);
    spec::report(w.name, cli.seed, false, cli.out.as_deref(), result);
}

/// Sets up [`DATASETS`] datasets drawn from `seed`, then times
/// iterations over them in turn for `seconds` (at least
/// [`MIN_ITERATIONS`] each), checking every cell map. `setup_s` is the
/// median set-up. An iteration's time is the mean over the datasets of
/// each one's fastest iteration: on a shared host, contention only ever
/// adds time, and over two sets of ten runs on a two-core VM the fastest
/// iteration spread less across runs than the median one in seven of the
/// eight workload × set pairs (README.md).
fn measure(w: &'static Workload, seed: u64, scale: f64, seconds: f64) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut failed = 0u64;
    let mut prepared = Vec::new();
    for k in 0..DATASETS {
        let clock = Stopwatch::start();
        let p = w
            .prepare(dataset_seed(seed, k), scale)
            .map_err(|e| format!("{} set-up: {e}", w.name))?;
        setup_s.push(clock.elapsed().as_secs_f64());
        failed += take_failures();
        prepared.push(p);
    }
    let found = digest(prepared.iter().map(|p| &p.reference));
    let digest_ok = seed != DEFAULT_SEED || scale != w.scale || found == w.digest;
    let count_ok = prepared.iter().all(|p| p.reference.len() == w.cells);

    let clock = Stopwatch::start();
    let mut walls = vec![Vec::new(); DATASETS];
    let mut iterations = 0;
    while walls.iter().any(|w| w.len() < MIN_ITERATIONS) || clock.elapsed().as_secs_f64() < seconds
    {
        let k = iterations % DATASETS;
        iterations += 1;
        let (iteration, wall) =
            prepared[k].timed().map_err(|e| format!("{} iteration: {e}", w.name))?;
        walls[k].push(wall);
        prepared[k].check(&iteration.cells);
        failed += take_failures();
    }
    let fastest = |w: &Vec<f64>| w.iter().copied().fold(f64::INFINITY, f64::min);
    let wall_s = walls.iter().map(fastest).sum::<f64>() / DATASETS as f64;
    let values = BTreeMap::from([
        ("setup_s".to_string(), median(&setup_s)),
        ("wall_s".to_string(), wall_s),
        ("cells_per_s".to_string(), w.cells as f64 / wall_s),
        ("peak_rss_mb".to_string(), spec::peak_rss_mb()?),
    ]);
    println!(
        "# workload={} seed={seed} scale={scale} host.threads={} pool.threads={} \
         datasets={DATASETS} iterations={iterations} cells={} digest={found:016x}",
        w.name,
        host_threads(),
        rayon::current_num_threads(),
        w.cells
    );
    if !digest_ok {
        eprintln!("error: {} cell dump digest {found:016x}, expected {:016x}", w.name, w.digest);
    }
    if !count_ok {
        eprintln!("error: {} computes a cell count other than {}", w.name, w.cells);
    }
    let checked = prepared.iter().map(|p| p.checked).sum();
    failed += prepared.iter().map(|p| p.mismatched).sum::<u64>();
    Outcome::new(&declaration().end_to_end, values, checked, failed, digest_ok && count_ok)
}

/// Runs every workload in turn, each in a child process of this binary
/// so peak memory and the process-global telemetry and store state are
/// per workload. Returns the exit code.
fn run_all(cli: &Cli) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot locate this binary: {e}");
            return 1;
        }
    };
    let mut code = 0;
    for w in &WORKLOADS {
        let mut child = Command::new(&exe);
        child.args(["--workload", w.name, "--seed", &cli.seed.to_string()]);
        child.args([
            "--seconds",
            &cli.seconds.to_string(),
            "--trace",
            if cli.trace { "1" } else { "0" },
        ]);
        if let Some(out) = &cli.out {
            child.arg("--out").arg(out.with_extension(format!("{}.json", w.name)));
        }
        match child.status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("error: workload {} exited with {status}", w.name);
                code = 1;
            }
            Err(e) => {
                eprintln!("error: cannot start workload {}: {e}", w.name);
                code = 1;
            }
        }
    }
    code
}

/// Replaces this process with `rein_benchmark_trace`, built beside it,
/// passing the same arguments.
fn exec_trace() -> ! {
    use std::os::unix::process::CommandExt;
    let tracer = std::env::current_exe()
        .map(|exe| exe.with_file_name("rein_benchmark_trace"))
        .unwrap_or_else(|_| PathBuf::from("rein_benchmark_trace"));
    let err = Command::new(&tracer).args(std::env::args_os().skip(1)).exec();
    eprintln!("error: cannot run {}: {err}", tracer.display());
    exit(1)
}

/// Reads `--out` files and tabulates, per workload and metric, the median
/// and quartiles across runs, the run count, and whether the quartile
/// spread exceeds the metric's bound.
fn summarize(paths: &[PathBuf]) -> Result<String, String> {
    let mut records = Vec::new();
    for path in paths {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let record: Record =
            serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        records.push(record);
    }
    Ok(summary_table(&records))
}

fn summary_table(records: &[Record]) -> String {
    let bounds: BTreeMap<&str, f64> =
        declaration().end_to_end.iter().filter_map(|m| Some((m.name.as_str(), m.bound?))).collect();
    let mut samples: BTreeMap<(String, &str), Vec<f64>> = BTreeMap::new();
    for r in records {
        let workload = if r.trace { format!("{} (trace)", r.workload) } else { r.workload.clone() };
        for (metric, reading) in &r.outcome.metrics {
            samples.entry((workload.clone(), metric.as_str())).or_default().push(reading.value);
        }
    }
    let mut out = format!(
        "{:<28} {:<30} {:>3} {:>14} {:>14} {:>14} {:>7} {:>6}  exceeds\n",
        "workload", "metric", "n", "median", "q1", "q3", "spread", "bound"
    );
    for ((workload, metric), values) in &samples {
        let [q1, mid, q3] = quartiles(values);
        let spread = if mid != 0.0 { (q3 - q1) / mid.abs() } else { 0.0 };
        let (bound, exceeds) = match bounds.get(metric) {
            Some(&b) => (format!("{b}"), if spread > b { "yes" } else { "no" }),
            None => ("-".to_string(), "-"),
        };
        out.push_str(&format!(
            "{workload:<28} {metric:<30} {:>3} {mid:>14.6} {q1:>14.6} {q3:>14.6} {spread:>7.4} \
             {bound:>6}  {exceeds}\n",
            values.len()
        ));
    }
    let incorrect = records.iter().filter(|r| !r.outcome.correct).count();
    out.push_str(&format!("{} run(s), {incorrect} incorrect\n", records.len()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::TINY_SCALE;

    #[test]
    fn workloads_are_the_declared_ones() {
        let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        let declared: Vec<&str> = declaration().workloads.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(ours, declared);
    }

    #[test]
    fn every_workload_emits_exactly_the_declared_metrics() {
        for (w, scale) in WORKLOADS.iter().zip(TINY_SCALE) {
            let outcome = measure(w, 5, scale, 0.0).unwrap();
            assert!(outcome.correct, "{}: {outcome:?}", w.name);
            assert_eq!(outcome.failed, 0, "{}", w.name);
            // Two timed iterations per dataset, and the warm replay of each
            // warm set-up, each checked over the whole map.
            let per_dataset = if w.name.ends_with("warm") { 3 } else { 2 };
            let compared = per_dataset * DATASETS as u64;
            assert_eq!(outcome.attempted, compared * w.cells as u64, "{}", w.name);
            let emitted: Vec<&String> = outcome.metrics.keys().collect();
            let mut declared: Vec<&String> =
                declaration().end_to_end.iter().map(|m| &m.name).collect();
            declared.sort();
            assert_eq!(emitted, declared, "{}", w.name);
            assert!(outcome.metrics.values().all(|r| r.value > 0.0), "{}: {outcome:?}", w.name);
        }
    }

    #[test]
    fn summary_flags_a_spread_wider_than_the_bound() {
        let run = |wall: f64| Record {
            workload: "grid_beers".into(),
            seed: 1,
            trace: false,
            host_threads: 2,
            outcome: Outcome::new(
                &declaration().end_to_end,
                declaration().end_to_end.iter().map(|m| (m.name.clone(), wall)).collect(),
                10,
                0,
                true,
            )
            .unwrap(),
        };
        let steady = summary_table(&[run(1.0), run(1.0), run(1.0)]);
        assert!(steady.lines().any(|l| l.starts_with("grid_beers") && l.ends_with("no")));
        let noisy = summary_table(&[run(1.0), run(2.0), run(4.0)]);
        assert!(noisy.lines().any(|l| l.contains("wall_s") && l.ends_with("yes")), "{noisy}");
        assert!(noisy.ends_with("3 run(s), 0 incorrect\n"));
    }
}
