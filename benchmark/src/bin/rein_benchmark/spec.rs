//! What the benchmark declares and what one run reports.
//!
//! The metric and workload declarations live in the repository's
//! `BENCHMARK.json`, compiled in here so the binaries and the file cannot
//! disagree: a run emits exactly the declared metrics, with the declared
//! units, or fails. Shared by `rein_benchmark` and `rein_benchmark_trace`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

/// The seed a run uses when `--seed` is absent; the default-seed digests
/// in `workload.rs` are recorded at this seed.
pub const DEFAULT_SEED: u64 = 31;

/// `BENCHMARK.json` at the repository root, one level above this package.
const DECLARATION: &str = include_str!("../../../../BENCHMARK.json");

/// The parts of `BENCHMARK.json` the binaries read.
#[derive(Debug, Deserialize)]
pub struct Declaration {
    pub run_seconds: u64,
    pub workloads: Vec<DeclaredWorkload>,
    pub end_to_end: Vec<DeclaredMetric>,
    pub per_layer: Vec<DeclaredMetric>,
}

#[derive(Debug, Deserialize)]
pub struct DeclaredWorkload {
    pub name: String,
}

#[derive(Debug, Deserialize)]
pub struct DeclaredMetric {
    pub name: String,
    pub unit: String,
    /// Only end-to-end metrics carry a bound.
    #[serde(default)]
    pub bound: Option<f64>,
}

/// The compiled-in declaration.
pub fn declaration() -> &'static Declaration {
    static PARSED: OnceLock<Declaration> = OnceLock::new();
    PARSED.get_or_init(|| {
        serde_json::from_str(DECLARATION).unwrap_or_else(|e| panic!("BENCHMARK.json: {e}"))
    })
}

/// One metric value with its unit, as the result line carries it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Reading {
    pub value: f64,
    pub unit: String,
}

/// The result of one run: the last line of standard output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Outcome {
    pub correct: bool,
    /// Grid cells whose bytes were checked.
    pub attempted: u64,
    /// Checked cells that differed, plus cells degraded under guard and
    /// failed or diverging store operations.
    pub failed: u64,
    pub metrics: BTreeMap<String, Reading>,
}

impl Outcome {
    /// Attaches the declared units to `values`, which must hold exactly
    /// the `declared` metrics.
    pub fn new(
        declared: &[DeclaredMetric],
        values: BTreeMap<String, f64>,
        attempted: u64,
        failed: u64,
        correct: bool,
    ) -> Result<Outcome, String> {
        let mut metrics = BTreeMap::new();
        for metric in declared {
            let value = *values
                .get(&metric.name)
                .ok_or_else(|| format!("metric {} was not measured", metric.name))?;
            if !value.is_finite() {
                return Err(format!("metric {} is not finite: {value}", metric.name));
            }
            metrics.insert(metric.name.clone(), Reading { value, unit: metric.unit.clone() });
        }
        if let Some(extra) = values.keys().find(|k| !metrics.contains_key(*k)) {
            return Err(format!("metric {extra} is not declared in BENCHMARK.json"));
        }
        Ok(Outcome { correct: correct && failed == 0, attempted, failed, metrics })
    }

    /// Prints every metric as `name value unit`, then the result line.
    #[allow(clippy::print_stdout)]
    pub fn print(&self) {
        for (name, reading) in &self.metrics {
            println!("{name} {} {}", reading.value, reading.unit);
        }
        println!("{}", serde_json::to_string(self).unwrap_or_else(|e| panic!("result: {e}")));
    }
}

/// One run as `--out` writes it and `--summarize` reads it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Record {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub host_threads: u64,
    pub outcome: Outcome,
}

/// Prints a run's result, writing it to `out` too when given, and exits
/// with 1 when the result is not correct; or prints its error and exits
/// with 1.
pub fn report(
    workload: &str,
    seed: u64,
    trace: bool,
    out: Option<&Path>,
    result: Result<Outcome, String>,
) {
    let fail = |e: String| -> ! {
        eprintln!("error: {e}");
        std::process::exit(1)
    };
    let outcome = result.unwrap_or_else(|e| fail(e));
    if let Some(out) = out {
        let record = Record {
            workload: workload.to_string(),
            seed,
            trace,
            host_threads: host_threads() as u64,
            outcome: outcome.clone(),
        };
        let json = serde_json::to_string_pretty(&record).unwrap_or_else(|e| fail(e.to_string()));
        if let Err(e) = std::fs::write(out, json + "\n") {
            fail(format!("cannot write {}: {e}", out.display()));
        }
    }
    outcome.print();
    if !outcome.correct {
        eprintln!(
            "error: {workload}: the run's outputs are not correct (failed {})",
            outcome.failed
        );
        std::process::exit(1)
    }
}

/// The command line both binaries accept.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: Option<PathBuf>,
    pub all: bool,
    pub summarize: Vec<PathBuf>,
}

impl Cli {
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Cli, String> {
        let mut cli = Cli {
            workload: None,
            seed: DEFAULT_SEED,
            seconds: declaration().run_seconds as f64,
            trace: false,
            out: None,
            all: false,
            summarize: Vec::new(),
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let mut value = |flag: &str| args.next().ok_or(format!("{flag} needs a value"));
            match arg.as_str() {
                "--workload" => cli.workload = Some(value("--workload")?),
                "--seed" => {
                    let raw = value("--seed")?;
                    cli.seed = raw.parse().map_err(|_| format!("--seed {raw:?}: want a u64"))?;
                }
                "--seconds" => {
                    let raw = value("--seconds")?;
                    cli.seconds = match raw.parse::<f64>() {
                        Ok(s) if s.is_finite() && s >= 0.0 => s,
                        _ => return Err(format!("--seconds {raw:?}: want a number >= 0")),
                    };
                }
                "--trace" => {
                    cli.trace = match value("--trace")?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace {other:?}: want 0 or 1")),
                    }
                }
                "--out" => cli.out = Some(PathBuf::from(value("--out")?)),
                "--all" => cli.all = true,
                "--summarize" => {
                    cli.summarize.extend(args.by_ref().map(PathBuf::from));
                    if cli.summarize.is_empty() {
                        return Err("--summarize needs at least one run file".into());
                    }
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(cli)
    }
}

/// The median of `values` (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile by the method of Python's
/// `statistics.quantiles(values, n=4)` (the default, exclusive one).
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let len = data.len();
    if len < 2 {
        let only = data.first().copied().unwrap_or(f64::NAN);
        return [only; 3];
    }
    let m = len + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Worker threads the machine offers; the grid's pool uses all of them.
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_follow_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn cli_reads_the_run_arguments() {
        let args = "--workload grid_beers --seed 7 --seconds 12 --trace 1";
        let cli = Cli::parse(args.split(' ').map(String::from)).unwrap();
        assert_eq!(cli.workload.as_deref(), Some("grid_beers"));
        assert_eq!((cli.seed, cli.seconds, cli.trace), (7, 12.0, true));
        assert!(Cli::parse(["--trace".to_string(), "2".to_string()]).is_err());
        assert!(Cli::parse(["--bogus".to_string()]).is_err());
    }

    #[test]
    fn result_line_round_trips() {
        let declared = &declaration().end_to_end;
        let values = declared.iter().enumerate().map(|(i, m)| (m.name.clone(), 0.5 + i as f64));
        let outcome = Outcome::new(declared, values.collect(), 940, 0, true).unwrap();
        let line = serde_json::to_string(&outcome).unwrap();
        assert_eq!(serde_json::from_str::<Outcome>(&line).unwrap(), outcome);
        let record = Record {
            workload: "grid_beers".into(),
            seed: 31,
            trace: false,
            host_threads: 2,
            outcome,
        };
        let json = serde_json::to_string_pretty(&record).unwrap();
        assert_eq!(serde_json::from_str::<Record>(&json).unwrap(), record);
    }

    #[test]
    fn declared_names_are_well_formed_and_unique() {
        let d = declaration();
        let mut names: Vec<&str> = d.workloads.iter().map(|w| w.name.as_str()).collect();
        names.extend(d.end_to_end.iter().chain(&d.per_layer).map(|m| m.name.as_str()));
        for name in &names {
            assert!(
                !name.is_empty()
                    && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "bad name {name:?}"
            );
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "names are used once");
        assert!(d.end_to_end.iter().all(|m| m.bound.is_some()));
        assert!(d.per_layer.iter().all(|m| m.bound.is_none()));
    }
}
