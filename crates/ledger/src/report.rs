//! The static observability report, built straight from the run
//! manifests.
//!
//! Everything here is a pure function of the manifests under
//! `artifacts/telemetry/`: same manifests, same bytes. The report exists
//! in two forms — markdown (`report.md`, for diffs and terminals) and a
//! dependency-free static HTML page (`report.html`, uploaded by CI) —
//! rendered from the same row structs so they cannot drift apart.
//!
//! Sections mirror the paper's result surfaces: the per-strategy
//! cost/failure table (the shape of Fig 2/4/5), the guard-failure
//! taxonomy, duration percentiles, store cache effectiveness, and an
//! optional flamegraph-style span-profile diff between two runs.

use std::collections::BTreeMap;
use std::path::Path;

use rein_telemetry::perf::span_profile;
use rein_telemetry::RunManifest;

/// Guard-failure taxonomy counts, classified from rendered causes:
/// `panic:` → panics, `budget exhausted` → deadlines, `transient
/// failure persisted` → retries, `invalid output` → corrupt.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FailureTaxonomy {
    /// Strategy panicked (caught and recorded by rein-guard).
    pub panics: u64,
    /// Cooperative deadline budget exhausted.
    pub deadlines: u64,
    /// Transient failure persisted through the retry allowance.
    pub retries: u64,
    /// Output failed validation (corrupt / invalid shape).
    pub corrupt: u64,
}

impl FailureTaxonomy {
    /// Classifies one rendered failure cause into the taxonomy.
    pub fn count(&mut self, cause: &str) {
        if cause.starts_with("panic:") {
            self.panics += 1;
        } else if cause.starts_with("budget exhausted") {
            self.deadlines += 1;
        } else if cause.starts_with("transient failure persisted") {
            self.retries += 1;
        } else {
            // `invalid output:` plus anything a future guard adds —
            // an unknown cause is still a corrupt result, never silent.
            self.corrupt += 1;
        }
    }

    /// Total failures across the taxonomy.
    pub fn total(&self) -> u64 {
        self.panics + self.deadlines + self.retries + self.corrupt
    }
}

/// Span-name prefixes that name a grid strategy (`phase:strategy`).
const STRATEGY_PHASES: [&str; 4] = ["detect", "repair", "model", "ml"];

/// Whether a span name is a strategy invocation (`detect:raha`) rather
/// than an internal span (`phase:setup`, `detect:features:fit`).
fn is_strategy_span(name: &str) -> bool {
    match name.split_once(':') {
        Some((phase, rest)) => {
            STRATEGY_PHASES.contains(&phase) && !rest.is_empty() && !rest.contains(':')
        }
        None => false,
    }
}

/// The sorted, deduplicated strategy set a manifest exercised: strategy
/// spans (from the rollup in summary mode — it covers every name — and
/// the span stream otherwise) plus every failed cell's `phase:strategy`.
fn manifest_strategies(manifest: &RunManifest) -> Vec<String> {
    let mut set: Vec<String> = Vec::new();
    let mut push = |name: String| {
        if !set.contains(&name) {
            set.push(name);
        }
    };
    for rollup in &manifest.span_rollup {
        if is_strategy_span(&rollup.name) {
            push(rollup.name.clone());
        }
    }
    for span in &manifest.spans {
        if is_strategy_span(&span.name) {
            push(span.name.clone());
        }
    }
    for failure in &manifest.failures {
        push(format!("{}:{}", failure.phase, failure.strategy));
    }
    set.sort();
    set
}

/// One row of the per-strategy table, aggregated across every run
/// manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct StrategyRow {
    /// `phase:strategy` name.
    pub strategy: String,
    /// Distinct runs (manifests) that exercised the strategy.
    pub runs: u64,
    /// Guarded calls (closed spans) across those runs.
    pub invocations: u64,
    /// Total wall-clock milliseconds across those calls.
    pub total_ms: f64,
    /// Largest single invocation.
    pub max_ms: f64,
    /// Guarded failures attributed to the strategy.
    pub failures: u64,
}

impl StrategyRow {
    /// Failed calls over calls, in [0, 1]; 0 when nothing ran. The
    /// guard closes a call's span on its failure path too (the
    /// `guard:fail:*` instant is that span's child), so every failure
    /// is already one of the invocations.
    pub fn failure_rate(&self) -> f64 {
        if self.invocations == 0 {
            0.0
        } else {
            self.failures as f64 / self.invocations as f64
        }
    }
}

/// One row of the guard-failure taxonomy: a `phase:strategy` cell and
/// its failure-cause breakdown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaxonomyRow {
    /// `phase:strategy` cell.
    pub cell: String,
    /// Cause breakdown.
    pub taxonomy: FailureTaxonomy,
    /// Sorted, deduplicated 16-hex trace ids of the cell traces the
    /// failures landed on — the join key into the `rein_trace` exports
    /// (`artifacts/trace/*.cells.json` rows carry the same ids). Empty
    /// entries (pre-trace manifests, failures outside any cell) are
    /// dropped rather than rendered as blanks.
    pub traces: Vec<String>,
}

/// One row of the store cache-effectiveness table: the durable
/// cell-store counters one store-backed run manifest recorded
/// (DESIGN.md §6j). Store-less runs record no `store_*` counters and
/// produce no row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheRow {
    /// Repo-relative manifest source.
    pub source: String,
    /// Cells served from the store without recomputation.
    pub hits: u64,
    /// Cells computed because the store had no (parseable) entry.
    pub misses: u64,
    /// Journal records replayed into the in-memory index at open.
    pub replayed: u64,
    /// Corrupt journal stretches quarantined during recovery.
    pub quarantined: u64,
    /// Staged cells the run durably committed.
    pub commits: u64,
    /// Recomputed cells whose bytes diverged from the stored payload —
    /// any non-zero value is a determinism regression.
    pub divergence: u64,
}

impl CacheRow {
    /// Hits over consulted cells (hits + misses), in [0, 1]; 0 when the
    /// run consulted nothing.
    pub fn hit_rate(&self) -> f64 {
        let consulted = self.hits + self.misses;
        if consulted == 0 {
            0.0
        } else {
            self.hits as f64 / consulted as f64
        }
    }
}

/// One row of the duration-percentile table: one histogram of one run
/// manifest, straight from its recorded [`HistogramSummary`].
///
/// [`HistogramSummary`]: rein_telemetry::HistogramSummary
#[derive(Debug, Clone, PartialEq)]
pub struct PercentileRow {
    /// Histogram name.
    pub histogram: String,
    /// Repo-relative manifest source.
    pub source: String,
    /// Observation count.
    pub count: u64,
    /// Median milliseconds.
    pub p50_ms: f64,
    /// 95th percentile milliseconds.
    pub p95_ms: f64,
    /// 99th percentile milliseconds.
    pub p99_ms: f64,
    /// Exact maximum milliseconds.
    pub max_ms: f64,
}

/// One row of a span-profile diff between two runs.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRow {
    /// Span path (`/`-joined names) or bare span name, depending on the
    /// detail both manifests can support.
    pub path: String,
    /// Total milliseconds in run A (0 when the path is absent).
    pub a_ms: f64,
    /// Total milliseconds in run B (0 when the path is absent).
    pub b_ms: f64,
    /// Invocation counts in A and B.
    pub a_count: u64,
    /// Invocation count in run B.
    pub b_count: u64,
}

impl DiffRow {
    /// `b_ms - a_ms`.
    pub fn delta_ms(&self) -> f64 {
        self.b_ms - self.a_ms
    }
}

/// The fully computed report, ready to render.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Run manifests the report was built from.
    pub manifests: u64,
    /// Per-strategy aggregate table, sorted by strategy.
    pub strategies: Vec<StrategyRow>,
    /// Guard-failure taxonomy, sorted by cell; only failing cells.
    pub taxonomy: Vec<TaxonomyRow>,
    /// Duration percentiles of every recorded histogram, sorted by
    /// (histogram, source).
    pub percentiles: Vec<PercentileRow>,
    /// Store cache effectiveness of every store-backed run, sorted by
    /// source; empty when no manifest recorded `store_*` counters.
    pub cache: Vec<CacheRow>,
    /// Optional span-profile diff: `(label_a, label_b, rows)`.
    pub diff: Option<(String, String, Vec<DiffRow>)>,
}

/// Reads and parses the run manifest at the repo-relative `source`.
pub fn load_manifest(root: &Path, source: &str) -> Result<RunManifest, String> {
    let path = root.join(source);
    #[expect(clippy::disallowed_methods, reason = "the ledger scan reads committed run manifests")]
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    RunManifest::from_json(&text).map_err(|e| format!("parse {}: {e}", path.display()))
}

/// Every run manifest under `<root>/artifacts/telemetry/`, parsed and
/// paired with its repo-relative source, sorted by source (a missing
/// directory is an empty scan). The report and `rein_trace` share it.
pub fn run_manifests(root: &Path) -> Result<Vec<(String, RunManifest)>, String> {
    let dir = root.join("artifacts").join("telemetry");
    #[expect(clippy::disallowed_methods, reason = "the ledger scan lists committed run manifests")]
    let entries = match std::fs::read_dir(&dir) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("read dir {}: {e}", dir.display())),
        Ok(entries) => entries,
    };
    let mut sources = Vec::new();
    for entry in entries {
        let path = entry.map_err(|e| format!("read dir {}: {e}", dir.display()))?.path();
        if path.extension().is_some_and(|ext| ext == "json") {
            let name = path.file_name().unwrap_or_default().to_string_lossy();
            sources.push(format!("artifacts/telemetry/{name}"));
        }
    }
    sources.sort();
    sources
        .into_iter()
        .map(|source| {
            let manifest = load_manifest(root, &source)?;
            Ok((source, manifest))
        })
        .collect()
}

/// Name-level invocation stats of one manifest: `name -> (count,
/// total_ms, max_ms)`. Uses the rollup when present (it covers spans the
/// summary sample dropped), the raw span stream otherwise.
fn name_stats(manifest: &RunManifest) -> BTreeMap<String, (u64, f64, f64)> {
    let mut stats: BTreeMap<String, (u64, f64, f64)> = BTreeMap::new();
    if manifest.span_rollup.is_empty() {
        for s in &manifest.spans {
            let e = stats.entry(s.name.clone()).or_insert((0, 0.0, 0.0));
            e.0 += 1;
            e.1 += s.duration_ms;
            e.2 = e.2.max(s.duration_ms);
        }
    } else {
        for r in &manifest.span_rollup {
            stats.insert(r.name.clone(), (r.count, r.total_ms, r.max_ms));
        }
    }
    stats
}

/// The manifest-derived tables of the report, in render order.
type ManifestTables = (Vec<StrategyRow>, Vec<TaxonomyRow>, Vec<PercentileRow>, Vec<CacheRow>);

/// Aggregates the per-strategy table, the failure taxonomy, the
/// percentile rows and the cache rows across `manifests`, given as
/// `(source, manifest)` pairs in source order.
fn manifest_tables(manifests: &[(String, RunManifest)]) -> ManifestTables {
    let mut rows: BTreeMap<String, StrategyRow> = BTreeMap::new();
    let mut taxonomy: BTreeMap<String, (FailureTaxonomy, Vec<String>)> = BTreeMap::new();
    let mut percentiles: Vec<PercentileRow> = Vec::new();
    let mut cache: Vec<CacheRow> = Vec::new();
    for (source, manifest) in manifests {
        let stats = name_stats(manifest);
        let n = |name: &str| manifest.counters.get(name).copied().unwrap_or(0);
        if manifest.counters.keys().any(|k| k.starts_with("store_")) {
            cache.push(CacheRow {
                source: source.clone(),
                hits: n("store_hits"),
                misses: n("store_misses"),
                replayed: n("store_replayed"),
                quarantined: n("store_quarantined"),
                commits: n("store_commits"),
                divergence: n("store_divergence"),
            });
        }
        for (name, summary) in &manifest.histograms {
            percentiles.push(PercentileRow {
                histogram: name.clone(),
                source: source.clone(),
                count: summary.count,
                p50_ms: summary.p50_ms,
                p95_ms: summary.p95_ms,
                p99_ms: summary.p99_ms,
                max_ms: summary.max_ms,
            });
        }
        for strategy in manifest_strategies(manifest) {
            let row = rows.entry(strategy.clone()).or_insert_with(|| StrategyRow {
                strategy: strategy.clone(),
                runs: 0,
                invocations: 0,
                total_ms: 0.0,
                max_ms: 0.0,
                failures: 0,
            });
            row.runs += 1;
            if let Some(&(count, total_ms, max_ms)) = stats.get(&strategy) {
                row.invocations += count;
                row.total_ms += total_ms;
                row.max_ms = row.max_ms.max(max_ms);
            }
        }
        for failure in &manifest.failures {
            let cell = format!("{}:{}", failure.phase, failure.strategy);
            if let Some(row) = rows.get_mut(&cell) {
                row.failures += 1;
            }
            let (causes, traces) = taxonomy.entry(cell).or_default();
            causes.count(&failure.cause);
            if !failure.trace_id.is_empty() {
                traces.push(failure.trace_id.clone());
            }
        }
    }
    let taxonomy = taxonomy
        .into_iter()
        .map(|(cell, (taxonomy, mut traces))| {
            traces.sort();
            traces.dedup();
            TaxonomyRow { cell, taxonomy, traces }
        })
        .collect();
    percentiles.sort_by(|a, b| (&a.histogram, &a.source).cmp(&(&b.histogram, &b.source)));
    cache.sort_by(|a, b| a.source.cmp(&b.source));
    (rows.into_values().collect(), taxonomy, percentiles, cache)
}

/// Computes the span-profile diff between two run manifests. When both
/// carry a full span stream the diff is path-level (flamegraph paths via
/// [`span_profile`]); if either is a summary the diff falls back to
/// name-level rollup stats, which both modes can supply exactly.
pub fn profile_diff(root: &Path, source_a: &str, source_b: &str) -> Result<Vec<DiffRow>, String> {
    let a = load_manifest(root, source_a)?;
    let b = load_manifest(root, source_b)?;
    let full = a.span_rollup.is_empty() && b.span_rollup.is_empty();
    let stats: fn(&RunManifest) -> BTreeMap<String, (u64, f64)> = if full {
        |m| span_profile(&m.spans).into_iter().map(|p| (p.path, (p.count, p.total_ms))).collect()
    } else {
        // Uniform detail on both sides: name-level rollup stats.
        |m| name_stats(m).into_iter().map(|(n, (c, t, _))| (n, (c, t))).collect()
    };
    let (stats_a, stats_b) = (stats(&a), stats(&b));
    let mut paths: Vec<&String> = stats_a.keys().chain(stats_b.keys()).collect();
    paths.sort();
    paths.dedup();
    Ok(paths
        .into_iter()
        .map(|path| {
            let (a_count, a_ms) = stats_a.get(path).copied().unwrap_or((0, 0.0));
            let (b_count, b_ms) = stats_b.get(path).copied().unwrap_or((0, 0.0));
            DiffRow { path: path.clone(), a_ms, b_ms, a_count, b_count }
        })
        .collect())
}

/// Computes the full report over every run manifest under `root`,
/// optionally with a span-profile diff between two manifest sources.
pub fn build_report(root: &Path, diff: Option<(&str, &str)>) -> Result<Report, String> {
    let manifests = run_manifests(root)?;
    let (strategies, taxonomy, percentiles, cache) = manifest_tables(&manifests);
    let diff = match diff {
        None => None,
        Some((a, b)) => Some((a.to_string(), b.to_string(), profile_diff(root, a, b)?)),
    };
    Ok(Report { manifests: manifests.len() as u64, strategies, taxonomy, percentiles, cache, diff })
}

fn fmt_ms(ms: f64) -> String {
    format!("{ms:.3}")
}

/// Renders a taxonomy row's trace links: comma-joined 16-hex ids, or
/// `-` when no failure carried one (pre-trace manifests).
fn fmt_traces(traces: &[String]) -> String {
    if traces.is_empty() {
        "-".to_string()
    } else {
        traces.join(", ")
    }
}

fn fmt_rate(rate: f64) -> String {
    format!("{:.1}%", rate * 100.0)
}

impl Report {
    /// Renders the markdown form.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str("# REIN observability ledger report\n\n");
        out.push_str(&format!(
            "Built from {} run manifests under `artifacts/telemetry/`.\n",
            self.manifests
        ));

        out.push_str("\n## Per-strategy cost and failures\n\n");
        out.push_str(
            "| strategy | runs | invocations | total ms | max ms | failures | failure rate |\n",
        );
        out.push_str("|---|---:|---:|---:|---:|---:|---:|\n");
        for r in &self.strategies {
            out.push_str(&format!(
                "| {} | {} | {} | {} | {} | {} | {} |\n",
                r.strategy,
                r.runs,
                r.invocations,
                fmt_ms(r.total_ms),
                fmt_ms(r.max_ms),
                r.failures,
                fmt_rate(r.failure_rate())
            ));
        }

        out.push_str("\n## Guard failure taxonomy\n\n");
        if self.taxonomy.is_empty() {
            out.push_str("No guarded failures recorded.\n");
        } else {
            out.push_str("| cell | panics | deadlines | retries | corrupt | total | traces |\n");
            out.push_str("|---|---:|---:|---:|---:|---:|---|\n");
            for r in &self.taxonomy {
                let t = &r.taxonomy;
                out.push_str(&format!(
                    "| {} | {} | {} | {} | {} | {} | {} |\n",
                    r.cell,
                    t.panics,
                    t.deadlines,
                    t.retries,
                    t.corrupt,
                    t.total(),
                    fmt_traces(&r.traces)
                ));
            }
        }

        out.push_str("\n## Duration percentiles\n\n");
        if self.percentiles.is_empty() {
            out.push_str("No histograms recorded.\n");
        } else {
            out.push_str("| histogram | source | count | p50 ms | p95 ms | p99 ms | max ms |\n");
            out.push_str("|---|---|---:|---:|---:|---:|---:|\n");
            for r in &self.percentiles {
                out.push_str(&format!(
                    "| {} | {} | {} | {} | {} | {} | {} |\n",
                    r.histogram,
                    r.source,
                    r.count,
                    fmt_ms(r.p50_ms),
                    fmt_ms(r.p95_ms),
                    fmt_ms(r.p99_ms),
                    fmt_ms(r.max_ms)
                ));
            }
        }

        out.push_str("\n## Store cache effectiveness\n\n");
        if self.cache.is_empty() {
            out.push_str("No store-backed runs in the ledger.\n");
        } else {
            out.push_str(
                "| source | hits | misses | hit rate | replayed | quarantined | commits \
                 | divergence |\n",
            );
            out.push_str("|---|---:|---:|---:|---:|---:|---:|---:|\n");
            for r in &self.cache {
                out.push_str(&format!(
                    "| {} | {} | {} | {} | {} | {} | {} | {} |\n",
                    r.source,
                    r.hits,
                    r.misses,
                    fmt_rate(r.hit_rate()),
                    r.replayed,
                    r.quarantined,
                    r.commits,
                    r.divergence
                ));
            }
        }

        if let Some((a, b, rows)) = &self.diff {
            out.push_str(&format!("\n## Span profile diff\n\nA = `{a}`, B = `{b}`.\n\n"));
            out.push_str("| span path | A count | B count | A ms | B ms | Δ ms |\n");
            out.push_str("|---|---:|---:|---:|---:|---:|\n");
            for r in rows {
                out.push_str(&format!(
                    "| {} | {} | {} | {} | {} | {} |\n",
                    r.path,
                    r.a_count,
                    r.b_count,
                    fmt_ms(r.a_ms),
                    fmt_ms(r.b_ms),
                    fmt_ms(r.delta_ms())
                ));
            }
        }
        out
    }

    /// Renders the static HTML form — no scripts, inline CSS only, so
    /// the file is viewable from a CI artifact download as-is.
    pub fn to_html(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n\
             <title>REIN observability ledger report</title>\n<style>\n\
             body { font-family: system-ui, sans-serif; margin: 2rem auto; max-width: 70rem; \
             color: #1a1a2e; }\n\
             h1, h2 { border-bottom: 1px solid #d0d0e0; padding-bottom: .3rem; }\n\
             table { border-collapse: collapse; margin: 1rem 0; width: 100%; }\n\
             th, td { border: 1px solid #d0d0e0; padding: .35rem .6rem; font-size: .9rem; }\n\
             th { background: #f0f0f8; text-align: left; }\n\
             td.n { text-align: right; font-variant-numeric: tabular-nums; }\n\
             .bar { background: #4a6fa5; height: .7rem; display: inline-block; }\n\
             .bad { background: #b4403f; }\n\
             code { background: #f0f0f8; padding: 0 .25rem; }\n\
             </style>\n</head>\n<body>\n",
        );
        out.push_str("<h1>REIN observability ledger report</h1>\n");
        out.push_str(&format!(
            "<p>Built from {} run manifests under <code>artifacts/telemetry/</code>.</p>\n",
            self.manifests
        ));

        out.push_str(
            "<h2>Per-strategy cost and failures</h2>\n<table>\n<tr><th>strategy</th>\
             <th>runs</th><th>invocations</th><th>total ms</th><th>max ms</th><th>failures</th>\
             <th>failure rate</th><th></th></tr>\n",
        );
        let max_total =
            self.strategies.iter().map(|r| r.total_ms).fold(0.0_f64, f64::max).max(1e-9);
        for r in &self.strategies {
            let width = (r.total_ms / max_total * 100.0).clamp(0.0, 100.0);
            let bar_class = if r.failures > 0 { "bar bad" } else { "bar" };
            out.push_str(&format!(
                "<tr><td><code>{}</code></td><td class=\"n\">{}</td><td class=\"n\">{}</td>\
                 <td class=\"n\">{}</td><td class=\"n\">{}</td><td class=\"n\">{}</td>\
                 <td class=\"n\">{}</td><td><span class=\"{}\" style=\"width:{:.1}%\"></span></td></tr>\n",
                esc(&r.strategy),
                r.runs,
                r.invocations,
                fmt_ms(r.total_ms),
                fmt_ms(r.max_ms),
                r.failures,
                fmt_rate(r.failure_rate()),
                bar_class,
                width
            ));
        }
        out.push_str("</table>\n");

        out.push_str("<h2>Guard failure taxonomy</h2>\n");
        if self.taxonomy.is_empty() {
            out.push_str("<p>No guarded failures recorded.</p>\n");
        } else {
            out.push_str(
                "<table>\n<tr><th>cell</th><th>panics</th><th>deadlines</th><th>retries</th>\
                 <th>corrupt</th><th>total</th><th>traces</th></tr>\n",
            );
            for r in &self.taxonomy {
                let t = &r.taxonomy;
                out.push_str(&format!(
                    "<tr><td><code>{}</code></td><td class=\"n\">{}</td><td class=\"n\">{}</td>\
                     <td class=\"n\">{}</td><td class=\"n\">{}</td><td class=\"n\">{}</td>\
                     <td><code>{}</code></td></tr>\n",
                    esc(&r.cell),
                    t.panics,
                    t.deadlines,
                    t.retries,
                    t.corrupt,
                    t.total(),
                    esc(&fmt_traces(&r.traces))
                ));
            }
            out.push_str("</table>\n");
        }

        out.push_str("<h2>Duration percentiles</h2>\n");
        if self.percentiles.is_empty() {
            out.push_str("<p>No histograms recorded.</p>\n");
        } else {
            out.push_str(
                "<table>\n<tr><th>histogram</th><th>source</th><th>count</th><th>p50 ms</th>\
                 <th>p95 ms</th><th>p99 ms</th><th>max ms</th></tr>\n",
            );
            for r in &self.percentiles {
                out.push_str(&format!(
                    "<tr><td><code>{}</code></td><td>{}</td><td class=\"n\">{}</td>\
                     <td class=\"n\">{}</td><td class=\"n\">{}</td><td class=\"n\">{}</td>\
                     <td class=\"n\">{}</td></tr>\n",
                    esc(&r.histogram),
                    esc(&r.source),
                    r.count,
                    fmt_ms(r.p50_ms),
                    fmt_ms(r.p95_ms),
                    fmt_ms(r.p99_ms),
                    fmt_ms(r.max_ms)
                ));
            }
            out.push_str("</table>\n");
        }

        out.push_str("<h2>Store cache effectiveness</h2>\n");
        if self.cache.is_empty() {
            out.push_str("<p>No store-backed runs in the ledger.</p>\n");
        } else {
            out.push_str(
                "<table>\n<tr><th>source</th><th>hits</th><th>misses</th><th>hit rate</th>\
                 <th>replayed</th><th>quarantined</th><th>commits</th><th>divergence</th>\
                 <th></th></tr>\n",
            );
            for r in &self.cache {
                let width = (r.hit_rate() * 100.0).clamp(0.0, 100.0);
                let bar_class =
                    if r.divergence > 0 || r.quarantined > 0 { "bar bad" } else { "bar" };
                out.push_str(&format!(
                    "<tr><td>{}</td><td class=\"n\">{}</td><td class=\"n\">{}</td>\
                     <td class=\"n\">{}</td><td class=\"n\">{}</td><td class=\"n\">{}</td>\
                     <td class=\"n\">{}</td><td class=\"n\">{}</td>\
                     <td><span class=\"{}\" style=\"width:{:.1}%\"></span></td></tr>\n",
                    esc(&r.source),
                    r.hits,
                    r.misses,
                    fmt_rate(r.hit_rate()),
                    r.replayed,
                    r.quarantined,
                    r.commits,
                    r.divergence,
                    bar_class,
                    width
                ));
            }
            out.push_str("</table>\n");
        }

        if let Some((a, b, rows)) = &self.diff {
            out.push_str(&format!(
                "<h2>Span profile diff</h2>\n<p>A = <code>{}</code>, B = <code>{}</code>.</p>\n",
                esc(a),
                esc(b)
            ));
            out.push_str(
                "<table>\n<tr><th>span path</th><th>A count</th><th>B count</th><th>A ms</th>\
                 <th>B ms</th><th>Δ ms</th><th></th></tr>\n",
            );
            let max_ms = rows.iter().map(|r| r.a_ms.max(r.b_ms)).fold(0.0_f64, f64::max).max(1e-9);
            for r in rows {
                let width = (r.b_ms / max_ms * 100.0).clamp(0.0, 100.0);
                let bar_class = if r.delta_ms() > 0.0 { "bar bad" } else { "bar" };
                out.push_str(&format!(
                    "<tr><td><code>{}</code></td><td class=\"n\">{}</td><td class=\"n\">{}</td>\
                     <td class=\"n\">{}</td><td class=\"n\">{}</td><td class=\"n\">{}</td>\
                     <td><span class=\"{}\" style=\"width:{:.1}%\"></span></td></tr>\n",
                    esc(&r.path),
                    r.a_count,
                    r.b_count,
                    fmt_ms(r.a_ms),
                    fmt_ms(r.b_ms),
                    fmt_ms(r.delta_ms()),
                    bar_class,
                    width
                ));
            }
            out.push_str("</table>\n");
        }

        out.push_str("</body>\n</html>\n");
        out
    }
}

/// Minimal HTML escaping for text and attribute positions.
fn esc(s: &str) -> String {
    s.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;").replace('"', "&quot;")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rein_telemetry::{FailureRecord, RunConfig, SpanRecord, SpanRollup};

    fn span(name: &str, id: u64, parent_id: u64, instant: bool) -> SpanRecord {
        SpanRecord {
            name: name.into(),
            id,
            parent_id,
            depth: 0,
            start_ms: 0.0,
            duration_ms: if instant { 0.0 } else { 1.0 },
            trace_id: 0,
            instant,
        }
    }

    fn failure(strategy: &str, cause: &str) -> FailureRecord {
        FailureRecord {
            phase: "detect".into(),
            strategy: strategy.into(),
            dataset: "beers".into(),
            scope: String::new(),
            cause: cause.into(),
            attempts: 1,
            elapsed_ms: 3.0,
            trace_id: String::new(),
        }
    }

    fn manifest(spans: Vec<SpanRecord>, failures: Vec<FailureRecord>) -> RunManifest {
        RunManifest {
            binary: "fig2_detection".into(),
            config: RunConfig { scale: 0.05, repeats: 3, seed: 11, label_budget: 100, threads: 2 },
            mode: "full".into(),
            spans,
            span_rollup: Vec::new(),
            counters: BTreeMap::new(),
            histograms: BTreeMap::new(),
            failures,
        }
    }

    fn strategy_row<'a>(rows: &'a [StrategyRow], strategy: &str) -> &'a StrategyRow {
        rows.iter().find(|r| r.strategy == strategy).unwrap_or_else(|| panic!("no {strategy} row"))
    }

    #[test]
    fn taxonomy_classifies_guard_causes() {
        let mut t = FailureTaxonomy::default();
        t.count("panic: chaos: injected panic for detect:raha");
        t.count("budget exhausted: 15 of 10 ticks");
        t.count("transient failure persisted: still down");
        t.count("invalid output: nonzero 7");
        t.count("something new");
        assert_eq!(t.panics, 1);
        assert_eq!(t.deadlines, 1);
        assert_eq!(t.retries, 1);
        assert_eq!(t.corrupt, 2);
        assert_eq!(t.total(), 5);
    }

    #[test]
    fn strategies_come_from_spans_and_failures_only() {
        let m = manifest(
            vec![
                span("phase:setup", 1, 0, false),
                span("detect:raha", 2, 1, false),
                span("detect:raha", 3, 1, false),
                span("detect:features:fit", 4, 3, false),
                span("repair:impute_mean_mode", 5, 1, false),
            ],
            vec![failure("zeroed", "budget exhausted: 12 of 10 ticks")],
        );
        assert_eq!(
            manifest_strategies(&m),
            ["detect:raha", "detect:zeroed", "repair:impute_mean_mode"],
            "phase/controller/nested spans are excluded, failed strategies included"
        );
    }

    #[test]
    fn summary_mode_counts_through_the_rollup() {
        let mut m = manifest(vec![span("detect:raha", 1, 0, false)], Vec::new());
        m.mode = "summary".into();
        m.span_rollup = vec![
            SpanRollup {
                name: "detect:raha".into(),
                count: 40,
                total_ms: 40.0,
                max_ms: 2.0,
                dropped: 36,
            },
            SpanRollup {
                name: "phase:setup".into(),
                count: 1,
                total_ms: 1.0,
                max_ms: 1.0,
                dropped: 0,
            },
        ];
        let (rows, _, _, _) = manifest_tables(&[("a.json".into(), m)]);
        assert_eq!(rows.len(), 1, "phase spans are not strategies");
        let raha = strategy_row(&rows, "detect:raha");
        assert_eq!(raha.invocations, 40, "rollup counts cover the dropped spans");
        assert_eq!((raha.total_ms, raha.max_ms), (40.0, 2.0));
    }

    #[test]
    fn failure_rate_is_failed_calls_over_calls() {
        // What the guard records for three calls of which the second
        // panics: three closed strategy spans, a `guard:fail:panic`
        // instant under the failed one, and one failure record.
        let m = manifest(
            vec![
                span("detect:x", 1, 0, false),
                span("detect:x", 2, 0, false),
                span("guard:fail:panic", 3, 2, true),
                span("detect:x", 4, 0, false),
            ],
            vec![failure("x", "panic: boom")],
        );
        let (rows, taxonomy, _, _) = manifest_tables(&[("a.json".into(), m)]);
        let x = strategy_row(&rows, "detect:x");
        assert_eq!((x.invocations, x.failures), (3, 1));
        assert!((x.failure_rate() - 1.0 / 3.0).abs() < 1e-12, "rate {}", x.failure_rate());
        assert_eq!(taxonomy[0].taxonomy.panics, 1);
        let idle = StrategyRow { invocations: 0, failures: 0, ..x.clone() };
        assert_eq!(idle.failure_rate(), 0.0);
    }

    #[test]
    fn a_deleted_manifest_leaves_the_report() {
        let dir = std::env::temp_dir().join(format!("rein-ledger-scan-{}", std::process::id()));
        let _cleanup = std::fs::remove_dir_all(&dir);
        let telemetry = dir.join("artifacts/telemetry");
        std::fs::create_dir_all(&telemetry).expect("temp dir");
        for seed in [11, 12] {
            let mut m = manifest(vec![span("detect:raha", 1, 0, false)], Vec::new());
            m.config.seed = seed;
            let path = telemetry.join(format!("fig2_detection-{seed}.json"));
            #[expect(
                clippy::disallowed_methods,
                reason = "a scratch manifest for the scan under test"
            )]
            std::fs::write(path, m.to_json()).expect("manifest written");
        }
        let report = build_report(&dir, None).expect("first report");
        let raha = strategy_row(&report.strategies, "detect:raha");
        assert_eq!((report.manifests, raha.runs, raha.invocations), (2, 2, 2));

        std::fs::remove_file(telemetry.join("fig2_detection-12.json")).expect("remove");
        let report = build_report(&dir, None).expect("report after removal");
        let raha = strategy_row(&report.strategies, "detect:raha");
        assert_eq!(
            (report.manifests, raha.runs, raha.invocations),
            (1, 1, 1),
            "the deleted manifest's runs and invocations must go"
        );
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn rendering_is_deterministic_and_escaped() {
        let report = Report {
            manifests: 1,
            strategies: vec![StrategyRow {
                strategy: "detect:a<b".into(),
                runs: 1,
                invocations: 2,
                total_ms: 3.5,
                max_ms: 2.0,
                failures: 0,
            }],
            taxonomy: vec![TaxonomyRow {
                cell: "detect:zeroed".into(),
                taxonomy: FailureTaxonomy { deadlines: 1, ..FailureTaxonomy::default() },
                traces: vec!["00000000deadbeef".into()],
            }],
            percentiles: vec![PercentileRow {
                histogram: "grid:cell_ms".into(),
                source: "artifacts/telemetry/fig2-11.json".into(),
                count: 9,
                p50_ms: 1.0,
                p95_ms: 2.0,
                p99_ms: 3.0,
                max_ms: 3.0,
            }],
            cache: vec![CacheRow {
                source: "artifacts/telemetry/crash_smoke-37.json".into(),
                hits: 408,
                misses: 0,
                replayed: 408,
                quarantined: 0,
                commits: 0,
                divergence: 0,
            }],
            diff: None,
        };
        let html = report.to_html();
        assert!(html.contains("detect:a&lt;b"), "strategy names are escaped in HTML");
        assert!(!html.contains("detect:a<b"));
        assert_eq!(report.to_markdown(), report.to_markdown());
        assert_eq!(html, report.to_html());
        let md = report.to_markdown();
        assert!(md.contains("| detect:a<b | 1 | 2 | 3.500 | 2.000 | 0 | 0.0% |"));
        assert!(
            md.contains("| detect:zeroed | 0 | 1 | 0 | 0 | 1 | 00000000deadbeef |"),
            "taxonomy rows link their cell trace ids"
        );
        assert!(md.contains("| grid:cell_ms | artifacts/telemetry/fig2-11.json | 9 | 1.000 | 2.000 | 3.000 | 3.000 |"));
        assert!(html.contains("00000000deadbeef"));
        assert!(html.contains("grid:cell_ms"));
        assert!(
            md.contains(
                "| artifacts/telemetry/crash_smoke-37.json | 408 | 0 | 100.0% | 408 | 0 | 0 | 0 |"
            ),
            "cache table renders hits, hit rate and recovery counters:\n{md}"
        );
        assert!(html.contains("<h2>Store cache effectiveness</h2>"));
    }

    #[test]
    fn cache_hit_rate_handles_unconsulted_and_warm_stores() {
        let cold = CacheRow {
            source: "a.json".into(),
            hits: 0,
            misses: 0,
            replayed: 0,
            quarantined: 0,
            commits: 0,
            divergence: 0,
        };
        assert_eq!(cold.hit_rate(), 0.0);
        let warm = CacheRow { hits: 9, misses: 1, ..cold };
        assert!((warm.hit_rate() - 0.9).abs() < 1e-12);
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the committed manifests and bench binaries are this test's fixture"
    )]
    fn every_committed_manifest_parses_and_the_report_builds() {
        // The committed manifests are themselves the fixture: every one
        // must parse, and the report over them must build.
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let manifests = run_manifests(&root).expect("committed manifests parse");
        assert!(manifests.len() >= 10, "telemetry manifests: {}", manifests.len());
        let on_disk = std::fs::read_dir(root.join("artifacts/telemetry"))
            .expect("telemetry dir")
            .filter(|e| {
                e.as_ref().expect("dir entry").path().extension().is_some_and(|x| x == "json")
            })
            .count();
        assert_eq!(manifests.len(), on_disk, "a committed manifest was skipped");
        // One sorted scan: every source unique and in order.
        let sources: Vec<&str> = manifests.iter().map(|(s, _)| s.as_str()).collect();
        assert!(sources.windows(2).all(|w| w[0] < w[1]), "scan is sorted and unique");
        let report = build_report(&root, None).expect("report builds");
        assert_eq!(report.manifests, manifests.len() as u64);
        assert!(report.diff.is_none());
        // Every bench binary has a committed manifest (grid_smoke writes
        // one per mode), and every manifest marks its phases.
        let bins = std::fs::read_dir(root.join("crates/bench/src/bin")).expect("bench bins");
        for entry in bins {
            let path = entry.expect("dir entry").path();
            let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else { continue };
            let binaries = match stem {
                "grid_smoke" => vec!["parallel_smoke", "chaos_smoke", "crash_smoke"],
                bin => vec![bin],
            };
            for binary in binaries {
                assert!(
                    manifests.iter().any(|(_, m)| m.binary == binary),
                    "{stem} has no committed manifest for `{binary}`"
                );
            }
        }
        for (source, m) in &manifests {
            let mut names =
                m.spans.iter().map(|s| &s.name).chain(m.span_rollup.iter().map(|r| &r.name));
            assert!(names.any(|name| name.starts_with("phase:")), "{source} marks no phase:* span");
        }
    }

    #[test]
    fn report_over_committed_artifacts_builds_and_diffs() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let diff = (
            "artifacts/telemetry/fig2_detection-11.json",
            "artifacts/telemetry/chaos_smoke-29.json",
        );
        let report = build_report(&root, Some(diff)).expect("report builds");
        assert!(!report.strategies.is_empty());
        assert!(
            report.strategies.iter().any(|r| r.strategy.starts_with("detect:")),
            "detector strategies appear in the table"
        );
        let (_, _, rows) = report.diff.as_ref().expect("diff present");
        assert!(!rows.is_empty());
        // Determinism: building twice renders byte-identical output.
        let again = build_report(&root, Some(diff)).expect("report builds again");
        assert_eq!(report.to_markdown(), again.to_markdown());
        assert_eq!(report.to_html(), again.to_html());
    }
}
