//! The static observability report rendered from the ledger.
//!
//! Everything here is a pure function of the index plus the artifacts it
//! points at: same ledger, same bytes. The report exists in two forms —
//! markdown (`report.md`, for diffs and terminals) and a dependency-free
//! static HTML page (`report.html`, uploaded by CI) — rendered from the
//! same row structs so they cannot drift apart.
//!
//! Sections mirror the paper's result surfaces: the per-strategy
//! cost/failure table (the shape of Fig 2/4/5), the guard-failure
//! taxonomy, trends across ledger generations, and an
//! optional flamegraph-style span-profile diff between two runs.

use std::collections::BTreeMap;
use std::path::Path;

use rein_telemetry::perf::span_profile;
use rein_telemetry::RunManifest;

use crate::index::{FailureTaxonomy, LedgerIndex};

/// One row of the per-strategy table, aggregated across every run
/// manifest in the ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct StrategyRow {
    /// `phase:strategy` name.
    pub strategy: String,
    /// Distinct runs (manifests) that exercised the strategy.
    pub runs: u64,
    /// Completed invocations (spans) across those runs.
    pub invocations: u64,
    /// Total wall-clock milliseconds across completed invocations.
    pub total_ms: f64,
    /// Largest single invocation.
    pub max_ms: f64,
    /// Guarded failures attributed to the strategy.
    pub failures: u64,
}

impl StrategyRow {
    /// Failures over attempts (completed invocations + failures), in
    /// [0, 1]. A failed attempt never closes its span, so the two sets
    /// are disjoint.
    pub fn failure_rate(&self) -> f64 {
        let attempts = self.invocations + self.failures;
        if attempts == 0 {
            0.0
        } else {
            self.failures as f64 / attempts as f64
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

/// One row of the generation trend table — what each ingest pass added.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrendRow {
    /// Ledger generation.
    pub generation: u32,
    /// Entries first seen at this generation.
    pub entries: u64,
    /// Spans those entries recorded.
    pub spans: u64,
    /// Guarded failures those entries recorded.
    pub failures: u64,
    /// Audit violations those entries carry.
    pub violations: u64,
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
    /// Ledger generation the report describes.
    pub generation: u32,
    /// Entry counts per kind, sorted by kind.
    pub kind_counts: BTreeMap<String, u64>,
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
    /// Generation trend rows, oldest first.
    pub trends: Vec<TrendRow>,
    /// Optional span-profile diff: `(label_a, label_b, rows)`.
    pub diff: Option<(String, String, Vec<DiffRow>)>,
}

fn load_manifest(root: &Path, source: &str) -> Result<RunManifest, String> {
    let path = root.join(source);
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    RunManifest::from_json(&text).map_err(|e| format!("parse {}: {e}", path.display()))
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

/// Aggregates the per-strategy table and the failure taxonomy across
/// every run manifest the index points at.
fn strategy_tables(root: &Path, index: &LedgerIndex) -> Result<ManifestTables, String> {
    let mut rows: BTreeMap<String, StrategyRow> = BTreeMap::new();
    let mut taxonomy: BTreeMap<String, (FailureTaxonomy, Vec<String>)> = BTreeMap::new();
    let mut percentiles: Vec<PercentileRow> = Vec::new();
    let mut cache: Vec<CacheRow> = Vec::new();
    for entry in index.entries.iter().filter(|e| e.kind == "run_manifest") {
        let manifest = load_manifest(root, &entry.source)?;
        let stats = name_stats(&manifest);
        let n = |name: &str| manifest.counters.get(name).copied().unwrap_or(0);
        if manifest.counters.keys().any(|k| k.starts_with("store_")) {
            cache.push(CacheRow {
                source: entry.source.clone(),
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
                source: entry.source.clone(),
                count: summary.count,
                p50_ms: summary.p50_ms,
                p95_ms: summary.p95_ms,
                p99_ms: summary.p99_ms,
                max_ms: summary.max_ms,
            });
        }
        for strategy in &entry.strategies {
            let row = rows.entry(strategy.clone()).or_insert_with(|| StrategyRow {
                strategy: strategy.clone(),
                runs: 0,
                invocations: 0,
                total_ms: 0.0,
                max_ms: 0.0,
                failures: 0,
            });
            row.runs += 1;
            if let Some(&(count, total_ms, max_ms)) = stats.get(strategy) {
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
    Ok((rows.into_values().collect(), taxonomy, percentiles, cache))
}

/// Folds the index into per-generation trend rows (pure — no file IO).
pub fn trend_rows(index: &LedgerIndex) -> Vec<TrendRow> {
    let mut by_gen: BTreeMap<u32, TrendRow> = BTreeMap::new();
    for e in &index.entries {
        let row = by_gen.entry(e.generation).or_insert(TrendRow {
            generation: e.generation,
            entries: 0,
            spans: 0,
            failures: 0,
            violations: 0,
        });
        row.entries += 1;
        row.spans += e.summary.spans;
        row.failures += e.summary.failures.total();
        row.violations += e.summary.violations;
    }
    by_gen.into_values().collect()
}

/// Computes the span-profile diff between two run manifests. When both
/// carry a full span stream the diff is path-level (flamegraph paths via
/// [`span_profile`]); if either is a summary the diff falls back to
/// name-level rollup stats, which both modes can supply exactly.
pub fn profile_diff(root: &Path, source_a: &str, source_b: &str) -> Result<Vec<DiffRow>, String> {
    let a = load_manifest(root, source_a)?;
    let b = load_manifest(root, source_b)?;
    let stats = |m: &RunManifest| -> BTreeMap<String, (u64, f64)> {
        if m.span_rollup.is_empty() {
            span_profile(&m.spans).into_iter().map(|p| (p.path, (p.count, p.total_ms))).collect()
        } else {
            name_stats(m)
                .into_iter()
                .map(|(name, (count, total, _))| (name, (count, total)))
                .collect()
        }
    };
    let full_diff = a.span_rollup.is_empty() && b.span_rollup.is_empty();
    let (stats_a, stats_b) = if full_diff {
        (stats(&a), stats(&b))
    } else {
        // Uniform detail on both sides: name-level rollup stats.
        let name_level = |m: &RunManifest| {
            name_stats(m).into_iter().map(|(n, (c, t, _))| (n, (c, t))).collect::<BTreeMap<_, _>>()
        };
        (name_level(&a), name_level(&b))
    };
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

/// Computes the full report for `index`, optionally with a span-profile
/// diff between two manifest sources.
pub fn build_report(
    root: &Path,
    index: &LedgerIndex,
    diff: Option<(&str, &str)>,
) -> Result<Report, String> {
    let mut kind_counts: BTreeMap<String, u64> = BTreeMap::new();
    for e in &index.entries {
        *kind_counts.entry(e.kind.clone()).or_insert(0) += 1;
    }
    let (strategies, taxonomy, percentiles, cache) = strategy_tables(root, index)?;
    let diff = match diff {
        None => None,
        Some((a, b)) => Some((a.to_string(), b.to_string(), profile_diff(root, a, b)?)),
    };
    Ok(Report {
        generation: index.generation,
        kind_counts,
        strategies,
        taxonomy,
        percentiles,
        cache,
        trends: trend_rows(index),
        diff,
    })
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
        let kinds: Vec<String> = self.kind_counts.iter().map(|(k, n)| format!("{n} {k}")).collect();
        out.push_str(&format!(
            "Generation {} — {} entries ({}).\n",
            self.generation,
            self.kind_counts.values().sum::<u64>(),
            kinds.join(", ")
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

        out.push_str("\n## Generation trends\n\n");
        out.push_str("| generation | entries added | spans | failures | violations |\n");
        out.push_str("|---:|---:|---:|---:|---:|\n");
        for t in &self.trends {
            out.push_str(&format!(
                "| {} | {} | {} | {} | {} |\n",
                t.generation, t.entries, t.spans, t.failures, t.violations
            ));
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
        let kinds: Vec<String> =
            self.kind_counts.iter().map(|(k, n)| format!("{n} {}", esc(k))).collect();
        out.push_str(&format!(
            "<p>Generation {} — {} entries ({}).</p>\n",
            self.generation,
            self.kind_counts.values().sum::<u64>(),
            kinds.join(", ")
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

        out.push_str(
            "<h2>Generation trends</h2>\n<table>\n<tr><th>generation</th><th>entries added</th>\
             <th>spans</th><th>failures</th><th>violations</th></tr>\n",
        );
        for t in &self.trends {
            out.push_str(&format!(
                "<tr><td class=\"n\">{}</td><td class=\"n\">{}</td><td class=\"n\">{}</td>\
                 <td class=\"n\">{}</td><td class=\"n\">{}</td></tr>\n",
                t.generation, t.entries, t.spans, t.failures, t.violations
            ));
        }
        out.push_str("</table>\n");

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
    use crate::index::{EntrySummary, LedgerEntry};
    use std::collections::BTreeMap;

    fn entry(kind: &str, key: &str, generation: u32, spans: u64) -> LedgerEntry {
        LedgerEntry {
            key: key.to_string(),
            kind: kind.to_string(),
            source: format!("{key}.json"),
            bin: "fig2".to_string(),
            seed: 11,
            scale: 0.05,
            threads: 1,
            mode: "full".to_string(),
            strategies: Vec::new(),
            generation,
            summary: EntrySummary { spans, ..EntrySummary::default() },
        }
    }

    #[test]
    fn trend_rows_group_by_generation() {
        let index = LedgerIndex {
            schema: 1,
            generation: 2,
            entries: vec![
                entry("run_manifest", "aa", 1, 10),
                entry("run_manifest", "bb", 1, 5),
                entry("audit_report", "cc", 2, 0),
            ],
        };
        let trends = trend_rows(&index);
        assert_eq!(trends.len(), 2);
        assert_eq!((trends[0].generation, trends[0].entries, trends[0].spans), (1, 2, 15));
        assert_eq!((trends[1].generation, trends[1].entries), (2, 1));
    }

    #[test]
    fn failure_rate_counts_failures_as_extra_attempts() {
        let row = StrategyRow {
            strategy: "detect:raha".into(),
            runs: 1,
            invocations: 3,
            total_ms: 1.0,
            max_ms: 1.0,
            failures: 1,
        };
        assert!((row.failure_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn rendering_is_deterministic_and_escaped() {
        let report = Report {
            generation: 1,
            kind_counts: BTreeMap::from([("run_manifest".to_string(), 1)]),
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
            trends: Vec::new(),
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
    fn report_over_committed_artifacts_builds_and_diffs() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut index = LedgerIndex::default();
        assert!(index.apply(crate::ingest::ingest_repo(&root).expect("ingest")));
        let diff = (
            "artifacts/telemetry/fig2_detection-11.json",
            "artifacts/telemetry/chaos_smoke-29.json",
        );
        let report = build_report(&root, &index, Some(diff)).expect("report builds");
        assert!(!report.strategies.is_empty());
        assert!(
            report.strategies.iter().any(|r| r.strategy.starts_with("detect:")),
            "detector strategies appear in the table"
        );
        let (_, _, rows) = report.diff.as_ref().expect("diff present");
        assert!(!rows.is_empty());
        // Determinism: building twice renders byte-identical output.
        let again = build_report(&root, &index, Some(diff)).expect("report builds again");
        assert_eq!(report.to_markdown(), again.to_markdown());
        assert_eq!(report.to_html(), again.to_html());
    }
}
