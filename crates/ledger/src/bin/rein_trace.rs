//! `rein_trace`: render the causal cell traces of run manifests into
//! Perfetto-openable Chrome trace JSON, a self-contained flamegraph
//! SVG, and the typed per-cell cost table.
//!
//! ```text
//! rein_trace [--root DIR] [--manifest PATH]...
//! ```
//!
//! * `--root` — repository root (default `.`); exports land under
//!   `<root>/artifacts/trace/`.
//! * `--manifest` — repo-relative manifest path to export (repeatable).
//!   Without it, every manifest the report's scan finds under
//!   `artifacts/telemetry/` carrying a full span stream is exported.
//!   Summary-mode manifests are skipped with a note: their sampled
//!   streams cannot reconstruct complete trees. So are manifests without
//!   cell traces (and without orphans): their exports would be empty.
//!
//! Every export is a pure function of the manifest bytes — virtual
//! lanes, tick time, renumbered span ids — so a double run is
//! byte-identical and CI compares the hashes.
//!
//! Exit codes: 0 on success, 1 on IO/parse failure, 2 on usage errors,
//! 4 when any export contains orphan spans (a trace-carrying span whose
//! parent never appeared — the causal tree is incomplete).

#![allow(
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "a binary is the report surface: it prints its results and may abort on a broken invariant"
)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use rein_ledger::{export_manifest, load_manifest, run_manifests, write_exports};
use rein_telemetry::RunManifest;

struct Args {
    root: PathBuf,
    manifests: Vec<String>,
}

fn usage() -> ExitCode {
    eprintln!("usage: rein_trace [--root DIR] [--manifest PATH]...");
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, ExitCode> {
    let mut args = Args { root: PathBuf::from("."), manifests: Vec::new() };
    let mut raw = std::env::args().skip(1);
    while let Some(flag) = raw.next() {
        match flag.as_str() {
            "--root" => match raw.next() {
                Some(dir) => args.root = PathBuf::from(dir),
                None => return Err(usage()),
            },
            "--manifest" => match raw.next() {
                Some(path) => args.manifests.push(path),
                None => return Err(usage()),
            },
            _ => {
                eprintln!("error: unknown argument {flag:?}");
                return Err(usage());
            }
        }
    }
    Ok(args)
}

/// The manifests to export as `(repo-relative source, manifest)`
/// pairs: the explicit `--manifest` list, or the report's sorted scan of
/// `artifacts/telemetry/*.json`.
fn manifests(args: &Args) -> Result<Vec<(String, RunManifest)>, String> {
    if args.manifests.is_empty() {
        return run_manifests(&args.root);
    }
    args.manifests
        .iter()
        .map(|source| Ok((source.clone(), load_manifest(&args.root, source)?)))
        .collect()
}

/// Exports one manifest; returns its orphan count, or `None` when the
/// manifest was skipped (summary mode, or no cell traces).
fn export_one(root: &Path, source: &str, manifest: &RunManifest) -> Result<Option<u64>, String> {
    if manifest.mode == "summary" {
        println!("{source}: skipped (summary mode — span stream is sampled)");
        return Ok(None);
    }
    let (forest, export) = export_manifest(manifest);
    if export.traces == 0 && export.orphans == 0 {
        println!("{source}: skipped (no cell traces)");
        return Ok(None);
    }
    let stem = Path::new(source)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .ok_or_else(|| format!("{source}: no file stem"))?;
    let paths = write_exports(root, &stem, manifest)?;
    println!(
        "{source}: {} cell trace(s), {} ambient span(s), {} orphan(s) -> {}",
        export.traces,
        export.ambient_spans,
        export.orphans,
        paths[2].display()
    );
    for orphan in &forest.orphans {
        eprintln!(
            "  orphan: span {:?} (id {}) on trace {:016x} has unresolved parent {}",
            orphan.name, orphan.id, orphan.trace_id, orphan.parent_id
        );
    }
    Ok(Some(export.orphans))
}

fn run(args: &Args) -> Result<u64, String> {
    let manifests = manifests(args)?;
    if manifests.is_empty() {
        println!("no run manifests under {}/artifacts/telemetry", args.root.display());
        return Ok(0);
    }
    let mut orphans = 0u64;
    let mut exported = 0usize;
    for (source, manifest) in &manifests {
        if let Some(n) = export_one(&args.root, source, manifest)? {
            orphans += n;
            exported += 1;
        }
    }
    println!("exported {exported} manifest(s)");
    Ok(orphans)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(code) => return code,
    };
    match run(&args) {
        Ok(0) => ExitCode::SUCCESS,
        Ok(orphans) => {
            eprintln!("error: {orphans} orphan span(s) — causal trees are incomplete");
            ExitCode::from(4)
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
