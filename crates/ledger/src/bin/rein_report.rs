//! `rein_report`: ingest every observability artifact into the ledger
//! and render the static report.
//!
//! ```text
//! rein_report [--root DIR] [--out DIR] [--diff MANIFEST_A MANIFEST_B]
//! ```
//!
//! * `--root` — repository root to scan (default `.`).
//! * `--out`  — output directory (default `<root>/artifacts/ledger`);
//!   receives `index.json`, `report.md` and `report.html`.
//! * `--diff` — include a span-profile diff between two run manifests,
//!   given as repo-relative paths.
//!
//! The whole pipeline is deterministic: running it twice over the same
//! artifacts leaves `index.json` and both reports byte-identical (CI
//! asserts exactly that). Exit codes: 0 on success, 1 on ingest or IO
//! failure, 2 on usage errors.

// Binaries are the report surface.
#![allow(clippy::print_stdout)]

use std::path::PathBuf;
use std::process::ExitCode;

use rein_ledger::{build_report, index_path, rescan};

struct Args {
    root: PathBuf,
    out: Option<PathBuf>,
    diff: Option<(String, String)>,
}

fn usage() -> ExitCode {
    eprintln!("usage: rein_report [--root DIR] [--out DIR] [--diff MANIFEST_A MANIFEST_B]");
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, ExitCode> {
    let mut args = Args { root: PathBuf::from("."), out: None, diff: None };
    let mut raw = std::env::args().skip(1);
    while let Some(flag) = raw.next() {
        match flag.as_str() {
            "--root" => match raw.next() {
                Some(dir) => args.root = PathBuf::from(dir),
                None => return Err(usage()),
            },
            "--out" => match raw.next() {
                Some(dir) => args.out = Some(PathBuf::from(dir)),
                None => return Err(usage()),
            },
            "--diff" => match (raw.next(), raw.next()) {
                (Some(a), Some(b)) => args.diff = Some((a, b)),
                _ => return Err(usage()),
            },
            _ => {
                eprintln!("error: unknown argument {flag:?}");
                return Err(usage());
            }
        }
    }
    Ok(args)
}

fn run(args: &Args) -> Result<(), String> {
    let index_file = match &args.out {
        Some(out) => out.join("index.json"),
        None => index_path(&args.root),
    };
    let out_dir = index_file
        .parent()
        .map(PathBuf::from)
        .ok_or_else(|| "output path has no parent directory".to_string())?;

    let (index, scanned, changed) = rescan(&args.root, &index_file)?;
    println!(
        "ledger: {} artifacts scanned, {} entries, generation {}{}",
        scanned,
        index.entries.len(),
        index.generation,
        if changed { " (updated)" } else { " (unchanged)" }
    );

    let diff = args.diff.as_ref().map(|(a, b)| (a.as_str(), b.as_str()));
    let report = build_report(&args.root, &index, diff)?;
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("mkdir {}: {e}", out_dir.display()))?;
    let md_path = out_dir.join("report.md");
    let html_path = out_dir.join("report.html");
    std::fs::write(&md_path, report.to_markdown())
        .map_err(|e| format!("write {}: {e}", md_path.display()))?;
    std::fs::write(&html_path, report.to_html())
        .map_err(|e| format!("write {}: {e}", html_path.display()))?;
    println!(
        "report: {} strategies, {} failing cells -> {} + {}",
        report.strategies.len(),
        report.taxonomy.len(),
        md_path.display(),
        html_path.display()
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(code) => return code,
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
