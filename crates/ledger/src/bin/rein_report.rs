//! `rein_report`: render the static observability report from every
//! run manifest under `artifacts/telemetry/`.
//!
//! ```text
//! rein_report [--root DIR] [--out DIR] [--diff MANIFEST_A MANIFEST_B]
//! ```
//!
//! * `--root` — repository root to scan (default `.`).
//! * `--out`  — output directory (default `<root>/artifacts/ledger`);
//!   receives `report.md` and `report.html`.
//! * `--diff` — include a span-profile diff between two run manifests,
//!   given as repo-relative paths.
//!
//! The whole pipeline is deterministic: running it twice over the same
//! manifests leaves both reports byte-identical (CI asserts exactly
//! that). Exit codes: 0 on success, 1 on a read, parse or write
//! failure, 2 on usage errors.

#![allow(
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "a binary is the report surface: it prints its results and may abort on a broken invariant"
)]

use std::path::PathBuf;
use std::process::ExitCode;

use rein_ledger::build_report;

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
    let out_dir = args.out.clone().unwrap_or_else(|| args.root.join("artifacts").join("ledger"));
    let diff = args.diff.as_ref().map(|(a, b)| (a.as_str(), b.as_str()));
    let report = build_report(&args.root, diff)?;
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("mkdir {}: {e}", out_dir.display()))?;
    let md_path = out_dir.join("report.md");
    let html_path = out_dir.join("report.html");
    #[expect(
        clippy::disallowed_methods,
        reason = "the report is a derived view, regenerated whole from the manifests"
    )]
    std::fs::write(&md_path, report.to_markdown())
        .map_err(|e| format!("write {}: {e}", md_path.display()))?;
    #[expect(
        clippy::disallowed_methods,
        reason = "the report is a derived view, regenerated whole from the manifests"
    )]
    std::fs::write(&html_path, report.to_html())
        .map_err(|e| format!("write {}: {e}", html_path.display()))?;
    println!(
        "report: {} run manifests, {} strategies, {} failing cells -> {} + {}",
        report.manifests,
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
