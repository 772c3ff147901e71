//! `rein-audit` CLI: audits the workspace, prints the human report,
//! writes `artifacts/audit/report.json` and exits nonzero on violations.
//!
//! Usage: `cargo run -p rein-audit [-- --quiet --sarif FILE]`

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

use rein_audit::{audit_workspace, to_sarif};

struct Args {
    sarif_out: Option<PathBuf>,
    quiet: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { sarif_out: None, quiet: false };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--sarif" => {
                args.sarif_out =
                    Some(PathBuf::from(it.next().ok_or("--sarif needs a file argument")?));
            }
            "--quiet" | "-q" => args.quiet = true,
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(args)
}

fn write_out(path: &Path, content: &str, quiet: bool, what: &str) -> Result<(), ExitCode> {
    if let Some(dir) = path.parent() {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("rein-audit: cannot create {}: {e}", dir.display());
            return Err(ExitCode::from(2));
        }
    }
    #[expect(
        clippy::disallowed_methods,
        reason = "audit reports are derived views, rewritten whole by every run"
    )]
    if let Err(e) = std::fs::write(path, content) {
        eprintln!("rein-audit: cannot write {}: {e}", path.display());
        return Err(ExitCode::from(2));
    }
    if !quiet {
        println!("{what} written to {}", path.display());
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rein-audit: {e}");
            return ExitCode::from(2);
        }
    };
    // The workspace containing this crate (crates/audit/../..), so
    // `cargo run -p rein-audit` works from any cwd inside the repo.
    // Canonicalized so report paths are workspace-relative and
    // byte-identical no matter which directory the audit runs from.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let root = std::fs::canonicalize(&root).unwrap_or(root);
    let report = match audit_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("rein-audit: failed to scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    if !args.quiet || !report.clean() {
        print!("{}", report.render_text());
    }
    let mut json = report.to_json();
    json.push('\n');
    if let Err(code) =
        write_out(&root.join("artifacts/audit/report.json"), &json, args.quiet, "report")
    {
        return code;
    }
    if let Some(sarif_out) = &args.sarif_out {
        if let Err(code) = write_out(sarif_out, &to_sarif(&report), args.quiet, "SARIF") {
            return code;
        }
    }
    if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
