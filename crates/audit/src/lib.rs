//! # rein-audit
//!
//! A workspace-wide determinism & benchmark-integrity lint pass.
//!
//! REIN's results are only meaningful when two runs with the same seed
//! are byte-identical: the paper's Wilcoxon A/B comparisons and the
//! detector/repair rankings all assume exact reproducibility. This crate
//! machine-checks the invariants behind that promise that need the whole
//! workspace's call graph, which no per-site lint can see:
//!
//! * **seeds and splits** — every library RNG traces its seed to a
//!   parameter (`seed-provenance`), and no held-out partition reaches a
//!   fit-like callee (`split-leakage`);
//! * **parallel determinism** — everything reachable from a rayon region
//!   is safe to shard (the five `par-*` rules), spans on worker threads
//!   carry a cell trace (`trace-context`), and parallel float
//!   reductions run in a fixed order (`float-reduce-order`);
//! * **live suppressions** — every `audit:allow(rule, reason)` still
//!   silences a finding (`stale-allow`).
//!
//! The per-site rules live in the toolchain: clippy's
//! `[workspace.lints.clippy]` and `crates/clippy.toml` (wall clock and
//! the telemetry clock, environment reads, file reads, raw file writes,
//! hash containers, prints, panics, discarded `#[must_use]` values),
//! rustc's `#[expect]` for stale suppressions, and runtime tests for
//! guard, span and manifest coverage — DESIGN.md §6b maps each one.
//! That a cached grid cell never stands in for another computation is
//! not a lint at all: the cell key's typed inputs and rein-core's
//! store-equivalence test hold it (DESIGN.md §6h).
//!
//! Run it with `cargo run -p rein-audit`; it prints a human report,
//! writes machine-readable JSON to `artifacts/audit/report.json` and
//! exits nonzero on violations (CI treats that as a failing step).

pub mod callgraph;
pub mod concurrency;
pub mod lexer;
pub mod parser;
pub mod report;
pub mod rules;
pub mod sarif;
pub mod semantic;

pub use report::{audit_workspace, collect_sources, Report, RuleSummary};
pub use rules::{audit_source, classify, AllowEntry, AllowTable, FileClass, Violation, RULES};
pub use sarif::to_sarif;
pub use semantic::{analyze, SemanticOutcome, WorkspaceModel};
