//! Table 4: dataset characteristics.
//!
//! Generates all 14 benchmark datasets at the configured scale and prints
//! rows, columns, numeric/categorical split, realised error rate, error
//! types, domain and ML task — the columns of the paper's Table 4.

#![allow(
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "a binary is the report surface: it prints its results and may abort on a broken invariant"
)]

use rein_bench::{conclude, dataset, f, header, phase};
use rein_datasets::DatasetId;

fn main() {
    let setup = phase("setup");
    header("Table 4: dataset characteristics");
    println!(
        "{:<14} {:>7} {:>5} {:>5} {:>5} {:>7}  {:<14} {:<14} {:?}",
        "dataset", "rows", "cols", "#num", "#cat", "rate", "domain", "task", "errors"
    );
    drop(setup);
    let generate = phase("generate");
    for (i, id) in DatasetId::ALL.iter().enumerate() {
        let ds = dataset(*id, 100 + i as u64);
        let schema = ds.clean.schema();
        println!(
            "{:<14} {:>7} {:>5} {:>5} {:>5} {:>7}  {:<14} {:<14} {:?}",
            ds.info.name,
            ds.dirty.n_rows(),
            schema.len(),
            schema.numeric_indices().len(),
            schema.categorical_indices().len(),
            f(ds.error_rate()),
            ds.info.domain,
            format!("{:?}", ds.info.task),
            ds.info.errors.types,
        );
    }
    drop(generate);
    let report = phase("report");
    println!(
        "\n(rows scaled by REIN_SCALE={}; paper-size rows via REIN_SCALE=1)",
        rein_bench::scale()
    );
    drop(report);
    conclude("table4_datasets", 100, 0);
}
