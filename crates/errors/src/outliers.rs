//! Outlier and Gaussian-noise injection.
//!
//! Outliers are planted `outlier_degree` standard deviations away from the
//! column mean (the knob swept in the paper's Figure 3c); Gaussian noise
//! perturbs values by a σ-scaled amount without pushing them out of range.

use rand::prelude::*;
use rand::rngs::StdRng;
use rein_data::rng::randn;
use rein_data::{CellMask, Table, Value};

use crate::common::{cells_of_columns, pick_cells, Injection};

/// Per-column mean and standard deviation of the numeric values.
fn column_stats(table: &Table, col: usize) -> Option<(f64, f64)> {
    let xs = table.numeric_values(col);
    if xs.len() < 2 {
        return None;
    }
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
    Some((mean, var.sqrt().max(1e-12)))
}

/// Plants outliers into `rate` of the numeric cells of `cols`.
///
/// Each corrupted cell is moved to
/// `mean ± (degree + |ε|) · σ` with `ε ~ N(0, σ/4)`-ish jitter, so injected
/// outliers sit *at least* `degree` standard deviations out — matching the
/// paper's "outlier degree, defined as the number of standard deviations
/// away from the mean".
pub fn inject_outliers(
    table: &Table,
    cols: &[usize],
    rate: f64,
    degree: f64,
    seed: u64,
) -> Injection {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = table.clone();
    let mut mask = CellMask::new(table.n_rows(), table.n_cols());
    let numeric_cols: Vec<usize> =
        cols.iter().copied().filter(|&c| column_stats(table, c).is_some()).collect();
    let candidates: Vec<_> = cells_of_columns(table, &numeric_cols)
        .into_iter()
        .filter(|c| table.cell(c.row, c.col).as_f64().is_some())
        .collect();
    for cell in pick_cells(&candidates, rate, &mut rng) {
        #[expect(clippy::expect_used, reason = "candidates pre-filtered to columns with stats")]
        let (mean, std) = column_stats(table, cell.col).expect("filtered");
        let sign = if rng.random_bool(0.5) { 1.0 } else { -1.0 };
        let jitter = randn(&mut rng).abs() * 0.25;
        let v = mean + sign * (degree + jitter) * std;
        out.set_cell(cell.row, cell.col, Value::float(v));
        mask.set(cell.row, cell.col, true);
    }
    Injection { table: out, cells: mask }
}

/// Adds zero-mean Gaussian noise with standard deviation `sigma_scale · σ`
/// to `rate` of the numeric cells of `cols`.
pub fn inject_gaussian_noise(
    table: &Table,
    cols: &[usize],
    rate: f64,
    sigma_scale: f64,
    seed: u64,
) -> Injection {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = table.clone();
    let mut mask = CellMask::new(table.n_rows(), table.n_cols());
    let numeric_cols: Vec<usize> =
        cols.iter().copied().filter(|&c| column_stats(table, c).is_some()).collect();
    let candidates: Vec<_> = cells_of_columns(table, &numeric_cols)
        .into_iter()
        .filter(|c| table.cell(c.row, c.col).as_f64().is_some())
        .collect();
    for cell in pick_cells(&candidates, rate, &mut rng) {
        #[expect(clippy::expect_used, reason = "candidates pre-filtered to columns with stats")]
        let (_, std) = column_stats(table, cell.col).expect("filtered");
        #[expect(clippy::expect_used, reason = "candidates pre-filtered to numeric cells")]
        let x = table.cell(cell.row, cell.col).as_f64().expect("filtered");
        let mut noise = randn(&mut rng) * sigma_scale * std;
        if noise == 0.0 {
            noise = sigma_scale * std; // guarantee the cell actually changes
        }
        out.set_cell(cell.row, cell.col, Value::float(x + noise));
        mask.set(cell.row, cell.col, true);
    }
    Injection { table: out, cells: mask }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rein_data::diff::diff_mask;
    use rein_data::{ColumnMeta, ColumnType, Schema};

    fn table() -> Table {
        let schema = Schema::new(vec![
            ColumnMeta::new("x", ColumnType::Float),
            ColumnMeta::new("s", ColumnType::Str),
        ]);
        // x ~ tight around 100 so sigma is small and outliers are obvious.
        Table::from_rows(
            schema,
            (0..100)
                .map(|i| {
                    vec![Value::Float(100.0 + (i % 7) as f64 * 0.1), Value::str(format!("v{i}"))]
                })
                .collect(),
        )
    }

    #[test]
    fn outliers_are_far_from_the_mean() {
        let t = table();
        let degree = 4.0;
        let inj = inject_outliers(&t, &[0], 0.1, degree, 3);
        assert_eq!(inj.cells.count(), 10);
        let (mean, std) = column_stats(&t, 0).unwrap();
        for c in inj.cells.iter() {
            let v = inj.table.cell(c.row, c.col).as_f64().unwrap();
            let z = (v - mean).abs() / std;
            assert!(z >= degree - 1e-9, "z = {z}");
        }
        assert_eq!(diff_mask(&t, &inj.table), inj.cells);
    }

    #[test]
    fn outlier_degree_scales_distance() {
        let t = table();
        let (mean, std) = column_stats(&t, 0).unwrap();
        let z_of = |degree: f64| {
            let inj = inject_outliers(&t, &[0], 0.2, degree, 5);
            inj.cells
                .iter()
                .map(|c| (inj.table.cell(c.row, c.col).as_f64().unwrap() - mean).abs() / std)
                .fold(f64::INFINITY, f64::min)
        };
        assert!(z_of(8.0) > z_of(2.0));
    }

    #[test]
    fn gaussian_noise_changes_cells_but_stays_close() {
        let t = table();
        let inj = inject_gaussian_noise(&t, &[0], 0.2, 0.5, 9);
        assert_eq!(inj.cells.count(), 20);
        let (_, std) = column_stats(&t, 0).unwrap();
        for c in inj.cells.iter() {
            let v = inj.table.cell(c.row, c.col).as_f64().unwrap();
            let orig = t.cell(c.row, c.col).as_f64().unwrap();
            assert_ne!(v, orig);
            assert!((v - orig).abs() < 5.0 * std, "noise too large");
        }
        assert_eq!(diff_mask(&t, &inj.table), inj.cells);
    }

    #[test]
    fn string_columns_are_ignored() {
        let t = table();
        assert!(inject_outliers(&t, &[1], 0.5, 3.0, 1).cells.is_empty());
        assert!(inject_gaussian_noise(&t, &[1], 0.5, 1.0, 1).cells.is_empty());
    }

    #[test]
    fn deterministic_by_seed() {
        let t = table();
        assert_eq!(
            inject_outliers(&t, &[0], 0.1, 3.0, 42).table,
            inject_outliers(&t, &[0], 0.1, 3.0, 42).table
        );
    }
}
