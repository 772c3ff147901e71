//! Missing-value injection: explicit NULLs, implicit placeholders, and
//! disguised values (the FAHES target, e.g. `999999` in a phone column).

use rand::prelude::*;
use rand::rngs::StdRng;
use rein_data::{CellMask, Table, Value};

use crate::common::{cells_of_columns, pick_cells, Injection};

/// Placeholder spellings used for implicit missing values, as produced by
/// the `error-generator` library the paper uses.
pub const IMPLICIT_TOKENS: [&str; 5] = ["?", "unknown", "-", "N/A", "missing"];

/// Disguised numeric sentinels (FAHES's motivating examples).
pub const DISGUISED_NUMBERS: [i64; 4] = [99999, 999999, -1, 0];

/// Replaces `rate` of the non-null cells in `cols` with explicit NULLs.
pub fn inject_explicit_missing(table: &Table, cols: &[usize], rate: f64, seed: u64) -> Injection {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = table.clone();
    let mut mask = CellMask::new(table.n_rows(), table.n_cols());
    for cell in pick_cells(&cells_of_columns(table, cols), rate, &mut rng) {
        out.set_cell(cell.row, cell.col, Value::Null);
        mask.set(cell.row, cell.col, true);
    }
    Injection { table: out, cells: mask }
}

/// Replaces `rate` of the non-null cells in `cols` with implicit
/// missing-value placeholders (`"?"`, `"unknown"`, …).
pub fn inject_implicit_missing(table: &Table, cols: &[usize], rate: f64, seed: u64) -> Injection {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = table.clone();
    let mut mask = CellMask::new(table.n_rows(), table.n_cols());
    for cell in pick_cells(&cells_of_columns(table, cols), rate, &mut rng) {
        #[expect(clippy::expect_used, reason = "IMPLICIT_TOKENS is a non-empty const array")]
        let token = *IMPLICIT_TOKENS.choose(&mut rng).expect("non-empty");
        out.set_cell(cell.row, cell.col, Value::str(token));
        mask.set(cell.row, cell.col, true);
    }
    Injection { table: out, cells: mask }
}

/// Replaces `rate` of the non-null *numeric* cells in `cols` with disguised
/// sentinels (`999999`, `-1`, …) that sit inside the column's domain type
/// but outside its plausible range.
pub fn inject_disguised_missing(table: &Table, cols: &[usize], rate: f64, seed: u64) -> Injection {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = table.clone();
    let mut mask = CellMask::new(table.n_rows(), table.n_cols());
    let candidates: Vec<_> = cells_of_columns(table, cols)
        .into_iter()
        .filter(|c| table.cell(c.row, c.col).as_f64().is_some())
        .collect();
    for cell in pick_cells(&candidates, rate, &mut rng) {
        #[expect(clippy::expect_used, reason = "DISGUISED_NUMBERS is a non-empty const array")]
        let sentinel = *DISGUISED_NUMBERS.choose(&mut rng).expect("non-empty");
        // Avoid a no-op when the true value equals the sentinel.
        let current = table.cell(cell.row, cell.col).as_f64().unwrap_or(f64::NAN);
        let sentinel = if (current - sentinel as f64).abs() < f64::EPSILON {
            DISGUISED_NUMBERS[0]
        } else {
            sentinel
        };
        out.set_cell(cell.row, cell.col, Value::Int(sentinel));
        mask.set(cell.row, cell.col, true);
    }
    Injection { table: out, cells: mask }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rein_data::{diff::diff_mask, ColumnMeta, ColumnType, Schema};

    fn table() -> Table {
        let schema = Schema::new(vec![
            ColumnMeta::new("x", ColumnType::Float),
            ColumnMeta::new("s", ColumnType::Str),
        ]);
        Table::from_rows(
            schema,
            (0..40)
                .map(|i| vec![Value::Float(i as f64 + 0.5), Value::str(format!("v{i}"))])
                .collect(),
        )
    }

    #[test]
    fn explicit_nulls_land_where_reported() {
        let t = table();
        let inj = inject_explicit_missing(&t, &[0], 0.25, 7);
        assert_eq!(inj.cells.count(), 10);
        for c in inj.cells.iter() {
            assert!(inj.table.cell(c.row, c.col).is_null());
        }
        // The mask exactly matches the ground-truth diff.
        assert_eq!(diff_mask(&t, &inj.table), inj.cells);
    }

    #[test]
    fn implicit_tokens_are_strings() {
        let t = table();
        let inj = inject_implicit_missing(&t, &[0, 1], 0.1, 3);
        assert_eq!(inj.cells.count(), 8);
        for c in inj.cells.iter() {
            let v = inj.table.cell(c.row, c.col);
            assert!(IMPLICIT_TOKENS.contains(&v.to_string().as_str()), "value {v}");
        }
        assert_eq!(diff_mask(&t, &inj.table), inj.cells);
    }

    #[test]
    fn disguised_values_are_numeric_sentinels() {
        let t = table();
        let inj = inject_disguised_missing(&t, &[0], 0.2, 5);
        assert_eq!(inj.cells.count(), 8);
        for c in inj.cells.iter() {
            let v = inj.table.cell(c.row, c.col).as_i64().unwrap();
            assert!(DISGUISED_NUMBERS.contains(&v));
        }
        assert_eq!(diff_mask(&t, &inj.table), inj.cells);
    }

    #[test]
    fn disguised_skips_non_numeric_columns() {
        let t = table();
        let inj = inject_disguised_missing(&t, &[1], 0.5, 5);
        assert!(inj.cells.is_empty());
    }

    #[test]
    fn injection_is_deterministic() {
        let t = table();
        let a = inject_explicit_missing(&t, &[0, 1], 0.3, 11);
        let b = inject_explicit_missing(&t, &[0, 1], 0.3, 11);
        assert_eq!(a.table, b.table);
        assert_eq!(a.cells, b.cells);
    }

    #[test]
    fn zero_rate_changes_nothing() {
        let t = table();
        let inj = inject_explicit_missing(&t, &[0], 0.0, 1);
        assert!(inj.cells.is_empty());
        assert_eq!(inj.table, t);
    }
}
