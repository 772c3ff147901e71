//! Columnar tables.

use serde::{Deserialize, Serialize};

use crate::schema::{ColumnType, Schema};
use crate::value::Value;

/// A cell address: `(row, column)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CellRef {
    /// Row index.
    pub row: usize,
    /// Column index.
    pub col: usize,
}

impl CellRef {
    /// Constructs a cell reference.
    pub fn new(row: usize, col: usize) -> Self {
        Self { row, col }
    }
}

/// An in-memory columnar table: a [`Schema`] plus one value vector per column.
///
/// Column-major storage keeps the per-attribute scans that dominate the
/// benchmark (outlier statistics, pattern profiling, imputation) cache
/// friendly, as recommended for analytical layouts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table {
    schema: Schema,
    columns: Vec<Vec<Value>>,
    n_rows: usize,
}

impl Table {
    /// Creates an empty table with the given schema.
    pub fn empty(schema: Schema) -> Self {
        let n = schema.len();
        Self { schema, columns: vec![Vec::new(); n], n_rows: 0 }
    }

    /// Builds a table from column vectors.
    ///
    /// # Panics
    /// Panics if the number of columns or their lengths disagree with the
    /// schema — table construction sites are all internal, so a mismatch is
    /// a bug, not a recoverable condition.
    pub fn from_columns(schema: Schema, columns: Vec<Vec<Value>>) -> Self {
        assert_eq!(schema.len(), columns.len(), "column count mismatch");
        let n_rows = columns.first().map_or(0, Vec::len);
        for (i, c) in columns.iter().enumerate() {
            assert_eq!(c.len(), n_rows, "column {i} has inconsistent length");
        }
        Self { schema, columns, n_rows }
    }

    /// Builds a table from row vectors.
    pub fn from_rows(schema: Schema, rows: Vec<Vec<Value>>) -> Self {
        let mut t = Table::empty(schema);
        for row in rows {
            t.push_row(row);
        }
        t
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.columns.len()
    }

    /// Total number of cells (`rows × cols`).
    pub fn n_cells(&self) -> usize {
        self.n_rows * self.n_cols()
    }

    /// Immutable view of column `col`.
    pub fn column(&self, col: usize) -> &[Value] {
        &self.columns[col]
    }

    /// The value at `(row, col)`.
    pub fn cell(&self, row: usize, col: usize) -> &Value {
        &self.columns[col][row]
    }

    /// Replaces the value at `(row, col)`.
    pub fn set_cell(&mut self, row: usize, col: usize, v: Value) {
        self.columns[col][row] = v;
    }

    /// Materialises row `row`.
    pub fn row(&self, row: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c[row].clone()).collect()
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if `row.len()` differs from the column count.
    pub fn push_row(&mut self, row: Vec<Value>) {
        assert_eq!(row.len(), self.columns.len(), "row arity mismatch");
        for (c, v) in self.columns.iter_mut().zip(row) {
            c.push(v);
        }
        self.n_rows += 1;
    }

    /// A new table containing only the rows at `indices`, in that order.
    /// Indices may repeat (used by bootstrap sampling).
    pub fn select_rows(&self, indices: &[usize]) -> Table {
        let columns =
            self.columns.iter().map(|c| indices.iter().map(|&i| c[i].clone()).collect()).collect();
        Table { schema: self.schema.clone(), columns, n_rows: indices.len() }
    }

    /// A new table containing only the columns at `indices`, in that order.
    pub fn select_columns(&self, indices: &[usize]) -> Table {
        let columns: Vec<Vec<Value>> = indices.iter().map(|&i| self.columns[i].clone()).collect();
        Table { schema: self.schema.select(indices), columns, n_rows: self.n_rows }
    }

    /// Numeric view of column `col`: `Some(x)` per cell when convertible.
    pub fn numeric_column(&self, col: usize) -> Vec<Option<f64>> {
        self.columns[col].iter().map(Value::as_f64).collect()
    }

    /// The finite numeric values present in column `col` (nulls and
    /// non-numeric cells skipped).
    pub fn numeric_values(&self, col: usize) -> Vec<f64> {
        self.columns[col].iter().filter_map(Value::as_f64).collect()
    }

    /// Distinct values of column `col` with their frequencies, most frequent
    /// first (ties broken by value order for determinism). Nulls excluded.
    pub fn value_counts(&self, col: usize) -> Vec<(Value, usize)> {
        let mut map: std::collections::BTreeMap<&Value, usize> = std::collections::BTreeMap::new();
        for v in &self.columns[col] {
            if !v.is_null() {
                *map.entry(v).or_insert(0) += 1;
            }
        }
        let mut out: Vec<(Value, usize)> = map.into_iter().map(|(v, n)| (v.clone(), n)).collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.total_cmp(&b.0)));
        out
    }

    /// The most frequent non-null value of column `col` (the mode).
    pub fn mode(&self, col: usize) -> Option<Value> {
        self.value_counts(col).into_iter().next().map(|(v, _)| v)
    }

    /// Infers the *observed* type of a column from its current values: the
    /// majority variant among non-null cells. Falls back to the declared
    /// type on an all-null column.
    pub fn observed_type(&self, col: usize) -> ColumnType {
        let mut counts = [0usize; 4]; // int, float, str, bool
        for v in &self.columns[col] {
            match v {
                Value::Int(_) => counts[0] += 1,
                Value::Float(_) => counts[1] += 1,
                Value::Str(_) => counts[2] += 1,
                Value::Bool(_) => counts[3] += 1,
                Value::Null => {}
            }
        }
        if counts.iter().all(|&c| c == 0) {
            return self.schema.column(col).ctype;
        }
        #[expect(clippy::unwrap_used, reason = "the range 0..4 is never empty")]
        let best = (0..4).max_by_key(|&i| counts[i]).unwrap();
        [ColumnType::Int, ColumnType::Float, ColumnType::Str, ColumnType::Bool][best]
    }

    /// Iterates over all cell addresses in row-major order.
    pub fn cell_refs(&self) -> impl Iterator<Item = CellRef> + '_ {
        let cols = self.n_cols();
        (0..self.n_rows).flat_map(move |r| (0..cols).map(move |c| CellRef::new(r, c)))
    }

    /// Vertically concatenates `other` below `self`.
    ///
    /// # Panics
    /// Panics on schema mismatch.
    pub fn vstack(&self, other: &Table) -> Table {
        assert_eq!(self.schema, other.schema, "vstack schema mismatch");
        let columns = self
            .columns
            .iter()
            .zip(&other.columns)
            .map(|(a, b)| {
                let mut v = a.clone();
                v.extend(b.iter().cloned());
                v
            })
            .collect();
        Table { schema: self.schema.clone(), columns, n_rows: self.n_rows + other.n_rows }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnMeta;

    fn schema() -> Schema {
        Schema::new(vec![
            ColumnMeta::new("a", ColumnType::Int),
            ColumnMeta::new("b", ColumnType::Str),
        ])
    }

    fn table() -> Table {
        Table::from_rows(
            schema(),
            vec![
                vec![Value::Int(1), Value::str("x")],
                vec![Value::Int(2), Value::str("y")],
                vec![Value::Int(3), Value::str("x")],
            ],
        )
    }

    #[test]
    fn construction_and_access() {
        let t = table();
        assert_eq!(t.n_rows(), 3);
        assert_eq!(t.n_cols(), 2);
        assert_eq!(t.n_cells(), 6);
        assert_eq!(t.cell(1, 0), &Value::Int(2));
        assert_eq!(t.row(2), vec![Value::Int(3), Value::str("x")]);
    }

    #[test]
    fn from_columns_matches_from_rows() {
        let by_cols = Table::from_columns(
            schema(),
            vec![
                vec![Value::Int(1), Value::Int(2), Value::Int(3)],
                vec![Value::str("x"), Value::str("y"), Value::str("x")],
            ],
        );
        assert_eq!(by_cols, table());
    }

    #[test]
    #[should_panic(expected = "inconsistent length")]
    fn ragged_columns_rejected() {
        Table::from_columns(
            schema(),
            vec![vec![Value::Int(1)], vec![Value::str("x"), Value::str("y")]],
        );
    }

    #[test]
    fn set_cell_mutates() {
        let mut t = table();
        t.set_cell(0, 1, Value::str("z"));
        assert_eq!(t.cell(0, 1), &Value::str("z"));
    }

    #[test]
    fn select_rows_allows_repeats() {
        let t = table().select_rows(&[2, 0, 0]);
        assert_eq!(t.n_rows(), 3);
        assert_eq!(t.cell(0, 0), &Value::Int(3));
        assert_eq!(t.cell(1, 0), &Value::Int(1));
        assert_eq!(t.cell(2, 0), &Value::Int(1));
    }

    #[test]
    fn select_columns_projects_schema() {
        let t = table().select_columns(&[1]);
        assert_eq!(t.n_cols(), 1);
        assert_eq!(t.schema().column(0).name, "b");
        assert_eq!(t.cell(0, 0), &Value::str("x"));
    }

    #[test]
    fn mode_and_value_counts() {
        let t = table();
        assert_eq!(t.mode(1), Some(Value::str("x")));
        let counts = t.value_counts(1);
        assert_eq!(counts[0], (Value::str("x"), 2));
        assert_eq!(counts[1], (Value::str("y"), 1));
    }

    #[test]
    fn numeric_views_skip_nulls() {
        let mut t = table();
        t.set_cell(1, 0, Value::Null);
        assert_eq!(t.numeric_values(0), vec![1.0, 3.0]);
        assert_eq!(t.numeric_column(0), vec![Some(1.0), None, Some(3.0)]);
    }

    #[test]
    fn observed_type_follows_majority() {
        let mut t = table();
        assert_eq!(t.observed_type(0), ColumnType::Int);
        t.set_cell(0, 0, Value::str("oops"));
        t.set_cell(1, 0, Value::str("bad"));
        assert_eq!(t.observed_type(0), ColumnType::Str);
    }

    #[test]
    fn vstack_appends_rows() {
        let t = table().vstack(&table());
        assert_eq!(t.n_rows(), 6);
        assert_eq!(t.cell(3, 0), &Value::Int(1));
    }

    #[test]
    fn cell_refs_enumerate_all_cells() {
        let refs: Vec<CellRef> = table().cell_refs().collect();
        assert_eq!(refs.len(), 6);
        assert_eq!(refs[0], CellRef::new(0, 0));
        assert_eq!(refs[5], CellRef::new(2, 1));
    }
}
