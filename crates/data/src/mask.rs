//! Cell masks: bitsets over the `rows × cols` cell grid.
//!
//! Detection results, injected-error ground truth and repair footprints are
//! all sets of cells; [`CellMask`] gives them compact storage and fast set
//! algebra (the IoU computations of §6.1 are pure mask intersections).

use serde::{Deserialize, Serialize};

use crate::table::CellRef;

/// A dense bitset over the cells of a `rows × cols` table.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CellMask {
    rows: usize,
    cols: usize,
    bits: Vec<u64>,
}

impl CellMask {
    /// An empty mask for a `rows × cols` grid.
    pub fn new(rows: usize, cols: usize) -> Self {
        let words = (rows * cols).div_ceil(64);
        Self { rows, cols, bits: vec![0; words] }
    }

    /// A mask with every cell set.
    pub fn full(rows: usize, cols: usize) -> Self {
        let mut m = Self::new(rows, cols);
        for i in 0..rows * cols {
            m.bits[i / 64] |= 1 << (i % 64);
        }
        m
    }

    /// Builds a mask from an iterator of cell references.
    pub fn from_cells(rows: usize, cols: usize, cells: impl IntoIterator<Item = CellRef>) -> Self {
        let mut m = Self::new(rows, cols);
        for c in cells {
            m.set(c.row, c.col, true);
        }
        m
    }

    /// Grid height.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Grid width.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Whether this is a well-formed mask of a `rows × cols` grid: those
    /// dimensions, exactly the words they need and no bit set past the
    /// last cell. A deserialized mask can claim any shape over any words;
    /// only one that passes is safe to index or combine with the grid's
    /// other masks.
    pub fn has_shape(&self, rows: usize, cols: usize) -> bool {
        let cells = rows * cols;
        let padding_clear = match (cells % 64, self.bits.last()) {
            (0, _) | (_, None) => true,
            (used, Some(&last)) => last >> used == 0,
        };
        self.rows == rows
            && self.cols == cols
            && self.bits.len() == cells.div_ceil(64)
            && padding_clear
    }

    fn idx(&self, row: usize, col: usize) -> usize {
        debug_assert!(row < self.rows && col < self.cols, "cell ({row},{col}) out of bounds");
        row * self.cols + col
    }

    /// Whether cell `(row, col)` is set.
    pub fn get(&self, row: usize, col: usize) -> bool {
        let i = self.idx(row, col);
        self.bits[i / 64] >> (i % 64) & 1 == 1
    }

    /// Sets or clears cell `(row, col)`.
    pub fn set(&mut self, row: usize, col: usize, on: bool) {
        let i = self.idx(row, col);
        if on {
            self.bits[i / 64] |= 1 << (i % 64);
        } else {
            self.bits[i / 64] &= !(1 << (i % 64));
        }
    }

    /// Sets every cell of `row`.
    pub fn set_row(&mut self, row: usize, on: bool) {
        for c in 0..self.cols {
            self.set(row, c, on);
        }
    }

    /// Sets every cell of `col`.
    pub fn set_col(&mut self, col: usize, on: bool) {
        for r in 0..self.rows {
            self.set(r, col, on);
        }
    }

    /// Number of set cells.
    pub fn count(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether no cell is set.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    /// Iterates over set cells in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = CellRef> + '_ {
        self.bits
            .iter()
            .enumerate()
            .flat_map(move |(w, &word)| {
                let mut word = word;
                std::iter::from_fn(move || {
                    if word == 0 {
                        return None;
                    }
                    let bit = word.trailing_zeros() as usize;
                    word &= word - 1;
                    Some(w * 64 + bit)
                })
            })
            .filter(move |&i| i < self.rows * self.cols)
            .map(move |i| CellRef::new(i / self.cols, i % self.cols))
    }

    /// Rows that contain at least one set cell.
    pub fn dirty_rows(&self) -> Vec<usize> {
        let mut rows: Vec<usize> = self.iter().map(|c| c.row).collect();
        rows.dedup();
        rows
    }

    /// Number of set cells within column `col`.
    pub fn count_col(&self, col: usize) -> usize {
        (0..self.rows).filter(|&r| self.get(r, col)).count()
    }

    fn check_dims(&self, other: &CellMask) {
        assert!(
            self.rows == other.rows && self.cols == other.cols,
            "mask dimension mismatch: {}x{} vs {}x{}",
            self.rows,
            self.cols,
            other.rows,
            other.cols
        );
    }

    /// Set union.
    pub fn union(&self, other: &CellMask) -> CellMask {
        self.check_dims(other);
        let bits = self.bits.iter().zip(&other.bits).map(|(a, b)| a | b).collect();
        CellMask { rows: self.rows, cols: self.cols, bits }
    }

    /// Set intersection.
    pub fn intersect(&self, other: &CellMask) -> CellMask {
        self.check_dims(other);
        let bits = self.bits.iter().zip(&other.bits).map(|(a, b)| a & b).collect();
        CellMask { rows: self.rows, cols: self.cols, bits }
    }

    /// Set difference (`self \ other`).
    pub fn difference(&self, other: &CellMask) -> CellMask {
        self.check_dims(other);
        let bits = self.bits.iter().zip(&other.bits).map(|(a, b)| a & !b).collect();
        CellMask { rows: self.rows, cols: self.cols, bits }
    }

    /// In-place union.
    pub fn union_with(&mut self, other: &CellMask) {
        self.check_dims(other);
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a |= b;
        }
    }

    /// Restricts the mask to the given columns (clears all others).
    pub fn restrict_to_columns(&self, cols: &[usize]) -> CellMask {
        let mut m = CellMask::new(self.rows, self.cols);
        for c in self.iter() {
            if cols.contains(&c.col) {
                m.set(c.row, c.col, true);
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_count() {
        let mut m = CellMask::new(3, 4);
        assert!(m.is_empty());
        m.set(0, 0, true);
        m.set(2, 3, true);
        assert!(m.get(0, 0));
        assert!(m.get(2, 3));
        assert!(!m.get(1, 1));
        assert_eq!(m.count(), 2);
        m.set(0, 0, false);
        assert_eq!(m.count(), 1);
    }

    #[test]
    fn full_mask_counts_all_cells() {
        let m = CellMask::full(5, 7);
        assert_eq!(m.count(), 35);
        assert!(m.get(4, 6));
    }

    #[test]
    fn iter_is_row_major_and_complete() {
        let mut m = CellMask::new(2, 3);
        m.set(1, 0, true);
        m.set(0, 2, true);
        let cells: Vec<CellRef> = m.iter().collect();
        assert_eq!(cells, vec![CellRef::new(0, 2), CellRef::new(1, 0)]);
    }

    #[test]
    fn iter_handles_word_boundary() {
        // 70 cells > one u64 word.
        let mut m = CellMask::new(7, 10);
        m.set(6, 9, true); // index 69, second word
        m.set(0, 0, true);
        assert_eq!(m.iter().count(), 2);
        assert_eq!(m.count(), 2);
    }

    #[test]
    fn set_algebra() {
        let mut a = CellMask::new(2, 2);
        a.set(0, 0, true);
        a.set(0, 1, true);
        let mut b = CellMask::new(2, 2);
        b.set(0, 1, true);
        b.set(1, 1, true);
        assert_eq!(a.union(&b).count(), 3);
        assert_eq!(a.intersect(&b).count(), 1);
        assert!(a.intersect(&b).get(0, 1));
        assert_eq!(a.difference(&b).count(), 1);
        assert!(a.difference(&b).get(0, 0));
        let mut c = a.clone();
        c.union_with(&b);
        assert_eq!(c, a.union(&b));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mismatched_dims_panic() {
        let _ = CellMask::new(2, 2).union(&CellMask::new(3, 2));
    }

    #[test]
    fn row_and_col_helpers() {
        let mut m = CellMask::new(3, 3);
        m.set_row(1, true);
        assert_eq!(m.count(), 3);
        m.set_col(0, true);
        assert_eq!(m.count(), 5);
        assert_eq!(m.count_col(0), 3);
        assert_eq!(m.dirty_rows(), vec![0, 1, 2]);
    }

    #[test]
    fn restrict_to_columns_clears_others() {
        let m = CellMask::full(2, 3).restrict_to_columns(&[1]);
        assert_eq!(m.count(), 2);
        assert!(m.get(0, 1) && m.get(1, 1));
        assert!(!m.get(0, 0));
    }

    #[test]
    fn from_cells_builder() {
        let m = CellMask::from_cells(2, 2, [CellRef::new(1, 1), CellRef::new(0, 0)]);
        assert_eq!(m.count(), 2);
        assert!(m.get(1, 1));
    }

    #[test]
    fn has_shape_rejects_deserialized_masks_of_another_grid() {
        for (rows, cols) in [(0, 0), (1, 1), (75, 6), (8, 8), (13, 5)] {
            assert!(CellMask::new(rows, cols).has_shape(rows, cols), "{rows}x{cols}");
            assert!(CellMask::full(rows, cols).has_shape(rows, cols), "{rows}x{cols}");
        }
        let parse = |json: &str| serde_json::from_str::<CellMask>(json).unwrap();
        assert!(!parse(r#"{"rows":1,"cols":1,"bits":[0]}"#).has_shape(75, 6));
        assert!(!parse(r#"{"rows":6,"cols":75,"bits":[0,0,0,0,0,0,0,0]}"#).has_shape(75, 6));
        // 450 cells need 8 words: one short and one extra are both refused.
        assert!(!parse(r#"{"rows":75,"cols":6,"bits":[0,0,0,0,0,0,0]}"#).has_shape(75, 6));
        assert!(!parse(r#"{"rows":75,"cols":6,"bits":[0,0,0,0,0,0,0,0,0]}"#).has_shape(75, 6));
        // A bit past the last of the 450 cells.
        assert!(!parse(r#"{"rows":75,"cols":6,"bits":[0,0,0,0,0,0,0,4]}"#).has_shape(75, 6));
        assert!(parse(r#"{"rows":75,"cols":6,"bits":[0,0,0,0,0,0,0,3]}"#).has_shape(75, 6));
    }
}
