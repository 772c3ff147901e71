//! Minimal dense linear algebra for the model zoo.
//!
//! A flat row-major [`Matrix`] plus the handful of kernels the models need:
//! matrix–vector and matrix–matrix products, transpose, and a
//! Cholesky-based SPD solver (with a ridge fallback) for the closed-form
//! linear models. Flat storage keeps hot loops allocation-free, per the
//! perf-book guidance.

/// Dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    data: Vec<f64>,
    rows: usize,
    cols: usize,
}

impl Matrix {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { data: vec![0.0; rows * cols], rows, cols }
    }

    /// Builds from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics when `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer size mismatch");
        Self { data, rows, cols }
    }

    /// Builds from row slices.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Self { data, rows: r, cols: c }
    }

    /// Identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row `r` as a slice.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row `r`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The underlying flat buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The underlying flat buffer, mutably.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[(c, r)] = self[(r, c)];
            }
        }
        out
    }

    /// Matrix product `self × other`.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul dimension mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        // ikj order: stream through `other` rows for cache locality.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                let orow = other.row(k);
                let out_row = out.row_mut(i);
                for (o, &b) in out_row.iter_mut().zip(orow) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Matrix–vector product.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(self.cols, v.len(), "matvec dimension mismatch");
        (0..self.rows).map(|r| dot(self.row(r), v)).collect()
    }

    /// `Xᵀ X` (Gram matrix), exploiting symmetry.
    pub fn gram(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.cols);
        for i in 0..self.rows {
            let row = self.row(i);
            for a in 0..self.cols {
                let ra = row[a];
                if ra == 0.0 {
                    continue;
                }
                for b in a..self.cols {
                    out[(a, b)] += ra * row[b];
                }
            }
        }
        for a in 0..self.cols {
            for b in 0..a {
                out[(a, b)] = out[(b, a)];
            }
        }
        out
    }

    /// `Xᵀ y`.
    pub fn t_vec(&self, y: &[f64]) -> Vec<f64> {
        assert_eq!(self.rows, y.len(), "t_vec dimension mismatch");
        let mut out = vec![0.0; self.cols];
        for i in 0..self.rows {
            let yi = y[i];
            if yi == 0.0 {
                continue;
            }
            for (o, &x) in out.iter_mut().zip(self.row(i)) {
                *o += x * yi;
            }
        }
        out
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        &mut self.data[r * self.cols + c]
    }
}

/// Index of the first maximum (ties resolve to the lowest index, matching
/// scikit-learn's argmax semantics); 0 on an empty slice.
pub fn argmax(xs: &[f64]) -> usize {
    let mut best = 0usize;
    for (i, &v) in xs.iter().enumerate().skip(1) {
        if v > xs[best] {
            best = i;
        }
    }
    best
}

/// Dot product.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Squared Euclidean distance.
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Euclidean distance.
pub fn euclid(a: &[f64], b: &[f64]) -> f64 {
    sq_dist(a, b).sqrt()
}

/// Solves the SPD system `A x = b` by Cholesky decomposition, adding
/// progressively larger ridge terms on the diagonal until the
/// factorisation succeeds (handles rank-deficient design matrices).
///
/// Returns `None` only if the system stays unsolvable after the largest
/// ridge (pathological NaN/Inf input).
pub fn solve_spd(a: &Matrix, b: &[f64]) -> Option<Vec<f64>> {
    assert_eq!(a.rows(), a.cols(), "solve_spd needs a square matrix");
    assert_eq!(a.rows(), b.len(), "rhs length mismatch");
    let n = a.rows();
    let mut ridge = 0.0;
    for attempt in 0..8 {
        if attempt > 0 {
            let scale = (0..n).map(|i| a[(i, i)].abs()).fold(1e-12, f64::max);
            ridge = scale * 10f64.powi(attempt - 9); // 1e-8 … 1e-1 of scale
        }
        if let Some(l) = cholesky(a, ridge) {
            return Some(cholesky_solve(&l, b));
        }
    }
    None
}

/// Lower-triangular Cholesky factor of `a + ridge·I`, or `None` when the
/// matrix (with ridge) is not positive definite.
fn cholesky(a: &Matrix, ridge: f64) -> Option<Matrix> {
    let n = a.rows();
    let mut l = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a[(i, j)] + if i == j { ridge } else { 0.0 };
            for k in 0..j {
                sum -= l[(i, k)] * l[(j, k)];
            }
            if i == j {
                if sum <= 0.0 || !sum.is_finite() {
                    return None;
                }
                l[(i, j)] = sum.sqrt();
            } else {
                l[(i, j)] = sum / l[(j, j)];
            }
        }
    }
    Some(l)
}

/// Solves `L Lᵀ x = b` given the Cholesky factor `L`.
fn cholesky_solve(l: &Matrix, b: &[f64]) -> Vec<f64> {
    let n = l.rows();
    // Forward: L y = b
    let mut y = vec![0.0; n];
    for i in 0..n {
        let mut sum = b[i];
        for k in 0..i {
            sum -= l[(i, k)] * y[k];
        }
        y[i] = sum / l[(i, i)];
    }
    // Backward: Lᵀ x = y
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut sum = y[i];
        for k in i + 1..n {
            sum -= l[(k, i)] * x[k];
        }
        x[i] = sum / l[(i, i)];
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.row(0), &[19.0, 22.0]);
        assert_eq!(c.row(1), &[43.0, 50.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().row(0), &[1.0, 4.0]);
    }

    #[test]
    fn gram_equals_xtx() {
        let x = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let g = x.gram();
        let xtx = x.transpose().matmul(&x);
        for i in 0..2 {
            for j in 0..2 {
                assert!((g[(i, j)] - xtx[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn matvec_and_tvec() {
        let x = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(x.matvec(&[1.0, 1.0]), vec![3.0, 7.0]);
        assert_eq!(x.t_vec(&[1.0, 1.0]), vec![4.0, 6.0]);
    }

    #[test]
    fn solve_spd_recovers_solution() {
        // A = [[4,1],[1,3]], x = [1, 2] -> b = [6, 7]
        let a = Matrix::from_rows(&[vec![4.0, 1.0], vec![1.0, 3.0]]);
        let x = solve_spd(&a, &[6.0, 7.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-10);
        assert!((x[1] - 2.0).abs() < 1e-10);
    }

    #[test]
    fn solve_spd_handles_singular_with_ridge() {
        // Rank-1 matrix: exact solve impossible, ridge fallback returns
        // a finite least-norm-ish solution.
        let a = Matrix::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0]]);
        let x = solve_spd(&a, &[2.0, 2.0]).unwrap();
        assert!(x.iter().all(|v| v.is_finite()));
        // Residual small relative to b.
        let r0 = a.matvec(&x)[0] - 2.0;
        assert!(r0.abs() < 0.1, "residual {r0}");
    }

    #[test]
    fn distances() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(sq_dist(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(euclid(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matmul_dim_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
