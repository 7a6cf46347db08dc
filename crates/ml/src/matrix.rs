//! Small dense matrices and the solver used by ridge regression.

use std::fmt;

/// A small, dense, row-major matrix of `f64`.
///
/// The sizes in this workspace are tiny (at most a few hundred rows and a few dozen
/// columns), so the implementation optimises for clarity over speed.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a zero matrix of the given shape.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from rows.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or ragged.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        assert!(!rows.is_empty(), "matrix must have at least one row");
        let cols = rows[0].len();
        assert!(cols > 0, "matrix must have at least one column");
        assert!(
            rows.iter().all(|r| r.len() == cols),
            "all rows must have the same width"
        );
        Self {
            rows: rows.len(),
            cols,
            data: rows.iter().flat_map(|r| r.iter().copied()).collect(),
        }
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// This is the allocation-friendly constructor the training paths use: the
    /// caller assembles every feature row back to back into one `Vec` (e.g.
    /// via the `*_into` feature builders) and hands the buffer over without a
    /// per-row allocation.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or `data.len() != rows * cols`.
    pub fn from_flat(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        assert_eq!(
            data.len(),
            rows * cols,
            "flat buffer length must equal rows * cols"
        );
        Self { rows, cols, data }
    }

    /// Hands back the flat row-major buffer (the inverse of
    /// [`Matrix::from_flat`]), so a caller can refill its storage for the
    /// next matrix instead of allocating a new one.
    pub fn into_flat(self) -> Vec<f64> {
        self.data
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// One row as a contiguous slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The element at `(row, col)` without the tuple-index sugar (handy in
    /// tight loops where the optimiser benefits from the explicit form).
    #[inline]
    pub fn at(&self, row: usize, col: usize) -> f64 {
        self.data[row * self.cols + col]
    }

    /// The transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions do not match.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "inner dimensions must match");
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..rhs.cols {
                    out[(i, j)] += a * rhs[(k, j)];
                }
            }
        }
        out
    }

    /// Matrix–vector product `self * v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "vector length must match columns");
        (0..self.rows)
            .map(|i| (0..self.cols).map(|j| self[(i, j)] * v[j]).sum())
            .collect()
    }

    /// Adds `value` to every diagonal element (in place); used for L2 regularisation.
    pub fn add_diagonal(&mut self, value: f64) {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            self[(i, i)] += value;
        }
    }

    /// Solves `self * x = b` for a square system using Gaussian elimination with partial
    /// pivoting.  Returns `None` if the system is (numerically) singular.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square or `b.len()` does not match.
    pub fn solve(&self, b: &[f64]) -> Option<Vec<f64>> {
        assert_eq!(self.rows, self.cols, "solve requires a square matrix");
        assert_eq!(b.len(), self.rows, "right-hand side length must match");
        let n = self.rows;
        let mut a = self.data.clone();
        let mut x = b.to_vec();
        for col in 0..n {
            // Partial pivoting.
            let pivot_row = (col..n)
                .max_by(|&r1, &r2| {
                    a[r1 * n + col]
                        .abs()
                        .partial_cmp(&a[r2 * n + col].abs())
                        .expect("finite values")
                })
                .expect("non-empty range");
            let pivot = a[pivot_row * n + col];
            if pivot.abs() < 1e-12 {
                return None;
            }
            if pivot_row != col {
                for j in 0..n {
                    a.swap(col * n + j, pivot_row * n + j);
                }
                x.swap(col, pivot_row);
            }
            for row in (col + 1)..n {
                let factor = a[row * n + col] / a[col * n + col];
                if factor == 0.0 {
                    continue;
                }
                for j in col..n {
                    a[row * n + j] -= factor * a[col * n + j];
                }
                x[row] -= factor * x[col];
            }
        }
        // Back substitution.
        for col in (0..n).rev() {
            let mut acc = x[col];
            for j in (col + 1)..n {
                acc -= a[col * n + j] * x[j];
            }
            x[col] = acc / a[col * n + col];
        }
        Some(x)
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                write!(f, "{:>10.4} ", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn identity_solve_returns_rhs() {
        let m = Matrix::identity(4);
        let b = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(m.solve(&b).unwrap(), b);
    }

    #[test]
    fn known_system_solves() {
        // 2x + y = 5 ; x + 3y = 10  -> x = 1, y = 3
        let m = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]);
        let x = m.solve(&[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-10);
        assert!((x[1] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn singular_system_returns_none() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert!(m.solve(&[1.0, 2.0]).is_none());
    }

    #[test]
    fn matmul_and_transpose_agree_with_hand_calc() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let at = a.transpose();
        let g = at.matmul(&a); // 2x2 Gram matrix
        assert!((g[(0, 0)] - 35.0).abs() < 1e-12);
        assert!((g[(0, 1)] - 44.0).abs() < 1e-12);
        assert!((g[(1, 1)] - 56.0).abs() < 1e-12);
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Matrix::from_rows(&[vec![1.0, -1.0, 2.0], vec![0.5, 3.0, 1.0]]);
        let v = vec![2.0, 1.0, -1.0];
        let got = a.matvec(&v);
        assert!((got[0] - (-1.0)).abs() < 1e-12);
        assert!((got[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn add_diagonal_only_touches_diagonal() {
        let mut m = Matrix::zeros(3, 3);
        m.add_diagonal(2.5);
        assert_eq!(m[(1, 1)], 2.5);
        assert_eq!(m[(0, 1)], 0.0);
    }

    proptest! {
        /// Solving a well-conditioned random SPD system reproduces the original vector.
        #[test]
        fn solve_roundtrip(seed_vals in proptest::collection::vec(-3.0f64..3.0, 9),
                           x_true in proptest::collection::vec(-5.0f64..5.0, 3)) {
            let base = Matrix::from_rows(&[
                seed_vals[0..3].to_vec(),
                seed_vals[3..6].to_vec(),
                seed_vals[6..9].to_vec(),
            ]);
            // A^T A + I is symmetric positive definite, hence solvable.
            let mut spd = base.transpose().matmul(&base);
            spd.add_diagonal(1.0);
            let b = spd.matvec(&x_true);
            let x = spd.solve(&b).expect("SPD system is solvable");
            for (got, want) in x.iter().zip(&x_true) {
                prop_assert!((got - want).abs() < 1e-6);
            }
        }
    }
}
