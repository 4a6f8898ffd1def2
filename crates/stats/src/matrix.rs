//! A small dense, row-major matrix of `f64`.
//!
//! This is deliberately minimal: the only consumers are the OLS solver
//! ([`crate::ols`]) and the filters crate (Kalman covariance updates), which
//! need products, transposes, and solving small well-conditioned systems.
//! For the handful-of-features regressions UniLoc trains (2-4 regressors,
//! Table II of the paper), a textbook Cholesky / partially pivoted LU is both
//! faster and easier to audit than a general BLAS dependency.

use crate::{Result, StatsError};
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// Dense row-major matrix of `f64`.
///
/// # Examples
///
/// ```
/// use uniloc_stats::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
/// let b = a.transpose();
/// assert_eq!(b[(0, 1)], 3.0);
/// # Ok::<(), uniloc_stats::StatsError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

crate::impl_json_struct!(Matrix { rows, cols, data });

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `cols` is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::DimensionMismatch`] if rows have differing
    /// lengths, and [`StatsError::InsufficientData`] if `rows` is empty or
    /// rows are empty.
    pub fn from_rows<R: AsRef<[f64]>>(rows: &[R]) -> Result<Self> {
        if rows.is_empty() || rows[0].as_ref().is_empty() {
            return Err(StatsError::InsufficientData { got: 0, needed: 1 });
        }
        let cols = rows[0].as_ref().len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            let r = r.as_ref();
            if r.len() != cols {
                return Err(StatsError::DimensionMismatch {
                    context: "Matrix::from_rows",
                    got: (1, r.len()),
                    expected: (1, cols),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix { rows: rows.len(), cols, data })
    }

    /// Builds a single-column matrix from a slice.
    pub fn column(v: &[f64]) -> Result<Self> {
        if v.is_empty() {
            return Err(StatsError::InsufficientData { got: 0, needed: 1 });
        }
        Ok(Matrix { rows: v.len(), cols: 1, data: v.to_vec() })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Returns the `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrowed view of the underlying row-major storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Returns row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Returns `true` if every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[(c, r)] = self[(r, c)];
            }
        }
        out
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::DimensionMismatch`] when inner dimensions differ.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(StatsError::DimensionMismatch {
                context: "Matrix::matmul",
                got: (rhs.rows, rhs.cols),
                expected: (self.cols, rhs.cols),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                for j in 0..rhs.cols {
                    out[(i, j)] += aik * rhs[(k, j)];
                }
            }
        }
        Ok(out)
    }

    /// Computes `self^T * self`, the Gram matrix used by OLS.
    pub fn gram(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.cols);
        for i in 0..self.cols {
            for j in i..self.cols {
                let mut s = 0.0;
                for r in 0..self.rows {
                    s += self[(r, i)] * self[(r, j)];
                }
                out[(i, j)] = s;
                out[(j, i)] = s;
            }
        }
        out
    }

    /// Multiplies every entry by `k`.
    pub fn scale(&self, k: f64) -> Matrix {
        Matrix { rows: self.rows, cols: self.cols, data: self.data.iter().map(|v| v * k).collect() }
    }

    /// Solves `self * x = b` for square `self` using LU decomposition with
    /// partial pivoting.
    ///
    /// # Errors
    ///
    /// * [`StatsError::DimensionMismatch`] — `self` is not square or `b` has
    ///   the wrong number of rows.
    /// * [`StatsError::Singular`] — a pivot is (numerically) zero.
    pub fn solve(&self, b: &Matrix) -> Result<Matrix> {
        if self.rows != self.cols {
            return Err(StatsError::DimensionMismatch {
                context: "Matrix::solve (lhs must be square)",
                got: (self.rows, self.cols),
                expected: (self.rows, self.rows),
            });
        }
        if b.rows != self.rows {
            return Err(StatsError::DimensionMismatch {
                context: "Matrix::solve (rhs rows)",
                got: (b.rows, b.cols),
                expected: (self.rows, b.cols),
            });
        }
        let n = self.rows;
        let mut a = self.clone();
        let mut x = b.clone();
        // Forward elimination with partial pivoting.
        for col in 0..n {
            let mut pivot = col;
            let mut best = a[(col, col)].abs();
            for r in (col + 1)..n {
                let v = a[(r, col)].abs();
                if v > best {
                    best = v;
                    pivot = r;
                }
            }
            if best < 1e-12 {
                return Err(StatsError::Singular(col));
            }
            if pivot != col {
                for c in 0..n {
                    a.data.swap(col * n + c, pivot * n + c);
                }
                for c in 0..x.cols {
                    x.data.swap(col * x.cols + c, pivot * x.cols + c);
                }
            }
            let d = a[(col, col)];
            for r in (col + 1)..n {
                let f = a[(r, col)] / d;
                if f == 0.0 {
                    continue;
                }
                a[(r, col)] = 0.0;
                for c in (col + 1)..n {
                    let v = a[(col, c)];
                    a[(r, c)] -= f * v;
                }
                for c in 0..x.cols {
                    let v = x[(col, c)];
                    x[(r, c)] -= f * v;
                }
            }
        }
        // Back substitution.
        for col in (0..n).rev() {
            let d = a[(col, col)];
            for c in 0..x.cols {
                let mut s = x[(col, c)];
                for k in (col + 1)..n {
                    s -= a[(col, k)] * x[(k, c)];
                }
                x[(col, c)] = s / d;
            }
        }
        Ok(x)
    }

    /// Inverse of a square matrix.
    ///
    /// # Errors
    ///
    /// Same as [`Matrix::solve`].
    pub fn inverse(&self) -> Result<Matrix> {
        self.solve(&Matrix::identity(self.rows))
    }

    /// Cholesky factor `L` (lower-triangular, `self = L * L^T`) of a
    /// symmetric positive-definite matrix.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::Singular`] when the matrix is not positive
    /// definite (e.g. collinear regressors in OLS).
    pub fn cholesky(&self) -> Result<Matrix> {
        if self.rows != self.cols {
            return Err(StatsError::DimensionMismatch {
                context: "Matrix::cholesky",
                got: (self.rows, self.cols),
                expected: (self.rows, self.rows),
            });
        }
        let n = self.rows;
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut s = self[(i, j)];
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if s <= 1e-12 {
                        return Err(StatsError::Singular(i));
                    }
                    l[(i, j)] = s.sqrt();
                } else {
                    l[(i, j)] = s / l[(j, j)];
                }
            }
        }
        Ok(l)
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

impl Add for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "matrix addition shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&rhs.data).map(|(a, b)| a + b).collect(),
        }
    }
}

impl Sub for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "matrix subtraction shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&rhs.data).map(|(a, b)| a - b).collect(),
        }
    }
}

impl Mul for &Matrix {
    type Output = Matrix;

    /// Panicking operator form of [`Matrix::matmul`] for internal use where
    /// shapes are statically known.
    fn mul(self, rhs: &Matrix) -> Matrix {
        self.matmul(rhs).expect("matrix multiplication shape mismatch")
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            write!(f, "[")?;
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:10.4}", self[(r, c)])?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
        let i = Matrix::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
        assert_eq!(i[(2, 2)], 1.0);
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]).unwrap_err();
        assert!(matches!(err, StatsError::DimensionMismatch { .. }));
    }

    #[test]
    fn from_rows_rejects_empty() {
        let rows: Vec<Vec<f64>> = vec![];
        assert!(matches!(
            Matrix::from_rows(&rows).unwrap_err(),
            StatsError::InsufficientData { .. }
        ));
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0][..], &[4.0, 5.0, 6.0][..]]).unwrap();
        let t = a.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0][..], &[3.0, 4.0][..]]).unwrap();
        let b = Matrix::from_rows(&[&[5.0, 6.0][..], &[7.0, 8.0][..]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c[(0, 0)], 19.0);
        assert_eq!(c[(0, 1)], 22.0);
        assert_eq!(c[(1, 0)], 43.0);
        assert_eq!(c[(1, 1)], 50.0);
    }

    #[test]
    fn matmul_shape_error() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 2);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn gram_matches_explicit_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0][..], &[3.0, 4.0][..], &[5.0, 6.0][..]]).unwrap();
        let g = a.gram();
        let explicit = a.transpose().matmul(&a).unwrap();
        assert_eq!(g, explicit);
    }

    #[test]
    fn solve_identity_returns_rhs() {
        let i = Matrix::identity(3);
        let b = Matrix::column(&[1.0, -2.0, 0.5]).unwrap();
        let x = i.solve(&b).unwrap();
        assert_eq!(x, b);
    }

    #[test]
    fn solve_known_system() {
        // 2x + y = 5; x + 3y = 10 -> x = 1, y = 3
        let a = Matrix::from_rows(&[&[2.0, 1.0][..], &[1.0, 3.0][..]]).unwrap();
        let b = Matrix::column(&[5.0, 10.0]).unwrap();
        let x = a.solve(&b).unwrap();
        assert!((x[(0, 0)] - 1.0).abs() < 1e-12);
        assert!((x[(1, 0)] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Leading zero pivot forces a row swap.
        let a = Matrix::from_rows(&[&[0.0, 1.0][..], &[1.0, 0.0][..]]).unwrap();
        let b = Matrix::column(&[2.0, 3.0]).unwrap();
        let x = a.solve(&b).unwrap();
        assert!((x[(0, 0)] - 3.0).abs() < 1e-12);
        assert!((x[(1, 0)] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn solve_detects_singular() {
        let a = Matrix::from_rows(&[&[1.0, 2.0][..], &[2.0, 4.0][..]]).unwrap();
        let b = Matrix::column(&[1.0, 2.0]).unwrap();
        assert!(matches!(a.solve(&b).unwrap_err(), StatsError::Singular(_)));
    }

    #[test]
    fn inverse_times_self_is_identity() {
        let a = Matrix::from_rows(&[&[4.0, 7.0][..], &[2.0, 6.0][..]]).unwrap();
        let inv = a.inverse().unwrap();
        let prod = a.matmul(&inv).unwrap();
        let i = Matrix::identity(2);
        assert!((&prod - &i).norm() < 1e-12);
    }

    #[test]
    fn cholesky_reconstructs() {
        let a = Matrix::from_rows(&[&[4.0, 2.0][..], &[2.0, 3.0][..]]).unwrap();
        let l = a.cholesky().unwrap();
        let rec = l.matmul(&l.transpose()).unwrap();
        assert!((&rec - &a).norm() < 1e-12);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0][..], &[2.0, 1.0][..]]).unwrap();
        assert!(matches!(a.cholesky().unwrap_err(), StatsError::Singular(_)));
    }

    #[test]
    fn operators_add_sub() {
        let a = Matrix::from_rows(&[&[1.0, 2.0][..]]).unwrap();
        let b = Matrix::from_rows(&[&[3.0, 5.0][..]]).unwrap();
        let s = &a + &b;
        assert_eq!(s.row(0), &[4.0, 7.0]);
        let d = &b - &a;
        assert_eq!(d.row(0), &[2.0, 3.0]);
    }

    #[test]
    fn json_roundtrip() {
        let a = Matrix::from_rows(&[&[1.0, 2.0][..], &[3.0, 4.0][..]]).unwrap();
        let json = crate::json::to_string(&a);
        let back: Matrix = crate::json::from_str(&json).unwrap();
        assert_eq!(a, back);
    }

    #[test]
    fn solve_multiple_rhs_columns() {
        let a = Matrix::from_rows(&[&[3.0, 1.0][..], &[1.0, 2.0][..]]).unwrap();
        let mut b = Matrix::zeros(2, 2);
        // Columns: [5, 5] and [4, 3].
        b[(0, 0)] = 5.0;
        b[(1, 0)] = 5.0;
        b[(0, 1)] = 4.0;
        b[(1, 1)] = 3.0;
        let x = a.solve(&b).unwrap();
        let rec = a.matmul(&x).unwrap();
        assert!((&rec - &b).norm() < 1e-10);
    }

    #[test]
    fn cholesky_solve_agrees_with_lu_on_spd_system() {
        // SPD matrix from a Gram construction.
        let x = Matrix::from_rows(&[
            &[1.0, 2.0, 0.5][..],
            &[0.0, 1.0, 1.0][..],
            &[2.0, 0.0, 1.0][..],
            &[1.0, 1.0, 1.0][..],
        ])
        .unwrap();
        let g = x.gram();
        let b = Matrix::column(&[1.0, 2.0, 3.0]).unwrap();
        let lu = g.solve(&b).unwrap();
        // Reconstruct via Cholesky: L L^T x = b.
        let l = g.cholesky().unwrap();
        let y = l.solve(&b).unwrap();
        let chol = l.transpose().solve(&y).unwrap();
        assert!((&lu - &chol).norm() < 1e-8);
    }

    #[test]
    fn scale_and_norm() {
        let a = Matrix::from_rows(&[&[3.0, 4.0][..]]).unwrap();
        assert!((a.norm() - 5.0).abs() < 1e-12);
        let b = a.scale(2.0);
        assert!((b.norm() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn row_access_and_shape() {
        let a = Matrix::from_rows(&[&[1.0, 2.0][..], &[3.0, 4.0][..]]).unwrap();
        assert_eq!(a.row(1), &[3.0, 4.0]);
        assert_eq!(a.shape(), (2, 2));
        assert!(a.is_finite());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn row_out_of_bounds_panics() {
        Matrix::zeros(2, 2).row(5);
    }
}
