//! The dense matrix type and its constructors/accessors.

use crate::{MatrixError, Result};
use matlang_semiring::{ApproxEq, Semiring};
use std::fmt;

/// A dense, row-major matrix over a commutative semiring `K`.
///
/// Shapes are `(rows, cols)`; vectors are `n × 1` matrices and scalars are
/// `1 × 1` matrices, exactly as in the paper's typing discipline.
#[derive(Clone, PartialEq)]
pub struct Matrix<K> {
    rows: usize,
    cols: usize,
    data: Vec<K>,
}

impl<K: Semiring> Matrix<K> {
    /// Creates a matrix from row-major data.  Fails if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<K>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(MatrixError::BadConstruction {
                message: format!(
                    "expected {} entries for a {}x{} matrix, got {}",
                    rows * cols,
                    rows,
                    cols,
                    data.len()
                ),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix from nested rows.  Fails on ragged input.
    pub fn from_rows(rows: Vec<Vec<K>>) -> Result<Self> {
        let nrows = rows.len();
        let ncols = rows.first().map(|r| r.len()).unwrap_or(0);
        if rows.iter().any(|r| r.len() != ncols) {
            return Err(MatrixError::BadConstruction {
                message: "ragged rows".to_string(),
            });
        }
        let data = rows.into_iter().flatten().collect();
        Matrix::from_vec(nrows, ncols, data)
    }

    /// Creates a matrix from float entries, injecting each via
    /// [`Semiring::from_f64`].  Convenient in tests and examples.
    pub fn from_f64_rows(rows: &[&[f64]]) -> Result<Self> {
        let converted = rows
            .iter()
            .map(|r| r.iter().map(|&v| K::from_f64(v)).collect())
            .collect();
        Matrix::from_rows(converted)
    }

    /// The `rows × cols` zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![K::zero(); rows * cols],
        }
    }

    /// The `rows × cols` all-ones matrix (paper notation `1`, Section 6.2).
    pub fn all_ones(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![K::one(); rows * cols],
        }
    }

    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, K::one()).expect("identity index in bounds");
        }
        m
    }

    /// The `n × 1` ones (column) vector — the paper's `1(e)` result.
    pub fn ones_vector(n: usize) -> Self {
        Matrix::all_ones(n, 1)
    }

    /// The `i`-th canonical (column) vector `bᵢⁿ` of dimension `n`
    /// (1-indexed in the paper, 0-indexed here: `canonical(n, 0) = b₁ⁿ`).
    pub fn canonical(n: usize, i: usize) -> Result<Self> {
        if i >= n {
            return Err(MatrixError::IndexOutOfBounds {
                row: i,
                col: 0,
                shape: (n, 1),
            });
        }
        let mut m = Matrix::zeros(n, 1);
        m.set(i, 0, K::one())?;
        Ok(m)
    }

    /// A `1 × 1` matrix holding a single value.
    pub fn scalar(value: K) -> Self {
        Matrix {
            rows: 1,
            cols: 1,
            data: vec![value],
        }
    }

    /// The shape `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Whether this is a column vector (`n × 1`).
    pub fn is_vector(&self) -> bool {
        self.cols == 1
    }

    /// Whether this is a `1 × 1` matrix.
    pub fn is_scalar(&self) -> bool {
        self.rows == 1 && self.cols == 1
    }

    /// Whether this matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow the entry at `(row, col)`.
    pub fn get(&self, row: usize, col: usize) -> Result<&K> {
        if row >= self.rows || col >= self.cols {
            return Err(MatrixError::IndexOutOfBounds {
                row,
                col,
                shape: self.shape(),
            });
        }
        Ok(&self.data[row * self.cols + col])
    }

    /// Set the entry at `(row, col)`.
    pub fn set(&mut self, row: usize, col: usize, value: K) -> Result<()> {
        if row >= self.rows || col >= self.cols {
            return Err(MatrixError::IndexOutOfBounds {
                row,
                col,
                shape: self.shape(),
            });
        }
        self.data[row * self.cols + col] = value;
        Ok(())
    }

    /// The value of a `1 × 1` matrix.
    pub fn as_scalar(&self) -> Result<K> {
        if !self.is_scalar() {
            return Err(MatrixError::NotAScalar {
                shape: self.shape(),
            });
        }
        Ok(self.data[0].clone())
    }

    /// Row-major access to the raw entries.
    pub fn entries(&self) -> &[K] {
        &self.data
    }

    /// Row-major access to the raw entries, for in-place kernels.
    pub(crate) fn entries_mut(&mut self) -> &mut [K] {
        &mut self.data
    }

    /// Iterate over `(row, col, value)` triples in row-major order.
    pub fn iter_entries(&self) -> impl Iterator<Item = (usize, usize, &K)> + '_ {
        let cols = self.cols;
        self.data
            .iter()
            .enumerate()
            .map(move |(idx, v)| (idx / cols, idx % cols, v))
    }

    /// Extract row `i` as a `1 × cols` matrix.
    pub fn row(&self, i: usize) -> Result<Matrix<K>> {
        if i >= self.rows {
            return Err(MatrixError::IndexOutOfBounds {
                row: i,
                col: 0,
                shape: self.shape(),
            });
        }
        let data = self.data[i * self.cols..(i + 1) * self.cols].to_vec();
        Matrix::from_vec(1, self.cols, data)
    }

    /// Extract column `j` as a `rows × 1` matrix.
    pub fn column(&self, j: usize) -> Result<Matrix<K>> {
        if j >= self.cols {
            return Err(MatrixError::IndexOutOfBounds {
                row: 0,
                col: j,
                shape: self.shape(),
            });
        }
        let data = (0..self.rows)
            .map(|i| self.data[i * self.cols + j].clone())
            .collect();
        Matrix::from_vec(self.rows, 1, data)
    }

    /// Apply a function to every entry, producing a new matrix.
    pub fn map<F: Fn(&K) -> K>(&self, f: F) -> Matrix<K> {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(f).collect(),
        }
    }

    /// Pointwise combination of `k ≥ 1` same-shaped matrices via `f`, the
    /// semantics of MATLANG's `f(e₁, …, e_k)` operator.
    pub fn zip_with<F: Fn(&[K]) -> K>(matrices: &[&Matrix<K>], f: F) -> Result<Matrix<K>> {
        let first = matrices
            .first()
            .ok_or_else(|| MatrixError::BadConstruction {
                message: "pointwise application requires at least one argument".to_string(),
            })?;
        let shape = first.shape();
        for m in matrices {
            if m.shape() != shape {
                return Err(MatrixError::ShapeMismatch {
                    left: shape,
                    right: m.shape(),
                    op: "pointwise function application",
                });
            }
        }
        let mut data = Vec::with_capacity(shape.0 * shape.1);
        let mut args = Vec::with_capacity(matrices.len());
        for idx in 0..shape.0 * shape.1 {
            args.clear();
            args.extend(matrices.iter().map(|m| m.data[idx].clone()));
            data.push(f(&args));
        }
        Matrix::from_vec(shape.0, shape.1, data)
    }

    /// Whether every entry is zero.
    pub fn is_zero(&self) -> bool {
        self.data.iter().all(|v| v.is_zero())
    }

    /// Number of non-zero entries (counted on demand; dense storage keeps
    /// zeros materialised).
    pub fn nnz(&self) -> usize {
        self.data.iter().filter(|v| !v.is_zero()).count()
    }

    /// Fraction of entries that are non-zero (`nnz / (rows·cols)`; 0 for an
    /// empty shape).
    pub fn density(&self) -> f64 {
        let total = self.rows * self.cols;
        if total == 0 {
            0.0
        } else {
            self.nnz() as f64 / total as f64
        }
    }

    /// Heap bytes held by this matrix's row-major entry buffer:
    /// `rows · cols · size_of::<K>()`.  Deliberately counts live payload
    /// (not `Vec` capacity slack) so the figure is reproducible from the
    /// shape alone.  O(1) — reads lengths only.
    pub fn heap_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<K>()
    }

    /// Approximate equality with tolerance `tol` on every entry.
    pub fn approx_eq(&self, other: &Matrix<K>, tol: f64) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(a, b)| a.approx_eq(b, tol))
    }

    /// Convert every entry to `f64` (best effort), row-major.
    pub fn to_f64_rows(&self) -> Vec<Vec<f64>> {
        (0..self.rows)
            .map(|i| {
                (0..self.cols)
                    .map(|j| self.data[i * self.cols + j].to_f64())
                    .collect()
            })
            .collect()
    }
}

impl<K: Semiring> fmt::Debug for Matrix<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Matrix {}x{} (nnz={}, density={:.4}) [",
            self.rows,
            self.cols,
            self.nnz(),
            self.density()
        )?;
        for i in 0..self.rows {
            write!(f, "  ")?;
            for j in 0..self.cols {
                write!(f, "{:?} ", self.data[i * self.cols + j])?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

impl<K: Semiring> fmt::Display for Matrix<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:>8.4}", self.data[i * self.cols + j].to_f64())?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matlang_semiring::{Boolean, Real};

    #[test]
    fn construction_and_accessors() {
        let m: Matrix<Real> = Matrix::from_f64_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(m.shape(), (2, 2));
        assert_eq!(m.get(0, 1).unwrap().0, 2.0);
        assert_eq!(m.get(1, 0).unwrap().0, 3.0);
        assert!(m.is_square());
        assert!(!m.is_vector());
        assert!(!m.is_scalar());
    }

    #[test]
    fn from_vec_checks_length() {
        let r: Result<Matrix<Real>> = Matrix::from_vec(2, 2, vec![Real(1.0); 3]);
        assert!(matches!(r, Err(MatrixError::BadConstruction { .. })));
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let r: Result<Matrix<Real>> =
            Matrix::from_rows(vec![vec![Real(1.0)], vec![Real(1.0), Real(2.0)]]);
        assert!(matches!(r, Err(MatrixError::BadConstruction { .. })));
    }

    #[test]
    fn canonical_vectors() {
        let b2: Matrix<Real> = Matrix::canonical(4, 1).unwrap();
        assert_eq!(b2.shape(), (4, 1));
        assert_eq!(b2.get(1, 0).unwrap().0, 1.0);
        assert_eq!(b2.get(0, 0).unwrap().0, 0.0);
        assert!(Matrix::<Real>::canonical(3, 3).is_err());
    }

    #[test]
    fn identity_and_ones() {
        let i: Matrix<Real> = Matrix::identity(3);
        assert_eq!(i.get(0, 0).unwrap().0, 1.0);
        assert_eq!(i.get(0, 1).unwrap().0, 0.0);
        let ones: Matrix<Real> = Matrix::ones_vector(3);
        assert_eq!(ones.shape(), (3, 1));
        assert!(ones.entries().iter().all(|v| v.0 == 1.0));
    }

    #[test]
    fn scalar_roundtrip() {
        let s: Matrix<Real> = Matrix::scalar(Real(42.0));
        assert!(s.is_scalar());
        assert_eq!(s.as_scalar().unwrap().0, 42.0);
        let m: Matrix<Real> = Matrix::zeros(2, 2);
        assert!(m.as_scalar().is_err());
    }

    #[test]
    fn row_and_column_extraction() {
        let m: Matrix<Real> = Matrix::from_f64_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let r = m.row(1).unwrap();
        assert_eq!(r.shape(), (1, 2));
        assert_eq!(r.get(0, 0).unwrap().0, 3.0);
        let c = m.column(0).unwrap();
        assert_eq!(c.shape(), (2, 1));
        assert_eq!(c.get(1, 0).unwrap().0, 3.0);
        assert!(m.row(5).is_err());
        assert!(m.column(5).is_err());
    }

    #[test]
    fn indexing_out_of_bounds() {
        let mut m: Matrix<Real> = Matrix::zeros(2, 2);
        assert!(m.get(2, 0).is_err());
        assert!(m.set(0, 2, Real(1.0)).is_err());
    }

    #[test]
    fn zip_with_applies_pointwise() {
        let a: Matrix<Real> = Matrix::from_f64_rows(&[&[1.0, 2.0]]).unwrap();
        let b: Matrix<Real> = Matrix::from_f64_rows(&[&[3.0, 4.0]]).unwrap();
        let sum = Matrix::zip_with(&[&a, &b], |args| Real(args[0].0 + args[1].0)).unwrap();
        assert_eq!(sum.get(0, 1).unwrap().0, 6.0);
        let bad: Matrix<Real> = Matrix::zeros(2, 2);
        assert!(Matrix::zip_with(&[&a, &bad], |args| args[0]).is_err());
        assert!(Matrix::<Real>::zip_with(&[], |_| Real(0.0)).is_err());
    }

    #[test]
    fn map_and_is_zero() {
        let m: Matrix<Real> = Matrix::zeros(2, 3);
        assert!(m.is_zero());
        let m2 = m.map(|_| Real(1.0));
        assert!(!m2.is_zero());
    }

    #[test]
    fn approx_eq_and_exact_eq() {
        let a: Matrix<Real> = Matrix::from_f64_rows(&[&[1.0]]).unwrap();
        let b: Matrix<Real> = Matrix::from_f64_rows(&[&[1.0 + 1e-12]]).unwrap();
        assert!(a.approx_eq(&b, 1e-9));
        assert_ne!(a, b);
        let c: Matrix<Real> = Matrix::zeros(2, 1);
        assert!(!a.approx_eq(&c, 1e-9));
    }

    #[test]
    fn boolean_matrices_work() {
        let adj: Matrix<Boolean> = Matrix::from_f64_rows(&[&[0.0, 1.0], &[0.0, 0.0]]).unwrap();
        assert_eq!(adj.get(0, 1).unwrap(), &Boolean(true));
        assert_eq!(adj.get(1, 1).unwrap(), &Boolean(false));
    }

    #[test]
    fn display_and_debug_do_not_panic() {
        let m: Matrix<Real> = Matrix::identity(2);
        let _ = format!("{m}");
        let _ = format!("{m:?}");
    }

    #[test]
    fn nnz_and_density() {
        let m: Matrix<Real> = Matrix::identity(4);
        assert_eq!(m.nnz(), 4);
        assert!((m.density() - 0.25).abs() < 1e-12);
        assert_eq!(Matrix::<Real>::zeros(3, 3).nnz(), 0);
        assert_eq!(Matrix::<Real>::zeros(0, 3).density(), 0.0);
        assert!(format!("{m:?}").contains("nnz=4"));
    }

    #[test]
    fn iter_entries_yields_row_major_triples() {
        let m: Matrix<Real> = Matrix::from_f64_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let triples: Vec<_> = m.iter_entries().map(|(i, j, v)| (i, j, v.0)).collect();
        assert_eq!(
            triples,
            vec![(0, 0, 1.0), (0, 1, 2.0), (1, 0, 3.0), (1, 1, 4.0)]
        );
    }

    #[test]
    fn to_f64_rows_roundtrip() {
        let m: Matrix<Real> = Matrix::from_f64_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(m.to_f64_rows(), vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
    }
}
