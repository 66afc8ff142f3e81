//! Matrix arithmetic: the operations underlying the MATLANG operators of
//! Section 2 (transpose, product, addition, scalar multiplication, pointwise
//! application) and the Hadamard product of Section 6.2.

use crate::{Matrix, MatrixError, Result};
use matlang_semiring::{Field, Ring, Semiring};

impl<K: Semiring> Matrix<K> {
    /// Matrix transpose `eᵀ`.
    pub fn transpose(&self) -> Matrix<K> {
        let (rows, cols) = self.shape();
        let mut out = Matrix::zeros(cols, rows);
        for (i, j, v) in self.iter_entries() {
            out.set(j, i, v.clone()).expect("transpose index in bounds");
        }
        out
    }

    /// Matrix addition `e₁ + e₂` (entrywise `⊕`).
    pub fn add(&self, other: &Matrix<K>) -> Result<Matrix<K>> {
        if self.shape() != other.shape() {
            return Err(MatrixError::ShapeMismatch {
                left: self.shape(),
                right: other.shape(),
                op: "add",
            });
        }
        let data = self
            .entries()
            .iter()
            .zip(other.entries())
            .map(|(a, b)| a.add(b))
            .collect();
        Matrix::from_vec(self.rows(), self.cols(), data)
    }

    /// Matrix product `e₁ · e₂` (sum of products over the shared dimension).
    ///
    /// Implemented as a cache-friendly i-k-j loop over row slices: the inner
    /// loop walks both the output row and a row of `other` contiguously, and
    /// zero entries of `self` skip their whole inner loop.  The skip is
    /// justified by the semiring laws alone (`0 ⊙ b = 0` and `a ⊕ 0 = a`),
    /// so it is exact for every `K` — including the tropical semirings,
    /// whose zero is ±∞.
    pub fn matmul(&self, other: &Matrix<K>) -> Result<Matrix<K>> {
        if self.cols() != other.rows() {
            return Err(MatrixError::InnerDimensionMismatch {
                left: self.shape(),
                right: other.shape(),
            });
        }
        let (n, m) = (self.rows(), other.cols());
        let work = n.saturating_mul(self.cols()).saturating_mul(m);
        let timer = crate::kernel_timer(work);
        let mut out = vec![K::zero(); n * m];
        self.matmul_into_rows(other, 0..n, &mut out);
        if let Some(t) = timer {
            matlang_obs::histogram!("kernel_dense_matmul_us")
                .observe(t.elapsed().as_micros() as u64);
        }
        Matrix::from_vec(n, m, out)
    }

    /// The i-k-j kernel restricted to the output rows in `rows`, writing
    /// into `out` (the row-major buffer for exactly those rows).  This is
    /// the single implementation behind both [`Matrix::matmul`] and the
    /// row-partitioned [`Matrix::matmul_threaded`] — sharing it is what
    /// keeps serial and threaded products bit-identical by construction.
    ///
    /// Callers must have checked `self.cols() == other.rows()`, that
    /// `rows` lies within `0..self.rows()`, and that
    /// `out.len() == rows.len() * other.cols()`.
    pub(crate) fn matmul_into_rows(
        &self,
        other: &Matrix<K>,
        rows: std::ops::Range<usize>,
        out: &mut [K],
    ) {
        let m = other.cols();
        let inner = self.cols();
        let lhs = self.entries();
        let rhs = other.entries();
        for (r, out_row) in out.chunks_mut(m.max(1)).enumerate().take(rows.len()) {
            let i = rows.start + r;
            let a_row = &lhs[i * inner..(i + 1) * inner];
            for (k, a) in a_row.iter().enumerate() {
                if a.is_zero() {
                    continue;
                }
                let b_row = &rhs[k * m..(k + 1) * m];
                for (acc, b) in out_row.iter_mut().zip(b_row) {
                    *acc = acc.add(&a.mul(b));
                }
            }
        }
    }

    /// Fused `diag(scale) · self` for an `n × 1` vector `scale`: row `i` of
    /// the result is row `i` of `self` scaled by `scale[i]`.  Semantically
    /// identical to materializing the diagonal matrix and multiplying, but
    /// `O(rows × cols)` instead of the product's inner loop — and without
    /// the `O(rows²)` intermediate.  The accumulation replays exactly what
    /// [`Matrix::matmul`] would do for a diagonal left operand (zero rows
    /// skip, every output entry is `0 ⊕ (s ⊙ a)`), so the result is
    /// bit-identical to the unfused product.
    pub fn scale_rows(&self, scale: &Matrix<K>) -> Result<Matrix<K>> {
        if !scale.is_vector() {
            return Err(MatrixError::NotAVector {
                shape: scale.shape(),
            });
        }
        if scale.rows() != self.rows() {
            return Err(MatrixError::InnerDimensionMismatch {
                left: (scale.rows(), scale.rows()),
                right: self.shape(),
            });
        }
        let (n, m) = self.shape();
        let lhs = self.entries();
        let mut out = vec![K::zero(); n * m];
        for i in 0..n {
            let s = scale.get(i, 0)?;
            if s.is_zero() {
                continue;
            }
            let src = &lhs[i * m..(i + 1) * m];
            for (acc, a) in out[i * m..(i + 1) * m].iter_mut().zip(src) {
                *acc = acc.add(&s.mul(a));
            }
        }
        Matrix::from_vec(n, m, out)
    }

    /// Fused `self · diag(scale)` for an `m × 1` vector `scale`: column `j`
    /// of the result is column `j` of `self` scaled by `scale[j]`.  The
    /// fused counterpart of [`Matrix::scale_rows`] on the right — the
    /// unfused dense product costs `O(rows × cols²)` because the kernel
    /// only skips zero *left* entries; this is `O(rows × cols)`.
    pub fn scale_cols(&self, scale: &Matrix<K>) -> Result<Matrix<K>> {
        if !scale.is_vector() {
            return Err(MatrixError::NotAVector {
                shape: scale.shape(),
            });
        }
        if self.cols() != scale.rows() {
            return Err(MatrixError::InnerDimensionMismatch {
                left: self.shape(),
                right: (scale.rows(), scale.rows()),
            });
        }
        let (n, m) = self.shape();
        let lhs = self.entries();
        let mut out = vec![K::zero(); n * m];
        for i in 0..n {
            for j in 0..m {
                let a = &lhs[i * m + j];
                if a.is_zero() {
                    continue;
                }
                let s = scale.get(j, 0)?;
                if s.is_zero() {
                    continue;
                }
                out[i * m + j] = out[i * m + j].add(&a.mul(s));
            }
        }
        Matrix::from_vec(n, m, out)
    }

    /// Hadamard (pointwise) product `e₁ ∘ e₂` (entrywise `⊙`, Section 6.2).
    pub fn hadamard(&self, other: &Matrix<K>) -> Result<Matrix<K>> {
        if self.shape() != other.shape() {
            return Err(MatrixError::ShapeMismatch {
                left: self.shape(),
                right: other.shape(),
                op: "hadamard",
            });
        }
        let data = self
            .entries()
            .iter()
            .zip(other.entries())
            .map(|(a, b)| a.mul(b))
            .collect();
        Matrix::from_vec(self.rows(), self.cols(), data)
    }

    /// Scalar multiplication `e₁ × e₂` where `e₁` is `1 × 1`.
    pub fn scalar_mul(&self, scalar: &K) -> Matrix<K> {
        self.map(|v| scalar.mul(v))
    }

    /// The paper's `1(e)`: a `rows × 1` ones vector matching this matrix's
    /// row count.
    pub fn ones_like(&self) -> Matrix<K> {
        Matrix::ones_vector(self.rows())
    }

    /// The paper's `diag(e)` operator: for an `n × 1` vector, the `n × n`
    /// diagonal matrix with the vector on its main diagonal.
    pub fn diag(&self) -> Result<Matrix<K>> {
        if !self.is_vector() {
            return Err(MatrixError::NotAVector {
                shape: self.shape(),
            });
        }
        let n = self.rows();
        let mut out = Matrix::zeros(n, n);
        for i in 0..n {
            out.set(i, i, self.get(i, 0)?.clone())?;
        }
        Ok(out)
    }

    /// The main diagonal of a square matrix, as an `n × 1` vector.
    pub fn diagonal_vector(&self) -> Result<Matrix<K>> {
        if !self.is_square() {
            return Err(MatrixError::NotSquare {
                shape: self.shape(),
            });
        }
        let n = self.rows();
        let mut out = Matrix::zeros(n, 1);
        for i in 0..n {
            out.set(i, 0, self.get(i, i)?.clone())?;
        }
        Ok(out)
    }

    /// The trace `tr(A)` of a square matrix.
    pub fn trace(&self) -> Result<K> {
        if !self.is_square() {
            return Err(MatrixError::NotSquare {
                shape: self.shape(),
            });
        }
        let mut acc = K::zero();
        for i in 0..self.rows() {
            acc = acc.add(self.get(i, i)?);
        }
        Ok(acc)
    }

    /// `Aᵏ` for a square matrix (k = 0 gives the identity).
    pub fn pow(&self, k: usize) -> Result<Matrix<K>> {
        if !self.is_square() {
            return Err(MatrixError::NotSquare {
                shape: self.shape(),
            });
        }
        let mut acc = Matrix::identity(self.rows());
        for _ in 0..k {
            acc = acc.matmul(self)?;
        }
        Ok(acc)
    }
}

impl<K: Ring> Matrix<K> {
    /// Entrywise negation.
    pub fn neg(&self) -> Matrix<K> {
        self.map(|v| v.neg())
    }

    /// Matrix subtraction.
    pub fn sub(&self, other: &Matrix<K>) -> Result<Matrix<K>> {
        self.add(&other.neg())
    }
}

impl<K: Field> Matrix<K> {
    /// Gauss–Jordan inverse of a square matrix over a field.  This is the
    /// *baseline* numeric inverse against which the Csanky / for-MATLANG
    /// inverse of Section 4.2 is validated.
    pub fn inverse(&self) -> Result<Matrix<K>> {
        if !self.is_square() {
            return Err(MatrixError::NotSquare {
                shape: self.shape(),
            });
        }
        let n = self.rows();
        let mut a = self.clone();
        let mut inv: Matrix<K> = Matrix::identity(n);
        for col in 0..n {
            // Find a pivot row with the largest magnitude entry in this column.
            let mut pivot = None;
            let mut best = 0.0f64;
            for row in col..n {
                let v = a.get(row, col)?.to_f64().abs();
                if v > best && !a.get(row, col)?.is_zero() {
                    best = v;
                    pivot = Some(row);
                }
            }
            let pivot = pivot.ok_or_else(|| MatrixError::Singular {
                message: format!("no pivot in column {col}"),
            })?;
            if pivot != col {
                a.swap_rows(pivot, col);
                inv.swap_rows(pivot, col);
            }
            let pivot_value = a.get(col, col)?.clone();
            let pivot_inv = pivot_value.inv().ok_or_else(|| MatrixError::Singular {
                message: format!("zero pivot in column {col}"),
            })?;
            for j in 0..n {
                let av = a.get(col, j)?.mul(&pivot_inv);
                a.set(col, j, av)?;
                let iv = inv.get(col, j)?.mul(&pivot_inv);
                inv.set(col, j, iv)?;
            }
            for row in 0..n {
                if row == col {
                    continue;
                }
                let factor = a.get(row, col)?.clone();
                if factor.is_zero() {
                    continue;
                }
                for j in 0..n {
                    let av = a.get(row, j)?.sub(&factor.mul(a.get(col, j)?));
                    a.set(row, j, av)?;
                    let iv = inv.get(row, j)?.sub(&factor.mul(inv.get(col, j)?));
                    inv.set(row, j, iv)?;
                }
            }
        }
        Ok(inv)
    }

    /// Determinant via LU-style elimination with partial pivoting.  Baseline
    /// for the Csanky determinant of Section 4.2.
    pub fn determinant(&self) -> Result<K> {
        if !self.is_square() {
            return Err(MatrixError::NotSquare {
                shape: self.shape(),
            });
        }
        let n = self.rows();
        let mut a = self.clone();
        let mut det = K::one();
        let mut sign_flip = false;
        for col in 0..n {
            let mut pivot = None;
            let mut best = 0.0f64;
            for row in col..n {
                let v = a.get(row, col)?.to_f64().abs();
                if v > best && !a.get(row, col)?.is_zero() {
                    best = v;
                    pivot = Some(row);
                }
            }
            let pivot = match pivot {
                Some(p) => p,
                None => return Ok(K::zero()),
            };
            if pivot != col {
                a.swap_rows(pivot, col);
                sign_flip = !sign_flip;
            }
            let pivot_value = a.get(col, col)?.clone();
            det = det.mul(&pivot_value);
            let pivot_inv = pivot_value.inv().ok_or_else(|| MatrixError::Singular {
                message: "zero pivot".to_string(),
            })?;
            for row in (col + 1)..n {
                let factor = a.get(row, col)?.mul(&pivot_inv);
                if factor.is_zero() {
                    continue;
                }
                for j in col..n {
                    let av = a.get(row, j)?.sub(&factor.mul(a.get(col, j)?));
                    a.set(row, j, av)?;
                }
            }
        }
        if sign_flip {
            det = det.neg();
        }
        Ok(det)
    }
}

impl<K: Semiring> Matrix<K> {
    /// Swap two rows in place.
    pub fn swap_rows(&mut self, r1: usize, r2: usize) {
        if r1 == r2 {
            return;
        }
        for j in 0..self.cols() {
            let a = self.get(r1, j).expect("in bounds").clone();
            let b = self.get(r2, j).expect("in bounds").clone();
            self.set(r1, j, b).expect("in bounds");
            self.set(r2, j, a).expect("in bounds");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matlang_semiring::{Boolean, MinPlus, Real};

    fn m(rows: &[&[f64]]) -> Matrix<Real> {
        Matrix::from_f64_rows(rows).unwrap()
    }

    #[test]
    fn transpose_involution() {
        let a = m(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().shape(), (3, 2));
        assert_eq!(a.transpose().get(2, 1).unwrap().0, 6.0);
    }

    #[test]
    fn addition_and_shape_errors() {
        let a = m(&[&[1.0, 2.0]]);
        let b = m(&[&[3.0, 4.0]]);
        assert_eq!(a.add(&b).unwrap(), m(&[&[4.0, 6.0]]));
        let c = m(&[&[1.0], &[2.0]]);
        assert!(a.add(&c).is_err());
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = m(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = m(&[&[5.0, 6.0], &[7.0, 8.0]]);
        assert_eq!(a.matmul(&b).unwrap(), m(&[&[19.0, 22.0], &[43.0, 50.0]]));
        let v = m(&[&[1.0], &[1.0]]);
        assert_eq!(a.matmul(&v).unwrap(), m(&[&[3.0], &[7.0]]));
        assert!(v.matmul(&a).is_err());
    }

    #[test]
    fn matmul_identity_is_neutral() {
        let a = m(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let i: Matrix<Real> = Matrix::identity(2);
        assert_eq!(a.matmul(&i).unwrap(), a);
        assert_eq!(i.matmul(&a).unwrap(), a);
    }

    #[test]
    fn hadamard_pointwise() {
        let a = m(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = m(&[&[2.0, 2.0], &[2.0, 2.0]]);
        assert_eq!(a.hadamard(&b).unwrap(), m(&[&[2.0, 4.0], &[6.0, 8.0]]));
        let c = m(&[&[1.0]]);
        assert!(a.hadamard(&c).is_err());
    }

    #[test]
    fn scalar_mul_scales_every_entry() {
        let a = m(&[&[1.0, 2.0]]);
        assert_eq!(a.scalar_mul(&Real(3.0)), m(&[&[3.0, 6.0]]));
    }

    #[test]
    fn diag_and_diagonal_vector() {
        let v = m(&[&[1.0], &[2.0], &[3.0]]);
        let d = v.diag().unwrap();
        assert_eq!(d.get(1, 1).unwrap().0, 2.0);
        assert_eq!(d.get(0, 1).unwrap().0, 0.0);
        assert_eq!(d.diagonal_vector().unwrap(), v);
        let nonvec = m(&[&[1.0, 2.0]]);
        assert!(nonvec.diag().is_err());
        assert!(nonvec.diagonal_vector().is_err());
    }

    #[test]
    fn ones_like_uses_row_count() {
        let a = m(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.ones_like(), Matrix::ones_vector(2));
    }

    #[test]
    fn trace_and_pow() {
        let a = m(&[&[1.0, 1.0], &[0.0, 1.0]]);
        assert_eq!(a.trace().unwrap().0, 2.0);
        assert_eq!(a.pow(0).unwrap(), Matrix::identity(2));
        assert_eq!(a.pow(3).unwrap(), m(&[&[1.0, 3.0], &[0.0, 1.0]]));
        let nonsq = m(&[&[1.0, 2.0]]);
        assert!(nonsq.trace().is_err());
        assert!(nonsq.pow(2).is_err());
    }

    #[test]
    fn subtraction_and_negation() {
        let a = m(&[&[3.0, 4.0]]);
        let b = m(&[&[1.0, 1.0]]);
        assert_eq!(a.sub(&b).unwrap(), m(&[&[2.0, 3.0]]));
        assert_eq!(a.neg(), m(&[&[-3.0, -4.0]]));
    }

    #[test]
    fn inverse_of_invertible_matrix() {
        let a = m(&[&[4.0, 7.0], &[2.0, 6.0]]);
        let inv = a.inverse().unwrap();
        let prod = a.matmul(&inv).unwrap();
        assert!(prod.approx_eq(&Matrix::identity(2), 1e-9));
    }

    #[test]
    fn inverse_requires_pivoting() {
        // Leading principal minor is zero, so a pivot swap is required.
        let a = m(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let inv = a.inverse().unwrap();
        assert!(a
            .matmul(&inv)
            .unwrap()
            .approx_eq(&Matrix::identity(2), 1e-9));
    }

    #[test]
    fn inverse_of_singular_matrix_fails() {
        let a = m(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(a.inverse().is_err());
        let nonsq = m(&[&[1.0, 2.0]]);
        assert!(nonsq.inverse().is_err());
    }

    #[test]
    fn determinant_values() {
        assert_eq!(
            m(&[&[1.0, 2.0], &[3.0, 4.0]]).determinant().unwrap().0,
            -2.0
        );
        assert_eq!(m(&[&[1.0, 2.0], &[2.0, 4.0]]).determinant().unwrap().0, 0.0);
        let a = m(&[&[0.0, 1.0, 0.0], &[1.0, 0.0, 0.0], &[0.0, 0.0, 1.0]]);
        assert!((a.determinant().unwrap().0 - (-1.0)).abs() < 1e-12);
        assert!(m(&[&[1.0, 2.0]]).determinant().is_err());
    }

    #[test]
    fn boolean_matmul_is_reachability_step() {
        let adj: Matrix<Boolean> =
            Matrix::from_f64_rows(&[&[0.0, 1.0, 0.0], &[0.0, 0.0, 1.0], &[0.0, 0.0, 0.0]]).unwrap();
        let two_step = adj.matmul(&adj).unwrap();
        assert_eq!(two_step.get(0, 2).unwrap(), &Boolean(true));
        assert_eq!(two_step.get(0, 1).unwrap(), &Boolean(false));
    }

    #[test]
    fn minplus_matmul_is_shortest_path_step() {
        let inf = f64::INFINITY;
        let w: Matrix<MinPlus> = Matrix::from_rows(vec![
            vec![MinPlus(0.0), MinPlus(2.0), MinPlus(inf)],
            vec![MinPlus(inf), MinPlus(0.0), MinPlus(3.0)],
            vec![MinPlus(inf), MinPlus(inf), MinPlus(0.0)],
        ])
        .unwrap();
        let two = w.matmul(&w).unwrap();
        assert_eq!(two.get(0, 2).unwrap(), &MinPlus(5.0));
    }

    #[test]
    fn swap_rows_swaps_in_place() {
        let mut a = m(&[&[1.0, 2.0], &[3.0, 4.0]]);
        a.swap_rows(0, 1);
        assert_eq!(a, m(&[&[3.0, 4.0], &[1.0, 2.0]]));
        a.swap_rows(1, 1);
        assert_eq!(a, m(&[&[3.0, 4.0], &[1.0, 2.0]]));
    }
}
