//! Products with a loop's canonical vector, computed as index operations.
//!
//! for-MATLANG loops bind their iteration variable to the canonical vectors
//! `b₁ⁿ … bₙⁿ`, and the paper's algorithms read a row, a column or an entry
//! as `bᵢᵀ·X`, `X·bⱼ`, `bᵢᵀ·X·bⱼ`, place a vector as `bᵢ·y` / `x·bⱼᵀ`, and
//! write an entry as `X + s × (bᵢ·bⱼᵀ)`.  The kernels here compute each of
//! those products without building `bᵢ`, in O(selected) instead of the
//! product's O(n) or O(n²).
//!
//! They compute exactly what the product kernels compute.  A canonical
//! vector's one stored `1` meets each selected entry `x` once: the dense
//! kernel accumulates `0 ⊕ (1 ⊗ x)` and CSR assigns its first term,
//! `1 ⊗ x`, dropping a zero result.  Every other term is `x ⊗ 0`, which the
//! dense kernel adds and CSR never forms — exact by the laws the dense
//! kernel's zero-skip and `scale_cols` already rely on: 0 annihilates, 1 is
//! neutral for ⊗ and 0 is neutral for ⊕.  (⊗ commutes in every semiring
//! here, so `1 ⊗ x` also stands for the product's `x ⊗ 1`.)  Each shape
//! error is the one the unfused product raises first.
//!
//! [`MatrixStorage`] requires each of them to equal the unfused product
//! against [`MatrixStorage::canonical`] (the `index_kernels` suite computes
//! both); [`Matrix`] and [`MatrixRepr`] implement them with the kernels
//! below, the CSR ones running under `MatrixRepr::Sparse`.
//!
//! Two of them also come in the forms a loop's executor wants.  An entry
//! read, `select_entry`, returns the value of the `1 × 1` selection
//! unboxed.  The point update is written in place, `point_update_in_place`:
//! dense storage overwrites the one entry, CSR inserts, overwrites or
//! removes it (`set_entry`), and the adaptive wrapper keeps its
//! representation.  Each backend's `point_update` is that update applied to
//! a copy, so a loop whose accumulator nothing else holds updates it
//! without copying the matrix, and gets the same bits as the copy would.

use crate::{Matrix, MatrixError, MatrixRepr, MatrixStorage, Result, SparseMatrix};
use matlang_semiring::Semiring;

/// The canonical vector `bᵢⁿ`, named by its dimension `n` and 0-based
/// index `i` — what a loop binds its iteration variable to.  Built only by
/// [`Canonical::new`], so the index is always below the dimension.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Canonical {
    dim: usize,
    index: usize,
}

impl Canonical {
    /// `bᵢⁿ` for `n = dim`, `i = index`; fails like
    /// [`MatrixStorage::canonical`] when `index ≥ dim`.
    pub fn new(dim: usize, index: usize) -> Result<Self> {
        if index >= dim {
            return Err(MatrixError::IndexOutOfBounds {
                row: index,
                col: 0,
                shape: (dim, 1),
            });
        }
        Ok(Canonical { dim, index })
    }

    /// The dimension `n`.
    pub fn dim(self) -> usize {
        self.dim
    }

    /// The 0-based index `i`.
    pub fn index(self) -> usize {
        self.index
    }

    /// The vector itself, as an `n × 1` matrix on any backend.
    pub fn vector<M: MatrixStorage>(self) -> M {
        M::canonical(self.dim, self.index).expect("index below the dimension")
    }
}

/// The dense product's value for one selected entry: `0 ⊕ (1 ⊗ x)`.
fn dense_term<K: Semiring>(x: &K) -> K {
    K::zero().add(&sparse_term(x))
}

/// The CSR product's value for one selected entry, its first and only
/// term: `1 ⊗ x`.
fn sparse_term<K: Semiring>(x: &K) -> K {
    K::one().mul(x)
}

/// What a CSR `1 × 1` built from the value `x` reads back: `x`, or the
/// semiring's zero when `x` is one the builder drops.
pub(crate) fn stored_or_zero<K: Semiring>(x: K) -> K {
    if x.is_zero() {
        K::zero()
    } else {
        x
    }
}

/// The shape of `bᵢᵀ·m·bⱼ` (either factor absent), or the error the unfused
/// product raises first.
fn selected_shape(
    (mut rows, mut cols): (usize, usize),
    row: Option<Canonical>,
    col: Option<Canonical>,
) -> Result<(usize, usize)> {
    if let Some(r) = row {
        if r.dim != rows {
            return Err(MatrixError::InnerDimensionMismatch {
                left: (1, r.dim),
                right: (rows, cols),
            });
        }
        rows = 1;
    }
    if let Some(c) = col {
        if c.dim != cols {
            return Err(MatrixError::InnerDimensionMismatch {
                left: (rows, cols),
                right: (c.dim, 1),
            });
        }
        cols = 1;
    }
    Ok((rows, cols))
}

/// The shape of `bᵢ·m·bⱼᵀ` (either factor absent), or the error the unfused
/// product raises first.
fn placed_shape(
    (mut rows, mut cols): (usize, usize),
    row: Option<Canonical>,
    col: Option<Canonical>,
) -> Result<(usize, usize)> {
    if let Some(r) = row {
        if rows != 1 {
            return Err(MatrixError::InnerDimensionMismatch {
                left: (r.dim, 1),
                right: (rows, cols),
            });
        }
        rows = r.dim;
    }
    if let Some(c) = col {
        if cols != 1 {
            return Err(MatrixError::InnerDimensionMismatch {
                left: (rows, cols),
                right: (1, c.dim),
            });
        }
        cols = c.dim;
    }
    Ok((rows, cols))
}

/// The error of `m + s × (bᵢ·bⱼᵀ)` when `m` is not `n × m`-shaped.
fn check_update_shape(shape: (usize, usize), row: Canonical, col: Canonical) -> Result<()> {
    if shape != (row.dim, col.dim) {
        return Err(MatrixError::ShapeMismatch {
            left: shape,
            right: (row.dim, col.dim),
            op: "add",
        });
    }
    Ok(())
}

impl<K: Semiring> Matrix<K> {
    /// `bᵢᵀ·self`, `self·bⱼ` or `bᵢᵀ·self·bⱼ`: a row, a column or one entry.
    pub fn select(&self, row: Option<Canonical>, col: Option<Canonical>) -> Result<Matrix<K>> {
        let (rows, cols) = selected_shape(self.shape(), row, col)?;
        let stride = self.cols();
        let entries = self.entries();
        let row_range = row.map_or(0..self.rows(), |r| r.index..r.index + 1);
        let col_range = col.map_or(0..stride, |c| c.index..c.index + 1);
        let data = row_range
            .flat_map(|i| {
                col_range
                    .clone()
                    .map(move |j| dense_term(&entries[i * stride + j]))
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    /// `bᵢ·self` for a `1 × m` row, `self·bⱼᵀ` for an `n × 1` column, or
    /// `bᵢ·self·bⱼᵀ` for a scalar: the operand placed as row `i`, column
    /// `j`, or entry `(i, j)` of a zero matrix — the unit matrix `bᵢ·bⱼᵀ`
    /// when the scalar is one.
    pub fn place(&self, row: Option<Canonical>, col: Option<Canonical>) -> Result<Matrix<K>> {
        let (rows, cols) = placed_shape(self.shape(), row, col)?;
        let mut data = vec![K::zero(); rows * cols];
        for (i, j, x) in self.iter_entries() {
            let (i, j) = (row.map_or(i, |r| r.index), col.map_or(j, |c| c.index));
            data[i * cols + j] = dense_term(x);
        }
        Matrix::from_vec(rows, cols, data)
    }

    /// `bᵢᵀ·self·bⱼ` unboxed: the value of [`Matrix::select`]'s `1 × 1`
    /// result, `0 ⊕ (1 ⊗ self[i, j])`.
    pub fn select_entry(&self, row: Canonical, col: Canonical) -> Result<K> {
        selected_shape(self.shape(), Some(row), Some(col))?;
        Ok(dense_term(self.get(row.index, col.index)?))
    }

    /// The point update `self + scalar × (bᵢ·bⱼᵀ)`, written into `self`:
    /// entry `(i, j)` becomes `self[i, j] ⊕ (scalar ⊗ (0 ⊕ (1 ⊗ 1)))`.
    pub fn point_update_in_place(
        &mut self,
        scalar: &K,
        row: Canonical,
        col: Canonical,
    ) -> Result<()> {
        check_update_shape(self.shape(), row, col)?;
        let term = scalar.mul(&dense_term(&K::one()));
        let entry = self.get(row.index, col.index)?.add(&term);
        self.set(row.index, col.index, entry)
    }
}

impl<K: Semiring> SparseMatrix<K> {
    /// [`Matrix::select`] on CSR: the stored entries of the selected row
    /// and/or column, zero terms dropped.
    pub fn select(
        &self,
        row: Option<Canonical>,
        col: Option<Canonical>,
    ) -> Result<SparseMatrix<K>> {
        let (rows, cols) = selected_shape(self.shape(), row, col)?;
        let source_rows = row.map_or(0..self.rows(), |r| r.index..r.index + 1);
        let mut out = crate::CsrBuilder::new(rows, cols, 0);
        for i in source_rows {
            let (cs, vs) = self.row_entries(i);
            match col {
                None => {
                    for (&j, x) in cs.iter().zip(vs) {
                        out.push(j, sparse_term(x));
                    }
                }
                Some(c) => {
                    if let Ok(p) = cs.binary_search(&c.index) {
                        out.push(0, sparse_term(&vs[p]));
                    }
                }
            }
            out.finish_row();
        }
        Ok(out.build())
    }

    /// [`Matrix::place`] on CSR.
    pub fn place(&self, row: Option<Canonical>, col: Option<Canonical>) -> Result<SparseMatrix<K>> {
        let (rows, cols) = placed_shape(self.shape(), row, col)?;
        let mut out = crate::CsrBuilder::new(rows, cols, self.nnz());
        for i in 0..rows {
            let source = match row {
                Some(r) => (i == r.index).then_some(0),
                None => Some(i),
            };
            if let Some(p) = source {
                let (cs, vs) = self.row_entries(p);
                for (&j, x) in cs.iter().zip(vs) {
                    out.push(col.map_or(j, |c| c.index), sparse_term(x));
                }
            }
            out.finish_row();
        }
        Ok(out.build())
    }

    /// [`Matrix::select_entry`] on CSR: the value of [`SparseMatrix::select`]'s
    /// `1 × 1` result — the stored entry's term, or zero.
    pub fn select_entry(&self, row: Canonical, col: Canonical) -> Result<K> {
        selected_shape(self.shape(), Some(row), Some(col))?;
        let (cs, vs) = self.row_entries(row.index);
        Ok(match cs.binary_search(&col.index) {
            Ok(p) => stored_or_zero(sparse_term(&vs[p])),
            Err(_) => K::zero(),
        })
    }

    /// [`Matrix::point_update_in_place`] on CSR: the term
    /// `scalar ⊗ (1 ⊗ 1)` is merged into entry `(i, j)` as the CSR sum
    /// merges it — added to a stored entry, inserted otherwise, nothing when
    /// it is zero — and a zero sum is not stored.
    pub fn point_update_in_place(
        &mut self,
        scalar: &K,
        row: Canonical,
        col: Canonical,
    ) -> Result<()> {
        check_update_shape(self.shape(), row, col)?;
        let term = scalar.mul(&sparse_term(&K::one()));
        // CSR stores no zeros, so a zero read is an absent entry.
        let stored = self.get(row.index, col.index)?;
        let merged = match (stored.is_zero(), term.is_zero()) {
            (false, true) => return Ok(()),
            (false, false) => stored.add(&term),
            (true, _) => term,
        };
        self.set_entry(row.index, col.index, merged)
    }
}

impl<K: Semiring> MatrixRepr<K> {
    /// [`Matrix::select`] in the current representation, then normalized.
    pub fn select(&self, row: Option<Canonical>, col: Option<Canonical>) -> Result<Self> {
        Ok(match self {
            MatrixRepr::Dense(d) => MatrixRepr::Dense(d.select(row, col)?),
            MatrixRepr::Sparse(s) => MatrixRepr::Sparse(s.select(row, col)?),
        }
        .normalized())
    }

    /// [`Matrix::place`], built in CSR — a placed vector fills one row or
    /// column of the result — then normalized.
    pub fn place(&self, row: Option<Canonical>, col: Option<Canonical>) -> Result<Self> {
        Ok(MatrixRepr::Sparse(self.as_sparse().place(row, col)?).normalized())
    }

    /// [`Matrix::select_entry`] in the current representation.
    pub fn select_entry(&self, row: Canonical, col: Canonical) -> Result<K> {
        match self {
            MatrixRepr::Dense(d) => d.select_entry(row, col),
            MatrixRepr::Sparse(s) => s.select_entry(row, col),
        }
    }

    /// [`Matrix::point_update_in_place`], keeping the current
    /// representation: like [`MatrixRepr::set_entry`], one changed entry
    /// must not cost a density scan or a dense↔CSR conversion.
    pub fn point_update_in_place(
        &mut self,
        scalar: &K,
        row: Canonical,
        col: Canonical,
    ) -> Result<()> {
        match self {
            MatrixRepr::Dense(d) => d.point_update_in_place(scalar, row, col),
            MatrixRepr::Sparse(s) => s.point_update_in_place(scalar, row, col),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matlang_semiring::Real;

    #[test]
    fn canonical_indices_stay_below_the_dimension() {
        let b = Canonical::new(3, 2).unwrap();
        assert_eq!((b.dim(), b.index()), (3, 2));
        assert_eq!(b.vector::<Matrix<Real>>(), Matrix::canonical(3, 2).unwrap());
        assert_eq!(
            Canonical::new(3, 3).unwrap_err(),
            Matrix::<Real>::canonical(3, 3).unwrap_err()
        );
    }
}
