//! Adaptive matrix representation: dense or CSR, picked by a value's own
//! density.
//!
//! [`MatrixRepr`] is the unified value representation the backend-aware
//! evaluator runs on.  Each operation dispatches to the kernels of whichever
//! representations the operands are in (promoting a sparse operand to dense
//! when the other operand is dense) and then **normalizes** the result:
//!
//! * a sparse result more than half full is converted to dense storage —
//!   beyond that point CSR's index overhead outweighs the skipped zeros;
//! * a dense result that passes [`csr_fits`] is compressed to CSR;
//! * matrices with fewer than 64 total entries always stay dense — at that
//!   size the representation switch costs more than it saves.
//!
//! That and instance load (`from_{dense,sparse}_auto`) are the only places
//! a layout is decided; the query planner calls [`csr_fits`] to predict it.
//! The two thresholds are apart (hysteresis) so a value whose density
//! hovers near the boundary does not flip representation on every
//! operation.  Equality is semantic: a dense and a sparse `MatrixRepr`
//! holding the same entries compare equal.

use crate::sparse::SparseMatrix;
use crate::{Matrix, Result};
use matlang_semiring::{Ring, Semiring};
use std::borrow::Cow;
use std::fmt;

/// Sparse results denser than this are converted to dense storage.
const DENSIFY_THRESHOLD: f64 = 0.5;

/// Dense results at most this dense are compressed to CSR.
const SPARSIFY_THRESHOLD: f64 = 0.25;

/// Matrices with fewer total entries than this always stay dense.
const MIN_ADAPTIVE_ENTRIES: usize = 64;

/// Whether a `rows × cols` value with `nnz` non-zeros belongs in CSR: at
/// least 64 entries, at most a quarter of them non-zero.  The dense → CSR
/// rule of [`MatrixRepr::normalized`], and the planner's prediction of it.
pub fn csr_fits(rows: usize, cols: usize, nnz: f64) -> bool {
    let total = rows * cols;
    total >= MIN_ADAPTIVE_ENTRIES && nnz <= SPARSIFY_THRESHOLD * total as f64
}

/// A matrix held in either dense row-major or CSR storage.
#[derive(Clone)]
pub enum MatrixRepr<K> {
    /// Dense row-major storage.
    Dense(Matrix<K>),
    /// Compressed sparse row storage.
    Sparse(SparseMatrix<K>),
}

impl<K: Semiring> MatrixRepr<K> {
    /// Wraps a dense matrix and lets the density heuristic pick the storage.
    pub fn from_dense_auto(dense: Matrix<K>) -> Self {
        MatrixRepr::Dense(dense).normalized()
    }

    /// Wraps a sparse matrix and lets the density heuristic pick the storage.
    pub fn from_sparse_auto(sparse: SparseMatrix<K>) -> Self {
        MatrixRepr::Sparse(sparse).normalized()
    }

    /// Whether the current storage is CSR.
    pub fn is_sparse(&self) -> bool {
        matches!(self, MatrixRepr::Sparse(_))
    }

    /// A short name of the current storage backend, for logs and reports.
    pub fn backend_name(&self) -> &'static str {
        match self {
            MatrixRepr::Dense(_) => "dense",
            MatrixRepr::Sparse(_) => "sparse",
        }
    }

    /// Exact conversion to dense storage.
    pub fn to_dense(&self) -> Matrix<K> {
        self.as_dense().into_owned()
    }

    /// Exact conversion to CSR storage.
    pub fn to_sparse(&self) -> SparseMatrix<K> {
        self.as_sparse().into_owned()
    }

    /// The value in dense storage: borrowed when it already is, converted
    /// otherwise — what a kernel that only reads its operand wants.
    fn as_dense(&self) -> Cow<'_, Matrix<K>> {
        match self {
            MatrixRepr::Dense(d) => Cow::Borrowed(d),
            MatrixRepr::Sparse(s) => Cow::Owned(s.to_dense()),
        }
    }

    /// The value in CSR storage, borrowed when it already is.
    pub(crate) fn as_sparse(&self) -> Cow<'_, SparseMatrix<K>> {
        match self {
            MatrixRepr::Dense(d) => Cow::Owned(SparseMatrix::from_dense(d)),
            MatrixRepr::Sparse(s) => Cow::Borrowed(s),
        }
    }

    /// Applies the layout rule to the value's own density.  Every operation
    /// below normalizes its result, so evaluation tracks the density of
    /// intermediate values (e.g. powers of an adjacency matrix densify as
    /// paths multiply).  A dense value that stays dense is moved, not copied.
    pub fn normalized(self) -> Self {
        let (rows, cols) = self.shape();
        match self {
            MatrixRepr::Sparse(s) if rows * cols < MIN_ADAPTIVE_ENTRIES => {
                MatrixRepr::Dense(s.to_dense())
            }
            small if rows * cols < MIN_ADAPTIVE_ENTRIES => small,
            MatrixRepr::Sparse(s) if s.density() > DENSIFY_THRESHOLD => {
                MatrixRepr::Dense(s.to_dense())
            }
            MatrixRepr::Dense(ref d) if csr_fits(rows, cols, d.nnz() as f64) => {
                MatrixRepr::Sparse(SparseMatrix::from_dense(d))
            }
            other => other,
        }
    }

    /// The shape `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        match self {
            MatrixRepr::Dense(d) => d.shape(),
            MatrixRepr::Sparse(s) => s.shape(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.shape().0
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.shape().1
    }

    /// Number of non-zero entries.
    pub fn nnz(&self) -> usize {
        match self {
            MatrixRepr::Dense(d) => d.nnz(),
            MatrixRepr::Sparse(s) => s.nnz(),
        }
    }

    /// Fraction of entries that are non-zero (0 for an empty shape).
    pub fn density(&self) -> f64 {
        match self {
            MatrixRepr::Dense(d) => d.density(),
            MatrixRepr::Sparse(s) => s.density(),
        }
    }

    /// Whether every entry is zero.
    pub fn is_zero(&self) -> bool {
        match self {
            MatrixRepr::Dense(d) => d.is_zero(),
            MatrixRepr::Sparse(s) => s.is_zero(),
        }
    }

    /// Heap bytes held by the active variant (dense entry buffer or CSR
    /// arrays).  O(1) — delegates to the variant's own accounting.
    pub fn heap_bytes(&self) -> usize {
        match self {
            MatrixRepr::Dense(d) => d.heap_bytes(),
            MatrixRepr::Sparse(s) => s.heap_bytes(),
        }
    }

    /// The entry at `(row, col)`, by value.
    pub fn get(&self, row: usize, col: usize) -> Result<K> {
        match self {
            MatrixRepr::Dense(d) => d.get(row, col).cloned(),
            MatrixRepr::Sparse(s) => s.get(row, col),
        }
    }

    /// The value of a `1 × 1` matrix.
    pub fn as_scalar(&self) -> Result<K> {
        match self {
            MatrixRepr::Dense(d) => d.as_scalar(),
            MatrixRepr::Sparse(s) => s.as_scalar(),
        }
    }

    /// Sets one entry **in place**, keeping the current representation —
    /// a stream of point updates must not trigger a dense↔CSR conversion
    /// per call.  Callers applying large update batches can re-run the
    /// density heuristic afterwards via [`MatrixRepr::normalized`].
    pub fn set_entry(&mut self, row: usize, col: usize, value: K) -> Result<()> {
        match self {
            MatrixRepr::Dense(d) => d.set(row, col, value),
            MatrixRepr::Sparse(s) => s.set_entry(row, col, value),
        }
    }

    /// Matrix transpose `eᵀ` (keeps the current representation).
    pub fn transpose(&self) -> Self {
        match self {
            MatrixRepr::Dense(d) => MatrixRepr::Dense(d.transpose()),
            MatrixRepr::Sparse(s) => MatrixRepr::Sparse(s.transpose()),
        }
    }

    /// Matrix addition `e₁ + e₂`.
    pub fn add(&self, other: &Self) -> Result<Self> {
        use MatrixRepr::{Dense, Sparse};
        let out = match (self, other) {
            (Sparse(a), Sparse(b)) => Sparse(a.add(b)?),
            (a, b) => Dense(a.as_dense().add(&b.as_dense())?),
        };
        Ok(out.normalized())
    }

    /// [`MatrixRepr::add`] written into `self`: a dense `self` takes the sum
    /// in its own buffer, then is normalized; a CSR `self` is replaced by
    /// the sum, whose merge needs new arrays anyway.
    pub fn add_in_place(&mut self, other: &Self) -> Result<()> {
        if let MatrixRepr::Dense(d) = self {
            d.add_in_place(&other.as_dense())?;
            let sum = std::mem::replace(self, MatrixRepr::Dense(Matrix::zeros(0, 0)));
            *self = sum.normalized();
        } else {
            *self = self.add(other)?;
        }
        Ok(())
    }

    /// Matrix product `e₁ · e₂`, dispatched by operand representation:
    /// Gustavson SpMM for sparse·sparse, the dense kernel for dense·dense,
    /// and the `O(nnz)`-aware mixed kernels (see [`crate::mixed`]) for
    /// sparse·dense / dense·sparse — the sparse operand is never promoted.
    pub fn matmul(&self, other: &Self) -> Result<Self> {
        use MatrixRepr::{Dense, Sparse};
        let out = match (self, other) {
            (Sparse(a), Sparse(b)) => Sparse(a.matmul(b)?),
            (Sparse(a), Dense(b)) => Dense(a.matmul_dense(b)?),
            (Dense(a), Sparse(b)) => Dense(a.matmul_sparse(b)?),
            (Dense(a), Dense(b)) => Dense(a.matmul(b)?),
        };
        Ok(out.normalized())
    }

    /// Hadamard (pointwise) product `e₁ ∘ e₂`.  A sparse operand bounds the
    /// result's support, so one sparse side is enough to use the sparse
    /// kernel.
    pub fn hadamard(&self, other: &Self) -> Result<Self> {
        use MatrixRepr::{Dense, Sparse};
        let out = match (self, other) {
            (Dense(a), Dense(b)) => Dense(a.hadamard(b)?),
            (a, b) => Sparse(a.as_sparse().hadamard(&b.as_sparse())?),
        };
        Ok(out.normalized())
    }

    /// Fused `(self · other) ∘ mask`.  Three CSR operands run the masked
    /// Gustavson pass of [`SparseMatrix::matmul_masked`] and never build the
    /// product; any dense operand takes the unfused pair.  Entries, errors
    /// and the normalized representation are those of [`MatrixRepr::matmul`]
    /// followed by [`MatrixRepr::hadamard`].
    pub fn matmul_masked(&self, other: &Self, mask: &Self) -> Result<Self> {
        use MatrixRepr::Sparse;
        match (self, other, mask) {
            (Sparse(a), Sparse(b), Sparse(m)) => Ok(Sparse(a.matmul_masked(b, m)?).normalized()),
            _ => self.matmul(other)?.hadamard(mask),
        }
    }

    /// Scalar multiplication: every entry multiplied by `scalar`.
    pub fn scalar_mul(&self, scalar: &K) -> Self {
        match self {
            MatrixRepr::Dense(d) => MatrixRepr::Dense(d.scalar_mul(scalar)),
            MatrixRepr::Sparse(s) => MatrixRepr::Sparse(s.scalar_mul(scalar)),
        }
        .normalized()
    }

    /// The paper's `diag(e)`: a diagonal matrix is the canonical sparse
    /// value (`nnz ≤ n` of `n²` entries), so the result is always built in
    /// CSR before normalization.
    pub fn diag(&self) -> Result<Self> {
        Ok(MatrixRepr::Sparse(self.to_sparse().diag()?).normalized())
    }

    /// Fused `diag(scale) · self`, dispatched to the matching
    /// representation's fused kernel; the `n × 1` scale vector is converted
    /// (an `O(n)` copy) when its representation differs from the matrix's.
    /// Values agree exactly with `scale.diag()?.matmul(self)` — both
    /// kernels compute the lawful `s ⊙ a` per entry.
    pub fn scale_rows(&self, scale: &Self) -> Result<Self> {
        use MatrixRepr::{Dense, Sparse};
        let out = match (self, scale) {
            (Dense(m), Dense(v)) => Dense(m.scale_rows(v)?),
            (Dense(m), Sparse(v)) => Dense(m.scale_rows(&v.to_dense())?),
            (Sparse(m), Sparse(v)) => Sparse(m.scale_rows(v)?),
            (Sparse(m), Dense(v)) => Sparse(m.scale_rows(&SparseMatrix::from_dense(v))?),
        };
        Ok(out.normalized())
    }

    /// Fused `self · diag(scale)`; see [`MatrixRepr::scale_rows`].
    pub fn scale_cols(&self, scale: &Self) -> Result<Self> {
        use MatrixRepr::{Dense, Sparse};
        let out = match (self, scale) {
            (Dense(m), Dense(v)) => Dense(m.scale_cols(v)?),
            (Dense(m), Sparse(v)) => Dense(m.scale_cols(&v.to_dense())?),
            (Sparse(m), Sparse(v)) => Sparse(m.scale_cols(v)?),
            (Sparse(m), Dense(v)) => Sparse(m.scale_cols(&SparseMatrix::from_dense(v))?),
        };
        Ok(out.normalized())
    }

    /// The trace of a square matrix.
    pub fn trace(&self) -> Result<K> {
        match self {
            MatrixRepr::Dense(d) => d.trace(),
            MatrixRepr::Sparse(s) => s.trace(),
        }
    }

    /// `Aᵏ` for a square matrix, re-selecting the representation after every
    /// multiplication (powers of sparse matrices densify as paths multiply).
    pub fn pow(&self, k: usize) -> Result<Self> {
        let (rows, cols) = self.shape();
        if rows != cols {
            return Err(crate::MatrixError::NotSquare {
                shape: self.shape(),
            });
        }
        let mut acc = MatrixRepr::Sparse(SparseMatrix::identity(rows)).normalized();
        for _ in 0..k {
            acc = acc.matmul(self)?;
        }
        Ok(acc)
    }

    /// Pointwise combination of `k ≥ 1` same-shaped matrices via `f`.
    /// Arbitrary pointwise functions need not preserve zeros, so this
    /// evaluates densely and re-normalizes.
    pub fn zip_with<F: Fn(&[K]) -> K>(matrices: &[&Self], f: F) -> Result<Self> {
        let dense: Vec<Matrix<K>> = matrices.iter().map(|m| m.to_dense()).collect();
        let refs: Vec<&Matrix<K>> = dense.iter().collect();
        Ok(MatrixRepr::Dense(Matrix::zip_with(&refs, f)?).normalized())
    }
}

impl<K: Ring> MatrixRepr<K> {
    /// Entrywise negation.
    pub fn neg(&self) -> Self {
        match self {
            MatrixRepr::Dense(d) => MatrixRepr::Dense(d.neg()),
            MatrixRepr::Sparse(s) => MatrixRepr::Sparse(s.neg()),
        }
    }

    /// Matrix subtraction.
    pub fn sub(&self, other: &Self) -> Result<Self> {
        self.add(&other.neg())
    }
}

impl<K: Semiring> PartialEq for MatrixRepr<K> {
    fn eq(&self, other: &Self) -> bool {
        use MatrixRepr::{Dense, Sparse};
        match (self, other) {
            (Dense(a), Dense(b)) => a == b,
            (Sparse(a), Sparse(b)) => a == b,
            // Mixed representations compare semantically.
            (a, b) => a.shape() == b.shape() && a.to_dense() == b.to_dense(),
        }
    }
}

impl<K: Semiring> fmt::Debug for MatrixRepr<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatrixRepr::Dense(d) => write!(f, "[dense] {d:?}"),
            MatrixRepr::Sparse(s) => write!(f, "[sparse] {s:?}"),
        }
    }
}

impl<K: Semiring> fmt::Display for MatrixRepr<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatrixRepr::Dense(d) => write!(f, "[dense] {}x{} nnz={}", d.rows(), d.cols(), d.nnz()),
            MatrixRepr::Sparse(s) => write!(f, "[sparse] {s}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matlang_semiring::{Boolean, Real};

    fn dense(rows: &[&[f64]]) -> Matrix<Real> {
        Matrix::from_f64_rows(rows).unwrap()
    }

    #[test]
    fn small_matrices_stay_dense() {
        let id = MatrixRepr::<Real>::from_sparse_auto(SparseMatrix::identity(4));
        assert!(!id.is_sparse(), "4x4 identity is below the adaptive floor");
        assert_eq!(id.backend_name(), "dense");
    }

    #[test]
    fn small_dense_values_are_moved_not_copied() {
        let row = dense(&[&[1.0, 0.0, 2.0]]);
        let entries = row.entries().as_ptr();
        match MatrixRepr::Dense(row).normalized() {
            MatrixRepr::Dense(d) => assert_eq!(d.entries().as_ptr(), entries),
            MatrixRepr::Sparse(_) => panic!("a 1 × 3 value stays dense"),
        }
    }

    #[test]
    fn sparse_values_above_the_floor_stay_sparse() {
        let id = MatrixRepr::<Real>::from_sparse_auto(SparseMatrix::identity(32));
        assert!(id.is_sparse());
        assert_eq!(id.backend_name(), "sparse");
        let dense_all = MatrixRepr::from_dense_auto(Matrix::<Real>::all_ones(32, 32));
        assert!(!dense_all.is_sparse());
    }

    #[test]
    fn dense_results_sparsify_below_threshold() {
        let mut m: Matrix<Real> = Matrix::zeros(16, 16);
        m.set(3, 4, Real(1.0)).unwrap();
        let repr = MatrixRepr::from_dense_auto(m);
        assert!(repr.is_sparse());
        assert_eq!(repr.nnz(), 1);
    }

    #[test]
    fn sparse_results_densify_above_threshold() {
        let dense_block = Matrix::<Real>::all_ones(16, 16);
        let repr = MatrixRepr::from_sparse_auto(SparseMatrix::from_dense(&dense_block));
        assert!(!repr.is_sparse());
    }

    #[test]
    fn mixed_representation_equality_is_semantic() {
        let d = dense(&[&[1.0, 0.0], &[0.0, 2.0]]);
        let a = MatrixRepr::Dense(d.clone());
        let b = MatrixRepr::Sparse(SparseMatrix::from_dense(&d));
        assert_eq!(a, b);
        assert_eq!(b, a);
        let c = MatrixRepr::Dense(dense(&[&[1.0, 0.0], &[0.0, 3.0]]));
        assert_ne!(a, c);
    }

    #[test]
    fn ops_agree_with_dense_backend() {
        let a = dense(&[&[1.0, 0.0, 2.0], &[0.0, 3.0, 0.0], &[4.0, 0.0, 5.0]]);
        let b = dense(&[&[0.0, 1.0, 0.0], &[1.0, 0.0, 1.0], &[0.0, 1.0, 0.0]]);
        for (ra, rb) in [
            (MatrixRepr::Dense(a.clone()), MatrixRepr::Dense(b.clone())),
            (
                MatrixRepr::Sparse(SparseMatrix::from_dense(&a)),
                MatrixRepr::Dense(b.clone()),
            ),
            (
                MatrixRepr::Dense(a.clone()),
                MatrixRepr::Sparse(SparseMatrix::from_dense(&b)),
            ),
            (
                MatrixRepr::Sparse(SparseMatrix::from_dense(&a)),
                MatrixRepr::Sparse(SparseMatrix::from_dense(&b)),
            ),
        ] {
            assert_eq!(ra.add(&rb).unwrap().to_dense(), a.add(&b).unwrap());
            assert_eq!(ra.matmul(&rb).unwrap().to_dense(), a.matmul(&b).unwrap());
            assert_eq!(
                ra.hadamard(&rb).unwrap().to_dense(),
                a.hadamard(&b).unwrap()
            );
        }
        let repr = MatrixRepr::Sparse(SparseMatrix::from_dense(&a));
        assert_eq!(repr.transpose().to_dense(), a.transpose());
        assert_eq!(repr.trace().unwrap(), a.trace().unwrap());
        assert_eq!(repr.pow(2).unwrap().to_dense(), a.pow(2).unwrap());
        assert_eq!(repr.get(0, 2).unwrap(), Real(2.0));
        assert!(!repr.is_zero());
    }

    #[test]
    fn diag_is_built_sparse() {
        let v = MatrixRepr::Dense(Matrix::<Real>::ones_vector(32));
        let d = v.diag().unwrap();
        assert!(d.is_sparse());
        assert_eq!(d.to_dense(), Matrix::identity(32));
    }

    #[test]
    fn boolean_power_densifies_as_reachability_saturates() {
        // A directed cycle: A^k stays a permutation (sparse); but
        // (I + A)^k saturates towards all-ones and must flip to dense.
        let n = 16;
        let mut cycle: Matrix<Boolean> = Matrix::zeros(n, n);
        for i in 0..n {
            cycle.set(i, (i + 1) % n, Boolean(true)).unwrap();
        }
        let a = MatrixRepr::from_dense_auto(cycle);
        assert!(a.is_sparse());
        let closure_arg = a
            .add(&MatrixRepr::from_sparse_auto(SparseMatrix::identity(n)))
            .unwrap();
        let saturated = closure_arg.pow(n).unwrap();
        assert!(!saturated.is_sparse(), "saturated reachability is dense");
        assert_eq!(saturated.nnz(), n * n);
    }

    #[test]
    fn subtraction_over_a_ring() {
        use matlang_semiring::IntRing;
        let a = MatrixRepr::Dense(Matrix::from_rows(vec![vec![IntRing(3), IntRing(1)]]).unwrap());
        let diff = a.sub(&a).unwrap();
        assert!(diff.is_zero());
    }

    #[test]
    fn set_entry_keeps_representation() {
        let mut d = MatrixRepr::Dense(dense(&[&[1.0, 0.0], &[0.0, 2.0]]));
        d.set_entry(0, 1, Real(3.0)).unwrap();
        assert!(!d.is_sparse(), "point updates must not flip representation");
        assert_eq!(d.get(0, 1).unwrap(), Real(3.0));
        let mut s = MatrixRepr::<Real>::Sparse(SparseMatrix::identity(16));
        s.set_entry(3, 4, Real(5.0)).unwrap();
        assert!(s.is_sparse());
        assert_eq!(s.nnz(), 17);
    }

    #[test]
    fn display_and_debug_mention_backend() {
        let d = MatrixRepr::Dense(dense(&[&[1.0]]));
        assert!(format!("{d}").contains("[dense]"));
        let s = MatrixRepr::<Real>::Sparse(SparseMatrix::identity(2));
        assert!(format!("{s:?}").contains("[sparse]"));
    }
}
