//! The storage abstraction behind the evaluator: a common interface over
//! the dense and the adaptive matrix representation.
//!
//! The MATLANG semantics of Sections 2, 3 and 6 only ever manipulate
//! matrices through a fixed operation set (transpose, product, addition,
//! Hadamard product, scalar multiplication, `1(e)`, `diag(e)`, canonical
//! vectors and pointwise function application).  [`MatrixStorage`] captures
//! exactly that set, so the evaluator in `matlang_core` — and everything
//! built on it (graph algorithms, the RA⁺_K and WL translations) — is
//! generic over the backing representation.  It has two implementers:
//!
//! * [`Matrix`] — dense row-major storage, the reference every parity
//!   suite compares against;
//! * [`MatrixRepr`] — adaptive storage that picks dense or CSR per result
//!   using a density threshold; its `Sparse` arms call the inherent CSR
//!   kernels of [`SparseMatrix`], which the suites test through them.

use crate::repr::MatrixRepr;
use crate::sparse::SparseMatrix;
use crate::{Canonical, Matrix, Result};
use matlang_semiring::Semiring;
use std::fmt::Debug;

/// A matrix representation the MATLANG evaluator can run on.
///
/// Implemented by [`Matrix`] and [`MatrixRepr`].  The two must agree
/// exactly: for any operation below, converting the operands with
/// [`from_dense`](MatrixStorage::from_dense), applying the operation, and
/// converting back with [`to_dense`](MatrixStorage::to_dense) must produce
/// identical dense matrices (the property suites in `crates/matrix/tests`
/// and `crates/core/tests` check this).
pub trait MatrixStorage: Clone + PartialEq + Debug + Send + Sync + Sized + 'static {
    /// The semiring of entries.
    type Elem: Semiring;

    /// The `rows × cols` zero matrix.
    fn zeros(rows: usize, cols: usize) -> Self;

    /// The `n × n` identity matrix.
    fn identity(n: usize) -> Self;

    /// A `1 × 1` matrix holding a single value.
    fn scalar(value: Self::Elem) -> Self;

    /// The `n × 1` ones vector (paper notation `1(e)`).
    fn ones_vector(n: usize) -> Self;

    /// The `i`-th canonical vector `bᵢⁿ` (0-indexed), used by loop semantics.
    fn canonical(n: usize, i: usize) -> Result<Self>;

    /// Exact conversion from dense storage.
    fn from_dense(dense: Matrix<Self::Elem>) -> Self;

    /// Exact conversion to dense storage.
    fn to_dense(&self) -> Matrix<Self::Elem>;

    /// Exact conversion from sparse (COO) storage.  Backends that can hold
    /// sparse data directly override this to avoid densifying.
    fn from_sparse(sparse: SparseMatrix<Self::Elem>) -> Self
    where
        Self: Sized,
    {
        Self::from_dense(sparse.to_dense())
    }

    /// Number of rows.
    fn rows(&self) -> usize;

    /// Number of columns.
    fn cols(&self) -> usize;

    /// The shape `(rows, cols)`.
    fn shape(&self) -> (usize, usize) {
        (self.rows(), self.cols())
    }

    /// Whether this is a `1 × 1` matrix.
    fn is_scalar(&self) -> bool {
        self.shape() == (1, 1)
    }

    /// Whether this is a column vector (`n × 1`).
    fn is_vector(&self) -> bool {
        self.cols() == 1
    }

    /// Whether this matrix is square.
    fn is_square(&self) -> bool {
        self.rows() == self.cols()
    }

    /// The value of a `1 × 1` matrix.
    fn as_scalar(&self) -> Result<Self::Elem>;

    /// Number of non-zero entries.
    fn nnz(&self) -> usize;

    /// Fraction of entries that are non-zero (0 for an empty shape).
    fn density(&self) -> f64 {
        let total = self.rows() * self.cols();
        if total == 0 {
            0.0
        } else {
            self.nnz() as f64 / total as f64
        }
    }

    /// Heap bytes held by this matrix's backing buffers — exact
    /// (`rows·cols·size_of::<K>()` dense; `indptr`/`indices`/`values` for
    /// CSR; the active variant for the adaptive wrapper) and O(1), so
    /// resource accounting can re-read it on every mutation
    /// (`storage::tests::heap_bytes_exact_per_backend`).
    fn heap_bytes(&self) -> usize;

    /// Visits every non-zero entry as `(row, col, &value)` in row-major
    /// order, without materialising them — what a consumer that streams
    /// the entries somewhere else (a socket, a counter) wants.
    fn for_each_nonzero(&self, f: impl FnMut(usize, usize, &Self::Elem));

    /// The non-zero entries as owned `(row, col, value)` triples in
    /// row-major order.
    fn nonzero_entries(&self) -> Vec<(usize, usize, Self::Elem)> {
        let mut entries = Vec::with_capacity(self.nnz());
        self.for_each_nonzero(|i, j, v| entries.push((i, j, v.clone())));
        entries
    }

    /// Matrix transpose `eᵀ`.
    fn transpose(&self) -> Self;

    /// Matrix addition `e₁ + e₂` (entrywise `⊕`).
    fn add(&self, other: &Self) -> Result<Self>;

    /// Matrix product `e₁ · e₂`.
    fn matmul(&self, other: &Self) -> Result<Self>;

    /// Hadamard (pointwise) product `e₁ ∘ e₂` (entrywise `⊙`).
    fn hadamard(&self, other: &Self) -> Result<Self>;

    /// Sets one entry **in place** — the incremental-update hook used by
    /// streaming/mutating workloads (e.g. the query server's `UPDATE`).
    /// Setting a zero clears the entry; backends must keep their structural
    /// invariants (CSR stores no explicit zeros) without rebuilding the
    /// matrix.
    fn set_entry(&mut self, row: usize, col: usize, value: Self::Elem) -> Result<()>;

    /// Scalar multiplication: every entry multiplied by `scalar`.
    fn scalar_mul(&self, scalar: &Self::Elem) -> Self;

    /// The paper's `diag(e)`: an `n × 1` vector becomes the `n × n` diagonal
    /// matrix.
    fn diag(&self) -> Result<Self>;

    /// Fused `diag(scale) · self` for an `n × 1` vector `scale` — the
    /// kernel behind the planner's diag-pushdown rewrite, which turns
    /// `diag(v) · A` into a row scaling instead of materializing the
    /// `n × n` diagonal and multiplying.  It must equal
    /// `scale.diag()?.matmul(self)`, including the error cases and their
    /// order: a non-vector `scale` fails like
    /// [`diag`](MatrixStorage::diag), a row-count mismatch fails like the
    /// product would (`storage::tests::backend_agreement`).
    fn scale_rows(&self, scale: &Self) -> Result<Self>;

    /// Fused `self · diag(scale)` for an `m × 1` vector `scale`: the
    /// column-scaling mirror of [`scale_rows`](MatrixStorage::scale_rows).
    /// It must equal `self.matmul(&scale.diag()?)`, errors included
    /// (`storage::tests::backend_agreement`).
    fn scale_cols(&self, scale: &Self) -> Result<Self>;

    /// Fused `(self · other) ∘ mask` — the kernel behind the planner's
    /// masked-product rewrite of a Hadamard product whose operand is a
    /// matrix product nothing else reads.  Implementations must agree
    /// exactly with the default (multiply, then mask), including the two
    /// shape errors and their order.  Dense storage keeps the default;
    /// [`MatrixRepr`] overrides it for three CSR operands with a pass that
    /// accumulates only at the mask's stored positions and never builds
    /// the product.
    fn matmul_masked(&self, other: &Self, mask: &Self) -> Result<Self> {
        self.matmul(other)?.hadamard(mask)
    }

    /// `bᵢᵀ·self`, `self·bⱼ` or `bᵢᵀ·self·bⱼ` for canonical vectors `bᵢ`,
    /// `bⱼ` (either absent): a row, a column or one entry of `self` — the
    /// kernel behind the planner's loop-index lowering (see
    /// [`crate::index`]).  It must equal the unfused product with
    /// [`Canonical::vector`], entry for entry and error for error
    /// (`index_kernels`).
    fn select(&self, row: Option<Canonical>, col: Option<Canonical>) -> Result<Self>;

    /// `bᵢ·self` for a `1 × m` row, `self·bⱼᵀ` for an `n × 1` column (or
    /// `bᵢ·self·bⱼᵀ` for a scalar — the unit matrix when it is one): the
    /// operand placed as row `i`, column `j` or entry `(i, j)` of a zero
    /// matrix.  It must equal the unfused product (`index_kernels`).
    fn place(&self, row: Option<Canonical>, col: Option<Canonical>) -> Result<Self>;

    /// The point update `self + scalar × (bᵢ·bⱼᵀ)`.  It must equal the
    /// unfused expression (`index_kernels`).
    fn point_update(&self, scalar: &Self::Elem, row: Canonical, col: Canonical) -> Result<Self>;

    /// [`point_update`](MatrixStorage::point_update) written into `self`
    /// — what lets a loop's accumulator take its point update without a
    /// copy.  It must equal `point_update`'s result, assigned
    /// (`scalar_kernels`).
    fn point_update_in_place(
        &mut self,
        scalar: &Self::Elem,
        row: Canonical,
        col: Canonical,
    ) -> Result<()>;

    /// [`add`](MatrixStorage::add) written into `self`.  It must equal
    /// `add`'s result, assigned (`scalar_kernels`).
    fn add_in_place(&mut self, other: &Self) -> Result<()>;

    // `1 × 1` values unboxed.  A caller may hold `k` in place of
    // `Self::scalar(k)`; the hooks below must compute on such `k`s what the
    // kernels compute on the boxed values, reading the `1 × 1` result back
    // with `as_scalar` — bit for bit, errors included (`scalar_kernels`).

    /// `Some(k)` only when `self` *is* `Self::scalar(k)`: same shape,
    /// representation and entry.
    fn unboxed_scalar(&self) -> Option<Self::Elem>;

    /// `bᵢᵀ·self·bⱼ` unboxed: it must equal the value of
    /// [`select`](MatrixStorage::select)'s `1 × 1` result.
    fn select_entry(&self, row: Canonical, col: Canonical) -> Result<Self::Elem>;

    /// The product of `Self::scalar(left)` and `Self::scalar(right)`,
    /// unboxed: it must equal that `matmul`'s `as_scalar`.
    fn scalar_product(left: &Self::Elem, right: &Self::Elem) -> Self::Elem;

    /// The sum of `Self::scalar(left)` and `Self::scalar(right)`, unboxed:
    /// it must equal that `add`'s `as_scalar`.
    fn scalar_sum(left: &Self::Elem, right: &Self::Elem) -> Self::Elem;

    /// The trace of a square matrix.
    fn trace(&self) -> Result<Self::Elem>;

    /// `Aᵏ` for a square matrix (`k = 0` gives the identity).
    fn pow(&self, k: usize) -> Result<Self>;

    /// Pointwise combination of `k ≥ 1` same-shaped matrices via `f` — the
    /// semantics of MATLANG's `f(e₁, …, e_k)` operator.  Because an
    /// arbitrary `f` need not map zeros to zero, sparse backends evaluate
    /// this densely and re-compress afterwards.
    fn zip_with<F: Fn(&[Self::Elem]) -> Self::Elem>(matrices: &[&Self], f: F) -> Result<Self>;

    /// Reads one entry (zero if structurally absent) — the random-access
    /// hook behind delta propagation's entrywise rules (Hadamard, row/col
    /// scaling need `other`-side values only at the delta's support).
    fn get_entry(&self, row: usize, col: usize) -> Result<Self::Elem>;

    /// Masked merge: a new matrix equal to `self` except that every entry
    /// in `delta`'s support becomes `self[i,j] ⊕ delta[i,j]`.  This is the
    /// kernel that folds an accumulated delta overlay back into a cached
    /// value; under an idempotent `⊕` and an insert-only update it equals
    /// full recomputation.  The default goes entry by entry through
    /// [`get_entry`](MatrixStorage::get_entry)/[`set_entry`](MatrixStorage::set_entry)
    /// (right for dense storage); [`MatrixRepr`]'s CSR arm is one
    /// `O(nnz + Δ)` two-pointer merge.
    fn apply_delta(&self, delta: &SparseMatrix<Self::Elem>) -> Result<Self> {
        if self.shape() != delta.shape() {
            return Err(crate::MatrixError::ShapeMismatch {
                left: self.shape(),
                right: delta.shape(),
                op: "apply_delta",
            });
        }
        let mut out = self.clone();
        for (i, j, v) in delta.iter_entries() {
            let merged = out.get_entry(i, j)?.add(v);
            out.set_entry(i, j, merged)?;
        }
        Ok(out)
    }

    /// Sparse-delta × matrix product `delta · self`, returned sparse.
    /// For a point update this is the `Δ(A·B) = ΔA·B` rule: only the
    /// delta's few rows of the product are recomputed, costing
    /// `O(Δnnz · row-degree)` instead of a full product.  It must equal
    /// the full product against the densified delta, errors included
    /// (`storage::tests::delta_kernel_agreement`).
    fn matmul_delta_pre(
        &self,
        delta: &SparseMatrix<Self::Elem>,
    ) -> Result<SparseMatrix<Self::Elem>>;

    /// Matrix × sparse-delta product `self · delta`, returned sparse —
    /// the mirror rule `Δ(A·B) = A·ΔB`, cheap through a big CSR product
    /// ([`SparseMatrix::matmul_delta_post`]).  It must equal the full
    /// product against the densified delta, errors included
    /// (`storage::tests::delta_kernel_agreement`).
    fn matmul_delta_post(
        &self,
        delta: &SparseMatrix<Self::Elem>,
    ) -> Result<SparseMatrix<Self::Elem>>;
}

impl<K: Semiring> MatrixStorage for Matrix<K> {
    type Elem = K;

    fn zeros(rows: usize, cols: usize) -> Self {
        Matrix::zeros(rows, cols)
    }

    fn identity(n: usize) -> Self {
        Matrix::identity(n)
    }

    fn scalar(value: K) -> Self {
        Matrix::scalar(value)
    }

    fn ones_vector(n: usize) -> Self {
        Matrix::ones_vector(n)
    }

    fn canonical(n: usize, i: usize) -> Result<Self> {
        Matrix::canonical(n, i)
    }

    fn from_dense(dense: Matrix<K>) -> Self {
        dense
    }

    fn to_dense(&self) -> Matrix<K> {
        self.clone()
    }

    fn rows(&self) -> usize {
        Matrix::rows(self)
    }

    fn cols(&self) -> usize {
        Matrix::cols(self)
    }

    fn as_scalar(&self) -> Result<K> {
        Matrix::as_scalar(self)
    }

    fn nnz(&self) -> usize {
        Matrix::nnz(self)
    }

    fn heap_bytes(&self) -> usize {
        Matrix::heap_bytes(self)
    }

    fn for_each_nonzero(&self, mut f: impl FnMut(usize, usize, &K)) {
        self.iter_entries()
            .filter(|(_, _, v)| !v.is_zero())
            .for_each(|(i, j, v)| f(i, j, v));
    }

    fn transpose(&self) -> Self {
        Matrix::transpose(self)
    }

    fn add(&self, other: &Self) -> Result<Self> {
        Matrix::add(self, other)
    }

    fn matmul(&self, other: &Self) -> Result<Self> {
        Matrix::matmul(self, other)
    }

    fn hadamard(&self, other: &Self) -> Result<Self> {
        Matrix::hadamard(self, other)
    }

    fn set_entry(&mut self, row: usize, col: usize, value: K) -> Result<()> {
        Matrix::set(self, row, col, value)
    }

    fn scalar_mul(&self, scalar: &K) -> Self {
        Matrix::scalar_mul(self, scalar)
    }

    fn diag(&self) -> Result<Self> {
        Matrix::diag(self)
    }

    fn scale_rows(&self, scale: &Self) -> Result<Self> {
        Matrix::scale_rows(self, scale)
    }

    fn scale_cols(&self, scale: &Self) -> Result<Self> {
        Matrix::scale_cols(self, scale)
    }

    fn select(&self, row: Option<Canonical>, col: Option<Canonical>) -> Result<Self> {
        Matrix::select(self, row, col)
    }

    fn place(&self, row: Option<Canonical>, col: Option<Canonical>) -> Result<Self> {
        Matrix::place(self, row, col)
    }

    fn point_update(&self, scalar: &K, row: Canonical, col: Canonical) -> Result<Self> {
        let mut out = self.clone();
        Matrix::point_update_in_place(&mut out, scalar, row, col)?;
        Ok(out)
    }

    fn point_update_in_place(&mut self, scalar: &K, row: Canonical, col: Canonical) -> Result<()> {
        Matrix::point_update_in_place(self, scalar, row, col)
    }

    fn add_in_place(&mut self, other: &Self) -> Result<()> {
        Matrix::add_in_place(self, other)
    }

    fn unboxed_scalar(&self) -> Option<K> {
        Matrix::as_scalar(self).ok()
    }

    fn select_entry(&self, row: Canonical, col: Canonical) -> Result<K> {
        Matrix::select_entry(self, row, col)
    }

    fn scalar_product(left: &K, right: &K) -> K {
        // The dense product's zero-skip, for one term.
        if left.is_zero() {
            K::zero()
        } else {
            K::zero().add(&left.mul(right))
        }
    }

    fn scalar_sum(left: &K, right: &K) -> K {
        left.add(right)
    }

    fn trace(&self) -> Result<K> {
        Matrix::trace(self)
    }

    fn pow(&self, k: usize) -> Result<Self> {
        Matrix::pow(self, k)
    }

    fn zip_with<F: Fn(&[K]) -> K>(matrices: &[&Self], f: F) -> Result<Self> {
        Matrix::zip_with(matrices, f)
    }

    fn get_entry(&self, row: usize, col: usize) -> Result<K> {
        Matrix::get(self, row, col).cloned()
    }

    fn matmul_delta_pre(&self, delta: &SparseMatrix<K>) -> Result<SparseMatrix<K>> {
        let (rows, cols) = self.shape();
        if delta.cols() != rows {
            return Err(crate::MatrixError::InnerDimensionMismatch {
                left: delta.shape(),
                right: self.shape(),
            });
        }
        let mut out = crate::CsrBuilder::new(delta.rows(), cols, delta.nnz());
        let mut acc: Vec<K> = vec![K::zero(); cols];
        for i in 0..delta.rows() {
            let (ks, vs) = delta.row_entries(i);
            if !ks.is_empty() {
                for slot in acc.iter_mut() {
                    *slot = K::zero();
                }
                for (k, v) in ks.iter().zip(vs) {
                    let row = &self.entries()[k * cols..(k + 1) * cols];
                    for (j, m) in row.iter().enumerate() {
                        if !m.is_zero() {
                            acc[j] = acc[j].add(&v.mul(m));
                        }
                    }
                }
                for (j, v) in acc.iter().enumerate() {
                    if !v.is_zero() {
                        out.push(j, v.clone());
                    }
                }
            }
            out.finish_row();
        }
        Ok(out.build())
    }

    fn matmul_delta_post(&self, delta: &SparseMatrix<K>) -> Result<SparseMatrix<K>> {
        let (rows, cols) = self.shape();
        if cols != delta.rows() {
            return Err(crate::MatrixError::InnerDimensionMismatch {
                left: self.shape(),
                right: delta.shape(),
            });
        }
        let entries: Vec<(usize, usize, &K)> = delta.iter_entries().collect();
        let mut out = crate::CsrBuilder::new(rows, delta.cols(), entries.len().max(1));
        let mut acc: Vec<(usize, K)> = Vec::new();
        for i in 0..rows {
            let row = &self.entries()[i * cols..(i + 1) * cols];
            acc.clear();
            for &(k, j, dv) in &entries {
                let m = &row[k];
                if m.is_zero() {
                    continue;
                }
                let term = m.mul(dv);
                match acc.iter_mut().find(|(jj, _)| *jj == j) {
                    Some((_, a)) => *a = a.add(&term),
                    None => acc.push((j, term)),
                }
            }
            acc.sort_by_key(|&(j, _)| j);
            for (j, v) in acc.drain(..) {
                out.push(j, v);
            }
            out.finish_row();
        }
        Ok(out.build())
    }
}

impl<K: Semiring> MatrixStorage for MatrixRepr<K> {
    type Elem = K;

    fn zeros(rows: usize, cols: usize) -> Self {
        MatrixRepr::Sparse(SparseMatrix::zeros(rows, cols)).normalized()
    }

    fn identity(n: usize) -> Self {
        MatrixRepr::Sparse(SparseMatrix::identity(n)).normalized()
    }

    fn scalar(value: K) -> Self {
        MatrixRepr::Dense(Matrix::scalar(value))
    }

    fn ones_vector(n: usize) -> Self {
        MatrixRepr::Dense(Matrix::ones_vector(n))
    }

    fn canonical(n: usize, i: usize) -> Result<Self> {
        Ok(MatrixRepr::Sparse(SparseMatrix::canonical(n, i)?).normalized())
    }

    fn from_dense(dense: Matrix<K>) -> Self {
        MatrixRepr::Dense(dense).normalized()
    }

    fn from_sparse(sparse: SparseMatrix<K>) -> Self {
        MatrixRepr::from_sparse_auto(sparse)
    }

    fn to_dense(&self) -> Matrix<K> {
        MatrixRepr::to_dense(self)
    }

    fn rows(&self) -> usize {
        MatrixRepr::rows(self)
    }

    fn cols(&self) -> usize {
        MatrixRepr::cols(self)
    }

    fn as_scalar(&self) -> Result<K> {
        MatrixRepr::as_scalar(self)
    }

    fn nnz(&self) -> usize {
        MatrixRepr::nnz(self)
    }

    fn heap_bytes(&self) -> usize {
        MatrixRepr::heap_bytes(self)
    }

    fn for_each_nonzero(&self, mut f: impl FnMut(usize, usize, &K)) {
        match self {
            MatrixRepr::Dense(d) => d.for_each_nonzero(f),
            MatrixRepr::Sparse(s) => s.iter_entries().for_each(|(i, j, v)| f(i, j, v)),
        }
    }

    fn transpose(&self) -> Self {
        MatrixRepr::transpose(self)
    }

    fn add(&self, other: &Self) -> Result<Self> {
        MatrixRepr::add(self, other)
    }

    fn matmul(&self, other: &Self) -> Result<Self> {
        MatrixRepr::matmul(self, other)
    }

    fn hadamard(&self, other: &Self) -> Result<Self> {
        MatrixRepr::hadamard(self, other)
    }

    fn set_entry(&mut self, row: usize, col: usize, value: K) -> Result<()> {
        MatrixRepr::set_entry(self, row, col, value)
    }

    fn scalar_mul(&self, scalar: &K) -> Self {
        MatrixRepr::scalar_mul(self, scalar)
    }

    fn diag(&self) -> Result<Self> {
        MatrixRepr::diag(self)
    }

    fn scale_rows(&self, scale: &Self) -> Result<Self> {
        MatrixRepr::scale_rows(self, scale)
    }

    fn scale_cols(&self, scale: &Self) -> Result<Self> {
        MatrixRepr::scale_cols(self, scale)
    }

    fn matmul_masked(&self, other: &Self, mask: &Self) -> Result<Self> {
        MatrixRepr::matmul_masked(self, other, mask)
    }

    fn select(&self, row: Option<Canonical>, col: Option<Canonical>) -> Result<Self> {
        MatrixRepr::select(self, row, col)
    }

    fn place(&self, row: Option<Canonical>, col: Option<Canonical>) -> Result<Self> {
        MatrixRepr::place(self, row, col)
    }

    fn point_update(&self, scalar: &K, row: Canonical, col: Canonical) -> Result<Self> {
        let mut out = self.clone();
        MatrixRepr::point_update_in_place(&mut out, scalar, row, col)?;
        Ok(out)
    }

    fn point_update_in_place(&mut self, scalar: &K, row: Canonical, col: Canonical) -> Result<()> {
        MatrixRepr::point_update_in_place(self, scalar, row, col)
    }

    fn add_in_place(&mut self, other: &Self) -> Result<()> {
        MatrixRepr::add_in_place(self, other)
    }

    // `scalar` is dense, and a `1 × 1` result normalizes to dense: the
    // unboxed values are the dense backend's.

    fn unboxed_scalar(&self) -> Option<K> {
        match self {
            MatrixRepr::Dense(d) => d.unboxed_scalar(),
            MatrixRepr::Sparse(_) => None,
        }
    }

    fn select_entry(&self, row: Canonical, col: Canonical) -> Result<K> {
        MatrixRepr::select_entry(self, row, col)
    }

    fn scalar_product(left: &K, right: &K) -> K {
        Matrix::scalar_product(left, right)
    }

    fn scalar_sum(left: &K, right: &K) -> K {
        Matrix::scalar_sum(left, right)
    }

    fn trace(&self) -> Result<K> {
        MatrixRepr::trace(self)
    }

    fn pow(&self, k: usize) -> Result<Self> {
        MatrixRepr::pow(self, k)
    }

    fn zip_with<F: Fn(&[K]) -> K>(matrices: &[&Self], f: F) -> Result<Self> {
        MatrixRepr::zip_with(matrices, f)
    }

    fn get_entry(&self, row: usize, col: usize) -> Result<K> {
        MatrixRepr::get(self, row, col)
    }

    fn apply_delta(&self, delta: &SparseMatrix<K>) -> Result<Self> {
        // Keep the current representation: a patched cache entry stays in
        // the layout the density rule gave it when it was computed.
        match self {
            MatrixRepr::Dense(d) => Ok(MatrixRepr::Dense(MatrixStorage::apply_delta(d, delta)?)),
            MatrixRepr::Sparse(s) => Ok(MatrixRepr::Sparse(s.add(delta)?)),
        }
    }

    fn matmul_delta_pre(&self, delta: &SparseMatrix<K>) -> Result<SparseMatrix<K>> {
        match self {
            MatrixRepr::Dense(d) => MatrixStorage::matmul_delta_pre(d, delta),
            MatrixRepr::Sparse(s) => delta.matmul(s),
        }
    }

    fn matmul_delta_post(&self, delta: &SparseMatrix<K>) -> Result<SparseMatrix<K>> {
        match self {
            MatrixRepr::Dense(d) => MatrixStorage::matmul_delta_post(d, delta),
            MatrixRepr::Sparse(s) => s.matmul_delta_post(delta),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matlang_semiring::Real;

    /// CSR operands: the adaptive backend's `Sparse` arms, which run the
    /// [`SparseMatrix`] kernels.  (`from_dense` keeps these small shapes
    /// dense.)
    fn csr(m: Matrix<Real>) -> MatrixRepr<Real> {
        MatrixRepr::Sparse(SparseMatrix::from_dense(&m))
    }

    /// Every operation on operands built by `lift`, against the dense one.
    fn backend_agreement<M: MatrixStorage<Elem = Real>>(lift: fn(Matrix<Real>) -> M) {
        let a = Matrix::from_f64_rows(&[&[1.0, 0.0], &[2.0, 3.0]]).unwrap();
        let b = Matrix::from_f64_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let ma = lift(a.clone());
        let mb = lift(b.clone());
        assert_eq!(ma.to_dense(), a);
        assert_eq!(ma.shape(), (2, 2));
        assert!(ma.is_square() && !ma.is_vector() && !ma.is_scalar());
        assert_eq!(ma.add(&mb).unwrap().to_dense(), a.add(&b).unwrap());
        assert_eq!(ma.matmul(&mb).unwrap().to_dense(), a.matmul(&b).unwrap());
        assert_eq!(
            ma.hadamard(&mb).unwrap().to_dense(),
            a.hadamard(&b).unwrap()
        );
        assert_eq!(ma.transpose().to_dense(), a.transpose());
        assert_eq!(ma.trace().unwrap(), a.trace().unwrap());
        assert_eq!(ma.pow(2).unwrap().to_dense(), a.pow(2).unwrap());
        assert_eq!(
            ma.scalar_mul(&Real(2.0)).to_dense(),
            a.scalar_mul(&Real(2.0))
        );
        assert_eq!(M::identity(2).to_dense(), Matrix::identity(2));
        assert_eq!(M::zeros(2, 3).to_dense(), Matrix::zeros(2, 3));
        assert_eq!(M::ones_vector(3).to_dense(), Matrix::ones_vector(3));
        assert_eq!(
            M::canonical(3, 1).unwrap().to_dense(),
            Matrix::canonical(3, 1).unwrap()
        );
        assert_eq!(M::scalar(Real(5.0)).as_scalar().unwrap(), Real(5.0));
        assert_eq!(ma.nnz(), 3);
        assert!((ma.density() - 0.75).abs() < 1e-12);
        // The visitor skips the interior zero, goes row-major, and is what
        // `nonzero_entries` collects.
        let mut visited = Vec::new();
        ma.for_each_nonzero(|i, j, v| visited.push((i, j, *v)));
        assert_eq!(
            visited,
            vec![(0, 0, Real(1.0)), (1, 0, Real(2.0)), (1, 1, Real(3.0))]
        );
        assert_eq!(ma.nonzero_entries(), visited);
        let doubled = M::zip_with(&[&ma], |vs| Real(vs[0].0 * 2.0)).unwrap();
        assert_eq!(doubled.to_dense(), a.scalar_mul(&Real(2.0)));
        let vec = lift(Matrix::from_f64_rows(&[&[1.0], &[0.0]]).unwrap());
        assert_eq!(
            vec.diag().unwrap().to_dense(),
            Matrix::from_f64_rows(&[&[1.0, 0.0], &[0.0, 0.0]]).unwrap()
        );
        // The fused diagonal-product kernels must agree exactly with
        // materializing the diagonal and multiplying.
        let scale = lift(Matrix::from_f64_rows(&[&[3.0], &[0.0]]).unwrap());
        assert_eq!(
            ma.scale_rows(&scale).unwrap().to_dense(),
            scale.diag().unwrap().matmul(&ma).unwrap().to_dense()
        );
        assert_eq!(
            ma.scale_cols(&scale).unwrap().to_dense(),
            ma.matmul(&scale.diag().unwrap()).unwrap().to_dense()
        );
        // Error cases mirror the unfused path: non-vector scale, mismatch.
        assert!(ma.scale_rows(&mb).is_err());
        assert!(ma.scale_cols(&mb).is_err());
        let long = lift(Matrix::from_f64_rows(&[&[1.0], &[2.0], &[3.0]]).unwrap());
        assert!(ma.scale_rows(&long).is_err());
        assert!(ma.scale_cols(&long).is_err());
    }

    /// The delta kernels must agree exactly with the unfused reference:
    /// `apply_delta` with an entrywise `⊕` merge, and the one-sided delta
    /// products with full products against the densified delta.
    fn delta_kernel_agreement<M: MatrixStorage<Elem = Real>>(lift: fn(Matrix<Real>) -> M) {
        let a =
            Matrix::from_f64_rows(&[&[1.0, 0.0, 2.0], &[0.0, 3.0, 0.0], &[4.0, 0.0, 5.0]]).unwrap();
        let ma = lift(a.clone());
        assert_eq!(ma.get_entry(0, 2).unwrap(), Real(2.0));
        assert_eq!(ma.get_entry(1, 0).unwrap(), Real(0.0));
        assert!(ma.get_entry(3, 0).is_err());

        let delta = SparseMatrix::from_triplets(
            3,
            3,
            vec![(0, 1, Real(7.0)), (2, 2, Real(1.0)), (1, 0, Real(2.0))],
        )
        .unwrap();
        let patched = ma.apply_delta(&delta).unwrap();
        let expected = a.add(&delta.to_dense()).unwrap();
        assert_eq!(patched.to_dense(), expected);

        let pre = ma.matmul_delta_pre(&delta).unwrap();
        assert_eq!(
            pre.to_dense(),
            delta.to_dense().matmul(&a).unwrap(),
            "delta·self diverged"
        );
        let post = ma.matmul_delta_post(&delta).unwrap();
        assert_eq!(
            post.to_dense(),
            a.matmul(&delta.to_dense()).unwrap(),
            "self·delta diverged"
        );

        // A rectangular case exercises the shape plumbing: 3×2 delta·self
        // needs delta cols = self rows.
        let rect = Matrix::from_f64_rows(&[&[1.0, 2.0], &[0.0, 1.0], &[3.0, 0.0]]).unwrap();
        let mrect = lift(rect.clone());
        let dvec = SparseMatrix::from_triplets(1, 3, vec![(0, 1, Real(5.0))]).unwrap();
        assert_eq!(
            mrect.matmul_delta_pre(&dvec).unwrap().to_dense(),
            dvec.to_dense().matmul(&rect).unwrap()
        );
        let dpost = SparseMatrix::from_triplets(2, 4, vec![(1, 3, Real(2.0))]).unwrap();
        assert_eq!(
            mrect.matmul_delta_post(&dpost).unwrap().to_dense(),
            rect.matmul(&dpost.to_dense()).unwrap()
        );

        // Shape errors mirror the unfused path.
        assert!(ma.apply_delta(&dpost).is_err());
        assert!(ma.matmul_delta_pre(&dpost).is_err());
        assert!(mrect.matmul_delta_post(&dvec).is_err());
    }

    #[test]
    fn dense_delta_kernels_agree() {
        delta_kernel_agreement(Matrix::from_dense);
    }

    #[test]
    fn adaptive_delta_kernels_agree() {
        delta_kernel_agreement(MatrixRepr::from_dense);
        delta_kernel_agreement(csr);
    }

    #[test]
    fn dense_backend_agrees_with_itself() {
        backend_agreement(Matrix::from_dense);
    }

    #[test]
    fn adaptive_backend_agrees_with_dense() {
        backend_agreement(MatrixRepr::from_dense);
        backend_agreement(csr);
    }

    /// `heap_bytes` is exact and reproducible from shape/nnz per backend:
    /// dense prices every entry, CSR prices `indptr`/`indices`/`values`,
    /// and the adaptive wrapper prices whichever variant is active.
    #[test]
    fn heap_bytes_exact_per_backend() {
        let elem = std::mem::size_of::<Real>();
        let word = std::mem::size_of::<usize>();

        let dense = Matrix::<Real>::from_f64_rows(&[&[1.0, 0.0, 2.0], &[0.0, 0.0, 3.0]]).unwrap();
        assert_eq!(MatrixStorage::heap_bytes(&dense), 2 * 3 * elem);

        let sparse = SparseMatrix::from_dense(&dense);
        assert_eq!(sparse.nnz(), 3);
        assert_eq!(sparse.heap_bytes(), (2 + 1 + 3) * word + 3 * elem);

        let adaptive_sparse = MatrixRepr::Sparse(sparse.clone());
        assert_eq!(
            MatrixStorage::heap_bytes(&adaptive_sparse),
            sparse.heap_bytes()
        );
        let adaptive_dense = MatrixRepr::Dense(dense.clone());
        assert_eq!(
            MatrixStorage::heap_bytes(&adaptive_dense),
            MatrixStorage::heap_bytes(&dense)
        );

        // Empty shapes account only for the CSR row-pointer array.
        assert_eq!(MatrixStorage::heap_bytes(&Matrix::<Real>::zeros(0, 0)), 0);
        assert_eq!(SparseMatrix::<Real>::zeros(4, 4).heap_bytes(), 5 * word);
    }
}
