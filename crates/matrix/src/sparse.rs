//! Sparse matrices in compressed sparse row (CSR) form.
//!
//! Graph adjacency matrices — the primary inputs of the paper's query
//! language — are overwhelmingly sparse in practice: an n-node graph with
//! average degree d has `d·n ≪ n²` non-zero entries.  [`SparseMatrix`]
//! stores only those entries and implements every kernel the MATLANG
//! evaluator needs (transpose, add, Hadamard, SpMM, scalar multiplication,
//! diag, trace, pow, canonical/ones vectors) with cost proportional to the
//! number of non-zeros rather than to `rows × cols`.
//!
//! Invariants (maintained by every constructor and kernel, and relied upon
//! by the derived `PartialEq`):
//!
//! * `indptr` has length `rows + 1`, starts at 0, is non-decreasing and ends
//!   at `nnz`;
//! * within each row, column indices are strictly increasing;
//! * no explicit zeros are stored — `values[i].is_zero()` is always false.
//!
//! Dropping semiring-zero entries is sound by the annihilation and identity
//! laws (`0 ⊙ k = 0`, `0 ⊕ k = k`); note that for the tropical semirings the
//! zero element is ±∞, so "sparse" there means "few finite entries".

use crate::{Matrix, MatrixError, Result};
use matlang_semiring::{Ring, Semiring};
use std::fmt;

/// A sparse matrix over a commutative semiring `K`, stored in CSR form.
///
/// Shapes follow the same conventions as the dense [`Matrix`]: vectors are
/// `n × 1` matrices and scalars are `1 × 1` matrices.
#[derive(Clone, PartialEq)]
pub struct SparseMatrix<K> {
    rows: usize,
    cols: usize,
    /// `indptr[i]..indptr[i + 1]` is the range of `indices`/`values`
    /// holding row `i`.
    indptr: Vec<usize>,
    /// Column index of each stored entry, strictly increasing per row.
    indices: Vec<usize>,
    /// The stored (non-zero) entries, parallel to `indices`.
    values: Vec<K>,
}

impl<K: Semiring> SparseMatrix<K> {
    /// The `rows × cols` zero matrix (no stored entries).
    pub fn zeros(rows: usize, cols: usize) -> Self {
        SparseMatrix {
            rows,
            cols,
            indptr: vec![0; rows + 1],
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        SparseMatrix {
            rows: n,
            cols: n,
            indptr: (0..=n).collect(),
            indices: (0..n).collect(),
            values: vec![K::one(); n],
        }
    }

    /// A `1 × 1` matrix holding a single value.
    pub fn scalar(value: K) -> Self {
        SparseMatrix::from_triplets(1, 1, vec![(0, 0, value)]).expect("scalar triplet in bounds")
    }

    /// The `n × 1` ones (column) vector — the paper's `1(e)` result.  Note
    /// this is the *densest* possible vector; it is provided so that sparse
    /// evaluation supports the full operator set.
    pub fn ones_vector(n: usize) -> Self {
        SparseMatrix {
            rows: n,
            cols: 1,
            indptr: (0..=n).collect(),
            indices: vec![0; n],
            values: vec![K::one(); n],
        }
    }

    /// The `i`-th canonical (column) vector `bᵢⁿ` of dimension `n` — a
    /// single stored entry, the best case for sparse storage.
    pub fn canonical(n: usize, i: usize) -> Result<Self> {
        if i >= n {
            return Err(MatrixError::IndexOutOfBounds {
                row: i,
                col: 0,
                shape: (n, 1),
            });
        }
        let mut indptr = vec![0; n + 1];
        for p in indptr.iter_mut().skip(i + 1) {
            *p = 1;
        }
        Ok(SparseMatrix {
            rows: n,
            cols: 1,
            indptr,
            indices: vec![0],
            values: vec![K::one()],
        })
    }

    /// Builds a sparse matrix from `(row, col, value)` triplets.  Duplicate
    /// coordinates are combined with `⊕`; entries that are (or combine to)
    /// zero are dropped.  Fails on out-of-bounds coordinates.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        mut triplets: Vec<(usize, usize, K)>,
    ) -> Result<Self> {
        for &(r, c, _) in &triplets {
            if r >= rows || c >= cols {
                return Err(MatrixError::IndexOutOfBounds {
                    row: r,
                    col: c,
                    shape: (rows, cols),
                });
            }
        }
        triplets.sort_by_key(|&(r, c, _)| (r, c));
        let mut merged: Vec<(usize, usize, K)> = Vec::with_capacity(triplets.len());
        for (r, c, v) in triplets {
            match merged.last_mut() {
                Some((lr, lc, lv)) if *lr == r && *lc == c => *lv = lv.add(&v),
                _ => merged.push((r, c, v)),
            }
        }
        let mut out = CsrBuilder::new(rows, cols, merged.len());
        let mut row = 0;
        for (r, c, v) in merged {
            while row < r {
                out.finish_row();
                row += 1;
            }
            out.push(c, v);
        }
        for _ in row..rows {
            out.finish_row();
        }
        Ok(out.build())
    }

    /// Exact conversion from a dense matrix: stores precisely the non-zero
    /// entries.
    pub fn from_dense(dense: &Matrix<K>) -> Self {
        let (rows, cols) = dense.shape();
        let mut indptr = Vec::with_capacity(rows + 1);
        indptr.push(0);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for i in 0..rows {
            for j in 0..cols {
                let v = dense.get(i, j).expect("in bounds");
                if !v.is_zero() {
                    indices.push(j);
                    values.push(v.clone());
                }
            }
            indptr.push(indices.len());
        }
        SparseMatrix {
            rows,
            cols,
            indptr,
            indices,
            values,
        }
    }

    /// Exact conversion to a dense matrix.
    pub fn to_dense(&self) -> Matrix<K> {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for (i, j, v) in self.iter_entries() {
            out.set(i, j, v.clone()).expect("in bounds");
        }
        out
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

    /// Number of stored (non-zero) entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
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

    /// Whether every entry is zero.
    pub fn is_zero(&self) -> bool {
        self.values.is_empty()
    }

    /// Heap bytes held by the CSR arrays: `indptr` + `indices` (both
    /// `usize`) plus `values` (`K`).  Deliberately counts live payload
    /// (not `Vec` capacity slack) so the figure is reproducible from
    /// `rows` and `nnz` alone: `(rows + 1 + nnz)·8 + nnz·size_of::<K>()`.
    /// O(1) — reads lengths only.
    pub fn heap_bytes(&self) -> usize {
        (self.indptr.len() + self.indices.len()) * std::mem::size_of::<usize>()
            + self.values.len() * std::mem::size_of::<K>()
    }

    /// The entry at `(row, col)`, returned by value (`0` for an absent
    /// entry).
    pub fn get(&self, row: usize, col: usize) -> Result<K> {
        if row >= self.rows || col >= self.cols {
            return Err(MatrixError::IndexOutOfBounds {
                row,
                col,
                shape: self.shape(),
            });
        }
        let (cols, vals) = self.row_slices(row);
        match cols.binary_search(&col) {
            Ok(pos) => Ok(vals[pos].clone()),
            Err(_) => Ok(K::zero()),
        }
    }

    /// The value of a `1 × 1` matrix.
    pub fn as_scalar(&self) -> Result<K> {
        if !self.is_scalar() {
            return Err(MatrixError::NotAScalar {
                shape: self.shape(),
            });
        }
        self.get(0, 0)
    }

    /// Sets the entry at `(row, col)` **in place**, maintaining the CSR
    /// invariants: a zero value removes any stored entry, a non-zero value
    /// overwrites in place when the coordinate is already stored and is
    /// otherwise inserted at its sorted position.  Overwrites cost `O(log
    /// nnz(row))`; structural inserts/removes shift the tail of the entry
    /// arrays, `O(nnz)` worst case — the incremental-update hook behind the
    /// query server's `UPDATE`, where point mutations must not rebuild the
    /// whole matrix.
    pub fn set_entry(&mut self, row: usize, col: usize, value: K) -> Result<()> {
        if row >= self.rows || col >= self.cols {
            return Err(MatrixError::IndexOutOfBounds {
                row,
                col,
                shape: self.shape(),
            });
        }
        let (start, end) = (self.indptr[row], self.indptr[row + 1]);
        match (
            self.indices[start..end].binary_search(&col),
            value.is_zero(),
        ) {
            (Ok(pos), false) => self.values[start + pos] = value,
            (Ok(pos), true) => {
                self.indices.remove(start + pos);
                self.values.remove(start + pos);
                for p in self.indptr.iter_mut().skip(row + 1) {
                    *p -= 1;
                }
            }
            (Err(_), true) => {}
            (Err(pos), false) => {
                self.indices.insert(start + pos, col);
                self.values.insert(start + pos, value);
                for p in self.indptr.iter_mut().skip(row + 1) {
                    *p += 1;
                }
            }
        }
        Ok(())
    }

    /// Iterate over the stored `(row, col, value)` triples in row-major
    /// order.  Zero entries are not visited.
    pub fn iter_entries(&self) -> impl Iterator<Item = (usize, usize, &K)> + '_ {
        (0..self.rows).flat_map(move |i| {
            let (cols, vals) = self.row_slices(i);
            cols.iter().zip(vals).map(move |(&j, v)| (i, j, v))
        })
    }

    /// The column indices and values of the stored entries of row `i`, as
    /// parallel slices sorted by column.  For an adjacency matrix this *is*
    /// the out-neighbour list of vertex `i`, so graph traversals (BFS, the
    /// sparse transitive closure in `matlang_algorithms`) can walk the CSR
    /// structure without copying it into an adjacency list first.
    pub fn row_entries(&self, i: usize) -> (&[usize], &[K]) {
        self.row_slices(i)
    }

    /// The raw CSR row-pointer array (`rows + 1` monotone offsets into
    /// [`csr_indices`](Self::csr_indices)/[`csr_values`](Self::csr_values)).
    /// Read-only: mutation goes through [`set_entry`](Self::set_entry) or a
    /// rebuild via [`CsrBuilder`] so the invariants cannot be broken from
    /// outside.  Exposed for byte-exact serialization (the snapshot codec
    /// writes these arrays verbatim).
    pub fn csr_indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// The raw CSR column-index array, one entry per stored value, sorted
    /// strictly increasing within each row.  See
    /// [`csr_indptr`](Self::csr_indptr).
    pub fn csr_indices(&self) -> &[usize] {
        &self.indices
    }

    /// The raw CSR value array, parallel to
    /// [`csr_indices`](Self::csr_indices).  Never contains semiring zeros.
    pub fn csr_values(&self) -> &[K] {
        &self.values
    }

    /// The column indices and values of row `i`.
    fn row_slices(&self, i: usize) -> (&[usize], &[K]) {
        let range = self.indptr[i]..self.indptr[i + 1];
        (&self.indices[range.clone()], &self.values[range])
    }

    /// Matrix transpose `eᵀ` in `O(nnz + rows + cols)` via counting sort.
    pub fn transpose(&self) -> SparseMatrix<K> {
        let mut counts = vec![0usize; self.cols + 1];
        for &j in &self.indices {
            counts[j + 1] += 1;
        }
        for j in 0..self.cols {
            counts[j + 1] += counts[j];
        }
        let indptr = counts.clone();
        let mut indices = vec![0usize; self.nnz()];
        let mut values: Vec<Option<K>> = vec![None; self.nnz()];
        // Row-major traversal writes each output row in increasing column
        // (= source row) order, preserving the sortedness invariant.
        for (i, j, v) in self.iter_entries() {
            let slot = counts[j];
            counts[j] += 1;
            indices[slot] = i;
            values[slot] = Some(v.clone());
        }
        SparseMatrix {
            rows: self.cols,
            cols: self.rows,
            indptr,
            indices,
            values: values
                .into_iter()
                .map(|v| v.expect("slot filled"))
                .collect(),
        }
    }

    /// Matrix addition `e₁ + e₂` (entrywise `⊕`) by sorted row merge,
    /// `O(nnz₁ + nnz₂)`.
    pub fn add(&self, other: &SparseMatrix<K>) -> Result<SparseMatrix<K>> {
        if self.shape() != other.shape() {
            return Err(MatrixError::ShapeMismatch {
                left: self.shape(),
                right: other.shape(),
                op: "add",
            });
        }
        let mut out = CsrBuilder::new(self.rows, self.cols, self.nnz() + other.nnz());
        for i in 0..self.rows {
            let (ac, av) = self.row_slices(i);
            let (bc, bv) = other.row_slices(i);
            let (mut p, mut q) = (0, 0);
            while p < ac.len() || q < bc.len() {
                let take_a = q >= bc.len() || (p < ac.len() && ac[p] < bc[q]);
                let take_b = p >= ac.len() || (q < bc.len() && bc[q] < ac[p]);
                if take_a {
                    out.push(ac[p], av[p].clone());
                    p += 1;
                } else if take_b {
                    out.push(bc[q], bv[q].clone());
                    q += 1;
                } else {
                    out.push(ac[p], av[p].add(&bv[q]));
                    p += 1;
                    q += 1;
                }
            }
            out.finish_row();
        }
        Ok(out.build())
    }

    /// Hadamard (pointwise) product `e₁ ∘ e₂` (entrywise `⊙`) by sorted row
    /// intersection, `O(nnz₁ + nnz₂)`.
    pub fn hadamard(&self, other: &SparseMatrix<K>) -> Result<SparseMatrix<K>> {
        if self.shape() != other.shape() {
            return Err(MatrixError::ShapeMismatch {
                left: self.shape(),
                right: other.shape(),
                op: "hadamard",
            });
        }
        let mut out = CsrBuilder::new(self.rows, self.cols, self.nnz().min(other.nnz()));
        for i in 0..self.rows {
            let (ac, av) = self.row_slices(i);
            let (bc, bv) = other.row_slices(i);
            let (mut p, mut q) = (0, 0);
            while p < ac.len() && q < bc.len() {
                match ac[p].cmp(&bc[q]) {
                    std::cmp::Ordering::Less => p += 1,
                    std::cmp::Ordering::Greater => q += 1,
                    std::cmp::Ordering::Equal => {
                        out.push(ac[p], av[p].mul(&bv[q]));
                        p += 1;
                        q += 1;
                    }
                }
            }
            out.finish_row();
        }
        Ok(out.build())
    }

    /// Sparse matrix product `e₁ · e₂` (SpMM), Gustavson's row-by-row
    /// algorithm: `O(Σᵢ Σ_{k ∈ row i} nnz(Bₖ))` semiring operations — for an
    /// n-node, average-degree-d adjacency matrix this is `Θ(n·d²)` versus the
    /// dense `Θ(n³)`.
    pub fn matmul(&self, other: &SparseMatrix<K>) -> Result<SparseMatrix<K>> {
        if self.cols != other.rows {
            return Err(MatrixError::InnerDimensionMismatch {
                left: self.shape(),
                right: other.shape(),
            });
        }
        let timer = crate::kernel_timer(self.product_work(other));
        let m = other.cols;
        let mut out = CsrBuilder::new(self.rows, m, self.nnz());
        // Dense accumulator reused across rows; `occupied` tracks the touched
        // columns so clearing costs O(row nnz), not O(m).
        let mut acc: Vec<K> = vec![K::zero(); m];
        let mut present = vec![false; m];
        let mut occupied: Vec<usize> = Vec::new();
        for i in 0..self.rows {
            let (ac, av) = self.row_slices(i);
            for (&k, a) in ac.iter().zip(av) {
                let (bc, bv) = other.row_slices(k);
                for (&j, b) in bc.iter().zip(bv) {
                    let term = a.mul(b);
                    if present[j] {
                        acc[j] = acc[j].add(&term);
                    } else {
                        acc[j] = term;
                        present[j] = true;
                        occupied.push(j);
                    }
                }
            }
            occupied.sort_unstable();
            for &j in &occupied {
                let v = std::mem::replace(&mut acc[j], K::zero());
                present[j] = false;
                out.push(j, v);
            }
            occupied.clear();
            out.finish_row();
        }
        let out = out.build();
        if let Some(t) = timer {
            matlang_obs::histogram!("kernel_sparse_matmul_us")
                .observe(t.elapsed().as_micros() as u64);
        }
        Ok(out)
    }

    /// Expected multiply-adds of `self · other` — every stored left entry
    /// against an average right row — in O(1), for the kernel-timer gate.
    fn product_work(&self, other: &SparseMatrix<K>) -> usize {
        self.nnz().saturating_mul(other.nnz()) / other.rows.max(1)
    }

    /// Fused `(self · other) ∘ mask`: Gustavson's row pass accumulating only
    /// at the columns row `i` of `mask` stores, so the product is never
    /// built, sorted or copied.  Bit-identical to the unfused pair: each kept
    /// entry sums the same terms in the same `k`-ascending order (first term
    /// assigned, not added), a product entry that sums to zero is dropped
    /// before it meets the mask, and the two shape errors are the unfused
    /// pair's, inner dimension first.
    pub fn matmul_masked(
        &self,
        other: &SparseMatrix<K>,
        mask: &SparseMatrix<K>,
    ) -> Result<SparseMatrix<K>> {
        if self.cols != other.rows {
            return Err(MatrixError::InnerDimensionMismatch {
                left: self.shape(),
                right: other.shape(),
            });
        }
        if (self.rows, other.cols) != mask.shape() {
            return Err(MatrixError::ShapeMismatch {
                left: (self.rows, other.cols),
                right: mask.shape(),
                op: "hadamard",
            });
        }
        let timer = crate::kernel_timer(self.product_work(other));
        let mut out = CsrBuilder::new(self.rows, mask.cols, mask.nnz());
        // `slot[j]` is 1 + the position in `mask`'s entry arrays of the
        // entry that last claimed column `j`.  Positions grow with the row,
        // so a value past the current row's start is this row's own stamp
        // and the array is never cleared.
        let mut slot = vec![0usize; mask.cols];
        let mut acc: Vec<Option<K>> = Vec::new();
        for i in 0..self.rows {
            let start = mask.indptr[i];
            let (mc, mv) = mask.row_slices(i);
            if !mc.is_empty() {
                for (p, &j) in mc.iter().enumerate() {
                    slot[j] = start + p + 1;
                }
                acc.clear();
                acc.resize(mc.len(), None);
                let (ac, av) = self.row_slices(i);
                for (&k, a) in ac.iter().zip(av) {
                    let (bc, bv) = other.row_slices(k);
                    for (&j, b) in bc.iter().zip(bv) {
                        if slot[j] > start {
                            let term = a.mul(b);
                            let cell = &mut acc[slot[j] - start - 1];
                            *cell = Some(match cell.take() {
                                Some(sum) => sum.add(&term),
                                None => term,
                            });
                        }
                    }
                }
                for ((&j, m), cell) in mc.iter().zip(mv).zip(&mut acc) {
                    match cell.take() {
                        Some(v) if !v.is_zero() => out.push(j, v.mul(m)),
                        _ => {}
                    }
                }
            }
            out.finish_row();
        }
        let out = out.build();
        if let Some(t) = timer {
            matlang_obs::histogram!("kernel_sparse_matmul_us")
                .observe(t.elapsed().as_micros() as u64);
        }
        Ok(out)
    }

    /// `self · delta` for a small sparse `delta` — the delta rule
    /// `Δ(A·B) = A·ΔB`.  Each row of `self` is binary-searched for the
    /// delta's row indices, costing `O(rows · Δnnz · log degree)`:
    /// independent of `self`'s total `nnz` per delta entry.
    pub fn matmul_delta_post(&self, delta: &SparseMatrix<K>) -> Result<SparseMatrix<K>> {
        if self.cols != delta.rows {
            return Err(MatrixError::InnerDimensionMismatch {
                left: self.shape(),
                right: delta.shape(),
            });
        }
        let entries: Vec<(usize, usize, &K)> = delta.iter_entries().collect();
        let mut out = CsrBuilder::new(self.rows, delta.cols, entries.len().max(1));
        let mut acc: Vec<(usize, K)> = Vec::new();
        for i in 0..self.rows {
            let (cols_i, vals_i) = self.row_slices(i);
            acc.clear();
            for &(k, j, dv) in &entries {
                if let Ok(pos) = cols_i.binary_search(&k) {
                    let term = vals_i[pos].mul(dv);
                    match acc.iter_mut().find(|(jj, _)| *jj == j) {
                        Some((_, a)) => *a = a.add(&term),
                        None => acc.push((j, term)),
                    }
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

    /// Sparse matrix–vector product against a dense vector: `A · x` with `x`
    /// given as a slice of length `cols`.  `O(nnz)` semiring operations.
    pub fn matvec(&self, x: &[K]) -> Result<Vec<K>> {
        if x.len() != self.cols {
            return Err(MatrixError::InnerDimensionMismatch {
                left: self.shape(),
                right: (x.len(), 1),
            });
        }
        let mut out = vec![K::zero(); self.rows];
        for (i, slot) in out.iter_mut().enumerate() {
            let (cols, vals) = self.row_slices(i);
            for (&j, v) in cols.iter().zip(vals) {
                *slot = slot.add(&v.mul(&x[j]));
            }
        }
        Ok(out)
    }

    /// Scalar multiplication `e₁ × e₂` where the scalar multiplies every
    /// stored entry (products that become zero are dropped).
    pub fn scalar_mul(&self, scalar: &K) -> SparseMatrix<K> {
        self.map_nonzero(|v| scalar.mul(v))
    }

    /// Applies `f` to every *stored* entry, dropping results that are zero.
    /// The zero entries are untouched, so this is only the pointwise map
    /// `f` when `f(0) = 0` — exactly the property that scalar
    /// multiplication and negation enjoy.
    pub fn map_nonzero<F: Fn(&K) -> K>(&self, f: F) -> SparseMatrix<K> {
        let mut out = CsrBuilder::new(self.rows, self.cols, self.nnz());
        for i in 0..self.rows {
            let (cols, vals) = self.row_slices(i);
            for (&j, v) in cols.iter().zip(vals) {
                out.push(j, f(v));
            }
            out.finish_row();
        }
        out.build()
    }

    /// The paper's `diag(e)` operator: for an `n × 1` vector, the `n × n`
    /// diagonal matrix with the vector on its main diagonal — the canonical
    /// sparse matrix (`nnz ≤ n` out of `n²` entries).
    pub fn diag(&self) -> Result<SparseMatrix<K>> {
        if !self.is_vector() {
            return Err(MatrixError::NotAVector {
                shape: self.shape(),
            });
        }
        let n = self.rows;
        let mut out = CsrBuilder::new(n, n, self.nnz());
        for i in 0..n {
            let (_, vals) = self.row_slices(i);
            if let Some(v) = vals.first() {
                out.push(i, v.clone());
            }
            out.finish_row();
        }
        Ok(out.build())
    }

    /// Fused `diag(scale) · self` for an `n × 1` vector `scale`: row `i` of
    /// the result is row `i` of `self` scaled by `scale[i]`.  Replays the
    /// Gustavson kernel's per-row operations for a diagonal left operand
    /// (an absent `scale[i]` empties the row, each surviving entry is the
    /// single term `s ⊙ a`, zero products are dropped by the builder), so
    /// the result is bit-identical to `scale.diag()?.matmul(self)` without
    /// materializing the diagonal.
    pub fn scale_rows(&self, scale: &SparseMatrix<K>) -> Result<SparseMatrix<K>> {
        if !scale.is_vector() {
            return Err(MatrixError::NotAVector {
                shape: scale.shape(),
            });
        }
        if scale.rows != self.rows {
            return Err(MatrixError::InnerDimensionMismatch {
                left: (scale.rows, scale.rows),
                right: self.shape(),
            });
        }
        let mut out = CsrBuilder::new(self.rows, self.cols, self.nnz());
        for i in 0..self.rows {
            let (_, svals) = scale.row_slices(i);
            if let Some(s) = svals.first() {
                let (cols, vals) = self.row_slices(i);
                for (&j, a) in cols.iter().zip(vals) {
                    out.push(j, s.mul(a));
                }
            }
            out.finish_row();
        }
        Ok(out.build())
    }

    /// Fused `self · diag(scale)` for an `m × 1` vector `scale`: column `j`
    /// of the result is column `j` of `self` scaled by `scale[j]`.
    /// Bit-identical to `self.matmul(&scale.diag()?)` — the Gustavson
    /// kernel visits the stored entries of each row in ascending column
    /// order and a diagonal right row contributes at most one term, which
    /// is exactly this loop.
    pub fn scale_cols(&self, scale: &SparseMatrix<K>) -> Result<SparseMatrix<K>> {
        if !scale.is_vector() {
            return Err(MatrixError::NotAVector {
                shape: scale.shape(),
            });
        }
        if self.cols != scale.rows {
            return Err(MatrixError::InnerDimensionMismatch {
                left: self.shape(),
                right: (scale.rows, scale.rows),
            });
        }
        let mut out = CsrBuilder::new(self.rows, self.cols, self.nnz());
        for i in 0..self.rows {
            let (cols, vals) = self.row_slices(i);
            for (&j, a) in cols.iter().zip(vals) {
                let (_, svals) = scale.row_slices(j);
                if let Some(s) = svals.first() {
                    out.push(j, a.mul(s));
                }
            }
            out.finish_row();
        }
        Ok(out.build())
    }

    /// The main diagonal of a square matrix, as an `n × 1` vector.
    pub fn diagonal_vector(&self) -> Result<SparseMatrix<K>> {
        if !self.is_square() {
            return Err(MatrixError::NotSquare {
                shape: self.shape(),
            });
        }
        let mut out = CsrBuilder::new(self.rows, 1, self.rows.min(self.nnz()));
        for i in 0..self.rows {
            let (cols, vals) = self.row_slices(i);
            if let Ok(pos) = cols.binary_search(&i) {
                out.push(0, vals[pos].clone());
            }
            out.finish_row();
        }
        Ok(out.build())
    }

    /// The trace `tr(A)` of a square matrix, `O(rows · log max-degree)`.
    pub fn trace(&self) -> Result<K> {
        if !self.is_square() {
            return Err(MatrixError::NotSquare {
                shape: self.shape(),
            });
        }
        let mut acc = K::zero();
        for i in 0..self.rows {
            let (cols, vals) = self.row_slices(i);
            if let Ok(pos) = cols.binary_search(&i) {
                acc = acc.add(&vals[pos]);
            }
        }
        Ok(acc)
    }

    /// `Aᵏ` for a square matrix (`k = 0` gives the identity).  Matches the
    /// dense [`Matrix::pow`] iteration order exactly.
    pub fn pow(&self, k: usize) -> Result<SparseMatrix<K>> {
        if !self.is_square() {
            return Err(MatrixError::NotSquare {
                shape: self.shape(),
            });
        }
        let mut acc = SparseMatrix::identity(self.rows);
        for _ in 0..k {
            acc = acc.matmul(self)?;
        }
        Ok(acc)
    }
}

impl<K: Ring> SparseMatrix<K> {
    /// Entrywise negation.  In a ring `−v = 0 ⇔ v = 0`, so the sparsity
    /// pattern is preserved.
    pub fn neg(&self) -> SparseMatrix<K> {
        self.map_nonzero(|v| v.neg())
    }

    /// Matrix subtraction.
    pub fn sub(&self, other: &SparseMatrix<K>) -> Result<SparseMatrix<K>> {
        self.add(&other.neg())
    }
}

/// Incremental CSR constructor, used by every kernel and available to
/// callers that produce entries in row-major order (e.g. the per-source BFS
/// transitive closure in `matlang_algorithms`, which would otherwise have to
/// buffer and re-sort triplets).
///
/// Rows must be finished in order via [`finish_row`](CsrBuilder::finish_row)
/// (exactly `rows` times), and entries within a row pushed in strictly
/// increasing column order; zero values are dropped automatically, which
/// keeps the no-stored-zeros invariant.
pub struct CsrBuilder<K> {
    rows: usize,
    cols: usize,
    indptr: Vec<usize>,
    indices: Vec<usize>,
    values: Vec<K>,
}

impl<K: Semiring> CsrBuilder<K> {
    /// A builder for a `rows × cols` matrix, with room for `capacity`
    /// entries.
    pub fn new(rows: usize, cols: usize, capacity: usize) -> Self {
        let mut indptr = Vec::with_capacity(rows + 1);
        indptr.push(0);
        CsrBuilder {
            rows,
            cols,
            indptr,
            indices: Vec::with_capacity(capacity),
            values: Vec::with_capacity(capacity),
        }
    }

    /// Appends an entry to the current row.
    ///
    /// # Panics
    ///
    /// If `col` is out of bounds or not strictly greater than the previous
    /// column pushed in this row (the checks are cheap compares, kept in
    /// release builds to protect the CSR invariants behind `PartialEq`).
    pub fn push(&mut self, col: usize, value: K) {
        assert!(
            col < self.cols,
            "column {col} out of bounds ({})",
            self.cols
        );
        assert!(
            self.indices.len() == *self.indptr.last().expect("non-empty")
                || *self.indices.last().expect("non-empty") < col,
            "columns must be pushed in strictly increasing order within a row"
        );
        if !value.is_zero() {
            self.indices.push(col);
            self.values.push(value);
        }
    }

    /// Closes the current row; the next [`push`](CsrBuilder::push) starts
    /// the following one.
    pub fn finish_row(&mut self) {
        self.indptr.push(self.indices.len());
    }

    /// Finalizes the matrix.
    ///
    /// # Panics
    ///
    /// If the number of finished rows differs from the `rows` the builder
    /// was created with.
    pub fn build(self) -> SparseMatrix<K> {
        assert_eq!(
            self.indptr.len(),
            self.rows + 1,
            "every row must be finished"
        );
        SparseMatrix {
            rows: self.rows,
            cols: self.cols,
            indptr: self.indptr,
            indices: self.indices,
            values: self.values,
        }
    }
}

impl<K: Semiring> fmt::Debug for SparseMatrix<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "SparseMatrix {}x{} (nnz={}, density={:.4}) [",
            self.rows,
            self.cols,
            self.nnz(),
            self.density()
        )?;
        const MAX_SHOWN: usize = 32;
        for (count, (i, j, v)) in self.iter_entries().enumerate() {
            if count == MAX_SHOWN {
                writeln!(f, "  … {} more", self.nnz() - MAX_SHOWN)?;
                break;
            }
            writeln!(f, "  ({i}, {j}) = {v:?}")?;
        }
        write!(f, "]")
    }
}

impl<K: Semiring> fmt::Display for SparseMatrix<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}x{} sparse, nnz={}, density={:.4}",
            self.rows,
            self.cols,
            self.nnz(),
            self.density()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matlang_semiring::{Boolean, IntRing, MinPlus, Nat, Real};

    fn dense(rows: &[&[f64]]) -> Matrix<Real> {
        Matrix::from_f64_rows(rows).unwrap()
    }

    fn sparse(rows: &[&[f64]]) -> SparseMatrix<Real> {
        SparseMatrix::from_dense(&dense(rows))
    }

    #[test]
    fn roundtrip_preserves_entries() {
        let d = dense(&[&[1.0, 0.0, 2.0], &[0.0, 0.0, 0.0], &[3.0, 4.0, 0.0]]);
        let s = SparseMatrix::from_dense(&d);
        assert_eq!(s.nnz(), 4);
        assert_eq!(s.to_dense(), d);
        assert_eq!(s.get(0, 2).unwrap().0, 2.0);
        assert_eq!(s.get(1, 1).unwrap().0, 0.0);
        assert!(s.get(3, 0).is_err());
    }

    #[test]
    fn from_triplets_merges_and_drops_zeros() {
        let s: SparseMatrix<Real> = SparseMatrix::from_triplets(
            2,
            2,
            vec![
                (1, 1, Real(2.0)),
                (0, 0, Real(1.0)),
                (1, 1, Real(3.0)),
                (0, 1, Real(0.0)),
            ],
        )
        .unwrap();
        assert_eq!(s.nnz(), 2);
        assert_eq!(s.get(1, 1).unwrap().0, 5.0);
        assert_eq!(s.get(0, 1).unwrap().0, 0.0);
        assert!(SparseMatrix::<Real>::from_triplets(1, 1, vec![(1, 0, Real(1.0))]).is_err());
    }

    #[test]
    fn from_triplets_cancellation_is_dropped() {
        let s: SparseMatrix<IntRing> = SparseMatrix::from_triplets(
            1,
            2,
            vec![(0, 0, IntRing(5)), (0, 0, IntRing(-5)), (0, 1, IntRing(1))],
        )
        .unwrap();
        assert_eq!(s.nnz(), 1);
        assert!(s.get(0, 0).unwrap().is_zero());
    }

    #[test]
    fn constructors_match_dense() {
        assert_eq!(
            SparseMatrix::<Real>::identity(3).to_dense(),
            Matrix::identity(3)
        );
        assert_eq!(
            SparseMatrix::<Real>::zeros(2, 3).to_dense(),
            Matrix::zeros(2, 3)
        );
        assert_eq!(
            SparseMatrix::<Real>::ones_vector(4).to_dense(),
            Matrix::ones_vector(4)
        );
        assert_eq!(
            SparseMatrix::<Real>::canonical(4, 2).unwrap().to_dense(),
            Matrix::canonical(4, 2).unwrap()
        );
        assert!(SparseMatrix::<Real>::canonical(3, 3).is_err());
        assert_eq!(SparseMatrix::scalar(Real(7.0)).as_scalar().unwrap().0, 7.0);
        assert!(SparseMatrix::<Real>::zeros(2, 2).as_scalar().is_err());
    }

    #[test]
    fn transpose_matches_dense() {
        let s = sparse(&[&[1.0, 0.0, 2.0], &[0.0, 3.0, 0.0]]);
        assert_eq!(s.transpose().to_dense(), s.to_dense().transpose());
        assert_eq!(s.transpose().transpose(), s);
    }

    #[test]
    fn add_and_hadamard_match_dense() {
        let a = sparse(&[&[1.0, 0.0], &[2.0, 3.0]]);
        let b = sparse(&[&[0.0, 4.0], &[5.0, 0.0]]);
        assert_eq!(
            a.add(&b).unwrap().to_dense(),
            a.to_dense().add(&b.to_dense()).unwrap()
        );
        assert_eq!(
            a.hadamard(&b).unwrap().to_dense(),
            a.to_dense().hadamard(&b.to_dense()).unwrap()
        );
        let c = sparse(&[&[1.0]]);
        assert!(a.add(&c).is_err());
        assert!(a.hadamard(&c).is_err());
    }

    #[test]
    fn ring_subtraction_cancels_structurally() {
        let a: SparseMatrix<IntRing> =
            SparseMatrix::from_triplets(2, 2, vec![(0, 0, IntRing(3)), (1, 1, IntRing(2))])
                .unwrap();
        let diff = a.sub(&a).unwrap();
        assert!(diff.is_zero());
        assert_eq!(diff.nnz(), 0);
        assert_eq!(a.neg().get(0, 0).unwrap(), IntRing(-3));
    }

    #[test]
    fn matmul_matches_dense() {
        let a = sparse(&[&[1.0, 2.0, 0.0], &[0.0, 0.0, 3.0]]);
        let b = sparse(&[&[0.0, 1.0], &[1.0, 0.0], &[2.0, 2.0]]);
        assert_eq!(
            a.matmul(&b).unwrap().to_dense(),
            a.to_dense().matmul(&b.to_dense()).unwrap()
        );
        assert!(b.matmul(&sparse(&[&[1.0, 1.0]])).is_err());
    }

    #[test]
    fn matmul_drops_cancelled_entries() {
        // Over ℤ: [1 −1]·[1, 1]ᵀ = 0 must produce an empty row, not a stored 0.
        let a: SparseMatrix<IntRing> =
            SparseMatrix::from_triplets(1, 2, vec![(0, 0, IntRing(1)), (0, 1, IntRing(-1))])
                .unwrap();
        let b: SparseMatrix<IntRing> =
            SparseMatrix::from_triplets(2, 1, vec![(0, 0, IntRing(1)), (1, 0, IntRing(1))])
                .unwrap();
        let prod = a.matmul(&b).unwrap();
        assert_eq!(prod.nnz(), 0);
    }

    #[test]
    fn boolean_matmul_is_reachability_step() {
        let adj: SparseMatrix<Boolean> =
            SparseMatrix::from_triplets(3, 3, vec![(0, 1, Boolean(true)), (1, 2, Boolean(true))])
                .unwrap();
        let two = adj.matmul(&adj).unwrap();
        assert_eq!(two.get(0, 2).unwrap(), Boolean(true));
        assert_eq!(two.nnz(), 1);
    }

    #[test]
    fn minplus_zero_is_infinite_and_stays_unstored() {
        let inf = f64::INFINITY;
        let w: SparseMatrix<MinPlus> = SparseMatrix::from_dense(
            &Matrix::from_rows(vec![
                vec![MinPlus(0.0), MinPlus(2.0), MinPlus(inf)],
                vec![MinPlus(inf), MinPlus(0.0), MinPlus(3.0)],
                vec![MinPlus(inf), MinPlus(inf), MinPlus(0.0)],
            ])
            .unwrap(),
        );
        assert_eq!(w.nnz(), 5);
        let two = w.matmul(&w).unwrap();
        assert_eq!(two.get(0, 2).unwrap(), MinPlus(5.0));
        assert_eq!(two.to_dense(), w.to_dense().matmul(&w.to_dense()).unwrap());
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = sparse(&[&[1.0, 2.0], &[0.0, 3.0]]);
        let x = vec![Real(4.0), Real(5.0)];
        let y = a.matvec(&x).unwrap();
        assert_eq!(y, vec![Real(14.0), Real(15.0)]);
        assert!(a.matvec(&[Real(1.0)]).is_err());
    }

    #[test]
    fn scalar_mul_and_zero_absorption() {
        let a = sparse(&[&[1.0, 0.0], &[2.0, 3.0]]);
        assert_eq!(
            a.scalar_mul(&Real(2.0)).to_dense(),
            a.to_dense().scalar_mul(&Real(2.0))
        );
        let zeroed = a.scalar_mul(&Real(0.0));
        assert!(zeroed.is_zero());
        assert_eq!(zeroed.nnz(), 0);
    }

    #[test]
    fn diag_trace_and_diagonal_vector() {
        let v = sparse(&[&[1.0], &[0.0], &[3.0]]);
        let d = v.diag().unwrap();
        assert_eq!(d.to_dense(), v.to_dense().diag().unwrap());
        assert_eq!(d.nnz(), 2);
        assert_eq!(d.diagonal_vector().unwrap(), v);
        assert_eq!(d.trace().unwrap().0, 4.0);
        let nonvec = sparse(&[&[1.0, 2.0]]);
        assert!(nonvec.diag().is_err());
        assert!(nonvec.diagonal_vector().is_err());
        assert!(nonvec.trace().is_err());
    }

    #[test]
    fn pow_matches_dense() {
        let a = sparse(&[&[1.0, 1.0], &[0.0, 1.0]]);
        assert_eq!(a.pow(0).unwrap(), SparseMatrix::identity(2));
        assert_eq!(a.pow(3).unwrap().to_dense(), a.to_dense().pow(3).unwrap());
        assert!(sparse(&[&[1.0, 2.0]]).pow(2).is_err());
    }

    #[test]
    fn nnz_density_and_nat_semiring() {
        let s: SparseMatrix<Nat> =
            SparseMatrix::from_triplets(2, 2, vec![(0, 0, Nat(1)), (1, 0, Nat(2))]).unwrap();
        assert_eq!(s.nnz(), 2);
        assert!((s.density() - 0.5).abs() < 1e-12);
        assert_eq!(SparseMatrix::<Nat>::zeros(0, 5).density(), 0.0);
    }

    #[test]
    fn display_and_debug_mention_nnz() {
        let s = sparse(&[&[1.0, 0.0], &[0.0, 2.0]]);
        let display = format!("{s}");
        assert!(display.contains("nnz=2"));
        let debug = format!("{s:?}");
        assert!(debug.contains("density"));
    }

    #[test]
    fn iter_entries_is_row_major_and_nonzero_only() {
        let s = sparse(&[&[0.0, 1.0], &[2.0, 0.0]]);
        let triples: Vec<_> = s.iter_entries().map(|(i, j, v)| (i, j, v.0)).collect();
        assert_eq!(triples, vec![(0, 1, 1.0), (1, 0, 2.0)]);
    }

    #[test]
    fn set_entry_updates_in_place_and_keeps_invariants() {
        let mut s = sparse(&[&[0.0, 1.0, 0.0], &[2.0, 0.0, 3.0], &[0.0, 0.0, 0.0]]);
        let mut d = s.to_dense();
        // Overwrite an existing entry, insert before/after stored columns,
        // insert into an empty row, clear an entry, clear an absent entry.
        for (i, j, v) in [
            (0, 1, 5.0),
            (1, 1, 7.0),
            (0, 0, 4.0),
            (2, 2, 9.0),
            (1, 0, 0.0),
            (2, 0, 0.0),
        ] {
            s.set_entry(i, j, Real(v)).unwrap();
            d.set(i, j, Real(v)).unwrap();
            assert_eq!(s, SparseMatrix::from_dense(&d), "after set ({i},{j})={v}");
        }
        assert_eq!(s.nnz(), 5);
        // Mutated matrices still multiply correctly.
        assert_eq!(s.matmul(&s).unwrap().to_dense(), d.matmul(&d).unwrap());
        assert!(matches!(
            s.set_entry(3, 0, Real(1.0)),
            Err(MatrixError::IndexOutOfBounds { .. })
        ));
        assert!(matches!(
            s.set_entry(0, 9, Real(1.0)),
            Err(MatrixError::IndexOutOfBounds { .. })
        ));
    }
}
