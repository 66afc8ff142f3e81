//! Hand-rolled row-partitioned parallel kernels on a reusable worker pool.
//!
//! The build environment is offline (no rayon), so parallelism is plain
//! threads: the output rows are split into one contiguous chunk per worker,
//! each worker runs the *identical* serial per-row kernel over its chunk,
//! and the chunks are reassembled in row order.  Because every output row is
//! produced by the same code in the same semiring-operation order as the
//! serial kernel, threaded operations are **bit-identical** to their serial
//! counterparts — parallelism never perturbs results, not even over
//! floating-point semirings.
//!
//! Chunks execute on the process-wide [`crate::pool::WorkerPool`] rather
//! than freshly spawned `std::thread::scope` threads: the workers are
//! created once and parked between calls, so a server executing thousands
//! of small products per second does not pay thread spawn/teardown per
//! product.  The pool only changes *where* a chunk runs — chunking itself
//! is still a pure function of `(rows, threads)`, so results are
//! unaffected.
//!
//! The worker count is a caller decision; [`configured_threads`] provides
//! the process-wide default, reading the **`MATLANG_THREADS`** environment
//! variable and falling back to [`std::thread::available_parallelism`].
//! Passing `threads ≤ 1` (or a matrix too small to split) short-circuits to
//! the serial kernel, so the threaded entry points are always safe to call.
//!
//! Threaded kernels: dense matrix product, Gustavson SpMM and its masked
//! form, and the dense elementwise `add` / `hadamard` (row-partitioned
//! exactly like the products; elementwise kernels are memory-bound, so the
//! win appears later than for products, but large Σ-loop bodies benefit).

use crate::pool::WorkerPool;
use crate::{Matrix, MatrixError, Result, SparseMatrix};
use matlang_semiring::Semiring;

/// Environment variable overriding the default worker count.
pub const MATLANG_THREADS_ENV: &str = "MATLANG_THREADS";

/// The process-default worker count for the threaded kernels: the value of
/// the `MATLANG_THREADS` environment variable when it parses to an integer
/// `≥ 1`, otherwise [`std::thread::available_parallelism`] (1 when even
/// that is unavailable).
pub fn configured_threads() -> usize {
    std::env::var(MATLANG_THREADS_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// Splits `rows` into at most `threads` contiguous, non-empty, near-equal
/// ranges covering `0..rows`.
fn row_ranges(rows: usize, threads: usize) -> Vec<std::ops::Range<usize>> {
    let workers = threads.min(rows).max(1);
    let chunk = rows.div_ceil(workers);
    (0..rows)
        .step_by(chunk.max(1))
        .map(|start| start..(start + chunk).min(rows))
        .collect()
}

impl<K: Semiring> Matrix<K> {
    /// Matrix product `self · other` computed by up to `threads` pooled
    /// workers, each running the serial i-k-j kernel over a contiguous
    /// chunk of output rows.  Bit-identical to [`Matrix::matmul`].
    pub fn matmul_threaded(&self, other: &Matrix<K>, threads: usize) -> Result<Matrix<K>> {
        if self.cols() != other.rows() {
            return Err(MatrixError::InnerDimensionMismatch {
                left: self.shape(),
                right: other.shape(),
            });
        }
        let (n, m) = (self.rows(), other.cols());
        if threads <= 1 || n <= 1 || m == 0 {
            return self.matmul(other);
        }
        let mut out = vec![K::zero(); n * m];
        let ranges = row_ranges(n, threads);
        // Every range has the same length except possibly the last, so the
        // chunks line up with the ranges one-to-one.
        let chunk_rows = ranges[0].len();
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = ranges
            .into_iter()
            .zip(out.chunks_mut(chunk_rows * m))
            .map(|(range, out_chunk)| {
                Box::new(move || self.matmul_into_rows(other, range, out_chunk))
                    as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        WorkerPool::global().scoped(tasks);
        Matrix::from_vec(n, m, out)
    }

    /// Row-partitioned dense elementwise kernel shared by
    /// [`Matrix::add_threaded`] and [`Matrix::hadamard_threaded`]: each
    /// pooled worker applies `combine` entrywise over a contiguous chunk of
    /// rows.  Per-entry order and arithmetic are identical to the serial
    /// kernels, so results are bit-identical.
    fn zip_threaded<F>(
        &self,
        other: &Matrix<K>,
        threads: usize,
        op: &'static str,
        combine: F,
    ) -> Result<Matrix<K>>
    where
        F: Fn(&K, &K) -> K + Send + Sync + Copy,
    {
        if self.shape() != other.shape() {
            return Err(MatrixError::ShapeMismatch {
                left: self.shape(),
                right: other.shape(),
                op,
            });
        }
        let (n, m) = self.shape();
        let mut out = vec![K::zero(); n * m];
        let ranges = row_ranges(n, threads);
        let chunk_rows = ranges[0].len();
        let lhs = self.entries();
        let rhs = other.entries();
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = ranges
            .into_iter()
            .zip(out.chunks_mut(chunk_rows * m))
            .map(|(range, out_chunk)| {
                let span = range.start * m..range.start * m + out_chunk.len();
                let (lhs, rhs) = (&lhs[span.clone()], &rhs[span]);
                Box::new(move || {
                    for ((slot, a), b) in out_chunk.iter_mut().zip(lhs).zip(rhs) {
                        *slot = combine(a, b);
                    }
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        WorkerPool::global().scoped(tasks);
        Matrix::from_vec(n, m, out)
    }

    /// Matrix addition `self + other` computed by up to `threads` pooled
    /// workers over contiguous row chunks.  Bit-identical to
    /// [`Matrix::add`].
    pub fn add_threaded(&self, other: &Matrix<K>, threads: usize) -> Result<Matrix<K>> {
        if threads <= 1 || self.rows() <= 1 || self.cols() == 0 || self.shape() != other.shape() {
            return self.add(other);
        }
        self.zip_threaded(other, threads, "add", |a, b| a.add(b))
    }

    /// Hadamard product `self ∘ other` computed by up to `threads` pooled
    /// workers over contiguous row chunks.  Bit-identical to
    /// [`Matrix::hadamard`].
    pub fn hadamard_threaded(&self, other: &Matrix<K>, threads: usize) -> Result<Matrix<K>> {
        if threads <= 1 || self.rows() <= 1 || self.cols() == 0 || self.shape() != other.shape() {
            return self.hadamard(other);
        }
        self.zip_threaded(other, threads, "hadamard", |a, b| a.mul(b))
    }
}

impl<K: Semiring> SparseMatrix<K> {
    /// Sparse product `self · other` (SpMM) computed by up to `threads`
    /// pooled workers.  Gustavson's algorithm is embarrassingly parallel
    /// over output rows: each worker runs the serial row kernel over a
    /// contiguous row range and the CSR blocks are concatenated with
    /// [`SparseMatrix::vstack`].  Bit-identical to [`SparseMatrix::matmul`].
    pub fn matmul_threaded(
        &self,
        other: &SparseMatrix<K>,
        threads: usize,
    ) -> Result<SparseMatrix<K>> {
        if self.cols() != other.rows() {
            return Err(MatrixError::InnerDimensionMismatch {
                left: self.shape(),
                right: other.shape(),
            });
        }
        stacked_row_blocks(self.rows(), threads, |rows| self.matmul_rows(other, rows))
    }

    /// Fused `(self · other) ∘ mask` computed by up to `threads` pooled
    /// workers: the masked row pass is as independent per output row as
    /// the plain one, so it is partitioned and reassembled the same way.
    /// Bit-identical to [`SparseMatrix::matmul_masked`].
    pub fn matmul_masked_threaded(
        &self,
        other: &SparseMatrix<K>,
        mask: &SparseMatrix<K>,
        threads: usize,
    ) -> Result<SparseMatrix<K>> {
        self.check_masked_shapes(other, mask)?;
        stacked_row_blocks(self.rows(), threads, |rows| {
            self.matmul_masked_rows(other, mask, rows)
        })
    }
}

/// Runs `kernel` over one contiguous range of `0..rows` per worker and
/// stacks the CSR blocks it returns in row order; `threads ≤ 1` or a
/// single row runs it once over the whole range on the calling thread.
fn stacked_row_blocks<K: Semiring>(
    rows: usize,
    threads: usize,
    kernel: impl Fn(std::ops::Range<usize>) -> SparseMatrix<K> + Sync,
) -> Result<SparseMatrix<K>> {
    if threads <= 1 || rows <= 1 {
        return Ok(kernel(0..rows));
    }
    let ranges = row_ranges(rows, threads);
    let mut blocks: Vec<Option<SparseMatrix<K>>> = vec![None; ranges.len()];
    let kernel = &kernel;
    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = ranges
        .into_iter()
        .zip(blocks.iter_mut())
        .map(|(range, slot)| {
            Box::new(move || {
                *slot = Some(kernel(range));
            }) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    WorkerPool::global().scoped(tasks);
    let blocks: Vec<SparseMatrix<K>> = blocks
        .into_iter()
        .map(|b| b.expect("SpMM worker completed"))
        .collect();
    SparseMatrix::vstack(&blocks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{random_matrix, sparse_erdos_renyi, RandomMatrixConfig};
    use matlang_semiring::{Boolean, Real};

    #[test]
    fn configured_threads_is_at_least_one() {
        assert!(configured_threads() >= 1);
    }

    #[test]
    fn row_ranges_cover_without_overlap() {
        for (rows, threads) in [(1, 4), (7, 2), (8, 3), (100, 16), (5, 1), (3, 8)] {
            let ranges = row_ranges(rows, threads);
            assert!(ranges.len() <= threads.max(1));
            assert!(ranges.iter().all(|r| !r.is_empty()));
            let mut next = 0;
            for r in &ranges {
                assert_eq!(r.start, next);
                next = r.end;
            }
            assert_eq!(next, rows);
        }
    }

    #[test]
    fn threaded_dense_matmul_is_bit_identical() {
        let cfg = RandomMatrixConfig {
            seed: 3,
            min_value: -2.0,
            max_value: 2.0,
            zero_probability: 0.3,
            integer_entries: false,
        };
        let a: Matrix<Real> = random_matrix(33, 17, &cfg);
        let b: Matrix<Real> = random_matrix(17, 29, &RandomMatrixConfig { seed: 4, ..cfg });
        let serial = a.matmul(&b).unwrap();
        for threads in [1, 2, 3, 8, 64] {
            assert_eq!(a.matmul_threaded(&b, threads).unwrap(), serial);
        }
    }

    #[test]
    fn threaded_spmm_is_bit_identical() {
        let a: SparseMatrix<Boolean> = sparse_erdos_renyi(120, 5.0, 9);
        let b: SparseMatrix<Boolean> = sparse_erdos_renyi(120, 3.0, 10);
        let serial = a.matmul(&b).unwrap();
        for threads in [1, 2, 3, 7, 200] {
            assert_eq!(a.matmul_threaded(&b, threads).unwrap(), serial);
        }
    }

    #[test]
    fn threaded_masked_spmm_is_bit_identical() {
        let a: SparseMatrix<Real> = sparse_erdos_renyi(120, 5.0, 9);
        let b: SparseMatrix<Real> = sparse_erdos_renyi(120, 3.0, 10);
        let mask: SparseMatrix<Real> = sparse_erdos_renyi(120, 40.0, 11);
        let unfused = a.matmul(&b).unwrap().hadamard(&mask).unwrap();
        assert!(unfused.nnz() > 0);
        assert_eq!(a.matmul_masked(&b, &mask).unwrap(), unfused);
        for threads in [1, 2, 3, 7, 200] {
            let threaded = a.matmul_masked_threaded(&b, &mask, threads).unwrap();
            assert_eq!(threaded, unfused);
        }
    }

    #[test]
    fn threaded_elementwise_is_bit_identical() {
        let cfg = RandomMatrixConfig {
            seed: 11,
            min_value: -3.0,
            max_value: 3.0,
            zero_probability: 0.4,
            integer_entries: false,
        };
        let a: Matrix<Real> = random_matrix(37, 19, &cfg);
        let b: Matrix<Real> = random_matrix(37, 19, &RandomMatrixConfig { seed: 12, ..cfg });
        let sum = a.add(&b).unwrap();
        let had = a.hadamard(&b).unwrap();
        for threads in [1, 2, 3, 8, 64] {
            assert_eq!(a.add_threaded(&b, threads).unwrap(), sum);
            assert_eq!(a.hadamard_threaded(&b, threads).unwrap(), had);
        }
    }

    #[test]
    fn threaded_kernels_check_shapes() {
        let a: Matrix<Real> = Matrix::zeros(2, 3);
        assert!(matches!(
            a.matmul_threaded(&a, 2),
            Err(MatrixError::InnerDimensionMismatch { .. })
        ));
        let s: SparseMatrix<Real> = SparseMatrix::zeros(2, 3);
        assert!(matches!(
            s.matmul_threaded(&s, 2),
            Err(MatrixError::InnerDimensionMismatch { .. })
        ));
        let b: Matrix<Real> = Matrix::zeros(3, 2);
        assert!(matches!(
            a.add_threaded(&b, 2),
            Err(MatrixError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            a.hadamard_threaded(&b, 2),
            Err(MatrixError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn vstack_reassembles_row_blocks() {
        let m: SparseMatrix<Real> = sparse_erdos_renyi(10, 2.0, 5);
        let top = m.matmul_rows(&m, 0..4);
        let bottom = m.matmul_rows(&m, 4..10);
        let stacked = SparseMatrix::vstack(&[top, bottom]).unwrap();
        assert_eq!(stacked, m.matmul(&m).unwrap());
        let empty: Vec<SparseMatrix<Real>> = Vec::new();
        assert_eq!(SparseMatrix::vstack(&empty).unwrap().shape(), (0, 0));
        let mismatched = [SparseMatrix::<Real>::zeros(1, 2), SparseMatrix::zeros(1, 3)];
        assert!(SparseMatrix::vstack(&mismatched).is_err());
    }
}
