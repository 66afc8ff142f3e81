//! Dense and sparse matrices over arbitrary commutative semirings.
//!
//! MATLANG instances assign concrete matrices to matrix variables
//! (`mat : M ↦ Mat[K]`, Section 2 and Section 6.1 of the paper).  This crate
//! provides that `Mat[K]` in two interchangeable storage backends:
//!
//! * [`Matrix`] — dense, row-major storage with every operation the MATLANG
//!   evaluator and the paper's algorithms need (transpose, matrix product,
//!   addition, Hadamard product, scalar multiplication, canonical vectors,
//!   ones vectors, diagonalization, trace, permutation matrices, and the
//!   order matrices `S≤`/`S<` of Section 3.2) — the reference backend;
//! * [`MatrixRepr`] — the adaptive representation that picks dense or CSR
//!   per result via a density threshold, used by `SparseInstance`, the
//!   engine and the query server; its matrix product dispatches mixed
//!   sparse·dense / dense·sparse operand pairs to the `O(nnz)`-aware
//!   kernels in [`mixed`] instead of promoting the sparse side.
//!
//! [`SparseMatrix`] is compressed sparse row (CSR) storage whose kernels
//! cost `O(nnz)` instead of `O(rows × cols)`, the natural fit for graph
//! adjacency matrices.  It is not a backend of its own: its kernels are
//! inherent methods that `MatrixRepr::Sparse` runs, and it is the layout
//! of instance loads, generated graphs and delta overlays.
//!
//! Every kernel runs on the calling thread: concurrency is the caller's
//! business (the query server runs one request per session worker).
//!
//! The [`MatrixStorage`] trait is the common interface: anything generic
//! over it (the evaluator, the graph algorithms, the RA⁺_K and WL
//! translations) runs on either backend unchanged.

#![forbid(unsafe_code)]

pub mod error;
pub mod index;
pub mod matrix;
pub mod mixed;
pub mod ops;
pub mod random;
pub mod repr;
pub mod snapshot;
pub mod sparse;
pub mod special;
pub mod storage;

pub use error::MatrixError;
pub use index::Canonical;
pub use matrix::Matrix;
pub use random::{
    random_adjacency, random_invertible, random_matrix, random_vector, sparse_erdos_renyi,
    sparse_power_law, RandomMatrixConfig,
};
pub use repr::MatrixRepr;
pub use snapshot::{CodecError, MatrixCodec};
pub use sparse::{CsrBuilder, SparseMatrix};
pub use storage::MatrixStorage;

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, MatrixError>;

/// Estimated multiply-adds below which a matrix product is not timed into
/// `kernel_dense_matmul_us` / `kernel_sparse_matmul_us`: two clock reads
/// and the histogram's atomics cost ≈ 0.1 µs, which a 12 × 12 product
/// pays to record 0 µs.  At 1–10 ns per multiply-add a product this
/// size runs for 10 µs or more, so the timer stays under 1 % of what it
/// measures and the histograms' `_sum` loses only sub-resolution samples.
const KERNEL_TIMER_MIN_WORK: usize = 10_000;

/// The start instant for a product kernel's histogram sample, when the
/// product is big enough to be worth timing and metrics are on.
fn kernel_timer(work: usize) -> Option<std::time::Instant> {
    (work >= KERNEL_TIMER_MIN_WORK && matlang_obs::enabled()).then(std::time::Instant::now)
}
