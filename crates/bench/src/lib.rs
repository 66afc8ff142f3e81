//! Shared configuration for the benchmark harness.
//!
//! Every bench target in `benches/` corresponds to one experiment of
//! `EXPERIMENTS.md`.  The benchmarks compare the for-MATLANG interpreter (and
//! its translations into circuits / RA⁺_K / WL) against the native Rust
//! baselines on the same workloads; the point is the *shape* of the
//! comparison — who wins, by what factor, and how the gap scales with the
//! matrix dimension — not absolute numbers.

#![forbid(unsafe_code)]

use criterion::Criterion;
use std::time::Duration;

/// A Criterion configuration tuned for short, repeatable runs of the whole
/// suite (`cargo bench --workspace` finishes in a few minutes).
pub fn quick_criterion() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(150))
        .measurement_time(Duration::from_millis(700))
        .configure_from_args()
}

/// A Criterion configuration for the large sparse-vs-dense experiments,
/// where a single dense iteration can take hundreds of milliseconds:
/// minimal warm-up and a small measurement budget, so the suite still
/// finishes quickly.  (`sample_size` stays at 10, the minimum the real
/// criterion crate accepts, so swapping the vendored stand-in back keeps
/// working.)
pub fn sparse_criterion() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(30))
        .measurement_time(Duration::from_millis(300))
        .configure_from_args()
}

/// The matrix dimensions swept by the scaling experiments.
pub const SMALL_SIZES: &[usize] = &[4, 6, 8];

/// Dimensions for the cheaper interpreter micro-benchmarks.
pub const MICRO_SIZES: &[usize] = &[8, 16, 32];

/// Graph sizes for the sparse-vs-dense experiments (E10); the last entry is
/// the acceptance point of the sparse subsystem (2000 nodes, average degree
/// 8).
pub const SPARSE_SIZES: &[usize] = &[500, 1000, 2000];

/// Graph sizes for the sparse-vs-dense transitive-closure sweep.
pub const CLOSURE_SIZES: &[usize] = &[200, 400, 800];

/// Graph sizes for the backend-aware evaluator (WL workload) sweep.
pub const EVAL_SIZES: &[usize] = &[64, 128, 256];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_criterion_builds() {
        let _ = quick_criterion();
        let _ = sparse_criterion();
        assert!(SMALL_SIZES.windows(2).all(|w| w[0] < w[1]));
        assert!(MICRO_SIZES.windows(2).all(|w| w[0] < w[1]));
        assert!(SPARSE_SIZES.windows(2).all(|w| w[0] < w[1]));
        assert!(CLOSURE_SIZES.windows(2).all(|w| w[0] < w[1]));
        assert!(EVAL_SIZES.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn timing_guard_sparse_spmm_beats_dense_matmul() {
        // A coarse wall-clock guard for the sparse subsystem's acceptance
        // point: squaring a 2000-node, average-degree-8 Boolean adjacency
        // matrix must be faster in CSR than dense.  The release-mode margin
        // is ~3–4× (the dense kernel's zero-skip already removes most of the
        // Θ(n³) work) and grows with n, so we compare the *minimum* of three
        // timed rounds per kernel to shield against scheduler noise.
        use matlang_matrix::{sparse_erdos_renyi, SparseMatrix};
        use matlang_semiring::Boolean;
        use std::time::Instant;

        let n = 2000;
        let sparse: SparseMatrix<Boolean> = sparse_erdos_renyi(n, 8.0, 42);
        let dense = sparse.to_dense();

        let min_of = |rounds: usize, f: &dyn Fn()| {
            (0..rounds)
                .map(|_| {
                    let start = Instant::now();
                    f();
                    start.elapsed()
                })
                .min()
                .expect("at least one round")
        };

        // One untimed round each to warm caches, then min-of-3.
        let s = sparse.matmul(&sparse).unwrap();
        let d = dense.matmul(&dense).unwrap();
        assert_eq!(s.to_dense(), d, "kernels must agree before comparing speed");
        let sparse_elapsed = min_of(3, &|| {
            sparse.matmul(&sparse).unwrap();
        });
        let dense_elapsed = min_of(3, &|| {
            dense.matmul(&dense).unwrap();
        });

        assert!(
            sparse_elapsed < dense_elapsed,
            "sparse SpMM ({sparse_elapsed:?}) should beat dense matmul ({dense_elapsed:?})"
        );
    }
}
