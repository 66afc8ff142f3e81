//! The sparse subsystem's acceptance point as a release-mode timing guard:
//! at 2000 nodes and average degree 8, CSR SpMM beats the dense product.

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
