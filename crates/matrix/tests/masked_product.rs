//! Parity of the fused masked product with the pair it replaces:
//! `a.matmul_masked(b, m) == a.matmul(b)?.hadamard(m)` — entries, stored
//! structure and errors — on both backends and every semiring; and its
//! value is `m.hadamard(&a.matmul(b)?)`'s too, since `⊗` commutes in each
//! of them, which is what lets one kernel serve a mask on either side of
//! the `∘`.
//!
//! The adaptive backend takes the fused CSR pass when all three operands
//! are `MatrixRepr::Sparse`, so that combination tests the CSR kernel.

use matlang_matrix::{
    random_matrix, Matrix, MatrixRepr, MatrixStorage, RandomMatrixConfig, SparseMatrix,
};
use matlang_semiring::{Boolean, IntRing, MaxPlus, MinPlus, Nat, Real, Semiring};

/// The fused kernel against the unfused pair — results and errors alike —
/// and its value against the pair with the mask on the left.
fn assert_parity<M: MatrixStorage>(a: &M, b: &M, m: &M, context: &str) {
    let product = a.matmul(b);
    let unfused = product.clone().and_then(|p| p.hadamard(m));
    let fused = a.matmul_masked(b, m);
    assert_eq!(fused, unfused, "(a·b)∘m, {context}");
    if let Ok(mirrored) = product.and_then(|p| m.hadamard(&p)) {
        assert_eq!(fused, Ok(mirrored), "m∘(a·b), {context}");
    }
}

/// The same operands on the dense and adaptive backends; on the adaptive
/// one in all eight dense/CSR combinations, of which only the all-CSR one
/// takes the fused pass.
fn assert_parity_on_every_backend<K: Semiring>(
    a: &Matrix<K>,
    b: &Matrix<K>,
    m: &Matrix<K>,
    context: &str,
) {
    assert_parity(a, b, m, &format!("dense, {context}"));
    let repr = |dense: &Matrix<K>, as_sparse: bool| {
        if as_sparse {
            MatrixRepr::Sparse(SparseMatrix::from_dense(dense))
        } else {
            MatrixRepr::Dense(dense.clone())
        }
    };
    for bits in 0..8u8 {
        let (sa, sb, sm) = (bits & 1 != 0, bits & 2 != 0, bits & 4 != 0);
        assert_parity(
            &repr(a, sa),
            &repr(b, sb),
            &repr(m, sm),
            &format!("adaptive csr=({sa},{sb},{sm}), {context}"),
        );
    }
}

/// Seeded random operands over `K` with entries drawn from `min..=max`:
/// square, rectangular and strip shapes, a mask with empty rows, an empty
/// mask and empty factors.
fn random_parity<K: Semiring>(min: f64, max: f64, integer_entries: bool) {
    let operand = |rows, cols, seed, zero_probability| {
        random_matrix::<K>(
            rows,
            cols,
            &RandomMatrixConfig {
                seed,
                min_value: min,
                max_value: max,
                zero_probability,
                integer_entries,
            },
        )
    };
    for (seed, (rows, inner, cols)) in [(9, 9, 9), (5, 7, 4), (1, 6, 1), (6, 1, 6), (12, 3, 10)]
        .into_iter()
        .enumerate()
    {
        let seed = 100 * seed as u64;
        let a = operand(rows, inner, seed + 1, 0.6);
        let b = operand(inner, cols, seed + 2, 0.6);
        let mut m = operand(rows, cols, seed + 3, 0.5);
        let context = format!("{rows}×{inner}·{inner}×{cols}");
        assert_parity_on_every_backend(&a, &b, &m, &context);
        // Every other mask row emptied.
        for i in (0..rows).step_by(2) {
            for j in 0..cols {
                m.set(i, j, K::zero()).unwrap();
            }
        }
        assert_parity_on_every_backend(&a, &b, &m, &format!("{context}, sparse mask rows"));
        let none = Matrix::zeros(rows, cols);
        assert_parity_on_every_backend(&a, &b, &none, &format!("{context}, empty mask"));
        let no_a = Matrix::zeros(rows, inner);
        assert_parity_on_every_backend(&no_a, &b, &m, &format!("{context}, empty factor"));
    }
}

#[test]
fn boolean_parity() {
    random_parity::<Boolean>(1.0, 1.0, true);
}

#[test]
fn nat_parity() {
    random_parity::<Nat>(1.0, 6.0, true);
}

#[test]
fn int_ring_parity_with_cancellation() {
    random_parity::<IntRing>(-3.0, 3.0, true);
}

#[test]
fn min_plus_parity() {
    random_parity::<MinPlus>(-4.0, 9.0, false);
}

#[test]
fn max_plus_parity() {
    random_parity::<MaxPlus>(-4.0, 9.0, false);
}

#[test]
fn real_parity_is_bitwise_on_rounding_entries() {
    // Fractional entries make every sum round, so a different term order
    // would show in the low bits.
    random_parity::<Real>(-1.0, 1.0, false);
    // Small integers make whole entries cancel.
    random_parity::<Real>(-2.0, 2.0, true);
}

#[test]
fn a_cancelled_product_entry_is_dropped_before_the_mask() {
    // [1 −1]·[1 1]ᵀ = 0 under an ∞ mask: the unfused pair drops the
    // product entry, so neither path may compute 0 ⊗ ∞ = NaN.
    let a = Matrix::<Real>::from_f64_rows(&[&[1.0, -1.0]]).unwrap();
    let b = Matrix::from_f64_rows(&[&[1.0], &[1.0]]).unwrap();
    let m = Matrix::from_f64_rows(&[&[f64::INFINITY]]).unwrap();
    let csr = |d: &Matrix<Real>| MatrixRepr::Sparse(SparseMatrix::from_dense(d));
    let (a, b, m) = (csr(&a), csr(&b), csr(&m));
    assert_parity(&a, &b, &m, "cancellation");
    assert_eq!(a.matmul_masked(&b, &m).unwrap().nnz(), 0);
}

#[test]
fn a_mask_entry_without_a_product_entry_yields_nothing() {
    // The product has the single entry (0, 0); the mask is full.
    let a = Matrix::<Nat>::from_rows(vec![vec![Nat(2), Nat(0)], vec![Nat(0), Nat(0)]]).unwrap();
    let b = Matrix::<Nat>::identity(2);
    let m = Matrix::from_rows(vec![vec![Nat(3), Nat(5)], vec![Nat(7), Nat(11)]]).unwrap();
    assert_parity_on_every_backend(&a, &b, &m, "full mask over one product entry");
    let fused = SparseMatrix::from_dense(&a)
        .matmul_masked(&SparseMatrix::from_dense(&b), &SparseMatrix::from_dense(&m))
        .unwrap();
    assert_eq!(fused.iter_entries().collect::<Vec<_>>(), [(0, 0, &Nat(6))]);
}

#[test]
fn shape_errors_are_the_unfused_pairs() {
    let mat = |rows, cols| random_matrix::<Real>(rows, cols, &RandomMatrixConfig::seeded(7));
    // Inner dimension, mask shape, and both at once (inner dimension wins).
    for (a, b, m) in [
        (mat(3, 4), mat(5, 2), mat(3, 2)),
        (mat(3, 4), mat(4, 2), mat(2, 3)),
        (mat(3, 4), mat(5, 2), mat(9, 9)),
    ] {
        assert!(a.matmul_masked(&b, &m).is_err());
        assert_parity_on_every_backend(&a, &b, &m, "shape errors");
    }
}
