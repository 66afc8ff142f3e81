//! Parity of the unboxed-scalar and in-place hooks with the kernels they
//! stand for: `select_entry`, `scalar_product`, `scalar_sum`,
//! `point_update_in_place` and `add_in_place` against `select`, `matmul`
//! and `add` on `scalar` operands, and `point_update` and `add` assigned,
//! on both backends (the adaptive one in both representations, so its
//! `MatrixRepr::Sparse` operands test the CSR kernels) and every semiring,
//! with 0, 1, a generic value and ±∞ — and, over ℝ, −0.0 and NaN.
//!
//! Results are compared whole: values by the bits of `to_f64`, matrices by
//! their codec bytes (representation tag, shape, CSR structure and entry
//! bits), errors by `==`.  An unboxed value must also *box* to exactly the
//! kernel's result, since a caller holding `k` stands it in for
//! `scalar(k)`; and `unboxed_scalar` may return `Some(k)` only for a value
//! that is `scalar(k)` in that same sense.

use matlang_matrix::{
    Canonical, Matrix, MatrixCodec, MatrixError, MatrixRepr, MatrixStorage, SparseMatrix,
};
use matlang_semiring::{Boolean, IntRing, MaxPlus, MinPlus, Nat, Real, Semiring};

type Outcome<T> = Result<T, MatrixError>;

fn bits<K: Semiring>(k: &K) -> u64 {
    k.to_f64().to_bits()
}

fn bytes<M: MatrixCodec>(m: &M) -> Vec<u8> {
    let mut out = Vec::new();
    m.encode_matrix(&mut out);
    out
}

/// The test values of `K`: zero, one, a generic value and ±∞ (which the
/// integer semirings saturate), plus any extras.
fn values<K: Semiring>(extra: &[f64]) -> Vec<K> {
    [0.0, 1.0, -2.5, f64::INFINITY, f64::NEG_INFINITY]
        .iter()
        .chain(extra)
        .map(|&x| K::from_f64(x))
        .collect()
}

/// Dense operands over `values`: a 3 × 3 with zeros between the values, a
/// row, a column, an 8 × 8 with five entries (large enough for the adaptive
/// backend to switch representation) and every value as a 1 × 1.
fn operands<K: Semiring>(values: &[K]) -> Vec<Matrix<K>> {
    let pick = |i: usize| values[i % values.len()].clone();
    let grid = |rows: usize, cols: usize, every: usize| {
        let data = (0..rows * cols)
            .map(|p| {
                if p % every == 0 {
                    pick(p / every)
                } else {
                    K::zero()
                }
            })
            .collect();
        Matrix::from_vec(rows, cols, data).unwrap()
    };
    let mut out = vec![grid(3, 3, 2), grid(1, 3, 1), grid(3, 1, 1), grid(8, 8, 13)];
    out.extend(values.iter().map(|k| Matrix::scalar(k.clone())));
    out
}

/// Canonical vectors of dimension `dim`, and one of another dimension for
/// the shape errors.
fn canonicals(dim: usize) -> Vec<Canonical> {
    let mut out: Vec<Canonical> = (0..dim).map(|i| Canonical::new(dim, i).unwrap()).collect();
    out.push(Canonical::new(dim + 1, dim).unwrap());
    out
}

/// Every hook of backend `M` on `mats`, against the kernels it stands for.
fn assert_hooks<M: MatrixStorage + MatrixCodec>(mats: &[M], values: &[M::Elem], context: &str) {
    for (a, b) in values
        .iter()
        .flat_map(|a| values.iter().map(move |b| (a, b)))
    {
        let (sa, sb) = (M::scalar(a.clone()), M::scalar(b.clone()));
        let product = sa.matmul(&sb).unwrap();
        let hook = M::scalar_product(a, b);
        assert_eq!(
            bits(&hook),
            bits(&product.as_scalar().unwrap()),
            "{a:?}·{b:?}, {context}"
        );
        assert_eq!(
            bytes(&M::scalar(hook)),
            bytes(&product),
            "{a:?}·{b:?} boxed, {context}"
        );
        let sum = sa.add(&sb).unwrap();
        let hook = M::scalar_sum(a, b);
        assert_eq!(
            bits(&hook),
            bits(&sum.as_scalar().unwrap()),
            "{a:?}+{b:?}, {context}"
        );
        assert_eq!(
            bytes(&M::scalar(hook)),
            bytes(&sum),
            "{a:?}+{b:?} boxed, {context}"
        );
    }
    for m in mats {
        assert_unboxed_contract(m, context);
        let (rows, cols) = m.shape();
        for r in canonicals(rows) {
            for c in canonicals(cols) {
                let hook = m.select_entry(r, c);
                let default = m.select(Some(r), Some(c));
                let read: [Outcome<u64>; 2] = [
                    hook.as_ref().map(bits).map_err(Clone::clone),
                    default
                        .as_ref()
                        .map(|s| bits(&s.as_scalar().unwrap()))
                        .map_err(Clone::clone),
                ];
                assert_eq!(read[0], read[1], "{m:?} at {r:?},{c:?}, {context}");
                if let (Ok(k), Ok(s)) = (hook, default) {
                    assert_eq!(bytes(&M::scalar(k)), bytes(&s), "entry boxed, {context}");
                }
                for s in values {
                    let mut updated = m.clone();
                    let hook = updated
                        .point_update_in_place(s, r, c)
                        .map(|()| bytes(&updated));
                    let default = m.point_update(s, r, c).map(|u| bytes(&u));
                    assert_eq!(hook, default, "{m:?} + {s:?} at {r:?},{c:?}, {context}");
                }
            }
        }
        for other in mats {
            let mut sum = m.clone();
            let hook = sum.add_in_place(other).map(|()| bytes(&sum));
            let default = m.add(other).map(|s| bytes(&s));
            assert_eq!(hook, default, "{m:?} + {other:?}, {context}");
        }
    }
}

/// `Some(k)` only for a value that is `scalar(k)`.
fn assert_unboxed_contract<M: MatrixStorage + MatrixCodec>(m: &M, context: &str) {
    if let Some(k) = m.unboxed_scalar() {
        assert_eq!(bytes(&M::scalar(k)), bytes(m), "{m:?}, {context}");
    }
    if !m.is_scalar() {
        assert!(m.unboxed_scalar().is_none(), "{m:?}, {context}");
    }
}

fn assert_every_backend<K: Semiring>(values: &[K]) {
    let dense = operands(values);
    let mut adaptive: Vec<MatrixRepr<K>> = dense.iter().cloned().map(MatrixRepr::Dense).collect();
    adaptive.extend(
        dense
            .iter()
            .map(|d| MatrixRepr::Sparse(SparseMatrix::from_dense(d))),
    );
    assert_hooks(&dense, values, "dense");
    assert_hooks(&adaptive, values, "adaptive");
    // Every scalar unboxes on the dense and adaptive backends; an adaptive
    // CSR 1 × 1 does not, though it holds the same entry.
    for k in values {
        assert_eq!(
            Matrix::scalar(k.clone()).unboxed_scalar().map(|u| bits(&u)),
            Some(bits(k))
        );
        assert!(MatrixRepr::scalar(k.clone()).unboxed_scalar().is_some());
        let csr = MatrixRepr::Sparse(SparseMatrix::scalar(k.clone()));
        assert!(csr.unboxed_scalar().is_none(), "{csr:?}");
    }
}

#[test]
fn boolean_hooks_equal_their_defaults() {
    assert_every_backend(&values::<Boolean>(&[]));
}

#[test]
fn nat_hooks_equal_their_defaults() {
    assert_every_backend(&values::<Nat>(&[]));
}

#[test]
fn int_ring_hooks_equal_their_defaults() {
    assert_every_backend(&values::<IntRing>(&[]));
}

#[test]
fn real_hooks_equal_their_defaults_bitwise() {
    assert_every_backend(&values::<Real>(&[-0.0, f64::NAN]));
}

#[test]
fn min_plus_hooks_equal_their_defaults() {
    assert_every_backend(&values::<MinPlus>(&[]));
}

#[test]
fn max_plus_hooks_equal_their_defaults() {
    assert_every_backend(&values::<MaxPlus>(&[]));
}
