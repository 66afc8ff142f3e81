//! Parity of the loop-index kernels with the products they replace:
//! `select`, `place` (the unit matrix included) and `point_update` against
//! the unfused products with `Canonical::vector` — entries, stored
//! structure and errors — on every backend and every semiring.
//!
//! CSR equality is structural (`indptr`/`indices`/`values`), so a stored
//! zero or an entry the product would have dropped fails the comparison
//! even when the dense forms agree.

use matlang_matrix::{
    random_matrix, Canonical, Matrix, MatrixRepr, MatrixStorage, RandomMatrixConfig, SparseMatrix,
};
use matlang_semiring::{Boolean, IntRing, MaxPlus, MinPlus, Nat, Real, Semiring};

fn canonicals(dim: usize) -> Vec<Canonical> {
    // The first, last and a middle index, plus one past the dimension's
    // neighbour to hit the shape errors.
    let mut out: Vec<Canonical> = [0, dim / 2, dim - 1]
        .into_iter()
        .map(|i| Canonical::new(dim, i).unwrap())
        .collect();
    out.push(Canonical::new(dim + 1, dim).unwrap());
    out
}

/// Every kernel against the unfused product over `a`, for canonical vectors
/// of `a`'s dimensions (and one mismatched dimension).
fn assert_parity<M: MatrixStorage>(a: &M, scalar: &M::Elem, context: &str) {
    let (rows, cols) = a.shape();
    let bt = |c: Canonical| c.vector::<M>().transpose();
    let rows_at = canonicals(rows);
    let cols_at = canonicals(cols);
    for &r in &rows_at {
        let unfused = bt(r).matmul(a);
        assert_eq!(a.select(Some(r), None), unfused, "bᵢᵀ·a, {r:?}, {context}");
        // `bᵢ·x` for the 1 × m row x = bᵢᵀ·a.
        if let Ok(row) = &unfused {
            let placed = r.vector::<M>().matmul(row);
            assert_eq!(row.place(Some(r), None), placed, "bᵢ·x, {r:?}, {context}");
        }
        for &c in &cols_at {
            let unfused = bt(r).matmul(a).and_then(|x| x.matmul(&c.vector()));
            let entry = a.select(Some(r), Some(c));
            assert_eq!(entry, unfused, "bᵢᵀ·a·bⱼ, {r:?} {c:?}, {context}");
            if let Ok(other_way) = a.matmul(&c.vector()).and_then(|x| bt(r).matmul(&x)) {
                assert_eq!(entry, Ok(other_way), "bᵢᵀ·(a·bⱼ), {context}");
            }
        }
    }
    for &c in &cols_at {
        let unfused = a.matmul(&c.vector());
        assert_eq!(a.select(None, Some(c)), unfused, "a·bⱼ, {c:?}, {context}");
        // `x·bⱼᵀ` for the n × 1 column x = a·bⱼ.
        if let Ok(col) = &unfused {
            let placed = col.matmul(&bt(c));
            assert_eq!(col.place(None, Some(c)), placed, "x·bⱼᵀ, {c:?}, {context}");
        }
    }
    // The placements' own shape errors: a is not a row / column.
    if rows > 1 {
        let r = rows_at[0];
        assert_eq!(
            a.place(Some(r), None),
            r.vector::<M>().matmul(a),
            "{context}"
        );
    }
    if cols > 1 {
        let c = cols_at[0];
        assert_eq!(a.place(None, Some(c)), a.matmul(&bt(c)), "{context}");
    }
    for &r in &rows_at {
        for &c in &cols_at {
            // The unit matrix: the one placed at (i, j); and a scalar there.
            let unit = r.vector::<M>().matmul(&bt(c)).unwrap();
            let one = M::scalar(M::Elem::one());
            assert_eq!(
                one.place(Some(r), Some(c)),
                Ok(unit.clone()),
                "bᵢ·bⱼᵀ, {context}"
            );
            let s = M::scalar(scalar.clone());
            let placed = r.vector::<M>().matmul(&s).and_then(|x| x.matmul(&bt(c)));
            assert_eq!(s.place(Some(r), Some(c)), placed, "bᵢ·s·bⱼᵀ, {context}");
            let updated = a.add(&unit.scalar_mul(scalar));
            assert_eq!(
                a.point_update(scalar, r, c),
                updated,
                "a + s × bᵢ·bⱼᵀ, {r:?} {c:?}, {context}"
            );
        }
    }
}

/// The same operand on the dense, CSR and both adaptive representations.
fn assert_parity_on_every_backend<K: Semiring>(a: &Matrix<K>, scalar: &K, context: &str) {
    assert_parity(a, scalar, &format!("dense, {context}"));
    let sparse = SparseMatrix::from_dense(a);
    assert_parity(&sparse, scalar, &format!("csr, {context}"));
    assert_parity(
        &MatrixRepr::Dense(a.clone()),
        scalar,
        &format!("adaptive dense, {context}"),
    );
    assert_parity(
        &MatrixRepr::Sparse(sparse),
        scalar,
        &format!("adaptive csr, {context}"),
    );
}

/// Seeded random operands over `K` with entries drawn from `min..=max`:
/// square, rectangular, row, column and scalar shapes, sparse and dense;
/// scalars drawn from the same range, zero included.
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
    let shapes = [(12, 12), (5, 9), (9, 1), (1, 7), (1, 1), (10, 10)];
    for (seed, (rows, cols)) in shapes.into_iter().enumerate() {
        let seed = 100 * seed as u64;
        for zero_probability in [0.0, 0.7] {
            let a = operand(rows, cols, seed + 1, zero_probability);
            let scalars = operand(1, 2, seed + 2, 0.0);
            for scalar in [scalars.get(0, 0).unwrap(), &K::zero(), &K::one()] {
                let context = format!("{rows}×{cols}, p0={zero_probability}, s={scalar:?}");
                assert_parity_on_every_backend(&a, scalar, &context);
            }
            // Update the entry with its own negation where there is one.
            if let Some((i, j, x)) = a.nonzero_entries().first() {
                let unit = Canonical::new(rows, *i).unwrap();
                let neg = K::from_f64(-x.to_f64());
                if x.add(&neg).is_zero() {
                    let col = Canonical::new(cols, *j).unwrap();
                    let cancelled = SparseMatrix::from_dense(&a)
                        .point_update(&neg, unit, col)
                        .unwrap();
                    assert_eq!(cancelled.get(*i, *j).unwrap(), K::zero());
                    assert_eq!(cancelled.nnz(), a.nnz() - 1, "a zero sum is not stored");
                }
            }
        }
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
    random_parity::<Real>(-1.0, 1.0, false);
    random_parity::<Real>(-2.0, 2.0, true);
}

#[test]
fn large_dimensions_select_in_csr() {
    // 300 > the executor's shared-basis bound: canonical vectors are CSR on
    // the adaptive backend, and a placed column is a sparse result.
    let a = random_matrix::<Real>(300, 300, &RandomMatrixConfig::seeded(3));
    let adaptive = MatrixRepr::from_dense_auto(a.clone());
    let (r, c) = (
        Canonical::new(300, 7).unwrap(),
        Canonical::new(300, 299).unwrap(),
    );
    let column = adaptive.select(None, Some(c)).unwrap();
    assert_eq!(column.to_dense(), a.matmul(&c.vector()).unwrap());
    let placed = column.place(None, Some(r)).unwrap();
    assert!(placed.is_sparse(), "one column of 300 is sparse");
    assert_eq!(
        placed.to_dense(),
        column
            .to_dense()
            .matmul(&r.vector::<Matrix<Real>>().transpose())
            .unwrap()
    );
    let one = MatrixRepr::<Real>::scalar(Real(1.0));
    assert!(one.place(Some(r), Some(c)).unwrap().is_sparse());
}
