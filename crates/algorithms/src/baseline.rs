//! Direct Rust implementations of the operations that the paper expresses in
//! for-MATLANG: the ground truth that the test suites and examples compare
//! the for-MATLANG expressions against.

use matlang_matrix::{Matrix, MatrixError, SparseMatrix};
use matlang_semiring::{Field, Semiring};
use std::collections::VecDeque;

/// The transitive closure of a directed graph given by an adjacency matrix:
/// entry `(i, j)` is `1` iff `j` is reachable from `i` by a non-empty path
/// (or by a possibly-empty path when `reflexive` is true).
///
/// Classic Floyd–Warshall / Warshall algorithm over the reachability
/// interpretation: any non-zero entry counts as an edge.
pub fn transitive_closure<K: Semiring>(adjacency: &Matrix<K>, reflexive: bool) -> Matrix<K> {
    let n = adjacency.rows();
    let mut reach = vec![vec![false; n]; n];
    for (i, j, v) in adjacency.iter_entries() {
        if !v.is_zero() {
            reach[i][j] = true;
        }
    }
    if reflexive {
        for (i, row) in reach.iter_mut().enumerate() {
            row[i] = true;
        }
    }
    for k in 0..n {
        // Row k is read while other rows are written; with boolean closure
        // the k-th row is a fixed point of its own update, so a snapshot is
        // equivalent.
        let row_k = reach[k].clone();
        for row_i in reach.iter_mut() {
            if !row_i[k] {
                continue;
            }
            for (j, &via_k) in row_k.iter().enumerate() {
                if via_k {
                    row_i[j] = true;
                }
            }
        }
    }
    let mut out = Matrix::zeros(n, n);
    for (i, row) in reach.iter().enumerate() {
        for (j, &r) in row.iter().enumerate() {
            if r {
                out.set(i, j, K::one()).expect("in bounds");
            }
        }
    }
    out
}

/// The set of vertices reachable from `source` by a possibly-empty path,
/// computed by breadth-first search directly on the CSR adjacency structure:
/// `O(nnz + n)` time, independent of the dense `n²` bound.  Any non-zero
/// entry counts as an edge.
pub fn sparse_reachable_from<K: Semiring>(adjacency: &SparseMatrix<K>, source: usize) -> Vec<bool> {
    let n = adjacency.rows();
    let mut seen = vec![false; n];
    if source >= n {
        return seen;
    }
    seen[source] = true;
    let mut queue = VecDeque::from([source]);
    while let Some(u) = queue.pop_front() {
        for &v in adjacency.row_entries(u).0 {
            if !seen[v] {
                seen[v] = true;
                queue.push_back(v);
            }
        }
    }
    seen
}

/// Whether the (symmetric, loop-free) graph has a 4-clique: four pairwise
/// distinct vertices that are pairwise adjacent.
pub fn has_four_clique<K: Semiring>(adjacency: &Matrix<K>) -> bool {
    let n = adjacency.rows();
    let adj = |i: usize, j: usize| !adjacency.get(i, j).expect("in bounds").is_zero();
    for a in 0..n {
        for b in (a + 1)..n {
            if !adj(a, b) {
                continue;
            }
            for c in (b + 1)..n {
                if !adj(a, c) || !adj(b, c) {
                    continue;
                }
                for d in (c + 1)..n {
                    if adj(a, d) && adj(b, d) && adj(c, d) {
                        return true;
                    }
                }
            }
        }
    }
    false
}

/// Number of labelled triangles, i.e. `tr(A³)` interpreted over the semiring.
pub fn triangle_trace<K: Semiring>(adjacency: &Matrix<K>) -> K {
    adjacency
        .pow(3)
        .and_then(|c| c.trace())
        .unwrap_or_else(|_| K::zero())
}

/// LU decomposition *without* pivoting by plain Gaussian elimination
/// (Section 4.1's textbook procedure).  Returns `(L, U)` with `A = L·U`,
/// `L` unit lower triangular and `U` upper triangular; fails when a pivot is
/// zero (the matrix is not LU-factorizable).
pub fn lu_decompose<K: Field>(a: &Matrix<K>) -> Result<(Matrix<K>, Matrix<K>), MatrixError> {
    if !a.is_square() {
        return Err(MatrixError::NotSquare { shape: a.shape() });
    }
    let n = a.rows();
    let mut u = a.clone();
    let mut l: Matrix<K> = Matrix::identity(n);
    for k in 0..n {
        let pivot = u.get(k, k)?.clone();
        let pivot_inv = pivot.inv().ok_or_else(|| MatrixError::Singular {
            message: format!("zero pivot at column {k}: matrix is not LU-factorizable"),
        })?;
        for i in (k + 1)..n {
            let factor = u.get(i, k)?.mul(&pivot_inv);
            l.set(i, k, factor.clone())?;
            for j in (k + 1)..n {
                let value = u.get(i, j)?.sub(&factor.mul(u.get(k, j)?));
                u.set(i, j, value)?;
            }
            // The eliminated entry is exactly zero by construction; set it
            // explicitly so no floating-point residue survives.
            u.set(i, k, K::zero())?;
        }
    }
    Ok((l, u))
}

/// The coefficients `c₁, …, cₙ` of the characteristic polynomial
/// `det(λI − A) = λⁿ + c₁λⁿ⁻¹ + ⋯ + cₙ`, computed with Newton's identities
/// from the power sums `p_k = tr(Aᵏ)` — the reference implementation for
/// Csanky's algorithm (Section 4.2).
pub fn char_poly_coeffs<K: Field>(a: &Matrix<K>) -> Result<Vec<K>, MatrixError> {
    if !a.is_square() {
        return Err(MatrixError::NotSquare { shape: a.shape() });
    }
    let n = a.rows();
    // Power sums p_1..p_n.
    let mut power = a.clone();
    let mut p = Vec::with_capacity(n);
    for k in 0..n {
        p.push(power.trace()?);
        if k + 1 < n {
            power = power.matmul(a)?;
        }
    }
    // Newton: k·c_k = −(p_k + Σ_{j=1}^{k−1} c_j·p_{k−j}).
    let mut c: Vec<K> = Vec::with_capacity(n);
    for k in 1..=n {
        let mut acc = p[k - 1].clone();
        for j in 1..k {
            acc = acc.add(&c[j - 1].mul(&p[k - j - 1]));
        }
        let k_inv = K::from_f64(k as f64)
            .inv()
            .ok_or_else(|| MatrixError::Singular {
                message: "characteristic of the field divides k".to_string(),
            })?;
        c.push(acc.mul(&k_inv).neg());
    }
    Ok(c)
}

/// Determinant via the characteristic polynomial: `det(A) = (−1)ⁿ·cₙ`.
pub fn determinant_via_char_poly<K: Field>(a: &Matrix<K>) -> Result<K, MatrixError> {
    let n = a.rows();
    let c = char_poly_coeffs(a)?;
    let sign = if n % 2 == 0 { K::one() } else { K::one().neg() };
    Ok(sign.mul(&c[n - 1]))
}

/// Inverse via Cayley–Hamilton:
/// `A⁻¹ = −(1/cₙ)·(Aⁿ⁻¹ + c₁Aⁿ⁻² + ⋯ + cₙ₋₁I)`.
pub fn inverse_via_char_poly<K: Field>(a: &Matrix<K>) -> Result<Matrix<K>, MatrixError> {
    let n = a.rows();
    let c = char_poly_coeffs(a)?;
    let cn_inv = c[n - 1].inv().ok_or_else(|| MatrixError::Singular {
        message: "matrix is singular (c_n = 0)".to_string(),
    })?;
    // Horner-style accumulation of A^{n-1} + c_1 A^{n-2} + ... + c_{n-1} I.
    let mut acc: Matrix<K> = Matrix::identity(n);
    for coeff in c.iter().take(n - 1) {
        acc = a.matmul(&acc)?;
        let diag = Matrix::identity(n).scalar_mul(coeff);
        acc = acc.add(&diag)?;
    }
    Ok(acc.scalar_mul(&cn_inv.neg()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use matlang_matrix::random_invertible;
    use matlang_semiring::{Boolean, Real};

    fn m(rows: &[&[f64]]) -> Matrix<Real> {
        Matrix::from_f64_rows(rows).unwrap()
    }

    #[test]
    fn transitive_closure_of_a_path() {
        let adj = m(&[&[0.0, 1.0, 0.0], &[0.0, 0.0, 1.0], &[0.0, 0.0, 0.0]]);
        let tc = transitive_closure(&adj, false);
        assert_eq!(
            tc,
            m(&[&[0.0, 1.0, 1.0], &[0.0, 0.0, 1.0], &[0.0, 0.0, 0.0]])
        );
        let rtc = transitive_closure(&adj, true);
        assert_eq!(rtc.get(0, 0).unwrap().0, 1.0);
        assert_eq!(rtc.get(2, 2).unwrap().0, 1.0);
    }

    #[test]
    fn transitive_closure_of_a_cycle_is_complete() {
        let adj: Matrix<Boolean> =
            Matrix::from_f64_rows(&[&[0.0, 1.0, 0.0], &[0.0, 0.0, 1.0], &[1.0, 0.0, 0.0]]).unwrap();
        let tc = transitive_closure(&adj, false);
        assert!(tc.entries().iter().all(|v| v.0));
    }

    #[test]
    fn sparse_reachability_matches_closure_row() {
        let adj: SparseMatrix<Boolean> = SparseMatrix::from_dense(
            &Matrix::from_f64_rows(&[
                &[0.0, 1.0, 0.0, 0.0],
                &[0.0, 0.0, 1.0, 0.0],
                &[0.0, 0.0, 0.0, 0.0],
                &[1.0, 0.0, 0.0, 0.0],
            ])
            .unwrap(),
        );
        let reach = sparse_reachable_from(&adj, 3);
        assert_eq!(reach, vec![true, true, true, true]);
        let reach = sparse_reachable_from(&adj, 2);
        assert_eq!(reach, vec![false, false, true, false]);
        // Out-of-range sources reach nothing.
        assert!(sparse_reachable_from(&adj, 9).iter().all(|r| !r));
    }

    #[test]
    fn four_clique_detection() {
        let mut k4: Matrix<Real> = Matrix::zeros(5, 5);
        for i in 0..4 {
            for j in 0..4 {
                if i != j {
                    k4.set(i, j, Real(1.0)).unwrap();
                }
            }
        }
        assert!(has_four_clique(&k4));
        let c5: Matrix<Real> = {
            let mut c = Matrix::zeros(5, 5);
            for i in 0..5 {
                c.set(i, (i + 1) % 5, Real(1.0)).unwrap();
                c.set((i + 1) % 5, i, Real(1.0)).unwrap();
            }
            c
        };
        assert!(!has_four_clique(&c5));
    }

    #[test]
    fn triangle_trace_counts_labelled_triangles() {
        // A directed 3-cycle has exactly 3 labelled closed walks of length 3
        // through distinct starts.
        let adj = m(&[&[0.0, 1.0, 0.0], &[0.0, 0.0, 1.0], &[1.0, 0.0, 0.0]]);
        assert_eq!(triangle_trace(&adj).0, 3.0);
    }

    #[test]
    fn lu_decomposition_reconstructs_the_matrix() {
        for seed in 0..8 {
            let a: Matrix<Real> = random_invertible(6, seed);
            let (l, u) = lu_decompose(&a).unwrap();
            assert!(l.is_lower_triangular());
            assert!(u.is_upper_triangular());
            for i in 0..6 {
                assert_eq!(l.get(i, i).unwrap().0, 1.0);
            }
            assert!(l.matmul(&u).unwrap().approx_eq(&a, 1e-9));
        }
    }

    #[test]
    fn lu_decomposition_fails_on_zero_pivot() {
        let a = m(&[&[0.0, 1.0], &[1.0, 0.0]]);
        assert!(lu_decompose(&a).is_err());
        assert!(lu_decompose(&m(&[&[1.0, 2.0]])).is_err());
    }

    #[test]
    fn char_poly_of_a_diagonal_matrix() {
        // A = diag(1, 2): det(λI − A) = (λ−1)(λ−2) = λ² − 3λ + 2.
        let a = m(&[&[1.0, 0.0], &[0.0, 2.0]]);
        let c = char_poly_coeffs(&a).unwrap();
        assert!((c[0].0 - (-3.0)).abs() < 1e-12);
        assert!((c[1].0 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn char_poly_determinant_matches_gaussian_elimination() {
        for seed in 0..6 {
            let a: Matrix<Real> = random_invertible(5, seed);
            let d1 = determinant_via_char_poly(&a).unwrap().0;
            let d2 = a.determinant().unwrap().0;
            let scale = d1.abs().max(d2.abs()).max(1.0);
            assert!((d1 - d2).abs() / scale < 1e-8, "seed {seed}: {d1} vs {d2}");
        }
    }

    #[test]
    fn char_poly_inverse_matches_gauss_jordan() {
        for seed in 0..6 {
            let a: Matrix<Real> = random_invertible(5, seed);
            let inv1 = inverse_via_char_poly(&a).unwrap();
            let inv2 = a.inverse().unwrap();
            assert!(inv1.approx_eq(&inv2, 1e-7), "seed {seed}");
        }
    }

    #[test]
    fn inverse_via_char_poly_rejects_singular_input() {
        let a = m(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(inverse_via_char_poly(&a).is_err());
    }
}
