//! Graph queries from the paper: 4-clique (Example 3.3), transitive closure
//! (Example 3.5 and Section 6.3), the trace and the diagonal product
//! (Example 6.6).

use crate::order;
use matlang_core::{Expr, MatrixType};

/// Example 3.3 — the 4-clique query.
///
/// A sum-MATLANG expression over the adjacency-matrix variable `graph` that
/// evaluates to a non-zero scalar iff the (undirected, loop-free) graph
/// contains a 4-clique.  The pointwise function `f(u, v) = 1 − uᵀ·v` of the
/// paper is inlined using constants.
pub fn four_clique(graph: &str, dim: &str) -> Expr {
    let distinct = |a: &str, b: &str| Expr::lit(1.0).minus(Expr::var(a).t().mm(Expr::var(b)));
    let edge = |a: &str, b: &str| Expr::var(a).t().mm(Expr::var(graph)).mm(Expr::var(b));
    let all_distinct = distinct("_c4_u", "_c4_v")
        .mm(distinct("_c4_u", "_c4_w"))
        .mm(distinct("_c4_u", "_c4_x"))
        .mm(distinct("_c4_v", "_c4_w"))
        .mm(distinct("_c4_v", "_c4_x"))
        .mm(distinct("_c4_w", "_c4_x"));
    let all_edges = edge("_c4_u", "_c4_v")
        .mm(edge("_c4_u", "_c4_w"))
        .mm(edge("_c4_u", "_c4_x"))
        .mm(edge("_c4_v", "_c4_w"))
        .mm(edge("_c4_v", "_c4_x"))
        .mm(edge("_c4_w", "_c4_x"));
    Expr::sum(
        "_c4_u",
        dim,
        Expr::sum(
            "_c4_v",
            dim,
            Expr::sum(
                "_c4_w",
                dim,
                Expr::sum("_c4_x", dim, all_edges.mm(all_distinct)),
            ),
        ),
    )
}

/// Example 3.5 — the Floyd–Warshall-style transitive closure.
///
/// ```text
/// e_FW := for v_k, X₁ = A. X₁ + for v_i, X₂. X₂ + for v_j, X₃. X₃ +
///             (v_iᵀ·X₁·v_k · v_kᵀ·X₁·v_j) × v_i·v_jᵀ
/// ```
///
/// On an adjacency matrix the result has a non-zero entry `(i, j)` iff `j` is
/// reachable from `i` by a non-empty path.
pub fn transitive_closure_fw(graph: &str, dim: &str) -> Expr {
    let sq = MatrixType::square(dim);
    let vi_x1_vk = Expr::var("_fw_vi")
        .t()
        .mm(Expr::var("_fw_X1"))
        .mm(Expr::var("_fw_vk"));
    let vk_x1_vj = Expr::var("_fw_vk")
        .t()
        .mm(Expr::var("_fw_X1"))
        .mm(Expr::var("_fw_vj"));
    let update = vi_x1_vk
        .mm(vk_x1_vj)
        .smul(Expr::var("_fw_vi").mm(Expr::var("_fw_vj").t()));
    let inner_j = Expr::for_loop(
        "_fw_vj",
        dim,
        "_fw_X3",
        sq.clone(),
        Expr::var("_fw_X3").add(update),
    );
    let inner_i = Expr::for_loop(
        "_fw_vi",
        dim,
        "_fw_X2",
        sq.clone(),
        Expr::var("_fw_X2").add(inner_j),
    );
    Expr::for_init(
        "_fw_vk",
        dim,
        "_fw_X1",
        sq,
        Expr::var(graph),
        Expr::var("_fw_X1").add(inner_i),
    )
}

/// The thresholded Floyd–Warshall transitive closure: the 0/1 matrix whose
/// `(i, j)` entry is 1 iff `j` is reachable from `i`.  Requires `f_{>0}`; the
/// Floyd–Warshall accumulation over ℝ counts path decompositions, so entries
/// are squashed back to booleans with `f_{>0}(x²)`... over the reals a plain
/// `gt0` suffices because all accumulated values are non-negative.
pub fn transitive_closure_fw_bool(graph: &str, dim: &str) -> Expr {
    Expr::apply("gt0", vec![transitive_closure_fw(graph, dim)])
}

/// Section 6.3 — the prod-MATLANG transitive closure
/// `e_TC(V) := f_{>0}(Πv. (e_Id + V))`, using that non-zero entries of
/// `(I + A)ⁿ` coincide with the reflexive-transitive closure of `A`.
///
/// Note this computes the *reflexive* transitive closure (the diagonal is
/// always reachable); the paper uses the same convention.
pub fn transitive_closure_prod(graph: &str, dim: &str) -> Expr {
    let body = order::identity(dim).add(Expr::var(graph));
    Expr::apply("gt0", vec![Expr::mprod("_tc_v", dim, body)])
}

/// The trace `tr(A) = Σv. vᵀ·A·v` (a sum-MATLANG expression).
pub fn trace(matrix: &str, dim: &str) -> Expr {
    Expr::sum(
        "_tr_v",
        dim,
        Expr::var("_tr_v")
            .t()
            .mm(Expr::var(matrix))
            .mm(Expr::var("_tr_v")),
    )
}

/// Example 6.6 — the diagonal product `Π∘v. vᵀ·A·v`, an FO-MATLANG expression
/// whose value can be exponential in the dimension (hence not expressible in
/// sum-MATLANG).
pub fn diagonal_product(matrix: &str, dim: &str) -> Expr {
    Expr::hprod(
        "_dp_v",
        dim,
        Expr::var("_dp_v")
            .t()
            .mm(Expr::var(matrix))
            .mm(Expr::var("_dp_v")),
    )
}

/// The number of (directed) triangles times 6... more precisely
/// `Σu Σv Σw A[u,v]·A[v,w]·A[w,u]` = `tr(A³)`, a sum-MATLANG expression used
/// as an extra workload in the tests and matbench's `paper_loops`.
pub fn triangle_count(graph: &str, dim: &str) -> Expr {
    let edge = |a: &str, b: &str| Expr::var(a).t().mm(Expr::var(graph)).mm(Expr::var(b));
    Expr::sum(
        "_t3_u",
        dim,
        Expr::sum(
            "_t3_v",
            dim,
            Expr::sum(
                "_t3_w",
                dim,
                edge("_t3_u", "_t3_v")
                    .mm(edge("_t3_v", "_t3_w"))
                    .mm(edge("_t3_w", "_t3_u")),
            ),
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline;
    use crate::helpers::{adjacency_instance, standard_registry};
    use matlang_core::{evaluate, fragment_of, Fragment};
    use matlang_matrix::{random_adjacency, Matrix};
    use matlang_semiring::Real;

    fn eval_scalar(e: &Expr, adj: &Matrix<Real>) -> f64 {
        let inst = adjacency_instance("G", "n", adj.clone());
        evaluate(e, &inst, &standard_registry())
            .unwrap()
            .as_scalar()
            .unwrap()
            .0
    }

    #[test]
    fn four_clique_is_sum_matlang() {
        assert_eq!(fragment_of(&four_clique("G", "n")), Fragment::SumMatlang);
    }

    #[test]
    fn four_clique_detects_k4_and_rejects_c4() {
        let mut k4: Matrix<Real> = Matrix::zeros(4, 4);
        for i in 0..4 {
            for j in 0..4 {
                if i != j {
                    k4.set(i, j, Real(1.0)).unwrap();
                }
            }
        }
        assert!(eval_scalar(&four_clique("G", "n"), &k4) > 0.0);

        let c4: Matrix<Real> = Matrix::from_f64_rows(&[
            &[0.0, 1.0, 0.0, 1.0],
            &[1.0, 0.0, 1.0, 0.0],
            &[0.0, 1.0, 0.0, 1.0],
            &[1.0, 0.0, 1.0, 0.0],
        ])
        .unwrap();
        assert_eq!(eval_scalar(&four_clique("G", "n"), &c4), 0.0);
    }

    #[test]
    fn four_clique_agrees_with_brute_force_on_random_graphs() {
        for seed in 0..6 {
            let adj: Matrix<Real> = random_adjacency(6, 0.5, seed);
            // Make the graph undirected for the clique semantics.
            let sym = adj.add(&adj.transpose()).unwrap().map(|v| {
                if v.0 > 0.0 {
                    Real(1.0)
                } else {
                    Real(0.0)
                }
            });
            let expr_says = eval_scalar(&four_clique("G", "n"), &sym) > 0.0;
            let brute_says = baseline::has_four_clique(&sym);
            assert_eq!(expr_says, brute_says, "disagreement for seed {seed}");
        }
    }

    #[test]
    fn floyd_warshall_expression_matches_baseline_reachability() {
        for seed in 0..6 {
            let adj: Matrix<Real> = random_adjacency(6, 0.3, seed);
            let inst = adjacency_instance("G", "n", adj.clone());
            let out = evaluate(
                &transitive_closure_fw_bool("G", "n"),
                &inst,
                &standard_registry(),
            )
            .unwrap();
            let expected = baseline::transitive_closure(&adj, false);
            assert_eq!(out, expected, "TC mismatch for seed {seed}");
        }
    }

    #[test]
    fn floyd_warshall_is_for_matlang() {
        assert_eq!(
            fragment_of(&transitive_closure_fw("G", "n")),
            Fragment::ForMatlang
        );
    }

    #[test]
    fn prod_tc_matches_reflexive_reachability() {
        for seed in 0..6 {
            let adj: Matrix<Real> = random_adjacency(5, 0.3, seed);
            let inst = adjacency_instance("G", "n", adj.clone());
            let out = evaluate(
                &transitive_closure_prod("G", "n"),
                &inst,
                &standard_registry(),
            )
            .unwrap();
            let expected = baseline::transitive_closure(&adj, true);
            assert_eq!(out, expected, "prod TC mismatch for seed {seed}");
        }
    }

    #[test]
    fn prod_tc_is_prod_matlang() {
        assert_eq!(
            fragment_of(&transitive_closure_prod("G", "n")),
            Fragment::ProdMatlang
        );
    }

    #[test]
    fn trace_and_diagonal_product() {
        let a: Matrix<Real> =
            Matrix::from_f64_rows(&[&[2.0, 9.0, 9.0], &[9.0, 3.0, 9.0], &[9.0, 9.0, 4.0]]).unwrap();
        assert_eq!(eval_scalar(&trace("G", "n"), &a), 9.0);
        assert_eq!(eval_scalar(&diagonal_product("G", "n"), &a), 24.0);
        assert_eq!(fragment_of(&trace("G", "n")), Fragment::SumMatlang);
        assert_eq!(
            fragment_of(&diagonal_product("G", "n")),
            Fragment::FoMatlang
        );
    }

    #[test]
    fn triangle_count_matches_trace_of_cube() {
        for seed in 0..4 {
            let adj: Matrix<Real> = random_adjacency(6, 0.4, seed);
            let cube = adj.pow(3).unwrap();
            let expected = cube.trace().unwrap().0;
            assert!((eval_scalar(&triangle_count("G", "n"), &adj) - expected).abs() < 1e-9);
        }
    }
}
