//! Property suite for the cost-based rewrite layer: every rule must
//! preserve semantics over random well-typed expressions — on the
//! Boolean, ℕ and tropical (min-plus) semirings, over both the dense and
//! the adaptive backend — both end-to-end (engine with rewrites vs. the
//! tree evaluator) and at the source level (the rewritten expression
//! evaluates to the same value as the original under `core::evaluate`).
//!
//! The generator is biased toward the shapes the rules fire on: product
//! chains, transposed products, diagonalized vectors on either side of a
//! product, `1(e)` of compound operands, and loops wrapping all of the
//! above.

use matlang_core::{evaluate, Expr, FunctionRegistry, Instance, SparseInstance};
use matlang_engine::{rewrite_with_stats, Engine, InstanceStats};
use matlang_matrix::{Matrix, MatrixRepr};
use matlang_semiring::{Boolean, MinPlus, Nat, Semiring};
use proptest::prelude::*;

/// Builds a random square-typed (`n × n`) expression over the square
/// matrix `G` and the vector `u`, consuming words from `words`.
fn square_expr(budget: usize, depth: usize, words: &mut impl Iterator<Item = u64>) -> Expr {
    let word = words.next().unwrap_or(0);
    if budget == 0 {
        return Expr::var("G");
    }
    let v = format!("v{depth}");
    match word % 12 {
        0 => Expr::var("G"),
        1 => square_expr(budget - 1, depth, words).t(),
        // Chains of 2–3 square factors (the DP's bread and butter).
        2 => square_expr(budget - 1, depth, words).mm(square_expr(budget / 2, depth, words)),
        3 => square_expr(budget - 1, depth, words)
            .mm(square_expr(budget / 2, depth, words))
            .mm(square_expr(budget / 3, depth, words)),
        // Transposed products (transpose pushdown).
        4 => square_expr(budget - 1, depth, words)
            .mm(square_expr(budget / 2, depth, words))
            .t(),
        // diag on either side of a product (diag fusion).
        5 => Expr::var("u")
            .diag()
            .mm(square_expr(budget - 1, depth, words)),
        6 => square_expr(budget - 1, depth, words).mm(Expr::var("u").diag()),
        // 1(e) of a compound operand (ones pushdown), re-squared via diag.
        7 => square_expr(budget - 1, depth, words).ones().diag(),
        8 => square_expr(budget - 1, depth, words).add(square_expr(budget / 2, depth, words)),
        9 => square_expr(budget - 1, depth, words).had(square_expr(budget / 2, depth, words)),
        // Σv. diag(v)·e — a fused product of the loop vector inside a loop.
        10 => Expr::sum(
            &v,
            "n",
            Expr::var(v.as_str())
                .diag()
                .mm(square_expr(budget - 1, depth + 1, words)),
        ),
        // Π∘v. e + v·vᵀ — loop body with an invariant chain candidate.
        _ => Expr::hprod(
            &v,
            "n",
            square_expr(budget - 1, depth + 1, words)
                .add(Expr::var(v.as_str()).mm(Expr::var(v.as_str()).t())),
        ),
    }
}

fn sparsify<K: Semiring>(dense: &Instance<K>) -> SparseInstance<K> {
    let mut out: SparseInstance<K> = Instance::new();
    for (sym, n) in dense.dims() {
        out.set_dim(sym.clone(), n);
    }
    for (var, m) in dense.matrices() {
        out.set_matrix(var.clone(), MatrixRepr::from_dense_auto(m.clone()));
    }
    out
}

/// The three agreement checks, on one backend pair.
fn assert_rewrite_parity<K: Semiring>(expr: &Expr, instance: &Instance<K>) {
    let registry: FunctionRegistry<K> = FunctionRegistry::new();
    let naive = evaluate(expr, instance, &registry);

    // (1) Source-level: the rewritten expression is equivalent under the
    // *tree evaluator* — no engine machinery involved, so this isolates
    // the expression rewrites from CSE/hoisting/fusion.
    let stats = InstanceStats::from_instance(instance);
    let rewritten = rewrite_with_stats(expr, &stats);
    let rewritten_naive = evaluate(&rewritten.expr, instance, &registry);
    match (&naive, &rewritten_naive) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "rewrite changed the value of {expr}"),
        (Err(a), Err(b)) => assert_eq!(
            std::mem::discriminant(a),
            std::mem::discriminant(b),
            "rewrite changed the error of {expr}: {a} vs {b}"
        ),
        (a, b) => panic!("rewrite changed the outcome of {expr}: {a:?} vs {b:?}"),
    }

    // (2) End-to-end dense: engine (rewrites + fusion on) vs. naive.
    let planned = Engine::new().evaluate(expr, instance, &registry);
    match (&naive, &planned) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "dense engine result differs for {expr}"),
        (Err(a), Err(b)) => assert_eq!(
            std::mem::discriminant(a),
            std::mem::discriminant(b),
            "dense engine error differs for {expr}: {a} vs {b}"
        ),
        (a, b) => panic!("dense engine/naive mismatch for {expr}: {a:?} vs {b:?}"),
    }

    // (3) End-to-end adaptive: backend changes must not interact with the
    // rewrites.
    let sparse_instance = sparsify(instance);
    let sparse_naive = evaluate(expr, &sparse_instance, &registry);
    let sparse_planned = Engine::new().evaluate(expr, &sparse_instance, &registry);
    match (&sparse_naive, &sparse_planned) {
        (Ok(a), Ok(b)) => {
            assert_eq!(
                a.to_dense(),
                b.to_dense(),
                "adaptive engine result differs for {expr}"
            );
            if let Ok(dense) = &naive {
                assert_eq!(&a.to_dense(), dense, "backend mismatch for {expr}");
            }
        }
        (Err(a), Err(b)) => assert_eq!(
            std::mem::discriminant(a),
            std::mem::discriminant(b),
            "adaptive engine error differs for {expr}: {a} vs {b}"
        ),
        (a, b) => panic!("adaptive engine/naive mismatch for {expr}: {a:?} vs {b:?}"),
    }
}

fn parity_case<K: Semiring>(matrix: Matrix<K>, vector: Vec<K>, words: Vec<u64>) {
    let n = matrix.rows();
    let u = Matrix::from_vec(n, 1, vector).unwrap();
    let inst: Instance<K> = Instance::new()
        .with_dim("n", n)
        .with_matrix("G", matrix)
        .with_matrix("u", u);
    let expr = square_expr(4, 0, &mut words.into_iter());
    assert_rewrite_parity(&expr, &inst);
}

fn nat_matrix(n: usize) -> impl Strategy<Value = Matrix<Nat>> {
    proptest::collection::vec(0u64..8, n * n).prop_map(move |data| {
        Matrix::from_vec(
            n,
            n,
            data.into_iter()
                .map(|w| if w < 5 { Nat(0) } else { Nat(w) })
                .collect(),
        )
        .unwrap()
    })
}

fn nat_vector(n: usize) -> impl Strategy<Value = Vec<Nat>> {
    proptest::collection::vec(0u64..6, n)
        .prop_map(|data| data.into_iter().map(|w| Nat(w % 4)).collect())
}

fn bool_matrix(n: usize) -> impl Strategy<Value = Matrix<Boolean>> {
    proptest::collection::vec(0u64..4, n * n).prop_map(move |data| {
        Matrix::from_vec(n, n, data.into_iter().map(|w| Boolean(w == 0)).collect()).unwrap()
    })
}

fn bool_vector(n: usize) -> impl Strategy<Value = Vec<Boolean>> {
    proptest::collection::vec(0u64..3, n)
        .prop_map(|data| data.into_iter().map(|w| Boolean(w == 0)).collect())
}

fn tropical_matrix(n: usize) -> impl Strategy<Value = Matrix<MinPlus>> {
    proptest::collection::vec(0i64..10, n * n).prop_map(move |data| {
        Matrix::from_vec(
            n,
            n,
            data.into_iter()
                .map(|w| {
                    if w < 6 {
                        MinPlus::zero()
                    } else {
                        MinPlus(w as f64)
                    }
                })
                .collect(),
        )
        .unwrap()
    })
}

fn tropical_vector(n: usize) -> impl Strategy<Value = Vec<MinPlus>> {
    proptest::collection::vec(0i64..6, n).prop_map(|data| {
        data.into_iter()
            .map(|w| {
                if w < 2 {
                    MinPlus::zero()
                } else {
                    MinPlus(w as f64)
                }
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn rewrites_preserve_nat_semantics(
        m in nat_matrix(4),
        u in nat_vector(4),
        words in proptest::collection::vec(0u64..1_000_000, 24),
    ) {
        parity_case(m, u, words);
    }

    #[test]
    fn rewrites_preserve_boolean_semantics(
        m in bool_matrix(5),
        u in bool_vector(5),
        words in proptest::collection::vec(0u64..1_000_000, 24),
    ) {
        parity_case(m, u, words);
    }

    #[test]
    fn rewrites_preserve_tropical_semantics(
        m in tropical_matrix(4),
        u in tropical_vector(4),
        words in proptest::collection::vec(0u64..1_000_000, 24),
    ) {
        parity_case(m, u, words);
    }
}
