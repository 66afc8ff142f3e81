//! Planned/parallel execution must be result-identical to the tree-walking
//! evaluator: over the shared operator corpus (including error cases), the
//! paper's 4-clique query, and randomized expressions across the Boolean,
//! ℕ and tropical (min-plus) semirings — on both the dense and the
//! adaptive sparse backend, with and without threading.

use matlang_algorithms::{csanky, graphs, lu};
use matlang_core::corpus::{four_clique_corpus_expr, operator_corpus};
use matlang_core::{
    evaluate, EvalError, Expr, FunctionRegistry, Instance, MatrixType, SparseInstance,
};
use matlang_engine::{Engine, ExecStats, Executor};
use matlang_matrix::{random_invertible, Matrix, MatrixRepr};
use matlang_semiring::{Boolean, MinPlus, Nat, Real, Semiring};
use proptest::prelude::*;

/// Builds the sparse twin of a dense instance: same dims, same matrices,
/// adaptive representation.
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

/// Evaluates `expr` through the naive evaluator and through the engine (in
/// several configurations) over both backends, asserting identical values
/// or identical error discriminants everywhere.
fn assert_engine_parity<K: Semiring>(
    expr: &Expr,
    instance: &Instance<K>,
    registry: &FunctionRegistry<K>,
) {
    let naive = evaluate(expr, instance, registry);
    let engines = [
        Engine::new(),
        Engine::builder().threads(2).build(),
        Engine::builder().simplify(false).build(),
    ];
    for engine in &engines {
        let planned = engine.evaluate(expr, instance, registry);
        match (&naive, &planned) {
            (Ok(n), Ok(p)) => assert_eq!(n, p, "dense engine result differs for {expr}"),
            (Err(ne), Err(pe)) => assert_eq!(
                std::mem::discriminant(ne),
                std::mem::discriminant(pe),
                "dense engine error differs for {expr}: {ne} vs {pe}"
            ),
            (n, p) => panic!("engine/naive mismatch for {expr}: naive {n:?}, engine {p:?}"),
        }
    }
    let sparse_instance = sparsify(instance);
    let sparse_naive = evaluate(expr, &sparse_instance, registry);
    let sparse_planned = Engine::new().evaluate(expr, &sparse_instance, registry);
    match (&sparse_naive, &sparse_planned) {
        (Ok(n), Ok(p)) => {
            assert_eq!(
                n.to_dense(),
                p.to_dense(),
                "sparse engine result differs for {expr}"
            );
            if let Ok(dense) = &naive {
                assert_eq!(&n.to_dense(), dense, "backend mismatch for {expr}");
            }
        }
        (Err(ne), Err(pe)) => assert_eq!(
            std::mem::discriminant(ne),
            std::mem::discriminant(pe),
            "sparse engine error differs for {expr}: {ne} vs {pe}"
        ),
        (n, p) => panic!("sparse engine/naive mismatch for {expr}: naive {n:?}, engine {p:?}"),
    }
}

#[test]
fn operator_corpus_has_engine_parity() {
    let a = Matrix::from_f64_rows(&[&[1.0, 2.0, 0.0], &[0.0, 3.0, 4.0], &[5.0, 0.0, 6.0]]).unwrap();
    let inst: Instance<Real> = Instance::new().with_dim("a", 3).with_matrix("A", a);
    let reg = FunctionRegistry::standard_field();
    for expr in operator_corpus() {
        assert_engine_parity(&expr, &inst, &reg);
    }
}

#[test]
fn four_clique_has_engine_parity() {
    let mut k4: Matrix<Real> = Matrix::zeros(4, 4);
    for i in 0..4 {
        for j in 0..4 {
            if i != j {
                k4.set(i, j, Real(1.0)).unwrap();
            }
        }
    }
    let inst: Instance<Real> = Instance::new().with_dim("a", 4).with_matrix("A", k4);
    assert_engine_parity(
        &four_clique_corpus_expr(),
        &inst,
        &FunctionRegistry::standard_field(),
    );
}

// ---------------------------------------------------------------------------
// The loop executor: the paper's dimension-bounded loops, binder shadowing,
// loops over a second dimension, and an error raised mid-loop.
// ---------------------------------------------------------------------------

/// A dense, strictly diagonally dominant `n × n` matrix (so LU and Csanky
/// have non-zero leading minors) scaled to entries below 1 (so the
/// Floyd–Warshall closure, which squares as it goes, stays O(1)).
fn diag_dominant(n: usize) -> Matrix<Real> {
    random_invertible::<Real>(n, 12).scalar_mul(&Real(1.0 / (n + 2) as f64))
}

#[test]
fn paper_loop_queries_have_engine_parity() {
    let real = FunctionRegistry::standard_field();
    let boolean: FunctionRegistry<Boolean> = FunctionRegistry::new();
    let graph_queries = [
        graphs::transitive_closure_fw("G", "n"),
        graphs::triangle_count("G", "n"),
    ];
    let field_queries = [csanky::determinant("G", "n"), lu::upper_factor("G", "n")];
    for n in [1, 2, 5, 12] {
        let m = diag_dominant(n);
        let mut adjacency: Matrix<Boolean> = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                let edge = i != j && m.get(i, j).unwrap().0 > 0.0;
                adjacency.set(i, j, Boolean(edge)).unwrap();
            }
        }
        let inst: Instance<Real> = Instance::new().with_dim("n", n).with_matrix("G", m);
        let graph: Instance<Boolean> = Instance::new().with_dim("n", n).with_matrix("G", adjacency);
        for expr in graph_queries.iter().chain(&field_queries) {
            assert_engine_parity(expr, &inst, &real);
        }
        for expr in &graph_queries {
            assert_engine_parity(expr, &graph, &boolean);
        }
    }
}

/// "Same evaluation, less overhead", checked rather than asserted: the
/// executor's counters for Floyd–Warshall at n = 12, with its entry reads
/// and writes lowered to loop-index ops (13 058 nodes computed before).
#[test]
fn floyd_warshall_exec_stats_are_pinned() {
    let dense: Instance<Real> = Instance::new()
        .with_dim("n", 12)
        .with_matrix("G", diag_dominant(12));
    let sparse = sparsify(&dense);
    let expr = graphs::transitive_closure_fw("G", "n");
    let registry = FunctionRegistry::standard_field();
    let engine = Engine::new();
    let expected = ExecStats {
        cache_hits: 3_456,
        cache_misses: 7_526,
        invalidations: 156,
        ..ExecStats::default()
    };

    let plan = engine.plan(std::slice::from_ref(&expr), &dense);
    let mut exec = Executor::new(&plan, &dense, &registry, engine.exec_options);
    exec.run(plan.roots()[0]).unwrap();
    assert_eq!(exec.stats(), expected, "dense backend");

    let plan = engine.plan(std::slice::from_ref(&expr), &sparse);
    let mut exec = Executor::new(&plan, &sparse, &registry, engine.exec_options);
    exec.run(plan.roots()[0]).unwrap();
    assert_eq!(exec.stats(), expected, "adaptive backend");
}

#[test]
fn shadowed_binders_have_engine_parity() {
    let inst: Instance<Real> = Instance::new()
        .with_dim("a", 3)
        .with_matrix("G", diag_dominant(3));
    let reg = FunctionRegistry::standard_field();
    let v = || Expr::var("v");
    let outer = || v().mm(v().t());
    for expr in [
        // Σv. (v·vᵀ) · (Σv. (v·vᵀ)·G) · (v·vᵀ): the inner loop rebinds `v`
        // between two uses of the outer one.
        Expr::sum(
            "v",
            "a",
            outer()
                .mm(Expr::sum("v", "a", outer().mm(Expr::var("G"))))
                .mm(outer()),
        ),
        // for v, X. X + (let v = G·v in v·vᵀ) + v·vᵀ: a `let` inside the
        // loop shadows the iteration vector with a non-canonical one.
        Expr::for_loop(
            "v",
            "a",
            "X",
            MatrixType::square("a"),
            Expr::var("X")
                .add(Expr::let_in("v", Expr::var("G").mm(v()), outer()))
                .add(outer()),
        ),
        // for v, X. X + G·(for v, X. X + v·vᵀ)·X: the inner loop shadows
        // both the iteration vector and the accumulator.
        Expr::for_loop(
            "v",
            "a",
            "X",
            MatrixType::square("a"),
            Expr::var("X").add(
                Expr::var("G")
                    .mm(Expr::for_loop(
                        "v",
                        "a",
                        "X",
                        MatrixType::square("a"),
                        Expr::var("X").add(outer()),
                    ))
                    .mm(Expr::var("X")),
            ),
        ),
        // let G = Σ G. G·Gᵀ in G·G: binders shadowing the instance matrix.
        Expr::let_in(
            "G",
            Expr::sum("G", "a", Expr::var("G").mm(Expr::var("G").t())),
            Expr::var("G").mm(Expr::var("G")),
        )
        .add(Expr::var("G")),
    ] {
        assert_engine_parity(&expr, &inst, &reg);
    }
}

#[test]
fn loops_over_a_second_dimension_have_engine_parity() {
    // G is a × a, R is a × b: loops range over b while the matrices they
    // touch are sized by a, and nest with loops over a.
    let r = Matrix::from_f64_rows(&[
        &[1.0, 0.0, 2.0, 0.0, 3.0],
        &[0.0, 4.0, 0.0, 5.0, 0.0],
        &[6.0, 0.0, 0.0, 0.0, 7.0],
    ])
    .unwrap();
    let inst: Instance<Real> = Instance::new()
        .with_dim("a", 3)
        .with_dim("b", 5)
        .with_matrix("G", diag_dominant(3))
        .with_matrix("R", r);
    let reg = FunctionRegistry::standard_field();
    let w = || Expr::var("w");
    let v = || Expr::var("v");
    for expr in [
        // Σw:b. R·w — the row sums of R, an a × 1 vector.
        Expr::sum("w", "b", Expr::var("R").mm(w())),
        // for w:b, X:(a,a). X·G + (R·w)·(R·w)ᵀ.
        Expr::for_loop(
            "w",
            "b",
            "X",
            MatrixType::square("a"),
            Expr::var("X")
                .mm(Expr::var("G"))
                .add(Expr::var("R").mm(w()).mm(Expr::var("R").mm(w()).t())),
        ),
        // Σv:a. Σw:b. (vᵀ·R·w) × (v·vᵀ): both bases live at once.
        Expr::sum(
            "v",
            "a",
            Expr::sum(
                "w",
                "b",
                v().t().mm(Expr::var("R")).mm(w()).smul(v().mm(v().t())),
            ),
        ),
        // Π∘w:b. Rᵀ·G·R + w·wᵀ — a b × b fold with an a-sized invariant.
        Expr::hprod(
            "w",
            "b",
            Expr::var("R")
                .t()
                .mm(Expr::var("G"))
                .mm(Expr::var("R"))
                .add(w().mm(w().t())),
        ),
    ] {
        assert_engine_parity(&expr, &inst, &reg);
    }
}

#[test]
fn loops_over_a_large_dimension_have_engine_parity() {
    // 257 is one past the largest dimension whose canonical vectors the
    // executor keeps: these loops allocate theirs per iteration, nested
    // with a small-dimension loop that shares its own.
    let big = 257;
    let u = Matrix::from_vec(
        big,
        1,
        (0..big).map(|i| Real((i % 7) as f64 - 3.0)).collect(),
    );
    let inst: Instance<Real> = Instance::new()
        .with_dim("a", 3)
        .with_dim("big", big)
        .with_matrix("G", diag_dominant(3))
        .with_matrix("u", u.unwrap());
    let reg = FunctionRegistry::standard_field();
    let probe = || Expr::var("v").t().mm(Expr::var("u"));
    let w = || Expr::var("w");
    for expr in [
        // Σv:big. (vᵀ·u) × (vᵀ·u) — the squared norm of u.
        Expr::sum("v", "big", probe().smul(probe())),
        // Σw:a. Σv:big. (vᵀ·u) × (wᵀ·G·w), and the loops the other way round.
        Expr::sum(
            "w",
            "a",
            Expr::sum("v", "big", probe().smul(w().t().mm(Expr::var("G")).mm(w()))),
        ),
        Expr::sum(
            "v",
            "big",
            Expr::sum("w", "a", probe().smul(w().t().mm(Expr::var("G")).mm(w()))),
        ),
    ] {
        assert_engine_parity(&expr, &inst, &reg);
    }
}

#[test]
fn an_error_mid_loop_leaves_bindings_restored() {
    let r = Matrix::from_f64_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
    let inst: Instance<Real> = Instance::new()
        .with_dim("a", 3)
        .with_dim("b", 2)
        .with_matrix("G", diag_dominant(3))
        .with_matrix("R", r);
    let reg = FunctionRegistry::standard_field();
    // Π G:a. Gᵀ·R binds the name `G` to a canonical vector; the first
    // iteration yields a 1 × b row and the second fails multiplying two of
    // them — with `G` rebound and one iteration's values in the cache.
    let failing = Expr::mprod("G", "a", Expr::var("G").t().mm(Expr::var("R")));
    // Same failure two binders deep, under a `let` and a `for` that also
    // shadow `G`.
    let nested = Expr::let_in(
        "G",
        Expr::var("G").t(),
        Expr::for_loop(
            "G",
            "a",
            "X",
            MatrixType::square("a"),
            Expr::var("X").add(failing.clone()),
        ),
    );
    let reads_g = Expr::var("G").t().mm(Expr::var("G"));
    let batch = [
        reads_g.clone(),
        failing.clone(),
        reads_g.clone().add(Expr::var("G")),
        nested,
        reads_g.t(),
    ];
    for instance_is_sparse in [false, true] {
        let outcome = if instance_is_sparse {
            let sparse = sparsify(&inst);
            let out = Engine::new().evaluate_batch(&batch, &sparse, &reg);
            out.results
                .into_iter()
                .map(|r| r.map(|m| m.to_dense()))
                .collect::<Vec<_>>()
        } else {
            Engine::new().evaluate_batch(&batch, &inst, &reg).results
        };
        assert!(outcome[1].is_err() && outcome[3].is_err());
        // One executor ran the whole batch: the queries after each failure
        // must see the instance's `G`, exactly as fresh evaluations do.
        for (expr, planned) in batch.iter().zip(outcome) {
            match (evaluate(expr, &inst, &reg), planned) {
                (Ok(n), Ok(p)) => assert_eq!(n, p, "result differs for {expr}"),
                (Err(ne), Err(pe)) => {
                    assert!(matches!(ne, EvalError::Matrix(_)), "{expr}: {ne}");
                    assert_eq!(std::mem::discriminant(&ne), std::mem::discriminant(&pe));
                }
                (n, p) => panic!("mismatch for {expr}: naive {n:?}, engine {p:?}"),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Randomized expressions: a deterministic expression generator driven by a
// proptest-supplied word stream.  All generated expressions are square-typed
// over the variable `G` / size symbol `a`, are constant-free (so parity
// holds verbatim over the tropical semirings, where `rewrite`'s constant
// folding interprets literals through ℝ), and exercise sharing, nested
// loops, shadowed loop variables and `let` bindings.
// ---------------------------------------------------------------------------

/// Builds a random square-typed expression, consuming words from `words`.
fn square_expr(budget: usize, depth: usize, words: &mut impl Iterator<Item = u64>) -> Expr {
    let word = words.next().unwrap_or(0);
    if budget == 0 {
        return Expr::var("G");
    }
    // Reuse the name `v` at even depths to exercise binder shadowing.
    let v = if depth % 2 == 0 {
        "v".to_string()
    } else {
        format!("v{depth}")
    };
    let var_v = || Expr::var(v.as_str());
    match word % 10 {
        0 => Expr::var("G"),
        1 => square_expr(budget - 1, depth, words).t(),
        2 => square_expr(budget - 1, depth, words).add(square_expr(budget / 2, depth, words)),
        3 => square_expr(budget - 1, depth, words).mm(square_expr(budget / 2, depth, words)),
        4 => square_expr(budget - 1, depth, words).had(square_expr(budget / 2, depth, words)),
        5 => square_expr(budget - 1, depth, words).ones().diag(),
        // Σv. (v·vᵀ)·e — the body mentions both v and the subexpression.
        6 => Expr::sum(
            &v,
            "a",
            var_v()
                .mm(var_v().t())
                .mm(square_expr(budget - 1, depth + 1, words)),
        ),
        // Π∘v. e + v·vᵀ.
        7 => Expr::hprod(
            &v,
            "a",
            square_expr(budget - 1, depth + 1, words).add(var_v().mm(var_v().t())),
        ),
        // let T = e in T·T — genuine sharing through a binder.
        8 => Expr::let_in(
            "T",
            square_expr(budget - 1, depth, words),
            Expr::var("T").mm(Expr::var("T")),
        ),
        // for v, X. X + (vᵀ·e·v) × (v·vᵀ): loop with accumulator use and a
        // loop-invariant candidate inside.
        _ => Expr::for_loop(
            &v,
            "a",
            "X",
            MatrixType::square("a"),
            Expr::var("X").add(
                var_v()
                    .t()
                    .mm(square_expr(budget - 1, depth + 1, words))
                    .mm(var_v())
                    .smul(var_v().mm(var_v().t())),
            ),
        ),
    }
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

fn bool_matrix(n: usize) -> impl Strategy<Value = Matrix<Boolean>> {
    proptest::collection::vec(0u64..4, n * n).prop_map(move |data| {
        Matrix::from_vec(n, n, data.into_iter().map(|w| Boolean(w == 0)).collect()).unwrap()
    })
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

fn parity_case<K: Semiring>(matrix: Matrix<K>, words: Vec<u64>) {
    let n = matrix.rows();
    let inst: Instance<K> = Instance::new().with_dim("a", n).with_matrix("G", matrix);
    let reg: FunctionRegistry<K> = FunctionRegistry::new();
    let expr = square_expr(5, 0, &mut words.into_iter());
    assert_engine_parity(&expr, &inst, &reg);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_nat_expressions_have_engine_parity(
        m in nat_matrix(4),
        words in proptest::collection::vec(0u64..1_000_000, 24),
    ) {
        parity_case(m, words);
    }

    #[test]
    fn random_boolean_expressions_have_engine_parity(
        m in bool_matrix(5),
        words in proptest::collection::vec(0u64..1_000_000, 24),
    ) {
        parity_case(m, words);
    }

    #[test]
    fn random_tropical_expressions_have_engine_parity(
        m in tropical_matrix(4),
        words in proptest::collection::vec(0u64..1_000_000, 24),
    ) {
        parity_case(m, words);
    }
}
