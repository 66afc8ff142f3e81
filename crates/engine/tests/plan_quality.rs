//! Plan-quality tests: the `rewrite::savings` wiring on the Fig. 1
//! corpus, CSE/hoisting on the paper's witnesses, and a coarse wall-clock
//! guard showing the engine beating naive evaluation on a hoisting-heavy
//! query.

use matlang_algorithms::graphs;
use matlang_core::{evaluate, rewrite, Expr, FunctionRegistry, Instance, SparseInstance};
use matlang_engine::{Engine, ExecOptions, Executor, InstanceStats, PlanOp, Planner, ReprChoice};
use matlang_matrix::{sparse_erdos_renyi, Matrix, MatrixRepr, SparseMatrix};
use matlang_semiring::{Nat, Real, Semiring};
use std::time::Instant;

/// The Figure 1 witness corpus: one query per language/fragment the figure
/// separates (MATLANG ⊂ sum ⊂ FO ⊂ prod ⊂ for-MATLANG).
fn fig1_corpus() -> Vec<Expr> {
    vec![
        Expr::var("G").t().mm(Expr::var("G")), // MATLANG: the Gram matrix
        graphs::trace("G", "n"),               // sum-MATLANG
        graphs::diagonal_product("G", "n"),    // FO-MATLANG
        graphs::transitive_closure_prod("G", "n"), // prod-MATLANG
        graphs::four_clique("G", "n"),         // sum-MATLANG, Example 3.3
    ]
}

#[test]
fn fig1_corpus_savings_value_is_wired_into_the_report() {
    let corpus = fig1_corpus();
    // The hand-written witnesses are already in simplest form: the
    // rewriter must find nothing to remove, and the planner must report
    // exactly that value.
    for e in &corpus {
        assert_eq!(
            rewrite::savings(e),
            0,
            "witness unexpectedly simplifiable: {e}"
        );
    }
    let stats = InstanceStats::empty();
    let plan = Planner::new().plan(&corpus, &stats);
    assert_eq!(plan.report.simplify_savings, 0);
    assert_eq!(plan.report.queries, 5);

    // A mechanically-noised variant (what the circuit decompiler and the
    // RA⁺_K/WL translations emit): `1 × (eᵀ)ᵀ` adds exactly 4 removable
    // nodes per query, and the report accounts for every one of them.
    let noised: Vec<Expr> = fig1_corpus()
        .into_iter()
        .map(|e| Expr::lit(1.0).smul(e.t().t()))
        .collect();
    let per_query: Vec<usize> = noised.iter().map(rewrite::savings).collect();
    assert_eq!(per_query, vec![4, 4, 4, 4, 4]);
    let plan = Planner::new().plan(&noised, &stats);
    assert_eq!(plan.report.simplify_savings, 20);
}

#[test]
fn four_clique_plan_shares_and_hoists() {
    // The 4-clique query re-uses each `vᵀ·G·w` edge probe's pieces and
    // nests 4 Σ-loops; the planner must find sharing and hoistable nodes.
    let plan = Planner::new().plan_one(&graphs::four_clique("G", "n"), &InstanceStats::empty());
    assert!(plan.report.dag_nodes < plan.report.tree_nodes);
    assert!(plan.report.shared_nodes > 0);
    assert!(plan.report.hoistable_nodes > 0);
}

/// The acceptance guard for the tentpole: on a CSE/hoisting-heavy query —
/// Σv. vᵀ·(GᵀG)·v over a sparse graph — the engine must beat naive
/// evaluation by a wide margin, because the naive evaluator recomputes the
/// loop-invariant Gram product on all `n` iterations while the engine
/// computes it once.
#[test]
fn timing_guard_engine_beats_naive_evaluation_on_hoisting_heavy_query() {
    let n = 300;
    let graph = sparse_erdos_renyi::<Nat>(n, 8.0, 21);
    let inst: SparseInstance<Nat> = Instance::new()
        .with_dim("n", n)
        .with_matrix("G", MatrixRepr::from_sparse_auto(graph));
    let registry = FunctionRegistry::<Nat>::new();
    let gram = Expr::var("G").t().mm(Expr::var("G"));
    let e = Expr::sum("v", "n", Expr::var("v").t().mm(gram).mm(Expr::var("v")));

    let engine = Engine::new();
    // Warm-up + correctness: both paths must agree before timing.
    let planned = engine.evaluate(&e, &inst, &registry).unwrap();
    let naive = evaluate(&e, &inst, &registry).unwrap();
    assert_eq!(planned.to_dense(), naive.to_dense());

    let time = |f: &dyn Fn()| {
        let start = Instant::now();
        f();
        start.elapsed()
    };
    let engine_elapsed = time(&|| {
        engine.evaluate(&e, &inst, &registry).unwrap();
    });
    let naive_elapsed = time(&|| {
        evaluate(&e, &inst, &registry).unwrap();
    });
    // The expected gap is ~n× (one Gram product instead of n); require a
    // conservative 3× so scheduler noise cannot flake the suite.
    assert!(
        engine_elapsed * 3 < naive_elapsed,
        "engine ({engine_elapsed:?}) should beat naive evaluation ({naive_elapsed:?}) by ≥3×"
    );
}

/// The planner's layout is a prediction, never applied to a value: an
/// instance matrix is read in the layout it is stored in.  Here `A` is full,
/// so the cost model predicts dense for it, yet it is stored as CSR — and a
/// cached read of it must stay CSR rather than be re-laid-out (a deep copy
/// per recompute) on every execution.
#[test]
fn instance_loads_keep_their_stored_layout() {
    let n = 64;
    let full = Matrix::from_vec(n, n, vec![Nat::one(); n * n]).unwrap();
    let inst: SparseInstance<Nat> = Instance::new()
        .with_dim("n", n)
        .with_matrix("A", MatrixRepr::Sparse(SparseMatrix::from_dense(&full)))
        .with_matrix("v", MatrixRepr::Dense(Matrix::ones_vector(n)));
    let query = Expr::var("A").mm(Expr::var("v"));
    let mut plan = Engine::new().plan(std::slice::from_ref(&query), &inst);
    plan.mark_all_cacheable();
    let registry = FunctionRegistry::<Nat>::new();
    let mut exec = Executor::new(&plan, &inst, &registry, ExecOptions::default());
    let result = exec.run(plan.roots()[0]).unwrap();
    assert_eq!(
        result.to_dense(),
        evaluate(&query, &inst, &registry).unwrap().to_dense()
    );
    let a = plan
        .nodes()
        .iter()
        .position(|node| matches!(&node.op, PlanOp::Var(name, _) if name == "A"))
        .expect("A is read");
    let cache = exec.into_cache();
    let cached = cache[a].as_ref().expect("every node is cacheable");
    assert!(
        cached.is_sparse(),
        "A was re-laid-out as {}",
        cached.backend_name()
    );
}

/// A computed value takes the layout its own density picks, whatever the
/// planner estimated.  Every product of the all-ones `A` with `B` (row 0 =
/// +1, row 1 = −1) cancels to zero, so `A·B` is estimated full — dense —
/// and is in fact the zero matrix: cached, it must be CSR, not 8 KiB of
/// stored zeros.
#[test]
fn computed_values_take_the_layout_of_their_own_density() {
    let n = 32;
    let mut b = vec![Real(0.0); n * n];
    b[..n].fill(Real(1.0));
    b[n..2 * n].fill(Real(-1.0));
    let inst: SparseInstance<Real> = Instance::new()
        .with_dim("n", n)
        .with_matrix(
            "A",
            MatrixRepr::from_dense_auto(Matrix::from_vec(n, n, vec![Real(1.0); n * n]).unwrap()),
        )
        .with_matrix(
            "B",
            MatrixRepr::from_dense_auto(Matrix::from_vec(n, n, b).unwrap()),
        );
    let query = Expr::var("A").mm(Expr::var("B"));
    let mut plan = Engine::new().plan(std::slice::from_ref(&query), &inst);
    plan.mark_all_cacheable();
    let root = plan.roots()[0];
    let est = plan.node(root).est.expect("estimated");
    assert_eq!((est.nnz, est.choice), ((n * n) as f64, ReprChoice::Dense));
    let registry = FunctionRegistry::<Real>::new();
    let mut exec = Executor::new(&plan, &inst, &registry, ExecOptions::default());
    let result = exec.run(root).unwrap();
    assert!(result.is_zero());
    assert_eq!(
        result.to_dense(),
        evaluate(&query, &inst, &registry).unwrap().to_dense()
    );
    let cache = exec.into_cache();
    let cached = cache[root].as_ref().expect("every node is cacheable");
    assert!(
        cached.is_sparse(),
        "the all-zero product is cached {}",
        cached.backend_name()
    );
}
