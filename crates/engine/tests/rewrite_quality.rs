//! Acceptance tests for the cost-based rewrite layer: the rewrites must be
//! *visible* in the `PlanReport`, *correct* (identical results with and
//! without them), and *fast* — hard ≥2× wall-clock guards on the ISSUE's
//! two workloads (skewed matrix chain, diag pushdown), so CI pins the
//! speedup, not just the numbers' existence.

use matlang_core::{Expr, FunctionRegistry, Instance, SparseInstance};
use matlang_engine::Engine;
use matlang_matrix::{sparse_erdos_renyi, Matrix, MatrixRepr};
use matlang_semiring::{Boolean, Real};
use std::time::{Duration, Instant};

fn min_of(rounds: usize, f: &dyn Fn()) -> Duration {
    (0..rounds)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed()
        })
        .min()
        .expect("at least one round")
}

/// The skewed 4-factor chain of the ISSUE: `G·G·G·1(G)` at n = 2000,
/// average degree 8.  Left-associated this materializes G² and G³ (≈10⁶
/// multiply-adds); right-associated it is three O(nnz) matvecs.  The DP
/// must find the right association and win by far more than the required
/// 2× margin.
#[test]
fn timing_guard_chain_reorder_speedup() {
    let n = 2000;
    let inst: SparseInstance<Boolean> = Instance::new().with_dim("n", n).with_matrix(
        "G",
        MatrixRepr::from_sparse_auto(sparse_erdos_renyi(n, 8.0, 97)),
    );
    let registry = FunctionRegistry::<Boolean>::new();
    let g = || Expr::var("G");
    let chain = g().mm(g()).mm(g()).mm(g().ones());

    let rewriting = Engine::new();
    let baseline = Engine::builder().cost_rewrites(false).build();

    // The report must show the reorder before we time anything.
    let plan = rewriting.plan(std::slice::from_ref(&chain), &inst);
    assert!(
        plan.report
            .rewrites
            .iter()
            .any(|r| r.rule == "matrix-chain-reorder" && r.saving > 0.0),
        "chain reorder missing from report: {}",
        plan.report
    );

    // Correctness before speed.
    let fast = rewriting.evaluate(&chain, &inst, &registry).unwrap();
    let slow = baseline.evaluate(&chain, &inst, &registry).unwrap();
    assert_eq!(fast.to_dense(), slow.to_dense());

    let rewritten = min_of(3, &|| {
        rewriting.evaluate(&chain, &inst, &registry).unwrap();
    });
    let unrewritten = min_of(3, &|| {
        baseline.evaluate(&chain, &inst, &registry).unwrap();
    });
    assert!(
        rewritten * 2 < unrewritten,
        "chain reorder ({rewritten:?}) must beat the left association ({unrewritten:?}) by ≥2×"
    );
}

/// The diag-pushdown workload: `A · diag(v)` over the dense backend.  The
/// unfused dense product pays O(n³) — the kernel only skips zero *left*
/// entries — while the fused column scaling is O(n²).
#[test]
fn timing_guard_diag_pushdown_speedup() {
    let n = 256;
    let dense: Matrix<Real> = Matrix::from_vec(
        n,
        n,
        (0..n * n)
            .map(|k| Real(((k % 7) + 1) as f64))
            .collect::<Vec<_>>(),
    )
    .unwrap();
    let v: Matrix<Real> =
        Matrix::from_vec(n, 1, (0..n).map(|i| Real(((i % 5) + 1) as f64)).collect()).unwrap();
    let inst: Instance<Real> = Instance::new()
        .with_dim("n", n)
        .with_matrix("A", dense)
        .with_matrix("v", v);
    let registry = FunctionRegistry::standard_field();
    let expr = Expr::var("A").mm(Expr::var("v").diag());

    let fusing = Engine::new();
    let baseline = Engine::builder().cost_rewrites(false).build();

    let plan = fusing.plan(std::slice::from_ref(&expr), &inst);
    assert_eq!(plan.report.fused_products, 1, "report: {}", plan.report);
    assert!(plan
        .report
        .rewrites
        .iter()
        .any(|r| r.rule == "diag-pushdown"));

    let fast = fusing.evaluate(&expr, &inst, &registry).unwrap();
    let slow = baseline.evaluate(&expr, &inst, &registry).unwrap();
    assert_eq!(fast, slow, "fused kernel must agree with diag + matmul");

    let fused = min_of(3, &|| {
        fusing.evaluate(&expr, &inst, &registry).unwrap();
    });
    let unfused = min_of(3, &|| {
        baseline.evaluate(&expr, &inst, &registry).unwrap();
    });
    assert!(
        fused * 2 < unfused,
        "diag pushdown ({fused:?}) must beat the unfused product ({unfused:?}) by ≥2×"
    );
}

/// `1(G·G·G)` only needs G's row count: the ones-pushdown rule must drop
/// the whole product (visible as saving in the report and as a plan with
/// no product nodes at all).
#[test]
fn ones_pushdown_drops_the_product() {
    let n = 500;
    let inst: SparseInstance<Boolean> = Instance::new().with_dim("n", n).with_matrix(
        "G",
        MatrixRepr::from_sparse_auto(sparse_erdos_renyi(n, 8.0, 5)),
    );
    let registry = FunctionRegistry::<Boolean>::new();
    let g = || Expr::var("G");
    let expr = g().mm(g()).mm(g()).ones();

    let engine = Engine::new();
    let plan = engine.plan(std::slice::from_ref(&expr), &inst);
    assert!(plan
        .report
        .rewrites
        .iter()
        .any(|r| r.rule == "ones-pushdown" && r.saving > 0.0));
    assert!(
        !plan
            .nodes()
            .iter()
            .any(|node| matches!(node.op, matlang_engine::PlanOp::MatMul(_, _))),
        "the product must be gone from the DAG"
    );
    let fast = engine.evaluate(&expr, &inst, &registry).unwrap();
    let slow = matlang_core::evaluate(&expr, &inst, &registry).unwrap();
    assert_eq!(fast.to_dense(), slow.to_dense());
}

/// Transpose pushdown feeding the chain DP: `(G·G)ᵀ·1(G)` must end up as
/// two matvecs over the transposed factors, sharing results with the
/// engine's CSE as usual.
#[test]
fn transpose_pushdown_composes_with_reordering() {
    let n = 1000;
    let inst: SparseInstance<Boolean> = Instance::new().with_dim("n", n).with_matrix(
        "G",
        MatrixRepr::from_sparse_auto(sparse_erdos_renyi(n, 8.0, 11)),
    );
    let registry = FunctionRegistry::<Boolean>::new();
    let g = || Expr::var("G");
    let expr = g().mm(g()).t().mm(g().ones());

    let engine = Engine::new();
    let plan = engine.plan(std::slice::from_ref(&expr), &inst);
    let rules: Vec<&str> = plan.report.rewrites.iter().map(|r| r.rule).collect();
    assert!(rules.contains(&"transpose-pushdown"), "rules: {rules:?}");
    assert!(rules.contains(&"matrix-chain-reorder"), "rules: {rules:?}");

    let fast = engine.evaluate(&expr, &inst, &registry).unwrap();
    let slow = matlang_core::evaluate(&expr, &inst, &registry).unwrap();
    assert_eq!(fast.to_dense(), slow.to_dense());
}

/// The report's Display must surface the new sections (used by the demo
/// examples and the server logs).
#[test]
fn report_display_mentions_rewrites() {
    let n = 100;
    let inst: SparseInstance<Boolean> = Instance::new().with_dim("n", n).with_matrix(
        "G",
        MatrixRepr::from_sparse_auto(sparse_erdos_renyi(n, 4.0, 3)),
    );
    let g = || Expr::var("G");
    let expr = g().mm(g()).mm(g().ones());
    let plan = Engine::new().plan(std::slice::from_ref(&expr), &inst);
    let text = plan.report.to_string();
    assert!(text.contains("cost rewrites"), "display: {text}");
    assert!(text.contains("fused products"), "display: {text}");
}
