//! Exact plans for the queries the benchmark plans on every request: the
//! four paper loops (`paper_loops`, n = 12) and the five standing queries
//! of the graph workloads, each planned against its workload's
//! `InstanceStats` over its workload's semiring.  Every `PlanReport`
//! counter and the ordered list of applied rule names are pinned, and for
//! the two field algorithms the executor's counters on both backends — so
//! a planner change that alters what gets built shows here, whatever its
//! speed.

use matlang_algorithms::{csanky, graphs, lu};
use matlang_core::{Expr, FunctionRegistry, Instance, SparseInstance};
use matlang_engine::{Engine, ExecStats, Executor, InstanceStats, PlanReport, VarStats};
use matlang_matrix::{random_invertible, Matrix, MatrixRepr};
use matlang_semiring::{Boolean, Real, Semiring};
use std::collections::BTreeMap;

/// The `PlanReport` counters, in declaration order.
#[derive(Debug, PartialEq)]
struct Counters {
    queries: usize,
    tree_nodes: usize,
    dag_nodes: usize,
    shared_nodes: usize,
    simplify_savings: usize,
    hoistable_nodes: usize,
    dense_nodes: usize,
    sparse_nodes: usize,
    fused_products: usize,
    delta_supported_nodes: usize,
}

impl Counters {
    fn of(report: &PlanReport) -> Self {
        Counters {
            queries: report.queries,
            tree_nodes: report.tree_nodes,
            dag_nodes: report.dag_nodes,
            shared_nodes: report.shared_nodes,
            simplify_savings: report.simplify_savings,
            hoistable_nodes: report.hoistable_nodes,
            dense_nodes: report.dense_nodes,
            sparse_nodes: report.sparse_nodes,
            fused_products: report.fused_products,
            delta_supported_nodes: report.delta_supported_nodes,
        }
    }
}

/// The applied rule names, run-length encoded in application order.
fn rule_runs(report: &PlanReport) -> Vec<(&'static str, usize)> {
    let mut runs: Vec<(&'static str, usize)> = Vec::new();
    for rewrite in &report.rewrites {
        match runs.last_mut() {
            Some((rule, count)) if *rule == rewrite.rule => *count += 1,
            _ => runs.push((rewrite.rule, 1)),
        }
    }
    runs
}

/// One `n × n` matrix `G` with `nnz` stored entries, over size symbol `n`.
fn graph_stats(n: usize, nnz: usize) -> InstanceStats {
    InstanceStats {
        dims: BTreeMap::from([("n".to_string(), n)]),
        vars: BTreeMap::from([(
            "G".to_string(),
            VarStats {
                rows: n,
                cols: n,
                nnz,
            },
        )]),
    }
}

fn assert_plan<K: Semiring>(
    label: &str,
    expr: &Expr,
    stats: &InstanceStats,
    counters: Counters,
    runs: &[(&str, usize)],
) {
    let plan = Engine::new().plan_with_stats::<K>(std::slice::from_ref(expr), stats);
    assert_eq!(Counters::of(&plan.report), counters, "{label}: counters");
    assert_eq!(rule_runs(&plan.report), runs, "{label}: applied rules");
}

fn g() -> Expr {
    Expr::var("G")
}

/// `1ᵀ · x`, the outer frame of every counting query.
fn total(x: Expr) -> Expr {
    g().ones().t().mm(x)
}

/// `(transpose(ones(G)) * (((G * G) * (G * G)) * ones(G)))`
fn chain() -> Expr {
    total(g().mm(g()).mm(g().mm(g())).mm(g().ones()))
}

/// `(transpose(ones(G)) * ((G * G) * ones(G)))`
fn two_hop() -> Expr {
    total(g().mm(g()).mm(g().ones()))
}

/// `(transpose(ones(G)) * (G * ones(G)))`
fn edges() -> Expr {
    total(g().mm(g().ones()))
}

/// `(transpose(ones(G)) * (((G * G) ** G) * ones(G)))`
fn triangles() -> Expr {
    total(g().mm(g()).had(g()).mm(g().ones()))
}

/// `paper_loops` loads a dense, diagonally dominated 12 × 12 matrix.
fn paper_stats() -> InstanceStats {
    graph_stats(12, 144)
}

fn diag_dominant(n: usize) -> Matrix<Real> {
    random_invertible::<Real>(n, 12).scalar_mul(&Real(1.0 / (n + 2) as f64))
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

fn assert_exec_stats(expr: &Expr, expected: ExecStats) {
    let dense: Instance<Real> = Instance::new()
        .with_dim("n", 12)
        .with_matrix("G", diag_dominant(12));
    let sparse = sparsify(&dense);
    let registry = FunctionRegistry::standard_field();
    let engine = Engine::new();

    let plan = engine.plan(std::slice::from_ref(expr), &dense);
    let mut exec = Executor::new(&plan, &dense, &registry, engine.exec_options);
    exec.run(plan.roots()[0]).unwrap();
    assert_eq!(exec.stats(), expected, "dense backend");

    let plan = engine.plan(std::slice::from_ref(expr), &sparse);
    let mut exec = Executor::new(&plan, &sparse, &registry, engine.exec_options);
    exec.run(plan.roots()[0]).unwrap();
    assert_eq!(exec.stats(), expected, "adaptive backend");
}

fn paper_counters(
    tree_nodes: usize,
    dag_nodes: usize,
    shared_nodes: usize,
    simplify_savings: usize,
    hoistable_nodes: usize,
    (dense_nodes, sparse_nodes): (usize, usize),
    delta_supported_nodes: usize,
) -> Counters {
    Counters {
        queries: 1,
        tree_nodes,
        dag_nodes,
        shared_nodes,
        simplify_savings,
        hoistable_nodes,
        dense_nodes,
        sparse_nodes,
        fused_products: 0,
        delta_supported_nodes,
    }
}

#[test]
fn transitive_closure_plan_is_pinned() {
    let expr = graphs::transitive_closure_fw("G", "n");
    let counters = paper_counters(28, 13, 1, 0, 2, (13, 0), 7);
    assert_plan::<Real>("fw", &expr, &paper_stats(), counters, &[("loop-index", 3)]);
}

#[test]
fn triangle_count_plan_is_pinned() {
    let expr = graphs::triangle_count("G", "n");
    let counters = paper_counters(23, 9, 1, 0, 2, (9, 0), 3);
    assert_plan::<Real>(
        "triangles",
        &expr,
        &paper_stats(),
        counters,
        &[("loop-index", 3)],
    );
}

#[test]
fn determinant_plan_is_pinned() {
    let expr = csanky::determinant("G", "n");
    let counters = paper_counters(381, 133, 53, 0, 26, (107, 26), 81);
    assert_plan::<Real>(
        "det",
        &expr,
        &paper_stats(),
        counters,
        &[("loop-index", 38)],
    );
}

#[test]
fn upper_factor_plan_is_pinned() {
    let expr = lu::upper_factor("G", "n");
    let counters = paper_counters(105, 54, 14, 48, 10, (45, 9), 37);
    assert_plan::<Real>("lu", &expr, &paper_stats(), counters, &[("loop-index", 11)]);
}

#[test]
fn determinant_exec_stats_are_pinned() {
    let expected = ExecStats {
        cache_hits: 3_142,
        cache_misses: 3_609,
        invalidations: 1_647,
        ..ExecStats::default()
    };
    assert_exec_stats(&csanky::determinant("G", "n"), expected);
}

#[test]
fn upper_factor_exec_stats_are_pinned() {
    let expected = ExecStats {
        cache_hits: 442,
        cache_misses: 1_374,
        invalidations: 101,
        ..ExecStats::default()
    };
    assert_exec_stats(&lu::upper_factor("G", "n"), expected);
}

/// A loop-free standing query: nothing is hoistable or simplified away.
fn standing_counters(
    tree_nodes: usize,
    dag_nodes: usize,
    shared_nodes: usize,
    (dense_nodes, sparse_nodes): (usize, usize),
    fused_products: usize,
) -> Counters {
    Counters {
        queries: 1,
        tree_nodes,
        dag_nodes,
        shared_nodes,
        simplify_savings: 0,
        hoistable_nodes: 0,
        dense_nodes,
        sparse_nodes,
        fused_products,
        delta_supported_nodes: dag_nodes,
    }
}

/// `CHAIN` and `SQUARE` run over ℝ at n = 1 000, degree 8
/// (`warm_point`, `warm_stream`, `oneshot_chain`).
#[test]
fn chain_and_square_plans_are_pinned() {
    let stats = graph_stats(1000, 8000);
    let counters = standing_counters(14, 8, 2, (7, 1), 0);
    assert_plan::<Real>(
        "CHAIN",
        &chain(),
        &stats,
        counters,
        &[("matrix-chain-reorder", 1)],
    );
    let counters = standing_counters(3, 2, 1, (0, 2), 0);
    assert_plan::<Real>("SQUARE", &g().mm(g()), &stats, counters, &[]);
}

/// `TWO_HOP` and `EDGES` run over 𝔹 at n = 10 000, degree 4
/// (`delta_update`, `mixed_rw`, `durable_update`).
#[test]
fn two_hop_and_edges_plans_are_pinned() {
    let stats = graph_stats(10_000, 40_000);
    let counters = standing_counters(10, 6, 2, (5, 1), 0);
    let runs = [("matrix-chain-reorder", 1)];
    assert_plan::<Boolean>("TWO_HOP", &two_hop(), &stats, counters, &runs);
    let counters = standing_counters(8, 5, 2, (4, 1), 0);
    assert_plan::<Boolean>("EDGES", &edges(), &stats, counters, &[]);
}

/// `TRIANGLES` runs over ℝ at n = 2 000, degree 8 (`recompute_kernels`).
#[test]
fn triangles_plan_is_pinned() {
    let stats = graph_stats(2000, 16_000);
    let counters = standing_counters(12, 6, 2, (4, 2), 1);
    let runs = [("masked-product", 1)];
    assert_plan::<Real>("TRIANGLES", &triangles(), &stats, counters, &runs);
}
