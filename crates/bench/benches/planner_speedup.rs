//! Experiment E11 — the query planning + memoizing execution engine versus
//! naive tree-walking evaluation.
//!
//! Two series:
//!
//! 1. **Hoisting/CSE** — the Gram-trace query `Σv. vᵀ·(GᵀG)·v` over a
//!    sparse average-degree-8 graph.  The naive evaluator recomputes the
//!    loop-invariant Gram product on all `n` iterations; the engine
//!    computes it once and serves the remaining `n − 1` iterations from
//!    its memo cache.  Expected gap: roughly `n×` on the invariant part.
//! 2. **Batching** — four analytics queries sharing powers of one
//!    adjacency matrix, evaluated naively one-by-one versus through the
//!    engine's shared batch cache.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use matlang_bench::sparse_criterion;
use matlang_core::{evaluate, Expr, FunctionRegistry, Instance, SparseInstance};
use matlang_engine::Engine;
use matlang_matrix::{sparse_erdos_renyi, MatrixRepr};
use matlang_semiring::Nat;

const AVG_DEGREE: f64 = 8.0;

fn gram_trace() -> Expr {
    let gram = Expr::var("G").t().mm(Expr::var("G"));
    Expr::sum("v", "n", Expr::var("v").t().mm(gram).mm(Expr::var("v")))
}

fn sparse_instance(n: usize, seed: u64) -> SparseInstance<Nat> {
    Instance::new().with_dim("n", n).with_matrix(
        "G",
        MatrixRepr::from_sparse_auto(sparse_erdos_renyi::<Nat>(n, AVG_DEGREE, seed)),
    )
}

fn bench_hoisting(c: &mut Criterion) {
    let mut group = c.benchmark_group("E11_hoisting_gram_trace");
    let registry = FunctionRegistry::<Nat>::new();
    let expr = gram_trace();
    for &n in &[200usize, 400, 800] {
        let inst = sparse_instance(n, 23 + n as u64);
        let engine = Engine::new();
        group.bench_with_input(BenchmarkId::new("engine-planned", n), &n, |b, _| {
            b.iter(|| engine.evaluate(&expr, &inst, &registry).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("naive-tree-walk", n), &n, |b, _| {
            b.iter(|| evaluate(&expr, &inst, &registry).unwrap())
        });
    }
    group.finish();
}

fn bench_batching(c: &mut Criterion) {
    let mut group = c.benchmark_group("E11_batched_analytics");
    let registry = FunctionRegistry::<Nat>::new();
    // Four queries sharing G·G and (G·G)·G.
    let g = || Expr::var("G");
    let g2 = || g().mm(g());
    let g3 = || g2().mm(g());
    let ones_t = || g().ones().t();
    let queries = vec![
        ones_t().mm(g2()).mm(g().ones()), // 2-hop path count
        ones_t().mm(g3()).mm(g().ones()), // 3-hop path count
        Expr::sum("v", "n", Expr::var("v").t().mm(g3()).mm(Expr::var("v"))), // tr(G³) = 6·triangles
        ones_t().mm(g2().add(g3())).mm(g().ones()), // mixed-length paths
    ];
    let n = 400;
    let inst = sparse_instance(n, 77);
    let engine = Engine::new();
    group.bench_with_input(BenchmarkId::new("engine-batched", n), &n, |b, _| {
        b.iter(|| {
            let outcome = engine.evaluate_batch(&queries, &inst, &registry);
            assert!(outcome.results.iter().all(Result::is_ok));
            outcome
        })
    });
    group.bench_with_input(BenchmarkId::new("naive-sequential", n), &n, |b, _| {
        b.iter(|| {
            queries
                .iter()
                .map(|q| evaluate(q, &inst, &registry).unwrap())
                .collect::<Vec<_>>()
        })
    });
    group.finish();
}

fn run(c: &mut Criterion) {
    bench_hoisting(c);
    bench_batching(c);
}

criterion_group! {
    name = benches;
    config = sparse_criterion();
    targets = run
}
criterion_main!(benches);
