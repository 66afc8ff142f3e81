//! Batched graph analytics through the query-planning engine.
//!
//! One 10 000-node sparse graph, five analytics queries — walk-count
//! reachability, triangle counting and degree statistics — planned and
//! executed as a single batch: the engine hash-conses the queries into one
//! DAG, so shared subterms (`G·1`, `G²`, `G³`) are computed once for the
//! whole batch, and the per-query plan-cache hit counts below show exactly
//! how much work each query inherited from its predecessors.
//!
//! Run with `cargo run --release --example batched_analytics`.

use matlang::engine::Engine;
use matlang::prelude::*;
use std::time::Instant;

fn main() {
    let n = 10_000;
    let avg_degree = 8.0;
    let build = Instant::now();
    let graph: SparseMatrix<Nat> = sparse_erdos_renyi(n, avg_degree, 2021);
    let instance: SparseInstance<Nat> = Instance::new()
        .with_dim("n", n)
        .with_matrix("G", MatrixRepr::from_sparse_auto(graph));
    let g = instance.matrix("G").unwrap();
    println!(
        "graph: n = {n}, nnz = {} (density {:.5}), built in {:?}\n",
        g.nnz(),
        g.density(),
        build.elapsed()
    );

    // The query mix.  `G²` and `G³` are shared across three queries; the
    // planner computes each power once for the whole batch.
    let gv = || Expr::var("G");
    let ones = || gv().ones();
    let g2 = || gv().mm(gv());
    let g3 = || g2().mm(gv());
    let queries: Vec<(&str, Expr)> = vec![
        ("total-degree 1ᵀG1", ones().t().mm(gv()).mm(ones())),
        ("two-hop walks 1ᵀG²1", ones().t().mm(g2()).mm(ones())),
        (
            "≤3-hop walk reachability 1ᵀ(G+G²+G³)1",
            ones().t().mm(gv().add(g2()).add(g3())).mm(ones()),
        ),
        (
            "triangle count tr(G³)/6",
            Expr::sum("v", "n", Expr::var("v").t().mm(g3()).mm(Expr::var("v"))),
        ),
        (
            "degree sum-of-squares (G1)ᵀ(G1)",
            gv().mm(ones()).t().mm(gv().mm(ones())),
        ),
    ];

    let exprs: Vec<Expr> = queries.iter().map(|(_, e)| e.clone()).collect();
    let engine = Engine::new();
    let registry = FunctionRegistry::<Nat>::new();

    let plan_started = Instant::now();
    let plan = engine.plan(&exprs, &instance);
    println!("plan ({:?}): {}\n", plan_started.elapsed(), plan.report);

    let run_started = Instant::now();
    let outcome = engine.evaluate_batch(&exprs, &instance, &registry);
    let total_elapsed = run_started.elapsed();

    for ((name, _), (result, stats)) in queries
        .iter()
        .zip(outcome.results.iter().zip(&outcome.per_query))
    {
        let value = result
            .as_ref()
            .expect("analytics query failed")
            .as_scalar()
            .expect("analytics queries are scalar")
            .to_f64();
        let shown = if name.contains("triangle") {
            value / 6.0
        } else {
            value
        };
        println!(
            "{name:45} = {shown:>14.0}   cache: {:>5} hits / {:>4} misses",
            stats.cache_hits, stats.cache_misses
        );
    }
    println!(
        "\nbatch total: {:?} · {} · shared cache answered {} of {} node evaluations",
        total_elapsed,
        outcome.stats,
        outcome.stats.cache_hits,
        outcome.stats.cache_hits + outcome.stats.cache_misses,
    );
}
