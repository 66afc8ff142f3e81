//! Guard for the executor's loop arithmetic: an iteration of the paper's
//! loops costs its semiring operations, not allocations.
//!
//! Floyd–Warshall and the triangle count at n = 12 run ≈ 14 700 plan nodes,
//! almost all of them `1 × 1` entry reads, products and sums, plus a point
//! update of the 12 × 12 accumulator per inner iteration.  The executor
//! holds those `1 × 1` values unboxed and updates the accumulator in place,
//! so the engine (plan + execute) must beat the tree-walking
//! `core::evaluate` — which allocates every intermediate — by a wide
//! margin, measured in the same process on the same instance.

use matlang_algorithms::graphs;
use matlang_core::{evaluate, FunctionRegistry, Instance, SparseInstance};
use matlang_engine::Engine;
use matlang_matrix::{random_invertible, MatrixRepr};
use matlang_semiring::Real;
use std::time::Instant;

/// Release: the engine runs Floyd–Warshall plus the triangle count at
/// least 6× faster than `core::evaluate`, the median of 9 alternated
/// pairs.  Measured medians on a shared 2-vCPU host: 8.0–10.2× in release
/// (3.6–3.7× with boxed scalars and copied accumulators), 10.5–15.3× in a
/// debug build (5.8–6.4× before), where the tier-1 `cargo test` runs 3
/// pairs against a bound of 8.
#[test]
fn unboxed_loop_guard() {
    let n = 12;
    // Floyd–Warshall's instance in `engine_parity`: diagonally dominant,
    // entries below 1, held by the adaptive backend as the server holds it.
    let g = random_invertible::<Real>(n, 12).scalar_mul(&Real(1.0 / (n + 2) as f64));
    let inst: SparseInstance<Real> = Instance::new()
        .with_dim("n", n)
        .with_matrix("G", MatrixRepr::from_dense_auto(g));
    let registry = FunctionRegistry::standard_field();
    let queries = [
        graphs::transitive_closure_fw("G", "n"),
        graphs::triangle_count("G", "n"),
    ];
    let engine = Engine::new();
    let run = |planned: bool| {
        let started = Instant::now();
        let values: Vec<MatrixRepr<Real>> = queries
            .iter()
            .map(|q| match planned {
                true => engine.evaluate(q, &inst, &registry).unwrap(),
                false => evaluate(q, &inst, &registry).unwrap(),
            })
            .collect();
        (started.elapsed().as_secs_f64(), values)
    };
    assert_eq!(run(true).1, run(false).1, "the engine must agree exactly");

    let (pairs, bound) = if cfg!(debug_assertions) {
        (3, 8.0)
    } else {
        (9, 6.0)
    };
    let mut ratios: Vec<f64> = (0..pairs)
        .map(|pair| {
            let (engine, tree) = if pair % 2 == 0 {
                let engine = run(true).0;
                (engine, run(false).0)
            } else {
                let tree = run(false).0;
                (run(true).0, tree)
            };
            tree / engine
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    let median = ratios[ratios.len() / 2];
    eprintln!(
        "unboxed_loop_guard: core::evaluate ÷ engine per pair {ratios:.2?}, median {median:.2}"
    );
    assert!(
        median >= bound,
        "Floyd–Warshall + triangles must run ≥ {bound}× faster planned than tree-walked; \
         per-pair ratios {ratios:.2?}"
    );
}
