//! Guard for the planner's own cost: a one-shot query plans on every
//! request, so planning the paper's largest query must stay a small part
//! of running it.
//!
//! Csanky's determinant at n = 12 is a 381-node expression that plans to a
//! 133-node DAG.  Planning is one bottom-up pass that applies the
//! simplification and cost rules while it hash-conses each node, over
//! interned names; executing the plan runs ≈ 300 dense 12 × 12 products.

use matlang_algorithms::csanky;
use matlang_core::{FunctionRegistry, Instance};
use matlang_engine::{Engine, Executor, InstanceStats};
use matlang_matrix::{random_invertible, Matrix};
use matlang_semiring::Real;
use std::time::Instant;

/// The median of `runs` timings of `f`, in seconds.
fn median_secs(runs: usize, mut f: impl FnMut()) -> f64 {
    let mut secs: Vec<f64> = (0..runs)
        .map(|_| {
            let started = Instant::now();
            f();
            started.elapsed().as_secs_f64()
        })
        .collect();
    secs.sort_by(f64::total_cmp);
    secs[runs / 2]
}

/// Release: planning the determinant takes at most a quarter of the time
/// executing its plan on the dense backend takes, as the median of 9
/// alternated pairs (each side the median of 5 runs).  Measured on a
/// shared 2-vCPU host: ≈ 0.16–0.19.  A debug build runs 3 pairs against a
/// bound of 1 (≈ 0.08 measured).
#[test]
fn plan_cost_guard() {
    let n = 12;
    let g: Matrix<Real> = random_invertible::<Real>(n, 12).scalar_mul(&Real(1.0 / (n + 2) as f64));
    let inst: Instance<Real> = Instance::new().with_dim("n", n).with_matrix("G", g);
    let stats = InstanceStats::from_instance(&inst);
    let registry = FunctionRegistry::standard_field();
    let query = csanky::determinant("G", "n");
    let engine = Engine::new();
    let plan = engine.plan_with_stats::<Real>(std::slice::from_ref(&query), &stats);
    let root = plan.roots()[0];

    let planning = || {
        median_secs(5, || {
            std::hint::black_box(
                engine.plan_with_stats::<Real>(std::slice::from_ref(&query), &stats),
            );
        })
    };
    let executing = || {
        median_secs(5, || {
            let mut exec = Executor::new(&plan, &inst, &registry, engine.exec_options);
            std::hint::black_box(exec.run(root).unwrap());
        })
    };
    let (pairs, bound) = if cfg!(debug_assertions) {
        (3, 1.0)
    } else {
        (9, 0.25)
    };
    let mut ratios: Vec<f64> = (0..pairs)
        .map(|pair| {
            let (plan, exec) = if pair % 2 == 0 {
                let plan = planning();
                (plan, executing())
            } else {
                let exec = executing();
                (planning(), exec)
            };
            plan / exec
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    let median = ratios[ratios.len() / 2];
    eprintln!("plan_cost_guard: plan ÷ execute per pair {ratios:.3?}, median {median:.3}");
    assert!(
        median <= bound,
        "planning the determinant must take ≤ {bound}× its execution; per-pair ratios {ratios:.3?}"
    );
}
