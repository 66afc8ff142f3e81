//! Guard for the executor's span discipline: tracing a looping query must
//! cost next to nothing and retain next to nothing.
//!
//! Floyd–Warshall at n = 12 computes ≈ 7 500 plan nodes inside its three
//! nested loops.  Under an active trace only the nodes *outside* every loop
//! open a span and the outermost loop closes with one summary event, so the
//! traced run must take about as long as the untraced one (ratio, same
//! process) and its finished trace must hold a handful of spans (absolute
//! anchor: a span per computed node would be four orders of magnitude off).
//!
//! This file holds exactly one test, so nothing else in the binary pushes
//! into the process-wide trace ring while it looks its own trace up.

use matlang_algorithms::graphs;
use matlang_core::{FunctionRegistry, Instance};
use matlang_engine::{Engine, Executor};
use matlang_matrix::random_invertible;
use matlang_obs::trace;
use matlang_semiring::Real;
use std::time::{Duration, Instant};

#[test]
fn loop_trace_overhead_guard() {
    let n = 12;
    // Diagonally dominant, scaled to entries below 1: the closure squares
    // as it goes and must stay O(1).
    let g = random_invertible::<Real>(n, 12).scalar_mul(&Real(1.0 / (n + 2) as f64));
    let inst: Instance<Real> = Instance::new().with_dim("n", n).with_matrix("G", g);
    let registry = FunctionRegistry::standard_field();
    let engine = Engine::new();
    let expr = graphs::transitive_closure_fw("G", "n");
    let plan = engine.plan(std::slice::from_ref(&expr), &inst);
    let root = plan.roots()[0];

    let execs_per_round = if cfg!(debug_assertions) { 1 } else { 10 };
    let mut last_trace = 0;
    let mut run_round = |traced: bool| -> Duration {
        let started = Instant::now();
        for _ in 0..execs_per_round {
            let id = trace::next_id();
            let _trace = traced.then(|| trace::begin(id, "QUERY g floyd-warshall"));
            let mut exec = Executor::new(&plan, &inst, &registry, engine.exec_options);
            exec.run_shared(root).unwrap();
            assert_eq!(exec.stats().cache_misses, 7_526, "the loops really ran");
            if traced {
                last_trace = id;
            }
        }
        started.elapsed()
    };

    // Load on a shared runner only ever adds time, so each side's minimum
    // over interleaved rounds (alternating which side leads) is the best
    // estimate of its own cost.
    run_round(true);
    run_round(false);
    let mut best = [Duration::MAX; 2]; // [traced, untraced]
    for pair in 0..7 {
        for traced in [pair % 2 == 0, pair % 2 != 0] {
            let slot = &mut best[usize::from(!traced)];
            *slot = (*slot).min(run_round(traced));
        }
    }
    let ratio = best[0].as_secs_f64() / best[1].as_secs_f64();

    let record = trace::recent(trace::RING_CAPACITY)
        .into_iter()
        .find(|t| t.id == last_trace)
        .expect("the traced execution must land in the ring");
    let names: Vec<&str> = record.spans.iter().map(|s| s.name.as_ref()).collect();
    eprintln!(
        "Floyd–Warshall n={n} ×{execs_per_round}: traced {:?}, untraced {:?}, ratio {ratio:.3}; \
         spans {names:?}",
        best[0], best[1]
    );
    assert!(
        record.spans.len() <= 64 && record.dropped_spans == 0,
        "a looping query's trace must stay small, got {} spans (+{} dropped)",
        record.spans.len(),
        record.dropped_spans
    );
    assert!(names.contains(&"execute:for"), "the outermost loop's span");
    let summary = names
        .iter()
        .find(|name| name.starts_with("loop:for "))
        .expect("the outermost loop's summary event");
    assert!(
        summary.contains("iterations=12 ")
            && summary.contains(" computed=")
            && summary.contains(" hits="),
        "summary event must carry the loop's figures: {summary}"
    );
    assert!(
        ratio <= 1.25,
        "tracing Floyd–Warshall costs {:.1}% (budget 25%): traced {:?}, untraced {:?}",
        (ratio - 1.0) * 100.0,
        best[0],
        best[1]
    );
}
