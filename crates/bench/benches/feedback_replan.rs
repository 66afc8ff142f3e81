//! Observed-statistics feedback: the payoff of drift-triggered re-planning.
//!
//! The scenario the `replan_guard` release test pins at ≥2×, measured as
//! absolute medians over time: a standing chain query `((A * B) * v)` is
//! planned while `A` is ~empty (the cost-based chain rewrite keeps the
//! left association), then `A` is flooded dense.
//!
//! - **stale-plan-recompute** — executing the association chosen for the
//!   sparse regime (dense·dense prefix) after every cache invalidation.
//! - **replanned-recompute** — the same recompute after the drift
//!   feedback re-planned against current + observed statistics
//!   (matrix×vector association throughout).
//! - **replan-cost** — the re-plan itself (statistics snapshot, drift
//!   check, plan build, cache reset), measured on a store whose
//!   threshold is at its floor so every EXEC re-plans.

use criterion::{criterion_group, criterion_main, Criterion};
use matlang_bench::quick_criterion;
use matlang_server::{Store, StoreConfig};

const N: usize = 192;

/// A store with the given drift threshold whose standing chain query was
/// planned (and warmed once) while `A` was ~empty, then had `A` flooded
/// dense.  Returns the store and the query id.
fn flooded(name: &str, replan_drift: f64) -> (Store, usize) {
    let store = Store::with_config(StoreConfig::builder().replan_drift(replan_drift).build());
    store.create_instance(name, true).unwrap();
    store.set_dim(name, "n", N).unwrap();
    store
        .load_matrix(name, "A", N, N, vec![(0, 0, 1.0)])
        .unwrap();
    let mut b = Vec::with_capacity(N * N);
    for i in 0..N {
        for j in 0..N {
            b.push((i, j, ((i + 2 * j) % 7 + 1) as f64));
        }
    }
    store.load_matrix(name, "B", N, N, b).unwrap();
    let v: Vec<(usize, usize, f64)> = (0..N).map(|i| (i, 0, (i % 5 + 1) as f64)).collect();
    store.load_matrix(name, "v", N, 1, v).unwrap();
    let qid = store.prepare(name, "((A * B) * v)").unwrap().qid;
    store.exec(name, &[qid]).unwrap();
    let mut flood = Vec::with_capacity(N * N);
    for i in 0..N {
        for j in 0..N {
            flood.push((i, j, ((i * 31 + j) % 11 + 1) as f64));
        }
    }
    store.update(name, "A", &flood).unwrap();
    (store, qid)
}

fn bench_feedback_replan(c: &mut Criterion) {
    let mut group = c.benchmark_group("feedback_replan");

    // Stale side: a store that never re-plans keeps the sparse-regime plan.
    let (stale, stale_qid) = flooded("s", f64::MAX);
    let mut toggle = 0u64;
    group.bench_function("stale-plan-recompute", |b| {
        b.iter(|| {
            toggle += 1;
            let v = if toggle % 2 == 0 { 2.0 } else { 3.0 };
            stale.update("s", "A", &[(0, 0, v)]).unwrap();
            stale.exec("s", &[stale_qid]).unwrap()[0].entries.len()
        })
    });

    // Fresh side: same history, but one EXEC at the default threshold
    // lets the drift feedback re-plan before measuring (the toggle below
    // keeps nnz constant, so it never re-plans again).
    let (fresh, fresh_qid) = flooded("f", matlang_server::DEFAULT_REPLAN_DRIFT);
    fresh.exec("f", &[fresh_qid]).unwrap();
    group.bench_function("replanned-recompute", |b| {
        b.iter(|| {
            toggle += 1;
            let v = if toggle % 2 == 0 { 2.0 } else { 3.0 };
            fresh.update("f", "A", &[(0, 0, v)]).unwrap();
            fresh.exec("f", &[fresh_qid]).unwrap()[0].entries.len()
        })
    });

    // The re-plan itself: floor threshold + alternating nnz makes every
    // EXEC cross the drift check and rebuild the plan.
    let (floor, floor_qid) = flooded("r", 1.0);
    group.bench_function("replan-cost", |b| {
        b.iter(|| {
            toggle += 1;
            // Alternate one entry between zero and non-zero so the nnz
            // ratio stays above the floor on every EXEC.
            let v = if toggle % 2 == 0 { 0.0 } else { 3.0 };
            floor.update("r", "A", &[(1, 1, v)]).unwrap();
            floor.exec("r", &[floor_qid]).unwrap()[0].entries.len()
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = quick_criterion();
    targets = bench_feedback_replan
}
criterion_main!(benches);
