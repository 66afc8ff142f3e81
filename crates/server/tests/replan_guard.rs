//! Release-mode guard: drift-triggered re-planning must pay off.
//!
//! The scenario from the feedback loop's pitch: a standing chain query
//! `((A * B) * v)` is prepared while `A` is ~empty, so the cost-based
//! chain rewrite keeps the left association (the `A·B` prefix is
//! estimated tiny).  An `UPDATE` stream then flips `A` dense, after which
//! the stale association multiplies two dense n×n matrices per recompute
//! while the right association only ever touches matrix×vector work.
//! With drift feedback on, the first `EXEC` past the threshold re-plans
//! transparently; this guard pins the re-planned recompute at ≥2× faster
//! than executing the stale plan in release mode.
//!
//! Harness style follows `obs_overhead_guard`: interleaved adjacent-pair
//! rounds alternating which side runs first, median pair ratio, looser
//! bound in debug builds.

use matlang_server::{Store, StoreConfig};
use std::time::{Duration, Instant};

const N: usize = 192;

fn seeded(name: &str, config: StoreConfig) -> Store {
    let store = Store::with_config(config);
    store.create_instance(name, true).unwrap();
    store.set_dim(name, "n", N).unwrap();
    // A starts ~empty; B and v are dense.
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
    store
}

fn replans_of(store: &Store, name: &str) -> u64 {
    let stats = store.stats(name).unwrap();
    stats[0]
        .split_whitespace()
        .find_map(|t| t.strip_prefix("replans="))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("malformed STATS header: {}", stats[0]))
}

#[test]
fn timing_guard_drift_replanned_exec_beats_the_stale_plan_2x() {
    let (rounds, iters, margin) = if cfg!(debug_assertions) {
        (5, 2, 1.2)
    } else {
        (9, 8, 2.0)
    };

    // The stale side is frozen for good — nothing re-plans it, however
    // far A drifts; the fresh side re-plans at the default threshold.
    // Plans cannot leak between the two: `Store` keeps its plan cache
    // (like its configuration) per store.
    let stale = seeded("s", StoreConfig::builder().replan_drift(f64::MAX).build());
    let fresh = seeded("f", StoreConfig::default());
    let text = "((A * B) * v)";
    let stale_qid = stale.prepare("s", text).unwrap().qid;
    let fresh_qid = fresh.prepare("f", text).unwrap().qid;
    // Warm once while A is ~empty, the sparse regime both plans were
    // built for.
    stale.exec("s", &[stale_qid]).unwrap();
    fresh.exec("f", &[fresh_qid]).unwrap();

    // The UPDATE stream: flip A from ~empty to fully dense on both.
    let mut flood = Vec::with_capacity(N * N);
    for i in 0..N {
        for j in 0..N {
            flood.push((i, j, ((i * 31 + j) % 11 + 1) as f64));
        }
    }
    stale.update("s", "A", &flood).unwrap();
    fresh.update("f", "A", &flood).unwrap();
    stale.exec("s", &[stale_qid]).unwrap();
    assert_eq!(replans_of(&stale, "s"), 0, "stale side must keep its plan");
    // The fresh side sees the drift at the default threshold: its next
    // EXEC transparently re-plans against the now-dense A.
    let replanned = fresh.exec("f", &[fresh_qid]).unwrap();
    assert_eq!(replans_of(&fresh, "f"), 1, "drift must trigger a re-plan");
    // Same answer either way — the rewrite is association-only.
    let stale_now = stale.exec("s", &[stale_qid]).unwrap();
    assert_eq!(replans_of(&stale, "s"), 0, "stale side re-planned anyway");
    assert_eq!(replanned[0].entries, stale_now[0].entries);

    // Each iteration flips one A entry between two non-zero values (nnz
    // unchanged — no drift, so the measurement compares plan quality, not
    // further re-planning) to invalidate the memo cache, then recomputes
    // the chain.  The update cost is identical on both sides; what
    // differs is the association the plan executes.
    let mut toggle = 0u64;
    let mut run_round = |store: &Store, name: &str, qid: usize| -> Duration {
        let started = Instant::now();
        for _ in 0..iters {
            toggle += 1;
            let v = if toggle % 2 == 0 { 2.0 } else { 3.0 };
            store.update(name, "A", &[(0, 0, v)]).unwrap();
            let result = store.exec(name, &[qid]).unwrap();
            assert!(result[0].stats.cache_misses > 0, "EXEC must recompute");
        }
        started.elapsed()
    };

    // Warm-up, then adjacent-pair rounds with alternating order.
    run_round(&stale, "s", stale_qid);
    run_round(&fresh, "f", fresh_qid);
    let mut ratios = Vec::with_capacity(rounds);
    for pair in 0..rounds {
        let (slow, fast) = if pair % 2 == 0 {
            let slow = run_round(&stale, "s", stale_qid);
            (slow, run_round(&fresh, "f", fresh_qid))
        } else {
            let fast = run_round(&fresh, "f", fresh_qid);
            (run_round(&stale, "s", stale_qid), fast)
        };
        ratios.push(slow.as_secs_f64() / fast.as_secs_f64());
    }

    ratios.sort_by(|a, b| a.total_cmp(b));
    let ratio = ratios[rounds / 2];
    eprintln!(
        "chain recompute ×{iters}, {rounds} pairs: median stale/replanned ratio {ratio:.2} \
         (min {:.2}, max {:.2})",
        ratios[0],
        ratios[rounds - 1]
    );
    assert!(
        ratio >= margin,
        "re-planned EXEC is only {ratio:.2}× faster than the stale plan (need ≥{margin:.1}×)"
    );
}
