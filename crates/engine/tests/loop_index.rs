//! The loop-index lowering: products with a loop's canonical vector run as
//! row/column/entry selections, placements and point updates — and
//! evaluate, on both backends and over every semiring, to exactly what the
//! tree-walking evaluator computes.  A product whose vector is not a
//! loop's (a `let` rebinds the name, an inner accumulator shadows it) stays
//! a product; a shape error is the unfused product's.

use matlang_algorithms::graphs;
use matlang_core::{
    evaluate, Dim, EvalError, Expr, FunctionRegistry, Instance, MatrixType, SparseInstance,
};
use matlang_engine::{Engine, Executor, Plan, PlanOp};
use matlang_matrix::{random_invertible, random_matrix, Matrix, MatrixRepr, RandomMatrixConfig};
use matlang_semiring::{Boolean, MaxPlus, MinPlus, Real, Semiring};
use std::time::{Duration, Instant};

fn var(name: &str) -> Expr {
    Expr::var(name)
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

/// The labels of the plan's loop-index ops.
fn index_labels(plan: &Plan) -> Vec<&'static str> {
    plan.nodes()
        .iter()
        .filter(|n| n.op.loop_indices().next().is_some())
        .map(|n| n.op.label())
        .collect()
}

/// An instance over `K`: `G` is `a × a`, `R` is `a × b`, `u` is `a × 1`;
/// entries drawn from `min..=max`, about a third of them zero.
fn instance<K: Semiring>(a: usize, b: usize, min: f64, max: f64) -> Instance<K> {
    let operand = |rows, cols, seed| {
        random_matrix::<K>(
            rows,
            cols,
            &RandomMatrixConfig {
                seed,
                min_value: min,
                max_value: max,
                zero_probability: 0.3,
                integer_entries: false,
            },
        )
    };
    Instance::new()
        .with_dim("a", a)
        .with_dim("b", b)
        .with_matrix("G", operand(a, a, 11))
        .with_matrix("R", operand(a, b, 12))
        .with_matrix("u", operand(a, 1, 13))
}

/// `expr` through the default engine on the dense and adaptive backends
/// equals `core::evaluate` under `==`, and its plan holds each of `labels`.
fn assert_lowered<K: Semiring>(expr: &Expr, dense: &Instance<K>, labels: &[&str]) {
    let registry = FunctionRegistry::<K>::new();
    let expected = evaluate(expr, dense, &registry).unwrap();
    let engine = Engine::new();
    let plan = engine.plan(std::slice::from_ref(expr), dense);
    let lowered = index_labels(&plan);
    for label in labels {
        assert!(
            lowered.contains(label),
            "{label} missing for {expr}: {lowered:?}"
        );
    }
    assert_eq!(
        engine.evaluate(expr, dense, &registry).unwrap(),
        expected,
        "dense, {expr}"
    );
    let sparse = sparsify(dense);
    assert_eq!(
        engine
            .evaluate(expr, &sparse, &registry)
            .unwrap()
            .to_dense(),
        expected,
        "adaptive, {expr}"
    );
}

/// Every lowered pattern in nested loops over `a` and in loops over the
/// rectangular `b`.
fn nested_patterns<K: Semiring>(a: usize, min: f64, max: f64) {
    let inst = instance::<K>(a, a + 2, min, max);
    let (v, w) = (|| var("v"), || var("w"));
    let cases: Vec<(Expr, &[&str])> = vec![
        // vᵀ·G → row v; G·w → column w.
        (Expr::sum("v", "a", v().t().mm(var("G"))), &["select-row"]),
        (Expr::sum("w", "a", var("G").mm(w())), &["select-col"]),
        // vᵀ·G·w, both associations, scaling the unit matrix v·wᵀ.
        (
            Expr::sum(
                "v",
                "a",
                Expr::sum("w", "a", v().t().mm(var("G")).mm(w()).smul(v().mm(w().t()))),
            ),
            &["select-entry", "place-unit"],
        ),
        (
            Expr::sum("v", "a", Expr::sum("w", "a", v().t().mm(var("G").mm(w())))),
            &["select-entry"],
        ),
        // x·wᵀ and v·y: a column / a row placed back.
        (
            Expr::sum("w", "a", var("G").mm(w()).mm(w().t())),
            &["select-col", "place-col"],
        ),
        (
            Expr::sum("v", "a", v().mm(v().t().mm(var("G")))),
            &["select-row", "place-row"],
        ),
        (Expr::sum("v", "a", v().mm(var("u").t())), &["place-row"]),
        (Expr::sum("w", "a", var("u").mm(w().t())), &["place-col"]),
        // X + s × (v·wᵀ): the point update, nested.
        (
            Expr::for_loop(
                "v",
                "a",
                "X",
                MatrixType::square("a"),
                Expr::for_loop(
                    "w",
                    "a",
                    "Y",
                    MatrixType::square("a"),
                    var("Y").add(v().t().mm(var("G")).mm(w()).smul(v().mm(w().t()))),
                )
                .add(var("X")),
            ),
            &["select-entry", "point-update"],
        ),
        // Floyd–Warshall and the triangle count.
        (
            graphs::transitive_closure_fw("G", "a"),
            &["select-entry", "point-update"],
        ),
        (graphs::triangle_count("G", "a"), &["select-entry"]),
        // A rectangular dimension: R is a × b.
        (Expr::sum("w", "b", var("R").mm(w())), &["select-col"]),
        (Expr::sum("v", "a", v().t().mm(var("R"))), &["select-row"]),
        (
            Expr::for_loop(
                "v",
                "a",
                "X",
                MatrixType::new(Dim::sym("a"), Dim::sym("b")),
                Expr::for_loop(
                    "w",
                    "b",
                    "Y",
                    MatrixType::new(Dim::sym("a"), Dim::sym("b")),
                    var("Y").add(v().t().mm(var("R")).mm(w()).smul(v().mm(w().t()))),
                )
                .add(var("X")),
            ),
            &["select-entry", "point-update"],
        ),
        (
            Expr::sum("w", "b", var("R").mm(w()).mm(w().t())),
            &["select-col", "place-col"],
        ),
    ];
    for (expr, labels) in &cases {
        assert_lowered(expr, &inst, labels);
    }
}

#[test]
fn lowered_patterns_equal_the_tree_evaluator_over_real_with_rounding() {
    for a in [1, 2, 12] {
        nested_patterns::<Real>(a, -1.0, 1.0);
    }
}

#[test]
fn lowered_patterns_equal_the_tree_evaluator_over_boolean() {
    for a in [1, 2, 12] {
        nested_patterns::<Boolean>(a, 1.0, 1.0);
    }
}

#[test]
fn lowered_patterns_equal_the_tree_evaluator_over_min_plus() {
    for a in [1, 2, 12] {
        nested_patterns::<MinPlus>(a, -4.0, 9.0);
    }
}

#[test]
fn lowered_patterns_equal_the_tree_evaluator_over_max_plus() {
    for a in [1, 2, 12] {
        nested_patterns::<MaxPlus>(a, -4.0, 9.0);
    }
}

#[test]
fn single_loops_above_the_shared_basis_bound() {
    // 300 > the executor's shared-basis bound: on the adaptive backend the
    // canonical vectors are CSR and every one the unfused plan read was
    // built afresh.
    let inst = instance::<Real>(300, 1, -1.0, 1.0);
    let v = || var("v");
    let cases: Vec<(Expr, &[&str])> = vec![
        (Expr::sum("v", "a", v().t().mm(var("G"))), &["select-row"]),
        (Expr::sum("v", "a", var("G").mm(v())), &["select-col"]),
        (
            Expr::sum("v", "a", v().t().mm(var("G")).mm(v())),
            &["select-entry"],
        ),
        (
            Expr::sum("v", "a", v().t().mm(var("u")).smul(v().t().mm(var("u")))),
            &["select-row"],
        ),
        (
            Expr::sum("v", "a", v().mm(v().t().mm(var("u")))),
            &["select-row", "place-row"],
        ),
    ];
    for (expr, labels) in &cases {
        assert_lowered(expr, &inst, labels);
    }
}

/// A `for` body that is a point update or a sum into the accumulator
/// writes into it in place; wherever something else still holds that
/// value — a cached node, a `let` binding, a second read — the update must
/// land in a copy.  Likewise a Σ whose first value is a cached node.
#[test]
fn in_place_accumulators_leave_every_alias_unchanged() {
    let (v, x) = (|| var("v"), || var("X"));
    let sq = || MatrixType::square("a");
    // (vᵀ·A·v) × (v·vᵀ): A's diagonal entry v, placed back at (v, v).
    let diagonal_of = |a: Expr| v().t().mm(a).mm(v()).smul(v().mm(v().t()));
    let gram = || var("G").mm(var("G"));
    for a in [2, 12] {
        let inst = instance::<Real>(a, a + 2, -1.0, 1.0);
        let cases: Vec<(Expr, &[&str])> = vec![
            // The scalar reads the accumulator after its read as the
            // updated matrix; a second read follows the update.
            (
                Expr::for_init("v", "a", "X", sq(), var("G"), x().add(diagonal_of(x()))),
                &["point-update"],
            ),
            (
                Expr::for_init(
                    "v",
                    "a",
                    "X",
                    sq(),
                    var("G"),
                    x().add(diagonal_of(var("G"))).add(x()),
                ),
                &["point-update"],
            ),
            // The initial accumulator is a `let` binding, or a cached node,
            // read again after the loop.
            (
                Expr::let_in(
                    "Y",
                    var("G"),
                    Expr::for_init(
                        "v",
                        "a",
                        "X",
                        sq(),
                        var("Y"),
                        x().add(diagonal_of(var("G"))),
                    )
                    .add(var("Y")),
                ),
                &["point-update"],
            ),
            (
                Expr::for_init("v", "a", "X", sq(), gram(), x().add(diagonal_of(var("G"))))
                    .add(gram()),
                &["point-update"],
            ),
            (
                Expr::for_init("v", "a", "X", sq(), gram(), x().add(var("G"))).add(gram()),
                &[],
            ),
            // The update's matrix is not the accumulator.
            (
                Expr::for_init(
                    "v",
                    "a",
                    "X",
                    sq(),
                    var("G"),
                    var("G").add(diagonal_of(x())),
                ),
                &["point-update"],
            ),
            // Σ's first value is the cached, loop-invariant G·G.
            (Expr::sum("v", "a", gram()).add(gram()), &[]),
        ];
        for (expr, labels) in &cases {
            assert_lowered(expr, &inst, labels);
        }

        // The cached G·G itself, after the Σ folded into a value it held.
        let expr = Expr::sum("v", "a", gram()).add(gram());
        let registry = FunctionRegistry::standard_field();
        let plan = Engine::new().plan(std::slice::from_ref(&expr), &inst);
        let mut exec = Executor::new(&plan, &inst, &registry, Engine::new().exec_options);
        exec.run(plan.roots()[0]).unwrap();
        let cache = exec.into_cache();
        let product = plan
            .nodes()
            .iter()
            .position(|n| matches!(n.op, PlanOp::MatMul(..)))
            .expect("G·G is a product");
        let g = inst.matrix("G").unwrap();
        assert_eq!(
            cache[product].as_deref(),
            Some(&g.matmul(g).unwrap()),
            "the Σ changed the cached G·G"
        );
    }
}

#[test]
fn nothing_is_lowered_where_the_vector_is_not_a_loops() {
    let inst = instance::<Real>(5, 3, -1.0, 1.0);
    let registry = FunctionRegistry::standard_field();
    let v = || var("v");
    for expr in [
        // A `let` rebinds the loop variable to a non-canonical vector.
        Expr::sum(
            "v",
            "a",
            Expr::let_in(
                "v",
                v().add(var("u")),
                v().t().mm(var("G")).mm(v()).smul(v().mm(v().t())),
            ),
        ),
        // An inner loop reuses the name for its accumulator.
        Expr::sum(
            "v",
            "a",
            Expr::for_init(
                "w",
                "a",
                "v",
                MatrixType::vector("a"),
                v(),
                var("G").mm(v()).add(v().t().mm(var("G")).t()),
            ),
        ),
    ] {
        let plan = Engine::new().plan(std::slice::from_ref(&expr), &inst);
        assert_eq!(index_labels(&plan), Vec::<&str>::new(), "{expr}");
        let expected = evaluate(&expr, &inst, &registry).unwrap();
        assert_eq!(
            Engine::new().evaluate(&expr, &inst, &registry).unwrap(),
            expected
        );
        let sparse = sparsify(&inst);
        let adaptive = Engine::new().evaluate(&expr, &sparse, &registry).unwrap();
        assert_eq!(adaptive.to_dense(), expected);
    }
}

#[test]
fn shape_errors_carry_the_unfused_discriminant() {
    // G is a × a, R is a × b and u is a × 1, with a ≠ b: every product
    // below mismatches, inside a loop over the canonical vectors of b.
    let inst = instance::<Real>(4, 3, -1.0, 1.0);
    let registry = FunctionRegistry::standard_field();
    let w = || var("w");
    let sq = MatrixType::square("b");
    for expr in [
        Expr::sum("w", "b", w().t().mm(var("G"))),
        Expr::sum("w", "b", var("G").mm(w())),
        Expr::sum("w", "b", w().t().mm(var("G")).mm(w())),
        Expr::sum("w", "b", w().mm(var("G"))),
        Expr::sum("w", "b", var("R").mm(w().t())),
        // A non-scalar scale, and a sum of mismatched shapes.
        Expr::for_loop(
            "w",
            "b",
            "X",
            sq.clone(),
            var("X").add(var("G").smul(w().mm(w().t()))),
        ),
        Expr::for_init(
            "w",
            "b",
            "X",
            MatrixType::square("a"),
            var("G"),
            var("X").add(w().t().mm(var("R")).mm(w()).smul(w().mm(w().t()))),
        ),
    ] {
        let naive = evaluate(&expr, &inst, &registry).unwrap_err();
        let sparse = sparsify(&inst);
        let planned = [
            Engine::new().evaluate(&expr, &inst, &registry).unwrap_err(),
            Engine::new()
                .evaluate(&expr, &sparse, &registry)
                .map(|m| m.to_dense())
                .unwrap_err(),
        ];
        for error in planned {
            assert!(matches!(
                naive,
                EvalError::Matrix(_) | EvalError::NotAScalar { .. }
            ));
            assert_eq!(
                std::mem::discriminant(&naive),
                std::mem::discriminant(&error),
                "{expr}: {naive} vs {error}"
            );
        }
    }
}

/// Floyd–Warshall's instance in `engine_parity`: dense, diagonally
/// dominant, entries below 1.
fn floyd_warshall_instance() -> SparseInstance<Real> {
    let n = 12;
    let g = random_invertible::<Real>(n, 12).scalar_mul(&Real(1.0 / (n + 2) as f64));
    sparsify(&Instance::new().with_dim("n", n).with_matrix("G", g))
}

#[test]
fn explain_shows_the_index_ops_and_no_square_product_in_the_inner_loop() {
    let inst = floyd_warshall_instance();
    let fw = graphs::transitive_closure_fw("G", "n");
    let plan = Engine::new().plan(std::slice::from_ref(&fw), &inst);
    let explained = plan.explain().join("\n");
    for label in [" select-entry #", " point-update #"] {
        assert!(explained.contains(label), "{explained}");
    }
    assert!(explained.contains("rewrite loop-index"), "{explained}");
    // The only product left multiplies the two entries the j loop reads.
    for node in plan.nodes() {
        if let PlanOp::MatMul(..) = node.op {
            let est = node.est.expect("estimated");
            assert_eq!((est.rows, est.cols), (1, 1), "{explained}");
        }
    }
}

/// Release timing guard.  Floyd–Warshall at n = 12 computes at most 9 000
/// plan nodes (deterministic; 13 058 unlowered), and Floyd–Warshall plus
/// the triangle count run at least 1.5× faster lowered than with the cost
/// rewrites off — the median of alternated pairs, so a slow phase of a
/// shared host hits both sides of a pair alike.  Measured medians: ≈ 2.0–2.3×
/// in release (bound 1.5), ≈ 3.1–3.2× in a debug build (bound 1.2), where
/// the tier-1 `cargo test` runs it on 3 pairs.
#[test]
fn loop_index_guard() {
    let inst = floyd_warshall_instance();
    let registry = FunctionRegistry::standard_field();
    let queries = [
        graphs::transitive_closure_fw("G", "n"),
        graphs::triangle_count("G", "n"),
    ];
    let lowering = Engine::new();
    let baseline = Engine::builder().cost_rewrites(false).build();
    let lowered = lowering.plan(&queries, &inst);
    let unlowered = baseline.plan(&queries, &inst);

    let run = |plan: &Plan| -> (Duration, u64, Vec<Matrix<Real>>) {
        let started = Instant::now();
        let mut exec = Executor::new(plan, &inst, &registry, lowering.exec_options);
        let values = plan
            .roots()
            .iter()
            .map(|&root| exec.run(root).unwrap().to_dense())
            .collect();
        (started.elapsed(), exec.stats().cache_misses, values)
    };
    let (_, _, expected) = run(&unlowered);
    let (_, misses, values) = run(&lowered);
    assert_eq!(values, expected);
    let fw_plan = lowering.plan(&queries[..1], &inst);
    let mut exec = Executor::new(&fw_plan, &inst, &registry, lowering.exec_options);
    exec.run(fw_plan.roots()[0]).unwrap();
    let fw_misses = exec.stats().cache_misses;
    assert!(
        fw_misses <= 9_000,
        "Floyd–Warshall computed {fw_misses} nodes"
    );
    assert!(misses > fw_misses);

    let (pairs, bound) = if cfg!(debug_assertions) {
        (3, 1.2)
    } else {
        (9, 1.5)
    };
    let mut ratios: Vec<f64> = (0..pairs)
        .map(|pair| {
            let (fast, slow) = if pair % 2 == 0 {
                let fast = run(&lowered).0;
                (fast, run(&unlowered).0)
            } else {
                let slow = run(&unlowered).0;
                (run(&lowered).0, slow)
            };
            slow.as_secs_f64() / fast.as_secs_f64()
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    let median = ratios[ratios.len() / 2];
    eprintln!(
        "loop_index_guard: FW misses {fw_misses}; unlowered ÷ lowered per pair {ratios:.2?}, \
         median {median:.2}"
    );
    assert!(
        median >= bound,
        "lowered FW + triangles must run ≥ {bound}× faster than with cost rewrites off; \
         per-pair ratios {ratios:.2?}"
    );
}
