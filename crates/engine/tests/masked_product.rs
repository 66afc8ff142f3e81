//! The masked-product rewrite: `(A·B) ∘ M` with a product nothing else
//! reads becomes one `MaskedMatMul` node — and evaluates, on both backends,
//! to exactly what the tree-walking evaluator computes; a product that is
//! shared, a root, or kept across loop iterations stays unfused.

use matlang_core::{evaluate, Expr, FunctionRegistry, Instance, SparseInstance};
use matlang_engine::{Engine, Executor, InstanceStats, Plan, PlanOp};
use matlang_matrix::{
    random_matrix, sparse_erdos_renyi, Matrix, MatrixRepr, RandomMatrixConfig, SparseMatrix,
};
use matlang_semiring::{Boolean, Real, Semiring};
use std::time::{Duration, Instant};

fn var(name: &str) -> Expr {
    Expr::var(name)
}

/// `1ᵀ · (hadamard · 1)`: the sum of all entries, the triangle query's
/// outer shape.
fn total(hadamard: Expr) -> Expr {
    var("G").ones().t().mm(hadamard.mm(var("G").ones()))
}

/// Four `n × n` operands at density 0.2: sparse enough for the estimates to
/// choose CSR and a product entry to rarely land on a mask entry, dense
/// enough that some do.
fn operands<K: Semiring>(n: usize, integer_entries: bool) -> Instance<K> {
    operands_at(n, integer_entries, 0.8)
}

fn operands_at<K: Semiring>(n: usize, integer_entries: bool, zero_probability: f64) -> Instance<K> {
    let operand = |seed| {
        random_matrix::<K>(
            n,
            n,
            &RandomMatrixConfig {
                seed,
                min_value: if integer_entries { 1.0 } else { -1.0 },
                max_value: if integer_entries { 3.0 } else { 1.0 },
                zero_probability,
                integer_entries,
            },
        )
    };
    Instance::new()
        .with_dim("n", n)
        .with_matrix("G", operand(1))
        .with_matrix("A", operand(2))
        .with_matrix("B", operand(3))
        .with_matrix("M", operand(4))
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

fn count(plan: &Plan, pred: impl Fn(&PlanOp) -> bool) -> usize {
    plan.nodes().iter().filter(|n| pred(&n.op)).count()
}

fn masked(op: &PlanOp) -> bool {
    matches!(op, PlanOp::MaskedMatMul { .. })
}

fn hadamard(op: &PlanOp) -> bool {
    matches!(op, PlanOp::Hadamard(..))
}

fn product(op: &PlanOp) -> bool {
    matches!(op, PlanOp::MatMul(..))
}

/// Plans `queries` over both backends, asserts `fused` masked products in
/// each plan, and that every root evaluates to `core::evaluate`'s value.
fn assert_fused_parity<K: Semiring>(queries: &[Expr], dense: &Instance<K>, fused: usize) -> Plan {
    let registry = FunctionRegistry::<K>::new();
    let engine = Engine::new();
    let sparse = sparsify(dense);
    let plan = engine.plan(queries, dense);
    assert_eq!(
        engine.plan(queries, &sparse).structure_fingerprint(),
        plan.structure_fingerprint(),
        "the backend does not change the plan"
    );
    assert_eq!(count(&plan, masked), fused, "{:?}", plan.explain());
    assert_eq!(plan.report.fused_products, fused, "{}", plan.report);
    let dense_out = engine.evaluate_batch(queries, dense, &registry);
    let sparse_out = engine.evaluate_batch(queries, &sparse, &registry);
    // The executor counts runs of the fused kernel, one per loop iteration.
    assert_eq!(dense_out.stats.fused_products > 0, fused > 0);
    for (q, query) in queries.iter().enumerate() {
        let expected = evaluate(query, dense, &registry).unwrap();
        assert_eq!(
            dense_out.results[q].as_ref().unwrap(),
            &expected,
            "dense, {query}"
        );
        assert_eq!(
            sparse_out.results[q].as_ref().unwrap().to_dense(),
            expected,
            "adaptive, {query}"
        );
        assert_eq!(
            evaluate(query, &sparse, &registry).unwrap().to_dense(),
            expected,
            "backends disagree on {query}"
        );
    }
    plan
}

#[test]
fn the_triangle_query_and_its_commuted_form_fuse() {
    let g = || var("G");
    let triangles = total(g().mm(g()).had(g()));
    let commuted = total(g().had(g().mm(g())));
    // Integer weights: the outer chain may be re-associated, which only
    // exact sums survive bit for bit.  Two entries a row, so the product is
    // not estimated full and the mask is estimated to drop most of it.
    let real = operands_at::<Real>(40, true, 0.95);
    let boolean = operands_at::<Boolean>(40, true, 0.95);
    for query in [&triangles, &commuted] {
        let plan = assert_fused_parity(std::slice::from_ref(query), &real, 1);
        assert_fused_parity(std::slice::from_ref(query), &boolean, 1);
        assert_eq!(count(&plan, hadamard) + count(&plan, product), 2);
        assert!(plan
            .report
            .rewrites
            .iter()
            .any(|r| r.rule == "masked-product" && r.saving > 0.0));
        // The estimates above the masked product are derived from it.
        let unfused = Engine::builder()
            .cost_rewrites(false)
            .build()
            .plan(std::slice::from_ref(query), &real);
        let root_work = |p: &Plan| p.node(p.roots()[0]).est.unwrap().work;
        assert!(root_work(&plan) < root_work(&unfused));
        let explained = plan.explain().join("\n");
        assert!(explained.contains(" matmul-masked #"), "{explained}");
        assert!(explained.contains("rewrite masked-product"), "{explained}");
    }
    let mask_side = |plan: &Plan| {
        plan.nodes().iter().find_map(|n| match n.op {
            PlanOp::MaskedMatMul { mask_on_left, .. } => Some(mask_on_left),
            _ => None,
        })
    };
    let engine = Engine::new();
    assert_eq!(
        mask_side(&engine.plan(std::slice::from_ref(&triangles), &real)),
        Some(false)
    );
    assert_eq!(
        mask_side(&engine.plan(std::slice::from_ref(&commuted), &real)),
        Some(true)
    );
}

#[test]
fn a_masked_product_feeding_another_product_is_bit_identical_on_rounding_entries() {
    // Fractional entries: every sum rounds, and neither query has a chain
    // the planner could re-associate.
    let inst = operands::<Real>(40, false);
    let masked_product = var("A").mm(var("B")).had(var("M"));
    let nested = masked_product.clone().mm(var("G"));
    let plan = assert_fused_parity(&[nested], &inst, 1);
    assert_eq!(count(&plan, hadamard), 0);
    assert_eq!(count(&plan, product), 1, "only the outer product is left");
    assert_fused_parity(&[masked_product], &inst, 1);
}

#[test]
fn a_shared_or_rooted_product_stays_unfused() {
    let inst = operands::<Real>(24, false);
    let ab = || var("A").mm(var("B"));
    // The product is a root of its own.
    let plan = assert_fused_parity(&[ab().had(var("M")), ab()], &inst, 0);
    assert_eq!(plan.report.fused_products, 0);
    assert!(plan
        .report
        .rewrites
        .iter()
        .all(|r| r.rule != "masked-product"));
    assert_eq!((count(&plan, hadamard), count(&plan, product)), (1, 1));
    // The product is read by two Hadamard products.
    let plan = assert_fused_parity(&[ab().had(var("M")), var("G").had(ab())], &inst, 0);
    assert_eq!((count(&plan, hadamard), count(&plan, product)), (2, 1));
    // A Hadamard product shared by two roots reads its product once.
    let both = ab().had(var("M"));
    assert_fused_parity(&[both.clone(), both.t()], &inst, 1);
}

#[test]
fn a_loop_invariant_product_under_a_varying_mask_stays_unfused() {
    let inst = operands::<Real>(12, true);
    let v = || var("v");
    // G·G is computed once and kept across the iterations; fusing would
    // redo it under every v·vᵀ.
    let kept = Expr::sum("v", "n", var("G").mm(var("G")).had(v().diag()));
    assert_fused_parity(&[kept], &inst, 0);
    // Nor does v·vᵀ fuse with G·G as its mask: vectors this small are
    // estimated (and stored) dense.
    let kept = Expr::sum("v", "n", var("G").mm(var("G")).had(v().mm(v().t())));
    let plan = assert_fused_parity(&[kept], &inst, 0);
    assert!(plan.nodes().iter().any(|n| product(&n.op) && n.hoistable));
    // A product that varies with the loop fuses inside it.
    let varying = Expr::sum("v", "n", v().mm(v().t()).mm(var("G")).had(var("M")));
    assert_fused_parity(&[varying], &inst, 1);
    // So does an invariant product under an invariant mask: the masked
    // product is kept across the iterations instead.
    let hoisted = Expr::sum(
        "v",
        "n",
        var("A").mm(var("B")).had(var("M")).mm(v()).mm(v().t()),
    );
    assert_fused_parity(&[hoisted], &inst, 1);
}

#[test]
fn without_statistics_or_cost_rewrites_nothing_fuses() {
    let inst = operands::<Real>(12, true);
    let query = var("A").mm(var("B")).had(var("M"));
    let unfused = Engine::builder().cost_rewrites(false).build();
    let plan = unfused.plan(std::slice::from_ref(&query), &inst);
    assert_eq!(count(&plan, masked), 0);
    // No estimates, so the shapes are not certified.
    let blind = Engine::new()
        .plan_with_stats::<Real>(std::slice::from_ref(&query), &InstanceStats::empty());
    assert_eq!(count(&blind, masked), 0);
    let fused = Engine::new().plan(std::slice::from_ref(&query), &inst);
    assert_eq!(count(&fused, masked), 1);
}

#[test]
fn a_dense_masked_product_keeps_the_unfused_pair() {
    // With a dense operand the fused kernel is the unfused pair, so the plan
    // must keep the pair (and the product it caches).
    let n = 200;
    let d = random_matrix::<Real>(n, n, &RandomMatrixConfig::seeded(5));
    let inst: Instance<Real> = Instance::new().with_dim("n", n).with_matrix("D", d);
    let registry = FunctionRegistry::<Real>::new();
    let query = var("D").mm(var("D")).had(var("D"));
    let expected = evaluate(&query, &inst, &registry).unwrap();
    let out = Engine::new().evaluate_batch(std::slice::from_ref(&query), &inst, &registry);
    assert_eq!(out.report.fused_products, 0, "{}", out.report);
    assert_eq!(out.stats.fused_products, 0);
    assert_eq!(out.results[0].as_ref().unwrap(), &expected);
}

#[test]
fn a_large_sparse_masked_product_runs_the_masked_kernel() {
    // 4 000 rows of ≈ 17 entries: ≈ 1.2e6 product terms.
    let n = 4000;
    let g = sparse_erdos_renyi::<Real>(n, 17.0, 23);
    let inst: SparseInstance<Real> = Instance::new()
        .with_dim("n", n)
        .with_matrix("G", MatrixRepr::from_sparse_auto(g));
    let registry = FunctionRegistry::<Real>::new();
    let query = var("G").mm(var("G")).had(var("G"));
    let run =
        |engine: Engine| engine.evaluate_batch(std::slice::from_ref(&query), &inst, &registry);
    let unfused = run(Engine::builder().cost_rewrites(false).build());
    assert_eq!(unfused.report.fused_products, 0);
    let out = run(Engine::new());
    assert_eq!(out.report.fused_products, 1, "{}", out.report);
    assert_eq!(out.stats.fused_products, 1);
    assert_eq!(out.results[0], unfused.results[0]);
}

/// Release timing guard: the fused triangle plan against the same plan with
/// the cost rewrites off, Real, n = 2 000, degree 8.  Alternated pairs and
/// the median of the per-pair ratios, so a slow phase of a shared host hits
/// both sides of a pair alike.
#[test]
fn masked_product_guard() {
    let n = 2000;
    let weights: Vec<(usize, usize, Real)> = sparse_erdos_renyi::<Real>(n, 8.0, 17)
        .iter_entries()
        .map(|(i, j, _)| (i, j, Real(((i + 2 * j) % 5 + 1) as f64)))
        .collect();
    let g = SparseMatrix::from_triplets(n, n, weights).unwrap();
    let inst: SparseInstance<Real> = Instance::new()
        .with_dim("n", n)
        .with_matrix("G", MatrixRepr::from_sparse_auto(g));
    let registry = FunctionRegistry::standard_field();
    let triangles = total(var("G").mm(var("G")).had(var("G")));

    let fusing = Engine::new();
    let baseline = Engine::builder().cost_rewrites(false).build();
    let fused_plan = fusing.plan(std::slice::from_ref(&triangles), &inst);
    let unfused_plan = baseline.plan(std::slice::from_ref(&triangles), &inst);
    assert_eq!(count(&fused_plan, masked), 1);
    assert_eq!(count(&unfused_plan, masked), 0);

    let run = |plan: &Plan| -> (Duration, Matrix<Real>) {
        let started = Instant::now();
        let mut exec = Executor::new(plan, &inst, &registry, fusing.exec_options);
        let value = exec.run(plan.roots()[0]).unwrap();
        (started.elapsed(), value.to_dense())
    };
    assert_eq!(run(&fused_plan).1, run(&unfused_plan).1);

    let (pairs, bound) = if cfg!(debug_assertions) {
        (3, 2.0)
    } else {
        (9, 4.0)
    };
    let mut ratios: Vec<f64> = (0..pairs)
        .map(|pair| {
            let (fused, unfused) = if pair % 2 == 0 {
                let fused = run(&fused_plan).0;
                (fused, run(&unfused_plan).0)
            } else {
                let unfused = run(&unfused_plan).0;
                (run(&fused_plan).0, unfused)
            };
            unfused.as_secs_f64() / fused.as_secs_f64()
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    let median = ratios[ratios.len() / 2];
    eprintln!("masked_product_guard: unfused ÷ fused per pair {ratios:.1?}, median {median:.1}");
    assert!(
        median >= bound,
        "fused triangle plan must run ≥ {bound}× faster than the unfused one; \
         per-pair ratios {ratios:.1?}"
    );
}
