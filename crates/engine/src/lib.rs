//! Query planning and memoized execution for MATLANG expressions.
//!
//! The tree-walking evaluator in `matlang_core` implements the paper's
//! semantics directly: every occurrence of a subexpression is re-evaluated,
//! and a Σ/Π loop re-evaluates loop-invariant subterms (such as `Gᵀ·G`
//! inside a Σ-body) on every iteration.  This crate adds the layer the
//! paper leaves as future work — *efficient* evaluation:
//!
//! * [`Planner`] compiles a type-checked [`matlang_core::Expr`] into a
//!   DAG-shaped physical [`Plan`]: the algebraic rewriter
//!   (`matlang_core::rewrite`) runs first, then the **cost-based rewrite
//!   layer** ([`rewrite`]) reorders matrix chains by the classic DP,
//!   pushes transposes into products and `1(e)` onto its row source,
//!   products against a diagonalized vector are fused into scaling
//!   kernels, a Hadamard product with a matrix product nothing else
//!   reads becomes one masked product, and a product with a loop's
//!   canonical vector becomes a row/column/entry selection, a placement or
//!   a point update at the loop's index; structurally identical
//!   subexpressions are hash-consed to a single node (CSE),
//!   loop-invariant nodes are identified, and a simple nnz/density cost
//!   model built from [`InstanceStats`] chooses a storage representation
//!   per node.  Every cost-based rewrite is recorded in the
//!   [`PlanReport`].
//! * [`Executor`] evaluates the DAG with one memoized result per shared or
//!   loop-invariant node, dropping cache entries precisely when a loop
//!   rebinds a variable they depend on — so hoisting falls out of cache
//!   scoping.  Every kernel runs on the calling thread.
//! * [`Engine`] ties the two together, including **batched evaluation** of
//!   many queries over one instance with a shared node cache
//!   ([`Engine::evaluate_batch`]).
//!
//! Results agree with [`matlang_core::evaluate`] on every storage backend
//! — same values, same error cases (the `rewrite::simplify` pre-pass
//! is gated by [`constants_fold_exactly`] so its ℝ-based constant folding
//! never runs over a semiring where it would change results; the
//! cost-based rules are semiring identities whose reordering/dropping is
//! additionally gated on provable totality, so error discriminants and
//! their order are preserved too).  Chain reordering does change the
//! *association* of products, so over ℝ floating point the low-order bits
//! can differ when intermediates round — disable with
//! `Engine::builder().cost_rewrites(false)` for strict operation-order
//! parity.
//! The `engine_parity` test suite enforces agreement over the full
//! evaluator corpus and randomized expressions across the Boolean, ℕ and
//! tropical semirings.
//!
//! ```
//! use matlang_core::{Expr, FunctionRegistry, Instance};
//! use matlang_engine::Engine;
//! use matlang_matrix::Matrix;
//! use matlang_semiring::Real;
//!
//! // Σv. vᵀ·(GᵀG)·v — the Gram matrix is loop-invariant and computed once.
//! let gram = Expr::var("G").t().mm(Expr::var("G"));
//! let e = Expr::sum("v", "n", Expr::var("v").t().mm(gram).mm(Expr::var("v")));
//! let instance: Instance<Real> = Instance::new()
//!     .with_dim("n", 2)
//!     .with_matrix("G", Matrix::from_f64_rows(&[&[1.0, 2.0], &[0.0, 1.0]]).unwrap());
//! let out = Engine::new()
//!     .evaluate(&e, &instance, &FunctionRegistry::standard_field())
//!     .unwrap();
//! assert_eq!(out.as_scalar().unwrap(), Real(6.0));
//! ```

#![forbid(unsafe_code)]

pub mod delta;
pub mod exec;
pub mod plan;
pub mod planner;
pub mod rewrite;

pub use delta::{DeltaFallback, DeltaOverlay, DeltaReport};
pub use exec::{cache_residency, ExecOptions, ExecStats, Executor, NodeCache, NodeSample};
pub use plan::{
    AppliedRewrite, LoopIndex, NodeEstimate, NodeId, Plan, PlanNode, PlanOp, PlanReport,
    ReprChoice, VarSlot,
};
pub use planner::{InstanceStats, ObservedStats, PlanOptions, Planner, VarStats};
pub use rewrite::{rewrite_with_stats, RewriteOutcome};

use matlang_core::{EvalError, Expr, FunctionRegistry, Instance};
use matlang_matrix::MatrixStorage;
use matlang_semiring::Semiring;

/// A stable fingerprint of an expression's structure, suitable as the
/// query half of a plan-cache key (the instance half is
/// [`InstanceStats::schema_fingerprint`]).
///
/// The fingerprint hashes the expression's canonical textual form, which
/// `matlang_parser` guarantees round-trips (`parse(e.to_string()) == e`),
/// so two expressions collide exactly when they are structurally equal —
/// modulo ordinary 64-bit hash collisions — independently of how they were
/// built.
pub fn expr_fingerprint(expr: &Expr) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    expr.to_string().hash(&mut hasher);
    hasher.finish()
}

/// Whether `K` interprets literal constants compatibly with `f64`
/// arithmetic — the soundness condition for folding the
/// `matlang_core::rewrite` constant rules into a plan evaluated over `K`.
///
/// The rewriter folds `1 × e → e`, `c + d → c ⊕ d` and `c · d → c ⊙ d`
/// *in `f64`*; that is exact precisely when [`Semiring::from_f64`] maps
/// `0`/`1` to the semiring's identities and commutes with addition and
/// multiplication on arbitrary constants — including the negatives and
/// fractions the paper's derived expressions use (`minus` desugars to
/// `+ (−1) ×`, Csanky uses `1/2`).  The probe checks those identities on
/// sample points, so only faithful ℝ-embeddings (e.g. [`Real`]) pass;
/// the tropical semirings fail on `⊕ = min`, and 𝔹/ℕ/ℤ fail on negative
/// or fractional constants (`from_f64` saturates or rounds there, so
/// e.g. `1 + (−1)` must evaluate through the semiring, not fold to `0`).
/// [`Engine`] consults this so that planned evaluation is semantically
/// identical to [`matlang_core::evaluate`] over *every* exported
/// semiring, constants included.
///
/// [`Real`]: matlang_semiring::Real
pub fn constants_fold_exactly<K: Semiring>() -> bool {
    let c = |v: f64| K::from_f64(v);
    c(0.0).is_zero()
        && c(1.0).is_one()
        && c(2.0).add(&c(3.0)) == c(5.0)
        && c(2.0).mul(&c(3.0)) == c(6.0)
        && c(-1.0).mul(&c(3.0)) == c(-3.0)
        && c(1.0).add(&c(-1.0)) == c(0.0)
        && c(0.5).mul(&c(2.0)) == c(1.0)
}

/// The result of a batched evaluation: per-query results and cache
/// statistics, plus the planner's report for the whole batch.
#[derive(Debug)]
pub struct BatchOutcome<M> {
    /// One result per query, in input order.  A failing query occupies its
    /// slot without aborting the rest of the batch.
    pub results: Vec<Result<M, EvalError>>,
    /// Cache counters attributed to each query.
    pub per_query: Vec<ExecStats>,
    /// Totals across the batch.
    pub stats: ExecStats,
    /// What the planner did with the batch.
    pub report: PlanReport,
}

/// Planner + executor behind one convenience façade.
///
/// An `Engine` is cheap to construct and stateless across calls; the node
/// cache lives for one [`evaluate`](Engine::evaluate) or
/// [`evaluate_batch`](Engine::evaluate_batch) call (batches share it across
/// their queries).  For finer control — reusing a [`Plan`], inspecting
/// [`PlanReport`], driving roots manually — use [`Planner`] and
/// [`Executor`] directly.
#[derive(Clone, Debug, Default)]
pub struct Engine {
    /// Planning configuration (simplification, cost rewrites).
    pub plan_options: PlanOptions,
    /// Execution configuration (profiling).
    pub exec_options: ExecOptions,
}

impl Engine {
    /// An engine with default options: simplification and cost rewrites
    /// on, profiling off.
    pub fn new() -> Self {
        Engine::default()
    }

    /// A typed builder over the engine options — cost rewrites and
    /// simplification:
    ///
    /// ```
    /// use matlang_engine::Engine;
    /// let engine = Engine::builder()
    ///     .cost_rewrites(false)
    ///     .build();
    /// assert!(!engine.plan_options.cost_rewrites);
    /// ```
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// Plans `queries` against `instance`'s statistics without executing.
    ///
    /// The `rewrite::simplify` pre-pass runs only when it is enabled in
    /// [`PlanOptions`] **and** [`constants_fold_exactly`] holds for `K` —
    /// over semirings whose constants do not embed ℝ-compatibly (the
    /// tropical family, 𝔹/ℕ/ℤ with negative or fractional literals) the
    /// pass is skipped automatically, so planned evaluation always agrees
    /// with the tree evaluator.
    pub fn plan<K: Semiring, M: MatrixStorage<Elem = K>>(
        &self,
        queries: &[Expr],
        instance: &Instance<K, M>,
    ) -> Plan {
        let mut options = self.plan_options.clone();
        options.simplify = options.simplify && constants_fold_exactly::<K>();
        Planner::with_options(options).plan(queries, &InstanceStats::from_instance(instance))
    }

    /// Plans `queries` against **explicit** statistics — the adaptive
    /// re-planning entry point.  Same per-semiring simplify gating as
    /// [`Engine::plan`] (which is why `K` appears even though no instance
    /// is passed), but the caller supplies the [`InstanceStats`] — e.g.
    /// freshly re-collected after updates — and an [`ObservedStats`] store
    /// of execution truth for the planner to consult over its estimates.
    /// Pass `&ObservedStats::default()` to plan purely from the model.
    pub fn plan_with_stats<K: Semiring>(
        &self,
        queries: &[Expr],
        stats: &InstanceStats,
        observed: &ObservedStats,
    ) -> Plan {
        let mut options = self.plan_options.clone();
        options.simplify = options.simplify && constants_fold_exactly::<K>();
        Planner::with_options(options).plan_with_observed(queries, stats, observed)
    }

    /// Plans and evaluates a single expression.  Semantically identical to
    /// [`matlang_core::evaluate`]; faster whenever the expression has
    /// shared subexpressions or loop-invariant subterms.
    pub fn evaluate<K: Semiring, M: MatrixStorage<Elem = K>>(
        &self,
        expr: &Expr,
        instance: &Instance<K, M>,
        registry: &FunctionRegistry<K>,
    ) -> Result<M, EvalError> {
        let plan = self.plan(std::slice::from_ref(expr), instance);
        let root = plan.roots()[0];
        Executor::new(&plan, instance, registry, self.exec_options).run(root)
    }

    /// Plans and evaluates a batch of queries over one instance with a
    /// shared node cache: subterms common to several queries are computed
    /// once for the whole batch.
    pub fn evaluate_batch<K: Semiring, M: MatrixStorage<Elem = K>>(
        &self,
        queries: &[Expr],
        instance: &Instance<K, M>,
        registry: &FunctionRegistry<K>,
    ) -> BatchOutcome<M> {
        let plan = self.plan(queries, instance);
        let mut exec = Executor::new(&plan, instance, registry, self.exec_options);
        let (results, per_query) = exec.run_all();
        BatchOutcome {
            results,
            per_query,
            stats: exec.stats(),
            report: plan.report,
        }
    }
}

/// Builds an [`Engine`] from named options.  Every setter has the
/// default-on semantics of [`PlanOptions`] / [`ExecOptions`]; unset fields
/// keep their defaults.
#[derive(Clone, Debug, Default)]
pub struct EngineBuilder {
    engine: Engine,
}

impl EngineBuilder {
    /// Enables/disables the cost-based rewrite layer
    /// ([`PlanOptions::cost_rewrites`], default `true`).
    pub fn cost_rewrites(mut self, enabled: bool) -> Self {
        self.engine.plan_options.cost_rewrites = enabled;
        self
    }

    /// Enables/disables the `rewrite::simplify` pre-pass
    /// ([`PlanOptions::simplify`], default `true`).
    pub fn simplify(mut self, enabled: bool) -> Self {
        self.engine.plan_options.simplify = enabled;
        self
    }

    /// The configured engine.
    pub fn build(self) -> Engine {
        self.engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matlang_core::evaluate;
    use matlang_matrix::Matrix;
    use matlang_semiring::Real;

    #[test]
    fn engine_facade_matches_core_evaluate() {
        let e = Expr::sum(
            "v",
            "n",
            Expr::var("v").t().mm(Expr::var("G")).mm(Expr::var("v")),
        );
        let inst: Instance<Real> = Instance::new().with_dim("n", 3).with_matrix(
            "G",
            Matrix::from_f64_rows(&[&[1.0, 0.0, 2.0], &[0.0, 3.0, 0.0], &[4.0, 0.0, 5.0]]).unwrap(),
        );
        let registry = FunctionRegistry::standard_field();
        let engine = Engine::new();
        assert_eq!(
            engine.evaluate(&e, &inst, &registry).unwrap(),
            evaluate(&e, &inst, &registry).unwrap()
        );
        let outcome = engine.evaluate_batch(&[e.clone(), e], &inst, &registry);
        assert_eq!(outcome.results.len(), 2);
        assert_eq!(outcome.per_query.len(), 2);
        assert_eq!(outcome.report.queries, 2);
        // The second (identical) query is answered entirely from cache.
        assert_eq!(outcome.per_query[1].cache_misses, 0);
        assert!(outcome.per_query[1].cache_hits >= 1);
    }

    #[test]
    fn builder_covers_every_option() {
        let engine = Engine::builder()
            .simplify(false)
            .cost_rewrites(false)
            .build();
        assert!(!engine.plan_options.simplify);
        assert!(!engine.plan_options.cost_rewrites);
        // Defaults stay on when unset.
        let default = Engine::builder().build();
        assert!(default.plan_options.cost_rewrites);
        assert!(default.plan_options.simplify);
    }

    #[test]
    fn fingerprints_are_stable_and_discriminating() {
        let a = Expr::var("G").t().mm(Expr::var("G"));
        let b = Expr::var("G").t().mm(Expr::var("G"));
        let c = Expr::var("G").mm(Expr::var("G").t());
        assert_eq!(expr_fingerprint(&a), expr_fingerprint(&b));
        assert_ne!(expr_fingerprint(&a), expr_fingerprint(&c));

        let inst: Instance<Real> = Instance::new()
            .with_dim("n", 3)
            .with_matrix("G", Matrix::identity(3));
        let stats = InstanceStats::from_instance(&inst);
        let same = InstanceStats::from_instance(
            &Instance::<Real>::new()
                .with_dim("n", 3)
                // Different nnz, same shapes: same schema fingerprint.
                .with_matrix("G", Matrix::zeros(3, 3)),
        );
        let different = InstanceStats::from_instance(
            &Instance::<Real>::new()
                .with_dim("n", 4)
                .with_matrix("G", Matrix::identity(4)),
        );
        assert_eq!(stats.schema_fingerprint(), same.schema_fingerprint());
        assert_ne!(stats.schema_fingerprint(), different.schema_fingerprint());
    }

    #[test]
    fn constant_folding_probe_accepts_exactly_the_real_embeddings() {
        use matlang_semiring::{Boolean, MaxPlus, MinPlus, Nat};
        assert!(constants_fold_exactly::<Real>());
        // Tropical: ⊕ is min/max, so 2 + 3 must not fold to 5.
        assert!(!constants_fold_exactly::<MinPlus>());
        assert!(!constants_fold_exactly::<MaxPlus>());
        // 𝔹/ℕ: negative and fractional literals don't embed, so folds
        // like 1 + (−1) → 0 would change results.
        assert!(!constants_fold_exactly::<Boolean>());
        assert!(!constants_fold_exactly::<Nat>());
    }

    #[test]
    fn tropical_constants_are_not_folded_by_the_engine() {
        use matlang_semiring::MinPlus;
        // Over min-plus, `1 × G` adds 1 to every entry (⊙ is +) and
        // `2 + 3` is min(2, 3): both would change under ℝ-folding, so the
        // engine must skip the simplify pass and agree with the tree
        // evaluator exactly.
        let inst: Instance<MinPlus> = Instance::new()
            .with_dim("n", 1)
            .with_matrix("G", Matrix::scalar(MinPlus(4.0)));
        let registry = FunctionRegistry::<MinPlus>::new();
        let engine = Engine::new();
        for e in [
            Expr::lit(1.0).smul(Expr::var("G")),
            Expr::lit(2.0).add(Expr::lit(3.0)),
            Expr::lit(1.0).minus(Expr::var("G")),
        ] {
            let naive = evaluate(&e, &inst, &registry).unwrap();
            let planned = engine.evaluate(&e, &inst, &registry).unwrap();
            assert_eq!(naive, planned, "engine diverged on {e} over min-plus");
        }
        let folded = evaluate(&Expr::lit(2.0).add(Expr::lit(3.0)), &inst, &registry).unwrap();
        assert_eq!(folded.as_scalar().unwrap(), MinPlus(2.0), "⊕ is min");
    }
}
