//! The query planner: expression → hash-consed DAG plan.
//!
//! Planning is four deterministic steps:
//!
//! 1. **Simplify** — fold the algebraic rewriter
//!    ([`matlang_core::rewrite::simplify`]) into planning, recording the
//!    saved AST nodes ([`matlang_core::rewrite::savings`]) in the
//!    [`PlanReport`].
//! 2. **Hash-cons (CSE)** — intern every structurally distinct
//!    subexpression once; repeated subtrees (within a query *and across
//!    the queries of a batch*) share a [`NodeId`], so the executor computes
//!    them once.  Under the cost rewrites, a product with a loop's
//!    canonical vector is interned as a loop-index op instead
//!    ([`PlanOp::Select`], [`PlanOp::Place`], [`PlanOp::PointUpdate`]): the
//!    builder's scope knows which names a `for`/Σ/Π∘/Π binds until a `let`
//!    or an accumulator shadows them.
//! 3. **Hoisting analysis** — mark the nodes that sit inside a loop body
//!    but do not depend on the loop's bound variables; the executor's
//!    scoped memo keeps exactly those nodes alive across iterations.
//! 4. **Cost model** — propagate shape / non-zero-count estimates from
//!    [`InstanceStats`] bottom-up, choose a storage representation per node
//!    (density against the thresholds of [`matlang_matrix::repr`]).
//! 5. **Masked-product fusion** — once every query is in the DAG and each
//!    node's consumers are known, a Hadamard product with a matrix product
//!    nothing else reads becomes one [`PlanOp::MaskedMatMul`] when the cost
//!    model chose the sparse representation for both factors and the mask.

use crate::plan::{
    AppliedRewrite, ConstVal, LoopIndex, NodeEstimate, NodeId, Plan, PlanNode, PlanOp, PlanReport,
    ReprChoice, VarSlot,
};
use matlang_core::{rewrite, Dim, Expr, Instance, MatrixType};
use matlang_matrix::repr::{MIN_ADAPTIVE_ENTRIES, SPARSIFY_THRESHOLD};
use matlang_matrix::MatrixStorage;
use matlang_semiring::Semiring;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Planner configuration.
#[derive(Clone, Debug)]
pub struct PlanOptions {
    /// Run [`matlang_core::rewrite::simplify`] on every query before
    /// planning (default `true`).
    ///
    /// The rewriter's constant-handling rules interpret literals through
    /// `f64` arithmetic, which is exact only over semirings that embed ℝ
    /// faithfully.  [`Planner`] itself is semiring-agnostic and applies
    /// this flag as given; the typed [`crate::Engine`] front door
    /// additionally gates it on [`crate::constants_fold_exactly`], so
    /// engine evaluation never folds constants over a semiring where that
    /// would change results (tropical min/max-plus, 𝔹/ℕ/ℤ with negative
    /// or fractional literals).
    pub simplify: bool,
    /// Run the cost-based rewrite layer ([`crate::rewrite`]) on every
    /// query before building the DAG, fuse `diag(v) · A` / `A · diag(v)`
    /// products into the scaling kernels and `(A · B) ∘ M` into the masked
    /// product (default `true`).
    ///
    /// Unlike [`simplify`](PlanOptions::simplify), these rules are
    /// identities in every commutative semiring (no constants are
    /// interpreted), so no per-semiring gating is needed.  They do change
    /// the association of products, so over ℝ floating point the result
    /// can differ from the tree evaluator's in the low-order bits when
    /// intermediate values round; disable for strict operation-order
    /// parity.
    pub cost_rewrites: bool,
}

impl Default for PlanOptions {
    fn default() -> Self {
        PlanOptions {
            simplify: true,
            cost_rewrites: true,
        }
    }
}

/// Per-variable statistics of one instance matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct VarStats {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Number of non-zero entries.
    pub nnz: usize,
}

/// The instance summary the cost model plans against: size-symbol values
/// and per-matrix shape / non-zero counts.  Collecting it is `O(1)` per
/// matrix for the CSR and adaptive backends and `O(rows·cols)` for dense.
#[derive(Clone, Debug, Default)]
pub struct InstanceStats {
    /// Size-symbol assignments `D(γ) = n`.
    pub dims: BTreeMap<String, usize>,
    /// Per-matrix-variable statistics.
    pub vars: BTreeMap<String, VarStats>,
}

impl InstanceStats {
    /// No statistics at all: every node plans without an estimate.
    pub fn empty() -> Self {
        InstanceStats::default()
    }

    /// Collects statistics from an instance over any storage backend.
    pub fn from_instance<K: Semiring, M: MatrixStorage<Elem = K>>(
        instance: &Instance<K, M>,
    ) -> Self {
        let mut stats = InstanceStats::default();
        for (sym, n) in instance.dims() {
            stats.dims.insert(sym.clone(), n);
        }
        for (var, m) in instance.matrices() {
            stats.vars.insert(
                var.clone(),
                VarStats {
                    rows: m.rows(),
                    cols: m.cols(),
                    nnz: m.nnz(),
                },
            );
        }
        stats
    }

    /// A fingerprint of the instance's **schema-level** shape: size-symbol
    /// assignments plus per-variable dimensions, deliberately excluding
    /// non-zero counts.  Two instances with the same fingerprint produce
    /// mutually *valid* plans: the node set, roots and dependency index
    /// are functions of the queries and shapes alone, while nnz tunes the
    /// advisory representation hints **and**, with the
    /// cost-based rewrite layer, the chosen chain association and kernel
    /// fusions — every such variant evaluates identically over any
    /// same-schema instance, it is merely cost-tuned for the nnz profile
    /// it was planned against ([`crate::Plan::structure_fingerprint`]
    /// identifies the variant).  A plan cache — e.g. the query server's
    /// prepared-statement cache — can therefore key on `(query
    /// fingerprint, schema fingerprint)` and keep serving a cached plan
    /// across incremental instance updates.
    pub fn schema_fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        for (sym, n) in &self.dims {
            sym.hash(&mut hasher);
            n.hash(&mut hasher);
        }
        for (var, stats) in &self.vars {
            var.hash(&mut hasher);
            stats.rows.hash(&mut hasher);
            stats.cols.hash(&mut hasher);
        }
        hasher.finish()
    }

    pub(crate) fn dim(&self, sym: &str) -> Option<usize> {
        self.dims.get(sym).copied()
    }

    fn dim_value(&self, dim: &Dim) -> Option<usize> {
        match dim {
            Dim::One => Some(1),
            Dim::Sym(s) => self.dim(s),
        }
    }

    pub(crate) fn shape_of(&self, ty: &MatrixType) -> Option<(usize, usize)> {
        Some((self.dim_value(&ty.rows)?, self.dim_value(&ty.cols)?))
    }

    /// Overlays observed per-variable statistics: for every variable whose
    /// observed shape still matches this schema, the observed non-zero
    /// count replaces the estimate.  Observations whose shape disagrees
    /// (the schema changed since they were harvested) are ignored — they
    /// describe a matrix that no longer exists.  The
    /// [`schema_fingerprint`](InstanceStats::schema_fingerprint) is
    /// unaffected, since it deliberately excludes nnz.
    pub fn with_observed(mut self, observed: &ObservedStats) -> Self {
        for (var, obs) in &observed.vars {
            if let Some(est) = self.vars.get_mut(var) {
                if est.rows == obs.rows && est.cols == obs.cols {
                    est.nnz = obs.nnz;
                }
            }
        }
        self
    }
}

/// One binder in scope: the bound name, the advisory statistics of its
/// value (`None` when unknown — which also correctly shadows any instance
/// matrix of the same name), and whether it is a `for`/Σ/Π∘/Π iteration
/// variable, bound to a canonical vector until something shadows it.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) struct Binder {
    name: String,
    stats: Option<VarStats>,
    iterates: bool,
}

/// The binders in scope while an expression is walked, innermost last —
/// the planner's DAG builder and the cost-based rewriter each keep one.
#[derive(Clone, Debug, Default)]
pub(crate) struct Scope(Vec<Binder>);

impl Scope {
    /// Binds `name` to a value: a `let` or a loop's accumulator.
    pub(crate) fn push(&mut self, name: &str, stats: Option<VarStats>) {
        self.0.push(Binder {
            name: name.to_string(),
            stats,
            iterates: false,
        });
    }

    /// Binds a loop's iteration variable: a canonical vector of dimension
    /// `dim`, when the dimension is known.
    pub(crate) fn push_loop(&mut self, name: &str, dim: Option<usize>) {
        self.0.push(Binder {
            name: name.to_string(),
            stats: dim.map(|rows| VarStats {
                rows,
                cols: 1,
                nnz: 1,
            }),
            iterates: true,
        });
    }

    /// Unbinds the innermost binder.
    pub(crate) fn pop(&mut self) {
        self.0.pop();
    }

    /// The innermost binder of `name`.
    pub(crate) fn binder(&self, name: &str) -> Option<&Binder> {
        self.0.iter().rev().find(|b| b.name == name)
    }

    /// The statistics of `name`: its innermost binder's, else the instance
    /// matrix's.
    pub(crate) fn stats(&self, name: &str, instance: &InstanceStats) -> Option<VarStats> {
        match self.binder(name) {
            Some(b) => b.stats,
            None => instance.vars.get(name).copied(),
        }
    }

    /// Whether `name` is a loop's iteration variable here.
    pub(crate) fn iterates(&self, name: &str) -> bool {
        self.binder(name).is_some_and(|b| b.iterates)
    }

    /// The dimension of the canonical vector `name` is bound to, when its
    /// innermost binder is a loop over a known dimension.
    pub(crate) fn loop_dim(&self, name: &str) -> Option<usize> {
        let b = self.binder(name).filter(|b| b.iterates)?;
        b.stats.map(|s| s.rows)
    }
}

/// Interior-node observations are pruned back to the most recent plan's
/// fingerprints once the store exceeds this many entries, bounding memory
/// across arbitrarily many re-plans.
const MAX_NODE_OBSERVATIONS: usize = 4096;

/// Execution truth fed back into planning — the store behind adaptive
/// re-planning (ROADMAP item 3c).
///
/// After a plan executes, [`ObservedStats::absorb`] harvests the
/// executor's always-on per-node samples
/// ([`crate::Executor::observed_samples`]): the *actual* output shape and
/// non-zero count of every node that was computed.  Two views are kept:
///
/// * [`vars`](ObservedStats::vars) — per **variable** observations, for
///   reporting observed-vs-estimated drift (the query server's `STATS`
///   verb) and for overlaying onto an [`InstanceStats`] whose nnz may be
///   stale ([`InstanceStats::with_observed`]).
/// * [`nodes`](ObservedStats::nodes) — per **interior node**
///   observations, keyed by the structural fingerprint of the subtree
///   ([`crate::Plan::node_fingerprints`]).  The planner consults these
///   while building a new plan ([`Planner::plan_with_observed`]): a node
///   whose subtree was executed before gets its *observed* nnz instead of
///   the cost model's estimate, so representation choices — and every
///   parent estimate propagated from it — track reality.
///
/// Observations are advisory: they tune costs and representation hints,
/// never semantics, so a stale or mismatched observation can cost speed
/// but not correctness.  (A loop-bound variable shadowing an instance
/// matrix of the same name and shape can alias an observation — same
/// advisory-only caveat.)
#[derive(Clone, Debug, Default)]
pub struct ObservedStats {
    /// Per instance-variable observed statistics, as last executed.
    pub vars: BTreeMap<String, VarStats>,
    /// Interior-node observations keyed by structural fingerprint.
    pub nodes: BTreeMap<u64, VarStats>,
    /// How many executions have been absorbed.
    pub executions: u64,
}

impl ObservedStats {
    /// A store with no observations.
    pub fn new() -> Self {
        ObservedStats::default()
    }

    /// Whether nothing has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty() && self.nodes.is_empty()
    }

    /// Harvests one execution: for every plan node that was actually
    /// computed (`sample.computed > 0`; cache hits carry no fresh truth),
    /// records its observed shape/nnz under the node's structural
    /// fingerprint, and additionally under the variable name for `Var`
    /// nodes.  `samples` is [`crate::Executor::observed_samples`] and must
    /// be parallel to `plan.nodes()`; extra or missing slots are ignored.
    pub fn absorb(&mut self, plan: &crate::Plan, samples: &[crate::NodeSample]) {
        let fps = plan.node_fingerprints();
        for ((node, sample), fp) in plan.nodes().iter().zip(samples).zip(&fps) {
            if sample.computed == 0 {
                continue;
            }
            let stats = VarStats {
                rows: sample.rows,
                cols: sample.cols,
                nnz: sample.nnz as usize,
            };
            if let PlanOp::Var(name, _) = &node.op {
                self.vars.insert(name.clone(), stats);
            }
            self.nodes.insert(*fp, stats);
        }
        if self.nodes.len() > MAX_NODE_OBSERVATIONS {
            let keep: std::collections::BTreeSet<u64> = fps.into_iter().collect();
            self.nodes.retain(|fp, _| keep.contains(fp));
        }
        self.executions += 1;
    }
}

/// Compiles type-checked expressions into DAG-shaped [`Plan`]s.
#[derive(Clone, Debug, Default)]
pub struct Planner {
    /// The planning configuration.
    pub options: PlanOptions,
}

impl Planner {
    /// A planner with default options.
    pub fn new() -> Self {
        Planner::default()
    }

    /// A planner with explicit options.
    pub fn with_options(options: PlanOptions) -> Self {
        Planner { options }
    }

    /// Plans a batch of queries against one instance summary.  The
    /// returned plan has one root per query, in order; structurally
    /// identical subexpressions are shared across the whole batch.
    pub fn plan(&self, queries: &[Expr], stats: &InstanceStats) -> Plan {
        self.plan_with_observed(queries, stats, &ObservedStats::default())
    }

    /// Plans like [`Planner::plan`], additionally consulting observed
    /// execution statistics: any node whose structural fingerprint has an
    /// observation with a matching shape takes the **observed** nnz in
    /// place of the cost model's estimate, re-deriving its representation
    /// choice from the observed density, and parent estimates propagate
    /// from the corrected value.  This is the feedback half of adaptive
    /// re-planning — chain association (via the caller refreshing
    /// `stats`) and dense/CSR choices track executed reality instead of
    /// the model.
    pub fn plan_with_observed(
        &self,
        queries: &[Expr],
        stats: &InstanceStats,
        observed: &ObservedStats,
    ) -> Plan {
        let _plan_span = matlang_obs::trace::span("plan");
        let plan_timer = matlang_obs::enabled().then(std::time::Instant::now);
        let mut report = PlanReport {
            queries: queries.len(),
            trace_id: matlang_obs::trace::current_id(),
            ..PlanReport::default()
        };
        let mut builder = Builder {
            stats,
            observed,
            options: &self.options,
            nodes: Vec::new(),
            fingerprints: Vec::new(),
            dedup: HashMap::new(),
            slots: HashMap::new(),
            scope: Scope::default(),
            loops: Vec::new(),
            fused: Vec::new(),
        };
        let mut roots = Vec::with_capacity(queries.len());
        for query in queries {
            let mut planned = if self.options.simplify {
                // `rewrite::savings`, without simplifying a second time.
                let simplified = rewrite::simplify(query);
                report.simplify_savings += query.size().saturating_sub(simplified.size());
                simplified
            } else {
                query.clone()
            };
            if self.options.cost_rewrites {
                let rewrite_span = matlang_obs::trace::span("rewrite");
                let outcome = crate::rewrite::rewrite_with_stats(&planned, stats);
                for applied in &outcome.applied {
                    matlang_obs::trace::event(format!("rewrite:{}", applied.rule));
                }
                drop(rewrite_span);
                report.rewrites.extend(outcome.applied);
                planned = outcome.expr;
            }
            report.tree_nodes += planned.size();
            roots.push(builder.build(&planned));
        }
        if self.options.cost_rewrites {
            builder.fuse_masked_products(&mut roots);
        }
        report.rewrites.append(&mut builder.fused);
        let mut nodes = builder.nodes;
        let slots = builder.slots;
        let mut dependents: Vec<Vec<NodeId>> = vec![Vec::new(); slots.len()];
        for (id, node) in nodes.iter_mut().enumerate() {
            node.cacheable = node.refs > 1 || node.hoistable;
            if node.refs > 1 {
                report.shared_nodes += 1;
            }
            if node.hoistable {
                report.hoistable_nodes += 1;
            }
            match node.est.map(|e| e.choice) {
                Some(ReprChoice::Dense) => report.dense_nodes += 1,
                Some(ReprChoice::Sparse) => report.sparse_nodes += 1,
                None => {}
            }
            if matches!(
                node.op,
                PlanOp::ScaleRows { .. } | PlanOp::ScaleCols { .. } | PlanOp::MaskedMatMul { .. }
            ) {
                report.fused_products += 1;
            }
            if node.op.supports_delta() {
                report.delta_supported_nodes += 1;
            }
            for var in &node.free_vars {
                // Free variables stem from `Var` operations, whose names
                // were interned when they were built.
                dependents[slots[var]].push(id);
            }
        }
        report.dag_nodes = nodes.len();
        if let Some(t) = plan_timer {
            matlang_obs::counter!("plan_total").inc();
            matlang_obs::histogram!("plan_latency_us").observe(t.elapsed().as_micros() as u64);
        }
        Plan {
            nodes,
            roots,
            slots,
            dependents,
            report,
        }
    }

    /// Plans a single query; see [`Planner::plan`].
    pub fn plan_one(&self, query: &Expr, stats: &InstanceStats) -> Plan {
        self.plan(std::slice::from_ref(query), stats)
    }
}

/// The dedup key for hash-consing: the operation plus the advisory
/// statistics of its scope-bound free variables.  The statistics part
/// keeps structurally identical subexpressions *distinct* when variable
/// shadowing gives the same name different shapes in different scopes —
/// otherwise the first-interned occurrence's cost estimate would silently
/// misdrive representation choices for the others.  When
/// the scopes agree (the overwhelmingly common case, e.g. the same loop
/// variable name over the same dimension) the keys collide and the nodes
/// share, which is exactly what CSE wants.  The binder kind is part of the
/// key too: a loop's canonical vector and a `let`-bound vector of the same
/// name and shape are different values to the loop-index ops.
type DedupKey = (PlanOp, Vec<Binder>);

/// A loop's iteration variable as a product operand, with the dimension of
/// the canonical vector it is bound to.
type LoopOperand = (LoopIndex, usize);

struct Builder<'a> {
    stats: &'a InstanceStats,
    observed: &'a ObservedStats,
    options: &'a PlanOptions,
    nodes: Vec<PlanNode>,
    /// Structural fingerprint of every interned node, parallel to
    /// `nodes` — children-first interning means a node's children are
    /// always fingerprinted before the node itself.
    fingerprints: Vec<u64>,
    dedup: HashMap<DedupKey, NodeId>,
    /// Every variable name seen so far → its dense slot, in first-seen
    /// order.
    slots: HashMap<String, VarSlot>,
    /// Bound loop/let variables in scope.
    scope: Scope,
    /// The enclosing loops' bound-variable names, innermost last.
    loops: Vec<Vec<String>>,
    /// Diag-pushdown, loop-index and masked-product fusions performed while
    /// building, merged into [`PlanReport::rewrites`] afterwards.
    fused: Vec<AppliedRewrite>,
}

impl Builder<'_> {
    /// The slot of `name`, interning it on first sight.
    fn slot(&mut self, name: &str) -> VarSlot {
        if let Some(&slot) = self.slots.get(name) {
            return slot;
        }
        let slot = self.slots.len();
        self.slots.insert(name.to_string(), slot);
        slot
    }

    fn build(&mut self, expr: &Expr) -> NodeId {
        match expr {
            Expr::Var(name) => {
                let slot = self.slot(name);
                self.intern(PlanOp::Var(name.clone(), slot))
            }
            Expr::Const(c) => self.intern(PlanOp::Const(ConstVal(*c))),
            Expr::Transpose(e) => {
                let a = self.build(e);
                self.intern(PlanOp::Transpose(a))
            }
            Expr::Ones(e) => {
                let a = self.build(e);
                self.intern(PlanOp::Ones(a))
            }
            Expr::Diag(e) => {
                let a = self.build(e);
                self.intern(PlanOp::Diag(a))
            }
            Expr::MatMul(a, b) => {
                // Loop-index lowering, then diag pushdown: fuse
                // `diag(v) · B` / `A · diag(v)` into the scaling kernels
                // when the statistics certify the shapes (so the fused
                // kernel cannot hit an error case the unfused product would
                // not).  Child build order matches the unfused product's
                // evaluation order exactly.
                if self.options.cost_rewrites {
                    if let Some(id) = self.lower_loop_product(a, b) {
                        return id;
                    }
                    if let Expr::Diag(v) = a.as_ref() {
                        let vec = self.build(v);
                        let mat = self.build(b);
                        if let Some(op) = self.try_fuse_diag(vec, mat, true) {
                            return op;
                        }
                        let diag = self.intern(PlanOp::Diag(vec));
                        return self.intern(PlanOp::MatMul(diag, mat));
                    }
                    if let Expr::Diag(v) = b.as_ref() {
                        let mat = self.build(a);
                        let vec = self.build(v);
                        if let Some(op) = self.try_fuse_diag(vec, mat, false) {
                            return op;
                        }
                        let diag = self.intern(PlanOp::Diag(vec));
                        return self.intern(PlanOp::MatMul(mat, diag));
                    }
                }
                let (a, b) = (self.build(a), self.build(b));
                self.intern(PlanOp::MatMul(a, b))
            }
            Expr::Add(a, b) => {
                if self.options.cost_rewrites {
                    if let Some(id) = self.lower_point_update(a, b) {
                        return id;
                    }
                }
                let (a, b) = (self.build(a), self.build(b));
                self.intern(PlanOp::Add(a, b))
            }
            Expr::ScalarMul(a, b) => {
                let (a, b) = (self.build(a), self.build(b));
                self.intern(PlanOp::ScalarMul(a, b))
            }
            Expr::Hadamard(a, b) => {
                let (a, b) = (self.build(a), self.build(b));
                self.intern(PlanOp::Hadamard(a, b))
            }
            Expr::Apply(name, args) => {
                let args: Vec<NodeId> = args.iter().map(|a| self.build(a)).collect();
                self.intern(PlanOp::Apply(name.clone(), args))
            }
            Expr::Let { var, value, body } => {
                let value_id = self.build(value);
                let value_stats = self.nodes[value_id].est.map(|e| VarStats {
                    rows: e.rows,
                    cols: e.cols,
                    nnz: e.nnz.round() as usize,
                });
                self.scope.push(var, value_stats);
                let body_id = self.build(body);
                self.scope.pop();
                let var_slot = self.slot(var);
                self.intern(PlanOp::Let {
                    var: var.clone(),
                    var_slot,
                    value: value_id,
                    body: body_id,
                })
            }
            Expr::For {
                var,
                var_dim,
                acc,
                acc_type,
                init,
                body,
            } => {
                let init_id = init.as_ref().map(|e| self.build(e));
                let acc_stats = self.stats.shape_of(acc_type).map(|(rows, cols)| VarStats {
                    rows,
                    cols,
                    nnz: rows * cols,
                });
                self.scope.push_loop(var, self.stats.dim(var_dim));
                self.scope.push(acc, acc_stats);
                self.loops.push(vec![var.clone(), acc.clone()]);
                let body_id = self.build(body);
                self.loops.pop();
                self.scope.pop();
                self.scope.pop();
                let (var_slot, acc_slot) = (self.slot(var), self.slot(acc));
                self.intern(PlanOp::For {
                    var: var.clone(),
                    var_slot,
                    var_dim: var_dim.clone(),
                    acc: acc.clone(),
                    acc_slot,
                    acc_type: acc_type.clone(),
                    init: init_id,
                    body: body_id,
                })
            }
            Expr::Sum { var, var_dim, body } => {
                let (var_slot, body) = self.build_loop_body(var, var_dim, body);
                self.intern(PlanOp::Sum {
                    var: var.clone(),
                    var_slot,
                    var_dim: var_dim.clone(),
                    body,
                })
            }
            Expr::HProd { var, var_dim, body } => {
                let (var_slot, body) = self.build_loop_body(var, var_dim, body);
                self.intern(PlanOp::HProd {
                    var: var.clone(),
                    var_slot,
                    var_dim: var_dim.clone(),
                    body,
                })
            }
            Expr::MProd { var, var_dim, body } => {
                let (var_slot, body) = self.build_loop_body(var, var_dim, body);
                self.intern(PlanOp::MProd {
                    var: var.clone(),
                    var_slot,
                    var_dim: var_dim.clone(),
                    body,
                })
            }
        }
    }

    /// Builds a Σ/Π body under its loop variable's scope, returning the
    /// variable's slot and the body node.
    fn build_loop_body(&mut self, var: &str, var_dim: &str, body: &Expr) -> (VarSlot, NodeId) {
        self.scope.push_loop(var, self.stats.dim(var_dim));
        self.loops.push(vec![var.to_string()]);
        let body_id = self.build(body);
        self.loops.pop();
        self.scope.pop();
        (self.slot(var), body_id)
    }

    /// `e` as a loop operand — `v`, or `vᵀ` when `transposed` — when `v` is
    /// a loop's iteration variable over a known dimension here.
    fn loop_operand(&mut self, e: &Expr, transposed: bool) -> Option<LoopOperand> {
        let e = match (e, transposed) {
            (Expr::Transpose(inner), true) => inner.as_ref(),
            (e, false) => e,
            _ => return None,
        };
        let Expr::Var(name) = e else {
            return None;
        };
        let dim = self.scope.loop_dim(name)?;
        let slot = self.slot(name);
        Some((
            LoopIndex {
                var: name.clone(),
                slot,
            },
            dim,
        ))
    }

    /// Loop-index lowering of the product `a · b` when an operand is a
    /// loop's canonical vector `v`/`w` (see [`PlanOp::Select`] and
    /// [`PlanOp::Place`]):
    ///
    /// * `vᵀ·M·w`, either association → one entry of `M`;
    /// * `v·wᵀ` → the unit matrix;
    /// * `vᵀ·M` → row `v` of `M`; `M·w` → column `w` of `M`;
    /// * `v·y` → the row `y` placed as row `v`; `x·wᵀ` → the column `x`
    ///   placed as column `w`.
    ///
    /// `None` when neither operand is one, so the product builds as usual.
    fn lower_loop_product(&mut self, a: &Expr, b: &Expr) -> Option<NodeId> {
        let (row, col) = (self.loop_operand(a, true), self.loop_operand(b, false));
        if let (Expr::MatMul(l, m), Some(w)) = (a, &col) {
            if let Some(v) = self.loop_operand(l, true) {
                return Some(self.lower_index(m, Some(v), Some(w.clone()), false));
            }
        }
        if let (Some(v), Expr::MatMul(m, r)) = (&row, b) {
            if let Some(w) = self.loop_operand(r, false) {
                return Some(self.lower_index(m, Some(v.clone()), Some(w), false));
            }
        }
        let (placed_row, placed_col) = (self.loop_operand(a, false), self.loop_operand(b, true));
        Some(match (row, col, placed_row, placed_col) {
            (_, _, Some(v), Some(w)) => self.unit(v, w),
            (Some(v), ..) => self.lower_index(b, Some(v), None, false),
            (_, Some(w), ..) => self.lower_index(a, None, Some(w), false),
            (_, _, Some(v), _) => self.lower_index(b, Some(v), None, true),
            (_, _, _, Some(w)) => self.lower_index(a, None, Some(w), true),
            _ => return None,
        })
    }

    /// Interns `vᵀ·x·w` as a [`PlanOp::Select`] — or, with `place`, `v·x·wᵀ`
    /// as a [`PlanOp::Place`] — either factor absent, when `x`'s estimate
    /// certifies the shapes, so the index op cannot fail where the products
    /// would not.  Otherwise interns the unfused products around the built
    /// `x`.
    fn lower_index(
        &mut self,
        x: &Expr,
        row: Option<LoopOperand>,
        col: Option<LoopOperand>,
        place: bool,
    ) -> NodeId {
        let x = self.build(x);
        // Selecting needs `x` to span the vectors' dimensions; placing
        // needs it to be a row (for `v·x`) or a column (for `x·wᵀ`).
        let fits = |factor: &Option<LoopOperand>, have: usize| {
            factor
                .as_ref()
                .map_or(true, |(_, dim)| have == if place { 1 } else { *dim })
        };
        let Some(e) = self.nodes[x]
            .est
            .filter(|e| fits(&row, e.rows) && fits(&col, e.cols))
        else {
            let mut id = x;
            if let Some((v, _)) = row {
                let v = self.canonical_operand(v, !place);
                id = self.intern(PlanOp::MatMul(v, id));
            }
            if let Some((w, _)) = col {
                let w = self.canonical_operand(w, place);
                id = self.intern(PlanOp::MatMul(id, w));
            }
            return id;
        };
        // The saving: the own work of the first unfused product, `x` with a
        // one-entry canonical vector, in the planner's cost model.
        let x_est = (e.rows, e.cols, e.nnz);
        let (_, saving) = match (&row, &col) {
            (Some((_, n)), _) => {
                product_cost(if place { (*n, 1, 1.0) } else { (1, *n, 1.0) }, x_est)
            }
            (None, Some((_, n))) => {
                product_cost(x_est, if place { (1, *n, 1.0) } else { (*n, 1, 1.0) })
            }
            (None, None) => unreachable!("a lowered product has a canonical factor"),
        };
        let (row, col) = (row.map(|(v, _)| v), col.map(|(w, _)| w));
        let op = if place {
            PlanOp::Place {
                vec: Some(x),
                row,
                col,
            }
        } else {
            PlanOp::Select { mat: x, row, col }
        };
        self.record_loop_index(&op, (e.rows, e.cols), saving);
        self.intern(op)
    }

    /// The unit matrix `v·wᵀ` as a [`PlanOp::Place`] without an operand —
    /// the product of an `n × 1` and a `1 × m` vector is always defined.
    fn unit(&mut self, v: LoopOperand, w: LoopOperand) -> NodeId {
        let op = PlanOp::Place {
            vec: None,
            row: Some(v.0),
            col: Some(w.0),
        };
        let (_, saving) = product_cost((v.1, 1, 1.0), (1, w.1, 1.0));
        self.record_loop_index(&op, (v.1, w.1), saving);
        self.intern(op)
    }

    /// Loop-index lowering of `x + s × (v·wᵀ)`: a [`PlanOp::PointUpdate`] of
    /// `x` when the estimates certify `x` is `n × m` and `s` a scalar,
    /// otherwise `x` plus the scaled unit matrix.  `None` when `update` is
    /// not such a product, so the sum builds as usual.
    fn lower_point_update(&mut self, x: &Expr, update: &Expr) -> Option<NodeId> {
        let Expr::ScalarMul(s, unit) = update else {
            return None;
        };
        let Expr::MatMul(v, wt) = unit.as_ref() else {
            return None;
        };
        let (v, w) = (self.loop_operand(v, false)?, self.loop_operand(wt, true)?);
        let (mat, scalar) = (self.build(x), self.build(s));
        let certified = matches!(
            (self.nodes[mat].est, self.nodes[scalar].est),
            (Some(m), Some(s)) if (m.rows, m.cols) == (v.1, w.1) && (s.rows, s.cols) == (1, 1)
        );
        if !certified {
            let unit = self.unit(v, w);
            let scaled = self.intern(PlanOp::ScalarMul(scalar, unit));
            return Some(self.intern(PlanOp::Add(mat, scaled)));
        }
        let op = PlanOp::PointUpdate {
            mat,
            scalar,
            row: v.0,
            col: w.0,
        };
        let (_, saving) = product_cost((v.1, 1, 1.0), (1, w.1, 1.0));
        self.record_loop_index(&op, (v.1, w.1), saving);
        Some(self.intern(op))
    }

    /// The `Var` node of a loop operand, transposed when asked — the
    /// unfused product's operand where a lowering is not certified.
    fn canonical_operand(&mut self, index: LoopIndex, transposed: bool) -> NodeId {
        let var = self.intern(PlanOp::Var(index.var, index.slot));
        if transposed {
            self.intern(PlanOp::Transpose(var))
        } else {
            var
        }
    }

    /// Records one loop-index lowering in the plan report; `saving` is the
    /// own work of the first unfused product it replaces.
    fn record_loop_index(&mut self, op: &PlanOp, (rows, cols): (usize, usize), saving: f64) {
        self.fused.push(AppliedRewrite {
            rule: "loop-index",
            detail: format!(
                "[{rows}×{cols}] product with a loop's canonical vector → {}",
                op.label()
            ),
            saving,
        });
    }

    /// Interns the fused scaling node for `diag(vec) · mat` (`row_side`)
    /// or `mat · diag(vec)` when the estimates certify that `vec` is a
    /// vector of the matching dimension — the condition under which the
    /// fused kernel is value- and error-equivalent to the unfused
    /// product.  Returns `None` (caller falls back to `Diag` + `MatMul`)
    /// when the statistics cannot certify the shapes.
    fn try_fuse_diag(&mut self, vec: NodeId, mat: NodeId, row_side: bool) -> Option<NodeId> {
        let (ve, me) = (self.nodes[vec].est?, self.nodes[mat].est?);
        if ve.cols != 1 {
            return None;
        }
        let matched = if row_side {
            ve.rows == me.rows
        } else {
            me.cols == ve.rows
        };
        if !matched {
            return None;
        }
        // Unfused: the cheaper product kernel against the materialized
        // diagonal; fused: one pass over the matrix's stored entries.
        let diag_est = NodeEstimate {
            rows: ve.rows,
            cols: ve.rows,
            ..ve
        };
        let (l, r) = if row_side {
            (diag_est, me)
        } else {
            (me, diag_est)
        };
        let (_, own_work) = product_cost((l.rows, l.cols, l.nnz), (r.rows, r.cols, r.nnz));
        let unfused = own_work + ve.nnz;
        let saving = (unfused - me.nnz).max(0.0);
        self.fused.push(AppliedRewrite {
            rule: "diag-pushdown",
            detail: if row_side {
                format!("diag(v) · [{}×{}] fused into row scaling", me.rows, me.cols)
            } else {
                format!(
                    "[{}×{}] · diag(v) fused into column scaling",
                    me.rows, me.cols
                )
            },
            saving,
        });
        let op = if row_side {
            PlanOp::ScaleRows { vec, mat }
        } else {
            PlanOp::ScaleCols { mat, vec }
        };
        Some(self.intern(op))
    }

    fn intern(&mut self, op: PlanOp) -> NodeId {
        let free_vars = self.free_vars_of(&op);
        let scope_sig: Vec<Binder> = free_vars
            .iter()
            .filter_map(|name| self.scope.binder(name).cloned())
            .collect();
        let key = (op, scope_sig);
        if let Some(&id) = self.dedup.get(&key) {
            self.nodes[id].refs += 1;
            self.mark_hoistable(id);
            return id;
        }
        let fingerprint = crate::plan::op_fingerprint(&key.0, &self.fingerprints);
        let est = self.estimate_with_observed(&key.0, fingerprint);
        let id = self.nodes.len();
        self.nodes.push(PlanNode {
            op: key.0.clone(),
            free_vars,
            refs: 1,
            hoistable: false,
            cacheable: false,
            est,
        });
        self.fingerprints.push(fingerprint);
        self.dedup.insert(key, id);
        self.mark_hoistable(id);
        id
    }

    /// The cost model's estimate for `op`, corrected by an observation of
    /// the subtree with this `fingerprint`.  Observed truth beats the
    /// model: when this exact subtree was executed before with the same
    /// output shape, take its measured nnz and re-derive the representation
    /// choice from the observed density.  Parent estimates then propagate
    /// from the corrected value.  Shape mismatches mean the schema changed
    /// since the observation — ignore those.
    fn estimate_with_observed(&self, op: &PlanOp, fingerprint: u64) -> Option<NodeEstimate> {
        match (self.estimate(op), self.observed.nodes.get(&fingerprint)) {
            (Some(e), Some(obs)) if obs.rows == e.rows && obs.cols == e.cols => {
                Some(finish(e.rows, e.cols, obs.nnz as f64, e.work))
            }
            // A node the model could not estimate at all (e.g. a variable
            // absent from the statistics) still gets an observed one.
            (None, Some(obs)) => Some(finish(obs.rows, obs.cols, obs.nnz as f64, obs.nnz as f64)),
            (e, _) => e,
        }
    }

    /// Masked-product fusion, a pass over the finished DAG: rewrites
    /// `Hadamard(MatMul(a, b), m)` / `Hadamard(m, MatMul(a, b))` into one
    /// [`PlanOp::MaskedMatMul`] when
    ///
    /// * the Hadamard is the product's only consumer — a product another
    ///   node or a root also reads is materialized anyway;
    /// * the estimates certify the shapes, so the fused kernel cannot hit an
    ///   error the operands' evaluation order would have hidden;
    /// * the estimates choose CSR for both factors and the mask — only three
    ///   CSR operands run the masked pass, with a dense one the kernel is
    ///   the unfused pair and fusing would only take the product out of the
    ///   cache and off the plan;
    /// * the product is not a loop-invariant whose mask mentions a rebound
    ///   variable the product does not: the executor keeps such a product
    ///   across iterations, and fusing would redo it in each.
    ///
    /// The orphaned product nodes are dropped and the DAG renumbered,
    /// `roots` included; nothing may be interned afterwards.
    fn fuse_masked_products(&mut self, roots: &mut [NodeId]) {
        let is_product = |id: NodeId| matches!(self.nodes[id].op, PlanOp::MatMul(..));
        let any_candidate = self.nodes.iter().any(|node| match node.op {
            PlanOp::Hadamard(l, r) => is_product(l) || is_product(r),
            _ => false,
        });
        // Most plans stop here, before anything is allocated.
        if !any_candidate {
            return;
        }
        let n = self.nodes.len();
        let mut consumers = vec![0usize; n];
        let children = self.nodes.iter().flat_map(|node| node.op.children());
        for child in children.chain(roots.iter().copied()) {
            consumers[child] += 1;
        }
        // Every name some loop or `let` of the plan rebinds.
        let rebound: BTreeSet<String> = self
            .nodes
            .iter()
            .flat_map(|node| match &node.op {
                PlanOp::For { var, acc, .. } => vec![var.clone(), acc.clone()],
                PlanOp::Let { var, .. }
                | PlanOp::Sum { var, .. }
                | PlanOp::HProd { var, .. }
                | PlanOp::MProd { var, .. } => vec![var.clone()],
                _ => Vec::new(),
            })
            .collect();
        let mut dead = vec![false; n];
        for id in 0..n {
            let PlanOp::Hadamard(l, r) = self.nodes[id].op else {
                continue;
            };
            let candidate = [(l, r, false), (r, l, true)].into_iter().find_map(
                |(product, mask, mask_on_left)| {
                    let PlanOp::MatMul(left, right) = self.nodes[product].op else {
                        return None;
                    };
                    let est = |id: NodeId| self.nodes[id].est;
                    let (le, re, me) = (est(left)?, est(right)?, est(mask)?);
                    let shapes_certified =
                        le.cols == re.rows && (le.rows, re.cols) == (me.rows, me.cols);
                    let kept_across_iterations = self.nodes[product].hoistable
                        && self.nodes[mask].free_vars.iter().any(|var| {
                            rebound.contains(var) && !self.nodes[product].free_vars.contains(var)
                        });
                    let all_sparse = [le, re, me].iter().all(|e| e.choice == ReprChoice::Sparse);
                    let fusable = consumers[product] == 1
                        && shapes_certified
                        && all_sparse
                        && !kept_across_iterations;
                    fusable.then_some((
                        product,
                        PlanOp::MaskedMatMul {
                            left,
                            right,
                            mask,
                            mask_on_left,
                        },
                    ))
                },
            );
            let Some((product, op)) = candidate else {
                continue;
            };
            // The Hadamard node keeps its fingerprint: a masked product is
            // fingerprinted as the pair it replaces.
            let fused = self
                .estimate_with_observed(&op, self.fingerprints[id])
                .expect("operand estimates were just certified");
            let unfused_work = self.nodes[id].est.map_or(fused.work, |e| e.work);
            self.fused.push(AppliedRewrite {
                rule: "masked-product",
                detail: format!(
                    "([{}×{}] product) ∘ mask fused into a masked product",
                    fused.rows, fused.cols
                ),
                saving: (unfused_work - fused.work).max(0.0),
            });
            self.nodes[id].op = op;
            dead[product] = true;
        }
        if !dead.contains(&true) {
            return;
        }
        let mut new_id = Vec::with_capacity(n);
        let mut next = 0;
        for &gone in &dead {
            new_id.push(next);
            next += usize::from(!gone);
        }
        let mut gone = dead.iter();
        self.nodes
            .retain(|_| !*gone.next().expect("one flag per node"));
        let mut gone = dead.iter();
        self.fingerprints
            .retain(|_| !*gone.next().expect("one flag per node"));
        for root in roots {
            *root = new_id[*root];
        }
        // Renumber, and re-derive every estimate above a masked product
        // from its new one.  A variable's or a placement's estimate came
        // from the scope it was interned under.
        for id in 0..self.nodes.len() {
            self.nodes[id].op.map_children(|child| new_id[child]);
            if !matches!(self.nodes[id].op, PlanOp::Var(..) | PlanOp::Place { .. }) {
                self.nodes[id].est =
                    self.estimate_with_observed(&self.nodes[id].op, self.fingerprints[id]);
            }
        }
    }

    /// Marks `id` loop-invariant when it occurs inside a loop body and is
    /// independent of the innermost loop's bound variables.
    fn mark_hoistable(&mut self, id: NodeId) {
        if let Some(innermost) = self.loops.last() {
            let invariant = innermost
                .iter()
                .all(|bound| !self.nodes[id].free_vars.contains(bound));
            if invariant {
                self.nodes[id].hoistable = true;
            }
        }
    }

    fn free_vars_of(&self, op: &PlanOp) -> BTreeSet<String> {
        let of = |id: &NodeId| self.nodes[*id].free_vars.clone();
        match op {
            PlanOp::Var(name, _) => BTreeSet::from([name.clone()]),
            PlanOp::Const(_) => BTreeSet::new(),
            PlanOp::Transpose(a) | PlanOp::Ones(a) | PlanOp::Diag(a) => of(a),
            PlanOp::MatMul(a, b)
            | PlanOp::Add(a, b)
            | PlanOp::ScalarMul(a, b)
            | PlanOp::Hadamard(a, b)
            | PlanOp::ScaleRows { vec: a, mat: b }
            | PlanOp::ScaleCols { mat: a, vec: b } => {
                let mut out = of(a);
                out.extend(of(b));
                out
            }
            PlanOp::MaskedMatMul {
                left, right, mask, ..
            } => {
                let mut out = of(left);
                out.extend(of(right));
                out.extend(of(mask));
                out
            }
            PlanOp::Select { .. } | PlanOp::Place { .. } | PlanOp::PointUpdate { .. } => {
                let mut out: BTreeSet<String> = op.children().iter().flat_map(of).collect();
                out.extend(op.loop_indices().map(|index| index.var.clone()));
                out
            }
            PlanOp::Apply(_, args) => {
                let mut out = BTreeSet::new();
                for a in args {
                    out.extend(of(a));
                }
                out
            }
            PlanOp::Let {
                var, value, body, ..
            } => {
                let mut out = of(body);
                out.remove(var);
                out.extend(of(value));
                out
            }
            PlanOp::For {
                var,
                acc,
                init,
                body,
                ..
            } => {
                let mut out = of(body);
                out.remove(var);
                out.remove(acc);
                if let Some(init) = init {
                    out.extend(of(init));
                }
                out
            }
            PlanOp::Sum { var, body, .. }
            | PlanOp::HProd { var, body, .. }
            | PlanOp::MProd { var, body, .. } => {
                let mut out = of(body);
                out.remove(var);
                out
            }
        }
    }

    fn estimate(&self, op: &PlanOp) -> Option<NodeEstimate> {
        let est = |id: &NodeId| self.nodes[*id].est;
        match op {
            PlanOp::Var(name, _) => {
                let s = self.scope.stats(name, self.stats)?;
                Some(finish(s.rows, s.cols, s.nnz as f64, 0.0))
            }
            PlanOp::Const(_) => Some(finish(1, 1, 1.0, 0.0)),
            PlanOp::Transpose(a) => {
                let a = est(a)?;
                Some(finish(a.cols, a.rows, a.nnz, a.work + a.nnz))
            }
            PlanOp::Ones(a) => {
                let a = est(a)?;
                Some(finish(a.rows, 1, a.rows as f64, a.work))
            }
            PlanOp::Diag(a) => {
                let a = est(a)?;
                Some(finish(a.rows, a.rows, a.nnz, a.work))
            }
            PlanOp::MatMul(l, r) => {
                let (l, r) = (est(l)?, est(r)?);
                if l.cols != r.rows {
                    return None;
                }
                let (nnz, own_work) =
                    product_cost((l.rows, l.cols, l.nnz), (r.rows, r.cols, r.nnz));
                Some(finish(l.rows, r.cols, nnz, l.work + r.work + own_work))
            }
            PlanOp::Add(l, r) => {
                let (l, r) = (est(l)?, est(r)?);
                let nnz = l.nnz + r.nnz;
                Some(finish(l.rows, l.cols, nnz, l.work + r.work + nnz))
            }
            PlanOp::ScalarMul(l, r) => {
                let (l, r) = (est(l)?, est(r)?);
                Some(finish(r.rows, r.cols, r.nnz, l.work + r.work + r.nnz))
            }
            PlanOp::Hadamard(l, r) => {
                let (l, r) = (est(l)?, est(r)?);
                let nnz = l.nnz.min(r.nnz);
                Some(finish(l.rows, l.cols, nnz, l.work + r.work + nnz))
            }
            PlanOp::ScaleRows { vec, mat } | PlanOp::ScaleCols { mat, vec } => {
                let (v, m) = (est(vec)?, est(mat)?);
                // One pass over the matrix's stored entries; rows whose
                // scale entry is absent drop out of the result.
                let scale_frac = if v.rows > 0 {
                    (v.nnz / v.rows as f64).min(1.0)
                } else {
                    0.0
                };
                Some(finish(
                    m.rows,
                    m.cols,
                    m.nnz * scale_frac,
                    v.work + m.work + m.nnz,
                ))
            }
            PlanOp::MaskedMatMul {
                left, right, mask, ..
            } => {
                let (l, r, m) = (est(left)?, est(right)?, est(mask)?);
                if l.cols != r.rows {
                    return None;
                }
                let (nnz, own_work) =
                    product_cost((l.rows, l.cols, l.nnz), (r.rows, r.cols, r.nnz));
                // The kernel still visits every term of the product — that
                // is the work — but keeps only those landing on a stamped
                // mask entry; an entry survives where both the product and
                // the mask have one.
                let kept = nnz * m.density();
                Some(finish(
                    l.rows,
                    r.cols,
                    kept,
                    l.work + r.work + m.work + own_work + kept,
                ))
            }
            PlanOp::Select { mat, row, col } => {
                let m = est(mat)?;
                let rows = if row.is_some() { 1 } else { m.rows };
                let cols = if col.is_some() { 1 } else { m.cols };
                let nnz = m.density() * (rows * cols) as f64;
                Some(finish(rows, cols, nnz, m.work + nnz))
            }
            PlanOp::Place { vec, row, col } => {
                // The unit matrix places the scalar one.
                let v = match vec {
                    Some(v) => est(v)?,
                    None => finish(1, 1, 1.0, 0.0),
                };
                let dim = |index: &LoopIndex| self.scope.stats(&index.var, self.stats);
                let rows = match row {
                    Some(index) => dim(index)?.rows,
                    None => v.rows,
                };
                let cols = match col {
                    Some(index) => dim(index)?.rows,
                    None => v.cols,
                };
                Some(finish(rows, cols, v.nnz, v.work + v.nnz))
            }
            PlanOp::PointUpdate { mat, scalar, .. } => {
                // A copy of `mat` with one entry merged.
                let (m, s) = (est(mat)?, est(scalar)?);
                Some(finish(m.rows, m.cols, m.nnz + 1.0, m.work + s.work + m.nnz))
            }
            PlanOp::Apply(_, args) => {
                // Arbitrary pointwise functions need not preserve zeros:
                // assume a dense result of the first argument's shape.
                let first = est(args.first()?)?;
                let mut work = (first.rows * first.cols) as f64;
                for a in args {
                    work += est(a)?.work;
                }
                Some(finish(
                    first.rows,
                    first.cols,
                    (first.rows * first.cols) as f64,
                    work,
                ))
            }
            PlanOp::Let { value, body, .. } => {
                let (v, b) = (est(value)?, est(body)?);
                Some(finish(b.rows, b.cols, b.nnz, v.work + b.work))
            }
            PlanOp::For {
                var_dim,
                acc_type,
                init,
                body,
                ..
            } => {
                let n = self.stats.dim(var_dim)? as f64;
                let b = est(body)?;
                let (rows, cols) = self.stats.shape_of(acc_type)?;
                let init_work = match init {
                    Some(init) => est(init)?.work,
                    None => 0.0,
                };
                Some(finish(
                    rows,
                    cols,
                    (rows * cols) as f64,
                    init_work + n * b.work,
                ))
            }
            PlanOp::Sum { var_dim, body, .. } => {
                let n = self.stats.dim(var_dim)? as f64;
                let b = est(body)?;
                Some(finish(b.rows, b.cols, n * b.nnz, n * (b.work + b.nnz)))
            }
            PlanOp::HProd { var_dim, body, .. } => {
                let n = self.stats.dim(var_dim)? as f64;
                let b = est(body)?;
                Some(finish(b.rows, b.cols, b.nnz, n * (b.work + b.nnz)))
            }
            PlanOp::MProd { var_dim, body, .. } => {
                let n = self.stats.dim(var_dim)? as f64;
                let b = est(body)?;
                let step = b.nnz
                    * if b.rows > 0 {
                        b.nnz / b.rows as f64
                    } else {
                        0.0
                    };
                Some(finish(
                    b.rows,
                    b.cols,
                    (b.rows * b.cols) as f64,
                    n * (b.work + step),
                ))
            }
        }
    }
}

/// Estimated `(result nnz, own work)` of one matrix product from the
/// operands' `(rows, cols, nnz)` — **the** product-cost formula, shared
/// by the planner's node estimates, the diag-fusion gate and the
/// cost-based rewriter's chain DP so all of them price products against
/// the same model.  Gustavson visits, for every stored left entry, the
/// matching right row; the dense kernel scans `rows × inner × cols`; the
/// executor picks whichever fits the operand representations, so cost
/// with the cheaper of the two.  The nnz estimate is capped at the
/// output shape.
pub(crate) fn product_cost(
    (l_rows, l_cols, l_nnz): (usize, usize, f64),
    (r_rows, r_cols, r_nnz): (usize, usize, f64),
) -> (f64, f64) {
    let per_right_row = if r_rows > 0 {
        r_nnz / r_rows as f64
    } else {
        0.0
    };
    let sparse_work = l_nnz * per_right_row;
    let dense_work = (l_rows as f64) * (l_cols as f64) * (r_cols as f64);
    let nnz = sparse_work.min((l_rows * r_cols) as f64);
    (nnz, sparse_work.min(dense_work))
}

/// Clamps the non-zero estimate to the shape and derives the
/// representation choice from the density thresholds of
/// [`matlang_matrix::repr`].
fn finish(rows: usize, cols: usize, nnz: f64, work: f64) -> NodeEstimate {
    let total = (rows * cols) as f64;
    let nnz = nnz.min(total);
    let choice = if rows * cols >= MIN_ADAPTIVE_ENTRIES && nnz <= SPARSIFY_THRESHOLD * total {
        ReprChoice::Sparse
    } else {
        ReprChoice::Dense
    };
    NodeEstimate {
        rows,
        cols,
        nnz,
        work,
        choice,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> InstanceStats {
        InstanceStats {
            dims: BTreeMap::from([("n".to_string(), 100)]),
            vars: BTreeMap::from([(
                "G".to_string(),
                VarStats {
                    rows: 100,
                    cols: 100,
                    nnz: 800,
                },
            )]),
        }
    }

    fn gram() -> Expr {
        Expr::var("G").t().mm(Expr::var("G"))
    }

    #[test]
    fn identical_subexpressions_share_a_node() {
        // (GᵀG) + (GᵀG): the Gram matrix is interned once.
        let plan = Planner::new().plan_one(&gram().add(gram()), &stats());
        assert_eq!(plan.report.queries, 1);
        assert!(plan.report.shared_nodes >= 1);
        // Var(G), Transpose, MatMul, Add — four distinct nodes.
        assert_eq!(plan.report.dag_nodes, 4);
        let add = plan.node(*plan.roots().first().unwrap());
        let children = add.op.children();
        assert_eq!(children[0], children[1]);
    }

    #[test]
    fn sharing_extends_across_batch_queries() {
        let q1 = gram();
        let q2 = gram().t();
        let plan = Planner::new().plan(&[q1, q2], &stats());
        assert_eq!(plan.roots().len(), 2);
        // q2's Gram subterm is q1's root.
        assert!(plan.node(plan.roots()[0]).refs >= 2);
    }

    #[test]
    fn loop_invariant_nodes_are_marked_hoistable() {
        // Σv. vᵀ·(GᵀG)·v — the Gram matrix does not mention v.  Planned
        // with cost rewrites off: this test pins the hoisting *analysis*,
        // and the chain reorderer would (correctly) trade the hoisted
        // Gram product for per-iteration vector chains here.
        let e = Expr::sum("v", "n", Expr::var("v").t().mm(gram()).mm(Expr::var("v")));
        let plan = Planner::with_options(PlanOptions {
            cost_rewrites: false,
            ..PlanOptions::default()
        })
        .plan_one(&e, &stats());
        let gram_node = plan
            .nodes()
            .iter()
            .find(|n| matches!(n.op, PlanOp::MatMul(_, _)) && !n.free_vars.contains("v"))
            .expect("gram node present");
        assert!(gram_node.hoistable);
        assert!(gram_node.cacheable);
        // vᵀ·(GᵀG) depends on v: not hoistable.
        let dependent = plan
            .nodes()
            .iter()
            .find(|n| matches!(n.op, PlanOp::MatMul(_, _)) && n.free_vars.contains("v"))
            .expect("v-dependent node present");
        assert!(!dependent.hoistable);
        assert!(plan.report.hoistable_nodes >= 1);
    }

    #[test]
    fn free_vars_subtract_binders() {
        let e = Expr::sum("v", "n", Expr::var("v").t().mm(Expr::var("G")));
        let plan = Planner::new().plan_one(&e, &stats());
        let root = plan.node(plan.roots()[0]);
        assert!(root.free_vars.contains("G"));
        assert!(!root.free_vars.contains("v"));
        // vᵀ·G is lowered to one row selection, which depends on v; the Σ
        // node itself does not.
        let dependents = plan.dependents_of("v");
        assert_eq!(dependents.len(), 1);
        assert_eq!(plan.node(dependents[0]).op.label(), "select-row");
    }

    #[test]
    fn simplify_savings_are_reported() {
        let e = Expr::lit(1.0).smul(Expr::var("G").t().t());
        let expected = rewrite::savings(&e);
        assert!(expected > 0);
        let plan = Planner::new().plan_one(&e, &stats());
        assert_eq!(plan.report.simplify_savings, expected);
        assert_eq!(plan.report.tree_nodes, 1); // simplified to Var(G)
        let off = Planner::with_options(PlanOptions {
            simplify: false,
            ..PlanOptions::default()
        })
        .plan_one(&e, &stats());
        assert_eq!(off.report.simplify_savings, 0);
        assert!(off.report.tree_nodes > 1);
    }

    #[test]
    fn cost_model_prefers_sparse_for_sparse_products() {
        // A 1000-node, average-degree-8 graph: G·G is estimated at
        // 8000·8 = 64 000 of 10⁶ entries ≈ 6.4% < 25% → CSR.
        let s = InstanceStats {
            dims: BTreeMap::from([("n".to_string(), 1000)]),
            vars: BTreeMap::from([(
                "G".to_string(),
                VarStats {
                    rows: 1000,
                    cols: 1000,
                    nnz: 8000,
                },
            )]),
        };
        let plan = Planner::new().plan_one(&Expr::var("G").mm(Expr::var("G")), &s);
        let root = plan.node(plan.roots()[0]);
        let est = root.est.expect("estimate present");
        assert_eq!((est.rows, est.cols), (1000, 1000));
        assert_eq!(est.choice, ReprChoice::Sparse);
    }

    #[test]
    fn cost_model_prefers_dense_for_dense_products() {
        let mut s = stats();
        s.vars.insert(
            "D".to_string(),
            VarStats {
                rows: 200,
                cols: 200,
                nnz: 40_000,
            },
        );
        let plan = Planner::new().plan_one(&Expr::var("D").mm(Expr::var("D")), &s);
        let est = plan.node(plan.roots()[0]).est.unwrap();
        assert_eq!(est.choice, ReprChoice::Dense);
    }

    #[test]
    fn unknown_variables_plan_without_estimates() {
        let plan = Planner::new().plan_one(&Expr::var("missing").t(), &stats());
        assert!(plan.nodes().iter().all(|n| n.est.is_none()));
    }

    #[test]
    fn let_bound_variables_shadow_instance_stats() {
        // let G = 1×1 scalar in Gᵀ: the inner transpose must see the
        // let-bound shape, not the 100×100 instance matrix.
        let e = Expr::let_in("G", Expr::lit(2.0), Expr::var("G").t());
        let plan = Planner::new().plan_one(
            &Expr::Let {
                var: "G".into(),
                value: Box::new(Expr::lit(2.0).smul(Expr::lit(3.0).smul(Expr::var("G")))),
                body: Box::new(Expr::var("G").t().mm(Expr::var("G"))),
            },
            &stats(),
        );
        let root = plan.node(plan.roots()[0]);
        assert!(root.est.is_some());
        let simple = Planner::with_options(PlanOptions {
            simplify: false,
            ..PlanOptions::default()
        })
        .plan_one(&e, &stats());
        let root = simple.node(simple.roots()[0]);
        let est = root.est.expect("estimate");
        assert_eq!((est.rows, est.cols), (1, 1));
    }

    #[test]
    fn shadowed_scopes_do_not_share_estimates() {
        // (let G = <1×1> in Gᵀ·G) + Gᵀ·G: the inner product is over the
        // let-bound scalar, the outer one over the 100×100 instance
        // matrix.  Scope-blind hash-consing would merge them and freeze
        // the scalar estimate onto the heavy outer product.
        let inner = Expr::var("G").t().mm(Expr::var("G"));
        let e = Expr::Let {
            var: "G".into(),
            value: Box::new(Expr::lit(2.0).smul(Expr::lit(3.0).smul(Expr::lit(4.0)))),
            body: Box::new(inner.clone()),
        }
        .add(inner);
        let planner = Planner::with_options(PlanOptions {
            simplify: false,
            ..PlanOptions::default()
        });
        let plan = planner.plan_one(&e, &stats());
        let products: Vec<_> = plan
            .nodes()
            .iter()
            .filter(|n| matches!(n.op, PlanOp::MatMul(_, _)))
            .collect();
        assert_eq!(products.len(), 2, "shadowed products must stay distinct");
        let shapes: Vec<_> = products
            .iter()
            .map(|n| n.est.map(|e| (e.rows, e.cols)))
            .collect();
        assert!(shapes.contains(&Some((1, 1))));
        assert!(shapes.contains(&Some((100, 100))));
    }

    #[test]
    fn identical_scopes_still_share_across_loops() {
        // Two Σ-loops binding the same name over the same dimension: the
        // scope signature matches, so the bodies hash-cons to one node.
        let body = || Expr::var("v").t().mm(Expr::var("G")).mm(Expr::var("v"));
        let e = Expr::sum("v", "n", body()).add(Expr::sum("v", "n", body()));
        let plan = Planner::new().plan_one(&e, &stats());
        let sums: Vec<_> = plan
            .nodes()
            .iter()
            .filter(|n| matches!(n.op, PlanOp::Sum { .. }))
            .collect();
        assert_eq!(sums.len(), 1, "identical loops must share one node");
        assert_eq!(sums[0].refs, 2);
    }

    #[test]
    fn report_displays_summary() {
        let plan = Planner::new().plan_one(&gram(), &stats());
        let text = plan.report.to_string();
        assert!(text.contains("dag nodes"));
        assert!(text.contains("1 query"));
    }

    #[test]
    fn a_report_without_rewrites_saves_zero_ops() {
        let report = PlanReport::default();
        assert_eq!(report.rewrite_savings().to_bits(), 0.0f64.to_bits());
        let text = report.to_string();
        assert!(text.contains("0 cost rewrites (≈0 ops saved)"), "{text}");
    }

    #[test]
    fn node_fingerprints_are_stable_across_plannings() {
        // Same query planned twice (even inside differently-shaped
        // batches): per-node fingerprints of the shared structure agree,
        // so observations harvested from one plan match the other.
        let plan_a = Planner::new().plan_one(&gram(), &stats());
        let plan_b = Planner::new().plan(&[Expr::var("G").t(), gram()], &stats());
        let fps_a = plan_a.node_fingerprints();
        let fps_b = plan_b.node_fingerprints();
        let root_a = fps_a[plan_a.roots()[0]];
        let root_b = fps_b[plan_b.roots()[1]];
        assert_eq!(root_a, root_b, "identical subtrees must fingerprint equal");
        // Distinct structures must (practically) not collide.
        assert_ne!(fps_b[plan_b.roots()[0]], root_b);
    }

    #[test]
    fn observed_nnz_overrides_the_estimate_and_the_repr_choice() {
        // Model: a degree-8 graph makes G·G look sparse (6.4% < 25%).
        let s = InstanceStats {
            dims: BTreeMap::from([("n".to_string(), 1000)]),
            vars: BTreeMap::from([(
                "G".to_string(),
                VarStats {
                    rows: 1000,
                    cols: 1000,
                    nnz: 8000,
                },
            )]),
        };
        let q = Expr::var("G").mm(Expr::var("G"));
        let planner = Planner::new();
        let estimated = planner.plan_one(&q, &s);
        let root = estimated.roots()[0];
        assert_eq!(estimated.node(root).est.unwrap().choice, ReprChoice::Sparse);

        // Observation: the executed product actually came out dense.
        let mut observed = ObservedStats::new();
        observed.nodes.insert(
            estimated.node_fingerprints()[root],
            VarStats {
                rows: 1000,
                cols: 1000,
                nnz: 900_000,
            },
        );
        let replanned = planner.plan_with_observed(std::slice::from_ref(&q), &s, &observed);
        let est = replanned.node(replanned.roots()[0]).est.unwrap();
        assert_eq!(est.nnz, 900_000.0, "observed nnz replaces the estimate");
        assert_eq!(est.choice, ReprChoice::Dense, "repr choice tracks reality");

        // A shape-mismatched (stale-schema) observation is ignored.
        let mut stale = ObservedStats::new();
        stale.nodes.insert(
            estimated.node_fingerprints()[root],
            VarStats {
                rows: 5,
                cols: 5,
                nnz: 25,
            },
        );
        let kept = planner.plan_with_observed(std::slice::from_ref(&q), &s, &stale);
        assert_eq!(
            kept.node(kept.roots()[0]).est.unwrap().choice,
            ReprChoice::Sparse
        );
    }

    #[test]
    fn absorb_harvests_computed_nodes_from_an_execution() {
        use matlang_core::{FunctionRegistry, Instance};
        use matlang_matrix::Matrix;
        use matlang_semiring::Real;

        let inst: Instance<Real> = Instance::new().with_dim("n", 3).with_matrix(
            "G",
            Matrix::from_f64_rows(&[&[1.0, 0.0, 2.0], &[0.0, 3.0, 0.0], &[4.0, 0.0, 5.0]]).unwrap(),
        );
        let q = Expr::var("G").t().mm(Expr::var("G"));
        let plan = Planner::new().plan_one(&q, &InstanceStats::from_instance(&inst));
        let registry = FunctionRegistry::standard_field();
        let mut exec = crate::Executor::new(&plan, &inst, &registry, crate::ExecOptions::default());
        exec.run(plan.roots()[0]).unwrap();

        let mut observed = ObservedStats::new();
        observed.absorb(&plan, exec.observed_samples());
        assert_eq!(observed.executions, 1);
        assert!(!observed.is_empty());
        // The leaf observation carries the real matrix statistics …
        let g = observed.vars.get("G").expect("G observed");
        assert_eq!((g.rows, g.cols, g.nnz), (3, 3, 5));
        // … and the root's observation matches the actual product.
        let root_fp = plan.node_fingerprints()[plan.roots()[0]];
        let root_obs = observed.nodes.get(&root_fp).expect("root observed");
        assert_eq!((root_obs.rows, root_obs.cols), (3, 3));
        assert!(root_obs.nnz > 0);

        // Overlaying onto matching-schema stats swaps in observed nnz.
        let mut stale = InstanceStats::from_instance(&inst);
        stale.vars.get_mut("G").unwrap().nnz = 9999;
        let merged = stale.with_observed(&observed);
        assert_eq!(merged.vars.get("G").unwrap().nnz, 5);
    }
}
