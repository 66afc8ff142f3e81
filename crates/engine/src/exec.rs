//! The plan executor: memoized, invalidation-scoped DAG evaluation.
//!
//! [`Executor`] evaluates a [`Plan`] over an instance exactly as the
//! tree-walking evaluator in `matlang_core::eval` would — same operation
//! order, same error cases, bit-identical results — but it keeps one
//! memoized result per cache-worthy DAG node:
//!
//! * a node referenced from several places (CSE sharing) is computed once;
//! * a node inside a loop body that does not depend on the loop variable
//!   keeps its cached value across iterations — rebinding a variable drops
//!   exactly the cache entries of the nodes whose
//!   [`free_vars`](crate::plan::PlanNode::free_vars) mention it, so
//!   loop-invariant subterms are computed once, as if hoisted;
//! * a batch of queries shares one cache, so subterms common to several
//!   queries (e.g. powers of the same adjacency matrix) are computed once
//!   for the whole batch.
//!
//! One iteration of a `for`/Σ/Π body costs its kernels plus that memo
//! bookkeeping and nothing else: the environment and the invalidation
//! index are vectors over the plan's [`VarSlot`]s; a loop binds its
//! iteration variable to the canonical vector's *index*, which the
//! planner's loop-index ops ([`PlanOp::Select`], [`PlanOp::Place`],
//! [`PlanOp::PointUpdate`]) read directly, and only a plain read of the
//! variable builds the vector (those of a small dimension once per
//! executor, shared); under an active trace only nodes *outside* every
//! loop open a span — an outermost loop is one span closed by one summary
//! event; what happened per node inside it is in the [`NodeSample`]s.
//!
//! The paper's loops are mostly arithmetic on `1 × 1` values, and two
//! rules keep an iteration at the cost of that arithmetic:
//!
//! * **Unboxed scalars.**  Inside the executor a value is either an `Arc<M>`
//!   or a bare `k` standing for exactly `M::scalar(k)`.  An entry read
//!   (`select-entry`), a product of two `1 × 1` values, a sum of two
//!   (`Add`, and Σ's fold) and the scalar operand of a scalar
//!   multiplication or point update run on `k`s through
//!   [`MatrixStorage`]'s `select_entry`, `scalar_product` and `scalar_sum`.
//!   A shared value is read as `k` only when the backend confirms, by
//!   `unboxed_scalar`, that it *is* `M::scalar(k)`; a cached node, an
//!   environment binding or a result is boxed, so an uncached `1 × 1` node
//!   allocates nothing.
//! * **In-place accumulators.**  A `for` loop hands its accumulator to
//!   each iteration by ownership.  When the body's root is an uncached
//!   `Add` or `PointUpdate` whose left operand is the uncached read of the
//!   accumulator, the root drops that read and the accumulator's cached
//!   dependents, moves the value out of its slot and writes the update
//!   into it (`add_in_place`, `point_update_in_place`).  Σ folds its sum
//!   into its running value the same way.  A value something else still
//!   holds — a cache entry, a `let` binding — is left alone: the point
//!   update lands in a copy (`Arc::make_mut`), the sum in a new value.
//!
//! Neither rule changes an operation's order, its error, or what
//! [`ExecStats`] and [`NodeSample`] record.

use crate::plan::{LoopIndex, NodeId, Plan, PlanOp, VarSlot};
use matlang_core::{EvalError, FunctionRegistry, Instance, MatrixType};
use matlang_matrix::{Canonical, MatrixStorage};
use matlang_semiring::Semiring;
use std::collections::HashMap;
use std::sync::Arc;

/// Largest dimension whose canonical vectors an executor keeps and shares
/// across iterations and nesting levels.  A canonical vector costs O(n)
/// memory on every backend (CSR carries n + 1 row pointers), so a retained
/// basis is O(n²): at most ≈ 0.5 MiB here.  Above the bound each read of
/// the variable allocates its own vector, as the tree evaluator does —
/// there the O(n) allocation is matched by the O(n) kernels that consume
/// it, whereas at n = 12 it was most of an iteration.
const SHARED_BASIS_MAX_DIM: usize = 256;

/// What a variable slot is bound to.
enum Binding<M> {
    /// A `let` value or a loop's accumulator.
    Value(Arc<M>),
    /// A loop's iteration variable: the canonical vector, by index.
    Canonical(Canonical),
}

/// A node's value inside the executor.
enum Value<M: MatrixStorage> {
    /// Exactly `M::scalar(k)`, held unboxed: a loop's entry reads, their
    /// products and sums allocate nothing.
    Scalar(M::Elem),
    /// Any value, and the only form the cache, the environment and the
    /// public API hold.
    Shared(Arc<M>),
}

impl<M: MatrixStorage> Value<M> {
    fn new(value: M) -> Self {
        Value::Shared(Arc::new(value))
    }

    /// The value as an `Arc<M>`: the one place a scalar is boxed.
    fn shared(self) -> Arc<M> {
        match self {
            Value::Scalar(k) => Arc::new(M::scalar(k)),
            Value::Shared(m) => m,
        }
    }

    /// `k` when the value is `M::scalar(k)`: unboxed already, or shared
    /// and confirmed so by the backend.
    fn unboxed(&self) -> Option<M::Elem> {
        match self {
            Value::Scalar(k) => Some(k.clone()),
            Value::Shared(m) => m.unboxed_scalar(),
        }
    }

    /// The value of the `1 × 1` operand of a scalar multiplication or a
    /// point update.
    fn scalar(&self) -> Result<M::Elem, EvalError> {
        match self {
            Value::Scalar(k) => Ok(k.clone()),
            Value::Shared(m) => scalar_of(m.as_ref()),
        }
    }

    fn shape(&self) -> (usize, usize) {
        match self {
            Value::Scalar(_) => (1, 1),
            Value::Shared(m) => m.shape(),
        }
    }

    fn nnz(&self) -> usize {
        match self {
            Value::Scalar(k) => usize::from(!k.is_zero()),
            Value::Shared(m) => m.nnz(),
        }
    }
}

/// Executor configuration.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExecOptions {
    /// Time every node computation in the per-node [`NodeSample`]s — the
    /// engine side of the server's `PROFILE` verb.  Off by default: the
    /// executor always records output shape/nnz and hit/computed counts on
    /// the cache-miss path (cheap — the compute it rides on dwarfs it, and
    /// warm hits never reach it) for `SLOWLOG`'s per-node lines, but the
    /// per-node `Instant` reads stay opt-in.
    pub profile: bool,
}

/// Per-node execution sample ([`Executor::samples`]), the per-node lines of
/// the server's `PROFILE` and `SLOWLOG` replies.  Shape, nnz and
/// hit/computed counts are recorded on every execution; `total_ns` is
/// filled only under [`ExecOptions::profile`].
///
/// Shape and nnz describe the node's value as last computed — except for a
/// node computed inside a loop, where they describe its **first**
/// computation by this executor: counting nnz is O(rows·cols) on a dense
/// value, and an iteration's count would only be overwritten by the next.
///
/// Wall time is *inclusive*: a node's `total_ns` contains the evaluation of
/// its children on the same cache-miss path, exactly like the span tree the
/// tracer records.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeSample {
    /// Times this node was computed (cache misses).
    pub computed: u64,
    /// Times this node was answered from the memo cache.
    pub hits: u64,
    /// Total inclusive wall time of the computations, in nanoseconds.
    pub total_ns: u64,
    /// Output rows as last (inside a loop: first) computed.
    pub rows: usize,
    /// Output columns as last (inside a loop: first) computed.
    pub cols: usize,
    /// Output nonzero count as last (inside a loop: first) computed.
    pub nnz: u64,
}

/// Counters the executor maintains while running a plan.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Node evaluations answered from the memo cache.
    pub cache_hits: u64,
    /// Node evaluations that had to compute.
    pub cache_misses: u64,
    /// Cache entries dropped because a variable they depend on was rebound.
    pub invalidations: u64,
    /// Products executed on a fused kernel: the diag-scaling
    /// `scale_rows`/`scale_cols` instead of materializing a diagonal, or
    /// `matmul_masked` instead of materializing a product for a mask.
    pub fused_products: u64,
    /// Cached node values patched in place by delta propagation
    /// ([`crate::delta`]) instead of being invalidated and recomputed.
    /// The executor itself never increments this; services running the
    /// delta path (the query server's `UPDATE`) fill it in when reporting.
    pub delta_patches: u64,
    /// The observability trace id ([`matlang_obs::trace`]) active when the
    /// executor was created; 0 when none.  Carried, not accumulated:
    /// [`ExecStats::since`] propagates the latest value instead of
    /// subtracting.
    pub trace_id: u64,
}

impl ExecStats {
    /// The counter deltas accumulated since `earlier` (a snapshot of the
    /// same executor's stats).
    pub fn since(&self, earlier: &ExecStats) -> ExecStats {
        ExecStats {
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
            invalidations: self.invalidations - earlier.invalidations,
            fused_products: self.fused_products - earlier.fused_products,
            delta_patches: self.delta_patches - earlier.delta_patches,
            trace_id: self.trace_id,
        }
    }
}

impl std::fmt::Display for ExecStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} hits / {} misses / {} invalidations / {} fused products / \
             {} delta patches",
            self.cache_hits,
            self.cache_misses,
            self.invalidations,
            self.fused_products,
            self.delta_patches
        )
    }
}

/// The executor's memo store: one optional shared value per plan node.
///
/// The cells are `Arc`s, so extracting the cache from one executor
/// ([`Executor::into_cache`]) and seeding the next one with it
/// ([`Executor::with_cache`]) is how long-lived services keep results warm
/// across requests over the *same* plan and instance; cross-thread sharing
/// is safe because `MatrixStorage` values are `Send + Sync`.  Invalidate
/// entries after an instance mutation with
/// [`Plan::invalidate_dependents_in`](crate::plan::Plan::invalidate_dependents_in).
pub type NodeCache<M> = Vec<Option<Arc<M>>>;

/// Residency of a memo cache: `(resident entries, heap bytes)`.  Each
/// resident value reports its exact backing-buffer size via
/// [`MatrixStorage::heap_bytes`]; `Arc`-shared values are counted once per
/// slot (the cache is the owner of record for capacity accounting).
pub fn cache_residency<M: MatrixStorage>(cache: &NodeCache<M>) -> (usize, usize) {
    let mut entries = 0;
    let mut bytes = 0;
    for value in cache.iter().flatten() {
        entries += 1;
        bytes += value.heap_bytes();
    }
    (entries, bytes)
}

/// Evaluates a [`Plan`] over one instance, memoizing node results.
///
/// The executor is generic over the storage backend exactly like
/// [`matlang_core::evaluate`]; its results are bit-identical to the tree
/// evaluator's on every backend (the `engine_parity` suite enforces this).
pub struct Executor<'p, K: Semiring, M: MatrixStorage<Elem = K>> {
    plan: &'p Plan,
    instance: &'p Instance<K, M>,
    registry: &'p FunctionRegistry<K>,
    options: ExecOptions,
    /// Memoized node results.  Values are reference-counted (atomically,
    /// so caches can be handed between server worker threads) and a cache
    /// hit costs a pointer copy, never a deep matrix clone — with thousands
    /// of loop iterations hitting a multi-million-entry cached product,
    /// deep clones would dwarf the evaluation itself.
    cache: NodeCache<M>,
    /// Loop/let bindings by [`VarSlot`]; an empty slot falls through to
    /// the instance matrix of that name.
    env: Vec<Option<Binding<M>>>,
    /// The canonical vectors `e_0 … e_{n-1}` of every dimension up to
    /// [`SHARED_BASIS_MAX_DIM`] a loop variable has been read as a matrix
    /// in, shared by every iteration of every nesting level.
    basis: HashMap<usize, Vec<Arc<M>>>,
    /// How many loops enclose the node being evaluated.
    loop_depth: usize,
    stats: ExecStats,
    /// Per-node samples: shape/nnz/hit counts always, wall time only under
    /// [`ExecOptions::profile`].
    samples: Vec<NodeSample>,
}

impl<'p, K: Semiring, M: MatrixStorage<Elem = K>> Executor<'p, K, M> {
    /// An executor for `plan` over `instance`, resolving pointwise
    /// functions in `registry`.
    pub fn new(
        plan: &'p Plan,
        instance: &'p Instance<K, M>,
        registry: &'p FunctionRegistry<K>,
        options: ExecOptions,
    ) -> Self {
        Executor {
            plan,
            instance,
            registry,
            options,
            cache: vec![None; plan.nodes().len()],
            env: (0..plan.slot_count()).map(|_| None).collect(),
            basis: HashMap::new(),
            loop_depth: 0,
            stats: ExecStats {
                trace_id: matlang_obs::trace::current_id(),
                ..ExecStats::default()
            },
            samples: vec![NodeSample::default(); plan.nodes().len()],
        }
    }

    /// An executor seeded with a [`NodeCache`] extracted from an earlier
    /// executor over the *same plan and instance* (see
    /// [`Executor::into_cache`]) — the persistence hook behind prepared
    /// queries in a long-lived service.  A cache of the wrong length (from
    /// a different plan) is discarded and replaced by an empty one.
    pub fn with_cache(
        plan: &'p Plan,
        instance: &'p Instance<K, M>,
        registry: &'p FunctionRegistry<K>,
        options: ExecOptions,
        cache: NodeCache<M>,
    ) -> Self {
        let mut exec = Executor::new(plan, instance, registry, options);
        if cache.len() == plan.nodes().len() {
            exec.cache = cache;
        }
        exec
    }

    /// Consumes the executor, returning its memo cache for reuse by a later
    /// [`Executor::with_cache`].  Entries computed under temporary loop/let
    /// bindings were already dropped by the executor's invalidation
    /// discipline, so everything returned is valid for the instance as the
    /// executor last saw it.
    pub fn into_cache(self) -> NodeCache<M> {
        self.cache
    }

    /// The counters accumulated so far.
    pub fn stats(&self) -> ExecStats {
        self.stats
    }

    /// The per-node samples, indexed by [`NodeId`]: output shape/nnz as
    /// last computed — for a node inside a loop, as first computed (see
    /// [`NodeSample`]) — plus hit/computed counts.  Wall times are 0 unless
    /// [`ExecOptions::profile`] was set.
    pub fn samples(&self) -> &[NodeSample] {
        &self.samples
    }

    /// Evaluates one root of the plan.  The shared cache persists across
    /// calls, so evaluating several roots in sequence reuses their common
    /// subterms.
    pub fn run(&mut self, root: NodeId) -> Result<M, EvalError> {
        self.run_shared(root)
            .map(|rc| Arc::try_unwrap(rc).unwrap_or_else(|shared| (*shared).clone()))
    }

    /// Evaluates one root, returning the result **shared** rather than
    /// detached: when the root is cached (a warm prepared query), this is
    /// a reference-count bump where [`run`](Executor::run) would pay a
    /// deep clone of a value the cache still holds.  The zero-copy path
    /// for callers that only read the result — e.g. serializing it to a
    /// wire format.
    pub fn run_shared(&mut self, root: NodeId) -> Result<Arc<M>, EvalError> {
        self.eval_node(root).map(Value::shared)
    }

    /// Evaluates every root in query order, returning per-query results
    /// and per-query stat deltas.  A failing query does not abort the
    /// batch — its error is returned in its slot and the remaining queries
    /// still run against the shared cache.
    pub fn run_all(&mut self) -> (Vec<Result<M, EvalError>>, Vec<ExecStats>) {
        let mut results = Vec::with_capacity(self.plan.roots().len());
        let mut per_query = Vec::with_capacity(self.plan.roots().len());
        for &root in self.plan.roots() {
            let before = self.stats;
            results.push(self.run(root));
            per_query.push(self.stats.since(&before));
        }
        (results, per_query)
    }

    fn eval_node(&mut self, id: NodeId) -> Result<Value<M>, EvalError> {
        self.eval(id, None)
    }

    /// [`eval_node`](Self::eval_node) for an operand used as a scalar where
    /// it is one: a cached `M::scalar(k)` is answered as `k`, leaving its
    /// reference count alone.
    fn eval_unboxed(&mut self, id: NodeId) -> Result<Value<M>, EvalError> {
        match self.hit(id) {
            Some(cached) => Ok(match cached.unboxed_scalar() {
                Some(k) => Value::Scalar(k),
                None => Value::Shared(Arc::clone(cached)),
            }),
            None => self.eval_node(id),
        }
    }

    /// `read` applied to node `id`'s value, borrowed from the cache on a
    /// hit — a loop's entry read costs no reference-count traffic.
    fn read_node<R>(&mut self, id: NodeId, read: impl FnOnce(&M) -> R) -> Result<R, EvalError> {
        match self.hit(id) {
            Some(cached) => Ok(read(cached)),
            None => Ok(read(&self.eval_node(id)?.shared())),
        }
    }

    /// Node `id`'s cached value, counted as a hit.
    fn hit(&mut self, id: NodeId) -> Option<&Arc<M>> {
        let cached = self.cache[id].as_ref()?;
        self.stats.cache_hits += 1;
        self.samples[id].hits += 1;
        Some(cached)
    }

    /// [`eval_node`](Self::eval_node), for a `for` body that updates the
    /// loop's accumulator, in slot `accumulator`, in place.
    fn eval(&mut self, id: NodeId, accumulator: Option<VarSlot>) -> Result<Value<M>, EvalError> {
        if let Some(cached) = self.hit(id) {
            return Ok(Value::Shared(Arc::clone(cached)));
        }
        self.stats.cache_misses += 1;
        // On the warm path (cache hit above) neither branch below runs, so
        // tracing costs nothing per node once a prepared query's roots are
        // cached; with an active trace, each node computed outside every
        // loop becomes a child span (nested via guard scoping, inclusive of
        // its children).  Inside a loop nothing is opened: the outermost
        // loop's span and summary event stand for its iterations.
        let _span = (self.loop_depth == 0 && matlang_obs::trace::active())
            .then(|| matlang_obs::trace::span(self.plan.node(id).op.span_name()));
        let timer = self.options.profile.then(std::time::Instant::now);
        let value = self.compute(id, accumulator)?;
        {
            // Always-on sampling: shape/nnz ride the miss path, where
            // the compute they describe dwarfs them; only the per-node
            // clock reads stay behind the `profile` flag.  Inside a loop
            // only the first computation is described — a node computed
            // per iteration would rescan a value the next iteration
            // replaces.
            let sample = &mut self.samples[id];
            sample.computed += 1;
            if let Some(start) = timer {
                sample.total_ns += start.elapsed().as_nanos() as u64;
            }
            if self.loop_depth == 0 || sample.computed == 1 {
                (sample.rows, sample.cols) = value.shape();
                sample.nnz = value.nnz() as u64;
            }
        }
        if self.plan.node(id).cacheable {
            let value = value.shared();
            self.cache[id] = Some(Arc::clone(&value));
            return Ok(Value::Shared(value));
        }
        Ok(value)
    }

    fn compute(&mut self, id: NodeId, accumulator: Option<VarSlot>) -> Result<Value<M>, EvalError> {
        let plan = self.plan;
        let op = &plan.node(id).op;
        match op {
            PlanOp::Var(name, slot) => self.lookup(name, *slot).map(Value::Shared),
            PlanOp::Const(c) => Ok(Value::new(M::scalar(K::from_f64(c.0)))),
            PlanOp::Transpose(a) => Ok(Value::new(self.eval_node(*a)?.shared().transpose())),
            PlanOp::Ones(a) => {
                let (rows, _) = self.eval_node(*a)?.shape();
                Ok(Value::new(M::ones_vector(rows)))
            }
            PlanOp::Diag(a) => Ok(Value::new(self.eval_node(*a)?.shared().diag()?)),
            PlanOp::MatMul(a, b) => {
                let left = self.eval_unboxed(*a)?;
                let right = self.eval_unboxed(*b)?;
                if let (Some(l), Some(r)) = (left.unboxed(), right.unboxed()) {
                    return Ok(Value::Scalar(M::scalar_product(&l, &r)));
                }
                Ok(Value::new(left.shared().matmul(&right.shared())?))
            }
            PlanOp::Add(a, b) => {
                let left = self.eval_unboxed(*a)?;
                let right = self.eval_unboxed(*b)?;
                let target = self.update_target(left, accumulator);
                sum(target, right)
            }
            PlanOp::ScalarMul(a, b) => {
                let scalar = self.eval_unboxed(*a)?.scalar()?;
                let right = self.eval_node(*b)?.shared();
                Ok(Value::new(right.scalar_mul(&scalar)))
            }
            PlanOp::Select { mat, row, col } => {
                let (row, col) = (self.index_of(row), self.index_of(col));
                Ok(self.read_node(*mat, |m| match (row, col) {
                    (Some(r), Some(c)) => m.select_entry(r, c).map(Value::Scalar),
                    _ => m.select(row, col).map(Value::new),
                })??)
            }
            PlanOp::Place { vec, row, col } => {
                // The unit matrix places the semiring's one.
                let operand = match vec {
                    Some(vec) => self.eval_node(*vec)?.shared(),
                    None => Arc::new(M::scalar(K::one())),
                };
                let (row, col) = (self.index_of(row), self.index_of(col));
                Ok(Value::new(operand.place(row, col)?))
            }
            PlanOp::PointUpdate {
                mat,
                scalar,
                row,
                col,
            } => {
                let matrix = self.eval_node(*mat)?;
                let scalar = self.eval_unboxed(*scalar)?.scalar()?;
                let (row, col) = (self.loop_index(row), self.loop_index(col));
                let mut target = self.update_target(matrix, accumulator).shared();
                Arc::make_mut(&mut target).point_update_in_place(&scalar, row, col)?;
                Ok(Value::Shared(target))
            }
            PlanOp::ScaleRows { vec, mat } => {
                let scale = self.eval_node(*vec)?.shared();
                let matrix = self.eval_node(*mat)?.shared();
                self.stats.fused_products += 1;
                Ok(Value::new(matrix.scale_rows(scale.as_ref())?))
            }
            PlanOp::ScaleCols { mat, vec } => {
                let matrix = self.eval_node(*mat)?.shared();
                let scale = self.eval_node(*vec)?.shared();
                self.stats.fused_products += 1;
                Ok(Value::new(matrix.scale_cols(scale.as_ref())?))
            }
            PlanOp::MaskedMatMul {
                left,
                right,
                mask,
                mask_on_left,
            } => {
                // Operands in the order the unfused Hadamard would have
                // reached them.
                let (l, r, m) = if *mask_on_left {
                    let m = self.eval_node(*mask)?;
                    (self.eval_node(*left)?, self.eval_node(*right)?, m)
                } else {
                    let (l, r) = (self.eval_node(*left)?, self.eval_node(*right)?);
                    (l, r, self.eval_node(*mask)?)
                };
                self.stats.fused_products += 1;
                Ok(Value::new(
                    l.shared().matmul_masked(&r.shared(), &m.shared())?,
                ))
            }
            PlanOp::Hadamard(a, b) => {
                let left = self.eval_node(*a)?.shared();
                let right = self.eval_node(*b)?.shared();
                Ok(Value::new(left.hadamard(right.as_ref())?))
            }
            PlanOp::Apply(name, args) => {
                let f = self
                    .registry
                    .get(name)
                    .ok_or_else(|| EvalError::UnknownFunction { name: name.clone() })?
                    .clone();
                let values: Vec<Arc<M>> = args
                    .iter()
                    .map(|a| self.eval_node(*a).map(Value::shared))
                    .collect::<Result<_, _>>()?;
                let refs: Vec<&M> = values.iter().map(Arc::as_ref).collect();
                Ok(Value::new(M::zip_with(&refs, |entries| f(entries))?))
            }
            PlanOp::Let {
                var_slot,
                value,
                body,
                ..
            } => {
                let bound = self.eval_node(*value)?.shared();
                let saved = self.bind(*var_slot, Binding::Value(bound));
                let result = self.eval_node(*body);
                self.unbind(*var_slot, saved);
                result
            }
            PlanOp::For {
                var_slot,
                var_dim,
                acc,
                acc_slot,
                acc_type,
                init,
                body,
                ..
            } => self.run_for(*var_slot, var_dim, acc, *acc_slot, acc_type, *init, *body),
            PlanOp::Sum {
                var_slot,
                var_dim,
                body,
                ..
            } => self.fold_loop(op.label(), *var_slot, var_dim, *body, sum),
            PlanOp::HProd {
                var_slot,
                var_dim,
                body,
                ..
            } => self.fold_loop(op.label(), *var_slot, var_dim, *body, |acc, value| {
                Ok(Value::new(acc.shared().hadamard(&value.shared())?))
            }),
            PlanOp::MProd {
                var_slot,
                var_dim,
                body,
                ..
            } => self.fold_loop(op.label(), *var_slot, var_dim, *body, |acc, value| {
                Ok(Value::new(acc.shared().matmul(&value.shared())?))
            }),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn run_for(
        &mut self,
        var: VarSlot,
        var_dim: &str,
        acc_name: &str,
        acc: VarSlot,
        acc_type: &MatrixType,
        init: Option<NodeId>,
        body: NodeId,
    ) -> Result<Value<M>, EvalError> {
        let n = self.dim_of(var_dim)?;
        let acc_shape =
            self.instance
                .shape_of(acc_type)
                .ok_or_else(|| EvalError::UnknownDimension {
                    symbol: acc_type.rows.to_string(),
                })?;
        let mismatch = |found| EvalError::LoopShapeMismatch {
            acc: acc_name.to_string(),
            expected: acc_shape,
            found,
        };
        let initial = match init {
            Some(init) => {
                let value = self.eval_node(init)?;
                if value.shape() != acc_shape {
                    return Err(mismatch(value.shape()));
                }
                value.shared()
            }
            None => Arc::new(M::zeros(acc_shape.0, acc_shape.1)),
        };
        // The accumulator is handed to each iteration by ownership: its
        // slot holds the only reference, which an in-place body moves out.
        let in_place = self.updates_in_place(body, acc).then_some(acc);
        let mut accumulator = Some(initial);
        let saved_acc = self.env[acc].take();
        let outcome = self.iterate("for", var, n, |exec| {
            let current = accumulator.take().expect("each iteration returns it");
            exec.bind(acc, Binding::Value(current));
            let value = exec.eval(body, in_place)?.shared();
            if value.shape() != acc_shape {
                return Err(mismatch(value.shape()));
            }
            accumulator = Some(value);
            Ok(())
        });
        self.unbind(acc, saved_acc);
        outcome.map(|_| Value::Shared(accumulator.expect("the loop ran")))
    }

    /// Whether a `for` body may write the loop's result into the
    /// accumulator in slot `acc`: the body's root is an uncached `Add` or
    /// `PointUpdate` whose left operand is the uncached read of `acc`.  That
    /// read is the one reference the body takes to the accumulator, and
    /// nothing cached keeps the updated value.
    fn updates_in_place(&self, body: NodeId, acc: VarSlot) -> bool {
        let root = self.plan.node(body);
        let (PlanOp::Add(left, _) | PlanOp::PointUpdate { mat: left, .. }) = root.op else {
            return false;
        };
        let left = self.plan.node(left);
        !root.cacheable && !left.cacheable && matches!(left.op, PlanOp::Var(_, slot) if slot == acc)
    }

    /// The value an `Add` or `PointUpdate` writes into: its left operand,
    /// or, for an in-place `for` body, the accumulator moved out of its
    /// slot — `left`, the body's read of it, is released and the slot's
    /// dependents dropped first, so the accumulator is usually unshared.
    fn update_target(&mut self, left: Value<M>, accumulator: Option<VarSlot>) -> Value<M> {
        let Some(slot) = accumulator else {
            return left;
        };
        drop(left);
        self.invalidate(slot);
        match self.env[slot].take() {
            Some(Binding::Value(acc)) => Value::Shared(acc),
            _ => unreachable!("a for loop binds its accumulator to a value"),
        }
    }

    /// Shared Σ / Π∘ / Π iteration, mirroring `matlang_core::eval`'s
    /// `fold_loop` operation-for-operation (folding from the first value is
    /// the paper's neutral-element initialization).
    fn fold_loop(
        &mut self,
        label: &'static str,
        var: VarSlot,
        var_dim: &str,
        body: NodeId,
        combine: impl Fn(Value<M>, Value<M>) -> Result<Value<M>, EvalError>,
    ) -> Result<Value<M>, EvalError> {
        let n = self.dim_of(var_dim)?;
        let mut acc: Option<Value<M>> = None;
        self.iterate(label, var, n, |exec| {
            let value = exec.eval_node(body)?;
            acc = Some(match acc.take() {
                None => value,
                Some(prev) => combine(prev, value)?,
            });
            Ok(())
        })?;
        acc.ok_or(EvalError::EmptyIteration {
            symbol: var_dim.to_string(),
        })
    }

    /// The loop skeleton shared by `for` and the folds: binds `var` to each
    /// canonical vector of dimension `n` in turn — by index, nothing is
    /// built — and runs `iteration`, stopping at its first error; the
    /// binding `var` shadowed is restored either way.  (Taking it out up
    /// front does not invalidate — the first `bind` does, before any
    /// dependent node is evaluated again.)
    ///
    /// Under an active trace the **outermost** loop — the only one whose
    /// node opened a span — closes it with one summary event; nested loops
    /// and the nodes inside record nothing.
    fn iterate(
        &mut self,
        label: &'static str,
        var: VarSlot,
        n: usize,
        mut iteration: impl FnMut(&mut Self) -> Result<(), EvalError>,
    ) -> Result<(), EvalError> {
        let traced_from =
            (self.loop_depth == 0 && matlang_obs::trace::active()).then_some(self.stats);
        let saved_var = self.env[var].take();
        self.loop_depth += 1;
        let mut iterations = 0;
        let mut outcome = Ok(());
        for i in 0..n {
            let canonical = Canonical::new(n, i).expect("the iteration index is below n");
            self.bind(var, Binding::Canonical(canonical));
            outcome = iteration(self);
            if outcome.is_err() {
                break;
            }
            iterations += 1;
        }
        self.loop_depth -= 1;
        self.unbind(var, saved_var);
        if let Some(before) = traced_from {
            let inside = self.stats.since(&before);
            matlang_obs::trace::event(format!(
                "loop:{label} iterations={iterations} computed={} hits={}",
                inside.cache_misses, inside.cache_hits
            ));
        }
        outcome
    }

    /// The canonical vector `canonical` as a matrix: shared from the
    /// dimension's basis, built on first use, up to
    /// [`SHARED_BASIS_MAX_DIM`]; built afresh above it.
    fn canonical_vector(&mut self, canonical: Canonical) -> Arc<M> {
        let n = canonical.dim();
        if n > SHARED_BASIS_MAX_DIM {
            return Arc::new(canonical.vector());
        }
        let basis = self.basis.entry(n).or_insert_with(|| {
            (0..n)
                .map(|i| Arc::new(M::canonical(n, i).expect("index below the dimension")))
                .collect()
        });
        Arc::clone(&basis[canonical.index()])
    }

    /// The canonical vector a loop has bound `index`'s variable to — the
    /// planner emits loop-index ops only where a loop is the innermost
    /// binder of that name, and the environment scopes bindings the same
    /// way.
    fn loop_index(&self, index: &LoopIndex) -> Canonical {
        match self.env[index.slot] {
            Some(Binding::Canonical(canonical)) => canonical,
            _ => unreachable!("{} is read as a loop index outside its loop", index.var),
        }
    }

    /// [`loop_index`](Self::loop_index) of an optional position.
    fn index_of(&self, index: &Option<LoopIndex>) -> Option<Canonical> {
        index.as_ref().map(|index| self.loop_index(index))
    }

    fn lookup(&mut self, name: &str, slot: VarSlot) -> Result<Arc<M>, EvalError> {
        match &self.env[slot] {
            Some(Binding::Value(m)) => return Ok(Arc::clone(m)),
            Some(Binding::Canonical(canonical)) => {
                let canonical = *canonical;
                return Ok(self.canonical_vector(canonical));
            }
            None => {}
        }
        self.instance
            .matrix(name)
            .map(|m| Arc::new(m.clone()))
            .ok_or_else(|| EvalError::UnknownVariable {
                name: name.to_string(),
            })
    }

    fn dim_of(&self, symbol: &str) -> Result<usize, EvalError> {
        match self.instance.dim(symbol) {
            None => Err(EvalError::UnknownDimension {
                symbol: symbol.to_string(),
            }),
            Some(0) => Err(EvalError::EmptyIteration {
                symbol: symbol.to_string(),
            }),
            Some(n) => Ok(n),
        }
    }

    /// Binds `slot`, dropping the cache entries that depended on its
    /// previous binding.  Returns the binding it replaced.
    fn bind(&mut self, slot: VarSlot, binding: Binding<M>) -> Option<Binding<M>> {
        self.invalidate(slot);
        self.env[slot].replace(binding)
    }

    /// Restores the binding saved by [`bind`](Self::bind) (or taken out of
    /// `env` before a loop), dropping dependent cache entries computed
    /// under the inner binding.
    fn unbind(&mut self, slot: VarSlot, saved: Option<Binding<M>>) {
        self.invalidate(slot);
        self.env[slot] = saved;
    }

    fn invalidate(&mut self, slot: VarSlot) {
        for &id in self.plan.dependents_of_slot(slot) {
            if self.cache[id].take().is_some() {
                self.stats.invalidations += 1;
            }
        }
    }
}

/// `target + value`: unboxed when both are `M::scalar`, written into
/// `target` when nothing else holds it, and a new value otherwise.
fn sum<M: MatrixStorage>(target: Value<M>, value: Value<M>) -> Result<Value<M>, EvalError> {
    if let (Some(a), Some(b)) = (target.unboxed(), value.unboxed()) {
        return Ok(Value::Scalar(M::scalar_sum(&a, &b)));
    }
    let (mut target, value) = (target.shared(), value.shared());
    match Arc::get_mut(&mut target) {
        Some(unshared) => unshared.add_in_place(&value)?,
        // A copy would be overwritten by the sum: CSR's merge writes new
        // arrays, and the dense kernel's output costs what a copy does.
        None => target = Arc::new(target.add(&value)?),
    }
    Ok(Value::Shared(target))
}

/// The value of the `1 × 1` operand of a scalar multiplication.
fn scalar_of<M: MatrixStorage>(value: &M) -> Result<M::Elem, EvalError> {
    if !value.is_scalar() {
        return Err(EvalError::NotAScalar {
            shape: value.shape(),
        });
    }
    Ok(value.as_scalar()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{InstanceStats, Planner};
    use matlang_core::{evaluate, Expr};
    use matlang_matrix::Matrix;
    use matlang_semiring::Real;

    fn instance() -> Instance<Real> {
        Instance::new().with_dim("n", 4).with_matrix(
            "G",
            Matrix::from_f64_rows(&[
                &[0.0, 1.0, 0.0, 0.0],
                &[0.0, 0.0, 2.0, 0.0],
                &[0.0, 0.0, 0.0, 3.0],
                &[4.0, 0.0, 0.0, 0.0],
            ])
            .unwrap(),
        )
    }

    fn run_one(expr: &Expr, inst: &Instance<Real>) -> (Result<Matrix<Real>, EvalError>, ExecStats) {
        run_planned(&Planner::new(), expr, inst)
    }

    fn run_planned(
        planner: &Planner,
        expr: &Expr,
        inst: &Instance<Real>,
    ) -> (Result<Matrix<Real>, EvalError>, ExecStats) {
        let plan = planner.plan_one(expr, &InstanceStats::from_instance(inst));
        let registry = FunctionRegistry::standard_field();
        let mut exec = Executor::new(&plan, inst, &registry, ExecOptions::default());
        let root = plan.roots()[0];
        let out = exec.run(root);
        (out, exec.stats())
    }

    #[test]
    fn shared_subterms_hit_the_cache() {
        let gram = Expr::var("G").t().mm(Expr::var("G"));
        let e = gram.clone().add(gram);
        let inst = instance();
        let (out, stats) = run_one(&e, &inst);
        let expected = evaluate(&e, &inst, &FunctionRegistry::standard_field()).unwrap();
        assert_eq!(out.unwrap(), expected);
        assert!(stats.cache_hits >= 1, "second Gram use must hit: {stats}");
    }

    #[test]
    fn loop_invariant_subterms_are_computed_once() {
        // Σv. vᵀ·(GᵀG)·v — the Gram product must be computed exactly once
        // across the 4 iterations.
        let e = Expr::sum(
            "v",
            "n",
            Expr::var("v")
                .t()
                .mm(Expr::var("G").t().mm(Expr::var("G")))
                .mm(Expr::var("v")),
        );
        let inst = instance();
        let (out, stats) = run_one(&e, &inst);
        let expected = evaluate(&e, &inst, &FunctionRegistry::standard_field()).unwrap();
        assert_eq!(out.unwrap(), expected);
        // The Gram node misses once and hits on iterations 2..4, read by
        // the lowered entry selection.
        assert!(stats.cache_hits >= 3, "expected hoisting hits: {stats}");
    }

    #[test]
    fn loop_invariant_subterms_are_computed_once_unlowered() {
        // The same query as products with v (cost rewrites off): the Gram
        // node still hits, and the cached v-dependent products are dropped
        // on every rebind.
        let e = Expr::sum(
            "v",
            "n",
            Expr::var("v")
                .t()
                .mm(Expr::var("G").t().mm(Expr::var("G")))
                .mm(Expr::var("v")),
        );
        let inst = instance();
        let planner = Planner::with_options(crate::PlanOptions {
            cost_rewrites: false,
            ..crate::PlanOptions::default()
        });
        let (out, stats) = run_planned(&planner, &e, &inst);
        let expected = evaluate(&e, &inst, &FunctionRegistry::standard_field()).unwrap();
        assert_eq!(out.unwrap(), expected);
        assert!(stats.cache_hits >= 3, "expected hoisting hits: {stats}");
        assert!(stats.invalidations > 0);
    }

    #[test]
    fn invalidation_keeps_loop_iterations_correct() {
        // Σv. v·vᵀ = I: every iteration depends on v, so each must
        // recompute — a stale cache would return n copies of b₁·b₁ᵀ.
        let e = Expr::sum("v", "n", Expr::var("v").mm(Expr::var("v").t()));
        let inst = instance();
        let (out, _) = run_one(&e, &inst);
        assert_eq!(out.unwrap(), Matrix::identity(4));
    }

    #[test]
    fn batch_queries_share_the_cache() {
        let gram = Expr::var("G").t().mm(Expr::var("G"));
        let q1 = gram.clone();
        let q2 = gram.clone().t();
        let inst = instance();
        let plan = Planner::new().plan(
            &[q1.clone(), q2.clone()],
            &InstanceStats::from_instance(&inst),
        );
        let registry = FunctionRegistry::standard_field();
        let mut exec = Executor::new(&plan, &inst, &registry, ExecOptions::default());
        let (results, per_query) = exec.run_all();
        assert_eq!(results.len(), 2);
        assert_eq!(
            results[0].as_ref().unwrap(),
            &evaluate(&q1, &inst, &registry).unwrap()
        );
        assert_eq!(
            results[1].as_ref().unwrap(),
            &evaluate(&q2, &inst, &registry).unwrap()
        );
        // Query 2 reuses query 1's Gram result from the shared cache.  (At
        // this 4×4 size the cost model keeps the result transpose — the
        // product's nnz is no larger than the operands', so pushing the
        // transpose down would not pay.)
        assert!(per_query[1].cache_hits >= 1);
        assert_eq!(per_query[1].cache_misses, 1, "only the new transpose node");
    }

    #[test]
    fn failing_batch_query_does_not_poison_the_rest() {
        let inst = instance();
        let bad = Expr::var("missing");
        let good = Expr::var("G").t();
        let plan = Planner::new().plan(&[bad, good.clone()], &InstanceStats::from_instance(&inst));
        let registry = FunctionRegistry::standard_field();
        let mut exec = Executor::new(&plan, &inst, &registry, ExecOptions::default());
        let (results, _) = exec.run_all();
        assert!(matches!(results[0], Err(EvalError::UnknownVariable { .. })));
        assert_eq!(
            results[1].as_ref().unwrap(),
            &evaluate(&good, &inst, &registry).unwrap()
        );
    }

    #[test]
    fn error_cases_match_the_tree_evaluator() {
        let inst = instance();
        let registry = FunctionRegistry::standard_field();
        for e in [
            Expr::var("Z"),
            Expr::var("G").smul(Expr::var("G")),
            Expr::sum("v", "missing", Expr::var("v")),
            Expr::apply("nope", vec![Expr::var("G")]),
        ] {
            let naive = evaluate(&e, &inst, &registry).unwrap_err();
            let (planned, _) = run_one(&e, &inst);
            assert_eq!(
                std::mem::discriminant(&naive),
                std::mem::discriminant(&planned.unwrap_err()),
                "error mismatch for {e}"
            );
        }
    }

    #[test]
    fn persistent_cache_survives_across_executors_and_invalidates_externally() {
        let inst = instance();
        let registry = FunctionRegistry::standard_field();
        let e = Expr::var("G").t().mm(Expr::var("G")).add(Expr::var("H"));
        let mut inst = inst.with_matrix("H", Matrix::identity(4));
        let mut plan = Planner::new().plan_one(&e, &InstanceStats::from_instance(&inst));
        plan.mark_all_cacheable();
        let root = plan.roots()[0];

        // First execution: all misses; extract the warm cache.
        let mut exec = Executor::new(&plan, &inst, &registry, ExecOptions::default());
        let first = exec.run(root).unwrap();
        assert_eq!(exec.stats().cache_hits, 1, "only the shared Var(G) hits");
        let cache = exec.into_cache();

        // Second execution with the seeded cache: the root itself hits.
        let mut exec = Executor::with_cache(&plan, &inst, &registry, ExecOptions::default(), cache);
        assert_eq!(exec.run(root).unwrap(), first);
        assert_eq!(exec.stats().cache_misses, 0);
        assert_eq!(exec.stats().cache_hits, 1);
        let mut cache = exec.into_cache();

        // Mutate H and invalidate exactly its dependents: the Gram product
        // (independent of H) keeps its entry, the Add and Var(H) drop.
        let dropped = plan.invalidate_dependents_in(&mut cache, "H");
        assert!(dropped >= 2, "Var(H), Add and the root depend on H");
        inst.matrix_mut("H").unwrap().set(0, 0, Real(5.0)).unwrap();
        let mut exec = Executor::with_cache(&plan, &inst, &registry, ExecOptions::default(), cache);
        let updated = exec.run(root).unwrap();
        assert_eq!(
            updated,
            evaluate(&e, &inst, &registry).unwrap(),
            "post-update execution must see the new H"
        );
        let stats = exec.stats();
        assert!(
            stats.cache_hits >= 1,
            "the H-independent Gram product must still be warm: {stats}"
        );

        // A cache of the wrong length is discarded, not misused.
        let other_plan =
            Planner::new().plan_one(&Expr::var("G").t(), &InstanceStats::from_instance(&inst));
        let exec = Executor::with_cache(
            &other_plan,
            &inst,
            &registry,
            ExecOptions::default(),
            vec![None; 99],
        );
        assert_eq!(exec.cache.len(), other_plan.nodes().len());
    }

    #[test]
    fn stats_display_and_delta() {
        let a = ExecStats {
            cache_hits: 5,
            cache_misses: 3,
            invalidations: 2,
            fused_products: 1,
            delta_patches: 4,
            trace_id: 7,
        };
        let b = a.since(&ExecStats::default());
        assert_eq!(a, b, "since() must carry the trace id, not subtract it");
        assert!(a.to_string().contains("5 hits"));
        assert!(a.to_string().contains("4 delta patches"));
    }

    #[test]
    fn executor_carries_the_active_trace_id() {
        let id = matlang_obs::trace::next_id();
        let inst = instance();
        let e = Expr::var("G").t();
        let stats = {
            let _t = matlang_obs::trace::begin(id, "engine test");
            let (out, stats) = run_one(&e, &inst);
            out.unwrap();
            stats
        };
        assert_eq!(stats.trace_id, id);
        // Outside a trace the id is the wire's "no trace" marker.
        let (_, stats) = run_one(&e, &inst);
        assert_eq!(stats.trace_id, 0);
    }

    #[test]
    fn only_nodes_outside_every_loop_are_traced() {
        // Gᵀ + Σv. Σw. (vᵀ·G·w) × (v·wᵀ): one depth-0 transpose and add,
        // one outermost Σ with a nested Σ inside it.
        let (v, w) = (|| Expr::var("v"), || Expr::var("w"));
        let body = v().t().mm(Expr::var("G")).mm(w()).smul(v().mm(w().t()));
        let e = Expr::var("G")
            .t()
            .add(Expr::sum("v", "n", Expr::sum("w", "n", body)));
        let inst = instance();
        let id = matlang_obs::trace::next_id();
        let (out, stats) = {
            let _t = matlang_obs::trace::begin(id, "engine loop test");
            run_one(&e, &inst)
        };
        let expected = evaluate(&e, &inst, &FunctionRegistry::standard_field()).unwrap();
        assert_eq!(out.unwrap(), expected);
        let trace = matlang_obs::trace::recent(matlang_obs::trace::RING_CAPACITY)
            .into_iter()
            .find(|t| t.id == id)
            .expect("trace recorded");
        let names: Vec<&str> = trace.spans.iter().map(|s| s.name.as_ref()).collect();
        let executed: Vec<&str> = names
            .iter()
            .copied()
            .filter(|n| n.starts_with("execute:"))
            .collect();
        assert_eq!(
            executed,
            [
                "execute:add",
                "execute:transpose",
                "execute:var",
                "execute:sum"
            ],
            "depth-0 nodes and the outermost loop only: {names:?}"
        );
        let summaries: Vec<&str> = names
            .iter()
            .copied()
            .filter(|n| n.starts_with("loop:"))
            .collect();
        assert_eq!(
            summaries.len(),
            1,
            "the nested Σ reports nothing: {names:?}"
        );
        // Everything but the four depth-0 misses happened inside the loop.
        assert_eq!(
            summaries[0],
            format!(
                "loop:sum iterations=4 computed={} hits={}",
                stats.cache_misses - 4,
                stats.cache_hits
            )
        );
        let sum_span = names.iter().position(|n| *n == "execute:sum");
        let summary = trace.spans.iter().find(|s| s.name.starts_with("loop:"));
        assert_eq!(summary.unwrap().parent, sum_span, "summary closes the span");
    }

    #[test]
    fn observation_is_always_on_without_timing() {
        let gram = Expr::var("G").t().mm(Expr::var("G"));
        let e = gram.clone().add(gram);
        let inst = instance();
        let plan = Planner::new().plan_one(&e, &InstanceStats::from_instance(&inst));
        let registry = FunctionRegistry::standard_field();
        let mut exec = Executor::new(&plan, &inst, &registry, ExecOptions::default());
        let root = plan.roots()[0];
        exec.run(root).unwrap();
        let samples = exec.samples();
        assert_eq!(samples.len(), plan.nodes().len());
        let root_sample = samples[root];
        assert_eq!(root_sample.computed, 1);
        assert_eq!((root_sample.rows, root_sample.cols), (4, 4));
        assert!(root_sample.nnz > 0, "observed output nnz must be recorded");
        assert_eq!(root_sample.total_ns, 0, "no clock reads without profile");
        assert!(samples.iter().any(|s| s.hits >= 1), "CSE reuse observed");
    }

    #[test]
    fn in_loop_samples_describe_the_first_computation() {
        // Σv. G·v: the column read runs once per iteration; its sample
        // keeps column 0's nnz (2), not the last column's (1).  The sum,
        // computed outside the loop, is described as last computed.
        let inst: Instance<Real> = Instance::new().with_dim("n", 3).with_matrix(
            "G",
            Matrix::from_f64_rows(&[&[1.0, 0.0, 0.0], &[2.0, 0.0, 3.0], &[0.0, 4.0, 0.0]]).unwrap(),
        );
        let e = Expr::sum("v", "n", Expr::var("G").mm(Expr::var("v")));
        let plan = Planner::new().plan_one(&e, &InstanceStats::from_instance(&inst));
        let registry = FunctionRegistry::standard_field();
        let mut exec = Executor::new(&plan, &inst, &registry, ExecOptions::default());
        let root = plan.roots()[0];
        exec.run(root).unwrap();
        let column = plan
            .nodes()
            .iter()
            .position(|n| matches!(n.op, PlanOp::Select { .. }))
            .expect("G·v is a column read");
        let sample = exec.samples()[column];
        assert_eq!(sample.computed, 3);
        assert_eq!((sample.rows, sample.cols, sample.nnz), (3, 1, 2));
        let total = exec.samples()[root];
        assert_eq!((total.computed, total.nnz), (1, 3));
    }

    #[test]
    fn profiling_records_per_node_samples() {
        let gram = Expr::var("G").t().mm(Expr::var("G"));
        let e = gram.clone().add(gram);
        let inst = instance();
        let plan = Planner::new().plan_one(&e, &InstanceStats::from_instance(&inst));
        let registry = FunctionRegistry::standard_field();
        let options = ExecOptions { profile: true };
        let mut exec = Executor::new(&plan, &inst, &registry, options);
        let root = plan.roots()[0];
        exec.run(root).unwrap();
        let samples = exec.samples();
        assert_eq!(samples.len(), plan.nodes().len());
        let root_sample = samples[root];
        assert_eq!(root_sample.computed, 1);
        assert_eq!((root_sample.rows, root_sample.cols), (4, 4));
        assert!(root_sample.nnz > 0);
        // The shared Gram subterm is evaluated twice: one miss, one hit.
        assert!(samples.iter().any(|s| s.hits >= 1), "CSE reuse must show");
        // Inclusive timing: the root's wall time dominates its children's.
        assert!(samples
            .iter()
            .all(|s| s.computed == 0 || s.total_ns <= root_sample.total_ns));
    }
}
