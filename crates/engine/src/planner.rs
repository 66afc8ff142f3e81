//! The query planner: expression → hash-consed DAG plan, in one pass.
//!
//! Each query is walked once, bottom-up.  Every node the walk builds goes
//! through one rule table (`rewrite::RULES`) and what comes out is
//! hash-consed into the DAG:
//!
//! * **Rules** — `matlang_core::rewrite`'s simplification rules (their
//!   savings are counted into [`PlanReport::simplify_savings`]; its `let`
//!   rules act where the walk binds names), then the cost rules: transpose
//!   and ones pushdown and matrix-chain reordering, priced against the
//!   nodes' [`NodeEstimate`]s.
//! * **Hash-consing (CSE)** — every structurally distinct subexpression is
//!   interned once; repeated subtrees (within a query *and across the
//!   queries of a batch*) share a [`NodeId`], so the executor computes
//!   them once.  Names are interned to slots when first seen, and a node's
//!   key carries ids only: its operation and its environment — each free
//!   variable with the binder it resolves to, one interned id.
//! * **Lowering** — a product whose consumer is not itself a product is
//!   lowered: with a loop's canonical vector to a loop-index op
//!   ([`PlanOp::Select`], [`PlanOp::Place`], [`PlanOp::PointUpdate`]),
//!   with a diagonalized vector to a scaling kernel.
//! * **Cost model** — each node's shape / non-zero-count estimate comes from
//!   [`InstanceStats`] and its operands' as it is interned, and picks its
//!   storage representation (density against the thresholds of
//!   [`matlang_matrix::repr`]).
//!
//! Rewriting leaves nodes behind.  Once every query is built, the plan
//! keeps what the roots reach, numbered children first; one walk over the
//! reached occurrences counts references and marks the nodes that sit
//! inside a loop body without depending on its bound variables (the
//! executor's scoped memo keeps exactly those alive across iterations);
//! and a Hadamard product with a matrix product nothing else reads becomes
//! one [`PlanOp::MaskedMatMul`] when the cost model chose the sparse
//! representation for both factors and the mask.

use crate::plan::{
    AppliedRewrite, ConstVal, LoopIndex, NodeEstimate, NodeId, Plan, PlanNode, PlanOp, PlanReport,
    ReprChoice, VarSlot,
};
use matlang_core::{Dim, Expr, Instance, MatrixType};
use matlang_matrix::repr::csr_fits;
use matlang_matrix::MatrixStorage;
use matlang_semiring::Semiring;
use std::collections::hash_map::RandomState;
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};

/// Planner configuration.
#[derive(Clone, Debug)]
pub struct PlanOptions {
    /// Apply [`matlang_core::rewrite::simplify`]'s rules while planning
    /// (default `true`).
    ///
    /// Its constant-handling rules interpret literals through
    /// `f64` arithmetic, which is exact only over semirings that embed ℝ
    /// faithfully.  [`Planner`] itself is semiring-agnostic and applies
    /// this flag as given; the typed [`crate::Engine`] front door
    /// additionally gates it on [`crate::constants_fold_exactly`], so
    /// engine evaluation never folds constants over a semiring where that
    /// would change results (tropical min/max-plus, 𝔹/ℕ/ℤ with negative
    /// or fractional literals).
    pub simplify: bool,
    /// Apply the cost-based rules ([`crate::rewrite`]) while planning,
    /// lower products with a loop's canonical vector to index operations,
    /// fuse `diag(v) · A` / `A · diag(v)` products into the scaling kernels
    /// and `(A · B) ∘ M` into the masked product (default `true`).
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
}

/// FxHash, the hasher of `rustc`: one rotate-xor-multiply per word — for
/// the ids the planner assigns itself, which no query can choose to
/// collide.  Names and the operations that carry them are keyed through
/// the standard hasher.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct FxHasher(u64);

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.add(n.into());
    }

    fn write_u32(&mut self, n: u32) {
        self.add(n.into());
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The [`FxHasher`] hash of `value`.
fn hash_of(value: &(impl Hash + ?Sized)) -> u64 {
    let mut hasher = FxHasher::default();
    value.hash(&mut hasher);
    hasher.finish()
}

/// The interned environments, in one arena and found by hash.
#[derive(Debug)]
struct Envs {
    data: Vec<(VarSlot, BinderId)>,
    /// Per environment, its `data` range.
    ranges: Vec<(usize, usize)>,
    /// Hash → the newest environment with it; `next` chains older ones.
    heads: FxMap<u64, EnvId>,
    next: Vec<Option<EnvId>>,
}

impl Default for Envs {
    /// Holds the empty environment, id 0.
    fn default() -> Self {
        Envs {
            data: Vec::new(),
            ranges: vec![(0, 0)],
            heads: FxMap::from_iter([(hash_of(&[] as &[(VarSlot, BinderId)]), 0)]),
            next: vec![None],
        }
    }
}

impl Envs {
    fn get(&self, id: EnvId) -> &[(VarSlot, BinderId)] {
        let (from, to) = self.ranges[id as usize];
        &self.data[from..to]
    }

    /// Interns the environment the caller just pushed as `data[start..]`:
    /// kept when new, popped again when it exists.
    fn intern_tail(&mut self, start: usize) -> EnvId {
        let hash = hash_of(&self.data[start..]);
        let mut at = self.heads.get(&hash).copied();
        while let Some(id) = at {
            if self.get(id) == &self.data[start..] {
                self.data.truncate(start);
                return id;
            }
            at = self.next[id as usize];
        }
        let id = self.ranges.len() as EnvId;
        self.ranges.push((start, self.data.len()));
        self.next.push(self.heads.insert(hash, id));
        id
    }
}

/// A hash map keyed through [`FxHasher`].
pub(crate) type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

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
        let _plan_span = matlang_obs::trace::span("plan");
        let plan_timer = matlang_obs::enabled().then(std::time::Instant::now);
        let (simplify, cost) = (self.options.simplify, self.options.cost_rewrites);
        let size = queries.iter().map(Expr::size).sum();
        let mut builder = Builder::new(stats, size, (simplify, cost, cost));
        let mut report = PlanReport {
            queries: queries.len(),
            trace_id: matlang_obs::trace::current_id(),
            ..PlanReport::default()
        };
        let mut roots = Vec::with_capacity(queries.len());
        for query in queries {
            let applied = builder.applied.len();
            let root = builder.build(query);
            let root = builder.lower(root);
            report.tree_nodes += builder.facts[root].size;
            for rewrite in &builder.applied[applied..] {
                matlang_obs::trace::event(format!("rewrite:{}", rewrite.rule));
            }
            roots.push(root);
        }
        let plan = builder.finish(roots, report);
        if let Some(t) = plan_timer {
            matlang_obs::counter!("plan_total").inc();
            matlang_obs::histogram!("plan_latency_us").observe(t.elapsed().as_micros() as u64);
        }
        plan
    }

    /// Plans a single query; see [`Planner::plan`].
    pub fn plan_one(&self, query: &Expr, stats: &InstanceStats) -> Plan {
        self.plan(std::slice::from_ref(query), stats)
    }
}

/// Index of an interned [`Binder`].
type BinderId = u32;

/// The binder id of a name no binder in scope binds: an instance matrix.
const UNBOUND: BinderId = BinderId::MAX;

/// What a binder tells the cost model about its name: the advisory
/// statistics of its value (`None` when unknown — which also correctly
/// shadows any instance matrix of the same name), and whether it is a
/// `for`/Σ/Π∘/Π iteration variable, bound to a canonical vector.  Interned
/// by value, so two loops over the same dimension bind alike.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct Binder {
    pub(crate) stats: Option<VarStats>,
    pub(crate) iterates: bool,
}

/// A node's free variables, each with the binder its occurrences resolve
/// to, sorted — interned, so the dedup key carries one id.  The binder
/// part keeps structurally identical subexpressions *distinct* when
/// shadowing gives one name different shapes in different scopes —
/// otherwise the first-interned occurrence's estimate would misdrive
/// representation choices for the others — and lets them share when the
/// scopes agree (the same loop variable over the same dimension), which is
/// exactly what CSE wants.
type EnvId = u32;

/// What a name is bound to while the builder walks a binder's body.
#[derive(Clone, Copy, Debug)]
enum Binding {
    /// A loop variable, an accumulator, or a `let` that stays.
    Bound(BinderId),
    /// A `let` of a variable or constant, inlined at every use: every use
    /// is the value's node.  `captured` once a variable value turns out to
    /// be used under a binder of its own name; the `let` then stays.
    Inlined { node: NodeId, captured: bool },
}

/// What the builder knows of a node beyond its [`PlanNode`].
#[derive(Clone, Debug)]
pub(crate) struct Facts {
    env: EnvId,
    /// Whether evaluation provably cannot fail: every variable is known
    /// and every operator's shape precondition is certified by the
    /// estimates.  Conservative — `Apply` and the loop forms are never
    /// certified.  The rewrites that drop or reorder operands need it.
    pub(crate) total: bool,
    /// AST nodes of the expression the node stands for (lowered
    /// operations count the products they replace).
    size: usize,
    /// The loop-index or diag-pushdown lowering that made the node: the
    /// dimensions its record names and the estimated saving.
    fusion: Option<((usize, usize), f64)>,
    /// The previous node whose key hashed alike.
    next: Option<NodeId>,
}

/// The slots a loop binds in its body: one or two.
type Bound = ([VarSlot; 2], usize);

/// A loop's iteration variable as a product operand: its `Var` node, the
/// dimension of its canonical vector, and the operand's own node.
type LoopOperand = (NodeId, usize, NodeId);

/// The single planning pass.  It walks each query once, bottom-up; at each
/// node it runs the rule table ([`crate::rewrite::RULES`]: `simplify`'s
/// local rules, then the cost rules) and hash-conses what comes out.
/// Products are lowered — loop-index operations, diag fusion — when their
/// consumer is not itself a product, so the chain rule always sees whole
/// chains.  Rewritten-away nodes stay in the arena until
/// [`Builder::finish`] keeps what the roots reach.
pub(crate) struct Builder<'a> {
    pub(crate) stats: &'a InstanceStats,
    pub(crate) simplify: bool,
    pub(crate) cost: bool,
    lowering: bool,
    pub(crate) nodes: Vec<PlanNode>,
    pub(crate) facts: Vec<Facts>,
    /// Hash of `(operation, environment)` → the newest node with it;
    /// [`Facts::next`] chains the older ones.
    dedup: FxMap<u64, NodeId>,
    keys: RandomState,
    /// The `Var` node of each (slot, binder) pair, so a repeated use
    /// neither clones its name nor hashes an operation.
    var_nodes: FxMap<(VarSlot, BinderId), NodeId>,
    /// Every variable name seen so far → its dense slot, in first-seen
    /// order.
    slots: HashMap<String, VarSlot>,
    pub(crate) binders: Vec<Binder>,
    binder_ids: HashMap<Binder, BinderId>,
    envs: Envs,
    unions: FxMap<(EnvId, EnvId), EnvId>,
    scope: Vec<(VarSlot, Binding)>,
    /// The enclosing loops, innermost last: bound slots and the iteration
    /// count when the governing dimension is known.
    pub(crate) loops: Vec<(Vec<VarSlot>, Option<usize>)>,
    /// Raw product → its lowered node.
    lowered: FxMap<NodeId, NodeId>,
    /// Cost rewrites (chain reordering, transpose and ones pushdown), in
    /// application order.
    pub(crate) applied: Vec<AppliedRewrite>,
    /// AST nodes the `simplify` rules removed.
    pub(crate) simplify_savings: usize,
}

impl<'a> Builder<'a> {
    /// A builder for queries of about `size` AST nodes in all.
    pub(crate) fn new(
        stats: &'a InstanceStats,
        size: usize,
        (simplify, cost, lowering): (bool, bool, bool),
    ) -> Self {
        Builder {
            stats,
            simplify,
            cost,
            lowering,
            nodes: Vec::with_capacity(size),
            facts: Vec::with_capacity(size),
            dedup: FxMap::with_capacity_and_hasher(size, Default::default()),
            keys: RandomState::new(),
            var_nodes: FxMap::default(),
            slots: HashMap::new(),
            binders: Vec::new(),
            binder_ids: HashMap::new(),
            envs: Envs::default(),
            unions: FxMap::default(),
            scope: Vec::new(),
            loops: Vec::new(),
            lowered: FxMap::default(),
            applied: Vec::new(),
            simplify_savings: 0,
        }
    }

    /// The slot of `name`, interning it on first sight.
    fn slot(&mut self, name: &str) -> VarSlot {
        if let Some(&slot) = self.slots.get(name) {
            return slot;
        }
        let slot = self.slots.len();
        self.slots.insert(name.to_string(), slot);
        slot
    }

    fn binder(&mut self, binder: Binder) -> BinderId {
        let next = self.binders.len() as BinderId;
        let id = *self.binder_ids.entry(binder).or_insert(next);
        if id == next {
            self.binders.push(binder);
        }
        id
    }

    /// The free variables of node `id` with their binders, sorted.
    pub(crate) fn env(&self, id: NodeId) -> &[(VarSlot, BinderId)] {
        self.envs.get(self.facts[id].env)
    }

    /// The binder a use of `slot` in node `id` resolves to.
    pub(crate) fn binder_of(&self, id: NodeId, slot: VarSlot) -> Option<Binder> {
        let env = self.env(id);
        let at = env.binary_search_by_key(&slot, |&(s, _)| s).ok()?;
        self.binders.get(env[at].1 as usize).copied()
    }

    pub(crate) fn build(&mut self, expr: &Expr) -> NodeId {
        match expr {
            Expr::Var(name) => self.var(name),
            Expr::Const(c) => self.make(PlanOp::Const(ConstVal(*c))),
            Expr::Transpose(e) | Expr::Ones(e) | Expr::Diag(e) => {
                let a = self.build(e);
                self.make(match expr {
                    Expr::Transpose(_) => PlanOp::Transpose(a),
                    Expr::Ones(_) => PlanOp::Ones(a),
                    _ => PlanOp::Diag(a),
                })
            }
            Expr::MatMul(a, b) | Expr::Add(a, b) | Expr::ScalarMul(a, b) | Expr::Hadamard(a, b) => {
                let (a, b) = (self.build(a), self.build(b));
                self.make(match expr {
                    Expr::MatMul(..) => PlanOp::MatMul(a, b),
                    Expr::Add(..) => PlanOp::Add(a, b),
                    Expr::ScalarMul(..) => PlanOp::ScalarMul(a, b),
                    _ => PlanOp::Hadamard(a, b),
                })
            }
            Expr::Apply(name, args) => {
                let args: Vec<NodeId> = args.iter().map(|a| self.build(a)).collect();
                self.make(PlanOp::Apply(name.clone(), args))
            }
            Expr::Let { var, value, body } => self.build_let(var, value, body),
            Expr::For {
                var,
                var_dim,
                acc,
                acc_type,
                init,
                body,
            } => {
                let init = init.as_ref().map(|e| self.build(e));
                let n = self.stats.dim(var_dim);
                let acc_stats = self.stats.shape_of(acc_type).map(|(rows, cols)| VarStats {
                    rows,
                    cols,
                    nnz: rows * cols,
                });
                let (var_slot, acc_slot) = (self.slot(var), self.slot(acc));
                let iterates = self.loop_binder(n);
                let accumulates = self.binder(Binder {
                    stats: acc_stats,
                    iterates: false,
                });
                self.scope.push((var_slot, Binding::Bound(iterates)));
                self.loops.push((vec![var_slot, acc_slot], n));
                let (_, body) = self.within(acc_slot, Binding::Bound(accumulates), body);
                self.loops.pop();
                self.scope.pop();
                self.make(PlanOp::For {
                    var: var.clone(),
                    var_slot,
                    var_dim: var_dim.clone(),
                    acc: acc.clone(),
                    acc_slot,
                    acc_type: acc_type.clone(),
                    init,
                    body,
                })
            }
            Expr::Sum { var, var_dim, body }
            | Expr::HProd { var, var_dim, body }
            | Expr::MProd { var, var_dim, body } => {
                let n = self.stats.dim(var_dim);
                let var_slot = self.slot(var);
                let iterates = self.loop_binder(n);
                self.loops.push((vec![var_slot], n));
                let (_, body) = self.within(var_slot, Binding::Bound(iterates), body);
                self.loops.pop();
                let (var, var_dim) = (var.clone(), var_dim.clone());
                self.make(match expr {
                    Expr::Sum { .. } => PlanOp::Sum {
                        var,
                        var_slot,
                        var_dim,
                        body,
                    },
                    Expr::HProd { .. } => PlanOp::HProd {
                        var,
                        var_slot,
                        var_dim,
                        body,
                    },
                    _ => PlanOp::MProd {
                        var,
                        var_slot,
                        var_dim,
                        body,
                    },
                })
            }
        }
    }

    /// A use of `name`: the inlined value's node, or the `Var` node of the
    /// binder in scope.  An inlined variable used under a binder of its own
    /// name marks its `let` captured.
    fn var(&mut self, name: &str) -> NodeId {
        let slot = self.slot(name);
        let at = self.scope.iter().rposition(|&(s, _)| s == slot);
        let binder = match at.map(|at| self.scope[at].1) {
            Some(Binding::Inlined { node, .. }) => {
                let at = at.expect("found above");
                if let PlanOp::Var(_, target) = self.nodes[node].op {
                    let captured = self.scope[at + 1..]
                        .iter()
                        .any(|&(s, b)| s == target && matches!(b, Binding::Bound(_)));
                    if let Binding::Inlined { captured: mark, .. } = &mut self.scope[at].1 {
                        *mark |= captured;
                    }
                }
                return node;
            }
            Some(Binding::Bound(binder)) => binder,
            None => UNBOUND,
        };
        if let Some(&id) = self.var_nodes.get(&(slot, binder)) {
            return id;
        }
        self.envs.data.push((slot, binder));
        let env = self.envs.intern_tail(self.envs.data.len() - 1);
        let id = self.insert(PlanOp::Var(name.to_string(), slot), env, None);
        self.var_nodes.insert((slot, binder), id);
        id
    }

    fn loop_binder(&mut self, n: Option<usize>) -> BinderId {
        self.binder(Binder {
            stats: n.map(|rows| VarStats {
                rows,
                cols: 1,
                nnz: 1,
            }),
            iterates: true,
        })
    }

    /// Builds `body` with `slot` bound as given, returning the binding as
    /// the walk left it.
    fn within(&mut self, slot: VarSlot, binding: Binding, body: &Expr) -> (Binding, NodeId) {
        self.scope.push((slot, binding));
        let body = self.build(body);
        let (_, binding) = self.scope.pop().expect("pushed above");
        (binding, body)
    }

    /// `let var = value in body`, with `simplify`'s `let` rules: a variable
    /// or constant value is inlined at every use (unless that would capture
    /// it), `let X = e in X` is `e`, and a dead binding is dropped.
    fn build_let(&mut self, var: &str, value_expr: &Expr, body: &Expr) -> NodeId {
        let before = (self.applied.len(), self.simplify_savings);
        let value = self.build(value_expr);
        let after = (self.applied.len(), self.simplify_savings);
        let slot = self.slot(var);
        if self.simplify && matches!(self.nodes[value].op, PlanOp::Var(..) | PlanOp::Const(_)) {
            let inlined = Binding::Inlined {
                node: value,
                captured: false,
            };
            if let (Binding::Inlined { captured, .. }, inlined) = self.within(slot, inlined, body) {
                if !captured {
                    self.simplify_savings += 2;
                    return inlined;
                }
            }
            // Captured: build the body again with the `let` in place.
            self.applied.truncate(after.0);
            self.simplify_savings = after.1;
        }
        let stats = self.nodes[value].est.map(|e| VarStats {
            rows: e.rows,
            cols: e.cols,
            nnz: e.nnz.round() as usize,
        });
        let binder = self.binder(Binder {
            stats,
            iterates: false,
        });
        let (_, body) = self.within(slot, Binding::Bound(binder), body);
        if self.simplify {
            if matches!(self.nodes[body].op, PlanOp::Var(_, s) if s == slot) {
                self.simplify_savings += 2;
                return value;
            }
            if !self.env(body).iter().any(|&(s, _)| s == slot) {
                // The binding is dead; keep only the body.  (The bound
                // value is pure — the language has no effects.)  Nothing
                // the value's rewrites did counts: it all goes.
                self.applied.drain(before.0..after.0);
                self.simplify_savings -= after.1 - before.1;
                self.simplify_savings += 1 + value_expr.size();
                return body;
            }
        }
        self.make(PlanOp::Let {
            var: var.to_string(),
            var_slot: slot,
            value,
            body,
        })
    }

    /// Runs the rule table on `op`, whose children are built, and
    /// hash-conses what comes out.
    pub(crate) fn make(&mut self, op: PlanOp) -> NodeId {
        self.apply_rules(op, false)
    }

    /// [`make`](Builder::make) with the cost rules only — for the nodes a
    /// cost rule builds.
    pub(crate) fn make_cost(&mut self, op: PlanOp) -> NodeId {
        self.apply_rules(op, true)
    }

    fn apply_rules(&mut self, op: PlanOp, cost_only: bool) -> NodeId {
        for rule in crate::rewrite::RULES {
            if (rule.cost || !cost_only) && (rule.matches)(self, &op) {
                if let Some(id) = (rule.apply)(self, &op, rule.name) {
                    return id;
                }
            }
        }
        self.intern(op)
    }

    /// Hash-conses `op` without rewriting it.  Every operation but a
    /// product consumes lowered children, and a sum of a matrix and a
    /// scaled unit matrix becomes a point update.
    pub(crate) fn intern(&mut self, mut op: PlanOp) -> NodeId {
        if self.lowering && !matches!(op, PlanOp::MatMul(..)) {
            op.map_children(|child| self.lower(child));
        }
        let env = self.env_from_children(&op);
        if self.lowering {
            if let PlanOp::Add(mat, update) = op {
                if let Some(id) = self.lower_point_update(mat, update, env) {
                    return id;
                }
            }
        }
        self.insert(op, env, None)
    }

    /// The node for `op` under `env`, interning it on first sight.
    fn insert(&mut self, op: PlanOp, env: EnvId, fusion: Option<((usize, usize), f64)>) -> NodeId {
        let hash = self.keys.hash_one((&op, env));
        let mut at = self.dedup.get(&hash).copied();
        while let Some(id) = at {
            if self.facts[id].env == env && self.nodes[id].op == op {
                return id;
            }
            at = self.facts[id].next;
        }
        let est = self.estimate(&op, env);
        let id = self.nodes.len();
        let facts = Facts {
            env,
            total: est.is_some() && self.total(&op),
            size: self.size(&op),
            fusion,
            next: self.dedup.insert(hash, id),
        };
        self.nodes.push(PlanNode {
            op,
            free_vars: Vec::new(),
            refs: 0,
            hoistable: false,
            cacheable: false,
            est,
        });
        self.facts.push(facts);
        id
    }

    /// The environment of `op` from its children's: their union, less the
    /// names a binder binds.
    fn env_from_children(&mut self, op: &PlanOp) -> EnvId {
        let bound: &[VarSlot] = match op {
            PlanOp::Let { var_slot, .. }
            | PlanOp::Sum { var_slot, .. }
            | PlanOp::HProd { var_slot, .. }
            | PlanOp::MProd { var_slot, .. } => std::slice::from_ref(var_slot),
            PlanOp::For {
                var_slot, acc_slot, ..
            } => &[*var_slot, *acc_slot],
            _ => &[],
        };
        let mut children = op.child_ids();
        let Some(first) = children.next() else {
            return 0;
        };
        let mut env = self.facts[first].env;
        // A binder's body is its last child, and the only one its bound
        // names are subtracted from: a `let` value or a `for` initializer
        // sits outside.
        if bound.is_empty() {
            for child in children {
                env = self.union(env, self.facts[child].env);
            }
            return env;
        }
        let body = children.last().map(|body| self.facts[body].env);
        let inner = body.unwrap_or(env);
        let start = self.envs.data.len();
        let (from, to) = self.envs.ranges[inner as usize];
        for at in from..to {
            let entry = self.envs.data[at];
            if !bound.contains(&entry.0) {
                self.envs.data.push(entry);
            }
        }
        let kept = self.envs.intern_tail(start);
        match body {
            Some(_) => self.union(env, kept),
            None => kept,
        }
    }

    /// The union of two environments, memoized: most pairs recur.
    fn union(&mut self, a: EnvId, b: EnvId) -> EnvId {
        if a == b || b == 0 {
            return a;
        }
        if a == 0 {
            return b;
        }
        if let Some(&env) = self.unions.get(&(a, b)) {
            return env;
        }
        let start = self.envs.data.len();
        for id in [a, b] {
            let (from, to) = self.envs.ranges[id as usize];
            self.envs.data.extend_from_within(from..to);
        }
        self.envs.data[start..].sort_unstable();
        let mut kept = start;
        for at in start..self.envs.data.len() {
            if kept == start || self.envs.data[at] != self.envs.data[kept - 1] {
                self.envs.data[kept] = self.envs.data[at];
                kept += 1;
            }
        }
        self.envs.data.truncate(kept);
        let env = self.envs.intern_tail(start);
        self.unions.insert((a, b), env);
        env
    }

    /// The lowered form of node `id`: a product becomes a loop-index
    /// operation or a fused scaling when its operands allow, and its
    /// factors are lowered in turn.  Every other node is already lowered.
    pub(crate) fn lower(&mut self, id: NodeId) -> NodeId {
        let PlanOp::MatMul(a, b) = self.nodes[id].op else {
            return id;
        };
        if !self.lowering {
            return id;
        }
        if let Some(&done) = self.lowered.get(&id) {
            return done;
        }
        let out = self.lower_product(id, a, b);
        self.lowered.insert(id, out);
        self.lowered.insert(out, out);
        out
    }

    /// Loop-index lowering, then diag pushdown: fuse `diag(v) · B` /
    /// `A · diag(v)` into the scaling kernels when the statistics certify
    /// the shapes (so the fused kernel cannot hit an error case the
    /// unfused product would not).  Operands are lowered in the unfused
    /// product's evaluation order.
    fn lower_product(&mut self, raw: NodeId, a: NodeId, b: NodeId) -> NodeId {
        if let Some(id) = self.lower_loop_product(raw, a, b) {
            return id;
        }
        if let PlanOp::Diag(vec) = self.nodes[a].op {
            let mat = self.lower(b);
            return self
                .fuse_diag(raw, vec, mat, true)
                .unwrap_or_else(|| self.product(a, mat));
        }
        if let PlanOp::Diag(vec) = self.nodes[b].op {
            let mat = self.lower(a);
            return self
                .fuse_diag(raw, vec, mat, false)
                .unwrap_or_else(|| self.product(mat, b));
        }
        let (a, b) = (self.lower(a), self.lower(b));
        self.product(a, b)
    }

    /// The plain product of two lowered nodes.
    fn product(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let op = PlanOp::MatMul(a, b);
        let env = self.env_from_children(&op);
        self.insert(op, env, None)
    }

    /// Node `id` as a loop operand — `v`, or `vᵀ` when `transposed` — when
    /// `v` is a loop's iteration variable over a known dimension there.
    fn loop_operand(&self, id: NodeId, transposed: bool) -> Option<LoopOperand> {
        let var = match (&self.nodes[id].op, transposed) {
            (PlanOp::Transpose(inner), true) => *inner,
            (PlanOp::Var(..), false) => id,
            _ => return None,
        };
        let PlanOp::Var(_, slot) = self.nodes[var].op else {
            return None;
        };
        let binder = self.binder_of(var, slot).filter(|b| b.iterates)?;
        Some((var, binder.stats?.rows, id))
    }

    /// The index a loop operand's `Var` node reads.
    fn loop_index(&self, var: NodeId) -> LoopIndex {
        let PlanOp::Var(name, slot) = &self.nodes[var].op else {
            unreachable!("a loop operand is a variable");
        };
        LoopIndex {
            var: name.clone(),
            slot: *slot,
        }
    }

    /// Loop-index lowering of the product `raw = a · b` when an operand is
    /// a loop's canonical vector `v`/`w` (see [`PlanOp::Select`] and
    /// [`PlanOp::Place`]):
    ///
    /// * `vᵀ·M·w`, either association → one entry of `M`;
    /// * `v·wᵀ` → the unit matrix;
    /// * `vᵀ·M` → row `v` of `M`; `M·w` → column `w` of `M`;
    /// * `v·y` → the row `y` placed as row `v`; `x·wᵀ` → the column `x`
    ///   placed as column `w`.
    ///
    /// `None` when neither operand is one, so the product lowers as usual.
    fn lower_loop_product(&mut self, raw: NodeId, a: NodeId, b: NodeId) -> Option<NodeId> {
        let (row, col) = (self.loop_operand(a, true), self.loop_operand(b, false));
        if let (PlanOp::MatMul(l, m), Some(w)) = (&self.nodes[a].op, &col) {
            if let Some(v) = self.loop_operand(*l, true) {
                let m = *m;
                return Some(self.lower_index(raw, m, Some(v), Some(*w), false));
            }
        }
        if let (Some(v), PlanOp::MatMul(m, r)) = (&row, &self.nodes[b].op) {
            if let Some(w) = self.loop_operand(*r, false) {
                let m = *m;
                return Some(self.lower_index(raw, m, Some(*v), Some(w), false));
            }
        }
        let (placed_row, placed_col) = (self.loop_operand(a, false), self.loop_operand(b, true));
        Some(match (row, col, placed_row, placed_col) {
            (_, _, Some(v), Some(w)) => self.unit(raw, v, w),
            (Some(v), ..) => self.lower_index(raw, b, Some(v), None, false),
            (_, Some(w), ..) => self.lower_index(raw, a, None, Some(w), false),
            (_, _, Some(v), _) => self.lower_index(raw, b, Some(v), None, true),
            (_, _, _, Some(w)) => self.lower_index(raw, a, None, Some(w), true),
            _ => return None,
        })
    }

    /// `vᵀ·x·w` as a [`PlanOp::Select`] — or, with `place`, `v·x·wᵀ` as a
    /// [`PlanOp::Place`] — either factor absent, when `x`'s estimate
    /// certifies the shapes, so the index op cannot fail where the products
    /// would not.  Otherwise the unfused products around the lowered `x`.
    fn lower_index(
        &mut self,
        raw: NodeId,
        x: NodeId,
        row: Option<LoopOperand>,
        col: Option<LoopOperand>,
        place: bool,
    ) -> NodeId {
        let x = self.lower(x);
        // Selecting needs `x` to span the vectors' dimensions; placing
        // needs it to be a row (for `v·x`) or a column (for `x·wᵀ`).
        let fits = |factor: &Option<LoopOperand>, have: usize| {
            factor
                .as_ref()
                .map_or(true, |(_, dim, _)| have == if place { 1 } else { *dim })
        };
        let Some(e) = self.nodes[x]
            .est
            .filter(|e| fits(&row, e.rows) && fits(&col, e.cols))
        else {
            let mut id = x;
            if let Some((_, _, v)) = row {
                id = self.product(v, id);
            }
            if let Some((_, _, w)) = col {
                id = self.product(id, w);
            }
            return id;
        };
        // The saving: the own work of the first unfused product, `x` with a
        // one-entry canonical vector, in the planner's cost model.
        let x_est = (e.rows, e.cols, e.nnz);
        let (_, saving) = match (&row, &col) {
            (Some((_, n, _)), _) => {
                product_cost(if place { (*n, 1, 1.0) } else { (1, *n, 1.0) }, x_est)
            }
            (None, Some((_, n, _))) => {
                product_cost(x_est, if place { (1, *n, 1.0) } else { (*n, 1, 1.0) })
            }
            (None, None) => unreachable!("a lowered product has a canonical factor"),
        };
        let row = row.map(|(v, ..)| self.loop_index(v));
        let col = col.map(|(w, ..)| self.loop_index(w));
        let op = if place {
            PlanOp::Place {
                vec: Some(x),
                row,
                col,
            }
        } else {
            PlanOp::Select { mat: x, row, col }
        };
        let env = self.facts[raw].env;
        self.insert(op, env, Some(((e.rows, e.cols), saving)))
    }

    /// The unit matrix `v·wᵀ` as a [`PlanOp::Place`] without an operand —
    /// the product of an `n × 1` and a `1 × m` vector is always defined.
    fn unit(&mut self, raw: NodeId, v: LoopOperand, w: LoopOperand) -> NodeId {
        let op = PlanOp::Place {
            vec: None,
            row: Some(self.loop_index(v.0)),
            col: Some(self.loop_index(w.0)),
        };
        let (_, saving) = product_cost((v.1, 1, 1.0), (1, w.1, 1.0));
        let env = self.facts[raw].env;
        self.insert(op, env, Some(((v.1, w.1), saving)))
    }

    /// Loop-index lowering of `mat + s × (v·wᵀ)`, whose scaled unit matrix
    /// is already a placement: a [`PlanOp::PointUpdate`] of `mat` when the
    /// estimates certify `mat` is `n × m` and `s` a scalar.
    fn lower_point_update(&mut self, mat: NodeId, update: NodeId, env: EnvId) -> Option<NodeId> {
        let PlanOp::ScalarMul(scalar, unit) = self.nodes[update].op else {
            return None;
        };
        let PlanOp::Place {
            vec: None,
            row: Some(row),
            col: Some(col),
        } = &self.nodes[unit].op
        else {
            return None;
        };
        let dims = self.nodes[unit].est.map(|e| (e.rows, e.cols));
        let certified = matches!(
            (self.nodes[mat].est, self.nodes[scalar].est, dims),
            (Some(m), Some(s), Some(dims)) if (m.rows, m.cols) == dims && (s.rows, s.cols) == (1, 1)
        );
        if !certified {
            return None;
        }
        let op = PlanOp::PointUpdate {
            mat,
            scalar,
            row: row.clone(),
            col: col.clone(),
        };
        let (n, m) = dims.expect("certified");
        let (_, saving) = product_cost((n, 1, 1.0), (1, m, 1.0));
        Some(self.insert(op, env, Some(((n, m), saving))))
    }

    /// The fused scaling node for `diag(vec) · mat` (`row_side`) or
    /// `mat · diag(vec)` when the estimates certify that `vec` is a vector
    /// of the matching dimension — the condition under which the fused
    /// kernel is value- and error-equivalent to the unfused product.
    /// `None` (the caller keeps `Diag` + `MatMul`) when the statistics
    /// cannot certify the shapes.
    fn fuse_diag(
        &mut self,
        raw: NodeId,
        vec: NodeId,
        mat: NodeId,
        row_side: bool,
    ) -> Option<NodeId> {
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
        let diag = (ve.rows, ve.rows, ve.nnz);
        let matrix = (me.rows, me.cols, me.nnz);
        let (l, r) = if row_side {
            (diag, matrix)
        } else {
            (matrix, diag)
        };
        let (_, own_work) = product_cost(l, r);
        let unfused = own_work + ve.nnz;
        let saving = (unfused - me.nnz).max(0.0);
        let op = if row_side {
            PlanOp::ScaleRows { vec, mat }
        } else {
            PlanOp::ScaleCols { mat, vec }
        };
        let env = self.facts[raw].env;
        Some(self.insert(op, env, Some(((me.rows, me.cols), saving))))
    }

    /// Keeps what the roots reach, in creation order (children first),
    /// counts each node's occurrences and loop invariance in one walk, fuses
    /// masked products and assembles the [`Plan`].
    fn finish(mut self, mut roots: Vec<NodeId>, mut report: PlanReport) -> Plan {
        report.simplify_savings = self.simplify_savings;
        report.rewrites = std::mem::take(&mut self.applied);
        // Number the reached nodes in the order their first occurrences
        // complete: children first, in evaluation order.
        let mut new_id = vec![usize::MAX; self.nodes.len()];
        let mut count = 0;
        for &root in &roots {
            self.number(root, &mut new_id, &mut count);
        }
        self.renumber(&new_id, count, &mut roots);
        for id in 0..self.nodes.len() {
            let env = self.envs.get(self.facts[id].env);
            let mut vars: Vec<VarSlot> = env.iter().map(|&(s, _)| s).collect();
            vars.dedup();
            self.nodes[id].free_vars = vars;
        }
        for &root in &roots {
            self.occurrence(root, None, &mut report.rewrites);
        }
        if self.lowering {
            self.fuse_masked_products(&mut roots, &mut report.rewrites);
        }
        let slots = self.slots;
        let mut nodes = self.nodes;
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
            for &var in &node.free_vars {
                dependents[var].push(id);
            }
        }
        report.dag_nodes = nodes.len();
        Plan {
            nodes,
            roots,
            slots,
            dependents,
            report,
        }
    }

    /// Numbers node `id` and what it reaches in post-order.
    fn number(&self, id: NodeId, new_id: &mut [usize], count: &mut usize) {
        if new_id[id] != usize::MAX {
            return;
        }
        for child in self.nodes[id].op.child_ids() {
            self.number(child, new_id, count);
        }
        new_id[id] = *count;
        *count += 1;
    }

    /// Moves node `id` to `new_id[id]`, dropping the `usize::MAX` ones, and
    /// renumbers children and `roots` to match; `count` nodes remain.
    fn renumber(&mut self, new_id: &[usize], count: usize, roots: &mut [NodeId]) {
        let mut nodes: Vec<Option<(PlanNode, Facts)>> = (0..count).map(|_| None).collect();
        let old = self.nodes.drain(..).zip(self.facts.drain(..));
        for (id, node) in old.enumerate() {
            if let Some(slot) = nodes.get_mut(new_id[id]) {
                *slot = Some(node);
            }
        }
        for (mut node, facts) in nodes
            .into_iter()
            .map(|n| n.expect("every kept node numbered"))
        {
            node.op.map_children(|child| new_id[child]);
            self.nodes.push(node);
            self.facts.push(facts);
        }
        for root in roots {
            *root = new_id[*root];
        }
    }

    /// One occurrence of node `id` in the planned tree, inside a loop that
    /// binds `innermost` (if any): counts the reference, marks the node
    /// loop-invariant when it does not mention the innermost loop's bound
    /// variables, and records the lowering that made the node after those
    /// of its operands.
    fn occurrence(
        &mut self,
        id: NodeId,
        innermost: Option<Bound>,
        fused: &mut Vec<AppliedRewrite>,
    ) {
        let node = &mut self.nodes[id];
        node.refs += 1;
        if let Some((slots, n)) = innermost {
            if slots[..n]
                .iter()
                .all(|s| node.free_vars.binary_search(s).is_err())
            {
                node.hoistable = true;
            }
        }
        let bound = match node.op {
            PlanOp::For {
                var_slot, acc_slot, ..
            } => Some(([var_slot, acc_slot], 2)),
            PlanOp::Sum { var_slot, .. }
            | PlanOp::HProd { var_slot, .. }
            | PlanOp::MProd { var_slot, .. } => Some(([var_slot, 0], 1)),
            _ => None,
        };
        let count = node.op.child_ids().count();
        for i in 0..count {
            let child = self.nodes[id].op.child_ids().nth(i).expect("counted above");
            // A loop's body is its last child; a `for`'s initializer sits
            // outside the loop.
            let scope = if i + 1 == count && bound.is_some() {
                bound
            } else {
                innermost
            };
            self.occurrence(child, scope, fused);
        }
        if let Some((dims, saving)) = self.facts[id].fusion {
            fused.push(fusion_record(&self.nodes[id].op, dims, saving));
        }
    }

    /// Masked-product fusion over the finished DAG: rewrites
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
    /// `roots` included.
    fn fuse_masked_products(&mut self, roots: &mut [NodeId], records: &mut Vec<AppliedRewrite>) {
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
        let children = self.nodes.iter().flat_map(|node| node.op.child_ids());
        for child in children.chain(roots.iter().copied()) {
            consumers[child] += 1;
        }
        // Every slot some loop or `let` of the plan rebinds.
        let rebound: Vec<VarSlot> = self
            .nodes
            .iter()
            .flat_map(|node| match node.op {
                PlanOp::For {
                    var_slot, acc_slot, ..
                } => vec![var_slot, acc_slot],
                PlanOp::Let { var_slot, .. }
                | PlanOp::Sum { var_slot, .. }
                | PlanOp::HProd { var_slot, .. }
                | PlanOp::MProd { var_slot, .. } => vec![var_slot],
                _ => Vec::new(),
            })
            .collect();
        let mut keep = vec![true; n];
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
                    let product_vars = &self.nodes[product].free_vars;
                    let kept_across_iterations = self.nodes[product].hoistable
                        && self.nodes[mask].free_vars.iter().any(|var| {
                            rebound.contains(var) && product_vars.binary_search(var).is_err()
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
            let fused = self
                .estimate(&op, self.facts[id].env)
                .expect("operand estimates were just certified");
            let unfused_work = self.nodes[id].est.map_or(fused.work, |e| e.work);
            records.push(AppliedRewrite {
                rule: "masked-product",
                detail: format!(
                    "([{}×{}] product) ∘ mask fused into a masked product",
                    fused.rows, fused.cols
                ),
                saving: (unfused_work - fused.work).max(0.0),
            });
            self.nodes[id].op = op;
            keep[product] = false;
        }
        if !keep.contains(&false) {
            return;
        }
        let mut new_id = Vec::with_capacity(n);
        let mut count = 0;
        for &kept in &keep {
            new_id.push(if kept { count } else { usize::MAX });
            count += usize::from(kept);
        }
        self.renumber(&new_id, count, roots);
        // Re-derive every estimate above a masked product from its new one.
        // A variable's or a placement's estimate came from its scope.
        for id in 0..self.nodes.len() {
            if !matches!(self.nodes[id].op, PlanOp::Var(..) | PlanOp::Place { .. }) {
                self.nodes[id].est = self.estimate(&self.nodes[id].op, self.facts[id].env);
            }
        }
    }

    /// The statistics of a use of `slot` under `env`: its binder's, else
    /// the instance matrix's.
    fn var_stats(&self, env: EnvId, slot: VarSlot, name: &str) -> Option<VarStats> {
        let env = self.envs.get(env);
        match env.iter().find(|&&(s, _)| s == slot) {
            Some(&(_, b)) if b != UNBOUND => self.binders[b as usize].stats,
            _ => self.stats.vars.get(name).copied(),
        }
    }

    fn estimate(&self, op: &PlanOp, env: EnvId) -> Option<NodeEstimate> {
        let est = |id: &NodeId| self.nodes[*id].est;
        match op {
            PlanOp::Var(name, slot) => {
                let s = self.var_stats(env, *slot, name)?;
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
                // Materializing the diagonal writes its entries — what the
                // ones pushdown saves when it skips a `diag`.
                let a = est(a)?;
                Some(finish(a.rows, a.rows, a.nnz, a.work + a.nnz))
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
                let dim = |index: &LoopIndex| self.var_stats(env, index.slot, &index.var);
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

    /// Whether `op` provably evaluates without error, given its operands
    /// (the caller has an estimate for it).
    fn total(&self, op: &PlanOp) -> bool {
        let total = |id: &NodeId| self.facts[*id].total;
        let shape = |id: &NodeId| self.nodes[*id].est.map(|e| (e.rows, e.cols));
        match op {
            PlanOp::Var(..) | PlanOp::Const(_) => true,
            PlanOp::Transpose(a) | PlanOp::Ones(a) => total(a),
            PlanOp::Diag(a) => total(a) && shape(a).is_some_and(|(_, cols)| cols == 1),
            PlanOp::MatMul(a, b)
            | PlanOp::ScaleRows { vec: a, mat: b }
            | PlanOp::ScaleCols { mat: a, vec: b }
            | PlanOp::PointUpdate {
                mat: a, scalar: b, ..
            }
            | PlanOp::Let {
                value: a, body: b, ..
            } => total(a) && total(b),
            PlanOp::Add(a, b) | PlanOp::Hadamard(a, b) => {
                total(a) && total(b) && shape(a) == shape(b)
            }
            PlanOp::ScalarMul(a, b) => total(a) && total(b) && shape(a) == Some((1, 1)),
            PlanOp::Select { mat, .. } => total(mat),
            PlanOp::Place { vec, .. } => vec.as_ref().map_or(true, total),
            // An unknown function name or a shape mismatch among the
            // arguments only surfaces at runtime.
            PlanOp::MaskedMatMul { .. }
            | PlanOp::Apply(..)
            | PlanOp::For { .. }
            | PlanOp::Sum { .. }
            | PlanOp::HProd { .. }
            | PlanOp::MProd { .. } => false,
        }
    }

    /// AST nodes of the expression `op` stands for: a lowered operation
    /// counts the canonical-vector products it replaces.
    fn size(&self, op: &PlanOp) -> usize {
        let size = |id: &NodeId| self.facts[*id].size;
        let with =
            |index: &Option<LoopIndex>, nodes: usize| if index.is_some() { nodes } else { 0 };
        match op {
            PlanOp::Select { mat, row, col } => size(mat) + with(row, 3) + with(col, 2),
            PlanOp::Place {
                vec: Some(vec),
                row,
                col,
            } => size(vec) + with(row, 2) + with(col, 3),
            PlanOp::Place { vec: None, .. } => 4,
            PlanOp::PointUpdate { mat, scalar, .. } => size(mat) + size(scalar) + 6,
            PlanOp::ScaleRows { .. } | PlanOp::ScaleCols { .. } | PlanOp::MaskedMatMul { .. } => {
                2 + op.child_ids().map(|c| size(&c)).sum::<usize>()
            }
            _ => 1 + op.child_ids().map(|c| size(&c)).sum::<usize>(),
        }
    }
}

/// The record of the lowering that made `op`: a diag pushdown into a
/// scaling kernel, or a loop-index lowering, whose `saving` is the own work
/// of the first unfused product it replaces.
fn fusion_record(op: &PlanOp, (rows, cols): (usize, usize), saving: f64) -> AppliedRewrite {
    let (rule, detail) = match op {
        PlanOp::ScaleRows { .. } => (
            "diag-pushdown",
            format!("diag(v) · [{rows}×{cols}] fused into row scaling"),
        ),
        PlanOp::ScaleCols { .. } => (
            "diag-pushdown",
            format!("[{rows}×{cols}] · diag(v) fused into column scaling"),
        ),
        other => (
            "loop-index",
            format!(
                "[{rows}×{cols}] product with a loop's canonical vector → {}",
                other.label()
            ),
        ),
    };
    AppliedRewrite {
        rule,
        detail,
        saving,
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

/// Clamps the non-zero estimate to the shape and predicts the layout the
/// value will take, by the rule [`csr_fits`] of [`matlang_matrix::repr`].
fn finish(rows: usize, cols: usize, nnz: f64, work: f64) -> NodeEstimate {
    let nnz = nnz.min((rows * cols) as f64);
    let choice = if csr_fits(rows, cols, nnz) {
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
        let v = plan.slots["v"];
        let gram_node = plan
            .nodes()
            .iter()
            .find(|n| matches!(n.op, PlanOp::MatMul(_, _)) && !n.free_vars.contains(&v))
            .expect("gram node present");
        assert!(gram_node.hoistable);
        assert!(gram_node.cacheable);
        // vᵀ·(GᵀG) depends on v: not hoistable.
        let dependent = plan
            .nodes()
            .iter()
            .find(|n| matches!(n.op, PlanOp::MatMul(_, _)) && n.free_vars.contains(&v))
            .expect("v-dependent node present");
        assert!(!dependent.hoistable);
        assert!(plan.report.hoistable_nodes >= 1);
    }

    #[test]
    fn free_vars_subtract_binders() {
        let e = Expr::sum("v", "n", Expr::var("v").t().mm(Expr::var("G")));
        let plan = Planner::new().plan_one(&e, &stats());
        let root = plan.node(plan.roots()[0]);
        assert_eq!(root.free_vars, [plan.slots["G"]]);
        // vᵀ·G is lowered to one row selection, which depends on v; the Σ
        // node itself does not.
        let dependents = plan.dependents_of("v");
        assert_eq!(dependents.len(), 1);
        assert_eq!(plan.node(dependents[0]).op.label(), "select-row");
    }

    #[test]
    fn simplify_savings_are_reported() {
        let e = Expr::lit(1.0).smul(Expr::var("G").t().t());
        let expected = matlang_core::rewrite::savings(&e);
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
    fn inlined_lets_never_capture_a_rebound_variable() {
        use matlang_core::{evaluate, FunctionRegistry, Instance};
        use matlang_matrix::Matrix;
        use matlang_semiring::Real;
        // Σw. let Y = w in Σw. (wᵀ·Y) × G is n·G: `Y` is the outer loop's
        // vector.  Inlined, the inner loop's `w` would capture it: n²·G.
        let inner = Expr::var("w").t().mm(Expr::var("Y")).smul(Expr::var("G"));
        let e = Expr::sum(
            "w",
            "n",
            Expr::let_in("Y", Expr::var("w"), Expr::sum("w", "n", inner)),
        );
        let inst: Instance<Real> = Instance::new().with_dim("n", 3).with_matrix(
            "G",
            Matrix::from_f64_rows(&[&[1.0, 2.0, 0.0], &[0.0, 3.0, 1.0], &[4.0, 0.0, 5.0]]).unwrap(),
        );
        let registry = FunctionRegistry::standard_field();
        let planned = crate::Engine::new().evaluate(&e, &inst, &registry).unwrap();
        assert_eq!(planned, evaluate(&e, &inst, &registry).unwrap());
        let plan = Planner::new().plan_one(&e, &InstanceStats::from_instance(&inst));
        assert!(plan
            .nodes()
            .iter()
            .any(|n| matches!(n.op, PlanOp::Let { .. })));
        assert_eq!(plan.report.simplify_savings, 0);
    }
}
