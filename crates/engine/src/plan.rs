//! The physical plan IR: a hash-consed DAG of MATLANG operations.
//!
//! Where the tree-walking evaluator in `matlang_core` re-evaluates every
//! occurrence of a subexpression, a [`Plan`] assigns each *structurally
//! distinct* subexpression a single [`NodeId`]: identical subtrees are
//! interned to the same node (common-subexpression elimination), and the
//! executor memoizes one result per node.  Loop-invariant hoisting falls
//! out of the same mechanism — each node records the set of matrix
//! variables its value depends on ([`PlanNode::free_vars`]), the plan keeps
//! a reverse index from variable to dependent nodes, and the executor
//! drops exactly those cache entries when a loop rebinds its iteration
//! vector.  A node inside a Σ/Π body that does not mention the loop
//! variable therefore keeps its cached value across all `n` iterations: it
//! is computed once, exactly as if it had been hoisted out of the loop.
//! Variable names are interned to dense [`VarSlot`]s while the plan is
//! built, so the executor's environment and that reverse index are plain
//! vectors: rebinding a loop variable hashes and allocates nothing.
//!
//! Plans are built by the [`crate::Planner`] and evaluated by the
//! [`crate::Executor`]; [`PlanReport`] summarizes what the planner did
//! (CSE sharing, hoistable nodes, `rewrite::simplify` savings, per-node
//! representation choices).

use matlang_core::MatrixType;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::hash::{Hash, Hasher};

/// Index of a node in its [`Plan`]; children always have smaller ids than
/// their parents (the node list is in topological order).
pub type NodeId = usize;

/// Dense index of a variable *name* in its [`Plan`]: every occurrence of
/// one name — instance matrix, loop vector, accumulator or `let` binding,
/// shadowed or not — shares one slot, mirroring the by-name scoping of the
/// tree evaluator.  Operations carry the slot beside the name; the name
/// stays the identity ([`Plan::explain`], [`Plan::structure_fingerprint`]).
pub type VarSlot = usize;

/// A literal scalar with **bitwise** equality and hashing, so that plan
/// operations containing constants can be hash-consed.  (Plain `f64` is not
/// `Eq`/`Hash`; bit equality is stricter than `==` only for `NaN` and
/// `-0.0`, where treating the values as distinct is the conservative
/// choice.)
#[derive(Clone, Copy, Debug)]
pub struct ConstVal(pub f64);

impl PartialEq for ConstVal {
    fn eq(&self, other: &Self) -> bool {
        self.0.to_bits() == other.0.to_bits()
    }
}

impl Eq for ConstVal {}

impl Hash for ConstVal {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.0.to_bits());
    }
}

/// A loop's iteration variable read as an index: the operand position of
/// the canonical vector `bᵢ` it is bound to, which the executor never
/// materializes for the ops that carry one.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct LoopIndex {
    /// The iteration variable.
    pub var: String,
    /// The slot of `var`.
    pub slot: VarSlot,
}

/// One operation of the physical plan — the same operator set as
/// [`matlang_core::Expr`], with subexpressions replaced by [`NodeId`]s into
/// the owning [`Plan`].
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum PlanOp {
    /// A matrix variable (instance matrix or loop/let binding) and its
    /// slot.
    Var(String, VarSlot),
    /// A literal scalar constant.
    Const(ConstVal),
    /// Transpose `eᵀ`.
    Transpose(NodeId),
    /// The ones vector `1(e)`.
    Ones(NodeId),
    /// Diagonalization `diag(e)`.
    Diag(NodeId),
    /// Matrix product `e₁ · e₂`.
    MatMul(NodeId, NodeId),
    /// Matrix addition `e₁ + e₂`.
    Add(NodeId, NodeId),
    /// Scalar multiplication `e₁ × e₂`.
    ScalarMul(NodeId, NodeId),
    /// Hadamard product `e₁ ∘ e₂`.
    Hadamard(NodeId, NodeId),
    /// Fused `diag(vec) · mat` — the planner's diag-pushdown rewrite of a
    /// product with a diagonalized left operand.  Evaluates `vec` first and
    /// `mat` second, exactly as the unfused `MatMul(Diag(vec), mat)` would,
    /// and runs [`matlang_matrix::MatrixStorage::scale_rows`] instead of
    /// materializing the diagonal.
    ScaleRows {
        /// The scaling vector (the operand of the fused `diag`).
        vec: NodeId,
        /// The matrix whose rows are scaled.
        mat: NodeId,
    },
    /// Fused `mat · diag(vec)`; the column-scaling mirror of
    /// [`PlanOp::ScaleRows`], evaluating `mat` first.
    ScaleCols {
        /// The matrix whose columns are scaled.
        mat: NodeId,
        /// The scaling vector (the operand of the fused `diag`).
        vec: NodeId,
    },
    /// Fused `(left · right) ∘ mask` — the planner's masked-product rewrite
    /// of a Hadamard product with a matrix product nothing else reads, all
    /// three operands estimated sparse.  Evaluates its operands in the
    /// unfused order (`mask` first when it was the Hadamard's left operand)
    /// and runs [`matlang_matrix::MatrixStorage::matmul_masked`], which on
    /// CSR operands accumulates only at the mask's stored positions instead of
    /// materializing the product.  The kernel multiplies product ⊗ mask for
    /// either operand order: like every cost rewrite, the fusion assumes a
    /// commutative `⊗`.
    MaskedMatMul {
        /// The product's left factor.
        left: NodeId,
        /// The product's right factor.
        right: NodeId,
        /// The Hadamard product's other operand.
        mask: NodeId,
        /// Whether the unfused node was `mask ∘ (left · right)`.
        mask_on_left: bool,
    },
    /// `vᵀ·mat`, `mat·w` or `vᵀ·mat·w` for loop iteration variables `v`,
    /// `w` — the planner's loop-index lowering of a product with a
    /// canonical vector: row `v`, column `w` or one entry of `mat`, read by
    /// [`matlang_matrix::MatrixStorage::select`] at the loop's current
    /// index.
    Select {
        /// The matrix read from.
        mat: NodeId,
        /// The row selector `v` of `vᵀ·mat`.
        row: Option<LoopIndex>,
        /// The column selector `w` of `mat·w`.
        col: Option<LoopIndex>,
    },
    /// `v·vec` (a `1 × m` row placed as row `v`), `vec·wᵀ` (an `n × 1`
    /// column placed as column `w`), or, without `vec`, the unit matrix
    /// `v·wᵀ` (the semiring's one placed at `(v, w)`) — via
    /// [`matlang_matrix::MatrixStorage::place`].
    Place {
        /// The placed operand; `None` for the unit matrix.
        vec: Option<NodeId>,
        /// The row position `v`.
        row: Option<LoopIndex>,
        /// The column position `w`.
        col: Option<LoopIndex>,
    },
    /// `mat + scalar × (v·wᵀ)`: one entry of `mat` updated via
    /// [`matlang_matrix::MatrixStorage::point_update`], evaluating `mat`
    /// then `scalar` as the unfused sum does.
    PointUpdate {
        /// The updated matrix.
        mat: NodeId,
        /// The `1 × 1` scale of the unit matrix.
        scalar: NodeId,
        /// The row position `v`.
        row: LoopIndex,
        /// The column position `w`.
        col: LoopIndex,
    },
    /// Pointwise function application `f(e₁, …, e_k)`.
    Apply(String, Vec<NodeId>),
    /// `let var = value in body`.
    Let {
        /// The bound variable name.
        var: String,
        /// The slot of `var`.
        var_slot: VarSlot,
        /// The bound value.
        value: NodeId,
        /// The body in which the binding is visible.
        body: NodeId,
    },
    /// The canonical for-loop `for var, acc (= init)?. body`.
    For {
        /// The iteration vector variable.
        var: String,
        /// The slot of `var`.
        var_slot: VarSlot,
        /// The size symbol governing the iteration count.
        var_dim: String,
        /// The accumulator variable.
        acc: String,
        /// The slot of `acc`.
        acc_slot: VarSlot,
        /// The declared accumulator type.
        acc_type: MatrixType,
        /// Optional initializer (defaults to the zero matrix).
        init: Option<NodeId>,
        /// The loop body.
        body: NodeId,
    },
    /// The additive-update loop `Σvar. body`.
    Sum {
        /// The iteration vector variable.
        var: String,
        /// The slot of `var`.
        var_slot: VarSlot,
        /// The size symbol governing the iteration count.
        var_dim: String,
        /// The summand.
        body: NodeId,
    },
    /// The Hadamard-product loop `Π∘var. body`.
    HProd {
        /// The iteration vector variable.
        var: String,
        /// The slot of `var`.
        var_slot: VarSlot,
        /// The size symbol governing the iteration count.
        var_dim: String,
        /// The factor.
        body: NodeId,
    },
    /// The matrix-product loop `Πvar. body`.
    MProd {
        /// The iteration vector variable.
        var: String,
        /// The slot of `var`.
        var_slot: VarSlot,
        /// The size symbol governing the iteration count.
        var_dim: String,
        /// The factor.
        body: NodeId,
    },
}

impl PlanOp {
    /// The child node ids of this operation, in evaluation order.
    pub fn children(&self) -> Vec<NodeId> {
        match self {
            PlanOp::Var(..) | PlanOp::Const(_) => Vec::new(),
            PlanOp::Transpose(a) | PlanOp::Ones(a) | PlanOp::Diag(a) => vec![*a],
            PlanOp::MatMul(a, b)
            | PlanOp::Add(a, b)
            | PlanOp::ScalarMul(a, b)
            | PlanOp::Hadamard(a, b) => vec![*a, *b],
            PlanOp::ScaleRows { vec, mat } => vec![*vec, *mat],
            PlanOp::ScaleCols { mat, vec } => vec![*mat, *vec],
            PlanOp::MaskedMatMul {
                left,
                right,
                mask,
                mask_on_left,
            } => {
                if *mask_on_left {
                    vec![*mask, *left, *right]
                } else {
                    vec![*left, *right, *mask]
                }
            }
            PlanOp::Select { mat, .. } => vec![*mat],
            PlanOp::Place { vec, .. } => vec.iter().copied().collect(),
            PlanOp::PointUpdate { mat, scalar, .. } => vec![*mat, *scalar],
            PlanOp::Apply(_, args) => args.clone(),
            PlanOp::Let { value, body, .. } => vec![*value, *body],
            PlanOp::For { init, body, .. } => {
                let mut out = Vec::new();
                if let Some(init) = init {
                    out.push(*init);
                }
                out.push(*body);
                out
            }
            PlanOp::Sum { body, .. } | PlanOp::HProd { body, .. } | PlanOp::MProd { body, .. } => {
                vec![*body]
            }
        }
    }

    /// Rewrites every child id through `f` — the renumbering step after the
    /// planner drops a node from the DAG.
    pub(crate) fn map_children(&mut self, f: impl Fn(NodeId) -> NodeId) {
        match self {
            PlanOp::Var(..) | PlanOp::Const(_) | PlanOp::Place { vec: None, .. } => {}
            PlanOp::Transpose(a) | PlanOp::Ones(a) | PlanOp::Diag(a) => *a = f(*a),
            PlanOp::MatMul(a, b)
            | PlanOp::Add(a, b)
            | PlanOp::ScalarMul(a, b)
            | PlanOp::Hadamard(a, b)
            | PlanOp::ScaleRows { vec: a, mat: b }
            | PlanOp::ScaleCols { mat: a, vec: b }
            | PlanOp::PointUpdate {
                mat: a, scalar: b, ..
            }
            | PlanOp::Let {
                value: a, body: b, ..
            } => {
                *a = f(*a);
                *b = f(*b);
            }
            PlanOp::Select { mat: a, .. } | PlanOp::Place { vec: Some(a), .. } => *a = f(*a),
            PlanOp::MaskedMatMul {
                left, right, mask, ..
            } => {
                *left = f(*left);
                *right = f(*right);
                *mask = f(*mask);
            }
            PlanOp::Apply(_, args) => args.iter_mut().for_each(|a| *a = f(*a)),
            PlanOp::For { init, body, .. } => {
                if let Some(init) = init {
                    *init = f(*init);
                }
                *body = f(*body);
            }
            PlanOp::Sum { body, .. } | PlanOp::HProd { body, .. } | PlanOp::MProd { body, .. } => {
                *body = f(*body)
            }
        }
    }

    /// A short static name for this operation kind (`matmul`) — used in the
    /// `EXPLAIN`/`PROFILE` renderings and loop summary events.
    pub fn label(&self) -> &'static str {
        &self.span_name()["execute:".len()..]
    }

    /// The tracing span name of this operation kind (`execute:matmul`) —
    /// static, so opening a node span allocates nothing.
    pub fn span_name(&self) -> &'static str {
        match self {
            PlanOp::Var(..) => "execute:var",
            PlanOp::Const(_) => "execute:const",
            PlanOp::Transpose(_) => "execute:transpose",
            PlanOp::Ones(_) => "execute:ones",
            PlanOp::Diag(_) => "execute:diag",
            PlanOp::MatMul(_, _) => "execute:matmul",
            PlanOp::Add(_, _) => "execute:add",
            PlanOp::ScalarMul(_, _) => "execute:scalar-mul",
            PlanOp::Hadamard(_, _) => "execute:hadamard",
            PlanOp::ScaleRows { .. } => "execute:scale-rows",
            PlanOp::ScaleCols { .. } => "execute:scale-cols",
            PlanOp::MaskedMatMul { .. } => "execute:matmul-masked",
            PlanOp::Select { row, col, .. } => match (row, col) {
                (Some(_), None) => "execute:select-row",
                (None, Some(_)) => "execute:select-col",
                _ => "execute:select-entry",
            },
            PlanOp::Place { vec, row, .. } => match (vec, row) {
                (None, _) => "execute:place-unit",
                (Some(_), Some(_)) => "execute:place-row",
                (Some(_), None) => "execute:place-col",
            },
            PlanOp::PointUpdate { .. } => "execute:point-update",
            PlanOp::Apply(_, _) => "execute:apply",
            PlanOp::Let { .. } => "execute:let",
            PlanOp::For { .. } => "execute:for",
            PlanOp::Sum { .. } => "execute:sum",
            PlanOp::HProd { .. } => "execute:hprod",
            PlanOp::MProd { .. } => "execute:mprod",
        }
    }

    /// A one-line rendering of the operation with `#id` child references,
    /// e.g. `matmul #1 #2` or `sum v:n #4` — the node column of
    /// [`Plan::explain`].
    pub fn describe(&self) -> String {
        let kids = |ids: &[NodeId]| {
            ids.iter()
                .map(|i| format!("#{i}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        match self {
            PlanOp::Var(name, _) => format!("var {name}"),
            PlanOp::Const(c) => format!("const {}", c.0),
            PlanOp::Apply(name, args) => format!("apply {name} {}", kids(args)),
            PlanOp::Let {
                var, value, body, ..
            } => format!("let {var} = #{value} in #{body}"),
            PlanOp::For {
                var,
                var_dim,
                acc,
                init,
                body,
                ..
            } => match init {
                Some(init) => format!("for {var}:{var_dim} acc {acc} init #{init} body #{body}"),
                None => format!("for {var}:{var_dim} acc {acc} body #{body}"),
            },
            PlanOp::Sum {
                var, var_dim, body, ..
            } => format!("sum {var}:{var_dim} #{body}"),
            PlanOp::HProd {
                var, var_dim, body, ..
            } => format!("hprod {var}:{var_dim} #{body}"),
            PlanOp::MProd {
                var, var_dim, body, ..
            } => format!("mprod {var}:{var_dim} #{body}"),
            other => {
                let mut line = other.label().to_string();
                let children = other.children();
                if !children.is_empty() {
                    line = format!("{line} {}", kids(&children));
                }
                let at: Vec<&str> = other.loop_indices().map(|i| i.var.as_str()).collect();
                if !at.is_empty() {
                    line = format!("{line} at {}", at.join(","));
                }
                line
            }
        }
    }

    /// The loop iteration variables this operation reads as indices, row
    /// position first.
    pub fn loop_indices(&self) -> impl Iterator<Item = &LoopIndex> {
        let (row, col) = match self {
            PlanOp::Select { row, col, .. } | PlanOp::Place { row, col, .. } => {
                (row.as_ref(), col.as_ref())
            }
            PlanOp::PointUpdate { row, col, .. } => (Some(row), Some(col)),
            _ => (None, None),
        };
        row.into_iter().chain(col)
    }

    /// Whether [`crate::delta`] has a propagation rule for this operation.
    /// Nodes without one fall back to invalidation when an update reaches
    /// them: pointwise function application is not linear over the
    /// semiring, and the loop constructs rebind variables per iteration,
    /// so their deltas are not expressible from the child deltas alone —
    /// nor are those of the loop-index ops, which exist only inside loops.
    pub fn supports_delta(&self) -> bool {
        !matches!(
            self,
            PlanOp::Apply(_, _)
                | PlanOp::Let { .. }
                | PlanOp::For { .. }
                | PlanOp::Sum { .. }
                | PlanOp::HProd { .. }
                | PlanOp::MProd { .. }
                | PlanOp::Select { .. }
                | PlanOp::Place { .. }
                | PlanOp::PointUpdate { .. }
        )
    }
}

/// The representation the cost model picked for a node's result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReprChoice {
    /// Dense row-major storage.
    Dense,
    /// CSR storage.
    Sparse,
}

/// The cost model's advisory estimate for one node: output shape, expected
/// non-zero count, the work to produce it, and the decisions derived from
/// those numbers.  Estimates are best-effort — a node whose inputs are
/// unknown (e.g. a variable absent from the instance) simply carries no
/// estimate, and nothing downstream depends on one being present.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NodeEstimate {
    /// Estimated output rows.
    pub rows: usize,
    /// Estimated output columns.
    pub cols: usize,
    /// Expected number of non-zero output entries.
    pub nnz: f64,
    /// Estimated semiring multiplications to compute the node once.
    pub work: f64,
    /// The storage representation chosen for the result.
    pub choice: ReprChoice,
}

impl NodeEstimate {
    /// Expected fraction of non-zero entries (0 for an empty shape).
    pub fn density(&self) -> f64 {
        let total = (self.rows * self.cols) as f64;
        if total == 0.0 {
            0.0
        } else {
            self.nnz / total
        }
    }
}

/// One node of a [`Plan`]: the operation plus everything the planner
/// learned about it.
#[derive(Clone, Debug)]
pub struct PlanNode {
    /// The operation.
    pub op: PlanOp,
    /// The matrix variables this node's *value* depends on: free variables
    /// of the subexpression the node represents.  Binders subtract their
    /// bound names, so a loop node does not depend on its own iteration
    /// vector.
    pub free_vars: BTreeSet<String>,
    /// How many parents reference this node (> 1 means CSE found sharing).
    pub refs: usize,
    /// Whether some occurrence of this node sits inside a loop body whose
    /// bound variables it does not mention — the executor's scoped cache
    /// keeps such a node's value across that loop's iterations, i.e. the
    /// node is effectively hoisted out of the loop.
    pub hoistable: bool,
    /// Whether the executor should memoize this node's result.  Caching a
    /// node that is referenced once and never survives a loop iteration
    /// would only pay an extra clone, so the planner marks exactly the
    /// shared (`refs > 1`) and [`hoistable`](PlanNode::hoistable) nodes.
    pub cacheable: bool,
    /// The cost model's estimate, when the instance statistics allowed one.
    pub est: Option<NodeEstimate>,
}

/// One application of a cost-based rewrite rule, recorded in the
/// [`PlanReport`] so that tests and the query server can see exactly what
/// the planner changed and what it expects to gain.
#[derive(Clone, Debug, PartialEq)]
pub struct AppliedRewrite {
    /// The rule identifier: `"matrix-chain-reorder"`,
    /// `"transpose-pushdown"`, `"ones-pushdown"`, `"diag-pushdown"`,
    /// `"masked-product"` or `"loop-index"`.
    pub rule: &'static str,
    /// A human-readable summary of the rewritten site.
    pub detail: String,
    /// Estimated semiring operations saved per evaluation (from the same
    /// nnz/density cost model the planner's representation choices use).
    pub saving: f64,
}

/// What the planner did, in numbers — exposed for reports and tests.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PlanReport {
    /// Number of planned queries (roots).
    pub queries: usize,
    /// Total AST nodes of the (simplified) query trees — what the naive
    /// evaluator would traverse.
    pub tree_nodes: usize,
    /// Distinct DAG nodes after hash-consing.
    pub dag_nodes: usize,
    /// Nodes referenced more than once (CSE hits).
    pub shared_nodes: usize,
    /// Total AST nodes removed by folding `rewrite::simplify` into
    /// planning, summed over the queries (`rewrite::savings`).
    pub simplify_savings: usize,
    /// Nodes marked loop-invariant with respect to an enclosing loop.
    pub hoistable_nodes: usize,
    /// Nodes whose cost-model choice is dense storage.
    pub dense_nodes: usize,
    /// Nodes whose cost-model choice is CSR storage.
    pub sparse_nodes: usize,
    /// Every cost-based rewrite the planner applied (chain reordering,
    /// transpose/ones pushdown, diag and masked-product fusion, loop-index
    /// lowering), in application order.
    pub rewrites: Vec<AppliedRewrite>,
    /// Product nodes fused into [`PlanOp::ScaleRows`] /
    /// [`PlanOp::ScaleCols`] / [`PlanOp::MaskedMatMul`] kernels.  (Products
    /// lowered to loop-index ops are not counted here: they show as
    /// `loop-index` entries of [`rewrites`](PlanReport::rewrites).)
    pub fused_products: usize,
    /// Nodes with a delta-propagation rule ([`PlanOp::supports_delta`]);
    /// updates reaching the remaining nodes invalidate instead of patch.
    pub delta_supported_nodes: usize,
    /// The observability trace id ([`matlang_obs::trace`]) that was active
    /// while this plan was built; 0 when planning ran outside a trace.
    pub trace_id: u64,
}

impl PlanReport {
    /// Total estimated semiring operations saved per evaluation by the
    /// cost-based rewrites, summed over [`PlanReport::rewrites`].
    pub fn rewrite_savings(&self) -> f64 {
        // Folded from +0.0: an empty `f64` sum is −0.0, which prints "-0".
        self.rewrites.iter().fold(0.0, |total, r| total + r.saving)
    }
}

impl fmt::Display for PlanReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} quer{} · {} tree nodes → {} dag nodes ({} shared, {} hoistable) · \
             simplify saved {} · repr {} dense / {} sparse · \
             {} cost rewrites (≈{:.0} ops saved) · \
             {} fused products · {} delta-supported nodes",
            self.queries,
            if self.queries == 1 { "y" } else { "ies" },
            self.tree_nodes,
            self.dag_nodes,
            self.shared_nodes,
            self.hoistable_nodes,
            self.simplify_savings,
            self.dense_nodes,
            self.sparse_nodes,
            self.rewrites.len(),
            self.rewrite_savings(),
            self.fused_products,
            self.delta_supported_nodes,
        )
    }
}

/// A compiled, DAG-shaped physical plan for one or more queries over a
/// common instance.
#[derive(Clone, Debug)]
pub struct Plan {
    pub(crate) nodes: Vec<PlanNode>,
    pub(crate) roots: Vec<NodeId>,
    /// Variable name → slot, for every name the plan mentions.
    pub(crate) slots: HashMap<String, VarSlot>,
    /// Per slot, the nodes whose value depends on that variable.
    pub(crate) dependents: Vec<Vec<NodeId>>,
    /// The planner's summary of this plan.
    pub report: PlanReport,
}

impl Plan {
    /// All nodes, in topological (children-first) order.
    pub fn nodes(&self) -> &[PlanNode] {
        &self.nodes
    }

    /// One root per planned query, in query order.
    pub fn roots(&self) -> &[NodeId] {
        &self.roots
    }

    /// The node with the given id.
    pub fn node(&self, id: NodeId) -> &PlanNode {
        &self.nodes[id]
    }

    /// The nodes whose cached value must be dropped when `var` is rebound.
    pub fn dependents_of(&self, var: &str) -> &[NodeId] {
        self.slots
            .get(var)
            .map_or(&[], |&slot| self.dependents_of_slot(slot))
    }

    /// [`dependents_of`](Plan::dependents_of) by slot — the executor's
    /// per-iteration path, a vector index.
    pub(crate) fn dependents_of_slot(&self, slot: VarSlot) -> &[NodeId] {
        &self.dependents[slot]
    }

    /// How many variable slots the plan uses; every [`VarSlot`] in its
    /// operations is below this.
    pub(crate) fn slot_count(&self) -> usize {
        self.dependents.len()
    }

    /// A fingerprint of the plan's **physical structure**: the interned
    /// operation of every node plus the root list.  Because the cost-based
    /// rewrite layer can produce different DAGs for the same query texts
    /// (chain association and kernel fusion depend on instance
    /// statistics), this is the value that identifies *which* rewritten
    /// DAG a prepared statement actually executes — the query server
    /// reports it on every `PREPARE` so clients can tell plan variants
    /// apart.
    pub fn structure_fingerprint(&self) -> u64 {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        for node in &self.nodes {
            node.op.hash(&mut hasher);
        }
        self.roots.hash(&mut hasher);
        hasher.finish()
    }

    /// Renders the rewritten DAG as one line per node — operation, child
    /// references, the cost model's estimate (shape, nnz, work,
    /// representation), cache and delta eligibility —
    /// followed by the root list and the applied cost-based rewrites.
    /// This is the payload of the query server's `EXPLAIN` verb.
    pub fn explain(&self) -> Vec<String> {
        let mut lines = Vec::with_capacity(self.nodes.len() + self.roots.len() + 2);
        lines.push(format!(
            "plan nodes={} roots={} fingerprint={:016x}",
            self.nodes.len(),
            self.roots.len(),
            self.structure_fingerprint()
        ));
        for (id, node) in self.nodes.iter().enumerate() {
            let est = match node.est {
                Some(est) => format!(
                    "est {}x{} nnz~{:.0} work~{:.0} {}",
                    est.rows,
                    est.cols,
                    est.nnz,
                    est.work,
                    match est.choice {
                        ReprChoice::Dense => "dense",
                        ReprChoice::Sparse => "sparse",
                    },
                ),
                None => "est ?".to_string(),
            };
            lines.push(format!(
                "#{id} {} | {est} | cache={} delta={}",
                node.op.describe(),
                if node.cacheable { "yes" } else { "no" },
                if node.op.supports_delta() {
                    "yes"
                } else {
                    "no"
                },
            ));
        }
        for (q, root) in self.roots.iter().enumerate() {
            lines.push(format!("root q{q} = #{root}"));
        }
        for rewrite in &self.report.rewrites {
            lines.push(format!(
                "rewrite {} (~{:.0} ops saved): {}",
                rewrite.rule, rewrite.saving, rewrite.detail
            ));
        }
        lines
    }

    /// Marks **every** node cacheable, not just the shared and hoistable
    /// ones the planner selects for one-shot evaluation.
    ///
    /// For a plan executed once, caching single-reference nodes only costs
    /// an extra `Arc` per node; for a *prepared* plan executed repeatedly
    /// over a persistent [`crate::exec::NodeCache`], it is what makes a
    /// re-execution O(1): the root itself is served from the cache until an
    /// update invalidates it.  Correctness is unaffected — the executor's
    /// invalidation discipline (and
    /// [`Plan::invalidate_dependents_in`] for external updates) drops
    /// entries exactly when a variable they depend on changes.
    pub fn mark_all_cacheable(&mut self) {
        for node in &mut self.nodes {
            node.cacheable = true;
        }
    }

    /// Drops from `cache` the entries of every node whose value depends on
    /// `var`, returning how many entries were actually dropped.
    ///
    /// This is the **external** counterpart of the executor's internal
    /// rebinding invalidation, driven by the same dependency index: after a
    /// caller mutates the instance matrix bound to `var` (an incremental
    /// update), exactly the dependent subgraph of the plan DAG loses its
    /// memoized results — standing queries untouched by the update keep
    /// their warm cache.
    pub fn invalidate_dependents_in<T>(&self, cache: &mut [Option<T>], var: &str) -> u64 {
        let mut dropped = 0;
        for &id in self.dependents_of(var) {
            if let Some(slot) = cache.get_mut(id) {
                if slot.take().is_some() {
                    dropped += 1;
                }
            }
        }
        dropped
    }
}
