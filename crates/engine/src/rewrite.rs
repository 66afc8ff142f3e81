//! The planner's rewrite rules, and the cost-based ones among them.
//!
//! Planning is one pass ([`crate::planner`]): each query is walked once,
//! bottom-up, and every node the walk builds goes through `RULES` before
//! it is hash-consed into the DAG.  The table is a registry — a name, a
//! cheap structural test, and the rewrite, which may still decline when the
//! cost model finds no saving — and its entries are:
//!
//! * **simplify** — `matlang_core::rewrite`'s local rules (`eᵀᵀ → e`,
//!   `1 × e → e`, constant folding), which remove *syntactic* noise and
//!   always win.  Its `let` rules act where the builder binds names.
//! * **Transpose pushdown** — `(e₁ · e₂)ᵀ → e₂ᵀ · e₁ᵀ` when transposing
//!   the (cheap, CSR-friendly) operands beats materializing the product
//!   and transposing it; `eᵀᵀ` introduced in the process is cancelled on
//!   the spot, so e.g. `(Gᵀ · G)ᵀ` becomes `Gᵀ · G` and then shares its
//!   DAG node with the un-transposed Gram matrix.
//! * **Ones pushdown** — `1(e)` only depends on `e`'s *row count*, so the
//!   operand is replaced by its cheapest row source: `1(e₁ · e₂) → 1(e₁)`,
//!   `1(e₁ + e₂) → 1(e₁)`, `1(c × e) → 1(e)`, `1(diag(v)) → 1(v)`,
//!   `1(1(e)) → 1(e)`.
//! * **Matrix-chain reordering** — a product chain `e₁ · e₂ · ⋯ · e_k`
//!   (`k ≥ 3`) is re-parenthesized by the classic interval DP over the
//!   cost model.  Inside Σ/Π/for loops the DP amortizes the cost of
//!   loop-invariant sub-products by the iteration count, because the
//!   executor's scoped memo computes those once per loop, not per
//!   iteration.  A chain with a loop's canonical vector among its factors
//!   is left as written, for the planner's loop-index lowering.
//!
//! The last three are the cost rules: they price against the planner's
//! [`NodeEstimate`](crate::plan::NodeEstimate)s, built from
//! [`InstanceStats`] — the same model that picks storage representations —
//! and apply only when it estimates a saving.  The nodes a cost rule builds
//! go through the cost rules again, so one pass reaches what repeated
//! passes would.  The planner then lowers products with a loop's canonical
//! vector to index operations, fuses `diag(v) · A` into the scaling
//! kernels and `(A · B) ∘ M` into the masked product.
//!
//! Every rule is an algebraic identity in every commutative semiring, so
//! rewritten plans evaluate to the same values as [`matlang_core::evaluate`]
//! on every backend (`simplify`'s constant folding interprets literals in
//! `f64`, hence the per-semiring gate [`crate::constants_fold_exactly`]);
//! the `rewrite_semantics` property suite pins this over random well-typed
//! expressions on 𝔹/ℕ/min-plus, dense and adaptive.  Rules that drop a
//! subterm (ones pushdown) or reverse operand order (transpose pushdown)
//! additionally require the affected operands to be **provably total** —
//! evaluable without error, which the builder certifies only when every
//! variable is known and every operator's shape precondition is met — so
//! error behavior is preserved exactly, down to the discriminant and the
//! order in which errors surface.  Chain reordering preserves the
//! left-to-right factor order, so it never needs that gate.
//!
//! Every cost-rule application is recorded as an [`AppliedRewrite`] (rule
//! name, site, estimated saving) and surfaced through
//! [`PlanReport::rewrites`](crate::plan::PlanReport::rewrites).

use crate::plan::{AppliedRewrite, ConstVal, NodeId, PlanOp, VarSlot};
use crate::planner::{product_cost, Builder, InstanceStats};
use matlang_core::rewrite::{simplify_step, Node, Simplified};
use matlang_core::Expr;

/// The rewriter's result: the (possibly) rewritten expression and a record
/// of every rule application.
#[derive(Clone, Debug)]
pub struct RewriteOutcome {
    /// The rewritten expression (equal to the input when nothing applied).
    pub expr: Expr,
    /// Rule applications in the order they were performed.
    pub applied: Vec<AppliedRewrite>,
}

/// One entry of the rule table.
pub(crate) struct Rule {
    /// The rule's name, as recorded in [`AppliedRewrite::rule`].
    pub(crate) name: &'static str,
    /// Whether it is a cost rule — run again on the nodes cost rules build.
    pub(crate) cost: bool,
    /// Whether the rule is enabled and `op` has its shape.
    pub(crate) matches: fn(&Builder, &PlanOp) -> bool,
    /// The node `op` rewrites to; `None` when the rule declines.
    pub(crate) apply: fn(&mut Builder, &PlanOp, &'static str) -> Option<NodeId>,
}

/// The rules, in the order they are tried at each node.
pub(crate) const RULES: &[Rule] = &[
    Rule {
        name: "simplify",
        cost: false,
        matches: |b, op| b.simplify && !matches!(view(op), Node::Const(_) | Node::Other),
        apply: |b, op, rule| b.simplify_local(op, rule),
    },
    Rule {
        name: "transpose-pushdown",
        cost: true,
        matches: |b, op| {
            b.cost
                && matches!(op, PlanOp::Transpose(a) if matches!(b.nodes[*a].op, PlanOp::MatMul(..)))
        },
        apply: |b, op, rule| b.push_transpose(op, rule),
    },
    Rule {
        name: "ones-pushdown",
        cost: true,
        matches: |b, op| b.cost && matches!(op, PlanOp::Ones(_)),
        apply: |b, op, rule| b.push_ones(op, rule),
    },
    Rule {
        name: "matrix-chain-reorder",
        cost: true,
        matches: |b, op| {
            b.cost && matches!(op, PlanOp::MatMul(l, r) if b.chain_len(*l) + b.chain_len(*r) >= 3)
        },
        apply: |b, op, rule| b.reorder_chain(op, rule),
    },
];

/// Relative improvement below which a rewrite is not worth the churn (and
/// floating-point cost ties must not flip the tree).
const MIN_IMPROVEMENT: f64 = 0.999;

/// Fixed cost of *executing* one product node, in semiring-operation
/// equivalents: result allocation, kernel dispatch, representation
/// normalization and memo bookkeeping — roughly a microsecond, i.e. on
/// the order of 10³ semiring operations.  For loop-free chains every
/// association has the same number of products, so this cancels and
/// decisions depend on the kernels' work alone; inside loops it is what
/// stops the DP from "optimizing" one hoisted, memoized product into n
/// per-iteration vector products whose constant overheads dwarf their
/// arithmetic (a 10k-iteration Σ would otherwise trade one big SpMM for
/// 30 000 micro-products and run slower).
const PRODUCT_OVERHEAD: f64 = 1000.0;

/// `(rows, cols, nnz)` of a chain segment, as [`product_cost`] takes it.
type Shape = (usize, usize, f64);

/// One interval of the chain DP: the segment's product shape, its
/// amortized own cost (factor works excluded — they are identical across
/// associations) and the best split point.
type ChainSeg = (Shape, f64, usize);

/// `op` as `simplify`'s local rules see it.
fn view(op: &PlanOp) -> Node<NodeId> {
    match *op {
        PlanOp::Const(c) => Node::Const(c.0),
        PlanOp::Transpose(a) => Node::Transpose(a),
        PlanOp::ScalarMul(a, b) => Node::ScalarMul(a, b),
        PlanOp::Add(a, b) => Node::Add(a, b),
        PlanOp::MatMul(a, b) => Node::MatMul(a, b),
        PlanOp::Hadamard(a, b) => Node::Hadamard(a, b),
        _ => Node::Other,
    }
}

/// Applies the cost rules to `expr` in one pass, without lowering or
/// simplifying — the rewrite layer of [`crate::Planner`] alone.
pub fn rewrite_with_stats(expr: &Expr, stats: &InstanceStats) -> RewriteOutcome {
    let mut builder = Builder::new(stats, expr.size(), (false, true, false));
    let root = builder.build(expr);
    RewriteOutcome {
        expr: builder.expr_of(root),
        applied: std::mem::take(&mut builder.applied),
    }
}

impl Builder<'_> {
    /// `simplify`'s local rules at `op`.
    fn simplify_local(&mut self, op: &PlanOp, _: &'static str) -> Option<NodeId> {
        let step = simplify_step(view(op), |id| view(&self.nodes[id].op))?;
        self.simplify_savings += step.saves;
        Some(match step.to {
            Simplified::Keep(id) => id,
            Simplified::Const(c) => self.make(PlanOp::Const(ConstVal(c))),
            Simplified::Scale(c, e) => {
                let c = self.make(PlanOp::Const(ConstVal(c)));
                self.make(PlanOp::ScalarMul(c, e))
            }
        })
    }

    /// `(e₁ · e₂)ᵀ → e₂ᵀ · e₁ᵀ` when the cost model prefers transposing
    /// the operands (and both operands are provably total — the rewrite
    /// reverses their evaluation order).
    fn push_transpose(&mut self, op: &PlanOp, rule: &'static str) -> Option<NodeId> {
        let PlanOp::Transpose(product) = *op else {
            return None;
        };
        let PlanOp::MatMul(a, b) = self.nodes[product].op else {
            return None;
        };
        let (l, r) = (self.nodes[a].est?, self.nodes[b].est?);
        if !(self.facts[a].total && self.facts[b].total && l.cols == r.rows) {
            return None;
        }
        // Unfused: compute the product, transpose the result.
        let (prod_nnz, prod_own) = product_cost((l.rows, l.cols, l.nnz), (r.rows, r.cols, r.nnz));
        let lhs_cost = prod_own + prod_nnz;
        // Pushed down: transpose both operands, multiply.
        let (_, rev_own) = product_cost((r.cols, r.rows, r.nnz), (l.cols, l.rows, l.nnz));
        let rhs_cost = l.nnz + r.nnz + rev_own;
        if rhs_cost >= lhs_cost * MIN_IMPROVEMENT {
            return None;
        }
        self.applied.push(AppliedRewrite {
            rule,
            detail: format!(
                "([{}×{}] · [{}×{}])ᵀ → operand transposes",
                l.rows, l.cols, r.rows, r.cols
            ),
            saving: lhs_cost - rhs_cost,
        });
        let (bt, at) = (self.transpose_of(b), self.transpose_of(a));
        // The new product may itself be a reorderable chain.
        Some(self.make_cost(PlanOp::MatMul(bt, at)))
    }

    /// `eᵀ` without stacking transposes: unwraps an existing transpose
    /// instead of double-wrapping, so transpose pushdown cancels `eᵀᵀ` on
    /// the spot.
    fn transpose_of(&mut self, id: NodeId) -> NodeId {
        match self.nodes[id].op {
            PlanOp::Transpose(inner) => inner,
            _ => self.make_cost(PlanOp::Transpose(id)),
        }
    }

    /// `1(e) → 1(row source of e)` when the source is strictly cheaper and
    /// the dropped computation is provably total.
    fn push_ones(&mut self, op: &PlanOp, rule: &'static str) -> Option<NodeId> {
        let PlanOp::Ones(inner) = *op else {
            return None;
        };
        let ie = self.nodes[inner].est?;
        let source = self.row_source(inner);
        if !self.facts[inner].total || source == inner {
            return None;
        }
        let se = self.nodes[source].est?;
        if se.rows != ie.rows || se.work >= ie.work * MIN_IMPROVEMENT {
            return None;
        }
        self.applied.push(AppliedRewrite {
            rule,
            detail: format!(
                "1({}) → 1({}) over {} rows",
                self.nodes[inner].op.label(),
                self.nodes[source].op.label(),
                ie.rows
            ),
            saving: ie.work - se.work,
        });
        Some(self.make_cost(PlanOp::Ones(source)))
    }

    /// The cheapest node with the same row count as `id` — what `1(e)`
    /// actually depends on.
    fn row_source(&self, id: NodeId) -> NodeId {
        match self.nodes[id].op {
            PlanOp::MatMul(a, _) | PlanOp::Add(a, _) | PlanOp::Hadamard(a, _) => self.row_source(a),
            PlanOp::ScalarMul(_, b) => self.row_source(b),
            PlanOp::Diag(v) | PlanOp::Ones(v) => self.row_source(v),
            _ => id,
        }
    }

    /// The number of factors of the maximal product spine at `id`.
    fn chain_len(&self, id: NodeId) -> usize {
        match self.nodes[id].op {
            PlanOp::MatMul(a, b) => self.chain_len(a) + self.chain_len(b),
            _ => 1,
        }
    }

    /// Appends the factors of the product spine at `id`, left to right.
    fn flatten_chain(&self, id: NodeId, out: &mut Vec<NodeId>) {
        match self.nodes[id].op {
            PlanOp::MatMul(a, b) => {
                self.flatten_chain(a, out);
                self.flatten_chain(b, out);
            }
            _ => out.push(id),
        }
    }

    /// Whether node `id` is `v` or `vᵀ` for a loop's iteration variable `v`
    /// — a factor the planner lowers to an index operation.
    fn is_canonical_factor(&self, id: NodeId) -> bool {
        let var = match self.nodes[id].op {
            PlanOp::Transpose(inner) => inner,
            _ => id,
        };
        matches!(self.nodes[var].op, PlanOp::Var(_, slot)
            if self.binder_of(var, slot).is_some_and(|b| b.iterates))
    }

    /// How many evaluations one computation of a subterm with free
    /// variables `vars` amortizes over: the product of the iteration
    /// counts of the enclosing loops (innermost first) whose binders the
    /// subterm does not mention — exactly the loops across which the
    /// executor's scoped memo keeps its value alive.
    fn amortization(&self, vars: &[VarSlot]) -> f64 {
        let mut factor = 1.0;
        for (binders, n) in self.loops.iter().rev() {
            if binders.iter().any(|b| vars.contains(b)) {
                break;
            }
            match n {
                Some(n) if *n > 0 => factor *= *n as f64,
                _ => break,
            }
        }
        factor
    }

    /// The free variables of the factors `factors`.
    fn vars_of(&self, factors: &[NodeId]) -> Vec<VarSlot> {
        let mut vars: Vec<VarSlot> = factors
            .iter()
            .flat_map(|&f| self.env(f).iter().map(|&(slot, _)| slot))
            .collect();
        vars.sort_unstable();
        vars.dedup();
        vars
    }

    /// One product in the DP's cost model: the shape and the own cost of
    /// multiplying two segments, amortized by `amortize`.
    fn product_step(l: Shape, r: Shape, amortize: f64) -> (Shape, f64) {
        let (nnz, own) = product_cost(l, r);
        ((l.0, r.1, nnz), (own + PRODUCT_OVERHEAD) / amortize)
    }

    /// Re-parenthesizes the maximal product chain `op` by the interval DP
    /// when the cost model finds a strictly cheaper association.  Factor
    /// order is preserved, so evaluation order (and therefore error
    /// behavior) is unchanged; only the association differs.  A chain with
    /// a loop's canonical vector among its factors keeps the association it
    /// was written with: the planner lowers `vᵀ·A·w` and its kin to index
    /// operations, which a reassociation into `vᵀ·(A·(w·…))` would turn
    /// back into full products.
    fn reorder_chain(&mut self, op: &PlanOp, rule: &'static str) -> Option<NodeId> {
        let PlanOp::MatMul(a, b) = *op else {
            return None;
        };
        let mut factors = Vec::new();
        self.flatten_chain(a, &mut factors);
        self.flatten_chain(b, &mut factors);
        let k = factors.len();
        if factors.iter().any(|&f| self.is_canonical_factor(f)) {
            return None;
        }
        let shapes = factors
            .iter()
            .map(|&f| self.nodes[f].est.map(|e| (e.rows, e.cols, e.nnz)))
            .collect::<Option<Vec<Shape>>>()?;
        if shapes.windows(2).any(|w| w[0].1 != w[1].0) {
            return None;
        }

        // seg[i][j] covers the product of factors i..=j.
        let mut seg: Vec<Vec<Option<ChainSeg>>> = vec![vec![None; k]; k];
        for (i, &shape) in shapes.iter().enumerate() {
            seg[i][i] = Some((shape, 0.0, i));
        }
        for len in 2..=k {
            for i in 0..=(k - len) {
                let j = i + len - 1;
                let amortize = self.amortization(&self.vars_of(&factors[i..=j]));
                let mut best: Option<ChainSeg> = None;
                for s in i..j {
                    let (ls, lc, _) = seg[i][s].expect("shorter interval filled");
                    let (rs, rc, _) = seg[s + 1][j].expect("shorter interval filled");
                    let (shape, own) = Self::product_step(ls, rs, amortize);
                    let cost = lc + rc + own;
                    if best.map_or(true, |(_, c, _)| cost < c) {
                        best = Some((shape, cost, s));
                    }
                }
                seg[i][j] = best;
            }
        }
        let (_, best_cost, _) = seg[0][k - 1].expect("full interval filled");

        // Cost of the association as it stands, with the same amortization.
        let mut at = 0;
        let (ls, lc) = self.assoc_cost(a, &factors, &shapes, &mut at);
        let (rs, rc) = self.assoc_cost(b, &factors, &shapes, &mut at);
        let amortize = self.amortization(&self.vars_of(&factors));
        let current_cost = lc + rc + Self::product_step(ls, rs, amortize).1;
        if best_cost >= current_cost * MIN_IMPROVEMENT {
            return None;
        }
        self.applied.push(AppliedRewrite {
            rule,
            detail: format!("{k}-factor chain: ≈{current_cost:.0} → ≈{best_cost:.0} ops"),
            saving: current_cost - best_cost,
        });
        Some(self.build_chain(&factors, &seg, 0, k - 1))
    }

    /// The amortized own cost of the association at `id`, computed with
    /// the same combinators as the DP so the comparison is exact; `at`
    /// advances through the factor list.
    fn assoc_cost(
        &self,
        id: NodeId,
        factors: &[NodeId],
        shapes: &[Shape],
        at: &mut usize,
    ) -> (Shape, f64) {
        let PlanOp::MatMul(a, b) = self.nodes[id].op else {
            *at += 1;
            return (shapes[*at - 1], 0.0);
        };
        let first = *at;
        let (ls, lc) = self.assoc_cost(a, factors, shapes, at);
        let (rs, rc) = self.assoc_cost(b, factors, shapes, at);
        let amortize = self.amortization(&self.vars_of(&factors[first..*at]));
        let (shape, own) = Self::product_step(ls, rs, amortize);
        (shape, lc + rc + own)
    }

    /// Builds the DP's optimal association over `factors[i..=j]`.
    fn build_chain(
        &mut self,
        factors: &[NodeId],
        seg: &[Vec<Option<ChainSeg>>],
        i: usize,
        j: usize,
    ) -> NodeId {
        if i == j {
            return factors[i];
        }
        let (_, _, s) = seg[i][j].expect("interval filled");
        let l = self.build_chain(factors, seg, i, s);
        let r = self.build_chain(factors, seg, s + 1, j);
        self.intern(PlanOp::MatMul(l, r))
    }

    /// The expression node `id` stands for — the output of
    /// [`rewrite_with_stats`], whose builder lowers nothing.
    fn expr_of(&self, id: NodeId) -> Expr {
        let sub = |id: &NodeId| Box::new(self.expr_of(*id));
        match &self.nodes[id].op {
            PlanOp::Var(name, _) => Expr::Var(name.clone()),
            PlanOp::Const(c) => Expr::Const(c.0),
            PlanOp::Transpose(a) => Expr::Transpose(sub(a)),
            PlanOp::Ones(a) => Expr::Ones(sub(a)),
            PlanOp::Diag(a) => Expr::Diag(sub(a)),
            PlanOp::MatMul(a, b) => Expr::MatMul(sub(a), sub(b)),
            PlanOp::Add(a, b) => Expr::Add(sub(a), sub(b)),
            PlanOp::ScalarMul(a, b) => Expr::ScalarMul(sub(a), sub(b)),
            PlanOp::Hadamard(a, b) => Expr::Hadamard(sub(a), sub(b)),
            PlanOp::Apply(name, args) => Expr::Apply(
                name.clone(),
                args.iter().map(|a| self.expr_of(*a)).collect(),
            ),
            PlanOp::Let {
                var, value, body, ..
            } => Expr::Let {
                var: var.clone(),
                value: sub(value),
                body: sub(body),
            },
            PlanOp::For {
                var,
                var_dim,
                acc,
                acc_type,
                init,
                body,
                ..
            } => Expr::For {
                var: var.clone(),
                var_dim: var_dim.clone(),
                acc: acc.clone(),
                acc_type: acc_type.clone(),
                init: init.as_ref().map(sub),
                body: sub(body),
            },
            PlanOp::Sum {
                var, var_dim, body, ..
            } => Expr::sum(var.clone(), var_dim.clone(), self.expr_of(*body)),
            PlanOp::HProd {
                var, var_dim, body, ..
            } => Expr::hprod(var.clone(), var_dim.clone(), self.expr_of(*body)),
            PlanOp::MProd {
                var, var_dim, body, ..
            } => Expr::mprod(var.clone(), var_dim.clone(), self.expr_of(*body)),
            lowered => unreachable!("a {} node without lowering", lowered.label()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::VarStats;
    use std::collections::BTreeMap;

    /// The factors of `e`'s maximal product spine, left to right.
    fn flatten_chain(e: &Expr, out: &mut Vec<Expr>) {
        if let Expr::MatMul(a, b) = e {
            flatten_chain(a, out);
            flatten_chain(b, out);
        } else {
            out.push(e.clone());
        }
    }

    /// n = 1000, G sparse (degree 8), D dense, A skinny (10 × 1000),
    /// u/w vectors.
    fn stats() -> InstanceStats {
        let var = |rows, cols, nnz| VarStats { rows, cols, nnz };
        InstanceStats {
            dims: BTreeMap::from([("n".to_string(), 1000), ("m".to_string(), 10)]),
            vars: BTreeMap::from([
                ("G".to_string(), var(1000, 1000, 8000)),
                ("D".to_string(), var(1000, 1000, 1_000_000)),
                ("A".to_string(), var(10, 1000, 10_000)),
                ("u".to_string(), var(1000, 1, 1000)),
                ("w".to_string(), var(1000, 1, 1000)),
            ]),
        }
    }

    fn g() -> Expr {
        Expr::var("G")
    }

    #[test]
    fn chain_reorder_prefers_matrix_vector_association() {
        // (G·G)·u left-associated costs a full SpMM; G·(G·u) is two
        // matvecs.  The DP must right-associate.
        let e = g().mm(g()).mm(Expr::var("u"));
        let out = rewrite_with_stats(&e, &stats());
        assert_eq!(out.expr, g().mm(g().mm(Expr::var("u"))));
        assert_eq!(out.applied.len(), 1);
        assert_eq!(out.applied[0].rule, "matrix-chain-reorder");
        assert!(out.applied[0].saving > 0.0);
    }

    #[test]
    fn chain_reorder_preserves_factor_order() {
        let e = g().mm(g()).mm(g()).mm(Expr::var("u"));
        let out = rewrite_with_stats(&e, &stats());
        let mut factors = Vec::new();
        flatten_chain(&out.expr, &mut factors);
        assert_eq!(
            factors,
            vec![g(), g(), g(), Expr::var("u")],
            "reordering must only change the association"
        );
    }

    #[test]
    fn already_optimal_chains_are_left_alone() {
        let e = g().mm(g().mm(Expr::var("u")));
        let out = rewrite_with_stats(&e, &stats());
        assert_eq!(out.expr, e);
        assert!(out.applied.is_empty());
    }

    #[test]
    fn unknown_variables_disable_reordering() {
        let e = Expr::var("missing").mm(g()).mm(Expr::var("u"));
        let out = rewrite_with_stats(&e, &stats());
        assert_eq!(out.expr, e);
        assert!(out.applied.is_empty());
    }

    #[test]
    fn transpose_distributes_over_products_and_cancels() {
        // (Gᵀ·G)ᵀ → Gᵀ·Gᵀᵀ → Gᵀ·G: the Gram matrix itself.
        let gram = g().t().mm(g());
        let out = rewrite_with_stats(&gram.clone().t(), &stats());
        assert_eq!(out.expr, gram);
        assert_eq!(out.applied.len(), 1);
        assert_eq!(out.applied[0].rule, "transpose-pushdown");
    }

    #[test]
    fn transpose_of_dense_product_is_kept_when_cheaper() {
        // Both operands dense: (D·D)ᵀ — transposing the operands does not
        // shrink the product, and the result transpose costs the same nnz
        // as the two operand transposes; no clear win, so no rewrite.
        let e = Expr::var("D").mm(Expr::var("D")).t();
        let out = rewrite_with_stats(&e, &stats());
        assert_eq!(out.expr, e);
    }

    #[test]
    fn ones_pushdown_skips_the_product() {
        let e = g().mm(g()).ones();
        let out = rewrite_with_stats(&e, &stats());
        assert_eq!(out.expr, g().ones());
        assert_eq!(out.applied.len(), 1);
        assert_eq!(out.applied[0].rule, "ones-pushdown");
    }

    #[test]
    fn ones_pushdown_requires_totality() {
        // `gt0` may be unregistered at runtime: the dropped subterm is not
        // provably total, so `1(G·gt0(G))` must keep its operand.
        let e = g().mm(Expr::apply("gt0", vec![g()])).ones();
        let out = rewrite_with_stats(&e, &stats());
        assert_eq!(out.expr, e);
        assert!(out.applied.is_empty());
    }

    #[test]
    fn ones_pushdown_through_diag_and_scalar_mul() {
        let e = Expr::var("u").diag().ones();
        let out = rewrite_with_stats(&e, &stats());
        assert_eq!(out.expr, Expr::var("u").ones());
        let e = Expr::lit(2.0).smul(g().mm(g())).ones();
        let out = rewrite_with_stats(&e, &stats());
        assert_eq!(out.expr, g().ones());
    }

    #[test]
    fn loop_invariant_products_are_amortized() {
        // A·(D·(v + u)) with A skinny (10 × 1000) and D dense.  Outside a
        // loop, the right association is optimal (one dense matvec beats
        // the 10⁷-op A·D), so the DP must leave it alone.  Inside Σv the
        // vector `v + u` changes every iteration while A·D is
        // loop-invariant — computed once and memoized by the executor —
        // so the loop-aware DP must flip to (A·D)·(v + u), paying the big
        // product once and a skinny 10 × 1000 matvec per iteration.
        fn has_ad_product(e: &Expr) -> bool {
            match e {
                Expr::MatMul(a, b) => {
                    (**a == Expr::var("A") && **b == Expr::var("D"))
                        || has_ad_product(a)
                        || has_ad_product(b)
                }
                _ => false,
            }
        }
        let chain = |vec: Expr| Expr::var("A").mm(Expr::var("D").mm(vec.add(Expr::var("u"))));

        let outside = rewrite_with_stats(&chain(Expr::var("w")), &stats());
        assert_eq!(outside.expr, chain(Expr::var("w")), "optimal as written");
        assert!(outside.applied.is_empty());

        let inside = rewrite_with_stats(&Expr::sum("v", "n", chain(Expr::var("v"))), &stats());
        let Expr::Sum { body, .. } = &inside.expr else {
            panic!("sum preserved, got {}", inside.expr);
        };
        assert!(
            has_ad_product(body),
            "loop-invariant A·D must be hoistable: {body}"
        );
        assert_eq!(inside.applied.len(), 1);
        assert_eq!(inside.applied[0].rule, "matrix-chain-reorder");
    }

    #[test]
    fn passes_compose_transpose_then_chain() {
        // ((G·G)ᵀ)·u: pushing the transpose down exposes a 3-factor chain
        // Gᵀ·Gᵀ·u that the DP right-associates into two matvecs.
        let e = g().mm(g()).t().mm(Expr::var("u"));
        let out = rewrite_with_stats(&e, &stats());
        assert_eq!(out.expr, g().t().mm(g().t().mm(Expr::var("u"))));
        let rules: Vec<&str> = out.applied.iter().map(|r| r.rule).collect();
        assert!(rules.contains(&"transpose-pushdown"));
        assert!(rules.contains(&"matrix-chain-reorder"));
    }

    #[test]
    fn empty_stats_disable_every_rule() {
        let exprs = [
            g().mm(g()).mm(Expr::var("u")),
            g().mm(g()).t(),
            g().mm(g()).ones(),
        ];
        for e in exprs {
            let out = rewrite_with_stats(&e, &InstanceStats::empty());
            assert_eq!(out.expr, e);
            assert!(out.applied.is_empty());
        }
    }
}
