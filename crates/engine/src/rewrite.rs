//! Cost-based algebraic rewriting: the layer between a type-checked
//! [`Expr`] and the DAG plan.
//!
//! Where [`matlang_core::rewrite::simplify`] removes *syntactic* noise
//! (double transposes, `1 ×`, dead `let`s) with rules that are always
//! wins, the rules here change the **evaluation strategy** and are only
//! applied when the planner's nnz/density cost model — the same
//! [`InstanceStats`]-driven model that picks storage representations —
//! estimates a saving:
//!
//! * **Matrix-chain reordering** — a product chain `e₁ · e₂ · ⋯ · e_k`
//!   (`k ≥ 3`) is re-parenthesized by the classic interval DP over the
//!   cost model.  Inside Σ/Π/for loops the DP amortizes the cost of
//!   loop-invariant sub-products by the iteration count, because the
//!   executor's scoped memo computes those once per loop, not per
//!   iteration.  A chain with a loop's canonical vector among its factors
//!   is left as written, for the planner's loop-index lowering.
//! * **Transpose pushdown** — `(e₁ · e₂)ᵀ → e₂ᵀ · e₁ᵀ` when transposing
//!   the (cheap, CSR-friendly) operands beats materializing the product
//!   and transposing it; `eᵀᵀ` introduced in the process is cancelled on
//!   the spot, so e.g. `(Gᵀ · G)ᵀ` becomes `Gᵀ · G` and then shares its
//!   DAG node with the un-transposed Gram matrix.
//! * **Ones pushdown** — `1(e)` only depends on `e`'s *row count*, so the
//!   operand is replaced by its cheapest row source: `1(e₁ · e₂) → 1(e₁)`,
//!   `1(e₁ + e₂) → 1(e₁)`, `1(c × e) → 1(e)`, `1(diag(v)) → 1(v)`,
//!   `1(1(e)) → 1(e)` — the `1(e)`-contraction part of the ISSUE's diag /
//!   ones pushdown (the `diag(v) · A` half is fused by the planner into
//!   the [`crate::plan::PlanOp::ScaleRows`] / `ScaleCols` kernels).
//!
//! Every rule is an algebraic identity in every commutative semiring, so
//! rewritten plans evaluate to the same values as [`matlang_core::evaluate`]
//! on every backend; the `rewrite_semantics` property suite pins this over
//! random well-typed expressions on 𝔹/ℕ/min-plus, dense and adaptive.
//! Rules that drop a subterm (ones pushdown) or reverse operand order
//! (transpose pushdown) additionally require the affected operands to be
//! **provably total** — evaluable without error, which the estimator
//! certifies only when every variable is known and every operator's shape
//! precondition is met — so error behavior is preserved exactly, down to
//! the discriminant and the order in which errors surface.  Chain
//! reordering preserves the left-to-right factor order, so it never needs
//! that gate.
//!
//! Every application is recorded as an [`AppliedRewrite`] (rule name,
//! site, estimated saving) and surfaced through
//! [`PlanReport::rewrites`](crate::plan::PlanReport::rewrites).

use crate::plan::AppliedRewrite;
use crate::planner::{InstanceStats, Scope, VarStats};
use matlang_core::Expr;
use std::collections::BTreeSet;

/// The rewriter's result: the (possibly) rewritten expression and a record
/// of every rule application.
#[derive(Clone, Debug)]
pub struct RewriteOutcome {
    /// The rewritten expression (equal to the input when nothing applied).
    pub expr: Expr,
    /// Rule applications in the order they were performed.
    pub applied: Vec<AppliedRewrite>,
}

/// The expression-level estimate the rewrite rules compare costs with —
/// the [`Expr`] counterpart of [`crate::plan::NodeEstimate`], extended
/// with the totality certificate the reordering rules need.
#[derive(Clone, Copy, Debug)]
struct ExprEstimate {
    rows: usize,
    cols: usize,
    /// Expected non-zero output entries.
    nnz: f64,
    /// Estimated semiring operations to evaluate the subexpression once.
    work: f64,
    /// Whether evaluation provably cannot fail: every variable is known
    /// and every operator's shape precondition is certified by the
    /// estimates.  Conservative — `Apply` and the loop forms are never
    /// certified.
    total: bool,
}

/// Estimated `(result nnz, own work)` of one product — delegates to the
/// single shared formula in [`crate::planner::product_cost`], so the
/// chain DP prices products against exactly the model the planner's node
/// estimates use.
fn product_cost(l: &ExprEstimate, r: &ExprEstimate) -> (f64, f64) {
    crate::planner::product_cost((l.rows, l.cols, l.nnz), (r.rows, r.cols, r.nnz))
}

/// `eᵀ` without stacking transposes: unwraps an existing outer transpose
/// instead of double-wrapping, so transpose pushdown cancels `eᵀᵀ` on the
/// spot.
fn transpose_of(e: &Expr) -> Expr {
    match e {
        Expr::Transpose(inner) => (**inner).clone(),
        other => other.clone().t(),
    }
}

/// The cheapest subexpression with the same row count as `e` — what
/// `1(e)` actually depends on.
fn row_source(e: &Expr) -> Expr {
    match e {
        Expr::MatMul(a, _) | Expr::Add(a, _) | Expr::Hadamard(a, _) => row_source(a),
        Expr::ScalarMul(_, b) => row_source(b),
        Expr::Diag(v) => row_source(v),
        Expr::Ones(x) => row_source(x),
        other => other.clone(),
    }
}

/// Flattens the maximal product spine of `e` into its factors, in
/// left-to-right evaluation order.
fn flatten_chain(e: &Expr, out: &mut Vec<Expr>) {
    if let Expr::MatMul(a, b) = e {
        flatten_chain(a, out);
        flatten_chain(b, out);
    } else {
        out.push(e.clone());
    }
}

/// The number of factors of `e`'s maximal product spine.
fn chain_len(e: &Expr) -> usize {
    match e {
        Expr::MatMul(a, b) => chain_len(a) + chain_len(b),
        _ => 1,
    }
}

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

/// One interval of the chain DP: the segment's product estimate, its
/// amortized own cost (factor works excluded — they are identical across
/// associations) and the best split point.
type ChainSeg = (ExprEstimate, f64, usize);

struct Rewriter<'a> {
    stats: &'a InstanceStats,
    /// Bound loop/let variables in scope (as in the planner's `Builder`).
    scope: Scope,
    /// Enclosing loops, innermost last: bound-variable names plus the
    /// iteration count when the governing dimension is known.
    loops: Vec<(Vec<String>, Option<usize>)>,
    applied: Vec<AppliedRewrite>,
}

impl Rewriter<'_> {
    fn lookup(&self, name: &str) -> Option<VarStats> {
        self.scope.stats(name, self.stats)
    }

    /// Whether `e` is `v` or `vᵀ` for a loop's iteration variable `v` — a
    /// factor the planner lowers to an index operation.
    fn is_canonical_factor(&self, e: &Expr) -> bool {
        match e {
            Expr::Var(name) => self.scope.iterates(name),
            Expr::Transpose(inner) => {
                matches!(inner.as_ref(), Expr::Var(name) if self.scope.iterates(name))
            }
            _ => false,
        }
    }

    /// How many evaluations one computation of a subterm with free
    /// variables `vars` amortizes over: the product of the iteration
    /// counts of the enclosing loops (innermost first) whose binders the
    /// subterm does not mention — exactly the loops across which the
    /// executor's scoped memo keeps its value alive.
    fn amortization(&self, vars: &BTreeSet<String>) -> f64 {
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

    /// Best-effort shape/cost/totality estimate; `None` when a variable or
    /// dimension is unknown or an inner product cannot be shaped.
    fn est(&mut self, e: &Expr) -> Option<ExprEstimate> {
        match e {
            Expr::Var(name) => {
                let s = self.lookup(name)?;
                Some(ExprEstimate {
                    rows: s.rows,
                    cols: s.cols,
                    nnz: s.nnz as f64,
                    work: 0.0,
                    total: true,
                })
            }
            Expr::Const(_) => Some(ExprEstimate {
                rows: 1,
                cols: 1,
                nnz: 1.0,
                work: 0.0,
                total: true,
            }),
            Expr::Transpose(a) => {
                let a = self.est(a)?;
                Some(ExprEstimate {
                    rows: a.cols,
                    cols: a.rows,
                    nnz: a.nnz,
                    work: a.work + a.nnz,
                    total: a.total,
                })
            }
            Expr::Ones(a) => {
                let a = self.est(a)?;
                Some(ExprEstimate {
                    rows: a.rows,
                    cols: 1,
                    nnz: a.rows as f64,
                    work: a.work,
                    total: a.total,
                })
            }
            Expr::Diag(a) => {
                let a = self.est(a)?;
                Some(ExprEstimate {
                    rows: a.rows,
                    cols: a.rows,
                    nnz: a.nnz,
                    // Unlike the planner's node estimate, charge the
                    // materialization of the diagonal — the ones-pushdown
                    // rule needs to see that skipping it saves work.
                    work: a.work + a.nnz,
                    total: a.total && a.cols == 1,
                })
            }
            Expr::MatMul(a, b) => {
                let (l, r) = (self.est(a)?, self.est(b)?);
                if l.cols != r.rows {
                    return None;
                }
                let (nnz, own) = product_cost(&l, &r);
                Some(ExprEstimate {
                    rows: l.rows,
                    cols: r.cols,
                    nnz,
                    work: l.work + r.work + own,
                    total: l.total && r.total,
                })
            }
            Expr::Add(a, b) => {
                let (l, r) = (self.est(a)?, self.est(b)?);
                let nnz = (l.nnz + r.nnz).min((l.rows * l.cols) as f64);
                Some(ExprEstimate {
                    rows: l.rows,
                    cols: l.cols,
                    nnz,
                    work: l.work + r.work + nnz,
                    total: l.total && r.total && (l.rows, l.cols) == (r.rows, r.cols),
                })
            }
            Expr::Hadamard(a, b) => {
                let (l, r) = (self.est(a)?, self.est(b)?);
                let nnz = l.nnz.min(r.nnz);
                Some(ExprEstimate {
                    rows: l.rows,
                    cols: l.cols,
                    nnz,
                    work: l.work + r.work + nnz,
                    total: l.total && r.total && (l.rows, l.cols) == (r.rows, r.cols),
                })
            }
            Expr::ScalarMul(a, b) => {
                let (l, r) = (self.est(a)?, self.est(b)?);
                Some(ExprEstimate {
                    rows: r.rows,
                    cols: r.cols,
                    nnz: r.nnz,
                    work: l.work + r.work + r.nnz,
                    total: l.total && r.total && (l.rows, l.cols) == (1, 1),
                })
            }
            Expr::Apply(_, args) => {
                let first = self.est(args.first()?)?;
                let dense = (first.rows * first.cols) as f64;
                let mut work = dense;
                for a in args {
                    work += self.est(a)?.work;
                }
                Some(ExprEstimate {
                    rows: first.rows,
                    cols: first.cols,
                    nnz: dense,
                    work,
                    // An unknown function name or a shape mismatch among
                    // the arguments only surfaces at runtime.
                    total: false,
                })
            }
            Expr::Let { var, value, body } => {
                let v = self.est(value)?;
                self.scope.push(
                    var,
                    Some(VarStats {
                        rows: v.rows,
                        cols: v.cols,
                        nnz: v.nnz.round() as usize,
                    }),
                );
                let b = self.est(body);
                self.scope.pop();
                let b = b?;
                Some(ExprEstimate {
                    rows: b.rows,
                    cols: b.cols,
                    nnz: b.nnz,
                    work: v.work + b.work,
                    total: v.total && b.total,
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
                let n = self.stats.dim(var_dim)?;
                let (rows, cols) = self.stats.shape_of(acc_type)?;
                let init_work = match init {
                    Some(init) => self.est(init)?.work,
                    None => 0.0,
                };
                self.scope.push_loop(var, Some(n));
                self.scope.push(
                    acc,
                    Some(VarStats {
                        rows,
                        cols,
                        nnz: rows * cols,
                    }),
                );
                let b = self.est(body);
                self.scope.pop();
                self.scope.pop();
                let b = b?;
                Some(ExprEstimate {
                    rows,
                    cols,
                    nnz: (rows * cols) as f64,
                    work: init_work + n as f64 * b.work,
                    total: false,
                })
            }
            Expr::Sum { var, var_dim, body }
            | Expr::HProd { var, var_dim, body }
            | Expr::MProd { var, var_dim, body } => {
                let n = self.stats.dim(var_dim)?;
                self.scope.push_loop(var, Some(n));
                let b = self.est(body);
                self.scope.pop();
                let b = b?;
                let (nnz, step) = match e {
                    Expr::Sum { .. } => (n as f64 * b.nnz, b.nnz),
                    Expr::HProd { .. } => (b.nnz, b.nnz),
                    _ => {
                        let per_row = if b.rows > 0 {
                            b.nnz / b.rows as f64
                        } else {
                            0.0
                        };
                        ((b.rows * b.cols) as f64, b.nnz * per_row)
                    }
                };
                Some(ExprEstimate {
                    rows: b.rows,
                    cols: b.cols,
                    nnz: nnz.min((b.rows * b.cols) as f64),
                    work: n as f64 * (b.work + step),
                    total: false,
                })
            }
        }
    }

    /// Structural recursion: rewrite children first, then apply the local
    /// rules at product, transpose and ones nodes.
    fn rewrite(&mut self, e: &Expr) -> Expr {
        match e {
            Expr::Var(_) | Expr::Const(_) => e.clone(),
            Expr::Transpose(inner) => {
                let inner = self.rewrite(inner);
                self.rewrite_transpose(inner)
            }
            Expr::Ones(inner) => {
                let inner = self.rewrite(inner);
                self.rewrite_ones(inner)
            }
            Expr::Diag(inner) => Expr::Diag(Box::new(self.rewrite(inner))),
            Expr::MatMul(a, b) => {
                let tree = Expr::MatMul(Box::new(self.rewrite(a)), Box::new(self.rewrite(b)));
                self.reorder_chain(tree)
            }
            Expr::Add(a, b) => Expr::Add(Box::new(self.rewrite(a)), Box::new(self.rewrite(b))),
            Expr::ScalarMul(a, b) => {
                Expr::ScalarMul(Box::new(self.rewrite(a)), Box::new(self.rewrite(b)))
            }
            Expr::Hadamard(a, b) => {
                Expr::Hadamard(Box::new(self.rewrite(a)), Box::new(self.rewrite(b)))
            }
            Expr::Apply(name, args) => {
                Expr::Apply(name.clone(), args.iter().map(|a| self.rewrite(a)).collect())
            }
            Expr::Let { var, value, body } => {
                let value = self.rewrite(value);
                let value_stats = self.est(&value).map(|e| VarStats {
                    rows: e.rows,
                    cols: e.cols,
                    nnz: e.nnz.round() as usize,
                });
                self.scope.push(var, value_stats);
                let body = self.rewrite(body);
                self.scope.pop();
                Expr::Let {
                    var: var.clone(),
                    value: Box::new(value),
                    body: Box::new(body),
                }
            }
            Expr::For {
                var,
                var_dim,
                acc,
                acc_type,
                init,
                body,
            } => {
                let init = init.as_ref().map(|e| Box::new(self.rewrite(e)));
                let n = self.stats.dim(var_dim);
                let acc_stats = self.stats.shape_of(acc_type).map(|(rows, cols)| VarStats {
                    rows,
                    cols,
                    nnz: rows * cols,
                });
                self.scope.push_loop(var, n);
                self.scope.push(acc, acc_stats);
                self.loops.push((vec![var.clone(), acc.clone()], n));
                let body = self.rewrite(body);
                self.loops.pop();
                self.scope.pop();
                self.scope.pop();
                Expr::For {
                    var: var.clone(),
                    var_dim: var_dim.clone(),
                    acc: acc.clone(),
                    acc_type: acc_type.clone(),
                    init,
                    body: Box::new(body),
                }
            }
            Expr::Sum { var, var_dim, body } => {
                let body = self.rewrite_loop_body(var, var_dim, body);
                Expr::Sum {
                    var: var.clone(),
                    var_dim: var_dim.clone(),
                    body: Box::new(body),
                }
            }
            Expr::HProd { var, var_dim, body } => {
                let body = self.rewrite_loop_body(var, var_dim, body);
                Expr::HProd {
                    var: var.clone(),
                    var_dim: var_dim.clone(),
                    body: Box::new(body),
                }
            }
            Expr::MProd { var, var_dim, body } => {
                let body = self.rewrite_loop_body(var, var_dim, body);
                Expr::MProd {
                    var: var.clone(),
                    var_dim: var_dim.clone(),
                    body: Box::new(body),
                }
            }
        }
    }

    fn rewrite_loop_body(&mut self, var: &str, var_dim: &str, body: &Expr) -> Expr {
        let n = self.stats.dim(var_dim);
        self.scope.push_loop(var, n);
        self.loops.push((vec![var.to_string()], n));
        let body = self.rewrite(body);
        self.loops.pop();
        self.scope.pop();
        body
    }

    /// `(e₁ · e₂)ᵀ → e₂ᵀ · e₁ᵀ` when the cost model prefers transposing
    /// the operands (and both operands are provably total — the rewrite
    /// reverses their evaluation order).
    fn rewrite_transpose(&mut self, inner: Expr) -> Expr {
        if let Expr::MatMul(a, b) = &inner {
            if let (Some(l), Some(r)) = (self.est(a), self.est(b)) {
                if l.total && r.total && l.cols == r.rows {
                    let (prod_nnz, prod_own) = product_cost(&l, &r);
                    // Unfused: compute the product, transpose the result.
                    let lhs_cost = prod_own + prod_nnz;
                    let lt = ExprEstimate {
                        rows: l.cols,
                        cols: l.rows,
                        ..l
                    };
                    let rt = ExprEstimate {
                        rows: r.cols,
                        cols: r.rows,
                        ..r
                    };
                    // Pushed down: transpose both operands, multiply.
                    let (_, rev_own) = product_cost(&rt, &lt);
                    let rhs_cost = l.nnz + r.nnz + rev_own;
                    if rhs_cost < lhs_cost * MIN_IMPROVEMENT {
                        self.applied.push(AppliedRewrite {
                            rule: "transpose-pushdown",
                            detail: format!("({a} · {b})ᵀ → operand transposes"),
                            saving: lhs_cost - rhs_cost,
                        });
                        let pushed =
                            Expr::MatMul(Box::new(transpose_of(b)), Box::new(transpose_of(a)));
                        // The new product may extend an enclosing chain or
                        // itself be a reorderable chain.
                        return self.reorder_chain(pushed);
                    }
                }
            }
        }
        Expr::Transpose(Box::new(inner))
    }

    /// `1(e) → 1(row source of e)` when the source is strictly cheaper and
    /// the dropped computation is provably total.
    fn rewrite_ones(&mut self, inner: Expr) -> Expr {
        if let Some(ie) = self.est(&inner) {
            if ie.total {
                let source = row_source(&inner);
                if source != inner {
                    if let Some(se) = self.est(&source) {
                        if se.rows == ie.rows && se.work < ie.work * MIN_IMPROVEMENT {
                            self.applied.push(AppliedRewrite {
                                rule: "ones-pushdown",
                                detail: format!("1({inner}) → 1({source})"),
                                saving: ie.work - se.work,
                            });
                            return Expr::Ones(Box::new(source));
                        }
                    }
                }
            }
        }
        Expr::Ones(Box::new(inner))
    }

    /// Re-parenthesizes a maximal product chain by the interval DP when
    /// the cost model finds a strictly cheaper association.  Factor order
    /// is preserved, so evaluation order (and therefore error behavior)
    /// is unchanged; only the association differs.  A chain with a loop's
    /// canonical vector among its factors keeps the association it was
    /// written with: the planner lowers `vᵀ·A·w` and its kin to index
    /// operations, which a reassociation into `vᵀ·(A·(w·…))` would turn
    /// back into full products.
    fn reorder_chain(&mut self, tree: Expr) -> Expr {
        // Counted before the factors are cloned: most products have two.
        if chain_len(&tree) < 3 {
            return tree;
        }
        let mut factors = Vec::new();
        flatten_chain(&tree, &mut factors);
        let k = factors.len();
        if factors.iter().any(|f| self.is_canonical_factor(f)) {
            return tree;
        }
        let Some(ests) = factors
            .iter()
            .map(|f| self.est(f))
            .collect::<Option<Vec<_>>>()
        else {
            return tree;
        };
        if ests.windows(2).any(|w| w[0].cols != w[1].rows) {
            return tree;
        }
        let free: Vec<BTreeSet<String>> = factors.iter().map(|f| f.free_vars()).collect();

        // seg[i][j] covers the product of factors i..=j.
        let mut seg: Vec<Vec<Option<ChainSeg>>> = vec![vec![None; k]; k];
        for (i, est) in ests.iter().enumerate() {
            seg[i][i] = Some((ExprEstimate { work: 0.0, ..*est }, 0.0, i));
        }
        for len in 2..=k {
            for i in 0..=(k - len) {
                let j = i + len - 1;
                let mut vars = BTreeSet::new();
                for f in &free[i..=j] {
                    vars.extend(f.iter().cloned());
                }
                let amortize = self.amortization(&vars);
                let mut best: Option<ChainSeg> = None;
                for s in i..j {
                    let (le, lc, _) = seg[i][s].expect("shorter interval filled");
                    let (re, rc, _) = seg[s + 1][j].expect("shorter interval filled");
                    let (nnz, own) = product_cost(&le, &re);
                    let cost = lc + rc + (own + PRODUCT_OVERHEAD) / amortize;
                    if best.map_or(true, |(_, c, _)| cost < c) {
                        best = Some((
                            ExprEstimate {
                                rows: le.rows,
                                cols: re.cols,
                                nnz,
                                work: 0.0,
                                total: le.total && re.total,
                            },
                            cost,
                            s,
                        ));
                    }
                }
                seg[i][j] = best;
            }
        }
        let (_, best_cost, _) = seg[0][k - 1].expect("full interval filled");

        // Cost of the association as it stands, with the same amortization.
        let mut idx = 0;
        let (_, current_cost, _) = self.assoc_cost(&tree, &ests, &free, &mut idx);
        if best_cost >= current_cost * MIN_IMPROVEMENT {
            return tree;
        }
        self.applied.push(AppliedRewrite {
            rule: "matrix-chain-reorder",
            detail: format!("{k}-factor chain: ≈{current_cost:.0} → ≈{best_cost:.0} ops"),
            saving: current_cost - best_cost,
        });
        build_tree(&factors, &seg, 0, k - 1)
    }

    /// The amortized own-cost of an existing association, computed with
    /// the same combinators as the DP so the comparison is exact.
    /// Returns `(estimate, cost, free variables)` and advances `idx`
    /// through the factor list.
    fn assoc_cost(
        &self,
        e: &Expr,
        ests: &[ExprEstimate],
        free: &[BTreeSet<String>],
        idx: &mut usize,
    ) -> (ExprEstimate, f64, BTreeSet<String>) {
        if let Expr::MatMul(a, b) = e {
            let (le, lc, lv) = self.assoc_cost(a, ests, free, idx);
            let (re, rc, rv) = self.assoc_cost(b, ests, free, idx);
            let (nnz, own) = product_cost(&le, &re);
            let mut vars = lv;
            vars.extend(rv);
            let cost = lc + rc + (own + PRODUCT_OVERHEAD) / self.amortization(&vars);
            (
                ExprEstimate {
                    rows: le.rows,
                    cols: re.cols,
                    nnz,
                    work: 0.0,
                    total: le.total && re.total,
                },
                cost,
                vars,
            )
        } else {
            let est = ExprEstimate {
                work: 0.0,
                ..ests[*idx]
            };
            let vars = free[*idx].clone();
            *idx += 1;
            (est, 0.0, vars)
        }
    }
}

/// Rebuilds the DP's optimal association over `factors[i..=j]`.
fn build_tree(factors: &[Expr], seg: &[Vec<Option<ChainSeg>>], i: usize, j: usize) -> Expr {
    if i == j {
        return factors[i].clone();
    }
    let (_, _, s) = seg[i][j].expect("interval filled");
    Expr::MatMul(
        Box::new(build_tree(factors, seg, i, s)),
        Box::new(build_tree(factors, seg, s + 1, j)),
    )
}

/// Applies the cost-based rules to `expr` until a fixpoint (each pass
/// strictly reduces the estimated cost, so this terminates; a small pass
/// cap guards against pathological interactions).
pub fn rewrite_with_stats(expr: &Expr, stats: &InstanceStats) -> RewriteOutcome {
    let mut current = expr.clone();
    let mut applied = Vec::new();
    for _ in 0..4 {
        let mut rewriter = Rewriter {
            stats,
            scope: Scope::default(),
            loops: Vec::new(),
            applied: Vec::new(),
        };
        let next = rewriter.rewrite(&current);
        if next == current {
            break;
        }
        applied.extend(rewriter.applied);
        current = next;
    }
    RewriteOutcome {
        expr: current,
        applied,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

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
