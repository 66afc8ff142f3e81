//! Algebraic simplification of expressions.
//!
//! The paper's concluding section points at efficient evaluation of
//! (fragments of) for-MATLANG as future work; this module implements the
//! obvious first step: a semantics-preserving rewriter that removes
//! syntactic noise produced by mechanical translations (the circuit
//! decompiler, the RA⁺_K/WL translations and the desugarer all emit
//! expressions with double transposes, multiplications by the literal `1`,
//! additions of the literal `0` and single-use `let` bindings).
//!
//! Every rule is an identity in *every* commutative semiring, so rewriting is
//! sound for all annotation domains:
//!
//! * `(eᵀ)ᵀ → e`
//! * `(const 1) × e → e` and `(const 0) × e` stays (it is the zero matrix of
//!   `e`'s shape, which cannot be written without knowing the shape — left
//!   untouched),
//! * `(const c) × (const d) → const (c·d)` and `(const c) + (const d) → const (c+d)`,
//! * `(const c)·(const d) → const (c·d)` for `1×1` products,
//! * `let X = e in X → e`, dead `let`s, and inlining of `let`-bound
//!   *variables* and *constants* (cheap values whose duplication costs
//!   nothing) — unless a use sits under a binder of the inlined variable,
//!   which would capture it,
//! * transpose of a constant is the constant.
//!
//! [`simplify`] applies the rules in one bottom-up pass: a node is rewritten
//! after its children, and a `let`-bound cheap value is substituted as each
//! use is built, so every redex a rewrite exposes is met on the way up and
//! no fixpoint is needed.  The local rules are [`simplify_step`], written
//! over a [`Node`] view so that the engine's planner applies the very same
//! rules to its hash-consed DAG while it builds it.

use crate::expr::Expr;

/// One node as the local rules see it, with children as handles `T`: an
/// `&Expr` here, a DAG node id in the planner.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Node<T> {
    /// A literal.
    Const(f64),
    /// `eᵀ`.
    Transpose(T),
    /// `e₁ × e₂`.
    ScalarMul(T, T),
    /// `e₁ + e₂`.
    Add(T, T),
    /// `e₁ · e₂`.
    MatMul(T, T),
    /// `e₁ ∘ e₂`.
    Hadamard(T, T),
    /// Any node no local rule matches.
    Other,
}

/// What a local rule replaces a node with.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Simplified<T> {
    /// A descendant of the node, unchanged.
    Keep(T),
    /// A literal.
    Const(f64),
    /// `(const c) × e`, which may itself be a redex (`c = 1`).
    Scale(f64, T),
}

/// One application of a local rule: its result and the number of AST
/// nodes it removes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Step<T> {
    /// The replacement.
    pub to: Simplified<T>,
    /// AST nodes removed (what [`savings`] sums).
    pub saves: usize,
}

/// The local rules at one node whose children are already simplified;
/// `view` shows a child.  `None` when no rule applies.
// The `c == 1.0` guard stays a guard: clippy's suggested float-literal
// pattern is itself linted (illegal_floating_point_literal_pattern).
#[allow(clippy::redundant_guards)]
pub fn simplify_step<T: Copy>(node: Node<T>, view: impl Fn(T) -> Node<T>) -> Option<Step<T>> {
    let step = |to, saves| Some(Step { to, saves });
    let consts = |a, b| match (view(a), view(b)) {
        (Node::Const(c), Node::Const(d)) => Some((c, d)),
        _ => None,
    };
    match node {
        // (eᵀ)ᵀ → e ; (const c)ᵀ → const c.
        Node::Transpose(e) => match view(e) {
            Node::Transpose(inner) => step(Simplified::Keep(inner), 2),
            Node::Const(_) => step(Simplified::Keep(e), 1),
            _ => None,
        },
        // Scalar-multiplication identities; c × (d × e) → (c·d) × e.
        Node::ScalarMul(a, b) => match (view(a), view(b)) {
            (Node::Const(c), _) if c == 1.0 => step(Simplified::Keep(b), 2),
            (Node::Const(c), Node::Const(d)) => step(Simplified::Const(c * d), 2),
            (Node::Const(c), Node::ScalarMul(s, e)) => match view(s) {
                Node::Const(d) => step(Simplified::Scale(c * d, e), 2),
                _ => None,
            },
            _ => None,
        },
        // Constant folding for 1×1 sums and products.
        Node::Add(a, b) => consts(a, b).and_then(|(c, d)| step(Simplified::Const(c + d), 2)),
        Node::MatMul(a, b) | Node::Hadamard(a, b) => {
            consts(a, b).and_then(|(c, d)| step(Simplified::Const(c * d), 2))
        }
        Node::Const(_) | Node::Other => None,
    }
}

/// Applies the simplification rules in one bottom-up pass.
pub fn simplify(expr: &Expr) -> Expr {
    Simplifier::default().expr(expr)
}

/// The number of AST nodes saved by simplification (for reporting/tests).
pub fn savings(expr: &Expr) -> usize {
    expr.size().saturating_sub(simplify(expr).size())
}

fn view(e: &Expr) -> Node<&Expr> {
    match e {
        Expr::Const(c) => Node::Const(*c),
        Expr::Transpose(a) => Node::Transpose(a),
        Expr::ScalarMul(a, b) => Node::ScalarMul(a, b),
        Expr::Add(a, b) => Node::Add(a, b),
        Expr::MatMul(a, b) => Node::MatMul(a, b),
        Expr::Hadamard(a, b) => Node::Hadamard(a, b),
        _ => Node::Other,
    }
}

/// Applies the local rules at the root of `e`, whose children are
/// simplified.
fn local(e: Expr) -> Expr {
    match simplify_step(view(&e), view).map(|s| s.to) {
        None => e,
        Some(Simplified::Keep(kept)) => kept.clone(),
        Some(Simplified::Const(c)) => Expr::Const(c),
        Some(Simplified::Scale(c, kept)) => local(Expr::lit(c).smul(kept.clone())),
    }
}

/// A name in scope while the pass walks a binder's body.
enum Binding {
    /// A loop variable, an accumulator or a `let` that stays.
    Bound,
    /// A `let` whose cheap value is substituted at every use; `captured`
    /// once a use turns out to sit under a binder of the value's variable.
    Inlined { value: Expr, captured: bool },
}

#[derive(Default)]
struct Simplifier {
    scope: Vec<(String, Binding)>,
}

impl Simplifier {
    fn expr(&mut self, e: &Expr) -> Expr {
        let boxed = |s: &mut Self, e: &Expr| Box::new(s.expr(e));
        match e {
            Expr::Var(name) => self.resolve(name).unwrap_or_else(|| e.clone()),
            Expr::Const(_) => e.clone(),
            Expr::Transpose(a) => local(Expr::Transpose(boxed(self, a))),
            Expr::Ones(a) => Expr::Ones(boxed(self, a)),
            Expr::Diag(a) => Expr::Diag(boxed(self, a)),
            Expr::MatMul(a, b) => local(Expr::MatMul(boxed(self, a), boxed(self, b))),
            Expr::Add(a, b) => local(Expr::Add(boxed(self, a), boxed(self, b))),
            Expr::ScalarMul(a, b) => local(Expr::ScalarMul(boxed(self, a), boxed(self, b))),
            Expr::Hadamard(a, b) => local(Expr::Hadamard(boxed(self, a), boxed(self, b))),
            Expr::Apply(f, args) => {
                Expr::Apply(f.clone(), args.iter().map(|a| self.expr(a)).collect())
            }
            Expr::Let { var, value, body } => {
                let value = self.expr(value);
                if matches!(value, Expr::Var(_) | Expr::Const(_)) {
                    let binding = Binding::Inlined {
                        value: value.clone(),
                        captured: false,
                    };
                    let inlined = self.within(var, binding, body);
                    if let (
                        Binding::Inlined {
                            captured: false, ..
                        },
                        body,
                    ) = inlined
                    {
                        return body;
                    }
                }
                let (_, body) = self.within(var, Binding::Bound, body);
                if body == Expr::Var(var.clone()) {
                    return value;
                }
                if !body.free_vars().contains(var) {
                    // The binding is dead; keep only the body.  (The bound
                    // value is pure — the language has no effects — so this
                    // is sound.)
                    return body;
                }
                Expr::let_in(var.clone(), value, body)
            }
            Expr::For {
                var,
                var_dim,
                acc,
                acc_type,
                init,
                body,
            } => {
                let init = init.as_ref().map(|e| boxed(self, e));
                self.scope.push((var.clone(), Binding::Bound));
                let (_, body) = self.within(acc, Binding::Bound, body);
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
                let (_, body) = self.within(var, Binding::Bound, body);
                Expr::sum(var.clone(), var_dim.clone(), body)
            }
            Expr::HProd { var, var_dim, body } => {
                let (_, body) = self.within(var, Binding::Bound, body);
                Expr::hprod(var.clone(), var_dim.clone(), body)
            }
            Expr::MProd { var, var_dim, body } => {
                let (_, body) = self.within(var, Binding::Bound, body);
                Expr::mprod(var.clone(), var_dim.clone(), body)
            }
        }
    }

    /// Simplifies `body` with `name` bound as given, returning the binding
    /// as the walk left it.
    fn within(&mut self, name: &str, binding: Binding, body: &Expr) -> (Binding, Expr) {
        self.scope.push((name.to_string(), binding));
        let body = self.expr(body);
        let (_, binding) = self.scope.pop().expect("pushed above");
        (binding, body)
    }

    /// The value inlined for a use of `name`, when its innermost binding is
    /// an inlined `let`.  A variable value under a binder of its own name
    /// would be captured: the `let` is then marked to stay.
    fn resolve(&mut self, name: &str) -> Option<Expr> {
        let at = self.scope.iter().rposition(|(n, _)| n == name)?;
        let (above, inner) = (&self.scope[at + 1..], &self.scope[at]);
        let Binding::Inlined { value, .. } = &inner.1 else {
            return None;
        };
        let captured = matches!(value, Expr::Var(target)
            if above.iter().any(|(n, b)| n == target && matches!(b, Binding::Bound)));
        let value = value.clone();
        if let Binding::Inlined { captured: mark, .. } = &mut self.scope[at].1 {
            *mark |= captured;
        }
        Some(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate;
    use crate::functions::FunctionRegistry;
    use crate::schema::{Instance, MatrixType};
    use matlang_matrix::Matrix;
    use matlang_semiring::Real;

    fn instance() -> Instance<Real> {
        Instance::new()
            .with_dim("n", 3)
            .with_matrix(
                "A",
                Matrix::from_f64_rows(&[&[1.0, 2.0, 0.0], &[0.0, 3.0, 1.0], &[4.0, 0.0, 5.0]])
                    .unwrap(),
            )
            .with_matrix(
                "u",
                Matrix::from_f64_rows(&[&[1.0], &[2.0], &[3.0]]).unwrap(),
            )
    }

    fn assert_equivalent_and_smaller(expr: &Expr) {
        let simplified = simplify(expr);
        assert!(simplified.size() <= expr.size());
        let registry = FunctionRegistry::standard_field();
        let inst = instance();
        let lhs = evaluate(expr, &inst, &registry).unwrap();
        let rhs = evaluate(&simplified, &inst, &registry).unwrap();
        assert_eq!(lhs, rhs, "simplification changed the value of {expr}");
    }

    #[test]
    fn double_transpose_is_removed() {
        let e = Expr::var("A").t().t();
        assert_eq!(simplify(&e), Expr::var("A"));
        assert_equivalent_and_smaller(&e);
        let nested = Expr::var("A").t().t().t();
        assert_eq!(simplify(&nested), Expr::var("A").t());
    }

    #[test]
    fn multiplication_by_one_is_removed_and_constants_fold() {
        let e = Expr::lit(1.0).smul(Expr::var("A"));
        assert_eq!(simplify(&e), Expr::var("A"));
        let folded = Expr::lit(2.0).smul(Expr::lit(3.0).smul(Expr::var("A")));
        assert_eq!(simplify(&folded), Expr::lit(6.0).smul(Expr::var("A")));
        let scalar_chain = Expr::lit(2.0).add(Expr::lit(3.0)).mm(Expr::lit(4.0));
        assert_eq!(simplify(&scalar_chain), Expr::lit(20.0));
        assert_equivalent_and_smaller(&folded);
    }

    #[test]
    fn minus_helper_simplifies_its_constant_part() {
        // 1 − (1 − x) builds nested constants that partially fold away.
        let e = Expr::lit(1.0).minus(Expr::lit(1.0).minus(Expr::var("s")));
        let inst = instance().with_matrix("s", Matrix::scalar(Real(0.25)));
        let registry = FunctionRegistry::standard_field();
        let lhs = evaluate(&e, &inst, &registry).unwrap();
        let rhs = evaluate(&simplify(&e), &inst, &registry).unwrap();
        assert_eq!(lhs, rhs);
        assert!(simplify(&e).size() <= e.size());
    }

    #[test]
    fn trivial_and_dead_lets_are_removed() {
        let trivial = Expr::let_in("T", Expr::var("A").mm(Expr::var("A")), Expr::var("T"));
        assert_eq!(simplify(&trivial), Expr::var("A").mm(Expr::var("A")));
        let dead = Expr::let_in("T", Expr::var("A").mm(Expr::var("A")), Expr::var("u"));
        assert_eq!(simplify(&dead), Expr::var("u"));
        let cheap = Expr::let_in("T", Expr::var("A"), Expr::var("T").add(Expr::var("T")));
        assert_eq!(simplify(&cheap), Expr::var("A").add(Expr::var("A")));
        // Expensive, genuinely shared bindings are preserved.
        let shared = Expr::let_in(
            "T",
            Expr::var("A").mm(Expr::var("A")),
            Expr::var("T").add(Expr::var("T")),
        );
        assert!(matches!(simplify(&shared), Expr::Let { .. }));
        for e in [trivial, dead, cheap, shared] {
            assert_equivalent_and_smaller(&e);
        }
    }

    #[test]
    fn simplification_recurses_into_loops() {
        let e = Expr::sum(
            "v",
            "n",
            Expr::lit(1.0).smul(
                Expr::var("v")
                    .t()
                    .t()
                    .t()
                    .mm(Expr::var("A"))
                    .mm(Expr::var("v")),
            ),
        );
        let simplified = simplify(&e);
        assert!(simplified.size() < e.size());
        assert_equivalent_and_smaller(&e);
        let f = Expr::for_init(
            "v",
            "n",
            "X",
            MatrixType::square("n"),
            Expr::var("A").t().t(),
            Expr::var("X").add(Expr::lit(1.0).smul(Expr::var("A"))),
        );
        assert_equivalent_and_smaller(&f);
    }

    #[test]
    fn savings_reports_node_reduction() {
        let e = Expr::lit(1.0).smul(Expr::var("A").t().t());
        assert_eq!(savings(&e), e.size() - 1);
        assert_eq!(savings(&Expr::var("A")), 0);
    }

    #[test]
    fn inlining_never_captures_a_rebound_variable() {
        // `let Y = w in Σw. (wᵀ·Y) × A`: inlining `w` for `Y` would put the
        // outer `w` under the inner loop's binder, so the `let` stays.
        let sum = Expr::sum(
            "w",
            "n",
            Expr::var("w").t().mm(Expr::var("Y")).smul(Expr::var("A")),
        );
        let captured = Expr::let_in("Y", Expr::var("w"), sum);
        assert_eq!(simplify(&captured), captured);
        // A dead `let` under the binder still goes, and the outer one then
        // inlines: `let Y = w in (let w = A·A in Y)` is `w`.
        let shadowed = Expr::let_in(
            "Y",
            Expr::var("w"),
            Expr::let_in("w", Expr::var("A").mm(Expr::var("A")), Expr::var("Y")),
        );
        assert_eq!(simplify(&shadowed), Expr::var("w"));
        let w = Matrix::from_f64_rows(&[&[1.0], &[0.0], &[5.0]]).unwrap();
        let inst = instance().with_matrix("w", w);
        let registry = FunctionRegistry::standard_field();
        for e in [captured, shadowed] {
            let lhs = evaluate(&e, &inst, &registry).unwrap();
            let rhs = evaluate(&simplify(&e), &inst, &registry).unwrap();
            assert_eq!(lhs, rhs, "simplification changed the value of {e}");
        }
    }

    #[test]
    fn simplification_is_idempotent() {
        let exprs = [
            Expr::var("A").t().t(),
            Expr::lit(2.0).smul(Expr::lit(3.0).smul(Expr::var("A"))),
            Expr::let_in("T", Expr::var("A"), Expr::var("T").mm(Expr::var("T"))),
            Expr::sum("v", "n", Expr::lit(1.0).smul(Expr::var("v"))),
        ];
        for e in exprs {
            let once = simplify(&e);
            let twice = simplify(&once);
            assert_eq!(once, twice);
        }
    }
}
