//! # matlang
//!
//! A from-scratch Rust implementation of the matrix query languages studied
//! in *"Expressive power of linear algebra query languages"* (Geerts, Muñoz,
//! Riveros, Vrgoč, PODS 2021): MATLANG, for-MATLANG and the fragments
//! sum-MATLANG, FO-MATLANG and prod-MATLANG, together with every formalism
//! the paper relates them to — arithmetic circuits, the positive relational
//! algebra on K-relations and weighted first-order logic.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`semiring`] — annotation domains `K` (ℝ, ℕ, 𝔹, ℤ, tropical semirings).
//! * [`matrix`] — dense, CSR-sparse and adaptive `K`-matrices behind the
//!   common `MatrixStorage` interface.
//! * [`core`] — the expression AST, schemas, typing, fragments and the
//!   evaluator.
//! * [`engine`] — the query planner (CSE, loop-invariant hoisting,
//!   cost-based representation choice) and the memoizing executor,
//!   including batched evaluation of many queries over one instance.
//! * [`server`] — a concurrent query service over a line-delimited TCP
//!   protocol: named instances, prepared queries with a persistent memo
//!   cache, and incremental `UPDATE`s that invalidate exactly the
//!   dependent plan nodes.
//! * [`algorithms`] — the paper's worked algorithms (order predicates,
//!   4-clique, transitive closure, LU/PLU, Csanky determinant & inverse) and
//!   their numeric baselines.
//! * [`circuits`] — arithmetic circuits and the for-MATLANG ↔ circuit
//!   translations of Section 5.
//! * [`ra`] — K-relations, RA⁺_K and the sum-MATLANG ↔ RA⁺_K translations of
//!   Section 6.1.
//! * [`wl`] — weighted structures, weighted logics and the FO-MATLANG ↔ WL
//!   translations of Section 6.2.
//! * [`parser`] — a textual surface syntax.
//!
//! ## Quickstart
//!
//! ```
//! use matlang::prelude::*;
//!
//! // The trace of a matrix as a sum-MATLANG expression: Σv. vᵀ·A·v.
//! let trace = Expr::sum("v", "n", Expr::var("v").t().mm(Expr::var("A")).mm(Expr::var("v")));
//!
//! // Type check it against a schema with one square matrix variable.
//! let schema = Schema::new().with_var("A", MatrixType::square("n"));
//! assert_eq!(typecheck(&trace, &schema).unwrap(), MatrixType::scalar());
//! assert_eq!(fragment_of(&trace), Fragment::SumMatlang);
//!
//! // Evaluate it over a concrete instance.
//! let a: Matrix<Real> = Matrix::from_f64_rows(&[&[1.0, 5.0], &[7.0, 2.0]]).unwrap();
//! let instance = Instance::new().with_dim("n", 2).with_matrix("A", a);
//! let result = evaluate(&trace, &instance, &FunctionRegistry::standard_field()).unwrap();
//! assert_eq!(result.as_scalar().unwrap(), Real(3.0));
//! ```

#![forbid(unsafe_code)]

pub use matlang_algorithms as algorithms;
pub use matlang_circuits as circuits;
pub use matlang_core as core;
pub use matlang_engine as engine;
pub use matlang_matrix as matrix;
pub use matlang_obs as obs;
pub use matlang_parser as parser;
pub use matlang_ra as ra;
pub use matlang_semiring as semiring;
pub use matlang_server as server;
pub use matlang_wl as wl;

/// Commonly used items, re-exported for `use matlang::prelude::*`.
pub mod prelude {
    pub use matlang_core::{
        evaluate, evaluate_with_env, fragment_of, typecheck, Dim, EvalError, Expr, Fragment,
        FunctionRegistry, Instance, MatrixType, Schema, SparseInstance, TypeError,
    };
    pub use matlang_engine::{Engine, ExecStats, Plan, PlanReport, Planner};
    pub use matlang_matrix::{
        random_adjacency, random_invertible, random_matrix, random_vector, sparse_erdos_renyi,
        sparse_power_law, Matrix, MatrixRepr, MatrixStorage, RandomMatrixConfig, SparseMatrix,
    };
    pub use matlang_semiring::{
        ApproxEq, Boolean, Field, IntRing, MaxPlus, MinPlus, Nat, OrderedField, Real, Ring,
        Semiring,
    };
    pub use matlang_server::{
        Client, ClientError, DeltaWire, ErrorCode, SemiringKind, Server, ServerConfig, ServerError,
        ServerHello, Store, StoreConfig, UpdateReply,
    };
}
