//! The MATLANG family of matrix query languages.
//!
//! This crate implements the languages studied in *"Expressive power of
//! linear algebra query languages"* (Geerts, Muñoz, Riveros, Vrgoč, PODS
//! 2021):
//!
//! * **MATLANG** (Section 2): matrix variables, transpose, the one-vector
//!   `1(e)`, diagonalization `diag(e)`, matrix product, matrix addition,
//!   scalar multiplication and pointwise function application.
//! * **for-MATLANG** (Section 3): MATLANG plus canonical for-loops
//!   `for v, X. e` (with optional initialization `for v, X = e₀. e`).
//! * **sum-MATLANG**, **FO-MATLANG** and **prod-MATLANG** (Section 6): the
//!   fragments in which loops may only perform additive updates (`Σv. e`),
//!   Hadamard-product updates (`Π∘v. e`) or matrix-product updates
//!   (`Πv. e`).
//!
//! The crate provides:
//!
//! * the expression AST ([`Expr`]) together with ergonomic builders,
//! * schemas, size symbols and instances ([`Schema`], [`Dim`], [`Instance`]),
//! * the paper's typing rules ([`typecheck()`]),
//! * syntactic fragment classification ([`fragment`]),
//! * pointwise-function registries ([`FunctionRegistry`]),
//! * a semiring-generic, **backend-aware** evaluator ([`evaluate`])
//!   implementing the semantics of Sections 2, 3 and 6 — generic over the
//!   [`matlang_matrix::MatrixStorage`] representation, so the same
//!   expression evaluates over dense, CSR-sparse or adaptive
//!   ([`SparseInstance`]) matrices with identical results, and
//! * desugarings of the derived operators into core for-MATLANG
//!   ([`desugar`]), mirroring Examples 3.1 and 3.2, and
//! * the shared evaluator test corpus ([`corpus`]) that every evaluation
//!   path — dense, sparse-adaptive, and the `matlang_engine`
//!   planner/executor — is checked against.

#![forbid(unsafe_code)]

pub mod corpus;
pub mod desugar;
pub mod display;
pub mod eval;
pub mod expr;
pub mod fragment;
pub mod functions;
pub mod rewrite;
pub mod schema;
pub mod typecheck;

pub use eval::{evaluate, evaluate_with_env, EvalError};
pub use expr::Expr;
pub use fragment::{fragment_of, Fragment};
pub use functions::{FunctionRegistry, PointwiseFn};
pub use schema::{Dim, Instance, MatrixType, Schema};
pub use typecheck::{typecheck, TypeError};

/// An instance whose matrices use the adaptive sparse/dense representation
/// ([`matlang_matrix::MatrixRepr`]).  Evaluating with it turns every
/// operation into a backend-aware one: results are stored sparse or dense
/// according to their density.
pub type SparseInstance<K> = Instance<K, matlang_matrix::MatrixRepr<K>>;

/// Result alias for evaluation.
pub type EvalResult<T> = std::result::Result<T, EvalError>;

/// Result alias for type checking.
pub type TypeResult<T> = std::result::Result<T, TypeError>;
