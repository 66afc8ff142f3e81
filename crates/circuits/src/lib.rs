//! Arithmetic circuits and their correspondence with for-MATLANG (Section 5).
//!
//! * [`circuit`] — the circuit data structure: sum/product gates with
//!   unbounded fan-in, inputs and constants, plus size / depth / degree.
//! * [`eval`] — two evaluators: a straightforward memoized one and the
//!   two-stack, depth-first evaluator that mirrors the paper's Algorithms
//!   1–3 (the machine that Theorem 5.1 simulates inside for-MATLANG).
//! * [`family`] — circuit *families* `{Φₙ}` given by a generator function of
//!   `n`, the operational counterpart of the paper's LOGSPACE-uniform
//!   families, together with degree/size growth probes.
//! * [`compile`] — `expr_to_circuit` (Theorem 5.3): compile a for-MATLANG
//!   expression and an input size `n` into an arithmetic circuit over
//!   matrices.
//! * [`decompile`] — `circuit_to_expr` (the content of Theorem 5.1 for a
//!   fixed size): translate a circuit `Φₙ` into a for-MATLANG expression
//!   over a single input-vector variable.

#![forbid(unsafe_code)]

pub mod circuit;
pub mod compile;
pub mod decompile;
pub mod eval;
pub mod family;

pub use circuit::{Circuit, CircuitError, Gate, GateId};
pub use compile::{expr_to_circuit, CompileError, MatrixCircuit};
pub use decompile::circuit_to_expr;
pub use family::CircuitFamily;
