//! The paper's worked algorithms as for-MATLANG expressions, together with
//! direct Rust baselines.
//!
//! * [`order`] — the order machinery of Section 3.2 / Appendix B.1:
//!   `e_max`, `e_min`, the order matrices `S≤`/`S<`, the `succ` predicates,
//!   the shift matrices `Prev`/`Next` and friends.
//! * [`graphs`] — Example 3.3 (4-clique), Example 3.5 (Floyd–Warshall
//!   transitive closure), the prod-MATLANG transitive closure of Section 6.3,
//!   the trace and the diagonal product of Example 6.6.
//! * [`lu`] — LU and PLU decomposition (Section 4.1, Propositions 4.1/4.2).
//! * [`csanky`] — triangular inversion (Lemma C.1) and Csanky's algorithm for
//!   the determinant and the inverse (Section 4.2, Proposition 4.3).
//! * [`baseline`] — straightforward Rust implementations of the same
//!   operations, used as ground truth in tests and examples.
//! * [`helpers`] — schema/instance builders shared by examples and tests.

#![forbid(unsafe_code)]

pub mod baseline;
pub mod csanky;
pub mod graphs;
pub mod helpers;
pub mod lu;
pub mod order;
pub mod triangular;

pub use helpers::{adjacency_instance, square_instance, square_schema, standard_registry};
