//! K-weighted structures, weighted first-order logic (WL) and the
//! equivalence with FO-MATLANG (Section 6.2 of the paper).
//!
//! * [`structure`] — `K`-weighted structures: finite domains with weighted
//!   relations `Rᴬ : A^arity → K`.
//! * [`formula`] — the weighted-logic formulas
//!   `φ ::= x = y | R(x̄) | φ ⊕ φ | φ ⊙ φ | Σx.φ | Πx.φ` and their semantics.
//! * [`translate`] — the encodings `WL(S)` / `WL(I)` and `Mat(Γ)` / `Mat(A)`
//!   plus both directions of Proposition 6.7:
//!   `Φ : FO-MATLANG → WL` and `Ψ : WL → FO-MATLANG`.

#![forbid(unsafe_code)]

pub mod formula;
pub mod structure;
pub mod translate;

pub use formula::WlFormula;
pub use structure::{WeightedRelation, WeightedStructure};
pub use translate::{
    encode_instance_as_structure, encode_structure_as_instance, matlang_to_wl, wl_to_matlang,
    ToWlError, COL_VAR, ROW_VAR,
};
