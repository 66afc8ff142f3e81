//! K-relations, the positive relational algebra `RA⁺_K` and its equivalence
//! with sum-MATLANG (Section 6.1 of the paper).
//!
//! * [`kr`] — semiring-annotated relations (`K`-relations) with the
//!   operations union, projection, selection, renaming and natural join of
//!   Green–Karvounarakis–Tannen provenance semirings.
//! * [`expr`] — the `RA⁺_K` expression syntax and its evaluation over a
//!   `K`-database.
//! * [`encode`] — the schema/instance encodings `Rel(S)` / `Rel(I)` (matrices
//!   to relations) and `Mat(R)` / `Mat(J)` (binary relations to matrices).
//! * [`to_ra`] — the translation `Φ : sum-MATLANG → RA⁺_K` of
//!   Proposition 6.3.
//! * [`from_ra`] — the translation `Ψ : RA⁺_K → sum-MATLANG` of
//!   Proposition 6.4.
//!
//! Together the two translations and their round-trip tests realize
//! Corollary 6.5: sum-MATLANG and `RA⁺_K` over binary schemas are equally
//! expressive.

#![forbid(unsafe_code)]

pub mod encode;
pub mod expr;
pub mod from_ra;
pub mod kr;
pub mod to_ra;

pub use encode::{
    decode_matrix_instance, encode_instance, matrix_var_relation, ACTIVE_DOMAIN_PREFIX,
};
pub use expr::{Database, RaError, RaExpr};
pub use from_ra::{ra_to_matlang, RaSchema};
pub use kr::Relation;
pub use to_ra::{matlang_to_ra, ToRaError};
