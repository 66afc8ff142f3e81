//! Commutative semirings, rings and fields used as annotation domains `K`.
//!
//! Section 6 of the paper generalizes the semantics of MATLANG and its
//! fragments from the reals `(R, +, ×, 0, 1)` to an arbitrary commutative
//! semiring `(K, ⊕, ⊙, 0, 1)`.  Everything in this workspace that only needs
//! `⊕`/`⊙` is generic over the [`Semiring`] trait defined here; the
//! constructions of Sections 4 and 5 (LU decomposition, Csanky's algorithm,
//! division removal) additionally require subtraction and division and are
//! bounded by the [`Ring`] / [`Field`] traits.
//!
//! Provided instances:
//!
//! * [`Real`] — the field of 64-bit floats, the paper's default domain.
//! * [`Nat`] — the natural-number semiring `(ℕ, +, ×, 0, 1)`.
//! * [`Boolean`] — the boolean semiring `({0,1}, ∨, ∧, 0, 1)`.
//! * [`IntRing`] — the ring of integers `(ℤ, +, ×, 0, 1)`.
//! * [`MinPlus`] / [`MaxPlus`] — tropical semirings used for shortest/longest
//!   path style provenance.

#![forbid(unsafe_code)]

pub mod boolean;
pub mod int;
pub mod nat;
pub mod real;
pub mod tropical;

pub use boolean::Boolean;
pub use int::IntRing;
pub use nat::Nat;
pub use real::Real;
pub use tropical::{MaxPlus, MinPlus};

use std::fmt::Debug;

/// A commutative semiring `(K, ⊕, ⊙, 0, 1)`.
///
/// Laws (checked by the property-test helpers in [`laws`]):
///
/// * `(K, ⊕, 0)` is a commutative monoid,
/// * `(K, ⊙, 1)` is a commutative monoid,
/// * `⊙` distributes over `⊕`,
/// * `0` annihilates: `0 ⊙ k = k ⊙ 0 = 0`.
pub trait Semiring: Clone + PartialEq + Debug + Send + Sync + 'static {
    /// The additive identity `0`.
    fn zero() -> Self;
    /// The multiplicative identity `1`.
    fn one() -> Self;
    /// Semiring addition `⊕`.
    fn add(&self, other: &Self) -> Self;
    /// Semiring multiplication `⊙`.
    fn mul(&self, other: &Self) -> Self;

    /// Whether this element is the additive identity.
    fn is_zero(&self) -> bool {
        *self == Self::zero()
    }

    /// Whether this element is the multiplicative identity.
    fn is_one(&self) -> bool {
        *self == Self::one()
    }

    /// Injects a small machine float into the semiring.
    ///
    /// MATLANG expressions occasionally mention literal constants such as `1`,
    /// `2` or `1/2` (e.g. in the Turing-machine simulation of Appendix D).
    /// Each semiring interprets such literals in a sensible, documented way;
    /// for the canonical 0/1 constants this always coincides with
    /// [`Semiring::zero`] / [`Semiring::one`].
    fn from_f64(value: f64) -> Self;

    /// Best-effort projection back into a float, used for reporting and for
    /// cross-semiring comparisons in tests and benchmarks.
    fn to_f64(&self) -> f64;

    /// Sums an iterator of elements (`⊕` over the sequence, `0` if empty).
    fn sum<I: IntoIterator<Item = Self>>(iter: I) -> Self {
        iter.into_iter().fold(Self::zero(), |acc, x| acc.add(&x))
    }

    /// Multiplies an iterator of elements (`⊙` over the sequence, `1` if empty).
    fn product<I: IntoIterator<Item = Self>>(iter: I) -> Self {
        iter.into_iter().fold(Self::one(), |acc, x| acc.mul(&x))
    }
}

/// A commutative ring: a semiring with additive inverses.
pub trait Ring: Semiring {
    /// Additive inverse.
    fn neg(&self) -> Self;

    /// Subtraction `a ⊕ (−b)`.
    fn sub(&self, other: &Self) -> Self {
        self.add(&other.neg())
    }
}

/// A field: a ring in which every non-zero element has a multiplicative
/// inverse.  Needed for the division function `f_/` of Sections 4 and 5.3.
pub trait Field: Ring {
    /// Multiplicative inverse.  Implementations may return `None` for zero.
    fn inv(&self) -> Option<Self>;

    /// Division `a ⊙ b⁻¹`; `None` when `b` has no inverse.
    fn div(&self, other: &Self) -> Option<Self> {
        other.inv().map(|i| self.mul(&i))
    }
}

/// A field with a decidable order, enough to define the paper's `f_{>0}`
/// pointwise function (used for pivot search in PLU decomposition and for
/// thresholding the prod-MATLANG transitive closure).
pub trait OrderedField: Field {
    /// Returns `1` when the element is strictly positive and `0` otherwise.
    fn gt_zero(&self) -> Self {
        if self.to_f64() > 0.0 {
            Self::one()
        } else {
            Self::zero()
        }
    }

    /// Total-order comparison used by pivot selection.
    fn cmp_value(&self, other: &Self) -> std::cmp::Ordering {
        self.to_f64()
            .partial_cmp(&other.to_f64())
            .unwrap_or(std::cmp::Ordering::Equal)
    }
}

/// Approximate equality, used to compare `Real` results of numerically
/// different but mathematically equivalent computations (e.g. Csanky's
/// inverse versus Gauss–Jordan).
pub trait ApproxEq {
    /// True when `self` and `other` differ by at most `tol` (absolute or
    /// relative, whichever is more permissive).
    fn approx_eq(&self, other: &Self, tol: f64) -> bool;
}

impl<T: Semiring> ApproxEq for T {
    fn approx_eq(&self, other: &Self, tol: f64) -> bool {
        if self == other {
            return true;
        }
        let a = self.to_f64();
        let b = other.to_f64();
        if a.is_nan() || b.is_nan() {
            return false;
        }
        let diff = (a - b).abs();
        let scale = a.abs().max(b.abs()).max(1.0);
        diff <= tol * scale
    }
}

/// Helpers for asserting the semiring laws on concrete triples of elements.
///
/// These are deliberately plain functions over values (rather than macros) so
/// that both unit tests and proptest harnesses across the workspace can reuse
/// them.
pub mod laws {
    use super::Semiring;

    /// `(a ⊕ b) ⊕ c = a ⊕ (b ⊕ c)`
    pub fn add_associative<K: Semiring>(a: &K, b: &K, c: &K) -> bool {
        a.add(b).add(c) == a.add(&b.add(c))
    }

    /// `a ⊕ b = b ⊕ a`
    pub fn add_commutative<K: Semiring>(a: &K, b: &K) -> bool {
        a.add(b) == b.add(a)
    }

    /// `a ⊕ 0 = a`
    pub fn add_identity<K: Semiring>(a: &K) -> bool {
        a.add(&K::zero()) == *a && K::zero().add(a) == *a
    }

    /// `(a ⊙ b) ⊙ c = a ⊙ (b ⊙ c)`
    pub fn mul_associative<K: Semiring>(a: &K, b: &K, c: &K) -> bool {
        a.mul(b).mul(c) == a.mul(&b.mul(c))
    }

    /// `a ⊙ b = b ⊙ a`
    pub fn mul_commutative<K: Semiring>(a: &K, b: &K) -> bool {
        a.mul(b) == b.mul(a)
    }

    /// `a ⊙ 1 = a`
    pub fn mul_identity<K: Semiring>(a: &K) -> bool {
        a.mul(&K::one()) == *a && K::one().mul(a) == *a
    }

    /// `a ⊙ (b ⊕ c) = (a ⊙ b) ⊕ (a ⊙ c)`
    pub fn distributive<K: Semiring>(a: &K, b: &K, c: &K) -> bool {
        a.mul(&b.add(c)) == a.mul(b).add(&a.mul(c))
    }

    /// `0 ⊙ a = a ⊙ 0 = 0`
    pub fn zero_annihilates<K: Semiring>(a: &K) -> bool {
        K::zero().mul(a) == K::zero() && a.mul(&K::zero()) == K::zero()
    }

    /// Convenience bundle: all semiring laws on a triple.
    pub fn all_laws<K: Semiring>(a: &K, b: &K, c: &K) -> bool {
        add_associative(a, b, c)
            && add_commutative(a, b)
            && add_identity(a)
            && mul_associative(a, b, c)
            && mul_commutative(a, b)
            && mul_identity(a)
            && distributive(a, b, c)
            && zero_annihilates(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_and_product_fold_correctly() {
        let xs = vec![
            Real::from_f64(1.0),
            Real::from_f64(2.0),
            Real::from_f64(3.0),
        ];
        assert_eq!(Real::sum(xs.clone()), Real::from_f64(6.0));
        assert_eq!(Real::product(xs), Real::from_f64(6.0));
    }

    #[test]
    fn empty_sum_is_zero_and_empty_product_is_one() {
        let empty: Vec<Nat> = vec![];
        assert_eq!(Nat::sum(empty.clone()), Nat::zero());
        assert_eq!(Nat::product(empty), Nat::one());
    }

    #[test]
    fn approx_eq_tolerates_rounding() {
        let a = Real::from_f64(1.0);
        let b = Real::from_f64(1.0 + 1e-12);
        assert!(a.approx_eq(&b, 1e-9));
        assert!(!a.approx_eq(&Real::from_f64(2.0), 1e-9));
    }

    #[test]
    fn approx_eq_rejects_nan() {
        let nan = Real::from_f64(f64::NAN);
        assert!(!nan.approx_eq(&Real::one(), 1e-9));
    }

    #[test]
    fn is_zero_and_is_one_defaults() {
        assert!(Boolean::zero().is_zero());
        assert!(Boolean::one().is_one());
        assert!(!Boolean::one().is_zero());
    }
}
