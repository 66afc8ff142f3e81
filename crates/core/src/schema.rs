//! Schemas, size symbols, matrix types and instances.
//!
//! A MATLANG schema `S = (M, size)` assigns a pair of *size symbols* to every
//! matrix variable; an instance `I = (D, mat)` assigns a concrete dimension
//! to every size symbol and a concrete matrix to every variable (Section 2).

use matlang_matrix::{Matrix, MatrixStorage};
use matlang_semiring::Semiring;
use std::collections::BTreeMap;
use std::fmt;
use std::marker::PhantomData;

/// A size symbol: either the distinguished symbol `1` or a named symbol such
/// as `α`, `β`, `γ`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Dim {
    /// The constant dimension `1`.
    One,
    /// A named size symbol whose value is supplied by the instance.
    Sym(String),
}

impl Dim {
    /// A named size symbol.
    pub fn sym(name: impl Into<String>) -> Dim {
        Dim::Sym(name.into())
    }

    /// Whether this is the constant dimension `1`.
    pub fn is_one(&self) -> bool {
        matches!(self, Dim::One)
    }
}

impl fmt::Display for Dim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Dim::One => write!(f, "1"),
            Dim::Sym(s) => write!(f, "{s}"),
        }
    }
}

/// The type of an expression: a pair of size symbols `(α, β)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MatrixType {
    /// Row size symbol.
    pub rows: Dim,
    /// Column size symbol.
    pub cols: Dim,
}

impl MatrixType {
    /// A matrix type with the given row and column symbols.
    pub fn new(rows: Dim, cols: Dim) -> MatrixType {
        MatrixType { rows, cols }
    }

    /// The scalar type `(1, 1)`.
    pub fn scalar() -> MatrixType {
        MatrixType::new(Dim::One, Dim::One)
    }

    /// A square matrix type `(α, α)`.
    pub fn square(sym: impl Into<String>) -> MatrixType {
        let d = Dim::sym(sym);
        MatrixType::new(d.clone(), d)
    }

    /// A column-vector type `(α, 1)`.
    pub fn vector(sym: impl Into<String>) -> MatrixType {
        MatrixType::new(Dim::sym(sym), Dim::One)
    }

    /// A row-vector type `(1, α)`.
    pub fn row_vector(sym: impl Into<String>) -> MatrixType {
        MatrixType::new(Dim::One, Dim::sym(sym))
    }

    /// The transposed type `(β, α)`.
    pub fn transposed(&self) -> MatrixType {
        MatrixType::new(self.cols.clone(), self.rows.clone())
    }

    /// Whether this is the scalar type `(1, 1)`.
    pub fn is_scalar(&self) -> bool {
        self.rows.is_one() && self.cols.is_one()
    }

    /// Whether this is a column-vector type `(α, 1)` (including `(1, 1)`).
    pub fn is_vector(&self) -> bool {
        self.cols.is_one()
    }
}

impl fmt::Display for MatrixType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.rows, self.cols)
    }
}

/// A MATLANG schema: a finite map from matrix-variable names to types.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Schema {
    vars: BTreeMap<String, MatrixType>,
}

impl Schema {
    /// The empty schema.
    pub fn new() -> Schema {
        Schema::default()
    }

    /// Builder-style variable declaration.
    pub fn with_var(mut self, name: impl Into<String>, ty: MatrixType) -> Schema {
        self.vars.insert(name.into(), ty);
        self
    }

    /// Declares (or overwrites) a variable.
    pub fn declare(&mut self, name: impl Into<String>, ty: MatrixType) {
        self.vars.insert(name.into(), ty);
    }

    /// The type of a variable, if declared.
    pub fn var_type(&self, name: &str) -> Option<&MatrixType> {
        self.vars.get(name)
    }

    /// Iterate over declared variables in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &MatrixType)> {
        self.vars.iter()
    }

    /// Number of declared variables.
    pub fn len(&self) -> usize {
        self.vars.len()
    }

    /// Whether no variables are declared.
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }
}

/// A MATLANG instance `I = (D, mat)`: concrete dimensions for size symbols
/// and concrete matrices for matrix variables.
///
/// The instance is generic over the matrix representation `M` (any
/// [`MatrixStorage`] backend); it defaults to the dense [`Matrix`], so
/// existing code written against `Instance<K>` keeps its meaning.  Use
/// `Instance<K, MatrixRepr<K>>` (alias [`crate::SparseInstance`]) to
/// evaluate over the adaptive sparse/dense backend.
#[derive(Debug, Clone)]
pub struct Instance<K: Semiring, M: MatrixStorage<Elem = K> = Matrix<K>> {
    dims: BTreeMap<String, usize>,
    mats: BTreeMap<String, M>,
    _semiring: PhantomData<K>,
}

impl<K: Semiring, M: MatrixStorage<Elem = K>> Default for Instance<K, M> {
    fn default() -> Self {
        Instance {
            dims: BTreeMap::new(),
            mats: BTreeMap::new(),
            _semiring: PhantomData,
        }
    }
}

impl<K: Semiring, M: MatrixStorage<Elem = K>> Instance<K, M> {
    /// An empty instance.
    pub fn new() -> Instance<K, M> {
        Instance::default()
    }

    /// Builder-style size-symbol assignment `D(sym) = n`.
    pub fn with_dim(mut self, sym: impl Into<String>, n: usize) -> Instance<K, M> {
        self.dims.insert(sym.into(), n);
        self
    }

    /// Builder-style matrix assignment `mat(V) = m`.
    pub fn with_matrix(mut self, var: impl Into<String>, m: M) -> Instance<K, M> {
        self.mats.insert(var.into(), m);
        self
    }

    /// Assign a size symbol.
    pub fn set_dim(&mut self, sym: impl Into<String>, n: usize) {
        self.dims.insert(sym.into(), n);
    }

    /// Assign a matrix to a variable.
    pub fn set_matrix(&mut self, var: impl Into<String>, m: M) {
        self.mats.insert(var.into(), m);
    }

    /// The value assigned to the size symbol `sym`.
    pub fn dim(&self, sym: &str) -> Option<usize> {
        self.dims.get(sym).copied()
    }

    /// The value of a size symbol; `Dim::One` always resolves to 1.
    pub fn dim_value(&self, dim: &Dim) -> Option<usize> {
        match dim {
            Dim::One => Some(1),
            Dim::Sym(s) => self.dim(s),
        }
    }

    /// The concrete shape denoted by a matrix type under this instance.
    pub fn shape_of(&self, ty: &MatrixType) -> Option<(usize, usize)> {
        Some((self.dim_value(&ty.rows)?, self.dim_value(&ty.cols)?))
    }

    /// The matrix assigned to a variable.
    pub fn matrix(&self, var: &str) -> Option<&M> {
        self.mats.get(var)
    }

    /// Mutable access to the matrix assigned to a variable — the hook for
    /// **in-place incremental updates** (point mutations via
    /// [`MatrixStorage::set_entry`]) as opposed to re-assigning a whole
    /// matrix with [`Instance::set_matrix`].  Callers holding derived state
    /// (plan caches, statistics) are responsible for invalidating it.
    pub fn matrix_mut(&mut self, var: &str) -> Option<&mut M> {
        self.mats.get_mut(var)
    }

    /// Iterate over assigned matrices in name order.
    pub fn matrices(&self) -> impl Iterator<Item = (&String, &M)> {
        self.mats.iter()
    }

    /// Iterate over assigned dimensions in name order.
    pub fn dims(&self) -> impl Iterator<Item = (&String, usize)> {
        self.dims.iter().map(|(k, v)| (k, *v))
    }

    /// Checks that every declared variable of `schema` is assigned a matrix
    /// whose shape matches its declared type.  Returns the offending variable
    /// name on failure.
    pub fn conforms_to(&self, schema: &Schema) -> Result<(), String> {
        for (name, ty) in schema.iter() {
            let expected = self
                .shape_of(ty)
                .ok_or_else(|| format!("size symbol of {name} has no assigned dimension"))?;
            let m = self
                .matrix(name)
                .ok_or_else(|| format!("variable {name} has no assigned matrix"))?;
            if m.shape() != expected {
                return Err(format!(
                    "variable {name} has shape {:?} but its type {ty} requires {:?}",
                    m.shape(),
                    expected
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matlang_semiring::Real;

    #[test]
    fn dims_display_and_predicates() {
        assert_eq!(Dim::One.to_string(), "1");
        assert_eq!(Dim::sym("α").to_string(), "α");
        assert!(Dim::One.is_one());
        assert!(!Dim::sym("α").is_one());
    }

    #[test]
    fn matrix_type_helpers() {
        let sq = MatrixType::square("a");
        assert_eq!(sq.rows, sq.cols);
        assert!(!sq.is_scalar());
        assert!(MatrixType::scalar().is_scalar());
        assert!(MatrixType::vector("a").is_vector());
        assert!(!MatrixType::row_vector("a").is_vector());
        assert_eq!(
            MatrixType::vector("a").transposed(),
            MatrixType::row_vector("a")
        );
        assert_eq!(sq.to_string(), "(a, a)");
    }

    #[test]
    fn schema_declaration_and_lookup() {
        let s = Schema::new()
            .with_var("A", MatrixType::square("a"))
            .with_var("v", MatrixType::vector("a"));
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        assert_eq!(s.var_type("A"), Some(&MatrixType::square("a")));
        assert_eq!(s.var_type("missing"), None);
        let names: Vec<_> = s.iter().map(|(n, _)| n.clone()).collect();
        assert_eq!(names, vec!["A".to_string(), "v".to_string()]);
    }

    #[test]
    fn instance_dim_resolution() {
        let inst: Instance<Real> = Instance::new().with_dim("a", 4);
        assert_eq!(inst.dim_value(&Dim::One), Some(1));
        assert_eq!(inst.dim_value(&Dim::sym("a")), Some(4));
        assert_eq!(inst.dim_value(&Dim::sym("b")), None);
        assert_eq!(inst.shape_of(&MatrixType::square("a")), Some((4, 4)));
        assert_eq!(inst.shape_of(&MatrixType::vector("b")), None);
    }

    #[test]
    fn instance_conformance_checks_shapes() {
        let schema = Schema::new().with_var("A", MatrixType::square("a"));
        let good: Instance<Real> = Instance::new()
            .with_dim("a", 2)
            .with_matrix("A", Matrix::identity(2));
        assert!(good.conforms_to(&schema).is_ok());

        let wrong_shape: Instance<Real> = Instance::new()
            .with_dim("a", 2)
            .with_matrix("A", Matrix::zeros(2, 3));
        assert!(wrong_shape.conforms_to(&schema).is_err());

        let missing_matrix: Instance<Real> = Instance::new().with_dim("a", 2);
        assert!(missing_matrix.conforms_to(&schema).is_err());

        let missing_dim: Instance<Real> = Instance::new().with_matrix("A", Matrix::identity(2));
        assert!(missing_dim.conforms_to(&schema).is_err());
    }

    #[test]
    fn instance_iterators() {
        let inst: Instance<Real> = Instance::new()
            .with_dim("a", 3)
            .with_matrix("A", Matrix::identity(3))
            .with_matrix("B", Matrix::zeros(3, 3));
        assert_eq!(inst.dims().count(), 1);
        assert_eq!(inst.matrices().count(), 2);
        assert!(inst.matrix("A").is_some());
        assert!(inst.matrix("C").is_none());
    }
}
