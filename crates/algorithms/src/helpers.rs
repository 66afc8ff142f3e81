//! Schema, instance and registry helpers shared by examples and tests.

use matlang_core::{FunctionRegistry, Instance, MatrixType, Schema};
use matlang_matrix::Matrix;
use matlang_semiring::{OrderedField, Semiring};

/// A schema with a single square matrix variable `var` of type `(dim, dim)`.
pub fn square_schema(var: &str, dim: &str) -> Schema {
    Schema::new().with_var(var, MatrixType::square(dim))
}

/// An instance assigning `matrix` (which must be `n × n`) to `var` and `n` to
/// the size symbol `dim`.
pub fn square_instance<K: Semiring>(var: &str, dim: &str, matrix: Matrix<K>) -> Instance<K> {
    let n = matrix.rows();
    Instance::new().with_dim(dim, n).with_matrix(var, matrix)
}

/// An instance assigning a graph adjacency matrix to `var`; synonym of
/// [`square_instance`] with a name matching the graph experiments.
pub fn adjacency_instance<K: Semiring>(var: &str, dim: &str, adjacency: Matrix<K>) -> Instance<K> {
    square_instance(var, dim, adjacency)
}

/// The function registry used by every Section 4 algorithm:
/// `{f_/, f_{>0}}` plus the generic pointwise sum/product.
pub fn standard_registry<K: OrderedField>() -> FunctionRegistry<K> {
    FunctionRegistry::standard_field()
}

#[cfg(test)]
mod tests {
    use super::*;
    use matlang_semiring::Real;

    #[test]
    fn square_schema_declares_the_variable() {
        let s = square_schema("A", "n");
        assert_eq!(s.var_type("A"), Some(&MatrixType::square("n")));
    }

    #[test]
    fn square_instance_assigns_dimension_and_matrix() {
        let inst: Instance<Real> = square_instance("A", "n", Matrix::identity(3));
        assert_eq!(inst.dim_value(&matlang_core::Dim::sym("n")), Some(3));
        assert_eq!(inst.matrix("A"), Some(&Matrix::identity(3)));
        let adj: Instance<Real> = adjacency_instance("G", "n", Matrix::zeros(2, 2));
        assert_eq!(adj.dim_value(&matlang_core::Dim::sym("n")), Some(2));
    }

    #[test]
    fn standard_registry_has_division() {
        let reg: FunctionRegistry<Real> = standard_registry();
        assert!(reg.contains("div"));
        assert!(reg.contains("gt0"));
    }
}
