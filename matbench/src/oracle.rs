//! The correctness oracle: the instance rebuilt locally from the same seed
//! and the same replayed updates, evaluated by the tree-walking
//! `matlang::core::evaluate`, compared bit for bit with what came over the
//! wire.

use crate::spec::{Source, Workload, SYM, VAR};
use matlang::core::{evaluate, FunctionRegistry, Instance};
use matlang::matrix::{sparse_erdos_renyi, MatrixRepr, MatrixStorage, SparseMatrix};
use matlang::semiring::{Boolean, Real, Semiring};
use matlang::server::WireResult;

/// A semiring a workload runs over, with the function registry the server
/// gives instances of that semiring.
pub trait BenchRing: Semiring {
    fn registry() -> FunctionRegistry<Self>;
}

impl BenchRing for Real {
    fn registry() -> FunctionRegistry<Real> {
        FunctionRegistry::standard_field()
    }
}

impl BenchRing for Boolean {
    fn registry() -> FunctionRegistry<Boolean> {
        FunctionRegistry::new()
    }
}

pub type LocalInstance<K> = Instance<K, MatrixRepr<K>>;

/// Rebuilds the instance the server holds after set-up: the same generator
/// and seed for `GEN`, the same entries for `LOAD`, on the adaptive backend.
pub fn build_instance<K: BenchRing>(w: &Workload, seed: u64) -> LocalInstance<K> {
    let sparse = match w.source {
        Source::ErdosRenyi { degree } => sparse_erdos_renyi::<K>(w.n, degree, w.gen_seed(seed)),
        Source::DiagDominant => {
            let triplets = w
                .dense_entries(seed)
                .into_iter()
                .map(|(i, j, v)| (i, j, K::from_f64(v)))
                .collect();
            SparseMatrix::from_triplets(w.n, w.n, triplets).expect("generated entries in bounds")
        }
    };
    Instance::new()
        .with_dim(SYM, w.n)
        .with_matrix(VAR, MatrixRepr::from_sparse(sparse))
}

/// Applies one acknowledged single-edge insert.
pub fn apply_update<K: BenchRing>(instance: &mut LocalInstance<K>, i: usize, j: usize) {
    instance
        .matrix_mut(VAR)
        .expect("instance has its matrix")
        .set_entry(i, j, K::one())
        .expect("generated edge in bounds");
}

/// Evaluates `text` with the tree-walking evaluator.
pub fn eval<K: BenchRing>(
    instance: &LocalInstance<K>,
    text: &str,
) -> Result<MatrixRepr<K>, String> {
    let expr = matlang::parser::parse(text).map_err(|e| format!("oracle parse: {e}"))?;
    evaluate(&expr, instance, &K::registry()).map_err(|e| format!("oracle evaluate: {e}"))
}

/// Whether `reply` denotes exactly `expected`: same shape, same non-zero
/// positions, bit-identical values.
pub fn matches<K: BenchRing>(reply: &WireResult, expected: &MatrixRepr<K>) -> Result<(), String> {
    if (reply.rows, reply.cols) != expected.shape() {
        return Err(format!(
            "shape {}x{} != oracle {}x{}",
            reply.rows,
            reply.cols,
            expected.rows(),
            expected.cols()
        ));
    }
    let mut got: Vec<(usize, usize, u64)> = reply
        .entries
        .iter()
        .map(|&(i, j, v)| (i, j, v.to_bits()))
        .collect();
    let mut want: Vec<(usize, usize, u64)> = expected
        .nonzero_entries()
        .into_iter()
        .map(|(i, j, v)| (i, j, v.to_f64().to_bits()))
        .collect();
    got.sort_unstable();
    want.sort_unstable();
    if got.len() != want.len() {
        return Err(format!("{} entries != oracle {}", got.len(), want.len()));
    }
    match got.iter().zip(&want).find(|(g, w)| g != w) {
        None => Ok(()),
        Some((g, w)) => Err(format!(
            "entry ({}, {}) = {:e} != oracle ({}, {}) = {:e}",
            g.0,
            g.1,
            f64::from_bits(g.2),
            w.0,
            w.1,
            f64::from_bits(w.2)
        )),
    }
}
