//! Random matrix generation for workloads, tests and benchmarks.
//!
//! The tests, examples and matbench run over random graphs, random
//! LU-factorizable matrices and random invertible matrices; these
//! generators produce them deterministically from a seed so that every run
//! is reproducible.

use crate::{Matrix, SparseMatrix};
use matlang_semiring::Semiring;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for random matrix generation.
#[derive(Debug, Clone)]
pub struct RandomMatrixConfig {
    /// RNG seed; the same seed always produces the same matrix.
    pub seed: u64,
    /// Inclusive lower bound of generated entries (before semiring injection).
    pub min_value: f64,
    /// Inclusive upper bound of generated entries.
    pub max_value: f64,
    /// Probability that an entry is zero (sparsity knob; 0.0 means dense).
    pub zero_probability: f64,
    /// Round generated values to integers (useful for exact semirings).
    pub integer_entries: bool,
}

impl Default for RandomMatrixConfig {
    fn default() -> Self {
        RandomMatrixConfig {
            seed: 0xC0FFEE,
            min_value: -1.0,
            max_value: 1.0,
            zero_probability: 0.0,
            integer_entries: false,
        }
    }
}

impl RandomMatrixConfig {
    /// A config with the given seed and defaults elsewhere.
    pub fn seeded(seed: u64) -> Self {
        RandomMatrixConfig {
            seed,
            ..Default::default()
        }
    }

    fn sample<K: Semiring, R: Rng>(&self, rng: &mut R) -> K {
        if self.zero_probability > 0.0 && rng.gen_bool(self.zero_probability.clamp(0.0, 1.0)) {
            return K::zero();
        }
        let mut v = rng.gen_range(self.min_value..=self.max_value);
        if self.integer_entries {
            v = v.round();
        }
        K::from_f64(v)
    }
}

/// A dense random `rows × cols` matrix.
pub fn random_matrix<K: Semiring>(
    rows: usize,
    cols: usize,
    config: &RandomMatrixConfig,
) -> Matrix<K> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let data = (0..rows * cols).map(|_| config.sample(&mut rng)).collect();
    Matrix::from_vec(rows, cols, data).expect("generated data has the right length")
}

/// A random `n × 1` column vector.
pub fn random_vector<K: Semiring>(n: usize, config: &RandomMatrixConfig) -> Matrix<K> {
    random_matrix(n, 1, config)
}

/// A random 0/1 adjacency matrix of a directed graph on `n` vertices with the
/// given edge probability (no self loops).
pub fn random_adjacency<K: Semiring>(n: usize, edge_probability: f64, seed: u64) -> Matrix<K> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            if i != j && rng.gen_bool(edge_probability.clamp(0.0, 1.0)) {
                m.set(i, j, K::one()).expect("in bounds");
            }
        }
    }
    m
}

/// A sparse Erdős–Rényi-style random adjacency matrix built directly in CSR
/// form: a directed graph on `n` vertices where every vertex has out-degree
/// drawn around `avg_degree` (no self loops, no duplicate edges).
///
/// Unlike [`random_adjacency`] this never materialises the `n × n` entry
/// grid — generation is `O(n · avg_degree)` — so it scales to graphs whose
/// dense form would not fit in memory.  Edge weights are `K::one()`.
pub fn sparse_erdos_renyi<K: Semiring>(n: usize, avg_degree: f64, seed: u64) -> SparseMatrix<K> {
    let mut rng = StdRng::seed_from_u64(seed);
    let max_degree = n.saturating_sub(1);
    let mut taken = vec![false; n];
    let mut triplets = Vec::with_capacity((n as f64 * avg_degree) as usize);
    for i in 0..n {
        let degree = sample_degree(&mut rng, avg_degree, max_degree);
        push_out_edges(&mut rng, &mut triplets, &mut taken, i, n, degree);
    }
    SparseMatrix::from_triplets(n, n, triplets).expect("generated edges in bounds")
}

/// A sparse random adjacency matrix with a power-law out-degree profile:
/// vertex `i` has expected out-degree `∝ (i + 1)^{-alpha}`, scaled so the
/// overall average out-degree is `avg_degree`.  Models the heavy-tailed
/// degree distributions of real-world graphs; `alpha` around `1.0`–`2.5`
/// is typical.  Generation is `O(n · avg_degree)`; edge weights are
/// `K::one()`.
pub fn sparse_power_law<K: Semiring>(
    n: usize,
    avg_degree: f64,
    alpha: f64,
    seed: u64,
) -> SparseMatrix<K> {
    let mut rng = StdRng::seed_from_u64(seed);
    let weight_sum: f64 = (1..=n).map(|i| (i as f64).powf(-alpha)).sum();
    let scale = if weight_sum > 0.0 {
        avg_degree * n as f64 / weight_sum
    } else {
        0.0
    };
    let max_degree = n.saturating_sub(1);
    let mut taken = vec![false; n];
    let mut triplets = Vec::with_capacity((n as f64 * avg_degree) as usize);
    for i in 0..n {
        let expected = scale * ((i + 1) as f64).powf(-alpha);
        let degree = sample_degree(&mut rng, expected, max_degree);
        push_out_edges(&mut rng, &mut triplets, &mut taken, i, n, degree);
    }
    SparseMatrix::from_triplets(n, n, triplets).expect("generated edges in bounds")
}

/// Draws an integer degree whose expectation is `expected` (floor plus a
/// Bernoulli trial on the fractional part), clamped to `[0, max_degree]`.
fn sample_degree(rng: &mut StdRng, expected: f64, max_degree: usize) -> usize {
    let expected = expected.max(0.0);
    let base = expected.floor();
    let degree = base as usize + usize::from(rng.gen_bool(expected - base));
    degree.min(max_degree)
}

/// Samples `degree` distinct out-neighbours of vertex `i` (excluding `i`
/// itself) by rejection against the reusable `taken` bitmap, and appends the
/// edges as weight-one triplets.  Duplicate detection is O(1) per draw, so
/// expected cost is `O(degree)` for `degree ≪ n` and `O(n log n)` even in
/// the fully-clamped `degree = n − 1` case (power-law head vertices).
fn push_out_edges<K: Semiring>(
    rng: &mut StdRng,
    triplets: &mut Vec<(usize, usize, K)>,
    taken: &mut [bool],
    i: usize,
    n: usize,
    degree: usize,
) {
    let first = triplets.len();
    while triplets.len() - first < degree {
        let j = rng.gen_range(0..n);
        if j != i && !taken[j] {
            taken[j] = true;
            triplets.push((i, j, K::one()));
        }
    }
    for (_, j, _) in &triplets[first..] {
        taken[*j] = false;
    }
}

/// A random diagonally dominant (hence invertible and LU-factorizable without
/// pivoting) `n × n` matrix.  Diagonal dominance guarantees every leading
/// principal minor is non-zero, which is exactly the paper's
/// "LU-factorizable" precondition of Proposition 4.1.
pub fn random_invertible<K: Semiring>(n: usize, seed: u64) -> Matrix<K> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m = Matrix::zeros(n, n);
    for i in 0..n {
        let mut off_diag_sum = 0.0;
        for j in 0..n {
            if i != j {
                let v: f64 = rng.gen_range(-1.0..=1.0);
                off_diag_sum += v.abs();
                m.set(i, j, K::from_f64(v)).expect("in bounds");
            }
        }
        // Strictly dominant diagonal entry with a random sign-free offset.
        let diag = off_diag_sum + rng.gen_range(1.0..=2.0);
        m.set(i, i, K::from_f64(diag)).expect("in bounds");
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use matlang_semiring::{Boolean, Real};

    #[test]
    fn random_matrix_is_deterministic_per_seed() {
        let cfg = RandomMatrixConfig::seeded(7);
        let a: Matrix<Real> = random_matrix(4, 4, &cfg);
        let b: Matrix<Real> = random_matrix(4, 4, &cfg);
        assert_eq!(a, b);
        let other: Matrix<Real> = random_matrix(4, 4, &RandomMatrixConfig::seeded(8));
        assert_ne!(a, other);
    }

    #[test]
    fn random_vector_has_vector_shape() {
        let v: Matrix<Real> = random_vector(5, &RandomMatrixConfig::default());
        assert_eq!(v.shape(), (5, 1));
    }

    #[test]
    fn zero_probability_one_gives_zero_matrix() {
        let cfg = RandomMatrixConfig {
            zero_probability: 1.0,
            ..Default::default()
        };
        let m: Matrix<Real> = random_matrix(3, 3, &cfg);
        assert!(m.is_zero());
    }

    #[test]
    fn integer_entries_are_integers() {
        let cfg = RandomMatrixConfig {
            integer_entries: true,
            min_value: -5.0,
            max_value: 5.0,
            ..Default::default()
        };
        let m: Matrix<Real> = random_matrix(4, 4, &cfg);
        assert!(m.entries().iter().all(|v| v.0.fract() == 0.0));
    }

    #[test]
    fn random_adjacency_has_no_self_loops_and_is_boolean() {
        let adj: Matrix<Boolean> = random_adjacency(6, 0.5, 42);
        for i in 0..6 {
            assert_eq!(adj.get(i, i).unwrap(), &Boolean(false));
        }
        let dense: Matrix<Boolean> = random_adjacency(6, 1.0, 42);
        for i in 0..6 {
            for j in 0..6 {
                assert_eq!(dense.get(i, j).unwrap(), &Boolean(i != j));
            }
        }
    }

    #[test]
    fn sparse_erdos_renyi_has_expected_shape_and_degree() {
        let n = 200;
        let adj: crate::SparseMatrix<Boolean> = sparse_erdos_renyi(n, 8.0, 11);
        assert_eq!(adj.shape(), (n, n));
        // No self loops.
        for i in 0..n {
            assert!(adj.get(i, i).unwrap().is_zero());
        }
        // Average degree within a generous tolerance of the target.
        let avg = adj.nnz() as f64 / n as f64;
        assert!((6.0..10.0).contains(&avg), "avg degree {avg}");
        // Deterministic per seed.
        let again: crate::SparseMatrix<Boolean> = sparse_erdos_renyi(n, 8.0, 11);
        assert_eq!(adj, again);
        let other: crate::SparseMatrix<Boolean> = sparse_erdos_renyi(n, 8.0, 12);
        assert_ne!(adj, other);
    }

    #[test]
    fn sparse_power_law_is_heavy_headed() {
        let n = 300;
        let adj: crate::SparseMatrix<Boolean> = sparse_power_law(n, 4.0, 1.5, 3);
        assert_eq!(adj.shape(), (n, n));
        for i in 0..n {
            assert!(adj.get(i, i).unwrap().is_zero());
        }
        // Early vertices must carry far more out-edges than late ones.
        let head: usize = (0..10)
            .map(|i| {
                (0..n)
                    .filter(|&j| !adj.get(i, j).unwrap().is_zero())
                    .count()
            })
            .sum();
        let tail: usize = (n - 10..n)
            .map(|i| {
                (0..n)
                    .filter(|&j| !adj.get(i, j).unwrap().is_zero())
                    .count()
            })
            .sum();
        assert!(head > 5 * tail.max(1), "head {head}, tail {tail}");
    }

    #[test]
    fn sparse_generators_handle_degenerate_sizes() {
        let empty: crate::SparseMatrix<Real> = sparse_erdos_renyi(0, 8.0, 1);
        assert_eq!(empty.shape(), (0, 0));
        let single: crate::SparseMatrix<Real> = sparse_power_law(1, 8.0, 2.0, 1);
        assert_eq!(single.nnz(), 0);
    }

    #[test]
    fn random_invertible_is_actually_invertible() {
        for seed in 0..5 {
            let m: Matrix<Real> = random_invertible(6, seed);
            let det = m.determinant().unwrap();
            assert!(det.0.abs() > 1e-9, "determinant too small for seed {seed}");
        }
    }
}
