//! Feedback-driven re-planning must never change results.
//!
//! With a store's drift threshold at its floor (`replan_drift(1.0)`)
//! every `UPDATE` that changes a variable's nnz makes the next `EXEC`
//! re-plan from current + observed statistics.  This suite runs a corpus
//! of standing queries on both storage backends through repeated
//! update → re-plan cycles and pins every result **bit-identical** to
//! [`matlang_core::evaluate`] over a mirrored instance — the same
//! contract the `server_integration` suite pins for the static path.
//! The CI matrix repeats it under `MATLANG_THREADS=1` and `=4`.

use matlang_core::{evaluate, FunctionRegistry, Instance};
use matlang_matrix::Matrix;
use matlang_parser::parse;
use matlang_semiring::Real;
use matlang_server::{Store, StoreConfig};

const N: usize = 6;

const CORPUS: &[&str] = &[
    "(G * G)",
    "(transpose(G) * (G + G))",
    "((G * G) * G)",
    "(transpose(ones(G)) * (G * ones(G)))",
    "(sum v:n . (transpose(v) * (G * v)))",
];

/// Three update batches that swing G's density up and down so successive
/// EXECs keep crossing the forced drift floor.
fn update_batches() -> Vec<Vec<(usize, usize, f64)>> {
    let mut fill = Vec::new();
    for i in 0..N {
        for j in 0..N {
            fill.push((i, j, (i * N + j + 1) as f64));
        }
    }
    let mut thin = Vec::new();
    for i in 0..N {
        for j in 0..N {
            if (i + j) % 3 != 0 {
                thin.push((i, j, 0.0));
            }
        }
    }
    vec![fill, thin, vec![(0, N - 1, 42.0), (N - 1, 0, -7.0)]]
}

fn mirror(entries: &[(usize, usize, f64)]) -> Instance<Real> {
    let mut dense = Matrix::zeros(N, N);
    for &(i, j, v) in entries {
        dense.set(i, j, Real(v)).unwrap();
    }
    Instance::new().with_dim("n", N).with_matrix("G", dense)
}

fn dense_of(result: &matlang_server::WireResult) -> Matrix<Real> {
    let mut m = Matrix::zeros(result.rows, result.cols);
    for &(i, j, v) in &result.entries {
        m.set(i, j, Real(v)).unwrap();
    }
    m
}

#[test]
fn forced_drift_replans_stay_bit_identical_to_core_evaluate() {
    let registry = FunctionRegistry::standard_field();
    for adaptive in [false, true] {
        let name = if adaptive { "adp" } else { "dns" };
        let store = Store::with_config(StoreConfig::builder().replan_drift(1.0).build());
        store.create_instance(name, adaptive).unwrap();
        store.set_dim(name, "n", N).unwrap();
        let seed = vec![(0, 1, 1.0), (1, 2, 2.0), (4, 5, -3.0)];
        store.load_matrix(name, "G", N, N, seed.clone()).unwrap();
        let qids: Vec<usize> = CORPUS
            .iter()
            .map(|text| store.prepare(name, text).unwrap().qid)
            .collect();

        // Shadow state: the entries currently in G, by coordinate.
        let mut current = seed;
        let check = |store: &Store, current: &[(usize, usize, f64)]| {
            let local = mirror(current);
            for (text, &qid) in CORPUS.iter().zip(&qids) {
                let expr = parse(text).unwrap();
                let expected = evaluate(&expr, &local, &registry).unwrap();
                let results = store.exec(name, &[qid]).unwrap();
                assert_eq!(
                    dense_of(&results[0]),
                    expected,
                    "{name}: `{text}` diverged from core::evaluate"
                );
            }
        };

        check(&store, &current);
        for batch in update_batches() {
            store.update(name, "G", &batch).unwrap();
            for &(i, j, v) in &batch {
                current.retain(|&(a, b, _)| (a, b) != (i, j));
                if v != 0.0 {
                    current.push((i, j, v));
                }
            }
            check(&store, &current);
        }

        // The floor threshold must actually have exercised the re-plan
        // path — otherwise this suite is vacuous.
        let stats = store.stats(name).unwrap();
        let replans: u64 = stats[0]
            .split_whitespace()
            .find_map(|t| t.strip_prefix("replans="))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("malformed STATS header: {}", stats[0]));
        assert!(replans >= 1, "no re-plan happened on {name}: {}", stats[0]);
    }
}
