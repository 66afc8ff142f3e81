//! End-to-end protocol tests against a live server on an ephemeral port.
//!
//! The load-bearing suite: results over the wire must be **bit-identical**
//! to [`matlang_core::evaluate`] for the shared evaluator corpus on both
//! storage backends, and incremental `UPDATE`s must invalidate exactly the
//! dependent cache entries (asserted through the per-request `ExecStats`
//! echoed in every `RESULT` header).

use matlang_core::{corpus, evaluate, Expr, FunctionRegistry, Instance, SparseInstance};
use matlang_matrix::{Matrix, MatrixRepr, MatrixStorage};
use matlang_semiring::Real;
use matlang_server::{Client, DeltaWire, ErrorCode, Server, ServerConfig, ServerHandle};

fn spawn() -> ServerHandle {
    Server::spawn(ServerConfig {
        workers: 4,
        ..ServerConfig::default()
    })
    .expect("server spawns on an ephemeral port")
}

/// The corpus instance: one square matrix `A` over size symbol `a`.
fn corpus_matrix() -> Matrix<Real> {
    Matrix::from_f64_rows(&[
        &[0.0, 1.0, 0.0, 2.0],
        &[0.0, 0.0, 3.0, 0.0],
        &[0.5, 0.0, 0.0, 1.0],
        &[4.0, 0.0, 0.0, 0.0],
    ])
    .unwrap()
}

/// PREPARE + EXEC every corpus expression over the wire and compare with
/// local evaluation on the given backend-typed instance.
fn assert_corpus_parity<M>(client: &mut Client, name: &str, local: &Instance<Real, M>)
where
    M: MatrixStorage<Elem = Real>,
{
    let registry = FunctionRegistry::standard_field();
    for expr in corpus::operator_corpus() {
        let expected = evaluate(&expr, local, &registry);
        let served = client
            .prepare(name, &expr.to_string())
            .and_then(|qid| client.exec(name, qid));
        match (expected, served) {
            (Ok(expected), Ok(result)) => {
                assert_eq!(
                    result.to_dense(),
                    expected.to_dense(),
                    "wire result diverged from core::evaluate for `{expr}` on {name}"
                );
                assert_eq!(
                    (result.rows, result.cols),
                    expected.shape(),
                    "shape diverged for `{expr}` on {name}"
                );
            }
            (Err(_), Err(_)) => {} // both paths reject: good enough parity
            (Ok(_), Err(e)) => panic!("server rejected `{expr}` on {name}: {e}"),
            (Err(e), Ok(_)) => {
                panic!("server accepted `{expr}` on {name} but core::evaluate fails: {e}")
            }
        }
    }
}

#[test]
fn corpus_results_are_bit_identical_on_both_backends() {
    let handle = spawn();
    let mut client = Client::connect(handle.addr()).unwrap();
    let a = corpus_matrix();

    client.create_instance("dense", false).unwrap();
    client.set_dim("dense", "a", 4).unwrap();
    client.load_matrix("dense", "A", &a).unwrap();
    let dense_local: Instance<Real> = Instance::new().with_dim("a", 4).with_matrix("A", a.clone());
    assert_corpus_parity(&mut client, "dense", &dense_local);

    client.create_instance("adaptive", true).unwrap();
    client.set_dim("adaptive", "a", 4).unwrap();
    client.load_matrix("adaptive", "A", &a).unwrap();
    let adaptive_local: SparseInstance<Real> = Instance::new()
        .with_dim("a", 4)
        .with_matrix("A", MatrixRepr::from_dense_auto(a));
    assert_corpus_parity(&mut client, "adaptive", &adaptive_local);

    handle.shutdown();
}

#[test]
fn four_clique_query_matches_local_evaluation() {
    let handle = spawn();
    let mut client = Client::connect(handle.addr()).unwrap();
    let a = corpus_matrix();
    client.create_instance("g", true).unwrap();
    client.set_dim("g", "a", 4).unwrap();
    client.load_matrix("g", "A", &a.clone()).unwrap();
    let expr = corpus::four_clique_corpus_expr();
    let local: Instance<Real> = Instance::new().with_dim("a", 4).with_matrix("A", a);
    let expected = evaluate(&expr, &local, &FunctionRegistry::standard_field()).unwrap();
    let result = client.query("g", &expr.to_string()).unwrap();
    assert_eq!(result.to_dense(), expected);
    handle.shutdown();
}

#[test]
fn update_invalidates_only_dependent_cache_entries() {
    let handle = spawn();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.create_instance("g", true).unwrap();
    client.set_dim("g", "n", 64).unwrap();
    client.gen_erdos_renyi("g", "G", "n", 4.0, 11).unwrap();
    client.gen_erdos_renyi("g", "H", "n", 4.0, 12).unwrap();

    // Two standing queries over G, one over H — batch-planned together.
    let over_g1 = client.prepare("g", "(transpose(G) * G)").unwrap();
    let over_g2 = client
        .prepare("g", "(transpose(ones(G)) * (G * ones(G)))")
        .unwrap();
    let over_h = client.prepare("g", "(H * H)").unwrap();
    // Warm every cache.
    let warm = client.exec_batch("g", &[over_g1, over_g2, over_h]).unwrap();
    assert!(warm.iter().all(|r| r.stats.cache_misses > 0));
    let h_before = warm[2].clone();

    // Update H only: dependent entries drop, and the RESULT stats prove
    // the G queries never recompute a single node.
    let reply = client
        .update("g", "H", &[(0, 1, 2.0), (1, 0, 3.0)])
        .unwrap();
    assert_eq!(reply.applied, 2);
    assert!(reply.invalidated >= 2, "H's dependent plan nodes must drop");
    // ℝ instances have no idempotent ⊕, so the UPDATE reply must report
    // the invalidation fallback with its stable reason code.
    assert_eq!(
        reply.delta,
        DeltaWire::Fallback {
            reason: "non-idempotent-semiring".to_string()
        }
    );
    for qid in [over_g1, over_g2] {
        let result = client.exec("g", qid).unwrap();
        assert_eq!(
            result.stats.cache_misses, 0,
            "untouched query {qid} recomputed nodes after an unrelated UPDATE"
        );
        assert!(result.stats.cache_hits >= 1);
        // Well above the ≥90%-of-plan-nodes bar: served entirely warm.
        assert!(
            result.stats.cache_misses * 10 <= result.plan_nodes as u64,
            "untouched prepared query must hit ≥90% of its plan nodes"
        );
    }
    let h_after = client.exec("g", over_h).unwrap();
    assert!(h_after.stats.cache_misses > 0, "H query must recompute");
    assert_ne!(h_after.entries, h_before.entries, "update must be visible");

    // The recomputed H result matches a from-scratch local evaluation of
    // the mutated instance.
    let mut h_local = Matrix::zeros(64, 64);
    // Rebuild H locally: generator output + the two updates.
    let generated: matlang_matrix::SparseMatrix<Real> =
        matlang_matrix::sparse_erdos_renyi(64, 4.0, 12);
    for (i, j, v) in generated.iter_entries() {
        h_local.set(i, j, *v).unwrap();
    }
    h_local.set(0, 1, Real(2.0)).unwrap();
    h_local.set(1, 0, Real(3.0)).unwrap();
    let local: Instance<Real> = Instance::new()
        .with_dim("n", 64)
        .with_matrix("H", h_local.clone());
    let expected = evaluate(
        &Expr::var("H").mm(Expr::var("H")),
        &local,
        &FunctionRegistry::standard_field(),
    )
    .unwrap();
    assert_eq!(h_after.to_dense(), expected);

    handle.shutdown();
}

#[test]
fn timing_guard_prepared_exec_beats_per_request_parse_plan_eval() {
    let handle = spawn();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.create_instance("g", true).unwrap();
    client.set_dim("g", "n", 400).unwrap();
    client.gen_erdos_renyi("g", "G", "n", 8.0, 21).unwrap();
    // Walk count over G² forced as a matrix-matrix product — enough
    // evaluation work that the one-shot path is dominated by
    // parse+plan+eval, not by the socket round trip, while the scalar
    // result keeps serialization negligible on both paths.
    let query = "(transpose(ones(G)) * (((G * G) * (G * G)) * ones(G)))";
    let qid = client.prepare("g", query).unwrap();
    let warm = client.exec("g", qid).unwrap();
    let reference = client.query("g", query).unwrap();
    assert_eq!(warm.to_dense(), reference.to_dense());

    let rounds = 10;
    let started = std::time::Instant::now();
    for _ in 0..rounds {
        let result = client.exec("g", qid).unwrap();
        assert_eq!(result.stats.cache_misses, 0, "prepared EXEC must stay warm");
    }
    let prepared_elapsed = started.elapsed();
    let started = std::time::Instant::now();
    for _ in 0..rounds {
        client.query("g", query).unwrap();
    }
    let oneshot_elapsed = started.elapsed();
    eprintln!(
        "prepared EXEC ×{rounds}: {prepared_elapsed:?} · one-shot QUERY ×{rounds}: {oneshot_elapsed:?}"
    );
    assert!(
        oneshot_elapsed >= prepared_elapsed * 3,
        "prepared EXEC must be ≥3× faster than per-request parse+plan+eval \
         (prepared {prepared_elapsed:?}, one-shot {oneshot_elapsed:?})"
    );
    handle.shutdown();
}

/// A reply spanning several 8 KiB buffer flushes must not wait out the
/// peer's delayed ACK: without `TCP_NODELAY` on the accepted stream every
/// such `EXEC` takes ≈ 40 ms over loopback regardless of its size.  The
/// absolute bound sits between the two regimes (a warm 64 KiB reply
/// encodes, travels and decodes in a few milliseconds).
#[test]
fn large_reply_stall_guard() {
    let bound_ms = if cfg!(debug_assertions) { 35 } else { 20 };
    let handle = spawn();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.create_instance("g", true).unwrap();
    client.set_dim("g", "n", 300).unwrap();
    client.gen_erdos_renyi("g", "G", "n", 8.0, 5).unwrap();
    let qid = client.prepare("g", "(G * G)").unwrap();
    let warm = client.exec("g", qid).unwrap();
    let mut wire = Vec::new();
    matlang_server::protocol::write_result(&mut wire, &warm).unwrap();
    assert!(
        wire.len() >= 64 * 1024,
        "the reply must span many buffer flushes, got {} bytes",
        wire.len()
    );

    let mut elapsed: Vec<std::time::Duration> = (0..5)
        .map(|_| {
            let started = std::time::Instant::now();
            let result = client.exec("g", qid).unwrap();
            assert_eq!(result.stats.cache_misses, 0, "EXEC must stay warm");
            started.elapsed()
        })
        .collect();
    elapsed.sort();
    let median = elapsed[2];
    eprintln!("warm EXEC of a {} byte reply ×5: {elapsed:?}", wire.len());
    assert!(
        median.as_millis() < bound_ms,
        "a {} byte reply took {median:?} (median of 5; bound {bound_ms} ms): \
         the flushes are stalling on delayed ACKs",
        wire.len()
    );
    handle.shutdown();
}

#[test]
fn sessions_on_separate_instances_run_concurrently() {
    let handle = spawn();
    let addr = handle.addr();
    let threads: Vec<_> = (0..4)
        .map(|t| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let name = format!("inst{t}");
                client.create_instance(&name, t % 2 == 0).unwrap();
                client.set_dim(&name, "n", 32).unwrap();
                client
                    .gen_erdos_renyi(&name, "G", "n", 3.0, 100 + t as u64)
                    .unwrap();
                let qid = client.prepare(&name, "(transpose(G) * G)").unwrap();
                let first = client.exec(&name, qid).unwrap();
                for _ in 0..20 {
                    let again = client.exec(&name, qid).unwrap();
                    assert_eq!(again.entries, first.entries);
                    assert_eq!(again.stats.cache_misses, 0);
                }
                client.quit().unwrap();
                first.entries.len()
            })
        })
        .collect();
    let sizes: Vec<usize> = threads.into_iter().map(|t| t.join().unwrap()).collect();
    assert!(sizes.iter().all(|&n| n > 0));
    handle.shutdown();
}

#[test]
fn protocol_errors_are_single_line_and_recoverable() {
    let handle = spawn();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.create_instance("g", false).unwrap();
    client.set_dim("g", "n", 3).unwrap();
    client.load("g", "G", 3, 3, &[(0, 1, 1.0)]).unwrap();
    // Parse, type, eval and protocol errors all arrive as one
    // `ERR <CODE> <message>` line — typed on the client — and leave the
    // session usable.
    assert_eq!(
        client.prepare("g", "(G +").unwrap_err().code,
        ErrorCode::Parse
    );
    assert_eq!(
        client.prepare("g", "unknownvar").unwrap_err().code,
        ErrorCode::Type
    );
    // Hadamard shape mismatch is a type error too.
    assert_eq!(
        client.prepare("g", "(G ** (const 2))").unwrap_err().code,
        ErrorCode::Type
    );
    // No statement has been prepared yet, so EXEC reports ENOPREP …
    assert_eq!(
        client.exec("g", 999).unwrap_err().code,
        ErrorCode::NoPreparedQueries
    );
    assert_eq!(
        client.update("g", "G", &[(9, 9, 1.0)]).unwrap_err().code,
        ErrorCode::Storage
    );
    assert_eq!(
        client.query("missing", "(const 1)").unwrap_err().code,
        ErrorCode::UnknownInstance
    );
    assert_eq!(
        client
            .update("g", "missing", &[(0, 0, 1.0)])
            .unwrap_err()
            .code,
        ErrorCode::UnknownVariable
    );
    client.ping().unwrap();
    // A well-formed request still works afterwards.
    let qid = client.prepare("g", "(G + G)").unwrap();
    assert_eq!(client.exec("g", qid).unwrap().entries, vec![(0, 1, 2.0)]);
    // … and once a statement exists, a bad id is ENOQUERY.
    assert_eq!(
        client.exec("g", qid + 1).unwrap_err().code,
        ErrorCode::UnknownQueryId
    );
    handle.shutdown();
}
