//! Durability suite: snapshot save/restore over the wire, WAL replay on
//! reopen pinned **bit-identical** to [`matlang_core::evaluate`] on both
//! storage backends, and the recovery edge cases — truncated WAL tail,
//! corrupt checksum mid-log, snapshot newer than the WAL (post-compaction
//! reopen), empty instances, and stale temp files left by a compaction
//! killed mid-rename.

use matlang_core::{evaluate, FunctionRegistry, Instance};
use matlang_matrix::{Matrix, MatrixCodec};
use matlang_parser::parse;
use matlang_semiring::Real;
use matlang_server::persist::{self, Snapshot, Wal, WalRecord};
use matlang_server::{
    Client, SemiringKind, Server, ServerConfig, ServerError, ServerHandle, Store, StoreConfig,
};
use std::fs;
use std::path::{Path, PathBuf};

/// A unique, empty scratch directory removed on drop (best effort — a
/// leaked dir under the system temp root is harmless).
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> ScratchDir {
        let dir =
            std::env::temp_dir().join(format!("matlang-persistence-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create scratch dir");
        ScratchDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn spawn_on(dir: &Path) -> (ServerHandle, Client) {
    let handle = Server::spawn(ServerConfig {
        workers: 2,
        store: StoreConfig::builder().data_dir(dir).build(),
        ..ServerConfig::default()
    })
    .expect("spawn server");
    let client = Client::connect(handle.addr()).expect("connect");
    (handle, client)
}

fn dense_of(result: &matlang_server::WireResult) -> Matrix<Real> {
    let mut m = Matrix::zeros(result.rows, result.cols);
    for &(i, j, v) in &result.entries {
        m.set(i, j, Real(v)).unwrap();
    }
    m
}

fn mirror(n: usize, entries: &[(usize, usize, f64)]) -> Instance<Real> {
    let mut dense = Matrix::zeros(n, n);
    for &(i, j, v) in entries {
        dense.set(i, j, Real(v)).unwrap();
    }
    Instance::new().with_dim("n", n).with_matrix("G", dense)
}

/// Folds an update batch into the shadow coordinate list.
fn apply_shadow(current: &mut Vec<(usize, usize, f64)>, batch: &[(usize, usize, f64)]) {
    for &(i, j, v) in batch {
        current.retain(|&(a, b, _)| (a, b) != (i, j));
        if v != 0.0 {
            current.push((i, j, v));
        }
    }
}

#[test]
fn hello_announces_the_persist_capability() {
    let scratch = ScratchDir::new("hello");
    let (handle, mut client) = spawn_on(scratch.path());
    let hello = client.hello().unwrap();
    assert_eq!(hello.proto, 2);
    assert!(hello.has_capability("persist"));
    handle.shutdown();
}

#[test]
fn save_and_restore_roundtrip_over_the_wire() {
    let scratch = ScratchDir::new("roundtrip");
    for (adaptive, tag) in [(false, "dns"), (true, "adp")] {
        let (handle, mut client) = spawn_on(scratch.path());
        let name = format!("src-{tag}");
        client
            .create_instance_with(&name, adaptive, SemiringKind::Real)
            .unwrap();
        client.set_dim(&name, "n", 5).unwrap();
        let entries = [(0usize, 1usize, 1.5), (1, 2, -2.0), (4, 0, 3.25)];
        client.load(&name, "G", 5, 5, &entries).unwrap();
        let before = client.query(&name, "(G * G)").unwrap();

        let export = scratch.path().join(format!("{name}.export"));
        let bytes = client.save(&name, export.to_str()).unwrap();
        assert!(bytes > 0, "snapshot must not be empty");
        assert_eq!(bytes, fs::metadata(&export).unwrap().len());

        let copy = format!("copy-{tag}");
        let (dims, vars) = client.restore(&copy, export.to_str().unwrap()).unwrap();
        assert_eq!((dims, vars), (1, 1));
        let after = client.query(&copy, "(G * G)").unwrap();
        assert_eq!(
            dense_of(&before),
            dense_of(&after),
            "{tag}: restore diverged"
        );

        // Restoring over a taken name must fail without clobbering it.
        let err = client.restore(&name, export.to_str().unwrap()).unwrap_err();
        assert!(
            err.to_string().contains("already exists"),
            "expected an already-exists error, got `{err}`"
        );
        handle.shutdown();
    }
}

/// The acceptance-criteria test: persist, mutate through WAL-logged
/// updates, restart on the same data dir, and pin the recovered answers
/// bit-identical to both the pre-restart wire results and a
/// `core::evaluate` mirror — on dense and adaptive backends.
#[test]
fn reopen_replays_the_wal_bit_identical_to_core_evaluate() {
    const N: usize = 6;
    const CORPUS: &[&str] = &[
        "(G * G)",
        "(transpose(G) * (G + G))",
        "(transpose(ones(G)) * (G * ones(G)))",
    ];
    let registry = FunctionRegistry::standard_field();
    for (adaptive, tag) in [(false, "dns"), (true, "adp")] {
        let scratch = ScratchDir::new(&format!("reopen-{tag}"));
        let mut current = vec![(0, 1, 1.0), (1, 2, 2.0), (4, 5, -3.0)];
        let before: Vec<Matrix<Real>>;
        {
            let (handle, mut client) = spawn_on(scratch.path());
            client
                .create_instance_with("g", adaptive, SemiringKind::Real)
                .unwrap();
            client.set_dim("g", "n", N).unwrap();
            client.load("g", "G", N, N, &current).unwrap();
            client.set_persist("g", true).unwrap();

            let batches: Vec<Vec<(usize, usize, f64)>> = vec![
                vec![(2, 3, 4.0), (3, 4, 0.5)],
                vec![(0, 1, 0.0), (5, 0, 7.0)], // delete + insert
                vec![(4, 5, 9.0)],              // overwrite
            ];
            for batch in &batches {
                client.update("g", "G", batch).unwrap();
                apply_shadow(&mut current, batch);
            }
            let stat = client.walstat("g").unwrap();
            assert!(stat.persisted);
            assert_eq!(stat.records, 3, "one WAL record per applied batch");
            before = CORPUS
                .iter()
                .map(|text| dense_of(&client.query("g", text).unwrap()))
                .collect();
            handle.shutdown();
        }

        // Restart on the same data dir: recovery must replay the WAL.
        let (handle, mut client) = spawn_on(scratch.path());
        let stat = client.walstat("g").unwrap();
        assert!(stat.persisted, "{tag}: recovered instance stays persisted");
        let local = mirror(N, &current);
        for (text, pre) in CORPUS.iter().zip(&before) {
            let after = dense_of(&client.query("g", text).unwrap());
            assert_eq!(&after, pre, "{tag}: `{text}` diverged from pre-restart");
            let expected = evaluate(&parse(text).unwrap(), &local, &registry).unwrap();
            assert_eq!(
                after, expected,
                "{tag}: `{text}` diverged from core::evaluate"
            );
        }
        handle.shutdown();
    }
}

#[test]
fn truncated_wal_tail_is_tolerated() {
    let scratch = ScratchDir::new("torn-tail");
    let mut current = vec![(0, 1, 1.0), (1, 0, 2.0)];
    {
        let store = Store::open(scratch.path());
        store.create_instance("g", true).unwrap();
        store.set_dim("g", "n", 4).unwrap();
        store.load_matrix("g", "G", 4, 4, current.clone()).unwrap();
        store.set_persist("g", true).unwrap();
        let batch = vec![(2, 3, 5.0)];
        store.update("g", "G", &batch).unwrap();
        apply_shadow(&mut current, &batch);
    }
    // A crash mid-append leaves a partial frame at the tail.
    let wal = scratch.path().join("g.wal");
    let mut bytes = fs::read(&wal).unwrap();
    bytes.extend_from_slice(&[0x21, 0x00, 0x00, 0x00, 0xde, 0xad]); // half a frame
    fs::write(&wal, &bytes).unwrap();

    let store = Store::open(scratch.path());
    let qid = store.prepare("g", "(G * G)").unwrap().qid;
    let result = &store.exec("g", &[qid]).unwrap()[0];
    let registry = FunctionRegistry::standard_field();
    let expected = evaluate(&parse("(G * G)").unwrap(), &mirror(4, &current), &registry).unwrap();
    assert_eq!(
        dense_of(result),
        expected,
        "torn tail must not lose the prefix"
    );
}

#[test]
fn corrupt_checksum_mid_log_keeps_the_valid_prefix() {
    let scratch = ScratchDir::new("corrupt-mid");
    let mut current = vec![(0, 1, 1.0)];
    {
        let store = Store::open(scratch.path());
        store.create_instance("g", false).unwrap();
        store.set_dim("g", "n", 4).unwrap();
        store.load_matrix("g", "G", 4, 4, current.clone()).unwrap();
        store.set_persist("g", true).unwrap();
        // Three separate updates → three WAL frames.
        store.update("g", "G", &[(1, 2, 2.0)]).unwrap();
        store.update("g", "G", &[(2, 3, 3.0)]).unwrap();
        store.update("g", "G", &[(3, 0, 4.0)]).unwrap();
    }
    // Only the first record survives the corruption below.
    apply_shadow(&mut current, &[(1, 2, 2.0)]);

    // Flip a payload byte inside the *second* frame: its checksum breaks,
    // and recovery must treat everything from there on as a torn tail.
    let wal = scratch.path().join("g.wal");
    let mut bytes = fs::read(&wal).unwrap();
    let len1 = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
    let frame2_payload = 8 + len1 + 8; // frame 1 (header + payload) + frame 2 header
    bytes[frame2_payload] ^= 0xFF;
    fs::write(&wal, &bytes).unwrap();

    let store = Store::open(scratch.path());
    let qid = store.prepare("g", "(G * G)").unwrap().qid;
    let result = &store.exec("g", &[qid]).unwrap()[0];
    let registry = FunctionRegistry::standard_field();
    let expected = evaluate(&parse("(G * G)").unwrap(), &mirror(4, &current), &registry).unwrap();
    assert_eq!(
        dense_of(result),
        expected,
        "mid-log corruption must keep records before it and drop the rest"
    );
    // The instance stays persisted: new updates must land after the kept
    // prefix and survive another reopen.
    store.update("g", "G", &[(0, 3, 8.0)]).unwrap();
    apply_shadow(&mut current, &[(0, 3, 8.0)]);
    drop(store);
    let store = Store::open(scratch.path());
    let qid = store.prepare("g", "(G * G)").unwrap().qid;
    let expected = evaluate(&parse("(G * G)").unwrap(), &mirror(4, &current), &registry).unwrap();
    assert_eq!(dense_of(&store.exec("g", &[qid]).unwrap()[0]), expected);
}

#[test]
fn snapshot_newer_than_wal_reopens_cleanly() {
    let scratch = ScratchDir::new("snap-newer");
    let mut current = vec![(0, 1, 1.0)];
    let seq_before;
    {
        let store = Store::open(scratch.path());
        store.create_instance("g", true).unwrap();
        store.set_dim("g", "n", 4).unwrap();
        store.load_matrix("g", "G", 4, 4, current.clone()).unwrap();
        store.set_persist("g", true).unwrap();
        let batch = vec![(1, 2, 2.0), (2, 3, 3.0)];
        store.update("g", "G", &batch).unwrap();
        apply_shadow(&mut current, &batch);
        // SAVE without a path compacts: fresh snapshot, truncated WAL.
        // The snapshot's covered sequence is now *ahead* of every WAL
        // record (there are none).
        store.save("g", None).unwrap();
        let stat = store.walstat("g").unwrap();
        assert_eq!(stat.records, 0, "compaction must empty the log");
        assert!(stat.seq > 0, "the issued sequence survives compaction");
        seq_before = stat.seq;
    }
    let store = Store::open(scratch.path());
    let stat = store.walstat("g").unwrap();
    assert!(
        stat.seq >= seq_before,
        "recovered sequence {} must not fall behind the snapshot's {}",
        stat.seq,
        seq_before
    );
    let qid = store.prepare("g", "(G * G)").unwrap().qid;
    let registry = FunctionRegistry::standard_field();
    let expected = evaluate(&parse("(G * G)").unwrap(), &mirror(4, &current), &registry).unwrap();
    assert_eq!(dense_of(&store.exec("g", &[qid]).unwrap()[0]), expected);
    // Fresh updates must be assigned sequences beyond the snapshot.
    store.update("g", "G", &[(3, 0, 4.0)]).unwrap();
    assert!(store.walstat("g").unwrap().seq > seq_before);
}

#[test]
fn empty_instance_roundtrips_through_recovery() {
    let scratch = ScratchDir::new("empty");
    {
        let store = Store::open(scratch.path());
        store.create_instance("void", false).unwrap();
        store.set_persist("void", true).unwrap();
    }
    let store = Store::open(scratch.path());
    assert_eq!(store.list_instances(), vec!["void".to_string()]);
    let stat = store.walstat("void").unwrap();
    assert!(stat.persisted);
    assert_eq!(stat.records, 0);
}

#[test]
fn stale_tmp_file_from_a_killed_compaction_is_ignored() {
    let scratch = ScratchDir::new("stale-tmp");
    let current = vec![(0, 1, 1.0), (2, 2, 4.0)];
    {
        let store = Store::open(scratch.path());
        store.create_instance("g", true).unwrap();
        store.set_dim("g", "n", 3).unwrap();
        store.load_matrix("g", "G", 3, 3, current.clone()).unwrap();
        store.set_persist("g", true).unwrap();
    }
    // A compaction killed before its atomic rename leaves `*.snap.tmp`
    // garbage next to the good snapshot; recovery must not read it.
    fs::write(scratch.path().join("g.snap.tmp"), b"half-written garbage").unwrap();
    fs::write(scratch.path().join("orphan.snap.tmp"), b"\x00\x01\x02").unwrap();

    let store = Store::open(scratch.path());
    assert_eq!(store.list_instances(), vec!["g".to_string()]);
    let qid = store.prepare("g", "(G * G)").unwrap().qid;
    let registry = FunctionRegistry::standard_field();
    let expected = evaluate(&parse("(G * G)").unwrap(), &mirror(3, &current), &registry).unwrap();
    assert_eq!(dense_of(&store.exec("g", &[qid]).unwrap()[0]), expected);
}

#[test]
fn corrupt_snapshot_is_skipped_without_panicking() {
    let scratch = ScratchDir::new("corrupt-snap");
    {
        let store = Store::open(scratch.path());
        store.create_instance("good", true).unwrap();
        store.set_dim("good", "n", 3).unwrap();
        store.set_persist("good", true).unwrap();
        store.create_instance("bad", true).unwrap();
        store.set_persist("bad", true).unwrap();
    }
    // Destroy one snapshot wholesale; the other instance must still come
    // back and the store must not panic.
    fs::write(scratch.path().join("bad.snap"), b"not a snapshot at all").unwrap();
    let store = Store::open(scratch.path());
    assert_eq!(store.list_instances(), vec!["good".to_string()]);
}

/// The upgrade path for data directories written while `dense` was a
/// backend of its own: a `dense`-tagged snapshot of dense-encoded payloads,
/// plus one WAL record past it, loads through boot-time recovery and
/// through `RESTORE`, and answers exactly what `core::evaluate` does.  Any
/// other backend tag is refused with a storage error naming it.
#[test]
fn dense_tagged_snapshots_still_load() {
    const N: usize = 4;
    let scratch = ScratchDir::new("legacy-dense");
    let dir = scratch.path();
    let snapshot = |backend: &str| {
        let base = mirror(N, &[(0, 1, 1.5), (1, 2, -2.0), (3, 3, 4.0)]);
        let mut payload = Vec::new();
        base.matrix("G").unwrap().encode_matrix(&mut payload);
        Snapshot {
            semiring: "real".into(),
            backend: backend.into(),
            covered_seq: 0,
            dims: vec![("n".into(), N as u64)],
            vars: vec![("G".into(), payload)],
        }
    };
    let legacy = snapshot("dense");
    legacy
        .write_atomic(&persist::snapshot_path(dir, "old"))
        .unwrap();
    let (mut wal, _) = Wal::open(&persist::wal_path(dir, "old")).unwrap();
    wal.append(&WalRecord {
        seq: 1,
        var: "G".into(),
        entries: vec![(2, 0, 7.0)],
    })
    .unwrap();
    drop(wal);
    let export = dir.join("old.export");
    legacy.write_atomic(&export).unwrap();

    let registry = FunctionRegistry::standard_field();
    let query = "(transpose(G) * (G + G))";
    let expected = |entries: &[(usize, usize, f64)]| {
        evaluate(&parse(query).unwrap(), &mirror(N, entries), &registry).unwrap()
    };
    let store = Store::open(dir);
    assert_eq!(store.list_instances(), vec!["old".to_string()]);
    assert_eq!(store.walstat("old").unwrap().seq, 1, "the record replayed");
    let qid = store.prepare("old", query).unwrap().qid;
    assert_eq!(
        dense_of(&store.exec("old", &[qid]).unwrap()[0]),
        expected(&[(0, 1, 1.5), (1, 2, -2.0), (3, 3, 4.0), (2, 0, 7.0)]),
        "recovery of a dense-tagged snapshot diverged from core::evaluate"
    );

    assert_eq!(store.restore("copy", &export).unwrap(), (1, 1));
    let qid = store.prepare("copy", query).unwrap().qid;
    assert_eq!(
        dense_of(&store.exec("copy", &[qid]).unwrap()[0]),
        expected(&[(0, 1, 1.5), (1, 2, -2.0), (3, 3, 4.0)]),
        "RESTORE of a dense-tagged snapshot diverged from core::evaluate"
    );

    let unknown = dir.join("unknown.export");
    snapshot("columnar").write_atomic(&unknown).unwrap();
    match store.restore("bad", &unknown) {
        Err(e @ ServerError::Storage { .. }) => {
            assert!(e.to_string().contains("`columnar`"), "{e}")
        }
        other => panic!("expected a storage error, got {other:?}"),
    }
}

#[test]
fn persist_requires_a_data_dir_and_safe_names() {
    // No data dir: PERSIST on must fail with a storage error.
    let store = Store::new();
    store.create_instance("g", true).unwrap();
    if store.data_dir().is_none() {
        let err = store.set_persist("g", true).unwrap_err();
        assert!(
            err.to_string().contains("data directory"),
            "expected a data-directory error, got `{err}`"
        );
    }
    // Unsafe instance names must never touch the filesystem.
    let scratch = ScratchDir::new("unsafe-name");
    let store = Store::open(scratch.path());
    store.create_instance("../evil", true).unwrap();
    assert!(store.set_persist("../evil", true).is_err());
}
