//! Drives the built binary end to end: a smoke pass over every workload, and
//! `compare` on real documents.

use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

fn matbench() -> Command {
    Command::new(env!("CARGO_BIN_EXE_matbench"))
}

fn out_file(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

/// One round of 1/50 of the operations per workload, traced runs included:
/// every oracle check passes, the document says it is not comparable, and the
/// whole pass is quick enough to run with the tests.
#[test]
fn smoke_pass_covers_every_workload_quickly_and_is_flagged_non_comparable() {
    let out = out_file("smoke.json");
    let start = Instant::now();
    let status = matbench()
        .args(["run", "--smoke", "--seed", "5", "--out"])
        .arg(&out)
        .stdout(std::process::Stdio::null())
        .status()
        .expect("matbench runs");
    let elapsed = start.elapsed();
    assert!(status.success(), "smoke pass failed: {status}");
    assert!(
        elapsed < Duration::from_secs(15),
        "smoke pass took {elapsed:?}"
    );

    let text = std::fs::read_to_string(&out).expect("result document written");
    assert!(text.contains("\"comparable\": false"));
    for workload in [
        "warm_point",
        "warm_stream",
        "oneshot_chain",
        "paper_loops",
        "delta_update",
        "mixed_rw",
        "durable_update",
        "recompute_kernels",
    ] {
        let at = text
            .find(&format!("\"{workload}\": {{"))
            .unwrap_or_else(|| panic!("{workload} missing from the document"));
        assert!(
            text[at..].contains("\"fail_ratio\": 0,"),
            "{workload} failed operations"
        );
    }

    // A smoke document must never be used as a baseline.
    let compared = matbench()
        .arg("compare")
        .args([&out, &out])
        .output()
        .expect("matbench runs");
    assert!(!compared.status.success());
    assert!(String::from_utf8_lossy(&compared.stderr).contains("not comparable"));
}

/// The driver's contract on malformed invocations: a non-zero exit and no
/// result line.
#[test]
fn bad_invocations_exit_non_zero_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "warm_point", "--seed", "1", "--trace", "0"][..],
        &["frobnicate"][..],
    ] {
        let output = matbench().args(args).output().expect("matbench runs");
        assert!(!output.status.success(), "{args:?} succeeded");
        assert!(output.stdout.is_empty(), "{args:?} printed a result");
    }
}
