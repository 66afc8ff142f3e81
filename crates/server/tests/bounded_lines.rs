//! The line cap, end to end: a line longer than `MAX_LINE_BYTES` costs the
//! server a typed `ERR ETOOBIG` and nothing else — no memory, no session —
//! and the cap sits far above anything the paper's workloads send.

use matlang_algorithms::{csanky, graphs, lu};
use matlang_server::{Client, ErrorCode, Server, ServerConfig, MAX_LINE_BYTES};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

/// Peak resident set of this process (the server runs in it), in KiB.
fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.trim().trim_end_matches("kB").trim().parse().ok()
}

fn reply(reader: &mut impl BufRead) -> String {
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    line.trim_end().to_string()
}

/// One test, so that nothing else in this binary allocates while the
/// process-wide peak is being compared.
#[test]
fn oversized_lines_cost_a_typed_error_and_nothing_else() {
    a_64_mib_request_line_costs_no_memory_and_keeps_the_session();
    an_oversized_load_entry_is_refused_after_the_body_is_consumed();
}

fn a_64_mib_request_line_costs_no_memory_and_keeps_the_session() {
    let handle = Server::spawn(ServerConfig::default()).unwrap();
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    stream.write_all(b"PING\n").unwrap();
    assert_eq!(reply(&mut reader), "OK pong");

    let before = peak_rss_kib();
    let chunk = vec![b'x'; 64 * 1024];
    for _ in 0..1024 {
        stream.write_all(&chunk).unwrap();
    }
    stream.write_all(b"\n").unwrap();
    assert_eq!(
        reply(&mut reader),
        format!("ERR ETOOBIG line exceeds {MAX_LINE_BYTES} bytes")
    );
    // Without /proc (not Linux) the memory half of the test is skipped.
    if let (Some(before), Some(after)) = (before, peak_rss_kib()) {
        let grown = after.saturating_sub(before);
        assert!(
            grown < 4 * 1024,
            "peak RSS grew {grown} KiB over a discarded line"
        );
    }

    // The same connection is still in protocol sync.
    stream.write_all(b"PING\n").unwrap();
    assert_eq!(reply(&mut reader), "OK pong");
    handle.shutdown();
}

fn an_oversized_load_entry_is_refused_after_the_body_is_consumed() {
    let handle = Server::spawn(ServerConfig::default()).unwrap();
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut request = b"INSTANCE g\nDIM g n 2\nLOAD g G 2 2 3\n0 0 1\n".to_vec();
    request.extend(std::iter::repeat(b'7').take(MAX_LINE_BYTES + 1));
    request.extend_from_slice(b"\n1 1 2\nPING\n");
    stream.write_all(&request).unwrap();
    assert_eq!(reply(&mut reader), "OK instance g adaptive real");
    assert_eq!(reply(&mut reader), "OK dim n 2");
    // All three entry lines belonged to the LOAD; the next line is a request.
    assert_eq!(
        reply(&mut reader),
        format!("ERR ETOOBIG line exceeds {MAX_LINE_BYTES} bytes")
    );
    assert_eq!(reply(&mut reader), "OK pong");
    handle.shutdown();

    // The typed client maps the code.
    let handle = Server::spawn(ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.create_instance("g", true).unwrap();
    let long_name = "v".repeat(MAX_LINE_BYTES);
    let error = client.set_dim("g", &long_name, 2).unwrap_err();
    assert_eq!(error.code, ErrorCode::TooBig);
    client.ping().unwrap();
    handle.shutdown();
}

#[test]
fn the_paper_queries_are_far_under_the_cap() {
    // What `paper_loops` sends: the loop programs rendered with
    // `Expr::to_string()`.  The text does not depend on the dimension's
    // value, only on its symbol.
    let texts = [
        graphs::transitive_closure_fw("G", "n").to_string(),
        graphs::triangle_count("G", "n").to_string(),
        csanky::determinant("G", "n").to_string(),
        lu::upper_factor("G", "n").to_string(),
    ];
    let longest = texts
        .iter()
        .map(|t| "QUERY g ".len() + t.len() + 1)
        .max()
        .unwrap();
    assert!(
        longest > 100,
        "the loop programs are not one-liners: {longest}"
    );
    assert!(
        longest * 10 <= MAX_LINE_BYTES,
        "longest paper query is {longest} bytes, cap is {MAX_LINE_BYTES}"
    );
}
