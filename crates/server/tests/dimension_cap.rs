//! The dimension cap, end to end: a `LOAD`, `DIM` or `GEN` that asks for
//! more than `MAX_DIMENSION` rows, columns or entries is answered
//! `ERR ESTORE` before anything is allocated, and the same session goes on
//! answering.  A query over capped inputs whose result cannot be allocated
//! fails that query alone.

use matlang_server::{Server, ServerConfig, MAX_DIMENSION};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

fn reply(reader: &mut impl BufRead) -> String {
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    line.trim_end().to_string()
}

#[test]
fn oversized_dimensions_are_refused_and_the_session_carries_on() {
    let handle = Server::spawn(ServerConfig::default()).unwrap();
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut send = |line: &str| {
        stream.write_all(format!("{line}\n").as_bytes()).unwrap();
        reply(&mut reader)
    };
    let refused = |answer: String| {
        assert!(answer.starts_with("ERR ESTORE "), "{answer}");
    };
    assert_eq!(send("INSTANCE g"), "OK instance g adaptive real");

    // 2⁴⁰ rows: the CSR row pointers alone would be 8 TiB.
    refused(send("LOAD g A 1099511627776 1 0"));
    assert_eq!(send("PING"), "OK pong");
    refused(send(&format!("LOAD g A 1 {} 0", MAX_DIMENSION + 1)));

    refused(send("DIM g n 1099511627776"));
    refused(send("GEN g G n er 8 1"));
    assert_eq!(send("PING"), "OK pong");

    // A dimension under the cap, with degrees the generator cannot honour.
    assert_eq!(send("DIM g n 16"), "OK dim n 16");
    refused(send("GEN g G n er inf 1"));
    refused(send("GEN g G n er -1 1"));
    refused(send("GEN g G n pl 100000 2 1"));
    assert!(send("GEN g G n er 2 1").starts_with("OK gen G nnz="));
    assert_eq!(send("PING"), "OK pong");
    handle.shutdown();
}

#[test]
fn a_result_too_large_to_allocate_fails_the_query_not_the_server() {
    let handle = Server::spawn(ServerConfig::default()).unwrap();
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut send = |line: &str| {
        stream.write_all(format!("{line}\n").as_bytes()).unwrap();
        reply(&mut reader)
    };
    assert_eq!(send("INSTANCE g"), "OK instance g adaptive real");
    assert_eq!(
        send(&format!("DIM g n {MAX_DIMENSION}")),
        format!("OK dim n {MAX_DIMENSION}")
    );
    assert_eq!(
        send(&format!("LOAD g v {MAX_DIMENSION} 1 1\n0 0 1")),
        "OK load v nnz=1"
    );

    // Every input is under the cap, but the n × n product is 8 TiB.
    let answer = send("QUERY g (ones(v) * transpose(ones(v)))");
    assert!(answer.starts_with("ERR EEVAL "), "{answer}");
    assert_eq!(send("PING"), "OK pong");
    handle.shutdown();
}
