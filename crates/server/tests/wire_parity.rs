//! End-to-end byte parity of the result path.
//!
//! A session streams a reply straight out of the executor's matrix; the
//! library API collects the same result into a `WireResult` and
//! `write_result` encodes that; the code both replaced wrote one
//! `writeln!("{i} {j} {v}")` per entry.  For the evaluator corpus on every
//! semiring × backend, the three must put the **same bytes** on the wire
//! for `EXEC`, `EXECBATCH` and `QUERY` — `ERR` lines included — and every
//! `RESULT` header's `nnz` must be the number of entry lines after it.

use matlang_core::{corpus, Expr};
use matlang_server::protocol::{write_err, write_result};
use matlang_server::{
    Client, ResponseHeader, SemiringKind, Server, ServerConfig, ServerError, Store, WireResult,
};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

/// `write_result` as it was before the entry codec — one `writeln!` per
/// entry — after the header line, which the codec did not touch.
fn reference_block(header_line: &[u8], result: &WireResult) -> Vec<u8> {
    let mut out = header_line.to_vec();
    for (i, j, v) in &result.entries {
        writeln!(out, "{i} {j} {v}").unwrap();
    }
    writeln!(out, "END").unwrap();
    out
}

/// What the library API says the reply to a request is, as `write_result`
/// encodes it — checked against the reference encoding on the way.
fn expected(results: Result<Vec<WireResult>, ServerError>, batch: bool) -> Vec<u8> {
    let mut out = Vec::new();
    match results {
        Err(error) => write_err(&mut out, &error).unwrap(),
        Ok(results) => {
            if batch {
                writeln!(out, "BATCH {}", results.len()).unwrap();
            }
            for result in &results {
                let mut block = Vec::new();
                write_result(&mut block, result).unwrap();
                let header_end = block.iter().position(|&b| b == b'\n').unwrap() + 1;
                assert!(
                    block == reference_block(&block[..header_end], result),
                    "write_result diverged from writeln!:\n{}",
                    show(&block)
                );
                out.extend(block);
            }
        }
    }
    out
}

/// A raw connection: sends a request line, returns the reply's bytes with
/// the per-request `trace=` id zeroed (the library calls run untraced).
struct Raw {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Raw {
    fn line(&mut self) -> String {
        let mut line = String::new();
        assert!(
            self.reader.read_line(&mut line).unwrap() > 0,
            "server hung up"
        );
        line
    }

    fn block(&mut self, header: String, out: &mut String) {
        let parsed = ResponseHeader::parse(header.trim_end()).unwrap();
        let trace = header.find("trace=").expect("RESULT headers carry trace=");
        out.push_str(&header[..trace]);
        out.push_str("trace=0000000000000000\n");
        let mut entries = 0;
        loop {
            let line = self.line();
            out.push_str(&line);
            if line == "END\n" {
                break;
            }
            entries += 1;
        }
        assert_eq!(
            entries, parsed.nnz,
            "header nnz vs entry lines in `{header}`"
        );
    }

    fn request(&mut self, request: &str) -> Vec<u8> {
        self.writer
            .write_all(format!("{request}\n").as_bytes())
            .unwrap();
        let mut out = String::new();
        let first = self.line();
        if let Some(count) = first.strip_prefix("BATCH ") {
            out.push_str(&first);
            for _ in 0..count.trim().parse::<usize>().unwrap() {
                let header = self.line();
                self.block(header, &mut out);
            }
        } else if first.starts_with("RESULT ") {
            self.block(first, &mut out);
        } else {
            out.push_str(&first);
        }
        out.into_bytes()
    }
}

fn show(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

/// Checks one query text on one instance: `QUERY`, and — when it
/// prepares — warm `EXEC` and a two-statement `EXECBATCH`.
fn check(raw: &mut Raw, client: &mut Client, store: &Store, name: &str, text: &str) -> usize {
    let got = raw.request(&format!("QUERY {name} {text}"));
    let want = expected(store.query(name, text).map(|r| vec![r]), false);
    assert!(
        got == want,
        "QUERY {name} {text}\n{}\nvs\n{}",
        show(&got),
        show(&want)
    );
    let Ok(qid) = client.prepare(name, text) else {
        return 0;
    };
    // The first execution fills the memo cache; from then on every
    // execution of the same statements reports the same counters.
    let batch = format!("EXECBATCH {name} {qid} 0 {qid}");
    raw.request(&batch);
    let got = raw.request(&format!("EXEC {name} {qid}"));
    let want = expected(store.exec(name, &[qid]), false);
    assert!(
        got == want,
        "EXEC {name} {text}\n{}\nvs\n{}",
        show(&got),
        show(&want)
    );
    let got = raw.request(&batch);
    let want = expected(store.exec(name, &[qid, 0, qid]), true);
    assert!(
        got == want,
        "{batch} ({text})\n{}\nvs\n{}",
        show(&got),
        show(&want)
    );
    got.iter().filter(|&&b| b == b'\n').count()
}

#[test]
fn socket_bytes_equal_the_collected_and_the_reference_encoding() {
    // Two connections are open at once (the raw one and the typed client).
    let handle = Server::spawn(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    })
    .unwrap();
    let stream = TcpStream::connect(handle.addr()).unwrap();
    let mut raw = Raw {
        reader: BufReader::new(stream.try_clone().unwrap()),
        writer: stream,
    };
    let mut client = Client::connect(handle.addr()).unwrap();
    let store = handle.store();

    // The corpus matrix of `server_integration`: zeros inside, a fraction,
    // and (as `Z`) no entries at all.
    let a = [
        (0, 1, 1.0),
        (0, 3, 2.0),
        (1, 2, 3.0),
        (2, 0, 0.5),
        (2, 3, 1.0),
        (3, 0, 4.0),
    ];
    let mut texts: Vec<String> = corpus::operator_corpus()
        .iter()
        .map(Expr::to_string)
        .collect();
    let ones = || Expr::var("A").ones();
    texts.extend([
        // 1 × 1, empty, and values `Display` prints the long way.
        ones().t().mm(ones()).to_string(),
        Expr::var("Z").to_string(),
        Expr::var("Z").mm(Expr::var("A")).to_string(),
        Expr::lit(1e300).smul(Expr::var("A")).to_string(),
        Expr::lit(-1.0 / 3.0).smul(Expr::var("A")).to_string(),
        Expr::lit(9_007_199_254_740_993.0)
            .smul(Expr::var("A"))
            .to_string(),
    ]);

    let mut lines = 0;
    for semiring in [
        SemiringKind::Real,
        SemiringKind::Boolean,
        SemiringKind::Nat,
        SemiringKind::MinPlus,
    ] {
        for adaptive in [false, true] {
            let backend = if adaptive { "adaptive" } else { "dense" };
            let name = format!("{}_{backend}", semiring.name());
            client
                .create_instance_with(&name, adaptive, semiring)
                .unwrap();
            client.set_dim(&name, "a", 4).unwrap();
            client.load(&name, "A", 4, 4, &a).unwrap();
            client.load(&name, "Z", 4, 4, &[]).unwrap();
            // Statement 0 of every instance, for the batches.
            assert_eq!(client.prepare(&name, "A").unwrap(), 0);
            for text in &texts {
                lines += check(&mut raw, &mut client, store, &name, text);
            }
        }
    }
    // The dense ℝ instance answered `A` with its 6 non-zeros out of 16.
    let got = show(&raw.request("EXEC real_dense 0"));
    assert!(got.starts_with("RESULT 4 4 6 "), "{got}");
    assert!(lines > 2_000, "only {lines} lines compared");
    handle.shutdown();
}
