//! The exact text of every single-line reply, pinned over a socket.
//!
//! One session walks every verb that answers with one line — `HELLO`,
//! `INSTANCE`, `DIM`, `LOAD`, `GEN`, `PREPARE`, `UPDATE` (applied and
//! fallback), `LIST`, `HEALTH`, `DROP`, `SAVE`, `RESTORE`, `PERSIST`,
//! `WALSTAT`, `PING`, `QUIT` — plus the `BATCH` header of `EXECBATCH`, and
//! compares each reply with its expected bytes.  Only the values of `fp=`
//! (a plan hash) and `path=` (a scratch directory) are masked.
//!
//! `HEALTH` reads process-wide counters, so this binary holds one test and
//! nothing else opens a session in it.

use matlang_server::{Server, ServerConfig, StoreConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;

/// A scratch directory removed on drop.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct Session {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Session {
    fn line(&mut self) -> String {
        let mut line = String::new();
        assert!(
            self.reader.read_line(&mut line).unwrap() > 0,
            "server hung up"
        );
        line.trim_end_matches('\n').to_string()
    }

    /// Sends `request` (with any body lines) and returns the first reply
    /// line, `fp=` and `path=` values masked.
    fn send(&mut self, request: &str) -> String {
        writeln!(self.writer, "{request}").unwrap();
        self.writer.flush().unwrap();
        mask(&self.line())
    }

    /// Sends `request` and asserts its one-line reply.
    fn pin(&mut self, request: &str, expected: &str) {
        let reply = self.send(request);
        assert_eq!(reply, expected, "reply to `{request}`");
    }

    /// Reads lines up to and including the `END` of a block reply.
    fn skip_block(&mut self) {
        while self.line() != "END" {}
    }
}

/// Replaces the value of every `fp=` and `path=` token with `*`.
fn mask(line: &str) -> String {
    line.split(' ')
        .map(|token| match token.split_once('=') {
            Some((key @ ("fp" | "path"), _)) => format!("{key}=*"),
            _ => token.to_string(),
        })
        .collect::<Vec<_>>()
        .join(" ")
}

#[test]
fn single_line_replies_are_pinned_byte_for_byte() {
    matlang_obs::set_enabled(true);
    let dir =
        ScratchDir(std::env::temp_dir().join(format!("matlang-reply-pins-{}", std::process::id())));
    let _ = std::fs::remove_dir_all(&dir.0);
    let export = dir.0.join("export.snap");
    let handle = Server::spawn(ServerConfig {
        workers: 1,
        store: StoreConfig::builder()
            .data_dir(&dir.0)
            .wal_compact(1 << 20)
            .mem_budget(None)
            .slow_ms(1 << 30)
            .build(),
        ..ServerConfig::default()
    })
    .expect("spawn server");
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    let mut s = Session {
        reader: BufReader::new(stream.try_clone().unwrap()),
        writer: stream,
    };

    s.pin(
        "HELLO",
        "OK matlangd proto=2 caps=delta,errcodes,semirings,execbatch,obs,capacity,persist",
    );
    s.pin("INSTANCE g adaptive bool", "OK instance g adaptive bool");
    s.pin("INSTANCE r dense", "OK instance r adaptive real");
    s.pin("DIM g n 4", "OK dim n 4");
    s.pin("DIM r n 16", "OK dim n 16");
    s.pin("LOAD g G 4 4 3\n0 1 1\n1 2 1\n2 0 1", "OK load G nnz=3");
    s.pin("GEN r R n er 2 7", "OK gen R nnz=32");
    s.pin(
        "HEALTH",
        "OK health status=ok bytes=664 budget=- instances=2 connections=1 exec=0 \
         slow_rate=0.0000 fallback_rate=0.0000 evictions=0",
    );

    s.pin(
        "PREPARE g (G * G)",
        "OK prepared 0 plan=built statement=new nodes=2 fp=*",
    );
    s.pin(
        "PREPARE g (G * G)",
        "OK prepared 0 plan=cached statement=reused nodes=2 fp=*",
    );
    s.pin(
        "PREPARE g (G + G)",
        "OK prepared 1 plan=built statement=new nodes=3 fp=*",
    );
    assert_eq!(s.send("EXECBATCH g 0 1"), "BATCH 2");
    s.skip_block();
    s.skip_block();
    s.pin(
        "UPDATE g G 3 3 1",
        "OK update G entries=1 invalidated=0 delta=applied patched=3",
    );
    s.pin(
        "UPDATE g G 0 1 0",
        "OK update G entries=1 invalidated=3 delta=fallback reason=not-insert-only",
    );
    s.pin(
        "UPDATE g G",
        "OK update G entries=0 invalidated=0 delta=applied patched=0",
    );
    s.pin(
        "LIST",
        "OK instances g:adaptive:bool:3:1 r:adaptive:real:0:0",
    );

    s.pin("DROP r", "OK dropped r");
    s.pin("SAVE g", "OK saved g bytes=275 path=*");
    s.pin(
        &format!("SAVE g {}", export.display()),
        "OK saved g bytes=275 path=*",
    );
    s.pin(
        &format!("RESTORE copy {}", export.display()),
        "OK restored copy dims=1 vars=1",
    );
    s.pin("PERSIST g on", "OK persist g on");
    s.send("UPDATE g G 0 2 1");
    s.pin(
        "WALSTAT g",
        "OK walstat g persist=on seq=1 records=1 wal_bytes=57 snapshot_bytes=275 compact=1048576",
    );
    s.pin("PERSIST g off", "OK persist g off");
    s.pin(
        "WALSTAT g",
        "OK walstat g persist=off seq=0 records=0 wal_bytes=0 snapshot_bytes=0 compact=1048576",
    );
    s.pin("PING", "OK pong");
    s.pin("QUIT", "OK bye");
    handle.shutdown();
}
