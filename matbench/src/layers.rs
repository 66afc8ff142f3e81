//! The traced run: a fixed number of operations, sent twice.
//!
//! * **Phase A** sends them over TCP with this file's own socket loop and
//!   records `client.send` / `client.wait` / `client.recv` spans per request.
//! * **Phase B** replays the identical request sequence in-process: every
//!   line goes through `Request::parse`, the server's own `Store` and
//!   `write_result`, and then through a *shadow* of the store built here from
//!   the engine's, the kernels' and the WAL's public functions, one span per
//!   call.  The shadow exists because spans inside the program are a later
//!   change; timing the same calls from outside gives each layer's share
//!   today.
//!
//! Counts in this run repeat exactly for a given seed: the operation count is
//! fixed, one client sends them in order, and nothing is time-triggered.

use crate::host::Host;
use crate::json::Json;
use crate::metrics::PER_LAYER;
use crate::oracle::{self, BenchRing, LocalInstance};
use crate::round::{self, check_misses, Problems};
use crate::spec::{
    request_line, Delta, Kernels, Req, Source, Workload, INSTANCE, SYM, VAR, WAL_COMPACT,
};
use crate::stats::{median, percentile, sorted};
use crate::trace::{chrome_trace, per_request_us, Span, Tracer};
use matlang::core::{typecheck, MatrixType, Schema};
use matlang::engine::delta::propagate;
use matlang::engine::{
    rewrite_with_stats, DeltaOverlay, Engine, Executor, InstanceStats, NodeCache, Plan,
};
use matlang::matrix::{MatrixCodec, MatrixRepr, MatrixStorage, SparseMatrix};
use matlang::server::persist::{Snapshot, Wal, WalRecord};
use matlang::server::protocol::{read_result, write_result, Request};
use matlang::server::{parse_metrics_map, Client, Store, WireResult};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

// ---------------------------------------------------------------------------
// Phase A: the socket loop.
// ---------------------------------------------------------------------------

struct CountingReader {
    inner: TcpStream,
    bytes: u64,
}

impl Read for CountingReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }
}

/// One connection speaking the line protocol, like `Client` but with the
/// three client-side steps of a request separately observable.
struct RawConn {
    reader: BufReader<CountingReader>,
    writer: TcpStream,
    requests: u64,
}

/// What a reply said, reduced to what the metrics need.
enum Reply {
    Result(WireResult),
    Line(String),
}

impl RawConn {
    fn connect(addr: std::net::SocketAddr) -> std::io::Result<RawConn> {
        let stream = TcpStream::connect(addr)?;
        Ok(RawConn {
            reader: BufReader::new(CountingReader {
                inner: stream.try_clone()?,
                bytes: 0,
            }),
            writer: stream,
            requests: 0,
        })
    }

    fn bytes_in(&self) -> u64 {
        self.reader.get_ref().bytes
    }

    /// Sends `text` (one request; a `LOAD` carries its entry lines) in one
    /// write, as `Client`'s flushed `BufWriter` does, and reads the reply.
    fn request(&mut self, tracer: &mut Tracer, text: &str) -> Result<Reply, String> {
        self.requests += 1;
        let io = |e: std::io::Error| format!("socket: {e}");
        tracer
            .time("client.send", || self.writer.write_all(text.as_bytes()))
            .map_err(io)?;
        let waited = tracer.time("client.wait", || self.reader.fill_buf().map(|b| b.len()));
        if waited.map_err(io)? == 0 {
            return Err("connection closed".to_string());
        }
        let span = tracer.enter("client.recv");
        let reply = self.read_reply();
        tracer.exit(span);
        reply
    }

    fn read_reply(&mut self) -> Result<Reply, String> {
        let mut header = String::new();
        self.reader
            .read_line(&mut header)
            .map_err(|e| format!("socket: {e}"))?;
        let header = header.trim_end();
        if let Some(error) = header.strip_prefix("ERR ") {
            return Err(format!("server: {error}"));
        }
        if header.starts_with("RESULT ") {
            return read_result(header, &mut self.reader).map(Reply::Result);
        }
        Ok(Reply::Line(header.to_string()))
    }

    fn command(&mut self, tracer: &mut Tracer, text: &str) -> Result<String, String> {
        match self.request(tracer, text)? {
            Reply::Line(line) => Ok(line),
            Reply::Result(_) => Err(format!("unexpected RESULT for `{}`", text.trim_end())),
        }
    }

    fn result(&mut self, tracer: &mut Tracer, text: &str) -> Result<WireResult, String> {
        match self.request(tracer, text)? {
            Reply::Result(result) => Ok(result),
            Reply::Line(line) => Err(format!("expected RESULT, got `{line}`")),
        }
    }
}

fn kv<T: std::str::FromStr>(line: &str, key: &str) -> Option<T> {
    line.split_whitespace()
        .find_map(|token| token.strip_prefix(key)?.strip_prefix('='))
        .and_then(|v| v.parse().ok())
}

/// The set-up requests, as text.
fn setup_requests(w: &Workload, seed: u64) -> Vec<String> {
    let mut out = vec![
        format!(
            "INSTANCE {INSTANCE} adaptive {}\n",
            round::semiring_kind(w).name()
        ),
        format!("DIM {INSTANCE} {SYM} {}\n", w.n),
    ];
    match w.source {
        Source::ErdosRenyi { degree } => out.push(format!(
            "GEN {INSTANCE} {VAR} {SYM} er {degree} {}\n",
            w.gen_seed(seed)
        )),
        Source::DiagDominant => {
            let entries = w.dense_entries(seed);
            let mut load = format!("LOAD {INSTANCE} {VAR} {} {} {}\n", w.n, w.n, entries.len());
            for (i, j, v) in entries {
                load.push_str(&format!("{i} {j} {v}\n"));
            }
            out.push(load);
        }
    }
    if w.durable {
        out.push(format!("PERSIST {INSTANCE} on\n"));
    }
    out.extend(
        w.prepared
            .iter()
            .map(|text| format!("PREPARE {INSTANCE} {text}\n")),
    );
    out
}

fn probe_raw(
    conn: &mut RawConn,
    tracer: &mut Tracer,
    w: &Workload,
    oneshot: &[String],
) -> Result<Vec<WireResult>, String> {
    let mut replies = Vec::new();
    for qid in 0..w.prepared.len() {
        replies.push(conn.result(tracer, &format!("EXEC {INSTANCE} {qid}\n"))?);
    }
    for text in oneshot {
        replies.push(conn.result(tracer, &format!("QUERY {INSTANCE} {text}\n"))?);
    }
    Ok(replies)
}

/// Counters read off the replies of phase A's timed operations.
#[derive(Default)]
struct WireCounts {
    hits: u64,
    misses: u64,
    updates: u64,
    applied: u64,
    invalidated: u64,
    patched: u64,
    /// Durable only, from a `WALSTAT` after every update.
    wal_frame_bytes: u64,
    wal_appended: u64,
    compactions: u64,
    snapshot_rewritten: u64,
    snapshot_bytes: u64,
    wal_records: u64,
}

struct PhaseA {
    spans: Vec<Span>,
    lat_us: Vec<f64>,
    counts: WireCounts,
    first: Vec<WireResult>,
    last: Vec<WireResult>,
    acked: Vec<(usize, usize)>,
    requests: u64,
    bytes_in: u64,
    session_requests: u64,
    session_bytes_out: u64,
    metrics_before: String,
    metrics_after: String,
    recover: Option<(f64, f64, Vec<WireResult>)>,
}

fn phase_a(
    w: &Workload,
    seed: u64,
    work_dir: &Path,
    problems: &mut Problems,
) -> Result<PhaseA, String> {
    let oneshot = w.oneshot_texts();
    let rig = round::spawn_server(w, &work_dir.join("a"))?;
    let mut tracer = Tracer::new();
    let mut conn = RawConn::connect(rig.handle.addr()).map_err(|e| format!("connect: {e}"))?;
    for text in setup_requests(w, seed) {
        conn.command(&mut tracer, &text)?;
    }
    let first = probe_raw(&mut conn, &mut tracer, w, &oneshot)?;
    let scrape = |what: &str| -> Result<String, String> {
        Client::connect(rig.handle.addr())
            .map_err(|e| format!("connect: {e}"))?
            .metrics()
            .map_err(|e| format!("{what}: {e}"))
    };
    let metrics_before = scrape("METRICS before")?;

    let mut counts = WireCounts::default();
    let mut acked = Vec::new();
    let mut lat_us = Vec::with_capacity(w.traced_ops);
    let mut ops = w.ops(seed);
    let mut reqs = Vec::new();
    let mut prev_records = 0u64;
    let mut prev_wal_bytes = 0u64;
    let setup_spans = tracer.spans().len();
    for op in 0..w.traced_ops {
        ops.next_op(&mut reqs);
        tracer.set_request(op as u64 + 1);
        let root = tracer.enter("request");
        let start = Instant::now();
        let mut outcome = Ok(());
        for &req in &reqs {
            let line = request_line(req, &oneshot) + "\n";
            let step = match req {
                Req::Update(i, j) => conn.command(&mut tracer, &line).and_then(|reply| {
                    acked.push((i, j));
                    counts.updates += 1;
                    counts.invalidated += kv::<u64>(&reply, "invalidated").unwrap_or(0);
                    let applied = reply.split_whitespace().any(|t| t == "delta=applied");
                    counts.applied += u64::from(applied);
                    counts.patched += kv::<u64>(&reply, "patched").unwrap_or(0);
                    let got = if applied {
                        Delta::Applied
                    } else {
                        Delta::Fallback
                    };
                    round::check_delta(w.delta, Some(got), &reply)
                }),
                Req::Exec(_) | Req::Query(_) => conn.result(&mut tracer, &line).and_then(|reply| {
                    counts.hits += reply.stats.cache_hits;
                    counts.misses += reply.stats.cache_misses;
                    match req {
                        Req::Exec(_) => check_misses(w.misses, reply.stats.cache_misses),
                        _ => Ok(()),
                    }
                }),
            };
            if let Err(e) = step {
                outcome = Err(e);
                break;
            }
        }
        lat_us.push(start.elapsed().as_nanos() as f64 / 1e3);
        tracer.exit(root);
        problems.check(&format!("traced op {}", op + 1), outcome);
        if w.durable {
            // Outside the operation's span and latency: bookkeeping of what
            // the update just cost on disk.
            tracer.set_request(0);
            let stat = conn.command(&mut tracer, &format!("WALSTAT {INSTANCE}\n"))?;
            let records: u64 = kv(&stat, "records").unwrap_or(0);
            let wal_bytes: u64 = kv(&stat, "wal_bytes").unwrap_or(0);
            if records > prev_records {
                counts.wal_frame_bytes = wal_bytes - prev_wal_bytes;
            } else {
                counts.compactions += 1;
                counts.snapshot_rewritten += kv::<u64>(&stat, "snapshot_bytes").unwrap_or(0);
            }
            counts.wal_appended += counts.wal_frame_bytes;
            counts.snapshot_bytes = kv(&stat, "snapshot_bytes").unwrap_or(0);
            counts.wal_records = records;
            (prev_records, prev_wal_bytes) = (records, wal_bytes);
        }
    }
    tracer.set_request(0);
    let last = probe_raw(&mut conn, &mut tracer, w, &oneshot)?;
    // The session adds to `bytes_out` after its write returns, by which time
    // this thread may already hold the reply: give it a moment to catch up.
    let ours = (conn.requests, conn.bytes_in());
    let mut session = None;
    for _ in 0..200 {
        session = rig.handle.sessions().into_iter().max_by_key(|s| s.requests);
        if session.as_ref().map(|s| (s.requests, s.bytes_out)) == Some(ours) {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let session = session.ok_or("server lists no session")?;
    let metrics_after = scrape("METRICS after")?;
    let (requests, bytes_in) = (conn.requests, conn.bytes_in());
    drop(conn);
    let data_dir = rig.data_dir.clone();
    rig.handle.shutdown();
    let recover = match &data_dir {
        Some(dir) => Some(round::recover(w, dir)?),
        None => None,
    };
    Ok(PhaseA {
        spans: tracer.spans_from(setup_spans),
        lat_us,
        counts,
        first,
        last,
        acked,
        requests,
        bytes_in,
        session_requests: session.requests,
        session_bytes_out: session.bytes_out,
        metrics_before,
        metrics_after,
        recover,
    })
}

// ---------------------------------------------------------------------------
// Phase B: the in-process replay and the shadow.
// ---------------------------------------------------------------------------

/// The store's per-instance state, rebuilt from the layers' public
/// functions so that each can be timed on its own.
struct Shadow<K: BenchRing> {
    instance: LocalInstance<K>,
    engine: Engine,
    schema: Schema,
    /// The batch plan of the standing queries, marked cacheable as the
    /// store marks it.
    plan: Option<Plan>,
    cache: NodeCache<MatrixRepr<K>>,
    overlay: DeltaOverlay<K>,
    delta: Delta,
    kernels: Kernels,
    wal: Option<(Wal, std::path::PathBuf)>,
    counts: ShadowCounts,
}

#[derive(Default)]
struct ShadowCounts {
    plan_nodes: usize,
    rewrites_applied: usize,
    spmm_madds: Vec<f64>,
    spmm_bytes: Vec<f64>,
}

impl<K: BenchRing> Shadow<K> {
    fn new(w: &Workload, seed: u64, dir: &Path) -> Result<Shadow<K>, String> {
        let instance = oracle::build_instance::<K>(w, seed);
        let engine = Engine::new();
        let mut counts = ShadowCounts::default();
        let plan = if w.prepared.is_empty() {
            None
        } else {
            let exprs = w
                .prepared
                .iter()
                .map(|text| matlang::parser::parse(text).map_err(|e| format!("shadow parse: {e}")))
                .collect::<Result<Vec<_>, _>>()?;
            let mut plan = engine.plan(&exprs, &instance);
            plan.mark_all_cacheable();
            counts.plan_nodes = plan.nodes().len();
            counts.rewrites_applied = plan.report.rewrites.len();
            Some(plan)
        };
        let nodes = plan.as_ref().map_or(0, |p| p.nodes().len());
        let wal = if w.durable {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
            let (wal, _) =
                Wal::open(&dir.join("shadow.wal")).map_err(|e| format!("shadow wal: {e}"))?;
            Some((wal, dir.join("shadow.snap")))
        } else {
            None
        };
        Ok(Shadow {
            instance,
            engine,
            schema: Schema::new().with_var(VAR, MatrixType::square(SYM)),
            plan,
            cache: vec![None; nodes],
            overlay: DeltaOverlay::new(nodes),
            delta: w.delta,
            kernels: w.kernels,
            wal,
            counts,
        })
    }

    fn exec(&mut self, t: &mut Tracer, qid: usize) -> Result<Arc<MatrixRepr<K>>, String> {
        let plan = self.plan.as_ref().ok_or("shadow has no standing plan")?;
        let root = plan.roots()[qid];
        t.time("engine.flush", || {
            self.overlay.flush_for_roots(&mut self.cache, &[root])
        });
        let registry = K::registry();
        let span = t.enter("engine.exec");
        let mut exec = Executor::with_cache(
            plan,
            &self.instance,
            &registry,
            self.engine.exec_options,
            std::mem::take(&mut self.cache),
        );
        let value = exec.run_shared(root);
        let misses = exec.stats().cache_misses;
        self.cache = exec.into_cache();
        t.exit(span);
        if misses > 0 {
            self.replay_kernels(t);
        }
        value.map_err(|e| format!("shadow exec: {e}"))
    }

    fn query(
        &mut self,
        t: &mut Tracer,
        text: &str,
        first: bool,
    ) -> Result<Arc<MatrixRepr<K>>, String> {
        let expr = t
            .time("parser.parse", || matlang::parser::parse(text))
            .map_err(|e| format!("shadow parse: {e}"))?;
        t.time("core.typecheck", || typecheck(&expr, &self.schema))
            .map_err(|e| format!("shadow typecheck: {e}"))?;
        let stats = InstanceStats::from_instance(&self.instance);
        // `Engine::plan` rewrites again inside; this span prices the rewrite
        // layer alone and is not part of any sum.
        let rewritten = t.time("engine.rewrite", || rewrite_with_stats(&expr, &stats));
        let plan = t.time("engine.plan", || {
            self.engine
                .plan(std::slice::from_ref(&expr), &self.instance)
        });
        if first {
            self.counts.plan_nodes += plan.nodes().len();
            self.counts.rewrites_applied += rewritten.applied.len();
        }
        let registry = K::registry();
        let span = t.enter("engine.exec");
        let value = Executor::with_cache(
            &plan,
            &self.instance,
            &registry,
            self.engine.exec_options,
            vec![None; plan.nodes().len()],
        )
        .run_shared(plan.roots()[0]);
        t.exit(span);
        self.replay_kernels(t);
        value.map_err(|e| format!("shadow query: {e}"))
    }

    /// The heavy kernel calls a cold evaluation of the workload's query
    /// makes, issued directly against `MatrixStorage`.
    fn replay_kernels(&mut self, t: &mut Tracer) {
        let g = self.instance.matrix(VAR).expect("instance has its matrix");
        let ones = MatrixRepr::<K>::ones_vector(g.rows());
        match self.kernels {
            Kernels::None => {}
            Kernels::Triangles => {
                let gg = t
                    .time("matrix.spmm", || g.matmul(g))
                    .expect("square product");
                let masked = t
                    .time("matrix.hadamard", || gg.hadamard(g))
                    .expect("same shape");
                t.time("matrix.matvec", || masked.matmul(&ones))
                    .expect("conforming");
                let sparse = g.to_sparse();
                let mut row_nnz = vec![0u64; g.rows()];
                for (i, _, _) in sparse.iter_entries() {
                    row_nnz[i] += 1;
                }
                let madds: u64 = sparse.iter_entries().map(|(_, k, _)| row_nnz[k]).sum();
                // Computed, not measured: each operand entry read once per
                // use and each output entry written once, index + value.
                let entry = (std::mem::size_of::<usize>() + std::mem::size_of::<K>()) as u64;
                self.counts.spmm_madds.push(madds as f64);
                self.counts
                    .spmm_bytes
                    .push((entry * (sparse.nnz() as u64 + madds + gg.nnz() as u64)) as f64);
            }
            Kernels::ChainMatvecs => {
                let mut v = ones;
                for _ in 0..4 {
                    v = t
                        .time("matrix.matvec", || g.matmul(&v))
                        .expect("conforming");
                }
            }
        }
    }

    fn update(&mut self, t: &mut Tracer, i: usize, j: usize) -> Result<(), String> {
        let matrix = self
            .instance
            .matrix_mut(VAR)
            .expect("instance has its matrix");
        t.time("matrix.set_entry", || matrix.set_entry(i, j, K::one()))
            .map_err(|e| format!("shadow set_entry: {e}"))?;
        let n = self.instance.matrix(VAR).expect("present").rows();
        match (self.delta, &self.plan) {
            (Delta::Applied, Some(plan)) => {
                let update = SparseMatrix::from_triplets(n, n, vec![(i, j, K::one())])
                    .map_err(|e| format!("shadow update: {e}"))?;
                t.time("engine.delta", || {
                    propagate(plan, &mut self.cache, &mut self.overlay, VAR, &update)
                });
            }
            // Non-idempotent ⊕: the store invalidates everything that reads
            // the variable, which here is every node.
            _ => {
                self.cache.iter_mut().for_each(|slot| *slot = None);
                self.overlay.reset(self.cache.len());
            }
        }
        if let Some((wal, snap_path)) = &mut self.wal {
            let record = WalRecord {
                seq: wal.last_seq + 1,
                var: VAR.to_string(),
                entries: vec![(i as u64, j as u64, 1.0)],
            };
            t.time("persist.wal_append", || wal.append(&record))
                .map_err(|e| format!("shadow wal append: {e}"))?;
            if wal.bytes > WAL_COMPACT {
                let span = t.enter("persist.snapshot_write");
                let mut payload = Vec::new();
                self.instance
                    .matrix(VAR)
                    .expect("present")
                    .encode_matrix(&mut payload);
                let snapshot = Snapshot {
                    semiring: "shadow".to_string(),
                    backend: "adaptive".to_string(),
                    covered_seq: wal.last_seq,
                    dims: vec![(SYM.to_string(), n as u64)],
                    vars: vec![(VAR.to_string(), payload)],
                };
                let written = snapshot.write_atomic(snap_path);
                let truncated = wal.truncate();
                t.exit(span);
                written.map_err(|e| format!("shadow snapshot: {e}"))?;
                truncated.map_err(|e| format!("shadow truncate: {e}"))?;
            }
        }
        Ok(())
    }
}

struct PhaseB {
    spans: Vec<Span>,
    prepare_us: Vec<f64>,
    entries_per_op: f64,
    /// The reply to the last request that had one, for the shadow to match.
    last_result: Option<WireResult>,
}

/// Replays the operations against the server's own `Store`, in-process:
/// `Request::parse`, the store call, `write_result` into memory and
/// `read_result` back out of it, one span each.
fn phase_b(
    w: &Workload,
    seed: u64,
    work_dir: &Path,
    problems: &mut Problems,
) -> Result<PhaseB, String> {
    let oneshot = w.oneshot_texts();
    let rig = round::spawn_server(w, &work_dir.join("b"))?;
    let mut client = Client::connect(rig.handle.addr()).map_err(|e| format!("connect: {e}"))?;
    round::load_instance(&mut client, w, seed).map_err(|e| format!("replay set-up: {e}"))?;
    drop(client);
    let store: &Store = rig.handle.store();
    let mut prepare_us = Vec::new();
    for text in w.prepared {
        let start = Instant::now();
        store
            .prepare(INSTANCE, text)
            .map_err(|e| format!("replay prepare: {e}"))?;
        prepare_us.push(start.elapsed().as_nanos() as f64 / 1e3);
    }
    // Warm the store the way phase A's first probe warmed the server.
    for qid in 0..w.prepared.len() {
        store
            .exec(INSTANCE, &[qid])
            .map_err(|e| format!("replay warm-up: {e}"))?;
    }
    for text in &oneshot {
        store
            .query(INSTANCE, text)
            .map_err(|e| format!("replay warm-up: {e}"))?;
    }

    let mut tracer = Tracer::new();
    let mut ops = w.ops(seed);
    let mut reqs = Vec::new();
    let mut encoded = Vec::new();
    let mut decoded_entries = 0usize;
    let mut last_result = None;
    for op in 0..w.traced_ops {
        ops.next_op(&mut reqs);
        tracer.set_request(op as u64 + 1);
        let root = tracer.enter("request");
        let outcome = reqs.iter().try_for_each(|&req| -> Result<(), String> {
            let line = request_line(req, &oneshot);
            let request = tracer
                .time("protocol.parse", || Request::parse(&line))
                .map_err(|e| format!("parse `{line}`: {e}"))?;
            let result = match request {
                Request::Exec { instance, qid } => tracer
                    .time("store.exec", || store.exec(&instance, &[qid]))
                    .map_err(|e| e.to_string())?
                    .remove(0),
                Request::Query { instance, text } => tracer
                    .time("store.query", || store.query(&instance, &text))
                    .map_err(|e| e.to_string())?,
                Request::Update {
                    instance,
                    var,
                    entries,
                } => {
                    return tracer
                        .time("store.update", || store.update(&instance, &var, &entries))
                        .map(|_| ())
                        .map_err(|e| e.to_string());
                }
                other => return Err(format!("unexpected request {other:?}")),
            };
            encoded.clear();
            tracer
                .time("protocol.encode", || write_result(&mut encoded, &result))
                .map_err(|e| e.to_string())?;
            let split = encoded.iter().position(|&b| b == b'\n').unwrap_or(0);
            let header = std::str::from_utf8(&encoded[..split]).map_err(|e| e.to_string())?;
            let decoded = tracer.time("client.decode", || {
                read_result(header, &mut &encoded[split + 1..])
            })?;
            decoded_entries += decoded.entries.len();
            last_result = Some(result);
            Ok(())
        });
        tracer.exit(root);
        problems.check(&format!("replayed op {}", op + 1), outcome);
    }
    rig.shut_down();
    Ok(PhaseB {
        spans: tracer.spans().to_vec(),
        prepare_us,
        entries_per_op: decoded_entries as f64 / w.traced_ops as f64,
        last_result,
    })
}

/// Replays the operations against the shadow, in a pass of its own: run
/// interleaved with the store, the two evict each other's matrices from the
/// CPU cache and the second to run reads ≈ 25 % slow.
fn phase_c<K: BenchRing>(
    w: &Workload,
    seed: u64,
    work_dir: &Path,
    store_last: Option<&WireResult>,
    problems: &mut Problems,
) -> Result<(Vec<Span>, ShadowCounts), String> {
    let oneshot = w.oneshot_texts();
    let mut shadow = Shadow::<K>::new(w, seed, &work_dir.join("shadow"))?;
    let mut tracer = Tracer::new();
    for qid in 0..w.prepared.len() {
        shadow.exec(&mut tracer, qid)?;
    }
    for text in &oneshot {
        shadow.query(&mut tracer, text, true)?;
    }
    let warm_spans = tracer.spans().len();
    shadow.counts.spmm_madds.clear();
    shadow.counts.spmm_bytes.clear();

    let mut ops = w.ops(seed);
    let mut reqs = Vec::new();
    let mut last_value = None;
    for op in 0..w.traced_ops {
        ops.next_op(&mut reqs);
        tracer.set_request(op as u64 + 1);
        let root = tracer.enter("request");
        let outcome = reqs.iter().try_for_each(|&req| -> Result<(), String> {
            match req {
                Req::Exec(qid) => last_value = Some(shadow.exec(&mut tracer, qid)?),
                Req::Query(idx) => {
                    last_value = Some(shadow.query(&mut tracer, &oneshot[idx], false)?)
                }
                Req::Update(i, j) => shadow.update(&mut tracer, i, j)?,
            }
            Ok(())
        });
        tracer.exit(root);
        problems.check(&format!("shadow op {}", op + 1), outcome);
    }
    // The shadow is only a fair stand-in if it computed what the store did.
    if let (Some(reply), Some(value)) = (store_last, &last_value) {
        problems.check("shadow against store", oracle::matches(reply, value));
    }
    Ok((tracer.spans_from(warm_spans), shadow.counts))
}

// ---------------------------------------------------------------------------
// Putting the numbers together.
// ---------------------------------------------------------------------------

/// A sample of the server's exposition: an un-labelled value by name, or a
/// histogram's p50 line.
fn scraped(text: &str, name: &str) -> f64 {
    parse_metrics_map(text).get(name).copied().unwrap_or(0.0)
}

fn scraped_p50(text: &str, histogram: &str) -> f64 {
    let prefix = format!("{histogram}{{quantile=\"0.5\"}} ");
    text.lines()
        .find_map(|line| line.strip_prefix(&prefix)?.trim().parse().ok())
        .unwrap_or(0.0)
}

/// Runs the traced run of `w` and returns `{layers, lat_p50_us, attempted,
/// failed, problems}`.  `reference_p50_us` is the untraced round's latency the
/// tracing overhead is measured against; `host` was calibrated in a process
/// of its own, because its 32 MB copies would retune this one's allocator.
pub fn run<K: BenchRing>(
    w: &Workload,
    seed: u64,
    reference_p50_us: f64,
    host: Host,
    work_dir: &Path,
    trace_path: &Path,
) -> Result<Json, String> {
    let mut problems = Problems::default();
    let a = phase_a(w, seed, work_dir, &mut problems)?;
    let b = phase_b(w, seed, work_dir, &mut problems)?;
    let (shadow_spans, shadow) =
        phase_c::<K>(w, seed, work_dir, b.last_result.as_ref(), &mut problems)?;

    // Oracle: first and last reply of the TCP phase, and the recovered state.
    let texts = round::probe_texts(w, &w.oneshot_texts());
    let mut local = oracle::build_instance::<K>(w, seed);
    let evaluate_start = Instant::now();
    for text in &texts {
        let _ = std::hint::black_box(oracle::eval(&local, text));
    }
    let evaluate_us = evaluate_start.elapsed().as_nanos() as f64 / 1e3;
    round::verify_probe(&mut problems, "first reply", &texts, &a.first, &local);
    for &(i, j) in &a.acked {
        oracle::apply_update(&mut local, i, j);
    }
    round::verify_probe(&mut problems, "last reply", &texts, &a.last, &local);
    if let Some((_, _, replies)) = &a.recover {
        round::verify_probe(&mut problems, "recovered reply", &texts, replies, &local);
    }
    // The server's own account of the connection must equal ours.
    if (a.session_requests, a.session_bytes_out) != (a.requests, a.bytes_in) {
        problems.add(format!(
            "session accounting: server saw {} requests / {} bytes out, client sent {} / received {}",
            a.session_requests, a.session_bytes_out, a.requests, a.bytes_in
        ));
    }

    let mut replay = per_request_us(&b.spans);
    replay.extend(per_request_us(&shadow_spans));
    // p50 per operation of a span name; operations without it do not count,
    // a name never seen reads 0.
    let p50 = |table: &BTreeMap<&'static str, Vec<f64>>, name: &str| {
        table.get(name).map_or(0.0, |v| median(v))
    };
    let tcp_timed = per_request_us(&a.spans);
    let requests_per_op = w.requests_per_op() as f64;
    let lat = sorted(&a.lat_us);
    let traced_p50 = percentile(&lat, 50.0);
    let entries = b.entries_per_op.max(1.0);
    let updates = a.counts.updates.max(1) as f64;
    let store_total =
        p50(&replay, "store.exec") + p50(&replay, "store.update") + p50(&replay, "store.query");
    let kernels = p50(&replay, "matrix.spmm")
        + p50(&replay, "matrix.hadamard")
        + p50(&replay, "matrix.matvec");
    let spmm_us = p50(&replay, "matrix.spmm");
    let per_spmm = |values: &[f64]| {
        if spmm_us > 0.0 {
            median(values) / spmm_us
        } else {
            0.0
        }
    };
    let disk_bytes = (a.counts.wal_appended + a.counts.snapshot_rewritten) as f64;
    let delta = |name: &str| scraped(&a.metrics_after, name) - scraped(&a.metrics_before, name);
    let plan_lookups = delta("plan_cache_hits_total") + delta("plan_cache_misses_total");

    let value = |name: &str| -> f64 {
        match name {
            "host.tcp_rtt_us" => host.tcp_rtt_us,
            "host.fsync_us" => host.fsync_us,
            "host.memcpy_gb_s" => host.memcpy_gb_s,
            "host.nproc" => host.nproc as f64,
            "client.send_us" => p50(&tcp_timed, "client.send"),
            "client.wait_us" => p50(&tcp_timed, "client.wait"),
            "client.decode_us" => p50(&replay, "client.decode"),
            "client.decode_ns_per_entry" => p50(&replay, "client.decode") * 1e3 / entries,
            "client.reply_bytes" => a.bytes_in as f64,
            "client.lat_p90_us" => percentile(&lat, 90.0),
            "client.lat_p99_us" => percentile(&lat, 99.0),
            "client.lat_max_us" => lat.last().copied().unwrap_or(0.0),
            "protocol.parse_us" => p50(&replay, "protocol.parse"),
            "protocol.encode_us" => p50(&replay, "protocol.encode"),
            "protocol.encode_ns_per_entry" => p50(&replay, "protocol.encode") * 1e3 / entries,
            // What an operation spent that neither the socket floor (which
            // already holds one send and one receive per request) nor a
            // layer below accounts for: dispatch, buffered I/O, the trace
            // guard, extra syscalls, and any stall between the two ends.
            "session.unaccounted_us" => {
                traced_p50
                    - requests_per_op * host.tcp_rtt_us
                    - p50(&replay, "protocol.parse")
                    - store_total
                    - p50(&replay, "protocol.encode")
                    - p50(&replay, "client.decode")
            }
            "session.requests" => a.session_requests as f64,
            "session.bytes_out" => a.session_bytes_out as f64,
            "store.exec_us" => p50(&replay, "store.exec"),
            "store.update_us" => p50(&replay, "store.update"),
            "store.query_us" => p50(&replay, "store.query"),
            "store.prepare_us" if b.prepare_us.is_empty() => 0.0,
            "store.prepare_us" => median(&b.prepare_us),
            "store.exec_self_us" if p50(&replay, "store.exec") == 0.0 => 0.0,
            "store.exec_self_us" => {
                p50(&replay, "store.exec")
                    - p50(&replay, "engine.exec")
                    - p50(&replay, "engine.flush")
            }
            "store.cache_hit_ratio" => {
                let lookups = (a.counts.hits + a.counts.misses) as f64;
                if lookups > 0.0 {
                    a.counts.hits as f64 / lookups
                } else {
                    0.0
                }
            }
            "store.delta_applied_ratio" => a.counts.applied as f64 / updates,
            "store.invalidated_per_update" => a.counts.invalidated as f64 / updates,
            "store.replans" => delta("replan_total"),
            "store.plan_cache_hit_ratio" if plan_lookups == 0.0 => 0.0,
            "store.plan_cache_hit_ratio" => delta("plan_cache_hits_total") / plan_lookups,
            "store.instance_bytes" => scraped(&a.metrics_after, "instance_bytes"),
            "store.overlay_bytes" => scraped(&a.metrics_after, "overlay_bytes"),
            "parser.parse_us" => p50(&replay, "parser.parse"),
            "core.typecheck_us" => p50(&replay, "core.typecheck"),
            "core.evaluate_us" => evaluate_us,
            "engine.rewrite_us" => p50(&replay, "engine.rewrite"),
            "engine.plan_us" => p50(&replay, "engine.plan"),
            "engine.exec_us" => p50(&replay, "engine.exec"),
            "engine.exec_self_us" if kernels == 0.0 => 0.0,
            "engine.exec_self_us" => p50(&replay, "engine.exec") - kernels,
            "engine.delta_us" => p50(&replay, "engine.delta"),
            "engine.flush_us" => p50(&replay, "engine.flush"),
            "engine.plan_nodes" => shadow.plan_nodes as f64,
            "engine.rewrites_applied" => shadow.rewrites_applied as f64,
            "engine.delta_patched_nodes" => a.counts.patched as f64 / updates,
            "matrix.spmm_us" => spmm_us,
            "matrix.spmm_madds" if shadow.spmm_madds.is_empty() => 0.0,
            "matrix.spmm_madds" => median(&shadow.spmm_madds),
            "matrix.spmm_mmadd_s" => per_spmm(&shadow.spmm_madds),
            "matrix.spmm_gb_s" => per_spmm(&shadow.spmm_bytes) / 1e3,
            "matrix.hadamard_us" => p50(&replay, "matrix.hadamard"),
            "matrix.matvec_us" => p50(&replay, "matrix.matvec"),
            "matrix.set_entry_us" => p50(&replay, "matrix.set_entry"),
            "matrix.kernel_sparse_us_server" => delta("kernel_sparse_matmul_us_sum"),
            "persist.wal_append_us" => p50(&replay, "persist.wal_append"),
            "persist.wal_bytes_per_update" => a.counts.wal_frame_bytes as f64,
            "persist.compactions" => a.counts.compactions as f64,
            "persist.snapshot_bytes" => a.counts.snapshot_bytes as f64,
            "persist.snapshot_write_us" => p50(&replay, "persist.snapshot_write"),
            "persist.recover_open_us" => a.recover.as_ref().map_or(0.0, |r| r.1),
            "persist.replayed_records" => a.counts.wal_records as f64,
            // Bytes written to disk per byte of update payload (one
            // `(row, col, value)` triple of 8-byte fields).
            "persist.write_amp" => disk_bytes / (24.0 * updates),
            "persist.recover_ms" => a.recover.as_ref().map_or(0.0, |r| r.0),
            "persist.disk_bytes_per_op" => disk_bytes / w.traced_ops as f64,
            "obs.exec_latency_p50_us" => scraped_p50(&a.metrics_after, "exec_latency_us"),
            "obs.update_latency_p50_us" => scraped_p50(&a.metrics_after, "update_latency_us"),
            "obs.requests_total" => delta("requests_total"),
            "trace.overhead_ratio" if reference_p50_us > 0.0 => traced_p50 / reference_p50_us - 1.0,
            "trace.overhead_ratio" => 0.0,
            "trace.spans" => (a.spans.len() + b.spans.len() + shadow_spans.len()) as f64,
            other => unreachable!("per-layer metric `{other}` has no source"),
        }
    };
    let layers = Json::obj(PER_LAYER.iter().map(|m| (m.name, Json::Num(value(m.name)))));

    if let Some(parent) = trace_path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("create {}: {e}", parent.display()))?;
    }
    std::fs::write(
        trace_path,
        chrome_trace(&[
            ("tcp", &a.spans),
            ("replay", &b.spans),
            ("shadow", &shadow_spans),
        ]),
    )
    .map_err(|e| format!("write {}: {e}", trace_path.display()))?;

    let attempted = 3 * w.traced_ops as u64;
    Ok(Json::obj([
        ("workload", Json::Str(w.name.to_string())),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(problems.count.min(attempted) as f64)),
        ("lat_p50_us", Json::Num(traced_p50)),
        ("layers", layers),
        (
            "problems",
            Json::Arr(problems.messages.into_iter().map(Json::Str).collect()),
        ),
    ]))
}
