//! Per-connection command loop.
//!
//! One worker thread runs one connection's entire session: read a request
//! line, execute it against the shared [`Store`], write the reply, flush.
//! Protocol errors (`ERR <CODE> …`) never tear the connection down — only
//! `QUIT`, EOF or an I/O failure do.

use crate::error::ServerError;
use crate::protocol::{
    bounded_line, read_entry, write_err, write_lines_block, write_shared_result, LineRead, Request,
    CAPABILITIES, PROTOCOL_VERSION,
};
use crate::store::{DeltaDisposition, Store, BACKEND};
use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Per-connection accounting, shared between the serving worker and the
/// session registry (so `HEALTH`-era introspection and tests can read a
/// live session's figures without touching its socket).  All fields are
/// relaxed atomics: single writer, any reader.
#[derive(Debug, Default)]
pub struct SessionStats {
    /// Requests served, including ones answered with `ERR`.
    pub requests: AtomicU64,
    /// Bytes written back to the client.
    pub bytes_out: AtomicU64,
    /// Cumulative wall time spent in statement execution
    /// (`EXEC`/`EXECBATCH`/`QUERY`), microseconds.
    pub exec_time_us: AtomicU64,
}

/// `BufReader`/`BufWriter` capacity on both ends of a connection, sized
/// for a reply rather than a request line: an 0.8 MB `RESULT` block is
/// ≈ 13 socket writes and reads instead of the ≈ 100 of the 8 KiB default,
/// each of which wakes the peer.
pub(crate) const SOCKET_BUFFER_BYTES: usize = 64 * 1024;

/// A `Write` passthrough to the session socket that adds every written
/// byte to the session's [`SessionStats`].  Sits *inside* the
/// `BufWriter`, so it pays one increment per flushed buffer, not per
/// `write!`.
struct CountingStream {
    inner: TcpStream,
    stats: Arc<SessionStats>,
}

impl Write for CountingStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let written = self.inner.write(buf)?;
        self.stats
            .bytes_out
            .fetch_add(written as u64, Ordering::Relaxed);
        Ok(written)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// Whether a request kind gets a per-query trace: the verbs that parse,
/// plan or execute (the spans the engine emits hang off this root).
fn traced(request: &Request) -> bool {
    matches!(
        request,
        Request::Prepare { .. }
            | Request::Exec { .. }
            | Request::ExecBatch { .. }
            | Request::Query { .. }
            | Request::Update { .. }
            | Request::Profile { .. }
    )
}

/// Whether a request executes statements — the kinds whose dispatch time
/// accrues into [`SessionStats::exec_time_us`].
fn executes(request: &Request) -> bool {
    matches!(
        request,
        Request::Exec { .. } | Request::ExecBatch { .. } | Request::Query { .. }
    )
}

/// Serves one connection until `QUIT`, EOF or an I/O error.
pub fn serve_connection(
    store: &Store,
    stream: TcpStream,
    stats: Arc<SessionStats>,
) -> std::io::Result<()> {
    matlang_obs::counter!("connections_total").inc();
    // A reply larger than the `BufWriter` goes out in several segments;
    // with Nagle on, the last partial one waits for the peer's delayed ACK
    // (≈ 40 ms).  Every reply ends in exactly one explicit flush, so there
    // are no small writes for Nagle to coalesce.
    stream.set_nodelay(true)?;
    let mut reader = BufReader::with_capacity(SOCKET_BUFFER_BYTES, stream.try_clone()?);
    let mut writer = BufWriter::with_capacity(
        SOCKET_BUFFER_BYTES,
        CountingStream {
            inner: stream,
            stats: Arc::clone(&stats),
        },
    );
    let mut line = String::new();
    loop {
        line.clear();
        let request = match bounded_line(&mut reader, |text| line.push_str(text.trim()))? {
            LineRead::Eof => return Ok(()), // client hung up
            LineRead::Line(()) if line.is_empty() => continue,
            LineRead::Line(()) => Request::parse(&line).map_err(ServerError::protocol),
            LineRead::TooLong => Err(ServerError::LineTooLong),
        };
        matlang_obs::counter!("requests_total").inc();
        stats.requests.fetch_add(1, Ordering::Relaxed);
        match request {
            Err(error) => write_err(&mut writer, &error)?,
            Ok(Request::Quit) => {
                writeln!(writer, "OK bye")?;
                writer.flush()?;
                return Ok(());
            }
            Ok(request) => {
                // One trace per query-ish request, labeled with the wire
                // line; the guard stays alive across the dispatch so the
                // parse/plan/execute spans attach to it, and its id is
                // echoed on RESULT headers as `trace=`.
                let _trace = (traced(&request) && matlang_obs::enabled()).then(|| {
                    matlang_obs::trace::begin_with_slow_ms(
                        matlang_obs::trace::next_id(),
                        &line,
                        store.config().slow_ms(),
                    )
                });
                let timer = executes(&request).then(std::time::Instant::now);
                dispatch(store, request, &mut reader, &mut writer)?;
                if let Some(t) = timer {
                    stats
                        .exec_time_us
                        .fetch_add(t.elapsed().as_micros() as u64, Ordering::Relaxed);
                }
            }
        }
        writer.flush()?;
    }
}

fn dispatch(
    store: &Store,
    request: Request,
    reader: &mut BufReader<TcpStream>,
    writer: &mut impl Write,
) -> std::io::Result<()> {
    match request {
        Request::Hello => writeln!(
            writer,
            "OK matlangd proto={PROTOCOL_VERSION} caps={}",
            CAPABILITIES.join(",")
        ),
        Request::Instance { name, semiring } => {
            match store.create_instance_with(&name, true, semiring) {
                Ok(()) => writeln!(writer, "OK instance {name} {BACKEND} {}", semiring.name()),
                Err(e) => write_err(writer, &e),
            }
        }
        Request::Dim {
            instance,
            sym,
            value,
        } => match store.set_dim(&instance, &sym, value) {
            Ok(()) => writeln!(writer, "OK dim {sym} {value}"),
            Err(e) => write_err(writer, &e),
        },
        Request::Load {
            instance,
            var,
            rows,
            cols,
            nnz,
        } => {
            // The entry lines belong to this request even if it fails
            // late: consume all of them first so the protocol stays in
            // sync, then apply.
            // `nnz` is an untrusted wire value: clamp the pre-allocation
            // so a hostile header cannot force a huge up-front allocation
            // (the vector still grows to the real entry count).
            let mut entries = Vec::with_capacity(nnz.min(1 << 16));
            let mut parse_error = None;
            for _ in 0..nnz {
                let entry = read_entry(reader, |line, _| {
                    ServerError::protocol(format!("malformed entry `{}`", line.trim()))
                })?;
                match entry {
                    LineRead::Line(Ok(entry)) => entries.push(entry),
                    LineRead::Line(Err(error)) => {
                        parse_error.get_or_insert(error);
                    }
                    LineRead::TooLong => {
                        parse_error.get_or_insert(ServerError::LineTooLong);
                    }
                    LineRead::Eof => {
                        return write_err(
                            writer,
                            &ServerError::protocol("connection closed mid-LOAD"),
                        )
                    }
                }
            }
            if let Some(error) = parse_error {
                return write_err(writer, &error);
            }
            match store.load_matrix(&instance, &var, rows, cols, entries) {
                Ok(stored) => writeln!(writer, "OK load {var} nnz={stored}"),
                Err(e) => write_err(writer, &e),
            }
        }
        Request::Gen {
            instance,
            var,
            sym,
            kind,
        } => match store.generate_matrix(&instance, &var, &sym, kind) {
            Ok(nnz) => writeln!(writer, "OK gen {var} nnz={nnz}"),
            Err(e) => write_err(writer, &e),
        },
        Request::Prepare { instance, text } => match store.prepare(&instance, &text) {
            Ok(outcome) => writeln!(
                writer,
                "OK prepared {} plan={} statement={} nodes={} fp={:016x}",
                outcome.qid,
                if outcome.reused_plan {
                    "cached"
                } else {
                    "built"
                },
                if outcome.reused_statement {
                    "reused"
                } else {
                    "new"
                },
                outcome.plan_nodes,
                outcome.plan_fingerprint,
            ),
            Err(e) => write_err(writer, &e),
        },
        Request::Exec { instance, qid } => match store.exec_shared(&instance, &[qid]) {
            Ok(results) => write_shared_result(writer, &results[0]),
            Err(e) => write_err(writer, &e),
        },
        Request::ExecBatch { instance, qids } => match store.exec_shared(&instance, &qids) {
            Ok(results) => {
                writeln!(writer, "BATCH {}", results.len())?;
                for result in &results {
                    write_shared_result(writer, result)?;
                }
                Ok(())
            }
            Err(e) => write_err(writer, &e),
        },
        Request::Query { instance, text } => match store.query_shared(&instance, &text) {
            Ok(result) => write_shared_result(writer, &result),
            Err(e) => write_err(writer, &e),
        },
        Request::Update {
            instance,
            var,
            entries,
        } => match store.update(&instance, &var, &entries) {
            Ok(outcome) => {
                // Proto-2 appends how the cache was maintained; the
                // proto-1 prefix is unchanged.
                write!(
                    writer,
                    "OK update {var} entries={} invalidated={}",
                    outcome.applied, outcome.invalidated
                )?;
                match outcome.delta {
                    DeltaDisposition::Applied { patched } => {
                        writeln!(writer, " delta=applied patched={patched}")
                    }
                    DeltaDisposition::Fallback { reason } => {
                        writeln!(writer, " delta=fallback reason={}", reason.code())
                    }
                }
            }
            Err(e) => write_err(writer, &e),
        },
        Request::List => {
            // Proto 2 describes each instance as colon-separated fields;
            // clients parse from the right so names survive unchanged.
            let fields: Vec<String> = store
                .list_detailed()
                .iter()
                .map(|info| {
                    format!(
                        "{}:{}:{}:{}:{}",
                        info.name,
                        info.backend,
                        info.semiring,
                        info.delta_patches,
                        info.delta_fallbacks
                    )
                })
                .collect();
            writeln!(writer, "OK instances {}", fields.join(" "))
        }
        Request::Metrics { window } => {
            // Every METRICS request also records a registry snapshot into
            // the window ring, so windowed baselines accrue from scrape
            // traffic alone — no background thread.
            let lines = match window {
                None => {
                    matlang_obs::metrics::record_snapshot();
                    matlang_obs::registry().render_lines()
                }
                Some(secs) => matlang_obs::metrics::render_window_lines(secs),
            };
            write_lines_block(writer, "METRICS", &lines)
        }
        Request::Stats { instance } => match store.stats(&instance) {
            Ok(lines) => write_lines_block(writer, "STATS", &lines),
            Err(e) => write_err(writer, &e),
        },
        Request::Slowlog { n } => {
            let entries = matlang_obs::trace::slow_queries(n.unwrap_or(16));
            let mut lines = Vec::new();
            for slow in &entries {
                lines.push(format!(
                    "ENTRY trace={:016x} total_us={} detail={} {}",
                    slow.trace_id,
                    slow.total_us,
                    slow.detail.len(),
                    slow.label
                ));
                lines.extend(slow.detail.iter().cloned());
            }
            write_lines_block(writer, "SLOWLOG", &lines)
        }
        Request::Explain { instance, text } => match store.explain(&instance, &text) {
            Ok(lines) => write_lines_block(writer, "EXPLAIN", &lines),
            Err(e) => write_err(writer, &e),
        },
        Request::Profile { instance, text } => match store.profile(&instance, &text) {
            Ok(lines) => write_lines_block(writer, "PROFILE", &lines),
            Err(e) => write_err(writer, &e),
        },
        Request::Drop { instance } => match store.drop_instance(&instance) {
            Ok(()) => writeln!(writer, "OK dropped {instance}"),
            Err(e) => write_err(writer, &e),
        },
        Request::Health => writeln!(writer, "OK health {}", store.health().render()),
        Request::Top { n } => write_lines_block(writer, "TOP", &store.top(n)),
        Request::TraceExport { n } => {
            let traces = matlang_obs::trace::recent(n.unwrap_or(32));
            let lines: Vec<String> = matlang_obs::export::render_chrome_trace(&traces)
                .lines()
                .map(String::from)
                .collect();
            write_lines_block(writer, "TRACE", &lines)
        }
        Request::Save { instance, path } => {
            match store.save(&instance, path.as_deref().map(std::path::Path::new)) {
                Ok((bytes, path)) => writeln!(
                    writer,
                    "OK saved {instance} bytes={bytes} path={}",
                    path.display()
                ),
                Err(e) => write_err(writer, &e),
            }
        }
        Request::Restore { instance, path } => {
            match store.restore(&instance, std::path::Path::new(&path)) {
                Ok((dims, vars)) => {
                    writeln!(writer, "OK restored {instance} dims={dims} vars={vars}")
                }
                Err(e) => write_err(writer, &e),
            }
        }
        Request::Persist { instance, on } => match store.set_persist(&instance, on) {
            Ok(on) => writeln!(
                writer,
                "OK persist {instance} {}",
                if on { "on" } else { "off" }
            ),
            Err(e) => write_err(writer, &e),
        },
        Request::Walstat { instance } => match store.walstat(&instance) {
            Ok(stat) => writeln!(writer, "OK walstat {instance} {}", stat.render()),
            Err(e) => write_err(writer, &e),
        },
        Request::Ping => writeln!(writer, "OK pong"),
        Request::Quit => unreachable!("handled by the session loop"),
    }
}
