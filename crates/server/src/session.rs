//! Per-connection command loop.
//!
//! One worker thread runs one connection's entire session: read a request
//! line, execute it against the shared [`Store`], write the reply, flush.
//! Protocol errors (`ERR <CODE> …`) never tear the connection down — only
//! `QUIT`, EOF or an I/O failure do.

use crate::error::ServerError;
use crate::protocol::{
    bounded_line, read_entry, slowlog_lines, write_err, write_response, Entry, LineRead, Reply,
    Request, Response, ServerHello,
};
use crate::store::Store;
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
                write_response(&mut writer, Ok(Reply::Bye.into()))?;
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

/// Answers one request.
fn dispatch(
    store: &Store,
    request: Request,
    reader: &mut BufReader<TcpStream>,
    writer: &mut impl Write,
) -> std::io::Result<()> {
    let response = match request {
        Request::Hello => Ok(Reply::Hello(ServerHello::ours()).into()),
        Request::Instance { name, semiring } => store
            .create_instance_with(&name, true, semiring)
            .map(|()| Reply::Instance(name, semiring).into()),
        Request::Dim {
            instance,
            sym,
            value,
        } => store
            .set_dim(&instance, &sym, value)
            .map(|()| Reply::Dim(sym, value).into()),
        Request::Load {
            instance,
            var,
            rows,
            cols,
            nnz,
        } => read_load_body(reader, nnz)?
            .and_then(|entries| store.load_matrix(&instance, &var, rows, cols, entries))
            .map(|nnz| Reply::Load(var, nnz).into()),
        Request::Gen {
            instance,
            var,
            sym,
            kind,
        } => store
            .generate_matrix(&instance, &var, &sym, kind)
            .map(|nnz| Reply::Gen(var, nnz).into()),
        Request::Prepare { instance, text } => store
            .prepare(&instance, &text)
            .map(|outcome| Reply::Prepared(outcome).into()),
        Request::Exec { instance, qid } => store
            .exec_shared(&instance, &[qid])
            .map(|mut results| Response::Result(results.remove(0))),
        Request::ExecBatch { instance, qids } => {
            store.exec_shared(&instance, &qids).map(Response::Batch)
        }
        Request::Query { instance, text } => {
            store.query_shared(&instance, &text).map(Response::Result)
        }
        Request::Update {
            instance,
            var,
            entries,
        } => store
            .update(&instance, &var, &entries)
            .map(|reply| Reply::Update(var, reply).into()),
        Request::List => Ok(Reply::Instances(store.list_detailed()).into()),
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
            Ok(Response::Lines("METRICS", lines))
        }
        Request::Stats { instance } => store
            .stats(&instance)
            .map(|lines| Response::Lines("STATS", lines)),
        Request::Slowlog { n } => {
            let entries = matlang_obs::trace::slow_queries(n.unwrap_or(16));
            Ok(Response::Lines("SLOWLOG", slowlog_lines(entries)))
        }
        Request::Explain { instance, text } => store
            .explain(&instance, &text)
            .map(|lines| Response::Lines("EXPLAIN", lines)),
        Request::Profile { instance, text } => store
            .profile(&instance, &text)
            .map(|lines| Response::Lines("PROFILE", lines)),
        Request::Drop { instance } => store
            .drop_instance(&instance)
            .map(|()| Reply::Dropped(instance).into()),
        Request::Health => Ok(Reply::Health(store.health()).into()),
        Request::Top { n } => Ok(Response::Lines("TOP", store.top(n))),
        Request::TraceExport { n } => {
            let traces = matlang_obs::trace::recent(n.unwrap_or(32));
            let lines = matlang_obs::export::render_chrome_trace(&traces)
                .lines()
                .map(String::from)
                .collect();
            Ok(Response::Lines("TRACE", lines))
        }
        Request::Save { instance, path } => store
            .save(&instance, path.as_deref().map(std::path::Path::new))
            .map(|(bytes, path)| Reply::Saved(instance, bytes, path.display().to_string()).into()),
        Request::Restore { instance, path } => store
            .restore(&instance, std::path::Path::new(&path))
            .map(|(dims, vars)| Reply::Restored(instance, dims, vars).into()),
        Request::Persist { instance, on } => store
            .set_persist(&instance, on)
            .map(|on| Reply::Persist(instance, on).into()),
        Request::Walstat { instance } => store
            .walstat(&instance)
            .map(|stat| Reply::Walstat(instance, stat).into()),
        Request::Ping => Ok(Reply::Pong.into()),
        Request::Quit => unreachable!("handled by the session loop"),
    };
    write_response(writer, response)
}

/// Reads the `nnz` entry lines of a `LOAD`.  They belong to the request
/// even if it fails late, so every one is consumed before the first error
/// is reported, which keeps the session in step with the client.
fn read_load_body(
    reader: &mut BufReader<TcpStream>,
    nnz: usize,
) -> std::io::Result<Result<Vec<Entry>, ServerError>> {
    // `nnz` is an untrusted wire value: clamp the pre-allocation so a
    // hostile header cannot force a huge up-front allocation (the vector
    // still grows to the real entry count).
    let mut entries = Vec::with_capacity(nnz.min(1 << 16));
    let mut error = None;
    for _ in 0..nnz {
        let entry = read_entry(reader, |line, _| {
            ServerError::protocol(format!("malformed entry `{}`", line.trim()))
        })?;
        match entry {
            LineRead::Line(Ok(entry)) => entries.push(entry),
            LineRead::Line(Err(e)) => {
                error.get_or_insert(e);
            }
            LineRead::TooLong => {
                error.get_or_insert(ServerError::LineTooLong);
            }
            LineRead::Eof => return Ok(Err(ServerError::protocol("connection closed mid-LOAD"))),
        }
    }
    Ok(error.map_or(Ok(entries), Err))
}
