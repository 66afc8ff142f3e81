//! A minimal blocking client for the wire protocol.
//!
//! Used by the integration tests, matbench and the `server_demo`
//! example; handy for embedding too.  Every method maps
//! one-to-one onto a protocol command and returns a typed [`ClientError`]
//! for `ERR` replies, so callers can branch on [`ErrorCode`] instead of
//! string-matching messages.  Replies are read with the parsers of
//! [`crate::protocol`], the module that also renders them.

use crate::error::ErrorCode;
use crate::protocol::{
    bounded_line, parse_err, parse_metrics_map, parse_slowlog, read_batch, read_lines_block,
    read_result, EntryEncoder, InstanceEntry, LineRead, Reply, SemiringKind, ServerHello,
    SlowlogEntry, UpdateReply, WalStat, WireResult,
};
use crate::session::SOCKET_BUFFER_BYTES;
use matlang_matrix::{Matrix, MatrixStorage};
use matlang_semiring::Real;
use std::fmt;
use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// Sends a request and takes the fields of the one reply it expects; any
/// other reply is [`ErrorCode::Malformed`].
macro_rules! expect_reply {
    ($client:expr, $request:expr, $pattern:pat => $out:expr) => {{
        let line = $client.send(&$request)?;
        match Reply::parse(&line) {
            Ok($pattern) => Ok($out),
            _ => Err(ClientError::malformed(format!("unexpected reply `{line}`"))),
        }
    }};
}

/// A failed request: the stable category plus the server's (or the local
/// I/O layer's) human-readable message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClientError {
    /// The stable error category to branch on.
    pub code: ErrorCode,
    /// The human-readable message (free to be reworded server-side).
    pub message: String,
}

impl ClientError {
    fn io(e: impl fmt::Display) -> ClientError {
        ClientError {
            code: ErrorCode::Io,
            message: e.to_string(),
        }
    }

    fn malformed(message: impl Into<String>) -> ClientError {
        ClientError {
            code: ErrorCode::Malformed,
            message: message.into(),
        }
    }
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for ClientError {}

/// A blocking protocol client over one TCP connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    /// Connects to a running server.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        // Same reasoning as the server side (`serve_connection`): a `LOAD`
        // body spans several buffer flushes and must not wait out the
        // peer's delayed ACK.
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::with_capacity(SOCKET_BUFFER_BYTES, stream.try_clone()?),
            writer: BufWriter::with_capacity(SOCKET_BUFFER_BYTES, stream),
        })
    }

    fn send(&mut self, line: &str) -> Result<String, ClientError> {
        writeln!(self.writer, "{line}").map_err(ClientError::io)?;
        self.writer.flush().map_err(ClientError::io)?;
        self.read_reply()
    }

    fn read_reply(&mut self) -> Result<String, ClientError> {
        let reply = match bounded_line(&mut self.reader, |line| line.trim_end().to_string()) {
            Ok(LineRead::Line(reply)) => reply,
            Ok(LineRead::Eof) => return Err(ClientError::io("connection closed")),
            Ok(LineRead::TooLong) => {
                return Err(ClientError::malformed(
                    crate::ServerError::LineTooLong.to_string(),
                ))
            }
            Err(e) => return Err(ClientError::io(e)),
        };
        match parse_err(&reply) {
            Some((code, message)) => Err(ClientError {
                code,
                message: message.to_string(),
            }),
            None => Ok(reply),
        }
    }

    /// Sends a request answered by a `RESULT` block.
    fn result(&mut self, request: &str) -> Result<WireResult, ClientError> {
        let header = self.send(request)?;
        read_result(&header, &mut self.reader).map_err(ClientError::malformed)
    }

    /// Sends a request answered by a line-counted block tagged `tag`;
    /// returns its payload lines.
    fn block(&mut self, request: &str, tag: &str) -> Result<Vec<String>, ClientError> {
        let header = self.send(request)?;
        read_lines_block(&header, tag, &mut self.reader).map_err(ClientError::malformed)
    }

    /// `HELLO`; returns the server's protocol banner.
    pub fn hello(&mut self) -> Result<ServerHello, ClientError> {
        expect_reply!(self, "HELLO", Reply::Hello(hello) => hello)
    }

    /// `INSTANCE <name> <backend>` over the default semiring (ℝ).
    pub fn create_instance(&mut self, name: &str, adaptive: bool) -> Result<(), ClientError> {
        self.create_instance_with(name, adaptive, SemiringKind::Real)
    }

    /// `INSTANCE <name> <backend> <semiring>`.  `adaptive = false` sends
    /// the `dense` backend word, which the server accepts as an alias:
    /// both create the same adaptive instance.
    pub fn create_instance_with(
        &mut self,
        name: &str,
        adaptive: bool,
        semiring: SemiringKind,
    ) -> Result<(), ClientError> {
        let backend = if adaptive { "adaptive" } else { "dense" };
        self.send(&format!("INSTANCE {name} {backend} {}", semiring.name()))
            .map(|_| ())
    }

    /// `DIM <instance> <sym> <n>`.
    pub fn set_dim(&mut self, instance: &str, sym: &str, value: usize) -> Result<(), ClientError> {
        self.send(&format!("DIM {instance} {sym} {value}"))
            .map(|_| ())
    }

    /// `LOAD` from explicit entries.
    pub fn load(
        &mut self,
        instance: &str,
        var: &str,
        rows: usize,
        cols: usize,
        entries: &[(usize, usize, f64)],
    ) -> Result<(), ClientError> {
        writeln!(
            self.writer,
            "LOAD {instance} {var} {rows} {cols} {}",
            entries.len()
        )
        .map_err(ClientError::io)?;
        let mut body = EntryEncoder::new(&mut self.writer);
        for &(i, j, v) in entries {
            body.push(i, j, v);
        }
        body.finish().map_err(ClientError::io)?;
        self.writer.flush().map_err(ClientError::io)?;
        self.read_reply().map(|_| ())
    }

    /// `LOAD` from a dense matrix (ships its non-zero entries).
    pub fn load_matrix(
        &mut self,
        instance: &str,
        var: &str,
        matrix: &Matrix<Real>,
    ) -> Result<(), ClientError> {
        let entries: Vec<(usize, usize, f64)> = matrix
            .nonzero_entries()
            .into_iter()
            .map(|(i, j, v)| (i, j, v.0))
            .collect();
        self.load(instance, var, matrix.rows(), matrix.cols(), &entries)
    }

    /// `GEN … er …`; returns the generated non-zero count.
    pub fn gen_erdos_renyi(
        &mut self,
        instance: &str,
        var: &str,
        sym: &str,
        avg_degree: f64,
        seed: u64,
    ) -> Result<usize, ClientError> {
        let request = format!("GEN {instance} {var} {sym} er {avg_degree} {seed}");
        expect_reply!(self, request, Reply::Gen(_, nnz) => nnz)
    }

    /// `PREPARE`; returns the query id.
    pub fn prepare(&mut self, instance: &str, text: &str) -> Result<usize, ClientError> {
        let request = format!("PREPARE {instance} {text}");
        expect_reply!(self, request, Reply::Prepared(outcome) => outcome.qid)
    }

    /// `EXEC`; returns the result block.
    pub fn exec(&mut self, instance: &str, qid: usize) -> Result<WireResult, ClientError> {
        self.result(&format!("EXEC {instance} {qid}"))
    }

    /// `EXECBATCH`; returns one result block per query id.
    pub fn exec_batch(
        &mut self,
        instance: &str,
        qids: &[usize],
    ) -> Result<Vec<WireResult>, ClientError> {
        let qid_list = qids
            .iter()
            .map(|q| q.to_string())
            .collect::<Vec<_>>()
            .join(" ");
        let header = self.send(&format!("EXECBATCH {instance} {qid_list}"))?;
        read_batch(&header, &mut self.reader).map_err(ClientError::malformed)
    }

    /// `QUERY` (one-shot, unprepared); returns the result block.
    pub fn query(&mut self, instance: &str, text: &str) -> Result<WireResult, ClientError> {
        self.result(&format!("QUERY {instance} {text}"))
    }

    /// `UPDATE`; returns how many entries applied and how the server
    /// maintained its memo cache (delta propagation or invalidation).
    pub fn update(
        &mut self,
        instance: &str,
        var: &str,
        entries: &[(usize, usize, f64)],
    ) -> Result<UpdateReply, ClientError> {
        let triples = entries
            .iter()
            .map(|(i, j, v)| format!("{i} {j} {v}"))
            .collect::<Vec<_>>()
            .join(" ");
        let request = format!("UPDATE {instance} {var} {triples}");
        expect_reply!(self, request, Reply::Update(_, reply) => reply)
    }

    /// `LIST`; returns the instance names.
    pub fn list(&mut self) -> Result<Vec<String>, ClientError> {
        Ok(self
            .list_detailed()?
            .into_iter()
            .map(|entry| entry.name)
            .collect())
    }

    /// `LIST`; returns one [`InstanceEntry`] per instance with its
    /// backend, semiring and cumulative delta-maintenance counters.
    pub fn list_detailed(&mut self) -> Result<Vec<InstanceEntry>, ClientError> {
        expect_reply!(self, "LIST", Reply::Instances(entries) => entries)
    }

    /// `METRICS`; returns the server's Prometheus text exposition.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        Ok(self.block("METRICS", "METRICS")?.join("\n"))
    }

    /// `METRICS`, parsed: every un-labeled counter/gauge sample
    /// (`name value` lines without `{…}` labels) as a name → value map,
    /// so callers assert on typed numbers instead of string-grepping the
    /// exposition text.  Histogram quantile lines (labeled) are skipped.
    pub fn metrics_map(&mut self) -> Result<std::collections::BTreeMap<String, f64>, ClientError> {
        let text = self.metrics()?;
        Ok(parse_metrics_map(&text))
    }

    /// `METRICS WINDOW <secs>`; returns the windowed exposition (counter
    /// deltas and rates, histogram quantiles over roughly the last `secs`
    /// seconds of scrape-to-scrape snapshots).
    pub fn metrics_window(&mut self, secs: u64) -> Result<String, ClientError> {
        Ok(self
            .block(&format!("METRICS WINDOW {secs}"), "METRICS")?
            .join("\n"))
    }

    /// `STATS <instance>`; returns the per-instance planned-vs-current
    /// report (per-variable planned/current nnz, drift against the
    /// plan-time snapshot, re-plan counter).
    pub fn stats(&mut self, instance: &str) -> Result<Vec<String>, ClientError> {
        self.block(&format!("STATS {instance}"), "STATS")
    }

    /// `SLOWLOG [n]`; returns the most recent slow queries (newest first)
    /// with their captured forensics.
    pub fn slowlog(&mut self, n: Option<usize>) -> Result<Vec<SlowlogEntry>, ClientError> {
        let lines = self.block(&with_count("SLOWLOG", n), "SLOWLOG")?;
        parse_slowlog(lines).map_err(ClientError::malformed)
    }

    /// `EXPLAIN <instance> <query>`; returns the rewritten-plan rendering
    /// (one line per DAG node with cost estimates) without executing.
    pub fn explain(&mut self, instance: &str, text: &str) -> Result<Vec<String>, ClientError> {
        self.block(&format!("EXPLAIN {instance} {text}"), "EXPLAIN")
    }

    /// `PROFILE <instance> <query>`; executes once and returns the
    /// per-node wall-time/shape/nnz rendering.
    pub fn profile(&mut self, instance: &str, text: &str) -> Result<Vec<String>, ClientError> {
        self.block(&format!("PROFILE {instance} {text}"), "PROFILE")
    }

    /// `HEALTH`; returns the one-line readiness payload
    /// (`status=… bytes=… budget=… …`).
    pub fn health(&mut self) -> Result<String, ClientError> {
        expect_reply!(self, "HEALTH", Reply::Health(report) => report.render())
    }

    /// `TOP [n]`; returns one line per instance, ranked by accounted
    /// bytes, with the byte breakdown and cache-residency columns.
    pub fn top(&mut self, n: Option<usize>) -> Result<Vec<String>, ClientError> {
        self.block(&with_count("TOP", n), "TOP")
    }

    /// `TRACE EXPORT [n]`; returns the newest `n` finished traces
    /// (default 32) as a Chrome trace-event JSON document, loadable in
    /// `chrome://tracing` or Perfetto.
    pub fn trace_export(&mut self, n: Option<usize>) -> Result<String, ClientError> {
        let lines = self.block(&with_count("TRACE EXPORT", n), "TRACE")?;
        Ok(lines.join("\n") + "\n")
    }

    /// `DROP <instance>`.
    pub fn drop_instance(&mut self, instance: &str) -> Result<(), ClientError> {
        self.send(&format!("DROP {instance}")).map(|_| ())
    }

    /// `SAVE <instance> [path]` — snapshot the instance to its data-dir
    /// slot (no path) or export it to an explicit file.  Returns the
    /// snapshot size in bytes.
    pub fn save(&mut self, instance: &str, path: Option<&str>) -> Result<u64, ClientError> {
        let request = match path {
            Some(p) => format!("SAVE {instance} {p}"),
            None => format!("SAVE {instance}"),
        };
        expect_reply!(self, request, Reply::Saved(_, bytes, _) => bytes)
    }

    /// `RESTORE <instance> <path>` — create a fresh instance from a
    /// snapshot file.  Returns `(dims, vars)` restored.
    pub fn restore(&mut self, instance: &str, path: &str) -> Result<(usize, usize), ClientError> {
        let request = format!("RESTORE {instance} {path}");
        expect_reply!(self, request, Reply::Restored(_, dims, vars) => (dims, vars))
    }

    /// `PERSIST <instance> on|off` — toggle durability for an instance.
    pub fn set_persist(&mut self, instance: &str, on: bool) -> Result<(), ClientError> {
        let flag = if on { "on" } else { "off" };
        self.send(&format!("PERSIST {instance} {flag}")).map(|_| ())
    }

    /// `WALSTAT <instance>` — durability counters for an instance.
    pub fn walstat(&mut self, instance: &str) -> Result<WalStat, ClientError> {
        let request = format!("WALSTAT {instance}");
        expect_reply!(self, request, Reply::Walstat(_, stat) => stat)
    }

    /// `PING`.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.send("PING").map(|_| ())
    }

    /// `QUIT` (the server closes the connection after acknowledging).
    pub fn quit(mut self) -> Result<(), ClientError> {
        self.send("QUIT").map(|_| ())
    }
}

/// `request`, followed by ` <n>` when a count is given.
fn with_count(request: &str, n: Option<usize>) -> String {
    match n {
        Some(n) => format!("{request} {n}"),
        None => request.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::parse_metrics_map;

    #[test]
    fn metrics_map_tolerates_hostile_exposition() {
        // Hand-crafted payload with every way a scrape line can go wrong:
        // comments, labels, NaN/Inf (which f64::parse accepts!), missing
        // values, non-numeric values, blank lines and leading whitespace.
        let text = "\
# HELP exec_total statements executed\n\
# TYPE exec_total counter\n\
exec_total 42\n\
exec_latency_us{quantile=\"0.99\"} 1234\n\
instance_bytes{name=\"g\"} 512\n\
broken_nan NaN\n\
broken_inf +Inf\n\
broken_neg_inf -Inf\n\
dangling_name\n\
not_a_number twelve\n\
\n\
   # indented comment\n\
instance_bytes 512\n\
trailing_tokens 7 extra garbage\n";
        let map = parse_metrics_map(text);
        assert_eq!(map.get("exec_total"), Some(&42.0));
        assert_eq!(map.get("instance_bytes"), Some(&512.0));
        // Prometheus exposition ignores anything past the value token.
        assert_eq!(map.get("trailing_tokens"), Some(&7.0));
        // Everything hostile is skipped, never an error or a NaN entry.
        assert!(!map.contains_key("broken_nan"));
        assert!(!map.contains_key("broken_inf"));
        assert!(!map.contains_key("broken_neg_inf"));
        assert!(!map.contains_key("dangling_name"));
        assert!(!map.contains_key("not_a_number"));
        assert!(map.keys().all(|k| !k.contains('{')));
        assert!(map.values().all(|v| v.is_finite()));
        assert_eq!(map.len(), 3);
    }
}
