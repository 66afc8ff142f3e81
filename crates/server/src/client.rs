//! A minimal blocking client for the wire protocol.
//!
//! Used by the integration tests, matbench and the `server_demo`
//! example; handy for embedding too.  Every method maps
//! one-to-one onto a protocol command and returns a typed [`ClientError`]
//! for `ERR` replies, so callers can branch on [`ErrorCode`] instead of
//! string-matching messages.

use crate::protocol::{
    bounded_line, read_lines_block, read_result, EntryEncoder, LineRead, SemiringKind, WireResult,
};
use crate::session::SOCKET_BUFFER_BYTES;
use matlang_matrix::{Matrix, MatrixStorage};
use matlang_semiring::Real;
use std::fmt;
use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// The stable error category of a failed request — the client-side twin of
/// [`crate::ServerError::code`], plus the client-local failure modes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// `EEXISTS` — the instance name is already taken.
    InstanceExists,
    /// `ENOINST` — no such instance.
    UnknownInstance,
    /// `ENOVAR` — no such matrix variable.
    UnknownVariable,
    /// `ENOQUERY` — no such prepared query id.
    UnknownQueryId,
    /// `ENOPREP` — `EXEC` before any `PREPARE`.
    NoPreparedQueries,
    /// `EPARSE` — the query text failed to parse.
    Parse,
    /// `ETYPE` — the query text failed to type-check.
    Type,
    /// `EEVAL` — evaluation failed at runtime.
    Eval,
    /// `ESTORE` — a storage-layer operation failed.
    Storage,
    /// `EPROTO` — the request was malformed or out of protocol.
    Protocol,
    /// `ETOOBIG` — a line was longer than the server buffers.
    TooBig,
    /// A local I/O failure — the socket, not the server, failed.
    Io,
    /// The server's reply did not match the protocol grammar.
    Malformed,
    /// An `ERR` code this client version does not know (a newer server).
    Unknown,
}

impl ErrorCode {
    /// Maps a wire code token to its category, if this client knows it.
    pub fn from_wire(code: &str) -> Option<ErrorCode> {
        match code {
            "EEXISTS" => Some(ErrorCode::InstanceExists),
            "ENOINST" => Some(ErrorCode::UnknownInstance),
            "ENOVAR" => Some(ErrorCode::UnknownVariable),
            "ENOQUERY" => Some(ErrorCode::UnknownQueryId),
            "ENOPREP" => Some(ErrorCode::NoPreparedQueries),
            "EPARSE" => Some(ErrorCode::Parse),
            "ETYPE" => Some(ErrorCode::Type),
            "EEVAL" => Some(ErrorCode::Eval),
            "ESTORE" => Some(ErrorCode::Storage),
            "EPROTO" => Some(ErrorCode::Protocol),
            "ETOOBIG" => Some(ErrorCode::TooBig),
            _ => None,
        }
    }
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

/// The server's `HELLO` banner: protocol revision and capability tokens.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServerHello {
    /// The protocol revision the server speaks.
    pub proto: u32,
    /// The announced capability tokens (`delta`, `errcodes`, …).
    pub caps: Vec<String>,
}

impl ServerHello {
    /// Whether the server announced a capability token.
    pub fn has_capability(&self, cap: &str) -> bool {
        self.caps.iter().any(|c| c == cap)
    }
}

/// How the server maintained its memo cache on an `UPDATE`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeltaWire {
    /// The update was propagated exactly, patching `patched` cached nodes.
    Applied {
        /// Cached nodes patched.
        patched: u64,
    },
    /// The update fell back to invalidation; `reason` is the stable
    /// fallback code (`non-idempotent-semiring`, `not-insert-only`, …).
    Fallback {
        /// The stable fallback-reason code.
        reason: String,
    },
    /// The server predates the delta tokens (proto 1).
    Unreported,
}

/// The parsed reply to an `UPDATE`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UpdateReply {
    /// Entries applied to the instance matrix.
    pub applied: usize,
    /// Cached plan nodes dropped (0 on a fully patched delta pass).
    pub invalidated: u64,
    /// How the cache was maintained.
    pub delta: DeltaWire,
}

/// One instance row of a detailed `LIST` reply (proto 2 `obs`):
/// `name:backend:semiring:delta_patches:delta_fallbacks`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InstanceEntry {
    /// The instance name.
    pub name: String,
    /// Storage backend (`dense` / `adaptive`).
    pub backend: String,
    /// Semiring wire name (`real` / `bool` / `nat` / `minplus`).
    pub semiring: String,
    /// Cumulative cached nodes patched by delta propagation.
    pub delta_patches: u64,
    /// Cumulative `UPDATE`s that fell back to invalidation.
    pub delta_fallbacks: u64,
}

/// One slow-query record from a `SLOWLOG` reply: the trace id, label and
/// wall time of the offending request, plus the forensic detail lines
/// (rewritten plan + per-node observations) captured when it crossed the
/// slow threshold.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SlowlogEntry {
    /// The observability trace id of the slow request.
    pub trace_id: u64,
    /// The request line, as labeled in the trace ring.
    pub label: String,
    /// Total wall time of the request, microseconds.
    pub total_us: u64,
    /// Captured forensics: the rewritten-DAG explain plus per-node
    /// observed shapes/nnz/hits (empty if the detail ring had evicted it).
    pub detail: Vec<String>,
}

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
        match reply.strip_prefix("ERR ") {
            Some(rest) => {
                // `ERR <CODE> <message>`; a code this client version does
                // not know (or a pre-errcodes server) degrades to
                // `Unknown` with the full text preserved.
                let mut parts = rest.splitn(2, ' ');
                let first = parts.next().unwrap_or("");
                Err(match (ErrorCode::from_wire(first), parts.next()) {
                    (Some(code), Some(message)) => ClientError {
                        code,
                        message: message.to_string(),
                    },
                    _ => ClientError {
                        code: ErrorCode::Unknown,
                        message: rest.to_string(),
                    },
                })
            }
            None => Ok(reply),
        }
    }

    /// `HELLO`; returns the server's protocol banner.
    pub fn hello(&mut self) -> Result<ServerHello, ClientError> {
        let reply = self.send("HELLO")?;
        let proto = parse_kv(&reply, "proto")?;
        let caps = reply
            .split_whitespace()
            .find_map(|token| token.strip_prefix("caps="))
            .map(|list| list.split(',').map(str::to_string).collect())
            .unwrap_or_default();
        Ok(ServerHello { proto, caps })
    }

    /// `INSTANCE <name> <backend>` over the default semiring (ℝ).
    pub fn create_instance(&mut self, name: &str, adaptive: bool) -> Result<(), ClientError> {
        self.create_instance_with(name, adaptive, SemiringKind::Real)
    }

    /// `INSTANCE <name> <backend> <semiring>`.
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
        let reply = self.send(&format!(
            "GEN {instance} {var} {sym} er {avg_degree} {seed}"
        ))?;
        parse_kv(&reply, "nnz")
    }

    /// `PREPARE`; returns the query id.
    pub fn prepare(&mut self, instance: &str, text: &str) -> Result<usize, ClientError> {
        let reply = self.send(&format!("PREPARE {instance} {text}"))?;
        reply
            .split_whitespace()
            .nth(2)
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| ClientError::malformed(format!("malformed PREPARE reply `{reply}`")))
    }

    /// `EXEC`; returns the result block.
    pub fn exec(&mut self, instance: &str, qid: usize) -> Result<WireResult, ClientError> {
        let header = self.send(&format!("EXEC {instance} {qid}"))?;
        read_result(&header, &mut self.reader).map_err(ClientError::malformed)
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
        let count: usize = header
            .strip_prefix("BATCH ")
            .and_then(|t| t.trim().parse().ok())
            .ok_or_else(|| {
                ClientError::malformed(format!("malformed EXECBATCH reply `{header}`"))
            })?;
        let mut results = Vec::with_capacity(count);
        for _ in 0..count {
            let header = self.read_reply()?;
            results.push(read_result(&header, &mut self.reader).map_err(ClientError::malformed)?);
        }
        Ok(results)
    }

    /// `QUERY` (one-shot, unprepared); returns the result block.
    pub fn query(&mut self, instance: &str, text: &str) -> Result<WireResult, ClientError> {
        let header = self.send(&format!("QUERY {instance} {text}"))?;
        read_result(&header, &mut self.reader).map_err(ClientError::malformed)
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
        let reply = self.send(&format!("UPDATE {instance} {var} {triples}"))?;
        let delta = if reply.split_whitespace().any(|t| t == "delta=applied") {
            DeltaWire::Applied {
                patched: parse_kv(&reply, "patched")?,
            }
        } else if reply.split_whitespace().any(|t| t == "delta=fallback") {
            DeltaWire::Fallback {
                reason: parse_kv(&reply, "reason")?,
            }
        } else {
            DeltaWire::Unreported
        };
        Ok(UpdateReply {
            applied: parse_kv(&reply, "entries")?,
            invalidated: parse_kv(&reply, "invalidated")?,
            delta,
        })
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
        let reply = self.send("LIST")?;
        reply
            .split_whitespace()
            .skip(2)
            .map(|field| {
                // Parse the colon-separated fields from the right, so an
                // instance name containing `:` survives intact.
                let mut parts = field.rsplitn(5, ':');
                let parsed = (|| {
                    let delta_fallbacks = parts.next()?.parse().ok()?;
                    let delta_patches = parts.next()?.parse().ok()?;
                    let semiring = parts.next()?.to_string();
                    let backend = parts.next()?.to_string();
                    let name = parts.next()?.to_string();
                    Some(InstanceEntry {
                        name,
                        backend,
                        semiring,
                        delta_patches,
                        delta_fallbacks,
                    })
                })();
                parsed.ok_or_else(|| {
                    ClientError::malformed(format!("malformed LIST field `{field}`"))
                })
            })
            .collect()
    }

    /// `METRICS`; returns the server's Prometheus text exposition.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        let header = self.send("METRICS")?;
        read_lines_block(&header, "METRICS", &mut self.reader)
            .map(|lines| lines.join("\n"))
            .map_err(ClientError::malformed)
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
        let header = self.send(&format!("METRICS WINDOW {secs}"))?;
        read_lines_block(&header, "METRICS", &mut self.reader)
            .map(|lines| lines.join("\n"))
            .map_err(ClientError::malformed)
    }

    /// `STATS <instance>`; returns the per-instance observed-vs-estimated
    /// report (per-variable planned/current/observed nnz, drift against
    /// the plan-time snapshot, re-plan counter).
    pub fn stats(&mut self, instance: &str) -> Result<Vec<String>, ClientError> {
        let header = self.send(&format!("STATS {instance}"))?;
        read_lines_block(&header, "STATS", &mut self.reader).map_err(ClientError::malformed)
    }

    /// `SLOWLOG [n]`; returns the most recent slow queries (newest first)
    /// with their captured forensics.
    pub fn slowlog(&mut self, n: Option<usize>) -> Result<Vec<SlowlogEntry>, ClientError> {
        let request = match n {
            Some(n) => format!("SLOWLOG {n}"),
            None => "SLOWLOG".to_string(),
        };
        let header = self.send(&request)?;
        let lines = read_lines_block(&header, "SLOWLOG", &mut self.reader)
            .map_err(ClientError::malformed)?;
        let mut entries = Vec::new();
        let mut iter = lines.into_iter();
        while let Some(line) = iter.next() {
            let Some(rest) = line.strip_prefix("ENTRY ") else {
                return Err(ClientError::malformed(format!(
                    "expected ENTRY line, got `{line}`"
                )));
            };
            let trace_id = rest
                .split_whitespace()
                .find_map(|t| t.strip_prefix("trace="))
                .and_then(|v| u64::from_str_radix(v, 16).ok())
                .ok_or_else(|| ClientError::malformed(format!("missing trace= in `{line}`")))?;
            let total_us = parse_kv(rest, "total_us")?;
            let detail_count: usize = parse_kv(rest, "detail")?;
            // The label is everything after the detail= token.
            let label = rest
                .split_once("detail=")
                .map(|(_, tail)| {
                    tail.split_once(' ')
                        .map(|(_, label)| label.to_string())
                        .unwrap_or_default()
                })
                .unwrap_or_default();
            let detail: Vec<String> = iter.by_ref().take(detail_count).collect();
            if detail.len() != detail_count {
                return Err(ClientError::malformed("truncated SLOWLOG entry detail"));
            }
            entries.push(SlowlogEntry {
                trace_id,
                label,
                total_us,
                detail,
            });
        }
        Ok(entries)
    }

    /// `EXPLAIN <instance> <query>`; returns the rewritten-plan rendering
    /// (one line per DAG node with cost estimates) without executing.
    pub fn explain(&mut self, instance: &str, text: &str) -> Result<Vec<String>, ClientError> {
        let header = self.send(&format!("EXPLAIN {instance} {text}"))?;
        read_lines_block(&header, "EXPLAIN", &mut self.reader).map_err(ClientError::malformed)
    }

    /// `PROFILE <instance> <query>`; executes once and returns the
    /// per-node wall-time/shape/nnz rendering.
    pub fn profile(&mut self, instance: &str, text: &str) -> Result<Vec<String>, ClientError> {
        let header = self.send(&format!("PROFILE {instance} {text}"))?;
        read_lines_block(&header, "PROFILE", &mut self.reader).map_err(ClientError::malformed)
    }

    /// `HEALTH`; returns the one-line readiness payload
    /// (`status=… bytes=… budget=… …`).
    pub fn health(&mut self) -> Result<String, ClientError> {
        let reply = self.send("HEALTH")?;
        reply
            .strip_prefix("OK health ")
            .map(str::to_string)
            .ok_or_else(|| ClientError::malformed(format!("malformed HEALTH reply `{reply}`")))
    }

    /// `TOP [n]`; returns one line per instance, ranked by accounted
    /// bytes, with the byte breakdown and cache-residency columns.
    pub fn top(&mut self, n: Option<usize>) -> Result<Vec<String>, ClientError> {
        let request = match n {
            Some(n) => format!("TOP {n}"),
            None => "TOP".to_string(),
        };
        let header = self.send(&request)?;
        read_lines_block(&header, "TOP", &mut self.reader).map_err(ClientError::malformed)
    }

    /// `TRACE EXPORT [n]`; returns the newest `n` finished traces
    /// (default 32) as a Chrome trace-event JSON document, loadable in
    /// `chrome://tracing` or Perfetto.
    pub fn trace_export(&mut self, n: Option<usize>) -> Result<String, ClientError> {
        let request = match n {
            Some(n) => format!("TRACE EXPORT {n}"),
            None => "TRACE EXPORT".to_string(),
        };
        let header = self.send(&request)?;
        read_lines_block(&header, "TRACE", &mut self.reader)
            .map(|lines| {
                let mut text = lines.join("\n");
                text.push('\n');
                text
            })
            .map_err(ClientError::malformed)
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
        let reply = self.send(&request)?;
        parse_kv(&reply, "bytes")
    }

    /// `RESTORE <instance> <path>` — create a fresh instance from a
    /// snapshot file.  Returns `(dims, vars)` restored.
    pub fn restore(&mut self, instance: &str, path: &str) -> Result<(usize, usize), ClientError> {
        let reply = self.send(&format!("RESTORE {instance} {path}"))?;
        Ok((parse_kv(&reply, "dims")?, parse_kv(&reply, "vars")?))
    }

    /// `PERSIST <instance> on|off` — toggle durability for an instance.
    pub fn set_persist(&mut self, instance: &str, on: bool) -> Result<(), ClientError> {
        let flag = if on { "on" } else { "off" };
        self.send(&format!("PERSIST {instance} {flag}")).map(|_| ())
    }

    /// `WALSTAT <instance>` — durability counters for an instance.
    pub fn walstat(&mut self, instance: &str) -> Result<crate::store::WalStat, ClientError> {
        let reply = self.send(&format!("WALSTAT {instance}"))?;
        let persisted = reply
            .split_whitespace()
            .find_map(|token| token.strip_prefix("persist="))
            .ok_or_else(|| {
                ClientError::malformed(format!("missing persist= in reply `{reply}`"))
            })?
            == "on";
        Ok(crate::store::WalStat {
            persisted,
            seq: parse_kv(&reply, "seq")?,
            records: parse_kv(&reply, "records")?,
            wal_bytes: parse_kv(&reply, "wal_bytes")?,
            snapshot_bytes: parse_kv(&reply, "snapshot_bytes")?,
            compact_threshold: parse_kv(&reply, "compact")?,
        })
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

fn parse_kv<T: std::str::FromStr>(reply: &str, key: &str) -> Result<T, ClientError> {
    reply
        .split_whitespace()
        .find_map(|token| token.strip_prefix(&format!("{key}=")))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| ClientError::malformed(format!("missing {key}= in reply `{reply}`")))
}

/// Parses a Prometheus text exposition into a name → value map of the
/// un-labeled samples.  Deliberately lenient — a scrape should never fail
/// because one line is odd: `#` comments, labeled samples (`{…}` names),
/// lines without a parseable number, and non-finite values (`NaN`,
/// `+Inf`/`-Inf`, which `f64::parse` happily accepts) are all skipped
/// rather than surfaced as errors.
pub fn parse_metrics_map(text: &str) -> std::collections::BTreeMap<String, f64> {
    let mut map = std::collections::BTreeMap::new();
    for line in text.lines() {
        if line.trim_start().starts_with('#') {
            continue;
        }
        let mut tokens = line.split_whitespace();
        if let (Some(name), Some(value)) = (tokens.next(), tokens.next()) {
            if name.contains('{') {
                continue; // labeled sample (histogram quantile, per-instance gauge)
            }
            if let Ok(value) = value.parse::<f64>() {
                if value.is_finite() {
                    map.insert(name.to_string(), value);
                }
            }
        }
    }
    map
}

impl WireResult {
    /// Rebuilds the dense matrix this result denotes.
    pub fn to_dense(&self) -> Matrix<Real> {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for &(i, j, v) in &self.entries {
            out.set(i, j, Real(v)).expect("wire entry in bounds");
        }
        out
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
