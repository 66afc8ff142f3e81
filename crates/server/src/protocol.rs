//! The wire protocol: line-delimited text over TCP.
//!
//! Every request is one line of whitespace-separated tokens (`LOAD` is
//! followed by its entry lines); every response is either a single line or
//! a `RESULT … END` block.  The protocol is deliberately hand-rollable
//! from `netcat`:
//!
//! ```text
//! →  HELLO                           ←  OK matlangd proto=2 caps=delta,errcodes,semirings,execbatch,obs,capacity,persist
//! →  INSTANCE g adaptive bool        ←  OK instance g adaptive bool
//! →  DIM g n 4                       ←  OK dim n 4
//! →  LOAD g G 4 4 3                  ←  (reads 3 entry lines) OK load G nnz=3
//! →  0 1 1
//! →  1 2 1
//! →  2 0 1
//! →  PREPARE g (G * G)              ←  OK prepared 0 plan=built statement=new nodes=2 fp=…
//! →  EXEC g 0                        ←  RESULT 4 4 2 hits=0 misses=2 … delta=0 fallbacks=0 nodes=2 fp=…
//! ←  0 2 1                               (nnz entry lines)
//! ←  END
//! →  UPDATE g G 3 3 1                ←  OK update G entries=1 invalidated=0 delta=applied patched=2
//! ```
//!
//! # Versioning
//!
//! `HELLO` answers with a capability banner (`proto=2
//! caps=delta,errcodes,semirings,execbatch,obs,capacity,persist`) so clients
//! can discover what the server speaks before relying on it.  Proto 2 extends proto 1
//! *additively*: every proto-1 token keeps its position and meaning, new
//! information rides in appended `key=value` tokens (`delta=`,
//! `fallbacks=`, `fp=`, `trace=` in `RESULT` headers;
//! `delta=`/`patched=`/`reason=` in `UPDATE` replies), and the typed
//! [`ResponseHeader`] parser **ignores unknown keys** so the same
//! tolerance carries forward.
//!
//! The `obs` capability adds a family of introspection verbs, each
//! answered with a line-counted block (`<TAG> <n>`, then `n` payload
//! lines, then `END`):
//!
//! ```text
//! →  METRICS                          ←  METRICS <n> … END   (Prometheus text exposition)
//! →  METRICS WINDOW 60                ←  METRICS <n> … END   (windowed deltas/rates/quantiles)
//! →  EXPLAIN g (G * G)                ←  EXPLAIN <n> … END   (rewritten DAG, estimates, eligibility)
//! →  PROFILE g (G * G)                ←  PROFILE <n> … END   (executes once; per-node time/nnz/hits)
//! →  STATS g                          ←  STATS <n> … END     (planned vs. current nnz, drift, re-plans)
//! →  SLOWLOG 10                       ←  SLOWLOG <n> … END   (recent slow queries + captured forensics)
//! →  HEALTH                           ←  OK health status=ok|pressure bytes=… budget=… conns=… …
//! →  TOP 10                           ←  TOP <n> … END       (instances ranked by bytes/exec-time)
//! →  TRACE EXPORT 32                  ←  TRACE <n> … END     (Chrome trace-event JSON array)
//! ```
//!
//! and a `trace=<id>` (hex) token on `RESULT` headers carrying the
//! session-assigned observability trace id of the request.  Error replies
//! are `ERR <CODE> <message>` with a stable code per category
//! ([`crate::ServerError::code`]); the message is guaranteed newline-free
//! (pinned by `tests/single_line_errors.rs`), so it ships verbatim.
//!
//! Numbers use Rust's shortest-round-trip `f64` formatting, so values
//! survive a wire round trip **bit-identically** — the property the
//! integration suite pins against `matlang_core::evaluate`.  Tokens are
//! separated by ASCII white space, and no line may exceed
//! [`MAX_LINE_BYTES`]: a longer one is discarded unread and answered
//! `ERR ETOOBIG`.

use crate::error::{ErrorCode, ServerError};
use matlang_engine::{ExecStats, Plan};
use matlang_matrix::{Matrix, MatrixStorage};
use matlang_semiring::{Real, Semiring};
use std::io::{BufRead, Write};
use std::sync::Arc;

/// The protocol revision announced by `HELLO`.
pub const PROTOCOL_VERSION: u32 = 2;

/// The capability tokens announced by `HELLO`, comma-joined on the wire.
pub const CAPABILITIES: &[&str] = &[
    "delta",
    "errcodes",
    "semirings",
    "execbatch",
    "obs",
    "capacity",
    "persist",
];

/// The semiring an instance computes over, as named on the wire.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SemiringKind {
    /// `real` — the field ℝ over `f64` (the default).
    #[default]
    Real,
    /// `bool` — the Boolean semiring (∨, ∧); idempotent, so insert-only
    /// updates take the exact delta path.
    Boolean,
    /// `nat` — the natural numbers (+, ×).
    Nat,
    /// `minplus` — the tropical min-plus semiring (min, +); idempotent,
    /// so weight-lowering updates take the exact delta path.
    MinPlus,
}

impl SemiringKind {
    /// Parses a wire token (`real`, `bool`, `nat`, `minplus`).
    pub fn parse(token: &str) -> Option<SemiringKind> {
        match token {
            "real" => Some(SemiringKind::Real),
            "bool" => Some(SemiringKind::Boolean),
            "nat" => Some(SemiringKind::Nat),
            "minplus" => Some(SemiringKind::MinPlus),
            _ => None,
        }
    }

    /// The wire token for this semiring.
    pub fn name(&self) -> &'static str {
        match self {
            SemiringKind::Real => "real",
            SemiringKind::Boolean => "bool",
            SemiringKind::Nat => "nat",
            SemiringKind::MinPlus => "minplus",
        }
    }
}

/// A parsed request line.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// `HELLO` — protocol version and capability discovery.
    Hello,
    /// `INSTANCE <name> [adaptive|dense] [real|bool|nat|minplus]` —
    /// create a named instance (semiring defaults to `real`).  Every
    /// instance stores its matrices adaptively (dense or CSR per variable,
    /// by density); `dense` is an accepted alias for `adaptive`, and the
    /// reply names the backend the instance has: `adaptive`.
    Instance {
        name: String,
        semiring: SemiringKind,
    },
    /// `DIM <instance> <sym> <n>` — assign a size symbol.
    Dim {
        instance: String,
        sym: String,
        value: usize,
    },
    /// `LOAD <instance> <var> <rows> <cols> <nnz>` — followed by `nnz`
    /// entry lines `i j value`.
    Load {
        instance: String,
        var: String,
        rows: usize,
        cols: usize,
        nnz: usize,
    },
    /// `GEN <instance> <var> <sym> er <avg_degree> <seed>` or
    /// `GEN <instance> <var> <sym> pl <avg_degree> <alpha> <seed>` —
    /// generate a random sparse graph over the dimension named by `sym`.
    Gen {
        instance: String,
        var: String,
        sym: String,
        kind: GenKind,
    },
    /// `PREPARE <instance> <query text…>` — parse, typecheck, plan.
    Prepare { instance: String, text: String },
    /// `EXEC <instance> <qid>` — run one prepared query.
    Exec { instance: String, qid: usize },
    /// `EXECBATCH <instance> <qid>…` — run several prepared queries.
    ExecBatch { instance: String, qids: Vec<usize> },
    /// `QUERY <instance> <query text…>` — one-shot parse + plan + eval
    /// (no prepared statement, no persistent cache); the baseline a
    /// prepared `EXEC` is measured against.
    Query { instance: String, text: String },
    /// `UPDATE <instance> <var> (<i> <j> <value>)+` — point updates routed
    /// through delta maintenance when exact, cache invalidation otherwise.
    Update {
        instance: String,
        var: String,
        entries: Vec<(usize, usize, f64)>,
    },
    /// `LIST` — instance inventory (name, backend, semiring, cumulative
    /// delta/fallback counters).
    List,
    /// `METRICS [WINDOW <secs>]` — Prometheus-style text exposition of
    /// the process-wide metrics registry; with `WINDOW <secs>`, windowed
    /// counter deltas/rates and histogram quantiles over roughly the last
    /// `secs` seconds instead.
    Metrics { window: Option<u64> },
    /// `STATS <instance>` — per-instance planned vs. current statistics:
    /// per-variable planned/current nnz, drift against the plan-time
    /// snapshot, and the re-plan counter.
    Stats { instance: String },
    /// `SLOWLOG [n]` — the most recent (up to `n`, default 16) queries
    /// that crossed the slow threshold (`MATLANG_SLOW_MS`), each with its
    /// captured plan/profile forensics.
    Slowlog { n: Option<usize> },
    /// `HEALTH` — one-line capacity/readiness summary: accounted bytes vs
    /// the `MATLANG_MEM_BUDGET` soft budget, connection count, slow-query
    /// and delta-fallback rates, and `status=ok|pressure`.
    Health,
    /// `TOP [n]` — the top `n` (default all) instances ranked by accounted
    /// bytes then cumulative `EXEC` time, one line each with the byte
    /// attribution and memo-cache residency columns.
    Top { n: Option<usize> },
    /// `TRACE EXPORT [n]` — the newest `n` (default 32) finished traces
    /// from the trace ring, rendered as a Chrome trace-event JSON array
    /// (`chrome://tracing` / Perfetto).
    TraceExport { n: Option<usize> },
    /// `EXPLAIN <instance> <query text…>` — parse, typecheck and plan the
    /// query (without registering a prepared statement) and render the
    /// rewritten DAG with per-node cost estimates and cache/delta
    /// eligibility.
    Explain { instance: String, text: String },
    /// `PROFILE <instance> <query text…>` — execute the query once and
    /// return a per-node wall-time / nnz / cache-hit breakdown.
    Profile { instance: String, text: String },
    /// `DROP <instance>` — remove an instance.
    Drop { instance: String },
    /// `SAVE <instance> [path]` — write a snapshot now: to the data
    /// directory (compacting a persisted instance's WAL into it), or
    /// exported to an explicit whitespace-free path.
    Save {
        instance: String,
        path: Option<String>,
    },
    /// `RESTORE <instance> <path>` — create a new instance from a
    /// snapshot file (fails if the name is taken; the instance is not
    /// automatically persisted).
    Restore { instance: String, path: String },
    /// `PERSIST <instance> on|off` — enable durability (initial snapshot
    /// plus write-ahead-logged `UPDATE`s) or disable it and remove the
    /// on-disk artifacts.
    Persist { instance: String, on: bool },
    /// `WALSTAT <instance>` — one-line durability figures: persisted
    /// flag, WAL sequence/record/byte counts, snapshot size, compaction
    /// threshold.
    Walstat { instance: String },
    /// `PING` — liveness check.
    Ping,
    /// `QUIT` — close this connection.
    Quit,
}

/// Random-graph generator selection for [`Request::Gen`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum GenKind {
    /// Erdős–Rényi with the given average degree.
    ErdosRenyi { avg_degree: f64, seed: u64 },
    /// Power-law with the given average degree and exponent.
    PowerLaw {
        avg_degree: f64,
        alpha: f64,
        seed: u64,
    },
}

fn parse_num<T: std::str::FromStr>(tok: Option<&str>, what: &str) -> Result<T, String> {
    let tok = tok.ok_or_else(|| format!("expected {what}, got nothing"))?;
    tok.parse::<T>()
        .map_err(|_| format!("expected {what}, got `{tok}`"))
}

impl Request {
    /// Parses one request line (without its trailing newline).
    pub fn parse(line: &str) -> Result<Request, String> {
        let mut tokens = line.split_whitespace();
        let command = tokens.next().ok_or_else(|| "empty command".to_string())?;
        match command.to_ascii_uppercase().as_str() {
            "HELLO" => Ok(Request::Hello),
            "INSTANCE" => {
                let name = parse_num::<String>(tokens.next(), "instance name")?;
                match tokens.next() {
                    None | Some("adaptive" | "dense") => {}
                    Some(other) => {
                        return Err(format!("expected backend dense|adaptive, got `{other}`"))
                    }
                }
                let semiring = match tokens.next() {
                    None => SemiringKind::default(),
                    Some(token) => SemiringKind::parse(token).ok_or_else(|| {
                        format!("expected semiring real|bool|nat|minplus, got `{token}`")
                    })?,
                };
                Ok(Request::Instance { name, semiring })
            }
            "DIM" => Ok(Request::Dim {
                instance: parse_num(tokens.next(), "instance name")?,
                sym: parse_num(tokens.next(), "size symbol")?,
                value: parse_num(tokens.next(), "dimension value")?,
            }),
            "LOAD" => Ok(Request::Load {
                instance: parse_num(tokens.next(), "instance name")?,
                var: parse_num(tokens.next(), "variable name")?,
                rows: parse_num(tokens.next(), "row count")?,
                cols: parse_num(tokens.next(), "column count")?,
                nnz: parse_num(tokens.next(), "entry count")?,
            }),
            "GEN" => {
                let instance = parse_num(tokens.next(), "instance name")?;
                let var = parse_num(tokens.next(), "variable name")?;
                let sym = parse_num(tokens.next(), "size symbol")?;
                let kind = match tokens.next() {
                    Some("er") => GenKind::ErdosRenyi {
                        avg_degree: parse_num(tokens.next(), "average degree")?,
                        seed: parse_num(tokens.next(), "seed")?,
                    },
                    Some("pl") => GenKind::PowerLaw {
                        avg_degree: parse_num(tokens.next(), "average degree")?,
                        alpha: parse_num(tokens.next(), "exponent")?,
                        seed: parse_num(tokens.next(), "seed")?,
                    },
                    other => {
                        return Err(format!(
                            "expected generator er|pl, got `{}`",
                            other.unwrap_or("nothing")
                        ))
                    }
                };
                Ok(Request::Gen {
                    instance,
                    var,
                    sym,
                    kind,
                })
            }
            "PREPARE" | "QUERY" | "EXPLAIN" | "PROFILE" => {
                let instance: String = parse_num(tokens.next(), "instance name")?;
                let text = tokens.collect::<Vec<_>>().join(" ");
                if text.is_empty() {
                    return Err("expected query text, got nothing".to_string());
                }
                match command.to_ascii_uppercase().as_str() {
                    "PREPARE" => Ok(Request::Prepare { instance, text }),
                    "QUERY" => Ok(Request::Query { instance, text }),
                    "EXPLAIN" => Ok(Request::Explain { instance, text }),
                    _ => Ok(Request::Profile { instance, text }),
                }
            }
            "EXEC" => Ok(Request::Exec {
                instance: parse_num(tokens.next(), "instance name")?,
                qid: parse_num(tokens.next(), "query id")?,
            }),
            "EXECBATCH" => {
                let instance: String = parse_num(tokens.next(), "instance name")?;
                let qids: Vec<usize> = tokens
                    .map(|t| {
                        t.parse::<usize>()
                            .map_err(|_| format!("expected query id, got `{t}`"))
                    })
                    .collect::<Result<_, _>>()?;
                if qids.is_empty() {
                    return Err("expected at least one query id, got none".to_string());
                }
                Ok(Request::ExecBatch { instance, qids })
            }
            "UPDATE" => {
                let instance: String = parse_num(tokens.next(), "instance name")?;
                let var: String = parse_num(tokens.next(), "variable name")?;
                let rest: Vec<&str> = tokens.collect();
                // An empty batch is legal (a no-op the store short-circuits);
                // only a *partial* triple is malformed.
                if rest.len() % 3 != 0 {
                    return Err(
                        "expected (row col value) triples, got a partial triple".to_string()
                    );
                }
                let entries = rest
                    .chunks(3)
                    .map(|t| -> Result<_, String> {
                        Ok((
                            parse_num::<usize>(Some(t[0]), "row")?,
                            parse_num::<usize>(Some(t[1]), "column")?,
                            parse_num::<f64>(Some(t[2]), "value")?,
                        ))
                    })
                    .collect::<Result<_, _>>()?;
                Ok(Request::Update {
                    instance,
                    var,
                    entries,
                })
            }
            "LIST" => Ok(Request::List),
            "METRICS" => match tokens.next() {
                None => Ok(Request::Metrics { window: None }),
                Some(token) if token.eq_ignore_ascii_case("WINDOW") => Ok(Request::Metrics {
                    window: Some(parse_num(tokens.next(), "window seconds")?),
                }),
                Some(other) => Err(format!("expected WINDOW <secs>, got `{other}`")),
            },
            "STATS" => Ok(Request::Stats {
                instance: parse_num(tokens.next(), "instance name")?,
            }),
            "SLOWLOG" => Ok(Request::Slowlog {
                n: match tokens.next() {
                    None => None,
                    tok => Some(parse_num(tok, "entry count")?),
                },
            }),
            "HEALTH" => match tokens.next() {
                None => Ok(Request::Health),
                Some(other) => Err(format!("expected end of HEALTH, got `{other}`")),
            },
            "TOP" => Ok(Request::Top {
                n: match tokens.next() {
                    None => None,
                    tok => Some(parse_num(tok, "instance count")?),
                },
            }),
            "TRACE" => match tokens.next() {
                Some(token) if token.eq_ignore_ascii_case("EXPORT") => Ok(Request::TraceExport {
                    n: match tokens.next() {
                        None => None,
                        tok => Some(parse_num(tok, "trace count")?),
                    },
                }),
                other => Err(format!(
                    "expected TRACE EXPORT [n], got `{}`",
                    other.unwrap_or("nothing")
                )),
            },
            "DROP" => Ok(Request::Drop {
                instance: parse_num(tokens.next(), "instance name")?,
            }),
            "SAVE" => Ok(Request::Save {
                instance: parse_num(tokens.next(), "instance name")?,
                path: tokens.next().map(String::from),
            }),
            "RESTORE" => Ok(Request::Restore {
                instance: parse_num(tokens.next(), "instance name")?,
                path: parse_num(tokens.next(), "snapshot path")?,
            }),
            "PERSIST" => Ok(Request::Persist {
                instance: parse_num(tokens.next(), "instance name")?,
                on: match tokens.next() {
                    Some(token) if token.eq_ignore_ascii_case("on") => true,
                    Some(token) if token.eq_ignore_ascii_case("off") => false,
                    other => {
                        return Err(format!(
                            "expected on|off, got `{}`",
                            other.unwrap_or("nothing")
                        ))
                    }
                },
            }),
            "WALSTAT" => Ok(Request::Walstat {
                instance: parse_num(tokens.next(), "instance name")?,
            }),
            "PING" => Ok(Request::Ping),
            "QUIT" => Ok(Request::Quit),
            other => Err(format!("unknown command `{other}`")),
        }
    }
}

/// Executor counters as echoed in a `RESULT` header — the typed wire twin
/// of [`matlang_engine::ExecStats`], plus the server-side delta
/// maintenance counters that the executor itself never sees.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecStatsWire {
    /// Plan nodes answered from the persistent memo cache (`hits=`).
    pub cache_hits: u64,
    /// Plan nodes computed by a kernel (`misses=`).
    pub cache_misses: u64,
    /// Cache entries dropped by invalidation (`invalidations=`).
    pub invalidations: u64,
    /// Products that ran on a fused diagonal-scaling kernel (`fused=`).
    pub fused_products: u64,
    /// Cumulative cached nodes patched by delta propagation on this
    /// instance (`delta=`).
    pub delta_patches: u64,
    /// Cumulative `UPDATE`s that fell back to invalidation on this
    /// instance (`fallbacks=`).
    pub delta_fallbacks: u64,
}

/// A parsed `RESULT` header line — the typed replacement for the stringly
/// `key=value` scan.  [`ResponseHeader::parse`] **ignores unknown keys**
/// and defaults missing ones to zero, so a proto-2 client keeps working
/// against both older and newer servers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResponseHeader {
    /// Result row count.
    pub rows: usize,
    /// Result column count.
    pub cols: usize,
    /// Number of entry lines that follow the header.
    pub nnz: usize,
    /// The typed stat counters.
    pub stats: ExecStatsWire,
    /// DAG node count of the plan the query ran against (`nodes=`).
    pub plan_nodes: usize,
    /// [`matlang_engine::Plan::structure_fingerprint`] of that plan
    /// (`fp=`, hex), identifying the rewrite variant that produced the
    /// result.
    pub fingerprint: u64,
    /// The session-assigned observability trace id for this request
    /// (`trace=`, hex; 0 when tracing was inactive).
    pub trace: u64,
}

impl ResponseHeader {
    /// Parses a `RESULT` header line.  Unknown `key=value` tokens are
    /// ignored; known keys with malformed values are an error.
    pub fn parse(header: &str) -> Result<ResponseHeader, String> {
        let mut tokens = header.split_whitespace();
        if tokens.next() != Some("RESULT") {
            return Err(format!("expected RESULT, got `{header}`"));
        }
        let mut out = ResponseHeader {
            rows: parse_num(tokens.next(), "row count")?,
            cols: parse_num(tokens.next(), "column count")?,
            nnz: parse_num(tokens.next(), "entry count")?,
            ..ResponseHeader::default()
        };
        for token in tokens {
            let Some((key, value)) = token.split_once('=') else {
                return Err(format!("malformed stat token `{token}`"));
            };
            let num = |what: &str| -> Result<u64, String> {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("malformed {what} `{token}`"))
            };
            match key {
                "hits" => out.stats.cache_hits = num("hits")?,
                "misses" => out.stats.cache_misses = num("misses")?,
                "invalidations" => out.stats.invalidations = num("invalidations")?,
                "fused" => out.stats.fused_products = num("fused")?,
                "delta" => out.stats.delta_patches = num("delta")?,
                "fallbacks" => out.stats.delta_fallbacks = num("fallbacks")?,
                "nodes" => out.plan_nodes = num("nodes")? as usize,
                "fp" => {
                    out.fingerprint = u64::from_str_radix(value, 16)
                        .map_err(|_| format!("malformed fingerprint `{token}`"))?;
                }
                "trace" => {
                    out.trace = u64::from_str_radix(value, 16)
                        .map_err(|_| format!("malformed trace id `{token}`"))?;
                }
                _ => {} // future keys: tolerated by design
            }
        }
        Ok(out)
    }

    /// The result this header announces, given its entry lines.
    fn with_entries(self, entries: Vec<Entry>) -> WireResult {
        WireResult {
            rows: self.rows,
            cols: self.cols,
            entries,
            stats: self.stats,
            plan_nodes: self.plan_nodes,
            fingerprint: self.fingerprint,
            trace: self.trace,
        }
    }

    fn write(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(
            out,
            "RESULT {} {} {} hits={} misses={} invalidations={} fused={} delta={} \
             fallbacks={} nodes={} fp={:016x} trace={:016x}",
            self.rows,
            self.cols,
            self.nnz,
            self.stats.cache_hits,
            self.stats.cache_misses,
            self.stats.invalidations,
            self.stats.fused_products,
            self.stats.delta_patches,
            self.stats.delta_fallbacks,
            self.plan_nodes,
            self.fingerprint,
            self.trace,
        )
    }
}

/// The result of executing one query, as shipped over the wire.
#[derive(Clone, Debug, PartialEq)]
pub struct WireResult {
    /// Result row count.
    pub rows: usize,
    /// Result column count.
    pub cols: usize,
    /// The non-zero entries `(row, col, value)` in row-major order.
    pub entries: Vec<(usize, usize, f64)>,
    /// Typed stat counters for this request.
    pub stats: ExecStatsWire,
    /// DAG node count of the plan the query ran against — the denominator
    /// for cache-hit-ratio assertions.
    pub plan_nodes: usize,
    /// Structure fingerprint of that plan (0 when unreported).
    pub fingerprint: u64,
    /// Observability trace id of the request that produced this result
    /// (0 when tracing was inactive).
    pub trace: u64,
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

    /// The header line this result serializes under.
    pub fn header(&self) -> ResponseHeader {
        ResponseHeader {
            rows: self.rows,
            cols: self.cols,
            nnz: self.entries.len(),
            stats: self.stats,
            plan_nodes: self.plan_nodes,
            fingerprint: self.fingerprint,
            trace: self.trace,
        }
    }
}

/// A result matrix as the wire sees it, whatever storage and semiring it
/// was computed in.
trait WireMatrix: Send + Sync {
    fn shape(&self) -> (usize, usize);
    /// The exact number of entries [`for_each`](Self::for_each) visits.
    fn nnz(&self) -> usize;
    /// Visits the non-zero entries in row-major order.
    fn for_each(&self, f: &mut dyn FnMut(usize, usize, f64));
}

impl<M: MatrixStorage> WireMatrix for M {
    fn shape(&self) -> (usize, usize) {
        MatrixStorage::shape(self)
    }

    fn nnz(&self) -> usize {
        MatrixStorage::nnz(self)
    }

    fn for_each(&self, f: &mut dyn FnMut(usize, usize, f64)) {
        self.for_each_nonzero(|i, j, v| f(i, j, v.to_f64()));
    }
}

/// The result of executing one query, still in the (shared, immutable)
/// matrix the executor returned — usually the memo cache's own copy.
/// [`write_shared_result`] streams it to a socket; [`to_wire`](Self::to_wire)
/// collects it into a [`WireResult`].  Holding one does not hold the
/// instance lock.
pub struct SharedResult {
    matrix: Arc<dyn WireMatrix>,
    stats: ExecStatsWire,
    plan_nodes: usize,
    fingerprint: u64,
    trace: u64,
}

impl SharedResult {
    /// Wraps a result of `plan` with the counters its header carries: the
    /// executor's `stats`, the instance's cumulative `(delta patches,
    /// delta fallbacks)`, and the current trace id.
    pub fn new<M: MatrixStorage>(
        matrix: Arc<M>,
        stats: ExecStats,
        (delta_patches, delta_fallbacks): (u64, u64),
        plan: &Plan,
    ) -> SharedResult {
        let stats = ExecStatsWire {
            cache_hits: stats.cache_hits,
            cache_misses: stats.cache_misses,
            invalidations: stats.invalidations,
            fused_products: stats.fused_products,
            delta_patches,
            delta_fallbacks,
        };
        SharedResult {
            matrix,
            stats,
            plan_nodes: plan.nodes().len(),
            fingerprint: plan.structure_fingerprint(),
            trace: matlang_obs::trace::current_id(),
        }
    }

    /// The header line this result serializes under (counts the non-zero
    /// entries: a pass over the matrix when it is dense).
    pub fn header(&self) -> ResponseHeader {
        let (rows, cols) = self.matrix.shape();
        ResponseHeader {
            rows,
            cols,
            nnz: self.matrix.nnz(),
            stats: self.stats,
            plan_nodes: self.plan_nodes,
            fingerprint: self.fingerprint,
            trace: self.trace,
        }
    }

    /// Collects the entries into the owned wire form.
    pub fn to_wire(&self) -> WireResult {
        let header = self.header();
        let mut entries = Vec::with_capacity(header.nnz);
        self.matrix.for_each(&mut |i, j, v| entries.push((i, j, v)));
        header.with_entries(entries)
    }
}

impl std::fmt::Debug for SharedResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("SharedResult").field(&self.header()).finish()
    }
}

/// Collapses a message to a single protocol-safe line.  The workspace
/// error types are already newline-free (pinned by the
/// `single_line_errors` test); this is defense in depth for foreign text
/// such as I/O error strings.
pub fn single_line(message: &str) -> String {
    message
        .chars()
        .map(|c| if c.is_control() { ' ' } else { c })
        .collect()
}

/// Writes an `ERR <CODE> <message>` reply.
pub fn write_err(out: &mut impl Write, error: &ServerError) -> std::io::Result<()> {
    writeln!(
        out,
        "ERR {} {}",
        error.code(),
        single_line(&error.to_string())
    )
}

/// The longest line either end of a connection will buffer, newline
/// included.  A longer one is drained to its newline without being
/// stored; the server answers it with `ERR ETOOBIG` and keeps the session.  The longest request the paper's workloads send —
/// the Csanky determinant, 3.9 KB of query text — is 270 times under it
/// (`tests/bounded_lines.rs` pins "at least 10 times").
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// What [`bounded_line`] found on the stream.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum LineRead<T> {
    /// The stream ended before another byte arrived.
    Eof,
    /// The line was longer than [`MAX_LINE_BYTES`]; it has been consumed
    /// up to and including its newline, and none of it was kept.
    TooLong,
    /// What the caller's closure made of the line.
    Line(T),
}

/// The one line reader of the wire: hands the next line (trailing newline
/// included, as `BufRead::read_line` would) to `f` straight out of the
/// reader's own buffer.  Only a line that straddles two fills is copied,
/// and never more than [`MAX_LINE_BYTES`] of it.  A final line without a
/// newline is still a line; bytes that are not UTF-8 are the
/// `InvalidData` error `read_line` reports.
pub(crate) fn bounded_line<R: BufRead, T>(
    input: &mut R,
    f: impl FnOnce(&str) -> T,
) -> std::io::Result<LineRead<T>> {
    fn text(bytes: &[u8]) -> std::io::Result<&str> {
        std::str::from_utf8(bytes).map_err(|_| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "stream did not contain valid UTF-8",
            )
        })
    }
    let mut carry: Vec<u8> = Vec::new();
    let mut too_long = false;
    loop {
        let buf = match input.fill_buf() {
            Ok(buf) => buf,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if buf.is_empty() {
            return Ok(if too_long {
                LineRead::TooLong
            } else if carry.is_empty() {
                LineRead::Eof
            } else {
                LineRead::Line(f(text(&carry)?))
            });
        }
        let newline = buf.iter().position(|&b| b == b'\n');
        let take = newline.map_or(buf.len(), |at| at + 1);
        too_long = too_long || carry.len() + take > MAX_LINE_BYTES;
        if newline.is_some() && carry.is_empty() && !too_long {
            // The common case: a whole line inside one fill, not copied.
            let line = text(&buf[..take]).map(f);
            input.consume(take);
            return line.map(LineRead::Line);
        }
        if too_long {
            carry = Vec::new();
        } else {
            carry.extend_from_slice(&buf[..take]);
        }
        input.consume(take);
        if newline.is_some() {
            return Ok(if too_long {
                LineRead::TooLong
            } else {
                LineRead::Line(f(text(&carry)?))
            });
        }
    }
}

/// [`bounded_line`] for the reading side of a reply, where every outcome
/// but a well-formed line is an error message: `closed` is what to say
/// when the stream ends instead.
fn reply_line<R: BufRead, T>(
    input: &mut R,
    closed: &str,
    f: impl FnOnce(&str) -> Result<T, String>,
) -> Result<T, String> {
    match bounded_line(input, f) {
        Ok(LineRead::Line(parsed)) => parsed,
        Ok(LineRead::Eof) => Err(closed.to_string()),
        Ok(LineRead::TooLong) => Err(ServerError::LineTooLong.to_string()),
        Err(e) => Err(e.to_string()),
    }
}

/// Reads the `END` line that closes a block.
fn expect_end(input: &mut impl BufRead) -> Result<(), String> {
    let check = |line: &str| match line.trim() {
        "END" => Ok(()),
        other => Err(format!("expected END, got `{other}`")),
    };
    reply_line(input, "expected END, got ``", check)
}

/// Bytes of one encoder chunk: entries are formatted into it and handed to
/// the writer with one `write_all` per chunk.
const ENCODE_CHUNK_BYTES: usize = 4096;

/// The longest text `Display` prints for an `f64`: `-0.`, 323 zeros and 17
/// significant digits (the tests assert the corpus stays under it).
const MAX_F64_TEXT: usize = 343;

/// Room one entry line may need: two 20-digit indices, two spaces, the
/// value and the newline.
const MAX_ENTRY_BYTES: usize = 2 * 20 + 2 + MAX_F64_TEXT + 1;

/// Writes `n` in decimal at `buf[at..]`; returns the index past it.
fn put_u64(buf: &mut [u8], at: usize, mut n: u64) -> usize {
    let mut digits = [0u8; 20];
    let mut first = digits.len();
    loop {
        first -= 1;
        digits[first] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    let end = at + digits.len() - first;
    buf[at..end].copy_from_slice(&digits[first..]);
    end
}

/// The `i j v` lines of a `RESULT` or `LOAD` body, formatted without the
/// `fmt` machinery.  The text is byte for byte what `{i} {j} {v}` prints:
/// a value that is an exact integer below 2⁵³ is printed as that integer
/// (which is its shortest-round-trip `Display`), every other value —
/// fractions, `-0`, `NaN`, `inf`, 1e300 in full — goes through `Display`
/// itself.  An I/O error is kept and reported by [`finish`](Self::finish),
/// so [`push`](Self::push) fits a visitor that cannot fail.
pub(crate) struct EntryEncoder<'a, W: Write> {
    out: &'a mut W,
    chunk: [u8; ENCODE_CHUNK_BYTES],
    len: usize,
    entries: usize,
    error: Option<std::io::Error>,
}

impl<'a, W: Write> EntryEncoder<'a, W> {
    pub(crate) fn new(out: &'a mut W) -> Self {
        EntryEncoder {
            out,
            chunk: [0; ENCODE_CHUNK_BYTES],
            len: 0,
            entries: 0,
            error: None,
        }
    }

    pub(crate) fn push(&mut self, i: usize, j: usize, v: f64) {
        if self.len + MAX_ENTRY_BYTES > self.chunk.len() {
            self.flush_chunk();
        }
        self.entries += 1;
        let buf = &mut self.chunk;
        let mut at = put_u64(buf, self.len, i as u64);
        buf[at] = b' ';
        at = put_u64(buf, at + 1, j as u64);
        buf[at] = b' ';
        at += 1;
        let int = v as i64;
        if int as f64 == v && int.unsigned_abs() < 1 << 53 && !(int == 0 && v.is_sign_negative()) {
            if int < 0 {
                buf[at] = b'-';
                at += 1;
            }
            at = put_u64(buf, at, int.unsigned_abs());
        } else {
            let mut rest = &mut buf[at..];
            let room = rest.len();
            if let Err(e) = write!(rest, "{v}") {
                self.error.get_or_insert(e);
            }
            at += room - rest.len();
        }
        buf[at] = b'\n';
        self.len = at + 1;
    }

    fn flush_chunk(&mut self) {
        if self.error.is_none() {
            self.error = self.out.write_all(&self.chunk[..self.len]).err();
        }
        self.len = 0;
    }

    /// Hands the last chunk to the writer; returns how many entries were
    /// pushed, or the first error met.
    pub(crate) fn finish(mut self) -> std::io::Result<usize> {
        self.flush_chunk();
        match self.error {
            None => Ok(self.entries),
            Some(e) => Err(e),
        }
    }
}

/// Writes a `RESULT … END` block whose entry lines `entries` pushes; the
/// header's `nnz` must be the number it pushes.
fn write_block<W: Write>(
    out: &mut W,
    header: &ResponseHeader,
    entries: impl FnOnce(&mut EntryEncoder<'_, W>),
) -> std::io::Result<()> {
    header.write(out)?;
    let mut encoder = EntryEncoder::new(out);
    entries(&mut encoder);
    let sent = encoder.finish()?;
    debug_assert_eq!(sent, header.nnz, "RESULT header nnz must match its body");
    out.write_all(b"END\n")
}

/// Writes a `RESULT … END` block.
pub fn write_result(out: &mut impl Write, result: &WireResult) -> std::io::Result<()> {
    write_block(out, &result.header(), |body| {
        for &(i, j, v) in &result.entries {
            body.push(i, j, v);
        }
    })
}

/// Writes the `RESULT … END` block of a result that is still in the
/// storage it was computed in — the same bytes [`write_result`] puts out
/// for [`SharedResult::to_wire`], without the triple vector in between.
pub fn write_shared_result(out: &mut impl Write, result: &SharedResult) -> std::io::Result<()> {
    write_block(out, &result.header(), |body| {
        result.matrix.for_each(&mut |i, j, v| body.push(i, j, v));
    })
}

/// One `(row, col, value)` entry of a `RESULT` or `LOAD` body.
pub(crate) type Entry = (usize, usize, f64);

/// Whether `b` separates tokens on an entry line: ASCII white space, which
/// is all a writer of this protocol emits.
fn is_separator(b: u8) -> bool {
    b == b' ' || (b'\t'..=b'\r').contains(&b)
}

/// Splits the next token off the front of `rest`.
fn next_token<'a>(rest: &mut &'a str) -> Option<&'a str> {
    let bytes = rest.as_bytes();
    let start = bytes.iter().position(|&b| !is_separator(b))?;
    let len = bytes[start..]
        .iter()
        .position(|&b| is_separator(b))
        .unwrap_or(bytes.len() - start);
    let token = &rest[start..start + len];
    *rest = &rest[start + len..];
    Some(token)
}

/// Parses one `i j v` entry line the way `split_whitespace` and
/// `str::parse` would, except that only ASCII white space separates;
/// tokens after the third are ignored.  The error names the field that
/// was missing or malformed.
fn parse_entry(line: &str) -> Result<Entry, String> {
    fn field<T: std::str::FromStr>(rest: &mut &str, what: &str) -> Result<T, String> {
        let token = next_token(rest).ok_or_else(|| format!("expected {what}, got nothing"))?;
        token
            .parse()
            .map_err(|_| format!("expected {what}, got `{token}`"))
    }
    let mut rest = line;
    Ok((
        field(&mut rest, "entry row")?,
        field(&mut rest, "entry column")?,
        field(&mut rest, "entry value")?,
    ))
}

/// The value of a run of 1 to `max_len` digits — few enough that it
/// cannot overflow.
fn digits(token: &[u8], max_len: usize) -> Option<u64> {
    if token.is_empty() || token.len() > max_len {
        return None;
    }
    token.iter().try_fold(0u64, |n, &b| {
        let digit = b.wrapping_sub(b'0');
        (digit <= 9).then(|| n * 10 + u64::from(digit))
    })
}

/// Parses an entry line in the form every writer of this protocol emits —
/// `digits SP digits SP value LF` — off the front of `buf`, touching each
/// byte once; returns the entry and the bytes it took.  Indices and
/// integers of up to 15 digits (exact in an `f64`) are parsed by hand,
/// any other value by `str::parse`.  `None` says nothing about the line:
/// [`read_entry`] then reads it the general way.
fn scan_entry(buf: &[u8]) -> Option<(Entry, usize)> {
    let mut at = 0;
    let mut index = || {
        let len = buf[at..].iter().take(20).position(|&b| b == b' ')?;
        let n = digits(&buf[at..at + len], 19)?;
        at += len + 1;
        usize::try_from(n).ok()
    };
    let (i, j) = (index()?, index()?);
    let len = buf[at..]
        .iter()
        .take(MAX_F64_TEXT + 1)
        .position(|&b| b == b'\n')?;
    let token = &buf[at..at + len];
    let (negative, magnitude) = match token.split_first() {
        Some((b'-', rest)) => (true, rest),
        _ => (false, token),
    };
    let v = match digits(magnitude, 15) {
        Some(n) if negative => -(n as f64),
        Some(n) => n as f64,
        None => std::str::from_utf8(token).ok()?.parse().ok()?,
    };
    Some(((i, j, v), at + len + 1))
}

/// Reads the next `i j v` line of a `RESULT` or `LOAD` body.  `malformed`
/// makes the caller's error out of a line that does not parse and the
/// parser's message for it.
pub(crate) fn read_entry<R: BufRead, E>(
    input: &mut R,
    malformed: impl FnOnce(&str, String) -> E,
) -> std::io::Result<LineRead<Result<Entry, E>>> {
    // An error here is met again, and handled, by `bounded_line`.
    if let Some((entry, taken)) = input.fill_buf().ok().and_then(scan_entry) {
        input.consume(taken);
        return Ok(LineRead::Line(Ok(entry)));
    }
    bounded_line(input, |line| {
        parse_entry(line).map_err(|message| malformed(line, message))
    })
}

/// Reads a `RESULT … END` block (the client side of [`write_result`]).
/// `header` is the already-consumed `RESULT` line.
pub fn read_result(header: &str, input: &mut impl BufRead) -> Result<WireResult, String> {
    let header = ResponseHeader::parse(header)?;
    // `nnz` comes off the wire: clamp the pre-allocation (the vector
    // still grows to the real entry count).
    let mut entries = Vec::with_capacity(header.nnz.min(1 << 16));
    for _ in 0..header.nnz {
        entries.push(match read_entry(input, |_, message| message) {
            Ok(LineRead::Line(entry)) => entry?,
            Ok(LineRead::Eof) => return Err("connection closed mid-result".to_string()),
            Ok(LineRead::TooLong) => return Err(ServerError::LineTooLong.to_string()),
            Err(e) => return Err(e.to_string()),
        });
    }
    expect_end(input)?;
    Ok(header.with_entries(entries))
}

/// Writes a line-counted block reply: `<TAG> <n>`, then the `n` payload
/// lines, then `END` — the framing shared by `METRICS`, `EXPLAIN` and
/// `PROFILE` replies.
pub fn write_lines_block(out: &mut impl Write, tag: &str, lines: &[String]) -> std::io::Result<()> {
    writeln!(out, "{tag} {}", lines.len())?;
    for line in lines {
        writeln!(out, "{}", single_line(line))?;
    }
    writeln!(out, "END")
}

/// Reads the body of a line-counted block reply (the client side of
/// [`write_lines_block`]).  `header` is the already-consumed `<TAG> <n>`
/// line; the expected tag is checked against it.
pub fn read_lines_block(
    header: &str,
    tag: &str,
    input: &mut impl BufRead,
) -> Result<Vec<String>, String> {
    let mut tokens = header.split_whitespace();
    if tokens.next() != Some(tag) {
        return Err(format!("expected {tag}, got `{header}`"));
    }
    let count: usize = parse_num(tokens.next(), "line count")?;
    let mut lines = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        lines.push(reply_line(input, "connection closed mid-block", |line| {
            Ok(line.trim_end_matches(['\r', '\n']).to_string())
        })?);
    }
    expect_end(input)?;
    Ok(lines)
}

/// Reads the result blocks of an `EXECBATCH` reply (the client side of
/// [`write_response`]).  `header` is the already-consumed `BATCH <n>` line.
pub(crate) fn read_batch(
    header: &str,
    input: &mut impl BufRead,
) -> Result<Vec<WireResult>, String> {
    let count: usize = header
        .strip_prefix("BATCH ")
        .and_then(|n| n.trim().parse().ok())
        .ok_or_else(|| format!("malformed EXECBATCH reply `{header}`"))?;
    let mut results = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        let header = reply_line(input, "connection closed mid-batch", |line| {
            Ok(line.trim_end().to_string())
        })?;
        results.push(read_result(&header, input)?);
    }
    Ok(results)
}

/// Reads an `ERR <CODE> <message>` line (the client side of [`write_err`]);
/// `None` for any other line.  A code this version does not know, or a
/// line without a message, reads as [`ErrorCode::Unknown`] with everything
/// after `ERR ` as the message.
pub(crate) fn parse_err(line: &str) -> Option<(ErrorCode, &str)> {
    let rest = line.strip_prefix("ERR ")?;
    let known = rest
        .split_once(' ')
        .and_then(|(code, message)| Some((ErrorCode::from_wire(code)?, message)));
    Some(known.unwrap_or((ErrorCode::Unknown, rest)))
}

/// The storage backend every instance has, as named on the wire (`LIST`,
/// the `INSTANCE` reply, `EXPLAIN`/`PROFILE`/`STATS`/`TOP` headers) and in
/// new snapshots.  `dense` is still accepted wherever a backend is read —
/// the `INSTANCE` verb and old snapshot tags — as an alias for it.
pub(crate) const BACKEND: &str = "adaptive";

/// The server's `HELLO` banner: protocol revision and capability tokens.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServerHello {
    /// The protocol revision the server speaks.
    pub proto: u32,
    /// The announced capability tokens (`delta`, `errcodes`, …).
    pub caps: Vec<String>,
}

impl ServerHello {
    /// The banner this server announces.
    pub(crate) fn ours() -> ServerHello {
        let caps = CAPABILITIES.iter().map(|cap| cap.to_string()).collect();
        ServerHello {
            proto: PROTOCOL_VERSION,
            caps,
        }
    }

    /// Whether the server announced a capability token.
    pub fn has_capability(&self, cap: &str) -> bool {
        self.caps.iter().any(|c| c == cap)
    }
}

/// The outcome of a `PREPARE`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PrepareOutcome {
    /// The query id to pass to `EXEC`.
    pub qid: usize,
    /// Whether this exact statement was already prepared on the instance.
    pub reused_statement: bool,
    /// Whether the `PREPARE` reused the instance's current plan instead of
    /// planning: true exactly when the statement was already prepared on
    /// that instance (wire `plan=cached`, else `plan=built`).
    pub reused_plan: bool,
    /// DAG node count of the (batch) plan.
    pub plan_nodes: usize,
    /// [`matlang_engine::Plan::structure_fingerprint`] of the plan the
    /// statement will execute: the rewritten DAG, whose shape depends on
    /// the instance statistics at planning time, is what runs, and this
    /// identifies the variant.
    pub plan_fingerprint: u64,
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

/// The outcome of an `UPDATE`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UpdateReply {
    /// Entries applied to the instance matrix.
    pub applied: usize,
    /// Cached plan nodes dropped (0 on a fully patched delta pass).
    pub invalidated: u64,
    /// How the cache was maintained.
    pub delta: DeltaWire,
}

/// One instance of a `LIST` reply (proto 2 `obs`), on the wire
/// `name:backend:semiring:delta_patches:delta_fallbacks`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InstanceEntry {
    /// The instance name.
    pub name: String,
    /// Storage backend: `adaptive` from this server, also for an instance
    /// created with the `dense` alias.
    pub backend: String,
    /// Semiring wire name (`real` / `bool` / `nat` / `minplus`).
    pub semiring: String,
    /// Cumulative cached nodes patched by delta propagation.
    pub delta_patches: u64,
    /// Cumulative `UPDATE`s that fell back to invalidation.
    pub delta_fallbacks: u64,
}

impl InstanceEntry {
    /// Reads one `LIST` field from the right, so an instance name
    /// containing `:` survives intact.
    fn parse(field: &str) -> Option<InstanceEntry> {
        let mut parts = field.rsplitn(5, ':');
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
    }
}

/// One slow-query record of a `SLOWLOG` block — the trace id, label and
/// wall time of the offending request plus the forensic detail lines
/// captured when it crossed the slow threshold — which is the record the
/// trace ring keeps.
pub use matlang_obs::trace::SlowQuery as SlowlogEntry;

/// The lines of a `SLOWLOG` block: per entry, its `ENTRY` line, then its
/// detail lines.
pub(crate) fn slowlog_lines(entries: Vec<SlowlogEntry>) -> Vec<String> {
    let mut lines = Vec::new();
    for entry in entries {
        let (id, us, count) = (entry.trace_id, entry.total_us, entry.detail.len());
        let label = entry.label;
        lines.push(format!(
            "ENTRY trace={id:016x} total_us={us} detail={count} {label}"
        ));
        lines.extend(entry.detail);
    }
    lines
}

/// Reads the entries of a `SLOWLOG` block (the other side of
/// [`slowlog_lines`]).
pub(crate) fn parse_slowlog(lines: Vec<String>) -> Result<Vec<SlowlogEntry>, String> {
    let mut entries = Vec::new();
    let mut lines = lines.into_iter();
    while let Some(line) = lines.next() {
        let Some(rest) = line.strip_prefix("ENTRY ") else {
            return Err(format!("expected ENTRY line, got `{line}`"));
        };
        let fields = Fields::new(rest);
        let count: usize = fields.value("detail")?;
        // The label is everything after the detail= token.
        let label = rest
            .split_once(" detail=")
            .and_then(|(_, tail)| tail.split_once(' '))
            .map_or("", |(_, label)| label);
        let entry = SlowlogEntry {
            trace_id: fields.hex("trace")?,
            label: label.to_string(),
            total_us: fields.value("total_us")?,
            detail: lines.by_ref().take(count).collect(),
        };
        if entry.detail.len() != count {
            return Err("truncated SLOWLOG entry detail".to_string());
        }
        entries.push(entry);
    }
    Ok(entries)
}

/// One instance's durability figures — the payload of a `WALSTAT` reply.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalStat {
    /// Whether the instance is currently persisted.
    pub persisted: bool,
    /// Newest WAL sequence number ever issued for the instance (survives
    /// compaction; 0 when nothing was ever logged).
    pub seq: u64,
    /// Records currently in the log (drops to 0 after compaction).
    pub records: u64,
    /// Bytes currently in the log.
    pub wal_bytes: u64,
    /// Size of the newest snapshot written this session, in bytes.
    pub snapshot_bytes: u64,
    /// The WAL size past which the next applied `UPDATE` compacts.
    pub compact_threshold: u64,
}

impl WalStat {
    /// The one-line wire rendering (`persist=on|off`, then the figures).
    pub fn render(&self) -> String {
        format!(
            "persist={} seq={} records={} wal_bytes={} snapshot_bytes={} compact={}",
            if self.persisted { "on" } else { "off" },
            self.seq,
            self.records,
            self.wal_bytes,
            self.snapshot_bytes,
            self.compact_threshold,
        )
    }

    fn parse(fields: &Fields<'_>) -> Result<WalStat, String> {
        Ok(WalStat {
            persisted: fields.text("persist")? == "on",
            seq: fields.value("seq")?,
            records: fields.value("records")?,
            wal_bytes: fields.value("wal_bytes")?,
            snapshot_bytes: fields.value("snapshot_bytes")?,
            compact_threshold: fields.value("compact")?,
        })
    }
}

/// One-line readiness snapshot — the payload of a `HEALTH` reply.
#[derive(Clone, Debug, PartialEq)]
pub struct HealthReport {
    /// `ok`, or `pressure` when the accounted bytes exceed the budget.
    pub status: &'static str,
    /// Accounted bytes across every instance (data + caches + overlays).
    pub total_bytes: u64,
    /// The soft budget ([`crate::StoreConfig::mem_budget`]), if one is
    /// configured.
    pub budget: Option<u64>,
    /// Instances hosted.
    pub instances: usize,
    /// Live client connections (the `connections_active` gauge).
    pub connections: i64,
    /// Cumulative `EXEC` statements, process-wide.
    pub exec_total: u64,
    /// Slow queries per executed statement (0 when nothing ran).
    pub slow_rate: f64,
    /// Delta fallbacks per `UPDATE` (0 when none ran).
    pub fallback_rate: f64,
    /// Cumulative pressure evictions (plans + memo caches).
    pub pressure_evictions: u64,
}

impl HealthReport {
    /// The one-line wire rendering (`-` for "no budget configured"; the
    /// rates to four decimals).
    pub fn render(&self) -> String {
        format!(
            "status={} bytes={} budget={} instances={} connections={} exec={} \
             slow_rate={:.4} fallback_rate={:.4} evictions={}",
            self.status,
            self.total_bytes,
            self.budget
                .map_or_else(|| "-".to_string(), |b| b.to_string()),
            self.instances,
            self.connections,
            self.exec_total,
            self.slow_rate,
            self.fallback_rate,
            self.pressure_evictions,
        )
    }

    fn parse(fields: &Fields<'_>) -> Result<HealthReport, String> {
        Ok(HealthReport {
            status: match fields.text("status")? {
                "ok" => "ok",
                "pressure" => "pressure",
                _ => return Err(fields.malformed()),
            },
            total_bytes: fields.value("bytes")?,
            budget: match fields.text("budget")? {
                "-" => None,
                _ => Some(fields.value("budget")?),
            },
            instances: fields.value("instances")?,
            connections: fields.value("connections")?,
            exec_total: fields.value("exec")?,
            slow_rate: fields.value("slow_rate")?,
            fallback_rate: fields.value("fallback_rate")?,
            pressure_evictions: fields.value("evictions")?,
        })
    }
}

/// Every single-line success reply, in the one grammar both ends share:
/// the session writes its [`Display`](std::fmt::Display) form, the client
/// reads it back with [`Reply::parse`].  Each variant holds, in order, the
/// values its line shows.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Reply {
    /// `OK matlangd proto=… caps=…` — the `HELLO` banner.
    Hello(ServerHello),
    /// `OK instance <name> adaptive <semiring>`.
    Instance(String, SemiringKind),
    /// `OK dim <sym> <value>`.
    Dim(String, usize),
    /// `OK load <var> nnz=<stored>`.
    Load(String, usize),
    /// `OK gen <var> nnz=<stored>`.
    Gen(String, usize),
    /// `OK prepared <qid> plan=built|cached statement=new|reused nodes=… fp=…`.
    Prepared(PrepareOutcome),
    /// `OK update <var> entries=… invalidated=…`, then `delta=applied
    /// patched=…` or `delta=fallback reason=…` (proto 2).
    Update(String, UpdateReply),
    /// `OK instances`, then one [`InstanceEntry`] field per instance.
    Instances(Vec<InstanceEntry>),
    /// `OK dropped <instance>`.
    Dropped(String),
    /// `OK health status=… bytes=… …`.
    Health(HealthReport),
    /// `OK saved <instance> bytes=… path=…`; the path runs to the end of
    /// the line.
    Saved(String, u64, String),
    /// `OK restored <instance> dims=… vars=…`.
    Restored(String, usize, usize),
    /// `OK persist <instance> on|off`.
    Persist(String, bool),
    /// `OK walstat <instance> persist=… seq=… …`.
    Walstat(String, WalStat),
    /// `OK pong`.
    Pong,
    /// `OK bye` — the last line of a session.
    Bye,
}

impl std::fmt::Display for Reply {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let on_off = |on: bool| if on { "on" } else { "off" };
        match self {
            Reply::Hello(hello) => {
                let caps = hello.caps.join(",");
                write!(f, "OK matlangd proto={} caps={caps}", hello.proto)
            }
            Reply::Instance(name, semiring) => {
                write!(f, "OK instance {name} {BACKEND} {}", semiring.name())
            }
            Reply::Dim(sym, value) => write!(f, "OK dim {sym} {value}"),
            Reply::Load(var, nnz) => write!(f, "OK load {var} nnz={nnz}"),
            Reply::Gen(var, nnz) => write!(f, "OK gen {var} nnz={nnz}"),
            Reply::Prepared(p) => write!(
                f,
                "OK prepared {} plan={} statement={} nodes={} fp={:016x}",
                p.qid,
                if p.reused_plan { "cached" } else { "built" },
                if p.reused_statement { "reused" } else { "new" },
                p.plan_nodes,
                p.plan_fingerprint,
            ),
            Reply::Update(var, reply) => {
                let (applied, invalidated) = (reply.applied, reply.invalidated);
                write!(
                    f,
                    "OK update {var} entries={applied} invalidated={invalidated}"
                )?;
                match &reply.delta {
                    DeltaWire::Applied { patched } => write!(f, " delta=applied patched={patched}"),
                    DeltaWire::Fallback { reason } => write!(f, " delta=fallback reason={reason}"),
                    DeltaWire::Unreported => Ok(()),
                }
            }
            Reply::Instances(entries) => {
                f.write_str("OK instances ")?;
                for (at, e) in entries.iter().enumerate() {
                    let sep = if at == 0 { "" } else { " " };
                    let (patches, fallbacks) = (e.delta_patches, e.delta_fallbacks);
                    write!(
                        f,
                        "{sep}{}:{}:{}:{patches}:{fallbacks}",
                        e.name, e.backend, e.semiring
                    )?;
                }
                Ok(())
            }
            Reply::Dropped(instance) => write!(f, "OK dropped {instance}"),
            Reply::Health(report) => write!(f, "OK health {}", report.render()),
            Reply::Saved(instance, bytes, path) => {
                write!(f, "OK saved {instance} bytes={bytes} path={path}")
            }
            Reply::Restored(instance, dims, vars) => {
                write!(f, "OK restored {instance} dims={dims} vars={vars}")
            }
            Reply::Persist(instance, on) => write!(f, "OK persist {instance} {}", on_off(*on)),
            Reply::Walstat(instance, stat) => write!(f, "OK walstat {instance} {}", stat.render()),
            Reply::Pong => f.write_str("OK pong"),
            Reply::Bye => f.write_str("OK bye"),
        }
    }
}

impl Reply {
    /// Reads a reply line (without its newline).  Positional words are read
    /// in order; `key=value` fields are looked up by key, so a field a
    /// newer server appends is ignored, and an `UPDATE` reply without the
    /// proto-2 delta fields reads as [`DeltaWire::Unreported`].
    pub(crate) fn parse(line: &str) -> Result<Reply, String> {
        let mut f = Fields::new(line);
        if f.word()? != "OK" {
            return Err(f.malformed());
        }
        Ok(match f.word()? {
            "matlangd" => Reply::Hello(ServerHello {
                proto: f.value("proto")?,
                caps: f.text("caps").map_or_else(
                    |_| Vec::new(),
                    |caps| caps.split(',').map(String::from).collect(),
                ),
            }),
            "instance" => {
                let name = f.word()?.to_string();
                f.word()?; // the backend: always `adaptive`
                let semiring = SemiringKind::parse(f.word()?).ok_or_else(|| f.malformed())?;
                Reply::Instance(name, semiring)
            }
            "dim" => Reply::Dim(f.word()?.to_string(), f.parsed()?),
            "load" => Reply::Load(f.word()?.to_string(), f.value("nnz")?),
            "gen" => Reply::Gen(f.word()?.to_string(), f.value("nnz")?),
            "prepared" => Reply::Prepared(PrepareOutcome {
                qid: f.parsed()?,
                reused_plan: f.text("plan")? == "cached",
                reused_statement: f.text("statement")? == "reused",
                plan_nodes: f.value("nodes")?,
                plan_fingerprint: f.hex("fp")?,
            }),
            "update" => {
                let var = f.word()?.to_string();
                let delta = match f.text("delta") {
                    Ok("applied") => DeltaWire::Applied {
                        patched: f.value("patched")?,
                    },
                    Ok("fallback") => DeltaWire::Fallback {
                        reason: f.value("reason")?,
                    },
                    _ => DeltaWire::Unreported,
                };
                let reply = UpdateReply {
                    applied: f.value("entries")?,
                    invalidated: f.value("invalidated")?,
                    delta,
                };
                Reply::Update(var, reply)
            }
            "instances" => Reply::Instances(
                f.words
                    .by_ref()
                    .map(|field| {
                        InstanceEntry::parse(field)
                            .ok_or_else(|| format!("malformed LIST field `{field}`"))
                    })
                    .collect::<Result<_, _>>()?,
            ),
            "dropped" => Reply::Dropped(f.word()?.to_string()),
            "health" => Reply::Health(HealthReport::parse(&f)?),
            "saved" => {
                let path = line.split_once(" path=").ok_or_else(|| f.malformed())?.1;
                Reply::Saved(f.word()?.to_string(), f.value("bytes")?, path.to_string())
            }
            "restored" => {
                Reply::Restored(f.word()?.to_string(), f.value("dims")?, f.value("vars")?)
            }
            "persist" => {
                let instance = f.word()?.to_string();
                match f.word()? {
                    "on" => Reply::Persist(instance, true),
                    "off" => Reply::Persist(instance, false),
                    _ => return Err(f.malformed()),
                }
            }
            "walstat" => Reply::Walstat(f.word()?.to_string(), WalStat::parse(&f)?),
            "pong" => Reply::Pong,
            "bye" => Reply::Bye,
            _ => return Err(f.malformed()),
        })
    }
}

/// A reply line being read: positional words off the front, `key=value`
/// fields by key (the first token `key=…` anywhere on the line).
struct Fields<'a> {
    line: &'a str,
    words: std::str::SplitWhitespace<'a>,
}

impl<'a> Fields<'a> {
    fn new(line: &'a str) -> Self {
        let words = line.split_whitespace();
        Fields { line, words }
    }

    fn malformed(&self) -> String {
        format!("malformed reply `{}`", self.line)
    }

    /// The next positional word.
    fn word(&mut self) -> Result<&'a str, String> {
        self.words.next().ok_or_else(|| self.malformed())
    }

    /// The next positional word, parsed.
    fn parsed<T: std::str::FromStr>(&mut self) -> Result<T, String> {
        self.word()?.parse().map_err(|_| self.malformed())
    }

    /// The text of the `key=` field.
    fn text(&self, key: &str) -> Result<&'a str, String> {
        self.line
            .split_whitespace()
            .find_map(|token| token.strip_prefix(key)?.strip_prefix('='))
            .ok_or_else(|| format!("missing {key}= in reply `{}`", self.line))
    }

    /// The `key=` field, parsed.
    fn value<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.text(key)?.parse().map_err(|_| self.malformed())
    }

    /// The `key=` field, read as hexadecimal.
    fn hex(&self, key: &str) -> Result<u64, String> {
        u64::from_str_radix(self.text(key)?, 16).map_err(|_| self.malformed())
    }
}

/// Everything one request is answered with, short of an `ERR` line.
pub(crate) enum Response {
    /// A single-line reply.
    Line(Reply),
    /// A line-counted block: its tag and payload lines.
    Lines(&'static str, Vec<String>),
    /// A `RESULT … END` block.
    Result(SharedResult),
    /// The result blocks of an `EXECBATCH`.
    Batch(Vec<SharedResult>),
}

impl From<Reply> for Response {
    fn from(reply: Reply) -> Response {
        Response::Line(reply)
    }
}

/// Writes the answer to one request: the response, or its `ERR` line.
pub(crate) fn write_response(
    out: &mut impl Write,
    response: Result<Response, ServerError>,
) -> std::io::Result<()> {
    match response {
        Ok(Response::Line(reply)) => writeln!(out, "{reply}"),
        Ok(Response::Lines(tag, lines)) => write_lines_block(out, tag, &lines),
        Ok(Response::Result(result)) => write_shared_result(out, &result),
        Ok(Response::Batch(results)) => {
            writeln!(out, "BATCH {}", results.len())?;
            results.iter().try_for_each(|r| write_shared_result(out, r))
        }
        Err(error) => write_err(out, &error),
    }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_core_commands() {
        assert_eq!(Request::parse("HELLO").unwrap(), Request::Hello);
        assert_eq!(
            Request::parse("INSTANCE g dense").unwrap(),
            Request::Instance {
                name: "g".into(),
                semiring: SemiringKind::Real,
            }
        );
        assert_eq!(
            Request::parse("instance g").unwrap(),
            Request::Instance {
                name: "g".into(),
                semiring: SemiringKind::Real,
            }
        );
        assert_eq!(
            Request::parse("INSTANCE g adaptive bool").unwrap(),
            Request::Instance {
                name: "g".into(),
                semiring: SemiringKind::Boolean,
            }
        );
        assert_eq!(
            Request::parse("INSTANCE g dense minplus").unwrap(),
            Request::Instance {
                name: "g".into(),
                semiring: SemiringKind::MinPlus,
            }
        );
        assert_eq!(
            Request::parse("DIM g n 10").unwrap(),
            Request::Dim {
                instance: "g".into(),
                sym: "n".into(),
                value: 10
            }
        );
        assert_eq!(
            Request::parse("PREPARE g (G * G)").unwrap(),
            Request::Prepare {
                instance: "g".into(),
                text: "(G * G)".into()
            }
        );
        assert_eq!(
            Request::parse("EXECBATCH g 0 1 2").unwrap(),
            Request::ExecBatch {
                instance: "g".into(),
                qids: vec![0, 1, 2]
            }
        );
        assert_eq!(
            Request::parse("UPDATE g G 0 1 2.5 3 4 0").unwrap(),
            Request::Update {
                instance: "g".into(),
                var: "G".into(),
                entries: vec![(0, 1, 2.5), (3, 4, 0.0)],
            }
        );
        assert_eq!(Request::parse("PING").unwrap(), Request::Ping);
        assert_eq!(
            Request::parse("METRICS").unwrap(),
            Request::Metrics { window: None }
        );
        assert_eq!(
            Request::parse("METRICS WINDOW 60").unwrap(),
            Request::Metrics { window: Some(60) }
        );
        assert_eq!(
            Request::parse("STATS g").unwrap(),
            Request::Stats {
                instance: "g".into()
            }
        );
        assert_eq!(
            Request::parse("SLOWLOG").unwrap(),
            Request::Slowlog { n: None }
        );
        assert_eq!(
            Request::parse("SLOWLOG 5").unwrap(),
            Request::Slowlog { n: Some(5) }
        );
        assert_eq!(Request::parse("HEALTH").unwrap(), Request::Health);
        assert_eq!(Request::parse("TOP").unwrap(), Request::Top { n: None });
        assert_eq!(
            Request::parse("TOP 3").unwrap(),
            Request::Top { n: Some(3) }
        );
        assert_eq!(
            Request::parse("TRACE EXPORT").unwrap(),
            Request::TraceExport { n: None }
        );
        assert_eq!(
            Request::parse("trace export 8").unwrap(),
            Request::TraceExport { n: Some(8) }
        );
        assert_eq!(
            Request::parse("EXPLAIN g (G * G)").unwrap(),
            Request::Explain {
                instance: "g".into(),
                text: "(G * G)".into()
            }
        );
        assert_eq!(
            Request::parse("PROFILE g (G * G)").unwrap(),
            Request::Profile {
                instance: "g".into(),
                text: "(G * G)".into()
            }
        );
        // An empty UPDATE batch parses (the store answers it as a no-op).
        assert_eq!(
            Request::parse("UPDATE g G").unwrap(),
            Request::Update {
                instance: "g".into(),
                var: "G".into(),
                entries: vec![],
            }
        );
    }

    #[test]
    fn parses_persistence_commands() {
        // One round trip per persistence verb: the wire line parses to
        // the typed variant that renders the same semantics back.
        assert_eq!(
            Request::parse("SAVE g").unwrap(),
            Request::Save {
                instance: "g".into(),
                path: None
            }
        );
        assert_eq!(
            Request::parse("SAVE g /tmp/g.snap").unwrap(),
            Request::Save {
                instance: "g".into(),
                path: Some("/tmp/g.snap".into())
            }
        );
        assert_eq!(
            Request::parse("RESTORE h /tmp/g.snap").unwrap(),
            Request::Restore {
                instance: "h".into(),
                path: "/tmp/g.snap".into()
            }
        );
        assert_eq!(
            Request::parse("PERSIST g on").unwrap(),
            Request::Persist {
                instance: "g".into(),
                on: true
            }
        );
        assert_eq!(
            Request::parse("persist g OFF").unwrap(),
            Request::Persist {
                instance: "g".into(),
                on: false
            }
        );
        assert_eq!(
            Request::parse("WALSTAT g").unwrap(),
            Request::Walstat {
                instance: "g".into()
            }
        );
        assert!(Request::parse("RESTORE h").is_err());
        assert!(Request::parse("PERSIST g maybe").is_err());
        assert!(Request::parse("PERSIST g").is_err());
        assert!(Request::parse("WALSTAT").is_err());
    }

    /// Every prefix and every single-bit flip of the lines the two tests
    /// above parse (plus the verbs they leave out) that is still UTF-8
    /// parses or is refused; none panics.  The sweep is exhaustive, so it
    /// is the same on every run.
    #[test]
    fn truncated_and_bit_flipped_lines_never_panic() {
        let corpus = [
            "HELLO",
            "INSTANCE g dense",
            "instance g",
            "INSTANCE g adaptive bool",
            "INSTANCE g dense minplus",
            "DIM g n 10",
            "LOAD g G 3 3 2",
            "GEN g G n er 8 1",
            "GEN g G n pl 4 2.1 7",
            "PREPARE g (G * G)",
            "QUERY g (G * G)",
            "EXEC g 0",
            "EXECBATCH g 0 1 2",
            "UPDATE g G 0 1 2.5 3 4 0",
            "UPDATE g G",
            "LIST",
            "PING",
            "METRICS",
            "METRICS WINDOW 60",
            "STATS g",
            "SLOWLOG 5",
            "HEALTH",
            "TOP 3",
            "TRACE EXPORT",
            "trace export 8",
            "EXPLAIN g (G * G)",
            "PROFILE g (G * G)",
            "DROP g",
            "SAVE g /tmp/g.snap",
            "RESTORE h /tmp/g.snap",
            "PERSIST g on",
            "persist g OFF",
            "WALSTAT g",
            "QUIT",
        ];
        let mut parsed = 0;
        let mut parse = |bytes: &[u8]| {
            if let Ok(line) = std::str::from_utf8(bytes) {
                let outcome = std::panic::catch_unwind(|| Request::parse(line));
                assert!(outcome.is_ok(), "`{}` panicked", line.escape_debug());
                parsed += 1;
            }
        };
        for line in corpus {
            let bytes = line.as_bytes();
            for cut in 0..=bytes.len() {
                parse(&bytes[..cut]);
            }
            for bit in 0..bytes.len() * 8 {
                let mut flipped = bytes.to_vec();
                flipped[bit / 8] ^= 1 << (bit % 8);
                parse(&flipped);
            }
        }
        assert!(parsed > 3_000, "only {parsed} variants were UTF-8");
    }

    #[test]
    fn eproto_messages_use_expected_got_phrasing() {
        for (line, needle) in [
            ("DIM g n ten", "expected dimension value, got `ten`"),
            ("EXEC g", "expected query id, got nothing"),
            (
                "INSTANCE g columnar",
                "expected backend dense|adaptive, got `columnar`",
            ),
            ("PERSIST g maybe", "expected on|off, got `maybe`"),
        ] {
            let err = Request::parse(line).unwrap_err();
            assert_eq!(err, needle, "for `{line}`");
        }
    }

    #[test]
    fn rejects_malformed_commands() {
        assert!(Request::parse("").is_err());
        assert!(Request::parse("FROB g").is_err());
        assert!(Request::parse("INSTANCE g columnar").is_err());
        assert!(Request::parse("INSTANCE g dense complex").is_err());
        assert!(Request::parse("EXEC g notanumber").is_err());
        assert!(Request::parse("EXECBATCH g").is_err());
        assert!(Request::parse("UPDATE g G 0 1").is_err());
        assert!(Request::parse("PREPARE g").is_err());
        assert!(Request::parse("EXPLAIN g").is_err());
        assert!(Request::parse("PROFILE g").is_err());
        assert!(Request::parse("GEN g G n frob 1 2").is_err());
        assert!(Request::parse("METRICS FROB").is_err());
        assert!(Request::parse("METRICS WINDOW abc").is_err());
        assert!(Request::parse("STATS").is_err());
        assert!(Request::parse("SLOWLOG many").is_err());
        assert!(Request::parse("HEALTH now").is_err());
        assert!(Request::parse("TOP many").is_err());
        assert!(Request::parse("TRACE").is_err());
        assert!(Request::parse("TRACE IMPORT").is_err());
        assert!(Request::parse("TRACE EXPORT many").is_err());
    }

    #[test]
    fn lines_blocks_round_trip() {
        let lines = vec![
            "# TYPE exec_total counter".to_string(),
            "exec_total 3".into(),
        ];
        let mut wire = Vec::new();
        write_lines_block(&mut wire, "METRICS", &lines).unwrap();
        let text = String::from_utf8(wire).unwrap();
        assert!(text.starts_with("METRICS 2\n"));
        assert!(text.ends_with("END\n"));
        let mut lines_iter = text.lines();
        let header = lines_iter.next().unwrap();
        let rest = lines_iter.collect::<Vec<_>>().join("\n") + "\n";
        let parsed = read_lines_block(header, "METRICS", &mut rest.as_bytes()).unwrap();
        assert_eq!(parsed, lines);
        assert!(read_lines_block(header, "EXPLAIN", &mut rest.as_bytes()).is_err());
    }

    #[test]
    fn headers_carry_the_trace_token() {
        let header = ResponseHeader {
            rows: 1,
            cols: 1,
            trace: 0xabc,
            ..ResponseHeader::default()
        };
        let mut wire = Vec::new();
        header.write(&mut wire).unwrap();
        let text = String::from_utf8(wire).unwrap();
        assert!(text.contains("trace=0000000000000abc"), "{text}");
        let parsed = ResponseHeader::parse(text.trim()).unwrap();
        assert_eq!(parsed.trace, 0xabc);
        // Pre-obs headers without the token default to "no trace".
        let legacy = ResponseHeader::parse("RESULT 1 1 0 hits=1").unwrap();
        assert_eq!(legacy.trace, 0);
        assert!(ResponseHeader::parse("RESULT 1 1 0 trace=zz").is_err());
    }

    #[test]
    fn result_blocks_round_trip() {
        let result = WireResult {
            rows: 2,
            cols: 3,
            entries: vec![(0, 1, 1.5), (1, 2, -0.25), (1, 0, 3e300)],
            stats: ExecStatsWire {
                cache_hits: 7,
                cache_misses: 2,
                invalidations: 1,
                fused_products: 3,
                delta_patches: 11,
                delta_fallbacks: 4,
            },
            plan_nodes: 9,
            fingerprint: 0xdead_beef_cafe_f00d,
            trace: 0x1234_5678_9abc_def0,
        };
        let mut wire = Vec::new();
        write_result(&mut wire, &result).unwrap();
        let text = String::from_utf8(wire).unwrap();
        let mut lines = text.lines();
        let header = lines.next().unwrap();
        let rest = lines.collect::<Vec<_>>().join("\n") + "\n";
        let parsed = read_result(header, &mut rest.as_bytes()).unwrap();
        assert_eq!(parsed, result);
    }

    // ── The per-entry code the codec replaced, kept as its reference ────

    /// `write_result` as it was: one `writeln!` per entry.
    fn reference_write_result(out: &mut impl Write, result: &WireResult) -> std::io::Result<()> {
        result.header().write(out)?;
        for (i, j, v) in &result.entries {
            writeln!(out, "{i} {j} {v}")?;
        }
        writeln!(out, "END")
    }

    /// The entry parse `read_result` and the `LOAD` loop used to do.
    fn reference_parse_entry(line: &str) -> Result<(usize, usize, f64), String> {
        let mut t = line.split_whitespace();
        Ok((
            parse_num::<usize>(t.next(), "entry row")?,
            parse_num::<usize>(t.next(), "entry column")?,
            parse_num::<f64>(t.next(), "entry value")?,
        ))
    }

    /// `read_result` as it was: `read_line` into a `String` per entry.
    fn reference_read_result(header: &str, input: &mut impl BufRead) -> Result<WireResult, String> {
        let header = ResponseHeader::parse(header)?;
        let mut entries = Vec::with_capacity(header.nnz.min(1 << 16));
        let mut line = String::new();
        for _ in 0..header.nnz {
            line.clear();
            if input.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
                return Err("connection closed mid-result".to_string());
            }
            entries.push(reference_parse_entry(&line)?);
        }
        line.clear();
        input.read_line(&mut line).map_err(|e| e.to_string())?;
        if line.trim() != "END" {
            return Err(format!("expected END, got `{}`", line.trim()));
        }
        Ok(header.with_entries(entries))
    }

    /// The values the codec must get exactly right: every special, both
    /// sides of the integer fast path's 2⁵³ edge, and seeded random bit
    /// patterns (which cover subnormals, huge exponents and NaN payloads).
    fn value_corpus() -> Vec<f64> {
        use rand::{rngs::StdRng, RngCore, SeedableRng};
        let mut values = vec![
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.5,
            -0.25,
            1e15,
            999_999_999_999_999.0,
            1e16,
            1e300,
            -1e300,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            5e-324,
            -5e-324,
            2.225_073_858_507_201e-308,
            f64::EPSILON,
        ];
        let edge = (1u64 << 53) as f64;
        for step in -4i32..=4 {
            // Above 2⁵³ the spacing is 2, so walk in ULPs, not in ones.
            let mut near = edge;
            for _ in 0..step.abs() {
                near = if step < 0 {
                    near - 1.0
                } else {
                    f64::from_bits(near.to_bits() + 1)
                };
            }
            values.extend([near, -near]);
        }
        let mut rng = StdRng::seed_from_u64(0x16);
        values.extend((0..4000).map(|_| f64::from_bits(rng.next_u64())));
        // Small integers and short decimals, the shapes real results have.
        values.extend((0..2000).map(|_| (rng.next_u64() % 2_000_001) as f64 - 1_000_000.0));
        values.extend((0..2000).map(|_| (rng.next_u64() % 100_000) as f64 / 64.0));
        values
    }

    fn index_corpus() -> Vec<usize> {
        vec![
            0,
            1,
            9,
            10,
            99,
            100,
            61_999,
            1 << 32,
            usize::MAX - 1,
            usize::MAX,
        ]
    }

    #[test]
    fn encoder_bytes_equal_display_formatting() {
        let indices = index_corpus();
        let mut longest = 0;
        for (n, &v) in value_corpus().iter().enumerate() {
            let (i, j) = (indices[n % indices.len()], indices[(n / 3) % indices.len()]);
            let mut fast = Vec::new();
            let mut encoder = EntryEncoder::new(&mut fast);
            encoder.push(i, j, v);
            assert_eq!(encoder.finish().unwrap(), 1);
            let reference = format!("{i} {j} {v}\n");
            assert_eq!(
                String::from_utf8(fast).unwrap(),
                reference,
                "for bits {:#x}",
                v.to_bits()
            );
            longest = longest.max(reference.len());
        }
        // `usize::MAX usize::MAX -5e-324` is in the corpus: the reserve
        // covers the longest line there is.
        assert!(longest <= MAX_ENTRY_BYTES, "{longest}");
        assert!(format!("{}", -5e-324).len() + 2 * 20 + 3 <= MAX_ENTRY_BYTES);
        assert!(format!("{}", -f64::MIN_POSITIVE).len() + 2 * 20 + 3 <= MAX_ENTRY_BYTES);
    }

    #[test]
    fn encoder_chunks_add_up_to_the_reference_block() {
        // Enough entries to cross many chunk flushes, long and short lines
        // mixed so a flush lands at every kind of boundary.
        let values = value_corpus();
        let result = WireResult {
            rows: usize::MAX,
            cols: 7,
            entries: values
                .iter()
                .enumerate()
                .map(|(n, &v)| (n, n * 31 % 1000, v))
                .collect(),
            stats: ExecStatsWire::default(),
            plan_nodes: 3,
            fingerprint: 0xfeed,
            trace: 0,
        };
        let (mut fast, mut reference) = (Vec::new(), Vec::new());
        write_result(&mut fast, &result).unwrap();
        reference_write_result(&mut reference, &result).unwrap();
        assert!(fast == reference, "RESULT block bytes diverged");
        // … and it reads back bit for bit through both decoders.
        let split = fast.iter().position(|&b| b == b'\n').unwrap();
        let header = std::str::from_utf8(&fast[..split]).unwrap();
        let decoded = read_result(header, &mut &fast[split + 1..]).unwrap();
        let expected = reference_read_result(header, &mut &fast[split + 1..]).unwrap();
        assert_eq!(decoded.entries.len(), result.entries.len());
        for ((got, want), sent) in decoded
            .entries
            .iter()
            .zip(&expected.entries)
            .zip(&result.entries)
        {
            assert_eq!(
                (got.0, got.1, got.2.to_bits()),
                (want.0, want.1, want.2.to_bits())
            );
            assert_eq!((got.0, got.1), (sent.0, sent.1));
            assert!(got.2.to_bits() == sent.2.to_bits() || sent.2.is_nan());
        }
    }

    #[test]
    fn encoder_reports_the_first_write_error() {
        struct Full;
        impl Write for Full {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut out = Full;
        let mut encoder = EntryEncoder::new(&mut out);
        for n in 0..10_000 {
            encoder.push(n, n, 1.0);
        }
        assert_eq!(encoder.finish().unwrap_err().to_string(), "disk full");
    }

    #[test]
    fn entry_parser_agrees_with_split_whitespace_and_str_parse() {
        /// `line` through the reader (single-pass scan, else the general
        /// parser) and through the general parser alone: both must say
        /// what the reference says.
        fn agree(line: &str) {
            let mut input = line.as_bytes();
            let read = match read_entry(&mut input, |_, message| message).unwrap() {
                LineRead::Line(entry) => entry,
                LineRead::Eof => parse_entry(""),
                LineRead::TooLong => panic!("`{line}` is not long"),
            };
            assert!(input.is_empty(), "`{line}` was not consumed whole");
            let reference = reference_parse_entry(line);
            for fast in [read, parse_entry(line)] {
                match (&fast, &reference) {
                    (Ok(f), Ok(r)) => assert_eq!(
                        (f.0, f.1, f.2.to_bits()),
                        (r.0, r.1, r.2.to_bits()),
                        "for `{line}`"
                    ),
                    // Same verdict and the same message, token included.
                    _ => assert_eq!(fast, reference, "for `{line}`"),
                }
            }
        }
        let indices = index_corpus();
        for (n, &v) in value_corpus().iter().enumerate() {
            let (i, j) = (indices[n % indices.len()], indices[(n / 3) % indices.len()]);
            agree(&format!("{i} {j} {v}\n"));
            agree(&format!("{i} {j} {v}"));
            agree(&format!("{i} {j} {v:e}\n"));
            agree(&format!("  {i}\t{j}  {v:e} \r\n"));
        }
        for line in [
            "",
            "\n",
            "1",
            "1 2",
            "1 2 x",
            "x 2 3",
            "1 y 3",
            "+1 2 3",
            "1 +2 +3",
            "-1 2 3",
            "1 2 1e5",
            "1 2 1E-5",
            "1 2 .5",
            "1 2 5.",
            "1 2 inf",
            "1 2 -inf",
            "1 2 NaN",
            "1 2 infinity",
            "1 2 -",
            "1 2 --3",
            "1 2 -0",
            "1 2 007",
            "007 08 9",
            "1 2 3 junk",
            "1 2 3 4 5",
            "1\x0b2\x0c3",
            "18446744073709551615 0 1",
            "18446744073709551616 0 1",
            "99999999999999999999999 0 1",
            "0 0 999999999999999",
            "0 0 9999999999999999",
            "0 0 -999999999999999",
            "0 0 123456789012345678901234567890",
            "0 0 1_000",
            "0 0 0x10",
            "0 0 ١٢٣",
            "END",
        ] {
            agree(line);
            if !line.ends_with('\n') {
                agree(&format!("{line}\n"));
            }
        }
        // The one documented divergence: only ASCII white space separates
        // tokens, so a no-break space (which `split_whitespace` skipped)
        // is now part of the token it touches.  No writer emits one.
        assert!(reference_parse_entry("\u{a0}1 2 3").is_ok());
        assert_eq!(
            parse_entry("\u{a0}1 2 3").unwrap_err(),
            "expected entry row, got `\u{a0}1`"
        );
    }

    #[test]
    fn bounded_line_hands_out_lines_across_fills() {
        // A 5-byte `BufReader` makes nearly every line straddle fills.
        let text = "EXEC g 0\n\nshort\r\nlast line without newline";
        let mut reader = std::io::BufReader::with_capacity(5, text.as_bytes());
        let mut lines = Vec::new();
        loop {
            match bounded_line(&mut reader, str::to_string).unwrap() {
                LineRead::Line(line) => lines.push(line),
                LineRead::Eof => break,
                LineRead::TooLong => panic!("nothing here is long"),
            }
        }
        assert_eq!(
            lines,
            ["EXEC g 0\n", "\n", "short\r\n", "last line without newline"]
        );
        // Bytes that are not UTF-8 are `read_line`'s error, and the line
        // after them is still readable.
        let mut bad = &b"ok\n\xff\xfe\nnext\n"[..];
        assert_eq!(bounded_line(&mut bad, str::len).unwrap(), LineRead::Line(3));
        let error = bounded_line(&mut bad, str::len).unwrap_err();
        assert_eq!(error.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(bounded_line(&mut bad, str::len).unwrap(), LineRead::Line(5));
        assert_eq!(bounded_line(&mut bad, str::len).unwrap(), LineRead::Eof);
    }

    #[test]
    fn bounded_line_drains_an_oversized_line_and_carries_on() {
        // Exactly at the cap is a line; one byte over is not — whether it
        // arrives in one fill (a slice) or in many (a small `BufReader`).
        let mut at_cap = vec![b'x'; MAX_LINE_BYTES - 1];
        at_cap.push(b'\n');
        let mut over = vec![b'x'; MAX_LINE_BYTES];
        over.extend_from_slice(b"\nPING\n");
        assert_eq!(
            bounded_line(&mut &at_cap[..], str::len).unwrap(),
            LineRead::Line(MAX_LINE_BYTES)
        );
        let mut one_fill = &over[..];
        assert_eq!(
            bounded_line(&mut one_fill, str::len).unwrap(),
            LineRead::TooLong
        );
        assert_eq!(
            bounded_line(&mut one_fill, str::len).unwrap(),
            LineRead::Line(5)
        );
        let mut many_fills = std::io::BufReader::with_capacity(4096, &over[..]);
        assert_eq!(
            bounded_line(&mut many_fills, str::len).unwrap(),
            LineRead::TooLong
        );
        assert_eq!(
            bounded_line(&mut many_fills, str::to_string).unwrap(),
            LineRead::Line("PING\n".to_string())
        );
        // An oversized line cut off by EOF is still reported, once.
        let unterminated = vec![b'y'; MAX_LINE_BYTES + 10];
        let mut unterminated = &unterminated[..];
        assert_eq!(
            bounded_line(&mut unterminated, str::len).unwrap(),
            LineRead::TooLong
        );
        assert_eq!(
            bounded_line(&mut unterminated, str::len).unwrap(),
            LineRead::Eof
        );
    }

    #[test]
    fn lying_counts_fail_fast_without_allocating_for_them() {
        // A header claiming 10⁹ entries, then `END`: the first "entry"
        // does not parse, and nothing was sized from the claim.
        let err = read_result("RESULT 1 1 1000000000", &mut &b"END\n"[..]).unwrap_err();
        assert_eq!(err, "expected entry row, got `END`");
        // … and a stream that simply ends is an error, not a spin.
        let err = read_result("RESULT 1 1 1000000000", &mut &b"0 0 1\n"[..]).unwrap_err();
        assert_eq!(err, "connection closed mid-result");
        let err = read_result("RESULT 1 1 1", &mut &b"0 0 1\n"[..]).unwrap_err();
        assert_eq!(err, "expected END, got ``");
        let err = read_lines_block("TOP 1000000000", "TOP", &mut &b"a\nEND\n"[..]).unwrap_err();
        assert_eq!(err, "connection closed mid-block");
        let mut long = vec![b'z'; MAX_LINE_BYTES + 1];
        long.extend_from_slice(b"\nEND\n");
        let err = read_lines_block("TOP 1", "TOP", &mut &long[..]).unwrap_err();
        assert_eq!(err, format!("line exceeds {MAX_LINE_BYTES} bytes"));
    }

    /// Release guard for the claim this codec lands on: on a 60 k-entry
    /// body of small integers — what `warm_stream` ships — encode and
    /// decode are each ≥ 1.8× the per-entry `writeln!` / `read_line` +
    /// `split_whitespace` + `str::parse` code they replaced, and each under
    /// 45 ns per entry outright (measured ≈ 20 and ≈ 24; the bound leaves
    /// room for this host's 1.7× slow mode).  Debug builds only check that
    /// both pairs agree.
    #[test]
    fn result_path_guard() {
        use std::time::Instant;
        const ENTRIES: usize = 60_000;
        let result = WireResult {
            rows: 1000,
            cols: 1000,
            entries: (0..ENTRIES)
                .map(|n| (n / 60, n * 7 % 1000, (1 + n % 9) as f64))
                .collect(),
            stats: ExecStatsWire::default(),
            plan_nodes: 2,
            fingerprint: 1,
            trace: 0,
        };
        /// Best-of-7 nanoseconds per entry.
        fn best_ns(mut run: impl FnMut()) -> f64 {
            (0..7)
                .map(|_| {
                    let start = Instant::now();
                    run();
                    start.elapsed().as_nanos() as f64 / ENTRIES as f64
                })
                .fold(f64::INFINITY, f64::min)
        }
        let (mut fast, mut reference) = (Vec::new(), Vec::new());
        let encode = best_ns(|| {
            fast.clear();
            write_result(&mut fast, std::hint::black_box(&result)).unwrap();
        });
        let encode_reference = best_ns(|| {
            reference.clear();
            reference_write_result(&mut reference, std::hint::black_box(&result)).unwrap();
        });
        assert!(fast == reference, "RESULT block bytes diverged");
        let split = fast.iter().position(|&b| b == b'\n').unwrap();
        let header = std::str::from_utf8(&fast[..split]).unwrap();
        let body = &fast[split + 1..];
        let mut decoded = None;
        let decode = best_ns(|| {
            decoded = Some(read_result(header, &mut std::hint::black_box(body)).unwrap());
        });
        let mut decoded_reference = None;
        let decode_reference = best_ns(|| {
            decoded_reference =
                Some(reference_read_result(header, &mut std::hint::black_box(body)).unwrap());
        });
        assert_eq!(decoded.as_ref(), Some(&result));
        assert_eq!(decoded, decoded_reference);
        println!(
            "ns/entry: encode {encode:.1} (reference {encode_reference:.1}), \
             decode {decode:.1} (reference {decode_reference:.1})"
        );
        if cfg!(debug_assertions) {
            return;
        }
        for (what, fast, reference) in [
            ("encode", encode, encode_reference),
            ("decode", decode, decode_reference),
        ] {
            assert!(
                fast * 1.8 <= reference,
                "{what}: {fast:.1} ns/entry is not 1.8× under the reference's {reference:.1}"
            );
            assert!(fast <= 45.0, "{what}: {fast:.1} ns/entry is over 45");
        }
    }

    #[test]
    fn header_parsing_tolerates_unknown_and_missing_keys() {
        // A proto-1 header (no delta=, fallbacks= or fp=, and the
        // parallel= / elementwise= counters servers no longer send) still
        // parses, with the unreported fields defaulting to zero …
        let legacy = "RESULT 4 4 2 hits=1 misses=2 invalidations=0 parallel=0 elementwise=0 \
                      fused=0 nodes=7";
        let parsed = ResponseHeader::parse(legacy).unwrap();
        assert_eq!((parsed.rows, parsed.cols, parsed.nnz), (4, 4, 2));
        assert_eq!(parsed.stats.cache_misses, 2);
        assert_eq!(parsed.stats.delta_patches, 0);
        assert_eq!(parsed.fingerprint, 0);
        // … and keys from a *future* protocol revision are skipped.
        let future = "RESULT 1 1 0 hits=1 shards=9 fp=00000000000000ff";
        let parsed = ResponseHeader::parse(future).unwrap();
        assert_eq!(parsed.stats.cache_hits, 1);
        assert_eq!(parsed.fingerprint, 0xff);
        // Known keys with garbage values are still rejected.
        assert!(ResponseHeader::parse("RESULT 1 1 0 hits=lots").is_err());
        assert!(ResponseHeader::parse("RESULT 1 1 0 fp=zz").is_err());
    }

    #[test]
    fn err_replies_carry_the_stable_code() {
        let mut wire = Vec::new();
        write_err(
            &mut wire,
            &ServerError::UnknownInstance { name: "g".into() },
        )
        .unwrap();
        assert_eq!(
            String::from_utf8(wire).unwrap(),
            "ERR ENOINST unknown instance `g`\n"
        );
    }

    #[test]
    fn every_reply_parses_back_to_the_value_it_renders() {
        let health = |budget| HealthReport {
            status: "pressure",
            total_bytes: 4096,
            budget,
            instances: 2,
            connections: 3,
            exec_total: 8,
            slow_rate: 0.25,
            fallback_rate: 0.5,
            pressure_evictions: 1,
        };
        let update = |delta| UpdateReply {
            applied: 2,
            invalidated: 5,
            delta,
        };
        let entry = |name: &str, patches| InstanceEntry {
            name: name.into(),
            backend: BACKEND.into(),
            semiring: "bool".into(),
            delta_patches: patches,
            delta_fallbacks: 1,
        };
        let replies = vec![
            Reply::Hello(ServerHello::ours()),
            Reply::Instance("g".into(), SemiringKind::MinPlus),
            Reply::Dim("n".into(), 4),
            Reply::Load("G".into(), 3),
            Reply::Gen("G".into(), 32),
            Reply::Prepared(PrepareOutcome {
                qid: 1,
                reused_statement: false,
                reused_plan: true,
                plan_nodes: 7,
                plan_fingerprint: 0x00ab_cdef_0123_4567,
            }),
            Reply::Update("G".into(), update(DeltaWire::Applied { patched: 3 })),
            Reply::Update(
                "G".into(),
                update(DeltaWire::Fallback {
                    reason: "not-insert-only".into(),
                }),
            ),
            Reply::Update("G".into(), update(DeltaWire::Unreported)),
            Reply::Instances(vec![]),
            Reply::Instances(vec![entry("g", 0), entry("a:b", 9)]),
            Reply::Dropped("g".into()),
            Reply::Health(health(None)),
            Reply::Health(health(Some(1 << 20))),
            Reply::Saved("g".into(), 275, "/data dir/g.snap".into()),
            Reply::Restored("copy".into(), 1, 2),
            Reply::Persist("g".into(), true),
            Reply::Persist("g".into(), false),
            Reply::Walstat("g".into(), WalStat::default()),
            Reply::Walstat(
                "g".into(),
                WalStat {
                    persisted: true,
                    seq: 9,
                    records: 2,
                    wal_bytes: 57,
                    snapshot_bytes: 275,
                    compact_threshold: 1 << 20,
                },
            ),
            Reply::Pong,
            Reply::Bye,
        ];
        for reply in replies {
            let line = reply.to_string();
            assert!(line.starts_with("OK ") && !line.contains('\n'), "{line}");
            assert_eq!(Reply::parse(&line), Ok(reply.clone()), "{line}");
            // The client reads lines with trailing white space trimmed.
            assert_eq!(Reply::parse(line.trim_end()), Ok(reply), "{line}");
        }
        // Unknown keys a newer server appends are ignored.
        assert_eq!(
            Reply::parse("OK gen G nnz=5 extra=1"),
            Ok(Reply::Gen("G".into(), 5))
        );
        for bad in [
            "",
            "OK",
            "ERR EPROTO x",
            "OK nope",
            "OK gen G",
            "OK dim n x",
        ] {
            assert!(Reply::parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn slowlog_entries_parse_back_from_their_lines() {
        let entries = vec![
            SlowlogEntry {
                trace_id: 0x1f,
                label: "EXEC g 0".into(),
                total_us: 1234,
                detail: vec!["#0 var G".into(), "observed #0 computed=1".into()],
            },
            SlowlogEntry {
                trace_id: 2,
                label: String::new(),
                total_us: 0,
                detail: vec![],
            },
        ];
        let lines = slowlog_lines(entries.clone());
        assert_eq!(
            lines[0],
            "ENTRY trace=000000000000001f total_us=1234 detail=2 EXEC g 0"
        );
        assert_eq!(parse_slowlog(lines.clone()), Ok(entries));
        assert!(
            parse_slowlog(lines[..2].to_vec()).is_err(),
            "truncated detail"
        );
        assert!(
            parse_slowlog(vec!["#0 var G".into()]).is_err(),
            "no ENTRY line"
        );
    }

    #[test]
    fn err_lines_parse_back_to_their_category() {
        for error in [
            ServerError::UnknownInstance { name: "g".into() },
            ServerError::protocol("expected x, got `y`"),
            ServerError::LineTooLong,
        ] {
            let mut wire = Vec::new();
            write_err(&mut wire, &error).unwrap();
            let line = String::from_utf8(wire).unwrap();
            let message = error.to_string();
            assert_eq!(
                parse_err(line.trim_end()),
                Some((error.category(), message.as_str()))
            );
        }
        assert_eq!(
            parse_err("ERR EFUTURE x"),
            Some((ErrorCode::Unknown, "EFUTURE x"))
        );
        assert_eq!(parse_err("ERR"), None);
        assert_eq!(parse_err("OK pong"), None);
    }

    #[test]
    fn single_line_strips_control_characters() {
        assert_eq!(single_line("a\nb\tc"), "a b c");
        assert_eq!(single_line("plain"), "plain");
    }
}
