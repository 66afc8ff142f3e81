//! One untraced round: a fresh server in this (fresh) process, one client
//! connection, a closed loop of operations for a fixed time, then the
//! oracle.  End-to-end metrics only ever come from here.

use crate::json::Json;
use crate::oracle::{self, BenchRing};
use crate::spec::{Delta, Misses, Req, Source, Workload, INSTANCE, SYM, VAR, WAL_COMPACT};
use crate::stats::{median, percentile, sorted};
use matlang::server::{
    Client, ClientError, DeltaWire, SemiringKind, Server, ServerConfig, ServerHandle, Store,
    StoreConfig, WireResult,
};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Latency samples are reserved up front so that recording one never
/// reallocates inside the timed loop.
const SAMPLE_CAPACITY: usize = 1 << 21;

/// Set-ups per round; the first one's server is the one measured.
const SETUPS: usize = 5;

/// A running server plus where its durable instance lives.
pub struct Rig {
    pub handle: ServerHandle,
    pub data_dir: Option<PathBuf>,
}

impl Rig {
    /// Stops the server and deletes its data directory, so that the next
    /// server spawned in the same place starts empty instead of recovering.
    pub fn shut_down(self) {
        self.handle.shutdown();
        if let Some(dir) = &self.data_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

pub fn store_config(data_dir: Option<&Path>) -> StoreConfig {
    match data_dir {
        Some(dir) => StoreConfig::builder()
            .data_dir(dir)
            .wal_compact(WAL_COMPACT)
            .build(),
        None => StoreConfig::builder().no_data_dir().build(),
    }
}

/// Spawns the server every measurement uses: two session workers (the host
/// has two cores and the load is one closed-loop client) and, for a durable
/// workload, a data directory of its own under `work_dir`.
pub fn spawn_server(w: &Workload, work_dir: &Path) -> Result<Rig, String> {
    let data_dir = w.durable.then(|| work_dir.join("data"));
    if let Some(dir) = &data_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    let handle = Server::spawn(ServerConfig {
        workers: 2,
        store: store_config(data_dir.as_deref()),
        ..ServerConfig::default()
    })
    .map_err(|e| format!("spawn server: {e}"))?;
    Ok(Rig { handle, data_dir })
}

pub fn semiring_kind(w: &Workload) -> SemiringKind {
    match w.ring {
        crate::spec::Ring::Real => SemiringKind::Real,
        crate::spec::Ring::Bool => SemiringKind::Boolean,
    }
}

/// Creates and fills the instance; the standing queries are prepared by the
/// caller (over the wire here, in-process in the traced replay).
pub fn load_instance(client: &mut Client, w: &Workload, seed: u64) -> Result<(), ClientError> {
    client.create_instance_with(INSTANCE, true, semiring_kind(w))?;
    client.set_dim(INSTANCE, SYM, w.n)?;
    match w.source {
        Source::ErdosRenyi { degree } => {
            client.gen_erdos_renyi(INSTANCE, VAR, SYM, degree, w.gen_seed(seed))?;
        }
        Source::DiagDominant => client.load(INSTANCE, VAR, w.n, w.n, &w.dense_entries(seed))?,
    }
    if w.durable {
        client.set_persist(INSTANCE, true)?;
    }
    Ok(())
}

/// One reply per standing query, then one per one-shot text.  The first
/// probe of a round is also the cache warm-up; both probes feed the oracle.
pub fn probe(
    client: &mut Client,
    w: &Workload,
    oneshot: &[String],
) -> Result<Vec<WireResult>, ClientError> {
    let mut replies = Vec::with_capacity(w.prepared.len() + oneshot.len());
    for qid in 0..w.prepared.len() {
        replies.push(client.exec(INSTANCE, qid)?);
    }
    for text in oneshot {
        replies.push(client.query(INSTANCE, text)?);
    }
    Ok(replies)
}

/// The query texts in probe order.
pub fn probe_texts(w: &Workload, oneshot: &[String]) -> Vec<String> {
    w.prepared
        .iter()
        .map(|t| t.to_string())
        .chain(oneshot.iter().cloned())
        .collect()
}

/// Sends one operation's requests and checks what each reply must say.
fn send_op(
    client: &mut Client,
    w: &Workload,
    oneshot: &[String],
    reqs: &[Req],
    acked: &mut Vec<(usize, usize)>,
) -> Result<(), String> {
    for &req in reqs {
        match req {
            Req::Exec(qid) => {
                let reply = client.exec(INSTANCE, qid).map_err(|e| e.to_string())?;
                check_misses(w.misses, reply.stats.cache_misses)?;
            }
            Req::Query(idx) => {
                client
                    .query(INSTANCE, &oneshot[idx])
                    .map_err(|e| e.to_string())?;
            }
            Req::Update(i, j) => {
                let reply = client
                    .update(INSTANCE, VAR, &[(i, j, 1.0)])
                    .map_err(|e| e.to_string())?;
                // Acknowledged means applied, whatever else the reply says.
                acked.push((i, j));
                let got = match reply.delta {
                    DeltaWire::Applied { .. } => Some(Delta::Applied),
                    DeltaWire::Fallback { .. } => Some(Delta::Fallback),
                    DeltaWire::Unreported => None,
                };
                check_delta(w.delta, got, &format!("{:?}", reply.delta))?;
            }
        }
    }
    Ok(())
}

pub fn check_misses(expected: Misses, misses: u64) -> Result<(), String> {
    match (expected, misses) {
        (Misses::Zero, m) if m > 0 => Err(format!("expected misses=0, got {m}")),
        (Misses::Positive, 0) => Err("expected misses>0, got 0".to_string()),
        _ => Ok(()),
    }
}

pub fn check_delta(expected: Delta, got: Option<Delta>, reply: &str) -> Result<(), String> {
    if got == Some(expected) {
        Ok(())
    } else {
        Err(format!("expected delta={expected:?}, got `{reply}`"))
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// Collects problems; the first few are reported verbatim.
#[derive(Default)]
pub struct Problems {
    pub count: u64,
    pub messages: Vec<String>,
}

impl Problems {
    pub fn add(&mut self, message: String) {
        self.count += 1;
        if self.messages.len() < 5 {
            self.messages.push(message);
        }
    }

    pub fn check(&mut self, what: &str, outcome: Result<(), String>) {
        if let Err(e) = outcome {
            self.add(format!("{what}: {e}"));
        }
    }
}

/// Compares probe replies with the oracle evaluated over `instance`.
pub fn verify_probe<K: BenchRing>(
    problems: &mut Problems,
    what: &str,
    texts: &[String],
    replies: &[WireResult],
    instance: &oracle::LocalInstance<K>,
) {
    for (text, reply) in texts.iter().zip(replies) {
        let outcome = oracle::eval(instance, text).and_then(|want| oracle::matches(reply, &want));
        problems.check(&format!("{what} `{}`", truncate(text)), outcome);
    }
}

fn truncate(text: &str) -> String {
    if text.len() > 48 {
        format!(
            "{}…",
            &text[..text.char_indices().nth(48).map_or(text.len(), |(i, _)| i)]
        )
    } else {
        text.to_string()
    }
}

/// Restarts from the data directory and times it: store open (snapshot load
/// + WAL replay), re-`PREPARE` and the first `EXEC` of every standing query.
pub fn recover(w: &Workload, data_dir: &Path) -> Result<(f64, f64, Vec<WireResult>), String> {
    let start = Instant::now();
    let store = Store::with_config(store_config(Some(data_dir)));
    let open_us = start.elapsed().as_secs_f64() * 1e6;
    let mut replies = Vec::new();
    for (qid, text) in w.prepared.iter().enumerate() {
        store
            .prepare(INSTANCE, text)
            .map_err(|e| format!("recovery prepare: {e}"))?;
        let mut result = store
            .exec(INSTANCE, &[qid])
            .map_err(|e| format!("recovery exec: {e}"))?;
        replies.push(result.remove(0));
    }
    Ok((start.elapsed().as_secs_f64() * 1e3, open_us, replies))
}

/// Spawn, create, fill, `PREPARE` and warm: everything a request waits for
/// the first time and never again.
fn set_up(
    w: &Workload,
    seed: u64,
    work_dir: &Path,
    oneshot: &[String],
) -> Result<(Rig, Client, Vec<WireResult>), String> {
    let rig = spawn_server(w, work_dir)?;
    let mut client = Client::connect(rig.handle.addr()).map_err(|e| format!("connect: {e}"))?;
    load_instance(&mut client, w, seed).map_err(|e| format!("set-up: {e}"))?;
    for text in w.prepared {
        client
            .prepare(INSTANCE, text)
            .map_err(|e| format!("prepare: {e}"))?;
    }
    let first = probe(&mut client, w, oneshot).map_err(|e| format!("warm-up: {e}"))?;
    Ok((rig, client, first))
}

/// Runs one round and returns its result document.
pub fn run<K: BenchRing>(
    w: &Workload,
    seed: u64,
    seconds: f64,
    work_dir: &Path,
) -> Result<Json, String> {
    let oneshot = w.oneshot_texts();
    let texts = probe_texts(w, &oneshot);
    let mut problems = Problems::default();

    let setup_start = Instant::now();
    let (rig, mut client, first) = set_up(w, seed, work_dir, &oneshot)?;
    let mut setup_times = vec![setup_start.elapsed().as_secs_f64()];

    let mut latencies_ns: Vec<u64> = Vec::with_capacity(SAMPLE_CAPACITY);
    let mut acked: Vec<(usize, usize)> = Vec::with_capacity(SAMPLE_CAPACITY / 16);
    let mut ops = w.ops(seed);
    let mut reqs = Vec::new();
    let loop_start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let elapsed = loop {
        ops.next_op(&mut reqs);
        let sent = Instant::now();
        let outcome = send_op(&mut client, w, &oneshot, &reqs, &mut acked);
        let done = Instant::now();
        latencies_ns.push((done - sent).as_nanos() as u64);
        if let Err(e) = outcome {
            problems.add(format!("op {}: {e}", latencies_ns.len()));
        }
        if done - loop_start >= budget {
            break done - loop_start;
        }
    };

    let last = probe(&mut client, w, &oneshot).map_err(|e| format!("final probe: {e}"))?;
    let peak_rss_mb = peak_rss_mb();
    drop(client);
    let data_dir = rig.data_dir.clone();
    rig.handle.shutdown();

    // The oracle runs after the peak-RSS reading so that its own matrices
    // do not count against the server.
    let mut local = oracle::build_instance::<K>(w, seed);
    verify_probe(&mut problems, "first reply", &texts, &first, &local);
    for &(i, j) in &acked {
        oracle::apply_update(&mut local, i, j);
    }
    verify_probe(&mut problems, "last reply", &texts, &last, &local);

    if let Some(dir) = &data_dir {
        match recover(w, dir) {
            Ok((_, _, replies)) => {
                verify_probe(&mut problems, "recovered reply", &texts, &replies, &local)
            }
            Err(e) => problems.add(e),
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    // A single set-up is a few milliseconds, too short to time once, so it
    // is repeated on fresh servers and the median reported.  The repeats
    // come last: a server torn down before the measured one leaves its heap
    // behind, and `recompute_kernels` then runs 20 % faster on it than it
    // does in a process that has only ever held one server.
    while setup_times.len() < SETUPS {
        let start = Instant::now();
        let (rig, client, _) = set_up(w, seed, work_dir, &oneshot)?;
        setup_times.push(start.elapsed().as_secs_f64());
        drop(client);
        rig.shut_down();
    }
    let setup_s = median(&setup_times);

    let sorted_us = |ns: &[u64]| sorted(&ns.iter().map(|&ns| ns as f64 / 1e3).collect::<Vec<_>>());
    let lat_us = sorted_us(&latencies_ns);
    // The traced run sends `traced_ops` operations; its overhead is judged
    // against the same stretch of this round, because workloads that
    // accumulate state (pending overlays, a growing graph) slow as they go.
    let head = sorted_us(&latencies_ns[..w.traced_ops.min(latencies_ns.len())]);
    let attempted = latencies_ns.len() as u64;
    Ok(Json::obj([
        ("workload", Json::Str(w.name.to_string())),
        ("setup_s", Json::Num(setup_s)),
        ("attempted", Json::Num(attempted as f64)),
        // A wrong answer is a failed operation even though it was timed.
        ("failed", Json::Num(problems.count.min(attempted) as f64)),
        (
            "ops_per_s",
            Json::Num(attempted as f64 / elapsed.as_secs_f64()),
        ),
        ("lat_p50_us", Json::Num(percentile(&lat_us, 50.0))),
        ("lat_p50_head_us", Json::Num(percentile(&head, 50.0))),
        ("peak_rss_mb", Json::Num(peak_rss_mb)),
        (
            "problems",
            Json::Arr(problems.messages.into_iter().map(Json::Str).collect()),
        ),
    ]))
}
