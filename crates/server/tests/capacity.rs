//! Wire-level tests for the capacity-observability surface: byte-level
//! resource accounting (`instance_bytes{name=…}` vs ground truth), the
//! `HEALTH` / `TOP` / `TRACE EXPORT` verbs, per-session accounting, the
//! `_sum`/`_count` histogram series, ring wraparound behaviour for
//! `SLOWLOG` and `TRACE EXPORT`, and pressure shedding under a per-store
//! memory budget.
//!
//! The metrics registry and trace rings are process-wide, so assertions
//! here are scoped to this file's own instance names and trace labels —
//! sibling tests in the same binary run concurrently.

use matlang_matrix::{MatrixRepr, MatrixStorage, SparseMatrix};
use matlang_semiring::Real;
use matlang_server::{Client, Server, ServerConfig, ServerHandle, Store, StoreConfig};

fn spawn() -> ServerHandle {
    spawn_with(StoreConfig::default())
}

fn spawn_with(store: StoreConfig) -> ServerHandle {
    Server::spawn(ServerConfig {
        workers: 2,
        store,
        ..ServerConfig::default()
    })
    .expect("server spawns on an ephemeral port")
}

/// Reads the value of a (possibly labelled) sample from a Prometheus
/// text exposition by exact name match on the first token.
fn scrape(text: &str, name: &str) -> Option<f64> {
    text.lines()
        .find(|line| line.split_whitespace().next() == Some(name))
        .and_then(|line| line.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
}

/// Asserts `observed` is within ±10 % of `truth` (the ISSUE's accounting
/// accuracy budget; the len-based accounting should in fact be exact).
fn assert_within_ten_percent(observed: f64, truth: usize, context: &str) {
    let truth = truth as f64;
    assert!(
        (observed - truth).abs() <= truth * 0.10,
        "{context}: observed {observed} vs ground truth {truth}"
    );
}

/// The labelled per-instance gauge, scraped off the wire.
fn instance_bytes(client: &mut Client, name: &str) -> f64 {
    let text = client.metrics().unwrap();
    scrape(&text, &format!("instance_bytes{{name=\"{name}\"}}"))
        .unwrap_or_else(|| panic!("no instance_bytes sample for `{name}` in:\n{text}"))
}

#[test]
fn instance_bytes_matches_ground_truth_across_backends() {
    let handle = spawn();
    let mut client = Client::connect(handle.addr()).unwrap();

    // Adaptive backend holding sparse data: the CSR accounting path.
    // Ground truth mirrors the server's own conversion on an identical
    // local matrix, so the figure is recomputed from dims and nnz.
    let sparse_entries: Vec<(usize, usize, f64)> = (0..16)
        .map(|i| (i * 2, (i * 2 + 5) % 32, 1.0 + i as f64))
        .collect();
    client.create_instance("cap_csr", true).unwrap();
    client.set_dim("cap_csr", "n", 32).unwrap();
    client
        .load("cap_csr", "G", 32, 32, &sparse_entries)
        .unwrap();
    let mut csr_mirror = MatrixRepr::<Real>::from_sparse(
        SparseMatrix::from_triplets(
            32,
            32,
            sparse_entries
                .iter()
                .map(|&(i, j, v)| (i, j, Real(v)))
                .collect(),
        )
        .unwrap(),
    );
    assert!(
        matches!(csr_mirror, MatrixRepr::Sparse(_)),
        "1.6% density must pick the CSR representation"
    );
    assert_within_ten_percent(
        instance_bytes(&mut client, "cap_csr"),
        csr_mirror.heap_bytes(),
        "adaptive/CSR after LOAD",
    );
    // Inserting new entries grows the CSR arrays; mirror the same
    // updates locally and the accounting must follow exactly.
    let updates = [(1, 1, 7.0), (3, 30, 8.0)];
    client.update("cap_csr", "G", &updates).unwrap();
    for &(i, j, v) in &updates {
        csr_mirror.set_entry(i, j, Real(v)).unwrap();
    }
    assert_within_ten_percent(
        instance_bytes(&mut client, "cap_csr"),
        csr_mirror.heap_bytes(),
        "adaptive/CSR after UPDATE",
    );
    client.set_dim("cap_csr", "n", 32).unwrap();
    assert_within_ten_percent(
        instance_bytes(&mut client, "cap_csr"),
        csr_mirror.heap_bytes(),
        "adaptive/CSR after DIM",
    );

    // Adaptive backend holding dense data: the adaptive wrapper must
    // delegate to the dense accounting once density picks Dense.
    let full: Vec<(usize, usize, f64)> = (0..6)
        .flat_map(|i| (0..5).map(move |j| (i, j, (i * 6 + j + 1) as f64)))
        .collect();
    client.create_instance("cap_adense", true).unwrap();
    client.set_dim("cap_adense", "n", 6).unwrap();
    client.load("cap_adense", "G", 6, 6, &full).unwrap();
    let adense_mirror = MatrixRepr::<Real>::from_sparse(
        SparseMatrix::from_triplets(
            6,
            6,
            full.iter().map(|&(i, j, v)| (i, j, Real(v))).collect(),
        )
        .unwrap(),
    );
    assert!(
        matches!(adense_mirror, MatrixRepr::Dense(_)),
        "83% density must pick the dense representation"
    );
    assert_within_ten_percent(
        instance_bytes(&mut client, "cap_adense"),
        adense_mirror.heap_bytes(),
        "adaptive/dense after LOAD",
    );

    handle.shutdown();
}

#[test]
fn health_and_top_expose_the_accounted_instance() {
    let handle = spawn();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.create_instance("cap_health", true).unwrap();
    client.set_dim("cap_health", "n", 16).unwrap();
    client
        .gen_erdos_renyi("cap_health", "G", "n", 3.0, 11)
        .unwrap();
    let qid = client.prepare("cap_health", "(G * G)").unwrap();
    client.exec("cap_health", qid).unwrap();

    // No budget is configured in this process, so pressure is impossible.
    let health = client.health().unwrap();
    let field = |key: &str| {
        health
            .split_whitespace()
            .find_map(|tok| tok.strip_prefix(&format!("{key}=")))
            .map(str::to_string)
            .unwrap_or_else(|| panic!("missing {key}= in HEALTH `{health}`"))
    };
    assert_eq!(field("status"), "ok");
    assert!(field("bytes").parse::<u64>().unwrap() > 0);
    assert_eq!(field("budget"), "-");
    assert!(field("instances").parse::<usize>().unwrap() >= 1);
    assert!(field("connections").parse::<i64>().unwrap() >= 1);
    assert!(field("exec").parse::<u64>().unwrap() >= 1);
    // The rates are well-formed finite fractions.
    assert!(field("slow_rate").parse::<f64>().unwrap().is_finite());
    assert!(field("fallback_rate").parse::<f64>().unwrap().is_finite());

    // TOP carries one line for our instance with a warm memo cache and
    // the per-root residency column.
    let top = client.top(None).unwrap();
    let line = top
        .iter()
        .find(|l| l.starts_with("instance=cap_health "))
        .unwrap_or_else(|| panic!("no cap_health line in TOP: {top:?}"));
    let token = |key: &str| {
        line.split_whitespace()
            .find_map(|tok| tok.strip_prefix(&format!("{key}=")))
            .map(str::to_string)
            .unwrap_or_else(|| panic!("missing {key}= in `{line}`"))
    };
    assert_eq!(token("backend"), "adaptive");
    assert_eq!(token("semiring"), "real");
    assert!(token("bytes").parse::<u64>().unwrap() > 0);
    assert!(token("data").parse::<u64>().unwrap() > 0);
    assert!(token("cache_entries").parse::<u64>().unwrap() >= 1);
    assert!(token("execs").parse::<u64>().unwrap() >= 1);
    assert!(
        token("roots").starts_with("q0:"),
        "roots column should lead with query 0: `{line}`"
    );

    // TOP 0 is a valid (empty) truncation; TOP n caps the row count.
    assert!(client.top(Some(0)).unwrap().is_empty());
    assert!(client.top(Some(1)).unwrap().len() == 1);

    handle.shutdown();
}

#[test]
fn histograms_expose_sum_and_count_series_on_the_wire() {
    let handle = spawn();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.create_instance("cap_hist", true).unwrap();
    client.set_dim("cap_hist", "n", 8).unwrap();
    client
        .gen_erdos_renyi("cap_hist", "G", "n", 2.0, 3)
        .unwrap();
    let qid = client.prepare("cap_hist", "(G * G)").unwrap();
    client.exec("cap_hist", qid).unwrap();

    // Lifetime exposition: `_sum`/`_count` are plain (un-labeled) series,
    // so they survive into the typed metrics map.
    let map = client.metrics_map().unwrap();
    let count = map
        .get("exec_latency_us_count")
        .copied()
        .expect("exec_latency_us_count series");
    let sum = map
        .get("exec_latency_us_sum")
        .copied()
        .expect("exec_latency_us_sum series");
    assert!(count >= 1.0);
    assert!(sum >= 0.0 && sum.is_finite());

    // Windowed exposition inherits the same series names.  Two scrapes
    // bracket the exec so the window has a baseline snapshot.
    client.exec("cap_hist", qid).unwrap();
    client.metrics().unwrap(); // second snapshot closes the window
    let window = client.metrics_window(3600).unwrap();
    assert!(
        window.contains("exec_latency_us_sum ") && window.contains("exec_latency_us_count "),
        "windowed exposition lost the _sum/_count series:\n{window}"
    );

    handle.shutdown();
}

#[test]
fn trace_export_emits_valid_chrome_trace_json() {
    let handle = spawn();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.create_instance("cap_trace", true).unwrap();
    client.set_dim("cap_trace", "n", 8).unwrap();
    client
        .gen_erdos_renyi("cap_trace", "G", "n", 2.0, 5)
        .unwrap();
    // QUERY opens a parse span, so its trace carries structure and lands
    // in the bounded ring for the export to pick up.
    for _ in 0..3 {
        client.query("cap_trace", "(G * transpose(G))").unwrap();
    }

    let text = client.trace_export(Some(16)).unwrap();
    let events = matlang_obs::export::validate_chrome_trace(&text)
        .unwrap_or_else(|e| panic!("TRACE EXPORT is not valid Chrome-trace JSON: {e}\n{text}"));
    assert!(events >= 1, "expected at least one exported event");
    assert!(text.contains("\"ph\":\"X\""));

    handle.shutdown();
}

#[test]
fn sessions_account_requests_bytes_and_exec_time() {
    let handle = spawn();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.create_instance("cap_sess", true).unwrap();
    client.set_dim("cap_sess", "n", 16).unwrap();
    client
        .gen_erdos_renyi("cap_sess", "G", "n", 3.0, 9)
        .unwrap();
    let qid = client.prepare("cap_sess", "(G * G)").unwrap();
    for _ in 0..50 {
        client.exec("cap_sess", qid).unwrap();
    }

    // Our session is live (registered) until `quit`; other tests'
    // sessions may coexist, so find the one that did the work.
    let sessions = handle.sessions();
    let ours = sessions
        .iter()
        .find(|s| s.requests >= 54)
        .unwrap_or_else(|| panic!("no session with ≥54 requests in {sessions:?}"));
    assert!(ours.bytes_out > 0, "bytes written must be accounted");
    assert!(
        ours.exec_time_us > 0,
        "50 EXEC dispatches must accrue execution time"
    );

    handle.shutdown();
}

#[test]
fn slowlog_and_trace_export_survive_ring_wraparound() {
    // Zero threshold: every traced request to this server is a slow query.
    let handle = spawn_with(StoreConfig::builder().slow_ms(0).build());
    let mut client = Client::connect(handle.addr()).unwrap();
    client.create_instance("cap_wrap", true).unwrap();
    client.set_dim("cap_wrap", "n", 4).unwrap();
    client
        .load("cap_wrap", "G", 4, 4, &[(0, 1, 1.0), (1, 2, 1.0)])
        .unwrap();

    // 300 requests — past the 256-slot rings — collecting the trace id
    // each RESULT header echoes, in issue order.
    const ISSUED: usize = 300;
    let mut issued_ids = Vec::with_capacity(ISSUED);
    for _ in 0..ISSUED {
        issued_ids.push(client.query("cap_wrap", "(G * G)").unwrap().trace);
    }

    // Our retained slowlog entries must be exactly the *newest* suffix
    // of what we issued: same ids, same order, no duplicates, and
    // strictly fewer than issued (the ring wrapped).
    let entries = client.slowlog(Some(512)).unwrap();
    let ours: Vec<u64> = entries
        .iter()
        .filter(|e| e.label.starts_with("QUERY cap_wrap"))
        .map(|e| e.trace_id)
        .collect();
    assert!(!ours.is_empty(), "no cap_wrap entries in SLOWLOG");
    assert!(
        ours.len() < ISSUED,
        "ring must have evicted some of the {ISSUED} issued entries"
    );
    assert_eq!(
        ours,
        issued_ids[ISSUED - ours.len()..],
        "retained entries must be the newest issued suffix, in order"
    );
    let ids: Vec<u64> = entries.iter().map(|e| e.trace_id).collect();
    let mut deduped = ids.clone();
    deduped.sort_unstable();
    deduped.dedup();
    assert_eq!(deduped.len(), ids.len(), "duplicate trace ids in SLOWLOG");

    // Asking for the newest 8 returns exactly 8 (the ring is full) and
    // they are the tail of the full listing.
    let newest = client.slowlog(Some(8)).unwrap();
    assert_eq!(newest.len(), 8);
    let tail: Vec<u64> = entries[entries.len() - 8..]
        .iter()
        .map(|e| e.trace_id)
        .collect();
    assert_eq!(
        newest.iter().map(|e| e.trace_id).collect::<Vec<_>>(),
        tail,
        "SLOWLOG n must be the newest n entries"
    );

    // The trace ring wrapped too: the export of "everything" is valid
    // Chrome-trace JSON bounded by the ring capacity, and every exported
    // trace lane is distinct.
    let text = client.trace_export(Some(512)).unwrap();
    let events = matlang_obs::export::validate_chrome_trace(&text)
        .unwrap_or_else(|e| panic!("wrapped TRACE EXPORT invalid: {e}"));
    assert!(
        events >= 256,
        "a full 256-trace ring must export at least one event per trace, got {events}"
    );

    handle.shutdown();
}

fn top_token(lines: &[String], instance: &str, key: &str) -> u64 {
    let line = lines
        .iter()
        .find(|l| l.starts_with(&format!("instance={instance} ")))
        .unwrap_or_else(|| panic!("no {instance} line in TOP: {lines:?}"));
    line.split_whitespace()
        .find_map(|tok| tok.strip_prefix(&format!("{key}=")))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("missing {key}= in `{line}`"))
}

/// A soft memory budget smaller than the loaded data keeps the store
/// permanently over budget, so every mutating request sheds derived
/// state — the memo caches of *idle* instances — while the just-used
/// instance keeps its warm cache and primary data is never touched.
/// Plans live with their instance and are not shed.
#[test]
fn over_budget_store_sheds_plans_and_idle_memo_caches() {
    // One byte of budget: the primary data alone exceeds it forever.
    let store = Store::with_config(StoreConfig::builder().mem_budget(Some(1)).build());
    for name in ["a", "b"] {
        store.create_instance(name, true).unwrap();
        store.set_dim(name, "n", 16).unwrap();
        let entries: Vec<(usize, usize, f64)> = (0..16).map(|i| (i, (i + 3) % 16, 1.0)).collect();
        store.load_matrix(name, "G", 16, 16, entries).unwrap();
    }
    store.prepare("a", "(G * G)").unwrap();
    store.prepare("b", "(G + G)").unwrap();

    // Warm both instances, `b` last: the shed pass after `b`'s EXEC sees
    // `a` idle with a resident memo cache and evicts it.  `b` (just used)
    // must keep its warm cache.
    store.exec("a", &[0]).unwrap();
    store.exec("b", &[0]).unwrap();

    let top = store.top(None);
    assert_eq!(top.len(), 2);
    assert_eq!(
        top_token(&top, "a", "cache_entries"),
        0,
        "idle instance's memo cache must be shed: {top:?}"
    );
    assert!(
        top_token(&top, "b", "cache_entries") >= 1,
        "the just-used instance keeps its warm cache: {top:?}"
    );
    // Primary data is never shed.
    assert!(top_token(&top, "a", "data") > 0);
    assert!(top_token(&top, "b", "data") > 0);

    let health = store.health();
    assert_eq!(health.status, "pressure");
    assert_eq!(health.budget, Some(1));
    assert!(health.total_bytes > 1);
    assert!(
        health.pressure_evictions >= 1,
        "memo evictions must be counted, got {}",
        health.pressure_evictions
    );
    assert!(health.render().contains("status=pressure"));

    // Shed state is derived: the evicted instance recomputes and answers
    // correctly on the next EXEC.
    let replay = store.exec("a", &[0]).unwrap();
    assert_eq!(replay.len(), 1);
}

/// Configuration belongs to the store it was built into: a second store
/// in the same process, built later with different (default) settings,
/// must not change how the first one behaves — and vice versa.
#[test]
fn two_stores_in_one_process_keep_their_own_settings() {
    fn header_token(store: &Store, key: &str) -> String {
        let stats = store.stats("t").unwrap();
        stats[0]
            .split_whitespace()
            .find_map(|t| t.strip_prefix(&format!("{key}=")))
            .unwrap_or_else(|| panic!("missing {key}= in STATS header: {}", stats[0]))
            .to_string()
    }

    // Built first: one byte of budget, plans frozen for good.  Built
    // second: the defaults (no budget, re-plan on 4× drift), spelled out
    // so the environment cannot move them.
    let tight = Store::with_config(
        StoreConfig::builder()
            .no_data_dir()
            .mem_budget(Some(1))
            .replan_drift(f64::MAX)
            .build(),
    );
    let default = Store::with_config(
        StoreConfig::builder()
            .no_data_dir()
            .mem_budget(None)
            .replan_drift(matlang_server::DEFAULT_REPLAN_DRIFT)
            .build(),
    );
    assert_eq!(tight.config().mem_budget(), Some(1));
    assert_eq!(default.config().mem_budget(), None);

    // Identical traffic: plan while G holds one entry, then grow it to 16
    // (a (16+1)/(1+1) = 8.5× drift) and execute again.
    let fill: Vec<(usize, usize, f64)> = (0..16).map(|i| (i, (i + 3) % 16, 1.0)).collect();
    let mut answers = Vec::new();
    for store in [&tight, &default] {
        store.create_instance("t", true).unwrap();
        store.set_dim("t", "n", 16).unwrap();
        store
            .load_matrix("t", "G", 16, 16, vec![(0, 1, 1.0)])
            .unwrap();
        let qid = store.prepare("t", "(G * G)").unwrap().qid;
        store.exec("t", &[qid]).unwrap();
        store.update("t", "G", &fill).unwrap();
        answers.push(store.exec("t", &[qid]).unwrap().remove(0).entries);
    }
    assert_eq!(answers[0], answers[1], "settings never change results");

    let health = tight.health();
    assert_eq!(health.status, "pressure");
    assert_eq!(health.budget, Some(1));
    assert!(health.render().contains(" budget=1 "));
    assert_eq!(
        header_token(&tight, "replans"),
        "0",
        "a frozen store never re-plans"
    );
    assert_eq!(
        header_token(&tight, "threshold"),
        format!("{:.2}", f64::MAX)
    );

    let health = default.health();
    assert_eq!(health.status, "ok");
    assert_eq!(health.budget, None);
    assert!(health.render().contains(" budget=- "));
    assert_eq!(
        header_token(&default, "replans"),
        "1",
        "8.5× drift is past the 4× default"
    );
    assert_eq!(header_token(&default, "threshold"), "4.00");
}
