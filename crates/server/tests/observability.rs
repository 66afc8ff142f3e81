//! Wire-level tests for the proto-2 `obs` surface: the `METRICS` /
//! `EXPLAIN` / `PROFILE` / `STATS` / `SLOWLOG` verbs, the `trace=` token
//! on `RESULT` headers, the detailed `LIST` reply and the empty-`UPDATE`
//! short-circuit.
//!
//! The metrics registry is process-wide, so counter assertions here are
//! monotone (nonzero / increased-by) rather than exact — other tests in
//! the same process may be incrementing them concurrently.

use matlang_server::{Client, DeltaWire, Server, ServerConfig, ServerHandle, StoreConfig};

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

/// Seeds one adaptive Boolean instance `g` with a 4-cycle.
fn seed(client: &mut Client, name: &str) {
    client
        .create_instance_with(name, true, matlang_server::SemiringKind::Boolean)
        .unwrap();
    client.set_dim(name, "n", 4).unwrap();
    client
        .load(
            name,
            "G",
            4,
            4,
            &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)],
        )
        .unwrap();
}

/// Reads the value of a counter from a Prometheus text exposition.
fn scrape(text: &str, name: &str) -> Option<f64> {
    text.lines()
        .find(|line| line.split_whitespace().next() == Some(name))
        .and_then(|line| line.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
}

#[test]
fn hello_announces_the_obs_capability() {
    let handle = spawn();
    let mut client = Client::connect(handle.addr()).unwrap();
    let hello = client.hello().unwrap();
    assert_eq!(hello.proto, 2);
    assert!(hello.has_capability("obs"), "caps: {:?}", hello.caps);
    handle.shutdown();
}

#[test]
fn metrics_scrape_exposes_the_request_counters() {
    let handle = spawn();
    let mut client = Client::connect(handle.addr()).unwrap();
    seed(&mut client, "g");
    let qid = client.prepare("g", "(G * G)").unwrap();
    client.exec("g", qid).unwrap();
    client.update("g", "G", &[(0, 2, 1.0)]).unwrap();

    let text = client.metrics().unwrap();
    assert!(
        text.contains("# TYPE exec_total counter"),
        "missing TYPE comment in:\n{text}"
    );
    for name in [
        "exec_total",
        "prepare_total",
        "update_total",
        "requests_total",
        "connections_total",
        "delta_applied_total",
    ] {
        let value = scrape(&text, name)
            .unwrap_or_else(|| panic!("metric {name} missing from scrape:\n{text}"));
        assert!(value >= 1.0, "{name} should be nonzero, got {value}");
    }
    // Latency histograms render as summaries with quantile lines.
    assert!(text.contains("# TYPE exec_latency_us summary"));
    assert!(text.contains("exec_latency_us{quantile=\"0.99\"}"));
    assert!(scrape(&text, "exec_latency_us_count").unwrap_or(0.0) >= 1.0);
    handle.shutdown();
}

#[test]
fn explain_renders_the_rewritten_plan_without_executing() {
    let handle = spawn();
    let mut client = Client::connect(handle.addr()).unwrap();
    seed(&mut client, "g");
    let lines = client.explain("g", "(transpose(G) * (G + G))").unwrap();
    assert!(
        lines[0].starts_with("instance g backend=adaptive semiring=bool"),
        "header line: {}",
        lines[0]
    );
    assert!(
        lines.iter().any(|l| l.starts_with("plan nodes=")),
        "missing plan summary in {lines:?}"
    );
    // Per-node lines carry the cost estimates and eligibility flags.
    let node = lines
        .iter()
        .find(|l| l.contains("matmul"))
        .unwrap_or_else(|| panic!("no matmul node in {lines:?}"));
    assert!(node.contains("est "), "no estimate on `{node}`");
    assert!(node.contains("cache="), "no cache flag on `{node}`");
    assert!(node.contains("delta="), "no delta flag on `{node}`");
    assert!(
        lines.iter().any(|l| l.starts_with("root q0 = #")),
        "missing root line in {lines:?}"
    );
    // EXPLAIN on garbage is an ERR, not a block.
    assert!(client.explain("g", "(G +").is_err());
    assert!(client.explain("missing", "G").is_err());
    handle.shutdown();
}

#[test]
fn profile_reports_per_node_wall_time_and_sizes() {
    let handle = spawn();
    let mut client = Client::connect(handle.addr()).unwrap();
    seed(&mut client, "g");
    let lines = client.profile("g", "(transpose(G) * (G + G))").unwrap();
    assert!(
        lines[0].starts_with("instance g backend=adaptive semiring=bool total_us="),
        "header line: {}",
        lines[0]
    );
    let nodes: Vec<&String> = lines.iter().filter(|l| l.starts_with('#')).collect();
    assert!(nodes.len() >= 3, "expected per-node lines, got {lines:?}");
    for node in &nodes {
        assert!(node.contains("computed="), "no computed count on `{node}`");
        assert!(node.contains("nnz="), "no nnz on `{node}`");
    }
    // Every node of a one-shot profile run computes exactly once (CSE
    // means `G` appears once in the DAG even though the text uses it
    // three times).
    assert!(
        nodes.iter().all(|l| l.contains("computed=1")),
        "one-shot profile should compute each node once: {lines:?}"
    );
    assert!(
        lines.last().unwrap().starts_with("totals nodes="),
        "missing totals line in {lines:?}"
    );
    handle.shutdown();
}

#[test]
fn result_headers_carry_a_per_query_trace_id() {
    let handle = spawn();
    let mut client = Client::connect(handle.addr()).unwrap();
    seed(&mut client, "g");
    let qid = client.prepare("g", "(G * G)").unwrap();
    let first = client.exec("g", qid).unwrap();
    let second = client.exec("g", qid).unwrap();
    assert_ne!(first.trace, 0, "EXEC must run under a trace");
    assert_ne!(second.trace, 0);
    assert_ne!(first.trace, second.trace, "each EXEC gets a fresh trace id");
    let one_shot = client.query("g", "(G + G)").unwrap();
    assert_ne!(one_shot.trace, 0, "QUERY must run under a trace");
    handle.shutdown();
}

#[test]
fn list_reports_backend_semiring_and_delta_counters() {
    let handle = spawn();
    let mut client = Client::connect(handle.addr()).unwrap();
    seed(&mut client, "g");
    client.create_instance("plain", false).unwrap();
    let qid = client.prepare("g", "(G * G)").unwrap();
    client.exec("g", qid).unwrap(); // warm: the insert below patches
    let reply = client.update("g", "G", &[(0, 2, 1.0)]).unwrap();
    assert!(matches!(reply.delta, DeltaWire::Applied { patched } if patched > 0));

    let names = client.list().unwrap();
    assert_eq!(names, vec!["g".to_string(), "plain".to_string()]);
    let entries = client.list_detailed().unwrap();
    assert_eq!(entries.len(), 2);
    assert_eq!(entries[0].name, "g");
    assert_eq!(entries[0].backend, "adaptive");
    assert_eq!(entries[0].semiring, "bool");
    assert!(
        entries[0].delta_patches > 0,
        "the applied delta must show up in LIST: {entries:?}"
    );
    assert_eq!(entries[0].delta_fallbacks, 0);
    assert_eq!(entries[1].name, "plain");
    assert_eq!(entries[1].backend, "adaptive");
    assert_eq!(entries[1].semiring, "real");
    handle.shutdown();
}

#[test]
fn instance_dense_is_an_alias_answered_with_the_real_backend() {
    use std::io::{BufRead, BufReader, Write};
    let handle = spawn();
    let mut stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    stream.write_all(b"INSTANCE g dense bool\n").unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    assert_eq!(reply.trim_end(), "OK instance g adaptive bool");
    handle.shutdown();
}

#[test]
fn metrics_map_parses_the_exposition_into_typed_samples() {
    let handle = spawn();
    let mut client = Client::connect(handle.addr()).unwrap();
    seed(&mut client, "g");
    let qid = client.prepare("g", "(G * G)").unwrap();
    client.exec("g", qid).unwrap();

    let map = client.metrics_map().unwrap();
    for name in ["exec_total", "requests_total", "connections_total"] {
        let value = map
            .get(name)
            .unwrap_or_else(|| panic!("{name} missing from {map:?}"));
        assert!(*value >= 1.0, "{name} should be nonzero, got {value}");
    }
    // Labeled summary samples (histogram quantiles) are skipped; their
    // un-labeled _count twin is kept.
    assert!(
        map.keys().all(|k| !k.contains('{')),
        "labeled key in {map:?}"
    );
    assert!(map.get("exec_latency_us_count").copied().unwrap_or(0.0) >= 1.0);
    handle.shutdown();
}

#[test]
fn metrics_window_reports_deltas_and_rates() {
    let handle = spawn();
    let mut client = Client::connect(handle.addr()).unwrap();
    seed(&mut client, "g");
    let qid = client.prepare("g", "(G * G)").unwrap();
    // A bare METRICS records a snapshot into the window ring; traffic
    // between two scrapes shows up as windowed deltas.
    client.metrics().unwrap();
    client.exec("g", qid).unwrap();
    client.exec("g", qid).unwrap();

    let text = client.metrics_window(3600).unwrap();
    assert!(
        text.lines()
            .next()
            .unwrap()
            .starts_with("# window requested_s=3600"),
        "window header missing:\n{text}"
    );
    let delta = scrape(&text, "exec_total_delta")
        .unwrap_or_else(|| panic!("exec_total_delta missing from:\n{text}"));
    assert!(
        delta >= 2.0,
        "both EXECs must land in the window, got {delta}"
    );
    assert!(
        scrape(&text, "exec_total_rate").is_some(),
        "missing rate gauge in:\n{text}"
    );
    handle.shutdown();
}

#[test]
fn stats_reports_the_feedback_state_over_the_wire() {
    let handle = spawn();
    let mut client = Client::connect(handle.addr()).unwrap();
    seed(&mut client, "g");
    let qid = client.prepare("g", "(G * G)").unwrap();
    client.exec("g", qid).unwrap();

    let lines = client.stats("g").unwrap();
    assert!(
        lines[0].starts_with("instance g backend=adaptive semiring=bool generation=0 replans=0"),
        "header: {}",
        lines[0]
    );
    assert!(
        lines.iter().any(|l| l.starts_with("var G ")
            && l.contains("current_nnz=4")
            && l.contains("referenced=yes")),
        "missing var line in {lines:?}"
    );
    assert!(client.stats("missing").is_err());
    handle.shutdown();
}

#[test]
fn slowlog_captures_plan_and_profile_forensics() {
    // A server whose slow threshold is zero, so this EXEC qualifies.
    let handle = spawn_with(StoreConfig::builder().slow_ms(0).build());
    let mut client = Client::connect(handle.addr()).unwrap();
    seed(&mut client, "slowg");
    let qid = client.prepare("slowg", "(transpose(G) * (G * G))").unwrap();
    let result = client.exec("slowg", qid).unwrap();
    assert_ne!(result.trace, 0);

    let entries = client.slowlog(Some(32)).unwrap();
    let entry = entries
        .iter()
        .find(|e| e.trace_id == result.trace)
        .unwrap_or_else(|| panic!("EXEC trace {:x} not in slowlog: {entries:?}", result.trace));
    assert!(entry.label.contains("EXEC slowg"), "label: {}", entry.label);
    assert!(
        entry.detail.iter().any(|l| l.starts_with("plan nodes=")),
        "forensics must carry the rewritten-DAG explain: {:?}",
        entry.detail
    );
    assert!(
        entry.detail.iter().any(|l| l.starts_with("observed #")),
        "forensics must carry per-node observations: {:?}",
        entry.detail
    );
    handle.shutdown();
}

#[test]
fn profile_does_not_pollute_the_warm_memo_cache() {
    let handle = spawn();
    let mut client = Client::connect(handle.addr()).unwrap();
    seed(&mut client, "g");
    let qid = client.prepare("g", "(G * G)").unwrap();
    client.exec("g", qid).unwrap(); // cold run populates the cache
    let warm_before = client.exec("g", qid).unwrap();
    assert_eq!(warm_before.stats.cache_misses, 0);

    // PROFILE executes the same text on a scratch executor; the
    // instance's persistent memo cache must be untouched either way.
    client.profile("g", "(G * G)").unwrap();
    client.profile("g", "(G + G)").unwrap();

    let warm_after = client.exec("g", qid).unwrap();
    assert_eq!(
        warm_after.stats.cache_misses, 0,
        "PROFILE invalidated the warm cache"
    );
    assert_eq!(
        warm_after.stats.cache_hits, warm_before.stats.cache_hits,
        "PROFILE changed the warm EXEC hit profile"
    );
    handle.shutdown();
}

#[test]
fn empty_update_batches_short_circuit_without_touching_the_cache() {
    let handle = spawn();
    let mut client = Client::connect(handle.addr()).unwrap();
    seed(&mut client, "g");
    let qid = client.prepare("g", "(G * G)").unwrap();
    client.exec("g", qid).unwrap(); // warm the cache

    let reply = client.update("g", "G", &[]).unwrap();
    assert_eq!(reply.applied, 0);
    assert_eq!(reply.invalidated, 0);
    assert_eq!(
        reply.delta,
        DeltaWire::Applied { patched: 0 },
        "an empty batch is a trivially exact delta application"
    );
    // The warm cache survived: the next EXEC is a single root hit.
    let warm = client.exec("g", qid).unwrap();
    assert_eq!(warm.stats.cache_misses, 0, "empty UPDATE dropped the cache");
    assert_eq!(warm.stats.cache_hits, 1);
    // An empty batch against an unknown variable still errors.
    assert!(client.update("g", "missing", &[]).is_err());
    handle.shutdown();
}

#[test]
fn looping_queries_cannot_grow_the_trace_ring_without_bound() {
    use matlang_obs::trace::{recent, MAX_SPANS_PER_TRACE, RING_CAPACITY};

    let handle = spawn();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.create_instance("fw", true).unwrap();
    // n = 6: three nested loops compute ≈ 2 000 plan nodes per request,
    // twice the span cap.
    let n = 6;
    client.set_dim("fw", "n", n).unwrap();
    let entries: Vec<(usize, usize, f64)> = (0..n * n)
        .map(|k| (k / n, k % n, if k / n == k % n { 0.75 } else { 0.01 }))
        .collect();
    client.load("fw", "G", n, n, &entries).unwrap();
    let text = matlang_algorithms::graphs::transitive_closure_fw("G", "n").to_string();

    let mut traced = Vec::with_capacity(300);
    for _ in 0..300 {
        let result = client.query("fw", &text).unwrap();
        assert!(result.stats.cache_misses > MAX_SPANS_PER_TRACE as u64);
        traced.push(result.trace);
    }

    let ring = recent(RING_CAPACITY);
    assert!(ring.len() <= RING_CAPACITY);
    assert!(ring.iter().all(|t| t.spans.len() <= MAX_SPANS_PER_TRACE));
    assert!(
        ring.iter().map(|t| t.spans.len()).sum::<usize>() <= RING_CAPACITY * MAX_SPANS_PER_TRACE
    );
    // The looping requests themselves sit far below the cap: their nodes
    // inside the loops open no spans at all.
    let ours: Vec<_> = ring.iter().filter(|t| traced.contains(&t.id)).collect();
    assert!(!ours.is_empty(), "the newest QUERY traces must be retained");
    for t in ours {
        assert!(
            t.spans.len() <= 64 && t.dropped_spans == 0,
            "QUERY trace {:x} holds {} spans (+{} dropped)",
            t.id,
            t.spans.len(),
            t.dropped_spans
        );
        assert!(t.spans.iter().any(|s| s.name.starts_with("loop:for ")));
    }
    // The export stays a valid document and reports the drop count.
    let json = client.trace_export(Some(8)).unwrap();
    assert!(matlang_obs::export::validate_chrome_trace(&json).unwrap() > 0);
    assert!(json.contains("\"dropped_spans\":0"));
    handle.shutdown();
}
