//! The MATLANG query server end to end: spawn it in-process, then drive a
//! client workload of mixed `EXEC`/`UPDATE` traffic over a mutating graph.
//!
//! The demo holds three **standing analytics queries** prepared over a
//! 2 000-node random graph and interleaves executions with incremental
//! edge updates.  Watch the cache columns: an `UPDATE G …` drops exactly
//! the plan nodes depending on `G`, so the next execution of each standing
//! query recomputes only its dirty subgraph — and queries over the
//! untouched `W` matrix keep answering from cache with zero misses.
//!
//! Run with `cargo run --release --example server_demo`.  The server runs
//! one session worker per core; each request runs on its session's worker.

use matlang::prelude::*;
use std::time::Instant;

fn main() {
    let n = 2_000;
    let handle = Server::spawn(ServerConfig::default()).expect("spawn server");
    println!(
        "server listening on {} · {} session workers\n",
        handle.addr(),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    let mut client = Client::connect(handle.addr()).expect("connect");
    client.create_instance("g", true).unwrap();
    client.set_dim("g", "n", n).unwrap();
    let g_nnz = client.gen_erdos_renyi("g", "G", "n", 8.0, 2021).unwrap();
    let w_nnz = client.gen_erdos_renyi("g", "W", "n", 4.0, 2022).unwrap();
    println!("instance `g`: n = {n}, G nnz = {g_nnz}, W nnz = {w_nnz}");

    // Three standing queries — two over G, one over W — batch-planned into
    // one DAG with a shared persistent cache.
    let queries = [
        ("total degree  1ᵀG1", "(transpose(ones(G)) * (G * ones(G)))"),
        (
            "two-hop walks 1ᵀG²1",
            "(transpose(ones(G)) * ((G * G) * ones(G)))",
        ),
        ("W edge weight 1ᵀW1", "(transpose(ones(W)) * (W * ones(W)))"),
    ];
    let qids: Vec<usize> = queries
        .iter()
        .map(|(_, text)| client.prepare("g", text).unwrap())
        .collect();
    println!("prepared {} standing queries\n", qids.len());

    let exec_round = |label: &str, client: &mut Client| {
        println!("-- {label}");
        for ((name, _), &qid) in queries.iter().zip(&qids) {
            let started = Instant::now();
            let result = client.exec("g", qid).unwrap();
            let value = result.entries.first().map(|&(_, _, v)| v).unwrap_or(0.0);
            println!(
                "   {name:22} = {value:>12.0}   {:>4} hits / {:>3} misses   {:?}",
                result.stats.cache_hits,
                result.stats.cache_misses,
                started.elapsed()
            );
        }
    };

    exec_round("cold start: every query computes", &mut client);
    exec_round(
        "steady state: answered from the persistent cache",
        &mut client,
    );

    // Mutate G: add a clique among the first 8 nodes, incremental updates.
    let mut edges = Vec::new();
    for i in 0..8usize {
        for j in 0..8usize {
            if i != j {
                edges.push((i, j, 1.0));
            }
        }
    }
    let started = Instant::now();
    let reply = client.update("g", "G", &edges).unwrap();
    println!(
        "\nUPDATE G: {} edges applied, {} dependent cache entries \
         invalidated in {:?} ({:?}) — W-dependent entries untouched\n",
        reply.applied,
        reply.invalidated,
        started.elapsed(),
        reply.delta,
    );
    exec_round(
        "after UPDATE G: G-queries recompute, the W-query stays warm",
        &mut client,
    );

    // A burst of mixed traffic: interleaved point updates and executions.
    let started = Instant::now();
    let rounds = 50;
    for round in 0..rounds {
        let node = 8 + (round % 512);
        client
            .update("g", "G", &[(node, (node * 7 + 1) % n, 1.0)])
            .unwrap();
        for &qid in &qids {
            client.exec("g", qid).unwrap();
        }
    }
    let elapsed = started.elapsed();
    println!(
        "\nmixed burst: {rounds} rounds of 1 UPDATE + {} EXECs in {elapsed:?} \
         ({:.0} requests/s)",
        qids.len(),
        (rounds * (1 + qids.len())) as f64 / elapsed.as_secs_f64()
    );

    // Delta maintenance: the same standing-query idea over a Boolean
    // instance, where an edge insert is an exact delta — the prepared
    // query is *patched*, never recomputed.
    client
        .create_instance_with("reach", true, SemiringKind::Boolean)
        .unwrap();
    client.set_dim("reach", "n", n).unwrap();
    client
        .gen_erdos_renyi("reach", "G", "n", 8.0, 2023)
        .unwrap();
    let two_hop = client.prepare("reach", "(G * G)").unwrap();
    client.exec("reach", two_hop).unwrap(); // warm
    let started = Instant::now();
    let reply = client
        .update("reach", "G", &[(0, 1, 1.0), (1, 2, 1.0)])
        .unwrap();
    let warm = client.exec("reach", two_hop).unwrap();
    println!(
        "\nBoolean instance: UPDATE+EXEC in {:?} ({:?}), {} cache misses — \
         the insert was delta-propagated, the standing query never recomputed",
        started.elapsed(),
        reply.delta,
        warm.stats.cache_misses
    );

    // Introspection: EXPLAIN renders the rewritten plan without running
    // it, and METRICS scrapes the process-wide registry (the same text a
    // Prometheus agent would pull).  Re-preparing a standing query first
    // gives the plan cache a guaranteed hit to show off.
    client.prepare("g", queries[0].1).unwrap();
    let explain = client.explain("g", "(transpose(G) * (G + G))").unwrap();
    println!("\nEXPLAIN (transpose(G) * (G + G)):");
    for line in explain.iter().take(8) {
        println!("   {line}");
    }

    // The typed METRICS accessor: counters and gauges as a name → value
    // map, no string-grepping of the exposition text.
    let metrics = client.metrics_map().unwrap();
    let sample = |name: &str| -> f64 {
        *metrics
            .get(name)
            .unwrap_or_else(|| panic!("metric {name} missing from METRICS scrape"))
    };
    let exec_total = sample("exec_total");
    let delta_applied = sample("delta_applied_total");
    let plan_hits = sample("plan_cache_hits_total");
    assert!(
        exec_total > 0.0,
        "exec_total must be nonzero after the demo"
    );
    assert!(
        delta_applied > 0.0,
        "the Boolean insert must count as an applied delta"
    );
    assert!(
        plan_hits > 0.0,
        "the re-prepare must count as a plan cache hit"
    );
    println!(
        "\nMETRICS: exec_total={exec_total} delta_applied_total={delta_applied} \
         plan_cache_hits_total={plan_hits}"
    );

    // STATS: the feedback loop's view of instance `g` — planned vs.
    // current vs. observed nnz per variable, drift, re-plan counters.
    let stats = client.stats("g").unwrap();
    println!("\nSTATS g:");
    for line in stats.iter().take(6) {
        println!("   {line}");
    }

    // Slow-query forensics: the slow threshold is a per-store setting, so
    // a second server configured with a zero threshold logs every EXEC —
    // with its plan + per-node observations — while the main one keeps
    // the default.
    let slow_handle = Server::spawn(ServerConfig {
        store: StoreConfig::builder().slow_ms(0).build(),
        ..ServerConfig::default()
    })
    .expect("spawn zero-threshold server");
    let mut slow_client = Client::connect(slow_handle.addr()).expect("connect");
    slow_client.create_instance("s", true).unwrap();
    slow_client.set_dim("s", "n", 200).unwrap();
    slow_client
        .gen_erdos_renyi("s", "G", "n", 8.0, 2023)
        .unwrap();
    let slow_qid = slow_client.prepare("s", queries[1].1).unwrap();
    let slow = slow_client.exec("s", slow_qid).unwrap();
    let slowlog = slow_client.slowlog(Some(8)).unwrap();
    let entry = slowlog
        .iter()
        .find(|e| e.trace_id == slow.trace)
        .expect("the zero-threshold EXEC must land in the slowlog");
    assert!(
        !entry.detail.is_empty(),
        "slowlog forensics must capture the plan and observations"
    );
    println!(
        "\nSLOWLOG: {} entries; slowest `{}` took {}us, {} forensic lines:",
        slowlog.len(),
        entry.label,
        entry.total_us,
        entry.detail.len()
    );
    for line in entry.detail.iter().take(4) {
        println!("   {line}");
    }

    // Windowed metrics: the typed scrape above recorded a baseline
    // snapshot into the window ring, so a WINDOW query now reports the
    // traffic since then (the slowlog EXEC, at least) as deltas/rates.
    let window = client.metrics_window(3600).unwrap();
    for line in window
        .lines()
        .filter(|l| l.starts_with("# window") || l.starts_with("exec_total_"))
    {
        println!("METRICS WINDOW: {line}");
    }
    assert!(
        window
            .lines()
            .any(|l| l.starts_with("exec_total_delta") && !l.ends_with(" 0")),
        "the slowlog EXEC must show up in the metrics window"
    );

    // Capacity & health: HEALTH answers readiness against the soft memory
    // budget (`MATLANG_MEM_BUDGET`, unset here → no pressure), TOP ranks
    // instances by attributed bytes, and TRACE EXPORT dumps the trace
    // ring as Chrome-tracing JSON for chrome://tracing or Perfetto.
    let health = client.health().unwrap();
    assert!(
        health.starts_with("status=ok"),
        "HEALTH must report ok with no budget set, got `{health}`"
    );
    println!("\nHEALTH: {health}");
    let top = client.top(Some(4)).unwrap();
    for line in &top {
        println!("TOP: {line}");
    }
    let top_bytes: u64 = top
        .iter()
        .flat_map(|l| l.split_whitespace())
        .filter_map(|tok| tok.strip_prefix("bytes="))
        .filter_map(|v| v.parse::<u64>().ok())
        .sum();
    assert!(
        top_bytes > 0,
        "TOP must attribute nonzero bytes to the demo instances"
    );
    let metrics = client.metrics_map().unwrap();
    assert!(
        metrics.get("instance_bytes").copied().unwrap_or(0.0) > 0.0,
        "the aggregate instance_bytes gauge must be nonzero"
    );
    let trace_json = client.trace_export(Some(16)).unwrap();
    assert!(
        trace_json.trim_start().starts_with('[') && trace_json.contains("\"ph\":\"X\""),
        "TRACE EXPORT must produce Chrome-trace JSON (array format)"
    );
    println!(
        "TRACE EXPORT: {} bytes of Chrome-trace JSON covering the newest traces",
        trace_json.len()
    );

    slow_client.quit().unwrap();
    slow_handle.shutdown();
    client.quit().unwrap();
    handle.shutdown();
    println!("servers shut down cleanly");
}
