//! `matbench run`: every workload, rounds interleaved round-robin across
//! workloads, then the traced runs; prints every metric by name with its unit
//! and writes the result document `matbench compare` reads.

use crate::json::Json;
use crate::metrics::{end_to_end, END_TO_END, PER_LAYER};
use crate::spec::{sequence_hash, WORKLOADS};
use crate::stats::spread;
use crate::{child_host, out_root, Args, Measured, ROUNDS};

/// The host's loopback round trip may move this much between the start and
/// the end of a run before the run is marked noisy.
const NOISY_RTT_SHIFT: f64 = 0.25;

/// A smoke pass sends 1/50 of the operations: it proves the harness works,
/// and its numbers mean nothing.
const SMOKE_DIVISOR: usize = 50;

fn fmt(v: f64) -> String {
    match v.abs() {
        0.0 => "0".to_string(),
        a if a >= 1000.0 => format!("{v:.0}"),
        a if a >= 100.0 => format!("{v:.1}"),
        a if a >= 1.0 => format!("{v:.2}"),
        _ => format!("{v:.4}"),
    }
}

/// The per-request-class latency budget: where an operation's p50 goes.
/// The socket floor already holds one send and one receive per request, so
/// `client.send_us` is not a row of its own.  `parts` leaves
/// `session.unaccounted_us` out, so `parts / lat` above 1.1 means the layers
/// were measured to cost more than the whole.
fn budget(m: &Measured) -> Json {
    let requests = m.workload.requests_per_op() as f64;
    let store = m.layer("store.exec_us") + m.layer("store.update_us") + m.layer("store.query_us");
    let rows = [
        (
            "host.tcp_rtt_us x requests",
            requests * m.layer("host.tcp_rtt_us"),
        ),
        ("protocol.parse_us", m.layer("protocol.parse_us")),
        ("store (exec+update+query)", store),
        ("protocol.encode_us", m.layer("protocol.encode_us")),
        ("client.decode_us", m.layer("client.decode_us")),
    ];
    let parts: f64 = rows.iter().map(|r| r.1).sum();
    let lat = m.value(end_to_end("lat_p50_us"));
    let mut fields: Vec<(String, Json)> = rows
        .iter()
        .map(|(k, v)| (k.to_string(), Json::Num(*v)))
        .collect();
    fields.push((
        "session.unaccounted_us".into(),
        Json::Num(m.layer("session.unaccounted_us")),
    ));
    fields.push(("parts_us".into(), Json::Num(parts)));
    fields.push(("lat_p50_us".into(), Json::Num(lat)));
    fields.push(("parts_over_lat".into(), Json::Num(parts / lat)));
    Json::Obj(fields)
}

fn workload_doc(m: &Measured, seed: u64) -> Json {
    let end_to_end = Json::obj(END_TO_END.iter().map(|metric| {
        let values = m.values(metric.name);
        (
            metric.name,
            Json::obj([
                ("value", Json::Num(m.value(metric))),
                ("unit", Json::Str(metric.unit.into())),
                ("spread", Json::Num(spread(&values))),
                (
                    "rounds",
                    Json::Arr(values.into_iter().map(Json::Num).collect()),
                ),
            ]),
        )
    }));
    let per_layer = Json::obj(PER_LAYER.iter().map(|metric| {
        (
            metric.name,
            Json::obj([
                ("value", Json::Num(m.layer(metric.name))),
                ("unit", Json::Str(metric.unit.into())),
            ]),
        )
    }));
    Json::obj([
        ("why", Json::Str(m.workload.why.into())),
        // Equal seeds must give equal request sequences; this makes it visible.
        (
            "sequence_hash",
            Json::Str(format!("{:016x}", sequence_hash(m.workload, seed, 100))),
        ),
        ("attempted", Json::Num(m.attempted as f64)),
        ("failed", Json::Num(m.failed as f64)),
        (
            "fail_ratio",
            Json::Num(m.failed as f64 / m.attempted.max(1) as f64),
        ),
        (
            "samples_per_round",
            Json::Num(crate::stats::median(&m.values("attempted"))),
        ),
        ("end_to_end", end_to_end),
        ("per_layer", per_layer),
        ("budget", budget(m)),
        (
            "problems",
            Json::Arr(m.problems.iter().cloned().map(Json::Str).collect()),
        ),
    ])
}

fn print_tables(doc: &Json) {
    let workloads = doc.get("workloads").map_or(&[][..], Json::fields);
    println!("\n== end to end: value picked over rounds (quartile spread over rounds) ==");
    print!("{:<18}", "workload");
    for metric in END_TO_END {
        print!(" {:>22}", format!("{} [{}]", metric.name, metric.unit));
    }
    println!(" {:>10} {:>9}", "fail_ratio", "samples");
    for (name, w) in workloads {
        print!("{name:<18}");
        for metric in END_TO_END {
            let cell = w.get("end_to_end").and_then(|e| e.get(metric.name));
            let value = cell.and_then(|c| c.num_at("value")).unwrap_or(f64::NAN);
            let spread = cell.and_then(|c| c.num_at("spread")).unwrap_or(f64::NAN);
            print!(
                " {:>22}",
                format!("{} ({:.1}%)", fmt(value), spread * 100.0)
            );
        }
        println!(
            " {:>10} {:>9}",
            fmt(w.num_at("fail_ratio").unwrap_or(f64::NAN)),
            fmt(w.num_at("samples_per_round").unwrap_or(f64::NAN))
        );
    }
    println!("\n== per layer: traced run (0 = does not apply) ==");
    print!("{:<34}", "metric [unit]");
    for (name, _) in workloads {
        print!(" {:>12.12}", name);
    }
    println!();
    for metric in PER_LAYER {
        print!("{:<34}", format!("{} [{}]", metric.name, metric.unit));
        for (_, w) in workloads {
            let value = w
                .get("per_layer")
                .and_then(|p| p.get(metric.name))
                .and_then(|c| c.num_at("value"));
            print!(" {:>12}", fmt(value.unwrap_or(f64::NAN)));
        }
        println!();
    }
    println!("\n== latency budget per operation [us] ==");
    for (name, w) in workloads {
        let Some(budget) = w.get("budget") else {
            continue;
        };
        let cells: Vec<String> = budget
            .fields()
            .iter()
            .map(|(k, v)| format!("{k}={}", fmt(v.num().unwrap_or(f64::NAN))))
            .collect();
        let over = budget.num_at("parts_over_lat").unwrap_or(0.0) > 1.1;
        println!(
            "{name:<18} {}{}",
            cells.join("  "),
            if over { "  OVER" } else { "" }
        );
    }
    for (name, w) in workloads {
        for problem in w.get("problems").map_or(&[][..], Json::items) {
            println!("problem: {name}: {}", problem.str().unwrap_or("?"));
        }
    }
}

pub fn run_main(args: &Args) -> Result<(), String> {
    let seed: u64 = args.number("seed")?.unwrap_or(1);
    let (rounds, ops_divisor) = if args.smoke {
        (1, SMOKE_DIVISOR)
    } else {
        (ROUNDS, 1)
    };
    let seconds: f64 = match args.number("seconds")? {
        Some(s) => s,
        None if args.smoke => 10.0 / SMOKE_DIVISOR as f64,
        None => 10.0,
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = std::env::var("MATLANG_THREADS").unwrap_or_else(|_| "unset".to_string());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "matbench run: seed={seed} seconds={seconds} rounds={rounds} nproc={nproc} profile={profile} \
         MATLANG_THREADS={threads} pinned=one-cpu MALLOC_ARENA_MAX=1{}",
        if args.smoke { " SMOKE (not comparable)" } else { "" }
    );

    let host_start = child_host()?;
    let mut measured: Vec<Measured> = WORKLOADS.iter().map(Measured::new).collect();
    // Round-robin across workloads, so that a slow stretch of the host costs
    // every workload one round instead of one workload all of its rounds.
    for round in 0..rounds {
        for m in &mut measured {
            m.add_round(seed, seconds / rounds as f64, round);
        }
    }
    for m in &mut measured {
        m.add_traced(seed, ops_divisor);
    }
    let host_end = child_host()?;

    let rtt = |h: &Json| h.num_at("tcp_rtt_us").unwrap_or(f64::NAN);
    let shift = (rtt(&host_end) - rtt(&host_start)).abs() / rtt(&host_start);
    let noisy = shift.is_nan() || shift > NOISY_RTT_SHIFT;
    let doc = Json::obj([
        ("matbench", Json::Num(1.0)),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("rounds", Json::Num(rounds as f64)),
        ("comparable", Json::Bool(!args.smoke)),
        ("nproc", Json::Num(nproc as f64)),
        ("profile", Json::Str(profile.into())),
        ("matlang_threads", Json::Str(threads)),
        ("host_start", host_start),
        ("host_end", host_end),
        ("noisy", Json::Bool(noisy)),
        (
            "workloads",
            Json::obj(
                measured
                    .iter()
                    .map(|m| (m.workload.name, workload_doc(m, seed))),
            ),
        ),
    ]);

    for (label, key) in [("start", "host_start"), ("end", "host_end")] {
        let h = doc.get(key).expect("just built");
        println!(
            "host at {label}: tcp_rtt_us={} fsync_us={} memcpy_gb_s={} nproc={}",
            fmt(rtt(h)),
            fmt(h.num_at("fsync_us").unwrap_or(f64::NAN)),
            fmt(h.num_at("memcpy_gb_s").unwrap_or(f64::NAN)),
            fmt(h.num_at("nproc").unwrap_or(f64::NAN)),
        );
    }
    if noisy {
        println!(
            "host.tcp_rtt_us moved by {:.0}% during the run: \"noisy\": true",
            shift * 100.0
        );
    }
    print_tables(&doc);

    let path = match args.flag("out") {
        Some(path) => std::path::PathBuf::from(path),
        None => out_root()?
            .join("matbench-out")
            .join(format!("run-seed{seed}.json")),
    };
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).map_err(|e| format!("create {}: {e}", parent.display()))?;
    }
    std::fs::write(&path, doc.render() + "\n")
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("\nresult document: {}", path.display());
    println!(
        "trace files: {}",
        out_root()?
            .join("matbench-out")
            .join("trace-<workload>.json")
            .display()
    );

    let failed: u64 = measured.iter().map(|m| m.failed).sum();
    if failed > 0 {
        return Err(format!("{failed} operations failed or answered wrongly"));
    }
    Ok(())
}
