//! `matbench`: the end-to-end and per-layer benchmark of the MATLANG query
//! server.  `README.md` beside this package has the metric glossary.
//!
//! ```text
//! matbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! matbench run [--seed <n>] [--seconds <s>] [--smoke] [--out <file>]
//! matbench compare <a.json> <b.json>
//! ```
//!
//! The first form is the benchmark driver's: one workload, one JSON line.
//! `run` measures every workload with its rounds interleaved and prints every
//! metric; `compare` applies the regression bounds to two `run` documents.

mod affinity;
mod compare;
mod host;
mod json;
mod layers;
mod metrics;
mod oracle;
mod report;
mod round;
mod spec;
mod stats;
mod trace;

use json::Json;
use matlang::semiring::{Boolean, Real};
use metrics::{Metric, END_TO_END, PER_LAYER};
use spec::{Ring, Workload};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// Rounds per workload.  Each is a fresh process with a fresh server, so the
/// metrics registry, the peak RSS and the data directory start clean, and a
/// round that lands in one of this host's slow windows is passed over (see
/// `metrics::Pick`).
pub const ROUNDS: usize = 5;

/// Wall-clock allowance of a child on top of its measuring time (set-up,
/// oracle, recovery); a child past it is killed and counted as failed.
const CHILD_CAP: Duration = Duration::from_secs(30);

pub struct Args {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
    pub smoke: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut out = Args {
            positional: Vec::new(),
            flags: Vec::new(),
            smoke: false,
        };
        while let Some(arg) = args.next() {
            match arg.strip_prefix("--") {
                Some("smoke") => out.smoke = true,
                Some(name) => {
                    let value = args
                        .next()
                        .ok_or_else(|| format!("--{name} needs a value"))?;
                    out.flags.push((name.to_string(), value));
                }
                None => out.positional.push(arg),
            }
        }
        Ok(out)
    }

    pub fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    pub fn number<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.flag(name)
            .map(|v| {
                v.parse::<T>()
                    .map_err(|_| format!("--{name}: cannot parse `{v}`"))
            })
            .transpose()
    }

    fn required<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        self.number(name)?
            .ok_or_else(|| format!("missing --{name}"))
    }

    fn workload(&self) -> Result<&'static Workload, String> {
        let name = self.flag("workload").ok_or("missing --workload")?;
        spec::workload(name).ok_or_else(|| format!("unknown workload `{name}`"))
    }
}

/// Where a run keeps its files: beside the executable, which the build puts
/// inside the checkout's (ignored) target directory — on the repository's
/// filesystem, not a tmpfs, so fsync costs what it costs there.
pub fn out_root() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    Ok(exe
        .parent()
        .ok_or("executable has no parent directory")?
        .to_path_buf())
}

/// Runs this executable again as `subcommand` in a scratch directory of its
/// own, waits at most `budget` + [`CHILD_CAP`], and parses the last line it
/// printed.
fn child(subcommand: &str, args: &[String], budget: Duration, tag: &str) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let work_dir = out_root()?
        .join("matbench-work")
        .join(format!("{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&work_dir)
        .map_err(|e| format!("create {}: {e}", work_dir.display()))?;
    let outcome = (|| {
        let mut child = Command::new(exe)
            .arg(subcommand)
            .args(args)
            .arg("--work-dir")
            .arg(&work_dir)
            // glibc otherwise gives each server thread an arena of its own,
            // and which thread serves the connection then decides, for the
            // life of the process, whether large frees are trimmed: the
            // kernel-bound workload ran at 2.9 or 4.2 ms per operation by
            // that luck alone.  One arena makes a process repeatable.
            .env("MALLOC_ARENA_MAX", "1")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {subcommand}: {e}"))?;
        let deadline = Instant::now() + budget + CHILD_CAP;
        // The child prints one line of a few KiB at most, below the pipe's
        // 64 KiB, so it cannot block on a parent that reads only after it
        // exits.
        loop {
            match child
                .try_wait()
                .map_err(|e| format!("wait {subcommand}: {e}"))?
            {
                Some(_) => break,
                None if Instant::now() >= deadline => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("{subcommand} exceeded its time cap and was killed"));
                }
                None => std::thread::sleep(Duration::from_millis(50)),
            }
        }
        let output = child
            .wait_with_output()
            .map_err(|e| format!("collect {subcommand}: {e}"))?;
        if !output.status.success() {
            return Err(format!("{subcommand} exited with {}", output.status));
        }
        let text = String::from_utf8_lossy(&output.stdout);
        let line = text
            .lines()
            .last()
            .ok_or_else(|| format!("{subcommand} printed nothing"))?;
        Json::parse(line).map_err(|e| format!("{subcommand} output: {e}"))
    })();
    let _ = std::fs::remove_dir_all(&work_dir);
    outcome
}

fn child_round(w: &Workload, seed: u64, seconds: f64, tag: &str) -> Result<Json, String> {
    let args = [
        "--workload".to_string(),
        w.name.to_string(),
        "--seed".to_string(),
        seed.to_string(),
        "--seconds".to_string(),
        seconds.to_string(),
    ];
    child("round", &args, Duration::from_secs_f64(seconds), tag)
}

fn child_traced(
    w: &Workload,
    seed: u64,
    reference_p50_us: f64,
    ops_divisor: usize,
) -> Result<Json, String> {
    let host = child_host()?;
    let args = [
        "--host".to_string(),
        host.render(),
        "--workload".to_string(),
        w.name.to_string(),
        "--seed".to_string(),
        seed.to_string(),
        "--reference-p50-us".to_string(),
        reference_p50_us.to_string(),
        "--ops-divisor".to_string(),
        ops_divisor.to_string(),
    ];
    child("traced", &args, Duration::ZERO, "traced")
}

pub fn child_host() -> Result<Json, String> {
    child("host", &[], Duration::ZERO, "host")
}

fn pin() {
    if affinity::pin_to_one_cpu().is_none() {
        eprintln!("matbench: could not pin to one CPU; this measurement may be noisy");
    }
}

fn work_dir(args: &Args) -> Result<PathBuf, String> {
    Ok(PathBuf::from(
        args.flag("work-dir").ok_or("missing --work-dir")?,
    ))
}

/// `round`: one untraced round in this process.
fn round_main(args: &Args) -> Result<(), String> {
    let w = args.workload()?;
    let (seed, seconds) = (args.required("seed")?, args.required("seconds")?);
    pin();
    let doc = match w.ring {
        Ring::Real => round::run::<Real>(w, seed, seconds, &work_dir(args)?),
        Ring::Bool => round::run::<Boolean>(w, seed, seconds, &work_dir(args)?),
    }?;
    println!("{}", doc.render());
    Ok(())
}

/// `traced`: the traced run of one workload in this process.
fn traced_main(args: &Args) -> Result<(), String> {
    let mut w = *args.workload()?;
    let divisor: usize = args.required("ops-divisor")?;
    w.traced_ops = (w.traced_ops / divisor.max(1)).max(2);
    let (seed, reference) = (args.required("seed")?, args.required("reference-p50-us")?);
    let host = Json::parse(args.flag("host").ok_or("missing --host")?)
        .ok()
        .as_ref()
        .and_then(host::Host::from_json)
        .ok_or("--host: not a calibration document")?;
    let trace_path = out_root()?
        .join("matbench-out")
        .join(format!("trace-{}.json", w.name));
    pin();
    let dir = work_dir(args)?;
    let doc = match w.ring {
        Ring::Real => layers::run::<Real>(&w, seed, reference, host, &dir, &trace_path),
        Ring::Bool => layers::run::<Boolean>(&w, seed, reference, host, &dir, &trace_path),
    }?;
    println!("{}", doc.render());
    Ok(())
}

/// `host`: the calibration, on the CPU the rounds run on.
fn host_main(args: &Args) -> Result<(), String> {
    pin();
    let host = host::Host::measure(&work_dir(args)?)?;
    println!("{}", host.to_json().render());
    Ok(())
}

/// Everything measured about one workload.
pub struct Measured {
    pub workload: &'static Workload,
    pub rounds: Vec<Json>,
    pub traced: Option<Json>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Measured {
    pub fn new(workload: &'static Workload) -> Measured {
        Measured {
            workload,
            rounds: Vec::new(),
            traced: None,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    /// Folds one child's document (or its failure to produce one) in.
    fn absorb(&mut self, what: &str, outcome: Result<Json, String>) -> Option<Json> {
        match outcome {
            Ok(doc) => {
                self.attempted += doc.num_at("attempted").unwrap_or(0.0) as u64;
                self.failed += doc.num_at("failed").unwrap_or(0.0) as u64;
                let problems = doc.get("problems").map_or(&[][..], Json::items);
                self.problems
                    .extend(problems.iter().filter_map(|p| p.str().map(String::from)));
                Some(doc)
            }
            // A child that died or hung: everything it would have sent is
            // lost, which one failed attempt stands for.
            Err(e) => {
                self.attempted += 1;
                self.failed += 1;
                self.problems.push(format!("{what}: {e}"));
                None
            }
        }
    }

    pub fn add_round(&mut self, seed: u64, seconds: f64, index: usize) {
        let outcome = child_round(self.workload, seed, seconds, &format!("r{index}"));
        if let Some(doc) = self.absorb(&format!("round {index}"), outcome) {
            self.rounds.push(doc);
        }
    }

    pub fn add_traced(&mut self, seed: u64, ops_divisor: usize) {
        let reference = stats::median(&self.values("lat_p50_head_us"));
        let outcome = child_traced(self.workload, seed, reference, ops_divisor);
        self.traced = self.absorb("traced run", outcome);
    }

    pub fn values(&self, metric: &str) -> Vec<f64> {
        self.rounds
            .iter()
            .filter_map(|r| r.num_at(metric))
            .collect()
    }

    /// The run's value of an end-to-end metric: its pick over the rounds.
    pub fn value(&self, metric: &Metric) -> f64 {
        metric.over_rounds(&self.values(metric.name))
    }

    pub fn layer(&self, name: &str) -> f64 {
        self.traced
            .as_ref()
            .and_then(|t| t.get("layers"))
            .and_then(|l| l.num_at(name))
            .unwrap_or(0.0)
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// The benchmark driver's entry point: one workload, one result line.
fn driver_main(args: &Args) -> Result<(), String> {
    let w = args.workload()?;
    let seed: u64 = args.required("seed")?;
    let seconds: f64 = args.required("seconds")?;
    let trace: u8 = args.required("trace")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    let mut m = Measured::new(w);
    let table = if trace == 0 {
        for r in 0..ROUNDS {
            m.add_round(seed, seconds / ROUNDS as f64, r);
        }
        END_TO_END
    } else {
        // The traced run sends a fixed number of operations; one untraced
        // round beside it gives the latency its overhead is measured against.
        m.add_round(seed, seconds / ROUNDS as f64, 0);
        m.add_traced(seed, 1);
        PER_LAYER
    };
    for problem in &m.problems {
        eprintln!("matbench: {}: {problem}", w.name);
    }
    let metrics = Json::obj(table.iter().map(|metric| {
        let value = if trace == 0 {
            m.value(metric)
        } else {
            m.layer(metric.name)
        };
        (
            metric.name,
            Json::obj([
                ("value", Json::Num(value)),
                ("unit", Json::Str(metric.unit.to_string())),
            ]),
        )
    }));
    let doc = Json::obj([
        ("correct", Json::Bool(m.correct())),
        ("attempted", Json::Num(m.attempted.max(1) as f64)),
        ("failed", Json::Num(m.failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", doc.render());
    Ok(())
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("matbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.positional.first().map(String::as_str) {
        None => driver_main(&args),
        Some("run") => report::run_main(&args),
        Some("compare") => match &args.positional[1..] {
            [a, b] => compare::compare_main(a, b),
            _ => Err("usage: matbench compare <a.json> <b.json>".to_string()),
        },
        Some("round") => round_main(&args),
        Some("traced") => traced_main(&args),
        Some("host") => host_main(&args),
        Some(other) => Err(format!("unknown command `{other}`")),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("matbench: {e}");
            ExitCode::from(1)
        }
    }
}
