//! End-to-end and per-layer benchmark of the DAG-Rider runtime.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <tcp_steady|tcp_saturate_4k> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the workload with tracing off and
//! prints every end-to-end metric; with `--trace 1` it runs the workload
//! untraced and then traced, runs the simulated consensus-core probe,
//! and prints every per-layer metric plus the tracing overhead. Either way the last line of standard output is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`; a
//! violated correctness check prints `"correct": false` and exits 1.
//! `--short` shrinks every workload for the smoke test (`smoke.py`).
//! Workload choices and the layer → metric map are in `README.md`.

mod layers;
mod sim;
mod spans;
mod stats;
mod tcp;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Read as _;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use dagrider_core::DurableEvent;
use dagrider_types::{Committee, Vertex};

use crate::layers::Layer;
use crate::sim::{SimConfig, SimRun};
use crate::spans::Spans;
use crate::stats::{mean, median, quantile};
use crate::tcp::{Load, TcpConfig, TcpRun};

/// Every run ends within 180 s, one way or another.
const DEADLINE: Duration = Duration::from_secs(170);
/// Open-loop offered rate of `tcp_steady`, transactions per second (see
/// README.md for why this rate).
const STEADY_RATE: f64 = 4000.0;
/// Closed-loop depth per connection of `tcp_saturate_4k`. A sweep at
/// 4 KiB on a 2-vCPU host (README.md, "The closed-loop depth") found
/// ordered tx/s flat at about 6k from 512 to 2048 per connection while
/// p50 doubled with each step: the cluster is saturated from 512 on.
/// 1024 sits on that plateau with twice the first saturating depth's
/// headroom, so a faster data path can raise throughput about 5× before
/// the window binds it again.
const SATURATE_DEPTH: usize = 1024;
/// Cluster start-ups per untraced TCP episode; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Rounds of the shortened simulation run twice for the determinism check.
const DETERMINISM_ROUNDS: u64 = 24;
/// Measured seconds per `tcp_steady` episode (see [`episodes`]).
const STEADY_EPISODE_S: f64 = 5.0;
/// Measured seconds per `tcp_saturate_4k` episode.
const SATURATE_EPISODE_S: f64 = 2.0;
/// `tcp_saturate_4k` reads peak RSS once node 0 has ordered this many
/// transactions, so a throughput gain does not read as a memory loss.
const SATURATE_RSS_AT_TXS: u64 = 8_000;

/// What the phase watchdog reports if the deadline passes.
static PHASE: Mutex<&str> = Mutex::new("start-up");

fn phase(name: &'static str) {
    *PHASE.lock().unwrap_or_else(PoisonError::into_inner) = name;
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    TcpSteady,
    TcpSaturate4k,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "tcp_steady" => Some(Self::TcpSteady),
            "tcp_saturate_4k" => Some(Self::TcpSaturate4k),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::TcpSteady => "tcp_steady",
            Self::TcpSaturate4k => "tcp_saturate_4k",
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    short: bool,
    /// Set in a child process running one episode of a TCP run.
    episode: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut short) =
        (None, None, None, false, false);
    let mut episode = None;
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => trace = value()? == "1",
            "--short" => short = true,
            "--episode" => episode = Some(value()?.parse().map_err(|e| format!("--episode: {e}"))?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        short,
        episode,
    })
}

/// Per-run scratch directory inside the checkout, removed on drop.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One metric: name, value, unit.
type Metric = (String, f64, String);

/// The outcome every workload reports.
struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
    config: String,
    spans: Spans,
    counts: String,
}

fn owned(layer: Layer) -> Vec<Metric> {
    layer.into_iter().map(|(n, v, u)| (n.to_owned(), v, u.to_owned())).collect()
}

fn tcp_config(workload: Workload, seconds: f64, short: bool, traced: bool) -> TcpConfig {
    let steady = workload == Workload::TcpSteady;
    TcpConfig {
        tx_size: if steady { 128 } else { 4096 },
        store: steady,
        load: if steady {
            Load::Open { rate: STEADY_RATE }
        } else {
            Load::Closed { depth: SATURATE_DEPTH }
        },
        connections: std::thread::available_parallelism().map_or(1, |n| n.get()).min(2),
        warmup: Duration::from_secs_f64(if steady && !short { 1.0 } else { 0.5 }),
        window: Duration::from_secs_f64(seconds),
        drain: Duration::from_secs(10),
        setup_reps: if short || traced { 1 } else { SETUP_REPS },
        rss_at_txs: (!steady).then_some(if short { 2_000 } else { SATURATE_RSS_AT_TXS }),
    }
}

/// The measured windows a TCP run is split into, each run by a process
/// of its own: each metric is the median over episodes, which keeps one
/// unlucky cluster from moving it. `tcp_saturate_4k` needs short ones:
/// it retains every ordered byte many times over (logs, batch stores,
/// four nodes in one process), and the allocator does not hand that
/// memory back after a cluster shuts down, so fresh processes bound its
/// peak memory.
fn episodes(workload: Workload, seconds: f64) -> Vec<f64> {
    let episode =
        if workload == Workload::TcpSaturate4k { SATURATE_EPISODE_S } else { STEADY_EPISODE_S };
    let n = (seconds / episode).round().max(1.0);
    vec![seconds / n; n as usize]
}

/// Per-layer metrics of a TCP run.
fn tcp_layers(run: &TcpRun) -> Layer {
    let txs = run.ordered_txs_total.max(1) as f64;
    let s = &run.stats;
    vec![
        ("client.ack_ms_p50", quantile(&run.ack_ms, 0.5), "ms"),
        ("client.ack_ms_p99", quantile(&run.ack_ms, 0.99), "ms"),
        ("client.after_ack_ms_p50", quantile(&run.after_ack_ms, 0.5), "ms"),
        ("net.admission.accepted", s.accepted as f64, "count"),
        ("net.admission.shed", s.shed as f64, "count"),
        ("net.admission.queue_high_water", s.queue_high_water as f64, "count"),
        ("net.round_ms", run.round_ms, "ms"),
        ("net.waves_per_s", run.waves_per_s, "1/s"),
        ("net.txs_per_vertex", run.txs_per_vertex, "count"),
        ("net.batch_bytes_per_tx", s.batch_bytes as f64 / txs, "B"),
        ("net.dropped_frames", s.dropped_frames as f64, "count"),
        ("net.verify_depth_max", s.verify_depth_max as f64, "count"),
        ("net.rejected_shares", s.rejected_shares as f64, "count"),
        ("store.wal_bytes_per_tx", s.store_bytes as f64 / txs, "B"),
        ("gen.lag_ms_p99", quantile(&run.lag_ms, 0.99), "ms"),
    ]
}

/// Per-layer metrics of the traced consensus-core probe, plus the layer
/// timings measured on its captured inputs.
fn sim_layers(
    cfg: &SimConfig,
    seed: u64,
    run: &SimRun,
    scratch: &Path,
    spans: &mut Spans,
) -> Result<Layer, String> {
    let (rbc_busy, rbc) = run.calls("engine.rbc");
    let (coin_busy, coin) = run.calls("engine.coin");
    let (_, timers) = run.calls("engine.timer");
    let actor_busy: Duration =
        run.spans.iter().map(|s| Duration::from_nanos(s.end_ns - s.start_ns)).sum();
    let vertices_ordered = run.ordered_vertices.max(1) as f64;
    let mut layer: Layer = vec![
        ("engine.rbc_us_p50", median(&rbc), "us"),
        ("engine.rbc_busy_s", rbc_busy.as_secs_f64(), "s"),
        ("engine.coin_us_p50", median(&coin), "us"),
        ("engine.coin_busy_s", coin_busy.as_secs_f64(), "s"),
        ("engine.timer_calls", timers.len() as f64, "count"),
        ("simnet.self_s", run.wall.saturating_sub(actor_busy).as_secs_f64(), "s"),
        ("simnet.msgs_per_vertex", run.messages as f64 / vertices_ordered, "count"),
        ("simnet.bytes_per_vertex", run.bytes as f64 / vertices_ordered, "B"),
        ("order_latency_tu_mean", mean(&run.latency_tu), "tu"),
    ];
    let committee = Committee::new(cfg.n).map_err(|e| e.to_string())?;
    let vertices: Vec<Vertex> = run
        .durable
        .iter()
        .flatten()
        .filter_map(|e| match e {
            DurableEvent::Vertex(v) => Some(v.clone()),
            _ => None,
        })
        .collect();
    let own: Vec<Vertex> = vertices.iter().filter(|v| v.source().index() == 0).cloned().collect();
    layer.extend(layers::dag_and_ordering(committee, &vertices, &run.commits, spans));
    let (codec, payloads) = layers::codec(&own, spans);
    layer.extend(codec);
    layer.extend(layers::bracha(committee, &payloads, spans));
    layer.extend(layers::coin(committee, seed, 8, spans));
    layer.extend(layers::sha256(seed, 200, spans));
    let dir = scratch.join("layer-store");
    layer
        .extend(layers::store(&run.durable, &dir, spans).map_err(|e| format!("store layer: {e}"))?);
    Ok(layer)
}

/// One TCP episode in this process: the untraced run's end-to-end
/// metrics, or the traced run's per-layer metrics plus its throughput.
fn tcp_episode(args: &Args, scratch: &Path) -> Result<Outcome, String> {
    let cfg = tcp_config(args.workload, args.seconds, args.short, args.trace);
    phase(if args.trace { "tcp episode, traced" } else { "tcp episode" });
    let run =
        tcp::run(&cfg, args.seed, scratch, args.trace).map_err(|e| format!("tcp run: {e}"))?;
    let mut metrics = if args.trace {
        tcp_layers(&run)
    } else {
        vec![
            ("p50_ms", tcp::latency(&run, 0.5), "ms"),
            ("p95_ms", tcp::latency(&run, 0.95), "ms"),
            ("ordered_share", 1.0 - run.failed as f64 / run.attempted.max(1) as f64, "share"),
            ("peak_rss_mb", run.peak_rss_mb, "MB"),
            ("setup_s", tcp::setup_s(&run), "s"),
        ]
    };
    metrics.push(("ordered_tx_per_s", run.tx_per_s, "1/s"));
    Ok(Outcome {
        metrics: owned(metrics),
        attempted: run.attempted,
        failed: run.failed,
        violations: run.violations,
        config: cfg.describe(),
        spans: run.spans,
        counts: format!(
            "{{\"ordered_txs\": {}, \"measured_latencies\": {}, \"failed\": {{\"rejected\": {}, \
             \"dead_connection\": {}, \"acked_not_notified\": {}, \"not_acked\": {}}}, \
             \"gen_lag_ms_p99\": {}}}",
            run.ordered_txs_total,
            run.latency_ms.len(),
            run.failed_by_cause[0],
            run.failed_by_cause[1],
            run.failed_by_cause[2],
            run.failed_by_cause[3],
            quantile(&run.lag_ms, 0.99)
        ),
    })
}

/// The child process of the episode being run, killed at the deadline.
static CHILD: Mutex<Option<Child>> = Mutex::new(None);

/// What a child episode printed as its last line.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

/// Parses the result line this program prints (its own, fixed format).
fn parse_result(line: &str) -> Option<ChildResult> {
    let field = |key: &str| line.split(&format!("\"{key}\": ")).nth(1)?.split([',', '}']).next();
    let mut metrics = Vec::new();
    let body = line.split_once("\"metrics\": {")?.1;
    for item in body.split("}, ").filter(|i| i.contains("\"value\"")) {
        let (name, rest) = item.trim_start_matches('"').split_once("\": {\"value\": ")?;
        let (value, unit) = rest.split_once(", \"unit\": \"")?;
        metrics.push((name.to_owned(), value.parse().ok()?, unit.split('"').next()?.to_owned()));
    }
    Some(ChildResult {
        correct: field("correct")? == "true",
        attempted: field("attempted")?.parse().ok()?,
        failed: field("failed")?.parse().ok()?,
        metrics,
    })
}

/// Runs one episode of `workload` in a child process of this program.
fn run_child(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    short: bool,
    k: usize,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name(), "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .args(["--episode", &k.to_string()]);
    if short {
        cmd.arg("--short");
    }
    let mut child =
        cmd.stdout(Stdio::piped()).spawn().map_err(|e| format!("spawn episode: {e}"))?;
    let mut stdout = child.stdout.take().expect("stdout is piped");
    *CHILD.lock().unwrap_or_else(PoisonError::into_inner) = Some(child);
    let mut out = String::new();
    let read = stdout.read_to_string(&mut out);
    let status = CHILD.lock().unwrap_or_else(PoisonError::into_inner).take().map(|mut c| c.wait());
    read.map_err(|e| format!("read episode output: {e}"))?;
    let line = out.lines().last().unwrap_or("");
    match (status, parse_result(line)) {
        (Some(Ok(_)), Some(result)) => Ok(result),
        (status, _) => {
            Err(format!("{} episode {k} produced no result (exit {status:?})", workload.name()))
        }
    }
}

/// Runs `episodes` child processes and takes each metric's median.
fn run_children(
    args: &Args,
    trace: bool,
    seconds: &[f64],
) -> Result<(Vec<Metric>, u64, u64, Vec<String>), String> {
    let mut by_name: BTreeMap<String, (Vec<f64>, String)> = BTreeMap::new();
    let (mut attempted, mut failed, mut violations) = (0, 0, Vec::new());
    for (k, &secs) in seconds.iter().enumerate() {
        // Each episode gets its own seed (so its own coin draws): one run
        // then averages over several leader sequences instead of one.
        let result =
            run_child(args.workload, derive_seed(args.seed, k), secs, trace, args.short, k)?;
        if !result.correct {
            violations
                .push(format!("episode {k} failed a correctness check (see its output above)"));
        }
        attempted += result.attempted;
        failed += result.failed;
        for (name, value, unit) in result.metrics {
            by_name.entry(name).or_insert_with(|| (Vec::new(), unit)).0.push(value);
        }
    }
    let mut metrics: Vec<Metric> =
        by_name.into_iter().map(|(name, (values, unit))| (name, median(&values), unit)).collect();
    for (name, value, _) in &mut metrics {
        if name == "ordered_share" {
            *value = 1.0 - failed as f64 / attempted.max(1) as f64;
        }
    }
    Ok((metrics, attempted, failed, violations))
}

fn take_metric(metrics: &mut Vec<Metric>, name: &str) -> f64 {
    let at = metrics.iter().position(|m| m.0 == name);
    at.map_or(f64::NAN, |i| metrics.remove(i).1)
}

fn run_tcp(args: &Args, scratch: &Path) -> Result<Outcome, String> {
    // A traced run makes two passes (untraced, then traced), each over
    // half the budget, so that it ends in about the same time.
    let seconds = if args.trace { args.seconds / 2.0 } else { args.seconds };
    let cfg = tcp_config(args.workload, seconds, args.short, args.trace);
    let plan = episodes(args.workload, seconds);
    phase("tcp episodes");
    let (mut metrics, attempted, failed, mut violations) = run_children(args, false, &plan)?;
    let mut spans = Spans::new(args.trace);
    let mut config = format!("{} episodes={}", cfg.describe(), plan.len());
    let mut counts = format!("{{\"episodes\": {}}}", plan.len());
    if args.trace {
        let untraced = take_metric(&mut metrics, "ordered_tx_per_s");
        phase("tcp episodes, traced");
        let (layer, _, _, traced_violations) = run_children(args, true, &plan)?;
        violations.extend(traced_violations);
        metrics = layer;
        let traced = take_metric(&mut metrics, "ordered_tx_per_s");
        metrics.push(("trace.overhead".to_owned(), traced / untraced, "ratio".to_owned()));
        let probe_cfg = SimConfig::core_n13(args.short);
        phase("consensus-core probe, determinism check");
        // The same seed twice must give exactly the same counts, or the
        // probe's per-seed counts would mean nothing. A shortened run keeps
        // the check cheap.
        let check = SimConfig { rounds: DETERMINISM_ROUNDS, ..probe_cfg };
        let (first, second) =
            (sim::run(&check, args.seed, false), sim::run(&check, args.seed, false));
        if first.counts() != second.counts() {
            violations.push(format!(
                "simulated counts {:?} then {:?} for the same seed",
                first.counts(),
                second.counts()
            ));
        }
        phase("consensus-core probe");
        let probe = sim::run(&probe_cfg, args.seed, true);
        for run in [&first, &second, &probe] {
            if run.disagreements > 0 {
                violations.push(format!(
                    "{} simulated processes' ordered logs disagree with process 0's",
                    run.disagreements
                ));
            }
        }
        phase("layer timings");
        metrics.extend(owned(sim_layers(&probe_cfg, args.seed, &probe, scratch, &mut spans)?));
        let sims: Vec<String> = [(&check, &first), (&check, &second), (&probe_cfg, &probe)]
            .iter()
            .map(|(cfg, run)| {
                let (v, t, m, b) = run.counts();
                format!(
                    "{{\"rounds\": {}, \"ordered_vertices\": {v}, \"ordered_txs\": {t}, \
                     \"messages\": {m}, \"bytes\": {b}}}",
                    cfg.rounds
                )
            })
            .collect();
        counts =
            format!("{{\"episodes\": {}, \"simulations\": [{}]}}", plan.len(), sims.join(", "));
        config = format!("{config}; probe {}", probe_cfg.describe());
        spans.absorb(probe.spans);
    }
    Ok(Outcome { metrics, attempted, failed, violations, config, spans, counts })
}

/// The seed of a run's `k`-th episode (`k = 0` is the run's own seed).
fn derive_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_add((k as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// `git rev-parse HEAD` without running git; "unknown" outside a checkout.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .map(|s| s.trim().to_owned())
            .or_else(|_| {
                std::fs::read_to_string(".git/packed-refs").map(|packed| {
                    packed
                        .lines()
                        .find(|l| l.ends_with(reference))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or("unknown")
                        .to_owned()
                })
            })
            .unwrap_or_else(|_| "unknown".to_owned()),
        None if !head.is_empty() => head.to_owned(),
        None => "unknown".to_owned(),
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .map(|l| l.split(':').nth(1).unwrap_or("").trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// CPU time the hypervisor gave to other guests since boot (`steal` in
/// `/proc/stat`, USER_HZ = 100 ticks a second); `None` where unavailable.
/// A run that saw much of it ran on a contended host.
fn host_steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let steal_at_start = host_steal_ticks();
    let out_dir = PathBuf::from(".bench_out");
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    let scratch = Scratch(out_dir.join(format!("tmp-{}-{nanos}", std::process::id())));
    if let Err(e) = std::fs::create_dir_all(&scratch.0) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.0.display());
        return ExitCode::from(2);
    }

    // Hard deadline: report the phase that overran, remove the scratch
    // directory and exit non-zero; exiting closes every node's sockets.
    let watchdog_dir = scratch.0.clone();
    std::thread::spawn(move || {
        std::thread::sleep(DEADLINE);
        let phase = *PHASE.lock().unwrap_or_else(PoisonError::into_inner);
        eprintln!("perfbench: deadline of {DEADLINE:?} passed during {phase}; stopping");
        if let Some(mut child) = CHILD.lock().unwrap_or_else(PoisonError::into_inner).take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        let _ = std::fs::remove_dir_all(&watchdog_dir);
        std::process::exit(3);
    });

    let outcome = if args.episode.is_some() {
        tcp_episode(&args, &scratch.0)
    } else {
        run_tcp(&args, &scratch.0)
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut violations = outcome.violations;
    let mut metrics = BTreeMap::new();
    for (name, value, unit) in &outcome.metrics {
        if !value.is_finite() {
            violations.push(format!("metric {name} is not a finite number ({value})"));
        }
        metrics.insert(name.as_str(), (*value, unit.as_str()));
    }
    let correct = violations.is_empty();
    for v in &violations {
        eprintln!("perfbench: check failed: {v}");
    }

    let metrics_json = metrics
        .iter()
        .map(|(name, (value, unit))| {
            let value = if value.is_finite() { format!("{value}") } else { "null".to_owned() };
            format!("{}: {{\"value\": {value}, \"unit\": {}}}", json_str(name), json_str(unit))
        })
        .collect::<Vec<_>>()
        .join(", ");
    let record = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"short\": {}, \
         \"git_rev\": {}, \"nproc\": {}, \"cpu_model\": {}, \"host_steal_s\": {}, \
         \"config\": {}, \"counts\": {}, \"violations\": [{}], \"metrics\": {{{metrics_json}}}}}",
        json_str(args.workload.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.short,
        json_str(&git_rev()),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        json_str(&cpu_model()),
        steal_at_start.zip(host_steal_ticks()).map_or_else(
            || "null".to_owned(),
            |(start, end)| format!("{}", (end - start) as f64 / 100.0)
        ),
        json_str(&outcome.config),
        outcome.counts,
        violations.iter().map(|v| json_str(v)).collect::<Vec<_>>().join(", "),
    );
    let mut stem =
        format!("{}-seed{}-trace{}", args.workload.name(), args.seed, u8::from(args.trace));
    if let Some(k) = args.episode {
        let _ = write!(stem, "-episode{k}");
    }
    let _ = std::fs::write(out_dir.join(format!("{stem}.json")), &record);
    if outcome.spans.len() > 0 {
        let _ = outcome.spans.write_csv(&out_dir.join(format!("{stem}.spans.csv")));
    }
    println!("record: {record}");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics_json}}}}}",
        outcome.attempted.max(1),
        outcome.failed
    );
    drop(scratch);
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
