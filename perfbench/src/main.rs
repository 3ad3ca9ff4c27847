//! End-to-end and per-layer benchmark of the commsched pipeline.
//!
//! One process runs one workload for a fixed wall-clock budget and prints,
//! as its last stdout line, a JSON object with the operations attempted
//! and failed, whether every output check passed, and its metrics:
//!
//! ```text
//! perfbench --workload schedule-flat --seed 7 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` alternates
//! untraced and traced rounds of the same operations and reports the
//! per-layer metrics, the tracing overhead, and writes the spans as JSONL
//! under `.perfbench/`. See `README.md` for the workloads and metrics.

mod checks;
mod daemon;
mod schedule;
mod sweep;
mod trace;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const WORKLOADS: [&str; 4] = [
    "schedule-flat",
    "schedule-multilevel",
    "daemon-mixed",
    "paper-sweep",
];

const USAGE: &str =
    "usage: perfbench --workload <schedule-flat|schedule-multilevel|daemon-mixed|paper-sweep> \
                     --seed <u64> --seconds <f64> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The end-to-end metrics of `BENCHMARK.json`, in its order. An untraced
/// run of every workload reports each of them.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("op_ms.p50", "ms"),
    ("fg.mean", "F_G"),
    ("rss_peak_mb", "MB"),
];

/// The per-layer metrics of `BENCHMARK.json`, in its order. A traced run
/// reports each; a layer the workload does not measure reads 0.
const PER_LAYER: [(&str, &str); 34] = [
    ("routing.build_ms", "ms"),
    ("distance.build_ms", "ms"),
    ("distance.pairs", "count"),
    ("distance.memo_hit_ratio", "ratio"),
    ("search.tabu_ms", "ms"),
    ("search.iterations", "count"),
    ("search.evaluations", "count"),
    ("search.evaluations_per_iteration", "count"),
    ("search.multilevel_ms", "ms"),
    ("search.levels", "count"),
    ("search.refine_moves", "count"),
    ("net.ping_ms.p50", "ms"),
    ("service.submit_ack_ms.schedule.p50", "ms"),
    ("service.submit_ack_ms.schedule.p90", "ms"),
    ("service.submit_ack_ms.noop.p50", "ms"),
    ("service.submit_ack_ms.noop.p90", "ms"),
    ("persist.wal_bytes_per_job", "bytes"),
    ("service.status_ms.p50", "ms"),
    ("service.result_ms.p50", "ms"),
    ("service.run_ms.mean", "ms"),
    ("service.cache_hits", "count"),
    ("service.cache_misses", "count"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.cache_build_ms_total", "ms"),
    ("dynamics.fault_ms.p50", "ms"),
    ("netsim.cycles", "cycles"),
    ("netsim.flits_delivered", "flits"),
    ("netsim.cycles_per_s", "cycles/s"),
    ("netsim.flits_per_s", "flits/s"),
    ("netsim.saturation_search_ms", "ms"),
    ("netsim.ecn_cost_ratio", "x"),
    ("netsim.accepted_ratio", "x"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// What one workload run reports.
#[derive(Default)]
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Put the metrics in manifest order: every end-to-end metric (untraced)
    /// or every per-layer one (traced), each in its manifest unit. A
    /// missing end-to-end metric, an unknown name or a wrong unit is an
    /// error; a per-layer metric the workload does not measure reads 0 and
    /// is named on stdout.
    fn complete(&mut self, traced: bool) -> Result<(), String> {
        let manifest: &[(&str, &'static str)] = if traced { &PER_LAYER } else { &END_TO_END };
        for (name, _, unit) in &self.metrics {
            match manifest.iter().find(|(n, _)| n == name) {
                Some((_, u)) if u == unit => {}
                Some((_, u)) => return Err(format!("metric {name} is in {unit}, not {u}")),
                None => return Err(format!("metric {name} is not in the manifest")),
            }
        }
        let mut ordered = Vec::with_capacity(manifest.len());
        let mut unmeasured = Vec::new();
        for &(name, unit) in manifest {
            match self.metrics.iter().position(|m| m.0 == name) {
                Some(i) => ordered.push(self.metrics.swap_remove(i)),
                None if traced => {
                    unmeasured.push(name);
                    ordered.push((name.to_string(), 0.0, unit));
                }
                None => return Err(format!("end-to-end metric {name} was not measured")),
            }
        }
        if !unmeasured.is_empty() {
            println!(
                "layers this workload does not measure, reported as 0: {}",
                unmeasured.join(" ")
            );
        }
        self.metrics = ordered;
        Ok(())
    }

    fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // `{:?}` prints the shortest representation that round-trips,
            // i.e. every digit the f64 holds.
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Outcome of the output checks: the first few failures, for the log.
#[derive(Default)]
pub struct Checks {
    failures: Vec<String>,
    passed: u64,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            self.passed += 1;
        } else {
            let msg = what();
            if self.failures.len() < 20 {
                eprintln!("check failed: {msg}");
            }
            self.failures.push(msg);
        }
    }

    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    pub fn summary(&self) -> String {
        format!(
            "{} checks passed, {} failed",
            self.passed,
            self.failures.len()
        )
    }
}

/// Linear-interpolated quantile `q` in [0, 1] of `values` (NaN if empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// `a / b`, or 0 when `b` is 0 (a ratio of counts the run never bumped).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Times repeated set-ups; `setup_s` is their median.
#[derive(Default)]
pub struct SetupClock {
    secs: Vec<f64>,
}

impl SetupClock {
    pub fn time<T>(&mut self, setup: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = std::hint::black_box(setup());
        self.secs.push(t0.elapsed().as_secs_f64());
        out
    }

    /// Median set-up time in seconds.
    pub fn median(&self) -> f64 {
        median(&self.secs)
    }
}

/// The round driver shared by every workload. A round is the workload's
/// fixed operation list; rounds repeat until the next one would overrun
/// the budget (at least `min_rounds` run). In a traced run, rounds
/// alternate untraced (even) and traced (odd), so the tracing overhead is
/// measured on the same operations in the same process.
pub struct Rounds {
    budget: Duration,
    min_rounds: usize,
    start: Option<Instant>,
    last_round: Duration,
    pub done: usize,
    /// Peak RSS after set-up and the first round, in MB: a fixed amount
    /// of work, where the peak at the end of the run would depend on how
    /// many rounds fitted.
    pub rss_peak_mb: f64,
}

impl Rounds {
    pub fn new(args: &Args) -> Self {
        Self {
            budget: Duration::from_secs_f64(args.seconds),
            min_rounds: if args.trace { 2 } else { 1 },
            start: None,
            last_round: Duration::ZERO,
            done: 0,
            rss_peak_mb: f64::NAN,
        }
    }

    /// Whether another round fits; call once before each round.
    pub fn another(&mut self) -> bool {
        let now = Instant::now();
        let start = *self.start.get_or_insert(now);
        if self.done < self.min_rounds {
            return true;
        }
        now.duration_since(start) + self.last_round <= self.budget
    }

    /// Record that a round which began at `began` finished.
    pub fn finish(&mut self, began: Instant) {
        self.last_round = began.elapsed();
        if self.done == 0 {
            self.rss_peak_mb = rss_peak_mb();
        }
        self.done += 1;
    }

    /// Wall time since the first round started.
    pub fn elapsed(&self) -> Duration {
        self.start.map_or(Duration::ZERO, |s| s.elapsed())
    }

    /// Whether round `r` is a traced one.
    pub fn traced(args: &Args, r: usize) -> bool {
        args.trace && r % 2 == 1
    }
}

/// The end-to-end metrics every workload reports from its untraced run:
/// `op_ms` are the timed operations (warm-up left out) and `fgs` the F_G
/// of every mapping the run produced from its fixed operations.
pub fn end_to_end_metrics(
    report: &mut Report,
    setup_s: f64,
    rounds: &Rounds,
    op_ms: &[f64],
    fgs: &[f64],
) {
    report.metric("setup_s", setup_s, "s");
    report.metric("op_ms.p50", median(op_ms), "ms");
    report.metric("fg.mean", mean(fgs), "F_G");
    report.metric("rss_peak_mb", rounds.rss_peak_mb, "MB");
    println!(
        "op_ms: n={} p10={:.3} p50={:.3} p90={:.3}",
        op_ms.len(),
        quantile(op_ms, 0.1),
        quantile(op_ms, 0.5),
        quantile(op_ms, 0.9)
    );
}

/// Global-registry counters the search and distance per-layer metrics
/// are derived from.
const COUNTERS: [&str; 7] = [
    "distance_pairs_total",
    "distance_memo_hits_total",
    "distance_memo_misses_total",
    "tabu_iterations_total",
    "tabu_evaluations_total",
    "ml_levels_total",
    "ml_refine_moves_total",
];

pub fn counters() -> [u64; 7] {
    COUNTERS.map(|name| commsched_telemetry::global().counter(name, "").get())
}

/// Per-layer counts between two `counters()` readings, per completed
/// operation of the run.
pub fn counter_metrics(report: &mut Report, c0: &[u64; 7], c1: &[u64; 7]) {
    let ops = (report.attempted - report.failed).max(1) as f64;
    let delta = |k: usize| (c1[k] - c0[k]) as f64;
    report.metric("distance.pairs", delta(0) / ops, "count");
    report.metric(
        "distance.memo_hit_ratio",
        ratio(delta(1), delta(1) + delta(2)),
        "ratio",
    );
    report.metric("search.iterations", delta(3) / ops, "count");
    report.metric("search.evaluations", delta(4) / ops, "count");
    report.metric(
        "search.evaluations_per_iteration",
        ratio(delta(4), delta(3)),
        "count",
    );
    report.metric("search.levels", delta(5) / ops, "count");
    report.metric("search.refine_moves", delta(6) / ops, "count");
}

/// Tracing overhead: median traced minus median untraced operation time,
/// over the same operations in the same process.
pub fn overhead_metrics(report: &mut Report, op_ms: &[Vec<f64>; 2]) {
    let (untraced, traced) = (median(&op_ms[0]), median(&op_ms[1]));
    report.metric("trace.overhead_ms", traced - untraced, "ms");
    report.metric(
        "trace.overhead_pct",
        100.0 * (traced - untraced) / untraced,
        "%",
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "perfbench workload={} seed={} seconds={} trace={} available_parallelism={threads}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let mut tracer = trace::Tracer::new(args.trace);
    let result = match args.workload.as_str() {
        "schedule-flat" => schedule::run_flat(&args, &mut tracer),
        "schedule-multilevel" => schedule::run_multilevel(&args, &mut tracer),
        "daemon-mixed" => daemon::run(&args, &mut tracer),
        "paper-sweep" => sweep::run(&args, &mut tracer),
        _ => unreachable!("workload validated by parse_args"),
    };
    let report = match result.and_then(|mut r| r.complete(args.trace).map(|()| r)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} aborted: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    if args.trace {
        match tracer.finish(&args.workload, args.seed) {
            Ok(summary) => {
                for line in summary {
                    println!("{line}");
                }
            }
            Err(e) => {
                eprintln!("perfbench: writing the trace failed: {e}");
                return ExitCode::from(1);
            }
        }
    }
    if let Some((name, value, _)) = report.metrics.iter().find(|m| !m.1.is_finite()) {
        eprintln!("perfbench: metric {name} is {value}; no result printed");
        return ExitCode::from(1);
    }
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
