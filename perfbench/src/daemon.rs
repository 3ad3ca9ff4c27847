//! `daemon-mixed`: the daemon path — frame decode → WAL append/fsync →
//! queue → distance-table cache → table build or repair → search → reply —
//! driven closed-loop by one client over one connection with a fixed,
//! seeded operation sequence.
//!
//! The daemon runs in this process with persistence on (a fresh state
//! directory, fsync on acknowledgement), one worker, one thread for
//! table builds, and one tabu search (10 restarts) per job. A round
//! mixes `SUBMIT SCHEDULE` over more registered networks than the cache
//! holds, with skewed popularity (hits, misses and evictions all occur),
//! `SUBMIT NOOP`, `STATUS`/`RESULT` reads of earlier jobs, and two link
//! kill/restore pairs, each of which invalidates and repairs a cached
//! table. Every round ends with the networks as they started.

use crate::checks::{best_random_fg, check_mapping};
use crate::trace::Tracer;
use crate::{median, ms, quantile, Args, Checks, Report, Rounds, SetupClock};
use commsched_core::Workload;
use commsched_distance::{equivalent_distance_table, DistanceTable};
use commsched_routing::UpDownRouting;
use commsched_service::{
    Client, FsyncPolicy, JobId, JobState, PersistOptions, Server, ServerHandle, ServiceCore,
    ServiceCoreConfig,
};
use commsched_topology::{random_regular, RandomTopologyConfig, Topology};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Registered networks: three times what `ServiceCoreConfig::default()`
/// caches.
const NETWORKS: usize = 24;
/// Their switch counts, cycled.
const SIZES: [usize; 5] = [32, 36, 40, 44, 48];
/// Zipf exponent of network popularity (network 0 is the most popular).
/// Skewed enough for hits, misses and evictions, flat enough that the
/// run's figures do not hinge on the seed's one or two top networks.
const ZIPF_S: f64 = 0.7;
/// Operations of one round, by kind. A quarter of the jobs schedule, so
/// the job-time median is a NOOP (the front end, WAL and queue path):
/// SCHEDULE job times swing with the host by up to a third between runs
/// of one seed, NOOP times by a few percent.
const SCHEDULE_JOBS: usize = 20;
const NOOP_JOBS: usize = 60;
const READS: usize = 16;
/// `STATUS` poll interval while a job runs.
const POLL: Duration = Duration::from_micros(200);
/// Daemon start-up is repeated this many times; `setup_s` is the median.
const SETUP_REPS: usize = 3;
/// Random partitions each mapping must beat.
const RANDOM_BASELINES: usize = 20;

#[derive(Clone, Debug)]
enum Op {
    Schedule {
        net: usize,
        seed: u32,
    },
    Noop,
    /// Re-read the job submitted by the round's `index`-th job operation.
    Read {
        index: usize,
    },
    Kill {
        net: usize,
    },
    Restore {
        net: usize,
    },
}

struct Network {
    topology: Topology,
    /// The link killed and restored on this network (both endpoints).
    fault_link: (usize, usize),
}

fn make_networks(seed: u64) -> Vec<Network> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..NETWORKS)
        .map(|k| {
            let n = SIZES[k % SIZES.len()];
            let topology = random_regular(RandomTopologyConfig::paper(n), &mut rng)
                .expect("a connected 3-regular network exists for every listed size");
            // A link whose loss leaves the network connected.
            let mut ids: Vec<usize> = (0..topology.num_links()).collect();
            ids.shuffle(&mut rng);
            let id = ids
                .into_iter()
                .find(|&id| topology.without_link(id).is_ok())
                .expect("a 3-regular network has a non-bridge link");
            let l = topology.link(id);
            Network {
                topology,
                fault_link: (l.a, l.b),
            }
        })
        .collect()
}

/// Seed of the round's shape: the order of the operation kinds, which
/// network each job uses and which job each read re-reads. The shape is
/// the same for every `--seed`, so the mix of cache hits and misses (and
/// with it the job-time distribution) does not move with the seed; the
/// networks, fault links and search seeds come from `--seed`.
const SHAPE_SEED: u64 = 0x5EED_0F0F;

/// The round's fixed operation sequence.
fn make_round(seed: u64) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(SHAPE_SEED);
    let mut seeds = StdRng::seed_from_u64(seed ^ SHAPE_SEED);
    let weights: Vec<f64> = (0..NETWORKS)
        .map(|k| 1.0 / ((k + 1) as f64).powf(ZIPF_S))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut kinds: Vec<u8> = std::iter::repeat_n(0u8, SCHEDULE_JOBS)
        .chain(std::iter::repeat_n(1, NOOP_JOBS))
        .chain(std::iter::repeat_n(2, READS))
        .collect();
    kinds.shuffle(&mut rng);
    let mut ops = Vec::new();
    let mut jobs = 0usize;
    for kind in kinds {
        match kind {
            // A read needs an earlier job of this round.
            2 if jobs > 0 => ops.push(Op::Read {
                index: rng.gen_range(0..jobs),
            }),
            1 => {
                ops.push(Op::Noop);
                jobs += 1;
            }
            _ => {
                let mut x = rng.gen::<f64>() * total;
                let mut net = NETWORKS - 1;
                for (k, w) in weights.iter().enumerate() {
                    if x < *w {
                        net = k;
                        break;
                    }
                    x -= w;
                }
                ops.push(Op::Schedule {
                    net,
                    seed: seeds.gen(),
                });
                jobs += 1;
            }
        }
    }
    // Two kill/restore pairs on the two most popular networks.
    let len = ops.len();
    ops.insert(len * 3 / 4, Op::Restore { net: 1 });
    ops.insert(len / 2, Op::Kill { net: 1 });
    ops.insert(len / 2, Op::Restore { net: 0 });
    ops.insert(len / 4, Op::Kill { net: 0 });
    ops
}

struct Daemon {
    server: ServerHandle,
    client: Client,
    dir: PathBuf,
    config: ServiceCoreConfig,
}

/// One worker (set at bind), and one tabu search per job rather than the
/// default four: search stays a small share of each job, and on a 2-core
/// host four back-to-back two-thread searches per job made the run's
/// timings swing with the host (a quarter of the median between runs).
fn core_config() -> ServiceCoreConfig {
    ServiceCoreConfig {
        search_seeds: 1,
        search_threads: 1,
        table_threads: 1,
        ..ServiceCoreConfig::default()
    }
}

fn persist_options(dir: &PathBuf) -> PersistOptions {
    PersistOptions::new(dir).fsync(FsyncPolicy::OnAck)
}

/// Start a daemon on a fresh state directory, upload every network and
/// wait until it answers.
fn start_daemon(dir: PathBuf, networks: &[Network]) -> Result<Daemon, String> {
    let _ = std::fs::remove_dir_all(&dir);
    let config = core_config();
    let (core, _) = ServiceCore::recover(config, persist_options(&dir))
        .map_err(|e| format!("daemon start: {e}"))?;
    let server = Server::bind_with_core("127.0.0.1:0", 1, Arc::new(core))
        .map_err(|e| format!("daemon bind: {e}"))?;
    let mut client = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    for net in networks {
        let fp = client
            .add_topology(&net.topology)
            .map_err(|e| format!("ADDTOPO: {e}"))?;
        if fp != net.topology.fingerprint() {
            return Err(format!(
                "ADDTOPO answered {fp:016x}, expected {:016x}",
                net.topology.fingerprint()
            ));
        }
    }
    client.ping().map_err(|e| format!("PING: {e}"))?;
    Ok(Daemon {
        server,
        client,
        dir,
        config,
    })
}

/// A finished job as the client saw it.
struct JobResult {
    id: JobId,
    lines: Vec<String>,
}

#[derive(Default)]
struct Samples {
    /// Job operation times, SUBMIT to RESULT, by round parity.
    op_ms: [Vec<f64>; 2],
    ack_schedule_ms: Vec<f64>,
    ack_noop_ms: Vec<f64>,
    status_ms: Vec<f64>,
    result_ms: Vec<f64>,
    fault_ms: Vec<f64>,
    ping_ms: Vec<f64>,
    wal_bytes_per_job: Vec<f64>,
}

/// Everything needed to check a SCHEDULE result afterwards.
struct Produced {
    net: usize,
    lines: Vec<String>,
}

fn parse_result(lines: &[String]) -> Option<(u64, Vec<usize>, f64)> {
    let field = |key: &str| {
        lines
            .iter()
            .find_map(|l| l.strip_prefix(key).and_then(|r| r.strip_prefix(' ')))
    };
    let fp = u64::from_str_radix(field("topology")?, 16).ok()?;
    let assign = field("partition")?
        .split_whitespace()
        .map(|t| t.parse().ok())
        .collect::<Option<Vec<usize>>>()?;
    let fg = field("fg")?.parse().ok()?;
    Some((fp, assign, fg))
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Result<Report, String> {
    let networks = make_networks(args.seed);
    let round = make_round(args.seed);
    let base = PathBuf::from(crate::trace::OUT_DIR).join(format!("daemon-{}", std::process::id()));
    let mut clock = SetupClock::default();
    let mut daemon: Option<Daemon> = None;
    for k in 0..SETUP_REPS {
        // Earlier set-ups only time the start; stop them untimed.
        if let Some(old) = daemon.take() {
            stop(old);
        }
        daemon = Some(clock.time(|| start_daemon(base.join(format!("setup{k}")), &networks))?);
    }
    let setup_s = clock.median();
    let mut d = daemon.expect("at least one set-up ran");
    let wal_path = d.dir.join("service.wal");

    // Current fingerprint of each network, and every topology a fault
    // produced, by fingerprint.
    let mut current: Vec<u64> = networks.iter().map(|n| n.topology.fingerprint()).collect();
    let mut topologies: HashMap<u64, Topology> = networks
        .iter()
        .map(|n| (n.topology.fingerprint(), n.topology.clone()))
        .collect();
    for n in &networks {
        let (a, b) = n.fault_link;
        let id = n.topology.link_between(a, b).expect("fault link exists");
        let down = n
            .topology
            .without_link(id)
            .expect("fault link is not a bridge");
        topologies.insert(down.fingerprint(), down);
    }

    let mut report = Report::default();
    let mut checks = Checks::default();
    let mut samples = Samples::default();
    let mut produced: Vec<Produced> = Vec::new();
    let mut first_round_fg: Vec<f64> = Vec::new();
    let mut acked: Vec<JobId> = Vec::new();
    let mut seen: HashMap<JobId, Vec<String>> = HashMap::new();
    let mut jobs_done = 0u64;
    let mut warmed = false;
    let c0 = crate::counters();
    let mut rounds = Rounds::new(args);
    let mut r = 0;
    while rounds.another() {
        let began = Instant::now();
        let traced = Rounds::traced(args, r);
        tracer.arm(traced);
        let mut round_jobs: Vec<Option<JobResult>> = Vec::new();
        for op in &round {
            report.attempted += 1;
            let span = tracer.begin_op();
            let outcome = run_op(
                op,
                &mut d,
                tracer,
                &networks,
                &mut current,
                &round_jobs,
                traced,
                &wal_path,
                &mut samples,
            );
            tracer.exit(span);
            match outcome {
                Ok(OpOutcome::Job { result, elapsed_ms }) => {
                    acked.push(result.id);
                    if warmed {
                        samples.op_ms[usize::from(traced)].push(elapsed_ms);
                    }
                    warmed = true;
                    jobs_done += 1;
                    if let Op::Schedule { net, .. } = op {
                        produced.push(Produced {
                            net: *net,
                            lines: result.lines.clone(),
                        });
                        if r == 0 {
                            match parse_result(&result.lines) {
                                Some((_, _, fg)) => first_round_fg.push(fg),
                                None => checks.check(false, || {
                                    format!("unparsable RESULT {:?}", result.lines)
                                }),
                            }
                        }
                    }
                    seen.insert(result.id, result.lines.clone());
                    round_jobs.push(Some(result));
                }
                Ok(OpOutcome::Other) => {}
                Err(e) => {
                    eprintln!("operation {op:?} failed: {e}");
                    report.failed += 1;
                    if matches!(op, Op::Schedule { .. } | Op::Noop) {
                        round_jobs.push(None);
                    }
                }
            }
        }
        tracer.arm(false);
        rounds.finish(began);
        r += 1;
    }
    let c1 = crate::counters();
    let timed_s = rounds.elapsed().as_secs_f64();
    println!(
        "{} rounds, {} operations ({jobs_done} jobs) in {timed_s:.1} s",
        rounds.done, report.attempted
    );

    // STATS and METRICS before shutdown: figures of the whole run.
    let mut stats = d.client.stats().map_err(|e| format!("STATS: {e}"))?;
    for line in d.client.metrics().map_err(|e| format!("METRICS: {e}"))? {
        if let Some((k, v)) = line.split_once(' ') {
            stats.push((k.to_string(), v.to_string()));
        }
    }
    let stat = |key: &str| -> f64 {
        stats
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.parse().ok())
            .unwrap_or(f64::NAN)
    };

    // Every RESULT against a from-scratch table of the topology it names.
    let mut tables: HashMap<u64, (DistanceTable, Vec<usize>, f64)> = HashMap::new();
    for p in &produced {
        let Some((fp, assign, fg)) = parse_result(&p.lines) else {
            checks.check(false, || format!("unparsable RESULT {:?}", p.lines));
            continue;
        };
        let Some(topo) = topologies.get(&fp) else {
            checks.check(false, || format!("RESULT names unknown topology {fp:016x}"));
            continue;
        };
        let entry = tables.entry(fp).or_insert_with(|| {
            let routing = UpDownRouting::new(topo, 0).expect("benchmark networks are connected");
            let table = equivalent_distance_table(topo, &routing).expect("table builds");
            let demands = Workload::balanced(topo, 4)
                .expect("4 clusters fit")
                .switch_demands(topo.hosts_per_switch());
            let baseline = best_random_fg(&table, &demands, RANDOM_BASELINES, fp);
            (table, demands, baseline)
        });
        let what = format!("network {} ({fp:016x})", p.net);
        // RESULT prints F_G with 9 decimals.
        let local = check_mapping(
            &mut checks,
            &what,
            &assign,
            &entry.1,
            fg,
            &entry.0,
            1e-9 + 5e-10,
        );
        checks.check(local < entry.2, || {
            format!(
                "{what}: F_G {local} is not below the best random partition ({})",
                entry.2
            )
        });
    }

    // Restart from the state directory: every acked job is there, terminal,
    // with the payload the client received.
    let dir = d.dir.clone();
    let config = d.config;
    stop_keep(d);
    match ServiceCore::recover(config, persist_options(&dir)) {
        Ok((core, rec)) => {
            println!(
                "restart: {} snapshot records, {} WAL records, {} jobs requeued",
                rec.snapshot_records, rec.wal_records, rec.recovered_jobs
            );
            let mut missing = 0;
            for id in &acked {
                let terminal = matches!(
                    core.status(*id),
                    Some(JobState::Done | JobState::Failed | JobState::Cancelled)
                );
                let same = core.result_lines(*id).ok().as_ref() == seen.get(id);
                if !terminal || !same {
                    missing += 1;
                }
            }
            checks.check(missing == 0, || {
                format!(
                    "{missing} of {} acked jobs missing, not terminal or changed after restart",
                    acked.len()
                )
            });
        }
        Err(e) => checks.check(false, || {
            format!("restart from the state directory failed: {e}")
        }),
    }
    let _ = std::fs::remove_dir_all(&base);
    println!("{}", checks.summary());
    report.correct = checks.ok();

    if args.trace {
        report.metric("net.ping_ms.p50", median(&samples.ping_ms), "ms");
        report.metric(
            "service.submit_ack_ms.schedule.p50",
            median(&samples.ack_schedule_ms),
            "ms",
        );
        report.metric(
            "service.submit_ack_ms.schedule.p90",
            quantile(&samples.ack_schedule_ms, 0.9),
            "ms",
        );
        report.metric(
            "service.submit_ack_ms.noop.p50",
            median(&samples.ack_noop_ms),
            "ms",
        );
        report.metric(
            "service.submit_ack_ms.noop.p90",
            quantile(&samples.ack_noop_ms, 0.9),
            "ms",
        );
        report.metric(
            "persist.wal_bytes_per_job",
            median(&samples.wal_bytes_per_job),
            "bytes",
        );
        report.metric("service.status_ms.p50", median(&samples.status_ms), "ms");
        report.metric("service.result_ms.p50", median(&samples.result_ms), "ms");
        // The daemon records run times in whole milliseconds into log
        // buckets, so the STATS p50 is a bucket midpoint that repeats from
        // run to run; the mean of the recorded values keeps their digits.
        report.metric(
            "service.run_ms.mean",
            stat("service_job_run_ms_sum") / stat("service_job_run_ms_count"),
            "ms",
        );
        let (hits, misses) = (stat("cache_hits"), stat("cache_misses"));
        report.metric("service.cache_hits", hits, "count");
        report.metric("service.cache_misses", misses, "count");
        report.metric(
            "service.cache_hit_ratio",
            crate::ratio(hits, hits + misses),
            "ratio",
        );
        report.metric(
            "service.cache_build_ms_total",
            stat("cache_build_ms_total"),
            "ms",
        );
        report.metric("dynamics.fault_ms.p50", median(&samples.fault_ms), "ms");
        // The daemon runs in this process: its table builds and searches
        // bump the same global counters.
        crate::counter_metrics(&mut report, &c0, &c1);
        crate::overhead_metrics(&mut report, &samples.op_ms);
    } else {
        crate::end_to_end_metrics(
            &mut report,
            setup_s,
            &rounds,
            &samples.op_ms[0],
            &first_round_fg,
        );
        println!(
            "cache hits {} misses {}",
            stat("cache_hits"),
            stat("cache_misses")
        );
    }
    Ok(report)
}

enum OpOutcome {
    Job { result: JobResult, elapsed_ms: f64 },
    Other,
}

#[allow(clippy::too_many_arguments)]
fn run_op(
    op: &Op,
    d: &mut Daemon,
    tracer: &mut Tracer,
    networks: &[Network],
    current: &mut [u64],
    round_jobs: &[Option<JobResult>],
    traced: bool,
    wal_path: &PathBuf,
    samples: &mut Samples,
) -> Result<OpOutcome, String> {
    let c = &mut d.client;
    match op {
        Op::Schedule { .. } | Op::Noop => {
            if traced {
                let (pong, ping_ms) = tracer.leaf("net", || c.ping());
                pong.map_err(|e| format!("PING: {e}"))?;
                samples.ping_ms.push(ping_ms);
            }
            let wal_before = traced.then(|| wal_len(wal_path));
            let spec = match op {
                Op::Schedule { net, seed } => {
                    format!(
                        "SCHEDULE topo=fp:{:016x} clusters=4 seed={seed}",
                        current[*net]
                    )
                }
                _ => "NOOP".to_string(),
            };
            let t0 = Instant::now();
            let (id, ack_ms) = tracer.leaf("service", || c.submit_raw(&spec));
            let id = id.map_err(|e| format!("SUBMIT {spec}: {e}"))?;
            let (state, _) = tracer.leaf("service", || c.wait(id, POLL));
            let state = state.map_err(|e| format!("STATUS {id}: {e}"))?;
            if state != "done" {
                return Err(format!("job {id} ({spec}) ended {state}"));
            }
            let (lines, _) = tracer.leaf("service", || c.result(id));
            let lines = lines.map_err(|e| format!("RESULT {id}: {e}"))?;
            let elapsed_ms = ms(t0.elapsed());
            if traced {
                if matches!(op, Op::Noop) {
                    samples.ack_noop_ms.push(ack_ms);
                } else {
                    samples.ack_schedule_ms.push(ack_ms);
                }
                // A compacting snapshot truncates the WAL; skip those jobs.
                if let Some(Some(before)) = wal_before {
                    if let Some(after) = wal_len(wal_path) {
                        if after >= before {
                            samples.wal_bytes_per_job.push((after - before) as f64);
                        }
                    }
                }
            }
            Ok(OpOutcome::Job {
                result: JobResult { id, lines },
                elapsed_ms,
            })
        }
        Op::Read { index } => {
            let Some(Some(job)) = round_jobs.get(*index) else {
                return Err(format!("read of job {index}, which did not complete"));
            };
            let (state, status_ms) = tracer.leaf("service", || c.status(job.id));
            let state = state.map_err(|e| format!("STATUS {}: {e}", job.id))?;
            let (lines, result_ms) = tracer.leaf("service", || c.result(job.id));
            let lines = lines.map_err(|e| format!("RESULT {}: {e}", job.id))?;
            if state != "done" || lines != job.lines {
                return Err(format!(
                    "job {} reads back {state} with a different result",
                    job.id
                ));
            }
            if traced {
                samples.status_ms.push(status_ms);
                samples.result_ms.push(result_ms);
            }
            Ok(OpOutcome::Other)
        }
        Op::Kill { net } | Op::Restore { net } => {
            let n = &networks[*net];
            let (a, b) = n.fault_link;
            let killing = matches!(op, Op::Kill { .. });
            let args = format!(
                "topo=fp:{:016x} {}={a}:{b}",
                current[*net],
                if killing { "kill" } else { "restore" }
            );
            let (lines, fault_ms) = tracer.leaf("dynamics", || c.fault_raw(&args));
            let lines = lines.map_err(|e| format!("FAULT {args}: {e}"))?;
            let expected = if killing {
                let id = n.topology.link_between(a, b).expect("fault link exists");
                n.topology
                    .without_link(id)
                    .expect("fault link is not a bridge")
                    .fingerprint()
            } else {
                n.topology.fingerprint()
            };
            let topology = lines
                .iter()
                .find_map(|l| l.strip_prefix("topology "))
                .and_then(|h| u64::from_str_radix(h, 16).ok());
            if topology != Some(expected) {
                return Err(format!(
                    "FAULT {args} reported {lines:?}, expected topology {expected:016x}"
                ));
            }
            current[*net] = expected;
            if traced {
                samples.fault_ms.push(fault_ms);
            }
            Ok(OpOutcome::Other)
        }
    }
}

fn wal_len(path: &PathBuf) -> Option<u64> {
    std::fs::metadata(path).ok().map(|m| m.len())
}

/// Stop a daemon and delete its state directory.
fn stop(d: Daemon) {
    let dir = d.dir.clone();
    stop_keep(d);
    let _ = std::fs::remove_dir_all(dir);
}

/// Stop a daemon (draining every accepted job), keeping its state.
fn stop_keep(d: Daemon) {
    drop(d.client);
    d.server.shutdown();
}
