//! `paper-sweep`: the paper's S1..S9 load sweep (§5.2) of the OP mapping
//! and random mappings on its two networks, with the flit-level
//! simulator. One operation is one `simulate` call.
//!
//! Set-up builds what the sweep simulates: each network's routing,
//! distance table, OP mapping (tabu search) and random mappings. Each
//! round then finds each network's saturation rate with the OP mapping
//! (the anchor of the shared S1..S9 grid) and simulates every mapping at
//! every grid rate with congestion control off, plus the OP mapping on the
//! 24-switch network under ECN marking with AIMD windows.

use crate::checks::check_mapping;
use crate::trace::Tracer;
use crate::{mean, median, Args, Checks, Report, Rounds, SetupClock};
use commsched_core::{Partition, ProcessMapping, Workload};
use commsched_distance::{equivalent_distance_table, DistanceTable};
use commsched_netsim::{
    find_saturation_rate, simulate, sweep_rates, CongestionMode, SimConfig, SimStats, Simulator,
    SweepConfig, TrafficPattern,
};
use commsched_routing::UpDownRouting;
use commsched_search::{Mapper, TabuParams, TabuSearch};
use commsched_topology::{designed, random_regular, RandomTopologyConfig, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Seed of the paper's random 16-switch network (as in the figure
/// binaries), so the network is the paper's whatever the run's seed.
const PAPER_16_SEED: u64 = 2000;
/// Random mappings swept per network.
const RANDOM_MAPPINGS: usize = 3;
/// Simulation points per sweep (S1..S9).
const POINTS: usize = 9;
/// The last point sits at this multiple of the saturation rate.
const OVERDRIVE: f64 = 1.2;

struct Mapping {
    label: String,
    host_clusters: Vec<usize>,
}

struct Net {
    name: &'static str,
    topology: Topology,
    routing: UpDownRouting,
    table: DistanceTable,
    demands: Vec<usize>,
    /// OP first, then the random mappings.
    mappings: Vec<Mapping>,
    op_assign: Vec<usize>,
    op_fg: f64,
}

/// One `simulate` call of a round.
struct Row {
    net: usize,
    mapping: usize,
    congestion: CongestionMode,
}

fn build_net(
    name: &'static str,
    topology: Topology,
    rng: &mut StdRng,
    tracer: &mut Tracer,
    tabu_ms: &mut f64,
) -> Net {
    let (routing, _) = tracer.leaf("routing", || {
        UpDownRouting::new(&topology, 0).expect("the paper's networks are connected")
    });
    let (table, _) = tracer.leaf("distance", || {
        equivalent_distance_table(&topology, &routing).expect("the paper's networks route")
    });
    let workload = Workload::balanced(&topology, 4).expect("4 applications fit");
    let demands = workload.switch_demands(topology.hosts_per_switch());
    let search_seed: u64 = rng.gen();
    let (op, elapsed) = tracer.leaf("search", || {
        let mapper = TabuSearch::new(TabuParams {
            threads: 1,
            ..TabuParams::scaled(topology.num_switches())
        });
        mapper.search(&table, &demands, &mut StdRng::seed_from_u64(search_seed))
    });
    *tabu_ms += elapsed;
    let mut partitions = vec![("OP".to_string(), op.partition.clone())];
    for i in 0..RANDOM_MAPPINGS {
        let p = Partition::random(topology.num_switches(), &demands, rng)
            .expect("demands sum to the switch count");
        partitions.push((format!("R{}", i + 1), p));
    }
    let mappings = partitions
        .into_iter()
        .map(|(label, p)| Mapping {
            label,
            host_clusters: ProcessMapping::place(&topology, &workload, &p)
                .expect("partition sizes match the workload")
                .host_clusters()
                .to_vec(),
        })
        .collect();
    Net {
        name,
        topology,
        routing,
        table,
        demands,
        mappings,
        op_assign: op.partition.assignment().to_vec(),
        op_fg: op.fg,
    }
}

fn setup(seed: u64, tracer: &mut Tracer, tabu_ms: &mut f64) -> Vec<Net> {
    let mut rng = StdRng::seed_from_u64(seed);
    let paper16 = random_regular(
        RandomTopologyConfig::paper(16),
        &mut StdRng::seed_from_u64(PAPER_16_SEED),
    )
    .expect("the paper's 16-switch network exists");
    vec![
        build_net("paper16", paper16, &mut rng, tracer, tabu_ms),
        build_net(
            "paper24",
            designed::paper_24_switch(),
            &mut rng,
            tracer,
            tabu_ms,
        ),
    ]
}

fn rows(nets: &[Net]) -> Vec<Row> {
    let mut rows = Vec::new();
    for (n, net) in nets.iter().enumerate() {
        for m in 0..net.mappings.len() {
            rows.push(Row {
                net: n,
                mapping: m,
                congestion: CongestionMode::Off,
            });
        }
    }
    rows.push(Row {
        net: 1,
        mapping: 0,
        congestion: CongestionMode::EcnAimd,
    });
    rows
}

/// Accepted traffic may exceed the offered rate only by the Bernoulli
/// generator's noise (6 standard deviations) plus one message per host
/// already in flight when the window opened.
fn accepted_within_offered(s: &SimStats, cfg: &SimConfig, hosts: usize) -> bool {
    let window_flits = hosts as f64 * s.cycles as f64;
    let expected_msgs = window_flits * s.offered_flits_per_host_cycle / cfg.msg_len as f64;
    let slack = (6.0 * expected_msgs.sqrt() + hosts as f64) * cfg.msg_len as f64 / window_flits;
    s.accepted_flits_per_host_cycle <= s.offered_flits_per_host_cycle + slack
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Result<Report, String> {
    let mut tabu_ms = Vec::new();
    let mut clock = SetupClock::default();
    let mut timed = |clock: &mut SetupClock| {
        let mut ms = 0.0;
        let nets = clock.time(|| setup(args.seed, &mut Tracer::new(false), &mut ms));
        tabu_ms.push(ms);
        nets
    };
    let nets = timed(&mut clock);
    let base = SimConfig {
        warmup_cycles: 2_000,
        measure_cycles: 8_000,
        seed: args.seed,
        ..SimConfig::default()
    };
    let rows = rows(&nets);
    let mut report = Report::default();
    let mut checks = Checks::default();
    let mut op_ms: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut first: Vec<Option<SimStats>> = Vec::new();
    let mut grids: Vec<Vec<f64>> = Vec::new();
    let (mut flits, mut sim_s) = (0u64, 0.0f64);
    let (mut traced_cycles, mut traced_s) = (0u64, 0.0f64);
    let mut sat_ms = Vec::new();
    let (mut ecn_ms, mut off_ms) = (0.0, 0.0);
    let mut round_counts: Option<(u64, u64)> = None;
    let mut rounds = Rounds::new(args);
    let mut r = 0;
    while rounds.another() {
        let began = Instant::now();
        let traced = Rounds::traced(args, r);
        tracer.arm(traced);
        // The shared S1..S9 grid of each network, anchored at OP.
        let mut round_grids = Vec::new();
        let mut sat_total = 0.0;
        for net in &nets {
            let (sat, elapsed) = tracer.leaf("netsim", || {
                find_saturation_rate(
                    &net.topology,
                    &net.routing,
                    &net.mappings[0].host_clusters,
                    base,
                    SweepConfig::default(),
                )
            });
            sat_total += elapsed;
            let sat = sat.map_err(|e| format!("{}: saturation search: {e}", net.name))?;
            round_grids.push(sweep_rates(sat, POINTS, OVERDRIVE));
        }
        if traced {
            sat_ms.push(sat_total);
        }
        if r == 0 {
            grids = round_grids.clone();
        } else {
            checks.check(round_grids == grids, || {
                format!("round {r}: saturation rates changed")
            });
        }
        let (mut cycles, mut delivered) = (0u64, 0u64);
        let mut k = 0;
        for row in &rows {
            let net = &nets[row.net];
            for &rate in &round_grids[row.net] {
                report.attempted += 1;
                let cfg = SimConfig {
                    congestion: row.congestion,
                    ..base.with_rate(rate)
                };
                let span = tracer.begin_op();
                let (stats, elapsed) = tracer.leaf("netsim", || {
                    simulate(
                        &net.topology,
                        &net.routing,
                        &net.mappings[row.mapping].host_clusters,
                        cfg,
                    )
                });
                tracer.exit(span);
                // As in `schedule`: repeat the set-up after every operation.
                tracer.arm(false);
                timed(&mut clock);
                tracer.arm(traced);
                let stats = match stats {
                    Ok(s) => Some(s),
                    Err(e) => {
                        eprintln!(
                            "simulate {} {} {rate}: {e}",
                            net.name, net.mappings[row.mapping].label
                        );
                        report.failed += 1;
                        None
                    }
                };
                if let Some(s) = &stats {
                    if !(r == 0 && k == 0) {
                        op_ms[usize::from(traced)].push(elapsed);
                    }
                    if traced {
                        traced_cycles += cfg.warmup_cycles + s.cycles;
                        traced_s += elapsed / 1e3;
                        if row.net == 1 && row.mapping == 0 {
                            match row.congestion {
                                CongestionMode::Off => off_ms += elapsed,
                                _ => ecn_ms += elapsed,
                            }
                        }
                    } else {
                        flits += s.delivered_flits;
                        sim_s += elapsed / 1e3;
                    }
                    cycles += cfg.warmup_cycles + s.cycles;
                    delivered += s.delivered_flits;
                }
                if r == 0 {
                    first.push(stats);
                } else if let (Some(Some(a)), Some(b)) = (first.get(k), stats) {
                    checks.check(
                        a.delivered_flits == b.delivered_flits
                            && a.generated_messages == b.generated_messages,
                        || {
                            format!(
                                "round {r}: simulate {} {rate} differs from round 0",
                                net.name
                            )
                        },
                    );
                }
                k += 1;
            }
        }
        round_counts.get_or_insert((cycles, delivered));
        tracer.arm(false);
        rounds.finish(began);
        r += 1;
    }
    let setup_s = clock.median();
    println!(
        "{} rounds, {} simulations in {:.1} s",
        rounds.done,
        report.attempted,
        rounds.elapsed().as_secs_f64()
    );

    // Output checks on round 0.
    let mut throughput = vec![vec![0.0f64; RANDOM_MAPPINGS + 1]; nets.len()];
    let mut k = 0;
    for row in &rows {
        let net = &nets[row.net];
        for _ in &grids[row.net] {
            if let Some(Some(s)) = first.get(k) {
                let hosts = net.topology.num_hosts();
                checks.check(accepted_within_offered(s, &base, hosts), || {
                    format!(
                        "{} {}: accepted {} exceeds offered {}",
                        net.name,
                        net.mappings[row.mapping].label,
                        s.accepted_flits_per_host_cycle,
                        s.offered_flits_per_host_cycle
                    )
                });
                checks.check(!s.deadlocked, || {
                    format!("{}: deadlock under up*/down*", net.name)
                });
                if row.congestion == CongestionMode::Off {
                    let t = &mut throughput[row.net][row.mapping];
                    *t = t.max(s.accepted_flits_per_switch_cycle);
                }
            } else {
                checks.check(false, || "a round-0 simulation failed".into());
            }
            k += 1;
        }
    }
    for (n, net) in nets.iter().enumerate() {
        check_mapping(
            &mut checks,
            net.name,
            &net.op_assign,
            &net.demands,
            net.op_fg,
            &net.table,
            1e-9,
        );
        for m in 1..net.mappings.len() {
            checks.check(throughput[n][0] > throughput[n][m], || {
                format!(
                    "{}: OP throughput {} does not beat {} ({})",
                    net.name, throughput[n][0], net.mappings[m].label, throughput[n][m]
                )
            });
        }
        for (rate, congestion) in [
            (grids[n][0], CongestionMode::Off),
            (grids[n][POINTS - 1], CongestionMode::Off),
            (grids[n][POINTS - 1], CongestionMode::EcnAimd),
        ] {
            conservation_check(
                net,
                SimConfig {
                    congestion,
                    ..base.with_rate(rate)
                },
                &mut checks,
            );
        }
    }
    println!("{}", checks.summary());
    report.correct = checks.ok();
    let op24 = throughput[1][0];
    let random24 = mean(&throughput[1][1..]);
    println!(
        "throughput paper16 {:?}; paper24 {:?} (flits/switch/cycle, OP first)",
        throughput[0], throughput[1]
    );

    if args.trace {
        let (cycles, delivered) = round_counts.unwrap_or_default();
        report.metric("netsim.cycles", cycles as f64, "cycles");
        report.metric("netsim.flits_delivered", delivered as f64, "flits");
        report.metric(
            "netsim.cycles_per_s",
            traced_cycles as f64 / traced_s,
            "cycles/s",
        );
        report.metric("netsim.flits_per_s", flits as f64 / sim_s, "flits/s");
        report.metric("netsim.saturation_search_ms", median(&sat_ms), "ms");
        report.metric("netsim.ecn_cost_ratio", ecn_ms / off_ms, "x");
        report.metric("netsim.accepted_ratio", op24 / random24, "x");
        report.metric("search.tabu_ms", median(&tabu_ms), "ms");
        crate::overhead_metrics(&mut report, &op_ms);
    } else {
        let fgs: Vec<f64> = nets.iter().map(|n| n.op_fg).collect();
        crate::end_to_end_metrics(&mut report, setup_s, &rounds, &op_ms[0], &fgs);
    }
    Ok(report)
}

/// Run to the end of the measurement window, stop generating and drain:
/// every generated message is delivered and every injected flit arrives.
fn conservation_check(net: &Net, cfg: SimConfig, checks: &mut Checks) {
    let pattern = TrafficPattern::new(net.mappings[0].host_clusters.clone());
    let mut sim = match Simulator::new(&net.topology, &net.routing, pattern, cfg) {
        Ok(s) => s,
        Err(e) => return checks.check(false, || format!("{}: simulator: {e}", net.name)),
    };
    let stalled = sim.advance(cfg.warmup_cycles + cfg.measure_cycles) || sim.drain(1_000_000);
    let injected: u64 = sim.host_injected_flits().iter().sum();
    let ok = !stalled
        && !sim.in_flight()
        && sim.generated_messages() == sim.delivered_messages()
        && injected == sim.delivered_flits()
        && sim.delivered_flits() == sim.delivered_messages() * cfg.msg_len as u64;
    checks.check(ok, || {
        format!(
            "{} ({:?}, rate {}): flits not conserved: generated {} delivered {} messages, injected {injected} delivered {} flits",
            net.name,
            cfg.congestion,
            cfg.injection_rate,
            sim.generated_messages(),
            sim.delivered_messages(),
            sim.delivered_flits()
        )
    });
}
