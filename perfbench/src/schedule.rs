//! `schedule-flat` and `schedule-multilevel`: the cold local pipeline
//! topology → up*/down* routing → exact distance table → mapping search →
//! quality, one operation per network, driven through the layer crates at
//! a stated thread count.

use crate::checks::{best_random_fg, check_mapping, check_table, same_grouping};
use crate::trace::Tracer;
use crate::{counters, median, ms, Args, Checks, Report, Rounds, SetupClock};
use commsched_core::{quality, Workload};
use commsched_distance::{equivalent_distance_table_with, DistanceTable, SolverKind, TableOptions};
use commsched_routing::UpDownRouting;
use commsched_search::{
    multilevel_map, parallel_multi_seed, MultilevelParams, TabuParams, TabuSearch,
};
use commsched_topology::{designed, random_regular, RandomTopologyConfig, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Switch counts of the random networks of one `schedule-flat` round
/// (24 to 128 in steps of 4); the paper's designed 24-switch network is
/// added to every round.
const FLAT_SIZES: [usize; 27] = [
    24, 28, 32, 36, 40, 44, 48, 52, 56, 60, 64, 68, 72, 76, 80, 84, 88, 92, 96, 100, 104, 108, 112,
    116, 120, 124, 128,
];
/// Switch counts of one `schedule-multilevel` round.
const MULTILEVEL_SIZES: [usize; 6] = [960, 992, 1024, 1056, 1088, 1120];
/// Restarts of the flat search, as `commsched schedule` runs it.
const SEARCH_SEEDS: usize = 10;
/// Applications (logical clusters) mapped onto every network.
const CLUSTERS: usize = 4;
/// Random partitions each mapping must beat.
const RANDOM_BASELINES: usize = 20;

#[derive(Clone, Copy, PartialEq)]
enum Strategy {
    Flat,
    Multilevel { threads: usize },
}

struct Input {
    name: String,
    topology: Topology,
    search_seed: u64,
}

/// What one operation produced, kept from the first round for the checks.
struct Output {
    routing: UpDownRouting,
    table: DistanceTable,
    demands: Vec<usize>,
    assign: Vec<usize>,
    fg: f64,
    search_fg: f64,
}

/// Per-operation layer timings (traced rounds only).
#[derive(Default)]
struct LayerTimes {
    routing_ms: Vec<f64>,
    distance_ms: Vec<f64>,
    search_ms: Vec<f64>,
}

fn make_inputs(seed: u64, sizes: &[usize], with_paper24: bool) -> Vec<Input> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut inputs = Vec::new();
    if with_paper24 {
        inputs.push(Input {
            name: "paper24".into(),
            topology: designed::paper_24_switch(),
            search_seed: rng.gen(),
        });
    }
    for &n in sizes {
        let topology = random_regular(RandomTopologyConfig::paper(n), &mut rng)
            .expect("a connected 3-regular network exists for every listed size");
        inputs.push(Input {
            name: format!("random{n}"),
            topology,
            search_seed: rng.gen(),
        });
    }
    inputs
}

fn run_op(
    input: &Input,
    strategy: Strategy,
    tracer: &mut Tracer,
    layers: &mut LayerTimes,
) -> Result<Output, String> {
    let topo = &input.topology;
    let threads = match strategy {
        Strategy::Flat => 1,
        Strategy::Multilevel { threads } => threads,
    };
    let (routing, routing_ms) = tracer.leaf("routing", || UpDownRouting::new(topo, 0));
    let routing = routing.map_err(|e| format!("{}: routing: {e}", input.name))?;
    let (table, distance_ms) = tracer.leaf("distance", || {
        equivalent_distance_table_with(
            topo,
            &routing,
            TableOptions {
                threads,
                ..TableOptions::default()
            },
        )
    });
    let table = table.map_err(|e| format!("{}: table: {e}", input.name))?;
    let (demands, _) = tracer.leaf("core", || {
        Workload::balanced(topo, CLUSTERS).map(|w| w.switch_demands(topo.hosts_per_switch()))
    });
    let demands = demands.map_err(|e| format!("{}: workload: {e}", input.name))?;
    let (result, search_ms) = tracer.leaf("search", || match strategy {
        Strategy::Flat => {
            let mapper = TabuSearch::new(TabuParams {
                threads: 1,
                ..TabuParams::scaled(topo.num_switches())
            });
            parallel_multi_seed(
                &mapper,
                &table,
                &demands,
                input.search_seed,
                SEARCH_SEEDS,
                1,
            )
            .1
        }
        Strategy::Multilevel { threads } => {
            let params = MultilevelParams {
                threads,
                ..MultilevelParams::default()
            };
            multilevel_map(&table, &demands, input.search_seed, &params).0
        }
    });
    let (q, _) = tracer.leaf("core", || quality(&result.partition, &table));
    layers.routing_ms.push(routing_ms);
    layers.distance_ms.push(distance_ms);
    layers.search_ms.push(search_ms);
    Ok(Output {
        routing,
        table,
        demands,
        assign: result.partition.assignment().to_vec(),
        fg: q.fg,
        search_fg: result.fg,
    })
}

pub fn run_flat(args: &Args, tracer: &mut Tracer) -> Result<Report, String> {
    run(args, tracer, Strategy::Flat)
}

pub fn run_multilevel(args: &Args, tracer: &mut Tracer) -> Result<Report, String> {
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    println!("schedule-multilevel: table and search threads = {threads}");
    run(args, tracer, Strategy::Multilevel { threads })
}

fn run(args: &Args, tracer: &mut Tracer, strategy: Strategy) -> Result<Report, String> {
    let setup = || match strategy {
        Strategy::Flat => make_inputs(args.seed, &FLAT_SIZES, true),
        Strategy::Multilevel { .. } => make_inputs(args.seed, &MULTILEVEL_SIZES, false),
    };
    let mut clock = SetupClock::default();
    let inputs = clock.time(setup);
    let mut report = Report::default();
    let mut checks = Checks::default();
    let mut first: Vec<Option<Output>> = Vec::new();
    // op_ms samples per round parity: [untraced, traced].
    let mut op_ms: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut layers = LayerTimes::default();
    let mut scratch = LayerTimes::default();
    let c0 = counters();
    let mut rounds = Rounds::new(args);
    let mut r = 0;
    while rounds.another() {
        let began = Instant::now();
        let traced = Rounds::traced(args, r);
        tracer.arm(traced);
        for (i, input) in inputs.iter().enumerate() {
            report.attempted += 1;
            let span = tracer.begin_op();
            let t0 = Instant::now();
            let sink = if traced { &mut layers } else { &mut scratch };
            let out = run_op(input, strategy, tracer, sink);
            let elapsed = ms(t0.elapsed());
            tracer.exit(span);
            // Set-up takes milliseconds and the host's speed drifts by tens
            // of percent over seconds: repeating it after every operation
            // (outside the operation's time) samples the whole run.
            tracer.arm(false);
            clock.time(setup);
            tracer.arm(traced);
            let out = match out {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("operation failed: {e}");
                    report.failed += 1;
                    if r == 0 {
                        first.push(None);
                    }
                    continue;
                }
            };
            // The run's very first operation is a warm-up.
            if !(r == 0 && i == 0) {
                op_ms[usize::from(traced)].push(elapsed);
            }
            if r == 0 {
                first.push(Some(out));
            } else if let Some(Some(f)) = first.get(i) {
                checks.check(f.assign == out.assign && f.fg == out.fg, || {
                    format!("{}: round {r} mapping differs from round 0", input.name)
                });
            }
        }
        tracer.arm(false);
        rounds.finish(began);
        r += 1;
    }
    let setup_s = clock.median();
    let c1 = counters();
    println!(
        "{} rounds, {} operations in {:.1} s",
        rounds.done,
        report.attempted,
        rounds.elapsed().as_secs_f64()
    );

    // Checks on the first round's outputs.
    let mut fgs = Vec::new();
    for (input, out) in inputs.iter().zip(&first) {
        let Some(out) = out else { continue };
        let what = &input.name;
        check_table(&mut checks, what, &out.table, &out.routing);
        let fg = check_mapping(
            &mut checks,
            what,
            &out.assign,
            &out.demands,
            out.fg,
            &out.table,
            1e-9,
        );
        checks.check((out.search_fg - fg).abs() <= 1e-9, || {
            format!(
                "{what}: search reported F_G {} but Eq. 2 gives {fg}",
                out.search_fg
            )
        });
        let baseline = best_random_fg(
            &out.table,
            &out.demands,
            RANDOM_BASELINES,
            input.search_seed,
        );
        checks.check(fg < baseline, || {
            format!("{what}: F_G {fg} is not below the best of {RANDOM_BASELINES} random partitions ({baseline})")
        });
        if input.name == "paper24" {
            let rings = designed::ring_of_rings_clusters(4, 6);
            let mut truth = vec![0; 24];
            for (c, members) in rings.iter().enumerate() {
                for &s in members {
                    truth[s] = c;
                }
            }
            checks.check(same_grouping(&out.assign, &truth), || {
                "paper24: the mapping is not the four rings".to_string()
            });
        }
        fgs.push(out.fg);
    }
    checks.check(fgs.len() == inputs.len(), || {
        "an operation of round 0 failed".into()
    });
    dense_oracle_check(args.seed, &mut checks);
    println!("{}", checks.summary());
    report.correct = checks.ok();

    if args.trace {
        report.metric("routing.build_ms", median(&layers.routing_ms), "ms");
        report.metric("distance.build_ms", median(&layers.distance_ms), "ms");
        let search = match strategy {
            Strategy::Flat => "search.tabu_ms",
            Strategy::Multilevel { .. } => "search.multilevel_ms",
        };
        report.metric(search, median(&layers.search_ms), "ms");
        crate::counter_metrics(&mut report, &c0, &c1);
        crate::overhead_metrics(&mut report, &op_ms);
    } else {
        crate::end_to_end_metrics(&mut report, setup_s, &rounds, &op_ms[0], &fgs);
    }
    Ok(report)
}

/// The sparse table builder against the dense Gaussian oracle on one
/// seeded N = 64 network.
fn dense_oracle_check(seed: u64, checks: &mut Checks) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0D15_EA5E);
    let topo = random_regular(RandomTopologyConfig::paper(64), &mut rng)
        .expect("a 64-switch 3-regular network exists");
    let routing = UpDownRouting::new(&topo, 0).expect("random_regular returns connected networks");
    let fast = equivalent_distance_table_with(&topo, &routing, TableOptions::default());
    let dense = equivalent_distance_table_with(
        &topo,
        &routing,
        TableOptions {
            solver: SolverKind::DenseGaussian,
            ..TableOptions::default()
        },
    );
    match (fast, dense) {
        (Ok(fast), Ok(dense)) => {
            let mut worst = 0.0f64;
            for i in 0..64 {
                for j in 0..64 {
                    worst = worst.max((fast.get(i, j) - dense.get(i, j)).abs());
                }
            }
            checks.check(worst <= 1e-9, || {
                format!("N=64 table differs from the dense oracle by {worst:e}")
            });
        }
        (a, b) => checks.check(false, || {
            format!("N=64 oracle build failed: {:?} / {:?}", a.err(), b.err())
        }),
    }
}
