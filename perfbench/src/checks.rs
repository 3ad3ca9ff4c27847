//! Output checks that need no stored copy of a previous result: each one
//! recomputes what it checks from the inputs, or checks a property every
//! correct output has.

use crate::Checks;
use commsched_core::Partition;
use commsched_distance::DistanceTable;
use commsched_routing::Routing;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `F_G` (Eq. 2 of the paper) computed from scratch: the mean squared
/// intracluster distance divided by the mean squared distance over all
/// switch pairs.
pub fn fg_eq2(assign: &[usize], table: &DistanceTable) -> f64 {
    let n = assign.len();
    let (mut intra, mut intra_pairs, mut all) = (0.0, 0u64, 0.0);
    for i in 0..n {
        for j in (i + 1)..n {
            let d2 = table.get(i, j) * table.get(i, j);
            all += d2;
            if assign[i] == assign[j] {
                intra += d2;
                intra_pairs += 1;
            }
        }
    }
    let pairs = (n * (n - 1) / 2) as f64;
    (intra / intra_pairs as f64) / (all / pairs)
}

/// Each switch is in exactly one cluster and cluster `c` holds exactly
/// `demands[c]` switches.
pub fn partition_valid(assign: &[usize], demands: &[usize]) -> bool {
    let mut counts = vec![0usize; demands.len()];
    for &c in assign {
        match counts.get_mut(c) {
            Some(k) => *k += 1,
            None => return false,
        }
    }
    counts == demands
}

/// A reported mapping: valid partition, and its `F_G` equals Eq. 2
/// recomputed over `table` within `tol`.
pub fn check_mapping(
    checks: &mut Checks,
    what: &str,
    assign: &[usize],
    demands: &[usize],
    reported_fg: f64,
    table: &DistanceTable,
    tol: f64,
) -> f64 {
    checks.check(partition_valid(assign, demands), || {
        format!("{what}: partition is not a valid {demands:?} partition")
    });
    let fg = fg_eq2(assign, table);
    checks.check((fg - reported_fg).abs() <= tol, || {
        format!("{what}: reported F_G {reported_fg} but Eq. 2 gives {fg}")
    });
    fg
}

/// The lowest `F_G` of `k` random partitions with the given cluster
/// sizes (random partitions average `F_G` = 1).
pub fn best_random_fg(table: &DistanceTable, demands: &[usize], k: usize, seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..k)
        .map(|_| {
            let p = Partition::random(table.n(), demands, &mut rng)
                .expect("demands sum to the switch count");
            fg_eq2(p.assignment(), table)
        })
        .fold(f64::INFINITY, f64::min)
}

/// Symmetric, zero diagonal, and `0 < T[i][j] <=` the routed hop count:
/// the equivalent resistance over the minimal routes is at most the
/// resistance of any one of them.
pub fn check_table(checks: &mut Checks, what: &str, table: &DistanceTable, routing: &dyn Routing) {
    let n = table.n();
    let mut bad = None;
    'outer: for i in 0..n {
        if table.get(i, i) != 0.0 {
            bad = Some(format!("T[{i}][{i}] = {}", table.get(i, i)));
            break;
        }
        for j in (i + 1)..n {
            let (a, b) = (table.get(i, j), table.get(j, i));
            let hops = f64::from(routing.route_distance(i, j));
            if a != b || a.is_nan() || a <= 0.0 || a > hops + 1e-9 {
                bad = Some(format!("T[{i}][{j}] = {a}, T[{j}][{i}] = {b}, hops {hops}"));
                break 'outer;
            }
        }
    }
    checks.check(bad.is_none(), || {
        format!("{what}: table {}", bad.unwrap_or_default())
    });
}

/// Whether two assignments group the switches identically (cluster
/// labels may differ).
pub fn same_grouping(a: &[usize], b: &[usize]) -> bool {
    let n = a.len();
    n == b.len() && (0..n).all(|i| (0..n).all(|j| (a[i] == a[j]) == (b[i] == b[j])))
}
