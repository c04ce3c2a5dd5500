//! Property tests: the revised simplex against the dense tableau oracle on
//! randomized LPs, duality invariants, and the optimal mechanism's dual
//! against its primal (on the deterministic `geoind-testkit` harness;
//! failures print a per-case seed).

use geoind_lp::dual::{opt_dual, solve_opt_dual};
use geoind_lp::model::{Model, Op, Sense};
use geoind_lp::simplex::VALUE_CLIP;
use geoind_lp::tableau::solve_dense;
use geoind_lp::LpError;
use geoind_rng::{Rng, SeededRng};
use geoind_testkit::gens::{bool_any, Gen};
use geoind_testkit::{check, ensure, Config};

/// A randomized LP that is feasible by construction: we pick a witness
/// point `x0 ≥ 0` first and derive compatible right-hand sides.
#[derive(Debug, Clone)]
struct RandomLp {
    costs: Vec<f64>,
    rows: Vec<(Vec<f64>, Op, f64)>,
}

/// Generator for [`RandomLp`]: 2–5 variables, 1–6 rows. Shrinks by
/// dropping trailing rows (the witness keeps every prefix feasible).
struct RandomLpGen;

impl Gen for RandomLpGen {
    type Value = RandomLp;

    fn generate(&self, rng: &mut SeededRng) -> RandomLp {
        let n = rng.gen_range(2..=5usize);
        let m = rng.gen_range(1..=6usize);
        let costs: Vec<f64> = (0..n).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let witness: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..4.0)).collect();
        let rows = (0..m)
            .map(|_| {
                let row: Vec<f64> = (0..n).map(|_| rng.gen_range(-3.0..3.0)).collect();
                let op = match rng.gen_range(0..3usize) {
                    0 => Op::Le,
                    1 => Op::Ge,
                    _ => Op::Eq,
                };
                let slack = rng.gen_range(0.0..3.0);
                let ax: f64 = row.iter().zip(&witness).map(|(a, x)| a * x).sum();
                let rhs = match op {
                    Op::Le => ax + slack,
                    Op::Ge => ax - slack,
                    Op::Eq => ax,
                };
                (row, op, rhs)
            })
            .collect();
        RandomLp { costs, rows }
    }

    fn shrink(&self, v: &RandomLp) -> Vec<RandomLp> {
        if v.rows.len() > 1 {
            let mut w = v.clone();
            w.rows.pop();
            vec![w]
        } else {
            Vec::new()
        }
    }
}

fn build_model(lp: &RandomLp, sense: Sense) -> Model {
    let mut m = Model::new(sense);
    let vars: Vec<usize> = lp.costs.iter().map(|&c| m.add_var(c)).collect();
    for (coefs, op, rhs) in &lp.rows {
        let entries: Vec<(usize, f64)> = vars.iter().zip(coefs).map(|(&v, &c)| (v, c)).collect();
        m.add_row(&entries, *op, *rhs);
    }
    m
}

/// Revised simplex (primal path) agrees with the tableau oracle.
#[test]
fn primal_matches_oracle() {
    check(
        "primal_matches_oracle",
        Config::cases(300),
        &(RandomLpGen, bool_any()),
        |(lp, maximize)| {
            let sense = if *maximize {
                Sense::Maximize
            } else {
                Sense::Minimize
            };
            let model = build_model(lp, sense);
            let oracle = solve_dense(sense, &lp.costs, &lp.rows);
            let ours = model.solve();
            match (oracle, ours) {
                (Ok((obj_o, _)), Ok(sol)) => {
                    ensure!(
                        (obj_o - sol.objective).abs() < 1e-6 * (1.0 + obj_o.abs()),
                        "objective mismatch: oracle {obj_o}, ours {}",
                        sol.objective
                    );
                    ensure!(sol.residual < 1e-6);
                }
                (Err(LpError::Unbounded), Err(LpError::Unbounded)) => {}
                // These LPs are feasible by construction; anything else is a bug.
                (o, u) => ensure!(false, "status mismatch: oracle {o:?}, ours {u:?}"),
            }
            Ok(())
        },
    );
}

/// A small random OPT instance: `n` locations, the prior-weighted losses
/// `Π(x)·d(x,z)/ΣΠ` (row `x·n+z`), and the materialized GeoInd pairs in
/// inclusion order, each with its `e^{−ε·d(x,x′)}` row scale.
#[derive(Debug, Clone)]
struct RandomOpt {
    n: usize,
    losses: Vec<f64>,
    pairs: Vec<(usize, usize, f64)>,
}

/// Generator for [`RandomOpt`]: 2–5 random points in a 3 km square, a
/// random prior, ε in [0.1, 2], and either every ordered pair or a random
/// subset of them. Does not shrink.
///
/// The square keeps every row scale `e^{−ε·d}` above ~2e-4. Drawn from a
/// 10 km square, scales fall to ~1e-8 and the reference, a solve of the
/// primal `Model`, turns ill-conditioned: it can exit "optimal" with
/// GeoInd rows violated by up to ~1e-3 while the dual's channel is
/// feasible.
struct RandomOptGen;

impl Gen for RandomOptGen {
    type Value = RandomOpt;

    fn generate(&self, rng: &mut SeededRng) -> RandomOpt {
        let n = rng.gen_range(2..=5usize);
        let pts: Vec<(f64, f64)> = (0..n)
            .map(|_| (rng.gen_range(0.0..3.0), rng.gen_range(0.0..3.0)))
            .collect();
        let dist = |a: usize, b: usize| {
            let (dx, dy) = (pts[a].0 - pts[b].0, pts[a].1 - pts[b].1);
            (dx * dx + dy * dy).sqrt()
        };
        let prior: Vec<f64> = (0..n).map(|_| rng.gen_range(0.05..1.0)).collect();
        let psum: f64 = prior.iter().sum();
        let eps = rng.gen_range(0.1..2.0);
        let subset = rng.gen_range(0..2usize) == 1;
        let losses = (0..n * n)
            .map(|k| prior[k / n] / psum * dist(k / n, k % n))
            .collect();
        let mut pairs = Vec::new();
        for x in 0..n {
            for xp in (0..n).filter(|&xp| xp != x) {
                if !subset || rng.gen_range(0..2usize) == 1 {
                    pairs.push((x, xp, (-eps * dist(x, xp)).exp()));
                }
            }
        }
        RandomOpt { n, losses, pairs }
    }
}

/// The OPT instance as a primal [`Model`]: row-stochasticity equalities
/// and one row-scaled GeoInd row per pair and output.
fn opt_primal(opt: &RandomOpt) -> Model {
    let n = opt.n;
    let mut m = Model::new(Sense::Minimize);
    for &loss in &opt.losses {
        m.add_var(loss);
    }
    for x in 0..n {
        let row: Vec<(usize, f64)> = (0..n).map(|z| (x * n + z, 1.0)).collect();
        m.add_row(&row, Op::Eq, 1.0);
    }
    for &(x, xp, scale) in &opt.pairs {
        for z in 0..n {
            m.add_row(&[(x * n + z, scale), (xp * n + z, -1.0)], Op::Le, 0.0);
        }
    }
    m
}

/// The optimal mechanism's dual, built in standard form and solved, agrees
/// with a cold solve of the same primal (objectives within 1e-9 relative
/// to `max(|objective|, 1)`), and reads off a channel: every entry at
/// least `−VALUE_CLIP`, every row summing to 1 within 1e-9.
#[test]
fn opt_dual_matches_the_primal() {
    check(
        "opt_dual_matches_the_primal",
        Config::cases(300),
        &RandomOptGen,
        |opt| {
            let n = opt.n;
            let primal = opt_primal(opt).solve();
            let dual = solve_opt_dual(&opt_dual(n, &opt.losses, &opt.pairs), None);
            let (p, d) = match (primal, dual) {
                (Ok(p), Ok(d)) => (p, d),
                (p, d) => return Err(format!("OPT is bounded and feasible: {p:?} vs {d:?}")),
            };
            ensure!(
                (p.objective - d.objective).abs() <= 1e-9 * p.objective.abs().max(1.0),
                "objective mismatch: primal {} dual {}",
                p.objective,
                d.objective
            );
            ensure!(d.channel.len() == n * n);
            for &k in &d.channel {
                ensure!(k >= -VALUE_CLIP, "entry {k} below -VALUE_CLIP");
            }
            for row in d.channel.chunks(n) {
                let sum: f64 = row.iter().sum();
                ensure!((sum - 1.0).abs() <= 1e-9, "row sums to {sum}");
            }
            Ok(())
        },
    );
}

/// Strong duality and sign conventions of the returned duals.
#[test]
fn duality_invariants() {
    check(
        "duality_invariants",
        Config::cases(300),
        &RandomLpGen,
        |lp| {
            let model = build_model(lp, Sense::Minimize);
            if let Ok(sol) = model.solve() {
                // objective == y'b
                let yb: f64 = sol
                    .duals
                    .iter()
                    .zip(&lp.rows)
                    .map(|(y, (_, _, b))| y * b)
                    .sum();
                ensure!(
                    (yb - sol.objective).abs() < 1e-6 * (1.0 + sol.objective.abs()),
                    "y'b={yb} obj={}",
                    sol.objective
                );
                // Reduced costs are >= 0 for a minimization at optimum.
                for j in 0..lp.costs.len() {
                    let ya: f64 = sol
                        .duals
                        .iter()
                        .zip(&lp.rows)
                        .map(|(y, (coefs, _, _))| y * coefs[j])
                        .sum();
                    ensure!(lp.costs[j] - ya > -1e-6, "negative reduced cost at var {j}");
                }
                // Dual sign conventions: Ge rows have y >= 0, Le rows y <= 0.
                for (i, (_, op, _)) in lp.rows.iter().enumerate() {
                    match op {
                        Op::Ge => ensure!(sol.duals[i] >= -1e-7),
                        Op::Le => ensure!(sol.duals[i] <= 1e-7),
                        Op::Eq => {}
                    }
                }
            }
            Ok(())
        },
    );
}
