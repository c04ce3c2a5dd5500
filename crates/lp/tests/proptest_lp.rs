//! Property tests: the revised simplex (primal and dual paths) against the
//! dense tableau oracle on randomized LPs, plus duality invariants (on the
//! deterministic `geoind-testkit` harness; failures print a per-case seed).

use geoind_lp::model::{Model, Op, Sense, SolveVia};
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
            let ours = model.solve(SolveVia::Primal);
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

/// Dual path agrees with primal path (objective AND variable values at
/// non-degenerate instances — we check objective which is always unique).
#[test]
fn dual_path_matches_primal_path() {
    check(
        "dual_path_matches_primal_path",
        Config::cases(300),
        &(RandomLpGen, bool_any()),
        |(lp, maximize)| {
            let sense = if *maximize {
                Sense::Maximize
            } else {
                Sense::Minimize
            };
            let model = build_model(lp, sense);
            let p = model.solve(SolveVia::Primal);
            let d = model.solve(SolveVia::Dual);
            match (p, d) {
                (Ok(ps), Ok(ds)) => {
                    ensure!(
                        (ps.objective - ds.objective).abs() < 1e-6 * (1.0 + ps.objective.abs()),
                        "objective mismatch: primal {} dual {}",
                        ps.objective,
                        ds.objective
                    );
                    // The dual-path primal values must be feasible for the model.
                    for (coefs, op, rhs) in &lp.rows {
                        let ax: f64 = coefs.iter().zip(&ds.values).map(|(a, x)| a * x).sum();
                        match op {
                            Op::Le => ensure!(ax <= rhs + 1e-6, "Le violated: {ax} > {rhs}"),
                            Op::Ge => ensure!(ax >= rhs - 1e-6, "Ge violated: {ax} < {rhs}"),
                            Op::Eq => {
                                ensure!((ax - rhs).abs() < 1e-6, "Eq violated: {ax} != {rhs}")
                            }
                        }
                    }
                    for &v in &ds.values {
                        ensure!(v >= -1e-7, "negative primal value {v} from dual path");
                    }
                }
                (Err(LpError::Unbounded), Err(e)) => {
                    // Unbounded primal surfaces as an error through the dual too.
                    ensure!(matches!(e, LpError::Unbounded | LpError::Infeasible));
                }
                (p, d) => ensure!(false, "status mismatch: primal {p:?}, dual {d:?}"),
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
            if let Ok(sol) = model.solve(SolveVia::Primal) {
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
