//! Property tests: the revised simplex against the dense tableau oracle on
//! randomized slack-covered LPs, duality invariants, the optimal
//! mechanism's dual checked by its own weak-duality certificate, and the
//! sparse LU against the dense LU it replaced (on the deterministic
//! `geoind-testkit` harness; failures print a per-case seed).

mod dense_lu;
mod tableau;

use dense_lu::DenseLu;
use geoind_lp::dual::opt_dual;
use geoind_lp::lu::SparseLu;
use geoind_lp::simplex::{solve_standard, SimplexStatus, StandardLp, OPT_TOL, VALUE_CLIP};
use geoind_lp::sparse::CscBuilder;
use geoind_rng::{Rng, SeededRng};
use geoind_testkit::gens::Gen;
use geoind_testkit::{check, ensure, Config};
use tableau::solve_dense;

/// A randomized LP in slack-covered standard form: structural columns,
/// then one +1 slack per row, with a non-negative right-hand side, so the
/// slack basis is a feasible start. It may be unbounded.
#[derive(Debug, Clone)]
struct RandomLp {
    /// The structural columns' costs.
    costs: Vec<f64>,
    /// Each row: its structural coefficients, its slack's cost and its
    /// right-hand side.
    rows: Vec<(Vec<f64>, f64, f64)>,
}

impl RandomLp {
    fn standard(&self) -> StandardLp {
        let mut cols = CscBuilder::new(self.rows.len());
        for j in 0..self.costs.len() {
            let col: Vec<(usize, f64)> = self
                .rows
                .iter()
                .enumerate()
                .map(|(i, (coefs, _, _))| (i, coefs[j]))
                .collect();
            cols.push_col(&col);
        }
        for i in 0..self.rows.len() {
            cols.push_col(&[(i, 1.0)]);
        }
        StandardLp {
            cols: cols.finish(),
            costs: self
                .costs
                .iter()
                .copied()
                .chain(self.rows.iter().map(|&(_, cost, _)| cost))
                .collect(),
            rhs: self.rows.iter().map(|&(_, _, rhs)| rhs).collect(),
        }
    }
}

/// Generator for [`RandomLp`]: 2–5 structural columns, 1–6 rows. About a
/// quarter of the coefficients are zero, a third of the slacks carry a
/// positive cost, and a sixth of the right-hand sides are zero
/// (degenerate vertices). Shrinks by dropping trailing rows.
struct RandomLpGen;

impl Gen for RandomLpGen {
    type Value = RandomLp;

    fn generate(&self, rng: &mut SeededRng) -> RandomLp {
        let n = rng.gen_range(2..=5usize);
        let m = rng.gen_range(1..=6usize);
        let costs: Vec<f64> = (0..n).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let rows = (0..m)
            .map(|_| {
                let coefs: Vec<f64> = (0..n)
                    .map(|_| {
                        if rng.gen_range(0..4usize) == 0 {
                            0.0
                        } else {
                            rng.gen_range(-3.0..3.0)
                        }
                    })
                    .collect();
                let slack_cost = if rng.gen_range(0..3usize) == 0 {
                    rng.gen_range(0.0..3.0)
                } else {
                    0.0
                };
                let rhs = if rng.gen_range(0..6usize) == 0 {
                    0.0
                } else {
                    rng.gen_range(0.0..6.0)
                };
                (coefs, slack_cost, rhs)
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

/// Revised simplex agrees with the tableau oracle: the same objective when
/// both find an optimum, and both report an unbounded LP as such.
#[test]
fn primal_matches_oracle() {
    check(
        "primal_matches_oracle",
        Config::cases(300),
        &RandomLpGen,
        |lp| {
            let lp = lp.standard();
            let ours = solve_standard(&lp, None).map_err(|e| format!("refused: {e}"))?;
            match (solve_dense(&lp), ours.status) {
                (Some((obj_o, _)), SimplexStatus::Optimal) => {
                    ensure!(
                        (obj_o - ours.objective).abs() < 1e-6 * (1.0 + obj_o.abs()),
                        "objective mismatch: oracle {obj_o}, ours {}",
                        ours.objective
                    );
                    ensure!(ours.residual < 1e-6);
                }
                (None, SimplexStatus::Unbounded) => {}
                (o, s) => ensure!(false, "status mismatch: oracle {o:?}, ours {s:?}"),
            }
            Ok(())
        },
    );
}

/// At an optimum, the row duals close the gap to the objective and to the
/// oracle's (`y·b`), price every column non-negatively (on a zero-cost
/// slack that is the `≤` row's sign convention `y_i ≤ 0`) and are
/// complementary to the solution.
#[test]
fn duality_invariants() {
    check(
        "duality_invariants",
        Config::cases(300),
        &RandomLpGen,
        |lp| {
            let lp = lp.standard();
            let sol = solve_standard(&lp, None).map_err(|e| format!("refused: {e}"))?;
            if sol.status != SimplexStatus::Optimal {
                return Ok(()); // unbounded: `primal_matches_oracle`'s case
            }
            let (oracle, _) = solve_dense(&lp).ok_or("the oracle found it unbounded")?;
            let tol = 1e-6 * (1.0 + oracle.abs());
            let yb: f64 = sol.duals.iter().zip(&lp.rhs).map(|(y, b)| y * b).sum();
            ensure!(
                (yb - sol.objective).abs() < tol,
                "y'b={yb} obj={}",
                sol.objective
            );
            ensure!((yb - oracle).abs() < tol, "y'b={yb} oracle={oracle}");
            for j in 0..lp.cols.ncols() {
                let d = lp.costs[j] - lp.cols.col_dot(j, &sol.duals);
                ensure!(d > -1e-6, "negative reduced cost {d} at column {j}");
                ensure!(
                    (sol.x[j] * d).abs() < 1e-6,
                    "column {j} at {} has reduced cost {d}",
                    sol.x[j]
                );
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

/// Generator for [`RandomOpt`]: 2–5 random points in a 10 km square, a
/// random prior, ε in [0.1, 2], and either every ordered pair or a random
/// subset of them. Does not shrink.
///
/// Across the square the row scales `e^{−ε·d}` fall as low as ~5e-13, so
/// the duals mix columns whose entries differ by twelve orders of
/// magnitude.
struct RandomOptGen;

impl Gen for RandomOptGen {
    type Value = RandomOpt;

    fn generate(&self, rng: &mut SeededRng) -> RandomOpt {
        let n = rng.gen_range(2..=5usize);
        let pts: Vec<(f64, f64)> = (0..n)
            .map(|_| (rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0)))
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

/// The optimal mechanism's dual, built in standard form and solved,
/// carries its own optimality certificate, checked here against the
/// primal rows the test writes out itself:
/// - the channel `K = −duals` is primal-feasible: every entry at least
///   `−VALUE_CLIP`, every row summing to 1 within 1e-9, and every GeoInd
///   row `scale·K(x,z) − K(x′,z) ≤ 0` within `OPT_TOL`;
/// - the dual point read off the solution in `opt_dual`'s column order,
///   `u_x = x[2x] − x[2x+1]` and `λ_{p,z} = x[2n + p·n + z]`, is
///   dual-feasible: `λ ≥ 0`, and for every `(x, z)`,
///   `u_x − Σ_{p=(x,·)} scale_p·λ_{p,z} + Σ_{p=(·,x)} λ_{p,z} ≤ loss(x,z)`
///   within 1e-9;
/// - the objectives `Σ loss·K` and `Σ_x u_x` agree within 1e-9 relative to
///   `max(|objective|, 1)`, so by weak duality both points are optimal.
#[test]
fn opt_dual_matches_the_primal() {
    check(
        "opt_dual_matches_the_primal",
        Config::cases(300),
        &RandomOptGen,
        |opt| {
            let (n, losses, pairs) = (opt.n, &opt.losses, &opt.pairs);
            let res = solve_standard(&opt_dual(n, losses, pairs), None)
                .map_err(|e| format!("refused: {e}"))?;
            ensure!(
                res.status == SimplexStatus::Optimal,
                "OPT is bounded and feasible: {:?}",
                res.status
            );
            let k: Vec<f64> = res.duals.iter().map(|y| -y).collect();
            for &v in &k {
                ensure!(v >= -VALUE_CLIP, "entry {v} below -VALUE_CLIP");
            }
            for row in k.chunks(n) {
                let sum: f64 = row.iter().sum();
                ensure!((sum - 1.0).abs() <= 1e-9, "row sums to {sum}");
            }
            for &(x, xp, scale) in pairs {
                for z in 0..n {
                    let excess = scale * k[x * n + z] - k[xp * n + z];
                    ensure!(
                        excess <= OPT_TOL,
                        "GeoInd row ({x}, {xp}, {z}) violated by {excess}"
                    );
                }
            }

            let u: Vec<f64> = (0..n).map(|x| res.x[2 * x] - res.x[2 * x + 1]).collect();
            let lambda = |p: usize, z: usize| res.x[2 * n + p * n + z];
            for p in 0..pairs.len() {
                for z in 0..n {
                    ensure!(lambda(p, z) >= 0.0, "λ({p}, {z}) = {}", lambda(p, z));
                }
            }
            for x in 0..n {
                for z in 0..n {
                    let mut lhs = u[x];
                    for (p, &(from, to, scale)) in pairs.iter().enumerate() {
                        if from == x {
                            lhs -= scale * lambda(p, z);
                        }
                        if to == x {
                            lhs += lambda(p, z);
                        }
                    }
                    let excess = lhs - losses[x * n + z];
                    ensure!(
                        excess <= 1e-9,
                        "dual row ({x}, {z}) exceeds its loss by {excess}"
                    );
                }
            }

            let primal: f64 = losses.iter().zip(&k).map(|(l, v)| l * v).sum();
            let dual: f64 = u.iter().sum();
            ensure!(
                (primal - dual).abs() <= 1e-9 * primal.abs().max(1.0),
                "duality gap: primal {primal}, dual {dual}"
            );
            Ok(())
        },
    );
}

/// A square block shaped like the general block of an OPT dual's basis,
/// as `(row, value)` columns over shuffled rows.
#[derive(Debug, Clone)]
struct OptBlock {
    n: usize,
    cols: Vec<Vec<(usize, f64)>>,
}

/// Generator for [`OptBlock`]: orders 1–80. Most columns are pair columns,
/// `−e^{−ε·d}` and `+1` on two random rows (or one, when the other row is
/// covered by a singleton outside the block); up to √n are dense ±1
/// border columns. A third of the pair columns use the scale 1, so equal
/// magnitudes of both signs tie and the first row in the dense order
/// decides. One case in four scales some columns to straddle the `1e-13`
/// singularity floor. Rows are shuffled. Does not shrink.
struct OptBlockGen;

impl Gen for OptBlockGen {
    type Value = OptBlock;

    fn generate(&self, rng: &mut SeededRng) -> OptBlock {
        let n = rng.gen_range(1..=80usize);
        let borders = rng.gen_range(0..=(n as f64).sqrt() as usize);
        let tiny = rng.gen_range(0..4usize) == 0;
        let mut perm: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            perm.swap(i, rng.gen_range(0..=i));
        }
        let cols = (0..n)
            .map(|j| {
                let mut col: Vec<(usize, f64)> = if j < borders {
                    let mut col = Vec::new();
                    for r in 0..n {
                        if rng.gen_range(0..3usize) != 0 {
                            col.push((
                                r,
                                if rng.gen_range(0..2usize) == 0 {
                                    1.0
                                } else {
                                    -1.0
                                },
                            ));
                        }
                    }
                    col
                } else {
                    let scale = if rng.gen_range(0..3usize) == 0 {
                        1.0
                    } else {
                        (-rng.gen_range(0.0..30.0f64)).exp()
                    };
                    let a = rng.gen_range(0..n);
                    let b = rng.gen_range(0..n);
                    match rng.gen_range(0..4usize) {
                        0 => vec![(a, -scale)],
                        1 => vec![(b, 1.0)],
                        _ if a == b => vec![(a, 1.0 - scale)],
                        _ => vec![(a, -scale), (b, 1.0)],
                    }
                };
                if tiny && rng.gen_range(0..3usize) == 0 {
                    let f = [5e-14, 9.999_999e-14, 1e-13, 1.000_001e-13, 2e-13];
                    let f = f[rng.gen_range(0..f.len())];
                    for e in &mut col {
                        e.1 *= f;
                    }
                }
                for e in &mut col {
                    e.0 = perm[e.0];
                }
                col.retain(|e| e.1 != 0.0);
                col
            })
            .collect();
        OptBlock { n, cols }
    }
}

/// The sparse LU agrees with the dense LU it replaced: the same singular
/// verdict at the same column, and an inverse with identical bits on every
/// entry (`==`, so ±0 compare equal; the sparse solve returns no zeros).
#[test]
fn sparse_lu_replays_the_dense_lu() {
    check(
        "sparse_lu_replays_the_dense_lu",
        Config::cases(400),
        &OptBlockGen,
        |block| {
            let n = block.n;
            let mut dense = vec![0.0; n * n];
            for (j, col) in block.cols.iter().enumerate() {
                for &(r, v) in col {
                    dense[j * n + r] = v;
                }
            }
            let mut lu = SparseLu::default();
            let sparse = lu.factor(n, block.cols.iter().map(|c| c.iter().copied()));
            let oracle = DenseLu::factor(n, dense);
            let oracle = match (oracle, sparse) {
                (Ok(oracle), Ok(())) => oracle,
                (Err(a), Err(b)) => {
                    ensure!(
                        a == b,
                        "singular at {} (dense), {} (sparse)",
                        a.column,
                        b.column
                    );
                    return Ok(());
                }
                (a, b) => {
                    ensure!(false, "dense {:?}, sparse {:?}", a.err(), b.err());
                    return Ok(());
                }
            };
            let inv = oracle.inverse();
            let mut col = Vec::new();
            for t in 0..n {
                lu.inverse_column(t, &mut col);
                let mut got = vec![0.0; n];
                for &(s, v) in &col {
                    ensure!(v != 0.0, "zero returned at ({s}, {t})");
                    got[s] = v;
                }
                for s in 0..n {
                    let want = inv[t * n + s];
                    ensure!(
                        got[s] == want && (want == 0.0 || got[s].to_bits() == want.to_bits()),
                        "inverse ({s}, {t}): sparse {:e}, dense {want:e}",
                        got[s]
                    );
                }
            }
            Ok(())
        },
    );
}
