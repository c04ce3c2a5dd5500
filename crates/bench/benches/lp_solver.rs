//! Wall-clock micro-benchmarks for the LP substrate.

use geoind_lp::dual::{opt_dual, solve_opt_dual};
use geoind_lp::model::{Model, Op, Sense};
use geoind_lp::tableau::solve_dense;
use geoind_rng::{Rng, SeededRng};
use geoind_testkit::bench::Bench;
use std::hint::black_box;

/// OPT over `n` collinear unit-spaced locations under a uniform prior:
/// the prior-weighted losses and every GeoInd pair with its `e^{−ε·d}`
/// row scale.
fn opt_shaped(n: usize, eps: f64) -> (Vec<f64>, Vec<(usize, usize, f64)>) {
    let pts: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let losses = (0..n * n)
        .map(|k| (pts[k / n] - pts[k % n]).abs() / n as f64)
        .collect();
    let mut pairs = Vec::new();
    for x in 0..n {
        for xp in (0..n).filter(|&xp| xp != x) {
            pairs.push((x, xp, (-eps * (pts[x] - pts[xp]).abs()).exp()));
        }
    }
    (losses, pairs)
}

/// The same OPT as a primal [`Model`].
fn opt_primal(n: usize, losses: &[f64], pairs: &[(usize, usize, f64)]) -> Model {
    let mut m = Model::new(Sense::Minimize);
    for &loss in losses {
        m.add_var(loss);
    }
    for x in 0..n {
        let row: Vec<(usize, f64)> = (0..n).map(|z| (x * n + z, 1.0)).collect();
        m.add_row(&row, Op::Eq, 1.0);
    }
    for &(x, xp, scale) in pairs {
        for z in 0..n {
            m.add_row(&[(x * n + z, scale), (xp * n + z, -1.0)], Op::Le, 0.0);
        }
    }
    m
}

fn bench_paths(b: &mut Bench) {
    for n in [6usize, 10] {
        let (losses, pairs) = opt_shaped(n, 0.6);
        b.iter(&format!("opt_shaped_n{n}/dual_path"), || {
            black_box(solve_opt_dual(&opt_dual(n, &losses, &pairs), None).unwrap())
        });
        if n <= 6 {
            let model = opt_primal(n, &losses, &pairs);
            b.iter(&format!("opt_shaped_n{n}/primal_path"), || {
                black_box(model.solve().unwrap())
            });
        }
    }
}

fn bench_oracle_vs_revised(b: &mut Bench) {
    // A modest random feasible LP where both solvers apply.
    let mut rng = SeededRng::from_seed(9);
    let n = 12usize;
    let m = 14usize;
    let costs: Vec<f64> = (0..n).map(|_| rng.gen_range(-3.0..3.0)).collect();
    let witness: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..2.0)).collect();
    let rows: Vec<(Vec<f64>, Op, f64)> = (0..m)
        .map(|_| {
            let coefs: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let ax: f64 = coefs.iter().zip(&witness).map(|(a, x)| a * x).sum();
            (coefs, Op::Le, ax + rng.gen_range(0.0..2.0))
        })
        .collect();
    let mut model = Model::new(Sense::Minimize);
    let vars: Vec<usize> = costs.iter().map(|&c| model.add_var(c)).collect();
    for (coefs, op, rhs) in &rows {
        let entries: Vec<(usize, f64)> = vars.iter().zip(coefs).map(|(&v, &c)| (v, c)).collect();
        model.add_row(&entries, *op, *rhs);
    }
    b.iter("revised_simplex_random_lp", || {
        black_box(model.solve().unwrap())
    });
    b.iter("tableau_oracle_random_lp", || {
        black_box(solve_dense(Sense::Minimize, &costs, &rows).unwrap())
    });
}

fn bench_lu(b: &mut Bench) {
    use geoind_lp::dense::{DenseMatrix, LuFactors};
    let mut rng = SeededRng::from_seed(10);
    let n = 200usize;
    let mut a = DenseMatrix::zeros(n, n);
    for j in 0..n {
        for i in 0..n {
            a.set(i, j, rng.gen_range(-1.0..1.0));
        }
        a.set(j, j, a.get(j, j) + 5.0);
    }
    let rhs: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let lu = LuFactors::factor(&a).unwrap();
    b.iter("dense_lu_200/factor", || {
        black_box(LuFactors::factor(&a).unwrap())
    });
    b.iter("dense_lu_200/solve", || black_box(lu.solve(&rhs)));
    b.iter("dense_lu_200/solve_transpose", || {
        black_box(lu.solve_transpose(&rhs))
    });
}

fn main() {
    let mut b = Bench::new("lp_solver");
    bench_paths(&mut b);
    bench_oracle_vs_revised(&mut b);
    bench_lu(&mut b);
    b.finish();
}
