//! Wall-clock micro-benchmarks for the LP substrate.

use geoind_lp::model::{Model, Op, Sense, SolveVia};
use geoind_lp::tableau::solve_dense;
use geoind_rng::{Rng, SeededRng};
use geoind_testkit::bench::Bench;
use std::hint::black_box;

/// An OPT-shaped LP over `n` collinear unit-spaced locations.
fn opt_shaped(n: usize, eps: f64) -> Model {
    let mut m = Model::new(Sense::Minimize);
    let pts: Vec<f64> = (0..n).map(|i| i as f64).collect();
    for x in 0..n {
        for z in 0..n {
            m.add_var((pts[x] - pts[z]).abs() / n as f64);
        }
    }
    for x in 0..n {
        let row: Vec<(usize, f64)> = (0..n).map(|z| (x * n + z, 1.0)).collect();
        m.add_row(&row, Op::Eq, 1.0);
    }
    for x in 0..n {
        for xp in 0..n {
            if x == xp {
                continue;
            }
            let scale = (-eps * (pts[x] - pts[xp]).abs()).exp();
            for z in 0..n {
                m.add_row(&[(x * n + z, scale), (xp * n + z, -1.0)], Op::Le, 0.0);
            }
        }
    }
    m
}

fn bench_paths(b: &mut Bench) {
    for n in [6usize, 10] {
        let model = opt_shaped(n, 0.6);
        b.iter(&format!("opt_shaped_n{n}/dual_path"), || {
            black_box(model.solve(SolveVia::Dual).unwrap())
        });
        if n <= 6 {
            b.iter(&format!("opt_shaped_n{n}/primal_path"), || {
                black_box(model.solve(SolveVia::Primal).unwrap())
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
        black_box(model.solve(SolveVia::Primal).unwrap())
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
