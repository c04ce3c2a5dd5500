//! Wall-clock micro-benchmarks for the LP substrate.

use geoind_lp::dense::{DenseMatrix, LuFactors};
use geoind_lp::dual::{opt_dual, solve_opt_dual};
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

fn bench_paths(b: &mut Bench) {
    for n in [6usize, 10] {
        let (losses, pairs) = opt_shaped(n, 0.6);
        b.iter(&format!("opt_shaped_n{n}/dual_path"), || {
            black_box(solve_opt_dual(&opt_dual(n, &losses, &pairs), None).unwrap())
        });
    }
}

/// The dense work of the engine's refactorization: the LU of a basis
/// block and the block's explicit inverse built from it.
fn bench_lu(b: &mut Bench) {
    let mut rng = SeededRng::from_seed(10);
    let n = 200usize;
    let mut a = DenseMatrix::zeros(n, n);
    for j in 0..n {
        for i in 0..n {
            a.set(i, j, rng.gen_range(-1.0..1.0));
        }
        a.set(j, j, a.get(j, j) + 5.0);
    }
    let lu = LuFactors::factor(&a).unwrap();
    let mut inv = DenseMatrix::default();
    b.iter("dense_lu_200/factor", || {
        black_box(LuFactors::factor(&a).unwrap())
    });
    b.iter("dense_lu_200/inverse", || {
        lu.inverse_into(&mut inv);
        black_box(&inv);
    });
}

fn main() {
    let mut b = Bench::new("lp_solver");
    bench_paths(&mut b);
    bench_lu(&mut b);
    b.finish();
}
