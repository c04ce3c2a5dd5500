//! Wall-clock micro-benchmarks for the LP substrate.

use geoind_lp::dual::{opt_dual, solve_opt_dual};
use geoind_lp::lu::SparseLu;
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

/// The refactorization kernel on an OPT-shaped block: OPT's dual over a
/// collinear g=4-sized instance (16 locations, m = 256) has two-entry pair
/// columns and a ±1 stochasticity border. Each non-slack column in turn
/// replaces the slack of its largest-index row still covered by one, and
/// stays while the block of replacing columns on the uncovered rows
/// remains regular; the bench times that block's factorization and the
/// solve of all its inverse columns.
fn bench_lu(b: &mut Bench) {
    let n = 16usize;
    let (losses, pairs) = opt_shaped(n, 0.6);
    let lp = opt_dual(n, &losses, &pairs);
    let m = n * n;
    let slack0 = lp.cols.ncols() - m;
    let mut block: Vec<Vec<(usize, f64)>> = Vec::new();
    let mut lu = SparseLu::default();
    let mut taken = vec![false; m];
    for j in 0..slack0 {
        let col: Vec<(usize, f64)> = lp.cols.col(j).collect();
        let Some(&(row, _)) = col.iter().rev().find(|&&(r, _)| !taken[r]) else {
            continue;
        };
        taken[row] = true;
        block.push(col);
        let rows: Vec<usize> = (0..m).filter(|&r| taken[r]).collect();
        let index = |r: usize| rows.binary_search(&r).ok();
        let k = block.len();
        let regular = lu
            .factor(
                k,
                block
                    .iter()
                    .map(|c| c.iter().filter_map(|&(r, v)| index(r).map(|t| (t, v)))),
            )
            .is_ok();
        if !regular {
            taken[row] = false;
            block.pop();
        }
    }
    let rows: Vec<usize> = (0..m).filter(|&r| taken[r]).collect();
    let k = block.len();
    let local: Vec<Vec<(usize, f64)>> = block
        .iter()
        .map(|c| {
            c.iter()
                .filter_map(|&(r, v)| rows.binary_search(&r).ok().map(|t| (t, v)))
                .collect()
        })
        .collect();
    let mut col = Vec::new();
    b.iter(&format!("opt_block_k{k}/factor"), || {
        lu.factor(k, local.iter().map(|c| c.iter().copied()))
            .unwrap();
        black_box(lu.nonzeros())
    });
    b.iter(&format!("opt_block_k{k}/inverse_columns"), || {
        let mut nnz = 0;
        for t in 0..k {
            lu.inverse_column(t, &mut col);
            nnz += col.len();
        }
        black_box(nnz)
    });
}

fn main() {
    let mut b = Bench::new("lp_solver");
    bench_paths(&mut b);
    bench_lu(&mut b);
    b.finish();
}
