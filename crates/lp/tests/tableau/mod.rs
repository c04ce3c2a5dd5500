//! Naive dense tableau simplex — a slow, transparent oracle.
//!
//! This solver exists purely to cross-check the revised simplex in tests
//! (including property tests over random LPs). It takes the same
//! slack-covered [`StandardLp`] the engine takes and starts from the same
//! slack basis, then uses Bland's rule throughout, which guarantees
//! termination at the cost of speed, and dense `O(m·n)` tableau updates.

// Index loops over tableau rows and columns read as the textbook pivot.
#![allow(clippy::needless_range_loop)]

use geoind_lp::simplex::StandardLp;

/// Solve `min c·x  s.t.  A x = b, x ≥ 0` with a dense tableau, starting
/// from the first unit (+1 singleton) column of each row.
///
/// Returns `Some((objective, x))`, or `None` when the objective is
/// unbounded below.
///
/// # Panics
/// Panics when a row has no unit column, or when Bland's rule fails to
/// terminate within its iteration budget.
pub fn solve_dense(lp: &StandardLp) -> Option<(f64, Vec<f64>)> {
    let (m, n) = (lp.rhs.len(), lp.costs.len());
    // Layout: [columns | rhs]. The slack basis is the identity, so the
    // starting tableau is `[A | b]` itself.
    let mut t = vec![vec![0.0f64; n + 1]; m];
    let mut slack: Vec<Option<usize>> = vec![None; m];
    for j in 0..n {
        let entries: Vec<(usize, f64)> = lp.cols.col(j).collect();
        for &(i, v) in &entries {
            t[i][j] = v;
        }
        if let [(i, v)] = entries[..] {
            if v == 1.0 && slack[i].is_none() {
                slack[i] = Some(j);
            }
        }
    }
    for (i, &b) in lp.rhs.iter().enumerate() {
        t[i][n] = b;
    }
    let mut basis: Vec<usize> = slack
        .iter()
        .enumerate()
        .map(|(i, s)| s.unwrap_or_else(|| panic!("row {i} has no unit column")))
        .collect();

    // Reduced costs `c − c_B·A`, and `−c_B·b` in the rhs slot.
    let mut obj = vec![0.0f64; n + 1];
    obj[..n].copy_from_slice(&lp.costs);
    for i in 0..m {
        let cb = lp.costs[basis[i]];
        if cb != 0.0 {
            for j in 0..=n {
                obj[j] -= cb * t[i][j];
            }
        }
    }
    if !run(&mut t, &mut obj, &mut basis, n) {
        return None;
    }

    let mut x = vec![0.0f64; n];
    for i in 0..m {
        x[basis[i]] = t[i][n];
    }
    let objective: f64 = x.iter().zip(&lp.costs).map(|(v, c)| v * c).sum();
    Some((objective, x))
}

/// Bland-rule tableau iteration until optimal (`true`) or unbounded
/// (`false`).
fn run(t: &mut [Vec<f64>], obj: &mut [f64], basis: &mut [usize], total: usize) -> bool {
    let m = t.len();
    for _ in 0..200_000 {
        // Bland: smallest improving column index.
        let Some(q) = (0..total).find(|&j| obj[j] < -1e-9) else {
            return true;
        };
        // Bland leaving rule: min ratio, smallest basis index tie-break.
        let mut leave: Option<usize> = None;
        let mut best_ratio = f64::INFINITY;
        for i in 0..m {
            if t[i][q] > 1e-9 {
                let ratio = t[i][total] / t[i][q];
                if ratio < best_ratio - 1e-12
                    || (ratio < best_ratio + 1e-12 && leave.is_none_or(|l| basis[i] < basis[l]))
                {
                    best_ratio = ratio;
                    leave = Some(i);
                }
            }
        }
        let Some(r) = leave else {
            return false;
        };
        // Pivot on (r, q).
        let piv = t[r][q];
        for v in t[r].iter_mut() {
            *v /= piv;
        }
        for i in 0..m {
            if i != r && t[i][q].abs() > 0.0 {
                let f = t[i][q];
                for j in 0..=total {
                    t[i][j] -= f * t[r][j];
                }
            }
        }
        let f = obj[q];
        if f != 0.0 {
            for j in 0..=total {
                obj[j] -= f * t[r][j];
            }
        }
        basis[r] = q;
    }
    panic!("Bland's rule did not terminate in 200,000 pivots");
}

#[cfg(test)]
mod tests {
    use super::*;
    use geoind_lp::sparse::CscBuilder;

    /// `min c·x  s.t.  A x = b`, columns given densely.
    fn lp(cols: &[&[f64]], costs: &[f64], rhs: &[f64]) -> StandardLp {
        let mut b = CscBuilder::new(rhs.len());
        for col in cols {
            let entries: Vec<(usize, f64)> = col.iter().copied().enumerate().collect();
            b.push_col(&entries);
        }
        StandardLp {
            cols: b.finish(),
            costs: costs.to_vec(),
            rhs: rhs.to_vec(),
        }
    }

    #[test]
    fn textbook_max() {
        // max 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18, as a minimization
        // with one slack per row.
        let (obj, x) = solve_dense(&lp(
            &[
                &[1.0, 0.0, 3.0],
                &[0.0, 2.0, 2.0],
                &[1.0, 0.0, 0.0],
                &[0.0, 1.0, 0.0],
                &[0.0, 0.0, 1.0],
            ],
            &[-3.0, -5.0, 0.0, 0.0, 0.0],
            &[4.0, 12.0, 18.0],
        ))
        .unwrap();
        assert!((obj + 36.0).abs() < 1e-9);
        assert!((x[0] - 2.0).abs() < 1e-9);
        assert!((x[1] - 6.0).abs() < 1e-9);
    }

    #[test]
    fn unbounded() {
        // min −x s.t. −x + s = 1.
        let r = solve_dense(&lp(&[&[-1.0], &[1.0]], &[-1.0, 0.0], &[1.0]));
        assert!(r.is_none());
    }
}
