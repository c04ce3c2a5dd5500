//! Dualization: solve row-heavy LPs through their column-heavy duals.
//!
//! The optimal GeoInd mechanism over `n` locations has `n²` variables and
//! `Θ(n³)` rows. A revised simplex carries an `m×m` basis for `m = #rows`,
//! so the primal is hopeless beyond tiny `n` — but the dual has only `n²`
//! rows. Strong duality recovers the primal optimum exactly: the optimal
//! primal values are the row duals of the dual problem.
//!
//! A bonus specific to OPT: its objective coefficients `Π(x)·d_Q(x,z)` are
//! non-negative, so the dual's slack basis is immediately feasible and the
//! simplex never needs a phase 1.

use crate::model::{Model, Op, Sense, Solution, SolveVia, VarDomain};
use crate::simplex::{Basis, Warm};
use crate::LpError;

/// The dual model plus the bookkeeping needed to map solutions back.
#[derive(Debug, Clone)]
pub struct Dualized {
    /// The dual LP (always `Maximize` for a `Minimize` primal).
    pub model: Model,
    /// `+1` where the dual variable is the textbook `yᵢ`, `−1` where it was
    /// negated to fit the non-negative domain (primal `≤` rows).
    pub row_var_signs: Vec<f64>,
}

/// Build the dual of a **minimization** model.
///
/// Textbook correspondence (primal `min c·x`):
///
/// | primal row     | dual variable | | primal variable | dual row        |
/// |----------------|---------------|-|-----------------|-----------------|
/// | `a·x ≥ b`      | `y ≥ 0`       | | `x ≥ 0`         | `aᵀy ≤ c`       |
/// | `a·x ≤ b`      | `y ≤ 0`       | | `x` free        | `aᵀy = c`       |
/// | `a·x = b`      | `y` free      | |                 |                 |
///
/// `y ≤ 0` variables are stored negated (so every non-free dual variable is
/// non-negative); [`Dualized::row_var_signs`] records the flip.
///
/// # Panics
/// Panics if the model is a maximization (callers negate first).
pub fn dualize_min(primal: &Model) -> Dualized {
    assert_eq!(
        primal.sense(),
        Sense::Minimize,
        "dualize_min expects a minimization"
    );
    let mut dual = Model::new(Sense::Maximize);
    let mut row_var_signs = Vec::with_capacity(primal.num_rows());
    // One dual variable per primal row; objective coefficient = rhs.
    for row in &primal.rows {
        let sign = match row.op {
            Op::Ge => 1.0,
            Op::Le => -1.0,
            Op::Eq => 1.0,
        };
        row_var_signs.push(sign);
        match row.op {
            Op::Eq => dual.add_var_free(row.rhs),
            _ => dual.add_var(sign * row.rhs),
        };
    }
    // One dual row per primal variable: Σ_i a_ij·y_i (≤ or =) c_j.
    let mut per_var: Vec<Vec<(usize, f64)>> = vec![Vec::new(); primal.num_vars()];
    for (i, row) in primal.rows.iter().enumerate() {
        for &(v, c) in &row.entries {
            per_var[v].push((i, c * row_var_signs[i]));
        }
    }
    for (j, entries) in per_var.iter().enumerate() {
        let op = match primal.domains[j] {
            VarDomain::NonNeg => Op::Le,
            VarDomain::Free => Op::Eq,
        };
        dual.add_row(entries, op, primal.obj[j]);
    }
    Dualized {
        model: dual,
        row_var_signs,
    }
}

/// Remap a [`Basis`] exported from a [`SolveVia::Dual`] solve of `before`
/// so it can warm-start the dual path again after `added` new `Le` rows
/// were appended to the (primal) model.
///
/// On the dual path a primal row is a dual *variable*, so appending primal
/// `Le` rows inserts `added` non-negative dual variables — one
/// standard-form column each — immediately before the dual's slack block.
/// The dual's rows (one per primal variable) and right-hand side (the
/// primal objective) are untouched, which is why the old basis remains
/// primal-feasible for the grown dual LP and a
/// [`Warm::Continue`] restart is sound: only the
/// column indices at or past the insertion point need shifting.
///
/// `before` must be the model *before* the rows were appended; free dual
/// variables (primal `Eq` rows) occupy two standard columns, everything
/// else one.
pub fn remap_dual_basis_after_le_append(before: &Model, basis: &Basis, added: usize) -> Basis {
    let insert_at: usize = before
        .rows
        .iter()
        .map(|r| if r.op == Op::Eq { 2 } else { 1 })
        .sum();
    basis.with_columns_inserted(insert_at, added)
}

/// Solve `primal` by dualizing, running the simplex on the dual, and mapping
/// back: primal values ← dual row-duals, primal duals ← dual variable
/// values. A `warm` basis lives in the dual's standard-form space (the
/// [`Solution::basis`] of an earlier dual-path solve).
pub fn solve_via_dual(primal: &Model, warm: Option<Warm>) -> Result<Solution, LpError> {
    // Normalize to minimization.
    if primal.sense() == Sense::Maximize {
        let mut min_model = primal.clone();
        min_model.sense = Sense::Minimize;
        for c in &mut min_model.obj {
            *c = -*c;
        }
        let sol = solve_via_dual(&min_model, warm)?;
        return Ok(Solution {
            objective: -sol.objective,
            values: sol.values,
            duals: sol.duals.iter().map(|&d| -d).collect(),
            iterations: sol.iterations,
            residual: sol.residual,
            dual_residual: sol.dual_residual,
            basis: sol.basis,
            warm_fallback: sol.warm_fallback,
            discarded_pivots: sol.discarded_pivots,
        });
    }
    let dualized = dualize_min(primal);
    let dual_sol = match dualized.model.solve_with(SolveVia::Primal, warm) {
        Ok(s) => s,
        // An unbounded dual certifies primal infeasibility; an infeasible
        // dual means the primal is unbounded or infeasible — for the LPs in
        // this workspace (bounded feasible) we report the textbook case.
        Err(LpError::Unbounded) => return Err(LpError::Infeasible),
        Err(LpError::Infeasible) => return Err(LpError::Unbounded),
        Err(e) => return Err(e),
    };
    // Primal variable values = duals of the dual's rows (one row per
    // primal var, in order).
    let values = dual_sol.duals.clone();
    // Primal row duals = dual variable values, unflipped.
    let duals: Vec<f64> = dual_sol
        .values
        .iter()
        .zip(&dualized.row_var_signs)
        .map(|(&v, &s)| v * s)
        .collect();
    // The recovered primal values are the dual solve's row duals, so their
    // feasibility is governed by the dual solve's *dual* residual (and vice
    // versa): swap the two so the caller reads them in primal terms.
    // The basis travels in the dual's standard-form space: a sibling model
    // dualized the same way produces the same shape, so it round-trips.
    Ok(Solution {
        objective: dual_sol.objective,
        values,
        duals,
        iterations: dual_sol.iterations,
        residual: dual_sol.dual_residual,
        dual_residual: dual_sol.residual,
        basis: dual_sol.basis,
        warm_fallback: dual_sol.warm_fallback,
        discarded_pivots: dual_sol.discarded_pivots,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Model, Op, Sense, SolveVia};

    fn assert_close(a: f64, b: f64, tol: f64, what: &str) {
        assert!((a - b).abs() < tol, "{what}: {a} vs {b}");
    }

    #[test]
    fn dual_path_matches_primal_path_on_max() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var(3.0);
        let y = m.add_var(5.0);
        m.add_row(&[(x, 1.0)], Op::Le, 4.0);
        m.add_row(&[(y, 2.0)], Op::Le, 12.0);
        m.add_row(&[(x, 3.0), (y, 2.0)], Op::Le, 18.0);
        let p = m.solve(SolveVia::Primal).unwrap();
        let d = m.solve(SolveVia::Dual).unwrap();
        assert_close(p.objective, d.objective, 1e-8, "objective");
        for j in 0..2 {
            assert_close(p.values[j], d.values[j], 1e-8, "value");
        }
        for i in 0..3 {
            assert_close(p.duals[i], d.duals[i], 1e-8, "dual");
        }
    }

    #[test]
    fn dual_path_matches_primal_path_on_min_with_eq() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var(2.0);
        let y = m.add_var(3.0);
        let z = m.add_var(1.0);
        m.add_row(&[(x, 1.0), (y, 1.0), (z, 1.0)], Op::Eq, 10.0);
        m.add_row(&[(x, 1.0), (y, -1.0)], Op::Ge, 2.0);
        m.add_row(&[(z, 1.0)], Op::Le, 4.0);
        let p = m.solve(SolveVia::Primal).unwrap();
        let d = m.solve(SolveVia::Dual).unwrap();
        assert_close(p.objective, d.objective, 1e-8, "objective");
        for j in 0..3 {
            assert_close(p.values[j], d.values[j], 1e-8, "value");
        }
    }

    #[test]
    fn opt_shaped_lp_slack_start() {
        // A miniature of the OPT structure: minimize sum pi_x d(x,z) k_xz
        // with row-stochastic equalities and difference constraints.
        // 2 locations at distance 1, eps = 1, uniform prior.
        let e = std::f64::consts::E;
        let mut m = Model::new(Sense::Minimize);
        // Vars k(0,0), k(0,1), k(1,0), k(1,1).
        let k00 = m.add_var(0.0);
        let k01 = m.add_var(0.5);
        let k10 = m.add_var(0.5);
        let k11 = m.add_var(0.0);
        m.add_row(&[(k00, 1.0), (k01, 1.0)], Op::Eq, 1.0);
        m.add_row(&[(k10, 1.0), (k11, 1.0)], Op::Eq, 1.0);
        // GeoInd rows: k(x,z) - e^{eps d} k(x',z) <= 0 for all x != x', z.
        m.add_row(&[(k00, 1.0), (k10, -e)], Op::Le, 0.0);
        m.add_row(&[(k10, 1.0), (k00, -e)], Op::Le, 0.0);
        m.add_row(&[(k01, 1.0), (k11, -e)], Op::Le, 0.0);
        m.add_row(&[(k11, 1.0), (k01, -e)], Op::Le, 0.0);
        let p = m.solve(SolveVia::Primal).unwrap();
        let d = m.solve(SolveVia::Dual).unwrap();
        assert_close(p.objective, d.objective, 1e-9, "objective");
        // Known optimum: truthful reporting pushed to the GeoInd limit:
        // k(0,1) = k(1,0) = 1/(1+e), objective = 1/(1+e).
        let expect = 1.0 / (1.0 + e);
        assert_close(d.objective, expect, 1e-9, "closed form");
        assert_close(d.values[k01], expect, 1e-8, "k01");
        assert_close(d.values[k10], expect, 1e-8, "k10");
        assert_close(d.values[k00], 1.0 - expect, 1e-8, "k00");
        assert_close(d.values[k11], 1.0 - expect, 1e-8, "k11");
    }

    #[test]
    fn dual_basis_survives_le_row_append() {
        // min 2x + y s.t. x + y = 2  =>  (0, 2), objective 2.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var(2.0);
        let y = m.add_var(1.0);
        m.add_row(&[(x, 1.0), (y, 1.0)], Op::Eq, 2.0);
        let first = m.solve(SolveVia::Dual).unwrap();
        assert!((first.objective - 2.0).abs() < 1e-9);

        // Append a violated cut y <= 1.5; remap the exit basis past the new
        // dual column and continue in primal mode.
        let before = m.clone();
        m.add_row(&[(y, 1.0)], Op::Le, 1.5);
        let warm_basis = remap_dual_basis_after_le_append(&before, &first.basis, 1);
        let warm = m
            .solve_with(SolveVia::Dual, Some(Warm::Continue(warm_basis)))
            .unwrap();
        let cold = m.solve(SolveVia::Dual).unwrap();
        assert_close(warm.objective, 2.5, 1e-9, "objective after cut");
        assert_close(warm.values[x], 0.5, 1e-8, "x");
        assert_close(warm.values[y], 1.5, 1e-8, "y");
        assert_close(warm.objective, cold.objective, 1e-9, "warm vs cold");
    }

    #[test]
    fn infeasible_primal_detected_through_dual() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var(1.0);
        m.add_row(&[(x, 1.0)], Op::Ge, 5.0);
        m.add_row(&[(x, 1.0)], Op::Le, 2.0);
        assert_eq!(m.solve(SolveVia::Dual).unwrap_err(), LpError::Infeasible);
    }
}
