//! The optimal-mechanism LP, solved through its dual.
//!
//! OPT over `n` locations has `n²` variables and up to `n + n²(n−1)` rows
//! (Bordenabe et al., Eq. 3–6). A revised simplex carries an `m×m` basis
//! for `m = #rows`, so the primal is hopeless beyond tiny `n`, but its
//! dual has only `n²` rows. Strong duality recovers the primal optimum
//! exactly: the channel is read off the dual's row duals, which is how a
//! commercial dual-simplex run behaves on the original problem.
//!
//! [`opt_dual`] builds that dual directly in computational standard form,
//! [`solve_opt_dual`] solves it and maps the answer back to the primal,
//! and [`continue_after_pairs`] carries an exit basis across a cut round.
//! The loss coefficients `Π(x)·d_Q(x,z)` are non-negative, so the dual's
//! slack basis is immediately feasible and no solve needs a phase 1.

use crate::simplex::{solve_standard, Basis, Effort, SimplexStatus, StandardLp, Warm};
use crate::sparse::CscBuilder;
use crate::LpError;

/// The dual of OPT over `n` locations, in computational standard form.
///
/// The primal is `min Σ losses[x·n+z]·k(x,z)` over `k ≥ 0`, subject to
/// `Σ_z k(x,z) = 1` for every `x` and, for every `(x, x′, scale)` in
/// `pairs` and every `z`, the row-scaled GeoInd row
/// `scale·k(x,z) − k(x′,z) ≤ 0` (`scale = e^{−ε·d(x,x′)}`, so every
/// coefficient stays in `[−1, 1]`).
///
/// The dual has one row per primal variable (row `x·n+z`, right-hand side
/// `losses[x·n+z]`) and these columns, in order:
/// - for each `x`, the free stochasticity dual split in two: `+1` on rows
///   `x·n … x·n+n−1` with cost `−1`, then its negation with cost `+1`;
/// - for each pair, in the given order, and each `z`: `−scale` at row
///   `x·n+z` and `+1` at row `x′·n+z`, cost `+0`;
/// - one `+1` slack per row, cost `0`.
///
/// # Panics
/// Panics unless `losses` has `n²` entries and every pair indexes
/// `0..n`.
pub fn opt_dual(n: usize, losses: &[f64], pairs: &[(usize, usize, f64)]) -> StandardLp {
    assert_eq!(losses.len(), n * n, "one loss per (x, z)");
    let rows = n * n;
    let mut cols = CscBuilder::new(rows);
    let mut costs = Vec::with_capacity(2 * n + n * pairs.len() + rows);
    for x in 0..n {
        let plus: Vec<(usize, f64)> = (x * n..x * n + n).map(|r| (r, 1.0)).collect();
        let minus: Vec<(usize, f64)> = plus.iter().map(|&(r, c)| (r, -c)).collect();
        cols.push_col(&plus);
        cols.push_col(&minus);
        costs.extend([-1.0, 1.0]);
    }
    for &(x, xp, scale) in pairs {
        for z in 0..n {
            cols.push_col(&[(x * n + z, -scale), (xp * n + z, 1.0)]);
            costs.push(0.0);
        }
    }
    for r in 0..rows {
        cols.push_col(&[(r, 1.0)]);
        costs.push(0.0);
    }
    StandardLp {
        cols: cols.finish(),
        costs,
        rhs: losses.to_vec(),
    }
}

/// A solved [`opt_dual`], read in the primal's terms.
#[derive(Debug, Clone)]
pub struct OptSolution {
    /// The primal optimum: the expected loss of [`Self::channel`].
    pub objective: f64,
    /// The optimal channel `k(x,z)` at `x·n+z`: the dual's negated row
    /// duals.
    pub channel: Vec<f64>,
    /// What the solve cost.
    pub effort: Effort,
    /// Primal feasibility of [`Self::channel`]: the engine's dual
    /// residual (worst reduced-cost violation at the exit basis).
    pub residual: f64,
    /// Dual feasibility: the engine's `‖Ax − b‖∞` on the dual.
    pub dual_residual: f64,
    /// The exit basis, in the dual's standard-form column space: a
    /// [`Warm::Restart`] for a sibling dual that differs only in `losses`,
    /// or, through [`continue_after_pairs`], a [`Warm::Continue`] for this
    /// dual grown by more pairs.
    pub basis: Basis,
}

/// Solve an [`opt_dual`], optionally warm-started (see [`Warm`]).
///
/// # Errors
/// An unbounded dual certifies an infeasible primal, so it surfaces as
/// [`LpError::Infeasible`]; the engine's other failures pass through.
pub fn solve_opt_dual(lp: &StandardLp, warm: Option<Warm>) -> Result<OptSolution, LpError> {
    let res = solve_standard(lp, warm)?;
    match res.status {
        SimplexStatus::Optimal => {}
        SimplexStatus::Unbounded => return Err(LpError::Infeasible),
        SimplexStatus::IterationLimit => return Err(LpError::IterationLimit),
        SimplexStatus::SingularBasis => return Err(LpError::SingularBasis),
    }
    let mut channel = res.duals;
    for k in &mut channel {
        *k = -*k;
    }
    Ok(OptSolution {
        objective: -res.objective,
        channel,
        effort: res.effort,
        residual: res.dual_residual,
        dual_residual: res.residual,
        basis: res.basis,
    })
}

/// The warm start that resumes a cut round: `basis`, exported from the
/// solve of an [`opt_dual`] over `n` locations and `pairs_before` pairs,
/// remapped for the same dual with `pairs_added` more pairs appended.
///
/// The new pairs' `n·pairs_added` columns go in just before the slack
/// block; the rows and right-hand side are unchanged, so the old basis
/// stays primal-feasible once its column references past the insertion
/// point shift, and phase 2 resumes from it.
pub fn continue_after_pairs(
    basis: &Basis,
    n: usize,
    pairs_before: usize,
    pairs_added: usize,
) -> Warm {
    Warm::Continue(basis.with_columns_inserted(2 * n + n * pairs_before, n * pairs_added))
}
