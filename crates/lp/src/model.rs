//! User-facing LP modelling API.
//!
//! A [`Model`] owns variables (non-negative or free), rows (`≤ / = / ≥`),
//! and a min/max objective; [`Model::solve`] converts to computational
//! standard form, runs the revised simplex, and maps the answer back. The
//! optimal mechanism does not go through it: it builds its dual directly
//! (see [`crate::dual`]).

use crate::simplex::{solve_standard, Effort, SimplexStatus, StandardLp};
use crate::sparse::CscBuilder;
use crate::LpError;

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    /// Minimize the objective.
    Minimize,
    /// Maximize the objective.
    Maximize,
}

/// Row comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `a·x ≤ b`
    Le,
    /// `a·x = b`
    Eq,
    /// `a·x ≥ b`
    Ge,
}

/// Variable domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarDomain {
    /// `x ≥ 0` (the default).
    NonNeg,
    /// Unrestricted in sign.
    Free,
}

#[derive(Debug, Clone)]
struct Row {
    entries: Vec<(usize, f64)>,
    op: Op,
    rhs: f64,
}

/// A linear program under construction.
#[derive(Debug, Clone)]
pub struct Model {
    sense: Sense,
    obj: Vec<f64>,
    domains: Vec<VarDomain>,
    rows: Vec<Row>,
}

/// An optimal solution.
#[derive(Debug, Clone)]
pub struct Solution {
    /// Objective value in the model's own sense.
    pub objective: f64,
    /// One value per variable, in `add_var` order.
    pub values: Vec<f64>,
    /// Row duals `y` with the convention: `objective = Σ yᵢ·rhsᵢ` and, for
    /// every non-negative variable `j`, `c_j − Σᵢ yᵢ·a_{ij}` is `≥ 0`
    /// (Minimize) or `≤ 0` (Maximize); exactly 0 for free variables.
    pub duals: Vec<f64>,
    /// What the solve cost.
    pub effort: Effort,
    /// `‖Ax − b‖∞` self-check from the engine (primal feasibility).
    pub residual: f64,
    /// Worst reduced-cost violation at the exit basis (dual feasibility),
    /// as a non-negative magnitude.
    pub dual_residual: f64,
}

impl Model {
    /// Start an empty model.
    pub fn new(sense: Sense) -> Self {
        Self {
            sense,
            obj: Vec::new(),
            domains: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Add a non-negative variable with the given objective coefficient;
    /// returns its index.
    pub fn add_var(&mut self, obj: f64) -> usize {
        self.obj.push(obj);
        self.domains.push(VarDomain::NonNeg);
        self.obj.len() - 1
    }

    /// Add a sign-unrestricted variable; returns its index.
    pub fn add_var_free(&mut self, obj: f64) -> usize {
        self.obj.push(obj);
        self.domains.push(VarDomain::Free);
        self.obj.len() - 1
    }

    /// Add a constraint row `Σ coef·x[var] op rhs`.
    ///
    /// # Panics
    /// Panics if an entry references a variable that does not exist.
    pub fn add_row(&mut self, entries: &[(usize, f64)], op: Op, rhs: f64) {
        for &(v, _) in entries {
            assert!(v < self.obj.len(), "row references unknown variable {v}");
        }
        self.rows.push(Row {
            entries: entries.to_vec(),
            op,
            rhs,
        });
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.obj.len()
    }

    /// Solve from a cold start: standard form + revised simplex.
    pub fn solve(&self) -> Result<Solution, LpError> {
        if self.obj.is_empty() {
            return Err(LpError::BadModel("model has no variables".into()));
        }
        let (lp, map) = self.to_standard();
        let res = solve_standard(&lp, None);
        match res.status {
            SimplexStatus::Optimal => {}
            SimplexStatus::Infeasible => return Err(LpError::Infeasible),
            SimplexStatus::Unbounded => return Err(LpError::Unbounded),
            SimplexStatus::IterationLimit => return Err(LpError::IterationLimit),
            SimplexStatus::SingularBasis => return Err(LpError::SingularBasis),
        }
        // Map core solution back to user variables.
        let mut values = vec![0.0; self.num_vars()];
        for (j, v) in values.iter_mut().enumerate() {
            *v = match map.var_cols[j] {
                (p, None) => res.x[p],
                (p, Some(n)) => res.x[p] - res.x[n],
            };
        }
        let sense_sign = if self.sense == Sense::Maximize {
            -1.0
        } else {
            1.0
        };
        let objective = sense_sign * res.objective;
        let duals: Vec<f64> = map
            .row_signs
            .iter()
            .enumerate()
            .map(|(i, &s)| sense_sign * s * res.duals[i])
            .collect();
        Ok(Solution {
            objective,
            values,
            duals,
            effort: res.effort,
            residual: res.residual,
            dual_residual: res.dual_residual,
        })
    }

    /// Convert to computational standard form (min, `Ax = b`, `b ≥ 0`).
    fn to_standard(&self) -> (StandardLp, StandardMap) {
        let nrows = self.rows.len();
        let sense_sign = if self.sense == Sense::Maximize {
            -1.0
        } else {
            1.0
        };
        // Row flip signs so b >= 0.
        let row_signs: Vec<f64> = self
            .rows
            .iter()
            .map(|r| if r.rhs < 0.0 { -1.0 } else { 1.0 })
            .collect();

        // Per-variable row lists.
        let mut var_entries: Vec<Vec<(usize, f64)>> = vec![Vec::new(); self.num_vars()];
        for (i, row) in self.rows.iter().enumerate() {
            for &(v, c) in &row.entries {
                var_entries[v].push((i, c * row_signs[i]));
            }
        }

        let mut bld = CscBuilder::new(nrows);
        let mut costs = Vec::new();
        let mut var_cols = Vec::with_capacity(self.num_vars());
        for j in 0..self.num_vars() {
            let pos = costs.len();
            bld.push_col(&var_entries[j]);
            costs.push(sense_sign * self.obj[j]);
            match self.domains[j] {
                VarDomain::NonNeg => var_cols.push((pos, None)),
                VarDomain::Free => {
                    let neg: Vec<(usize, f64)> =
                        var_entries[j].iter().map(|&(r, c)| (r, -c)).collect();
                    bld.push_col(&neg);
                    costs.push(-sense_sign * self.obj[j]);
                    var_cols.push((pos, Some(pos + 1)));
                }
            }
        }
        // Slack / surplus columns.
        for (i, row) in self.rows.iter().enumerate() {
            let coef = match row.op {
                Op::Le => 1.0,
                Op::Ge => -1.0,
                Op::Eq => continue,
            };
            bld.push_col(&[(i, coef * row_signs[i])]);
            costs.push(0.0);
        }
        let rhs: Vec<f64> = self
            .rows
            .iter()
            .zip(&row_signs)
            .map(|(r, &s)| r.rhs * s)
            .collect();
        (
            StandardLp {
                cols: bld.finish(),
                costs,
                rhs,
            },
            StandardMap {
                var_cols,
                row_signs,
            },
        )
    }
}

/// Book-keeping to map a [`StandardLp`] solution back to [`Model`] space.
#[derive(Debug, Clone)]
struct StandardMap {
    /// Per user variable: (positive column, optional negative column).
    var_cols: Vec<(usize, Option<usize>)>,
    /// ±1 per row (−1 where the row was negated to make `b ≥ 0`).
    row_signs: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maximize_roundtrip() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var(3.0);
        let y = m.add_var(5.0);
        m.add_row(&[(x, 1.0)], Op::Le, 4.0);
        m.add_row(&[(y, 2.0)], Op::Le, 12.0);
        m.add_row(&[(x, 3.0), (y, 2.0)], Op::Le, 18.0);
        let s = m.solve().unwrap();
        assert!((s.objective - 36.0).abs() < 1e-9);
        assert!((s.values[x] - 2.0).abs() < 1e-9);
        assert!((s.values[y] - 6.0).abs() < 1e-9);
        // Duals: known y = (0, 3/2, 1).
        assert!((s.duals[0] - 0.0).abs() < 1e-9);
        assert!((s.duals[1] - 1.5).abs() < 1e-9);
        assert!((s.duals[2] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn minimize_with_ge_rows() {
        // Classic diet-style LP: min 0.6x + 0.35y
        // s.t. 5x + 7y >= 8, 4x + 2y >= 15, x,y >= 0.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var(0.6);
        let y = m.add_var(0.35);
        m.add_row(&[(x, 5.0), (y, 7.0)], Op::Ge, 8.0);
        m.add_row(&[(x, 4.0), (y, 2.0)], Op::Ge, 15.0);
        let s = m.solve().unwrap();
        // Optimum at x = 3.75, y = 0 (second row binds).
        assert!((s.values[x] - 3.75).abs() < 1e-8);
        assert!(s.values[y].abs() < 1e-8);
        assert!((s.objective - 2.25).abs() < 1e-8);
    }

    #[test]
    fn negative_rhs_rows_flip() {
        // x - y <= -1 with min x + y  =>  y >= x + 1, optimum (0, 1).
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var(1.0);
        let y = m.add_var(1.0);
        m.add_row(&[(x, 1.0), (y, -1.0)], Op::Le, -1.0);
        let s = m.solve().unwrap();
        assert!(s.values[x].abs() < 1e-9);
        assert!((s.values[y] - 1.0).abs() < 1e-9);
        assert!((s.objective - 1.0).abs() < 1e-9);
    }

    #[test]
    fn free_variable_goes_negative() {
        // min x s.t. x >= -5 with x free  =>  x = -5.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var_free(1.0);
        m.add_row(&[(x, 1.0)], Op::Ge, -5.0);
        let s = m.solve().unwrap();
        assert!((s.values[x] + 5.0).abs() < 1e-9);
    }

    #[test]
    fn equality_rows() {
        // min 2x + 3y s.t. x + y = 10, x - y = 2  =>  x = 6, y = 4.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var(2.0);
        let y = m.add_var(3.0);
        m.add_row(&[(x, 1.0), (y, 1.0)], Op::Eq, 10.0);
        m.add_row(&[(x, 1.0), (y, -1.0)], Op::Eq, 2.0);
        let s = m.solve().unwrap();
        assert!((s.values[x] - 6.0).abs() < 1e-8);
        assert!((s.values[y] - 4.0).abs() < 1e-8);
        assert!((s.objective - 24.0).abs() < 1e-8);
    }

    #[test]
    fn infeasible_model_errors() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var(1.0);
        m.add_row(&[(x, 1.0)], Op::Ge, 5.0);
        m.add_row(&[(x, 1.0)], Op::Le, 2.0);
        assert_eq!(m.solve().unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn unbounded_model_errors() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var(1.0);
        m.add_row(&[(x, -1.0)], Op::Le, 0.0);
        assert_eq!(m.solve().unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn empty_model_is_bad() {
        let m = Model::new(Sense::Minimize);
        assert!(matches!(m.solve(), Err(LpError::BadModel(_))));
    }

    #[test]
    fn duals_price_out_binding_rows_min() {
        // min x + 2y s.t. x + y >= 4, y <= 10.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var(1.0);
        let y = m.add_var(2.0);
        m.add_row(&[(x, 1.0), (y, 1.0)], Op::Ge, 4.0);
        m.add_row(&[(y, 1.0)], Op::Le, 10.0);
        let s = m.solve().unwrap();
        assert!((s.objective - 4.0).abs() < 1e-9);
        // y'b must equal the objective.
        let yb = s.duals[0] * 4.0 + s.duals[1] * 10.0;
        assert!((yb - s.objective).abs() < 1e-8);
        // Ge row in a min problem carries a non-negative dual.
        assert!(s.duals[0] >= -1e-9);
        // Non-binding Le row has zero dual.
        assert!(s.duals[1].abs() < 1e-9);
    }
}
