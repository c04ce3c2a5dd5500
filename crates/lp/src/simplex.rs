//! Revised primal simplex on computational standard form.
//!
//! Solves `min c·x  s.t.  A x = b, x ≥ 0` with `b ≥ 0`, where `A` is a
//! sparse [`CscMatrix`] whose columns include any slack/surplus columns the
//! caller appended. The engine:
//!
//! * crashes an initial basis from unit columns (slacks), adding artificial
//!   variables only for uncovered rows;
//! * runs phase 1 (min Σ artificials) only when artificials exist, then
//!   pivots surviving zero-level artificials out (redundant rows keep theirs,
//!   harmlessly);
//! * maintains an explicit basis inverse with exact-zero block structure:
//!   refactorization (every `max(600, m)` pivots for an `m`-row LP, to
//!   shed drift) factors only the k×k block of non-singleton basic columns
//!   — `O(k³ + k·m)` instead of `O(m³)`, a decisive saving on the
//!   slack-heavy bases these LPs produce (see `Engine::refactorize`);
//! * computes the row duals by a cost-sparse BTRAN that reads only the
//!   basic positions S carrying a nonzero cost — `O(m·|S|)` instead of
//!   `O(m²)`; in an optimal-mechanism dual only the split halves of the n
//!   row-stochasticity duals carry cost, so |S| ≤ 2n ≪ m — and from
//!   `INCREMENTAL_DUALS_MIN_ROWS` rows up carries them incrementally
//!   across pivots (`O(m)` per pivot), re-verifying any claimed optimum
//!   against freshly computed duals before trusting it;
//! * prices with Dantzig's rule and falls back to Bland's rule after a long
//!   degenerate stall (anti-cycling).
//!
//! The problems this crate was built for (duals of optimal-mechanism LPs)
//! are *column-heavy*: millions of columns over a few thousand rows, every
//! column carrying 1–3 nonzeros. All per-iteration work is therefore either
//! dense against the (mostly exactly-zero) inverse or `O(nnz)` sparse
//! (pricing), never `O(m·n)` dense.

use crate::dense::{DenseMatrix, LuFactors};
use crate::sparse::CscMatrix;
use geoind_testkit::failpoint;

/// Magnitude below which drift-induced negative variable values are
/// clipped to exact zero when a solution is extracted. Consumers deriving
/// feasibility tolerances from solver output (e.g. channel certification)
/// must budget for truncation of this size on top of [`OPT_TOL`].
pub const VALUE_CLIP: f64 = 1e-7;

/// Dual-feasibility tolerance on reduced costs: a column prices in only
/// below `−OPT_TOL`. On the dual solve path the recovered primal values
/// are the row duals, so an optimal exit satisfies every primal row to
/// within this slack.
pub const OPT_TOL: f64 = 1e-9;

/// Hard cap on pivots across both phases of one solve.
const MAX_ITERATIONS: usize = 2_000_000;

/// Minimum pivot magnitude accepted by the ratio tests.
const PIVOT_TOL: f64 = 1e-9;

/// Consecutive non-improving pivots before pricing switches to Bland's
/// rule.
const STALL_LIMIT: usize = 2_000;

/// Largest `‖Ax − b‖∞` accepted at an optimal exit; a nominally optimal
/// basis with a larger residual is demoted to
/// [`SimplexStatus::SingularBasis`] instead of being reported as a
/// trustworthy optimum.
const RESIDUAL_TOL: f64 = 1e-6;

/// The engine rebuilds the basis inverse from an LU every
/// `max(REFACTOR_MIN_PIVOTS, m)` pivots of an `m`-row LP: small problems
/// keep the tight drift window while large ones — where a refactorization
/// is an `O(m³)` event that can dwarf the pivots it covers — refactorize a
/// bounded number of times per solve. Accuracy does not ride on the
/// cadence alone: every claimed optimum is re-verified against freshly
/// computed duals, and the exit path refactorizes, refines, and
/// residual-gates the result regardless.
const REFACTOR_MIN_PIVOTS: usize = 600;

/// Smallest pivot magnitude `|w_r|` a dual-simplex warm restart accepts;
/// a restart whose ratio test chooses a smaller pivot is abandoned for the
/// cold solve on the spot (see `Engine::restore_primal_feasibility` for
/// the measurements behind the value).
const RESTART_PIVOT_FLOOR: f64 = 1e-7;

/// Row count from which the engine carries duals incrementally across
/// pivots instead of recomputing them by a BTRAN each iteration. Below
/// this, the cost-sparse recompute (`O(m·|S|)`, S the basic positions with
/// a nonzero cost) is cheap, and its exact-to-the-basis duals make tied
/// pricing decisions maximally reproducible across pivot paths (warm and
/// cold solves of a degenerate LP tend to exit at the same vertex). Above
/// it, the incremental update — exact in real arithmetic, drift-checked at
/// every claimed optimum — costs `O(m)` per pivot. It is what let large
/// instances finish at all while the recompute was a dense `O(m²)`
/// product, and moving those sizes to the exact recompute would change
/// their pivot paths.
const INCREMENTAL_DUALS_MIN_ROWS: usize = 1024;

/// A linear program in computational standard form.
#[derive(Debug, Clone)]
pub struct StandardLp {
    /// Constraint matrix (structural + slack columns).
    pub cols: CscMatrix,
    /// Objective coefficients, one per column.
    pub costs: Vec<f64>,
    /// Right-hand side, `b ≥ 0`.
    pub rhs: Vec<f64>,
}

/// An optimal basis exported from a finished solve, reusable to warm-start
/// a later solve of a structurally identical LP (same constraint matrix and
/// costs, different right-hand side — the classic dual-simplex restart).
///
/// The representation is positional in the *standard-form* column space the
/// engine actually pivoted in: entry `i` names the column basic in row `i`,
/// or `None` where an artificial variable stayed basic (redundant rows).
/// A basis only round-trips between solves whose standard forms share the
/// same shape; the engine validates this and silently falls back to a cold
/// start on any mismatch, so a stale basis can never corrupt a solve.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Basis {
    rows: Vec<Option<usize>>,
}

impl Basis {
    /// An empty basis: never matches any LP, so it always cold-starts.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Number of rows this basis was exported from (0 for an empty basis).
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// True when the basis carries no row assignments.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Remap this basis for a standard form that grew by `added` columns
    /// inserted at column index `insert_at` (row count unchanged): every
    /// entry at or past the insertion point shifts up by `added`, entries
    /// before it are untouched, and none of the new columns is basic.
    ///
    /// This is the delayed-constraint-generation bridge: appending cut rows
    /// to a primal model appends dual variables — standard-form *columns* —
    /// in the dualized LP the engine actually pivots on, and the old optimal
    /// basis stays primal-feasible for the grown LP (same rows, same rhs)
    /// once its column references are shifted past the insertion block.
    pub fn with_columns_inserted(&self, insert_at: usize, added: usize) -> Basis {
        Basis {
            rows: self
                .rows
                .iter()
                .map(|a| a.map(|j| if j >= insert_at { j + added } else { j }))
                .collect(),
        }
    }

    /// Extend this basis for a standard form that gained rows, each covered
    /// by a fresh basic column (its slack): `new_basic` names, in order, the
    /// column basic in each appended row. This is the primal-path analogue
    /// of [`Basis::with_columns_inserted`] — after a row append, the old
    /// basis plus the new slack columns is a valid starting basis.
    pub fn with_rows_appended(&self, new_basic: &[usize]) -> Basis {
        let mut rows = self.rows.clone();
        rows.extend(new_basic.iter().map(|&j| Some(j)));
        Basis { rows }
    }
}

/// A warm start for [`solve_standard`]: a basis exported from an earlier
/// solve, and how to use it. The engine validates the basis against this
/// LP and falls back to a cold start on any mismatch, so the result is
/// identical in status and always a true optimum — a warm start changes
/// the pivot count, never the answer.
#[derive(Debug, Clone)]
pub enum Warm {
    /// Same matrix and costs, different rhs (the MSM sibling pattern): the
    /// donor basis is dual-feasible, so restore primal feasibility with
    /// dual-simplex pivots.
    Restart(Basis),
    /// The LP gained columns since the basis was exported (delayed
    /// constraint generation: appended cuts become new dual columns) and
    /// the basis was remapped with [`Basis::with_columns_inserted`]. Rows
    /// and rhs are unchanged, so the basis is still primal-feasible but the
    /// new columns price favorably by construction — skip the
    /// dual-feasibility screen and resume primal phase 2 directly.
    Continue(Basis),
}

/// Termination status of a simplex run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimplexStatus {
    /// Optimal basic feasible solution found.
    Optimal,
    /// Phase 1 could not drive the artificials to zero.
    Infeasible,
    /// The objective decreases without bound.
    Unbounded,
    /// `MAX_ITERATIONS` pivots exhausted.
    IterationLimit,
    /// The basis became numerically singular (LU refactorization failed,
    /// or a nominally optimal exit violated the residual tolerance). The
    /// reported solution cannot be certified.
    SingularBasis,
}

/// Result of a simplex run.
#[derive(Debug, Clone)]
pub struct SimplexResult {
    /// Why the run stopped.
    pub status: SimplexStatus,
    /// Primal values, one per column of the input (valid when `Optimal`).
    pub x: Vec<f64>,
    /// Row duals `y = B⁻ᵀ c_B` at the final basis (valid when `Optimal`).
    pub duals: Vec<f64>,
    /// Objective value `c·x`.
    pub objective: f64,
    /// Total pivots performed.
    pub iterations: usize,
    /// `‖Ax − b‖∞` at exit — a self-check on accumulated drift.
    pub residual: f64,
    /// Worst dual-feasibility violation at exit: the most negative reduced
    /// cost over nonbasic columns, reported as a non-negative magnitude
    /// (0 when the exit basis prices out cleanly).
    pub dual_residual: f64,
    /// The final basis, reusable as a [`Warm`] start for a later solve of
    /// a structurally identical LP. Only meaningful when the run ended
    /// [`SimplexStatus::Optimal`].
    pub basis: Basis,
    /// True when a [`Warm`] start was supplied but abandoned, and this
    /// result comes from the cold fallback.
    pub warm_fallback: bool,
    /// Pivots the abandoned warm start executed before it was thrown away
    /// (0 without a fallback). `iterations` never includes them: it counts
    /// the pivots of the solve that produced this result.
    pub discarded_pivots: usize,
}

/// Identifier for a basic variable: a real column or an artificial for a row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Basic {
    Col(usize),
    Artificial(usize),
}

struct Engine<'a> {
    lp: &'a StandardLp,
    m: usize,
    basis: Vec<Basic>,
    /// Which columns are currently basic.
    in_basis: Vec<bool>,
    /// Explicit basis inverse, column-major.
    binv: DenseMatrix,
    /// Values of the basic variables.
    xb: Vec<f64>,
    iterations: usize,
    pivots_since_refactor: usize,
    /// Pivots between refactorizations: `max(REFACTOR_MIN_PIVOTS, m)`.
    refactor_every: usize,
    /// Set when an LU refactorization fails: the explicit inverse can no
    /// longer be trusted, so the run must stop at the next loop head.
    singular: bool,
}

impl<'a> Engine<'a> {
    fn new(lp: &'a StandardLp) -> Self {
        let m = lp.rhs.len();
        assert_eq!(lp.cols.nrows(), m, "matrix/rhs row mismatch");
        assert_eq!(lp.costs.len(), lp.cols.ncols(), "cost/column mismatch");
        assert!(
            lp.rhs.iter().all(|&b| b >= 0.0),
            "standard form requires b >= 0"
        );

        // Crash: cover each row with a unit (+1 singleton) column if one
        // exists; otherwise an artificial.
        let mut row_cover: Vec<Option<usize>> = vec![None; m];
        for j in 0..lp.cols.ncols() {
            let mut it = lp.cols.col(j);
            if let (Some((r, v)), None) = (it.next(), it.next()) {
                if (v - 1.0).abs() < 1e-12 && row_cover[r].is_none() {
                    row_cover[r] = Some(j);
                }
            }
        }
        let mut in_basis = vec![false; lp.cols.ncols()];
        let basis: Vec<Basic> = row_cover
            .iter()
            .enumerate()
            .map(|(r, cov)| match cov {
                Some(j) => {
                    in_basis[*j] = true;
                    Basic::Col(*j)
                }
                None => Basic::Artificial(r),
            })
            .collect();
        Self {
            lp,
            m,
            basis,
            in_basis,
            binv: DenseMatrix::identity(m),
            xb: lp.rhs.clone(),
            iterations: 0,
            pivots_since_refactor: 0,
            refactor_every: m.max(REFACTOR_MIN_PIVOTS),
            singular: false,
        }
    }

    fn has_artificials(&self) -> bool {
        self.basis.iter().any(|b| matches!(b, Basic::Artificial(_)))
    }

    /// Cost of a basic variable under the given phase.
    fn basic_cost(&self, b: Basic, phase1: bool) -> f64 {
        match (b, phase1) {
            (Basic::Artificial(_), true) => 1.0,
            (Basic::Artificial(_), false) => 0.0,
            (Basic::Col(_), true) => 0.0,
            (Basic::Col(j), false) => self.lp.costs[j],
        }
    }

    /// Row duals `y = B⁻ᵀc_B` for the current basis and phase (BTRAN).
    ///
    /// Each `y_k` sums only the basic positions whose cost is nonzero, in
    /// ascending position order: the same nonzero terms, in the same order,
    /// as the dense dot product of column k of `B⁻¹` with `c_B`. Every
    /// `y_k` therefore equals the dense value — only the sign of an exact
    /// zero can differ, and no comparison observes it — so no pricing or
    /// ratio decision depends on which of the two computed it.
    fn duals(&self, phase1: bool) -> Vec<f64> {
        let costed: Vec<(usize, f64)> = self
            .basis
            .iter()
            .enumerate()
            .map(|(p, &b)| (p, self.basic_cost(b, phase1)))
            .filter(|&(_, c)| c != 0.0)
            .collect();
        (0..self.m)
            .map(|k| {
                let col = self.binv.col(k);
                costed.iter().map(|&(p, c)| col[p] * c).sum()
            })
            .collect()
    }

    /// Dantzig (or Bland) pricing: pick an entering column.
    fn price(&self, y: &[f64], phase1: bool, bland: bool) -> Option<usize> {
        // (column, -d): the most negative reduced cost wins.
        let mut best: Option<(usize, f64)> = None;
        for j in 0..self.lp.cols.ncols() {
            if self.in_basis[j] {
                continue;
            }
            let cj = if phase1 { 0.0 } else { self.lp.costs[j] };
            let d = cj - self.lp.cols.col_dot(j, y);
            if d < -OPT_TOL {
                if bland {
                    return Some(j);
                }
                if best.is_none_or(|(_, bs)| -d > bs) {
                    best = Some((j, -d));
                }
            }
        }
        best.map(|(j, _)| j)
    }

    /// FTRAN: `w = B⁻¹ A_q`.
    fn ftran(&self, q: usize) -> Vec<f64> {
        let mut w = vec![0.0; self.m];
        for (r, v) in self.lp.cols.col(q) {
            let col = self.binv.col(r);
            for i in 0..self.m {
                w[i] += v * col[i];
            }
        }
        w
    }

    /// Ratio test; returns the leaving row. `None` means unbounded.
    fn ratio_test(&self, w: &[f64], bland: bool) -> Option<usize> {
        let mut best: Option<(usize, f64, f64)> = None; // (row, theta, |w|)
        for i in 0..self.m {
            if w[i] > PIVOT_TOL {
                let theta = self.xb[i] / w[i];
                match best {
                    None => best = Some((i, theta, w[i])),
                    Some((bi, bt, bw)) => {
                        let better = if bland {
                            // Bland: smallest basic index among ties.
                            theta < bt - 1e-12
                                || (theta < bt + 1e-12
                                    && self.basic_order(i) < self.basic_order(bi))
                        } else {
                            theta < bt - 1e-12 || (theta < bt + 1e-12 && w[i] > bw)
                        };
                        if better {
                            best = Some((i, theta, w[i]));
                        }
                    }
                }
            }
        }
        best.map(|(i, _, _)| i)
    }

    /// Total order on basic variables used by Bland's rule (artificials
    /// after all real columns).
    fn basic_order(&self, row: usize) -> usize {
        match self.basis[row] {
            Basic::Col(j) => j,
            Basic::Artificial(r) => self.lp.cols.ncols() + r,
        }
    }

    /// Apply the pivot: column `q` enters, row `r` leaves.
    fn pivot(&mut self, r: usize, q: usize, w: &[f64]) {
        let theta = self.xb[r] / w[r];
        for i in 0..self.m {
            self.xb[i] -= theta * w[i];
        }
        self.xb[r] = theta;
        if let Basic::Col(j) = self.basis[r] {
            self.in_basis[j] = false;
        }
        self.basis[r] = Basic::Col(q);
        self.in_basis[q] = true;

        // Rank-1 update of the explicit inverse.
        let wr = w[r];
        for k in 0..self.m {
            let col = self.binv.col_mut(k);
            let t = col[r];
            if t != 0.0 {
                let t = t / wr;
                for i in 0..self.m {
                    col[i] -= w[i] * t;
                }
                col[r] = t;
            }
        }
        self.iterations += 1;
        self.pivots_since_refactor += 1;
        if self.pivots_since_refactor >= self.refactor_every {
            self.refactorize();
        }
    }

    /// Rebuild `binv` and `xb` from scratch.
    ///
    /// The bases this engine sees are *slack-heavy*: at an optimum of an
    /// optimal-mechanism dual most rows keep their slack basic (the primal
    /// channel is sparse), so up to row/column permutation the basis matrix
    /// is `[[M, 0], [C, D]]` — `D` diagonal from singleton basic columns
    /// (slacks and artificials), `M` the square block of general columns on
    /// the k rows no singleton covers, `C` those columns' entries on the
    /// covered rows. Only `M` needs an LU; the inverse assembles in block
    /// form
    ///
    /// ```text
    ///   B⁻¹ = [[ M⁻¹,          0   ],
    ///          [ −D⁻¹·C·M⁻¹,   D⁻¹ ]]
    /// ```
    ///
    /// in `O(k³ + k·m)` instead of the `O(m³)` of a full dense LU plus m
    /// triangular solves — at m in the thousands with k ≪ m, milliseconds
    /// instead of a minute. Just as important, the assembled inverse is
    /// *exactly* zero outside the k dense columns and the diagonal
    /// singletons, which keeps the per-pivot rank-1 update (it skips
    /// exact-zero entries) proportional to the dense block, not to m².
    fn refactorize(&mut self) {
        self.pivots_since_refactor = 0;
        let m = self.m;
        // Split the basis: a singleton column at position p with value v on
        // row r contributes the diagonal entry D[r,r] = v; everything else
        // is part of the general block.
        let mut unit_of_row: Vec<Option<(usize, f64)>> = vec![None; m];
        let mut structural: Vec<usize> = Vec::new();
        for (p, &var) in self.basis.iter().enumerate() {
            let singleton = match var {
                Basic::Artificial(r) => Some((r, 1.0)),
                Basic::Col(j) => {
                    let mut it = self.lp.cols.col(j);
                    match (it.next(), it.next()) {
                        (Some((r, v)), None) if v != 0.0 => Some((r, v)),
                        _ => None,
                    }
                }
            };
            match singleton {
                Some((r, _)) if unit_of_row[r].is_some() => {
                    // Two singleton columns on one row: linearly dependent
                    // basis, no factorization exists.
                    self.singular = true;
                    return;
                }
                Some((r, v)) => unit_of_row[r] = Some((p, v)),
                None => structural.push(p),
            }
        }
        // Rows no singleton covers, ascending (a fixed, thread-independent
        // order keeps refactorization bit-deterministic).
        let mut t_of_row: Vec<Option<usize>> = vec![None; m];
        let mut t_rows: Vec<usize> = Vec::new();
        for (r, unit) in unit_of_row.iter().enumerate() {
            if unit.is_none() {
                t_of_row[r] = Some(t_rows.len());
                t_rows.push(r);
            }
        }
        let k = structural.len();
        debug_assert_eq!(t_rows.len(), k);
        // Factor the k×k general block M and invert it column by column.
        let mut block = DenseMatrix::zeros(k, k);
        for (s, &p) in structural.iter().enumerate() {
            let Basic::Col(j) = self.basis[p] else {
                unreachable!("artificials are singletons")
            };
            for (r, v) in self.lp.cols.col(j) {
                if let Some(t) = t_of_row[r] {
                    block.set(t, s, v);
                }
            }
        }
        let lu = match LuFactors::factor(&block) {
            Ok(lu) => lu,
            Err(_) => {
                // Numerically singular refactorization: the rank-1-updated
                // inverse we still hold is the very thing that drifted into
                // an uninvertible basis, so continuing would pivot on
                // garbage. Flag the run; the phase loop aborts with
                // `SingularBasis` at its next head.
                self.singular = true;
                return;
            }
        };
        let minv = lu.inverse();
        // Per general column: its covered-row entries as
        // (singleton position, entry / diagonal value) — the C and D⁻¹
        // factors of the lower-left block, pre-divided.
        let covered: Vec<Vec<(usize, f64)>> = structural
            .iter()
            .map(|&p| {
                let Basic::Col(j) = self.basis[p] else {
                    unreachable!("artificials are singletons")
                };
                self.lp
                    .cols
                    .col(j)
                    .filter_map(|(r, v)| unit_of_row[r].map(|(pu, vu)| (pu, v / vu)))
                    .collect()
            })
            .collect();
        // Assemble B⁻¹: uncovered-row columns carry M⁻¹ on general
        // positions and −D⁻¹·C·M⁻¹ on singleton positions; covered-row
        // columns carry the single diagonal entry 1/v; all else stays an
        // exact zero.
        let mut inv = DenseMatrix::zeros(m, m);
        for (t, &tr) in t_rows.iter().enumerate() {
            let mcol = minv.col(t);
            let col = inv.col_mut(tr);
            for (s, &ms) in mcol.iter().enumerate() {
                if ms == 0.0 {
                    continue;
                }
                col[structural[s]] = ms;
                for &(pu, scale) in &covered[s] {
                    col[pu] -= scale * ms;
                }
            }
        }
        for (r, unit) in unit_of_row.iter().enumerate() {
            if let Some((p, v)) = *unit {
                inv.col_mut(r)[p] = 1.0 / v;
            }
        }
        self.binv = inv;
        self.xb = self.binv.mul_vec(&self.lp.rhs);
        // Numerical guard: clip small negatives introduced by drift.
        for v in &mut self.xb {
            if *v < 0.0 && *v > -VALUE_CLIP {
                *v = 0.0;
            }
        }
    }

    /// Objective of the current basis under the given phase costs.
    fn objective(&self, phase1: bool) -> f64 {
        self.basis
            .iter()
            .zip(&self.xb)
            .map(|(&b, &v)| self.basic_cost(b, phase1) * v)
            .sum()
    }

    /// Run one phase to optimality. Returns `None` when optimal, otherwise a
    /// terminal status.
    fn run_phase(&mut self, phase1: bool) -> Option<SimplexStatus> {
        let mut bland = false;
        let mut stall = 0usize;
        let mut last_obj = self.objective(phase1);
        // The row duals are carried *incrementally* across pivots: a
        // from-scratch BTRAN reads the whole m×m inverse every iteration
        // and dominates the solve once m reaches the thousands. After a
        // pivot (entering q, leaving row r) the exact update is
        // `y' = y + (d_q/w_r)·ρ_r` with ρ_r row r of the pre-pivot
        // inverse: a surviving basic column i keeps B_iᵀy' = c_i because
        // B_iᵀρ_r = (B⁻¹B_i)_r = 0, and the entering column satisfies
        // A_qᵀy' = c_q because A_qᵀρ_r = w_r cancels against d_q. Rounding
        // drift still accumulates, so the vector is rebuilt whenever the
        // inverse itself is refactorized, and a claimed optimum is never
        // trusted until it re-prices clean against freshly computed duals.
        // Small LPs keep the per-iteration recompute (see
        // [`INCREMENTAL_DUALS_MIN_ROWS`]).
        let incremental = self.m >= INCREMENTAL_DUALS_MIN_ROWS;
        let mut y = self.duals(phase1);
        loop {
            // `lp.refactor.singular` simulates an LU refactorization
            // collapsing at the point where the run would detect it.
            if self.singular || failpoint::hit("lp.refactor.singular") {
                self.singular = true;
                return Some(SimplexStatus::SingularBasis);
            }
            if self.iterations >= MAX_ITERATIONS || failpoint::hit("lp.iterations.exhausted") {
                return Some(SimplexStatus::IterationLimit);
            }
            if !incremental {
                y = self.duals(phase1);
            }
            let q = match self.price(&y, phase1, bland) {
                Some(q) => q,
                None => {
                    if !incremental {
                        return None; // phase-optimal under exact duals
                    }
                    // Optimal under the incrementally maintained (hence
                    // drifted) duals — recompute exactly and re-price
                    // before declaring the phase done; pricing clean
                    // against exact duals certifies the phase optimum.
                    y = self.duals(phase1);
                    self.price(&y, phase1, bland)?
                }
            };
            let cq = if phase1 { 0.0 } else { self.lp.costs[q] };
            let dq = cq - self.lp.cols.col_dot(q, &y);
            let w = self.ftran(q);
            let Some(r) = self.ratio_test(&w, bland) else {
                // Phase 1 is bounded below by 0, so an unbounded ray here
                // signals numerical trouble; report it as unbounded anyway.
                return Some(SimplexStatus::Unbounded);
            };
            // Row r of B⁻¹, gathered before the pivot mutates the inverse,
            // for the incremental dual update.
            let rho: Vec<f64> = if incremental {
                (0..self.m).map(|i| self.binv.col(i)[r]).collect()
            } else {
                Vec::new()
            };
            let step = dq / w[r];
            self.pivot(r, q, &w);
            if incremental {
                if self.pivots_since_refactor == 0 {
                    // The pivot crossed the refactorization cadence and
                    // rebuilt the inverse; rebase the duals on it too.
                    y = self.duals(phase1);
                } else {
                    for (yi, &ri) in y.iter_mut().zip(&rho) {
                        *yi += step * ri;
                    }
                }
            }
            let obj = self.objective(phase1);
            if obj < last_obj - 1e-12 {
                last_obj = obj;
                stall = 0;
                bland = false;
            } else {
                stall += 1;
                if stall > STALL_LIMIT {
                    bland = true;
                }
            }
        }
    }

    /// Install a donor basis exported from an earlier solve, replacing the
    /// crash basis. Returns `false` when the basis does not fit this LP
    /// (row-count mismatch, out-of-range or repeated columns, or a
    /// numerically singular factorization) — the caller then cold-starts.
    fn install_basis(&mut self, warm: &Basis) -> bool {
        if warm.rows.len() != self.m {
            return false;
        }
        let ncols = self.lp.cols.ncols();
        let mut in_basis = vec![false; ncols];
        for assigned in warm.rows.iter().flatten() {
            if *assigned >= ncols || in_basis[*assigned] {
                return false;
            }
            in_basis[*assigned] = true;
        }
        self.basis = warm
            .rows
            .iter()
            .enumerate()
            .map(|(r, a)| match a {
                Some(j) => Basic::Col(*j),
                None => Basic::Artificial(r),
            })
            .collect();
        self.in_basis = in_basis;
        // A fresh LU of the donor basis against *this* LP's rhs: basic
        // values may come out negative (the whole point of the dual-simplex
        // restart), but the factorization itself must succeed.
        self.refactorize();
        !self.singular
    }

    /// Phase-2 dual feasibility of the current basis: every nonbasic
    /// reduced cost within `-OPT_TOL`. A donor basis from a sibling LP with
    /// identical matrix and costs passes exactly; anything else (e.g. a
    /// basis reused across genuinely different LPs) fails here and triggers
    /// the cold fallback.
    fn dual_feasible(&self) -> bool {
        let y = self.duals(false);
        for j in 0..self.lp.cols.ncols() {
            if self.in_basis[j] {
                continue;
            }
            let d = self.lp.costs[j] - self.lp.cols.col_dot(j, &y);
            if d < -OPT_TOL {
                return false;
            }
        }
        true
    }

    /// Dual simplex from a dual-feasible basis whose basic values may be
    /// negative under this LP's rhs: repeatedly drop the most negative
    /// basic variable and enter the column preserving dual feasibility
    /// (textbook dual ratio test), until `xb ≥ 0`. Every selection is a
    /// pure function of (LP, basis) — lowest index breaks ties — so the
    /// pivot sequence is independent of threads or timing. Returns `false`
    /// when the restart should be abandoned for a cold solve (numerical
    /// trouble, apparent infeasibility, or a blown pivot budget).
    ///
    /// A restart whose ratio test chooses a pivot with `|w_r|` below
    /// [`RESTART_PIVOT_FLOOR`] (1e-7) is abandoned at that pivot. Such a
    /// pivot passes `PIVOT_TOL` but leaves the basis numerically singular,
    /// which only the refactorization at the `max(600, m)` cadence used to
    /// report — every pivot in between was thrown away with the engine.
    /// Measured on the repository benchmark's g=4, h=3 precompute (270
    /// sibling restarts): all 64 restarts that failed chose such a pivot
    /// (|w_r| from 1.0e-9 to 3.3e-8, between pivots 193 and 593; in 61 of
    /// them it entered the mirror half of an already-basic free column),
    /// while the smallest pivot any of the 206 successful restarts chose
    /// was 4.3e-3. The floor therefore only moves the fallback earlier:
    /// discarded pivots fell from 38,400 to 19,395, and every kept pivot
    /// and exported bit stayed the same.
    fn restore_primal_feasibility(&mut self) -> bool {
        // The restart only pays off while it is much cheaper than a cold
        // solve; past this budget, give up and let the cold path decide.
        let cap = MAX_ITERATIONS.min(4 * self.m + 128);
        // Duals carried incrementally across pivots on large LPs, exactly
        // as in `run_phase` — the dual-simplex basis change is the same
        // basis change, so the same `y' = y + (d_q/w_r)·ρ_r` update
        // applies. Any drift is caught downstream: the caller always
        // finishes with `run_phase(false)`, which re-verifies optimality
        // against freshly computed duals.
        let incremental = self.m >= INCREMENTAL_DUALS_MIN_ROWS;
        let mut y = self.duals(false);
        loop {
            if self.singular {
                return false;
            }
            let mut leave: Option<usize> = None;
            let mut worst = -1e-9;
            for i in 0..self.m {
                if self.xb[i] < worst {
                    worst = self.xb[i];
                    leave = Some(i);
                }
            }
            let Some(r) = leave else {
                return true; // primal-feasible
            };
            if self.iterations >= cap {
                return false;
            }
            if !incremental {
                y = self.duals(false);
            }
            // Row r of B⁻¹, gathered once.
            let rho: Vec<f64> = (0..self.m).map(|k| self.binv.col(k)[r]).collect();
            let mut best: Option<(usize, f64)> = None;
            for j in 0..self.lp.cols.ncols() {
                if self.in_basis[j] {
                    continue;
                }
                let alpha = self.lp.cols.col_dot(j, &rho);
                if alpha < -PIVOT_TOL {
                    let d = self.lp.costs[j] - self.lp.cols.col_dot(j, &y);
                    let ratio = d.max(0.0) / -alpha;
                    let better = match best {
                        None => true,
                        Some((bj, br)) => ratio < br - 1e-12 || (ratio < br + 1e-12 && j < bj),
                    };
                    if better {
                        best = Some((j, ratio));
                    }
                }
            }
            // No eligible column: the row certifies primal infeasibility
            // (or the basis has drifted); the cold path is authoritative.
            let Some((q, _)) = best else {
                return false;
            };
            let dq = self.lp.costs[q] - self.lp.cols.col_dot(q, &y);
            let w = self.ftran(q);
            if w[r] >= -PIVOT_TOL {
                return false; // rho-gathered alpha disagrees with FTRAN
            }
            if w[r].abs() < RESTART_PIVOT_FLOOR {
                return false; // near-singular pivot: the cold solve decides
            }
            let step = dq / w[r];
            self.pivot(r, q, &w);
            if incremental {
                if self.pivots_since_refactor == 0 {
                    y = self.duals(false);
                } else {
                    for (yi, &ri) in y.iter_mut().zip(&rho) {
                        *yi += step * ri;
                    }
                }
            }
        }
    }

    /// Primal feasibility of the current basic values. `install_basis`
    /// already clipped drift-level negatives during its refactorization, so
    /// any remaining negative entry means the basis is genuinely infeasible
    /// for this LP's rhs and a primal continuation must fall back to cold.
    fn primal_feasible(&self) -> bool {
        self.xb.iter().all(|&v| v >= 0.0)
    }

    /// Sum of basic-artificial values — the phase-1 objective. A warm
    /// start that leaves an artificial basic at a real value has silently
    /// produced an infeasible point (cold starts catch this in phase 1),
    /// so the warm path must reject it.
    fn artificial_mass(&self) -> f64 {
        self.basis
            .iter()
            .zip(&self.xb)
            .filter(|(b, _)| matches!(b, Basic::Artificial(_)))
            .map(|(_, &v)| v.abs())
            .sum()
    }

    /// After phase 1: pivot basic artificials out wherever possible.
    fn purge_artificials(&mut self) {
        for row in 0..self.m {
            if !matches!(self.basis[row], Basic::Artificial(_)) {
                continue;
            }
            // Row `row` of B⁻¹, gathered.
            let rho: Vec<f64> = (0..self.m).map(|k| self.binv.col(k)[row]).collect();
            // Find any nonbasic real column with a usable pivot in this row.
            let mut found = None;
            for j in 0..self.lp.cols.ncols() {
                if self.in_basis[j] {
                    continue;
                }
                let a = self.lp.cols.col_dot(j, &rho);
                if a.abs() > 1e-7 {
                    found = Some(j);
                    break;
                }
            }
            if let Some(q) = found {
                let w = self.ftran(q);
                // Degenerate pivot: the artificial sits at zero, so theta=0
                // and feasibility is preserved regardless of the sign of w.
                debug_assert!(self.xb[row].abs() < 1e-6);
                self.xb[row] = 0.0;
                self.pivot(row, q, &w);
            }
            // else: redundant row; the artificial stays basic at zero and
            // can never move (its row of B⁻¹A is identically zero).
        }
    }

    /// One iterative-refinement pass on the final basis: correct the basic
    /// values by `xb += B⁻¹·(b − B·xb)`, shedding the drift the rank-1
    /// inverse updates accumulated since the last refactorization. A single
    /// pass is the standard accuracy/cost point — the correction is already
    /// quadratically small in the drift.
    fn refine(&mut self) {
        let mut r = self.lp.rhs.clone();
        for (i, &var) in self.basis.iter().enumerate() {
            match var {
                Basic::Col(j) => {
                    for (row, v) in self.lp.cols.col(j) {
                        r[row] -= v * self.xb[i];
                    }
                }
                Basic::Artificial(row) => r[row] -= self.xb[i],
            }
        }
        let dx = self.binv.mul_vec(&r);
        for i in 0..self.m {
            self.xb[i] += dx[i];
            if self.xb[i] < 0.0 && self.xb[i] > -VALUE_CLIP {
                self.xb[i] = 0.0;
            }
        }
    }

    /// Refine the phase-2 duals to (near) the correctly rounded solution of
    /// `Bᵀy = c_B` by iterating `y += B⁻ᵀ·(c_B − Bᵀy)` with the residual
    /// accumulated in doubled precision (Neumaier summation over exact
    /// `mul_add` product splits). The exact `y` at an optimum is a property
    /// of the optimal *vertex*, not of which degenerate basis represents
    /// it, so refining until the correction stops changing bits makes the
    /// reported duals independent of the pivot path — two solves reaching
    /// the same optimum (e.g. a delayed-constraint-generation run and a
    /// cold full-set run) report bit-identical duals even when they exit
    /// at different optimal bases.
    fn refined_duals(&self) -> Vec<f64> {
        let cb: Vec<f64> = self
            .basis
            .iter()
            .map(|&b| self.basic_cost(b, false))
            .collect();
        // y carried as an unevaluated double-double (hi + lo) so the
        // iteration converges to an ε²-accurate value before the final
        // rounding — a plain-f64 carrier can stall one ulp apart depending
        // on the basis it was approached through.
        let mut hi = self.binv.mul_vec_transpose(&cb);
        let mut lo = vec![0.0; self.m];
        let mut r = vec![0.0; self.m];
        for _ in 0..4 {
            for (i, &var) in self.basis.iter().enumerate() {
                // Doubled-precision r_i = cb_i − (Bᵀ(hi+lo))_i: Dekker-split
                // each product with mul_add, Neumaier-compensate the sum.
                let mut s = cb[i];
                let mut comp = 0.0;
                let add = |s: &mut f64, comp: &mut f64, v: f64, row: usize| {
                    let p = -(v * hi[row]);
                    let e = (-v).mul_add(hi[row], -p); // exact product error
                    let t = *s + p;
                    *comp += if s.abs() >= p.abs() {
                        (*s - t) + p
                    } else {
                        (p - t) + *s
                    };
                    *s = t;
                    *comp += e - v * lo[row];
                };
                match var {
                    Basic::Col(j) => {
                        for (row, v) in self.lp.cols.col(j) {
                            add(&mut s, &mut comp, v, row);
                        }
                    }
                    Basic::Artificial(row) => add(&mut s, &mut comp, 1.0, row),
                }
                r[i] = s + comp;
            }
            let dy = self.binv.mul_vec_transpose(&r);
            let mut changed = false;
            for k in 0..self.m {
                // Two-sum (hi, lo + dy) back into a normalized double-double.
                let b = lo[k] + dy[k];
                let s = hi[k] + b;
                let bb = s - hi[k];
                let err = (hi[k] - (s - bb)) + (b - bb);
                if s.to_bits() != hi[k].to_bits() || err.to_bits() != lo[k].to_bits() {
                    hi[k] = s;
                    lo[k] = err;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        hi
    }

    fn result(&self, status: SimplexStatus) -> SimplexResult {
        let mut x = vec![0.0; self.lp.cols.ncols()];
        for (i, &b) in self.basis.iter().enumerate() {
            if let Basic::Col(j) = b {
                x[j] = self.xb[i];
            }
        }
        // Clip drift-induced tiny negatives.
        for v in &mut x {
            if *v < 0.0 && *v > -VALUE_CLIP {
                *v = 0.0;
            }
        }
        let ax = self.lp.cols.mul_vec(&x);
        let mut residual = 0.0f64;
        for i in 0..self.m {
            let mut lhs = ax[i];
            if let Basic::Artificial(_) = self.basis[i] {
                lhs += self.xb[i]; // artificial contribution
            }
            residual = residual.max((lhs - self.lp.rhs[i]).abs());
        }
        let objective = x.iter().zip(&self.lp.costs).map(|(v, c)| v * c).sum();
        // At an optimal exit the duals are a deliverable (the dual solve
        // path reads primal values off them), so polish them to the
        // basis-independent rounding; elsewhere the one-shot BTRAN serves.
        let duals = if status == SimplexStatus::Optimal {
            self.refined_duals()
        } else {
            self.duals(false)
        };
        // Worst dual-feasibility violation over nonbasic columns — one
        // pricing-style sweep against the exit duals.
        let mut dual_residual = 0.0f64;
        for j in 0..self.lp.cols.ncols() {
            if self.in_basis[j] {
                continue;
            }
            let d = self.lp.costs[j] - self.lp.cols.col_dot(j, &duals);
            if -d > dual_residual {
                dual_residual = -d;
            }
        }
        let basis = Basis {
            rows: self
                .basis
                .iter()
                .map(|&b| match b {
                    Basic::Col(j) => Some(j),
                    Basic::Artificial(_) => None,
                })
                .collect(),
        };
        SimplexResult {
            status,
            x,
            duals,
            objective,
            iterations: self.iterations,
            residual,
            dual_residual,
            basis,
            warm_fallback: false,
            discarded_pivots: 0,
        }
    }
}

/// Phase 2 to optimality from a primal-feasible engine state, plus the
/// refinement pass and the residual quality gate shared by cold and warm
/// starts.
fn finish_phase2(mut eng: Engine) -> SimplexResult {
    match eng.run_phase(false) {
        Some(bad) => eng.result(bad),
        None => {
            // Re-derive the inverse from a fresh LU of the exit basis before
            // extracting the solution. This makes the reported numbers a
            // pure function of (LP, exit basis), independent of the pivot
            // history that reached it — two solves landing on the same
            // optimal basis (e.g. a cut-generation run and a cold full-set
            // run) report bit-identical values. Skipped when the inverse is
            // already fresh (zero pivots since the last refactorization),
            // where it would be an idempotent no-op.
            if eng.pivots_since_refactor > 0 {
                eng.refactorize();
                if eng.singular {
                    return eng.result(SimplexStatus::SingularBasis);
                }
            }
            eng.refine();
            let mut r = eng.result(SimplexStatus::Optimal);
            // Quality gate: a basis that claims optimality but cannot
            // reproduce the right-hand side is numerically suspect —
            // demote it so callers never consume an uncertified optimum.
            if r.residual > RESIDUAL_TOL {
                r.status = SimplexStatus::SingularBasis;
            }
            r
        }
    }
}

/// Solve a [`StandardLp`] (minimization) with the revised simplex.
///
/// With a [`Warm`] start, the engine first installs the donor basis and
/// either restores primal feasibility with dual-simplex pivots
/// ([`Warm::Restart`]) or resumes primal phase 2 ([`Warm::Continue`]); if
/// the basis does not fit this LP, is not dual-feasible for its costs
/// (restart), is not primal-feasible for its rhs (continue), or the
/// restart stalls, the solve silently falls back to the ordinary cold
/// start — warm starting can change the pivot count, never the correctness
/// of the result. A fallback is reported through
/// [`SimplexResult::warm_fallback`], and the pivots the abandoned start
/// executed through [`SimplexResult::discarded_pivots`].
pub fn solve_standard(lp: &StandardLp, warm: Option<Warm>) -> SimplexResult {
    let mut discarded = None;
    if let Some(warm) = warm {
        let mut eng = Engine::new(lp);
        let usable = match warm {
            Warm::Restart(basis) => {
                eng.install_basis(&basis)
                    && eng.dual_feasible()
                    && eng.restore_primal_feasibility()
                    && eng.artificial_mass() <= 1e-7
            }
            Warm::Continue(basis) => {
                eng.install_basis(&basis) && eng.primal_feasible() && eng.artificial_mass() <= 1e-7
            }
        };
        if usable {
            return finish_phase2(eng);
        }
        discarded = Some(eng.iterations);
    }
    let mut r = solve_cold(Engine::new(lp));
    if let Some(pivots) = discarded {
        r.warm_fallback = true;
        r.discarded_pivots = pivots;
    }
    r
}

/// Phase 1 from the crash basis when artificials are needed, then phase 2.
fn solve_cold(mut eng: Engine) -> SimplexResult {
    if eng.has_artificials() {
        if let Some(bad) = eng.run_phase(true) {
            return eng.result(bad);
        }
        let p1 = eng.objective(true);
        if p1 > 1e-7 {
            return eng.result(SimplexStatus::Infeasible);
        }
        eng.purge_artificials();
    }
    finish_phase2(eng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::CscBuilder;

    /// Build a StandardLp from dense rows (appending nothing — caller
    /// includes slacks explicitly).
    fn lp_from_dense(a: &[&[f64]], costs: &[f64], rhs: &[f64]) -> StandardLp {
        let m = a.len();
        let n = a[0].len();
        let mut b = CscBuilder::new(m);
        for j in 0..n {
            let col: Vec<(usize, f64)> = (0..m).map(|i| (i, a[i][j])).collect();
            b.push_col(&col);
        }
        StandardLp {
            cols: b.finish(),
            costs: costs.to_vec(),
            rhs: rhs.to_vec(),
        }
    }

    #[test]
    fn slack_start_no_artificials() {
        // min -3x - 2y s.t. x + y + s1 = 4, x + 3y + s2 = 6.
        let lp = lp_from_dense(
            &[&[1.0, 1.0, 1.0, 0.0], &[1.0, 3.0, 0.0, 1.0]],
            &[-3.0, -2.0, 0.0, 0.0],
            &[4.0, 6.0],
        );
        let r = solve_standard(&lp, None);
        assert_eq!(r.status, SimplexStatus::Optimal);
        assert!((r.objective + 12.0).abs() < 1e-9);
        assert!((r.x[0] - 4.0).abs() < 1e-9);
        assert!((r.x[1] - 0.0).abs() < 1e-9);
        assert!(r.residual < 1e-9);
    }

    #[test]
    fn phase1_needed_for_equalities() {
        // min x + y s.t. x + y = 2, x - y = 0  ->  x = y = 1, obj 2.
        let lp = lp_from_dense(&[&[1.0, 1.0], &[1.0, -1.0]], &[1.0, 1.0], &[2.0, 0.0]);
        let r = solve_standard(&lp, None);
        assert_eq!(r.status, SimplexStatus::Optimal);
        assert!((r.objective - 2.0).abs() < 1e-9);
        assert!((r.x[0] - 1.0).abs() < 1e-9);
        assert!((r.x[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_detected() {
        // x = 1 and x = 2 simultaneously.
        let lp = lp_from_dense(&[&[1.0], &[1.0]], &[0.0], &[1.0, 2.0]);
        let r = solve_standard(&lp, None);
        assert_eq!(r.status, SimplexStatus::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        // min -x s.t. x - s = 0 (x can grow forever).
        let lp = lp_from_dense(&[&[1.0, -1.0]], &[-1.0, 0.0], &[0.0]);
        let r = solve_standard(&lp, None);
        assert_eq!(r.status, SimplexStatus::Unbounded);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Multiple rows intersecting at the same vertex (degenerate).
        let lp = lp_from_dense(
            &[
                &[1.0, 1.0, 1.0, 0.0, 0.0],
                &[1.0, 0.0, 0.0, 1.0, 0.0],
                &[0.0, 1.0, 0.0, 0.0, 1.0],
            ],
            &[-1.0, -1.0, 0.0, 0.0, 0.0],
            &[1.0, 1.0, 1.0],
        );
        let r = solve_standard(&lp, None);
        assert_eq!(r.status, SimplexStatus::Optimal);
        assert!((r.objective + 1.0).abs() < 1e-9);
    }

    #[test]
    fn redundant_rows_tolerated() {
        // Row 2 = 2 x row 1: artificial stays basic at zero on the
        // redundant row; solution still optimal.
        let lp = lp_from_dense(&[&[1.0, 1.0], &[2.0, 2.0]], &[1.0, 2.0], &[3.0, 6.0]);
        let r = solve_standard(&lp, None);
        assert_eq!(r.status, SimplexStatus::Optimal);
        assert!((r.objective - 3.0).abs() < 1e-9, "obj={}", r.objective);
        assert!(r.residual < 1e-8);
    }

    #[test]
    fn duals_satisfy_strong_duality() {
        // min c x, Ax = b: at optimum, y'b == objective and c - A'y >= 0.
        let lp = lp_from_dense(
            &[&[2.0, 1.0, 1.0, 0.0], &[1.0, 3.0, 0.0, 1.0]],
            &[-5.0, -4.0, 0.0, 0.0],
            &[8.0, 9.0],
        );
        let r = solve_standard(&lp, None);
        assert_eq!(r.status, SimplexStatus::Optimal);
        let yb: f64 = r.duals.iter().zip(&lp.rhs).map(|(y, b)| y * b).sum();
        assert!((yb - r.objective).abs() < 1e-8);
        for j in 0..lp.cols.ncols() {
            let red = lp.costs[j] - lp.cols.col_dot(j, &r.duals);
            assert!(red > -1e-7, "reduced cost {red} negative at optimum");
        }
    }

    /// A banded `min c·x, Ax + s = b` family sharing matrix and costs;
    /// members differ only in `b` — the MSM sibling pattern.
    fn banded_lp(rhs: &[f64]) -> StandardLp {
        let n = rhs.len();
        let mut bld = CscBuilder::new(n);
        for j in 0..n {
            let mut col = vec![(j, 1.0)];
            if j + 1 < n {
                col.push((j + 1, 0.4));
            }
            bld.push_col(&col);
        }
        for j in 0..n {
            bld.push_col(&[(j, 1.0)]);
        }
        let costs: Vec<f64> = (0..n)
            .map(|i| -((i % 5) as f64) - 0.5)
            .chain((0..n).map(|_| 0.0))
            .collect();
        StandardLp {
            cols: bld.finish(),
            costs,
            rhs: rhs.to_vec(),
        }
    }

    #[test]
    fn warm_start_on_identical_rhs_needs_no_pivots() {
        let rhs: Vec<f64> = (0..24).map(|i| 1.0 + (i % 4) as f64).collect();
        let lp = banded_lp(&rhs);
        let donor = solve_standard(&lp, None);
        assert_eq!(donor.status, SimplexStatus::Optimal);
        assert!(donor.iterations > 0, "donor solved without pivoting");
        let warm = solve_standard(&lp, Some(Warm::Restart(donor.basis.clone())));
        assert_eq!(warm.status, SimplexStatus::Optimal);
        assert_eq!(warm.iterations, 0, "optimal basis re-priced from scratch");
        assert!((warm.objective - donor.objective).abs() < 1e-9);
    }

    #[test]
    fn warm_start_matches_cold_optimum_on_sibling_rhs() {
        let rhs_a: Vec<f64> = (0..24).map(|i| 1.0 + (i % 4) as f64).collect();
        let rhs_b: Vec<f64> = (0..24).map(|i| 1.3 + (i % 3) as f64).collect();
        let donor = solve_standard(&banded_lp(&rhs_a), None);
        assert_eq!(donor.status, SimplexStatus::Optimal);
        let sibling = banded_lp(&rhs_b);
        let cold = solve_standard(&sibling, None);
        let warm = solve_standard(&sibling, Some(Warm::Restart(donor.basis.clone())));
        assert_eq!(cold.status, SimplexStatus::Optimal);
        assert_eq!(warm.status, SimplexStatus::Optimal);
        assert!(
            (warm.objective - cold.objective).abs() < 1e-8,
            "warm {} vs cold {}",
            warm.objective,
            cold.objective
        );
        assert!(
            warm.iterations <= cold.iterations,
            "warm start pivoted more ({} > {})",
            warm.iterations,
            cold.iterations
        );
        for (a, b) in warm.x.iter().zip(&cold.x) {
            assert!((a - b).abs() < 1e-7, "solutions diverged: {a} vs {b}");
        }
    }

    #[test]
    fn mismatched_warm_basis_falls_back_to_cold() {
        // A basis from a differently-shaped LP must be ignored; the result
        // is bit-identical to the cold solve.
        let rhs: Vec<f64> = (0..12).map(|i| 1.0 + (i % 4) as f64).collect();
        let foreign = solve_standard(
            &banded_lp(&(0..30).map(|i| 1.0 + (i % 2) as f64).collect::<Vec<_>>()),
            None,
        );
        let lp = banded_lp(&rhs);
        let cold = solve_standard(&lp, None);
        let warm = solve_standard(&lp, Some(Warm::Restart(foreign.basis.clone())));
        assert_eq!(warm.status, cold.status);
        assert_eq!(warm.iterations, cold.iterations);
        for (a, b) in warm.x.iter().zip(&cold.x) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// The banded LP with `extra` additional columns inserted *before* the
    /// slack block — the shape a dualized model takes when cut rows are
    /// appended to the primal.
    fn banded_lp_with_inserted(rhs: &[f64], extra: &[(Vec<(usize, f64)>, f64)]) -> StandardLp {
        let n = rhs.len();
        let mut bld = CscBuilder::new(n);
        for j in 0..n {
            let mut col = vec![(j, 1.0)];
            if j + 1 < n {
                col.push((j + 1, 0.4));
            }
            bld.push_col(&col);
        }
        let mut costs: Vec<f64> = (0..n).map(|i| -((i % 5) as f64) - 0.5).collect();
        for (col, cost) in extra {
            bld.push_col(col);
            costs.push(*cost);
        }
        for j in 0..n {
            bld.push_col(&[(j, 1.0)]);
            costs.push(0.0);
        }
        StandardLp {
            cols: bld.finish(),
            costs,
            rhs: rhs.to_vec(),
        }
    }

    #[test]
    fn primal_continue_after_column_insertion_matches_cold() {
        let rhs: Vec<f64> = (0..24).map(|i| 1.0 + (i % 4) as f64).collect();
        let n = rhs.len();
        let base = banded_lp_with_inserted(&rhs, &[]);
        let donor = solve_standard(&base, None);
        assert_eq!(donor.status, SimplexStatus::Optimal);

        // Insert two attractive columns before the slack block; the old
        // basis stays primal-feasible (rows and rhs unchanged) but is no
        // longer dual-feasible — exactly the cut-generation situation.
        let extra = vec![
            (vec![(3, 1.0), (7, 0.5)], -9.0),
            (vec![(11, 1.0), (12, 0.25)], -8.0),
        ];
        let grown = banded_lp_with_inserted(&rhs, &extra);
        let cold = solve_standard(&grown, None);
        assert_eq!(cold.status, SimplexStatus::Optimal);
        let warm = solve_standard(
            &grown,
            Some(Warm::Continue(
                donor.basis.with_columns_inserted(n, extra.len()),
            )),
        );
        assert_eq!(warm.status, SimplexStatus::Optimal);
        assert!(
            (warm.objective - cold.objective).abs() < 1e-9,
            "warm {} vs cold {}",
            warm.objective,
            cold.objective
        );
        assert!(
            warm.iterations < cold.iterations,
            "continuation did not save pivots ({} >= {})",
            warm.iterations,
            cold.iterations
        );
        // Under the dual-restart mode the same remapped basis is rejected
        // (not dual-feasible) and the solve falls back to cold bits.
        let fallback = solve_standard(
            &grown,
            Some(Warm::Restart(
                donor.basis.with_columns_inserted(n, extra.len()),
            )),
        );
        assert_eq!(fallback.iterations, cold.iterations);
        for (a, b) in fallback.x.iter().zip(&cold.x) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn column_insertion_remap_shifts_only_tail_entries() {
        let basis = Basis {
            rows: vec![Some(0), Some(4), None, Some(9)],
        };
        let shifted = basis.with_columns_inserted(4, 3);
        assert_eq!(shifted.rows, vec![Some(0), Some(7), None, Some(12)]);
        // Inserting zero columns is the identity.
        assert_eq!(basis.with_columns_inserted(2, 0), basis);
    }

    #[test]
    fn row_append_with_basic_slacks_resumes_primal() {
        // min -3x - 2y s.t. x + y + s1 = 4, x + 3y + s2 = 6; optimum x=4.
        let base = lp_from_dense(
            &[&[1.0, 1.0, 1.0, 0.0], &[1.0, 3.0, 0.0, 1.0]],
            &[-3.0, -2.0, 0.0, 0.0],
            &[4.0, 6.0],
        );
        let donor = solve_standard(&base, None);
        assert_eq!(donor.status, SimplexStatus::Optimal);
        // Append a non-binding cut x + s3 = 5 (old optimum satisfies it
        // slackly): the extended basis — old columns remapped past nothing,
        // new slack basic in the new row — restarts without phase 1.
        let grown = lp_from_dense(
            &[
                &[1.0, 1.0, 1.0, 0.0, 0.0],
                &[1.0, 3.0, 0.0, 1.0, 0.0],
                &[1.0, 0.0, 0.0, 0.0, 1.0],
            ],
            &[-3.0, -2.0, 0.0, 0.0, 0.0],
            &[4.0, 6.0, 5.0],
        );
        let warm = solve_standard(
            &grown,
            Some(Warm::Continue(donor.basis.with_rows_appended(&[4]))),
        );
        assert_eq!(warm.status, SimplexStatus::Optimal);
        assert_eq!(warm.iterations, 0, "non-binding cut forced pivots");
        assert!((warm.objective + 12.0).abs() < 1e-9);
    }

    #[test]
    fn refactorization_keeps_accuracy() {
        // Force frequent refactorization on a chain problem and check the
        // residual stays tiny.
        let n = 30usize;
        let mut bld = CscBuilder::new(n);
        // x_i + x_{i+1}-style band + slacks.
        for j in 0..n {
            let mut col = vec![(j, 1.0)];
            if j + 1 < n {
                col.push((j + 1, 0.5));
            }
            bld.push_col(&col);
        }
        for j in 0..n {
            bld.push_col(&[(j, 1.0)]);
        }
        let costs: Vec<f64> = (0..n)
            .map(|i| -((i % 7) as f64) - 1.0)
            .chain((0..n).map(|_| 0.0))
            .collect();
        let rhs: Vec<f64> = (0..n).map(|i| 1.0 + (i % 3) as f64).collect();
        let lp = StandardLp {
            cols: bld.finish(),
            costs,
            rhs,
        };
        let mut eng = Engine::new(&lp);
        eng.refactor_every = 3;
        let r = solve_cold(eng);
        assert_eq!(r.status, SimplexStatus::Optimal);
        assert!(r.residual < 1e-9, "residual {}", r.residual);
    }

    /// The standard form of a dualized optimal-mechanism LP over the 3×3
    /// unit grid (skewed prior, ε 0.7, every GeoInd pair): the shape the
    /// OPT solve pivots on, where only the split halves of the nine
    /// row-stochasticity duals carry cost.
    fn dualized_opt_g3() -> StandardLp {
        use crate::model::{Model, Op, Sense};
        let n = 9;
        let dist = |a: usize, b: usize| {
            let (dx, dy) = (
                (a % 3) as f64 - (b % 3) as f64,
                (a / 3) as f64 - (b / 3) as f64,
            );
            (dx * dx + dy * dy).sqrt()
        };
        let mut m = Model::new(Sense::Minimize);
        for x in 0..n {
            let px = (1 + (x * 5) % 7) as f64 / 37.0;
            for z in 0..n {
                m.add_var(px * dist(x, z));
            }
        }
        for x in 0..n {
            let row: Vec<(usize, f64)> = (0..n).map(|z| (x * n + z, 1.0)).collect();
            m.add_row(&row, Op::Eq, 1.0);
        }
        for x in 0..n {
            for xp in (0..n).filter(|&xp| xp != x) {
                let scale = (-0.7 * dist(x, xp)).exp();
                for z in 0..n {
                    m.add_row(&[(x * n + z, scale), (xp * n + z, -1.0)], Op::Le, 0.0);
                }
            }
        }
        crate::dual::dualize_min(&m).model.to_standard().0
    }

    #[test]
    fn cost_sparse_btran_equals_dense_reference_at_every_pivot() {
        // Step a cold solve by hand (price → FTRAN → ratio test → pivot,
        // refactorizing every 16 pivots) and compare the cost-sparse BTRAN
        // with the dense product B⁻ᵀc_B before each pivot. `==` lets ±0
        // compare equal: the sign of an exact zero is the one thing the
        // sparse sum may change.
        let lp = dualized_opt_g3();
        let mut eng = Engine::new(&lp);
        eng.refactor_every = 16;
        assert!(!eng.has_artificials(), "an OPT dual starts from its slacks");
        let (mut pivots, mut most_costed) = (0usize, 0usize);
        loop {
            let y = eng.duals(false);
            let cb: Vec<f64> = eng
                .basis
                .iter()
                .map(|&b| eng.basic_cost(b, false))
                .collect();
            assert_eq!(
                y,
                eng.binv.mul_vec_transpose(&cb),
                "sparse and dense BTRAN differ after {pivots} pivots"
            );
            most_costed = most_costed.max(cb.iter().filter(|&&c| c != 0.0).count());
            let Some(q) = eng.price(&y, false, false) else {
                break;
            };
            let w = eng.ftran(q);
            let r = eng.ratio_test(&w, false).expect("an OPT dual is bounded");
            eng.pivot(r, q, &w);
            pivots += 1;
        }
        assert!(pivots > 16, "too few pivots to cross a refactorization");
        assert!(
            most_costed >= 3,
            "summation order is only exercised with three or more costed positions"
        );
    }
}
