//! Revised primal simplex on computational standard form.
//!
//! Solves `min c·x  s.t.  A x = b, x ≥ 0` with `b ≥ 0`, where `A` is a
//! sparse [`CscMatrix`] in which every row has a unit (+1 singleton)
//! column, its slack. The slack basis is then the identity with basic
//! values `b ≥ 0`, a feasible start, so the engine has no phase 1: an LP
//! with a row no unit column covers is refused with
//! [`LpError::UncoveredRow`] (every dual [`crate::dual::opt_dual`] builds
//! has a slack per row). The engine:
//!
//! * starts from that slack basis, or from a warm start's basis;
//! * maintains an explicit basis inverse with exact-zero block structure:
//!   refactorization (every `max(600, m)` pivots for an `m`-row LP, to
//!   shed drift) factors only the k×k block of non-singleton basic columns,
//!   with a sparse LU over that block's nonzeros that replays the dense
//!   partial-pivoting LU bit for bit ([`crate::lu`]), and scatters the
//!   block inverse's columns straight into the `m×m` inverse: its
//!   arithmetic follows the factors' nonzeros, not `k³` or `m³`, and its
//!   `O(k²)` step scans cost no more than refilling that inverse (see
//!   `Engine::refactorize`);
//! * computes the row duals once per run by a cost-sparse BTRAN that
//!   reads only the basic positions S carrying a nonzero cost — `O(m·|S|)`
//!   instead of `O(m²)`; in an optimal-mechanism dual only the split halves
//!   of the n row-stochasticity duals carry cost, so |S| ≤ 2n ≪ m — and
//!   then keeps them current inside each pivot's rank-1 inverse update,
//!   touching only the inverse columns that pivot changes (see
//!   `Engine::pivot`); from `INCREMENTAL_DUALS_MIN_ROWS` rows up that
//!   update is carried rather than re-summed, and any claimed optimum is
//!   re-verified against freshly computed duals before it is trusted;
//! * prices with Dantzig's rule and falls back to Bland's rule after a long
//!   degenerate stall (anti-cycling).
//!
//! The problems this crate was built for (duals of optimal-mechanism LPs)
//! are *column-heavy*: millions of columns over a few thousand rows, every
//! column carrying 1–3 nonzeros. All per-iteration work is therefore either
//! dense against the (mostly exactly-zero) inverse or `O(nnz)` sparse
//! (pricing), never `O(m·n)` dense.

use crate::dense::DenseMatrix;
use crate::lu::SparseLu;
use crate::sparse::CscMatrix;
use crate::LpError;
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
const MAX_ITERATIONS: u64 = 2_000_000;

/// Minimum pivot magnitude accepted by the ratio tests.
const PIVOT_TOL: f64 = 1e-9;

/// Consecutive non-improving pivots before pricing switches to Bland's
/// rule.
const STALL_LIMIT: usize = 2_000;

/// Largest `‖Ax − b‖∞` accepted at an optimal exit; a nominally optimal
/// basis with a larger residual, or with a basic value below
/// `−VALUE_CLIP`, is demoted to [`SimplexStatus::SingularBasis`] instead
/// of being reported as a trustworthy optimum.
const RESIDUAL_TOL: f64 = 1e-6;

/// The engine rebuilds the basis inverse from an LU every
/// `max(REFACTOR_MIN_PIVOTS, m)` pivots of an `m`-row LP: small problems
/// keep the tight drift window while large ones — where a refactorization
/// rewrites the whole `m×m` inverse — refactorize a bounded number of
/// times per solve. Accuracy does not ride on the
/// cadence alone: every claimed optimum is re-verified against freshly
/// computed duals, and the exit path refactorizes, refines, and
/// residual-gates the result regardless.
const REFACTOR_MIN_PIVOTS: usize = 600;

/// Smallest pivot magnitude `|w_r|` a dual-simplex warm restart accepts;
/// a restart whose ratio test chooses a smaller pivot is abandoned for the
/// cold solve on the spot (see `Engine::restore_primal_feasibility` for
/// the measurements behind the value).
const RESTART_PIVOT_FLOOR: f64 = 1e-7;

/// Row count from which each pivot carries the duals it changes
/// incrementally instead of re-summing them over the costed basic
/// positions. Below this, the re-sum (`O(|S|)` per changed dual, S the
/// basic positions with a nonzero cost) is cheap, and its exact-to-the-basis
/// duals make tied pricing decisions maximally reproducible across pivot
/// paths (warm and cold solves of a degenerate LP tend to exit at the same
/// vertex). Above it, the incremental update — exact in real arithmetic,
/// drift-checked at every claimed optimum — costs `O(1)` per changed dual.
/// It is what let large instances finish at all while the recompute was a
/// dense `O(m²)` product, and moving those sizes to the exact recompute
/// would change their pivot paths.
const INCREMENTAL_DUALS_MIN_ROWS: usize = 1024;

/// A linear program in computational standard form.
#[derive(Debug, Clone)]
pub struct StandardLp {
    /// Constraint matrix (structural + slack columns): every row needs a
    /// unit (+1 singleton) column for [`solve_standard`] to start from.
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
/// engine actually pivoted in: entry `i` names the column basic in row `i`.
/// A basis only round-trips between solves whose standard forms share the
/// same shape; the engine validates this and silently falls back to a cold
/// start on any mismatch, so a stale basis can never corrupt a solve.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Basis {
    rows: Vec<usize>,
}

impl Basis {
    /// Remap this basis for a standard form that grew by `added` columns
    /// inserted at column index `insert_at` (row count unchanged): every
    /// entry at or past the insertion point shifts up by `added`, entries
    /// before it are untouched, and none of the new columns is basic.
    ///
    /// This is the delayed-constraint-generation bridge: a cut round's new
    /// primal rows are new dual variables — standard-form *columns* — in
    /// the dual the engine actually pivots on, and the old optimal basis
    /// stays primal-feasible for the grown LP (same rows, same rhs) once
    /// its column references are shifted past the insertion block (see
    /// [`crate::dual::continue_after_pairs`]).
    pub fn with_columns_inserted(&self, insert_at: usize, added: usize) -> Basis {
        Basis {
            rows: self
                .rows
                .iter()
                .map(|&j| if j >= insert_at { j + added } else { j })
                .collect(),
        }
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
    /// The objective decreases without bound.
    Unbounded,
    /// `MAX_ITERATIONS` pivots exhausted.
    IterationLimit,
    /// The basis became numerically singular (LU refactorization failed,
    /// or a nominally optimal exit violated the residual tolerance or kept
    /// a basic value below `−VALUE_CLIP`). The reported solution cannot be
    /// certified.
    SingularBasis,
}

/// What a solve cost: the counts the engine keeps while it pivots. A cut
/// loop, a tree level and a whole precompute sum their solves' counts
/// with `+=`, so a new count is one new field here.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Effort {
    /// Pivots of the start that produced the result. An abandoned warm
    /// start's pivots are not among them (see `discarded_pivots`).
    pub pivots: u64,
    /// Warm starts abandoned for a cold solve (0 or 1 per solve).
    pub warm_fallbacks: u64,
    /// Pivots those abandoned warm starts executed before they were
    /// thrown away.
    pub discarded_pivots: u64,
    /// LU factorizations of a basis computed: the periodic ones, the one
    /// a warm start's basis install costs, and those of an abandoned warm
    /// start.
    pub refactorizations: u64,
    /// The order k of each factored block (the basic columns that are not
    /// singletons), summed over those factorizations.
    pub block_order: u64,
    /// The nonzeros of each factorization's L and U factors, U's diagonal
    /// included, summed over those factorizations.
    pub factor_nonzeros: u64,
}

impl std::ops::AddAssign for Effort {
    fn add_assign(&mut self, rhs: Self) {
        self.pivots += rhs.pivots;
        self.warm_fallbacks += rhs.warm_fallbacks;
        self.discarded_pivots += rhs.discarded_pivots;
        self.refactorizations += rhs.refactorizations;
        self.block_order += rhs.block_order;
        self.factor_nonzeros += rhs.factor_nonzeros;
    }
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
    /// What the run cost.
    pub effort: Effort,
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
}

struct Engine<'a> {
    lp: &'a StandardLp,
    m: usize,
    /// Row `r`'s slack: the first unit (+1 singleton) column on row `r`.
    slacks: Vec<usize>,
    /// The column basic in each row.
    basis: Vec<usize>,
    /// Which columns are currently basic.
    in_basis: Vec<bool>,
    /// Explicit basis inverse, column-major.
    binv: DenseMatrix,
    /// Values of the basic variables.
    xb: Vec<f64>,
    /// The run's counts. `pivots` counts the current start only: a cold
    /// fallback moves an abandoned warm start's pivots to
    /// `discarded_pivots`.
    effort: Effort,
    pivots_since_refactor: usize,
    /// Pivots between refactorizations: `max(REFACTOR_MIN_PIVOTS, m)`.
    refactor_every: usize,
    /// Set when an LU refactorization fails: the explicit inverse can no
    /// longer be trusted, so the run must stop at the next loop head.
    singular: bool,
    /// `refactorize`'s workspace, refilled on every call: the sparse LU of
    /// the general block `M`, and one column of `M⁻¹`.
    lu: SparseLu,
    minv_col: Vec<(usize, f64)>,
    /// The basic positions with a nonzero cost and their costs, ascending:
    /// the terms each re-summed dual reads in `pivot`.
    costed: Vec<(usize, f64)>,
}

/// Row duals `y = B⁻ᵀc_B` that [`Engine::pivot`] keeps current.
struct Duals<'y> {
    y: &'y mut Vec<f64>,
    /// `d_q / w_r`, the step of the carried update used from
    /// `INCREMENTAL_DUALS_MIN_ROWS` rows up.
    step: f64,
}

impl<'a> Engine<'a> {
    /// An engine at the slack basis of `lp`, or
    /// [`LpError::UncoveredRow`] naming the first row without a slack.
    fn new(lp: &'a StandardLp) -> Result<Self, LpError> {
        let m = lp.rhs.len();
        assert_eq!(lp.cols.nrows(), m, "matrix/rhs row mismatch");
        assert_eq!(lp.costs.len(), lp.cols.ncols(), "cost/column mismatch");
        assert!(
            lp.rhs.iter().all(|&b| b >= 0.0),
            "standard form requires b >= 0"
        );
        let mut cover: Vec<Option<usize>> = vec![None; m];
        for j in 0..lp.cols.ncols() {
            let mut it = lp.cols.col(j);
            if let (Some((r, v)), None) = (it.next(), it.next()) {
                if (v - 1.0).abs() < 1e-12 && cover[r].is_none() {
                    cover[r] = Some(j);
                }
            }
        }
        let slacks = cover
            .iter()
            .enumerate()
            .map(|(r, j)| j.ok_or(LpError::UncoveredRow(r)))
            .collect::<Result<Vec<usize>, LpError>>()?;
        let mut eng = Self {
            lp,
            m,
            slacks,
            basis: Vec::new(),
            in_basis: Vec::new(),
            binv: DenseMatrix::default(),
            xb: Vec::new(),
            effort: Effort::default(),
            pivots_since_refactor: 0,
            refactor_every: m.max(REFACTOR_MIN_PIVOTS),
            singular: false,
            lu: SparseLu::default(),
            minv_col: Vec::new(),
            costed: Vec::new(),
        };
        eng.crash();
        Ok(eng)
    }

    /// Start over from the slack basis. The inverse and workspace storage
    /// are kept, and so are the effort counts.
    fn crash(&mut self) {
        let m = self.m;
        self.in_basis.clear();
        self.in_basis.resize(self.lp.cols.ncols(), false);
        for &j in &self.slacks {
            self.in_basis[j] = true;
        }
        self.basis.clone_from(&self.slacks);
        self.binv.reset(m, m);
        for i in 0..m {
            self.binv.set(i, i, 1.0);
        }
        self.xb.clone_from(&self.lp.rhs);
        self.pivots_since_refactor = 0;
        self.singular = false;
    }

    /// Row duals `y = B⁻ᵀc_B` for the current basis (BTRAN).
    ///
    /// Each `y_k` sums only the basic positions whose cost is nonzero, in
    /// ascending position order: the same nonzero terms, in the same order,
    /// as the dense dot product of column k of `B⁻¹` with `c_B`. Every
    /// `y_k` therefore equals the dense value — only the sign of an exact
    /// zero can differ, and no comparison observes it — so no pricing or
    /// ratio decision depends on which of the two computed it.
    fn duals(&self) -> Vec<f64> {
        let costed: Vec<(usize, f64)> = self
            .basis
            .iter()
            .enumerate()
            .map(|(p, &j)| (p, self.lp.costs[j]))
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
    fn price(&self, y: &[f64], bland: bool) -> Option<usize> {
        // (column, -d): the most negative reduced cost wins.
        let mut best: Option<(usize, f64)> = None;
        for j in 0..self.lp.cols.ncols() {
            if self.in_basis[j] {
                continue;
            }
            let d = self.lp.costs[j] - self.lp.cols.col_dot(j, y);
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
                            // Bland: smallest basic column among ties.
                            theta < bt - 1e-12
                                || (theta < bt + 1e-12 && self.basis[i] < self.basis[bi])
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

    /// Apply the pivot: column `q` enters, row `r` leaves.
    ///
    /// The caller's row duals of the old basis, `duals`, leave as the
    /// duals of the new one, updated inside the rank-1 inverse update
    /// while each inverse column is in cache. Only a column `k` with a
    /// nonzero in the leaving row changes, so only its `y_k` is touched:
    /// below `INCREMENTAL_DUALS_MIN_ROWS` rows it is re-summed over the new
    /// basis's costed positions exactly as [`Engine::duals`] sums it, and
    /// from there up it takes the carried step `y_k += (d_q/w_r)·ρ_k`
    /// (`ρ_k` the column's old leaving-row entry; see `run_phase2`). Every
    /// other `y_k` keeps its value: its column is unchanged and has an
    /// exact zero in row r, the one position whose cost the pivot changes,
    /// so a fresh sum would add the same terms plus at most a ±0. The
    /// re-summed duals therefore equal a fresh BTRAN up to the sign of an
    /// exact zero, which no comparison observes. A pivot that crosses the
    /// refactorization cadence recomputes all of them.
    fn pivot(&mut self, r: usize, q: usize, w: &[f64], duals: Duals) {
        let theta = self.xb[r] / w[r];
        for i in 0..self.m {
            self.xb[i] -= theta * w[i];
        }
        self.xb[r] = theta;
        self.in_basis[self.basis[r]] = false;
        self.basis[r] = q;
        self.in_basis[q] = true;

        let carry = self.m >= INCREMENTAL_DUALS_MIN_ROWS;
        if !carry {
            self.costed.clear();
            for (p, &j) in self.basis.iter().enumerate() {
                let c = self.lp.costs[j];
                if c != 0.0 {
                    self.costed.push((p, c));
                }
            }
        }
        // Rank-1 update of the explicit inverse.
        let wr = w[r];
        for k in 0..self.m {
            let col = self.binv.col_mut(k);
            let rho = col[r];
            if rho != 0.0 {
                let t = rho / wr;
                for i in 0..self.m {
                    col[i] -= w[i] * t;
                }
                col[r] = t;
                duals.y[k] = if carry {
                    duals.y[k] + duals.step * rho
                } else {
                    self.costed.iter().map(|&(p, c)| col[p] * c).sum()
                };
            }
        }
        self.effort.pivots += 1;
        self.pivots_since_refactor += 1;
        if self.pivots_since_refactor >= self.refactor_every {
            self.refactorize();
            *duals.y = self.duals();
        }
    }

    /// Rebuild `binv` and `xb` from scratch.
    ///
    /// The bases this engine sees are *slack-heavy*: at an optimum of an
    /// optimal-mechanism dual most rows keep their slack basic (the primal
    /// channel is sparse), so up to row/column permutation the basis matrix
    /// is `[[M, 0], [C, D]]` — `D` diagonal from singleton basic columns
    /// (mostly slacks), `M` the square block of general columns on
    /// the k rows no singleton covers, `C` those columns' entries on the
    /// covered rows. Only `M` needs an LU; the inverse assembles in block
    /// form
    ///
    /// ```text
    ///   B⁻¹ = [[ M⁻¹,          0   ],
    ///          [ −D⁻¹·C·M⁻¹,   D⁻¹ ]]
    /// ```
    ///
    /// `M` is itself almost empty (OPT's pair columns have two entries),
    /// so it is factored by [`SparseLu`] over its nonzeros, and each column
    /// of `M⁻¹` is solved over the factors' nonzeros and scattered straight
    /// into `B⁻¹`. The arithmetic is proportional to those nonzeros, not
    /// `k³`; each column also scans the k steps once in order, `O(k²)` per
    /// call, below the `m²` of refilling `B⁻¹`. No `k×k` matrix is stored.
    /// The sparse LU replays the dense partial-pivoting LU bit for bit (see
    /// [`crate::lu`]), and the assembly runs in the dense code's order (`t`
    /// ascending, then `s` ascending), so `B⁻¹` keeps every bit. Just as
    /// important, the assembled inverse is *exactly* zero outside the k
    /// general columns and the diagonal singletons, which keeps the
    /// per-pivot rank-1 update (it skips exact-zero entries) proportional to
    /// the general block, not to m².
    fn refactorize(&mut self) {
        self.pivots_since_refactor = 0;
        let m = self.m;
        // Split the basis: a singleton column at position p with value v on
        // row r contributes the diagonal entry D[r,r] = v; everything else
        // is part of the general block.
        let mut unit_of_row: Vec<Option<(usize, f64)>> = vec![None; m];
        let mut structural: Vec<usize> = Vec::new();
        for (p, &j) in self.basis.iter().enumerate() {
            let mut it = self.lp.cols.col(j);
            let singleton = match (it.next(), it.next()) {
                (Some((r, v)), None) if v != 0.0 => Some((r, v)),
                _ => None,
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
        // Factor the k×k general block M, column s holding basic position
        // structural[s]'s entries on the uncovered rows.
        let (cols, basis) = (&self.lp.cols, &self.basis);
        let factored = self.lu.factor(
            k,
            structural.iter().map(|&p| {
                cols.col(basis[p])
                    .filter_map(|(r, v)| t_of_row[r].map(|t| (t, v)))
            }),
        );
        self.effort.refactorizations += 1;
        self.effort.block_order += k as u64;
        self.effort.factor_nonzeros += self.lu.nonzeros() as u64;
        if factored.is_err() {
            // Numerically singular refactorization: the rank-1-updated
            // inverse we still hold is the very thing that drifted into
            // an uninvertible basis, so continuing would pivot on
            // garbage. Flag the run; the phase loop aborts with
            // `SingularBasis` at its next head.
            self.singular = true;
            return;
        }
        // Per general column: its covered-row entries as
        // (singleton position, entry / diagonal value) — the C and D⁻¹
        // factors of the lower-left block, pre-divided.
        let covered: Vec<Vec<(usize, f64)>> = structural
            .iter()
            .map(|&p| {
                self.lp
                    .cols
                    .col(self.basis[p])
                    .filter_map(|(r, v)| unit_of_row[r].map(|(pu, vu)| (pu, v / vu)))
                    .collect()
            })
            .collect();
        // Assemble B⁻¹: uncovered-row columns carry M⁻¹ on general
        // positions and −D⁻¹·C·M⁻¹ on singleton positions; covered-row
        // columns carry the single diagonal entry 1/v; all else stays an
        // exact zero.
        let inv = &mut self.binv;
        inv.reset(m, m);
        for (t, &tr) in t_rows.iter().enumerate() {
            self.lu.inverse_column(t, &mut self.minv_col);
            let col = inv.col_mut(tr);
            for &(s, ms) in &self.minv_col {
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
        self.basic_values_from_inverse();
    }

    /// `xb = B⁻¹b` from a freshly built inverse, with drift-level negatives
    /// clipped to zero.
    fn basic_values_from_inverse(&mut self) {
        self.xb = self.binv.mul_vec(&self.lp.rhs);
        for v in &mut self.xb {
            if *v < 0.0 && *v > -VALUE_CLIP {
                *v = 0.0;
            }
        }
    }

    /// Objective of the current basis.
    fn objective(&self) -> f64 {
        self.basis
            .iter()
            .zip(&self.xb)
            .map(|(&j, &v)| self.lp.costs[j] * v)
            .sum()
    }

    /// Primal simplex to optimality from a primal-feasible basis. Returns
    /// `None` when optimal, otherwise a terminal status.
    fn run_phase2(&mut self) -> Option<SimplexStatus> {
        let mut bland = false;
        let mut stall = 0usize;
        let mut last_obj = self.objective();
        // The row duals are computed once and then kept current by each
        // pivot (see `Engine::pivot`). Below `INCREMENTAL_DUALS_MIN_ROWS`
        // the pivot re-sums the duals it changes, so they stay exact to
        // the basis. From there up it *carries* them: after a pivot
        // (entering q, leaving row r) the exact update is
        // `y' = y + (d_q/w_r)·ρ_r` with ρ_r row r of the pre-pivot
        // inverse: a surviving basic column i keeps B_iᵀy' = c_i because
        // B_iᵀρ_r = (B⁻¹B_i)_r = 0, and the entering column satisfies
        // A_qᵀy' = c_q because A_qᵀρ_r = w_r cancels against d_q. Rounding
        // drift still accumulates, so the vector is rebuilt whenever the
        // inverse itself is refactorized, and a claimed optimum is never
        // trusted until it re-prices clean against freshly computed duals.
        let incremental = self.m >= INCREMENTAL_DUALS_MIN_ROWS;
        let mut y = self.duals();
        loop {
            // `lp.refactor.singular` simulates an LU refactorization
            // collapsing at the point where the run would detect it.
            if self.singular || failpoint::hit("lp.refactor.singular") {
                self.singular = true;
                return Some(SimplexStatus::SingularBasis);
            }
            if self.effort.pivots >= MAX_ITERATIONS || failpoint::hit("lp.iterations.exhausted") {
                return Some(SimplexStatus::IterationLimit);
            }
            let q = match self.price(&y, bland) {
                Some(q) => q,
                None => {
                    if !incremental {
                        return None; // optimal under exact duals
                    }
                    // Optimal under the incrementally maintained (hence
                    // drifted) duals — recompute exactly and re-price
                    // before declaring the run done; pricing clean
                    // against exact duals certifies the optimum.
                    y = self.duals();
                    self.price(&y, bland)?
                }
            };
            let dq = self.lp.costs[q] - self.lp.cols.col_dot(q, &y);
            let w = self.ftran(q);
            let Some(r) = self.ratio_test(&w, bland) else {
                return Some(SimplexStatus::Unbounded);
            };
            let duals = Duals {
                y: &mut y,
                step: dq / w[r],
            };
            self.pivot(r, q, &w, duals);
            let obj = self.objective();
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
        for &j in &warm.rows {
            if j >= ncols || in_basis[j] {
                return false;
            }
            in_basis[j] = true;
        }
        self.basis.clone_from(&warm.rows);
        self.in_basis = in_basis;
        // A fresh LU of the donor basis against *this* LP's rhs: basic
        // values may come out negative (the whole point of the dual-simplex
        // restart), but the factorization itself must succeed.
        self.refactorize();
        !self.singular
    }

    /// Dual feasibility of the current basis: every nonbasic reduced cost
    /// within `-OPT_TOL`. A donor basis from a sibling LP with identical
    /// matrix and costs passes exactly; anything else (e.g. a basis reused
    /// across genuinely different LPs) fails here and triggers the cold
    /// fallback.
    fn dual_feasible(&self) -> bool {
        let y = self.duals();
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
        let cap = MAX_ITERATIONS.min(4 * self.m as u64 + 128);
        // Duals kept current by each pivot exactly as in `run_phase` — the
        // dual-simplex basis change is the same basis change. Any drift of
        // the carried update is caught downstream: the caller always
        // finishes with `run_phase2`, which re-verifies optimality against
        // freshly computed duals.
        let mut y = self.duals();
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
            if self.effort.pivots >= cap {
                return false;
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
            let duals = Duals {
                y: &mut y,
                step: dq / w[r],
            };
            self.pivot(r, q, &w, duals);
        }
    }

    /// Primal feasibility of the current basic values. `install_basis`
    /// already clipped drift-level negatives during its refactorization, so
    /// any remaining negative entry means the basis is genuinely infeasible
    /// for this LP's rhs and a primal continuation must fall back to cold.
    fn primal_feasible(&self) -> bool {
        self.xb.iter().all(|&v| v >= 0.0)
    }

    /// One iterative-refinement pass on the final basis: correct the basic
    /// values by `xb += B⁻¹·(b − B·xb)`, shedding the drift the rank-1
    /// inverse updates accumulated since the last refactorization. A single
    /// pass is the standard accuracy/cost point — the correction is already
    /// quadratically small in the drift.
    fn refine(&mut self) {
        let mut r = self.lp.rhs.clone();
        for (i, &j) in self.basis.iter().enumerate() {
            for (row, v) in self.lp.cols.col(j) {
                r[row] -= v * self.xb[i];
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

    /// Refine the duals to (near) the correctly rounded solution of
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
        let cb: Vec<f64> = self.basis.iter().map(|&j| self.lp.costs[j]).collect();
        // y carried as an unevaluated double-double (hi + lo) so the
        // iteration converges to an ε²-accurate value before the final
        // rounding — a plain-f64 carrier can stall one ulp apart depending
        // on the basis it was approached through.
        let mut hi = self.binv.mul_vec_transpose(&cb);
        let mut lo = vec![0.0; self.m];
        let mut r = vec![0.0; self.m];
        for _ in 0..4 {
            for (i, &j) in self.basis.iter().enumerate() {
                // Doubled-precision r_i = cb_i − (Bᵀ(hi+lo))_i: Dekker-split
                // each product with mul_add, Neumaier-compensate the sum.
                let mut s = cb[i];
                let mut comp = 0.0;
                for (row, v) in self.lp.cols.col(j) {
                    let p = -(v * hi[row]);
                    let e = (-v).mul_add(hi[row], -p); // exact product error
                    let t = s + p;
                    comp += if s.abs() >= p.abs() {
                        (s - t) + p
                    } else {
                        (p - t) + s
                    };
                    s = t;
                    comp += e - v * lo[row];
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
        for (i, &j) in self.basis.iter().enumerate() {
            x[j] = self.xb[i];
        }
        // Clip drift-induced tiny negatives.
        for v in &mut x {
            if *v < 0.0 && *v > -VALUE_CLIP {
                *v = 0.0;
            }
        }
        let ax = self.lp.cols.mul_vec(&x);
        let mut residual = 0.0f64;
        for (lhs, b) in ax.iter().zip(&self.lp.rhs) {
            residual = residual.max((lhs - b).abs());
        }
        let objective = x.iter().zip(&self.lp.costs).map(|(v, c)| v * c).sum();
        // At an optimal exit the duals are a deliverable (the dual solve
        // path reads primal values off them), so polish them to the
        // basis-independent rounding; elsewhere the one-shot BTRAN serves.
        let duals = if status == SimplexStatus::Optimal {
            self.refined_duals()
        } else {
            self.duals()
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
            rows: self.basis.clone(),
        };
        SimplexResult {
            status,
            x,
            duals,
            objective,
            effort: self.effort,
            residual,
            dual_residual,
            basis,
        }
    }
}

/// Phase 2 to optimality from a primal-feasible engine state, then the
/// exit gate shared by cold and warm starts: refactorization, one
/// refinement pass, and the quality checks on the refined basic values.
fn finish_phase2(mut eng: Engine) -> SimplexResult {
    match eng.run_phase2() {
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
            // reproduce the right-hand side, or reproduces it only with a
            // basic value below −VALUE_CLIP (a dual-feasible basis that is
            // not primal-feasible), is numerically suspect — demote it so
            // callers never consume an uncertified optimum.
            if r.residual > RESIDUAL_TOL || eng.xb.iter().any(|&v| v < -VALUE_CLIP) {
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
/// of the result. A fallback is reported through the result's
/// [`Effort::warm_fallbacks`], and the pivots the abandoned start executed
/// through [`Effort::discarded_pivots`].
///
/// # Errors
/// [`LpError::UncoveredRow`] when a row has no unit (+1 singleton) column
/// to start from. How the run itself ended is the result's `status`.
pub fn solve_standard(lp: &StandardLp, warm: Option<Warm>) -> Result<SimplexResult, LpError> {
    let mut eng = Engine::new(lp)?;
    let usable = match warm {
        None => true,
        Some(Warm::Restart(basis)) => {
            eng.install_basis(&basis) && eng.dual_feasible() && eng.restore_primal_feasibility()
        }
        Some(Warm::Continue(basis)) => eng.install_basis(&basis) && eng.primal_feasible(),
    };
    if !usable {
        // The cold fallback reuses the engine's storage.
        eng.effort.warm_fallbacks += 1;
        eng.effort.discarded_pivots += std::mem::take(&mut eng.effort.pivots);
        eng.crash();
    }
    Ok(finish_phase2(eng))
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
    fn slack_start_reaches_the_optimum() {
        // min -3x - 2y s.t. x + y + s1 = 4, x + 3y + s2 = 6.
        let lp = lp_from_dense(
            &[&[1.0, 1.0, 1.0, 0.0], &[1.0, 3.0, 0.0, 1.0]],
            &[-3.0, -2.0, 0.0, 0.0],
            &[4.0, 6.0],
        );
        let r = solve_standard(&lp, None).unwrap();
        assert_eq!(r.status, SimplexStatus::Optimal);
        assert!((r.objective + 12.0).abs() < 1e-9);
        assert!((r.x[0] - 4.0).abs() < 1e-9);
        assert!((r.x[1] - 0.0).abs() < 1e-9);
        assert!(r.residual < 1e-9);
    }

    #[test]
    fn uncovered_row_is_refused() {
        // Row 0 has its slack (column 1). Row 1's only singleton columns
        // hold −1 (column 2) and 2 (column 3): neither is a unit column.
        let lp = lp_from_dense(
            &[&[1.0, 1.0, 0.0, 0.0], &[1.0, 0.0, -1.0, 2.0]],
            &[1.0, 0.0, 0.0, 1.0],
            &[2.0, 1.0],
        );
        let err = solve_standard(&lp, None).unwrap_err();
        assert_eq!(err, LpError::UncoveredRow(1));
        assert_eq!(err.to_string(), "row 1 has no unit column to start from");
    }

    #[test]
    fn unbounded_detected() {
        // min -x s.t. x - s = 0 (x can grow forever).
        let lp = lp_from_dense(&[&[1.0, -1.0]], &[-1.0, 0.0], &[0.0]);
        let r = solve_standard(&lp, None).unwrap();
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
        let r = solve_standard(&lp, None).unwrap();
        assert_eq!(r.status, SimplexStatus::Optimal);
        assert!((r.objective + 1.0).abs() < 1e-9);
    }

    #[test]
    fn duals_satisfy_strong_duality() {
        // min c x, Ax = b: at optimum, y'b == objective and c - A'y >= 0.
        let lp = lp_from_dense(
            &[&[2.0, 1.0, 1.0, 0.0], &[1.0, 3.0, 0.0, 1.0]],
            &[-5.0, -4.0, 0.0, 0.0],
            &[8.0, 9.0],
        );
        let r = solve_standard(&lp, None).unwrap();
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
        let donor = solve_standard(&lp, None).unwrap();
        assert_eq!(donor.status, SimplexStatus::Optimal);
        assert!(donor.effort.pivots > 0, "donor solved without pivoting");
        let warm = solve_standard(&lp, Some(Warm::Restart(donor.basis.clone()))).unwrap();
        assert_eq!(warm.status, SimplexStatus::Optimal);
        assert_eq!(
            warm.effort.pivots, 0,
            "optimal basis re-priced from scratch"
        );
        assert!((warm.objective - donor.objective).abs() < 1e-9);
    }

    #[test]
    fn warm_start_matches_cold_optimum_on_sibling_rhs() {
        let rhs_a: Vec<f64> = (0..24).map(|i| 1.0 + (i % 4) as f64).collect();
        let rhs_b: Vec<f64> = (0..24).map(|i| 1.3 + (i % 3) as f64).collect();
        let donor = solve_standard(&banded_lp(&rhs_a), None).unwrap();
        assert_eq!(donor.status, SimplexStatus::Optimal);
        let sibling = banded_lp(&rhs_b);
        let cold = solve_standard(&sibling, None).unwrap();
        let warm = solve_standard(&sibling, Some(Warm::Restart(donor.basis.clone()))).unwrap();
        assert_eq!(cold.status, SimplexStatus::Optimal);
        assert_eq!(warm.status, SimplexStatus::Optimal);
        assert!(
            (warm.objective - cold.objective).abs() < 1e-8,
            "warm {} vs cold {}",
            warm.objective,
            cold.objective
        );
        assert!(
            warm.effort.pivots <= cold.effort.pivots,
            "warm start pivoted more ({} > {})",
            warm.effort.pivots,
            cold.effort.pivots
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
        )
        .unwrap();
        let lp = banded_lp(&rhs);
        let cold = solve_standard(&lp, None).unwrap();
        let warm = solve_standard(&lp, Some(Warm::Restart(foreign.basis.clone()))).unwrap();
        assert_eq!(warm.status, cold.status);
        assert_eq!(warm.effort.pivots, cold.effort.pivots);
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
        let donor = solve_standard(&base, None).unwrap();
        assert_eq!(donor.status, SimplexStatus::Optimal);

        // Insert two attractive columns before the slack block; the old
        // basis stays primal-feasible (rows and rhs unchanged) but is no
        // longer dual-feasible — exactly the cut-generation situation.
        let extra = vec![
            (vec![(3, 1.0), (7, 0.5)], -9.0),
            (vec![(11, 1.0), (12, 0.25)], -8.0),
        ];
        let grown = banded_lp_with_inserted(&rhs, &extra);
        let cold = solve_standard(&grown, None).unwrap();
        assert_eq!(cold.status, SimplexStatus::Optimal);
        let warm = solve_standard(
            &grown,
            Some(Warm::Continue(
                donor.basis.with_columns_inserted(n, extra.len()),
            )),
        )
        .unwrap();
        assert_eq!(warm.status, SimplexStatus::Optimal);
        assert!(
            (warm.objective - cold.objective).abs() < 1e-9,
            "warm {} vs cold {}",
            warm.objective,
            cold.objective
        );
        assert!(
            warm.effort.pivots < cold.effort.pivots,
            "continuation did not save pivots ({} >= {})",
            warm.effort.pivots,
            cold.effort.pivots
        );
        // Under the dual-restart mode the same remapped basis is rejected
        // (not dual-feasible) and the solve falls back to cold bits.
        let fallback = solve_standard(
            &grown,
            Some(Warm::Restart(
                donor.basis.with_columns_inserted(n, extra.len()),
            )),
        )
        .unwrap();
        assert_eq!(fallback.effort.pivots, cold.effort.pivots);
        for (a, b) in fallback.x.iter().zip(&cold.x) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn column_insertion_remap_shifts_only_tail_entries() {
        let basis = Basis {
            rows: vec![0, 4, 2, 9],
        };
        let shifted = basis.with_columns_inserted(4, 3);
        assert_eq!(shifted.rows, vec![0, 7, 2, 12]);
        // Inserting zero columns is the identity.
        assert_eq!(basis.with_columns_inserted(2, 0), basis);
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
        let mut eng = Engine::new(&lp).unwrap();
        eng.refactor_every = 3;
        let r = finish_phase2(eng);
        assert_eq!(r.status, SimplexStatus::Optimal);
        assert!(r.residual < 1e-9, "residual {}", r.residual);
    }

    /// The dual of the optimal-mechanism LP over the 3×3 unit grid
    /// (skewed prior, ε 0.7, every GeoInd pair), built as the OPT solve
    /// builds it: the shape it pivots on, where only the split halves of
    /// the nine row-stochasticity duals carry cost. `skew` picks the
    /// prior, which only moves the right-hand side: any two skews are MSM
    /// siblings.
    fn dualized_opt_g3(skew: usize) -> StandardLp {
        let n = 9;
        let dist = |a: usize, b: usize| {
            let (dx, dy) = (
                (a % 3) as f64 - (b % 3) as f64,
                (a / 3) as f64 - (b / 3) as f64,
            );
            (dx * dx + dy * dy).sqrt()
        };
        let mut losses = Vec::with_capacity(n * n);
        for x in 0..n {
            let px = (1 + (x * skew) % 7) as f64 / 37.0;
            losses.extend((0..n).map(|z| px * dist(x, z)));
        }
        let mut pairs = Vec::new();
        for x in 0..n {
            for xp in (0..n).filter(|&xp| xp != x) {
                pairs.push((x, xp, (-0.7 * dist(x, xp)).exp()));
            }
        }
        crate::dual::opt_dual(n, &losses, &pairs)
    }

    #[test]
    fn exit_gate_refuses_a_negative_basic_value() {
        // The optimal basis of one prior's dual, installed on a sibling's:
        // dual-feasible, so phase 2 prices clean at once, but not
        // primal-feasible. Refinement reproduces the right-hand side, so
        // only the sign of the basic values can tell.
        let donor = solve_standard(&dualized_opt_g3(5), None).unwrap();
        let sibling = dualized_opt_g3(3);
        let mut eng = Engine::new(&sibling).unwrap();
        assert!(eng.install_basis(&donor.basis) && eng.dual_feasible());
        assert!(
            eng.xb.iter().any(|&v| v < -VALUE_CLIP),
            "the donor basis is primal-feasible on the sibling"
        );
        let r = finish_phase2(eng);
        assert!(r.residual < RESIDUAL_TOL, "residual {}", r.residual);
        assert_eq!(r.status, SimplexStatus::SingularBasis);
    }

    /// The row duals a pivot carried, checked against a fresh
    /// cost-sparse BTRAN and the dense product `B⁻ᵀc_B`. `==` lets ±0
    /// compare equal: the sign of an exact zero is the one thing the
    /// sparse sum and the carried duals may change.
    fn assert_duals_current(eng: &Engine, y: &[f64], pivots: usize) {
        let fresh = eng.duals();
        assert_eq!(y, &fresh[..], "carried duals differ after {pivots} pivots");
        let cb: Vec<f64> = eng.basis.iter().map(|&j| eng.lp.costs[j]).collect();
        assert_eq!(
            fresh,
            eng.binv.mul_vec_transpose(&cb),
            "sparse and dense BTRAN differ after {pivots} pivots"
        );
    }

    #[test]
    fn cost_sparse_btran_equals_dense_reference_at_every_pivot() {
        // Step a cold solve by hand (price → FTRAN → ratio test → pivot,
        // refactorizing every 16 pivots), carrying the duals through each
        // pivot, and compare them with a fresh BTRAN after each pivot.
        let lp = dualized_opt_g3(5);
        let mut eng = Engine::new(&lp).unwrap();
        eng.refactor_every = 16;
        let (mut pivots, mut most_costed) = (0usize, 0usize);
        let mut y = eng.duals();
        loop {
            assert_duals_current(&eng, &y, pivots);
            most_costed =
                most_costed.max(eng.basis.iter().filter(|&&j| lp.costs[j] != 0.0).count());
            let Some(q) = eng.price(&y, false) else {
                break;
            };
            let w = eng.ftran(q);
            let r = eng.ratio_test(&w, false).expect("an OPT dual is bounded");
            let step = (lp.costs[q] - lp.cols.col_dot(q, &y)) / w[r];
            let duals = Duals { y: &mut y, step };
            eng.pivot(r, q, &w, duals);
            pivots += 1;
        }
        assert!(pivots > 16, "too few pivots to cross a refactorization");
        assert!(
            most_costed >= 3,
            "summation order is only exercised with three or more costed positions"
        );

        // The same through a dual-simplex restart: a sibling LP installs
        // the optimal basis and pivots back to primal feasibility,
        // choosing its pivots as `restore_primal_feasibility` does.
        let donor = solve_standard(&lp, None).unwrap();
        let sibling = dualized_opt_g3(3);
        let mut eng = Engine::new(&sibling).unwrap();
        eng.refactor_every = 4;
        assert!(eng.install_basis(&donor.basis) && eng.dual_feasible());
        let mut y = eng.duals();
        let mut pivots = 0usize;
        loop {
            assert_duals_current(&eng, &y, pivots);
            let Some(r) = (0..eng.m)
                .filter(|&i| eng.xb[i] < -1e-9)
                .min_by(|&a, &b| eng.xb[a].total_cmp(&eng.xb[b]))
            else {
                break;
            };
            let rho: Vec<f64> = (0..eng.m).map(|k| eng.binv.col(k)[r]).collect();
            let q = (0..sibling.cols.ncols())
                .filter(|&j| !eng.in_basis[j])
                .filter_map(|j| {
                    let alpha = sibling.cols.col_dot(j, &rho);
                    let d = sibling.costs[j] - sibling.cols.col_dot(j, &y);
                    (alpha < -PIVOT_TOL).then(|| (j, d.max(0.0) / -alpha))
                })
                .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
                .expect("the restart reaches a feasible basis")
                .0;
            let w = eng.ftran(q);
            let step = (sibling.costs[q] - sibling.cols.col_dot(q, &y)) / w[r];
            let duals = Duals { y: &mut y, step };
            eng.pivot(r, q, &w, duals);
            pivots += 1;
        }
        assert!(
            pivots > 4,
            "too few restart pivots to cross a refactorization"
        );
    }
}
