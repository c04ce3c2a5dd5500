//! A from-scratch linear-programming solver, sized for the optimal
//! geo-indistinguishability mechanism.
//!
//! The OPT mechanism of Bordenabe et al. (used as the per-level building
//! block of the paper's multi-step mechanism) is a linear program with
//! `n²` variables and `n + n²(n−1)` constraints for `n` candidate locations —
//! cubic in `n`. The paper solves it with Gurobi's dual simplex; this crate
//! provides the equivalent capability without external dependencies, and
//! solves that one LP:
//!
//! * [`simplex`] — a revised primal simplex on computational standard form
//!   with an explicitly maintained (periodically refactorized) basis
//!   inverse, a slack starting basis (an LP without a slack on every row
//!   is refused), Dantzig pricing with Bland anti-cycling fallback, and
//!   warm starts from an exported [`Basis`].
//!   The engine has no tuning options: its tolerances and limits are
//!   constants ([`simplex::OPT_TOL`], [`simplex::VALUE_CLIP`] and private
//!   ones for the pivot tolerance, the iteration and stall limits, the
//!   exit residual gate and the `max(600, m)` refactorization cadence),
//!   and the one per-solve choice, a warm start, is an argument
//!   ([`Warm`]) of [`simplex::solve_standard`].
//! * [`dual`] — the optimal mechanism's LP, built as its dual directly in
//!   standard form. The OPT LP is *row-heavy* (`O(n³)` rows, `O(n²)`
//!   columns); its dual is column-heavy, which is the shape the revised
//!   simplex wants (basis size = row count). Solving the dual and reading
//!   the channel off its row duals is exactly how a commercial
//!   dual-simplex run behaves on the original problem, and it is the one
//!   path the optimal mechanism's solves take.
//! * [`lu`] — the sparse LU with partial pivoting that refactorizes the
//!   basis, bit-identical to the dense right-looking LU it replaced.
//! * [`sparse`] / [`dense`] — CSC matrices, and the dense matrix that
//!   holds the explicit basis inverse.
//!
//! ```
//! use geoind_lp::dual::{opt_dual, solve_opt_dual};
//!
//! // OPT over two locations 1 apart, uniform prior, ε = 1: each location
//! // is reported as the other with probability 1 / (1 + e^ε).
//! let scale = (-1.0f64).exp();
//! let losses = [0.0, 0.5, 0.5, 0.0];
//! let lp = opt_dual(2, &losses, &[(0, 1, scale), (1, 0, scale)]);
//! let opt = solve_opt_dual(&lp, None).unwrap();
//! let flip = 1.0 / (1.0 + 1.0f64.exp());
//! assert!((opt.channel[1] - flip).abs() < 1e-9);
//! assert!((opt.objective - flip).abs() < 1e-9);
//! ```

#![warn(missing_docs)]
// Index-based loops over parallel arrays are the clearest style for the
// numeric kernels here; the iterator rewrites clippy suggests obscure them.
#![allow(clippy::needless_range_loop)]
// Test reference constants keep full printed precision from their sources.
#![allow(clippy::excessive_precision)]
// Library code reports failures as typed `LpError`s; panicking unwraps are
// confined to tests. (`expect` with an invariant message remains allowed.)
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod dense;
pub mod dual;
pub mod lu;
pub mod simplex;
pub mod sparse;

pub use simplex::{Basis, Effort, SimplexStatus, Warm};
pub use sparse::CscMatrix;

/// Errors surfaced by the solvers.
#[derive(Debug, Clone, PartialEq)]
pub enum LpError {
    /// The primal has no feasible point: the dual solved for it is
    /// unbounded.
    Infeasible,
    /// The iteration limit was hit before convergence.
    IterationLimit,
    /// The basis became numerically singular, or a nominally optimal
    /// solution failed the exit quality gate (its residual, or a basic
    /// value below `−VALUE_CLIP`).
    SingularBasis,
    /// The row has no unit (+1 singleton) column, so the engine has no
    /// slack basis to start from.
    UncoveredRow(usize),
}

impl std::fmt::Display for LpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LpError::Infeasible => write!(f, "infeasible"),
            LpError::IterationLimit => write!(f, "iteration limit reached"),
            LpError::SingularBasis => {
                write!(f, "numerically singular basis (solution not certified)")
            }
            LpError::UncoveredRow(r) => write!(f, "row {r} has no unit column to start from"),
        }
    }
}

impl std::error::Error for LpError {}
