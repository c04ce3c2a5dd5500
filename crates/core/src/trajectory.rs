//! Trajectory protection by sequential composition.
//!
//! The paper protects one query at a time; a real client reports *many*
//! locations over a session, and by the composability property
//! (Section 2.2) the leakage adds up: `k` reports through an ε-GeoInd
//! mechanism are jointly `k·ε`-GeoInd at worst. This module makes that
//! budget arithmetic explicit and safe:
//!
//! * [`BudgetLedger`] — tracks a session budget and refuses to overdraw it.
//! * [`TrajectoryProtector`] — sanitizes a stream of positions through any
//!   [`Mechanism`], charging the ledger per report, with an optional
//!   *speed-gate* heuristic that suppresses re-reporting when the user has
//!   barely moved (re-releasing a near-identical location spends budget for
//!   almost no utility — the standard practice recommendation from the
//!   GeoInd literature).

use crate::{Mechanism, MechanismError};
use geoind_rng::Rng;
use geoind_spatial::geom::Point;

/// Why a [`BudgetLedger`] refused a charge. Nothing is spent on refusal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BudgetError {
    /// The charge would overdraw the budget; serving it would void the
    /// composed-ε guarantee, so the caller must refuse the request.
    Exhausted {
        /// The ε the caller tried to spend.
        requested: f64,
        /// The ε still available (possibly 0).
        remaining: f64,
    },
    /// The charge amount itself is invalid (non-positive or non-finite).
    BadCharge(f64),
}

impl std::fmt::Display for BudgetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BudgetError::Exhausted {
                requested,
                remaining,
            } => write!(
                f,
                "budget exhausted: requested {requested}, remaining {remaining}"
            ),
            BudgetError::BadCharge(eps) => write!(f, "invalid budget charge {eps}"),
        }
    }
}

impl std::error::Error for BudgetError {}

/// A privacy-budget account for a reporting session.
#[derive(Debug, Clone)]
pub struct BudgetLedger {
    total: f64,
    spent: f64,
}

impl BudgetLedger {
    /// Open a ledger with a total session budget.
    ///
    /// # Panics
    /// Panics if `total <= 0`.
    pub fn new(total: f64) -> Self {
        assert!(total > 0.0, "session budget must be positive");
        Self { total, spent: 0.0 }
    }

    /// Reconstruct a ledger from persisted state. `spent` may exceed
    /// `total`: a fail-closed recovery is allowed to over-count spend
    /// (the account then refuses every further charge), never to
    /// under-count it.
    ///
    /// # Panics
    /// Panics if `total <= 0` or `spent` is negative or non-finite.
    pub fn with_spent(total: f64, spent: f64) -> Self {
        assert!(total > 0.0, "session budget must be positive");
        assert!(
            spent >= 0.0 && spent.is_finite(),
            "recovered spend must be finite and non-negative"
        );
        Self { total, spent }
    }

    /// Total session budget.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Budget consumed so far.
    pub fn spent(&self) -> f64 {
        self.spent
    }

    /// Budget still available.
    pub fn remaining(&self) -> f64 {
        (self.total - self.spent).max(0.0)
    }

    /// Try to charge `eps`; returns whether the charge fit the budget.
    ///
    /// # Panics
    /// Panics if `eps <= 0` (see [`Self::try_charge`] for the non-panicking
    /// form).
    pub fn charge(&mut self, eps: f64) -> bool {
        assert!(eps > 0.0, "charges must be positive");
        self.try_charge(eps).is_ok()
    }

    /// Fallible charge: spends `eps` atomically or refuses with a typed
    /// [`BudgetError`] and spends nothing. This is the serving-layer API —
    /// a refusal must be distinguishable from an invalid charge so the
    /// caller can count each outcome separately.
    ///
    /// # Errors
    /// [`BudgetError::BadCharge`] on non-positive/non-finite `eps`,
    /// [`BudgetError::Exhausted`] when the charge would overdraw.
    pub fn try_charge(&mut self, eps: f64) -> Result<(), BudgetError> {
        if !(eps > 0.0 && eps.is_finite()) {
            return Err(BudgetError::BadCharge(eps));
        }
        if self.spent + eps > self.total + 1e-12 {
            return Err(BudgetError::Exhausted {
                requested: eps,
                remaining: self.remaining(),
            });
        }
        self.spent += eps;
        Ok(())
    }

    /// Unconditionally record spend, even past the total — the recovery
    /// primitive. A write-ahead journal replaying after a crash must count
    /// every durable record whether or not the corresponding request was
    /// ever served; over-counting only causes refusals (safe), while
    /// under-counting would over-serve ε (never allowed).
    pub fn force_spend(&mut self, eps: f64) {
        assert!(
            eps >= 0.0 && eps.is_finite(),
            "recovered spend must be finite and non-negative"
        );
        self.spent += eps;
    }
}

/// Outcome of one trajectory step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StepOutcome {
    /// A fresh sanitized location was released (budget charged).
    Released(Point),
    /// The previous release was reused — the user moved less than the
    /// suppression radius, so no budget was spent.
    Reused(Point),
    /// The session budget is exhausted; nothing was released.
    BudgetExhausted,
}

/// Sanitizes a movement trace through a per-report mechanism under a
/// session-level budget.
#[derive(Debug)]
pub struct TrajectoryProtector<M: Mechanism> {
    mechanism: M,
    per_report_eps: f64,
    ledger: BudgetLedger,
    /// Suppress a new release when within this distance (km) of the
    /// position at the previous *released* report. `0` disables the gate.
    suppression_radius: f64,
    last_true: Option<Point>,
    last_released: Option<Point>,
    releases: usize,
}

impl<M: Mechanism> TrajectoryProtector<M> {
    /// Create a protector.
    ///
    /// `per_report_eps` is the budget each fresh release costs (it must be
    /// the ε the `mechanism` was built with — the protector cannot verify
    /// this, it only does the accounting).
    ///
    /// # Errors
    /// [`MechanismError::BadParameter`] on non-positive parameters.
    pub fn new(
        mechanism: M,
        per_report_eps: f64,
        session_budget: f64,
        suppression_radius: f64,
    ) -> Result<Self, MechanismError> {
        if per_report_eps <= 0.0 {
            return Err(MechanismError::BadParameter(
                "per-report eps must be positive".into(),
            ));
        }
        if session_budget < per_report_eps {
            return Err(MechanismError::BadParameter(
                "session budget below a single report's cost".into(),
            ));
        }
        if suppression_radius < 0.0 {
            return Err(MechanismError::BadParameter(
                "suppression radius must be >= 0".into(),
            ));
        }
        Ok(Self {
            mechanism,
            per_report_eps,
            ledger: BudgetLedger::new(session_budget),
            suppression_radius,
            last_true: None,
            last_released: None,
            releases: 0,
        })
    }

    /// The ledger (for dashboards / tests).
    pub fn ledger(&self) -> &BudgetLedger {
        &self.ledger
    }

    /// Number of fresh releases so far.
    pub fn releases(&self) -> usize {
        self.releases
    }

    /// Maximum number of fresh releases this session can still afford.
    pub fn reports_remaining(&self) -> usize {
        (self.ledger.remaining() / self.per_report_eps + 1e-9) as usize
    }

    /// Process the next position of the trace.
    pub fn step<R: Rng + ?Sized>(&mut self, x: Point, rng: &mut R) -> StepOutcome {
        if let (Some(prev), Some(released)) = (self.last_true, self.last_released) {
            if self.suppression_radius > 0.0 && prev.dist(x) <= self.suppression_radius {
                // The cached release is a valid output for the *previous*
                // position; reusing it reveals nothing new about `x` beyond
                // post-processing, so no budget is charged.
                return StepOutcome::Reused(released);
            }
        }
        if !self.ledger.charge(self.per_report_eps) {
            return StepOutcome::BudgetExhausted;
        }
        let z = self.mechanism.report(x, rng);
        self.last_true = Some(x);
        self.last_released = Some(z);
        self.releases += 1;
        StepOutcome::Released(z)
    }

    /// Sanitize an entire trace; exhausted steps yield `None`.
    pub fn protect_trace<R: Rng + ?Sized>(
        &mut self,
        trace: &[Point],
        rng: &mut R,
    ) -> Vec<Option<Point>> {
        trace
            .iter()
            .map(|&x| match self.step(x, rng) {
                StepOutcome::Released(z) | StepOutcome::Reused(z) => Some(z),
                StepOutcome::BudgetExhausted => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planar_laplace::PlanarLaplace;
    use geoind_rng::SeededRng;

    fn walk(n: usize, step: f64) -> Vec<Point> {
        (0..n)
            .map(|i| Point::new(10.0 + i as f64 * step, 10.0))
            .collect()
    }

    #[test]
    fn ledger_arithmetic() {
        let mut l = BudgetLedger::new(1.0);
        assert!(l.charge(0.4));
        assert!(l.charge(0.6));
        assert!(!l.charge(0.01));
        assert!((l.spent() - 1.0).abs() < 1e-12);
        assert_eq!(l.remaining(), 0.0);
    }

    #[test]
    fn try_charge_types_each_refusal() {
        let mut l = BudgetLedger::new(1.0);
        assert!(l.try_charge(0.9).is_ok());
        assert_eq!(
            l.try_charge(0.2),
            Err(BudgetError::Exhausted {
                requested: 0.2,
                remaining: l.remaining(),
            })
        );
        // A refusal spends nothing.
        assert!((l.spent() - 0.9).abs() < 1e-12);
        assert_eq!(l.try_charge(0.0), Err(BudgetError::BadCharge(0.0)));
        assert_eq!(
            l.try_charge(f64::INFINITY),
            Err(BudgetError::BadCharge(f64::INFINITY))
        );
    }

    #[test]
    fn recovery_primitives_allow_overdraft_but_never_overserve() {
        // force_spend past the total is legal (fail-closed recovery may
        // over-count); the account must then refuse every charge.
        let mut l = BudgetLedger::with_spent(1.0, 0.8);
        l.force_spend(0.5);
        assert!(l.spent() > l.total());
        assert_eq!(l.remaining(), 0.0);
        assert!(matches!(
            l.try_charge(0.1),
            Err(BudgetError::Exhausted { .. })
        ));
    }

    #[test]
    fn budget_caps_release_count() {
        let mut rng = SeededRng::from_seed(1);
        let mut p = TrajectoryProtector::new(PlanarLaplace::new(0.2), 0.2, 1.0, 0.0).unwrap();
        let out = p.protect_trace(&walk(10, 1.0), &mut rng);
        // 1.0 / 0.2 = 5 releases, then exhaustion.
        assert_eq!(out.iter().filter(|o| o.is_some()).count(), 5);
        assert_eq!(p.releases(), 5);
        assert_eq!(p.reports_remaining(), 0);
        assert!(out[5..].iter().all(|o| o.is_none()));
    }

    #[test]
    fn suppression_reuses_release_without_spending() {
        let mut rng = SeededRng::from_seed(2);
        let mut p = TrajectoryProtector::new(PlanarLaplace::new(0.5), 0.5, 2.0, 0.5).unwrap();
        // Tiny steps: only the first report should spend budget.
        let out = p.protect_trace(&walk(8, 0.01), &mut rng);
        assert_eq!(p.releases(), 1);
        assert!((p.ledger().spent() - 0.5).abs() < 1e-12);
        // All outputs present and identical (the cached release).
        let first = out[0].unwrap();
        for o in &out {
            assert_eq!(o.unwrap(), first);
        }
    }

    #[test]
    fn movement_beyond_radius_triggers_fresh_release() {
        let mut rng = SeededRng::from_seed(3);
        let mut p = TrajectoryProtector::new(PlanarLaplace::new(0.5), 0.5, 10.0, 0.5).unwrap();
        let trace = vec![
            Point::new(10.0, 10.0),
            Point::new(10.1, 10.0), // within radius: reuse
            Point::new(12.0, 10.0), // beyond: fresh
        ];
        let out = p.protect_trace(&trace, &mut rng);
        assert_eq!(p.releases(), 2);
        assert_eq!(out[0], out[1]);
        assert!(out.iter().all(|o| o.is_some()));
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(TrajectoryProtector::new(PlanarLaplace::new(0.5), 0.0, 1.0, 0.0).is_err());
        assert!(TrajectoryProtector::new(PlanarLaplace::new(0.5), 0.5, 0.3, 0.0).is_err());
        assert!(TrajectoryProtector::new(PlanarLaplace::new(0.5), 0.5, 1.0, -1.0).is_err());
    }

    #[test]
    fn composed_budget_bounds_total_leakage() {
        // Empirical sanity: with k releases at eps each, the log-likelihood
        // ratio between two traces differing in every position is bounded by
        // sum(eps_i * d_i). We verify the *accounting* side: spent budget
        // equals releases * per-report eps.
        let mut rng = SeededRng::from_seed(4);
        let mut p = TrajectoryProtector::new(PlanarLaplace::new(0.3), 0.3, 1.0, 0.0).unwrap();
        let _ = p.protect_trace(&walk(3, 2.0), &mut rng);
        assert!((p.ledger().spent() - 0.9).abs() < 1e-12);
        assert_eq!(p.releases(), 3);
    }
}
