//! Geo-indistinguishability mechanisms — the paper's contribution.
//!
//! Three mechanisms share the [`Mechanism`] interface:
//!
//! * [`planar_laplace::PlanarLaplace`] — the fast, utility-poor baseline
//!   (Eq. 2), optionally remapped onto a discrete location set;
//! * [`opt::OptimalMechanism`] — the LP-based optimal mechanism of
//!   Bordenabe et al. (Eq. 3–6), exact but cubic in the location count;
//! * [`msm::MsmMechanism`] — the paper's **multi-step mechanism**
//!   (Algorithm 1): OPT applied per level of a hierarchical grid index with
//!   the privacy budget split by the Section-5 cost model
//!   ([`alloc`], Algorithm 2).
//!
//! Supporting modules: [`channel`] (row-stochastic channels + GeoInd
//! verification), [`metrics`] (quality-loss metrics `d_Q`), [`spanner`]
//! (δ-spanner constraint reduction, an ablation), [`adversary`] (Bayesian
//! posterior attacks), [`remap`] (Bayes-optimal post-processing),
//! [`trajectory`] (session budgets over movement traces) and [`eval`]
//! (utility-loss measurement harness).

#![warn(missing_docs)]
// Index-based loops over parallel arrays are the clearest style for the
// numeric kernels here; the iterator rewrites clippy suggests obscure them.
#![allow(clippy::needless_range_loop)]
// Test reference constants keep full printed precision from their sources.
#![allow(clippy::excessive_precision)]
// Library code reports failures as typed `MechanismError`s; panicking
// unwraps are confined to tests. (`expect` with an invariant message
// remains allowed.)
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod adversary;
pub mod alloc;
pub mod audit;
pub(crate) mod cache;
pub mod certify;
pub mod channel;
pub mod eval;
pub mod flat;
pub mod metrics;
pub mod msm;
pub mod offline;
pub mod opt;
pub mod planar_laplace;
pub mod pmsm;
pub mod remap;
pub mod resilient;
pub mod spanner;
pub mod trajectory;

pub use adversary::BayesianAdversary;
pub use alloc::{AllocationStrategy, BudgetAllocator, LevelBudgets};
pub use audit::{audit_geoind, AuditConfig, AuditReport};
pub use certify::{Certificate, CertifySpec, Verdict};
pub use channel::Channel;
pub use eval::{EvalReport, Evaluator};
pub use flat::FlatChannel;
pub use metrics::QualityMetric;
pub use msm::{DescentInterrupted, DescentOutcome, FlatAudit, MsmMechanism};
pub use offline::CacheImportReport;
pub use opt::OptimalMechanism;
pub use planar_laplace::PlanarLaplace;
pub use pmsm::{KdMsmMechanism, PartitionMsm, QuadMsmMechanism};
pub use remap::RemappedMechanism;
pub use resilient::{DegradationReport, ResilientMechanism, Tier};
pub use trajectory::{BudgetError, BudgetLedger, StepOutcome, TrajectoryProtector};

use geoind_rng::Rng;
use geoind_spatial::geom::Point;

/// A location-sanitization mechanism: maps a true location to a reported
/// one, consuming randomness.
pub trait Mechanism {
    /// Sanitize `x` into a reported location.
    fn report<R: Rng + ?Sized>(&self, x: Point, rng: &mut R) -> Point;

    /// Short human-readable mechanism name (used by the evaluation harness).
    fn name(&self) -> String;
}

/// Errors produced while constructing or running mechanisms.
///
/// Every variant carries enough structure for a caller (notably
/// [`ResilientMechanism`]) to decide how to degrade; inner errors are
/// reachable through [`std::error::Error::source`], not flattened into
/// the `Display` text.
#[derive(Debug)]
pub enum MechanismError {
    /// A parameter is out of its valid range.
    BadParameter(String),
    /// The underlying linear program failed (see `source()` for which way).
    Lp(geoind_lp::LpError),
    /// Budget allocation across index levels has no feasible solution.
    AllocationFailed(String),
    /// An offline channel-cache blob failed structural validation.
    CacheCorrupt {
        /// Which part of the blob failed (`header`, `entry 3`, …).
        section: String,
        /// What was wrong with it.
        detail: String,
    },
    /// A lock guarding shared mechanism state was poisoned by a panic on
    /// another thread; the guarded data can no longer be trusted.
    LockPoisoned(&'static str),
    /// A channel failed post-repair re-certification at an admission gate
    /// and was refused: sampling from it could violate the ε·d guarantee
    /// (see [`certify`]).
    ChannelQuarantined {
        /// The admission gate that refused it (`opt.solve`, `cache.import`, …).
        gate: &'static str,
        /// The scaled constraint violation measured after repair (infinite
        /// when a row could not back an alias table).
        max_violation: f64,
    },
    /// A request was served by a lower tier of the degradation ladder;
    /// `source` is the error that forced the fallback.
    Degraded {
        /// The tier that actually served the request.
        tier: Tier,
        /// The failure that made the higher tier unavailable.
        source: Box<MechanismError>,
    },
}

impl std::fmt::Display for MechanismError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MechanismError::BadParameter(m) => write!(f, "bad parameter: {m}"),
            MechanismError::Lp(_) => write!(f, "lp solver failed"),
            MechanismError::AllocationFailed(m) => {
                write!(f, "budget allocation failed: {m}")
            }
            MechanismError::CacheCorrupt { section, detail } => {
                write!(f, "channel cache corrupt at {section}: {detail}")
            }
            MechanismError::LockPoisoned(what) => {
                write!(f, "lock poisoned: {what}")
            }
            MechanismError::ChannelQuarantined {
                gate,
                max_violation,
            } => {
                write!(
                    f,
                    "channel quarantined at {gate}: post-repair violation \
                     {max_violation:.3e} exceeds certification tolerance"
                )
            }
            MechanismError::Degraded { tier, .. } => {
                write!(f, "request served by degraded tier {tier}")
            }
        }
    }
}

impl std::error::Error for MechanismError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MechanismError::Lp(e) => Some(e),
            MechanismError::Degraded { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

impl From<geoind_lp::LpError> for MechanismError {
    fn from(e: geoind_lp::LpError) -> Self {
        MechanismError::Lp(e)
    }
}
