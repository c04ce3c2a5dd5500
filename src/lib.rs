//! # geoind — utility-preserving, scalable geo-indistinguishability
//!
//! Facade crate for the workspace reproducing *“A Utility-Preserving and
//! Scalable Technique for Protecting Location Data with
//! Geo-Indistinguishability”* (Ahuja, Ghinita, Shahabi — EDBT 2019).
//!
//! The paper's contribution — the **multi-step mechanism (MSM)** over a
//! GeoInd-preserving hierarchical index — lives in [`mechanisms`], together
//! with the two baselines it is evaluated against (planar Laplace and the
//! LP-based optimal mechanism). The substrates it depends on are re-exported
//! under [`lp`], [`math`], [`spatial`] and [`data`]. The production-facing
//! serving layer — per-user ε-budget ledger with write-ahead-journal crash
//! recovery, deadlines, and admission control — is re-exported under
//! [`serve`].
//!
//! ## Quickstart
//!
//! ```
//! use geoind::prelude::*;
//!
//! // A 20x20 km city with a synthetic check-in history.
//! let dataset = SyntheticCity::austin_like().generate_with_size(5_000, 500);
//! let domain = dataset.domain();
//! let prior = GridPrior::from_dataset(&dataset, 16);
//!
//! // Protect a location with the multi-step mechanism at eps = 0.5.
//! let msm = MsmMechanism::builder(domain, prior)
//!     .epsilon(0.5)
//!     .granularity(4)
//!     .rho(0.8)
//!     .build()
//!     .unwrap();
//! let mut rng = SeededRng::from_seed(7);
//! let reported = msm.report(dataset.checkins()[0].location, &mut rng);
//! assert!(domain.contains(reported));
//! ```

#![warn(missing_docs)]

pub use geoind_core as mechanisms;
pub use geoind_data as data;
pub use geoind_lp as lp;
pub use geoind_math as math;
pub use geoind_rng as rng;
pub use geoind_serve as serve;
pub use geoind_spatial as spatial;

/// One-stop imports for typical use of the library.
pub mod prelude {
    pub use geoind_core::adversary::BayesianAdversary;
    pub use geoind_core::alloc::{AllocationStrategy, BudgetAllocator, LevelBudgets};
    pub use geoind_core::channel::Channel;
    pub use geoind_core::eval::{EvalReport, Evaluator};
    pub use geoind_core::metrics::QualityMetric;
    pub use geoind_core::msm::{LevelSolveStats, MsmMechanism};
    pub use geoind_core::opt::{ConstraintSet, OptOptions, OptimalMechanism};
    pub use geoind_core::planar_laplace::PlanarLaplace;
    pub use geoind_core::resilient::{DegradationReport, ResilientMechanism, Tier};
    pub use geoind_core::Mechanism;
    pub use geoind_data::checkin::{CheckIn, Dataset};
    pub use geoind_data::prior::GridPrior;
    pub use geoind_data::synth::SyntheticCity;
    pub use geoind_rng::{Rng, SeededRng};
    pub use geoind_spatial::geom::{BBox, Point};
    pub use geoind_spatial::grid::Grid;
}
