//! GeoInd-safe degradation ladder: never drop a request, never serve a
//! channel whose privacy we cannot certify.
//!
//! A production sanitization service must answer every request, but the
//! optimal path can fail at runtime: an LP hits its iteration budget or a
//! singular basis, the offline channel cache is corrupt, a cache lock is
//! poisoned. [`ResilientMechanism`] wraps [`MsmMechanism`] with a
//! two-rung ladder:
//!
//! | tier | mechanism | per-query guarantee |
//! |------|-----------|---------------------|
//! | 0 `Optimal` | MSM with per-node OPT channels | composition bound, `Σ ε_i = ε` |
//! | 1 `PerLevelLaplace` | planar Laplace per level at the same `ε_i` | `ε_i`-GeoInd per level ⇒ `ε`-GeoInd composed |
//!
//! Planar Laplace is the GeoInd-safe floor because it satisfies ε-GeoInd
//! for **any** prior (Andrés et al.) — unlike OPT, whose guarantee rests
//! on an LP solve we may not be able to certify. Tier 1 preserves the
//! hierarchical output structure (reports are leaf-cell centers) by
//! sampling a continuous planar Laplace with the level budget, clamping
//! into the current cell, and descending into the enclosing child —
//! clamping and discretization are post-processing of an `ε_i`-GeoInd
//! mechanism, so the per-level guarantee is exact, and no raw
//! floating-point sample is ever emitted.
//!
//! ## Budget accounting under mid-descent faults
//!
//! A fault can strike *after* the optimal walk has completed `k` levels —
//! and the fault event itself may be correlated with the walk's path
//! (e.g. one specific cell's cached channel is corrupt). Those `k` levels
//! already spent `ε_1..ε_k` on input-dependent sampling, so a fallback
//! that restarted from the root at the full budget would let the
//! observable (output, serving tier) leak up to `ε_1..ε_k` *plus* `ε` —
//! more than the configured budget. The ladder therefore never restarts:
//! [`MsmMechanism::try_report_resumable`] reports the cell the completed
//! levels selected, and tier 1 **continues the descent from that cell**
//! using only the remaining level budgets `ε_{k+1}..ε_h`. Whatever the
//! fault pattern — even an adversarially path-correlated one — the total
//! spend on any input is at most `Σ ε_i = ε`, so the per-request tier can
//! be exposed safely.
//! Root-level faults (`k = 0`) occur before any sampling and naturally
//! get the whole budget.
//!
//! ## When each rung serves
//!
//! Degradation is *per report* and triggered only by typed
//! [`MechanismError`]s — panics are bugs, not control flow. Tier 1 serves
//! every degraded report: it exists for every built [`MsmMechanism`] (the
//! hierarchy and its per-level budgets were validated by the build), and
//! it is pure sampling plus grid geometry, so it cannot itself fail at
//! report time.
//!
//! Which tier served each request is counted in cheap atomic counters
//! ([`ResilientMechanism::served_by_tier`]) and summarized by
//! [`DegradationReport`], so operators can see when and why the optimal
//! path was bypassed.

use crate::msm::{DescentInterrupted, DescentOutcome, FlatTree, MsmBuilder, MsmMechanism};
use crate::planar_laplace::PlanarLaplace;
use crate::{Mechanism, MechanismError};
use geoind_rng::Rng;
use geoind_spatial::geom::{BBox, Point};
use geoind_spatial::hier::{HierGrid, LevelCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// Which rung of the degradation ladder served a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// MSM with per-node OPT channels (full utility).
    Optimal,
    /// Per-level planar Laplace at the same per-level budgets
    /// (hierarchical structure kept, OPT utility lost).
    PerLevelLaplace,
}

impl Tier {
    /// Ladder position: 0 is the optimal tier.
    pub fn index(self) -> usize {
        match self {
            Tier::Optimal => 0,
            Tier::PerLevelLaplace => 1,
        }
    }
}

impl std::fmt::Display for Tier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Tier::Optimal => write!(f, "optimal"),
            Tier::PerLevelLaplace => write!(f, "per-level-laplace"),
        }
    }
}

/// Tier-1 fallback: the MSM descent with every per-node OPT channel
/// replaced by a continuous planar Laplace at that level's budget.
///
/// At each level the true location is clamped into the current cell,
/// perturbed by a planar Laplace with budget `ε_i`, clamped back into the
/// cell, and the enclosing child becomes the next cell. Clamping and
/// child-snapping are deterministic post-processing of an `ε_i`-GeoInd
/// mechanism, so each step is `ε_i`-GeoInd and the walk composes to
/// `Σ ε_i = ε` exactly like the optimal descent. The walk can start at
/// any cell — [`Self::report_from`] continues a partially completed
/// optimal descent spending only the remaining levels' budgets.
#[derive(Debug)]
struct PerLevelLaplace {
    hier: HierGrid,
    /// One sampler per level, index 0 = level 1.
    levels: Vec<PlanarLaplace>,
}

impl PerLevelLaplace {
    /// One sampler per level of `hier`, at the built MSM's budgets.
    fn new(hier: HierGrid, budgets: &[f64]) -> Self {
        let levels = budgets.iter().map(|&e| PlanarLaplace::new(e)).collect();
        Self { hier, levels }
    }

    /// Continue the descent from `start` down to a leaf, spending only
    /// the budgets of levels `start.level + 1 ..= height`.
    fn report_from<R: Rng + ?Sized>(&self, start: LevelCell, x: Point, rng: &mut R) -> Point {
        let x = clamp_into(self.hier.domain(), x);
        let mut current = start;
        while current.level < self.hier.height() {
            let pl = &self.levels[current.level as usize];
            let ext = self.hier.extent(current);
            // Out-of-cell inputs are clamped to the cell border (a pure
            // function of x, so still post-processing of the PL sample).
            let centered = clamp_into(ext, x);
            let z = clamp_into(ext, pl.report_continuous(centered, rng));
            current = self.hier.enclosing_cell(z, current.level + 1);
        }
        self.hier.center(current)
    }
}

fn clamp_into(domain: BBox, p: Point) -> Point {
    // Clamp into the half-open box so `enclosing_cell` is total.
    let q = domain.clamp(p);
    Point::new(q.x.min(domain.max.x - 1e-12), q.y.min(domain.max.y - 1e-12))
}

/// Per-tier service counts plus the most recent degradation cause.
#[derive(Debug, Clone)]
pub struct DegradationReport {
    /// Reports served by each tier, indexed by [`Tier::index`].
    pub served_by_tier: [u64; 2],
    /// Tier-0 reports whose descent sampled at least one channel that the
    /// admission gate had to repair before certifying (see [`crate::certify`]).
    /// A subset of `served_by_tier[0]` — these requests were still served
    /// with a passing certificate.
    pub served_repaired: u64,
    /// Reports whose optimal descent was refused because a channel failed
    /// post-repair re-certification ([`MechanismError::ChannelQuarantined`]).
    /// Each such request was served by the closed-form tier 1 instead — a
    /// subset of `degraded()`.
    pub quarantined: u64,
    /// Duplicate channel fills suppressed by the cache's single-flight
    /// discipline: concurrent misses of one node that were handed the
    /// winning solve's channel instead of each paying a redundant LP
    /// solve (see [`crate::MsmMechanism::dedup_suppressed`]).
    pub dedup_suppressed: u64,
    /// Tier-0 reports served by the fused flattened-tree walk (the alias
    /// tables built at admission, see [`crate::MsmMechanism::flatten`])
    /// rather than the per-level channel-cache path. A subset of
    /// `served_by_tier[0]`.
    pub sampled_flat: u64,
    /// Human-readable cause of the most recent degradation, if any.
    pub last_fault: Option<String>,
}

impl DegradationReport {
    /// Total reports issued (the counters always account for 100% of them).
    pub fn total(&self) -> u64 {
        self.served_by_tier.iter().sum()
    }

    /// Reports *not* served by the optimal tier.
    pub fn degraded(&self) -> u64 {
        self.served_by_tier[1]
    }

    /// Every count, named as in the log line: the single list each
    /// rendering of this report is generated from.
    pub fn counters(&self) -> [(&'static str, u64); 8] {
        [
            ("optimal", self.served_by_tier[0]),
            ("per_level", self.served_by_tier[1]),
            ("total", self.total()),
            ("degraded", self.degraded()),
            ("repaired", self.served_repaired),
            ("quarantined", self.quarantined),
            ("dedup", self.dedup_suppressed),
            ("sampled_flat", self.sampled_flat),
        ]
    }

    /// Stable single-line log form: `degradation`, then `key=value` for
    /// each entry of [`Self::counters`]. The format is pinned by a test —
    /// operators grep and parse these lines, so changing it is a
    /// breaking change.
    pub fn log_line(&self) -> String {
        let fields: String = self
            .counters()
            .iter()
            .map(|(name, value)| format!(" {name}={value}"))
            .collect();
        format!("degradation{fields}")
    }
}

impl std::fmt::Display for DegradationReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.log_line())?;
        if let Some(fault) = &self.last_fault {
            write!(f, "\n# last fault: {fault}")?;
        }
        Ok(())
    }
}

/// [`Mechanism`] wrapper that guarantees `report()` is **total**: it
/// always returns a point, never panics on a mechanism fault, and never
/// exceeds the configured ε across the levels that actually sampled —
/// including when a fault strikes mid-descent (see the module docs on
/// budget accounting). See the module docs for the ladder.
#[derive(Debug)]
pub struct ResilientMechanism {
    msm: MsmMechanism,
    /// Tier 1, serving every degraded report.
    fallback: PerLevelLaplace,
    served: [AtomicU64; 2],
    /// Tier-0 serves whose descent used at least one gate-repaired channel.
    served_repaired: AtomicU64,
    /// Tier-0 serves answered by the fused flattened-tree walk.
    sampled_flat: AtomicU64,
    /// Requests refused the optimal path by a quarantine verdict.
    quarantined: AtomicU64,
    last_fault: Mutex<Option<String>>,
}

/// Does the error chain contain a quarantine verdict? The ladder counts
/// these separately: they mean a channel actively failed re-certification,
/// not that infrastructure (LP budget, cache lock) merely hiccuped.
fn is_quarantine(e: &MechanismError) -> bool {
    match e {
        MechanismError::ChannelQuarantined { .. } => true,
        MechanismError::Degraded { source, .. } => is_quarantine(source),
        _ => false,
    }
}

impl ResilientMechanism {
    /// Wrap a configured [`MsmBuilder`]; the fallback tier reuses the
    /// budgets the builder's allocator chose.
    ///
    /// # Errors
    /// Any [`MechanismError`] from [`MsmBuilder::build`] — construction is
    /// not degradable because the ladder's budgets come from it. (Build
    /// the builder with a known-good configuration; per-report faults are
    /// what the ladder absorbs.)
    pub fn from_builder(builder: MsmBuilder) -> Result<Self, MechanismError> {
        Ok(Self::new(builder.build()?))
    }

    /// Wrap an already-built [`MsmMechanism`]; tier 1 samples its
    /// hierarchy at its per-level budgets.
    pub fn new(msm: MsmMechanism) -> Self {
        let hier = HierGrid::new(msm.leaf_grid().domain(), msm.granularity(), msm.height());
        let fallback = PerLevelLaplace::new(hier, msm.budgets().budgets());
        Self {
            msm,
            fallback,
            served: Default::default(),
            served_repaired: AtomicU64::new(0),
            sampled_flat: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            last_fault: Mutex::new(None),
        }
    }

    /// The wrapped optimal-path mechanism.
    pub fn msm(&self) -> &MsmMechanism {
        &self.msm
    }

    /// Reports served by each tier so far, indexed by [`Tier::index`].
    pub fn served_by_tier(&self) -> [u64; 2] {
        self.served.each_ref().map(|n| n.load(Ordering::Relaxed))
    }

    /// Tier-0 reports served through at least one gate-repaired channel.
    pub fn served_repaired(&self) -> u64 {
        self.served_repaired.load(Ordering::Relaxed)
    }

    /// Reports refused the optimal path by a quarantine verdict.
    pub fn quarantined(&self) -> u64 {
        self.quarantined.load(Ordering::Relaxed)
    }

    /// Tier-0 reports served by the fused flattened-tree walk.
    pub fn sampled_flat(&self) -> u64 {
        self.sampled_flat.load(Ordering::Relaxed)
    }

    /// Flatten the wrapped MSM's admitted channels into the fused serving
    /// tree (see [`MsmMechanism::flatten`]). Until this succeeds — or if
    /// the cache is later invalidated — tier 0 serves through the
    /// per-level channel-cache path instead; both paths consume identical
    /// randomness, so the outputs are bit-identical either way.
    ///
    /// # Errors
    /// Propagates the wrapped mechanism's flattening failure (a channel
    /// solve failed, or the hierarchy is too tall to fuse); the ladder
    /// keeps serving on the unfused path.
    pub fn flatten(&self) -> Result<usize, MechanismError> {
        self.msm.flatten()
    }

    /// Snapshot the counters and the most recent degradation cause.
    pub fn degradation_report(&self) -> DegradationReport {
        DegradationReport {
            served_by_tier: self.served_by_tier(),
            served_repaired: self.served_repaired(),
            quarantined: self.quarantined(),
            dedup_suppressed: self.msm.dedup_suppressed(),
            sampled_flat: self.sampled_flat(),
            last_fault: self
                .last_fault
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone(),
        }
    }

    fn record(&self, tier: Tier, fault: Option<&MechanismError>) {
        self.served[tier.index()].fetch_add(1, Ordering::Relaxed);
        if let Some(e) = fault {
            let mut chain = e.to_string();
            let mut src = std::error::Error::source(e);
            while let Some(s) = src {
                chain.push_str(": ");
                chain.push_str(&s.to_string());
                src = s.source();
            }
            *self
                .last_fault
                .lock()
                .unwrap_or_else(PoisonError::into_inner) = Some(format!("{chain} -> {tier}"));
        }
    }

    /// Sanitize `x`, degrading through the ladder on typed faults. Returns
    /// the reported point and the tier that produced it.
    ///
    /// On a mid-descent fault the fallback *continues* from the cell the
    /// completed levels selected, spending only the remaining level
    /// budgets — never restarting — so the total spend stays within ε
    /// even when the fault is correlated with the descent path (module
    /// docs, "Budget accounting under mid-descent faults").
    ///
    /// The same `rng` drives whichever tier serves, consuming randomness
    /// only for the sampling that actually happens — with a fixed seed and
    /// a fixed (count-based) fault schedule the output stream is
    /// bit-deterministic.
    pub fn report_with_tier<R: Rng + ?Sized>(&self, x: Point, rng: &mut R) -> (Point, Tier) {
        let tree = self.msm.flat_tree();
        self.serve_one(tree.as_deref(), x, rng)
    }

    /// Sanitize a batch with one fused-tree resolution for the whole
    /// slice: each point is served exactly as [`Self::report_with_tier`]
    /// would, in order, from the same `rng` — a batch of one is
    /// bit-identical to a single call, and the counters account for every
    /// element.
    pub fn report_many<R: Rng + ?Sized>(&self, xs: &[Point], rng: &mut R) -> Vec<(Point, Tier)> {
        let tree = self.msm.flat_tree();
        xs.iter()
            .map(|&x| self.serve_one(tree.as_deref(), x, rng))
            .collect()
    }

    /// Serve one request against an already-resolved fused tree (or the
    /// unfused cache path when `None`). The single body behind both
    /// [`Self::report_with_tier`] and [`Self::report_many`].
    fn serve_one<R: Rng + ?Sized>(
        &self,
        tree: Option<&FlatTree>,
        x: Point,
        rng: &mut R,
    ) -> (Point, Tier) {
        match self.msm.descend_with(tree, x, rng) {
            Ok(DescentOutcome { point, repaired }) => {
                if repaired {
                    self.served_repaired.fetch_add(1, Ordering::Relaxed);
                }
                if tree.is_some() {
                    self.sampled_flat.fetch_add(1, Ordering::Relaxed);
                }
                self.record(Tier::Optimal, None);
                (point, Tier::Optimal)
            }
            Err(DescentInterrupted { resume, error }) => {
                if is_quarantine(&error) {
                    self.quarantined.fetch_add(1, Ordering::Relaxed);
                }
                // Tier 1 cannot fail: it is pure sampling plus geometry.
                // It resumes at `resume`, so only the budgets of the
                // unfinished levels are spent.
                let z = self.fallback.report_from(resume, x, rng);
                let tier = Tier::PerLevelLaplace;
                self.record(
                    tier,
                    Some(&MechanismError::Degraded {
                        tier,
                        source: Box::new(error),
                    }),
                );
                (z, tier)
            }
        }
    }
}

impl Mechanism for ResilientMechanism {
    fn report<R: Rng + ?Sized>(&self, x: Point, rng: &mut R) -> Point {
        // A panic below this point would be a bug in the *fallback* path;
        // the ladder itself never converts errors into panics.
        self.report_with_tier(x, rng).0
    }

    fn name(&self) -> String {
        format!("Resilient({})", self.msm.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::AllocationStrategy;
    use geoind_data::prior::GridPrior;
    use geoind_rng::SeededRng;

    fn resilient() -> ResilientMechanism {
        let domain = BBox::square(8.0);
        let prior = GridPrior::uniform(domain, 8);
        ResilientMechanism::from_builder(
            MsmMechanism::builder(domain, prior)
                .epsilon(0.8)
                .granularity(2)
                .strategy(AllocationStrategy::FixedHeight(2)),
        )
        .unwrap()
    }

    #[test]
    fn healthy_path_serves_tier0_only() {
        let r = resilient();
        let mut rng = SeededRng::from_seed(1);
        for i in 0..40 {
            let (_, tier) = r.report_with_tier(Point::new((i % 8) as f64, 3.0), &mut rng);
            assert_eq!(tier, Tier::Optimal);
        }
        assert_eq!(r.served_by_tier(), [40, 0]);
        assert!(r.degradation_report().last_fault.is_none());
        // Healthy LP solves certify outright: nothing repaired, nothing
        // quarantined.
        assert_eq!(r.served_repaired(), 0);
        assert_eq!(r.quarantined(), 0);
    }

    #[test]
    fn per_level_fallback_lands_on_leaf_centers() {
        let r = resilient();
        let fb = &r.fallback;
        let centers = r.msm().leaf_grid().centers();
        let mut rng = SeededRng::from_seed(2);
        for i in 0..200 {
            let x = Point::new((i % 8) as f64 + 0.3, (i % 7) as f64 + 0.6);
            let z = fb.report_from(LevelCell::ROOT, x, &mut rng);
            assert!(
                centers.iter().any(|c| c.dist(z) < 1e-12),
                "{z:?} not a leaf center"
            );
        }
    }

    #[test]
    fn resumed_fallback_stays_inside_the_resume_cell() {
        let r = resilient();
        let fb = &r.fallback;
        let mut rng = SeededRng::from_seed(3);
        // Resume from each level-1 cell: the continuation must never
        // leave it, whatever the input — that is what caps its spend at
        // the remaining budget.
        for id in 0..4usize {
            let start = LevelCell { level: 1, id };
            let ext = fb.hier.extent(start);
            for i in 0..50 {
                let x = Point::new((i % 8) as f64 + 0.1, (i % 7) as f64 + 0.5);
                let z = fb.report_from(start, x, &mut rng);
                assert!(
                    ext.contains_closed(z),
                    "resumed walk escaped cell {id}: {z:?}"
                );
            }
        }
    }

    #[test]
    fn degradation_log_line_format_is_pinned() {
        // Operators parse this line; the format is a contract. Update the
        // expected string ONLY together with every downstream consumer.
        let report = DegradationReport {
            served_by_tier: [40, 2],
            served_repaired: 5,
            quarantined: 1,
            dedup_suppressed: 2,
            sampled_flat: 9,
            last_fault: Some("lp budget exhausted".into()),
        };
        assert_eq!(
            report.log_line(),
            "degradation optimal=40 per_level=2 total=42 degraded=2 \
             repaired=5 quarantined=1 dedup=2 sampled_flat=9"
        );
        assert_eq!(
            report.to_string(),
            format!("{}\n# last fault: lp budget exhausted", report.log_line())
        );
    }

    #[test]
    fn report_counts_account_for_all_queries() {
        let r = resilient();
        let mut rng = SeededRng::from_seed(3);
        for _ in 0..25 {
            r.report(Point::new(4.0, 4.0), &mut rng);
        }
        let report = r.degradation_report();
        assert_eq!(report.total(), 25);
    }
}
